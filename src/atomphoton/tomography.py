"""Two-qubit state reconstruction from count data.

Every outcome probability is linear in the 16 real Pauli coefficients r of
rho, p = A r, whatever the setting (James, Kwiat, Munro & White, PRA 64,
052312, 2001). A `TomographySet` fits through the design matrix A of its own
records' outcome operators, so any settings that determine all 16
coefficients can be fit. Pipeline: counts -> linear inversion -> projection
onto the physical set -> maximum-likelihood refinement by projected gradient,
which only has to find the optimum's face, and a Newton finish on that face;
it fits a whole stack of datasets at once, through `qmath`'s Pauli map and its
row-stacked products.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .measurement import (
    ATOM_SX,
    ATOM_SY,
    ATOM_SZ,
    MAX_COUNT,
    PHOTON_SX,
    PHOTON_SY,
    PHOTON_SZ,
    Dataset,
    MeasurementSetting,
    check_integer,
    outcome_operators,
    outcome_probabilities,
    simulate_settings,
)
from .metrics import fidelity_to_target, negativity, purity
from .states import NoiseModel

PAULI_LABELS = np.array([a + b for a in "ixyz" for b in "ixyz"])   # "ii" .. "zz": atom, photon
_RANKS = np.arange(1.0, 5.0)   # the ranks 1 .. 4 `_projection` divides by


def canonical_settings():
    """The nine Pauli-Pauli measurement settings, 'xx' .. 'zz'; their outcomes
    are the Pauli eigenprojector products in sign order (+,+) .. (-,-)."""
    return [MeasurementSetting(atom=atom, photon=photon)
            for atom in (ATOM_SX, ATOM_SY, ATOM_SZ)
            for photon in (PHOTON_SX, PHOTON_SY, PHOTON_SZ)]


def simulate_tomography(rho, n_per_setting, noise=None, seed=0, exact=False):
    """Dataset over the canonical nine settings."""
    return simulate_settings(rho, canonical_settings(), n_per_setting,
                             noise=noise, seed=seed, exact=exact)


class Design:
    """The linear model p = A r of outcome operators E_k, four per setting:
    A[k, m] = tr(E_k P_m) / 4, its C-contiguous transpose and pseudo-inverse,
    the only copies the fit reads. An error names the Pauli coefficients
    that A leaves undetermined."""

    def __init__(self, operators):
        self.operators = operators
        self.matrix = qmath.coefficients(operators) / 4.0
        self.matrix_t = self.matrix.T.copy()
        # singular values up to max(A.shape) * eps * s_max count as zero
        self.inverse = np.linalg.pinv(self.matrix, rtol=None)
        # (A+ A)_mm is 1, to rounding, less the weight of coefficient m in A's null space
        lost = PAULI_LABELS[np.einsum("mk,km->m", self.inverse, self.matrix) < 1.0 - 1e-9]
        if lost.size:
            raise ValueError(f"the settings leave the Pauli coefficients {', '.join(lost)} "
                             f"undetermined (design rank {np.linalg.matrix_rank(self.matrix)})")


@dataclass
class TomographySet:
    """Counts of S settings as one (S, 4) array in outcome order, and the
    design of their 4S outcome operators, four per row of counts. Each row is
    four cells from 0 to 2**53 (`MAX_COUNT`) with a positive total; `exact`
    is True or False, refused by name otherwise ("false" is not read as true)."""

    counts: np.ndarray
    design: Design
    exact: bool = False

    def __post_init__(self):
        if not isinstance(self.exact, bool):
            raise ValueError(f"field 'exact' must be True or False, got {self.exact!r}")
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (n := len(self.design.matrix) // 4, 4):
            raise ValueError(f"tomography counts must have shape {(n, 4)}, "
                             f"got {self.counts.shape}")
        if refused := _refused_row(self.counts):
            k, problem = refused
            raise ValueError(f"setting {k + 1}{problem}")

    @classmethod
    def from_dataset(cls, dataset: Dataset):
        """One row per distinct setting: records with bitwise-equal outcome
        operators are summed into the first, in record order; a sum refused as a
        row names the records it adds, numbered from 1. The records' angles are
        checked by `outcome_operators`, the metadata's `exact` by the constructor."""
        ops = outcome_operators(dataset.settings).reshape(-1, 4, 4, 4)
        first = {}
        rows = [first.setdefault(op.tobytes(), len(first)) for op in ops]
        counts = np.zeros((len(first), 4))
        np.add.at(counts, rows, dataset.records)   # row by row in record order
        kept = ops[np.unique(rows, return_index=True)[1]].reshape(-1, 4, 4)
        design = Design(kept)
        try:
            return cls(counts, design, exact=dataset.metadata.get("exact", False))
        except ValueError:   # a refused sum names the records it adds
            k, problem = _refused_row(counts) or (None, "")   # None: `exact` was refused
            summed = [str(n + 1) for n, row in enumerate(rows) if row == k]
            if len(summed) < 2:
                raise
            raise ValueError(f"setting {k + 1} (rows {', '.join(summed[:-1])} and {summed[-1]} "
                             f"summed){problem}") from None


def _refused_row(counts):
    """(index, problem) of the first row of counts that is not four cells from
    0 to 2**53 (`MAX_COUNT`) with a positive total, or None."""
    cells_ok = ((counts >= 0) & (counts <= MAX_COUNT)).all(axis=1)
    bad = np.flatnonzero(~cells_ok | (counts.sum(axis=1, where=cells_ok[:, None]) <= 0))
    if not bad.size:
        return None
    k = bad[0]
    return k, (" has no counts" if cells_ok[k] else
               ": counts must be four finite non-negative cells of at most 2**53")


def _inverted_coefficients(counts, design):
    """Pauli coefficients of the linear inversion of an (R, S, 4) count stack."""
    freqs = counts / counts.sum(axis=2, keepdims=True)
    return np.einsum("mk,rk->rm", design.inverse, freqs.reshape(len(counts), -1))


def linear_inversion(ts: TomographySet):
    """Least-squares state of the linear model p = A r (James, Kwiat, Munro
    & White, PRA 64, 052312, 2001) from the per-setting frequencies:
    rho = sum_{mu nu} r_{mu nu} s_mu (x) s_nu / 4. Hermitian and trace 1;
    may be non-PSD on noisy data."""
    return qmath.states(_inverted_coefficients(ts.counts[None], ts.design))[0]


def _projection(x):
    """Closest PSD trace-1 matrix in Frobenius norm to the Hermitian matrix of
    each row of (R, 16) Pauli coefficients, as coefficients, and its rank:
    eigenvalues projected onto the probability simplex (less the largest of
    (sum of the j largest - 1) / j over j, clipped at 0), eigenvectors kept."""
    w, u = np.linalg.eigh(qmath.states(x))
    tau = ((np.cumsum(w[:, ::-1], axis=1) - 1.0) / _RANKS).max(axis=1)
    lam = np.maximum(w - tau[:, None], 0.0)
    return (qmath.coefficients(np.einsum("rij,rj,rkj->rik", u, lam, u.conj())),
            np.count_nonzero(lam, axis=1))


# ----------------------------------------------------------------------
# Maximum-likelihood refinement
# ----------------------------------------------------------------------

@dataclass
class FitReport:
    """`gap_bound` certifies the fit: the log-likelihood of the returned
    state is within gap_bound of the maximum. `converged` says that a Newton
    finish certified the fit before MLE_MAX_ITER iterations: its decrement
    on the face and the gap bound over all states both passed. `iterations`
    counts projected-gradient steps, which find the face and hand it to
    Newton once it has held for MLE_STALL_STEPS accepted steps, and Newton
    steps alike."""

    log_likelihood: float
    init_log_likelihood: float
    iterations: int
    converged: bool
    gap_bound: float
    regularization: str = "none"


MLE_MAX_ITER = 5000
# Once its rank has held for MLE_STALL_STEPS accepted steps, or MLE_STALL_STEPS
# steps in a row have lowered f by at most MLE_REL_TOL * |f|, a fit tries a
# Newton finish on the face of that rank. The finish certifies the fit when
# the Newton decrement bounds the excess on the face, |lambda^2| / 2 <=
# MLE_REL_TOL * |f|, and the gap bound the excess over all states: near the
# optimum f curves on the scale of N = sum_k n_k, so gap_bound**2 / N
# estimates the excess, and it must be at most MLE_GAP_TOL * |f|. Otherwise
# the face was wrong and projected gradient resumes; a fit that stalls again
# without lowering f below its value at the start of the failed attempt
# stops unconverged.
MLE_REL_TOL = 1e-12
MLE_STALL_STEPS = 2
MLE_GAP_TOL = 1e-11
MLE_NEWTON_STEPS = 12       # Newton iterations per attempt on a face
_PROB_FLOOR = 1e-12
_STEP_GROWTH = 1.2
_ARMIJO = 0.25             # share of the predicted decrease a damped step must bring
_MIN_DAMPING = 2.0 ** -20  # the smallest damped step before the attempt fails
_NEWTON_ROWS = 32         # rows per Newton step: bounds its temporaries to about 0.5 MB


def _nll(counts, p):
    return -np.einsum("rk,rk->r", counts, np.log(np.maximum(p, _PROB_FLOOR)))


def _gradient(counts, x, design):
    """(p, w, c) at Pauli coefficients x: p = A x; w = n / p with p clipped at
    _PROB_FLOOR, clipped cells weighing 0; and -grad f over the coefficients,
    c_m = sum_k w_k A_km = tr(G P_m) / 4 for the density-matrix gradient -G."""
    p = qmath.rows(x, design.matrix_t)
    w = np.where(p > _PROB_FLOOR, counts, 0.0) / np.maximum(p, _PROB_FLOOR)
    return p, w, qmath.rows(w, design.matrix)


def _gap_bound(counts, r, design):
    """Glancy, Knill & Girard (NJP 14, 095017, 2012): f is convex with
    gradient -G, G = sum_k (n_k/p_k) E_k, and tr(G rho) = N, so
    f(rho) - min f <= lambda_max(G) - N. With c from `_gradient`,
    G = sum_m c_m P_m = 4 qmath.states(c)."""
    p, w, c = _gradient(counts, r, design)
    return np.linalg.eigvalsh(4.0 * qmath.states(c))[:, -1] - np.einsum("rk,rk->r", w, p)


def _fit_stack(counts, x, design):
    """Minimize f(rho) = -sum_k n_k log tr(E_k rho) over physical states for
    each row of an (R, K) count stack, reading A and its transpose from the
    `Design`. Each fit starts from Pi of its row of x, the (R, 16) Pauli
    coefficients of a linear inversion, and that projection gives the
    start's face (its rank). Projected gradient, x <- Pi(x + t c(x)) for
    c = -grad f from `_gradient` with a step t per fit from 1 / N,
    refuses a step when rounding would let f rise. Once a fit has settled on
    a face (the rank its projections keep) for MLE_STALL_STEPS accepted
    steps, or stalls, `_face_newton` finishes it, and only a finish
    certifies. A failed finish hands its best point back to projected
    gradient; the fit tries again only once f has fallen below its value at
    the start of the failed attempt, so the loop never repeats without
    progress. A fit leaves the stack certified (converged), or unconverged
    when it stalls without such progress or reaches MLE_MAX_ITER
    iterations, gradient and Newton steps alike.
    Rows are grouped by face rank, never padded, and every operation acts on
    each row alone, so a row's fit does not depend on the stack. Returns
    (x, f, f0, iterations, converged)."""
    # rank: the face of the last accepted step, or of the start before the
    # first one; settled: accepted steps in a row on that face
    x, rank = _projection(x)
    f = f0 = _nll(counts, qmath.rows(x, design.matrix_t))
    out_x, out_f = x.copy(), f.copy()
    iterations, converged = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)
    rows, n, its = np.arange(len(x)), counts, np.zeros(len(x), dtype=int)
    settled, stalls = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=int)
    f_failed = np.full(len(x), np.inf)    # f at the start of the last failed finish
    t = 1.0 / counts.sum(axis=1)   # a longer first step mostly backtracks
    while True:
        x_new, f_new, r_new = _backtracked_step(n, x, f, _gradient(n, x, design)[2], t, design)
        its += 1
        t *= _STEP_GROWTH
        # a refused step (f_new > f) counts as a stall too
        stalls = np.where(f - f_new <= MLE_REL_TOL * np.abs(f), stalls + 1, 0)
        accept = f_new <= f
        x = np.where(accept[:, None], x_new, x)
        f = np.where(accept, f_new, f)
        settled = np.where(accept, np.where(r_new == rank, settled + 1, 1), settled)
        rank = np.where(accept, r_new, rank)
        stalled = stalls >= MLE_STALL_STEPS
        ready = stalled | (settled >= MLE_STALL_STEPS)
        capped = its >= MLE_MAX_ITER
        if ready.any() or capped.any():
            ready &= (f < f_failed) & ~capped
            # stalled with no decrease at all since the last failed finish: stuck
            finished, stop = capped | (stalled & ~ready), np.zeros(len(rows), dtype=bool)
            if ready.any():
                idx = np.flatnonzero(ready)
                f_failed[idx] = f[idx]
                x[idx], f[idx], used, stop[idx] = _face_newton(
                    n[idx], x[idx], f[idx], rank[idx], MLE_MAX_ITER - its[idx], design)
                its[idx] += used
                stalls[idx], settled[idx] = 0, 0
                finished[idx] = stop[idx] | (its[idx] >= MLE_MAX_ITER)
            if finished.any():
                idx = rows[finished]
                out_x[idx], out_f[idx] = x[finished], f[finished]
                iterations[idx], converged[idx] = its[finished], stop[finished]
                if finished.all():
                    break
                keep = ~finished
                rows, n, x, f, its, t, rank, settled, stalls, f_failed = (
                    a[keep] for a in (rows, n, x, f, its, t, rank, settled, stalls, f_failed))
    return out_x, out_f, f0, iterations, converged


def _backtracked_step(n, x0, f0, c, t, design):
    """x = Pi(x0 + t c), f(x) and the rank of x for each row, halving t in
    place until f(x) <= f0 - c.(x - x0) + |x - x0|^2 / (2 t)."""
    x, f, rank = np.empty_like(x0), np.empty_like(f0), np.empty(len(x0), dtype=int)
    todo = slice(None)
    while True:
        x0t, tt = x0[todo], t[todo]
        xt, rt = _projection(x0t + tt[:, None] * c[todo])
        ft = _nll(n[todo], qmath.rows(xt, design.matrix_t))
        d = xt - x0t
        ok = ft <= f0[todo] + np.einsum("rm,rm->r", d, d / (2 * tt[:, None]) - c[todo])
        if ok.all():
            x[todo], f[todo], rank[todo] = xt, ft, rt
            return x, f, rank
        idx = np.arange(len(x0))[todo]
        x[idx[ok]], f[idx[ok]], rank[idx[ok]] = xt[ok], ft[ok], rt[ok]
        todo = idx[~ok]
        t[todo] *= 0.5


# ----------------------------------------------------------------------
# Newton finish on a face
# ----------------------------------------------------------------------
# A state of rank r is rho = L L^dagger with L = U M: U the eigenvectors of
# the fit's state at the start of an attempt, largest eigenvalue first, and
# M a 4 x r lower-trapezoidal factor with a real diagonal, which starts as
# the square roots of the r largest eigenvalues. M's entries below the
# diagonal turn the range of rho, so the face is not held fixed. Its
# 8r - r^2 real coordinates theta lie on the sphere |theta| = 1, which is
# tr rho = 1.

@functools.cache   # built on first use, so commands that fit nothing skip it
def _face_coordinates(r):
    """For each real coordinate of M, column by column: its row a, column b,
    factor s (1 or 1j) and its place in the real view of M; and the (i, j)
    table of conj(s_i) s_j where b_i = b_j, 0 elsewhere."""
    cells = [(a, b, s) for b in range(r) for a in range(b, 4)
             for s in ((1.0,) if a == b else (1.0, 1j))]
    a, b, s = (np.array(v) for v in zip(*cells))
    pair = np.where(b[:, None] == b, s.conj()[:, None] * s, 0.0)
    return a, b, s, a * 2 * r + 2 * b + (s == 1j), pair


def _face_point(n, theta, u, r, design):
    """The factor L = U M(theta), the Pauli coefficients of L L^dagger and f."""
    m = np.zeros((len(theta), 8 * r))
    m[:, _face_coordinates(r)[3]] = theta
    lf = u @ m.view(complex).reshape(len(theta), 4, r)
    x = qmath.coefficients(lf @ lf.conj().transpose(0, 2, 1))
    return lf, x, _nll(n, qmath.rows(x, design.matrix_t))


def _newton_step(n, theta, u, lf, x, design):
    """Newton step on the sphere and its squared decrement: the KKT system
    [[H, theta], [theta^T, 0]] of the Lagrangian f + mu (|theta|^2 - 1),
    with H = J^T diag(n/p^2) J - sum_m c_m d^2 x_m + 2 mu I, J = d p/d theta,
    c from `_gradient` and mu = sum_k w_k p_k, its value where the gradient
    of the Lagrangian vanishes. Taken _NEWTON_ROWS rows at a time, which
    bounds the temporaries: (rows, 16, K) for the Fisher matrix, (rows,
    8r - r^2, 4, 4) for the derivatives of rho."""
    if len(x) > _NEWTON_ROWS:
        parts = [_newton_step(*(v[k:k + _NEWTON_ROWS] for v in (n, theta, u, lf, x)), design)
                 for k in range(0, len(x), _NEWTON_ROWS)]
        return tuple(np.concatenate(v) for v in zip(*parts))
    a, b, s, _, pair = _face_coordinates(lf.shape[2])
    p, w, c = _gradient(n, x, design)
    # d x_m / d theta_i = 2 Re tr(D_i P_m) with D_i = s_i u_(a_i) l_(b_i)^dagger
    jx = 2.0 * qmath.coefficients(s[:, None, None] * u[:, :, a].transpose(0, 2, 1)[..., None]
                                  * lf[:, :, b].conj().transpose(0, 2, 1)[..., None, :]
                                  ).reshape(len(x), len(a), 16)
    # J = A jx^T, so J^T diag(n/p^2) J = jx (A^T diag(n/p^2) A) jx^T
    fisher = (design.matrix_t * (w / np.maximum(p, _PROB_FLOOR))[:, None, :]) @ design.matrix
    # sum_m c_m d^2 x_m / d theta_i d theta_j = 2 Re tr(B_i^dagger G B_j) for
    # G = sum_m c_m P_m and B_i = d L / d theta_i = s_i u_(a_i) e_(b_i)^T
    g_face = u.conj().transpose(0, 2, 1) @ qmath.states(4.0 * c) @ u
    mu = np.einsum("rk,rk->r", w, p)
    kkt = np.zeros((len(x), len(a) + 1, len(a) + 1))
    kkt[:, :-1, :-1] = (jx @ fisher @ jx.transpose(0, 2, 1)
                        - 2.0 * (g_face[:, a[:, None], a] * pair).real
                        + 2.0 * mu[:, None, None] * np.eye(len(a)))
    kkt[:, :-1, -1] = kkt[:, -1, :-1] = theta
    grad = 2.0 * mu[:, None] * theta - (jx @ c[:, :, None])[:, :, 0]
    rhs = np.zeros((len(x), len(a) + 1, 1))
    rhs[:, :-1, 0] = -grad
    step = _solve(kkt, rhs)[:, :-1, 0]
    return step, -np.einsum("ri,ri->r", grad, step)


def _solve(a, b):
    """np.linalg.solve of a stack; a row whose matrix is exactly singular
    gets NaN instead of failing the stack, and the others the same values."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for k in range(len(a)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[k] = np.linalg.solve(a[k:k + 1], b[k:k + 1])[0]
        return out


def _damped_step(n, theta, step, dec, u, r, f, design):
    """theta + alpha step, back on the sphere, with alpha halved from 1 until
    f falls by _ARMIJO * alpha * lambda^2: the new (theta, L, x, f) and the
    rows where alpha fell below _MIN_DAMPING first (their new values are
    not to be used)."""
    alpha, moved = 1.0, theta + step
    moved /= np.sqrt(np.einsum("ri,ri->r", moved, moved))[:, None]
    lf, x, fm = _face_point(n, moved, u, r, design)
    todo = np.flatnonzero(fm > f - _ARMIJO * dec)
    while todo.size and alpha > _MIN_DAMPING:
        alpha *= 0.5
        m = theta[todo] + alpha * step[todo]
        m /= np.sqrt(np.einsum("ri,ri->r", m, m))[:, None]
        moved[todo], (lf[todo], x[todo], fm[todo]) = m, _face_point(n[todo], m, u[todo], r, design)
        todo = todo[fm[todo] > f[todo] - _ARMIJO * alpha * dec[todo]]
    failed = np.zeros(len(theta), dtype=bool)
    failed[todo] = True
    return moved, lf, x, fm, failed


def _widened(n, x, design):
    """A start one rank up from a face whose optimum the gap bound refuses:
    rho + s (v v^dagger - rho) for the top eigenvector v of G, along which f
    falls at the rate lambda_max(G) - N, with s the minimum of f's quadratic
    model along that line."""
    p, w, c = _gradient(n, x, design)
    lam, vecs = np.linalg.eigh(4.0 * qmath.states(c))
    v = vecs[:, :, -1]
    xv = qmath.coefficients(v[:, :, None] * v.conj()[:, None, :])
    dp = qmath.rows(xv, design.matrix_t) - p
    s = ((lam[:, -1] - np.einsum("rk,rk->r", w, p))
         / np.einsum("rk,rk->r", w / np.maximum(p, _PROB_FLOOR), dp * dp))
    return x + np.clip(s, 0.0, 1.0)[:, None] * (xv - x)


def _face_newton(n, x, f, rank, budget, design):
    """Damped Newton (Boyd & Vandenberghe, Convex Optimization, 9.5) on the
    face of each row's rank, with rows grouped by rank, for at most
    MLE_NEWTON_STEPS iterations per face and the row's budget. A row is
    certified when its squared decrement lambda^2 satisfies |lambda^2| / 2
    <= MLE_REL_TOL * |f| and the gap bound passes; when only the first
    holds, the face is too small and Newton goes on one rank up
    (`_widened`). The attempt fails when the step is no descent direction
    (lambda^2 < 0 beyond that: the Hessian is not positive definite on the
    face), when the line search cannot lower f, or after MLE_NEWTON_STEPS
    iterations, which hands a face the factor coordinates converge on only
    slowly back to projected gradient. Returns (x, f, iterations used,
    certified); a failed row keeps the best point it has seen."""
    x, f, start, face = x.copy(), f.copy(), x.copy(), rank.copy()
    used, certified = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)
    for r in range(1, 5):
        rows = np.flatnonzero(face == r)
        if not rows.size:
            continue
        a, b, *_ = _face_coordinates(r)
        nr, left = n[rows], np.minimum(budget[rows] - used[rows], MLE_NEWTON_STEPS)
        lam, u = np.linalg.eigh(qmath.states(start[rows]))
        # contiguous: a row alone and a row selected from a stack hand matmul one layout
        u, theta = np.ascontiguousarray(u[:, :, ::-1]), np.zeros((len(rows), len(a)))
        theta[:, a == b] = np.sqrt(np.maximum(lam[:, :-r - 1:-1], 0.0))
        theta /= np.sqrt(np.einsum("ri,ri->r", theta, theta))[:, None]
        lf, xt, ft = _face_point(nr, theta, u, r, design)
        for k in range(1, MLE_NEWTON_STEPS + 1):
            step, dec = _newton_step(nr, theta, u, lf, xt, design)
            flat = np.abs(dec) <= 2.0 * MLE_REL_TOL * np.abs(ft)
            # a row leaves the face on a flat decrement, a step that does not
            # descend, or its last iteration here
            end = flat | ~(dec > 0.0) | (k >= left)
            if end.any():
                used[rows[end]] += k
                if flat.any():
                    # the face's optimum, or the row's best point if rounding
                    # left that lower, must pass the gap bound
                    idx = rows[flat]
                    own = ft[flat] <= f[idx]
                    best = np.where(own[:, None], xt[flat], x[idx])
                    f_best = np.where(own, ft[flat], f[idx])
                    passed = (_gap_bound(nr[flat], best, design) ** 2
                              <= MLE_GAP_TOL * nr[flat].sum(axis=1) * np.abs(f_best))
                    certified[idx] = passed
                    x[idx[passed]], f[idx[passed]] = best[passed], f_best[passed]
                    wide = np.flatnonzero(flat)[~passed]
                    wide = wide[(r < 4) & (used[rows[wide]] < budget[rows[wide]])]
                    if wide.size:
                        start[rows[wide]] = _widened(nr[wide], xt[wide], design)
                        face[rows[wide]] = r + 1
                better = end & ~certified[rows] & (ft < f[rows])
                x[rows[better]], f[rows[better]] = xt[better], ft[better]
                go = ~end
                rows, nr, left, theta, u, lf, xt, ft, step, dec = (
                    v[go] for v in (rows, nr, left, theta, u, lf, xt, ft, step, dec))
                if not rows.size:
                    break
            moved, lm, xm, fm, failed = _damped_step(nr, theta, step, dec, u, r, ft, design)
            if failed.any():
                used[rows[failed]] += k
                better = failed & (ft < f[rows])
                x[rows[better]], f[rows[better]] = xt[better], ft[better]
                go = ~failed
                rows, nr, left, u, moved, lm, xm, fm = (
                    v[go] for v in (rows, nr, left, u, moved, lm, xm, fm))
                if not rows.size:
                    break
            theta, lf, xt, ft = moved, lm, xm, fm
    return x, f, used, certified


def _with_prior(counts, exact):
    """(R, K) counts for the likelihood. Sampled data gets a half-count
    weight in each empty cell, which keeps the optimum off the boundary;
    exact-mode data is used as-is, where zero-weight terms drop out."""
    counts = counts.reshape(len(counts), -1).astype(float)
    if not exact:
        counts[counts == 0.0] = 0.5
    return counts


def mle_reconstruct(ts: TomographySet):
    """Maximum-likelihood state and fit report: `_fit_stack` on a stack of
    one, from the projected linear inversion. The result never falls below
    that start."""
    d, counts = ts.design, _with_prior(ts.counts[None], ts.exact)
    x, f, f0, iterations, converged = _fit_stack(
        counts, _inverted_coefficients(ts.counts[None], d), d)
    filled = int(np.sum(ts.counts == 0)) if not ts.exact else 0
    report = FitReport(
        log_likelihood=-float(f[0]),
        init_log_likelihood=-float(f0[0]),
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
        regularization=f"half-count prior on {filled} empty cells" if filled else "none",
        gap_bound=float(_gap_bound(counts, x, d)[0]),
    )
    return qmath.states(x)[0], report


# ----------------------------------------------------------------------
# Parametric bootstrap error bars
# ----------------------------------------------------------------------

def bootstrap_metrics(rho_hat, ts: TomographySet, n_replicas=250, seed=0):
    """Parametric bootstrap: resample counts from the reconstructed state,
    re-fit every replica in one stack, report each metric's mean, sample std
    (ddof=1, so n_replicas >= 2) and 95 % interval. Replica k is row k of one
    multinomial draw from default_rng(seed), a stream no record uses, each
    setting from its own whole-number total, so a longer bootstrap extends a
    shorter one; its fit is mle_reconstruct's on its counts alone. rho_hat
    passes `apply_noise`'s state gate: a non-state is refused by its defect,
    and a seed or replica count that is not an integer by its name."""
    n_replicas, seed = check_integer("n_replicas", n_replicas, 2), check_integer("seed", seed, 0)
    totals = ts.counts.sum(axis=1)
    if (totals % 1.0).any():   # a whole number of trials each, not rounded to one
        raise ValueError(f"bootstrap: setting totals {totals.tolist()} are not all whole numbers")
    d = ts.design
    probs = outcome_probabilities(rho_hat, d.operators, NoiseModel())
    draws = np.random.default_rng(seed).multinomial(
        totals.astype(np.int64), probs, size=(n_replicas, len(totals))).astype(float)
    x, *_ = _fit_stack(_with_prior(draws, False), _inverted_coefficients(draws, d), d)
    rhos = qmath.states(x)
    out = {}
    for name, fn in (("fidelity", fidelity_to_target), ("negativity", negativity),
                     ("purity", purity)):
        vals = fn(rhos)
        ranked = np.sort(vals).tolist()
        out[name] = {
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)),
            "ci95": [_percentile(ranked, 2.5), _percentile(ranked, 97.5)],
        }
    return out


def _percentile(ranked, q):
    """np.percentile's default ("linear") rule on sorted values, bit for bit,
    without the numpy.ma import that np.percentile makes on first use."""
    h = (len(ranked) - 1) * (q / 100)
    lo = math.floor(h)
    a, b, g = ranked[lo], ranked[min(lo + 1, len(ranked) - 1)], h - lo
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)
