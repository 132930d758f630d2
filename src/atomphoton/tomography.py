"""Two-qubit state reconstruction from count data.

Every outcome probability is linear in the 16 real Pauli coefficients r of
rho, p = A r, whatever the setting (James, Kwiat, Munro & White, PRA 64,
052312, 2001). A `TomographySet` fits through the design matrix A of its own
records' outcome operators, so any settings that determine all 16
coefficients can be fit. Pipeline: counts -> linear inversion -> projection
onto the physical set -> maximum-likelihood refinement by accelerated
projected gradient, which fits a whole stack of datasets at once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import numpy.ma  # noqa: F401  np.percentile imports it on first use; load it with the package

from . import qmath
from .artifacts import write_json
from .measurement import (
    ATOM_SX,
    ATOM_SY,
    ATOM_SZ,
    PHOTON_SX,
    PHOTON_SY,
    PHOTON_SZ,
    Dataset,
    MeasurementSetting,
    outcome_operators,
    outcome_probabilities,
    record_rng,
    simulate_settings,
)
from .metrics import fidelity_to_target, negativity, purity

PAULI_LABELS = np.array([a + b for a in "ixyz" for b in "ixyz"])   # "ii" .. "zz": atom, photon

BASIS_CONVENTION = "atom (|mF=-1>,|mF=+1>) x photon (|sigma+>,|sigma->)"


def canonical_settings():
    """The nine Pauli-Pauli measurement settings, 'xx' .. 'zz'; their outcomes
    are the Pauli eigenprojector products in sign order (+,+) .. (-,-)."""
    return [MeasurementSetting(atom=atom, photon=photon)
            for atom in (ATOM_SX, ATOM_SY, ATOM_SZ)
            for photon in (PHOTON_SX, PHOTON_SY, PHOTON_SZ)]


# The real Pauli basis: row m holds the real and imaginary parts of the 16
# entries of P_m, so a Hermitian matrix and its coefficients map to each other
# through real products; tr(rho P_m) is the dot product of the two rows.
# The transposes are C-contiguous copies: the layout fixes the order in which
# BLAS adds, and with it the last bits of every fit.
_BASIS = qmath.PAULI_PRODUCTS.reshape(16, 16).view(float)
_BASIS_T = _BASIS.T.copy()
_RANKS = np.arange(1.0, 5.0)


def simulate_tomography(rho, n_per_setting, noise=None, seed=0, exact=False):
    """Dataset over the canonical nine settings."""
    return simulate_settings(rho, canonical_settings(), n_per_setting,
                             noise=noise, seed=seed, exact=exact)


class Design:
    """The linear model p = A r of outcome operators E_k, four per setting:
    A[k, m] = tr(E_k P_m) / 4, its C-contiguous transpose and pseudo-inverse.
    An error names the Pauli coefficients that A leaves undetermined."""

    def __init__(self, operators):
        self.operators = operators
        self.matrix = np.einsum("kij,mji->km", operators,
                                qmath.PAULI_PRODUCTS.reshape(16, 4, 4)).real / 4.0
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
    design of their 4S outcome operators, four per row of counts."""

    counts: np.ndarray
    design: Design
    exact: bool = False

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (n := len(self.design.matrix) // 4, 4):
            raise ValueError(f"tomography counts must have shape {(n, 4)}, "
                             f"got {self.counts.shape}")
        empty = np.flatnonzero(self.counts.sum(axis=1) <= 0)
        if empty.size:
            raise ValueError(f"setting {empty[0] + 1} has no counts")

    @classmethod
    def from_dataset(cls, dataset: Dataset):
        """One row per distinct setting: records with bitwise-equal outcome
        operators are summed into the first, in record order. A record with an
        angle that is not finite is an error naming it (counted from 1)."""
        for n, s in enumerate(dataset.settings):
            if not all(map(math.isfinite, (s.atom.theta, s.atom.phi, s.photon.beta))):
                raise ValueError(f"record {n + 1} ({s.atom}, {s.photon}): angles must be finite")
        ops = outcome_operators(dataset.settings).reshape(-1, 4, 4, 4)
        first = {}
        rows = [first.setdefault(op.tobytes(), len(first)) for op in ops]
        counts = np.zeros((len(first), 4))
        np.add.at(counts, rows, dataset.records)   # row by row in record order
        kept = ops[np.unique(rows, return_index=True)[1]].reshape(-1, 4, 4)
        return cls(counts, Design(kept), exact=bool(dataset.metadata.get("exact", False)))


# Every product of a stack is taken row by row, as a batch of (1, K) @ (K, L)
# products: each row then gets the same arithmetic whatever the stack height,
# so a fit in a stack equals the same fit alone bit for bit. A 2-D (R, K) @
# (K, L) matmul breaks this: numpy hands a single row to BLAS gemv and a
# stack to gemm, and the two add in different orders.

def _rows(a, m):
    """(R, K) @ (K, L), one row at a time."""
    return np.matmul(a[:, None, :], m)[:, 0]


def _states(r):
    """(R, 16) Pauli coefficients -> (R, 4, 4) sum_m r_m P_m / 4, exactly Hermitian."""
    return (_rows(r, _BASIS) * 0.25).view(complex).reshape(len(r), 4, 4)


def _coefficients(rho):
    """(R, 4, 4) Hermitian matrices -> (R, 16) coefficients tr(rho P_m)."""
    flat = np.ascontiguousarray(rho, dtype=complex).reshape(len(rho), 16).view(float)
    return _rows(flat, _BASIS_T)


def _inverted_coefficients(counts, inverse):
    """Pauli coefficients of the linear inversion of an (R, S, 4) count stack."""
    freqs = counts / counts.sum(axis=2, keepdims=True)
    return np.einsum("mk,rk->rm", inverse, freqs.reshape(len(counts), -1))


def linear_inversion(ts: TomographySet):
    """Least-squares state of the linear model p = A r (James, Kwiat, Munro
    & White, PRA 64, 052312, 2001) from the per-setting frequencies:
    rho = sum_{mu nu} r_{mu nu} s_mu (x) s_nu / 4. Hermitian and trace 1;
    may be non-PSD on noisy data."""
    return _states(_inverted_coefficients(ts.counts[None], ts.design.inverse))[0]


def _project_stack(h):
    """Closest PSD trace-1 matrix in Frobenius norm to each matrix of an
    (R, 4, 4) Hermitian stack: eigenvalues projected onto the probability
    simplex, eigenvectors kept. The water-filling threshold is the largest
    of (sum of the j largest eigenvalues - 1) / j over j."""
    w, u = np.linalg.eigh(h)
    tau = ((np.cumsum(w[:, ::-1], axis=1) - 1.0) / _RANKS).max(axis=1)
    lam = np.maximum(w - tau[:, None], 0.0)
    return np.einsum("rij,rj,rkj->rik", u, lam, u.conj())


# ----------------------------------------------------------------------
# Maximum-likelihood refinement
# ----------------------------------------------------------------------

@dataclass
class FitReport:
    """`gap_bound` certifies the fit: the log-likelihood of the returned
    state is within gap_bound of the maximum. `converged` says that the stop
    rule fired before MLE_MAX_ITER iterations."""

    log_likelihood: float
    init_log_likelihood: float
    iterations: int
    converged: bool
    gap_bound: float
    regularization: str = "none"

    def to_dict(self):
        return asdict(self)


MLE_MAX_ITER = 5000
# A fit stops once MLE_STALL_STEPS iterations in a row have lowered its
# negative log-likelihood f by at most MLE_REL_TOL * |f| and its gap bound
# agrees: near the optimum f curves on the scale of N = sum_k n_k, so
# gap_bound**2 / N estimates the excess, and it must be at most
# MLE_GAP_TOL * |f|. A fit that crawls along an ill-conditioned valley stalls
# with a bound orders of magnitude larger, and goes on.
MLE_REL_TOL = 1e-12
MLE_STALL_STEPS = 3
MLE_GAP_TOL = 1e-11
_PROB_FLOOR = 1e-12
_STEP_GROWTH = 1.2
_STEP_START = 3.0


def _nll(counts, p):
    return -np.einsum("rk,rk->r", counts, np.log(np.maximum(p, _PROB_FLOOR)))


def _weights(counts, p):
    """n_k / p_k with p clipped at _PROB_FLOOR; clipped cells weigh 0."""
    return np.where(p > _PROB_FLOOR, counts, 0.0) / np.maximum(p, _PROB_FLOOR)


def _probabilities(r, design_t):
    return _rows(r, design_t)


def _ascent(counts, p, design):
    """-grad f over the Pauli coefficients: c_m = sum_k (n_k/p_k) A_km =
    tr(G P_m) / 4 for the density-matrix gradient -G of f."""
    return _rows(_weights(counts, p), design)


def _gap_bound(counts, r, design, design_t):
    """Glancy, Knill & Girard (NJP 14, 095017, 2012): f is convex with
    gradient -G, G = sum_k (n_k/p_k) E_k, and tr(G rho) = N, so
    f(rho) - min f <= lambda_max(G) - N. With the ascent c = _ascent,
    G = sum_m c_m P_m = 4 _states(c)."""
    p = _probabilities(r, design_t)
    w = _weights(counts, p)
    g = 4.0 * _states(_rows(w, design))
    return np.linalg.eigvalsh(g)[:, -1] - np.einsum("rk,rk->r", w, p)


def _fit_stack(counts, x, design, design_t):
    """Minimize f(rho) = -sum_k n_k log tr(E_k rho) over physical states for
    each row of an (R, K) count stack, through a (K, 16) design and its
    transpose, from physical starting states with (R, 16) Pauli coefficients
    x, by accelerated projected gradient (Shang, Zhang & Ng, PRA 95, 062336,
    2017): x <- Pi(y + t c(y)) for c = -grad f, Nesterov momentum restarted
    and the step refused when f would rise, and a step t per fit. A fit
    leaves the stack when its stop rule fires (converged), or unconverged
    when it stalls without progress or reaches MLE_MAX_ITER iterations.
    Returns (x, f, f0, iterations, converged)."""
    f = f0 = _nll(counts, _probabilities(x, design_t))
    out_x, out_f = x.copy(), f.copy()
    iterations, converged = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)
    rows, n, y, x_prev = np.arange(len(x)), counts, x, x
    steps, stalls = np.zeros(len(x)), np.zeros(len(x), dtype=int)
    f_checked = np.full(len(x), np.inf)   # f at the fit's last failed bound test
    t = _STEP_START / counts.sum(axis=1)
    for it in range(1, MLE_MAX_ITER + 1):
        py = _probabilities(y, design_t)
        x_new, f_new = _backtracked_step(n, y, _nll(n, py), _ascent(n, py, design), t, design_t)
        # a refused step (f_new > f) counts as a stall too
        stalls = np.where(f - f_new <= MLE_REL_TOL * np.abs(f), stalls + 1, 0)
        accept = f_new <= f
        x_prev = np.where(accept[:, None], x, x_prev)
        x = np.where(accept[:, None], x_new, x)
        f = np.where(accept, f_new, f)
        steps = np.where(accept, steps + 1.0, 0.0)   # accepted steps since the last restart
        t = t * _STEP_GROWTH

        stalled = stalls >= MLE_STALL_STEPS
        stop, stuck = stalled.copy(), np.zeros(len(rows), dtype=bool)
        if stalled.any():
            nb, fs = n[stalled], f[stalled]
            bound = _gap_bound(nb, x[stalled], design, design_t)
            stop[stalled] = bound ** 2 <= MLE_GAP_TOL * nb.sum(axis=1) * np.abs(fs)
            # no decrease at all since the last failed test: the projected step no
            # longer moves x, and the bound cannot be brought down
            stuck[stalled] = ~stop[stalled] & (fs >= f_checked[stalled])
            f_checked[stalled] = fs
            stalls = np.where(stalled & ~stop, 0, stalls)
        finished = stop | stuck if it < MLE_MAX_ITER else np.ones(len(rows), dtype=bool)
        if finished.any():
            idx = rows[finished]
            out_x[idx], out_f[idx] = x[finished], f[finished]
            iterations[idx], converged[idx] = it, stop[finished]
            keep = ~finished
            if not keep.any():
                break
            rows, n, x, f, x_prev, steps, t, stalls, f_checked = (
                a[keep] for a in (rows, n, x, f, x_prev, steps, t, stalls, f_checked))
        # momentum (k - 1) / (k + 2) after k accepted steps since the last restart
        y = x + (np.maximum(steps - 1.0, 0.0) / (steps + 2.0))[:, None] * (x - x_prev)
    return out_x, out_f, f0, iterations, converged


def _backtracked_step(n, y, fy, c, t, design_t):
    """x = Pi(y + t c) and f(x) for each row, halving t in place until
    f(x) <= fy - c.(x - y) + |x - y|^2 / (2 t)."""
    x, f = np.empty_like(y), np.empty_like(fy)
    todo = slice(None)
    while True:
        yt, tt = y[todo], t[todo]
        xt = _coefficients(_project_stack(_states(yt + tt[:, None] * c[todo])))
        ft = _nll(n[todo], _probabilities(xt, design_t))
        d = xt - yt
        ok = ft <= fy[todo] + np.einsum("rm,rm->r", d, d / (2 * tt[:, None]) - c[todo])
        if ok.all():
            x[todo], f[todo] = xt, ft
            return x, f
        idx = np.arange(len(y))[todo]
        x[idx[ok]], f[idx[ok]] = xt[ok], ft[ok]
        todo = idx[~ok]
        t[todo] *= 0.5


def _with_prior(counts, exact):
    """(R, K) counts for the likelihood. Sampled data gets a half-count
    weight in each empty cell, which keeps the optimum off the boundary;
    exact-mode data is used as-is, where zero-weight terms drop out."""
    counts = counts.reshape(len(counts), -1).astype(float)
    if not exact:
        counts[counts == 0.0] = 0.5
    return counts


def _projected_inversion(counts, inverse):
    return _coefficients(_project_stack(_states(_inverted_coefficients(counts, inverse))))


def mle_reconstruct(ts: TomographySet):
    """Maximum-likelihood state and fit report: `_fit_stack` on a stack of
    one, from the projected linear inversion. The result never falls below
    that start."""
    d, counts = ts.design, _with_prior(ts.counts[None], ts.exact)
    start = _projected_inversion(ts.counts[None], d.inverse)
    x, f, f0, iterations, converged = _fit_stack(counts, start, d.matrix, d.matrix_t)
    filled = int(np.sum(ts.counts == 0)) if not ts.exact else 0
    report = FitReport(
        log_likelihood=-float(f[0]),
        init_log_likelihood=-float(f0[0]),
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
        regularization=f"half-count prior on {filled} empty cells" if filled else "none",
        gap_bound=float(_gap_bound(counts, x, d.matrix, d.matrix_t)[0]),
    )
    return _states(x)[0], report


# ----------------------------------------------------------------------
# Parametric bootstrap error bars
# ----------------------------------------------------------------------

def bootstrap_metrics(rho_hat, ts: TomographySet, n_replicas=250, seed=0):
    """Parametric bootstrap: resample counts from the reconstructed state,
    re-fit every replica in one stack, report spread per metric. Replica k
    draws its counts from the substream keyed by (seed, k), each setting from
    its own whole-number total, and its fit is the one mle_reconstruct gives
    for its counts alone."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be at least 1, got {n_replicas}")
    totals = ts.counts.sum(axis=1)
    if (totals % 1.0).any():   # a whole number of trials each, not rounded to one
        raise ValueError(f"bootstrap: setting totals {totals.tolist()} are not all whole numbers")
    d = ts.design
    probs = outcome_probabilities(rho_hat, d.operators)
    draws = np.array([record_rng(seed, k).multinomial(totals.astype(np.int64), probs)
                      for k in range(n_replicas)], dtype=float)
    x, *_ = _fit_stack(_with_prior(draws, False), _projected_inversion(draws, d.inverse),
                       d.matrix, d.matrix_t)
    rhos = _states(x)
    out = {}
    for name, fn in (("fidelity", fidelity_to_target), ("negativity", negativity),
                     ("purity", purity)):
        vals = fn(rhos)
        out[name] = {
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if n_replicas > 1 else 0.0,
            "ci95": [float(np.percentile(vals, 2.5)), float(np.percentile(vals, 97.5))],
        }
    return out


# ----------------------------------------------------------------------
# Reconstructed-state JSON
# ----------------------------------------------------------------------

def write_state_json(rho, path, fit_report):
    write_json({
        "real": np.real(rho).tolist(),
        "imag": np.imag(rho).tolist(),
        "basis": BASIS_CONVENTION,
        "fit_report": fit_report.to_dict(),
    }, path)
