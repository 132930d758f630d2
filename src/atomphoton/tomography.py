"""Two-qubit state reconstruction from count data.

Pipeline: counts -> linear inversion -> projection onto the physical set
-> maximum-likelihood refinement by accelerated projected gradient, which
fits a whole stack of datasets at once. The canonical measurement set is
the nine Pauli-Pauli combinations; the atomic sigma_z settings are realized
as populations (no/full analysis transfer) and the photonic sigma_z as
circular-basis analysis. Linear inversion and the likelihood read the same
stack of outcome operators.
"""

from __future__ import annotations

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

PAULI_LABELS = "xyz"

BASIS_CONVENTION = "atom (|mF=-1>,|mF=+1>) x photon (|sigma+>,|sigma->)"


def canonical_settings():
    """The nine Pauli-Pauli measurement settings, 'xx' .. 'zz' in row order
    (`_setting_label` names them)."""
    return [MeasurementSetting(atom=atom, photon=photon)
            for atom in (ATOM_SX, ATOM_SY, ATOM_SZ)
            for photon in (PHOTON_SX, PHOTON_SY, PHOTON_SZ)]


# Four per setting, in canonical_settings() order, which is the row order of
# TomographySet.counts; in outcome order they are the Pauli eigenprojector
# products in sign order (+,+), (+,-), (-,+), (-,-), the order of the counts.
_CANONICAL_OPERATORS = outcome_operators(canonical_settings())

# A record is at canonical setting k when its four outcome operators equal
# row k's within _OPERATOR_TOL per entry, as given or with the atomic
# outcomes swapped: an atomic ket orthogonal to the canonical one, such as
# theta = 0 for sigma_z, reports the "-" eigenvalue as F2. Candidate c, a
# row of 64 entries, is setting c % 9, swapped when c >= 9.
_ATOM_SWAP = [2, 3, 0, 1]
_OPERATOR_TOL = 1e-9
_SETTING_OPERATORS = _CANONICAL_OPERATORS.reshape(9, 4, 16)
_CANDIDATES = np.concatenate([_SETTING_OPERATORS,
                              _SETTING_OPERATORS[:, _ATOM_SWAP]]).reshape(18, 64)

# Design matrix of the linear model p = A r: A[k, mu nu] = tr(E_k s_mu (x) s_nu) / 4
# for the 36 outcome operators E_k and the 16 Pauli coefficients r of rho.
# Its columns are orthogonal, so the least-squares inverse reads T_ij from
# setting ij and each marginal as the mean over its three partner settings.
_DESIGN = np.einsum("kij,mji->km", _CANONICAL_OPERATORS,
                    qmath.PAULI_PRODUCTS.reshape(16, 4, 4)).real / 4.0
_DESIGN_INVERSE = np.linalg.pinv(_DESIGN)
# The real Pauli basis: row m holds the real and imaginary parts of the 16
# entries of P_m, so a Hermitian matrix and its coefficients map to each other
# through real products; tr(rho P_m) is the dot product of the two rows.
# The transposes are C-contiguous copies: the layout fixes the order in which
# BLAS adds, and with it the last bits of every fit.
_BASIS = qmath.PAULI_PRODUCTS.reshape(16, 16).view(float)
_BASIS_T = _BASIS.T.copy()
_DESIGN_T = _DESIGN.T.copy()
_RANKS = np.arange(1.0, 5.0)


def simulate_tomography(rho, n_per_setting, noise=None, seed=0, exact=False):
    """Dataset over the canonical nine settings."""
    return simulate_settings(rho, canonical_settings(), n_per_setting,
                             noise=noise, seed=seed, exact=exact)


def _setting_label(k):
    return PAULI_LABELS[k // 3] + PAULI_LABELS[k % 3]


@dataclass
class TomographySet:
    """Counts of the nine canonical settings as one (9, 4) array.

    Row 3*i + j holds setting (i, j), atomic Pauli i and photonic Pauli j,
    in canonical_settings() order; its four cells are in eigenvalue-sign
    order (+,+), (+,-), (-,+), (-,-).
    """

    counts: np.ndarray
    exact: bool = False

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (9, 4):
            raise ValueError(f"tomography counts must have shape (9, 4), got {self.counts.shape}")

    @classmethod
    def from_dataset(cls, dataset: Dataset):
        """Sum the records of each canonical setting, identified by their
        outcome operators. A record at any other setting, e.g. a scan point,
        is an error naming the record (counted from 1) and its angles."""
        ops = outcome_operators(dataset.settings).reshape(-1, 64)
        # Every candidate has Frobenius norm 2, so the nearest one has the
        # largest Re <candidate, ops> and is the only one that can match.
        # The comparison is written so that a NaN entry matches nothing.
        nearest = np.argmax((ops @ _CANDIDATES.conj().T).real, axis=1)
        matched = np.abs(ops - _CANDIDATES[nearest]).max(axis=1) <= _OPERATOR_TOL
        if not matched.all():
            n = int(np.argmin(matched))
            a, p = dataset.settings[n].atom, dataset.settings[n].photon
            raise ValueError(
                f"record {n + 1} (theta={a.theta:.17g}, phi={a.phi:.17g}, beta={p.beta:.17g}, "
                f"{'circular' if p.circular else 'linear'}) is not a canonical "
                "tomography setting")
        rows = np.where((nearest >= 9)[:, None], dataset.records[:, _ATOM_SWAP], dataset.records)
        counts = np.zeros((9, 4))
        np.add.at(counts, nearest % 9, rows)   # row by row in record order: the loop's sums
        missing = [_setting_label(k) for k in np.flatnonzero(~counts.any(axis=1))]
        if missing:
            raise ValueError(f"tomography set is missing settings: {', '.join(missing)}")
        return cls(counts=counts, exact=bool(dataset.metadata.get("exact", False)))


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


def _inverted_coefficients(counts):
    """Pauli coefficients of the linear inversion of an (R, 9, 4) count stack."""
    totals = counts.sum(axis=2, keepdims=True)
    empty = np.flatnonzero(totals <= 0)
    if empty.size:
        raise ValueError(f"setting {_setting_label(empty[0] % 9)} has no counts")
    return np.einsum("mk,rk->rm", _DESIGN_INVERSE, (counts / totals).reshape(-1, 36))


def linear_inversion(ts: TomographySet):
    """Least-squares state of the linear model p = A r (James, Kwiat, Munro
    & White, PRA 64, 052312, 2001) from the per-setting frequencies:
    rho = sum_{mu nu} r_{mu nu} s_mu (x) s_nu / 4. Hermitian and trace 1;
    may be non-PSD on noisy data."""
    return _states(_inverted_coefficients(ts.counts[None]))[0]


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


def _probabilities(r):
    return _rows(r, _DESIGN_T)


def _ascent(counts, p):
    """-grad f over the Pauli coefficients: c_m = sum_k (n_k/p_k) A_km =
    tr(G P_m) / 4 for the density-matrix gradient -G of f."""
    return _rows(_weights(counts, p), _DESIGN)


def _gap_bound(counts, r):
    """Glancy, Knill & Girard (NJP 14, 095017, 2012): f is convex with
    gradient -G, G = sum_k (n_k/p_k) E_k, and tr(G rho) = N, so
    f(rho) - min f <= lambda_max(G) - N. With the ascent c = _ascent,
    G = sum_m c_m P_m = 4 _states(c)."""
    p = _probabilities(r)
    w = _weights(counts, p)
    g = 4.0 * _states(_rows(w, _DESIGN))
    return np.linalg.eigvalsh(g)[:, -1] - np.einsum("rk,rk->r", w, p)


def _fit_stack(counts, x):
    """Minimize f(rho) = -sum_k n_k log tr(E_k rho) over physical states for
    each row of an (R, 36) count stack, from physical starting states with
    (R, 16) Pauli coefficients x, by accelerated projected gradient (Shang,
    Zhang & Ng, PRA 95, 062336, 2017): x <- Pi(y + t c(y)) for c = -grad f,
    Nesterov momentum restarted and the step refused when f would rise, and a
    step t per fit. A fit leaves the stack when its stop rule fires
    (converged), or unconverged when it stalls without progress or reaches
    MLE_MAX_ITER iterations. Returns (x, f, f0, iterations, converged)."""
    f = f0 = _nll(counts, _probabilities(x))
    out_x, out_f = x.copy(), f.copy()
    iterations, converged = np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)
    rows, n, y, x_prev = np.arange(len(x)), counts, x, x
    steps, stalls = np.zeros(len(x)), np.zeros(len(x), dtype=int)
    f_checked = np.full(len(x), np.inf)   # f at the fit's last failed bound test
    t = _STEP_START / counts.sum(axis=1)
    for it in range(1, MLE_MAX_ITER + 1):
        py = _probabilities(y)
        x_new, f_new = _backtracked_step(n, y, _nll(n, py), _ascent(n, py), t)
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
            bound = _gap_bound(nb, x[stalled])
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


def _backtracked_step(n, y, fy, c, t):
    """x = Pi(y + t c) and f(x) for each row, halving t in place until
    f(x) <= fy - c.(x - y) + |x - y|^2 / (2 t)."""
    x, f = np.empty_like(y), np.empty_like(fy)
    todo = slice(None)
    while True:
        yt, tt = y[todo], t[todo]
        xt = _coefficients(_project_stack(_states(yt + tt[:, None] * c[todo])))
        ft = _nll(n[todo], _probabilities(xt))
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
    """(R, 36) counts for the likelihood. Sampled data gets a half-count
    weight in each empty cell, which keeps the optimum off the boundary;
    exact-mode data is used as-is, where zero-weight terms drop out."""
    counts = counts.reshape(len(counts), 36).astype(float)
    if not exact:
        counts[counts == 0.0] = 0.5
    return counts


def _projected_inversion(counts):
    return _coefficients(_project_stack(_states(_inverted_coefficients(counts))))


def mle_reconstruct(ts: TomographySet):
    """Maximum-likelihood state and fit report: `_fit_stack` on a stack of
    one, from the projected linear inversion. The result never falls below
    that start."""
    counts = _with_prior(ts.counts[None], ts.exact)
    x, f, f0, iterations, converged = _fit_stack(counts, _projected_inversion(ts.counts[None]))
    filled = int(np.sum(ts.counts == 0)) if not ts.exact else 0
    report = FitReport(
        log_likelihood=-float(f[0]),
        init_log_likelihood=-float(f0[0]),
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
        regularization=f"half-count prior on {filled} empty cells" if filled else "none",
        gap_bound=float(_gap_bound(counts, x)[0]),
    )
    return _states(x)[0], report


# ----------------------------------------------------------------------
# Parametric bootstrap error bars
# ----------------------------------------------------------------------

def bootstrap_metrics(rho_hat, ts: TomographySet, n_replicas=250, seed=0):
    """Parametric bootstrap: resample counts from the reconstructed state,
    re-fit every replica in one stack, report spread per metric. Replica k
    draws its counts from the substream keyed by (seed, k), and its fit is
    the one mle_reconstruct gives for its counts alone."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be at least 1, got {n_replicas}")
    totals = np.rint(ts.counts.sum(axis=1)).astype(np.int64)
    probs = outcome_probabilities(rho_hat, _CANONICAL_OPERATORS)
    draws = np.array([record_rng(seed, k).multinomial(totals, probs)
                      for k in range(n_replicas)], dtype=float)
    x, *_ = _fit_stack(_with_prior(draws, False), _projected_inversion(draws))
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
