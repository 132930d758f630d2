"""Two-qubit state reconstruction from count data.

Pipeline: counts -> linear inversion -> projection onto the physical set
-> maximum-likelihood refinement over a PSD factorization. The canonical
measurement set is the nine Pauli-Pauli combinations; the atomic sigma_z
settings are realized as populations (no/full analysis transfer) and the
photonic sigma_z as circular-basis analysis. Linear inversion and the
likelihood read the same stack of outcome operators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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
    simulate_settings,
)
from .metrics import fidelity_to_target, negativity, purity

PAULI_LABELS = "xyz"

BASIS_CONVENTION = "atom (|mF=-1>,|mF=+1>) x photon (|sigma+>,|sigma->)"

_ANGLE_TOL = 1e-9


def canonical_settings():
    """The nine Pauli-Pauli measurement settings, labelled 'xx' .. 'zz'."""
    atoms = {"x": ATOM_SX, "y": ATOM_SY, "z": ATOM_SZ}
    photons = {"x": PHOTON_SX, "y": PHOTON_SY, "z": PHOTON_SZ}
    out = []
    for ai in PAULI_LABELS:
        for pj in PAULI_LABELS:
            out.append(MeasurementSetting(atom=atoms[ai], photon=photons[pj],
                                          label=ai + pj))
    return out


# Four per setting, in canonical_settings() order, which is the row order of
# TomographySet.counts; in outcome order they are the Pauli eigenprojector
# products in sign order (+,+), (+,-), (-,+), (-,-), the order of the counts.
_CANONICAL_OPERATORS = outcome_operators(canonical_settings())

# Design matrix of the linear model p = A r: A[k, mu nu] = tr(E_k s_mu (x) s_nu) / 4
# for the 36 outcome operators E_k and the 16 Pauli coefficients r of rho.
# Its columns are orthogonal, so the least-squares inverse reads T_ij from
# setting ij and each marginal as the mean over its three partner settings.
_PAULI_STACK = qmath.PAULI_PRODUCTS.reshape(16, 4, 4)
_DESIGN = np.einsum("kij,mji->km", _CANONICAL_OPERATORS, _PAULI_STACK).real / 4.0
_DESIGN_INVERSE = np.linalg.pinv(_DESIGN)


def simulate_tomography(rho, n_per_setting, noise=None, seed=0, exact=False):
    """Dataset over the canonical nine settings."""
    return simulate_settings(rho, canonical_settings(), n_per_setting,
                             noise=noise, seed=seed, exact=exact)


def _classify_atom(setting):
    """Map an AtomSetting onto (pauli index, sign of the transferred outcome)."""
    th, ph = setting.theta, setting.phi % (2 * math.pi)
    if abs(th - math.pi / 4) < _ANGLE_TOL:
        if min(ph, 2 * math.pi - ph) < _ANGLE_TOL:
            return 0, +1        # sigma_x, transferred = +1 eigenstate
        if abs(ph - math.pi / 2) < _ANGLE_TOL:
            return 1, +1        # sigma_y
        return None
    if abs(th - math.pi / 2) < _ANGLE_TOL:
        return 2, +1            # transfers |-1>, the sigma_z = +1 state
    if abs(th) < _ANGLE_TOL:
        return 2, -1            # transfers |+1>, the sigma_z = -1 state
    return None


def _classify_photon(setting):
    if setting.circular:
        return 2
    b = setting.beta % math.pi
    if min(b, math.pi - b) < _ANGLE_TOL:
        return 0
    if abs(b - math.pi / 4) < _ANGLE_TOL:
        return 1
    return None


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
        """Sum the records of each canonical setting. A record at any other
        setting, e.g. a scan point, is an error naming the record (counted
        from 1) and its angles."""
        counts = np.zeros((9, 4))
        for n, rec in enumerate(dataset.records, 1):
            atom = _classify_atom(rec.setting.atom)
            photon = _classify_photon(rec.setting.photon)
            if atom is None or photon is None:
                a, p = rec.setting.atom, rec.setting.photon
                raise ValueError(
                    f"record {n} (theta={a.theta:.17g}, phi={a.phi:.17g}, beta={p.beta:.17g}, "
                    f"{'circular' if p.circular else 'linear'}) is not a canonical "
                    "tomography setting")
            i, sign = atom
            # record order: (F2,APD1),(F2,APD2),(F1,APD1),(F1,APD2);
            # "+" atomic outcome is F2 when sign=+1, F1 when sign=-1.
            counts[3 * i + photon] += rec.counts if sign > 0 else rec.counts[[2, 3, 0, 1]]
        missing = [_setting_label(k) for k in np.flatnonzero(~counts.any(axis=1))]
        if missing:
            raise ValueError(f"tomography set is missing settings: {', '.join(missing)}")
        return cls(counts=counts, exact=bool(dataset.metadata.get("exact", False)))


def linear_inversion(ts: TomographySet):
    """Least-squares state of the linear model p = A r (James, Kwiat, Munro
    & White, PRA 64, 052312, 2001) from the per-setting frequencies:
    rho = sum_{mu nu} r_{mu nu} s_mu (x) s_nu / 4. Hermitian and trace 1;
    may be non-PSD on noisy data."""
    totals = ts.counts.sum(axis=1, keepdims=True)
    empty = np.flatnonzero(totals <= 0)
    if empty.size:
        raise ValueError(f"setting {_setting_label(empty[0])} has no counts")
    r = _DESIGN_INVERSE @ (ts.counts / totals).ravel()
    return np.einsum("m,mij->ij", r, _PAULI_STACK) / 4.0


def project_physical(rho):
    """Closest PSD trace-1 matrix in Frobenius norm.

    Eigenvalues are projected onto the probability simplex (water-filling
    threshold), eigenvectors kept. Idempotent on physical inputs.
    """
    a = qmath.check_hermitian(rho)
    if abs(np.real(np.trace(a)) - 1.0) > 1e-9:
        raise ValueError("project_physical expects a trace-1 matrix")
    w, u = np.linalg.eigh(a)
    x = np.sort(w)[::-1]
    csum = np.cumsum(x)
    ks = np.arange(1, len(x) + 1)
    k = ks[x - (csum - 1.0) / ks > 0][-1]
    tau = (csum[k - 1] - 1.0) / k
    lam = np.maximum(w - tau, 0.0)
    return (u * lam) @ u.conj().T


# ----------------------------------------------------------------------
# Maximum-likelihood refinement
# ----------------------------------------------------------------------

# Parameter layout: t[:4] the real diagonal, then (real, imag) pairs of the
# lower off-diagonal entries in row-major order.
_OFF_ROWS, _OFF_COLS = np.tril_indices(4, -1)


def _factor_from_params(t):
    m = np.diag(t[:4].astype(complex))
    m[_OFF_ROWS, _OFF_COLS] = t[4::2] + 1j * t[5::2]
    return m


def _params_from_factor(m):
    t = np.empty(16)
    t[:4] = np.real(np.diag(m))
    t[4::2] = m[_OFF_ROWS, _OFF_COLS].real
    t[5::2] = m[_OFF_ROWS, _OFF_COLS].imag
    return t


def _rho_from_params(t):
    m = _factor_from_params(t)
    a = m.conj().T @ m
    tr = np.real(np.trace(a))
    if tr < 1e-30:
        return np.eye(4, dtype=complex) / 4.0
    return a / tr


def _lower_factor(rho, floor=1e-8):
    """Lower-triangular T with T^dagger T = rho (eigenvalue-floored)."""
    w, u = np.linalg.eigh(rho)
    w = np.maximum(w, floor)
    a = (u * w) @ u.conj().T
    a /= np.real(np.trace(a))
    rev = np.flip(np.flip(a, 0), 1)
    m = np.linalg.cholesky(rev)
    upper = np.flip(np.flip(m, 0), 1)       # a = upper @ upper^dagger
    return upper.conj().T                   # lower, T^dagger T = a


@dataclass
class FitReport:
    log_likelihood: float
    init_log_likelihood: float
    iterations: int
    converged: bool
    regularization: str = "none"

    def to_dict(self):
        return {
            "log_likelihood": self.log_likelihood,
            "init_log_likelihood": self.init_log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "regularization": self.regularization,
        }


MLE_MAX_ITER = 5000
MLE_REL_TOL = 1e-10


def _nll_and_grad(t, ops, counts):
    """Negative log-likelihood -sum_k n_k log p_k of the state T^dagger T / s
    (T the factor of parameters t, s its trace; p_k = tr(E_k rho) for the
    rows E_k of ops, an (n, 16) stack of flattened 4x4 operators) and its
    gradient over t. Probabilities are clipped at 1e-12; clipped cells
    contribute no gradient."""
    m = _factor_from_params(t)
    a = m.conj().T @ m
    s = np.real(np.trace(a))
    if s < 1e-30:   # degenerate factor: read as the maximally mixed state
        a, s = np.eye(4), 4.0
    p = (ops @ a.T.ravel()).real / s      # tr(E a) = sum_ij E_ij a_ji
    clipped = np.maximum(p, 1e-12)
    w = np.where(p > 1e-12, counts, 0.0) / clipped
    # df = tr(G dA) for dA = dT^dagger T + T^dagger dT, so df/dT = 2 T G
    g = -((w @ ops).reshape(4, 4) - (w @ p) * np.eye(4)) / s
    tg = m @ g
    grad = np.empty(16)
    grad[:4] = 2.0 * np.real(np.diag(tg))
    grad[4::2] = 2.0 * tg[_OFF_ROWS, _OFF_COLS].real
    grad[5::2] = 2.0 * tg[_OFF_ROWS, _OFF_COLS].imag
    return -float(counts @ np.log(clipped)), grad


def mle_reconstruct(ts: TomographySet, init=None):
    """Maximum-likelihood state estimate and fit report.

    The state is parameterized as T^dagger T / tr(T^dagger T) over the 16
    real entries of a lower-triangular factor, so the output is PSD with
    unit trace by construction. Maximizes the multinomial log-likelihood
    of the counts; the result never falls below the initialization.

    Sampled datasets with empty cells get a half-count weight in those
    cells (keeps the optimum off the boundary); exact-mode data is used
    as-is, where zero-weight terms drop out of the likelihood.
    """
    counts = ts.counts.flatten()   # a copy: empty cells are filled in below
    regularization = "none"
    if not ts.exact:
        zero = counts == 0.0
        if np.any(zero):
            counts[zero] = 0.5
            regularization = f"half-count prior on {int(zero.sum())} empty cells"

    active = counts > 0
    ops_a = _CANONICAL_OPERATORS[active].reshape(-1, 16)
    counts_a = counts[active]

    if init is None:
        init_rho = project_physical(linear_inversion(ts))
    else:
        init_rho = qmath.check_density_matrix(init)
    t0 = _params_from_factor(_lower_factor(init_rho))
    f0, _ = _nll_and_grad(t0, ops_a, counts_a)

    res = minimize(
        _nll_and_grad,
        t0,
        args=(ops_a, counts_a),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": MLE_MAX_ITER, "ftol": MLE_REL_TOL, "gtol": 1e-10},
    )
    # hitting the cap or an abnormal stop is flagged, not raised
    converged = bool(res.success) and res.nit < MLE_MAX_ITER
    if res.fun <= f0:
        rho_hat = _rho_from_params(res.x)
        final_nll = float(res.fun)
    else:
        rho_hat = _rho_from_params(t0)   # optimizer failed to improve; keep init
        final_nll = f0
        converged = False
    # strip numerically negative eigenvalues from roundoff
    rho_hat = project_physical((rho_hat + rho_hat.conj().T) / 2)
    report = FitReport(
        log_likelihood=-final_nll,
        init_log_likelihood=-f0,
        iterations=int(res.nit),
        converged=converged,
        regularization=regularization,
    )
    return rho_hat, report


# ----------------------------------------------------------------------
# Parametric bootstrap error bars
# ----------------------------------------------------------------------

def bootstrap_metrics(rho_hat, ts: TomographySet, n_replicas=250, seed=0):
    """Parametric bootstrap: resample counts from the reconstructed state,
    re-fit each replica, report spread per metric. Replica k draws its
    counts from the substream keyed by (seed, k)."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be at least 1, got {n_replicas}")
    totals = np.rint(ts.counts.sum(axis=1)).astype(np.int64)
    probs = outcome_probabilities(rho_hat, _CANONICAL_OPERATORS)
    scalars = {"fidelity": fidelity_to_target, "negativity": negativity, "purity": purity}
    values = {name: [] for name in scalars}
    for replica in range(n_replicas):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                           spawn_key=(replica,)))
        rho_r, _ = mle_reconstruct(TomographySet(counts=rng.multinomial(totals, probs)))
        for name, fn in scalars.items():
            values[name].append(fn(rho_r))
    out = {}
    for name, vals in values.items():
        vals = np.array(vals)
        out[name] = {
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if n_replicas > 1 else 0.0,
            "ci95": [float(np.percentile(vals, 2.5)), float(np.percentile(vals, 97.5))],
        }
    return out


# ----------------------------------------------------------------------
# Reconstructed-state JSON
# ----------------------------------------------------------------------

def state_to_json(rho, fit_report=None):
    payload = {
        "real": np.real(rho).tolist(),
        "imag": np.imag(rho).tolist(),
        "basis": BASIS_CONVENTION,
    }
    if fit_report is not None:
        payload["fit_report"] = fit_report.to_dict()
    return payload


def state_from_json(payload):
    rho = np.array(payload["real"], dtype=float) + 1j * np.array(payload["imag"], dtype=float)
    return rho


def write_state_json(rho, path, fit_report=None):
    write_json(state_to_json(rho, fit_report), path)


def read_state_json(path):
    with open(path) as fh:
        return state_from_json(json.load(fh))
