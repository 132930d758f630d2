"""Scalar state analyses and sinusoidal fringe fitting."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qmath
from .states import ideal_ket


def fidelity_to_target(rho, target=None):
    """Overlap <target|rho|target>; defaults to the ideal entangled ket."""
    if target is None:
        target = ideal_ket()
    return qmath.overlap(target, rho)


def negativity(rho):
    """Sum of |negative eigenvalues| of the partial transpose.

    Positive value certifies entanglement (PPT criterion); 0.5 for a
    maximally entangled two-qubit state.
    """
    eig = qmath.hermitian_eigenvalues(qmath.partial_transpose(rho, "photon"))
    return float(-eig[eig < 0].sum())


def correlation_matrix(rho):
    """3x3 Pauli correlation matrix T_ij = tr(rho sigma_i (x) sigma_j)."""
    r = qmath.check_density_matrix(rho)
    return np.einsum("ijkl,lk->ij", qmath.PAULI_PRODUCTS[1:, 1:], r).real


def chsh_max(rho):
    """Maximal CHSH expectation over analyzer settings, with the optimum.

    Closed form from the correlation matrix: 2 sqrt(s1^2 + s2^2) with
    s1 >= s2 the two largest singular values of T. Returns
    (value, description dict). Always <= 2 sqrt(2); > 2 signals violation.
    """
    t = correlation_matrix(rho)
    u, s, vt = np.linalg.svd(t)
    value = 2.0 * math.hypot(s[0], s[1])
    detail = {
        "singular_values": [float(x) for x in s],
        "atom_axes": [u[:, 0].tolist(), u[:, 1].tolist()],
        "photon_axes": [vt[0].tolist(), vt[1].tolist()],
    }
    return value, detail


def purity(rho):
    """tr(rho^2), between 1/dim (maximally mixed) and 1 (pure)."""
    r = qmath.check_density_matrix(rho)
    return float(np.real(np.trace(r @ r)))


@dataclass
class VisibilityFit:
    visibility: float     # peak-to-peak amplitude of the fitted curve
    offset: float
    phase: float          # radians
    rms_residual: float
    clipped: bool = False  # fitted curve exits [0, 1]

    def to_dict(self):
        return asdict(self)


def fit_fringe(betas, p) -> VisibilityFit:
    """Least-squares fit of p(beta) = offset + (V/2) cos(2 beta - phase) to
    conditional probabilities p at analyzer angles betas (radians).

    The angular frequency is fixed at 2 (period pi); the fit is linear in
    (offset, c1, c2) with V = 2 sqrt(c1^2 + c2^2), so it is closed-form
    and deterministic.
    """
    b, p = np.asarray(betas, dtype=float), np.asarray(p, dtype=float)
    if len(b) != len(p):
        raise ValueError("betas and probabilities must have equal length")
    if len(b) < 4:
        raise ValueError("need at least 4 points to fit 3 parameters")
    design = np.column_stack([np.ones_like(b), np.cos(2 * b), np.sin(2 * b)])
    coef, _, _, sv = np.linalg.lstsq(design, p, rcond=None)
    if np.count_nonzero(sv > 1e-9) < 3:
        raise ValueError("degenerate design: beta values do not resolve the fringe"
                         " (all equal mod pi/2)")
    c0, c1, c2 = coef
    visibility = 2.0 * math.hypot(c1, c2)
    phase = math.atan2(c2, c1)
    residuals = p - design @ coef
    rms = float(np.sqrt(np.mean(residuals**2)))
    clipped = bool(c0 + visibility / 2 > 1.0 + 1e-12 or c0 - visibility / 2 < -1e-12)
    return VisibilityFit(visibility=float(visibility), offset=float(c0),
                         phase=float(phase), rms_residual=rms, clipped=clipped)


def fringe_scans(betas, rows, atom_label=""):
    """(p, events) of a beta scan, each (S, 2) with columns APD1 and APD2:
    the detector-conditional fringes P(F=1 | APDd) and their conditioning
    events, read from the scan's (S, 4) count or probability rows in outcome
    order; a point's events on detector d are its (F2, d) and (F1, d) cells."""
    rows = np.asarray(rows, dtype=float)
    events = rows[:, :2] + rows[:, 2:]   # columns APD1, APD2
    if not (events > 0).all():
        k, d = np.argwhere(~(events > 0))[0]
        raise ValueError(f"no events on APD{d + 1} at {atom_label + ' ' if atom_label else ''}"
                         f"scan point {k + 1} (beta={betas[k]:.17g})")
    return rows[:, 2:] / events, events
