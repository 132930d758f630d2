"""State analyses and sinusoidal fringe fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .states import ideal_ket

# fidelity_to_target, negativity and purity take one 4x4 state or an
# (R, 4, 4) stack. The stack is a loop dimension of each BLAS and LAPACK call
# they make, so a state scores the same, bit for bit, whatever the stack
# height. They score the package's own fits and do not validate them.

_BRA = ideal_ket().conj()


def fidelity_to_target(rho):
    """Overlap <psi|rho|psi> with the ideal entangled ket psi."""
    return np.vecdot(_BRA, _BRA @ rho).real   # vecdot conjugates _BRA back to |psi>


def negativity(rho):
    """Sum of |negative eigenvalues| of the photon partial transpose.

    Positive value certifies entanglement (PPT criterion); 0.5 for a
    maximally entangled two-qubit state.
    """
    eig = np.linalg.eigvalsh(qmath.partial_transpose(rho, "photon"))
    return -np.minimum(eig, 0.0).sum(axis=-1) + 0.0   # a PPT state scores 0.0, not -0.0


def correlation_matrix(rho):
    """3x3 Pauli correlation matrix T_ij = tr(rho sigma_i (x) sigma_j), from qmath.coefficients."""
    return qmath.coefficients(rho).reshape(4, 4)[1:, 1:]


def chsh_max(rho):
    """Maximal CHSH expectation over analyzer settings.

    Closed form from the correlation matrix: 2 sqrt(s1^2 + s2^2) with
    s1 >= s2 the two largest singular values of T. Always <= 2 sqrt(2);
    > 2 signals violation.
    """
    # the full SVD: compute_uv=False moves the value's last bit on some states
    _, s, _ = np.linalg.svd(correlation_matrix(rho))
    return 2.0 * math.hypot(s[0], s[1])


def purity(rho):
    """tr(rho^2), between 1/dim (maximally mixed) and 1 (pure)."""
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


@dataclass
class VisibilityFit:
    visibility: float     # peak-to-peak amplitude of the fitted curve
    offset: float
    phase: float          # radians
    rms_residual: float
    clipped: bool = False  # fitted curve exits [0, 1]


def _require_finite(name, values):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = bad[0]
        raise ValueError(f"{name}[{k}] is {values[k]}, not finite: drop the point from the fit")


def fit_fringe(betas, p) -> VisibilityFit:
    """Least-squares fit of p(beta) = offset + (V/2) cos(2 beta - phase) to
    conditional probabilities p at analyzer angles betas (radians).

    The angular frequency is fixed at 2 (period pi); the fit is linear in
    (offset, c1, c2) with V = 2 sqrt(c1^2 + c2^2), so it is closed-form
    and deterministic: one least-squares solve, refused if the angles are
    all equal mod pi/2. A NaN or infinite angle, and after the rank check
    a NaN or infinite p, is an error naming the first such index: drop a
    point without events (`fringe_scans` gives it p = NaN) before the fit.
    """
    b, p = np.asarray(betas, dtype=float), np.asarray(p, dtype=float)
    if len(b) != len(p):
        raise ValueError("betas and probabilities must have equal length")
    if len(b) < 4:
        raise ValueError("need at least 4 points to fit 3 parameters")
    _require_finite("betas", b)
    design = np.column_stack([np.ones_like(b), np.cos(2 * b), np.sin(2 * b)])
    coef, _, _, sv = np.linalg.lstsq(design, p, rcond=None)
    if np.count_nonzero(sv > 1e-9) < 3:
        raise ValueError("degenerate design: beta values do not resolve the fringe"
                         " (all equal mod pi/2)")
    _require_finite("p", p)
    c0, c1, c2 = coef.tolist()
    visibility = 2.0 * math.hypot(c1, c2)
    phase = math.atan2(c2, c1)
    residuals = p - design @ coef
    rms = math.sqrt(float((residuals * residuals).sum()) / len(p))   # np.mean's sum and division
    clipped = bool(c0 + visibility / 2 > 1.0 + 1e-12 or c0 - visibility / 2 < -1e-12)
    return VisibilityFit(visibility=visibility, offset=c0, phase=phase, rms_residual=rms,
                         clipped=clipped)


def fringe_scans(rows):
    """(p, events) of a beta scan, each (S, 2) with columns APD1 and APD2:
    the detector-conditional fringes P(F=1 | APDd) and their conditioning
    events, read from the scan's (S, 4) count or probability rows in outcome
    order; a point's events on detector d are its (F2, d) and (F1, d) cells.
    p is NaN where a detector saw no events at a point."""
    rows = np.asarray(rows, dtype=float)
    events = rows[:, :2] + rows[:, 2:]   # columns APD1, APD2
    p = np.divide(rows[:, 2:], events, out=np.full_like(events, np.nan), where=events > 0)
    return p, events
