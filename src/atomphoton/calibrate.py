"""Invert the noise model to target fringe visibilities and fidelity.

The three-channel model cannot split the sigma_x and sigma_y fringe
visibilities (both equal (1-2*eps01-...) * (1-p) * (1-2q)), and its
tomographic fidelity at observed visibility V is bounded below by
(1+3V)/4. Targets outside the reachable set are fit on the frontier with
fidelity matched first (it is the headline tomography scalar), then the
mean visibility; residuals are reported. Deeply infeasible targets raise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .measurement import (
    ATOM_SX,
    ATOM_SY,
    MeasurementSetting,
    PhotonSetting,
    noisy_probabilities,
    outcome_operators,
)
from .metrics import fidelity_to_target, fit_fringe, fringe_scans
from .states import NoiseModel, ideal_state
from .tomography import TomographySet, canonical_settings, linear_inversion

FIDELITY_WEIGHT = 1000.0     # fidelity-priority weighting in the fit objective
TIE_BREAK_WEIGHT = 1e-6      # prefers the pure-depolarizing decomposition
RESIDUAL_LIMIT = 0.05        # beyond this the targets are rejected as infeasible
GRID_POINTS = 11             # coarse-grid values per parameter before the refinement


class CalibrationError(ValueError):
    pass


@dataclass
class CalibrationResult:
    noise: NoiseModel
    achieved: dict      # exact-mode observables of the returned model
    residuals: dict     # achieved minus target, per observable

    def max_residual(self):
        return max(abs(v) for v in self.residuals.values())


_FRINGE_BETAS = np.arange(6) * np.pi / 6
# Fringe settings (sigma_x then sigma_y, six angles each), then the
# canonical nine in TomographySet row order: built once, as the objective
# is evaluated many times.
_OPERATORS = outcome_operators(
    [MeasurementSetting(atom, PhotonSetting(beta=float(b)))
     for atom in (ATOM_SX, ATOM_SY) for b in _FRINGE_BETAS] + canonical_settings()
)


def exact_observables(noise: NoiseModel):
    """Exact-mode (vx, vy, fidelity) produced by a noise model.

    Fringe visibilities come from fitting the readout-confused exact
    conditionals; fidelity from exact-count tomography through linear
    inversion, i.e. the same readout-dressed state the tomography
    pipeline reconstructs.
    """
    probs = noisy_probabilities(ideal_state(), _OPERATORS, noise)

    def fringe_visibility(block):
        apd1, _ = fringe_scans(_FRINGE_BETAS, probs[block * 6:(block + 1) * 6])
        return fit_fringe(apd1).visibility

    rho_rec = linear_inversion(TomographySet(counts=probs[12:], exact=True))
    return {
        "vx": fringe_visibility(0),
        "vy": fringe_visibility(1),
        "fidelity": fidelity_to_target(rho_rec),
    }


def _objective(params, targets):
    p, q, eps = params
    if not all(0.0 <= x <= 1.0 for x in (p, q, eps)):
        return 1e6
    obs = exact_observables(NoiseModel(depolarizing=p, dephasing=q, eps01=eps, eps10=eps))
    err = (
        (obs["vx"] - targets["vx"]) ** 2
        + (obs["vy"] - targets["vy"]) ** 2
        + FIDELITY_WEIGHT * (obs["fidelity"] - targets["fidelity"]) ** 2
    )
    return err + TIE_BREAK_WEIGHT * (q * q + eps * eps)


def calibrate_noise(vx, vy, fidelity) -> CalibrationResult:
    """Noise parameters whose exact-mode observables reach the targets.

    Deterministic coarse grid over (depolarizing, dephasing, symmetric
    readout confusion) followed by Nelder-Mead refinement. Feasible
    targets are matched to better than 1e-3; near-frontier targets return
    the best fit with residuals; targets further than 0.05 from the
    reachable set raise CalibrationError describing the frontier.
    """
    for name, v in (("vx", vx), ("vy", vy), ("fidelity", fidelity)):
        if not 0.0 <= v <= 1.0:
            raise CalibrationError(f"target {name} must lie in [0, 1], got {v}")
    targets = {"vx": float(vx), "vy": float(vy), "fidelity": float(fidelity)}

    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    best, best_x = np.inf, None
    for p in grid:
        for q in grid:
            for eps in grid[: (GRID_POINTS + 1) // 2]:   # eps > 0.5 flips fringes
                val = _objective((p, q, eps), targets)
                if val < best:
                    best, best_x = val, (p, q, eps)

    res = minimize(
        _objective, best_x, args=(targets,), method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 2000},
    )
    p, q, eps = np.clip(res.x, 0.0, 1.0)
    noise = NoiseModel(depolarizing=float(p), dephasing=float(q),
                       eps01=float(eps), eps10=float(eps))
    achieved = exact_observables(noise)
    residuals = {k: achieved[k] - targets[k] for k in targets}
    result = CalibrationResult(noise=noise, achieved=achieved, residuals=residuals)

    if result.max_residual() > RESIDUAL_LIMIT:
        vbar = (targets["vx"] + targets["vy"]) / 2
        raise CalibrationError(
            "targets are not reachable by the noise model: requested "
            f"(vx={vx:.4g}, vy={vy:.4g}, F={fidelity:.4g}) but the model frontier "
            f"pins F between {(1 + 3 * vbar) / 4:.4g} and {(1 + vbar) / 2:.4g} at mean "
            f"visibility {vbar:.4g}; closest achievable "
            f"(vx={achieved['vx']:.4g}, vy={achieved['vy']:.4g}, "
            f"F={achieved['fidelity']:.4g})"
        )
    return result
