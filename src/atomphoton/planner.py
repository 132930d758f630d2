"""Feasibility arithmetic for an event-ready loophole-free Bell test.

Two distant atoms are each entangled with a photon; a Bell-state
measurement on the photons swaps the entanglement onto the atoms. The
routines here budget the resulting visibility, the sample size for a
significant CHSH violation, pair rates, total measurement time, the
readout-collapse probability and the locality separation. All quantities
are SI (seconds, meters, s^-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

SPEED_OF_LIGHT = 299_792_458.0   # m/s
CHSH_QUANTUM_MAX = 2.0 * math.sqrt(2.0)
CHSH_THRESHOLD_VISIBILITY = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ExperimentPlan:
    """Feasibility inputs. Defaults follow the demonstrated source. These
    checks are the one gate: the helpers below take validated values."""

    v_atph: float = 0.86             # atom-photon fringe visibility
    bsm_fidelity: float = 1.0        # Bell-state measurement fidelity factor
    eta_ph: float = 5e-4             # photon detection efficiency per emission
    transmission: float = 0.9        # two-fiber combined transmission T^2
    rep_rate: float = 5e5            # excitation repetition rate, s^-1
    target_sigmas: float = 3.0
    t_stirap: float = 0.2e-6         # atomic analysis pulse duration, s
    n_lifetimes: float = 10.0        # scattering lifetimes until collapse
    lifetime_tau: float = 26e-9      # excited-state lifetime, s
    measurement_window: float = 0.5e-6  # minimum budgeted measurement time, s
    p_bsm: float = 0.5               # linear-optics BSM success probability
    duty: float = 1.0                # duty cycle applied to the pair rate

    def __post_init__(self):
        fields = asdict(self)
        for name, v in fields.items():
            if not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v}")
        for names, ok, rule in (
                (("v_atph", "bsm_fidelity"), lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
                # a zero here makes the pair rate 0, and the measurement endless
                (("eta_ph", "transmission", "p_bsm", "duty"), lambda v: 0.0 < v <= 1.0,
                 "lie in (0, 1]"),
                (("rep_rate", "lifetime_tau", "target_sigmas"), lambda v: v > 0, "be positive"),
                (("t_stirap", "n_lifetimes", "measurement_window"), lambda v: v >= 0,
                 "be non-negative")):
            for name in names:
                if not ok(fields[name]):
                    raise ValueError(f"{name} must {rule}, got {fields[name]}")


@dataclass(frozen=True)
class PlanReport:
    v_atat: float
    chsh_s: float
    pairs_needed: int
    pair_rate: float          # s^-1
    duration: float           # s
    collapse_probability: float
    min_separation: float     # m

    def __post_init__(self):
        for name, v in asdict(self).items():
            if not math.isfinite(v):
                raise ValueError(f"{name} overflows to {v}: the plan's inputs are out of range")


def swapped_visibility(v1, v2, kappa_bsm=1.0):
    """Atom-atom visibility after entanglement swapping: v1*v2*kappa, which
    lies in [0, 1] with its validated factors. The ideal law is kappa = 1."""
    return v1 * v2 * kappa_bsm


def pairs_for_sigmas(v, k):
    """Smallest pair count giving a k-sigma CHSH violation at a validated
    visibility v and k > 0; no plan field keeps v above 1/sqrt(2)."""
    if v <= CHSH_THRESHOLD_VISIBILITY:
        raise ValueError(
            f"no violation at this visibility ({v:.4g} <= 1/sqrt(2))"
        )
    s = CHSH_QUANTUM_MAX * v
    e = v / math.sqrt(2.0)
    try:
        return max(4, math.ceil((4.0 * k * math.sqrt(1.0 - e * e) / (s - 2.0)) ** 2))
    except OverflowError:
        raise ValueError(f"pairs_needed overflows for a {k:g}-sigma target") from None


def pair_rate(plan: ExperimentPlan):
    """Entangled atom-atom pair rate: rep * eta^2 * T^2 * p_bsm."""
    return plan.rep_rate * plan.eta_ph**2 * plan.transmission * plan.p_bsm


def measurement_duration(n_pairs, rate, duty=1.0):
    """Wall-clock time to accumulate n_pairs at a validated rate and duty."""
    return n_pairs / (rate * duty)


def collapse_probability(n_lifetimes):
    """Probability the readout superposition has collapsed after a
    validated n >= 0 excited-state lifetimes of scattering: 1 - exp(-n)."""
    return 1.0 - math.exp(-n_lifetimes)


def min_separation(t_meas):
    """Space-like separation for a measurement lasting a validated t_meas >= 0."""
    return SPEED_OF_LIGHT * t_meas


def build_plan(plan: ExperimentPlan) -> PlanReport:
    """Compose the full feasibility report from a plan's inputs.

    The sequence duration is the analysis pulse plus the scattering
    collapse time, never budgeted below the plan's measurement window.
    """
    v_atat = swapped_visibility(plan.v_atph, plan.v_atph, plan.bsm_fidelity)
    pairs = pairs_for_sigmas(v_atat, plan.target_sigmas)
    rate = pair_rate(plan)
    if rate == 0.0:
        raise ValueError("pair_rate underflows to 0: the plan's inputs are out of range")
    duration = measurement_duration(pairs, rate, plan.duty)
    t_meas = max(plan.t_stirap + plan.n_lifetimes * plan.lifetime_tau,
                 plan.measurement_window)
    return PlanReport(
        v_atat=v_atat,
        chsh_s=CHSH_QUANTUM_MAX * v_atat,
        pairs_needed=pairs,
        pair_rate=rate,
        duration=duration,
        collapse_probability=collapse_probability(plan.n_lifetimes),
        min_separation=min_separation(t_meas),
    )
