"""Simulator and analysis toolkit for an atom-photon entanglement experiment.

Generation of the entangled state under configurable noise, projective
measurement simulation with finite statistics, full two-qubit state
tomography with maximum-likelihood refinement, entanglement metrics, and
feasibility arithmetic for an event-ready loophole-free Bell test.
"""

from .qmath import partial_transpose
from .states import NoiseModel, apply_noise, ideal_ket, ideal_state, werner
from .measurement import (
    AtomSetting,
    Dataset,
    MeasurementSetting,
    PhotonSetting,
    read_counts_csv,
    simulate_settings,
)
from .tomography import (
    TomographySet,
    bootstrap_metrics,
    canonical_settings,
    linear_inversion,
    mle_reconstruct,
    simulate_tomography,
)
from .metrics import (
    VisibilityFit,
    chsh_max,
    fidelity_to_target,
    fit_fringe,
    fringe_scans,
    negativity,
    purity,
)
from .planner import (
    ExperimentPlan,
    PlanReport,
    build_plan,
    collapse_probability,
    measurement_duration,
    min_separation,
    pair_rate,
    pairs_for_sigmas,
    swapped_visibility,
)
from .calibrate import CalibrationError, CalibrationResult, calibrate_noise, exact_observables

__version__ = "0.1.0"
