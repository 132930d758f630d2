"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass. Statistical criteria run on frozen seed sets and are deterministic.
"""

import math
import time

import numpy as np
import pytest

from atomphoton import qmath
from atomphoton.calibrate import calibrate_noise
from atomphoton.measurement import (
    ATOM_SX,
    ATOM_SY,
    AtomSetting,
    MeasurementSetting,
    PhotonSetting,
    outcome_operators,
    simulate_settings,
)
from atomphoton.metrics import chsh_max, fidelity_to_target, fit_fringe, fringe_scans, \
    negativity
from atomphoton.planner import (
    ExperimentPlan,
    collapse_probability,
    measurement_duration,
    min_separation,
    pair_rate,
    pairs_for_sigmas,
    swapped_visibility,
)
from atomphoton.states import NoiseModel, ideal_state, werner
from atomphoton.tomography import (
    TomographySet,
    linear_inversion,
    mle_reconstruct,
    simulate_tomography,
)

BETAS_18 = [k * math.pi / 18 for k in range(18)]


def scan_counts(atom, n_per_point, noise, seed):
    """(18, 4) counts of an 18-point beta scan of the ideal state."""
    settings = [MeasurementSetting(atom, PhotonSetting(beta=b)) for b in BETAS_18]
    ds = simulate_settings(ideal_state(), settings, n_per_point, noise=noise, seed=seed)
    return ds.records


def report(criterion, ok, detail):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_fringe_reproduction():
    # Noise calibrated to visibility 0.86; 18-point scans with 300
    # conditioned events per fringe point (the two detector conditionals
    # split each record, so records carry 600 trials); fitted visibility
    # within +-0.03 in >= 95% of 200 seeds, per basis and detector.
    t0 = time.perf_counter()
    noise = NoiseModel(depolarizing=0.14)
    target = 0.86
    n_seeds = 200
    hits = {("sx", 1): 0, ("sx", 2): 0, ("sy", 1): 0, ("sy", 2): 0}
    for seed in range(n_seeds):
        for name, atom in (("sx", ATOM_SX), ("sy", ATOM_SY)):
            counts = scan_counts(atom, 600, noise, seed=2 * seed + (name == "sy"))
            p, _ = fringe_scans(counts)
            for detector in (1, 2):
                fit = fit_fringe(BETAS_18, p[:, detector - 1])
                hits[(name, detector)] += abs(fit.visibility - target) <= 0.03
    elapsed = time.perf_counter() - t0

    fractions = {k: v / n_seeds for k, v in hits.items()}
    band = (target - 0.03, target + 0.03)
    paper_inside = band[0] <= 0.85 <= band[1] and band[0] <= 0.87 <= band[1]
    ok = all(f >= 0.95 for f in fractions.values()) and paper_inside and elapsed < 10.0
    report(1, ok,
           f"in-band fractions {  {f'{b}/apd{d}': round(v, 3) for (b, d), v in fractions.items()} }, "
           f"band {band} contains 0.85 and 0.87, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_tomography_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    psd_ok = True
    for rho_true in (ideal_state(), werner(0.86)):
        ds = simulate_tomography(rho_true, 300, seed=0, exact=True)
        ts = TomographySet.from_dataset(ds)
        rho_lin = linear_inversion(ts)
        worst = max(worst, float(np.max(np.abs(rho_lin - rho_true))))
        rho_mle, _ = mle_reconstruct(ts)
        worst = max(worst, float(np.max(np.abs(rho_mle - rho_true))))
        psd_ok &= np.min(np.linalg.eigvalsh(rho_mle)) >= -1e-10
        psd_ok &= abs(np.trace(rho_mle).real - 1.0) < 1e-10
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and psd_ok and elapsed < 5.0
    report(2, ok, f"worst entrywise error {worst:.2e} < 1e-4, MLE PSD/trace-1, "
                  f"runtime {elapsed:.1f}s < 5s")


def test_criterion_3_scalar_summaries():
    # Finite-count tomography with noise calibrated to the demonstrated
    # observables (vx=0.85, vy=0.87, F=0.875). Frozen sweep seeds
    # 100..199; the underlying per-seed in-band probability is ~0.92-0.94.
    t0 = time.perf_counter()
    calibration = calibrate_noise(0.85, 0.87, 0.875)
    hits = 0
    n_seeds = 100
    for seed in range(100, 100 + n_seeds):
        ds = simulate_tomography(ideal_state(), 300, noise=calibration.noise, seed=seed)
        rho, _ = mle_reconstruct(TomographySet.from_dataset(ds))
        f = fidelity_to_target(rho)
        n = negativity(rho)
        hits += (abs(f - 0.875) <= 0.025) and (abs(n - 0.38) <= 0.05)
    elapsed = time.perf_counter() - t0
    ok = hits >= 0.90 * n_seeds and elapsed < 60.0
    report(3, ok, f"{hits}/{n_seeds} seeds inside F=0.875+-0.025 and N=0.38+-0.05 "
                  f"(calibrated exact F {calibration.achieved['fidelity']:.4f}), "
                  f"runtime {elapsed:.1f}s < 60s")


def test_criterion_4_swapping_law():
    v = swapped_visibility(0.86, 0.86, 1.0)
    ok = abs(v - 0.7396) < 1e-12 and round(v, 2) == 0.74
    report(4, ok, f"swapped visibility {v:.6f} = 0.7396, rounds to 0.74")


def test_criterion_5_chsh_threshold_and_value():
    s_threshold = chsh_max(werner(1 / math.sqrt(2)))
    s_expected = chsh_max(werner(0.74))
    ok = abs(s_threshold - 2.0) < 1e-9 and abs(s_expected - 2.0930) < 1e-4
    report(5, ok, f"S(werner(1/sqrt2)) = {s_threshold:.12f} (=2 within 1e-9), "
                  f"S(werner(0.74)) = {s_expected:.6f} (=2.0930 within 1e-4)")


def test_criterion_6_locality_and_readout_arithmetic():
    sep = min_separation(0.5e-6)
    collapse = collapse_probability(10.0)
    ok = (abs(sep - 149.896229) < 1e-6
          and abs(sep - 150.0) / 150.0 < 1e-3
          and round(collapse, 5) == 0.99995
          and collapse > 0.99)
    report(6, ok, f"min separation {sep:.4f} m (150 m within 0.1%), "
                  f"collapse probability {collapse:.7f} > 0.99")


def test_criterion_7_rate_and_sample_size_feasibility():
    # The quoted 7000-pair / 12-day figures are not exactly reproducible:
    # the underlying statistical and duty-cycle models are unstated.
    # Factor bands absorb the model differences; assumptions logged below.
    plan = ExperimentPlan(eta_ph=5e-4, transmission=0.9, rep_rate=5e5, p_bsm=0.5)
    rate = pair_rate(plan)
    quoted_rate = 1 / 60.0
    rate_ok = quoted_rate / 4 <= rate <= quoted_rate * 4

    pairs = pairs_for_sigmas(0.74, 3.0)
    pairs_ok = 7000 / 2 <= pairs <= 7000 * 2

    duration_days = measurement_duration(7000, quoted_rate) / 86400.0
    duration_ok = 12 / 3 <= duration_days <= 12 * 3

    print(f"  rate model: rep*eta^2*T^2*p_bsm with p_bsm=0.5 -> {rate:.4f}/s "
          f"= {rate * 60:.2f}/min vs quoted 1/min (factor {rate / quoted_rate:.2f})")
    print(f"  pairs model: equal split over 4 settings, var (1-E^2)/(n/4) "
          f"-> {pairs} vs quoted 7000 (factor {pairs / 7000:.2f})")
    print(f"  duration: 7000 pairs at the quoted 1/min, duty=1 "
          f"-> {duration_days:.2f} d vs quoted 12 d (factor {12 / duration_days:.2f})")
    ok = rate_ok and pairs_ok and duration_ok
    report(7, ok, f"rate within x4, pairs within x2, duration within x3 of the "
                  f"quoted figures ({rate * 60:.2f}/min, {pairs}, {duration_days:.1f} d)")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # projector completeness and orthogonality across a settings grid, on the
    # outcome operators' atomic blocks Pi_a (x) I and detector blocks I (x) Pi_d
    eye4 = np.eye(4)
    for th in np.linspace(0, math.pi / 2, 5):
        for ph in np.linspace(0, 2 * math.pi, 5):
            ops = outcome_operators([MeasurementSetting(AtomSetting(theta=th, phi=ph),
                                                        PhotonSetting())])
            p_t, p_r = ops.reshape(2, 2, 4, 4).sum(axis=1)
            assert np.max(np.abs(p_t + p_r - eye4)) < 1e-14
            assert np.max(np.abs(p_t @ p_r)) < 1e-14
    for beta in np.linspace(0, math.pi, 9):
        ops = outcome_operators([MeasurementSetting(ATOM_SX, PhotonSetting(beta=beta))])
        p1, p2 = ops.reshape(2, 2, 4, 4).sum(axis=0)
        assert np.max(np.abs(p1 + p2 - eye4)) < 1e-14
        assert np.max(np.abs(p1 @ p2)) < 1e-14

    # partial-transpose involution on random states
    for _ in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        for sub in ("atom", "photon"):
            back = qmath.partial_transpose(qmath.partial_transpose(rho, sub), sub)
            assert np.max(np.abs(back - rho)) < 1e-12

    # MLE log-likelihood never falls below its initialization
    for seed in range(5):
        ds = simulate_tomography(ideal_state(), 250,
                                 noise=NoiseModel(depolarizing=0.2, eps01=0.03, eps10=0.01),
                                 seed=seed)
        _, rep = mle_reconstruct(TomographySet.from_dataset(ds))
        assert rep.log_likelihood >= rep.init_log_likelihood - 1e-9

    # round-trip identity: extract -> invert reproduces random states
    for _ in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g.conj().T @ g
        rho /= np.trace(rho)
        ds = simulate_tomography(rho, 10, seed=0, exact=True)
        back = linear_inversion(TomographySet.from_dataset(ds))
        assert np.max(np.abs(back - rho)) < 1e-10

    # determinism under fixed seeds
    noise = NoiseModel(depolarizing=0.14)
    assert np.array_equal(scan_counts(ATOM_SX, 300, noise, seed=11),
                          scan_counts(ATOM_SX, 300, noise, seed=11))
    da = simulate_tomography(ideal_state(), 300, noise=noise, seed=13)
    db = simulate_tomography(ideal_state(), 300, noise=noise, seed=13)
    assert np.array_equal(da.records, db.records)
    ra, _ = mle_reconstruct(TomographySet.from_dataset(da))
    rb, _ = mle_reconstruct(TomographySet.from_dataset(db))
    assert np.array_equal(ra, rb)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    report(8, ok, f"projector completeness, PPT involution, MLE monotonicity, "
                  f"round-trip identities, seeded determinism all hold; "
                  f"runtime {elapsed:.1f}s < 120s")
