"""Noise-model calibration against target observables."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from atomphoton import calibrate, qmath
from atomphoton.calibrate import (
    _OPERATORS,
    _TOMOGRAPHY,
    RESIDUAL_LIMIT,
    CalibrationError,
    _band,
    calibrate_noise,
    closed_form_start,
    exact_observables,
    model_observables,
)
from atomphoton.measurement import outcome_probabilities
from atomphoton.metrics import fidelity_to_target
from atomphoton.states import NoiseModel, ideal_state
from atomphoton.tomography import TomographySet, linear_inversion

UNIT = st.floats(0.0, 1.0)


@st.composite
def in_band_targets(draw):
    """(vx, vy, F) with F inside the reachable band at the mean visibility.

    vx and vy differ by at most 0.09: the model cannot split them, so a
    wider gap leaves a visibility residual above the 0.05 rejection limit.
    """
    vx = draw(UNIT)
    vy = draw(st.floats(max(0.0, vx - 0.09), min(1.0, vx + 0.09)))
    vbar = (vx + vy) / 2
    lo, hi = (1 + 3 * vbar) / 4, (1 + vbar) / 2
    return vx, vy, min(max(lo + draw(UNIT) * (hi - lo), lo), hi)


def _noise(start):
    p, q = start
    return NoiseModel(depolarizing=p, dephasing=q)


class TestExactObservables:
    def test_noiseless(self):
        obs = exact_observables(NoiseModel())
        assert abs(obs["vx"] - 1.0) < 1e-9
        assert abs(obs["vy"] - 1.0) < 1e-9
        assert abs(obs["fidelity"] - 1.0) < 1e-12

    def test_pure_depolarizing(self):
        obs = exact_observables(NoiseModel(depolarizing=0.14))
        assert abs(obs["vx"] - 0.86) < 1e-9
        assert abs(obs["vy"] - 0.86) < 1e-9
        assert abs(obs["fidelity"] - 0.895) < 1e-9

    def test_readout_confusion_scales_everything(self):
        obs = exact_observables(NoiseModel(eps01=0.05, eps10=0.05))
        assert abs(obs["vx"] - 0.9) < 1e-9
        # tomography of confused counts sees the damped correlations
        assert abs(obs["fidelity"] - (1 + 3 * 0.9) / 4) < 1e-9

    def test_dephasing_keeps_zz(self):
        obs = exact_observables(NoiseModel(dephasing=0.05))
        assert abs(obs["vx"] - 0.9) < 1e-9
        assert abs(obs["fidelity"] - (1 + 2 * 0.9 + 1.0) / 4) < 1e-9

    @settings(max_examples=1000)
    @given(UNIT, UNIT)
    @example(1.0, 0.0)
    def test_fidelity_equals_linear_inversion(self, p, q):
        """The fidelity is exactly that of the linear-inversion state of the
        exact-count tomography rows."""
        noise = NoiseModel(depolarizing=p, dephasing=q)
        probs = outcome_probabilities(ideal_state(), _OPERATORS, noise)
        want = fidelity_to_target(
            linear_inversion(TomographySet(probs[12:], _TOMOGRAPHY, exact=True)))
        assert exact_observables(noise)["fidelity"] == want


class TestModelObservables:
    @settings(max_examples=1000)
    @given(UNIT, UNIT)
    @example(0.0, 0.0)
    @example(1.0, 0.0)
    @example(0.0, 1.0)
    @example(0.3, 0.75)
    def test_equals_pipeline(self, p, q):
        """The closed-form map the calibration search runs on equals the
        observables measured through the pipeline (q > 1/2 included, where
        the fringe fit returns |V|), so the model and the measurement cannot
        drift apart."""
        obs = exact_observables(NoiseModel(depolarizing=p, dephasing=q))
        got = dict(zip(("vx", "vy", "fidelity"), model_observables(p, q)))
        for key in got:
            assert abs(got[key] - obs[key]) <= 1e-15


class TestClosedFormStart:
    @settings(max_examples=200)
    @given(in_band_targets())
    def test_in_band_start_is_exact(self, targets):
        vx, vy, f = targets
        branch, start = closed_form_start(vx, vy, f)
        obs = exact_observables(_noise(start))
        assert branch == "in_band"
        vbar = (vx + vy) / 2
        assert abs(obs["vx"] - vbar) < 1e-12
        assert abs(obs["vy"] - vbar) < 1e-12
        assert abs(obs["fidelity"] - f) < 1e-12

    @settings(max_examples=200)
    @given(UNIT, UNIT, UNIT)
    def test_off_band_start_lies_on_frontier(self, vx, vy, f):
        branch, start = closed_form_start(vx, vy, f)
        assume(branch != "in_band")
        obs = exact_observables(_noise(start))
        if branch == "below":
            # p is clipped at 1 below F = 1/4, where the state is fully mixed
            assert abs(obs["fidelity"] - max(f, 0.25)) < 1e-12
            frontier = (4 * obs["fidelity"] - 1) / 3
        else:
            assert abs(obs["fidelity"] - f) < 1e-12
            frontier = 2 * obs["fidelity"] - 1
        assert abs(obs["vx"] - frontier) < 1e-12
        assert abs(obs["vy"] - frontier) < 1e-12

    def test_branches(self):
        assert closed_form_start(0.85, 0.87, 0.875)[0] == "below"
        assert closed_form_start(0.78, 0.78, 0.9)[0] == "above"
        assert closed_form_start(0.9, 0.9, 0.93)[0] == "in_band"


class TestCalibrateNoise:
    @settings(max_examples=40)
    @given(in_band_targets())
    @example((0.95, 0.93, 0.96))
    def test_in_band_targets_matched(self, targets):
        vx, vy, f = targets
        res = calibrate_noise(vx, vy, f)
        assert res.branch == "in_band"
        assert abs(res.residuals["fidelity"]) < 1e-3
        assert abs((res.achieved["vx"] + res.achieved["vy"]) / 2 - (vx + vy) / 2) < 1e-3

    def test_fully_mixed_target_without_division_by_zero(self):
        # s = 4F - 1 - 2vbar is 0 here: the in-band start must not divide by it
        branch, start = closed_form_start(0.0, 0.0, 0.25)
        assert branch == "in_band" and tuple(start) == (1.0, 0.0)
        res = calibrate_noise(0.0, 0.0, 0.25)
        assert res.noise.depolarizing == 1.0
        assert res.max_residual() < 1e-12

    def test_perfect_targets_zero_noise(self):
        res = calibrate_noise(1.0, 1.0, 1.0)
        assert res.noise.depolarizing < 1e-6
        assert res.noise.dephasing < 1e-6
        assert res.noise.eps01 < 1e-6
        assert res.max_residual() < 1e-6

    def test_demonstrated_targets_fidelity_matched(self):
        res = calibrate_noise(0.85, 0.87, 0.875)
        # fidelity is matched on the model frontier; the visibilities keep
        # a documented residual (the model cannot split vx from vy, and
        # fidelity pins their mean)
        assert abs(res.residuals["fidelity"]) < 1e-3
        assert abs(res.achieved["vx"] - res.achieved["vy"]) < 1e-6
        assert res.max_residual() < 0.05
        # closed loop: re-simulating with the returned model reproduces
        # the achieved observables
        again = exact_observables(res.noise)
        for key in ("vx", "vy", "fidelity"):
            assert abs(again[key] - res.achieved[key]) < 1e-9

    def test_frontier_zeros_exact(self):
        """The search is bounded to the unit square, so where the frontier
        puts q (below the band) or p (above it) at zero, it is zero. Below
        the band the frontier compromise gives away at most 1e-4 in fidelity
        (7.1e-5 today)."""
        below = calibrate_noise(0.85, 0.87, 0.875)
        assert below.noise.dephasing == 0.0 and abs(below.residuals["fidelity"]) <= 1e-4
        assert calibrate_noise(0.78, 0.78, 0.9).noise.depolarizing == 0.0

    @pytest.mark.parametrize("targets", [(0.9, 0.9, 0.93), (0.8, 0.82, 0.88),
                                         (0.95, 0.93, 0.96), (0.8, 0.8, 0.875)])
    def test_frozen_in_band_targets_matched_to_1e8(self, targets):
        vx, vy, f = targets
        res = calibrate_noise(vx, vy, f)
        assert res.branch == "in_band"
        assert abs(res.residuals["fidelity"]) <= 1e-8
        assert abs((res.achieved["vx"] + res.achieved["vy"]) / 2 - (vx + vy) / 2) <= 1e-8

    @pytest.mark.parametrize("targets", [(0.9, 0.9, 0.93), (0.85, 0.87, 0.875),
                                         (0.78, 0.78, 0.9), (1.0, 1.0, 1.0),
                                         (0.95, 0.93, 0.96)])
    def test_readout_confusion_not_searched(self, targets):
        """p and eps reach the observables only as (1-2eps)(1-p): eps stays 0."""
        res = calibrate_noise(*targets)
        assert res.noise.eps01 == res.noise.eps10 == 0.0

    def test_objective_evaluations_over_benchmark_targets(self, monkeypatch):
        """The six targets of every branch take fewer than the 1,021
        exact_observables calls the three-parameter search took."""
        calls = []

        def counted(noise):
            calls.append(noise)
            return exact_observables(noise)

        monkeypatch.setattr(calibrate, "exact_observables", counted)
        for targets in [(0.9, 0.9, 0.93), (0.8, 0.82, 0.88), (0.85, 0.87, 0.875),
                        (0.78, 0.78, 0.9), (1.0, 1.0, 1.0), (0.95, 0.93, 0.96)]:
            calibrate_noise(*targets)
        assert len(calls) < 1021

    @pytest.mark.parametrize("targets", [(0.9, 0.9, 0.93), (0.8, 0.82, 0.88),
                                         (0.85, 0.87, 0.875), (0.78, 0.78, 0.9),
                                         (1.0, 1.0, 1.0), (0.95, 0.93, 0.96)])
    def test_one_pipeline_measurement_per_target(self, monkeypatch, targets):
        """The search runs on the closed-form map; the pipeline measures only
        the returned model, once."""
        calls = []

        def counted(noise):
            calls.append(noise)
            return exact_observables(noise)

        monkeypatch.setattr(calibrate, "exact_observables", counted)
        res = calibrate_noise(*targets)
        assert calls == [res.noise]

    def test_state_checked_once_per_target(self, monkeypatch):
        """The ideal state passes the density-matrix gate once per pipeline
        measurement, and the search on the closed-form map runs none."""
        checked, check = [], qmath.check_density_matrix
        measured = []

        def counted_check(rho):
            checked.append(rho)
            return check(rho)

        def counted_measurement(noise):
            measured.append(noise)
            return exact_observables(noise)

        monkeypatch.setattr(qmath, "check_density_matrix", counted_check)
        monkeypatch.setattr(calibrate, "exact_observables", counted_measurement)
        for targets in [(0.9, 0.9, 0.93), (0.8, 0.82, 0.88), (0.85, 0.87, 0.875),
                        (0.78, 0.78, 0.9), (1.0, 1.0, 1.0), (0.95, 0.93, 0.96)]:
            calibrate_noise(*targets)
        assert len(measured) == len(checked) == 6

    def test_feasible_triple_matched_tightly(self):
        # vx = vy = 0.8 with F = (1 + 2*0.8 + 0.9)/4 = 0.875 is reachable
        res = calibrate_noise(0.8, 0.8, 0.875)
        assert res.max_residual() < 1e-3

    def test_infeasible_targets_report_frontier(self):
        with pytest.raises(CalibrationError, match="frontier"):
            calibrate_noise(0.9, 0.9, 0.5)

    def test_target_range_validation(self):
        with pytest.raises(CalibrationError):
            calibrate_noise(1.2, 0.9, 0.9)


def _frozen_in_band_targets(n=240, seed=5):
    """n in-band (vx, vy, F), each coordinate rounded to 2-16 digits, from one
    fixed seed: rounded targets are where a search could step off the start."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        digits = int(rng.integers(2, 17))
        vx = rng.uniform()
        vy = min(max(vx + rng.uniform(-0.09, 0.09), 0.0), 1.0)
        _, low, high = _band(vx, vy)
        t = tuple(round(float(x), digits) for x in (vx, vy, low + rng.uniform() * (high - low)))
        if closed_form_start(*t)[0] == "in_band":
            out.append(t)
    return out


BENCHMARK_IN_BAND = [(0.9, 0.9, 0.93), (0.8, 0.82, 0.88), (1.0, 1.0, 1.0), (0.95, 0.93, 0.96)]
BAND_EDGES = [(vx, vy, _band(vx, vy)[k]) for vx, vy in [(0.8, 0.8), (0.85, 0.87), (0.3, 0.35),
                                                          (0.0, 0.0), (1.0, 0.96)]
              for k in (1, 2)]


class TestInBandClosedForm:
    @pytest.mark.parametrize("targets", BENCHMARK_IN_BAND + BAND_EDGES + _frozen_in_band_targets())
    def test_returns_closed_form_exactly(self, targets):
        """In the band the exact inverse is returned bit for bit and meets
        fidelity and mean visibility to rounding."""
        vx, vy, f = targets
        branch, (p, q) = closed_form_start(vx, vy, f)
        res = calibrate_noise(vx, vy, f)
        assert branch == res.branch == "in_band"
        assert (res.noise.depolarizing, res.noise.dephasing) == (float(p), float(q))
        assert abs(res.residuals["fidelity"]) <= 1e-12
        assert abs((res.residuals["vx"] + res.residuals["vy"]) / 2) <= 1e-12

    @pytest.mark.threaded_blas
    def test_scipy_imported_off_the_band_only(self, cli_runs):
        """A fresh interpreter calibrates an in-band target without loading
        scipy; the first target below the band loads it for Nelder-Mead
        (`cli_runs` runs `inband` before the below-band default)."""
        loaded = cli_runs["hash0"][2]
        assert loaded["inband"] == [], "scipy or a numpy module loaded in band"
        assert "scipy.optimize" in loaded["calibrate"], "scipy not loaded below the band"

    def test_off_band_values_unchanged(self):
        """Off the band Nelder-Mead still refines the frontier start."""
        below = calibrate_noise(0.85, 0.87, 0.875).noise
        above = calibrate_noise(0.78, 0.78, 0.9).noise
        assert abs(below.depolarizing - 0.16657218748610716) <= 1e-12
        assert abs(above.dephasing - 0.10007936530441952) <= 1e-12


class TestRefusal:
    def test_split_named_when_it_alone_exceeds_the_limit(self, tmp_path, refused):
        # F = 0.86 lies in the band [0.85, 0.9] at vbar = 0.8; the split does not
        assert abs(0.9 - 0.7) / 2 > RESIDUAL_LIMIT
        err = refused(["--out", str(tmp_path / "cal"), "calibrate", "--vx", "0.9", "--vy", "0.7",
                       "--fidelity", "0.86"], "|vx - vy|/2 = 0.1, beyond the limit 0.05")
        assert "frontier" not in err

    @pytest.mark.parametrize("vx, vy, f", [("0.9", "0.8", "0.9"), ("0.3", "0.2", "0.5")])
    def test_split_named_when_rounding_puts_it_over(self, tmp_path, refused, vx, vy, f):
        """A split of exactly the limit in the band is refused by rounding; the
        message still names the split, not an empty cause."""
        refused(["--out", str(tmp_path / "cal"), "calibrate", "--vx", vx, "--vy", vy,
                 "--fidelity", f], "|vx - vy|/2 = 0.05, beyond the limit 0.05; closest")

    def test_band_named_otherwise(self, tmp_path, refused):
        err = refused(["--out", str(tmp_path / "cal"), "calibrate", "--vx", "0.9", "--vy", "0.9",
                       "--fidelity", "0.5"],
                      "frontier pins F between 0.925 and 0.95 at mean visibility 0.9")
        assert "vx - vy" not in err

    def test_split_and_band_both_named(self, tmp_path, refused):
        refused(["--out", str(tmp_path / "cal"), "calibrate", "--vx", "0.9", "--vy", "0.7",
                 "--fidelity", "0.5"], "|vx - vy|/2 = 0.1, beyond the limit 0.05, and the model "
                "frontier pins F between 0.85 and 0.9")
