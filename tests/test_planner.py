"""Bell-test feasibility arithmetic."""

import dataclasses
import json
import math

import numpy as np
import pytest

from atomphoton.cli import main
from atomphoton.planner import (
    CHSH_QUANTUM_MAX,
    ExperimentPlan,
    build_plan,
    collapse_probability,
    measurement_duration,
    min_separation,
    pair_rate,
    pairs_for_sigmas,
    swapped_visibility,
)

SQRT2 = math.sqrt(2.0)


def single_pair_rate(rep_rate, eta_ph):
    """Rate of observed atom-photon coincidences for one source."""
    return rep_rate * eta_ph


def violation_sigmas(v, n_pairs):
    """Standard deviations by which S = 2 sqrt(2) v exceeds the classical
    bound 2 with n_pairs events, split equally over the 4 CHSH settings; each
    correlation estimator E = v/sqrt(2) carries variance (1 - E^2)/(n/4).
    pairs_for_sigmas inverts it."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    if n_pairs < 4:
        raise ValueError("need at least 4 pairs (one per setting)")
    e = v / SQRT2
    return (CHSH_QUANTUM_MAX * v - 2.0) / math.sqrt(4.0 * (1.0 - e * e) / (n_pairs / 4.0))


def read_plan_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    return ExperimentPlan(**payload["plan"]), payload["report"]


class TestSwappedVisibility:
    def test_perfect(self):
        assert swapped_visibility(1.0, 1.0, 1.0) == 1.0

    def test_demonstrated_value(self):
        v = swapped_visibility(0.86, 0.86, 1.0)
        assert abs(v - 0.7396) < 1e-12
        assert round(v, 2) == 0.74

    def test_with_bsm_fidelity(self):
        assert abs(swapped_visibility(0.86, 0.86, 0.98) - 0.724808) < 1e-12

    def test_symmetric_and_monotone(self):
        grid = np.linspace(0.1, 1.0, 7)
        for a in grid:
            for b in grid:
                assert swapped_visibility(a, b) == swapped_visibility(b, a)
        for lo, hi in zip(grid[:-1], grid[1:]):
            assert swapped_visibility(lo, 0.9) < swapped_visibility(hi, 0.9)


class TestViolationSigmas:
    def test_pure_state_corner(self):
        # v=1, n=4: S = 2 sqrt2, sigma_S = sqrt(4 (1-1/2)/1) = sqrt2
        got = violation_sigmas(1.0, 4)
        assert abs(got - (2 * SQRT2 - 2) / SQRT2) < 1e-12

    def test_threshold_limit(self):
        assert abs(violation_sigmas(1 / SQRT2 + 1e-9, 10_000)) < 1e-3

    def test_monotone_in_pairs(self):
        values = [violation_sigmas(0.8, n) for n in (100, 1000, 10_000)]
        assert values[0] < values[1] < values[2]

    def test_minimum_pairs(self):
        with pytest.raises(ValueError):
            violation_sigmas(0.8, 3)


class TestPairsForSigmas:
    def test_three_sigma_at_expected_visibility(self):
        n = pairs_for_sigmas(0.74, 3.0)
        assert 3500 <= n <= 14000   # within a factor of 2 of the quoted 7000
        assert n == 12082           # frozen from the variance model

    def test_inverse_consistency(self):
        for v in (0.72, 0.74, 0.86, 0.95):
            for k in (1.0, 3.0, 5.0):
                n = pairs_for_sigmas(v, k)
                assert violation_sigmas(v, n) >= k
                if n > 4:
                    assert violation_sigmas(v, n - 1) < k or n == 4

    def test_strictly_decreasing_in_visibility(self):
        grid = [0.72, 0.75, 0.8, 0.9, 1.0]
        counts = [pairs_for_sigmas(v, 3.0) for v in grid]
        assert all(a > b for a, b in zip(counts[:-1], counts[1:]))

    def test_strictly_increasing_in_sigmas(self):
        counts = [pairs_for_sigmas(0.8, k) for k in (1.0, 2.0, 3.0, 5.0)]
        assert all(a < b for a, b in zip(counts[:-1], counts[1:]))

    def test_subthreshold_rejected(self):
        with pytest.raises(ValueError, match="no violation"):
            pairs_for_sigmas(0.5, 3.0)
        with pytest.raises(ValueError, match="no violation"):
            pairs_for_sigmas(1 / SQRT2, 3.0)


class TestRates:
    def test_pair_rate_demonstrated_inputs(self):
        plan = ExperimentPlan(eta_ph=5e-4, transmission=0.9, rep_rate=5e5, p_bsm=0.5)
        rate = pair_rate(plan)
        assert abs(rate - 0.05625) < 1e-12
        # lands within a factor of 4 of one per minute
        assert 1 / 60 / 4 <= rate <= 4 / 60

    def test_zero_bsm_probability(self):
        # a zero pair rate would make the measurement endless, so the plan refuses it
        with pytest.raises(ValueError, match=r"p_bsm must lie in \(0, 1\], got 0.0"):
            ExperimentPlan(p_bsm=0.0)

    def test_single_pair_rate(self):
        assert abs(single_pair_rate(400.0, 5e-4) - 0.2) < 1e-12


class TestDuration:
    def test_quoted_pairs_at_quoted_rate(self):
        d = measurement_duration(7000, 1 / 60.0)
        assert abs(d - 7000 * 60) < 1e-9
        days = d / 86400
        assert abs(days - 4.861) < 1e-2
        # within a factor of 3 of the quoted 12 days
        assert 12 / 3 <= days <= 12 * 3

    def test_zero_pairs(self):
        assert measurement_duration(0, 1.0) == 0.0

    def test_duty_linearity(self):
        assert measurement_duration(100, 1.0, duty=0.5) == 2 * measurement_duration(100, 1.0)


class TestCollapseProbability:
    def test_ten_lifetimes(self):
        p = collapse_probability(10.0)
        assert p > 0.99
        assert abs(p - (1 - math.exp(-10))) < 1e-15
        assert round(p, 5) == 0.99995

    def test_corner_values(self):
        assert collapse_probability(0.0) == 0.0
        assert abs(collapse_probability(math.log(2)) - 0.5) < 1e-12

    def test_strictly_increasing_bounded(self):
        grid = np.linspace(0, 20, 30)
        vals = [collapse_probability(x) for x in grid]
        assert all(a < b for a, b in zip(vals[:-1], vals[1:]))
        assert all(v <= 1.0 for v in vals)


class TestMinSeparation:
    def test_half_microsecond(self):
        d = min_separation(0.5e-6)
        assert abs(d - 149.896229) < 1e-6
        assert abs(d - 150.0) / 150.0 < 1e-3

    def test_linearity_and_zero(self):
        assert min_separation(0.0) == 0.0
        assert abs(min_separation(1e-6) - 299.792458) < 1e-6


class TestBuildPlan:
    def test_demonstrated_defaults(self):
        report = build_plan(ExperimentPlan())
        assert abs(report.v_atat - 0.7396) < 1e-12
        assert report.chsh_s > 2.0
        assert 1000 <= report.pairs_needed <= 20000
        assert abs(report.min_separation - 149.896229) < 1e-6
        assert report.collapse_probability > 0.99
        assert 86400 <= report.duration <= 12 * 86400   # days scale

    def test_subthreshold_visibility_propagates(self):
        with pytest.raises(ValueError, match="no violation"):
            build_plan(ExperimentPlan(v_atph=0.5))

    def test_doubling_rep_rate_halves_duration(self):
        base = build_plan(ExperimentPlan())
        fast = build_plan(ExperimentPlan(rep_rate=1e6))
        assert abs(fast.duration - base.duration / 2) < 1e-9

    def test_sequence_longer_than_window_extends_separation(self):
        slow = build_plan(ExperimentPlan(t_stirap=1.0e-6))
        expected = (1.0e-6 + 10 * 26e-9) * 299_792_458.0
        assert abs(slow.min_separation - expected) < 1e-6

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(eta_ph=2.0)
        with pytest.raises(ValueError):
            ExperimentPlan(rep_rate=0.0)

    def test_json_round_trip(self, tmp_path):
        plan = ExperimentPlan(v_atph=0.9, duty=0.5)
        report = build_plan(plan)
        assert main(["--out", str(tmp_path / "x"), "plan", "--v-atph", "0.9", "--duty", "0.5"]) == 0
        plan2, report_dict = read_plan_json(tmp_path / "x.plan.json")
        assert plan2 == plan
        assert report_dict == dataclasses.asdict(report)
