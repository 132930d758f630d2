"""Scalar metrics and fringe fitting."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import minimize

from atomphoton import qmath
from atomphoton.measurement import (
    ATOM_SX,
    MeasurementSetting,
    PhotonSetting,
    outcome_operators,
    outcome_probabilities,
)
from atomphoton.metrics import (
    chsh_max,
    correlation_matrix,
    fidelity_to_target,
    fit_fringe,
    fringe_scans,
    negativity,
    purity,
)
from atomphoton.states import NoiseModel, apply_noise, ideal_state, werner


def chsh_max_search(rho, n_grid=24):
    """Numeric oracle for chsh_max: coarse grid over the four Bloch axes
    followed by Nelder-Mead refinement from each start."""
    t = correlation_matrix(rho)

    def axis(theta, phi):
        return np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )

    def neg_s(x):
        a, ap = axis(x[0], x[1]), axis(x[2], x[3])
        b, bp = axis(x[4], x[5]), axis(x[6], x[7])
        return -(a @ t @ b + a @ t @ bp + ap @ t @ b - ap @ t @ bp)

    best = None
    thetas = np.linspace(0, math.pi, n_grid // 4)
    phis = np.linspace(0, 2 * math.pi, n_grid // 3, endpoint=False)
    rng = np.random.default_rng(0)
    starts = [rng.uniform(0, math.pi, 8) for _ in range(40)]
    starts += [np.array([th, ph, th + 0.5, ph, th, ph + 0.5, th + 0.5, ph + 0.5])
               for th in thetas[:3] for ph in phis[:3]]
    for x0 in starts:
        res = minimize(neg_s, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        if best is None or res.fun < best:
            best = res.fun
    return -best

SQRT2 = math.sqrt(2.0)


class TestFidelity:
    def test_ideal_is_one(self):
        assert abs(fidelity_to_target(ideal_state()) - 1.0) < 1e-12

    @pytest.mark.parametrize("v", [0.0, 0.5, 0.86, 1.0])
    def test_werner_formula(self, v):
        assert abs(fidelity_to_target(werner(v)) - (3 * v + 1) / 4) < 1e-12

    def test_calibrated_state_band(self):
        # state reproducing visibilities near 0.85/0.87 lands in 0.87-0.90
        rho = apply_noise(ideal_state(), NoiseModel(depolarizing=0.14))
        f = fidelity_to_target(rho)
        assert 0.87 <= f <= 0.90

    def test_linearity_in_state(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            r1 = g1 @ g1.conj().T
            r1 /= np.trace(r1)
            r2 = g2 @ g2.conj().T
            r2 /= np.trace(r2)
            alpha = rng.uniform()
            lhs = fidelity_to_target(alpha * r1 + (1 - alpha) * r2)
            rhs = alpha * fidelity_to_target(r1) + (1 - alpha) * fidelity_to_target(r2)
            assert abs(lhs - rhs) < 1e-12


class TestNegativity:
    def test_ideal_half(self):
        assert abs(negativity(ideal_state()) - 0.5) < 1e-12

    def test_maximally_mixed_zero(self):
        assert negativity(np.eye(4, dtype=complex) / 4) == 0.0

    @pytest.mark.parametrize("v,expected", [(0.844, 0.383), (0.86, 0.395)])
    def test_werner_values(self, v, expected):
        assert abs(negativity(werner(v)) - expected) < 1e-9

    def test_zero_for_product_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            r1 = g1 @ g1.conj().T
            r1 /= np.trace(r1)
            r2 = g2 @ g2.conj().T
            r2 /= np.trace(r2)
            assert negativity(np.kron(r1, r2)) < 1e-10

    def test_ppt_state_scores_positive_zero(self):
        # a separable Werner state has no negative eigenvalue: -(empty sum) must not be -0.0
        assert negativity(werner(0.2)) == 0.0
        assert math.copysign(1.0, negativity(werner(0.2))) == 1.0
        values = negativity(np.array([werner(v) for v in (0.0, 0.2, 0.9, 1.0)]))
        assert [math.copysign(1.0, x) for x in values] == [1.0] * 4
        assert values[0] == values[1] == 0.0 and values[2] > 0.0 and values[3] > 0.0


class TestStacks:
    """The metrics of an (R, 4, 4) stack: one value per state, the
    closed forms of the Werner family and zero negativity for product states."""

    V = np.linspace(0.0, 1.0, 11)

    def test_werner_family(self):
        stack = np.array([werner(v) for v in self.V])
        assert np.allclose(fidelity_to_target(stack), (3 * self.V + 1) / 4, atol=1e-12)
        assert np.allclose(negativity(stack), np.maximum(0.0, (3 * self.V - 1) / 4), atol=1e-12)
        assert np.allclose(purity(stack), (1 + 3 * self.V ** 2) / 4, atol=1e-12)

    def test_product_states_ppt(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((2, 20, 2, 2)) + 1j * rng.standard_normal((2, 20, 2, 2))
        r = g @ g.conj().swapaxes(-1, -2)
        r /= np.trace(r, axis1=-2, axis2=-1)[..., None, None]
        stack = np.einsum("rij,rkl->rikjl", r[0], r[1]).reshape(20, 4, 4)   # r0 (x) r1
        assert negativity(stack).shape == (20,)
        assert np.all(negativity(stack) < 1e-10)

    def test_nested_stack_shape(self):
        stack = np.array([werner(v) for v in self.V[:6]]).reshape(2, 3, 4, 4)
        for fn in (fidelity_to_target, negativity, purity):
            assert fn(stack).shape == (2, 3)
            assert np.array_equal(fn(stack).ravel(), fn(stack.reshape(6, 4, 4)))


class TestChsh:
    def test_ideal_tsirelson(self):
        # oracle: singular values of T = diag(1, -1, 1) are all 1
        t = correlation_matrix(ideal_state())
        assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        s = np.linalg.svd(t, compute_uv=False)
        assert np.allclose(s, 1.0, atol=1e-12)
        assert abs(chsh_max(ideal_state()) - 2 * SQRT2) < 1e-12

    def test_correlation_matrix_equals_complex_contraction(self):
        """T, a block of qmath.coefficients, equals the complex contraction
        tr(rho s_i (x) s_j) bit for bit on random states."""
        rng = np.random.default_rng(34)
        for _ in range(2000):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T)
            expected = np.einsum("ijkl,lk->ij", qmath.PAULI_PRODUCTS[1:, 1:], rho).real
            assert correlation_matrix(rho).tobytes() == expected.tobytes()

    def test_threshold_visibility(self):
        value = chsh_max(werner(1 / SQRT2))
        assert abs(value - 2.0) < 1e-9

    def test_expected_swapped_visibility_value(self):
        value = chsh_max(werner(0.74))
        assert abs(value - 2.0930) < 1e-4

    @pytest.mark.parametrize("v", np.linspace(0.0, 1.0, 11))
    def test_werner_linearity(self, v):
        value = chsh_max(werner(v))
        assert abs(value - 2 * SQRT2 * v) < 1e-9

    @pytest.mark.parametrize("rho_fn", [
        lambda: ideal_state(),
        lambda: werner(0.74),
        lambda: werner(0.5),
    ])
    def test_numeric_search_cross_check(self, rho_fn):
        rho = rho_fn()
        closed = chsh_max(rho)
        searched = chsh_max_search(rho)
        assert searched <= closed + 1e-6
        assert closed - searched < 5e-3

    def test_never_exceeds_tsirelson(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            value = chsh_max(rho)
            assert value <= 2 * SQRT2 + 1e-9


class TestPurity:
    def test_values(self):
        assert abs(purity(ideal_state()) - 1.0) < 1e-12
        assert abs(purity(np.eye(2, dtype=complex) / 2) - 0.5) < 1e-12

    def test_werner_marginal(self):
        marg = np.einsum("ikjk->ij", werner(0.86).reshape(2, 2, 2, 2))   # atomic marginal
        assert abs(purity(marg) - 0.5) < 1e-12


class TestFitFringe:
    def test_exact_model_recovery(self):
        betas = np.arange(18) * math.pi / 18
        p = 0.5 + 0.5 * np.cos(2 * betas - 0.7)
        fit = fit_fringe(betas, p)
        assert abs(fit.visibility - 1.0) < 1e-9
        assert abs(fit.offset - 0.5) < 1e-9
        assert abs(fit.phase - 0.7) < 1e-9
        assert fit.rms_residual < 1e-9
        assert not fit.clipped

    def test_flat_scan_zero_visibility(self):
        betas = np.arange(12) * math.pi / 12
        fit = fit_fringe(betas, np.full(12, 0.5))
        assert fit.visibility < 1e-9

    def test_consistency_with_exact_probabilities(self):
        # fitting the exact conditionals recovers the analytic visibility
        betas = np.arange(10) * math.pi / 10
        ops = outcome_operators([MeasurementSetting(ATOM_SX, PhotonSetting(beta=b)) for b in betas])
        for v in (0.3, 0.86, 1.0):
            p = outcome_probabilities(werner(v), ops, NoiseModel())
            fit = fit_fringe(betas, p[:, 2] / (p[:, 0] + p[:, 2]))
            assert abs(fit.visibility - v) < 1e-6

    def test_degenerate_design_rejected(self):
        betas = np.array([0.3, 0.3 + math.pi / 2, 0.3 + math.pi, 0.3 + 3 * math.pi / 2])
        with pytest.raises(ValueError, match="degenerate"):
            fit_fringe(betas, np.full(4, 0.5))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 4 points"):
            fit_fringe([0.0, 0.5, 1.0], [0.1, 0.2, 0.3])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_fringe(np.arange(6) * 0.3, np.full(5, 0.5))

    @pytest.mark.parametrize("bad_betas, bad_p, message", [
        ({}, {2: math.nan}, r"p\[2\] is nan, not finite"),
        ({}, {5: -math.inf}, r"p\[5\] is -inf, not finite"),
        ({4: math.inf}, {}, r"betas\[4\] is inf, not finite"),
        ({}, {1: math.nan, 3: math.inf}, r"p\[1\] is nan"),
        ({3: -math.inf}, {1: math.nan}, r"betas\[3\] is -inf"),
    ], ids=["nan-p", "inf-p", "inf-beta", "first-p-named", "beta-named-before-p"])
    def test_non_finite_point_names_first_index(self, bad_betas, bad_p, message):
        betas, p = np.arange(6) * math.pi / 6, np.full(6, 0.5)
        betas[list(bad_betas)], p[list(bad_p)] = list(bad_betas.values()), list(bad_p.values())
        with pytest.raises(ValueError, match=message):
            fit_fringe(betas, p)

    def test_scan_point_without_events_dropped_before_fit(self):
        betas = np.arange(6) * math.pi / 6
        ops = outcome_operators([MeasurementSetting(ATOM_SX, PhotonSetting(beta=b)) for b in betas])
        rows = outcome_probabilities(werner(0.86), ops, NoiseModel())
        rows[2] = 0.0   # no events at beta = pi/3
        p, events = fringe_scans(rows)
        with pytest.raises(ValueError, match=r"p\[2\] is nan"):
            fit_fringe(betas, p[:, 0])
        seen = events[:, 0] > 0
        assert abs(fit_fringe(betas[seen], p[seen, 0]).visibility - 0.86) < 1e-9

    def test_clipped_flagged_not_errored(self):
        betas = np.arange(8) * math.pi / 8
        p = 0.5 + 0.6 * np.cos(2 * betas)   # exits [0, 1]
        fit = fit_fringe(betas, p)
        assert fit.clipped
        assert fit.visibility > 1.0

    def test_noisy_recovery_smoke(self):
        rng = np.random.default_rng(0)
        betas = np.arange(18) * math.pi / 18
        truth = 0.5 - 0.43 * np.cos(2 * betas)
        hits = 0
        for _ in range(50):
            p = rng.binomial(300, truth) / 300
            fit = fit_fringe(betas, p)
            hits += abs(fit.visibility - 0.86) <= 0.03
        assert hits >= 45


def fit_fringe_lstsq(betas, p):
    """The fringe fit as one np.linalg.lstsq call on a design built per call:
    the reference for `fit_fringe`."""
    b, p = np.asarray(betas, dtype=float), np.asarray(p, dtype=float)
    design = np.column_stack([np.ones_like(b), np.cos(2 * b), np.sin(2 * b)])
    coef, _, _, sv = np.linalg.lstsq(design, p, rcond=None)
    return coef, float(np.sqrt(np.mean((p - design @ coef) ** 2))), sv


DEGENERATE_MESSAGE = ("degenerate design: beta values do not resolve the fringe"
                      " (all equal mod pi/2)")
RANDOM_GRIDS = st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=4, max_size=24)
UNEVEN_GRIDS = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=24).map(
    lambda steps: (np.cumsum(steps) * math.pi / sum(steps) / 1.001).tolist())
DROPPED_GRIDS = st.integers(6, 24).flatmap(lambda n: st.sets(
    st.integers(0, n - 1), min_size=4, max_size=n).map(
    lambda kept: [k * math.pi / n for k in sorted(kept)]))


class TestFringeSolver:
    @settings(max_examples=300)
    @given(st.one_of(RANDOM_GRIDS, UNEVEN_GRIDS, DROPPED_GRIDS), st.data())
    def test_matches_lstsq_oracle(self, betas, data):
        p = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(betas), max_size=len(betas)))
        coef, rms, sv = fit_fringe_lstsq(betas, p)
        if np.count_nonzero(sv > 1e-9) < 3:
            with pytest.raises(ValueError, match=re.escape(DEGENERATE_MESSAGE)):
                fit_fringe(betas, p)
            return
        assume(sv[-1] / sv[0] > 1e-3)   # the comparison is to 1e-12 absolute
        fit = fit_fringe(betas, p)
        got = [fit.offset, fit.visibility / 2 * math.cos(fit.phase),
               fit.visibility / 2 * math.sin(fit.phase)]
        assert np.max(np.abs(np.array(got) - coef)) <= 1e-12
        assert abs(fit.visibility - 2 * math.hypot(coef[1], coef[2])) <= 1e-12
        assert abs(fit.rms_residual - rms) <= 1e-12

    @pytest.mark.parametrize("good_first", [True, False])
    def test_degenerate_grid_refused_beside_cached_grid_of_its_length(self, good_first):
        good = np.arange(4) * math.pi / 4
        degenerate = np.array([0.3, 0.3 + math.pi / 2, 0.3 + math.pi, 0.3 + 3 * math.pi / 2])
        for _ in range(2):
            if good_first:
                assert fit_fringe(good, [0.1, 0.5, 0.9, 0.5]).visibility > 0.7
            with pytest.raises(ValueError, match=re.escape(DEGENERATE_MESSAGE)):
                fit_fringe(degenerate, np.full(4, 0.5))
            if not good_first:
                assert fit_fringe(good, [0.1, 0.5, 0.9, 0.5]).visibility > 0.7


def conditional_f1_loop(counts, detector):
    """P(F=1 | APDd) and its conditioning events, one record at a time as
    records used to compute them: the exact reference for the row-wise form."""
    d = detector - 1
    denom = counts[d] + counts[2 + d]
    return float(counts[2 + d] / denom), float(denom)


# Scan rows of four cells, zero cells included, with events on both APDs.
SCAN_ROWS = st.lists(
    st.lists(st.one_of(st.just(0.0), st.floats(0.5, 1e6)), min_size=4, max_size=4)
    .filter(lambda c: c[0] + c[2] > 0 and c[1] + c[3] > 0),
    min_size=4, max_size=12)


class TestFringeScans:
    @settings(max_examples=200)
    @given(SCAN_ROWS)
    def test_equals_per_record_conditionals(self, rows):
        p, events = fringe_scans(rows)
        for detector in (1, 2):
            want = [conditional_f1_loop(np.array(c), detector) for c in rows]
            assert p[:, detector - 1].tolist() == [p_k for p_k, _ in want]
            assert events[:, detector - 1].tolist() == [n for _, n in want]

    @pytest.mark.parametrize("detector", [1, 2])
    def test_point_without_events_is_nan(self, detector):
        rows = np.full((5, 4), 10.0)
        rows[3, [detector - 1, detector + 1]] = 0.0
        with np.errstate(all="raise"):
            p, events = fringe_scans(rows)
        d = detector - 1
        assert np.isnan(p[3, d]) and events[3, d] == 0.0
        assert np.count_nonzero(np.isnan(p)) == 1
        assert p[3, 1 - d] == 0.5 and events[3, 1 - d] == 20.0
