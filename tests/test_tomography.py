"""Reconstruction pipeline: correlations, inversion, projection, MLE."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from atomphoton import qmath, tomography
from atomphoton.measurement import (
    ATOM_SX,
    AtomSetting,
    CountRecord,
    Dataset,
    MeasurementSetting,
    PhotonSetting,
    outcome_probabilities,
)
from atomphoton.metrics import fidelity_to_target, negativity, purity
from atomphoton.states import NoiseModel, ideal_ket, ideal_state, werner
from atomphoton.tomography import (
    _CANONICAL_OPERATORS,
    TomographySet,
    _nll_and_grad,
    bootstrap_metrics,
    canonical_settings,
    extract_correlations,
    linear_inversion,
    mle_reconstruct,
    project_physical,
    simulate_tomography,
)


def random_physical_state(rng):
    """Random state generated by normalizing T^dagger T."""
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = t.conj().T @ t
    return a / np.trace(a)


def simplex_projection_oracle(eigenvalues):
    """Brute-force Frobenius-closest point on the probability simplex."""
    x = np.asarray(eigenvalues, dtype=float)

    def cost(lam):
        return np.sum((lam - x) ** 2)

    n = len(x)
    cons = [{"type": "eq", "fun": lambda lam: lam.sum() - 1.0}]
    bounds = [(0.0, None)] * n
    best = None
    for start in (np.full(n, 1.0 / n), np.clip(x, 0, None) / max(np.clip(x, 0, None).sum(), 1e-9)):
        res = minimize(cost, start, method="SLSQP", bounds=bounds, constraints=cons,
                       options={"ftol": 1e-14, "maxiter": 500})
        if best is None or res.fun < best.fun:
            best = res
    return best.x


class TestCanonicalSettings:
    def test_nine_labels(self):
        labels = [s.label for s in canonical_settings()]
        assert labels == ["xx", "xy", "xz", "yx", "yy", "yz", "zx", "zy", "zz"]

    def test_classification_of_simulated_data(self):
        ds = simulate_tomography(ideal_state(), 10, seed=0)
        ts = TomographySet.from_dataset(ds)
        assert sorted(ts.counts) == [(i, j) for i in range(3) for j in range(3)]

    def test_missing_setting_reported_by_name(self):
        ds = simulate_tomography(ideal_state(), 10, seed=0)
        ds.records = [r for r in ds.records if r.setting.label != "yz"]
        with pytest.raises(ValueError, match="missing settings: yz"):
            TomographySet.from_dataset(ds)

    def test_theta_zero_population_setting_counts_flipped(self):
        # theta=0 transfers |+1>, the sigma_z=-1 state; extraction must
        # land on the same correlations as the canonical theta=pi/2 row
        base = simulate_tomography(werner(0.8), 300, seed=4, exact=True)
        swapped = []
        for rec in base.records:
            if rec.setting.label and rec.setting.label.startswith("z"):
                setting = MeasurementSetting(
                    atom=AtomSetting(theta=0.0, phi=0.0),
                    photon=rec.setting.photon,
                )
                counts = rec.counts[[2, 3, 0, 1]]   # F2 <-> F1 roles swap
                swapped.append(CountRecord(setting=setting, counts=counts))
            else:
                swapped.append(rec)
        ds2 = Dataset(records=swapped, metadata=dict(base.metadata))
        c1 = extract_correlations(TomographySet.from_dataset(base))
        c2 = extract_correlations(TomographySet.from_dataset(ds2))
        assert np.allclose(c1.t, c2.t, atol=1e-12)
        assert np.allclose(c1.a, c2.a, atol=1e-12)


class TestExtractCorrelations:
    def test_ideal_exact(self):
        ds = simulate_tomography(ideal_state(), 300, seed=0, exact=True)
        corr = extract_correlations(TomographySet.from_dataset(ds))
        assert np.allclose(corr.t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        assert np.allclose(corr.a, 0.0, atol=1e-12)
        assert np.allclose(corr.b, 0.0, atol=1e-12)

    def test_maximally_mixed_exact(self):
        ds = simulate_tomography(np.eye(4, dtype=complex) / 4, 300, seed=0, exact=True)
        corr = extract_correlations(TomographySet.from_dataset(ds))
        assert np.allclose(corr.t, 0.0, atol=1e-12)
        assert np.allclose(corr.a, 0.0, atol=1e-12)
        assert np.allclose(corr.b, 0.0, atol=1e-12)

    @pytest.mark.parametrize("v", [0.25, 0.86])
    def test_werner_linearity(self, v):
        ds = simulate_tomography(werner(v), 300, seed=0, exact=True)
        corr = extract_correlations(TomographySet.from_dataset(ds))
        assert np.allclose(corr.t, v * np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_entries_bounded(self):
        ds = simulate_tomography(werner(0.9), 200, seed=12)
        corr = extract_correlations(TomographySet.from_dataset(ds))
        assert np.all(np.abs(corr.t) <= 1.0 + 1e-12)
        assert np.all(np.abs(corr.a) <= 1.0 + 1e-12)
        assert np.all(np.abs(corr.b) <= 1.0 + 1e-12)


class TestLinearInversion:
    def test_ideal_round_trip(self):
        ds = simulate_tomography(ideal_state(), 300, seed=0, exact=True)
        rho = linear_inversion(extract_correlations(TomographySet.from_dataset(ds)))
        assert np.max(np.abs(rho - ideal_state())) < 1e-12

    def test_werner_round_trip(self):
        ds = simulate_tomography(werner(0.86), 300, seed=0, exact=True)
        rho = linear_inversion(extract_correlations(TomographySet.from_dataset(ds)))
        assert np.max(np.abs(rho - werner(0.86))) < 1e-12

    def test_random_state_round_trip_family(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            rho = random_physical_state(rng)
            ds = simulate_tomography(rho, 100, seed=0, exact=True)
            back = linear_inversion(extract_correlations(TomographySet.from_dataset(ds)))
            assert np.max(np.abs(back - rho)) < 1e-10

    def test_finite_counts_trace_one_possibly_nonpsd(self):
        # seeded regression: inversion of noisy counts keeps trace 1 and
        # may dip below PSD, which the projection step must handle
        ds = simulate_tomography(ideal_state(), 300,
                                 noise=NoiseModel(depolarizing=0.05), seed=123)
        rho = linear_inversion(extract_correlations(TomographySet.from_dataset(ds)))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        fixed = project_physical(rho)
        assert np.min(np.linalg.eigvalsh(fixed)) >= -1e-12


class TestProjectPhysical:
    def test_idempotent_on_physical(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            rho = random_physical_state(rng)
            assert np.max(np.abs(project_physical(rho) - rho)) < 1e-12

    def test_frozen_diagonal_example(self):
        rho = np.diag([1.1, 0.2, -0.1, -0.2]).astype(complex)
        out = project_physical(rho)
        assert np.allclose(np.diag(out).real, [0.95, 0.05, 0.0, 0.0], atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            eigs = rng.normal(0.25, 0.35, size=4)
            eigs += (1.0 - eigs.sum()) / 4   # trace 1
            rho = np.diag(eigs).astype(complex)
            out = np.sort(np.diag(project_physical(rho)).real)
            oracle = np.sort(simplex_projection_oracle(eigs))
            assert np.max(np.abs(out - oracle)) < 1e-6

    def test_random_perturbation_sweep(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            rho = random_physical_state(rng)
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (h + h.conj().T) / 2
            h -= np.eye(4) * np.trace(h) / 4   # keep trace 1
            out = project_physical(rho + 0.2 * h)
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-12
            assert abs(np.trace(out).real - 1.0) < 1e-12


class TestMleReconstruct:
    def test_exact_ideal_recovery(self):
        ds = simulate_tomography(ideal_state(), 300, seed=0, exact=True)
        rho, report = mle_reconstruct(TomographySet.from_dataset(ds))
        assert qmath.overlap(ideal_ket(), rho) >= 1 - 1e-6
        assert np.max(np.abs(rho - ideal_state())) < 1e-4
        assert report.converged

    def test_exact_werner_recovery(self):
        ds = simulate_tomography(werner(0.86), 300, seed=0, exact=True)
        rho, report = mle_reconstruct(TomographySet.from_dataset(ds))
        assert np.max(np.abs(rho - werner(0.86))) < 1e-4
        assert report.log_likelihood >= report.init_log_likelihood - 1e-9

    def test_always_physical_on_adversarial_counts(self):
        rng = np.random.default_rng(41)
        for trial in range(5):
            counts = {
                (i, j): rng.integers(0, 40, size=4).astype(float)
                for i in range(3)
                for j in range(3)
            }
            for key in counts:   # make sure no setting is entirely empty
                if counts[key].sum() == 0:
                    counts[key][0] = 1.0
            ts = TomographySet(counts=counts, exact=False)
            rho, _ = mle_reconstruct(ts)
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
            assert abs(np.trace(rho).real - 1.0) < 1e-10

    def test_monotone_improvement_over_init(self):
        ds = simulate_tomography(werner(5 / 6), 300,
                                 noise=NoiseModel(eps01=0.02, eps10=0.05), seed=7)
        ts = TomographySet.from_dataset(ds)
        _, report = mle_reconstruct(ts)
        assert report.log_likelihood >= report.init_log_likelihood - 1e-9

    def test_permutation_invariance(self):
        ds = simulate_tomography(werner(0.8), 200, seed=17)
        rho_a, _ = mle_reconstruct(TomographySet.from_dataset(ds))
        rng = np.random.default_rng(0)
        shuffled = list(ds.records)
        rng.shuffle(shuffled)
        ds_b = Dataset(records=shuffled, metadata=dict(ds.metadata))
        rho_b, _ = mle_reconstruct(TomographySet.from_dataset(ds_b))
        assert np.linalg.norm(rho_a - rho_b) < 1e-8

    def test_zero_cell_prior_reported_on_sampled_data(self):
        ds = simulate_tomography(ideal_state(), 40, seed=3)   # zeros guaranteed
        ts = TomographySet.from_dataset(ds)
        _, report = mle_reconstruct(ts)
        assert "half-count" in report.regularization

    def test_finite_count_band_smoke(self):
        # statistical acceptance lives in the acceptance suite; here a
        # small-seed sanity check with a generous band
        hits = 0
        for seed in range(10):
            ds = simulate_tomography(ideal_state(), 300,
                                     noise=NoiseModel(depolarizing=1 / 6), seed=seed)
            rho, _ = mle_reconstruct(TomographySet.from_dataset(ds))
            f = qmath.overlap(ideal_ket(), rho)
            hits += 0.82 <= f <= 0.93
        assert hits >= 9

    def test_explicit_init_is_respected(self):
        ds = simulate_tomography(werner(0.8), 300, seed=2)
        ts = TomographySet.from_dataset(ds)
        rho_default, _ = mle_reconstruct(ts)
        rho_from_mixed, _ = mle_reconstruct(ts, init=np.eye(4, dtype=complex) / 4)
        assert np.linalg.norm(rho_default - rho_from_mixed) < 1e-3


# Lower-triangular factors with the diagonal kept away from zero, so every
# outcome probability stays far above the 1e-12 clip.
FACTORS = st.tuples(
    st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4),
    st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
).map(lambda parts: np.array(parts[0] + parts[1]))
CELL_COUNTS = st.one_of(st.just(0.0), st.just(0.5), st.integers(1, 500).map(float))


def central_difference_gradient(f, t, h=1e-5):
    return np.array([(f(t + h * e) - f(t - h * e)) / (2 * h) for e in np.eye(len(t))])


class TestMleLikelihood:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(FACTORS, st.lists(CELL_COUNTS, min_size=36, max_size=36)
           .map(np.array).filter(lambda c: c.sum() > 0))
    def test_gradient_matches_central_differences(self, t, counts):
        ops = _CANONICAL_OPERATORS.reshape(36, 16)
        _, grad = _nll_and_grad(t, ops, counts)
        numeric = central_difference_gradient(lambda x: _nll_and_grad(x, ops, counts)[0], t)
        assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(grad)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 60), min_size=4, max_size=4)
                    .filter(lambda c: sum(c) > 0), min_size=9, max_size=9))
    def test_estimate_is_physical_and_no_worse_than_init(self, cells):
        counts = {(i, j): np.array(cells[3 * i + j], dtype=float)
                  for i in range(3) for j in range(3)}
        rho, report = mle_reconstruct(TomographySet(counts=counts, exact=False))
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert report.log_likelihood >= report.init_log_likelihood

    @pytest.mark.parametrize("depolarizing", np.linspace(0.0, 0.5, 11))
    def test_exact_count_fit_reports_converged(self, depolarizing):
        ds = simulate_tomography(ideal_state(), 30, noise=NoiseModel(depolarizing=depolarizing),
                                 seed=0, exact=True)
        _, report = mle_reconstruct(TomographySet.from_dataset(ds))
        assert report.converged

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        monkeypatch.setattr(tomography, "MLE_MAX_ITER", 1)
        ds = simulate_tomography(werner(5 / 6), 300, seed=7)
        _, report = mle_reconstruct(TomographySet.from_dataset(ds))
        assert report.iterations == 1
        assert not report.converged


class TestBootstrap:
    def test_deterministic_and_order_independent(self):
        ds = simulate_tomography(werner(5 / 6), 200, seed=5)
        ts = TomographySet.from_dataset(ds)
        rho, _ = mle_reconstruct(ts)
        a = bootstrap_metrics(rho, ts, n_replicas=8, seed=9)
        b = bootstrap_metrics(rho, ts, n_replicas=8, seed=9)
        assert a == b

    def test_error_bar_scale(self):
        ds = simulate_tomography(werner(5 / 6), 300, seed=6)
        ts = TomographySet.from_dataset(ds)
        rho, _ = mle_reconstruct(ts)
        out = bootstrap_metrics(rho, ts, n_replicas=40, seed=1)
        # fidelity standard error at n=300/setting is near 0.01-0.02
        assert 0.003 < out["fidelity"]["std"] < 0.04
        assert out["fidelity"]["ci95"][0] < out["fidelity"]["mean"] < out["fidelity"]["ci95"][1]

    def test_replicas_are_standalone_refits_on_their_substreams(self):
        ds = simulate_tomography(werner(5 / 6), 200, seed=8)
        ts = TomographySet.from_dataset(ds)
        rho, _ = mle_reconstruct(ts)
        probs = outcome_probabilities(rho, _CANONICAL_OPERATORS)
        keys = sorted(ts.counts)
        values = {"fidelity": [], "negativity": [], "purity": []}
        for k in range(6):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=4, spawn_key=(k,)))
            counts = {key: rng.multinomial(int(round(ts.counts[key].sum())), p).astype(float)
                      for key, p in zip(keys, probs)}
            rho_k, _ = mle_reconstruct(TomographySet(counts=counts, exact=False))
            values["fidelity"].append(fidelity_to_target(rho_k))
            values["negativity"].append(negativity(rho_k))
            values["purity"].append(purity(rho_k))
        expected = {
            name: {
                "mean": float(np.mean(v)),
                "std": float(np.std(v, ddof=1)),
                "ci95": [float(np.percentile(v, 2.5)), float(np.percentile(v, 97.5))],
            }
            for name, v in values.items()
        }
        assert bootstrap_metrics(rho, ts, n_replicas=6, seed=4) == expected

    @pytest.mark.parametrize("n_replicas", [0, -3])
    def test_replica_count_below_one_rejected(self, n_replicas):
        ts = TomographySet.from_dataset(simulate_tomography(werner(5 / 6), 100, seed=2))
        with pytest.raises(ValueError, match="n_replicas"):
            bootstrap_metrics(werner(5 / 6), ts, n_replicas=n_replicas, seed=1)
