"""Reconstruction pipeline: classification, inversion, projection, MLE."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from atomphoton import qmath, tomography
from atomphoton.artifacts import commit
from atomphoton.measurement import (
    ATOM_SX,
    ATOM_SY,
    ATOM_SZ,
    AtomSetting,
    Dataset,
    MeasurementSetting,
    PhotonSetting,
    counts_files,
    outcome_operators,
    outcome_probabilities,
    read_counts_csv,
    record_rngs,
)
from atomphoton.metrics import fidelity_to_target, negativity, purity
from atomphoton.states import NoiseModel, ideal_ket, ideal_state, werner
from atomphoton.tomography import (
    Design,
    TomographySet,
    _fit_stack,
    _gap_bound,
    _gradient,
    _inverted_coefficients,
    _nll,
    _percentile,
    _projection,
    _solve,
    _with_prior,
    bootstrap_metrics,
    canonical_settings,
    linear_inversion,
    mle_reconstruct,
    simulate_tomography,
)


_PAULI_STACK = qmath.PAULI_PRODUCTS.reshape(16, 4, 4)
# The design of the nine canonical settings, in canonical_settings() order:
# the counts of simulate_tomography data fill its rows in record order.
CANONICAL = Design(outcome_operators(canonical_settings()))
A, A_T = CANONICAL.matrix, CANONICAL.matrix_t


def fit_stack(counts, x):
    return _fit_stack(counts, x, CANONICAL)


def linear_inversions(counts):
    """Pauli coefficients of each count row's linear inversion: the start
    `_fit_stack` projects."""
    return _inverted_coefficients(counts, CANONICAL)


def fit_sampled(counts):
    """The fit of sampled count rows from their linear inversions."""
    return fit_stack(_with_prior(counts, False), linear_inversions(counts))


def assert_rows_equal_rows_alone(fn, *stacks):
    """The stack contract: fn on stacks of rows gives, in every output, the
    bytes of each row that fn gives on that row alone (stacks of one). fn
    runs on the whole stacks first, then on each row; returns its output on
    the whole stacks."""
    out = fn(*stacks)
    outs = out if isinstance(out, tuple) else (out,)
    for k in range(len(stacks[0])):
        alone = fn(*(s[k:k + 1] for s in stacks))
        for a, s in zip(alone if isinstance(alone, tuple) else (alone,), outs, strict=True):
            assert a.tobytes() == s[k:k + 1].tobytes()
    return out


def random_physical_state(rng):
    """Random state generated by normalizing T^dagger T."""
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = t.conj().T @ t
    return a / np.trace(a)


def project_one(h):
    """The projection of one Hermitian trace-1 matrix onto physical states."""
    return qmath.states(_projection(qmath.coefficients(np.asarray(h)[None]))[0])[0]


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


def pauli_coefficients(rho):
    """(T, a, b): correlations tr(rho s_i (x) s_j) and the atomic and photonic
    marginals tr(rho s_i (x) I), tr(rho I (x) s_j)."""
    r = np.einsum("mnij,ji->mn", qmath.PAULI_PRODUCTS, rho).real
    return r[1:, 1:], r[1:, 0], r[0, 1:]


def sign_pattern_coefficients(counts):
    """Independent estimator from the eigenvalue signs of each setting's four
    cells: T_ij = (n++ + n-- - n+- - n-+)/N, marginals averaged over the three
    partner settings."""
    t, a, b = np.zeros((3, 3)), np.zeros(3), np.zeros(3)
    for i in range(3):
        for j in range(3):
            c = counts[3 * i + j]
            n = c.sum()
            t[i, j] = (c[0] + c[3] - c[1] - c[2]) / n
            a[i] += (c[0] + c[1] - c[2] - c[3]) / n / 3.0
            b[j] += (c[0] + c[2] - c[1] - c[3]) / n / 3.0
    return t, a, b


def inverted_coefficients(ds):
    return pauli_coefficients(linear_inversion(TomographySet.from_dataset(ds)))


# In these helpers a record is a (setting, counts) pair.

def _records(ds):
    return list(zip(ds.settings, ds.records))


def _dataset(records, metadata=None):
    setting_list, counts = zip(*records)
    return Dataset(setting_list, counts, metadata=metadata or {})


def _variant(rec, atom=None, photon=None, counts=None):
    s, c = rec
    return (MeasurementSetting(atom or s.atom, photon or s.photon),
            c if counts is None else counts)


def _orthogonal_atom(rec):
    """The same record taken with the orthogonal atomic ket transferred
    (theta = 0 for sigma_z, phi + pi otherwise): F2 and F1 trade places, so
    the counts swap with them."""
    a = rec[0].atom
    atom = (AtomSetting(0.0, 0.0) if a == ATOM_SZ
            else AtomSetting(a.theta, a.phi + math.pi))
    return [_variant(rec, atom=atom, counts=rec[1][[2, 3, 0, 1]])]


def _photon_flipped(rec):
    """A linear record taken at beta + pi/2, which exchanges the analyzer's
    ports: APD1 and APD2 trade places, so the counts swap with them. A
    circular record stays as it is."""
    s, c = rec
    if s.photon.circular:
        return [rec]
    return [_variant(rec, photon=PhotonSetting(s.photon.beta + math.pi / 2),
                     counts=c[[1, 0, 3, 2]])]


def _split(rec):
    first = np.floor(rec[1] / 3)
    return [_variant(rec, counts=first), _variant(rec, counts=rec[1] - first)]


# Other angle forms of each canonical record that measure the same outcomes:
# each maps one record to the records that replace it. Every angle stays
# within the 2 pi in magnitude that a counts CSV takes.
EQUIVALENT_FORMS = {
    "phi_minus_2pi": lambda rec: [_variant(rec, atom=AtomSetting(
        rec[0].atom.theta, rec[0].atom.phi - 2 * math.pi))],
    "beta_plus_pi": lambda rec: [_variant(rec, photon=PhotonSetting(
        rec[0].photon.beta + math.pi, rec[0].photon.circular))],
    "orthogonal_atomic_ket": _orthogonal_atom,
    "photon_flipped": _photon_flipped,
    "split": _split,
}


def counts_by_operator(ts, ref):
    """The counts of ts and of ref per outcome operator: each operator of ts
    is matched to one of ref's within 1e-14 per entry, one to one, and ref's
    counts are returned in the order of ts's."""
    ops, ref_ops = ts.design.operators, ref.design.operators
    dist = np.abs(ops[:, None] - ref_ops[None]).max(axis=(2, 3))
    match = dist.argmin(axis=1)
    assert dist[np.arange(len(ops)), match].max() <= 1e-14
    assert sorted(match) == list(range(len(ref_ops)))
    return ts.counts.ravel(), ref.counts.ravel()[match]


def _rounded(ds, digits):
    """The dataset with every angle written to `digits` decimals, as a lab
    file might hold them."""
    def r(x):
        return float(f"{x:.{digits}f}")
    return Dataset([MeasurementSetting(AtomSetting(r(s.atom.theta), r(s.atom.phi)),
                                       PhotonSetting(r(s.photon.beta), s.photon.circular))
                    for s in ds.settings], ds.records, metadata=dict(ds.metadata))


class TestCanonicalSettings:
    def test_classification_of_simulated_data(self):
        ds = simulate_tomography(ideal_state(), 10, seed=0)
        ts = TomographySet.from_dataset(ds)
        # simulated records come in canonical order, one per row
        assert np.array_equal(ts.counts, ds.records)

    def test_design_of_simulated_data_is_the_canonical_one(self):
        """The `tomo --seed 7` data build the design of the nine settings bit
        for bit, its transpose laid out the same way and the same
        pseudo-inverse, so canonical data keep the last bits of their fits."""
        ds = simulate_tomography(ideal_state(), 300, noise=NoiseModel(depolarizing=0.14), seed=7)
        design = TomographySet.from_dataset(ds).design
        expected = np.einsum("kij,mji->km", outcome_operators(canonical_settings()),
                             _PAULI_STACK).real / 4.0
        assert design.matrix.tobytes() == expected.tobytes()
        assert design.matrix_t.flags.c_contiguous
        assert design.matrix_t.tobytes() == expected.T.copy().tobytes()
        assert design.inverse.tobytes() == np.linalg.pinv(expected).tobytes()

    def test_design_matrix_equals_complex_contraction(self):
        """A = qmath.coefficients(E) / 4 equals the complex contraction
        tr(E_k P_m) / 4 bit for bit on random designs: arbitrary angles, every
        third setting circular (the zz-type coefficients need three)."""
        rng = np.random.default_rng(34)
        for _ in range(300):
            settings = [MeasurementSetting(AtomSetting(*rng.uniform(-7.0, 7.0, 2)),
                                           PhotonSetting(rng.uniform(-7.0, 7.0), k % 3 == 0))
                        for k in range(int(rng.integers(12, 20)))]
            ops = outcome_operators(settings)
            expected = np.einsum("kij,mji->km", ops, _PAULI_STACK).real / 4.0
            assert Design(ops).matrix.tobytes() == expected.tobytes()

    def test_missing_setting_reported_by_name(self):
        ds = simulate_tomography(ideal_state(), 10, seed=0)
        ds = _dataset([(s, c) for s, c in _records(ds)   # drop atomic sigma_y, circular photon
                       if not (s.atom == ATOM_SY and s.photon.circular)])
        with pytest.raises(ValueError, match=r"Pauli coefficients yz undetermined \(design rank 15\)"):
            TomographySet.from_dataset(ds)

    @pytest.mark.parametrize("exact", ["false", "true", 1, None])
    def test_exact_that_is_not_a_boolean_refused(self, exact):
        """A metadata `exact` of "false" would read as true: refused by name,
        as a counts sidecar's is."""
        ds = simulate_tomography(ideal_state(), 10, seed=0)
        with pytest.raises(ValueError, match="field 'exact' must be True or False"):
            TomographySet.from_dataset(Dataset(canonical_settings(), ds.records,
                                               metadata={"exact": exact}))

    def test_theta_zero_population_setting_counts_flipped(self):
        # theta=0 transfers |+1>, the sigma_z=-1 state: its records hold the
        # theta=pi/2 counts with F2 and F1 swapped, the set keeps them as
        # recorded, and their outcome operators swap with them
        base = simulate_tomography(werner(0.8), 300, seed=4, exact=True)
        swapped = []
        for setting, counts in _records(base):
            if setting.atom == ATOM_SZ:
                setting = MeasurementSetting(
                    atom=AtomSetting(theta=0.0, phi=0.0),
                    photon=setting.photon,
                )
                counts = counts[[2, 3, 0, 1]]   # F2 <-> F1 roles swap
            swapped.append((setting, counts))
        ds2 = _dataset(swapped, metadata=dict(base.metadata))
        assert np.array_equal(TomographySet.from_dataset(ds2).counts, ds2.records)
        got, want = counts_by_operator(TomographySet.from_dataset(ds2),
                                       TomographySet.from_dataset(base))
        assert np.array_equal(got, want)
        t1, a1, _ = inverted_coefficients(base)
        t2, a2, _ = inverted_coefficients(ds2)
        assert np.allclose(t1, t2, atol=1e-12)
        assert np.allclose(a1, a2, atol=1e-12)

    @pytest.mark.parametrize("form", sorted(EQUIVALENT_FORMS))
    def test_equivalent_forms_give_identical_counts(self, form):
        """Each outcome operator carries the same count in either form, and
        the fit lands on the same state; a split record sums back to the
        whole bit for bit, so its fit is the whole record's, bit for bit."""
        base = simulate_tomography(werner(0.8), 300, seed=4)
        records = [r for rec in _records(base) for r in EQUIVALENT_FORMS[form](rec)]
        assert len(records) == (18 if form == "split" else 9)
        ts, ref = TomographySet.from_dataset(_dataset(records)), TomographySet.from_dataset(base)
        got, want = counts_by_operator(ts, ref)
        assert np.array_equal(got, want)
        (rho, report), (rho_ref, report_ref) = mle_reconstruct(ts), mle_reconstruct(ref)
        assert report.converged and report_ref.converged
        if form == "split":
            assert np.array_equal(ts.counts, ref.counts)
            assert rho.tobytes() == rho_ref.tobytes() and report == report_ref
        assert np.max(np.abs(linear_inversion(ts) - linear_inversion(ref))) <= 1e-12
        assert np.max(np.abs(rho - rho_ref)) <= 1e-8

    @pytest.mark.parametrize("angle", ["theta", "phi", "beta"])
    def test_setting_off_by_a_microradian_rejected(self, tmp_path, angle):
        """A counts CSV takes angles of at most 2 pi in magnitude, which refuses
        a file written in degrees: a setting a microradian beyond the bound is
        rejected, naming the file, the row and the field, and one on it is read."""
        ds = simulate_tomography(werner(0.8), 50, seed=1)
        a, p = ds.settings[4].atom, ds.settings[4].photon
        for turn in (2 * math.pi, -2 * math.pi - 1e-6):
            ds.settings[4] = MeasurementSetting(*{
                "theta": (AtomSetting(turn, a.phi), p),
                "phi": (AtomSetting(a.theta, turn), p),
                "beta": (a, PhotonSetting(beta=turn)),
            }[angle])
            path = tmp_path / "turn.counts.csv"
            commit(counts_files(ds, path))
            if turn == 2 * math.pi:
                assert read_counts_csv(path).settings == ds.settings
                continue
            with pytest.raises(ValueError) as exc:
                read_counts_csv(path)
            assert str(exc.value).startswith(f"{path}: row 5: field '{angle}' is -6.28318")
            assert str(exc.value).endswith("angles are radians")

    def test_six_digit_angles_fit_as_the_exact_ones(self):
        """The `tomo --seed 7` counts with every angle rounded to 6 digits
        (pi/4 -> 0.785398), as a lab file may hold them: the fit converges in
        the same 8 iterations, within 1.4e-7 per entry of the exact-angle fit."""
        ds = simulate_tomography(ideal_state(), 300, noise=NoiseModel(depolarizing=0.14), seed=7)
        rho, report = mle_reconstruct(TomographySet.from_dataset(ds))
        rho6, report6 = mle_reconstruct(TomographySet.from_dataset(_rounded(ds, 6)))
        assert report6.converged and report6.iterations == report.iterations == 8
        assert np.max(np.abs(rho6 - rho)) <= 1.4e-7

    def test_duplicates_summed_into_their_first_record(self):
        """Records at bitwise-equal operators are summed into the first of
        them; the set keeps the order in which settings first appear."""
        recs = _records(simulate_tomography(werner(0.8), 100, seed=3))
        half = np.floor(recs[4][1] / 2)
        records = ([_variant(recs[4], counts=half)] + recs[:4] + recs[5:]
                   + [_variant(recs[4], counts=recs[4][1] - half)])
        ts = TomographySet.from_dataset(_dataset(records))
        order = [4, 0, 1, 2, 3, 5, 6, 7, 8]
        assert np.array_equal(ts.counts, np.array([recs[k][1] for k in order]))
        assert np.array_equal(ts.design.operators.reshape(9, 4, 4, 4),
                              CANONICAL.operators.reshape(9, 4, 4, 4)[order])

    @pytest.mark.parametrize("repeats, rows", [
        ([0], "setting 1 (rows 1 and 10 summed)"),
        ([4, 4], "setting 5 (rows 5, 10 and 11 summed)"),
    ])
    def test_refused_sum_names_its_rows(self, repeats, rows):
        """Records each within 2**53 whose sum at one setting is beyond it are
        refused under the rows summed, numbered from 1 in record order."""
        settings = canonical_settings()
        records = ([(s, [2.0**52, 1, 1, 1]) for s in settings]
                   + [(settings[k], [2.0**52 + 2, 0, 0, 0]) for k in repeats])
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{rows}: counts must be four finite non-negative cells of at most 2**53") + "$"):
            TomographySet.from_dataset(_dataset(records))

    def test_counts_shape_checked(self):
        with pytest.raises(ValueError, match=r"shape \(9, 4\)"):
            TomographySet(np.ones((8, 4)), CANONICAL)

    @pytest.mark.parametrize("exact", ["false", "true", 1, None])
    def test_constructor_refuses_exact_that_is_not_a_boolean(self, exact):
        """The constructor is the one gate on the fit mode: `exact="false"`
        once fit without the half-count prior, as if counts were expected values."""
        with pytest.raises(ValueError, match=f"^field 'exact' must be True or False, "
                                             f"got {re.escape(repr(exact))}$"):
            TomographySet(np.ones((9, 4)), CANONICAL, exact=exact)


# A tomography dataset with one fringe-scan point (atomic sigma_x, a linear
# analyzer angle strictly between the canonical 0 and pi/4).
SCAN_BETAS = st.floats(0.01, math.pi / 4 - 0.01)


class TestNonCanonicalRecords:
    @settings(max_examples=25)
    @given(SCAN_BETAS, st.integers(2, 8))
    def test_scan_point_in_tomography_csv_rejected(self, tmp_path_factory, beta, position):
        """A scan point in place of canonical record `position` past xx and xy
        measures only coefficients that the other records measure too, so the
        replaced setting's coefficient is left undetermined and named."""
        ds = simulate_tomography(werner(0.8), 50, seed=1)
        records = _records(ds)
        records[position] = (MeasurementSetting(atom=ATOM_SX, photon=PhotonSetting(beta=beta)),
                             [10.0, 20.0, 15.0, 5.0])
        path = tmp_path_factory.mktemp("mixed") / "mixed.counts.csv"
        commit(counts_files(_dataset(records), path))
        label = "xyz"[position // 3] + "xyz"[position % 3]
        with pytest.raises(ValueError, match=rf"Pauli coefficients {label} undetermined"):
            TomographySet.from_dataset(read_counts_csv(path))

    @settings(max_examples=25)
    @given(SCAN_BETAS, st.integers(0, 9))
    def test_scan_point_added_to_tomography_csv_joins_the_fit(self, tmp_path_factory, beta,
                                                               position):
        """A scan point added to the nine settings is one more row of the
        design: the fit uses it and stays physical."""
        ds = simulate_tomography(werner(0.8), 50, seed=1)
        records = _records(ds)
        records.insert(position, (MeasurementSetting(atom=ATOM_SX, photon=PhotonSetting(beta=beta)),
                                  [10.0, 20.0, 15.0, 5.0]))
        path = tmp_path_factory.mktemp("mixed") / "mixed.counts.csv"
        commit(counts_files(_dataset(records), path))
        ts = TomographySet.from_dataset(read_counts_csv(path))
        assert ts.counts.shape == (10, 4) and np.array_equal(ts.counts[position], [10, 20, 15, 5])
        rho, report = mle_reconstruct(ts)
        assert report.converged and report.log_likelihood >= report.init_log_likelihood
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10

    @pytest.mark.parametrize("angle", ["theta", "phi", "beta"])
    def test_nan_angle_rejected(self, angle):
        ds = simulate_tomography(werner(0.8), 50, seed=1)
        a, p = ds.settings[0].atom, ds.settings[0].photon
        setting = {
            "theta": MeasurementSetting(AtomSetting(math.nan, a.phi), p),
            "phi": MeasurementSetting(AtomSetting(a.theta, math.nan), p),
            "beta": MeasurementSetting(a, PhotonSetting(beta=math.nan)),
        }[angle]
        ds = _dataset(_records(ds) + [(setting, [1.0, 2.0, 3.0, 4.0])])
        with pytest.raises(ValueError, match=rf"record 10 \(.*{angle}=nan.*\): angles must be finite"):
            TomographySet.from_dataset(ds)

    def test_circular_photon_with_tilted_atom_rejected(self):
        """One circular-photon record with a tilted atom cannot stand in for
        the three circular-photon settings: it measures a single combination
        of xz and zz, and nothing of yz."""
        ds = simulate_tomography(werner(0.8), 50, seed=1)
        ds = _dataset([r for r in _records(ds) if not r[0].photon.circular] + [(
            MeasurementSetting(atom=AtomSetting(theta=0.3, phi=0.0),
                               photon=PhotonSetting(circular=True)),
            [1.0, 2.0, 3.0, 4.0])])
        with pytest.raises(ValueError, match=r"Pauli coefficients xz, yz, zz undetermined"):
            TomographySet.from_dataset(ds)


# Nine settings of four cells, zero cells included; no setting is empty.
SETTING_COUNTS = st.lists(
    st.lists(st.one_of(st.just(0.0), st.integers(1, 1000).map(float), st.floats(0.0, 1000.0)),
             min_size=4, max_size=4).filter(lambda c: sum(c) > 0),
    min_size=9, max_size=9).map(np.array)


class TestExtractCorrelations:
    """Pauli coefficients of the linear-inversion estimate."""

    def test_ideal_exact(self):
        ds = simulate_tomography(ideal_state(), 300, seed=0, exact=True)
        t, a, b = inverted_coefficients(ds)
        assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        assert np.allclose(a, 0.0, atol=1e-12)
        assert np.allclose(b, 0.0, atol=1e-12)

    def test_maximally_mixed_exact(self):
        ds = simulate_tomography(np.eye(4, dtype=complex) / 4, 300, seed=0, exact=True)
        t, a, b = inverted_coefficients(ds)
        assert np.allclose(t, 0.0, atol=1e-12)
        assert np.allclose(a, 0.0, atol=1e-12)
        assert np.allclose(b, 0.0, atol=1e-12)

    @pytest.mark.parametrize("v", [0.25, 0.86])
    def test_werner_linearity(self, v):
        ds = simulate_tomography(werner(v), 300, seed=0, exact=True)
        t, _, _ = inverted_coefficients(ds)
        assert np.allclose(t, v * np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_entries_bounded(self):
        ds = simulate_tomography(werner(0.9), 200, seed=12)
        t, a, b = inverted_coefficients(ds)
        assert np.all(np.abs(t) <= 1.0 + 1e-12)
        assert np.all(np.abs(a) <= 1.0 + 1e-12)
        assert np.all(np.abs(b) <= 1.0 + 1e-12)

    @settings(max_examples=200)
    @given(SETTING_COUNTS)
    def test_matches_sign_pattern_estimator(self, counts):
        rho = linear_inversion(TomographySet(counts, CANONICAL))
        assert np.max(np.abs(rho - rho.conj().T)) == 0.0
        got = pauli_coefficients(rho)
        for g, want in zip(got, sign_pattern_coefficients(counts)):
            assert np.max(np.abs(g - want)) <= 1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    def test_empty_setting_named(self):
        counts = np.ones((9, 4))
        counts[5] = 0.0
        with pytest.raises(ValueError, match="setting 6 has no counts"):
            linear_inversion(TomographySet(counts, CANONICAL))

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -1.0, 2.0**53 + 2, 1e300])
    def test_bad_cell_named(self, cell):
        """A cell that is not a finite non-negative count of at most 2**53 is
        refused where the set is built, by setting, in the wording of
        `Dataset`: cells of 1e300 once fit as "converged" through an
        overflowing gap bound."""
        counts = np.ones((9, 4))
        counts[2, 1] = cell
        with pytest.raises(ValueError, match=re.escape(
                "setting 3: counts must be four finite non-negative cells of at most 2**53")):
            TomographySet(counts, CANONICAL)

    def test_overflowing_row_named(self):
        """A row whose sum would overflow is refused without summing it."""
        counts = np.ones((9, 4))
        counts[2] = 1.7e308
        with pytest.raises(ValueError, match=r"^setting 3: counts must be .* at most 2\*\*53$"):
            TomographySet(counts, CANONICAL)

    def test_cell_of_2_53_accepted(self):
        counts = np.ones((9, 4))
        counts[2, 1] = 2.0**53
        assert np.array_equal(TomographySet(counts, CANONICAL).counts, counts)


class TestLinearInversion:
    def test_ideal_round_trip(self):
        ds = simulate_tomography(ideal_state(), 300, seed=0, exact=True)
        rho = linear_inversion(TomographySet.from_dataset(ds))
        assert np.max(np.abs(rho - ideal_state())) < 1e-12

    def test_werner_round_trip(self):
        ds = simulate_tomography(werner(0.86), 300, seed=0, exact=True)
        rho = linear_inversion(TomographySet.from_dataset(ds))
        assert np.max(np.abs(rho - werner(0.86))) < 1e-12

    def test_random_state_round_trip_family(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            rho = random_physical_state(rng)
            ds = simulate_tomography(rho, 100, seed=0, exact=True)
            back = linear_inversion(TomographySet.from_dataset(ds))
            assert np.max(np.abs(back - rho)) < 1e-10

    def test_finite_counts_trace_one_possibly_nonpsd(self):
        # seeded regression: inversion of noisy counts keeps trace 1 and
        # may dip below PSD, which the projection step must handle
        ds = simulate_tomography(ideal_state(), 300,
                                 noise=NoiseModel(depolarizing=0.05), seed=123)
        rho = linear_inversion(TomographySet.from_dataset(ds))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        fixed = project_one(rho)
        assert np.min(np.linalg.eigvalsh(fixed)) >= -1e-12


# Hermitian trace-1 matrices sum_{mu nu} r_{mu nu} s_mu (x) s_nu / 4 with
# r_00 = 1, most of them outside the physical set.
TRACE_ONE_MATRICES = st.lists(st.floats(-1.5, 1.5), min_size=15, max_size=15).map(
    lambda r: np.einsum("m,mij->ij", np.array([1.0, *r]),
                        qmath.PAULI_PRODUCTS.reshape(16, 4, 4)) / 4.0)
# Physical states G^dagger G / tr(G^dagger G).
PHYSICAL_STATES = st.lists(st.floats(-2.0, 2.0), min_size=32, max_size=32).map(
    lambda x: (np.array(x[:16]) + 1j * np.array(x[16:])).reshape(4, 4)).map(
    lambda g: g.conj().T @ g).filter(lambda a: np.trace(a).real > 1e-3).map(
    lambda a: a / np.trace(a).real)


class TestProjectPhysical:
    """The projection onto physical states (`_projection`) of each gradient step."""

    @settings(max_examples=200)
    @given(TRACE_ONE_MATRICES, PHYSICAL_STATES)
    def test_physical_idempotent_and_closest(self, h, sigma):
        out = project_one(h)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-12
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.max(np.abs(project_one(out) - out)) <= 1e-12
        assert np.linalg.norm(out - h) <= np.linalg.norm(sigma - h) + 1e-12

    def test_idempotent_on_physical(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            rho = random_physical_state(rng)
            assert np.max(np.abs(project_one(rho) - rho)) < 1e-12

    def test_frozen_diagonal_example(self):
        rho = np.diag([1.1, 0.2, -0.1, -0.2]).astype(complex)
        out = project_one(rho)
        assert np.allclose(np.diag(out).real, [0.95, 0.05, 0.0, 0.0], atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            eigs = rng.normal(0.25, 0.35, size=4)
            eigs += (1.0 - eigs.sum()) / 4   # trace 1
            rho = np.diag(eigs).astype(complex)
            out = np.sort(np.diag(project_one(rho)).real)
            oracle = np.sort(simplex_projection_oracle(eigs))
            assert np.max(np.abs(out - oracle)) < 1e-6

    def test_random_perturbation_sweep(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            rho = random_physical_state(rng)
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (h + h.conj().T) / 2
            h -= np.eye(4) * np.trace(h) / 4   # keep trace 1
            out = project_one(rho + 0.2 * h)
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-12
            assert abs(np.trace(out).real - 1.0) < 1e-12


class TestMleReconstruct:
    def test_exact_ideal_recovery(self):
        ds = simulate_tomography(ideal_state(), 300, seed=0, exact=True)
        rho, report = mle_reconstruct(TomographySet.from_dataset(ds))
        assert fidelity_to_target(rho) >= 1 - 1e-6
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
            counts = np.array([rng.integers(0, 40, size=4) for _ in range(9)], dtype=float)
            counts[counts.sum(axis=1) == 0, 0] = 1.0   # no setting entirely empty
            ts = TomographySet(counts, CANONICAL, exact=False)
            rho, _ = mle_reconstruct(ts)
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
            assert abs(np.trace(rho).real - 1.0) < 1e-10

    def test_monotone_improvement_over_init(self):
        ds = simulate_tomography(werner(5 / 6), 300,
                                 noise=NoiseModel(eps01=0.02, eps10=0.05), seed=7)
        ts = TomographySet.from_dataset(ds)
        _, report = mle_reconstruct(ts)
        assert report.log_likelihood >= report.init_log_likelihood - 1e-9

    def test_refused_step_keeps_exact_count_fits_at_or_above_their_start(self):
        """Expected counts of full-rank states: the projected linear inversion
        is already at or next to the optimum, so a gradient step can raise f
        by rounding. The fit refuses such a step, and never reports a
        log-likelihood below its start (34 of these 222 fits would without
        the refusal)."""
        rng = np.random.default_rng(2)
        states = [(werner(v), NoiseModel()) for v in np.linspace(0.3, 0.95, 14)]
        states += [(random_physical_state(rng) / 2 + np.eye(4) / 8,
                    NoiseModel(eps01=0.01 * (k % 5), eps10=0.005 * (k % 3))) for k in range(60)]
        for n in (30, 300, 3000):
            for rho, noise in states:
                ds = simulate_tomography(rho, n, noise=noise, exact=True)
                _, report = mle_reconstruct(TomographySet.from_dataset(ds))
                assert report.log_likelihood >= report.init_log_likelihood

    def test_permutation_invariance(self):
        ds = simulate_tomography(werner(0.8), 200, seed=17)
        rho_a, _ = mle_reconstruct(TomographySet.from_dataset(ds))
        rng = np.random.default_rng(0)
        order = rng.permutation(len(ds.settings))
        ds_b = Dataset([ds.settings[k] for k in order], ds.records[order],
                       metadata=dict(ds.metadata))
        rho_b, _ = mle_reconstruct(TomographySet.from_dataset(ds_b))
        assert np.linalg.norm(rho_a - rho_b) < 1e-8

    def test_zero_cell_prior_reported_on_sampled_data(self):
        for state, n, text in ((ideal_state(), 40, "half-count prior on 6 empty cells"),
                               (werner(0.8), 300, "none")):   # no empty cell
            ds = simulate_tomography(state, n, seed=3)
            assert mle_reconstruct(TomographySet.from_dataset(ds))[1].regularization == text

    def test_finite_count_band_smoke(self):
        # statistical acceptance lives in the acceptance suite; here a
        # small-seed sanity check with a generous band
        hits = 0
        for seed in range(10):
            ds = simulate_tomography(ideal_state(), 300,
                                     noise=NoiseModel(depolarizing=1 / 6), seed=seed)
            rho, _ = mle_reconstruct(TomographySet.from_dataset(ds))
            f = fidelity_to_target(rho)
            hits += 0.82 <= f <= 0.93
        assert hits >= 9

    def test_explicit_init_is_respected(self):
        """The same optimum from the maximally mixed state as from the
        projected linear inversion."""
        ds = simulate_tomography(werner(0.8), 300, seed=2)
        ts = TomographySet.from_dataset(ds)
        rho_default, _ = mle_reconstruct(ts)
        mixed = qmath.coefficients(np.eye(4, dtype=complex)[None] / 4)
        x, f, f0, _, converged = fit_stack(_with_prior(ts.counts[None], False), mixed)
        assert converged[0] and f[0] < f0[0]
        assert np.linalg.norm(rho_default - qmath.states(x)[0]) < 1e-3


# Full-rank states (1/2) sigma + I/8: every outcome probability is at least
# 1/8, far above the 1e-12 clip.
MIXED_STATES = PHYSICAL_STATES.map(lambda s: s / 2 + np.eye(4) / 8)
CELL_COUNTS = st.one_of(st.just(0.0), st.just(0.5), st.integers(1, 500).map(float))
HERMITIAN_DIRECTIONS = st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16).map(
    lambda r: np.einsum("m,mij->ij", np.array(r), qmath.PAULI_PRODUCTS.reshape(16, 4, 4)))


def nll_of_state(counts, rho):
    return _nll(counts[None], qmath.rows(qmath.coefficients(rho[None]), A_T))[0]


class TestMleLikelihood:
    @settings(max_examples=200)
    @given(MIXED_STATES, HERMITIAN_DIRECTIONS,
           st.lists(CELL_COUNTS, min_size=36, max_size=36).map(np.array))
    def test_gradient_matches_central_differences(self, rho, h, counts):
        """The density-matrix gradient -sum_k (n_k/p_k) E_k, and its Pauli
        coefficients that the fit steps along, against central differences
        of the negative log-likelihood."""
        _, w, c = _gradient(counts[None], qmath.coefficients(rho[None]), CANONICAL)
        grad = -np.einsum("k,kij->ij", w[0], CANONICAL.operators)
        step = 1e-6
        numeric = (nll_of_state(counts, rho + step * h)
                   - nll_of_state(counts, rho - step * h)) / (2 * step)
        scale = np.sum(counts) * np.linalg.norm(h) + 1.0
        assert abs(np.trace(grad @ h).real - numeric) <= 1e-7 * scale
        # d rho / d r_m = P_m / 4, so -tr(grad P_m) / 4 is the ascent direction
        ascent = -np.einsum("ij,mji->m", grad, _PAULI_STACK).real / 4.0
        assert np.max(np.abs(c[0] - ascent)) <= 1e-12 * scale

    @settings(max_examples=40)
    @given(st.lists(st.lists(st.integers(0, 60), min_size=4, max_size=4)
                    .filter(lambda c: sum(c) > 0), min_size=9, max_size=9))
    def test_estimate_is_physical_and_no_worse_than_init(self, cells):
        rho, report = mle_reconstruct(TomographySet(cells, CANONICAL, exact=False))
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

    def test_converged_only_when_stop_rule_fires(self, monkeypatch):
        ts = TomographySet.from_dataset(simulate_tomography(werner(5 / 6), 300, seed=7))
        _, report = mle_reconstruct(ts)
        assert report.converged and report.iterations < tomography.MLE_MAX_ITER
        monkeypatch.setattr(tomography, "MLE_STALL_STEPS", 10 ** 9)
        monkeypatch.setattr(tomography, "MLE_MAX_ITER", 200)
        _, capped = mle_reconstruct(ts)
        assert capped.iterations == 200 and not capped.converged
        assert capped.log_likelihood >= report.log_likelihood - 1e-9 * abs(report.log_likelihood)


# ----------------------------------------------------------------------
# Reference fit: L-BFGS-B over the Cholesky factor of rho, the method this
# package used before accelerated projected gradient.
# ----------------------------------------------------------------------

_OFF_ROWS, _OFF_COLS = np.tril_indices(4, -1)


def _factor(t):
    """Lower-triangular T from t: the real diagonal, then (real, imag) pairs
    of the entries below it in row-major order."""
    m = np.diag(t[:4].astype(complex))
    m[_OFF_ROWS, _OFF_COLS] = t[4::2] + 1j * t[5::2]
    return m


def _cholesky_nll_and_grad(t, ops, counts):
    m = _factor(t)
    a = m.conj().T @ m
    s = np.real(np.trace(a))
    p = (ops @ a.T.ravel()).real / s
    clipped = np.maximum(p, 1e-12)
    w = np.where(p > 1e-12, counts, 0.0) / clipped
    tg = m @ (-((w @ ops).reshape(4, 4) - (w @ p) * np.eye(4)) / s)
    grad = np.empty(16)
    grad[:4] = 2.0 * np.real(np.diag(tg))
    grad[4::2] = 2.0 * tg[_OFF_ROWS, _OFF_COLS].real
    grad[5::2] = 2.0 * tg[_OFF_ROWS, _OFF_COLS].imag
    return -float(counts @ np.log(clipped)), grad


def lbfgs_reference_nll(counts, exact=False):
    """Negative log-likelihood that L-BFGS-B reaches from the projected
    linear inversion, with the same half-count prior."""
    n = _with_prior(np.asarray(counts, dtype=float).reshape(1, 9, 4), exact)[0]
    w, u = np.linalg.eigh(project_one(linear_inversion(TomographySet(counts, CANONICAL))))
    a = (u * np.maximum(w, 1e-8)) @ u.conj().T
    a /= np.real(np.trace(a))
    upper = np.flip(np.linalg.cholesky(np.flip(a)))        # a = upper upper^dagger
    lower = upper.conj().T
    t0 = np.concatenate([np.real(np.diag(lower)),
                         np.column_stack([lower[_OFF_ROWS, _OFF_COLS].real,
                                          lower[_OFF_ROWS, _OFF_COLS].imag]).ravel()])
    active = n > 0
    args = (CANONICAL.operators[active].reshape(-1, 16), n[active])
    res = minimize(_cholesky_nll_and_grad, t0, args=args, jac=True, method="L-BFGS-B",
                   options={"maxiter": 5000, "ftol": 1e-10, "gtol": 1e-10})
    return min(float(res.fun), _cholesky_nll_and_grad(t0, *args)[0])


def tomo_seed7():
    """`tomo --seed 7`: the data, its fit and 250 replicas' counts, drawn
    from the per-record substreams keyed (7, k), as the bootstrap drew them
    before it read one stream; kept as fixed data."""
    ts = TomographySet.from_dataset(simulate_tomography(
        ideal_state(), 300, noise=NoiseModel(depolarizing=0.14), seed=7))
    rho, report = mle_reconstruct(ts)
    totals = np.rint(ts.counts.sum(axis=1)).astype(np.int64)
    probs = outcome_probabilities(rho, CANONICAL.operators, NoiseModel())
    draws = np.array([
        np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(k,)))
        .multinomial(totals, probs) for k in range(250)], dtype=float)
    return ts, report, draws


def frozen_datasets():
    """(counts, exact) of sampled, empty-cell and expected-count datasets."""
    out = []
    for seed, (v, n, eps) in enumerate([(0.86, 300, 0.0), (0.95, 100, 0.02), (0.6, 1000, 0.0),
                                        (0.99, 300, 0.05), (0.86, 3000, 0.01), (0.3, 30, 0.0)]):
        noise = NoiseModel(eps01=eps, eps10=eps / 2)
        out.append((simulate_tomography(werner(v), n, noise=noise, seed=seed), False))
    for seed in range(4):                       # empty cells at low counts
        out.append((simulate_tomography(ideal_state(), 20 + 20 * (seed % 2), seed=seed), False))
    # empty cells at 10^6 counts: the half-count cells make the fit crawl, and a
    # stall there is no optimum (the stall rule alone stopped 0.27 above L-BFGS-B)
    out.append((simulate_tomography(ideal_state(), 10**6, seed=1), False))
    rng = np.random.default_rng(5)
    for k in range(4):                          # expected counts
        out.append((simulate_tomography(random_physical_state(rng) / 2 + np.eye(4) / 8, 300,
                                        noise=NoiseModel(eps01=0.01 * k), exact=True), True))
    return [(TomographySet.from_dataset(ds).counts, exact) for ds, exact in out]


def at_or_below(f, reference):
    return f <= reference + 1e-9 * abs(reference)


class TestAgainstLbfgsReference:
    def test_tomo_seed7_fits_at_or_below_reference(self):
        ts, report, draws = tomo_seed7()
        assert report.converged
        assert at_or_below(-report.log_likelihood, lbfgs_reference_nll(ts.counts))
        _, f, _, _, converged = fit_sampled(draws)
        assert converged.all()
        reference = np.array([lbfgs_reference_nll(c) for c in draws])
        assert at_or_below(f, reference).all()

    @pytest.mark.parametrize("k", range(15))
    def test_frozen_dataset_at_or_below_reference(self, k):
        counts, exact = frozen_datasets()[k]
        _, report = mle_reconstruct(TomographySet(counts, CANONICAL, exact=exact))
        assert report.converged
        assert at_or_below(-report.log_likelihood, lbfgs_reference_nll(counts, exact))


    def test_stuck_fit_stops_unconverged(self, monkeypatch):
        """With MLE_GAP_TOL = 0 no bound passes the stop rule's test, so a fit
        that stalls can only leave as stuck: unconverged, well before
        MLE_MAX_ITER, and still at or below L-BFGS-B."""
        monkeypatch.setattr(tomography, "MLE_GAP_TOL", 0.0)
        ts = TomographySet.from_dataset(simulate_tomography(werner(5 / 6), 300, seed=7))
        _, report = mle_reconstruct(ts)
        assert not report.converged and report.iterations < tomography.MLE_MAX_ITER
        assert at_or_below(-report.log_likelihood, lbfgs_reference_nll(ts.counts))

    @pytest.mark.threaded_blas
    def test_high_count_fit_reports_its_bound_truthfully(self):
        """The ideal state at 10^6 counts, seed 2, where the half-count cells
        make the fit crawl: whether it certifies or stalls, `converged` is the
        stop rule's bound test on the returned state, and f is at or below
        L-BFGS-B."""
        ts = TomographySet.from_dataset(simulate_tomography(ideal_state(), 10**6, seed=2))
        _, report = mle_reconstruct(ts)
        assert report.iterations < tomography.MLE_MAX_ITER
        n = _with_prior(ts.counts[None], ts.exact).sum(axis=1)[0]
        f = -report.log_likelihood
        assert report.converged == (report.gap_bound ** 2 <= tomography.MLE_GAP_TOL * n * abs(f))
        assert at_or_below(f, lbfgs_reference_nll(ts.counts))

    @pytest.mark.threaded_blas
    def test_high_count_fit_certifies(self):
        """The same data: the Newton finish on the face of the nearly pure
        optimum certifies the fit, well before MLE_MAX_ITER, at or below
        L-BFGS-B."""
        ts = TomographySet.from_dataset(simulate_tomography(ideal_state(), 10**6, seed=2))
        _, report = mle_reconstruct(ts)
        assert report.converged and report.iterations < 100
        assert at_or_below(-report.log_likelihood, lbfgs_reference_nll(ts.counts))


@pytest.mark.threaded_blas
class TestGapBound:
    def test_bound_covers_excess_over_long_run(self, monkeypatch):
        """Each fit's excess over the lower of two references, L-BFGS-B and a
        fit certified with tolerances a million times tighter, lies between
        rounding and the fit's gap bound."""
        ts, _, draws = tomo_seed7()
        stack = np.concatenate([ts.counts[None], draws[:9]]
                               + [c[None] for c, exact in frozen_datasets() if not exact])
        fits = [mle_reconstruct(TomographySet(c, CANONICAL)) for c in stack]
        lbfgs = np.array([lbfgs_reference_nll(c) for c in stack])
        gap_tol = tomography.MLE_GAP_TOL
        monkeypatch.setattr(tomography, "MLE_GAP_TOL", 1e-18)
        monkeypatch.setattr(tomography, "MLE_REL_TOL", 1e-15)
        _, tight, _, _, converged = fit_sampled(stack)
        assert converged.all()
        best = np.minimum(tight, lbfgs)
        for (_, report), f_best, n in zip(fits, best, _with_prior(stack, False).sum(axis=1)):
            excess = -report.log_likelihood - f_best
            assert -1e-9 * abs(f_best) <= excess <= report.gap_bound
            # a converged fit passed the stop rule's check on its bound
            assert report.converged
            assert report.gap_bound ** 2 <= gap_tol * n * abs(report.log_likelihood)

    def test_high_count_fits_and_replicas_certify(self):
        """The ideal state at 10^6 counts per setting, seeds 0-3: the fit, the
        first 50 rows of bootstrap_metrics' draw, and 50 replicas each from the
        per-record substreams keyed (seed, k), as the bootstrap drew them before
        it read one stream, all certify. So do substream replicas 132 and 154
        of seed 0, which certify only on a widened face, and 178 of seed 1,
        whose full-rank Newton attempt, run past MLE_NEWTON_STEPS, goes flat
        next to the boundary where the gap bound fails and no wider face is
        left."""
        for seed in range(4):
            ts = TomographySet.from_dataset(simulate_tomography(ideal_state(), 10**6, seed=seed))
            rho, report = mle_reconstruct(ts)
            assert report.converged
            probs = outcome_probabilities(rho, CANONICAL.operators, NoiseModel())
            totals = ts.counts.sum(axis=1).astype(np.int64)
            replicas = [*range(50), *{0: (132, 154), 1: (178,)}.get(seed, ())]
            draws = np.concatenate([
                np.random.default_rng(seed).multinomial(totals, probs, size=(50, 9)),
                [rng.multinomial(totals, probs) for rng in record_rngs(seed, replicas)],
            ]).astype(float)
            *_, converged = fit_sampled(draws)
            assert converged.all()

    def test_bound_vanishes_at_exact_optimum(self):
        ds = simulate_tomography(werner(0.8), 300, seed=0, exact=True)
        _, report = mle_reconstruct(TomographySet.from_dataset(ds))
        assert 0.0 <= report.gap_bound <= 1e-9


# ----------------------------------------------------------------------
# The fit's kernels against their definitions: the complex np.einsum
# contractions they replaced, kept here as oracles.
# ----------------------------------------------------------------------


def oracle_weights(counts, p):
    """n_k / p_k with p clipped at 1e-12; clipped cells weigh 0."""
    return np.where(p > 1e-12, counts, 0.0) / np.maximum(p, 1e-12)


def oracle_gap_bound(counts, r):
    """lambda_max(sum_k w_k E_k) - w.p, the sum built from the outcome operators."""
    p = np.einsum("km,rm->rk", A, r)
    w = oracle_weights(counts, p)
    g = np.einsum("rk,kij->rij", w, CANONICAL.operators)
    return np.linalg.eigvalsh(g)[:, -1] - np.einsum("rk,rk->r", w, p)


def oracle_ascent(counts, r):
    """sum_k w_k A_km at the probabilities A r."""
    return np.einsum("rk,km->rm", oracle_weights(counts, np.einsum("km,rm->rk", A, r)), A)


ORACLES = {
    "states": (qmath.states, lambda r: np.einsum("rm,mij->rij", r, _PAULI_STACK / 4.0)),
    "coefficients": (qmath.coefficients,
                     lambda rho: np.einsum("rij,mji->rm", rho, _PAULI_STACK).real),
    "probabilities": (lambda n, r: _gradient(n, r, CANONICAL)[0],
                      lambda n, r: np.einsum("km,rm->rk", A, r)),
    "ascent": (lambda n, r: _gradient(n, r, CANONICAL)[2], oracle_ascent),
    "gap_bound": (lambda n, r: _gap_bound(n, r, CANONICAL), oracle_gap_bound),
}


def kernel_inputs(name, height=250):
    """A stack of inputs for one kernel: Pauli coefficients of random states
    and of non-PSD trace-1 matrices, Hermitian matrices, and count rows with
    empty cells and half-count cells."""
    rng = np.random.default_rng(11)
    states = np.array([random_physical_state(rng) for _ in range(height)])
    r = qmath.coefficients(states) + 0.3 * rng.standard_normal((height, 16)) * (np.arange(16) > 0)
    counts = rng.choice([0.0, 0.5, 3.0, 40.0, 300.0], size=(height, 36))
    mixed = qmath.coefficients(states / 2 + np.eye(4) / 8)
    return {
        "states": (r,),
        "coefficients": (qmath.states(r) + 1e-3 * qmath.states(rng.standard_normal((height, 16))),),
        "probabilities": (counts, r),
        "ascent": (counts, mixed),
        "gap_bound": (counts, mixed),
    }[name]


class TestKernels:
    @pytest.mark.parametrize("name", ORACLES)
    def test_matches_oracle(self, name):
        kernel, oracle = ORACLES[name]
        args = kernel_inputs(name)
        got, want = kernel(*args), oracle(*args)
        assert got.shape == want.shape
        scale = np.max(np.abs(want))
        if name == "gap_bound":
            # lambda_max(G) and w.p are both of the order of N = sum_k n_k
            scale = np.sum(args[0], axis=1)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_states_exactly_hermitian(self):
        rho = qmath.states(kernel_inputs("states")[0])
        assert np.array_equal(rho, rho.conj().transpose(0, 2, 1))

    @pytest.mark.threaded_blas
    @pytest.mark.parametrize("height", [1, 2, 7, 250])
    @pytest.mark.parametrize("name", ORACLES)
    def test_rows_equal_rows_alone(self, name, height):
        kernel, _ = ORACLES[name]
        assert_rows_equal_rows_alone(kernel, *kernel_inputs(name, height))

    @pytest.mark.parametrize("kind", ["sampled", "half-count", "exact"])
    def test_gap_bound_is_lambda_max_minus_n(self, kind):
        """The bound through the Pauli basis, G = 4 qmath.states(c), equals
        lambda_max(sum_k w_k E_k) - w.p at the fit's start and at its end."""
        ds = {
            "sampled": simulate_tomography(werner(0.86), 300, seed=7),
            "half-count": simulate_tomography(ideal_state(), 20, seed=1),
            # expected counts of the ideal state: empty cells, whose terms drop out
            "exact": simulate_tomography(ideal_state(), 300, exact=True),
        }[kind]
        ts = TomographySet.from_dataset(ds)
        counts = _with_prior(ts.counts[None], ts.exact)
        assert (kind == "half-count") == bool(np.any(counts == 0.5))
        assert (kind == "exact") == bool(np.any(counts == 0.0))
        start = qmath.coefficients(project_one(linear_inversion(ts))[None])
        end, *_ = fit_stack(counts, linear_inversions(ts.counts[None]))
        for r in (start, end):
            n = counts.sum()
            bound = _gap_bound(counts, r, CANONICAL)[0]
            assert abs(bound - oracle_gap_bound(counts, r)[0]) <= 1e-13 * n


def test_singular_row_leaves_the_stack_solvable():
    """`_solve` gives a row whose matrix is exactly singular NaN, where
    np.linalg.solve fails the whole stack, and every other row the solution
    it has alone."""
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((5, 17, 17)), rng.standard_normal((5, 17, 1))
    a[2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b)
    out = _solve(a, b)
    assert np.isnan(out[2]).all()
    for k in (0, 1, 3, 4):
        assert out[k].tobytes() == np.linalg.solve(a[k:k + 1], b[k:k + 1])[0].tobytes()


class TestBootstrap:
    @settings(max_examples=300)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=400),
           st.sampled_from([2.5, 97.5, 0.0, 50.0, 100.0]))
    def test_percentile_matches_numpy_bit_for_bit(self, values, q):
        assert _percentile(sorted(values), q) == float(np.percentile(values, q))

    @pytest.mark.threaded_blas
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

    @pytest.mark.threaded_blas
    def test_replicas_are_standalone_refits_of_one_draw(self, monkeypatch):
        """The replicas are the rows, in order, of one multinomial draw from
        default_rng(seed), the first R replicas of an (R + 3)-replica
        bootstrap are the R-replica draw, and the metrics are those of each
        row's standalone refit."""
        ds = simulate_tomography(werner(5 / 6), 200, seed=8)
        ts = TomographySet.from_dataset(ds)
        rho, _ = mle_reconstruct(ts)
        probs = outcome_probabilities(rho, CANONICAL.operators, NoiseModel())
        totals = ts.counts.sum(axis=1).astype(np.int64)
        drawn = []
        inverted = tomography._inverted_coefficients

        def spy(counts, design):
            drawn.append(counts)
            return inverted(counts, design)

        monkeypatch.setattr(tomography, "_inverted_coefficients", spy)
        out = bootstrap_metrics(rho, ts, n_replicas=6, seed=4)
        bootstrap_metrics(rho, ts, n_replicas=9, seed=4)
        monkeypatch.undo()
        draw = np.random.default_rng(4).multinomial(totals, probs, size=(6, 9))
        assert len(drawn) == 2 and drawn[0].shape == (6, 9, 4) and drawn[1].shape == (9, 9, 4)
        assert np.array_equal(drawn[0], draw) and np.array_equal(drawn[1][:6], draw)
        values = {"fidelity": [], "negativity": [], "purity": []}
        for counts in draw:
            rho_k, _ = mle_reconstruct(TomographySet(counts, CANONICAL, exact=False))
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
        assert out == expected

    @pytest.mark.threaded_blas
    def test_stack_rows_equal_standalone_fits(self):
        """Rows that stop at different iterations leave the stack at
        different times; each still equals its fit alone, bit for bit. The
        `tomo --seed 7` replicas end at 6-13 iterations; the sampled frozen
        datasets and the ideal state at 10^6 counts spread the exits to 5-40."""
        _, _, draws = tomo_seed7()
        high = [TomographySet.from_dataset(simulate_tomography(ideal_state(), 10**6, seed=s)).counts
                for s in range(4)]
        stack = np.concatenate([draws, [c for c, exact in frozen_datasets() if not exact], high])
        _, _, _, iterations, _ = assert_rows_equal_rows_alone(fit_sampled, stack)
        assert len(set(iterations)) > 10

    @pytest.mark.threaded_blas
    def test_mixed_faces_stack_rows_equal_rows_alone(self, monkeypatch):
        """A stack whose rows finish on faces of rank 3 and of rank 4, with a
        row whose first Newton finish fails and hands back to projected
        gradient (the ideal state at 10^6 counts, seed 0): each row still
        equals its fit alone, bit for bit."""
        _, _, draws = tomo_seed7()
        high = TomographySet.from_dataset(simulate_tomography(ideal_state(), 10**6, seed=0))
        stack = np.concatenate([draws[:20]] + [c[None] for c, exact in frozen_datasets()
                                               if not exact] + [high.counts[None]])
        finishes = []     # per row alone: (rank, certified) of each Newton finish
        face_newton = tomography._face_newton

        def spy(n, x, f, rank, *args):
            out = face_newton(n, x, f, rank, *args)
            finishes[-1].extend(zip(rank.tolist(), out[3].tolist()))
            return out

        monkeypatch.setattr(tomography, "_face_newton", spy)
        alone = []
        for k in range(len(stack)):
            finishes.append([])
            alone.append(fit_sampled(stack[k:k + 1]))
        assert {3, 4} <= {rank for row in finishes for rank, ok in row if ok}
        certified = [ok for _, ok in finishes[-1]]
        assert not certified[0] and certified[-1]
        x, f, _, iterations, converged = fit_sampled(stack)
        for k, (xk, fk, _, ik, ck) in enumerate(alone):
            assert np.array_equal(xk[0], x[k]) and fk[0] == f[k]
            assert ik[0] == iterations[k] and ck[0] == converged[k]

    @pytest.mark.threaded_blas
    def test_failed_line_search_rows_equal_rows_alone(self, monkeypatch):
        """With _MIN_DAMPING = 1 a Newton step that misses the Armijo decrease
        at full length fails its line search at once, which hands the row
        back to projected gradient. On 20 replicas of the ideal state at 10^6
        counts, drawn from the per-record substreams keyed (0, k) as the
        bootstrap drew them before it read one stream, the rows still certify,
        end at or below their start, and equal their fits alone bit for bit."""
        monkeypatch.setattr(tomography, "_MIN_DAMPING", 1.0)
        ts = TomographySet.from_dataset(simulate_tomography(ideal_state(), 10**6, seed=0))
        rho, _ = mle_reconstruct(ts)
        probs = outcome_probabilities(rho, CANONICAL.operators, NoiseModel())
        totals = ts.counts.sum(axis=1).astype(np.int64)
        draws = np.array([rng.multinomial(totals, probs) for rng in record_rngs(0, range(20))],
                         dtype=float)
        failed = []   # per fit: the line searches that failed
        damped_step = tomography._damped_step

        def spy(*args):
            out = damped_step(*args)
            failed[-1] += int(out[4].sum())
            return out

        def fit(counts):
            failed.append(0)
            return fit_sampled(counts)

        monkeypatch.setattr(tomography, "_damped_step", spy)
        _, f, f0, _, converged = assert_rows_equal_rows_alone(fit, draws)
        assert failed[0] > 0   # the precondition: searches of the stack's fit failed
        assert converged.all() and (f <= f0).all()

    @pytest.mark.threaded_blas
    def test_stacked_metrics_equal_rows_alone(self):
        """Each metric of an (R, 4, 4) stack equals, bit for bit, the metric of
        each row alone, as a stack of one and as one 4x4 state, and the
        per-state formulas the metrics replaced, kept here as the reference."""
        _, _, draws = tomo_seed7()
        x, *_ = fit_sampled(draws)
        rhos = qmath.states(x)
        psi = ideal_ket()

        def reference_negativity(rho):
            eig = np.sort(np.linalg.eigvalsh(
                rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)))
            return float(-eig[eig < 0].sum())

        reference = {
            fidelity_to_target: lambda rho: float(np.real(psi.conj() @ rho @ psi)),
            negativity: reference_negativity,
            purity: lambda rho: float(np.real(np.trace(rho @ rho))),
        }
        for fn, ref in reference.items():
            stack = assert_rows_equal_rows_alone(fn, rhos)
            assert stack.shape == (250,)
            alone = [fn(rho) for rho in rhos]
            assert all(type(v) is np.float64 for v in alone)
            assert np.array(alone).tobytes() == stack.tobytes()
            assert np.array([ref(rho) for rho in rhos]).tobytes() == stack.tobytes()

    @pytest.fixture
    def ts(self):
        """The data the input-refusal tests would resample."""
        return TomographySet.from_dataset(simulate_tomography(werner(5 / 6), 100, seed=2))

    @pytest.mark.parametrize("n_replicas", [0, -3])
    def test_replica_count_below_one_rejected(self, ts, n_replicas):
        with pytest.raises(ValueError, match="n_replicas"):
            bootstrap_metrics(werner(5 / 6), ts, n_replicas=n_replicas, seed=1)

    @pytest.mark.parametrize("bad, defect", [
        (np.diag([0.7, -0.1, 0.2, 0.2]), "not PSD"),
        (2 * ideal_state(), "trace is 2"),
        (ideal_state() + np.diag([0, np.nan, 0, 0]), "non-finite"),
    ], ids=["not PSD", "trace is 2", "non-finite"])
    def test_non_state_refused_by_defect(self, ts, bad, defect):
        """The resampling state passes the density-matrix gate: a trace-1
        matrix with a negative eigenvalue, twice the ideal state and a NaN
        entry are each refused by name, not clipped into rows or drawn from."""
        with pytest.raises(ValueError, match=defect):
            bootstrap_metrics(bad, ts, n_replicas=8, seed=1)

    @pytest.mark.parametrize("seed, defect", [
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be at least 0, got -1"),
    ], ids=["float", "string", "bool", "negative"])
    @pytest.mark.parametrize("draw", ["simulate_tomography", "bootstrap_metrics"])
    def test_seed_refused_by_name(self, ts, draw, seed, defect):
        """A seed that is not an integer >= 0 is refused by name, not truncated
        (1.5 would draw seed 1's records), parsed ("3") or left to numpy."""
        with pytest.raises(ValueError, match=re.escape(defect)):
            if draw == "simulate_tomography":
                simulate_tomography(ideal_state(), 10, seed=seed)
            else:
                bootstrap_metrics(werner(5 / 6), ts, n_replicas=8, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        """A numpy integer seed is the same seed, and the metadata hold it as an int."""
        ds = simulate_tomography(ideal_state(), 10, seed=np.int64(3))
        assert type(ds.metadata["seed"]) is int
        assert np.array_equal(ds.records, simulate_tomography(ideal_state(), 10, seed=3).records)

    @pytest.mark.parametrize("n_replicas", [2.5, 250.0, "8"])
    def test_non_integer_replica_count_rejected(self, ts, n_replicas):
        with pytest.raises(ValueError, match="n_replicas must be an integer"):
            bootstrap_metrics(werner(5 / 6), ts, n_replicas=n_replicas, seed=1)

    def test_one_replica_rejected(self, ts):
        """One replica has no sample spread: refused, not reported as std 0."""
        with pytest.raises(ValueError, match="n_replicas must be at least 2, got 1"):
            bootstrap_metrics(werner(5 / 6), ts, n_replicas=1, seed=1)
