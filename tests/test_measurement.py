"""Outcome operators, joint probabilities, readout confusion, sampling, scans, CSV."""

import csv
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atomphoton import qmath
from atomphoton.measurement import (
    ATOM_SX,
    ATOM_SY,
    ATOM_SZ,
    PHOTON_SZ,
    AtomSetting,
    Dataset,
    MeasurementSetting,
    PhotonSetting,
    outcome_operators,
    outcome_probabilities,
    read_counts_csv,
    record_rngs,
    simulate_settings,
    write_counts_csv,
)
from atomphoton.metrics import fit_fringe, fringe_scans
from atomphoton.states import NoiseModel, apply_noise, ideal_state, werner
from atomphoton.tomography import simulate_tomography

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SETTING_GRID = [
    MeasurementSetting(AtomSetting(theta=th, phi=ph), PhotonSetting(beta=b))
    for th in (0.0, math.pi / 6, math.pi / 4, math.pi / 2)
    for ph in (0.0, math.pi / 3, math.pi / 2)
    for b in (0.0, 0.2, math.pi / 4, 1.1)
]


def simulate_scan(rho, atom, betas, n_per_point, noise=None, seed=0, exact=False):
    """Correlation-fringe scan: one record per analyzer angle beta."""
    settings = [MeasurementSetting(atom, PhotonSetting(beta=float(b))) for b in betas]
    return simulate_settings(rho, settings, n_per_point, noise=noise, seed=seed, exact=exact)


def joint_probabilities(rho, setting):
    """Exact outcome probabilities tr(rho Pi_a (x) Pi_d) of one setting, in outcome order."""
    return outcome_probabilities(rho, outcome_operators([setting]), NoiseModel())[0]


def scan_fits(ds):
    """{detector: fringe fit} of a simulated scan."""
    betas = [s.photon.beta for s in ds.settings]
    p, _ = fringe_scans(ds.records)
    return {d + 1: fit_fringe(betas, p[:, d]) for d in range(2)}


def ket_reference(setting):
    """(atomic, APD1 photon) kets of one setting, built one setting at a time:
    the reference for the kets `outcome_operators` builds for all at once."""
    atom, photon = setting.atom, setting.photon
    a = np.array([math.sin(atom.theta), np.exp(1j * atom.phi) * math.cos(atom.theta)],
                 dtype=complex)
    if photon.circular:
        d = np.array([1, 0], dtype=complex)   # |sigma+>
    else:
        d = np.array([1.0, np.exp(2j * photon.beta)], dtype=complex) / math.sqrt(2)
    return a, d


def projector_pairs(setting):
    """[(transferred, remained), (APD1, APD2)] projector pairs of one setting."""
    return [(p, I2 - p) for p in (np.outer(k, k.conj()) for k in ket_reference(setting))]


def atom_blocks(setting):
    """The two sums Pi_a (x) (Pi_APD1 + Pi_APD2) = Pi_a (x) I, one per atomic outcome."""
    return outcome_operators([setting]).reshape(2, 2, 4, 4).sum(axis=1)


def detector_blocks(setting):
    """The two sums (Pi_F2 + Pi_F1) (x) Pi_d = I (x) Pi_d, one per detector."""
    return outcome_operators([setting]).reshape(2, 2, 4, 4).sum(axis=0)


def photon_at(**kwargs):
    return MeasurementSetting(ATOM_SX, PhotonSetting(**kwargs))


def atom_at(atom):
    return MeasurementSetting(atom, PhotonSetting())


class TestPhotonProjectors:
    """The detector blocks I (x) Pi_d of `outcome_operators`."""

    def test_beta_zero_linear_basis(self):
        p1, p2 = detector_blocks(photon_at(beta=0.0))
        plus = np.array([1, 1]) / math.sqrt(2)
        minus = np.array([1, -1]) / math.sqrt(2)
        assert np.allclose(p1, np.kron(I2, np.outer(plus, plus.conj())), atol=1e-15)
        assert np.allclose(p2, np.kron(I2, np.outer(minus, minus.conj())), atol=1e-15)

    def test_beta_quarter_circular_superposition(self):
        p1, p2 = detector_blocks(photon_at(beta=math.pi / 4))
        plus = np.array([1, 1j]) / math.sqrt(2)
        minus = np.array([1, -1j]) / math.sqrt(2)
        assert np.allclose(p1, np.kron(I2, np.outer(plus, plus.conj())), atol=1e-15)
        assert np.allclose(p2, np.kron(I2, np.outer(minus, minus.conj())), atol=1e-15)

    def test_circular_mode(self):
        p1, p2 = detector_blocks(photon_at(circular=True))
        assert np.allclose(p1, np.kron(I2, np.diag([1, 0])))
        assert np.allclose(p2, np.kron(I2, np.diag([0, 1])))

    @pytest.mark.parametrize("beta", np.linspace(0, math.pi, 9))
    def test_complete_and_orthogonal(self, beta):
        p1, p2 = detector_blocks(photon_at(beta=beta))
        assert np.max(np.abs(p1 + p2 - I4)) < 1e-15
        assert np.max(np.abs(p1 @ p2)) < 1e-15
        assert np.max(np.abs(p1 @ p1 - p1)) < 1e-14


class TestAtomProjectors:
    """The atomic blocks Pi_a (x) I of `outcome_operators`."""

    def test_full_transfer_projects_m_minus(self):
        for phi in (0.0, 1.0, math.pi):
            p_t, p_r = atom_blocks(atom_at(AtomSetting(theta=math.pi / 2, phi=phi)))
            assert np.allclose(p_t, np.kron(np.diag([1, 0]), I2), atol=1e-15)
            assert np.allclose(p_r, np.kron(np.diag([0, 1]), I2), atol=1e-15)

    def test_sigma_x_eigenprojectors(self):
        p_t, p_r = atom_blocks(atom_at(ATOM_SX))
        assert np.allclose(p_t, np.kron((I2 + qmath.SIGMA_X) / 2, I2), atol=1e-15)
        assert np.allclose(p_r, np.kron((I2 - qmath.SIGMA_X) / 2, I2), atol=1e-15)

    def test_sigma_y_eigenprojectors(self):
        p_t, p_r = atom_blocks(atom_at(ATOM_SY))
        assert np.allclose(p_t, np.kron((I2 + qmath.SIGMA_Y) / 2, I2), atol=1e-15)
        assert np.allclose(p_r, np.kron((I2 - qmath.SIGMA_Y) / 2, I2), atol=1e-15)

    @pytest.mark.parametrize("setting", SETTING_GRID[:12])
    def test_complete_and_orthogonal(self, setting):
        p_t, p_r = atom_blocks(setting)
        assert np.max(np.abs(p_t + p_r - I4)) < 1e-15
        assert np.max(np.abs(p_t @ p_r)) < 1e-14

    def test_global_phase_invariance(self):
        # theta + pi and theta - pi flip the sign of the whole atomic ket
        base = outcome_operators([atom_at(AtomSetting(theta=0.9, phi=0.4))])
        for theta in (0.9 + math.pi, 0.9 - math.pi):
            rotated = outcome_operators([atom_at(AtomSetting(theta=theta, phi=0.4))])
            assert np.allclose(rotated, base, atol=1e-15)


class TestJointProbabilities:
    def test_maximally_mixed_flat(self):
        for setting in SETTING_GRID[:6]:
            p = joint_probabilities(I4 / 4, setting)
            assert np.allclose(p, 0.25, atol=1e-12)

    def test_ideal_sigma_x_fringe_closed_form(self):
        # cross-check the closed form on a brute-force beta grid
        for beta in np.linspace(0, math.pi, 17):
            p = joint_probabilities(ideal_state(),
                                    MeasurementSetting(ATOM_SX, PhotonSetting(beta=beta)))
            assert abs(p.sum() - 1.0) < 1e-12
            cond = p[2] / (p[0] + p[2])
            assert abs(cond - (1 - math.cos(2 * beta)) / 2) < 1e-12

    def test_ideal_fringe_visibility_one(self):
        betas = np.linspace(0, math.pi, 25)
        cond = [
            (lambda p: p[2] / (p[0] + p[2]))(
                joint_probabilities(ideal_state(),
                                    MeasurementSetting(ATOM_SX, PhotonSetting(beta=b))))
            for b in betas
        ]
        assert abs((max(cond) - min(cond)) - 1.0) < 1e-9

    def test_werner_fringe_peak_to_peak(self):
        betas = np.linspace(0, math.pi, 25)
        cond = [
            (lambda p: p[2] / (p[0] + p[2]))(
                joint_probabilities(werner(0.86),
                                    MeasurementSetting(ATOM_SX, PhotonSetting(beta=b))))
            for b in betas
        ]
        assert abs((max(cond) - min(cond)) - 0.86) < 1e-9

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        for setting in SETTING_GRID[:8]:
            p = joint_probabilities(rho, setting)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_detector_phase_opposition(self):
        # P(F=1 | APD1, beta) equals P(F=1 | APD2, beta + pi/2) for the ideal state
        for beta in np.linspace(0, math.pi, 9):
            p_a = joint_probabilities(ideal_state(),
                                      MeasurementSetting(ATOM_SX, PhotonSetting(beta=beta)))
            p_b = joint_probabilities(
                ideal_state(),
                MeasurementSetting(ATOM_SX, PhotonSetting(beta=beta + math.pi / 2)))
            c1 = p_a[2] / (p_a[0] + p_a[2])
            c2 = p_b[3] / (p_b[1] + p_b[3])
            assert abs(c1 - c2) < 1e-12

    def test_fringe_period_pi(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        for beta in np.linspace(0, math.pi, 7):
            p1 = joint_probabilities(rho, MeasurementSetting(ATOM_SX, PhotonSetting(beta=beta)))
            p2 = joint_probabilities(
                rho, MeasurementSetting(ATOM_SX, PhotonSetting(beta=beta + math.pi)))
            assert np.max(np.abs(p1 - p2)) < 1e-12

    def test_unphysical_state_rejected(self):
        # a state enters simulation through simulate_settings, which checks it
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            simulate_settings(bad, SETTING_GRID[:1], 10, noise=NoiseModel(depolarizing=0.1))
        with pytest.raises(ValueError, match="not PSD"):
            simulate_tomography(bad, 10, exact=True)

    @pytest.mark.parametrize("rho, message", [
        (np.eye(2) / 2, r"expected a 4x4 density matrix, got shape \(2, 2\)"),
        (np.eye(8) / 8, r"expected a 4x4 density matrix, got shape \(8, 8\)"),
        (np.diag([np.nan, 1, 0, 0]), "non-finite entries"),
        (np.eye(4) / 4 + np.diag([0.1] * 3, k=1), r"not Hermitian \(max deviation 1.000e-01"),
        (np.eye(4) / 2, r"trace is 2, expected 1"),
        (np.diag([1.2, -0.2, 0.0, 0.0]), r"not PSD \(min eigenvalue -2.000e-01\)"),
    ], ids=["2x2", "8x8", "nan", "non-hermitian", "trace", "non-psd"])
    def test_state_gate_names_the_fault(self, rho, message):
        with pytest.raises(ValueError, match=message):
            simulate_settings(rho, SETTING_GRID[:1], 10)


ORACLE_TOL = 1e-12
ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
SETTINGS = st.builds(
    lambda th, ph, b, circ: MeasurementSetting(AtomSetting(theta=th, phi=ph),
                                               PhotonSetting(beta=b, circular=circ)),
    ANGLES, ANGLES, ANGLES, st.booleans(),
)


def _state(entries):
    g = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
    rho = g @ g.conj().T + 1e-3 * I4
    return rho / np.trace(rho).real


STATES = st.lists(st.floats(-1, 1), min_size=32, max_size=32).map(_state)


def oracle_cells(rho, setting):
    """tr(rho Pi_a (x) Pi_d), one cell at a time, in outcome order."""
    atom, photon = projector_pairs(setting)
    return [np.trace(rho @ np.kron(a, d)).real for a in atom for d in photon]


def kron_loop_operators(setting_list):
    """Kets, projector pairs and four np.kron calls per setting, the way the
    stack used to be built: the bit-exact reference for its batched kets and
    one broadcast product."""
    ops = [np.kron(a, d) for s in setting_list for a, d in itertools.product(*projector_pairs(s))]
    return np.array(ops, dtype=complex).reshape(-1, 4, 4)


class TestOutcomeOperators:
    @settings(max_examples=200)
    @given(STATES, st.lists(SETTINGS, min_size=1, max_size=5))
    def test_matches_per_cell_oracle(self, rho, setting_list):
        ops = outcome_operators(setting_list)
        assert ops.shape == (4 * len(setting_list), 4, 4)
        want = np.array([oracle_cells(rho, s) for s in setting_list])
        got = outcome_probabilities(rho, ops, NoiseModel())
        assert np.max(np.abs(got - want)) <= ORACLE_TOL
        for s, row in zip(setting_list, want):
            assert np.max(np.abs(joint_probabilities(rho, s) - row)) <= ORACLE_TOL

    @settings(max_examples=200)
    @given(st.lists(SETTINGS, max_size=6))
    def test_bit_identical_to_kron_loop(self, setting_list):
        got = outcome_operators(setting_list + SETTING_GRID)
        want = kron_loop_operators(setting_list + SETTING_GRID)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()   # signed zeros included

    @pytest.mark.parametrize("setting", SETTING_GRID + [photon_at(circular=True)])
    def test_four_operators_complete_and_orthogonal(self, setting):
        ops = outcome_operators([setting])
        assert np.max(np.abs(ops.sum(axis=0) - I4)) < 1e-15
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.max(np.abs(ops[i] @ ops[j])) < 1e-14

    def test_empty_setting_list(self):
        assert outcome_operators([]).shape == (0, 4, 4)

    @pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused_by_name(self, angle, exact):
        """Simulation reads its settings through outcome_operators, which
        names a non-finite angle before any probability is formed."""
        settings = [photon_at(), MeasurementSetting(AtomSetting(theta=angle), PhotonSetting())]
        with pytest.raises(ValueError,
                           match=rf"^record 2 \(.*theta={angle}.*\): angles must be finite$"):
            simulate_settings(ideal_state(), settings, 10, exact=exact)


def old_loop_confusion(p, eps01, eps10):
    """The per-row loop that readout confusion used to be, kept as the
    bit-exact reference for the one map over all rows."""
    out = np.empty(4)
    for d in range(2):
        f2, f1 = p[d], p[2 + d]
        out[d] = (1 - eps01) * f2 + eps10 * f1
        out[2 + d] = eps01 * f2 + (1 - eps10) * f1
    return out


def oracle_noisy_cells(rho, setting, noise):
    """Every cell on its own: channels written out on rho, then
    P(reported a, d) = sum over true a' of P(a | a') tr(rho' Pi_a' (x) Pi_d)."""
    p, q = noise.depolarizing, noise.dephasing
    zi = np.kron(qmath.SIGMA_Z, I2)
    rho = (1 - p) * rho + p * I4 / 4
    rho = (1 - q) * rho + q * zi @ rho @ zi
    raw = np.reshape(oracle_cells(rho, setting), (2, 2))   # [true atom, detector]
    report = np.array([[1 - noise.eps01, noise.eps10],     # [reported, true]
                       [noise.eps01, 1 - noise.eps10]])
    return [sum(report[a, t] * raw[t, d] for t in range(2)) for a in range(2) for d in range(2)]


UNIT = st.floats(0.0, 1.0)
NOISE = st.builds(NoiseModel, UNIT, UNIT, UNIT, UNIT)


def reference_rows(rho, ops):
    """tr(rho Pi) over the operators, clipped at 0, then normalized per row:
    written out, the bit-exact reference for the rows before confusion."""
    p = np.clip(np.einsum("kij,ji->k", ops, rho).real, 0.0, None).reshape(-1, 4)
    return p / p.sum(axis=1, keepdims=True)


class TestReadoutConfusion:
    """Readout confusion through `outcome_probabilities`, the one place the
    noise model meets the outcome rows."""

    @settings(max_examples=200)
    @given(STATES, st.lists(SETTINGS, min_size=1, max_size=5), NOISE)
    def test_matches_per_cell_oracle_and_old_loop(self, rho, setting_list, noise):
        ops = outcome_operators(setting_list)
        got = outcome_probabilities(rho, ops, noise)
        want = np.array([oracle_noisy_cells(rho, s, noise) for s in setting_list])
        assert got.shape == (len(setting_list), 4)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL
        rows = reference_rows(apply_noise(rho, noise), ops)
        old = np.array([old_loop_confusion(p, noise.eps01, noise.eps10) for p in rows])
        assert np.array_equal(got, old)

    @settings(max_examples=200)
    @given(STATES)
    def test_identity(self, rho):
        """The default model leaves the written-out rows as they are, value
        for value, on random states and on werner(0.7)."""
        ops = outcome_operators(SETTING_GRID)
        for state in (rho, werner(0.7)):
            assert np.array_equal(outcome_probabilities(state, ops, NoiseModel()),
                                  reference_rows(state, ops))

    def test_full_scrambling(self):
        ops = outcome_operators(SETTING_GRID)
        for rho in (werner(0.86), np.diag([1, 0, 0, 0]).astype(complex)):
            out = outcome_probabilities(rho, ops, NoiseModel(eps01=0.5, eps10=0.5))
            assert np.max(np.abs(out[:, :2].sum(axis=1) - 0.5)) < 1e-12
            assert np.max(np.abs(out[:, 2:].sum(axis=1) - 0.5)) < 1e-12

    @pytest.mark.parametrize("eps", [0.02, 0.1])
    def test_symmetric_confusion_scales_visibility(self, eps):
        # fringe of visibility V -> (1-2 eps) V, checked numerically
        v = 0.86
        betas = np.linspace(0, math.pi, 19)
        ops = outcome_operators([MeasurementSetting(ATOM_SX, PhotonSetting(beta=b))
                                 for b in betas])
        pc = outcome_probabilities(werner(v), ops, NoiseModel(eps01=eps, eps10=eps))
        cond = pc[:, 2] / (pc[:, 0] + pc[:, 2])
        got = max(cond) - min(cond)
        assert abs(got - (1 - 2 * eps) * v) < 1e-9

    def test_preserves_probability_vector(self):
        ops = outcome_operators(SETTING_GRID)
        out = outcome_probabilities(werner(0.6), ops, NoiseModel(eps01=0.13, eps10=0.27))
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(out >= 0)

    @pytest.mark.parametrize("bad, message", [
        (np.diag([1.5, -0.5, 0.0, 0.0]), "matrix is not PSD (min eigenvalue -5.000e-01)"),
        (np.diag([0.25] * 4) + np.triu(np.full((4, 4), 0.1), 1), "matrix is not Hermitian"),
    ], ids=["not_psd", "not_hermitian"])
    def test_refuses_a_matrix_that_is_not_a_state(self, bad, message):
        """The clip at zero would turn a non-PSD matrix into rows that look
        like probabilities; the density-matrix gate refuses it first."""
        bad = bad.astype(complex)
        with pytest.raises(ValueError) as gate:
            qmath.check_density_matrix(bad)
        assert str(gate.value).startswith(message)
        with pytest.raises(ValueError) as refused:
            outcome_probabilities(bad, outcome_operators(SETTING_GRID), NoiseModel(eps01=0.1))
        assert str(refused.value) == str(gate.value)


class TestDataset:
    SETTINGS = [MeasurementSetting(ATOM_SX, PhotonSetting(beta=b)) for b in (0.0, 0.4, 0.8)]

    def test_records_become_one_float_array(self):
        ds = Dataset(self.SETTINGS, [[1, 2, 3, 4], [0, 0, 0, 1], [5, 5, 5, 5]])
        assert ds.records.dtype == float and ds.records.shape == (3, 4)

    @pytest.mark.parametrize("records", [np.ones((2, 4)), np.ones((3, 3)), np.ones(12)])
    def test_shape_must_match_settings(self, records):
        with pytest.raises(ValueError, match=r"records must have shape \(3, 4\)"):
            Dataset(self.SETTINGS, records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one record"):
            Dataset([], np.zeros((0, 4)))

    @pytest.mark.parametrize("cell, message", [
        (math.nan, "counts must be four finite non-negative cells"),
        (math.inf, "counts must be four finite non-negative cells"),
        (-1.0, "counts must be four finite non-negative cells"),
        (None, "total count must be at least 1"),
    ])
    def test_bad_row_named(self, cell, message):
        records = np.full((3, 4), 10.0)
        records[2] = [0.0, 0.5, 0.25, 0.0]   # a later row that is also bad
        if cell is None:
            records[1] = 0.0
        else:
            records[1, 2] = cell
        with pytest.raises(ValueError, match=rf"^row 2: {message}$"):
            Dataset(self.SETTINGS, records)


class TestSampleCounts:
    """The multinomial draws of simulate_settings."""

    def test_degenerate_distribution(self):
        # |-1> x |sigma+> at (sigma_z, sigma_z) lands on (F2, APD1) every time
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        ds = simulate_settings(rho, [MeasurementSetting(ATOM_SZ, PHOTON_SZ)], 37, seed=0)
        assert np.array_equal(ds.records, [[37, 0, 0, 0]])

    def test_exact_mode(self):
        noise = NoiseModel(depolarizing=0.2, eps01=0.03)
        ds = simulate_settings(ideal_state(), SETTING_GRID, 300, noise=noise, exact=True)
        want = 300 * outcome_probabilities(ideal_state(), outcome_operators(SETTING_GRID), noise)
        assert np.array_equal(ds.records, want)

    def test_deterministic_for_seed(self):
        a = simulate_settings(werner(0.6), SETTING_GRID, 300, seed=42)
        b = simulate_settings(werner(0.6), SETTING_GRID, 300, seed=42)
        assert np.array_equal(a.records, b.records)

    def test_conditional_standard_error_matches_binomial(self):
        # SD over many records of the conditional F=1 frequency vs the
        # binomial prediction at the conditioned sample size
        n = 300
        setting = MeasurementSetting(ATOM_SX, PhotonSetting(beta=0.6))
        p = joint_probabilities(werner(0.86), setting)
        cond_true = p[2] / (p[0] + p[2])
        c = simulate_settings(werner(0.86), [setting] * 1000, n, seed=2024).records
        denom = c[:, 0] + c[:, 2]
        sd = np.std(c[denom > 0, 2] / denom[denom > 0])
        expected = math.sqrt(cond_true * (1 - cond_true) / (n * (p[0] + p[2])))
        assert abs(sd - expected) / expected < 0.20

    def test_mean_within_three_standard_errors(self):
        setting = MeasurementSetting(ATOM_SX, PhotonSetting(beta=0.0))
        p = joint_probabilities(werner(0.4), setting)   # (0.35, 0.15, 0.15, 0.35)
        n = 300
        draws = simulate_settings(werner(0.4), [setting] * 1000, n, seed=77).records
        mean_freq = draws.mean(axis=0) / n
        se = np.sqrt(p * (1 - p) / n / 1000)
        assert np.all(np.abs(mean_freq - p) <= 3 * se)

    def test_invalid_inputs(self):
        for exact in (False, True):
            with pytest.raises(ValueError, match="n_per_setting must be >= 1"):
                simulate_settings(ideal_state(), SETTING_GRID[:1], 0, seed=0, exact=exact)

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf])
    def test_trial_count_it_would_change_refused(self, n):
        """Draws take a finite whole number of trials: 2.5 is not rounded to 2,
        and NaN is refused by name, not inside int()."""
        with pytest.raises(ValueError, match="n_per_setting .* finite whole number, got"):
            simulate_settings(ideal_state(), SETTING_GRID[:1], n, seed=0)

    def test_expected_counts_take_a_fractional_trial_count(self):
        ds = simulate_settings(ideal_state(), SETTING_GRID[:1], 2.5, exact=True)
        assert ds.metadata["n_per_setting"] == 2.5 and abs(ds.records.sum() - 2.5) <= 1e-12
        with pytest.raises(ValueError, match="n_per_setting .* finite number, got nan"):
            simulate_settings(ideal_state(), SETTING_GRID[:1], math.nan, exact=True)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n", [True, np.True_, "10", None], ids=["bool", "numpy-bool", "string", "none"])
    def test_trial_count_that_is_not_a_number_refused_by_name(self, n, exact):
        """A bool is not read as 1 trial per setting, nor a string left to
        numpy's unnamed TypeError."""
        with pytest.raises(ValueError, match=f"n_per_setting must be .*, got {n!r}"):
            simulate_settings(ideal_state(), SETTING_GRID[:1], n, seed=0, exact=exact)

    @pytest.mark.parametrize("n", [np.int64(300), 300.0, np.float64(300.0)],
                             ids=["int64", "float", "float64"])
    def test_whole_trial_count_kept_as_python_int(self, tmp_path, n):
        """A numpy or float whole count lands in the metadata as the int a
        CLI run stores, so the sidecar is written beside its CSV, and the
        same bytes."""
        ds = simulate_settings(ideal_state(), SETTING_GRID, n, seed=3)
        assert type(ds.metadata["n_per_setting"]) is int
        write_counts_csv(ds, tmp_path / "n.counts.csv")
        write_counts_csv(simulate_settings(ideal_state(), SETTING_GRID, 300, seed=3),
                         tmp_path / "int.counts.csv")
        for suffix in (".counts.csv", ".counts.meta.json"):
            assert ((tmp_path / f"n{suffix}").read_bytes()
                    == (tmp_path / f"int{suffix}").read_bytes())


class TestSimulateScan:
    def test_exact_mode_unit_visibility(self):
        betas = [k * math.pi / 12 for k in range(12)]
        ds = simulate_scan(ideal_state(), ATOM_SX, betas, 100, seed=0, exact=True)
        for fit in scan_fits(ds).values():
            assert abs(fit.visibility - 1.0) < 1e-9
            assert fit.rms_residual < 1e-9

    def test_same_seed_bit_identical(self):
        betas = [k * math.pi / 18 for k in range(18)]
        noise = NoiseModel(depolarizing=0.14)
        a = simulate_scan(ideal_state(), ATOM_SX, betas, 300, noise=noise, seed=5)
        b = simulate_scan(ideal_state(), ATOM_SX, betas, 300, noise=noise, seed=5)
        assert np.array_equal(a.records, b.records)

    def test_records_independent_of_evaluation_order(self):
        # substream per (seed, key): record k is the draw from
        # record_rngs(seed, [k]) alone, whether or not the others were generated
        noise = NoiseModel(depolarizing=0.14, dephasing=0.05, eps01=0.02, eps10=0.04)
        grid = SETTING_GRID[::5]
        ds = simulate_settings(werner(0.8), grid, 200, noise=noise, seed=9)
        probs = outcome_probabilities(werner(0.8), outcome_operators(grid), noise)
        for k, p in enumerate(probs):
            rng, = record_rngs(9, [k])
            assert np.array_equal(ds.records[k], rng.multinomial(200, p / p.sum()))

    def test_calibrated_visibility_distribution(self):
        # 18 points at ~300 conditioned events per fringe point; the
        # fitted visibility lands within +-0.03 of 0.86 in >=95% of seeds
        betas = [k * math.pi / 18 for k in range(18)]
        noise = NoiseModel(depolarizing=0.14)
        in_band = {1: 0, 2: 0}
        n_seeds = 200
        for seed in range(n_seeds):
            ds = simulate_scan(ideal_state(), ATOM_SX, betas, 600, noise=noise, seed=seed)
            for detector, fit in scan_fits(ds).items():
                in_band[detector] += abs(fit.visibility - 0.86) <= 0.03
        assert in_band[1] >= 0.95 * n_seeds
        assert in_band[2] >= 0.95 * n_seeds

    def test_empty_betas_rejected(self):
        with pytest.raises(ValueError):
            simulate_scan(ideal_state(), ATOM_SX, [], 100, seed=0)


ANGLES = st.floats(-2 * math.pi, 2 * math.pi)   # what a counts CSV takes
CSV_RECORDS = st.lists(   # (setting, counts) pairs
    st.tuples(
        st.builds(lambda theta, phi, beta, circular: MeasurementSetting(
            AtomSetting(theta=theta, phi=phi), PhotonSetting(beta=beta, circular=circular)),
            ANGLES, ANGLES, ANGLES, st.booleans()),
        st.lists(st.one_of(st.integers(0, 10**6).map(float), st.floats(0.0, 1e6)),
                 min_size=4, max_size=4).filter(lambda c: sum(c) >= 1.0)),
    min_size=1, max_size=12)
SIDECARS = st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
              st.floats(allow_nan=False, allow_infinity=False),
              st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3)),
    max_size=5)


# integer seeds of one to ten 32-bit words, at word boundaries: past four, each
# word adds four hash steps before the key's
SUBSTREAM_SEEDS = [0, 1, 7, 2**31 - 2, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128,
                   2**130 + 5, 2**160 + 1, 2**300 + 11]


class TestSubstreams:
    """The one-pass seeding against numpy's SeedSequence, the oracle."""

    @pytest.mark.parametrize("seed", SUBSTREAM_SEEDS)
    def test_states_equal_seed_sequence(self, seed):
        keys = [*range(300), 2**32 - 1]
        want = [np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)
                for k in keys]
        got = [rng.bit_generator.seed_seq.generate_state(4, np.uint64)
               for rng in record_rngs(seed, keys)]
        assert all(g.dtype == np.uint64 for g in got) and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", SUBSTREAM_SEEDS)
    def test_first_draws_equal_default_rng(self, seed):
        keys = [0, 1, 2, 17, 150, 299, 2**32 - 1]
        for key, rng in zip(keys, record_rngs(seed, keys)):
            for generator in (rng, record_rngs(seed, [key])[0]):   # the batch and one key
                oracle = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
                assert np.array_equal(generator.integers(2**63, size=8),
                                      oracle.integers(2**63, size=8))
                assert np.array_equal(generator.multinomial(300, [0.1, 0.2, 0.3, 0.4], size=4),
                                      oracle.multinomial(300, [0.1, 0.2, 0.3, 0.4], size=4))

    @pytest.mark.parametrize("keys, defect", [
        ([2.5], "key must be an integer, got 2.5"),
        ([2.0], "key must be an integer, got 2.0"),
        (["3"], "key must be an integer, got '3'"),
        ([True], "key must be an integer, got True"),
        ([-1], "key must be at least 0, got -1"),
        ([2**32], "key must be below 2**32, got 4294967296"),
        ([1, 2.5], "key must be an integer, got 2.5"),
    ], ids=["fraction", "whole-float", "string", "bool", "negative", "two-words",
            "after-a-good-one"])
    def test_index_refused_by_name(self, keys, defect):
        """A record index, the substream's key, that is not an integer in
        [0, 2**32) is refused, not truncated: 2.5 would draw from key 2's
        substream, True from key 1's. numpy's SeedSequence refuses such a
        spawn key too."""
        with pytest.raises(ValueError, match=re.escape(defect)):
            record_rngs(0, keys)

    def test_numpy_integer_index_accepted(self):
        assert np.array_equal(record_rngs(3, [np.int64(4)])[0].random(4),
                              record_rngs(3, [4])[0].random(4))

    @pytest.mark.parametrize("keys", [[], range(0)])
    def test_no_keys_no_generators(self, keys):
        assert record_rngs(7, keys) == []


class TestCsvRoundTrip:
    @settings(max_examples=100)
    @given(CSV_RECORDS, SIDECARS)
    def test_write_read_round_trip(self, tmp_path_factory, records, metadata):
        path = tmp_path_factory.mktemp("csv") / "rt.counts.csv"
        setting_list, counts = zip(*records)
        if np.any(np.asarray(counts) % 1.0):   # only expected counts have fractions
            metadata = {**metadata, "exact": True}
        write_counts_csv(Dataset(setting_list, counts, metadata=metadata), path)
        back = read_counts_csv(path)
        assert back.settings == list(setting_list)
        assert np.array_equal(back.records, counts)
        assert back.metadata == metadata

    def test_lossless_round_trip(self, tmp_path):
        betas = [k * math.pi / 18 for k in range(18)]
        noise = NoiseModel(depolarizing=0.14, eps01=0.01, eps10=0.02)
        ds = simulate_scan(ideal_state(), ATOM_SX, betas, 300, noise=noise, seed=3)
        path = tmp_path / "scan.counts.csv"
        write_counts_csv(ds, path)
        back = read_counts_csv(path)
        assert len(back.settings) == len(ds.settings)
        for sa, sb in zip(ds.settings, back.settings):
            assert sa.atom == sb.atom
            assert sa.photon.beta == sb.photon.beta
            assert sa.photon.circular == sb.photon.circular
        assert np.array_equal(ds.records, back.records)
        assert back.metadata["seed"] == 3
        assert back.metadata["noise"] == dataclasses.asdict(noise)

    def test_circular_settings_round_trip(self, tmp_path):
        from atomphoton.tomography import simulate_tomography

        ds = simulate_tomography(ideal_state(), 100, seed=0)
        path = tmp_path / "tomo.counts.csv"
        write_counts_csv(ds, path)
        back = read_counts_csv(path)
        circ = [s.photon.circular for s in back.settings]
        assert sum(circ) == 3   # the three photonic sigma_z settings

    def test_sidecar_fault_writes_nothing(self, tmp_path):
        """Metadata that JSON cannot hold fails before either file is opened:
        no CSV without its sidecar, and a pair already there stays as it was."""
        ds, other = (simulate_tomography(ideal_state(), 10, seed=s) for s in (0, 1))
        bad = Dataset(other.settings, other.records,
                      metadata={**other.metadata, "run": np.int64(3)})
        with pytest.raises(TypeError, match="int64"):
            write_counts_csv(bad, tmp_path / "wc.counts.csv")
        assert list(tmp_path.iterdir()) == []
        write_counts_csv(ds, tmp_path / "wc.counts.csv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["wc.counts.csv", "wc.counts.meta.json"]
        with pytest.raises(TypeError, match="int64"):
            write_counts_csv(bad, tmp_path / "wc.counts.csv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_non_finite_metadata_writes_nothing(self, tmp_path):
        """A NaN in the metadata would write a sidecar that is not JSON: it is
        refused, and neither file lands."""
        ds = simulate_tomography(ideal_state(), 10, seed=0)
        ds.metadata["drift"] = float("nan")
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_counts_csv(ds, tmp_path / "wc.counts.csv")
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_directory_fault_writes_no_csv(self, tmp_path):
        """A sidecar that cannot land (a directory in its place) takes the CSV
        with it: no CSV without its sidecar, and no temporary file."""
        (tmp_path / "wc.counts.meta.json").mkdir()
        with pytest.raises(OSError):
            write_counts_csv(simulate_tomography(ideal_state(), 10, seed=0),
                             tmp_path / "wc.counts.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["wc.counts.meta.json"]

    def test_missing_sidecar_marks_ingested(self, tmp_path):
        ds = simulate_scan(ideal_state(), ATOM_SX, [0.0, 0.4, 0.8, 1.2], 50, seed=1)
        path = tmp_path / "x.counts.csv"
        write_counts_csv(ds, path)
        (tmp_path / "x.counts.meta.json").unlink()
        back = read_counts_csv(path)
        assert back.metadata["mode"] == "ingested"

    def test_exact_counts_round_trip(self, tmp_path):
        ds = simulate_scan(ideal_state(), ATOM_SX, [0.0, 0.3, 0.7, 1.1], 300,
                           noise=NoiseModel(depolarizing=0.14), seed=0, exact=True)
        path = tmp_path / "exact.counts.csv"
        write_counts_csv(ds, path)
        back = read_counts_csv(path)
        assert np.array_equal(ds.records, back.records)


class TestCsvValidation:
    HEADER = "theta,phi,beta,n_f2_apd1,n_f2_apd2,n_f1_apd1,n_f1_apd2,photon_basis\n"
    GOOD = "0.7853981633974483,0,0,10,20,30,40,linear\n"

    def _read_with_row(self, tmp_path, row):
        path = tmp_path / "bad.counts.csv"
        path.write_text(self.HEADER + self.GOOD + row)
        with pytest.raises(ValueError) as exc:
            read_counts_csv(path)
        return str(path), str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_count_rejected(self, tmp_path, value):
        path, msg = self._read_with_row(
            tmp_path, f"0.7853981633974483,0,0,10,20,{value},40,linear\n")
        assert path in msg and "row 2" in msg and "n_f1_apd1" in msg

    def test_non_finite_angle_rejected(self, tmp_path):
        path, msg = self._read_with_row(tmp_path, "0.7853981633974483,nan,0,10,20,30,40,linear\n")
        assert path in msg and "row 2" in msg and "'phi'" in msg

    @pytest.mark.parametrize("field, row", [
        ("theta", "45,0,0,10,20,30,40,linear\n"),
        ("phi", "0.7853981633974483,-90,0,10,20,30,40,linear\n"),
        ("beta", "0.7853981633974483,0,6.2832,10,20,30,40,circular\n"),
    ])
    def test_angle_beyond_a_turn_rejected(self, tmp_path, field, row):
        """Angles are radians: one beyond 2 pi in magnitude, as in a file
        written in degrees, is refused, even where the basis ignores it."""
        path, msg = self._read_with_row(tmp_path, row)
        value = row.split(",")[("theta", "phi", "beta").index(field)]
        assert msg == (f"{path}: row 2: field '{field}' is {value}, beyond 2 pi in magnitude: "
                       "angles are radians")

    @pytest.mark.parametrize("sidecar", [None, "{}", '{"exact": false}', '{"exact": true}'])
    def test_fractional_count_needs_exact_sidecar(self, tmp_path, sidecar):
        """A fractional count is an expected count: read when the sidecar says
        so or is absent, refused, naming file, row and field, when a sidecar
        leaves the data sampled."""
        path = tmp_path / "frac.counts.csv"
        path.write_text(self.HEADER + self.GOOD + "0.7853981633974483,0,0,10,20.5,30,40,linear\n")
        if sidecar is not None:
            (tmp_path / "frac.counts.meta.json").write_text(sidecar)
        if sidecar in (None, '{"exact": true}'):
            assert read_counts_csv(path).records[1, 1] == 20.5
            return
        with pytest.raises(ValueError) as exc:
            read_counts_csv(path)
        assert str(exc.value) == (f"{path}: row 2: field 'n_f2_apd2' is 20.5, not a whole number "
                                  f"of counts, and {tmp_path / 'frac.counts.meta.json'} does not "
                                  'say "exact": true')

    @pytest.mark.parametrize("basis", ["circ", "Circular", ""])
    def test_unknown_photon_basis_rejected(self, tmp_path, basis):
        path, msg = self._read_with_row(
            tmp_path, f"0.7853981633974483,0,0,10,20,30,40,{basis}\n")
        assert path in msg and "row 2" in msg and "photon_basis" in msg

    def test_absent_photon_basis_reads_linear(self, tmp_path):
        path = tmp_path / "old.counts.csv"
        path.write_text(self.HEADER.replace(",photon_basis", "")
                        + self.GOOD.replace(",linear", ""))
        ds = read_counts_csv(path)
        assert not ds.settings[0].photon.circular
        assert np.array_equal(ds.records, [[10, 20, 30, 40]])

    def test_malformed_sidecar_named(self, tmp_path):
        path = tmp_path / "x.counts.csv"
        path.write_text(self.HEADER + self.GOOD)
        (tmp_path / "x.counts.meta.json").write_text("{seed: 1")
        with pytest.raises(ValueError, match=r"x.counts.meta.json: Expecting"):
            read_counts_csv(path)

    def test_byte_order_mark_read(self, tmp_path):
        path = tmp_path / "bom.counts.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (self.HEADER + self.GOOD).encode())
        ds = read_counts_csv(path)
        assert ds.settings[0].atom.theta == math.pi / 4
        assert np.array_equal(ds.records, [[10, 20, 30, 40]])

    def test_byte_order_mark_sidecar_read(self, tmp_path):
        """A sidecar re-saved with a UTF-8 BOM is read, as the CSV is: its
        `"exact": true` admits the fractional count."""
        path = tmp_path / "bom.counts.csv"
        path.write_text(self.HEADER + "0.7853981633974483,0,0,10,20.5,30,40,linear\n")
        (tmp_path / "bom.counts.meta.json").write_bytes(b"\xef\xbb\xbf" + b'{"exact": true}')
        ds = read_counts_csv(path)
        assert ds.metadata == {"exact": True}
        assert ds.records[0, 1] == 20.5

    def test_non_utf8_sidecar_named(self, tmp_path):
        path = tmp_path / "x.counts.csv"
        path.write_text(self.HEADER + self.GOOD)
        (tmp_path / "x.counts.meta.json").write_bytes(b'{"exact": "\xff"}')
        with pytest.raises(ValueError, match=r"x.counts.meta.json: .*can't decode byte 0xff"):
            read_counts_csv(path)

    @pytest.mark.parametrize("row, message", [
        (b"0.78\xff,0,0,10,20,30,40,linear\n", "can't decode byte 0xff"),
        (b"0,0,0,10,20,30,40," + b"x" * 131_073 + b"\n", "field larger than field limit"),
    ], ids=["non-utf8-byte", "oversized-field"])
    def test_unreadable_text_named(self, tmp_path, row, message):
        """Bytes the csv module cannot read as text rows are an error naming the file."""
        path = tmp_path / "bad.counts.csv"
        path.write_bytes((self.HEADER + self.GOOD).encode() + row)
        with pytest.raises(ValueError) as exc:
            read_counts_csv(path)
        assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)

    def test_missing_columns_named(self, tmp_path):
        path = tmp_path / "short.counts.csv"
        path.write_text(self.HEADER.replace("phi,", "").replace(",n_f1_apd2", "")
                        + "0.7853981633974483,0,10,20,30,linear\n")
        with pytest.raises(ValueError, match=r"short.counts.csv: header .*: missing columns "
                                             r"\['phi', 'n_f1_apd2'\], unknown columns \[\]"):
            read_counts_csv(path)

    @pytest.mark.parametrize("extra, unknown", [("note", "['note']"), ("theta", "[]")])
    def test_extra_columns_rejected(self, tmp_path, extra, unknown):
        path = tmp_path / "wide.counts.csv"
        path.write_text(self.HEADER.replace("\n", f",{extra}\n") + self.GOOD.replace("\n", ",1\n"))
        with pytest.raises(ValueError) as exc:
            read_counts_csv(path)
        assert f"wide.counts.csv: header '{self.HEADER.strip()},{extra}'" in str(exc.value)
        assert f"unknown columns {unknown}, each column at most once" in str(exc.value)


FIELDS = ("theta", "phi", "beta", "n_f2_apd1", "n_f2_apd2", "n_f1_apd1", "n_f1_apd2",
          "photon_basis")
GOOD_ROW = ["0.7853981633974483", "0", "0", "10", "20", "30", "40", "linear"]
NOT_NUMBERS = st.one_of(st.sampled_from(["", "nan", "inf", "-inf", "1e999", "0x10", "1..5", "one"]),
                        st.text(alphabet="abcxyz ;:-_", max_size=6))


def _corrupt(row, kind, col, token):
    """One malformed row: a field that is not a finite number, a negative or
    all-zero count, an unknown basis, or a missing or extra field."""
    row = list(row)
    if kind == "number":
        row[col % 7] = token
    elif kind == "negative":
        row[3 + col % 4] = "-1"
    elif kind == "zero":
        row[3:7] = ["0"] * 4
    elif kind == "basis":
        row[7] = token if token not in ("linear", "circular") else "circ"
    elif kind == "short":
        del row[col % 8]
    else:
        row.append(token or "1")
    return row


class TestCsvFuzz:
    @settings(max_examples=200)
    @given(st.integers(1, 6), st.data(),
           st.sampled_from(["number", "negative", "zero", "basis", "short", "long"]),
           st.integers(0, 7), NOT_NUMBERS)
    def test_every_error_names_file_and_row(self, tmp_path_factory, n_rows, data, kind, col,
                                            token):
        bad = data.draw(st.integers(1, n_rows))
        rows = [GOOD_ROW] * n_rows
        rows[bad - 1] = _corrupt(GOOD_ROW, kind, col, token)
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.counts.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(FIELDS)
            writer.writerows(rows)
        with pytest.raises(ValueError) as exc:
            read_counts_csv(path)
        assert str(path) in str(exc.value) and f"row {bad}:" in str(exc.value)
