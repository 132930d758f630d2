"""State preparation from decay channels and the noise channels."""

import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from atomphoton import qmath
from atomphoton.measurement import (
    ATOM_SX,
    MeasurementSetting,
    PhotonSetting,
    outcome_operators,
    outcome_probabilities,
)
from atomphoton.metrics import fidelity_to_target, negativity
from atomphoton.states import NoiseModel, apply_noise, ideal_ket, ideal_state, werner

I4 = np.eye(4, dtype=complex)


# The ideal state derived from the decay branches of F'=0 -> F=1: an oracle
# for ideal_state.

@dataclass(frozen=True)
class DecayChannel:
    """One spontaneous-decay branch of the F'=0 -> F=1 transition."""

    m_f: int                 # final Zeeman sublevel, -1 / 0 / +1
    polarization: str        # "sigma+", "pi" or "sigma-"
    amplitude: complex       # Clebsch-Gordan weight
    collected: bool          # photon reaches the analyzer

    def __post_init__(self):
        if self.m_f not in (-1, 0, 1):
            raise ValueError(f"m_f must be -1, 0 or +1, got {self.m_f}")
        if self.polarization not in ("sigma+", "pi", "sigma-"):
            raise ValueError(f"unknown polarization {self.polarization!r}")
        if (self.polarization == "pi") == self.collected:
            raise ValueError("collected must be False exactly for pi light")


def standard_decay_channels():
    """The three decay branches with equal-weight amplitudes.

    Relative phase between the collected branches is +1; with these
    amplitudes :func:`state_from_channels` reproduces the ideal state.
    """
    return [
        DecayChannel(m_f=-1, polarization="sigma+", amplitude=1 / math.sqrt(3.0), collected=True),
        DecayChannel(m_f=0, polarization="pi", amplitude=1 / math.sqrt(3.0), collected=False),
        DecayChannel(m_f=+1, polarization="sigma-", amplitude=1 / math.sqrt(3.0), collected=True),
    ]


# basis kets: atom (|mF=-1>, |mF=+1>), photon (|sigma+>, |sigma->)
_ATOM_KETS = {-1: np.array([1, 0], dtype=complex), +1: np.array([0, 1], dtype=complex)}
_PHOTON_KETS = {"sigma+": np.array([1, 0], dtype=complex),
                "sigma-": np.array([0, 1], dtype=complex)}


def state_from_channels(channels):
    """Coherent superposition over the collected decay branches.

    The joint ket sums amplitude * |m_f> (x) |polarization> over channels
    with collected=True and is then renormalized. All channels
    uncollected means no photon ever reaches the analyzer.
    """
    total = sum(abs(c.amplitude) ** 2 for c in channels)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"squared channel amplitudes sum to {total:.12g}, expected 1")
    psi = np.zeros(4, dtype=complex)
    any_collected = False
    for c in channels:
        if not c.collected:
            continue
        any_collected = True
        psi += c.amplitude * np.kron(_ATOM_KETS[c.m_f], _PHOTON_KETS[c.polarization])
    if not any_collected:
        raise ValueError("no collected channel: no photon reaches the analyzer")
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def exact_fringe_visibility(rho, atom=ATOM_SX, n_beta=12):
    """Peak-to-peak of the exact conditional P(F=1 | APD1) over a beta grid."""
    betas = np.arange(n_beta) * math.pi / n_beta
    ops = outcome_operators([MeasurementSetting(atom, PhotonSetting(beta=b)) for b in betas])
    p = outcome_probabilities(rho, ops, NoiseModel())
    cond = p[:, 2] / (p[:, 0] + p[:, 2])
    return cond.max() - cond.min()


class TestIdealState:
    def test_amplitudes_in_fixed_basis(self):
        # literal basis order: (|-1,s+>, |-1,s->, |+1,s+>, |+1,s->)
        psi = ideal_ket()
        assert np.allclose(psi, np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert np.allclose(ideal_state(), np.outer(psi, psi.conj()))

    def test_pure_and_normalized(self):
        rho = ideal_state()
        assert abs(np.trace(rho) - 1) < 1e-12
        assert abs(np.trace(rho @ rho) - 1) < 1e-12

    def test_self_overlap(self):
        assert abs(fidelity_to_target(ideal_state()) - 1) < 1e-12

    def test_negativity_half(self):
        assert abs(negativity(ideal_state()) - 0.5) < 1e-12


class TestDecayChannels:
    def test_standard_set_reproduces_ideal(self):
        rho = state_from_channels(standard_decay_channels())
        assert np.max(np.abs(rho - ideal_state())) < 1e-12

    def test_channel_invariants(self):
        chans = standard_decay_channels()
        assert len(chans) == 3
        assert abs(sum(abs(c.amplitude) ** 2 for c in chans) - 1) < 1e-12
        for c in chans:
            assert c.collected == (c.polarization != "pi")

    def test_single_branch_product_state(self):
        chans = [
            DecayChannel(m_f=-1, polarization="sigma+", amplitude=0.0, collected=True),
            DecayChannel(m_f=0, polarization="pi", amplitude=0.0, collected=False),
            DecayChannel(m_f=+1, polarization="sigma-", amplitude=1.0, collected=True),
        ]
        rho = state_from_channels(chans)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0   # |+1,sigma-><+1,sigma-|
        assert np.allclose(rho, expected, atol=1e-12)

    def test_opposite_phase_orthogonal_to_target(self):
        s = 1 / math.sqrt(2)
        chans = [
            DecayChannel(m_f=-1, polarization="sigma+", amplitude=s, collected=True),
            DecayChannel(m_f=+1, polarization="sigma-", amplitude=s * np.exp(1j * math.pi),
                         collected=True),
        ]
        rho = state_from_channels(chans)
        assert abs(fidelity_to_target(rho)) < 1e-12

    def test_all_uncollected_rejected(self):
        chans = [DecayChannel(m_f=0, polarization="pi", amplitude=1.0, collected=False)]
        with pytest.raises(ValueError, match="no collected channel"):
            state_from_channels(chans)

    def test_unnormalized_amplitudes_rejected(self):
        chans = [DecayChannel(m_f=-1, polarization="sigma+", amplitude=0.5, collected=True)]
        with pytest.raises(ValueError):
            state_from_channels(chans)

    def test_pi_collected_flag_rejected(self):
        with pytest.raises(ValueError):
            DecayChannel(m_f=0, polarization="pi", amplitude=1.0, collected=True)


class TestApplyNoise:
    def test_identity_channel(self):
        out = apply_noise(ideal_state(), NoiseModel())
        assert np.max(np.abs(out - ideal_state())) < 1e-15

    def test_depolarizing_gives_werner(self):
        out = apply_noise(ideal_state(), NoiseModel(depolarizing=0.14))
        assert np.max(np.abs(out - werner(0.86))) < 1e-12
        assert abs(exact_fringe_visibility(out) - 0.86) < 1e-9

    def test_dephasing_visibilities(self):
        # closed form: <si (x) si> on the dephased state
        out = apply_noise(ideal_state(), NoiseModel(dephasing=0.05))
        corr = {
            name: np.real(np.trace(out @ np.kron(s, s)))
            for name, s in zip("xyz", qmath.PAULIS)
        }
        assert abs(corr["x"] - 0.90) < 1e-12
        assert abs(corr["y"] + 0.90) < 1e-12
        assert abs(corr["z"] - 1.0) < 1e-12
        assert abs(exact_fringe_visibility(out) - 0.90) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_physical_on_parameter_grid(self, p, q):
        out = apply_noise(ideal_state(), NoiseModel(depolarizing=p, dephasing=q))
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.86])
    def test_visibility_is_one_minus_p(self, p):
        out = apply_noise(ideal_state(), NoiseModel(depolarizing=p))
        assert abs(exact_fringe_visibility(out) - (1 - p)) < 1e-9

    def test_unphysical_input_rejected(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            apply_noise(bad, NoiseModel())


class TestWerner:
    def test_limit_cases(self):
        assert np.allclose(werner(1.0), ideal_state(), atol=1e-15)
        assert np.allclose(werner(0.0), I4 / 4, atol=1e-15)

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.86, 1.0])
    def test_fidelity_formula(self, v):
        assert abs(fidelity_to_target(werner(v)) - (3 * v + 1) / 4) < 1e-12

    @pytest.mark.parametrize("v,expected", [(0.86, 0.395), (0.844, 0.383)])
    def test_negativity_formula(self, v, expected):
        neg = negativity(werner(v))
        assert abs(neg - max(0.0, (3 * v - 1) / 4)) < 1e-12
        assert abs(neg - expected) < 1e-9

    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_marginals_maximally_mixed(self, v):
        r = werner(v).reshape(2, 2, 2, 2)
        for marginal in (np.einsum("ikjk->ij", r), np.einsum("kikj->ij", r)):   # atom, photon
            assert np.allclose(marginal, np.eye(2) / 2, atol=1e-12)

    def test_out_of_range_rejected(self):
        for v in (-0.1, 1.1):
            with pytest.raises(ValueError):
                werner(v)


class TestNoiseModel:
    def test_parameter_validation(self):
        for kwargs in ({"depolarizing": -0.1}, {"dephasing": 1.5},
                       {"eps01": 2.0}, {"eps10": -1.0}):
            with pytest.raises(ValueError):
                NoiseModel(**kwargs)

    def test_dict_round_trip(self):
        noise = NoiseModel(depolarizing=0.14, dephasing=0.02, eps01=0.01, eps10=0.03)
        assert NoiseModel(**asdict(noise)) == noise
