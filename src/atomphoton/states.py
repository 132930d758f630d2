"""Entangled-state preparation and the noise channels degrading it.

The spontaneous decay of the F'=0 level feeds three Zeeman channels;
only the two circularly polarized ones are collected along the
quantization axis, so the emitted photon and the atomic magnetic moment
end up in the maximally entangled superposition built by
:func:`ideal_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath


def ideal_ket():
    """(|-1>|s+> + |+1>|s->)/sqrt(2) in the fixed basis: (1,0,0,1)/sqrt(2)."""
    return np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def ideal_state():
    """Density matrix of the ideal entangled atom-photon state."""
    psi = ideal_ket()
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class NoiseModel:
    """Channels degrading the ideal state, plus atomic readout confusion.

    depolarizing: white-noise admixture p, rho -> (1-p) rho + p I/4
    dephasing: loss of atomic sigma_x/sigma_y coherence q,
        rho -> (1-q) rho + q (sz (x) I) rho (sz (x) I)
    eps01 / eps10: probability that a true atomic outcome
        (0 = transferred to F=2, 1 = remained in F=1) is reported flipped.
        Applied to outcome probabilities by
        `measurement.outcome_probabilities`, never to the state.
    """

    depolarizing: float = 0.0
    dephasing: float = 0.0
    eps01: float = 0.0
    eps10: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing", "dephasing", "eps01", "eps10"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


_SZ_I = qmath.PAULI_PRODUCTS[3, 0]


def apply_noise(rho, noise: NoiseModel):
    """Check rho is a density matrix, then depolarize it and dephase the
    atomic qubit. Readout confusion acts on measurement outcomes instead."""
    rho = qmath.check_density_matrix(rho)
    p, q = noise.depolarizing, noise.dephasing
    out = (1 - p) * rho + p * np.eye(4, dtype=complex) / 4
    return (1 - q) * out + q * (_SZ_I @ out @ _SZ_I)


def werner(v):
    """V |psi><psi| + (1-V) I/4 for the ideal entangled ket psi."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return v * ideal_state() + (1 - v) * np.eye(4, dtype=complex) / 4
