"""Small-dimension complex linear algebra for one- and two-qubit states.

Basis convention, used everywhere in this package:

* atomic qubit:  index 0 = |mF=-1>,  index 1 = |mF=+1>
* photonic qubit: index 0 = |sigma+>, index 1 = |sigma->
* joint 4-dim basis = atom (x) photon, row-major:
  (|-1,s+>, |-1,s->, |+1,s+>, |+1,s->)

In this ordering the target entangled state (|-1>|s+> + |+1>|s->)/sqrt(2)
has amplitude vector (1, 0, 0, 1)/sqrt(2) and Pauli correlation matrix
diag(+1, -1, +1).
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
NORM_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# PAULI_PRODUCTS[mu, nu] = sigma_mu (x) sigma_nu with sigma_0 = I: a two-qubit
# state is sum_{mu,nu} r_{mu nu} PAULI_PRODUCTS[mu, nu] / 4 with the real
# coefficients r_{mu nu} = tr(rho PAULI_PRODUCTS[mu, nu]).
PAULI_PRODUCTS = np.array(
    [[np.kron(a, b) for b in (np.eye(2), *PAULIS)] for a in (np.eye(2), *PAULIS)]
)

ATOM_MINUS = np.array([1, 0], dtype=complex)   # |mF=-1>
ATOM_PLUS = np.array([0, 1], dtype=complex)    # |mF=+1>
PHOTON_SIGMA_PLUS = np.array([1, 0], dtype=complex)
PHOTON_SIGMA_MINUS = np.array([0, 1], dtype=complex)


def as_matrix(m, dim=None):
    """Coerce to a square complex ndarray, optionally checking its dimension."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[0]}")
    return a


def check_hermitian(m, tol=HERMITIAN_TOL):
    """Return m as an ndarray, raising if it deviates from M = M^dagger."""
    a = as_matrix(m)
    dev = np.max(np.abs(a - a.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {tol:.1e})")
    return a


def check_density_matrix(rho, tol=NORM_TOL):
    """Validate a physical state: Hermitian, unit trace, PSD within tolerance."""
    a = check_hermitian(rho)
    tr = np.real(np.trace(a))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace is {tr:.12g}, expected 1 within {tol:.1e}")
    lo = np.min(np.linalg.eigvalsh(a))
    if lo < -max(tol, 1e-10):
        raise ValueError(f"matrix is not PSD (min eigenvalue {lo:.3e})")
    return a


def ket(amplitudes, normalized=True):
    """Build a state vector; checks unit norm when `normalized` is set."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size not in (2, 4):
        raise ValueError(f"ket dimension must be 2 or 4, got {v.size}")
    if normalized and abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
        raise ValueError("ket is not normalized")
    return v


def projector(psi):
    """Rank-1 projector |psi><psi| from a normalized ket."""
    v = ket(psi)
    return np.outer(v, v.conj())


def partial_transpose(rho, subsystem):
    """Transpose one subsystem's indices of a 4x4 matrix, or of each matrix
    of an (..., 4, 4) stack."""
    r = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)   # (..., atom, photon, atom, photon)
    row = {"atom": -4, "photon": -3}[subsystem]
    return np.swapaxes(r, row, row + 2).reshape(rho.shape)
