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


def check_density_matrix(rho):
    """Gate for a state from outside the package: a finite 4x4 matrix that
    is Hermitian, of unit trace and PSD within tolerance, returned as a
    complex ndarray."""
    a = np.asarray(rho, dtype=complex)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {a.shape}")
    if not np.isfinite(a).all():   # NaN would pass every test below
        raise ValueError("density matrix has non-finite entries")
    dev = np.max(np.abs(a - a.conj().T))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian "
                         f"(max deviation {dev:.3e} > {HERMITIAN_TOL:.1e})")
    tr = np.real(np.trace(a))
    if abs(tr - 1.0) > NORM_TOL:
        raise ValueError(f"trace is {tr:.12g}, expected 1 within {NORM_TOL:.1e}")
    lo = np.min(np.linalg.eigvalsh(a))
    if lo < -NORM_TOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {lo:.3e})")
    return a


def partial_transpose(rho, subsystem):
    """Transpose one subsystem's indices of a 4x4 matrix, or of each matrix
    of an (..., 4, 4) stack."""
    r = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)   # (..., atom, photon, atom, photon)
    row = {"atom": -4, "photon": -3}[subsystem]
    return np.swapaxes(r, row, row + 2).reshape(rho.shape)
