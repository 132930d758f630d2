"""Small-dimension complex linear algebra for one- and two-qubit states, and
the one map between a Hermitian 4x4 and its 16 real Pauli coefficients.

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

# The real Pauli basis: row m holds the real and imaginary parts of the 16
# entries of P_m, so a Hermitian matrix and its coefficients map to each other
# (`coefficients`, `states`) through real products; tr(rho P_m) is the dot
# product of the two rows. The transpose is a C-contiguous copy: the layout
# fixes the order in which BLAS adds, and with it the last bits of every fit.
_BASIS = PAULI_PRODUCTS.reshape(16, 16).view(float)
_BASIS_T = _BASIS.T.copy()


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
    of an (..., 4, 4) stack; `subsystem` is "atom" or "photon"."""
    if subsystem not in ("atom", "photon"):
        raise ValueError(f"subsystem must be 'atom' or 'photon', got {subsystem!r}")
    r = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)   # (..., atom, photon, atom, photon)
    row = -4 if subsystem == "atom" else -3
    return np.swapaxes(r, row, row + 2).reshape(rho.shape)


# Every product of a stack is taken row by row, as a batch of (1, K) @ (K, L)
# products: each row then gets the same arithmetic whatever the stack height,
# so a fit in a stack equals the same fit alone bit for bit. A 2-D (R, K) @
# (K, L) matmul breaks this: numpy hands a single row to BLAS gemv and a
# stack to gemm, and the two add in different orders.

def rows(a, m):
    """(R, K) @ (K, L), one row at a time."""
    return np.matmul(a[:, None, :], m)[:, 0]


def states(r):
    """(R, 16) Pauli coefficients -> (R, 4, 4) sum_m r_m P_m / 4, exactly Hermitian."""
    return (rows(r, _BASIS) * 0.25).view(complex).reshape(len(r), 4, 4)


def coefficients(rho):
    """(R, 4, 4) Hermitian matrices, or one 4x4 as R = 1, -> (R, 16) coefficients tr(rho P_m)."""
    return rows(np.ascontiguousarray(rho, dtype=complex).reshape(-1, 16).view(float), _BASIS_T)
