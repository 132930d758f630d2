"""The measurement model as the package documents it, written again in numpy.

The benchmark draws its tomography inputs from these probabilities and
checks the program's outputs against these computations, so neither side
uses the program's own code. Conventions (README of the package):

* basis atom (|mF=-1>, |mF=+1>) x photon (|sigma+>, |sigma->);
* the atomic analysis transfers sin(theta)|-1> + e^{i phi} cos(theta)|+1> to F=2;
* APD1 carries (|s+> + e^{2i beta}|s->)/sqrt(2), or |s+> in the circular basis;
* outcome order (F2, APD1), (F2, APD2), (F1, APD1), (F1, APD2);
* noise: depolarize by p, dephase the atom by q, then flip the atomic
  outcome with probabilities eps01 (F2 reported as F1) and eps10.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)
EYE2 = np.eye(2, dtype=complex)
TARGET = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)

# Canonical tomography settings: atomic (theta, phi) and photonic (beta, circular)
# for Pauli index 0, 1, 2. Atomic z is also measurable at theta = 0, which
# transfers |+1> and so swaps the sign of the F2 outcome.
ATOM_SETTINGS = ((math.pi / 4, 0.0), (math.pi / 4, math.pi / 2), (math.pi / 2, 0.0))
ATOM_Z_FLIPPED = (0.0, 0.0)
PHOTON_SETTINGS = ((0.0, False), (math.pi / 4, False), (0.0, True))


def atom_projectors(theta, phi):
    psi = np.array([math.sin(theta), np.exp(1j * phi) * math.cos(theta)])
    p_t = np.outer(psi, psi.conj())
    return p_t, EYE2 - p_t


def photon_projectors(beta, circular):
    plus = np.array([1, 0], dtype=complex) if circular else \
        np.array([1, np.exp(2j * beta)]) / math.sqrt(2)
    p1 = np.outer(plus, plus.conj())
    return p1, EYE2 - p1


@functools.lru_cache(maxsize=None)
def setting_projectors(atom, photon):
    """The four joint projectors of one setting, in outcome order."""
    at, ar = atom_projectors(*atom)
    d1, d2 = photon_projectors(*photon)
    ops = np.array([np.kron(a, d) for a in (at, ar) for d in (d1, d2)])
    ops.flags.writeable = False
    return ops


def outcome_probabilities(rho, atom, photon, eps01=0.0, eps10=0.0):
    """Readout-confused probabilities of the four outcomes of one setting."""
    p = np.einsum("kij,ji->k", setting_projectors(atom, photon), rho).real
    f2, f1 = np.clip(p[:2], 0, None), np.clip(p[2:], 0, None)   # roundoff on pure states
    return np.concatenate([(1 - eps01) * f2 + eps10 * f1, eps01 * f2 + (1 - eps10) * f1])


def noisy_state(ket, depolarizing=0.0, dephasing=0.0):
    rho = np.outer(ket, ket.conj())
    rho = (1 - depolarizing) * rho + depolarizing * np.eye(4) / 4
    szi = np.kron(SZ, EYE2)
    return (1 - dephasing) * rho + dephasing * szi @ rho @ szi


def sign_cells(cells, flipped):
    """Record cells in outcome order -> eigenvalue-sign order (+,+), (+,-), (-,+), (-,-)."""
    cells = np.asarray(cells, dtype=float)
    return cells[[2, 3, 0, 1]] if flipped else cells


# PAULI_PRODUCTS[a, b] = s_a (x) s_b with s_0 the identity
PAULI_PRODUCTS = np.array([[np.kron(a, b) for b in (EYE2,) + PAULIS] for a in (EYE2,) + PAULIS])


def state_from_sign_probabilities(probs):
    """Pauli expansion of the 4x4 matrix whose canonical-setting probabilities
    (eigenvalue-sign order, keyed by (i, j)) are `probs`."""
    coef = np.zeros((4, 4))
    coef[0, 0] = 1.0
    for (i, j), c in probs.items():
        c = np.asarray(c, dtype=float) / np.sum(c)
        coef[i + 1, j + 1] = c[0] + c[3] - c[1] - c[2]
        coef[i + 1, 0] += (c[0] + c[1] - c[2] - c[3]) / 3
        coef[0, j + 1] += (c[0] + c[2] - c[1] - c[3]) / 3
    return np.einsum("ab,abij->ij", coef, PAULI_PRODUCTS) / 4


def sign_projectors():
    """Projector for each (i, j) and sign cell, in the order of `sign_counts`."""
    ops = []
    for i in range(3):
        for j in range(3):
            for sa in (1, -1):
                for sp in (1, -1):
                    ops.append(np.kron((EYE2 + sa * PAULIS[i]) / 2, (EYE2 + sp * PAULIS[j]) / 2))
    return np.array(ops)


SIGN_PROJECTORS = sign_projectors()


def sign_counts(probs):
    return np.concatenate([np.asarray(probs[(i, j)], dtype=float)
                           for i in range(3) for j in range(3)])


def log_likelihood(rho, counts):
    p = np.einsum("kij,ji->k", SIGN_PROJECTORS, rho).real
    return float(counts @ np.log(np.clip(p, 1e-12, None)))


def simplex_projection(rho):
    """Closest trace-1 PSD matrix in Frobenius norm."""
    w, u = np.linalg.eigh((rho + rho.conj().T) / 2)
    x = np.sort(w)[::-1]
    csum = np.cumsum(x)
    ks = np.arange(1, 5)
    k = ks[x - (csum - 1) / ks > 0][-1]
    lam = np.maximum(w - (csum[k - 1] - 1) / k, 0.0)
    return (u * lam) @ u.conj().T


def fidelity(rho):
    return float(np.real(TARGET.conj() @ rho @ TARGET))


def negativity(rho):
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    w = np.linalg.eigvalsh(pt)
    return float(-w[w < 0].sum())


def purity(rho):
    return float(np.real(np.trace(rho @ rho)))


def correlations(rho):
    return np.einsum("abij,ji->ab", PAULI_PRODUCTS[1:, 1:], rho).real


def chsh_max(rho):
    """Horodecki criterion: 2 sqrt(s1^2 + s2^2) over the correlation matrix."""
    s = np.linalg.svd(correlations(rho), compute_uv=False)
    return 2.0 * math.hypot(s[0], s[1])


def fidelity_sigma(rho, n_diag):
    """Standard deviation of the fidelity estimate (1 + Txx - Tyy + Tzz)/4
    when each diagonal correlation is measured on n_diag[k] trials."""
    t = correlations(rho)
    return math.sqrt(sum((1 - t[k, k] ** 2) / n_diag[k] for k in range(3))) / 4


def fit_fringe(betas, p):
    """Least-squares p = c0 + c1 cos 2b + c2 sin 2b; visibility 2 |(c1, c2)|."""
    betas = np.asarray(betas, dtype=float)
    x = np.column_stack([np.ones_like(betas), np.cos(2 * betas), np.sin(2 * betas)])
    coef = np.linalg.lstsq(x, np.asarray(p, dtype=float), rcond=None)[0]
    return 2 * math.hypot(coef[1], coef[2])


def fringe_visibility_sigma(betas, n_cond):
    """Upper bound on the standard deviation of the fitted visibility:
    every point's variance taken as 1/(4 n), propagated through the fit."""
    betas = np.asarray(betas, dtype=float)
    x = np.column_stack([np.ones_like(betas), np.cos(2 * betas), np.sin(2 * betas)])
    pinv = np.linalg.pinv(x)
    var = pinv ** 2 @ (0.25 / np.asarray(n_cond, dtype=float))
    return 2 * math.sqrt(var[1] + var[2])


def closed_form_observables(depolarizing, dephasing, eps):
    """Fringe visibility and fidelity of the model with symmetric readout confusion."""
    s = (1 - 2 * eps) * (1 - depolarizing)
    return s * (1 - 2 * dephasing), (1 + s * (3 - 4 * dephasing)) / 4
