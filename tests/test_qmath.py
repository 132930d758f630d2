"""Linear-algebra core: examples against independent oracles, plus invariants."""

import numpy as np
import pytest

from atomphoton import qmath
from atomphoton.metrics import fidelity_to_target
from atomphoton.states import ideal_ket, ideal_state, werner

SX, SY, SZ = qmath.PAULIS
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def kron_oracle(a, b):
    """Elementwise Kronecker product, independent of np.kron."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def partial_trace(rho, keep):
    """Reduced 2x2 state of one subsystem of a two-qubit density matrix.

    `keep` selects the surviving subsystem: "atom" (first factor) or
    "photon" (second factor). Input must be a 4x4 density matrix.
    """
    r = qmath.check_density_matrix(rho).reshape(2, 2, 2, 2)
    if keep == "atom":
        return np.einsum("ikjk->ij", r)
    if keep == "photon":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 'atom' or 'photon', got {keep!r}")


def partial_trace_oracle(rho, keep):
    """Direct index summation over the traced subsystem."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == "atom":
                    out[i, j] += rho[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += rho[2 * k + i, 2 * k + j]
    return out


def partial_transpose_oracle(rho, subsystem):
    """Explicit index permutation, independent of the reshape path."""
    out = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for p in range(2):
            for b in range(2):
                for q in range(2):
                    if subsystem == "photon":
                        out[2 * a + p, 2 * b + q] = rho[2 * a + q, 2 * b + p]
                    else:
                        out[2 * a + p, 2 * b + q] = rho[2 * b + p, 2 * a + q]
    return out


def random_density_matrix(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestTensorProduct:
    """The atom (x) photon products of PAULI_PRODUCTS[mu, nu] = s_mu (x) s_nu."""

    def test_identity(self):
        assert np.array_equal(qmath.PAULI_PRODUCTS[0, 0], I4)

    def test_sz_sz_diagonal(self):
        assert np.allclose(qmath.PAULI_PRODUCTS[3, 3], np.diag([1, -1, -1, 1]))

    def test_sx_sy_against_oracle(self):
        got = qmath.PAULI_PRODUCTS[1, 2]
        assert np.array_equal(got, kron_oracle(SX, SY))
        # antidiagonal reads (-i, i, -i, i) from the top-right down
        anti = [got[0, 3], got[1, 2], got[2, 1], got[3, 0]]
        assert np.allclose(anti, [-1j, 1j, -1j, 1j])


class TestPartialTrace:
    def test_bell_marginals_maximally_mixed(self):
        rho = ideal_state()
        for keep in ("atom", "photon"):
            assert np.allclose(partial_trace(rho, keep), I2 / 2, atol=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, "atom"), rho_a, atol=1e-12)
        assert np.allclose(partial_trace(joint, "photon"), rho_b, atol=1e-12)

    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_werner_marginal_via_oracle(self, v):
        rho = werner(v)
        got = partial_trace(rho, "photon")
        assert np.allclose(got, partial_trace_oracle(rho, "photon"), atol=1e-14)
        assert np.allclose(got, I2 / 2, atol=1e-12)

    def test_trace_preserved_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = random_density_matrix(rng)
            for keep in ("atom", "photon"):
                red = partial_trace(rho, keep)
                assert abs(np.trace(red) - 1.0) < 1e-9
                assert np.allclose(red, partial_trace_oracle(rho, keep), atol=1e-13)

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(2) / 2, "atom")

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(I4 / 4, "both")


class TestPartialTranspose:
    def test_identity_invariant(self):
        assert np.allclose(qmath.partial_transpose(I4 / 4, "photon"), I4 / 4)

    def test_bell_spectrum(self):
        pt = qmath.partial_transpose(ideal_state(), "photon")
        eig = np.linalg.eigvalsh(pt)
        assert np.allclose(eig, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_werner_spectrum_formula(self, v):
        # oracle: independent index-permutation construction + eigensolver
        pt_oracle = partial_transpose_oracle(werner(v), "photon")
        eig = np.sort(np.linalg.eigvalsh(pt_oracle))
        expected = np.sort([(1 - 3 * v) / 4] + [(1 + v) / 4] * 3)
        assert np.allclose(eig, expected, atol=1e-12)
        assert np.allclose(qmath.partial_transpose(werner(v), "photon"), pt_oracle)

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_density_matrix(rng)
            for sub in ("atom", "photon"):
                twice = qmath.partial_transpose(qmath.partial_transpose(rho, sub), sub)
                assert np.max(np.abs(twice - rho)) < 1e-12

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = random_density_matrix(rng)
            for sub in ("atom", "photon"):
                assert np.allclose(qmath.partial_transpose(rho, sub),
                                   partial_transpose_oracle(rho, sub), atol=1e-14)

    @pytest.mark.parametrize("sub", ["x", "Atom", None])
    def test_unknown_subsystem_refused_by_name(self, sub):
        with pytest.raises(ValueError, match="subsystem must be 'atom' or 'photon'"):
            qmath.partial_transpose(ideal_state(), sub)

    def test_stack_rows_transposed_alone(self):
        rng = np.random.default_rng(7)
        stack = np.array([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        for sub in ("atom", "photon"):
            got = qmath.partial_transpose(stack, sub)
            assert got.shape == stack.shape
            for idx in np.ndindex(2, 3):
                assert np.array_equal(got[idx], partial_transpose_oracle(stack[idx], sub))


class TestOverlap:
    """<psi|rho|psi> with the ideal ket, as metrics.fidelity_to_target takes it."""

    def test_self_overlap(self):
        assert abs(fidelity_to_target(ideal_state()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(fidelity_to_target(I4 / 4) - 0.25) < 1e-12

    def test_werner_contraction(self):
        # oracle: direct <psi|rho|psi> contraction with explicit loops
        psi = ideal_ket()
        rho = werner(0.86)
        val = sum(
            psi[i].conjugate() * rho[i, j] * psi[j] for i in range(4) for j in range(4)
        )
        assert abs(val.imag) < 1e-14
        assert abs(val.real - 0.895) < 1e-12
        assert abs(fidelity_to_target(rho) - val.real) < 1e-15
