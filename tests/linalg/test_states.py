"""Unit tests for repro.linalg.states."""

import numpy as np
import pytest

from repro.linalg import (
    basis_state,
    maximally_entangled_state,
    plus_state,
    projector,
    purity,
    random_density_matrix,
    state_fidelity,
    zero_state,
)


class TestBasisStates:
    def test_zero_state(self):
        vec = zero_state(3)
        assert vec[0] == 1 and np.isclose(np.linalg.norm(vec), 1)

    def test_basis_state_index(self):
        vec = basis_state(5, 3)
        assert vec[5] == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(8, 3)

    def test_plus_state_uniform(self):
        vec = plus_state(2)
        assert np.allclose(np.abs(vec) ** 2, 0.25)


class TestMaximallyEntangled:
    def test_normalised(self):
        psi = maximally_entangled_state(2)
        assert np.isclose(np.linalg.norm(psi), 1)

    def test_schmidt_structure(self):
        psi = maximally_entangled_state(1)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(psi, expected)

    def test_reduced_state_maximally_mixed(self):
        n = 2
        d = 2**n
        psi = maximally_entangled_state(n)
        rho = projector(psi).reshape(d, d, d, d)
        reduced = np.einsum("ijkj->ik", rho)
        assert np.allclose(reduced, np.eye(d) / d)


class TestStateFidelity:
    def test_identical_pure(self):
        psi = np.array([1, 1j]) / np.sqrt(2)
        assert np.isclose(state_fidelity(psi, psi), 1.0)

    def test_orthogonal_pure(self):
        assert np.isclose(
            state_fidelity(np.array([1, 0]), np.array([0, 1])), 0.0
        )

    def test_pure_vs_mixed(self):
        psi = np.array([1, 0])
        rho = np.diag([0.5, 0.5])
        assert np.isclose(state_fidelity(psi, rho), 0.5)

    def test_symmetry_mixed(self, rng):
        rho = random_density_matrix(4, rng=rng)
        sigma = random_density_matrix(4, rng=rng)
        f1 = state_fidelity(rho, sigma)
        f2 = state_fidelity(sigma, rho)
        assert np.isclose(f1, f2, atol=1e-8)

    def test_bounds(self, rng):
        for _ in range(5):
            rho = random_density_matrix(4, rng=rng)
            sigma = random_density_matrix(4, rng=rng)
            f = state_fidelity(rho, sigma)
            assert -1e-9 <= f <= 1 + 1e-9


class TestStateFidelityAgainstSqrtm:
    """The eigendecomposition route against scipy's ``sqrtm`` formula."""

    @staticmethod
    def _sqrtm_fidelity(rho, sigma):
        sqrtm = pytest.importorskip("scipy.linalg").sqrtm
        root = sqrtm(rho)
        return float(np.real(np.trace(sqrtm(root @ sigma @ root))) ** 2)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_full_rank_pairs_agree(self, dim, rng):
        for _ in range(10):
            rho = random_density_matrix(dim, rng=rng)
            sigma = random_density_matrix(dim, rng=rng)
            assert abs(
                state_fidelity(rho, sigma) - self._sqrtm_fidelity(rho, sigma)
            ) < 1e-12

    def test_rank_deficient_pairs_agree_loosely(self, rng):
        # Both methods drift ~1e-8 on singular inputs; assert no tighter.
        for _ in range(10):
            rho = random_density_matrix(8, rank=3, rng=rng)
            sigma = random_density_matrix(8, rank=2, rng=rng)
            assert abs(
                state_fidelity(rho, sigma) - self._sqrtm_fidelity(rho, sigma)
            ) < 1e-6


class TestPurity:
    def test_pure(self):
        assert np.isclose(purity(np.array([1, 0])), 1.0)

    def test_maximally_mixed(self):
        assert np.isclose(purity(np.eye(4) / 4), 0.25)
