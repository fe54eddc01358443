"""State-level helpers: basis states, fidelities, the maximally entangled state.

The density-matrix fidelity here is the one the paper builds on:

``F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``

and for a pure state ``psi``: ``F(psi, sigma) = <psi| sigma |psi>``.
"""

from __future__ import annotations

import numpy as np

from .matrices import COMPLEX, dagger, projector


def basis_state(index: int, num_qubits: int) -> np.ndarray:
    """Computational-basis state |index> on ``num_qubits`` qubits."""
    dim = 2**num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for n={num_qubits}")
    vec = np.zeros(dim, dtype=COMPLEX)
    vec[index] = 1.0
    return vec


def zero_state(num_qubits: int) -> np.ndarray:
    """|0...0> on ``num_qubits`` qubits."""
    return basis_state(0, num_qubits)


def plus_state(num_qubits: int) -> np.ndarray:
    """|+>^n: the uniform superposition."""
    dim = 2**num_qubits
    return np.full(dim, 1 / np.sqrt(dim), dtype=COMPLEX)


def maximally_entangled_state(num_qubits: int) -> np.ndarray:
    """|Psi> = (1/sqrt d) sum_i |ii> on 2*num_qubits qubits.

    The two halves are ordered (system, copy); the Jamiolkowski isomorphism
    in :mod:`repro.core.jamiolkowski` applies the channel to the second half.
    """
    d = 2**num_qubits
    vec = np.zeros(d * d, dtype=COMPLEX)
    for i in range(d):
        vec[i * d + i] = 1.0
    return vec / np.sqrt(d)


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity between two density matrices (Nielsen–Chuang convention).

    Accepts state vectors too (they are promoted to projectors).  Two
    mixed states take ``F`` from the eigenvalues of
    ``sqrt(rho) sigma sqrt(rho)``, with ``sqrt(rho)`` from a Hermitian
    eigendecomposition.
    """
    rho = _to_density(rho)
    sigma = _to_density(sigma)
    # Pure-state fast paths keep this numerically clean.
    if _is_pure(rho):
        vec = _principal_vector(rho)
        return float(np.real(np.conjugate(vec) @ sigma @ vec))
    if _is_pure(sigma):
        vec = _principal_vector(sigma)
        return float(np.real(np.conjugate(vec) @ rho @ vec))
    sqrt_rho = _psd_sqrt(rho)
    inner = sqrt_rho @ sigma @ sqrt_rho
    eigvals = np.linalg.eigvalsh((inner + dagger(inner)) / 2)
    val = np.sum(np.sqrt(np.clip(eigvals, 0.0, None))) ** 2
    return float(min(max(val, 0.0), 1.0 + 1e-9))


def purity(rho: np.ndarray) -> float:
    """tr(rho^2)."""
    rho = _to_density(rho)
    return float(np.real(np.trace(rho @ rho)))


def _to_density(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=COMPLEX)
    if state.ndim == 1:
        return projector(state)
    return state


def _is_pure(rho: np.ndarray) -> bool:
    return abs(np.real(np.trace(rho @ rho)) - 1.0) < 1e-9


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    """Square root of a density matrix via its Hermitian eigendecomposition.

    Eigenvalues are clipped at 0, so round-off negatives cannot turn the
    root complex.
    """
    eigvals, eigvecs = np.linalg.eigh((rho + dagger(rho)) / 2)
    roots = np.sqrt(np.clip(eigvals, 0.0, None))
    return (eigvecs * roots) @ dagger(eigvecs)


def _principal_vector(rho: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the dominant eigenvalue (the pure state)."""
    _, eigvecs = np.linalg.eigh((rho + dagger(rho)) / 2)
    return eigvecs[:, -1]
