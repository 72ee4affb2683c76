"""Independent brute-force references used to cross-check the simulator.

Everything here is deliberately built by a different route than the
library code: gate embeddings go through an explicit Kronecker product and
basis permutation, the Fourier matrix through direct summation, orders
through exhaustive exponentiation, and marginals, projections and product
checks through bit masks over every basis index.
"""

from __future__ import annotations

import math

import numpy as np


def kron_embed(matrix: np.ndarray, targets: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n operator: permute targets to the top bits, kron, permute back."""
    k = len(targets)
    rest = sorted((q for q in range(num_qubits) if q not in targets), reverse=True)
    order = list(targets) + rest  # order[0] becomes the permuted MSB
    sigma = np.zeros(1 << num_qubits, dtype=np.intp)
    for i in range(1 << num_qubits):
        p = 0
        for pos, q in enumerate(order):
            p |= ((i >> q) & 1) << (num_qubits - 1 - pos)
        sigma[i] = p
    full = np.kron(np.asarray(matrix), np.eye(1 << (num_qubits - k)))
    return full[np.ix_(sigma, sigma)]


def dft_matrix(num_qubits: int) -> np.ndarray:
    """Definitional transform by direct summation: F[k, j] = w**(jk) / sqrt(N)."""
    dim = 1 << num_qubits
    out = np.empty((dim, dim), dtype=np.complex128)
    for k in range(dim):
        for j in range(dim):
            out[k, j] = np.exp(2j * np.pi * j * k / dim)
    return out / math.sqrt(dim)


def brute_force_order(a: int, mod_n: int) -> int:
    """Smallest r >= 1 with a**r = 1 (mod mod_n), by exhaustive multiplication."""
    r, acc = 1, a % mod_n
    while acc != 1:
        acc = acc * a % mod_n
        r += 1
    return r


def random_state_vector(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unit vector of 2**n complex amplitudes."""
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def marginal_reference(amplitudes: np.ndarray, bits: dict[int, int]) -> float:
    """Probability of ``bits`` ({qubit: bit}) summed over consistent basis indices."""
    mask = sum(1 << q for q in bits)
    want = sum(bit << q for q, bit in bits.items())
    indices = np.arange(amplitudes.size)
    return float((np.abs(amplitudes[(indices & mask) == want]) ** 2).sum())


def marginal_distribution_reference(amplitudes: np.ndarray, qubits) -> np.ndarray:
    """Entry a: probability that qubits[j] reads bit j of a, binned by key."""
    indices = np.arange(amplitudes.size)
    keys = np.zeros(amplitudes.size, dtype=np.intp)
    for j, q in enumerate(qubits):
        keys |= ((indices >> q) & 1) << j
    return np.bincount(keys, weights=np.abs(amplitudes) ** 2, minlength=1 << len(qubits))


def project_reference(amplitudes: np.ndarray, bits: dict[int, int]) -> np.ndarray:
    """Amplitudes with every index inconsistent with ``bits`` zeroed, renormalized."""
    mask = sum(1 << q for q in bits)
    want = sum(bit << q for q, bit in bits.items())
    indices = np.arange(amplitudes.size)
    amps = amplitudes.copy()
    amps[(indices & mask) != want] = 0.0
    return amps / np.linalg.norm(amps)


def bipartition_singular_values(amplitudes: np.ndarray, left) -> np.ndarray:
    """Singular values of the (left, rest) amplitude matrix, scattered by bit masks."""
    num_qubits = amplitudes.size.bit_length() - 1
    right = [q for q in range(num_qubits) if q not in left]
    indices = np.arange(amplitudes.size)
    rows = np.zeros(amplitudes.size, dtype=np.intp)
    cols = np.zeros(amplitudes.size, dtype=np.intp)
    for j, q in enumerate(left):
        rows |= ((indices >> q) & 1) << j
    for j, q in enumerate(right):
        cols |= ((indices >> q) & 1) << j
    matrix = np.zeros((1 << len(left), 1 << len(right)), dtype=np.complex128)
    matrix[rows, cols] = amplitudes
    return np.linalg.svd(matrix, compute_uv=False)


def chi_square_statistic(counts: np.ndarray, expected: float) -> float:
    return float(((counts - expected) ** 2 / expected).sum())
