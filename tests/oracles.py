"""Independent brute-force references used to cross-check the simulator.

Everything here is deliberately built by a different route than the
library code: gate embeddings go through an explicit Kronecker product and
basis permutation, the Fourier matrix through direct summation, orders
through exhaustive exponentiation, marginals, projections and product
checks through bit masks over every basis index, amplitude
amplification through one full-vector pass per reflection, shot
sampling through unsorted lookups, circuit runs through every qubit of
the register, idle ones included, period finding through the whole
exponent-and-function register, the gate kernel through one ``[2]``
dimension per qubit with its axis lists rebuilt on every call, a fused
run of diagonal gates through one factor per basis index, random
integers through one full measurement per round, the coined walk through
one coin matrix product and two shifted copies of the whole line per step,
and the classical walk through one binomial coefficient per position.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qregsim import gates
from qregsim.algorithms.grover import uniform_superposition
from qregsim.algorithms.qft import inverse_qft
from qregsim.algorithms.shor import (
    PERIOD_RETRY_CAP,
    RetryLimitExceeded,
    _convergent_denominators,
    _minimal_order,
)
from qregsim.circuit import Circuit, RunResult
from qregsim.measurement import RandomSource, measure_all, measure_qubits, sample_counts
from qregsim.state import QuantumState


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


def amplify_reference(reference: np.ndarray, marked, rounds: int) -> np.ndarray:
    """[flip marked; reflect about reference] ** rounds, one pass over 2**n per step."""
    amps = reference.copy()
    for _ in range(rounds):
        amps[marked] *= -1.0
        amps = 2.0 * np.vdot(reference, amps) * reference - amps
    return amps


def sample_counts_reference(distribution: np.ndarray, uniforms: np.ndarray) -> dict[int, int]:
    """Counts per outcome, one inverse-CDF lookup per uniform in draw order."""
    cum = np.cumsum(distribution)
    cum /= cum[-1]
    outcomes = np.searchsorted(cum, uniforms, side="right")
    values, freq = np.unique(outcomes, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, freq)}


def run_reference(circuit: Circuit, shots: int, rng: RandomSource) -> RunResult:
    """``run_circuit`` on every qubit: the whole register's ``final_state``,
    then ``sample_counts`` over all the measured qubits, idle ones included."""
    measured = circuit.measured_qubits
    counts = sample_counts(circuit.final_state(), shots, rng, qubits=measured)
    return RunResult(shots=shots, seed=rng.seed, counts=counts, num_bits=len(measured))


def powers_reference(a: int, mod_n: int, t: int) -> np.ndarray:
    """a**x mod mod_n for every x < 2**t, one Python multiplication per x."""
    values = np.empty(1 << t, dtype=np.intp)
    acc = 1
    for x in range(1 << t):
        values[x] = acc
        acc = acc * a % mod_n
    return values


def entangled_register(a: int, mod_n: int, t: int, m: int) -> QuantumState:
    """(1/sqrt(2**t)) sum_x |x>|a**x mod N> with the exponent register on top."""
    amps = np.zeros(1 << (t + m), dtype=np.complex128)
    amps[(np.arange(1 << t) << m) + powers_reference(a, mod_n, t)] = 1.0 / math.sqrt(1 << t)
    return QuantumState(t + m, amps, copy=False)


def shor_period_reference(a: int, mod_n: int, rng) -> tuple[int, list[int]]:
    """Order of ``a`` mod ``mod_n`` and every measured exponent ``y``, in order.

    Each sample collapses the function register, then runs the inverse
    transform and the exponent measurement on all t+m qubits.
    """
    m = (mod_n - 1).bit_length()
    t = (mod_n * mod_n - 1).bit_length()
    exponent_register = list(range(m, m + t))
    register = entangled_register(a, mod_n, t, m)
    measured = []
    for _ in range(PERIOD_RETRY_CAP):
        state = measure_qubits(register, list(range(m)), rng).post_state
        state = inverse_qft(state, exponent_register)
        outcome = measure_qubits(state, exponent_register, rng)
        y = sum(bit << j for j, (q, bit) in enumerate(sorted(outcome.measured_bits.items())))
        measured.append(y)
        for r in _convergent_denominators(y, 1 << t, mod_n):
            if pow(a, r, mod_n) == 1:
                return _minimal_order(r, a, mod_n), measured
    raise RetryLimitExceeded(f"no period found for a={a} mod {mod_n}")


def qrng_reference(num_bits: int, chunk: int, rng) -> int:
    """``qrng`` as ceil(num_bits / chunk) rounds of ``measure_all``, one uniform each."""
    prepared = uniform_superposition(chunk)
    value = 0
    for r in range(-(-num_bits // chunk)):
        outcome, _ = measure_all(prepared, rng)
        value |= outcome << (r * chunk)
    return value & ((1 << num_bits) - 1)


def quantum_walk_reference(steps: int, coin_init) -> np.ndarray:
    """Coined-walk probabilities over -steps..steps, each step over the whole line."""
    psi = np.zeros((2 * steps + 1, 2), dtype=np.complex128)
    psi[steps] = coin_init
    coin_op = gates.HADAMARD.matrix
    for _ in range(steps):
        psi = psi @ coin_op.T
        shifted = np.zeros_like(psi)
        shifted[:-1, 0] = psi[1:, 0]
        shifted[1:, 1] = psi[:-1, 1]
        psi = shifted
    return (np.abs(psi) ** 2).sum(axis=1)


def classical_walk_reference(steps: int) -> np.ndarray:
    """P(2k - t) = C(t, k) / 2**t, with ``math.comb`` for every k."""
    probabilities = np.zeros(2 * steps + 1)
    for k in range(steps + 1):
        probabilities[2 * k] = math.comb(steps, k) / (1 << steps)
    return probabilities


def update_reference(plan, targets, amps: np.ndarray) -> None:
    """``gates._update`` on the unmerged ``[2]*n`` view, one axis per qubit.

    Same plan rows, chunk boundary (``gates._CHUNK_QUBITS``, read per call)
    and per-row ufunc sequence, but out of place: every term is read from a
    copy of the whole input, so nothing is parked.  The axis lists, the
    transposes and the chunk walk are rebuilt on every call.
    """
    source = amps.copy()
    n = amps.size.bit_length() - 1
    axes = [n - 1 - q for q in targets]
    rest = [a for a in range(n) if a not in axes]
    outer = rest[: max(0, len(rest) - gates._CHUNK_QUBITS)]
    order = outer + axes + rest[len(outer):]
    src = source.reshape((2,) * n).transpose(order)
    view = amps.reshape((2,) * n).transpose(order)
    tmp = np.empty((2,) * (len(rest) - len(outer)), dtype=np.complex128)
    for chunk in itertools.product((0, 1), repeat=len(outer)):
        chunk_src, chunk_out = src[chunk], view[chunk]
        for r, terms in plan.rows:
            dst = chunk_out[r]
            for j, (c, u) in enumerate(terms):
                part = chunk_src[c]
                if j == 0:
                    if u == 1:
                        dst[...] = part
                    else:
                        np.multiply(part, u, out=dst)
                elif u == 1:
                    dst += part
                else:
                    dst += np.multiply(u, part, out=tmp)


def diagonal_run_reference(steps, amps: np.ndarray) -> None:
    """A run of diagonal steps as one multiply, by basis index, in place.

    Each index's factor is the product of every step's diagonal entry at
    the index's bits of that step's targets (first target most
    significant), in step order and out of place, over the whole register;
    then every amplitude is scaled by its factor.  An index no step changes
    has the factor 1 exactly.
    """
    indices = np.arange(amps.size)
    factor = np.ones(amps.size, dtype=np.complex128)
    for step in steps:
        key = np.zeros(amps.size, dtype=np.intp)
        for q in step.targets:
            key = key << 1 | (indices >> q) & 1
        factor = factor * np.diagonal(step.gate.matrix)[key]
    amps *= factor


def chi_square_statistic(counts: np.ndarray, expected: float) -> float:
    return float(((counts - expected) ** 2 / expected).sum())
