"""Grover search over an oracle-marked subset of basis states.

The oracle is a classical predicate realized as a phase flip on marked
indices.  Starting from the uniform superposition, each round flips the
marked amplitudes and reflects about the start state; after the optimal
round count the marked-subspace amplitude is sin((2k+1)*theta) with
theta = asin(sqrt(M/N)).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..measurement import RandomSource, measure_all
from ..state import QuantumState, basis_state  # noqa: F401  (bound by perfbench/tracing.py)


@dataclass(frozen=True)
class Oracle:
    """A total predicate over the n-qubit basis indices, marking solutions."""

    num_qubits: int
    predicate: Callable[[int], bool]

    def marked_indices(self) -> np.ndarray:
        """All marked basis indices, found by enumeration."""
        return np.fromiter(
            (i for i in range(1 << self.num_qubits) if self.predicate(i)),
            dtype=np.intp,
        )


class GroverResult(NamedTuple):
    outcome: int
    iterations: int
    predicted_success: float


def count_marked(oracle: Oracle) -> int:
    """Exact number of marked indices (classical enumeration)."""
    return int(oracle.marked_indices().size)


def iteration_count(marked: int, total: int) -> tuple[int, float]:
    """Optimal round count k and the rotation angle theta for M of N marked."""
    theta = math.asin(math.sqrt(marked / total))
    k = max(0, round(math.pi / (4.0 * theta) - 0.5))
    return k, theta


def amplify(
    amplitudes: np.ndarray, marked: np.ndarray, reference: np.ndarray, rounds: int
) -> np.ndarray:
    """Amplitude amplification: [flip marked; reflect about ``reference``] ** rounds.

    The reflection is 2|ref><ref| - I, so support never leaves
    span(reference, marked components).
    """
    amps = amplitudes.copy()
    for _ in range(rounds):
        amps[marked] *= -1.0
        amps = 2.0 * np.vdot(reference, amps) * reference - amps
    return amps


def uniform_superposition(num_qubits: int) -> QuantumState:
    """Hadamard on every qubit of |0...0>: amplitude 2**(-n/2) everywhere."""
    # States are immutable, so small ones are shared across callers.
    if num_qubits <= 20:
        return _uniform_superposition_cached(num_qubits)
    return _build_uniform_superposition(num_qubits)


@lru_cache(maxsize=8)
def _uniform_superposition_cached(num_qubits: int) -> QuantumState:
    return _build_uniform_superposition(num_qubits)


def _build_uniform_superposition(num_qubits: int) -> QuantumState:
    dim = 1 << num_qubits
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    return QuantumState(num_qubits, amps, copy=False)


def amplified_state(oracle: Oracle, marked_count: int) -> tuple[QuantumState, int, float]:
    """The pre-measurement Grover state plus (iterations, theta).

    ``marked_count`` must equal the oracle's enumerated count; raises
    ValueError otherwise or when nothing is marked.
    """
    n = oracle.num_qubits
    total = 1 << n
    marked = oracle.marked_indices()
    if marked_count < 1:
        raise ValueError("marked_count must be >= 1: nothing to find")
    if marked_count > total:
        raise ValueError(f"marked_count {marked_count} exceeds search space {total}")
    if marked.size != marked_count:
        raise ValueError(
            f"marked_count {marked_count} disagrees with the oracle, "
            f"which marks {marked.size} indices"
        )
    k, theta = iteration_count(marked_count, total)
    start = uniform_superposition(n)
    amps = amplify(start.amplitudes, marked, start.amplitudes, k)
    state = QuantumState(n, amps, copy=False)
    marked_amp = math.sqrt(float(np.sum(np.abs(amps[marked]) ** 2)))
    assert abs(marked_amp - abs(math.sin((2 * k + 1) * theta))) < 1e-9
    return state, k, theta


def grover_search(
    oracle: Oracle, marked_count: int, rng: RandomSource
) -> GroverResult:
    """Search the oracle's space; returns (outcome, iterations, predicted_success)."""
    state, k, theta = amplified_state(oracle, marked_count)
    outcome, _ = measure_all(state, rng)
    return GroverResult(outcome, k, math.sin((2 * k + 1) * theta) ** 2)
