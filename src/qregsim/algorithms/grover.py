"""Grover search over an oracle-marked subset of basis states.

The oracle is a classical predicate realized as a phase flip on marked
indices.  Starting from the uniform superposition, each round flips the
marked amplitudes and reflects about the start state; after the optimal
round count the marked-subspace amplitude is sin((2k+1)*theta) with
theta = asin(sqrt(M/N)).

Every round keeps the state in the plane spanned by the start state
``ref`` and its marked part ``P ref`` (Boyer, Brassard, Hoyer, Tapp,
quant-ph/9605034), so the rounds update the two coefficients of
``alpha ref + beta P ref`` and the amplitude vector is built once at the
end.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ..measurement import RandomSource, measure_all
from ..state import QuantumState, _check_num_qubits, _is_int, _owned
from ..state import basis_state  # noqa: F401  (bound by perfbench/tracing.py)


@dataclass(frozen=True)
class Oracle:
    """A total predicate over the n-qubit basis indices, marking solutions.

    The predicate must be deterministic: it is evaluated once per index, on
    the first ``marked_indices`` call, and the cached property ``_marked``
    keeps the result for every later call.
    """

    num_qubits: int
    predicate: Callable[[int], bool]

    def __post_init__(self):  # the width is checked on first use
        if _is_int(self.num_qubits):
            object.__setattr__(self, "num_qubits", int(self.num_qubits))

    @cached_property
    def _marked(self) -> np.ndarray:
        """The marked indices, enumerated once per oracle on first use."""
        _check_num_qubits(self.num_qubits)
        marked = np.fromiter(filter(self.predicate, range(1 << self.num_qubits)), dtype=np.intp)
        marked.flags.writeable = False
        return marked

    def marked_indices(self) -> np.ndarray:
        """All marked basis indices in ascending order (read-only array).

        Enumerates the predicate over every index on the first call only,
        after checking ``num_qubits`` against the register cap.
        """
        return self._marked


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


def amplify(reference: np.ndarray, marked: np.ndarray, rounds: int) -> np.ndarray:
    """Amplitude amplification: [flip marked; reflect about ``reference``] ** rounds.

    Starts from the unit vector ``reference`` and returns a fresh array.  The
    reflection is 2|ref><ref| - I, so the state stays
    ``alpha ref + beta P ref``, where ``P`` keeps the ``marked`` indices and
    ``p = ||P ref||**2``.  A marked flip maps beta to -2 alpha - beta; the
    reflection maps alpha to alpha + 2 p beta and beta to -beta.  The rounds
    are scalar arithmetic; the vector is built once, in O(2**n).
    """
    marked_ref = reference[marked]
    p = float(np.vdot(marked_ref, marked_ref).real)
    alpha, beta = 1.0, 0.0
    for _ in range(rounds):
        beta = -2.0 * alpha - beta
        alpha, beta = alpha + 2.0 * p * beta, -beta
    amps = alpha * reference
    amps[marked] += beta * marked_ref
    return amps


def _build_uniform_superposition(num_qubits: int) -> QuantumState:
    dim = 1 << num_qubits
    return _owned(num_qubits, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


#: Widest register whose uniform superposition (and qrng lookup) is cached.
_CACHED_QUBITS = 20

_uniform_superposition_cached = lru_cache(maxsize=8)(_build_uniform_superposition)


def uniform_superposition(num_qubits: int) -> QuantumState:
    """Hadamard on every qubit of |0...0>: amplitude 2**(-n/2) everywhere."""
    num_qubits = _check_num_qubits(num_qubits)
    # States are immutable, so small ones are shared across callers.
    if num_qubits <= _CACHED_QUBITS:
        return _uniform_superposition_cached(num_qubits)
    return _build_uniform_superposition(num_qubits)


def amplified_state(oracle: Oracle, marked_count: int) -> tuple[QuantumState, int, float]:
    """The pre-measurement Grover state plus (iterations, theta).

    ``marked_count`` must equal the oracle's enumerated count; raises
    ValueError otherwise or when nothing is marked.
    """
    marked = oracle.marked_indices()
    n = oracle.num_qubits
    total = 1 << n
    if not _is_int(marked_count) or marked_count < 1:
        raise ValueError(f"marked_count {marked_count!r} is not an integer >= 1: nothing to find")
    marked_count = int(marked_count)
    if marked_count > total:
        raise ValueError(f"marked_count {marked_count} exceeds search space {total}")
    if marked.size != marked_count:
        raise ValueError(
            f"marked_count {marked_count} disagrees with the oracle, "
            f"which marks {marked.size} indices"
        )
    k, theta = iteration_count(marked_count, total)
    start = uniform_superposition(n)
    amps = amplify(start.amplitudes, marked, k)
    state = _owned(n, amps)
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
