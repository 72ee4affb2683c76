"""Grover search over an oracle-marked subset of basis states.

The oracle is a classical predicate realized as a phase flip on marked
indices.  Starting from the uniform superposition, each round flips the
marked amplitudes and reflects about the start state; after the optimal
round count the marked-subspace amplitude is sin((2k+1)*theta) with
theta = asin(sqrt(M/N)).

Every round keeps the state in the plane spanned by the start state
``ref`` and its marked part ``P ref`` (Boyer, Brassard, Hoyer, Tapp,
quant-ph/9605034), so the rounds update the two coefficients of
``alpha ref + beta P ref``.  ``grover_search`` also measures in that
plane: with a uniform ``ref`` every marked index has weight
``(alpha + beta)**2`` and every other one ``alpha**2``, so the Born CDF is
piecewise linear over the sorted marked set and one uniform maps to an
index by a search of that set and one floor.  No 2**n vector is built;
``amplified_state`` still builds it, as the slow reference.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ..measurement import RandomSource
from ..measurement import measure_all  # noqa: F401  (bound by perfbench/tracing.py)
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

    @classmethod
    def _from_marked(cls, num_qubits: int, indices: Iterable[int]) -> Oracle:
        """The oracle of a set of indices the caller has checked are in range.

        Its ``_marked`` cache is filled from the set, so the predicate is
        never enumerated.
        """
        targets = frozenset(indices)
        oracle = cls(num_qubits, targets.__contains__)
        _check_num_qubits(oracle.num_qubits)
        marked = np.array(sorted(targets), dtype=np.intp)
        marked.flags.writeable = False
        oracle.__dict__["_marked"] = marked
        return oracle


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


def _rotation(p: float, rounds: int) -> tuple[float, float]:
    """``(alpha, beta)`` of ``alpha ref + beta P ref`` after ``rounds`` rounds.

    ``p = ||P ref||**2`` is the marked weight of the unit vector ``ref``.
    The reflection is 2|ref><ref| - I: a marked flip maps beta to
    -2 alpha - beta, then the reflection maps alpha to alpha + 2 p beta and
    beta to -beta.
    """
    alpha, beta = 1.0, 0.0
    for _ in range(rounds):
        beta = -2.0 * alpha - beta
        alpha, beta = alpha + 2.0 * p * beta, -beta
    return alpha, beta


def amplify(reference: np.ndarray, marked: np.ndarray, rounds: int) -> np.ndarray:
    """Amplitude amplification: [flip marked; reflect about ``reference``] ** rounds.

    Starts from the unit vector ``reference`` and returns a fresh array,
    ``alpha ref + beta P ref``, where ``P`` keeps the ``marked`` indices.
    The rounds are scalar arithmetic; the vector is built once, in O(2**n).
    """
    marked_ref = reference[marked]
    alpha, beta = _rotation(float(np.vdot(marked_ref, marked_ref).real), rounds)
    amps = alpha * reference
    amps[marked] += beta * marked_ref
    return amps


def _plane_draw(total: int, marked: np.ndarray, rounds: int, theta: float, u: float) -> int:
    """The index measured for the uniform ``u`` after ``rounds`` rounds from a
    uniform ``ref`` over ``total`` indices, ``marked`` of them (ascending).

    Every marked index weighs ``wm = (alpha + beta)**2`` and every other
    one ``wu = alpha**2``, so the weight before an index with ``a`` unmarked
    and ``b`` marked indices ahead of it is ``a*wu + b*wm``.  Rounded
    products and sums of nonnegative floats never decrease when an operand
    grows, so these edges never decrease along the basis order and a bin of
    weight 0.0 is never drawn, as with ``measurement._draw_index``.
    O(M) set-up and one ``searchsorted`` per draw.
    """
    count = marked.size
    alpha, beta = _rotation(count / total, rounds)
    marked_amp = abs(alpha + beta) * math.sqrt(count / total)
    assert abs(marked_amp - abs(math.sin((2 * rounds + 1) * theta))) < 1e-9
    wm, wu = (alpha + beta) ** 2, alpha**2
    ahead = np.arange(count)
    unmarked_ahead = marked - ahead  # unmarked indices before each marked one
    ends = unmarked_ahead * wu + (ahead + 1) * wm  # weight up to each marked bin's end
    t = u * ((total - count) * wu + count * wm)  # below the total weight, as u < 1
    j = int(ends.searchsorted(t, side="right"))  # marked bins wholly below t
    if j < count and t >= unmarked_ahead[j] * wu + j * wm:
        return int(marked[j])
    # An unmarked index with j marked ones ahead; t lies inside the run of
    # unmarked bins between marked j - 1 and j, which has positive weight.
    low = int(unmarked_ahead[j - 1]) if j else 0
    high = int(unmarked_ahead[j]) - 1 if j < count else total - count - 1
    return j + min(max(math.floor((t - j * wm) / wu), low), high)


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


def _checked_rounds(oracle: Oracle, marked_count: int) -> tuple[np.ndarray, int, float]:
    """The marked indices, the round count and theta.

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
    return marked, k, theta


def amplified_state(oracle: Oracle, marked_count: int) -> tuple[QuantumState, int, float]:
    """The pre-measurement Grover state plus (iterations, theta).

    ``marked_count`` must equal the oracle's enumerated count; raises
    ValueError otherwise or when nothing is marked.
    """
    marked, k, theta = _checked_rounds(oracle, marked_count)
    n = oracle.num_qubits
    amps = amplify(uniform_superposition(n).amplitudes, marked, k)
    marked_amp = math.sqrt(float(np.sum(np.abs(amps[marked]) ** 2)))
    assert abs(marked_amp - abs(math.sin((2 * k + 1) * theta))) < 1e-9
    return _owned(n, amps), k, theta


def grover_search(
    oracle: Oracle, marked_count: int, rng: RandomSource
) -> GroverResult:
    """Search the oracle's space; returns (outcome, iterations, predicted_success).

    Draws one uniform and builds no 2**n vector (see ``_plane_draw``).
    """
    marked, k, theta = _checked_rounds(oracle, marked_count)
    outcome = _plane_draw(1 << oracle.num_qubits, marked, k, theta, rng.uniform())
    return GroverResult(outcome, k, math.sin((2 * k + 1) * theta) ** 2)
