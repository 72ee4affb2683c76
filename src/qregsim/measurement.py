"""Born-rule sampling, measurement collapse, marginals, and a product check.

Measurement is simulated classically: a seeded deterministic RandomSource
replaces physical randomness so every run is reproducible.  Collapse
projects the state onto the observed bits (inconsistent amplitudes become
exactly zero) and renormalizes.  Like the gate kernel, every function here
works on the ``[2]*n`` view of the register, with qubit ``q`` on axis
``n-1-q``: marginals are sums over axes, collapse keeps one slice.
Repeated sampling sorts each batch of draws once, then counts every
outcome of a small support at its CDF edge, or looks up every draw of a
larger one; both give the counts of looking up each draw in turn.  Qubit
lists, seeds and shot counts are checked by the rules in ``state``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .state import QuantumState, _check_qubits, _is_int, _owned, basis_state

#: Second singular value below this means the bipartition factorizes.
PRODUCT_TOLERANCE = 1e-9

#: Seeds are the 64-bit integers in [0, SEED_LIMIT).
SEED_LIMIT = 1 << 64

#: Shots drawn and counted together by ``sample_counts`` (rounds by
#: ``qrng``), so their memory does not grow with the shot count.
_SHOT_BATCH = 1 << 20


class RandomSource:
    """Seeded deterministic stream of uniform doubles in [0, 1).

    Backed by numpy's PCG64 generator, so the same 64-bit seed always
    reproduces the same stream.  ``draw_count`` tracks how many values have
    been consumed, which makes round-trip accounting testable.
    """

    __slots__ = ("_seed", "_generator", "_draws")

    def __init__(self, seed: int):
        if not _is_int(seed) or not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must be a nonnegative 64-bit integer, got {seed!r}")
        self._seed = int(seed)
        self._generator = np.random.Generator(np.random.PCG64(self._seed))
        self._draws = 0

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def draw_count(self) -> int:
        return self._draws

    def uniform(self) -> float:
        self._draws += 1
        return float(self._generator.random())

    def uniforms(self, count: int) -> np.ndarray:
        if not _is_int(count) or count < 0:
            raise ValueError(f"count must be an integer >= 0, got {count!r}")
        self._draws += int(count)
        return self._generator.random(count)

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high); counts as one draw."""
        self._draws += 1
        return int(self._generator.integers(low, high))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self._seed})"


@dataclass(frozen=True)
class MeasurementOutcome:
    """Observed bits plus the collapsed, renormalized post-measurement state."""

    measured_bits: dict[int, int]
    post_state: QuantumState


def marginal(state: QuantumState, bits: Mapping[int, int]) -> float:
    """Probability that the given qubits read the given bits.

    ``bits`` maps qubit index to the integer 0 or 1; an empty mapping yields 1.
    """
    qubits = _check_qubits(bits.keys(), state.num_qubits)
    if not qubits:
        return 1.0
    for q, bit in bits.items():
        if not _is_int(bit) or bit not in (0, 1):
            raise ValueError(f"bit for qubit {q} must be 0 or 1, got {bit!r}")
    assignment = sum(int(bit) << j for j, bit in enumerate(bits.values()))
    return float(marginal_distribution(state, qubits)[assignment])


def marginal_distribution(state: QuantumState, qubits: Sequence[int]) -> np.ndarray:
    """Joint distribution over a qubit subset.

    Entry ``a`` is the probability that qubit ``qubits[j]`` reads bit ``j``
    of ``a``, for all ``j`` simultaneously.
    """
    n = state.num_qubits
    qubits = _check_qubits(qubits, n)
    probs = state.probabilities()
    if qubits == tuple(range(n)):
        return probs
    kept = sorted(qubits, reverse=True)  # axis order of the kept qubits
    summed = probs.reshape((2,) * n).sum(
        axis=tuple(n - 1 - q for q in range(n) if q not in qubits)
    )
    return summed.transpose([kept.index(q) for q in reversed(qubits)]).reshape(-1)


def _inverse_cdf(distribution: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Map uniforms in [0, 1) to indices in basis order; zero-probability bins unreachable.

    Takes over ``distribution``, a fresh array: the CDF is built in place
    in it and marked read-only, so a lookup can be shared.
    """
    cum = np.add.accumulate(distribution, out=distribution)
    cum /= cum[-1]
    cum.setflags(write=False)
    return functools.partial(cum.searchsorted, side="right")


def _draw_index(distribution: np.ndarray, u: float) -> int:
    return int(_inverse_cdf(distribution)(u))


def _project(state: QuantumState, bits: Mapping[int, int]) -> QuantumState:
    """Zero every amplitude inconsistent with ``bits`` and renormalize."""
    n = state.num_qubits
    index = [slice(None)] * n
    for q, bit in bits.items():
        index[n - 1 - q] = bit
    index = (*index, ...)  # a view even when every qubit is fixed
    kept = state.amplitudes.reshape((2,) * n)[index]
    norm = np.linalg.norm(kept)
    if norm == 0.0:
        raise ValueError(f"projection onto {dict(bits)} has zero probability")
    amps = np.zeros(state.dim, dtype=np.complex128)
    np.divide(kept, norm, out=amps.reshape((2,) * n)[index])
    return _owned(n, amps)


def measure_all(
    state: QuantumState, rng: RandomSource
) -> tuple[int, MeasurementOutcome]:
    """Sample a basis index by the Born rule and collapse onto it."""
    index = _draw_index(state.probabilities(), rng.uniform())
    n = state.num_qubits
    bits = {q: (index >> q) & 1 for q in range(n)}
    return index, MeasurementOutcome(bits, basis_state(n, index))


def measure_qubits(
    state: QuantumState, qubits: Sequence[int], rng: RandomSource
) -> MeasurementOutcome:
    """Measure a subset of qubits jointly; the rest may stay in superposition.

    The joint assignment is drawn directly from the subset's marginal
    distribution with a single uniform, then the state is projected once.
    """
    qubits = _check_qubits(qubits, state.num_qubits)
    if not qubits:
        return MeasurementOutcome({}, state)
    assignment = _draw_index(marginal_distribution(state, qubits), rng.uniform())
    bits = {q: (assignment >> j) & 1 for j, q in enumerate(qubits)}
    return MeasurementOutcome(bits, _project(state, bits))


def _check_shots(shots: int) -> int:
    """A shot count that is an integer >= 1, as an int, checked before any work."""
    if not _is_int(shots) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    return int(shots)


def _batch_counter(
    distribution: np.ndarray, batch: int
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Map a sorted batch of uniforms to its outcomes, ascending, and their counts.

    Takes over ``distribution``, a fresh array.  A draw ``u`` picks the
    outcome whose CDF interval ``[cdf[i-1], cdf[i])`` holds it, as
    ``_inverse_cdf`` does.  When the support (the nonzero bins) is no larger
    than a batch, an outcome's count is the draws below its CDF edge minus
    those below the previous edge: one lookup per outcome, not per draw.
    The CDF at the support is the full CDF there, since adding +0.0 never
    changes a float sum, so no 2^k CDF is built and ``distribution`` is not
    kept.  On either path, a bin too small to raise the CDF gets no draw.
    A support larger than the batch costs more to count at its edges than
    to look up each draw (seven times more at 2^20 outcomes and 1000
    shots), and holds several arrays of its size instead of one.
    """
    if np.count_nonzero(distribution) > batch:
        lookup = _inverse_cdf(distribution)

        def per_draw(uniforms):
            # Sorted draws make the lookups monotone, so each outcome is
            # one run of equal lookups.
            outcomes = lookup(uniforms)
            bounds = np.flatnonzero(outcomes[1:] != outcomes[:-1]) + 1
            bounds = np.concatenate(([0], bounds, [outcomes.size]))
            return outcomes[bounds[:-1]], np.diff(bounds)

        return per_draw
    support = np.flatnonzero(distribution)
    edges = distribution[support]
    np.add.accumulate(edges, out=edges)
    edges /= edges[-1]

    def per_outcome(uniforms):
        freq = np.diff(uniforms.searchsorted(edges, side="left"), prepend=0)
        drawn = np.flatnonzero(freq)
        return support[drawn], freq[drawn]

    return per_outcome


def sample_counts(
    state: QuantumState,
    shots: int,
    rng: RandomSource,
    qubits: Sequence[int] | None = None,
) -> dict[int, int]:
    """Repeated terminal measurement of a fixed state: counts per outcome.

    With ``qubits`` given, outcomes are packed over that subset with the
    highest qubit index as the most significant bit; otherwise outcomes are
    full basis indices.  Counts are in ascending outcome order.  One uniform
    is drawn per shot, in batches that are sorted and then counted: at the
    CDF edges of the support (its nonzero bins) when it is no larger than a
    batch, else one CDF lookup per draw.  Either way the counts are those
    of looking up every draw, in draw order, in the whole CDF.
    """
    shots = _check_shots(shots)
    if qubits is None:
        distribution = state.probabilities()
    else:
        distribution = marginal_distribution(state, sorted(_check_qubits(qubits, state.num_qubits)))
    count_batch = _batch_counter(distribution, min(shots, _SHOT_BATCH))
    del distribution  # the counter keeps what it needs
    # Batches draw the same stream as one call would, and counts are a
    # multiset, so batching and sorting leave them unchanged.
    counts: dict[int, int] = {}
    for start in range(0, shots, _SHOT_BATCH):
        uniforms = rng.uniforms(min(_SHOT_BATCH, shots - start))
        uniforms.sort()
        values, freq = count_batch(uniforms)
        for v, c in zip(values.tolist(), freq.tolist()):
            counts[v] = counts.get(v, 0) + c
    # One batch inserts its outcomes in ascending order already.
    return counts if shots <= _SHOT_BATCH else dict(sorted(counts.items()))


def is_product(state: QuantumState, left_qubits: Iterable[int]) -> bool:
    """True iff the state factors across (left_qubits, remaining qubits).

    The amplitude vector reshaped into a (left, rest) matrix has numerical
    rank 1 exactly for product states; checked via the second singular value.
    """
    n = state.num_qubits
    left = sorted(_check_qubits(left_qubits, n))
    if not left or len(left) == n:
        raise ValueError("left_qubits must be a nonempty proper subset")
    right = [q for q in range(n) if q not in left]
    axes = [n - 1 - q for q in left + right]
    matrix = state.amplitudes.reshape((2,) * n).transpose(axes).reshape(1 << len(left), -1)
    singular = np.linalg.svd(matrix, compute_uv=False)
    return bool(singular[1] < PRODUCT_TOLERANCE)
