"""Associative memory over superimposed bit patterns.

An n-qubit register stores up to 2**n distinct n-bit patterns as the
uniform superposition with amplitude 1/sqrt(p) on each - exponentially
more patterns than a comparable classical associative network holds.
Retrieval amplifies the stored patterns within a Hamming ball around the
query, reflecting about the memory state so support never leaves the
stored set.  The memory state is uniform over the p stored codes, so a
query measures as Grover search over those p codes in ascending order
(``grover._plane_draw``): one uniform, and no 2**n vector per query.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..measurement import RandomSource
from ..measurement import measure_all  # noqa: F401  (bound by perfbench/tracing.py)
from ..state import QuantumState, _check_num_qubits, _is_int, _owned
from .grover import _plane_draw, iteration_count
from .grover import amplify  # noqa: F401  (bound by perfbench/tracing.py)


@dataclass(frozen=True)
class PatternMemory:
    """Distinct stored bit patterns and their superposition state.

    The cached property ``_codes`` parses the patterns once, on the first
    query, for every query of this memory.
    """

    pattern_length: int
    patterns: tuple[str, ...]
    state: QuantumState

    @cached_property
    def _codes(self) -> np.ndarray:
        """The patterns as integers, in stored order (read-only array)."""
        codes = np.array([int(p, 2) for p in self.patterns], dtype=np.intp)
        codes.flags.writeable = False
        return codes


class QamResult(NamedTuple):
    pattern: str
    predicted_success: float


def _validate_pattern(pattern: str, length: int | None = None) -> str:
    if not pattern or set(pattern) - {"0", "1"}:
        raise ValueError(f"pattern must be a nonempty string of 0s and 1s, got {pattern!r}")
    if length is not None and len(pattern) != length:
        raise ValueError(
            f"pattern {pattern!r} has length {len(pattern)}, expected {length}"
        )
    return pattern


def qam_store(patterns: Iterable[str]) -> PatternMemory:
    """Store distinct equal-length bit patterns as their uniform superposition."""
    patterns = tuple(patterns)
    if not patterns:
        raise ValueError("cannot store an empty pattern set")
    length = len(_validate_pattern(patterns[0]))
    for pattern in patterns[1:]:
        _validate_pattern(pattern, length)
    if len(set(patterns)) != len(patterns):
        raise ValueError("stored patterns must be distinct")
    _check_num_qubits(length)
    amps = np.zeros(1 << length, dtype=np.complex128)
    amps[[int(p, 2) for p in patterns]] = 1.0 / math.sqrt(len(patterns))
    return PatternMemory(length, patterns, _owned(length, amps))


def qam_query(
    memory: PatternMemory, query: str, radius: int, rng: RandomSource
) -> QamResult:
    """Retrieve a stored pattern within Hamming distance ``radius`` of ``query``.

    Amplifies the matching patterns inside the memory superposition (the
    reflection is about the memory state, not the uniform state) and
    measures, drawing over the stored codes in ascending order.  Raises
    ValueError when no stored pattern is close enough, reporting the
    minimum achievable distance.
    """
    _validate_pattern(query, memory.pattern_length)
    if not _is_int(radius) or radius < 0:
        raise ValueError(f"radius must be an integer >= 0, got {radius!r}")
    radius = int(radius)
    codes = np.sort(memory._codes)
    distances = np.bitwise_count(codes ^ int(query, 2))
    marked = np.flatnonzero(distances <= radius)  # positions in ``codes``
    if not marked.size:
        raise ValueError(
            f"no stored pattern within distance {radius} of {query!r}; "
            f"closest is at distance {distances.min()}"
        )
    k, theta = iteration_count(marked.size, codes.size)
    outcome = codes[_plane_draw(codes.size, marked, k, theta, rng.uniform())]
    pattern = format(outcome, f"0{memory.pattern_length}b")
    return QamResult(pattern, math.sin((2 * k + 1) * theta) ** 2)
