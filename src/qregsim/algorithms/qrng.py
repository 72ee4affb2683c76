"""Random bit generation by Hadamard superposition and measurement.

An M-qubit register prepared with a Hadamard on every qubit has amplitude
2**(-M/2) on all 2**M basis states; measuring it yields M uniform bits.
Chunking repeats the round ceil(N/M) times so a small register (even one
qubit) can produce arbitrarily many bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..measurement import _SHOT_BATCH, RandomSource, _inverse_cdf
from ..measurement import measure_all  # noqa: F401  (bound by perfbench/tracing.py)
from ..state import _is_int, get_max_qubits
from .grover import _CACHED_QUBITS, uniform_superposition


def _build_round_lookup(chunk: int):
    return _inverse_cdf(uniform_superposition(chunk).probabilities())


# The lookup's CDF is read-only, so small ones are shared across calls.
_round_lookup_cached = lru_cache(maxsize=8)(_build_round_lookup)


def qrng(num_bits: int, chunk: int, rng: RandomSource) -> int:
    """A uniform integer in [0, 2**num_bits) built from chunked measurement.

    Runs ceil(num_bits / chunk) rounds of prepare-Hadamard-measure on a
    ``chunk``-qubit register; round r supplies bits r*chunk upward, and
    surplus high bits of the last round are discarded.
    """
    if not _is_int(num_bits) or num_bits < 1:
        raise ValueError(f"num_bits must be an integer >= 1, got {num_bits!r}")
    if not _is_int(chunk) or not 1 <= chunk <= get_max_qubits():
        raise ValueError(
            f"chunk must be an integer from 1 to the qubit cap {get_max_qubits()}, got {chunk!r}"
        )
    num_bits, chunk = int(num_bits), int(chunk)
    rounds = -(-num_bits // chunk)
    # Every round measures the same prepared state, and its post-state is
    # never read, so each round is one uniform through one shared CDF,
    # drawn in batches of the same stream that one draw per round reads.
    if chunk <= _CACHED_QUBITS:
        lookup = _round_lookup_cached(chunk)
    else:
        lookup = _build_round_lookup(chunk)
    bits = np.empty((rounds, chunk), dtype=np.uint8)
    for start in range(0, rounds, _SHOT_BATCH):
        outcomes = lookup(rng.uniforms(min(_SHOT_BATCH, rounds - start)))
        octets = outcomes.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
        bits[start:start + len(octets)] = np.unpackbits(octets, 1, count=chunk, bitorder="little")
    return int.from_bytes(np.packbits(bits.reshape(-1)[:num_bits], bitorder="little"), "little")
