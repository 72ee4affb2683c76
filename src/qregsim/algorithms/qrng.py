"""Random bit generation by Hadamard superposition and measurement.

An M-qubit register prepared with a Hadamard on every qubit has amplitude
2**(-M/2) on all 2**M basis states; measuring it yields M uniform bits.
Chunking repeats the round ceil(N/M) times so a small register (even one
qubit) can produce arbitrarily many bits.
"""

from __future__ import annotations

from ..measurement import _SHOT_BATCH, RandomSource, _inverse_cdf
from ..measurement import measure_all  # noqa: F401  (bound by perfbench/tracing.py)
from ..state import get_max_qubits
from .grover import uniform_superposition


def qrng(num_bits: int, chunk: int, rng: RandomSource) -> int:
    """A uniform integer in [0, 2**num_bits) built from chunked measurement.

    Runs ceil(num_bits / chunk) rounds of prepare-Hadamard-measure on a
    ``chunk``-qubit register; round r supplies bits r*chunk upward, and
    surplus high bits of the last round are discarded.
    """
    if num_bits < 1:
        raise ValueError(f"num_bits must be >= 1, got {num_bits}")
    if not 1 <= chunk <= get_max_qubits():
        raise ValueError(
            f"chunk must be between 1 and the qubit cap {get_max_qubits()}, got {chunk}"
        )
    rounds = -(-num_bits // chunk)
    # Every round measures the same prepared state, and its post-state is
    # never read, so each round is one uniform through one shared CDF,
    # drawn in batches of the same stream that one draw per round reads.
    lookup = _inverse_cdf(uniform_superposition(chunk).probabilities())
    value = 0
    for start in range(0, rounds, _SHOT_BATCH):
        outcomes = lookup(rng.uniforms(min(_SHOT_BATCH, rounds - start)))
        for r, outcome in enumerate(outcomes.tolist(), start):
            value |= outcome << (r * chunk)
    return value & ((1 << num_bits) - 1)
