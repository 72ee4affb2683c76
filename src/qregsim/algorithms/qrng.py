"""Random bit generation by Hadamard superposition and measurement.

An M-qubit register prepared with a Hadamard on every qubit has amplitude
2**(-M/2) on all 2**M basis states; measuring it yields M uniform bits.
Chunking repeats the round ceil(N/M) times so a small register (even one
qubit) can produce arbitrarily many bits.

Every outcome of a round has probability 2**-M, so its Born draw from one
uniform ``u`` is ``floor(u * 2**M)``: no 2**M state or CDF is built.  A
uniform double is a multiple of 2**-53, so that floor is uniform only for
M <= 53, and wider rounds are refused.
"""

from __future__ import annotations

import numpy as np

from ..measurement import _SHOT_BATCH, RandomSource
from ..measurement import measure_all  # noqa: F401  (bound by perfbench/tracing.py)
from ..state import _is_int, get_max_qubits
from .grover import uniform_superposition  # noqa: F401  (bound by perfbench/tracing.py)

#: The widest round: a uniform double carries 53 random bits.
_UNIFORM_BITS = 53


def qrng(num_bits: int, chunk: int, rng: RandomSource) -> int:
    """A uniform integer in [0, 2**num_bits) built from chunked measurement.

    Runs ceil(num_bits / chunk) rounds of prepare-Hadamard-measure on a
    ``chunk``-qubit register; round r supplies bits r*chunk upward, and
    surplus high bits of the last round are discarded.  ``chunk`` is at
    most 53, the random bits one uniform double carries.
    """
    if not _is_int(num_bits) or num_bits < 1:
        raise ValueError(f"num_bits must be an integer >= 1, got {num_bits!r}")
    if not _is_int(chunk) or not 1 <= chunk <= get_max_qubits():
        raise ValueError(
            f"chunk must be an integer from 1 to the qubit cap {get_max_qubits()}, got {chunk!r}"
        )
    if chunk > _UNIFORM_BITS:
        raise ValueError(
            f"chunk {chunk} exceeds {_UNIFORM_BITS}, the random bits one uniform double carries"
        )
    num_bits, chunk = int(num_bits), int(chunk)
    rounds = -(-num_bits // chunk)
    value = 0
    # One uniform per round, drawn in batches of the same stream that one
    # draw per round reads; each batch's bits are ORed in as it is drawn.
    for start in range(0, rounds, _SHOT_BATCH):
        low = start * chunk
        batch = rng.uniforms(min(_SHOT_BATCH, rounds - start))
        value |= _packed_rounds(batch, chunk, num_bits - low) << low
    return value


def _packed_rounds(uniforms: np.ndarray, chunk: int, num_bits: int) -> int:
    """The low ``num_bits`` bits of the rounds ``floor(u * 2**chunk)``, first lowest.

    Scales ``uniforms`` in place, which is exact: a power of two times a
    multiple of 2**-53 below 1.
    """
    uniforms *= 2.0**chunk
    octets = uniforms.astype("<i8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets, 1, count=chunk, bitorder="little").reshape(-1)
    return int.from_bytes(np.packbits(bits[:num_bits], bitorder="little"), "little")
