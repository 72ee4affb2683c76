"""Quantum Fourier transform built from Hadamards and controlled phases.

The transform maps |j> to 2**(-n/2) * sum_k exp(2*pi*i*j*k / 2**n) |k>,
extended linearly.  It is compiled to the standard ladder: for each qubit
from the most significant down, a Hadamard followed by controlled phase
rotations pi/2, pi/4, ... conditioned on the lower qubits, finished by a
qubit-reversal swap stage.  The inverse is the same ladder with every
phase negated: the transform's matrix F is symmetric, so F^-1 = F^dagger =
conj(F), and H and swap are real, so conjugating the ladder negates its
phases and keeps its order.  On a sub-register the transform is
P^T (I x F) P for a qubit permutation P, and the same holds.

Each ladder, per register and phase sign, is built once and reused, so its
gates keep their compiled kernel calls.  Its kernel program is cached
beside it, once per register width: each qubit's fan of controlled phases
shares that qubit, so the fusion pass makes the fan one multiply of the
half of the state where the qubit is 1, split in several when it spans
more than ``gates._FUSED_QUBITS`` lower qubits.  A transform runs its program
through the gate-sequence driver, which copies the input state once,
before the first op, and runs every op in place in that copy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .. import gates
from ..gates import GateApplication
from ..state import QuantumState, _check_qubits


def qft_applications(qubits: Sequence[int]) -> list[GateApplication]:
    """Gate sequence realizing the transform on a sub-register.

    ``qubits`` lists the register's qubit indices; significance follows the
    listed order with the last entry most significant.
    """
    return list(_ladder(_check_qubits(qubits), 1))


@lru_cache(maxsize=16)
def _ladder(order: tuple[int, ...], sign: int) -> tuple[GateApplication, ...]:
    """The ladder on ``order`` with each phase ``sign * pi / 2**d``."""
    steps: list[GateApplication] = []
    m = len(order)
    for i in range(m - 1, -1, -1):
        steps.append(GateApplication(gates.HADAMARD, (order[i],)))
        for d in range(1, i + 1):
            phi = sign * math.pi / (1 << d)
            steps.append(
                GateApplication(gates.controlled_phase(phi), (order[i - d], order[i]))
            )
    for i in range(m // 2):
        steps.append(GateApplication(gates.EXCHANGE, (order[i], order[m - 1 - i])))
    return tuple(steps)


@lru_cache(maxsize=16)
def _program(order: tuple[int, ...], num_qubits: int, sign: int) -> tuple:
    """The ladder's kernel ops on a ``num_qubits`` register."""
    return tuple(gates._fuse(_ladder(order, sign), num_qubits))


def _resolve_qubits(state: QuantumState, qubits: Sequence[int] | None) -> tuple[int, ...]:
    if qubits is None:
        return tuple(range(state.num_qubits))
    return tuple(sorted(_check_qubits(qubits, state.num_qubits)))


def qft(state: QuantumState, qubits: Sequence[int] | None = None) -> QuantumState:
    """Apply the transform to a sub-register (default: the whole register).

    Sub-register significance follows qubit index order, matching the basis
    index convention.
    """
    program = _program(_resolve_qubits(state, qubits), state.num_qubits, 1)
    return gates._evolve(state.amplitudes, state.num_qubits, program)


def inverse_qft(state: QuantumState, qubits: Sequence[int] | None = None) -> QuantumState:
    """Inverse transform; inverse_qft(qft(s)) recovers s."""
    program = _program(_resolve_qubits(state, qubits), state.num_qubits, -1)
    return gates._evolve(state.amplitudes, state.num_qubits, program)
