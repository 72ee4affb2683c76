"""Quantum Fourier transform built from Hadamards and controlled phases.

The transform maps |j> to 2**(-n/2) * sum_k exp(2*pi*i*j*k / 2**n) |k>,
extended linearly.  It is compiled to the standard ladder: for each qubit
from the most significant down, a Hadamard followed by controlled phase
rotations pi/2, pi/4, ... conditioned on the lower qubits, finished by a
qubit-reversal swap stage.  Each ladder, forward and inverse, is built
once per register and reused, so its gates keep their kernel plans.  A
transform runs its ladder through the gate-sequence driver, which copies
the input state once, before the first Hadamard, and runs every step in
place in that copy.
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
    return list(_forward_ladder(_check_qubits(qubits)))


@lru_cache(maxsize=16)
def _forward_ladder(order: tuple[int, ...]) -> tuple[GateApplication, ...]:
    steps: list[GateApplication] = []
    m = len(order)
    for i in range(m - 1, -1, -1):
        steps.append(GateApplication(gates.HADAMARD, (order[i],)))
        for d in range(1, i + 1):
            phi = math.pi / (1 << d)
            steps.append(
                GateApplication(gates.controlled_phase(phi), (order[i - d], order[i]))
            )
    for i in range(m // 2):
        steps.append(GateApplication(gates.EXCHANGE, (order[i], order[m - 1 - i])))
    return tuple(steps)


@lru_cache(maxsize=16)
def _inverse_ladder(order: tuple[int, ...]) -> tuple[GateApplication, ...]:
    """The forward ladder reversed, every controlled phase negated."""
    inverted = []
    for step in reversed(_forward_ladder(order)):
        gate = step.gate
        if gate.phi is not None:
            gate = gates.controlled_phase(-gate.phi)
        inverted.append(GateApplication(gate, step.targets))
    return tuple(inverted)


def _resolve_qubits(state: QuantumState, qubits: Sequence[int] | None) -> tuple[int, ...]:
    if qubits is None:
        return tuple(range(state.num_qubits))
    return tuple(sorted(_check_qubits(qubits, state.num_qubits)))


def qft(state: QuantumState, qubits: Sequence[int] | None = None) -> QuantumState:
    """Apply the transform to a sub-register (default: the whole register).

    Sub-register significance follows qubit index order, matching the basis
    index convention.
    """
    ladder = _forward_ladder(_resolve_qubits(state, qubits))
    return gates._evolve(state.amplitudes, state.num_qubits, ladder)


def inverse_qft(state: QuantumState, qubits: Sequence[int] | None = None) -> QuantumState:
    """Inverse transform; inverse_qft(qft(s)) recovers s."""
    ladder = _inverse_ladder(_resolve_qubits(state, qubits))
    return gates._evolve(state.amplitudes, state.num_qubits, ladder)
