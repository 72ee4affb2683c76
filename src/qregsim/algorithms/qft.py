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
gates keep their compiled kernel calls.  Its program is compiled once per
register width and run by the gate-sequence driver, ``gates._evolve``:
each qubit's fan of controlled phases shares that qubit, so the fusion
pass makes the fan one multiply of the half of the state where the qubit
is 1, split in several when it spans more than ``gates._FUSED_QUBITS``
lower qubits.  On a register that fits one kernel chunk (at most
``2**gates._CHUNK_QUBITS`` amplitudes), each Hadamard is one butterfly
over the whole state, and the last butterfly writes through the
qubit-reversal view, so the swap stage moves no amplitude of its own.  A
wider register keeps the Hadamards and swaps as gates, whose chunk walk
keeps the scratch to a few chunk rows.  Either way the output is bit for
bit the same, and the input state is copied once, unless its buffer was
handed over or the register is empty, and every op runs in place in that
copy.
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
    """The fused ladder on a ``num_qubits`` register, as ``gates._evolve``'s ops.

    A register above one kernel chunk gets the kernel ops.  In a smaller
    one each Hadamard becomes a ``gates._Butterfly`` over the whole state,
    and the swaps, which follow the last Hadamard, become its ``axes``.
    """
    ops = gates._fuse(_ladder(order, sign), num_qubits)
    if num_qubits > gates._CHUNK_QUBITS:
        return tuple(ops)
    program = []
    axes = list(range(num_qubits))
    for op in ops:
        gate = op.gate if isinstance(op, GateApplication) else None
        if gate is gates.HADAMARD:
            (q,) = op.targets
            program.append(gates._Butterfly((1 << (num_qubits - 1 - q), 2, 1 << q)))
        elif gate is gates.EXCHANGE:
            i, j = (num_qubits - 1 - q for q in op.targets)
            axes[i], axes[j] = axes[j], axes[i]
        else:
            program.append(op)
    if axes != sorted(axes):
        inverse = sorted(range(num_qubits), key=axes.__getitem__)
        program[-1] = program[-1]._replace(axes=tuple(inverse))
    return tuple(program)


def _transform(state: QuantumState, qubits: Sequence[int] | None, sign: int) -> QuantumState:
    n = state.num_qubits
    order = tuple(range(n)) if qubits is None else tuple(sorted(_check_qubits(qubits, n)))
    return gates._evolve(state.amplitudes, n, _program(order, n, sign))


def qft(state: QuantumState, qubits: Sequence[int] | None = None) -> QuantumState:
    """Apply the transform to a sub-register (default: the whole register).

    Sub-register significance follows qubit index order, matching the basis
    index convention.
    """
    return _transform(state, qubits, 1)


def inverse_qft(state: QuantumState, qubits: Sequence[int] | None = None) -> QuantumState:
    """Inverse transform; inverse_qft(qft(s)) recovers s."""
    return _transform(state, qubits, -1)
