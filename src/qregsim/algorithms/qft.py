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
register width: each qubit's fan of controlled phases shares that qubit,
so the fusion pass makes the fan one multiply of the half of the state
where the qubit is 1, split in several when it spans more than
``gates._FUSED_QUBITS`` lower qubits.  A register that fits one kernel
chunk (at most ``2**gates._CHUNK_QUBITS`` amplitudes) runs the program as
a flat list of stages, off the gate driver: each Hadamard is one butterfly
over the whole state, the kernel's own four ufunc calls into one scratch
state per transform, and the last butterfly writes through the
qubit-reversal view, so the swap stage moves no amplitude of its own.  Its
output is bit for bit the driver's.  A wider register runs the program
through the gate-sequence driver, whose chunk walk keeps the scratch to a
few chunk rows.  Either way the input state is copied once, unless its
buffer was handed over, and every stage runs in place in that copy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .. import gates
from ..gates import GateApplication
from ..state import QuantumState, _check_qubits, _owned

#: The Hadamard's entry as a 0-d array, as the kernel's compiled ``h`` holds it.
_ENTRY = np.array(gates.HADAMARD.matrix[0, 0])
_ENTRY.flags.writeable = False


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


class _Butterfly(NamedTuple):
    """A Hadamard on qubit ``q`` of the whole state, as the kernel computes it.

    On the ``(2**(n-1-q), 2, 2**q)`` view, with ``a`` and ``b`` the rows
    where the qubit is 0 and 1, it runs ``a·s → x``, ``s·b → y``,
    ``x + y → a`` and ``x − y → b`` with the kernel's operands, so each
    amplitude rounds as there.  ``axes``, when set, is the qubit-reversal
    transpose of the ``[2]*n`` view that the trailing swaps make: the two
    sums are then written through it, which leaves the swapped state.
    """

    shape: tuple[int, int, int]
    axes: tuple[int, ...] | None = None


@lru_cache(maxsize=16)
def _program(order: tuple[int, ...], num_qubits: int, sign: int) -> tuple:
    """The fused ladder on a ``num_qubits`` register, as ``(run, ops)``.

    A register above one kernel chunk gets ``gates._evolve`` and the
    kernel ops.  A smaller one gets ``_run`` and stages: a ``_Butterfly``
    for each Hadamard, the fused ``_Scale`` of each fan, and the kernel op
    of a fan of one controlled phase.  The swaps follow the last Hadamard,
    so they become its ``axes``.
    """
    ops = gates._fuse(_ladder(order, sign), num_qubits)
    if num_qubits > gates._CHUNK_QUBITS:
        return gates._evolve, tuple(ops)
    stages = []
    axes = list(range(num_qubits))
    for op in ops:
        gate = op.gate if isinstance(op, GateApplication) else None
        if gate is gates.HADAMARD:
            (q,) = op.targets
            stages.append(_Butterfly((1 << (num_qubits - 1 - q), 2, 1 << q)))
        elif gate is gates.EXCHANGE:
            i, j = (num_qubits - 1 - q for q in op.targets)
            axes[i], axes[j] = axes[j], axes[i]
        else:
            stages.append(op)
    if axes != sorted(axes):
        stages[-1] = stages[-1]._replace(axes=tuple(np.argsort(axes).tolist()))
    return _run, tuple(stages)


def _run(amplitudes: np.ndarray, num_qubits: int, stages) -> QuantumState:
    """Run ``_program``'s stages as ``gates._evolve`` runs kernel ops.

    A read-only ``amplitudes`` is copied once and a writable one is taken
    over.  The butterflies share one scratch state, whose two halves hold
    their ``x`` and ``y`` rows.
    """
    amps = amplitudes if amplitudes.flags.writeable else amplitudes.copy()
    low, high = np.empty((2, amps.size // 2), dtype=np.complex128)
    for stage in stages:
        if isinstance(stage, gates._Scale):
            amps.reshape(stage.shape)[stage.index] *= stage.factors
        elif isinstance(stage, _Butterfly):
            rows, _, span = stage.shape
            view = amps.reshape(stage.shape)
            a, b = view[:, 0], view[:, 1]
            x, y = low.reshape(rows, span), high.reshape(rows, span)
            np.multiply(a, _ENTRY, x)
            np.multiply(_ENTRY, b, y)
            if stage.axes is not None:
                # Nothing reads the rows again, so the sums land permuted.
                view = amps.reshape((2,) * num_qubits).transpose(stage.axes)
                above = (slice(None),) * (rows.bit_length() - 1)
                a, b = view[(*above, 0)], view[(*above, 1)]
                x, y = x.reshape(a.shape), y.reshape(b.shape)
            np.add(x, y, a)
            np.subtract(x, y, b)
        else:
            gates._update(stage.gate, stage.targets, amps)
    return _owned(num_qubits, amps)


def _resolve_qubits(state: QuantumState, qubits: Sequence[int] | None) -> tuple[int, ...]:
    if qubits is None:
        return tuple(range(state.num_qubits))
    return tuple(sorted(_check_qubits(qubits, state.num_qubits)))


def _transform(state: QuantumState, qubits: Sequence[int] | None, sign: int) -> QuantumState:
    run, program = _program(_resolve_qubits(state, qubits), state.num_qubits, sign)
    return run(state.amplitudes, state.num_qubits, program)


def qft(state: QuantumState, qubits: Sequence[int] | None = None) -> QuantumState:
    """Apply the transform to a sub-register (default: the whole register).

    Sub-register significance follows qubit index order, matching the basis
    index convention.
    """
    return _transform(state, qubits, 1)


def inverse_qft(state: QuantumState, qubits: Sequence[int] | None = None) -> QuantumState:
    """Inverse transform; inverse_qft(qft(s)) recovers s."""
    return _transform(state, qubits, -1)
