"""Discrete-time coined walk on the line, next to its classical counterpart.

Each step applies the Hadamard coin to the internal 2-state coin, then
shifts the position by -1 (coin 0) or +1 (coin 1).  The position spread
grows linearly in the step count, against sqrt(t) for the classical
symmetric walk; comparing the two standard deviations exhibits the
ballistic-versus-diffusive gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..gates import HADAMARD
from ..state import _check_num_qubits

#: Default coin giving a left-right symmetric quantum distribution.
SYMMETRIC_COIN = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))


@dataclass(frozen=True)
class WalkDistribution:
    """Position distribution after ``steps`` steps, over -steps..+steps."""

    steps: int
    positions: np.ndarray
    probabilities: np.ndarray

    def std(self) -> float:
        mean = float(np.dot(self.probabilities, self.positions))
        second = float(np.dot(self.probabilities, self.positions**2))
        return math.sqrt(max(second - mean * mean, 0.0))


def quantum_walk_line(steps: int, coin_init=SYMMETRIC_COIN) -> WalkDistribution:
    """Hadamard-coined walk from position 0 with the given initial coin state."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    # One coin qubit and ceil(log2(2*steps + 1)) position qubits, checked
    # against the cap before the (2*steps + 1, 2) register is allocated.
    _check_num_qubits(1 + int(2 * steps).bit_length())
    coin = np.asarray(coin_init, dtype=np.complex128)
    if coin.shape != (2,):
        raise ValueError("coin_init must have exactly two amplitudes")
    if abs(float(np.vdot(coin, coin).real) - 1.0) > 1e-9:
        raise ValueError("coin_init is not normalized")
    psi = np.zeros((2 * steps + 1, 2), dtype=np.complex128)
    psi[steps] = coin
    coin_op = HADAMARD.matrix
    for _ in range(steps):
        psi = psi @ coin_op.T
        shifted = np.zeros_like(psi)
        shifted[:-1, 0] = psi[1:, 0]
        shifted[1:, 1] = psi[:-1, 1]
        psi = shifted
    probabilities = (np.abs(psi) ** 2).sum(axis=1)
    positions = np.arange(-steps, steps + 1)
    return WalkDistribution(steps, positions, probabilities)


def classical_walk_line(steps: int) -> WalkDistribution:
    """Exact symmetric binomial walk: P(2k - t) = C(t, k) / 2**t."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    probabilities = np.zeros(2 * steps + 1)
    total = 1 << steps
    c = 1  # C(steps, k); C(t, k + 1) = C(t, k) * (t - k) / (k + 1) divides exactly
    for k in range(steps + 1):
        probabilities[2 * k] = c / total
        c = c * (steps - k) // (k + 1)
    positions = np.arange(-steps, steps + 1)
    return WalkDistribution(steps, positions, probabilities)
