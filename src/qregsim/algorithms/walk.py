"""Discrete-time coined walk on the line, next to its classical counterpart.

Each step applies the Hadamard coin to the internal 2-state coin, then
shifts the position by -1 (coin 0) or +1 (coin 1).  The position spread
grows linearly in the step count, against sqrt(t) for the classical
symmetric walk; comparing the two standard deviations exhibits the
ballistic-versus-diffusive gap.

After k steps the walk is supported on the k + 1 sites -k, -k+2, ..., k
alone (its light cone; Ambainis et al., STOC 2001), so step k touches
only those sites: O(steps**2 / 2) work and O(steps) memory in all.

A step applies sqrt(2) * H, the butterfly (a + b, a - b), with one add and
one subtract and no multiply, so each site is rounded once per step.  The
unnormalised step multiplies the norm by exactly sqrt(2); every
``_RESCALE_PERIOD`` steps the sites are multiplied by 2**-(period / 2),
and the squared magnitudes at the end by 0.5 ** (steps % period).  Both
factors are powers of two and exact in binary floating point, and the
magnitudes stay within 2**32 of the normalised walk's, far from overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..state import _check_num_qubits, _is_int

#: Default coin giving a left-right symmetric quantum distribution.
SYMMETRIC_COIN = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))

# Unnormalised steps between exact rescalings; even, so 2**-(period / 2)
# undoes them exactly.
_RESCALE_PERIOD = 64


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


def _check_steps(steps: int) -> int:
    """Steps as an int, rejecting non-integer or negative steps and walks over the cap.

    One coin qubit and ceil(log2(2*steps + 1)) position qubits, classical or quantum.
    """
    if not _is_int(steps) or steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps!r}")
    _check_num_qubits(1 + int(2 * steps).bit_length())
    return int(steps)


def quantum_walk_line(steps: int, coin_init=SYMMETRIC_COIN) -> WalkDistribution:
    """Hadamard-coined walk from position 0 with the given initial coin state."""
    steps = _check_steps(steps)
    coin = np.asarray(coin_init, dtype=np.complex128)
    if coin.shape != (2,):
        raise ValueError("coin_init must have exactly two amplitudes")
    if not np.isfinite(coin).all():
        raise ValueError("coin_init contains a non-finite entry")
    if abs(float(np.vdot(coin, coin).real) - 1.0) > 1e-9:
        raise ValueError("coin_init is not normalized")
    # After k steps, cur[j] holds coin 0 and right[steps - k + j] coin 1 at
    # position -k + 2j.  The shift moves coin 0 to j and coin 1 to j + 1 of
    # step k + 1, which are the same array entries, so right is updated in
    # place.  Coin 0 alternates between the two rows: step k reads cur on
    # [:k + 1] and writes nxt on [:k + 1] alone, so entry k + 1 of nxt is
    # still zero when the next step reads it.
    rows = np.zeros((2, steps + 1), dtype=np.complex128)
    right = np.zeros(steps + 1, dtype=np.complex128)
    rows[0, 0], right[steps] = coin
    cur, nxt = rows
    scale = 0.5 ** (_RESCALE_PERIOD // 2)
    for k in range(steps):
        a, b = cur[: k + 1], right[steps - k :]
        np.add(a, b, out=nxt[: k + 1])
        np.subtract(a, b, out=b)
        cur, nxt = nxt, cur
        if k % _RESCALE_PERIOD == _RESCALE_PERIOD - 1:
            cur *= scale
            right *= scale
    probabilities = np.zeros(2 * steps + 1)
    probabilities[::2] = np.abs(cur) ** 2 + np.abs(right) ** 2
    probabilities *= 0.5 ** (steps % _RESCALE_PERIOD)
    positions = np.arange(-steps, steps + 1)
    return WalkDistribution(steps, positions, probabilities)


def classical_walk_line(steps: int) -> WalkDistribution:
    """Exact symmetric binomial walk: P(2k - t) = C(t, k) / 2**t."""
    steps = _check_steps(steps)
    probabilities = np.zeros(2 * steps + 1)
    total = 1 << steps
    c = 1  # C(steps, k); C(t, k + 1) = C(t, k) * (t - k) / (k + 1) divides exactly
    for k in range(steps + 1):
        probabilities[2 * k] = c / total
        c = c * (steps - k) // (k + 1)
    positions = np.arange(-steps, steps + 1)
    return WalkDistribution(steps, positions, probabilities)
