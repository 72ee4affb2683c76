"""Quantum register states as normalized complex amplitude vectors.

An n-qubit register holds 2**n complex amplitudes indexed by basis index
``i``; bit ``q`` of ``i`` is the value of qubit ``q``, with qubit 0 the
least-significant (rightmost) position. States are immutable values:
every operation returns a new state and never mutates its inputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

#: Upper bound on register width enforced by all constructors.  26 qubits of
#: complex doubles is 1 GiB of amplitudes; override with set_max_qubits() or,
#: from the CLI, the QREGSIM_MAX_QUBITS environment variable.
DEFAULT_MAX_QUBITS = 26

#: Tolerance on |norm - 1| for constructed states.
NORM_TOLERANCE = 1e-9

_max_qubits = DEFAULT_MAX_QUBITS


def get_max_qubits() -> int:
    """Current register-width cap."""
    return _max_qubits


def set_max_qubits(cap: int) -> None:
    """Change the register-width cap (must be a positive integer)."""
    global _max_qubits
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"qubit cap must be a positive integer, got {cap!r}")
    _max_qubits = cap


def _check_num_qubits(num_qubits: int) -> None:
    if not isinstance(num_qubits, int) or num_qubits < 1:
        raise ValueError(f"num_qubits must be a positive integer, got {num_qubits!r}")
    if num_qubits > _max_qubits:
        raise ValueError(
            f"num_qubits={num_qubits} exceeds the configured cap of {_max_qubits}"
        )


class QuantumState:
    """Immutable n-qubit register state: 2**n unit-norm complex amplitudes."""

    __slots__ = ("_num_qubits", "_amplitudes")

    def __init__(self, num_qubits: int, amplitudes, *, copy: bool = True):
        _check_num_qubits(num_qubits)
        if copy:
            amps = np.array(amplitudes, dtype=np.complex128)
        else:
            amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        # A finite squared norm implies finite entries, so the entry scan
        # runs only to tell a non-finite entry from an overflowing norm.
        norm_sq = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm_sq) and not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes contain a non-finite entry")
        if abs(norm_sq - 1.0) > NORM_TOLERANCE:
            raise ValueError(
                f"amplitudes are not normalized: squared norm is {norm_sq!r}"
            )
        amps.flags.writeable = False
        self._num_qubits = num_qubits
        self._amplitudes = amps

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def dim(self) -> int:
        return 1 << self._num_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """The amplitude vector as a read-only array (not a copy)."""
        return self._amplitudes

    def probability(self, index: int) -> float:
        """Born probability |c_i|**2 of observing basis index ``index``."""
        self._check_index(index)
        return float(abs(self._amplitudes[index]) ** 2)

    def probabilities(self) -> np.ndarray:
        """All 2**n Born probabilities as a fresh array."""
        return np.abs(self._amplitudes) ** 2

    def _check_index(self, index: int) -> None:
        if not isinstance(index, (int, np.integer)) or not 0 <= index < self.dim:
            raise ValueError(
                f"basis index {index!r} out of range for {self._num_qubits} qubits"
            )

    def __repr__(self) -> str:
        return f"QuantumState(num_qubits={self._num_qubits})"


def basis_state(num_qubits: int, index: int) -> QuantumState:
    """The computational basis state |index> on ``num_qubits`` qubits."""
    _check_num_qubits(num_qubits)
    if not isinstance(index, (int, np.integer)) or not 0 <= index < (1 << num_qubits):
        raise ValueError(
            f"basis index {index!r} out of range for {num_qubits} qubits"
        )
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return QuantumState(num_qubits, amps, copy=False)


def from_amplitudes(
    num_qubits: int,
    amplitudes: Sequence[complex] | np.ndarray,
    *,
    normalize: bool = False,
) -> QuantumState:
    """Build a state from an explicit amplitude sequence (copied, not shared).

    Out-of-tolerance input is rejected rather than silently rescaled; pass
    ``normalize=True`` to opt in to rescaling by the computed norm.
    """
    _check_num_qubits(num_qubits)
    amps = np.array(amplitudes, dtype=np.complex128)
    if amps.shape != (1 << num_qubits,):
        raise ValueError(
            f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
            f"got {amps.size}"
        )
    if normalize:
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes contain a non-finite entry")
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero amplitude vector")
        amps /= norm
    return QuantumState(num_qubits, amps, copy=False)


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Tensor product a (x) b; ``a`` supplies the high-order (leftmost) qubits.

    The amplitude at index ``i_a * 2**n_b + i_b`` is ``a[i_a] * b[i_b]``.
    """
    combined = a.num_qubits + b.num_qubits
    _check_num_qubits(combined)
    amps = np.kron(a.amplitudes, b.amplitudes)
    return QuantumState(combined, amps, copy=False)
