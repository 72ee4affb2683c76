"""Quantum register states as normalized complex amplitude vectors.

An n-qubit register holds 2**n complex amplitudes indexed by basis index
``i``; bit ``q`` of ``i`` is the value of qubit ``q``, with qubit 0 the
least-significant (rightmost) position. States are immutable values:
every operation returns a new state and never mutates its inputs.

Input is checked once, where it enters, and a width against the cap before
anything is allocated. ``QuantumState(...)`` checks width, shape and norm.
Every module's integer arguments pass ``_is_int`` (an ``int`` or numpy
integer, never a ``bool``, float or string) and become ``int``; its qubit
lists pass ``_check_qubits``.  States the library builds from unit-norm
pieces are wrapped by ``_owned`` unchecked, gate sequences' output included:
every ``Gate`` is checked unitary where it is made.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

#: Upper bound on register width enforced by all constructors.  26 qubits of
#: complex doubles is 1 GiB of amplitudes; override with set_max_qubits() or,
#: from the CLI, the QREGSIM_MAX_QUBITS environment variable.
DEFAULT_MAX_QUBITS = 26

#: Tolerance on |norm - 1| for constructed states.
NORM_TOLERANCE = 1e-9

_max_qubits = DEFAULT_MAX_QUBITS


def _is_int(value) -> bool:
    """The integer rule: an ``int`` or numpy integer, but not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_qubits(qubits: Iterable, num_qubits: int | float = math.inf) -> tuple[int, ...]:
    """Distinct integer qubit indices in ``[0, num_qubits)``, as a tuple of ints."""
    checked = []
    for q in qubits:
        if not _is_int(q):
            raise ValueError(f"qubit index {q!r} is not an integer")
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range")
        checked.append(int(q))
    if len(set(checked)) != len(checked):
        raise ValueError(f"duplicate qubit indices in {tuple(checked)}")
    return tuple(checked)


def get_max_qubits() -> int:
    """Current register-width cap."""
    return _max_qubits


def set_max_qubits(cap: int) -> None:
    """Change the register-width cap (must be a positive integer).

    The cap is process-global, not per thread: set it once at startup.
    """
    global _max_qubits
    if not _is_int(cap) or cap < 1:
        raise ValueError(f"qubit cap must be a positive integer, got {cap!r}")
    _max_qubits = int(cap)


def _check_num_qubits(num_qubits: int) -> int:
    """A register width within the cap, as an int."""
    if not _is_int(num_qubits) or num_qubits < 1:
        raise ValueError(f"num_qubits must be a positive integer, got {num_qubits!r}")
    if num_qubits > _max_qubits:
        raise ValueError(
            f"num_qubits={num_qubits} exceeds the configured cap of {_max_qubits}"
        )
    return int(num_qubits)


#: Outcomes and basis indices are packed into int64, so at most 63 qubits
#: can be measured or enumerated.
_MAX_OUTCOME_BITS = 63


def _check_index_width(num_qubits: int) -> int:
    """A width within the cap whose basis indices fit int64 (np.intp)."""
    if _check_num_qubits(num_qubits) > _MAX_OUTCOME_BITS:
        raise ValueError(
            f"{num_qubits}-qubit basis indices do not fit int64; at most {_MAX_OUTCOME_BITS} qubits do"
        )
    return int(num_qubits)


def _check_index(index: int, num_qubits: int) -> None:
    if not _is_int(index) or not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index!r} out of range for {num_qubits} qubits")


class QuantumState:
    """Immutable n-qubit register state: 2**n unit-norm complex amplitudes.

    Construction checks the width, shape, finiteness and norm of its input
    (``copy=False`` skips only the copy) and marks the array read-only.
    """

    __slots__ = ("_num_qubits", "_amplitudes")

    def __init__(self, num_qubits: int, amplitudes, *, copy: bool = True):
        num_qubits = _check_num_qubits(num_qubits)
        amps = np.array(amplitudes, dtype=np.complex128, copy=copy or None)
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
        _check_index(index, self._num_qubits)
        return float(abs(self._amplitudes[index]) ** 2)

    def probabilities(self) -> np.ndarray:
        """All 2**n Born probabilities as a fresh array."""
        probs = np.abs(self._amplitudes)
        return np.square(probs, out=probs)

    def __repr__(self) -> str:
        return f"QuantumState(num_qubits={self._num_qubits})"


def _donated(num_qubits: int, amps: np.ndarray) -> QuantumState:
    """Wrap a unit-norm buffer, unchecked and writable, for a callee to take over.

    The gate driver updates a writable buffer in place instead of copying
    it, so the caller must use neither ``amps`` nor the state again, and
    reads only the callee's result.
    """
    state = QuantumState.__new__(QuantumState)
    state._num_qubits = num_qubits
    state._amplitudes = amps
    return state


def _owned(num_qubits: int, amps: np.ndarray) -> QuantumState:
    """Wrap a unit-norm buffer the caller hands over, unchecked and read-only."""
    amps.flags.writeable = False
    return _donated(num_qubits, amps)


def basis_state(num_qubits: int, index: int) -> QuantumState:
    """The computational basis state |index> on ``num_qubits`` qubits."""
    num_qubits = _check_num_qubits(num_qubits)
    _check_index(index, num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return _owned(num_qubits, amps)


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
    amps = np.array(amplitudes, dtype=np.complex128)
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
    combined = _check_num_qubits(a.num_qubits + b.num_qubits)
    return _owned(combined, np.kron(a.amplitudes, b.amplitudes))
