"""Gate definitions and the tensor-view amplitude-update kernel.

Every gate is a small unitary matrix over its bound qubits.  The matrix
basis follows the register convention: the first bound qubit is the most
significant bit of the matrix row/column index, so CNOT with targets
``[control, target]`` is the familiar ``[[1,0,0,0],[0,1,0,0],[0,0,0,1],
[0,0,1,0]]``.  Applying a gate never materializes the full 2**n x 2**n
operator: on the ``[2]*n`` tensor view (qubit ``q`` on axis ``n-1-q``), each
output slice of the target axes sums input slices weighted by a matrix row.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Sequence

import numpy as np

from .state import QuantumState

#: Per-entry tolerance for the unitarity check U^dagger U = I.
UNITARY_TOLERANCE = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class Gate:
    """A named unitary acting on a fixed number of qubits.

    Instances are immutable.  Use the module-level constants (IDENTITY, NOT,
    HADAMARD, CNOT, EXCHANGE, TOFFOLI, FREDKIN) and the factories
    phase_shift(), controlled_phase() and custom_gate().
    """

    __slots__ = ("name", "arity", "matrix", "phi", "_rows")

    def __init__(self, name: str, arity: int, matrix: np.ndarray, phi: float | None = None):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (1 << arity, 1 << arity):
            raise ValueError(
                f"gate {name!r} needs a {1 << arity}x{1 << arity} matrix, "
                f"got shape {matrix.shape}"
            )
        matrix.flags.writeable = False
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "phi", phi)

    def __setattr__(self, key, value):
        raise AttributeError("Gate instances are immutable")

    def _terms(self):
        """Nonzero (column, entry) terms per matrix row; None for the identity.

        Indices are bit tuples with a trailing Ellipsis, so they index views
        even when the gate spans every axis; an all-zero row keeps one zero
        term.  Built on first apply, so gates never applied (inverse_qft's
        forward ladder) cost nothing here.
        """
        if not hasattr(self, "_rows"):
            bits = [(*b, ...) for b in itertools.product((0, 1), repeat=self.arity)]
            rows = [
                (index, [(bits[c], u) for c, u in enumerate(row) if u] or [(index, 0)])
                for index, row in zip(bits, self.matrix.tolist())
            ]
            identity = all(terms == [(index, 1)] for index, terms in rows)
            object.__setattr__(self, "_rows", None if identity else rows)
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.name == other.name
            and self.phi == other.phi
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.phi))

    def __repr__(self) -> str:
        if self.phi is not None:
            return f"Gate({self.name}, phi={self.phi!r})"
        return f"Gate({self.name})"


def _permutation_matrix(arity: int, mapping: dict[int, int]) -> np.ndarray:
    dim = 1 << arity
    m = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        m[mapping.get(col, col), col] = 1.0
    return m


IDENTITY = Gate("id", 1, np.eye(2))
NOT = Gate("x", 1, [[0, 1], [1, 0]])
HADAMARD = Gate("h", 1, np.array([[1, 1], [1, -1]]) * _SQRT1_2)
CNOT = Gate("cnot", 2, _permutation_matrix(2, {0b10: 0b11, 0b11: 0b10}))
EXCHANGE = Gate("swap", 2, _permutation_matrix(2, {0b01: 0b10, 0b10: 0b01}))
TOFFOLI = Gate("toffoli", 3, _permutation_matrix(3, {0b110: 0b111, 0b111: 0b110}))
FREDKIN = Gate("fredkin", 3, _permutation_matrix(3, {0b101: 0b110, 0b110: 0b101}))


def _finite_angle(phi: float) -> float:
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phase angle must be finite, got {phi!r}")
    return phi


def phase_shift(phi: float) -> Gate:
    """diag(1, e^{i*phi}): phase on the |1> component of one qubit."""
    phi = _finite_angle(phi)
    return Gate("phase", 1, np.diag([1.0, cmath.exp(1j * phi)]), phi=phi)


def controlled_phase(phi: float) -> Gate:
    """Two-qubit diag(1, 1, 1, e^{i*phi}); symmetric in its qubits."""
    phi = _finite_angle(phi)
    return Gate("cphase", 2, np.diag([1.0, 1.0, 1.0, cmath.exp(1j * phi)]), phi=phi)


def custom_gate(arity: int, entries) -> Gate:
    """A user-supplied unitary on ``arity`` qubits, validated on construction."""
    if not isinstance(arity, int) or arity < 1:
        raise ValueError(f"arity must be a positive integer, got {arity!r}")
    matrix = np.array(entries, dtype=np.complex128)
    dim = 1 << arity
    if matrix.shape != (dim, dim):
        raise ValueError(
            f"custom gate of arity {arity} needs a {dim}x{dim} matrix, "
            f"got shape {matrix.shape}"
        )
    if not (np.all(np.isfinite(matrix.real)) and np.all(np.isfinite(matrix.imag))):
        raise ValueError("custom gate matrix contains a non-finite entry")
    deviation = np.abs(matrix.conj().T @ matrix - np.eye(dim))
    worst = np.unravel_index(np.argmax(deviation), deviation.shape)
    if deviation[worst] > UNITARY_TOLERANCE:
        raise ValueError(
            "custom gate matrix is not unitary: max deviation "
            f"{deviation[worst]:.3e} at entry {tuple(int(i) for i in worst)}"
        )
    return Gate("custom", arity, matrix)


def matrix_of(gate: Gate) -> np.ndarray:
    """The gate's unitary matrix (read-only view)."""
    return gate.matrix


class GateApplication:
    """A gate bound to an ordered tuple of distinct target qubits.

    Control qubits come first: CNOT is [control, target], Toffoli is
    [control1, control2, target], Fredkin is [control, swap_a, swap_b].
    """

    __slots__ = ("gate", "targets")

    def __init__(self, gate: Gate, targets: Sequence[int]):
        targets = tuple(int(q) for q in targets)
        if len(targets) != gate.arity:
            raise ValueError(
                f"gate {gate.name!r} acts on {gate.arity} qubit(s), "
                f"got targets {targets}"
            )
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate target qubits in {targets}")
        if any(q < 0 for q in targets):
            raise ValueError(f"negative qubit index in {targets}")
        object.__setattr__(self, "gate", gate)
        object.__setattr__(self, "targets", targets)

    def __setattr__(self, key, value):
        raise AttributeError("GateApplication instances are immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GateApplication):
            return NotImplemented
        return self.gate == other.gate and self.targets == other.targets

    def __repr__(self) -> str:
        return f"GateApplication({self.gate!r}, targets={self.targets})"


def apply(state: QuantumState, application: GateApplication) -> QuantumState:
    """Apply a gate to the given qubits of a register.

    Equivalent to multiplying by the gate embedded on its targets with
    identity elsewhere, at 2**(n-k) work per nonzero matrix entry: unit
    entries are slice copies, so permutation and diagonal gates only move or
    scale slices.  Returns a new state, or the input itself for the identity.
    """
    n = state.num_qubits
    targets = application.targets
    if max(targets) >= n:
        raise ValueError(
            f"target qubit {max(targets)} out of range for {n}-qubit state"
        )
    rows = application.gate._terms()
    if rows is None:
        return state
    axes = [n - 1 - q for q in targets]
    order = axes + [a for a in range(n) if a not in axes]  # targets first
    source = state.amplitudes.reshape((2,) * n).transpose(order)
    out = np.empty(state.dim, dtype=np.complex128)
    view = out.reshape((2,) * n).transpose(order)
    for r, terms in rows:
        dst = view[r]
        for j, (c, u) in enumerate(terms):
            if j:
                dst += source[c] if u == 1 else u * source[c]
            elif u == 1:
                dst[...] = source[c]
            else:
                np.multiply(source[c], u, out=dst)
    return QuantumState(n, out, copy=False)
