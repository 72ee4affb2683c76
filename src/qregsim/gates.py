"""Gate definitions and the tensor-view amplitude-update kernel.

Every gate is a small unitary matrix over its bound qubits.  The matrix
basis follows the register convention: the first bound qubit is the most
significant bit of the matrix row/column index, so CNOT with targets
``[control, target]`` is the familiar ``[[1,0,0,0],[0,1,0,0],[0,0,0,1],
[0,0,1,0]]``.  Applying a gate never materializes the full 2**n x 2**n
operator: on the ``[2]*n`` tensor view (qubit ``q`` on axis ``n-1-q``), each
output slice of the target axes sums input slices weighted by a matrix row.
The kernel keeps that axis order but merges each run of adjacent non-target
axes into one dimension, with the view's shape, transpose and chunk walk
computed once per target tuple and register width.  One driver runs every
gate sequence, from a single ``apply`` to a whole circuit or transform: it
copies a caller's read-only amplitudes once and updates that one buffer in
place for every gate, with a scratch buffer of a few chunk rows.  Every
``Gate`` is checked unitary where it is made, so a gate sequence maps a
unit-norm state to a unit-norm state and its output is not checked again.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .state import QuantumState, _check_qubits, _is_int, _owned

#: Per-entry tolerance for the unitarity check U^dagger U = I.
UNITARY_TOLERANCE = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: Non-target qubits per kernel chunk: 2**14 amplitudes (256 KiB) per row
#: slice, so a one-qubit gate's chunk and scratch rows fit in a 2 MiB L2 cache.
_CHUNK_QUBITS = 14


class _Plan(NamedTuple):
    """How ``_update`` applies one gate in place.

    ``rows`` lists each row the gate writes, with its nonzero (column,
    entry) terms; identity rows are skipped, and a unitary has no all-zero
    row.  Indices are bit tuples with a trailing Ellipsis, so they
    index views even when the gate spans every axis.  ``parked`` lists the
    rows copied to scratch before any row is written: those another row
    reads and those a multi-term row reads.  A row that only scales itself
    is updated where it is.  ``reads`` lists every row a written row reads,
    which a gate on every qubit parks instead, and ``products`` says whether
    a multi-term row needs a scratch row for its scaled terms.
    """

    rows: tuple[tuple[tuple, tuple[tuple[tuple, complex], ...]], ...]
    parked: tuple[tuple, ...]
    reads: tuple[tuple, ...]
    products: bool


@dataclass(frozen=True, eq=False, repr=False)
class Gate:
    """A named unitary acting on a fixed number of qubits.

    Gates are immutable, hashable values.  Use the module-level constants
    (IDENTITY, NOT, HADAMARD, CNOT, EXCHANGE, TOFFOLI, FREDKIN) and the
    factories phase_shift(), controlled_phase() and custom_gate().

    The constructor checks that ``arity`` is a positive integer and the
    matrix is 2**arity square, finite and unitary (every entry of
    U^dagger U within UNITARY_TOLERANCE of the identity), and stores a
    read-only copy, so the caller's array stays writable.  Every gate is
    thus a checked unitary, and no gate sequence checks its output state
    again.  Equality compares the name, ``phi`` and the matrix entries; the
    hash uses the name and ``phi``.
    """

    name: str
    arity: int
    matrix: np.ndarray
    phi: float | None = None

    def __post_init__(self):
        if not _is_int(self.arity) or self.arity < 1:
            raise ValueError(f"arity must be a positive integer, got {self.arity!r}")
        object.__setattr__(self, "arity", int(self.arity))
        matrix = np.array(self.matrix, dtype=np.complex128)
        # Array dimensions stay below 2**63, so no larger power of two is
        # built or printed: a huge arity fails fast, with this message.
        dim = 1 << min(self.arity, 63)
        if matrix.shape != (dim, dim):
            size = f"{dim}x{dim}" if self.arity < 63 else f"2**{self.arity}-square"
            raise ValueError(f"gate {self.name!r} needs a {size} matrix, got shape {matrix.shape}")
        # A non-finite entry makes the deviation NaN or inf, which fails too.
        with np.errstate(invalid="ignore"):
            deviation = np.abs(matrix.conj().T @ matrix - np.eye(dim))
        worst = divmod(int(np.argmax(deviation)), dim)  # the first NaN, if any
        if not deviation[worst] <= UNITARY_TOLERANCE:
            raise ValueError(
                f"gate {self.name!r} matrix is not a finite unitary: max deviation "
                f"{deviation[worst]:.3e} at entry {worst}"
            )
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @cached_property
    def _plan(self) -> _Plan | None:
        """How the kernel applies this gate; None for the identity.

        Built on first use, once per gate, so gates never applied cost
        nothing here.
        """
        terms = [
            tuple((c, u) for c, u in enumerate(row) if u)
            for row in self.matrix.tolist()
        ]
        written = [r for r, t in enumerate(terms) if t != ((r, 1),)]
        if not written:
            return None
        reads = {c for r in written for c, _ in terms[r]}
        parked = {c for r in written for c, _ in terms[r] if c != r or len(terms[r]) > 1}
        bits = [(*b, ...) for b in itertools.product((0, 1), repeat=self.arity)]
        return _Plan(
            rows=tuple((bits[r], tuple((bits[c], u) for c, u in terms[r])) for r in written),
            parked=tuple(bits[c] for c in sorted(parked)),
            reads=tuple(bits[c] for c in sorted(reads)),
            products=any(len(terms[r]) > 1 for r in written),
        )

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
    """A user-supplied unitary on ``arity`` qubits, checked like every Gate."""
    return Gate("custom", arity, entries)


def matrix_of(gate: Gate) -> np.ndarray:
    """The gate's unitary matrix (read-only view)."""
    return gate.matrix


@dataclass(frozen=True, repr=False)
class GateApplication:
    """A gate bound to an ordered tuple of distinct target qubits.

    Control qubits come first: CNOT is [control, target], Toffoli is
    [control1, control2, target], Fredkin is [control, swap_a, swap_b].
    Any sequence of integer qubits is accepted and stored as a tuple of
    ints.  Applications are immutable, hashable values, equal when their
    gates and targets are.
    """

    gate: Gate
    targets: tuple[int, ...]

    def __post_init__(self):
        targets = _check_qubits(self.targets)
        if len(targets) != self.gate.arity:
            raise ValueError(
                f"gate {self.gate.name!r} acts on {self.gate.arity} qubit(s), "
                f"got targets {targets}"
            )
        object.__setattr__(self, "targets", targets)

    def __repr__(self) -> str:
        return f"GateApplication({self.gate!r}, targets={self.targets})"


class _Layout(NamedTuple):
    """How ``_update`` views a register for one target tuple.

    ``shape`` is the ``[2]*n`` register view (qubit ``q`` on axis ``n-1-q``)
    with each run of adjacent non-target axes on the same side of the chunk
    boundary merged into one dimension; a target axis stays one dimension of
    size 2.  ``order`` transposes it to the outer (chunk) dimensions, the
    target axes in gate order, then the inner dimensions.  ``chunks`` indexes
    every chunk of the outer dimensions, and ``scratch_shape`` is the shape
    of one row slice of one chunk.
    """

    shape: tuple[int, ...]
    order: tuple[int, ...]
    chunks: tuple[tuple[int, ...], ...]
    scratch_shape: tuple[int, ...]


# A layout holds one index tuple per chunk: about 170 KB for a one-qubit
# gate at 26 qubits, so a full cache stays far below one such state.
@lru_cache(maxsize=256)
def _layout(targets: tuple[int, ...], num_qubits: int, chunk_qubits: int) -> _Layout:
    """The view of a ``num_qubits`` register for a gate on ``targets``.

    Non-target axes above the lowest ``chunk_qubits`` of them are outer.
    The chunk size is part of the key, so a changed ``_CHUNK_QUBITS`` gets
    its own layout.
    """
    axes = [num_qubits - 1 - q for q in targets]
    rest = [a for a in range(num_qubits) if a not in axes]
    outer = set(rest[: max(0, len(rest) - chunk_qubits)])
    shape: list[int] = []
    target_dims: dict[int, int] = {}
    outer_dims: list[int] = []
    inner_dims: list[int] = []
    run = None  # whether the current run of non-target axes is outer
    for axis in range(num_qubits):
        if axis in axes:
            target_dims[axis] = len(shape)
            shape.append(2)
            run = None
        elif run == (axis in outer):
            shape[-1] *= 2
        else:
            run = axis in outer
            (outer_dims if run else inner_dims).append(len(shape))
            shape.append(2)
    order = outer_dims + [target_dims[a] for a in axes] + inner_dims
    chunks = tuple(itertools.product(*(range(shape[d]) for d in outer_dims)))
    scratch_shape = tuple(shape[d] for d in inner_dims)
    return _Layout(tuple(shape), tuple(order), chunks, scratch_shape)


def _update(plan: _Plan, targets, amps: np.ndarray) -> None:
    """Apply one gate plan to ``amps`` in place, unvalidated.

    On the ``[2]*n`` view, each row slice of the target axes becomes the sum
    of the row slices its matrix row reads, weighted by the entries; unit
    entries are slice copies.  Per chunk, the parked rows are copied to a
    scratch buffer first, so every row is written from scratch or, when it
    only scales itself, where it is.  The scratch holds the parked rows of
    one chunk plus, for a multi-term row, one row for its scaled terms: at
    most 2**k + 1 chunk rows for a k-qubit gate, allocated here and released
    on return.  The view comes from ``_layout``: qubit ``q`` stays on axis
    ``n-1-q``, but runs of adjacent non-target axes are merged, so each
    slice has at most one dimension per run instead of one per qubit.
    Non-target axes above the lowest ``_CHUNK_QUBITS`` are walked one chunk
    at a time, so the passes over one chunk's slices run in cache instead of
    streaming the whole state once per pass.
    """
    layout = _layout(targets, amps.size.bit_length() - 1, _CHUNK_QUBITS)
    # A gate on every qubit has one-amplitude slices, which numpy scales in
    # place with other rounding than out of place, so it parks every row it
    # reads.
    parked = plan.parked if layout.scratch_shape else plan.reads
    view = amps.reshape(layout.shape).transpose(layout.order)
    saved, product = {}, None
    if parked:
        shape = (len(parked) + plan.products, *layout.scratch_shape)
        scratch = np.empty(shape, dtype=np.complex128)
        saved = {r: scratch[i, ...] for i, r in enumerate(parked)}
        if plan.products:
            product = scratch[-1, ...]
    for chunk in layout.chunks:
        block = view[chunk]
        for r, row in saved.items():
            row[...] = block[r]
        for r, terms in plan.rows:
            dst = block[r]
            for j, (c, u) in enumerate(terms):
                part = saved[c] if c in saved else block[c]
                if j == 0:
                    if u == 1:
                        dst[...] = part
                    else:
                        np.multiply(part, u, out=dst)
                elif u == 1:
                    dst += part
                else:
                    dst += np.multiply(u, part, out=product)


def _evolve(amplitudes: np.ndarray, num_qubits: int, steps) -> QuantumState:
    """Run ``steps`` on unit-norm ``amplitudes`` in place; wrap the result unchecked.

    A writable ``amplitudes`` is a buffer the caller hands over.  A
    read-only one, such as a state's amplitudes, is copied once, before the
    first step that changes it, so the caller's array is never written.
    Every step then updates that one buffer.  Every gate is a checked
    unitary, so the result is unit-norm to rounding and is not validated.
    """
    owned = amplitudes.flags.writeable
    for step in steps:
        plan = step.gate._plan
        if plan is None:
            continue
        if not owned:
            amplitudes, owned = amplitudes.copy(), True
        _update(plan, step.targets, amplitudes)
    return _owned(num_qubits, amplitudes)


def apply(state: QuantumState, application: GateApplication) -> QuantumState:
    """Apply a gate to the given qubits of a register.

    Equivalent to multiplying by the gate embedded on its targets with
    identity elsewhere, at 2**(n-k) work per nonzero matrix entry: unit
    entries are slice copies, so permutation and diagonal gates only move or
    scale slices.  Returns a new state, not validated again since the gate
    is a checked unitary, or the input itself for the identity.
    """
    _check_qubits(application.targets, state.num_qubits)
    if application.gate._plan is None:
        return state
    return _evolve(state.amplitudes, state.num_qubits, (application,))
