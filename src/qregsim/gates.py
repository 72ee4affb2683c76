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
computed once per target tuple and register width.  The chunk walk covers
the axes above the cache-sized inner block and, on a wide register, the
run of at most four amplitudes below the lowest target, so that every pass
loops along a long dimension.  Before a gate writes any row of a chunk, each
input slice that a dense row reads is copied to scratch, or, when its
column holds one entry up to sign, multiplied by that entry once; a row of
such products is then one add or subtract per extra term.  Each gate's
matrix is compiled once into the flat list of ufunc calls it makes on a
chunk: an ``h`` is two column multiplies, one add and one subtract.  A
fusion pass turns a gate sequence into kernel ops: each run of adjacent
diagonal steps that change amplitudes only where some shared qubits are 1,
such as a qubit's fan of controlled phases in the Fourier ladder, becomes
one in-place multiply of that sub-block by the product of the steps'
entries.
Diagonal gates commute, so the result is the same to rounding, but one
multiply rounds differently in the last bits than the steps one by one.
One driver runs every op sequence, from a single ``apply`` to a whole
circuit or a Fourier transform wider than one chunk (a narrower one runs
its own butterfly stages, in ``algorithms.qft``): it copies a caller's
read-only amplitudes once and updates that one buffer in place for every
op, with a scratch buffer of a few chunk rows for a gate and none for a
fused run.
Every gate is unitary: ``Gate(...)`` and ``custom_gate`` check a matrix from
outside where the gate is made, and the module constants and phase
factories are unitary by construction.  So a gate sequence maps a unit-norm
state to a unit-norm state and its output is not checked again.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .state import QuantumState, _check_qubits, _is_int, _owned

#: Per-entry tolerance for the unitarity check U^dagger U = I.
UNITARY_TOLERANCE = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: Non-target qubits per kernel chunk: 2**14 amplitudes (256 KiB) per row
#: slice, so a one-qubit gate's chunk and scratch rows fit in a 2 MiB L2 cache.
_CHUNK_QUBITS = 14

#: A run of at most 2**2 amplitudes (64 B, one cache line) below a gate's
#: lowest target is walked as chunks, when the rest of the slice spans at
#: least 2**10 amplitudes; CHANGES.md has the sweep that set both.
_SHORT_RUN_QUBITS = 2
_LONG_SLICE_QUBITS = 10


class _Calls(NamedTuple):
    """The flat list of ufunc calls that ``_update`` makes on one chunk.

    Each call is ``(func, get)`` and runs as ``func(*get(slots))``, with its
    output last.  The slots are the ``rows`` scratch rows, then ``entries``
    as read-only 0-d arrays, then the chunk's block indexed by each of
    ``keys``: bit tuples with a trailing Ellipsis, so they index views even
    when the gate spans every axis.
    """

    rows: int
    entries: tuple[np.ndarray, ...]
    keys: tuple[tuple, ...]
    calls: tuple[tuple[Callable, Callable], ...]


def _copy(src: np.ndarray, dst: np.ndarray) -> None:
    dst[...] = src  # a slice copy is faster than a ufunc call


def _compile(matrix: np.ndarray, point: bool) -> _Calls:
    """The calls that apply ``matrix`` in place to one chunk.

    Identity rows are skipped, and a unitary has no all-zero row.  Before
    any row is written, columns are saved to scratch, one row each.  A
    column that a multi-term row reads, whose entry in every written row
    that reads it is ``u`` up to sign, and that is the first term of every
    such row or of none, is saved as its product with ``u``, in the operand
    order of a first term (``x·u``) or of a later one (``u·x``); a row then
    adds or subtracts it as it is.  Any other column that another row or a
    multi-term row reads is saved as it is.  A row that only scales itself
    reads its own column where it is, unless ``point``: slices of one
    amplitude, which numpy scales in place with other rounding than out of
    place, so every column a written row reads is saved.

    A row takes its first term as a copy, a negated product or a scaled
    slice, or, when its first two terms need no multiply, both in one add
    or subtract; each later term is one add or subtract, after a multiply
    into a spare (last) scratch row when it is scaled.
    """
    terms = [tuple((c, u) for c, u in enumerate(row) if u) for row in matrix.tolist()]
    written = [r for r, t in enumerate(terms) if t != ((r, 1),)]
    # Per column, its (entry, is a first term) in each written row.
    uses: dict[int, list[tuple[complex, bool]]] = {}
    for r in written:
        for j, (c, u) in enumerate(terms[r]):
            uses.setdefault(c, []).append((u, j == 0))
    shared = sorted({c for r in written if len(terms[r]) > 1 for c, _ in terms[r]})
    products = {}
    for c in shared:
        (u0, first0), *rest = uses[c]
        if all(u in (u0, -u0) and first == first0 for u, first in rest):
            products[c] = (u0, first0)
    copies = sorted(
        {c for r in written for c, _ in terms[r] if point or c != r or len(terms[r]) > 1}
        - products.keys()
    )
    bits = [(*b, ...) for b in itertools.product((0, 1), repeat=len(terms).bit_length() - 1)]
    saved = {c: ("scratch", i) for i, c in enumerate([*products, *copies])}
    spare = ("scratch", len(saved))
    entries: list[np.ndarray] = []
    keys: list[tuple] = []
    calls = []

    def call(func, *operands):
        calls.append((func, operands))

    def entry(u):
        value = np.array(u)
        value.flags.writeable = False  # shared by every call of the gate
        entries.append(value)
        return "entry", len(entries) - 1

    def block(c):
        if bits[c] not in keys:
            keys.append(bits[c])
        return "block", keys.index(bits[c])

    def term(c, u):
        """A term as (operand, entry still to multiply or None, add or subtract)."""
        if c in products:
            return saved[c], None, np.add if u == products[c][0] else np.subtract
        return saved.get(c) or block(c), None if u == 1 else u, np.add

    for c, (u, first) in products.items():
        operands = (block(c), entry(u)) if first else (entry(u), block(c))
        call(np.multiply, *operands, saved[c])
    for c in copies:
        call(_copy, block(c), saved[c])
    for r in written:
        dst = block(r)
        (part, u, op), *more = (term(c, u) for c, u in terms[r])
        if u is not None:
            call(np.multiply, part, entry(u), dst)
        elif op is np.subtract:
            call(np.negative, part, dst)
        elif more and more[0][1] is None:
            # The first two terms need no multiply: one pass combines them.
            (other, _, op), *more = more
            call(op, part, other, dst)
        else:
            call(_copy, part, dst)
        # Every column a multi-term row reads is saved.
        for part, u, op in more:
            if u is not None:
                call(np.multiply, entry(u), part, spare)
                part = spare
            call(op, dst, part, dst)
    rows = len(saved) + any(spare in operands for _, operands in calls)
    base = {"scratch": 0, "entry": rows, "block": rows + len(entries)}
    return _Calls(
        rows=rows,
        entries=tuple(entries),
        keys=tuple(keys),
        calls=tuple(
            (func, itemgetter(*(base[kind] + i for kind, i in operands)))
            for func, operands in calls
        ),
    )


@dataclass(frozen=True, eq=False, repr=False)
class Gate:
    """A named unitary acting on a fixed number of qubits.

    Gates are immutable, hashable values.  Use the module-level constants
    (IDENTITY, NOT, HADAMARD, CNOT, EXCHANGE, TOFFOLI, FREDKIN) and the
    factories phase_shift(), controlled_phase() and custom_gate().

    The constructor checks that ``arity`` is a positive integer and the
    matrix is 2**arity square, finite and unitary (every entry of
    U^dagger U within UNITARY_TOLERANCE of the identity), and stores a
    read-only copy, so the caller's array stays writable.  The module
    constants and the phase factories build unitaries by construction and
    skip that check; ``custom_gate`` keeps it.  Every gate is thus unitary,
    and no gate sequence checks its output state again.  Equality compares
    the name, ``phi`` and the matrix entries; the hash uses the name and
    ``phi``.
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
    def _changed(self) -> tuple[int, ...] | None:
        """The rows a diagonal gate changes, ``()`` for the identity, and
        None for a gate that is not diagonal.

        Built on first use, once per gate, so gates never applied cost
        nothing here.
        """
        rows = self.matrix.tolist()
        if any(u for r, row in enumerate(rows) for c, u in enumerate(row) if c != r):
            return None
        return tuple(r for r, row in enumerate(rows) if row[r] != 1)

    @cached_property
    def _permutation(self) -> tuple[int, ...] | None:
        """The row each column maps to for a 0/1 permutation matrix, and
        None for any other gate, a monomial one with phases included.

        Such a gate maps each basis state to a basis state, so on qubits
        in one it is classical logic.  Built on first use, as ``_changed``.
        """
        image: list[int | None] = [None] * (1 << self.arity)
        for r, row in enumerate(self.matrix.tolist()):
            for c, u in enumerate(row):
                if not u:
                    continue
                if u != 1 or image[c] is not None:
                    return None
                image[c] = r
        return tuple(image)

    @cached_property
    def _calls(self) -> _Calls:
        """The calls for slices of several amplitudes, compiled on first use.

        A fused diagonal gate is never compiled.
        """
        return _compile(self.matrix, False)

    @cached_property
    def _point_calls(self) -> _Calls:
        """The calls for a gate on every qubit, compiled on first use."""
        return _compile(self.matrix, True)

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


def _unchecked(name: str, arity: int, matrix, phi: float | None = None) -> Gate:
    """A gate whose matrix is unitary by construction, built without the check.

    Used for the module constants and the phase factories, whose matrices
    are permutations, a scaled Hadamard or ``diag(1, e^{i*phi})`` of a
    checked finite angle.  ``Gate(...)`` and ``custom_gate`` take matrices
    from outside and keep the check.  ``matrix`` is stored as it is when it
    is already a complex array, so callers pass a fresh one.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    matrix.flags.writeable = False
    gate = object.__new__(Gate)
    for field, value in (("name", name), ("arity", arity), ("matrix", matrix), ("phi", phi)):
        object.__setattr__(gate, field, value)
    return gate


IDENTITY = _unchecked("id", 1, np.eye(2))
NOT = _unchecked("x", 1, [[0, 1], [1, 0]])
HADAMARD = _unchecked("h", 1, np.array([[1, 1], [1, -1]]) * _SQRT1_2)
CNOT = _unchecked("cnot", 2, _permutation_matrix(2, {0b10: 0b11, 0b11: 0b10}))
EXCHANGE = _unchecked("swap", 2, _permutation_matrix(2, {0b01: 0b10, 0b10: 0b01}))
TOFFOLI = _unchecked("toffoli", 3, _permutation_matrix(3, {0b110: 0b111, 0b111: 0b110}))
FREDKIN = _unchecked("fredkin", 3, _permutation_matrix(3, {0b101: 0b110, 0b110: 0b101}))


def _finite_angle(phi: float) -> float:
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phase angle must be finite, got {phi!r}")
    return phi


def _phase_gate(name: str, arity: int, phi: float) -> Gate:
    """The identity on ``arity`` qubits with e^{i*phi} as its last entry."""
    phi = _finite_angle(phi)
    matrix = np.eye(1 << arity, dtype=np.complex128)
    matrix[-1, -1] = cmath.exp(1j * phi)
    return _unchecked(name, arity, matrix, phi)


def phase_shift(phi: float) -> Gate:
    """diag(1, e^{i*phi}): phase on the |1> component of one qubit."""
    return _phase_gate("phase", 1, phi)


def controlled_phase(phi: float) -> Gate:
    """Two-qubit diag(1, 1, 1, e^{i*phi}); symmetric in its qubits."""
    return _phase_gate("cphase", 2, phi)


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


def _bound(gate: Gate, targets: tuple[int, ...]) -> GateApplication:
    """``gate`` on ``targets``, built without the check, as ``_unchecked`` builds gates.

    For steps the library derives from checked ones, such as ``run``'s
    relabelled steps, whose targets are distinct ints of the right count
    by construction.
    """
    step = object.__new__(GateApplication)
    object.__setattr__(step, "gate", gate)
    object.__setattr__(step, "targets", targets)
    return step


class _Layout(NamedTuple):
    """How ``_update`` views a register for one target tuple.

    ``shape`` is the ``[2]*n`` register view (qubit ``q`` on axis ``n-1-q``)
    with each run of adjacent non-target axes on the same side of the chunk
    boundary merged into one dimension; a target axis stays one dimension of
    size 2.  ``order`` transposes it to the outer (chunk) dimensions, the
    target axes in gate order, then the inner dimensions.  ``outer`` holds
    one range per outer dimension, whose product indexes every chunk, and
    ``scratch_shape`` is the shape of one row slice of one chunk.  A layout
    holds a few short tuples, whatever the chunk count.
    """

    shape: tuple[int, ...]
    order: tuple[int, ...]
    outer: tuple[range, ...]
    scratch_shape: tuple[int, ...]


@lru_cache(maxsize=256)
def _layout(
    targets: tuple[int, ...], num_qubits: int, chunk_qubits: int, run_qubits: int, slice_qubits: int
) -> _Layout:
    """The view of a ``num_qubits`` register for a gate on ``targets``.

    Non-target axes above the lowest ``chunk_qubits`` of them are outer.  A
    short run, at most ``run_qubits`` qubits below the lowest target, is
    outer too when at least ``slice_qubits`` other non-target qubits remain.
    Each ufunc's inner loop then runs along a long strided dimension instead
    of a run of a few amplitudes.  The run stays within the lowest
    ``chunk_qubits``, so its 2 or 4 chunks together span what one chunk
    spans without the rule, and each revisits cache lines the one before it
    loaded.  Every constant the rule reads is part of the key, so a changed
    ``_CHUNK_QUBITS``, ``_SHORT_RUN_QUBITS`` or ``_LONG_SLICE_QUBITS`` gets
    its own layout.
    """
    axes = [num_qubits - 1 - q for q in targets]
    rest = [a for a in range(num_qubits) if a not in axes]
    low = min(targets)  # the run below the lowest target is the last `low` axes
    short = low if low <= run_qubits and len(rest) - low >= slice_qubits else 0
    outer = set(rest[: max(0, len(rest) - chunk_qubits)] + rest[len(rest) - short :])
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
    ranges = tuple(range(shape[d]) for d in outer_dims)
    scratch_shape = tuple(shape[d] for d in inner_dims)
    return _Layout(tuple(shape), tuple(order), ranges, scratch_shape)


def _update(gate: Gate, targets, amps: np.ndarray) -> None:
    """Apply ``gate`` to ``amps`` in place, unvalidated.

    On the ``[2]*n`` view, each row slice of the target axes becomes the sum
    of the row slices its matrix row reads, weighted by the entries; unit
    entries are slice copies.  Each chunk runs the gate's compiled call
    list (``_compile``), so an ``h`` is two column multiplies, one add and
    one subtract.  The scratch holds the saved rows of one chunk plus
    the spare row: at most 2**k + 1 chunk rows for a k-qubit gate,
    allocated here and released on return.  The view comes from
    ``_layout``: qubit ``q`` stays on axis ``n-1-q``, but runs of adjacent
    non-target axes are merged, so each slice has at most one dimension per
    run instead of one per qubit.  Non-target axes above the lowest
    ``_CHUNK_QUBITS`` are walked one chunk at a time, so the passes over one
    chunk's slices run in cache instead of streaming the whole state once
    per pass; so is a short run below the lowest target, so that no pass
    loops over a run of a few amplitudes.
    """
    layout = _layout(
        targets, amps.size.bit_length() - 1, _CHUNK_QUBITS, _SHORT_RUN_QUBITS, _LONG_SLICE_QUBITS
    )
    rows, entries, keys, calls = gate._calls if layout.scratch_shape else gate._point_calls
    view = amps.reshape(layout.shape).transpose(layout.order)
    fixed = []
    if rows:
        scratch = np.empty((rows, *layout.scratch_shape), dtype=np.complex128)
        fixed = [scratch[i, ...] for i in range(rows)]
    fixed += entries
    for chunk in itertools.product(*layout.outer):
        block = view[chunk]
        slots = fixed + [block[key] for key in keys]
        for func, get in calls:
            func(*get(slots))


#: Free qubits per fused diagonal run: each multiply holds at most 2**14
#: factors (256 KiB).  Read when a run is fused, never when one is applied.
_FUSED_QUBITS = 14


class _Scale(NamedTuple):
    """A fused run of diagonal steps: ``amps.reshape(shape)[index] *= factors``.

    ``shape`` is the ``[2]*n`` register view with each run of adjacent
    axes of one kind merged into one dimension: the run's shared qubits,
    its free qubits, or the qubits it does not touch.  ``index`` picks the
    all-ones row of every shared dimension, so the multiply touches only
    the sub-block where every shared qubit is 1.  ``factors`` holds the
    product of the steps' entries over each free dimension and is 1 along
    the untouched ones, so it broadcasts over the sub-block.
    """

    shape: tuple[int, ...]
    index: tuple
    factors: np.ndarray


def _scale(run, shared: frozenset, num_qubits: int) -> _Scale:
    """One multiply for ``run``, diagonal steps that change an amplitude
    only where every qubit of ``shared`` is 1.

    The factor of each free-qubit assignment is the product of the steps'
    entries there, taken in step order, out of place: numpy scales a single
    element in place with other rounding than it multiplies arrays.
    """
    free = sorted({q for step in run for q in step.targets} - shared, reverse=True)
    factors = np.ones((1,) + (2,) * len(free), dtype=np.complex128)
    for step in run:
        targets = step.targets
        entries = step.gate.matrix.diagonal().reshape((2,) * len(targets))
        entries = entries[(*(1 if q in shared else slice(None) for q in targets), ...)]
        own = [q for q in targets if q not in shared]
        entries = entries.transpose(sorted(range(len(own)), key=own.__getitem__, reverse=True))
        factors = factors * entries.reshape([1] + [2 if q in own else 1 for q in free])
    shape, index, factor_shape = [], [], []
    kind = None
    for q in range(num_qubits - 1, -1, -1):
        if kind == (q in shared, q in free):
            shape[-1] *= 2
            if q in free:
                factor_shape[-1] *= 2
            continue
        kind = (q in shared, q in free)
        shape.append(2)
        index.append(-1 if q in shared else slice(None))
        if q not in shared:
            factor_shape.append(2 if q in free else 1)
    factors = factors.reshape(factor_shape)
    factors.flags.writeable = False  # cached programs share it
    return _Scale(tuple(shape), tuple(index), factors)


def _fuse(steps, num_qubits: int):
    """The kernel ops for ``steps`` on a ``num_qubits`` register, in order.

    Identity steps are dropped.  A run of two or more adjacent diagonal
    steps (a gate with ``_changed`` rows) becomes one ``_Scale`` when some
    qubit must be 1 for every one of them to change an amplitude: diagonal
    gates commute, and each is the identity off the sub-block where those
    shared qubits are 1.  A run grows while it keeps a shared qubit and at
    most ``_FUSED_QUBITS`` free ones, so a longer fan is split into several
    multiplies.  Runs with no shared qubit stay separate steps, since one
    multiply would touch more of the state than they do, as does a run
    whose sub-block is a single amplitude.  Every other step is yielded as
    it is.
    """
    run: list[GateApplication] = []
    shared: frozenset = frozenset()
    touched: frozenset = frozenset()

    def flush():
        if len(run) > 1 and len(shared) < num_qubits:
            return (_scale(run, shared, num_qubits),)
        return tuple(run)

    for step in steps:
        changed = step.gate._changed
        if changed == ():
            continue
        if changed is None:
            if run:
                yield from flush()
                run = []
            yield step
            continue
        # The targets set in every changed row (the first target is its top bit).
        last = len(step.targets) - 1
        controls = frozenset(
            q for j, q in enumerate(step.targets) if all(r >> (last - j) & 1 for r in changed)
        )
        common, wider = shared & controls, touched.union(step.targets)
        if run and common and len(wider) - len(common) <= _FUSED_QUBITS:
            run.append(step)
            shared, touched = common, wider
            continue
        yield from flush()
        run, shared, touched = [step], controls, frozenset(step.targets)
    yield from flush()


def _evolve(amplitudes: np.ndarray, num_qubits: int, ops) -> QuantumState:
    """Run kernel ops on unit-norm ``amplitudes`` in place; wrap the result unchecked.

    ``ops`` are non-identity gate applications and fused runs, as ``_fuse``
    yields them.  A writable ``amplitudes`` is a buffer the caller hands
    over.  A read-only one, such as a state's amplitudes, is copied once,
    before the first op, so the caller's array is never written.  Every op
    then updates that one buffer.  Every gate is a checked unitary, so the
    result is unit-norm to rounding and is not validated.
    """
    owned = amplitudes.flags.writeable
    for op in ops:
        if not owned:
            amplitudes, owned = amplitudes.copy(), True
        if isinstance(op, _Scale):
            amplitudes.reshape(op.shape)[op.index] *= op.factors
        else:
            _update(op.gate, op.targets, amplitudes)
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
    if application.gate._changed == ():
        return state
    return _evolve(state.amplitudes, state.num_qubits, (application,))
