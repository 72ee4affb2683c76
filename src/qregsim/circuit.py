"""Gate programs: a line-oriented text format and multi-shot execution.

Circuit file grammar (UTF-8, one instruction per line, ``#`` comments;
lines end at LF, CRLF or CR as in a text-mode file, and other Unicode
separators such as form feed count as whitespace)::

    qubits 2
    h 1
    cnot 1 0
    measure all

Mnemonics are the keys of ``_GATES``, the one table ``parse`` and
``serialize`` read; operands are qubit indices with control qubits first,
and ``phase``/``cphase`` take a trailing finite angle in radians (decimal
literal).  ``measure`` names the terminally measured qubits (or ``all``)
and, when present, must be the last instruction.

``run`` evolves and samples only the qubits that can leave the
computational basis.  A qubit is one classical bit, 0 while idle, until a
dense gate (``h``, a custom gate that is not a 0/1 permutation) targets it,
or a permutation gate (``x``, ``cnot``, ``swap``, ``toffoli``,
``fredkin``) that also targets an evolved qubit; a diagonal gate (``id``,
``phase``, ``cphase``) never makes a qubit evolved.
``Circuit.final_state`` returns the whole register.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .gates import GateApplication
from .measurement import RandomSource, _check_shots, sample_counts
from .state import (
    _MAX_OUTCOME_BITS, QuantumState, _check_num_qubits, _check_qubits, _is_int, get_max_qubits,
)
from .state import basis_state  # noqa: F401  (bound by perfbench/tracing.py)


class CircuitParseError(ValueError):
    """Parse failure with 1-based line number context."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


#: The file format's gates by mnemonic, each with its factory if it takes an angle.
_GATES = {
    "id": (gates.IDENTITY, None),
    "x": (gates.NOT, None),
    "h": (gates.HADAMARD, None),
    "phase": (gates.phase_shift(0.0), gates.phase_shift),
    "cnot": (gates.CNOT, None),
    "cphase": (gates.controlled_phase(0.0), gates.controlled_phase),
    "swap": (gates.EXCHANGE, None),
    "toffoli": (gates.TOFFOLI, None),
    "fredkin": (gates.FREDKIN, None),
}
_LINE_BREAK = re.compile(r"\r\n?|\n")


@dataclass(frozen=True)
class Circuit:
    """An ordered gate program over a fixed register width.

    ``terminal_measure`` is the tuple of qubits measured at the end of every
    shot, or None meaning all of them.
    """

    num_qubits: int
    steps: tuple[GateApplication, ...] = ()
    terminal_measure: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.num_qubits
        if not _is_int(n) or n < 1:
            raise ValueError(f"num_qubits must be a positive integer, got {n!r}")
        object.__setattr__(self, "num_qubits", int(n))
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:  # a GateApplication's targets are checked but for width
            if max(step.targets) >= n:
                raise ValueError(f"step {step!r} targets a qubit outside the {n}-qubit register")
        if self.terminal_measure is not None:
            object.__setattr__(self, "terminal_measure", _check_qubits(self.terminal_measure, n))

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        """The measured qubits in ascending order (all of them by default)."""
        if self.terminal_measure is None:
            return tuple(range(self.num_qubits))
        return tuple(sorted(self.terminal_measure))

    def final_state(self) -> QuantumState:
        """Evolve |0...0> through every step (no measurement)."""
        _check_num_qubits(self.num_qubits)
        return _evolve_basis(self.num_qubits, 0, self.steps)


def _evolve_basis(num_qubits: int, index: int, steps) -> QuantumState:
    """Evolve the basis state |index> of a ``num_qubits`` register through ``steps``."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return gates._evolve(amps, num_qubits, gates._fuse(steps, num_qubits))


@dataclass(frozen=True)
class RunResult:
    """Shot counts per observed outcome, with seed provenance.

    Outcomes pack the measured qubits' bits with the highest qubit index as
    the most significant bit; ``num_bits`` is the packed width.
    """

    shots: int
    seed: int
    counts: dict[int, int] = field(compare=False)
    num_bits: int = 0

    def bitstring(self, outcome: int) -> str:
        return format(outcome, f"0{self.num_bits}b")


def _parse_int(token: str, line_number: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitParseError(line_number, f"expected {what}, got {token!r}") from None


def _stripped_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line not blank once its ``#`` comment is cut."""
    for line_number, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_number, line


def parse(text: str) -> Circuit:
    """Parse the circuit grammar; raises CircuitParseError with line numbers."""
    num_qubits: int | None = None
    steps: list[GateApplication] = []
    terminal: tuple[int, ...] | None = None
    saw_measure = False

    for line_number, line in _stripped_lines(text):
        tokens = line.split()
        word, operands = tokens[0], tokens[1:]

        if num_qubits is None:
            if word != "qubits":
                raise CircuitParseError(line_number, "expected 'qubits N' header")
            if len(operands) != 1:
                raise CircuitParseError(line_number, "'qubits' takes exactly one count")
            num_qubits = _parse_int(operands[0], line_number, "a qubit count")
            if num_qubits < 1:
                raise CircuitParseError(line_number, f"qubit count must be positive, got {num_qubits}")
            if num_qubits > get_max_qubits():
                raise CircuitParseError(
                    line_number,
                    f"qubit count {num_qubits} exceeds the configured cap of {get_max_qubits()}",
                )
            continue

        if saw_measure:
            raise CircuitParseError(line_number, "no instructions allowed after 'measure'")

        if word == "qubits":
            raise CircuitParseError(line_number, "duplicate 'qubits' header")

        if word == "measure":
            if not operands:
                raise CircuitParseError(line_number, "'measure' needs 'all' or qubit indices")
            if operands != ["all"]:
                qubit_list = [_parse_int(tok, line_number, "a qubit index") for tok in operands]
                try:
                    terminal = _check_qubits(qubit_list, num_qubits)
                except ValueError as exc:
                    raise CircuitParseError(line_number, str(exc)) from None
            saw_measure = True
            continue

        if word not in _GATES:
            raise CircuitParseError(line_number, f"unknown mnemonic {word!r}")
        gate, make = _GATES[word]
        arity = gate.arity
        if len(operands) != arity + (make is not None):
            raise CircuitParseError(
                line_number,
                f"{word!r} takes {arity} qubit index(es)"
                + (" and an angle" if make else "")
                + f", got {len(operands)} operand(s)",
            )
        qubit_ops = [_parse_int(tok, line_number, "a qubit index") for tok in operands[:arity]]
        # GateApplication checks the operands but for the register width.
        if max(qubit_ops) >= num_qubits:
            raise CircuitParseError(line_number, f"qubit {max(qubit_ops)} out of range")
        if make:
            try:
                phi = float(operands[arity])
            except ValueError:
                raise CircuitParseError(
                    line_number, f"expected an angle in radians, got {operands[arity]!r}"
                ) from None
        try:
            steps.append(GateApplication(make(phi) if make else gate, qubit_ops))
        except ValueError as exc:
            raise CircuitParseError(line_number, str(exc)) from None

    if num_qubits is None:
        raise CircuitParseError(1, "missing 'qubits N' header")
    return Circuit(num_qubits, tuple(steps), terminal)


def serialize(circuit: Circuit) -> str:
    """Render a circuit in the file grammar; parse(serialize(c)) == c.

    Phases are printed with full round-trip precision.  A circuit with no
    such text, as one with a custom gate or measuring no qubit, raises ValueError.
    """
    lines = [f"qubits {circuit.num_qubits}"]
    for i, step in enumerate(circuit.steps):
        gate, make = _GATES.get(step.gate.name, (None, None))
        if make and isinstance(step.gate.phi, float):
            gate = make(step.gate.phi)
        if gate != step.gate:
            raise ValueError(f"step {i}: {step.gate!r} is not a gate of the text format")
        angle = [repr(gate.phi)] if make else []
        lines.append(" ".join([gate.name, *map(str, step.targets), *angle]))
    measured = circuit.terminal_measure
    if measured == ():
        raise ValueError("a terminal_measure of no qubits has no text form")
    lines.append("measure " + ("all" if measured is None else " ".join(map(str, measured))))
    return "\n".join(lines) + "\n"


def _restricted(step: GateApplication, bits: list[int], entry: dict[int, int]):
    """A diagonal step on its kept targets, with each classical target
    fixed at its bit, or None when that leaves no kept target (a global
    phase) or only entries of 1."""
    kept = tuple(q for q in step.targets if q in entry)
    if not kept:
        return None
    index = tuple(slice(None) if q in entry else bits[q] for q in step.targets)
    entries = step.gate.matrix.diagonal().reshape((2,) * len(step.targets))[index].reshape(-1)
    if (entries == 1).all():
        return None
    return gates._bound(gates._unchecked(step.gate.name, len(kept), np.diag(entries)), kept)


def _split(circuit: Circuit) -> tuple[list[int], int, list[GateApplication], list[int]]:
    """One forward pass that splits the qubits into kept and classical ones.

    A qubit is kept once a dense step targets it, or a permutation step
    that targets a kept qubit; only kept qubits are evolved.  Any other
    qubit is in a basis state at every step, so it is tracked as one bit:
    a permutation step whose targets are all classical permutes their bits,
    and a diagonal step is restricted to its kept targets at the classical
    bits (``_restricted``).  A qubit enters the kept register in the bit it
    held when it was kept: until then no kept step targets it, so flipping
    it at the start commutes with every step before.

    Returns the kept qubits in ascending order, the basis index of the
    kept register to start from (bit ``i`` for ``kept[i]``), the steps on
    the original qubit labels, and every qubit's bit, final for a qubit
    that stays classical.
    """
    bits = [0] * circuit.num_qubits
    entry: dict[int, int] = {}  # kept qubit -> its bit when it was kept
    steps = []
    for step in circuit.steps:
        gate, targets = step.gate, step.targets
        if gate._changed is not None:
            if not all(q in entry for q in targets):
                step = _restricted(step, bits, entry)
            if step is not None:
                steps.append(step)
        elif gate._permutation is not None and entry.keys().isdisjoint(targets):
            index = 0
            for q in targets:  # the first target is the top bit
                index = index << 1 | bits[q]
            index = gate._permutation[index]
            for q in reversed(targets):
                bits[q], index = index & 1, index >> 1
        else:
            for q in targets:
                entry.setdefault(q, bits[q])
            steps.append(step)
    kept = sorted(entry)
    return kept, sum(entry[q] << i for i, q in enumerate(kept)), steps, bits


def run(circuit: Circuit, shots: int, seed: int) -> RunResult:
    """Execute a circuit: evolve |0...0> once, then sample ``shots`` outcomes.

    Only the qubits that can leave the computational basis are evolved
    and sampled (``_split``).  A qubit that no dense step targets, and no
    permutation step that also targets an evolved qubit, is one classical
    bit, so the register is a basis state of those bits times the state of
    the kept qubits, and a measured classical qubit reads its bit in every
    shot.  So the run holds a state of 2^k amplitudes for k kept qubits,
    not 2^n; ``Circuit.final_state`` still returns the whole register.
    Every run takes one path: the kept steps are relabelled onto qubits
    ``0..k-1``, and each compact outcome is deposited into the packed
    outcome, with the classical qubits' bits added.  When every qubit is
    kept, both are identities.  Counts and the draws taken are those of
    sampling the whole register, one uniform per shot.  Identical
    (circuit, shots, seed) produce identical counts.
    """
    shots = _check_shots(shots)
    rng = RandomSource(seed)
    _check_num_qubits(circuit.num_qubits)
    measured = circuit.measured_qubits
    if len(measured) > _MAX_OUTCOME_BITS:
        raise ValueError(
            f"{len(measured)} measured qubits do not pack into one outcome; "
            f"at most {_MAX_OUTCOME_BITS} do"
        )
    kept, start, steps, bits = _split(circuit)
    position = {q: i for i, q in enumerate(kept)}
    steps = [gates._bound(step.gate, tuple(position[q] for q in step.targets)) for step in steps]
    state = _evolve_basis(len(kept) or 1, start, steps)  # no kept qubit: sample one |0>
    live = [j for j, q in enumerate(measured) if q in position]
    constant = sum(bits[q] << j for j, q in enumerate(measured) if q not in position)
    counts = sample_counts(state, shots, rng, qubits=[position[measured[j]] for j in live])
    # Bit i of a compact outcome is bit live[i] of the packed one, and each
    # classical qubit adds its bit. The deposit keeps the order and the bits
    # are fixed, so the counts stay in ascending order.
    outcomes = np.fromiter(counts, dtype=np.int64, count=len(counts))
    packed = np.full_like(outcomes, constant)
    for i, j in enumerate(live):
        packed |= ((outcomes >> i) & 1) << j
    counts = dict(zip(packed.tolist(), counts.values()))
    return RunResult(shots=shots, seed=rng.seed, counts=counts, num_bits=len(measured))
