"""Tests for the circuit text format, round-tripping, and multi-shot runs."""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import run_reference
from peak_memory import PeakMemory, peak_over_state
from qregsim import (
    CNOT,
    HADAMARD,
    IDENTITY,
    Circuit,
    CircuitParseError,
    Gate,
    GateApplication,
    RandomSource,
    apply,
    controlled_phase,
    custom_gate,
    from_amplitudes,
    get_max_qubits,
    parse_circuit,
    phase_shift,
    run_circuit,
    serialize_circuit,
    set_max_qubits,
)
from qregsim import circuit as circuit_mod
from qregsim import gates
from qregsim.algorithms import inverse_qft, qft
from qregsim.cli import main
from test_gates import _random_monomial, _random_unitary

BELL_TEXT = "qubits 2\nh 1\ncnot 1 0\nmeasure all\n"


class TestParse:
    def test_bell_circuit(self):
        circuit = parse_circuit(BELL_TEXT)
        assert circuit.num_qubits == 2
        assert circuit.steps == (
            GateApplication(HADAMARD, (1,)),
            GateApplication(CNOT, (1, 0)),
        )
        assert circuit.terminal_measure is None

    def test_equal_parses_hash_equal(self):
        text = "qubits 3\nh 0\nphase 1 0.5\ncnot 0 2\ncphase 2 1 -1.25\nmeasure 0 2\n"
        first, second = parse_circuit(text), parse_circuit(text)
        assert first == second and hash(first) == hash(second)
        assert len({first, second, parse_circuit(BELL_TEXT)}) == 2

    def test_phase_gate(self):
        circuit = parse_circuit("qubits 1\nphase 0 3.14159265")
        step = circuit.steps[0]
        assert step.gate.name == "phase"
        assert step.gate.phi == 3.14159265
        assert step.targets == (0,)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nqubits 2\n  # indented comment\nh 0  # trailing\nmeasure all\n"
        circuit = parse_circuit(text)
        assert len(circuit.steps) == 1

    def test_qubit_out_of_range_reports_line(self):
        with pytest.raises(CircuitParseError, match="line 2: qubit 5 out of range"):
            parse_circuit("qubits 2\nh 5")

    def test_unknown_mnemonic(self):
        with pytest.raises(CircuitParseError, match="line 2.*unknown mnemonic"):
            parse_circuit("qubits 2\nfoo 0")

    def test_bad_arity(self):
        with pytest.raises(CircuitParseError, match="line 3"):
            parse_circuit("qubits 3\nh 0\ncnot 1\n")

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("h 0\n")

    def test_duplicate_targets(self):
        with pytest.raises(CircuitParseError, match="line 2.*duplicate"):
            parse_circuit("qubits 2\ncnot 1 1\n")

    def test_measure_subset(self):
        circuit = parse_circuit("qubits 3\nh 2\nmeasure 2 0\n")
        assert circuit.terminal_measure == (2, 0)
        assert circuit.measured_qubits == (0, 2)

    def test_instructions_after_measure_rejected(self):
        with pytest.raises(CircuitParseError, match="line 3"):
            parse_circuit("qubits 2\nmeasure all\nh 0\n")

    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_line(self, separator):
        # A text-mode file and an editor show these characters mid-line.
        with pytest.raises(CircuitParseError, match="line 1: 'qubits' takes exactly one") as info:
            parse_circuit(f"qubits 2{separator}foo 1")
        assert info.value.line_number == 1
        with pytest.raises(CircuitParseError, match="line 3: qubit 7 out of range"):
            parse_circuit(f"qubits 2\nh 0{separator}\nh 7\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_endings_counted_like_text_mode(self, newline):
        text = newline.join(["qubits 2", "", "h 0", "foo 1", ""])
        with pytest.raises(CircuitParseError, match="line 4: unknown mnemonic 'foo'"):
            parse_circuit(text)

    def test_bad_phase_literal(self):
        with pytest.raises(CircuitParseError, match="angle"):
            parse_circuit("qubits 1\nphase 0 pi\n")

    def test_qubit_count_above_cap_reports_line(self):
        cap = get_max_qubits()
        parse_circuit(f"qubits {cap}\nmeasure all\n")
        with pytest.raises(CircuitParseError, match=f"line 2: qubit count {cap + 1} exceeds"):
            parse_circuit(f"# header\nqubits {cap + 1}\nh 0\n")
        with pytest.raises(CircuitParseError, match="line 1: qubit count 40 exceeds"):
            parse_circuit("qubits 40\n")

    @pytest.mark.parametrize("instruction", ["phase 1", "cphase 0 1"])
    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_angle_reports_line(self, instruction, angle):
        with pytest.raises(CircuitParseError, match="line 3: phase angle must be finite"):
            parse_circuit(f"qubits 2\nh 0\n{instruction} {angle}\nmeasure all\n")


@st.composite
def _any_circuit(draw):
    """(circuit, whether it surely has a text form), built from table gates,
    raw gates under a table name with the table's or another unitary, angle
    gates without ``phi``, custom gates and any ``terminal_measure``."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps, has_text = [], True
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(list(circuit_mod._GATES)))
        gate, make = circuit_mod._GATES[name]
        angle = draw(st.floats(-10, 10))
        kind = draw(st.sampled_from(["table", "raw", "no-phi", "custom"]))
        if kind == "table":
            gate = make(angle) if make else gate
        elif kind == "raw":
            arity = draw(st.integers(1, 3))
            same = arity == gate.arity and draw(st.booleans())
            gate = Gate(name, arity, gate.matrix if same else _random_unitary(arity, rng),
                        phi=gate.phi)
        elif kind == "no-phi":
            gate = Gate(name, gate.arity, (make(angle) if make else gate).matrix)
        else:
            gate = custom_gate(gate.arity, _random_unitary(gate.arity, rng))
        if gate.arity <= n:
            steps.append(GateApplication(gate, draw(st.permutations(range(n)))[:gate.arity]))
            has_text &= kind == "table"
    terminal = draw(st.one_of(
        st.none(), st.just(()),
        st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(tuple),
    ))
    return Circuit(n, tuple(steps), terminal), has_text and terminal != ()


class TestSerialize:
    def test_bell_round_trip(self):
        circuit = parse_circuit(BELL_TEXT)
        assert serialize_circuit(circuit) == BELL_TEXT
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_empty_circuit(self):
        assert serialize_circuit(Circuit(3)) == "qubits 3\nmeasure all\n"

    def test_phase_precision(self):
        phi = math.pi / 4
        circuit = Circuit(1, (GateApplication(phase_shift(phi), (0,)),))
        round_tripped = parse_circuit(serialize_circuit(circuit))
        assert round_tripped.steps[0].gate.phi == phi

    def test_random_circuits_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            circuit = _random_circuit(rng)
            assert parse_circuit(serialize_circuit(circuit)) == circuit

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        circuit = _random_circuit(np.random.default_rng(seed))
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_custom_gate_has_no_mnemonic(self):
        from qregsim import custom_gate

        circuit = Circuit(1, (GateApplication(custom_gate(1, np.eye(2)), (0,)),))
        with pytest.raises(ValueError, match="custom"):
            serialize_circuit(circuit)

    @pytest.mark.parametrize("circuit", [
        pytest.param(Circuit(1, (GateApplication(Gate("x", 1, HADAMARD.matrix), (0,)),)),
                     id="x-named-hadamard"),
        pytest.param(Circuit(1, (GateApplication(Gate("phase", 1, phase_shift(0.5).matrix), (0,)),)),
                     id="phase-without-phi"),
        pytest.param(Circuit(2, (GateApplication(HADAMARD, (1,)),), ()), id="measure-nothing"),
    ])
    def test_circuit_with_no_text_form_raises(self, circuit):
        with pytest.raises(ValueError):
            serialize_circuit(circuit)

    def test_numpy_float_angle_round_trips(self):
        gate = Gate("phase", 1, phase_shift(0.5).matrix, phi=np.float64(0.5))
        circuit = Circuit(1, (GateApplication(gate, (0,)),))
        assert serialize_circuit(circuit) == "qubits 1\nphase 0 0.5\nmeasure all\n"
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_circuit_wider_than_the_cap_serializes(self):
        cap = get_max_qubits()
        circuit = Circuit(cap + 1, (GateApplication(CNOT, (cap, 0)),), (cap,))
        text = serialize_circuit(circuit)
        assert text == f"qubits {cap + 1}\ncnot {cap} 0\nmeasure {cap}\n"
        set_max_qubits(cap + 1)
        try:
            assert parse_circuit(text) == circuit
        finally:
            set_max_qubits(cap)

    @settings(max_examples=300, deadline=None)
    @given(_any_circuit())
    def test_serialize_refuses_or_round_trips(self, drawn):
        """Every circuit either has no text form or round-trips, and one of
        table gates and a nonempty measurement always has one."""
        circuit, has_text = drawn
        try:
            text = serialize_circuit(circuit)
        except ValueError:
            assert not has_text
            return
        assert parse_circuit(text) == circuit


_FUZZ_TOKENS = st.sampled_from(
    sorted(circuit_mod._GATES)
    + ["qubits", "measure", "all", "#", "0", "1", "2", "3", "-1", "40", "1e400",
       "nan", "-inf", "0.5", "x1", "٣", "1_0", "\x0c", "\u2028", "\r", "\n", "\r\n"]
)


class TestParserFuzz:
    """Any text parses to a Circuit or fails with a CircuitParseError."""

    @staticmethod
    def _parse_or_error(text):
        try:
            return parse_circuit(text)
        except CircuitParseError as exc:
            assert exc.line_number >= 1
            return exc

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        self._parse_or_error(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_FUZZ_TOKENS, max_size=6), max_size=8))
    def test_token_soup(self, lines):
        body = "\n".join(" ".join(tokens) for tokens in lines)
        self._parse_or_error(body)
        circuit = self._parse_or_error("qubits 4\n" + body)
        if isinstance(circuit, Circuit):
            assert parse_circuit(serialize_circuit(circuit)) == circuit


class TestRun:
    def test_bell_support_and_counts(self):
        result = run_circuit(parse_circuit(BELL_TEXT), 100_000, seed=7)
        assert set(result.counts) <= {0, 3}
        bound = 5 * math.sqrt(100_000 * 0.25)
        for outcome in (0, 3):
            assert abs(result.counts[outcome] - 50_000) < bound

    def test_empty_circuit_all_zero(self):
        result = run_circuit(Circuit(3), 500, seed=1)
        assert result.counts == {0: 500}

    def test_deterministic(self):
        circuit = parse_circuit("qubits 1\nh 0\nmeasure all\n")
        first = run_circuit(circuit, 10_000, seed=99)
        second = run_circuit(circuit, 10_000, seed=99)
        assert first.counts == second.counts

    def test_support_matches_analytic_probabilities(self):
        # GHZ-like 3-qubit circuit: support only on |000> and |111>.
        text = "qubits 3\nh 2\ncnot 2 1\ncnot 1 0\nmeasure all\n"
        result = run_circuit(parse_circuit(text), 20_000, seed=5)
        assert set(result.counts) <= {0, 7}

    def test_subset_measurement_packs_by_qubit_order(self):
        # Qubit 1 always reads 1; measuring [1] yields outcome 1 every shot.
        text = "qubits 2\nx 1\nmeasure 1\n"
        result = run_circuit(parse_circuit(text), 100, seed=3)
        assert result.counts == {1: 100}
        assert result.num_bits == 1

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            run_circuit(Circuit(1), 0, seed=1)

    @pytest.mark.parametrize("shots", [2.5, 1000.0, "10", None, np.float64(4), True])
    def test_non_integer_shots_rejected_before_evolving(self, monkeypatch, shots):
        def evolve(*args):
            raise AssertionError("evolved before the shot count was checked")

        monkeypatch.setattr(gates, "_evolve", evolve)
        with pytest.raises(ValueError, match="shots must be an integer"):
            run_circuit(parse_circuit(BELL_TEXT), shots, seed=1)

    def test_bitstring_rendering(self):
        result = run_circuit(parse_circuit(BELL_TEXT), 10, seed=2)
        assert result.bitstring(3) == "11"

    def test_idle_qubits_read_zero(self):
        # Qubits 0 and 2 are idle; measured qubit 2 sits between live ones.
        text = "qubits 5\nh 1\ncnot 1 3\nx 4\nmeasure 4 3 2 1\n"
        result = run_circuit(parse_circuit(text), 1000, seed=4)
        assert set(result.counts) == {0b1000, 0b1101}
        assert result.num_bits == 4

    @pytest.mark.parametrize("shape", ["empty", "id-only", "idle-measured", "mixed", "classical"])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_counts_and_draws_equal_the_whole_register_run(self, shape, seed):
        rng = np.random.default_rng(seed)
        _assert_whole_register_run(_sparse_circuit(rng, shape), int(rng.integers(1, 3000)), seed)

    @pytest.mark.parametrize("text, kept, start, targets", [
        # q2 reads 1, and so does q1, flipped by a cnot of two classical bits.
        pytest.param("qubits 3\nx 2\nh 0\ncnot 2 1\nmeasure all\n", [0], 0, [(0,)],
                     id="measured-classical-reads-1"),
        # q1 is kept at 1; then q2, given q0's 1 by a swap, is kept at 1.
        pytest.param("qubits 2\nx 1\nh 1\ncnot 1 0\nmeasure all\n", [0, 1], 0b10,
                     [(1,), (1, 0)], id="flipped-before-dense"),
        pytest.param("qubits 3\nx 0\nswap 0 2\nh 2\nmeasure 2 1\n", [2], 1, [(2,)],
                     id="swapped-in-before-dense"),
        # cphase with q2 = 1 is a phase on q0.
        pytest.param("qubits 3\nx 2\nh 0\ncphase 2 0 0.7\nh 0\nmeasure all\n", [0], 0,
                     [(0,), (0,), (0,)], id="restricted-diagonal"),
        # A phase on a classical 1 is a global phase; cphase on a classical 0 is 1.
        pytest.param("qubits 3\nx 1\nphase 1 1.1\nh 0\ncphase 2 0 0.4\nh 0\nmeasure all\n",
                     [0], 0, [(0,), (0,)], id="dropped-global-phase"),
    ])
    def test_classical_qubits_equal_the_whole_register_run(self, text, kept, start, targets):
        circuit = parse_circuit(text)
        split = circuit_mod._split(circuit)
        assert split[:2] == (kept, start)
        assert [step.targets for step in split[2]] == targets
        for seed in range(20):
            _assert_whole_register_run(circuit, 1000, seed)


def _assert_whole_register_run(circuit, shots, seed):
    """``run_circuit`` gives the counts of ``run_reference``, in order, and
    draws as many uniforms: one per shot."""
    sources = []

    class Recording(RandomSource):
        def __init__(self, seed):
            super().__init__(seed)
            sources.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(circuit_mod, "RandomSource", Recording)
        result = run_circuit(circuit, shots, seed)
    reference_rng = RandomSource(seed)
    expected = run_reference(circuit, shots, reference_rng)
    assert list(result.counts.items()) == list(expected.counts.items())
    assert result.num_bits == expected.num_bits
    assert [s.draw_count for s in sources] == [reference_rng.draw_count] == [shots]


def _random_circuit(rng):
    n = int(rng.integers(1, 6))
    steps = []
    for _ in range(int(rng.integers(0, 12))):
        gate, make = circuit_mod._GATES[rng.choice(list(circuit_mod._GATES))]
        if gate.arity > n:
            continue
        targets = tuple(int(q) for q in rng.choice(n, size=gate.arity, replace=False))
        if make:
            gate = make(float(rng.uniform(-math.pi, math.pi)))
        steps.append(GateApplication(gate, targets))
    if rng.random() < 0.5:
        terminal = None
    else:
        size = int(rng.integers(1, n + 1))
        terminal = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
    return Circuit(n, tuple(steps), terminal)


def _sparse_circuit(rng, shape):
    """A circuit on 1-8 qubits whose steps target a random subset of them.

    ``shape`` is ``"empty"`` (no steps), ``"id-only"``, ``"idle-measured"``
    (every measured qubit idle), ``"mixed"``: each mnemonic that fits on
    the live qubits, a dense and a monomial custom gate, and random repeats,
    or ``"classical"``: permutation and diagonal mnemonics on the live
    qubits while they are in a basis state, then a dense gate on some of
    them, then more of those mnemonics.
    """
    n = int(rng.integers(2 if shape == "idle-measured" else 1, 9))
    live_count = int(rng.integers(1, n if shape == "idle-measured" else n + 1))
    live = [int(q) for q in rng.permutation(n)[:live_count]]
    steps = []
    if shape == "id-only":
        steps = [GateApplication(IDENTITY, (int(rng.choice(live)),))
                 for _ in range(int(rng.integers(1, 6)))]
    elif shape == "mixed":
        arity = min(2, live_count)
        angles = rng.uniform(-math.pi, math.pi, 2)
        kinds = [custom_gate(arity, _random_unitary(arity, rng)),
                 custom_gate(arity, _random_monomial(arity, rng)),
                 phase_shift(angles[0]),
                 *(gate for gate, make in circuit_mod._GATES.values() if make is None)]
        if live_count > 1:
            kinds.append(controlled_phase(angles[1]))
        kinds = [gate for gate in kinds if gate.arity <= live_count]
        kinds += [kinds[int(rng.integers(len(kinds)))] for _ in range(int(rng.integers(0, 10)))]
        for i in rng.permutation(len(kinds)):
            targets = rng.choice(live, size=kinds[i].arity, replace=False)
            steps.append(GateApplication(kinds[i], targets))
    elif shape == "classical":
        angles = iter(rng.uniform(-math.pi, math.pi, 40))
        kinds = [make(next(angles)) if make else gate
                 for word, (gate, make) in circuit_mod._GATES.items() if word != "h"]
        kinds = [gate for gate in kinds if gate.arity <= live_count]
        arity = 1 if live_count < 3 else int(rng.integers(1, 3))  # some live qubits stay classical
        dense = [custom_gate(arity, _random_unitary(arity, rng)), HADAMARD]
        chosen = [kinds[int(rng.integers(len(kinds)))] for _ in range(int(rng.integers(0, 12)))]
        chosen += [dense[int(rng.integers(2))]]
        chosen += [kinds[int(rng.integers(len(kinds)))] for _ in range(int(rng.integers(0, 6)))]
        for gate in chosen:
            steps.append(GateApplication(gate, rng.choice(live, size=gate.arity, replace=False)))
    if shape == "idle-measured":
        pool = [q for q in range(n) if q not in live]
    elif rng.random() < 0.5:
        return Circuit(n, tuple(steps))  # measure all
    else:
        pool = list(range(n))
    measure = rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False)
    return Circuit(n, tuple(steps), tuple(int(q) for q in measure))


def _every_mnemonic_text(rnd, n, h_layer):
    """An H layer on ``h_layer`` qubits, then each mnemonic once in random order."""
    table = circuit_mod._GATES
    lines = [f"qubits {n}"] + [f"h {q}" for q in sorted(rnd.sample(range(n), h_layer))]
    for word in rnd.sample(sorted(table), len(table)):
        gate, make = table[word]
        tokens = [word] + [str(q) for q in rnd.sample(range(n), gate.arity)]
        if make:
            tokens.append(repr(rnd.uniform(-math.pi, math.pi)))
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\nmeasure all\n"


class TestMemory:
    """Evolution holds one state plus chunk-bounded scratch; sampling adds one
    probability array (half a state) and the shot batch."""

    N = 18
    # At most two chunk rows of scratch (every library gate saves two
    # columns, an h as products) and numpy's 256 KiB of ufunc iteration
    # buffers, whatever the register width: 0.1875 of an 18-qubit state.
    SCRATCH = ((2 << gates._CHUNK_QUBITS) * 16 + (256 << 10)) / (16 << N)
    BOUND = 1.0 + SCRATCH + 0.01
    # The state and its probabilities, then the batch of 2^16 shots being
    # counted: about 36 B a shot, 48 B allowed.
    RUN_BOUND = 1.5 + (1 << 16) * 48 / (16 << N)

    # The seeded circuits touch 12-13 of the 18 qubits, and ``run`` evolves
    # the 4-9 of them that can leave the computational basis; the
    # full-width case holds the whole register. Its h layer
    # spreads 2^16 shots over about 51,000 outcomes, and a dict of that many
    # counts is itself about one state, which the bound leaves out; so it
    # takes 2^10 shots.
    @pytest.mark.parametrize("k, h_layer, shots",
                             [pytest.param(k, 4, 1 << 16, id=str(k)) for k in range(3)]
                             + [pytest.param(0, N, 1 << 10, id="full-width")])
    def test_peak_within_bound(self, k, h_layer, shots):
        circuit = parse_circuit(_every_mnemonic_text(random.Random(k), self.N, h_layer))
        assert peak_over_state(circuit.final_state, self.N) <= self.BOUND
        assert peak_over_state(lambda: run_circuit(circuit, shots, k), self.N) <= self.RUN_BOUND

    @pytest.mark.parametrize("transform", [
        pytest.param(lambda s: qft(s), id="qft"),
        pytest.param(lambda s: inverse_qft(s, [0, 3, 5, 17]), id="inverse_qft"),
        pytest.param(lambda s: apply(s, GateApplication(HADAMARD, (0,))), id="apply-h"),
        pytest.param(lambda s: apply(s, GateApplication(controlled_phase(0.3), (5, 6))),
                     id="apply-cphase"),
    ])
    def test_read_only_input_is_copied_once(self, transform):
        rng = np.random.default_rng(17)
        amps = rng.normal(size=1 << self.N) + 1j * rng.normal(size=1 << self.N)
        state = from_amplitudes(self.N, amps, normalize=True)
        transform(state)  # builds the cached ladder and layouts
        assert peak_over_state(lambda: transform(state), self.N) <= self.BOUND

    def test_bound_catches_a_kept_copy(self, monkeypatch):
        circuit = parse_circuit(_every_mnemonic_text(random.Random(0), self.N, 4))
        evolve = gates._evolve

        def keeping_a_copy(amplitudes, num_qubits, steps):
            kept = amplitudes.copy()  # noqa: F841
            return evolve(amplitudes, num_qubits, steps)

        monkeypatch.setattr(gates, "_evolve", keeping_a_copy)
        assert peak_over_state(circuit.final_state, self.N) > self.BOUND

    def test_buffers_released_before_sampling(self, monkeypatch):
        held = []
        sample_counts = circuit_mod.sample_counts

        def sampling(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return sample_counts(*args, **kwargs)

        monkeypatch.setattr(circuit_mod, "sample_counts", sampling)
        for h_layer in (4, self.N):  # some qubits idle, then none
            circuit = parse_circuit(_every_mnemonic_text(random.Random(1), self.N, h_layer))
            held.clear()
            with PeakMemory() as traced:
                run_circuit(circuit, 1 << 10, 5)
            assert (held[0] - traced.base) / (16 << self.N) <= 1.05

    def test_register_over_cap_is_rejected(self):
        circuit = Circuit(4, (GateApplication(HADAMARD, (3,)),))
        cap = get_max_qubits()
        set_max_qubits(3)
        try:
            with pytest.raises(ValueError, match="exceeds the configured cap"):
                circuit.final_state()
            with pytest.raises(ValueError, match="exceeds the configured cap"):
                run_circuit(circuit, 10, 1)  # although it touches one qubit
        finally:
            set_max_qubits(cap)

    def test_idle_qubits_hold_no_memory(self, capsys, tmp_path):
        text = "qubits 26\nh 0\ncnot 0 25\nmeasure all\n"
        path = tmp_path / "wide.qc"
        path.write_text(text)
        with PeakMemory() as traced:
            result = run_circuit(parse_circuit(text), 1 << 12, 3)
        assert traced.peak < 1 << 20
        assert set(result.counts) == {0, (1 << 25) + 1}

        main(["run", str(path), "--shots", "10", "--seed", "1"])  # builds the CLI parser
        capsys.readouterr()
        with PeakMemory() as traced:
            code = main(["run", str(path), "--shots", "4096", "--seed", "3", "--format", "json"])
        assert code == 0
        assert traced.peak < 1 << 20
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert set(counts) == {"0" * 26, "1" + "0" * 24 + "1"}

    def test_classical_qubits_hold_no_memory(self, monkeypatch):
        """Of 22 qubits driven by permutation and diagonal gates, only the
        two that get an h are evolved."""
        drive = [f"x {q}" for q in range(22)] + [
            "cnot 0 1", "swap 1 2", "toffoli 3 4 2", "fredkin 2 6 7", "phase 8 0.3",
            "cphase 9 10 0.4", "id 11", "x 5", "x 16",  # every qubit 1 but 5 and 16
        ]
        text = "\n".join(["qubits 22", *drive, "h 5", "h 16", "cphase 5 12 0.6", "measure all"])
        widths = []
        sample_counts = circuit_mod.sample_counts

        def sampling(state, *args, **kwargs):
            widths.append(state.num_qubits)
            return sample_counts(state, *args, **kwargs)

        monkeypatch.setattr(circuit_mod, "sample_counts", sampling)
        circuit = parse_circuit(text)
        with PeakMemory() as traced:
            result = run_circuit(circuit, 1 << 12, 9)
        assert widths == [2]
        assert traced.peak < 1 << 20
        ones = (1 << 22) - 1
        outcomes = {ones ^ (a << 5) ^ (b << 16) for a in (0, 1) for b in (0, 1)}
        assert set(result.counts) == outcomes
        assert all(abs(c - 1024) < 5 * math.sqrt(1024 * 0.75) for c in result.counts.values())

    def test_outcomes_wider_than_int64_are_rejected(self):
        cap = get_max_qubits()
        set_max_qubits(64)
        try:
            steps = (GateApplication(HADAMARD, (0,)), GateApplication(CNOT, (0, 62)))
            result = run_circuit(Circuit(63, steps), 100, 1)
            assert set(result.counts) == {0, (1 << 62) + 1}
            with pytest.raises(ValueError, match="64 measured qubits do not pack"):
                run_circuit(Circuit(64, steps), 100, 1)
            assert run_circuit(Circuit(64, steps, (0, 62)), 100, 1).counts.keys() <= {0, 3}
        finally:
            set_max_qubits(cap)
