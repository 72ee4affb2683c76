"""Tests for the circuit text format, round-tripping, and multi-shot runs."""

import math

import numpy as np
import pytest

from qregsim import (
    CNOT,
    HADAMARD,
    Circuit,
    CircuitParseError,
    GateApplication,
    controlled_phase,
    parse_circuit,
    phase_shift,
    run_circuit,
    serialize_circuit,
)

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

    def test_bad_phase_literal(self):
        with pytest.raises(CircuitParseError, match="angle"):
            parse_circuit("qubits 1\nphase 0 pi\n")

    @pytest.mark.parametrize("instruction", ["phase 1", "cphase 0 1"])
    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_angle_reports_line(self, instruction, angle):
        with pytest.raises(CircuitParseError, match="line 3: phase angle must be finite"):
            parse_circuit(f"qubits 2\nh 0\n{instruction} {angle}\nmeasure all\n")


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

    def test_custom_gate_has_no_mnemonic(self):
        from qregsim import custom_gate

        circuit = Circuit(1, (GateApplication(custom_gate(1, np.eye(2)), (0,)),))
        with pytest.raises(ValueError, match="custom"):
            serialize_circuit(circuit)


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

    def test_bitstring_rendering(self):
        result = run_circuit(parse_circuit(BELL_TEXT), 10, seed=2)
        assert result.bitstring(3) == "11"


def _random_circuit(rng):
    n = int(rng.integers(1, 6))
    steps = []
    for _ in range(int(rng.integers(0, 12))):
        kind = rng.choice(["id", "x", "h", "phase", "cnot", "cphase", "swap",
                           "toffoli", "fredkin"])
        arity = {"id": 1, "x": 1, "h": 1, "phase": 1, "cnot": 2, "cphase": 2,
                 "swap": 2, "toffoli": 3, "fredkin": 3}[kind]
        if arity > n:
            continue
        targets = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        if kind == "phase":
            gate = phase_shift(float(rng.uniform(-math.pi, math.pi)))
        elif kind == "cphase":
            gate = controlled_phase(float(rng.uniform(-math.pi, math.pi)))
        else:
            from qregsim import circuit as circuit_mod

            gate = circuit_mod._FIXED_GATES[kind]
        steps.append(GateApplication(gate, targets))
    if rng.random() < 0.5:
        terminal = None
    else:
        size = int(rng.integers(1, n + 1))
        terminal = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
    return Circuit(n, tuple(steps), terminal)
