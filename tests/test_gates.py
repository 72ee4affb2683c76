"""Tests for gate matrices, validation, and the tensor-view kernel."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kron_embed, random_state_vector

from qregsim import (
    CNOT,
    EXCHANGE,
    FREDKIN,
    HADAMARD,
    IDENTITY,
    NOT,
    TOFFOLI,
    Gate,
    GateApplication,
    QuantumState,
    apply,
    basis_state,
    controlled_phase,
    custom_gate,
    from_amplitudes,
    matrix_of,
    phase_shift,
)

PHI_SAMPLES = (0.0, math.pi / 7, math.pi / 2, math.pi)


def all_gate_kinds(phi=math.pi / 7):
    return [
        IDENTITY, NOT, HADAMARD, phase_shift(phi),
        CNOT, controlled_phase(phi), EXCHANGE, TOFFOLI, FREDKIN,
    ]


def _random_unitary(arity, rng):
    dim = 1 << arity
    unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return unitary


class TestMatrices:
    def test_hadamard_on_zero(self):
        state = apply(basis_state(1, 0), GateApplication(HADAMARD, (0,)))
        root = 1 / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, [root, root], atol=1e-15)

    def test_not_complements(self):
        state = apply(basis_state(1, 0), GateApplication(NOT, (0,)))
        np.testing.assert_array_equal(state.amplitudes, [0, 1])

    @pytest.mark.parametrize("factory", [phase_shift, controlled_phase])
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, factory, phi):
        with pytest.raises(ValueError, match="finite"):
            factory(phi)

    def test_phase_pi_is_diag_one_minus_one(self):
        np.testing.assert_allclose(
            matrix_of(phase_shift(math.pi)), np.diag([1, -1]), atol=1e-15
        )

    def test_hadamard_entries(self):
        root = 1 / math.sqrt(2)
        np.testing.assert_allclose(
            matrix_of(HADAMARD), np.array([[root, root], [root, -root]]), atol=0
        )

    def test_controls_leave_zero_control_alone(self):
        """Controlled gates act as identity unless every control reads 1."""
        for gate, idle in [(CNOT, 0b01), (TOFFOLI, 0b011), (FREDKIN, 0b010)]:
            n = gate.arity
            state = apply(
                basis_state(n, idle), GateApplication(gate, tuple(range(n - 1, -1, -1)))
            )
            assert state.probability(idle) == 1.0

    def test_toffoli_flips_when_both_controls_set(self):
        state = apply(basis_state(3, 0b110), GateApplication(TOFFOLI, (2, 1, 0)))
        assert state.probability(0b111) == 1.0

    def test_fredkin_swaps_when_control_set(self):
        state = apply(basis_state(3, 0b101), GateApplication(FREDKIN, (2, 1, 0)))
        assert state.probability(0b110) == 1.0

    @pytest.mark.parametrize("phi", PHI_SAMPLES)
    def test_all_kinds_unitary(self, phi):
        for gate in all_gate_kinds(phi):
            m = matrix_of(gate)
            np.testing.assert_allclose(
                m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12
            )

    def test_matrix_read_only(self):
        with pytest.raises(ValueError):
            matrix_of(HADAMARD)[0, 0] = 2.0


class TestCustomGate:
    def test_identity_accepted(self):
        gate = custom_gate(1, np.eye(2))
        assert gate.arity == 1

    def test_non_unitary_rejected_with_deviation(self):
        with pytest.raises(ValueError, match="deviation"):
            custom_gate(1, [[1, 1], [1, 1]])

    def test_phase_oracle_diagonal(self):
        diag = np.ones(8)
        diag[5] = -1.0
        gate = custom_gate(3, np.diag(diag))
        state = apply(
            from_amplitudes(3, np.full(8, 1 / math.sqrt(8))),
            GateApplication(gate, (2, 1, 0)),
        )
        assert state.amplitudes[5].real < 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            custom_gate(1, [[np.inf, 0], [0, 1]])

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            custom_gate(2, np.eye(2))


class TestApplyValidation:
    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply(basis_state(2, 0), GateApplication(HADAMARD, (2,)))

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            GateApplication(CNOT, (1, 1))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="2 qubit"):
            GateApplication(CNOT, (0,))


class TestKernelAgainstEmbedding:
    """apply() must equal the dense Kronecker embedding, element-wise."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_registers(self, n):
        rng = np.random.default_rng(100 + n)
        amps = random_state_vector(n, rng)
        state = from_amplitudes(n, amps)
        for gate in all_gate_kinds():
            if gate.arity > n:
                continue
            for targets in itertools.permutations(range(n), gate.arity):
                expected = kron_embed(matrix_of(gate), targets, n) @ amps
                got = apply(state, GateApplication(gate, targets)).amplitudes
                np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_every_kind_and_ordered_targets_on_four_qubits(self):
        """Every gate kind, custom ones up to the full register width, on
        every ordered target tuple of a 4-qubit register."""
        rng = np.random.default_rng(44)
        amps = random_state_vector(4, rng)
        state = from_amplitudes(4, amps)
        kinds = all_gate_kinds() + [custom_gate(k, _random_unitary(k, rng)) for k in (1, 2, 3, 4)]
        for gate in kinds:
            for targets in itertools.permutations(range(4), gate.arity):
                expected = kron_embed(matrix_of(gate), targets, 4) @ amps
                got = apply(state, GateApplication(gate, targets)).amplitudes
                np.testing.assert_allclose(got, expected, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_sequences_match_dense_product(self, data):
        n = data.draw(st.integers(1, 6), label="num_qubits")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        kinds = [g for g in all_gate_kinds(phi=rng.uniform(-math.pi, math.pi)) if g.arity <= n]
        kinds.append(custom_gate(min(n, 2), _random_unitary(min(n, 2), rng)))
        amps = random_state_vector(n, rng)
        state = from_amplitudes(n, amps)
        for _ in range(data.draw(st.integers(1, 12), label="length")):
            gate = kinds[data.draw(st.integers(0, len(kinds) - 1))]
            targets = tuple(data.draw(st.permutations(range(n)))[: gate.arity])
            amps = kron_embed(matrix_of(gate), targets, n) @ amps
            state = apply(state, GateApplication(gate, targets))
        np.testing.assert_allclose(state.amplitudes, amps, atol=1e-12)

    def test_zero_matrix_row_clears_its_slice(self):
        """A non-unitary Gate with an all-zero row (a projector) zeroes that slice."""
        projector = Gate("p0", 1, np.diag([1.0, 0.0]))
        amps = np.zeros(8)
        amps[[0b000, 0b100]] = 1 / math.sqrt(2)
        for targets in [(0,), (1,)]:
            got = apply(from_amplitudes(3, amps), GateApplication(projector, targets))
            np.testing.assert_array_equal(got.amplitudes, kron_embed(projector.matrix, targets, 3) @ amps)

    def test_custom_two_qubit_random_unitary(self):
        rng = np.random.default_rng(42)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary, _ = np.linalg.qr(raw)
        gate = custom_gate(2, unitary)
        amps = random_state_vector(5, rng)
        state = from_amplitudes(5, amps)
        for targets in [(0, 3), (4, 1), (2, 0)]:
            expected = kron_embed(unitary, targets, 5) @ amps
            got = apply(state, GateApplication(gate, targets)).amplitudes
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_triple_cnot_example(self, triple_state):
        state = apply(triple_state, GateApplication(CNOT, (4, 0)))
        support = np.nonzero(state.amplitudes)[0]
        np.testing.assert_array_equal(support, [0, 17, 30])
        np.testing.assert_allclose(
            state.amplitudes[support], [1 / math.sqrt(3)] * 3, atol=1e-15
        )


class TestGateProperties:
    def test_identity_returns_its_input(self):
        state = from_amplitudes(3, random_state_vector(3, np.random.default_rng(6)))
        assert apply(state, GateApplication(IDENTITY, (1,))) is state
        assert apply(state, GateApplication(custom_gate(2, np.eye(4)), (2, 0))) is state

    def test_self_inverse_gates(self):
        rng = np.random.default_rng(7)
        state = from_amplitudes(4, random_state_vector(4, rng))
        for gate in (NOT, HADAMARD, CNOT, EXCHANGE, TOFFOLI, FREDKIN):
            targets = tuple(range(gate.arity))
            twice = apply(apply(state, GateApplication(gate, targets)),
                          GateApplication(gate, targets))
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_controlled_phase_symmetric(self):
        rng = np.random.default_rng(8)
        state = from_amplitudes(3, random_state_vector(3, rng))
        gate = controlled_phase(math.pi / 7)
        forward = apply(state, GateApplication(gate, (0, 2)))
        swapped = apply(state, GateApplication(gate, (2, 0)))
        np.testing.assert_allclose(forward.amplitudes, swapped.amplitudes, atol=1e-12)

    def test_norm_preserved_on_random_applications(self):
        rng = np.random.default_rng(9)
        state = from_amplitudes(6, random_state_vector(6, rng))
        kinds = all_gate_kinds(phi=1.2345)
        for _ in range(200):
            gate = kinds[rng.integers(len(kinds))]
            targets = tuple(rng.choice(6, size=gate.arity, replace=False))
            state = apply(state, GateApplication(gate, targets))
        norm = float(np.vdot(state.amplitudes, state.amplitudes).real)
        assert abs(norm - 1.0) < 1e-9
