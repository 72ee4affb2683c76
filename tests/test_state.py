"""Tests for register construction, tensor composition, and probabilities."""

import math

import numpy as np
import pytest

from peak_memory import peak_over_state

import qregsim
from qregsim import QuantumState, basis_state, from_amplitudes, tensor


class TestBasisState:
    def test_single_qubit_ground(self):
        state = basis_state(1, 0)
        np.testing.assert_array_equal(state.amplitudes, [1, 0])

    def test_five_qubit_component(self):
        """|10000> is basis index 16 on five qubits."""
        state = basis_state(5, 16)
        assert state.probability(16) == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_two_qubit_top(self):
        np.testing.assert_array_equal(basis_state(2, 3).amplitudes, [0, 0, 0, 1])

    def test_probability_one_at_index_zero_elsewhere(self):
        state = basis_state(3, 5)
        for i in range(8):
            assert state.probability(i) == (1.0 if i == 5 else 0.0)

    @pytest.mark.parametrize("n,i", [(1, 2), (3, 8), (2, -1)])
    def test_index_out_of_range(self, n, i):
        with pytest.raises(ValueError):
            basis_state(n, i)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            basis_state(qregsim.get_max_qubits() + 1, 0)

    def test_cap_configurable(self):
        old = qregsim.get_max_qubits()
        try:
            qregsim.set_max_qubits(3)
            with pytest.raises(ValueError):
                basis_state(4, 0)
            assert basis_state(3, 0).num_qubits == 3
        finally:
            qregsim.set_max_qubits(old)

    @pytest.mark.parametrize("n", [0, -2])
    def test_invalid_qubit_count(self, n):
        with pytest.raises(ValueError):
            basis_state(n, 0)


class TestFromAmplitudes:
    def test_triple_state(self, triple_state):
        assert triple_state.num_qubits == 5
        third = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(
            triple_state.amplitudes[[0, 16, 31]], [third] * 3, atol=0
        )

    def test_equal_superposition(self):
        state = from_amplitudes(1, [1 / math.sqrt(2)] * 2)
        assert abs(state.probability(0) - 0.5) < 1e-15

    def test_zero_vector_rejected_with_norm_report(self):
        with pytest.raises(ValueError, match="0"):
            from_amplitudes(2, [0, 0, 0, 0])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            from_amplitudes(1, [1.0, 1.0])

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="4"):
            from_amplitudes(2, [1.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            from_amplitudes(1, [np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            from_amplitudes(1, [complex(0, np.inf), 0.0])

    def test_direct_construction_names_the_fault(self):
        """One norm pass decides; a non-finite norm is traced to its cause."""
        with pytest.raises(ValueError, match="non-finite entry"):
            QuantumState(1, [np.inf, 0.0])
        with pytest.raises(ValueError, match="non-finite entry"):
            QuantumState(1, [1.0, np.nan])
        with pytest.raises(ValueError, match="not normalized: squared norm is inf"):
            QuantumState(1, [1e200, 0.0])

    def test_normalize_flag(self):
        state = from_amplitudes(1, [3.0, 4.0], normalize=True)
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_input_copied_not_shared(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1.0
        state = from_amplitudes(2, amps)
        amps[0] = 0.5
        assert state.probability(0) == 1.0

    def test_amplitudes_read_only(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestTensor:
    def test_basis_product(self):
        result = tensor(basis_state(1, 0), basis_state(1, 1))
        np.testing.assert_array_equal(result.amplitudes, [0, 1, 0, 0])

    def test_superposition_times_zero(self, plus_state):
        result = tensor(plus_state, basis_state(1, 0))
        root = 1 / math.sqrt(2)
        np.testing.assert_allclose(result.amplitudes, [root, 0, root, 0], atol=0)

    def test_triple_times_one(self, triple_state):
        """Index arithmetic oracle: i_a * 2 + 1 maps {0,16,31} to {1,33,63}."""
        result = tensor(triple_state, basis_state(1, 1))
        assert result.num_qubits == 6
        support = np.nonzero(result.amplitudes)[0]
        np.testing.assert_array_equal(support, [1, 33, 63])
        np.testing.assert_allclose(
            result.amplitudes[support], [1 / math.sqrt(3)] * 3, atol=1e-15
        )

    def test_probability_factorizes(self):
        rng = np.random.default_rng(11)
        for n_a, n_b in [(1, 1), (2, 3), (3, 3), (1, 5)]:
            a = _random_state(n_a, rng)
            b = _random_state(n_b, rng)
            joint = tensor(a, b)
            for i_a in range(a.dim):
                for i_b in range(b.dim):
                    expected = a.probability(i_a) * b.probability(i_b)
                    got = joint.probability(i_a * b.dim + i_b)
                    assert abs(got - expected) < 1e-12

    def test_associative(self):
        rng = np.random.default_rng(12)
        a, b, c = (_random_state(n, rng) for n in (2, 1, 3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-12)

    def test_product_of_states_at_the_tolerance_edge(self):
        """Each factor passes the norm check, so their product is not re-checked."""
        edge = from_amplitudes(1, [math.sqrt(1 + 0.9e-9), 0])
        assert tensor(edge, edge).num_qubits == 2

    def test_cap_enforced(self):
        old = qregsim.get_max_qubits()
        try:
            qregsim.set_max_qubits(5)
            with pytest.raises(ValueError, match="cap"):
                tensor(basis_state(3, 0), basis_state(3, 0))
        finally:
            qregsim.set_max_qubits(old)


class TestProbability:
    def test_triple_values(self, triple_state):
        assert abs(triple_state.probability(31) - 1 / 3) < 1e-15
        assert abs(triple_state.probability(16) - 1 / 3) < 1e-15
        assert triple_state.probability(1) == 0.0

    def test_plus_state(self, plus_state):
        assert abs(plus_state.probability(0) - 0.5) < 1e-15

    def test_sums_to_one(self):
        rng = np.random.default_rng(13)
        for n in (1, 3, 6):
            state = _random_state(n, rng)
            total = sum(state.probability(i) for i in range(state.dim))
            assert abs(total - 1.0) < 1e-9

    def test_out_of_range(self, plus_state):
        with pytest.raises(ValueError):
            plus_state.probability(2)

    def test_probabilities_are_abs_squared_bit_for_bit(self):
        rng = np.random.default_rng(14)
        for n in (1, 5, 12, 16):
            state = _random_state(n, rng)
            probs = state.probabilities()
            assert probs.tobytes() == (np.abs(state.amplitudes) ** 2).tobytes()
            assert probs.flags.owndata and probs.flags.writeable

    def test_probabilities_allocate_one_array(self):
        """Half a state's bytes: the squares are taken in place."""
        state = _random_state(16, np.random.default_rng(15))
        assert peak_over_state(state.probabilities, 16) <= 0.51


def _random_state(num_qubits, rng):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return from_amplitudes(num_qubits, amps / np.linalg.norm(amps))
