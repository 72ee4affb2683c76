"""Tests for the Fourier transform circuit against the definitional matrix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dft_matrix, random_state_vector

from qregsim import RandomSource, basis_state, from_amplitudes, gates, measure_qubits
from qregsim.algorithms import inverse_qft, qft, qft_applications
from qregsim.algorithms.qft import _forward_ladder, _inverse_ladder


class TestForward:
    def test_ground_state_goes_uniform(self):
        for n in (1, 3, 5):
            state = qft(basis_state(n, 0))
            expected = np.full(1 << n, 1 / math.sqrt(1 << n))
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)
            assert np.abs(state.amplitudes.imag).max() < 1e-12

    def test_period_two_comb(self):
        amps = np.zeros(8)
        amps[[0, 2, 4, 6]] = 0.5
        transformed = qft(from_amplitudes(3, amps))
        probs = transformed.probabilities()
        assert abs(probs[0] - 0.5) < 1e-12
        assert abs(probs[4] - 0.5) < 1e-12
        assert probs[[1, 2, 3, 5, 6, 7]].max() < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_definitional_matrix(self, n):
        reference = dft_matrix(n)
        for j in range(1 << n):
            column = qft(basis_state(n, j)).amplitudes
            np.testing.assert_allclose(column, reference[:, j], atol=1e-10)


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_inverse_of_forward_is_identity(self, n):
        rng = np.random.default_rng(60 + n)
        state = from_amplitudes(n, random_state_vector(n, rng))
        round_tripped = inverse_qft(qft(state))
        np.testing.assert_allclose(
            round_tripped.amplitudes, state.amplitudes, atol=1e-10
        )

    def test_forward_of_inverse_is_identity(self):
        rng = np.random.default_rng(61)
        state = from_amplitudes(5, random_state_vector(5, rng))
        round_tripped = qft(inverse_qft(state))
        np.testing.assert_allclose(
            round_tripped.amplitudes, state.amplitudes, atol=1e-10
        )


class TestSubRegister:
    def test_transform_on_low_qubits_leaves_high_factor(self):
        rng = np.random.default_rng(62)
        low = from_amplitudes(2, random_state_vector(2, rng))
        from qregsim import tensor

        joint = tensor(basis_state(1, 1), low)  # qubit 2 set, low register random
        transformed = qft(joint, qubits=[0, 1])
        expected = np.kron([0, 1], dft_matrix(2) @ low.amplitudes)
        np.testing.assert_allclose(transformed.amplitudes, expected, atol=1e-10)

    @pytest.mark.parametrize("transform", [qft, inverse_qft])
    @pytest.mark.parametrize("register", [[0, 2, 5], [4, 1], [3], None])
    def test_input_neither_mutated_nor_aliased(self, transform, register):
        state = from_amplitudes(6, random_state_vector(6, np.random.default_rng(65)))
        before = state.amplitudes.copy()
        out = transform(state, register)
        np.testing.assert_array_equal(state.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert out.amplitudes.flags.owndata and not out.amplitudes.flags.writeable

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_inverse_undoes_forward_on_any_sub_register(self, data):
        n = data.draw(st.integers(1, 7), label="num_qubits")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        register = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            label="register",
        )
        state = from_amplitudes(n, random_state_vector(n, np.random.default_rng(seed)))
        transformed = qft(state, register)
        np.testing.assert_allclose(
            inverse_qft(transformed, register).amplitudes, state.amplitudes, atol=1e-10
        )
        np.testing.assert_allclose(
            qft(inverse_qft(state, register), register).amplitudes,
            state.amplitudes,
            atol=1e-10,
        )

    def test_duplicate_qubits_rejected(self):
        """Duplicate and out-of-range qubits fail as ``measure_qubits`` reports them."""
        state = basis_state(3, 0)
        for qubits in ([0, 0], [1, 3], [-1]):
            with pytest.raises(ValueError) as expected:
                measure_qubits(state, qubits, RandomSource(0))
            for transform in (qft, inverse_qft):
                with pytest.raises(ValueError) as got:
                    transform(state, qubits=qubits)
                assert str(got.value) == str(expected.value)


class TestLadderCache:
    ORDERS = [(0, 1, 2, 3, 4), (1, 3, 4), (2,)]

    @pytest.mark.parametrize("order", ORDERS)
    def test_inverse_is_forward_reversed_with_negated_phases(self, order):
        inverse = _inverse_ladder(order)
        forward = qft_applications(order)
        assert len(inverse) == len(forward)
        for step, original in zip(inverse, reversed(forward)):
            assert step.targets == original.targets
            if original.gate.phi is None:
                assert step.gate is original.gate
            else:
                assert step.gate.name == original.gate.name == "cphase"
                assert step.gate.phi == -original.gate.phi
                assert step.gate == gates.controlled_phase(-original.gate.phi)

    def test_repeat_transforms_construct_no_gates(self, monkeypatch):
        state = from_amplitudes(6, random_state_vector(6, np.random.default_rng(63)))
        register = [5, 0, 2, 3]
        inverse_qft(qft(state, register), register)
        built = []
        original = gates.controlled_phase

        def counting(phi):
            built.append(phi)
            return original(phi)

        monkeypatch.setattr(gates, "controlled_phase", counting)
        inverse_qft(qft(state, register), register)
        assert built == []

    @pytest.mark.parametrize("register", [None, [4, 1, 2]])
    def test_outputs_bit_identical_to_uncached_ladder(self, register):
        state = from_amplitudes(5, random_state_vector(5, np.random.default_rng(64)))
        order = tuple(sorted(register)) if register else tuple(range(5))
        forward = _forward_ladder.__wrapped__(order)
        inverse = [
            gates.GateApplication(
                gates.controlled_phase(-s.gate.phi) if s.gate.phi is not None else s.gate,
                s.targets,
            )
            for s in reversed(_forward_ladder.__wrapped__(order))
        ]
        for cached, steps in ((qft, forward), (inverse_qft, inverse)):
            expected = state
            for step in steps:
                expected = gates.apply(expected, step)
            for _ in range(2):
                got = cached(state, register)
                assert got.amplitudes.tobytes() == expected.amplitudes.tobytes()

    def test_public_ladder_is_a_fresh_list(self):
        first = qft_applications([0, 1, 2])
        first.clear()
        second = qft_applications([0, 1, 2])
        assert len(second) == 7
        assert second is not qft_applications([0, 1, 2])
