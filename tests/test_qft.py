"""Tests for the Fourier transform circuit against the definitional matrix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dft_matrix, random_state_vector
from peak_memory import PeakMemory, peak_over_state

from qregsim import RandomSource, basis_state, from_amplitudes, gates, measure_qubits
from qregsim.algorithms import inverse_qft, qft, qft_applications
from qregsim.algorithms.qft import _ladder
from qregsim.state import _donated


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
        for transform, matrix in ((qft, reference), (inverse_qft, reference.conj().T)):
            for j in range(1 << n):
                column = transform(basis_state(n, j)).amplitudes
                np.testing.assert_allclose(column, matrix[:, j], atol=1e-10)

    @pytest.mark.parametrize("n", [8, gates._CHUNK_QUBITS, gates._CHUNK_QUBITS + 1, 18])
    def test_basis_states_within_n_eps_of_exact_phases(self, n):
        """Amplitude j of the transform of |k> is exp(±2πi·(jk mod 2^n)/2^n)
        / 2^(n/2), with jk mod 2^n exact in int64: a reference on either
        side of the chunk split without the 2^n x 2^n matrix."""
        size = 1 << n
        j = np.arange(size, dtype=np.int64)
        for k in (1, 3, size // 3, size - 1):
            turns = (j * k) % size / size
            for transform, sign in ((qft, 1), (inverse_qft, -1)):
                want = np.exp(sign * 2j * np.pi * turns) * 2.0 ** (-n / 2)
                got = transform(basis_state(n, k)).amplitudes
                assert np.abs(got - want).max() <= n * 2.0**-53


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

    @pytest.mark.parametrize("transform", [qft, inverse_qft])
    @pytest.mark.parametrize("n", [gates._CHUNK_QUBITS, gates._CHUNK_QUBITS + 1])
    def test_empty_register_allocates_nothing(self, transform, n):
        """The empty register's transform is the identity on either side of
        the chunk split: no copy and no scratch."""
        state = from_amplitudes(n, random_state_vector(n, np.random.default_rng(68)))
        with PeakMemory() as traced:
            out = transform(state, [])
        assert out.amplitudes.tobytes() == state.amplitudes.tobytes()
        assert not out.amplitudes.flags.writeable
        assert traced.peak < 0.01 * (16 << n)

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


class TestStages:
    """A register within one kernel chunk runs butterfly stages, bit for bit
    the fused program that the gate driver runs above it."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bit_identical_to_the_kernel_program(self, data):
        n = data.draw(st.integers(1, gates._CHUNK_QUBITS + 1), label="num_qubits")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        register = data.draw(
            st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            label="register",
        )
        state = from_amplitudes(n, random_state_vector(n, np.random.default_rng(seed)))
        order = tuple(range(n)) if register is None else tuple(sorted(register))
        for transform, sign in ((qft, 1), (inverse_qft, -1)):
            ops = gates._fuse(_ladder(order, sign), n)
            expected = gates._evolve(state.amplitudes, n, ops).amplitudes
            assert transform(state, register).amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("transform", [qft, inverse_qft])
    @pytest.mark.parametrize("register", [None, [9, 2, 5, 0]])
    def test_donated_buffer_is_transformed_in_place(self, transform, register):
        """The stages take a donated buffer over, so they peak one state
        below a read-only input, which they copy and leave as it was."""
        n = 12
        state = from_amplitudes(n, random_state_vector(n, np.random.default_rng(67)))
        before = state.amplitudes.tobytes()
        transform(state, register)
        with PeakMemory() as copied:
            expected = transform(state, register)
        assert state.amplitudes.tobytes() == before
        assert not np.shares_memory(expected.amplitudes, state.amplitudes)
        buffer = state.amplitudes.copy()
        with PeakMemory() as donated:
            got = transform(_donated(n, buffer), register)
        assert got.amplitudes is buffer and not buffer.flags.writeable
        assert buffer.tobytes() == expected.amplitudes.tobytes()
        assert donated.peak <= copied.peak - 0.9 * (16 << n)

    def test_kernel_program_runs_above_one_chunk(self, monkeypatch):
        """Within one chunk only the fan of one controlled phase is a kernel
        op; above it every Hadamard and swap is one too."""
        update = gates._update
        kinds = []

        def counting(gate, targets, amps):
            kinds.append(gate.name)
            update(gate, targets, amps)

        monkeypatch.setattr(gates, "_update", counting)
        inverse_qft(basis_state(gates._CHUNK_QUBITS, 1))
        assert kinds == ["cphase"]
        kinds.clear()
        n = gates._CHUNK_QUBITS + 1
        inverse_qft(basis_state(n, 1))
        assert sorted(kinds) == sorted(["h"] * n + ["cphase"] + ["swap"] * (n // 2))


class TestLadderCache:
    ORDERS = [(0, 1, 2, 3, 4), (1, 3, 4), (2,)]

    @pytest.mark.parametrize("order", ORDERS)
    def test_inverse_is_forward_with_negated_phases(self, order):
        inverse = _ladder(order, -1)
        forward = qft_applications(order)
        assert len(inverse) == len(forward)
        for step, original in zip(inverse, forward):
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

    @pytest.mark.parametrize("register", [None, [4, 1, 2], [3, 0]])
    def test_outputs_bit_identical_to_uncached_ladder(self, register):
        """Bit for bit against the uncached ladder of either sign, fused
        afresh, and against its steps applied one by one where no run fused;
        one multiply per fused run rounds differently in the last bits, so
        to 1e-12 there."""
        state = from_amplitudes(5, random_state_vector(5, np.random.default_rng(64)))
        order = tuple(sorted(register)) if register else tuple(range(5))
        for cached, sign in ((qft, 1), (inverse_qft, -1)):
            steps = _ladder.__wrapped__(order, sign)
            expected = state
            for step in steps:
                expected = gates.apply(expected, step)
            ops = list(gates._fuse(steps, 5))
            fused = gates._evolve(state.amplitudes, 5, ops)
            for _ in range(2):
                got = cached(state, register)
                assert got.amplitudes.tobytes() == fused.amplitudes.tobytes()
                if any(isinstance(op, gates._Scale) for op in ops):
                    np.testing.assert_allclose(got.amplitudes, expected.amplitudes, rtol=0, atol=1e-12)
                else:
                    assert got.amplitudes.tobytes() == expected.amplitudes.tobytes()

    def test_inverse_at_16_qubits_peaks_at_one_state_and_chunk_scratch(self):
        """Once the caches are filled, the state copy, two chunk rows of an
        h's scratch and numpy's 256 KiB of ufunc buffers: the fused runs
        multiply in place and hold only their cached factors."""
        n = 16
        state = from_amplitudes(n, random_state_vector(n, np.random.default_rng(66)))
        inverse_qft(state)
        scratch = (2 << gates._CHUNK_QUBITS) * 16 + (256 << 10)
        assert peak_over_state(lambda: inverse_qft(state), n) <= 1.0 + scratch / (16 << n) + 0.01

    def test_public_ladder_is_a_fresh_list(self):
        first = qft_applications([0, 1, 2])
        first.clear()
        second = qft_applications([0, 1, 2])
        assert len(second) == 7
        assert second is not qft_applications([0, 1, 2])
