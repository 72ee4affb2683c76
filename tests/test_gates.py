"""Tests for gate matrices, validation, and the tensor-view kernel."""

import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import diagonal_run_reference, kron_embed, random_state_vector, update_reference

from qregsim import (
    CNOT,
    Circuit,
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
    gates,
)
from qregsim.algorithms import inverse_qft, qft
from qregsim.algorithms.qft import _program

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


def _random_monomial(arity, rng):
    """A permutation of a random subset of the basis rows, with random phases
    on some rows: a unitary with one term per row and a varied cycle shape."""
    dim = 1 << arity
    perm = np.arange(dim)
    moved = rng.choice(dim, size=int(rng.integers(0, dim + 1)), replace=False)
    perm[moved] = rng.permutation(moved)
    phases = np.where(rng.random(dim) < 0.3, np.exp(1j * rng.uniform(-math.pi, math.pi, dim)), 1)
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    matrix[np.arange(dim), perm] = phases
    return matrix


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


class TestRawGate:
    """The Gate constructor checks every gate: shape, finiteness and unitarity."""

    @pytest.mark.parametrize(
        "name,matrix",
        [("double", np.diag([2.0, 2.0])), ("p0", np.diag([1.0, 0.0])),
         ("inf", [[np.inf, 0], [0, 1]])],
        ids=["non-unitary", "projector", "non-finite"],
    )
    def test_non_unitary_or_non_finite_rejected_at_construction(self, name, matrix):
        with pytest.raises(ValueError, match=f"gate '{name}' matrix is not a finite unitary"):
            Gate(name, 1, matrix)

    def test_callers_array_stays_writable_and_unshared(self):
        entries = np.eye(2, dtype=np.complex128)
        gate = Gate("g", 1, entries)
        assert entries.flags.writeable
        entries[0, 0] = 5.0
        np.testing.assert_array_equal(gate.matrix, np.eye(2))

    @pytest.mark.parametrize("make", [lambda a, m: Gate("g", a, m), custom_gate],
                             ids=["Gate", "custom_gate"])
    def test_huge_arity_fails_with_the_shape_message(self, make):
        with pytest.raises(ValueError, match=r"needs a 2\*\*20000-square matrix, got shape \(1, 1\)"):
            make(20000, [[1]])

    def test_billion_qubit_arity_builds_no_power_of_two(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="needs a"):
                Gate("g", 10**9, [[1]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # 2**(10**9) alone would take 125 MB


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

    @pytest.mark.parametrize("gate", all_gate_kinds()[1:], ids=lambda g: g.name)
    def test_input_neither_mutated_nor_aliased(self, gate):
        """In-place plans too read the input state and write a fresh buffer."""
        state = from_amplitudes(4, random_state_vector(4, np.random.default_rng(10)))
        before = state.amplitudes.tobytes()
        out = apply(state, GateApplication(gate, tuple(range(gate.arity))[::-1]))
        assert state.amplitudes.tobytes() == before
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert out.amplitudes.flags.owndata and not out.amplitudes.flags.writeable

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


def _fresh_step(kind, phi, qubits):
    """A GateApplication of ``kind`` on the first qubits of ``qubits``, with
    a newly built gate object for the phase and custom kinds."""
    if kind == "phase":
        gate = phase_shift(phi)
    elif kind == "cphase":
        gate = controlled_phase(phi)
    elif kind == "custom":
        gate = custom_gate(1, np.diag([1, np.exp(1j * phi)]))
    else:
        gate = {g.name: g for g in all_gate_kinds()}[kind]
    return GateApplication(gate, list(qubits[: gate.arity]))


_STEP_PARAMETERS = st.tuples(
    st.sampled_from([g.name for g in all_gate_kinds()] + ["custom"]),
    st.sampled_from((0.0, -0.0, math.pi / 7, math.pi)),
    st.permutations(range(3)),
)


class TestValues:
    """Gates, gate applications and circuits are immutable, hashable values."""

    @settings(max_examples=300, deadline=None)
    @given(_STEP_PARAMETERS, _STEP_PARAMETERS)
    def test_equal_applications_hash_equal(self, first, second):
        a, b, c = _fresh_step(*first), _fresh_step(*first), _fresh_step(*second)
        assert a == b and hash(a) == hash(b)
        if a == c:
            assert hash(a) == hash(c)

    def test_fields_cannot_be_assigned(self):
        step = GateApplication(CNOT, (1, 0))
        circuit = Circuit(2, (step,))
        for value, name in ((HADAMARD, "name"), (HADAMARD, "arity"), (HADAMARD, "matrix"),
                            (step, "gate"), (step, "targets"), (circuit, "steps")):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))

    def test_plan_built_once_per_gate(self, monkeypatch):
        built = []
        cached = Gate.__dict__["_plan"]  # a functools.cached_property
        build = cached.func

        def recording(gate):
            built.append(gate)
            return build(gate)

        monkeypatch.setattr(cached, "func", recording)
        gate, twin = phase_shift(0.25), phase_shift(0.25)
        steps = tuple(GateApplication(g, (q,)) for g in (gate, twin) for q in (0, 1, 2, 0))
        Circuit(3, steps).final_state()
        apply(basis_state(3, 7), steps[0])
        assert [id(g) for g in built] == [id(gate), id(twin)]
        assert gate._plan is gate._plan


def _fused(steps, n):
    """The fused runs among the kernel ops of ``steps`` on ``n`` qubits."""
    return [op for op in gates._fuse(steps, n) if isinstance(op, gates._Scale)]


def _controlled_diagonal(arity, control, rng):
    """A random diagonal gate that changes only rows with bit ``control`` set."""
    bits = (np.arange(1 << arity) >> (arity - 1 - control)) & 1
    return custom_gate(arity, np.diag(np.where(bits, np.exp(1j * rng.uniform(-3, 3, 1 << arity)), 1)))


def _row_numbers(indices):
    """Plan row indices (bit tuples ending in Ellipsis) as matrix row numbers."""
    return [int("".join(str(b) for b in index[:-1]), 2) for index in indices]


class TestSequenceKernel:
    """Circuit.final_state evolves one owned buffer in place."""

    # Per kind: the rows its plan writes, and the rows it parks.
    ROWS = {
        "x": ([0, 1], [0, 1]), "h": ([0, 1], [0, 1]), "phase": ([1], []),
        "cnot": ([2, 3], [2, 3]), "cphase": ([3], []), "swap": ([1, 2], [1, 2]),
        "toffoli": ([6, 7], [6, 7]), "fredkin": ([5, 6], [5, 6]),
    }

    @pytest.mark.parametrize(
        "gate,skips_rows",
        [(NOT, False), (HADAMARD, False), (phase_shift(0.3), True), (CNOT, True),
         (controlled_phase(0.3), True), (EXCHANGE, True), (TOFFOLI, True), (FREDKIN, True)],
    )
    def test_strategy_per_kind(self, gate, skips_rows):
        """Identity rows are skipped; a row another row reads, or a
        multi-term row reads, is parked; a row that only scales itself is not."""
        plan = gate._plan
        written, parked = self.ROWS[gate.name]
        assert (len(plan.rows) < 1 << gate.arity) is skips_rows
        assert _row_numbers(r for r, _ in plan.rows) == written
        assert _row_numbers(plan.parked) == parked
        assert _row_numbers(plan.reads) == written
        assert plan.products is (gate is HADAMARD)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_final_state_bit_identical_to_folded_apply(self, data):
        n = data.draw(st.integers(1, 6), label="num_qubits")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        kinds = [g for g in all_gate_kinds(phi=rng.uniform(-math.pi, math.pi)) if g.arity <= n]
        for arity in range(1, min(n, 3) + 1):
            kinds.append(custom_gate(arity, _random_unitary(arity, rng)))
            kinds.append(custom_gate(arity, _random_monomial(arity, rng)))
        steps = []
        for _ in range(data.draw(st.integers(0, 16), label="length")):
            gate = kinds[data.draw(st.integers(0, len(kinds) - 1))]
            steps.append(GateApplication(gate, data.draw(st.permutations(range(n)))[: gate.arity]))
        expected = basis_state(n, 0)
        for step in steps:
            expected = apply(expected, step)
        got = Circuit(n, tuple(steps)).final_state()
        if _fused(steps, n):
            # One multiply per fused run rounds differently in the last bits.
            np.testing.assert_allclose(got.amplitudes, expected.amplitudes, rtol=0, atol=1e-12)
            again = Circuit(n, tuple(steps)).final_state()
            assert again.amplitudes.tobytes() == got.amplitudes.tobytes()
        else:
            assert got.amplitudes.tobytes() == expected.amplitudes.tobytes()

    @pytest.mark.parametrize("chunk_qubits", [1, 2, 3])
    def test_chunked_kernel_bit_identical(self, monkeypatch, chunk_qubits):
        """Registers wider than the chunk are walked chunk by chunk; the
        arithmetic per amplitude does not change."""
        rng = np.random.default_rng(46 + chunk_qubits)
        n = 6
        kinds = all_gate_kinds(phi=1.1) + [
            custom_gate(a, f(a, rng)) for a in (1, 2, 3) for f in (_random_unitary, _random_monomial)
        ]
        steps = [GateApplication(g, tuple(int(q) for q in rng.permutation(n)[: g.arity]))
                 for g in kinds for _ in range(3)]
        start = from_amplitudes(n, random_state_vector(n, rng))
        whole = [apply(start, step).amplitudes.tobytes() for step in steps]
        expected = Circuit(n, tuple(steps)).final_state().amplitudes.tobytes()
        monkeypatch.setattr(gates, "_CHUNK_QUBITS", chunk_qubits)
        assert [apply(start, step).amplitudes.tobytes() for step in steps] == whole
        assert Circuit(n, tuple(steps)).final_state().amplitudes.tobytes() == expected

    def test_monomial_custom_gates_match_apply_and_embedding(self):
        """Every parking pattern the planner meets, bit for bit against the
        out-of-place reference and apply, and to rounding against the dense
        product."""
        rng = np.random.default_rng(45)
        n = 5
        amps = random_state_vector(n, rng)
        start = from_amplitudes(n, amps)
        seen = set()
        for _ in range(300):
            arity = int(rng.integers(1, 5))
            gate = custom_gate(arity, _random_monomial(arity, rng))
            if gate._plan is None:
                continue
            seen.add(bool(gate._plan.parked))
            step = GateApplication(gate, tuple(int(q) for q in rng.permutation(n)[:arity]))
            got = gates._evolve(amps.copy(), n, [step]).amplitudes
            want = amps.copy()
            update_reference(gate._plan, step.targets, want)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == apply(start, step).amplitudes.tobytes()
            np.testing.assert_allclose(got, kron_embed(matrix_of(gate), step.targets, n) @ amps,
                                       atol=1e-12)
        assert seen == {True, False}

    def test_result_owns_read_only_amplitudes_and_buffers_are_released(self, monkeypatch):
        """The kernel allocates only chunk-row scratch, never a second state."""
        monkeypatch.setattr(gates, "_CHUNK_QUBITS", 1)
        allocated = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                allocated.append(np.empty(*args, **kwargs))
                return allocated[-1]

            def empty_like(self, *args, **kwargs):
                allocated.append(np.empty_like(*args, **kwargs))
                return allocated[-1]

        monkeypatch.setattr(gates, "np", RecordingNumpy())
        steps = [GateApplication(g, tuple(range(g.arity))[::-1]) for g in all_gate_kinds()]
        start = basis_state(6, 0)
        state = Circuit(6, tuple(steps + steps)).final_state()
        copied = apply(start, GateApplication(HADAMARD, (0,)))
        buffers = [weakref.ref(a) for a in allocated]
        # An h parks two chunk rows and keeps one for its scaled terms.
        assert allocated and max(a.size for a in allocated) <= 3 * 2**gates._CHUNK_QUBITS
        assert not start.amplitudes.flags.writeable and start.probability(0) == 1.0
        allocated.clear()
        gc.collect()
        for amps in (state.amplitudes, copied.amplitudes):
            assert amps.flags.owndata and not amps.flags.writeable
        assert all(ref() is None for ref in buffers)


class TestKernelAgainstReference:
    """The merged-layout kernel against the per-axis one in tests/oracles.py."""

    @pytest.mark.parametrize("chunk_qubits", [1, 2, 3, None])
    def test_every_kind_and_ordered_targets_bit_identical(self, monkeypatch, chunk_qubits):
        if chunk_qubits is not None:
            monkeypatch.setattr(gates, "_CHUNK_QUBITS", chunk_qubits)
        rng = np.random.default_rng(70 + (chunk_qubits or 0))
        kinds = all_gate_kinds(phi=0.9) + [
            custom_gate(a, f(a, rng)) for a in (1, 2, 3) for f in (_random_unitary, _random_monomial)
        ]
        for n in range(1, 6):
            amps = random_state_vector(n, rng)
            for gate in kinds:
                plan = gate._plan
                if plan is None:
                    continue
                for targets in itertools.permutations(range(n), gate.arity):
                    got, want = amps.copy(), amps.copy()
                    gates._update(plan, targets, got)
                    update_reference(plan, targets, want)
                    assert got.tobytes() == want.tobytes(), (n, targets)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_diagonal_gates_on_every_qubit_bit_identical(self, arity):
        """One-amplitude slices: numpy scales those in place with other
        rounding than out of place, so the kernel must park them."""
        rng = np.random.default_rng(75 + arity)
        kinds = [custom_gate(arity, np.diag(np.exp(1j * rng.uniform(-3, 3, 1 << arity))))
                 for _ in range(8)]
        kinds += [phase_shift(rng.uniform(-3, 3)) for _ in range(8)] if arity == 1 else []
        kinds += [controlled_phase(rng.uniform(-3, 3)) for _ in range(8)] if arity == 2 else []
        for gate in kinds:
            for targets in itertools.permutations(range(arity)):
                for _ in range(8):
                    amps = random_state_vector(arity, rng)
                    got, want = amps.copy(), amps.copy()
                    gates._update(gate._plan, targets, got)
                    update_reference(gate._plan, targets, want)
                    assert got.tobytes() == want.tobytes(), (gate, targets)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_qft_ladders_bit_identical(self, monkeypatch, n):
        rng = np.random.default_rng(80 + n)
        state = from_amplitudes(n, random_state_vector(n, rng))
        sub = sorted(int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        transforms = [f(state, qubits) for f in (qft, inverse_qft) for qubits in (None, sub)]
        monkeypatch.setattr(gates, "_update", update_reference)
        expected = [f(state, qubits) for f in (qft, inverse_qft) for qubits in (None, sub)]
        for got, want in zip(transforms, expected):
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


class TestLayout:
    @pytest.mark.parametrize("chunk_qubits,chunks", [(None, 1), (1, 2**4)])
    def test_chunk_count_follows_the_chunk_size(self, monkeypatch, chunk_qubits, chunks):
        if chunk_qubits is not None:
            monkeypatch.setattr(gates, "_CHUNK_QUBITS", chunk_qubits)
        used = []
        layout = gates._layout

        def recording_layout(*key):
            used.append(layout(*key))
            return used[-1]

        monkeypatch.setattr(gates, "_layout", recording_layout)
        amps = random_state_vector(6, np.random.default_rng(90))
        gates._update(NOT._plan, (2,), amps)
        assert [len(u.chunks) for u in used] == [chunks]

    def test_repeated_transform_adds_no_layout(self):
        state = from_amplitudes(5, random_state_vector(5, np.random.default_rng(91)))
        inverse_qft(state, [0, 2, 3])
        misses = gates._layout.cache_info().misses
        inverse_qft(state, [0, 2, 3])
        assert gates._layout.cache_info().misses == misses

    @pytest.mark.parametrize("chunk_qubits", [1, 2, 3, gates._CHUNK_QUBITS])
    def test_merged_dimensions_are_bounded(self, chunk_qubits):
        """Targets split the other axes into at most k+1 runs: 2k+1
        dimensions per chunk, one more when the chunk boundary splits a run."""
        for n in range(1, 9):
            for k in range(1, min(n, 3) + 1):
                for targets in itertools.permutations(range(n), k):
                    layout = gates._layout(targets, n, chunk_qubits)
                    outer = len(layout.chunks[0])
                    assert math.prod(layout.shape) == 2**n
                    assert len(layout.shape) - outer <= 2 * k + 1
                    assert len(layout.shape) <= 2 * k + (2 if outer else 1)
                    assert sorted(layout.order) == list(range(len(layout.shape)))


class TestDiagonalFusion:
    """Runs of adjacent diagonal steps that share a set qubit become one multiply."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_final_state_matches_folded_apply_and_dense_product(self, data):
        n = data.draw(st.integers(1, 8), label="num_qubits")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kinds = [phase_shift(rng.uniform(-3, 3)), HADAMARD, NOT]
        if n > 1:
            kinds += [controlled_phase(rng.uniform(-3, 3)), CNOT, custom_gate(2, _random_unitary(2, rng))]
        for arity in range(1, min(n, 3) + 1):
            kinds += [_controlled_diagonal(arity, int(rng.integers(arity)), rng),
                      custom_gate(arity, np.diag(np.exp(1j * rng.uniform(-3, 3, 1 << arity))))]
        steps = []
        for _ in range(data.draw(st.integers(0, 24), label="length")):
            gate = kinds[data.draw(st.integers(0, len(kinds) - 1))]
            steps.append(GateApplication(gate, data.draw(st.permutations(range(n)))[: gate.arity]))
        folded, dense = basis_state(n, 0), np.eye(1 << n)[:, 0]
        for step in steps:
            folded = apply(folded, step)
            dense = kron_embed(matrix_of(step.gate), step.targets, n) @ dense
        got = Circuit(n, tuple(steps)).final_state().amplitudes
        np.testing.assert_allclose(got, folded.amplitudes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_fused_op_matches_index_reference_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            shared = int(rng.integers(n))
            others = [q for q in range(n) if q != shared]
            steps = []
            for _ in range(int(rng.integers(2, 7))):
                arity = int(rng.integers(1, min(n, 3) + 1))
                targets = [shared, *(int(q) for q in rng.choice(others, arity - 1, replace=False))]
                order = [int(j) for j in rng.permutation(arity)]
                gate = (phase_shift(rng.uniform(-3, 3)) if arity == 1 and rng.random() < 0.5
                        else controlled_phase(rng.uniform(-3, 3)) if arity == 2 and rng.random() < 0.5
                        else _controlled_diagonal(arity, order.index(0), rng))
                steps.append(GateApplication(gate, [targets[j] for j in order]))
            ops = list(gates._fuse(steps, n))
            assert len(ops) == 1 and isinstance(ops[0], gates._Scale)
            amps = random_state_vector(n, rng)
            want = amps.copy()
            diagonal_run_reference(steps, want)
            got = gates._evolve(amps.copy(), n, ops).amplitudes
            assert got.tobytes() == want.tobytes(), steps

    @pytest.mark.parametrize("n, steps", [
        (4, [(phase_shift(0.3), (0,)), (phase_shift(0.4), (1,))]),
        (4, [(controlled_phase(0.3), (0, 1)), (controlled_phase(0.4), (2, 3))]),
        (4, [(custom_gate(2, np.diag(np.exp(1j * np.arange(4.0)))), (1, 2)), (phase_shift(0.4), (1,))]),
        (4, [(phase_shift(0.3), (2,)), (HADAMARD, (0,)), (phase_shift(0.4), (2,))]),
        (2, [(controlled_phase(0.3), (0, 1)), (controlled_phase(0.4), (1, 0))]),
    ], ids=["disjoint-phases", "disjoint-cphases", "no-control", "dense-between", "one-amplitude"])
    def test_runs_with_no_shared_set_qubit_stay_unfused(self, n, steps):
        """So does a run whose sub-block is one amplitude: the steps scale it
        out of place, which rounds as arrays do."""
        steps = [GateApplication(g, t) for g, t in steps]
        assert list(gates._fuse(steps, n)) == steps

    def test_shared_qubit_joins_phase_and_cphase(self):
        steps = [GateApplication(phase_shift(0.3), (2,)), GateApplication(controlled_phase(0.5), (0, 2)),
                 GateApplication(IDENTITY, (1,)), GateApplication(controlled_phase(0.7), (2, 3))]
        (op,) = gates._fuse(steps, 5)
        # Qubit 4 is untouched, 2 shared; 3 and 0 are free, split by 1 and 2.
        assert op.shape == (2, 2, 2, 2, 2)
        assert op.index == (slice(None), slice(None), -1, slice(None), slice(None))
        assert op.factors.shape == (1, 2, 1, 2)

    def test_wide_fan_splits_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(gates, "_FUSED_QUBITS", 2)
        n = 7
        fan = [GateApplication(controlled_phase(math.pi / (1 << d)), (d - 1, 6)) for d in range(1, 7)]
        ops = list(gates._fuse(fan, n))
        assert [type(op) for op in ops] == [gates._Scale] * 3
        assert [op.factors.size for op in ops] == [4, 4, 4]
        amps = random_state_vector(n, np.random.default_rng(110))
        got = gates._evolve(amps.copy(), n, ops).amplitudes
        want = amps.copy()
        for i in range(3):
            diagonal_run_reference(fan[2 * i: 2 * i + 2], want)
        assert got.tobytes() == want.tobytes()
        monkeypatch.undo()
        (op,) = gates._fuse(fan, n)
        assert op.factors.size == 1 << 6

    @pytest.mark.parametrize("t", [16, 20])
    def test_no_fused_op_holds_more_than_the_bound(self, t):
        for sign in (1, -1):
            program = _program.__wrapped__(tuple(range(t)), t, sign)
            scales = [op for op in program if isinstance(op, gates._Scale)]
            assert len(scales) > t // 2
            assert max(op.factors.size for op in scales) == 1 << gates._FUSED_QUBITS
