"""Where states and gates are checked: once at the trust boundary, never
on library-built ones.

The checking constructor ``QuantumState(...)`` runs only on input from
outside (``from_amplitudes`` or a direct call).  States the library builds
from unit-norm pieces skip it, gate sequences included, since every gate is
unitary: ``Gate(...)`` and ``custom_gate`` check a matrix from outside where
the gate is made, and the module constants and phase factories build theirs
unitary by construction, unchecked.  These tests pin both halves for states
and gates: the call counts, and that every such state is in fact unit-norm
and every such gate passes the checked constructor.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_gates import _random_monomial, _random_unitary, all_gate_kinds

from qregsim import (
    CNOT,
    EXCHANGE,
    FREDKIN,
    HADAMARD,
    IDENTITY,
    NORM_TOLERANCE,
    NOT,
    TOFFOLI,
    Circuit,
    Gate,
    GateApplication,
    QuantumState,
    RandomSource,
    apply,
    basis_state,
    controlled_phase,
    custom_gate,
    from_amplitudes,
    gates,
    get_max_qubits,
    is_product,
    marginal,
    marginal_distribution,
    measure_all,
    measure_qubits,
    parse_circuit,
    phase_shift,
    run_circuit,
    sample_counts,
    set_max_qubits,
    tensor,
)
from qregsim.algorithms import (
    Oracle,
    amplified_state,
    classical_walk_line,
    count_marked,
    grover_search,
    inverse_qft,
    qam_query,
    qam_store,
    qft,
    qft_applications,
    qrng,
    quantum_walk_line,
    shor,
    shor_factor,
    shor_period,
    uniform_superposition,
)
from qregsim.algorithms.grover import amplify
from qregsim.algorithms.qft import _ladder, _program
from qregsim.measurement import _project

TRIPLE_PATTERNS = ("00000", "10000", "11111")


def _random_amplitudes(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def _norm_error(amps):
    return abs(float(np.vdot(amps, amps).real) - 1.0)


@pytest.fixture
def validations(monkeypatch):
    """``validations(call)`` runs ``call`` and returns its ``QuantumState.__init__`` calls."""
    init = QuantumState.__init__
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuantumState, "__init__", counting)

    def count(call):
        calls.clear()
        call()
        return len(calls)

    return count


_STATE = from_amplitudes(3, _random_amplitudes(3, 0))
_MEMORY = qam_store(TRIPLE_PATTERNS)

LIBRARY_BUILT = {
    "basis_state": lambda: basis_state(3, 5),
    "tensor": lambda: tensor(_STATE, basis_state(2, 1)),
    "uniform_superposition": lambda: uniform_superposition(5),
    "measure_all": lambda: measure_all(_STATE, RandomSource(1)),
    "measure_qubits": lambda: measure_qubits(_STATE, [0, 2], RandomSource(1)),
    "grover_search": lambda: grover_search(Oracle(5, lambda i: i == 3), 1, RandomSource(2)),
    "qam_store": lambda: qam_store(TRIPLE_PATTERNS),
    "qam_query": lambda: qam_query(_MEMORY, "11110", 1, RandomSource(5)),
    "apply": lambda: apply(_STATE, GateApplication(HADAMARD, (1,))),
    "run_circuit": lambda: run_circuit(
        parse_circuit("qubits 2\nh 1\ncnot 1 0\nmeasure all\n"), 100, 7
    ),
    "Circuit.final_state": lambda: Circuit(
        3, (GateApplication(HADAMARD, (0,)), GateApplication(CNOT, (0, 2)))
    ).final_state(),
    "qft": lambda: qft(_STATE, [2, 0]),
    "inverse_qft": lambda: inverse_qft(_STATE),
}

CHECKED_ONCE = {
    "from_amplitudes": lambda: from_amplitudes(1, [0.6, 0.8]),
    "QuantumState": lambda: QuantumState(1, [0.6, 0.8]),
}


class TestValidationCounts:
    @pytest.mark.parametrize("name", LIBRARY_BUILT)
    def test_library_built_states_skip_the_check(self, validations, name):
        assert validations(LIBRARY_BUILT[name]) == 0

    @pytest.mark.parametrize("name", CHECKED_ONCE)
    def test_boundary_and_gate_sequences_check_once(self, validations, name):
        assert validations(CHECKED_ONCE[name]) == 1

    @pytest.mark.parametrize("a,mod_n,seed", [(7, 15, 1), (2, 21, 3), (2, 35, 4)])
    def test_shor_checks_once_per_inverse_transform(self, validations, monkeypatch, a, mod_n, seed):
        transforms = []

        def counting(state, *args):
            transforms.append(state)
            return inverse_qft(state, *args)

        inverse_qft = shor.inverse_qft
        monkeypatch.setattr(shor, "inverse_qft", counting)
        assert validations(lambda: shor_period(a, mod_n, RandomSource(seed))) == 0
        assert transforms

    def test_run_relabels_steps_without_checking_qubits(self, monkeypatch):
        """Qubits 1 and 3 stay classical, so ``run`` relabels the kept steps
        and restricts the ``cphase`` on a classical qubit: neither checks
        targets that the parser already checked."""
        circuit = parse_circuit(
            "qubits 4\nx 3\nh 2\ncnot 2 0\ncphase 3 0 0.4\nphase 1 0.2\nmeasure all\n"
        )
        check = gates._check_qubits
        calls = []

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(gates, "_check_qubits", counting)
        result = run_circuit(circuit, 200, 5)
        assert calls == []
        assert set(result.counts) == {0b1000, 0b1101}
        assert sum(result.counts.values()) == 200


@pytest.fixture
def gate_checks(monkeypatch):
    """``gate_checks(call)`` runs ``call`` and returns its ``Gate`` unitarity checks."""
    check = Gate.__post_init__
    calls = []

    def counting(self):
        calls.append(self.name)
        check(self)

    monkeypatch.setattr(Gate, "__post_init__", counting)

    def count(call):
        calls.clear()
        call()
        return len(calls)

    return count


def _uncached(call):
    """``call`` with the Fourier ladder and program caches emptied first."""
    _ladder.cache_clear()
    _program.cache_clear()
    return call()


#: Unitarity checks per entry point that makes gates: one for a matrix from
#: outside, none for a gate the library builds.
GATE_CHECKS = {
    "Gate": (lambda: Gate("g", 1, np.eye(2)), 1),
    "custom_gate": (lambda: custom_gate(2, np.eye(4)), 1),
    "phase_shift": (lambda: phase_shift(0.3), 0),
    "controlled_phase": (lambda: controlled_phase(0.3), 0),
    "parse_circuit": (lambda: parse_circuit("qubits 2\nphase 0 0.3\ncphase 0 1 0.2\nh 1\n"), 0),
    "qft_applications": (lambda: _uncached(lambda: qft_applications([4, 1, 2])), 0),
    "qft": (lambda: _uncached(lambda: qft(_STATE, [2, 0])), 0),
    "inverse_qft": (lambda: _uncached(lambda: inverse_qft(_STATE)), 0),
    "shor_period": (lambda: _uncached(lambda: shor_period(7, 15, RandomSource(1))), 0),
}


class TestGateChecks:
    @pytest.mark.parametrize("name", GATE_CHECKS)
    def test_only_matrices_from_outside_are_checked(self, gate_checks, name):
        call, checks = GATE_CHECKS[name]
        assert gate_checks(call) == checks

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(1e6)
    @example(-1e6)
    def test_library_gates_pass_the_checked_constructor(self, phi):
        for gate in (phase_shift(phi), controlled_phase(phi), IDENTITY, NOT, HADAMARD,
                     CNOT, EXCHANGE, TOFFOLI, FREDKIN):
            checked = Gate(gate.name, gate.arity, gate.matrix, phi=gate.phi)
            assert checked == gate and checked.matrix.tobytes() == gate.matrix.tobytes()
            assert gate.matrix.dtype == np.complex128 and not gate.matrix.flags.writeable


class TestLibraryBuiltStatesAreUnitNorm:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.data(),
    )
    def test_amplify(self, n, seed, rounds, data):
        marked = data.draw(st.lists(st.integers(0, (1 << n) - 1), unique=True))
        reference = _random_amplitudes(n, seed)
        amps = amplify(reference, np.array(marked, dtype=np.intp), rounds)
        assert _norm_error(amps) <= NORM_TOLERANCE

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_projection(self, n, seed, data):
        qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        bits = {q: data.draw(st.integers(0, 1)) for q in qubits}
        post = _project(from_amplitudes(n, _random_amplitudes(n, seed)), bits)
        assert _norm_error(post.amplitudes) <= NORM_TOLERANCE

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_tensor(self, n_a, n_b, seed):
        a = from_amplitudes(n_a, _random_amplitudes(n_a, seed))
        b = from_amplitudes(n_b, _random_amplitudes(n_b, seed + 1))
        assert _norm_error(tensor(a, b).amplitudes) <= NORM_TOLERANCE

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
    def test_gate_sequences(self, n, seed, data):
        """Steps of every kind and random custom gates, through every gate
        sequence: a circuit, folded apply calls and a sub-register transform."""
        rng = np.random.default_rng(seed)
        kinds = [g for g in all_gate_kinds(phi=rng.uniform(-math.pi, math.pi)) if g.arity <= n]
        for arity in range(1, min(n, 3) + 1):
            kinds.append(custom_gate(arity, _random_unitary(arity, rng)))
            kinds.append(custom_gate(arity, _random_monomial(arity, rng)))
        steps = tuple(
            GateApplication(gate, data.draw(st.permutations(range(n)))[: gate.arity])
            for gate in data.draw(st.lists(st.sampled_from(kinds), max_size=24), label="gates")
        )
        start = from_amplitudes(n, _random_amplitudes(n, seed))
        folded = start
        for step in steps:
            folded = apply(folded, step)
        qubits = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        outputs = (Circuit(n, steps).final_state(), folded,
                   qft(start, qubits), inverse_qft(folded, qubits))
        assert max(_norm_error(state.amplitudes) for state in outputs) <= NORM_TOLERANCE

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([(15, 2), (15, 7), (21, 2), (21, 5), (33, 5), (35, 3)]),
        st.integers(0, 2**32 - 1),
    )
    def test_shor_comb(self, case, seed):
        mod_n, a = case
        combs = []

        def spy(state, *args):
            combs.append(state.amplitudes)
            return inverse_qft(state, *args)

        inverse_qft = shor.inverse_qft
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shor, "inverse_qft", spy)
            shor_period(a, mod_n, RandomSource(seed))
        assert combs
        assert max(_norm_error(comb) for comb in combs) <= NORM_TOLERANCE


# The integer rule: widths, counts, indices, seeds, radii and qubit indices
# are an ``int`` or a numpy integer.  Anything else, a bool included, raises
# ValueError where it enters, before any RandomSource draw.

NOT_INTEGERS = (2.5, True, np.float64(2.0), "3")

_PAIR = Oracle(2, (1).__eq__)

#: Every public entry point that takes an integer argument or a qubit list:
#: ``{argument: call(value, rng)}``, which passes ``value`` in that argument.
INTEGER_ARGUMENTS = {
    "QuantumState": {"num_qubits": lambda v, rng: QuantumState(v, [1, 0])},
    "QuantumState.probability": {"index": lambda v, rng: _STATE.probability(v)},
    "basis_state": {
        "num_qubits": lambda v, rng: basis_state(v, 0),
        "index": lambda v, rng: basis_state(2, v),
    },
    "from_amplitudes": {"num_qubits": lambda v, rng: from_amplitudes(v, [1, 0])},
    "set_max_qubits": {"cap": lambda v, rng: set_max_qubits(v)},
    "custom_gate": {"arity": lambda v, rng: custom_gate(v, np.eye(2))},
    "Gate": {"arity": lambda v, rng: Gate("g", v, np.eye(2))},
    "GateApplication": {"targets": lambda v, rng: GateApplication(NOT, [v])},
    "Circuit": {
        "num_qubits": lambda v, rng: Circuit(v).final_state(),
        "terminal_measure": lambda v, rng: Circuit(2, (), (v,)),
    },
    "run_circuit": {
        "shots": lambda v, rng: run_circuit(Circuit(2), v, 0),
        "seed": lambda v, rng: run_circuit(Circuit(2), 10, v),
    },
    "RandomSource": {"seed": lambda v, rng: RandomSource(v)},
    "RandomSource.uniforms": {"count": lambda v, rng: rng.uniforms(v)},
    "marginal": {
        "qubit": lambda v, rng: marginal(_STATE, {v: 1}),
        "bit": lambda v, rng: marginal(_STATE, {0: v}),
    },
    "marginal_distribution": {"qubits": lambda v, rng: marginal_distribution(_STATE, [v])},
    "measure_qubits": {"qubits": lambda v, rng: measure_qubits(_STATE, [v], rng)},
    "sample_counts": {
        "shots": lambda v, rng: sample_counts(_STATE, v, rng),
        "qubits": lambda v, rng: sample_counts(_STATE, 5, rng, qubits=[v]),
    },
    "is_product": {"left_qubits": lambda v, rng: is_product(_STATE, [v])},
    "uniform_superposition": {"num_qubits": lambda v, rng: uniform_superposition(v)},
    "count_marked": {"Oracle.num_qubits": lambda v, rng: count_marked(Oracle(v, bool))},
    "amplified_state": {"marked_count": lambda v, rng: amplified_state(_PAIR, v)},
    "grover_search": {
        "Oracle.num_qubits": lambda v, rng: grover_search(Oracle(v, bool), 1, rng),
        "marked_count": lambda v, rng: grover_search(_PAIR, v, rng),
    },
    "qam_query": {"radius": lambda v, rng: qam_query(_MEMORY, "11110", v, rng)},
    "qft": {"qubits": lambda v, rng: qft(_STATE, [v])},
    "inverse_qft": {"qubits": lambda v, rng: inverse_qft(_STATE, [v])},
    "qft_applications": {"qubits": lambda v, rng: qft_applications([v])},
    "qrng": {
        "num_bits": lambda v, rng: qrng(v, 1, rng),
        "chunk": lambda v, rng: qrng(4, v, rng),
    },
    "shor_factor": {"mod_n": lambda v, rng: shor_factor(v, rng)},
    "shor_period": {
        "a": lambda v, rng: shor_period(v, 15, rng),
        "mod_n": lambda v, rng: shor_period(2, v, rng),
    },
    "quantum_walk_line": {"steps": lambda v, rng: quantum_walk_line(v)},
    "classical_walk_line": {"steps": lambda v, rng: classical_walk_line(v)},
}


@pytest.fixture
def restore_cap():
    cap = get_max_qubits()
    yield
    set_max_qubits(cap)


def _circuit(i):
    return Circuit(i(3), (GateApplication(HADAMARD, (i(2),)),), (i(2), i(0)))


#: Entry points that carry an integer argument into their output or their
#: arithmetic: ``call(integer, rng)`` passes every integer argument through
#: ``integer``, so an ``np.int64`` call can be compared with the ``int`` one.
SAME_AS_INT = {
    "QuantumState": lambda i, rng: QuantumState(i(1), [0.6, 0.8]),
    "basis_state": lambda i, rng: basis_state(i(3), i(5)),
    "from_amplitudes": lambda i, rng: from_amplitudes(i(1), [0.6, 0.8]),
    "set_max_qubits": lambda i, rng: (set_max_qubits(i(20)), get_max_qubits()),
    "custom_gate": lambda i, rng: custom_gate(i(1), np.eye(2)),
    "Gate": lambda i, rng: Gate("g", i(1), np.eye(2)),
    "RandomSource.uniforms": lambda i, rng: (rng.uniforms(i(4)), rng.draw_count),
    "Circuit": lambda i, rng: (_circuit(i), _circuit(i).final_state()),
    "run_circuit": lambda i, rng: run_circuit(_circuit(i), i(100), i(7)),
    "uniform_superposition": lambda i, rng: uniform_superposition(i(3)),
    "grover_search": lambda i, rng: grover_search(Oracle(i(3), (5).__eq__), i(1), rng),
    "qrng": lambda i, rng: qrng(i(64), i(1), rng),
    "shor_factor": lambda i, rng: shor_factor(i(15), rng),
    "shor_period": lambda i, rng: shor_period(i(7), i(15), rng),
    "quantum_walk_line": lambda i, rng: quantum_walk_line(i(40)),
    "classical_walk_line": lambda i, rng: classical_walk_line(i(40)),
}


def _fingerprint(value):
    """``value`` as nested tuples of type names and contents: equal
    fingerprints mean outputs equal in every field, type and bit."""
    if isinstance(value, QuantumState):
        value = {"num_qubits": value.num_qubits, "amplitudes": value.amplitudes}
    elif isinstance(value, Gate):
        value = {"name": value.name, "arity": value.arity, "matrix": value.matrix}
    elif dataclasses.is_dataclass(value):
        value = vars(value)
    elif hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return "dict", tuple((_fingerprint(k), _fingerprint(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(_fingerprint, value))
    return type(value).__name__, value


class TestIntegerRule:
    @pytest.mark.parametrize("entry_point", INTEGER_ARGUMENTS)
    def test_non_integers_raise_before_any_draw(self, restore_cap, entry_point):
        wrong = []
        for argument, call in INTEGER_ARGUMENTS[entry_point].items():
            for value in NOT_INTEGERS:
                rng = RandomSource(0)
                try:
                    call(value, rng)
                    outcome = "accepted"
                except ValueError:
                    outcome = f"{rng.draw_count} draw(s) first" if rng.draw_count else None
                except Exception as exc:  # any other error is wrong too
                    outcome = f"{type(exc).__name__}: {exc}"
                if outcome:
                    wrong.append(f"{argument}={value!r}: {outcome}")
        assert not wrong

    @pytest.mark.parametrize("entry_point", SAME_AS_INT)
    def test_numpy_integers_act_as_ints(self, restore_cap, entry_point):
        outputs = []
        for integer in (int, np.int64):
            rng = RandomSource(3)
            outputs.append((_fingerprint(SAME_AS_INT[entry_point](integer, rng)), rng.draw_count))
        assert outputs[1] == outputs[0]
