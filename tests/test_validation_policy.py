"""Where states are checked: once at the trust boundary, never on library-built states.

The checking constructor ``QuantumState(...)`` runs for input from outside
(``from_amplitudes``) and once at the end of every gate sequence.  States
the library builds from unit-norm pieces skip it, so these tests pin both
halves: the call counts, and that every such state is in fact unit-norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregsim import (
    HADAMARD,
    NORM_TOLERANCE,
    GateApplication,
    QuantumState,
    RandomSource,
    apply,
    basis_state,
    from_amplitudes,
    measure_all,
    measure_qubits,
    parse_circuit,
    run_circuit,
    tensor,
)
from qregsim.algorithms import (
    Oracle,
    grover,
    grover_search,
    qam_query,
    qam_store,
    shor,
    shor_period,
    uniform_superposition,
)
from qregsim.algorithms.grover import amplify
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
    "uniform_superposition": lambda: (
        grover._uniform_superposition_cached.cache_clear(), uniform_superposition(5)
    ),
    "measure_all": lambda: measure_all(_STATE, RandomSource(1)),
    "measure_qubits": lambda: measure_qubits(_STATE, [0, 2], RandomSource(1)),
    "grover_search": lambda: grover_search(Oracle(5, lambda i: i == 3), 1, RandomSource(2)),
    "qam_store": lambda: qam_store(TRIPLE_PATTERNS),
    "qam_query": lambda: qam_query(_MEMORY, "11110", 1, RandomSource(5)),
}

CHECKED_ONCE = {
    "apply": lambda: apply(_STATE, GateApplication(HADAMARD, (1,))),
    "run_circuit": lambda: run_circuit(
        parse_circuit("qubits 2\nh 1\ncnot 1 0\nmeasure all\n"), 100, 7
    ),
    "from_amplitudes": lambda: from_amplitudes(1, [0.6, 0.8]),
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
        assert validations(lambda: shor_period(a, mod_n, RandomSource(seed))) == len(transforms)
        assert transforms


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
