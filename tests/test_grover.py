"""Tests for oracle enumeration and amplitude-amplified search."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import amplify_reference
from peak_memory import PeakMemory

from qregsim import RandomSource, get_max_qubits, set_max_qubits
from qregsim.algorithms import (
    Oracle,
    amplified_state,
    count_marked,
    grover_search,
    qam_store,
    uniform_superposition,
)
from qregsim.algorithms.grover import _plane_draw, amplify, iteration_count
from qregsim.measurement import _draw_index


class TestCountMarked:
    def test_singleton(self):
        assert count_marked(Oracle(3, lambda i: i == 5)) == 1

    def test_empty(self):
        assert count_marked(Oracle(4, lambda i: False)) == 0

    def test_even_indices(self):
        assert count_marked(Oracle(4, lambda i: i % 2 == 0)) == 8


class TestOracleEnumeration:
    def test_predicate_runs_once_per_index(self):
        calls = []

        def predicate(i):
            calls.append(i)
            return i in (3, 77)

        oracle = Oracle(7, predicate)
        result = grover_search(oracle, count_marked(oracle), RandomSource(4))
        assert 0 <= result.outcome < 128
        np.testing.assert_array_equal(oracle.marked_indices(), [3, 77])
        assert sorted(calls) == list(range(128))

    @pytest.mark.parametrize("n,message", [(40, "exceeds the configured cap"),
                                           (-1, "positive integer"), (0, "positive integer")])
    def test_register_width_checked_before_enumerating(self, n, message):
        calls = []
        oracle = Oracle(n, calls.append)
        with pytest.raises(ValueError, match=message):
            oracle.marked_indices()
        with pytest.raises(ValueError, match=message):
            grover_search(oracle, 1, RandomSource(0))
        assert calls == []
        with pytest.raises(ValueError, match=message):
            uniform_superposition(n)  # checked before the buffer is filled

    def test_marked_indices_read_only(self):
        marked = Oracle(4, lambda i: i % 3 == 0).marked_indices()
        assert not marked.flags.writeable
        with pytest.raises(ValueError):
            marked[0] = 1

    def test_oracle_from_marked_set_never_calls_its_predicate(self, monkeypatch):
        enumerate_marked = Oracle.__dict__["_marked"]  # a functools.cached_property
        monkeypatch.setattr(enumerate_marked, "func", None)
        oracle = Oracle._from_marked(26, {9, 5, 1 << 25})
        assert oracle.num_qubits == 26
        assert oracle.marked_indices().tolist() == [5, 9, 1 << 25]
        assert not oracle.marked_indices().flags.writeable
        assert oracle.predicate(9) and not oracle.predicate(6)
        result = grover_search(oracle, count_marked(oracle), RandomSource(3))
        assert result.iterations == iteration_count(3, 1 << 26)[0]

    def test_oracle_from_marked_set_checks_the_width(self):
        with pytest.raises(ValueError, match="exceeds the configured cap"):
            Oracle._from_marked(40, {1})

    def test_widths_past_63_refused_under_a_wider_cap(self):
        """Indices are int64: a 64-qubit oracle fails before enumerating or
        drawing.  No search runs here; its round loop is slow at this width."""
        old = get_max_qubits()
        set_max_qubits(64)
        try:
            calls, rng = [], RandomSource(0)
            with pytest.raises(ValueError, match="at most 63 qubits"):
                Oracle._from_marked(64, {(1 << 64) - 1})
            with pytest.raises(ValueError, match="at most 63 qubits"):
                grover_search(Oracle(64, calls.append), 1, rng)
            assert calls == [] and rng.draw_count == 0
            widest = Oracle._from_marked(63, {(1 << 63) - 1})
        finally:
            set_max_qubits(old)
        assert widest.marked_indices().tolist() == [(1 << 63) - 1]

    def test_equality_and_hash_ignore_enumeration(self):
        def predicate(i):
            return i == 2

        enumerated, fresh = Oracle(3, predicate), Oracle(3, predicate)
        enumerated.marked_indices()
        assert enumerated == fresh
        assert hash(enumerated) == hash(fresh)
        assert enumerated != Oracle(4, predicate)


class TestAmplify:
    @staticmethod
    def _sparse_memory(n, rng):
        stored = rng.choice(1 << n, size=max(2, (1 << n) // 5), replace=False)
        return qam_store(format(int(i), f"0{n}b") for i in stored).state.amplitudes

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("memory", [False, True], ids=["uniform", "qam"])
    def test_matches_full_vector_loop(self, n, memory):
        rng = np.random.default_rng(400 + n)
        reference = (
            self._sparse_memory(n, rng) if memory else uniform_superposition(n).amplitudes
        )
        support = np.flatnonzero(reference)
        for _ in range(3):
            count = int(rng.integers(1, support.size + 1))
            marked = np.sort(rng.choice(support, size=count, replace=False))
            k, _ = iteration_count(count, support.size)
            for rounds in range(k + 4):
                np.testing.assert_allclose(
                    amplify(reference, marked, rounds),
                    amplify_reference(reference, marked, rounds),
                    rtol=0, atol=1e-12,
                )

    @pytest.mark.parametrize("marked_count", range(1, 9))
    def test_closed_form_at_eighteen_qubits(self, marked_count):
        n = 18
        total = 1 << n
        rng = np.random.default_rng(marked_count)
        marked = np.sort(rng.choice(total, size=marked_count, replace=False))
        unmarked = np.setdiff1d(np.arange(total), marked)
        k, theta = iteration_count(marked_count, total)
        amps = amplify(uniform_superposition(n).amplitudes, marked, k)
        angle = (2 * k + 1) * theta
        assert np.abs(amps[marked] - math.sin(angle) / math.sqrt(marked_count)).max() < 1e-14
        assert np.abs(
            amps[unmarked] - math.cos(angle) / math.sqrt(total - marked_count)
        ).max() < 1e-14

    def test_zero_rounds_is_a_fresh_copy(self):
        start = uniform_superposition(5).amplitudes
        amps = amplify(start, np.array([3, 9]), 0)
        assert amps is not start and not np.shares_memory(amps, start)
        assert amps.flags.writeable
        np.testing.assert_array_equal(amps, start)


class TestUniformSuperposition:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_amplitudes(self, n):
        state = uniform_superposition(n)
        np.testing.assert_allclose(
            state.amplitudes, np.full(1 << n, 1 / math.sqrt(1 << n)), atol=1e-15
        )


class TestGroverSearch:
    def test_two_qubits_single_mark_is_certain(self):
        oracle = Oracle(2, lambda i: i == 2)
        result = grover_search(oracle, 1, RandomSource(0))
        assert result.iterations == 1
        assert result.predicted_success == 1.0
        assert result.outcome == 2

    def test_three_qubits_closed_form(self):
        """sin^2(5 * asin(sqrt(1/8))) = 0.9453125 with k = 2."""
        oracle = Oracle(3, lambda i: i == 5)
        result = grover_search(oracle, 1, RandomSource(1))
        assert result.iterations == 2
        assert abs(result.predicted_success - 0.9453125) < 1e-12

    def test_all_marked_degenerate(self):
        oracle = Oracle(3, lambda i: True)
        result = grover_search(oracle, 8, RandomSource(2))
        assert result.iterations == 0
        assert 0 <= result.outcome < 8

    def test_empirical_success_tracks_prediction(self):
        oracle = Oracle(4, lambda i: i == 11)
        hits = sum(
            grover_search(oracle, 1, RandomSource(seed)).outcome == 11
            for seed in range(400)
        )
        predicted = grover_search(oracle, 1, RandomSource(0)).predicted_success
        assert abs(hits / 400 - predicted) < 5 * math.sqrt(0.25 / 400)

    def test_zero_marked_rejected(self):
        with pytest.raises(ValueError, match="nothing to find"):
            grover_search(Oracle(3, lambda i: False), 0, RandomSource(0))

    def test_inconsistent_count_rejected(self):
        with pytest.raises(ValueError, match="disagrees"):
            grover_search(Oracle(3, lambda i: i == 5), 2, RandomSource(0))


class TestAmplitudeSchedule:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_marked_amplitude_matches_rotation(self, n):
        """After k rounds the marked amplitude is sin((2k+1) theta) to 1e-9."""
        total = 1 << n
        rng = np.random.default_rng(50 + n)
        for marked_count in {1, 2, max(1, total // 4), total}:
            marked = set(
                int(i) for i in rng.choice(total, size=marked_count, replace=False)
            )
            oracle = Oracle(n, lambda i, s=marked: i in s)
            state, k, theta = amplified_state(oracle, marked_count)
            amp = math.sqrt(
                sum(state.probability(i) for i in marked)
            )
            assert abs(amp - abs(math.sin((2 * k + 1) * theta))) < 1e-9
            assert k <= math.ceil(math.pi / 4 * math.sqrt(total / marked_count))


def _grover_reference(n, marked, u):
    """``amplified_state`` + ``_draw_index``, and the distance of ``u`` from
    the nearest edge of the reference CDF."""
    oracle = Oracle(n, set(marked).__contains__)
    state, _, _ = amplified_state(oracle, len(marked))
    cum = np.cumsum(state.probabilities())
    return _draw_index(state.probabilities(), u), float(np.abs(cum / cum[-1] - u).min())


@st.composite
def _searches(draw):
    n = draw(st.integers(1, 10))
    marked = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n))
    return n, sorted(marked), draw(st.floats(0.0, 1.0, exclude_max=True))


class TestPlaneDraw:
    """``grover_search`` draws in the (ref, P ref) plane, as the vector would."""

    @settings(max_examples=300, deadline=None)
    @given(_searches())
    def test_matches_the_amplified_vector(self, search):
        n, marked, u = search
        expected, gap = _grover_reference(n, marked, u)
        assume(gap > 1e-9)  # away from a bin edge, where rounding may differ
        k, theta = iteration_count(len(marked), 1 << n)
        assert _plane_draw(1 << n, np.array(marked), k, theta, u) == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_quarter_marked_reaches_only_marked_indices(self, n):
        """M = N/4 leaves exactly 0.0 on every unmarked index after one round."""
        total = 1 << n
        rng = np.random.default_rng(n)
        marked = np.sort(rng.choice(total, size=total // 4, replace=False))
        k, theta = iteration_count(marked.size, total)
        assert k == 1
        uniforms = [0.0, 1.0 - 2.0**-53, *rng.random(300)]
        drawn = {_plane_draw(total, marked, k, theta, u) for u in uniforms}
        assert drawn <= set(marked.tolist())
        assert {int(marked[0]), int(marked[-1])} <= drawn

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_every_index_marked(self, n):
        total = 1 << n
        marked = np.arange(total)
        k, theta = iteration_count(total, total)
        assert k == 0
        for i in range(total):
            assert _plane_draw(total, marked, k, theta, (i + 0.5) / total) == i
        assert _plane_draw(total, marked, k, theta, 0.0) == 0
        assert _plane_draw(total, marked, k, theta, 1.0 - 2.0**-53) == total - 1

    @pytest.mark.parametrize("target", [0, 1])
    def test_one_of_two_marked(self, target):
        """M = 1 at n = 1: no round, so both indices weigh 1/2."""
        k, theta = iteration_count(1, 2)
        assert k == 0
        marked = np.array([target])
        assert [_plane_draw(2, marked, k, theta, u) for u in (0.0, 0.49, 0.5, 1.0 - 2.0**-53)] == [
            0, 0, 1, 1
        ]

    def test_search_holds_no_register_vector(self):
        """A 20-qubit search whose marked set is cached peaks under 64 KiB."""
        oracle = Oracle._from_marked(20, {3, 1 << 19, (1 << 20) - 1})
        grover_search(oracle, 3, RandomSource(0))  # warm-up
        with PeakMemory() as traced:
            result = grover_search(oracle, 3, RandomSource(1))
        assert traced.peak < 64 << 10
        assert 0 <= result.outcome < 1 << 20
