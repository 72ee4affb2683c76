"""Tests for pattern storage and amplified retrieval."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peak_memory import PeakMemory

from qregsim import RandomSource
from qregsim.algorithms import qam_query, qam_store, uniform_superposition
from qregsim.algorithms.grover import amplify, iteration_count
from qregsim.algorithms.qam import PatternMemory
from qregsim.measurement import _draw_index

TRIPLE_PATTERNS = ("00000", "10000", "11111")


class TestStore:
    def test_three_patterns_give_equal_superposition(self, triple_state):
        memory = qam_store(TRIPLE_PATTERNS)
        np.testing.assert_array_equal(
            memory.state.amplitudes, triple_state.amplitudes
        )

    def test_amplitudes_exactly_inverse_root_p(self):
        memory = qam_store(["000", "011", "101", "110"])
        stored = [int(p, 2) for p in memory.patterns]
        for i in range(8):
            expected = 0.5 if i in stored else 0.0
            assert memory.state.amplitudes[i] == expected

    def test_full_pattern_set_equals_hadamard_all(self):
        n = 6
        memory = qam_store([format(i, f"0{n}b") for i in range(1 << n)])
        np.testing.assert_allclose(
            memory.state.amplitudes,
            uniform_superposition(n).amplitudes,
            atol=1e-12,
        )

    def test_single_pattern_is_basis_state(self):
        memory = qam_store(["101"])
        assert memory.state.probability(5) == 1.0

    def test_capacity_exponential_in_register_width(self):
        """2**n patterns fit an n-qubit register with exact 1/sqrt(p) weights."""
        n = 10
        memory = qam_store([format(i, f"0{n}b") for i in range(1 << n)])
        assert len(memory.patterns) == 1 << n
        assert np.all(memory.state.amplitudes == 1.0 / math.sqrt(1 << n))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            qam_store([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            qam_store(["01", "01"])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            qam_store(["01", "011"])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            qam_store(["21"])

    def test_register_width_checked_before_allocating(self):
        """A 40-bit pattern needs 40 qubits; the cap fails before 16 TiB is asked for."""
        with PeakMemory() as traced:
            with pytest.raises(ValueError, match="num_qubits=40 exceeds the configured cap"):
                qam_store(["0" * 40])
        assert traced.peak < 1 << 20


class TestQuery:
    def test_near_match_closed_form(self):
        """Marking 1 of 3 patterns: k=1, success sin^2(3 asin(sqrt(1/3))) = 25/27."""
        memory = qam_store(TRIPLE_PATTERNS)
        result = qam_query(memory, "11110", 1, RandomSource(5))
        assert abs(result.predicted_success - 25 / 27) < 1e-12
        assert result.pattern == "11111"

    def test_exact_match_single_pattern(self):
        memory = qam_store(["1010"])
        result = qam_query(memory, "1010", 0, RandomSource(0))
        assert result.pattern == "1010"
        assert result.predicted_success == 1.0

    def test_full_radius_degenerate(self):
        memory = qam_store(TRIPLE_PATTERNS)
        result = qam_query(memory, "01010", 5, RandomSource(1))
        assert result.pattern in TRIPLE_PATTERNS
        assert result.predicted_success == 1.0

    def test_retrieval_frequency_matches_prediction(self):
        memory = qam_store(TRIPLE_PATTERNS)
        shots = 2_000
        hits = sum(
            qam_query(memory, "11110", 1, RandomSource(seed)).pattern == "11111"
            for seed in range(shots)
        )
        p = 25 / 27
        assert abs(hits / shots - p) < 5 * math.sqrt(p * (1 - p) / shots)

    def test_support_never_leaves_stored_patterns(self):
        memory = qam_store(TRIPLE_PATTERNS)
        for seed in range(50):
            result = qam_query(memory, "11110", 1, RandomSource(seed))
            assert result.pattern in TRIPLE_PATTERNS

    def test_no_match_reports_min_distance(self):
        memory = qam_store(TRIPLE_PATTERNS)
        with pytest.raises(ValueError, match="distance 1"):
            qam_query(memory, "01111", 0, RandomSource(0))

    def test_codes_parsed_once_per_memory(self, monkeypatch):
        memory = qam_store(["0110", "1111", "0001"])
        parsed = []
        cached = PatternMemory.__dict__["_codes"]  # a functools.cached_property
        parse = cached.func

        def recording(self):
            parsed.append(self)
            return parse(self)

        monkeypatch.setattr(cached, "func", recording)
        for seed in range(3):
            qam_query(memory, "0111", 1, RandomSource(seed))
        assert parsed == [memory]
        codes = memory._codes
        assert codes is memory._codes
        assert codes.tolist() == [0b0110, 0b1111, 0b0001]
        assert not codes.flags.writeable

    def test_query_length_validated(self):
        memory = qam_store(TRIPLE_PATTERNS)
        with pytest.raises(ValueError, match="length"):
            qam_query(memory, "111", 0, RandomSource(0))


class _FixedUniform:
    """A ``RandomSource`` stand-in whose one draw is ``u``."""

    def __init__(self, u):
        self.u = u
        self.draw_count = 0

    def uniform(self):
        self.draw_count += 1
        return self.u


@st.composite
def _queries(draw):
    n = draw(st.integers(1, 8))
    codes = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n))
    patterns = [format(c, f"0{n}b") for c in draw(st.permutations(sorted(codes)))]
    query = format(draw(st.integers(0, (1 << n) - 1)), f"0{n}b")
    return patterns, query, draw(st.integers(0, n)), draw(st.floats(0.0, 1.0, exclude_max=True))


class TestPlaneDraw:
    """``qam_query`` draws over the sorted stored codes, as the vector would."""

    @settings(max_examples=300, deadline=None)
    @given(_queries())
    def test_matches_the_amplified_memory_vector(self, case):
        patterns, query, radius, u = case
        memory = qam_store(patterns)
        codes = [int(p, 2) for p in patterns]
        marked = np.array(sorted(c for c in codes if bin(c ^ int(query, 2)).count("1") <= radius))
        assume(marked.size)
        k, theta = iteration_count(marked.size, len(codes))
        probs = np.abs(amplify(memory.state.amplitudes, marked, k)) ** 2
        cum = np.cumsum(probs)
        assume(np.abs(cum / cum[-1] - u).min() > 1e-9)  # away from a bin edge
        expected = _draw_index(probs, u)
        rng = _FixedUniform(u)
        result = qam_query(memory, query, radius, rng)
        assert int(result.pattern, 2) == expected
        assert rng.draw_count == 1
        assert abs(result.predicted_success - math.sin((2 * k + 1) * theta) ** 2) < 1e-15

    def test_query_holds_no_register_vector(self):
        """A query of a 20-bit memory of 3 patterns peaks under 64 KiB."""
        memory = qam_store(["0" * 20, "1" * 20, "0" * 19 + "1"])
        qam_query(memory, "0" * 20, 1, RandomSource(0))  # warm-up
        with PeakMemory() as traced:
            result = qam_query(memory, "0" * 20, 1, RandomSource(1))
        assert traced.peak < 64 << 10
        assert result.pattern in memory.patterns
