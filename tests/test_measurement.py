"""Tests for marginals, collapse, sampling, and the product-state check."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from peak_memory import PeakMemory
from oracles import (
    bipartition_singular_values,
    marginal_distribution_reference,
    marginal_reference,
    project_reference,
    random_state_vector,
    sample_counts_reference,
)

from qregsim import (
    RandomSource,
    basis_state,
    from_amplitudes,
    is_product,
    marginal,
    marginal_distribution,
    measure_all,
    measure_qubits,
    sample_counts,
    tensor,
)
from qregsim import measurement
from qregsim.measurement import PRODUCT_TOLERANCE, _project


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(123)
        b = RandomSource(123)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_draw_count(self):
        rng = RandomSource(1)
        rng.uniform()
        rng.uniforms(5)
        assert rng.draw_count == 6

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RandomSource(-1)

    def test_seed_must_fit_64_bits(self):
        assert RandomSource(2**64 - 1).seed == 2**64 - 1
        assert RandomSource(np.uint64(2**64 - 1)).seed == 2**64 - 1
        with pytest.raises(ValueError, match="64-bit"):
            RandomSource(2**64)


class TestMarginal:
    def test_triple_leftmost_qubit(self, triple_state):
        assert abs(marginal(triple_state, {4: 1}) - 2 / 3) < 1e-12
        assert abs(marginal(triple_state, {4: 0}) - 1 / 3) < 1e-12

    def test_empty_assignment_is_one(self, triple_state):
        assert marginal(triple_state, {}) == 1.0

    def test_sums_to_one_over_assignments(self):
        rng = np.random.default_rng(21)
        state = from_amplitudes(4, random_state_vector(4, rng))
        for qubits in [(0,), (1, 3), (0, 1, 2)]:
            total = sum(
                marginal(state, dict(zip(qubits, bits)))
                for bits in itertools.product((0, 1), repeat=len(qubits))
            )
            assert abs(total - 1.0) < 1e-12

    def test_out_of_range(self, triple_state):
        with pytest.raises(ValueError):
            marginal(triple_state, {5: 0})

    def test_bad_bit(self, triple_state):
        with pytest.raises(ValueError):
            marginal(triple_state, {0: 2})


class TestMeasureAll:
    def test_deterministic_on_basis_state(self):
        rng = RandomSource(0)
        for _ in range(20):
            index, outcome = measure_all(basis_state(2, 3), rng)
            assert index == 3
            assert outcome.post_state.probability(3) == 1.0

    def test_triple_support_and_frequencies(self, triple_state):
        counts = sample_counts(triple_state, 100_000, RandomSource(4))
        assert set(counts) == {0, 16, 31}
        bound = 5 * math.sqrt((1 / 3) * (2 / 3) / 100_000)
        for index in (0, 16, 31):
            assert abs(counts[index] / 100_000 - 1 / 3) < bound

    def test_plus_state_frequency(self, plus_state):
        counts = sample_counts(plus_state, 100_000, RandomSource(5))
        assert abs(counts[0] / 100_000 - 0.5) < 5 * math.sqrt(0.25 / 100_000)

    def test_collapse_is_exact_basis_state(self, triple_state):
        _, outcome = measure_all(triple_state, RandomSource(6))
        assert np.count_nonzero(outcome.post_state.amplitudes) == 1

    def test_measured_bits_match_index(self, triple_state):
        index, outcome = measure_all(triple_state, RandomSource(7))
        for q, bit in outcome.measured_bits.items():
            assert (index >> q) & 1 == bit


class TestMeasureQubits:
    def test_triple_leftmost_zero_collapses_everything(self, triple_state):
        # Seed chosen so the qubit-4 outcome is 0 (probability 1/3).
        outcome = _measure_forcing(triple_state, [4], {4: 0})
        expected = np.zeros(32)
        expected[0] = 1.0
        np.testing.assert_array_equal(outcome.post_state.amplitudes, expected)

    def test_triple_rightmost_zero_leaves_leftmost_even(self, triple_state):
        outcome = _measure_forcing(triple_state, [0], {0: 0})
        post = outcome.post_state
        support = np.nonzero(post.amplitudes)[0]
        np.testing.assert_array_equal(support, [0, 16])
        assert abs(marginal(post, {4: 1}) - 0.5) < 1e-12
        assert abs(marginal(post, {4: 0}) - 0.5) < 1e-12

    def test_product_state_leaves_other_factor_untouched(self, plus_state):
        rng_np = np.random.default_rng(22)
        b = from_amplitudes(3, random_state_vector(3, rng_np))
        joint = tensor(b, plus_state)  # b on qubits 1..3, plus on qubit 0
        outcome = measure_qubits(joint, [0], RandomSource(9))
        for i in range(8):
            before = b.probability(i)
            after = marginal(
                outcome.post_state, {1: i & 1, 2: (i >> 1) & 1, 3: (i >> 2) & 1}
            )
            assert abs(after - before) < 1e-12

    def test_collapse_zeroing_is_exact(self, triple_state):
        outcome = measure_qubits(triple_state, [4, 2], RandomSource(10))
        for i in range(32):
            consistent = all(
                (i >> q) & 1 == bit for q, bit in outcome.measured_bits.items()
            )
            if not consistent:
                assert outcome.post_state.amplitudes[i] == 0.0

    def test_idempotent_collapse(self):
        rng_np = np.random.default_rng(23)
        state = from_amplitudes(4, random_state_vector(4, rng_np))
        rng = RandomSource(11)
        first = measure_qubits(state, [2], rng)
        second = measure_qubits(first.post_state, [2], rng)
        assert second.measured_bits == first.measured_bits
        np.testing.assert_allclose(
            second.post_state.amplitudes, first.post_state.amplitudes, atol=1e-12
        )

    def test_chain_rule_joint_equals_sequential(self):
        """P(a,b) from the joint draw equals P(a) * P(b | a) on the full tree."""
        rng_np = np.random.default_rng(24)
        for n in (2, 3, 5):
            state = from_amplitudes(n, random_state_vector(n, rng_np))
            a, b = 0, n - 1
            joint = marginal_distribution(state, [a, b])
            for bit_a, bit_b in itertools.product((0, 1), repeat=2):
                p_a = marginal(state, {a: bit_a})
                if p_a == 0.0:
                    sequential = 0.0
                else:
                    post = _project_for_test(state, {a: bit_a})
                    sequential = p_a * marginal(post, {b: bit_b})
                assert abs(joint[bit_a | (bit_b << 1)] - sequential) < 1e-12

    def test_out_of_range(self, triple_state):
        with pytest.raises(ValueError):
            measure_qubits(triple_state, [7], RandomSource(1))


class TestSampleCounts:
    def test_total_and_determinism(self, triple_state):
        first = sample_counts(triple_state, 10_000, RandomSource(12))
        second = sample_counts(triple_state, 10_000, RandomSource(12))
        assert first == second
        assert sum(first.values()) == 10_000

    def test_subset_packing(self, triple_state):
        counts = sample_counts(triple_state, 5_000, RandomSource(13), qubits=[4])
        frequency = counts.get(1, 0) / 5_000
        assert abs(frequency - 2 / 3) < 5 * math.sqrt((2 / 9) / 5_000)

    def test_empirical_matches_marginal(self):
        rng_np = np.random.default_rng(25)
        state = from_amplitudes(3, random_state_vector(3, rng_np))
        shots = 100_000
        counts = sample_counts(state, shots, RandomSource(14), qubits=[0, 2])
        for assignment in range(4):
            bits = {0: assignment & 1, 2: (assignment >> 1) & 1}
            p = marginal(state, bits)
            bound = 5 * math.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(counts.get(assignment, 0) / shots - p) <= bound


    @pytest.mark.parametrize("qubits", [None, [3], [0, 4, 2], [5, 1]])
    def test_counts_equal_unsorted_reference(self, qubits):
        """Sorting the draws changes the lookup order, not the outcomes."""
        rng_np = np.random.default_rng(26)
        for n, seed in ((6, 31), (6, 32), (7, 33)):
            state = from_amplitudes(n, random_state_vector(n, rng_np))
            if qubits is None:
                distribution = state.probabilities()
            else:
                distribution = marginal_distribution(state, sorted(qubits))
            rng = RandomSource(seed)
            counts = sample_counts(state, 5_000, rng, qubits=qubits)
            expected = sample_counts_reference(distribution, RandomSource(seed).uniforms(5_000))
            assert counts == expected
            assert rng.draw_count == 5_000

    @pytest.mark.parametrize("qubits", [None, [0, 4, 2]])
    def test_shots_over_several_batches_equal_one_draw(self, monkeypatch, qubits):
        monkeypatch.setattr(measurement, "_SHOT_BATCH", 1000)
        state = from_amplitudes(6, random_state_vector(6, np.random.default_rng(27)))
        if qubits is None:
            distribution = state.probabilities()
        else:
            distribution = marginal_distribution(state, sorted(qubits))
        for shots in (999, 1000, 1001, 4321):
            rng = RandomSource(shots)
            counts = sample_counts(state, shots, rng, qubits=qubits)
            expected = sample_counts_reference(distribution, RandomSource(shots).uniforms(shots))
            assert list(counts.items()) == list(expected.items())
            assert rng.draw_count == shots

    def test_peak_allocation_does_not_grow_with_shots(self, monkeypatch):
        batch = 1 << 10
        monkeypatch.setattr(measurement, "_SHOT_BATCH", batch)
        state = from_amplitudes(4, random_state_vector(4, np.random.default_rng(28)))
        for shots in (batch, 1 << 16):
            with PeakMemory() as traced:
                sample_counts(state, shots, RandomSource(1))
            # About 30 B per shot of one batch; all 2^16 uniforms at once
            # would take 512 KiB alone.
            assert traced.peak < 64 * batch

    @pytest.mark.parametrize(
        "shots", [2.5, 1000.0, "10", None, np.float64(4), True, np.bool_(True), 0, -3]
    )
    def test_shots_must_be_a_positive_integer(self, triple_state, shots):
        rng = RandomSource(1)
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            sample_counts(triple_state, shots, rng)
        assert rng.draw_count == 0

    def test_numpy_integer_shots_accepted(self, triple_state):
        assert sample_counts(triple_state, np.int64(7), RandomSource(2)) == sample_counts(
            triple_state, 7, RandomSource(2)
        )

    def test_bin_absorbed_by_the_cdf_is_never_drawn(self):
        # 0.5 + 1e-300 == 0.5: the middle bin is in the support but does
        # not raise the CDF, so no uniform falls in it.
        amps = np.zeros(8)
        amps[[2, 3, 5]] = math.sqrt(0.5), 1e-150, math.sqrt(0.5)
        state = from_amplitudes(3, amps)
        for shots in (3, 10_000):
            counts = sample_counts(state, shots, RandomSource(shots))
            expected = sample_counts_reference(
                state.probabilities(), RandomSource(shots).uniforms(shots)
            )
            assert list(counts.items()) == list(expected.items())
            assert 3 not in counts

    @pytest.mark.parametrize("shots", [6, 3])
    def test_draws_on_a_cdf_edge_take_the_next_outcome(self, shots):
        """A uniform equal to ``cdf[i]`` picks outcome ``i + 1``, on both
        paths (6 shots cover the 4 outcomes, 3 do not)."""

        class Fixed:
            def uniforms(self, count):
                return np.array([0.75, 0.0, 0.25, 0.5, 0.25, 0.999][:count])

        amps = np.zeros(8)
        amps[[1, 2, 4, 6]] = 0.5  # CDF 0, 0.25, 0.5, 0.5, 0.75, 0.75, 1, 1
        state = from_amplitudes(3, amps)
        counts = sample_counts(state, shots, Fixed())
        expected = sample_counts_reference(state.probabilities(), Fixed().uniforms(shots))
        assert list(counts.items()) == list(expected.items())
        if shots == 6:
            assert counts == {1: 1, 2: 2, 4: 1, 6: 2}

    def test_sparse_support_holds_no_per_shot_array(self):
        """With 8 outcomes, 2^16 shots are counted at the 8 CDF edges: the
        probability array is dropped before the draws, so the peak is one
        of the two (512 KiB each), not both plus 2^16 looked-up outcomes
        (1.6 MiB for one lookup per draw)."""
        n, shots = 16, 1 << 16
        amps = np.zeros(1 << n)
        amps[np.random.default_rng(30).choice(1 << n, 8, replace=False)] = math.sqrt(1 / 8)
        state = from_amplitudes(n, amps)
        rng = RandomSource(4)
        with PeakMemory() as traced:
            counts = sample_counts(state, shots, rng)
        assert len(counts) == 8 and rng.draw_count == shots
        assert traced.peak < 8 * max(1 << n, shots) + (16 << 10)

    def test_dense_support_holds_no_array_of_its_size_but_one(self):
        """2^16 equally likely outcomes for 1000 shots are looked up one
        draw at a time in a CDF built in place in the probability array
        (512 KiB), not counted at 2^16 edges, which holds the support, its
        CDF and two lookups of its size besides."""
        n, shots = 16, 1000
        state = from_amplitudes(n, np.full(1 << n, math.sqrt(1 / (1 << n))))
        sample_counts(state, shots, RandomSource(5))  # numpy's first-call allocations
        rng = RandomSource(4)
        with PeakMemory() as traced:
            counts = sample_counts(state, shots, rng)
        assert sum(counts.values()) == shots and rng.draw_count == shots
        assert traced.peak < 2 * 8 * (1 << n)


class TestSampleCountsAgainstReference:
    """Counting at the CDF edges of the support and one lookup per draw both
    give the reference's counts, order and draws: sparse and dense supports
    on either side of ``min(shots, _SHOT_BATCH)``, qubit subsets, bins the
    CDF absorbs, and shots over several batches."""

    @pytest.mark.parametrize("sparse", [True, False], ids=["edges", "per-draw"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, sparse, data):
        n = data.draw(st.integers(1, 7), label="n")
        dim = 1 << n
        support = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim,
                                     unique=True), label="support")
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(support),
                                     max_size=len(support)), label="weights")
        amps = np.zeros(dim)
        amps[support] = np.sqrt(weights)
        amps /= np.linalg.norm(amps)
        after = sorted(set(range(min(support), dim)) - set(support))
        if after and data.draw(st.booleans(), label="absorbed bin"):
            amps[after[0]] = 1e-150  # probability 1e-300, after a weight >= 1e-3
        state = from_amplitudes(n, amps)
        qubits = data.draw(st.none() | st.permutations(range(n)).flatmap(
            lambda order: st.integers(1, n).map(lambda k: order[:k])), label="qubits")
        if qubits is None:
            distribution = state.probabilities()
        else:
            distribution = marginal_distribution(state, sorted(qubits))
        nonzero = int(np.count_nonzero(distribution))
        if sparse:
            batch = data.draw(st.integers(nonzero, 4 * nonzero), label="batch")
            shots = data.draw(st.integers(nonzero, 4 * batch), label="shots")
        else:
            assume(nonzero > 1)
            limit = data.draw(st.integers(1, nonzero - 1), label="limit")
            other = data.draw(st.integers(limit, 4 * nonzero), label="other")
            batch, shots = data.draw(st.permutations([limit, other]), label="batch, shots")
        assert (nonzero <= min(shots, batch)) is sparse
        rng = RandomSource(shots)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measurement, "_SHOT_BATCH", batch)
            counts = sample_counts(state, shots, rng, qubits=qubits)
        expected = sample_counts_reference(distribution, RandomSource(shots).uniforms(shots))
        assert list(counts.items()) == list(expected.items())
        assert rng.draw_count == shots


class TestIsProduct:
    def test_triple_entangled(self, triple_state):
        assert is_product(triple_state, {4}) is False

    def test_constructed_product(self, plus_state):
        state = tensor(plus_state, basis_state(1, 0))
        assert is_product(state, {1}) is True

    def test_bell_pair_not_product(self):
        root = 1 / math.sqrt(2)
        bell = from_amplitudes(2, [root, 0, 0, root])
        assert is_product(bell, {1}) is False
        # Independent 2x2 check: singular values of the reshaped matrix are
        # sqrt of eigenvalues of M M^dagger = diag(1/2, 1/2).
        assert abs(root - math.sqrt(0.5)) < 1e-15

    def test_any_single_qubit_cut_of_product_chain(self):
        rng_np = np.random.default_rng(26)
        parts = [from_amplitudes(1, random_state_vector(1, rng_np)) for _ in range(4)]
        state = parts[0]
        for part in parts[1:]:
            state = tensor(state, part)
        for q in range(4):
            assert is_product(state, {q}) is True

    def test_trivial_bipartition_rejected(self, triple_state):
        with pytest.raises(ValueError):
            is_product(triple_state, set())
        with pytest.raises(ValueError):
            is_product(triple_state, set(range(5)))


class TestAgainstBitMaskReference:
    """The tensor-view marginals, projection and product check must agree
    with the brute-force bit-mask references in tests/oracles.py."""

    @staticmethod
    def _states():
        rng = np.random.default_rng(27)
        for n in (1, 2, 3, 5):
            yield from_amplitudes(n, random_state_vector(n, rng))
        yield from_amplitudes(4, np.eye(16)[6])

    @staticmethod
    def _subsets(n):
        for size in range(n + 1):
            yield from itertools.permutations(range(n), size)

    def test_marginal_and_distribution(self):
        for state in self._states():
            amps = state.amplitudes
            for qubits in self._subsets(state.num_qubits):
                np.testing.assert_allclose(
                    marginal_distribution(state, qubits),
                    marginal_distribution_reference(amps, qubits),
                    rtol=0, atol=1e-14,
                )
                for bits in itertools.product((0, 1), repeat=len(qubits)):
                    assignment = dict(zip(qubits, bits))
                    assert abs(
                        marginal(state, assignment) - marginal_reference(amps, assignment)
                    ) < 1e-14

    def test_project(self):
        for state in self._states():
            for qubits in self._subsets(state.num_qubits):
                for bits in itertools.product((0, 1), repeat=len(qubits)):
                    assignment = dict(zip(qubits, bits))
                    if marginal_reference(state.amplitudes, assignment) == 0.0:
                        with pytest.raises(ValueError, match="zero probability"):
                            _project(state, assignment)
                        continue
                    np.testing.assert_allclose(
                        _project(state, assignment).amplitudes,
                        project_reference(state.amplitudes, assignment),
                        rtol=0, atol=1e-14,
                    )

    def test_is_product(self):
        rng = np.random.default_rng(28)
        parts = [from_amplitudes(2, random_state_vector(2, rng)) for _ in range(2)]
        states = list(self._states()) + [tensor(*parts)]
        for state in states:
            n = state.num_qubits
            for size in range(1, n):
                for left in itertools.combinations(range(n), size):
                    singular = bipartition_singular_values(state.amplitudes, left)
                    assert is_product(state, set(left)) is bool(
                        singular[1] < PRODUCT_TOLERANCE
                    )

    def test_measure_every_qubit_collapses_to_basis_state(self):
        state = from_amplitudes(3, random_state_vector(3, np.random.default_rng(29)))
        outcome = measure_qubits(state, [2, 0, 1], RandomSource(3))
        index = sum(bit << q for q, bit in outcome.measured_bits.items())
        assert outcome.post_state.probability(index) == pytest.approx(1.0, abs=1e-15)


def _measure_forcing(state, qubits, wanted):
    """Measure with the first seed (0..999) whose outcome matches ``wanted``."""
    for seed in range(1000):
        outcome = measure_qubits(state, qubits, RandomSource(seed))
        if outcome.measured_bits == wanted:
            return outcome
    raise AssertionError(f"no seed below 1000 produced {wanted}")


def _project_for_test(state, bits):
    """Reference projection: mask inconsistent amplitudes, renormalize."""
    amps = state.amplitudes.copy()
    for i in range(state.dim):
        if any((i >> q) & 1 != bit for q, bit in bits.items()):
            amps[i] = 0.0
    return from_amplitudes(state.num_qubits, amps / np.linalg.norm(amps))
