"""Tests for chunked random bit generation."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import chi_square_statistic, qrng_reference

from qregsim import RandomSource
from qregsim.algorithms import qrng

# ``qregsim.algorithms.qrng`` names the function once the package is imported.
qrng_module = importlib.import_module("qregsim.algorithms.qrng")


class TestChunking:
    def test_one_round_per_chunk(self):
        rng = RandomSource(2)
        qrng(8, 8, rng)
        assert rng.draw_count == 1

    def test_eight_rounds_for_single_qubit_chunks(self):
        """N=8, M=1 runs exactly 8 prepare-measure rounds (one draw each)."""
        rng = RandomSource(2)
        qrng(8, 1, rng)
        assert rng.draw_count == 8

    def test_partial_last_round_discards_high_bits(self):
        rng = RandomSource(3)
        value = qrng(5, 3, rng)
        assert rng.draw_count == 2
        assert 0 <= value < 32

    def test_range(self):
        for seed in range(30):
            assert 0 <= qrng(4, 2, RandomSource(seed)) < 16

    def test_deterministic(self):
        assert qrng(16, 4, RandomSource(11)) == qrng(16, 4, RandomSource(11))

    def test_chunk_cap_validated(self):
        with pytest.raises(ValueError, match="cap"):
            qrng(8, 1000, RandomSource(0))

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            qrng(0, 1, RandomSource(0))


class TestAgainstReference:
    """One batched draw per call equals one ``measure_all`` per round."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 200), st.integers(1, 12))
    def test_values_and_draw_counts_match(self, seed, bits, chunk):
        fast, slow = RandomSource(seed), RandomSource(seed)
        assert qrng(bits, chunk, fast) == qrng_reference(bits, chunk, slow)
        assert fast.draw_count == slow.draw_count

    @pytest.mark.parametrize("bits,chunk", [(7, 1), (12, 3), (40, 3), (5, 12)])
    def test_rounds_split_across_batches(self, monkeypatch, bits, chunk):
        """Rounds drawn in several batches read the stream one draw per round reads."""
        monkeypatch.setattr(qrng_module, "_SHOT_BATCH", 3)
        for seed in range(10):
            fast, slow = RandomSource(seed), RandomSource(seed)
            assert qrng(bits, chunk, fast) == qrng_reference(bits, chunk, slow)
            assert fast.draw_count == slow.draw_count


class TestUniformity:
    def test_chi_square_sixteen_bins(self):
        """10^4 4-bit samples stay under the alpha=0.001 threshold."""
        samples = 10_000
        rng = RandomSource(17)
        counts = np.bincount(
            [qrng(4, 4, rng) for _ in range(samples)], minlength=16
        )
        threshold = stats.chi2.ppf(1 - 0.001, df=15)
        assert chi_square_statistic(counts, samples / 16) < threshold

    def test_single_qubit_chunks_unbiased(self):
        rng = RandomSource(19)
        values = [qrng(1, 1, rng) for _ in range(20_000)]
        assert abs(sum(values) / 20_000 - 0.5) < 5 * (0.25 / 20_000) ** 0.5
