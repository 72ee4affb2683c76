"""Tests for chunked random bit generation."""

import importlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import chi_square_statistic, qrng_reference
from peak_memory import PeakMemory

from qregsim import RandomSource, get_max_qubits, set_max_qubits
from qregsim.algorithms import qrng, uniform_superposition
from qregsim.measurement import _inverse_cdf

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

    def test_bits_across_whole_batches(self):
        """Past a full batch of rounds, bit r of a one-qubit qrng is draw r >= 0.5."""
        bits = qrng_module._SHOT_BATCH + 13
        fast = RandomSource(5)
        value = qrng(bits, 1, fast)
        draws = RandomSource(5).uniforms(bits)
        assert value == int("".join("1" if u >= 0.5 else "0" for u in draws[::-1].tolist()), 2)
        assert fast.draw_count == bits


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


class _FixedUniforms:
    """A stand-in ``RandomSource`` that hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.draw_count = 0

    def uniforms(self, count):
        start, self.draw_count = self.draw_count, self.draw_count + count
        return self.values[start:self.draw_count].copy()


def _rounds(value, count, chunk):
    """The ``count`` round outcomes packed in a qrng value, lowest round first."""
    octets = np.frombuffer(value.to_bytes(-(-count * chunk // 8), "little"), dtype=np.uint8)
    bits = np.unpackbits(octets, count=count * chunk, bitorder="little").reshape(count, chunk)
    return bits.astype(np.int64) @ (1 << np.arange(chunk, dtype=np.int64))


class TestFloorAgainstCdf:
    """``floor(u * 2**chunk)`` against the Born lookup of the prepared state."""

    @pytest.mark.parametrize("chunk", range(1, 17))
    def test_rounds_match_the_born_lookup_off_its_edges(self, chunk):
        probs = uniform_superposition(chunk).probabilities()
        cdf = np.add.accumulate(probs)  # as _inverse_cdf builds it
        cdf /= cdf[-1]
        edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        edges = edges[edges < 1.0]
        uniforms = np.concatenate([edges, RandomSource(chunk).uniforms(20_000)])
        source = _FixedUniforms(uniforms)
        fast = _rounds(qrng(chunk * uniforms.size, chunk, source), uniforms.size, chunk)
        slow = _inverse_cdf(probs)(uniforms)
        assert source.draw_count == uniforms.size
        differ = fast != slow
        if chunk % 2 == 0:
            assert not differ.any()
        else:
            # 2**(-chunk/2) squared is not exactly 2**-chunk, so a few odd
            # CDF values sit one ulp off the dyadic edge.
            assert np.isin(uniforms[differ], edges).all()
            assert (np.abs(fast - slow)[differ] == 1).all()


class TestWideChunks:
    def test_every_bit_of_a_53_qubit_round_varies(self):
        old = get_max_qubits()
        set_max_qubits(64)
        try:
            rounds = _rounds(qrng(53 * 200, 53, RandomSource(4)), 200, 53)
        finally:
            set_max_qubits(old)
        bits = (rounds[:, None] >> np.arange(53)) & 1
        assert bits.any(axis=0).all() and not bits.all(axis=0).any()

    @pytest.mark.parametrize("chunk", [54, 64])
    def test_chunks_past_53_refused_before_any_draw(self, chunk):
        old = get_max_qubits()
        set_max_qubits(64)
        try:
            rng = RandomSource(0)
            with pytest.raises(ValueError, match="exceeds 53"):
                qrng(chunk, chunk, rng)
            assert rng.draw_count == 0
        finally:
            set_max_qubits(old)


class TestMemory:
    """tracemalloc peaks after one warm-up call: no 2**chunk state or CDF."""

    @staticmethod
    def _peak(num_bits, chunk):
        qrng(num_bits, chunk, RandomSource(0))
        with PeakMemory() as traced:
            qrng(num_bits, chunk, RandomSource(1))
        return traced.peak

    @pytest.mark.parametrize("chunk", [20, 26])
    def test_one_wide_round_under_a_mib(self, chunk):
        assert self._peak(chunk, chunk) < 1 << 20

    def test_many_rounds_under_the_born_lookup_peak(self):
        """The Born-lookup path peaked at 40 MiB here, one uint8 per bit."""
        assert self._peak(1 << 24, 1) < 40 << 20

    def test_peak_grows_with_the_result_only(self):
        """Past one batch, the peak grows by a few copies of the result's bytes."""
        small, large = self._peak(1 << 22, 1), self._peak(1 << 24, 1)
        assert large - small <= 4 * ((1 << 24) - (1 << 22)) // 8

    def test_a_million_three_qubit_rounds_stay_fast(self):
        start = time.perf_counter()
        qrng(10**6, 3, RandomSource(6))
        assert time.perf_counter() - start < 0.1
