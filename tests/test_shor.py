"""Tests for period finding and the classical factoring wrapper."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peak_memory import PeakMemory
from oracles import brute_force_order, entangled_register, powers_reference, shor_period_reference

from qregsim import (
    QuantumState,
    RandomSource,
    get_max_qubits,
    is_product,
    marginal_distribution,
    measure_qubits,
    set_max_qubits,
)
from qregsim.algorithms import inverse_qft, shor_factor, shor_period
from qregsim.algorithms import shor
from qregsim.algorithms.shor import _convergent_denominators
from qregsim.measurement import _inverse_cdf


class TestContinuedFractions:
    def test_recovers_known_denominator(self):
        # 3/8 measured as 96/256; convergents include denominator 8.
        assert 8 in _convergent_denominators(96, 256, 100)

    def test_bound_respected(self):
        for d in _convergent_denominators(96, 256, 8):
            assert d < 8

    def test_zero_numerator(self):
        assert _convergent_denominators(0, 256, 100) == []


class TestShorPeriod:
    @pytest.mark.parametrize(
        "a,mod_n,expected",
        [(7, 15, 4), (2, 15, 4), (4, 5, 2)],
    )
    def test_known_orders(self, a, mod_n, expected):
        assert brute_force_order(a, mod_n) == expected
        assert shor_period(a, mod_n, RandomSource(1)) == expected

    def test_matches_brute_force_for_all_valid_bases(self):
        for mod_n in (15, 21):
            for a in range(2, mod_n):
                if math.gcd(a, mod_n) != 1:
                    continue
                got = shor_period(a, mod_n, RandomSource(a))
                assert got == brute_force_order(a, mod_n)

    def test_powers_computed_once_per_call(self, monkeypatch):
        computed = []
        original = shor._powers

        def counting(*args):
            computed.append(args)
            return original(*args)

        monkeypatch.setattr(shor, "_powers", counting)
        measured = _recorded_exponents(monkeypatch)
        retried = 0
        # Base 4 mod 21 (order 3) needs several samples for some seeds.
        for seed in range(6):
            computed.clear()
            measured.clear()
            assert shor_period(4, 21, RandomSource(seed)) == 3
            assert len(computed) == 1
            retried += len(measured) > 1
        assert retried > 0

    @pytest.mark.parametrize("mod_n", [15, 21, 33, 35, 143])
    def test_powers_as_outer_product_equal_the_loop(self, mod_n):
        t = (mod_n * mod_n - 1).bit_length()
        for a in range(2, min(mod_n, 36)):
            if math.gcd(a, mod_n) == 1:
                got = shor._powers(a, mod_n, t)
                # Every product stays below mod_n**2 <= 2**t < 2**31.
                assert got.dtype == np.int32
                np.testing.assert_array_equal(got, powers_reference(a, mod_n, t))

    def test_powers_peak_is_the_table(self):
        """An int64 table or an outer-product temporary would double it."""
        shor._powers(2, 1003, 20)  # warm-up: one-time numpy allocations
        with PeakMemory() as traced:
            shor._powers(2, 1003, 20)
        assert traced.peak <= 1.05 * (4 << 20)  # 2**20 int32 residues

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            shor_period(6, 15, RandomSource(0))

    def test_base_range_validated(self):
        with pytest.raises(ValueError):
            shor_period(1, 15, RandomSource(0))


class _Captured(Exception):
    """Carries the exponent state out of ``shor_period`` before its transform."""


def _recorded_exponents(monkeypatch) -> list[int]:
    """Every measured exponent ``shor_period`` hands to continued fractions."""
    measured = []
    original = shor._convergent_denominators

    def recording(y, denominator, bound):
        measured.append(y)
        return original(y, denominator, bound)

    monkeypatch.setattr(shor, "_convergent_denominators", recording)
    return measured


class TestExponentRegisterOnly:
    @pytest.mark.parametrize("mod_n", [15, 21, 33, 35])
    def test_matches_full_register_reference(self, monkeypatch, mod_n):
        bases = [a for a in range(2, mod_n) if math.gcd(a, mod_n) == 1]
        measured = _recorded_exponents(monkeypatch)
        retried = 0
        for seed in range(30):
            a = bases[seed % len(bases)]
            reference_rng, rng = RandomSource(seed), RandomSource(seed)
            expected, expected_ys = shor_period_reference(a, mod_n, reference_rng)
            measured.clear()
            assert shor_period(a, mod_n, rng) == expected
            assert measured == expected_ys
            assert rng.draw_count == reference_rng.draw_count
            retried += len(expected_ys) > 1
        assert retried > 0  # the draw order across retries is exercised

    @pytest.mark.parametrize("a,mod_n", [(7, 15), (2, 21), (5, 33), (3, 35)])
    def test_function_measurement_leaves_a_product(self, a, mod_n):
        m = (mod_n - 1).bit_length()
        t = (mod_n * mod_n - 1).bit_length()
        register = entangled_register(a, mod_n, t, m)
        columns = register.amplitudes.reshape(1 << t, 1 << m)
        for seed in range(5):
            outcome = measure_qubits(register, range(m), RandomSource(seed))
            post = outcome.post_state
            assert is_product(post, range(m, m + t))
            f = sum(bit << q for q, bit in outcome.measured_bits.items())
            kept = post.amplitudes.reshape(1 << t, 1 << m)
            expected = columns[:, f] / np.linalg.norm(columns[:, f])
            np.testing.assert_array_equal(kept[:, f], expected)
            assert not np.delete(kept, f, axis=1).any()

    @pytest.mark.parametrize("mod_n", [15, 21, 33, 35])
    def test_comb_is_the_reference_column(self, monkeypatch, mod_n):
        """For every f, the prepared comb is the register's column at f, renormalized:
        the column's support, exactly 1/sqrt(support size) on each entry of it,
        and the column divided by its norm to within one ulp."""
        m = (mod_n - 1).bit_length()
        t = (mod_n * mod_n - 1).bit_length()
        drawn = {}

        def function_cdf(histogram, width):
            drawn["distribution"] = histogram / (1 << width)
            return lambda u: drawn["f"]

        def capture(state):
            raise _Captured(state.amplitudes)

        monkeypatch.setattr(shor, "_function_cdf", function_cdf)
        monkeypatch.setattr(shor, "inverse_qft", capture)
        for a in range(2, mod_n):
            if math.gcd(a, mod_n) != 1:
                continue
            register = entangled_register(a, mod_n, t, m)
            columns = register.amplitudes.reshape(1 << t, 1 << m)
            function_marginal = marginal_distribution(register, range(m))
            support = np.flatnonzero(function_marginal)
            assert len(support) == brute_force_order(a, mod_n)
            for f in support:
                drawn["f"] = f
                with pytest.raises(_Captured) as captured:
                    shor_period(a, mod_n, RandomSource(0))
                comb, column = captured.value.args[0], columns[:, f]
                support_f = column != 0
                np.testing.assert_array_equal(comb != 0, support_f)
                np.testing.assert_array_equal(comb[support_f], 1.0 / math.sqrt(support_f.sum()))
                np.testing.assert_allclose(comb, column / np.linalg.norm(column),
                                           rtol=np.finfo(float).eps, atol=0)
                distribution = drawn["distribution"]
                np.testing.assert_array_equal(np.flatnonzero(distribution), support)
                np.testing.assert_allclose(distribution, function_marginal[: len(distribution)],
                                           rtol=1e-12)

    def test_modulus_143(self):
        # 15 exponent qubits; the function register is never built.
        assert shor_period(2, 143, RandomSource(1)) == 60

    def test_peak_memory_is_a_few_exponent_states(self):
        # Warm up first: one-time imports and the cached 15-qubit ladder are
        # not per-call memory.
        shor_period(2, 143, RandomSource(1))
        with PeakMemory() as traced:
            assert shor_period(2, 143, RandomSource(1)) == 60
        # 8 x the 2**15-amplitude state.
        assert traced.peak < 8 * (1 << 15) * 16

    def test_peak_memory_at_t20_with_two_sizes(self, monkeypatch):
        # The warm-up call also shows that this call transforms both sizes,
        # so the first size's kept CDF is held beside the second transform.
        transformed = _transformed_sizes(monkeypatch)
        assert shor_period(2, 1003, RandomSource(0)) == 232
        assert len(transformed) == 2
        monkeypatch.undo()
        with PeakMemory() as traced:
            assert shor_period(2, 1003, RandomSource(0)) == 232
        # 2.5 x the 2**20-amplitude state: the transform runs in the comb.
        assert traced.peak < 2.5 * (1 << 20) * 16

    def test_cap_counts_the_exponent_qubits_alone(self):
        old = get_max_qubits()
        try:
            set_max_qubits(8)
            assert shor_factor(15, RandomSource(3)) == (3, 5)
            set_max_qubits(7)
            with pytest.raises(ValueError, match="needs 8 qubits, exceeding the cap of 7"):
                shor_factor(15, RandomSource(3))
        finally:
            set_max_qubits(old)


def _transformed_sizes(monkeypatch) -> list[int]:
    """The support size of every comb ``shor_period`` hands to ``inverse_qft``."""
    transformed = []
    original = shor.inverse_qft

    def counting(state):
        transformed.append(int(np.count_nonzero(state.amplitudes)))
        return original(state)

    monkeypatch.setattr(shor, "inverse_qft", counting)
    return transformed


def _sizes_drawn(a, mod_n, seed, samples):
    """The support size of the comb of every f a call with ``seed`` draws.

    Replayed from the seed's uniforms: each sample draws f, then y, so f
    comes from every other uniform, through the function register's CDF.
    """
    t = (mod_n * mod_n - 1).bit_length()
    histogram = np.bincount(powers_reference(a, mod_n, t))
    cdf = np.cumsum(histogram) / (1 << t)
    rng = RandomSource(seed)
    uniforms = [rng.uniform() for _ in range(2 * samples)]
    return [int(histogram[np.searchsorted(cdf, u, side="right")]) for u in uniforms[::2]]


class TestFunctionDraw:
    """f is drawn on the integer CDF, picking the index that the float CDF
    of the histogram over 2**t picks for every uniform."""

    @pytest.mark.parametrize("a,mod_n", [(7, 15), (2, 21), (5, 33), (2, 143), (3, 1003)])
    def test_integer_lookup_matches_the_float_cdf(self, a, mod_n):
        t = shor._exponent_width(mod_n)
        histogram = np.bincount(shor._powers(a, mod_n, t))
        draw = shor._function_cdf(histogram, t)
        reference = _inverse_cdf(histogram / (1 << t))
        edges = np.cumsum(histogram) / (1 << t)
        uniforms = np.concatenate([
            [0.0], edges, np.nextafter(edges, 0), np.nextafter(edges, 1),
            np.random.default_rng(mod_n).random(20_000),
        ])
        uniforms = uniforms[uniforms < 1.0]
        np.testing.assert_array_equal(draw(uniforms), reference(uniforms))
        for u in uniforms[: 3 * len(edges) + 1].tolist():  # one Python float per draw
            assert int(draw(u)) == int(reference(u))


#: Odd composites up to 95, prime powers included: any coprime base has an order.
ODD_COMPOSITES = [n for n in range(9, 96, 2) if any(n % p == 0 for p in range(3, math.isqrt(n) + 1))]


class TestOneTransformPerSize:
    """A call transforms the comb of the first f of each size it draws, and no other."""

    @pytest.mark.parametrize("mod_n", [15, 21, 33, 35])
    def test_each_drawn_size_transformed_once(self, monkeypatch, mod_n):
        transformed = _transformed_sizes(monkeypatch)
        measured = _recorded_exponents(monkeypatch)
        for a in range(2, mod_n):
            if math.gcd(a, mod_n) != 1:
                continue
            for seed in range(10):
                transformed.clear()
                measured.clear()
                assert shor_period(a, mod_n, RandomSource(seed)) == brute_force_order(a, mod_n)
                drawn = _sizes_drawn(a, mod_n, seed, len(measured))
                assert transformed == list(dict.fromkeys(drawn))
                assert len(transformed) <= 2

    def test_two_sizes_transformed_twice_only_when_both_are_drawn(self, monkeypatch):
        # 2 has order 6 mod 21 and t = 9: 512 = 6 * 85 + 2, so two values of
        # f have 86 exponents each and the other four 85.
        transformed = _transformed_sizes(monkeypatch)
        measured = _recorded_exponents(monkeypatch)
        seen = set()
        for seed in range(30):
            transformed.clear()
            measured.clear()
            assert shor_period(2, 21, RandomSource(seed)) == 6
            drawn = _sizes_drawn(2, 21, seed, len(measured))
            assert set(drawn) <= {85, 86}
            assert transformed == list(dict.fromkeys(drawn))
            seen.add((len(drawn), len(transformed)))
        # Retries that reuse one size's transform, and calls that draw both.
        assert any(samples > 1 and count == 1 for samples, count in seen)
        assert any(count == 2 for _, count in seen)

    def test_factoring_143_transforms_at_most_twice_per_period(self, monkeypatch):
        transformed = _transformed_sizes(monkeypatch)
        counts = []
        original = shor.shor_period

        def counting(*args):
            transformed.clear()
            order = original(*args)
            counts.append(len(transformed))
            return order

        monkeypatch.setattr(shor, "shor_period", counting)
        assert shor_factor(143, RandomSource(1)) == (11, 13)
        assert counts and max(counts) <= 2

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_size_combs_transform_alike(self, data):
        mod_n = data.draw(st.sampled_from(ODD_COMPOSITES), label="mod_n")
        a = data.draw(st.sampled_from([a for a in range(2, mod_n) if math.gcd(a, mod_n) == 1]),
                      label="a")
        t = (mod_n * mod_n - 1).bit_length()
        powers = powers_reference(a, mod_n, t)
        histogram = np.bincount(powers)
        sizes = sorted(set(histogram[histogram > 0].tolist()))
        assert len(sizes) <= 2
        size = data.draw(st.sampled_from(sizes), label="size")
        same_size = np.flatnonzero(histogram == size).tolist()
        f, g = data.draw(st.lists(st.sampled_from(same_size), min_size=2, max_size=2), label="f, g")

        def transformed(f):
            comb = np.zeros(1 << t, dtype=np.complex128)
            comb[powers == f] = 1.0 / math.sqrt(size)
            return inverse_qft(QuantumState(t, comb)).probabilities()

        np.testing.assert_allclose(transformed(f), transformed(g), rtol=0, atol=1e-15)


class TestShorFactor:
    def test_fifteen(self):
        assert shor_factor(15, RandomSource(3)) == (3, 5)

    def test_twenty_one(self):
        assert shor_factor(21, RandomSource(4)) == (3, 7)

    def test_prime_power_rejected(self):
        with pytest.raises(ValueError, match="prime power"):
            shor_factor(9, RandomSource(0))

    def test_prime_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            shor_factor(13, RandomSource(0))

    def test_even_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            shor_factor(20, RandomSource(0))

    # The first overflows the float root of the prime-power test; the second
    # (1000000007 x 998244353) takes minutes of trial division.
    @pytest.mark.parametrize("mod_n", [3 * (10**400 + 1), 998244359987710471],
                             ids=["overflows-float", "slow-trial-division"])
    def test_modulus_over_the_cap_rejected_first(self, mod_n):
        rng = RandomSource(1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="qubits, exceeding the cap of"):
            shor_factor(mod_n, rng)
        assert time.perf_counter() - start < 0.5
        assert rng.draw_count == 0

    def test_factors_multiply_back(self):
        for seed in range(5):
            p, q = shor_factor(35, RandomSource(seed))
            assert p * q == 35
            assert 1 < p <= q < 35
