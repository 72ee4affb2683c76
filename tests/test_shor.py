"""Tests for period finding and the classical factoring wrapper."""

import math
import time

import numpy as np
import pytest

from peak_memory import PeakMemory
from oracles import brute_force_order, entangled_register, powers_reference, shor_period_reference

from qregsim import (
    RandomSource,
    get_max_qubits,
    is_product,
    marginal_distribution,
    measure_qubits,
    set_max_qubits,
)
from qregsim.algorithms import shor_factor, shor_period
from qregsim.algorithms import shor
from qregsim.algorithms.shor import _convergent_denominators


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
    def test_powers_by_doubling_equal_the_loop(self, mod_n):
        t = (mod_n * mod_n - 1).bit_length()
        for a in range(2, min(mod_n, 36)):
            if math.gcd(a, mod_n) == 1:
                got = shor._powers(a, mod_n, t)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, powers_reference(a, mod_n, t))

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

        def inverse_cdf(distribution):
            drawn["distribution"] = distribution
            return lambda u: drawn["f"]

        def capture(state):
            raise _Captured(state.amplitudes)

        monkeypatch.setattr(shor, "_inverse_cdf", inverse_cdf)
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
