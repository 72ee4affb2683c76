"""Tests for period finding and the classical factoring wrapper."""

import math

import pytest

from oracles import brute_force_order

from qregsim import RandomSource
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

    def test_register_built_once_per_call(self, monkeypatch):
        built = []
        original = shor._entangled_register

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(shor, "_entangled_register", counting)
        # Base 4 mod 21 (order 3) needs several samples for some seeds.
        for seed in range(6):
            built.clear()
            assert shor_period(4, 21, RandomSource(seed)) == 3
            assert len(built) == 1

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            shor_period(6, 15, RandomSource(0))

    def test_base_range_validated(self):
        with pytest.raises(ValueError):
            shor_period(1, 15, RandomSource(0))


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

    def test_factors_multiply_back(self):
        for seed in range(5):
            p, q = shor_factor(35, RandomSource(seed))
            assert p * q == 35
            assert 1 < p <= q < 35
