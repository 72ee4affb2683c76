"""Tests for the coined line walk against the exact classical binomial."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peak_memory import PeakMemory
from oracles import classical_walk_reference, quantum_walk_exact, quantum_walk_reference

import qregsim
from qregsim.algorithms import classical_walk_line, quantum_walk_line
from qregsim.algorithms.walk import SYMMETRIC_COIN


class TestQuantumWalk:
    def test_no_steps(self):
        dist = quantum_walk_line(0)
        assert dist.positions.tolist() == [0]
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)

    def test_one_step_symmetric_coin(self):
        """Hand-derived single-step unitary: half left, half right."""
        dist = quantum_walk_line(1, SYMMETRIC_COIN)
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.0, 0.5], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        for t in (0, 1, 7, 50):
            assert abs(quantum_walk_line(t).probabilities.sum() - 1.0) < 1e-9

    def test_parity_positions_are_exactly_zero(self):
        dist = quantum_walk_line(9)
        for pos, p in zip(dist.positions, dist.probabilities):
            if (pos - 9) % 2 != 0:
                assert p == 0.0

    def test_symmetric_coin_gives_symmetric_distribution(self):
        dist = quantum_walk_line(60)
        np.testing.assert_allclose(
            dist.probabilities, dist.probabilities[::-1], atol=1e-9
        )

    def test_asymmetric_coin_skews(self):
        dist = quantum_walk_line(30, (1.0, 0.0))
        assert abs(np.dot(dist.positions, dist.probabilities)) > 1.0

    def test_unnormalized_coin_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            quantum_walk_line(3, (1.0, 1.0))

    @pytest.mark.parametrize("coin", [(math.nan, 0.0), (1.0, math.inf), (complex(0, -math.inf), 0)])
    def test_non_finite_coin_rejected(self, coin):
        with pytest.raises(ValueError, match="coin_init contains a non-finite entry"):
            quantum_walk_line(3, coin)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            quantum_walk_line(-1)

    def test_register_width_checked_before_allocating(self):
        """10^11 steps need 39 qubits; the cap fails before 5.8 TiB is asked for."""
        with PeakMemory() as traced:
            with pytest.raises(ValueError, match="num_qubits=39 exceeds the configured cap"):
                quantum_walk_line(10**11)
        assert traced.peak < 64 * 1024

    @pytest.mark.parametrize("steps,width", [(0, 1), (1, 3), (2, 4), (3, 4), (4, 5), (8, 6)])
    def test_register_width_is_coin_plus_position_qubits(self, steps, width):
        old = qregsim.get_max_qubits()
        try:
            qregsim.set_max_qubits(width)
            quantum_walk_line(steps)
            if width > 1:
                qregsim.set_max_qubits(width - 1)
                with pytest.raises(ValueError, match="cap"):
                    quantum_walk_line(steps)
        finally:
            qregsim.set_max_qubits(old)


def _assert_matches_reference(steps, coin):
    dist = quantum_walk_line(steps, coin)
    expected = quantum_walk_reference(steps, coin)
    assert dist.positions.tolist() == list(range(-steps, steps + 1))
    np.testing.assert_allclose(dist.probabilities, expected, rtol=0, atol=1e-12)
    assert np.all(dist.probabilities[1::2] == 0.0)
    return dist


class TestAgainstReference:
    """The light-cone loop against the whole-line loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(steps=st.integers(0, 300),
           theta=st.floats(0, math.pi / 2),
           phases=st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi)))
    def test_random_unit_coin(self, steps, theta, phases):
        coin = (math.cos(theta) * np.exp(1j * phases[0]), math.sin(theta) * np.exp(1j * phases[1]))
        _assert_matches_reference(steps, coin)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 300))
    def test_symmetric_coin_mirrors(self, steps):
        p = _assert_matches_reference(steps, SYMMETRIC_COIN).probabilities
        np.testing.assert_allclose(p, p[::-1], rtol=0, atol=1e-12)

    def test_thousand_steps(self):
        p = _assert_matches_reference(1000, SYMMETRIC_COIN).probabilities
        np.testing.assert_allclose(p, p[::-1], rtol=0, atol=1e-12)


class TestAgainstExact:
    """Against exact rational probabilities, across the rescale boundaries."""

    @pytest.mark.parametrize("steps", [0, 1, 2, 10, 63, 64, 65, 127, 128, 129, 200])
    def test_symmetric_coin(self, steps):
        expected = [float(p) for p in quantum_walk_exact(steps)]
        dist = quantum_walk_line(steps, SYMMETRIC_COIN)
        np.testing.assert_allclose(dist.probabilities, expected, rtol=0, atol=1e-15)

    def test_long_walk_stays_finite_and_normalised(self):
        """10,000 steps cross 156 rescalings."""
        p = quantum_walk_line(10_000).probabilities
        assert np.isfinite(p).all()
        assert np.all(p[1::2] == 0.0)
        assert abs(p.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(p, p[::-1], rtol=0, atol=1e-12)


class TestMemory:
    STEPS = 4000
    # Three complex arrays of steps + 1 light-cone sites (coin 1, and coin 0
    # in two rows that alternate; the second row replaces a scratch array),
    # the returned positions and probabilities (2 * steps + 1 eight-byte
    # entries each), and up to three float temporaries of steps + 1 while
    # the probabilities are formed.  The whole-line loop holds two
    # (2 * steps + 1, 2) complex arrays at once and peaks at about 1.8 times
    # this.
    BOUND = (3 * 16 + 3 * 8) * (STEPS + 1) + 2 * 8 * (2 * STEPS + 1) + 4096

    def test_peak_within_bound(self):
        quantum_walk_line(10)
        with PeakMemory() as traced:
            quantum_walk_line(self.STEPS)
        assert traced.peak <= self.BOUND

    def test_bound_catches_the_whole_line_loop(self):
        quantum_walk_reference(10, SYMMETRIC_COIN)
        with PeakMemory() as traced:
            quantum_walk_reference(self.STEPS, SYMMETRIC_COIN)
        assert traced.peak > self.BOUND


class TestClassicalWalk:
    def test_register_width_checked_before_allocating(self):
        """10^11 steps count as 39 qubits; the cap fails before 1.46 TiB is asked for."""
        with PeakMemory() as traced:
            with pytest.raises(ValueError, match="num_qubits=39 exceeds the configured cap"):
                classical_walk_line(10**11)
        assert traced.peak < 64 * 1024

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            classical_walk_line(-1)

    def test_exact_binomial(self):
        dist = classical_walk_line(4)
        expected = np.zeros(9)
        for k in range(5):
            expected[2 * k] = math.comb(4, k) / 16
        np.testing.assert_array_equal(dist.probabilities, expected)

    def test_matches_reference_bit_for_bit(self):
        for t in [*range(301), 1074, 1075, 2000, 3000]:
            assert np.array_equal(classical_walk_line(t).probabilities,
                                  classical_walk_reference(t)), t

    def test_std_is_sqrt_t(self):
        for t in (4, 25, 100):
            assert abs(classical_walk_line(t).std() - math.sqrt(t)) < 1e-9


class TestSpreadComparison:
    def test_ballistic_vs_diffusive_at_hundred_steps(self):
        quantum = quantum_walk_line(100)
        classical = classical_walk_line(100)
        assert abs(classical.std() - 10.0) < 1e-9
        assert quantum.std() / classical.std() > 3.0
