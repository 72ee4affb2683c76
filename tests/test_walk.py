"""Tests for the coined line walk against the exact classical binomial."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import classical_walk_reference

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

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            quantum_walk_line(-1)

    def test_register_width_checked_before_allocating(self):
        """10^11 steps need 39 qubits; the cap fails before 5.8 TiB is asked for."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="num_qubits=39 exceeds the configured cap"):
                quantum_walk_line(10**11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

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


class TestClassicalWalk:
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
