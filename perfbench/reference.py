"""Independent references the benchmark checks qregsim's outputs against.

Nothing here calls qregsim: the dense product builds every gate as a full
2**n x 2**n matrix from its own definitions, so it shares no code with the
strided kernel it checks.
"""

from __future__ import annotations

import math

import numpy as np

ARITY = {"id": 1, "x": 1, "h": 1, "phase": 1, "cnot": 2, "cphase": 2,
         "swap": 2, "toffoli": 3, "fredkin": 3}
MNEMONICS = tuple(ARITY)


def _permutation(arity: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    perm = list(range(1 << arity))
    for a, b in pairs:
        perm[a], perm[b] = perm[b], perm[a]
    return np.eye(1 << arity)[perm]


def local_matrix(word: str, angle: float | None) -> np.ndarray:
    """Gate matrix with the first listed qubit as the most significant bit."""
    if word == "id":
        return np.eye(2)
    if word == "x":
        return _permutation(1, ((0, 1),))
    if word == "h":
        return np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    if word == "phase":
        return np.diag([1, np.exp(1j * angle)])
    if word == "cnot":
        return _permutation(2, ((2, 3),))
    if word == "cphase":
        return np.diag([1, 1, 1, np.exp(1j * angle)])
    if word == "swap":
        return _permutation(2, ((1, 2),))
    if word == "toffoli":
        return _permutation(3, ((6, 7),))
    if word == "fredkin":
        return _permutation(3, ((5, 6),))
    raise ValueError(f"unknown mnemonic {word!r}")


def embed(u: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    """The full operator: ``u`` on ``targets`` (first = MSB), identity elsewhere."""
    k = len(targets)
    mask = sum(1 << q for q in targets)
    full = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for j in range(1 << n):
        col = sum(((j >> q) & 1) << (k - 1 - pos) for pos, q in enumerate(targets))
        for row in range(1 << k):
            i = (j & ~mask) | sum(((row >> (k - 1 - pos)) & 1) << q
                                  for pos, q in enumerate(targets))
            full[i, j] = u[row, col]
    return full


def parse_steps(text: str) -> tuple[int, list[tuple[str, list[int], float | None]]]:
    """Read back a circuit this benchmark generated (no comments, ends in measure)."""
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    steps = []
    for line in lines[1:]:
        word, *operands = line.split()
        if word == "measure":
            break
        arity = ARITY[word]
        angle = float(operands[arity]) if len(operands) > arity else None
        steps.append((word, [int(t) for t in operands[:arity]], angle))
    return n, steps


def dense_final_state(text: str) -> np.ndarray:
    """Final amplitudes of a generated circuit by dense matrix products."""
    n, steps = parse_steps(text)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    for word, qubits, angle in steps:
        amps = embed(local_matrix(word, angle), qubits, n) @ amps
    return amps


def _flip_if(i: int, condition: bool, q: int) -> int:
    return i ^ (1 << q) if condition else i


def _swap_bits(i: int, a: int, b: int) -> int:
    return i ^ (1 << a | 1 << b) if (i >> a & 1) != (i >> b & 1) else i


def support_superset(text: str) -> set[int]:
    """Basis indices that can carry amplitude, tracked classically gate by gate.

    Permutation gates move the support, diagonal gates keep it and a Hadamard
    may add the flipped index, so the result contains the true support.
    """
    support = {0}
    for word, q, _ in parse_steps(text)[1]:
        if word == "x":
            support = {i ^ (1 << q[0]) for i in support}
        elif word == "h":
            support |= {i ^ (1 << q[0]) for i in support}
        elif word == "cnot":
            support = {_flip_if(i, i >> q[0] & 1, q[1]) for i in support}
        elif word == "swap":
            support = {_swap_bits(i, q[0], q[1]) for i in support}
        elif word == "toffoli":
            support = {_flip_if(i, i >> q[0] & i >> q[1] & 1, q[2]) for i in support}
        elif word == "fredkin":
            support = {_swap_bits(i, q[1], q[2]) if i >> q[0] & 1 else i for i in support}
    return support


def brute_force_order(a: int, mod_n: int) -> int:
    """Smallest r >= 1 with a**r = 1 (mod mod_n), by repeated multiplication."""
    r, acc = 1, a % mod_n
    while acc != 1:
        acc = acc * a % mod_n
        r += 1
    return r


def amplification(marked: int, total: int) -> tuple[int, float]:
    """Optimal round count k and success probability sin^2((2k+1)theta)."""
    theta = math.asin(math.sqrt(marked / total))
    k = max(0, round(math.pi / (4.0 * theta) - 0.5))
    return k, math.sin((2 * k + 1) * theta) ** 2


class Tally:
    """Hits of outcomes that are right only with a predicted probability.

    Grover and QAM return a marked outcome with probability p < 1, so a miss
    is not by itself wrong. The tally fails when misses exceed their expected
    number by more than six standard deviations (plus two for tiny counts).
    """

    def __init__(self):
        self.trials = 0
        self.misses = 0
        self.expected = 0.0
        self.variance = 0.0

    def add(self, hit: bool, p: float) -> None:
        self.trials += 1
        self.misses += not hit
        self.expected += 1.0 - p
        self.variance += p * (1.0 - p)

    def ok(self) -> bool:
        return self.misses <= self.expected + 6.0 * math.sqrt(self.variance) + 2.0
