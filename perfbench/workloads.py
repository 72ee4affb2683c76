"""The four benchmark workloads: seeded inputs, one op each, and its output check.

Each op is issued by one closed-loop caller: the next starts only after the
previous one returns. Inputs come from the workload seed and the op index
alone; the library sees only the generated inputs. Library entry points are
looked up on their modules at call time (``qs.run_circuit``, not a bound
name), so the traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import numpy as np

import qregsim as qs
import qregsim.algorithms as alg
import qregsim.cli as cli_mod
from reference import (
    ARITY,
    MNEMONICS,
    Tally,
    amplification,
    dense_final_state,
    support_superset,
)

TRIPLE_PATTERNS = ("00000", "10000", "11111")


class Workload:
    name = ""
    #: Ops per round of the mix; a timed loop stops only on a round boundary.
    cycle = 1
    #: Fixed op count of a traced pass, so that its counts are exact.
    trace_ops = 1
    #: Register widths at which the traced run probes state validation.
    widths: tuple[int, ...] = ()
    #: Ops run during set-up to warm caches, on inputs the timed loop never sees.
    warmup_ops = 1
    #: Whether the timed run re-runs op 0 to check same-seed determinism.
    repeat_check = True
    #: Reference-kernel profile that rescales op times (see speed.py).
    reference = "small"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.tally = Tally()
        self.count_predicates = False
        self.predicate_calls = 0

    def rnd(self, i, salt: str = "") -> random.Random:
        # Warm-up ops (negative i) get the same inputs for every seed, so
        # set-up does the same work whatever the seed.
        seed = self.seed if i >= 0 else "warm-up"
        return random.Random(f"{self.name}:{seed}:{salt}:{i}")

    def setup(self) -> list[str]:
        """Warm caches and run set-up checks; returns the problems found."""
        for i in range(-self.warmup_ops, 0):
            inp = self.prepare(i)
            problem = self.check(inp, self.run(inp))
            if problem:
                return [f"warm-up op {i}: {problem}"]
        return []

    def prepare(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError

    def fingerprint(self, out):
        """A value equal for equal outputs, for the determinism check."""
        return out

    def predicate(self, targets: set[int]):
        """Set membership as the CLI builds it, counted only in traced runs."""
        if not self.count_predicates:
            return lambda i: i in targets

        def counted(i):
            self.predicate_calls += 1
            return i in targets

        return counted

    def check_grover(self, n: int, targets: set[int], result) -> str | None:
        outcome, iterations, predicted = result
        k, success = amplification(len(targets), 1 << n)
        if not 0 <= outcome < 1 << n:
            return f"outcome {outcome} outside the {n}-qubit space"
        if iterations != k or not math.isclose(predicted, success, rel_tol=1e-12):
            return f"iterations/prediction {iterations}/{predicted!r}, expected {k}/{success!r}"
        self.tally.add(outcome in targets, success)
        return None


def random_circuit(rnd: random.Random, n: int, h_layer: int) -> str:
    """An H layer on ``h_layer`` qubits, then each mnemonic once in random order."""
    lines = [f"qubits {n}"]
    lines += [f"h {q}" for q in sorted(rnd.sample(range(n), h_layer))]
    for word in rnd.sample(MNEMONICS, len(MNEMONICS)):
        tokens = [word] + [str(q) for q in rnd.sample(range(n), ARITY[word])]
        if word in ("phase", "cphase"):
            tokens.append(repr(rnd.uniform(-math.pi, math.pi)))
        lines.append(" ".join(tokens))
    lines.append("measure all")
    return "\n".join(lines) + "\n"


class Circuit22(Workload):
    """parse_circuit + run_circuit on a seeded random 22-qubit circuit.

    A 64 MiB state puts the gate kernel, per-gate state validation and bulk
    sampling in the memory-bandwidth regime. Every circuit has the same gate
    multiset, so work per op does not depend on the seed.
    """

    name = "circuit_22q"
    reference = "wide"
    repeat_check = False  # a second 22-qubit op costs seconds; traced runs repeat it

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.n, self.h_layer, self.shots = (8, 3, 1 << 10) if smoke else (22, 4, 1 << 16)
        self.widths = (self.n,)

    def setup(self):
        """Check a 6-qubit twin of the circuit family against dense products."""
        rnd = self.rnd(0, "twin")
        text = random_circuit(rnd, 6, 2)
        shots, shot_seed = 1 << 10, rnd.getrandbits(63)
        parsed = qs.parse_circuit(text)
        first = qs.run_circuit(parsed, shots, shot_seed)
        again = qs.run_circuit(qs.parse_circuit(text), shots, shot_seed)
        dense = dense_final_state(text)
        problems = []
        if np.max(np.abs(parsed.final_state().amplitudes - dense)) > 1e-10:
            problems.append("twin final state differs from the dense product")
        if first.counts != again.counts:
            problems.append("twin counts differ for the same seed")
        if sum(first.counts.values()) != shots:
            problems.append("twin counts do not sum to shots")
        if not set(first.counts) <= set(np.flatnonzero(np.abs(dense) ** 2 > 1e-12).tolist()):
            problems.append("twin sampled an outcome the dense state rules out")
        return problems

    def prepare(self, i):
        rnd = self.rnd(i)
        text = random_circuit(rnd, self.n, self.h_layer)
        return text, rnd.getrandbits(63), support_superset(text)

    def run(self, inp):
        text, shot_seed, _ = inp
        return qs.run_circuit(qs.parse_circuit(text), self.shots, shot_seed)

    def check(self, inp, out):
        if out.num_bits != self.n or sum(out.counts.values()) != self.shots:
            return "counts do not sum to shots over all qubits"
        if not set(out.counts) <= inp[2]:
            return "sampled an outcome outside the reachable support"
        return None

    def fingerprint(self, out):
        return out.counts


class OrderFinding(Workload):
    """shor_factor(15) with a fresh seeded RandomSource per op (12 qubits).

    Many small-arity gates under the index-table cache, inverse_qft,
    collapse through measure_qubits, and retry waste. N = 21, 33 and 35 are
    left out: their ops take 10 to 300 times longer with a random retry
    count, so a 20 s run would hold too few of them for its throughput to
    repeat between seeds.
    """

    name = "order_finding"
    modulus = 15
    warmup_ops = 4
    widths = (12,)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.trace_ops = 4 if smoke else 400

    def prepare(self, i):
        return self.modulus, self.rnd(i).getrandbits(63)

    def run(self, inp):
        return alg.shor_factor(inp[0], qs.RandomSource(inp[1]))

    def check(self, inp, out):
        p, q = out
        if p * q != inp[0] or not 1 < p <= q < inp[0]:
            return f"{inp[0]} = {p} x {q} is not a nontrivial factoring"
        return None


class Grover18(Workload):
    """grover_search at 18 qubits; each round of 8 ops marks 1..8 targets.

    The only workload where amplify and oracle enumeration do real work,
    with no gate kernel in the loop once the start state is cached.
    """

    name = "grover_18q"
    reference = "stream"
    cycle = 8
    trace_ops = 8

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.n = 8 if smoke else 18
        self.widths = (self.n,)

    def prepare(self, i):
        counts = self.rnd(i // self.cycle, "block").sample(range(1, self.cycle + 1), self.cycle)
        rnd = self.rnd(i)
        return set(rnd.sample(range(1 << self.n), counts[i % self.cycle])), rnd.getrandbits(63)

    def run(self, inp):
        oracle = alg.Oracle(self.n, self.predicate(inp[0]))
        return alg.grover_search(oracle, alg.count_marked(oracle), qs.RandomSource(inp[1]))

    def check(self, inp, out):
        return self.check_grover(self.n, inp[0], out)


def _cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_mod.main(argv)
    return code, buffer.getvalue()


class SmallCalls(Workload):
    """One call per op from a fixed mix of tiny-state library and CLI calls.

    Per-call Python overhead and tiny-state construction dominate, so a
    kernel gain should leave this workload unchanged and added per-call cost
    shows here first.
    """

    name = "small_calls"
    kinds = ("qrng_4_4", "qrng_64_1", "qam", "grover_8", "walk_200", "cli_qrng", "cli_grover")
    cycle = warmup_ops = len(kinds)
    widths = (1, 4, 5, 6, 8)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.trace_ops = self.cycle * (1 if smoke else 100)
        self.memory = alg.qam_store(TRIPLE_PATTERNS)
        # Queries with at least one stored pattern within radius 1.
        self.queries = sorted(
            format(i, "05b") for i in range(32)
            if any(_hamming(format(i, "05b"), p) <= 1 for p in TRIPLE_PATTERNS)
        )

    def prepare(self, i):
        rnd = self.rnd(i)
        kind = self.kinds[i % self.cycle]
        seed = rnd.getrandbits(63)
        if kind == "qam":
            return kind, seed, rnd.choice(self.queries)
        if kind in ("grover_8", "cli_grover"):
            n = 8 if kind == "grover_8" else 6
            return kind, seed, set(rnd.sample(range(1 << n), rnd.randint(1, 4)))
        return kind, seed, None

    def run(self, inp):
        kind, seed, arg = inp
        if kind == "qrng_4_4":
            rng = qs.RandomSource(seed)
            return alg.qrng(4, 4, rng), rng.draw_count
        if kind == "qrng_64_1":
            rng = qs.RandomSource(seed)
            return alg.qrng(64, 1, rng), rng.draw_count
        if kind == "qam":
            return alg.qam_query(self.memory, arg, 1, qs.RandomSource(seed))
        if kind == "grover_8":
            oracle = alg.Oracle(8, self.predicate(arg))
            return alg.grover_search(oracle, alg.count_marked(oracle), qs.RandomSource(seed))
        if kind == "walk_200":
            return alg.quantum_walk_line(200)
        if kind == "cli_qrng":
            return _cli(["qrng", "--bits", "16", "--chunk", "4", "--seed", str(seed),
                         "--format", "json"])
        return _cli(["grover", "--qubits", "6", "--target", *map(str, sorted(arg)),
                     "--seed", str(seed), "--format", "json"])

    def check(self, inp, out):
        kind, seed, arg = inp
        if kind.startswith("qrng"):
            bits, chunk = (4, 4) if kind == "qrng_4_4" else (64, 1)
            value, draws = out
            if not 0 <= value < 1 << bits or draws != -(-bits // chunk):
                return f"qrng value {value} or draw count {draws} wrong"
            return None
        if kind == "qam":
            matches = sum(_hamming(p, arg) <= 1 for p in TRIPLE_PATTERNS)
            success = amplification(matches, len(TRIPLE_PATTERNS))[1]
            if out.pattern not in TRIPLE_PATTERNS:
                return f"retrieved {out.pattern}, which is not stored"
            if not math.isclose(out.predicted_success, success, rel_tol=1e-12):
                return f"predicted success {out.predicted_success!r}, expected {success!r}"
            self.tally.add(_hamming(out.pattern, arg) <= 1, success)
            return None
        if kind == "grover_8":
            return self.check_grover(8, arg, out)
        if kind == "walk_200":
            p = out.probabilities
            if (abs(p.sum() - 1.0) > 1e-9 or np.max(np.abs(p - p[::-1])) > 1e-12
                    or np.any(p[1::2] != 0.0)):
                return "walk distribution not normalized, symmetric and even-supported"
            return None
        code, text = out
        if code != 0:
            return f"cli exited {code}"
        try:
            doc = json.loads(text)
        except ValueError:
            return "cli printed no JSON document"
        if doc.get("seed") != seed:
            return "cli JSON does not echo the seed"
        if kind == "cli_qrng":
            return None if 0 <= doc["value"] < 1 << 16 else "cli qrng value out of range"
        return self.check_grover(
            6, arg, (doc["outcome"], doc["iterations"], doc["predicted_success"])
        )

    def fingerprint(self, out):
        if isinstance(out, alg.WalkDistribution):
            return out.probabilities.tobytes()
        return out


def _hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


WORKLOADS = {w.name: w for w in (Circuit22, OrderFinding, Grover18, SmallCalls)}
