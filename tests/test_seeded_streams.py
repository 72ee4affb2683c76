"""Seeded outputs of every algorithm, replayed against a recorded corpus.

``seeded_streams.json`` lists entries of one ``kind`` each: the inputs
(``args``) and what the code returned for them when the corpus was
recorded (``result``).  Discrete outputs (run counts, qrng values, Grover
and QAM outcomes, Shor periods and factors) and ``RandomSource.draw_count``
must match exactly; floats (``predicted_success``, ``qft-demo`` and walk
probabilities) must match to 1e-12, as the CLI goldens do.  The inputs are
stored with the results, so a replay never depends on how they were drawn.

A change that has to alter a stream re-records the corpus from the current
code with ``PYTHONPATH=src python tests/test_seeded_streams.py --record``
and says how many entries changed and why.  A pytest run only reads it.
"""

import contextlib
import io
import json
import math
import pathlib
import random
import sys

import pytest

from test_cli_reports import _assert_same_document

from qregsim import (
    HADAMARD,
    NOT,
    Circuit,
    GateApplication,
    RandomSource,
    cli,
    parse_circuit,
    run_circuit,
    serialize_circuit,
)
from qregsim.algorithms.grover import Oracle, count_marked, grover_search
from qregsim.algorithms.qam import qam_query, qam_store
from qregsim.algorithms.qft import qft_applications
from qregsim.algorithms.qrng import qrng
from qregsim.algorithms.shor import shor_factor, shor_period
from qregsim.circuit import _GATES

CORPUS = pathlib.Path(__file__).with_name("seeded_streams.json")


def _run(circuit, shots, seed):
    counts = run_circuit(parse_circuit(circuit), shots, seed).counts
    return [[outcome, count] for outcome, count in counts.items()]


def _qrng(bits, chunk, seed):
    rng = RandomSource(seed)
    return [qrng(bits, chunk, rng), rng.draw_count]


def _grover(qubits, targets, seed):
    rng = RandomSource(seed)
    oracle = Oracle(qubits, set(targets).__contains__)
    result = grover_search(oracle, count_marked(oracle), rng)
    return [result.outcome, result.iterations, result.predicted_success, rng.draw_count]


def _qam(patterns, query, radius, seed):
    rng = RandomSource(seed)
    result = qam_query(qam_store(patterns), query, radius, rng)
    return [result.pattern, result.predicted_success, rng.draw_count]


def _shor_period(mod_n, seed):
    """[base, period, draw_count] for every base coprime to ``mod_n``."""
    rows = []
    for a in range(2, mod_n):
        if math.gcd(a, mod_n) == 1:
            rng = RandomSource(seed)
            rows.append([a, shor_period(a, mod_n, rng), rng.draw_count])
    return rows


def _shor_factor(mod_n, seed):
    rng = RandomSource(seed)
    return [*shor_factor(mod_n, rng), rng.draw_count]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    return json.loads(out.getvalue())


RUNNERS = {
    "run": _run,
    "qrng": _qrng,
    "grover": _grover,
    "qam": _qam,
    "shor_period": _shor_period,
    "shor_factor": _shor_factor,
    "cli": _cli,
}


def _random_circuit(rnd, n):
    """An H layer, then every mnemonic twice in random order; some circuits
    measure a random subset instead of every qubit."""
    lines = [f"qubits {n}"] + [f"h {q}" for q in sorted(rnd.sample(range(n), n // 2))]
    for word in rnd.sample(sorted(_GATES) * 2, 2 * len(_GATES)):
        gate, make = _GATES[word]
        tokens = [word] + [str(q) for q in rnd.sample(range(n), gate.arity)]
        if make:
            tokens.append(repr(rnd.uniform(-math.pi, math.pi)))
        lines.append(" ".join(tokens))
    if rnd.random() < 0.5:
        measured = rnd.sample(range(n), rnd.randint(1, n - 1))
        lines.append("measure " + " ".join(map(str, measured)))
    else:
        lines.append("measure all")
    return "\n".join(lines) + "\n"


def _inputs():
    """(kind, args) of every corpus entry, drawn from fixed seeds."""
    rnd = random.Random(2007)
    for n, shots in ((5, 1000), (12, 4000)):
        for seed in range(4):
            yield "run", {"circuit": _random_circuit(rnd, n), "shots": shots, "seed": seed}
    for bits, chunk in ((1, 1), (16, 4), (64, 5), (100, 7), (333, 12)):
        for seed in range(3):
            yield "qrng", {"bits": bits, "chunk": chunk, "seed": seed}
    for qubits in range(2, 11, 2):
        for seed in range(3):
            targets = sorted(rnd.sample(range(1 << qubits), rnd.randint(1, 3)))
            yield "grover", {"qubits": qubits, "targets": targets, "seed": seed}
    for length in (3, 6, 9):
        patterns = sorted({format(rnd.getrandbits(length), f"0{length}b") for _ in range(6)})
        for radius in range(3):
            query = format(rnd.getrandbits(length), f"0{length}b")
            if min(sum(x != y for x, y in zip(p, query)) for p in patterns) <= radius:
                for seed in range(2):
                    yield "qam", {"patterns": patterns, "query": query, "radius": radius,
                                  "seed": seed}
    for mod_n in (15, 21, 33, 35):
        for seed in range(3):
            yield "shor_period", {"mod_n": mod_n, "seed": seed}
        for seed in range(10):
            yield "shor_factor", {"mod_n": mod_n, "seed": seed}
    for qubits, period in ((3, 2), (4, 3), (6, 5), (8, 3), (8, 6), (10, 7)):
        yield "cli", {"argv": ["qft-demo", "--qubits", str(qubits), "--period", str(period)]}
    for steps in (0, 1, 7, 40, 200):
        yield "cli", {"argv": ["walk", "--steps", str(steps)]}
    # Both ways of counting shots: 4096 outcomes for 1000 shots are looked
    # up one draw at a time; 4 outcomes (an idle qubit measured) over two
    # batches are counted at the CDF edges of their support.
    full = "".join(f"h {q}\n" for q in range(12))
    yield "run", {"circuit": f"qubits 12\n{full}phase 3 0.4\nh 3\nmeasure all\n",
                  "shots": 1000, "seed": 5}
    sparse = "qubits 5\nh 0\nphase 0 0.9\nh 0\ncnot 0 3\nh 4\nmeasure 0 1 3 4\n"
    yield "run", {"circuit": sparse, "shots": (1 << 20) + 3, "seed": 6}
    # Period finding at t = 15, where the inverse transform's phase fans
    # span up to 14 qubits.
    for seed in range(3):
        yield "shor_factor", {"mod_n": 143, "seed": seed}
    # The forward transform as a circuit file: each qubit's controlled-phase
    # fan runs through ``run`` after a prefix that makes the input a
    # superposition.
    prefix = [GateApplication(HADAMARD, (q,)) for q in (0, 3, 4, 8)]
    prefix += [GateApplication(NOT, (q,)) for q in (1, 6)]
    transform = Circuit(10, (*prefix, *qft_applications(range(10))))
    yield "run", {"circuit": serialize_circuit(transform), "shots": 4000, "seed": 7}


def _record():
    entries = [{"kind": kind, "args": args, "result": RUNNERS[kind](**args)}
               for kind, args in _inputs()]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return len(entries)


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_lists_the_inputs_in_order(corpus):
    # So --record rewrites no entry it did not draw, and one appended by
    # hand must also be appended to _inputs().
    expected = json.loads(json.dumps([[kind, args] for kind, args in _inputs()]))
    assert [[e["kind"], e["args"]] for e in corpus] == expected


@pytest.mark.parametrize("kind", sorted(RUNNERS))
def test_entries_replay_unchanged(corpus, kind):
    entries = [e for e in corpus if e["kind"] == kind]
    assert entries, f"no {kind} entries in the corpus"
    for entry in entries:
        got = RUNNERS[kind](**entry["args"])
        _assert_same_document(got, entry["result"], f"{kind}{entry['args']}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    print(f"recorded {_record()} entries in {CORPUS}")
