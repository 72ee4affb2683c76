"""Command-line front end: circuit execution and one subcommand per algorithm.

Every stochastic subcommand takes ``--seed``; when omitted, a fresh seed is
drawn and printed, so any report can be regenerated bit-identically from
its printed seed and parameters.  Exit codes: 0 success, 1 usage error,
2 runtime/precondition error.

Each subcommand builds one report, a JSON document and its text lines, and
``main`` prints it in the chosen ``--format``; text lines are generated
only when printed.  Text starts with ``#``
header lines (``# key value``; floats as ``.6g``, lists space-separated),
then the result lines: ``BITSTRING COUNT PROB`` by descending count for
``run``, ``BITSTRING PROB`` for ``qft-demo``, ``POSITION PROB`` and a
``# sigma_quantum``/``# sigma_classical`` footer for ``walk``, and one
line otherwise: the value, bit string or pattern found, or ``N = p × q``.
JSON is one document per run, readable by any generic parser.  A ``qam``
patterns file is read by the circuit file's line and ``#`` comment rules.
An input file that is not UTF-8, and a ``qrng --bits`` wider than Python's
integer string limit lets it print, are runtime errors, raised before any
draw.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import random
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import circuit as circuit_mod
from . import state as state_mod
from .algorithms import (
    Oracle,
    RetryLimitExceeded,
    classical_walk_line,
    count_marked,
    grover_search,
    qam_query,
    qam_store,
    qft,
    qrng,
    quantum_walk_line,
    shor_factor,
)
from .measurement import SEED_LIMIT, RandomSource
from .state import from_amplitudes

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _fresh_seed() -> int:
    # What secrets.randbits does, without importing hashlib and OpenSSL.
    return random.SystemRandom().getrandbits(63)


def _header(doc: dict, *keys: str) -> Iterator[str]:
    """``# key value`` lines for ``keys`` of ``doc``: floats as ``.6g``, lists space-separated."""
    for key in keys:
        value = doc[key]
        if isinstance(value, float):
            value = f"{value:.6g}"
        elif isinstance(value, list):
            value = " ".join(map(str, value))
        yield f"# {key} {value}"


def _text(doc: dict, keys: tuple[str, ...], line: str) -> Iterator[str]:
    """Header lines for ``keys``, then the result line ``line.format_map(doc)``."""
    yield from _header(doc, *keys)
    yield line.format_map(doc)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"cannot read {path}: byte {exc.object[exc.start]:#04x} at offset {exc.start} "
            "is not UTF-8"
        ) from None


def _histogram(doc: dict) -> Iterator[str]:
    """Text lines of a ``run`` report, sorted and formatted only when printed."""
    yield from _header(doc, "shots", "seed")
    # ``counts`` is in ascending bitstring order and a reversed sort is
    # still stable, so equal counts keep that order.
    for bits, count in sorted(doc["counts"].items(), key=operator.itemgetter(1), reverse=True):
        yield f"{bits} {count} {count / doc['shots']:.6g}"


def _cmd_run(args) -> tuple[dict, Iterable[str]]:
    result = circuit_mod.run(circuit_mod.parse(_read(args.circuit)), args.shots, args.seed)
    counts = {result.bitstring(o): c for o, c in result.counts.items()}  # in ascending order
    doc = {"shots": result.shots, "seed": result.seed, "counts": counts}
    return doc, _histogram(doc)


@functools.cache
def _printable_bits(digits: int) -> int:
    """The most bits whose every value ``str`` prints in ``digits`` digits."""
    return (10**digits).bit_length() - 1


def _cmd_qrng(args) -> tuple[dict, Iterable[str]]:
    digits = sys.get_int_max_str_digits()  # 0: no limit
    if digits and args.bits > (widest := _printable_bits(digits)):
        raise ValueError(
            f"--bits {args.bits} exceeds {widest}, the widest value this Python prints "
            f"under its {digits}-digit limit on integer strings"
        )
    value = qrng(args.bits, args.chunk, RandomSource(args.seed))
    doc = {"bits": args.bits, "chunk": args.chunk, "value": value, "seed": args.seed}
    return doc, _text(doc, ("bits", "chunk", "seed"), "{value}")


def _cmd_grover(args) -> tuple[dict, Iterable[str]]:
    state_mod._check_num_qubits(args.qubits)
    targets = set(args.target)
    for t in targets:
        if not 0 <= t < (1 << args.qubits):
            raise ValueError(f"target index {t} out of range for {args.qubits} qubits")
    oracle = Oracle._from_marked(args.qubits, targets)
    result = grover_search(oracle, count_marked(oracle), RandomSource(args.seed))
    doc = {
        "qubits": args.qubits,
        "targets": sorted(targets),
        "outcome": result.outcome,
        "bitstring": format(result.outcome, f"0{args.qubits}b"),
        "iterations": result.iterations,
        "predicted_success": result.predicted_success,
        "seed": args.seed,
    }
    keys = ("qubits", "targets", "iterations", "predicted_success", "seed")
    return doc, _text(doc, keys, "{bitstring}")


def _cmd_qft_demo(args) -> tuple[dict, Iterable[str]]:
    n = args.qubits
    state_mod._check_num_qubits(n)  # before the comb is allocated
    dim = 1 << n
    if not 1 <= args.period <= dim:
        raise ValueError(f"period must be between 1 and {dim}, got {args.period}")
    comb = np.zeros(dim)
    comb[:: args.period] = 1.0
    probs = qft(from_amplitudes(n, comb, normalize=True)).probabilities()
    idx = np.flatnonzero(probs > 1e-12)
    table = dict(zip((format(i, f"0{n}b") for i in idx.tolist()), probs[idx].tolist()))
    doc = {"qubits": n, "period": args.period, "probabilities": table}
    rows = (f"{bits} {p:.6g}" for bits, p in table.items())
    return doc, itertools.chain(_header(doc, "qubits", "period"), rows)


def _cmd_shor(args) -> tuple[dict, Iterable[str]]:
    p, q = shor_factor(args.n, RandomSource(args.seed))
    doc = {"n": args.n, "p": p, "q": q, "seed": args.seed}
    return doc, _text(doc, ("seed",), "{n} = {p} × {q}")


def _spread(doc: dict) -> Iterator[str]:
    """Text lines of a ``walk`` report: each reachable position, then both spreads."""
    yield from _header(doc, "steps")
    for pos, prob in zip(doc["positions"], doc["quantum"]):
        if prob > 1e-12:
            yield f"{pos} {prob:.6g}"
    yield from _header(doc, "sigma_quantum", "sigma_classical")


def _cmd_walk(args) -> tuple[dict, Iterable[str]]:
    quantum = quantum_walk_line(args.steps)
    classical = classical_walk_line(args.steps)
    doc = {
        "steps": args.steps,
        "positions": [int(p) for p in quantum.positions],
        "quantum": [float(p) for p in quantum.probabilities],
        "classical": [float(p) for p in classical.probabilities],
        "sigma_quantum": quantum.std(),
        "sigma_classical": classical.std(),
    }
    return doc, _spread(doc)


def _cmd_qam(args) -> tuple[dict, Iterable[str]]:
    memory = qam_store(line for _, line in circuit_mod._stripped_lines(_read(args.patterns_file)))
    result = qam_query(memory, args.query, args.radius, RandomSource(args.seed))
    doc = {
        "query": args.query,
        "radius": args.radius,
        "pattern": result.pattern,
        "predicted_success": result.predicted_success,
        "seed": args.seed,
    }
    return doc, _text(doc, ("query", "radius", "predicted_success", "seed"), "{pattern}")


@functools.cache  # parse_args does not mutate the parser, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="qregsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="64-bit RNG seed (default: randomized, printed)")

    p = sub.add_parser("run", help="execute a circuit file")
    p.add_argument("circuit", help="path to a circuit file")
    p.add_argument("--shots", type=int, default=1024, help="shot count (default: 1024)")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("qrng", help="random integer from chunked measurement")
    p.add_argument("--bits", type=int, default=8, help="bits to produce (default: 8)")
    p.add_argument("--chunk", type=int, default=1, help="register width per round (default: 1)")
    common(p)
    p.set_defaults(func=_cmd_qrng)

    p = sub.add_parser("grover", help="search for marked basis indices")
    p.add_argument("--qubits", type=int, required=True, help="search register width")
    p.add_argument("--target", type=int, nargs="+", required=True,
                   help="marked basis index(es)")
    common(p)
    p.set_defaults(func=_cmd_grover)

    p = sub.add_parser("qft-demo", help="transform a periodic comb state")
    p.add_argument("--qubits", type=int, default=3, help="register width (default: 3)")
    p.add_argument("--period", type=int, default=2, help="comb period (default: 2)")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_qft_demo)

    p = sub.add_parser("shor", help="factor an odd composite")
    p.add_argument("n", type=int, help="number to factor")
    common(p)
    p.set_defaults(func=_cmd_shor)

    p = sub.add_parser("walk", help="quantum vs classical line walk")
    p.add_argument("--steps", type=int, default=100, help="step count (default: 100)")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("qam", help="associative pattern retrieval")
    p.add_argument("--patterns-file", required=True,
                   help="file with one bit string per line (# comments)")
    p.add_argument("--query", required=True, help="query bit string")
    p.add_argument("--radius", type=int, default=0,
                   help="Hamming match radius (default: 0)")
    common(p)
    p.set_defaults(func=_cmd_qam)

    return parser


def main(argv: list[str] | None = None) -> int:
    cap = os.environ.get("QREGSIM_MAX_QUBITS")
    if cap is not None:
        try:
            state_mod.set_max_qubits(int(cap))
        except ValueError:
            print(f"error: invalid QREGSIM_MAX_QUBITS value {cap!r}", file=sys.stderr)
            return USAGE_ERROR

    args = _build_parser().parse_args(argv)
    seed = getattr(args, "seed", 0)
    if seed is None:
        args.seed = _fresh_seed()
    elif not 0 <= seed < SEED_LIMIT:
        print("error: seed must be a nonnegative 64-bit integer", file=sys.stderr)
        return USAGE_ERROR

    try:
        doc, lines = args.func(args)
    except (ValueError, RetryLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    print(json.dumps(doc) if args.format == "json" else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
