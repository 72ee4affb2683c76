"""Command-line front end: circuit execution and one subcommand per algorithm.

Every stochastic subcommand takes ``--seed``; when omitted, a fresh seed is
drawn and printed, so any report can be regenerated bit-identically from
its printed seed and parameters.  Exit codes: 0 success, 1 usage error,
2 runtime/precondition error.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys

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
from .circuit import CircuitParseError, RunResult
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
    return secrets.randbits(63)


def format_report(result, fmt: str = "text") -> str:
    """Render a RunResult or an algorithm payload dict as text or JSON.

    Text histograms follow ``BITSTRING COUNT PROB`` sorted by descending
    count, preceded by ``#``-prefixed parameter lines; JSON is a single
    document round-trippable by any generic parser.
    """
    if isinstance(result, RunResult):
        if fmt == "json":
            counts = {
                result.bitstring(outcome): count
                for outcome, count in sorted(result.counts.items())
            }
            return json.dumps(
                {"shots": result.shots, "seed": result.seed, "counts": counts}
            )
        lines = [f"# shots {result.shots}", f"# seed {result.seed}"]
        ordered = sorted(result.counts.items(), key=lambda item: (-item[1], item[0]))
        for outcome, count in ordered:
            lines.append(
                f"{result.bitstring(outcome)} {count} {count / result.shots:.6g}"
            )
        return "\n".join(lines)

    if fmt == "json":
        return json.dumps(result)
    lines = []
    for key, value in result.items():
        if key == "table":
            lines.extend(f"{row[0]} {row[1]:.6g}" for row in value)
        else:
            rendered = f"{value:.6g}" if isinstance(value, float) else value
            lines.append(f"# {key} {rendered}")
    return "\n".join(lines)


def _cmd_run(args) -> int:
    try:
        with open(args.circuit, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.circuit}: {exc.strerror}", file=sys.stderr)
        return RUNTIME_ERROR
    parsed = circuit_mod.parse(text)
    result = circuit_mod.run(parsed, args.shots, args.seed)
    print(format_report(result, args.format))
    return 0


def _cmd_qrng(args) -> int:
    value = qrng(args.bits, args.chunk, RandomSource(args.seed))
    payload = {"bits": args.bits, "chunk": args.chunk, "value": value, "seed": args.seed}
    if args.format == "json":
        print(format_report(payload, "json"))
    else:
        print(f"# bits {args.bits}")
        print(f"# chunk {args.chunk}")
        print(f"# seed {args.seed}")
        print(value)
    return 0


def _cmd_grover(args) -> int:
    state_mod._check_num_qubits(args.qubits)
    targets = set(args.target)
    for t in targets:
        if not 0 <= t < (1 << args.qubits):
            raise ValueError(f"target index {t} out of range for {args.qubits} qubits")
    oracle = Oracle(args.qubits, lambda i: i in targets)
    result = grover_search(oracle, count_marked(oracle), RandomSource(args.seed))
    payload = {
        "qubits": args.qubits,
        "targets": sorted(targets),
        "outcome": result.outcome,
        "bitstring": format(result.outcome, f"0{args.qubits}b"),
        "iterations": result.iterations,
        "predicted_success": result.predicted_success,
        "seed": args.seed,
    }
    if args.format == "json":
        print(format_report(payload, "json"))
    else:
        print(f"# qubits {args.qubits}")
        print(f"# targets {' '.join(str(t) for t in sorted(targets))}")
        print(f"# iterations {result.iterations}")
        print(f"# predicted_success {result.predicted_success:.6g}")
        print(f"# seed {args.seed}")
        print(payload["bitstring"])
    return 0


def _cmd_qft_demo(args) -> int:
    n = args.qubits
    state_mod._check_num_qubits(n)  # before the comb is allocated
    dim = 1 << n
    if not 1 <= args.period <= dim:
        raise ValueError(f"period must be between 1 and {dim}, got {args.period}")
    comb = [0.0] * dim
    support = range(0, dim, args.period)
    for i in support:
        comb[i] = 1.0
    transformed = qft(from_amplitudes(n, comb, normalize=True))
    probs = transformed.probabilities()
    table = [
        (format(i, f"0{n}b"), float(p)) for i, p in enumerate(probs) if p > 1e-12
    ]
    if args.format == "json":
        payload = {
            "qubits": n,
            "period": args.period,
            "probabilities": {bits: p for bits, p in table},
        }
        print(format_report(payload, "json"))
    else:
        print(format_report(
            {"qubits": n, "period": args.period, "table": table}, "text"
        ))
    return 0


def _cmd_shor(args) -> int:
    p, q = shor_factor(args.n, RandomSource(args.seed))
    if args.format == "json":
        print(format_report({"n": args.n, "p": p, "q": q, "seed": args.seed}, "json"))
    else:
        print(f"# seed {args.seed}")
        print(f"{args.n} = {p} × {q}")
    return 0


def _cmd_walk(args) -> int:
    quantum = quantum_walk_line(args.steps)
    classical = classical_walk_line(args.steps)
    if args.format == "json":
        payload = {
            "steps": args.steps,
            "positions": [int(p) for p in quantum.positions],
            "quantum": [float(p) for p in quantum.probabilities],
            "classical": [float(p) for p in classical.probabilities],
            "sigma_quantum": quantum.std(),
            "sigma_classical": classical.std(),
        }
        print(format_report(payload, "json"))
    else:
        table = [
            (int(pos), float(prob))
            for pos, prob in zip(quantum.positions, quantum.probabilities)
            if prob > 1e-12
        ]
        print(format_report(
            {
                "steps": args.steps,
                "table": table,
                "sigma_quantum": quantum.std(),
                "sigma_classical": classical.std(),
            },
            "text",
        ))
    return 0


def _read_patterns(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    patterns = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            patterns.append(line)
    return patterns


def _cmd_qam(args) -> int:
    memory = qam_store(_read_patterns(args.patterns_file))
    result = qam_query(memory, args.query, args.radius, RandomSource(args.seed))
    payload = {
        "query": args.query,
        "radius": args.radius,
        "pattern": result.pattern,
        "predicted_success": result.predicted_success,
        "seed": args.seed,
    }
    if args.format == "json":
        print(format_report(payload, "json"))
    else:
        print(f"# query {args.query}")
        print(f"# radius {args.radius}")
        print(f"# predicted_success {result.predicted_success:.6g}")
        print(f"# seed {args.seed}")
        print(result.pattern)
    return 0


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
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _fresh_seed()
    if getattr(args, "seed", None) is not None and not 0 <= args.seed < SEED_LIMIT:
        print("error: seed must be a nonnegative 64-bit integer", file=sys.stderr)
        return USAGE_ERROR

    try:
        return args.func(args)
    except (ValueError, CircuitParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except RetryLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
