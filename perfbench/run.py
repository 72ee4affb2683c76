"""qregsim benchmark: one workload, end-to-end metrics or a layer trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are declared in BENCHMARK.json. Each run measures the
qregsim tree under ``src/`` in fresh worker processes, one closed-loop
caller, BLAS left at its default thread count:

- ``--trace 0`` starts SETUP_PROBES set-up-only processes, then one process
  that sets up and runs the timed loop. Times are rescaled to one machine
  speed by a reference kernel timed between ops (see speed.py); the raw
  wall-clock values are printed beside them as ``<name>.wall``. It reports
  ops_per_s (median rate over RATE_WINDOWS windows of whole rounds),
  op_ms_p50, op_ms_p90 (only with at least 100 ops, so that 10 samples lie
  beyond it), failed_ratio, peak_rss_mib (ru_maxrss of the timed process)
  and setup_s (the median over all set-ups, from before ``import qregsim``
  to the first timed op).
- ``--trace 1`` runs a fixed op list untraced, then traced with spans around
  each layer's public entry points, and reports per-layer calls, times,
  shares, yields, exact counts and the tracing overhead.

Every output is checked; an op that raises or fails its check is failed.
The full result, with provenance, goes to
``perfbench/results/BENCH_<workload>_seed<seed>_trace<t>.json``. Standard
output lists every metric with its unit, and its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the BENCHMARK.json
metrics. ``--smoke`` shrinks every size so the harness can be tested
quickly. The exit code is 2 when there is nothing to measure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import op_scales

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 10
#: Whole-run budget in seconds; workers are killed (and waited for) past it.
RUN_BUDGET = 170.0
P90_MIN_OPS = 100
#: The timed loop is cut into this many windows of whole rounds; ops_per_s is
#: the median window rate, so a burst of load on a shared machine moves it less.
RATE_WINDOWS = 20
LABELS = {
    "bytes": "gates.apply.bytes_computed is computed as 2 x 16 B x 2**n per apply "
             "call (read + write of the state), not measured",
    "memory": "tracemalloc peaks and ru_maxrss are process-local; no system-wide "
              "tracing is used",
    "times": "ops_per_s, op_ms_* and setup_s are rescaled to the nominal speed of a "
             "reference kernel timed between ops (perfbench/speed.py); the *.wall "
             "twins are raw wall-clock values",
}


#: Units of the printed-only end-to-end metrics; the gated ones are declared
#: in BENCHMARK.json, ``<name>.wall`` takes the unit of ``<name>``, exact
#: counts are in ``count`` unless declared, and other names ending in ``.s``
#: are seconds.
PRINTED_UNITS = {"op_ms_p90": "ms", "failed_ratio": "ratio", "op_count": "count",
                 "rate_windows": "count", "setup_samples": "count",
                 "ref.kernel_ms": "ms", "ref.samples": "count"}


def unit_of(name: str, declared: dict[str, str], counts: dict) -> str:
    base = name.removesuffix(".wall")
    for table in (declared, PRINTED_UNITS):
        if base in table:
            return table[base]
    if name in counts:
        return "count"
    if name.endswith(".s"):
        return "s"
    raise KeyError(f"metric {name!r} has no unit")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _source_hash() -> str:
    """Hash of the measured sources and the benchmark, to pair comparable runs."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Worker:
    """Runs worker.py in fresh processes within the run's time budget."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))

    def __call__(self, mode: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode,
               "--src", str(SRC)] + (["--smoke"] if a.smoke else [])
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("run budget exhausted before the worker started")
        # subprocess.run kills the worker on timeout and waits for it to end.
        done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if done.returncode != 0:
            raise RuntimeError(f"{mode} worker exited {done.returncode}:\n{done.stderr}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def window_rates(latencies: list[float], cycle: int, failed_ops: list[int]) -> list[float]:
    """Completed ops per busy second in consecutive windows of whole rounds."""
    target = sum(latencies) / RATE_WINDOWS
    failed = set(failed_ops)
    rates, done, busy = [], 0, 0.0
    for i, latency in enumerate(latencies):
        done += i not in failed
        busy += latency
        if (i + 1) % cycle == 0 and busy >= target:
            rates.append(done / busy)
            done, busy = 0, 0.0
    if busy and not rates:
        rates.append(done / busy)
    return rates


def end_to_end(doc: dict, setups: list[dict]) -> dict[str, float]:
    """Rescaled metrics, their raw ``.wall`` twins, and the loop's own counts."""
    raw = doc["latencies_s"]
    ops = len(raw)
    scales = op_scales(ops, doc["ref_after"], doc["ref_s"], doc["ref_nominal_s"])
    metrics = {"op_count": ops, "setup_samples": len(setups),
               "ref.samples": len(doc["ref_s"]),
               "ref.kernel_ms": statistics.median(doc["ref_s"]) * 1e3}
    for suffix, latencies, setup_times in (
        ("", [t * f for t, f in zip(raw, scales)],
         [s["setup_s"] * s["setup_ref_nominal_s"] / s["setup_ref_s"] for s in setups]),
        (".wall", raw, [s["setup_s"] for s in setups]),
    ):
        rates = window_rates(latencies, doc["cycle"], doc["failed_ops"])
        metrics["ops_per_s" + suffix] = statistics.median(rates)
        metrics["op_ms_p50" + suffix] = statistics.median(latencies) * 1e3
        if ops >= P90_MIN_OPS:
            metrics["op_ms_p90" + suffix] = statistics.quantiles(latencies, n=10)[-1] * 1e3
        metrics["setup_s" + suffix] = statistics.median(setup_times)
    metrics["rate_windows"] = len(window_rates(raw, doc["cycle"], doc["failed_ops"]))
    metrics["peak_rss_mib"] = doc["maxrss_kib"] / 1024.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qregsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no qregsim sources under {SRC} to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    gated = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    declared = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}

    worker = Worker(args)
    problems: list[str] = []
    if args.trace:
        doc = worker("traced")
        counts = doc["counts"]
        metrics = {**doc["metrics"], **counts}
        attempted = doc["ops"]
    else:
        setups = [worker("setup") for _ in range(SETUP_PROBES)]
        doc = worker("timed")
        setups.append(doc)
        counts = {}
        metrics = end_to_end(doc, setups)
        attempted = len(doc["latencies_s"])
    failed = doc["failed"]
    for setup in [doc] if args.trace else setups:
        problems += setup["setup_problems"]
    problems += doc["problems"]
    if not doc["tally"]["ok"]:
        problems.append(f"marked-outcome misses {doc['tally']} exceed their prediction")
        failed += doc["tally"]["misses"]
    if not args.trace:
        metrics["failed_ratio"] = failed / attempted

    RESULTS.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}" + (
        "_smoke" if args.smoke else "")
    source_hash = _source_hash()
    if args.trace:
        problems += _compare_counts(RESULTS / f"{stem}.json", source_hash, counts)
    correct = not problems and failed == 0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": unit_of(k, declared, counts)}
                    for k, v in sorted(metrics.items())},
        "exact_counts": counts,
        "provenance": {
            **doc["provenance"],
            "workload_seed": args.seed,
            "git_commit": _git_commit(),
            "source_sha256": source_hash,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "labels": LABELS,
        },
        "missing_bindings": doc.get("missing_bindings", []),
        "tally": doc["tally"],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    for name, entry in result["metrics"].items():
        print(f"{name:52s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace and "op_ms_p90" not in metrics:
        print(f"{'op_ms_p90':52s} {'n/a':>16s} ms (needs {P90_MIN_OPS} ops, "
              f"had {metrics['op_count']})")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    missing = [m for m in gated if m not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": gated[m]} for m in gated},
    }))
    return 0


def _compare_counts(previous: Path, source_hash: str, counts: dict) -> list[str]:
    """Exact counts must repeat for the same seed, sources and benchmark."""
    if not previous.is_file():
        return []
    try:
        old = json.loads(previous.read_text())
    except ValueError:
        return []
    if old.get("provenance", {}).get("source_sha256") != source_hash:
        return []
    differ = sorted(k for k in counts if old["exact_counts"].get(k) != counts[k])
    return [f"exact counts differ from the previous run with this seed: {differ}"] if differ else []


if __name__ == "__main__":
    sys.exit(main())
