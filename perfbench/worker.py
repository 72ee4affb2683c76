"""One fresh benchmark process: set up a workload, then time or trace it.

Started by run.py, never by hand. Modes:

- ``setup``  set up once and report the set-up time, then time the
  set-up reference kernel (see speed.py);
- ``timed``  set up, run the closed loop for the given seconds on whole
  rounds of the op mix, check every output, report per-op latencies and
  the reference kernel times taken between ops;
- ``traced`` set up, run a fixed op list untraced and then traced, check
  the outputs agree, and report per-layer metrics and probes.

The last line of standard output is one JSON document.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

# Set-up time starts before qregsim (and numpy) is imported.
SETUP_START = time.perf_counter()

import qregsim as qs  # noqa: E402
from qregsim import gates  # noqa: E402
from reference import Tally, brute_force_order  # noqa: E402
from speed import Reference  # noqa: E402
from tracing import GATE_KINDS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Seconds a timed loop may overrun while it finishes a round of the mix.
WALL_SLACK = 60.0
#: Register width of the per-gate allocation probe.
ALLOC_PROBE_QUBITS = 22
VALIDATE_REPEATS = 5
#: Op seconds between two reference-kernel samples in the timed loop.
REF_EVERY_S = 0.1
#: Reference profile that rescales set-up time, the same for every workload.
SETUP_REF = "small"
SETUP_REF_REPEATS = 3


def run_op(wl, i):
    """Run op ``i``; returns (latency in s, output, problem or None)."""
    inp = wl.prepare(i)
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:  # a raising op is a failed op, not a crash
        latency = time.perf_counter() - start
        return latency, None, f"op {i} raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        problem = wl.check(inp, out)
    except Exception as exc:  # a malformed output is a wrong output
        problem = f"check raised {type(exc).__name__}: {exc}"
    return latency, out, f"op {i}: {problem}" if problem else None


def timed(wl, seconds):
    """The closed loop, with a reference-kernel sample every REF_EVERY_S of ops."""
    latencies, failed_ops, problems = [], [], []
    ref = Reference(wl.reference)
    ref_s, ref_after = [ref.time()], [0]
    busy, since_ref, i, first = 0.0, 0.0, 0, None
    wall_start = time.perf_counter()
    while busy < seconds or i % wl.cycle:
        if time.perf_counter() - wall_start > seconds + WALL_SLACK:
            problems.append("wall-clock guard stopped the loop inside a round")
            break
        latency, out, problem = run_op(wl, i)
        latencies.append(latency)
        busy += latency
        since_ref += latency
        if problem:
            failed_ops.append(i)
            problems.append(problem)
        if i == 0:
            first = out
        i += 1
        if since_ref >= REF_EVERY_S:
            ref_s.append(ref.time())
            ref_after.append(i)
            since_ref = 0.0
    if ref_after[-1] != i:
        ref_s.append(ref.time())
        ref_after.append(i)
    if wl.repeat_check and first is not None:
        _, again, _ = run_op(wl, 0)
        if again is None or wl.fingerprint(again) != wl.fingerprint(first):
            problems.append("op 0 gave a different output when repeated with the same seed")
    return {"latencies_s": latencies, "cycle": wl.cycle, "failed_ops": failed_ops,
            "failed": len(failed_ops), "problems": problems,
            "ref_s": ref_s, "ref_after": ref_after, "ref_nominal_s": ref.nominal_s}


def run_pass(wl, tracer=None):
    outs, failed, problems, busy = [], 0, [], 0.0
    for i in range(wl.trace_ops):
        if tracer is not None:
            tracer.op = i
        latency, out, problem = run_op(wl, i)
        busy += latency
        outs.append(None if out is None else wl.fingerprint(out))
        if problem:
            failed += 1
            problems.append(problem)
    return outs, busy, failed, problems


def validate_probe(widths):
    """Seconds to construct QuantumState(n, amps) from a gate output, per width."""
    result = {}
    for n in widths:
        out = gates.apply(qs.basis_state(n, 0), gates.GateApplication(gates.HADAMARD, (0,)))
        samples = []
        for _ in range(VALIDATE_REPEATS):
            start = time.perf_counter()
            qs.QuantumState(n, out.amplitudes, copy=False)
            samples.append(time.perf_counter() - start)
        result[n] = sorted(samples)[VALIDATE_REPEATS // 2]
    return result


def alloc_probe(n):
    """tracemalloc peak during one apply per gate kind, over the state's bytes."""
    import tracemalloc

    state = qs.basis_state(n, 0)
    phi = 0.3
    probe_gates = {
        "id": gates.IDENTITY, "x": gates.NOT, "h": gates.HADAMARD,
        "phase": gates.phase_shift(phi), "cnot": gates.CNOT,
        "cphase": gates.controlled_phase(phi), "swap": gates.EXCHANGE,
        "toffoli": gates.TOFFOLI, "fredkin": gates.FREDKIN,
    }
    ratios = {}
    for kind in GATE_KINDS:
        gate = probe_gates[kind]
        app = gates.GateApplication(gate, [n - 1, n // 2, 0][: gate.arity])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = gates.apply(state, app)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        del out
        ratios[kind] = peak / state.amplitudes.nbytes
    return ratios


def traced(wl):
    plain_outs, plain_busy, failed, problems = run_pass(wl)
    wl.count_predicates = True
    tracer = Tracer()
    with tracer.installed():
        traced_outs, traced_busy, traced_failed, traced_problems = run_pass(wl, tracer)
    wl.count_predicates = False
    failed += traced_failed
    problems += traced_problems
    if traced_outs != plain_outs:
        problems.append("the traced pass gave other outputs than the untraced pass")
        failed += sum(a != b for a, b in zip(plain_outs, traced_outs))
    for _, args, period in tracer.kept:
        if period != brute_force_order(args[0], args[1]):
            problems.append(f"shor_period({args[0]}, {args[1]}) = {period} is not the order")
            failed += 1

    counts, metrics = tracer.layer_metrics()
    counts["algorithms.grover.predicate_calls"] = wl.predicate_calls
    rounds = counts["algorithms.qft.inverse_qft.calls"]
    periods = counts["algorithms.shor.shor_period.calls"]
    counts["algorithms.shor.period_yield"] = len(tracer.kept) / rounds if rounds else 0.0
    counts["algorithms.shor.base_yield"] = (
        counts["algorithms.shor.shor_factor.calls"] / periods if periods else 0.0
    )
    for name in LAYERS:
        metrics[f"{name}.share"] = metrics[f"{name}.s"] / traced_busy
    metrics["trace.op.s"] = traced_busy
    metrics["trace.overhead_ratio"] = plain_busy / traced_busy

    widths = validate_probe(wl.widths)
    metrics["state.validate_probe.s"] = sum(widths.values())
    for n, seconds in widths.items():
        metrics[f"state.validate_probe.{n}q.s"] = seconds
    alloc_n = 10 if wl.smoke else ALLOC_PROBE_QUBITS
    for kind, ratio in alloc_probe(alloc_n).items():
        metrics[f"gates.apply.{kind}.peak_alloc_ratio"] = ratio

    return {
        "ops": 2 * wl.trace_ops,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "counts": counts,
        "missing_bindings": tracer.missing,
        "alloc_probe_qubits": alloc_n,
    }


def provenance():
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    info = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_caches": _cpu_caches(),
    }
    return info


def _blas_threads():
    """OpenBLAS's own thread count, read through numpy's loaded library."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return fn()
    return None


def _cpu_caches():
    """Cache sizes of CPU 0 as the kernel reports them (read-only)."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--src", required=True, help="the qregsim source tree to measure")
    args = parser.parse_args()

    if not Path(qs.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        sys.exit(f"qregsim was imported from {qs.__file__}, not from {args.src}")

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    setup_problems = wl.setup()
    setup_s = time.perf_counter() - SETUP_START
    wl.tally = Tally()
    setup_ref = Reference(SETUP_REF)
    doc = {"setup_s": setup_s, "setup_problems": setup_problems,
           "setup_ref_s": setup_ref.median_time(SETUP_REF_REPEATS),
           "setup_ref_nominal_s": setup_ref.nominal_s}
    if args.mode == "timed":
        doc.update(timed(wl, args.seconds))
        doc["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif args.mode == "traced":
        doc.update(traced(wl))
    if args.mode != "setup":
        doc["provenance"] = provenance()
    tally = wl.tally
    doc["tally"] = {"trials": tally.trials, "misses": tally.misses,
                    "expected_misses": tally.expected, "ok": tally.ok()}
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
