"""Smoke tests for the benchmark harness, at tiny sizes.

Run with ``python3 -m pytest perfbench``. The full-size benchmark is not run
here; these tests only keep the harness from rotting.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=7, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _saved(workload, seed, trace):
    path = BENCH_DIR / "results" / f"BENCH_{workload}_seed{seed}_trace{trace}_smoke.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke_prints_every_metric(workload):
    doc = _last_json(_run(workload, 0))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    saved = _saved(workload, 7, 0)["metrics"]
    for name in ("ops_per_s", "op_ms_p50", "setup_s"):
        assert saved[f"{name}.wall"]["unit"] == saved[name]["unit"]
    assert saved["ref.samples"]["value"] >= 2
    assert saved["failed_ratio"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_counts_repeat_for_the_same_seed(workload):
    first = _last_json(_run(workload, 1, seed=11))
    counts = _saved(workload, 11, 1)["exact_counts"]
    second = _last_json(_run(workload, 1, seed=11))
    saved = _saved(workload, 11, 1)
    # The second run compares its counts with the first and is correct only
    # if they repeat.
    assert first["correct"] and second["correct"]
    assert saved["exact_counts"] == counts
    assert [m["name"] for m in SPEC["per_layer"]] == list(first["metrics"])
    for name in ("measurement.rng_draws", "algorithms.grover.predicate_calls",
                 "algorithms.qft.inverse_qft.calls", "algorithms.shor.period_yield",
                 "algorithms.shor.base_yield", "gates.apply.fredkin.calls"):
        assert name in counts
    assert saved["provenance"]["workload_seed"] == 11
    assert saved["missing_bindings"] == []


def test_traced_smoke_attributes_shor_time_to_inverse_qft():
    _last_json(_run("order_finding", 1, seed=5))
    saved = _saved("order_finding", 5, 1)
    metrics = {k: v["value"] for k, v in saved["metrics"].items()}
    assert metrics["algorithms.qft.inverse_qft.s"] > 0.5 * metrics["algorithms.shor.shor_period.s"]
    assert metrics["algorithms.qft.inverse_qft.calls"] >= metrics["algorithms.shor.shor_period.calls"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run("small_calls", 0, cwd=tmp_path, script=tmp_path / BENCH_DIR.name / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_missing_binding_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "BINDINGS", tracing.BINDINGS + (
        ("qregsim.algorithms.shor", "no_such_entry_point", "algorithms.shor.shor_period"),
    ))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["qregsim.algorithms.shor.no_such_entry_point"]
    assert tracer.layer_metrics()[0]["algorithms.shor.shor_period.calls"] == 0


def test_bindings_are_restored():
    import qregsim.algorithms.shor as shor
    import qregsim.gates as gates

    before = (gates.apply, shor.inverse_qft)
    with tracing.Tracer().installed():
        assert gates.apply is not before[0]
    assert (gates.apply, shor.inverse_qft) == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (0, -1, "algorithms.shor.shor_period", 0.0, 1.0, None),
        (0, 0, "algorithms.qft.inverse_qft", 0.1, 0.7, None),
        (0, 1, "gates.apply", 0.2, 0.5, (3, "h")),
    ]
    counts, seconds = tracer.layer_metrics()
    assert math.isclose(seconds["algorithms.shor.shor_period.self.s"], 0.4)
    assert math.isclose(seconds["algorithms.qft.inverse_qft.self.s"], 0.3)
    assert math.isclose(seconds["gates.apply.h.s"], 0.3)
    assert counts["gates.apply.bytes_computed"] == 2 * 16 * 8


def test_dense_reference_matches_known_states():
    bell = "qubits 2\nh 1\ncnot 1 0\nmeasure all\n"
    np.testing.assert_allclose(reference.dense_final_state(bell),
                               np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15)
    assert reference.support_superset(bell) == {0, 3}
    toffoli = "qubits 3\nx 2\nx 1\ntoffoli 2 1 0\nfredkin 0 2 1\nmeasure all\n"
    state = reference.dense_final_state(toffoli)
    assert reference.support_superset(toffoli) == {int(np.argmax(np.abs(state)))} == {0b111}


def test_tally_tolerates_predicted_misses_only():
    tally = reference.Tally()
    for _ in range(1000):
        tally.add(True, 0.999)
    tally.add(False, 0.999)
    assert tally.ok()
    for _ in range(100):
        tally.add(False, 0.999)
    assert not tally.ok()


def test_window_rates_use_whole_rounds():
    rates = run.window_rates([0.1] * 20, cycle=4, failed_ops=[0])
    assert len(rates) == 5
    assert math.isclose(rates[0], 3 / 0.4) and math.isclose(rates[1], 10.0)


def test_op_scales_follow_the_nearby_samples_not_one_outlier():
    # One sample after each op: the kernel slows to twice its time halfway
    # through, with one outlier sample early on.
    samples = [1.0] * 3 + [9.0] + [1.0] * 6 + [2.0] * 10
    scales = speed.op_scales(19, list(range(20)), samples, 2.0)
    assert scales[:5] == [2.0] * 5
    assert scales[-5:] == [1.0] * 5


def test_reference_kernel_holds_no_state_between_runs():
    ref = speed.Reference("small")
    assert ref.time() > 0
    assert not any(isinstance(v, np.ndarray) and v.size > 16 for v in vars(ref).values())
