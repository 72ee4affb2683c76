"""Outside-in layer tracing: spans around qregsim's public entry points.

Only the traced run installs the tracer. It rebinds each entry point on the
module that looks the name up at call time (``inverse_qft`` inside
``qregsim.algorithms.shor``, ``gates.apply`` on ``qregsim.gates``), records
one span per call and restores every binding on exit. A binding that no
longer exists is skipped and reported, so the trace keeps working when
later code reroutes internals; its layer then shows zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

#: (consumer, attribute, span name). The consumer is a module path, or
#: ``module:Class`` for a method looked up on instances.
BINDINGS = (
    ("qregsim", "parse_circuit", "circuit.parse"),
    ("qregsim.circuit", "parse", "circuit.parse"),
    ("qregsim", "run_circuit", "circuit.run"),
    ("qregsim.circuit", "run", "circuit.run"),
    ("qregsim.gates", "apply", "gates.apply"),
    ("qregsim.circuit", "basis_state", "state.basis_state"),
    ("qregsim.measurement", "basis_state", "state.basis_state"),
    ("qregsim.algorithms.grover", "basis_state", "state.basis_state"),
    ("qregsim.cli", "from_amplitudes", "state.from_amplitudes"),
    ("qregsim.circuit", "sample_counts", "measurement.sample_counts"),
    ("qregsim.algorithms.shor", "measure_qubits", "measurement.measure_qubits"),
    ("qregsim.algorithms.grover", "measure_all", "measurement.measure_all"),
    ("qregsim.algorithms.qam", "measure_all", "measurement.measure_all"),
    ("qregsim.algorithms.qrng", "measure_all", "measurement.measure_all"),
    ("qregsim.algorithms.shor", "inverse_qft", "algorithms.qft.inverse_qft"),
    ("qregsim.algorithms", "shor_factor", "algorithms.shor.shor_factor"),
    ("qregsim.algorithms.shor", "shor_period", "algorithms.shor.shor_period"),
    ("qregsim.algorithms", "count_marked", "algorithms.grover.count_marked"),
    ("qregsim.cli", "count_marked", "algorithms.grover.count_marked"),
    ("qregsim.algorithms", "grover_search", "algorithms.grover.grover_search"),
    ("qregsim.cli", "grover_search", "algorithms.grover.grover_search"),
    ("qregsim.algorithms.grover:Oracle", "marked_indices", "algorithms.grover.marked_indices"),
    ("qregsim.algorithms.grover", "amplify", "algorithms.grover.amplify"),
    ("qregsim.algorithms.qam", "amplify", "algorithms.grover.amplify"),
    ("qregsim.algorithms.grover", "uniform_superposition",
     "algorithms.grover.uniform_superposition"),
    ("qregsim.algorithms.qrng", "uniform_superposition",
     "algorithms.grover.uniform_superposition"),
    ("qregsim.algorithms", "qrng", "algorithms.qrng.qrng"),
    ("qregsim.cli", "qrng", "algorithms.qrng.qrng"),
    ("qregsim.algorithms", "qam_query", "algorithms.qam.qam_query"),
    ("qregsim.cli", "qam_query", "algorithms.qam.qam_query"),
    ("qregsim.algorithms", "quantum_walk_line", "algorithms.walk.quantum_walk_line"),
    ("qregsim.cli", "quantum_walk_line", "algorithms.walk.quantum_walk_line"),
    ("qregsim.cli", "main", "cli.main"),
)
#: Every span name, so an unused layer still reports zero calls.
LAYERS = tuple(dict.fromkeys(name for _, _, name in BINDINGS))
#: Modules whose ``RandomSource`` is wrapped to count every draw made.
RNG_CONSUMERS = ("qregsim", "qregsim.circuit", "qregsim.cli")
#: Layers whose calls and results are kept for checks after the pass.
KEEP_RESULTS = ("algorithms.shor.shor_period",)
GATE_KINDS = ("id", "x", "h", "phase", "cnot", "cphase", "swap", "toffoli", "fredkin")


def _resolve(path: str):
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Spans (op, parent, name, start, end, info) held in memory for one pass.

    Only the derived per-layer metrics leave the process; the spans do not.
    """

    def __init__(self):
        self.spans: list = []
        self.kept: list = []
        self.rngs: list = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if name == "gates.apply" and len(args) == 2:
                info = (args[0].num_qubits, args[1].gate.name)
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (self.op, parent, name, start, end, info)
            if keep:
                self.kept.append((name, args, result))
            return result

        return traced

    def _counting(self, cls):
        def make(*args, **kwargs):
            rng = cls(*args, **kwargs)
            self.rngs.append(rng)
            return rng

        return make

    @contextlib.contextmanager
    def installed(self):
        """Rebind every entry point for the duration of the block."""
        saved = []
        wanted = [(path, attr, self._wrap, name) for path, attr, name in BINDINGS]
        wanted += [(path, "RandomSource", self._counting, None) for path in RNG_CONSUMERS]
        try:
            for path, attr, wrapper, name in wanted:
                owner = _resolve(path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{path}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper(name, original) if name else wrapper(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self) -> tuple[dict[str, int], dict[str, float]]:
        """Exact counts, and inclusive and self seconds, per layer and gate kind.

        A span's self time is its duration minus the durations of its direct
        children, which never overlap because calls nest.
        """
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for name in LAYERS:
            totals[name]
        for kind in GATE_KINDS:
            totals[f"gates.apply.{kind}"]
        bytes_computed = 0
        for index, (_, _, name, start, end, info) in enumerate(self.spans):
            names = [name]
            if info is not None:
                num_qubits, kind = info
                names.append(f"gates.apply.{kind}")
                bytes_computed += 2 * 16 * (1 << num_qubits)
            for key in names:
                entry = totals[key]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - child[index]
        counts, seconds = {}, {}
        for key, (calls, total, own) in totals.items():
            counts[f"{key}.calls"] = calls
            seconds[f"{key}.s"] = total
            seconds[f"{key}.self.s"] = own
        counts["gates.apply.bytes_computed"] = bytes_computed
        counts["measurement.rng_draws"] = sum(rng.draw_count for rng in self.rngs)
        apply_s = seconds["gates.apply.s"]
        seconds["gates.apply.gbps_computed"] = bytes_computed / apply_s / 1e9 if apply_s else 0.0
        return counts, seconds
