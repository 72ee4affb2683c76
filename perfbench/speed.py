"""A fixed reference kernel, timed between ops to rescale times to one machine speed.

On a small shared machine the CPU's speed drifts by up to 1.6x over tens of
seconds to minutes, from load outside the process. A median inside one run
cannot remove a drift that outlasts the run, so every timed loop also runs
this kernel between ops, and each op's latency is multiplied by
``nominal / kernel time measured around it``. The result reads as the time
the op would take at the speed where the kernel takes ``nominal`` seconds.
Raw wall-clock values are reported beside the rescaled ones.

The kernel calls no qregsim code, so a change to qregsim cannot move it.
Each workload picks the profile whose work resembles its own, so that load
outside the process slows both alike:

- ``small``: strided gather / 4x4 product / scatter updates of a 12-qubit
  state (64 KiB, cache-resident), small-array NumPy arithmetic and a Python
  dict loop, like the many small calls of order finding and the tiny mix;
- ``stream``: whole-vector passes over an 18-qubit state and a loop of
  Python predicate calls, like Grover's oracle enumeration and amplify;
- ``wide``: three gather / product / scatter updates of a 21-qubit state
  (32 MiB), the memory-bandwidth regime of the 22-qubit circuits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median seconds of one kernel run per profile on the 2-vCPU x86-64 VM the
#: bounds were set on. Only the ratio to the time measured in a run matters;
#: on another machine every rescaled value shifts by one constant factor.
NOMINAL_S = {"small": 6.5e-3, "stream": 14.5e-3, "wide": 200.0e-3}
#: Extra samples on each side of an op whose median sets its factor.
NEIGHBOURS = 4


class Reference:
    """The reference kernel of one profile; ``time()`` runs it once.

    Every array is built and dropped inside ``run()``, so the kernel holds no
    memory between samples and leaves the timed process's peak RSS alone.
    """

    def __init__(self, profile: str):
        self.profile = profile
        self.nominal_s = NOMINAL_S[profile]
        # (qubits, index tables, updates per table); the wide profile reuses
        # its table so that memory traffic, not building it, dominates.
        self.qubits, tables, self.repeats = {
            "small": (12, 24, 1), "stream": (18, 0, 0), "wide": (21, 1, 3)}[profile]
        rng = np.random.default_rng(12345)
        self.pairs = [tuple(sorted(rng.choice(self.qubits, 2, replace=False)))
                      for _ in range(tables)]
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        self.matrix = np.kron(hadamard, hadamard).astype(np.complex128)
        self.time()  # first touch of the allocator

    def run(self) -> float:
        n = self.qubits
        state = np.full(1 << n, (1 << n) ** -0.5, dtype=np.complex128)
        for hi, lo in self.pairs:
            idx = _pair_indices(n, hi, lo)
            for _ in range(self.repeats):
                out = np.empty(state.size, dtype=np.complex128)
                out[idx.reshape(-1)] = (self.matrix @ state[idx]).reshape(-1)
                state = out
        norm = float(np.vdot(state, state).real)
        if self.profile == "small":
            a = small = np.arange(16, dtype=np.complex128)
            for _ in range(100):
                a = np.abs(a * 0.5 + small) ** 2
                a = a / a.sum()
            d = {}
            for i in range(6000):
                d[(i * 7919) & 4095] = (i, i * i)
            norm += len(d) + float(a[0].real)
        elif self.profile == "stream":
            marked = [5, 77, 1000]
            for _ in range(10):
                state[marked] *= -1
                state = 2 * state.mean() - state
            members = set(marked)
            predicate = lambda i: i in members  # noqa: E731
            norm += len([i for i in range(40000) if predicate(i)]) + float(state[0].real)
        return norm

    def time(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start

    def median_time(self, repeats: int) -> float:
        return statistics.median(self.time() for _ in range(repeats))


def _pair_indices(n: int, hi: int, lo: int) -> np.ndarray:
    """Rows of basis indices grouped by the values of bits ``hi`` and ``lo``."""
    rest = [q for q in range(n) if q not in (hi, lo)]
    base = np.arange(1 << (n - 2), dtype=np.intp)
    stride = np.zeros_like(base)
    for j, q in enumerate(rest):
        stride |= ((base >> j) & 1) << q
    offsets = np.array([0, 1 << lo, 1 << hi, (1 << hi) | (1 << lo)], dtype=np.intp)
    return offsets[:, None] + stride[None, :]


def op_scales(ops: int, sample_after: list[int], samples: list[float],
              nominal: float) -> list[float]:
    """Per-op factor ``nominal / kernel time``, from the samples around each op.

    ``sample_after[k]`` is the number of ops completed when sample ``k`` was
    taken, so op ``j`` lies between the last sample with ``sample_after <= j``
    and the first with ``sample_after > j``. One sample jitters by tens of
    percent, so the factor uses the median of those two samples and
    NEIGHBOURS more on each side.
    """
    scales, medians, k = [], {}, 0
    for j in range(ops):
        while k + 1 < len(samples) and sample_after[k + 1] <= j:
            k += 1
        if k not in medians:
            near = samples[max(0, k - NEIGHBOURS):k + 2 + NEIGHBOURS]
            medians[k] = statistics.median(near)
        scales.append(nominal / medians[k])
    return scales
