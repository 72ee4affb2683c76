"""tracemalloc peaks for the memory tests."""

import tracemalloc


class PeakMemory:
    """Trace allocations in a ``with`` block; ``peak`` is its peak in bytes.

    Only memory allocated while the block runs is counted, above what was
    traced when it started, so a state built before the block is not.
    """

    def __enter__(self):
        tracemalloc.start()
        self.base = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc_info):
        self.peak = tracemalloc.get_traced_memory()[1] - self.base
        tracemalloc.stop()


def peak_over_state(fn, num_qubits):
    """tracemalloc peak while ``fn`` runs, over the bytes of one state."""
    with PeakMemory() as traced:
        fn()
    return traced.peak / (16 << num_qubits)
