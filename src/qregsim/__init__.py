"""qregsim: a quantum-register state-vector simulator and algorithm library.

Registers are normalized complex amplitude vectors over 2**n basis states
(qubit 0 is the least-significant bit of the basis index).  Gates act on
slices of the ``[2]*n`` tensor view, measurement follows the Born rule with
seeded reproducible sampling, and the algorithms package layers search, Fourier,
period-finding, walk, and associative-memory routines on top.
"""

from . import algorithms
from .circuit import Circuit, CircuitParseError, RunResult
from .circuit import parse as parse_circuit
from .circuit import run as run_circuit
from .circuit import serialize as serialize_circuit
from .gates import (
    CNOT,
    EXCHANGE,
    FREDKIN,
    HADAMARD,
    IDENTITY,
    NOT,
    TOFFOLI,
    Gate,
    GateApplication,
    apply,
    controlled_phase,
    custom_gate,
    matrix_of,
    phase_shift,
)
from .measurement import (
    MeasurementOutcome,
    RandomSource,
    is_product,
    marginal,
    marginal_distribution,
    measure_all,
    measure_qubits,
    sample_counts,
)
from .state import (
    DEFAULT_MAX_QUBITS,
    NORM_TOLERANCE,
    QuantumState,
    basis_state,
    from_amplitudes,
    get_max_qubits,
    set_max_qubits,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "CNOT",
    "Circuit",
    "CircuitParseError",
    "DEFAULT_MAX_QUBITS",
    "EXCHANGE",
    "FREDKIN",
    "Gate",
    "GateApplication",
    "HADAMARD",
    "IDENTITY",
    "MeasurementOutcome",
    "NORM_TOLERANCE",
    "NOT",
    "QuantumState",
    "RandomSource",
    "RunResult",
    "TOFFOLI",
    "algorithms",
    "apply",
    "basis_state",
    "controlled_phase",
    "custom_gate",
    "from_amplitudes",
    "get_max_qubits",
    "is_product",
    "marginal",
    "marginal_distribution",
    "matrix_of",
    "measure_all",
    "measure_qubits",
    "parse_circuit",
    "phase_shift",
    "run_circuit",
    "sample_counts",
    "serialize_circuit",
    "set_max_qubits",
    "tensor",
]
