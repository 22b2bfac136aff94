"""OpenQASM 3.0 to CUDA-Q transpiler with an embedded trajectory simulator."""

from .emit import EMISSION_TARGETS, EmittedSource, emit, golden_check
from .frontend import ProgramAst, parse, parse_source, tokenize
from .kir import (
    BoundKernel,
    CondBlock,
    Gate,
    Kernel,
    Measure,
    Nop,
    Predicate,
    Reset,
    bind,
    compile_source,
    dump,
    lower,
)
from .oracle import fidelity_up_to_global_phase, full_gate_matrix, oracle_unitary
from .randqasm import RandomCircuitSpec, generate, generate_with_inverse
from .sema import ParamRef, SymbolKind, ValidatedProgram, analyze, const_eval
from .sim import (
    RngStream,
    ShotHistogram,
    StateVector,
    apply_gate,
    expval_pauli,
    measure,
    reset,
    run_trajectory,
    sample,
    statevector,
)
from .suites import (
    SuiteReport,
    run_suites,
    suite_algorithms,
    suite_clifford_differential,
    suite_conditional_reset,
    suite_teleport,
    suite_vqe,
)

__version__ = "0.1.0"
