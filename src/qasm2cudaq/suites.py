"""Built-in validation suites.

Every suite starts from OpenQASM source text and runs the full pipeline
(parse -> analyze -> lower -> simulate), so a pass exercises the whole
stack. Differential suites compare against the brute-force oracle; the
protocol suites check the deterministic outcomes that feedforward logic
must produce.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kir, randqasm, sim
from .kir import compile_source
from .oracle import fidelity_up_to_global_phase, oracle_unitary

FIDELITY_THRESHOLD = 1.0 - 1e-10
RESET_THRESHOLD = 0.999
VQE_TOLERANCE = 1e-9


@dataclass
class CaseResult:
    name: str
    passed: bool
    metric: float
    threshold: float


@dataclass
class SuiteReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    def add(self, name: str, passed: bool, metric: float, threshold: float) -> None:
        self.cases.append(CaseResult(name, bool(passed), float(metric), float(threshold)))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "wall_time": self.wall_time,
            "cases": [asdict(case) for case in self.cases],
        }


def _e0(n: int) -> np.ndarray:
    vec = np.zeros(1 << n, dtype=complex)
    vec[0] = 1.0
    return vec


def _timed(fn) -> float:
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Conditional reset
# ---------------------------------------------------------------------------


def _reset_source(prep: str) -> str:
    return (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit q;\n"
        "bit c;\n"
        f"{prep}\n"
        "c = measure q;\n"
        "if (c == 1) { x q; }\n"
        "c = measure q;\n"
    )


def suite_conditional_reset(shots: int = 1000, seed: int = 1234) -> SuiteReport:
    """Prepare a superposition, measure, conditionally flip back to |0>.

    Runs both preparations (|+> via h, |-> via x;h); feedforward makes the
    final state |0> on every trajectory, so P(0) is exactly 1 under ideal
    dynamics (threshold enforced at 0.999)."""
    report = SuiteReport("reset")
    start = time.perf_counter()
    for label, prep in (("plus-state", "h q;"), ("minus-state", "x q; h q;")):
        kernel = compile_source(_reset_source(prep))
        hist = sim.sample(kir.bind(kernel, []), shots, seed)
        p_zero = hist.probability("0")
        report.add(label, p_zero >= RESET_THRESHOLD, p_zero, RESET_THRESHOLD)
    report.wall_time = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Teleportation
# ---------------------------------------------------------------------------


def _teleport_source(th: float, ph: float, la: float) -> str:
    return (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[3] q;\n"
        "bit c0;\n"
        "bit c1;\n"
        "bit res;\n"
        f"u({th!r}, {ph!r}, {la!r}) q[0];\n"
        "h q[1];\n"
        "cx q[1], q[2];\n"
        "cx q[0], q[1];\n"
        "h q[0];\n"
        "c0 = measure q[0];\n"
        "c1 = measure q[1];\n"
        "if (c1 == 1) { x q[2]; }\n"
        "if (c0 == 1) { z q[2]; }\n"
        f"u({-th!r}, {-la!r}, {-ph!r}) q[2];\n"
        "res = measure q[2];\n"
    )


def suite_teleport(shots: int = 1000, seed: int = 1234) -> SuiteReport:
    """Teleport a random single-qubit state, uncompute it on the target
    qubit, and assert a deterministic return to |0> on every shot."""
    report = SuiteReport("teleport")
    start = time.perf_counter()
    rng = random.Random(seed)
    th = rng.uniform(0, math.pi)
    ph = rng.uniform(0, 2 * math.pi)
    la = rng.uniform(0, 2 * math.pi)
    hist = sim.sample(kir.bind(compile_source(_teleport_source(th, ph, la)), []), shots, seed)
    zeros = sum(count for key, count in hist.counts.items() if key.endswith("0"))
    fraction = zeros / shots
    report.add("uncompute-to-zero", fraction == 1.0, fraction, 1.0)
    report.wall_time = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Clifford differential testing
# ---------------------------------------------------------------------------


def suite_clifford_differential(
    case_count: int = 200,
    seed: int = 1234,
    uncompute_cases: int = 20,
    smoke_cases: int = 2,
) -> SuiteReport:
    """Random Clifford circuits through the full pipeline.

    n in [2,8]: final state vs the dense unitary oracle applied to e0.
    n in (8,16]: circuit plus exact inverse must return to e0 (a full 2^n
    matrix is desk-infeasible there). n in (16,20]: normalization smoke.
    """
    report = SuiteReport("clifford")
    start = time.perf_counter()
    rng = random.Random(seed)
    for case in range(case_count):
        spec = randqasm.RandomCircuitSpec(
            qubits=rng.randint(2, 8),
            gate_count=rng.randint(10, 100),
            seed=rng.randrange(1 << 62),
        )
        kernel = compile_source(randqasm.generate(spec))
        state = sim.statevector(kir.bind(kernel, []))
        expected = oracle_unitary(kernel) @ _e0(spec.qubits)
        fid = fidelity_up_to_global_phase(state, expected)
        report.add(
            f"oracle-n{spec.qubits}-d{spec.gate_count}-{case}",
            fid >= FIDELITY_THRESHOLD,
            fid,
            FIDELITY_THRESHOLD,
        )
    for case in range(uncompute_cases):
        spec = randqasm.RandomCircuitSpec(
            qubits=rng.randint(9, 16),
            gate_count=rng.randint(10, 100),
            seed=rng.randrange(1 << 62),
        )
        kernel = compile_source(randqasm.generate_with_inverse(spec))
        state = sim.statevector(kir.bind(kernel, []))
        fid = fidelity_up_to_global_phase(state, _e0(spec.qubits))
        report.add(
            f"uncompute-n{spec.qubits}-d{spec.gate_count}-{case}",
            fid >= FIDELITY_THRESHOLD,
            fid,
            FIDELITY_THRESHOLD,
        )
    for case in range(smoke_cases):
        spec = randqasm.RandomCircuitSpec(
            qubits=rng.randint(17, 20),
            gate_count=15,
            seed=rng.randrange(1 << 62),
        )
        kernel = compile_source(randqasm.generate(spec))
        state = sim.statevector(kir.bind(kernel, []))
        norm = state.norm()
        report.add(
            f"smoke-n{spec.qubits}-{case}",
            abs(norm - 1.0) <= 1e-10,
            norm,
            1e-10,
        )
    report.wall_time = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# VQE parameter binding
# ---------------------------------------------------------------------------

_ANSATZ = (
    "OPENQASM 3.0;\n"
    'include "stdgates.inc";\n'
    "qubit[2] q;\n"
    "input array[float[64], 4] theta;\n"
    "ry(theta[0]) q[0];\n"
    "ry(theta[1]) q[1];\n"
    "cx q[0], q[1];\n"
    "ry(theta[2]) q[0];\n"
    "ry(theta[3]) q[1];\n"
)


def _ansatz_zz_oracle(theta: list[float]) -> float:
    """<ZZ> for the hardware-efficient ansatz via explicit 4x4 algebra,
    independent of the simulator's gate application path."""

    def ry(a: float) -> np.ndarray:
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)

    eye = np.eye(2, dtype=complex)
    # little-endian: qubit 0 is the low index bit, so a gate on qubit 0 is kron(I, G)
    cx_01 = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    u = np.kron(eye, ry(theta[0]))
    u = np.kron(ry(theta[1]), eye) @ u
    u = cx_01 @ u
    u = np.kron(eye, ry(theta[2])) @ u
    u = np.kron(ry(theta[3]), eye) @ u
    psi = u @ np.array([1, 0, 0, 0], dtype=complex)
    zz = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
    return float(np.vdot(psi, zz @ psi).real)


def _literal_ansatz(theta: list[float]) -> str:
    return (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[2] q;\n"
        f"ry({theta[0]!r}) q[0];\n"
        f"ry({theta[1]!r}) q[1];\n"
        "cx q[0], q[1];\n"
        f"ry({theta[2]!r}) q[0];\n"
        f"ry({theta[3]!r}) q[1];\n"
    )


def suite_vqe(iterations: int = 50, seed: int = 1234) -> SuiteReport:
    """Compile-once / run-many check: one compile, many bindings.

    Every binding must share the compiled kernel, not copy it, and its <ZZ>
    is compared against the independent matrix oracle; the bound-execution
    loop must also beat a deliberate reparse-every-iteration baseline in
    total wall time. Both loops are warmed up and timed best-of-3 after a
    GC quiesce so the comparison is not dominated by collector pauses from
    earlier workloads."""
    report = SuiteReport("vqe")
    start = time.perf_counter()
    rng = random.Random(seed)
    thetas = [[rng.uniform(-math.pi, math.pi) for _ in range(4)] for _ in range(iterations)]

    # warm caches along both loop bodies before anything is counted or timed
    warm = compile_source(_literal_ansatz(thetas[0]))
    sim.expval_pauli(sim.statevector(kir.bind(warm, [])), "ZZ")

    kernel = compile_source(_ANSATZ)
    values: list[float] = []

    def bound_loop() -> None:
        values.clear()
        for theta in thetas:
            bound = kir.bind(kernel, theta)
            values.append(sim.expval_pauli(sim.statevector(bound), "ZZ"))

    def baseline_loop() -> None:
        for theta in thetas:
            rebuilt = compile_source(_literal_ansatz(theta))
            sim.expval_pauli(sim.statevector(kir.bind(rebuilt, [])), "ZZ")

    bound_total = min(_timed(bound_loop) for _ in range(3))
    worst = max(abs(v - _ansatz_zz_oracle(t)) for v, t in zip(values, thetas))
    # each binding is compared while it is alive, so no freed object's id is reused
    copies = sum(kir.bind(kernel, theta).kernel is not kernel for theta in thetas)

    report.add("expval-matches-oracle", worst <= VQE_TOLERANCE, worst, VQE_TOLERANCE)
    report.add("compile-once", copies == 0, copies, 0)

    baseline_total = min(_timed(baseline_loop) for _ in range(3))
    speedup = baseline_total / bound_total if bound_total > 0 else float("inf")
    report.add("bound-faster-than-reparse", bound_total < baseline_total, speedup, 1.0)
    report.wall_time = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Standard algorithms
# ---------------------------------------------------------------------------


def _bv_source(hidden: str) -> str:
    n = len(hidden)
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";', f"qubit[{n + 1}] q;", f"bit[{n}] c;"]
    lines.append(f"x q[{n}];")
    lines.append(f"for int i in [0:{n}] {{ h q[i]; }}")
    for i, ch in enumerate(hidden):
        if ch == "1":
            lines.append(f"cx q[{i}], q[{n}];")
    lines.append(f"for int i in [0:{n - 1}] {{ h q[i]; }}")
    for i in range(n):
        lines.append(f"c[{i}] = measure q[{i}];")
    return "\n".join(lines) + "\n"


def _qft_source(n: int, basis_state: int) -> str:
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";', f"qubit[{n}] q;"]
    for k in range(n):
        if (basis_state >> k) & 1:
            lines.append(f"x q[{k}];")
    for j in reversed(range(n)):
        lines.append(f"h q[{j}];")
        for k in reversed(range(j)):
            lines.append(f"cp(pi/{1 << (j - k)}) q[{k}], q[{j}];")
    for i in range(n // 2):
        lines.append(f"swap q[{i}], q[{n - 1 - i}];")
    return "\n".join(lines) + "\n"


def _dft_column(n: int, basis_state: int) -> np.ndarray:
    dim = 1 << n
    j = np.arange(dim)
    return np.exp(2j * math.pi * j * basis_state / dim) / math.sqrt(dim)


def suite_algorithms(seed: int = 1234, bv_cases: int = 20) -> SuiteReport:
    """Bernstein-Vazirani single-shot string recovery and QFT vs the DFT matrix."""
    report = SuiteReport("algos")
    start = time.perf_counter()
    rng = random.Random(seed)
    for case in range(bv_cases):
        length = 3 + case % 6  # lengths 3..8
        hidden = "".join(rng.choice("01") for _ in range(length))
        if hidden == "0" * length:
            hidden = hidden[:-1] + "1"
        kernel = compile_source(_bv_source(hidden))
        hist = sim.sample(kir.bind(kernel, []), 1, seed + case)
        recovered = hist.counts == {hidden: 1}
        report.add(f"bv-{hidden}", recovered, 1.0 if recovered else 0.0, 1.0)
    for n in range(2, 7):
        basis_state = rng.randrange(1 << n)
        kernel = compile_source(_qft_source(n, basis_state))
        state = sim.statevector(kir.bind(kernel, []))
        fid = fidelity_up_to_global_phase(state, _dft_column(n, basis_state))
        report.add(f"qft-n{n}-b{basis_state}", fid >= FIDELITY_THRESHOLD, fid, FIDELITY_THRESHOLD)
    report.wall_time = time.perf_counter() - start
    return report


SUITES = {
    "reset": lambda seed, shots: suite_conditional_reset(shots=shots, seed=seed),
    "teleport": lambda seed, shots: suite_teleport(shots=shots, seed=seed),
    "clifford": lambda seed, shots: suite_clifford_differential(seed=seed),
    "vqe": lambda seed, shots: suite_vqe(seed=seed),
    "algos": lambda seed, shots: suite_algorithms(seed=seed),
}


def run_suites(names: list[str], seed: int = 1234, shots: int = 1000) -> list[SuiteReport]:
    return [SUITES[name](seed, shots) for name in names]
