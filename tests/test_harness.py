import math
import random

import numpy as np
import pytest

from qasm2cudaq import kir, randqasm, sim, suites
from qasm2cudaq.errors import DimensionMismatch, DynamicCircuit, TooLarge
from qasm2cudaq.kir import Gate
from qasm2cudaq.oracle import fidelity_up_to_global_phase, full_gate_matrix, oracle_unitary
from qasm2cudaq.suites import compile_source

HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'


class TestOracleUnitary:
    def test_single_hadamard(self):
        kernel = compile_source(f"{HEADER}qubit q;\nh q;\n")
        rt = math.sqrt(0.5)
        np.testing.assert_allclose(
            oracle_unitary(kernel), [[rt, rt], [rt, -rt]], atol=1e-15
        )

    def test_x_squared_is_identity(self):
        kernel = compile_source(f"{HEADER}qubit q;\nx q;\nx q;\n")
        np.testing.assert_allclose(oracle_unitary(kernel), np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("barrier", ["", "barrier q;\n"], ids=["plain", "barrier"])
    def test_bell_column_matches_hand_expansion(self, barrier):
        # hand-expanded 4x4 product (little-endian: h on qubit 0 = I (x) H);
        # a barrier between the gates is no factor
        h2 = np.kron(np.eye(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        cx = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
        expected = cx @ h2
        kernel = compile_source(f"{HEADER}qubit[2] q;\nh q[0];\n{barrier}cx q[0], q[1];\n")
        assert [type(op) for op in kernel.body].count(kir.Nop) == (1 if barrier else 0)
        np.testing.assert_allclose(oracle_unitary(kernel), expected, atol=1e-15)
        state = sim.statevector(kir.bind(kernel, []))
        np.testing.assert_allclose(state.amps, expected[:, 0], atol=1e-15)

    def test_too_large(self):
        kernel = compile_source(f"{HEADER}qubit[9] q;\nh q[0];\n")
        with pytest.raises(TooLarge):
            oracle_unitary(kernel)

    def test_dynamic_rejected(self):
        kernel = compile_source(f"{HEADER}qubit q;\nbit c;\nc = measure q;\n")
        with pytest.raises(DynamicCircuit):
            oracle_unitary(kernel)

    def test_full_matrix_is_unitary_with_controls(self):
        op = Gate("u", (0.3, 0.7, -1.1), (1,), ((0, kir.POS), (2, kir.NEG)))
        full = full_gate_matrix(3, op)
        np.testing.assert_allclose(full @ full.conj().T, np.eye(8), atol=1e-12)


class TestFidelity:
    def test_equal_states(self):
        a = np.array([1, 0], dtype=complex)
        assert fidelity_up_to_global_phase(a, a) == pytest.approx(1.0)

    def test_global_phase_killed(self):
        rng = np.random.default_rng(2)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        for phi in (0.1, math.pi / 2, 3.0):
            assert fidelity_up_to_global_phase(vec, np.exp(1j * phi) * vec) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity_up_to_global_phase(
            np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
        ) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity_up_to_global_phase(np.ones(2), np.ones(4))


class TestRandomCircuits:
    def test_generated_programs_compile(self):
        rng = random.Random(0)
        for _ in range(20):
            spec = randqasm.RandomCircuitSpec(
                qubits=rng.randint(2, 8),
                gate_count=rng.randint(10, 60),
                seed=rng.randrange(1 << 32),
            )
            kernel = compile_source(randqasm.generate(spec))
            assert kernel.qubit_count == spec.qubits

    def test_generation_is_deterministic(self):
        spec = randqasm.RandomCircuitSpec(qubits=4, gate_count=30, seed=77)
        assert randqasm.generate(spec) == randqasm.generate(spec)

    def test_inverse_returns_to_e0(self):
        for seed in range(5):
            spec = randqasm.RandomCircuitSpec(qubits=5, gate_count=40, seed=seed)
            kernel = compile_source(randqasm.generate_with_inverse(spec))
            state = sim.statevector(kir.bind(kernel, []))
            e0 = np.zeros(1 << 5, dtype=complex)
            e0[0] = 1
            assert fidelity_up_to_global_phase(state, e0) >= 1 - 1e-10

    def test_non_clifford_mode(self):
        spec = randqasm.RandomCircuitSpec(
            qubits=3, gate_count=30, seed=5, clifford_only=False
        )
        source = randqasm.generate(spec)
        assert any(g in source for g in ("rx(", "ry(", "rz("))
        compile_source(source)


def _mutate(monkeypatch, name: str, line: str, replacement: str) -> None:
    """Make suites.<name> return its program with `line` replaced, and fail
    if the program does not contain `line`."""
    real = getattr(suites, name)

    def mutant(*args):
        source = real(*args)
        assert line in source, f"{name} no longer writes {line!r}"
        return source.replace(line, replacement)

    monkeypatch.setattr(suites, name, mutant)


class TestSuites:
    def test_conditional_reset_passes_exactly(self):
        report = suites.suite_conditional_reset(shots=1000, seed=42)
        assert report.passed
        assert [c.name for c in report.cases] == ["plus-state", "minus-state"]
        assert all(c.metric == 1.0 for c in report.cases)

    def test_conditional_reset_single_shot(self):
        report = suites.suite_conditional_reset(shots=1, seed=9)
        assert report.passed and all(c.metric == 1.0 for c in report.cases)

    def test_conditional_reset_inverted_predicate_fails_hard(self, monkeypatch):
        # branch analysis: c=0 fires the flip, c=1 skips it; both end in |1>
        _mutate(monkeypatch, "_reset_source", "if (c == 1)", "if (c == 0)")
        report = suites.suite_conditional_reset(shots=1000, seed=42)
        assert not report.passed
        for case in report.cases:
            assert case.metric == 0.0

    def test_conditional_reset_dropped_correction_fails_near_half(self, monkeypatch):
        # branch analysis: without the correction the mid-circuit coin survives
        _mutate(monkeypatch, "_reset_source", "if (c == 1) { x q; }\n", "")
        report = suites.suite_conditional_reset(shots=1000, seed=42)
        assert not report.passed
        sigma = math.sqrt(1000 * 0.25) / 1000
        for case in report.cases:
            assert abs(case.metric - 0.5) <= 6 * sigma

    def test_teleport_passes(self):
        report = suites.suite_teleport(shots=1000, seed=42)
        assert report.passed
        assert report.cases[0].metric == 1.0

    def test_teleport_identity_state(self):
        source = suites._teleport_source(0.0, 0.0, 0.0)
        hist = sim.sample(kir.bind(compile_source(source), []), 200, 3)
        assert all(key.endswith("0") for key in hist.counts)

    def test_teleport_without_corrections_fails_near_branch_rate(self, monkeypatch):
        # branch enumeration oracle: without corrections the error channel is
        # uniform over {I, X, Z, XZ}; failure = 1 - mean |<0|U* E U|0>|^2
        seed = 42
        rng = random.Random(seed)
        th, ph, la = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        c, s = math.cos(th / 2), math.sin(th / 2)
        u = np.array(
            [[c, -np.exp(1j * la) * s], [np.exp(1j * ph) * s, np.exp(1j * (ph + la)) * c]]
        )
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1, -1]).astype(complex)
        e0 = np.array([1, 0], dtype=complex)
        survive = [
            abs(np.vdot(e0, u.conj().T @ err @ u @ e0)) ** 2
            for err in (np.eye(2), x, z, x @ z)
        ]
        expected_failure = 1 - sum(survive) / 4

        shots = 2000
        _mutate(monkeypatch, "_teleport_source", "if (c1 == 1) { x q[2]; }\nif (c0 == 1) { z q[2]; }\n", "")
        report = suites.suite_teleport(shots=shots, seed=seed)
        assert not report.passed
        observed_failure = 1 - report.cases[0].metric
        sigma = math.sqrt(expected_failure * (1 - expected_failure) / shots)
        assert abs(observed_failure - expected_failure) <= 6 * sigma

    def test_clifford_differential_small_run(self):
        report = suites.suite_clifford_differential(
            case_count=12, seed=7, uncompute_cases=3, smoke_cases=1
        )
        assert report.passed
        assert len(report.cases) == 16

    def test_clifford_reproducible(self):
        a = suites.suite_clifford_differential(case_count=3, seed=5, uncompute_cases=0, smoke_cases=0)
        b = suites.suite_clifford_differential(case_count=3, seed=5, uncompute_cases=0, smoke_cases=0)
        assert [c.name for c in a.cases] == [c.name for c in b.cases]
        assert [c.metric for c in a.cases] == [c.metric for c in b.cases]

    def test_vqe_suite(self):
        report = suites.suite_vqe(iterations=50, seed=11)
        assert report.passed
        by_name = {c.name: c for c in report.cases}
        assert by_name["compile-once"].metric == 0
        assert by_name["expval-matches-oracle"].metric <= 1e-9
        assert by_name["bound-faster-than-reparse"].metric > 1.0

    def test_vqe_trivial_angles(self):
        # <ZZ> on the untouched |00> and on |11> (both even parity) is 1
        assert suites._ansatz_zz_oracle([0.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
        assert suites._ansatz_zz_oracle([math.pi, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
        kernel = compile_source(suites._ANSATZ)
        for theta in ([0.0] * 4, [math.pi, 0.0, 0.0, 0.0]):
            state = sim.statevector(kir.bind(kernel, theta))
            assert sim.expval_pauli(state, "ZZ") == pytest.approx(
                suites._ansatz_zz_oracle(theta), abs=1e-12
            )

    def test_algorithms_suite(self):
        report = suites.suite_algorithms(seed=3)
        assert report.passed
        bv_cases = [c for c in report.cases if c.name.startswith("bv-")]
        qft_cases = [c for c in report.cases if c.name.startswith("qft-")]
        assert len(bv_cases) == 20
        assert len(qft_cases) == 5

    def test_bv_textbook_example(self):
        kernel = compile_source(suites._bv_source("101"))
        hist = sim.sample(kir.bind(kernel, []), 100, 0)
        assert hist.counts == {"101": 100}

    def test_qft_on_e0_is_uniform(self):
        kernel = compile_source(suites._qft_source(3, 0))
        state = sim.statevector(kir.bind(kernel, []))
        np.testing.assert_allclose(state.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)

    def test_reports_are_json_serializable(self):
        import json

        report = suites.suite_conditional_reset(shots=10, seed=1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["suite"] == "reset"
        assert payload["passed"] is True
        assert len(payload["cases"]) == 2
