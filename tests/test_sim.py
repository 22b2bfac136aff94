import functools
import json
import math
import pathlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qasm2cudaq import frontend as fe, kir, sema, sim, suites
from qasm2cudaq.errors import BadPauliString, DegenerateNorm, DynamicCircuit, SimError, TooLarge
from qasm2cudaq.kir import Gate, Measure
from qasm2cudaq.oracle import fidelity_up_to_global_phase, full_gate_matrix, oracle_unitary
from qasm2cudaq.sim import RngStream, StateVector

from golden_cases import HISTOGRAM_SEEDS, histogram, histogram_corpus

HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'


def compile_source(source: str) -> kir.Kernel:
    return kir.lower(sema.analyze(fe.parse_source(source)))


def bound(source: str, values=()) -> kir.BoundKernel:
    return kir.bind(compile_source(source), list(values))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class ScalarStream:
    """Reference xoshiro256++ on Python ints, seeded by splitmix64, one draw
    at a time: sim's uint64-array streams must draw exactly as this."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        self.s = []
        for _ in range(4):
            state, word = _splitmix64(state)
            self.s.append(word)

    @classmethod
    def for_shot(cls, seed: int, shot: int) -> "ScalarStream":
        _, derived = _splitmix64((seed + (shot + 1) * _GOLDEN) & _MASK64)
        return cls(derived)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s = [s0, s1, s2, _rotl(s3, 45)]
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


class TestRngStream:
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1, -12345])
    def test_draws_match_scalar_reference(self, seed):
        for rng, ref in [
            (RngStream(seed), ScalarStream(seed)),
            (RngStream.for_shot(seed, 0), ScalarStream.for_shot(seed, 0)),
            (RngStream.for_shot(seed, 70_000), ScalarStream.for_shot(seed, 70_000)),
        ]:
            assert [rng.uniform() for _ in range(5)] == [ref.uniform() for _ in range(5)]

    def test_same_seed_same_stream(self):
        a = RngStream(42)
        b = RngStream(42)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_shot_derivation_is_deterministic_and_distinct(self):
        first = [RngStream.for_shot(7, s).uniform() for s in range(100)]
        second = [RngStream.for_shot(7, s).uniform() for s in range(100)]
        assert first == second
        assert len(set(first)) == 100

    def test_uniform_in_unit_interval(self):
        rng = RngStream(3)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6


class TestApplyGate:
    def test_h_on_zero(self):
        state = StateVector.zero(1)
        sim.apply_gate(state, Gate("h", (), (0,), ()))
        np.testing.assert_allclose(state.amps, [math.sqrt(0.5)] * 2, atol=1e-15)

    def test_cnot_truth_table(self):
        # x with pos-control q0 on |01> (q0=1, q1=0) -> |11>
        state = StateVector.zero(2)
        sim.apply_gate(state, Gate("x", (), (0,), ()))
        sim.apply_gate(state, Gate("x", (), (1,), ((0, kir.POS),)))
        expected = np.zeros(4)
        expected[3] = 1
        np.testing.assert_allclose(state.amps, expected, atol=1e-15)

    def test_neg_control_fires_on_zero(self):
        state = StateVector.zero(2)
        sim.apply_gate(state, Gate("x", (), (1,), ((0, kir.NEG),)))
        assert abs(state.amps[2]) == 1.0

    def test_rz_on_plus_expectations(self):
        # brute-force 2x2 oracle: rz(pi/3)|+> leaves <Z>=0, <X>=cos(pi/3)=0.5
        theta = math.pi / 3
        h_mat = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        rz_mat = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        psi = rz_mat @ h_mat @ np.array([1, 0], dtype=complex)
        z_expected = float(np.vdot(psi, np.diag([1, -1]) @ psi).real)
        x_expected = float(np.vdot(psi, np.array([[0, 1], [1, 0]]) @ psi).real)
        assert abs(x_expected - 0.5) < 1e-12  # cos(pi/3)

        state = StateVector.zero(1)
        sim.apply_gate(state, Gate("h", (), (0,), ()))
        sim.apply_gate(state, Gate("rz", (theta,), (0,), ()))
        assert abs(sim.expval_pauli(state, "Z") - z_expected) < 1e-12
        assert abs(sim.expval_pauli(state, "X") - x_expected) < 1e-12

    def test_norm_preserved_by_random_gates(self):
        state = StateVector.zero(3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            base = rng.choice(["h", "s", "t", "sx", "rx", "u", "swap"])
            if base == "swap":
                t = tuple(rng.choice(3, size=2, replace=False))
                op = Gate("swap", (), (int(t[0]), int(t[1])), ())
            elif base in ("rx",):
                op = Gate("rx", (float(rng.uniform(-3, 3)),), (int(rng.integers(3)),), ())
            elif base == "u":
                angles = tuple(float(a) for a in rng.uniform(-3, 3, size=3))
                op = Gate("u", angles, (int(rng.integers(3)),), ())
            else:
                op = Gate(base, (), (int(rng.integers(3)),), ())
            sim.apply_gate(state, op)
            assert abs(state.norm() - 1.0) < 1e-10


class TestMeasure:
    def test_measure_zero_state(self):
        state = StateVector.zero(1)
        rng = RngStream(1)
        for _ in range(20):
            assert sim.measure(state, 0, rng) == 0
        np.testing.assert_allclose(state.amps, [1, 0], atol=1e-15)

    def test_bell_collapse(self):
        outcomes = set()
        for shot in range(50):
            state = StateVector.zero(2)
            sim.apply_gate(state, Gate("h", (), (0,), ()))
            sim.apply_gate(state, Gate("x", (), (1,), ((0, kir.POS),)))
            outcome = sim.measure(state, 0, RngStream.for_shot(11, shot))
            outcomes.add(outcome)
            expected = np.zeros(4, dtype=complex)
            expected[3 if outcome else 0] = 1
            assert fidelity_up_to_global_phase(state, expected) > 1 - 1e-12
        assert outcomes == {0, 1}

    def test_minus_state_distribution_6sigma(self):
        # exact p from the amplitude sum: |-> has p(1) = 0.5
        minus = (np.array([1, 0]) - np.array([0, 1])) / math.sqrt(2)
        p1 = float(np.sum(np.abs(minus[1:]) ** 2))
        shots = 10_000
        ones = 0
        for shot in range(shots):
            state = StateVector.zero(1)
            sim.apply_gate(state, Gate("x", (), (0,), ()))
            sim.apply_gate(state, Gate("h", (), (0,), ()))
            ones += sim.measure(state, 0, RngStream.for_shot(99, shot))
        sigma = math.sqrt(shots * p1 * (1 - p1))
        assert abs(ones - shots * p1) <= 6 * sigma
        assert abs(ones / shots - p1) <= 0.02

    def test_outcome_lands_on_its_bit(self):
        state = StateVector.zero(1)
        sim.apply_gate(state, Gate("x", (), (0,), ()))
        assert sim.measure(state, 0, RngStream(0)) == 1
        source = f"{HEADER}qubit q;\nbit[2] c;\nx q;\nc[1] = measure q;\n"
        key, _ = sim.run_trajectory(bound(source), RngStream(0))
        assert key == "01"


class TestReset:
    def test_reset_one(self):
        state = StateVector.zero(1)
        sim.apply_gate(state, Gate("x", (), (0,), ()))
        sim.reset(state, 0, RngStream(0))
        np.testing.assert_allclose(state.amps, [1, 0], atol=1e-15)

    def test_reset_plus(self):
        for shot in range(20):
            state = StateVector.zero(1)
            sim.apply_gate(state, Gate("h", (), (0,), ()))
            sim.reset(state, 0, RngStream.for_shot(3, shot))
            marginal = abs(state.amps[1]) ** 2
            assert marginal < 1e-12

    def test_reset_bell_branch_marginal(self):
        # brute force over both branches: q1 ends deterministically 0 or 1
        seen = set()
        for shot in range(40):
            state = StateVector.zero(2)
            sim.apply_gate(state, Gate("h", (), (0,), ()))
            sim.apply_gate(state, Gate("x", (), (1,), ((0, kir.POS),)))
            sim.reset(state, 0, RngStream.for_shot(17, shot))
            idx = np.arange(4)
            p_q1 = float(np.sum(np.abs(state.amps[(idx >> 1) & 1 == 1]) ** 2))
            assert min(p_q1, 1.0 - p_q1) < 1e-12
            seen.add(round(p_q1))
        assert seen == {0, 1}


class TestRunTrajectory:
    def test_empty_kernel(self):
        key, state = sim.run_trajectory(bound("OPENQASM 3.0;\n"), RngStream(0))
        assert key == ""
        np.testing.assert_allclose(state.amps, [1.0])

    def test_conditional_reset_always_zero(self):
        source = (
            f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\nif (c == 1) {{ x q; }}\n"
        )
        bk = bound(source)
        for shot in range(200):
            _, state = sim.run_trajectory(bk, RngStream.for_shot(23, shot))
            assert fidelity_up_to_global_phase(state, np.array([1, 0])) > 1 - 1e-12

    def test_branch_matches_predicate(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nh q[0];\nc = measure q[0];\n"
            "if (c == 1) { x q[1]; } else { h q[1]; }\n"
        )
        bk = bound(source)
        rt = math.sqrt(0.5)
        # c = 1 leaves |1> on q0 and the then-branch flips q1: |11>; c = 0
        # leaves |0> on q0 and the else-branch puts q1 in |+>
        expected = {"1": [0, 0, 0, 1], "0": [rt, 0, rt, 0]}
        seen = set()
        for shot in range(100):
            key, state = sim.run_trajectory(bk, RngStream.for_shot(31, shot))
            assert fidelity_up_to_global_phase(state, np.array(expected[key])) > 1 - 1e-12
            seen.add(key)
        assert seen == {"0", "1"}

    def test_nested_cond(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\n"
            "x q[0];\nc = measure q[0];\nd = measure q[1];\n"
            "if (c == 1) { if (d == 0) { x q[1]; } }\n"
        )
        _, state = sim.run_trajectory(bound(source), RngStream(0))
        # c=1 always, d=0 always, so q1 flips: final |11>
        assert abs(state.amps[3]) == 1.0


class TestSample:
    def test_reproducible_and_within_6sigma(self):
        source = f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\n"
        bk = bound(source)
        hists = [sim.sample(bk, 10_000, 42) for _ in range(3)]
        assert hists[0].counts == hists[1].counts == hists[2].counts
        sigma = math.sqrt(10_000 * 0.25)
        assert abs(hists[0].counts["0"] - 5000) <= 6 * sigma

    def test_worker_count_does_not_change_histogram(self):
        # dynamic circuit forces the per-shot trajectory path
        source = (
            f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\n"
            "if (c == 1) { x q; }\nc = measure q;\nh q;\nc = measure q;\n"
        )
        bk = bound(source)
        h1 = sim.sample(bk, 2000, 7, workers=1)
        h2 = sim.sample(bk, 2000, 7, workers=2)
        h3 = sim.sample(bk, 2000, 7, workers=3)
        assert h1.counts == h2.counts == h3.counts
        assert h1.total_shots == 2000

    def test_no_classical_bits_empty_key(self):
        hist = sim.sample(bound(f"{HEADER}qubit q;\nh q;\n"), 50, 1)
        assert hist.counts == {"": 50}

    def test_static_and_trajectory_paths_agree_statistically(self):
        # exact probabilities from the brute-force product as the oracle
        static_src = f"{HEADER}qubit[2] q;\nbit[2] c;\nh q[0];\ncx q[0], q[1];\nc = measure q;\n"
        bk = bound(static_src)
        assert not sim._needs_trajectories(bk.kernel)
        # the same physics with a dynamic no-op appended takes the trajectory path
        dyn_src = static_src + "if (c == 0) { barrier; }\n"
        bk_dyn = bound(dyn_src)
        assert sim._needs_trajectories(bk_dyn.kernel)
        shots = 4000
        sigma = math.sqrt(shots * 0.25)
        for hist in (sim.sample(bk, shots, 5), sim.sample(bk_dyn, shots, 5)):
            assert set(hist.counts) == {"00", "11"}
            assert abs(hist.counts["00"] - shots / 2) <= 6 * sigma

    def test_multinomial_respects_measure_order_keys(self):
        source = f"{HEADER}qubit[2] q;\nbit[2] c;\nx q[1];\nc = measure q;\n"
        hist = sim.sample(bound(source), 20, 0)
        assert hist.counts == {"01": 20}  # c[0]=q0=0, c[1]=q1=1, MSB-first


class TestStatevector:
    def test_bell(self):
        state = sim.statevector(bound(f"{HEADER}qubit[2] q;\nh q[0];\ncx q[0], q[1];\n"))
        rt = math.sqrt(0.5)
        np.testing.assert_allclose(state.amps, [rt, 0, 0, rt], atol=1e-15)

    def test_empty_three_qubit(self):
        state = sim.statevector(bound(f"{HEADER}qubit[3] q;\n"))
        expected = np.zeros(8)
        expected[0] = 1
        np.testing.assert_allclose(state.amps, expected)

    def test_qft_on_basis_one(self):
        # brute-force DFT oracle: QFT|001> has amplitudes omega^k / sqrt(8)
        n = 3
        lines = [f"{HEADER}qubit[{n}] q;", "x q[0];"]
        for j in reversed(range(n)):
            lines.append(f"h q[{j}];")
            for k in reversed(range(j)):
                lines.append(f"cp(pi/{1 << (j - k)}) q[{k}], q[{j}];")
        lines.append("swap q[0], q[2];")
        state = sim.statevector(bound("\n".join(lines)))
        omega = np.exp(2j * math.pi / 8)
        expected = np.array([omega**k for k in range(8)]) / math.sqrt(8)
        assert fidelity_up_to_global_phase(state, expected) > 1 - 1e-10

    def test_dynamic_rejected(self):
        with pytest.raises(DynamicCircuit):
            sim.statevector(bound(f"{HEADER}qubit q;\nbit c;\nc = measure q;\n"))
        with pytest.raises(DynamicCircuit):
            sim.statevector(bound(f"{HEADER}qubit q;\nreset q;\n"))

    def test_param_binding_used(self):
        source = f"{HEADER}input array[float[64], 1] t;\nqubit q;\nry(t[0]) q;\n"
        kernel = compile_source(source)
        theta = 1.234
        state = sim.statevector(kir.bind(kernel, [theta]))
        np.testing.assert_allclose(
            state.amps, [math.cos(theta / 2), math.sin(theta / 2)], atol=1e-15
        )


class TestExpvalPauli:
    def test_bell_zz(self):
        state = sim.statevector(bound(f"{HEADER}qubit[2] q;\nh q[0];\ncx q[0], q[1];\n"))
        assert abs(sim.expval_pauli(state, "ZZ") - 1.0) < 1e-12

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=25)
    def test_ry_zi_is_cos_theta(self, theta):
        state = sim.statevector(bound(f"{HEADER}qubit[2] q;\nry({theta!r}) q[0];\n"))
        assert abs(sim.expval_pauli(state, "ZI") - math.cos(theta)) < 1e-12

    def test_identity_string(self):
        state = sim.statevector(bound(f"{HEADER}qubit[3] q;\nh q[0];\nt q[1];\n"))
        assert abs(sim.expval_pauli(state, "III") - 1.0) < 1e-12

    def test_bad_strings(self):
        state = StateVector.zero(2)
        with pytest.raises(BadPauliString):
            sim.expval_pauli(state, "Z")
        with pytest.raises(BadPauliString):
            sim.expval_pauli(state, "ZQ")

    def test_result_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = StateVector.zero(2)
            for q in range(2):
                angles = tuple(float(a) for a in rng.uniform(-3, 3, size=3))
                sim.apply_gate(state, Gate("u", angles, (q,), ()))
            val = sim.expval_pauli(state, "XY")
            assert -1 - 1e-12 <= val <= 1 + 1e-12

    @given(st.integers(0, 8).flatmap(lambda n: st.text("IXYZ", min_size=n, max_size=n)), st.integers(0, 2**32 - 1))
    def test_matches_dense_pauli_matrix(self, pauli, seed):
        letters = {
            "I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])
        }
        matrix = np.ones((1, 1))
        for ch in pauli:  # qubit k is index bit k, so later letters act on higher bits
            matrix = np.kron(letters[ch], matrix)
        state = _random_state(seed, n=len(pauli))
        expected = float(np.vdot(state.amps, matrix @ state.amps).real)
        assert abs(sim.expval_pauli(state, pauli) - expected) <= 1e-12

    @pytest.mark.parametrize("pauli", ["XYXYXYXYXYXYXY", "XIIIIIIIIIIIII", "IIIIIIIIIIIIIY"])
    def test_xy_strings_gather_one_copy(self, pauli):
        state = _random_state(5, n=14)
        before = state.amps.copy()
        tracemalloc.start()
        try:
            sim.expval_pauli(state, pauli)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * state.amps.nbytes
        np.testing.assert_array_equal(state.amps, before)


class TestNormalizationInvariant:
    def test_norm_after_every_op_in_trajectories(self):
        source = (
            f"{HEADER}qubit[3] q;\nbit[2] c;\n"
            "h q[0];\ncx q[0], q[1];\nc[0] = measure q[0];\n"
            "if (c[0] == 1) { x q[2]; }\nreset q[1];\nc[1] = measure q[2];\n"
        )
        bk = bound(source)

        def unit_norm(state):
            assert abs(state.norm() - 1.0) <= 1e-10

        for shot in range(25):
            _reference_shot(bk.kernel, ScalarStream.for_shot(13, shot), unit_norm)
            unit_norm(sim.run_trajectory(bk, RngStream.for_shot(13, shot))[1])


_ANGLE_COUNT = {"rx": 1, "ry": 1, "rz": 1, "p": 1, "u": 3}
_ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


@st.composite
def canonical_gate(draw, n: int, controlled: bool = True) -> Gate:
    """Any canonical gate on n qubits; the first target is biased to the
    edge qubits 0 and n-1, where one merged axis of the view has length 1."""
    bases = kir.CANONICAL_BASES if n > 1 else kir.CANONICAL_BASES - {"swap"}
    base = draw(st.sampled_from(sorted(bases)))
    width = 2 if base == "swap" else 1
    first = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    others = draw(st.permutations([q for q in range(n) if q != first]))
    n_controls = draw(st.integers(0, min(2, n - width))) if controlled else 0
    targets = (first, *others[: width - 1])
    controls = tuple(
        (q, draw(st.sampled_from([kir.POS, kir.NEG])))
        for q in others[width - 1 : width - 1 + n_controls]
    )
    angles = tuple(draw(_ANGLES) for _ in range(_ANGLE_COUNT.get(base, 0)))
    return Gate(base, angles, targets, controls, draw(st.booleans()))


@st.composite
def gate_circuit(draw) -> kir.Kernel:
    """Runs of uncontrolled one-qubit gates mixed with controlled and swap
    gates on shared and disjoint qubits."""
    n = draw(st.integers(1, 6))
    body = draw(
        st.lists(canonical_gate(n, controlled=False) | canonical_gate(n), min_size=1, max_size=24)
    )
    return kir.Kernel(n, [("q", n)], [], [], body)


class TestKernelsAgainstOracle:
    @pytest.mark.parametrize("window", [1, 2, 3, sim._WINDOW])
    @given(gate_circuit())
    @settings(max_examples=120)
    def test_fused_and_single_gate_paths_match_oracle(self, window, kernel):
        expected = oracle_unitary(kernel)[:, 0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_WINDOW", window)
            fused = sim.statevector(kir.BoundKernel(kernel, ()))
        assert fidelity_up_to_global_phase(fused, expected) >= 1 - 1e-12
        unfused = StateVector.zero(kernel.qubit_count)
        for op in kernel.body:
            sim.apply_gate(unfused, op)
        assert fidelity_up_to_global_phase(unfused, expected) >= 1 - 1e-12

    def test_shared_matrices_untouched(self):
        before = {name: mat.copy() for name, mat in sim._FIXED_1Q.items()}
        ops = [Gate(base, (), (0,), ()) for base in before] * 2
        sim.statevector(kir.BoundKernel(kir.Kernel(1, [("q", 1)], [], [], ops), ()))
        for name, mat in sim._FIXED_1Q.items():
            np.testing.assert_array_equal(mat, before[name])


def _random_state(seed: int, n: int = 6) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestMeasureResetViews:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=max(20, settings().max_examples))  # a larger profile count wins
    def test_post_state_is_normalised_projection(self, state_seed, rng_seed):
        idx = np.arange(1 << 6)
        for qubit in range(6):
            state = _random_state(state_seed)
            before = state.amps.copy()
            outcome = sim.measure(state, qubit, RngStream(rng_seed))
            kept = np.where((idx >> qubit) & 1 == outcome, before, 0)
            np.testing.assert_allclose(state.amps, kept / np.linalg.norm(kept), atol=1e-14)

            state = StateVector(6, before.copy())
            sim.reset(state, qubit, RngStream(rng_seed))
            expected = np.zeros_like(before)
            np.add.at(expected, idx & ~(1 << qubit), kept / np.linalg.norm(kept))
            np.testing.assert_allclose(state.amps, expected, atol=1e-14)
            assert not state.amps[(idx >> qubit) & 1 == 1].any()

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 9])
    def test_projection_bits_match_strided_halves(self, n):
        # low qubits go through whole rows; the result must be the strided
        # halves' projection bit for bit, negative zeros included
        rng = np.random.default_rng(n)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps[3::5] = complex(-0.0, -0.0)
        amps /= np.linalg.norm(amps)
        for qubit in range(n):
            for outcome in (0, 1):
                p1 = sim._p1(StateVector(n, amps), qubit)
                expected = amps.copy()
                pairs = expected.view(np.float64).reshape(-1, 2, 2 << qubit)
                pairs[:, 1 - outcome] = 0.0
                pairs[:, outcome] *= 1.0 / math.sqrt(p1 if outcome else 1.0 - p1)
                state = StateVector(n, amps.copy())
                sim._settle(state, 0, sim._Write(qubit, 1), outcome, p1)
                assert state.amps.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 7, 9])
    def test_p1_rows_match_strided_halves(self, n):
        # qubits below _ROW_BELOW sum whole rows once the state has one
        rng = np.random.default_rng(n)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        idx = np.arange(1 << n)
        for qubit in range(n):
            one = amps[(idx >> qubit) & 1 == 1]
            assert sim._p1(StateVector(n, amps), qubit) == pytest.approx(np.vdot(one, one).real, rel=0, abs=1e-15)

    @pytest.mark.parametrize("qubit", range(6))
    def test_zero_probability_branch_raises(self, monkeypatch, qubit):
        state = _random_state(qubit)
        idx = np.arange(1 << 6)
        state.amps[(idx >> qubit) & 1 == 1] *= 1e-10
        state.amps /= np.linalg.norm(state.amps)
        # every row draws 0.0, which picks the branch of probability ~1e-20
        monkeypatch.setattr(sim.ShotStreams, "uniform", lambda self: np.zeros(len(self.s0)))
        with pytest.raises(DegenerateNorm):
            sim.measure(state, qubit, RngStream(0))
        with pytest.raises(DegenerateNorm):
            sim.reset(state, qubit, RngStream(0))


def _reference_predicate(pred: kir.Predicate, bits: dict[str, list[int]]) -> bool:
    if pred.index is not None:
        value = bits[pred.register][pred.index]
    else:
        value = int("".join(map(str, bits[pred.register])), 2)
    if pred.comparator == "truthy":
        return value != 0
    return {
        "==": value == pred.rhs,
        "!=": value != pred.rhs,
        "<": value < pred.rhs,
        "<=": value <= pred.rhs,
        ">": value > pred.rhs,
        ">=": value >= pred.rhs,
    }[pred.comparator]


def _reference_settle(state: StateVector, qubit: int, rng, reset: bool) -> int:
    """A measure (or a reset) on its own NumPy projector, off the simulator's
    path: one uniform draw u, outcome 1 when u < P(1); project onto the
    outcome and renormalize, and for a reset that read 1 move the bit-1 half
    into the bit-0 half. Returns the outcome."""
    amps = state.amps.reshape(-1, 2, 1 << qubit)  # axis 1 is the qubit's bit
    p1 = float(np.sum(np.abs(amps[:, 1, :]) ** 2))
    outcome = int(rng.uniform() < p1)
    kept = amps[:, outcome, :] / math.sqrt(p1 if outcome else 1.0 - p1)
    settled = np.zeros_like(amps)
    settled[:, 0 if reset else outcome, :] = kept
    state.amps = settled.reshape(-1)
    return outcome


def _reference_shot(kernel: kir.Kernel, rng, after_op=lambda state: None) -> tuple[str, StateVector]:
    """One shot by a recursive walk of the kernel body with a dict of bit
    lists as its classical store, calling after_op(state) after every op
    outside a CondBlock; returns the shot's key and final state. Each gate
    is its full 2^n matrix from the oracle, and each measure and reset is
    `_reference_settle`, so no step goes through the simulator."""
    state = StateVector.zero(kernel.qubit_count)
    bits = {name: [0] * width for name, width in kernel.classical_layout}

    def run(ops):
        for op in ops:
            if isinstance(op, kir.CondBlock):
                run(op.then_body if _reference_predicate(op.predicate, bits) else op.else_body)
                continue
            if isinstance(op, Gate):
                state.amps = full_gate_matrix(state.n, op) @ state.amps
            elif isinstance(op, Measure):
                bits[op.bit[0]][op.bit[1]] = _reference_settle(state, op.qubit, rng, reset=False)
            elif isinstance(op, kir.Reset):
                _reference_settle(state, op.qubit, rng, reset=True)
            after_op(state)

    run(kernel.body)
    return "".join(str(b) for name, _ in kernel.classical_layout for b in bits[name]), state


WIDE = f"{HEADER}qubit[64] q;\nbit c;\nh q[0];\nc = measure q[0];\n"


class TestResourceLimits:
    def test_wide_kernel_too_large(self):
        with pytest.raises(TooLarge):
            sim.statevector(bound(WIDE.replace("c = measure q[0];\n", "")))
        with pytest.raises(TooLarge):
            sim.sample(bound(WIDE), 10, 0)
        with pytest.raises(TooLarge):
            StateVector.zero(sim.MAX_SIM_QUBITS + 1)

    def test_worker_count_never_changes_counts(self):
        source = f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\nif (c == 1) {{ x q; }}\n"
        bk = bound(source)
        hists = [sim.sample(bk, 400, 7, workers=w).counts for w in (1, 2, 200)]
        assert hists[0] == hists[1] == hists[2]

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "trajectory"])
    def test_shot_cap_checked_before_any_work(self, monkeypatch, dynamic):
        def no_work(*args):
            raise AssertionError("simulated a kernel past MAX_SHOTS")

        for name in ("_trajectory_counts", "_sample_static", "_gates_only_state"):
            monkeypatch.setattr(sim, name, no_work)
        source = f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\n" + ("reset q;\n" if dynamic else "")
        for shots in (sim.MAX_SHOTS + 1, 10**20, 2**64):
            with pytest.raises(TooLarge, match=str(shots)):
                sim.sample(bound(source), shots, 0)
        with pytest.raises(SimError, match="^shots must be >= 1$"):
            sim.sample(bound(source), 0, 0)

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "trajectory"])
    @pytest.mark.parametrize(
        "shots, seed, bad",
        [
            (2.5, 1, "shots"),
            ("10", 1, "shots"),
            (float("nan"), 1, "shots"),
            (None, 1, "shots"),
            (10, 1.5, "seed"),
            (10, None, "seed"),
            (10, "7", "seed"),
        ],
    )
    def test_non_integer_shots_and_seed_rejected_before_any_work(self, monkeypatch, dynamic, shots, seed, bad):
        def no_work(*args):
            raise AssertionError("simulated with a non-integer shots or seed")

        for name in ("_trajectory_counts", "_sample_static", "_gates_only_state"):
            monkeypatch.setattr(sim, name, no_work)
        source = f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\n" + ("reset q;\n" if dynamic else "")
        with pytest.raises(SimError, match=f"^{bad} must be an integer"):
            sim.sample(bound(source), shots, seed)

    def test_integer_like_shots_and_seed_accepted(self):
        bk = bound(f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\n")
        assert sim.sample(bk, np.int64(40), np.uint64(2**64 - 3)).counts == sim.sample(bk, 40, 2**64 - 3).counts

    def test_shot_cap_itself_allowed(self, monkeypatch):
        monkeypatch.setattr(sim, "_sample_static", lambda bound, layout, seed, shots: Counter({1: shots}))
        hist = sim.sample(bound(f"{HEADER}qubit q;\nbit c;\nx q;\nc = measure q;\n"), sim.MAX_SHOTS, 0)
        assert hist.counts == {"1": sim.MAX_SHOTS}

    @pytest.mark.parametrize("workers", [1, 2, 200])
    def test_too_large_raised_before_any_work(self, monkeypatch, workers):
        def no_walk(*args):
            raise AssertionError("walked a kernel past MAX_SIM_QUBITS")

        monkeypatch.setattr(sim, "_trajectory_counts", no_walk)
        with pytest.raises(TooLarge):
            sim.sample(bound(WIDE + "reset q[0];\n"), 100, 0, workers=workers)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFirstDraws:
    """The static sampler's draws: the first output of each shot's stream,
    computed without the stream. A uint64 scalar that overflows warns, and
    fails here."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 9, 2**64 - 1, -12345])
    def test_equals_first_stream_draw(self, seed):
        chunk = sim._SHOT_CHUNK
        shots = np.concatenate(
            [np.arange(5), np.arange(chunk - 3, chunk + 3), np.arange(2 * chunk - 2, 2 * chunk + 2), [2**32 - 1, 2**40]]
        ).astype(np.uint64)
        draws = sim._first_draws(seed, shots)
        assert draws.tolist() == sim.ShotStreams(seed, shots).uniform().tolist()
        assert draws.tolist() == [ScalarStream.for_shot(seed, int(s)).uniform() for s in shots]


def _support_states() -> list[np.ndarray]:
    """States with zeroed amplitudes: at the first and the last basis index,
    in runs, and all but one, each normalised."""
    rng = np.random.default_rng(5)
    states = []
    for n, zeros in [(3, [0, 2, 3, 7]), (3, [1, 4, 5]), (4, list(range(1, 16))), (4, list(range(0, 15))), (5, [])]:
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps[zeros] = 0
        states.append(amps / np.linalg.norm(amps))
    return states


class TestStaticSupport:
    """The static sampler searches only the support of the distribution;
    it must pick the basis index a search of the full cumulative sums
    picks, for every draw: zero, one exactly on a sum, between sums, and at
    or past the last sum, which takes the last basis index of nonzero
    probability."""

    @pytest.mark.parametrize("amps", _support_states(), ids=lambda a: f"n{a.size.bit_length() - 1}-{np.count_nonzero(a)}")
    def test_matches_full_cdf_reference(self, monkeypatch, amps):
        n = amps.size.bit_length() - 1
        probs = amps.real**2 + amps.imag**2
        full = np.cumsum(probs)
        draws = np.concatenate([[0.0], full, (full[:-1] + full[1:]) / 2, [np.nextafter(full[-1], 2.0), 1 - 2**-53, 1.0]])
        monkeypatch.setattr(sim, "_factors", lambda bound: (n, set(range(n)), amps.copy(), [sim._KET0] * n))
        monkeypatch.setattr(sim, "_first_draws", lambda seed, shots: draws[shots.astype(np.intp)])
        kernel = kir.Kernel(n, [("q", n)], [], [("c", n)], [Measure(q, ("c", q)) for q in range(n)])
        hist = sim.sample(kir.BoundKernel(kernel, ()), draws.size, 0)
        idx = np.minimum(np.searchsorted(full, draws, side="right"), np.flatnonzero(probs)[-1])
        keys = ["".join(str((i >> q) & 1) for q in range(n)) for i in idx.tolist()]
        assert hist.counts == dict(Counter(keys))

    def test_draw_past_the_last_sum_reads_a_possible_key(self, monkeypatch):
        # Bernstein-Vazirani, hidden string 1010: the running sums end below
        # 1 - 2^-53, and every other key, 1111 included, has probability 0
        monkeypatch.setattr(sim, "_first_draws", lambda seed, shots: np.full(shots.size, 1 - 2**-53))
        hist = sim.sample(bound(suites._bv_source("1010")), 3, 0)
        assert hist.counts == {"1010": 3}


@st.composite
def static_sampled_kernel(draw) -> kir.Kernel:
    """A static kernel whose lone qubits are often in a basis state: runs of
    x, h, h-pairs (an exact zero in the column) and phases on single
    qubits, swaps, and canonical gates whose controls often fold on lone
    qubits; optionally an entangling chain over every qubit first, so no
    qubit is lone. Untouched qubits stay in |0>. The measures read distinct
    qubits into a register often narrower than them, so two measures may
    write one bit."""
    n = draw(st.integers(1, 6))
    qubit = st.integers(0, n - 1)
    one = st.builds(lambda b, q: [Gate(b, (), (q,), ())], st.sampled_from(["x", "h", "z", "s", "sx"]), qubit)
    pair = st.builds(lambda q: [Gate("h", (), (q,), ())] * 2, qubit)
    swap = st.builds(lambda qs: [Gate("swap", (), tuple(qs[:2]), ())], st.permutations(range(n))) if n > 1 else one
    parts = draw(st.lists(one | pair | swap | st.builds(lambda g: [g], canonical_gate(n)), max_size=10))
    chain = draw(st.booleans()) and n > 1
    body = [Gate("h", (), (0,), ())] + [Gate("x", (), (q + 1,), ((q, kir.POS),)) for q in range(n - 1)] if chain else []
    body += [g for part in parts for g in part]
    measured = draw(st.lists(qubit, min_size=1, max_size=n, unique=True))
    width = draw(st.integers(1, len(measured)))
    body += [Measure(q, ("c", draw(st.integers(0, width - 1)))) for q in measured]
    return kir.Kernel(n, [("q", n)], [], [("c", width)], body)


def _full_state_counts(kernel: kir.Kernel, probs: np.ndarray, draws: np.ndarray) -> dict:
    """Reference static sampler: every draw searched over the running sums
    of `probs`, the full 2^n state's; a draw at or past the last sum takes
    the last basis index of nonzero probability."""
    full = np.cumsum(probs)
    index = np.minimum(np.searchsorted(full, draws, side="right"), np.flatnonzero(probs)[-1])
    width = kernel.classical_layout[0][1]
    counts: dict = {}
    for value in index.tolist():
        bits = ["0"] * width
        for op in kernel.body:
            if isinstance(op, Measure):  # the last measure into a bit wins
                bits[op.bit[1]] = str((value >> op.qubit) & 1)
        key = "".join(bits)
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestFactoredSampler:
    """The static sampler joins lone qubits in a basis state as fixed index
    bits and searches the rest; its histogram must equal the full state's,
    for the shots' own first draws and for draws at or past the last sum."""

    @given(static_sampled_kernel(), st.integers(0, 2**64 - 1))
    def test_matches_full_state_reference(self, kernel, seed):
        bk = kir.BoundKernel(kernel, ())
        amps = sim._gates_only_state(bk).amps
        probs = np.square(amps.real) + np.square(amps.imag)
        full = np.cumsum(probs)
        edges = [np.nextafter(full[-1], 2.0), 1 - 2**-53, 1.0]
        draws = np.concatenate([sim._first_draws(seed, np.arange(300)), edges])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_first_draws", lambda seed, shots: draws[shots.astype(np.intp)])
            hist = sim.sample(bk, draws.size, seed)
        assert hist.counts == _full_state_counts(kernel, probs, draws)


class TestShotStreams:
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1, -12345])
    def test_draws_match_scalar_streams(self, seed):
        chunk = sim._SHOT_CHUNK
        shots = np.array([0, 1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 5])
        streams = sim.ShotStreams(seed, shots)
        scalar = [ScalarStream.for_shot(seed, int(s)) for s in shots]
        for _ in range(4):
            expected = [rng.uniform() for rng in scalar]
            assert streams.uniform().tolist() == expected

    def test_split_rows_and_skip_ahead(self):
        def draws(shot: int, count: int) -> list[float]:
            rng = ScalarStream.for_shot(9, shot)
            return [rng.uniform() for _ in range(count)]

        streams = sim.ShotStreams(9, np.arange(5))
        assert streams.uniform().tolist() == [draws(s, 1)[0] for s in range(5)]
        # a split takes each branch's rows, in any order
        ones, zeros = streams.take(np.array([1, 3, 4])), streams.take(np.array([2, 0]))
        assert ones.uniform().tolist() == [draws(s, 2)[1] for s in (1, 3, 4)]
        assert zeros.uniform().tolist() == [draws(s, 2)[1] for s in (2, 0)]
        # the branches own copies of their rows: the streams taken from did not move
        assert streams.uniform().tolist() == [draws(s, 2)[1] for s in range(5)]
        taken = 2
        for k in (0, 1, 3):  # skipping k steps, then drawing, gives the (k+1)-th draw
            ones.skip(k)
            taken += k + 1
            assert ones.uniform().tolist() == [draws(s, taken)[-1] for s in (1, 3, 4)]


def _per_shot_counts(kernel: kir.Kernel, shots: int, seed: int) -> dict:
    """Reference sampler: every shot simulated on its own from |0...0>."""
    counts: dict = {}
    for shot in range(shots):
        key, _ = _reference_shot(kernel, ScalarStream.for_shot(seed, shot))
        counts[key] = counts.get(key, 0) + 1
    return counts


_REGISTERS = [("c", 2), ("d", 3)]


@st.composite
def predicate(draw) -> kir.Predicate:
    name, width = draw(st.sampled_from(_REGISTERS))
    if draw(st.booleans()):
        return kir.Predicate(name, draw(st.integers(0, width - 1)), "==", draw(st.integers(0, 1)))
    comparator = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "truthy"]))
    return kir.Predicate(name, None, comparator, draw(st.integers(0, (1 << width) - 1)))


def dynamic_ops(n: int, depth: int):
    qubit = st.integers(0, n - 1)
    bit = st.sampled_from([(name, i) for name, width in _REGISTERS for i in range(width)])
    leaf = (
        canonical_gate(n)
        | st.builds(Measure, qubit, bit)
        | st.builds(kir.Reset, qubit)
        | st.builds(kir.Nop)
    )
    if depth > 0:
        inner = dynamic_ops(n, depth - 1)
        leaf = leaf | st.builds(
            kir.CondBlock, predicate(), inner, st.lists(leaf, max_size=3) | st.just([])
        )
    return st.lists(leaf, max_size=6)


@st.composite
def dynamic_kernel(draw) -> kir.Kernel:
    """Mid-circuit measures, resets, re-measured qubits and if/else nested
    two deep over bits and whole registers; the last op is always dynamic."""
    n = draw(st.integers(1, 5))
    body = [Gate("h", (), (q,), ()) for q in range(n)]
    # a distinct angle per qubit, so the first finish window holds unequal
    # matrices and a window applied to the wrong qubits shows
    body += [Gate("ry", (draw(_ANGLES),), (q,), ()) for q in range(n)]
    body += draw(dynamic_ops(n, 2))
    body.append(
        draw(st.builds(kir.Reset, st.integers(0, n - 1)) | st.builds(kir.CondBlock, predicate(), dynamic_ops(n, 1), dynamic_ops(n, 0)))
    )
    body += draw(st.lists(st.builds(Measure, st.integers(0, n - 1), st.sampled_from([("c", 0), ("d", 2)])), max_size=3))
    return kir.Kernel(n, [("q", n)], [], list(_REGISTERS), body)


class TestBranchingSampler:
    @pytest.mark.parametrize("window", [1, sim._WINDOW])
    @given(dynamic_kernel(), st.integers(0, 2**64 - 1))
    @settings(max_examples=max(60, settings().max_examples), deadline=None)  # a larger profile count wins
    def test_matches_per_shot_reference(self, window, kernel, seed):
        assert sim._needs_trajectories(kernel)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_WINDOW", window)
            hist = sim.sample(kir.BoundKernel(kernel, ()), 40, seed, workers=1)
        assert hist.counts == _per_shot_counts(kernel, 40, seed)

    def test_chunk_boundaries_do_not_change_histograms(self, monkeypatch):
        sources = [
            f"{HEADER}qubit[3] q;\nbit[3] c;\nh q;\ncx q[0], q[2];\nc = measure q;\n",
            f"{HEADER}qubit[2] q;\nbit[2] c;\nh q;\nc[0] = measure q[0];\n"
            "if (c[0] == 1) { x q[1]; } else { h q[1]; }\nreset q[0];\nc[1] = measure q[1];\n",
        ]
        kernels = [bound(s) for s in sources]
        before = [sim.sample(bk, 500, 11).counts for bk in kernels]
        monkeypatch.setattr(sim, "_SHOT_CHUNK", 7)
        assert [sim.sample(bk, 500, 11).counts for bk in kernels] == before

    def test_replay_past_the_byte_budget(self, monkeypatch):
        n = 12
        source = f"{HEADER}qubit[{n}] q;\nbit c;\n" + "h q[0];\nc = measure q[0];\n" * 20
        bk = bound(source)
        expected = sim.sample(bk, 256, 3).counts
        state_bytes = 16 << n
        monkeypatch.setattr(sim, "_BRANCH_BYTES", state_bytes)
        tracemalloc.start()
        try:
            counts = sim.sample(bk, 256, 3).counts
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == expected
        assert peak <= 4 * state_bytes


# Every measure and reset reads a qubit of probability 0 or 1: key c = 111, d = 0.
_CERTAIN = (
    f"{HEADER}qubit[3] q;\nbit[3] c;\nbit d;\nx q[0];\nc[0] = measure q[0];\n"
    "if (c[0] == 1) { x q[1]; }\nreset q[0];\ncx q[1], q[2];\nc[1] = measure q[1];\n"
    "c[2] = measure q[2];\nreset q[1];\nd = measure q[1];\n"
)
# Certain outcomes around random ones, with and without a split between them.
_MIXED = (
    f"{HEADER}qubit[3] q;\nbit[2] c;\nbit[2] d;\nx q[0];\nc[0] = measure q[0];\nh q[1];\n"
    "c[1] = measure q[1];\nif (c[1] == 1) { x q[2]; }\nreset q[0];\nd[0] = measure q[2];\n"
    "h q[0];\nd[1] = measure q[0];\nreset q[2];\nc[0] = measure q[2];\nh q[2];\nreset q[2];\n"
)


class TestCertainOutcomes:
    """A measure or reset whose outcome has probability 0 or 1 takes no
    draw; the group's streams skip it before their next real draw, so every
    shot still draws what the per-shot reference draws."""

    def test_no_draw_when_every_outcome_is_certain(self, monkeypatch):
        def no_draw(self):
            raise AssertionError("drew for a certain outcome")

        monkeypatch.setattr(sim.ShotStreams, "uniform", no_draw)
        assert sim.sample(bound(_CERTAIN), 300, 5).counts == {"1110": 300}

    @pytest.mark.parametrize("budget", ["default", "one-state"])
    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    def test_mixed_matches_per_shot_reference(self, monkeypatch, budget, seed):
        bk = bound(_MIXED)
        if budget == "one-state":  # every waiting branch is replayed
            monkeypatch.setattr(sim, "_BRANCH_BYTES", 16 << bk.kernel.qubit_count)
        assert sim.sample(bk, 60, seed).counts == _per_shot_counts(bk.kernel, 60, seed)

    def test_caller_stream_takes_one_draw_per_measure_or_reset(self):
        state, rng, ref = StateVector.zero(2), RngStream(4), RngStream(4)
        assert sim.measure(state, 1, rng) == 0
        sim.reset(state, 0, rng)
        ref.uniform(), ref.uniform()
        key, _ = sim.run_trajectory(bound(_CERTAIN), rng)
        assert key == "1110"
        assert [rng.uniform() for _ in range(3)] == [ref.uniform() for _ in range(9)][-3:]


class TestExpvalZStrings:
    @given(st.integers(0, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_matches_general_path(self, n, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = StateVector(n, amps / np.linalg.norm(amps))
        pauli = "".join(rng.choice(["I", "Z"], size=n))
        transformed = state.copy()
        for q, ch in enumerate(pauli):
            if ch == "Z":
                sim.apply_gate(transformed, Gate("z", (), (q,), ()))
        expected = float(np.vdot(state.amps, transformed.amps).real)
        assert abs(sim.expval_pauli(state, pauli) - expected) <= 1e-12

    def test_no_state_copy(self):
        state = _random_state(3, n=14)
        before = state.amps.copy()
        tracemalloc.start()
        try:
            sim.expval_pauli(state, "ZIZZIIZIIIZZIZ")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.amps.nbytes // 8
        np.testing.assert_array_equal(state.amps, before)


_ONE_QUBIT_BASES = sorted(kir.CANONICAL_BASES - {"swap"})
_DIAGONAL_BASES = ["p", "rz", "s", "t", "z"]


@st.composite
def gate_on(draw, qubits: list[int], bases: list[str], max_controls: int) -> Gate:
    """A gate from `bases` on the listed qubits, with up to max_controls
    controls of mixed polarity."""
    if len(qubits) < 2:
        bases = [b for b in bases if b != "swap"]
    base = draw(st.sampled_from(bases))
    width = 2 if base == "swap" else 1
    order = draw(st.permutations(qubits))
    n_controls = draw(st.integers(0, min(max_controls, len(qubits) - width)))
    controls = tuple(
        (q, draw(st.sampled_from([kir.POS, kir.NEG]))) for q in order[width : width + n_controls]
    )
    angles = tuple(draw(_ANGLES) for _ in range(_ANGLE_COUNT.get(base, 0)))
    return Gate(base, angles, tuple(order[:width]), controls, draw(st.booleans()))


@st.composite
def planned_circuit(draw) -> kir.Kernel:
    """One-qubit prefixes on every qubit, then runs of diagonal gates (any
    adjoint flag, up to 3 mixed-polarity controls) on the entangled qubits,
    broken by non-diagonal gates there and by one-qubit gates anywhere.
    Qubits outside the entangled set stay idle or see one-qubit gates only.
    Every qubit is measured, so the kernel also takes the static sampler."""
    n = draw(st.integers(1, 6))
    entangled = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    anywhere = gate_on(list(range(n)), _ONE_QUBIT_BASES, 0)
    body = draw(st.lists(anywhere, max_size=8))
    runs = st.lists(gate_on(entangled, _DIAGONAL_BASES, 3), min_size=1, max_size=6)
    breaks = st.lists(gate_on(entangled, sorted(kir.CANONICAL_BASES), 2) | anywhere, min_size=1, max_size=2)
    for segment in draw(st.lists(runs | breaks, max_size=6)):
        body += segment
    body += [Measure(q, ("c", q)) for q in range(n)]
    return kir.Kernel(n, [("q", n)], [], [("c", n)], body)


class TestGatesOnlyPlan:
    """The planned build (product-state prefix, pending one-qubit products
    finished by windows, and every gate on more than one qubit, diagonal
    ones included, in its own pass) against the oracle."""

    @pytest.mark.parametrize("window", [1, 2, 3, sim._WINDOW])
    @given(planned_circuit(), st.integers(0, 2**64 - 1))
    @settings(max_examples=max(50, settings().max_examples), deadline=None)  # a larger profile count wins
    def test_statevector_and_static_sample_match_oracle(self, window, kernel, seed):
        gates = kir.Kernel(kernel.qubit_count, kernel.qubit_layout, [], [], [op for op in kernel.body if isinstance(op, Gate)])
        expected = oracle_unitary(gates)[:, 0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_WINDOW", window)
            state = sim.statevector(kir.BoundKernel(gates, ()))
            hist = sim.sample(kir.BoundKernel(kernel, ()), 300, seed)
        np.testing.assert_allclose(state.amps, expected, atol=1e-12)
        cum = np.cumsum(np.abs(expected) ** 2)
        draws = sim.ShotStreams(seed, np.arange(300)).uniform()
        idx = np.minimum(np.searchsorted(cum, draws, side="right"), cum.size - 1)
        n = kernel.qubit_count
        keys = ["".join(str((i >> q) & 1) for q in range(n)) for i in idx.tolist()]
        assert hist.counts == dict(Counter(keys))

    def test_pending_products_flush_before_each_pass(self, monkeypatch):
        # every gate on more than one qubit, diagonal ones included, takes
        # one _apply, just after the pending products of its own qubits; the
        # h on qubit 1 stays pending until the controlled t applies it
        n = 4
        body = [Gate("h", (), (q,), ()) for q in range(n)]
        body += [Gate("z", (), (q + 1,), ((q, kir.POS),)) for q in range(n - 1)]
        body += [Gate("h", (), (1,), ()), Gate("t", (), (1,), ((3, kir.NEG),), True)]
        kernel = kir.Kernel(n, [("q", n)], [], [], body)
        passes = []
        apply = sim._GateBuild._apply
        monkeypatch.setattr(sim._GateBuild, "_apply", lambda b, m, t, c: passes.append((t, c)) or apply(b, m, t, c))
        build = sim._GateBuild(StateVector.zero(n))
        for op in body:
            build.gate(sim.gate_matrix(op), op.targets, op.controls)
        np.testing.assert_allclose(build.finish().amps, oracle_unitary(kernel)[:, 0], rtol=0, atol=1e-12)
        assert passes == [
            ((1,), ()),
            ((0,), ()),
            ((1,), ((0, kir.POS),)),
            ((2,), ()),
            ((2,), ((1, kir.POS),)),
            ((3,), ()),
            ((3,), ((2, kir.POS),)),
            ((1,), ()),
            ((1,), ((3, kir.NEG),)),
        ]

    @pytest.mark.parametrize("base", _DIAGONAL_BASES)
    def test_controlled_diagonal_scales_its_slices_in_place(self, monkeypatch, base):
        # a diagonal gate under mixed-polarity controls is a permutation with
        # no cycle: it scales the controls-fixed slices of the state's own
        # buffer and never reaches a matrix product
        monkeypatch.setattr(sim, "_dense", _no_pass)
        n = 5
        state = _random_state(7, n)
        before = state.amps.copy()
        buffer = state.amps
        op = Gate(base, (0.7,) * _ANGLE_COUNT.get(base, 0), (2,), ((0, kir.POS), (4, kir.NEG)), True)
        sim.apply_gate(state, op)
        assert state.amps is buffer
        np.testing.assert_allclose(state.amps, full_gate_matrix(n, op) @ before, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "block", [[1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [1, 2, 4], []], ids=["lone-q0", "lone-top", "interleaved", "all-lone"]
    )
    def test_lone_qubit_layouts_match_oracle(self, monkeypatch, block):
        # only the block goes through the build; lone qubits join after it
        n = 6
        body = [Gate("ry", (0.3 + 0.4 * q,), (q,), ()) for q in range(n)]
        body += [Gate("rz", (0.5 + 0.2 * q,), (q,), ()) for q in range(n)]
        body += [Gate("x", (), (b,), ((a, kir.POS),)) for a, b in zip(block, block[1:])]
        if block:
            body.append(Gate("p", (0.7,), (block[0],), ((block[-1], kir.NEG),)))
        body += [Gate("h", (), (q,), ()) for q in range(n)] + [Gate("t", (), (q,), (), True) for q in range(n)]
        widths = []
        init = sim._GateBuild.__init__
        monkeypatch.setattr(sim._GateBuild, "__init__", lambda build, state: widths.append(state.n) or init(build, state))
        gates = kir.Kernel(n, [("q", n)], [], [], body)
        state = sim.statevector(kir.BoundKernel(gates, ()))
        assert widths == [len(block)]
        expected = oracle_unitary(gates)[:, 0]
        np.testing.assert_allclose(state.amps, expected, rtol=0, atol=1e-12)
        measured = kir.Kernel(n, [("q", n)], [], [("c", n)], body + [Measure(q, ("c", q)) for q in range(n)])
        hist = sim.sample(kir.BoundKernel(measured, ()), 300, 17)
        draws = sim.ShotStreams(17, np.arange(300)).uniform()
        idx = np.minimum(np.searchsorted(np.cumsum(np.abs(expected) ** 2), draws, side="right"), expected.size - 1)
        assert hist.counts == dict(Counter("".join(str((i >> q) & 1) for q in range(n)) for i in idx.tolist()))

    def test_lone_qubits_never_take_a_full_state_pass(self):
        # a build over all 20 qubits holds the state and its spare: twice
        # the final state's bytes, where the block of 2 qubits needs none
        n = 20
        body = [Gate("h", (), (q,), ()) for q in range(n)] + [Gate("ry", (0.1 * q,), (q,), ()) for q in range(n)]
        body += [Gate("x", (), (n - 1,), ((0, kir.POS),)), Gate("rx", (0.4,), (0,), ())]
        tracemalloc.start()
        try:
            state = sim.statevector(kir.BoundKernel(kir.Kernel(n, [("q", n)], [], [], body), ()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * state.amps.nbytes
        build = sim._GateBuild(StateVector.zero(n))
        for op in body:
            build.gate(sim.gate_matrix(op), op.targets, op.controls)
        np.testing.assert_allclose(state.amps, build.finish().amps, rtol=0, atol=1e-12)


# name -> (base, control polarities); "negctrl" takes any base
_CONTROLLED_SHAPES = {
    "cx": ("x", (kir.POS,)),
    "cz": ("z", (kir.POS,)),
    "cp": ("p", (kir.POS,)),
    "crz": ("rz", (kir.POS,)),
    "ch": ("h", (kir.POS,)),
    "ccx": ("x", (kir.POS, kir.POS)),
    "ctrl-swap": ("swap", (kir.POS,)),
    "swap": ("swap", ()),
    "h": ("h", ()),
    "x": ("x", ()),
    "negctrl": (None, (kir.NEG,)),
}


@st.composite
def controlled_gate(draw, n: int) -> Gate:
    """One of the shapes above on random qubits. A lone h or x turns a
    basis state into a superposition or flips it, and the negctrl shape
    may add a second control of either polarity."""
    base, polarities = _CONTROLLED_SHAPES[draw(st.sampled_from(sorted(_CONTROLLED_SHAPES)))]
    if base is None:
        base = draw(st.sampled_from(sorted(kir.CANONICAL_BASES)))
        polarities += tuple(draw(st.lists(st.sampled_from([kir.POS, kir.NEG]), max_size=1)))
    width = 2 if base == "swap" else 1
    if width > n:
        base, width = "x", 1
    order = draw(st.permutations(range(n)))
    controls = tuple(zip(order[width:], polarities))
    angles = tuple(draw(_ANGLES) for _ in range(_ANGLE_COUNT.get(base, 0)))
    return Gate(base, angles, tuple(order[:width]), controls, draw(st.booleans()))


@st.composite
def basis_control_circuit(draw) -> kir.Kernel:
    """Each qubit starts in |0>, in |1> (x) or in a superposition (ry), then
    maybe takes a phase gate; then controlled gates and swaps on random
    qubits. Their controls meet lone basis states, lone superpositions and
    block qubits; their swaps join two lone qubits or touch the block."""
    n = draw(st.integers(1, 8))
    body = []
    for q in range(n):
        start = draw(st.sampled_from(["0", "1", "superposition"]))
        if start == "1":
            body.append(Gate("x", (), (q,), ()))
        elif start == "superposition":
            body.append(Gate("ry", (draw(_ANGLES),), (q,), ()))
        if draw(st.booleans()):
            base = draw(st.sampled_from(_DIAGONAL_BASES))
            angles = tuple(draw(_ANGLES) for _ in range(_ANGLE_COUNT.get(base, 0)))
            body.append(Gate(base, angles, (q,), (), draw(st.booleans())))
    body += draw(st.lists(controlled_gate(n), min_size=1, max_size=16))
    return kir.Kernel(n, [("q", n)], [], [], body)


def _no_pass(*args):
    raise AssertionError("a gate took a pass over the build's state")


def _forbid_build_passes(monkeypatch) -> None:
    """Make every gate pass of a build raise: `_apply`, which every gate on
    more than one qubit and every lone pending product takes, and
    `_flush_window`, which takes the rest of the pending products."""
    monkeypatch.setattr(sim._GateBuild, "_apply", _no_pass)
    monkeypatch.setattr(sim._GateBuild, "_flush_window", _no_pass)


def _qft_source(n: int, basis: int) -> str:
    lines = [f"{HEADER}qubit[{n}] q;"] + [f"x q[{k}];" for k in range(n) if (basis >> k) & 1]
    for j in reversed(range(n)):
        lines.append(f"h q[{j}];")
        lines += [f"cp(pi/{1 << (j - k)}) q[{k}], q[{j}];" for k in reversed(range(j))]
    lines += [f"swap q[{i}], q[{n - 1 - i}];" for i in range(n // 2)]
    return "\n".join(lines) + "\n"


class TestBasisControls:
    """Controls on lone qubits in a basis state fold out of the plan, and
    swaps of two lone qubits exchange their columns."""

    @given(basis_control_circuit())
    @settings(max_examples=200, deadline=None)
    def test_statevector_matches_oracle(self, kernel):
        state = sim.statevector(kir.BoundKernel(kernel, ()))
        np.testing.assert_allclose(state.amps, oracle_unitary(kernel)[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "body, block",
        [
            ("x q[0];\nh q[1];\ncx q[0], q[1];\n", 0),
            ("h q[1];\ncx q[0], q[1];\n", 0),
            ("x q[0];\nh q[1];\nccx q[0], q[1], q[2];\n", 2),
            ("ry(0.4) q[1];\nnegctrl @ ry(0.9) q[0], q[1];\nnegctrl @ x q[2], q[0];\n", 0),
            ("rz(0.3) q[0];\nh q[1];\nnegctrl @ h q[0], q[1];\ncp(0.5) q[0], q[1];\n", 0),
        ],
        ids=["satisfied", "never-satisfied", "ccx-drops-one", "negctrl", "phased-control"],
    )
    def test_fixed_cases_match_oracle(self, monkeypatch, body, block):
        widths = []
        init = sim._GateBuild.__init__
        monkeypatch.setattr(sim._GateBuild, "__init__", lambda build, state: widths.append(state.n) or init(build, state))
        bound_kernel = bound(f"{HEADER}qubit[3] q;\n{body}")
        state = sim.statevector(bound_kernel)
        assert widths == [block]
        np.testing.assert_allclose(state.amps, oracle_unitary(bound_kernel.kernel)[:, 0], rtol=0, atol=1e-12)

    def test_qft_on_a_basis_state_takes_no_gate_pass(self, monkeypatch):
        n, basis = 16, 0b1011_0011_1000_1101
        _forbid_build_passes(monkeypatch)
        state = sim.statevector(bound(_qft_source(n, basis)))
        dft = np.exp(2j * math.pi * np.arange(1 << n) * basis / (1 << n)) / math.sqrt(1 << n)
        np.testing.assert_allclose(state.amps, dft, rtol=0, atol=1e-12)

    def test_satisfied_cx_takes_no_gate_pass(self, monkeypatch):
        _forbid_build_passes(monkeypatch)
        state = sim.statevector(bound(f"{HEADER}qubit[2] q;\nx q[0];\ncx q[0], q[1];\n"))
        np.testing.assert_array_equal(state.amps, [0, 0, 0, 1])

    def test_only_a_swap_touching_the_block_takes_a_pass(self, monkeypatch):
        swaps = []
        apply = sim._GateBuild._apply

        def spy(build, mat, targets, controls):
            if len(targets) == 2:
                swaps.append(targets)
            apply(build, mat, targets, controls)

        monkeypatch.setattr(sim._GateBuild, "_apply", spy)
        body = "h q[0];\ncx q[0], q[1];\nx q[2];\nswap q[1], q[2];\nx q[3];\nswap q[3], q[4];\n"
        bound_kernel = bound(f"{HEADER}qubit[5] q;\n{body}")
        state = sim.statevector(bound_kernel)
        assert swaps == [(1, 2)]
        np.testing.assert_allclose(state.amps, oracle_unitary(bound_kernel.kernel)[:, 0], rtol=0, atol=1e-12)


def _oracle_state(n: int, ops: list[Gate], amps: np.ndarray | None = None) -> np.ndarray:
    """|0...0> (or `amps`) through the oracle's full-space matrix of each op."""
    if amps is None:
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
    for op in ops:
        amps = full_gate_matrix(n, op) @ amps
    return amps


@functools.cache
def _entangled_start(n: int) -> tuple[tuple[Gate, ...], np.ndarray]:
    """A one-qubit prefix on every qubit, then a ring of cx that entangles
    all of them (its cycles run at every position), and the oracle's state."""
    ops = [Gate("ry", (0.3 + 0.2 * k,), (k,), ()) for k in range(n)]
    ops += [Gate("rz", (0.1 + 0.3 * k,), (k,), ()) for k in range(n)]
    ops += [Gate("x", (), ((k + 1) % n,), ((k, kir.POS),)) for k in range(n)]
    return tuple(ops), _oracle_state(n, ops)


def _spare_cases(q: int, o: int, r: int) -> dict[str, tuple[list[Gate], set[int]]]:
    """Gates on qubit q (with o and r as partners), each with the qubits
    left holding a dense pending product at the end of the build."""
    return {
        "real": ([Gate("h", (), (q,), ())], {q}),
        "complex": ([Gate("rx", (0.9,), (q,), ())], {q}),
        "real-product": ([Gate("h", (), (q,), ()), Gate("ry", (0.4,), (q,), ())], {q}),
        "complex-product": ([Gate("h", (), (q,), ()), Gate("s", (), (q,), ())], {q}),
        "controlled": (
            [Gate("h", (), (q,), ((o, kir.POS),)), Gate("rx", (0.3,), (q,), ((o, kir.NEG), (r, kir.POS)))],
            set(),
        ),
        "cycles": (
            [
                Gate("x", (), (q,), ((o, kir.POS),)),
                Gate("swap", (), (q, o), ()),
                Gate("x", (), (q,), ()),
                Gate("y", (), (o,), ()),
                Gate("x", (), (r,), ((q, kir.POS), (o, kir.NEG))),
                Gate("swap", (), (q, r), ((o, kir.POS),)),
            ],
            set(),
        ),
    }


def _window_count(pending: set[int], width: int) -> int:
    """Products the build's finish applies to the pending qubits: a window
    starts at the lowest pending qubit not yet applied and takes every
    pending qubit less than `width` above it."""
    count, low = 0, None
    for q in sorted(pending):
        if low is None or q >= low + width:
            count, low = count + 1, q
    return count


class TestSpareBuffer:
    """The planned build writes each uncontrolled dense product into a spare
    buffer that then swaps roles with the state, holds each permutation
    cycle's slice in it, and runs a real matrix on the float64 view. Its
    finish applies the pending products by windows, one product each."""

    @pytest.mark.parametrize("window", [1, sim._WINDOW])
    @pytest.mark.parametrize("extra", [None, 1, 3, 4], ids=lambda d: "as-is" if d is None else f"sx-at-q+{d}")
    @pytest.mark.parametrize("kind", sorted(_spare_cases(0, 1, 2)))
    @pytest.mark.parametrize("n", [5, 9])
    def test_every_position_matches_oracle(self, monkeypatch, n, kind, extra, window):
        swaps = []
        dense = sim._dense

        def counted(sub, axis, mat, out):
            swaps.append(sub.size == 1 << n)  # an uncontrolled product, which swaps
            dense(sub, axis, mat, out)

        monkeypatch.setattr(sim, "_dense", counted)
        monkeypatch.setattr(sim, "_WINDOW", window)
        start_ops, start = _entangled_start(n)
        for q in range(n):
            o, r = (q + 1) % n, (q + 3) % n
            ops, pending = _spare_cases(q, o, r)[kind]
            if extra is not None:  # one more pending product, `extra` above q (mod n)
                e = (q + extra) % n
                ops, pending = ops + [Gate("sx", (), (e,), ())], pending | {e}
            swaps.clear()
            state = sim.statevector(kir.BoundKernel(kir.Kernel(n, [("q", n)], [], [], list(start_ops) + ops), ()))
            assert sum(swaps) == _window_count(pending, window)
            assert state.amps.flags.c_contiguous and state.amps.shape == (1 << n,)
            np.testing.assert_allclose(state.amps, _oracle_state(n, ops, start), rtol=0, atol=1e-12)

    def test_results_share_no_buffer(self):
        # a spare that outlived its build would be written by the next build
        n = 6

        def kernel(angle: float, measured: bool) -> kir.BoundKernel:
            gates = [Gate("h", (), (q,), ()) for q in range(n)]
            gates += [Gate("x", (), (q + 1,), ((q, kir.POS),)) for q in range(n - 1)]
            gates += [Gate("ry", (angle * (q + 1),), (q,), ()) for q in range(3)]  # three swaps
            bits = [Measure(q, ("c", q)) for q in range(n)] if measured else []
            return kir.BoundKernel(kir.Kernel(n, [("q", n)], [], [("c", n)] if measured else [], gates + bits), ())

        first = sim.statevector(kernel(0.2, False))
        kept = first.amps.copy()
        second = sim.statevector(kernel(0.7, False))
        sim.sample(kernel(1.3, True), 100, 7)
        assert not np.shares_memory(first.amps, second.amps)
        assert first.amps.tobytes() == kept.tobytes()
        assert not np.allclose(second.amps, kept)
        assert first.amps.flags.c_contiguous and second.amps.flags.c_contiguous


class TestHistogramGoldens:
    """Histograms of a fixed corpus, recorded by scripts/record_goldens.py,
    stay bit-identical for the same (seed, shots)."""

    RECORDED = json.loads((pathlib.Path(__file__).parent / "golden" / "histograms.json").read_text())

    @pytest.mark.parametrize("name", sorted(histogram_corpus()))
    def test_matches_recorded(self, name):
        source = histogram_corpus()[name]
        for seed in HISTOGRAM_SEEDS:
            assert histogram(source, seed) == self.RECORDED[name][str(seed)]
