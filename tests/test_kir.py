import json
import pathlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qasm2cudaq import EMISSION_TARGETS, emit, frontend as fe, kir, sema, sim
from qasm2cudaq.errors import BadParameter, LowerError
from qasm2cudaq.kir import NEG, POS, CondBlock, Gate, Measure, Nop, Reset
from qasm2cudaq.oracle import fidelity_up_to_global_phase

from golden_cases import kir_dump_digests

HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'


def compile_source(source: str) -> kir.Kernel:
    return kir.lower(sema.analyze(fe.parse_source(source)))


def only_call(source: str) -> list[Gate]:
    kernel = compile_source(source)
    assert all(isinstance(op, Gate) for op in kernel.body)
    return kernel.body


class TestCanonicalization:
    def test_ctrl_rz_to_base_plus_control(self):
        (op,) = only_call(f"{HEADER}qubit[2] q;\nctrl @ rz(0.3) q[0], q[1];\n")
        assert op == Gate("rz", (0.3,), (1,), ((0, POS),), False)

    def test_named_controlled_gates_canonicalize(self):
        ops = only_call(
            f"{HEADER}qubit[3] q;\ncx q[0], q[1];\nccx q[0], q[1], q[2];\n"
            "crz(0.5) q[1], q[2];\ncp(0.25) q[0], q[2];\nch q[2], q[0];\n"
            "cy q[0], q[1];\ncz q[1], q[2];\n"
        )
        assert ops[0] == Gate("x", (), (1,), ((0, POS),), False)
        assert ops[1] == Gate("x", (), (2,), ((0, POS), (1, POS)), False)
        assert ops[2] == Gate("rz", (0.5,), (2,), ((1, POS),), False)
        assert ops[3] == Gate("p", (0.25,), (2,), ((0, POS),), False)
        assert ops[4] == Gate("h", (), (0,), ((2, POS),), False)
        assert {op.base for op in ops} <= kir.CANONICAL_BASES

    def test_sdg_tdg_become_adjoint(self):
        ops = only_call(f"{HEADER}qubit q;\nsdg q;\ntdg q;\n")
        assert ops[0] == Gate("s", (), (0,), (), True)
        assert ops[1] == Gate("t", (), (0,), (), True)

    def test_inv_rz_negates_angle(self):
        (op,) = only_call(f"{HEADER}qubit q;\ninv @ rz(0.5) q;\n")
        assert op == Gate("rz", (-0.5,), (0,), (), False)

    def test_double_inv_is_identity_on_op(self):
        (op,) = only_call(f"{HEADER}qubit q;\ninv @ inv @ h q;\n")
        assert op == Gate("h", (), (0,), (), False)

    def test_negctrl(self):
        (op,) = only_call(f"{HEADER}qubit[2] q;\nnegctrl @ x q[0], q[1];\n")
        assert op == Gate("x", (), (1,), ((0, NEG),), False)

    def test_pow_2_s_equals_z(self):
        # oracle: multiply the two s matrices and compare with z
        ops = only_call(f"{HEADER}qubit q;\npow(2) @ s q;\n")
        assert [op.base for op in ops] == ["s", "s"]
        s_mat = np.diag([1, 1j])
        np.testing.assert_allclose(s_mat @ s_mat, np.diag([1, -1]), atol=1e-15)

    def test_pow_zero_erases_op(self):
        kernel = compile_source(f"{HEADER}qubit q;\npow(0) @ x q;\n")
        assert kernel.body == []

    def test_pow_negative_replicates_adjoint(self):
        ops = only_call(f"{HEADER}qubit q;\npow(-2) @ s q;\n")
        assert ops == [Gate("s", (), (0,), (), True)] * 2

    def test_inv_u_swaps_phi_lambda(self):
        (op,) = only_call(f"{HEADER}qubit q;\ninv @ u(0.1, 0.2, 0.3) q;\n")
        assert op == Gate("u", (-0.1, -0.3, -0.2), (0,), (), False)
        # oracle: the matrices must actually be mutual inverses
        forward = sim.gate_matrix(Gate("u", (0.1, 0.2, 0.3), (0,), ()))
        np.testing.assert_allclose(
            sim.gate_matrix(op) @ forward, np.eye(2), atol=1e-15
        )

    def test_inv_symbolic_rotation_keeps_adjoint_flag(self):
        kernel = compile_source(
            f"{HEADER}input float[64] t;\nqubit q;\ninv @ rx(t) q;\n"
        )
        (op,) = kernel.body
        assert op.adjoint and op.angles == (sema.ParamRef(0),)

    def test_ctrl_distributes_over_user_gate(self):
        kernel = compile_source(
            f"{HEADER}gate pair a, b {{ h a; cx a, b; }}\nqubit[3] q;\nctrl @ pair q[2], q[0], q[1];\n"
        )
        assert [op.controls for op in kernel.body] == [((2, POS),), ((2, POS), (0, POS))]


@st.composite
def rotation_case(draw):
    base = draw(st.sampled_from(["rx", "ry", "rz", "p", "h", "s", "t", "sx", "x", "y", "z"]))
    angle = draw(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    return base, angle


class TestModifierAlgebra:
    @given(rotation_case())
    def test_gate_then_inverse_is_identity(self, case):
        base, angle = case
        arg = f"({angle!r})" if base in ("rx", "ry", "rz", "p") else ""
        kernel = compile_source(f"{HEADER}qubit q;\nh q;\n{base}{arg} q;\ninv @ {base}{arg} q;\n")
        state = sim.statevector(kir.bind(kernel, []))
        plus = np.array([1, 1]) / np.sqrt(2)
        assert fidelity_up_to_global_phase(state, plus) >= 1 - 1e-12

    @given(rotation_case(), st.integers(min_value=0, max_value=4))
    def test_pow_k_equals_matrix_power(self, case, k):
        base, angle = case
        arg = f"({angle!r})" if base in ("rx", "ry", "rz", "p") else ""
        kernel = compile_source(f"{HEADER}qubit q;\npow({k}) @ {base}{arg} q;\n")
        state = sim.statevector(kir.bind(kernel, []))
        single = sim.gate_matrix(
            kir.Gate(base, (angle,) if arg else (), (0,), ())
        )
        expected = np.linalg.matrix_power(single, k) @ np.array([1, 0], dtype=complex)
        assert fidelity_up_to_global_phase(state, expected) >= 1 - 1e-12


class TestLower:
    def test_conditional_reset_shape(self):
        kernel = compile_source(
            f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\nif (c == 1) {{ x q; }}\n"
        )
        gate, meas, cond = kernel.body
        assert gate.base == "h"
        assert meas == Measure(0, ("c", 0))
        assert isinstance(cond, CondBlock)
        assert cond.predicate == kir.Predicate("c", 0, "==", 1)
        assert len(cond.then_body) == 1 and cond.else_body == []

    def test_empty_program(self):
        kernel = compile_source("OPENQASM 3.0;\n")
        assert kernel.qubit_count == 0 and kernel.body == []

    def test_barrier_lowers_to_nop(self):
        kernel = compile_source(f"{HEADER}qubit[2] q;\nbarrier q[0], q[1];\n")
        assert kernel.body == [Nop((0, 1))]

    def test_no_static_expansion(self):
        kernel = compile_source(
            f"{HEADER}qubit[2] q;\nbit c;\nh q[0];\nc = measure q[0];\n"
            "if (c == 1) { x q[1]; z q[1]; } else { h q[1]; s q[1]; h q[1]; }\n"
        )
        cond = kernel.body[-1]
        assert len(cond.then_body) == 2
        assert len(cond.else_body) == 3
        assert len(cond.then_body) + len(cond.else_body) == 5

    @given(
        then_size=st.integers(min_value=0, max_value=6),
        else_size=st.integers(min_value=0, max_value=6),
    )
    def test_cond_block_op_count_property(self, then_size, else_size):
        then_ops = " ".join("x q[1];" for _ in range(then_size))
        else_ops = " ".join("z q[1];" for _ in range(else_size))
        else_clause = f" else {{ {else_ops} }}" if else_size else ""
        kernel = compile_source(
            f"{HEADER}qubit[2] q;\nbit c;\nc = measure q[0];\n"
            f"if (c == 1) {{ {then_ops} }}{else_clause}\n"
        )
        cond = kernel.body[-1]
        assert len(cond.then_body) == then_size
        assert len(cond.else_body) == else_size

    def test_def_before_use_enforced(self):
        with pytest.raises(LowerError):
            compile_source(f"{HEADER}qubit q;\nbit c;\nif (c == 1) {{ x q; }}\n")

    def test_def_before_use_whole_register(self):
        with pytest.raises(LowerError):
            compile_source(
                f"{HEADER}qubit[2] q;\nbit[2] c;\nc[0] = measure q[0];\n"
                "if (c == 3) { x q[1]; }\n"
            )

    def test_def_before_use_intersection_of_branches(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\nc = measure q[0];\n"
            "if (c == 1) { d = measure q[1]; }\n"
            "if (d == 1) { x q[0]; }\n"
        )
        with pytest.raises(LowerError):
            compile_source(source)

    def test_def_in_both_branches_counts(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\nc = measure q[0];\n"
            "if (c == 1) { d = measure q[1]; } else { d = measure q[1]; }\n"
            "if (d == 1) { x q[0]; }\n"
        )
        kernel = compile_source(source)
        assert isinstance(kernel.body[-1], CondBlock)

    def test_predicate_rhs_must_fit_register(self):
        with pytest.raises(LowerError):
            compile_source(
                f"{HEADER}qubit[2] q;\nbit[2] c;\nc = measure q;\nif (c == 4) {{ x q[0]; }}\n"
            )

    @pytest.mark.parametrize(
        "pred, bit", [("c == 99999999999999999999999", "c[0]"), ("c[0] >= 2", "c[0]"), ("d[1] != 2", "d[1]")]
    )
    def test_single_bit_predicate_rhs_must_fit_one_bit(self, pred, bit):
        source = f"{HEADER}qubit[2] q;\nbit c;\nbit[2] d;\nc = measure q[0];\nd = measure q;\nif ({pred}) {{ x q[0]; }}\n"
        with pytest.raises(LowerError, match=rf"compares bit {re.escape(bit)} against \d+ \(>= 2\^1\)$"):
            compile_source(source)

    def test_self_referential_measurement_rejected(self):
        with pytest.raises(LowerError):
            compile_source(
                f"{HEADER}qubit q;\nbit c;\nc = measure q;\nif (c == 1) {{ c = measure q; }}\n"
            )

    @pytest.mark.parametrize(
        "program, message",
        [
            ("bit c;\nif (c == 1) { x q; }", "predicate at 5:1 reads c[0] before any measurement writes it"),
            ("bit c;\nc = measure q;\n  if (c == 2) { x q; }", "predicate at 6:3 compares bit c[0] against 2 (>= 2^1)"),
            (
                "bit[2] c;\nqubit[2] r;\nc = measure r;\nif (c == 4) { x q; }",
                "predicate at 7:1 compares register 'c' of width 2 against 4 (>= 2^2)",
            ),
            (
                "bit c;\nc = measure q;\nh q; if (c) { c = measure q; }",
                "conditional at 6:6 measures into a bit its own predicate reads",
            ),
        ],
        ids=["read-before-write", "bit-rhs", "register-rhs", "self-write"],
    )
    def test_predicate_messages_locate_the_if(self, program, message):
        with pytest.raises(LowerError) as exc:
            compile_source(f"{HEADER}qubit q;\n{program}\n")
        assert str(exc.value) == message

    def test_nested_cond_blocks(self):
        kernel = compile_source(
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\n"
            "c = measure q[0];\nd = measure q[1];\n"
            "if (c == 1) { if (d == 1) { x q[0]; } }\n"
        )
        outer = kernel.body[-1]
        assert isinstance(outer.then_body[0], CondBlock)


class TestBind:
    def test_bind_does_not_relower(self, monkeypatch):
        kernel = compile_source(
            f"{HEADER}input array[float[64], 2] theta;\nqubit q;\nrx(theta[0]) q;\n"
        )

        def no_compile(*args):
            raise AssertionError("bind ran a compile stage")

        for module, name in ((fe, "tokenize"), (fe, "parse"), (sema, "analyze"), (kir, "lower")):
            monkeypatch.setattr(module, name, no_compile)
        bound = kir.bind(kernel, [0.1, 0.2])
        assert bound.kernel is kernel
        assert bound.values == (0.1, 0.2)

    def test_bind_empty(self):
        kernel = compile_source(f"{HEADER}qubit q;\nh q;\n")
        assert kir.bind(kernel, []).values == ()

    def test_bind_wrong_arity(self):
        kernel = compile_source(
            f"{HEADER}input array[float[64], 2] theta;\nqubit q;\nrx(theta[0]) q;\n"
        )
        # a value count, not a source error: no position in the text
        with pytest.raises(BadParameter) as exc:
            kir.bind(kernel, [0.1])
        assert str(exc.value) == "kernel takes 2 parameter value(s), got 1"

    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"), float("inf"), float("-inf"), "x", 1 + 2j, None, 10**400, 10**5000,
            "2.5", b"1", True, np.bool_(True),
        ],
        ids=[
            "nan", "inf", "-inf", "str", "complex", "none", "overflow", "huge-int",
            "numeric-str", "bytes", "bool", "numpy-bool",
        ],
    )
    def test_bind_rejects_bad_value(self, bad):
        kernel = compile_source(
            f"{HEADER}input float[64] phi;\ninput array[float[64], 2] theta;\n"
            "qubit q;\nrx(theta[0]) q;\nry(phi) q;\n"
        )
        with pytest.raises(BadParameter, match=r"'theta\[1\]'"):
            kir.bind(kernel, [0.3, 0.1, bad])
        with pytest.raises(BadParameter, match="'phi'") as err:
            kir.bind(kernel, [bad, 0.1, 0.2])
        if type(bad) is not float:  # every value but a non-finite float is named by its type
            assert str(err.value).endswith(f"({type(bad).__name__})")

    def test_bind_accepts_real_numbers(self):
        kernel = compile_source(f"{HEADER}input array[float[64], 5] t;\nqubit q;\nrx(t[0]) q;\n")
        bound = kir.bind(kernel, [np.float32(0.5), np.int64(2), np.float64(-1.5), Fraction(1, 4), 3])
        assert bound.values == (0.5, 2.0, -1.5, 0.25, 3.0)
        assert all(type(v) is float for v in bound.values)

    def test_param_name_of_each_slot(self):
        kernel = compile_source(
            f"{HEADER}input float[64] phi;\ninput array[float[64], 3] theta;\ninput float[64] psi;\nqubit q;\n"
        )
        names = [kernel.param_name(slot) for slot in range(kernel.total_params)]
        assert names == ["phi", "theta[0]", "theta[1]", "theta[2]", "psi"]
        for slot in (-1, 5):
            with pytest.raises(IndexError):
                kernel.param_name(slot)
        with pytest.raises(IndexError):
            compile_source(f"{HEADER}qubit q;\n").param_name(0)

    def test_emit_and_bind_do_not_span_a_large_input(self):
        # a slot is named only where it is printed or reported, so neither
        # emitter nor a wrong-count bind builds a name per element
        kernel = compile_source(f"{HEADER}input array[float[64], 1000000] theta;\nqubit q;\nrz(theta[999999]) q;\n")
        tracemalloc.start()
        try:
            texts = [emit(kernel, target).text for target in EMISSION_TARGETS]
            with pytest.raises(BadParameter) as exc:
                kir.bind(kernel, [0.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20
        assert all("theta[999999]" in text for text in texts)
        assert str(exc.value) == "kernel takes 1000000 parameter value(s), got 1"


class TestDump:
    def test_stable_dump(self):
        kernel = compile_source(
            f"{HEADER}input array[float[64], 1] t;\nqubit[2] q;\nbit c;\n"
            "ctrl @ rx(t[0]) q[0], q[1];\nsdg q[0];\nbarrier;\n"
            "c = measure q[0];\nif (c) { x q[1]; } else { z q[1]; }\nreset q[0];\n"
        )
        assert kir.dump(kernel) == (
            "kernel qubits=2 params=t:1 classical=c:1\n"
            "gate rx(param0) q1 +q0\n"
            "gate s q0 adj\n"
            "nop\n"
            "measure q0 -> c[0]\n"
            "cond c[0]\n"
            "then\n"
            "  gate x q1\n"
            "else\n"
            "  gate z q1\n"
            "end\n"
            "reset q0\n"
        )

    def test_corpus_dump_digests(self):
        # recorded by scripts/record_goldens.py; pins every op lowering
        # builds, including those no target renders (a barrier's qubits)
        path = pathlib.Path(__file__).parent / "golden" / "kir_dump_digests.json"
        assert kir_dump_digests() == json.loads(path.read_text(encoding="utf-8"))
