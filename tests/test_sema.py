import itertools
import json
import math
import pathlib
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qasm2cudaq import frontend as fe, kir, sema, sim
from qasm2cudaq.errors import (
    ArityMismatch,
    DivByZero,
    DuplicateQubitArg,
    IndexOutOfRange,
    NonConstLoopBound,
    NonFiniteConst,
    NotConst,
    ProgramTooLarge,
    RecursiveGateDef,
    Redefinition,
    SemaError,
    UndefinedName,
    UnsupportedConstruct,
)
from qasm2cudaq.sema import POS, Gate, ParamRef, SymbolKind

from conftest import EXPANSION_PROBES, PROBE_HEADER
from golden_cases import error_texts


def analyze(source: str) -> sema.ValidatedProgram:
    return sema.analyze(fe.parse_source(source))


def gate(base: str, targets: tuple, controls: tuple = (), angles: tuple = ()) -> Gate:
    return Gate(base, angles, targets, tuple((q, POS) for q in controls))


HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'


class TestConstEval:
    def setup_method(self):
        self.symbols = {}

    def eval(self, text: str):
        expr = fe.parse_source(f"{HEADER}qubit q;\nrz({text}) q;").statements[-1].args[0]
        return sema.const_eval(expr, self.symbols)

    def test_pi_over_two(self):
        assert self.eval("pi/2") == 1.5707963267948966

    def test_integer_arithmetic(self):
        assert self.eval("3*2+1") == 7
        assert isinstance(self.eval("3*2+1"), int)

    def test_exact_int_division_stays_int(self):
        assert self.eval("4/2") == 2
        assert isinstance(self.eval("4/2"), int)
        assert self.eval("3/2") == 1.5

    def test_unary_minus(self):
        assert self.eval("-pi") == -math.pi

    def test_div_by_zero(self):
        with pytest.raises(DivByZero):
            self.eval("1/0")

    def test_an_error_outside_analyze_holds_its_token_index(self):
        # only analyze locates a span; a direct caller can with the stream
        ast = fe.parse_source(f"{HEADER}qubit q;\nrz(1/0) q;")
        with pytest.raises(DivByZero) as exc:
            sema.const_eval(ast.statements[-1].args[0], self.symbols)
        span = exc.value.span
        assert str(exc.value) == f"semantic error at token {span}: division by zero in constant expression"
        assert ast.tokens.position(span) == (4, 4)

    def test_runtime_input_is_not_const(self):
        vp = analyze(f"{HEADER}input float[64] theta;\nqubit q;\nrz(0.1) q;")
        expr = fe.NamedRef("theta", None, (1, 1))
        with pytest.raises(NotConst):
            sema.const_eval(expr, vp.symbols)


class TestClassification:
    def test_three_way_classification(self):
        vp = analyze(
            f"{HEADER}const float a = pi/2;\ninput float[64] theta;\n"
            "qubit[2] q;\nbit[2] c;\n"
        )
        assert vp.symbols["a"].kind is SymbolKind.COMPILE_TIME_CONST
        assert vp.symbols["a"].const_value == math.pi / 2
        assert vp.symbols["theta"].kind is SymbolKind.RUNTIME_INPUT
        assert vp.symbols["theta"].const_value is None
        assert vp.symbols["q"].kind is SymbolKind.QUBIT_REGISTER
        assert vp.symbols["c"].kind is SymbolKind.CLASSICAL_REGISTER

    def test_param_layout_order_is_declaration_order(self):
        vp = analyze(
            f"{HEADER}input array[float[64], 2] beta;\ninput float[64] alpha;\nqubit q;\n"
            "rx(beta[1]) q;\nrz(alpha) q;\n"
        )
        assert [(p.name, p.count) for p in vp.param_layout] == [("beta", 2), ("alpha", 1)]
        calls = [s for s in vp.statements if isinstance(s, sema.ResolvedCall)]
        assert calls[0].ops == [gate("rx", (0,), angles=(ParamRef(1),))]
        assert calls[1].ops == [gate("rz", (0,), angles=(ParamRef(2),))]

    def test_every_runtime_input_in_layout_once(self):
        vp = analyze(f"{HEADER}input float[64] a;\ninput array[float[64], 3] b;\nqubit q;\n")
        names = [p.name for p in vp.param_layout]
        assert names == ["a", "b"]
        assert sum(p.count for p in vp.param_layout) == 4

    def test_const_int_from_an_exact_double_quotient(self):
        value = analyze(f"{HEADER}const int k = 4.0/2;\n").symbols["k"].const_value
        assert value == 2 and type(value) is int

    def test_const_angle_folds_to_literal(self):
        vp = analyze(f"{HEADER}const float a = pi/2;\nqubit q;\nrz(a) q;\n")
        call = vp.statements[0]
        assert call.ops == [gate("rz", (0,), angles=(1.5707963267948966,))]

    def test_symbolic_param_ref(self):
        vp = analyze(f"{HEADER}input array[float[64], 2] theta;\nqubit q;\nrx(theta[0]) q;\n")
        assert vp.statements[0].ops == [gate("rx", (0,), angles=(ParamRef(0),))]

    def test_arithmetic_on_runtime_param_rejected(self):
        with pytest.raises(NotConst):
            analyze(f"{HEADER}input float[64] theta;\nqubit q;\nrx(theta*2) q;\n")


class TestErrors:
    def test_duplicate_qubit_arg(self):
        with pytest.raises(DuplicateQubitArg):
            analyze(f"{HEADER}qubit[2] q;\ncx q[0], q[0];\n")

    def test_undefined_name(self):
        with pytest.raises(UndefinedName):
            analyze(f"{HEADER}h q;\n")

    def test_undefined_gate_without_include(self):
        with pytest.raises(UndefinedName) as exc:
            analyze("OPENQASM 3.0;\nqubit q;\nh q;\n")
        assert "stdgates" in str(exc.value)

    def test_redefinition(self):
        with pytest.raises(Redefinition):
            analyze(f"{HEADER}qubit q;\nbit q;\n")

    @pytest.mark.parametrize("exponent", ["0.5", "pi", "1/2", "-3/2"])
    def test_pow_exponent_constant_not_integer(self, exponent):
        # a compile-time constant, so a plain SemaError and not NotConst
        with pytest.raises(SemaError) as exc:
            analyze(f"{HEADER}qubit q;\npow({exponent}) @ h q;\n")
        assert type(exc.value) is SemaError
        assert "pow exponent must be an integer, got" in str(exc.value)

    @pytest.mark.parametrize(
        "lines, exc_type, detail",
        [
            ("input array[float[64], 0] t;", SemaError, "3:1: input 't' must have at least one element"),
            ("const int k = 5/2.0;", SemaError, "3:1: const int 'k' initializer is not an integer"),
            ("gate h a { x a; }", Redefinition, "3:1: 'h' shadows a standard gate"),
            ("gate g a, a { x a; }", Redefinition, "3:1: duplicate formal name in gate 'g'"),
            ("gate g(t, t) a { rz(t) a; }", Redefinition, "3:1: duplicate formal name in gate 'g'"),
            ("const float f = 1;\nqubit q;\nf q;", SemaError, "5:1: 'f' is a compile-time-const, not a gate"),
            ("qubit q;\nbit c;\nif (c == -1) { x q; }", SemaError, "5:5: comparison against a negative value"),
            # the product overflows a double before the result is checked
            ("const int k = " + "9" * 400 + ";\nconst float a = k * 1.5;", NonFiniteConst, "4:17: constant expression folds to inf"),
        ],
        ids=["empty-input-array", "inexact-const-int", "shadowed-builtin", "duplicate-qubit-formal",
             "duplicate-angle-formal", "const-called", "negative-comparison", "int-times-double-overflow"],
    )
    def test_error_text(self, lines, exc_type, detail):
        with pytest.raises(exc_type) as exc:
            analyze(f"{HEADER}{lines}\n")
        assert type(exc.value) is exc_type
        assert str(exc.value) == f"semantic error at {detail}"

    def test_pow_exponent_not_constant(self):
        with pytest.raises(NotConst) as exc:
            analyze(f"{HEADER}input float[64] t;\nqubit q;\npow(t) @ h q;\n")
        assert "pow exponent must be a compile-time integer" in str(exc.value)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            analyze(f"{HEADER}qubit[2] q;\nh q[2];\n")

    def test_arity_mismatch_angles(self):
        with pytest.raises(ArityMismatch):
            analyze(f"{HEADER}qubit q;\nrz q;\n")

    def test_arity_mismatch_qubits(self):
        with pytest.raises(ArityMismatch):
            analyze(f"{HEADER}qubit[2] q;\ncx q[0];\n")

    def test_modifier_consumes_operand(self):
        with pytest.raises(ArityMismatch):
            analyze(f"{HEADER}qubit q;\nctrl @ x q[0];\n")

    def test_non_const_loop_bound(self):
        with pytest.raises(NonConstLoopBound):
            analyze(
                f"{HEADER}input float[64] t;\nqubit[2] q;\n"
                "for int i in [0:t] { h q[0]; }\n"
            )

    def test_recursive_gate_def(self):
        with pytest.raises(RecursiveGateDef):
            analyze(f"{HEADER}qubit q;\ngate g a {{ g a; }}\ng q;\n")

    def test_mutually_recursive_gates_rejected(self):
        # forward references are undefined names, so direct self-recursion is
        # the only representable cycle; a gate calling itself via another gate
        with pytest.raises((RecursiveGateDef, UndefinedName)):
            analyze(f"{HEADER}qubit q;\ngate f a {{ g a; }}\ngate g a {{ f a; }}\nf q;\n")

    @pytest.mark.parametrize("depth", [fe.MAX_NESTING, fe.MAX_NESTING + 1, 600])
    def test_gate_definition_chain_depth(self, depth):
        # g{k} calls g{k-1}: inlining g{depth-1} nests `depth` definitions
        source = HEADER + "gate g0 a { x a; }\n" + "".join(
            f"gate g{k} a {{ g{k - 1} a; }}\n" for k in range(1, depth)
        ) + f"qubit q;\ng{depth - 1} q;\n"
        if depth <= fe.MAX_NESTING:
            assert len(analyze(source).statements) == 1
        else:
            with pytest.raises(ProgramTooLarge):
                analyze(source)

    def test_program_too_large(self):
        with pytest.raises(ProgramTooLarge):
            analyze(
                f"{HEADER}qubit q;\n"
                "for int i in [0:1100] { for int j in [0:1100] { h q; } }\n"
            )

    @pytest.mark.parametrize("block", ["if (c) {{ {} }}", "for int i in [0:1] {{ {} }}"], ids=["if", "for"])
    @pytest.mark.parametrize(
        "decl", ["qubit r;", "bit d;", "input float[64] a;", "const int k = 1;", "gate g a { h a; }"]
    )
    def test_declarations_not_allowed_in_blocks(self, block, decl):
        # the parser rejects them, at the declaration's first token
        statement = block.format(decl)
        with pytest.raises(UnsupportedConstruct) as exc:
            analyze(f"{HEADER}qubit q;\nbit c;\nh q;\nc = measure q;\n{statement}\n")
        keyword, col = decl.split()[0], statement.index(decl) + 1
        assert str(exc.value) == f"parse error at 7:{col}: construct not supported: {keyword} declaration inside a block"

    def test_analyze_alone_locates_its_error(self):
        ast = fe.parse_source(f"{HEADER}qubit[2] q;\nh q[2];\n")
        for _ in range(2):  # the stream's positions, once built, serve again
            with pytest.raises(IndexOutOfRange) as exc:
                sema.analyze(ast)
            assert exc.value.span == (4, 3)
            assert str(exc.value) == "semantic error at 4:3: index 2 out of range for qubit register 'q' of size 2"

    def test_zero_step_rejected(self):
        with pytest.raises(NonConstLoopBound):
            analyze(f"{HEADER}qubit q;\nfor int i in [0:0:3] {{ h q; }}\n")



# Each `*` of a 600-digit integer by itself doubles its digits, so the first
# product already has more than MAX_INT_DIGITS.
_NINES = "9" * 600
_POWERS = f"const int k = {_NINES};\nconst int m = k*k*k*k*k*k*k*k;\n"
_PAST_THE_DIGITS = "constant expression folds to an integer of more than 640 digits"


class TestFoldedIntegers:
    """Constant arithmetic folds no integer of more digits than a literal may
    have, so every integer a text formats prints under any int_max_str_digits,
    and a chain of squarings stops at its first."""

    def test_comparison_against_a_huge_constant(self):
        # unbounded, it compiled, and kir.dump and the builder emitter raised ValueError printing m
        source = HEADER + _POWERS + "qubit[20000] q;\nbit[20000] c;\nc = measure q;\nif (c == m) { x q[0]; }\n"
        with pytest.raises(NonFiniteConst) as exc:
            kir.compile_source(source)
        assert str(exc.value) == f"semantic error at 4:15: {_PAST_THE_DIGITS}"

    @pytest.mark.parametrize("lines", [3, 16])
    def test_a_squaring_chain_raises_at_its_first_square(self, lines):
        # each line doubles the digits; unbounded, 16 lines took minutes
        chain = "".join(f"const int a{i + 1} = a{i} * a{i};\n" for i in range(lines))
        started = time.process_time()
        with pytest.raises(NonFiniteConst) as exc:
            analyze(f"{HEADER}const int a0 = {_NINES};\n{chain}qubit q;\n")
        assert time.process_time() - started < 1.0
        assert str(exc.value) == f"semantic error at 4:16: {_PAST_THE_DIGITS}"

    @pytest.mark.parametrize(
        "expr, folds",
        [("+ 0", True), ("+ 1", False), ("* -1", True), ("* -1 - 1", False), ("* 10 / 10", False)],
    )
    def test_the_bound_is_the_literal_digits(self, expr, folds):
        source = f"{HEADER}const int k = {'9' * fe.MAX_INT_DIGITS} {expr};\nqubit q;\n"
        if folds:
            assert len(str(abs(analyze(source).symbols["k"].const_value))) == fe.MAX_INT_DIGITS
        else:
            with pytest.raises(NonFiniteConst) as exc:
                analyze(source)
            assert str(exc.value).endswith(_PAST_THE_DIGITS)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int_max_str_digits limit")
    def test_the_largest_fold_formats_at_the_lowest_digit_limit(self):
        # 640, the least nonzero limit the interpreter accepts, still prints a 640-digit index
        k = int("9" * 320) ** 2
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(IndexOutOfRange) as exc:
                analyze(f"{HEADER}const int k = {'9' * 320} * {'9' * 320};\nqubit q;\nx q[k];\n")
            text = str(exc.value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == f"semantic error at 5:3: index {k} out of range for qubit register 'q' of size 1"

class TestUnrolling:
    def test_two_iteration_unroll(self):
        vp = analyze(f"{HEADER}qubit[2] q;\nfor int i in [0:1] {{ h q[i]; }}\n")
        assert [s.ops for s in vp.statements] == [[gate("h", (0,))], [gate("h", (1,))]]

    def test_inclusive_ends_and_step(self):
        vp = analyze(f"{HEADER}qubit[5] q;\nfor int i in [0:2:4] {{ x q[i]; }}\n")
        assert [s.ops for s in vp.statements] == [[gate("x", (q,))] for q in (0, 2, 4)]

    def test_negative_step(self):
        vp = analyze(f"{HEADER}qubit[3] q;\nfor int i in [2:-1:0] {{ x q[i]; }}\n")
        assert [s.ops for s in vp.statements] == [[gate("x", (q,))] for q in (2, 1, 0)]

    def test_empty_range(self):
        vp = analyze(f"{HEADER}qubit q;\nfor int i in [3:2] {{ h q; }}\n")
        assert vp.statements == []

    def test_loop_variables_shadow_and_are_restored(self):
        vp = analyze(
            f"{HEADER}qubit q;\nconst int k = 5;\n"
            "for int k in [0:1] { for int k in [2:3] { rz(k) q; } rz(k) q; }\nrz(k) q;\n"
        )
        assert [s.ops[0].angles for s in vp.statements] == [(a,) for a in (2.0, 3.0, 0.0, 2.0, 3.0, 1.0, 5.0)]
        assert vp.symbols["k"].const_value == 5
        with pytest.raises(UndefinedName):
            analyze(f"{HEADER}qubit q;\nfor int i in [0:1] {{ h q; }}\nrz(i) q;\n")
        # An invariant loop (its body never names `k`) returns early after
        # its first iteration; it restores `k` all the same, at top level
        # and inside an iterating loop over `k`.
        vp = analyze(
            f"{HEADER}qubit q;\nconst int k = 5;\n"
            "for int k in [0:1] { h q; }\nrz(k) q;\n"
            "for int k in [0:1] { for int k in [0:2] { x q; } rz(k) q; }\nrz(k) q;\n"
        )
        ops = [s.ops[0] for s in vp.statements]
        assert [g.base for g in ops] == ["h", "h", "rz"] + (["x"] * 3 + ["rz"]) * 2 + ["rz"]
        assert [g.angles[0] for g in ops if g.base == "rz"] == [5.0, 0.0, 1.0, 5.0]

    def test_no_for_statement_remains(self):
        vp = analyze(
            f"{HEADER}qubit[4] q;\nbit c;\n"
            "for int i in [0:1] { for int j in [2:3] { cx q[i], q[j]; } }\n"
            "c = measure q[0];\n"
            "if (c) { for int i in [0:3] { h q[i]; } }\n"
        )

        def scan(stmts):
            for s in stmts:
                assert not isinstance(s, fe.ForStatement)
                if isinstance(s, sema.ResolvedIf):
                    scan(s.then_body)
                    scan(s.else_body)

        scan(vp.statements)
        calls = [s for s in vp.statements if isinstance(s, sema.ResolvedCall)]
        assert [c.ops for c in calls] == [[gate("x", (t,), (c,))] for c, t in [(0, 2), (0, 3), (1, 2), (1, 3)]]

    @given(
        start=st.integers(min_value=-4, max_value=4),
        extent=st.integers(min_value=0, max_value=8),
        pattern=st.lists(st.sampled_from(["h", "s", "x"]), min_size=1, max_size=3),
    )
    def test_unroll_equivalence_with_hand_expansion(self, start, extent, pattern):
        stop = start + extent
        body = " ".join(f"{g} q[0];" for g in pattern)
        looped = f"{HEADER}qubit q;\nfor int i in [{start}:{stop}] {{ {body} }}\n"
        flat = f"{HEADER}qubit q;\n" + "\n".join(
            f"{g} q[0];" for _ in range(start, stop + 1) for g in pattern
        )
        k_loop = kir.lower(analyze(looped))
        k_flat = kir.lower(analyze(flat))
        a = sim.statevector(kir.bind(k_loop, []))
        b = sim.statevector(kir.bind(k_flat, []))
        np.testing.assert_allclose(a.amps, b.amps, atol=1e-12)


class TestBroadcastAndInlining:
    def test_single_qubit_broadcast(self):
        vp = analyze(f"{HEADER}qubit[3] q;\nh q;\n")
        assert [s.ops for s in vp.statements] == [[gate("h", (q,))] for q in (0, 1, 2)]

    def test_two_register_zip(self):
        vp = analyze(f"{HEADER}qubit[2] a;\nqubit[2] b;\ncx a, b;\n")
        assert [s.ops for s in vp.statements] == [[gate("x", (2,), (0,))], [gate("x", (3,), (1,))]]

    def test_mixed_broadcast_register_and_single(self):
        vp = analyze(f"{HEADER}qubit[2] a;\nqubit t;\ncx a, t;\n")
        assert [s.ops for s in vp.statements] == [[gate("x", (2,), (0,))], [gate("x", (2,), (1,))]]

    def test_width_mismatch_rejected(self):
        with pytest.raises(ArityMismatch):
            analyze(f"{HEADER}qubit[2] a;\nqubit[3] b;\ncx a, b;\n")

    def test_register_measure_expansion(self):
        vp = analyze(f"{HEADER}qubit[2] q;\nbit[2] c;\nc = measure q;\n")
        assert [(s.qubit, s.bit) for s in vp.statements] == [(0, ("c", 0)), (1, ("c", 1))]

    def test_gate_inlining_substitutes_actuals(self):
        vp = analyze(
            f"{HEADER}gate pair a, b {{ h a; cx a, b; }}\nqubit[2] q;\npair q[1], q[0];\n"
        )
        assert [s.ops for s in vp.statements] == [[gate("h", (1,))], [gate("x", (0,), (1,))]]

    def test_nested_inlining(self):
        vp = analyze(
            f"{HEADER}gate pair a, b {{ h a; cx a, b; }}\n"
            "gate twice a, b { pair a, b; pair a, b; }\n"
            "qubit[2] q;\ntwice q[0], q[1];\n"
        )
        pair = [[gate("h", (0,))], [gate("x", (1,), (0,))]]
        assert [s.ops for s in vp.statements] == pair * 2

    def test_inline_with_angle_formal(self):
        vp = analyze(f"{HEADER}gate turn(t) a {{ rz(t) a; p(t/2) a; }}\nqubit q;\nturn(pi) q;\n")
        assert vp.statements[0].ops == [gate("rz", (0,), angles=(math.pi,))]
        assert vp.statements[1].ops == [gate("p", (0,), angles=(math.pi / 2,))]

    def test_inline_param_formal_must_be_bare(self):
        source = (
            f"{HEADER}input float[64] t;\ngate turn(x) a {{ rz(x/2) a; }}\nqubit q;\nturn(t) q;\n"
        )
        with pytest.raises(NotConst):
            analyze(source)

    def test_inline_param_formal_bare_ok(self):
        vp = analyze(
            f"{HEADER}input float[64] t;\ngate turn(x) a {{ rz(x) a; }}\nqubit q;\nturn(t) q;\n"
        )
        assert vp.statements[0].ops == [gate("rz", (0,), angles=(ParamRef(0),))]

    def test_control_collision_after_inlining(self):
        with pytest.raises(DuplicateQubitArg):
            analyze(f"{HEADER}gate me a {{ x a; }}\nqubit[2] q;\nctrl @ me q[0], q[0];\n")


def lowered_ops(source: str) -> int:
    return len(kir.lower(analyze(source)).body)


class TestExpansionBudget:
    @pytest.mark.parametrize("name", sorted(EXPANSION_PROBES))
    def test_probe_raises_before_building(self, name):
        start = time.perf_counter()
        with pytest.raises(ProgramTooLarge):
            analyze(EXPANSION_PROBES[name])
        assert time.perf_counter() - start < 0.1

    def test_pow_counts_its_replicas(self, monkeypatch):
        monkeypatch.setattr(sema, "UNROLL_CAP", 1000)
        assert lowered_ops(PROBE_HEADER + "pow(1000) @ x q;\n") == 1000
        assert lowered_ops(PROBE_HEADER + "pow(-500) @ s q;\npow(0) @ h q;\nx q;\n") == 501
        with pytest.raises(ProgramTooLarge):
            analyze(PROBE_HEADER + "x q;\npow(1000) @ x q;\n")
        with pytest.raises(ProgramTooLarge):
            analyze(PROBE_HEADER + "gate g a { pow(400) @ x a; }\npow(3) @ g q;\n")

    def test_sibling_bodies_share_the_budget(self, monkeypatch):
        monkeypatch.setattr(sema, "UNROLL_CAP", 1000)
        # the pow exponent names a formal, so only the built body shows its cost
        gates = "gate g(k) a { pow(k) @ x a; }\ngate f a { g(600) a; g(600) a; }\n"
        with pytest.raises(ProgramTooLarge):
            analyze(PROBE_HEADER + gates + "f q;\n")
        assert lowered_ops(PROBE_HEADER + gates.replace("600", "500") + "f q;\n") == 1000

    def test_empty_iterations_count_one_each(self, monkeypatch):
        monkeypatch.setattr(sema, "UNROLL_CAP", 1000)
        loop = "for int i in [1:600] { }\n"
        assert analyze(PROBE_HEADER + loop).statements == []
        with pytest.raises(ProgramTooLarge):
            analyze(PROBE_HEADER + loop * 2)
        # an iteration whose only statement is an empty loop still counts 1
        with pytest.raises(ProgramTooLarge):
            analyze(PROBE_HEADER + "for int i in [1:600] { for int j in [1:0] { } }\n" * 2)

    def test_loop_bound_is_checked_before_the_first_iteration(self, monkeypatch):
        monkeypatch.setattr(sema, "UNROLL_CAP", 1000)
        # `nope` is undefined: reaching the body raises UndefinedName, so
        # ProgramTooLarge shows the loop was refused before it, and
        # UndefinedName that it was let in
        for loop, too_large in [
            ("[0:1000]", True), ("[1:1000]", False),
            ("[3000:-3:0]", True), ("[2999:-3:0]", False),
        ]:
            source = PROBE_HEADER + f"for int i in {loop} {{ nope q; }}\n"
            with pytest.raises(ProgramTooLarge if too_large else UndefinedName):
                analyze(source)
        # an if counts 1 plus its bodies
        with pytest.raises(ProgramTooLarge):
            analyze(PROBE_HEADER + "for int i in [0:500] { if (c) { nope q; } }\n")
        assert len(analyze(PROBE_HEADER + "for int i in [1:500] { if (c) { x q; } }\n").statements) == 500

    def test_float_literal_inner_bound_counts_before_the_outer_loop(self):
        # 1.0e6 folds to an int, so the inner loop's trips count toward the
        # outer loop's check, which raises before its first iteration
        with pytest.raises(ProgramTooLarge) as err:
            analyze(HEADER + "qubit q;\nfor int r in [0:9] { for int i in [0:1.0e6] { h q; } }\n")
        assert str(err.value) == f"semantic error at 4:1: program exceeds {sema.UNROLL_CAP} statements after loop unrolling"

    def test_loop_bounds_that_name_a_variable_are_not_guessed(self, monkeypatch):
        monkeypatch.setattr(sema, "UNROLL_CAP", 1000)
        # the inner trip count shrinks with i: 30 + 29 + ... + 1 = 465 gates
        source = PROBE_HEADER + "for int i in [1:30] { for int j in [i:30] { x q; } }\n"
        assert lowered_ops(source) == 465


class TestDeclarationLimit:
    """A register or input array of more than UNROLL_CAP elements is refused
    at its declaration, before a whole-register operand spans it."""

    @pytest.mark.parametrize(
        "decl, use, what",
        [
            ("qubit[{}] r;", "h r;", "qubit register 'r'"),
            ("bit[{}] r;", "r[0] = measure q;\nif (r == 1) { x q; }", "bit register 'r'"),
            ("input array[float[64], {}] r;", "rz(r[0]) q;", "input 'r'"),
        ],
        ids=["qubit", "bit", "input"],
    )
    def test_refused_past_the_cap_at_its_declaration(self, monkeypatch, decl, use, what):
        monkeypatch.setattr(sema, "UNROLL_CAP", 50)
        analyze(f"{HEADER}qubit q;\n{decl.format(50)}\n{use}\n")
        with pytest.raises(ProgramTooLarge) as err:
            analyze(f"{HEADER}qubit q;\n{decl.format(51)}\n{use}\n")
        assert str(err.value) == f"semantic error at 4:1: {what} of 51 elements exceeds the limit of 50"

    def test_huge_register_is_refused_before_any_expansion(self):
        tracemalloc.start()
        try:
            with pytest.raises(ProgramTooLarge) as err:
                analyze(f"{HEADER}qubit[100000000] q;\nh q;\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(err.value).startswith("semantic error at 3:1: qubit register 'q' of 100000000 elements")


class TestWholeRegisterBudget:
    """A whole-register statement is charged per position or qubit before
    the next is built, also where a position builds nothing, and a repeated
    qubit is refused before any position exists."""

    @pytest.mark.parametrize(
        "decls, line",
        [("", "pow(0) @ h q;"), ("gate e a { }\n", "e q;"), ("", "barrier q;")],
        ids=["pow0", "empty-gate", "barrier"],
    )
    def test_charged_per_position(self, monkeypatch, decls, line):
        monkeypatch.setattr(sema, "UNROLL_CAP", 50)
        source = f"{HEADER}qubit[30] q;\n{decls}{line}\n"
        analyze(source)
        with pytest.raises(ProgramTooLarge) as err:
            analyze(f"{source}{line}\n")
        row = source.count("\n") + 1
        assert str(err.value) == f"semantic error at {row}:1: program exceeds 50 statements after loop unrolling"

    def test_barrier_is_charged_per_qubit_and_bare_as_one(self, monkeypatch):
        monkeypatch.setattr(sema, "UNROLL_CAP", 50)
        source = f"{HEADER}qubit[30] q;\nqubit[20] r;\nbarrier q, r;\n"
        analyze(source)
        with pytest.raises(ProgramTooLarge) as err:
            analyze(f"{source}barrier;\n")
        assert str(err.value).startswith("semantic error at 6:1: program exceeds 50")
        with pytest.raises(ProgramTooLarge) as err:
            analyze(f"{HEADER}qubit[30] q;\nbarrier q, q;\n")
        assert str(err.value).startswith("semantic error at 4:1: program exceeds 50")

    @pytest.mark.parametrize(
        "width, name, operands",
        [
            (16384, "ctrl @ " * 63 + "x", ", ".join(["q"] * 64)),
            (65536, "cx", "q, q[5]"),
            (65536, "ccx", "q[3], r, q[3]"),
        ],
        ids=["register-64-times", "register-and-element", "element-twice"],
    )
    def test_repeat_raises_before_any_position(self, width, name, operands):
        source = f"{HEADER}qubit[{width}] q;\nqubit[{width}] r;\n{name} {operands};\n"
        tracemalloc.start()
        try:
            with pytest.raises(DuplicateQubitArg) as err:
                analyze(source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        base = name.split()[-1]
        assert str(err.value) == f"semantic error at 5:1: gate '{base}' applied with a repeated qubit operand"


def _traced_peak(source: str) -> int:
    """The tracemalloc peak of analyzing `source`, in bytes."""
    tracemalloc.start()
    try:
        analyze(source)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The user gates a pow chain may call: walking `k`'s body raises UndefinedName.
_CHAIN_HEAD = (
    f"{HEADER}gate f a {{ h a; x a; }}\ngate g(t) a, b {{ cx a, b; rz(t) b; }}\n"
    "gate k a { pow(0) @ f a; nope a; }\nqubit[4] q;\n"
)
# the gates a chain is drawn over, as (name with its angles, qubit operands)
_CHAIN_GATES = [("h", 1), ("rz(0.5)", 1), ("cx", 2), ("f", 1), ("g(0.5)", 2), ("k", 1)]
# past the real UNROLL_CAP, so no product that holds it ever fits
_LARGE_EXPONENT = 10**7


@st.composite
def pow_chain(draw):
    """A gate call under a chain of pow, inv and ctrl modifiers, and a copy
    with its pow exponents (0 to 3, or one larger than any cap) permuted
    over the same places, on one line at the same column."""
    name, arity = draw(st.sampled_from(_CHAIN_GATES))
    exponents = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    if draw(st.booleans()):
        exponents[0] = _LARGE_EXPONENT
    kinds = draw(st.permutations(["pow"] * len(exponents) + draw(st.lists(st.sampled_from(["inv", "ctrl"]), max_size=2))))
    operands = ", ".join(f"q[{i}]" for i in range(kinds.count("ctrl") + arity))

    def call(values: list[int]) -> str:
        it = iter(values)
        return "".join(f"pow({next(it)}) @ " if kind == "pow" else f"{kind} @ " for kind in kinds) + f"{name} {operands};\n"

    return _CHAIN_HEAD + call(exponents), _CHAIN_HEAD + call(draw(st.permutations(exponents)))


class TestZeroPow:
    """A zero pow product is handled before anything is built: a builtin
    under it builds no replica, and a user gate under it, once checked for
    recursion and nesting depth, compiles and places no template, as for a
    gate that is never called."""

    def test_zero_over_a_large_exponent_builds_no_replica(self):
        assert _traced_peak(f"{HEADER}qubit q;\npow(0) @ pow({10**7}) @ h q;\n") < 1 << 20

    def test_zero_over_user_gates_compiles_no_template(self):
        lines = "".join(f"gate g{k} a {{ pow(1000000) @ x a; }}\npow(0) @ g{k} q;\n" for k in range(10))
        source = f"{HEADER}qubit q;\n{lines}"
        assert len(source) == 537
        assert _traced_peak(source) < 1 << 20

    def test_zero_product_is_order_independent(self, monkeypatch):
        monkeypatch.setattr(sema, "UNROLL_CAP", 50)
        dumps = {
            kir.dump(kir.lower(analyze(f"{HEADER}gate g a {{ x a; }}\nqubit q;\n{chain} @ {name} q;\n")))
            for chain in ("pow(0) @ pow(100)", "pow(100) @ pow(0)")
            for name in ("g", "h")
        }
        assert dumps == {"kernel qubits=1 params=- classical=-\n"}

    def test_body_under_a_zero_product_is_not_walked(self):
        # `b` is no formal of g: walking the body would raise UndefinedName
        vp = analyze(f"{HEADER}gate g a {{ x b; }}\nqubit q;\npow(0) @ g q;\n")
        assert kir.dump(kir.lower(vp)) == "kernel qubits=1 params=- classical=-\n"
        with pytest.raises(RecursiveGateDef) as err:
            analyze(f"{HEADER}gate g a {{ pow(0) @ g a; }}\nqubit q;\ng q;\n")
        assert str(err.value) == "semantic error at 3:12: recursive gate definition: g -> g"

    @given(pow_chain())
    def test_permuting_pow_exponents_keeps_the_outcome(self, pair):
        real_cap = sema.UNROLL_CAP
        try:
            # every cap up to the first that passes; a chain whose product
            # holds the large exponent passes none, and any other costs at most 54
            for cap in [*range(1, 56), real_cap]:
                sema.UNROLL_CAP = cap
                outcome = _outcome(pair[0])
                assert outcome == _outcome(pair[1]), cap
                if not outcome.startswith("ProgramTooLarge"):
                    break
        finally:
            sema.UNROLL_CAP = real_cap
        assert cap < 56 or str(_LARGE_EXPONENT) in pair[0]

    @pytest.mark.parametrize(
        "gates, first, error",
        [
            (
                "gate w a { pow(0) @ g a; }\ngate g a { w a; }\n",
                "w q;\n",
                "RecursiveGateDef: semantic error at 3:12: recursive gate definition: g -> w -> g",
            ),
            (
                "gate x0 a { x a; }\ngate w a { pow(0) @ x0 a; }\n"
                + "".join(f"gate c{i} a {{ c{i + 1} a; }}\n" for i in range(1, 99))
                + "gate c99 a { w a; }\n",
                "w q;\n",
                f"ProgramTooLarge: semantic error at 4:12: gate 'x0' is inlined more than {fe.MAX_NESTING} definitions deep",
            ),
        ],
        ids=["recursion", "nesting-depth"],
    )
    def test_reused_template_raises_as_a_fresh_walk(self, gates, first, error):
        # g (or c1) calls w, whose body calls a gate under a zero product,
        # with a stack on which that call fails its check; a template of w
        # compiled first, at top level, passed it, so it is not reused there
        source = HEADER + gates + "qubit q;\n"
        entry = "g q;\n" if "gate g " in gates else "c1 q;\n"
        assert _outcome(source + entry) == error
        assert _outcome(source + first + entry) == error


class TestErrorTexts:
    def test_error_corpus_outcomes_match_record(self):
        # recorded by scripts/record_goldens.py: the exact error text (or the
        # kir.dump digest) of every program of golden_cases.error_corpus(),
        # at the real UNROLL_CAP and at a small one
        path = pathlib.Path(__file__).parent / "golden" / "error_texts.json"
        assert error_texts() == json.loads(path.read_text(encoding="utf-8"))


def _outcome(source: str) -> str:
    """The error a program raises, as `Type: text`, else its kir.dump."""
    try:
        return kir.dump(kir.lower(analyze(source)))
    except SemaError as err:
        return f"{type(err).__name__}: {err}"


@st.composite
def invariant_loop(draw):
    """A loop over `r` whose body never reads r, around `pow(k) @ g(...)`,
    and a copy that reads r to no effect in that exponent, at the same line
    and column. A `pow(0) @ f` in g's body charges nothing and walks no
    body. Loops around it are invariant in both, so their one charge reads
    g's count."""
    k = draw(st.integers(min_value=0, max_value=3))
    hidden = " pow(0) @ f a;" if draw(st.booleans()) else ""
    before = "x q[0];\n" * draw(st.integers(min_value=0, max_value=2))
    trips = draw(st.integers(min_value=2, max_value=4))
    inner = draw(st.integers(min_value=0, max_value=2))
    outer = draw(st.integers(min_value=0, max_value=2))  # loops around it, 0 for none
    head = (
        f"{HEADER}gate f a {{ h a; x a; }}\ngate g(t) a, b {{ cx a, b; rz(t) b;{hidden} }}\n"
        f"qubit[3] q;\n{before}" + "for int s in [1:2] {\n" * outer + f"for int r in [1:{trips}] {{\n"
    )
    tail = f"\nfor int j in [1:{inner}] {{ h q[2]; }}\n}}\n" + "}\n" * outer + "h q[1];\n"
    return head + f"pow({k}) @ g(0.5) q[0], q[1];" + tail, head + f"pow(r - r + {k}) @ g(0.5) q[0], q[1];" + tail


class TestInvariantLoops:
    """A loop whose iterations cannot differ is resolved once; the repeats
    share its calls and are charged to the budget in one check."""

    @given(invariant_loop())
    def test_budget_matches_the_iterating_walk(self, pair):
        invariant, reading = pair
        total = len(kir.lower(analyze(invariant)).body)
        real_cap = sema.UNROLL_CAP
        try:
            # every cap up to the first that passes, which is at least the total
            for cap in itertools.count(1):
                sema.UNROLL_CAP = cap
                outcome = _outcome(invariant)
                assert outcome == _outcome(reading), cap
                if not outcome.startswith("ProgramTooLarge"):
                    break
        finally:
            sema.UNROLL_CAP = real_cap
        assert cap >= total

    def test_repeats_share_the_first_iteration_calls(self):
        vp = analyze(
            HEADER + "gate g(t) a, b { cx a, b; rz(t) b; }\nqubit[3] q;\n"
            "for int r in [1:3] { pow(2) @ g(0.5) q[0], q[1]; for int j in [0:1] { h q[2]; } }\n"
        )
        calls = vp.statements
        n = len(calls) // 3
        assert n == 6
        assert all(calls[k] is calls[k + n] is calls[k + 2 * n] for k in range(n))

    def test_formal_named_like_the_loop_variable_still_shares(self):
        loop = "qubit[3] q;\nfor int r in [1:3] { h q[0]; cx q[0], q[1]; rz(0.5) q[2]; }\n"
        dumps = []
        for formal in ("r", "t"):
            vp = analyze(f"{HEADER}gate g({formal}) a {{ rz({formal}) a; }}\n{loop}")
            calls, n = vp.statements, len(vp.statements) // 3
            assert all(calls[k] is calls[k + n] is calls[k + 2 * n] for k in range(n))
            dumps.append(kir.dump(kir.lower(vp)))
        assert dumps[0] == dumps[1]
        # a gate body reading `r` as a free name reads the global scope, not
        # the loop, so the loop still shares
        vp = analyze(f"{HEADER}gate g(r) a {{ rz(r) a; }}\ngate k a {{ rz(r) a; }}\n{loop}")
        n = len(vp.statements) // 3
        assert all(a is b for a, b in zip(vp.statements[:n], vp.statements[n : 2 * n]))

    @pytest.mark.parametrize(
        "prefix, body",
        [
            ("qubit q;\n", "h q[r - r];"),
            ("qubit q;\n", "rz(r * 0) q;"),
            ("qubit q;\n", "for int j in [r:r] { h q; }"),
            ("qubit q;\nbit c;\n", "h q; c = measure q;"),
            ("qubit q;\n", "h q; reset q;"),
            ("qubit q;\n", "h q; barrier q;"),
            ("qubit q;\nbit c;\n", "h q; if (c) { x q; }"),
            ("qubit q;\nbit c;\n", "for int i in [0:0] { c[0] = measure q[0]; }"),
        ],
        ids=["index", "angle", "nested-bound", "measure", "reset", "barrier", "if", "nested-measure"],
    )
    def test_other_loops_resolve_every_iteration(self, prefix, body):
        vp = analyze(f"{HEADER}{prefix}for int r in [1:2] {{ {body} }}\n")
        n = len(vp.statements) // 2
        first, second = vp.statements[:n], vp.statements[n:]
        assert n >= 1 and len(second) == n
        assert not any(a is b for a, b in zip(first, second))

    def test_gate_body_cannot_read_the_loop_variable(self):
        with pytest.raises(UndefinedName) as err:
            analyze(f"{HEADER}gate k a {{ rz(r) a; }}\nqubit q;\nfor int r in [1:2] {{ h q; k q; }}\n")
        assert str(err.value) == "semantic error at 3:15: undefined name 'r'"
