"""Gate templates and the one modifier algebra.

The Hypothesis test checks the compiled kernel of random programs with
nested user gates and every modifier against a NumPy evaluator of the AST
written here, which applies the definition semantics directly: a user gate
is the product of its body, `ctrl`/`negctrl` make a controlled matrix,
`inv` the conjugate transpose and `pow(k)` the matrix power.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qasm2cudaq import compile_source, frontend as fe, kir, sema, sim
from qasm2cudaq.errors import NotConst, ProgramTooLarge, RecursiveGateDef, SemaError, UndefinedName
from qasm2cudaq.oracle import oracle_unitary

from conftest import CORPUS
from golden_cases import GOLDEN_CASES, emission_digest_corpus, histogram_corpus, kir_dump_corpus

HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
QUBITS = 4

# -- reference evaluator -----------------------------------------------------

def _controlled(mat: np.ndarray, polarity: int = 1) -> np.ndarray:
    """Control on a new leading (high) operand: U where it reads `polarity`."""
    eye = np.eye(len(mat), dtype=complex)
    zero = np.zeros_like(eye)
    blocks = [[eye, zero], [zero, mat]] if polarity else [[mat, zero], [zero, eye]]
    return np.block(blocks)


def _rot(axis: str, th: float) -> np.ndarray:
    c, s = math.cos(th / 2), math.sin(th / 2)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    return np.diag([cmath.exp(-0.5j * th), cmath.exp(0.5j * th)])


def _builtin(name: str, a: list[float]) -> np.ndarray:
    """Standard-library matrices, operands in call order, the first operand
    as the high bit."""
    one = {
        "x": lambda: np.array([[0, 1], [1, 0]], dtype=complex),
        "y": lambda: np.array([[0, -1j], [1j, 0]]),
        "z": lambda: np.diag([1, -1]).astype(complex),
        "h": lambda: np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
        "s": lambda: np.diag([1, 1j]),
        "sdg": lambda: np.diag([1, -1j]),
        "t": lambda: np.diag([1, cmath.exp(0.25j * math.pi)]),
        "tdg": lambda: np.diag([1, cmath.exp(-0.25j * math.pi)]),
        "sx": lambda: np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2,
        "rx": lambda: _rot("x", a[0]),
        "ry": lambda: _rot("y", a[0]),
        "rz": lambda: _rot("z", a[0]),
        "p": lambda: np.diag([1, cmath.exp(1j * a[0])]),
        "u": lambda: np.array(
            [
                [math.cos(a[0] / 2), -cmath.exp(1j * a[2]) * math.sin(a[0] / 2)],
                [cmath.exp(1j * a[1]) * math.sin(a[0] / 2), cmath.exp(1j * (a[1] + a[2])) * math.cos(a[0] / 2)],
            ]
        ),
    }
    if name in one:
        return one[name]()
    if name == "swap":
        return np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    if name == "ccx":
        return _controlled(_controlled(_builtin("x", [])))
    return _controlled(_builtin({"crz": "rz", "cp": "p"}.get(name, name[1:]), a))  # cx cy cz ch crz cp


def _embed(mat: np.ndarray, qubits: list[int], n: int) -> np.ndarray:
    """Operator on `qubits` (the first the high bit of `mat`) in the 2^n
    space where qubit q is bit q of the basis index."""
    k = len(qubits)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    mask = sum(1 << q for q in qubits)
    for col in range(1 << n):
        sub = sum(((col >> q) & 1) << (k - 1 - j) for j, q in enumerate(qubits))
        for row_sub in range(1 << k):
            row = (col & ~mask) | sum(((row_sub >> (k - 1 - j)) & 1) << q for j, q in enumerate(qubits))
            full[row, col] += mat[row_sub, sub]
    return full


def _value(expr: fe.Expr, env: dict[str, float]) -> float:
    if isinstance(expr, (fe.IntLit, fe.FloatLit)):
        return expr.value
    if isinstance(expr, fe.PiConst):
        return math.pi
    if isinstance(expr, fe.NamedRef):
        return env[expr.name]
    if isinstance(expr, fe.Unary):
        return -_value(expr.operand, env)
    lhs, rhs = _value(expr.lhs, env), _value(expr.rhs, env)
    return {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs, "/": lhs / rhs}[expr.op]


def _call_matrix(call: fe.GateCall, env: dict[str, float], defs: dict[str, fe.GateDef]) -> np.ndarray:
    """The unitary of one call over all its operands, controls first."""
    angles = [_value(a, env) for a in call.args]
    if call.name in defs:
        gate = defs[call.name]
        m = len(gate.qubits)
        inner = dict(zip(gate.params, angles))
        mat = np.eye(1 << m, dtype=complex)
        # formal i is bit m-1-i, so the first formal is the high bit
        slot = {name: m - 1 - i for i, name in enumerate(gate.qubits)}
        for body_call in gate.body:
            sub = _call_matrix(body_call, inner, defs)
            mat = _embed(sub, [slot[r.name] for r in body_call.qubits], m) @ mat
    else:
        mat = _builtin(call.name, angles)
    for mod in reversed(call.modifiers):
        if mod.kind == "inv":
            mat = mat.conj().T
        elif mod.kind == "pow":
            mat = np.linalg.matrix_power(mat, int(_value(mod.exponent, env)))
        else:
            mat = _controlled(mat, 1 if mod.kind == "ctrl" else 0)
    return mat


def reference_unitary(source: str) -> np.ndarray:
    ast = fe.parse_source(source)
    defs = {s.name: s for s in ast.statements if isinstance(s, fe.GateDef)}
    full = np.eye(1 << QUBITS, dtype=complex)
    for stmt in ast.statements:
        if isinstance(stmt, fe.GateCall):
            operands = [r.index.value for r in stmt.qubits]
            full = _embed(_call_matrix(stmt, {}, defs), operands, QUBITS) @ full
    return full


# -- program generator ---------------------------------------------------------

# name -> (angle count, qubit count)
_BUILTINS = {
    "x": (0, 1), "y": (0, 1), "z": (0, 1), "h": (0, 1), "s": (0, 1), "sdg": (0, 1),
    "t": (0, 1), "tdg": (0, 1), "sx": (0, 1), "rx": (1, 1), "ry": (1, 1), "rz": (1, 1),
    "p": (1, 1), "u": (3, 1), "cx": (0, 2), "cy": (0, 2), "cz": (0, 2), "ch": (0, 2),
    "crz": (1, 2), "cp": (1, 2), "swap": (0, 2), "ccx": (0, 3),
}
_LITERALS = [0.0, -0.0, 0.25, -1.5, 3.0, 2.0]


@st.composite
def _call(draw, operands: list[str], angle_formals: list[str], pow_formal: bool, gates: dict, user=False):
    """One call over `operands`: a builtin or an earlier user gate, 0-3
    modifiers, angles that are literals, formals or arithmetic on formals."""
    builtins = [n for n, (_, q) in _BUILTINS.items() if q <= len(operands)]
    users = [n for n, (_, q, _k) in gates.items() if q <= len(operands)]
    name = draw(st.sampled_from(users if users and (user or draw(st.booleans())) else builtins))
    n_angles, n_qubits, callee_pow = gates[name] if name in gates else (*_BUILTINS[name], False)
    mods = []
    for _ in range(draw(st.integers(0, 3))):
        kinds = ["inv", "pow"] + (["ctrl", "negctrl"] if n_qubits + _controls(mods) < len(operands) else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "pow":
            exponent = draw(st.sampled_from(["-2", "-1", "0", "1", "2"] + (["k"] if pow_formal else [])))
            mods.append(f"pow({exponent})")
        else:
            mods.append(kind)
    angle_exprs = []
    for _ in range(n_angles):
        forms = [repr(draw(st.sampled_from(_LITERALS)))]
        for formal in angle_formals:
            forms += [formal, f"-{formal}", f"{formal}/2", f"{formal} + 0.5"]
        angle_exprs.append(draw(st.sampled_from(forms)))
    if callee_pow:  # the callee's last formal is its pow exponent: an integer
        angle_exprs.append(draw(st.sampled_from(["-1", "0", "2"] + (["k"] if pow_formal else []))))
    qubits = draw(st.permutations(operands))[: n_qubits + _controls(mods)]
    args = f"({', '.join(angle_exprs)})" if angle_exprs else ""
    return "".join(m + " @ " for m in mods) + f"{name}{args} " + ", ".join(qubits) + ";"


def _controls(mods: list[str]) -> int:
    return sum(m in ("ctrl", "negctrl") for m in mods)


@st.composite
def algebra_programs(draw) -> str:
    gates: dict[str, tuple[int, int, bool]] = {}
    lines = [HEADER.rstrip("\n")]
    for g in range(draw(st.integers(1, 3))):
        formals = [f"t{j}" for j in range(draw(st.integers(0, 2)))]
        pow_formal = draw(st.booleans())
        qubits = [f"a{j}" for j in range(draw(st.integers(1, 3)))]
        body = [draw(_call(qubits, formals, pow_formal, gates)) for _ in range(draw(st.integers(1, 3)))]
        params = formals + (["k"] if pow_formal else [])
        header = f"gate g{g}" + (f"({', '.join(params)})" if params else "") + " " + ", ".join(qubits)
        lines.append(header + " { " + " ".join(body) + " }")
        gates[f"g{g}"] = (len(formals), len(qubits), pow_formal)
    lines.append(f"qubit[{QUBITS}] q;")
    operands = [f"q[{i}]" for i in range(QUBITS)]
    outer = {f"g{len(gates) - 1}": gates[f"g{len(gates) - 1}"]}  # the last gate may nest the others
    lines.append(draw(_call(operands, [], False, outer, user=True)))
    for _ in range(draw(st.integers(0, 3))):
        lines.append(draw(_call(operands, [], False, gates)))
    return "\n".join(lines) + "\n"


class TestModifierAlgebra:
    @settings(max_examples=max(250, settings().max_examples))  # a larger profile count wins
    @given(algebra_programs())
    def test_kernel_matches_definition_semantics(self, source):
        np.testing.assert_allclose(
            oracle_unitary(compile_source(source)), reference_unitary(source), atol=1e-12
        )

    def test_reference_evaluator_sees_modifier_order(self):
        # ctrl @ inv @ s: the inverse is controlled; pow(-1) @ g inverts a whole body
        source = HEADER + "gate g a { h a; t a; }\nqubit[4] q;\nctrl @ inv @ s q[1], q[0];\npow(-1) @ g q[2];\n"
        expected = _embed(_controlled(np.diag([1, -1j])), [1, 0], QUBITS)
        body = _builtin("t", []) @ _builtin("h", [])
        expected = _embed(np.linalg.inv(body), [2], QUBITS) @ expected
        np.testing.assert_allclose(reference_unitary(source), expected, atol=1e-12)
        np.testing.assert_allclose(oracle_unitary(compile_source(source)), expected, atol=1e-12)


class TestTemplateKey:
    def test_signed_zero_angles_get_their_own_templates(self):
        source = HEADER + "gate g(t) a { rz(t) a; }\nqubit q;\ng(0.0) q;\ng(-0.0) q;\ninv @ g(0.0) q;\n"
        assert kir.dump(compile_source(source)) == (
            "kernel qubits=1 params=- classical=-\n"
            "gate rz(0.0) q0\ngate rz(-0.0) q0\ngate rz(-0.0) q0\n"
        )

    def test_signed_zero_through_a_wrapper(self):
        source = HEADER + (
            "gate g(t) a, b { cp(t) a, b; rz(t) b; }\ngate w(t) a, b { g(t) a, b; }\nqubit[2] q;\n"
            "g(-0.0) q[0], q[1];\nw(0.0) q[1], q[0];\ninv @ w(-0.0) q[0], q[1];\npow(-1) @ g(0.0) q[1], q[0];\n"
        )
        assert kir.dump(compile_source(source)) == (
            "kernel qubits=2 params=- classical=-\n"
            "gate p(-0.0) q1 +q0\ngate rz(-0.0) q1\ngate p(0.0) q0 +q1\ngate rz(0.0) q0\n"
            "gate rz(0.0) q1\ngate p(0.0) q1 +q0\ngate rz(-0.0) q0\ngate p(-0.0) q0 +q1\n"
        )

    def test_body_cannot_read_a_caller_loop_variable(self):
        # a gate body reads its formals and the global scope, not the scope
        # of its call, so `i` is undefined there
        source = HEADER + "gate g a { rz(i) a; }\nqubit q;\nfor int i in [1:3] { g q; }\n"
        with pytest.raises(UndefinedName) as err:
            compile_source(source)
        assert "undefined name 'i'" in str(err.value)

    def test_loop_variable_named_like_a_gate_does_not_hide_it_from_bodies(self):
        source = HEADER + "gate f a { x a; }\ngate g a { f a; }\nqubit q;\ng q;\nfor int f in [0:0] { g q; }\n"
        assert kir.dump(compile_source(source)).splitlines()[1:] == ["gate x q0", "gate x q0"]


def _names(expr, out: set[str]) -> None:
    if isinstance(expr, fe.NamedRef):
        out.add(expr.name)
        _names(expr.index, out)
    elif isinstance(expr, fe.Unary):
        _names(expr.operand, out)
    elif isinstance(expr, fe.Binary):
        _names(expr.lhs, out)
        _names(expr.rhs, out)


def _call_names(call: fe.GateCall) -> set[str]:
    """Every name a call mentions: its gate, angles, pow exponents and operands."""
    out = {call.name}
    for expr in call.args + call.qubits + [m.exponent for m in call.modifiers]:
        _names(expr, out)
    return out


def _body_names(name: str, defs: dict, seen: set[str]) -> set[str]:
    """Every name the body of gate `name` mentions, directly or through the
    user gates it calls."""
    out: set[str] = set()
    if name not in seen:
        seen.add(name)
        for call in defs[name].body:
            out |= _call_names(call)
            if call.name in defs:
                out |= _body_names(call.name, defs, seen)
    return out


def _wrap_sites(ast: fe.ProgramAst) -> list[tuple[int, str]]:
    """(statement index, loop variable) for each top-level user gate call and
    each name its callee's body mentions that the call itself does not."""
    defs = {s.name: s for s in ast.statements if type(s) is fe.GateDef}
    sites = []
    for i, stmt in enumerate(ast.statements):
        if type(stmt) is fe.GateCall and stmt.name in defs:
            sites += [(i, n) for n in sorted(_body_names(stmt.name, defs, set()) - _call_names(stmt))]
    return sites


_GLOBALS = (
    "input array[float[64], 3] th;\nconst float c0 = 0.375;\nconst float c1 = -1.25;\n"
    "const int k0 = 2;\nconst int k1 = -1;\n"
)


@st.composite
def scoped_programs(draw) -> str:
    """Gate bodies that read global consts (angles, pow exponents and the
    index of a global input) and call earlier user gates; a formal may share
    a const's name, and hides it in its own body. Every gate acts on two
    qubits."""
    gates: dict[str, int] = {}  # name -> angle count
    lines = [HEADER + _GLOBALS.rstrip("\n")]
    for g in range(draw(st.integers(1, 3))):
        formals = draw(st.lists(st.sampled_from(["t", "s", "c1"]), max_size=2, unique=True))
        angle = st.sampled_from(["c0", "c1", "c0 * 2", "0.5"] + formals + [f"{f} - c0" for f in formals])
        arity = {"rz": (1, 1), "ry": (1, 1), "h": (0, 1), "cp": (1, 2), "cx": (0, 2)}
        arity.update((name, (n, 2)) for name, n in gates.items())
        body = []
        for _ in range(draw(st.integers(1, 3))):
            callee = draw(st.sampled_from(sorted(arity)))
            n_angles, n_qubits = arity[callee]
            # a formal bound to th[k0] could not take arithmetic, so only a builtin reads it
            choice = angle | st.just("th[k0]") if callee not in gates else angle
            args = f"({', '.join(draw(choice) for _ in range(n_angles))})" if n_angles else ""
            mod = draw(st.sampled_from(["", "pow(k0) @ ", "pow(k1) @ ", "inv @ "]))
            qubits = draw(st.permutations(["a", "b"]))[:n_qubits]
            body.append(f"{mod}{callee}{args} {', '.join(qubits)};")
        params = f"({', '.join(formals)})" if formals else ""
        lines.append(f"gate g{g}{params} a, b {{ {' '.join(body)} }}")
        gates[f"g{g}"] = len(formals)
    lines.append("qubit[3] q;")
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(gates)))
        args = ", ".join(repr(draw(st.sampled_from([0.25, -0.5, 1.0]))) for _ in range(gates[name]))
        qubits = draw(st.permutations(["q[0]", "q[1]", "q[2]"]))[:2]
        lines.append(f"{name}{f'({args})' if args else ''} {', '.join(qubits)};")
    return "\n".join(lines) + "\n"


# the golden and conformance programs with a call a loop can wrap
_WRAPPABLE = [s for s in [*GOLDEN_CASES.values(), *CORPUS] if _wrap_sites(fe.parse_source(s))]


class TestBodyScope:
    """A gate body reads its formals and the global scope, never the scope
    of its call: it means the same at every call site."""

    @given(st.sampled_from(_WRAPPABLE) | scoped_programs(), st.data())
    def test_loop_variable_does_not_reach_a_called_body(self, source, data):
        # wrapping a call in a one-trip loop over a name its callee's body
        # mentions (a const, a formal or a called gate) changes nothing
        ast = fe.parse_source(source)
        i, var = data.draw(st.sampled_from(_wrap_sites(ast)))
        call = ast.statements[i]
        zero = fe.IntLit(0, call.span)
        loop = fe.ForStatement(var, zero, None, zero, [call], call.span)
        wrapped = fe.ProgramAst(ast.includes, ast.statements[:i] + [loop] + ast.statements[i + 1 :], ast.tokens)
        assert kir.dump(kir.lower(sema.analyze(wrapped))) == kir.dump(kir.lower(sema.analyze(ast)))

    @pytest.mark.parametrize(
        "arg, message",
        [("0.5", "constant 't' is a scalar and cannot be indexed"), ("th[1]", "'t' is a runtime-input, not a compile-time constant")],
        ids=["literal", "runtime"],
    )
    @pytest.mark.parametrize("other", ["t", "u"], ids=["global-t", "no-global-t"])
    def test_indexed_formal_is_not_a_global_input(self, arg, message, other):
        # the formal `t` hides a global input `t`, so `t[0]` indexes the formal
        source = HEADER + (
            f"input array[float[64], 2] th;\ninput array[float[64], 2] {other};\n"
            f"gate g(t) a {{ rz(t[0]) a; }}\nqubit q;\ng({arg}) q;\n"
        )
        with pytest.raises(NotConst) as err:
            compile_source(source)
        assert str(err.value) == f"semantic error at 5:18: {message}"

    def test_formal_indexes_a_global_input(self):
        # the index folds in the body's table, where the formal is bound
        source = HEADER + "input array[float[64], 3] th;\ngate g(k) a { rz(th[k]) a; }\nqubit q;\ng(2) q;\ng(th[0]) q;\n"
        with pytest.raises(SemaError) as err:
            compile_source(source)
        assert str(err.value) == (
            "semantic error at 4:21: parameter index must be a compile-time integer: "
            "'k' is a runtime-input, not a compile-time constant"
        )
        kernel = compile_source(source.replace("g(th[0]) q;\n", ""))
        assert kir.dump(kernel).splitlines()[1:] == ["gate rz(param2) q0"]

    def test_formal_named_like_a_called_gate(self):
        # a body's callee is looked up in the global scope, past its formals
        source = HEADER + "gate f a { x a; }\ngate g(f) a { f a; rz(f) a; }\nqubit q;\ng(0.5) q;\n"
        assert kir.dump(compile_source(source)).splitlines()[1:] == ["gate x q0", "gate rz(0.5) q0"]


_WRAPPERS = "gate base a { x a; }\ngate w1 a { base a; }\n" + "".join(
    f"gate w{k} a {{ w{k - 1} a; }}\n" for k in range(2, fe.MAX_NESTING + 1)
)


class TestTemplateReuseLimits:
    def test_chain_within_the_limit_compiles(self):
        kernel = compile_source(HEADER + _WRAPPERS + "qubit q;\nbase q;\nw99 q;\n")
        assert len(kernel.body) == 2

    def test_reuse_past_the_budget_raises_where_the_walk_does(self, monkeypatch):
        # the third call of f passes the cap inside its second g, as a walk of the body finds
        monkeypatch.setattr(sema, "UNROLL_CAP", 300)
        source = HEADER + "gate g(k) a { pow(k) @ x a; }\ngate f a { g(60) a; g(60) a; }\nqubit q;\n"
        with pytest.raises(ProgramTooLarge) as err:
            compile_source(source + "f q;\nf q;\npow(3) @ f q;\n")
        assert str(err.value) == "semantic error at 4:21: program exceeds 300 statements after loop unrolling"

    @pytest.mark.parametrize("calls", ["base q;\nw100 q;\n", "base q;\nw50 q;\nw100 q;\n"])
    def test_template_reached_past_the_nesting_limit_raises(self, calls):
        with pytest.raises(ProgramTooLarge) as err:
            compile_source(HEADER + _WRAPPERS + "qubit q;\n" + calls)
        assert str(err.value) == "semantic error at 4:13: gate 'base' is inlined more than 100 definitions deep"

    def test_recursive_definition_message(self):
        with pytest.raises(RecursiveGateDef) as err:
            compile_source(HEADER + "qubit q;\ngate g a { g a; }\ng q;\n")
        assert str(err.value) == "semantic error at 4:12: recursive gate definition: g -> g"

    def test_recursion_after_a_reused_callee(self):
        source = HEADER + "qubit q;\ngate f a { x a; }\ngate g a { f a; inv @ g a; }\nf q;\ng q;\n"
        with pytest.raises(RecursiveGateDef) as err:
            compile_source(source)
        assert "recursive gate definition: g -> g" in str(err.value)


class TestFreeFormals:
    """A formal used only as a whole builtin angle is bound when a template
    is placed, so calls that differ only in such angles share a template."""

    def test_literal_and_runtime_angles_bind_as_before(self):
        source = HEADER + (
            "input array[float[64], 2] th;\ngate g(t, s) a, b { rz(t) a; u(t, s, 0.5) b; cp(s) a, b; }\nqubit[2] q;\n"
            "g(th[0], 0.25) q[0], q[1];\ninv @ g(th[1], -0.0) q[1], q[0];\ninv @ g(0.5, th[0]) q[0], q[1];\n"
        )
        assert kir.dump(compile_source(source)) == (
            "kernel qubits=2 params=th:2 classical=-\n"
            "gate rz(param0) q0\ngate u(param0, 0.25, 0.5) q1\ngate p(0.25) q1 +q0\n"
            "gate p(0.0) q0 +q1\ngate u(param1, -0.0, 0.5) q0 adj\ngate rz(param1) q1 adj\n"
            "gate p(param0) q1 +q0 adj\ngate u(0.5, param0, 0.5) q1 adj\ngate rz(-0.5) q0\n"
        )

    def test_a_loop_of_distinct_angles_compiles_each_template_once(self, monkeypatch):
        compiled = []
        original = sema._Analyzer._compile

        def counting(self, gate_def, *args):
            compiled.append(gate_def.name)
            return original(self, gate_def, *args)

        monkeypatch.setattr(sema._Analyzer, "_compile", counting)
        source = HEADER + (
            "input array[float[64], 50] th;\ngate g(t) a, b { cx a, b; rz(t) b; inv @ ry(t) a; }\n"
            "gate w(t) a, b { g(t/2) a, b; }\nqubit[2] q;\n"
            "for int i in [0:49] { g(i * 0.01) q[0], q[1]; g(th[i]) q[1], q[0]; w(0.5) q[0], q[1]; }\n"
        )
        body = compile_source(source).body
        # a literal and a runtime t share g's template; w passes t/2 on, so its t is keyed by value
        assert compiled == ["g", "w"]
        assert len(body) == 50 * 9
        assert [op.angles for op in body[63:66]] == [(), (7 * 0.01,), (-(7 * 0.01),)]
        assert [(op.angles, op.adjoint) for op in body[67:69]] == [((sema.ParamRef(7),), False), ((sema.ParamRef(7),), True)]
        assert [op.angles for op in body[70:72]] == [(0.25,), (-0.25,)]

    def test_a_formal_passed_whole_to_a_free_formal_stays_free(self, monkeypatch):
        compiled = []
        original = sema._Analyzer._compile

        def counting(self, gate_def, *args):
            compiled.append(gate_def.name)
            return original(self, gate_def, *args)

        monkeypatch.setattr(sema._Analyzer, "_compile", counting)
        source = HEADER + (
            "input array[float[64], 4] th;\ngate g(t) a { rz(t) a; }\ngate w(t) a, b { g(t) a; inv @ g(t) b; }\n"
            "qubit[2] q;\nfor int i in [0:3] { w(i * 0.5) q[0], q[1]; w(th[i]) q[1], q[0]; }\n"
        )
        body = compile_source(source).body
        assert compiled == ["w", "g"]  # a literal and a runtime t share each template
        assert [(op.angles, op.targets) for op in body[4:6]] == [((0.5,), (0,)), ((-0.5,), (1,))]
        assert [(op.angles, op.targets, op.adjoint) for op in body[6:8]] == [
            ((sema.ParamRef(1),), (1,), False),
            ((sema.ParamRef(1),), (0,), True),
        ]



_NEGATED = frozenset("rx ry rz p u".split())


def _flagged_literal_rotations(ops: list) -> list:
    """The rotation and u gates in `ops`, conditional bodies included, whose
    angles are all literal but which hold the adjoint flag: a literal
    inverse negates its angles instead."""
    out = []
    for op in ops:
        if type(op) is kir.CondBlock:
            out += _flagged_literal_rotations(op.then_body) + _flagged_literal_rotations(op.else_body)
        elif type(op) is sema.Gate and op.adjoint and op.base in _NEGATED:
            if not any(isinstance(a, sema.ParamRef) for a in op.angles):
                out.append(op)
    return out


_RECORDED = [
    *GOLDEN_CASES.values(), *CORPUS, *emission_digest_corpus().values(),
    *kir_dump_corpus().values(), *histogram_corpus().values(),
]


# Builtins whose angles a free formal may feed: name -> (angle count, qubit count)
_FREE_CALLEES = {"rx": (1, 1), "ry": (1, 1), "rz": (1, 1), "p": (1, 1), "u": (3, 1), "crz": (1, 2), "cp": (1, 2)}
_FREE_MODIFIERS = ["inv", "inv @ inv", "pow(2)", "pow(-1)", "pow(-2)", "pow(k)", "ctrl", "negctrl"]
_FREE_VALUES = [0.0, -0.0, 0.3, -1.25, 2.5]


def _free_mods(draw, n_qubits: int, width: int, exponent: bool) -> list[str]:
    """0-2 modifiers; a control only while an operand is left for it."""
    mods: list[str] = []
    for _ in range(draw(st.integers(0, 2))):
        kinds = _FREE_MODIFIERS if n_qubits + _controls(mods) < width else _FREE_MODIFIERS[:-2]
        mods.append(draw(st.sampled_from([m for m in kinds if exponent or m != "pow(k)"])))
    return mods


@st.composite
def free_formal_programs(draw) -> tuple[str, list[tuple], list[float]]:
    """(definitions, calls, values): 1-3 user gates whose angle formals are
    only ever whole angles of rotations, u and earlier user gates under
    inv, pow, ctrl and negctrl, so every one is free, and a last formal k,
    fixed, that only pow exponents read. Each gate is called once; a call
    is (modifiers, gate, angle values, k, operands)."""
    gates: dict[str, tuple[int, int]] = {}  # name -> (angle formals, qubits)
    lines = []
    for g in range(draw(st.integers(1, 3))):
        formals = [f"t{j}" for j in range(draw(st.integers(1, 3)))]
        qubits = [f"a{j}" for j in range(draw(st.integers(1, 3)))]
        callees = {**_FREE_CALLEES, **gates}
        body = []
        for _ in range(draw(st.integers(1, 3))):
            name = draw(st.sampled_from(sorted(n for n, (_, q) in callees.items() if q <= len(qubits))))
            n_angles, n_qubits = callees[name]
            mods = _free_mods(draw, n_qubits, len(qubits), True)
            args = [draw(st.sampled_from(formals + [repr(v) for v in _FREE_VALUES])) for _ in range(n_angles)]
            if name in gates:
                args.append(draw(st.sampled_from(["k", "-1", "2"])))
            operands = draw(st.permutations(qubits))[: n_qubits + _controls(mods)]
            body.append("".join(m + " @ " for m in mods) + f"{name}({', '.join(args)}) {', '.join(operands)};")
        lines.append(f"gate g{g}({', '.join(formals)}, k) {', '.join(qubits)} {{ {' '.join(body)} }}\n")
        gates[f"g{g}"] = (len(formals), len(qubits))
    calls = []
    for name, (n_angles, n_qubits) in gates.items():
        mods = _free_mods(draw, n_qubits, QUBITS, False)
        values = [draw(st.sampled_from(_FREE_VALUES)) for _ in range(n_angles)]
        operands = draw(st.permutations(range(QUBITS)))[: n_qubits + _controls(mods)]
        calls.append((mods, name, values, draw(st.sampled_from([-1, 1, 2])), operands))
    return "".join(lines), calls, [v for call in calls for v in call[2]]


def _free_call(call: tuple, slot: int | None) -> str:
    """A call's text: its angle values written as literals, or (from
    input slot `slot` on) as elements of th."""
    mods, name, values, k, operands = call
    angles = [repr(v) for v in values] if slot is None else [f"th[{slot + i}]" for i in range(len(values))]
    qubits = ", ".join(f"q[{i}]" for i in operands)
    return "".join(m + " @ " for m in mods) + f"{name}({', '.join(angles + [str(k)])}) {qubits};\n"


def _free_sources(program: tuple) -> tuple[str, str, str]:
    """(header, literal calls, runtime calls) of a drawn program: the
    runtime calls read their angles from consecutive elements of th."""
    defs, calls, values = program
    header = HEADER + f"input array[float[64], {len(values)}] th;\n" + defs + f"qubit[{QUBITS}] q;\n"
    slots = np.cumsum([0] + [len(c[2]) for c in calls]).tolist()
    literal = "".join(_free_call(c, None) for c in calls)
    return header, literal, "".join(_free_call(c, slot) for c, slot in zip(calls, slots))


class TestNormalForm:
    """No rotation or u gate with literal angles holds the adjoint flag,
    however its angle reached it: written at the call, or placed in a
    template's placeholder."""

    def test_recorded_corpora(self):
        flagged = {i: _flagged_literal_rotations(compile_source(s).body) for i, s in enumerate(_RECORDED)}
        assert {i: ops for i, ops in flagged.items() if ops} == {}

    @given(algebra_programs() | free_formal_programs().map(lambda p: "".join(_free_sources(p)[:2])))
    def test_generated_programs(self, source):
        assert _flagged_literal_rotations(compile_source(source).body) == []


class TestLiteralAndRuntimeBindings:
    """A free formal has one placeholder, whatever a call passes: a literal
    and a runtime binding share the template and give the same state, the
    one the definition semantics give."""

    @settings(max_examples=max(250, settings().max_examples))  # a larger profile count wins
    @given(free_formal_programs())
    def test_literal_and_runtime_calls_agree(self, program):
        header, literal, runtime = _free_sources(program)
        values = program[2]
        compiled = []
        original = sema._Analyzer._compile

        def counting(self, gate_def, angles, *args):
            free = self.free_formals[gate_def.name]
            compiled.append((gate_def.name, sema._signed(tuple(a for a, f in zip(angles, free) if not f))))
            return original(self, gate_def, angles, *args)

        kernels, logs = {}, {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sema._Analyzer, "_compile", counting)
            for name, body in (("literal", literal), ("runtime", runtime), ("both", literal + runtime)):
                compiled.clear()
                kernels[name] = compile_source(header + body)
                logs[name] = list(compiled)
        states = [sim.statevector(kir.bind(kernels[name], values)).amps for name in ("literal", "runtime")]
        np.testing.assert_allclose(states[1], states[0], atol=1e-12)
        # both bindings share the placement, so the definition semantics judge it
        np.testing.assert_allclose(states[0], reference_unitary(header + literal)[:, 0], atol=1e-12)
        # one template per (gate, fixed key): the runtime calls compile none of their own
        assert len(set(logs["both"])) == len(logs["both"])
        assert logs["both"] == logs["literal"]


# User gates for placements in a loop: a plain template (e), free angles (g,
# and w, which places g and e on its own formals under modifiers), and a
# formal that keys the template by value (pw's pow exponent).
_PLACED_DEFS = (
    "gate e a, b { h a; cx a, b; }\n"
    "gate g(t) a, b { cx a, b; rz(t) b; inv @ ry(t) a; }\n"
    "gate w(t) a, b, c { g(t) c, a; ctrl @ rx(t) b, c; negctrl @ e c, a, b; }\n"
    "gate pw(n) a { pow(n) @ t a; }\n"
    "input array[float[64], 3] th;\nqubit[9] q;\n"
)
# name -> (what its formal takes, qubits)
_PLACED_GATES = {"e": (None, 2), "g": ("angle", 2), "w": ("angle", 3), "pw": ("exponent", 1)}


def _fixed(text: str):
    return lambda i: text


# Each form the loop body may use -> its text with the loop variable i
# written out, as a hand expansion has it. The operands never coincide at
# one i in 0..2; q[4] and q[5] are the same at every i.
_OPERANDS = {
    "q[i]": lambda i: f"q[{i}]", "q[i + 1]": lambda i: f"q[{i + 1}]", "q[8 - i]": lambda i: f"q[{8 - i}]",
    "q[4]": _fixed("q[4]"), "q[5]": _fixed("q[5]"),
}
_ANGLES = {
    **{a: _fixed(a) for a in ("0.0", "-0.0", "0.25", "th[2]")},
    "i * 0.5": lambda i: repr(i * 0.5), "-(i * 0.5)": lambda i: repr(-(i * 0.5)), "th[i]": lambda i: f"th[{i}]",
}
_EXPONENTS = {"2": _fixed("2"), "-1": _fixed("-1"), "i": str, "i - 1": lambda i: str(i - 1)}
_FORMS = {**_OPERANDS, **_ANGLES, **_EXPONENTS}


@st.composite
def placement_loops(draw) -> tuple[int, int, int, list]:
    """(start, step, stop, calls) of a loop over i in 0..2 whose body places
    user gates under 0-2 modifiers, some of them twice on the same operands;
    its body reads i, so every iteration is resolved."""
    start, stop = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    step = draw(st.sampled_from([1, 2] if start <= stop else [-1, -2]))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(_PLACED_GATES)))
        formal, n_qubits = _PLACED_GATES[name]
        mods = draw(st.lists(st.sampled_from(["inv", "pow(2)", "pow(-1)", "ctrl", "negctrl"]), max_size=2))
        operands = draw(st.permutations(sorted(_OPERANDS)))[: n_qubits + sum(m.endswith("ctrl") for m in mods)]
        arg = draw(st.sampled_from(sorted(_ANGLES if formal == "angle" else _EXPONENTS))) if formal else None
        calls.append((mods, name, arg, operands))
    for _ in range(draw(st.integers(0, 2))):  # a twin: the same operands, polarities and argument redrawn
        mods, name, arg, operands = draw(st.sampled_from(calls))
        mods = [draw(st.sampled_from(["ctrl", "negctrl"])) if m.endswith("ctrl") else m for m in mods]
        arg = draw(st.sampled_from(sorted(_ANGLES if arg in _ANGLES else _EXPONENTS))) if arg else None
        calls.append((mods, name, arg, operands))
    if not any("i" in form for _, _, arg, operands in calls for form in [arg or "", *operands]):
        calls.append(([], "rz", "i * 0.5", ["q[4]"]))
    return start, step, stop, calls


def _placed_call(call: tuple, i: int | None = None) -> str:
    """A call's text in the loop body, or with i = `i` written out."""
    mods, name, arg, operands = call
    text = (lambda form: form) if i is None else (lambda form: _FORMS[form](i))
    args = f"({text(arg)})" if arg else ""
    return "".join(m + " @ " for m in mods) + f"{name}{args} " + ", ".join(map(text, operands)) + ";"


class TestSharedPlacements:
    """Every call places its template anew: calls are shared only where the
    program repeats them, by a pow or by the repeats of an invariant loop,
    and whatever tells two placements apart (targets, controls, signed free
    angles, runtime slots) gives gates of its own."""

    @given(placement_loops())
    def test_loop_placements_match_the_hand_expansion(self, loop):
        start, step, stop, calls = loop
        body = " ".join(_placed_call(c) for c in calls)
        looped = HEADER + _PLACED_DEFS + f"for int i in [{start}:{step}:{stop}] {{ {body} }}\n"
        expanded = [_placed_call(c, i) for i in range(start, stop + step // abs(step), step) for c in calls]
        # each hand-expanded call compiled alone takes no template or call from another
        alone = [kir.dump(compile_source(HEADER + _PLACED_DEFS + s + "\n")).split("\n", 1)[1] for s in expanded]
        expected = "kernel qubits=9 params=th:3 classical=-\n" + "".join(alone)
        assert kir.dump(compile_source(HEADER + _PLACED_DEFS + "".join(s + "\n" for s in expanded))) == expected
        assert kir.dump(compile_source(looped)) == expected

    def test_outer_iterations_share_the_inner_placements(self):
        source = HEADER + (
            "gate g(t) a, b { cx a, b; rz(t) b; }\nqubit[3] q;\n"
            "for int r in [0:2] { for int i in [0:1] { g(0.5) q[i], q[i + 1]; } }\n"
        )
        calls = sema.analyze(fe.parse(fe.tokenize(source))).statements
        assert len(calls) == 12
        first = calls[:4]
        for k in (4, 8):
            assert all(a is b for a, b in zip(first, calls[k : k + 4]))
        assert calls[0] is not calls[2]  # i = 0 and i = 1 are two placements
        assert [(op.targets, op.controls) for c in first for op in c.ops] == [
            ((1,), ((0, 1),)), ((1,), ()), ((2,), ((1, 1),)), ((2,), ()),
        ]

    def test_templates_sit_on_their_formal_qubits(self):
        # not on the qubits of the call that compiled them; w places g on its own formals
        source = HEADER + "gate g a, b { cx a, b; h b; }\ngate w a, b { g b, a; }\nqubit[4] q;\ng q[3], q[1];\nw q[3], q[1];\n"
        analyzer = sema._Analyzer(fe.parse_source(source))
        calls = analyzer.run().statements
        g, w = analyzer.templates.values()
        assert [(op.targets, op.controls) for c in g.calls for op in c.ops] == [((1,), ((0, 1),)), ((1,), ())]
        assert [(op.targets, op.controls) for c in w.calls for op in c.ops] == [((0,), ((1, 1),)), ((0,), ())]
        assert [(op.targets, op.controls) for c in calls for op in c.ops] == [
            ((1,), ((3, 1),)), ((1,), ()), ((3,), ((1, 1),)), ((3,), ()),
        ]

    def test_signed_zero_free_angles(self):
        source = HEADER + "gate g(t) a, b { cx a, b; rz(t) b; }\nqubit[2] q;\n" + (
            "g(0.0) q[0], q[1];\ng(-0.0) q[0], q[1];\ng(0.0) q[0], q[1];\n"
        )
        assert kir.dump(compile_source(source)).splitlines()[1:] == [
            "gate x q1 +q0", "gate rz(0.0) q1",
            "gate x q1 +q0", "gate rz(-0.0) q1",
            "gate x q1 +q0", "gate rz(0.0) q1",
        ]

    def test_param_ref_and_literal(self):
        # w places g on its own qubits with a formal of its own, which must
        # not stand in for th[1] at the same targets
        source = HEADER + (
            "input array[float[64], 2] th;\ngate g(t) a, b { cx a, b; rz(t) b; }\n"
            "gate w(t) a, b { g(t) a, b; }\nqubit[2] q;\n"
            "g(0.5) q[0], q[1];\ng(th[1]) q[0], q[1];\nw(th[0]) q[0], q[1];\ng(th[1]) q[0], q[1];\n"
        )
        assert kir.dump(compile_source(source)).splitlines()[1:] == [
            "gate x q1 +q0", "gate rz(0.5) q1",
            "gate x q1 +q0", "gate rz(param1) q1",
            "gate x q1 +q0", "gate rz(param0) q1",
            "gate x q1 +q0", "gate rz(param1) q1",
        ]

    def test_ctrl_and_negctrl(self):
        source = HEADER + "gate g(t) a, b { cx a, b; rz(t) b; }\nqubit[3] q;\n" + (
            "ctrl @ g(0.5) q[2], q[0], q[1];\nnegctrl @ g(0.5) q[2], q[0], q[1];\nctrl @ g(0.5) q[2], q[0], q[1];\n"
        )
        assert kir.dump(compile_source(source)).splitlines()[1:] == [
            "gate x q1 +q2 +q0", "gate rz(0.5) q1 +q2",
            "gate x q1 -q2 +q0", "gate rz(0.5) q1 -q2",
            "gate x q1 +q2 +q0", "gate rz(0.5) q1 +q2",
        ]

    def test_inv_and_pow_apply_per_call(self):
        source = HEADER + "gate g(t) a, b { cx a, b; rz(t) b; }\nqubit[2] q;\n" + (
            "g(0.5) q[1], q[0];\ninv @ g(0.5) q[1], q[0];\npow(-2) @ g(0.5) q[1], q[0];\ng(0.5) q[1], q[0];\n"
        )
        assert kir.dump(compile_source(source)).splitlines()[1:] == [
            "gate x q0 +q1", "gate rz(0.5) q0",
            "gate rz(-0.5) q0", "gate x q0 +q1",
            "gate rz(-0.5) q0", "gate x q0 +q1", "gate rz(-0.5) q0", "gate x q0 +q1",
            "gate x q0 +q1", "gate rz(0.5) q0",
        ]
