"""The statement-level mutator: programs of the conformance and golden
corpora with whole statements inserted, deleted, swapped or wrapped in a
loop, an `if`, an `if`/`else` or a modifier. Every stage a mutant reaches
either succeeds or raises a `Qasm2CudaqError`; nothing else escapes."""

from hypothesis import given, strategies as st

from qasm2cudaq import frontend as fe, kir, sim
from qasm2cudaq.emit import EMISSION_TARGETS, emit
from qasm2cudaq.errors import Qasm2CudaqError

from conftest import CORPUS
from golden_cases import GOLDEN_CASES
from unparser import unparse

_SOURCES = [*CORPUS, *GOLDEN_CASES.values()]
_ASTS = [fe.parse_source(source) for source in _SOURCES]
_POOL = [stmt for ast in _ASTS for stmt in ast.statements]  # what an insert draws from
_AT = 0  # a span: the first token
_SIM_QUBITS = 10  # widest kernel the property samples and simulates


def _registers(stmts: list, kind: type) -> list[str]:
    return [s.name for s in stmts if type(s) is kind]


@st.composite
def _wrapped(draw, stmt: fe.Statement, stmts: list) -> fe.Statement:
    """`stmt` inside a one-trip loop, an `if` or `if`/`else` on a bit
    register, or under `ctrl`, `inv` or `pow(2)` when it is a gate call."""
    kinds = ["for", "if", "if-else"] + (["ctrl", "inv", "pow"] if type(stmt) is fe.GateCall else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "for":
        return fe.ForStatement("i", fe.IntLit(0, _AT), None, fe.IntLit(1, _AT), [stmt], _AT)
    if kind.startswith("if"):
        bit = draw(st.sampled_from(_registers(stmts, fe.BitDecl) or ["c"]))
        other = [draw(st.sampled_from(_POOL))] if kind == "if-else" else []
        return fe.IfStatement(fe.NamedRef(bit, None, _AT), [stmt], other, _AT)
    qubits = stmt.qubits
    if kind == "ctrl":  # the control takes a new leading operand
        reg = draw(st.sampled_from(_registers(stmts, fe.QubitDecl) or ["q"]))
        qubits = [fe.NamedRef(reg, fe.IntLit(draw(st.integers(0, 2)), _AT), _AT), *qubits]
    modifier = fe.Modifier("pow", fe.IntLit(2, _AT)) if kind == "pow" else fe.Modifier(kind)
    return fe.GateCall([modifier, *stmt.modifiers], stmt.name, stmt.args, qubits, _AT)


@st.composite
def mutants(draw) -> str:
    ast = draw(st.sampled_from(_ASTS))
    stmts = list(ast.statements)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["insert", "delete", "swap", "wrap"]))
        if action == "insert":
            stmts.insert(draw(st.integers(0, len(stmts))), draw(st.sampled_from(_POOL)))
        elif not stmts:
            continue
        elif action == "delete":
            del stmts[draw(st.integers(0, len(stmts) - 1))]
        elif action == "swap":
            i, j = (draw(st.integers(0, len(stmts) - 1)) for _ in range(2))
            stmts[i], stmts[j] = stmts[j], stmts[i]
        else:
            i = draw(st.integers(0, len(stmts) - 1))
            stmts[i] = draw(_wrapped(stmts[i], stmts))
    return unparse(fe.ProgramAst(ast.includes, stmts, ast.tokens))


def _typed(call, *args):
    """`call(*args)`, or None when it raises a Qasm2CudaqError."""
    try:
        return call(*args)
    except Qasm2CudaqError:
        return None


class TestStatementMutator:
    @given(mutants())
    def test_only_typed_errors_escape(self, source):
        kernel = _typed(kir.compile_source, source)
        if kernel is None:
            return
        for target in EMISSION_TARGETS:
            _typed(emit, kernel, target)
        bound = _typed(kir.bind, kernel, [0.3 + 0.1 * k for k in range(kernel.total_params)])
        if bound is None or kernel.qubit_count > _SIM_QUBITS:
            return
        _typed(sim.sample, bound, 64, 7)
        state = _typed(sim.statevector, bound)
        if state is not None:
            _typed(sim.expval_pauli, state, "".join("IXYZ"[k % 4] for k in range(kernel.qubit_count)))
