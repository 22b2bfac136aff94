"""Semantic analysis: symbol resolution, constant folding, loop unrolling,
index checking, and the lowering of every gate call to canonical gates.

Every name is classified as a compile-time constant, a runtime input
parameter, a qubit register, a classical register, or a gate definition.
Angles are literal doubles or ParamRef slots into the flat runtime-parameter
vector; `for` loops are expanded while `if` branches stay nested. Measures,
resets and barriers become the kernel's own `Measure`, `Reset` and `Nop` ops,
and an `if` keeps its `Predicate`. Each builtin call a gate call inlines
becomes one ResolvedCall with its `Gate` ops ready, through one modifier
algebra (`_algebra`); one lowering (`_Analyzer._part`) serves a call at top
level and a call in a gate body. Names resolve in plain dicts: a top-level
name reads the declarations with the loop variables in scope on top, and a
gate body reads its formals over the declarations, never a caller's loop
variables, so it means the same at every call. Once per key (the gate and
the signed values of the angle formals that shape its gates: pow exponents,
arithmetic, fixed formals of nested gates) it is compiled into a
`_Template`, the calls of its body over its formal qubits 0 to k-1 with
nested user gates placed in them. A formal used only as a whole angle stays
free: it has one placeholder, whatever a call passes, which each call binds
when it places the template on its qubits; a literal placed in an inverted
rotation is inverted as a literal. Each call builds its own placement, then
applies its own inv/pow; calls are shared only between the replicas of a pow
and the repeats of an invariant loop, and a plain placement is the
template's own calls (see `ResolvedCall`). Every expansion is counted
against UNROLL_CAP before its calls exist; a zero pow product builds nothing
and walks no body, so the count only grows.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from . import frontend as fe
from ._gc import gc_paused
from .errors import (
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
)

UNROLL_CAP = 1 << 20
_INT_BOUND = 10**fe.MAX_INT_DIGITS  # the least integer of more digits than any literal


class SymbolKind(Enum):
    COMPILE_TIME_CONST = "compile-time-const"
    RUNTIME_INPUT = "runtime-input"
    QUBIT_REGISTER = "qubit-register"
    CLASSICAL_REGISTER = "classical-register"
    GATE_DEFINITION = "gate-definition"


# The members in declaration order, by short names: reading a member off an
# Enum class costs several dict lookups, and sema checks kinds on every call.
_CONST, _INPUT, _QUBITS, _BITS, _GATE = SymbolKind


@dataclass
class SymbolEntry:
    kind: SymbolKind
    size: int
    const_value: float | int | None


# A name table: the declarations (all top level), the loop variables in
# scope over them, or a gate body's formals over the declarations.
Symbols = dict[str, SymbolEntry]


def _lookup(table: Symbols, name: str, span: fe.Span) -> SymbolEntry:
    entry = table.get(name)
    if entry is None:
        raise UndefinedName(f"undefined name '{name}'", span)
    return entry


@dataclass(frozen=True)
class ParamRef:
    """Symbolic reference to one element of the flat runtime-parameter vector."""

    slot: int


Angle = float | ParamRef


@dataclass
class ParamSpec:
    name: str
    count: int
    array: bool
    offset: int


CANONICAL_BASES = frozenset("x y z h s t sx rx ry rz p u swap".split())

# Positive controls require the qubit to read 1, negative controls 0.
POS = 1
NEG = 0

_SELF_INVERSE = frozenset("x y z h swap".split())
_NEGATED = frozenset("rx ry rz p u".split())  # inverted by negating literal angles


@dataclass(slots=True)
class Gate:
    """One canonical gate op. Ops are shared between calls and kernels (see
    `ResolvedCall`), so they are read-only."""

    base: str
    angles: tuple[Angle, ...]
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...]  # (qubit, POS|NEG)
    adjoint: bool = False


@dataclass(slots=True)
class Measure:
    """One executed measure: `qubit` read into the classical `bit`."""

    qubit: int
    bit: tuple[str, int]


@dataclass(slots=True)
class Reset:
    qubit: int


@dataclass(slots=True)
class Nop:
    qubits: tuple[int, ...] = ()


@dataclass(slots=True)
class Predicate:
    register: str
    index: int | None  # None = whole register, compared MSB-first as unsigned
    comparator: str  # == != < <= > >= truthy
    rhs: int = 0


def _literal_inverse(base: str, angles: tuple) -> tuple | None:
    """The inverse's angles of an rx/ry/rz/p/u gate with literal angles, each
    negated (u's (th, ph, la) as (-th, -la, -ph)); else None."""
    if base not in _NEGATED or any(isinstance(a, ParamRef) for a in angles):
        return None
    return (-angles[0], -angles[2], -angles[1]) if base == "u" else (-angles[0],)


def _invert_gate(g: Gate) -> Gate:
    """Adjoint of a canonical gate.

    Literal rotation angles are negated in place, so no rotation with
    literal angles holds the adjoint flag; self-inverse bases are unchanged;
    everything else (s/t/sx and symbolic-angle rotations) toggles the flag.
    """
    if g.base in _SELF_INVERSE and not g.adjoint:
        return g
    if not g.adjoint and (angles := _literal_inverse(g.base, g.angles)) is not None:
        return Gate(g.base, angles, g.targets, g.controls, False)
    return Gate(g.base, g.angles, g.targets, g.controls, not g.adjoint)


Algebra = tuple[tuple[str, int | None], ...]  # ("inv", None) | ("pow", k), outermost first


def _algebra(items: list, algebra: Algebra, invert) -> list:
    """Apply inv/pow modifiers innermost first: `inv` reverses the sequence
    and inverts each item; `pow(k)` replicates it |k| times, inverting first
    when k < 0, and a zero exponent empties it before any replica exists.
    Items are gates (one builtin call) or calls (a user gate)."""
    if ("pow", 0) in algebra:
        return []
    for kind, k in reversed(algebra):
        if kind == "inv" or k < 0:
            items = [invert(item) for item in reversed(items)]
        if kind == "pow":
            items = items * abs(k)
    return items


def _pow_product(algebra: Algebra) -> int:
    """Replicas the modifiers make: the product of the |pow| exponents."""
    return math.prod(abs(k) for kind, k in algebra if kind == "pow")


@dataclass(slots=True)
class ResolvedCall:
    """The canonical gates of one builtin call. Calls and their ops are
    shared between the replicas of a `pow` and the repeats of an invariant
    loop (`resolve_for`), which share all of the first's; a plain placement
    of a template is the template's own calls. That holds in
    `ValidatedProgram.statements` and `Kernel.body` alike: read-only."""

    ops: list[Gate]


def _invert_call(c: ResolvedCall) -> ResolvedCall:
    return ResolvedCall([_invert_gate(g) for g in reversed(c.ops)])


@dataclass(frozen=True)
class _FormalRef(ParamRef):
    """A template angle: the one placeholder of free angle formal `slot`,
    whatever its calls pass; inverting it toggles the adjoint flag."""


def _signed(values: tuple) -> tuple:
    """`values` as a key: 0.0 and -0.0 hash alike, but inversion and the
    dump tell them apart, so the sign of each zero is appended."""
    return values + tuple([math.copysign(1.0, a) for a in values if a == 0]) if 0 in values else values


@dataclass
class _Template:
    """A user gate body compiled once per key, the gate and its signed fixed
    angles (see `_Analyzer._template`), over its formal qubits 0 to k-1, with
    one placeholder per free formal. Each call places it anew; only a
    plain placement shares its calls. No check of its walk saw more than
    `count`: the count only grows (see `_Analyzer._part`)."""

    count: int  # canonical gates one plain call lowers to
    height: int  # definitions it nests, itself included
    free: bool  # some angle formal is bound when the template is placed
    unwalked: frozenset[str]  # gates called under a zero pow product at any depth, bodies unwalked
    calls: list[ResolvedCall]  # the body's calls, on the formal qubits

    def place(self, targets: list[int], controls: tuple, algebra: Algebra, angles: list) -> list[ResolvedCall]:
        """The calls with formal qubit i moved to `targets[i]`, `controls`
        prepended and each placeholder `_FormalRef(i)` bound to `angles[i]`:
        a literal placed in an inverted rotation is inverted as a literal,
        rz(-0.5) and not a flagged rz(0.5). Then a caller's inv/pow through
        `_algebra`. A plain placement (no controls, no free formal, on qubits
        0 to k-1 in order) is the template's own calls."""
        calls = self.calls
        if controls or self.free or targets != list(range(len(targets))):
            where = targets.__getitem__
            bind = angles if self.free else None
            moved = []
            for c in calls:
                ops = []
                for g in c.ops:
                    inner = controls + tuple([(where(q), pol) for q, pol in g.controls]) if g.controls else controls
                    args, adjoint = g.angles, g.adjoint
                    if bind and args:
                        args = tuple([bind[a.slot] if type(a) is _FormalRef else a for a in args])
                        if adjoint and (inverse := _literal_inverse(g.base, args)) is not None:
                            args, adjoint = inverse, False
                    ops.append(Gate(g.base, args, tuple(map(where, g.targets)), inner, adjoint))
                moved.append(ResolvedCall(ops))
            calls = moved
        return _algebra(calls, algebra, _invert_call)


def _expr_names(expr: fe.Expr | None, out: set[str]) -> None:
    """Every name an expression mentions."""
    if isinstance(expr, fe.NamedRef):
        out.add(expr.name)
        _expr_names(expr.index, out)
    elif isinstance(expr, fe.Unary):
        _expr_names(expr.operand, out)
    elif isinstance(expr, fe.Binary):
        _expr_names(expr.lhs, out)
        _expr_names(expr.rhs, out)


def _gate_loop_names(stmts: list[fe.Statement], out: set[str]) -> bool:
    """Whether `stmts` hold only gate calls and loops of them; if so, `out`
    gets every name their operands, angles, pow exponents and loop bounds
    mention."""
    for stmt in stmts:
        if type(stmt) is fe.GateCall:
            for expr in stmt.args + stmt.qubits:
                _expr_names(expr, out)
            for mod in stmt.modifiers:
                _expr_names(mod.exponent, out)
        elif type(stmt) is fe.ForStatement:
            for expr in (stmt.start, stmt.step, stmt.stop):
                _expr_names(expr, out)
            if not _gate_loop_names(stmt.body, out):
                return False
        else:
            return False
    return True


@dataclass
class ResolvedIf:
    """An `if` before lowering; kir.lower checks it and makes it a CondBlock."""

    predicate: Predicate
    then_body: list["ResolvedStatement"]
    else_body: list["ResolvedStatement"]
    span: fe.Span


ResolvedStatement = ResolvedCall | Measure | Reset | Nop | ResolvedIf


@dataclass
class ValidatedProgram:
    symbols: Symbols  # the declarations
    statements: list[ResolvedStatement]
    qubit_count: int
    qubit_layout: list[tuple[str, int]]
    param_layout: list[ParamSpec]
    classical_layout: list[tuple[str, int]]
    tokens: fe.TokenStream = field(compare=False, repr=False)  # what the spans index


# name -> (angle count, qubit count, canonical base, leading named controls, adjoint)
BUILTIN_GATES: dict[str, tuple[int, int, str, int, bool]] = {
    "x": (0, 1, "x", 0, False), "y": (0, 1, "y", 0, False), "z": (0, 1, "z", 0, False),
    "h": (0, 1, "h", 0, False), "s": (0, 1, "s", 0, False), "sdg": (0, 1, "s", 0, True),
    "t": (0, 1, "t", 0, False), "tdg": (0, 1, "t", 0, True), "sx": (0, 1, "sx", 0, False),
    "rx": (1, 1, "rx", 0, False), "ry": (1, 1, "ry", 0, False), "rz": (1, 1, "rz", 0, False),
    "p": (1, 1, "p", 0, False), "u": (3, 1, "u", 0, False), "swap": (0, 2, "swap", 0, False),
    "cx": (0, 2, "x", 1, False), "cy": (0, 2, "y", 1, False), "cz": (0, 2, "z", 1, False),
    "ch": (0, 2, "h", 1, False), "crz": (1, 2, "rz", 1, False), "cp": (1, 2, "p", 1, False),
    "ccx": (0, 3, "x", 2, False),
}


def const_eval(expr: fe.Expr, symbols: Symbols) -> float | int:
    """Evaluate a compile-time-constant expression to a double or exact int.

    Division yields an int only when both operands are ints and the division
    is exact; otherwise a double. Raises NotConst for runtime inputs and
    registers, DivByZero on zero divisors, and NonFiniteConst at the first
    operation whose result is inf or NaN, overflows a double, or is an int
    of more digits than a literal may have (MAX_INT_DIGITS).
    """
    kind = type(expr)
    if kind is fe.FloatLit or kind is fe.IntLit:
        return expr.value
    if kind is fe.Unary:
        return -const_eval(expr.operand, symbols)
    if kind is fe.PiConst:
        return math.pi
    if kind is fe.NamedRef:
        entry = _lookup(symbols, expr.name, expr.span)
        if entry.kind is not _CONST:
            raise NotConst(
                f"'{expr.name}' is a {entry.kind.value}, not a compile-time constant",
                expr.span,
            )
        if expr.index is not None:
            raise NotConst(f"constant '{expr.name}' is a scalar and cannot be indexed", expr.span)
        return entry.const_value
    if kind is fe.Binary:
        lhs = const_eval(expr.lhs, symbols)
        rhs = const_eval(expr.rhs, symbols)
        if expr.op == "/" and rhs == 0:
            raise DivByZero("division by zero in constant expression", expr.span)
        try:
            if expr.op == "+":
                value = lhs + rhs
            elif expr.op == "-":
                value = lhs - rhs
            elif expr.op == "*":
                value = lhs * rhs
            elif isinstance(lhs, int) and isinstance(rhs, int) and lhs % rhs == 0:
                value = lhs // rhs
            else:
                value = lhs / rhs
        except OverflowError:  # an int operand or quotient past a double's range
            value = math.inf
        if type(value) is float and not math.isfinite(value):
            raise NonFiniteConst(f"constant expression folds to {value}", expr.span)
        if type(value) is int and not -_INT_BOUND < value < _INT_BOUND:
            raise NonFiniteConst(
                f"constant expression folds to an integer of more than {fe.MAX_INT_DIGITS} digits", expr.span
            )
        return value
    raise NotConst("not a constant arithmetic expression", expr.span)


def _to_double(value: float | int, span: fe.Span) -> float:
    try:
        return float(value)
    except OverflowError:
        raise NonFiniteConst("constant is out of a double's range", span) from None


def _const_int(expr: fe.Expr, symbols: Symbols, what: str, exc=SemaError, inexact=None) -> int:
    """expr folded to an int. Raises `exc` when it is not a compile-time
    constant, and `inexact` (default `exc`) when it is one but not an integer."""
    try:
        value = const_eval(expr, symbols)
    except NotConst as err:
        raise exc(f"{what} must be a compile-time integer: {err.message}", expr.span) from err
    if isinstance(value, float):
        if not value.is_integer():
            raise (inexact or exc)(f"{what} must be an integer, got {value}", expr.span)
        value = int(value)
    return value


def _trip_count(start: int, stop: int, step: int) -> int:
    """Iterations of `for v in [start:step:stop]` (stop inclusive)."""
    span = stop - start if step > 0 else start - stop
    return max(0, span // abs(step) + 1)


def _literal_int(expr: fe.Expr) -> int | None:
    """The integer an expression of literals folds to, else None. An
    expression that names anything may fold differently where it is used."""
    try:
        value = const_eval(expr, {})
    except SemaError:
        return None
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    return value


def _literal_trips(stmt: fe.ForStatement) -> int:
    """The loop's trip count when its bounds are literals, else 0."""
    bounds = [_literal_int(e) for e in (stmt.start, stmt.stop)]
    bounds.append(1 if stmt.step is None else _literal_int(stmt.step))
    if None in bounds or bounds[2] == 0:
        return 0
    return _trip_count(*bounds)


def _pow_floor(modifiers: list[fe.Modifier]) -> int:
    """A lower bound on the replicas the modifiers make: the product of the
    literal |pow| exponents, with 0 for an exponent that names anything."""
    floor = 1
    for mod in modifiers:
        if mod.kind == "pow":
            k = _literal_int(mod.exponent)
            floor *= 0 if k is None else abs(k)
    return floor


def _min_cost(stmts: list[fe.Statement]) -> int:
    """A lower bound on the budget the statements take, found without
    resolving them: every gate call, barrier, if and loop iteration takes at
    least 1, and a loop counts only when its bounds are literals."""
    total = 0
    for stmt in stmts:
        if isinstance(stmt, (fe.GateCall, fe.Barrier)):
            total += 1
        elif isinstance(stmt, fe.IfStatement):
            total += 1 + _min_cost(stmt.then_body) + _min_cost(stmt.else_body)
        elif isinstance(stmt, fe.ForStatement):
            total += _literal_trips(stmt) * max(1, _min_cost(stmt.body))
    return total


def _repeated(call: fe.GateCall) -> DuplicateQubitArg:
    return DuplicateQubitArg(f"gate '{call.name}' applied with a repeated qubit operand", call.span)


def _check_declared(what: str, size: int, span: fe.Span) -> None:
    """Refuse a register or input array of more than UNROLL_CAP elements at
    its declaration, before any operand list, broadcast or parameter name
    spans it."""
    if size > UNROLL_CAP:
        raise ProgramTooLarge(f"{what} of {size} elements exceeds the limit of {UNROLL_CAP}", span)


class _Analyzer:
    def __init__(self, ast: fe.ProgramAst):
        self.ast = ast
        self.globals: Symbols = {}  # every declaration
        # what a top-level name reads: the globals, loop variables in scope on top
        self.visible: Symbols = {}
        self.has_stdgates = "stdgates.inc" in ast.includes
        self.gate_defs: dict[str, fe.GateDef] = {}
        self.qubit_layout: list[tuple[str, int]] = []
        self.qubit_base: dict[str, int] = {}
        self.classical_layout: list[tuple[str, int]] = []
        self.param_layout: list[ParamSpec] = []
        self.param_offset: dict[str, ParamSpec] = {}
        self.qubit_count = 0
        # statements built, plus the gates of the gate call being inlined
        self.stmt_count = 0
        self.min_costs: dict[str, int] = {}
        self.templates: dict[tuple, _Template] = {}
        # per gate, per angle formal: whether it is free (see `declare`)
        self.free_formals: dict[str, tuple[bool, ...]] = {}

    # -- declarations -------------------------------------------------------
    def _define(self, name: str, entry: SymbolEntry, span: fe.Span) -> None:
        if name in self.globals:
            raise Redefinition(f"redefinition of '{name}'", span)
        self.globals[name] = self.visible[name] = entry

    def declare(self, stmt: fe.Statement) -> None:
        if isinstance(stmt, (fe.QubitDecl, fe.BitDecl)):
            qubit = isinstance(stmt, fe.QubitDecl)
            what = "qubit" if qubit else "bit"
            if stmt.size < 1:
                raise SemaError(f"{what} register '{stmt.name}' must have size >= 1", stmt.span)
            _check_declared(f"{what} register '{stmt.name}'", stmt.size, stmt.span)
            kind = _QUBITS if qubit else _BITS
            self._define(stmt.name, SymbolEntry(kind, stmt.size, None), stmt.span)
            if qubit:
                self.qubit_base[stmt.name] = self.qubit_count
                self.qubit_count += stmt.size
            (self.qubit_layout if qubit else self.classical_layout).append((stmt.name, stmt.size))
        elif isinstance(stmt, fe.InputDecl):
            if stmt.count < 1:
                raise SemaError(f"input '{stmt.name}' must have at least one element", stmt.span)
            _check_declared(f"input '{stmt.name}'", stmt.count, stmt.span)
            self._define(stmt.name, SymbolEntry(_INPUT, stmt.count, None), stmt.span)
            offset = sum(p.count for p in self.param_layout)
            spec = ParamSpec(stmt.name, stmt.count, stmt.array, offset)
            self.param_layout.append(spec)
            self.param_offset[stmt.name] = spec
        elif isinstance(stmt, fe.ConstDecl):
            value = const_eval(stmt.expr, self.visible)
            if stmt.is_int and isinstance(value, float):
                if not value.is_integer():
                    raise SemaError(f"const int '{stmt.name}' initializer is not an integer", stmt.span)
                value = int(value)
            elif not stmt.is_int:
                value = _to_double(value, stmt.span)
            self._define(stmt.name, SymbolEntry(_CONST, 1, value), stmt.span)
        elif isinstance(stmt, fe.GateDef):
            if stmt.name in BUILTIN_GATES and self.has_stdgates:
                raise Redefinition(f"'{stmt.name}' shadows a standard gate", stmt.span)
            self._define(stmt.name, SymbolEntry(_GATE, len(stmt.qubits), None), stmt.span)
            if len(set(stmt.qubits)) != len(stmt.qubits) or len(set(stmt.params)) != len(stmt.params):
                raise Redefinition(f"duplicate formal name in gate '{stmt.name}'", stmt.span)
            self.gate_defs[stmt.name] = stmt
            # A formal is free when the body uses it only as a whole angle of
            # a builtin call or of an earlier gate's free formal: its value
            # then shapes no gate count or error, so a template binds it when
            # placed.
            fixed: set[str] = set()
            for call in stmt.body:
                if self.has_stdgates and call.name in BUILTIN_GATES:
                    passes = (True,) * len(call.args)
                else:
                    passes = self.free_formals.get(call.name, ())
                for i, expr in enumerate(call.args + [m.exponent for m in call.modifiers if m.kind == "pow"]):
                    if not (i < len(passes) and passes[i] and isinstance(expr, fe.NamedRef) and expr.index is None):
                        _expr_names(expr, fixed)
            self.free_formals[stmt.name] = tuple(p not in fixed for p in stmt.params)

    # -- operand resolution -------------------------------------------------
    def _index(self, ref: fe.NamedRef, size: int, what: str, where: str, symbols: Symbols) -> int:
        """The constant index of `ref`, folded in `symbols` and checked
        against `size`. `where` names the indexed object, formatted with the
        name and size when it raises. A literal index, the common case,
        needs no fold."""
        idx = ref.index.value if type(ref.index) is fe.IntLit else _const_int(ref.index, symbols, what)
        if not 0 <= idx < size:
            raise IndexOutOfRange(f"index {idx} out of range for {where.format(ref.name, size)}", ref.span)
        return idx

    def _operand(self, ref: fe.NamedRef) -> int | range:
        """The flat id of the qubit a ref names, or a whole register's ids
        as a range (a register of one qubit is a single qubit)."""
        entry = _lookup(self.visible, ref.name, ref.span)
        if entry.kind is not _QUBITS:
            raise SemaError(f"'{ref.name}' is a {entry.kind.value}, not a qubit register", ref.span)
        base, index = self.qubit_base[ref.name], ref.index
        if type(index) is fe.IntLit and 0 <= index.value < entry.size:
            return base + index.value
        if index is None:
            return range(base, base + entry.size) if entry.size > 1 else base
        return base + self._index(ref, entry.size, "qubit index", "qubit register '{}' of size {}", self.visible)

    def resolve_qubits(self, ref: fe.NamedRef) -> range | list[int]:
        """The flat ids a qubit ref names: one qubit, or a whole register's."""
        ids = self._operand(ref)
        return ids if type(ids) is range else [ids]

    def resolve_bits(self, ref: fe.NamedRef) -> list[tuple[str, int]]:
        """The (register, index) bits a classical ref names: one bit, or a
        whole register's (a register of one bit is a single bit)."""
        entry = _lookup(self.visible, ref.name, ref.span)
        if entry.kind is not _BITS:
            raise SemaError(f"'{ref.name}' is a {entry.kind.value}, not a bit register", ref.span)
        if ref.index is None:
            return [(ref.name, i) for i in range(entry.size)]
        return [(ref.name, self._index(ref, entry.size, "bit index", "bit register '{}' of width {}", self.visible))]

    def resolve_angle(self, expr: fe.Expr, symbols: Symbols, formals: dict | None = None) -> Angle:
        """Resolve a gate argument to a literal double or a ParamRef slot,
        reading names in `symbols` alone.

        Arithmetic is folded only over compile-time constants; a runtime
        input may appear solely as a bare (optionally indexed) reference.
        In a gate body `symbols` holds the formals over the global scope, a
        bare formal is its bound angle in `formals`, and an indexed one
        folds like any other expression, so it raises NotConst.
        """
        if type(expr) is fe.NamedRef:
            if formals and expr.name in formals:
                if expr.index is None:
                    return formals[expr.name]
            elif (entry := symbols.get(expr.name)) is not None and entry.kind is _INPUT:
                spec = self.param_offset[expr.name]
                if expr.index is None:
                    if spec.array:
                        raise SemaError(
                            f"parameter array '{expr.name}' needs an element index", expr.span
                        )
                    return ParamRef(spec.offset)
                idx = self._index(expr, spec.count, "parameter index", "parameter '{}' of {} elements", symbols)
                return ParamRef(spec.offset + idx)
        value = const_eval(expr, symbols)
        return value if type(value) is float else _to_double(value, expr.span)

    # -- gate calls ---------------------------------------------------------
    def _modifiers(self, mods: list[fe.Modifier], symbols: Symbols) -> tuple[tuple[int, ...], Algebra]:
        """A modifier chain as control polarities, one per leading operand,
        and the inv/pow algebra with each exponent folded in `symbols`."""
        polarity: list[int] = []
        algebra: list[tuple[str, int | None]] = []
        for mod in mods:
            if mod.kind == "pow":
                algebra.append(("pow", _const_int(mod.exponent, symbols, "pow exponent", exc=NotConst, inexact=SemaError)))
            elif mod.kind == "inv":
                algebra.append(("inv", None))
            else:
                polarity.append(POS if mod.kind == "ctrl" else NEG)
        return tuple(polarity), tuple(algebra)

    def _callee(self, call: fe.GateCall, n_ctrl: int, strict: bool) -> fe.GateDef | tuple:
        """The user gate a call names, or the builtin's BUILTIN_GATES spec,
        with its arity checked. A top-level call (`strict`) reads the name
        where it stands, and a name bound to a non-gate is an error; a call
        in a gate body reads the global scope, and a non-gate falls through
        to the builtins."""
        entry = (self.visible if strict else self.globals).get(call.name)
        if entry is not None and entry.kind is _GATE:
            callee = self.gate_defs[call.name]
            n_angles, n_qubits = len(callee.params), len(callee.qubits)
        elif strict and entry is not None:
            raise SemaError(f"'{call.name}' is a {entry.kind.value}, not a gate", call.span)
        elif (callee := BUILTIN_GATES.get(call.name)) and self.has_stdgates:
            n_angles, n_qubits = callee[0], callee[1]
        else:
            missing = "" if self.has_stdgates else ' (missing include "stdgates.inc"?)'
            raise UndefinedName(f"undefined gate '{call.name}'{missing}", call.span)

        if len(call.args) != n_angles:
            raise ArityMismatch(
                f"gate '{call.name}' takes {n_angles} angle(s), got {len(call.args)}", call.span
            )
        if len(call.qubits) != n_qubits + n_ctrl:
            raise ArityMismatch(
                f"gate '{call.name}' with {n_ctrl} control modifier(s) takes "
                f"{n_qubits + n_ctrl} qubit operand(s), got {len(call.qubits)}",
                call.span,
            )
        return callee

    def resolve_call(self, stmt: fe.GateCall) -> list[ResolvedCall]:
        polarity, algebra = self._modifiers(stmt.modifiers, self.visible) if stmt.modifiers else ((), ())
        callee = self._callee(stmt, len(polarity), True)
        angles = [self.resolve_angle(a, self.visible) for a in stmt.args] if stmt.args else []
        operands, whole = [], False
        for ref in stmt.qubits:  # a loop, not a comprehension: most calls have one or two
            operands.append(ids := self._operand(ref))
            whole = whole or type(ids) is range
        if whole:
            positions = self._broadcast(stmt, operands)
        elif len(operands) > 1 and len(set(operands)) != len(operands):
            raise _repeated(stmt)
        else:
            positions = (operands,)
        out: list[ResolvedCall] = []
        for qubits in positions:
            before = self.stmt_count
            out += self._part(stmt, callee, qubits, polarity, algebra, angles, stmt.span, ())[0]
            if self.stmt_count == before:  # a position that builds nothing still costs 1
                self._bump(stmt.span)
        return out

    def _part(self, call, callee, qubits, polarity, algebra, angles, span, stack):
        """One gate call over resolved operands, its gates counted, as
        (calls, definitions it nests, gates it names unwalked): a builtin
        call's one ResolvedCall, or a user gate's template placed on the
        operands. A builtin checks the budget at `span`, the enclosing call's
        in a gate body. Its gate takes modifier controls (one leading operand
        per polarity), then the named gate's own controls, then targets. A
        user gate under a zero pow product, once checked for recursion and
        depth, is not walked, as for a gate never called: it builds nothing,
        is one definition deep and names itself unwalked (see `_template`)."""
        if type(callee) is tuple:
            self.stmt_count = self._check_budget(_pow_product(algebra) if algebra else 1, span)
            _, _, base, named, adjoint = callee
            n = len(polarity) + named
            controls = tuple(zip(qubits, polarity + (POS,) * named)) if n else ()
            gate = Gate(base, tuple(angles), tuple(qubits[n:]) if n else tuple(qubits), controls, adjoint)
            return [ResolvedCall(_algebra([gate], algebra, _invert_gate) if algebra else [gate])], 0, ()
        name, at = call.name, call.span
        if name in stack:
            raise RecursiveGateDef(f"recursive gate definition: {' -> '.join(stack + (name,))}", at)
        if len(stack) >= fe.MAX_NESTING:  # inlining recurses once per level
            raise ProgramTooLarge(f"gate '{name}' is inlined more than {fe.MAX_NESTING} definitions deep", at)
        if ("pow", 0) in algebra:
            return [], 1, (name,)
        template = self._template(name, algebra, angles, at, stack)
        placed = template.place(qubits[len(polarity) :], tuple(zip(qubits, polarity)), algebra, angles)
        return placed, template.height, template.unwalked

    def _broadcast(self, stmt: fe.GateCall, operands: list) -> Iterator[list[int]]:
        """The positions of a call with whole-register operands, one at a
        time: same-width registers zip elementwise, single qubits broadcast
        across positions. Raises before listing any position that would
        repeat a qubit: a register named whole twice, or whole and by one of
        its qubits, or a qubit named twice."""
        widths = {len(op) for op in operands if type(op) is range}
        if len(widths) > 1:
            raise ArityMismatch(
                f"mismatched register widths {sorted(widths)} in one gate call", stmt.span
            )
        # a register named whole keys its qubits by its name, so a repeat is a key met twice
        whole = {ref.name for ref, op in zip(stmt.qubits, operands) if type(op) is range}
        keys = [ref.name if ref.name in whole else op for ref, op in zip(stmt.qubits, operands)]
        if len(set(keys)) < len(keys):
            raise _repeated(stmt)
        return ([op[i] if type(op) is range else op for op in operands] for i in range(widths.pop()))

    def _template(self, name: str, algebra: Algebra, angles: list, span: fe.Span, stack: tuple) -> _Template:
        """The template of user gate `name` for `angles`, keyed by the gate
        and its signed fixed angles, as free formals are placeholders; one
        call under `algebra`, whose pow product is not zero (see `_part`),
        leaves its gates counted. The checks are those of walking the body
        here, in order: a lower bound on the cost, the body, then its count
        times the pow product, before the replicas exist. As the count only
        grows, a template is reused where its count fits the budget, its
        height the nesting limit, and no gate it left unwalked is on the
        stack; else the body is walked again, to raise at the same call as
        before."""
        product = _pow_product(algebra)
        self._check_budget(self._gate_min_cost(name) * product, span)
        base = self.stmt_count
        # Of what a body reads, only the fixed angles can differ between
        # calls: its other names are global.
        free = self.free_formals[name]
        key = (name, _signed(tuple([a for a, f in zip(angles, free) if not f])))
        template = self.templates.get(key)
        reuse = template and base + template.count <= UNROLL_CAP and template.unwalked.isdisjoint(stack)
        if not (reuse and len(stack) + template.height <= fe.MAX_NESTING):
            template = self._compile(self.gate_defs[name], angles, span, stack + (name,))
            self.templates[key] = template
        self.stmt_count = base
        self._bump(span, template.count * product)  # before the replicas are built
        return template

    def _compile(self, gate_def: fe.GateDef, angles: list, span: fe.Span, stack: tuple) -> _Template:
        """Walk a gate body once, over its formal qubits 0 to k-1, placing a
        nested user gate where it is called. `stmt_count` counts the
        gates built into the bodies of every inline in progress, so sibling
        bodies cannot each grow to the cap; the body stays counted there.
        A call under a zero pow product charges nothing and walks no body.
        Each free formal is bound to its one placeholder, `_FormalRef(i)`,
        whatever the call passes."""
        # The body never folds a placeholder (it is only ever a whole
        # angle), and placing the template replaces it. The body's names
        # resolve in one table: the formals over the globals. Only bare
        # references to a formal bound to a ParamRef are representable.
        free = self.free_formals[gate_def.name]
        formals: dict[str, Angle] = {}
        scoped = dict(self.globals)
        for i, (name, value) in enumerate(zip(gate_def.params, angles)):
            formals[name] = value = _FormalRef(i) if free[i] else value
            runtime = isinstance(value, ParamRef)
            scoped[name] = SymbolEntry(_INPUT if runtime else _CONST, 1, None if runtime else value)
        slots = {name: i for i, name in enumerate(gate_def.qubits)}
        base = self.stmt_count
        calls: list[ResolvedCall] = []
        height = 1
        unwalked: set[str] = set()
        for call in gate_def.body:
            polarity, algebra = self._modifiers(call.modifiers, scoped) if call.modifiers else ((), ())
            qubits = []
            for ref in call.qubits:
                if ref.index is not None or ref.name not in slots:
                    raise UndefinedName(
                        f"unknown qubit '{ref.name}' in gate body (formals: {sorted(slots)})",
                        ref.span,
                    )
                qubits.append(slots[ref.name])
            callee = self._callee(call, len(polarity), strict=False)
            if len(set(qubits)) != len(qubits):
                raise _repeated(call)
            call_angles = [self.resolve_angle(a, scoped, formals) for a in call.args]
            placed, nested, names = self._part(call, callee, qubits, polarity, algebra, call_angles, span, stack)
            calls += placed
            height = max(height, nested + 1)
            unwalked.update(names)
        return _Template(self.stmt_count - base, height, True in free, frozenset(unwalked), calls)

    def _gate_min_cost(self, name: str, depth: int = 0) -> int:
        """A lower bound on the calls one plain call of user gate `name`
        inlines to, memoised. A cycle or a chain deeper than MAX_NESTING
        counts 0; inlining raises on both."""
        if name not in self.min_costs:
            self.min_costs[name] = 0
            if depth < fe.MAX_NESTING:
                self.min_costs[name] = sum(
                    _pow_floor(call.modifiers)
                    * (self._gate_min_cost(call.name, depth + 1) if call.name in self.gate_defs else 1)
                    for call in self.gate_defs[name].body
                )
        return self.min_costs[name]

    # -- statements ---------------------------------------------------------
    def _check_budget(self, cost: int, span: fe.Span) -> int:
        """Raise before building statements that would take the program
        past UNROLL_CAP. Returns the count with them, which only grows
        (nothing charged is discarded): a walk's last check is its highest."""
        need = self.stmt_count + cost
        if need > UNROLL_CAP:
            raise ProgramTooLarge(f"program exceeds {UNROLL_CAP} statements after loop unrolling", span)
        return need

    def _bump(self, span: fe.Span, by: int = 1) -> None:
        self.stmt_count = self._check_budget(by, span)

    def resolve_statements(self, stmts: list[fe.Statement]) -> list[ResolvedStatement]:
        out: list[ResolvedStatement] = []
        for stmt in stmts:
            if type(stmt) is fe.GateCall:
                out += self.resolve_call(stmt)  # bumps by the gates it lowers to
            elif isinstance(stmt, (fe.QubitDecl, fe.BitDecl, fe.InputDecl, fe.ConstDecl, fe.GateDef)):
                self.declare(stmt)  # the parser allows them at top level only
            elif isinstance(stmt, fe.MeasureAssign):
                out.extend(self.resolve_measure(stmt))
            elif isinstance(stmt, fe.Reset):
                for q in self.resolve_qubits(stmt.target):
                    self._bump(stmt.span)
                    out.append(Reset(q))
            elif isinstance(stmt, fe.Barrier):
                qubits: list[int] = []
                for ref in stmt.targets:  # each qubit costs 1, charged before it is listed
                    ids = self.resolve_qubits(ref)
                    self._bump(stmt.span, len(ids))
                    qubits += ids
                if not stmt.targets:
                    self._bump(stmt.span)
                out.append(Nop(tuple(qubits)))
            elif isinstance(stmt, fe.IfStatement):
                out.append(self.resolve_if(stmt))
            elif isinstance(stmt, fe.ForStatement):
                out.extend(self.resolve_for(stmt))
            else:
                raise SemaError(f"unhandled statement {type(stmt).__name__}", stmt.span)
        return out

    def resolve_measure(self, stmt: fe.MeasureAssign) -> list[Measure]:
        qubits = self.resolve_qubits(stmt.source)
        bits = self.resolve_bits(stmt.target)
        if len(qubits) > 1 and len(bits) > 1 and len(qubits) != len(bits):
            raise ArityMismatch(
                f"cannot measure {len(qubits)}-qubit register into {len(bits)}-bit register",
                stmt.span,
            )
        if (len(qubits) > 1) != (len(bits) > 1):
            raise ArityMismatch(
                "measure needs a single qubit and a single bit, or two same-width registers",
                stmt.span,
            )
        ops = [Measure(q, bit) for q, bit in zip(qubits, bits)]
        self._bump(stmt.span, len(ops))
        return ops

    def resolve_if(self, stmt: fe.IfStatement) -> ResolvedIf:
        cond = stmt.condition
        if isinstance(cond, fe.Comparison):
            subject_ref, comparator = cond.lhs, cond.op
            rhs = _const_int(cond.rhs, self.visible, "comparison right-hand side")
            if rhs < 0:
                raise SemaError("comparison against a negative value", cond.span)
        else:
            subject_ref, comparator, rhs = cond, "truthy", 0
        bits = self.resolve_bits(subject_ref)
        predicate = Predicate(subject_ref.name, bits[0][1] if len(bits) == 1 else None, comparator, rhs)
        then_body = self.resolve_statements(stmt.then_body)
        else_body = self.resolve_statements(stmt.else_body)
        self._bump(stmt.span)
        return ResolvedIf(predicate, then_body, else_body, stmt.span)

    def resolve_for(self, stmt: fe.ForStatement) -> list[ResolvedStatement]:
        """The loop unrolled. An invariant loop (only gate calls and loops of
        them that do not mention the variable, which no gate body can read)
        is resolved once: if its first iteration's count, repeated, fits
        under UNROLL_CAP, the repeats are charged at once and share its
        calls, read-only (see `ResolvedCall`). The count only grows, so each
        repeat would pass every check the first passed. Else, and for any
        other loop, each iteration is resolved, raising where it always did."""
        start = _const_int(stmt.start, self.visible, "loop bound", exc=NonConstLoopBound)
        stop = _const_int(stmt.stop, self.visible, "loop bound", exc=NonConstLoopBound)
        step = 1
        if stmt.step is not None:
            step = _const_int(stmt.step, self.visible, "loop step", exc=NonConstLoopBound)
            if step == 0:
                raise NonConstLoopBound("loop step must be nonzero", stmt.span)
        # Every iteration takes at least 1 (an empty one is counted as 1), so
        # a loop past the budget raises before its first iteration.
        trips = _trip_count(start, stop, step)
        self._check_budget(trips * max(1, _min_cost(stmt.body)), stmt.span)
        names: set[str] = set()
        once = trips > 1 and _gate_loop_names(stmt.body, names) and stmt.var not in names
        first = self.stmt_count
        out: list[ResolvedStatement] = []
        shadowed = self.visible.get(stmt.var)
        try:
            for value in range(start, start + trips * step, step):
                self.visible[stmt.var] = SymbolEntry(_CONST, 1, value)
                before = self.stmt_count
                out.extend(self.resolve_statements(stmt.body))
                if self.stmt_count == before:
                    self._bump(stmt.span)
                if once and (total := first + trips * (self.stmt_count - first)) <= UNROLL_CAP:
                    self.stmt_count = total
                    return out * trips
                once = False
        finally:  # on every exit, the name reads what it read before the loop
            if shadowed is None:
                self.visible.pop(stmt.var, None)
            else:
                self.visible[stmt.var] = shadowed
        return out

    def run(self) -> ValidatedProgram:
        statements = self.resolve_statements(self.ast.statements)
        return ValidatedProgram(
            symbols=self.globals,
            statements=statements,
            qubit_count=self.qubit_count,
            qubit_layout=self.qubit_layout,
            param_layout=self.param_layout,
            classical_layout=self.classical_layout,
            tokens=self.ast.tokens,
        )


@gc_paused
def analyze(ast: fe.ProgramAst) -> ValidatedProgram:
    """Type-check and resolve a parsed program into a ValidatedProgram. A
    SemaError leaves with its span, a token index inside sema, located to
    (line, col) in the program's token stream."""
    try:
        return _Analyzer(ast).run()
    except SemaError as err:
        err.at(ast.tokens.position(err.span))
        raise
