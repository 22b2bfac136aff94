"""Semantic analysis: symbol resolution, constant folding, loop unrolling,
user-gate inlining, and index checking.

Every name is classified as a compile-time constant, a runtime input
parameter, a qubit register, a classical register, or a gate definition.
Angles in the resolved statement list are either literal doubles or symbolic
ParamRef slots into the flat runtime-parameter vector; `for` loops are
statically expanded while `if` branches are preserved as nested statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import frontend as fe
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


class SymbolKind(Enum):
    COMPILE_TIME_CONST = "compile-time-const"
    RUNTIME_INPUT = "runtime-input"
    QUBIT_REGISTER = "qubit-register"
    CLASSICAL_REGISTER = "classical-register"
    GATE_DEFINITION = "gate-definition"


@dataclass
class SymbolEntry:
    name: str
    kind: SymbolKind
    size: int
    const_value: float | int | None
    decl_span: fe.Span


class SymbolTable:
    """Lexically scoped name table; inner scopes shadow outer ones."""

    def __init__(self):
        self.scopes: list[dict[str, SymbolEntry]] = [{}]

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def define(self, entry: SymbolEntry) -> None:
        scope = self.scopes[-1]
        if entry.name in scope:
            raise Redefinition(f"redefinition of '{entry.name}'", entry.decl_span)
        scope[entry.name] = entry

    def lookup(self, name: str, span: fe.Span) -> SymbolEntry:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise UndefinedName(f"undefined name '{name}'", span)

    def lookup_or_none(self, name: str) -> SymbolEntry | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


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


# Resolved statement forms consumed by kir.lower. Gate calls keep their
# modifier chain (canonicalized later); operands are flat qubit ids.
@dataclass
class ResolvedCall:
    modifiers: list[tuple[str, int | None]]  # ("ctrl"|"negctrl"|"inv", None) | ("pow", k)
    name: str
    angles: list[Angle]
    qubits: list[int]
    span: fe.Span


@dataclass
class ResolvedMeasure:
    qubit: int
    bit: tuple[str, int]
    span: fe.Span


@dataclass
class ResolvedReset:
    qubit: int
    span: fe.Span


@dataclass
class ResolvedBarrier:
    qubits: list[int]
    span: fe.Span


@dataclass
class ResolvedIf:
    register: str
    index: int | None  # None = whole-register subject
    comparator: str  # == != < <= > >= truthy
    rhs: int
    then_body: list["ResolvedStatement"]
    else_body: list["ResolvedStatement"]
    span: fe.Span


ResolvedStatement = ResolvedCall | ResolvedMeasure | ResolvedReset | ResolvedBarrier | ResolvedIf


@dataclass
class ValidatedProgram:
    symbols: SymbolTable
    statements: list[ResolvedStatement]
    qubit_count: int
    qubit_layout: list[tuple[str, int]]
    param_layout: list[ParamSpec]
    classical_layout: list[tuple[str, int]]


# (angle count, qubit count, requires stdgates include)
BUILTIN_GATES: dict[str, tuple[int, int]] = {
    "x": (0, 1), "y": (0, 1), "z": (0, 1), "h": (0, 1),
    "s": (0, 1), "sdg": (0, 1), "t": (0, 1), "tdg": (0, 1), "sx": (0, 1),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1), "p": (1, 1),
    "u": (3, 1),
    "cx": (0, 2), "cy": (0, 2), "cz": (0, 2), "ch": (0, 2),
    "crz": (1, 2), "cp": (1, 2), "swap": (0, 2),
    "ccx": (0, 3),
}


def const_eval(expr: fe.Expr, symbols: SymbolTable) -> float | int:
    """Evaluate a compile-time-constant expression to a double or exact int.

    Division yields an int only when both operands are ints and the division
    is exact; otherwise a double. Raises NotConst for runtime inputs and
    registers, DivByZero on zero divisors, and NonFiniteConst at the first
    operation whose result is inf or NaN or overflows a double.
    """
    if isinstance(expr, fe.IntLit):
        return expr.value
    if isinstance(expr, fe.FloatLit):
        return expr.value
    if isinstance(expr, fe.PiConst):
        return math.pi
    if isinstance(expr, fe.NamedRef):
        entry = symbols.lookup(expr.name, expr.span)
        if entry.kind is not SymbolKind.COMPILE_TIME_CONST:
            raise NotConst(
                f"'{expr.name}' is a {entry.kind.value}, not a compile-time constant",
                expr.span,
            )
        if expr.index is not None:
            raise NotConst(f"constant '{expr.name}' is a scalar and cannot be indexed", expr.span)
        return entry.const_value
    if isinstance(expr, fe.Unary):
        return -const_eval(expr.operand, symbols)
    if isinstance(expr, fe.Binary):
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
        if value != value or value in (math.inf, -math.inf):
            raise NonFiniteConst(f"constant expression folds to {value}", expr.span)
        return value
    raise NotConst("not a constant arithmetic expression", expr.span)


def _to_double(value: float | int, span: fe.Span) -> float:
    try:
        return float(value)
    except OverflowError:
        raise NonFiniteConst("constant is out of a double's range", span) from None


def _const_int(expr: fe.Expr, symbols: SymbolTable, what: str, exc=SemaError) -> int:
    try:
        value = const_eval(expr, symbols)
    except NotConst as err:
        raise exc(f"{what} must be a compile-time integer: {err.message}", expr.span) from err
    if isinstance(value, float):
        if not value.is_integer():
            raise exc(f"{what} must be an integer, got {value}", expr.span)
        value = int(value)
    return value


def _call_cost(call: ResolvedCall) -> int:
    """Gates the call lowers to: the product of its |pow| exponents."""
    cost = 1
    for kind, arg in call.modifiers:
        if kind == "pow":
            cost *= abs(arg)
    return cost


def _trip_count(start: int, stop: int, step: int) -> int:
    """Iterations of `for v in [start:step:stop]` (stop inclusive)."""
    span = stop - start if step > 0 else start - stop
    return max(0, span // abs(step) + 1)


def _literal_int(expr: fe.Expr) -> int | None:
    """The integer an expression of literals folds to, else None. An
    expression that names anything may fold differently where it is used."""
    try:
        value = const_eval(expr, SymbolTable())
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


class _Analyzer:
    def __init__(self, ast: fe.ProgramAst):
        self.ast = ast
        self.symbols = SymbolTable()
        self.has_stdgates = "stdgates.inc" in ast.includes
        self.gate_defs: dict[str, fe.GateDef] = {}
        self.qubit_layout: list[tuple[str, int]] = []
        self.qubit_base: dict[str, int] = {}
        self.classical_layout: list[tuple[str, int]] = []
        self.param_layout: list[ParamSpec] = []
        self.param_offset: dict[str, ParamSpec] = {}
        self.qubit_count = 0
        self.stmt_count = 0
        self.held = 0  # calls built into bodies of gates still being inlined
        self.min_costs: dict[str, int] = {}

    # -- declarations -------------------------------------------------------
    def declare(self, stmt: fe.Statement) -> None:
        if isinstance(stmt, fe.QubitDecl):
            if stmt.size < 1:
                raise SemaError(f"qubit register '{stmt.name}' must have size >= 1", stmt.span)
            self.symbols.define(
                SymbolEntry(stmt.name, SymbolKind.QUBIT_REGISTER, stmt.size, None, stmt.span)
            )
            self.qubit_base[stmt.name] = self.qubit_count
            self.qubit_layout.append((stmt.name, stmt.size))
            self.qubit_count += stmt.size
        elif isinstance(stmt, fe.BitDecl):
            if stmt.size < 1:
                raise SemaError(f"bit register '{stmt.name}' must have size >= 1", stmt.span)
            self.symbols.define(
                SymbolEntry(stmt.name, SymbolKind.CLASSICAL_REGISTER, stmt.size, None, stmt.span)
            )
            self.classical_layout.append((stmt.name, stmt.size))
        elif isinstance(stmt, fe.InputDecl):
            if stmt.count < 1:
                raise SemaError(f"input '{stmt.name}' must have at least one element", stmt.span)
            self.symbols.define(
                SymbolEntry(stmt.name, SymbolKind.RUNTIME_INPUT, stmt.count, None, stmt.span)
            )
            offset = sum(p.count for p in self.param_layout)
            spec = ParamSpec(stmt.name, stmt.count, stmt.array, offset)
            self.param_layout.append(spec)
            self.param_offset[stmt.name] = spec
        elif isinstance(stmt, fe.ConstDecl):
            value = const_eval(stmt.expr, self.symbols)
            if stmt.is_int:
                if isinstance(value, float):
                    if not value.is_integer():
                        raise SemaError(
                            f"const int '{stmt.name}' initializer is not an integer", stmt.span
                        )
                    value = int(value)
            else:
                value = _to_double(value, stmt.span)
            self.symbols.define(
                SymbolEntry(stmt.name, SymbolKind.COMPILE_TIME_CONST, 1, value, stmt.span)
            )
        elif isinstance(stmt, fe.GateDef):
            if stmt.name in BUILTIN_GATES and self.has_stdgates:
                raise Redefinition(f"'{stmt.name}' shadows a standard gate", stmt.span)
            self.symbols.define(
                SymbolEntry(stmt.name, SymbolKind.GATE_DEFINITION, len(stmt.qubits), None, stmt.span)
            )
            if len(set(stmt.qubits)) != len(stmt.qubits) or len(set(stmt.params)) != len(stmt.params):
                raise Redefinition(f"duplicate formal name in gate '{stmt.name}'", stmt.span)
            self.gate_defs[stmt.name] = stmt

    # -- operand resolution -------------------------------------------------
    def resolve_qubit_operand(self, ref: fe.NamedRef) -> int | tuple[str, int]:
        """Resolve a qubit ref to a flat id, or (name, width) for a whole register."""
        entry = self.symbols.lookup(ref.name, ref.span)
        if entry.kind is not SymbolKind.QUBIT_REGISTER:
            raise SemaError(f"'{ref.name}' is a {entry.kind.value}, not a qubit register", ref.span)
        if ref.index is None:
            if entry.size == 1:
                return self.qubit_base[ref.name]
            return (ref.name, entry.size)
        idx = _const_int(ref.index, self.symbols, "qubit index")
        if not 0 <= idx < entry.size:
            raise IndexOutOfRange(
                f"index {idx} out of range for qubit register '{ref.name}' of size {entry.size}",
                ref.span,
            )
        return self.qubit_base[ref.name] + idx

    def resolve_bit_operand(self, ref: fe.NamedRef) -> tuple[str, int] | tuple[str, None]:
        """Resolve a classical ref to (register, index); index None = whole register."""
        entry = self.symbols.lookup(ref.name, ref.span)
        if entry.kind is not SymbolKind.CLASSICAL_REGISTER:
            raise SemaError(f"'{ref.name}' is a {entry.kind.value}, not a bit register", ref.span)
        if ref.index is None:
            if entry.size == 1:
                return (ref.name, 0)
            return (ref.name, None)
        idx = _const_int(ref.index, self.symbols, "bit index")
        if not 0 <= idx < entry.size:
            raise IndexOutOfRange(
                f"index {idx} out of range for bit register '{ref.name}' of width {entry.size}",
                ref.span,
            )
        return (ref.name, idx)

    def resolve_angle(self, expr: fe.Expr, formals: dict[str, Angle] | None = None) -> Angle:
        """Resolve a gate argument to a literal double or a ParamRef slot.

        Arithmetic is folded only over compile-time constants; a runtime
        input may appear solely as a bare (optionally indexed) reference.
        """
        if formals and isinstance(expr, fe.NamedRef) and expr.name in formals and expr.index is None:
            return formals[expr.name]
        if isinstance(expr, fe.NamedRef):
            entry = self.symbols.lookup_or_none(expr.name)
            if entry is not None and entry.kind is SymbolKind.RUNTIME_INPUT:
                spec = self.param_offset[expr.name]
                if expr.index is None:
                    if spec.array:
                        raise SemaError(
                            f"parameter array '{expr.name}' needs an element index", expr.span
                        )
                    return ParamRef(spec.offset)
                idx = _const_int(expr.index, self.symbols, "parameter index")
                if not 0 <= idx < spec.count:
                    raise IndexOutOfRange(
                        f"index {idx} out of range for parameter '{expr.name}' "
                        f"of {spec.count} elements",
                        expr.span,
                    )
                return ParamRef(spec.offset + idx)
        value = const_eval(expr, self._symbols_with(formals))
        return _to_double(value, expr.span)

    def _symbols_with(self, formals: dict[str, Angle] | None) -> SymbolTable:
        """Symbol table extended with gate formals bound to actual angle values."""
        if not formals:
            return self.symbols
        clone = SymbolTable()
        clone.scopes = [dict(s) for s in self.symbols.scopes]
        clone.push()
        for name, value in formals.items():
            if isinstance(value, ParamRef):
                # Only bare references to such formals are representable;
                # classify as runtime input so const_eval reports NotConst.
                clone.define(SymbolEntry(name, SymbolKind.RUNTIME_INPUT, 1, None, (0, 0)))
            else:
                clone.define(SymbolEntry(name, SymbolKind.COMPILE_TIME_CONST, 1, value, (0, 0)))
        return clone

    # -- gate calls ---------------------------------------------------------
    def resolve_call(self, stmt: fe.GateCall) -> list[ResolvedCall]:
        modifiers: list[tuple[str, int | None]] = []
        n_ctrl = 0
        for mod in stmt.modifiers:
            if mod.kind == "pow":
                k = _const_int(mod.exponent, self.symbols, "pow exponent", exc=NotConst)
                modifiers.append(("pow", k))
            else:
                modifiers.append((mod.kind, None))
                if mod.kind in ("ctrl", "negctrl"):
                    n_ctrl += 1

        entry = self.symbols.lookup_or_none(stmt.name)
        is_user_gate = entry is not None and entry.kind is SymbolKind.GATE_DEFINITION
        if is_user_gate:
            gate_def = self.gate_defs[stmt.name]
            n_angles, n_qubits = len(gate_def.params), len(gate_def.qubits)
        elif entry is not None:
            raise SemaError(f"'{stmt.name}' is a {entry.kind.value}, not a gate", stmt.span)
        else:
            n_angles, n_qubits = self._builtin_lookup(stmt.name, stmt.span)

        if len(stmt.args) != n_angles:
            raise ArityMismatch(
                f"gate '{stmt.name}' takes {n_angles} angle(s), got {len(stmt.args)}", stmt.span
            )
        if len(stmt.qubits) != n_qubits + n_ctrl:
            raise ArityMismatch(
                f"gate '{stmt.name}' with {n_ctrl} control modifier(s) takes "
                f"{n_qubits + n_ctrl} qubit operand(s), got {len(stmt.qubits)}",
                stmt.span,
            )

        angles = [self.resolve_angle(a) for a in stmt.args]
        operands = [self.resolve_qubit_operand(q) for q in stmt.qubits]
        out: list[ResolvedCall] = []
        for broadcast in self._broadcast(operands, stmt.span):
            if len(set(broadcast)) != len(broadcast):
                raise DuplicateQubitArg(
                    f"gate '{stmt.name}' applied with a repeated qubit operand", stmt.span
                )
            if is_user_gate:
                calls = self.inline_gate(stmt.name, modifiers, angles, broadcast, stmt.span, ())
                cost, self.held = self.held, 0
            else:
                calls = [ResolvedCall(list(modifiers), stmt.name, list(angles), broadcast, stmt.span)]
                cost = _call_cost(calls[0])
            self._bump(stmt.span, cost)
            out.extend(calls)
        return out

    def _builtin_lookup(self, name: str, span: fe.Span) -> tuple[int, int]:
        if name in BUILTIN_GATES and self.has_stdgates:
            return BUILTIN_GATES[name]
        raise UndefinedName(
            f"undefined gate '{name}'"
            + ("" if self.has_stdgates else ' (missing include "stdgates.inc"?)'),
            span,
        )

    def _broadcast(self, operands: list, span: fe.Span) -> list[list[int]]:
        """Expand whole-register operands: same-width registers zip elementwise,
        single qubits broadcast across iterations."""
        widths = {op[1] for op in operands if isinstance(op, tuple)}
        if not widths:
            return [list(operands)]
        if len(widths) > 1:
            raise ArityMismatch(
                f"mismatched register widths {sorted(widths)} in one gate call", span
            )
        width = widths.pop()
        calls = []
        for i in range(width):
            calls.append(
                [self.qubit_base[op[0]] + i if isinstance(op, tuple) else op for op in operands]
            )
        return calls

    def inline_gate(
        self,
        name: str,
        modifiers: list[tuple[str, int | None]],
        angles: list[Angle],
        operands: list[int],
        span: fe.Span,
        stack: tuple[str, ...],
    ) -> list[ResolvedCall]:
        """Recursively inline a user gate call into builtin calls.

        Outer modifiers distribute over the inlined body: controls attach to
        every op, `inv` reverses the body and inverts each op, `pow(k)`
        replicates (negative k inverts first).
        """
        if name in stack:
            raise RecursiveGateDef(
                f"recursive gate definition: {' -> '.join(stack + (name,))}", span
            )
        if len(stack) >= fe.MAX_NESTING:  # inlining recurses once per level
            raise ProgramTooLarge(
                f"gate '{name}' is inlined more than {fe.MAX_NESTING} definitions deep", span
            )
        floor = self._gate_min_cost(name)
        for kind, arg in modifiers:
            if kind == "pow":
                floor *= abs(arg)
        self._check_budget(floor, span)
        gate_def = self.gate_defs[name]
        n_ctrl = sum(1 for kind, _ in modifiers if kind in ("ctrl", "negctrl"))
        controls = [
            (operands[i], kind)
            for i, (kind, _) in enumerate(m for m in modifiers if m[0] in ("ctrl", "negctrl"))
        ]
        targets = operands[n_ctrl:]
        formals: dict[str, Angle] = dict(zip(gate_def.params, angles))
        binding = dict(zip(gate_def.qubits, targets))

        # `held` counts the calls built so far into the bodies of every
        # inline in progress, so sibling bodies cannot each grow to the cap.
        # A call adds its cost as it is built; the body returned stays
        # counted there, for the caller to take over.
        base = self.held
        body: list[ResolvedCall] = []
        for call in gate_def.body:
            body.extend(self._resolve_body_call(call, formals, binding, stack + (name,)))
            self._check_budget(0, span)
        cost = self.held - base

        for kind, arg in reversed([m for m in modifiers if m[0] in ("inv", "pow")]):
            if kind == "inv":
                body = self._invert_calls(body)
            else:
                cost *= abs(arg)
                self.held = base
                self._check_budget(cost, span)  # before the replicas are built
                self.held = base + cost
                if arg < 0:
                    body = self._invert_calls(body)
                body = [
                    ResolvedCall(list(c.modifiers), c.name, list(c.angles), list(c.qubits), c.span)
                    for _ in range(abs(arg))
                    for c in body
                ]
        for qubit, kind in reversed(controls):
            for c in body:
                c.modifiers.insert(0, (kind, None))
                c.qubits.insert(0, qubit)
        # Calls reach here free of repeats (builtin calls are checked as they
        # resolve, inlined ones below), so only added controls can repeat.
        for c in body if controls else ():
            if len(set(c.qubits)) != len(c.qubits):
                raise DuplicateQubitArg(
                    f"inlining '{name}' produced a repeated qubit operand", span
                )
        return body

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

    @staticmethod
    def _invert_calls(calls: list[ResolvedCall]) -> list[ResolvedCall]:
        return [
            ResolvedCall([("inv", None)] + list(c.modifiers), c.name, list(c.angles), list(c.qubits), c.span)
            for c in reversed(calls)
        ]

    def _resolve_body_call(
        self,
        call: fe.GateCall,
        formals: dict[str, Angle],
        binding: dict[str, int],
        stack: tuple[str, ...],
    ) -> list[ResolvedCall]:
        modifiers: list[tuple[str, int | None]] = []
        n_ctrl = 0
        for mod in call.modifiers:
            if mod.kind == "pow":
                k = _const_int(mod.exponent, self._symbols_with(formals), "pow exponent", exc=NotConst)
                modifiers.append(("pow", k))
            else:
                modifiers.append((mod.kind, None))
                if mod.kind in ("ctrl", "negctrl"):
                    n_ctrl += 1

        operands = []
        for ref in call.qubits:
            if ref.index is not None or ref.name not in binding:
                raise UndefinedName(
                    f"unknown qubit '{ref.name}' in gate body (formals: {sorted(binding)})",
                    ref.span,
                )
            operands.append(binding[ref.name])

        entry = self.symbols.lookup_or_none(call.name)
        if entry is not None and entry.kind is SymbolKind.GATE_DEFINITION:
            gate_def = self.gate_defs[call.name]
            n_angles, n_qubits = len(gate_def.params), len(gate_def.qubits)
        else:
            n_angles, n_qubits = self._builtin_lookup(call.name, call.span)

        if len(call.args) != n_angles:
            raise ArityMismatch(
                f"gate '{call.name}' takes {n_angles} angle(s), got {len(call.args)}", call.span
            )
        if len(operands) != n_qubits + n_ctrl:
            raise ArityMismatch(
                f"gate '{call.name}' with {n_ctrl} control modifier(s) takes "
                f"{n_qubits + n_ctrl} qubit operand(s), got {len(operands)}",
                call.span,
            )
        if len(set(operands)) != len(operands):
            raise DuplicateQubitArg(
                f"gate '{call.name}' applied with a repeated qubit operand", call.span
            )
        angles = [self.resolve_angle(a, formals) for a in call.args]
        if entry is not None and entry.kind is SymbolKind.GATE_DEFINITION:
            return self.inline_gate(call.name, modifiers, angles, operands, call.span, stack)
        resolved = ResolvedCall(modifiers, call.name, angles, operands, call.span)
        self.held += _call_cost(resolved)
        return [resolved]

    # -- statements ---------------------------------------------------------
    def _check_budget(self, cost: int, span: fe.Span) -> None:
        """Raise before building statements that would take the program
        past UNROLL_CAP."""
        if self.stmt_count + self.held + cost > UNROLL_CAP:
            raise ProgramTooLarge(
                f"program exceeds {UNROLL_CAP} statements after loop unrolling", span
            )

    def _bump(self, span: fe.Span, by: int = 1) -> None:
        self._check_budget(by, span)
        self.stmt_count += by

    def resolve_statements(self, stmts: list[fe.Statement], top_level: bool) -> list[ResolvedStatement]:
        out: list[ResolvedStatement] = []
        for stmt in stmts:
            if isinstance(stmt, (fe.QubitDecl, fe.BitDecl, fe.InputDecl, fe.ConstDecl, fe.GateDef)):
                if not top_level:
                    raise SemaError("declarations are only allowed at top level", stmt.span)
                self.declare(stmt)
            elif isinstance(stmt, fe.GateCall):
                before = self.stmt_count
                out.extend(self.resolve_call(stmt))  # bumps by the gates it lowers to
                if self.stmt_count == before:
                    self._bump(stmt.span)
            elif isinstance(stmt, fe.MeasureAssign):
                out.extend(self.resolve_measure(stmt))
            elif isinstance(stmt, fe.Reset):
                target = self.resolve_qubit_operand(stmt.target)
                qubits = (
                    [self.qubit_base[target[0]] + i for i in range(target[1])]
                    if isinstance(target, tuple)
                    else [target]
                )
                for q in qubits:
                    self._bump(stmt.span)
                    out.append(ResolvedReset(q, stmt.span))
            elif isinstance(stmt, fe.Barrier):
                qubits: list[int] = []
                for ref in stmt.targets:
                    op = self.resolve_qubit_operand(ref)
                    if isinstance(op, tuple):
                        qubits.extend(self.qubit_base[op[0]] + i for i in range(op[1]))
                    else:
                        qubits.append(op)
                self._bump(stmt.span)
                out.append(ResolvedBarrier(qubits, stmt.span))
            elif isinstance(stmt, fe.IfStatement):
                out.append(self.resolve_if(stmt))
            elif isinstance(stmt, fe.ForStatement):
                out.extend(self.resolve_for(stmt))
            else:
                raise SemaError(f"unhandled statement {type(stmt).__name__}", stmt.span)
        return out

    def resolve_measure(self, stmt: fe.MeasureAssign) -> list[ResolvedMeasure]:
        source = self.resolve_qubit_operand(stmt.source)
        target = self.resolve_bit_operand(stmt.target)
        if isinstance(source, tuple) and target[1] is None:
            reg, width = source
            entry = self.symbols.lookup(stmt.target.name, stmt.target.span)
            if entry.size != width:
                raise ArityMismatch(
                    f"cannot measure {width}-qubit register into {entry.size}-bit register",
                    stmt.span,
                )
            ops = [
                ResolvedMeasure(self.qubit_base[reg] + i, (stmt.target.name, i), stmt.span)
                for i in range(width)
            ]
        elif isinstance(source, tuple) or target[1] is None:
            raise ArityMismatch(
                "measure needs a single qubit and a single bit, or two same-width registers",
                stmt.span,
            )
        else:
            ops = [ResolvedMeasure(source, target, stmt.span)]
        self._bump(stmt.span, len(ops))
        return ops

    def resolve_if(self, stmt: fe.IfStatement) -> ResolvedIf:
        cond = stmt.condition
        if isinstance(cond, fe.Comparison):
            subject_ref, comparator = cond.lhs, cond.op
            rhs = _const_int(cond.rhs, self.symbols, "comparison right-hand side")
            if rhs < 0:
                raise SemaError("comparison against a negative value", cond.span)
        else:
            subject_ref, comparator, rhs = cond, "truthy", 0
        register, index = self.resolve_bit_operand(subject_ref)
        then_body = self.resolve_statements(stmt.then_body, top_level=False)
        else_body = self.resolve_statements(stmt.else_body, top_level=False)
        self._bump(stmt.span)
        return ResolvedIf(register, index, comparator, rhs, then_body, else_body, stmt.span)

    def resolve_for(self, stmt: fe.ForStatement) -> list[ResolvedStatement]:
        start = _const_int(stmt.start, self.symbols, "loop bound", exc=NonConstLoopBound)
        stop = _const_int(stmt.stop, self.symbols, "loop bound", exc=NonConstLoopBound)
        step = 1
        if stmt.step is not None:
            step = _const_int(stmt.step, self.symbols, "loop step", exc=NonConstLoopBound)
            if step == 0:
                raise NonConstLoopBound("loop step must be nonzero", stmt.span)
        # Every iteration takes at least 1 (an empty one is counted as 1), so
        # a loop past the budget raises before its first iteration.
        trips = _trip_count(start, stop, step)
        self._check_budget(trips * max(1, _min_cost(stmt.body)), stmt.span)
        out: list[ResolvedStatement] = []
        for value in range(start, start + trips * step, step):
            self.symbols.push()
            self.symbols.define(
                SymbolEntry(stmt.var, SymbolKind.COMPILE_TIME_CONST, 1, value, stmt.span)
            )
            before = self.stmt_count
            try:
                out.extend(self.resolve_statements(stmt.body, top_level=False))
            finally:
                self.symbols.pop()
            if self.stmt_count == before:
                self._bump(stmt.span)
        return out

    def run(self) -> ValidatedProgram:
        statements = self.resolve_statements(self.ast.statements, top_level=True)
        return ValidatedProgram(
            symbols=self.symbols,
            statements=statements,
            qubit_count=self.qubit_count,
            qubit_layout=self.qubit_layout,
            param_layout=self.param_layout,
            classical_layout=self.classical_layout,
        )


def analyze(ast: fe.ProgramAst) -> ValidatedProgram:
    """Type-check and resolve a parsed program into a ValidatedProgram."""
    return _Analyzer(ast).run()
