"""Kernel IR: the canonical op sequence shared by the emitters and the
simulator.

Named controlled gates are folded into base + control list, sdg/tdg become
s/t with the adjoint flag, `pow` is statically expanded, and conditional
bodies are captured as nested blocks rather than statically merged. Lowering
enforces def-before-use for every predicate over the linear body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import frontend, sema
from .errors import ArityMismatch, BadParameter, LowerError, ModifierError
from .sema import Angle, ParamRef, ParamSpec, ResolvedCall, ValidatedProgram

CANONICAL_BASES = frozenset("x y z h s t sx rx ry rz p u swap".split())

# Positive controls require the qubit to read 1, negative controls 0.
POS = 1
NEG = 0

# name -> (canonical base, number of leading named controls, adjoint)
_NAMED_CANONICAL: dict[str, tuple[str, int, bool]] = {
    "cx": ("x", 1, False),
    "cy": ("y", 1, False),
    "cz": ("z", 1, False),
    "ch": ("h", 1, False),
    "crz": ("rz", 1, False),
    "cp": ("p", 1, False),
    "ccx": ("x", 2, False),
    "sdg": ("s", 0, True),
    "tdg": ("t", 0, True),
}

_SELF_INVERSE = frozenset("x y z h swap".split())
_ROTATIONS = frozenset("rx ry rz p".split())


@dataclass
class Gate:
    base: str
    angles: tuple[Angle, ...]
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...]  # (qubit, POS|NEG)
    adjoint: bool = False


@dataclass
class Measure:
    qubit: int
    bit: tuple[str, int]


@dataclass
class Reset:
    qubit: int


@dataclass
class Nop:
    qubits: tuple[int, ...] = ()


@dataclass
class Predicate:
    register: str
    index: int | None  # None = whole register, compared MSB-first as unsigned
    comparator: str  # == != < <= > >= truthy
    rhs: int = 0


@dataclass
class CondBlock:
    predicate: Predicate
    then_body: list["KOp"]
    else_body: list["KOp"]


KOp = Gate | Measure | Reset | Nop | CondBlock


@dataclass
class Kernel:
    qubit_count: int
    qubit_layout: list[tuple[str, int]]
    param_layout: list[ParamSpec]
    classical_layout: list[tuple[str, int]]
    body: list[KOp] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(p.count for p in self.param_layout)

    def classical_width(self, register: str) -> int:
        for name, width in self.classical_layout:
            if name == register:
                return width
        raise KeyError(register)


@dataclass
class BoundKernel:
    kernel: Kernel
    values: tuple[float, ...]


_LOWER_CALLS = 0


def compile_counters() -> tuple[int, int]:
    """(parse invocations, lower invocations) since the last reset."""
    return frontend.parse_call_count(), _LOWER_CALLS


def reset_compile_counters() -> None:
    global _LOWER_CALLS
    _LOWER_CALLS = 0
    frontend._reset_parse_calls()


def _invert_gate(g: Gate) -> Gate:
    """Adjoint of a canonical gate.

    Literal rotation angles are negated in place (u maps (th, ph, la) to
    (-th, -la, -ph)); self-inverse bases are unchanged; everything else
    (s/t/sx and symbolic-angle rotations) toggles the adjoint flag.
    """
    if g.base in _SELF_INVERSE and not g.adjoint:
        return g
    literal = all(isinstance(a, float) for a in g.angles)
    if g.base in _ROTATIONS and literal and not g.adjoint:
        return Gate(g.base, tuple(-a for a in g.angles), g.targets, g.controls, False)
    if g.base == "u" and literal and not g.adjoint:
        th, ph, la = g.angles
        return Gate("u", (-th, -la, -ph), g.targets, g.controls, False)
    return Gate(g.base, g.angles, g.targets, g.controls, not g.adjoint)


def canonicalize_modifiers(call: ResolvedCall) -> list[Gate]:
    """Fold a resolved call's modifier chain into canonical Gate ops.

    Controls (modifier-borne, then named-gate) consume leading operands;
    inv/pow apply innermost-first; `pow(k)` expands to k replicas (negative
    k replicates the adjoint).
    """
    mod_controls: list[tuple[int, int]] = []
    algebra: list[tuple[str, int | None]] = []
    cursor = 0
    for kind, arg in call.modifiers:
        if kind == "ctrl":
            mod_controls.append((call.qubits[cursor], POS))
            cursor += 1
        elif kind == "negctrl":
            mod_controls.append((call.qubits[cursor], NEG))
            cursor += 1
        elif kind in ("inv", "pow"):
            algebra.append((kind, arg))
        else:
            raise ModifierError(f"unknown modifier '{kind}'")

    base, named_ctrl, adjoint = _NAMED_CANONICAL.get(call.name, (call.name, 0, False))
    if base not in CANONICAL_BASES:
        raise ModifierError(f"'{call.name}' has no canonical form")
    named_controls = [(q, POS) for q in call.qubits[cursor : cursor + named_ctrl]]
    targets = tuple(call.qubits[cursor + named_ctrl :])
    controls = tuple(mod_controls + named_controls)

    ops = [Gate(base, tuple(call.angles), targets, controls, adjoint)]
    for kind, arg in reversed(algebra):
        if kind == "inv":
            ops = [_invert_gate(g) for g in reversed(ops)]
        else:
            if arg < 0:
                ops = [_invert_gate(g) for g in reversed(ops)]
            ops = [g for _ in range(abs(arg)) for g in ops]
    return ops


def _predicate_bits(pred: Predicate, kernel_width: int) -> list[tuple[str, int]]:
    if pred.index is not None:
        return [(pred.register, pred.index)]
    return [(pred.register, i) for i in range(kernel_width)]


def _measured_bits(ops: list[KOp]) -> set[tuple[str, int]]:
    bits: set[tuple[str, int]] = set()
    for op in ops:
        if isinstance(op, Measure):
            bits.add(op.bit)
        elif isinstance(op, CondBlock):
            bits |= _measured_bits(op.then_body)
            bits |= _measured_bits(op.else_body)
    return bits


class _Lowerer:
    def __init__(self, vp: ValidatedProgram):
        self.vp = vp
        self.widths = dict(vp.classical_layout)

    def lower_body(
        self, stmts: list[sema.ResolvedStatement], written: set[tuple[str, int]]
    ) -> list[KOp]:
        """Lower statements, tracking which classical bits are surely written.

        After a conditional, only bits written on both paths count as
        written, so every predicate read is def-before-use on every path.
        """
        ops: list[KOp] = []
        for stmt in stmts:
            if isinstance(stmt, ResolvedCall):
                ops.extend(canonicalize_modifiers(stmt))
            elif isinstance(stmt, sema.ResolvedMeasure):
                ops.append(Measure(stmt.qubit, stmt.bit))
                written.add(stmt.bit)
            elif isinstance(stmt, sema.ResolvedReset):
                ops.append(Reset(stmt.qubit))
            elif isinstance(stmt, sema.ResolvedBarrier):
                ops.append(Nop(tuple(stmt.qubits)))
            elif isinstance(stmt, sema.ResolvedIf):
                ops.append(self.lower_cond(stmt, written))
            else:
                raise LowerError(f"unhandled statement {type(stmt).__name__}")
        return ops

    def lower_cond(self, stmt: sema.ResolvedIf, written: set[tuple[str, int]]) -> CondBlock:
        pred = Predicate(stmt.register, stmt.index, stmt.comparator, stmt.rhs)
        width = self.widths[stmt.register]
        pred_bits = _predicate_bits(pred, width)
        missing = [b for b in pred_bits if b not in written]
        if missing:
            reg, idx = missing[0]
            raise LowerError(
                f"predicate at {stmt.span[0]}:{stmt.span[1]} reads {reg}[{idx}] "
                "before any measurement writes it"
            )
        if pred.index is None and pred.comparator != "truthy" and pred.rhs >= (1 << width):
            raise LowerError(
                f"predicate at {stmt.span[0]}:{stmt.span[1]} compares register "
                f"'{pred.register}' of width {width} against {pred.rhs} (>= 2^{width})"
            )
        then_written = set(written)
        else_written = set(written)
        then_body = self.lower_body(stmt.then_body, then_written)
        else_body = self.lower_body(stmt.else_body, else_written)
        inner = _measured_bits(then_body) | _measured_bits(else_body)
        if any(bit in inner for bit in pred_bits):
            raise LowerError(
                f"conditional at {stmt.span[0]}:{stmt.span[1]} measures into a bit "
                "its own predicate reads"
            )
        written |= then_written & else_written
        return CondBlock(pred, then_body, else_body)


def lower(vp: ValidatedProgram) -> Kernel:
    """Lower a validated program to kernel IR, preserving program order."""
    global _LOWER_CALLS
    _LOWER_CALLS += 1
    body = _Lowerer(vp).lower_body(vp.statements, set())
    return Kernel(
        qubit_count=vp.qubit_count,
        qubit_layout=list(vp.qubit_layout),
        param_layout=list(vp.param_layout),
        classical_layout=list(vp.classical_layout),
        body=body,
    )


def bind(kernel: Kernel, values: list[float]) -> BoundKernel:
    """Attach runtime parameter values without copying or re-lowering; every
    value must be finite."""
    if len(values) != kernel.total_params:
        raise ArityMismatch(
            f"kernel takes {kernel.total_params} parameter value(s), got {len(values)}"
        )
    bound = tuple(float(v) for v in values)
    for spec in kernel.param_layout:
        for i in range(spec.count):
            value = bound[spec.offset + i]
            if not math.isfinite(value):
                name = f"{spec.name}[{i}]" if spec.array else spec.name
                raise BadParameter(f"parameter '{name}' is {value!r}; values must be finite")
    return BoundKernel(kernel, bound)


# ---------------------------------------------------------------------------
# Debug dump (stable format, one op per line)
# ---------------------------------------------------------------------------


def _angle_str(a: Angle) -> str:
    return f"param{a.slot}" if isinstance(a, ParamRef) else repr(a)


def _dump_op(op: KOp, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(op, Gate):
        parts = [f"gate {op.base}"]
        if op.angles:
            parts.append("(" + ", ".join(_angle_str(a) for a in op.angles) + ")")
        parts.append(" " + " ".join(f"q{t}" for t in op.targets))
        for q, pol in op.controls:
            parts.append(f" {'+'if pol == POS else '-'}q{q}")
        if op.adjoint:
            parts.append(" adj")
        out.append(pad + "".join(parts))
    elif isinstance(op, Measure):
        out.append(f"{pad}measure q{op.qubit} -> {op.bit[0]}[{op.bit[1]}]")
    elif isinstance(op, Reset):
        out.append(f"{pad}reset q{op.qubit}")
    elif isinstance(op, Nop):
        out.append(f"{pad}nop" + ("" if not op.qubits else " " + " ".join(f"q{t}" for t in op.qubits)))
    elif isinstance(op, CondBlock):
        p = op.predicate
        subject = p.register if p.index is None else f"{p.register}[{p.index}]"
        cond = subject if p.comparator == "truthy" else f"{subject} {p.comparator} {p.rhs}"
        out.append(f"{pad}cond {cond}")
        out.append(f"{pad}then")
        for child in op.then_body:
            _dump_op(child, indent + 1, out)
        if op.else_body:
            out.append(f"{pad}else")
            for child in op.else_body:
                _dump_op(child, indent + 1, out)
        out.append(f"{pad}end")
    else:
        raise TypeError(f"unknown op {op!r}")


def dump(kernel: Kernel) -> str:
    """Stable text rendering of the IR for golden tests and debugging."""
    params = ",".join(f"{p.name}:{p.count}" for p in kernel.param_layout) or "-"
    classical = ",".join(f"{n}:{w}" for n, w in kernel.classical_layout) or "-"
    out = [f"kernel qubits={kernel.qubit_count} params={params} classical={classical}"]
    for op in kernel.body:
        _dump_op(op, 0, out)
    return "\n".join(out) + "\n"
