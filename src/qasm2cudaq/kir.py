"""Kernel IR: the canonical op sequence shared by the emitters and the
simulator.

Sema builds the ops themselves: gate calls arrive as ready canonical `Gate`
ops (base plus control list, adjoint flag, `pow` expanded), and measures,
resets and barriers as `Measure`, `Reset` and `Nop`. Lowering only flattens
them in program order and captures conditional bodies as nested blocks
rather than statically merged. It enforces def-before-use for every
predicate over the linear body.
"""

from __future__ import annotations

import bisect
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import frontend, sema
from ._gc import gc_paused
from .errors import BadParameter, LowerError
from .sema import Angle, Gate, Measure, Nop, ParamRef, ParamSpec, Reset, ResolvedCall, ResolvedIf, ValidatedProgram

# The op types and the canonical gate set live in sema; emit, sim and oracle
# import them from here.
from .sema import CANONICAL_BASES, NEG, POS, Predicate  # noqa: F401


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

    def param_name(self, slot: int) -> str:
        """The name of one runtime-parameter slot: `theta[1]` for an element
        of an input array, `phi` for a scalar input. Found by bisecting the
        inputs' offsets, so naming a slot never spans the others. Raises
        IndexError for a slot outside the layout."""
        if slot < 0 or not self.param_layout:
            raise IndexError(slot)
        spec = self.param_layout[bisect.bisect_right(self.param_layout, slot, key=lambda p: p.offset) - 1]
        if slot >= spec.offset + spec.count:
            raise IndexError(slot)
        return f"{spec.name}[{slot - spec.offset}]" if spec.array else spec.name

    def classical_width(self, register: str) -> int:
        for name, width in self.classical_layout:
            if name == register:
                return width
        raise KeyError(register)


@dataclass
class BoundKernel:
    kernel: Kernel
    values: tuple[float, ...]


def measures(ops: list[KOp]) -> Iterator[Measure]:
    """Every measure in `ops`, conditional bodies included, in program
    order (each block's then body before its else body)."""
    for op in ops:
        if isinstance(op, Measure):
            yield op
        elif isinstance(op, CondBlock):
            yield from measures(op.then_body)
            yield from measures(op.else_body)


class _Lowerer:
    def __init__(self, vp: ValidatedProgram):
        self.widths = dict(vp.classical_layout)
        self.tokens = vp.tokens

    def error(self, what: str, stmt: ResolvedIf, detail: str) -> LowerError:
        line, col = self.tokens.position(stmt.span)
        return LowerError(f"{what} at {line}:{col} {detail}")

    def lower_body(self, stmts: list[sema.ResolvedStatement], written: set[tuple[str, int]]) -> list[KOp]:
        """Lower statements, tracking which classical bits are surely written.

        After a conditional, only bits written on both paths count as
        written, so every predicate read is def-before-use on every path.
        """
        ops: list[KOp] = []
        for stmt in stmts:
            if isinstance(stmt, ResolvedCall):
                ops.extend(stmt.ops)
            elif isinstance(stmt, ResolvedIf):
                ops.append(self.lower_cond(stmt, written))
            elif isinstance(stmt, (Measure, Reset, Nop)):
                ops.append(stmt)
                if isinstance(stmt, Measure):
                    written.add(stmt.bit)
            else:
                raise LowerError(f"unhandled statement {type(stmt).__name__}")
        return ops

    def lower_cond(self, stmt: ResolvedIf, written: set[tuple[str, int]]) -> CondBlock:
        pred = stmt.predicate
        width = self.widths[pred.register]
        pred_bits = [(pred.register, i) for i in range(width)] if pred.index is None else [(pred.register, pred.index)]
        missing = [b for b in pred_bits if b not in written]
        if missing:
            reg, idx = missing[0]
            raise self.error("predicate", stmt, f"reads {reg}[{idx}] before any measurement writes it")
        bits = width if pred.index is None else 1
        if pred.comparator != "truthy" and pred.rhs >= (1 << bits):
            what = f"bit {pred.register}[{pred.index}]" if bits == 1 else f"register '{pred.register}' of width {width}"
            raise self.error("predicate", stmt, f"compares {what} against {pred.rhs} (>= 2^{bits})")
        then_written = set(written)
        else_written = set(written)
        block = CondBlock(
            pred, self.lower_body(stmt.then_body, then_written), self.lower_body(stmt.else_body, else_written)
        )
        reads = set(pred_bits)
        if any(m.bit in reads for m in measures([block])):
            raise self.error("conditional", stmt, "measures into a bit its own predicate reads")
        written |= then_written & else_written
        return block


@gc_paused
def lower(vp: ValidatedProgram) -> Kernel:
    """Lower a validated program to kernel IR, preserving program order."""
    body = _Lowerer(vp).lower_body(vp.statements, set())
    return Kernel(
        qubit_count=vp.qubit_count,
        qubit_layout=list(vp.qubit_layout),
        param_layout=list(vp.param_layout),
        classical_layout=list(vp.classical_layout),
        body=body,
    )


def compile_source(source: str) -> Kernel:
    """The pipeline entry point: source text to kernel IR (tokenize, parse,
    analyze, lower)."""
    return lower(sema.analyze(frontend.parse(frontend.tokenize(source))))


def bind(kernel: Kernel, values: list[float]) -> BoundKernel:
    """Attach runtime parameter values without copying or re-lowering; every
    value must be a finite real number: a `numbers.Real` other than a bool,
    such as an int, a float, a Fraction or a NumPy real scalar."""
    count = kernel.total_params
    if len(values) != count:
        raise BadParameter(f"kernel takes {count} parameter value(s), got {len(values)}")
    bound: list[float] = []
    for slot, raw in enumerate(values):
        try:
            if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
                raise TypeError  # float() would read str, bytes and bool as well
            value = float(raw)
        except (TypeError, ValueError, OverflowError):
            # the type, not repr(raw): repr of an int past 4300 digits raises
            kind = type(raw).__name__
            raise BadParameter(f"parameter '{kernel.param_name(slot)}' cannot be read as a float ({kind})") from None
        if not math.isfinite(value):
            raise BadParameter(f"parameter '{kernel.param_name(slot)}' is {value!r}; values must be finite")
        bound.append(value)
    return BoundKernel(kernel, tuple(bound))


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
