"""CUDA-Q source emission in two frozen formats.

`cudaq-cpp` renders a C++ kernel whose conditionals are native host `if`
statements over stored measurement results; `cudaq-builder` renders a
self-contained Python script using the builder API, attaching conditional
bodies as named callables via `c_if`. Both grammars are frozen by the
golden files in tests/golden/<target>/, one per case of the golden corpus;
emission is byte-deterministic for a given kernel.

Every gate op of both targets is rendered once per value by `gate_line`.
The builder's modifier route applies a sub-kernel by `kernel.adjoint` or
`kernel.control`, with an X sandwich on each negative control; each
sub-kernel is named by its shape (`sub_rx`, `sub_adj_s`) and defined once,
in a prologue right after `q = kernel.qalloc(n)`.

Each target reserves the names its text uses unqualified, and an input
named by one raises `UnsupportedForTarget`: both reserve `q`, `cudaq`,
`counts`, `m<i>` and `cval<i>`; cudaq-cpp also `transpiled_kernel`, `main`,
`std`, its gate functions, the C++ keywords and reserved identifiers;
cudaq-builder also `kernel`, `build_kernel`, `float`, `list`,
`cond_<i>_then`/`_else`, the `sub_` prefix and the Python keywords.
"""

from __future__ import annotations

import keyword
import os
import re
from collections import Counter
from dataclasses import dataclass

from ._gc import gc_paused
from .errors import MissingGolden, UnsupportedForTarget, UnsupportedOp
from .kir import NEG, POS, CondBlock, Gate, Kernel, Measure, Nop, Predicate, Reset, measures
from .sema import ParamRef

EMISSION_TARGETS = ("cudaq-cpp", "cudaq-builder")

# IR base -> emitted gate name (both targets follow CUDA-Q naming)
_GATE_NAME = {"u": "u3", "p": "r1"}

# Builder method sugar for a single positive control without adjoint.
_BUILDER_CTRL_SUGAR = frozenset("x y z h rx ry rz p".split())

_NEGATE_CMP = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


@dataclass
class EmittedSource:
    target: str
    text: str
    param_signature: list[tuple[str, int]]


def _angle_text(a, kernel: Kernel) -> str:
    if isinstance(a, ParamRef):
        for spec in kernel.param_layout:
            if spec.offset <= a.slot < spec.offset + spec.count:
                return spec.name if not spec.array else f"{spec.name}[{a.slot - spec.offset}]"
        raise UnsupportedOp(f"parameter slot {a.slot} outside the kernel's layout")
    return repr(a)


def _layout_comments(kernel: Kernel, comment: str) -> list[str]:
    lines = []
    if kernel.qubit_layout:
        parts = []
        base = 0
        for name, size in kernel.qubit_layout:
            parts.append(f"{name} -> q[{base}]" if size == 1 else f"{name} -> q[{base}..{base + size - 1}]")
            base += size
        lines.append(f"{comment} qubit layout: {', '.join(parts)}")
    if kernel.classical_layout:
        regs = ", ".join(f"{name}[{width}]" for name, width in kernel.classical_layout)
        lines.append(f"{comment} classical registers: {regs}")
    if kernel.param_layout:
        params = ", ".join(f"{p.name}[{p.count}]" if p.array else p.name for p in kernel.param_layout)
        lines.append(f"{comment} runtime parameters: {params}")
    return lines


class _EmitterBase:
    # Each target names itself and formats its measure line (at top level,
    # then in a conditional body) from the local's name and the qubit, its
    # reset line from the qubit, and the names no input may take.
    TARGET: str
    MEASURE: tuple[str, str]
    RESET: str
    RESERVED: frozenset[str]
    RESERVED_FORM: re.Pattern

    def __init__(self, kernel: Kernel):
        for p in kernel.param_layout:
            if p.name in self.RESERVED or self.RESERVED_FORM.fullmatch(p.name):
                raise UnsupportedForTarget(f"input '{p.name}' takes a name the {self.TARGET} text reserves; rename it")
        self.kernel = kernel
        self.lines: list[str] = []
        self.indent = 0
        # id(measure op) -> its number in program order, for the `m{i}` locals
        self.measure_index = {id(m): i for i, m in enumerate(measures(kernel.body))}
        # classical bit -> local currently holding its value
        self.bit_local: dict[tuple[str, int], str] = {}
        self.cond_count = 0
        # (base, angles, targets, controls, adjoint, indent) -> indented text
        self.gate_lines: dict[tuple, str] = {}

    def line(self, text: str = "") -> None:
        self.lines.append(("  " * self.indent + text) if text else "")

    def gate_line(self, op: Gate, key: tuple) -> str:
        """The target's `render_gate` of a gate op at the current indent, kept
        under `key` (the op's value and the indent) for later ops."""
        pad = "  " * self.indent
        text = pad + self.render_gate(op).replace("\n", "\n" + pad)
        # 0.0 == -0.0 and they hash alike, but they render differently
        if 0.0 not in op.angles:
            self.gate_lines[key] = text
        return text

    def emit_ops(self, ops: list, top_level: bool) -> None:
        """Render ops in order: a gate through `gate_line`'s memo, a
        conditional through the target's `emit_cond`."""
        append, memo, indent = self.lines.append, self.gate_lines, self.indent
        for op in ops:
            if isinstance(op, Gate):
                key = (op.base, op.angles, op.targets, op.controls, op.adjoint, indent)
                append(memo.get(key) or self.gate_line(op, key))
            elif isinstance(op, Measure):
                name = self.measure_name(op)
                self.line(self.MEASURE[not top_level].format(name, op.qubit))
                self.bit_local[op.bit] = name
            elif isinstance(op, Reset):
                self.line(self.RESET.format(op.qubit))
            elif isinstance(op, Nop):
                pass
            elif isinstance(op, CondBlock):
                self.emit_cond(op, top_level)
            else:
                raise UnsupportedOp(f"no {self.TARGET} rendering for {type(op).__name__}")

    def measure_name(self, op: Measure) -> str:
        return f"m{self.measure_index[id(op)]}"

    def cond_text(self, pred: Predicate, subject: str, negate: bool = False) -> str:
        """The test of `pred`, or of its negation, on `subject`: the local
        of the bit it reads, or the packed register (see `pack_expr`)."""
        if pred.comparator == "truthy":
            if negate:
                return f"{subject} == 0"
            return subject if pred.index is not None else f"{subject} != 0"
        comparator = _NEGATE_CMP[pred.comparator] if negate else pred.comparator
        return f"{subject} {comparator} {pred.rhs}"

    def pack_expr(self, pred: Predicate) -> str:
        """MSB-first pack of a whole register into an integer."""
        width = self.kernel.classical_width(pred.register)
        terms = []
        for j in range(width):
            local = self.bit_local[(pred.register, j)]
            shift = width - 1 - j
            terms.append(local if shift == 0 else f"({local} << {shift})")
        return " | ".join(terms)


# ---------------------------------------------------------------------------
# cudaq-cpp
# ---------------------------------------------------------------------------


class _CppEmitter(_EmitterBase):
    TARGET = "cudaq-cpp"
    MEASURE = ("auto {} = mz(q[{}]);", "{} = mz(q[{}]);")
    RESET = "reset(q[{}]);"
    RESERVED = frozenset(
        "q cudaq counts transpiled_kernel main std x y z h s t sx rx ry rz r1 u3 swap mz reset alignas alignof and and_eq "
        "asm auto bitand bitor bool break case catch char char8_t char16_t char32_t class compl concept const consteval "
        "constexpr constinit const_cast continue co_await co_return co_yield decltype default delete do double dynamic_cast "
        "else enum explicit export extern false float for friend goto if inline int long mutable namespace new noexcept "
        "not not_eq nullptr operator or or_eq private protected public register reinterpret_cast requires return short "
        "signed sizeof static static_assert static_cast struct switch template this thread_local throw true try typedef "
        "typeid typename union unsigned using virtual void volatile wchar_t while xor xor_eq".split()
    )
    RESERVED_FORM = re.compile(r"(m|cval)\d+|_[A-Z].*|.*__.*")

    def emit(self) -> str:
        k = self.kernel
        self.lines.extend(["// CUDA-Q C++ kernel (target: cudaq-cpp)"])
        self.lines.extend(_layout_comments(k, "//"))
        self.line()
        self.line("#include <cudaq.h>")
        self.line()
        self.line("struct transpiled_kernel {")
        self.indent += 1
        args = ", ".join(
            f"std::vector<double> {p.name}" if p.array else f"double {p.name}"
            for p in k.param_layout
        )
        self.line(f"void operator()({args}) __qpu__ {{")
        self.indent += 1
        if k.qubit_count:
            self.line(f"cudaq::qvector q({k.qubit_count});")
        self.emit_ops(k.body, top_level=True)
        self.indent -= 1
        self.line("}")
        self.indent -= 1
        self.line("};")
        self.line()
        self.line("int main() {")
        self.indent += 1
        call_args = ["1000", "transpiled_kernel{}"]
        for p in k.param_layout:
            if p.array:
                self.line(f"std::vector<double> {p.name}({p.count}, 0.0);  // runtime parameter values")
            else:
                self.line(f"double {p.name} = 0.0;  // runtime parameter value")
            call_args.append(p.name)
        self.line(f"auto counts = cudaq::sample({', '.join(call_args)});")
        self.line("counts.dump();")
        self.line("return 0;")
        self.indent -= 1
        self.line("}")
        return "\n".join(self.lines) + "\n"

    def emit_cond(self, op: CondBlock, top_level: bool) -> None:
        if top_level:
            inner = list(measures([op]))
            writes = Counter(m.bit for m in inner)
            bit = next((m.bit for m in inner if writes[m.bit] > 1), None)  # the first, in program order
            if bit is not None:
                raise UnsupportedForTarget(
                    f"cudaq-cpp cannot render two conditional measurements of "
                    f"{bit[0]}[{bit[1]}] inside one conditional region"
                )
            for m in inner:
                name = self.measure_name(m)
                init = self.bit_local.get(m.bit, "0")
                self.line(f"int {name} = {init};")
                self.bit_local[m.bit] = name
        pred = op.predicate
        if pred.index is None:
            cval = f"cval{self.cond_count}"
            self.cond_count += 1
            self.line(f"int {cval} = {self.pack_expr(pred)};")
            subject = cval
        else:
            subject = self.bit_local[(pred.register, pred.index)]
        self.line(f"if ({self.cond_text(pred, subject)}) {{")
        self.indent += 1
        self.emit_ops(op.then_body, top_level=False)
        self.indent -= 1
        if op.else_body:
            self.line("} else {")
            self.indent += 1
            self.emit_ops(op.else_body, top_level=False)
            self.indent -= 1
        self.line("}")

    def render_gate(self, op: Gate) -> str:
        name = _GATE_NAME.get(op.base, op.base)
        mods = []
        if op.controls:
            mods.append("cudaq::ctrl")
        if op.adjoint:
            mods.append("cudaq::adj")
        if mods:
            name = f"{name}<{', '.join(mods)}>"
        args = [_angle_text(a, self.kernel) for a in op.angles]
        args += [f"!q[{q}]" if pol == NEG else f"q[{q}]" for q, pol in op.controls]
        args += [f"q[{t}]" for t in op.targets]
        return f"{name}({', '.join(args)});"


# ---------------------------------------------------------------------------
# cudaq-builder
# ---------------------------------------------------------------------------


class _BuilderEmitter(_EmitterBase):
    TARGET = "cudaq-builder"
    MEASURE = ("{} = kernel.mz(q[{}])",) * 2
    RESET = "kernel.reset(q[{}])"
    RESERVED = frozenset(keyword.kwlist + "q kernel cudaq build_kernel counts float list".split())
    RESERVED_FORM = re.compile(r"(m|cval)\d+|cond_\d+_(then|else)|sub_.*")

    def emit(self) -> str:
        k = self.kernel
        self.prologue: dict[str, str] = {}
        self.lines.append("# CUDA-Q builder kernel (target: cudaq-builder)")
        self.lines.extend(_layout_comments(k, "#"))
        self.line()
        self.line()
        self.line("def build_kernel():")
        self.indent += 1
        self.line("import cudaq")
        self.line()
        if k.param_layout:
            names = ", ".join(p.name for p in k.param_layout)
            types = ", ".join("list[float]" if p.array else "float" for p in k.param_layout)
            self.line(f"kernel, {names} = cudaq.make_kernel({types})")
        else:
            self.line("kernel = cudaq.make_kernel()")
        if k.qubit_count:
            self.line(f"q = kernel.qalloc({k.qubit_count})")
        head = len(self.lines)
        self.emit_ops(k.body, top_level=True)
        self.lines[head:head] = self.prologue.values()
        self.line("return kernel")
        self.indent -= 1
        self.line()
        self.line()
        self.line('if __name__ == "__main__":')
        self.indent += 1
        self.line("import cudaq")
        self.line()
        sample_args = ["build_kernel()"]
        for p in k.param_layout:
            sample_args.append(f"[0.0] * {p.count}" if p.array else "0.0")
        sample_args.append("shots_count=1000")
        self.line(f"counts = cudaq.sample({', '.join(sample_args)})")
        self.line("print(counts)")
        self.indent -= 1
        return "\n".join(self.lines) + "\n"

    def emit_cond(self, op: CondBlock, top_level: bool) -> None:
        if any(measures([op])):
            raise UnsupportedForTarget(
                "cudaq-builder cannot render measurements inside a conditional body; "
                "use the cudaq-cpp target"
            )
        pred = op.predicate
        cond_id = self.cond_count
        self.cond_count += 1
        if pred.index is None:
            subject = f"cval{cond_id}"
            self.line(f"{subject} = {self.pack_expr(pred)}")
        else:
            subject = self.bit_local[(pred.register, pred.index)]

        then_name = f"cond_{cond_id}_then"
        self.line()
        self.line(f"def {then_name}():")
        self.indent += 1
        if op.then_body:
            self.emit_ops(op.then_body, top_level=False)
        else:
            self.line("pass")
        self.indent -= 1
        self.line()
        self.line(f"kernel.c_if({self.cond_text(pred, subject)}, {then_name})")
        if op.else_body:
            else_name = f"cond_{cond_id}_else"
            self.line()
            self.line(f"def {else_name}():")
            self.indent += 1
            self.emit_ops(op.else_body, top_level=False)
            self.indent -= 1
            self.line()
            self.line(f"kernel.c_if({self.cond_text(pred, subject, negate=True)}, {else_name})")

    def render_gate(self, op: Gate) -> str:
        """The plain call, or the `c<name>` sugar for a single positive
        control; else the gate's sub-kernel by kernel.adjoint or
        kernel.control (an adjoint one wrapped to take controls), with an X
        sandwich on each negative control."""
        name = _GATE_NAME.get(op.base, op.base)
        angles = [_angle_text(a, self.kernel) for a in op.angles]
        targets = [f"q[{t}]" for t in op.targets]
        if not op.adjoint and not op.controls:
            return f"kernel.{name}({', '.join(angles + targets)})"
        ctrls = [f"q[{q}]" for q, _ in op.controls]
        if not op.adjoint and len(ctrls) == 1 and op.controls[0][1] == POS and op.base in _BUILDER_CTRL_SUGAR:
            return f"kernel.c{name}({', '.join(angles + ctrls + targets)})"
        args = ", ".join(angles + targets)
        sub = self.sub_kernel(name, len(angles), len(targets))
        if not ctrls:
            return f"kernel.adjoint({sub}, {args})"
        if op.adjoint:
            sub = self.sub_kernel("adjoint", len(angles), len(targets), sub)
        flips = [f"kernel.x(q[{q}])" for q, pol in op.controls if pol == NEG]
        ctrl_expr = ctrls[0] if len(ctrls) == 1 else f"[{', '.join(ctrls)}]"
        return "\n".join([*flips, f"kernel.control({sub}, {ctrl_expr}, {args})", *reversed(flips)])

    def sub_kernel(self, method: str, n_angles: int, n_targets: int, *lead: str) -> str:
        """The sub-kernel over n_angles floats and n_targets qubits whose body
        is the one call `sub.method(*lead, *args)`, named by that shape
        (`sub_rx`, or `sub_adj_s` around `sub_s`); defined in the prologue
        on first use."""
        sub = f"sub_adj_{lead[0][4:]}" if lead else f"sub_{method}"
        if sub not in self.prologue:
            names = [f"{sub}_a{i}" for i in range(n_angles)] + [f"{sub}_q{j}" for j in range(n_targets)]
            types = ", ".join(["float"] * n_angles + ["cudaq.qubit"] * n_targets)
            self.prologue[sub] = (f"  {sub}, {', '.join(names)} = cudaq.make_kernel({types})\n"
                                  f"  {sub}.{method}({', '.join([*lead, *names])})")
        return sub


@gc_paused
def emit(kernel: Kernel, target: str) -> EmittedSource:
    """Render a kernel as CUDA-Q source text for the given target."""
    if target not in EMISSION_TARGETS:
        raise UnsupportedOp(f"unknown emission target {target!r}; expected one of {EMISSION_TARGETS}")
    text = (_CppEmitter if target == "cudaq-cpp" else _BuilderEmitter)(kernel).emit()
    signature = [(p.name, p.count) for p in kernel.param_layout]
    return EmittedSource(target=target, text=text, param_signature=signature)


def golden_check(emitted: EmittedSource, golden_file: str, record: bool = False) -> tuple[bool, str]:
    """Byte-exact comparison against a golden file.

    Returns (passed, detail); in record mode a missing or differing file is
    rewritten and the check passes.
    """
    data = emitted.text.encode()
    if not os.path.exists(golden_file):
        if record:
            os.makedirs(os.path.dirname(golden_file) or ".", exist_ok=True)
            with open(golden_file, "wb") as fh:
                fh.write(data)
            return True, "recorded"
        raise MissingGolden(f"golden file {golden_file} does not exist (run in record mode)")
    with open(golden_file, "rb") as fh:
        expected = fh.read()
    if expected == data:
        return True, "identical"
    if record:
        with open(golden_file, "wb") as fh:
            fh.write(data)
        return True, "re-recorded"
    exp_lines = expected.decode(errors="replace").splitlines()
    got_lines = emitted.text.splitlines()
    for i, (exp, got) in enumerate(zip(exp_lines, got_lines), start=1):
        if exp != got:
            return False, f"first difference at line {i}: expected {exp!r}, got {got!r}"
    longer = max(len(exp_lines), len(got_lines))
    return False, f"first difference at line {min(len(exp_lines), len(got_lines)) + 1} of {longer}"
