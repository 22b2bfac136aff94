"""A recording stand-in for the `cudaq` builder API, and the translation
validation of emitted `cudaq-builder` scripts built on it (Pnueli, Siegel
and Singerman, "Translation Validation", TACAS 1998).

`rebuild(text, source)` executes an emitted script with the stub installed
as the `cudaq` module, calls its `build_kernel()`, and rebuilds the kernel
IR that the script's builder calls describe: gate methods, `mz`, `reset`,
`kernel.control` / `kernel.adjoint` applications of sub-kernels (expanded
into their recorded gates) and `c_if` (a `CondBlock` with an empty else
body). `check_builder(source, text)` then requires the rebuilt kernel to
mean the source: an op list equal to the source's, or else equal final
states for a kernel with no measure, reset or conditional; otherwise equal sample histograms at one seed and equal keys
and final states of `run_trajectory` on shots 0-31 (a histogram alone
misses a wrong branch on a qubit that is never measured).

The builder API has no classical registers: `kernel.mz` returns a handle.
The one correspondence taken from the source is that the i-th `mz` call
writes the bit of the source's i-th measure in `kir.measures` order, into
the source's classical registers. A predicate may read a handle only while
it holds its bit's latest value, and a packed register is accepted only as
the MSB-first `(b0 << w-1) | ... | b{w-1}` of all w bits of one register.
"""

from __future__ import annotations

import sys
import types

import numpy as np

from qasm2cudaq import kir, sim
from qasm2cudaq.kir import POS, CondBlock, Gate, Measure, ParamRef, Reset


class StubError(AssertionError):
    """The script made a call the builder API (as modelled here) rejects,
    or one the source kernel cannot correspond to."""


class qubit:
    """`cudaq.qubit`: the type of a sub-kernel's qubit argument."""


_ARG_TYPES = (float, list[float], qubit)

# builder method -> (IR base, angles, controls); swap has two targets
_METHODS = {name: (name, 0, 0) for name in "x y z h s t sx swap".split()}
_METHODS.update({name: (name, 1, 0) for name in "rx ry rz".split()})
_METHODS.update(r1=("p", 1, 0), u3=("u", 3, 0), cr1=("p", 1, 1))
_METHODS.update({f"c{name}": (name, 0, 1) for name in "x y z h".split()})
_METHODS.update({f"c{name}": (name, 1, 1) for name in "rx ry rz".split()})

_COMPARATORS = {"__eq__": "==", "__ne__": "!=", "__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">="}


class _Qubit:
    def __init__(self, index: int):
        self.index = index


class _QVec:
    def __init__(self, size: int):
        self.size = size

    def __getitem__(self, i):
        if type(i) is not int or not 0 <= i < self.size:
            raise StubError(f"qubit index {i!r} outside a register of {self.size}")
        return _Qubit(i)


class _Formal:
    """Argument `index` of `kernel`, as its body sees it."""

    def __init__(self, kernel: "_Kernel", index: int):
        self.kernel = kernel
        self.index = index
        self.type = kernel.types[index]

    def __getitem__(self, i):
        if self.type != list[float] or type(i) is not int or i < 0:
            raise StubError(f"cannot index argument {self.index} ({self.type}) with {i!r}")
        return _Element(self, i)


class _Element:
    def __init__(self, array: _Formal, index: int):
        self.array = array
        self.index = index


def _is_angle(a) -> bool:
    return type(a) is float or isinstance(a, _Element) or (isinstance(a, _Formal) and a.type is float)


def _is_qubit(a) -> bool:
    return isinstance(a, _Qubit) or (isinstance(a, _Formal) and a.type is qubit)


class _Value:
    """A measure handle or an expression over handles: `terms` lists
    (handle, left shift) in the order the expression names them."""

    terms: list

    def __lshift__(self, k):
        if len(self.terms) != 1 or self.terms[0][1] or type(k) is not int:
            raise StubError("only a single handle may be shifted, by an int")
        return _Pack([(self.terms[0][0], k)])

    def __or__(self, other):
        if not isinstance(other, _Value):
            raise StubError(f"cannot or a handle with {other!r}")
        return _Pack(self.terms + other.terms)

    def _compare(self, comparator: str, rhs):
        if type(rhs) is not int or rhs < 0:
            raise StubError(f"a handle is compared with a non-negative int, not {rhs!r}")
        return _Cond(self, comparator, rhs)


for _dunder, _comparator in _COMPARATORS.items():
    setattr(_Value, _dunder, lambda self, rhs, c=_comparator: self._compare(c, rhs))


class _Handle(_Value):
    """What `kernel.mz` returns: the outcome of measure number `number`."""

    def __init__(self, number: int, bit: tuple[str, int]):
        self.number = number
        self.bit = bit
        self.terms = [(self, 0)]


class _Pack(_Value):
    def __init__(self, terms: list):
        self.terms = terms


class _Cond:
    def __init__(self, value: _Value, comparator: str, rhs: int):
        self.value = value
        self.comparator = comparator
        self.rhs = rhs


class _Kernel:
    def __init__(self, recorder: "_Recorder", arg_types: tuple):
        self.recorder = recorder
        self.types = arg_types
        self.formals = [_Formal(self, i) for i in range(len(arg_types))]
        self.qubit_count: int | None = None
        self.ops: list = []
        self.target = self.ops  # the body calls land in; a c_if body while it runs

    def __getattr__(self, name: str):
        if name not in _METHODS:
            raise AttributeError(f"builder kernels have no method {name!r}")
        base, n_angles, n_controls = _METHODS[name]
        n_qubits = n_controls + (2 if base == "swap" else 1)

        def call(*args):
            if len(args) != n_angles + n_qubits:
                raise StubError(f"kernel.{name} takes {n_angles + n_qubits} arguments, got {len(args)}")
            angles, qubits = args[:n_angles], args[n_angles:]
            if not all(map(_is_angle, angles)) or not all(map(_is_qubit, qubits)):
                raise StubError(f"kernel.{name}{args!r}: expected {n_angles} angle(s), then {n_qubits} qubit(s)")
            controls = tuple((c, POS) for c in qubits[:n_controls])
            self.target.append(Gate(base, tuple(angles), tuple(qubits[n_controls:]), controls))

        return call

    def qalloc(self, size: int) -> _QVec:
        if self.qubit_count is not None or type(size) is not int or size < 1:
            raise StubError(f"qalloc({size!r}) on a kernel holding {self.qubit_count} qubit(s)")
        self.qubit_count = size
        return _QVec(size)

    def mz(self, q) -> _Handle:
        if self.qubit_count is None or not isinstance(q, _Qubit) or self.target is not self.ops:
            raise StubError("mz takes an allocated qubit of the kernel, outside any c_if body")
        return self.recorder.measure(self, q)

    def reset(self, q) -> None:
        if self.qubit_count is None or not isinstance(q, _Qubit):
            raise StubError("reset takes an allocated qubit of the kernel")
        self.target.append(Reset(q))

    def _expand(self, sub, args: tuple) -> list[Gate]:
        """The gates of `sub` with its arguments bound to `args`."""
        if not isinstance(sub, _Kernel) or sub is self or sub.qubit_count is not None:
            raise StubError("control and adjoint apply a sub-kernel with no qubits of its own")
        if len(args) != len(sub.types):
            raise StubError(f"sub-kernel takes {len(sub.types)} argument(s), got {len(args)}")
        for formal, arg in zip(sub.formals, args):
            if not (_is_qubit(arg) if formal.type is qubit else _is_angle(arg)):
                raise StubError(f"argument {formal.index} of a sub-kernel must be a {formal.type.__name__}")
        binding = {id(f): a for f, a in zip(sub.formals, args)}

        def bind(x):
            return binding.get(id(x), x)

        return [
            Gate(g.base, tuple(map(bind, g.angles)), tuple(map(bind, g.targets)), tuple((bind(q), p) for q, p in g.controls), g.adjoint)
            for g in sub.ops
        ]

    def control(self, sub, ctrl, *args) -> None:
        ctrls = ctrl if isinstance(ctrl, list) else [ctrl]
        if not ctrls or not all(map(_is_qubit, ctrls)):
            raise StubError("kernel.control takes a qubit or a non-empty list of qubits")
        extra = tuple((c, POS) for c in ctrls)
        for g in self._expand(sub, args):
            self.target.append(Gate(g.base, g.angles, g.targets, extra + g.controls, g.adjoint))

    def adjoint(self, sub, *args) -> None:
        for g in reversed(self._expand(sub, args)):
            self.target.append(Gate(g.base, g.angles, g.targets, g.controls, not g.adjoint))

    def c_if(self, cond, body) -> None:
        if self.qubit_count is None:
            raise StubError("c_if on a sub-kernel")
        predicate = self.recorder.predicate(cond)
        outer, self.target = self.target, []
        try:
            body()
        finally:
            then_body, self.target = self.target, outer
        self.target.append(CondBlock(predicate, then_body, []))


class _Recorder:
    """One run of one script against one source kernel."""

    def __init__(self, source: kir.Kernel):
        self.source = source
        self.bits = [m.bit for m in kir.measures(source.body)]
        self.latest: dict[tuple[str, int], _Handle] = {}
        self.handles = 0

    def make_kernel(self, *arg_types):
        for t in arg_types:
            if t not in _ARG_TYPES:
                raise StubError(f"make_kernel argument type {t!r}")
        kernel = _Kernel(self, arg_types)
        return (kernel, *kernel.formals) if arg_types else kernel

    def measure(self, kernel: _Kernel, q: _Qubit) -> _Handle:
        if self.handles >= len(self.bits):
            raise StubError(f"more mz calls than the source's {len(self.bits)} measure(s)")
        handle = _Handle(self.handles, self.bits[self.handles])
        self.handles += 1
        self.latest[handle.bit] = handle
        kernel.target.append(Measure(q, handle.bit))
        return handle

    def predicate(self, cond) -> kir.Predicate:
        if isinstance(cond, _Cond):
            value, comparator, rhs = cond.value, cond.comparator, cond.rhs
        else:
            value, comparator, rhs = cond, "truthy", 0
        if not isinstance(value, _Value):
            raise StubError(f"c_if on {cond!r}, not a condition over measure handles")
        for handle, _ in value.terms:
            if self.latest.get(handle.bit) is not handle:
                raise StubError(f"m{handle.number} no longer holds {handle.bit[0]}[{handle.bit[1]}]")
        (handle, shift), *rest = value.terms
        if not rest and not shift:
            return kir.Predicate(*handle.bit, comparator, rhs)
        register = handle.bit[0]
        width = self.source.classical_width(register)
        msb_first = [((register, j), width - 1 - j) for j in range(width)]
        if [(h.bit, s) for h, s in value.terms] != msb_first:
            raise StubError(f"packed register {register} is not (b0 << {width - 1}) | ... | b{width - 1}")
        return kir.Predicate(register, None, comparator, rhs)

    def finish(self, kernel) -> kir.Kernel:
        """The rebuilt kernel: formals of `kernel` become the source's
        parameter slots, qubit handles their indices."""
        if not isinstance(kernel, _Kernel) or kernel.recorder is not self:
            raise StubError("build_kernel() did not return a kernel made by cudaq.make_kernel")
        layout = self.source.param_layout
        expected = tuple(list[float] if p.array else float for p in layout)
        if kernel.types != expected:
            raise StubError(f"kernel arguments {kernel.types} where the source takes {expected}")
        if self.handles != len(self.bits):
            raise StubError(f"{self.handles} mz call(s) for the source's {len(self.bits)} measure(s)")
        n = kernel.qubit_count or 0

        def angle(a):
            if type(a) is float:
                return a
            if isinstance(a, _Formal) and a.kernel is kernel:
                return ParamRef(layout[a.index].offset)
            if isinstance(a, _Element) and a.array.kernel is kernel and a.index < layout[a.array.index].count:
                return ParamRef(layout[a.array.index].offset + a.index)
            raise StubError(f"angle {a!r} is not a literal or an argument of the kernel")

        def index(q) -> int:
            if not isinstance(q, _Qubit):
                raise StubError(f"{q!r} is not an allocated qubit")
            return q.index

        def body(ops: list) -> list:
            out = []
            for op in ops:
                if isinstance(op, Gate):
                    qubits = [index(t) for t in op.targets] + [index(c) for c, _ in op.controls]
                    if len(set(qubits)) != len(qubits):
                        raise StubError(f"kernel.{op.base} names a qubit twice")
                    controls = tuple((index(c), p) for c, p in op.controls)
                    op = Gate(op.base, tuple(map(angle, op.angles)), tuple(map(index, op.targets)), controls, op.adjoint)
                elif isinstance(op, Measure):
                    op = Measure(index(op.qubit), op.bit)
                elif isinstance(op, Reset):
                    op = Reset(index(op.qubit))
                else:
                    op = CondBlock(op.predicate, body(op.then_body), [])
                out.append(op)
            return out

        return kir.Kernel(n, [("q", n)] if n else [], list(layout), list(self.source.classical_layout), body(kernel.ops))


def rebuild(text: str, source: kir.Kernel) -> kir.Kernel:
    """Run an emitted cudaq-builder script on the stub; the kernel IR its
    `build_kernel()` describes."""
    recorder = _Recorder(source)
    module = types.ModuleType("cudaq")
    module.make_kernel = recorder.make_kernel
    module.qubit = qubit
    namespace = {"__name__": "emitted_cudaq_builder"}
    saved = sys.modules.get("cudaq")
    sys.modules["cudaq"] = module
    try:
        exec(compile(text, "<cudaq-builder>", "exec"), namespace)
        kernel = namespace["build_kernel"]()
    finally:
        if saved is None:
            del sys.modules["cudaq"]
        else:
            sys.modules["cudaq"] = saved
    return recorder.finish(kernel)


CHECK_SEED = 5
CHECK_SHOTS = 256
TRAJECTORY_SHOTS = 32


def check_builder(source: kir.Kernel, text: str) -> None:
    """Rebuild `text` and require it to mean `source` (see the module
    docstring)."""
    rebuilt = rebuild(text, source)
    assert rebuilt.qubit_count == source.qubit_count
    if rebuilt.body == source.body:
        return  # equal op lists simulate to bit-identical results
    values = [0.3 + 0.1 * k for k in range(source.total_params)]
    want, got = kir.bind(source, values), kir.bind(rebuilt, values)
    if not any(isinstance(op, (Measure, Reset, CondBlock)) for op in source.body):
        assert all(isinstance(op, Gate) for op in rebuilt.body)
        np.testing.assert_allclose(sim.statevector(got).amps, sim.statevector(want).amps, rtol=0, atol=1e-12)
        return
    assert sim.sample(got, CHECK_SHOTS, CHECK_SEED).counts == sim.sample(want, CHECK_SHOTS, CHECK_SEED).counts
    for shot in range(TRAJECTORY_SHOTS):
        key, state = sim.run_trajectory(got, sim.RngStream.for_shot(CHECK_SEED, shot))
        want_key, want_state = sim.run_trajectory(want, sim.RngStream.for_shot(CHECK_SEED, shot))
        assert key == want_key, f"shot {shot}"
        np.testing.assert_allclose(state.amps, want_state.amps, rtol=0, atol=1e-12, err_msg=f"shot {shot}")
