"""Spans recorded from outside the program, by rebinding module attributes.

The benchmark never edits the package. For a traced pass it replaces the
public functions listed in ``LAYERS`` with thin wrappers, on the module
object that callers look the name up on, and puts the originals back
afterwards. Internal callers such as ``sim._exec_ops`` reach
``sim.apply_gate`` through the module globals, so they see the wrapper too.

A span records its name, start, end, parent span and a tag naming the
family of the workload item that was running. Spans stay in memory until
the run ends and are then written out in one file.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# layer -> (module, attribute) pairs wrapped in a traced pass.
# ``qasm2cudaq.emit`` is shadowed by the ``emit`` function in the package
# ``__init__``, so modules are reached through importlib, never getattr.
LAYERS = {
    "frontend": [("qasm2cudaq.frontend", "tokenize"), ("qasm2cudaq.frontend", "parse")],
    "sema": [("qasm2cudaq.sema", "analyze")],
    "kir": [("qasm2cudaq.kir", "lower"), ("qasm2cudaq.kir", "bind")],
    "emit": [("qasm2cudaq.emit", "emit")],
    "sim": [
        ("qasm2cudaq.sim", "apply_gate"),
        ("qasm2cudaq.sim", "measure"),
        ("qasm2cudaq.sim", "reset"),
        ("qasm2cudaq.sim", "statevector"),
        ("qasm2cudaq.sim", "sample"),
        ("qasm2cudaq.sim", "run_trajectory"),
        ("qasm2cudaq.sim", "expval_pauli"),
    ],
}
PROGRAM_LAYERS = tuple(LAYERS)


def _span_name(module: str, attr: str) -> str:
    if attr == "for_shot":
        return "sim.rng.for_shot"
    return f"{module.rsplit('.', 1)[1]}.{attr}"


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans while installed; ``with tracer.installed():`` scopes it.

    Spans live in one flat list of ints, five per span (name id, start ns,
    end ns, parent position, tag id), so a run with 10^5 spans adds no
    objects for the garbage collector to walk."""

    FIELDS = 5

    def __init__(self) -> None:
        self.flat: list[int] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = [-1]
        self._tag = 0
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_tag(self, tag: str) -> None:
        """Label the spans that follow, e.g. with the running item's family."""
        self._tag = self._id(tag)

    @property
    def span_count(self) -> int:
        return len(self.flat) // self.FIELDS

    # -- spans opened by the benchmark itself ----------------------------------
    def open(self, name: str) -> int:
        pos = len(self.flat)
        self.flat.extend((self._id(name), time.perf_counter_ns(), 0, self._stack[-1], self._tag))
        self._stack.append(pos)
        return pos

    def close(self, pos: int) -> None:
        self.flat[pos + 2] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers around the program's public functions -------------------------
    def _wrap(self, module: str, attr: str, fn):
        flat, stack, clock = self.flat, self._stack, time.perf_counter_ns
        name_id = self._id(_span_name(module, attr))
        per_target = attr == "emit"  # emit(kernel, target): one span name per target

        def traced(*args, **kwargs):
            pos = len(flat)
            nid = self._id(f"emit.{args[1]}") if per_target else name_id
            flat.extend((nid, clock(), 0, stack[-1], self._tag))
            stack.append(pos)
            try:
                return fn(*args, **kwargs)
            finally:
                flat[pos + 2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for pairs in LAYERS.values():
            for module, attr in pairs:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(module, attr, original))
        # RngStream.for_shot is a classmethod; callers use RngStream.for_shot(...)
        sim = importlib.import_module("qasm2cudaq.sim")
        self._saved.append((sim.RngStream, "for_shot", sim.RngStream.__dict__["for_shot"]))
        sim.RngStream.for_shot = staticmethod(self._wrap("qasm2cudaq.sim", "for_shot", sim.RngStream.for_shot))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------------
    def _spans(self):
        f = self.flat
        for pos in range(0, len(f), self.FIELDS):
            yield pos, self.names[f[pos]], f[pos + 1], f[pos + 2], f[pos + 3], self.names[f[pos + 4]]

    def summary(self) -> dict:
        """Inclusive time and calls per span name, self time per layer."""
        child_ns: dict[int, int] = defaultdict(int)
        for _pos, _name, start, end, parent, _tag in self._spans():
            if parent >= 0:
                child_ns[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        by_tag: dict[tuple[str, str], float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        for pos, name, start, end, _parent, tag in self._spans():
            dur = end - start
            inclusive[name] += dur * 1e-9
            calls[name] += 1
            by_tag[(name, tag)] += dur * 1e-9
            layer_self[_layer_of(name)] += (dur - child_ns[pos]) * 1e-9
        return {
            "inclusive": dict(inclusive),
            "calls": dict(calls),
            "by_tag": dict(by_tag),
            "layer_self": dict(layer_self),
        }

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start and end in ns from
        the first span, parent span number (-1 for none), tag."""
        t0 = self.flat[1] if self.flat else 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for _pos, name, start, end, parent, tag in self._spans():
                parent_no = parent // self.FIELDS if parent >= 0 else -1
                fh.write(json.dumps([name, start - t0, end - t0, parent_no, tag]) + "\n")
