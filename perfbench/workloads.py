"""The three workloads: inputs made from a seed, one timed pass, checks.

Each workload turns its seed into a fixed list of items. An item is one
source text plus what an independent reference says its result must be.
``run`` times the pipeline from source text to the item's result and
nothing else; ``check`` compares the result with the reference afterwards,
outside the timed region. No check takes the compiler's own output as its
reference, except the repetition checks, which compare a run with itself.

The package is reached only through module attributes looked up at call
time (``fe.tokenize(...)``), so the traced pass sees the wrappers that
``tracing.Tracer`` installs.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import importlib.util
import math
import random
import re
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

fe = importlib.import_module("qasm2cudaq.frontend")
sema = importlib.import_module("qasm2cudaq.sema")
kir = importlib.import_module("qasm2cudaq.kir")
emit_mod = importlib.import_module("qasm2cudaq.emit")  # shadowed by emit() in the package
sim = importlib.import_module("qasm2cudaq.sim")
randqasm = importlib.import_module("qasm2cudaq.randqasm")

TARGETS = ("cudaq-cpp", "cudaq-builder")
FIDELITY = 1.0 - 1e-10
NORM_TOL = 1e-10
EXPVAL_TOL = 1e-9
HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'


# ---------------------------------------------------------------------------
# Bookkeeping shared by every workload
# ---------------------------------------------------------------------------


class Checks:
    """Counts correctness checks; a failed or raising check is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


class Stopwatch:
    """Adds up the timed segments of one item; opens a bench span per
    segment when a tracer is given."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    @contextmanager
    def timed(self):
        span = self.tracer.open("bench.item") if self.tracer is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)


# The machine's pace drifts by tens of percent over seconds to minutes on a
# shared host, so each timed interval is also expressed in reference seconds:
# wall seconds * ref / (the pace measured just before and just after it).
# A pace is the time of a fixed slice of benchmark-only work that resembles
# the workload: interpreter work for compile and sample, gate-like array work
# for simulate. ``ref`` is the slice's typical time on the machine the
# baseline was recorded on (2 vCPUs, Python 3.11, NumPy 2.4).
_PACE_TEXT = "h q[3];\ncx q[1], q[2];\nrz(0.25) q[0];\n" * 100
_PACE_RE = re.compile(r"[A-Za-z_]\w*|\d+\.\d*|\d+|\S")
_PACE_MIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PACE_PAIRS = np.ones((2, 1 << 17), dtype=np.complex128)  # 4 MB, like a gate on a state
_PACE_OUT = np.empty_like(_PACE_PAIRS)  # preallocated: the pace never touches the allocator


def _interpreter_slice() -> None:
    table: dict[int, int] = {}
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc] = i
    words = [(m.start(), m.group()) for m in _PACE_RE.finditer(_PACE_TEXT)]
    small = _PACE_PAIRS[0, : len(words) % 64 + 64]
    for _ in range(300):
        np.add(small, 0.0, out=small)


def _array_slice() -> None:
    for _ in range(4):
        np.matmul(_PACE_MIX, _PACE_PAIRS, out=_PACE_OUT)
        np.matmul(_PACE_MIX, _PACE_OUT, out=_PACE_PAIRS)


@dataclass(frozen=True)
class Pace:
    """A machine-speed probe. Only benchmark code runs in it and it allocates
    no arrays. The slice runs once untimed first, to bring its own data back
    into the caches, so what the program did before leaves no trace."""

    work: Callable[[], None]
    ref: float  # seconds

    def __call__(self) -> float:
        self.work()
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def to_reference(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.ref * 2.0 / (before + after)


INTERPRETER_PACE = Pace(_interpreter_slice, 0.0028)
ARRAY_PACE = Pace(_array_slice, 0.0047)


@dataclass
class Item:
    name: str
    family: str
    source: str
    expect: dict = field(default_factory=dict)


@dataclass
class PassResult:
    seconds: float = 0.0  # wall seconds of the timed segments
    units: int = 0
    times: dict[str, float] = field(default_factory=dict)  # item -> wall seconds
    ref_times: dict[str, float] = field(default_factory=dict)  # item -> reference seconds
    counts: Counter = field(default_factory=Counter)
    digests: dict[str, str] = field(default_factory=dict)
    family_ref_seconds: Counter = field(default_factory=Counter)
    family_units: Counter = field(default_factory=Counter)

    @property
    def ref_seconds(self) -> float:
        return sum(self.ref_times.values())


def run_pass(workload, items: list[Item], checks: Checks, tracer=None) -> PassResult:
    """Run every item once: collect garbage, time the pipeline between two
    pace measurements, then check, count and digest the result untimed."""
    result = PassResult()
    for item in items:
        gc.collect()
        watch = Stopwatch(tracer)
        if tracer is not None:
            tracer.set_tag(item.family)
        try:
            before = workload.pace()
            out = workload.run(item, watch)
            after = workload.pace()
            workload.check(item, out, checks)
            counts = workload.counts(item, out)
            digest = workload.digest(out)
        except Exception as exc:  # an item that raises is a failed check, and the run goes on
            checks(False, f"{item.name}: {type(exc).__name__}: {exc}")
            continue
        ref = workload.pace.to_reference(watch.seconds, before, after)
        result.seconds += watch.seconds
        result.times[item.name] = watch.seconds
        result.ref_times[item.name] = ref
        result.units += counts["units"]
        result.family_ref_seconds[item.family] += ref
        result.family_units[item.family] += counts["units"]
        for key, value in counts.items():
            if key.startswith("max_"):
                result.counts[key] = max(result.counts[key], value)
            else:
                result.counts[key] += value
        result.digests[item.name] = digest
    return result


def transpile(source: str) -> dict:
    """Source text to kernel, keeping each stage's output for the counts."""
    tokens = fe.tokenize(source)
    ast = fe.parse(tokens)
    vp = sema.analyze(ast)
    return {"tokens": tokens, "ast": ast, "vp": vp, "kernel": kir.lower(vp)}


def transpile_counts(out: dict) -> dict[str, int]:
    """Exact counts of the frontend, sema and kir outputs; computed untimed."""
    return {
        "tokens": len(out["tokens"]),
        "ast_statements": _count_ast(out["ast"].statements),
        "statements": _count_resolved(out["vp"].statements),
        "ops": _count_ops(out["kernel"].body),
    }


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _count_ast(stmts) -> int:
    total = 0
    for s in stmts:
        total += 1
        if isinstance(s, fe.GateDef):
            total += len(s.body)
        elif isinstance(s, fe.ForStatement):
            total += _count_ast(s.body)
        elif isinstance(s, fe.IfStatement):
            total += _count_ast(s.then_body) + _count_ast(s.else_body)
    return total


def _count_resolved(stmts) -> int:
    total = 0
    for s in stmts:
        total += 1
        if isinstance(s, sema.ResolvedIf):
            total += _count_resolved(s.then_body) + _count_resolved(s.else_body)
    return total


def _count_ops(ops) -> int:
    total = 0
    for op in ops:
        total += 1
        if isinstance(op, kir.CondBlock):
            total += _count_ops(op.then_body) + _count_ops(op.else_body)
    return total


# ---------------------------------------------------------------------------
# compile: source text -> emitted text for both targets, no simulation
# ---------------------------------------------------------------------------

FLAT_PROGRAMS = 80
LOOP_PROGRAMS = 8
LOOP_STATEMENTS = 20_000


def _flat_expected_ops(source: str) -> int:
    """Ops the generator's text implies: one per gate line, two for the
    ``pair`` gate (h; cx). Counted from the text, not from the compiler."""
    body = source.split(" q;\n", 1)[1]
    return sum(2 if line.startswith("pair ") else 1 for line in body.splitlines() if line)


def loop_program(rng: random.Random, statements: int, index: int) -> Item:
    """About 330 B of source that unrolls and inlines to about ``statements``
    resolved calls, with nested gate definitions and every modifier. The
    shape (width, pow exponents) follows ``index``, the same for every seed;
    the seed picks the gates and the angle."""
    two = rng.choice(["cx", "cz", "cy", "ch"])
    rot = rng.choice(["rz", "rx", "ry", "p"])
    qubits = 6 + index % 7
    power = 1 + index % 3
    k = 1 + index // 3 % 3
    theta = round(rng.uniform(0.1, 3.0), 4)
    per_iter = 7 * power + 4  # pow(P) @ g2 (7 calls each), negctrl @ pow(k) @ s, ctrl @ g1 (3)
    reps = max(1, round(statements / ((qubits - 2) * per_iter)))
    source = (
        HEADER
        + f"gate g1(t) a, b {{ {two} a, b; {rot}(t) b; {two} a, b; }}\n"
        + "gate g2(t) a, b, c { g1(t) a, b; inv @ g1(t/2) b, c; ctrl @ h a, c; }\n"
        + f"qubit[{qubits}] q;\n"
        + f"for int r in [1:{reps}] {{ for int i in [0:{qubits - 3}] {{ "
        + f"pow({power}) @ g2({theta}) q[i], q[i+1], q[i+2]; "
        + f"negctrl @ pow({k}) @ s q[i], q[{qubits - 1}]; "
        + f"ctrl @ g1(pi/{k + 1}) q[{qubits - 1}], q[i], q[i+1]; }} }}\n"
    )
    iterations = reps * (qubits - 2)
    return Item(
        f"loop-{index}-q{qubits}-p{power}",
        "loop",
        source,
        {"statements": iterations * per_iter, "ops": iterations * (7 * power + k + 3)},
    )


def _load_golden_cases(root: Path) -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("golden_cases", root / "tests" / "golden_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.GOLDEN_CASES)


class CompileWorkload:
    name = "compile"
    pace = INTERPRETER_PACE

    def __init__(self, root: Path) -> None:
        self.golden_dir = root / "tests" / "golden"
        self.golden = _load_golden_cases(root)

    def _golden_items(self) -> list[Item]:
        return [Item(f"golden-{name}", "golden", src, {"golden": name}) for name, src in self.golden.items()]

    def generate(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        items = self._golden_items()
        # log-uniform sizes at the midpoints of FLAT_PROGRAMS equal strata, so
        # every seed gets the same sizes; the seed draws widths and gates
        for i in range(FLAT_PROGRAMS):
            gates = round(10 ** (2 + 2 * (i + 0.5) / FLAT_PROGRAMS))
            spec = randqasm.RandomCircuitSpec(
                qubits=rng.randint(8, 20), gate_count=gates, seed=rng.randrange(1 << 62), clifford_only=False
            )
            source = randqasm.generate(spec)
            items.append(Item(f"flat-{i:02d}-g{gates}", "flat", source, {"ops": _flat_expected_ops(source)}))
        items.extend(loop_program(rng, LOOP_STATEMENTS, i) for i in range(LOOP_PROGRAMS))
        random.Random(0).shuffle(items)  # one interleaving of the families for every seed
        return items

    def warmup_items(self, seed: int) -> list[Item]:
        rng = random.Random(seed ^ 0x5A5A)
        spec = randqasm.RandomCircuitSpec(qubits=8, gate_count=100, seed=rng.randrange(1 << 62), clifford_only=False)
        source = randqasm.generate(spec)
        flat = Item("warm-flat", "flat", source, {"ops": _flat_expected_ops(source)})
        return self._golden_items() + [flat, loop_program(rng, 500, 0)]

    def run(self, item: Item, watch: Stopwatch) -> dict:
        with watch.timed():
            out = transpile(item.source)
            out["emitted"] = [emit_mod.emit(out["kernel"], target) for target in TARGETS]
        return out

    def check(self, item: Item, out: dict, checks: Checks) -> None:
        if item.family == "golden":
            for emitted in out["emitted"]:
                path = self.golden_dir / emitted.target / f"{item.expect['golden']}.txt"
                ok, detail = emit_mod.golden_check(emitted, str(path), record=False)
                checks(ok, f"{item.name} {emitted.target}: {detail}")
            return
        ops = _count_ops(out["kernel"].body)
        checks(ops == item.expect["ops"], f"{item.name}: {ops} ops, generator implies {item.expect['ops']}")
        if "statements" in item.expect:
            n = _count_resolved(out["vp"].statements)
            checks(n == item.expect["statements"], f"{item.name}: {n} statements, expected {item.expect['statements']}")

    def counts(self, item: Item, out: dict) -> dict[str, int]:
        counts = transpile_counts(out)
        counts["units"] = counts["ops"]
        for emitted in out["emitted"]:
            counts[f"bytes.{emitted.target}"] = len(emitted.text.encode())
        return counts

    def digest(self, out: dict) -> str:
        return _sha(*(e.text.encode() for e in out["emitted"]))


# ---------------------------------------------------------------------------
# simulate: static circuits, source -> final state -> expectation value
# ---------------------------------------------------------------------------

RANDOM_SIZES = ((14, 300), (15, 500), (16, 900))  # (qubits, gates before the inverse)
PROBE_MEASURES = 6


def qft_source(n: int, basis: int) -> str:
    """QFT on the basis state |basis>: h and cp ladder, then the bit-reversal swaps."""
    lines = [HEADER + f"qubit[{n}] q;"]
    lines += [f"x q[{k}];" for k in range(n) if (basis >> k) & 1]
    for j in reversed(range(n)):
        lines.append(f"h q[{j}];")
        lines += [f"cp(pi/{1 << (j - k)}) q[{k}], q[{j}];" for k in reversed(range(j))]
    lines += [f"swap q[{i}], q[{n - 1 - i}];" for i in range(n // 2)]
    return "\n".join(lines) + "\n"


def dft_column(n: int, basis: int) -> np.ndarray:
    dim = 1 << n
    return np.exp(2j * math.pi * np.arange(dim) * basis / dim) / math.sqrt(dim)


def _z_string(rng: random.Random, n: int) -> str:
    """Half the qubits carry Z, at seeded positions: same cost for every seed."""
    chars = ["Z"] * (n // 2) + ["I"] * (n - n // 2)
    rng.shuffle(chars)
    return "".join(chars)


class SimulateWorkload:
    name = "simulate"
    pace = ARRAY_PACE

    def _items(self, rng: random.Random, qft_sizes, random_sizes, probe_n: int) -> list[Item]:
        items = []
        for n in qft_sizes:
            basis = rng.randrange(1, 1 << n)
            expect = {"n": n, "basis": basis, "pauli": _z_string(rng, n), "probe": []}
            if n == probe_n:
                expect["probe"] = rng.sample(range(n), PROBE_MEASURES)
                expect["probe_seed"] = rng.randrange(1 << 62)
            items.append(Item(f"qft{n}", "qft", qft_source(n, basis), expect))
        for n, gates in random_sizes:
            spec = randqasm.RandomCircuitSpec(
                qubits=n, gate_count=gates, seed=rng.randrange(1 << 62), clifford_only=False
            )
            source = randqasm.generate_with_inverse(spec)
            items.append(Item(f"random{n}", "random", source, {"n": n, "pauli": _z_string(rng, n)}))
        return items

    def generate(self, seed: int) -> list[Item]:
        return self._items(random.Random(seed), (18, 20), RANDOM_SIZES, probe_n=20)

    def warmup_items(self, seed: int) -> list[Item]:
        # a short circuit at the largest width brings the allocator to its steady state
        return self._items(random.Random(seed ^ 0x5A5A), (10,), ((20, 10),), probe_n=10)

    def run(self, item: Item, watch: Stopwatch) -> dict:
        with watch.timed():
            out = transpile(item.source)
            state = sim.statevector(kir.bind(out["kernel"], []))
            out["expval"] = sim.expval_pauli(state, item.expect["pauli"])
        out.update(state=state, final=state.amps)
        probe = item.expect.get("probe")
        if probe:
            out["final"] = state.amps.copy()  # untimed: the probe collapses the state
            rng = sim.RngStream(item.expect["probe_seed"])
            with watch.timed():
                out["outcomes"] = [sim.measure(state, q, rng) for q in probe]
        return out

    def check(self, item: Item, out: dict, checks: Checks) -> None:
        n, final = item.expect["n"], out["final"]
        norm = float(np.sqrt(np.vdot(final, final).real))
        checks(abs(norm - 1.0) <= NORM_TOL, f"{item.name}: norm {norm!r}")
        if item.family == "qft":
            fid = float(abs(np.vdot(dft_column(n, item.expect["basis"]), final)) ** 2)
            checks(fid >= FIDELITY, f"{item.name}: fidelity {fid!r} against the DFT column")
            checks(abs(out["expval"]) <= EXPVAL_TOL, f"{item.name}: <Z string> {out['expval']!r}, expected 0")
        else:
            fid = float(abs(final[0]) ** 2)
            checks(fid >= FIDELITY, f"{item.name}: circuit + inverse returns to |0> at {fid!r}")
            checks(abs(out["expval"] - 1.0) <= EXPVAL_TOL, f"{item.name}: <Z string> {out['expval']!r}, expected 1")
        if "outcomes" in out:
            self._check_probe(item, out, checks)

    @staticmethod
    def _check_probe(item: Item, out: dict, checks: Checks) -> None:
        """After measuring k qubits of a uniform-magnitude state, the support is
        the 2^(n-k) indices that agree with the outcomes, each at 2^-(n-k)."""
        n, probe, outcomes = item.expect["n"], item.expect["probe"], out["outcomes"]
        amps = out["state"].amps
        idx = np.arange(amps.size)
        agree = np.ones(amps.size, dtype=bool)
        for q, bit in zip(probe, outcomes):
            agree &= ((idx >> q) & 1) == bit
        prob = amps.real**2 + amps.imag**2
        expected = 2.0 ** -(n - len(probe))
        checks(bool(np.all(prob[~agree] == 0.0)), f"{item.name}: probe left weight outside the measured branch")
        checks(bool(np.allclose(prob[agree], expected, rtol=1e-9, atol=0)), f"{item.name}: probe branch not uniform")
        norm = float(np.sqrt(prob.sum()))
        checks(abs(norm - 1.0) <= NORM_TOL, f"{item.name}: norm after probe {norm!r}")

    def counts(self, item: Item, out: dict) -> dict[str, int]:
        counts = transpile_counts(out)
        counts.update(units=counts["ops"], measures=len(out.get("outcomes", ())), max_qubits=item.expect["n"])
        return counts

    def digest(self, out: dict) -> str:
        return _sha(out["state"].amps.tobytes(), repr(out.get("outcomes")).encode())


# ---------------------------------------------------------------------------
# sample: many small states, static draws and per-shot trajectories
# ---------------------------------------------------------------------------

BV_LENGTHS = (13, 14, 15, 16)
BV_SHOTS = 25_000
TRAJECTORY_SHOTS = 2_000
GHZ_DATA = (8, 10)  # plus one ancilla: 9 and 11 qubits
GHZ_ROUNDS = 2
GHZ_SHOTS = 500


def bv_source(hidden: str) -> str:
    n = len(hidden)
    lines = [HEADER + f"qubit[{n + 1}] q;\nbit[{n}] c;", f"x q[{n}];", f"for int i in [0:{n}] {{ h q[i]; }}"]
    lines += [f"cx q[{i}], q[{n}];" for i, ch in enumerate(hidden) if ch == "1"]
    lines.append(f"for int i in [0:{n - 1}] {{ h q[i]; }}")
    lines += [f"c[{i}] = measure q[{i}];" for i in range(n)]
    return "\n".join(lines) + "\n"


def teleport_source(th: float, ph: float, la: float) -> str:
    """Teleport u(th, ph, la)|0> from q[0] to q[2], undo u on q[2]: res is 0."""
    return (
        HEADER
        + "qubit[3] q;\nbit c0;\nbit c1;\nbit res;\n"
        + f"u({th!r}, {ph!r}, {la!r}) q[0];\n"
        + "h q[1];\ncx q[1], q[2];\ncx q[0], q[1];\nh q[0];\n"
        + "c0 = measure q[0];\nc1 = measure q[1];\n"
        + "if (c1 == 1) { x q[2]; }\nif (c0 == 1) { z q[2]; }\n"
        + f"u({-th!r}, {-la!r}, {-ph!r}) q[2];\n"
        + "res = measure q[2];\n"
    )


def condreset_source(angles: list[float]) -> str:
    """Entangle three qubits, measure, flip back every 1: d reads 000."""
    prep = "".join(f"ry({a!r}) q[{k}];\n" for k, a in enumerate(angles))
    return (
        HEADER
        + "qubit[3] q;\nbit[3] c;\nbit[3] d;\n"
        + prep
        + "cx q[0], q[1];\ncx q[1], q[2];\n"
        + "c = measure q;\n"
        + "".join(f"if (c[{k}] == 1) {{ x q[{k}]; }}\n" for k in range(3))
        + "d = measure q;\n"
    )


def ghz_source(data: int, order: list[int]) -> str:
    """GHZ on ``data`` qubits, then rounds of ZZ parity checks through one
    ancilla: measure, feed forward a correction, reset the ancilla."""
    checks = GHZ_ROUNDS * (data - 1)
    lines = [HEADER + f"qubit[{data}] d;\nqubit a;\nbit[{checks}] s;\nbit[{data}] c;", "h d[0];"]
    lines.append(f"for int i in [0:{data - 2}] {{ cx d[i], d[i+1]; }}")
    k = 0
    for _ in range(GHZ_ROUNDS):
        for i in order:
            lines.append(
                f"cx d[{i}], a; cx d[{i + 1}], a; s[{k}] = measure a; "
                f"if (s[{k}] == 1) {{ x d[{i + 1}]; }} reset a;"
            )
            k += 1
    lines.append("c = measure d;")
    return "\n".join(lines) + "\n"


class SampleWorkload:
    name = "sample"
    pace = INTERPRETER_PACE

    def _items(self, rng: random.Random, bv_lengths, bv_shots: int, traj_shots: int, ghz, ghz_shots: int) -> list[Item]:
        items = []
        for n in bv_lengths:
            hidden = "".join(rng.choice("01") for _ in range(n - 1)) + "1"
            hidden = "".join(rng.sample(hidden, n))
            items.append(Item(f"bv{n}", "static", bv_source(hidden), {"kind": "bv", "hidden": hidden, "shots": bv_shots}))
        angles = [rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)]
        items.append(Item("teleport", "trajectory", teleport_source(*angles), {"kind": "teleport", "shots": traj_shots}))
        angles = [rng.uniform(0.3, math.pi - 0.3) for _ in range(3)]
        items.append(Item("condreset", "trajectory", condreset_source(angles), {"kind": "condreset", "shots": traj_shots}))
        for data in ghz:
            order = list(range(data - 1))
            rng.shuffle(order)
            items.append(
                Item(f"ghz{data + 1}", "trajectory", ghz_source(data, order), {"kind": "ghz", "data": data, "shots": ghz_shots})
            )
        for item in items:
            item.expect["seed"] = rng.randrange(1 << 62)
        return items

    def generate(self, seed: int) -> list[Item]:
        return self._items(random.Random(seed), BV_LENGTHS, BV_SHOTS, TRAJECTORY_SHOTS, GHZ_DATA, GHZ_SHOTS)

    def warmup_items(self, seed: int) -> list[Item]:
        # full-width kernels with few shots: every path and state size, little work
        return self._items(random.Random(seed ^ 0x5A5A), BV_LENGTHS, 200, 50, GHZ_DATA, 20)

    def run(self, item: Item, watch: Stopwatch) -> dict:
        with watch.timed():
            out = transpile(item.source)
            out["bound"] = kir.bind(out["kernel"], [])
            out["hist"] = sim.sample(out["bound"], item.expect["shots"], item.expect["seed"])
        return out

    def check(self, item: Item, out: dict, checks: Checks) -> None:
        hist, shots, kind = out["hist"], item.expect["shots"], item.expect["kind"]
        checks(sum(hist.counts.values()) == shots, f"{item.name}: histogram holds {sum(hist.counts.values())} shots")
        if kind == "bv":
            checks(hist.counts == {item.expect["hidden"]: shots}, f"{item.name}: hidden string not recovered on every shot")
        elif kind == "teleport":
            ones = sum(c for key, c in hist.counts.items() if key[-1] != "0")
            checks(ones == 0, f"{item.name}: {ones} shots read res = 1")
        elif kind == "condreset":
            bad = sum(c for key, c in hist.counts.items() if key[3:] != "000")
            checks(bad == 0, f"{item.name}: {bad} shots did not reset to 000")
        else:
            data = item.expect["data"]
            syndrome = GHZ_ROUNDS * (data - 1)
            zeros = ones = 0
            for key, count in hist.counts.items():
                if key[:syndrome] != "0" * syndrome:
                    continue
                if key[syndrome:] == "0" * data:
                    zeros += count
                elif key[syndrome:] == "1" * data:
                    ones += count
            checks(zeros + ones == shots, f"{item.name}: {shots - zeros - ones} shots with a syndrome or unequal data")
            sigma = math.sqrt(shots) / 2
            checks(abs(zeros - shots / 2) <= 6 * sigma, f"{item.name}: 0/1 split {zeros}/{ones} beyond 6 sigma")

    def counts(self, item: Item, out: dict) -> dict[str, int]:
        counts = transpile_counts(out)
        counts.update(
            units=item.expect["shots"],
            shots=item.expect["shots"],
            distinct_keys=len(out["hist"].counts),
            measured_ones=sum(key.count("1") * n for key, n in out["hist"].counts.items()),
            max_qubits=out["kernel"].qubit_count,
        )
        return counts

    def digest(self, out: dict) -> str:
        return _sha(repr(sorted(out["hist"].counts.items())).encode())


WORKLOADS = {"compile": CompileWorkload, "simulate": SimulateWorkload, "sample": SampleWorkload}


def make(name: str, root: Path):
    cls = WORKLOADS[name]
    return cls(root) if cls is CompileWorkload else cls()
