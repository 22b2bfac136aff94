#!/usr/bin/env python3
"""Benchmark for qasm2cudaq: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` next to this directory and exits 2 if that is missing. One process,
one caller, no threads: items run one after another (a closed loop with a
single client). README.md beside this file describes the workloads, the
metrics and the layer mapping.

``--trace 0`` prints the end-to-end metrics from untraced passes.
``--trace 1`` prints the per-layer metrics from a traced pass, with an
untraced pass of the same inputs for the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
HELDOUT_OFFSET = 1_000_003
WORKERS_PROBE_SHOTS = 4_000
COMPILE_LAYERS = ("frontend", "sema", "kir", "emit")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("compile", "simulate", "sample"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    return args


def _import_package() -> float:
    """Import the package from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "qasm2cudaq" / "__init__.py").is_file():
        _fail(f"no package source at {src / 'qasm2cudaq'}; run from a source checkout")
    if not (ROOT / "tests" / "golden_cases.py").is_file():
        _fail("tests/golden_cases.py is missing; run from a source checkout")
    sys.path.insert(0, str(src))
    # one thread: BLAS threads would make the single caller two, and their
    # contention with other tenants of a small host makes the figures drift
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t0 = time.perf_counter()
    package = importlib.import_module("qasm2cudaq")
    seconds = time.perf_counter() - t0
    if Path(package.__file__).resolve().parent != (src / "qasm2cudaq").resolve():
        _fail(f"imported qasm2cudaq from {package.__file__}, not from {src}")
    return seconds


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _setup(W, wl, seed: int, checks) -> tuple[list, float, float]:
    """Input generation plus one warm-up pass; returns the items, the wall
    seconds and the reference seconds."""
    before = wl.pace()
    t0 = time.perf_counter()
    items = wl.generate(seed)
    W.run_pass(wl, wl.warmup_items(seed), checks)
    wall = time.perf_counter() - t0
    return items, wall, wl.pace.to_reference(wall, before, wl.pace())


def _changed(first, other) -> list[str]:
    """Items of ``other`` whose output digest differs from ``first``'s."""
    return sorted(k for k in other.digests if other.digests[k] != first.digests.get(k))


def _repeat_checks(first, other, checks, label: str) -> None:
    checks(other.counts == first.counts, f"{label}: counts differ from the first pass")
    changed = _changed(first, other)
    checks(not changed, f"{label}: output differs from the first pass for {changed[:5]}")


def _timed_passes(W, wl, items, checks, seconds: float) -> list:
    """Whole passes over the same items while another one fits in the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(W.run_pass(wl, items, checks))
        if len(passes) > 1:
            _repeat_checks(passes[0], passes[-1], checks, f"pass {len(passes)}")
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return passes


def _per_item_median(passes, attr: str) -> float:
    """Sum over items of each item's median time across the passes."""
    return sum(statistics.median(getattr(p, attr)[name] for p in passes) for name in passes[0].times)


def _end_to_end(W, wl, items, checks, seconds: float, import_ref: float, setups: list) -> dict:
    passes = _timed_passes(W, wl, items, checks, seconds)
    if len(passes) == 1:
        # one pass still shows that a repetition reproduces the output
        changed = _changed(passes[0], W.run_pass(wl, items[::7], checks))
        checks(not changed, f"repeat of every 7th item: output differs for {changed[:5]}")
    units = passes[0].units
    latencies = [x for p in passes for x in p.times.values()]
    _log(
        f"{wl.name}: {len(passes)} pass(es); {len(latencies)} item latencies, wall p50 "
        f"{_percentile(latencies, 0.5) * 1e3:.2f} ms, p90 {_percentile(latencies, 0.9) * 1e3:.2f} ms; "
        f"{units} units per pass, {units / _per_item_median(passes, 'times'):.6g}/s wall, "
        f"{units / _per_item_median(passes, 'ref_times'):.6g}/s reference; setup wall "
        f"{statistics.median(s[0] for s in setups):.3f} s; counts {dict(passes[0].counts)}"
    )
    return {
        "setup_s": (import_ref + statistics.median(s[1] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "units_per_s": (units / _per_item_median(passes, "ref_times"), "1/s"),
    }


def _workers_probe(W, wl, items, checks) -> dict:
    """One process against the pool: the same trajectory kernel and shots
    with workers=1 and workers=2, untraced."""
    item = next(i for i in items if i.family == "trajectory")
    bound, seed = wl.run(item, W.Stopwatch())["bound"], item.expect["seed"]
    rates, hists = {}, {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        hists[workers] = W.sim.sample(bound, WORKERS_PROBE_SHOTS, seed, workers=workers)
        rates[workers] = WORKERS_PROBE_SHOTS / (time.perf_counter() - t0)
    checks(hists[1].counts == hists[2].counts, f"{item.name}: workers=2 histogram differs from workers=1")
    return rates


def _per_layer(W, wl, items, checks, seed: int) -> dict:
    from tracing import PROGRAM_LAYERS, Tracer

    untraced = W.run_pass(wl, items, checks)
    tracer = Tracer()
    with tracer.installed():
        traced = W.run_pass(wl, items, checks, tracer)
    second = Tracer()
    with second.installed():
        again = W.run_pass(wl, items, checks, second)
    summary = tracer.summary()
    _repeat_checks(untraced, traced, checks, "traced pass")
    _repeat_checks(untraced, again, checks, "second traced pass")
    checks(second.summary()["calls"] == summary["calls"], "call counts differ between two traced passes")
    del second

    heldout = W.run_pass(wl, wl.generate(seed + HELDOUT_OFFSET), checks)
    differ = sum(1 for k, v in untraced.counts.items() if heldout.counts.get(k) != v)
    rates = _workers_probe(W, wl, items, checks) if wl.name == "sample" else {1: 0.0, 2: 0.0}

    (HERE / "traces").mkdir(exist_ok=True)
    tracer.write(str(HERE / "traces" / f"{wl.name}-seed{seed}.jsonl.gz"))

    inc, calls, by_tag, self_s = summary["inclusive"], summary["calls"], summary["by_tag"], summary["layer_self"]
    c = untraced.counts
    emitted = c["bytes.cudaq-cpp"] + c["bytes.cudaq-builder"]
    coverage = sum(self_s.get(layer, 0.0) for layer in PROGRAM_LAYERS) / traced.seconds
    overhead = traced.ref_seconds / untraced.ref_seconds - 1.0
    latencies = list(untraced.times.values())

    def rate(family: str) -> float:
        ref = untraced.family_ref_seconds[family]
        return untraced.family_units[family] / ref if ref else 0.0

    metrics = {
        "frontend.tokenize.s": (inc.get("frontend.tokenize", 0.0), "s"),
        "frontend.tokenize.tokens": (c["tokens"], "count"),
        "frontend.parse.s": (inc.get("frontend.parse", 0.0), "s"),
        "frontend.parse.statements": (c["ast_statements"], "count"),
        "sema.analyze.s": (inc.get("sema.analyze", 0.0), "s"),
        "sema.analyze.statements": (c["statements"], "count"),
        "sema.expansion": (c["statements"] / c["ast_statements"], "ratio"),
        "kir.lower.s": (inc.get("kir.lower", 0.0), "s"),
        "kir.lower.ops": (c["ops"], "count"),
        "kir.bind.s": (inc.get("kir.bind", 0.0), "s"),
        "emit.cudaq-cpp.s": (inc.get("emit.cudaq-cpp", 0.0), "s"),
        "emit.cudaq-builder.s": (inc.get("emit.cudaq-builder", 0.0), "s"),
        "emit.bytes": (emitted, "count"),
        "emit.kb": (emitted / 1024.0, "KB"),
        "sim.apply_gate.s": (inc.get("sim.apply_gate", 0.0), "s"),
        "sim.apply_gate.calls": (calls.get("sim.apply_gate", 0), "count"),
        "sim.statevector.qft.s": (by_tag.get(("sim.statevector", "qft"), 0.0), "s"),
        "sim.statevector.random.s": (by_tag.get(("sim.statevector", "random"), 0.0), "s"),
        "sim.peak_state_mb": ((16 << c["max_qubits"]) / 2**20 if c["max_qubits"] else 0.0, "MB"),
        "sim.measure.s": (inc.get("sim.measure", 0.0), "s"),
        "sim.measure.calls": (calls.get("sim.measure", 0), "count"),
        "sim.reset.s": (inc.get("sim.reset", 0.0), "s"),
        "sim.reset.calls": (calls.get("sim.reset", 0), "count"),
        "sim.rng.for_shot.s": (inc.get("sim.rng.for_shot", 0.0), "s"),
        "sim.rng.for_shot.calls": (calls.get("sim.rng.for_shot", 0), "count"),
        "sim.sample.static.s": (by_tag.get(("sim.sample", "static"), 0.0), "s"),
        "sim.sample.trajectory.s": (by_tag.get(("sim.sample", "trajectory"), 0.0), "s"),
        "sim.run_trajectory.s": (inc.get("sim.run_trajectory", 0.0), "s"),
        "sim.run_trajectory.calls": (calls.get("sim.run_trajectory", 0), "count"),
        "sim.sample.shots": (c["shots"], "count"),
        "sim.sample.distinct_keys": (c["distinct_keys"], "count"),
        "sim.sample.keys_per_shot": (c["distinct_keys"] / c["shots"] if c["shots"] else 0.0, "ratio"),
        "sim.sample.static_shots_per_s": (rate("static"), "1/s"),
        "sim.sample.trajectory_shots_per_s": (rate("trajectory"), "1/s"),
        "sim.sample.trajectory.workers1.shots_per_s": (rates[1], "1/s"),
        "sim.sample.trajectory.workers2.shots_per_s": (rates[2], "1/s"),
        "sim.expval_pauli.s": (inc.get("sim.expval_pauli", 0.0), "s"),
        **{f"layer.{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in (*PROGRAM_LAYERS, "bench")},
        "layer.compile_share": (sum(self_s.get(x, 0.0) for x in COMPILE_LAYERS) / traced.seconds, "ratio"),
        "layer.sim_share": (self_s.get("sim", 0.0) / traced.seconds, "ratio"),
        "item.p50_ms": (_percentile(latencies, 0.5) * 1e3, "ms"),
        "item.p90_ms": (_percentile(latencies, 0.9) * 1e3, "ms"),
        "item.samples": (len(latencies), "count"),
        "trace.untraced_s": (untraced.seconds, "s"),
        "trace.traced_s": (traced.seconds, "s"),
        "trace.overhead": (overhead, "ratio"),
        "trace.coverage": (coverage, "ratio"),
        "trace.layers_over_untraced": (coverage * (1.0 + overhead), "ratio"),
        "trace.spans": (tracer.span_count, "count"),
        "counts.heldout_differ": (differ, "count"),
    }
    _log(
        f"{wl.name} traced: overhead {overhead:+.3f}, coverage {coverage:.3f}, "
        f"compile share {metrics['layer.compile_share'][0]:.3f}, sim share {metrics['layer.sim_share'][0]:.3f}, "
        f"{differ} of {len(untraced.counts)} counts differ on seed {seed + HELDOUT_OFFSET}"
    )
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = _import_package()
    sys.path.insert(0, str(HERE))
    import workloads as W

    wl = W.make(args.workload, ROOT)
    pace = wl.pace()
    import_ref = wl.pace.to_reference(import_s, pace, pace)
    checks = W.Checks()
    setups = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        items, wall, ref = _setup(W, wl, args.seed, checks)
        setups.append((wall, ref))
    if args.trace == 0:
        metrics = _end_to_end(W, wl, items, checks, args.seconds, import_ref, setups)
    else:
        metrics = _per_layer(W, wl, items, checks, args.seed)
    for note in checks.notes:
        _log(f"check failed: {note}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
