"""The benchmark's tracer wraps program functions by name, so renaming or
removing one must fail the suite, not only a traced benchmark run."""

import importlib
import importlib.util
import pathlib

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [pair for layer in tracing.LAYERS.values() for pair in layer]
    missing = [
        f"{module}.{attr}" for module, attr in pairs if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    sim = importlib.import_module("qasm2cudaq.sim")
    if not isinstance(sim.RngStream.__dict__.get("for_shot"), classmethod):
        missing.append("qasm2cudaq.sim.RngStream.for_shot")
    assert pairs and missing == []
