"""The pipeline stages pause the cyclic garbage collector, which is sound only
because their data forms no reference cycles; these tests pin both halves."""

import gc
import importlib
import random

import pytest

from qasm2cudaq import frontend, kir, sema
from qasm2cudaq._gc import gc_paused
from qasm2cudaq.emit import EMISSION_TARGETS, emit
from qasm2cudaq.errors import ParseError, Qasm2CudaqError
from qasm2cudaq.randqasm import RandomCircuitSpec, generate

from conftest import CORPUS
from golden_cases import GOLDEN_CASES, emission_digest_corpus

emit_mod = importlib.import_module("qasm2cudaq.emit")  # the package's `emit` is the function
BELL = GOLDEN_CASES["bell"]


@pytest.fixture
def collector():
    """Yields gc.enable / gc.disable to set the entry state; restores the
    state the test found."""
    was_enabled = gc.isenabled()
    yield {True: gc.enable, False: gc.disable}
    (gc.enable if was_enabled else gc.disable)()


def _loop_program(rng: random.Random, reps: int) -> str:
    return (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "gate g1(t) a, b { cx a, b; rz(t) b; cx a, b; }\n"
        "gate g2(t) a, b, c { g1(t) a, b; inv @ g1(t/2) b, c; ctrl @ h a, c; }\n"
        "qubit[8] q;\nbit[2] c;\nh q[0];\nc[0] = measure q[0];\n"
        f"for int r in [1:{reps}] {{ for int i in [0:5] {{ pow(2) @ g2({rng.uniform(0.1, 3):.4f}) q[i], q[i+1], q[i+2]; "
        "negctrl @ pow(2) @ s q[i], q[7]; ctrl @ g1(pi/3) q[7], q[i], q[i+1]; } }\n"
        "if (c[0] == 1) { g1(0.5) q[1], q[2]; } else { x q[3]; }\n"
    )


def test_pipeline_data_forms_no_cycles(collector):
    rng = random.Random(7)
    sources = list(CORPUS) + list(GOLDEN_CASES.values()) + list(emission_digest_corpus().values())
    sources += [generate(RandomCircuitSpec(rng.randint(2, 20), 500, rng.randrange(1 << 30), clifford_only=False)) for _ in range(4)]
    sources += [_loop_program(rng, reps) for reps in (1, 20)]
    # an error makes a cycle through its traceback; keep only what compiles
    jobs = []
    for source in sources:
        try:
            kernel = kir.compile_source(source)
        except Qasm2CudaqError:
            continue
        for target in EMISSION_TARGETS:
            try:
                emit(kernel, target)
            except Qasm2CudaqError:
                continue
            jobs.append((source, target))
    assert len(jobs) > 2 * len(GOLDEN_CASES)
    gc.collect()
    collector[False]()
    for source, target in jobs:
        kernel = kir.compile_source(source)
        text = emit(kernel, target).text
        dump = kir.dump(kernel)
        del kernel, text, dump
    assert gc.collect() == 0


def _stages():
    """(name, call) per paused stage, each on the outputs of the ones before."""
    tokens = frontend.tokenize(BELL)
    ast = frontend.parse(tokens)
    vp = sema.analyze(ast)
    kernel = kir.lower(vp)
    return [
        ("tokenize", lambda: frontend.tokenize(BELL)),
        ("parse", lambda: frontend.parse(tokens)),
        ("analyze", lambda: sema.analyze(ast)),
        ("lower", lambda: kir.lower(vp)),
        ("emit", lambda: emit_mod.emit(kernel, "cudaq-builder")),
        ("compile_source", lambda: kir.compile_source(BELL)),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_stages_leave_the_collector_as_found(collector, monkeypatch, enabled):
    seen = []

    def record(cls):
        class Probe(cls):
            def __init__(self, *args, **kwargs):
                seen.append(gc.isenabled())
                super().__init__(*args, **kwargs)

        return Probe

    # one class each stage builds while it runs
    monkeypatch.setattr(frontend, "TokenStream", record(frontend.TokenStream))
    monkeypatch.setattr(frontend, "_Parser", record(frontend._Parser))
    monkeypatch.setattr(sema, "_Analyzer", record(sema._Analyzer))
    monkeypatch.setattr(kir, "_Lowerer", record(kir._Lowerer))
    monkeypatch.setattr(emit_mod, "_BuilderEmitter", record(emit_mod._BuilderEmitter))
    for name, call in _stages():
        collector[enabled]()
        seen.clear()
        call()
        assert seen and not any(seen), name
        assert gc.isenabled() is enabled, name


@pytest.mark.parametrize("enabled", [True, False])
def test_a_raising_stage_leaves_the_collector_as_found(collector, enabled):
    collector[enabled]()
    with pytest.raises(ParseError):
        frontend.parse(frontend.tokenize("OPENQASM 3.0;\nqubit q\n"))
    assert gc.isenabled() is enabled
    with pytest.raises(ParseError):
        kir.compile_source("OPENQASM 3.0;\nwhile (1) { }\n")
    assert gc.isenabled() is enabled


def test_only_the_outermost_call_switches(collector):
    seen = []

    def outer():
        gc_paused(lambda: seen.append(gc.isenabled()))()
        seen.append(gc.isenabled())

    collector[True]()
    gc_paused(outer)()
    assert seen == [False, False]
    assert gc.isenabled()
