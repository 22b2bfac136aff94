"""The 12-case golden corpus exercised against both emission targets, the
kernels whose sample histograms are recorded in golden/histograms.json, and
the corpora whose emission digests, kir.dump digests and compile outcomes
(error text) are recorded beside them."""

GOLDEN_CASES: dict[str, str] = {
    "bell": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[2] q;\n"
        "bit[2] c;\n"
        "h q[0];\n"
        "cx q[0], q[1];\n"
        "c[0] = measure q[0];\n"
        "measure q[1] -> c[1];\n"
    ),
    "modifiers": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[3] q;\n"
        "ctrl @ x q[0], q[1];\n"
        "negctrl @ h q[1], q[2];\n"
        "inv @ s q[0];\n"
        "sdg q[1];\n"
        "tdg q[2];\n"
        "sx q[0];\n"
        "pow(2) @ t q[1];\n"
        "ctrl @ inv @ rz(0.5) q[0], q[2];\n"
        "ctrl @ ctrl @ x q[0], q[1], q[2];\n"
    ),
    "condreset": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit q;\n"
        "bit c;\n"
        "h q;\n"
        "c = measure q;\n"
        "if (c == 1) { x q; }\n"
        "c = measure q;\n"
    ),
    "ifelse": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[2] q;\n"
        "bit c;\n"
        "h q[0];\n"
        "c = measure q[0];\n"
        "if (c == 1) { x q[1]; z q[1]; } else { h q[1]; }\n"
    ),
    "registerpred": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[3] q;\n"
        "bit[3] c;\n"
        "h q;\n"
        "c = measure q;\n"
        "if (c >= 5) { x q[0]; }\n"
        "if (c) { z q[1]; }\n"
    ),
    "param_scalar": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "input float[64] alpha;\n"
        "qubit q;\n"
        "rx(alpha) q;\n"
        "rz(alpha) q;\n"
    ),
    "param_array": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "input array[float[64], 4] theta;\n"
        "qubit[2] q;\n"
        "ry(theta[0]) q[0];\n"
        "ry(theta[1]) q[1];\n"
        "cx q[0], q[1];\n"
        "ry(theta[2]) q[0];\n"
        "ry(theta[3]) q[1];\n"
    ),
    "teleport": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[3] q;\n"
        "bit c0;\n"
        "bit c1;\n"
        "bit res;\n"
        "ry(0.7) q[0];\n"
        "h q[1];\n"
        "cx q[1], q[2];\n"
        "cx q[0], q[1];\n"
        "h q[0];\n"
        "c0 = measure q[0];\n"
        "c1 = measure q[1];\n"
        "if (c1 == 1) { x q[2]; }\n"
        "if (c0 == 1) { z q[2]; }\n"
        "ry(-0.7) q[2];\n"
        "res = measure q[2];\n"
    ),
    "forloop": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "const int last = 3;\n"
        "qubit[4] q;\n"
        "for int i in [0:last] { h q[i]; }\n"
        "for int i in [0:2:2] { s q[i]; }\n"
    ),
    "gatedef": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "gate pair a, b { h a; cx a, b; }\n"
        "gate turn(t) a { rz(t) a; }\n"
        "qubit[2] q;\n"
        "pair q[0], q[1];\n"
        "inv @ pair q[0], q[1];\n"
        "turn(pi/4) q[0];\n"
    ),
    "barrier_reset": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[2] q;\n"
        "bit c;\n"
        "h q[0];\n"
        "barrier q[0], q[1];\n"
        "reset q[1];\n"
        "c = measure q[0];\n"
    ),
    "u_swap": (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[2] q;\n"
        "u(0.1, 0.2, 0.3) q[0];\n"
        "swap q[0], q[1];\n"
        "p(1.5) q[0];\n"
        "cp(0.25) q[0], q[1];\n"
        "crz(pi/2) q[1], q[0];\n"
        "ch q[0], q[1];\n"
        "cy q[0], q[1];\n"
        "cz q[1], q[0];\n"
    ),
}


def _kernel(body: str) -> str:
    return 'OPENQASM 3.0;\ninclude "stdgates.inc";\n' + body


def _comparator_kernel() -> str:
    """Every comparator on a whole 3-bit register; branch k flips an
    ancilla that r[k] then records."""
    tests = ["c == 5", "c != 2", "c < 3", "c <= 4", "c > 1", "c >= 6", "c"]
    lines = ["qubit[4] q;", "bit[3] c;", f"bit[{len(tests)}] r;", "h q[0];", "h q[1];"]
    lines += ["ry(2.1) q[2];"] + [f"c[{i}] = measure q[{i}];" for i in range(3)]
    for k, test in enumerate(tests):
        orelse = " else { h q[3]; }" if k % 2 else ""
        lines += [f"if ({test}) {{ x q[3]; }}{orelse}", f"r[{k}] = measure q[3];", "reset q[3];"]
    return _kernel("\n".join(lines) + "\n")


# Kernels beyond the emission corpus whose sample histograms are recorded:
# classical packing across registers (one wider than 64 bits), every
# register comparator, a bit written twice, and no classical bits at all.
HISTOGRAM_EXTRA: dict[str, str] = {
    "three_registers_wide": _kernel(
        "qubit[4] q;\nbit[2] a;\nbit[70] big;\nbit b;\n"
        "h q[0];\nry(0.8) q[1];\n"
        "for int i in [0:34] { big[2 * i] = measure q[0]; big[2 * i + 1] = measure q[1]; }\n"
        "if (big >= 590295810358705651712) { x q[2]; }\n"
        "if (big[69] == 1) { x q[3]; }\n"
        "a[1] = measure q[2];\nb = measure q[3];\n"
    ),
    "register_comparators": _comparator_kernel(),
    "static_last_write_wins": _kernel(
        "qubit[3] q;\nbit[2] c;\nh q[0];\nx q[1];\nry(1.1) q[2];\n"
        "c[0] = measure q[0];\nc[0] = measure q[1];\nc[1] = measure q[2];\n"
    ),
    "dynamic_last_write_wins": _kernel(
        "qubit[2] q;\nbit[2] c;\nh q;\nc[1] = measure q[0];\n"
        "if (c[1] == 1) { x q[1]; }\nc[1] = measure q[1];\nc[0] = measure q[0];\n"
    ),
    "no_bits_static": _kernel("qubit[2] q;\nh q[0];\ncx q[0], q[1];\n"),
    "no_bits_dynamic": _kernel("qubit q;\nh q;\nreset q;\nh q;\n"),
}

HISTOGRAM_SEEDS = (5, 2**64 - 3)
HISTOGRAM_SHOTS = 256


def histogram_corpus() -> dict[str, str]:
    """Every kernel whose histogram is recorded: the emission corpus, the
    conformance corpus of conftest.py and HISTOGRAM_EXTRA."""
    # imported on use: the benchmark loads this module for GOLDEN_CASES alone
    from conftest import CORPUS

    cases = dict(GOLDEN_CASES)
    cases.update((f"corpus_{i}", source) for i, source in enumerate(CORPUS))
    cases.update(HISTOGRAM_EXTRA)
    return cases


def histogram(source: str, seed: int) -> list[list]:
    """Sorted [key, count] pairs of HISTOGRAM_SHOTS shots, every input
    parameter bound to a fixed value."""
    from qasm2cudaq import compile_source, kir, sim

    kernel = compile_source(source)
    values = [0.3 + 0.1 * k for k in range(kernel.total_params)]
    counts = sim.sample(kir.bind(kernel, values), HISTOGRAM_SHOTS, seed).counts
    return [[key, count] for key, count in sorted(counts.items())]


# Flat random circuits of the emission-digest corpus: (qubits, gates, seed).
_DIGEST_FLAT = ((2, 40, 1), (5, 300, 2), (9, 800, 3), (14, 1500, 4), (20, 2500, 5))

# A loop over user gates whose bodies repeat the same ops, with both zero
# signs, negative and nested controls, `inv @ ctrl` (a builder sub-kernel per
# call) and runtime-parameter angles.
_DIGEST_LOOP = _kernel(
    "input float[64] alpha;\ninput array[float[64], 3] theta;\n"
    "gate zz(t) a, b { cx a, b; rz(t) b; cx a, b; }\n"
    "gate zeros a { rz(0.0) a; rz(-0.0) a; inv @ rz(0.0) a; rx(-0.0) a; }\n"
    "gate mix(t) a, b, c { negctrl @ ry(t) a, b; inv @ ctrl @ s b, c; ctrl @ ctrl @ x a, b, c; }\n"
    "qubit[5] q;\n"
    "for int i in [0:30] {\n"
    "  zz(0.25) q[0], q[1];\n  zeros q[2];\n  mix(0.5) q[2], q[3], q[4];\n"
    "  rz(alpha) q[3];\n  inv @ ctrl @ rx(alpha) q[0], q[4];\n"
    "  negctrl @ h q[1], q[2];\n  ctrl @ inv @ u(0.1, 0.2, 0.3) q[3], q[4];\n"
    "}\n"
    "for int i in [0:2] { ry(theta[i]) q[i]; inv @ ry(theta[i]) q[i + 2]; pow(2) @ t q[i]; }\n"
    "for int i in [0:3] { for int j in [0:3] { cp(0.0) q[j], q[4]; cp(-0.0) q[4], q[j]; } }\n"
)

# Conditionals whose bodies repeat the top-level ops, at two nesting depths.
_DIGEST_COND = _kernel(
    "qubit[3] q;\nbit[2] c;\n"
    "h q[0];\nx q[1];\ncx q[0], q[1];\nrz(0.0) q[2];\nnegctrl @ x q[0], q[2];\n"
    "c[0] = measure q[0];\nc[1] = measure q[1];\n"
    "if (c[0] == 1) {\n"
    "  h q[0];\n  x q[1];\n  cx q[0], q[1];\n  rz(-0.0) q[2];\n  negctrl @ x q[0], q[2];\n"
    "  if (c[1] == 0) { h q[0]; x q[1]; inv @ ctrl @ s q[0], q[1]; }\n"
    "} else {\n  x q[1];\n  h q[0];\n  rz(0.0) q[2];\n}\n"
    "if (c) { h q[0]; cx q[0], q[1]; } else { cx q[0], q[1]; h q[0]; }\n"
    "h q[0];\nx q[1];\ninv @ ctrl @ s q[0], q[1];\n"
)


def emission_digest_corpus() -> dict[str, str]:
    """Generated programs whose emitted text, in both targets, is pinned by
    sha256 in golden/emission_digests.json: flat random circuits with and
    without their exact inverse, Clifford circuits, and the loop and
    conditional programs above."""
    from qasm2cudaq.randqasm import RandomCircuitSpec, generate, generate_with_inverse

    cases: dict[str, str] = {}
    for qubits, gates, seed in _DIGEST_FLAT:
        spec = RandomCircuitSpec(qubits, gates, seed, clifford_only=False)
        cases[f"flat_q{qubits}_s{seed}"] = generate(spec)
        cases[f"inverse_q{qubits}_s{seed}"] = generate_with_inverse(spec)
        cases[f"clifford_q{qubits}_s{seed}"] = generate(RandomCircuitSpec(qubits, gates, seed + 100))
    cases["loop_templates"] = _DIGEST_LOOP
    cases["repeated_conditionals"] = _DIGEST_COND
    return cases


def emission_digests() -> dict[str, dict[str, str]]:
    """name -> target -> sha256 of the emitted text, over the digest corpus."""
    import hashlib

    from qasm2cudaq import EMISSION_TARGETS, compile_source, emit

    digests = {}
    for name, source in emission_digest_corpus().items():
        kernel = compile_source(source)
        digests[name] = {
            target: hashlib.sha256(emit(kernel, target).text.encode()).hexdigest()
            for target in EMISSION_TARGETS
        }
    return digests


def kir_dump_corpus() -> dict[str, str]:
    """Every program whose `kir.dump` is pinned by sha256 in
    golden/kir_dump_digests.json: the histogram corpus (which holds the
    emission corpus and the conformance corpus of conftest.py) and the
    emission-digest corpus."""
    cases = histogram_corpus()
    cases.update(emission_digest_corpus())
    return cases


def kir_dump_digests() -> dict[str, str]:
    """name -> sha256 of `kir.dump` of the compiled kernel, over the corpus
    above; unlike the emitted text, the dump shows every op (a barrier's
    qubits, say), so a change in what lowering builds shows here."""
    import hashlib

    from qasm2cudaq import compile_source, kir

    return {
        name: hashlib.sha256(kir.dump(compile_source(source)).encode()).hexdigest()
        for name, source in kir_dump_corpus().items()
    }


# Hand-written error cases: the check order of a gate call at top level and
# in a gate body, every range, width and size message sema formats, and
# template programs that pass a small UNROLL_CAP at different points.
_ERROR_CASES: dict[str, str] = {
    "bad-angle-repeated-operand-top": _kernel("qubit[2] q;\ncrz(nope) q[0], q[0];\n"),
    "bad-angle-repeated-operand-body": _kernel("gate g a { crz(nope) a, a; }\nqubit q;\ng q;\n"),
    "unknown-qubit-in-body": _kernel("gate g a { x b; }\nqubit q;\ng q;\n"),
    "indexed-formal-in-body": _kernel("gate g a { x a[0]; }\nqubit q;\ng q;\n"),
    "mismatched-widths": _kernel("qubit[2] a;\nqubit[3] b;\ncx a, b;\n"),
    "mismatched-widths-bad-angle": _kernel("qubit[2] a;\nqubit[3] b;\ncrz(nope) a, b;\n"),
    "mismatched-widths-div-zero": _kernel("qubit[2] a;\nqubit[3] b;\ncrz(1/0) a, b;\n"),
    "measure-width-registers": _kernel("qubit[2] q;\nbit[3] c;\nc = measure q;\n"),
    "measure-register-into-bit": _kernel("qubit[2] q;\nbit c;\nc = measure q;\n"),
    "measure-qubit-into-register": _kernel("qubit q;\nbit[2] c;\nc = measure q;\n"),
    "qubit-index-out-of-range": _kernel("qubit[2] q;\nx q[5];\n"),
    "qubit-index-negative": _kernel("qubit[2] q;\nconst int k = -1;\nx q[k];\n"),
    "bit-index-out-of-range": _kernel("qubit q;\nbit[2] c;\nc[2] = measure q;\n"),
    "param-index-out-of-range": _kernel("input array[float[64], 2] theta;\nqubit q;\nrz(theta[2]) q;\n"),
    "param-array-unindexed": _kernel("input array[float[64], 2] theta;\nqubit q;\nrz(theta) q;\n"),
    "qubit-register-size-zero": _kernel("qubit[0] q;\n"),
    "bit-register-size-zero": _kernel("bit[0] c;\n"),
    "one-qubit-register-broadcast": _kernel("qubit[1] a;\nqubit[3] b;\nbit[1] c;\ncx a, b;\nc = measure a;\n"),
    "one-qubit-register-into-wide-bits": _kernel("qubit[1] a;\nbit[3] c;\nc = measure a;\n"),
    "register-repeated-operand": _kernel("qubit[2] a;\ncx a[0], a;\n"),
    "bit-as-qubit": _kernel("qubit q;\nbit c;\nx c;\n"),
    "qubit-as-bit": _kernel("qubit q;\nbit c;\nq = measure q;\n"),
    "body-call-of-non-gate": _kernel("bit c;\ngate g a { c a; }\nqubit q;\ng q;\n"),
    "body-pow-of-unknown": _kernel("gate g a { pow(k) @ x a; }\nqubit q;\ng q;\n"),
    "body-ctrl-user-gate-repeated": _kernel(
        "gate f a { h a; }\ngate g a, b { ctrl @ f a, a; }\nqubit[2] q;\ng q[0], q[1];\n"
    ),
    "predicate-before-measure": _kernel("qubit q;\nbit c;\nif (c) { x q; }\n"),
    "templates-past-small-cap": _kernel(
        "gate g a { x a; y a; z a; }\ngate f a { g a; g a; }\nqubit q;\n"
        "for int i in [0:60] { f q; h q; }\n"
    ),
    "pow-template-past-small-cap": _kernel("gate g a { x a; h a; }\nqubit q;\nfor int i in [0:40] { pow(i) @ g q; }\n"),
    "nested-templates-past-small-cap": _kernel(
        "gate g a { x a; h a; }\ngate f a { g a; pow(3) @ g a; }\nqubit q;\nfor int i in [0:40] { f q; }\n"
    ),
    "peaked-template-past-small-cap": _kernel(
        "gate f a, b { pow(50) @ x a; cx a, b; }\nqubit[3] q;\n"
        "for int i in [0:10] { f q[0], q[1]; ctrl @ f q[2], q[0], q[1]; }\n"
    ),
}

# Mutations of the histogram corpus and of the loop and conditional programs
# of the emission-digest corpus: a line deleted, inserted from another
# program, swapped with another, given a modifier before one of its words,
# or given a bad index.
_MUTATION_MODIFIERS = (
    "inv @ ", "ctrl @ ", "negctrl @ ", "pow(2) @ ", "pow(-1) @ ", "pow(0) @ ", "pow(0.5) @ ", "pow(t) @ "
)
_MUTATION_INDICES = ("[9]", "[-1]", "[i + 9]", "[1.5]", "[nope]", "[0]")
_MUTATIONS_PER_PROGRAM = 20


def _mutations() -> dict[str, str]:
    import random
    import re

    rng = random.Random(10)
    corpus = histogram_corpus()
    corpus.update(loop_templates=_DIGEST_LOOP, repeated_conditionals=_DIGEST_COND)
    pool = [line for source in corpus.values() for line in source.splitlines()[2:]]
    cases: dict[str, str] = {}
    for name, source in corpus.items():
        lines = source.splitlines()
        head, body = lines[:2], lines[2:]
        for k in range(_MUTATIONS_PER_PROGRAM):
            mutant = list(body)
            kind = ("delete", "insert", "swap", "modifier", "index")[k % 5]
            i = rng.randrange(len(mutant)) if mutant else 0
            if kind == "delete" and mutant:
                del mutant[i]
            elif kind == "insert" or not mutant:
                mutant.insert(i, rng.choice(pool))
            elif kind == "swap":
                j = rng.randrange(len(mutant))
                mutant[i], mutant[j] = mutant[j], mutant[i]
            elif kind == "modifier":
                words = [m.start() for m in re.finditer(r"\b[a-z]\w*", mutant[i])]
                at = rng.choice(words) if words else 0
                mutant[i] = mutant[i][:at] + rng.choice(_MUTATION_MODIFIERS) + mutant[i][at:]
            else:
                indices = [m.span() for m in re.finditer(r"\[[^\[\]]*\]", mutant[i])]
                at, end = rng.choice(indices) if indices else (len(mutant[i]), len(mutant[i]))
                mutant[i] = mutant[i][:at] + rng.choice(_MUTATION_INDICES) + mutant[i][end:]
            cases[f"mut-{name}-{k:02d}-{kind}"] = "\n".join(head + mutant) + "\n"
    return cases


def error_corpus() -> dict[str, str]:
    """Every program whose outcome is pinned in golden/error_texts.json: the
    resource probes of conftest.py, the hand-written cases above and
    deterministic mutations of the programs named at `_mutations`."""
    from conftest import EXPANSION_PROBES, NESTING_PROBES, NON_FINITE_PROBES, UNICODE_DIGITS_PROBE

    cases = {f"nesting-{name}": source for name, (source, _) in NESTING_PROBES.items()}
    cases.update((f"non-finite-{name}", source) for name, (source, _) in NON_FINITE_PROBES.items())
    cases["unicode-digits"] = UNICODE_DIGITS_PROBE[0]
    cases.update((f"expansion-{name}", source) for name, source in EXPANSION_PROBES.items())
    cases.update(_ERROR_CASES)
    cases.update(_mutations())
    return cases


ERROR_TEXT_SMALL_CAP = 300


def error_texts() -> dict[str, list[str]]:
    """name -> outcome at the real UNROLL_CAP and at ERROR_TEXT_SMALL_CAP,
    over the error corpus: `Type: message` for a compile error, else `ok`
    and the sha256 of `kir.dump`."""
    import hashlib

    from qasm2cudaq import compile_source, kir, sema
    from qasm2cudaq.errors import Qasm2CudaqError

    def outcome(source: str) -> str:
        try:
            kernel = compile_source(source)
        except Qasm2CudaqError as err:
            return f"{type(err).__name__}: {err}"
        return "ok " + hashlib.sha256(kir.dump(kernel).encode()).hexdigest()

    corpus = error_corpus()
    texts: dict[str, list[str]] = {name: [outcome(source)] for name, source in corpus.items()}
    real_cap = sema.UNROLL_CAP
    sema.UNROLL_CAP = ERROR_TEXT_SMALL_CAP
    try:
        for name, source in corpus.items():
            texts[name].append(outcome(source))
    finally:
        sema.UNROLL_CAP = real_cap
    return texts
