"""The 12-case golden corpus exercised against both emission targets, and
the kernels whose sample histograms are recorded in golden/histograms.json."""

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
