import hypothesis
import pytest

from qasm2cudaq import suites

hypothesis.settings.register_profile("ci", deadline=None)
# `--hypothesis-profile=thorough` runs each property over many more examples
hypothesis.settings.register_profile("thorough", deadline=None, max_examples=2000)
hypothesis.settings.load_profile("ci")

# Conformance corpus: every accepted construct appears at least once.
CORPUS = [
    'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit q;\nh q;\n',
    'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[2] q;\nh q[0];\ncx q[0], q[1];\n',
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "qubit[2] q;\nbit[2] c;\n"
        "h q[0];\n"
        "c[0] = measure q[0];\n"
        "measure q[1] -> c[1];\n"
    ),
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "qubit q;\nbit c;\n"
        "x q; h q;\n"
        "c = measure q;\n"
        "if (c == 1) { x q; }\n"
    ),
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "qubit[2] q;\nbit[2] c;\n"
        "h q;\n"
        "c = measure q;\n"
        "if (c >= 2) { x q[0]; } else { z q[1]; }\n"
    ),
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "const float a = pi/2;\nconst int reps = 2;\n"
        "qubit[3] q;\n"
        "rz(a) q[0];\nrx(pi/4) q[1];\nu(0.1, 0.2, 0.3) q[2];\n"
        "for int i in [0:2] { h q[i]; }\n"
        "for int i in [0:2:2] { s q[i]; }\n"
    ),
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "input float[64] alpha;\ninput array[float[64], 2] theta;\n"
        "qubit[2] q;\n"
        "ry(theta[0]) q[0];\nry(theta[1]) q[1];\nrx(alpha) q[0];\ncx q[0], q[1];\n"
    ),
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "gate pair a, b { h a; cx a, b; }\n"
        "gate turn(t) a { rz(t) a; }\n"
        "qubit[2] q;\n"
        "pair q[0], q[1];\n"
        "inv @ pair q[0], q[1];\n"
        "turn(pi/3) q[0];\n"
    ),
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "qubit[3] q;\n"
        "ctrl @ x q[0], q[1];\n"
        "negctrl @ h q[1], q[2];\n"
        "inv @ s q[0];\n"
        "pow(2) @ t q[1];\n"
        "pow(-1) @ s q[2];\n"
        "ctrl @ inv @ rz(0.5) q[0], q[2];\n"
        "ccx q[0], q[1], q[2];\n"
        "swap q[0], q[2];\n"
    ),
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "qubit[2] q;\nbit c;\n"
        "barrier q[0], q[1];\nbarrier;\n"
        "reset q[0];\n"
        "sdg q[0];\ntdg q[1];\nsx q[0];\n"
        "cy q[0], q[1];\ncz q[0], q[1];\nch q[0], q[1];\n"
        "crz(0.25) q[0], q[1];\ncp(0.75) q[0], q[1];\np(1.5) q[0];\n"
        "c = measure q[1];\n"
    ),
    (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n'
        "qubit[4] q;\nbit[3] c;\n"
        "h q;\n"
        "for int i in [0:2] { c[i] = measure q[i]; }\n"
        "if (c != 0) { x q[3]; }\n"
        "if (c[1]) { z q[3]; }\n"
    ),
    "OPENQASM 3.0;\nqubit q;\ngate flip a { }\n",
]

# Resource probes: each must end in a typed error, fast, never in a
# RecursionError or a NaN/inf angle. Statements start on line 5.
PROBE_HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit q;\nbit c;\n'

# name -> (source, (line, col) of the token past the nesting limit)
NESTING_PROBES = {
    "parentheses": (PROBE_HEADER + "rz(" + "(" * 3000 + "1" + ")" * 3000 + ") q;\n", (5, 104)),
    "unary-minus": (PROBE_HEADER + "rz(" + "-" * 5000 + "1) q;\n", (5, 104)),
    "if-blocks": (PROBE_HEADER + "if (c) { " * 500 + "x q;" + " }" * 500 + "\n", (5, 901)),
    "angle-sum": (PROBE_HEADER + "rz(" + "+".join(["0.001"] * 5000) + ") q;\n", (5, 609)),
}

# name -> (source, span of the first non-finite fold)
NON_FINITE_PROBES = {
    "inf-const": (PROBE_HEADER + "const float a = 1e308*10;\nrz(a) q;\n", (5, 17)),
    "nan-const": (PROBE_HEADER + "const float a = 1e308*10 - 1e308*10;\nrz(a) q;\n", (5, 17)),
    "inf-angle": (PROBE_HEADER + "rz(-1e308*10) q;\n", (5, 4)),
    "inf-pow": (PROBE_HEADER + "pow(1e308*10) @ x q;\n", (5, 5)),
    "int-past-double": (PROBE_HEADER + "const float a = " + "*".join(["1000000000"] * 40) + ";\n", (5, 1)),
}

# name -> (source, (line, col)) of an integer literal of 5,000 digits, past
# the interpreter's default int_max_str_digits of 4,300, where each parser
# path reads one
_LONG_INT = "9" * 5000
LONG_INT_PROBES = {
    "register-size": (PROBE_HEADER + f"qubit[{_LONG_INT}] r;\n", (5, 7)),
    "input-count": (PROBE_HEADER + f"input array[float[64], {_LONG_INT}] t;\n", (5, 24)),
    "literal-index": (PROBE_HEADER + f"x q[{_LONG_INT}];\n", (5, 5)),
    "angle": (PROBE_HEADER + f"rz({_LONG_INT}) q;\n", (5, 4)),
    "loop-bound": (PROBE_HEADER + f"for int i in [0:{_LONG_INT}] {{ x q; }}\n", (5, 17)),
}

# Digits of other scripts are illegal characters, not literals: (source,
# line:col of the first one)
UNICODE_DIGITS_PROBE = (PROBE_HEADER + "qubit[\u0663] r;\nrz(\u0661.\u0665) r[\u0662];\n", (5, 7))

# name -> source whose expansion passes sema.UNROLL_CAP; each must raise
# ProgramTooLarge before the expansion is built
EXPANSION_PROBES = {
    "pow-builtin": PROBE_HEADER + "pow(2000000) @ x q;\n",
    "pow-user-gate": PROBE_HEADER + "gate g a { x a; h a; }\npow(600000) @ g q;\n",
    "pow-nested": PROBE_HEADER + "gate g a { pow(1100) @ x a; }\ngate f a { pow(1000) @ g a; }\nf q;\n",
    "empty-loop": PROBE_HEADER + "for int i in [0:2000000] { }\n",
    "unbounded-loop": PROBE_HEADER + "for int i in [0:1000000000000] { }\n",
    "nested-loops": PROBE_HEADER + "for int i in [0:1100] { for int j in [0:1100] { h q; } }\n",
    "doubling-gates": PROBE_HEADER
    + "gate g0 a { x a; }\n"
    + "".join(f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}\n" for k in range(1, 40))
    + "g39 q;\n",
    # the exponent names a formal, so no static floor sees the cost: the
    # template's op count must be checked before its replicas are built
    "doubling-gates-formal-pow": PROBE_HEADER
    + "gate g0(t) a { pow(t) @ x a; }\n"
    + "".join(f"gate g{k}(t) a {{ g{k - 1}(t) a; g{k - 1}(t) a; }}\n" for k in range(1, 40))
    + "g39(1) q;\n",
}


@pytest.fixture
def compile_source():
    return suites.compile_source
