"""Translation validation of the cudaq-builder target: each emitted script,
run on the recording `cudaq` stub of cudaq_stub.py, must rebuild a kernel
that means its source kernel, and must define each sub-kernel shape once,
ahead of the kernel body."""

import re

import pytest

from qasm2cudaq import emit
from qasm2cudaq.suites import compile_source

from conftest import CORPUS
from cudaq_stub import StubError, check_builder, rebuild
from golden_cases import GOLDEN_CASES, emission_digest_corpus

DIGEST_CORPUS = emission_digest_corpus()

HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'

_DEFINITION = re.compile(r"  (sub_\w+), (.*) = cudaq\.make_kernel\((.*)\)")


def _assert_each_shape_defined_once(text: str) -> int:
    """Every sub-kernel definition sits in the prologue right after qalloc,
    and no name or shape (argument types, method, lead sub-kernel) is
    defined twice; returns the number of definitions."""
    lines = text.split("\n")
    start = next((i + 1 for i, line in enumerate(lines) if "= kernel.qalloc(" in line), 0)
    at, names, shapes = [], set(), set()
    for i, line in enumerate(lines):
        match = _DEFINITION.fullmatch(line)
        if match is None:
            continue
        name, formals, types = match.groups()
        method, args = re.fullmatch(rf"  {name}\.(\w+)\((.*)\)", lines[i + 1]).groups()
        assert args.endswith(formals)
        shape = (types, method, args[: len(args) - len(formals)])
        assert name not in names and shape not in shapes, line
        at.append(i)
        names.add(name)
        shapes.add(shape)
    assert at == list(range(start, start + 2 * len(at), 2)), "definitions outside the prologue"
    return len(at)


def _check(source: str):
    kernel = compile_source(source)
    text = emit(kernel, "cudaq-builder").text
    _assert_each_shape_defined_once(text)
    check_builder(kernel, text)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_cases(name):
    _check(GOLDEN_CASES[name])


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_conformance_corpus(index):
    _check(CORPUS[index])


@pytest.mark.parametrize("name", sorted(DIGEST_CORPUS))
def test_emission_digest_corpus(name):
    _check(DIGEST_CORPUS[name])


class TestStubRejects:
    """The stub refuses what the builder text must never say."""

    def test_lsb_first_packing(self):
        kernel = compile_source(GOLDEN_CASES["registerpred"])
        text = emit(kernel, "cudaq-builder").text
        reversed_pack = text.replace("(m0 << 2) | (m1 << 1) | m2", "m0 | (m1 << 1) | (m2 << 2)")
        assert reversed_pack != text
        with pytest.raises(StubError, match="packed register c is not"):
            rebuild(reversed_pack, kernel)

    def test_stale_handle(self):
        kernel = compile_source(
            'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[2] q;\nbit c;\nh q;\n'
            "c = measure q[0];\nc = measure q[1];\nif (c == 1) { x q[0]; }\n"
        )
        text = emit(kernel, "cudaq-builder").text
        stale = text.replace("kernel.c_if(m1 == 1,", "kernel.c_if(m0 == 1,")
        assert stale != text
        rebuild(text, kernel)
        with pytest.raises(StubError, match=r"m0 no longer holds c\[0\]"):
            rebuild(stale, kernel)


# builder base -> its angles as (literal, input) spellings
_BASES = {
    "x": ("", ""), "y": ("", ""), "z": ("", ""), "h": ("", ""), "s": ("", ""), "t": ("", ""), "sx": ("", ""),
    "rx": ("(0.3)", "(alpha)"), "ry": ("(-1.2)", "(theta[1])"), "rz": ("(2.5)", "(alpha)"), "p": ("(0.7)", "(theta[0])"),
    "u": ("(0.1, 0.2, 0.3)", "(alpha, 0.2, theta[1])"), "swap": ("", ""),
}
_MODIFIERS = {"negctrl @ ": 1, "ctrl @ ctrl @ ": 2, "inv @ ": 0, "ctrl @ inv @ ": 1}


def _modifier_program(base: str) -> str:
    """The base under each modifier route with literal and input angles,
    each call twice, the second time on other qubits."""
    width = 2 if base == "swap" else 1
    lines = []
    for modifier, controls in _MODIFIERS.items():
        for angles in dict.fromkeys(_BASES[base]):
            for shift in (0, 1):
                qubits = ", ".join(f"q[{(k + shift) % 4}]" for k in range(controls + width))
                lines.append(f"{modifier}{base}{angles} {qubits};")
    # a product state with no qubit in an eigenstate of x, sx or swap
    prepare = "".join(f"u({0.4 + 0.5 * k}, {0.3 * k}, 0.2) q[{k}];\n" for k in range(4))
    return HEADER + "input float[64] alpha;\ninput array[float[64], 2] theta;\nqubit[4] q;\n" + prepare + "\n".join(lines) + "\n"


# first uses of shapes inside then and else bodies, nested, then reuses
_SHAPES_FIRST_IN_BRANCHES = HEADER + (
    "input float[64] alpha;\nqubit[3] q;\nbit[2] c;\nh q;\nc[0] = measure q[0];\nc[1] = measure q[1];\n"
    "if (c[0] == 1) { negctrl @ x q[1], q[2]; if (c[1] == 0) { inv @ ctrl @ rx(alpha) q[2], q[0]; } }\n"
    "else { inv @ t q[1]; ctrl @ ctrl @ inv @ s q[0], q[1], q[2]; }\n"
    "negctrl @ x q[2], q[1];\nctrl @ inv @ rx(alpha) q[0], q[2];\ninv @ t q[2];\n"
    "if (c == 2) { negctrl @ ctrl @ h q[0], q[1], q[2]; }\n"
)


class TestModifierRoute:
    @pytest.mark.parametrize("base", sorted(_BASES))
    def test_every_base_under_every_modifier(self, base):
        _check(_modifier_program(base))

    def test_shapes_first_used_inside_branches(self):
        kernel = compile_source(_SHAPES_FIRST_IN_BRANCHES)
        text = emit(kernel, "cudaq-builder").text
        assert _assert_each_shape_defined_once(text) == 7
        assert text.index("sub_x, ") < text.index("m0 = kernel.mz(q[0])")
        check_builder(kernel, text)
