import json
import pathlib
import re

import pytest

from qasm2cudaq import emit as emit_mod, kir
from qasm2cudaq.emit import EMISSION_TARGETS, EmittedSource, emit, golden_check
from qasm2cudaq.errors import MissingGolden, UnsupportedForTarget, UnsupportedOp
from qasm2cudaq.suites import compile_source

from golden_cases import GOLDEN_CASES, emission_digests

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

HEADER = 'OPENQASM 3.0;\ninclude "stdgates.inc";\n'

_CPP_GATE_RE = re.compile(
    r"^\s*(?:x|y|z|h|s|t|sx|rx|ry|rz|r1|u3|swap)(?:<[^>]*>)?\(.*\);$"
)


def _count_ir_gates(ops) -> int:
    total = 0
    for op in ops:
        if isinstance(op, kir.Gate):
            total += 1
        elif isinstance(op, kir.CondBlock):
            total += _count_ir_gates(op.then_body) + _count_ir_gates(op.else_body)
    return total


class TestGoldenCorpus:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    @pytest.mark.parametrize("target", EMISSION_TARGETS)
    def test_byte_equality(self, name, target):
        kernel = compile_source(GOLDEN_CASES[name])
        emitted = emit(kernel, target)
        ok, detail = golden_check(emitted, str(GOLDEN_DIR / target / f"{name}.txt"))
        assert ok, detail

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    @pytest.mark.parametrize("target", EMISSION_TARGETS)
    def test_deterministic(self, name, target):
        kernel = compile_source(GOLDEN_CASES[name])
        assert emit(kernel, target).text == emit(kernel, target).text
        rebuilt = compile_source(GOLDEN_CASES[name])
        assert emit(rebuilt, target).text == emit(kernel, target).text

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_cpp_gate_line_count_matches_ir(self, name):
        kernel = compile_source(GOLDEN_CASES[name])
        text = emit(kernel, "cudaq-cpp").text
        body = text.split("struct transpiled_kernel", 1)[1]
        gate_lines = [ln for ln in body.splitlines() if _CPP_GATE_RE.match(ln)]
        assert len(gate_lines) == _count_ir_gates(kernel.body)

    def test_trailing_newline_and_two_space_indent(self):
        for target in EMISSION_TARGETS:
            text = emit(compile_source(GOLDEN_CASES["bell"]), target).text
            assert text.endswith("\n") and not text.endswith("\n\n")
            indents = {
                len(ln) - len(ln.lstrip(" "))
                for ln in text.splitlines()
                if ln.startswith(" ")
            }
            assert all(n % 2 == 0 for n in indents)

    def test_generated_corpus_digests(self):
        # recorded by scripts/record_goldens.py; programs with many repeated
        # ops, both zero signs and builder sub-kernels
        recorded = json.loads((GOLDEN_DIR / "emission_digests.json").read_text(encoding="utf-8"))
        assert emission_digests() == recorded


class TestRepeatedOps:
    """Each emitter renders a distinct gate op once; these pin what a
    shared rendering must not change."""

    def test_repeats_inside_branches_take_the_branch_indent(self):
        source = HEADER + (
            "qubit[2] q;\nbit c;\nh q[0];\ncx q[0], q[1];\nc = measure q[0];\n"
            "if (c == 1) { h q[0]; cx q[0], q[1]; } else { cx q[0], q[1]; }\nh q[0];\n"
        )
        kernel = compile_source(source)
        cpp = emit(kernel, "cudaq-cpp").text
        assert cpp.count("\n    h(q[0]);\n") == 2 and cpp.count("\n      h(q[0]);\n") == 1
        assert cpp.count("\n    x<cudaq::ctrl>(q[0], q[1]);\n") == 1
        assert cpp.count("\n      x<cudaq::ctrl>(q[0], q[1]);\n") == 2
        builder = emit(kernel, "cudaq-builder").text
        assert builder.count("\n  kernel.h(q[0])\n") == 2 and builder.count("\n    kernel.h(q[0])\n") == 1
        assert builder.count("\n    kernel.cx(q[0], q[1])\n") == 2

    def test_zero_angles_keep_their_sign(self):
        source = HEADER + "qubit q;\nrz(0.0) q;\nrz(-0.0) q;\nrz(0.0) q;\ninv @ rz(0.0) q;\n"
        kernel = compile_source(source)
        cpp = emit(kernel, "cudaq-cpp").text
        assert re.findall(r"rz\((-?0\.0), q\[0\]\);", cpp) == ["0.0", "-0.0", "0.0", "-0.0"]
        builder = emit(kernel, "cudaq-builder").text
        assert re.findall(r"kernel\.rz\((-?0\.0), q\[0\]\)", builder) == ["0.0", "-0.0", "0.0", "-0.0"]

    def test_builder_defines_each_sub_kernel_shape_once(self):
        source = HEADER + "qubit[2] q;\n" + "negctrl @ x q[0], q[1];\ninv @ ctrl @ s q[0], q[1];\n" * 3
        text = emit(compile_source(source), "cudaq-builder").text
        assert re.findall(r"kernel\.control\((sub_\w+),", text) == ["sub_x", "sub_adj_s"] * 3
        assert text.count("cudaq.make_kernel(cudaq.qubit)") == 3
        assert text.count("\n  kernel.x(q[0])\n") == 6


class TestCondBlockStructure:
    def test_branches_emitted_exactly_once(self):
        kernel = compile_source(GOLDEN_CASES["ifelse"])
        cpp = emit(kernel, "cudaq-cpp").text
        assert cpp.count("x(q[1]);") == 1
        assert cpp.count("z(q[1]);") == 1
        assert cpp.count("h(q[1]);") == 1
        builder = emit(kernel, "cudaq-builder").text
        assert builder.count("kernel.x(q[1])") == 1
        assert builder.count("kernel.z(q[1])") == 1
        assert builder.count("kernel.h(q[1])") == 1

    def test_cpp_native_if_else(self):
        cpp = emit(compile_source(GOLDEN_CASES["ifelse"]), "cudaq-cpp").text
        assert "if (m0 == 1) {" in cpp
        assert "} else {" in cpp

    def test_builder_callables_and_c_if(self):
        builder = emit(compile_source(GOLDEN_CASES["ifelse"]), "cudaq-builder").text
        assert "def cond_0_then():" in builder
        assert "def cond_0_else():" in builder
        assert "kernel.c_if(m0 == 1, cond_0_then)" in builder
        assert "kernel.c_if(m0 != 1, cond_0_else)" in builder

    def test_whole_register_pack_is_msb_first(self):
        for target in EMISSION_TARGETS:
            text = emit(compile_source(GOLDEN_CASES["registerpred"]), target).text
            assert "(m0 << 2) | (m1 << 1) | m2" in text

    def test_cpp_measure_inside_branch_is_hoisted(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\n"
            "h q[0];\nc = measure q[0];\n"
            "if (c == 1) { h q[1]; d = measure q[1]; }\n"
        )
        cpp = emit(compile_source(source), "cudaq-cpp").text
        assert "int m1 = 0;" in cpp
        assert "m1 = mz(q[1]);" in cpp
        assert cpp.index("int m1 = 0;") < cpp.index("if (m0 == 1) {")

    def test_cpp_nested_predicate_on_branch_measure(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\n"
            "h q[0];\nc = measure q[0];\n"
            "if (c == 1) { d = measure q[1]; if (d == 1) { x q[0]; } }\n"
        )
        cpp = emit(compile_source(source), "cudaq-cpp").text
        assert "if (m1 == 1) {" in cpp

    def test_each_executed_measure_is_its_own_op_and_local(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit[2] c;\n"
            "for int i in [0:2] { c[0] = measure q[0]; }\n"
            "if (c[0]) { c[1] = measure q[1]; }\n"
        )
        kernel = compile_source(source)
        loop = kernel.body[:3]
        assert all(isinstance(m, kir.Measure) and m == kir.Measure(0, ("c", 0)) for m in loop)
        assert len({id(m) for m in loop}) == 3
        cpp = emit(kernel, "cudaq-cpp").text
        for i in range(3):
            assert f"auto m{i} = mz(q[0]);" in cpp
        assert "int m3 = 0;" in cpp
        assert "if (m2) {" in cpp
        assert "m3 = mz(q[1]);" in cpp

    def test_cpp_rejects_divergent_conditional_writers(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\n"
            "h q[0];\nc = measure q[0];\n"
            "if (c == 1) { d = measure q[1]; } else { d = measure q[0]; }\n"
        )
        with pytest.raises(UnsupportedForTarget):
            emit(compile_source(source), "cudaq-cpp")
        # two bits written twice: the error names the first duplicated write
        # in program order (e), not the first whose second write comes (d)
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\nbit e;\n"
            "h q[0];\nc = measure q[0];\n"
            "if (c == 1) { e = measure q[1]; d = measure q[1]; } else { d = measure q[0]; e = measure q[0]; }\n"
        )
        with pytest.raises(UnsupportedForTarget, match=r"measurements of e\[0\] inside"):
            emit(compile_source(source), "cudaq-cpp")

    def test_cpp_rejects_a_whole_register_predicate_past_31_bits(self):
        for width, fits in ((31, True), (32, False), (40, False)):
            source = f"{HEADER}qubit[{width}] q;\nbit[{width}] c;\nc = measure q;\nif (c == 5) {{ x q[0]; }}\n"
            kernel = compile_source(source)
            emit(kernel, "cudaq-builder")
            if fits:
                assert f"(m0 << {width - 1})" in emit(kernel, "cudaq-cpp").text
            else:
                with pytest.raises(UnsupportedForTarget, match=f"register 'c' is {width} bits wide: test single bits or use cudaq-builder"):
                    emit(kernel, "cudaq-cpp")
        # single-bit tests of a wide register still emit
        kernel = compile_source(f"{HEADER}qubit[40] q;\nbit[40] c;\nc = measure q;\nif (c[39] == 1) {{ x q[0]; }}\n")
        assert "if (m39 == 1) {" in emit(kernel, "cudaq-cpp").text

    def test_builder_rejects_conditional_measure(self):
        source = (
            f"{HEADER}qubit[2] q;\nbit c;\nbit d;\n"
            "h q[0];\nc = measure q[0];\n"
            "if (c == 1) { d = measure q[1]; }\n"
        )
        with pytest.raises(UnsupportedForTarget):
            emit(compile_source(source), "cudaq-builder")


class TestParameters:
    def test_signature_mirrors_layout_order(self):
        source = (
            f"{HEADER}input array[float[64], 2] beta;\ninput float[64] alpha;\n"
            "qubit q;\nrx(beta[0]) q;\nrz(alpha) q;\n"
        )
        kernel = compile_source(source)
        cpp = emit(kernel, "cudaq-cpp").text
        assert "void operator()(std::vector<double> beta, double alpha) __qpu__ {" in cpp
        builder = emit(kernel, "cudaq-builder").text
        assert "kernel, beta, alpha = cudaq.make_kernel(list[float], float)" in builder

    def test_param_angles_render_symbolically(self):
        kernel = compile_source(GOLDEN_CASES["param_array"])
        for target in EMISSION_TARGETS:
            text = emit(kernel, target).text
            assert "theta[0]" in text and "theta[3]" in text

    def test_no_decimal_rendering_of_bound_values(self):
        kernel = compile_source(GOLDEN_CASES["param_array"])
        values = [0.8675309, 2.71828, 0.57721, 1.41421]
        kir.bind(kernel, values)  # binding must not leak into emission
        for target in EMISSION_TARGETS:
            text = emit(kernel, target).text
            for value in values:
                assert repr(value) not in text
                assert f"{value:.4f}" not in text

    def test_scalar_param_renders_bare(self):
        cpp = emit(compile_source(GOLDEN_CASES["param_scalar"]), "cudaq-cpp").text
        assert "rx(alpha, q[0]);" in cpp
        assert "double alpha" in cpp


class TestGoldenCheck:
    def test_identical_passes(self, tmp_path):
        emitted = EmittedSource("cudaq-cpp", "line one\nline two\n")
        path = tmp_path / "case.txt"
        path.write_text("line one\nline two\n")
        ok, detail = golden_check(emitted, str(path))
        assert ok and detail == "identical"

    def test_one_byte_difference_reports_line(self, tmp_path):
        emitted = EmittedSource("cudaq-cpp", "line one\nline twa\n")
        path = tmp_path / "case.txt"
        path.write_text("line one\nline two\n")
        ok, detail = golden_check(emitted, str(path))
        assert not ok
        assert "line 2" in detail

    def test_record_mode_writes_missing_file(self, tmp_path):
        emitted = EmittedSource("cudaq-cpp", "fresh\n")
        path = tmp_path / "sub" / "case.txt"
        ok, detail = golden_check(emitted, str(path), record=True)
        assert ok and detail == "recorded"
        assert path.read_text() == "fresh\n"

    def test_missing_golden_raises_in_check_mode(self, tmp_path):
        emitted = EmittedSource("cudaq-cpp", "fresh\n")
        with pytest.raises(MissingGolden):
            golden_check(emitted, str(tmp_path / "absent.txt"))


class TestTargets:
    def test_exactly_two_targets(self):
        assert set(EMISSION_TARGETS) == {"cudaq-cpp", "cudaq-builder"}
        with pytest.raises(UnsupportedOp):
            emit(compile_source(GOLDEN_CASES["bell"]), "qiskit")

    @pytest.mark.parametrize("target", EMISSION_TARGETS)
    def test_foreign_op_names_the_target(self, target):
        # the shared op walk's fallback, unreachable from compiled source
        class Foreign:
            pass

        kernel = compile_source(GOLDEN_CASES["bell"])
        kernel.body.append(Foreign())
        with pytest.raises(UnsupportedOp, match=f"^no {target} rendering for Foreign$"):
            emit(kernel, target)

    @pytest.mark.parametrize("target", EMISSION_TARGETS)
    @pytest.mark.parametrize("slot", [-1, 4], ids=["negative", "past-the-layout"])
    def test_param_slot_outside_the_layout(self, target, slot):
        # unreachable from compiled source, where sema numbers every slot
        kernel = compile_source(GOLDEN_CASES["param_array"])
        kernel.body.append(kir.Gate("rz", (kir.ParamRef(slot),), (0,), ()))
        with pytest.raises(UnsupportedOp, match=f"^parameter slot {slot} outside the kernel's layout$"):
            emit(kernel, target)

    def test_builder_guarded_entry(self):
        builder = emit(compile_source(GOLDEN_CASES["bell"]), "cudaq-builder").text
        assert 'if __name__ == "__main__":' in builder
        # cudaq import is deferred into functions so the file parses without it
        head = builder.split("def build_kernel():")[0]
        assert "import cudaq" not in head

    def test_builder_script_is_valid_python(self):
        for name in GOLDEN_CASES:
            text = emit(compile_source(GOLDEN_CASES[name]), "cudaq-builder").text
            compile(text, f"<{name}>", "exec")

    def test_builder_adjoint_with_controls_wraps_the_adjoint(self):
        # no golden reaches this path: inv plus controls nests an adjoint
        # sub-kernel inside the controlled one; every definition comes first
        source = HEADER + (
            "input float[64] t;\nqubit[3] q;\n"
            "negctrl @ inv @ rx(t) q[0], q[1];\nctrl @ ctrl @ inv @ s q[0], q[1], q[2];\n"
        )
        text = emit(compile_source(source), "cudaq-builder").text
        body = text.split("  q = kernel.qalloc(3)\n", 1)[1].split("  return kernel\n", 1)[0]
        assert body == (
            "  sub_rx, sub_rx_a0, sub_rx_q0 = cudaq.make_kernel(float, cudaq.qubit)\n"
            "  sub_rx.rx(sub_rx_a0, sub_rx_q0)\n"
            "  sub_adj_rx, sub_adj_rx_a0, sub_adj_rx_q0 = cudaq.make_kernel(float, cudaq.qubit)\n"
            "  sub_adj_rx.adjoint(sub_rx, sub_adj_rx_a0, sub_adj_rx_q0)\n"
            "  sub_s, sub_s_q0 = cudaq.make_kernel(cudaq.qubit)\n"
            "  sub_s.s(sub_s_q0)\n"
            "  sub_adj_s, sub_adj_s_q0 = cudaq.make_kernel(cudaq.qubit)\n"
            "  sub_adj_s.adjoint(sub_s, sub_adj_s_q0)\n"
            "  kernel.x(q[0])\n"
            "  kernel.control(sub_adj_rx, q[0], t, q[1])\n"
            "  kernel.x(q[0])\n"
            "  kernel.control(sub_adj_s, [q[0], q[1]], q[2])\n"
        )

    # name -> the targets that reserve it
    RESERVED_INPUTS = {
        "q": EMISSION_TARGETS,
        "cudaq": EMISSION_TARGETS,
        "counts": EMISSION_TARGETS,
        "m0": EMISSION_TARGETS,
        "cval3": EMISSION_TARGETS,
        "kernel": ("cudaq-builder",),
        "build_kernel": ("cudaq-builder",),
        "list": ("cudaq-builder",),
        "lambda": ("cudaq-builder",),
        "cond_0_then": ("cudaq-builder",),
        "cond_2_else": ("cudaq-builder",),
        "sub_0": ("cudaq-builder",),
        "sub_rx": ("cudaq-builder",),
        "transpiled_kernel": ("cudaq-cpp",),
        "main": ("cudaq-cpp",),
        "std": ("cudaq-cpp",),
        "r1": ("cudaq-cpp",),
        "t": ("cudaq-cpp",),
        "auto": ("cudaq-cpp",),
        "double": ("cudaq-cpp",),
        "__qpu__": ("cudaq-cpp",),
        "_Theta": ("cudaq-cpp",),
    }

    @pytest.mark.parametrize("target", EMISSION_TARGETS)
    @pytest.mark.parametrize("name", sorted(RESERVED_INPUTS))
    def test_input_with_a_reserved_name(self, name, target):
        # the emitted text binds or calls these names itself (or they are
        # keywords), so an input taking one would make broken source
        source = f"{HEADER}input float[64] {name};\nqubit[2] r;\nrx({name}) r[0];\ninv @ rz({name}) r[1];\n"
        kernel = compile_source(source)
        if target in self.RESERVED_INPUTS[name]:
            with pytest.raises(UnsupportedForTarget, match=f"^input '{name}' takes a name the {target} text reserves"):
                emit(kernel, target)
        else:
            text = emit(kernel, target).text
            if target == "cudaq-builder":
                compile(text, "<builder>", "exec")

    @pytest.mark.parametrize("name", ["theta", "m", "cval", "sub", "cond_x_then", "qq", "_x", "kernels"])
    def test_near_reserved_names_are_accepted(self, name):
        source = f"{HEADER}input array[float[64], 2] {name};\nqubit q;\nrx({name}[1]) q;\n"
        for target in EMISSION_TARGETS:
            assert f"{name}[1]" in emit(compile_source(source), target).text
