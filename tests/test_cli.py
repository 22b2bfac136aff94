import json

import pytest

from qasm2cudaq import cli, sim

from conftest import EXPANSION_PROBES, NESTING_PROBES, NON_FINITE_PROBES, UNICODE_DIGITS_PROBE

BELL = (
    "OPENQASM 3.0;\n"
    'include "stdgates.inc";\n'
    "qubit[2] q;\n"
    "bit[2] c;\n"
    "h q[0];\n"
    "cx q[0], q[1];\n"
    "c = measure q;\n"
)

ANSATZ = (
    "OPENQASM 3.0;\n"
    'include "stdgates.inc";\n'
    "input array[float[64], 2] theta;\n"
    "qubit[2] q;\n"
    "ry(theta[0]) q[0];\n"
    "ry(theta[1]) q[1];\n"
    "cx q[0], q[1];\n"
)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL)
    return str(path)


@pytest.fixture
def ansatz_file(tmp_path):
    path = tmp_path / "ansatz.qasm"
    path.write_text(ANSATZ)
    return str(path)


class TestRun:
    def test_histogram_output_sorted(self, bell_file, capsys):
        assert cli.main(["run", bell_file, "--shots", "200", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = [line.split()[0] for line in lines]
        assert keys == sorted(keys)
        assert set(keys) <= {"00", "11"}
        assert sum(int(line.split()[1]) for line in lines) == 200

    def test_run_is_reproducible(self, bell_file, capsys):
        cli.main(["run", bell_file, "--shots", "500", "--seed", "9"])
        first = capsys.readouterr().out
        cli.main(["run", bell_file, "--shots", "500", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_statevector_dump(self, bell_file, capsys):
        path_text = BELL.replace("c = measure q;\n", "")
        import pathlib

        f = pathlib.Path(bell_file).with_name("static.qasm")
        f.write_text(path_text)
        assert cli.main(["run", str(f), "--statevector"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("00 ") and "+0.707106781187" in out

    def test_expval(self, ansatz_file, capsys):
        assert (
            cli.main(["run", ansatz_file, "--param", "theta=0,0", "--expval", "ZZ"]) == 0
        )
        assert "<ZZ> = 1.0" in capsys.readouterr().out

    def test_param_errors(self, ansatz_file, capsys):
        assert cli.main(["run", ansatz_file]) == 2
        assert "missing --param theta" in capsys.readouterr().err
        assert cli.main(["run", ansatz_file, "--param", "theta=1"]) == 2
        assert cli.main(["run", ansatz_file, "--param", "theta=1,2", "--param", "bogus=1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_bad_param_value(self, tmp_path, capsys, value):
        path = tmp_path / "rx.qasm"
        path.write_text(
            'OPENQASM 3.0;\ninclude "stdgates.inc";\ninput float[64] theta;\n'
            "qubit q;\nbit c;\nrx(theta) q;\nc = measure q;\n"
        )
        assert cli.main(["run", str(path), "--param", f"theta={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert value in captured.err

    @pytest.mark.parametrize("shots", [sim.MAX_SHOTS + 1, 10**20])
    def test_too_many_shots(self, bell_file, capsys, monkeypatch, shots):
        def no_work(*args):
            raise AssertionError("sampled past MAX_SHOTS")

        monkeypatch.setattr(sim, "_sample_static", no_work)
        monkeypatch.setattr(sim, "_gates_only_state", no_work)
        assert cli.main(["run", bell_file, "--shots", str(shots)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ") and str(shots) in captured.err

    def test_too_wide_for_simulator(self, tmp_path, capsys):
        wide = tmp_path / "wide.qasm"
        wide.write_text(BELL.replace("qubit[2] q;", "qubit[64] q;"))
        assert cli.main(["run", str(wide)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "64" in err

    def test_parse_error_reported(self, tmp_path, capsys):
        broken = tmp_path / "broken.qasm"
        broken.write_text("OPENQASM 3.0;\nwhile (1) { }\n")
        assert cli.main(["run", str(broken)]) == 2
        assert "construct not supported" in capsys.readouterr().err


def _unreadable(tmp_path, kind: str) -> str:
    if kind == "missing":
        return str(tmp_path / "missing.qasm")
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.qasm"
    path.write_bytes(BELL.replace("h q[0];", "// caf\xe9\nh q[0];").encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("command", ["transpile", "run"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_input_is_one_line_error(tmp_path, capsys, command, kind):
    path = _unreadable(tmp_path, kind)
    assert cli.main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: cannot read {path}: ")


class TestTranspile:
    def test_emit_to_file(self, bell_file, tmp_path, capsys):
        out = tmp_path / "kernel.cpp"
        assert cli.main(["transpile", bell_file, "--target", "cudaq-cpp", "-o", str(out)]) == 0
        assert "struct transpiled_kernel" in out.read_text()

    @pytest.mark.parametrize("kind", ["directory", "missing-parent"])
    def test_unwritable_output_is_one_line_error(self, bell_file, tmp_path, capsys, kind):
        out = str(tmp_path if kind == "directory" else tmp_path / "absent" / "kernel.cpp")
        assert cli.main(["transpile", bell_file, "-o", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: cannot write {out}: ")

    def test_emit_builder_stdout(self, bell_file, capsys):
        assert cli.main(["transpile", bell_file, "--target", "cudaq-builder"]) == 0
        assert "cudaq.make_kernel()" in capsys.readouterr().out

    @pytest.mark.parametrize(("target", "name"), [("cudaq-cpp", "main"), ("cudaq-builder", "lambda"), ("cudaq-builder", "q")])
    def test_reserved_input_name_is_one_line_error(self, tmp_path, capsys, target, name):
        path = tmp_path / "reserved.qasm"
        path.write_text(f'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[2] r;\ninput float[64] {name};\nrx({name}) r[0];\n')
        assert cli.main(["transpile", str(path), "--target", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: input '{name}' takes a name the {target} text reserves; rename it\n"

    def test_dump_ir(self, bell_file, capsys):
        assert cli.main(["transpile", bell_file, "--dump-ir"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "kernel qubits=2 params=- classical=c:2"

    @pytest.mark.parametrize("name", sorted(NESTING_PROBES) + sorted(NON_FINITE_PROBES))
    def test_resource_probe_is_one_line_error(self, tmp_path, capsys, name):
        source, (line, col) = {**NESTING_PROBES, **NON_FINITE_PROBES}[name]
        path = tmp_path / "probe.qasm"
        path.write_text(source)
        assert cli.main(["transpile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert f" at {line}:{col}: " in captured.err

    def test_unicode_digit_is_one_line_lex_error(self, tmp_path, capsys):
        source, (line, col) = UNICODE_DIGITS_PROBE
        path = tmp_path / "digits.qasm"
        path.write_text(source, encoding="utf-8")
        assert cli.main(["transpile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f" at {line}:{col}: " in captured.err

    @pytest.mark.parametrize("name", sorted(EXPANSION_PROBES))
    def test_expansion_probe_is_one_line_error(self, tmp_path, capsys, name):
        path = tmp_path / "probe.qasm"
        path.write_text(EXPANSION_PROBES[name])
        assert cli.main(["transpile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "statements" in captured.err


class TestValidate:
    def test_single_suite_pass(self, capsys):
        assert cli.main(["validate", "--suite", "reset", "--shots", "200", "--seed", "3"]) == 0
        assert "[PASS] suite reset" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert cli.main(["validate", "--suite", "teleport", "--shots", "100", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["suite"] == "teleport"
        assert payload["reports"][0]["passed"] is True
