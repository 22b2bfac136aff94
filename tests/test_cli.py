import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from qasm2cudaq import cli, sim, suites

from conftest import EXPANSION_PROBES, LONG_INT_PROBES, NESTING_PROBES, NON_FINITE_PROBES, UNICODE_DIGITS_PROBE

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

    def test_empty_expval_is_a_pauli_string(self, tmp_path, capsys):
        # an empty string is the 0-qubit Pauli string, not a missing flag
        static = tmp_path / "static.qasm"
        static.write_text(BELL.replace("c = measure q;\n", ""))
        assert cli.main(["run", str(static), "--expval", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pauli string length 0 != 2 qubits\n"
        empty = tmp_path / "empty.qasm"
        empty.write_text("OPENQASM 3.0;\n")
        assert cli.main(["run", str(empty), "--expval", ""]) == 0
        assert capsys.readouterr().out == "<> = 1.0\n"

    def test_param_errors(self, ansatz_file, capsys):
        assert cli.main(["run", ansatz_file]) == 2
        assert "missing --param theta" in capsys.readouterr().err
        assert cli.main(["run", ansatz_file, "--param", "theta=1"]) == 2
        assert cli.main(["run", ansatz_file, "--param", "theta=1,2", "--param", "bogus=1"]) == 2

    @pytest.mark.parametrize(
        "params",
        [
            ["theta=1", "theta=0.5,0.25"],
            ["theta=0.5,0.25", "theta=0.5,0.25"],
            ["theta=0.5,,0.25"],
            ["theta=0.5,0.25,"],
            ["theta="],
            ["theta"],
        ],
        ids=["repeated", "repeated-same", "empty-element", "trailing-comma", "no-values", "no-equals"],
    )
    def test_malformed_params(self, ansatz_file, capsys, params):
        argv = ["run", ansatz_file]
        for param in params:
            argv += ["--param", param]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_workers_flag_is_gone(self, bell_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", bell_file, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [["--statevector"], ["--expval", "ZZ"], ["--statevector", "--expval", "ZZ"]])
    def test_dynamic_kernel_error_names_the_flag(self, bell_file, capsys, flags):
        assert cli.main(["run", bell_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named = " and ".join(f for f in flags if f.startswith("--"))
        assert captured.err == (
            f"error: {named}: the kernel measures, resets or branches, so it has no single "
            f"final state; drop {named} to sample shots\n"
        )

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


# 14 qubits under h: the histogram and the amplitudes are 16,384 lines each,
# several times what a pipe buffers, so the writer meets the closed pipe.
WIDE = 'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[14] q;\nh q;\n'


@pytest.mark.parametrize(
    "source, flags",
    [(WIDE + "bit[14] c;\nc = measure q;\n", ["--shots", "100000"]), (WIDE, ["--statevector"])],
    ids=["histogram", "statevector"],
)
def test_closed_stdout_is_one_line_error(tmp_path, source, flags):
    path = tmp_path / "wide.qasm"
    path.write_text(source)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qasm2cudaq.cli", "run", str(path), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    first = proc.stdout.readline()  # then close the pipe, as `| head -1` does
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert first.startswith(b"00000000000000 ")
    assert err == "error: standard output was closed before all output was written\n"


def test_closed_stdout_in_process_is_one_line_error(tmp_path, capsys, monkeypatch):
    # the handler in this process, with stdout a pipe whose reader closes after one line
    path = tmp_path / "wide.qasm"
    path.write_text('OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[16] q;\nh q;\n')
    read_fd, write_fd = os.pipe()
    first = []

    def read_one_line():
        with os.fdopen(read_fd, "rb") as reader:
            first.append(reader.readline())

    reader = threading.Thread(target=read_one_line)
    reader.start()
    with os.fdopen(write_fd, "w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        code = cli.main(["run", str(path), "--statevector"])
        monkeypatch.undo()
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert code == 2
    assert first[0].startswith(b"0000000000000000 ")
    assert capsys.readouterr().err == "error: standard output was closed before all output was written\n"


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

    @pytest.mark.parametrize("name", sorted(NESTING_PROBES) + sorted(NON_FINITE_PROBES) + sorted(LONG_INT_PROBES))
    def test_resource_probe_is_one_line_error(self, tmp_path, capsys, name):
        source, (line, col) = {**NESTING_PROBES, **NON_FINITE_PROBES, **LONG_INT_PROBES}[name]
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

    def test_a_fold_past_the_literal_digits_is_one_line_error(self, tmp_path, capsys):
        # 600 nines to the 8th has 4,800 digits, past what str() prints by default
        path = tmp_path / "fold.qasm"
        path.write_text(
            'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit q;\n'
            f"const int k = {'9' * 600};\nconst int m = k*k*k*k*k*k*k*k;\nx q[m];\n"
        )
        assert cli.main(["transpile", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: semantic error at 5:15: constant expression folds to an integer of more than 640 digits\n"

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

    def test_a_failing_case_is_listed(self, capsys, monkeypatch):
        report = suites.SuiteReport("reset", [suites.CaseResult("ok", True, 0.0, 0.1), suites.CaseResult("off", False, 0.5, 0.1)])
        monkeypatch.setitem(suites.SUITES, "reset", lambda seed, shots: report)
        assert cli.main(["validate", "--suite", "reset"]) == 1
        assert capsys.readouterr().out == (
            "[FAIL] suite reset: 2 case(s) in 0.00s\n    FAIL off: metric=0.5 threshold=0.1\n"
        )
