"""Command-line interface: transpile, run, validate."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import kir, sim, suites
from .kir import compile_source
from .emit import EMISSION_TARGETS, emit
from .errors import BadParameter, DynamicCircuit, Qasm2CudaqError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qasm2cudaq",
        description="OpenQASM 3.0 to CUDA-Q transpiler with an embedded trajectory simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trans = sub.add_parser("transpile", help="emit CUDA-Q kernel source text")
    p_trans.add_argument("file", help="OpenQASM 3.0 source file")
    p_trans.add_argument(
        "--target", choices=EMISSION_TARGETS, default="cudaq-cpp", help="emission format"
    )
    p_trans.add_argument("-o", "--output", help="output path (default: stdout)")
    p_trans.add_argument(
        "--dump-ir", action="store_true", help="print the kernel IR debug dump instead of source"
    )

    p_run = sub.add_parser("run", help="simulate a program and print the shot histogram")
    p_run.add_argument("file", help="OpenQASM 3.0 source file")
    p_run.add_argument("--shots", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=1234)
    p_run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="name=v1,v2,...",
        help="runtime input values (repeatable)",
    )
    p_run.add_argument("--expval", metavar="PAULI", help="print <P> for a Pauli string (static circuits)")
    p_run.add_argument(
        "--statevector", action="store_true", help="dump final amplitudes (static circuits)"
    )

    p_val = sub.add_parser("validate", help="run the built-in validation suites")
    p_val.add_argument(
        "--suite",
        choices=sorted(suites.SUITES) + ["all"],
        default="all",
    )
    p_val.add_argument("--seed", type=int, default=1234)
    p_val.add_argument("--shots", type=int, default=1000)
    p_val.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def _parse_params(kernel: kir.Kernel, raw: list[str]) -> list[float]:
    given: dict[str, list[float]] = {}
    for item in raw:
        if "=" not in item:
            raise Qasm2CudaqError(f"--param expects name=v1,v2,..., got {item!r}")
        name, _, values = item.partition("=")
        name = name.strip()
        if name in given:
            raise Qasm2CudaqError(f"--param {name!r} is given more than once")
        try:  # an empty element is not a number either
            given[name] = [float(v) for v in values.split(",")]
        except ValueError:
            raise BadParameter(f"--param {item!r}: every value must be a number") from None
    flat: list[float] = []
    for spec in kernel.param_layout:
        if spec.name not in given:
            raise Qasm2CudaqError(f"missing --param {spec.name}=... ({spec.count} value(s))")
        values = given.pop(spec.name)
        if len(values) != spec.count:
            raise Qasm2CudaqError(
                f"parameter '{spec.name}' takes {spec.count} value(s), got {len(values)}"
            )
        flat.extend(values)
    if given:
        raise Qasm2CudaqError(f"unknown parameter(s): {', '.join(sorted(given))}")
    return flat


def _read_source(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise Qasm2CudaqError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        reason = f"not UTF-8 text ({err.reason} at byte {err.start})"
        raise Qasm2CudaqError(f"cannot read {path}: {reason}") from None


def _cmd_transpile(args) -> int:
    kernel = compile_source(_read_source(args.file))
    if args.dump_ir:
        text = kir.dump(kernel)
    else:
        text = emit(kernel, args.target).text
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise Qasm2CudaqError(f"cannot write {args.output}: {err.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    kernel = compile_source(_read_source(args.file))
    bound = kir.bind(kernel, _parse_params(kernel, args.param))
    expval = args.expval is not None  # "" is the Pauli string of a 0-qubit kernel
    if args.statevector or expval:
        try:
            state = sim.statevector(bound)
        except DynamicCircuit:
            flags = " and ".join(f for f, on in (("--statevector", args.statevector), ("--expval", expval)) if on)
            raise Qasm2CudaqError(
                f"{flags}: the kernel measures, resets or branches, so it has no single final state; "
                f"drop {flags} to sample shots"
            ) from None
        if args.statevector:
            for i, amp in enumerate(state.amps):
                print(f"{i:0{max(kernel.qubit_count, 1)}b} {amp.real:+.12f}{amp.imag:+.12f}j")
        if expval:
            print(f"<{args.expval}> = {sim.expval_pauli(state, args.expval)!r}")
        return 0
    hist = sim.sample(bound, args.shots, args.seed)
    for key, count in hist.sorted_items():
        print(f"{key if key else chr(34) * 2} {count}")
    return 0


def _cmd_validate(args) -> int:
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    reports = suites.run_suites(names, seed=args.seed, shots=args.shots)
    if args.json:
        print(json.dumps({"reports": [r.to_dict() for r in reports]}, indent=2))
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(f"[{status}] suite {report.suite}: {len(report.cases)} case(s) "
                  f"in {report.wall_time:.2f}s")
            for case in report.cases:
                if not case.passed:
                    print(f"    FAIL {case.name}: metric={case.metric!r} threshold={case.threshold!r}")
    return 0 if all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "transpile":
            code = _cmd_transpile(args)
        elif args.command == "run":
            code = _cmd_run(args)
        else:
            code = _cmd_validate(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except Qasm2CudaqError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`| head`). Point it at devnull, so the
        # flush at exit cannot raise again on the output still buffered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before all output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
