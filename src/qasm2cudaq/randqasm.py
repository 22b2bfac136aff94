"""Seeded random OpenQASM 3.0 source generation for differential testing.

Circuits are tracked as abstract gate lists so an exact inverse program can
be appended for uncompute checks. Clifford mode draws from {h, s, cx};
spelling variation (named gates vs modifier forms) and a custom gate
definition, which about one `cx` draw in ten calls, exercise the frontend
without changing the unitary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_CUSTOM_GATE = "gate pair a, b { h a; cx a, b; }"


@dataclass
class RandomCircuitSpec:
    qubits: int  # 2..20
    gate_count: int  # 10..100
    seed: int
    clifford_only: bool = True


def _spell(rng: random.Random, op: tuple) -> str:
    kind = op[0]
    if kind == "h":
        return f"h q[{op[1]}];"
    if kind == "s":
        if rng.random() < 0.25:
            return f"inv @ sdg q[{op[1]}];"
        return f"s q[{op[1]}];"
    if kind == "sdg":
        if rng.random() < 0.25:
            return f"inv @ s q[{op[1]}];"
        return f"sdg q[{op[1]}];"
    if kind == "cx":
        if rng.random() < 0.25:
            return f"ctrl @ x q[{op[1]}], q[{op[2]}];"
        return f"cx q[{op[1]}], q[{op[2]}];"
    if kind == "pair":
        return f"pair q[{op[1]}], q[{op[2]}];"
    if kind == "pair_inv":
        return f"inv @ pair q[{op[1]}], q[{op[2]}];"
    if kind in ("rx", "ry", "rz"):
        return f"{kind}({op[2]!r}) q[{op[1]}];"
    raise ValueError(f"unknown abstract op {op!r}")


def _invert(op: tuple) -> list[tuple]:
    kind = op[0]
    if kind in ("h", "cx"):
        return [op]
    if kind == "s":
        return [("sdg", op[1])]
    if kind == "sdg":
        return [("s", op[1])]
    if kind == "pair":
        return [("pair_inv", op[1], op[2])]
    if kind == "pair_inv":
        return [("pair", op[1], op[2])]
    if kind in ("rx", "ry", "rz"):
        return [(kind, op[1], -op[2])]
    raise ValueError(f"unknown abstract op {op!r}")


def _draw_ops(spec: RandomCircuitSpec, rng: random.Random) -> list[tuple]:
    gates = ["h", "s", "cx"] if spec.clifford_only else ["h", "s", "cx", "rx", "ry", "rz"]
    ops: list[tuple] = []
    while len(ops) < spec.gate_count:
        kind = rng.choice(gates)
        if kind == "cx":
            a, b = rng.sample(range(spec.qubits), 2)
            if rng.random() < 0.1:
                ops.append(("pair", a, b))
            else:
                ops.append(("cx", a, b))
        elif kind in ("rx", "ry", "rz"):
            ops.append((kind, rng.randrange(spec.qubits), round(rng.uniform(-3.14, 3.14), 6)))
        else:
            ops.append((kind, rng.randrange(spec.qubits)))
    return ops


def _render(spec: RandomCircuitSpec, ops: list[tuple], rng: random.Random) -> str:
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    if any(op[0].startswith("pair") for op in ops):
        lines.append(_CUSTOM_GATE)
    lines.append(f"qubit[{spec.qubits}] q;")
    lines.extend(_spell(rng, op) for op in ops)
    return "\n".join(lines) + "\n"


def generate(spec: RandomCircuitSpec) -> str:
    """Random measurement-free circuit as OpenQASM source text."""
    rng = random.Random(spec.seed)
    return _render(spec, _draw_ops(spec, rng), rng)


def generate_with_inverse(spec: RandomCircuitSpec) -> str:
    """Circuit followed by its exact inverse; simulating it must return to |0...0>."""
    rng = random.Random(spec.seed)
    ops = _draw_ops(spec, rng)
    inverse: list[tuple] = []
    for op in reversed(ops):
        inverse.extend(_invert(op))
    return _render(spec, ops + inverse, rng)
