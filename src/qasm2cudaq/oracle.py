"""Brute-force unitary oracle used for differential testing.

Builds the full 2^n x 2^n matrix of a static kernel as an ordered product of
full-space gate matrices. The gate table here is written independently of
the simulator's so the two sides of every differential check cannot share a
defect. Both follow one convention: rz(th) = diag(e^{-i th/2}, e^{+i th/2}),
p(th) = diag(1, e^{i th}), u(th, ph, la) is the standard-library 3-angle
gate [[c, -e^{i la} s], [e^{i ph} s, e^{i (ph + la)} c]] with c, s the
cosine and sine of th/2, and the adjoint flag takes the conjugate transpose.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DimensionMismatch, DynamicCircuit, TooLarge
from .kir import CondBlock, Gate, Kernel, Measure, Nop, Reset
from .sim import StateVector, resolve_angles

ORACLE_MAX_QUBITS = 8


def _base_matrix(op: Gate, params: tuple[float, ...]) -> np.ndarray:
    """Gate unitary from scratch (kept separate from sim.gate_matrix)."""
    base = op.base
    angles = resolve_angles(op, params)
    rt2 = math.sqrt(0.5)
    if base == "x":
        mat = np.array([[0, 1], [1, 0]], complex)
    elif base == "y":
        mat = np.array([[0, -1j], [1j, 0]], complex)
    elif base == "z":
        mat = np.diag([1, -1]).astype(complex)
    elif base == "h":
        mat = rt2 * np.array([[1, 1], [1, -1]], complex)
    elif base == "s":
        mat = np.diag([1, 1j]).astype(complex)
    elif base == "t":
        mat = np.diag([1, cmath.exp(0.25j * math.pi)]).astype(complex)
    elif base == "sx":
        mat = np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]], complex)
    elif base == "rx":
        half = angles[0] / 2
        mat = np.array(
            [[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]],
            complex,
        )
    elif base == "ry":
        half = angles[0] / 2
        mat = np.array(
            [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]], complex
        )
    elif base == "rz":
        half = angles[0] / 2
        mat = np.diag([cmath.exp(-1j * half), cmath.exp(1j * half)]).astype(complex)
    elif base == "p":
        mat = np.diag([1, cmath.exp(1j * angles[0])]).astype(complex)
    elif base == "u":
        th, ph, la = angles
        c, s = math.cos(th / 2), math.sin(th / 2)
        mat = np.array(
            [[c, -cmath.exp(1j * la) * s], [cmath.exp(1j * ph) * s, cmath.exp(1j * (ph + la)) * c]],
            complex,
        )
    elif base == "swap":
        mat = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    else:
        raise DynamicCircuit(f"no oracle matrix for gate '{base}'")
    if op.adjoint:
        mat = mat.conj().T
    return mat


def full_gate_matrix(n: int, op: Gate, params: tuple[float, ...] = ()) -> np.ndarray:
    """Embed a gate into the full 2^n space, controls as block structure.

    Index convention matches the simulator: qubit k is bit k of the basis
    index, and targets[0] is the high bit of the small-matrix index.
    """
    mat = _base_matrix(op, params)
    k = len(op.targets)
    dim = 1 << n
    idx = np.arange(dim)
    ctrl_ok = np.ones(dim, dtype=bool)
    for q, pol in op.controls:
        ctrl_ok &= ((idx >> q) & 1) == pol
    tbits = np.zeros(dim, dtype=np.int64)
    for j, q in enumerate(op.targets):
        tbits |= ((idx >> q) & 1) << (k - 1 - j)
    full = np.zeros((dim, dim), dtype=complex)
    full[idx[~ctrl_ok], idx[~ctrl_ok]] = 1.0
    for mi in range(1 << k):
        for mj in range(1 << k):
            if mat[mi, mj] == 0:
                continue
            cols = idx[ctrl_ok & (tbits == mj)]
            rows = cols.copy()
            for j, q in enumerate(op.targets):
                bit = (mi >> (k - 1 - j)) & 1
                rows = (rows & ~(1 << q)) | (bit << q)
            full[rows, cols] += mat[mi, mj]
    return full


def oracle_unitary(kernel: Kernel, params: tuple[float, ...] = ()) -> np.ndarray:
    """Ordered product of full-space gate matrices for a static kernel."""
    if kernel.qubit_count > ORACLE_MAX_QUBITS:
        raise TooLarge(
            f"oracle limited to {ORACLE_MAX_QUBITS} qubits, kernel has {kernel.qubit_count}"
        )
    unitary = np.eye(1 << kernel.qubit_count, dtype=complex)
    for op in kernel.body:
        if isinstance(op, Nop):
            continue
        if isinstance(op, (Measure, CondBlock, Reset)):
            raise DynamicCircuit(f"oracle_unitary requires a static kernel, found {type(op).__name__}")
        unitary = full_gate_matrix(kernel.qubit_count, op, params) @ unitary
    return unitary


def fidelity_up_to_global_phase(a, b) -> float:
    """|<a|b>|^2 for unit vectors; insensitive to a global phase."""
    va = a.amps if isinstance(a, StateVector) else np.asarray(a)
    vb = b.amps if isinstance(b, StateVector) else np.asarray(b)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"state dimensions differ: {va.shape} vs {vb.shape}")
    return float(abs(np.vdot(va, vb)) ** 2)
