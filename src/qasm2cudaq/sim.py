"""Dense state-vector simulator with per-shot trajectories.

Basis indexing is little-endian: qubit k is bit k of the amplitude index.
Histogram keys render each classical register MSB-first (bit 0 leftmost,
matching OpenQASM bitstring-literal order) and concatenate registers in
declaration order.

Gate kernels work on views of the state. The amplitude vector is reshaped so
that each qubit a gate touches gets its own length-2 axis, with each run of
untouched qubits merged into one axis: for touched qubits a > b the shape is
(2^(n-1-a), 2, 2^(a-1-b), 2, 2^b). Indexing those axes fixes the control
bits and selects the target slices, all views. The matrix entries pick the
kernel. A matrix with one nonzero per row (diagonal gates such as z, s, t,
rz, p, cp, and permutations such as x, y, cx, swap) scales slices in place,
skipping factors of exactly 1, and moves them along each permutation cycle
while one slice is held aside. Any other matrix is a dense 2x2, applied by
one matrix product over the target axis; a matrix with no imaginary part
(h, ry, or a real product of them) is one real product over the float64
view of the state, where the real and imaginary parts of an amplitude are
adjacent doubles. `apply_gate` does all this in place, holding a cycle's
slice in a fresh copy. The planned build below also has one spare buffer
the size of the state, made at its first gate and dropped at its end: an
uncontrolled dense product is written into the spare, which then holds the
state while the old amplitudes become the spare, and each permutation
cycle holds its slice there, so no pass allocates. The shared matrices in
`_FIXED_1Q` are never written in place.

`statevector` and the static sampler build the final state by one plan,
exact up to rounding because gates on disjoint qubits commute. One-qubit
gates on a qubit before its first multi-qubit gate (all of them, on a qubit
never entangled) move to the front: each qubit's gates are multiplied into
its column on |0>, and the state starts as the outer product of the columns.
Past that prefix each qubit keeps one pending 2x2 product of its one-qubit
gates. Runs of diagonal gates (the z, s, t, rz and p bases, with any adjoint
flag and controls, so cz, cp and crz too) are multiplied into one phase
table over at most `_PHASE_QUBITS` qubits, applied by one broadcast multiply
over a view that merges adjacent qubits into long axes. A qubit is pending
or in the table, never both: a diagonal gate first applies the pending
products of its qubits, and a non-diagonal gate on a table qubit, or a
diagonal gate that would outgrow the cap, first applies the table. At the
end the products still pending are applied by windows of up to `_WINDOW`
adjacent qubits: the Kronecker product of a window's pending matrices and
identities is one 2^k product over the window's qubits as one axis, through
the same fold or batched route and the spare buffer as a 2x2.

Sampling is bit-identical per shot: shot s draws from its own xoshiro256++
stream, row s of `ShotStreams(seed, shots)`, one draw per measure or reset
it executes, in program order, so a histogram depends only on (seed, shots)
and never on the worker count. `ShotStreams` holds the streams of many shots
as uint64 arrays and advances any subset of them at once; `RngStream` is one
row of it. The classical bits of a shot are one int mask whose binary form
is its histogram key. A static kernel is simulated once and every shot takes
one draw, the first of its stream, against the cumulative distribution. That
draw reads two of the four state words, so `_first_draws` computes it from
the seed without building the streams, and the draws are searched over the
running sums of the nonzero probabilities alone. A dynamic kernel is walked
depth first over a flattened body (each CondBlock becomes a conditional
jump) by groups of shots that share one state and one classical mask, so
gates and predicates run once per group. At a measure or reset the group
draws for all its shots against one p1 and splits into at most two branches.
The branch with fewer shots is walked first and the other waits, holding a
state copy while the live states fit in `_BRANCH_BYTES`; past that budget it
keeps only its shot indices and is replayed later from |0...0> with fresh
streams, on which its shots draw the same values and so retrace the same
path. Walking the smaller branch first keeps at most log2(chunk) branches
waiting. Shots are taken in chunks of `_SHOT_CHUNK` consecutive indices, so
no array grows with the shot count. `run_trajectory` is the one-shot case of
the same walk: one row, which never splits.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import BadPauliString, DegenerateNorm, DynamicCircuit, SimError, TooLarge
from .kir import BoundKernel, CondBlock, Gate, Kernel, Measure, Nop, Reset
from .sema import ParamRef

# ---------------------------------------------------------------------------
# RNG: xoshiro256++ seeded via splitmix64; shot s derives its own stream.
# ---------------------------------------------------------------------------

# Every constant and shift count is a np.uint64, so arithmetic stays in
# wrapping uint64 under both the value-based casting of NumPy 1.x and the
# NEP 50 casting of 2.x (a Python int beside a uint64 scalar became float64
# under 1.x).
_MASK = (1 << 64) - 1
_U = np.uint64
_GOLDEN_U = _U(0x9E3779B97F4A7C15)
_MIX1 = _U(0xBF58476D1CE4E5B9)
_MIX2 = _U(0x94D049BB133111EB)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of each entry of z, in place; tmp is scratch
    of z's shape. Returns z."""
    for shift, mul in ((_U(30), _MIX1), (_U(27), _MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mul
    np.right_shift(z, _U(31), out=tmp)
    z ^= tmp
    return z


def _splitmix64_vec(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    state = state + _GOLDEN_U
    return state, _mix64(state.copy(), np.empty_like(state))


def _rotl_vec(x: np.ndarray, k: int) -> np.ndarray:
    return (x << _U(k)) | (x >> _U(64 - k))


class ShotStreams:
    """xoshiro256++ streams as uint64 state arrays, one per row; row i is
    the stream of shot shots[i], RngStream.for_shot(seed, shots[i])."""

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int, shots: np.ndarray):
        offsets = (np.asarray(shots).astype(np.uint64) + _U(1)) * _GOLDEN_U
        _, seeds = _splitmix64_vec(_U(seed & _MASK) + offsets)
        self._seed(seeds)

    def _seed(self, state: np.ndarray) -> None:
        """Seed row i by splitmix64 from state[i]."""
        state, self.s0 = _splitmix64_vec(state)
        state, self.s1 = _splitmix64_vec(state)
        state, self.s2 = _splitmix64_vec(state)
        state, self.s3 = _splitmix64_vec(state)

    def uniform(self, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Next uniform double in [0, 1), with 53 random bits, of each given
        row; the other rows do not advance."""
        s0, s1, s2, s3 = self.s0[rows], self.s1[rows], self.s2[rows], self.s3[rows]
        result = _rotl_vec(s0 + s3, 23) + s0
        t = s1 << _U(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        self.s0[rows], self.s1[rows], self.s2[rows], self.s3[rows] = s0, s1, s2, _rotl_vec(s3, 45)
        return (result >> _U(11)).astype(np.float64) * 2.0**-53


_GOLDEN4_U = _U((4 * 0x9E3779B97F4A7C15) & _MASK)


def _first_draws(seed: int, shots: np.ndarray) -> np.ndarray:
    """ShotStreams(seed, shots).uniform(), the first draw of each shot's
    stream, without the streams. That draw reads only the state words s0
    and s3, the first and fourth splitmix64 outputs from the row's seed, so
    it takes three mixes (the seed, s0, s3) where seeding takes five, all
    in place."""
    z = shots.astype(np.uint64)
    z += _U(2)  # ShotStreams mixes seed + (shot + 1) * golden after one more step
    z *= _GOLDEN_U
    z += _U(seed & _MASK)
    tmp = np.empty_like(z)
    seeds = _mix64(z, tmp)
    s3 = _mix64(seeds + _GOLDEN4_U, tmp)
    seeds += _GOLDEN_U
    s0 = _mix64(seeds, tmp)
    s3 += s0  # the output: rotl(s0 + s3, 23) + s0
    np.left_shift(s3, _U(23), out=tmp)
    s3 >>= _U(41)
    s3 |= tmp
    s3 += s0
    s3 >>= _U(11)
    # below 2^53 the int64 view converts exactly, and far faster than uint64
    return np.multiply(s3.view(np.int64), 2.0**-53, out=tmp.view(np.float64))


class RngStream:
    """One xoshiro256++ stream: a ShotStreams of one row, seeded from `seed`
    itself. (seed, shot) fully determines the stream of for_shot."""

    __slots__ = ("_row",)

    def __init__(self, seed: int):
        self._row = ShotStreams.__new__(ShotStreams)
        self._row._seed(np.array([seed & _MASK], dtype=np.uint64))

    @classmethod
    def for_shot(cls, seed: int, shot: int) -> "RngStream":
        rng = cls.__new__(cls)
        rng._row = ShotStreams(seed, np.array([shot]))
        return rng

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return float(self._row.uniform()[0])


# ---------------------------------------------------------------------------
# Simulator state
# ---------------------------------------------------------------------------

MAX_SIM_QUBITS = 28  # a 4 GiB complex128 state


def _check_width(n: int) -> None:
    if n > MAX_SIM_QUBITS:
        raise TooLarge(f"simulator limited to {MAX_SIM_QUBITS} qubits, kernel has {n}")


@dataclass
class StateVector:
    n: int
    amps: np.ndarray

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        _check_width(n)
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n, amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.amps.real**2 + self.amps.imag**2)))

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amps.copy())


class _Layout:
    """The classical bits of a shot as one int mask, whose binary form with
    `bits` digits is the histogram key: registers in declaration order, each
    MSB-first (bit 0 leftmost). Register `name` is the field of `width` bits
    at `shift`, fields[name] = (shift, width), so the field read as an
    unsigned integer is the register's value with bit 0 most significant."""

    def __init__(self, registers: list[tuple[str, int]]):
        self.bits = sum(width for _, width in registers)
        self.fields: dict[str, tuple[int, int]] = {}
        shift = self.bits
        for name, width in registers:
            shift -= width
            self.fields[name] = (shift, width)

    def field(self, register: str, index: int | None) -> tuple[int, int]:
        """(shift, width) of the whole register, or of its bit `index`."""
        shift, width = self.fields[register]
        return (shift, width) if index is None else (shift + width - 1 - index, 1)

    def key(self, mask: int) -> str:
        return format(mask, f"0{self.bits}b") if self.bits else ""


@dataclass
class ShotHistogram:
    counts: dict[str, int]
    total_shots: int

    def sorted_items(self) -> list[tuple[str, int]]:
        return sorted(self.counts.items())

    def probability(self, key: str) -> float:
        return self.counts.get(key, 0) / self.total_shots


# ---------------------------------------------------------------------------
# Gate matrices (rz = diag(e^{-i th/2}, e^{+i th/2}); u is the standard-library
# 3-angle single-qubit gate)
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q: dict[str, np.ndarray] = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "h": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=np.complex128),
    "s": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=np.complex128),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=np.complex128),
}

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def _rotation(base: str, angles: tuple[float, ...]) -> np.ndarray:
    if base == "rx":
        (th,) = angles
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if base == "ry":
        (th,) = angles
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if base == "rz":
        (th,) = angles
        return np.array(
            [[np.exp(-0.5j * th), 0], [0, np.exp(0.5j * th)]], dtype=np.complex128
        )
    if base == "p":
        (th,) = angles
        return np.array([[1, 0], [0, np.exp(1j * th)]], dtype=np.complex128)
    if base == "u":
        th, ph, la = angles
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array(
            [
                [c, -np.exp(1j * la) * s],
                [np.exp(1j * ph) * s, np.exp(1j * (ph + la)) * c],
            ],
            dtype=np.complex128,
        )
    raise SimError(f"no matrix for gate '{base}'")


def resolve_angles(op: Gate, params: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(params[a.slot] if isinstance(a, ParamRef) else a for a in op.angles)


def gate_matrix(op: Gate, params: tuple[float, ...] = ()) -> np.ndarray:
    """Unitary of the canonical gate on its targets (controls excluded)."""
    if op.base in _FIXED_1Q:
        mat = _FIXED_1Q[op.base]
    elif op.base == "swap":
        mat = _SWAP
    else:
        mat = _rotation(op.base, resolve_angles(op, params))
    if op.adjoint:
        mat = mat.conj().T
    return mat


def _qubit_axes(
    amps: np.ndarray, n: int, qubits: tuple[int, ...]
) -> tuple[np.ndarray, dict[int, int]]:
    """View of amps with one length-2 axis per listed qubit and each run of
    other qubits merged into one axis; returns the view and each qubit's axis."""
    shape: list[int] = []
    axis: dict[int, int] = {}
    above = n
    for q in sorted(qubits, reverse=True):
        shape += (1 << (above - 1 - q), 2)
        axis[q] = len(shape) - 1
        above = q
    shape.append(1 << above)
    return amps.reshape(shape), axis


def _scaled_copy(dst: np.ndarray, src: np.ndarray, factor: complex) -> None:
    if factor == 1:
        np.copyto(dst, src)
    else:
        np.multiply(src, factor, out=dst)


def _permute(
    slices: list[np.ndarray], factors: list[complex], src: list[int], spare: np.ndarray | None = None
) -> None:
    """slices[i] <- factors[i] * old slices[src[i]], src a permutation.

    Fixed points scale in place (skipped for a factor of exactly 1); each
    longer cycle holds one slice, in the front of `spare` when given, else
    in a fresh copy."""
    moved: set[int] = set()
    for start, first in enumerate(src):
        if start in moved:
            continue
        if first == start:
            if factors[start] != 1:
                slices[start] *= factors[start]
            continue
        if spare is None:
            held = slices[start].copy()
        else:
            held = spare[: slices[start].size].reshape(slices[start].shape)
            np.copyto(held, slices[start])
        i = start
        while src[i] != start:
            moved.add(i)
            _scaled_copy(slices[i], slices[src[i]], factors[i])
            i = src[i]
        moved.add(i)
        _scaled_copy(slices[i], held, factors[i])


# With this many amplitudes or fewer under the target, a batched product
# runs one tiny matrix per run; folding the run into the matrix makes it one
# product over whole rows. A real matrix folds only runs up to _REAL_FOLD_RUN:
# past that its product over the float64 view, whose runs are twice as long,
# is faster than a fold. No fold is wider than 2 * _FOLD_RUN, so a window's
# 2^k matrix folds only shorter runs (at n=16, a real 16x16 product over runs
# of 4 took 0.94 ms folded against 0.53 ms batched).
_FOLD_RUN = 16
_REAL_FOLD_RUN = 4
_EYES = {1 << k: np.eye(1 << k) for k in range(_FOLD_RUN.bit_length())}  # runs are powers of 2


def _dense(sub: np.ndarray, axis: int, mat: np.ndarray, out: np.ndarray | None = None) -> None:
    """mat along `axis` of a controls-fixed view, through one matrix product
    written into `out` (a view of another buffer, shaped like `sub`), or
    back into `sub` when there is none. The axis is one target qubit, or a
    window of adjacent ones for a 2^k matrix (swap, the one multi-target
    base, is a permutation and never gets here)."""
    run, width = sub.shape[-1], mat.shape[0]
    real = not mat.imag.any()
    if axis == sub.ndim - 2 and run <= (_REAL_FOLD_RUN if real else _FOLD_RUN) and width * run <= 2 * _FOLD_RUN:
        # targets just above the contiguous run: rows of width*run
        # amplitudes times kron(mat, I_run)^T
        shape = sub.shape[:-2] + (width * run,)
        rows = sub.reshape(shape)
        fold = (mat[:, None, :, None] * _EYES[run][:, None, :]).reshape(width * run, width * run)
        if out is None:
            rows[...] = rows @ fold.T
        else:
            np.matmul(rows, fold.T, out=out.reshape(shape))
        return
    if real:
        # re and im of each amplitude are adjacent doubles of the last axis
        mat, sub = mat.real, sub.view(np.float64)
        out = None if out is None else out.view(np.float64)
    pairs = np.moveaxis(sub, axis, -2)
    if out is None:
        pairs[...] = mat @ pairs
    else:
        np.matmul(mat, pairs, out=np.moveaxis(out, axis, -2))


def _apply_unitary(
    state: StateVector,
    mat: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[tuple[int, int], ...],
    spare: np.ndarray | None = None,
) -> np.ndarray | None:
    """Apply a 2^k unitary on target qubits, restricted to basis states where
    every control qubit matches its polarity; targets[0] is the matrix's high
    bit. Works on views, choosing the kernel from the entries, and returns
    the spare buffer.

    Without `spare` every kernel works in place. With it, a free buffer the
    size of the state, an uncontrolled dense product is written into the
    spare, which becomes the state's amplitudes while the old amplitudes
    become the spare, and each permutation cycle holds its slice there."""
    view, axis = _qubit_axes(state.amps, state.n, targets + tuple(q for q, _ in controls))
    index: list = [slice(None)] * view.ndim
    for q, pol in controls:
        index[axis[q]] = slice(pol, pol + 1)  # keeps the axis, so axis[] stays valid
    rows = mat.tolist()
    nonzero = [[j for j, v in enumerate(row) if v != 0] for row in rows]
    if not all(len(cols) == 1 for cols in nonzero):
        if controls or spare is None:
            _dense(view[tuple(index)], axis[targets[0]], mat)
            return spare
        _dense(view, axis[targets[0]], mat, spare.reshape(view.shape))
        state.amps, spare = spare, state.amps
        return spare
    k = len(targets)
    slices = []
    for i in range(1 << k):
        for j, q in enumerate(targets):
            index[axis[q]] = (i >> (k - 1 - j)) & 1
        slices.append(view[tuple(index)])
    src = [cols[0] for cols in nonzero]
    _permute(slices, [row[j] for row, j in zip(rows, src)], src, spare)
    return spare


def apply_gate(state: StateVector, op: Gate, params: tuple[float, ...] = ()) -> StateVector:
    """Apply one canonical gate op in place; returns the same StateVector."""
    _apply_unitary(state, gate_matrix(op, params), op.targets, op.controls)
    return state


def _halves(state: StateVector, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Float64 views of the amplitudes with the qubit at 0 and at 1."""
    pairs = state.amps.view(np.float64).reshape(-1, 2, 2 << qubit)
    return pairs[:, 0], pairs[:, 1]


# Qubits 0 and 1 have halves whose runs are 2 and 4 doubles long, too short
# for strided passes; they are read and projected through whole rows of
# _ROW_AMPS amplitudes instead (at n=20 a strided pass over qubit 2 is as
# fast, and a projection through rows of 128 took 20% less than through 8).
_ROW_AMPS = 128
_ROW_BELOW = 2


@functools.cache
def _row_projector(qubit: int, outcome: int) -> tuple[np.ndarray, np.ndarray]:
    """Over one row of _ROW_AMPS amplitudes as doubles: 1.0 where `qubit`
    reads `outcome` and 0.0 elsewhere, and the addend that turns the dropped
    products (x * 0.0 is -0.0 for negative x) into +0.0 while leaving every
    kept product as it is (-0.0 added)."""
    keep = (np.arange(2 * _ROW_AMPS) >> (qubit + 1)) & 1 == outcome
    ones, fix = keep.astype(np.float64), np.where(keep, -0.0, 0.0)
    ones.flags.writeable = fix.flags.writeable = False
    return ones, fix


def _rows(state: StateVector, qubit: int) -> np.ndarray | None:
    """The float64 view as rows of _ROW_AMPS amplitudes, for a qubit read
    through rows; None for the strided halves."""
    if qubit < _ROW_BELOW and state.amps.size >= _ROW_AMPS:
        return state.amps.view(np.float64).reshape(-1, 2 * _ROW_AMPS)
    return None


def _p1(state: StateVector, qubit: int) -> float:
    rows = _rows(state, qubit)
    if rows is not None:  # column sums of squares, then the qubit's columns
        return float(np.einsum("ij,ij->j", rows, rows) @ _row_projector(qubit, 1)[0])
    _, one = _halves(state, qubit)
    return float(np.einsum("ij,ij->", one, one))


# ---------------------------------------------------------------------------
# The walk: groups of shots that share one state and one classical mask
# ---------------------------------------------------------------------------

# Live states one walk may hold; a waiting branch past this is replayed.
_BRANCH_BYTES = 1 << 28
# Consecutive shots walked (or drawn, on the static path) together.
_SHOT_CHUNK = 1 << 16


_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "truthy": lambda value, _: value != 0,
}


@dataclass(frozen=True)
class _Branch:
    """Head of a flattened CondBlock: fall through into the then-body when
    compare((mask >> shift) & ones, rhs) holds, else continue at `orelse`."""

    shift: int
    ones: int
    compare: Callable[[int, int], bool]
    rhs: int
    orelse: int


@dataclass(frozen=True)
class _Write:
    """A flattened Measure, whose outcome lands on `bit` of the mask."""

    qubit: int
    bit: int


@dataclass(frozen=True)
class _Jump:
    to: int


def _flatten(ops: list, layout: _Layout, out: list | None = None) -> list:
    """Ops with every Measure replaced by a _Write and every CondBlock by a
    _Branch, its then-body, a _Jump over the else-body (when there is one),
    and its else-body."""
    out = [] if out is None else out
    for op in ops:
        if isinstance(op, Measure):
            out.append(_Write(op.qubit, 1 << layout.field(*op.bit)[0]))
            continue
        if not isinstance(op, CondBlock):
            out.append(op)
            continue
        head = len(out)
        out.append(None)
        _flatten(op.then_body, layout, out)
        orelse = len(out)
        if op.else_body:
            out.append(None)  # becomes the _Jump over the else-body
            orelse += 1
            _flatten(op.else_body, layout, out)
            out[orelse - 1] = _Jump(len(out))
        pred = op.predicate
        shift, width = layout.field(pred.register, pred.index)
        out[head] = _Branch(shift, (1 << width) - 1, _COMPARE[pred.comparator], pred.rhs, orelse)
    return out


@dataclass
class _Group:
    """Shots (rows of the draw source) at program position pc with the
    classical mask `mask`; a group with no state waits to be replayed from
    |0...0>."""

    pc: int
    state: StateVector | None
    mask: int
    rows: np.ndarray


def _settle(state: StateVector, mask: int, op, outcome: int, p1: float) -> int:
    """Finish a _Write or Reset that read `outcome`, where `p1` is the
    probability of reading 1: project the qubit onto the outcome and
    renormalize, then record it on the mask, or for a reset that read 1 move
    the bit-1 half into the bit-0 half. Returns the new mask."""
    p_outcome = p1 if outcome == 1 else 1.0 - p1
    if p_outcome < 1e-15:
        raise DegenerateNorm(
            f"selected measurement branch {outcome} on qubit {op.qubit} has probability {p_outcome}"
        )
    scale = 1.0 / math.sqrt(p_outcome)
    rows = _rows(state, op.qubit)
    if rows is not None:
        keep, fix = _row_projector(op.qubit, outcome)
        rows *= keep * scale
        rows += fix
    else:
        zero, one = _halves(state, op.qubit)
        kept, dropped = (one, zero) if outcome == 1 else (zero, one)
        dropped[...] = 0.0
        kept *= scale
    if isinstance(op, _Write):
        return mask | op.bit if outcome else mask & ~op.bit
    if outcome == 1:
        zero, one = _halves(state, op.qubit)
        zero[...] = one
        one[...] = 0.0
    return mask


def _walk(program: list, params: tuple[float, ...], root: _Group, draw):
    """Run `root` to the end of the flattened program, depth first. Yields
    every finished group, and every waiting branch that did not fit the
    byte budget as a stateless group. `draw(rows)` returns the next uniform
    of each row."""
    pending = [root]
    state_bytes = root.state.amps.nbytes
    live = 1
    while pending:
        group = pending.pop()
        pc, state, mask, rows = group.pc, group.state, group.mask, group.rows
        while pc < len(program):
            op = program[pc]
            pc += 1
            if isinstance(op, Gate):
                apply_gate(state, op, params)
            elif isinstance(op, (_Write, Reset)):
                p1 = _p1(state, op.qubit)
                hit = draw(rows) < p1
                outcome = int(hit[0])
                if hit.any() != hit.all():  # both outcomes occur: split
                    ones, zeros = rows[hit], rows[~hit]
                    if ones.size < zeros.size:
                        rows, outcome, later, other = ones, 1, zeros, 0
                    else:
                        rows, outcome, later, other = zeros, 0, ones, 1
                    if (live + 1) * state_bytes <= _BRANCH_BYTES:
                        copy = state.copy()
                        pending.append(_Group(pc, copy, _settle(copy, mask, op, other, p1), later))
                        live += 1
                    else:
                        yield _Group(pc, None, 0, later)
                mask = _settle(state, mask, op, outcome, p1)
            elif isinstance(op, _Branch):
                if not op.compare((mask >> op.shift) & op.ones, op.rhs):
                    pc = op.orelse
            elif isinstance(op, _Jump):
                pc = op.to
            elif not isinstance(op, Nop):
                raise SimError(f"unknown op {op!r}")
        yield _Group(pc, state, mask, rows)
        live -= 1


def _one_shot(state: StateVector, program: list, params: tuple[float, ...], rng: RngStream) -> int:
    """Run a flattened program on `state` in place as one shot drawing from
    `rng`: the walk with a single row, which never splits. Returns the mask."""
    root = _Group(0, state, 0, np.zeros(1, dtype=np.intp))
    (end,) = _walk(program, params, root, lambda rows: np.array([rng.uniform()]))
    return end.mask


def measure(state: StateVector, qubit: int, rng: RngStream) -> int:
    """Projective Z measurement: collapse and renormalize; returns the outcome."""
    return _one_shot(state, [_Write(qubit, 1)], (), rng)


def reset(state: StateVector, qubit: int, rng: RngStream) -> StateVector:
    """Force a qubit to |0>: measure, then move the bit-1 half into the bit-0
    half if the outcome was 1."""
    _one_shot(state, [Reset(qubit)], (), rng)
    return state


def run_trajectory(bound: BoundKernel, rng: RngStream) -> tuple[str, StateVector]:
    """Execute one stochastic shot drawing from `rng`; returns its histogram
    key and final state."""
    kernel = bound.kernel
    layout = _Layout(kernel.classical_layout)
    state = StateVector.zero(kernel.qubit_count)
    return layout.key(_one_shot(state, _flatten(kernel.body, layout), bound.values, rng)), state


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _needs_trajectories(kernel: Kernel) -> bool:
    """True when shots are path-dependent: any feedforward, any reset, any
    operation after a measurement, or a re-measured qubit."""
    measured: set[int] = set()
    for op in kernel.body:
        if isinstance(op, (CondBlock, Reset)):
            return True
        if isinstance(op, Measure):
            if op.qubit in measured:
                return True
            measured.add(op.qubit)
        elif isinstance(op, Gate) and measured:
            return True
    return False


# Bases whose matrix is diagonal under any adjoint flag and any controls.
_DIAGONAL = frozenset("z s t rz p".split())
# Most qubits one phase table spans: 2^12 complex entries stay in cache.
_PHASE_QUBITS = 12
_KET0 = np.array([1, 0], dtype=np.complex128)
# Most adjacent qubits whose pending products finish as one product. A
# window of 4 is a 16x16 product, one pass where four passes took 2-7 times
# as long (n=13 to 20, one BLAS thread).
_WINDOW = 4


def _product_state(columns: list[np.ndarray]) -> np.ndarray:
    """Amplitudes of the product state with qubit k in state columns[k];
    the two halves of the qubits are built apart and joined by one outer
    product, so its inner loop runs over 2^(n/2) amplitudes."""
    if len(columns) <= 1:
        return columns[0].copy() if columns else np.ones(1, dtype=np.complex128)
    mid = len(columns) // 2
    return np.multiply.outer(_product_state(columns[mid:]), _product_state(columns[:mid])).ravel()


def _apply_phases(state: StateVector, qubits: list[int], table: np.ndarray) -> None:
    """Multiply every amplitude by table[bits of qubits], axis i of the
    table being qubits[i], in one broadcast pass. The view merges each run
    of adjacent qubits inside or outside the table into one axis; the table
    is first widened over the lowest qubits so the innermost run spans at
    least `_FOLD_RUN` amplitudes."""
    low = range(min(state.n, _FOLD_RUN.bit_length() - 1))
    if min(qubits) < len(low):
        extra = [q for q in low if q not in qubits]
        table = np.broadcast_to(table.reshape(table.shape + (1,) * len(extra)), table.shape + (2,) * len(extra))
        qubits = qubits + extra
    order = sorted(range(len(qubits)), key=lambda i: -qubits[i])
    table = table.transpose(order)
    inside = set(qubits)
    view_shape: list[int] = []
    table_shape: list[int] = []
    q = state.n - 1
    while q >= 0:
        top, member = q, q in inside
        while q >= 0 and (q in inside) == member:
            q -= 1
        view_shape.append(1 << (top - q))
        table_shape.append(view_shape[-1] if member else 1)
    view = state.amps.reshape(view_shape)
    view *= table.reshape(table_shape)


class _GateBuild:
    """Applies gates to a state with two deferrals. Each qubit may hold a
    pending one-qubit product; a phase table holds the product of a run of
    diagonal gates on at most `_PHASE_QUBITS` qubits. No qubit is in both,
    so the two commute and can be flushed in any order. Gates run through
    one spare buffer of the state's size, so `state.amps` may be a new
    array after any gate; `finish` drops the spare."""

    def __init__(self, state: StateVector):
        self.state = state
        self.pending: dict[int, np.ndarray] = {}
        self.table_qubits: list[int] = []  # axis i of the table is table_qubits[i]
        self.table = np.ones((), dtype=np.complex128)
        self.spare: np.ndarray | None = None  # made by the first gate applied

    def gate(self, op: Gate, mat: np.ndarray) -> None:
        qubits = op.targets + tuple(c for c, _ in op.controls)
        diagonal = op.base in _DIAGONAL
        if len(qubits) == 1:
            (q,) = qubits
            if q in self.table_qubits:
                if diagonal:
                    self._phase(mat.diagonal(), q, ())
                    return
                self.flush_table()
            self.pending[q] = mat @ self.pending[q] if q in self.pending else mat
            return
        if diagonal and len(qubits) <= _PHASE_QUBITS:
            if len(set(qubits).union(self.table_qubits)) > _PHASE_QUBITS:
                self.flush_table()
            for q in qubits:
                self._flush_pending(q)
            self._phase(mat.diagonal(), op.targets[0], op.controls)
            return
        if not set(qubits).isdisjoint(self.table_qubits):
            self.flush_table()
        for q in qubits:
            self._flush_pending(q)
        self._apply(mat, op.targets, op.controls)

    def _spare(self) -> np.ndarray:
        if self.spare is None:
            self.spare = np.empty_like(self.state.amps)
        return self.spare

    def _apply(self, mat: np.ndarray, targets: tuple[int, ...], controls: tuple[tuple[int, int], ...]) -> None:
        self.spare = _apply_unitary(self.state, mat, targets, controls, self._spare())

    def _phase(self, diag: np.ndarray, target: int, controls: tuple[tuple[int, int], ...]) -> None:
        """Multiply diag along the target axis of the table, where every
        control matches its polarity."""
        for q in (target, *(c for c, _ in controls)):
            if q not in self.table_qubits:
                self.table_qubits.append(q)
                self.table = np.stack([self.table, self.table], axis=-1)
        axis = {q: i for i, q in enumerate(self.table_qubits)}
        index: list = [slice(None)] * self.table.ndim
        for q, pol in controls:
            index[axis[q]] = slice(pol, pol + 1)
        shape = [1] * self.table.ndim
        shape[axis[target]] = 2
        self.table[tuple(index)] *= diag.reshape(shape)

    def _flush_pending(self, q: int) -> None:
        if q in self.pending:
            self._apply(self.pending.pop(q), (q,), ())

    def flush_table(self) -> None:
        if self.table_qubits:
            _apply_phases(self.state, self.table_qubits, self.table)
            self.table_qubits = []
            self.table = np.ones((), dtype=np.complex128)

    def _flush_window(self, low: int, high: int) -> None:
        """Apply the pending products on qubits low..high as one product,
        the Kronecker product of the pending matrices and identities, over
        the window's qubits as one axis."""
        mat = functools.reduce(np.kron, [self.pending.pop(q, _EYES[2]) for q in range(high, low - 1, -1)])
        view = self.state.amps.reshape(-1, mat.shape[0], 1 << low)
        _dense(view, 1, mat, self._spare().reshape(view.shape))
        self.state.amps, self.spare = self.spare, self.state.amps

    def finish(self) -> StateVector:
        """Apply the table, then the pending products by windows: from the
        lowest pending qubit, every pending qubit less than `_WINDOW` above
        it goes into one product."""
        self.flush_table()
        todo = sorted(self.pending)
        while todo:
            window = [q for q in todo if q < todo[0] + _WINDOW]
            if len(window) == 1:
                self._flush_pending(window[0])
            else:
                self._flush_window(window[0], window[-1])
            todo = todo[len(window) :]
        self.spare = None
        return self.state


def _gates_only_state(bound: BoundKernel) -> StateVector:
    """Final state of the kernel's top-level gates, by one planned build.

    One-qubit gates on a qubit before its first multi-qubit gate (all of
    them on a qubit that is never entangled) commute to the front: they are
    multiplied into that qubit's column on |0>, and the build starts from
    the outer product of the columns. The other gates go through
    `_GateBuild`."""
    n = bound.kernel.qubit_count
    _check_width(n)
    columns = [_KET0] * n
    entangled: set[int] = set()
    rest: list[tuple[Gate, np.ndarray]] = []
    for op in bound.kernel.body:
        if not isinstance(op, Gate):
            continue
        mat = gate_matrix(op, bound.values)
        qubits = op.targets + tuple(c for c, _ in op.controls)
        if len(qubits) == 1 and qubits[0] not in entangled:
            columns[qubits[0]] = mat @ columns[qubits[0]]
        else:
            entangled.update(qubits)
            rest.append((op, mat))
    build = _GateBuild(StateVector(n, _product_state(columns)))
    for op, mat in rest:
        build.gate(op, mat)
    return build.finish()


def _chunks(shots: int):
    for lo in range(0, shots, _SHOT_CHUNK):
        yield np.arange(lo, min(lo + _SHOT_CHUNK, shots), dtype=np.uint64)


def _trajectory_counts(bound: BoundKernel, layout: _Layout, seed: int, shots: int) -> Counter:
    """Final masks of a dynamic kernel's shots, counted, by the walk."""
    kernel = bound.kernel
    program = _flatten(kernel.body, layout)
    masks: Counter = Counter()
    for chunk in _chunks(shots):
        todo = [chunk]
        while todo:
            indices = todo.pop()
            root = _Group(0, StateVector.zero(kernel.qubit_count), 0, np.arange(indices.size))
            for group in _walk(program, bound.values, root, ShotStreams(seed, indices).uniform):
                if group.state is None:
                    todo.append(indices[group.rows])
                else:
                    masks[group.mask] += group.rows.size
    return masks


def _sample_static(bound: BoundKernel, layout: _Layout, seed: int, shots: int) -> Counter:
    """Final masks of a static kernel's shots, counted: one simulation, then
    one draw per shot from the final distribution (proven equivalent to
    trajectories by the oracle suite)."""
    kernel = bound.kernel
    state = _gates_only_state(bound)
    probs = np.square(state.amps.real)
    probs += np.square(state.amps.imag)
    # The inverse CDF over the support alone: adding a zero is exact, so the
    # support's running sums equal the full ones at its entries, and the
    # first full sum past a draw is always one of them. A draw at or past
    # the last sum takes the last basis index, the entry after the support.
    support = np.flatnonzero(probs)
    cum = np.cumsum(probs[support])
    basis = np.append(support, probs.size - 1)
    hits = np.zeros(basis.size, dtype=np.int64)
    for chunk in _chunks(shots):
        hits += np.bincount(np.searchsorted(cum, _first_draws(seed, chunk), side="right"), minlength=basis.size)
    # mask bit -> measured qubit; of two measures into one bit the last wins
    measured = {layout.field(*op.bit)[0]: op.qubit for op in kernel.body if isinstance(op, Measure)}
    masks: Counter = Counter()
    drawn = np.flatnonzero(hits)
    for value, count in zip(basis[drawn].tolist(), hits[drawn].tolist()):
        masks[sum(((value >> q) & 1) << bit for bit, q in measured.items())] += count
    return masks


# Most shots one sample call takes. At 3-5M shots/s on the static path, 2^32
# shots take 15-25 minutes and a slow trajectory kernel hours, where 10^20
# would take a million years; every shot index also stays far inside the
# uint64 that seeds its stream.
MAX_SHOTS = 1 << 32


def sample(bound: BoundKernel, shots: int, seed: int, workers: int = 1) -> ShotHistogram:
    """Sample the kernel; identical (seed, shots) gives identical histograms.
    `workers` is accepted for compatibility and ignored: one process walks
    all shots, since the batched walk finishes before a worker pool starts.
    Raises TooLarge past `MAX_SHOTS` shots, before any work."""
    if shots < 1:
        raise SimError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise TooLarge(f"shots limited to {MAX_SHOTS}, got {shots}")
    _check_width(bound.kernel.qubit_count)
    layout = _Layout(bound.kernel.classical_layout)
    count = _trajectory_counts if _needs_trajectories(bound.kernel) else _sample_static
    masks = count(bound, layout, seed, shots)
    return ShotHistogram({layout.key(mask): n for mask, n in masks.items()}, shots)


def statevector(bound: BoundKernel) -> StateVector:
    """Final state of a static (measurement- and reset-free) kernel."""
    for op in bound.kernel.body:
        if isinstance(op, (Measure, CondBlock, Reset)):
            raise DynamicCircuit(
                f"{type(op).__name__} requires trajectory sampling; use sample()"
            )
    return _gates_only_state(bound)


_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": _FIXED_1Q["x"],
    "Y": _FIXED_1Q["y"],
    "Z": _FIXED_1Q["z"],
}


def expval_pauli(state: StateVector, pauli: str) -> float:
    """<psi|P|psi> for a Pauli string; character k acts on qubit k."""
    if len(pauli) != state.n:
        raise BadPauliString(f"pauli string length {len(pauli)} != {state.n} qubits")
    if any(ch not in _PAULI for ch in pauli):
        raise BadPauliString(f"pauli string may only contain I, X, Y, Z: {pauli!r}")
    if set(pauli) <= {"I", "Z"}:
        return _expval_z(state, pauli)
    transformed = state.copy()
    for qubit, ch in enumerate(pauli):
        if ch != "I":
            _apply_unitary(transformed, _PAULI[ch], (qubit,), ())
    return float(np.vdot(state.amps, transformed.amps).real)


def _parity_signs(mask: int, bits: int) -> np.ndarray:
    """(-1)^popcount(i & mask) for every i < 2^bits."""
    index = np.arange(1 << bits)
    parity = np.zeros_like(index)
    for q in range(bits):
        if (mask >> q) & 1:
            parity ^= index >> q
    return 1.0 - 2.0 * (parity & 1)


def _expval_z(state: StateVector, pauli: str) -> float:
    """<psi|P|psi> for a string of I and Z: each probability signed by the
    parity of its Z bits, in one pass over the float view of the state. The
    sign of index hi * 2^low + lo factors into a sign of lo times a sign of
    hi, so a row sum weighted by the low signs, then a dot with the high
    signs, needs no table of 2^n signs."""
    n = state.n
    low = n // 2
    mask = sum(1 << q for q, ch in enumerate(pauli) if ch == "Z")
    rows = state.amps.view(np.float64).reshape(1 << (n - low), 2 << low)  # re, im interleaved
    low_signs = np.repeat(_parity_signs(mask, low), 2)
    return float(np.einsum("ij,ij,j->i", rows, rows, low_signs) @ _parity_signs(mask >> low, n - low))
