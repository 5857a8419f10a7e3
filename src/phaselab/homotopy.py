"""Discrete loop rectification in the state space of M_n(C).

A based loop of density matrices is contracted to the constant loop by
the action of explicit operator families: unitary eigenvector transport
(with a disk phase lift to keep linear interpolations outside the Gelfand
ideal), compression onto nested corner blocks, and a verifier that
certifies the resulting two-parameter sheet cell by cell. A sheet is held
as its recipe, which is what a sheet document stores: the input loop and,
per level k on the corner block b = n - k, its T unitaries and the s tables
of its two stages, the unitaries' and the corner projection P^b_1's. Its
cells are evaluated one stage at a time (sheet_blocks), and the verifier
checks each stage's block of rows as it comes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (eye, min_eigenvalues, pack_hermitian, packed_trace_norm, trace_norm,
                     unpack_hermitian)
from .projective import elementary_transport
from .states import GelfandIdealError, basis_state, validate_densities
from .util import NumericalGateError

PURITY_THRESHOLD = 7.0 / 8.0
CONTINUATION_MIN_OVERLAP = 0.1
SAFETY_FLOOR = 1e-10
BOUNDARY_RADIUS = 1.0 - 1e-9
BASEPOINT_TOL = 1e-9
OPERATOR_TOL = 1e-9
IDEAL_NORMALIZER_TOL = 1e-12
# Fine samples of the pre-pass per row of its s table (48 at least), and
# the fewest rows a stage takes.
FINE_MULT = 6
MIN_ROWS = 8
# Bytes a sheet may hold (_held_bytes): its recipe and BLOCK_COPIES blocks
# of its stage of most rows. Beyond the recipe, tracemalloc reads a
# contraction's pre-pass at 2.2 to 3.2 blocks and a verification at 4.7 to
# 5.6 (n = 2 to 40, 17 to 901 samples). The count covers arrays only: on
# sheets under about 1 MB, tracemalloc's fixed overhead can exceed it
# (constant_loop(3, 16) reads 156 KB against a count of 147 KB).
MAX_SHEET_BYTES, BLOCK_COPIES = 2**28, 7


def projection_matrix(n: int, k: int) -> np.ndarray:
    """diag(1, ..., 1, 0, ..., 0) with k trailing zeros."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    return np.diag(np.array([1.0] * (n - k) + [0.0] * k)).astype(np.complex128)


def _check_based(rhos: np.ndarray):
    """A density stack (T, n, n) must start and end at the basepoint."""
    base = basis_state(rhos.shape[-1]).rho
    if trace_norm(rhos[[0, -1]] - base).max() > BASEPOINT_TOL:
        raise ValueError("loop must be based at the first-basis-vector state")
    if trace_norm(rhos[0] - rhos[-1]) > BASEPOINT_TOL:
        raise ValueError("loop is not closed")


@dataclass
class StateLoop:
    """A closed, based loop of states on M_n, stored as one (T, n, n)
    complex array of densities, first sample == last."""

    n: int
    rhos: np.ndarray

    def __post_init__(self):
        self.rhos = validate_densities(self.rhos)
        if self.n < 2:
            raise ValueError("loops live on M_n with n >= 2")
        if self.rhos.ndim != 3 or self.rhos.shape[1:] != (self.n, self.n):
            raise ValueError("loop samples must be states on M_n")
        if len(self.rhos) < 3:
            raise ValueError("a loop needs at least three samples")
        _check_based(self.rhos)

    @property
    def n_samples(self) -> int:
        return len(self.rhos)

    @cached_property
    def max_step(self) -> float:
        """Largest trace-norm step between consecutive samples."""
        return float(trace_norm(self.rhos[1:] - self.rhos[:-1]).max())


class Level(NamedTuple):
    """Rectification level k of a contraction recipe over T columns, on the
    corner block algebra M_b with b = n - k: a unitary stage, then a
    projection stage, act in turn on the block of the previous level's last
    row, and their rows are zero-padded into the n x n corner. A stage's
    row r acts on column t of its input with s[r, t] A_t + (1 - s[r, t]) 1,
    A_t = unitaries[t] in the unitary stage and the corner projection
    P^b_1 in the projection stage; each s table's last row is 1."""

    unitaries: np.ndarray  # (T, b, b)
    s_unitary: np.ndarray  # (rows, T)
    s_projection: np.ndarray  # (rows, T)


def _stages(n: int, levels: list) -> Iterator[tuple]:
    """Each stage of a recipe on M_n in order, as (level, stage, block,
    operators, s table), the projection stage's operator P^b_1."""
    for k, level in enumerate(levels):
        b = n - k
        yield k, 0, b, level.unitaries, level.s_unitary
        yield k, 1, b, projection_matrix(b, 1), level.s_projection


def _recipe_rows(n: int, t_count: int, levels: list) -> int:
    """Rows of the sheet a recipe expands to, counting row 0; raises
    ValueError for a recipe whose shapes do not fit n and t_count."""
    if len(levels) != n - 1:
        raise ValueError(f"a recipe on M_{n} has {n - 1} levels, got {len(levels)}")
    rows = 1
    for k, level in enumerate(levels):
        if level.unitaries.shape != (t_count, n - k, n - k):
            raise ValueError(f"level {k} unitaries of shape {level.unitaries.shape}, "
                             f"not {(t_count, n - k, n - k)}")
        for s in level[1:]:
            if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] != t_count:
                raise ValueError(f"s table of shape {s.shape} over {t_count} columns")
            rows += s.shape[0]
    return rows


@dataclass
class HomotopySheet:
    """An S x T grid of states, held as the recipe that generates it: row 0
    is the input loop, a (T, n, n) density stack, and the n - 1 `levels`
    (Level) give the later rows in order. Its cells are never held at
    once; sheet_blocks evaluates them a stage at a time. A recipe whose
    shapes do not fit n and T, or over MAX_SHEET_BYTES, raises ValueError."""

    n: int
    loop: np.ndarray
    levels: list

    def __post_init__(self):
        self.loop = np.asarray(self.loop, dtype=np.complex128)
        if self.loop.ndim != 3 or self.loop.shape[1:] != (self.n, self.n):
            raise ValueError(f"a sheet's loop must have shape (T, {self.n}, {self.n})")
        _recipe_rows(self.n, len(self.loop), self.levels)
        _check_sheet_budget(self.held_bytes)

    @property
    def shape(self) -> tuple[int, int]:
        return _recipe_rows(self.n, len(self.loop), self.levels), len(self.loop)

    @property
    def held_bytes(self) -> int:
        """The bytes the budget counts for this sheet (_held_bytes)."""
        return _held_bytes(self.n, len(self.loop), [len(s) for lv in self.levels for s in lv[1:]])


def _held_bytes(n: int, t_count: int, rows: list) -> int:
    """The most a sheet on M_n over t_count columns holds, for the rows of
    its 2(n - 1) stages: its recipe (loop, unitaries and s tables) and
    BLOCK_COPIES blocks of cells of its stage of most rows, which bound a
    contraction's pre-pass (_interp_rows) and a verification's block and
    temporaries alike."""
    unitaries = sum(t_count * b * b * 16 for b in range(2, n + 1))
    recipe = t_count * n * n * 16 + unitaries + sum(rows) * t_count * 8
    return recipe + BLOCK_COPIES * max(rows, default=1) * t_count * n * n * 16


def _check_sheet_budget(held: int) -> None:
    """Refuse, before it is made, a sheet that would hold `held` bytes
    (_held_bytes) over MAX_SHEET_BYTES."""
    if held > MAX_SHEET_BYTES:
        raise ValueError(f"the sheet would hold {held} bytes, over the "
                         f"{MAX_SHEET_BYTES}-byte budget")


def _unitarity_defect(a: np.ndarray) -> np.ndarray:
    """max |A A† - 1| per matrix of a stack (..., n, n)."""
    adj = a.conj().swapaxes(-1, -2)
    return np.max(np.abs(a @ adj - eye(a.shape[-1])), axis=(-2, -1))


def pencil(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The quadratic pencil of s A + (1-s) 1 acting on rho, over broadcast
    stacks (..., n, n) of elements and densities: R = (R0, R1, R2) on a new
    leading axis with B(s) rho B(s)† = R0 + s R1 + s² R2 for
    B(s) = s A + (1-s) 1. With X = A - 1, R0 = rho, R1 = X rho + rho X† and
    R2 = X rho X†, each exactly Hermitian."""
    x = a - eye(a.shape[-1])
    xr = x @ rho
    r2 = xr @ x.conj().swapaxes(-1, -2)
    r0 = (rho + rho.conj().swapaxes(-1, -2)) / 2
    r1 = xr + xr.conj().swapaxes(-1, -2)
    r2 = (r2 + r2.conj().swapaxes(-1, -2)) / 2
    return np.stack(np.broadcast_arrays(r0, r1, r2))


def safety_min(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum over s in [0, 1] of omega(B(s)† B(s)) = tr(B(s) rho B(s)†)
    and the s attaining it, for a pencil stack `r` (see pencil).

    The value is the quadratic c0 + c1 s + c2 s² of the pencil's traces:
    c0 = omega(1), c1 = 2 Re omega(X) and c2 = omega(X†X) >= 0. Its minimum
    is at the vertex -c1/(2 c2) when that lies inside (0, 1), and otherwise
    at an endpoint (s = 0 on ties). A vanishing c2 leaves a line, whose
    minimum is at an endpoint too. Projections with omega(P) > 0 are always
    safe; unitaries are unsafe only near omega(U) = -1 at s = 1/2.
    """
    c0, c1, c2 = np.trace(r, axis1=-2, axis2=-1).real
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -c1 / (2.0 * c2)
    inside = (c2 > 0.0) & (vertex > 0.0) & (vertex < 1.0)
    s = np.where(inside, vertex, np.where(c1 + c2 < 0.0, 1.0, 0.0))
    return c0 + s * (c1 + c2 * s), s


def _alignment_wedge(r: float) -> float:
    """Half-angle around +1 that lambda*gamma is confined to at radius r:
    unconstrained at the center, shrinking linearly to 0 on the boundary
    circle. Confinement keeps 1 + Re(lambda*gamma) >= 0.8 everywhere."""
    return np.pi * (1.0 - min(max(r, 0.0), 1.0))


def disk_phase_lift(gamma: np.ndarray) -> np.ndarray:
    """Continuous unit-scalar path lambda with lambda*gamma = 1 wherever
    gamma touches the boundary circle.

    Discrete chart rule: the product lambda*gamma is confined to a wedge
    around +1 that closes as |gamma| grows from the engage radius to the
    boundary. Deep inside the disk lambda is held; outside, it is rotated
    by the minimal amount that keeps the product inside the wedge, and is
    snapped to exact alignment when gamma touches the boundary. This
    keeps 1 + Re(lambda*gamma) uniformly positive, so linear unitary
    interpolations never approach the Gelfand ideal.
    """
    g = np.asarray(gamma, dtype=np.complex128).ravel()
    if g.shape[0] < 2:
        raise ValueError("need at least two samples")
    if np.max(np.abs(g)) > 1.0 + 1e-9:
        raise ValueError("path leaves the closed unit disk")
    steps = np.abs(np.diff(g))
    if steps.max(initial=0.0) >= 0.1:
        raise ValueError("path too coarsely sampled for the phase lift (step >= 0.1)")

    lam = np.ones(g.shape[0], dtype=np.complex128)
    for t in range(g.shape[0]):
        prev = lam[t - 1] if t > 0 else 1.0 + 0.0j
        w = g[t]
        r = abs(w)
        if r >= BOUNDARY_RADIUS:
            lam[t] = np.conj(w) / r
            continue
        if r < 1e-12:
            lam[t] = prev
            continue
        wedge = _alignment_wedge(r)
        ang = float(np.angle(prev * w))
        if abs(ang) <= wedge:
            lam[t] = prev
        else:
            lam[t] = prev * np.exp(-1j * (ang - np.sign(ang) * wedge))

    phase_steps = np.abs(np.angle(lam[1:] / lam[:-1]))
    if phase_steps.max(initial=0.0) >= np.pi:
        raise ValueError("phase lift produced a step >= pi; sampling too coarse")
    on_boundary = np.abs(g) >= BOUNDARY_RADIUS
    if on_boundary.any():
        defect = np.max(np.abs(lam[on_boundary] * g[on_boundary] - 1.0))
        if defect > 1e-8:
            raise RuntimeError(f"phase lift misaligned on the boundary: {defect:.2e}")
    return lam


def _pin_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v / ph


def _transport_unitaries(rhos: np.ndarray) -> np.ndarray:
    """Stage 1: eigenvector transport on near-pure runs, geodesic bridges
    across non-pure gaps.

    On each maximal run of samples with top eigenvalue > 7/8 the top
    eigenvector is continued with positive-overlap phase alignment and
    sent to e_0 by an elementary transport. Inside a gap any unitary is
    admissible (a unitary cannot make a non-pure state pure), so the held
    endpoint unitary is rotated to the next run's initial transport along
    the unitary-group geodesic over the gap (_unitary_powers). Runs and gaps
    alternate between the edges of the near-pure mask, starting and ending
    with a run.
    """
    t_count, n = rhos.shape[0], rhos.shape[-1]
    evals, evecs = np.linalg.eigh(rhos)
    tops = evecs[:, :, -1]
    near_pure = evals[:, -1] > PURITY_THRESHOLD
    if not (near_pure[0] and near_pure[-1]):
        raise ValueError("basepoint samples must be near-pure")

    e0 = np.zeros(n, dtype=np.complex128)
    e0[0] = 1.0
    edges = [0, *(np.flatnonzero(np.diff(near_pure)) + 1).tolist(), t_count]
    runs = list(zip(edges[0::2], edges[1::2]))
    unitaries = np.empty((t_count, n, n), dtype=np.complex128)
    for start, end in runs:
        v = e0 if start == 0 else _pin_phase(tops[start])
        unitaries[start] = elementary_transport(v, e0)
        for i in range(start + 1, end):
            ov = np.vdot(v, tops[i])
            if abs(ov) < CONTINUATION_MIN_OVERLAP:
                raise NumericalGateError(
                    f"eigenvector continuation ambiguous at sample {i} "
                    f"(overlap {abs(ov):.3f})"
                )
            v = tops[i] * (np.conj(ov) / abs(ov))
            unitaries[i] = elementary_transport(v, e0)

    for (_, gap_start), (right, _) in zip(runs[:-1], runs[1:]):
        left = gap_start - 1
        f = (np.arange(gap_start, right) - left) / (right - left)
        v = unitaries[right] @ unitaries[left].conj().T
        unitaries[gap_start:right] = _unitary_powers(v, f) @ unitaries[left]
    return unitaries


def _unitary_powers(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V^f = exp(f log V), principal branch, (G, n, n) for a unitary V and
    fractions f (G,): Q diag(e^{i f θ}) Q† from one eig, V = Q diag(e^{iθ}) Q†.
    Q is the QR factor of eig's vectors, which are not orthonormal for a
    repeated eigenvalue."""
    evals, evecs = np.linalg.eig(v)
    q = np.linalg.qr(evecs)[0]
    return (q * np.exp(1j * f[:, None] * np.angle(evals))[:, None, :]) @ q.conj().T


def _interp_rows(r: np.ndarray, n_rows: int) -> np.ndarray:
    """The s table (n_rows, T) of a stage whose column t has the pencil
    r[:, t] (see pencil): row k's s is where column t's state has covered
    k / n_rows of its trace-norm arc length over s in [0, 1], as a fine
    pre-pass measures it. This keeps the sheet's step modulus proportional
    to the input modulus even where the interpolation moves unevenly in s.
    The last row is 1 exactly.

    The pre-pass evaluates the states with _pencil_states, and measures
    their steps with linalg.packed_trace_norm: the closed form for 2x2 and
    3x3 blocks, elementwise over the chunk, and eigvalsh on the unpacked
    steps for larger blocks. Every packed coordinate takes the same
    arithmetic as the complex matrices would, so the s table is the one a
    pre-pass over complex states and linalg.trace_norm gives, bit for bit.
    Its columns go in chunks of ceil(T / FINE_MULT), so each array weighs
    about half a block of the stage's rows; every column's arc is its own,
    so the chunks leave the table unchanged.
    """
    t_count = r.shape[1]
    f_count = max(n_rows * FINE_MULT, 48)
    s_fine = np.linspace(0.0, 1.0, f_count + 1)
    fractions = np.arange(1, n_rows + 1) / n_rows
    traces = np.trace(r, axis1=-2, axis2=-1).real
    packed = np.moveaxis(pack_hermitian(r), 1, 0)  # (3, n², T)
    s_rows = np.empty((n_rows, t_count))
    width = -(-t_count // FINE_MULT)
    for lo in range(0, t_count, width):
        cols = slice(lo, lo + width)
        rho_s, _ = _pencil_states(packed[:, :, cols, None], traces[:, cols, None], s_fine)
        steps = packed_trace_norm(rho_s[..., 1:] - rho_s[..., :-1])  # rho_s: (n², cols, F + 1)
        arcs = np.concatenate([np.zeros((len(steps), 1)), np.cumsum(steps, axis=1)], axis=1)
        for t, arc in enumerate(arcs, start=lo):
            if arc[-1] < 1e-13:
                s_rows[:, t] = fractions
            else:
                s_rows[:, t] = np.interp(fractions * arc[-1], arc, s_fine)
    s_rows[-1] = 1.0
    return s_rows


def _pencil_states(p: np.ndarray, c: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
    """A pencil's states B(s) rho B(s)† / tr at s on the packed layout, and
    their normalizers: (p0 + s (p1 + s p2)) / (c0 + s (c1 + s c2)) and its
    denominator, for packed pencil coefficients p (3, n², ...) (see pencil
    and linalg.pack_hermitian) and their traces c (3, ...), broadcast
    against s."""
    norm = c[0] + s * (c[1] + s * c[2])
    return (p[0] + s * (p[1] + s * p[2])) / norm, norm


def _stage_rows(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows (rows, T, b, b) of a stage whose column t has the pencil
    r[:, t] (see pencil): column t of row k is the state at s[k, t], from
    one packing of the pencil (_pencil_states), exactly Hermitian and
    validated once. Raises GelfandIdealError where a normalizer puts
    B(s) in the Gelfand ideal of its column's state."""
    packed = np.moveaxis(pack_hermitian(r), 1, 0)[:, :, None]  # (3, b², 1, T)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows, norm = _pencil_states(packed, np.trace(r, axis1=-2, axis2=-1).real, s)
    if (norm <= IDEAL_NORMALIZER_TOL).any():
        raise GelfandIdealError("element lies in the Gelfand ideal of the state")
    return validate_densities(unpack_hermitian(rows))


def _rows_for(target_step: float, movement: float) -> int:
    if movement <= 0:
        return MIN_ROWS
    return max(MIN_ROWS, int(np.ceil(movement / max(target_step, 1e-12))))


def _rectify(rhos: np.ndarray, target: float, admit):
    """The level (Level) that deforms the density stack `rhos` (T, b, b) so
    that every sample gives weight one to the corner projection P^b_1 (no
    weight on the last basis vector), and its last row.

    Eigenvector-transport unitaries come first, with a disk phase lift of
    t -> omega_t(U_t) so the unitary interpolation stays outside every
    Gelfand ideal; then the linear interpolations with s lambda_t U_t and
    with s P^b_1. Every interpolation is certified by its exact safety
    minimum over s in [0, 1], and its rows step by about `target`. Each
    stage's last row is built once, from the pencil that certifies the
    stage, at s = 1 as the expansion builds it (_stage_rows); it measures
    the stage's movement and is the next stage's input. Each stage's rows
    pass through admit, which may refuse them, before its pre-pass.
    """
    n, ones = rhos.shape[-1], np.ones((1, len(rhos)))

    unitaries = _transport_unitaries(rhos)
    gamma = np.trace(rhos @ unitaries, axis1=-2, axis2=-1)
    gamma = np.where(np.abs(gamma) > 1.0, gamma / np.abs(gamma), gamma)
    lam = disk_phase_lift(gamma)

    lifted = lam[:, None, None] * unitaries
    not_unitary = ~(_unitarity_defect(unitaries) <= OPERATOR_TOL)
    # safety of the *lifted* interpolation, the one the sheet uses
    r_lifted = pencil(lifted, rhos)
    lifted_min, _ = safety_min(r_lifted)
    failing = np.flatnonzero(not_unitary | ~(lifted_min > SAFETY_FLOOR))
    if failing.size:
        t = failing[0]
        if not_unitary[t]:
            raise ValueError("not a unitary")
        unlifted_min, _ = safety_min(pencil(unitaries[t], rhos[t]))
        raise NumericalGateError(
            f"unitary interpolation unsafe at sample {t} despite phase lift "
            f"(min {lifted_min[t]:.3e}, unlifted min {unlifted_min:.3e})"
        )

    out_a = _stage_rows(r_lifted, ones)[0]
    proj = projection_matrix(n, 1)
    r_proj = pencil(proj, out_a)
    failing = np.flatnonzero(~(safety_min(r_proj)[0] > SAFETY_FLOOR))
    if failing.size:
        raise NumericalGateError(f"projection interpolation unsafe at sample {failing[0]}")

    s_a = _interp_rows(r_lifted, admit(_rows_for(target, trace_norm(out_a - rhos).max())))
    out_b = _stage_rows(r_proj, ones)[0]
    s_b = _interp_rows(r_proj, admit(_rows_for(target, trace_norm(out_b - out_a).max())))
    return Level(lifted, s_a, s_b), out_b


def _compress(rhos: np.ndarray, block: int) -> np.ndarray:
    rho = rhos[:, :block, :block]
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def _level_input(current: np.ndarray, block: int) -> np.ndarray:
    """A level's input from the last row so far: the row itself if it is on
    M_block already, otherwise its validated compression to the corner
    block."""
    if block == current.shape[-1]:
        return current
    return validate_densities(_compress(current, block))


def sheet_blocks(sheet: HomotopySheet) -> Iterator[np.ndarray]:
    """A sheet's cells, one stage at a time: row 0, the loop, as a block of
    one row, then each stage's rows (rows, T, n, n) in order. Each level
    takes its input from the last row so far (_level_input); each of its
    stages evaluates its pencil on the last row of the stage before at its
    s table (_stage_rows); and its rows are zero-padded into the n x n
    corner. Every cell is made here, so a sheet read back from its
    document expands to the contractor's cells bit for bit."""
    n, rhos = sheet.n, sheet.loop  # the last row so far, on its block
    yield rhos[None]
    for _, stage, b, ops, s in _stages(n, sheet.levels):
        if stage == 0:
            rhos = _level_input(rhos, b)
        block = _stage_rows(pencil(ops, rhos), s)
        rhos = block[-1].copy()
        if b < n:
            block = np.pad(block, [(0, 0), (0, 0), (0, n - b), (0, n - b)])
        yield block
        del block  # so that only the caller holds a block while the next is made


def contract_loop(loop: StateLoop) -> HomotopySheet:
    """Contract a based loop to the constant loop at the basepoint.

    Iterates rectification on the corner-block algebras: after level k the
    loop gives weight one to P^n_k, and the block homotopy is pushed
    forward by (1 - P) + (embedded block operator), that is, its cells are
    zero-padded to n x n. At k = n-1 the loop is pinned to the basepoint.
    Each level's recipe is built from the last rows alone, and the sheet is
    returned as its recipe, unexpanded. A loop whose sheet would hold over
    MAX_SHEET_BYTES even at MIN_ROWS a stage is refused first, and each
    stage is checked again with its rows before its pre-pass runs.
    """
    n, t_count = loop.n, loop.n_samples
    least = [MIN_ROWS] * (2 * n - 2)  # the least recipe: every stage of MIN_ROWS rows
    _check_sheet_budget(_held_bytes(n, t_count, least))
    made = []  # the rows of the stages whose rows are known

    def admit(rows: int) -> int:
        made.append(rows)
        _check_sheet_budget(_held_bytes(n, t_count, made + least[len(made):]))
        return rows

    target = 2.5 * max(loop.max_step, 1e-3)
    rhos, levels = loop.rhos, []
    for b in range(n, 1, -1):  # the corner block algebra M_b of each level
        rhos = _level_input(rhos, b)
        if b < n:
            _check_based(rhos)
        level, rhos = _rectify(rhos, target, admit)
        levels.append(level)
        _check_based(rhos)
    return HomotopySheet(n, loop.rhos, levels)


@dataclass
class VerifyReport:
    passed: bool
    violations: list
    max_cell_step: float
    shape: tuple[int, int]
    safety_min: float | None = None  # smallest exact safety value checked
    safety_at: tuple[int, int, int] | None = None  # its (level, stage, column)

    def summary(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"{status}: sheet {self.shape[0]}x{self.shape[1]}, "
            f"max step {self.max_cell_step:.5f}, {len(self.violations)} violation(s)"
        )


def _flags(name: str, value: np.ndarray, mask: np.ndarray, bound: float,
           cell=lambda *idx: idx) -> list:
    """One violation (name, cell, value, bound) per True entry of `mask`, in
    C order, at `cell` of its index in Python ints."""
    return [(name, cell(*i), float(value[tuple(i)]), bound) for i in np.argwhere(mask).tolist()]


def _largest(best: tuple, steps: np.ndarray, row: int) -> tuple:
    """`best` (step, cell), or the first largest of `steps` (rows from `row` on) if larger."""
    if not steps.size:
        return best
    i = np.unravel_index(np.argmax(steps), steps.shape)
    return (steps[i], (row + int(i[0]), int(i[1]))) if steps[i] > best[0] else best


def verify_homotopy(sheet: HomotopySheet, input_loop: StateLoop, modulus: float) -> VerifyReport:
    """Certify a contraction sheet in one pass over its stage blocks
    (sheet_blocks), holding one block and the row before it. The cells:
    every cell a valid state, row 0 equals the input, the basepoint columns
    constant, the final row constant at the basepoint, and all adjacent-cell
    steps within the modulus. The recipe: every unitary a unitary to
    OPERATOR_TOL; every s in [0, 1] and each stage's last row at s = 1; and
    the exact safety minimum (safety_min) of every column above SAFETY_FLOOR
    on the stage's input as the streamed rows hold it, except in columns
    whose input is not finite.
    A cell with a NaN or infinite entry is one "non-finite" violation,
    valued by the count of such entries; it is zeroed for, and skipped by,
    the rest. Violations are listed by kind, each kind in C order of its
    cell; the recipe's come last, stage by stage, at (level, stage, column)
    indices into the recipe. The negative-eigenvalue scan is
    linalg.min_eigenvalues at 1e-8: the LDLᴴ certificate clears a cell
    without LAPACK, and each cell it does not clear takes eigvalsh, which
    decides it and gives a violation's value."""
    n, (s_dim, t_dim) = sheet.n, sheet.shape
    base = basis_state(n).rho
    found: dict = {kind: [] for kind in ("non-finite", "non-hermitian", "trace", "negative-eigenvalue",
                                         "row0-mismatch", "left-column", "right-column")}
    recipe = []
    step_t = step_s = (0.0, (0, 0))  # the largest step along t and along s, at its cell
    safety: tuple = (None, None)
    blocks = sheet_blocks(sheet)  # pulled by next(), so no iterator holds a block past its turn
    prev, prev_ok, row = None, None, 0
    for at_stage in [None, *_stages(n, sheet.levels)]:  # row 0 has no stage
        block = next(blocks)
        if at_stage is not None:  # the recipe of the stage whose input is `prev`
            li, si, b, ops, s = at_stage
            at = lambda t: (li, si, t)
            with np.errstate(divide="ignore", invalid="ignore"):  # a level compresses its input
                rhos = _compress(prev, b) if si == 0 and b < n else prev
            if si == 0:  # the projection stage's operator is P^b_1 by construction
                defect = _unitarity_defect(ops)
                recipe += _flags("not-unitary", defect, ~(defect <= OPERATOR_TOL), OPERATOR_TOL, at)
            low, high = s.min(axis=0), s.max(axis=0)
            for t in np.flatnonzero(~((low >= 0.0) & (high <= 1.0))):
                out, bound = (low[t], 0.0) if low[t] < 0.0 else (high[t], 1.0)
                recipe.append(("s-range", (li, si, int(t)), float(out), bound))
            recipe += _flags("s-last-row", s[-1], s[-1] != 1.0, 1.0, at)
            value = np.where(prev_ok, safety_min(pencil(ops, rhos[:, :b, :b]))[0], np.inf)
            recipe += _flags("unsafe", value, ~(value > SAFETY_FLOOR) & prev_ok, SAFETY_FLOOR, at)
            t = int(np.argmin(value))
            if prev_ok[t] and (safety[0] is None or value[t] < safety[0]):
                safety = (float(value[t]), (li, si, t))

        at = lambda s, t: (row + s, t)
        bad = np.sum(~np.isfinite(block), axis=(-1, -2))
        ok = bad == 0
        found["non-finite"] += _flags("non-finite", bad, ~ok, 0.0, at)
        if not ok.all():
            block = np.where(ok[..., None, None], block, 0.0)
        adj = np.conj(np.swapaxes(block, -1, -2))
        herm = np.max(np.abs(block - adj), axis=(-1, -2))
        found["non-hermitian"] += _flags("non-hermitian", herm, herm > 1e-8, 1e-8, at)
        traces = np.abs(np.einsum("stii->st", block) - 1.0)
        found["trace"] += _flags("trace", traces, (traces > 1e-8) & ok, 1e-8, at)
        neg = -min_eigenvalues((block + adj) / 2, 1e-8)
        found["negative-eigenvalue"] += _flags("negative-eigenvalue", neg, neg > 1e-8, 1e-8, at)
        if prev is None:
            row0 = trace_norm(block[0] - input_loop.rhos)
            found["row0-mismatch"] = _flags("row0-mismatch", row0, (row0 > 1e-10) & ok[0], 1e-10,
                                            lambda t: (0, t))
        else:
            steps = np.where(ok[0] & prev_ok, trace_norm(block[0] - prev), 0.0)
            step_s = _largest(step_s, steps[None], row - 1)
        steps = np.where(ok[1:] & ok[:-1], trace_norm(block[1:] - block[:-1]), 0.0)
        step_s = _largest(step_s, steps, row)
        steps = np.where(ok[:, 1:] & ok[:, :-1], trace_norm(block[:, 1:] - block[:, :-1]), 0.0)
        step_t = _largest(step_t, steps, row)
        dev = trace_norm(block[:, [0, -1]] - base)
        for i, (col, label) in enumerate(((0, "left-column"), (t_dim - 1, "right-column"))):
            found[label] += _flags(label, dev[:, i], (dev[:, i] > 1e-8) & ok[:, col], 1e-8,
                                   lambda s: (row + s, col))
        prev, prev_ok = block[-1].copy(), ok[-1]
        row += len(block)
        del block, adj

    violations = [v for kind in found.values() for v in kind]
    last = trace_norm(prev - base[None])
    violations += _flags("final-row", last, (last > 1e-8) & prev_ok, 1e-8, lambda t: (s_dim - 1, t))
    max_step = float(max(step_t[0], step_s[0]))
    if not max_step <= modulus:  # a NaN modulus or step fails too
        violations.append(("step-modulus", (step_t if step_t[0] >= step_s[0] else step_s)[1],
                           max_step, modulus))
    violations += recipe
    return VerifyReport(
        passed=(len(violations) == 0),
        violations=violations,
        max_cell_step=max_step,
        shape=(s_dim, t_dim),
        safety_min=safety[0],
        safety_at=safety[1],
    )


# --- bundled example loops -------------------------------------------------


def bundled_pure_loop(n_samples: int = 400) -> StateLoop:
    """n=2 loop of pure states along the real great circle
    cos(pi t) e_0 + sin(pi t) e_1; closes projectively at t = 1."""
    samples = []
    for t in np.linspace(0.0, 1.0, n_samples + 1):
        v = np.array([np.cos(np.pi * t), np.sin(np.pi * t)], dtype=np.complex128)
        samples.append(np.outer(v, v.conj()))
    return StateLoop(2, np.array(samples))


def bundled_plateau_loop(n_samples: int = 900) -> StateLoop:
    """n=3 based loop that passes through a rank-2 plateau: purify out of
    the basepoint, melt into a mixed block, rotate the block, refreeze
    onto a rotated pure state and come home."""
    e = np.eye(3, dtype=np.complex128)

    def pure(v):
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())

    def rotation(th):  # by th in the (e0, e1) plane
        r = np.eye(3, dtype=np.complex128)
        r[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        return r

    a = np.cos(0.4 * np.pi) * e[0] + np.sin(0.4 * np.pi) * e[1]
    b = -np.sin(0.4 * np.pi) * e[0] + np.cos(0.4 * np.pi) * e[1]
    mixed = 0.55 * pure(a) + 0.35 * pure(b) + 0.10 * pure(e[2])
    r_end = rotation(0.3 * np.pi)
    mixed_r, a_r = r_end @ mixed @ r_end.conj().T, r_end @ a
    ang = np.arctan2(a_r[1].real, a_r[0].real)  # a_r's angle in the (e0, e1) plane

    def rho_at(t: float) -> np.ndarray:
        if t < 0.25:
            return pure(np.cos(0.4 * np.pi * t * 4) * e[0] + np.sin(0.4 * np.pi * t * 4) * e[1])
        if t < 0.40:
            u = (t - 0.25) / 0.15
            return (1 - u) * pure(a) + u * mixed
        if t < 0.60:
            r = rotation(0.3 * np.pi * ((t - 0.40) / 0.20))
            return r @ mixed @ r.conj().T
        if t < 0.75:
            u = (t - 0.60) / 0.15
            return (1 - u) * mixed_r + u * pure(a_r)
        u = (t - 0.75) / 0.25  # rotate a_r back to e_0 along the real circle
        return pure(np.cos(ang * (1 - u)) * e[0] + np.sin(ang * (1 - u)) * e[1])

    samples = [_snap(rho_at(t)) for t in np.linspace(0.0, 1.0, n_samples + 1)]
    return StateLoop(3, np.array(samples))


def random_based_loop(n: int = 3, seed: int = 7, n_samples: int = 700) -> StateLoop:
    """Seeded smooth based loop on M_n mixing rotation and partial
    depolarization; endpoints pinned to the basepoint."""
    import scipy.linalg

    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gens.append((a + a.conj().T) / 2)
    c1, c2 = rng.uniform(0.3, 0.7, size=2)

    def rho_at(t: float) -> np.ndarray:
        h = c1 * np.sin(np.pi * t) * gens[0] + c2 * np.sin(2 * np.pi * t) * gens[1]
        u = scipy.linalg.expm(1j * h)
        mix = 0.18 * np.sin(np.pi * t) ** 2
        d = np.diag(np.array([1 - mix] + [mix / (n - 1)] * (n - 1)))
        return u @ d @ u.conj().T

    samples = [_snap(rho_at(t)) for t in np.linspace(0.0, 1.0, n_samples + 1)]
    return StateLoop(n, np.array(samples))


def constant_loop(n: int = 2, n_samples: int = 32) -> StateLoop:
    return StateLoop(n, np.repeat(basis_state(n).rho[None], n_samples + 1, axis=0))


def _snap(rho: np.ndarray) -> np.ndarray:
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real
