"""Discrete loop rectification in the state space of M_n(C).

A based loop of density matrices is contracted to the constant loop by
the action of explicit operator families: unitary eigenvector transport,
batched over each near-pure run and continuous wherever the top
eigenvector keeps a nonzero e_0 component (projective.transport_to_e0),
with a disk phase lift to keep linear interpolations outside the Gelfand
ideal; compression onto nested corner blocks; and a verifier that
certifies the resulting two-parameter sheet cell by cell. A sheet is held
as its recipe, the integers a sheet document stores, rounded once
(_rectify) and checked once (HomotopySheet): per level k on the corner
block b = n - k, the edges of its near-pure runs, the continued top
eigenvector of each run sample over U_DEN, the k_t of each sample's phase
lambda_t = exp(2 pi i k_t / U_DEN), and the row counts of its two stages,
A_t = lambda_t U_t's and the corner projection P^b_1's. A_t is rebuilt
from them where its stage is evaluated (level_unitaries), and a stage's s
rows from each column's pencil (_rule_rows). Its cells are evaluated on
the loop it is given, row 0 its packed rows (StateLoop.x), a stage at a
time and a chunk of the stage's rows at a time, at the stage's own size
(sheet_blocks, _chunk_rows), and the verifier checks each chunk, and the
traces of the one pencil that made its stage, as it comes; from those
traces it bounds each column's negativity, so that only the columns the
bound does not clear take the positivity scan.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (POSITIVITY_MARGIN, _hermitian_min_eigenvalues, _hermitian_trace_norm, eye,
                     pack_hermitian, unpack_hermitian, upper_pairs)
from .projective import transport_to_e0
from .states import STATE_EIG_TOL, basis_state, validate_densities
from .util import NumericalGateError

PURITY_THRESHOLD = 7.0 / 8.0
CONTINUATION_MIN_OVERLAP = 0.1
SAFETY_FLOOR = 1e-10
BOUNDARY_RADIUS = 1.0 - 1e-9
BASEPOINT_TOL = 1e-9
OPERATOR_TOL = 1e-9
# A loop's step modulus (StateLoop.modulus): the contractor's rows aim at
# half of it, and the verifier judges the sheet's cell steps by it.
MODULUS_FACTOR, STEP_FLOOR = 5.0, 1e-9
# The verifier's gate on cells (state, edge columns, last row)
CELL_TOL = 1e-8
# The relative margin of a step's Frobenius bounds (_bounded_steps): ten
# times the closed form's 1e-13 of ‖Δ‖_F
STEP_MARGIN = 1e-12
# The fewest rows a stage takes
MIN_ROWS = 8
# A recipe's transport vectors are multiples of 1 / U_DEN, and its phases
# multiples of 2 pi / U_DEN (_rectify): a vector entry's numerator is at
# most 2^20 in modulus, and so an exact double, and rounding moves a phase
# by at most pi / 2^20 = 3.0e-6. The operators rebuilt from them are
# unitary to rounding on any grid, so the grid moves only the cells, which
# the verifier judges. Over the 45 panel loops, grids set one at a time,
# every verdict, violation kind, shape and row count holds with vectors
# down to 1 / 2^9 and phases down to 2 pi / 2^7, a margin of 2^11 and 2^13.
U_DEN = 2**20
# Bytes a sheet may hold (_held_bytes): its recipe and BLOCK_COPIES blocks
# of complex cells of its stage of most rows, an upper bound. A stage is
# held a chunk of b x b packed rows at a time (CHUNK_ENTRIES), beyond the
# recipe tracemalloc reads a contraction at 0.15 to 2.6 blocks and a
# verification at 0.14 to 2.4 (random loops, n = 2 to 10, 201 to 901
# samples), falling as the blocks outgrow a chunk: 0.14 to 0.35 for blocks
# over 10 MB. Six copies would admit the n = 50, 101-sample loop that the
# CLI refuses. The count covers arrays only: on sheets under about 1 MB,
# tracemalloc's fixed overhead can exceed it (constant_loop(2, 16) reads
# 4.0 blocks).
MAX_SHEET_BYTES, BLOCK_COPIES = 2**28, 7
# Packed entries (1 MiB of float64) in a chunk of a stage's rows on M_b, at
# least one row: every pass over a stage takes CHUNK_ENTRIES // (b² T) rows.
CHUNK_ENTRIES = 2**17


def projection_matrix(n: int, k: int) -> np.ndarray:
    """diag(1, ..., 1, 0, ..., 0) with k trailing zeros."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"k={k} out of range for n={n}")
    return np.diag(np.array([1.0] * (n - k) + [0.0] * k)).astype(np.complex128)


def _check_based(x: np.ndarray):
    """A density stack packed as x (n², T) (linalg.pack_hermitian) must
    start and end at the basepoint |e_0><e_0|, packed as np.eye(n², 1), and
    close, each distance within BASEPOINT_TOL (_masked_steps with no lower
    bound; a NaN fails)."""
    ends = x[:, [0, -1]]
    for d, message in ((ends - np.eye(len(x), 1), "loop must be based at the first-basis-vector state"),
                       (ends[:, :1] - ends[:, 1:], "loop is not closed")):
        if not _masked_steps(d, True, BASEPOINT_TOL, lower=False).max() <= BASEPOINT_TOL:
            raise ValueError(message)


@dataclass(frozen=True)
class StateLoop:
    """A closed, based loop of states on M_n, an immutable value held as
    one read-only array, its packed rows x (n², T) (linalg.pack_hermitian):
    the row 0 of the contractor, the expansion and the verifier. It is made
    from `rhos`, a (T, n, n) complex array of densities, first sample ==
    last, that is validated as given and not kept: x packs the Hermitian
    part (ρ + ρ†)/2 that states.validate_densities checked."""

    n: int
    rhos: InitVar[np.ndarray]
    x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, rhos):
        rhos = validate_densities(rhos)
        if self.n < 2:
            raise ValueError("loops live on M_n with n >= 2")
        if rhos.ndim != 3 or rhos.shape[1:] != (self.n, self.n):
            raise ValueError("loop samples must be states on M_n")
        if len(rhos) < 3:
            raise ValueError("a loop needs at least three samples")
        _check_based(x := pack_hermitian(rhos))
        x.flags.writeable = False
        vars(self)["x"] = x  # past the frozen __setattr__

    def __reduce__(self):  # a copy or an unpickled loop is validated and frozen anew
        return _unpacked_loop, (self.n, self.x)

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]

    @cached_property
    def max_step(self) -> float:
        """Largest trace-norm step between consecutive samples (_masked_steps)."""
        return float(_masked_steps(self.x[:, 1:] - self.x[:, :-1], True, 0.0).max())

    @cached_property
    def modulus(self) -> float:
        """The step modulus a contraction of this loop is built for and judged by."""
        return MODULUS_FACTOR * max(self.max_step, STEP_FLOOR)


def _unpacked_loop(n: int, x: np.ndarray) -> StateLoop:  # a pickle holds x, half the samples' bytes
    return StateLoop(n, unpack_hermitian(x))


class Level(NamedTuple):
    """Rectification level k of a contraction recipe over T columns, on the
    corner block algebra M_b with b = n - k: a unitary stage, then a
    projection stage, act in turn on the block of the previous level's last
    row, and their b x b rows stand for their n x n zero-padding. A stage of
    `rows` rows acts on column t of its input with s A_t + (1 - s) 1 at the
    column's s rows from the rule (_rule_rows), the last at s = 1, with
    A_t = lambda_t U_t in the unitary stage, rebuilt from the level's runs,
    vectors and phases (level_unitaries), and the corner projection P^b_1
    in the projection stage. A level holds these fields alone, the
    integers a sheet document stores of it."""

    rows: tuple  # (the unitary stage's, the projection stage's), positive ints
    runs: tuple  # the run edges (0, ..., T): near-pure runs and gaps alternate
    vectors: np.ndarray  # (run samples, 2b) int64, each run sample's x_t over U_DEN, each entry's re then im
    phases: np.ndarray  # (T,) int64, k_t of lambda_t = exp(2 pi i k_t / U_DEN)


def _stages(n: int, levels: list) -> Iterator[tuple]:
    """Each stage of a recipe on M_n in order, as (level, stage, block,
    operators, rows): the unitary stage's rebuilt as it is reached
    (level_unitaries), held only by the caller, and the projection's P^b_1."""
    for k, level in enumerate(levels):
        b = n - k
        yield k, 0, b, level_unitaries(level), level.rows[0]
        yield k, 1, b, projection_matrix(b, 1), level.rows[1]


def check_level_count(n: int, count: int) -> None:
    """ValueError unless a recipe on M_n has n >= 2 and count = n - 1 levels."""
    if n < 2:
        raise ValueError(f"a recipe is on M_n with n >= 2, got n = {n}")
    if count != n - 1:
        raise ValueError(f"a recipe on M_{n} has {n - 1} levels, got {count}")


def check_runs(runs, t_count: int, b: int, size: int, key: str) -> np.ndarray:
    """The run lengths of a level on M_b over t_count columns, whose run edges are integers that
    rise from 0 to t_count in an even number and whose vectors (`key`) hold `size` = 2 b integers
    a run sample; else ValueError, for the reader (serialize._level) and HomotopySheet alike."""
    runs = np.asarray(runs)
    if runs.dtype.kind != "i" or len(runs) < 2 or len(runs) % 2 or runs[0] or runs[-1] != t_count \
            or (np.diff(runs) <= 0).any():
        raise ValueError(f"'runs' must rise from 0 to the {t_count} phases in an even number "
                         f"of edges, got {runs.tolist()}")
    if size != 2 * b * (samples := int((lengths := np.diff(runs)[::2]).sum())):
        raise ValueError(f"{key} holds 2 b = {2 * b} integers for each of {samples} run "
                         f"samples, {2 * b * samples}, got {size}")
    return lengths


def _recipe_rows(n: int, levels: list) -> int:
    """Rows of the sheet a recipe's levels expand to, counting row 0, over
    the T columns of level 0's phases; raises ValueError for a recipe whose
    vectors and phases are not int64 within U_DEN and U_DEN / 2 in modulus,
    whose operators would not fit n and T, in the shape (len(phases), b, b)
    of a level's phases and vectors, 2b wide, whose runs do not fit them
    (check_runs), or whose row counts are not two positive integers a level."""
    check_level_count(n, len(levels))
    t_count, total = len(levels[0].phases), 1
    for k, level in enumerate(levels):
        for name, values, bound in (("vectors", level.vectors, U_DEN), ("phases", level.phases, U_DEN // 2)):
            if values.dtype != np.int64 or values.min(initial=0) < -bound or values.max(initial=0) > bound:
                raise ValueError(f"level {k} {name} must be int64 within [-{bound}, {bound}]")
        b, rows = level.vectors.shape[-1] // 2, level.rows
        shape = (len(level.phases), b, b)
        if shape != (t_count, n - k, n - k) or level.vectors.shape[1:] != (2 * b,):
            raise ValueError(f"level {k} unitaries of shape {shape}, not {(t_count, n - k, n - k)}")
        check_runs(level.runs, t_count, b, level.vectors.size, f"level {k} 'vectors'")
        if len(rows) != 2 or not all(type(r) is int and r > 0 for r in rows):
            raise ValueError(f"level {k} takes two positive integer row counts, got {rows!r}")
        total += sum(rows)
    return total


@dataclass(frozen=True)
class HomotopySheet:
    """An S x T grid of states, held as the recipe that generates it from
    row 0, the loop it is expanded on: the n - 1 `levels` (Level), a tuple
    whose vectors and phases are made read-only in place, and whose phases
    give T; an immutable value. Its cells and operators are never held at
    once; sheet_blocks makes them a stage at a time. Here alone, for the
    contractor and the reader, a recipe off the grid (_recipe_rows), whose
    shapes do not fit n, whose row counts are not positive integers, or
    whose `held_bytes` (_held_bytes) exceed MAX_SHEET_BYTES raises
    ValueError, before any operator or cell is made; its `shape` is fixed
    with the check. A recipe on the grid is finite, held exactly by JSON."""

    n: int
    levels: tuple
    shape: tuple[int, int] = field(init=False, compare=False)
    held_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        levels = tuple(self.levels)
        shape = _recipe_rows(self.n, levels), len(levels[0].phases)
        held = _held_bytes(self.n, shape[1], [r for lv in levels for r in lv.rows])
        _check_sheet_budget(held)
        for level in levels:
            level.vectors.flags.writeable = level.phases.flags.writeable = False
        vars(self).update(levels=levels, shape=shape, held_bytes=held)  # past the frozen __setattr__

    def __reduce__(self):  # a copy or an unpickled sheet is checked and frozen anew
        return HomotopySheet, (self.n, self.levels)


def _held_bytes(n: int, t_count: int, rows: list) -> int:
    """The most a sheet on M_n over t_count columns holds, for the rows of
    its 2(n - 1) stages: its recipe's vectors and phases, operators counted
    for every level, which bound the one level's that is rebuilt at a time
    (level_unitaries), the loop that a contraction and a verification hold,
    at 16 bytes an entry, which bounds the 8 of its packed rows (StateLoop.x),
    and BLOCK_COPIES blocks of n x n cells of its stage of most rows, which
    bound a contraction's pencils, its row probe's exact steps (_grown_rows)
    and a verification's b x b chunks and temporaries alike."""
    recipe = sum(t_count * ((b * b + b) * 16 + 8) for b in range(2, n + 1))
    held = t_count * n * n * 16 + recipe  # the loop and the recipe
    return held + BLOCK_COPIES * max(rows, default=1) * t_count * n * n * 16


def _check_sheet_budget(held: int) -> None:
    """Refuse, before it is made, a sheet that would hold `held` bytes
    (_held_bytes) over MAX_SHEET_BYTES."""
    if held > MAX_SHEET_BYTES:
        raise ValueError(f"the sheet would hold {held} bytes, over the "
                         f"{MAX_SHEET_BYTES}-byte budget")


def _real_form(m: np.ndarray) -> np.ndarray:
    """The real form [[Re m, -Im m], [Im m, Re m]] (..., 2n, 2n) of a complex
    stack m (..., n, n): the real form of a product is the product of the
    real forms, and its first n columns stack the product's real and
    imaginary parts."""
    n = m.shape[-1]
    out = np.empty((*m.shape[:-2], 2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = m.real
    out[..., n:, :n] = m.imag
    np.negative(m.imag, out=out[..., :n, n:])
    return out


def _adjoint_columns(w: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of W† stacked, (..., 2n, n), for those
    of a stack W, w (..., 2n, n), C-contiguous for the stacked product
    that takes them."""
    n, out = w.shape[-1], np.empty_like(w)
    out[..., :n, :] = w[..., :n, :].swapaxes(-1, -2)
    np.negative(w[..., n:, :].swapaxes(-1, -2), out=out[..., n:, :])
    return out


def _unitarity_defect(a: np.ndarray) -> np.ndarray:
    """max |A A† - 1| per matrix of a stack (..., n, n), with A A† a product
    of real forms (_real_form)."""
    n = a.shape[-1]
    w = _real_form(a) @ _adjoint_columns(np.concatenate([a.real, a.imag], axis=-2))  # [[Re A A†], [Im A A†]]
    return np.max(np.hypot(w[..., :n, :] - np.eye(n), w[..., n:, :]), axis=(-2, -1))


def _packed_with_adjoint(w: np.ndarray, n: int) -> np.ndarray:
    """The packed rows (n², ...) (linalg.pack_hermitian) of W + W† for a
    stack W (..., n, n) given as its real and imaginary parts stacked, w
    (..., 2n, n): 2 Re W_kk, then Re W_ij + Re W_ji and Im W_ij - Im W_ji
    for each upper pair (i, j)."""
    i, j = upper_pairs(n)
    flat = np.moveaxis(w.reshape(*w.shape[:-2], 2 * n * n), -1, 0)
    diag, m = np.arange(n) * (n + 1), len(i)
    out = flat[np.concatenate([diag, i * n + j, (n + i) * n + j])]
    out[:n + m] += flat[np.concatenate([diag, j * n + i])]
    out[n + m:] -= flat[(n + j) * n + i]
    return out


def pencil(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic pencil of s A + (1-s) 1 acting on rho, over broadcast
    stacks of elements A (..., n, n) and exactly Hermitian densities rho,
    packed (linalg.pack_hermitian) as x (n², ...), as (p, c): R0, R1 and R2
    with B(s) rho B(s)† = R0 + s R1 + s² R2 for B(s) = s A + (1-s) 1,
    packed as p (3, n², ...), and their traces c (3, ...), the sums of
    their diagonals. With X = A - 1 and Y = X rho, R0 = rho, R1 = Y + Y†
    and R2 = (Z + Z†) / 2 for Z = X Y† = X rho X†: Y and Z are each one
    stacked product of real matrices, the real form of X (_real_form)
    times the real and imaginary parts of rho and of Y† stacked, and the
    packed rows are read straight from them (_packed_with_adjoint). A
    stage's pencil is formed here once: its cells (_stage_rows), its s rows
    (_rule_rows), its row probe (_grown_rows), its safety value
    (safety_min) and the verifier's bound on its cells' negativity
    (_negativity_bound) are all read from p and c."""
    n = a.shape[-1]
    xr, h = _real_form(a - eye(n)), unpack_hermitian(x)
    y = xr @ np.concatenate([h.real, h.imag], axis=-2)  # [[Re Y], [Im Y]]
    z = xr @ _adjoint_columns(y)
    r1, r2 = _packed_with_adjoint(y, n), _packed_with_adjoint(z, n) / 2
    r0 = x.reshape(len(x), *(1,) * (r1.ndim - x.ndim), *x.shape[1:])
    p = np.stack(np.broadcast_arrays(r0, r1, r2))
    return p, p[:, :n].sum(axis=1)


def safety_min(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum over s in [0, 1] of omega(B(s)† B(s)) = tr(B(s) rho B(s)†)
    and the s attaining it, for the traces c (3, ...) of a pencil (see pencil).

    The value is the quadratic c0 + c1 s + c2 s² of the pencil's traces:
    c0 = omega(1), c1 = 2 Re omega(X) and c2 = omega(X†X) >= 0. Its minimum
    is at the vertex -c1/(2 c2) when that lies inside (0, 1), and otherwise
    at an endpoint (s = 0 on ties). A vanishing c2 leaves a line, whose
    minimum is at an endpoint too. Projections with omega(P) > 0 are always
    safe; unitaries are unsafe only near omega(U) = -1 at s = 1/2.
    """
    c0, c1, c2 = c
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -c1 / (2.0 * c2)
    inside = (c2 > 0.0) & (vertex > 0.0) & (vertex < 1.0)
    s = np.where(inside, vertex, np.where(c1 + c2 < 0.0, 1.0, 0.0))
    return c0 + s * (c1 + c2 * s), s


def disk_phase_lift(gamma: np.ndarray) -> np.ndarray:
    """Continuous unit-scalar path lambda with lambda*gamma = 1 wherever
    gamma touches the boundary circle.

    Discrete chart rule: the product lambda*gamma is confined to a wedge
    around +1 that closes as |gamma| grows from the engage radius to the
    boundary. Deep inside the disk lambda is held; outside, it is rotated
    by the minimal amount that keeps the product inside the wedge, and is
    snapped to exact alignment when gamma touches the boundary. The wedge's
    half-angle at radius r is pi (1 - r): unconstrained at the center,
    shrinking linearly to 0 on the boundary circle. This keeps
    1 + Re(lambda*gamma) uniformly positive, so linear unitary
    interpolations never approach the Gelfand ideal.
    It checks its input alone, a path in the closed disk (to 1e-9) with
    steps under 0.1, which is all it needs: a rotation turns lambda by at
    most |angle| - pi (1 - r) <= pi r < pi, and on the boundary
    lambda*gamma = |gamma|, within 1e-9 of 1.
    """
    g = np.asarray(gamma, dtype=np.complex128).ravel()
    if g.shape[0] < 2:
        raise ValueError("need at least two samples")
    if np.max(np.abs(g)) > 1.0 + 1e-9:
        raise ValueError("path leaves the closed unit disk")
    steps = np.abs(np.diff(g))
    if steps.max(initial=0.0) >= 0.1:
        raise ValueError("path too coarsely sampled for the phase lift (step >= 0.1)")

    lam, prev = [], 1.0 + 0.0j
    for w in g.tolist():  # on Python scalars, with numpy's bits
        r = abs(w)
        if r >= BOUNDARY_RADIUS:
            prev = w.conjugate() * (1.0 / r)  # a numpy complex scalar / real divides so
        elif r >= 1e-12:
            z, wedge = prev * w, math.pi * (1.0 - r)
            # math.atan2 and np.arctan2 agree to an ulp, so a held lambda
            # needs only the first, and a rotated one takes numpy's angle
            if abs(math.atan2(z.imag, z.real)) > wedge - 1e-12:
                ang = float(np.arctan2(z.imag, z.real))
                if abs(ang) > wedge:
                    prev = prev * cmath.exp(-1j * (ang - math.copysign(wedge, ang)))
        lam.append(prev)
    return np.array(lam)


def _transport_vectors(rhos: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The run edges (0, ..., T) of a density stack (T, n, n) and the
    continued top eigenvector x_t (run samples, n) of each run sample, in
    order: what its transport unitaries are built from (_transport_unitaries).

    Runs are the maximal runs of samples with top eigenvalue > 7/8, and
    runs and gaps alternate between the edges of the near-pure mask,
    starting and ending with a run. On each run the top eigenvector is
    continued with positive-overlap phase alignment, a cumulative product
    of the normalized consecutive overlaps that starts from e_0 on the run
    at the basepoint and from the top eigenvector with its largest entry
    real and positive on the others.
    """
    t_count, n = rhos.shape[0], rhos.shape[-1]
    evals, evecs = np.linalg.eigh(rhos)
    tops = evecs[:, :, -1]
    near_pure = evals[:, -1] > PURITY_THRESHOLD
    if not (near_pure[0] and near_pure[-1]):
        raise ValueError("basepoint samples must be near-pure")

    runs = (0, *(np.flatnonzero(np.diff(near_pure)) + 1).tolist(), t_count)
    vectors = []
    for start, end in zip(runs[0::2], runs[1::2]):
        v = tops[start:end].copy()
        if start == 0:
            v[0] = eye(n)[0]
        overlaps = np.einsum("ti,ti->t", v[:-1].conj(), v[1:])
        size = np.abs(overlaps)
        weak = np.flatnonzero(size < CONTINUATION_MIN_OVERLAP)
        if weak.size:
            raise NumericalGateError(
                f"eigenvector continuation ambiguous at sample {start + 1 + weak[0]} "
                f"(overlap {size[weak[0]]:.3f})"
            )
        k = np.argmax(np.abs(v[0]))
        phases = np.cumprod([np.conj(v[0, k]) / abs(v[0, k]), *(overlaps.conj() / size)])
        vectors.append(v * phases[:, None])
    return runs, np.concatenate(vectors)


def _transport_unitaries(runs: tuple, vectors: np.ndarray) -> np.ndarray:
    """The transport unitaries U_t (T, n, n) of run edges (0, ..., T) and
    the vectors (run samples, n) of the run samples in order
    (_transport_vectors): one call of projective.transport_to_e0 sends
    every run vector to e_0. Inside a gap any unitary is admissible (a
    unitary cannot make a non-pure state pure), so the held endpoint
    unitary is rotated to the next run's initial transport along the
    unitary-group geodesic over the gap (_unitary_powers)."""
    spans = list(zip(runs[0::2], runs[1::2]))
    in_run = np.repeat(np.arange(len(runs) - 1) % 2 == 0, np.diff(runs))  # runs and gaps in turn
    unitaries = np.empty((runs[-1], vectors.shape[-1], vectors.shape[-1]), dtype=np.complex128)
    unitaries[in_run] = transport_to_e0(vectors)
    for (_, gap_start), (right, _) in zip(spans[:-1], spans[1:]):
        left = gap_start - 1
        f = (np.arange(gap_start, right) - left) / (right - left)
        v = unitaries[right] @ unitaries[left].conj().T
        unitaries[gap_start:right] = _unitary_powers(v, f) @ unitaries[left]
    return unitaries


def _lifted(unitaries: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """lambda_t U_t for the unitaries U_t and the phases k_t of lambda_t =
    exp(2 pi i k_t / U_DEN)."""
    return np.exp((2j * np.pi / U_DEN) * phases)[:, None, None] * unitaries


def level_unitaries(level: Level) -> np.ndarray:
    """A level's operators A_t = lambda_t U_t (T, b, b), rebuilt from its
    run edges, run vectors and phases through the calls the contractor
    made them with, so every expansion, from its recipe or its document,
    rebuilds the contractor's bit for bit."""
    return _lifted(_transport_unitaries(level.runs, (level.vectors / U_DEN).view(np.complex128)), level.phases)


def _unitary_powers(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V^f = exp(f log V), principal branch, (G, n, n) for a unitary V and
    fractions f (G,): Q diag(e^{i f θ}) Q† from one eig, V = Q diag(e^{iθ}) Q†.
    Q is the QR factor of eig's vectors, which are not orthonormal for a
    repeated eigenvalue."""
    evals, evecs = np.linalg.eig(v)
    q = np.linalg.qr(evecs)[0]
    return (q * np.exp(1j * f[:, None] * np.angle(evals))[:, None, :]) @ q.conj().T


def _rule_rows(c: np.ndarray, rows: int, lo: int, hi: int) -> np.ndarray:
    """The s rows k = lo + 1, ..., hi (hi - lo, T) of a stage of `rows`
    rows whose column t has the normalizer c(s) = c[0, t] + c[1, t] s +
    c[2, t] s², the traces of its pencil (see safety_min): row k's s is
    where ∫_0^s ds/c has reached k / rows of its value on [0, 1], clipped
    to [0, 1], and the last row, k = rows, is 1 exactly. Every entry is
    computed per (row, column), so a chunk of rows is those rows of the
    whole table bit for bit.

    With D = 4 c0 c2 - c1², w = √|D| and f = k / rows, the integral
    inverts in closed form: θ = f atan2(w, 2c0 + c1) for D > 0 and
    f atanh(w / (2c0 + c1)) for D < 0, g = sin θ / w and h = cos θ (sinh
    and cosh for D < 0), and s = 2 c0 g / (h - c1 g); at w = 0, the limit
    g = f / (2c0 + c1) and h = 1. No term cancels as D -> 0. As c(s) is
    the squared norm of a line in s, D >= 0 by Cauchy-Schwarz, so the
    hyperbolic branch is computed only on the columns where rounding or a
    non-finite c makes D <= 0, or where c is constant, as at the basepoint
    (D = 0). The rule needs c > 0 on [0, 1], and a column where
    that fails is failed by the verifier as unsafe whatever its rows; so
    any rows it gives are sound.
    """
    c0, c1, c2 = c
    f = (np.arange(lo + 1, hi + 1) / rows)[:, None]
    d, x = 4.0 * c0 * c2 - c1 * c1, 2.0 * c0 + c1
    w = np.sqrt(np.abs(d))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = f * np.arctan2(w, x)
        g, h = np.sin(theta) / w, np.cos(theta)
        flat = ~(d > 0.0)  # D <= 0, or NaN: w = 0 or the hyperbolic branch
        if flat.any():
            w, x = w[flat], x[flat]
            theta = f * np.arctanh(w / x)
            g[:, flat] = np.where(w > 0.0, np.sinh(theta) / w, f / x)
            h[:, flat] = np.where(w > 0.0, np.cosh(theta), 1.0)
        s = np.clip(2.0 * c0 * g / (h - c1 * g), 0.0, 1.0)
    if hi == rows:
        s[-1] = 1.0
    return s


def _chunk_rows(c: np.ndarray, rows: int, entries: int) -> Iterator[np.ndarray]:
    """The s rows (_rule_rows) of a stage of `rows` rows and pencil traces c
    by chunks of CHUNK_ENTRIES // entries rows, at least one, for rows of
    `entries` packed entries (b² T): every pass over a stage takes them so."""
    size = max(1, CHUNK_ENTRIES // entries)
    for lo in range(0, rows, size):
        yield _rule_rows(c, rows, lo, min(lo + size, rows))


def _stage_rows(p: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows of a stage whose column t has the packed pencil p[:, :, t] and
    traces c[:, t] (see pencil), packed (linalg.pack_hermitian) as
    (b², rows, T): column t of row k is the state at s[k, t],
    (p0 + s (p1 + s p2)) / (c0 + s (c1 + s c2)), Hermitian by its layout,
    and unjudged: a B(s) in the Gelfand ideal of its column's state makes
    a non-finite cell, which the verifier flags."""
    p, (c0, c1, c2) = p[:, :, None], c  # p (3, b², 1, T)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.multiply(s, p[2])  # the one (b², rows, T) array, in the expression's order
        np.add(p[1], out, out=out)
        np.multiply(s, out, out=out)
        np.add(p[0], out, out=out)
        return np.divide(out, c0 + s * (c1 + s * c2), out=out)


def _rows_for(target_step: float, movement: float) -> int:
    """Rows, at least MIN_ROWS, that step `movement` (>= 0) by about `target_step` (> 0)."""
    return max(MIN_ROWS, int(np.ceil(movement / target_step)))


def _grown_rows(p: np.ndarray, c: np.ndarray, rows: int, target: float) -> int:
    """`rows` for a stage of pencil (p, c), unless an s-step of its rows at
    the rule's `rows` rows (_rule_rows), from the stage's input R0 on, is
    over the modulus 2 target: then ceil(rows step / target), which aims
    the largest step at target again. It grows once, and the verifier
    judges the rows it gives. The steps are bounded from the pencil alone
    (_gram_steps), a chunk of rows at a time, each chunk's b² T packed
    entries at most CHUNK_ENTRIES, and only those whose bounds let them
    reach the modulus make their two cells and take a trace norm
    (_bounded_steps): no block of the stage's rows is formed, and a stage
    where no step can reach the modulus makes no cell and takes no
    eigensolver. The answer rests on the exact norms of the steps that can
    pass the modulus alone, so it is that of a scan of the block's every
    step."""
    steps, step, before = _gram_steps(p, c), 0.0, None
    for s in _chunk_rows(c, rows, p[0].size):
        step, before = np.maximum(step, _bounded_steps(*steps(s, before), 2.0 * target).max()), s[-1]
    return rows if step <= 2.0 * target else int(np.ceil(rows * step / target))


def _gram_steps(p: np.ndarray, c: np.ndarray):
    """The bounds of a stage of pencil (p, c) on its s-steps, a chunk of
    rows at a time: steps(s, before) gives upper bounds on ‖Δ‖_F² of the
    s-steps Δ into each of a chunk's s rows s (rows, T), the first from the
    row at s = before (T,), or from the stage's input R0 where before is
    None, as _bounded_steps takes them, with their exact norms on demand:
    ((0, upper), 0, b, exact). The terms of each column, its Gram matrix,
    norms, slack, floor and rounding factor, are formed here once a stage.
    No lower bound is taken: it would raise the probe's floor, the
    modulus, only on a stage whose rows grow, and spare exact norms there
    alone.

    With c(s) = c0 + s c1 + s² c2 and the traceless K1 = c0 R1 - c1 R0,
    K2 = c0 R2 - c2 R0 and K3 = c1 R2 - c2 R1, the step between the cells
    at s < s' is (s' - s) [K1 + (s + s') K2 + s s' K3] / (c(s) c(s')), so
    ‖Δ‖_F = (s' - s) √(qᵀGq) / (c(s) c(s')) for q = (1, s + s', s s') and
    the Gram matrix G of the K's in the packed inner product (Σ diag + 2 Σ
    off, which is ‖·‖_F²). The first step leaves R0, which differs from
    the cell R0 / c0 at s = 0 by |1 - 1/c0| ‖R0‖_F. The bounds hold for the
    cells _stage_rows computes: G, qᵀGq and c(s) are widened by their
    rounding (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 3), c(s) against a floor under the column's safety minimum
    (safety_min), and each cell moves from the exact form by at most its
    rounding, (2b + 8) u P (1 + Σ|c_i| / floor) / floor with P = Σ ‖R_i‖_F.
    A column whose floor is not positive reads infinite bounds. exact(keep)
    makes the two cells of each step where `keep` with _stage_rows, R0 for
    the stage's first step, and takes their difference's trace norm
    (linalg._hermitian_trace_norm), as a scan of the stage's block would."""
    u, b = np.finfo(float).eps / 2, math.isqrt(p.shape[1])
    c0, c1, c2 = c
    k = np.stack([c0 * p[1] - c1 * p[0], c0 * p[2] - c2 * p[0], c1 * p[2] - c2 * p[1]])
    weights = np.where(np.arange(b * b) < b, 1.0, 2.0)[:, None]
    g = np.einsum("ikt,jkt->ijt", k * weights, k)
    norms = np.sqrt(np.einsum("ikt,ikt->it", p * weights, p))  # ‖R_i‖_F
    kappa = np.abs(c[[0, 0, 1]]) * norms[[1, 2, 2]] + np.abs(c[[1, 2, 2]]) * norms[[0, 0, 1]]  # >= ‖K_i‖_F
    slack = 2 * (b * b + 24) * u * (kappa[0] + 2.0 * kappa[1] + kappa[2]) ** 2  # on qᵀGq, s and s' in [0, 1]
    size = np.abs(c).sum(axis=0)
    least = safety_min(c)[0] - 12 * u * size  # under c(s) and its computed value, s in [0, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        up = np.where(least > 5 * u * size, (1.0 + 8 * u) / (1.0 - 5 * u * size / least) ** 2, np.inf)
        cell = (2 * b + 8) * u * norms.sum(axis=0) * (1.0 + size / least) / least

    def steps(s: np.ndarray, before) -> tuple:
        first = before is None
        ends = np.concatenate([np.zeros((1, s.shape[1])) if first else before[None], s])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q1, q2 = ends[:-1] + s, ends[:-1] * s
            quad = g[0, 0] + q1 * (2.0 * g[0, 1] + q1 * g[1, 1]) + q2 * (2.0 * (g[0, 2] + q1 * g[1, 2]) + q2 * g[2, 2])
            den = c0 + ends * (c1 + ends * c2)
            if first:
                den[0] = c0
            scale = (s - ends[:-1]) / (den[:-1] * den[1:])
            # √(qᵀGq + slack) <= √(qᵀGq) + √slack
            upper = (scale * np.sqrt(np.maximum(quad, 0.0)) + scale.max(axis=0) * np.sqrt(slack)) * up + 2.0 * cell
            if first:  # R0 differs from the cell at s = 0
                upper[0] += norms[0] * np.abs(1.0 - 1.0 / c0) * (1.0 + 8 * u)

        def exact(keep: np.ndarray) -> np.ndarray:
            row, col = np.nonzero(keep)
            cells = _stage_rows(p[:, :, col], c[:, col], np.stack([ends[row, col], s[row, col]]))
            return _hermitian_trace_norm(cells[:, 1] - np.where(first & (row == 0), p[0][:, col], cells[:, 0]))

        return (0.0, upper * upper), 0.0, b, exact

    return steps


def _bounded_steps(f2: tuple, tr: np.ndarray, n: int, exact, floor: float) -> np.ndarray:
    """Trace norms of a stack of Hermitian n x n steps, from bounds (lower,
    upper) on each step's F² = ‖Δ‖_F² and on its |tr Δ|: from its packed
    difference (the verifier, _masked_steps) or from its stage's pencil
    (the row probe, _gram_steps). `floor` is a threshold, or the largest
    exact norm of the steps scanned before, and is raised here to the
    stack's largest lower bound. A step takes its exact norm, exact(keep)
    for the steps where `keep`, where its upper bound is positive and
    reaches the raised floor. Any other step reads 0.0: it is under the
    floor, so it is neither the largest step so far nor over the
    threshold. The largest step and all its ties keep their exact norms,
    and the largest is at least every step's lower bound.

    Every Hermitian Δ has max(F, √(2F² - (tr Δ)²)) <= ‖Δ‖₁ <= √n F: the
    left from ‖Δ‖₁² = (P + N)² and F² <= P² + N² for its positive and
    negative parts P, N, and (P - N)² = (tr Δ)²; the right by
    Cauchy-Schwarz. Each side moves by the relative margin STEP_MARGIN +
    n² eps, which covers the exact norm's error (1e-13 F for the closed
    form, eigvalsh's near n eps on each of n eigenvalues) and the rounding
    of F² and tr Δ from a packed difference. A step whose bound is NaN
    keeps its exact norm."""
    margin = STEP_MARGIN + n * n * np.finfo(float).eps
    lower2, upper2 = f2
    upper = np.sqrt(n * upper2) * (1.0 + margin)
    lower = np.sqrt(np.maximum(lower2, 2.0 * lower2 - tr * tr)) * (1.0 - margin)
    floor = float(np.fmax.reduce(lower, axis=None, initial=floor))
    norms = np.zeros(upper.shape)
    keep = (upper != 0.0) & ~(upper < floor)
    if keep.any():
        norms[keep] = exact(keep)
    return norms


def _rectify(x: np.ndarray, target: float, admit):
    """The level (Level) that deforms the density stack packed as x (b², T)
    (linalg.pack_hermitian) so that every sample gives weight one to the
    corner projection P^b_1 (no weight on the last basis vector), and its
    last row, packed.

    Eigenvector-transport unitaries come first: the continued top
    eigenvectors are rounded, here alone, to integer numerators over U_DEN,
    and the unitaries built from them (_transport_unitaries), whose
    unitarity the verifier judges, take the disk phase lift of t ->
    omega_t(U_t) = tr(rho_t U_t), clipped onto the closed disk, that keeps
    the unitary interpolation outside every Gelfand ideal; each lifted
    phase lambda_t is rounded to a multiple k_t of 2 pi / U_DEN, and A_t =
    lambda_t U_t (_lifted). The level keeps those integers, from which
    every expansion rebuilds A_t bit for bit (level_unitaries). Then one
    pass makes the level's two stages, the linear interpolations with s
    lambda_t U_t and with s P^b_1, each from its one pencil on the packed
    stage input: its exact safety minimum over s in [0, 1] must clear
    SAFETY_FLOOR in every column; its last row, at s = 1 as the expansion
    builds it (_stage_rows), measures the stage's movement and is the next
    stage's input; its rows step by about `target`, from its movement
    (_rows_for), and pass through admit, which may refuse them, before
    they are probed (_grown_rows), and again as the probe leaves them.
    """
    rhos = unpack_hermitian(x)
    runs, vectors = _transport_vectors(rhos)
    vectors = np.round(vectors.view(np.float64) * U_DEN).astype(np.int64)  # each entry's re then im
    unitaries = _transport_unitaries(runs, (vectors / U_DEN).view(np.complex128))
    gamma = np.einsum("tij,tji->t", rhos, unitaries)
    gamma = gamma / np.maximum(np.abs(gamma), 1.0)  # onto the closed disk; a rounded x_0 = 0 gives 0
    phases = np.round(np.angle(disk_phase_lift(gamma)) * (U_DEN / (2.0 * np.pi))).astype(np.int64)

    lifted = _lifted(unitaries, phases)
    rows, last = [], np.ones((1, x.shape[1]))
    for kind, a in (("unitary", lifted), ("projection", projection_matrix(rhos.shape[-1], 1))):
        p, c = pencil(a, x)
        failing = np.flatnonzero(~(safety_min(c)[0] > SAFETY_FLOOR))
        if failing.size:
            raise NumericalGateError(f"{kind} interpolation unsafe at sample {failing[0]}")
        out = _stage_rows(p, c, last)[:, 0]
        count = admit(_rows_for(target, _masked_steps(out - x, True, 0.0).max()))
        rows.append(admit(_grown_rows(p, c, count, target)))
        x = out
    return Level(tuple(rows), runs, vectors, phases), x


def _corner_rows(b: int, n: int) -> np.ndarray:
    """The packed rows (linalg.pack_hermitian) of an n x n matrix that hold
    its leading b x b corner, in the corner's packed order: b's diagonal,
    and the real and imaginary parts of each upper pair (i, j), i < j < b."""
    i, j = upper_pairs(b)
    pair = i * n - i * (i + 1) // 2 + j - i - 1  # (i, j)'s index among n's upper pairs
    return np.concatenate([np.arange(b), n + pair, n + n * (n - 1) // 2 + pair])


def _compress(x: np.ndarray, b: int) -> np.ndarray:
    """The leading b x b corners of a packed stack x (m², ...), m > b, each
    times the reciprocal of its trace, packed: as a complex corner divided
    by its real trace is, bit for bit."""
    rho = x[_corner_rows(b, math.isqrt(len(x)))]
    return rho * (1.0 / rho[:b].sum(axis=0))


def _packed_corner(x: np.ndarray, n: int) -> np.ndarray:
    """A packed stack x (b², ...) of b x b matrices as the packed stack
    (n², ...) of their n x n zero-padding (_corner_rows)."""
    out = np.zeros((n * n, *x.shape[1:]))
    out[_corner_rows(math.isqrt(len(x)), n)] = x
    return out


def sheet_blocks(sheet: HomotopySheet, loop: StateLoop) -> Iterator[tuple]:
    """A sheet's cells on `loop`, a chunk of rows at a time, as (stage, c,
    block): `stage` the recipe stage (_stages) that made the block, one
    object for every chunk of the stage, `c` the traces of its pencil (see
    pencil), and the block packed (linalg.pack_hermitian) at the stage's own
    size, (b², rows, T), b x b cells that stand for their n x n
    zero-padding, CHUNK_ENTRIES // (b² T) rows and at least one, as
    _grown_rows takes them. Row 0, the loop's read-only packed rows
    (StateLoop.x), comes first, as a block (n², 1, T) with no stage and no
    traces (None, None), then each stage's rows in order. Each stage forms
    its pencil once, on the last row so far, packed, row 0 included, and
    evaluates it chunk by chunk at the s rows that the rule derives from the
    pencil's traces (_rule_rows, _stage_rows); a level below M_n takes its
    input compressed to its corner block (_compress). Every cell and
    operator is made here, each cell the same bit for bit however the rows
    are chunked, so a sheet read back from its document expands on its input
    loop to the contractor's cells bit for bit. A loop whose n or T the
    recipe does not fit raises ValueError. Nothing here judges a cell:
    verify_homotopy does, with the traces of the pencil that made it."""
    n, x = sheet.n, loop.x  # x: the last row so far, on its block
    if x.shape != (n * n, t := sheet.shape[1]):
        raise ValueError(f"a recipe on M_{n} over {t} columns does not fit {(loop.n_samples, loop.n, loop.n)}")
    yield None, None, x[:, None]
    for stage in _stages(n, sheet.levels):
        _, si, b, ops, rows = stage
        if si == 0 and b < n:
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero trace is the verifier's
                x = _compress(x, b)
        p, c = pencil(ops, x)
        for s in _chunk_rows(c, rows, x.size):  # as _grown_rows takes them
            block, rows = _stage_rows(p, c, s), rows - len(s)  # rows: those after this chunk
            del s  # so that the caller's chunk is the one array of its size held here
            if not rows:
                del p  # so that the packed pencil is not held while the caller reads the last chunk
                x = block[:, -1].copy()
            yield stage, c, block
            del block  # so that only the caller holds a chunk while the next is made


def contract_loop(loop: StateLoop) -> HomotopySheet:
    """Contract a based loop to the constant loop at the basepoint.

    Iterates rectification on the corner-block algebras: after level k the
    loop gives weight one to P^n_k, and the block homotopy is pushed
    forward by (1 - P) + (embedded block operator), that is, its cells are
    zero-padded to n x n. At k = n-1 the loop is pinned to the basepoint.
    Each level's recipe is built from the last rows alone, packed as
    sheet_blocks holds them, its rows aimed at steps of half the loop's
    modulus, and the sheet is returned as its recipe, unexpanded. A loop
    whose sheet would hold over MAX_SHEET_BYTES even at MIN_ROWS a stage is
    refused first, and each stage is checked again with its rows before
    they are probed, and with the rows the probe leaves. A sheet's count
    grows with its stage of most rows alone (_held_bytes), so checking
    each stage's rows as they come checks every recipe they can make.
    Beyond the budget it refuses only what it cannot build from; the
    verifier alone judges a level's input states and operators.
    """
    n, t_count = loop.n, loop.n_samples

    def admit(rows: int) -> int:
        _check_sheet_budget(_held_bytes(n, t_count, [rows]))
        return rows

    admit(MIN_ROWS)  # the least recipe: every stage of MIN_ROWS rows

    x, levels = loop.x, []  # level 0 reads packed row 0, as sheet_blocks does
    for b in range(n, 1, -1):  # the corner block algebra M_b of each level
        if b < n:
            x = _compress(x, b)
        level, x = _rectify(x, loop.modulus / 2, admit)
        levels.append(level)
    return HomotopySheet(n, levels)


@dataclass
class VerifyReport:
    passed: bool
    violations: list
    max_cell_step: float
    shape: tuple[int, int]
    safety_min: float | None = None  # smallest exact safety value checked
    safety_at: tuple[int, int, int] | None = None  # its (level, stage, column)
    max_step_at: tuple[int, int] | None = None  # the cell the largest step leaves

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
    """Certify the contraction of `input_loop` by the recipe `sheet` in one
    pass over its stages on that loop, a chunk of rows at a time
    (sheet_blocks), holding one chunk and the row before it; a recipe whose
    n or T does not fit the loop raises ValueError. It is the only judge of
    the cells: every cell a state to CELL_TOL, the basepoint columns
    constant, the final row constant at the basepoint, and all
    adjacent-cell steps within the modulus, else one "step-modulus"
    violation at the largest step (on an exact tie, the one scanned first:
    stage by stage, its s-steps, from the row before it on, then its
    t-steps, each kind in C order; so the largest of each kind is held
    over a stage's chunks, and the first of the three largest is taken at
    its end). The recipe,
    checked once a stage, at its first chunk: every operator the expansion
    rebuilds a unitary to OPERATOR_TOL, and the exact safety minimum
    (safety_min) of every column above SAFETY_FLOOR on the traces of the
    pencil that made the stage's cells, which sheet_blocks hands over with
    each chunk, so the verifier forms no pencil and rebuilds no stage
    input; columns whose input is not finite are skipped, and a recipe in a
    Gelfand ideal fails as "unsafe". The s rows are the rule's, in [0, 1]
    and ending at 1 (_rule_rows), so they take no check. A cell with a NaN
    or infinite entry is one "non-finite" violation, valued by the count of
    such entries; it is zeroed for, and skipped by, the rest. Violations
    are listed by kind, each kind in C order of its cell; the recipe's come
    last, stage by stage, at (level, stage, column) indices into the
    recipe.

    Every chunk, row 0 included, is read in the packed layout, whose cells
    are Hermitian by construction, so no cell takes a Hermiticity scan:
    row 0 is the loop's packed rows (StateLoop.x), made once from its
    validated samples and read-only. Row 0 has no recipe stage before it
    and no step from an earlier row. Each chunk is read at its own size; the
    s-step into a level's first row zero-pads that row by one (_packed_corner).

    Positivity is checked where the construction does not guarantee it.
    Row 0 takes the negative-eigenvalue scan, eigvalsh's λmin of each
    packed sample (linalg._hermitian_min_eigenvalues), which decides it and
    gives a violation's value; like its finiteness and trace checks, it
    repeats the loop's validation on purpose, so that the verdict rests on
    no check made outside the verifier. That bounds each column's
    negativity, -λmin, by at least STATE_EIG_TOL, widened by eigvalsh's error
    (linalg.POSITIVITY_MARGIN). A stage cell is B rho B† / tr with
    rho the stage's input, the last row or, at a level's first stage, its
    corner block over its trace, whose negativity is at most the last
    row's over that trace; so each stage carries the bound of its column
    on to its cells (_negativity_bound). Only the columns whose bound
    exceeds CELL_TOL take the scan: a column the bound clears is one the
    scan passes. Steps are bounded by Frobenius norms first, and only
    those that can be the largest so far take an exact trace norm
    (_bounded_steps), so the largest step and its cell are those of an
    exact scan of every step. An edge-column or final-row cell's distance
    from the basepoint takes its exact trace norm only where its bound
    √b‖Δ‖_F can pass CELL_TOL (_masked_steps with no lower bound), so
    every distance over CELL_TOL is reported with its exact value."""
    s_dim, t_dim = sheet.shape
    found: dict = {k: [] for k in ("non-finite", "trace", "negative-eigenvalue", "left-column", "right-column")}
    recipe = []
    step = (0.0, (0, 0))  # the largest step along s or t, at its cell, of the stages before
    held = [step, step]  # the stage's largest s-step and t-step so far; with step, the next steps' floor
    safety: tuple = (None, None)

    def scanned(kind: int, d: np.ndarray, keep, row: int):
        held[kind] = _largest(held[kind], _masked_steps(d, keep, max(step[0], *(v for v, _ in held))), row)

    row, current = 0, None
    for stage, c, x in sheet_blocks(sheet, input_loop):
        at, b = lambda s, t: (row + s, t), math.isqrt(len(x))  # the chunk's b x b cells
        nonfinite = ~np.isfinite(x)  # each packed off-diagonal pair is two entries of the cell
        bad = nonfinite[:b].sum(axis=0) + 2 * nonfinite[b:].reshape(2, -1, *x.shape[1:]).any(axis=0).sum(axis=0)
        del nonfinite
        ok = bad == 0
        found["non-finite"] += _flags("non-finite", bad, ~ok, 0.0, at)
        if not ok.all():
            x = np.where(ok, x, 0.0)
        traces = np.abs(x[:b].sum(axis=0) - 1.0)
        found["trace"] += _flags("trace", traces, (traces > CELL_TOL) & ok, CELL_TOL, at)
        if stage is not current:  # a stage's first chunk: the stage before settles, and its recipe is checked
            step, held, current = max([step, *held], key=lambda v: v[0]), [(0.0, (0, 0))] * 2, stage
            li, si, _, ops, _ = stage
            of_stage = lambda t: (li, si, t)
            norm2 = 1.0  # ‖P^b_1‖₂², the projection stage's
            if si == 0:  # the projection stage's operator is P^b_1 by construction
                defect = _unitarity_defect(ops)
                recipe += _flags("not-unitary", defect, ~(defect <= OPERATOR_TOL), OPERATOR_TOL, of_stage)
                norm2 = _norm2_bound(defect, b)
                if li:  # the stage's input is the last row's corner block over its trace
                    with np.errstate(divide="ignore", invalid="ignore"):
                        corner = prev_x[:b].sum(axis=0)
                        negativity = np.where(corner > 0.0, negativity / corner, np.inf)
            low = safety_min(c)[0]
            value = np.where(prev_ok, low, np.inf)
            recipe += _flags("unsafe", value, ~(value > SAFETY_FLOOR) & prev_ok, SAFETY_FLOOR, of_stage)
            t = int(np.argmin(value))
            if prev_ok[t] and (safety[0] is None or value[t] < safety[0]):
                safety = (float(value[t]), (li, si, t))
            negativity = _negativity_bound(negativity, norm2, c, low, b)
            scan = ~(negativity <= CELL_TOL)
        if stage:  # a chunk of the stage's rows, and the s-steps into it from the row before
            neg = np.zeros(x.shape[1:])
            if scan.any():
                neg[:, scan] = -_hermitian_min_eigenvalues(x[:, :, scan])
            scanned(0, ((x[:, 0] if len(x) == len(prev_x) else _packed_corner(x[:, 0], b + 1)) - prev_x)[:, None],
                    (ok[0] & prev_ok)[None], row - 1)  # a level's first row zero-padded by one
        else:
            neg = -_hermitian_min_eigenvalues(x)
            negativity = np.maximum(neg[0], STATE_EIG_TOL)
            negativity += POSITIVITY_MARGIN * (np.abs(x[:b, 0]).sum(axis=0) + b * negativity)
        found["negative-eigenvalue"] += _flags("negative-eigenvalue", neg, neg > CELL_TOL, CELL_TOL, at)
        scanned(0, x[:, 1:] - x[:, :-1], ok[1:] & ok[:-1], row)
        scanned(1, x[:, :, 1:] - x[:, :, :-1], ok[:, 1:] & ok[:, :-1], row)
        dev = _masked_steps(x[:, :, [0, -1]] - np.eye(b * b, 1)[:, None], ok[:, [0, -1]], CELL_TOL, lower=False)
        for i, (col, label) in enumerate(((0, "left-column"), (t_dim - 1, "right-column"))):
            found[label] += _flags(label, dev[:, i], dev[:, i] > CELL_TOL, CELL_TOL, lambda s: (row + s, col))
        prev_x, prev_ok = x[:, -1].copy(), ok[-1]
        row += x.shape[1]
        del x

    violations = [v for kind in found.values() for v in kind]
    last = _masked_steps(prev_x - np.eye(len(prev_x), 1), prev_ok, CELL_TOL, lower=False)
    violations += _flags("final-row", last, last > CELL_TOL, CELL_TOL, lambda t: (s_dim - 1, t))
    step = max([step, *held], key=lambda v: v[0])  # the first of the largest, as _largest takes it
    max_step = float(step[0])
    if not max_step <= modulus:  # a NaN modulus or step fails too
        violations.append(("step-modulus", step[1], max_step, modulus))
    violations += recipe
    return VerifyReport(
        passed=(len(violations) == 0),
        violations=violations,
        max_cell_step=max_step,
        shape=(s_dim, t_dim),
        safety_min=safety[0],
        safety_at=safety[1],
        max_step_at=step[1],
    )


def _norm2_bound(defect: np.ndarray, b: int) -> np.ndarray:
    """A bound on ‖A‖₂² for operators on M_b whose computed max |A A† - 1|
    is `defect` (_unitarity_defect): ‖A A†‖₂ <= 1 + b max |A A† - 1|, and the
    computed maximum is within (4b + 4) u (1 + b defect) of the exact one."""
    u = np.finfo(float).eps / 2
    return 1.0 + b * (defect + (4 * b + 4) * u * (1.0 + b * defect))


def _negativity_bound(negativity: np.ndarray, norm2, c: np.ndarray, low: np.ndarray, b: int) -> np.ndarray:
    """A bound, per column, on the negativity -λmin of every cell of a
    stage on M_b, for its input's bound `negativity`, its operators' bound
    norm2 >= ‖A‖₂², the traces c (3, T) of its pencil and their exact
    safety minimum `low` (safety_min).

    If rho >= -δ 1, then B rho B† >= -δ B B† >= -δ ‖B‖₂² 1, and ‖B(s)‖₂ <=
    max(1, ‖A‖₂) for s in [0, 1]; the cell divides by c(s) >= low. So in
    exact arithmetic the bound is δ max(1, ‖A‖₂)² / low. The cells are
    computed: the pencil's products (pencil: two real products of inner
    length 2b, from X = A - 1), its Horner form and the division
    (_stage_rows), and the input's own division by its trace (_compress)
    each move a cell by a few u times the Frobenius norms of its terms,
    which ‖X‖₂ <= 1 + ‖A‖₂ and ‖rho‖_F <= tr rho + 2bδ bound (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3, with
    γ_k = k u / (1 - k u)). The one rounding term added below covers them,
    low's own rounding, and eigvalsh's error of at most 14 u ‖H‖₂ (see
    linalg.POSITIVITY_MARGIN), so a cell under a bound of CELL_TOL passes
    eigvalsh's scan too. A column whose low is not positive gets an
    infinite bound, and a NaN anywhere gives NaN; either takes the scan."""
    u = np.finfo(float).eps / 2
    m2 = np.maximum(norm2, 1.0)
    size = np.abs(c[0]) + 2 * b * negativity  # >= ‖rho‖_F
    rounding = (9 * math.sqrt(b) * (2 * b + 2) + 40) * u * (2.0 + np.sqrt(m2)) ** 2 * size
    low = low - 6 * u * np.abs(c).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(low > 0.0, (negativity * m2 + rounding) / low, np.inf)


def _masked_steps(d: np.ndarray, keep, floor: float, lower: bool = True) -> np.ndarray:
    """_bounded_steps of a packed stack d (n², ...) of Hermitian steps where
    `keep` (True: everywhere), and of 0.0 elsewhere, with F² = Σ diag² +
    2 Σ offdiag² and tr Δ from the packed rows. With lower=False no lower
    bound raises `floor`, a threshold, so every step over it keeps its
    exact norm, as a gate that flags each such step needs."""
    n = math.isqrt(len(d))
    d = d if np.all(keep) else np.where(keep, d, 0.0)
    f2 = np.einsum("k...,k...->...", d[:n], d[:n]) + 2.0 * np.einsum("k...,k...->...", d[n:], d[n:])
    return _bounded_steps((f2 if lower else 0.0, f2), d[:n].sum(axis=0), n,
                          lambda keep: _hermitian_trace_norm(d[:, keep]), floor)


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
    depolarization; endpoints pinned to the basepoint. Sample t is
    u_t d_t u_t† with u_t = exp(i h_t), taken for the whole stack from one
    eigh of the Hermitian h_t as V diag(e^{iw}) V†."""
    if n < 2:
        raise ValueError("loops live on M_n with n >= 2")
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gens.append((a + a.conj().T) / 2)
    c1, c2 = rng.uniform(0.3, 0.7, size=2)
    t = np.linspace(0.0, 1.0, n_samples + 1)[:, None, None]
    w, v = np.linalg.eigh(c1 * np.sin(np.pi * t) * gens[0] + c2 * np.sin(2 * np.pi * t) * gens[1])
    u = (v * np.exp(1j * w)[:, None]) @ v.conj().swapaxes(-1, -2)
    mix = 0.18 * np.sin(np.pi * t[:, 0]) ** 2
    d = np.where(np.arange(n) == 0, 1 - mix, mix / (n - 1))
    rhos = (u * d[:, None]) @ u.conj().swapaxes(-1, -2)
    rhos = (rhos + rhos.conj().swapaxes(-1, -2)) / 2
    return StateLoop(n, rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None])


def constant_loop(n: int = 2, n_samples: int = 32) -> StateLoop:
    return StateLoop(n, np.repeat(basis_state(n).rho[None], n_samples + 1, axis=0))


def _snap(rho: np.ndarray) -> np.ndarray:
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real
