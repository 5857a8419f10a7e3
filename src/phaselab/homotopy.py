"""Discrete loop rectification in the state space of M_n(C).

A based loop of density matrices is contracted to the constant loop by
the action of explicit operator families: unitary eigenvector transport,
batched over each near-pure run and continuous wherever the top
eigenvector keeps a nonzero e_0 component (projective.transport_to_e0),
with a disk phase lift to keep linear interpolations outside the Gelfand
ideal; compression onto nested corner blocks; and a verifier that
certifies the resulting two-parameter sheet cell by cell. A sheet is held
as its recipe: per level k on the corner block b = n - k, its T operators
A_t = lambda_t U_t, and the row counts of its two stages, the operators'
and the corner projection P^b_1's. A sheet document stores what the
operators are rebuilt from (level_unitaries): the edges of the level's
near-pure runs, the continued top eigenvector of each run sample and the
phase lambda_t = exp(2 pi i k_t / U_DEN) of each sample, as integers over
U_DEN. A stage's s rows are no part of it: each column's follow from the
column's pencil (_rule_rows). Its cells are evaluated on the loop it is
given, row 0, one stage at a time (sheet_blocks), and the verifier checks
each stage's block of rows, and the traces of the one pencil that made
it, as it comes.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (_hermitian_min_eigenvalues, _hermitian_trace_norm, eye, pack_hermitian,
                     trace_norm, unpack_hermitian)
from .projective import transport_to_e0
from .states import basis_state, validate_densities
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
# most 2^40 in modulus, and so an exact double, and rounding moves a phase
# by at most 2.9e-12. The operators rebuilt from them are unitary to
# rounding.
U_DEN = 2**40
# Bytes a sheet may hold (_held_bytes): its recipe and BLOCK_COPIES blocks
# of complex cells of its stage of most rows. Stage blocks are packed, half
# those bytes, and beyond the recipe tracemalloc reads a contraction, its
# row probes included, at 0.3 to 2.0 blocks and a verification at 1.7 to
# 2.5 (n = 2 to 40, 17 to 901 samples). Six copies would admit the n = 50,
# 101-sample loop that the CLI refuses. The count covers arrays only: on
# sheets under about 1 MB, tracemalloc's fixed overhead can exceed it
# (constant_loop(2, 16) reads 3.7 blocks).
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
    complex array of densities, first sample == last. The samples are
    validated as given (states.validate_densities) and stored as their
    Hermitian part (ρ + ρ†)/2: exactly Hermitian, and bit for bit the
    samples of an exactly Hermitian stack. So the contractor, the
    expansion and the verifier read one row 0."""

    n: int
    rhos: np.ndarray

    def __post_init__(self):
        rhos = validate_densities(self.rhos)
        if self.n < 2:
            raise ValueError("loops live on M_n with n >= 2")
        if rhos.ndim != 3 or rhos.shape[1:] != (self.n, self.n):
            raise ValueError("loop samples must be states on M_n")
        if len(rhos) < 3:
            raise ValueError("a loop needs at least three samples")
        self.rhos = (rhos + rhos.conj().swapaxes(-1, -2)) / 2
        _check_based(self.rhos)

    @property
    def n_samples(self) -> int:
        return len(self.rhos)

    @cached_property
    def max_step(self) -> float:
        """Largest trace-norm step between consecutive samples."""
        return float(trace_norm(self.rhos[1:] - self.rhos[:-1]).max())

    @cached_property
    def modulus(self) -> float:
        """The step modulus a contraction of this loop is built for and judged by."""
        return MODULUS_FACTOR * max(self.max_step, STEP_FLOOR)


class Level(NamedTuple):
    """Rectification level k of a contraction recipe over T columns, on the
    corner block algebra M_b with b = n - k: a unitary stage, then a
    projection stage, act in turn on the block of the previous level's last
    row, and their rows are zero-padded into the n x n corner. A stage of
    `rows` rows acts on column t of its input with s A_t + (1 - s) 1 at the
    column's s rows from the rule (_rule_rows), the last at s = 1, with
    A_t = unitaries[t] in the unitary stage and the corner projection
    P^b_1 in the projection stage. The unitaries are the rebuild of the
    level's runs, vectors and phases (level_unitaries), which is what a
    sheet document stores of them."""

    unitaries: np.ndarray  # (T, b, b), A_t = lambda_t U_t
    rows: tuple  # (the unitary stage's, the projection stage's), positive ints
    runs: tuple  # the run edges (0, ..., T): near-pure runs and gaps alternate
    vectors: np.ndarray  # (run samples, b), each run sample's x_t, multiples of 1 / U_DEN
    phases: np.ndarray  # (T,) int64, k_t of lambda_t = exp(2 pi i k_t / U_DEN)


def _stages(n: int, levels: list) -> Iterator[tuple]:
    """Each stage of a recipe on M_n in order, as (level, stage, block,
    operators, rows), the projection stage's operator P^b_1."""
    for k, level in enumerate(levels):
        b = n - k
        yield k, 0, b, level.unitaries, level.rows[0]
        yield k, 1, b, projection_matrix(b, 1), level.rows[1]


def _recipe_rows(n: int, shapes: list, level_rows: list) -> int:
    """Rows of the sheet a recipe expands to, counting row 0, for the shapes
    of its levels' unitaries and their row counts, over the T columns of
    level 0's; raises ValueError for a recipe whose shapes do not fit n and
    T, or whose row counts are not two positive integers a level (a bool is
    not one)."""
    if n < 2:
        raise ValueError(f"a recipe is on M_n with n >= 2, got n = {n}")
    if len(shapes) != n - 1:
        raise ValueError(f"a recipe on M_{n} has {n - 1} levels, got {len(shapes)}")
    t_count, total = shapes[0][0], 1
    for k, (shape, rows) in enumerate(zip(shapes, level_rows)):
        if shape != (t_count, n - k, n - k):
            raise ValueError(f"level {k} unitaries of shape {shape}, not {(t_count, n - k, n - k)}")
        if len(rows) != 2 or not all(type(r) is int and r > 0 for r in rows):
            raise ValueError(f"level {k} takes two positive integer row counts, got {rows!r}")
        total += sum(rows)
    return total


@dataclass
class HomotopySheet:
    """An S x T grid of states, held as the recipe that generates it from
    row 0, the loop it is expanded on: the n - 1 `levels` (Level), whose
    unitaries give T. Its cells are never held at once; sheet_blocks
    evaluates them a stage at a time. A recipe whose shapes do not fit n,
    whose row counts are not positive integers, or over MAX_SHEET_BYTES
    raises ValueError, before any cell is made."""

    n: int
    levels: list

    def __post_init__(self):
        _check_sheet_budget(self.held_bytes)  # held_bytes reads shape, which checks the recipe

    @property
    def shape(self) -> tuple[int, int]:
        shapes = [lv.unitaries.shape for lv in self.levels]
        return _recipe_rows(self.n, shapes, [lv.rows for lv in self.levels]), shapes[0][0]

    @property
    def held_bytes(self) -> int:
        """The bytes the budget counts for this sheet (_held_bytes)."""
        return _held_bytes(self.n, self.shape[1], [r for lv in self.levels for r in lv.rows])


def _held_bytes(n: int, t_count: int, rows: list) -> int:
    """The most a sheet on M_n over t_count columns holds, for the rows of
    its 2(n - 1) stages: its recipe's unitaries, vectors and phases, the
    loop that a contraction and a verification hold, and BLOCK_COPIES
    blocks of cells of its stage of most rows, which bound a contraction's
    row probe (_grown_rows) and a verification's block and temporaries
    alike."""
    recipe = sum(t_count * ((b * b + b) * 16 + 8) for b in range(2, n + 1))
    held = t_count * n * n * 16 + recipe  # the loop and the recipe
    return held + BLOCK_COPIES * max(rows, default=1) * t_count * n * n * 16


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


def pencil(a: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic pencil of s A + (1-s) 1 acting on rho, over broadcast
    stacks (..., n, n) of elements and exactly Hermitian densities, as
    (p, c): R0, R1 and R2 with B(s) rho B(s)† = R0 + s R1 + s² R2 for
    B(s) = s A + (1-s) 1, packed (linalg.pack_hermitian) as p (3, n², ...),
    and their traces c (3, ...). With X = A - 1, R0 = rho, R1 = X rho +
    rho X† and R2 = X rho X†, made exactly Hermitian. A stage's pencil is
    formed here once: its cells (_stage_rows), its s rows (_rule_rows) and
    its safety value (safety_min) are all read from p and c."""
    x = a - eye(a.shape[-1])
    xr = x @ rho
    r2 = xr @ x.conj().swapaxes(-1, -2)
    r1, r2 = xr + xr.conj().swapaxes(-1, -2), (r2 + r2.conj().swapaxes(-1, -2)) / 2
    r = np.stack(np.broadcast_arrays(rho, r1, r2))
    return np.moveaxis(pack_hermitian(r), 1, 0), np.trace(r, axis1=-2, axis2=-1).real


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
    lam = np.array(lam)

    phase_steps = np.abs(np.angle(lam[1:] / lam[:-1]))
    if phase_steps.max(initial=0.0) >= np.pi:
        raise ValueError("phase lift produced a step >= pi; sampling too coarse")
    on_boundary = np.abs(g) >= BOUNDARY_RADIUS
    if on_boundary.any():
        defect = np.max(np.abs(lam[on_boundary] * g[on_boundary] - 1.0))
        if defect > 1e-8:
            raise RuntimeError(f"phase lift misaligned on the boundary: {defect:.2e}")
    return lam


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


def level_unitaries(runs: tuple, vectors: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """A level's operators A_t = lambda_t U_t, rebuilt from what a sheet
    document stores of them: its run edges, run vectors and phases. The
    contractor builds its own through the same two calls, so a level read
    back from its document is the contractor's bit for bit."""
    return _lifted(_transport_unitaries(runs, vectors), phases)


def recipe_levels(n: int, fields: list) -> list:
    """The levels of a recipe on M_n from their (runs, vectors, phases,
    rows), every level's unitaries rebuilt (level_unitaries). The shapes
    the unitaries will have, the row counts and the budget are checked
    first (_recipe_rows, _held_bytes), so a recipe that does not fit n or
    would hold over MAX_SHEET_BYTES raises ValueError before any unitary
    is made."""
    shapes = [(len(phases), vectors.shape[-1], vectors.shape[-1]) for _, vectors, phases, _ in fields]
    _recipe_rows(n, shapes, [rows for *_, rows in fields])
    _check_sheet_budget(_held_bytes(n, shapes[0][0], [r for *_, rows in fields for r in rows]))
    return [Level(level_unitaries(runs, vectors, phases), rows, runs, vectors, phases)
            for runs, vectors, phases, rows in fields]


def _unitary_powers(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V^f = exp(f log V), principal branch, (G, n, n) for a unitary V and
    fractions f (G,): Q diag(e^{i f θ}) Q† from one eig, V = Q diag(e^{iθ}) Q†.
    Q is the QR factor of eig's vectors, which are not orthonormal for a
    repeated eigenvalue."""
    evals, evecs = np.linalg.eig(v)
    q = np.linalg.qr(evecs)[0]
    return (q * np.exp(1j * f[:, None] * np.angle(evals))[:, None, :]) @ q.conj().T


def _rule_rows(c: np.ndarray, rows: int) -> np.ndarray:
    """The s rows (rows, T) of a stage whose column t has the normalizer
    c(s) = c[0, t] + c[1, t] s + c[2, t] s², the traces of its pencil (see
    safety_min): row k's s is where ∫_0^s ds/c has reached k / rows of its
    value on [0, 1], clipped to [0, 1], and the last row is 1 exactly.

    With D = 4 c0 c2 - c1², w = √|D| and f = k / rows, the integral
    inverts in closed form: θ = f atan2(w, 2c0 + c1) for D > 0 and
    f atanh(w / (2c0 + c1)) for D < 0, g = sin θ / w and h = cos θ (sinh
    and cosh for D < 0), and s = 2 c0 g / (h - c1 g); at w = 0, the limit
    g = f / (2c0 + c1) and h = 1. No term cancels as D -> 0. The rule
    needs c > 0 on [0, 1], and a column where that fails is failed by the
    verifier as unsafe whatever its rows; so any rows it gives are sound.
    """
    c0, c1, c2 = c
    f = (np.arange(1, rows + 1) / rows)[:, None]
    d, x = 4.0 * c0 * c2 - c1 * c1, 2.0 * c0 + c1
    w = np.sqrt(np.abs(d))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = f * np.where(d > 0.0, np.arctan2(w, x), np.arctanh(w / x))
        g = np.where(w > 0.0, np.where(d > 0.0, np.sin(theta), np.sinh(theta)) / w, f / x)
        h = np.where(w > 0.0, np.where(d > 0.0, np.cos(theta), np.cosh(theta)), 1.0)
        s = np.clip(2.0 * c0 * g / (h - c1 * g), 0.0, 1.0)
    s[-1] = 1.0
    return s


def _stage_rows(p: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows of a stage whose column t has the packed pencil p[:, :, t] and
    traces c[:, t] (see pencil), packed (linalg.pack_hermitian) as
    (b², rows, T): column t of row k is the state at s[k, t],
    (p0 + s (p1 + s p2)) / (c0 + s (c1 + s c2)), Hermitian by its layout,
    and unjudged: a B(s) in the Gelfand ideal of its column's state makes
    a non-finite cell, which the verifier flags."""
    p, (c0, c1, c2) = p[:, :, None], c  # p (3, b², 1, T)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p[0] + s * (p[1] + s * p[2])) / (c0 + s * (c1 + s * c2))


def _rule_block(p: np.ndarray, c: np.ndarray, rows: int) -> np.ndarray:
    """The `rows` rows of a stage of pencil (p, c) at the rule's s rows
    (_rule_rows), packed as (b², rows, T) (_stage_rows)."""
    return _stage_rows(p, c, _rule_rows(c, rows))


def _rows_for(target_step: float, movement: float) -> int:
    """Rows, at least MIN_ROWS, that step `movement` by about `target_step` (> 0)."""
    if movement <= 0:
        return MIN_ROWS
    return max(MIN_ROWS, int(np.ceil(movement / target_step)))


def _grown_rows(p: np.ndarray, c: np.ndarray, rows: int, target: float) -> int:
    """`rows` for a stage of pencil (p, c), unless its block at the rule's
    `rows` rows (_rule_block) has an s-step, from the stage's input R0 on,
    over the modulus 2 target: then ceil(rows step / target), which aims
    the largest step at target again. It grows once, and the verifier
    judges the rows it gives. The steps are taken on the packed block and
    p[0], and only those whose Frobenius bounds let them reach the modulus
    take a trace norm (_bounded_steps), so a stage where none does takes
    no eigensolver."""
    block = _rule_block(p, c, rows)
    first, floor = _bounded_steps(block[:, 0] - p[0], 2.0 * target)
    steps, _ = _bounded_steps(block[:, 1:] - block[:, :-1], floor)
    step = max(first.max(), steps.max(initial=0.0))
    return rows if step <= 2.0 * target else int(np.ceil(rows * step / target))


def _bounded_steps(d: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """Trace norms of a packed stack d (n², ...) of Hermitian steps, and
    `floor` raised to their largest lower bound. `floor` is a threshold, or
    a lower bound or exact norm of a step scanned before. A step takes its
    exact norm (linalg._hermitian_trace_norm) where its upper bound is
    positive and reaches the raised floor. Any other step reads 0.0: it is
    under the floor, so it is neither the largest step so far nor over the
    threshold. The largest step and all its ties keep their exact norms.

    With F = ‖Δ‖_F, F² = Σ diag² + 2 Σ offdiag² on the packed rows, every
    Hermitian Δ has max(F, √(2F² - (tr Δ)²)) <= ‖Δ‖₁ <= √n F: the left
    from ‖Δ‖₁² = (P + N)² and F² <= P² + N² for its positive and negative
    parts P, N, and (P - N)² = (tr Δ)²; the right by Cauchy-Schwarz. Each
    side moves by the relative margin STEP_MARGIN + n² eps, which covers
    the exact norm's error (1e-13 F for the closed form, eigvalsh's near
    n eps on each of n eigenvalues) and the rounding of F² and tr Δ. A
    step whose bound is NaN keeps its exact norm."""
    n = math.isqrt(len(d))
    diag, off = d[:n], d[n:]
    f2 = np.einsum("k...,k...->...", diag, diag) + 2.0 * np.einsum("k...,k...->...", off, off)
    tr = diag.sum(axis=0)
    margin = STEP_MARGIN + n * n * np.finfo(float).eps
    upper = np.sqrt(n * f2) * (1.0 + margin)
    lower = np.sqrt(np.maximum(f2, 2.0 * f2 - tr * tr)) * (1.0 - margin)
    floor = float(np.fmax.reduce(lower, axis=None, initial=floor))
    norms = np.zeros(upper.shape)
    keep = (upper != 0.0) & ~(upper < floor)
    norms[keep] = _hermitian_trace_norm(d[:, keep])
    return norms, floor


def _rectify(rhos: np.ndarray, target: float, admit):
    """The level (Level) that deforms the density stack `rhos` (T, b, b) so
    that every sample gives weight one to the corner projection P^b_1 (no
    weight on the last basis vector), and its last row.

    Eigenvector-transport unitaries come first: the continued top
    eigenvectors are rounded to multiples of 1 / U_DEN, and the unitaries
    built from them (_transport_unitaries), each checked unitary before the
    disk phase lift of t -> omega_t(U_t) that keeps the unitary
    interpolation outside every Gelfand ideal; each lifted phase lambda_t
    is rounded to a multiple of 2 pi / U_DEN, and A_t = lambda_t U_t
    (_lifted). A sheet document writes the rounded vectors and phases as
    integers, and rebuilds A_t from them bit for bit. Then one pass makes
    the level's two stages, the linear interpolations with s lambda_t U_t
    and with s P^b_1, each from its one pencil: its exact safety minimum
    over s in [0, 1] must clear SAFETY_FLOOR in every column; its last row,
    at s = 1 as the expansion builds it (_rule_block of one row), measures
    the stage's movement and is the next stage's input; its rows step by
    about `target`, from its movement (_rows_for), and pass through admit,
    which may refuse them, before its block is probed (_grown_rows), and
    again as the probe leaves them.
    """
    runs, vectors = _transport_vectors(rhos)
    vectors = (np.round(vectors * U_DEN) + 0.0) / U_DEN  # + 0.0: no negative zeros, as read back
    unitaries = _transport_unitaries(runs, vectors)
    # before the phase lift, whose path a non-unitary transport can break
    if not (_unitarity_defect(unitaries) <= OPERATOR_TOL).all():
        raise ValueError("not a unitary")
    gamma = np.trace(rhos @ unitaries, axis1=-2, axis2=-1)
    gamma = gamma / np.maximum(np.abs(gamma), 1.0)  # onto the closed disk; a rounded x_0 = 0 gives 0
    phases = np.round(np.angle(disk_phase_lift(gamma)) * (U_DEN / (2.0 * np.pi))).astype(np.int64)

    lifted = _lifted(unitaries, phases)
    rows = []
    for kind, a in (("unitary", lifted), ("projection", projection_matrix(rhos.shape[-1], 1))):
        p, c = pencil(a, rhos)
        failing = np.flatnonzero(~(safety_min(c)[0] > SAFETY_FLOOR))
        if failing.size:
            raise NumericalGateError(f"{kind} interpolation unsafe at sample {failing[0]}")
        out = unpack_hermitian(_rule_block(p, c, 1)[:, 0])
        count = admit(_rows_for(target, trace_norm(out - rhos).max()))
        rows.append(admit(_grown_rows(p, c, count, target)))
        rhos = out
    return Level(lifted, tuple(rows), runs, vectors, phases), rhos


def _compress(rhos: np.ndarray, block: int) -> np.ndarray:
    rho = rhos[:, :block, :block]
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def _packed_corner(x: np.ndarray, n: int) -> np.ndarray:
    """A packed stack x (b², ...) of b x b matrices (linalg.pack_hermitian)
    as the packed stack (n², ...) of their n x n zero-padding: b's diagonal,
    and the real and imaginary parts of each upper pair (i, j), i < j < b,
    go to n's rows of the same entries."""
    b = math.isqrt(len(x))
    i, j = np.triu_indices(b, 1)
    pair = i * n - i * (i + 1) // 2 + j - i - 1  # (i, j)'s index among n's upper pairs
    out = np.zeros((n * n, *x.shape[1:]))
    out[np.concatenate([np.arange(b), n + pair, n + n * (n - 1) // 2 + pair])] = x
    return out


def sheet_blocks(sheet: HomotopySheet, loop: StateLoop) -> Iterator[tuple]:
    """A sheet's cells on `loop`, one stage at a time, as (stage, c, block):
    `stage` the recipe stage (_stages) that made the block, `c` the traces
    of its pencil (see pencil), and the block packed (linalg.pack_hermitian)
    as (n², rows, T). Row 0, the loop, comes first, as a block of one row
    with no stage and no traces (None, None), then each stage's rows in
    order. Each stage evaluates its pencil on the last row so far, unpacked,
    row 0 included, at the s rows that the rule derives from the pencil's
    traces (_rule_block); a level below M_n takes its input compressed to
    its corner block (_compress); and a stage's b x b rows are scattered
    into the n x n corner's packed rows (_packed_corner), zero elsewhere.
    Every cell is made here, so a sheet read back from its document expands
    on its input loop to the contractor's cells bit for bit. A loop whose n
    or T the recipe does not fit raises ValueError. Nothing here judges a
    cell: verify_homotopy does, with the traces of the pencil that made it."""
    n, rhos = sheet.n, loop.rhos
    if rhos.shape != (sheet.shape[1], n, n):
        raise ValueError(f"a recipe on M_{n} over {sheet.shape[1]} columns does not fit {rhos.shape}")
    block = pack_hermitian(rhos)[:, None]
    rhos = unpack_hermitian(block[:, 0])  # the last row so far, on its block
    yield None, None, block
    for stage in _stages(n, sheet.levels):
        _, si, b, ops, rows = stage
        if si == 0 and b < n:
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero trace is the verifier's
                rhos = _compress(rhos, b)
        p, c = pencil(ops, rhos)
        block = _rule_block(p, c, rows)
        del p  # so that the packed pencil is not held while the caller reads the block
        rhos = unpack_hermitian(block[:, -1])
        if b < n:
            block = _packed_corner(block, n)
        yield stage, c, block
        del block  # so that only the caller holds a block while the next is made


def contract_loop(loop: StateLoop) -> HomotopySheet:
    """Contract a based loop to the constant loop at the basepoint.

    Iterates rectification on the corner-block algebras: after level k the
    loop gives weight one to P^n_k, and the block homotopy is pushed
    forward by (1 - P) + (embedded block operator), that is, its cells are
    zero-padded to n x n. At k = n-1 the loop is pinned to the basepoint.
    Each level's recipe is built from the last rows alone, its rows aimed
    at steps of half the loop's modulus, and the sheet is returned as its
    recipe, unexpanded. A loop whose sheet would hold over
    MAX_SHEET_BYTES even at MIN_ROWS a stage is refused first, and each
    stage is checked again with its rows before its block is probed, and
    with the rows the probe leaves. A sheet's count grows with its stage
    of most rows alone (_held_bytes), so checking each stage's rows as
    they come checks every recipe they can make.
    """
    n, t_count = loop.n, loop.n_samples

    def admit(rows: int) -> int:
        _check_sheet_budget(_held_bytes(n, t_count, [rows]))
        return rows

    admit(MIN_ROWS)  # the least recipe: every stage of MIN_ROWS rows

    # level 0 reads packed row 0, the upper triangle, as sheet_blocks does
    rhos, levels = unpack_hermitian(pack_hermitian(loop.rhos)), []
    for b in range(n, 1, -1):  # the corner block algebra M_b of each level
        if b < n:
            rhos = validate_densities(_compress(rhos, b))
            _check_based(rhos)
        level, rhos = _rectify(rhos, loop.modulus / 2, admit)
        levels.append(level)
        _check_based(rhos)
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
    pass over its stage blocks on that loop (sheet_blocks), holding one
    block and the row before it; a recipe whose n or T does not fit the
    loop raises ValueError. It is the only judge of the cells: every cell a
    state to CELL_TOL, the basepoint columns constant, the final row
    constant at the basepoint, and all adjacent-cell steps within the
    modulus, else one "step-modulus" violation at the largest step (on an
    exact tie of an s-step and a t-step, the one scanned first). The
    recipe: every unitary a unitary to OPERATOR_TOL, and the exact safety
    minimum (safety_min) of every column above SAFETY_FLOOR on the traces
    of the pencil that made the stage's cells, which sheet_blocks hands
    over with the block, so the verifier forms no pencil and rebuilds no
    stage input; columns whose input is not finite are skipped, and a
    recipe in a Gelfand ideal fails as "unsafe". The s
    rows are the rule's, in [0, 1] and ending at 1 (_rule_rows), so they
    take no check. A cell with a NaN or infinite entry is one "non-finite"
    violation, valued by the count of such entries; it is zeroed for, and
    skipped by, the rest. Violations are listed by kind, each kind in C
    order of its cell; the recipe's come last, stage by stage, at (level,
    stage, column) indices into the recipe.

    Every block, row 0 included, is read in the packed layout, whose cells
    are Hermitian by construction, so no cell takes a Hermiticity scan.
    The loop as given does, since a StateLoop is mutable: a sample whose
    max|ρ - ρ†| exceeds CELL_TOL is a "non-hermitian" violation at (0, t).
    Row 0 has no recipe stage before it and no step from an earlier row.
    The negative-eigenvalue scan is the LDLᴴ certificate of
    linalg.min_eigenvalues at CELL_TOL on the packed block
    (linalg._hermitian_min_eigenvalues): it clears a cell without LAPACK,
    and each cell it does not clear takes eigvalsh, which decides it and
    gives a violation's value. Steps are bounded by Frobenius norms first,
    and only those that can be the largest so far take an exact trace norm
    (_bounded_steps), so the largest step and its cell are those of an
    exact scan of every step."""
    n, (s_dim, t_dim) = sheet.n, sheet.shape
    packed_base, pairs = pack_hermitian(basis_state(n).rho)[:, None, None], n * (n - 1) // 2
    found: dict = {kind: [] for kind in ("non-finite", "non-hermitian", "trace", "negative-eigenvalue",
                                         "left-column", "right-column")}
    recipe = []
    step, floor = (0.0, (0, 0)), 0.0  # the largest step along s or t, at its cell; the steps' floor
    safety: tuple = (None, None)
    given = input_loop.rhos
    herm = np.max(np.abs(given - given.conj().swapaxes(-1, -2)), axis=(-1, -2))
    found["non-hermitian"] += _flags("non-hermitian", herm, herm > CELL_TOL, CELL_TOL, lambda t: (0, t))

    row = 0
    for stage, c, x in sheet_blocks(sheet, input_loop):
        at = lambda s, t: (row + s, t)
        nonfinite = ~np.isfinite(x)  # each packed off-diagonal pair is two entries of the cell
        bad = nonfinite[:n].sum(axis=0) + 2 * (nonfinite[n:n + pairs] | nonfinite[n + pairs:]).sum(axis=0)
        del nonfinite
        ok = bad == 0
        found["non-finite"] += _flags("non-finite", bad, ~ok, 0.0, at)
        if not ok.all():
            x = np.where(ok, x, 0.0)
        traces = np.abs(x[:n].sum(axis=0) - 1.0)
        found["trace"] += _flags("trace", traces, (traces > CELL_TOL) & ok, CELL_TOL, at)
        neg = -_hermitian_min_eigenvalues(x, CELL_TOL)
        found["negative-eigenvalue"] += _flags("negative-eigenvalue", neg, neg > CELL_TOL, CELL_TOL, at)
        if stage:  # the recipe stage that made x from the row before, and the steps from that row
            li, si, _, ops, _ = stage
            of_stage = lambda t: (li, si, t)
            if si == 0:  # the projection stage's operator is P^b_1 by construction
                defect = _unitarity_defect(ops)
                recipe += _flags("not-unitary", defect, ~(defect <= OPERATOR_TOL), OPERATOR_TOL, of_stage)
            value = np.where(prev_ok, safety_min(c)[0], np.inf)
            recipe += _flags("unsafe", value, ~(value > SAFETY_FLOOR) & prev_ok, SAFETY_FLOOR, of_stage)
            t = int(np.argmin(value))
            if prev_ok[t] and (safety[0] is None or value[t] < safety[0]):
                safety = (float(value[t]), (li, si, t))
            steps, floor = _masked_steps(x[:, 0] - prev_x, ok[0] & prev_ok, max(floor, step[0]))
            step = _largest(step, steps[None], row - 1)
        steps, floor = _masked_steps(x[:, 1:] - x[:, :-1], ok[1:] & ok[:-1], max(floor, step[0]))
        step = _largest(step, steps, row)
        steps, floor = _masked_steps(x[:, :, 1:] - x[:, :, :-1], ok[:, 1:] & ok[:, :-1], max(floor, step[0]))
        step = _largest(step, steps, row)
        dev = _hermitian_trace_norm(x[:, :, [0, -1]] - packed_base)
        for i, (col, label) in enumerate(((0, "left-column"), (t_dim - 1, "right-column"))):
            found[label] += _flags(label, dev[:, i], (dev[:, i] > CELL_TOL) & ok[:, col], CELL_TOL,
                                   lambda s: (row + s, col))
        prev_x, prev_ok = x[:, -1].copy(), ok[-1]
        row += x.shape[1]
        del x

    violations = [v for kind in found.values() for v in kind]
    last = _hermitian_trace_norm(prev_x - packed_base[:, 0])
    violations += _flags("final-row", last, (last > CELL_TOL) & prev_ok, CELL_TOL, lambda t: (s_dim - 1, t))
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


def _masked_steps(d: np.ndarray, keep: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """_bounded_steps of the packed steps d where `keep`, and 0.0 elsewhere."""
    return _bounded_steps(d if keep.all() else np.where(keep, d, 0.0), floor)


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
