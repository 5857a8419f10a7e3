"""Discrete loop rectification in the state space of M_n(C).

A based loop of density matrices is contracted to the constant loop by
the action of explicit operator families: unitary eigenvector transport
(with a disk phase lift to keep linear interpolations outside the Gelfand
ideal), compression onto nested corner blocks, and a verifier that
certifies the resulting two-parameter sheet cell by cell. A sheet is
generated by its recipe (the input loop and, per stage, its operators and
s table), which is what a sheet document stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import eye, min_eigenvalues, pack_hermitian, packed_trace_norm, trace_norm
from .projective import elementary_transport
from .states import act_batch, basis_state, validate_densities
from .util import NumericalGateError

PURITY_THRESHOLD = 7.0 / 8.0
CONTINUATION_MIN_OVERLAP = 0.1
SAFETY_FLOOR = 1e-10
BOUNDARY_RADIUS = 1.0 - 1e-9
BASEPOINT_TOL = 1e-9
OPERATOR_TOL = 1e-9
# Columns per batch in the arc-length pre-pass of _interp_rows. Its
# temporaries hold columns x fine samples packed matrices: at n = 3 with
# about 200 fine samples, 1.8 MB each, where all 701 columns at once would
# take 10 MB.
PREPASS_COLUMNS = 128


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

    def as_array(self) -> np.ndarray:
        """The density array itself, not a copy."""
        return self.rhos


class Stage(NamedTuple):
    """One interpolation stage of a contraction recipe over T columns: its
    row r acts on column t of the stage's input with
    s[r, t] A_t + (1 - s[r, t]) 1. A_t is ops[t] for a unitary stage
    (ops of shape (T, b, b)) and ops itself, the corner projection P^b_1,
    for a projection stage."""

    kind: str  # one of STAGE_KINDS
    ops: np.ndarray
    s: np.ndarray  # (rows, T); the last row is 1


class Level(NamedTuple):
    """One rectification on the corner block algebra M_block: its stages act
    in turn on the block of the previous level's last row, and its rows are
    zero-padded into the n x n corner."""

    block: int
    stages: list


STAGE_KINDS = ("unitary", "projection")


def _recipe_rows(n: int, t_count: int, levels: list) -> int:
    """Rows of the sheet a recipe expands to, counting row 0; raises
    ValueError for a recipe whose shapes do not fit n and t_count."""
    rows = 1
    for level in levels:
        b = level.block
        if not 2 <= b <= n:
            raise ValueError(f"level block {b} out of range for n={n}")
        for stage in level.stages:
            if stage.kind not in STAGE_KINDS:
                raise ValueError(f"stage kind must be one of {STAGE_KINDS}, got {stage.kind!r}")
            if stage.ops.shape not in ((b, b), (t_count, b, b)):
                raise ValueError(f"stage operators of shape {stage.ops.shape} in block {b}")
            if stage.s.ndim != 2 or stage.s.shape[0] < 1 or stage.s.shape[1] != t_count:
                raise ValueError(f"stage s table of shape {stage.s.shape} over {t_count} columns")
            rows += stage.s.shape[0]
    return rows


@dataclass
class HomotopySheet:
    """S x T grid of states, stored as one (S, T, n, n) complex array, with
    the recipe that generates it: row 0 is the input loop, and the stages
    of `levels` give the later rows in order (see sheet_from_recipe)."""

    n: int
    cells: np.ndarray
    levels: list

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.complex128)
        if self.cells.ndim != 4 or self.cells.shape[2:] != (self.n, self.n):
            raise ValueError(f"sheet cells must have shape (S, T, {self.n}, {self.n})")
        if _recipe_rows(self.n, self.cells.shape[1], self.levels) != self.cells.shape[0]:
            raise ValueError("sheet rows do not match its recipe")

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape[:2]

    def as_array(self) -> np.ndarray:
        """The cell array itself, not a copy."""
        return self.cells


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
    the unitary-group geodesic, spread over the gap interior.
    """
    t_count, n = rhos.shape[0], rhos.shape[-1]
    evals, evecs = np.linalg.eigh(rhos)
    tops = evecs[:, :, -1]
    near_pure = evals[:, -1] > PURITY_THRESHOLD
    if not (near_pure[0] and near_pure[-1]):
        raise ValueError("basepoint samples must be near-pure")

    e0 = np.zeros(n, dtype=np.complex128)
    e0[0] = 1.0
    unitaries: list = [None] * t_count
    t = 0
    prev_v = None
    while t < t_count:
        if not near_pure[t]:
            t += 1
            continue
        run_start = t
        while t < t_count and near_pure[t]:
            t += 1
        run = range(run_start, t)
        for i in run:
            v = tops[i]
            if i == run.start:
                v = e0.copy() if run_start == 0 else _pin_phase(v)
            else:
                ov = np.vdot(prev_v, v)
                if abs(ov) < CONTINUATION_MIN_OVERLAP:
                    raise NumericalGateError(
                        f"eigenvector continuation ambiguous at sample {i} "
                        f"(overlap {abs(ov):.3f})"
                    )
                v = v * (np.conj(ov) / abs(ov))
            prev_v = v
            unitaries[i] = elementary_transport(v, e0)

    # geodesic bridges across the gaps
    i = 0
    while i < t_count:
        if unitaries[i] is not None:
            i += 1
            continue
        gap_start = i
        while unitaries[i] is None:
            i += 1
        left, right = gap_start - 1, i
        import scipy.linalg  # lazily: it would double the CLI's import time
        d = unitaries[right] @ unitaries[left].conj().T
        k = scipy.linalg.logm(d)
        k = (k - k.conj().T) / 2
        span = right - left
        for j in range(gap_start, right):
            frac = (j - left) / span
            unitaries[j] = scipy.linalg.expm(frac * k) @ unitaries[left]
    return np.array(unitaries)


def _interp_rows(r: np.ndarray, n_rows: int, fine_mult: int = 6) -> np.ndarray:
    """The s table (n_rows, T) of a stage whose column t has the pencil
    r[:, t] (see pencil): row k's s is where column t's state has covered
    k / n_rows of its trace-norm arc length over s in [0, 1], as a fine
    pre-pass measures it. This keeps the sheet's step modulus proportional
    to the input modulus even where the interpolation moves unevenly in s.
    The last row is 1 exactly.

    The pre-pass evaluates the states (R0 + s R1 + s² R2) / (c0 + s c1 + s² c2)
    and their steps on the pencil's packed layout (linalg.pack_hermitian,
    n² reals per matrix), and measures the steps with
    linalg.packed_trace_norm: the closed form for 2x2 and 3x3 blocks,
    elementwise over the chunk, and eigvalsh on the unpacked steps for
    larger blocks. Every packed coordinate takes the same arithmetic as the
    complex matrices would, so the s table is the one a pre-pass over
    complex states and linalg.trace_norm gives, bit for bit.
    """
    t_count = r.shape[1]
    f_count = max(n_rows * fine_mult, 48)
    s_fine = np.linspace(0.0, 1.0, f_count + 1)
    fractions = np.arange(1, n_rows + 1) / n_rows
    traces = np.trace(r, axis1=-2, axis2=-1).real
    packed = pack_hermitian(r)  # (n², 3, T)
    s_rows = np.empty((n_rows, t_count))
    for lo in range(0, t_count, PREPASS_COLUMNS):
        cols = slice(lo, lo + PREPASS_COLUMNS)
        p0, p1, p2 = np.moveaxis(packed[:, :, cols, None], 1, 0)
        c0, c1, c2 = traces[:, cols, None]
        norm = c0 + s_fine * (c1 + s_fine * c2)
        rho_s = (p0 + s_fine * (p1 + s_fine * p2)) / norm  # (n², cols, F + 1)
        steps = packed_trace_norm(rho_s[..., 1:] - rho_s[..., :-1])
        arcs = np.concatenate([np.zeros((len(steps), 1)), np.cumsum(steps, axis=1)], axis=1)
        for t, arc in enumerate(arcs, start=lo):
            if arc[-1] < 1e-13:
                s_rows[:, t] = fractions
            else:
                s_rows[:, t] = np.interp(fractions * arc[-1], arc, s_fine)
    s_rows[-1] = 1.0
    return s_rows


def _act_rows(ops: np.ndarray, s: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Rows (len(s), T, b, b): s[r, t] A_t + (1 - s[r, t]) 1 acting on
    column t of the density stack `rhos`, validated once."""
    s = s[..., None, None]
    return act_batch(s * ops + (1.0 - s) * eye(rhos.shape[-1]), rhos)


def _rows_for(target_step: float, movement: float, minimum: int = 8) -> int:
    if movement <= 0:
        return minimum
    return max(minimum, int(np.ceil(movement / max(target_step, 1e-12))))


def _rectify(rhos: np.ndarray, target: float):
    """The two stages that deform the density stack `rhos` (T, b, b) so that
    every sample gives weight one to the corner projection P^b_1 (no weight
    on the last basis vector), and their last row.

    Eigenvector-transport unitaries come first, with a disk phase lift of
    t -> omega_t(U_t) so the unitary interpolation stays outside every
    Gelfand ideal; then the linear interpolations with s lambda_t U_t and
    with s P^b_1. Every interpolation is certified by its exact safety
    minimum over s in [0, 1], and its rows step by about `target`.
    """
    n = rhos.shape[-1]

    unitaries = _transport_unitaries(rhos)
    gamma = np.trace(rhos @ unitaries, axis1=-2, axis2=-1)
    gamma = np.where(np.abs(gamma) > 1.0, gamma / np.abs(gamma), gamma)
    lam = disk_phase_lift(gamma)

    lifted = lam[:, None, None] * unitaries
    unlifted = lifted / lam[:, None, None]
    not_unitary = ~(_unitarity_defect(unlifted) <= OPERATOR_TOL)
    # safety of the *lifted* interpolation, the one the sheet uses
    r_lifted = pencil(lifted, rhos)
    lifted_min, _ = safety_min(r_lifted)
    failing = np.flatnonzero(not_unitary | ~(lifted_min > SAFETY_FLOOR))
    if failing.size:
        t = failing[0]
        if not_unitary[t]:
            raise ValueError("not a unitary")
        unlifted_min, _ = safety_min(pencil(unlifted[t], rhos[t]))
        raise NumericalGateError(
            f"unitary interpolation unsafe at sample {t} despite phase lift "
            f"(min {lifted_min[t]:.3e}, unlifted min {unlifted_min:.3e})"
        )

    chi = act_batch(lifted, rhos)
    proj = projection_matrix(n, 1)
    failing = np.flatnonzero(~(safety_min(pencil(proj, chi))[0] > SAFETY_FLOOR))
    if failing.size:
        raise NumericalGateError(f"projection interpolation unsafe at sample {failing[0]}")

    s_a = _interp_rows(r_lifted, _rows_for(target, trace_norm(chi - rhos).max()))
    out_a = _act_rows(lifted, s_a[-1:], rhos)[0]
    rows_b = _rows_for(target, trace_norm(act_batch(proj, out_a) - out_a).max())
    s_b = _interp_rows(pencil(proj, out_a), rows_b)
    stages = [Stage("unitary", lifted, s_a), Stage("projection", proj, s_b)]
    return stages, _act_rows(proj, s_b[-1:], out_a)[0]


def _compress(rhos: np.ndarray, block: int) -> np.ndarray:
    rho = rhos[:, :block, :block]
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def _level_input(current: np.ndarray, block: int) -> np.ndarray:
    """A level's input from the last row so far: the row itself at full
    size, otherwise its validated compression to the corner block."""
    if block == current.shape[-1]:
        return current
    return validate_densities(_compress(current, block))


def sheet_from_recipe(loop: np.ndarray, levels: list) -> HomotopySheet:
    """Expand a contraction recipe into its sheet. Row 0 is the density
    stack `loop` (T, n, n). Each level takes its input from the last row
    so far (_level_input); each of its stages acts on the last row of the
    stage before (_act_rows); and its rows are zero-padded into the n x n
    corner. Every sheet is made here, so a sheet read back from its
    document equals the contractor's bit for bit."""
    t_count, n = loop.shape[0], loop.shape[-1]
    cells = np.zeros((_recipe_rows(n, t_count, levels), t_count, n, n), dtype=np.complex128)
    cells[0] = loop
    row = 1
    for level in levels:
        b = level.block
        rhos = _level_input(cells[row - 1], b)
        for stage in level.stages:
            rows = _act_rows(stage.ops, stage.s, rhos)
            cells[row:row + len(rows), :, :b, :b] = rows
            row += len(rows)
            rhos = rows[-1]
    return HomotopySheet(n, cells, levels)


def contract_loop(loop: StateLoop) -> HomotopySheet:
    """Contract a based loop to the constant loop at the basepoint.

    Iterates rectification on the corner-block algebras: after level k the
    loop gives weight one to P^n_k, and the block homotopy is pushed
    forward by (1 - P) + (embedded block operator), that is, its cells are
    zero-padded to n x n. At k = n-1 the loop is pinned to the basepoint.
    Each level's recipe is built from the last rows alone; the sheet is
    then expanded from the whole recipe once.
    """
    n = loop.n
    target = 2.5 * max(loop.max_step, 1e-3)
    current = loop.as_array()
    levels = []
    for k in range(1, n):
        block = n - k + 1  # current block algebra size
        block_rhos = _level_input(current, block)
        if block < n:
            _check_based(block_rhos)
        stages, out = _rectify(block_rhos, target)
        levels.append(Level(block, stages))
        current = np.zeros_like(current)
        current[:, :block, :block] = out
        _check_based(current)
    return sheet_from_recipe(loop.as_array(), levels)


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


def _recipe_violations(sheet: HomotopySheet, arr: np.ndarray, ok: np.ndarray):
    """Check a sheet's recipe against its cells `arr` (finite where `ok`):
    every operator a unitary, or its stage's corner projection P^b_1, to
    OPERATOR_TOL; every s in [0, 1] and each stage's last row at s = 1; and
    the exact safety minimum (safety_min) of every column above
    SAFETY_FLOOR on the stage's input as the sheet holds it, except in
    columns whose input is not finite. Locations are (level, stage, column)
    indices into the recipe. Returns the violations and the smallest safety
    value checked with its location."""
    n, t_count = sheet.n, arr.shape[1]
    violations: list = []
    worst: tuple = (None, None)
    row = 0
    for li, level in enumerate(sheet.levels):
        b = level.block
        with np.errstate(divide="ignore", invalid="ignore"):
            rhos = arr[row] if b == n else _compress(arr[row], b)
        for si, stage in enumerate(level.stages):
            if stage.kind == "unitary":
                name, defect = "not-unitary", _unitarity_defect(stage.ops)
            else:
                name = "not-projection"
                defect = np.max(np.abs(stage.ops - projection_matrix(b, 1)), axis=(-2, -1))
            defect = np.broadcast_to(defect, (t_count,))
            for t in np.flatnonzero(~(defect <= OPERATOR_TOL)):
                violations.append((name, (li, si, int(t)), float(defect[t]), OPERATOR_TOL))
            low, high = stage.s.min(axis=0), stage.s.max(axis=0)
            for t in np.flatnonzero(~((low >= 0.0) & (high <= 1.0))):
                out, bound = (low[t], 0.0) if low[t] < 0.0 else (high[t], 1.0)
                violations.append(("s-range", (li, si, int(t)), float(out), bound))
            last = stage.s[-1]
            for t in np.flatnonzero(last != 1.0):
                violations.append(("s-last-row", (li, si, int(t)), float(last[t]), 1.0))
            value = np.where(ok[row], safety_min(pencil(stage.ops, rhos[:, :b, :b]))[0], np.inf)
            for t in np.flatnonzero(~(value > SAFETY_FLOOR) & ok[row]):
                violations.append(("unsafe", (li, si, int(t)), float(value[t]), SAFETY_FLOOR))
            t = int(np.argmin(value))
            if ok[row, t] and (worst[0] is None or value[t] < worst[0]):
                worst = (float(value[t]), (li, si, t))
            row += stage.s.shape[0]
            rhos = arr[row]
    return violations, worst


def verify_homotopy(sheet: HomotopySheet, input_loop: StateLoop, modulus: float) -> VerifyReport:
    """Certify a contraction sheet: every cell a valid state, row 0 equals
    the input, the basepoint columns constant, the final row constant at
    the basepoint, all adjacent-cell steps within the modulus, and the
    recipe's operators, s tables and safety (see _recipe_violations). A
    cell with a NaN or infinite entry is one "non-finite" violation, valued
    by the count of such entries; it is zeroed for, and skipped by, the rest.
    The negative-eigenvalue scan is linalg.min_eigenvalues at 1e-8: the
    LDLᴴ certificate clears a cell without LAPACK, and each cell it does not
    clear takes eigvalsh, which decides it and gives a violation's value."""
    arr = sheet.as_array()
    s_dim, t_dim = arr.shape[0], arr.shape[1]
    n = sheet.n
    base = basis_state(n).rho

    bad = np.sum(~np.isfinite(arr), axis=(-1, -2))
    ok = bad == 0
    violations = [("non-finite", tuple(i), float(bad[tuple(i)]), 0.0) for i in np.argwhere(~ok)]
    if not ok.all():
        arr = np.where(ok[..., None, None], arr, 0.0)

    herm = np.max(np.abs(arr - np.conj(np.swapaxes(arr, -1, -2))), axis=(-1, -2))
    for idx in np.argwhere(herm > 1e-8):
        violations.append(("non-hermitian", tuple(idx), float(herm[tuple(idx)]), 1e-8))
    traces = np.abs(np.einsum("stii->st", arr) - 1.0)
    for idx in np.argwhere((traces > 1e-8) & ok):
        violations.append(("trace", tuple(idx), float(traces[tuple(idx)]), 1e-8))
    neg = -min_eigenvalues((arr + np.conj(np.swapaxes(arr, -1, -2))) / 2, 1e-8)
    for idx in np.argwhere(neg > 1e-8):
        violations.append(("negative-eigenvalue", tuple(idx), float(neg[tuple(idx)]), 1e-8))

    row0 = trace_norm(arr[0] - input_loop.as_array())
    for idx in np.argwhere((row0 > 1e-10) & ok[0]):
        violations.append(("row0-mismatch", (0, int(idx)), float(row0[idx]), 1e-10))

    for col, label in ((0, "left-column"), (t_dim - 1, "right-column")):
        dev = trace_norm(arr[:, col] - base[None])
        for idx in np.argwhere((dev > 1e-8) & ok[:, col]):
            violations.append((label, (int(idx), col), float(dev[idx]), 1e-8))

    final_dev = trace_norm(arr[-1] - base[None])
    for idx in np.argwhere((final_dev > 1e-8) & ok[-1]):
        violations.append(("final-row", (s_dim - 1, int(idx)), float(final_dev[idx]), 1e-8))

    step_t = np.where(ok[:, 1:] & ok[:, :-1], trace_norm(arr[:, 1:] - arr[:, :-1]), 0.0)
    step_s = np.where(ok[1:] & ok[:-1], trace_norm(arr[1:] - arr[:-1]), 0.0)
    max_t, max_s = step_t.max(initial=0.0), step_s.max(initial=0.0)
    max_step = float(max(max_t, max_s))
    if max_step > modulus:
        steps = step_t if max_t >= max_s else step_s
        worst = np.unravel_index(np.argmax(steps), steps.shape)
        violations.append(("step-modulus", tuple(int(x) for x in worst), max_step, modulus))

    recipe_violations, (safety_value, safety_at) = _recipe_violations(sheet, arr, ok)
    violations += recipe_violations
    return VerifyReport(
        passed=(len(violations) == 0),
        violations=violations,
        max_cell_step=max_step,
        shape=(s_dim, t_dim),
        safety_min=safety_value,
        safety_at=safety_at,
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

    def rho_at(t: float) -> np.ndarray:
        v1 = np.cos(0.4 * np.pi * t * 4) * e[0] + np.sin(0.4 * np.pi * t * 4) * e[1]
        if t < 0.25:
            return pure(v1)
        a = np.cos(0.4 * np.pi) * e[0] + np.sin(0.4 * np.pi) * e[1]
        b = -np.sin(0.4 * np.pi) * e[0] + np.cos(0.4 * np.pi) * e[1]
        mixed = 0.55 * pure(a) + 0.35 * pure(b) + 0.10 * pure(e[2])
        if t < 0.40:
            u = (t - 0.25) / 0.15
            return (1 - u) * pure(a) + u * mixed
        if t < 0.60:
            u = (t - 0.40) / 0.20
            th = 0.3 * np.pi * u
            r = np.eye(3, dtype=np.complex128)
            r[0, 0] = np.cos(th)
            r[0, 1] = -np.sin(th)
            r[1, 0] = np.sin(th)
            r[1, 1] = np.cos(th)
            return r @ mixed @ r.conj().T
        th = 0.3 * np.pi
        r = np.eye(3, dtype=np.complex128)
        r[0, 0] = np.cos(th)
        r[0, 1] = -np.sin(th)
        r[1, 0] = np.sin(th)
        r[1, 1] = np.cos(th)
        mixed_r = r @ mixed @ r.conj().T
        a_r = r @ a
        if t < 0.75:
            u = (t - 0.60) / 0.15
            return (1 - u) * mixed_r + u * pure(a_r)
        u = (t - 0.75) / 0.25
        # rotate a_r back to e_0 along the real circle through its (e0, e1) angle
        ang = np.arctan2(a_r[1].real, a_r[0].real)
        v = np.cos(ang * (1 - u)) * e[0] + np.sin(ang * (1 - u)) * e[1]
        return pure(v)

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
