"""Discrete loop rectification in the state space of M_n(C).

A based loop of density matrices is contracted to the constant loop by
the action of explicit operator families: unitary eigenvector transport
(with a disk phase lift to keep linear interpolations outside the Gelfand
ideal), compression onto nested corner blocks, and a verifier that
certifies the resulting two-parameter sheet cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import eye, trace_norm
from .projective import elementary_transport
from .states import DensityState, act_batch, basis_state, validate_densities
from .util import NumericalGateError

PURITY_THRESHOLD = 7.0 / 8.0
CONTINUATION_MIN_OVERLAP = 0.1
SAFETY_FLOOR = 1e-10
BOUNDARY_RADIUS = 1.0 - 1e-9
DEFAULT_MAX_STEP = 0.02
BASEPOINT_TOL = 1e-9
OPERATOR_TOL = 1e-9
# Columns per batch in the arc-length pre-pass of _interp_rows. Its
# temporaries hold columns x fine samples matrices: at n = 3 with about 200
# fine samples, 4 MB each, where all 701 columns at once would take 20 MB.
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


def _max_step(rhos: np.ndarray) -> float:
    return float(trace_norm(rhos[1:] - rhos[:-1]).max())


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
        return _max_step(self.rhos)

    def as_array(self) -> np.ndarray:
        """The density array itself, not a copy."""
        return self.rhos


@dataclass
class HomotopySheet:
    """S x T grid of states, stored as one (S, T, n, n) complex array:
    row 0 is the input loop, later rows are the successive deformations;
    meta records the operator families used."""

    n: int
    cells: np.ndarray
    meta: list = field(default_factory=list)

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.complex128)
        if self.cells.ndim != 4 or self.cells.shape[2:] != (self.n, self.n):
            raise ValueError(f"sheet cells must have shape (S, T, {self.n}, {self.n})")

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape[:2]

    def as_array(self) -> np.ndarray:
        """The cell array itself, not a copy."""
        return self.cells


class SafetyReport(NamedTuple):
    safe: bool
    min_value: float
    s_at_min: float


_NOT_OPERATOR = {"unitary": "not a unitary", "projection": "not an orthogonal projection"}


def _operator_ok(a: np.ndarray, kind: str) -> np.ndarray:
    """Per matrix of a stack (..., n, n): is it a unitary, or an
    orthogonal projection, to OPERATOR_TOL."""
    adj = a.conj().swapaxes(-1, -2)
    if kind == "unitary":
        return np.max(np.abs(a @ adj - eye(a.shape[-1])), axis=(-2, -1)) <= OPERATOR_TOL
    if kind == "projection":
        return (np.max(np.abs(a @ a - a), axis=(-2, -1)) <= OPERATOR_TOL) & (
            np.max(np.abs(a - adj), axis=(-2, -1)) <= OPERATOR_TOL
        )
    raise ValueError("kind must be 'unitary' or 'projection'")


def _safety_min(a: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum over s in [0, 1] of omega((sA + (1-s)1)† (sA + (1-s)1))
    and the s attaining it, over broadcast stacks of A and densities.

    With X = A - 1 the value is the quadratic c0 + c1 s + c2 s², where
    c0 = omega(1), c1 = 2 Re omega(X) and c2 = omega(X†X) >= 0; expanded in
    A it reads s² omega(A†A) + 2s(1-s) Re omega(A) + (1-s)² omega(1). Its
    minimum is at the vertex -c1/(2 c2) when that lies inside (0, 1), and
    otherwise at an endpoint (s = 0 on ties). A vanishing c2 leaves a line,
    whose minimum is at an endpoint too.
    """
    x = a - eye(a.shape[-1])
    c0 = np.trace(rho, axis1=-2, axis2=-1).real
    c1 = 2.0 * np.einsum("...ij,...ji->...", rho, x).real
    c2 = np.einsum("...ij,...ij->...", x @ rho, x.conj()).real
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -c1 / (2.0 * c2)
    inside = (c2 > 0.0) & (vertex > 0.0) & (vertex < 1.0)
    s = np.where(inside, vertex, np.where(c1 + c2 < 0.0, 1.0, 0.0))
    return c0 + s * (c1 + c2 * s), s


def interpolation_safe(a: np.ndarray, omega: DensityState, kind: str) -> SafetyReport:
    """Certify omega((sA + (1-s)1)† (sA + (1-s)1)) > SAFETY_FLOOR for every
    s in [0, 1] by its exact minimum (see _safety_min).

    Projections with omega(P) > 0 are always safe; unitaries are unsafe
    only near omega(U) = -1 at s = 1/2.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not _operator_ok(a, kind):
        raise ValueError(_NOT_OPERATOR[kind])
    value, s = _safety_min(a, omega.rho)
    return SafetyReport(bool(value > SAFETY_FLOOR), float(value), float(s))


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


def _interp_rows(mats: np.ndarray, rhos: np.ndarray, n_rows: int, fine_mult: int = 6):
    """Rows (n_rows, T, n, n) of the homotopy acting with s M_t + (1-s) 1
    on each column t of the density stack `rhos`, validated once.

    The s parameter is resampled per column at uniform trace-norm arc
    length (a fine pre-pass measures each column's motion), which keeps
    the sheet's step modulus proportional to the input modulus even where
    the interpolation moves unevenly in s.
    """
    t_count = rhos.shape[0]
    ident = eye(rhos.shape[-1])
    f_count = max(n_rows * fine_mult, 48)
    s_fine = np.linspace(0.0, 1.0, f_count + 1)
    fractions = np.arange(1, n_rows + 1) / n_rows
    s_rows = np.empty((n_rows, t_count))
    for lo in range(0, t_count, PREPASS_COLUMNS):
        cols = slice(lo, lo + PREPASS_COLUMNS)
        bs = (s_fine[:, None, None] * mats[cols, None]
              + (1.0 - s_fine)[:, None, None] * ident)
        raw = bs @ rhos[cols, None] @ np.conj(np.swapaxes(bs, -1, -2))
        rho_s = raw / np.einsum("...ii->...", raw).real[..., None, None]
        # exactly Hermitian, so every step takes trace_norm's eigvalsh path
        rho_s = (rho_s + np.conj(np.swapaxes(rho_s, -1, -2))) / 2
        steps = trace_norm(rho_s[:, 1:] - rho_s[:, :-1])
        arcs = np.concatenate([np.zeros((len(steps), 1)), np.cumsum(steps, axis=1)], axis=1)
        for t, arc in enumerate(arcs, start=lo):
            if arc[-1] < 1e-13:
                s_rows[:, t] = fractions
            else:
                s_rows[:, t] = np.interp(fractions * arc[-1], arc, s_fine)
    s_rows[-1] = 1.0
    ops = s_rows[..., None, None] * mats + (1.0 - s_rows)[..., None, None] * ident
    return act_batch(ops, rhos)


def _rows_for(target_step: float, movement: float, minimum: int = 8) -> int:
    if movement <= 0:
        return minimum
    return max(minimum, int(np.ceil(movement / max(target_step, 1e-12))))


class RectifyResult(NamedTuple):
    sheet: HomotopySheet
    out_loop: StateLoop


def _rectify(rhos: np.ndarray, delta: float, max_step: float, target: float):
    """The rows after row 0 of rectify_to_projection's sheet, for the
    density stack `rhos` whose largest step is `delta`, and their meta."""
    if delta > max_step:
        raise ValueError(f"loop step {delta:.4f} exceeds the supported modulus {max_step}")
    t_count, n = rhos.shape[0], rhos.shape[-1]

    unitaries = _transport_unitaries(rhos)
    gamma = np.trace(rhos @ unitaries, axis1=-2, axis2=-1)
    gamma = np.where(np.abs(gamma) > 1.0, gamma / np.abs(gamma), gamma)
    lam = disk_phase_lift(gamma)

    lifted = lam[:, None, None] * unitaries
    unlifted = lifted / lam[:, None, None]
    not_unitary = ~_operator_ok(unlifted, "unitary")
    # safety of the *lifted* interpolation, the one the sheet uses
    lifted_min, _ = _safety_min(lifted, rhos)
    failing = np.flatnonzero(not_unitary | ~(lifted_min > SAFETY_FLOOR))
    if failing.size:
        t = failing[0]
        if not_unitary[t]:
            raise ValueError(_NOT_OPERATOR["unitary"])
        unlifted_min, _ = _safety_min(unlifted[t], rhos[t])
        raise NumericalGateError(
            f"unitary interpolation unsafe at sample {t} despite phase lift "
            f"(min {lifted_min[t]:.3e}, unlifted min {unlifted_min:.3e})"
        )

    chi = act_batch(lifted, rhos)
    proj = projection_matrix(n, 1)
    if not _operator_ok(proj, "projection"):
        raise ValueError(_NOT_OPERATOR["projection"])
    failing = np.flatnonzero(~(_safety_min(proj, chi)[0] > SAFETY_FLOOR))
    if failing.size:
        raise NumericalGateError(f"projection interpolation unsafe at sample {failing[0]}")

    rows_a = _rows_for(target, trace_norm(chi - rhos).max())
    cells_a = _interp_rows(lifted, rhos, rows_a)
    out_a = cells_a[-1]

    rows_b = _rows_for(target, trace_norm(act_batch(proj, out_a) - out_a).max())
    proj_all = np.broadcast_to(proj, (t_count, n, n))
    cells = np.concatenate([cells_a, _interp_rows(proj_all, out_a, rows_b)])
    meta = [
        {"stage": "unitary-interp", "rows": rows_a, "identity_at_s0": True},
        {"stage": "projection-interp", "rows": rows_b, "identity_at_s0": True},
    ]
    return cells, meta


def rectify_to_projection(
    loop: StateLoop, max_step: float = DEFAULT_MAX_STEP, target_row_step: float | None = None
) -> RectifyResult:
    """Deform a based loop so that every sample gives weight one to the
    corner projection P^n_1 (no weight on the last basis vector).

    Three stages: eigenvector-transport unitaries, a disk phase lift of
    t -> omega_t(U_t) so the unitary interpolation stays outside every
    Gelfand ideal, then the linear interpolations with s lambda_t U_t and
    with s P^n_1. Every interpolation is certified by its exact safety
    minimum over s in [0, 1].
    """
    delta = loop.max_step
    target = target_row_step if target_row_step is not None else 2.5 * max(delta, 1e-3)
    rhos = loop.as_array()
    cells, meta = _rectify(rhos, delta, max_step, target)
    sheet = HomotopySheet(loop.n, np.concatenate([rhos[None], cells]), meta)
    return RectifyResult(sheet, StateLoop(loop.n, sheet.cells[-1]))


def _compress(rhos: np.ndarray, block: int) -> np.ndarray:
    rho = rhos[:, :block, :block]
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def contract_loop(loop: StateLoop, max_step: float = DEFAULT_MAX_STEP) -> HomotopySheet:
    """Contract a based loop to the constant loop at the basepoint.

    Iterates rectification on the corner-block algebras: after level k the
    loop gives weight one to P^n_k, and the block homotopy is pushed
    forward by (1 - P) + (embedded block operator), that is, its cells are
    zero-padded to n x n. At k = n-1 the loop is pinned to the basepoint.
    """
    n = loop.n
    delta = loop.max_step
    target = 2.5 * max(delta, 1e-3)
    current = loop.as_array()
    levels = [current[None]]
    meta: list = []
    for k in range(1, n):
        block = n - k + 1  # current block algebra size
        if block < n:
            block_rhos = validate_densities(_compress(current, block))
            _check_based(block_rhos)
            block_step = _max_step(block_rhos)
        else:
            block_rhos, block_step = current, delta
        cells, block_meta = _rectify(
            block_rhos, block_step, max(max_step, block_step * (1 + 1e-12)), target
        )
        level = np.zeros(cells.shape[:2] + (n, n), dtype=np.complex128)
        level[..., :block, :block] = cells
        levels.append(level)
        meta += [{**m, "level": k, "block": block} for m in block_meta]
        current = level[-1]
        _check_based(current)
    return HomotopySheet(n, np.concatenate(levels), meta)


@dataclass
class VerifyReport:
    passed: bool
    violations: list
    max_cell_step: float
    shape: tuple[int, int]

    def summary(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"{status}: sheet {self.shape[0]}x{self.shape[1]}, "
            f"max step {self.max_cell_step:.5f}, {len(self.violations)} violation(s)"
        )


def verify_homotopy(sheet: HomotopySheet, input_loop: StateLoop, modulus: float) -> VerifyReport:
    """Certify a contraction sheet: every cell a valid state, row 0 equals
    the input, the basepoint columns constant, the final row constant at
    the basepoint, and all adjacent-cell steps within the modulus. A cell
    with a NaN or infinite entry is one "non-finite" violation, valued by
    the count of such entries; it is zeroed for, and skipped by, the rest."""
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
    eigs = np.linalg.eigvalsh((arr + np.conj(np.swapaxes(arr, -1, -2))) / 2)
    neg = -eigs.min(axis=-1)
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

    return VerifyReport(
        passed=(len(violations) == 0),
        violations=violations,
        max_cell_step=max_step,
        shape=(s_dim, t_dim),
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
