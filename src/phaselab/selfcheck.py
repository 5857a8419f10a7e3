"""Seeded property suites behind the selfcheck command.

Each suite draws its own randomness from the given seed, reports its
worst residual, and passes iff that residual clears the suite gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cech, linalg, projective, states, supernatural
from .util import tol_scale


@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst_residual: float
    gate: float
    details: dict = field(default_factory=dict)


def _random_unit(rng, n) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def metric_suite(rng, n_pairs: int = 2000) -> SuiteResult:
    worst = 0.0
    details = {}
    sandwich = 0.0
    # gaps and projector differences by dimension, for one trace_norm call each
    by_dim: dict[int, tuple[list, list]] = {}
    for _ in range(n_pairs):
        n = int(rng.integers(2, 6))
        a, b = _random_unit(rng, n), _random_unit(rng, n)
        p = projective.ray_product(a, b)
        dist = projective.ray_distances(a, b)
        worst = max(worst, abs(dist.chord**2 - (2 - 2 * p)))
        worst = max(worst, abs(dist.gap - np.sqrt(max(1 - p * p, 0.0))))
        sandwich = max(
            sandwich,
            dist.chord - dist.fubini_study,
            dist.fubini_study - (np.pi * np.sqrt(2) / 4) * dist.chord,
            dist.chord / np.sqrt(2) - dist.gap,
            dist.gap - dist.chord,
        )
        gaps, diffs = by_dim.setdefault(n, ([], []))
        gaps.append(dist.gap)
        diffs.append(np.outer(a, a.conj()) - np.outer(b, b.conj()))
    gap_vs_trace = max(
        float(np.max(np.abs(np.array(gaps) - 0.5 * linalg.trace_norm(np.array(diffs)))))
        for gaps, diffs in by_dim.values()
    )
    details["closed_form"] = worst
    details["sandwich_slack"] = sandwich
    details["gap_vs_half_trace_norm"] = gap_vs_trace
    resid = max(worst, sandwich, gap_vs_trace)
    gate = 1e-9 * tol_scale()
    return SuiteResult("metric-identities", bool(resid <= gate), float(resid), gate, details)


def partial_trace_suite(rng, n_matrices: int = 200) -> SuiteResult:
    """The defining property of the partial traces S of random matrices T on
    three splits: tr(S A) = tr(T (A (x) 1)) for every A of a Hermitian basis
    of the kept left factor, symmetrically on the right, and tr S = tr T.
    Each split's basis and its lift to the whole space are stacked once, and
    all its matrices meet the whole stack in one contraction per side."""
    worst = 0.0
    for dl, dr in ((2, 2), (2, 4), (4, 2)):
        d = dl * dr
        ts = np.array([
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_matrices)
        ])
        basis_l = np.array(linalg.hermitian_basis(dl))
        basis_r = np.array(linalg.hermitian_basis(dr))
        for keep, basis, lifted in (
            ("left", basis_l, np.array([linalg.kron(a, linalg.eye(dr)) for a in basis_l])),
            ("right", basis_r, np.array([linalg.kron(linalg.eye(dl), b) for b in basis_r])),
        ):
            reduced = np.array([linalg.partial_trace(t, dl, dr, keep=keep) for t in ts])
            # tr(X A) = sum_ij X_ij A_ji, against every basis element at once
            lhs = np.einsum("mij,kji->mk", reduced, basis)
            rhs = np.einsum("mij,kji->mk", ts, lifted)
            traces = np.trace(reduced, axis1=1, axis2=2) - np.trace(ts, axis1=1, axis2=2)
            worst = max(worst, float(np.abs(lhs - rhs).max()), float(np.abs(traces).max()))
    gate = 1e-11 * tol_scale()
    return SuiteResult("partial-trace", bool(worst <= gate), float(worst), gate, {})


def gns_suite(rng, n_max: int = 5) -> SuiteResult:
    worst = 0.0
    details = {}
    for n in range(2, n_max + 1):
        pure = states.state_from_vector(_random_unit(rng, n))
        res = states.gns(pure)
        if res.dim != n or res.ideal_rank != n * (n - 1):
            return SuiteResult(
                "gns", False, np.inf, 0.0, {"bad_rank": (n, res.dim, res.ideal_rank)}
            )
        mixed = states.maximally_mixed(n)
        res_mixed = states.gns(mixed)
        if res_mixed.dim != n * n:
            return SuiteResult("gns", False, np.inf, 0.0, {"bad_mixed_dim": (n, res_mixed.dim)})
        for res_i, omega in ((res, pure), (res_mixed, mixed)):
            for _ in range(10):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                worst = max(
                    worst,
                    linalg.operator_norm(res_i.rep(a @ b) - res_i.rep(a) @ res_i.rep(b)),
                )
                got = np.vdot(res_i.cyclic, res_i.rep(a) @ res_i.cyclic)
                worst = max(worst, abs(got - omega.expect(a)))
                worst = max(
                    worst,
                    linalg.operator_norm(res_i.rep(a.conj().T) - res_i.rep(a).conj().T),
                )
    details["worst"] = worst
    gate = 1e-9 * tol_scale()
    return SuiteResult("gns", bool(worst <= gate), float(worst), gate, details)


def _loop_cover(n_points: int = 24):
    pts = [(float(t),) for t in np.linspace(0.0, 1.0, n_points, endpoint=False)]
    return cech.SampledCover(["minus", "plus"], {("minus", "plus"): pts}), pts


def cech_suite(rng) -> SuiteResult:
    worst = 0.0
    details = {}
    # coboundary on a 3-chart cover with a triple point
    pts = [(0.0, 0.0), (0.5, 0.25)]
    cover = cech.SampledCover(
        [0, 1, 2],
        {(0, 1): pts, (0, 2): pts, (1, 2): pts},
        {(0, 1, 2): pts},
    )
    funcs = {
        i: (lambda i: (lambda p: np.exp(1j * (i + 1) * (p[0] + 2 * p[1] ** 2))))(i)
        for i in cover.chart_ids
    }
    cob = cech.coboundary_u1(cover, funcs)
    rep = cech.check_cocycle_u1(cob, cover)
    worst = max(worst, rep.max_violation)
    if not rep.passed or rep.vacuous:
        return SuiteResult("cech", False, np.inf, 0.0, {"coboundary": rep})
    # corrupted entry must be located
    bad_vals = {k: v.copy() for k, v in cob.values.items()}
    bad_vals[(0, 1)][1] *= np.exp(0.4j)
    bad = cech.U1Cochain1(cover, bad_vals)
    rep_bad = cech.check_cocycle_u1(bad, cover)
    if rep_bad.passed or rep_bad.witness is None or rep_bad.witness[1] != pts[1]:
        return SuiteResult("cech", False, np.inf, 0.0, {"corruption_not_located": rep_bad})
    # two-chart windings
    loop_cover, loop_pts = _loop_cover()
    for k in range(-3, 4):
        vals = np.array([np.exp(2j * np.pi * k * p[0]) for p in loop_pts])
        cochain = cech.U1Cochain1(loop_cover, {("minus", "plus"): vals})
        is_cob, wind = cech.is_coboundary_two_chart(cochain)
        if wind != k or is_cob != (k == 0):
            return SuiteResult("cech", False, np.inf, 0.0, {"winding": (k, wind)})
    # delta1 of phase-perturbed exact lifts u_i(t) = exp(i H_i (1 + t)) at the
    # points of every overlap, from each chart generator's eigendecomposition
    dim = 3
    ts = np.array([p[0] for p in pts])
    lift_of = {}
    for i in cover.chart_ids:
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w, v = np.linalg.eigh((h + h.conj().T) / 2)
        lift_of[i] = (v * np.exp(1j * np.outer(1 + ts, w))[:, None, :]) @ v.conj().T
    mu = {pair: np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(pts))) for pair in cover.overlaps}
    values = {
        (i, j): mu[(i, j)][:, None, None] * (lift_of[i] @ lift_of[j].conj().swapaxes(-1, -2))
        for (i, j) in cover.overlaps
    }
    pu = cech.PUCochain1(cover, values)
    delta = cech.delta1_lift(pu, cover)
    for (i, j, k), (pij, pjk, pik) in cover.triple_positions.items():
        expected = np.conj(mu[(i, k)][pik]) * mu[(i, j)][pij] * mu[(j, k)][pjk]
        worst = max(worst, float(np.max(np.abs(delta.phases[(i, j, k)] - expected))))
    details["delta1"] = worst
    # refinement preserves the cocycle property
    ref_cover = cech.SampledCover(
        ["a", "b", "c", "d"],
        {("a", "b"): pts, ("a", "c"): pts, ("b", "c"): pts, ("c", "d"): pts},
        {("a", "b", "c"): pts},
    )
    refined = cech.refine(cob, {"a": 0, "b": 1, "c": 2, "d": 2}, ref_cover)
    rep_ref = cech.check_cocycle_u1(refined, ref_cover)
    worst = max(worst, rep_ref.max_violation)
    if not rep_ref.passed:
        return SuiteResult("cech", False, np.inf, 0.0, {"refined": rep_ref})
    gate = 1e-8 * tol_scale()
    return SuiteResult("cech", bool(worst <= gate), float(worst), gate, details)


def supernatural_suite(rng) -> SuiteResult:
    sn = supernatural
    ok = True
    details = {}

    def rand_sn():
        exps = {}
        for p in (2, 3, 5, 7):
            r = rng.integers(0, 4)
            if r == 3:
                exps[p] = sn.INF
            elif r:
                exps[p] = int(r)
        return sn.SupernaturalNumber(exps)

    for _ in range(60):
        a, b, c = rand_sn(), rand_sn(), rand_sn()
        ok &= str(sn.mul(a, b)) == str(sn.mul(b, a))
        ok &= str(sn.mul(sn.mul(a, b), c)) == str(sn.mul(a, sn.mul(b, c)))
        ok &= sn.iso_equivalent(a, a).equivalent
        ab = sn.iso_equivalent(a, b)
        ok &= ab.equivalent == sn.iso_equivalent(b, a).equivalent
        if ab.equivalent and sn.iso_equivalent(b, c).equivalent:
            ok &= sn.iso_equivalent(a, c).equivalent
        if ab.equivalent:
            ok &= str(sn.mul(a, sn.from_int(ab.c))) == str(sn.mul(b, sn.from_int(ab.d)))
    # Q(a) closure under addition of admissible rationals
    a = sn.from_type_sequence([2, 6, 12], tail_ratio=2)
    for _ in range(40):
        q1 = Fraction(int(rng.integers(-20, 20)), int(2 ** rng.integers(0, 5) * 3))
        q2 = Fraction(int(rng.integers(-20, 20)), int(2 ** rng.integers(0, 6)))
        if sn.q_contains(a, q1) and sn.q_contains(a, q2):
            ok &= sn.q_contains(a, q1 + q2)
    rows = sn.homotopy_table(a, 4)
    ok &= [tuple(r)[1:] for r in rows] == [
        (sn.PI_Q, sn.PI_Z_X_Q),
        (sn.PI_ZERO, sn.PI_ZERO),
        (sn.PI_Q, sn.PI_Q),
        (sn.PI_ZERO, sn.PI_ZERO),
    ]
    details["table_head"] = [tuple(r) for r in rows[:2]]
    return SuiteResult("supernatural", bool(ok), 0.0 if ok else np.inf, 0.0, details)


SUITES = {
    "metric-identities": metric_suite,
    "partial-trace": partial_trace_suite,
    "gns": gns_suite,
    "cech": cech_suite,
    "supernatural": supernatural_suite,
}


def run_selfcheck(seed: int) -> list[SuiteResult]:
    """Every suite of SUITES in order, suite idx drawing from the rng seeded
    with [seed, idx]."""
    return [suite(np.random.default_rng([seed, idx])) for idx, suite in enumerate(SUITES.values())]
