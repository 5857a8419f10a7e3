"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. Every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np

from phaselab.dimer import (
    ModelConfig,
    ParamPoint,
    bloch_ground_map,
    bump,
    dimer_closed_form,
    dimer_hamiltonian,
    equator_point,
    invariant_sweep,
    product_distance_bound,
    truncated_Z,
)
from phaselab.homotopy import (
    bundled_plateau_loop,
    bundled_pure_loop,
    constant_loop,
    contract_loop,
    verify_homotopy,
)
from phaselab.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_hermitian,
    embed,
    eye,
    hermitian_basis,
    kron,
    operator_norm,
    partial_trace,
    trace_norm,
)
from phaselab.projective import ray_distances, ray_product
from phaselab.states import gns, maximally_mixed, state_from_vector
from phaselab.supernatural import (
    INF,
    PI_Q,
    PI_Z_X_Q,
    PI_ZERO,
    SupernaturalNumber,
    homotopy_table,
    iso_equivalent,
)
from phaselab.cech import (
    PUCochain1,
    SampledCover,
    U1Cochain1,
    check_cocycle_u1,
    coboundary_u1,
    delta1_lift,
    is_coboundary_two_chart,
)

EPS = 0.25


def report(num, label, detail, t0):
    print(f"[ACCEPT] criterion {num:>2} ({label}): PASS - {detail} [{time.time() - t0:.1f}s]")


def sample_o_plus(rng):
    while True:
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        if w[3] > -EPS + 1e-3:
            return ParamPoint(w)


def test_criterion_1_dimer_spectrum():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        w = sample_o_plus(rng)
        evals, _ = eig_hermitian(dimer_hamiltonian(w, +1, EPS))
        g = bump(w, +1, EPS)
        f = np.hypot(g, w.wnorm)
        closed = np.sort([-g - 2 * f, g, g, -g + 2 * f])
        worst = max(worst, float(np.max(np.abs(evals - closed))))
    assert worst <= 1e-10
    report(1, "dimer spectrum", f"1000 points, worst residual {worst:.2e}", t0)


def test_criterion_2_closed_form_ground_state():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst_overlap = 1.0
    for _ in range(1000):
        w = sample_o_plus(rng)
        cf = dimer_closed_form(w, +1, EPS)
        _, vecs = eig_hermitian(dimer_hamiltonian(w, +1, EPS))
        worst_overlap = min(worst_overlap, abs(np.vdot(cf.ground, vecs[:, 0])))
    assert worst_overlap >= 1 - 1e-9
    singlet = np.array([0, -1, 1, 0], dtype=complex) / np.sqrt(2)
    pole = dimer_closed_form(ParamPoint(np.array([0, 0, 0, 1.0])), +1, EPS).ground
    assert np.linalg.norm(pole - singlet) < 1e-12
    ref = dimer_closed_form(ParamPoint(np.array([0, 0, 1.0, 0])), +1, EPS).ground
    assert np.linalg.norm(ref - np.array([0, 0, 1, 0])) < 1e-12
    report(2, "closed-form ground state", f"min eigensolver overlap {worst_overlap:.12f}", t0)


def test_criterion_3_metric_identities():
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst_closed = 0.0
    worst_sandwich = 0.0
    worst_gap = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        p = ray_product(a, b)
        d = ray_distances(a, b)
        worst_closed = max(
            worst_closed,
            abs(d.chord**2 - (2 - 2 * p)),
            abs(d.gap - np.linalg.norm(b - np.vdot(a, b) * a)),
        )
        worst_sandwich = max(
            worst_sandwich,
            d.chord - d.fubini_study,
            d.fubini_study - (np.pi * np.sqrt(2) / 4) * d.chord,
        )
        pa, pb = np.outer(a, a.conj()), np.outer(b, b.conj())
        worst_gap = max(worst_gap, abs(d.gap - 0.5 * trace_norm(pa - pb)))
    assert worst_closed <= 1e-10
    assert worst_sandwich <= 1e-10
    assert worst_gap <= 1e-9
    report(
        3,
        "metric identities",
        f"1e4 pairs, closed-form {worst_closed:.1e}, sandwich slack {worst_sandwich:.1e}, "
        f"gap-vs-trace-norm {worst_gap:.1e}",
        t0,
    )


def test_criterion_4_partial_trace_defining_property():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    cases = [(2, 2, 500), (2, 4, 250), (4, 2, 250)]
    for dl, dr, count in cases:
        basis = hermitian_basis(dl)
        idl, idr = eye(dl), eye(dr)
        for _ in range(count):
            t = rng.normal(size=(dl * dr, dl * dr)) + 1j * rng.normal(size=(dl * dr, dl * dr))
            s = partial_trace(t, dl, dr, "left")
            for a in basis:
                worst = max(worst, abs(np.trace(s @ a) - np.trace(t @ np.kron(a, idr))))
    assert worst <= 1e-11
    report(4, "partial trace", f"1000 matrices across 4x4 and 8x8, worst {worst:.2e}", t0)


def test_criterion_5_gns():
    t0 = time.time()
    rng = np.random.default_rng(105)
    worst = 0.0
    for n in range(2, 7):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = gns(state_from_vector(v))
        assert res.dim == n
        assert res.ideal_rank == n * (n - 1)
        for _ in range(10):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            worst = max(worst, operator_norm(res.rep(a @ b) - res.rep(a) @ res.rep(b)))
        assert gns(maximally_mixed(n)).dim == n * n
    assert worst <= 1e-9
    report(5, "gns", f"n=2..6 ranks exact, multiplicativity {worst:.2e}", t0)


def test_criterion_6_invariant_headline():
    t0 = time.time()
    base = invariant_sweep(ModelConfig(n_dimers=2, grid=(32, 64)))
    assert abs(base.degree) == 1
    assert base.agreement
    assert base.y_overlap_min >= 0.99
    assert base.ray_agreement_min >= 1 - 1e-8
    assert base.weight_min >= 1 - 1e-6

    bigger_chain = invariant_sweep(ModelConfig(n_dimers=3, grid=(32, 64)))
    assert bigger_chain.degree == base.degree and bigger_chain.agreement
    finer_grid = invariant_sweep(ModelConfig(n_dimers=2, grid=(64, 128)))
    assert finer_grid.degree == base.degree and finer_grid.agreement

    # intertwiner residual on interior single-site operators at N=3
    from phaselab.dimer import _site_rotation_chain, chain_operators

    cfg = ModelConfig(n_dimers=3)
    rng = np.random.default_rng(106)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    w = equator_point(v)
    th, ph = w.theta_phi()
    tz = truncated_Z(w, cfg, branch=(th, ph))
    ops = chain_operators(cfg.n_sites)
    g = _site_rotation_chain(th, ph, cfg.n_sites)
    worst_resid = 0.0
    for op, site in ((SIGMA_X, 0), (SIGMA_Z, 1), (SIGMA_Y, 2)):
        a = embed(op, site, cfg.n_sites)
        inner = g.conj().T @ ops.b_plus.conj().T @ g @ ops.b_plus @ a
        inner = inner @ ops.b_plus.conj().T @ g.conj().T @ ops.b_plus @ g
        composite = ops.b_minus @ g.conj().T @ ops.b_minus.conj().T @ g @ inner
        composite = composite @ g.conj().T @ ops.b_minus @ g @ ops.b_minus.conj().T
        worst_resid = max(worst_resid, operator_norm(tz.z @ a @ tz.z.conj().T - composite))
    assert worst_resid <= 1e-8
    report(
        6,
        "invariant headline",
        f"degree {base.degree} == bloch {base.bloch_degree}, stable at N=3 and 64x128, "
        f"y_overlap_min {base.y_overlap_min:.6f}, intertwiner residual {worst_resid:.1e}",
        t0,
    )


def test_criterion_7_noninteracting_bound():
    t0 = time.time()
    rng = np.random.default_rng(107)
    worst_slack = np.inf
    for _ in range(100):
        r, s = rng.normal(size=3), rng.normal(size=3)
        r /= np.linalg.norm(r)
        s /= np.linalg.norm(s)
        for n in (1, 2, 3, 4):
            res = product_distance_bound(r, s, n)
            assert res.exact >= res.bound - 1e-10
            assert res.witness >= res.bound - 1e-10
            worst_slack = min(worst_slack, res.exact - res.bound)
    assert worst_slack >= -1e-10
    report(7, "noninteracting bound", f"400 cases, min slack {worst_slack:.2e}", t0)


def test_criterion_8_loop_contraction():
    t0 = time.time()
    for label, loop in (
        ("n=2 pure", bundled_pure_loop()),
        ("n=3 plateau", bundled_plateau_loop()),
    ):
        sheet = contract_loop(loop)
        verdict = verify_homotopy(sheet, loop, modulus=5 * loop.max_step)
        assert verdict.passed, (label, verdict.violations[:3])
    const = constant_loop(2, 16)
    sheet = contract_loop(const)
    verdict = verify_homotopy(sheet, const, modulus=1e-9)
    assert verdict.passed
    assert verdict.max_cell_step == 0.0
    report(8, "loop contraction", "bundled n=2 and n=3 loops + constant loop verified", t0)


def test_criterion_9_supernatural_tables():
    t0 = time.time()
    a = SupernaturalNumber({2: INF})
    rows = homotopy_table(a, 6)
    for row in rows:
        if row.k % 2 == 0:
            assert (row.unitary_group, row.isotropy_group) == (PI_ZERO, PI_ZERO)
        elif row.k == 1:
            assert (row.unitary_group, row.isotropy_group) == (PI_Q, PI_Z_X_Q)
        else:
            assert (row.unitary_group, row.isotropy_group) == (PI_Q, PI_Q)
    wit = iso_equivalent(a, SupernaturalNumber({2: INF, 3: 1}))
    assert wit.equivalent and (wit.c, wit.d) == (3, 1)
    report(9, "supernatural tables", "table rows and witness (3, 1) reproduced", t0)


def test_criterion_10_cech_suite():
    t0 = time.time()
    import scipy.linalg

    rng = np.random.default_rng(110)
    pts = [(0.2, 0.1), (0.4, -0.3)]
    cover = SampledCover(
        [0, 1, 2], {(0, 1): pts, (0, 2): pts, (1, 2): pts}, {(0, 1, 2): pts}
    )
    # delta_1 reproduces the phase perturbation exactly
    hs = {}
    for i in cover.chart_ids:
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hs[i] = (h + h.conj().T) / 2
    exact = {
        (i, j): [
            scipy.linalg.expm(1j * hs[i] * (1 + p[0]))
            @ scipy.linalg.expm(1j * hs[j] * (1 + p[0])).conj().T
            for p in pts
        ]
        for (i, j) in cover.overlaps
    }
    mu = {pair: np.exp(1j * rng.uniform(0, 2 * np.pi, len(pts))) for pair in cover.overlaps}
    lifted = {pair: [mu[pair][k] * m for k, m in enumerate(ms)] for pair, ms in exact.items()}
    res = delta1_lift(PUCochain1(cover, lifted), cover)
    expected = np.conj(mu[(0, 2)]) * mu[(0, 1)] * mu[(1, 2)]
    worst = float(np.max(np.abs(res.phases[(0, 1, 2)] - expected)))
    assert worst <= 1e-12

    funcs = {i: (lambda i: (lambda p: np.exp(1j * (i + 1) * p[0])))(i) for i in (0, 1, 2)}
    cob = coboundary_u1(cover, funcs)
    assert check_cocycle_u1(cob, cover).passed
    bad_vals = {k: v.copy() for k, v in cob.values.items()}
    bad_vals[(0, 1)][1] *= np.exp(0.3j)
    rep_bad = check_cocycle_u1(U1Cochain1(cover, bad_vals), cover)
    assert not rep_bad.passed and rep_bad.witness[1] == pts[1]

    ts = np.arange(48) / 48
    loop_cover = SampledCover(["m", "p"], {("m", "p"): [(float(t),) for t in ts]})
    for k in range(-3, 4):
        cochain = U1Cochain1(loop_cover, {("m", "p"): np.exp(2j * np.pi * k * ts)})
        is_cob, wind = is_coboundary_two_chart(cochain)
        assert wind == k and is_cob == (k == 0)
    report(10, "cech suite", f"delta1 phases exact to {worst:.1e}, windings -3..3", t0)
