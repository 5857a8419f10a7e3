import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from phaselab.cech import (
    PUCochain1,
    SampledCover,
    U1Cochain1,
    check_cocycle_u1,
    coboundary_u1,
    delta1_lift,
    is_coboundary_two_chart,
    plaquette_degree,
    refine,
    sphere_grid,
    winding_number,
)
from phaselab.dimer import bloch_ground_map
from phaselab.util import NumericalGateError

PTS = [(0.1, 0.2), (0.3, -0.4), (0.7, 0.05)]


def three_chart_cover():
    return SampledCover(
        [0, 1, 2],
        {(0, 1): PTS, (0, 2): PTS, (1, 2): PTS},
        {(0, 1, 2): PTS},
    )


def test_cover_validation():
    with pytest.raises(ValueError):
        SampledCover([0, 1], {(0, 0): PTS})
    with pytest.raises(ValueError):
        SampledCover([0, 1, 2], {(0, 1): PTS}, {(0, 1, 2): PTS})  # triple misses overlaps


def test_coboundary_passes_checker():
    cover = three_chart_cover()
    funcs = {i: (lambda i: (lambda p: np.exp(1j * (i + 1) * p[0] * p[1])))(i) for i in (0, 1, 2)}
    rep = check_cocycle_u1(coboundary_u1(cover, funcs), cover)
    assert rep.passed and not rep.vacuous and rep.n_checked == 3


def test_two_chart_cover_is_vacuous():
    cover = SampledCover(["minus", "plus"], {("minus", "plus"): PTS})
    vals = {("minus", "plus"): np.exp(1j * np.arange(3))}
    rep = check_cocycle_u1(U1Cochain1(cover, vals), cover)
    assert rep.passed and rep.vacuous and rep.n_checked == 0


def test_corruption_is_located():
    cover = three_chart_cover()
    funcs = {i: (lambda i: (lambda p: np.exp(1j * (i + 1) * p[0])))(i) for i in (0, 1, 2)}
    cob = coboundary_u1(cover, funcs)
    vals = {k: v.copy() for k, v in cob.values.items()}
    vals[(1, 2)][2] *= np.exp(0.25j)
    rep = check_cocycle_u1(U1Cochain1(cover, vals), cover)
    assert not rep.passed
    assert rep.witness == ((0, 1, 2), PTS[2])


def test_cocycle_checker_fails_on_non_finite_values():
    cover = three_chart_cover()
    funcs = {i: (lambda i: (lambda p: np.exp(1j * (i + 1) * p[0])))(i) for i in (0, 1, 2)}
    cob = coboundary_u1(cover, funcs)
    cob.values[(1, 2)][:] = np.nan  # stored arrays stay writable after the constructor's check
    rep = check_cocycle_u1(cob, cover)
    assert not rep.passed and rep.max_violation == np.inf
    assert rep.witness == ((0, 1, 2), PTS[0])


def random_four_chart_cover(rng):
    """Charts 0..3 with every overlap sampled on a shuffled copy of one
    point set, and every triple sampled on a random subset of it."""
    points = [tuple(p) for p in rng.uniform(-1, 1, size=(6, 2))]
    overlaps = {
        (i, j): [points[k] for k in rng.permutation(6)] for i in range(4) for j in range(i + 1, 4)
    }
    triples = {
        trip: [points[k] for k in rng.choice(6, size=4, replace=False)]
        for trip in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    }
    return SampledCover([0, 1, 2, 3], overlaps, triples)


def test_cocycle_check_and_delta1_match_per_point_loops():
    rng = np.random.default_rng(71)
    cover = random_four_chart_cover(rng)
    # a U(1) cochain with random values: a failing check whose worst point is located
    phases = {key: rng.uniform(0, 0.01, len(pts)) for key, pts in cover.overlaps.items()}
    u1 = U1Cochain1(cover, {key: np.exp(1j * t) for key, t in phases.items()})
    worst, witness, n_checked = 0.0, None, 0
    for (i, j, k), pts in cover.triples.items():
        for p in pts:
            n_checked += 1
            viol = abs(u1.value(i, j, p) * u1.value(j, k, p) - u1.value(i, k, p))
            if viol > worst:
                worst, witness = viol, ((i, j, k), p)
    rep = check_cocycle_u1(u1, cover, tol=1e-6)
    assert not rep.passed and rep.n_checked == n_checked == 16
    assert rep.witness == witness
    assert abs(rep.max_violation - worst) < 1e-15

    # unitary lifts u_i u_j† times random phases: delta1 is the phase combination
    dim = 3
    us = {
        p: np.linalg.qr(rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim)))[0]
        for p in cover.overlaps[(0, 1)]
    }
    lifts = {
        (i, j): [np.exp(1j * rng.uniform(0, 2 * np.pi)) * us[p][i] @ us[p][j].conj().T for p in pts]
        for (i, j), pts in cover.overlaps.items()
    }
    pu = PUCochain1(cover, lifts)
    res = delta1_lift(pu, cover)
    assert sorted(res.phases) == sorted(cover.triples)
    for (i, j, k), pts in cover.triples.items():
        for idx, p in enumerate(pts):
            prod = pu.value(i, k, p).conj().T @ pu.value(i, j, p) @ pu.value(j, k, p)
            lam = np.trace(prod) / dim
            assert abs(res.phases[(i, j, k)][idx] - lam / abs(lam)) < 1e-13


def test_unsampled_point_is_an_input_error():
    cover = three_chart_cover()
    assert cover.pair_index(1, 0, PTS[2]) == 2
    with pytest.raises(ValueError, match="not sampled on overlap"):
        cover.pair_index(0, 1, (9.0, 9.0))
    funcs = {i: (lambda p: 1.0 + 0.0j) for i in (0, 1, 2)}
    cob = coboundary_u1(cover, funcs)
    other = SampledCover(["u", "v"], {("u", "v"): [(9.0, 9.0)]})
    with pytest.raises(ValueError, match="not sampled on overlap"):
        refine(cob, {"u": 0, "v": 1}, other)


def test_cochain_orientation_is_conjugate():
    cover = SampledCover([0, 1], {(0, 1): PTS})
    vals = np.exp(1j * np.array([0.3, 1.1, -0.4]))
    c = U1Cochain1(cover, {(0, 1): vals})
    for p, v in zip(PTS, vals):
        assert abs(c.value(1, 0, p) - np.conj(v)) < 1e-15


def test_u1_cochain_rejects_non_finite_values():
    cover = three_chart_cover()
    vals = {key: np.ones(3, dtype=complex) for key in cover.overlaps}
    vals[(1, 2)] = np.full(3, np.nan, dtype=complex)  # would read as a passing cocycle
    with pytest.raises(ValueError, match=r"non-finite value on overlap \(1, 2\)"):
        U1Cochain1(cover, vals)


def test_pu_cochain_rejects_non_finite_values():
    cover = SampledCover([0, 1], {(0, 1): PTS})
    mats = [np.eye(2, dtype=complex) for _ in PTS]
    mats[1] = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError, match="non-finite value on overlap"):
        PUCochain1(cover, {(0, 1): mats})


def test_u1_cochain_rejects_an_overlap_given_twice():
    cover = SampledCover([0, 1], {(0, 1): PTS})
    vals = np.exp(1j * np.array([0.3, 1.1, -0.4]))
    with pytest.raises(ValueError, match="given twice"):
        U1Cochain1(cover, {(0, 1): vals, (1, 0): vals.conj()})


def test_pu_cochain_rejects_an_overlap_given_twice():
    cover = SampledCover([0, 1], {(0, 1): PTS})
    mats = [np.eye(2, dtype=complex) for _ in PTS]
    with pytest.raises(ValueError, match="given twice"):
        PUCochain1(cover, {(0, 1): mats, (1, 0): mats})


def test_refine_identity_and_duplicate():
    cover = three_chart_cover()
    funcs = {i: (lambda i: (lambda p: np.exp(1j * (2 * i + 1) * p[1])))(i) for i in (0, 1, 2)}
    cob = coboundary_u1(cover, funcs)
    same = refine(cob, {0: 0, 1: 1, 2: 2}, cover)
    for key in cob.values:
        assert np.allclose(same.values[key], cob.values[key])
    # duplicating chart 2: cross-pair values are identities
    dup = SampledCover(
        ["a", "b", "c", "c2"],
        {("a", "b"): PTS, ("a", "c"): PTS, ("b", "c"): PTS, ("c", "c2"): PTS},
        {("a", "b", "c"): PTS},
    )
    ref = refine(cob, {"a": 0, "b": 1, "c": 2, "c2": 2}, dup)
    assert np.allclose(ref.values[("c", "c2")], 1.0)
    assert check_cocycle_u1(ref, dup).passed


def test_refine_random_cocycle_stays_cocycle():
    rng = np.random.default_rng(6)
    cover = three_chart_cover()
    funcs = {
        i: (lambda c: (lambda p: np.exp(1j * c * (p[0] + 2 * p[1]))))(float(rng.uniform(0.5, 3)))
        for i in (0, 1, 2)
    }
    cob = coboundary_u1(cover, funcs)
    fine = SampledCover(
        ["u", "v", "w"],
        {("u", "v"): PTS[:2], ("u", "w"): PTS[:2], ("v", "w"): PTS[:2]},
        {("u", "v", "w"): PTS[:2]},
    )
    ref = refine(cob, {"u": 0, "v": 1, "w": 2}, fine)
    assert check_cocycle_u1(ref, fine).passed


def test_winding_number():
    assert winding_number(np.ones(8)).winding == 0
    ts = np.arange(24) / 24
    assert winding_number(np.exp(2j * np.pi * ts)).winding == 1
    w = winding_number(np.exp(-4j * np.pi * ts))
    assert w.winding == -2 and w.integrality < 1e-12
    # additivity and conjugation antisymmetry on random smooth loops
    rng = np.random.default_rng(8)
    for _ in range(10):
        k1, k2 = rng.integers(-3, 4, size=2)
        smooth = np.exp(0.25j * np.sin(2 * np.pi * ts + rng.uniform(0, 2 * np.pi)))
        l1 = np.exp(2j * np.pi * k1 * ts) * smooth
        l2 = np.exp(2j * np.pi * k2 * ts)
        assert winding_number(l1 * l2).winding == k1 + k2
        assert winding_number(np.conj(l1)).winding == -winding_number(l1).winding
    with pytest.raises(ValueError):
        winding_number(np.array([1, -1, 1, -1]))  # pi steps


def test_winding_number_rejects_non_finite_values():
    z = np.exp(2j * np.pi * np.arange(8) / 8)
    z[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        winding_number(z)


def test_two_chart_coboundary_decision():
    ts = np.arange(40) / 40
    cover = SampledCover(["m", "p"], {("m", "p"): [(float(t),) for t in ts]})
    for k in (-2, -1, 0, 1, 3):
        vals = np.exp(2j * np.pi * k * ts)
        cochain = U1Cochain1(cover, {("m", "p"): vals})
        is_cob, wind = is_coboundary_two_chart(cochain)
        assert wind == k
        assert is_cob == (k == 0)


def test_delta1_exact_and_perturbed():
    rng = np.random.default_rng(13)
    cover = three_chart_cover()
    hs = {}
    for i in cover.chart_ids:
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hs[i] = (h + h.conj().T) / 2

    def lift(i, p):
        return scipy.linalg.expm(1j * hs[i] * (1 + p[0] - p[1]))

    exact = {
        (i, j): [lift(i, p) @ lift(j, p).conj().T for p in PTS]
        for (i, j) in cover.overlaps
    }
    res = delta1_lift(PUCochain1(cover, exact), cover)
    assert not res.vacuous
    for arr in res.phases.values():
        assert np.max(np.abs(arr - 1)) < 1e-10

    mu = {pair: np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(PTS))) for pair in cover.overlaps}
    perturbed = {
        pair: [mu[pair][k] * m for k, m in enumerate(mats)] for pair, mats in exact.items()
    }
    res2 = delta1_lift(PUCochain1(cover, perturbed), cover)
    expected = np.conj(mu[(0, 2)]) * mu[(0, 1)] * mu[(1, 2)]
    assert np.max(np.abs(res2.phases[(0, 1, 2)] - expected)) < 1e-10

    # two-chart covers are explicitly empty
    two = SampledCover([0, 1], {(0, 1): PTS})
    res3 = delta1_lift(PUCochain1(two, {(0, 1): exact[(0, 1)]}), two)
    assert res3.vacuous and res3.phases == {}

    # a non-cocycle modulo phase must raise
    broken = {pair: list(mats) for pair, mats in exact.items()}
    broken[(0, 1)][0] = scipy.linalg.expm(1j * hs[0])  # unrelated unitary
    with pytest.raises(ValueError):
        delta1_lift(PUCochain1(cover, broken), cover)


def bloch_field(k_dim, m_dim, winding=1):
    """The Bloch map composed with phi -> winding * phi, on the sphere grid."""
    thetas, phis = sphere_grid(k_dim, m_dim)
    field = np.zeros((k_dim, m_dim, 2), dtype=complex)
    for k, th in enumerate(thetas):
        for m, ph in enumerate(phis):
            ph = winding * ph
            r = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            field[k, m] = bloch_ground_map(r).vec
    return field


def test_plaquette_degree_constant_field():
    field = np.zeros((8, 12, 2), dtype=complex)
    field[..., 0] = 1.0
    assert plaquette_degree(field).degree == 0


PINNED_BLOCH_DEGREE = 1  # frozen from the 32x64 run; orientation convention fixed


def test_plaquette_degree_bloch_field():
    res = plaquette_degree(bloch_field(32, 64))
    assert res.degree == PINNED_BLOCH_DEGREE
    assert res.integrality <= 1e-6
    # stable under refining the grid x2
    assert plaquette_degree(bloch_field(64, 128)).degree == res.degree
    # conjugation reverses orientation
    assert plaquette_degree(bloch_field(32, 64).conj()).degree == -res.degree


def test_plaquette_flux_matches_solid_angle():
    # one plaquette vs the spherical-excess oracle (Van Oosterom-Strackee)
    k_dim, m_dim = 16, 32
    thetas, phis = sphere_grid(k_dim, m_dim)
    field = bloch_field(k_dim, m_dim)

    def tri(a, b, c):
        num = np.dot(a, np.cross(b, c))
        den = 1 + np.dot(a, b) + np.dot(b, c) + np.dot(a, c)
        return 2 * np.arctan2(num, den)

    def unit(th, ph):
        return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])

    k, m = 5, 11
    a, b = unit(thetas[k], phis[m]), unit(thetas[k + 1], phis[m])
    c, d = unit(thetas[k + 1], phis[m + 1]), unit(thetas[k], phis[m + 1])
    solid = tri(a, b, c) + tri(a, c, d)
    links = (
        np.vdot(field[k, m], field[k + 1, m])
        * np.vdot(field[k + 1, m], field[k + 1, m + 1])
        * np.vdot(field[k + 1, m + 1], field[k, m + 1])
        * np.vdot(field[k, m + 1], field[k, m])
    )
    assert abs(np.angle(links) - solid / 2) < 1e-6


def test_plaquette_degree_gauge_invariance():
    rng = np.random.default_rng(44)
    field = bloch_field(12, 24)
    res = plaquette_degree(field)
    gauged = field * np.exp(1j * rng.uniform(0, 2 * np.pi, size=field.shape[:2]))[..., None]
    res2 = plaquette_degree(gauged)
    assert res2.degree == res.degree
    assert abs(res2.total_flux - res.total_flux) < 1e-10


@st.composite
def resolved_grids(draw):
    """(K, M, winding) with winding in -2..2 and M > 2 |winding|. Coarser
    azimuthal grids alias: on M points phi -> k phi samples the same field
    as phi -> (k - M) phi, so no check on the samples can see k."""
    winding = draw(st.integers(-2, 2))
    k_dim = draw(st.integers(2, 10))
    m_dim = draw(st.integers(max(3, 2 * abs(winding) + 1), 24))
    return k_dim, m_dim, winding


@given(resolved_grids())
def test_plaquette_degree_of_bloch_winding(grid):
    k_dim, m_dim, winding = grid
    res = plaquette_degree(bloch_field(k_dim, m_dim, winding))
    assert res.degree == winding * PINNED_BLOCH_DEGREE


@given(resolved_grids(), st.integers(0, 2**32 - 1))
def test_plaquette_degree_site_phase_invariance(grid, seed):
    field = bloch_field(*grid)
    phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, size=field.shape[:2])
    res = plaquette_degree(field)
    gauged = plaquette_degree(field * np.exp(1j * phases)[..., None])
    assert gauged.degree == res.degree
    assert abs(gauged.total_flux - res.total_flux) < 1e-10


@given(resolved_grids(), st.integers(0, 23))
def test_plaquette_degree_azimuthal_roll_invariance(grid, shift):
    field = bloch_field(*grid)
    rolled = plaquette_degree(np.roll(field, shift, axis=1))
    assert rolled.degree == plaquette_degree(field).degree


def test_plaquette_degree_gates():
    field = np.zeros((4, 6, 2), dtype=complex)
    field[..., 0] = 1.0
    field[2, 3] = np.array([0, 1.0])  # orthogonal to its neighbours
    with pytest.raises(NumericalGateError):
        plaquette_degree(field)
    # a plaquette whose link product sits at the branch cut is ambiguous
    psi1 = np.array([1.0, 0.0], dtype=complex)
    psi2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    psi3 = np.array([0.0, 1.0], dtype=complex)
    psi4 = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    cut = np.empty((2, 3, 2), dtype=complex)
    cut[0] = [psi1, psi2, psi2]
    cut[1] = [psi4, psi3, psi3]
    with pytest.raises(NumericalGateError):
        plaquette_degree(cut)


def test_plaquette_degree_rejects_non_finite_field():
    field = bloch_field(4, 6)
    field[2, 3, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        plaquette_degree(field)


def test_refine_two_chart_preserves_winding():
    ts = np.arange(32) / 32
    pts = [(float(t),) for t in ts]
    cover = SampledCover(["m", "p"], {("m", "p"): pts})
    vals = np.exp(2j * np.pi * 2 * ts)
    cochain = U1Cochain1(cover, {("m", "p"): vals})
    refined_cover = SampledCover(["m2", "p2"], {("m2", "p2"): pts})
    refined = refine(cochain, {"m2": "m", "p2": "p"}, refined_cover)
    assert is_coboundary_two_chart(refined) == is_coboundary_two_chart(cochain)
