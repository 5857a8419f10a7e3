import numpy as np
import pytest

from phaselab.dimer import (
    ModelConfig,
    ParamPoint,
    bloch_ground_map,
    bump,
    dimer_closed_form,
    dimer_hamiltonian,
    dimer_swap_unitary,
    dimer_transport,
    equator_point,
    heisenberg_coupling,
    invariant_sweep,
    param_point,
    product_distance_bound,
    projected_equator_map,
    site_rotation,
    truncated_Z,
)
from phaselab.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_hermitian,
    embed_site_operator,
    eye,
    kron,
    operator_norm,
    spin_chain,
)

UP_DN = np.array([0, 1, 0, 0], dtype=complex)
DN_UP = np.array([0, 0, 1, 0], dtype=complex)
SINGLET = (DN_UP - UP_DN) / np.sqrt(2)


def random_s3(rng):
    v = rng.normal(size=4)
    return ParamPoint(v / np.linalg.norm(v))


def random_plus(rng, eps=0.25):
    while True:
        w = random_s3(rng)
        if w.w4 > -eps + 0.02:
            return w


def random_band(rng, eps=0.25):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    w4 = rng.uniform(-eps + 0.01, eps - 0.01)
    return ParamPoint(np.concatenate([v * np.sqrt(1 - w4**2), [w4]]))


def test_param_point_validation():
    with pytest.raises(ValueError):
        ParamPoint(np.array([1.0, 0, 0, 0.1]))
    w = param_point(0, 0, 0.6, 0.8)
    assert abs(w.wnorm - 0.6) < 1e-12


def test_bump():
    assert bump(param_point(0, 0, 0, 1), +1, 0.25) == 1.0
    assert bump(param_point(0, 0, 1, 0), +1, 0.25) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = random_s3(rng)
        mirrored = ParamPoint(-w.w)
        assert bump(w, -1, 0.25) == bump(mirrored, +1, 0.25)


def test_dimer_hamiltonian_anchors():
    h = dimer_hamiltonian(param_point(0, 0, 0, 1), +1)
    assert np.allclose(h, heisenberg_coupling())
    h_eq = dimer_hamiltonian(param_point(0, 0, 1, 0), +1)
    assert np.allclose(h_eq, kron(SIGMA_Z, eye(2)) - kron(eye(2), SIGMA_Z))
    assert abs(np.trace(h_eq)) < 1e-14
    with pytest.raises(ValueError):
        dimer_hamiltonian(param_point(0, 0, 0, -1), +1)


def test_closed_form_matches_eigensolver():
    rng = np.random.default_rng(3)
    for hemi in (+1, -1):
        for _ in range(200):
            w = random_plus(rng) if hemi == +1 else ParamPoint(-random_plus(rng).w)
            h = dimer_hamiltonian(w, hemi)
            cf = dimer_closed_form(w, hemi)
            evals, evecs = eig_hermitian(h)
            assert np.max(np.abs(np.sort(cf.spectrum) - evals)) < 1e-10
            assert abs(np.vdot(cf.ground, evecs[:, 0])) >= 1 - 1e-9
            assert np.linalg.norm(h @ cf.ground - cf.spectrum[0] * cf.ground) <= 1e-9
            assert abs(np.linalg.norm(cf.ground) - 1) < 1e-12


def test_closed_form_anchor_points():
    cf = dimer_closed_form(param_point(0, 0, 0, 1), +1)
    assert np.allclose(np.sort(cf.spectrum), [-3, 1, 1, 1])
    assert abs(abs(np.vdot(cf.ground, SINGLET)) - 1) < 1e-12
    cf_eq = dimer_closed_form(param_point(0, 0, 1, 0), +1)
    assert cf_eq.c == 1.0 and cf_eq.d == 0.0
    assert np.allclose(cf_eq.ground, DN_UP)
    cf_minus = dimer_closed_form(param_point(0, 0, 1, 0), -1)
    assert np.allclose(cf_minus.ground, UP_DN)
    cf_pole_minus = dimer_closed_form(param_point(0, 0, 0, -1), -1)
    assert np.allclose(cf_pole_minus.ground, -SINGLET)


def test_gap_positivity_floor():
    rng = np.random.default_rng(5)
    eps = 0.25
    floor = 2 * np.sqrt(1 - eps**2)
    for _ in range(1000):
        w = random_plus(rng, eps)
        cf = dimer_closed_form(w, +1, eps)
        g = bump(w, +1, eps)
        gap = 2 * g + 2 * cf.f
        assert gap >= floor - 1e-12


def test_site_rotation():
    assert np.allclose(site_rotation(0, 0), eye(2))
    u = site_rotation(np.pi / 2, 0)
    assert np.allclose(u.conj().T @ SIGMA_Z @ u, SIGMA_X)
    rng = np.random.default_rng(7)
    for _ in range(100):
        th, ph = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
        u = site_rotation(th, ph)
        n = np.array([np.cos(ph) * np.sin(th), np.sin(ph) * np.sin(th), np.cos(th)])
        target = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
        assert operator_norm(u.conj().T @ SIGMA_Z @ u - target) < 1e-12


def test_swap_unitary_basis_action():
    w = dimer_swap_unitary()
    assert operator_norm(w @ w.conj().T - eye(4)) < 1e-14
    assert np.allclose(w @ DN_UP, SINGLET)
    assert np.allclose(w @ UP_DN, (DN_UP + UP_DN) / np.sqrt(2))
    for v in (np.array([1, 0, 0, 0], dtype=complex), np.array([0, 0, 0, 1], dtype=complex)):
        assert np.allclose(w @ v, v)
    # W carries the reference dimer ground state to the pole ground state
    ref = dimer_closed_form(param_point(0, 0, 1, 0), +1).ground
    pole = dimer_closed_form(param_point(0, 0, 0, 1), +1).ground
    assert np.linalg.norm(w @ ref - pole) < 1e-12


def test_dimer_transport_moves_reference_ground_state():
    rng = np.random.default_rng(11)
    ref_plus = DN_UP
    ref_minus = UP_DN
    for _ in range(60):
        w = random_band(rng)
        vp = dimer_transport(w, +1)
        assert operator_norm(vp @ vp.conj().T - eye(4)) < 1e-12
        assert np.linalg.norm(vp @ ref_plus - dimer_closed_form(w, +1).ground) <= 1e-9
        vm = dimer_transport(w, -1)
        assert np.linalg.norm(vm @ ref_minus - dimer_closed_form(w, -1).ground) <= 1e-9
    with pytest.raises(ValueError):
        dimer_transport(param_point(0, 0, 0, 1), +1)


def test_dimer_transport_branch_independence():
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = random_band(rng)
        th, ph = w.theta_phi()
        v1 = dimer_transport(w, +1, branch=(th, ph))
        v2 = dimer_transport(w, +1, branch=(-th, ph + np.pi))
        assert np.max(np.abs(v1 - v2)) < 1e-12


def test_hemisphere_consistency_on_band():
    # on the band the +-paired and --paired descriptions give identical
    # two-site expectation values on every interior dimer
    rng = np.random.default_rng(17)
    for _ in range(30):
        w = random_band(rng)
        plus = dimer_closed_form(w, +1).ground
        minus = dimer_closed_form(w, -1).ground
        rho_plus = np.outer(plus, plus.conj())
        rho_m = np.outer(minus, minus.conj()).reshape(2, 2, 2, 2)
        # minus pairing covers sites (-1,0) and (1,2); the dimer (0,1) state
        # is then (site-0 marginal of the (-1,0) pair) x (site-1 marginal of
        # the (1,2) pair), whose two-site state repeats rho_m
        site0 = np.einsum("ikil->kl", rho_m)  # second factor of (-1,0)
        site1 = np.einsum("ikjk->ij", rho_m)  # first factor of (1,2)
        recomposed = kron(site0, site1)
        assert np.max(np.abs(recomposed - rho_plus)) < 1e-9


def test_truncated_z_reference_point():
    cfg = ModelConfig()
    tz = truncated_Z(param_point(0, 0, 1, 0), cfg, branch=(0.0, 0.0))
    n = cfg.n_sites
    # z acts trivially (the theta = 0 branch gives G = 1, so M = U1-dagger)
    assert np.max(np.abs(tz.z - eye(2**n))) < 1e-12
    pt = projected_equator_map(param_point(0, 0, 1, 0), cfg)
    assert abs(abs(pt.amplitudes[0]) - 1) < 1e-12


def test_truncated_z_unitary_and_monitors():
    rng = np.random.default_rng(19)
    for n_dimers in (2, 3):
        cfg = ModelConfig(n_dimers=n_dimers)
        for _ in range(4):
            w = random_band(rng)
            tz = truncated_Z(w, cfg)
            dim = 2**cfg.n_sites
            assert operator_norm(tz.z @ tz.z.conj().T - eye(dim)) < 1e-11
            assert tz.y_overlap >= 0.99
            # structural far-boundary defect law of the truncation
            th, _ = w.theta_phi()
            assert abs(abs(tz.y_raw) - np.cos(th / 2)) < 1e-12


def test_truncated_z_branch_gives_same_ray_data():
    cfg = ModelConfig()
    rng = np.random.default_rng(23)
    w = random_band(rng)
    th, ph = w.theta_phi()
    z1 = truncated_Z(w, cfg, branch=(th, ph)).z
    z2 = truncated_Z(w, cfg, branch=(-th, ph + np.pi)).z
    # equal as projective unitaries: conjugations agree
    a = embed_site_operator(SIGMA_X, 0, spin_chain(cfg.n_sites))
    assert np.max(np.abs(z1 @ a @ z1.conj().T - z2 @ a @ z2.conj().T)) < 1e-9


def test_intertwiner_residual_interior_sites():
    # Ad(z) must implement the composite (minus-automorphism) o (plus)^-1
    cfg = ModelConfig(n_dimers=3)
    rng = np.random.default_rng(29)
    w = random_band(rng)
    th, ph = w.theta_phi()
    tz = truncated_Z(w, cfg, branch=(th, ph))
    n = cfg.n_sites
    layout = spin_chain(n)
    from phaselab.dimer import _site_rotation_chain, chain_operators

    ops = chain_operators(n)
    g = _site_rotation_chain(th, ph, n)

    def ad(u, x):
        return u @ x @ u.conj().T

    for op, site in ((SIGMA_X, 0), (SIGMA_Z, 1), (SIGMA_Y, 2)):
        a = embed_site_operator(op, site, layout)
        # alpha_plus^{-1} = Ad(G' B+' G B+), alpha_minus = Ad(B- G' B-' G)
        step1 = ad(g.conj().T, ad(ops.b_plus.conj().T, ad(g, ad(ops.b_plus, a))))
        composite = ad(ops.b_minus, ad(g.conj().T, ad(ops.b_minus.conj().T, ad(g, step1))))
        lhs = tz.z @ a @ tz.z.conj().T
        assert operator_norm(lhs - composite) <= 1e-8


def test_projected_equator_map_matches_bloch():
    cfg = ModelConfig()
    for rhat, expected in (
        (np.array([0, 0, 1.0]), np.array([1, 0], dtype=complex)),
        (np.array([1.0, 0, 0]), np.array([1, 1], dtype=complex) / np.sqrt(2)),
    ):
        pt = projected_equator_map(equator_point(rhat), cfg)
        assert abs(abs(np.vdot(pt.ray.vec, expected)) - 1) < 1e-10
    rng = np.random.default_rng(31)
    for _ in range(25):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        pt = projected_equator_map(equator_point(v), cfg)
        b = bloch_ground_map(v)
        assert abs(np.vdot(pt.ray.vec, b.vec)) >= 1 - 1e-8
        assert pt.weight >= 1 - 1e-6
        # the strict span projection carries the same ray
        strict = pt.amplitudes / np.linalg.norm(pt.amplitudes)
        assert abs(np.vdot(strict, pt.ray.vec)) >= 1 - 1e-10


def test_bloch_ground_map():
    assert np.allclose(bloch_ground_map(np.array([0, 0, 1.0])).vec, [1, 0])
    assert abs(abs(bloch_ground_map(np.array([0, 0, -1.0])).vec[1]) - 1) < 1e-12
    rng = np.random.default_rng(37)
    for _ in range(50):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        v = bloch_ground_map(r).vec
        proj = np.outer(v, v.conj())
        target = (eye(2) + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2
        assert operator_norm(proj - target) < 1e-10
        h = -(r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)
        evals, evecs = eig_hermitian(h)
        assert abs(abs(np.vdot(v, evecs[:, 0])) - 1) < 1e-10


def test_invariant_small_grid():
    rec = invariant_sweep(ModelConfig(grid=(8, 16)))
    assert rec.agreement
    assert abs(rec.degree) == 1
    assert rec.y_overlap_min >= 0.99
    assert rec.weight_min >= 1 - 1e-6


def test_product_distance_bound():
    r = np.array([0, 0, 1.0])
    res = product_distance_bound(r, r, 3)
    assert res == (0, 0, 0) or max(res) < 1e-12
    res_anti = product_distance_bound(r, -r, 1)
    assert np.allclose(res_anti, (2, 2, 2), atol=1e-12)
    s = np.array([1.0, 0, 0])
    res_orth = product_distance_bound(r, s, 3)
    assert abs(res_orth.bound - 1.0) < 1e-12
    assert res_orth.witness >= res_orth.bound - 1e-10
    assert res_orth.exact >= res_orth.witness - 1e-10
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4):
        a, b = rng.normal(size=3), rng.normal(size=3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        res = product_distance_bound(a, b, n)
        assert res.witness >= res.bound - 1e-10
        assert res.exact >= res.witness - 1e-10


def test_interior_overlap_monitor_detects_contamination():
    from phaselab.dimer import _interior_overlap, reference_chain_state

    n = 6
    clean = reference_chain_state(n)
    assert abs(_interior_overlap(clean, n) - 1.0) < 1e-12
    # corrupting the far dimer is invisible to the monitor (by design)
    far_flip = clean.reshape(-1, 4)[:, [1, 0, 3, 2]].reshape(-1)
    assert abs(_interior_overlap(far_flip, n) - 1.0) < 1e-12
    # corrupting an interior site is detected
    interior_flip = clean.reshape(4, -1)[[1, 0, 3, 2]].reshape(-1)
    assert _interior_overlap(interior_flip, n) < 1e-12
    mixed = np.sqrt(0.5) * clean + np.sqrt(0.5) * interior_flip
    assert abs(_interior_overlap(mixed, n) - np.sqrt(0.5)) < 1e-12


def test_truncated_z_outside_band_errors():
    cfg = ModelConfig()
    with pytest.raises(ValueError):
        truncated_Z(param_point(0, 0, 0, 1), cfg)
    with pytest.raises(ValueError):
        projected_equator_map(param_point(0, 0, 0, -1), cfg)


def test_projected_map_extends_into_the_band():
    cfg = ModelConfig()
    rng = np.random.default_rng(47)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    w4 = 0.2
    w = ParamPoint(np.concatenate([v * np.sqrt(1 - w4**2), [w4]]))
    pt = projected_equator_map(w, cfg)
    assert abs(np.vdot(pt.ray.vec, bloch_ground_map(v).vec)) >= 1 - 1e-8


def test_invariant_degree_function():
    from phaselab.dimer import invariant_degree

    cfg = ModelConfig(grid=(8, 16))
    deg = invariant_degree(cfg)
    assert isinstance(deg, int)
    assert deg == invariant_sweep(cfg).degree


@pytest.mark.parametrize("n_dimers", [2, 3, 4])
def test_equator_batch_matches_dense_oracle(n_dimers):
    from phaselab.dimer import _equator_batch

    cfg = ModelConfig(n_dimers=n_dimers)
    rng = np.random.default_rng(53 + n_dimers)
    points = [random_band(rng) for _ in range(4)]
    theta, phi = np.array([w.theta_phi() for w in points]).T
    batch = _equator_batch(theta, phi, cfg.n_sites)
    for i, w in enumerate(points):
        tz = truncated_Z(w, cfg)
        assert np.max(np.abs(batch.zdag_omega[i] - tz.z.conj().T @ tz.omega_r)) <= 1e-12
        assert abs(batch.y_raw[i] - tz.y_raw) <= 1e-12
        assert abs(batch.y_overlap[i] - tz.y_overlap) <= 1e-12


def test_equator_batch_raises_for_first_failing_point(monkeypatch):
    from phaselab import dimer
    from phaselab.util import NumericalGateError

    # theta = pi makes <Omega, M Omega> = cos(theta/2) vanish
    with pytest.raises(NumericalGateError, match="reference overlap vanishes"):
        dimer._equator_batch(np.array([1.0, np.pi]), np.zeros(2), 4)
    monkeypatch.setattr(dimer, "PROJECTION_WEIGHT_GATE", -1.0)  # every weight now fails
    with pytest.raises(NumericalGateError, match="reference overlap vanishes"):
        dimer._equator_batch(np.array([np.pi, 1.0]), np.zeros(2), 4)
    with pytest.raises(NumericalGateError, match="projection weight"):
        dimer._equator_batch(np.array([1.0, np.pi]), np.zeros(2), 4)


def test_invariant_sweep_chunking_is_invisible(monkeypatch):
    from phaselab import dimer

    cfg = ModelConfig(grid=(8, 16))
    whole = invariant_sweep(cfg)
    monkeypatch.setattr(dimer, "SWEEP_BUDGET", 2**cfg.n_sites)  # one point per batch
    assert invariant_sweep(cfg) == whole


def test_model_config_state_budget():
    from phaselab.dimer import MAX_STATE_BYTES

    largest = int(np.log2(MAX_STATE_BYTES // 16)) // 2
    assert ModelConfig(n_dimers=largest).n_dimers == largest
    with pytest.raises(ValueError, match="budget"):
        ModelConfig(n_dimers=largest + 1)
