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
    equator_point,
    heisenberg_coupling,
    invariant_sweep,
    product_distance_bound,
    site_rotation,
    truncated_Z,
)
from phaselab.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_hermitian,
    embed,
    eye,
    kron,
    operator_norm,
)
from ray_fields import sphere_grid, turned_field

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
    w = ParamPoint(np.array([0, 0, 0.6, 0.8]))
    assert abs(w.wnorm - 0.6) < 1e-12


def test_bump():
    assert bump(ParamPoint(np.array([0, 0, 0, 1])), +1, 0.25) == 1.0
    assert bump(ParamPoint(np.array([0, 0, 1, 0])), +1, 0.25) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = random_s3(rng)
        mirrored = ParamPoint(-w.w)
        assert bump(w, -1, 0.25) == bump(mirrored, +1, 0.25)


def test_dimer_hamiltonian_anchors():
    h = dimer_hamiltonian(ParamPoint(np.array([0, 0, 0, 1])), +1)
    assert np.allclose(h, heisenberg_coupling())
    h_eq = dimer_hamiltonian(ParamPoint(np.array([0, 0, 1, 0])), +1)
    assert np.allclose(h_eq, kron(SIGMA_Z, eye(2)) - kron(eye(2), SIGMA_Z))
    assert abs(np.trace(h_eq)) < 1e-14
    with pytest.raises(ValueError):
        dimer_hamiltonian(ParamPoint(np.array([0, 0, 0, -1])), +1)


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
    cf = dimer_closed_form(ParamPoint(np.array([0, 0, 0, 1])), +1)
    assert np.allclose(np.sort(cf.spectrum), [-3, 1, 1, 1])
    assert abs(abs(np.vdot(cf.ground, SINGLET)) - 1) < 1e-12
    cf_eq = dimer_closed_form(ParamPoint(np.array([0, 0, 1, 0])), +1)
    assert cf_eq.c == 1.0 and cf_eq.d == 0.0
    assert np.allclose(cf_eq.ground, DN_UP)
    cf_minus = dimer_closed_form(ParamPoint(np.array([0, 0, 1, 0])), -1)
    assert np.allclose(cf_minus.ground, UP_DN)
    cf_pole_minus = dimer_closed_form(ParamPoint(np.array([0, 0, 0, -1])), -1)
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
    ref = dimer_closed_form(ParamPoint(np.array([0, 0, 1, 0])), +1).ground
    pole = dimer_closed_form(ParamPoint(np.array([0, 0, 0, 1])), +1).ground
    assert np.linalg.norm(w @ ref - pole) < 1e-12


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
    tz = truncated_Z(ParamPoint(np.array([0, 0, 1, 0])), cfg, branch=(0.0, 0.0))
    n = cfg.n_sites
    # z acts trivially (the theta = 0 branch gives G = 1, so M = U1-dagger)
    assert np.max(np.abs(tz.z - eye(2**n))) < 1e-12
    from phaselab.dimer import _equator_batch, _pattern

    batch = _equator_batch(np.zeros(1), np.zeros(1), n)  # the reference state itself
    assert abs(abs(batch.zdag_omega[0, _pattern(n)]) - 1) < 1e-12


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
    a = embed(SIGMA_X, 0, cfg.n_sites)
    assert np.max(np.abs(z1 @ a @ z1.conj().T - z2 @ a @ z2.conj().T)) < 1e-9


def test_intertwiner_residual_interior_sites():
    # Ad(z) must implement the composite (minus-automorphism) o (plus)^-1
    cfg = ModelConfig(n_dimers=3)
    rng = np.random.default_rng(29)
    w = random_band(rng)
    th, ph = w.theta_phi()
    tz = truncated_Z(w, cfg, branch=(th, ph))
    n = cfg.n_sites
    from phaselab.dimer import _site_rotation_chain, chain_operators

    ops = chain_operators(n)
    g = _site_rotation_chain(th, ph, n)

    def ad(u, x):
        return u @ x @ u.conj().T

    for op, site in ((SIGMA_X, 0), (SIGMA_Z, 1), (SIGMA_Y, 2)):
        a = embed(op, site, n)
        # alpha_plus^{-1} = Ad(G' B+' G B+), alpha_minus = Ad(B- G' B-' G)
        step1 = ad(g.conj().T, ad(ops.b_plus.conj().T, ad(g, ad(ops.b_plus, a))))
        composite = ad(ops.b_minus, ad(g.conj().T, ad(ops.b_minus.conj().T, ad(g, step1))))
        lhs = tz.z @ a @ tz.z.conj().T
        assert operator_norm(lhs - composite) <= 1e-8


def test_equator_batch_matches_bloch():
    # the sweep's N=2 chain (its window) against the Bloch ground map
    from phaselab.dimer import _equator_batch, _pattern

    rng = np.random.default_rng(31)
    v = rng.normal(size=(25, 3))
    v = np.concatenate([[[0, 0, 1.0], [1.0, 0, 0]], v / np.linalg.norm(v, axis=-1, keepdims=True)])
    batch = _equator_batch(np.arccos(v[:, 2]), np.arctan2(v[:, 1], v[:, 0]), 4)
    assert abs(abs(batch.rays[0, 0]) - 1) < 1e-10
    assert abs(abs(np.sum(batch.rays[1])) - np.sqrt(2)) < 1e-10
    for k, r in enumerate(v):
        assert abs(np.vdot(batch.rays[k], bloch_ground_map(r))) >= 1 - 1e-8
    assert np.min(batch.weight) >= 1 - 1e-6
    # the strict span projection (site 1 up, down; the rest in the pattern) carries the same ray
    strict = batch.zdag_omega.reshape(-1, 2, 8)[:, :, _pattern(4)]
    strict /= np.linalg.norm(strict, axis=-1, keepdims=True)
    assert np.min(np.abs(np.sum(strict.conj() * batch.rays, axis=-1))) >= 1 - 1e-10


def test_bloch_ground_map():
    assert np.allclose(bloch_ground_map(np.array([0, 0, 1.0])), [1, 0])
    assert abs(abs(bloch_ground_map(np.array([0, 0, -1.0]))[1]) - 1) < 1e-12
    rng = np.random.default_rng(37)
    for _ in range(50):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        v = bloch_ground_map(r)
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
    for w4 in (1, -1):
        with pytest.raises(ValueError):
            truncated_Z(ParamPoint(np.array([0, 0, 0, w4])), cfg)


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


@pytest.mark.parametrize("n", [4, 8])
def test_equator_batch_runs_one_brick_a_path_on_the_chain(n, monkeypatch):
    # each path's first brick is formed on pair states, so the 2^n
    # amplitudes see only its second: on M† Omega, n site and n - 2 pair
    # passes; on M Omega, without the far dimer's own gates, n - 2 and
    # n - 2. A path is a run of _layer calls, each on the last one's output.
    from phaselab import dimer

    paths, layer = [], dimer._layer

    def counted(psi, gate, sites):
        out = layer(psi, gate, sites)
        if psi.shape[0] == 2**n:
            if not paths or psi is not paths[-1][0]:
                paths.append([None, 0, 0])  # (last output, site passes, pair passes)
            paths[-1][0] = out
            paths[-1][1 if gate.ndim == 3 else 2] += len(sites)
        return out

    monkeypatch.setattr(dimer, "_layer", counted)
    dimer._equator_batch(np.array([0.4, 1.3, 2.9]), np.array([0.1, -2.0, 1.7]), n)
    assert [tuple(p[1:]) for p in paths] == [(n, n - 2), (n - 2, n - 2)]


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

    cfg = ModelConfig(n_dimers=3, grid=(8, 16))
    whole = invariant_sweep(cfg)
    monkeypatch.setattr(dimer, "SWEEP_POINTS", 1)  # one point per window batch
    assert invariant_sweep(cfg) == whole


@pytest.mark.parametrize("n_dimers", [2, 3, 4])
def test_equator_window_weight_is_the_same_in_any_batch(n_dimers):
    # the weight's norm sums the chain's rows in sequence, so a point's
    # weight, ray and interior overlap are those of the whole batch bit for bit
    from phaselab.dimer import _equator_window

    theta, phi = _grid_points(8, 16)
    whole = _equator_window(theta, phi, n_dimers)
    for i in range(len(theta)):
        point = _equator_window(theta[i:i + 1], phi[i:i + 1], n_dimers)
        for field in ("weight", "rays", "y_overlap"):
            assert np.array_equal(getattr(point, field)[0], getattr(whole, field)[i]), (field, i)


def test_model_config_grid_budget():
    # the budget counts rings: the most rings it admits, 2^20, are accepted
    # (not swept) at the most azimuths ring_degree sums exactly, 2^26; one
    # more ring or azimuth, or a float M, is refused before the sweep
    # allocates anything
    import tracemalloc

    from phaselab.cech import MAX_AZIMUTHS
    from phaselab.dimer import MAX_GRID_BYTES, RING_BYTES

    k_max = MAX_GRID_BYTES // RING_BYTES
    assert (k_max, MAX_AZIMUTHS) == (2**20, 2**26)
    assert ModelConfig(grid=(k_max, MAX_AZIMUTHS)).grid == (2**20, 2**26)
    assert ModelConfig(grid=(1024, 1024)).grid == (1024, 1024)
    tracemalloc.start()
    try:
        for grid, match in (((k_max + 1, 3), "budget"), ((10**12, 3), "budget"),
                            ((64, MAX_AZIMUTHS + 1), "azimuths"), ((64, 128.0), "two integers")):
            with pytest.raises(ValueError, match=match):
                invariant_sweep(ModelConfig(grid=grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("kwargs", [
    {"n_dimers": 2.5}, {"n_dimers": 3.0}, {"n_dimers": "3"}, {"n_dimers": True},
    {"grid": ("a", 3)}, {"grid": (32,)}, {"grid": (32, 64, 1)}, {"grid": (32.0, 64)},
    {"grid": (True, 64)}, {"grid": 32}, {"grid": "32x64"},
], ids=lambda kw: ",".join(f"{key}={value!r}" for key, value in kw.items()))
def test_model_config_checks_types_before_values(kwargs):
    # a float, string or bool count, or a grid that is not two integers, is
    # refused as a ValueError before any comparison could raise or pass it
    with pytest.raises(ValueError, match="must be (an integer|two integers)"):
        ModelConfig(**kwargs)


def test_model_config_state_budget():
    # the 4^N memory cap sits on the dense oracle alone, which refuses a
    # long chain before it allocates anything
    import tracemalloc

    from phaselab.dimer import chain_operators

    cfg = ModelConfig(n_dimers=40)
    w = equator_point(np.array([0.6, 0.0, 0.8]))
    tracemalloc.start()
    try:
        for build in (lambda: chain_operators(cfg.n_sites), lambda: truncated_Z(w, cfg),
                      lambda: chain_operators(12)):
            with pytest.raises(ValueError, match="budget"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _grid_points(k_dim, m_dim):
    return tuple(a.ravel() for a in np.meshgrid(*sphere_grid(k_dim, m_dim), indexing="ij"))


@pytest.mark.parametrize("n_dimers", [2, 3, 4, 5, 6])
def test_equator_window_matches_full_chain_oracle(n_dimers):
    from phaselab.dimer import _equator_batch, _equator_window

    theta, phi = _grid_points(32, 64)
    win = _equator_window(theta, phi, n_dimers)
    step = 256  # 16 MiB of 2^12 amplitudes a batch array at N=6
    parts = [_equator_batch(theta[i : i + step], phi[i : i + step], 2 * n_dimers)
             for i in range(0, len(theta), step)]
    rays, weight, y_overlap = (np.concatenate([getattr(p, f) for p in parts])
                               for f in ("rays", "weight", "y_overlap"))
    if n_dimers == 2:  # the window is the N=2 chain itself
        assert np.array_equal(win.rays, rays) and np.array_equal(win.weight, weight)
        assert np.array_equal(win.y_overlap, y_overlap)
    assert np.min(np.abs(np.sum(win.rays.conj() * rays, axis=-1))) >= 1 - 1e-13
    assert np.max(np.abs(win.weight - weight)) <= 1e-13
    assert np.max(np.abs(win.y_overlap - y_overlap)) <= 1e-13


def test_w_conserves_sz_and_the_site_rotation_factors():
    # the sweep's turn rests on both: W is block-diagonal on {|00>},
    # {|01>, |10>} and {|11>}, and u(theta, phi) = R(theta) diag(e^{i phi/2},
    # e^{-i phi/2}) with R(theta) real
    from phaselab.dimer import _W

    sz = np.array([0, 1, 1, 2])
    assert np.all(_W[sz[:, None] != sz[None, :]] == 0)
    rng = np.random.default_rng(61)
    theta, phi = rng.uniform(0, np.pi, 200), rng.uniform(-np.pi, np.pi, 200)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    r = np.stack([np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)], axis=-2)
    d = np.exp(0.5j * np.multiply.outer(phi, [1, -1]))
    assert np.max(np.abs(site_rotation(theta, phi) - r * d[:, None, :])) <= 1e-15


def _swept(cfg, monkeypatch):
    """invariant_sweep's record and its ray field (K, M, 2): the rings it
    hands ring_degree first, turned through the azimuths."""
    from phaselab import dimer

    handed, ring = [], dimer.ring_degree

    def kept(rings, n_phi):
        handed.append(rings.copy())
        return ring(rings, n_phi)

    with monkeypatch.context() as m:
        m.setattr(dimer, "ring_degree", kept)
        rec = invariant_sweep(cfg)
    return rec, turned_field(handed[0], cfg.grid[1])


@pytest.mark.parametrize("n_dimers", [2, 3, 4, 5])
def test_turned_ring_field_matches_the_window_at_every_point(n_dimers, monkeypatch):
    # the sweep runs the window at phi = 0 and turns each ring's ray; the
    # window at every (theta, phi) is the oracle for the turn
    from phaselab.dimer import _equator_window

    rec, field = _swept(ModelConfig(n_dimers=n_dimers), monkeypatch)
    theta, phi = _grid_points(32, 64)
    win = _equator_window(theta, phi, n_dimers)
    assert np.max(1 - np.abs(np.sum(field.reshape(-1, 2).conj() * win.rays, axis=-1))) <= 1e-14
    rings = _equator_window(sphere_grid(32, 64)[0], 0.0, n_dimers)
    for name in ("weight", "y_overlap"):
        assert np.max(np.abs(np.repeat(getattr(rings, name), 64) - getattr(win, name))) <= 1e-13
    assert (rec.weight_min, rec.y_overlap_min) == (np.min(rings.weight), np.min(rings.y_overlap))


@pytest.mark.parametrize("n_dimers", [2, 3, 4])
def test_turned_ring_field_matches_dense_oracle(n_dimers, monkeypatch):
    # at random grid directions, lifted to band points off the equator
    from phaselab.dimer import _equator_window, _pattern

    cfg = ModelConfig(n_dimers=n_dimers)
    _, field = _swept(cfg, monkeypatch)
    thetas, phis = sphere_grid(32, 64)
    rings = _equator_window(thetas, 0.0, n_dimers)
    rng = np.random.default_rng(71 + n_dimers)
    n = cfg.n_sites
    for k, m in zip(rng.integers(32, size=4), rng.integers(64, size=4)):
        th, ph = thetas[k], phis[m]
        w4 = rng.uniform(-0.24, 0.24)
        r = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        tz = truncated_Z(ParamPoint(np.append(np.sqrt(1 - w4**2) * r, w4)), cfg)
        block = (tz.z.conj().T @ tz.omega_r).reshape(2, 2 ** (n - 2), 2)[:, _pattern(n - 1)]
        assert 1 - abs(np.vdot(np.linalg.svd(block)[0][:, 0], field[k, m])) <= 1e-12
        assert abs(rings.y_overlap[k] - tz.y_overlap) <= 1e-12


def test_invariant_sweep_runs_the_window_once_a_ring(monkeypatch):
    from phaselab import dimer

    handed, window = [], dimer._equator_window

    def counted(theta, phi, n_dimers):
        handed.append(len(theta))
        return window(theta, phi, n_dimers)

    monkeypatch.setattr(dimer, "_equator_window", counted)
    monkeypatch.setattr(dimer, "SWEEP_POINTS", 5)  # rings per batch
    invariant_sweep(ModelConfig(n_dimers=3, grid=(12, 16)))
    assert handed == [5, 5, 2]


def test_invariant_sweep_takes_both_degrees_from_the_rings(monkeypatch):
    # no whole-grid degree: ring_degree gets the K projected rings, then the
    # K Bloch rings
    from phaselab import dimer

    handed, ring = [], dimer.ring_degree

    def counted(rings, n_phi):
        handed.append((rings.shape, n_phi))
        return ring(rings, n_phi)

    monkeypatch.setattr(dimer, "ring_degree", counted)
    assert invariant_sweep(ModelConfig(n_dimers=3, grid=(12, 16))).passed
    assert handed == [((12, 2), 16)] * 2


def test_invariant_sweep_memory_does_not_grow_with_the_azimuths():
    # the sweep holds its K rings and no array of length M or K x M: at
    # K = 64 the peak on 2^20 azimuths is that on 128, to within 64 KiB
    import tracemalloc

    invariant_sweep(ModelConfig(grid=(64, 128)))  # lazy imports, untraced
    peaks = []
    for m_dim in (128, 2**20):
        tracemalloc.start()
        try:
            rec = invariant_sweep(ModelConfig(grid=(64, m_dim)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rec.passed and rec.degree == rec.bloch_degree == 1
    assert abs(peaks[1] - peaks[0]) < 2**16, peaks


def test_perturbed_bulk_bond_fails_the_window(monkeypatch):
    # a bond gate W exp(0.1i sx(x)sx) in the bulk alone: N=2 has no bulk and
    # still passes, N=3 must refuse to certify
    from scipy.linalg import expm

    from phaselab import dimer
    from phaselab.util import NumericalGateError

    kick = expm(0.1j * kron(SIGMA_X, SIGMA_X))
    bond = dimer._bond
    monkeypatch.setattr(dimer, "_bond", lambda x, u, w, pattern: bond(x, u, w @ kick, pattern))
    assert invariant_sweep(ModelConfig(n_dimers=2, grid=(8, 16))).agreement
    with pytest.raises(NumericalGateError, match="bulk bond weight"):
        invariant_sweep(ModelConfig(n_dimers=3, grid=(8, 16)))


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", range(2, 9))
def test_layer_matches_embedded_operators(n):
    from phaselab.dimer import _layer

    rng = np.random.default_rng(300 + n)
    p = 5
    psi = _complex_normal(rng, p, 2**n)
    g = _complex_normal(rng, p, 2, 2)
    w = _complex_normal(rng, 4, 4)
    states = psi.T.copy()  # _layer stores the points last
    for site in range(n):
        want = np.stack([embed(g[k], site, n) @ psi[k] for k in range(p)])
        assert np.max(np.abs(_layer(states, g, [site]).T - want)) <= 1e-13
    # several sites in one call apply in order; unitaries keep the norm at 1
    v = np.linalg.qr(g)[0]
    unit = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    want = unit
    for site in range(n):
        want = np.stack([embed(v[k], site, n) @ want[k] for k in range(p)])
    unit_states = unit.T.copy()
    assert np.max(np.abs(_layer(unit_states, v, range(n)).T - want)) <= 1e-13
    for site in range(n - 1):
        want = psi @ embed(w, site, n).T
        assert np.max(np.abs(_layer(states, w, [site]).T - want)) <= 1e-13
    _layer(states, w, range(n - 1))
    # the input states are left as they were, also by calls over several sites
    assert np.array_equal(states, psi.T) and np.array_equal(unit_states, unit.T)


BLOCK_KINDS = ("random", "rank1", "zero-line", "diagonal")


def _blocks(kind, rng, p=256):
    b = _complex_normal(rng, p, 2, 2)
    if kind == "rank1":  # the sweep's regime
        return _complex_normal(rng, p, 2, 1) * _complex_normal(rng, p, 1, 2)
    if kind == "zero-line":  # a zero row or column, each in a quarter of the stack
        b[0::4, 0] = b[1::4, 1] = b[2::4, :, 0] = b[3::4, :, 1] = 0.0
    if kind == "diagonal":
        b[:, 0, 1] = b[:, 1, 0] = 0.0
    return b


@pytest.mark.parametrize("kind", BLOCK_KINDS)
def test_dominant_pair_matches_svd(kind):
    from phaselab.dimer import _dominant_pair

    block = _blocks(kind, np.random.default_rng(BLOCK_KINDS.index(kind)))
    lam, u, far = _dominant_pair(block)
    u_svd, svals, vh = np.linalg.svd(block)
    assert np.max(np.abs(lam - svals[:, 0] ** 2) / svals[:, 0] ** 2) <= 1e-14
    assert np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)) <= 1e-14
    assert np.max(np.abs(np.linalg.norm(far, axis=-1) - 1.0)) <= 1e-13
    gapped = svals[:, 1] <= 0.5 * svals[:, 0]
    assert gapped.sum() >= len(block) // 4
    phase = np.sum(u_svd[:, :, 0].conj() * u, axis=-1)  # u = phase * u_svd
    assert np.min(np.abs(phase[gapped])) >= 1 - 1e-12
    u_dag_b = np.sum(u.conj()[:, :, None] * block, axis=1)
    want = np.sqrt(lam)[:, None] * phase.conj()[:, None] * vh[:, 0]
    assert np.max(np.abs(u_dag_b - want)[gapped] / svals[gapped, :1]) <= 1e-12


def test_dominant_pair_at_exact_degeneracy(monkeypatch):
    from phaselab import dimer
    from phaselab.util import NumericalGateError

    hadamard_like = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    unitaries = [np.eye(2), hadamard_like, SIGMA_X, np.diag([1.0, 1j]),
                 np.linalg.qr(_complex_normal(np.random.default_rng(5), 2, 2))[0]]
    block = np.array([c * v for c in (1e-3, 0.5, 3.0) for v in unitaries], dtype=complex)
    lam, u, far = dimer._dominant_pair(block)
    sigma = np.linalg.svd(block, compute_uv=False)[:, 0]
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(far))
    assert np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)) <= 1e-14
    assert np.max(np.abs(np.linalg.norm(far, axis=-1) - 1.0)) <= 1e-14
    assert np.max(np.abs(lam - sigma**2) / sigma**2) <= 1e-14

    # a state whose (site 1) x (far site) block is hadamard_like / sqrt(2):
    # every layer of the batch returns it, and the weight gate refuses it at 1/2
    n = 4
    state = np.zeros((2**n, 2), dtype=complex)  # two points, stored last
    cells = state.reshape(2, 2 ** (n - 2), 2, 2)[:, dimer._pattern(n - 1)]  # a view
    cells[:] = hadamard_like[..., None] / np.sqrt(2.0)
    monkeypatch.setattr(dimer, "_layer", lambda psi, gate, sites: state)
    with pytest.raises(NumericalGateError, match=r"projection weight 0\.500000000 deficient"):
        dimer._equator_batch(np.array([1.0, 2.0]), np.zeros(2), n)


@pytest.mark.parametrize("pattern", [1, 2])
def test_bond_matches_dense_oracle(pattern):
    from scipy.linalg import expm

    from phaselab.dimer import _bond

    rng = np.random.default_rng(40 + pattern)
    theta, phi = rng.uniform(0.1, 3.0, 16), rng.uniform(-3.0, 3.0, 16)
    x = _complex_normal(rng, 16, 2)
    u = site_rotation(theta, phi)
    for w in (dimer_swap_unitary(), dimer_swap_unitary() @ expm(0.1j * kron(SIGMA_X, SIGMA_X))):
        got = _bond(x, u, w, pattern)
        for k in range(16):
            uu = kron(u[k], u[k])
            pair = w @ uu @ w.conj().T[:, 3 - pattern]
            gate = kron(w.conj().T @ uu.conj().T @ w, eye(2))
            want = (gate @ kron(x[k], pair)).reshape(4, 2)[pattern]
            assert np.max(np.abs(got[k] - want)) <= 1e-14
