import copy
import dataclasses
import json
import math
import pickle
import re
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselab import homotopy, linalg, serialize, states
from phaselab.cli import main
from phaselab.homotopy import (
    SAFETY_FLOOR,
    HomotopySheet,
    StateLoop,
    bundled_plateau_loop,
    bundled_pure_loop,
    constant_loop,
    contract_loop,
    disk_phase_lift,
    pencil,
    projection_matrix,
    random_based_loop,
    safety_min,
    verify_homotopy,
)
from phaselab.linalg import pack_hermitian
from phaselab.states import DensityState, basis_state, state_from_vector, validate_densities
from block_probe import block_grown_rows, rule_block
from exact_minors import exactly_above
from sheet_cells import cells, forge_cells, forge_loop


def encode_matrix(m) -> list:
    """Row-major nested [re, im] pairs, one level deeper per leading axis:
    the matrices of the earlier sheet formats and of format 1 loop
    documents, which the tests forge to see them refused."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def test_projection_matrix():
    assert np.array_equal(projection_matrix(2, 0), np.eye(2))
    assert np.array_equal(projection_matrix(2, 1), np.diag([1.0, 0.0]))
    assert np.array_equal(projection_matrix(4, 3), np.diag([1.0, 0, 0, 0]))
    with pytest.raises(ValueError):
        projection_matrix(3, 3)


def test_state_loop_validation():
    base = basis_state(2).rho
    other = basis_state(2, 1).rho
    with pytest.raises(ValueError):
        StateLoop(2, np.array([other, base, other]))  # wrong basepoint
    with pytest.raises(ValueError):
        StateLoop(2, np.array([base, other, other]))  # not closed
    coarse = StateLoop(2, np.array([base, other, base]))  # valid loop, just coarse
    assert coarse.max_step == 2.0 and coarse.modulus == 10.0
    flat = constant_loop(2, 8)
    assert flat.max_step == 0.0 and flat.modulus == 5e-9  # 5 times the step floor
    # the samples are stored as their Hermitian part: an exactly Hermitian
    # stack bit for bit, and one off by 1e-12 exactly Hermitian
    rhos = random_based_loop(3, 2, 40).rhos
    assert StateLoop(3, rhos).rhos.tobytes() == rhos.tobytes()
    rhos = rhos.copy()
    rhos[1:-1, 0, 1] += 1e-12
    stored = StateLoop(3, rhos).rhos
    assert np.array_equal(stored, stored.conj().swapaxes(-1, -2))
    assert np.array_equal(stored, (rhos + rhos.conj().swapaxes(-1, -2)) / 2)
    assert validate_densities(rhos).tobytes() == stored.tobytes()  # the array validation checked


@pytest.mark.parametrize("over", [False, True])
def test_basepoint_check_decides_on_the_exact_distance(over, monkeypatch):
    # the last sample of constant_loop(3, 10) moved to diag(1 - δ, δ, 0), a
    # trace distance from the basepoint, and from the first sample, 1e-6
    # relative under or over BASEPOINT_TOL. Its bound √3‖Δ‖_F exceeds
    # BASEPOINT_TOL either way, so the exact norm decides: the loop is
    # accepted just under and refused just over. A distance that reads NaN
    # is refused too: it is not at most BASEPOINT_TOL
    tol = homotopy.BASEPOINT_TOL
    delta = tol / 2 * (1.0 + (1e-6 if over else -1e-6))
    rhos = constant_loop(3, 10).rhos.copy()
    rhos[-1] = np.diag([1.0 - delta, delta, 0.0])
    dist = linalg.trace_norm(rhos[-1] - rhos[0])
    assert (dist > tol) == over and abs(dist / tol - 1.0) < 2e-6
    assert np.sqrt(3) * np.linalg.norm(rhos[-1] - rhos[0]) > tol
    exact, norms = [], homotopy._hermitian_trace_norm
    monkeypatch.setattr(homotopy, "_hermitian_trace_norm", lambda x: exact.append(norms(x)) or exact[-1])
    read = lambda: [value for values in exact for value in values.tolist()]
    if over:
        with pytest.raises(ValueError, match="based at the first-basis-vector state"):
            StateLoop(3, rhos)
        assert read() == [dist]
    else:
        StateLoop(3, rhos)
        assert read() == [dist, linalg.trace_norm(rhos[0] - rhos[-1])]  # the far end's, then the closure's
    monkeypatch.setattr(homotopy, "_hermitian_trace_norm", lambda x: np.full(x.shape[1:], np.nan))
    with pytest.raises(ValueError, match="based at the first-basis-vector state"):
        StateLoop(3, rhos)


def _expm_loop_samples(n, seed, n_samples):
    """The seeded loop's samples one at a time, each exponential from
    scipy.linalg.expm: the reference for random_based_loop's batched eigh."""
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gens.append((a + a.conj().T) / 2)
    c1, c2 = rng.uniform(0.3, 0.7, size=2)

    def rho_at(t):
        h = c1 * np.sin(np.pi * t) * gens[0] + c2 * np.sin(2 * np.pi * t) * gens[1]
        u = expm(1j * h)
        mix = 0.18 * np.sin(np.pi * t) ** 2
        d = np.diag(np.array([1 - mix] + [mix / (n - 1)] * (n - 1)))
        return u @ d @ u.conj().T

    return np.array([homotopy._snap(rho_at(t)) for t in np.linspace(0.0, 1.0, n_samples + 1)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_loop_matches_the_expm_reference(n):
    # 1e-13 is about 450 eps, fixed before the batched generator was
    # measured against the reference (1.2e-15 at worst)
    for seed in range(1, 13):
        rhos = random_based_loop(n, seed, 700).rhos
        assert np.max(np.abs(rhos - _expm_loop_samples(n, seed, 700))) <= 1e-13


def test_random_loop_refuses_n_below_two(monkeypatch):
    # refused before the rng is drawn, not as the 0/0 of mix / (n - 1)
    monkeypatch.setattr(np.random, "default_rng", None)
    for n in (1, 0, -2):
        with pytest.raises(ValueError, match="n >= 2"):
            random_based_loop(n, 2, 40)


def test_state_loop_is_one_validated_array():
    loop = bundled_pure_loop(16)
    assert loop.rhos.dtype == np.complex128
    assert loop.rhos.shape == (17, 2, 2) and loop.n_samples == 17
    rhos = loop.rhos.copy()
    rhos[9] = np.diag([1.5, -0.5])
    rhos[5] = np.diag([0.7, 0.0])  # the first failing sample: its trace
    with pytest.raises(ValueError) as want:
        DensityState(rhos[5])
    doc = {"n": 2, "format": 2, "packed": pack_hermitian(rhos).T.ravel().tolist()}
    for build, prefix in ((lambda: StateLoop(2, rhos), ""),
                          (lambda: serialize.loop_from_doc(doc), "invalid loop document: ")):
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == prefix + str(want.value)
    with pytest.raises(ValueError, match="states on M_n"):
        StateLoop(3, loop.rhos)


def test_a_loop_and_a_sheet_hold_read_only_arrays(pure_sheet):
    # a StateLoop's samples and packed rows, and each level's vectors and
    # phases, refuse an in-place write; the arrays a loop and a sheet are
    # made from are the caller's: a loop validates a copy, and a sheet
    # freezes its levels' arrays in place
    loop = bundled_pure_loop()
    (level,) = pure_sheet.levels
    for array in (loop.rhos, loop.x, level.vectors, level.phases):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 0
    given = loop.rhos.copy()
    made = StateLoop(2, given)
    given[0] = 0.0  # still the caller's to write
    assert made.rhos.tobytes() == loop.rhos.tobytes()
    sheet = HomotopySheet(2, [level._replace(vectors=level.vectors.copy(), phases=level.phases.copy())])
    assert type(sheet.levels) is tuple and not sheet.levels[0].vectors.flags.writeable


def test_a_loop_and_a_sheet_refuse_assignment(pure_sheet):
    loop = bundled_pure_loop()
    for value, name in ((loop, "rhos"), (loop, "x"), (loop, "n"), (pure_sheet, "levels"), (pure_sheet, "shape"),
                        (pure_sheet, "held_bytes")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_a_loop_is_packed_once_over_load_contract_and_verify(monkeypatch):
    # StateLoop packs its samples once (StateLoop.x); the contractor, the
    # expansion and the verifier read those rows as row 0
    doc = serialize.loop_to_doc(random_based_loop(3, 2, 700))
    packed = []
    for module in (homotopy, linalg):
        monkeypatch.setattr(module, "pack_hermitian",
                            lambda h, pack=module.pack_hermitian: packed.append(h.shape) or pack(h))
    loop = serialize.loop_from_doc(doc)
    assert verify_homotopy(contract_loop(loop), loop, loop.modulus).passed
    assert packed == [(701, 3, 3)]


@pytest.mark.parametrize("name", ["pure", "plateau"])
def test_sheet_blocks_yield_the_loops_packed_rows_as_row_0(name):
    loop, sheet = _contracted(name)
    stage, c, x = next(homotopy.sheet_blocks(sheet, loop))
    assert stage is None and c is None and x.shape == (loop.n ** 2, 1, loop.n_samples)
    assert x[:, 0].tobytes() == loop.x.tobytes() == pack_hermitian(loop.rhos).tobytes()


def test_disk_phase_lift_constant_and_boundary():
    lam = disk_phase_lift(np.ones(16, dtype=complex))
    assert np.allclose(lam, 1.0)
    ts = np.linspace(0, 1, 200)
    g = np.exp(2j * np.pi * ts)
    lam = disk_phase_lift(g)
    assert np.max(np.abs(lam - np.exp(-2j * np.pi * ts))) < 1e-9


def test_disk_phase_lift_chord():
    # dip inside the disk and come back to the boundary
    ts = np.linspace(0, 1, 400)
    g = (1 - 0.6 * np.sin(np.pi * ts)) * np.exp(1j * (0.4 + 1.2 * np.sin(2 * np.pi * ts)))
    lam = disk_phase_lift(g)
    on_boundary = np.abs(g) >= 1 - 1e-9
    assert on_boundary[0] and on_boundary[-1]
    assert np.max(np.abs(lam[on_boundary] * g[on_boundary] - 1)) < 1e-8
    assert np.max(np.abs(np.angle(lam[1:] / lam[:-1]))) < np.pi


def _numpy_phase_lift(gamma):
    """The lift's per-sample rule on numpy scalars (np.angle, np.exp,
    np.sign, a complex divided by its modulus): the oracle whose bits
    disk_phase_lift's loop on Python scalars must give."""
    g = np.asarray(gamma, dtype=np.complex128).ravel()
    lam = np.ones(g.shape[0], dtype=np.complex128)
    for t in range(g.shape[0]):
        prev = lam[t - 1] if t > 0 else 1.0 + 0.0j
        w = g[t]
        r = abs(w)
        if r >= homotopy.BOUNDARY_RADIUS:
            lam[t] = np.conj(w) / r
        elif r < 1e-12:
            lam[t] = prev
        else:
            wedge = np.pi * (1.0 - min(max(r, 0.0), 1.0))
            ang = float(np.angle(prev * w))
            lam[t] = prev if abs(ang) <= wedge else prev * np.exp(-1j * (ang - np.sign(ang) * wedge))
    return lam


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "seed13", "n4s1"])
def test_disk_phase_lift_is_the_numpy_scalar_rule_bit_for_bit(name, monkeypatch):
    # the paths t -> omega_t(U_t) of each level of real contractions, whose
    # lambda is held, rotated and snapped to the boundary in turn
    loop, _ = _contracted(name)
    paths, lift = [], homotopy.disk_phase_lift
    monkeypatch.setattr(homotopy, "disk_phase_lift", lambda g: paths.append(g) or lift(g))
    contract_loop(loop)
    assert len(paths) == loop.n - 1
    # and a circle at radius 0.95 wound twice, where lambda rotates at every sample
    paths.append(0.95 * np.exp(4j * np.pi * np.linspace(0.0, 1.0, 300)))
    for g in paths:
        assert np.array_equal(lift(g), _numpy_phase_lift(g))


def test_disk_phase_lift_rejects_coarse_paths():
    with pytest.raises(ValueError):
        disk_phase_lift(np.array([1.0, -1.0, 1.0, -1.0], dtype=complex))


def _admissible_paths(rng, count: int):
    """`count` seeded paths that disk_phase_lift admits, in the closed disk
    (to 1e-9) with steps under 0.1, in turn: random walks kept in the disk
    (the projection onto it shortens no step), paths along the boundary
    circle, lines through the origin that sample it, paths on the radii
    1 - 1e-9, BOUNDARY_RADIUS, 1 and 1 + 1e-9 and just inside the first,
    and dashes from deep inside out to the boundary and back."""
    edge = homotopy.BOUNDARY_RADIUS
    # 1 + 1e-9 times a unit phase can round past the lift's bound, so 1 + 0.99e-9 stands for it
    radii = np.array([edge, 1.0 - 1e-9, np.nextafter(edge, 0.0), 1.0, 1.0 + 0.99e-9])
    for i in range(count):
        m = int(rng.integers(2, 200))
        turns = rng.uniform(-0.099, 0.099, m)
        kind = i % 5
        if kind == 0:
            g = [np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())]
            for d in 0.099 * rng.random(m - 1) * np.exp(2j * np.pi * rng.random(m - 1)):
                w = g[-1] + d
                g.append(w / max(abs(w), 1.0))
        elif kind == 1:
            g = np.exp(1j * np.cumsum(turns))
        elif kind == 2:  # an odd count, so that the middle sample is 0
            g = np.linspace(-1.0, 1.0, 2 * (m // 2) + 23) * rng.uniform(0.0, 1.0) * np.exp(1j * turns[0] * 30)
        elif kind == 3:
            g = rng.choice(radii, m) * np.exp(1j * np.cumsum(turns))
        else:  # radially out at nearly the largest step, along the circle, and back in
            r = np.minimum(rng.uniform(0.0, 0.5) + 0.095 * np.minimum(np.arange(m), np.arange(m)[::-1]), 1.0)
            g = r * np.exp(1j * np.cumsum(turns / 4))
        yield np.asarray(g, dtype=np.complex128)


def test_disk_phase_lift_keeps_its_guarantees_on_admissible_paths():
    # the lift checks its input alone: on a path in the closed disk with
    # steps under 0.1, no lambda step reaches pi (a rotation turns it by at
    # most |angle| - pi (1 - r) <= pi r) and lambda*gamma = |gamma| on the
    # boundary, within 1e-9 of 1
    rng, boundary = np.random.default_rng(48), 0
    for g in _admissible_paths(rng, 4000):
        assert np.abs(g).max() <= 1.0 + 1e-9 and np.abs(np.diff(g)).max(initial=0.0) < 0.1
        lam = disk_phase_lift(g)
        assert np.abs(np.angle(lam[1:] / lam[:-1])).max(initial=0.0) < np.pi
        on = np.abs(g) >= homotopy.BOUNDARY_RADIUS
        assert np.abs(lam[on] * g[on] - 1.0).max(initial=0.0) <= 1e-8
        boundary += int(on.sum())
    assert boundary > 100_000


def test_safety_min():
    base = basis_state(2).rho
    value, s = safety_min(pencil(projection_matrix(2, 1), pack_hermitian(base))[1])
    assert value > SAFETY_FLOOR and abs(value - 1.0) < 1e-12
    value, s = safety_min(pencil(-np.eye(2, dtype=complex), pack_hermitian(base))[1])
    assert not value > SAFETY_FLOOR and s == 0.5
    # omega(U) = 0: safe with min s^2 + (1-s)^2 = 1/2 at s = 1/2
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    value, s = safety_min(pencil(sx, pack_hermitian(base))[1])
    assert value > SAFETY_FLOOR
    assert abs(value - 0.5) < 1e-12 and s == 0.5
    # a stack gives the values of single calls
    values, _ = safety_min(pencil(np.stack([sx, -np.eye(2)]), pack_hermitian(base))[1])
    assert values[0] == safety_min(pencil(sx, pack_hermitian(base))[1])[0]
    # operators are checked by the verifier: see test_verifier_flags_forged_recipes


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@given(
    n=st.integers(2, 4),
    kind=st.sampled_from(["unitary", "projection"]),
    seed=st.integers(0, 2**32 - 1),
    angle=st.floats(-np.pi, np.pi),
    weight=st.floats(0.0, 1.0),
)
def test_safety_min_is_the_exact_minimum(n, kind, seed, angle, weight):
    # A = V diag(...) V†; omega puts `weight` on V's first column, whose
    # unitary eigenvalue e^{i angle} reaches -1 at angle = +-pi
    rng = np.random.default_rng(seed)
    v = _random_unitary(rng, n)
    if kind == "unitary":
        spectrum = np.exp(1j * np.concatenate([[angle], rng.uniform(-np.pi, np.pi, n - 1)]))
    else:
        spectrum = (np.arange(n) < rng.integers(0, n + 1)).astype(complex)
    a = (v * spectrum) @ v.conj().T
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mixed = m @ m.conj().T / np.trace(m @ m.conj().T).real
    omega = DensityState(weight * np.outer(v[:, 0], v[:, 0].conj()) + (1 - weight) * mixed)

    def value(s):
        b = s * a + (1.0 - s) * np.eye(n)
        return float(np.trace(omega.rho @ b.conj().T @ b).real)

    min_value, s_at_min = map(float, safety_min(pencil(a, pack_hermitian(omega.rho))[1]))
    assert 0.0 <= s_at_min <= 1.0
    assert min_value <= min(value(s) for s in np.linspace(0.0, 1.0, 1001)) + 1e-12
    assert abs(min_value - value(s_at_min)) < 1e-12


def _level_last_rows(sheet: HomotopySheet, loop: StateLoop) -> list:
    """The last row of each level of a contraction sheet on `loop`."""
    rows, row, arr = [], 0, cells(sheet, loop)
    for level in sheet.levels:
        row += sum(level.rows)
        rows.append(arr[row])
    return rows


def test_rectify_constant_loop_is_constant():
    loop = constant_loop(3, 16)
    sheet = contract_loop(loop)
    base = basis_state(3)
    for row in cells(sheet, loop):
        for rho in row:
            assert np.max(np.abs(rho - base.rho)) < 1e-12


def test_rectify_pure_loop():
    loop = bundled_pure_loop(320)
    (out,) = _level_last_rows(contract_loop(loop), loop)  # n = 2: one level
    p = projection_matrix(2, 1)
    for s in map(DensityState, out):
        assert abs(s.expect(p).real - 1) < 1e-8
    # for n = 2, full weight on P^2_1 pins the state to the basepoint
    base = basis_state(2)
    for s in map(DensityState, out):
        assert np.max(np.abs(s.rho - base.rho)) < 1e-8


def test_rectify_plateau_loop_kills_last_row():
    loop = bundled_plateau_loop()
    out = _level_last_rows(contract_loop(loop), loop)[0]  # the first level acts on all of M_3
    p = projection_matrix(3, 1)
    for s in map(DensityState, out):
        assert abs(s.expect(p).real - 1) < 1e-8
        assert s.rho[2, 2].real < 1e-8


def test_rectify_rejects_coarse_loops():
    v0 = np.array([1, 0], dtype=complex)
    v1 = np.array([np.cos(0.5), np.sin(0.5)], dtype=complex)
    samples = [state_from_vector(v0), state_from_vector(v1), state_from_vector(v0)]
    loop = StateLoop(2, np.array([s.rho for s in samples]))
    with pytest.raises(ValueError, match="path too coarsely sampled for the phase lift"):
        contract_loop(loop)


def test_sheet_boundary_exactness():
    loop = bundled_pure_loop(320)
    sheet = contract_loop(loop)
    base = basis_state(2)
    arr = cells(sheet, loop)
    for row in arr:
        assert np.max(np.abs(row[0] - base.rho)) < 1e-10
        assert np.max(np.abs(row[-1] - base.rho)) < 1e-10
    (level,) = sheet.levels
    assert homotopy.level_unitaries(level).shape == (321, 2, 2)
    for _, s, _ in _stage_inputs(sheet, loop):
        assert (s > 0).all() and (s[-1] == 1.0).all()


@pytest.mark.parametrize(
    "make_loop",
    [
        lambda: bundled_pure_loop(),
        lambda: bundled_plateau_loop(),
        lambda: random_based_loop(3, seed=7),
    ],
    ids=["pure-n2", "plateau-n3", "random-n3"],
)
def test_contract_loop_verifies(make_loop):
    loop = make_loop()
    sheet = contract_loop(loop)
    report = verify_homotopy(sheet, loop, modulus=loop.modulus)
    assert report.passed, report.violations[:5]
    base = basis_state(loop.n)
    for rho in cells(sheet, loop)[-1]:
        assert np.max(np.abs(rho - base.rho)) < 1e-10


@pytest.mark.parametrize("seed", [1, 3, 4, 11, 13, 14, 18])
def test_formerly_failing_seeds_contract_and_verify(seed):
    # these seeds' continued eigenvectors pass near e^{iα} e0 with α != 0
    # (seed 13's reaches e0 e^{-1.759i} at sample 481 of level 2), where
    # span {x, e0} collapses and the transport must stay unitary and
    # continuous
    loop = random_based_loop(3, seed, 700)
    sheet = contract_loop(loop)
    assert verify_homotopy(sheet, loop, loop.modulus).passed


def test_the_verifier_judges_a_non_unitary_rebuild(monkeypatch, tmp_path, capsys):
    # the contractor does not judge its transports: γ is clipped onto the
    # disk before the phase lift, so a transport that is not unitary still
    # makes a recipe, and the verifier, which rebuilds the same A_t
    # (level_unitaries), fails it as "not-unitary" at every column of both
    # unitary stages, and for nothing else. No vectors make such a
    # transport, so the rebuild is patched
    transport = homotopy._transport_unitaries
    monkeypatch.setattr(homotopy, "_transport_unitaries",
                        lambda runs, vectors: 1.01 * transport(runs, vectors))
    loop = random_based_loop(3, 2, 700)
    report = verify_homotopy(contract_loop(loop), loop, loop.modulus)
    kinds = {kind for kind, *_ in report.violations}
    assert kinds == {"not-unitary"} and len(report.violations) == 2 * loop.n_samples == 1402
    path = tmp_path / "loop.json"
    serialize.write_doc(str(path), serialize.loop_to_doc(loop))
    assert main(["contract-loop", str(path), "--no-timestamp"]) == 2
    listed = json.loads(capsys.readouterr().out)["verifier"]["violations"]
    assert len(listed) == 32 and {v["kind"] for v in listed} == {"not-unitary"}


def _plateau_variant(delta: float) -> StateLoop:
    """bundled_plateau_loop with its mixed state replaced by (0.55 + δ)|a><a|
    + 0.45|e_2><e_2| - δ|b><b|, everything else as there: a loop of states
    for δ up to states.STATE_EIG_TOL, whose λmin is -δ."""
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
    mixed = (0.55 + delta) * pure(a) + 0.45 * pure(e[2]) - delta * pure(b)
    r_end = rotation(0.3 * np.pi)
    mixed_r, a_r = r_end @ mixed @ r_end.conj().T, r_end @ a
    ang = np.arctan2(a_r[1].real, a_r[0].real)

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
        u = (t - 0.75) / 0.25
        return pure(np.cos(ang * (1 - u)) * e[0] + np.sin(ang * (1 - u)) * e[1])

    return StateLoop(3, np.array([homotopy._snap(rho_at(t)) for t in np.linspace(0.0, 1.0, 901)]))


@pytest.mark.parametrize("delta", [9e-11, 5e-11])
def test_a_loop_of_states_the_verifier_certifies_is_contracted(delta, tmp_path, capsys):
    # the loop's tolerated negativity, divided by a corner trace under 1
    # at level 0's projection stage, passes -1e-10 in level 1's input: a
    # contractor that validated each level's input as states refused the
    # loop at δ = 9e-11 (exit 3), where the verifier, judging the same
    # cells at CELL_TOL, certifies its contraction
    loop = _plateau_variant(delta)
    assert -delta * 1.001 < linalg._hermitian_min_eigenvalues(loop.x).min() < -delta * 0.999
    path, out = tmp_path / "loop.json", tmp_path / "report.json"
    serialize.write_doc(str(path), serialize.loop_to_doc(loop))
    assert main(["contract-loop", str(path), "--out", str(out), "--no-timestamp"]) == 0
    verdict = serialize.read_doc(str(out))["verifier"]
    assert verdict["passed"] and verdict["violations"] == [] and verdict["shape"] == [88, 901]


def _unitaries_with_spectrum(rng, angles, count):
    """`count` unitaries W diag(e^{i angles}) W† with Haar-like random W."""
    n = len(angles)
    w = np.linalg.qr(rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n)))[0]
    return (w * np.exp(1j * np.asarray(angles))) @ w.conj().swapaxes(-1, -2)


@pytest.mark.parametrize(
    "n, spectrum", [(2, "generic"), (2, "scalar"), (3, "generic"), (3, "double"), (3, "scalar")]
)
def test_unitary_powers_match_expm_logm(n, spectrum):
    # the geodesic bridge of non-pure gaps against scipy's principal
    # logarithm, on spectra kept away from -1
    from scipy.linalg import expm, logm

    rng = np.random.default_rng(n * 10 + len(spectrum))
    f = np.linspace(0.0, 1.0, 9)
    for _ in range(40):
        a, b, c = rng.uniform(-np.pi + 0.3, np.pi - 0.3, size=3)
        angles = {"generic": [a, b, c], "double": [a, a, b], "scalar": [a, a, a]}[spectrum][:n]
        vs = list(_unitaries_with_spectrum(rng, angles, 2))
        if spectrum == "scalar":
            vs.append(np.exp(1j * a) * np.eye(n))  # exactly scalar, eig's vectors exact
        for v in vs:
            powers = homotopy._unitary_powers(v, f)
            k = logm(v)
            want = np.stack([expm(x * k) for x in f])
            assert np.max(np.abs(powers - want)) <= 1e-12
            assert np.max(homotopy._unitarity_defect(powers)) <= 1e-12
            assert np.max(np.abs(powers[-1] - v)) <= 1e-12


def test_gap_bridges_run_from_left_to_right_at_constant_speed():
    # each gap of the plateau loop is bridged along the geodesic from the
    # transport at its left edge to the one at its right edge, so the steps
    # from `left` to `right` are all equal, the last into `right` included
    rhos = bundled_plateau_loop().rhos
    unitaries = homotopy._transport_unitaries(*homotopy._transport_vectors(rhos))
    near_pure = np.linalg.eigvalsh(rhos)[:, -1] > homotopy.PURITY_THRESHOLD
    edges = np.flatnonzero(np.diff(near_pure)) + 1
    assert len(edges) >= 2
    for gap_start, right in zip(edges[0::2], edges[1::2]):
        bridge = unitaries[gap_start - 1:right + 1]
        steps = linalg.operator_norm(bridge[1:] - bridge[:-1])
        assert steps.max() / steps.min() < 1 + 1e-9


def test_contract_constant_loop_trivial_sheet():
    loop = constant_loop(2, 12)
    sheet = contract_loop(loop)
    base = basis_state(2)
    for row in cells(sheet, loop):
        for rho in row:
            assert np.max(np.abs(rho - base.rho)) < 1e-12
    report = verify_homotopy(sheet, loop, modulus=1e-9)
    assert report.passed


def test_verifier_flags_corrupted_cell(monkeypatch):
    loop = constant_loop(2, 10)
    sheet = contract_loop(loop)
    forge_cells(monkeypatch, lambda arr: arr.__setitem__((2, 4), basis_state(2, 1).rho))
    report = verify_homotopy(sheet, loop, modulus=1e-6)
    assert not report.passed
    kinds = {v[0] for v in report.violations}
    assert "step-modulus" in kinds
    flagged = {v[1] for v in report.violations if v[0] == "step-modulus"}
    assert any(cell in {(2, 3), (2, 4), (1, 4)} for cell in flagged)


def test_verifier_measures_the_steps_between_stage_blocks(monkeypatch):
    # every cell of the first stage's block forged to one other state: the
    # steps inside the block are 0, and only the steps across its edges,
    # from row 0 into it and from it into the next stage, see the forgery
    loop = constant_loop(2, 10)
    sheet = contract_loop(loop)
    rows = sheet.levels[0].rows[0]
    forge_cells(monkeypatch, lambda arr: arr.__setitem__(slice(1, 1 + rows), basis_state(2, 1).rho))
    report = verify_homotopy(sheet, loop, modulus=1e-6)
    assert report.max_cell_step == 2.0
    assert [v[1:3] for v in report.violations if v[0] == "step-modulus"] == [((0, 0), 2.0)]


def test_verifier_fails_a_nan_modulus(pure_sheet):
    # a NaN modulus must not turn the step gate off
    loop = bundled_pure_loop()
    assert verify_homotopy(pure_sheet, loop, loop.modulus).passed
    report = verify_homotopy(pure_sheet, loop, float("nan"))
    assert not report.passed
    assert [v[0] for v in report.violations] == ["step-modulus"]


def test_sheet_budget_refuses_before_allocating(pure_sheet, monkeypatch):
    # a sheet is checked as its recipe is made, so a sheet document is
    # refused too; contract_loop checks the least a loop's sheet can hold
    # before its first level
    doc = serialize.sheet_to_doc(pure_sheet)
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", pure_sheet.held_bytes)
    assert serialize.sheet_from_doc(doc).shape == pure_sheet.shape
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", pure_sheet.held_bytes - 1)
    with pytest.raises(ValueError, match="budget"):
        serialize.sheet_from_doc(doc)
    loop = constant_loop(3, 16)  # every stage has the fewest rows, MIN_ROWS
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", 2**28)
    least = contract_loop(loop).held_bytes
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", least)
    assert contract_loop(loop).shape == (33, 17)
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", least - 1)
    monkeypatch.setattr(homotopy, "_rectify", None)  # not reached
    with pytest.raises(ValueError, match="budget"):
        contract_loop(loop)


def test_contract_loop_checks_each_stage_before_its_prepass(pure_sheet, monkeypatch):
    # the pure loop's unitary stage takes more than MIN_ROWS rows and its
    # projection stage MIN_ROWS, so the unitary stage's rows alone bring the
    # count to the sheet's: a budget one byte short, which the least recipe
    # fits, refuses that stage before its block is probed (_grown_rows)
    loop = bundled_pure_loop()
    (level,) = pure_sheet.levels
    assert [r > homotopy.MIN_ROWS for r in level.rows] == [True, False]
    least = [homotopy.MIN_ROWS] * 2
    assert homotopy._held_bytes(2, loop.n_samples, least) < pure_sheet.held_bytes - 1
    seen, grown = [], homotopy._grown_rows
    monkeypatch.setattr(homotopy, "_grown_rows",
                        lambda r, rho, rows, target: seen.append(rows) or grown(r, rho, rows, target))
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", pure_sheet.held_bytes - 1)
    with pytest.raises(ValueError, match="budget"):
        contract_loop(loop)
    assert seen == []


def _traced_contract_and_verify(loop) -> tuple:
    """The contraction and verification of `loop`, and their tracemalloc peak."""
    tracemalloc.start()
    try:
        sheet = contract_loop(loop)
        report = verify_homotopy(sheet, loop, loop.modulus)
        return sheet, report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "make_loop",
    [lambda: constant_loop(10, 100), lambda: random_based_loop(8, 3, 150),
     lambda: constant_loop(40, 16)],
    ids=["constant-n10-T101", "random-n8-T151", "constant-n40-T17"],
)
def test_contraction_and_verification_stay_within_the_count(make_loop, monkeypatch):
    # the verification weighs most, at 2.7 blocks of complex cells of a
    # stage's 8 rows against the contraction's 0.9 to 2.1. At n = 40 and 17 samples the
    # sheet has 625 rows of 8 a stage: gathering its edge columns to check
    # them last peaked at 76.6 MB, against a count of 31.3 MB. A budget of
    # exactly the sheet's count admits the loop, and the contraction and
    # verification together stay within it.
    loop = make_loop()
    held = contract_loop(loop).held_bytes
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", held)
    sheet, report, peak = _traced_contract_and_verify(loop)
    assert report.passed, report.violations[:5]
    assert sheet.held_bytes == held
    assert peak <= held


def test_a_slow_loop_is_contracted_for_the_modulus_it_is_judged_by(monkeypatch):
    # max_step 6.3e-4, modulus 3.1e-3: the rows aim at half the modulus, so
    # the sheet's largest cell step comes to about half of it (0.50)
    t = np.linspace(0.0, 1.0, 1001)
    a = 0.1 * np.sin(np.pi * t)
    v = np.stack([np.cos(a), np.sin(a) * np.exp(1j * np.pi * t)], axis=-1)
    rhos = v[:, :, None] * v[:, None, :].conj()
    loop = StateLoop(2, (rhos + rhos.conj().swapaxes(-1, -2)) / 2)
    assert loop.max_step < 1e-3
    assert loop.modulus == homotopy.MODULUS_FACTOR * loop.max_step
    targets, rows_for = [], homotopy._rows_for
    monkeypatch.setattr(homotopy, "_rows_for", lambda target, move: targets.append(target)
                        or rows_for(target, move))
    sheet = contract_loop(loop)
    assert targets == [loop.modulus / 2] * 2
    report = verify_homotopy(sheet, loop, loop.modulus)
    assert report.passed, report.violations[:5]
    assert report.max_cell_step <= loop.modulus
    assert sheet.shape == (137, 1001)


def test_a_sheet_over_its_cell_bytes_contracts_and_verifies_within_the_budget(monkeypatch):
    # The budget counts the recipe and the largest stage block, not the
    # sheet: at n = 8 and 401 samples every stage holds 8 of the 113 rows,
    # and the budget comes to 0.9 of the cells' bytes.
    loop = constant_loop(8, 400)
    held = contract_loop(loop).held_bytes
    assert held < 113 * 401 * 8**2 * 16
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", held)
    sheet, report, peak = _traced_contract_and_verify(loop)
    assert sheet.shape == (113, 401)
    assert report.passed, report.violations[:5]
    assert peak <= held


def test_loop_and_sheet_serialization_roundtrip():
    loop = constant_loop(2, 6)
    doc = serialize.loop_to_doc(loop)
    back = serialize.loop_from_doc(doc)
    assert back.n == loop.n and back.n_samples == loop.n_samples
    sheet = contract_loop(loop)
    sdoc = serialize.sheet_to_doc(sheet)
    back_sheet = serialize.sheet_from_doc(sdoc)
    assert back_sheet.shape == sheet.shape
    assert np.array_equal(cells(back_sheet, loop), cells(sheet, loop))


def test_sheet_from_doc_rejects_a_nan_cell():
    # vectors, phases and row counts hold integers, so a NaN in any is
    # refused as a non-integer
    sheet = contract_loop(constant_loop(2, 6))
    for forge, message in (
        (lambda doc: doc["levels"][0]["vectors_d2"].__setitem__(7, float("nan")),
         "'vectors_d2' holds JSON integers, got float entries"),
        (lambda doc: doc["levels"][0]["phases_d1"].__setitem__(3, float("nan")),
         "'phases_d1' holds JSON integers, got float entries"),
        (lambda doc: doc["levels"][0]["rows"].__setitem__(1, float("nan")),
         "two positive integer row counts"),
    ):
        doc = serialize.sheet_to_doc(sheet)
        forge(doc)
        with pytest.raises(ValueError, match=message):
            serialize.sheet_from_doc(doc)


def _drop_the_last_column(level, b):
    """A level document on the corner block b over one column fewer, its
    last a run sample."""
    level["phases_d1"].pop()
    del level["vectors_d2"][-2 * b:]
    level["runs"][-1] -= 1


def _recode_vectors(level, b, edit):
    """A level document on the corner block b whose vectors are its own
    numerators (run samples, 2 b), decoded and passed through edit, then
    differenced again as the writer does."""
    runs = np.array(level["runs"])
    lengths = runs[1::2] - runs[0::2]
    steps = np.reshape(level["vectors_d2"], (-1, 2 * b))
    numerators = serialize._decoded(steps, lengths, 2, homotopy.U_DEN, "vectors_d2")
    edit(numerators)
    level["vectors_d2"] = serialize._differences(numerators, lengths, 2).ravel().tolist()


@pytest.mark.parametrize(
    "forge, message",
    [
        # a recipe on M_n has n - 1 levels, level k with unitaries on M_{n-k}: here n = 2
        (lambda doc: doc["levels"].pop(), "has 1 levels, got 0"),
        (lambda doc: doc["levels"].append(doc["levels"][0]), "has 1 levels, got 2"),
        (lambda doc: doc["levels"][0].__setitem__("vectors_d2", serialize.sheet_to_doc(
            contract_loop(constant_loop(3, 6)))["levels"][0]["vectors_d2"]),
         r"'vectors_d2' holds 2 b = 4 integers for each of 7 run samples, 28, got 42"),
        # level 0's phases give T, and a loop of 7 samples does not fit 6 columns
        (lambda doc: _drop_the_last_column(doc["levels"][0], 2),
         r"a recipe on M_2 over 6 columns does not fit \(7, 2, 2\)"),
        # the stage rows: two positive JSON integers, within the budget
        (lambda doc: doc["levels"][0]["rows"].pop(), r"two positive integer row counts, got \(8,\)"),
        (lambda doc: doc["levels"][0].__setitem__("rows", []), "two positive integer row counts"),
        (lambda doc: doc["levels"][0]["rows"].__setitem__(0, 0), r"got \(0, 8\)"),
        (lambda doc: doc["levels"][0]["rows"].__setitem__(1, -8), r"got \(8, -8\)"),
        (lambda doc: doc["levels"][0]["rows"].__setitem__(0, True), r"got \(True, 8\)"),
        (lambda doc: doc["levels"][0]["rows"].__setitem__(0, 8.0), r"got \(8.0, 8\)"),
        (lambda doc: doc["levels"][0]["rows"].__setitem__(0, "8"), r"got \('8', 8\)"),
        (lambda doc: doc["levels"][0].__setitem__("rows", 8), "malformed sheet"),
        (lambda doc: doc["levels"][0]["rows"].__setitem__(0, 10**9), "budget"),
        (lambda doc: doc.pop("levels"), "malformed sheet"),
        (lambda doc: doc.__setitem__("n", 2.7), "'n' must be an integer"),
        (lambda doc: doc.__setitem__("n", "2"), "'n' must be an integer"),
        (lambda doc: doc["levels"][0]["vectors_d2"].__setitem__(slice(6, 8), ["1", False]),
         "'vectors_d2' holds JSON integers, got bool, str entries"),
        (lambda doc: doc["levels"][0]["vectors_d2"].__setitem__(6, True),
         "'vectors_d2' holds JSON integers, got bool entries"),
    ],
    ids=["levels-short", "levels-long", "wrong-block", "ops-shape", "s-ragged", "s-empty",
         "rows-zero", "rows-negative", "rows-bool", "rows-float", "rows-string", "rows-not-a-list",
         "rows-oversize", "no-levels", "n-float", "n-string", "ops-string", "ops-bool"],
)
def test_sheet_from_doc_rejects_malformed_recipes(forge, message, monkeypatch):
    # every refusal is a ValueError, raised before any cell is made, which
    # the command line reports as an input error (exit 3)
    loop = constant_loop(2, 6)
    doc = serialize.sheet_to_doc(contract_loop(loop))
    forge(doc)
    monkeypatch.setattr(homotopy, "_stage_rows", None)  # not reached
    with pytest.raises(ValueError, match=message):
        homotopy.verify_homotopy(serialize.sheet_from_doc(doc), loop, loop.modulus)


def test_sheet_from_doc_refuses_the_earlier_format():
    # levels of {block, stages: [{kind, ops, s}, ...]}, which stored the
    # block and the projection operator, are refused with the reason
    loop = constant_loop(2, 6)
    sheet = contract_loop(loop)
    doc = serialize.sheet_to_doc(sheet)
    s_table = [[1.0] * 7] * 8
    doc["levels"] = [{"block": 2, "stages": [
        {"kind": "unitary", "ops": encode_matrix(homotopy.level_unitaries(sheet.levels[0])),
         "s": s_table},
        {"kind": "projection", "ops": encode_matrix(projection_matrix(2, 1)),
         "s": s_table}]}]
    with pytest.raises(ValueError, match="the format changed"):
        serialize.sheet_from_doc(doc)
    # so is a document that still stores its input loop beside the recipe
    doc = serialize.sheet_to_doc(contract_loop(loop))
    doc["loop"] = encode_matrix(loop.rhos)
    with pytest.raises(ValueError, match=r"holds 'n', 'u_den' and 'levels' since the "
                                         r"format changed, got \['levels', 'loop', 'n', "
                                         r"'u_den'\]"):
        serialize.sheet_from_doc(doc)


def _unitaries_doc(sheet):
    """The sheet's document as the format before runs, vectors and phases
    wrote it: each level's unitaries as [re, im] pairs of integer
    numerators over u_den, and its row counts."""
    doc = serialize.sheet_to_doc(sheet)
    for level, lv in zip(doc["levels"], sheet.levels):
        ops = homotopy.level_unitaries(lv)
        pairs = np.stack([ops.real, ops.imag], axis=-1) * doc["u_den"]
        level.clear()
        level.update(unitaries=np.round(pairs).astype(np.int64).tolist(), rows=list(lv.rows))
    return doc


def _s_tables(doc, den=65536):
    """The unitaries document (_unitaries_doc) as the formats before row
    counts wrote it: each level's s tables in place of its row counts, the
    rule's rows of a constant column, as integer numerators over `den`
    under 's_den', or as floats and no 's_den' if den is None."""
    for level in doc["levels"]:
        for key, rows in zip(("s_unitary", "s_projection"), level.pop("rows")):
            s = np.repeat(np.arange(1, rows + 1)[:, None] / rows, len(level["unitaries"]), axis=1)
            level[key] = s.tolist() if den is None else (s * den).astype(int).tolist()
    if den is not None:
        doc["s_den"] = den


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda doc: _s_tables(doc, None),
         r"a level holds 'runs', 'vectors_d2', 'phases_d1' and 'rows' since the format changed, "
         r"got \['s_projection', 's_unitary', 'unitaries'\]"),
        (lambda doc: _s_tables(doc) or doc.pop("s_den"),
         "a level holds 'runs', 'vectors_d2', 'phases_d1' and 'rows'"),
        (lambda doc: _s_tables(doc, 1000), r"the format changed, got \['levels', 'n', 's_den', 'u_den'\]"),
        (lambda doc: _s_tables(doc) or doc.__setitem__("s_den", 65536.0), "the format changed"),
        (lambda doc: _s_tables(doc) or doc["levels"][0]["s_unitary"][0].__setitem__(2, 0.5),
         "the format changed"),
        (lambda doc: _s_tables(doc) or doc["levels"][0]["s_projection"][1].__setitem__(0, "2"),
         "the format changed"),
        (lambda doc: _s_tables(doc) or doc["levels"][0]["s_projection"][1].__setitem__(0, True),
         "the format changed"),
        (lambda doc: _s_tables(doc) or doc["levels"][0]["s_unitary"][1].__setitem__(0, 10**400),
         "the format changed"),
    ],
    ids=["float-tables", "no-s-den", "other-s-den", "float-s-den", "float-numerator",
         "string-numerator", "bool-numerator", "huge-numerator"],
)
def test_sheet_from_doc_refuses_s_tables_off_the_format(forge, message):
    # s tables, over 's_den' or as floats, well-formed or not, are off the
    # format: each is refused as a format change before any entry is read
    doc = _unitaries_doc(contract_loop(constant_loop(2, 6)))
    forge(doc)
    with pytest.raises(ValueError, match=message):
        serialize.sheet_from_doc(doc)


def _flat_doc(sheet):
    """The sheet's document as the format before this one wrote it: each
    level's vector numerators as one flat list under 'vectors', and its
    integers k_t under 'phases', both as they are, not differenced."""
    doc = serialize.sheet_to_doc(sheet)
    for level, lv in zip(doc["levels"], sheet.levels):
        pairs = np.stack([lv.vectors.real, lv.vectors.imag], axis=-1) * homotopy.U_DEN
        del level["vectors_d2"], level["phases_d1"]
        level.update(vectors=np.round(pairs).astype(np.int64).ravel().tolist(), phases=lv.phases.tolist())
    return doc


def _nested_vectors(doc):
    """The flat document's vectors (_flat_doc) nested as the format before
    it nested them: one vector per run sample, of b [re, im] pairs."""
    for k, level in enumerate(doc["levels"]):
        b = doc["n"] - k
        level["vectors"] = np.reshape(level["vectors"], (-1, b, 2)).tolist()


def _float_unitaries(doc):
    """The unitaries document (_unitaries_doc) as the format before it
    wrote it: [re, im] pairs of floats."""
    for level in doc["levels"]:
        level["unitaries"] = (np.array(level["unitaries"]) / doc["u_den"]).tolist()


@pytest.mark.parametrize(
    "make, forge, message",
    [
        # the earlier formats: float unitaries and no u_den, and unitaries
        # of integer numerators, which every format before this one stored
        (_unitaries_doc, lambda doc: _float_unitaries(doc) or doc.pop("u_den"),
         r"the format changed, got \['levels', 'n'\]"),
        (_unitaries_doc, _float_unitaries,
         r"a level holds 'runs', 'vectors_d2', 'phases_d1' and 'rows' since the format "
         r"changed, got \['rows', 'unitaries'\]"),
        (serialize.sheet_to_doc, lambda doc: doc.pop("u_den"), r"the format changed, got \['levels', 'n'\]"),
        (serialize.sheet_to_doc, lambda doc: doc.__setitem__("u_den", 2**36),
         "'u_den' is 1048576 since the format changed, got 68719476736"),
        # the formats before this one: numerators over 2^40, vectors of
        # [re, im] pairs nested a vector and a sample deep, and then flat
        # vectors and phases, not differenced, which are never decoded as
        # differences
        (serialize.sheet_to_doc, lambda doc: doc.__setitem__("u_den", 2**40),
         "'u_den' is 1048576 since the format changed, got 1099511627776"),
        (_flat_doc, _nested_vectors,
         r"a level holds 'runs', 'vectors_d2', 'phases_d1' and 'rows' since the format "
         r"changed, got \['phases', 'rows', 'runs', 'vectors'\]"),
        (_flat_doc, lambda doc: None,
         r"a level holds 'runs', 'vectors_d2', 'phases_d1' and 'rows' since the format "
         r"changed, got \['phases', 'rows', 'runs', 'vectors'\]"),
        (serialize.sheet_to_doc, lambda doc: doc.__setitem__("u_den", float(2**20)),
         "'u_den' must be an integer"),
        (serialize.sheet_to_doc, lambda doc: doc["levels"][0]["vectors_d2"].__setitem__(5, 0.5),
         "'vectors_d2' holds JSON integers, got float entries"),
        # a float of integral value is not an integer numerator either
        (serialize.sheet_to_doc, lambda doc: doc["levels"][0]["vectors_d2"].__setitem__(5, 2.0**20),
         "'vectors_d2' holds JSON integers, got float entries"),
        (serialize.sheet_to_doc, lambda doc: doc["levels"][0]["vectors_d2"].__setitem__(2, [1, 0]),
         "'vectors_d2' holds JSON integers, got list entries"),
        # an odd count, not re, im pairs: b = 2 over the 401 samples of one run
        (serialize.sheet_to_doc, lambda doc: doc["levels"][0]["vectors_d2"].append(0),
         r"'vectors_d2' holds 2 b = 4 integers for each of 401 run samples, 1604, got 1605"),
    ],
    ids=["earlier-format", "float-unitaries", "no-u-den", "other-u-den", "u-den-2-40", "nested-pairs",
         "flat-undifferenced", "float-u-den", "float-numerator", "integral-float-numerator", "ragged",
         "not-pairs"],
)
def test_sheet_from_doc_refuses_unitaries_off_the_format(pure_sheet, make, forge, message):
    # the first two cases forge the unitaries document of an earlier
    # format, and the others a document of this one
    doc = make(pure_sheet)
    forge(doc)
    with pytest.raises(ValueError, match=message):
        serialize.sheet_from_doc(doc)


def test_sheet_to_doc_refuses_a_unitary_off_the_grid(pure_sheet):
    # a vector entry moved by 2^-41, off the 1 / u_den grid: the integers
    # the document would hold decode to other vectors, so the document would
    # expand to other unitaries and cells than the recipe's
    vectors = pure_sheet.levels[0].vectors
    forged = _forge(pure_sheet, vectors=_set(vectors, (5, 1), vectors[5, 1] + 2.0**-41))
    with pytest.raises(ValueError, match="not the integers written for them"):
        serialize.sheet_to_doc(forged)


@pytest.mark.parametrize("name", ["seed2", "plateau"])
def test_a_written_document_rebuilds_every_operator_bit_for_bit(name, tmp_path):
    # the runs, vectors and phases read back from the document are the
    # contractor's, bit for bit (zero signs included), so every
    # A_t = lambda_t U_t rebuilt from them is the one rebuilt from the
    # contractor's recipe, bit for bit, and unitary to rounding
    _, sheet = _contracted(name)
    path = tmp_path / "sheet.json"
    serialize.write_sheet(str(path), sheet)
    back = serialize.sheet_from_doc(serialize.read_doc(str(path)))
    for got, want in zip(back.levels, sheet.levels, strict=True):
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.phases.tobytes() == want.phases.tobytes()
        assert got.runs == want.runs and got.rows == want.rows
        rebuilt = homotopy.level_unitaries(want)
        assert homotopy.level_unitaries(got).tobytes() == rebuilt.tobytes()
        assert homotopy._unitarity_defect(rebuilt).max() < 1e-14
    assert len(back.levels[0].runs) > 2  # both loops have non-pure gaps at level 0


def test_a_recipe_is_read_without_operators_rebuilt_once_a_level_and_held_as_its_fields(tmp_path, monkeypatch):
    # reading a document rebuilds no operator, verifying what it reads
    # rebuilds each level's once, at its unitary stage, and a contracted
    # sheet holds its levels' grid fields and no operator array
    loop, sheet = _contracted("seed2")
    path = tmp_path / "sheet.json"
    serialize.write_sheet(str(path), sheet)
    transport = homotopy._transport_unitaries
    monkeypatch.setattr(homotopy, "_transport_unitaries", None)  # not reached
    back = serialize.sheet_from_doc(serialize.read_doc(str(path)))
    rebuilt = []
    monkeypatch.setattr(homotopy, "_transport_unitaries",
                        lambda runs, vectors: rebuilt.append(len(vectors[0])) or transport(runs, vectors))
    assert verify_homotopy(back, loop, loop.modulus).passed
    assert rebuilt == [3, 2]  # n - 1 levels, on the blocks b = 3 and 2
    monkeypatch.undo()
    assert homotopy.Level._fields == ("rows", "runs", "vectors", "phases")
    loop = constant_loop(40, 16)
    tracemalloc.start()
    try:
        sheet = contract_loop(loop)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6  # its operators, 17 b x b complex matrices a level, would take 6.0 MB
    assert len(sheet.levels) == 39
    assert all(lv.vectors.ndim == 2 and lv.phases.dtype == np.int64 for lv in sheet.levels)


def test_sheet_from_doc_refuses_the_unitaries_format():
    # the format before this one: unitaries of integer numerators and rows
    _, sheet = _contracted("seed2")
    with pytest.raises(ValueError, match=r"since the format changed, got \['rows', 'unitaries'\]"):
        serialize.sheet_from_doc(_unitaries_doc(sheet))


@pytest.mark.parametrize(
    "forge, message",
    [
        # level 0 of the plateau loop: runs [0, 263, 638, 901], 526 vectors, 901 phases
        (lambda lv: lv["runs"].__setitem__(0, 1), r"'runs' must rise from 0 to the 901 phases"),
        (lambda lv: lv["runs"].__setitem__(-1, 900), r"got \[0, 263, 638, 900\]"),
        (lambda lv: lv["runs"].pop(1), r"in an even number of edges, got \[0, 638, 901\]"),
        (lambda lv: lv.__setitem__("runs", [0, 638, 263, 901]), "'runs' must rise"),
        (lambda lv: lv.__setitem__("runs", [0, 263, 263, 901]), "'runs' must rise"),
        (lambda lv: lv["runs"].__setitem__(1, 263.0), "'runs' holds JSON integers, got float entries"),
        (lambda lv: lv.__setitem__("runs", []), "'runs' must be a non-empty array"),
        (lambda lv: lv["vectors_d2"].pop(),
         "'vectors_d2' holds 2 b = 6 integers for each of 526 run samples, 3156, got 3155"),
        (lambda lv: lv["vectors_d2"].extend(lv["vectors_d2"][:6]), "3156, got 3162"),
        (lambda lv: _recode_vectors(lv, 3, lambda x: x.__setitem__(5, 0)),
         "zero vector does not represent a ray"),
        (lambda lv: lv["phases_d1"].pop(), r"'runs' must rise from 0 to the 900 phases"),
        (lambda lv: lv["phases_d1"].__setitem__(3, 0.5), "'phases_d1' holds JSON integers, got float entries"),
        (lambda lv: lv["phases_d1"].__setitem__(3, True), "'phases_d1' holds JSON integers, got bool entries"),
        (lambda lv: lv["phases_d1"].__setitem__(3, 10**30), "malformed sheet document"),
        (lambda lv: lv.__setitem__("phases_d1", [[0]] * 901), "malformed sheet document"),
        # level 0's phases give T: level 1, over one column more, does not fit
        (lambda lv: _drop_the_last_column(lv, 3),
         r"level 1 unitaries of shape \(901, 2, 2\), not \(900, 2, 2\)"),
    ],
    ids=["runs-start", "runs-end", "runs-odd", "runs-falling", "runs-empty-gap", "runs-float",
         "runs-empty", "vectors-short", "vectors-long", "vectors-zero", "phases-short",
         "phases-float", "phases-bool", "phases-huge", "phases-nested", "phases-other-t"],
)
def test_sheet_from_doc_refuses_malformed_transport_fields(forge, message):
    _, sheet = _contracted("plateau")
    doc = serialize.sheet_to_doc(sheet)
    forge(doc["levels"][0])
    with pytest.raises(ValueError, match=message):
        serialize.sheet_from_doc(doc)


def test_differences_restart_at_each_run_and_decode_back():
    # two runs of 3 and 2 samples, one coordinate: each run is differenced
    # from zeros before its start, and the cumulative sums restart with it
    values = np.array([[5], [7], [4], [-2], [3]], dtype=np.int64)
    steps = serialize._differences(values, [3, 2], 2)
    assert steps[:, 0].tolist() == [5, -3, -5, -2, 7]
    assert serialize._decoded(steps, [3, 2], 2, 7, "v").tolist() == values.tolist()
    assert serialize._differences(values[:, 0], [5], 1).tolist() == [5, 2, -3, -6, 5]


@pytest.mark.parametrize(
    "forge, message",
    [
        # level 0 of the plateau loop, b = 3: its first run sample is e_0,
        # whose first numerator is 2^20 and is stored as its value
        (lambda lv: lv["vectors_d2"].__setitem__(0, 2**20 + 1),
         "'vectors_d2' does not decode within 1048576 in modulus: a value reads 1048577, past 1048576"),
        # a step within 2^22 whose first sum goes past 2^21
        (lambda lv: lv["vectors_d2"].__setitem__(6, 2**21 + 1),
         "a difference of order 1 reads 3145729, past 2097152"),
        # steps whose sums would overflow int64, refused before any sum
        (lambda lv: lv["vectors_d2"].__setitem__(6, 2**62),
         "a difference of order 2 reads 4611686018427387904, past 4194304"),
        (lambda lv: lv["vectors_d2"].__setitem__(6, -2**63),
         "a difference of order 2 reads -9223372036854775808, past 4194304"),
        (lambda lv: lv["vectors_d2"].__setitem__(6, 2**63), "malformed sheet document"),
        # a numerator past 2^20 in a vector of the writer's form
        (lambda lv: _recode_vectors(lv, 3, lambda x: x.__setitem__((7, 1), -2**20 - 1)),
         "a value reads -1048577, past 1048576"),
        # phases: k_t of modulus at most 2^19, so steps of at most 2^20
        (lambda lv: lv["phases_d1"].__setitem__(3, 2**19 + 1 - sum(lv["phases_d1"][:3])),
         "'phases_d1' does not decode within 524288 in modulus: a value reads 524289, past 524288"),
        (lambda lv: lv["phases_d1"].__setitem__(3, -2**20 - 1),
         "a difference of order 1 reads -1048577, past 1048576"),
        (lambda lv: lv["phases_d1"].__setitem__(3, 2**62), "a difference of order 1 reads 4611686018427387904"),
    ],
    ids=["vector-past-2-20", "vector-first-sum", "vector-step-overflow", "vector-step-int64-min",
         "vector-step-past-int64", "vector-recoded-past-2-20", "phase-past-2-19", "phase-step",
         "phase-step-overflow"],
)
def test_sheet_from_doc_refuses_differences_that_decode_off_the_range(forge, message, monkeypatch):
    # the writer's range is a numerator of modulus at most 2^20 and a k_t
    # of at most 2^19: differences that leave it, or whose sums would
    # overflow int64, are refused before any unitary is rebuilt
    _, sheet = _contracted("plateau")
    doc = serialize.sheet_to_doc(sheet)
    forge(doc["levels"][0])
    monkeypatch.setattr(homotopy, "_transport_unitaries", None)  # not reached
    with pytest.raises(ValueError, match=message):
        serialize.sheet_from_doc(doc)


def test_sheet_from_doc_checks_the_budget_before_any_rebuild(pure_sheet, monkeypatch):
    # a document's phases and rows set what its recipe would hold, so a
    # recipe over the budget is refused before any unitary is rebuilt
    doc = serialize.sheet_to_doc(pure_sheet)
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", pure_sheet.held_bytes - 1)
    monkeypatch.setattr(homotopy, "_transport_unitaries", None)  # not reached
    with pytest.raises(ValueError, match="budget"):
        serialize.sheet_from_doc(doc)


def test_verifier_reports_non_finite_cells(monkeypatch):
    loop = constant_loop(2, 10)
    sheet = contract_loop(loop)
    last = sheet.shape[0] - 1

    def corrupt(arr):
        arr[0, 3, 1, 1] = np.nan
        arr[1, 0] = np.inf
        arr[2, 4, 0, 1] = np.nan
        arr[last, 5, 0, 0] = -np.inf

    forge_cells(monkeypatch, corrupt)
    report = verify_homotopy(sheet, loop, modulus=1e-6)
    assert not report.passed
    # the zeroed stand-ins for the bad cells add no violation of their own;
    # a stage cell is packed, so the NaN at (0, 1) is mirrored at (1, 0)
    assert report.violations == [
        ("non-finite", (0, 3), 1.0, 0.0),
        ("non-finite", (1, 0), 4.0, 0.0),
        ("non-finite", (2, 4), 2.0, 0.0),
        ("non-finite", (last, 5), 1.0, 0.0),
    ]
    assert report.max_cell_step == 0.0


@pytest.fixture(scope="module")
def pure_sheet():
    return contract_loop(bundled_pure_loop())


@pytest.mark.parametrize(
    "kind, cell",
    # row 0 is the input loop by construction, and its cells are checked too
    [("left-column", (0, 0)), ("left-column", (20, 0)), ("right-column", (20, -1)),
     ("final-row", (-1, 150))],
)
def test_verifier_names_each_boundary_check_at_an_int_cell(pure_sheet, monkeypatch, kind, cell):
    # a valid state 2e-6 away from the cell's own: every boundary check fires
    loop = bundled_pure_loop()

    def corrupt(arr):
        arr[cell] = (1 - 1e-6) * arr[cell] + 1e-6 * basis_state(2, 1).rho

    forge_cells(monkeypatch, corrupt)
    report = verify_homotopy(pure_sheet, loop, loop.modulus)
    assert not report.passed
    want = tuple(i % size for i, size in zip(cell, pure_sheet.shape))
    flagged = [v for v in report.violations if v[0] == kind]
    assert [v[1] for v in flagged] == [want]
    assert all(type(i) is int for _, at, _, _ in report.violations for i in at)
    assert flagged[0][2] > flagged[0][3]


def test_write_sheet_matches_dumps(pure_sheet, tmp_path):
    path = tmp_path / "pure.json"
    serialize.write_sheet(str(path), pure_sheet)
    doc = serialize.sheet_to_doc(pure_sheet)
    assert path.read_text(encoding="utf-8") == serialize.dumps(doc) + "\n"
    # the document is the recipe, not the cells
    assert sorted(doc) == ["levels", "n", "u_den"]
    (level,) = doc["levels"]
    assert sorted(level) == ["phases_d1", "rows", "runs", "vectors_d2"]
    assert level["runs"] == [0, 401]  # the pure loop is one run
    # one flat list: 2 b integers, b = 2, for each of the 401 run samples
    assert len(level["vectors_d2"]) == 2 * 2 * 401
    assert len(level["phases_d1"]) == 401
    for key in ("runs", "vectors_d2", "phases_d1", "rows"):
        assert {type(m) for m in np.ravel(np.array(level[key], dtype=object))} == {int}
    assert 1 + sum(level["rows"]) == pure_sheet.shape[0]


def test_written_sheet_keys_are_the_readmes(pure_sheet):
    # the keys of the sheet-document example in README.md, and no others
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("A sheet document, as `contract-loop --sheet-out`")[1].split("```")[1]
    doc = serialize.sheet_to_doc(pure_sheet)
    assert set(re.findall(r'"(\w+)":', example)) == set(doc) | set(doc["levels"][0])


def test_written_sheet_reads_back_bitwise(pure_sheet, tmp_path):
    path = tmp_path / "sheet.json"
    serialize.write_sheet(str(path), pure_sheet)
    back = serialize.sheet_from_doc(serialize.read_doc(str(path)))
    assert back.n == pure_sheet.n
    for got, want in zip(back.levels, pure_sheet.levels, strict=True):
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)
    loop = bundled_pure_loop()
    assert np.array_equal(cells(back, loop), cells(pure_sheet, loop))


def test_write_sheet_rejects_non_finite_before_writing(tmp_path):
    # an infinity or a NaN in a run vector
    sheet = contract_loop(constant_loop(2, 6))
    (level,) = sheet.levels
    path = tmp_path / "sheet.json"
    for bad in (np.inf, np.nan):
        forged = _forge(sheet, vectors=_set(level.vectors, (6, 1), bad))
        with pytest.raises(ValueError, match="non-finite"):
            serialize.write_sheet(str(path), forged)
        assert not path.exists()


@lru_cache(maxsize=None)
def _contracted(name: str):
    loops = {
        "pure": bundled_pure_loop,
        "plateau": bundled_plateau_loop,
        "seed2": lambda: random_based_loop(3, 2, 700),
        "seed7": lambda: random_based_loop(3, 7, 700),
        "seed13": lambda: random_based_loop(3, 13, 700),
        "n4": lambda: random_based_loop(4, 2, 300),
        "n4s1": lambda: random_based_loop(4, 1, 700),
    }
    loop = loops[name]()
    return loop, contract_loop(loop)


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "seed7"])
def test_read_back_cells_equal_the_contractors(name, tmp_path):
    loop, sheet = _contracted(name)
    path = tmp_path / "sheet.json"
    serialize.write_sheet(str(path), sheet)
    back = serialize.sheet_from_doc(serialize.read_doc(str(path)))
    assert np.array_equal(cells(back, loop), cells(sheet, loop))
    assert verify_homotopy(back, loop, loop.modulus).passed


@pytest.mark.parametrize(
    "other",
    [lambda: random_based_loop(4, 2, 700), lambda: random_based_loop(3, 2, 699)],
    ids=["other-n", "other-T"],
)
def test_verifier_refuses_a_loop_the_recipe_does_not_fit(other):
    # a recipe is expanded on the loop it is handed, which must have its n and T
    _, sheet = _contracted("seed2")
    loop = other()
    with pytest.raises(ValueError, match=r"a recipe on M_3 over 701 columns does not fit"):
        verify_homotopy(sheet, loop, loop.modulus)
    with pytest.raises(ValueError, match="does not fit"):
        cells(sheet, loop)


def test_a_recipe_certifies_only_its_own_loop():
    # seed 2's recipe expanded on the seed-7 loop, of the same n and T: row
    # 0 is the seed-7 loop by construction, and the sheet over it fails: its
    # unitaries do not carry that loop, whatever s rows the rule gives them
    _, sheet = _contracted("seed2")
    loop, own = _contracted("seed7")
    assert verify_homotopy(own, loop, loop.modulus).passed
    report = verify_homotopy(sheet, loop, loop.modulus)
    assert not report.passed
    assert report.max_cell_step > 3 * loop.modulus
    assert [v[0] for v in report.violations] == ["step-modulus"]


def _stage_recipes(sheet):
    """(operators, rows) of every stage of a sheet in order: level k's
    unitaries, then the corner projection of its block b = n - k."""
    for k, level in enumerate(sheet.levels):
        yield homotopy.level_unitaries(level), level.rows[0]
        yield projection_matrix(sheet.n - k, 1), level.rows[1]


def _normalizer(ops, rhos):
    """(c0, c1, c2) per column: tr(B(s) rho B(s)†) = c0 + c1 s + c2 s² for
    B(s) = s A + (1 - s) 1, from the expectations of 1, X and X†X, X = A - 1."""
    x = ops - np.eye(rhos.shape[-1])
    c1 = 2 * np.einsum("tij,tji->t", x, rhos).real
    c2 = np.einsum("tij,tjk,tik->t", x, rhos, x.conj()).real
    return np.stack([np.trace(rhos, axis1=-2, axis2=-1).real, c1, c2])


def _stage_inputs(sheet, loop):
    """(operators, s rows (rows, T), input densities (T, b, b)) for every
    stage of a sheet on `loop`, the s rows from the rule on the input."""
    arr, row = cells(sheet, loop), 0
    for i, (ops, rows) in enumerate(_stage_recipes(sheet)):
        b = ops.shape[-1]
        rhos = arr[row, :, :b, :b]
        if i % 2 == 0 and b < sheet.n:  # a level compresses its input
            rhos = rhos / np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]
            rhos = (rhos + rhos.conj().swapaxes(-1, -2)) / 2
        ops = np.broadcast_to(ops, rhos.shape)
        yield ops, homotopy._rule_rows(pencil(ops, pack_hermitian(rhos))[1], rows, 0, rows), rhos
        row += rows


def _direct_rows(c, rows, fine):
    """The s rows (rows, T) of normalizers c (3, T) by numerical inversion
    of the integral of 1/c: its cumulative trapezoid on a fine grid, and
    np.interp at k / rows of each column's total."""
    s = np.linspace(0.0, 1.0, fine + 1)[:, None]
    inverse = 1.0 / (c[0] + s * (c[1] + s * c[2]))
    steps = (inverse[1:] + inverse[:-1]) / (2 * fine)
    integral = np.concatenate([np.zeros((1, c.shape[1])), np.cumsum(steps, axis=0)])
    f = np.arange(1, rows + 1) / rows
    return np.stack([np.interp(f * col[-1], col, s[:, 0]) for col in integral.T], axis=1)


def _assert_rule_rows(s, c, rows, fine, tol):
    """s (rows, T) within tol of the direct inversion for c on `fine`
    intervals, nondecreasing in [0, 1], its last row 1 exactly."""
    assert s.shape == (rows, c.shape[1])
    assert np.max(np.abs(s - _direct_rows(c, rows, fine))) < tol
    assert (np.diff(s, axis=0) >= 0).all() and (s >= 0).all() and (s <= 1).all()
    assert (s[-1] == 1.0).all()


def test_rule_rows_match_a_direct_inversion():
    # random positive quadratics, and one of each branch: D > 0, D < 0,
    # D = 0 exactly and within 1e-13 on either side, c2 = 0, constant c,
    # and the atan2 branch past a quarter turn, c1 < 0 with 2 c0 + c1 < 0
    rng = np.random.default_rng(26)
    c = np.stack([rng.uniform(0.1, 2.0, 400), rng.uniform(-3.0, 3.0, 400), rng.uniform(0.0, 4.0, 400)])
    s = np.linspace(0.0, 1.0, 1001)[:, None]
    c = c[:, (c[0] + s * (c[1] + s * c[2])).min(axis=0) > 0.05][:, :40]
    special = np.array([[1.0, 0.5, 1.0], [1.0, 2.0, 0.5], [1.0, -1.0, 0.25], [1.0, -1.0, 0.25 + 1e-13],
                        [1.0, -1.0, 0.25 - 1e-13], [1.0, -0.5, 0.0], [0.7, 0.0, 0.0],
                        [1.0, -2.5, 2.0]]).T
    d = 4 * special[0] * special[2] - special[1] ** 2
    assert list(np.sign(d)) == [1, -1, 0, 1, -1, -1, 0, 1]
    assert 2 * special[0, -1] + special[1, -1] < 0
    c = np.concatenate([c, special], axis=1)
    assert c.shape[1] == 48
    for rows in (1, 8, 61):
        _assert_rule_rows(homotopy._rule_rows(c, rows, 0, rows), c, rows, 20000, 1e-8)
    # a constant c spaces the rows equally, and D -> 0 meets the D = 0 limit
    plain = homotopy._rule_rows(special, 16, 0, 16)
    assert np.max(np.abs(plain[:, 6] - np.arange(1, 17) / 16)) < 1e-15
    assert np.max(np.abs(plain[:, 3:5] - plain[:, 2:3])) < 1e-11


@pytest.mark.parametrize("name", ["plateau", "seed2"])
def test_pencil_s_tables_match_the_direct_form(name):
    # every stage's s rows, from the rule on its pencil's traces, against
    # the direct inversion of the integral of 1/c, with c formed from the
    # stage's input and operators without the pencil
    loop, sheet = _contracted(name)
    for ops, s, rhos in _stage_inputs(sheet, loop):
        c = _normalizer(ops, rhos)
        assert np.max(np.abs(pencil(ops, pack_hermitian(rhos))[1] - c)) < 1e-13
        _assert_rule_rows(s, c, len(s), 2000, 1e-6)  # the trapezoid's error is 1e-7


def test_the_rows_grow_where_the_rule_steps_past_the_modulus(monkeypatch):
    # random n = 5 seed 9: at the 30 rows its movement asks for, the rule's
    # level 0 unitary stage steps by 1.008 of the modulus, so the probe
    # grows that stage once, and the sheet from 87 to 118 rows
    loop = random_based_loop(5, 9, 700)
    sheet = contract_loop(loop)
    report = verify_homotopy(sheet, loop, loop.modulus)
    assert report.passed, report.violations[:5]
    assert sheet.shape == (118, 701)
    assert sheet.levels[0].rows == (61, 8)
    # the grown rows are checked against the budget as the probe leaves
    # them: one that admits the 30 rows of the movement refuses the 61 the
    # probe asks for, before any other stage is probed
    probed, grown_rows = [], homotopy._grown_rows
    monkeypatch.setattr(homotopy, "_grown_rows", lambda *args: probed.append(1) or grown_rows(*args))
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", homotopy._held_bytes(5, 701, [30]))
    with pytest.raises(ValueError, match="budget"):
        contract_loop(loop)
    assert probed == [1]
    monkeypatch.undo()
    monkeypatch.setattr(homotopy, "_grown_rows", lambda r, rho, rows, target: rows)
    sheet = contract_loop(loop)
    report = verify_homotopy(sheet, loop, loop.modulus)
    assert sheet.shape == (87, 701)
    assert [v[0] for v in report.violations] == ["step-modulus"]
    assert 1.0 < report.max_cell_step / loop.modulus < 1.01


@pytest.mark.parametrize("name", ["plateau", "seed2"])
def test_sheet_cells_are_the_direct_action(name):
    # every cell, evaluated from its stage's pencil, against the per-matrix
    # product B(s) rho B(s)† / tr on the stage's input; zero outside the block
    loop, sheet = _contracted(name)
    arr, row = cells(sheet, loop), 1
    for ops, s_table, rhos in _stage_inputs(sheet, loop):
        b, s = rhos.shape[-1], s_table[..., None, None]
        bs = s * ops + (1.0 - s) * np.eye(b)
        raw = bs @ rhos @ bs.conj().swapaxes(-1, -2)
        direct = raw / np.trace(raw, axis1=-2, axis2=-1).real[..., None, None]
        rows = arr[row:row + len(s_table)]
        assert np.max(np.abs(rows[..., :b, :b] - direct)) < 1e-13
        assert not rows[..., b:, :].any() and not rows[..., :, b:].any()
        row += len(s_table)
    assert row == sheet.shape[0]


def test_pencil_is_the_interpolation_polynomial():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    m = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    rho = m @ m.conj().swapaxes(-1, -2)
    p, c = pencil(a, pack_hermitian(rho))
    r = linalg.unpack_hermitian(p.swapaxes(0, 1))
    assert np.array_equal(c, np.trace(r, axis1=-2, axis2=-1).real)
    assert np.array_equal(r, r.conj().swapaxes(-1, -2))  # exactly Hermitian
    for s in (0.0, 0.3, 1.0):
        b = s * a + (1 - s) * np.eye(3)
        want = b @ rho @ b.conj().swapaxes(-1, -2)
        assert np.max(np.abs(r[0] + s * r[1] + s * s * r[2] - want)) < 1e-12


def _forge(sheet, **fields):
    """The sheet's recipe with fields of its first level replaced."""
    levels = [sheet.levels[0]._replace(**fields), *sheet.levels[1:]]
    return HomotopySheet(sheet.n, levels)


def _set(array, index, value):
    out = array.copy()
    out[index] = value
    return out


def _forge_transports(monkeypatch, edit):
    """Make every rebuild of a level's transports U_t, the verifier's
    included, return them with edit(U) applied: no grid vectors make a
    transport that is not unitary, so a recipe holding one is forged
    through its rebuild."""
    transport = homotopy._transport_unitaries

    def forged(runs, vectors):
        unitaries = transport(runs, vectors)
        edit(unitaries)
        return unitaries

    monkeypatch.setattr(homotopy, "_transport_unitaries", forged)


def _under_chunks(monkeypatch, run):
    """run() with CHUNK_ENTRIES at 1, one row a chunk, and at 2**40, one
    chunk a stage."""
    out = []
    for chunk in (1, 2**40):
        monkeypatch.setattr(homotopy, "CHUNK_ENTRIES", chunk, raising=False)
        out.append(run())
    return out


@pytest.mark.parametrize(
    "stage_index, forge, kind, at",
    [
        (0, lambda mp, sheet: _forge_transports(mp, lambda u: u.__setitem__(4, np.diag([1.0, 2.0])))
         or sheet, "not-unitary", [4]),
        # A = -1 is a unitary in the Gelfand ideal at s = 1/2: c = (1 - 2s)²,
        # and the rule puts that column's rows at s = 0 and 1 only. Here
        # A_4 = -1 to rounding, as a recipe can hold it: phase k = u_den / 2
        # on the transport U_4 = 1 of the constant loop
        (0, lambda mp, sheet: _forge(sheet, phases=_set(sheet.levels[0].phases, 4, homotopy.U_DEN // 2)),
         "unsafe", [4]),
    ],
    ids=["non-unitary", "unsafe"],
)
def test_verifier_flags_forged_recipes(stage_index, forge, kind, at, monkeypatch):
    # on the constant loop every forgery leaves every cell at the basepoint,
    # so only the recipe checks can see it
    loop = constant_loop(2, 10)
    sheet = contract_loop(loop)
    want = cells(sheet, loop)
    forged = forge(monkeypatch, sheet)
    assert np.max(np.abs(cells(forged, loop) - want)) < 1e-15
    report = verify_homotopy(forged, loop, modulus=1e-9)
    assert not report.passed
    assert {v[0] for v in report.violations} == {kind}
    assert [v[1] for v in report.violations] == [(0, stage_index, t) for t in at]
    # the recipe is checked once a stage, whichever chunks its rows come in
    assert _under_chunks(monkeypatch, lambda: verify_homotopy(forged, loop, modulus=1e-9)) == [report] * 2


def test_verifier_fails_a_recipe_in_the_gelfand_ideal():
    # A = -1: B(1/2) = 0 annihilates the state, and c = (1 - 2s)² vanishes
    # there. The rule clips the column's rows to s = 0 up to the half and
    # s = 1 past it, so no cell is made at the zero and every cell is
    # finite; the verifier fails the recipe as unsafe, without raising
    # Here A_4 = -1 to rounding, as a recipe can hold it: phase k = u_den / 2
    # on the transport U_4 = 1 of the constant loop
    loop = constant_loop(2, 10)
    sheet = contract_loop(loop)
    (level,) = sheet.levels
    phases = _set(level.phases, 4, homotopy.U_DEN // 2)
    forged = _forge(sheet, phases=phases)
    assert np.abs(homotopy.level_unitaries(forged.levels[0])[4] + np.eye(2)).max() < 1e-15
    rows = sheet.levels[0].rows[0]
    s = homotopy._rule_rows(np.array([[1.0], [-4.0], [4.0]]), rows, 0, rows)[:, 0]
    assert list(s) == [0.0] * (rows // 2) + [1.0] * (rows - rows // 2)
    assert np.isfinite(cells(forged, loop)).all()
    # its document reads back as the recipe, with the same verdict
    back = serialize.sheet_from_doc(serialize.sheet_to_doc(forged))
    for recipe in (forged, back):
        report = verify_homotopy(recipe, loop, modulus=1e-9)
        assert not report.passed
        assert [v[:2] for v in report.violations] == [("unsafe", (0, 0, 4))]


def test_verifier_flags_a_scaled_unitary_on_a_moving_loop(pure_sheet, monkeypatch):
    # U_200 scaled by 1.01 as the verifier rebuilds it (_forge_transports)
    loop = bundled_pure_loop()
    _forge_transports(monkeypatch, lambda u: u.__setitem__(200, 1.01 * u[200]))
    report = verify_homotopy(pure_sheet, loop, modulus=loop.modulus)
    assert [v[:2] for v in report.violations] == [("not-unitary", (0, 0, 200))]
    assert _under_chunks(monkeypatch, lambda: verify_homotopy(pure_sheet, loop, loop.modulus)) == [report] * 2


def test_verifier_reports_the_safety_minimum():
    loop, sheet = _contracted("seed2")
    report = verify_homotopy(sheet, loop, loop.modulus)
    values = [safety_min(pencil(ops, pack_hermitian(rhos))[1])[0] for ops, _, rhos in _stage_inputs(sheet, loop)]
    level, stage, column = report.safety_at
    index = 2 * level + stage
    assert report.safety_min == min(v.min() for v in values)
    assert report.safety_min == values[index][column] > SAFETY_FLOOR


@pytest.mark.parametrize("name", ["seed2", "plateau"])
def test_each_stage_block_comes_with_its_own_pencil_traces(name):
    # the traces the expansion hands the verifier with each stage block are
    # those of the pencil on that stage's input, chained independently from
    # the whole sheet's cells (_stage_inputs), bit for bit: a block paired
    # with another stage's traces fails here, whichever stage holds the
    # safety minimum; every chunk of a stage's rows comes with the same
    # traces
    loop, sheet = _contracted(name)
    yielded, chunks = [], 0  # each stage and its traces, once
    for stage, c, _ in list(homotopy.sheet_blocks(sheet, loop))[1:]:
        chunks += 1
        if yielded and stage is yielded[-1][0]:
            assert c is yielded[-1][1]
        else:
            yielded.append((stage, c))
    inputs = list(_stage_inputs(sheet, loop))
    assert len(yielded) == len(inputs) == 2 * (loop.n - 1) < chunks
    for (_, c), (ops, _, rhos) in zip(yielded, inputs):
        assert np.array_equal(c, pencil(ops, pack_hermitian(rhos))[1])


def test_each_stage_pencil_is_formed_once(monkeypatch):
    # the contractor forms a stage's pencil once for its safety, last row
    # and rows, and the verifier takes its safety from the traces of the
    # pencil that made the stage's cells: 2(n - 1) pencils each
    loop = random_based_loop(3, 2, 700)
    formed, pencils = [], homotopy.pencil
    monkeypatch.setattr(homotopy, "pencil", lambda a, rho: formed.append(1) or pencils(a, rho))
    sheet = contract_loop(loop)
    assert len(formed) == 2 * (loop.n - 1)
    formed.clear()
    assert verify_homotopy(sheet, loop, loop.modulus).passed
    assert len(formed) == 2 * (loop.n - 1)


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2"])
def test_streamed_verdict_equals_the_whole_sheets(name):
    # the verifier holds one stage block and the row before it; its largest
    # step and its safety minimum and location are those recomputed on the
    # whole expanded sheet, bit for bit
    loop, sheet = _contracted(name)
    report = verify_homotopy(sheet, loop, loop.modulus)
    arr = cells(sheet, loop)
    step_t = linalg.trace_norm(arr[:, 1:] - arr[:, :-1])
    step_s = linalg.trace_norm(arr[1:] - arr[:-1])
    assert report.max_cell_step == float(max(step_t.max(), step_s.max()))
    values = [safety_min(pencil(ops, pack_hermitian(rhos))[1])[0] for ops, _, rhos in _stage_inputs(sheet, loop)]
    index = int(np.argmin([v.min() for v in values]))
    assert report.safety_min == values[index].min()
    level, stage = divmod(index, 2)
    assert report.safety_at == (level, stage, int(np.argmin(values[index])))


def _scanned_largest_step(sheet, arr):
    """The largest step of a whole sheet of cells arr (S, T, n, n), each in
    exact trace norm, and its cell, the first of its ties in the verifier's
    scan order: block by block (row 0, then each stage's rows), the s-steps
    into and inside the block, then the block's t-steps. A step's cell is
    the one it starts from."""
    s_steps = linalg.trace_norm(arr[1:] - arr[:-1])
    t_steps = linalg.trace_norm(arr[:, 1:] - arr[:, :-1])
    edges = np.cumsum([0, 1, *[rows for level in sheet.levels for rows in level.rows]])
    best, at = 0.0, (0, 0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        first = max(lo - 1, 0)
        for steps, row in ((s_steps[first:hi - 1], first), (t_steps[lo:hi], lo)):
            if steps.size:
                i, j = np.unravel_index(np.argmax(steps), steps.shape)
                if steps[i, j] > best:
                    best, at = float(steps[i, j]), (row + int(i), int(j))
    return best, at


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "n4s1"])
def test_bounded_steps_find_the_exact_scans_largest_step(name):
    # the verifier takes exact norms only for the steps whose Frobenius
    # bounds let them be the largest so far; its largest step and the cell
    # it reports it at are those of an exact trace norm of every step
    loop, sheet = _contracted(name)
    best, at = _scanned_largest_step(sheet, cells(sheet, loop))
    report = verify_homotopy(sheet, loop, 0.0)
    assert report.max_cell_step == best > 0.0
    assert [v for v in report.violations if v[0] == "step-modulus"] == [("step-modulus", at, best, 0.0)]


def test_bounded_steps_bound_a_step_by_sqrt_n(monkeypatch):
    # two cells of one stage block of a constant 3x3 sheet forged: a rank-3
    # step eps diag(-2, 1, 1), of trace norm 4 eps and Frobenius norm
    # √6 eps, and a rank-2 step 1.9 eps diag(-1, 1, 0), of trace norm
    # 3.8 eps = √2 times its Frobenius norm, its lower bound. Only the upper
    # bound √3‖Δ‖_F = √18 eps keeps the rank-3 step; √2‖Δ‖_F = √12 eps, the
    # bound of a rank-2 step, falls under 3.8 eps and would report that one
    loop = constant_loop(3, 10)
    sheet = contract_loop(loop)
    eps, base = 1e-3, basis_state(3).rho

    def corrupt(arr):
        arr[3, 4] = base + eps * np.diag([-2.0, 1.0, 1.0])
        arr[3, 6] = base + 1.9 * eps * np.diag([-1.0, 1.0, 0.0])

    forge_cells(monkeypatch, corrupt)
    arr = cells(sheet, loop)
    rank3, rank2 = linalg.trace_norm(arr[3, [4, 6]] - arr[2, [4, 6]])
    assert abs(rank3 - 4 * eps) < 1e-15 and abs(rank2 - 3.8 * eps) < 1e-15
    report = verify_homotopy(sheet, loop, 1e-6)
    assert report.max_cell_step == rank3
    assert [v[:3] for v in report.violations] == [("step-modulus", (2, 4), rank3)]


@pytest.mark.parametrize("chunk", [None, 1, 2**40], ids=["default", "one-row", "one-stage"])
def test_an_exact_tie_in_a_stage_goes_to_its_s_step(chunk, monkeypatch):
    # level 0's first stage of a constant 3x3 sheet forged, columns 5 on,
    # to base + a u D with D = diag(-1, 1, 0) and a = 1, 2, 1, 0, 2, 1 on
    # rows 1 to 6: the t-step at (2, 4) and the s-step at (4, 5) are the
    # one matrix 2u D, an exact tie at the largest step. A stage's s-steps
    # are scanned before its t-steps, so the step is the s-step's, at the
    # later row, whether the stage comes in one chunk of rows or one row a
    # chunk (CHUNK_ENTRIES)
    if chunk is not None:
        monkeypatch.setattr(homotopy, "CHUNK_ENTRIES", chunk, raising=False)
    loop = constant_loop(3, 10)
    sheet = contract_loop(loop)
    assert sheet.levels[0].rows[0] >= 7
    u, base, d = 2.0**-8, basis_state(3).rho, np.diag([-1.0, 1.0, 0.0])

    def corrupt(arr):
        for row, a in enumerate((1, 2, 1, 0, 2, 1), start=1):
            arr[row, 5:] = base + a * u * d

    forge_cells(monkeypatch, corrupt)
    arr = cells(sheet, loop)
    assert np.array_equal(arr[2, 5] - arr[2, 4], arr[5, 5] - arr[4, 5])
    report = verify_homotopy(sheet, loop, 1e-6)
    assert report.max_cell_step == linalg.trace_norm(arr[5, 5] - arr[4, 5]) == 4 * u
    assert report.max_step_at == (4, 5)
    assert [v[1:3] for v in report.violations if v[0] == "step-modulus"] == [((4, 5), 4 * u)]


@pytest.mark.parametrize("name", ["seed2", "plateau", "pure"])
def test_chunks_change_no_cell_sheet_or_report(name, monkeypatch, tmp_path):
    # the contraction's rows, so its sheet document, the expanded cells bit
    # for bit, and every report field, violations included, at the loop's
    # modulus and at 0, where the largest step is a violation at its cell
    make = {"seed2": lambda: random_based_loop(3, 2, 700), "plateau": bundled_plateau_loop,
            "pure": bundled_pure_loop}[name]

    def run():
        loop = make()
        sheet = contract_loop(loop)
        path = tmp_path / "sheet.json"
        serialize.write_sheet(str(path), sheet)
        return (path.read_bytes(), cells(sheet, loop).tobytes(),
                verify_homotopy(sheet, loop, loop.modulus), verify_homotopy(sheet, loop, 0.0))

    one_row, one_stage = _under_chunks(monkeypatch, run)
    assert one_row == one_stage


def test_chunks_change_no_report_on_forged_cells(monkeypatch):
    # seed 2's sheet on its loop with sample 300 made negative (forge_loop),
    # so that column takes the positivity scan in every stage, and cells
    # forged non-finite, off trace and negative on rows of several chunks
    # and stages: the same violations, in the same order, either way
    loop, sheet = _contracted("seed2")
    rng = np.random.default_rng(21)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]

    def negative(low):
        cell = (q * [1.0 - low, 0.0, low]) @ q.conj().T
        return (cell + cell.conj().T) / 2

    rhos = loop.rhos.copy()
    rhos[300] = negative(-3e-6)
    forged = forge_loop(3, rhos)

    def corrupt(arr):
        for row in (3, 4, 12, 30, 47):
            arr[row, 100 + row, 0, 1] = np.nan
            arr[row + 1, 200] *= 1.001
            arr[row + 2, 300] = negative(-2e-6)

    forge_cells(monkeypatch, corrupt)
    one_row, one_stage = _under_chunks(monkeypatch, lambda: verify_homotopy(sheet, forged, loop.modulus))
    assert one_row == one_stage
    kinds = [v[0] for v in one_row.violations]
    for kind in ("non-finite", "trace", "negative-eigenvalue"):
        assert kinds.count(kind) >= 5


def _exact_masked_steps(d, keep, floor, lower=True):
    """_masked_steps as an exact scan: the trace norm of every step where
    `keep`, and 0.0 elsewhere."""
    return linalg._hermitian_trace_norm(np.where(keep, d, 0.0))


@pytest.mark.parametrize("name", ["pure", "plateau", "seed1", "seed2", "constant"])
def test_every_distance_matches_an_exact_scan(name, monkeypatch):
    # homotopy measures every trace-norm distance with _masked_steps: the
    # loop's largest step, each stage's movement, the basepoint checks, and
    # the verifier's steps, edge columns and final row. Against an exact
    # scan of each call's stack: every norm a call takes is the scan's bit
    # for bit, its largest is the scan's wherever that reaches its floor,
    # and a threshold form (no lower bound) reads the scan's value for
    # every distance over its threshold, at its own and at the scan's
    # quartiles. With the exact scan in its place, the loop's max_step,
    # every level's rows and the verifier's report are the same
    make = {"pure": bundled_pure_loop, "plateau": bundled_plateau_loop,
            "seed1": lambda: random_based_loop(3, 1, 700), "seed2": lambda: random_based_loop(3, 2, 700),
            "constant": lambda: constant_loop(3, 10)}[name]
    masked, thresholds = homotopy._masked_steps, []

    def checked(d, keep, floor, lower=True):
        norms = masked(d, keep, floor, lower)
        exact = linalg._hermitian_trace_norm(np.where(keep, d, 0.0))
        taken = norms != 0.0
        assert np.array_equal(norms[taken], exact[taken])
        if exact.size and exact.max() >= floor:
            assert norms.max() == exact.max()
        if not lower:
            thresholds.append(floor)
            for tol in (floor, *np.quantile(exact, [0.25, 0.5, 0.75])):
                got = norms if tol == floor else masked(d, keep, tol, False)
                assert np.array_equal(np.where(got > tol, got, 0.0), np.where(exact > tol, exact, 0.0))
        return norms

    monkeypatch.setattr(homotopy, "_masked_steps", checked)
    loop = make()
    sheet = contract_loop(loop)
    report = verify_homotopy(sheet, loop, loop.modulus)
    tols = homotopy.BASEPOINT_TOL, homotopy.CELL_TOL
    # each basepoint check, the verifier's edge columns at each chunk of rows and its final row
    chunks = sum(1 for _ in homotopy.sheet_blocks(sheet, loop))
    assert sorted(set(thresholds)) == sorted(tols) and thresholds.count(tols[1]) == chunks + 1
    monkeypatch.setattr(homotopy, "_masked_steps", _exact_masked_steps)
    exact_loop = make()
    assert exact_loop.max_step == loop.max_step
    oracle = contract_loop(exact_loop)
    assert [level.rows for level in oracle.levels] == [level.rows for level in sheet.levels]
    assert verify_homotopy(oracle, exact_loop, exact_loop.modulus) == report


def test_contract_loop_takes_no_svd(monkeypatch):
    def off_hermitian():  # Hermitian only to rounding, which StateLoop accepts
        rhos = bundled_pure_loop(320).rhos.copy()
        rhos[1:-1, 0, 1] += 1e-12j
        return StateLoop(2, rhos)

    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for make in (lambda: bundled_pure_loop(320), off_hermitian):
        loop = make()
        sheet = contract_loop(loop)
        assert verify_homotopy(sheet, loop, loop.modulus).passed
    assert calls == []  # every trace norm took the Hermitian path


def test_contract_loop_takes_lapack_only_on_fallback(monkeypatch):
    # Every step and distance a contraction and its verification measure
    # is of 2x2 or 3x3 Hermitian matrices, and goes through _bounded_steps,
    # whose exact trace norms take the closed form. The verifier takes
    # exact norms for a block's steps, row 0's included, only where their
    # Frobenius bounds let them be the largest, and for a distance from
    # the basepoint only where its bound can pass CELL_TOL: 7,376 matrices
    # for this 61x701 sheet's 84,760 steps, and none for its edge columns
    # or its final row. eigvalsh sees only the matrices the closed form hands
    # back, each with a nearly degenerate pair. None of the contraction's
    # or the verification's is: the final-row cells' differences from the
    # basepoint that would be (209 of the 701, rounding, one diagonal
    # entry off by an ulp; how many is a draw of the last stage's
    # rounding) have √3‖Δ‖_F under CELL_TOL, so the verifier takes no
    # exact norm of them.
    # Positivity takes eigvalsh on one stack of the 701 states, the
    # verifier's row 0. No stage cell takes it: every column's bound on its cells'
    # negativity clears CELL_TOL (_negativity_bound).
    loop = random_based_loop(3, 2, 700)
    counts = {"step": [0, 0], "positivity": [0, 0]}  # matrices, to eigvalsh
    active, handed_back, stacks = [], [], []
    eigvalsh = np.linalg.eigvalsh

    def size(m, *_):
        return np.asarray(m)[..., 0, 0].size

    def packed_size(x, *_):
        return x[0].size

    def counting(kernel, key, matrices):
        def wrapped(m, *args):
            counts[key][0] += matrices(m, *args)
            stacks.append((key, matrices(m, *args)))
            active.append(key)
            try:
                return kernel(m, *args)
            finally:
                active.pop()
        return wrapped

    def counting_eigvalsh(m, *args, **kwargs):
        if active:
            counts[active[-1]][1] += size(m)
            if active[-1] == "step":
                handed_back.append(np.asarray(m))
        return eigvalsh(m, *args, **kwargs)

    for name, key in (("_hermitian_trace_norm", "step"), ("_hermitian_min_eigenvalues", "positivity")):
        monkeypatch.setattr(homotopy, name, counting(getattr(homotopy, name), key, packed_size))
    monkeypatch.setattr(states, "min_eigenvalues", counting(states.min_eigenvalues, "positivity", size))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    sheet = contract_loop(loop)
    matrices, lapack = counts["step"]
    assert matrices > 0 and lapack == 0
    assert verify_homotopy(sheet, loop, loop.modulus).passed
    matrices, lapack = np.subtract(counts["step"], [matrices, lapack])
    rows, columns = sheet.shape
    assert 0 < matrices < 0.12 * ((rows - 1) * columns + rows * (columns - 1))
    assert lapack == 0
    # the basepoint checks validate no state
    assert [size for key, size in stacks if key == "positivity"] == [columns]
    assert counts["positivity"] == [columns, columns]
    final = cells(sheet, loop)[-1] - basis_state(3).rho
    assert np.sqrt(3) * np.linalg.norm(final, axis=(1, 2)).max() < homotopy.CELL_TOL
    homotopy._hermitian_trace_norm(pack_hermitian(final))  # the exact norms that the bound spares the verifier
    handed = np.concatenate([m.reshape(-1, 3, 3) for m in handed_back])
    assert 0 < len(handed) <= 0.4 * columns
    assert {m.tobytes() for m in handed} <= {m.tobytes() for m in final}
    assert np.abs(handed).max() <= 2 * np.finfo(float).eps
    # r = cos 3φ of each handed-back spectrum, from eigvalsh's eigenvalues
    dev = eigvalsh(handed)
    dev -= dev.mean(axis=-1, keepdims=True)
    r = dev.prod(axis=-1) / (2 * np.sqrt((dev * dev).sum(axis=-1) / 6) ** 3)
    assert (np.abs(r) > linalg.CLOSED_FORM_MAX_R - 1e-12).all()


def test_the_prepass_takes_no_eigensolver(monkeypatch):
    # the contractor's pass before a stage's rows are fixed, the probe of
    # _grown_rows, runs on 4x4 blocks and smaller ones, where trace_norm
    # takes eigvalsh or the closed form. Every step of this loop's probes
    # has a √b‖Δ‖_F bound under the modulus, so the probe takes neither
    loop = random_based_loop(4, 1, 700)
    stages, inside = [], []
    solved = {"eigvalsh": 0, "eigh": 0}
    grown_rows = homotopy._grown_rows

    def tracked(p, c, rows, target):
        stages.append(math.isqrt(p.shape[1]))
        inside.append(True)
        try:
            grown = grown_rows(p, c, rows, target)
        finally:
            inside.pop()
        assert grown == rows
        return grown

    def counted(name):
        solver = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            solved[name] += bool(inside)
            return solver(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(homotopy, "_grown_rows", tracked)
    for name in solved:
        monkeypatch.setattr(np.linalg, name, counted(name))
    contract_loop(loop)
    assert stages == [4, 4, 3, 3, 2, 2]
    assert solved == {"eigvalsh": 0, "eigh": 0}


def _complex_pencil(a, rho):
    """The pencil from complex stacked products, X rho and X rho X†, with
    R1 and R2 made exactly Hermitian: the real-form pencil's oracle."""
    x = a - np.eye(a.shape[-1])
    xr = x @ rho
    r2 = xr @ x.conj().swapaxes(-1, -2)
    r1, r2 = xr + xr.conj().swapaxes(-1, -2), (r2 + r2.conj().swapaxes(-1, -2)) / 2
    r = np.stack(np.broadcast_arrays(rho, r1, r2))
    return np.moveaxis(pack_hermitian(r), 1, 0), np.trace(r, axis1=-2, axis2=-1).real


def test_real_form_pencil_matches_the_complex_products():
    # for b = 2..6 a stack of operators against a stack of densities and
    # against one density, and every stage of the seed-2 and plateau
    # sheets: each packed entry of the pencil within 8 (2b + 1) u (1 +
    # ‖X‖_F)² ‖rho‖_F of the complex products', twice the rounding bound of
    # either (inner products of length 2b in real arithmetic, of b complex
    # terms in complex), and each trace within b times that
    rng = np.random.default_rng(41)
    cases = []
    for b in range(2, 7):
        a = rng.normal(size=(30, b, b)) + 1j * rng.normal(size=(30, b, b))
        m = rng.normal(size=(30, b, b)) + 1j * rng.normal(size=(30, b, b))
        rho = m @ m.conj().swapaxes(-1, -2)
        rho = (rho + rho.conj().swapaxes(-1, -2)) / 2 / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        cases += [(a, rho), (a, rho[0])]
    for name in ("seed2", "plateau"):
        loop, sheet = _contracted(name)
        cases += [(np.broadcast_to(ops, rhos.shape), rhos) for ops, _, rhos in _stage_inputs(sheet, loop)]
    u = np.finfo(float).eps / 2
    for a, rho in cases:
        b = a.shape[-1]
        p, c = pencil(a, pack_hermitian(rho))
        want_p, want_c = _complex_pencil(a, rho)
        assert p.shape == want_p.shape and c.shape == want_c.shape
        scale = (1 + np.linalg.norm(a - np.eye(b), axis=(-2, -1))) ** 2 * np.linalg.norm(rho, axis=(-2, -1))
        bound = 8 * (2 * b + 1) * u * scale
        assert (np.abs(p - want_p) <= bound).all()
        assert (np.abs(c - want_c) <= b * bound).all()


def _recorded_probes(loop, monkeypatch):
    """The arguments (p, c, rows, target) of every row probe of a
    contraction of `loop`, and the rows each gave."""
    probes, grown_rows = [], homotopy._grown_rows

    def recording(p, c, rows, target):
        grown = grown_rows(p, c, rows, target)
        probes.append(((p, c, rows, target), grown))
        return grown

    monkeypatch.setattr(homotopy, "_grown_rows", recording)
    contract_loop(loop)
    monkeypatch.undo()
    return probes


def _forged_pencils():
    """Pencils of non-unitary operators on non-pure densities, b = 2, 3, 4,
    over 40 columns: no cell of theirs is a contraction's."""
    rng = np.random.default_rng(77)
    for b in (2, 3, 4):
        a = np.eye(b) + 0.6 * (rng.normal(size=(40, b, b)) + 1j * rng.normal(size=(40, b, b)))
        m = rng.normal(size=(40, b, b)) + 1j * rng.normal(size=(40, b, b))
        rho = m @ m.conj().swapaxes(-1, -2)
        rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        yield pencil(a, pack_hermitian((rho + rho.conj().swapaxes(-1, -2)) / 2))


@pytest.mark.parametrize("name", ["seed2", "plateau", "n5s9"])
def test_the_row_probe_gives_the_block_probes_rows(name, monkeypatch):
    # every stage's probe, bounded from its pencil, against the probe that
    # scans its whole block (tests/block_probe.py): the same rows, and on
    # random n = 5 seed 9 the one stage that grows, from 30 to 61 rows
    loop = random_based_loop(5, 9, 700) if name == "n5s9" else _contracted(name)[0]
    probes = _recorded_probes(loop, monkeypatch)
    assert len(probes) == 2 * (loop.n - 1)
    for args, grown in probes:
        assert grown == block_grown_rows(*args)
    grew = [(args[2], grown) for args, grown in probes if grown != args[2]]
    assert grew == ([(30, 61)] if name == "n5s9" else [])


def test_the_row_probe_gives_the_block_probes_rows_where_its_bounds_are_inconclusive(monkeypatch):
    # seed 2's stage pencils and forged ones, each at targets around half
    # its largest step L: a modulus 2 target just above L, which the upper
    # bounds of some steps reach, so that they take exact norms and the
    # rows do not grow; just below L and well below it, which grow; and
    # above every bound, which takes no exact norm
    pencils = [args[:2] for args, _ in _recorded_probes(random_based_loop(3, 2, 700), monkeypatch)]
    pencils += list(_forged_pencils())
    exact, norms = [], homotopy._hermitian_trace_norm
    monkeypatch.setattr(homotopy, "_hermitian_trace_norm", lambda x: exact.append(x.shape[-1]) or norms(x))
    for p, c in pencils:
        rows = 12
        block = rule_block(p, c, rows)
        largest = norms(np.concatenate([block[:, :1] - p[0][:, None], block[:, 1:] - block[:, :-1]], axis=1)).max()
        for scale, grows in ((1 + 1e-13, False), (1 - 1e-13, True), (0.6, True), (10.0, False)):
            exact.clear()
            target = largest * scale / 2
            grown = homotopy._grown_rows(p, c, rows, target)
            assert grown == block_grown_rows(p, c, rows, target)
            assert (grown > rows) == grows
            assert (sum(exact) > 0) == (scale < 10.0)


def test_gram_step_bounds_hold_for_the_computed_cells(monkeypatch):
    # the probe's upper bounds on ‖Δ‖_F² of every step, on seed 2's stage
    # pencils and forged ones, taken in chunks of rows 0-5, 6 and 7-14,
    # each from the row before it, hold for the steps of the cells
    # _stage_rows computes, the first from the stage's input R0, and exceed
    # them by little; and the exact norms the probe takes are the block's,
    # bit for bit
    pencils = [args[:2] for args, _ in _recorded_probes(random_based_loop(3, 2, 700), monkeypatch)]
    pencils += list(_forged_pencils())
    for p, c in pencils:
        steps, before, parts = homotopy._gram_steps(p, c), None, []
        for lo, hi in ((0, 6), (6, 7), (7, 15)):
            s = homotopy._rule_rows(c, 15, lo, hi)
            (lower, upper), tr, b, exact = steps(s, before)
            assert lower == tr == 0.0
            parts.append((upper, exact(np.ones(upper.shape, dtype=bool))))
            before = s[-1]
        upper = np.concatenate([upper for upper, _ in parts])
        block = rule_block(p, c, 15)
        d = np.concatenate([block[:, :1] - p[0][:, None], block[:, 1:] - block[:, :-1]], axis=1)
        f2 = (d[:b] ** 2).sum(axis=0) + 2 * (d[b:] ** 2).sum(axis=0)
        assert (f2 <= upper).all()
        assert (np.sqrt(upper) <= np.sqrt(f2) * (1 + 1e-4) + 1e-7).all()
        exact = np.concatenate([norms.reshape(-1, f2.shape[1]) for _, norms in parts])
        assert exact.tobytes() == linalg._hermitian_trace_norm(d).tobytes()


def test_a_contraction_forms_no_stage_block(monkeypatch):
    # the contractor makes each stage's last row, at s = 1, and no other
    # row: its probe bounds the steps from the pencil, and on seed 2 none
    # can reach the modulus, so no step's cells are made
    loop = random_based_loop(3, 2, 700)
    made, stage_rows = [], homotopy._stage_rows
    monkeypatch.setattr(homotopy, "_stage_rows", lambda p, c, s: made.append(s.copy()) or stage_rows(p, c, s))
    contract_loop(loop)
    assert len(made) == 2 * (loop.n - 1)
    assert all(np.array_equal(s, np.ones((1, loop.n_samples))) for s in made)


def test_verifying_n6_scans_no_stage_cell_for_positivity(monkeypatch):
    # a scanned cell takes eigvalsh; every stage column's bound clears
    # CELL_TOL, so only row 0 is scanned, its 701 samples in one call
    loop = random_based_loop(6, 2, 700)
    sheet = contract_loop(loop)
    scanned, inside, scan = [], [], homotopy._hermitian_min_eigenvalues
    eigvalsh = np.linalg.eigvalsh

    def scanning(x):
        scanned.append(x.shape[1:])
        inside.append(True)
        try:
            return scan(x)
        finally:
            inside.pop()

    solved = []
    monkeypatch.setattr(homotopy, "_hermitian_min_eigenvalues", scanning)
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m, *a: solved.append(np.asarray(m)[..., 0, 0].size * bool(inside)) or eigvalsh(m, *a))
    report = verify_homotopy(sheet, loop, loop.modulus)
    assert report.passed
    assert scanned == [(1, 701)]
    assert sum(solved) == 701


def test_negativity_bound_covers_the_rounding_of_the_cells():
    # stage inputs that are states exactly, pure and diagonal, bound 0: a
    # stage's computed cells are pure only to rounding, and some have a
    # negative eigenvalue in exact arithmetic; the bound's rounding term
    # covers each of them, checked in exact rational arithmetic
    rng = np.random.default_rng(12)
    below_zero = 0
    for b in (2, 3):
        q, r = np.linalg.qr(rng.normal(size=(60, b, b)) + 1j * rng.normal(size=(60, b, b)))
        a = q * (np.diagonal(r, axis1=-2, axis2=-1) / np.abs(np.diagonal(r, axis1=-2, axis2=-1)))[:, None, :]
        a = np.where(np.arange(60)[:, None, None] % 2, a, 1j * a)  # some operators away from 1
        for diag in ([1.0] + [0.0] * (b - 1), [0.5, 0.5] + [0.0] * (b - 2)):
            p, c = pencil(a, pack_hermitian(np.diag(diag).astype(complex)))
            low = safety_min(c)[0]
            keep = low > homotopy.SAFETY_FLOOR
            bound = homotopy._negativity_bound(np.zeros(60), homotopy._norm2_bound(homotopy._unitarity_defect(a), b),
                                               c, low, b)
            assert (bound * low < 1e-12)[keep].all()  # the rounding term, not a bound that clears nothing
            x = homotopy._stage_rows(p, c, homotopy._rule_rows(c, 9, 0, 9))
            for k, t in zip(*np.nonzero(np.broadcast_to(keep, x.shape[1:]))):
                assert exactly_above(x[:, k, t], bound[t])
                below_zero += not exactly_above(x[:, k, t], 0.0)
    assert below_zero > 0


def test_a_small_corner_trace_sends_the_next_level_to_the_scan(monkeypatch):
    # the bound a level's first stage starts from is the last row's over
    # the trace of its corner block: level 0's last cell of column 300
    # forged to weight 1e-3 on the corner raises it past CELL_TOL, so level
    # 1's cells of that column take the scan, which finds the one forged
    # to a negative eigenvalue
    loop, sheet = _contracted("seed2")
    last = sum(sheet.levels[0].rows)
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]

    def corrupt(arr):
        arr[last, 300] = np.diag([1e-3, 0.0, 1.0 - 1e-3])
        cell = (q * [1.0 + 5e-8, 0.0, -5e-8]) @ q.conj().T
        arr[last + 3, 300] = (cell + cell.conj().T) / 2

    forge_cells(monkeypatch, corrupt)
    report = verify_homotopy(sheet, loop, loop.modulus)
    negative = [v[:2] for v in report.violations if v[0] == "negative-eigenvalue"]
    assert negative == [("negative-eigenvalue", (last + 3, 300))]


def _eigvalsh_trace_norm(m):
    """The trace norm of exactly Hermitian matrices as sum |eigvalsh|, one
    LAPACK call per matrix: the oracle of the closed form."""
    m = np.asarray(m)
    assert np.array_equal(m, m.conj().swapaxes(-1, -2))
    norms = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "seed7"])
def test_contraction_matches_the_eigvalsh_oracle(name, monkeypatch):
    loop, sheet = _contracted(name)
    report = verify_homotopy(sheet, loop, loop.modulus)
    monkeypatch.setattr(homotopy, "_hermitian_trace_norm",  # every distance's exact norms
                        lambda x: _eigvalsh_trace_norm(linalg.unpack_hermitian(x)))
    oracle = contract_loop(loop)
    oracle_report = verify_homotopy(oracle, loop, loop.modulus)
    assert oracle.shape == sheet.shape
    assert len(oracle.levels) == len(sheet.levels)
    for (ops, rows), (want_ops, want_rows) in zip(_stage_recipes(sheet), _stage_recipes(oracle)):
        assert np.array_equal(ops, want_ops)
        assert rows == want_rows
    assert np.max(np.abs(cells(oracle, loop) - cells(sheet, loop))) < 1e-14
    assert oracle_report.passed == report.passed
    assert oracle_report.safety_at == report.safety_at


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "seed7", "n4"])
def test_packed_prepass_matches_the_matrix_prepass(name):
    # the blocks of the contractor's probe, which are the sheet's cells,
    # evaluated on the pencil's packed layout (rule_block), against the
    # same arithmetic on the complex pencil's real and imaginary parts at
    # the rule's rows, (R0 + s (R1 + s R2)) / (c0 + s (c1 + s c2)) with
    # the pencil's traces, the sums of its diagonals: equal bit for bit, on
    # 2x2 blocks (the pure loop, and the last level of the others), 3x3 and
    # 4x4 blocks
    loop, sheet = _contracted(name)
    blocks = set()
    for ops, s, rhos in _stage_inputs(sheet, loop):
        p, c = pencil(ops, pack_hermitian(rhos))
        r = linalg.unpack_hermitian(p.swapaxes(0, 1))
        assert np.max(np.abs(c - np.trace(r, axis1=-2, axis2=-1).real)) < 1e-14
        c0, c1, c2 = c
        p0, p1, p2 = r.view(np.float64)[:, None]
        x = s[..., None, None]
        want = (p0 + x * (p1 + x * p2)) / (c0 + s * (c1 + s * c2))[..., None, None]
        got = linalg.unpack_hermitian(rule_block(p, c, len(s)))
        assert np.array_equal(got, want.view(np.complex128))
        blocks.add(rhos.shape[-1])
    assert blocks == set(range(2, sheet.n + 1))


def test_verifier_reports_negative_cells_as_eigvalsh_does(monkeypatch):
    # the stage input forged: two samples of row 0 of a contracted 3x3
    # sheet's loop made matrices of trace 1 with a negative eigenvalue, one
    # past the 1e-8 gate (-3e-6), one that the gate just passes (-0.9e-8),
    # in a loop that skips StateLoop's validation (forge_loop), judged by
    # the contracted loop's modulus. The expansion carries each into its
    # column's stage cells, where its bound on their negativity exceeds
    # CELL_TOL (_negativity_bound), so those columns take the scan: its
    # violations, values included, are those of an eigvalsh scan of every
    # cell
    loop, sheet = _contracted("seed2")
    rng = np.random.default_rng(21)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    rhos = loop.rhos.copy()
    for col, low in ((300, -3e-6), (301, -0.9e-8)):
        cell = (q * [1.0 - low, 0.0, low]) @ q.conj().T
        rhos[col] = (cell + cell.conj().T) / 2
    forged = forge_loop(3, rhos)
    scanned, scan = [], homotopy._hermitian_min_eigenvalues
    monkeypatch.setattr(homotopy, "_hermitian_min_eigenvalues", lambda x: scanned.append(x.shape[1:]) or scan(x))
    report = verify_homotopy(sheet, forged, loop.modulus)
    # row 0 whole; column 300 in every stage, 301 once its bound passes
    # 1e-8, each stage a chunk of at most 20 rows at a time (CHUNK_ENTRIES),
    # so the 34 rows of level 0's unitary stage in two
    assert homotopy.CHUNK_ENTRIES // (9 * 701) == 20
    assert scanned == [(1, 701), (20, 1), (14, 1), (10, 2), (8, 2), (8, 2)]

    def eigvalsh_scan(x):  # a stage block, packed
        return np.linalg.eigvalsh(linalg.unpack_hermitian(x)).min(axis=-1)

    monkeypatch.setattr(homotopy, "_hermitian_min_eigenvalues", eigvalsh_scan)
    monkeypatch.setattr(homotopy, "_negativity_bound", lambda *args: np.full(701, np.inf))  # every cell
    oracle = verify_homotopy(sheet, forged, loop.modulus)
    negative = [v for v in report.violations if v[0] == "negative-eigenvalue"]
    assert negative[0][1] == (0, 300) and abs(negative[0][2] - 3e-6) < 1e-15
    # every row of column 300 but the last, the basepoint, and stage rows of column 301
    assert [v[1] for v in negative if v[1][1] == 300] == [(row, 300) for row in range(sheet.shape[0] - 1)]
    assert {v[1][1] for v in negative} == {300, 301} and all(v[1][0] > 0 for v in negative if v[1][1] == 301)
    assert report.violations == oracle.violations


def test_loop_from_doc_rejects_garbage():
    # n is a JSON integer, never truncated from a float, a string or a bool
    packed = serialize.loop_to_doc(constant_loop(2, 6))["packed"]
    assert serialize.loop_from_doc({"n": 2, "format": 2, "packed": packed}).n == 2
    for n in (2.7, 2.0, "2", True):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            serialize.loop_from_doc({"n": n, "format": 2, "packed": packed})


_NESTED = {"n": 2, "samples": encode_matrix(constant_loop(2, 6).rhos)}
_COUNT = "'packed' holds n² numbers for each of at least three samples, n >= 2, got"


@pytest.mark.parametrize(
    "doc, message",
    [(_NESTED, "format 1, each sample nested as [re, im] pairs under 'samples', is no longer read; "
               "format 2 holds the packed rows under 'packed'"),
     ({**_NESTED, "format": 1}, "'format' must be 2, got 1"),
     ({"n": 2, "format": 3, "packed": [1.0] * 28}, "'format' must be 2, got 3"),
     ({"n": 2, "format": 2.0, "packed": [1.0] * 28}, "'format' must be 2, got 2.0"),
     ({"n": 2, "format": "2", "packed": [1.0] * 28}, "'format' must be 2, got '2'"),
     ({"n": 2, "format": True, "packed": [1.0] * 28}, "'format' must be 2, got True"),
     ({"n": 2, "format": 2, "packed": [1.0] * 27}, f"{_COUNT} n = 2 and 27"),
     ({"n": 3, "format": 2, "packed": [1.0] * 28}, f"{_COUNT} n = 3 and 28"),
     ({"n": 1, "format": 2, "packed": [1.0] * 3}, f"{_COUNT} n = 1 and 3"),
     ({"n": 0, "format": 2, "packed": []}, f"{_COUNT} n = 0 and 0"),
     # n is bounded by the list before anything n-sized is made
     ({"n": 100000, "format": 2, "packed": []}, f"{_COUNT} n = 100000 and 0"),
     ({"n": 2, "format": 2, "packed": [1.0] * 8}, f"{_COUNT} n = 2 and 8"),
     ({"n": 2, "format": 2, "packed": [1.0] * 27 + [None]}, "'packed' holds JSON numbers, got NoneType entries"),
     ({"n": 2, "format": 2, "packed": [1.0] * 27 + [{}]}, "'packed' holds JSON numbers, got dict entries"),
     ({"n": 2, "format": 2, "packed": "1.0"}, "'packed' holds JSON numbers, got str entries"),
     ({"n": 2, "format": 2, "packed": [1.0] * 27 + ["1"]}, "'packed' holds JSON numbers, got str entries"),
     ({"n": 2, "format": 2, "packed": [1.0] * 27 + [False]}, "'packed' holds JSON numbers, got bool entries"),
     ({"n": 2, "format": 2, "packed": [1.0] * 27 + [True]}, "'packed' holds JSON numbers, got bool entries"),
     ({"n": 2, "format": 2, "packed": [[1.0]]}, "'packed' holds JSON numbers, got list entries"),
     ({"n": 2, "format": 2}, "'packed'"),
     ({"n": 2}, "'format' must be 2, got None")],
    ids=["format-1", "format-1-labelled", "format-3", "format-float", "format-string", "format-bool",
         "short", "not-a-multiple", "n-1", "n-0", "n-past-the-list", "two-samples", "null-entry",
         "object-entry", "packed-string", "string-entry", "false-entry", "true-entry", "nested-entry",
         "no-packed", "no-format"],
)
def test_loop_from_doc_refuses_each_defect_with_one_message(doc, message):
    with pytest.raises(ValueError) as got:
        serialize.loop_from_doc(doc)
    assert str(got.value) == f"invalid loop document: {message}"


@pytest.mark.parametrize("make", [bundled_plateau_loop, lambda: random_based_loop(3, 2, 700)],
                         ids=["plateau", "seed2"])
def test_a_loop_document_round_trips_its_packed_rows_bit_for_bit(make):
    # the plateau's rhos hold negative zeros that the document does not
    # keep (the lower triangle's imaginary parts are unpacked as 0.0 minus
    # the upper's), yet the packed rows, and so the document, come back
    loop = make()
    doc = serialize.loop_to_doc(loop)
    back = serialize.loop_from_doc(json.loads(serialize.dumps(doc)))
    assert back.x.tobytes() == loop.x.tobytes()
    assert serialize.loop_to_doc(back) == doc
    assert sorted(doc) == ["format", "n", "packed"] and len(doc["packed"]) == loop.n ** 2 * loop.n_samples


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("copies", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
def test_a_copied_loop_or_sheet_is_rebuilt_checked_and_read_only(copies, monkeypatch):
    # __reduce__ rebuilds a copy through the constructor, so its arrays
    # are read-only again and its checks run again
    loop = bundled_plateau_loop()
    sheet = contract_loop(loop)
    validated = []
    monkeypatch.setattr(homotopy, "validate_densities",
                        lambda rhos, check=homotopy.validate_densities: validated.append(rhos.shape) or check(rhos))
    copied = copies(loop)
    assert validated == [loop.rhos.shape]
    assert not copied.rhos.flags.writeable and not copied.x.flags.writeable
    assert copied.x.tobytes() == loop.x.tobytes() and copied.rhos.tobytes() == loop.rhos.tobytes()
    copied = copies(sheet)
    assert not any(a.flags.writeable for lv in copied.levels for a in (lv.vectors, lv.phases))
    assert serialize.sheet_to_doc(copied) == serialize.sheet_to_doc(sheet)
    assert (copied.shape, copied.held_bytes) == (sheet.shape, sheet.held_bytes)
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", sheet.held_bytes - 1)
    with pytest.raises(ValueError, match="budget"):
        copies(sheet)


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "seed7", "n4"])
def test_every_contracted_cell_is_a_state(name):
    # sheet_blocks judges no cell; the contractor's cells pass the same
    # validation as a single DensityState
    loop, sheet = _contracted(name)
    validate_densities(cells(sheet, loop))


def test_purity_preserved_along_pure_columns():
    loop = bundled_pure_loop(320)
    arr = cells(contract_loop(loop), loop)
    # every input sample is pure, so every cell above it stays pure
    purities = np.einsum("stij,stji->st", arr, arr).real
    assert purities.min() > 1 - 1e-9


def test_compression_pushforward_matches_block_action():
    # acting with (1 - P) + embedded block operator on a P-supported state
    # agrees with the block action on block observables
    rng = np.random.default_rng(55)

    def act(a, rho):  # the stage row of s A + (1 - s) 1 at s = 1
        rows = homotopy._stage_rows(*pencil(a[None], pack_hermitian(rho[None])), np.ones((1, 1)))
        return linalg.unpack_hermitian(rows)[0, 0]

    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_block = block @ block.conj().T
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = rho_block / np.trace(rho_block).real
    psi = DensityState(rho)
    a_block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p = projection_matrix(3, 1)
    pushed = np.eye(3, dtype=complex) - p
    pushed[:2, :2] += a_block
    out_full = DensityState(act(pushed, psi.rho))
    out_block = DensityState(act(a_block, rho[:2, :2] / np.trace(rho[:2, :2]).real))
    for _ in range(10):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b_emb = np.zeros((3, 3), dtype=complex)
        b_emb[:2, :2] = b
        assert abs(out_full.expect(b_emb) - out_block.expect(b)) < 1e-9


def _rule_rows_reference(c, rows):
    """_rule_rows as written with both branches evaluated everywhere."""
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


def _stage_rows_reference(p, c, s):
    """_stage_rows as one expression, with its temporaries."""
    p, (c0, c1, c2) = p[:, :, None], c
    with np.errstate(divide="ignore", invalid="ignore"):
        return (p[0] + s * (p[1] + s * p[2])) / (c0 + s * (c1 + s * c2))


@pytest.mark.parametrize("name", ["plateau", "seed2"])
def test_rule_and_stage_rows_are_the_expressions_bit_for_bit(name):
    # every stage's pencil as the contractor forms it, where D > 0 in every
    # column, and the same pencils with columns appended where D = 0,
    # D < 0, c vanishes, and c or p is NaN or infinite
    loop, sheet = _contracted(name)
    odd_c = np.array([[1.0, 1.0, 1.0, 0.0, np.nan, np.inf, 1.0],
                      [-1.0, 2.0, 0.5, 0.0, 0.0, 0.0, 1.0],
                      [0.25, 0.5, 1.0, 0.0, 1.0, 1.0, -np.inf]])
    for ops, _, rhos in _stage_inputs(sheet, loop):
        p, c = pencil(ops, pack_hermitian(rhos))
        odd_p = np.repeat(p[:, :, :1], odd_c.shape[1], axis=2)
        odd_p[1, 0, 3], odd_p[2, 1, 4] = np.nan, np.inf
        for p, c in ((p, c), (np.concatenate([p, odd_p], axis=2), np.concatenate([c, odd_c], axis=1))):
            for rows in (1, 9):
                s = homotopy._rule_rows(c, rows, 0, rows)
                assert s.tobytes() == _rule_rows_reference(c, rows).tobytes()
                chunks = [homotopy._rule_rows(c, rows, lo, min(lo + 4, rows)) for lo in range(0, rows, 4)]
                assert np.concatenate(chunks).tobytes() == s.tobytes()
                assert homotopy._stage_rows(p, c, s).tobytes() == _stage_rows_reference(p, c, s).tobytes()
