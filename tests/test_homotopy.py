import copy
import math
import re
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselab import homotopy, linalg, serialize, states
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
from phaselab.states import DensityState, basis_state, state_from_vector, validate_densities
from sheet_cells import cells, forge_cells


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
    doc = {"n": 2, "samples": serialize.encode_matrix(rhos)}
    for build, prefix in ((lambda: StateLoop(2, rhos), ""),
                          (lambda: serialize.loop_from_doc(doc), "invalid loop document: ")):
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == prefix + str(want.value)
    with pytest.raises(ValueError, match="states on M_n"):
        StateLoop(3, loop.rhos)


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


def test_safety_min():
    base = basis_state(2).rho
    value, s = safety_min(pencil(projection_matrix(2, 1), base)[1])
    assert value > SAFETY_FLOOR and abs(value - 1.0) < 1e-12
    value, s = safety_min(pencil(-np.eye(2, dtype=complex), base)[1])
    assert not value > SAFETY_FLOOR and s == 0.5
    # omega(U) = 0: safe with min s^2 + (1-s)^2 = 1/2 at s = 1/2
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    value, s = safety_min(pencil(sx, base)[1])
    assert value > SAFETY_FLOOR
    assert abs(value - 0.5) < 1e-12 and s == 0.5
    # a stack gives the values of single calls
    values, _ = safety_min(pencil(np.stack([sx, -np.eye(2)]), base)[1])
    assert values[0] == safety_min(pencil(sx, base)[1])[0]
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

    min_value, s_at_min = map(float, safety_min(pencil(a, omega.rho)[1]))
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
    assert level.unitaries.shape == (321, 2, 2)
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


def test_unitarity_is_checked_before_the_phase_lift(monkeypatch):
    # a transport that is not unitary is refused before the phase lift,
    # whose path it can break: the failure names the transport. No vectors
    # make one, so the rebuild is patched
    transport = homotopy._transport_unitaries
    monkeypatch.setattr(homotopy, "_transport_unitaries",
                        lambda runs, vectors: 1.01 * transport(runs, vectors))
    monkeypatch.setattr(homotopy, "disk_phase_lift", None)  # not reached
    with pytest.raises(ValueError, match="^not a unitary$"):
        contract_loop(random_based_loop(3, 2, 700))


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
        (lambda doc: doc["levels"][0]["vectors"][3].__setitem__(1, [float("nan"), 0]),
         "'vectors' holds JSON integers, got float entries"),
        (lambda doc: doc["levels"][0]["phases"].__setitem__(3, float("nan")),
         "'phases' holds JSON integers, got float entries"),
        (lambda doc: doc["levels"][0]["rows"].__setitem__(1, float("nan")),
         "two positive integer row counts"),
    ):
        doc = serialize.sheet_to_doc(sheet)
        forge(doc)
        with pytest.raises(ValueError, match=message):
            serialize.sheet_from_doc(doc)


def _drop_the_last_column(level):
    """A level document over one column fewer, its last a run sample."""
    level["phases"].pop()
    level["vectors"].pop()
    level["runs"][-1] -= 1


@pytest.mark.parametrize(
    "forge, message",
    [
        # a recipe on M_n has n - 1 levels, level k with unitaries on M_{n-k}: here n = 2
        (lambda doc: doc["levels"].pop(), "has 1 levels, got 0"),
        (lambda doc: doc["levels"].append(doc["levels"][0]), "has 1 levels, got 2"),
        (lambda doc: doc["levels"][0].__setitem__("vectors", serialize.sheet_to_doc(
            contract_loop(constant_loop(3, 6)))["levels"][0]["vectors"]),
         r"shape \(7, 3, 3\), not \(7, 2, 2\)"),
        # level 0's phases give T, and a loop of 7 samples does not fit 6 columns
        (lambda doc: _drop_the_last_column(doc["levels"][0]),
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
        (lambda doc: doc["levels"][0]["vectors"][3].__setitem__(0, ["1", False]),
         "'vectors' holds JSON integers, got bool, str entries"),
        (lambda doc: doc["levels"][0]["vectors"][3].__setitem__(0, [True, 0]),
         "'vectors' holds JSON integers, got bool entries"),
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
        {"kind": "unitary", "ops": serialize.encode_matrix(sheet.levels[0].unitaries), "s": s_table},
        {"kind": "projection", "ops": serialize.encode_matrix(projection_matrix(2, 1)),
         "s": s_table}]}]
    with pytest.raises(ValueError, match="the format changed"):
        serialize.sheet_from_doc(doc)
    # so is a document that still stores its input loop beside the recipe
    doc = serialize.sheet_to_doc(contract_loop(loop))
    doc["loop"] = serialize.encode_matrix(loop.rhos)
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
        pairs = np.stack([lv.unitaries.real, lv.unitaries.imag], axis=-1) * doc["u_den"]
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
         r"a level holds 'runs', 'vectors', 'phases' and 'rows' since the format changed, got "
         r"\['s_projection', 's_unitary', 'unitaries'\]"),
        (lambda doc: _s_tables(doc) or doc.pop("s_den"),
         "a level holds 'runs', 'vectors', 'phases' and 'rows'"),
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
         r"a level holds 'runs', 'vectors', 'phases' and 'rows' since the format "
         r"changed, got \['rows', 'unitaries'\]"),
        (serialize.sheet_to_doc, lambda doc: doc.pop("u_den"), r"the format changed, got \['levels', 'n'\]"),
        (serialize.sheet_to_doc, lambda doc: doc.__setitem__("u_den", 2**36),
         "'u_den' must be 1099511627776, got 68719476736"),
        (serialize.sheet_to_doc, lambda doc: doc.__setitem__("u_den", float(2**40)),
         "'u_den' must be an integer"),
        (serialize.sheet_to_doc, lambda doc: doc["levels"][0]["vectors"][2].__setitem__(1, [0.5, 0]),
         "'vectors' holds JSON integers, got float entries"),
        # a float of integral value is not an integer numerator either
        (serialize.sheet_to_doc, lambda doc: doc["levels"][0]["vectors"][2][1].__setitem__(0, 2.0**40),
         "'vectors' holds JSON integers, got float entries"),
        (serialize.sheet_to_doc, lambda doc: doc["levels"][0]["vectors"].__setitem__(2, [[1, 0]]),
         "malformed sheet"),
        # a stack of vectors of triples, not of pairs
        (serialize.sheet_to_doc,
         lambda doc: doc["levels"][0].__setitem__("vectors", [[[1, 0, 0]] * 2] * 401),
         r"vectors must be nested arrays of \[re, im\] pairs"),
    ],
    ids=["earlier-format", "float-unitaries", "no-u-den", "other-u-den", "float-u-den",
         "float-numerator", "integral-float-numerator", "ragged", "not-pairs"],
)
def test_sheet_from_doc_refuses_unitaries_off_the_format(pure_sheet, make, forge, message):
    # the first two cases forge the unitaries document of the format before
    # this one, and the others a document of this one
    doc = make(pure_sheet)
    forge(doc)
    with pytest.raises(ValueError, match=message):
        serialize.sheet_from_doc(doc)


def test_sheet_to_doc_refuses_a_unitary_off_the_grid(pure_sheet):
    # the unitaries are not the rebuild of the vectors and phases the
    # document would hold, so their document would expand to other cells
    ops = pure_sheet.levels[0].unitaries
    forged = _forge(pure_sheet, unitaries=_set(ops, (5, 0, 1), ops[5, 0, 1] + 2.0**-41))
    with pytest.raises(ValueError, match="not the rebuild of its vectors and phases"):
        serialize.sheet_to_doc(forged)


@pytest.mark.parametrize("name", ["seed2", "plateau"])
def test_a_written_document_rebuilds_every_operator_bit_for_bit(name, tmp_path):
    # every A_t = lambda_t U_t read back from the document is the
    # contractor's, bit for bit (zero signs included), as are the runs,
    # vectors and phases it is rebuilt from; the contractor's A_t are the
    # rebuild of its own fields, and unitary to rounding
    _, sheet = _contracted(name)
    path = tmp_path / "sheet.json"
    serialize.write_sheet(str(path), sheet)
    back = serialize.sheet_from_doc(serialize.read_doc(str(path)))
    for got, want in zip(back.levels, sheet.levels, strict=True):
        assert got.unitaries.tobytes() == want.unitaries.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.phases.tobytes() == want.phases.tobytes()
        assert got.runs == want.runs and got.rows == want.rows
        rebuilt = homotopy.level_unitaries(want.runs, want.vectors, want.phases)
        assert rebuilt.tobytes() == want.unitaries.tobytes()
        assert homotopy._unitarity_defect(want.unitaries).max() < 1e-14
    assert len(back.levels[0].runs) > 2  # both loops have non-pure gaps at level 0


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
        (lambda lv: lv["vectors"].pop(), "one vector per run sample, 526, got 525"),
        (lambda lv: lv["vectors"].append(lv["vectors"][0]), "one vector per run sample, 526, got 527"),
        (lambda lv: lv["vectors"].__setitem__(5, [[0, 0]] * 3), "zero vector does not represent a ray"),
        (lambda lv: lv["phases"].pop(), r"'runs' must rise from 0 to the 900 phases"),
        (lambda lv: lv["phases"].__setitem__(3, 0.5), "'phases' holds JSON integers, got float entries"),
        (lambda lv: lv["phases"].__setitem__(3, True), "'phases' holds JSON integers, got bool entries"),
        (lambda lv: lv["phases"].__setitem__(3, 10**30), "malformed sheet document"),
        (lambda lv: lv.__setitem__("phases", [[0]] * 901), "malformed sheet document"),
        # level 0's phases give T: level 1, over one column more, does not fit
        (_drop_the_last_column, r"level 1 unitaries of shape \(901, 2, 2\), not \(900, 2, 2\)"),
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


def test_sheet_from_doc_checks_the_budget_before_any_rebuild(pure_sheet, monkeypatch):
    # a document's phases and rows set what its recipe would hold, so a
    # recipe over the budget is refused before any unitary is rebuilt
    doc = serialize.sheet_to_doc(pure_sheet)
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", pure_sheet.held_bytes - 1)
    monkeypatch.setattr(homotopy, "_transport_unitaries", None)  # not reached
    with pytest.raises(ValueError, match="budget"):
        serialize.sheet_from_doc(doc)


@pytest.mark.parametrize("field", ["vectors", "phases"])
def test_sheet_to_doc_refuses_fields_that_do_not_rebuild_the_unitaries(pure_sheet, field):
    # a vector entry moved by one numerator, or a phase by one step of
    # 2 pi / u_den, with the unitaries kept: the document would expand to
    # other cells than the recipe's
    level = pure_sheet.levels[0]
    moved = _set(getattr(level, field), 5, getattr(level, field)[5] + (1 if field == "phases" else 2.0**-40))
    with pytest.raises(ValueError, match="not the rebuild of its vectors and phases"):
        serialize.sheet_to_doc(_forge(pure_sheet, **{field: moved}))


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
    assert sorted(level) == ["phases", "rows", "runs", "vectors"]
    assert level["runs"] == [0, 401]  # the pure loop is one run
    assert np.array(level["vectors"]).shape == (401, 2, 2)
    assert len(level["phases"]) == 401
    for key in ("runs", "vectors", "phases", "rows"):
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
    # an infinity or a NaN in an operator
    sheet = contract_loop(constant_loop(2, 6))
    (level,) = sheet.levels
    path = tmp_path / "sheet.json"
    for bad in (np.inf, np.nan):
        forged = _forge(sheet, unitaries=_set(level.unitaries, (6, 1, 1), bad))
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
        yield level.unitaries, level.rows[0]
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
        yield ops, homotopy._rule_rows(pencil(ops, rhos)[1], rows), rhos
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
        _assert_rule_rows(homotopy._rule_rows(c, rows), c, rows, 20000, 1e-8)
    # a constant c spaces the rows equally, and D -> 0 meets the D = 0 limit
    plain = homotopy._rule_rows(special, 16)
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
        assert np.max(np.abs(pencil(ops, rhos)[1] - c)) < 1e-13
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
    p, c = pencil(a, rho)
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


@pytest.mark.parametrize(
    "stage_index, forge, kind, at",
    [
        (0, lambda lv: {"unitaries": _set(lv.unitaries, 4, np.diag([1.0, 2.0]))}, "not-unitary",
         [4]),
        # A = -1 is a unitary in the Gelfand ideal at s = 1/2: c = (1 - 2s)²,
        # and the rule puts that column's rows at s = 0 and 1 only
        (0, lambda lv: {"unitaries": _set(lv.unitaries, 4, -np.eye(2))}, "unsafe", [4]),
    ],
    ids=["non-unitary", "unsafe"],
)
def test_verifier_flags_forged_recipes(stage_index, forge, kind, at):
    # on the constant loop every forgery leaves every cell at the basepoint,
    # so only the recipe checks can see it
    loop = constant_loop(2, 10)
    sheet = contract_loop(loop)
    forged = _forge(sheet, **forge(sheet.levels[0]))
    assert np.max(np.abs(cells(forged, loop) - cells(sheet, loop))) < 1e-15
    report = verify_homotopy(forged, loop, modulus=1e-9)
    assert not report.passed
    assert {v[0] for v in report.violations} == {kind}
    assert [v[1] for v in report.violations] == [(0, stage_index, t) for t in at]


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
    forged = _forge(sheet, phases=phases, unitaries=homotopy.level_unitaries(level.runs, level.vectors, phases))
    assert np.abs(forged.levels[0].unitaries[4] + np.eye(2)).max() < 1e-15
    rows = sheet.levels[0].rows[0]
    s = homotopy._rule_rows(np.array([[1.0], [-4.0], [4.0]]), rows)[:, 0]
    assert list(s) == [0.0] * (rows // 2) + [1.0] * (rows - rows // 2)
    assert np.isfinite(cells(forged, loop)).all()
    # its document reads back as the recipe, with the same verdict
    back = serialize.sheet_from_doc(serialize.sheet_to_doc(forged))
    for recipe in (forged, back):
        report = verify_homotopy(recipe, loop, modulus=1e-9)
        assert not report.passed
        assert [v[:2] for v in report.violations] == [("unsafe", (0, 0, 4))]


def test_verifier_flags_a_scaled_unitary_on_a_moving_loop(pure_sheet):
    loop = bundled_pure_loop()
    ops = pure_sheet.levels[0].unitaries
    forged = _forge(pure_sheet, unitaries=_set(ops, 200, 1.01 * ops[200]))
    report = verify_homotopy(forged, loop, modulus=loop.modulus)
    assert [v[:2] for v in report.violations] == [("not-unitary", (0, 0, 200))]


def test_verifier_reports_the_safety_minimum():
    loop, sheet = _contracted("seed2")
    report = verify_homotopy(sheet, loop, loop.modulus)
    values = [safety_min(pencil(ops, rhos)[1])[0] for ops, _, rhos in _stage_inputs(sheet, loop)]
    level, stage, column = report.safety_at
    index = 2 * level + stage
    assert report.safety_min == min(v.min() for v in values)
    assert report.safety_min == values[index][column] > SAFETY_FLOOR


def test_a_loop_is_expanded_and_verified_from_its_packed_row_0():
    # 5e-9 on entry (1, 0) of a sample of the contracted pure loop, under
    # the non-hermitian gate, where packed row 0 does not read it: the
    # stage blocks, and the safety value and place the verifier takes from
    # them, are those of the loop whose lower triangle mirrors its upper
    # one, bit for bit
    loop = bundled_pure_loop()
    sheet = contract_loop(loop)
    loop.rhos[5, 1, 0] += 5e-9
    mirrored = StateLoop(2, linalg.unpack_hermitian(linalg.pack_hermitian(loop.rhos)))
    assert not np.array_equal(loop.rhos, mirrored.rhos)
    got, want = list(homotopy.sheet_blocks(sheet, loop)), list(homotopy.sheet_blocks(sheet, mirrored))
    assert len(got) == len(want) == 3
    for (_, c, x), (_, want_c, want_x) in zip(got, want):
        assert np.array_equal(c, want_c) and np.array_equal(x, want_x)
    report = verify_homotopy(sheet, loop, mirrored.modulus)
    oracle = verify_homotopy(sheet, mirrored, mirrored.modulus)
    assert report.passed and oracle.passed
    assert (report.safety_min, report.safety_at) == (oracle.safety_min, oracle.safety_at)


def test_a_loop_is_contracted_from_its_packed_row_0():
    # the same 5e-9 on entry (1, 0) of sample 5 of the pure loop: the
    # contractor reads level 0's input as packed row 0, as the expansion
    # and the verifier do, so its recipe is that of the loop whose lower
    # triangle mirrors its upper one, bit for bit
    loop = bundled_pure_loop()
    loop.rhos[5, 1, 0] += 5e-9
    mirrored = StateLoop(2, linalg.unpack_hermitian(linalg.pack_hermitian(loop.rhos)))
    assert not np.array_equal(loop.rhos, mirrored.rhos)
    got, want = contract_loop(loop), contract_loop(mirrored)
    assert len(got.levels) == len(want.levels) == 1
    for level, want_level in zip(got.levels, want.levels):
        assert np.array_equal(level.unitaries, want_level.unitaries)
        assert level.rows == want_level.rows


@pytest.mark.parametrize("name", ["seed2", "plateau"])
def test_each_stage_block_comes_with_its_own_pencil_traces(name):
    # the traces the expansion hands the verifier with each stage block are
    # those of the pencil on that stage's input, chained independently from
    # the whole sheet's cells (_stage_inputs), bit for bit: a block paired
    # with another stage's traces fails here, whichever stage holds the
    # safety minimum
    loop, sheet = _contracted(name)
    yielded = [c for _, c, _ in homotopy.sheet_blocks(sheet, loop)][1:]
    inputs = list(_stage_inputs(sheet, loop))
    assert len(yielded) == len(inputs) == 2 * (loop.n - 1)
    for c, (ops, _, rhos) in zip(yielded, inputs):
        assert np.array_equal(c, pencil(ops, rhos)[1])


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
    values = [safety_min(pencil(ops, rhos)[1])[0] for ops, _, rhos in _stage_inputs(sheet, loop)]
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


def test_verifier_scans_the_loop_as_given_for_hermiticity(pure_sheet):
    # a StateLoop is validated when it is made, and mutable after
    loop = bundled_pure_loop()
    rhos = loop.rhos.copy()
    rhos[5, 0, 1] += 1e-7
    loop.rhos = rhos
    report = verify_homotopy(pure_sheet, loop, loop.modulus)
    assert [v[:2] for v in report.violations] == [("non-hermitian", (0, 5))]
    (_, _, value, bound), = report.violations
    assert abs(value - 1e-7) < 1e-15 and bound == homotopy.CELL_TOL


def test_contract_loop_takes_lapack_only_on_fallback(monkeypatch):
    # Every step a contraction and its verification measure is of 2x2 or
    # 3x3 Hermitian matrices, and an exact trace norm takes the closed form.
    # The verifier takes exact norms for a block's steps, row 0's
    # included, only where their Frobenius bounds let them be the largest
    # (_bounded_steps): 8,199 matrices in all for this 61x701 sheet of
    # 84,760 steps, its edge columns and last row included. eigvalsh sees
    # only the matrices the closed form hands back, each with a nearly
    # degenerate pair: none of the contraction's, and 193 (2.4%) of the
    # verification's.
    # The positivity certificate of validation and the verifier clears every
    # matrix it takes on this loop, single states included.
    loop = random_based_loop(3, 2, 700)
    counts = {"step": [0, 0], "positivity": [0, 0]}  # matrices, to eigvalsh
    active, handed_back = [], []
    eigvalsh = np.linalg.eigvalsh

    def size(m, *_):
        return np.asarray(m)[..., 0, 0].size

    def packed_size(x, *_):
        return x[0].size

    def counting(kernel, key, matrices):
        def wrapped(m, *args):
            counts[key][0] += matrices(m, *args)
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

    for name, key, matrices in (("trace_norm", "step", size), ("_hermitian_trace_norm", "step", packed_size),
                                ("_hermitian_min_eigenvalues", "positivity", packed_size)):
        monkeypatch.setattr(homotopy, name, counting(getattr(homotopy, name), key, matrices))
    monkeypatch.setattr(states, "min_eigenvalues", counting(states.min_eigenvalues, "positivity", size))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    sheet = contract_loop(loop)
    matrices, lapack = counts["step"]
    assert matrices > 0 and lapack == 0
    assert verify_homotopy(sheet, loop, loop.modulus).passed
    matrices, lapack = np.subtract(counts["step"], [matrices, lapack])
    rows, columns = sheet.shape
    assert 0 < matrices < 0.12 * ((rows - 1) * columns + rows * (columns - 1))
    assert 0 < lapack <= 0.025 * matrices
    # r = cos 3φ of each handed-back spectrum, from eigvalsh's eigenvalues
    assert {m.shape[-2:] for m in handed_back} == {(3, 3)}
    dev = eigvalsh(np.concatenate([m.reshape(-1, 3, 3) for m in handed_back]))
    dev -= dev.mean(axis=-1, keepdims=True)
    r = dev.prod(axis=-1) / (2 * np.sqrt((dev * dev).sum(axis=-1) / 6) ** 3)
    assert (np.abs(r) > linalg.CLOSED_FORM_MAX_R - 1e-12).all()
    assert counts["positivity"][0] > np.prod(sheet.shape)
    assert counts["positivity"][1] == 0


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
    monkeypatch.setattr(homotopy, "trace_norm", _eigvalsh_trace_norm)
    monkeypatch.setattr(homotopy, "_hermitian_trace_norm",  # the bounded steps' exact norms
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
    # evaluated on the pencil's packed layout (_rule_block), against the
    # same arithmetic on the complex pencil's real and imaginary parts at
    # the rule's rows, (R0 + s (R1 + s R2)) / (c0 + s (c1 + s c2)): equal
    # bit for bit, on 2x2 blocks (the pure loop, and the last level of the
    # others), 3x3 and 4x4 blocks
    loop, sheet = _contracted(name)
    blocks = set()
    for ops, s, rhos in _stage_inputs(sheet, loop):
        p, c = pencil(ops, rhos)
        r = linalg.unpack_hermitian(p.swapaxes(0, 1))
        c0, c1, c2 = np.trace(r, axis1=-2, axis2=-1).real
        p0, p1, p2 = r.view(np.float64)[:, None]
        x = s[..., None, None]
        want = (p0 + x * (p1 + x * p2)) / (c0 + s * (c1 + s * c2))[..., None, None]
        got = linalg.unpack_hermitian(homotopy._rule_block(p, c, len(s)))
        assert np.array_equal(got, want.view(np.complex128))
        blocks.add(rhos.shape[-1])
    assert blocks == set(range(2, sheet.n + 1))


def test_verifier_reports_negative_cells_as_eigvalsh_does(monkeypatch):
    # one cell of a contracted 3x3 sheet forged to a negative eigenvalue,
    # one to a value the 1e-8 gate just passes: the certificate's
    # violations, values included, are those of an eigvalsh scan
    loop, forged = _contracted("seed2")
    rng = np.random.default_rng(21)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]

    def corrupt(arr):
        for (row, col), low in (((7, 300), -3e-6), ((9, 301), -0.9e-8)):
            cell = (q * [1.0 - low, 0.0, low]) @ q.conj().T
            arr[row, col] = (cell + cell.conj().T) / 2

    forge_cells(monkeypatch, corrupt)
    report = verify_homotopy(forged, loop, loop.modulus)

    def eigvalsh_scan(x, tol):  # a stage block, packed
        return np.linalg.eigvalsh(linalg.unpack_hermitian(x)).min(axis=-1)

    monkeypatch.setattr(homotopy, "_hermitian_min_eigenvalues", eigvalsh_scan)
    oracle = verify_homotopy(forged, loop, loop.modulus)
    negative = [v for v in report.violations if v[0] == "negative-eigenvalue"]
    assert [v[1] for v in negative] == [(7, 300)]
    assert abs(negative[0][2] - 3e-6) < 1e-15
    assert report.violations == oracle.violations


def test_loop_from_doc_rejects_garbage():
    with pytest.raises(ValueError):
        serialize.loop_from_doc({"n": 2})
    with pytest.raises(ValueError):
        serialize.loop_from_doc({"n": 2, "samples": [[[1.0]]]})
    # n is a JSON integer, never truncated from a float, a string or a bool
    samples = serialize.loop_to_doc(constant_loop(2, 6))["samples"]
    assert serialize.loop_from_doc({"n": 2, "samples": samples}).n == 2
    for n in (2.7, 2.0, "2", True):
        with pytest.raises(ValueError, match="'n' must be an integer"):
            serialize.loop_from_doc({"n": n, "samples": samples})
    # every matrix entry is a JSON number, never a string or a bool
    for pair in (["1", False], [True, 0]):
        forged = copy.deepcopy(samples)
        forged[0][0][0] = pair
        with pytest.raises(ValueError, match="matrix entries must be numbers"):
            serialize.loop_from_doc({"n": 2, "samples": forged})


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
        rows = homotopy._stage_rows(*pencil(a[None], rho[None]), np.ones((1, 1)))
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
