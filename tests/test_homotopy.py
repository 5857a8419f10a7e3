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
    Level,
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
from phaselab.states import DensityState, basis_state, state_from_vector
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
    assert coarse.max_step == 2.0
    assert constant_loop(2, 8).max_step == 0.0


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


def test_disk_phase_lift_rejects_coarse_paths():
    with pytest.raises(ValueError):
        disk_phase_lift(np.array([1.0, -1.0, 1.0, -1.0], dtype=complex))


def test_safety_min():
    base = basis_state(2).rho
    value, s = safety_min(pencil(projection_matrix(2, 1), base))
    assert value > SAFETY_FLOOR and abs(value - 1.0) < 1e-12
    value, s = safety_min(pencil(-np.eye(2, dtype=complex), base))
    assert not value > SAFETY_FLOOR and s == 0.5
    # omega(U) = 0: safe with min s^2 + (1-s)^2 = 1/2 at s = 1/2
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    value, s = safety_min(pencil(sx, base))
    assert value > SAFETY_FLOOR
    assert abs(value - 0.5) < 1e-12 and s == 0.5
    # a stack gives the values of single calls
    values, _ = safety_min(pencil(np.stack([sx, -np.eye(2)]), base))
    assert values[0] == safety_min(pencil(sx, base))[0]
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

    min_value, s_at_min = map(float, safety_min(pencil(a, omega.rho)))
    assert 0.0 <= s_at_min <= 1.0
    assert min_value <= min(value(s) for s in np.linspace(0.0, 1.0, 1001)) + 1e-12
    assert abs(min_value - value(s_at_min)) < 1e-12


def _level_last_rows(sheet: HomotopySheet) -> list:
    """The last row of each level of a contraction sheet."""
    rows, row = [], 0
    for level in sheet.levels:
        row += len(level.s_unitary) + len(level.s_projection)
        rows.append(cells(sheet)[row])
    return rows


def test_rectify_constant_loop_is_constant():
    sheet = contract_loop(constant_loop(3, 16))
    base = basis_state(3)
    for row in cells(sheet):
        for rho in row:
            assert np.max(np.abs(rho - base.rho)) < 1e-12


def test_rectify_pure_loop():
    sheet = contract_loop(bundled_pure_loop(320))
    (out,) = _level_last_rows(sheet)  # n = 2: one level
    p = projection_matrix(2, 1)
    for s in map(DensityState, out):
        assert abs(s.expect(p).real - 1) < 1e-8
    # for n = 2, full weight on P^2_1 pins the state to the basepoint
    base = basis_state(2)
    for s in map(DensityState, out):
        assert np.max(np.abs(s.rho - base.rho)) < 1e-8


def test_rectify_plateau_loop_kills_last_row():
    sheet = contract_loop(bundled_plateau_loop())
    out = _level_last_rows(sheet)[0]  # the first level acts on all of M_3
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
    sheet = contract_loop(bundled_pure_loop(320))
    base = basis_state(2)
    arr = cells(sheet)
    for row in arr:
        assert np.max(np.abs(row[0] - base.rho)) < 1e-10
        assert np.max(np.abs(row[-1] - base.rho)) < 1e-10
    (level,) = sheet.levels
    assert level.unitaries.shape == (321, 2, 2)
    for s in (level.s_unitary, level.s_projection):
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
    report = verify_homotopy(sheet, loop, modulus=5 * loop.max_step)
    assert report.passed, report.violations[:5]
    base = basis_state(loop.n)
    for rho in cells(sheet)[-1]:
        assert np.max(np.abs(rho - base.rho)) < 1e-10


def test_contract_loop_unitary_gate():
    # on seed 1 the level-2 eigenvector transport fails the unitarity check
    with pytest.raises(ValueError, match="^not a unitary$"):
        contract_loop(random_based_loop(3, 1, 700))


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
    unitaries = homotopy._transport_unitaries(rhos)
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
    for row in cells(sheet):
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
    rows = len(sheet.levels[0].s_unitary)
    forge_cells(monkeypatch, lambda arr: arr.__setitem__(slice(1, 1 + rows), basis_state(2, 1).rho))
    report = verify_homotopy(sheet, loop, modulus=1e-6)
    assert report.max_cell_step == 2.0
    assert [v[1:3] for v in report.violations if v[0] == "step-modulus"] == [((0, 0), 2.0)]


def test_verifier_fails_a_nan_modulus(pure_sheet):
    # a NaN modulus must not turn the step gate off
    loop = bundled_pure_loop()
    assert verify_homotopy(pure_sheet, loop, 5 * loop.max_step).passed
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
    # fits, refuses that stage before its pre-pass
    loop = bundled_pure_loop()
    (level,) = pure_sheet.levels
    assert [len(s) > homotopy.MIN_ROWS for s in level[1:]] == [True, False]
    least = [homotopy.MIN_ROWS] * 2
    assert homotopy._held_bytes(2, loop.n_samples, least) < pure_sheet.held_bytes - 1
    seen, interp = [], homotopy._interp_rows
    monkeypatch.setattr(homotopy, "_interp_rows", lambda r, rows: seen.append(rows) or interp(r, rows))
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", pure_sheet.held_bytes - 1)
    with pytest.raises(ValueError, match="budget"):
        contract_loop(loop)
    assert seen == []


def _traced_contract_and_verify(loop) -> tuple:
    """The contraction and verification of `loop`, and their tracemalloc peak."""
    tracemalloc.start()
    try:
        sheet = contract_loop(loop)
        report = verify_homotopy(sheet, loop, 5 * max(loop.max_step, 1e-3))
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
    # the verification weighs most, at 5.5 blocks of a stage's 8 rows against
    # the contraction's 2.2 to 3.2. At n = 40 and 17 samples the sheet has
    # 625 rows of 8 a stage: gathering its edge columns to check them last
    # peaked at 76.6 MB, against a count of 31.3 MB. A budget of exactly the
    # sheet's count admits the loop, and the contraction and verification
    # together stay within it.
    loop = make_loop()
    held = contract_loop(loop).held_bytes
    monkeypatch.setattr(homotopy, "MAX_SHEET_BYTES", held)
    sheet, report, peak = _traced_contract_and_verify(loop)
    assert report.passed, report.violations[:5]
    assert sheet.held_bytes == held
    assert peak <= held


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
    a1, a2 = cells(sheet), cells(back_sheet)
    assert np.max(np.abs(a1 - a2)) < 1e-15


def test_sheet_from_doc_validates_every_cell():
    doc = serialize.sheet_to_doc(contract_loop(constant_loop(2, 6)))
    last = doc["loop"][-1]
    last[0][0] = [0.7, 0.0]  # trace now 0.7
    with pytest.raises(ValueError) as got:
        serialize.sheet_from_doc(doc)
    with pytest.raises(ValueError) as want:
        DensityState(serialize.decode_matrix(last))
    assert str(got.value) == str(want.value)
    doc["loop"][0] = [[1.0, 0.0]]  # ragged
    with pytest.raises(ValueError):
        serialize.sheet_from_doc(doc)


def test_sheet_from_doc_rejects_a_nan_cell():
    # a NaN in the loop, in an operator or in an s table makes a NaN cell
    sheet = contract_loop(constant_loop(2, 6))
    for forge in (
        lambda doc: doc["loop"][2][0].__setitem__(1, [float("nan"), 0.0]),
        lambda doc: doc["levels"][0]["unitaries"][3][1].__setitem__(1, [float("nan"), 0.0]),
        lambda doc: doc["levels"][0]["s_projection"][2].__setitem__(4, float("nan")),
    ):
        doc = serialize.sheet_to_doc(sheet)
        forge(doc)
        with pytest.raises(ValueError, match="non-finite"):
            serialize.sheet_from_doc(doc)


@pytest.mark.parametrize(
    "forge, message",
    [
        # a recipe on M_n has n - 1 levels, level k with unitaries on M_{n-k}: here n = 2
        (lambda doc: doc["levels"].pop(), "has 1 levels, got 0"),
        (lambda doc: doc["levels"].append(doc["levels"][0]), "has 1 levels, got 2"),
        (lambda doc: doc["levels"][0].__setitem__("unitaries", serialize.encode_matrix(
            np.repeat(np.eye(3)[None], 7, axis=0))), r"shape \(7, 3, 3\), not \(7, 2, 2\)"),
        (lambda doc: doc["levels"][0]["unitaries"].pop(), "unitaries of shape"),
        (lambda doc: doc["levels"][0]["s_projection"][0].pop(), "malformed sheet"),
        (lambda doc: doc["levels"][0].__setitem__("s_projection", []), "s table"),
        (lambda doc: doc.pop("levels"), "malformed sheet"),
        (lambda doc: doc.__setitem__("n", 2.7), "'n' must be an integer"),
        (lambda doc: doc.__setitem__("n", "2"), "'n' must be an integer"),
    ],
    ids=["levels-short", "levels-long", "wrong-block", "ops-shape", "s-ragged", "s-empty",
         "no-levels", "n-float", "n-string"],
)
def test_sheet_from_doc_rejects_malformed_recipes(forge, message):
    doc = serialize.sheet_to_doc(contract_loop(constant_loop(2, 6)))
    forge(doc)
    with pytest.raises(ValueError, match=message):
        serialize.sheet_from_doc(doc)


def test_sheet_from_doc_refuses_the_earlier_format():
    # levels of {block, stages: [{kind, ops, s}, ...]}, which stored the
    # block and the projection operator, are refused with the reason
    doc = serialize.sheet_to_doc(contract_loop(constant_loop(2, 6)))
    (level,) = doc["levels"]
    doc["levels"] = [{"block": 2, "stages": [
        {"kind": "unitary", "ops": level["unitaries"], "s": level["s_unitary"]},
        {"kind": "projection", "ops": serialize.encode_matrix(projection_matrix(2, 1)),
         "s": level["s_projection"]}]}]
    with pytest.raises(ValueError, match="the format changed"):
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
    # the zeroed stand-ins for the bad cells add no violation of their own
    assert report.violations == [
        ("non-finite", (0, 3), 1.0, 0.0),
        ("non-finite", (1, 0), 4.0, 0.0),
        ("non-finite", (2, 4), 1.0, 0.0),
        ("non-finite", (last, 5), 1.0, 0.0),
    ]
    assert report.max_cell_step == 0.0


@pytest.fixture(scope="module")
def pure_sheet():
    return contract_loop(bundled_pure_loop())


@pytest.mark.parametrize(
    "kind, cell",
    [("row0-mismatch", (0, 150)), ("left-column", (20, 0)), ("right-column", (20, -1)),
     ("final-row", (-1, 150))],
)
def test_verifier_names_each_boundary_check_at_an_int_cell(pure_sheet, monkeypatch, kind, cell):
    # a valid state 2e-6 away from the cell's own: every boundary check fires
    loop = bundled_pure_loop()

    def corrupt(arr):
        arr[cell] = (1 - 1e-6) * arr[cell] + 1e-6 * basis_state(2, 1).rho

    forge_cells(monkeypatch, corrupt)
    report = verify_homotopy(pure_sheet, loop, 5 * loop.max_step)
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
    assert sorted(doc) == ["levels", "loop", "n"]
    (level,) = doc["levels"]
    assert sorted(level) == ["s_projection", "s_unitary", "unitaries"]
    assert np.array(level["unitaries"]).shape == (401, 2, 2, 2)
    assert 1 + len(level["s_unitary"]) + len(level["s_projection"]) == pure_sheet.shape[0]


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
    assert np.array_equal(cells(back), cells(pure_sheet))


def test_write_sheet_rejects_non_finite_before_writing(tmp_path):
    # a NaN in the loop, or an infinity in an operator or an s table
    sheet = contract_loop(constant_loop(2, 6))
    loop = sheet.loop.copy()
    loop[3, 1, 1] = np.nan
    forged = [HomotopySheet(2, loop, sheet.levels)]
    (level,) = sheet.levels
    for field in Level._fields:
        array = getattr(level, field).copy()
        array.reshape(-1)[-1] = np.inf
        forged.append(HomotopySheet(2, sheet.loop, [level._replace(**{field: array})]))
    path = tmp_path / "sheet.json"
    for bad in forged:
        with pytest.raises(ValueError, match="non-finite"):
            serialize.write_sheet(str(path), bad)
        assert not path.exists()


@lru_cache(maxsize=None)
def _contracted(name: str):
    loops = {
        "pure": bundled_pure_loop,
        "plateau": bundled_plateau_loop,
        "seed2": lambda: random_based_loop(3, 2, 700),
        "seed7": lambda: random_based_loop(3, 7, 700),
        "n4": lambda: random_based_loop(4, 2, 300),
    }
    loop = loops[name]()
    return loop, contract_loop(loop)


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "seed7"])
def test_read_back_cells_equal_the_contractors(name, tmp_path):
    loop, sheet = _contracted(name)
    path = tmp_path / "sheet.json"
    serialize.write_sheet(str(path), sheet)
    back = serialize.sheet_from_doc(serialize.read_doc(str(path)))
    assert np.array_equal(cells(back), cells(sheet))
    assert verify_homotopy(back, loop, 5 * loop.max_step).passed


def _stage_recipes(sheet):
    """(operators, s table) of every stage of a sheet in order: level k's
    unitaries, then the corner projection of its block b = n - k."""
    for k, level in enumerate(sheet.levels):
        yield level.unitaries, level.s_unitary
        yield projection_matrix(sheet.n - k, 1), level.s_projection


def _stage_inputs(sheet):
    """(operators, s table, input densities (T, b, b)) for every stage of
    a sheet."""
    arr, row = cells(sheet), 0
    for i, (ops, s) in enumerate(_stage_recipes(sheet)):
        b = ops.shape[-1]
        rhos = arr[row, :, :b, :b]
        if i % 2 == 0 and b < sheet.n:  # a level compresses its input
            rhos = rhos / np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]
            rhos = (rhos + rhos.conj().swapaxes(-1, -2)) / 2
        yield ops, s, rhos
        row += len(s)


def _direct_s_table(ops, rhos, n_rows, fine_mult=6, chunk=128):
    """The arc-length s table from B(s) rho B(s)† formed by matrix products
    at every fine sample, and each column's arc length."""
    b = rhos.shape[-1]
    s_fine = np.linspace(0.0, 1.0, max(n_rows * fine_mult, 48) + 1)
    fractions = np.arange(1, n_rows + 1) / n_rows
    ops = np.broadcast_to(ops, rhos.shape)
    table, lengths = np.empty((n_rows, len(rhos))), np.empty(len(rhos))
    for lo in range(0, len(rhos), chunk):
        a, rho = ops[lo:lo + chunk], rhos[lo:lo + chunk]
        bs = s_fine[:, None, None, None] * a + (1.0 - s_fine)[:, None, None, None] * np.eye(b)
        raw = bs @ rho @ bs.conj().swapaxes(-1, -2)
        states = raw / np.trace(raw, axis1=-2, axis2=-1).real[..., None, None]
        d = np.diff(states, axis=0)
        steps = np.abs(np.linalg.eigvalsh((d + d.conj().swapaxes(-1, -2)) / 2)).sum(axis=-1)
        arcs = np.concatenate([np.zeros((1, steps.shape[1])), np.cumsum(steps, axis=0)])
        for t, arc in enumerate(arcs.T, start=lo):
            lengths[t] = arc[-1]
            moving = arc[-1] >= 1e-13
            table[:, t] = np.interp(fractions * arc[-1], arc, s_fine) if moving else fractions
    table[-1] = 1.0
    return table, lengths


@pytest.mark.parametrize("name", ["plateau", "seed2"])
def test_pencil_s_tables_match_the_direct_form(name):
    # A column that barely moves has an arc length made of rounding, in
    # either form (seed 2, level 2: 4.6e-11), and its s table is arbitrary
    # up to that rounding. So s itself must match where the arc length is
    # at least 1e-3, and everywhere the arc length the error stands for.
    _, sheet = _contracted(name)
    for ops, s, rhos in _stage_inputs(sheet):
        direct, lengths = _direct_s_table(ops, rhos, len(s))
        error = np.abs(s - direct)
        assert np.max(error[:, lengths >= 1e-3]) < 1e-12
        assert np.max(error * lengths) < 1e-13


@pytest.mark.parametrize("name", ["plateau", "seed2"])
def test_sheet_cells_are_the_direct_action(name):
    # every cell, evaluated from its stage's pencil, against the per-matrix
    # product B(s) rho B(s)† / tr on the stage's input; zero outside the block
    _, sheet = _contracted(name)
    arr, row = cells(sheet), 1
    for ops, s_table, rhos in _stage_inputs(sheet):
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
    r = pencil(a, rho)
    assert np.array_equal(r, r.conj().swapaxes(-1, -2))  # exactly Hermitian
    for s in (0.0, 0.3, 1.0):
        b = s * a + (1 - s) * np.eye(3)
        want = b @ rho @ b.conj().swapaxes(-1, -2)
        assert np.max(np.abs(r[0] + s * r[1] + s * s * r[2] - want)) < 1e-12


def _forge(sheet, **fields):
    """The sheet's recipe with fields of its first level replaced."""
    levels = [sheet.levels[0]._replace(**fields), *sheet.levels[1:]]
    return HomotopySheet(sheet.n, sheet.loop, levels)


def _set(array, index, value):
    out = array.copy()
    out[index] = value
    return out


def _skip_half(s, t):
    """Column t of an s table with its s = 1/2 row moved to 0.45."""
    assert (s[:, t] == 0.5).any()
    return _set(s, (s[:, t] == 0.5, t), 0.45)


@pytest.mark.parametrize(
    "stage_index, forge, kind, at",
    [
        (0, lambda lv: {"unitaries": _set(lv.unitaries, 4, np.diag([1.0, 2.0]))}, "not-unitary",
         [4]),
        (0, lambda lv: {"s_unitary": _set(lv.s_unitary, (0, 3), -0.25)}, "s-range", [3]),
        (1, lambda lv: {"s_projection": _set(lv.s_projection, (2, 6), 1.5)}, "s-range", [6]),
        (0, lambda lv: {"s_unitary": _set(lv.s_unitary, (-1, 5), 0.75)}, "s-last-row", [5]),
        # A = -1 is a unitary in the Gelfand ideal at s = 1/2, which the s table skips
        (0, lambda lv: {"unitaries": _set(lv.unitaries, 4, -np.eye(2)),
                        "s_unitary": _skip_half(lv.s_unitary, 4)}, "unsafe", [4]),
    ],
    ids=["non-unitary", "s-below-0", "s-above-1", "last-s-not-1", "unsafe"],
)
def test_verifier_flags_forged_recipes(stage_index, forge, kind, at):
    # on the constant loop every forgery leaves every cell at the basepoint,
    # so only the recipe checks can see it
    loop = constant_loop(2, 10)
    sheet = contract_loop(loop)
    forged = _forge(sheet, **forge(sheet.levels[0]))
    assert np.max(np.abs(cells(forged) - cells(sheet))) < 1e-15
    report = verify_homotopy(forged, loop, modulus=1e-9)
    assert not report.passed
    assert {v[0] for v in report.violations} == {kind}
    assert [v[1] for v in report.violations] == [(0, stage_index, t) for t in at]


def test_expansion_refuses_a_recipe_in_the_gelfand_ideal():
    # A = -1 with its s = 1/2 row kept: B(1/2) = 0 annihilates the state
    sheet = contract_loop(constant_loop(2, 10))
    assert (sheet.levels[0].s_unitary[:, 4] == 0.5).any()
    forged = _forge(sheet, unitaries=_set(sheet.levels[0].unitaries, 4, -np.eye(2)))
    with pytest.raises(states.GelfandIdealError):
        cells(forged)
    # its document reads back as the recipe, and the verifier's expansion refuses it
    loop = constant_loop(2, 10)
    back = serialize.sheet_from_doc(serialize.sheet_to_doc(forged))
    with pytest.raises(ValueError, match="Gelfand ideal"):
        verify_homotopy(back, loop, modulus=1e-9)


def test_verifier_flags_a_scaled_unitary_on_a_moving_loop(pure_sheet):
    loop = bundled_pure_loop()
    ops = pure_sheet.levels[0].unitaries
    forged = _forge(pure_sheet, unitaries=_set(ops, 200, 1.01 * ops[200]))
    report = verify_homotopy(forged, loop, modulus=5 * loop.max_step)
    assert [v[:2] for v in report.violations] == [("not-unitary", (0, 0, 200))]


def test_verifier_reports_the_safety_minimum():
    loop, sheet = _contracted("seed2")
    report = verify_homotopy(sheet, loop, 5 * loop.max_step)
    values = [safety_min(pencil(ops, rhos))[0] for ops, _, rhos in _stage_inputs(sheet)]
    level, stage, column = report.safety_at
    index = 2 * level + stage
    assert report.safety_min == min(v.min() for v in values)
    assert report.safety_min == values[index][column] > SAFETY_FLOOR


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2"])
def test_streamed_verdict_equals_the_whole_sheets(name):
    # the verifier holds one stage block and the row before it; its largest
    # step and its safety minimum and location are those recomputed on the
    # whole expanded sheet, bit for bit
    loop, sheet = _contracted(name)
    report = verify_homotopy(sheet, loop, 5 * loop.max_step)
    arr = cells(sheet)
    step_t = linalg.trace_norm(arr[:, 1:] - arr[:, :-1])
    step_s = linalg.trace_norm(arr[1:] - arr[:-1])
    assert report.max_cell_step == float(max(step_t.max(), step_s.max()))
    values = [safety_min(pencil(ops, rhos))[0] for ops, _, rhos in _stage_inputs(sheet)]
    index = int(np.argmin([v.min() for v in values]))
    assert report.safety_min == values[index].min()
    level, stage = divmod(index, 2)
    assert report.safety_at == (level, stage, int(np.argmin(values[index])))


def test_contract_loop_takes_no_svd(monkeypatch):
    loop = bundled_pure_loop(320)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    sheet = contract_loop(loop)
    assert verify_homotopy(sheet, loop, 5 * loop.max_step).passed
    assert calls == []  # every trace norm took the Hermitian path


def test_contract_loop_takes_lapack_only_on_fallback(monkeypatch):
    # Every trace norm of a contraction and its verification is of 2x2 or
    # 3x3 Hermitian matrices, which take the closed form, through
    # trace_norm or, in the arc-length pre-pass, through packed_trace_norm;
    # eigvalsh sees only the matrices they hand back (nearly degenerate
    # pairs) and small stacks. The positivity certificate of validation and
    # the verifier clears every matrix of the stacks it takes on this loop.
    loop = random_based_loop(3, 2, 700)
    counts = {"trace norm": [0, 0], "positivity": [0, 0], "small": [0, 0]}  # matrices, to eigvalsh
    active = []
    eigvalsh = np.linalg.eigvalsh

    def size(m):
        return np.asarray(m)[..., 0, 0].size

    def counting(kernel, key, matrices=size):
        def wrapped(m, *args):
            count = matrices(m)
            # the size rule sends a small stack to eigvalsh, certificate or not
            kind = "small" if key == "positivity" and count < linalg.CLOSED_FORM_MIN_STACK else key
            counts[kind][0] += count
            active.append(kind)
            try:
                return kernel(m, *args)
            finally:
                active.pop()
        return wrapped

    def counting_eigvalsh(m, *args, **kwargs):
        if active:
            counts[active[-1]][1] += size(m)
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(homotopy, "trace_norm", counting(homotopy.trace_norm, "trace norm"))
    monkeypatch.setattr(
        homotopy, "packed_trace_norm",
        counting(homotopy.packed_trace_norm, "trace norm", lambda x: x[0].size),
    )
    for module in (homotopy, states):
        positivity = counting(module.min_eigenvalues, "positivity")
        monkeypatch.setattr(module, "min_eigenvalues", positivity)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    sheet = contract_loop(loop)
    assert verify_homotopy(sheet, loop, 5 * loop.max_step).passed
    matrices, lapack = counts["trace norm"]
    assert 0 < lapack <= 0.01 * matrices
    assert counts["positivity"][0] > np.prod(sheet.shape)
    assert counts["positivity"][1] == 0


def _eigvalsh_trace_norm(m):
    """The trace norm of exactly Hermitian matrices as sum |eigvalsh|, one
    LAPACK call per matrix: the oracle of the closed form."""
    m = np.asarray(m)
    assert np.array_equal(m, m.conj().swapaxes(-1, -2))
    norms = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _eigvalsh_packed_trace_norm(x):
    """The same oracle for a packed stack (see linalg.pack_hermitian)."""
    return _eigvalsh_trace_norm(linalg.unpack_hermitian(x))


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "seed7"])
def test_contraction_matches_the_eigvalsh_oracle(name, monkeypatch):
    loop, sheet = _contracted(name)
    report = verify_homotopy(sheet, loop, 5 * loop.max_step)
    monkeypatch.setattr(homotopy, "trace_norm", _eigvalsh_trace_norm)
    monkeypatch.setattr(homotopy, "packed_trace_norm", _eigvalsh_packed_trace_norm)
    oracle = contract_loop(loop)
    oracle_report = verify_homotopy(oracle, loop, 5 * loop.max_step)
    assert oracle.shape == sheet.shape
    assert len(oracle.levels) == len(sheet.levels)
    for (ops, s, rhos), (want_ops, want_s) in zip(_stage_inputs(sheet), _stage_recipes(oracle)):
        assert np.array_equal(ops, want_ops)
        # s is set by rounding in columns that barely move (see
        # test_pencil_s_tables_match_the_direct_form)
        _, lengths = _direct_s_table(ops, rhos, len(s))
        assert np.max(np.abs(s - want_s)[:, lengths >= 1e-3], initial=0.0) < 1e-12
    assert np.max(np.abs(cells(oracle) - cells(sheet))) < 1e-14
    assert oracle_report.passed == report.passed
    assert oracle_report.safety_at == report.safety_at


def _matrix_s_table(r, n_rows, fine_mult=6):
    """The arc-length s table of _interp_rows with its pre-pass on complex
    matrices, all columns at once: the states (R0 + s R1 + s² R2) /
    (c0 + s c1 + s² c2) evaluated on real and imaginary parts alike, their
    steps measured by trace_norm."""
    f_count = max(n_rows * fine_mult, 48)
    s_fine = np.linspace(0.0, 1.0, f_count + 1)
    s = s_fine[:, None, None]
    fractions = np.arange(1, n_rows + 1) / n_rows
    traces = np.trace(r, axis1=-2, axis2=-1).real
    p0, p1, p2 = r.view(np.float64)[:, :, None]
    c0, c1, c2 = traces[:, :, None]
    norm = c0 + s_fine * (c1 + s_fine * c2)
    rho_s = ((p0 + s * (p1 + s * p2)) / norm[..., None, None]).view(np.complex128)
    steps = linalg.trace_norm(rho_s[:, 1:] - rho_s[:, :-1])
    arcs = np.concatenate([np.zeros((len(steps), 1)), np.cumsum(steps, axis=1)], axis=1)
    table = np.empty((n_rows, r.shape[1]))
    for t, arc in enumerate(arcs):
        moving = arc[-1] >= 1e-13
        table[:, t] = np.interp(fractions * arc[-1], arc, s_fine) if moving else fractions
    table[-1] = 1.0
    return table


@pytest.mark.parametrize("name", ["pure", "plateau", "seed2", "seed7", "n4"])
def test_packed_prepass_matches_the_matrix_prepass(name):
    # every stage of each contraction: 2x2 blocks (the pure loop, and the
    # last level of the others), 3x3 blocks (the closed form's other size)
    # and 4x4 blocks (eigvalsh on the unpacked steps). The oracle takes all
    # columns at once, so the tables do not depend on the pre-pass's chunks.
    _, sheet = _contracted(name)
    blocks = set()
    for ops, s, rhos in _stage_inputs(sheet):
        r = pencil(ops, rhos)
        rows = len(s)
        assert np.array_equal(homotopy._interp_rows(r, rows), _matrix_s_table(r, rows))
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
    report = verify_homotopy(forged, loop, 5 * loop.max_step)

    def eigvalsh_scan(h, tol):
        return np.linalg.eigvalsh(h).min(axis=-1)

    monkeypatch.setattr(homotopy, "min_eigenvalues", eigvalsh_scan)
    oracle = verify_homotopy(forged, loop, 5 * loop.max_step)
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


def test_purity_preserved_along_pure_columns():
    arr = cells(contract_loop(bundled_pure_loop(320)))
    # every input sample is pure, so every cell above it stays pure
    purities = np.einsum("stij,stji->st", arr, arr).real
    assert purities.min() > 1 - 1e-9


def test_compression_pushforward_matches_block_action():
    # acting with (1 - P) + embedded block operator on a P-supported state
    # agrees with the block action on block observables
    rng = np.random.default_rng(55)

    def act(a, rho):  # the stage row of s A + (1 - s) 1 at s = 1
        return homotopy._stage_rows(pencil(a, rho)[:, None], np.ones((1, 1)))[0, 0]

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
