import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselab import serialize
from phaselab.homotopy import (
    SAFETY_FLOOR,
    HomotopySheet,
    StateLoop,
    bundled_plateau_loop,
    bundled_pure_loop,
    constant_loop,
    contract_loop,
    disk_phase_lift,
    interpolation_safe,
    projection_matrix,
    random_based_loop,
    rectify_to_projection,
    verify_homotopy,
)
from phaselab.states import DensityState, basis_state, state_from_vector


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
    assert loop.as_array() is loop.as_array()
    assert loop.as_array().shape == (17, 2, 2) and loop.n_samples == 17
    rhos = loop.as_array().copy()
    rhos[9] = np.diag([1.5, -0.5])
    rhos[5] = np.diag([0.7, 0.0])  # the first failing sample: its trace
    with pytest.raises(ValueError) as want:
        DensityState(rhos[5])
    doc = {"n": 2, "samples": serialize.encode_matrix(rhos)}
    for build in (lambda: StateLoop(2, rhos), lambda: serialize.loop_from_doc(doc)):
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="states on M_n"):
        StateLoop(3, loop.as_array())


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


def test_interpolation_safe():
    base = basis_state(2)
    rep = interpolation_safe(projection_matrix(2, 1), base, "projection")
    assert rep.safe and abs(rep.min_value - 1.0) < 1e-12
    rep = interpolation_safe(-np.eye(2, dtype=complex), base, "unitary")
    assert not rep.safe and rep.s_at_min == 0.5
    # omega(U) = 0: safe with min s^2 + (1-s)^2 = 1/2 at s = 1/2
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    rep = interpolation_safe(sx, base, "unitary")
    assert rep.safe
    assert abs(rep.min_value - 0.5) < 1e-12 and rep.s_at_min == 0.5
    with pytest.raises(ValueError):
        interpolation_safe(np.diag([1.0, 2.0]).astype(complex), base, "unitary")


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
def test_interpolation_safe_is_the_exact_minimum(n, kind, seed, angle, weight):
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

    rep = interpolation_safe(a, omega, kind)
    assert 0.0 <= rep.s_at_min <= 1.0
    assert rep.safe == (rep.min_value > SAFETY_FLOOR)
    assert rep.min_value <= min(value(s) for s in np.linspace(0.0, 1.0, 1001)) + 1e-12
    assert abs(rep.min_value - value(rep.s_at_min)) < 1e-12


def test_rectify_constant_loop_is_constant():
    loop = constant_loop(3, 16)
    res = rectify_to_projection(loop)
    base = basis_state(3)
    for row in res.sheet.as_array():
        for rho in row:
            assert np.max(np.abs(rho - base.rho)) < 1e-12


def test_rectify_pure_loop():
    loop = bundled_pure_loop(320)
    res = rectify_to_projection(loop)
    p = projection_matrix(2, 1)
    for s in map(DensityState, res.out_loop.as_array()):
        assert abs(s.expect(p).real - 1) < 1e-8
    # for n = 2, full weight on P^2_1 pins the state to the basepoint
    base = basis_state(2)
    for s in map(DensityState, res.out_loop.as_array()):
        assert np.max(np.abs(s.rho - base.rho)) < 1e-8


def test_rectify_plateau_loop_kills_last_row():
    loop = bundled_plateau_loop()
    res = rectify_to_projection(loop)
    p = projection_matrix(3, 1)
    for s in map(DensityState, res.out_loop.as_array()):
        assert abs(s.expect(p).real - 1) < 1e-8
        assert s.rho[2, 2].real < 1e-8


def test_rectify_rejects_coarse_loops():
    v0 = np.array([1, 0], dtype=complex)
    v1 = np.array([np.cos(0.5), np.sin(0.5)], dtype=complex)
    samples = [state_from_vector(v0), state_from_vector(v1), state_from_vector(v0)]
    loop = StateLoop(2, np.array([s.rho for s in samples]))
    with pytest.raises(ValueError):
        rectify_to_projection(loop)


def test_sheet_boundary_exactness():
    loop = bundled_pure_loop(320)
    res = rectify_to_projection(loop)
    base = basis_state(2)
    arr = res.sheet.as_array()
    for row in arr:
        assert np.max(np.abs(row[0] - base.rho)) < 1e-10
        assert np.max(np.abs(row[-1] - base.rho)) < 1e-10
    assert all(m["identity_at_s0"] for m in res.sheet.meta)


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
    for rho in sheet.as_array()[-1]:
        assert np.max(np.abs(rho - base.rho)) < 1e-10


def test_contract_loop_unitary_gate():
    # on seed 1 the level-2 eigenvector transport fails the unitarity check
    with pytest.raises(ValueError, match="^not a unitary$"):
        contract_loop(random_based_loop(3, 1, 700))


def test_contract_constant_loop_trivial_sheet():
    loop = constant_loop(2, 12)
    sheet = contract_loop(loop)
    base = basis_state(2)
    for row in sheet.as_array():
        for rho in row:
            assert np.max(np.abs(rho - base.rho)) < 1e-12
    report = verify_homotopy(sheet, loop, modulus=1e-9)
    assert report.passed


def test_verifier_flags_corrupted_cell():
    loop = constant_loop(2, 10)
    sheet = contract_loop(loop)
    cells = sheet.as_array().copy()
    cells[2, 4] = basis_state(2, 1).rho
    bad = HomotopySheet(2, cells, sheet.meta)
    report = verify_homotopy(bad, loop, modulus=1e-6)
    assert not report.passed
    kinds = {v[0] for v in report.violations}
    assert "step-modulus" in kinds
    cells = {v[1] for v in report.violations if v[0] == "step-modulus"}
    assert any(cell in {(2, 3), (2, 4), (1, 4)} for cell in cells)


def test_loop_and_sheet_serialization_roundtrip():
    loop = constant_loop(2, 6)
    doc = serialize.loop_to_doc(loop)
    back = serialize.loop_from_doc(doc)
    assert back.n == loop.n and back.n_samples == loop.n_samples
    sheet = contract_loop(loop)
    sdoc = serialize.sheet_to_doc(sheet)
    back_sheet = serialize.sheet_from_doc(sdoc)
    assert back_sheet.shape == sheet.shape
    a1, a2 = sheet.as_array(), back_sheet.as_array()
    assert np.max(np.abs(a1 - a2)) < 1e-15


def test_sheet_from_doc_validates_every_cell():
    doc = serialize.sheet_to_doc(contract_loop(constant_loop(2, 6)))
    last = doc["rows"][-1][-1]
    last[0][0] = [0.7, 0.0]  # trace now 0.7
    with pytest.raises(ValueError) as got:
        serialize.sheet_from_doc(doc)
    with pytest.raises(ValueError) as want:
        DensityState(serialize.decode_matrix(last))
    assert str(got.value) == str(want.value)
    doc["rows"][0][0] = [[1.0, 0.0]]  # ragged
    with pytest.raises(ValueError):
        serialize.sheet_from_doc(doc)


def test_sheet_from_doc_rejects_a_nan_cell():
    doc = serialize.sheet_to_doc(contract_loop(constant_loop(2, 6)))
    doc["rows"][1][2][0][1] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        serialize.sheet_from_doc(doc)


def test_verifier_reports_non_finite_cells():
    loop = constant_loop(2, 10)
    cells = contract_loop(loop).as_array().copy()
    last = cells.shape[0] - 1
    cells[0, 3, 1, 1] = np.nan
    cells[1, 0] = np.inf
    cells[2, 4, 0, 1] = np.nan
    cells[last, 5, 0, 0] = -np.inf
    report = verify_homotopy(HomotopySheet(2, cells, []), loop, modulus=1e-6)
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


def _assert_writes(sheet, path):
    """write_sheet's bytes against the document model's. A mismatch names
    the first differing offset: pytest's own diff of megabyte-long lines
    would not finish."""
    serialize.write_sheet(str(path), sheet)
    got = path.read_text(encoding="utf-8")
    want = serialize.dumps(serialize.sheet_to_doc(sheet)) + "\n"
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), len(want))
        pytest.fail(f"sheet bytes differ at {at}: {got[at:at + 60]!r} != {want[at:at + 60]!r}")


def test_write_sheet_matches_dumps(pure_sheet, tmp_path):
    _assert_writes(pure_sheet, tmp_path / "pure.json")
    rng = np.random.default_rng(11)
    for shape in [(1, 1, 1, 1), (3, 5, 2, 2), (2, 4, 3, 3)]:
        cells = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape) + 1j * (
            rng.normal(size=shape)
        )
        flat = cells.reshape(-1)
        flat[0] = complex(-0.0, 5e-324)
        flat[-1] = complex(1.7976931348623157e308, -0.0)
        sheet = HomotopySheet(shape[-1], cells, [{"stage": "s", "rows": 2, "level": 1}])
        _assert_writes(sheet, tmp_path / "random.json")


def test_written_sheet_reads_back_bitwise(pure_sheet, tmp_path):
    path = tmp_path / "sheet.json"
    serialize.write_sheet(str(path), pure_sheet)
    back = serialize.sheet_from_doc(serialize.read_doc(str(path)))
    assert back.n == pure_sheet.n and back.meta == pure_sheet.meta
    assert np.array_equal(back.as_array(), pure_sheet.as_array())


def test_write_sheet_rejects_non_finite_before_writing(tmp_path):
    cells = contract_loop(constant_loop(2, 6)).as_array().copy()
    cells[-1, 3, 1, 1] = np.nan
    path = tmp_path / "sheet.json"
    with pytest.raises(ValueError, match="non-finite"):
        serialize.write_sheet(str(path), HomotopySheet(2, cells, []))
    assert not path.exists()


def test_contract_loop_takes_no_svd(monkeypatch):
    loop = bundled_pure_loop(320)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    sheet = contract_loop(loop)
    assert verify_homotopy(sheet, loop, 5 * loop.max_step).passed
    assert calls == []  # every trace norm took the Hermitian path


def test_loop_from_doc_rejects_garbage():
    with pytest.raises(ValueError):
        serialize.loop_from_doc({"n": 2})
    with pytest.raises(ValueError):
        serialize.loop_from_doc({"n": 2, "samples": [[[1.0]]]})


def test_purity_preserved_along_pure_columns():
    loop = bundled_pure_loop(320)
    res = rectify_to_projection(loop)
    arr = res.sheet.as_array()
    # every input sample is pure, so every cell above it stays pure
    purities = np.einsum("stij,stji->st", arr, arr).real
    assert purities.min() > 1 - 1e-9


def test_compression_pushforward_matches_block_action():
    # acting with (1 - P) + embedded block operator on a P-supported state
    # agrees with the block action on block observables
    rng = np.random.default_rng(55)
    from phaselab.states import DensityState, act

    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_block = block @ block.conj().T
    rho = np.zeros((3, 3), dtype=complex)
    rho[:2, :2] = rho_block / np.trace(rho_block).real
    psi = DensityState(rho)
    a_block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p = projection_matrix(3, 1)
    pushed = np.eye(3, dtype=complex) - p
    pushed[:2, :2] += a_block
    out_full = act(pushed, psi)
    out_block = act(a_block, DensityState(rho[:2, :2] / np.trace(rho[:2, :2]).real))
    for _ in range(10):
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b_emb = np.zeros((3, 3), dtype=complex)
        b_emb[:2, :2] = b
        assert abs(out_full.expect(b_emb) - out_block.expect(b)) < 1e-9
