from fractions import Fraction

import numpy as np
import pytest

from phaselab.homotopy import _stage_rows, pencil
from phaselab.linalg import POSITIVITY_MARGIN, eye, operator_norm, pack_hermitian, trace_norm, unpack_hermitian
from phaselab.states import (
    STATE_EIG_TOL,
    STATE_HERM_TOL,
    STATE_TRACE_TOL,
    DensityState,
    basis_state,
    gns,
    maximally_mixed,
    state_from_vector,
    validate_densities,
)
from exact_minors import exactly_above

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def act(a, rho):
    """The action (A . omega)(B) = omega(A* B A) / omega(A* A) on a density,
    as a contraction stage realizes it: the row of s A + (1 - s) 1 at s = 1,
    evaluated from its pencil (homotopy._stage_rows) and unpacked."""
    return unpack_hermitian(_stage_rows(*pencil(a[None], pack_hermitian(rho[None])), np.ones((1, 1))))[0, 0]


def random_state(rng, n, rank=None):
    rank = rank or n
    m = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = m @ m.conj().T
    return DensityState(rho / np.trace(rho).real)


def test_state_from_vector():
    assert np.allclose(state_from_vector(E0).rho, np.diag([1, 0]))
    assert np.allclose(state_from_vector((E0 + E1) / np.sqrt(2)).rho, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        state_from_vector(np.zeros(3))
    rng = np.random.default_rng(0)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    pure = state_from_vector(v).rho
    assert np.trace(pure @ pure).real >= 1 - 1e-9


def test_density_state_validation():
    with pytest.raises(ValueError):
        DensityState(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityState(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityState(np.diag([0.7, 0.7]).astype(complex))  # trace != 1


def test_state_distance():
    a = basis_state(2)
    assert trace_norm(a.rho - a.rho) == 0.0
    assert abs(trace_norm(basis_state(2, 0).rho - basis_state(2, 1).rho) - 2.0) < 1e-12
    # |<psi, omega>| = 1/sqrt(2) gives distance sqrt(2)
    b = state_from_vector((E0 + E1) / np.sqrt(2))
    assert abs(trace_norm(a.rho - b.rho) - np.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        trace_norm(a.rho - maximally_mixed(3).rho)


def test_state_distance_is_dual_norm():
    # sup over the Hermitian unit ball, achieved at the sign of the difference
    rng = np.random.default_rng(4)
    a, b = random_state(rng, 4), random_state(rng, 4)
    diff = a.rho - b.rho
    dist = trace_norm(a.rho - b.rho)
    for _ in range(50):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        h = h / operator_norm(h)
        assert abs(np.trace(diff @ h).real) <= dist + 1e-10
    evals, vecs = np.linalg.eigh(diff)
    sign = vecs @ np.diag(np.sign(evals)) @ vecs.conj().T
    assert abs(np.trace(diff @ sign).real - dist) < 1e-10


def test_act_basics():
    rng = np.random.default_rng(9)
    s = random_state(rng, 3)
    assert trace_norm(act(eye(3), s.rho) - s.rho) < 1e-12
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    pure = state_from_vector(v)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    assert trace_norm(act(q, pure.rho) - state_from_vector(q @ v).rho) < 1e-12
    # projector onto e0 acting on the maximally mixed state
    p = np.diag([1.0, 0.0]).astype(complex)
    out = act(p, maximally_mixed(2).rho)
    assert np.allclose(out, np.diag([1, 0]))
    out = act(q, pure.rho)
    assert np.trace(out @ out).real >= 1 - 1e-9


def test_act_gelfand_ideal_error():
    # the projector onto e1 annihilates e0: the normalizer is 0, so the
    # cell is non-finite, for the verifier to flag
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert not np.isfinite(act(p1, basis_state(2, 0).rho)).any()


def test_act_composition():
    rng = np.random.default_rng(12)
    s = random_state(rng, 3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert trace_norm(act(a, act(b, s.rho)) - act(a @ b, s.rho)) < 1e-10


def test_act_invariance_when_expectation_saturates_norm():
    # A = phase * spectral projector construction: |omega(A)| = ||A|| forces A.omega = omega
    rng = np.random.default_rng(15)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = state_from_vector(v)
    vv = s.rho @ v / np.linalg.norm(s.rho @ v)
    a = np.exp(0.9j) * np.outer(vv, vv.conj()) * 2.5
    assert abs(abs(s.expect(a)) - operator_norm(a)) < 1e-10
    assert trace_norm(act(a, s.rho) - s.rho) < 1e-10


def test_act_linear_combination_invariance():
    rng = np.random.default_rng(18)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    s = state_from_vector(v)
    # two operators with the same action on s: both send v into C*w
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    u -= np.vdot(v, u) * v  # u v* kills v
    a = np.outer(w, v.conj()) + np.outer(u, u.conj()) @ (eye(3) - np.outer(v, v.conj()))
    b = np.exp(1.1j) * 2.0 * np.outer(w, v.conj())
    assert trace_norm(act(a, s.rho) - act(b, s.rho)) < 1e-12
    for _ in range(5):
        al, be = rng.normal(size=2)
        comb = al * a + be * b
        if np.trace(comb @ s.rho @ comb.conj().T).real > 1e-10:
            assert trace_norm(act(comb, s.rho) - act(a, s.rho)) < 1e-10


def test_gns_pure_state():
    res = gns(basis_state(2))
    assert res.dim == 2
    assert res.ideal_rank == 2
    # the ideal is {A : A e0 = 0}: null-space oracle
    for m in res.ideal_basis:
        assert np.linalg.norm(m @ E0) < 1e-10


def test_gns_maximally_mixed():
    res = gns(maximally_mixed(2))
    assert res.dim == 4
    assert res.ideal_rank == 0


def test_gns_reproduces_expectations():
    rng = np.random.default_rng(23)
    for omega in (state_from_vector(rng.normal(size=3) + 1j * rng.normal(size=3)),
                  random_state(rng, 3)):
        res = gns(omega)
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            got = np.vdot(res.cyclic, res.rep(a) @ res.cyclic)
            assert abs(got - omega.expect(a)) < 1e-9


def test_gns_rep_is_star_homomorphism():
    rng = np.random.default_rng(29)
    res = gns(random_state(rng, 4, rank=2))
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert operator_norm(res.rep(a @ b) - res.rep(a) @ res.rep(b)) < 1e-9
        assert operator_norm(res.rep(a.conj().T) - res.rep(a).conj().T) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_gns_rep_is_kron_per_matrix(n):
    rng = np.random.default_rng(n)
    pure = state_from_vector(rng.normal(size=n) + 1j * rng.normal(size=n))
    for omega in (pure, maximally_mixed(n)):
        res = gns(omega)
        unit = np.zeros((n, n))
        unit[0, 0] = 1.0
        r = res.dim // n
        block = res.rep(unit)[:r, :r]  # kron(e_00, C† rho^T C) holds the block as is
        a = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
        stacked = res.rep(a)
        assert stacked.shape == (2, 3, res.dim, res.dim)
        for i, k in np.ndindex(2, 3):
            assert np.array_equal(stacked[i, k], np.kron(a[i, k], block))
            assert np.array_equal(res.rep(a[i, k]), np.kron(a[i, k], block))
        with pytest.raises(ValueError, match="rep expects"):
            res.rep(a[..., :-1])


def test_gns_pure_dim_ideal_split():
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = gns(state_from_vector(v))
        assert res.dim == n
        assert res.ideal_rank == n * (n - 1)
        assert res.dim + res.ideal_rank == n * n


def test_transition_probability_identity():
    # |<Psi, Omega>|^2 = 1 - ||psi - omega||^2 / 4 on random pairs
    rng = np.random.default_rng(40)
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        om = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        om /= np.linalg.norm(om)
        p2 = abs(np.vdot(psi, om)) ** 2
        dist = trace_norm(np.outer(psi, psi.conj()) - np.outer(om, om.conj()))
        assert abs(p2 - (1 - dist**2 / 4)) < 1e-10


def test_gns_basis_is_deterministic():
    rng = np.random.default_rng(61)
    omega = random_state(rng, 3, rank=2)
    r1, r2 = gns(omega), gns(omega)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert r1.basis_coords.shape == (3, 2)  # the n x r block C
    assert np.array_equal(r1.basis_coords, r2.basis_coords)
    assert np.array_equal(r1.rep(a), r2.rep(a))


def dense_gns(rho):
    """The GNS data over all n^2 matrix units: Gram form kron(1, rho^T),
    Gram-Schmidt over the units in row-major order, and
    pi(A) = coords† G (A (x) 1) coords."""
    n = rho.shape[0]
    gram = np.kron(eye(n), rho.T)
    evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    cut = 1e-9 * evals.max()
    basis = []
    for unit in eye(n * n):
        v = unit
        for b in basis:
            v = v - (b.conj() @ (gram @ v)) * b
        nrm2 = (v.conj() @ (gram @ v)).real
        if nrm2 > cut:
            basis.append(v / np.sqrt(nrm2))
    coords = np.column_stack(basis)

    def rep(a):
        return coords.conj().T @ gram @ np.kron(a, eye(n)) @ coords

    cyclic = coords.conj().T @ gram @ eye(n).reshape(-1)
    return len(basis), int(np.sum(evals <= cut)), rep, cyclic


def test_gns_block_matches_dense_construction():
    rng = np.random.default_rng(67)
    for n in range(2, 6):
        for rank in range(1, n + 1):
            omega = random_state(rng, n, rank=rank)
            res = gns(omega)
            dim, ideal_rank, rep, cyclic = dense_gns(omega.rho)
            assert (res.dim, res.ideal_rank) == (dim, ideal_rank) == (n * rank, n * (n - rank))
            assert np.max(np.abs(res.cyclic - cyclic)) < 1e-12
            for _ in range(3):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                assert np.max(np.abs(res.rep(a) - rep(a))) < 1e-12
            # every ideal element m has omega(m† m) = 0
            for m in res.ideal_basis:
                assert abs(omega.expect(m.conj().T @ m)) < 1e-12


def test_validate_densities_reports_first_bad_cell():
    rng = np.random.default_rng(8)
    cells = np.array([[random_state(rng, 3).rho for _ in range(4)] for _ in range(3)])
    # the Hermitian part it checked: these cells are Hermitian only to rounding
    assert np.array_equal(validate_densities(cells), (cells + cells.conj().swapaxes(-1, -2)) / 2)
    negative = np.diag([1.2, -0.1, -0.1]).astype(complex)
    off_trace = np.diag([0.5, 0.2, 0.2]).astype(complex)
    cells[1, 2] = negative
    cells[2, 0] = off_trace
    with pytest.raises(ValueError) as got:
        validate_densities(cells)
    with pytest.raises(ValueError) as want:
        DensityState(negative)
    assert str(got.value) == str(want.value)
    assert "negative eigenvalue" in str(got.value)
    with pytest.raises(ValueError, match="square"):
        validate_densities(np.zeros((2, 3, 4)))


def test_validate_densities_rejects_non_finite_entries():
    for value in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            validate_densities(np.full((2, 2, 2), value))
        with pytest.raises(ValueError, match="non-finite"):
            DensityState(np.full((2, 2), value))
    cells = np.array([basis_state(2).rho] * 3)
    cells[0] = np.diag([0.5, 0.2])  # an earlier cell failing only the trace check
    cells[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="trace"):
        validate_densities(cells)
    with pytest.raises(ValueError, match="non-finite"):
        validate_densities(cells[1:])


NEGATIVE = "density matrix has negative eigenvalue "
MESSAGES = {"non-finite": "density matrix has non-finite entries",
            "not Hermitian": "density matrix is not Hermitian within tolerance",
            "trace": "density matrix trace "}


def _exact_verdict(cell):
    """The check a 2x2 or 3x3 matrix fails, decided apart from eigvalsh, as
    (verdict, h, band): finiteness and Hermiticity as validate_densities
    states them; positivity from the exact principal minors of the packed
    Hermitian part h (exact_minors.exactly_above), "negative" where the
    exact λmin is under -STATE_EIG_TOL by more than eigvalsh's error band,
    POSITIVITY_MARGIN (Σ|h_ii| + n STATE_EIG_TOL), and "near" within it;
    then the trace, in rational arithmetic. None passes every check."""
    n = len(cell)
    if not np.isfinite(cell).all():
        return "non-finite", None, None
    if np.linalg.norm(cell - cell.conj().T) > STATE_HERM_TOL * max(np.linalg.norm(cell), 1.0):
        return "not Hermitian", None, None
    h = pack_hermitian((cell + cell.conj().T) / 2)
    band = POSITIVITY_MARGIN * (np.abs(h[:n]).sum() + n * STATE_EIG_TOL)
    if not exactly_above(h, STATE_EIG_TOL + band):
        return "negative", h, band
    if not exactly_above(h, STATE_EIG_TOL - band):
        return "near", h, band
    off_trace = abs(sum(map(Fraction, cell.diagonal().real.tolist())) - 1) > Fraction(STATE_TRACE_TOL)
    return ("trace" if off_trace else None), h, band


def _agrees(message, cells):
    """Whether validate_densities' `message` on the stack `cells` is the one
    their exact verdicts (_exact_verdict) call for: the first failing
    cell's in C order, or None. A negative cell's message values its λmin
    to its four digits and the band. A "near" cell may be flagged or
    passed: a negative-eigenvalue message valued within the band of
    -STATE_EIG_TOL is its flag, and any other message is a later cell's."""
    for index in np.ndindex(cells.shape[:-2]):
        verdict, h, band = _exact_verdict(cells[index])
        value = float(message[len(NEGATIVE):]) if message and message.startswith(NEGATIVE) else None
        if verdict == "near" and value is not None and abs(value + STATE_EIG_TOL) <= 5e-4 * STATE_EIG_TOL + band:
            return True
        if verdict == "negative":
            if value is None:
                return False
            slack = 5e-4 * abs(value) + band  # the message's four digits, and eigvalsh's error
            return exactly_above(h, slack - value) and not exactly_above(h, -value - slack)
        if verdict in MESSAGES:
            return message is not None and message.startswith(MESSAGES[verdict])
    return message is None


def _message(validate, cells):
    try:
        validate(cells)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", [2, 3])
def test_validate_densities_matches_the_eigvalsh_check(n):
    # a stack of states, with cells that fail by a margin, fail or pass
    # 0.2% either side of the tolerance or within ulps of it, and fail an
    # earlier or later check: each message is the one the exact verdicts
    # call for (_agrees). Exact rational minors decide every cell outside
    # eigvalsh's error band around the tolerance; the three cells within
    # ulps of it may take either verdict, with a value in the band
    rng = np.random.default_rng(30 + n)
    cells = np.array(
        [[random_state(rng, n, rank=1 + (r + t) % n).rho for t in range(16)] for r in range(3)]
    )
    assert _message(validate_densities, cells) is None and _agrees(None, cells)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    def with_min(low):
        evals = np.zeros(n)
        evals[0], evals[1] = low, 1.0 - low
        m = (q * evals) @ q.conj().T
        return (m + m.conj().T) / 2

    bad = [
        ((2, 13), with_min(-STATE_EIG_TOL * (1.0 - 2e-3))),
        ((2, 9), with_min(-2e-10)),
        ((2, 5), with_min(-STATE_EIG_TOL * (1.0 + 2e-3))),
        ((2, 3), with_min(-STATE_EIG_TOL - 3 * np.spacing(STATE_EIG_TOL))),
        ((1, 15), with_min(-STATE_EIG_TOL + 3 * np.spacing(STATE_EIG_TOL))),
        ((1, 11), with_min(-STATE_EIG_TOL)),
        ((1, 6), np.diag([0.5] + [0.2] * (n - 1)).astype(complex)),
        ((0, 12), np.diag([1.0 + 1e-3, -1e-3] + [0.0] * (n - 2)).astype(complex)),
    ]
    assert [_exact_verdict(cell)[0] for _, cell in bad] == [None, "negative", "negative", "near", "near", "near",
                                                             "trace", "negative"]
    for index, cell in bad:
        cells[index] = cell
    messages = []
    for index, _ in reversed(bad):
        got = _message(validate_densities, cells)
        assert _agrees(got, cells)
        messages.append(got)
        cells[index] = basis_state(n).rho
    assert "negative eigenvalue -1.000e-03" in messages[0]
    assert _message(validate_densities, cells) is None


def test_act_batch_matches_single_calls():
    # a stage of 5 columns and 4 rows: every cell is the stage row of its
    # own column at its own s, bit for bit, and the direct product
    rng = np.random.default_rng(9)
    rhos = np.array([random_state(rng, 3, rank=2).rho for _ in range(5)])
    ops = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    s = np.concatenate([rng.uniform(size=(3, 5)), np.ones((1, 5))])
    out = unpack_hermitian(_stage_rows(*pencil(ops, pack_hermitian(rhos)), s))
    for k in range(4):
        for t in range(5):
            single = unpack_hermitian(_stage_rows(*pencil(ops[t:t + 1], pack_hermitian(rhos[t:t + 1])), s[k:k + 1, t:t + 1]))
            assert np.array_equal(out[k, t], single[0, 0])
            b = s[k, t] * ops[t] + (1.0 - s[k, t]) * eye(3)
            direct = b @ rhos[t] @ b.conj().T
            assert np.max(np.abs(out[k, t] - direct / np.trace(direct).real)) < 1e-12
    # the projector onto e1 annihilates the basepoint: its column of the
    # batch is non-finite, and the identity's column is the basepoint
    p1 = np.diag([0.0, 1.0]).astype(complex)
    base = pack_hermitian(basis_state(2).rho)
    (row,) = unpack_hermitian(_stage_rows(*pencil(np.array([np.eye(2), p1]), base), np.ones((1, 2))))
    assert np.array_equal(row[0], basis_state(2).rho)
    assert not np.isfinite(row[1]).any()
