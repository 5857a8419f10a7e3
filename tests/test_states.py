import numpy as np
import pytest

from phaselab.linalg import eye, operator_norm, trace_norm
from phaselab.states import (
    DensityState,
    GelfandIdealError,
    act_batch,
    basis_state,
    gns,
    maximally_mixed,
    state_from_vector,
    validate_densities,
)

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


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
    assert trace_norm(act_batch(eye(3), s.rho) - s.rho) < 1e-12
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    pure = state_from_vector(v)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    assert trace_norm(act_batch(q, pure.rho) - state_from_vector(q @ v).rho) < 1e-12
    # projector onto e0 acting on the maximally mixed state
    p = np.diag([1.0, 0.0]).astype(complex)
    out = act_batch(p, maximally_mixed(2).rho)
    assert np.allclose(out, np.diag([1, 0]))
    out = act_batch(q, pure.rho)
    assert np.trace(out @ out).real >= 1 - 1e-9


def test_act_gelfand_ideal_error():
    p1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(GelfandIdealError):
        act_batch(p1, basis_state(2, 0).rho)


def test_act_composition():
    rng = np.random.default_rng(12)
    s = random_state(rng, 3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert trace_norm(act_batch(a, act_batch(b, s.rho)) - act_batch(a @ b, s.rho)) < 1e-10


def test_act_invariance_when_expectation_saturates_norm():
    # A = phase * spectral projector construction: |omega(A)| = ||A|| forces A.omega = omega
    rng = np.random.default_rng(15)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = state_from_vector(v)
    vv = s.rho @ v / np.linalg.norm(s.rho @ v)
    a = np.exp(0.9j) * np.outer(vv, vv.conj()) * 2.5
    assert abs(abs(s.expect(a)) - operator_norm(a)) < 1e-10
    assert trace_norm(act_batch(a, s.rho) - s.rho) < 1e-10


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
    assert trace_norm(act_batch(a, s.rho) - act_batch(b, s.rho)) < 1e-12
    for _ in range(5):
        al, be = rng.normal(size=2)
        comb = al * a + be * b
        if np.trace(comb @ s.rho @ comb.conj().T).real > 1e-10:
            assert trace_norm(act_batch(comb, s.rho) - act_batch(a, s.rho)) < 1e-10


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
    assert np.array_equal(r1.basis_coords, r2.basis_coords)
    assert np.array_equal(r1.rep(a), r2.rep(a))


def test_validate_densities_reports_first_bad_cell():
    rng = np.random.default_rng(8)
    cells = np.array([[random_state(rng, 3).rho for _ in range(4)] for _ in range(3)])
    assert np.array_equal(validate_densities(cells), cells)
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


def test_act_batch_matches_single_calls():
    rng = np.random.default_rng(9)
    states = [random_state(rng, 3, rank=2) for _ in range(5)]
    ops = rng.normal(size=(2, 5, 3, 3)) + 1j * rng.normal(size=(2, 5, 3, 3))
    out = act_batch(ops, np.array([s.rho for s in states]))
    for j in range(2):
        for t, s in enumerate(states):
            assert np.array_equal(out[j, t], act_batch(ops[j, t], s.rho))
            direct = ops[j, t] @ s.rho @ ops[j, t].conj().T
            assert np.max(np.abs(out[j, t] - direct / np.trace(direct).real)) < 1e-12
    # the projector onto e1 annihilates the basepoint: the batch raises for it
    p1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(GelfandIdealError):
        act_batch(np.array([np.eye(2), p1]), basis_state(2).rho)
