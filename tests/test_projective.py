import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselab import homotopy
from phaselab.homotopy import bundled_pure_loop, contract_loop, verify_homotopy
from phaselab.linalg import eye, operator_norm, trace_norm
from phaselab.projective import ray_distances, ray_product, transport_to_e0

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_ray_product_examples():
    x = unit(np.random.default_rng(0), 5)
    assert abs(ray_product(x, x) - 1) < 1e-14
    assert ray_product(E0, E1) == 0
    assert abs(ray_product((E0 + E1) / np.sqrt(2), E0) - 1 / np.sqrt(2)) < 1e-14


def test_ray_equality_is_phase_insensitive():
    assert abs(1 - ray_product(E0, np.exp(0.7j) * E0)) < 1e-15
    assert abs(1 - ray_product(2 * E1, E1)) < 1e-15  # any nonzero representative
    with pytest.raises(ValueError):
        ray_product(np.zeros(3), np.ones(3))


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 40])
def test_stacked_rays_match_single_calls_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(3, 7, n)) + 1j * rng.normal(size=(3, 7, n))
    b = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))  # broadcast against a
    p, dist = ray_product(a, b), ray_distances(a, b)
    assert p.shape == dist.gap.shape == (3, 7)
    for i, k in np.ndindex(3, 7):
        assert p[i, k] == ray_product(a[i, k], b[k])
        assert tuple(x[i, k] for x in dist) == ray_distances(a[i, k], b[k])
    assert type(ray_product(a[0, 0], b[0])) is float
    assert all(type(x) is float for x in ray_distances(a[0, 0], b[0]))


def test_zero_row_anywhere_in_a_stack_raises():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    for k in range(4):
        zeroed = a.copy()
        zeroed[k] = 0.0
        for x, y in ((zeroed, a), (a, zeroed)):
            for f in (ray_product, ray_distances):
                with pytest.raises(ValueError, match="zero vector"):
                    f(x, y)


def test_distances_same_and_orthogonal():
    assert ray_distances(E0, E0) == (0, 0, 0)
    d = ray_distances(E0, E1)
    assert np.allclose(d, (np.sqrt(2), np.pi / 2, 1))


def test_gap_is_half_projector_trace_norm():
    rng = np.random.default_rng(3)
    # p = 1/sqrt(2) special case first
    a = E0
    b = (E0 + E1) / np.sqrt(2)
    d = ray_distances(a, b)
    assert abs(d.gap - 1 / np.sqrt(2)) < 1e-12
    for _ in range(50):
        x, y = unit(rng, 4), unit(rng, 4)
        px = np.outer(x, x.conj())
        py = np.outer(y, y.conj())
        assert abs(ray_distances(x, y).gap - 0.5 * trace_norm(px - py)) < 1e-9


def test_metric_sandwich():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = unit(rng, 3), unit(rng, 3)
        d = ray_distances(a, b)
        assert d.chord <= d.fubini_study + 1e-10
        assert d.fubini_study <= (np.pi * np.sqrt(2) / 4) * d.chord + 1e-10
        assert d.chord / np.sqrt(2) <= d.gap + 1e-10
        assert d.gap <= d.chord + 1e-10


def _defect(u):
    """max |U U† - 1| over a stack of matrices."""
    return np.abs(u @ u.conj().swapaxes(-1, -2) - eye(u.shape[-1])).max()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    alpha=st.floats(-np.pi, np.pi),
    head=st.sampled_from([1.0, 1e-8, 0.0]),
)
def test_transport_is_unitary_and_maps_x_to_e0(seed, n, alpha, head):
    # stacks of random vectors of norm 3 and phase alpha, with <e0, x>
    # scaled by head: tiny, or exactly 0
    x = unit(np.random.default_rng(seed), (5, n)) * np.exp(1j * alpha) * 3.0
    x[:, 0] *= head
    u = transport_to_e0(x)
    assert _defect(u) < 1e-14
    e0 = eye(n)[0]
    mapped = np.einsum("tij,tj->ti", u, x / np.linalg.norm(x, axis=-1, keepdims=True))
    assert np.abs(mapped - e0).max() < 1e-14
    for k in range(5):  # each row is the single call's
        assert np.array_equal(u[k], transport_to_e0(x[k]))


@pytest.mark.parametrize("alpha", [0.0, 0.5, -1.759, np.pi])
def test_transport_is_continuous_at_the_basepoint(alpha):
    # x = e^{iα}(e0 + δ e1)/‖·‖ tends to e^{iα} e0, where the transport
    # tends to 1 + (e^{-iα} - 1) e0 e0†: the step is O(δ), with no jump of
    # |e^{iα} - 1| as the span {x, e0} collapses
    limit = transport_to_e0(np.exp(1j * alpha) * E0)
    assert np.abs(limit - np.diag([np.exp(-1j * alpha), 1.0])).max() < 1e-15
    for delta in (1e-3, 1e-5, 1e-8, 1e-12, 0.0):
        u = transport_to_e0(np.exp(1j * alpha) * (E0 + delta * E1))
        assert operator_norm(u - limit) <= 1.01 * delta
    assert np.array_equal(transport_to_e0(E0), eye(2))


def test_transport_at_x0_zero_is_a_finite_unitary():
    # c = 1 where <e0, x> = 0 exactly: the transport is the quarter turn
    # of span{x, e0} that sends x to e0 and e0 to -x
    x = np.array([0.0, 0.6, 0.8j])
    u = transport_to_e0(x)
    assert np.isfinite(u).all() and _defect(u) < 1e-15
    assert np.abs(u @ x - eye(3)[0]).max() < 1e-15
    assert np.abs(u @ eye(3)[0] + x).max() < 1e-15
    with pytest.raises(ValueError, match="zero vector"):
        transport_to_e0(np.zeros((2, 3)))


def test_pure_loop_certifies_across_x0_zero():
    # the pure loop's continued top eigenvector is ±e1 up to rounding at
    # sample 200, where <e0, x> = 6e-17 changes sign: the transport jumps
    # by about 2 into sample 201, and its pure samples do not see it,
    # since U x x† U† = e0 e0† on either side. The loop certifies.
    loop = bundled_pure_loop()
    assert np.abs(np.linalg.eigh(loop.rhos[200])[1][0, -1]) < 1e-15
    u = homotopy._transport_unitaries(*homotopy._transport_vectors(loop.rhos))
    steps = operator_norm(u[1:] - u[:-1])
    assert np.flatnonzero(steps > 0.1).tolist() == [200] and abs(steps[200] - 2.0) < 0.1
    moved = u @ loop.rhos @ u.conj().swapaxes(-1, -2)
    assert np.abs(moved - np.diag([1.0, 0.0])).max() < 1e-14
    sheet = contract_loop(loop)
    assert verify_homotopy(sheet, loop, loop.modulus).passed
