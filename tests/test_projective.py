import numpy as np
import pytest

from phaselab.linalg import eye, operator_norm, trace_norm
from phaselab.projective import elementary_transport, ray_distances, ray_product

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


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


def test_elementary_transport():
    assert np.allclose(elementary_transport(E0, E0), eye(2))
    u = elementary_transport(E0, E1)
    assert np.linalg.norm(u @ E0 - E1) < 1e-12
    assert abs(operator_norm(eye(2) - u) - np.sqrt(2)) < 1e-10


def test_elementary_transport_spectrum():
    rng = np.random.default_rng(21)
    x, y = unit(rng, 4), unit(rng, 4)
    u = elementary_transport(x, y)
    assert operator_norm(u @ u.conj().T - eye(4)) < 1e-9
    assert abs(operator_norm(eye(4) - u) - np.linalg.norm(x - y)) < 1e-10
    c = np.vdot(x, y).real
    lam_pm = c + 1j * np.sqrt(1 - c * c), c - 1j * np.sqrt(1 - c * c)
    evals = np.linalg.eigvals(u)
    for ev in evals:
        assert min(abs(ev - lam_pm[0]), abs(ev - lam_pm[1]), abs(ev - 1)) < 1e-9


def test_transports_on_the_second_vector():
    # the transport sends the target to 2 Re<x, y> y - x on the span
    rng = np.random.default_rng(51)
    for _ in range(10):
        x, y = unit(rng, 4), unit(rng, 4)
        target = 2 * np.vdot(x, y).real * y - x
        assert np.linalg.norm(elementary_transport(x, y) @ y - target) < 1e-10
