import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselab import linalg
from phaselab.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ChainLayout,
    embed_site_operator,
    eig_hermitian,
    eye,
    hermitian_basis,
    kron,
    partial_trace,
    spin_chain,
    trace_norm,
)

RNG = np.random.default_rng(1234)


def random_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_kron_identities():
    assert np.array_equal(kron(eye(2), eye(2)), eye(4))
    assert np.array_equal(kron(SIGMA_Z, eye(2)), np.diag([1, 1, -1, -1]).astype(complex))


def test_kron_flips_both_spins():
    # direct 4x4 multiplication oracle: sx (x) sx maps |up up> to |down down>
    up_up = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(kron(SIGMA_X, SIGMA_X) @ up_up, [0, 0, 0, 1])


def test_kron_associativity_random():
    for _ in range(20):
        a, b, c = (random_complex((2, 2)) for _ in range(3))
        lhs = kron(kron(a, b), c)
        rhs = kron(a, kron(b, c))
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(np.max(np.abs(lhs)), 1)


def test_partial_trace_factorizes():
    for _ in range(10):
        a = random_complex((3, 3))
        b = random_complex((4, 4))
        t = kron(a, b)
        assert np.allclose(partial_trace(t, 3, 4, "left"), np.trace(b) * a)
        assert np.allclose(partial_trace(t, 3, 4, "right"), np.trace(a) * b)


def test_partial_trace_preserves_trace():
    t = random_complex((8, 8))
    for keep in ("left", "right"):
        assert abs(np.trace(partial_trace(t, 2, 4, keep)) - np.trace(t)) < 1e-12


def test_partial_trace_defining_property():
    # brute-force oracle over a Hermitian basis
    t = random_complex((4, 4))
    s = partial_trace(t, 2, 2, "left")
    for a in hermitian_basis(2):
        lhs = np.trace(s @ a)
        rhs = np.trace(t @ kron(a, eye(2)))
        assert abs(lhs - rhs) < 1e-12
    assert abs(np.trace(s @ SIGMA_X) - np.trace(t @ kron(SIGMA_X, eye(2)))) < 1e-12


def test_partial_trace_linear_and_positive():
    a, b = random_complex((8, 8)), random_complex((8, 8))
    al, be = 0.3 - 0.2j, 1.7
    lhs = partial_trace(al * a + be * b, 4, 2, "right")
    rhs = al * partial_trace(a, 4, 2, "right") + be * partial_trace(b, 4, 2, "right")
    assert np.allclose(lhs, rhs)
    m = random_complex((8, 8))
    psd = m @ m.conj().T
    for keep in ("left", "right"):
        evals = np.linalg.eigvalsh(partial_trace(psd, 2, 4, keep))
        assert evals.min() > -1e-10 * evals.max()


def test_partial_trace_rejects_bad_split():
    with pytest.raises(ValueError):
        partial_trace(np.zeros((6, 6)), 2, 4)


def test_embed_site_operator():
    layout = spin_chain(2)
    assert np.array_equal(embed_site_operator(SIGMA_Z, 0, layout), kron(SIGMA_Z, eye(2)))
    assert np.array_equal(embed_site_operator(eye(2), 1, layout), eye(4))
    with pytest.raises(ValueError):
        embed_site_operator(SIGMA_Z, 2, layout)
    with pytest.raises(ValueError):
        embed_site_operator(np.eye(3), 0, layout)


def test_embedded_operators_at_distinct_sites_commute():
    layout = spin_chain(3)
    a = embed_site_operator(SIGMA_X, 0, layout)
    b = embed_site_operator(SIGMA_Y, 1, layout)
    comm = a @ b - b @ a
    assert np.max(np.abs(comm)) <= 1e-14


def test_eig_hermitian_pauli():
    evals, _ = eig_hermitian(SIGMA_Z)
    assert np.allclose(evals, [-1, 1])


def test_eig_hermitian_bloch_spectrum():
    # sigma(H(r)) = {-1, 1} for any unit r
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        h = r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z
        evals, _ = eig_hermitian(h)
        assert np.allclose(evals, [-1, 1], atol=1e-12)


def test_eig_hermitian_heisenberg():
    h = sum(kron(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    evals, _ = eig_hermitian(h)
    assert np.allclose(evals, [-3, 1, 1, 1], atol=1e-12)


def test_eig_hermitian_reconstruction():
    h = random_complex((6, 6))
    h = h + h.conj().T
    evals, vecs = eig_hermitian(h)
    recon = vecs @ np.diag(evals) @ vecs.conj().T
    assert np.linalg.norm(recon - h) <= 1e-9 * np.linalg.norm(h)
    assert np.max(np.abs(vecs.conj().T @ vecs - eye(6))) < 1e-10


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_trace_norm():
    assert trace_norm(np.zeros((3, 3))) == 0.0
    v = random_complex(4)
    v /= np.linalg.norm(v)
    assert abs(trace_norm(np.outer(v, v.conj())) - 1.0) < 1e-12
    m = np.diag([1.0, -1.0]).astype(complex)  # |e0><e0| - |e1><e1|
    assert abs(trace_norm(m) - 2.0) < 1e-14


def test_trace_norm_of_a_stack():
    stack = RNG.normal(size=(2, 3, 4, 4)) + 1j * RNG.normal(size=(2, 3, 4, 4))
    norms = trace_norm(stack)
    assert norms.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert norms[i, j] == trace_norm(stack[i, j])
    with pytest.raises(ValueError):
        trace_norm(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        trace_norm(np.zeros(4))


@given(
    n=st.integers(1, 6),
    count=st.integers(1, 4),
    scale=st.floats(1e-12, 1e3),
    rank=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_norm_of_hermitian_stacks_matches_svd(n, count, scale, rank, seed):
    rng = np.random.default_rng(seed)
    vecs = np.linalg.qr(random_complex((count, n, n), rng))[0]
    evals = scale * rng.normal(size=(count, n))
    evals[:, min(rank, n):] = 0.0  # rank-deficient, or zero at rank 0
    m = (vecs * evals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    m = (m + m.conj().swapaxes(-1, -2)) / 2
    assert np.array_equal(m, m.conj().swapaxes(-1, -2))  # takes the eigvalsh path
    svd = np.sum(np.linalg.svd(m, compute_uv=False), axis=-1)
    bound = 1e-12 * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    assert np.all(np.abs(trace_norm(m) - svd) <= bound)


def test_trace_norm_of_a_mixed_stack_is_bitwise_per_matrix():
    herm = random_complex((5, 3, 3))
    herm = (herm + herm.conj().swapaxes(-1, -2)) / 2
    stack = np.concatenate([herm, random_complex((4, 3, 3))])[RNG.permutation(9)]
    stack[0] = 0.0
    norms = trace_norm(stack)
    for i, m in enumerate(stack):
        assert norms[i] == trace_norm(m)
    assert np.allclose(norms, np.linalg.svd(stack, compute_uv=False).sum(axis=-1), rtol=1e-12)
    assert trace_norm(herm[0]) == np.sum(np.abs(np.linalg.eigvalsh(herm[0])))


def _haar_unitaries(count, n, rng):
    q, r = np.linalg.qr(random_complex((count, n, n), rng))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


@given(
    n=st.sampled_from([2, 3]),
    kind=st.sampled_from(["generic", "double", "triple", "pair-at-0", "pair-at+s", "pair-at-s"]),
    split=st.floats(1e-15, 1e-2),
    scale=st.floats(1e-12, 1e3),
    rank=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_norm_closed_form_matches_eigvalsh(n, kind, split, scale, rank, seed):
    # Stacks of unitary conjugates of one spectrum, large enough to take the
    # closed form. Exact double and triple eigenvalues, and pairs split by
    # 1e-15..1e-2 of the scale, put |r| at or near 1, where the 3x3 closed
    # form must hand the matrix to eigvalsh; the rest stay on its side.
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=2)
    centre = {"pair-at-0": 0.0, "pair-at+s": 1.0, "pair-at-s": -1.0}.get(kind, x)
    spectrum = {
        "generic": rng.normal(size=3),
        "double": [x, x, y],
        "triple": [x, x, x],
    }.get(kind, [centre + split / 2, centre - split / 2, y])
    evals = scale * np.array(spectrum[:n])
    evals[min(rank, n):] = 0.0
    vecs = _haar_unitaries(2 * linalg.CLOSED_FORM_MIN_STACK, n, rng)
    m = (vecs * evals) @ vecs.conj().swapaxes(-1, -2)
    m = (m + m.conj().swapaxes(-1, -2)) / 2
    want = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    bound = 1e-13 * np.linalg.norm(m, axis=(-2, -1))
    assert np.all(np.abs(trace_norm(m) - want) <= bound)


@pytest.mark.parametrize("scale", [1e-160, 1e-106, 1e-104, 1e104, 1e150])
def test_trace_norm_closed_form_at_extreme_scales(scale):
    # near 1e-105, p³ is subnormal and r loses its digits (error 1e-5 of the
    # norm if the closed form took it); such scales take eigvalsh
    herm = random_complex((linalg.CLOSED_FORM_MIN_STACK, 3, 3), np.random.default_rng(4))
    m = scale * (herm + herm.conj().swapaxes(-1, -2)) / 2
    want = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    assert np.all(np.abs(trace_norm(m) - want) <= 1e-13 * np.linalg.norm(m, axis=(-2, -1)))


def _lapack_trace_norm(m):
    """The trace norm by LAPACK alone: sum |eigvalsh| for a matrix equal to
    its adjoint bit for bit, the SVD for any other."""
    if np.array_equal(m, m.conj().T):
        return np.abs(np.linalg.eigvalsh(m)).sum()
    return np.linalg.svd(m, compute_uv=False).sum()


def _outcome(f, *args):
    try:
        return np.float64(f(*args))
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(np.inf, 1.0), complex(np.nan, 0.0)])
def test_trace_norm_of_non_finite_matrices_takes_lapack(n, value):
    # a single matrix, and the same matrix in a stack that takes the closed
    # form, give what the LAPACK path gives: a value (nan included) or
    # LinAlgError
    rng = np.random.default_rng(11)
    herm = random_complex((linalg.CLOSED_FORM_MIN_STACK, n, n), rng)
    herm = (herm + herm.conj().swapaxes(-1, -2)) / 2
    for i in range(n):
        for j in range(n):
            m = herm[0].copy()
            m[i, j] = value.real if i == j else value
            m[j, i] = np.conj(m[i, j])
            want = _outcome(_lapack_trace_norm, m)
            stack = herm.copy()
            stack[5] = m
            got = _outcome(trace_norm, m)
            stacked = _outcome(lambda s: trace_norm(s)[5], stack)
            if want is np.linalg.LinAlgError:
                assert got is stacked is np.linalg.LinAlgError
            else:
                assert np.array_equal([got, stacked], [want, want], equal_nan=True)


def test_chain_layout_validation():
    with pytest.raises(ValueError):
        ChainLayout((2, 1))
    assert spin_chain(4).total_dim == 16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_packed_layout_round_trips(n):
    herm = random_complex((2, 5, n, n))
    herm = (herm + herm.conj().swapaxes(-1, -2)) / 2
    packed = linalg.pack_hermitian(herm)
    assert packed.shape == (n * n, 2, 5)
    i, j = np.triu_indices(n, 1)
    m = len(i)
    diagonal = np.diagonal(herm, axis1=-2, axis2=-1).real
    assert np.array_equal(packed[:n], np.moveaxis(diagonal, -1, 0))
    assert np.array_equal(packed[n:n + m], np.moveaxis(herm[..., i, j].real, -1, 0))
    assert np.array_equal(packed[n + m:], np.moveaxis(herm[..., i, j].imag, -1, 0))
    assert np.array_equal(linalg.unpack_hermitian(packed), herm)


def _spectrum_conjugates(evals, count, rng):
    """`count` Haar conjugates of one spectrum, made exactly Hermitian."""
    vecs = _haar_unitaries(count, len(evals), rng)
    m = (vecs * np.asarray(evals)) @ vecs.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2


@given(
    n=st.sampled_from([2, 3]),
    tol=st.sampled_from([1e-10, 1e-8]),
    ulps=st.integers(-4, 4),
    scale=st.floats(1e-12, 1e3),
    rank=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_positivity_certificate_matches_eigvalsh(n, tol, ulps, scale, rank, seed):
    # λmin at -tol ± a few ulp, beside eigenvalues of 1e-12..1e3 (the rest
    # zero past `rank`): the certificate hands every matrix it cannot clear
    # to eigvalsh, so the verdict of each, and the value of each failing
    # one, are eigvalsh's
    rng = np.random.default_rng(seed)
    evals = np.zeros(n)
    evals[0] = -tol + ulps * np.spacing(tol)
    evals[1:1 + rank] = scale * rng.uniform(0.1, 1.0, size=min(rank, n - 1))
    m = _spectrum_conjugates(evals, 64, rng)
    want = np.linalg.eigvalsh(m).min(axis=-1)
    got = linalg.min_eigenvalues(m, tol)
    assert np.array_equal(got < -tol, want < -tol)
    assert np.array_equal(got[got < -tol], want[want < -tol])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tol", [1e-10, 1e-8])
def test_positivity_certificate_clears_states(n, tol, monkeypatch):
    # states of every rank, pure ones with an exactly zero pair included,
    # need no eigvalsh
    rng = np.random.default_rng(2)
    stack = []
    for rank in range(1, n + 1):
        v = random_complex((64, n, rank), rng)
        rho = v @ v.conj().swapaxes(-1, -2)
        rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        stack.append((rho + rho.conj().swapaxes(-1, -2)) / 2)
    stack.append(np.broadcast_to(np.diag(np.eye(n)[0]).astype(complex), (64, n, n)))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: pytest.fail("eigvalsh called"))
    got = linalg.min_eigenvalues(np.concatenate(stack), tol)
    assert np.array_equal(got, np.full(64 * (n + 1), -tol))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "value", [np.inf, -np.inf, np.nan, complex(np.inf, 1.0), complex(np.nan, 0.0), 1e200, 1e308]
)
def test_positivity_certificate_hands_non_finite_and_overflow_to_eigvalsh(n, value, monkeypatch):
    # one such matrix in a stack the certificate takes: it alone goes to
    # eigvalsh, whose value or LinAlgError it gives
    rng = np.random.default_rng(12)
    stack = _spectrum_conjugates([1.0, 0.5, 0.25][:n], linalg.CLOSED_FORM_MIN_STACK, rng)
    eigvalsh = np.linalg.eigvalsh
    for i in range(n):
        for j in range(i, n):
            m = stack[0].copy()
            m[i, j] = value.real if i == j else value
            m[j, i] = np.conj(m[i, j])
            want = _outcome(lambda a: eigvalsh(a).min(), m)
            forged = stack.copy()
            forged[5] = m
            seen = []
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a))
            got = _outcome(lambda s: linalg.min_eigenvalues(s, 1e-10)[5], forged)
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            assert len(seen) == 1 and np.array_equal(seen[0], m[None], equal_nan=True)
            if want is np.linalg.LinAlgError:
                assert got is np.linalg.LinAlgError
            else:
                assert np.array_equal(got, want, equal_nan=True)
