"""Dense complex matrix kernel: tensor products, partial traces, Hermitian
eigensolving, site embedding, trace norm.

Everything is desk-scale (dims <= 4096), dense, row-major complex128. All
functions are pure; no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_RTOL = 1e-10


def pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (sigma_x, sigma_y, sigma_z) as complex 2x2 arrays."""
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return sx, sy, sz


SIGMA_X, SIGMA_Y, SIGMA_Z = pauli()
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)

UP = np.array([1, 0], dtype=np.complex128)
DOWN = np.array([0, 1], dtype=np.complex128)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


@dataclass(frozen=True)
class ChainLayout:
    """Ordered local dimensions of a finite tensor-product chain."""

    site_dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 2 for d in self.site_dims):
            raise ValueError("every local dimension must be >= 2")

    @property
    def n_sites(self) -> int:
        return len(self.site_dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.site_dims))


def spin_chain(n_sites: int) -> ChainLayout:
    return ChainLayout((2,) * n_sites)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def kron_all(ops) -> np.ndarray:
    out = np.asarray(ops[0], dtype=np.complex128)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def embed_site_operator(op: np.ndarray, site: int, layout: ChainLayout) -> np.ndarray:
    """Operator acting as `op` at `site` and identity elsewhere."""
    op = np.asarray(op, dtype=np.complex128)
    if not 0 <= site < layout.n_sites:
        raise ValueError(f"site {site} out of range for {layout.n_sites} sites")
    d = layout.site_dims[site]
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match site dimension {d}")
    ops = [eye(dd) for dd in layout.site_dims]
    ops[site] = op
    return kron_all(ops)


def embed_pair_operator(op: np.ndarray, site: int, layout: ChainLayout) -> np.ndarray:
    """Two-site operator on (site, site+1), identity elsewhere."""
    op = np.asarray(op, dtype=np.complex128)
    if not 0 <= site < layout.n_sites - 1:
        raise ValueError(f"pair ({site},{site + 1}) out of range")
    d = layout.site_dims[site] * layout.site_dims[site + 1]
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match pair dimension {d}")
    left = eye(int(np.prod(layout.site_dims[:site], initial=1)))
    right = eye(int(np.prod(layout.site_dims[site + 2:], initial=1)))
    return kron_all([left, op, right])


def partial_trace(t: np.ndarray, d_left: int, d_right: int, keep: str = "left") -> np.ndarray:
    """Partial trace of an operator on C^{d_left} (x) C^{d_right}.

    For keep="left" this is the unique S with tr(S A) = tr(T (A (x) 1))
    for all A; symmetrically for keep="right".
    """
    t = np.asarray(t, dtype=np.complex128)
    d = d_left * d_right
    if t.shape != (d, d):
        raise ValueError(f"matrix shape {t.shape} incompatible with {d_left}x{d_right} split")
    t4 = t.reshape(d_left, d_right, d_left, d_right)
    if keep == "left":
        return np.einsum("ikjk->ij", t4)
    if keep == "right":
        return np.einsum("kikj->ij", t4)
    raise ValueError("keep must be 'left' or 'right'")


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of a
    Hermitian matrix.

    The input is symmetrized as (h + h†)/2 before solving; rejects inputs
    whose anti-Hermitian part exceeds 1e-10 relative.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("eig_hermitian expects a square matrix")
    scale = np.linalg.norm(h)
    if scale > 0 and np.linalg.norm(h - h.conj().T) > HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh((h + h.conj().T) / 2)
    return evals.astype(float), evecs.astype(np.complex128)


def trace_norm(m: np.ndarray):
    """Sum of singular values: a float for one matrix, an array of one
    value per matrix for a stack of shape (..., n, n). A matrix equal to its
    adjoint bit for bit takes the sum of its absolute eigenvalues (see
    _hermitian_trace_norm), any other an SVD. The choice is per matrix, and
    the Hermitian ones of a stack are taken together: a stack with fewer than
    CLOSED_FORM_MIN_STACK of them gives the values of single calls bit for
    bit, a larger one agrees with them to 1e-13 of each matrix's Frobenius
    norm."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("trace_norm expects a square matrix")
    hermitian = (m == m.conj().swapaxes(-1, -2)).all(axis=(-2, -1))
    count = np.count_nonzero(hermitian)
    if count == hermitian.size:
        norms = _hermitian_trace_norm(m)
    else:
        norms = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
        if count:
            norms[hermitian] = _hermitian_trace_norm(m[hermitian])
    return float(norms) if m.ndim == 2 else norms


# The 3x3 closed form takes its extreme eigenvalues as q + 2p cos(θ) with
# θ = acos(r)/3 and acos(r)/3 + 2π/3, where r = det(H - q)/(2p³). The
# computed r carries a rounding error δ of at most about 8 eps (3.5 eps
# measured against 40-digit arithmetic on the same shifted entries, over
# 20,000 spectra with pair gaps of 1e-15 to 1e-1 times their scale). Each
# 4p cos(θ) term of the trace norm then moves by at most
# 4p δ / (3 sqrt(1 - r²)) <= 4p δ / (3 sqrt(1 - |r|)), and ‖H‖_F >= sqrt(6) p.
# So |r| <= 1 - w with w = (4 * 8 eps / (3 sqrt(6) * 5e-14))² = 3.7e-4 keeps
# that part of the error under 5e-14 ‖H‖_F, half of the 1e-13 ‖H‖_F the
# closed form is held to. Nearer |r| = 1 two eigenvalues nearly coincide,
# the form loses about half the digits of that pair, and the matrix takes
# eigvalsh instead.
CLOSED_FORM_MAX_R = 1.0 - (4 * 8 * np.finfo(float).eps / (3 * np.sqrt(6) * 5e-14)) ** 2

# p² range of the 3x3 closed form: inside it p³ and every product of three
# entries of H - q (each at most sqrt(6) p) are normal floats.
_CLOSED_FORM_P2 = (1e-200, 1e200)

# The closed form costs some 40 array operations whatever the stack size;
# below this many matrices eigvalsh is faster (3x3, one BLAS thread: 12 us
# against 70 us for one matrix, 53 against 59 us for 32, 126 against 70 us
# for 64). Single matrices thus keep the bits of sum |eigvalsh|, which the
# closed form matches on only about 30% of random 3x3 matrices.
CLOSED_FORM_MIN_STACK = 32


def _hermitian_trace_norm(h: np.ndarray) -> np.ndarray:
    """Sum of absolute eigenvalues of each matrix of a stack (..., n, n) of
    Hermitian matrices. For n = 2 and 3 and at least CLOSED_FORM_MIN_STACK
    matrices a closed form gives it elementwise over the stack; the matrices
    it does not resolve (non-finite entries, a nearly degenerate 3x3 pair, a
    3x3 scale outside _CLOSED_FORM_P2) and all other stacks take eigvalsh,
    one LAPACK call per matrix."""
    n = h.shape[-1]
    if n not in (2, 3) or h.size < CLOSED_FORM_MIN_STACK * n * n:
        return np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)
    flat = h.reshape(-1, n, n)
    with np.errstate(all="ignore"):  # 0/0, overflow, inf: those matrices are redone below
        norms, done = _closed_form_2(flat) if n == 2 else _closed_form_3(flat)
    redo = np.flatnonzero(~done)
    if redo.size:
        norms[redo] = np.abs(np.linalg.eigvalsh(flat[redo])).sum(axis=-1)
    return norms.reshape(h.shape[:-2])


def _closed_form_2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norms of a (K, 2, 2) Hermitian stack, and where they hold: the
    eigenvalues are tr/2 ± hypot(a - d, 2|b|)/2, so the sum of their absolute
    values is the larger of |tr| and their difference."""
    a, d, b = h[:, 0, 0].real, h[:, 1, 1].real, h[:, 0, 1]
    norms = np.maximum(np.abs(a + d), np.hypot(a - d, 2 * np.hypot(b.real, b.imag)))
    return norms, np.isfinite(norms)


def _closed_form_3(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norms of a (K, 3, 3) Hermitian stack, and where they hold.

    With q = tr/3, p = sqrt(tr((H - q)²)/6) and r = det(H - q)/(2p³), the
    largest and smallest eigenvalues are q + 2p cos(φ) and
    q + 2p cos(φ + 2π/3), φ = acos(r)/3 (Kopp, Int. J. Mod. Phys. C 19
    (2008) 523). The sum of absolute eigenvalues is the largest sum ±λ_i
    over sign patterns monotone in λ, so it needs only those two:
    max(|tr|, 2λmax - tr, tr - 2λmin). It holds where
    |r| <= CLOSED_FORM_MAX_R and p² lies in _CLOSED_FORM_P2, and for the
    zero matrix.
    """
    a0, a1, a2 = h[:, 0, 0].real, h[:, 1, 1].real, h[:, 2, 2].real
    b01, b02, b12 = h[:, 0, 1], h[:, 0, 2], h[:, 1, 2]
    tr = a0 + a1 + a2
    q = tr / 3
    d0, d1, d2 = a0 - q, a1 - q, a2 - q
    n01 = b01.real * b01.real + b01.imag * b01.imag
    n02 = b02.real * b02.real + b02.imag * b02.imag
    n12 = b12.real * b12.real + b12.imag * b12.imag
    p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2 * (n01 + n02 + n12)) / 6
    p = np.sqrt(p2)
    u = b01.real * b12.real - b01.imag * b12.imag  # b01 b12 = u + iv
    v = b01.real * b12.imag + b01.imag * b12.real
    det = d0 * d1 * d2 + 2 * (u * b02.real + v * b02.imag) - d0 * n12 - d1 * n02 - d2 * n01
    r = det / (2 * p * p2)
    phi = np.arccos(r) / 3
    top = 4 * p * np.cos(phi) - q  # 2 λmax - tr
    bottom = q - 4 * p * np.cos(phi + 2 * np.pi / 3)  # tr - 2 λmin
    norms = np.maximum(np.abs(tr), np.maximum(top, bottom))
    lo, hi = _CLOSED_FORM_P2
    done = (np.abs(r) <= CLOSED_FORM_MAX_R) & (p2 >= lo) & (p2 <= hi)
    zero = np.flatnonzero(p2 == 0)
    zero = zero[~h[zero].any(axis=(-2, -1))]
    norms[zero], done[zero] = 0.0, True
    return norms, done


def operator_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack (..., n, n)."""
    out = np.linalg.norm(np.asarray(m, dtype=np.complex128), ord=2, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def hermitian_basis(n: int) -> list[np.ndarray]:
    """An orthogonal Hermitian basis of M_n: diagonal units, then for each
    pair i < j in row-major order the symmetric and antisymmetric
    off-diagonal combinations."""
    i, j = np.triu_indices(n, 1)
    sym = n + 2 * np.arange(len(i))
    basis = np.zeros((n * n, n, n), dtype=np.complex128)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[sym, i, j] = basis[sym, j, i] = 1.0
    basis[sym + 1, i, j], basis[sym + 1, j, i] = -1j, 1j
    return list(basis)
