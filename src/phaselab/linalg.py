"""Dense complex matrix kernel: tensor products, partial traces, Hermitian
eigensolving, site embedding, trace norm.

Everything is desk-scale (dims <= 4096), dense, row-major complex128. All
functions are pure; no shared mutable state.
"""

from __future__ import annotations

import math
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


# LDLᴴ positivity certificate (see min_eigenvalues). Let S = Σ|h_ii| + n tol
# and σ = tol - δ with δ = POSITIVITY_MARGIN * S. If the LDLᴴ factorization
# of H + σ1 runs with every pivot positive, then LDLᴴ = H + σ1 + E with
# ‖E‖₂ <= 8u tr(|L|D|L|ᴴ) = 8u tr(LDLᴴ) <= 8u S (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., Thm 10.3, with the complex
# products of n <= 3 in real arithmetic; u = eps/2), and rounding the
# shifted diagonal adds at most u S. So λmin(H) >= -tol + δ - 9u S, and
# ‖H‖₂ <= S. eigvalsh's computed λmin is within 14u ‖H‖₂ of the exact one
# (the largest error over 10,000 2x2 and 3x3 Haar conjugates of scales
# 1e-12..1e3: generic spectra, a zero eigenvalue, a near pair, λmin at
# -1e-10 or -1e-8; measured against 50-digit arithmetic). δ = 64 eps S =
# 128u S covers both, 23u S, more than four times over: a matrix the
# certificate clears is one that eigvalsh's λmin >= -tol also passes.
# Pivots must exceed δ, not just 0: the gradual-underflow error of
# |h_ij|²/d, at most 5e-324/d, then stays far below u S for any tol above
# 1e-140.
POSITIVITY_MARGIN = 64 * np.finfo(float).eps


def _takes_closed_form(n: int, count: int) -> bool:
    """The size rule of the packed kernels: n = 2 or 3 and a stack of at
    least CLOSED_FORM_MIN_STACK matrices."""
    return n in (2, 3) and count >= CLOSED_FORM_MIN_STACK


def pack_hermitian(h: np.ndarray) -> np.ndarray:
    """The packed layout of a stack (..., n, n) of Hermitian matrices: a real
    array (n², ...) whose rows are the n diagonal entries, then the real
    parts of the upper off-diagonal entries in row-major order, then their
    imaginary parts. The packed kernels work on it elementwise, one row per
    coordinate. The lower triangle and the diagonal's imaginary parts are
    not read."""
    n = h.shape[-1]
    i, j = np.triu_indices(n, 1)
    upper = 2 * (n * i + j)
    rows = np.concatenate([2 * (n + 1) * np.arange(n), upper, upper + 1])
    flat = np.ascontiguousarray(h, dtype=np.complex128).reshape(-1, n * n).view(np.float64)
    return flat.T[rows].reshape(n * n, *h.shape[:-2])


def unpack_hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian stack (..., n, n) of a packed array (n², ...). Each
    imaginary part of the lower triangle is 0.0 minus the upper one: its
    negation, and +0.0 for a zero of either sign."""
    n = math.isqrt(x.shape[0])
    i, j = np.triu_indices(n, 1)
    k, m = np.arange(n), len(i)
    rows = np.moveaxis(x, 0, -1)
    h = np.zeros(x.shape[1:] + (n, n), dtype=np.complex128)
    h.real[..., k, k] = rows[..., :n]
    h.real[..., i, j] = h.real[..., j, i] = rows[..., n:n + m]
    h.imag[..., i, j] = rows[..., n + m:]
    h.imag[..., j, i] = 0.0 - rows[..., n + m:]
    return h


def _hermitian_trace_norm(h: np.ndarray) -> np.ndarray:
    """Sum of absolute eigenvalues of each matrix of a stack (..., n, n) of
    Hermitian matrices: packed_trace_norm of its packed layout, with the
    fallback reading `h` itself, and eigvalsh alone for stacks outside the
    closed form's size rule."""
    if not _takes_closed_form(h.shape[-1], math.prod(h.shape[:-2])):
        return np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)
    return packed_trace_norm(pack_hermitian(h), h)


def packed_trace_norm(x: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
    """Sum of absolute eigenvalues of each matrix of a packed Hermitian stack
    x (n², ...) (see pack_hermitian). For n = 2 and 3 and at least
    CLOSED_FORM_MIN_STACK matrices a closed form gives it elementwise; the
    matrices it does not resolve (non-finite entries, a nearly degenerate
    3x3 pair, a 3x3 scale outside _CLOSED_FORM_P2) and all other stacks take
    eigvalsh, one LAPACK call per matrix, on `h` if it is given (the same
    stack unpacked) and on unpack_hermitian(x) otherwise. eigvalsh reads
    the lower triangle, and the signs of its zero imaginary parts, which the
    packed layout drops, can change eigvalsh's result (for 33 of 600,000
    random and small-integer matrices with random zero signs), so a caller
    holding the matrices passes them."""
    n = math.isqrt(x.shape[0])
    flat = x.reshape(n * n, -1)
    count = flat.shape[1]

    def lapack(k):
        m = unpack_hermitian(flat[:, k]) if h is None else h.reshape(count, n, n)[k]
        return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)

    if not _takes_closed_form(n, count):
        return lapack(slice(None)).reshape(x.shape[1:])
    with np.errstate(all="ignore"):  # 0/0, overflow, inf: those matrices are redone below
        norms, done = _closed_form_2(flat) if n == 2 else _closed_form_3(flat)
    redo = np.flatnonzero(~done)
    if redo.size:
        norms[redo] = lapack(redo)
    return norms.reshape(x.shape[1:])


def _closed_form_2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norms of a packed 2x2 Hermitian stack (4, K), and where they
    hold: the eigenvalues are tr/2 ± hypot(a - d, 2|b|)/2, so the sum of
    their absolute values is the larger of |tr| and their difference."""
    a, d, br, bi = x
    norms = np.maximum(np.abs(a + d), np.hypot(a - d, 2 * np.hypot(br, bi)))
    return norms, np.isfinite(norms)


def _closed_form_3(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norms of a packed 3x3 Hermitian stack (9, K), and where they hold.

    With q = tr/3, p = sqrt(tr((H - q)²)/6) and r = det(H - q)/(2p³), the
    largest and smallest eigenvalues are q + 2p cos(φ) and
    q + 2p cos(φ + 2π/3), φ = acos(r)/3 (Kopp, Int. J. Mod. Phys. C 19
    (2008) 523). The sum of absolute eigenvalues is the largest sum ±λ_i
    over sign patterns monotone in λ, so it needs only those two:
    max(|tr|, 2λmax - tr, tr - 2λmin). It holds where
    |r| <= CLOSED_FORM_MAX_R and p² lies in _CLOSED_FORM_P2, and for the
    zero matrix.
    """
    a0, a1, a2, b01r, b02r, b12r, b01i, b02i, b12i = x
    tr = a0 + a1 + a2
    q = tr / 3
    d0, d1, d2 = a0 - q, a1 - q, a2 - q
    n01 = b01r * b01r + b01i * b01i
    n02 = b02r * b02r + b02i * b02i
    n12 = b12r * b12r + b12i * b12i
    p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2 * (n01 + n02 + n12)) / 6
    p = np.sqrt(p2)
    u = b01r * b12r - b01i * b12i  # b01 b12 = u + iv
    v = b01r * b12i + b01i * b12r
    det = d0 * d1 * d2 + 2 * (u * b02r + v * b02i) - d0 * n12 - d1 * n02 - d2 * n01
    r = det / (2 * p * p2)
    phi = np.arccos(r) / 3
    top = 4 * p * np.cos(phi) - q  # 2 λmax - tr
    bottom = q - 4 * p * np.cos(phi + 2 * np.pi / 3)  # tr - 2 λmin
    norms = np.maximum(np.abs(tr), np.maximum(top, bottom))
    lo, hi = _CLOSED_FORM_P2
    done = (np.abs(r) <= CLOSED_FORM_MAX_R) & (p2 >= lo) & (p2 <= hi)
    zero = np.flatnonzero(p2 == 0)
    zero = zero[~x[:, zero].any(axis=0)]
    norms[zero], done[zero] = 0.0, True
    return norms, done


def min_eigenvalues(h: np.ndarray, tol: float) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a stack (..., n, n) of exactly
    Hermitian matrices, as eigvalsh gives it, for the test λmin >= -tol:
    where an LDLᴴ certificate proves that eigvalsh's value passes, the
    matrix reads -tol instead, so `min_eigenvalues(h, tol) < -tol` is
    eigvalsh's verdict and every failing value is eigvalsh's own.

    The certificate factors H + (tol - δ)1 elementwise over the packed
    stack and clears the matrices whose pivots all exceed δ (see
    POSITIVITY_MARGIN). It takes the closed form's size rule, n = 2 or 3
    and at least CLOSED_FORM_MIN_STACK matrices; the matrices it does not
    clear (non-finite entries, overflow, a pivot at or below δ) and all
    other stacks take eigvalsh, one LAPACK call per matrix."""
    n, count = h.shape[-1], math.prod(h.shape[:-2])
    if not _takes_closed_form(n, count):
        return np.linalg.eigvalsh(h).min(axis=-1)
    flat = h.reshape(count, n, n)
    with np.errstate(all="ignore"):  # overflow, inf, nan: those matrices are redone below
        cleared = _ldl_clears(pack_hermitian(flat), tol)
    out = np.full(count, -tol)
    redo = np.flatnonzero(~cleared)
    if redo.size:
        out[redo] = np.linalg.eigvalsh(flat[redo]).min(axis=-1)
    return out.reshape(h.shape[:-2])


def _ldl_clears(x: np.ndarray, tol: float) -> np.ndarray:
    """Where a packed 2x2 or 3x3 Hermitian stack (n², K) is cleared by the
    positivity certificate: finite entries, and every pivot of the LDLᴴ
    factorization of H + (tol - δ)1 above δ = POSITIVITY_MARGIN S,
    S = Σ|h_ii| + n tol. With column 0 eliminated, row 2 holds
    w = h12 - conj(h01) h02 / d0."""
    n = 2 if len(x) == 4 else 3
    margin = POSITIVITY_MARGIN * (np.abs(x[:n]).sum(axis=0) + n * tol)
    d0, d1, *rest = x[:n] + (tol - margin)
    if n == 2:
        pivots = (d0, d1 - (x[2] * x[2] + x[3] * x[3]) / d0)
    else:
        (d2,) = rest
        b01r, b02r, b12r, b01i, b02i, b12i = x[3:]
        d1 = d1 - (b01r * b01r + b01i * b01i) / d0
        wr = b12r - (b01r * b02r + b01i * b02i) / d0
        wi = b12i - (b01r * b02i - b01i * b02r) / d0
        d2 = d2 - (b02r * b02r + b02i * b02i) / d0 - (wr * wr + wi * wi) / d1
        pivots = (d0, d1, d2)
    cleared = np.isfinite(x).all(axis=0)
    for d in pivots:
        cleared &= d > margin
    return cleared


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
