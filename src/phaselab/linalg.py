"""Dense complex matrix kernel: tensor products, partial traces, Hermitian
eigensolving, site embedding, trace norm, smallest eigenvalues.

Everything is desk-scale (dims <= 4096), dense, row-major complex128. All
functions are pure; no shared mutable state. A Hermitian stack may be held
packed (pack_hermitian), one real row per coordinate. The trace norm of a
packed 2x2 or 3x3 stack is a closed form, elementwise over the stack; every
other trace norm of a Hermitian matrix, and every smallest eigenvalue, is
eigvalsh's, one LAPACK call per matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

HERMITICITY_RTOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)

UP = np.array([1, 0], dtype=np.complex128)
DOWN = np.array([0, 1], dtype=np.complex128)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def kron_all(ops) -> np.ndarray:
    out = np.asarray(ops[0], dtype=np.complex128)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Operator acting as `op`, on 2^k amplitudes, on sites site..site+k-1
    of an n-qubit chain and as the identity elsewhere."""
    op = np.asarray(op, dtype=np.complex128)
    k = op.shape[0].bit_length() - 1 if op.ndim == 2 else 0
    if k < 1 or op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} is not 2^k x 2^k for a k >= 1")
    if not 0 <= site <= n_sites - k:
        raise ValueError(f"sites {site}..{site + k - 1} leave the {n_sites}-site chain")
    return kron_all([eye(2**site), op, eye(2 ** (n_sites - site - k))])


def partial_trace(t: np.ndarray, d_left: int, d_right: int, keep: str = "left") -> np.ndarray:
    """Partial trace of an operator on C^{d_left} (x) C^{d_right}, or of
    each operator of a stack (..., d, d), d = d_left d_right.

    For keep="left" this is the unique S with tr(S A) = tr(T (A (x) 1))
    for all A; symmetrically for keep="right". Each matrix of a stack
    gives the single call's result bit for bit.
    """
    t = np.asarray(t, dtype=np.complex128)
    d = d_left * d_right
    if t.ndim < 2 or t.shape[-2:] != (d, d):
        raise ValueError(f"matrix shape {t.shape} incompatible with {d_left}x{d_right} split")
    t4 = t.reshape(*t.shape[:-2], d_left, d_right, d_left, d_right)
    if keep == "left":
        return np.einsum("...ikjk->...ij", t4)
    if keep == "right":
        return np.einsum("...kikj->...ij", t4)
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
    adjoint bit for bit takes the sum of its absolute eigenvalues
    (_hermitian_trace_norm), any other an SVD. The choice is per matrix, and
    each matrix's value is that of a single call on it, whatever the stack.
    A stack Hermitian in exact arithmetic but formed from complex products,
    such as a a† - b b†, is generally not Hermitian bit for bit where the
    multiply fuses (FMA), and takes the SVD: a caller that knows its stack
    is Hermitian passes its Hermitian part (m + m†)/2. For a traceless
    Hermitian matrix, such as the difference of two states,
    √2‖Δ‖_F <= ‖Δ‖₁ <= √n‖Δ‖_F, with equality on the left at rank 2."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("trace_norm expects a square matrix")
    hermitian = (m == m.conj().swapaxes(-1, -2)).all(axis=(-2, -1))
    count = np.count_nonzero(hermitian)
    if count == hermitian.size:
        norms = _hermitian_trace_norm(pack_hermitian(m))
    else:
        norms = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
        if count:
            norms[hermitian] = _hermitian_trace_norm(pack_hermitian(m[hermitian]))
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

# eigvalsh's computed λmin is within 14u ‖H‖₂ of the exact one, u = eps/2
# (the largest error over 10,000 2x2 and 3x3 Haar conjugates of scales
# 1e-12..1e3: generic spectra, a zero eigenvalue, a near pair, λmin at
# -1e-10 or -1e-8; measured against 50-digit arithmetic). A bound on a
# matrix's negativity -λmin taken from eigvalsh adds POSITIVITY_MARGIN S =
# 128u S, with S = Σ|h_ii| + n δ >= ‖H‖₂ for H >= -δ1: more than four
# times that error.
POSITIVITY_MARGIN = 64 * np.finfo(float).eps


@lru_cache(maxsize=None)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), the upper off-diagonal pairs (i, j) of an n x n
    matrix in row-major order, made once per n and read-only: the bytes of
    one real n x n matrix, kept for each n seen."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def pack_hermitian(h: np.ndarray) -> np.ndarray:
    """The packed layout of a stack (..., n, n) of Hermitian matrices: a real
    array (n², ...) whose rows are the n diagonal entries, then the real
    parts of the upper off-diagonal entries in row-major order, then their
    imaginary parts. The packed kernels work on it elementwise, one row per
    coordinate. The lower triangle and the diagonal's imaginary parts are
    not read."""
    n = h.shape[-1]
    i, j = upper_pairs(n)
    upper = 2 * (n * i + j)
    rows = np.concatenate([2 * (n + 1) * np.arange(n), upper, upper + 1])
    flat = np.ascontiguousarray(h, dtype=np.complex128).reshape(-1, n * n).view(np.float64)
    return flat.T[rows].reshape(n * n, *h.shape[:-2])


def unpack_hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian stack (..., n, n) of a packed array (n², ...). Each
    imaginary part of the lower triangle is 0.0 minus the upper one: its
    negation, and +0.0 for a zero of either sign."""
    n = math.isqrt(x.shape[0])
    i, j = upper_pairs(n)
    k, m = np.arange(n), len(i)
    rows = np.moveaxis(x, 0, -1)
    h = np.zeros(x.shape[1:] + (n, n), dtype=np.complex128)
    h.real[..., k, k] = rows[..., :n]
    h.real[..., i, j] = h.real[..., j, i] = rows[..., n:n + m]
    h.imag[..., i, j] = rows[..., n + m:]
    h.imag[..., j, i] = 0.0 - rows[..., n + m:]
    return h


def _hermitian_trace_norm(x: np.ndarray) -> np.ndarray:
    """Sum of absolute eigenvalues of each matrix of a packed Hermitian
    stack x (n², ...): for every 2x2 and 3x3 stack a closed form
    (_closed_form_2, _closed_form_3), within 1e-13 of each matrix's
    Frobenius norm, applied elementwise over the stack. The matrices it
    does not resolve (non-finite entries, a nearly degenerate 3x3 pair, a
    3x3 scale outside _CLOSED_FORM_P2), and every matrix of n >= 4, are
    unpacked and take sum |eigvalsh|, one LAPACK call per matrix, and an
    empty stack takes none. So a matrix's value depends on that matrix
    alone, not on its stack."""
    n = math.isqrt(len(x))
    flat = x.reshape(len(x), -1)
    if n in (2, 3):
        with np.errstate(all="ignore"):  # 0/0, overflow, inf, nan: those matrices are redone below
            norms, done = (_closed_form_2 if n == 2 else _closed_form_3)(flat)
        redo = np.flatnonzero(~done)
    else:
        norms, redo = np.empty(flat.shape[1]), np.arange(flat.shape[1])
    if redo.size:
        norms[redo] = np.abs(np.linalg.eigvalsh(unpack_hermitian(flat[:, redo]))).sum(axis=-1)
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


def min_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a stack (..., n, n) of exactly
    Hermitian matrices, as eigvalsh gives it; an empty stack takes no
    LAPACK call."""
    h = np.asarray(h, dtype=np.complex128)
    return np.linalg.eigvalsh(h).min(axis=-1) if h.size else np.empty(h.shape[:-2])


def _hermitian_min_eigenvalues(x: np.ndarray) -> np.ndarray:
    """min_eigenvalues of a packed Hermitian stack x (n², ...)."""
    return min_eigenvalues(unpack_hermitian(x))


def operator_norm(m: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack (..., n, n)."""
    out = np.linalg.norm(np.asarray(m, dtype=np.complex128), ord=2, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def hermitian_basis(n: int) -> np.ndarray:
    """An orthogonal Hermitian basis of M_n, as a stack (n², n, n): diagonal
    units, then for each pair i < j in row-major order the symmetric and
    antisymmetric off-diagonal combinations."""
    i, j = upper_pairs(n)
    sym = n + 2 * np.arange(len(i))
    basis = np.zeros((n * n, n, n), dtype=np.complex128)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[sym, i, j] = basis[sym, j, i] = 1.0
    basis[sym + 1, i, j], basis[sym + 1, j, i] = -1j, 1j
    return basis
