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
    adjoint bit for bit takes sum |eigvalsh| (its singular values are its
    absolute eigenvalues), any other an SVD; the choice is per matrix, so a
    stack gives the values of single calls bit for bit."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("trace_norm expects a square matrix")
    hermitian = (m == m.conj().swapaxes(-1, -2)).all(axis=(-2, -1))
    count = np.count_nonzero(hermitian)
    if count == hermitian.size:
        norms = np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    else:
        norms = np.linalg.svd(m, compute_uv=False).sum(axis=-1)
        if count:
            norms[hermitian] = np.abs(np.linalg.eigvalsh(m[hermitian])).sum(axis=-1)
    return float(norms) if m.ndim == 2 else norms


def operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=np.complex128), ord=2))


def hermitian_basis(n: int) -> list[np.ndarray]:
    """An orthogonal Hermitian basis of M_n: diagonal units plus symmetric
    and antisymmetric off-diagonal combinations."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            e[j, i] = 1.0
            basis.append(e)
            f = np.zeros((n, n), dtype=np.complex128)
            f[i, j] = -1j
            f[j, i] = 1j
            basis.append(f)
    return basis
