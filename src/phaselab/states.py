"""States on matrix algebras.

Density matrices and their batched validation, the A.omega action over
stacks, and the GNS construction with explicit Gelfand ideals.
Distances between states are `linalg.trace_norm` of the density
difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import eye, min_eigenvalues

STATE_HERM_TOL = 1e-10
STATE_EIG_TOL = 1e-10
STATE_TRACE_TOL = 1e-10
IDEAL_NORMALIZER_TOL = 1e-12
GRAM_RANK_CUT = 1e-9


class GelfandIdealError(ValueError):
    """Acting element lies in the Gelfand ideal of the state."""


@dataclass(frozen=True)
class DensityState:
    """Positive semidefinite trace-one matrix on M_n(C)."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.complex128)
        object.__setattr__(self, "rho", rho)
        if rho.ndim != 2:
            raise ValueError("density matrix must be square")
        validate_densities(rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def expect(self, a: np.ndarray) -> complex:
        """omega(A) = tr(rho A)."""
        return complex(np.trace(self.rho @ np.asarray(a, dtype=np.complex128)))


def basis_state(n: int, k: int = 0) -> DensityState:
    """The pure state |e_k><e_k| on M_n."""
    v = np.zeros(n, dtype=np.complex128)
    v[k] = 1.0
    return state_from_vector(v)


def maximally_mixed(n: int) -> DensityState:
    return DensityState(eye(n) / n)


def state_from_vector(v: np.ndarray) -> DensityState:
    v = np.asarray(v, dtype=np.complex128).ravel()
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("zero vector does not define a state")
    v = v / nrm
    return DensityState(np.outer(v, v.conj()))


def validate_densities(rho: np.ndarray) -> np.ndarray:
    """Check a stack (..., n, n) of density matrices against the
    DensityState tolerances and return it as complex128.

    Raises DensityState's ValueError for the first failing matrix in C
    order, naming the first check it fails: finite entries (NaN slips past
    every comparison), then Hermitian, then no negative eigenvalue, then unit trace.
    The eigenvalue check is linalg.min_eigenvalues of (ρ + ρ†)/2: an LDLᴴ
    certificate clears 2x2 and 3x3 stacks elementwise, and eigvalsh decides,
    and gives the reported value for, every matrix it does not clear.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    non_finite = ~np.isfinite(rho).all(axis=(-2, -1))
    finite = np.where(non_finite[..., None, None], 0.0, rho) if non_finite.any() else rho
    adj = finite.conj().swapaxes(-1, -2)
    scale = np.maximum(np.linalg.norm(finite, axis=(-2, -1)), 1.0)
    non_hermitian = np.linalg.norm(finite - adj, axis=(-2, -1)) > STATE_HERM_TOL * scale
    min_eig = min_eigenvalues((finite + adj) / 2, STATE_EIG_TOL)
    negative = min_eig < -STATE_EIG_TOL
    trace = np.trace(finite, axis1=-2, axis2=-1)
    off_trace = np.abs(trace.real - 1.0) > STATE_TRACE_TOL
    bad = non_finite | non_hermitian | negative | off_trace
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        if non_finite[i]:
            raise ValueError("density matrix has non-finite entries")
        if non_hermitian[i]:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if negative[i]:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig[i]:.3e}")
        raise ValueError(f"density matrix trace {trace[i]:.12f} != 1")
    return rho


def act_batch(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The action (A . omega)(B) = omega(A* B A) / omega(A* A), realized on
    densities as A rho A* / tr(A rho A*), symmetrized (pure in, pure out),
    over broadcast stacks of elements and densities (..., n, n). Returns the
    validated density stack; raises GelfandIdealError for the first sample
    in C order whose normalizer puts A in the Gelfand ideal of its state,
    after validating the samples before it."""
    a = np.asarray(a, dtype=np.complex128)
    out = a @ rho @ a.conj().swapaxes(-1, -2)
    nrm = np.trace(out, axis1=-2, axis2=-1).real
    with np.errstate(divide="ignore", invalid="ignore"):
        out = out / nrm[..., None, None]
    out = (out + out.conj().swapaxes(-1, -2)) / 2
    ideal = (nrm <= IDEAL_NORMALIZER_TOL).ravel()
    stop = int(np.argmax(ideal)) if ideal.any() else ideal.size
    validate_densities(out.reshape(-1, *out.shape[-2:])[:stop])
    if stop < ideal.size:
        raise GelfandIdealError("element lies in the Gelfand ideal of the state")
    return out


@dataclass
class GnsResult:
    """GNS data of a state on M_n.

    `rep` carries algebra elements to their matrices on the GNS space in
    the deterministic orthonormalized-matrix-unit basis; `cyclic` is the
    class of the identity; `ideal_basis` spans the Gelfand ideal.
    """

    dim: int
    rep: Callable[[np.ndarray], np.ndarray]
    cyclic: np.ndarray
    ideal_basis: list[np.ndarray]
    basis_coords: np.ndarray = field(repr=False)  # n x r block C, see gns

    @property
    def ideal_rank(self) -> int:
        return len(self.ideal_basis)


def gns(omega: DensityState) -> GnsResult:
    """GNS construction over the matrix-unit basis of M_n.

    The Gram form (A, B) -> omega(A† B) over row-major matrix units is
    kron(1, rho^T): units in different rows are orthogonal, and each row
    carries the n x n block rho^T. Gram-Schmidt over e_0..e_{n-1} in the
    rho^T inner product gives the block C (n x r, deterministic), so the
    quotient basis is kron(1, C), the GNS space has dimension n r, and
    pi(A) = A (x) C† rho^T C. The Gelfand ideal is spanned by the matrices
    with one row equal to a null vector of rho^T.
    """
    n = omega.dim
    rho_t = omega.rho.T

    evals, vecs = np.linalg.eigh((rho_t + rho_t.conj().T) / 2)
    cut = GRAM_RANK_CUT * max(evals.max(), 1e-300)

    # deterministic quotient basis of one row: modified Gram-Schmidt over e_0..e_{n-1}
    basis: list[np.ndarray] = []
    for v in eye(n):
        for b in basis:
            v = v - (b.conj() @ (rho_t @ v)) * b
        nrm2 = (v.conj() @ (rho_t @ v)).real
        if nrm2 > cut:
            basis.append(v / np.sqrt(nrm2))
    if len(basis) != int(np.sum(evals > cut)):
        raise RuntimeError("Gram-Schmidt rank disagrees with spectral rank")
    c = np.column_stack(basis)  # a trace-one state has rank >= 1
    c_rho = c.conj().T @ rho_t
    block = c_rho @ c
    ideal_basis = [np.outer(e, null) for e in eye(n) for null in vecs[:, evals <= cut].T]

    def rep(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (n, n):
            raise ValueError(f"rep expects an element of M_{n}")
        return np.kron(a, block)

    return GnsResult(
        dim=n * len(basis),
        rep=rep,
        cyclic=c_rho.T.reshape(-1),
        ideal_basis=ideal_basis,
        basis_coords=c,
    )
