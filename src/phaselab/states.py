"""States on matrix algebras.

Density matrices, purity, the trace-norm state distance, the A.omega
action, the GNS construction with explicit Gelfand ideals, and the
transition-probability identity |<Psi,Omega>|^2 = 1 - ||psi-omega||^2/4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linalg import eye, trace_norm

STATE_HERM_TOL = 1e-10
STATE_EIG_TOL = 1e-10
STATE_TRACE_TOL = 1e-10
PURITY_TOL = 1e-9
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
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        scale = max(np.linalg.norm(rho), 1.0)
        if np.linalg.norm(rho - rho.conj().T) > STATE_HERM_TOL * scale:
            raise ValueError("density matrix is not Hermitian within tolerance")
        evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if evals.min() < -STATE_EIG_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
        if abs(np.trace(rho).real - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(rho):.12f} != 1")

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


class PurityResult(NamedTuple):
    pure: bool
    value: float


def purity(s: DensityState) -> PurityResult:
    """Pure iff tr(rho^2) >= 1 - 1e-9; the scalar is reported."""
    val = float(np.trace(s.rho @ s.rho).real)
    return PurityResult(val >= 1.0 - PURITY_TOL, val)


def state_distance(a: DensityState, b: DensityState) -> float:
    """Trace norm of the density difference.

    At finite dimension this equals the dual-space functional distance
    sup_{||A||<=1} |tr((rho_a - rho_b) A)|.
    """
    if a.dim != b.dim:
        raise ValueError("states live on different algebras")
    return trace_norm(a.rho - b.rho)


def act(a: np.ndarray, s: DensityState) -> DensityState:
    """The action (A . omega)(B) = omega(A* B A) / omega(A* A), realized on
    densities as A rho A* / tr(A rho A*). Pure in, pure out."""
    a = np.asarray(a, dtype=np.complex128)
    out = a @ s.rho @ a.conj().T
    nrm = np.trace(out).real
    if nrm <= IDEAL_NORMALIZER_TOL:
        raise GelfandIdealError("element lies in the Gelfand ideal of the state")
    out = out / nrm
    out = (out + out.conj().T) / 2
    return DensityState(out)


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
    basis_coords: np.ndarray = field(repr=False)  # n^2 x dim, quotient coordinates
    gram: np.ndarray = field(repr=False)

    @property
    def ideal_rank(self) -> int:
        return len(self.ideal_basis)


def gns(omega: DensityState) -> GnsResult:
    """GNS construction over the matrix-unit basis of M_n.

    The Gram form (A, B) -> omega(A† B) over matrix units is
    kron(1, rho^T); its null space is the Gelfand ideal, and the quotient
    basis is obtained by Gram-Schmidt in the omega-inner-product over the
    matrix units in row-major order (deterministic).
    """
    n = omega.dim
    rho = omega.rho
    gram = np.kron(eye(n), rho.T)

    evals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    cut = GRAM_RANK_CUT * max(evals.max(), 1e-300)
    rank = int(np.sum(evals > cut))

    # deterministic quotient basis: modified Gram-Schmidt over matrix units
    basis: list[np.ndarray] = []
    for a in range(n * n):
        v = np.zeros(n * n, dtype=np.complex128)
        v[a] = 1.0
        for b in basis:
            v = v - (b.conj() @ (gram @ v)) * b
        nrm2 = (v.conj() @ (gram @ v)).real
        if nrm2 > cut:
            basis.append(v / np.sqrt(nrm2))
    if len(basis) != rank:
        raise RuntimeError("Gram-Schmidt rank disagrees with spectral rank")
    coords = np.column_stack(basis) if basis else np.zeros((n * n, 0), dtype=np.complex128)

    # Gelfand ideal: null-space eigenvectors of the Gram form, as matrices
    null_coords = vecs[:, evals <= cut]
    ideal_basis = [null_coords[:, k].reshape(n, n) for k in range(null_coords.shape[1])]

    def rep(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (n, n):
            raise ValueError(f"rep expects an element of M_{n}")
        left_mult = np.kron(a, eye(n))  # row-major vec: vec(AX) = (A (x) 1) vec(X)
        return coords.conj().T @ gram @ left_mult @ coords

    cyclic = coords.conj().T @ gram @ eye(n).reshape(-1)
    return GnsResult(
        dim=rank,
        rep=rep,
        cyclic=cyclic,
        ideal_basis=ideal_basis,
        basis_coords=coords,
        gram=gram,
    )


def vector_state_distance(psi: np.ndarray, omega: np.ndarray) -> tuple[float, float]:
    """Distance of the pure states induced by two unit vectors.

    Returns (closed_form, oracle): the transition-probability closed form
    2 sqrt(1 - |<psi, omega>|^2) and the trace-norm oracle on the induced
    densities. The two agree to 1e-9.
    """
    psi = np.asarray(psi, dtype=np.complex128).ravel()
    omega = np.asarray(omega, dtype=np.complex128).ravel()
    if psi.shape != omega.shape:
        raise ValueError("vectors live in different spaces")
    psi = psi / np.linalg.norm(psi)
    omega = omega / np.linalg.norm(omega)
    p = min(abs(np.vdot(psi, omega)), 1.0)
    closed = 2.0 * np.sqrt(max(1.0 - p * p, 0.0))
    oracle = state_distance(state_from_vector(psi), state_from_vector(omega))
    return float(closed), float(oracle)
