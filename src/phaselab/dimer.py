"""The S3-parametrized spin-1/2 dimer chain.

Closed-form spectra and ground states of the two-site Hamiltonians, the
dimer gate W and the site rotations, the truncated half-chain cocycle
unitary, the projected equator map, the degree-valued invariant, and the
noninteracting product-state distance bound.

Conventions: |up> = (1,0), |down> = (0,1); for a two-site block the first
tensor factor is the lower-numbered site. The truncated right chain has
sites 1..2N; its reference state alternates up/down starting up at site 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cech import MAX_AZIMUTHS, ring_degree, ring_latitudes
from .linalg import (
    DOWN,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    UP,
    embed,
    eye,
    kron,
    kron_all,
    trace_norm,
)
from .util import NumericalGateError, is_int, tol_scale

PAULI_VEC = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Half-width of the equatorial band |w4| < EPSILON, where the dimer charts
# overlap and the truncated cocycle unitary is defined.
EPSILON = 0.25

Y_OVERLAP_GATE = 0.9
PROJECTION_WEIGHT_GATE = 1e-6
# Gates of the invariant verdict beyond the degrees' agreement: the sweep's
# worst interior overlap and ray agreement must each lie within its slack,
# times PHASELAB_TOL_SCALE, of 1.
Y_OVERLAP_SLACK = 0.01
RAY_AGREEMENT_SLACK = 1e-8
PHASE_FIX_TOL = 1e-12

# Bytes of the dense oracle's largest array, a 2^(2N) x 2^(2N) operator in
# `ChainOperators.build` (N <= 5); no single-point full chain is left.
MAX_DENSE_BYTES = 2**24
# Rings per window batch of the sweep, which runs the kernel once a ring, at
# phi = 0. The window's arrays have a fixed size per ring, so this bounds the
# kernel's memory for any grid and N: at N=2 or 3 a 64x128 run (one batch)
# raises the peak RSS over that after import by 1.1-1.2 MB, as with one-ring
# batches, and a 16384x64 run by 6.1-6.2 MB, against 29.1 MB when its 16384
# rings are one batch.
SWEEP_POINTS = 512
# The sweep holds O(K) memory: the K rings and the Bloch rings, the ray
# agreement's products, and ring_degree's links, fluxes and their parts, which
# math.fsum reads as Python floats one at a time; M sets only ring_degree's
# n_phi. Its tracemalloc peak is the larger of one window batch's arrays
# (about 1 MiB, freed before the degrees) and 176-177 bytes a ring: at N = 2,
# M = 3, 44.2 MiB at K = 2^18 and 176 MiB at K = 2^20. ModelConfig refuses a
# grid whose RING_BYTES a ring exceed MAX_GRID_BYTES, K > 2^20, or whose M
# exceeds cech.MAX_AZIMUTHS. A 2^20 x 3 run takes 2.7-3.1 s whole process
# (one BLAS thread, 2 cores), with degree 1 and a passing verdict.
RING_BYTES = 256
MAX_GRID_BYTES = 2**28


@dataclass(frozen=True)
class ParamPoint:
    """A point w = (w1, w2, w3, w4) of the parameter 3-sphere."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).ravel()
        object.__setattr__(self, "w", w)
        if w.shape != (4,):
            raise ValueError("parameter point needs four components")
        if abs(np.linalg.norm(w) - 1.0) > 1e-12:
            raise ValueError("parameter point must lie on the unit 3-sphere")

    @property
    def wvec(self) -> np.ndarray:
        return self.w[:3]

    @property
    def w4(self) -> float:
        return float(self.w[3])

    @property
    def wnorm(self) -> float:
        return float(np.linalg.norm(self.w[:3]))

    def theta_phi(self) -> tuple[float, float]:
        """Canonical polar branch of wvec/|wvec|; requires |wvec| > 0."""
        n = self.wnorm
        if n == 0.0:
            raise ValueError("(theta, phi) undefined at the poles of S^3")
        hat = self.w[:3] / n
        return float(np.arccos(np.clip(hat[2], -1.0, 1.0))), float(np.arctan2(hat[1], hat[0]))


def equator_point(rhat: np.ndarray) -> ParamPoint:
    """The band point (w, 0) over a unit 3-vector."""
    r = np.asarray(rhat, dtype=float).ravel()
    return ParamPoint(np.array([r[0], r[1], r[2], 0.0]))


@dataclass(frozen=True)
class ModelConfig:
    n_dimers: int = 2
    grid: tuple[int, int] = (32, 64)

    def __post_init__(self):
        # types first, so that no comparison meets a float, string or bool
        if not is_int(self.n_dimers):
            raise ValueError(f"n_dimers {self.n_dimers!r} must be an integer")
        if not (isinstance(self.grid, tuple) and len(self.grid) == 2
                and all(map(is_int, self.grid))):
            raise ValueError(f"grid {self.grid!r} must be two integers")
        if self.n_dimers < 2:
            raise ValueError("need at least two dimers")
        if self.grid[0] < 2 or self.grid[1] < 3:
            raise ValueError("grid must be at least 2 x 3")
        if self.grid[1] > MAX_AZIMUTHS:
            raise ValueError(f"grid {self.grid[0]}x{self.grid[1]}: ring_degree sums at "
                             f"most {MAX_AZIMUTHS} azimuths exactly")
        if self.grid[0] * RING_BYTES > MAX_GRID_BYTES:
            raise ValueError(f"grid {self.grid[0]}x{self.grid[1]} exceeds the "
                             f"{MAX_GRID_BYTES}-byte budget")

    @property
    def n_sites(self) -> int:
        return 2 * self.n_dimers


def bump(w: ParamPoint, sign: int, eps: float) -> float:
    """Ramp profile: zero where sign*w4 < eps, rising linearly to 1 at the
    pole sign*w4 = 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return max(0.0, (sign * w.w4 - eps) / (1.0 - eps))


def _check_hemisphere(w: ParamPoint, hemisphere: int, eps: float):
    if hemisphere not in (+1, -1):
        raise ValueError("hemisphere must be +1 or -1")
    if hemisphere * w.w4 <= -eps:
        raise ValueError(f"point w4={w.w4:+.4f} outside the {hemisphere:+d} hemisphere chart")


def heisenberg_coupling() -> np.ndarray:
    """sigma . sigma on two sites."""
    out = np.zeros((4, 4), dtype=np.complex128)
    for s in PAULI_VEC:
        out += kron(s, s)
    return out


def dimer_hamiltonian(w: ParamPoint, hemisphere: int, eps: float = EPSILON) -> np.ndarray:
    """Two-site dimer Hamiltonian.

    Plus hemisphere couples sites (0,1) with field w.(sigma_0 - sigma_1);
    minus couples (-1,0) with field w.(sigma_0 - sigma_{-1}), the lower
    site being the first tensor factor in both cases.
    """
    _check_hemisphere(w, hemisphere, eps)
    g = bump(w, hemisphere, eps)
    h = g * heisenberg_coupling()
    sgn = 1.0 if hemisphere == +1 else -1.0
    for comp, s in zip(w.wvec, PAULI_VEC):
        h += sgn * comp * (kron(s, eye(2)) - kron(eye(2), s))
    return h


class DimerClosedForm(NamedTuple):
    f: float
    c: float
    d: float
    spectrum: np.ndarray  # ascending: (-g-2f, g, g, -g+2f)
    ground: np.ndarray  # unit vector in C^4


def dimer_closed_form(w: ParamPoint, hemisphere: int, eps: float = EPSILON) -> DimerClosedForm:
    """Exactly solved dimer: f = sqrt(g^2 + |w|^2), gap data and the
    coordinate form of the unique ground state.

    The ground state is written in the unit direction of the in-plane
    field, which keeps it continuous across the chart (the (theta, phi)
    factors never appear); at the chart pole the singlet limit is taken.
    """
    _check_hemisphere(w, hemisphere, eps)
    g = bump(w, hemisphere, eps)
    wn = w.wnorm
    f = float(np.hypot(g, wn))
    if f <= 0.0:
        raise ValueError("f vanishes: point outside the solvable chart")
    c = float(np.sqrt((f + wn) / (2.0 * f)))
    d = float(np.sqrt((f - wn) / (2.0 * f)))
    spectrum = np.array([-g - 2 * f, g, g, -g + 2 * f], dtype=float)

    if wn > 0.0:
        hat = w.wvec / wn
    else:
        hat = np.array([0.0, 0.0, 1.0])  # c = d there, direction drops out
    up_dn = -0.5 * (d * (1.0 + hat[2]) + c * (1.0 - hat[2]))
    dn_up = +0.5 * (d * (1.0 - hat[2]) + c * (1.0 + hat[2]))
    trans = 0.5 * (d - c)
    ground = np.zeros(4, dtype=np.complex128)
    ground[0] = trans * (hat[0] - 1j * hat[1])  # |up up>
    ground[3] = -trans * (hat[0] + 1j * hat[1])  # |down down>
    if hemisphere == +1:
        ground[1] = up_dn  # |up down>
        ground[2] = dn_up  # |down up>
    else:
        ground[2] = up_dn  # |down up> carries the up-down role on (-1,0)
        ground[1] = dn_up
    return DimerClosedForm(f, c, d, spectrum, ground)


def site_rotation(theta, phi) -> np.ndarray:
    """The 2x2 unitary with U† sigma_z U = n(theta, phi) . sigma; arrays of
    angles give a stack of shape (..., 2, 2)."""
    ct, st = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ep = np.exp(1j * phi / 2.0)
    u = np.array([[ct * ep, st / ep], [-st * ep, ct / ep]], dtype=np.complex128)
    # contiguous: batches of any size take one matmul path, bit for bit
    return np.ascontiguousarray(np.moveaxis(u, (0, 1), (-2, -1)))


def dimer_swap_unitary() -> np.ndarray:
    """The fixed two-site unitary W: sends |down up> to the singlet and
    |up down> to the triplet-zero combination, fixing |up up>, |down down>."""
    w = 0.5 * (1.0 + 1.0 / np.sqrt(2.0)) * eye(4)
    w += 0.5 * (1.0 - 1.0 / np.sqrt(2.0)) * kron(SIGMA_Z, SIGMA_Z)
    w -= (1.0 / np.sqrt(2.0)) * (kron(SIGMA_PLUS, SIGMA_MINUS) - kron(SIGMA_MINUS, SIGMA_PLUS))
    return w


def reference_chain_state(n_sites: int) -> np.ndarray:
    """|up down up down ...> with up at site 1."""
    factors = [UP if i % 2 == 0 else DOWN for i in range(n_sites)]
    return kron_all([f.reshape(-1, 1) for f in factors]).ravel()


@dataclass(frozen=True)
class ChainOperators:
    """Fixed truncated-chain operators for a given size (w-independent)."""

    b_minus: np.ndarray
    b_plus: np.ndarray
    omega_r: np.ndarray

    @classmethod
    def build(cls, n_sites: int) -> "ChainOperators":
        if n_sites < 4 or n_sites % 2:
            raise ValueError("truncated chain needs an even number >= 4 of sites")
        if 16 * 4**n_sites > MAX_DENSE_BYTES:  # 16 bytes per complex amplitude
            raise ValueError(f"a dense {n_sites}-site chain operator exceeds the "
                             f"{MAX_DENSE_BYTES}-byte budget")
        wmat = dimer_swap_unitary()
        b_minus = eye(2**n_sites)
        for site in range(1, n_sites, 2):  # pairs (1,2), (3,4), ...
            b_minus = b_minus @ embed(wmat, site - 1, n_sites)
        b_plus = eye(2**n_sites)
        for site in range(2, n_sites - 1, 2):  # pairs (2,3), ..., (2N-2, 2N-1)
            b_plus = b_plus @ embed(wmat, site - 1, n_sites)
        return cls(b_minus, b_plus, reference_chain_state(n_sites))


_CHAIN_CACHE: dict[int, ChainOperators] = {}


def chain_operators(n_sites: int) -> ChainOperators:
    if n_sites not in _CHAIN_CACHE:
        _CHAIN_CACHE[n_sites] = ChainOperators.build(n_sites)
    return _CHAIN_CACHE[n_sites]


class TruncatedZ(NamedTuple):
    z: np.ndarray
    y_overlap: float  # interior overlap after removing the far boundary dimer
    y_raw: complex  # raw <Omega_R, M Omega_R>
    omega_r: np.ndarray


def _site_rotation_chain(theta: float, phi: float, n_sites: int) -> np.ndarray:
    u2 = site_rotation(theta, phi)
    return kron_all([u2] * n_sites)


def truncated_Z(w: ParamPoint, cfg: ModelConfig, branch=None) -> TruncatedZ:
    """Truncated cocycle unitary z on the right half-chain.

    Builds M = B- G† B-† B+† G B+ U1† on sites 1..2N and phase-fixes it to
    have positive overlap with the reference state. The far end of the
    chain is the only place truncation acts: the B+ product leaves site 2N
    unpaired, so M carries an exactly known one-site defect there. The
    reported y_overlap therefore measures the overlap of the reduced state
    on sites 1..2N-2 (far dimer traced out) against the reference pattern;
    values below 0.9 mean contamination has reached the interior and the
    construction must not proceed.

    This is the dense oracle: it multiplies 2^(2N) x 2^(2N) matrices, so
    `chain_operators` refuses N > 5 (MAX_DENSE_BYTES) with ValueError before
    allocating. The sweep never builds it; see `_equator_window`.
    """
    if abs(w.w4) >= EPSILON:
        raise ValueError(f"point w4={w.w4:+.4f} outside the equatorial band |w4| < {EPSILON}")
    theta, phi = w.theta_phi() if branch is None else (float(branch[0]), float(branch[1]))
    ops = chain_operators(cfg.n_sites)
    n = cfg.n_sites
    g_all = _site_rotation_chain(theta, phi, n)
    u1 = embed(site_rotation(theta, phi), 0, n)
    m = (
        ops.b_minus
        @ g_all.conj().T
        @ ops.b_minus.conj().T
        @ ops.b_plus.conj().T
        @ g_all
        @ ops.b_plus
        @ u1.conj().T
    )
    m_omega = m @ ops.omega_r
    y = complex(np.vdot(ops.omega_r, m_omega))
    y_overlap = _interior_overlap(m_omega, n)
    if y_overlap < Y_OVERLAP_GATE:
        raise NumericalGateError(
            f"interior overlap {y_overlap:.6f} < {Y_OVERLAP_GATE}: boundary contamination"
        )
    if abs(y) < PHASE_FIX_TOL:
        raise NumericalGateError("reference overlap vanishes; cannot phase-fix the lift")
    y_fixed = m * (abs(y) / y)
    z = y_fixed @ u1
    return TruncatedZ(z=z, y_overlap=y_overlap, y_raw=y, omega_r=ops.omega_r)


def _pattern(n_sites: int) -> int:
    """Basis index of |up down up ...> (up=0, site 1 most significant)."""
    return int(("01" * n_sites)[:n_sites], 2)


def _interior_overlap(m_omega: np.ndarray, n_sites: int) -> np.ndarray:
    """Overlap of the reduced state on sites 1..2N-2 with the reference
    pattern, after tracing out the far boundary dimer; vectorised over
    leading axes of m_omega, one value per state."""
    rows = m_omega.reshape(*m_omega.shape[:-1], 2 ** (n_sites - 2), 4)
    return np.linalg.norm(rows[..., _pattern(n_sites - 2), :], axis=-1)


_W = dimer_swap_unitary()
_W_DAG = _W.conj().T


class _EquatorBatch(NamedTuple):
    zdag_omega: np.ndarray  # (P, 2^n) phase-fixed z† Omega_R
    y_raw: np.ndarray  # (P,) <Omega_R, M Omega_R>
    y_overlap: np.ndarray  # (P,) interior overlap of M Omega_R
    weight: np.ndarray  # (P,) in-span weight modulo the far site
    rays: np.ndarray  # (P, 2) unit rays in span{Omega_R, sx_1 Omega_R}
    far: np.ndarray  # (P, 2) unit far-site factor of the ray's singular pair
    u: np.ndarray  # (P, 2, 2) the site rotation u(theta, phi) of each point


def _layer(psi: np.ndarray, gate: np.ndarray, sites) -> np.ndarray:
    """Apply `gate` at each of `sites` to a batch of chain states stored
    points last, (2^n, P); `psi` itself is never written.

    A stack of per-point 2x2 matrices g (P, 2, 2) acts on site i as two
    elementwise combinations of the slices x0, x1 of the site's index,
    out0 = g00 x0 + g01 x1 and out1 = g10 x0 + g11 x1, each a loop over the
    P points. A fixed 4x4 gate acts on the pair (i, i+1) through one
    matmul call: for each of the 2^i states of the sites before i, a 4x4
    by 4 x (2^(n-i-2) P) product over every point at once. Neither runs a
    product per point. Successive sites write into two reused buffers."""
    p = psi.shape[-1]
    if gate.ndim == 3:
        g = np.ascontiguousarray(np.moveaxis(gate, 0, -1))[:, :, None, :]  # (2, 2, 1, P)
        tmp = np.empty(psi.shape, np.complex128)
    spare = None
    for k, i in enumerate(sites):
        out = np.empty(psi.shape, np.complex128) if spare is None else spare
        if gate.ndim == 2:
            np.matmul(gate, psi.reshape(2**i, 4, -1), out=out.reshape(2**i, 4, -1))
        else:
            x, o = psi.reshape(2**i, 2, -1, p), out.reshape(2**i, 2, -1, p)
            np.multiply(g[:, 0], x[:, :1], out=o)
            o += np.multiply(g[:, 1], x[:, 1:], out=tmp.reshape(o.shape))
        spare, psi = (psi if k else None), out  # reuse all but the caller's array
    return psi


def _brick(psi: np.ndarray, w: np.ndarray, u: np.ndarray, pairs, sites) -> np.ndarray:
    """One brick of the brickwork on a points-last batch: w† on each of
    `pairs`, then u on each of `sites`, then w on each of `pairs`."""
    return _layer(_layer(_layer(psi, w.conj().T, pairs), u, sites), w, pairs)


def _pair(w: np.ndarray, u: np.ndarray, index: int) -> np.ndarray:
    """The two-site state w(u⊗u)w†|index> at P points, points last (4, P),
    for site rotations u (P, 2, 2). w acts column by column: a matmul with
    one column (P = 1) takes another BLAS kernel, whose last bits differ.
    Either order of the two u is exact; site 2's first keeps the sweep's
    degree_integrality at 0.0 on 32x64, where the other reads 1 ulp."""
    x = _layer(np.tile(w.conj().T[:, index, None], (1, len(u))), u, (1, 0))
    return sum(w[:, j, None] * x[j] for j in range(4))


def _product(factors) -> np.ndarray:
    """Kronecker product, point by point, of points-last states (d_i, P)."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None] * f[None]).reshape(-1, out.shape[-1])
    return out


def _dominant_pair(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant singular pair of a stack of nonzero 2x2 blocks B (P, 2, 2)
    in closed form: returns sigma1^2 (P,), the unit left vector u (P, 2) and
    the unit right factor u†B / sigma1 (P, 2).

    sigma1^2 is the larger eigenvalue of B B† = [[a, b], [b*, d]],
    (a+d)/2 + hypot((a-d)/2, |b|). u is its eigenvector (sigma1^2 - d, b*)
    where a >= d and (b, sigma1^2 - a) elsewhere, normalized: the better
    conditioned form, whose norm is at least hypot((a-d)/2, |b|), half the
    gap. Where that vanishes (B B† = a 1, sigma1 = sigma2) every unit vector
    is dominant and u is |up>."""
    a, d = np.sum(np.abs(block) ** 2, axis=-1).T
    b = np.sum(block[:, 0] * block[:, 1].conj(), axis=-1)
    lam = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(b))
    v = np.where((a >= d)[:, None], np.stack([lam - d, b.conj()], axis=-1),
                 np.stack([b, lam - a], axis=-1))
    norm = np.linalg.norm(v, axis=-1)
    zero = norm == 0.0
    v[zero, 0], norm[zero] = 1.0, 1.0
    u = v / norm[:, None]
    far = np.sum(u.conj()[:, :, None] * block, axis=1) / np.sqrt(lam)[:, None]
    return lam, u, far


def _equator_batch(theta: np.ndarray, phi: np.ndarray, n: int) -> _EquatorBatch:
    """z† Omega_R and its monitors at P band points: two-site pair states,
    then one brick of the brickwork on the chain for each path.

    M† Omega = U1 B+† G† B+ B- G B-† Omega with B- = W on the pairs (1,2),
    (3,4), ..., B+ = W on (2,3), ..., (2N-2, 2N-1), G = u^(x)2N and U1 = u
    on site 1; M Omega runs the adjoint layers in reverse. The first brick
    of each path acts on disjoint pairs of the product state Omega =
    |0101...>, so it is formed once, on the per-point pair state
    phi = W(u⊗u)W†|01> (4, P), and the chain state is a product of pair
    states (`_product`): B- G B-† Omega = phi^(x)N, and B+† G B+ U1† Omega
    = |0> ⊗ psi^(x)(N-1) ⊗ u|1> with psi = W†(u⊗u)W|10> = S phi, since
    W† = S W S for the swap S of a pair's sites. The second brick runs on
    the 2^n amplitudes: `_layer` applies each site rotation as slice
    combinations and each pair layer as one product over the batch. On
    M Omega it leaves out the gates that act on the far dimer alone (W,
    W† and u† on sites 2N-1, 2N, and the first brick's u on site 2N):
    they commute with every gate after them and are traced out of
    y_overlap, the one value read from M Omega. <Omega, M Omega> is read
    from the two amplitudes of U1† M† Omega that site 1's u takes into
    the reference pattern. The ray and far-site factor are the dominant
    singular pair of the (site 1) x (far site) block in closed form
    (`_dominant_pair`). So no step runs a product or a LAPACK call per
    point. Gate failures are raised for the first failing point in batch
    order.
    """
    u = site_rotation(theta, phi)
    u_dag = u.conj().swapaxes(-1, -2)
    pair = _pair(_W, u, 1)
    s = _brick(_product([pair] * (n // 2)), _W_DAG, u_dag, range(1, n - 2, 2), range(n))
    m_omega = np.zeros((2, 2 ** (n - 2), 2, len(u)), dtype=np.complex128)
    m_omega[0, :, 1] = _product([pair[[0, 2, 1, 3]]] * (n // 2 - 1))  # |0> psi^(x)(N-1) |1>
    m_omega = _brick(m_omega.reshape(2**n, -1), _W, u_dag, range(0, n - 2, 2), range(n - 2))
    ref = _pattern(n)
    # <Omega, M Omega> = conj <Omega, U1 (U1† M† Omega)>: site 1 is up in the pattern
    y = (u[:, 0, 0] * s[ref] + u[:, 0, 1] * s[ref + 2 ** (n - 1)]).conj()

    block = np.moveaxis(s.reshape(2, 2 ** (n - 2), 2, -1)[:, _pattern(n - 1)], -1, 0)
    lam, rays, far = _dominant_pair(block)
    # the rows summed in sequence (cumsum), so a point's weight is the same in any batch
    weight = lam / np.cumsum(np.abs(s) ** 2, axis=0)[-1]
    bad = (np.abs(y) < PHASE_FIX_TOL) | (weight < 1.0 - PROJECTION_WEIGHT_GATE)
    if bad.any():
        i = int(np.argmax(bad))
        if abs(y[i]) < PHASE_FIX_TOL:
            raise NumericalGateError("reference overlap vanishes; cannot phase-fix the lift")
        raise NumericalGateError(
            f"projection weight {weight[i]:.9f} deficient: state left the invariant span"
        )
    zdag_omega = (s * (y / np.abs(y))).T
    return _EquatorBatch(zdag_omega, y, _interior_overlap(m_omega.T, n), weight, rays, far, u)


class _Window(NamedTuple):
    rays: np.ndarray  # (P, 2) site-1 rays
    weight: np.ndarray  # (P,) in-span weight, worst of left window and bulk bond
    y_overlap: np.ndarray  # (P,) interior overlap, worst of left window and bulk bond


def _bond(x: np.ndarray, u: np.ndarray, w: np.ndarray, pattern: int) -> np.ndarray:
    """One bulk bond of the brickwork at P points: V = w†(u†⊗u†)w applied to
    x ⊗ w(u⊗u)w†|3 - pattern>, for site vectors x (P, 2), projected onto
    `pattern` (a two-site basis index) on its first two sites. Returns the
    third site's vector (P, 2)."""
    psi = _product([x.T, _pair(w, u, 3 - pattern)])
    psi = _brick(psi, w.conj().T, u.conj().swapaxes(-1, -2), (0,), (0, 1))
    return psi.reshape(4, 2, -1)[pattern].T


def _equator_window(theta: np.ndarray, phi: np.ndarray, n_dimers: int) -> _Window:
    """Rays and monitors of the N-dimer sweep at P band points, at a cost
    independent of N.

    M† is a depth-2 brickwork of two-site gates plus U1, so its light cone
    has radius 2. Ray, weight, interior overlap and phase fix come from the
    N=2 chain. For N >= 3 one bulk bond is checked per point and side: on
    the M† side V = W†(u†⊗u†)W on ξ ⊗ W(u⊗u)W†|01>, with ξ the N=2 far
    site before its end-site u†, must give |10> ⊗ ξ up to a phase; on the
    M Ω side W and W† trade places and the pattern is |01>. By induction
    the N-chain then carries the N=2 result. Each bond's fidelity
    |<pattern ⊗ x, out>| enters the monitor of its side: squared into the
    gated weight, and as is into y_overlap.
    """
    left = _equator_batch(theta, phi, 4)
    if n_dimers == 2:
        return _Window(left.rays, left.weight, left.y_overlap)
    u = left.u
    xi = np.sum(u * left.far[:, None, :], axis=-1)  # unit: u is unitary
    up = np.zeros_like(xi)
    up[:, 0] = 1.0
    eta = _bond(up, u, _W_DAG, 1)  # site 3 once sites 1, 2 hold |01>
    eta /= np.linalg.norm(eta, axis=-1, keepdims=True)
    fid_dag = np.abs(np.sum(xi.conj() * _bond(xi, u, _W, 2), axis=-1))
    fid = np.abs(np.sum(eta.conj() * _bond(eta, u, _W_DAG, 1), axis=-1))
    weight = np.minimum(left.weight, fid_dag**2)
    bad = weight < 1.0 - PROJECTION_WEIGHT_GATE
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalGateError(
            f"bulk bond weight {fid_dag[i] ** 2:.9f} deficient: the bulk leaves the "
            f"reference pattern, N={n_dimers} is not certified"
        )
    return _Window(left.rays, weight, np.minimum(left.y_overlap, fid))


def _bloch_vectors(theta, phi) -> np.ndarray:
    """Ground vectors (..., 2) of -n(theta, phi).sigma."""
    half_phase = np.exp(1j * phi / 2.0)
    return np.stack([np.cos(theta / 2.0) / half_phase, np.sin(theta / 2.0) * half_phase], axis=-1)


def bloch_ground_map(r: np.ndarray) -> np.ndarray:
    """Unit ground vector of -r.sigma for a unit 3-vector r; its rank-one
    projector is (1 + r.sigma)/2."""
    r = np.asarray(r, dtype=float).ravel()
    if abs(np.linalg.norm(r) - 1.0) > 1e-10:
        raise ValueError("bloch_ground_map expects a unit vector")
    return _bloch_vectors(np.arccos(np.clip(r[2], -1.0, 1.0)), np.arctan2(r[1], r[0]))


@dataclass
class InvariantRecord:
    degree: int
    bloch_degree: int
    agreement: bool
    max_flux: float
    bloch_max_flux: float
    y_overlap_min: float
    weight_min: float
    ray_agreement_min: float
    integrality: float
    passed: bool = False  # the verdict: _gate_failure found no failing gate


def _gate_failure(rec: InvariantRecord) -> str | None:
    """The first gate of the invariant verdict that `rec` fails, by name, or
    None: the projected and Bloch degrees agree, and y_overlap_min and
    ray_agreement_min lie within Y_OVERLAP_SLACK and RAY_AGREEMENT_SLACK,
    times PHASELAB_TOL_SCALE, of 1."""
    scale = tol_scale()
    if not rec.agreement:
        return (f"agreement gate: projected degree {rec.degree} disagrees with Bloch "
                f"degree {rec.bloch_degree}")
    for name, value, slack in (
        ("y_overlap", rec.y_overlap_min, Y_OVERLAP_SLACK),
        ("ray_agreement", rec.ray_agreement_min, RAY_AGREEMENT_SLACK),
    ):
        if not value >= 1.0 - slack * scale:
            return f"{name} gate: minimum {value:.9f} < {1.0 - slack * scale}"
    return None


def invariant_sweep(cfg: ModelConfig) -> InvariantRecord:
    """Headline computation: sweep the equator 2-sphere, extract the ray
    field of the projected equator map with the window kernel
    `_equator_window`, compare its lattice degree with the Bloch
    ground-state field on the same grid, and judge the result by its gates
    (_gate_failure) into `passed`. Neither time nor memory depends on
    cfg.n_dimers.

    The kernel runs once a ring, at phi = 0, SWEEP_POINTS rings at a time,
    and each ring's ray is turned through the azimuths. W conserves total
    S_z and u(theta, phi) = R(theta) diag(e^{i phi/2}, e^{-i phi/2}) with
    R real, so U1† M† Omega at (theta, phi) is that at (theta, 0) times
    diag(e^{-i phi/2}, e^{i phi/2}) on every site, up to a phase: the ray
    (r0, r1) turns to (r0 / e^{i phi}, r1), and the weight, interior
    overlap and bulk-bond fidelities do not depend on phi. The Bloch
    vector (c / e^{i phi/2}, s e^{i phi/2}) is its ring's at phi = 0
    turned the same way, up to a phase, so |<z, b>| = |conj(r0) c +
    conj(r1) s| at every azimuth: the ray agreement is taken on the rings,
    against the Bloch rings at phi = 0, and so are both degrees
    (`ring_degree`), which no phase at a point changes. The sweep holds
    O(K) memory and no array of length M, so it compares no grid point with
    an independently formed field; the tests compare the turned rings with
    the window and with the dense oracle at every grid point.
    """
    k_dim, m_dim = cfg.grid
    thetas = ring_latitudes(k_dim)
    rings = np.empty((k_dim, 2), dtype=np.complex128)
    y_min = weight_min = np.inf
    for start in range(0, k_dim, SWEEP_POINTS):
        part = slice(start, start + SWEEP_POINTS)
        win = _equator_window(thetas[part], 0.0, cfg.n_dimers)
        rings[part] = win.rays
        y_min = min(y_min, np.min(win.y_overlap))
        weight_min = min(weight_min, np.min(win.weight))
    bloch = _bloch_vectors(thetas, 0.0)
    agree_min = np.min(np.abs(np.sum(rings.conj() * bloch, axis=1)))
    deg = ring_degree(rings, m_dim)
    bdeg = ring_degree(bloch, m_dim)
    rec = InvariantRecord(
        degree=deg.degree,
        bloch_degree=bdeg.degree,
        agreement=deg.degree == bdeg.degree,
        max_flux=deg.max_flux,
        bloch_max_flux=bdeg.max_flux,
        y_overlap_min=float(y_min),
        weight_min=float(weight_min),
        ray_agreement_min=float(agree_min),
        integrality=deg.integrality,
    )
    rec.passed = _gate_failure(rec) is None
    return rec


class ProductBound(NamedTuple):
    bound: float
    witness: float
    exact: float


def product_distance_bound(r: np.ndarray, s: np.ndarray, n_sites: int) -> ProductBound:
    """Distance data for N-site product ground states of the
    noninteracting chain at Bloch directions r and s.

    bound = |1 - (r.s)^N| is certified by the tensor-power witness
    H_N(r) = (x)^N (-r.sigma); `exact` is the trace-norm distance of the
    two product densities and dominates the witness.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    r = np.asarray(r, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    bound = abs(1.0 - float(np.dot(r, s)) ** n_sites)

    vr = bloch_ground_map(r)
    vs = bloch_ground_map(s)
    rho_r = np.outer(vr, vr.conj())
    rho_s = np.outer(vs, vs.conj())
    h1 = -sum(comp * sig for comp, sig in zip(r, PAULI_VEC))
    rho_r_n = kron_all([rho_r] * n_sites)
    rho_s_n = kron_all([rho_s] * n_sites)
    h_n = kron_all([h1] * n_sites)
    witness = abs(np.trace((rho_r_n - rho_s_n) @ h_n).real)
    exact = trace_norm(rho_r_n - rho_s_n)
    return ProductBound(bound=float(bound), witness=float(witness), exact=exact)
