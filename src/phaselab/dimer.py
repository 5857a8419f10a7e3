"""The S3-parametrized spin-1/2 dimer chain.

Closed-form spectra and ground states of the two-site Hamiltonians, the
explicit transition unitaries on the equatorial band, the truncated
half-chain cocycle unitary, the projected equator map, the degree-valued
invariant, and the noninteracting product-state distance bound.

Conventions: |up> = (1,0), |down> = (0,1); for a two-site block the first
tensor factor is the lower-numbered site. The truncated right chain has
sites 1..2N; its reference state alternates up/down starting up at site 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cech import plaquette_degree, sphere_grid
from .linalg import (
    DOWN,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    UP,
    embed_pair_operator,
    embed_site_operator,
    eye,
    kron,
    kron_all,
    spin_chain,
)
from .projective import Ray
from .util import NumericalGateError

PAULI_VEC = (SIGMA_X, SIGMA_Y, SIGMA_Z)

Y_OVERLAP_GATE = 0.9
PROJECTION_WEIGHT_GATE = 1e-6
PHASE_FIX_TOL = 1e-12

# Amplitudes per batch array of the equator sweep, to bound its peak memory:
# the gate kernel runs on chunks of max(1, SWEEP_BUDGET // 2^(2N)) points.
SWEEP_BUDGET = 2**13
# Bytes of the largest single 2^(2N)-amplitude chain state a model may need.
MAX_STATE_BYTES = 2**24


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


def param_point(w1: float, w2: float, w3: float, w4: float) -> ParamPoint:
    return ParamPoint(np.array([w1, w2, w3, w4], dtype=float))


def equator_point(rhat: np.ndarray) -> ParamPoint:
    """The band point (w, 0) over a unit 3-vector."""
    r = np.asarray(rhat, dtype=float).ravel()
    return ParamPoint(np.array([r[0], r[1], r[2], 0.0]))


@dataclass(frozen=True)
class ModelConfig:
    epsilon: float = 0.25
    n_dimers: int = 2
    grid: tuple[int, int] = (32, 64)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.n_dimers < 2:
            raise ValueError("need at least two dimers")
        if self.grid[0] < 2 or self.grid[1] < 3:
            raise ValueError("grid must be at least 2 x 3")
        if 16 * 4**self.n_dimers > MAX_STATE_BYTES:  # 16 bytes per complex amplitude
            raise ValueError(f"n_dimers={self.n_dimers}: a 2^{2 * self.n_dimers}-amplitude chain "
                             f"state exceeds the {MAX_STATE_BYTES}-byte budget")

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


def dimer_hamiltonian(w: ParamPoint, hemisphere: int, eps: float = 0.25) -> np.ndarray:
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


def dimer_closed_form(w: ParamPoint, hemisphere: int, eps: float = 0.25) -> DimerClosedForm:
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


def _band_branch(w: ParamPoint, eps: float, branch=None) -> tuple[float, float]:
    if abs(w.w4) >= eps:
        raise ValueError(f"point w4={w.w4:+.4f} outside the equatorial band |w4| < {eps}")
    return w.theta_phi() if branch is None else (float(branch[0]), float(branch[1]))


def dimer_transport(w: ParamPoint, hemisphere: int, eps: float = 0.25, branch=None) -> np.ndarray:
    """Band transition unitary of one dimer: carries the reference ground
    state at (0,0,1,0) to the ground state at w, on the nose."""
    theta, phi = _band_branch(w, eps, branch)
    u2 = site_rotation(theta, phi)
    u = kron(u2, u2)
    wmat = dimer_swap_unitary()
    if hemisphere == +1:
        return u.conj().T @ wmat.conj().T @ u @ wmat
    if hemisphere == -1:
        return u.conj().T @ wmat @ u @ wmat.conj().T
    raise ValueError("hemisphere must be +1 or -1")


def reference_chain_state(n_sites: int) -> np.ndarray:
    """|up down up down ...> with up at site 1."""
    factors = [UP if i % 2 == 0 else DOWN for i in range(n_sites)]
    return kron_all([f.reshape(-1, 1) for f in factors]).ravel()


@dataclass(frozen=True)
class ChainOperators:
    """Fixed truncated-chain operators for a given size (w-independent)."""

    n_sites: int
    b_minus: np.ndarray
    b_plus: np.ndarray
    omega_r: np.ndarray

    @classmethod
    def build(cls, n_sites: int) -> "ChainOperators":
        if n_sites < 4 or n_sites % 2:
            raise ValueError("truncated chain needs an even number >= 4 of sites")
        layout = spin_chain(n_sites)
        wmat = dimer_swap_unitary()
        b_minus = eye(2**n_sites)
        for site in range(1, n_sites, 2):  # pairs (1,2), (3,4), ...
            b_minus = b_minus @ embed_pair_operator(wmat, site - 1, layout)
        b_plus = eye(2**n_sites)
        for site in range(2, n_sites - 1, 2):  # pairs (2,3), ..., (2N-2, 2N-1)
            b_plus = b_plus @ embed_pair_operator(wmat, site - 1, layout)
        return cls(n_sites, b_minus, b_plus, reference_chain_state(n_sites))


_CHAIN_CACHE: dict[int, ChainOperators] = {}


def chain_operators(n_sites: int) -> ChainOperators:
    if n_sites not in _CHAIN_CACHE:
        _CHAIN_CACHE[n_sites] = ChainOperators.build(n_sites)
    return _CHAIN_CACHE[n_sites]


class TruncatedZ(NamedTuple):
    z: np.ndarray
    y_overlap: float  # interior overlap after removing the far boundary dimer
    y_raw: complex  # raw <Omega_R, M Omega_R>
    m: np.ndarray
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
    """
    theta, phi = _band_branch(w, cfg.epsilon, branch)
    ops = chain_operators(cfg.n_sites)
    n = cfg.n_sites
    layout = spin_chain(n)
    g_all = _site_rotation_chain(theta, phi, n)
    u1 = embed_site_operator(site_rotation(theta, phi), 0, layout)
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
    return TruncatedZ(z=z, y_overlap=y_overlap, y_raw=y, m=m, omega_r=ops.omega_r)


def _pattern(n_sites: int) -> int:
    """Basis index of |up down up ...> (up=0, site 1 most significant)."""
    return int(("01" * n_sites)[:n_sites], 2)


def _interior_overlap(m_omega: np.ndarray, n_sites: int) -> float:
    """Overlap of the reduced state on sites 1..2N-2 with the reference
    pattern, after tracing out the far boundary dimer; vectorised over
    leading axes of m_omega."""
    rows = m_omega.reshape(*m_omega.shape[:-1], 2 ** (n_sites - 2), 4)
    return np.linalg.norm(rows[..., _pattern(n_sites - 2), :], axis=-1)


class EquatorPoint(NamedTuple):
    ray: Ray
    amplitudes: np.ndarray  # strict projection onto span{Omega_R, sx_1 Omega_R}
    weight: float  # in-span weight after quotienting the far-site defect
    y_overlap: float
    y_raw: complex


class _EquatorBatch(NamedTuple):
    zdag_omega: np.ndarray  # (P, 2^n) phase-fixed z† Omega_R
    y_raw: np.ndarray  # (P,) <Omega_R, M Omega_R>
    y_overlap: np.ndarray  # (P,) interior overlap of M Omega_R
    weight: np.ndarray  # (P,) in-span weight modulo the far site
    rays: np.ndarray  # (P, 2) unit rays in span{Omega_R, sx_1 Omega_R}


def _layer(psi: np.ndarray, gate: np.ndarray, sites) -> np.ndarray:
    """Apply `gate` at each of `sites` to a batch of chain states (P, 2^n):
    a fixed 4x4 gate acts on the pair (i, i+1), a stack of per-state 2x2
    matrices (P, 2, 2) on site i."""
    d = gate.shape[-1]
    g = gate if gate.ndim == 2 else gate[:, None]
    for i in sites:
        psi = (g @ psi.reshape(len(psi), 2**i, d, -1)).reshape(psi.shape)
    return psi


def _equator_batch(theta: np.ndarray, phi: np.ndarray, n: int) -> _EquatorBatch:
    """z† Omega_R and its monitors at P band points, one gate layer at a time.

    M† Omega = U1 B+† G† B+ B- G B-† Omega with B- = W on the pairs (1,2),
    (3,4), ..., B+ = W on (2,3), ..., (2N-2, 2N-1), G = u^(x)2N and U1 = u
    on site 1; M Omega runs the adjoint layers in reverse. Gate failures
    are raised for the first failing point in batch order.
    """
    u, w = site_rotation(theta, phi), dimer_swap_unitary()
    u_dag, w_dag = u.conj().swapaxes(-1, -2), w.conj().T
    minus, plus, every = range(0, n, 2), range(1, n - 2, 2), range(n)
    layers = ((w_dag, minus), (u, every), (w, minus), (w, plus), (u_dag, every), (w_dag, plus))
    ref = _pattern(n)
    omega = np.zeros((len(u), 2**n), dtype=np.complex128)
    omega[:, ref] = 1.0
    s = omega  # U1† M† Omega
    for gate, sites in layers:
        s = _layer(s, gate, sites)
    m_omega = _layer(omega, u_dag, [0])
    for gate, sites in reversed(layers):
        m_omega = _layer(m_omega, gate.conj().swapaxes(-1, -2), sites)
    y = _layer(s, u, [0])[:, ref].conj()  # <Omega, M Omega> = conj <Omega, M† Omega>

    block = s.reshape(len(s), 2, 2 ** (n - 2), 2)[:, :, _pattern(n - 1), :]
    u_svd, svals, _ = np.linalg.svd(block)
    weight = svals[:, 0] ** 2 / np.sum(np.abs(s) ** 2, axis=1)
    bad = (np.abs(y) < PHASE_FIX_TOL) | (weight < 1.0 - PROJECTION_WEIGHT_GATE)
    if bad.any():
        i = int(np.argmax(bad))
        if abs(y[i]) < PHASE_FIX_TOL:
            raise NumericalGateError("reference overlap vanishes; cannot phase-fix the lift")
        raise NumericalGateError(
            f"projection weight {weight[i]:.9f} deficient: state left the invariant span"
        )
    zdag_omega = (y / np.abs(y))[:, None] * s
    return _EquatorBatch(zdag_omega, y, _interior_overlap(m_omega, n), weight, u_svd[:, :, 0])


def projected_equator_map(w: ParamPoint, cfg: ModelConfig, branch=None) -> EquatorPoint:
    """Ray in span{Omega_R, sigma^x_1 Omega_R} carried by z† Omega_R.

    The strict amplitudes are the inner products against the two basis
    states. Because the truncated chain carries a known one-site defect at
    the far boundary, ray and in-span weight come from the dominant
    singular pair of the 2x2 block over (site-1 sector) x (far site); a
    weight deficit signals an assembly bug.
    """
    if abs(w.w4) >= cfg.epsilon:
        raise ValueError("projected equator map needs a band point (|w4| < epsilon)")
    theta, phi = w.theta_phi() if branch is None else (float(branch[0]), float(branch[1]))
    pt = _equator_batch(np.array([theta]), np.array([phi]), cfg.n_sites)
    amps = pt.zdag_omega[0].reshape(2, -1)[:, _pattern(cfg.n_sites)]  # site 1 up, down
    return EquatorPoint(Ray(pt.rays[0]), amps, float(pt.weight[0]), float(pt.y_overlap[0]),
                        complex(pt.y_raw[0]))


def _bloch_vectors(theta, phi) -> np.ndarray:
    """Ground vectors (..., 2) of -n(theta, phi).sigma."""
    half_phase = np.exp(1j * phi / 2.0)
    return np.stack([np.cos(theta / 2.0) / half_phase, np.sin(theta / 2.0) * half_phase], axis=-1)


def bloch_ground_map(r: np.ndarray) -> Ray:
    """Ground ray of -r.sigma for a unit 3-vector r; its rank-one
    projector is (1 + r.sigma)/2."""
    r = np.asarray(r, dtype=float).ravel()
    if abs(np.linalg.norm(r) - 1.0) > 1e-10:
        raise ValueError("bloch_ground_map expects a unit vector")
    return Ray(_bloch_vectors(np.arccos(np.clip(r[2], -1.0, 1.0)), np.arctan2(r[1], r[0])))


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
    grid: tuple[int, int]
    n_dimers: int
    epsilon: float


def invariant_sweep(cfg: ModelConfig, constant_field: bool = False) -> InvariantRecord:
    """Headline computation: sweep the equator 2-sphere, extract the ray
    field of the projected equator map, chunk by chunk of grid points, and
    compare its lattice degree with the Bloch ground-state field on the
    same grid.

    `constant_field` replaces the projected field by a constant ray (a
    degree-0 sanity debug mode).
    """
    k_dim, m_dim = cfg.grid
    theta, phi = (a.ravel() for a in np.meshgrid(*sphere_grid(k_dim, m_dim), indexing="ij"))
    bloch = _bloch_vectors(theta, phi)
    field = np.zeros_like(bloch)
    if constant_field:
        field[:, 0] = 1.0
        y_min = weight_min = 1.0
        agree_min = 0.0
    else:
        y_min = weight_min = np.inf
        chunk = max(1, SWEEP_BUDGET // 2**cfg.n_sites)
        for start in range(0, len(theta), chunk):
            part = slice(start, start + chunk)
            pts = _equator_batch(theta[part], phi[part], cfg.n_sites)
            field[part] = pts.rays
            y_min = min(y_min, np.min(pts.y_overlap))
            weight_min = min(weight_min, np.min(pts.weight))
        agree_min = np.min(np.abs(np.sum(field.conj() * bloch, axis=-1)))
    deg = plaquette_degree(field.reshape(k_dim, m_dim, 2))
    bdeg = plaquette_degree(bloch.reshape(k_dim, m_dim, 2))
    return InvariantRecord(
        degree=deg.degree,
        bloch_degree=bdeg.degree,
        agreement=(deg.degree == bdeg.degree) if not constant_field else False,
        max_flux=deg.max_flux,
        bloch_max_flux=bdeg.max_flux,
        y_overlap_min=float(y_min),
        weight_min=float(weight_min),
        ray_agreement_min=float(agree_min),
        integrality=deg.integrality,
        grid=cfg.grid,
        n_dimers=cfg.n_dimers,
        epsilon=cfg.epsilon,
    )


def invariant_degree(cfg: ModelConfig) -> int:
    """The integer invariant of the dimer model on the given grid."""
    rec = invariant_sweep(cfg)
    if not rec.agreement:
        raise NumericalGateError(
            f"projected degree {rec.degree} disagrees with Bloch degree {rec.bloch_degree}"
        )
    return rec.degree


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

    vr = bloch_ground_map(r).vec
    vs = bloch_ground_map(s).vec
    rho_r = np.outer(vr, vr.conj())
    rho_s = np.outer(vs, vs.conj())
    h1 = -sum(comp * sig for comp, sig in zip(r, PAULI_VEC))
    rho_r_n = kron_all([rho_r] * n_sites)
    rho_s_n = kron_all([rho_s] * n_sites)
    h_n = kron_all([h1] * n_sites)
    witness = abs(np.trace((rho_r_n - rho_s_n) @ h_n).real)
    exact = float(np.sum(np.linalg.svd(rho_r_n - rho_s_n, compute_uv=False)))
    return ProductBound(bound=float(bound), witness=float(witness), exact=exact)
