"""Discrete Cech machinery on sampled covers.

Covers carry finitely many sample points per overlap; cochains are valued
in U(1) or in unitaries-mod-phase. Includes the cocycle checker, pullback
refinement of U(1) cochains, the two-chart coboundary/winding decision,
the delta_1 lift of unitary-valued lifts to a U(1)-valued 2-cochain, and
the plaquette (lattice-degree) extraction on closed S^2 grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import eye, operator_norm
from .util import NumericalGateError

COCYCLE_TOL = 1e-8
SCALAR_TOL = 1e-8
UNIT_MODULUS_TOL = 1e-10
LINK_OVERLAP_TOL = 1e-12
DEGREE_INT_TOL = 1e-6


def _pair_key(i, j):
    return (i, j) if i <= j else (j, i)


def _point(p):
    """Sample points are compared as tuples, so rows of arrays and lists
    name the same point."""
    return tuple(p) if isinstance(p, (list, tuple, np.ndarray)) else p


@dataclass
class SampledCover:
    """Indexed cover with sampled pairwise and triple overlap points.

    Overlap samples are stored once per unordered pair, in a fixed order
    that cochain values are aligned with. `triple_positions[(i, j, k)]`
    holds, for the triple's points in order, their positions in the
    overlaps (i, j), (j, k) and (i, k).
    """

    chart_ids: list
    overlaps: dict = field(default_factory=dict)  # (i,j) with i<j -> [points]
    triples: dict = field(default_factory=dict)  # (i,j,k) with i<j<k -> [points]
    triple_positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        charts = set(self.chart_ids)
        clean = {}
        for (i, j), pts in self.overlaps.items():
            if i == j or i not in charts or j not in charts:
                raise ValueError(f"bad overlap pair ({i},{j})")
            key = _pair_key(i, j)
            pts = [_point(p) for p in pts]
            if key in clean and clean[key] != pts:
                raise ValueError(f"inconsistent samples for overlap {key}")
            clean[key] = pts
        self.overlaps = clean
        # the first position of each point on each overlap
        self._where = {
            key: {p: k for k, p in reversed(list(enumerate(pts)))} for key, pts in clean.items()
        }
        given, self.triples, self.triple_positions = self.triples, {}, {}
        for trip, pts in given.items():
            i, j, k = sorted(trip)
            if len({i, j, k}) != 3 or not {i, j, k} <= charts:
                raise ValueError(f"bad triple {trip}")
            pts = [_point(p) for p in pts]
            pos = {}
            for a, b in ((i, j), (i, k), (j, k)):
                where = self._where.get((a, b), {})
                try:
                    pos[(a, b)] = np.array([where[p] for p in pts], dtype=np.intp)
                except KeyError as exc:
                    raise ValueError(
                        f"triple point {exc.args[0]} of {trip} missing from overlap ({a},{b})"
                    ) from None
            self.triples[(i, j, k)] = pts
            self.triple_positions[(i, j, k)] = (pos[(i, j)], pos[(j, k)], pos[(i, k)])

    def overlap_points(self, i, j) -> list:
        return self.overlaps.get(_pair_key(i, j), [])

    def pair_index(self, i, j, point) -> int:
        try:
            return self._where[_pair_key(i, j)][_point(point)]
        except KeyError:
            raise ValueError(f"point {point} not sampled on overlap ({i},{j})") from None


@dataclass
class _Cochain1:
    """A 1-cochain: one value per overlap sample point, stored as one array
    per overlap in the canonical (i<j) orientation; the reverse orientation
    is the adjoint. Subclasses fix the value shape, the adjoint and the
    value check."""

    cover: SampledCover
    values: dict  # (i,j) with i<j -> (P, *value shape) complex array

    value_ndim = 1
    noun = "values"

    def __post_init__(self):
        vals = {}
        for (i, j), arr in self.values.items():
            key = _pair_key(i, j)
            if key in vals:
                raise ValueError(f"overlap {key} given twice")
            arr = np.asarray(arr, dtype=np.complex128)
            # NaN slips past every later comparison
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite value on overlap {key}")
            if key != (i, j):
                arr = self._adjoint(arr)
            if arr.ndim != self.value_ndim or len(arr) != len(self.cover.overlap_points(*key)):
                raise ValueError(f"value count mismatch on overlap {key}")
            self._check_values(key, arr)
            vals[key] = arr
        self.values = vals

    def _on(self, i, j) -> np.ndarray:
        """The value array of overlap (i, j) in its canonical orientation."""
        key = _pair_key(i, j)
        if key not in self.values:
            raise ValueError(f"no cochain {self.noun} on overlap {key}")
        return self.values[key]

    def value(self, i, j, point):
        v = self._on(i, j)[self.cover.pair_index(i, j, point)]
        return v if _pair_key(i, j) == (i, j) else self._adjoint(v)


class U1Cochain1(_Cochain1):
    """U(1)-valued 1-cochain: one unit scalar per overlap sample point."""

    @staticmethod
    def _adjoint(arr):
        return arr.conj()

    @staticmethod
    def _check_values(key, arr):
        if np.max(np.abs(np.abs(arr) - 1.0), initial=0.0) > UNIT_MODULUS_TOL:
            raise ValueError(f"non-unimodular value on overlap {key}")

    def value(self, i, j, point) -> complex:
        return 1.0 + 0.0j if i == j else complex(super().value(i, j, point))


class PUCochain1(_Cochain1):
    """Unitary-valued 1-cochain of chosen lifts, compared modulo phase; one
    (P, d, d) stack per overlap."""

    value_ndim = 3
    noun = "lifts"

    @staticmethod
    def _adjoint(arr):
        return arr.conj().swapaxes(-1, -2)

    @staticmethod
    def _check_values(key, arr):
        defect = operator_norm(arr @ arr.conj().swapaxes(-1, -2) - eye(arr.shape[-2]))
        if np.max(defect, initial=0.0) > 1e-9:
            raise ValueError(f"non-unitary lift on overlap {key}")


@dataclass
class CocycleReport:
    passed: bool
    max_violation: float
    n_checked: int
    vacuous: bool
    witness: tuple | None  # ((i,j,k), point) of the worst violation


def _triple_positions(c: _Cochain1, cover: SampledCover) -> dict:
    """The triple positions of `cover`; they index c's values only when both
    covers sample the same overlap points in the same order."""
    if cover is not c.cover and cover.overlaps != c.cover.overlaps:
        raise ValueError("cochain values are aligned with the samples of a different cover")
    return cover.triple_positions


def check_cocycle_u1(c: U1Cochain1, cover: SampledCover, tol: float = COCYCLE_TOL) -> CocycleReport:
    """Verify g_ij g_jk = g_ik at every sampled triple point. A non-finite
    violation counts as infinite: it fails, and is the witness."""
    worst = 0.0
    witness = None
    n_checked = 0
    for (i, j, k), (pij, pjk, pik) in _triple_positions(c, cover).items():
        viol = np.abs(c._on(i, j)[pij] * c._on(j, k)[pjk] - c._on(i, k)[pik])
        viol[~np.isfinite(viol)] = np.inf
        n_checked += len(viol)
        if np.max(viol, initial=0.0) > worst:
            first = int(np.argmax(viol))
            worst = float(viol[first])
            witness = ((i, j, k), cover.triples[(i, j, k)][first])
    return CocycleReport(
        passed=worst <= tol,
        max_violation=worst,
        n_checked=n_checked,
        vacuous=(n_checked == 0),
        witness=witness if worst > tol else None,
    )


def coboundary_u1(cover: SampledCover, chart_funcs: dict) -> U1Cochain1:
    """The coboundary g_ij = lambda_i / lambda_j of chart functions
    (callables point -> unit scalar)."""
    values = {
        (i, j): np.array([chart_funcs[i](p) * np.conj(chart_funcs[j](p)) for p in pts])
        for (i, j), pts in cover.overlaps.items()
    }
    return U1Cochain1(cover, values)


def refine(c: U1Cochain1, r: dict, new_cover: SampledCover) -> U1Cochain1:
    """Pullback of a U(1) cochain along a refinement r: new chart -> old chart.

    New overlap samples must be sampled in the corresponding old overlaps
    (looked up by exact point equality; an unsampled point is a
    ValueError). Pairs of new charts refining the same old chart pull back
    to the identity.
    """
    for i in new_cover.chart_ids:
        if i not in r:
            raise ValueError(f"refinement map misses chart {i}")
    values = {
        (i, j): np.array([c.value(r[i], r[j], p) for p in pts], dtype=np.complex128)
        for (i, j), pts in new_cover.overlaps.items()
    }
    return U1Cochain1(new_cover, values)


class WindingResult(NamedTuple):
    winding: int
    integrality: float  # distance of total/2pi from the returned integer


def winding_number(phases: np.ndarray) -> WindingResult:
    """Winding of a closed loop of unit scalars.

    Sums principal-branch increments of consecutive ratios; every
    increment must be < pi in magnitude or the sampling is too coarse.
    The loop is closed by wrapping around to the first sample.
    """
    z = np.asarray(phases, dtype=np.complex128).ravel()
    if z.shape[0] < 2:
        raise ValueError("need at least two samples")
    if not np.isfinite(z).all():
        raise ValueError("winding_number expects finite values")
    if np.max(np.abs(np.abs(z) - 1.0)) > 1e-9:
        raise ValueError("winding_number expects unit scalars")
    ratios = np.roll(z, -1) / z
    steps = np.angle(ratios)
    if np.max(np.abs(steps)) >= np.pi * (1.0 - 1e-12):
        raise ValueError("loop too coarsely sampled: a phase step reaches pi")
    total = float(np.sum(steps))
    w = int(np.rint(total / (2 * np.pi)))
    return WindingResult(w, abs(total / (2 * np.pi) - w))


def is_coboundary_two_chart(c: U1Cochain1) -> tuple[bool, int]:
    """Two-chart decision: with both charts contractible, the cochain is a
    coboundary iff its overlap-loop winding vanishes."""
    if len(c.cover.chart_ids) != 2 or len(c.cover.overlaps) != 1:
        raise ValueError("expected a two-chart cover with a single overlap")
    ((key, vals),) = c.values.items()
    w = winding_number(vals)
    return w.winding == 0, w.winding


@dataclass
class Delta1Result:
    phases: dict  # (i,j,k) -> complex ndarray over triple points
    max_scalar_defect: float
    vacuous: bool


def delta1_lift(c: PUCochain1, cover: SampledCover, tol: float = SCALAR_TOL) -> Delta1Result:
    """Connecting-map data: at each triple point the combination
    g_ik^{-1} g_ij g_jk of the chosen lifts must be a phase times the
    identity; the phases form the U(1)-valued 2-cochain.

    Raises if a triple product fails to be scalar within tol. Covers with
    no triple overlaps yield an explicitly vacuous result.
    """
    phases = {}
    worst = 0.0
    for (i, j, k), (pij, pjk, pik) in _triple_positions(c, cover).items():
        prod = c._adjoint(c._on(i, k)[pik]) @ c._on(i, j)[pij] @ c._on(j, k)[pjk]
        n = prod.shape[-1]
        lam = np.trace(prod, axis1=-2, axis2=-1) / n
        defect = operator_norm(prod - lam[:, None, None] * eye(n))
        worst = max(worst, float(np.max(defect, initial=0.0)))
        failing = ~(defect <= tol)
        if failing.any():
            first = int(np.argmax(failing))
            raise ValueError(
                f"triple product at {(i, j, k)}, point {cover.triples[(i, j, k)][first]} "
                f"is not scalar (defect {defect[first]:.3e}); lifts do not project to a cocycle"
            )
        phases[(i, j, k)] = lam / np.abs(lam)
    return Delta1Result(phases=phases, max_scalar_defect=worst, vacuous=(len(phases) == 0))


class PlaquetteDegree(NamedTuple):
    degree: int
    max_flux: float
    total_flux: float
    integrality: float


# a principal-branch flux can never exceed pi; fluxes inside this margin of
# the branch cut are ambiguous by one unit of 2 pi and mean the grid is too
# coarse to certify the degree
FLUX_MARGIN = 0.95 * np.pi


def sphere_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Pole-avoiding S^2 grid: theta = (k + 1/2) pi / K, phi = 2 pi m / M."""
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return thetas, phis


def plaquette_degree(field: np.ndarray, flux_bound: float = FLUX_MARGIN) -> PlaquetteDegree:
    """Degree of a ray field sampled on the pole-avoiding S^2 grid.

    `field` has shape (K, M, d): row k is the theta ring, column m the
    azimuth, each entry a unit vector whose ray matters. Plaquettes are
    traversed counterclockwise viewed from outside the sphere; the two
    polar caps are closed by treating the innermost rings as boundaries of
    single polar plaquettes.
    """
    field = np.asarray(field, dtype=np.complex128)
    if field.ndim != 3 or field.shape[0] < 2 or field.shape[1] < 3:
        raise ValueError("field must be (K >= 2, M >= 3, d)")
    if not np.isfinite(field).all():
        raise ValueError("field entries must be finite")
    nrm = np.linalg.norm(field, axis=2)
    if np.max(np.abs(nrm - 1.0)) > 1e-9:
        raise ValueError("field entries must be unit vectors")

    k_dim, m_dim = field.shape[:2]
    # directed links: theta-links k -> k+1, phi-links m -> m+1 (wrapping)
    link_theta = np.einsum("kmd,kmd->km", field[:-1].conj(), field[1:])
    link_phi = np.einsum("kmd,kmd->km", field.conj(), np.roll(field, -1, axis=1))
    if min(np.min(np.abs(link_theta)), np.min(np.abs(link_phi))) < LINK_OVERLAP_TOL:
        raise NumericalGateError("vanishing link overlap: adjacent rays nearly orthogonal")

    plaq = (
        link_theta
        * link_phi[1:]
        * np.conj(np.roll(link_theta, -1, axis=1))
        * np.conj(link_phi[:-1])
    )
    flux = np.angle(plaq)
    cap_north = float(np.angle(np.prod(link_phi[0])))
    cap_south = float(np.angle(np.prod(np.conj(link_phi[-1]))))

    max_flux = float(max(np.max(np.abs(flux)), abs(cap_north), abs(cap_south)))
    if max_flux >= flux_bound:
        raise NumericalGateError(
            f"plaquette flux {max_flux:.4f} reaches the ambiguity bound; grid too coarse"
        )
    total = float(np.sum(flux)) + cap_north + cap_south
    deg = int(np.rint(total / (2 * np.pi)))
    integrality = abs(total / (2 * np.pi) - deg)
    if integrality > DEGREE_INT_TOL:
        raise NumericalGateError(
            f"total flux / 2pi = {total / (2 * np.pi):.9f} is not an integer"
        )
    return PlaquetteDegree(deg, max_flux, total, integrality)
