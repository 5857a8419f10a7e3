"""Projective Hilbert space geometry.

Ray products of representative vectors, the three equivalent metrics
(chord / Fubini-Study / gap), and the elementary unitary transport with
which loop contraction carries top eigenvectors to e_0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import eye


def _rep(x) -> np.ndarray:
    """Unit representative of the ray of a nonzero vector."""
    v = np.asarray(x, dtype=np.complex128).ravel()
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("zero vector does not represent a ray")
    return v / nrm


def ray_product(a, b) -> float:
    """|<a, b>| for unit representatives; phase independent, in [0, 1]."""
    p = abs(np.vdot(_rep(a), _rep(b)))
    return float(min(p, 1.0))


class RayDistances(NamedTuple):
    chord: float
    fubini_study: float
    gap: float


def ray_distances(a, b) -> RayDistances:
    """Chord, Fubini-Study and gap distances, all closed forms in the ray
    product p: sqrt(2-2p), arccos(p), sqrt(1-p^2)."""
    p = ray_product(a, b)
    return RayDistances(
        chord=float(np.sqrt(max(2.0 - 2.0 * p, 0.0))),
        fubini_study=float(np.arccos(p)),
        gap=float(np.sqrt(max(1.0 - p * p, 0.0))),
    )


def elementary_transport(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unitary z -> <y,x> z - <y,z> x + <x,z> y on span{x,y}, identity on
    the complement. Maps x to y and satisfies ||1 - U|| = ||x - y||."""
    x = _rep(x)
    y = _rep(y)
    n = x.shape[0]
    out = np.vdot(y, x) * eye(n)
    out -= np.outer(x, y.conj())
    out += np.outer(y, x.conj())
    # the span-complement must carry the identity, not the scalar <y,x>:
    # add back (1 - <y,x>) on the orthogonal complement of span{x,y}
    q = _orthonormal_span(x, y)
    comp = eye(n) - q @ q.conj().T
    out += (1.0 - np.vdot(y, x)) * comp
    return out


def _orthonormal_span(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning span{x, y}."""
    cols = [x]
    r = y - np.vdot(x, y) * x
    nrm = np.linalg.norm(r)
    if nrm > 1e-14:
        cols.append(r / nrm)
    return np.column_stack(cols)
