"""Projective Hilbert space geometry.

Ray products of representative vectors and the three equivalent metrics
(chord / Fubini-Study / gap), for one pair or for stacks of pairs, and the
elementary unitary transport with which loop contraction carries top
eigenvectors to e_0.
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


def ray_product(a, b):
    """|<a, b>| of the unit representatives of nonzero vectors, phase
    independent, in [0, 1]: a float for two vectors, an array of one value
    per row for stacks (..., n) that broadcast against each other. Every
    reduction runs along the last axis, so row k of a stack gives the value
    of the single call on row k bit for bit."""
    a, b = (np.asarray(x, dtype=np.complex128) for x in (a, b))
    na, nb = (np.linalg.norm(x, axis=-1, keepdims=True) for x in (a, b))
    if not (na.all() and nb.all()):
        raise ValueError("zero vector does not represent a ray")
    p = np.minimum(np.abs(((a / na).conj() * (b / nb)).sum(axis=-1)), 1.0)
    return float(p) if p.ndim == 0 else p


class RayDistances(NamedTuple):
    chord: float | np.ndarray
    fubini_study: float | np.ndarray
    gap: float | np.ndarray


def ray_distances(a, b) -> RayDistances:
    """Chord, Fubini-Study and gap distances, all closed forms in the ray
    product p: sqrt(2-2p), arccos(p), sqrt(1-p^2). Floats for two vectors,
    arrays of one value per row for stacks, as ray_product."""
    p = np.asarray(ray_product(a, b))
    chord = np.sqrt(np.maximum(2.0 - 2.0 * p, 0.0))
    dists = (chord, np.arccos(p), np.sqrt(np.maximum(1.0 - p * p, 0.0)))
    return RayDistances(*(map(float, dists) if p.ndim == 0 else dists))


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
