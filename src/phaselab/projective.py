"""Projective Hilbert space geometry.

Ray products of representative vectors and the three equivalent metrics
(chord / Fubini-Study / gap), for one pair or for stacks of pairs, and the
batched unitary transport with which loop contraction carries top
eigenvectors to e_0: a local trivialization of the bundle of unit vectors
over the chart <e_0, x> != 0 of projective space.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import eye


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


def transport_to_e0(x) -> np.ndarray:
    """Unitaries U(x) with U(x) x = e_0, (..., n, n) for a stack of nonzero
    vectors (..., n), each normalized first.

    U = T D: D = 1 + (c - 1) x x† turns x to x' = c x, c = conj(x_0)/|x_0|
    for x_0 = <e_0, x> (c = 1 where x_0 = 0 exactly), and T sends x' to e_0
    on span{x', e_0} as z -> a z - <e_0, z> x' + <x', z> e_0 with the
    identity on the complement, a = <e_0, x'> = |x_0| >= 0. With
    r = e_0 - a x', the projector onto the span is x x† + r r† / (1 - a²),
    so T's complement term (1 - a) times it is (1 - a) x x† + r r† / (1 + a)
    and needs no rank cut-off: as x tends to e^{iα} e_0, U tends to
    1 + (e^{-iα} - 1) e_0 e_0†, and U(e_0) = 1 exactly. In closed form,
    U = 1 - (1 - a) x x† - r r† / (1 + a) - x' e_0† + e_0 x†.

    U is unitary to rounding everywhere, and smooth in x on the chart
    x_0 != 0; across x_0 = 0, where the phase c of x_0 is undefined, it
    jumps. A pure state x x† does not see the jump: U x x† U† = e_0 e_0†
    and U x = e_0 on either side.
    """
    x = np.asarray(x, dtype=np.complex128)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if not norms.all():
        raise ValueError("zero vector does not represent a ray")
    x = x / norms
    a = np.abs(x[..., :1])
    c = np.where(a > 0.0, x[..., :1].conj() / np.where(a > 0.0, a, 1.0), 1.0)
    xc = c * x
    xc[..., 0] = a[..., 0]
    r = -a * xc
    r[..., 0] += 1.0
    u = eye(x.shape[-1]) - ((1.0 - a) * x)[..., :, None] * x.conj()[..., None, :]
    u -= (r / (1.0 + a))[..., :, None] * r.conj()[..., None, :]
    u[..., :, 0] -= xc
    u[..., 0, :] += x.conj()
    return u
