"""Whole-grid ray fields on the pole-avoiding S^2 grid, for the tests.

The program never forms a (K, M) field: the equator sweep holds each
ring's ray at phi = 0, and `cech.ring_degree` takes the degree of the
field those rings turn through the azimuths from the K rings alone. The
tests form the field whole through these helpers, and take its degree
with `plaquette_degree`, the general lattice degree of any (K, M, d) ray
field, which is `ring_degree`'s reference.
"""

import numpy as np

from phaselab.cech import _check_rays, _gated_degree, ring_latitudes
from phaselab.dimer import bloch_ground_map


def sphere_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Pole-avoiding S^2 grid: theta = (k + 1/2) pi / K, phi = 2 pi m / M."""
    return ring_latitudes(n_theta), 2.0 * np.pi * np.arange(n_phi) / n_phi


def bloch_field(k_dim, m_dim, winding=1):
    """The Bloch map composed with phi -> winding * phi, on the sphere grid."""
    thetas, phis = sphere_grid(k_dim, m_dim)
    field = np.zeros((k_dim, m_dim, 2), dtype=complex)
    for k, th in enumerate(thetas):
        for m, ph in enumerate(phis):
            ph = winding * ph
            r = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            field[k, m] = bloch_ground_map(r)
    return field


def turned_field(rings, n_phi):
    """The field (K, M, d) whose entry (k, m) is rings[k] with its first
    component turned by e^{-i phi_m}: the sweep's ray field, of which it
    holds only the rings."""
    phis = sphere_grid(2, n_phi)[1]
    field = np.repeat(rings[:, None, :], n_phi, axis=1)
    field[..., 0] = rings[:, None, 0] / np.exp(1j * phis)
    return field


def plaquette_degree(field: np.ndarray):
    """Degree of a ray field sampled on the pole-avoiding S^2 grid.

    `field` has shape (K, M, d): row k is the theta ring, column m the
    azimuth, each entry a unit vector whose ray matters. Plaquettes are
    traversed counterclockwise viewed from outside the sphere; the two
    polar caps are closed by treating the innermost rings as boundaries of
    single polar plaquettes. It gates as `ring_degree` does.
    """
    field = np.asarray(field, dtype=np.complex128)
    _check_rays(field.ndim == 3 and field.shape[0] >= 2 and field.shape[1] >= 3, field)

    # directed links: theta-links k -> k+1, phi-links m -> m+1 (wrapping)
    link_theta = np.einsum("kmd,kmd->km", field[:-1].conj(), field[1:])
    link_phi = np.einsum("kmd,kmd->km", field.conj(), np.roll(field, -1, axis=1))
    plaq = (
        link_theta
        * link_phi[1:]
        * np.conj(np.roll(link_theta, -1, axis=1))
        * np.conj(link_phi[:-1])
    )
    flux = np.angle(plaq)
    cap_north = float(np.angle(np.prod(link_phi[0])))
    cap_south = float(np.angle(np.prod(np.conj(link_phi[-1]))))
    total = float(np.sum(flux)) + cap_north + cap_south
    return _gated_degree((link_theta, link_phi), flux, (cap_north, cap_south), total)
