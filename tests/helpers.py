"""What only the tests call: error norms of P1 functions against exact
solutions, the wedge modes of a corner and their synthesis into a nodal
field, and the index of the L-shape's re-entrant corner.

The tests import it as a top-level module, as they import
``preset_reference``.
"""

import math

import numpy as np

from dclab.fem import TRI_QUAD_7
from dclab.geometry import PolygonalDomain, wedge_field
from dclab.meshing import TriMesh

L_SHAPE_REENTRANT_CORNER = 2  # index of the origin in l_shape()


def l2_norm(mesh: TriMesh, vals, exact=None) -> float:
    """L2 norm of the P1 function, or of its error against ``exact``
    (degree-5 quadrature)."""
    bary, w = TRI_QUAD_7
    p, t = mesh.nodes, mesh.triangles
    corners = p[t]
    area = mesh.triangle_areas()
    v = np.asarray(vals, dtype=float)[t]  # (nt, 3)
    total = 0.0
    for lam, wq in zip(bary, w):
        uh = v @ lam
        if exact is not None:
            xq = np.einsum("k,tkd->td", lam, corners)
            uh = uh - np.asarray(exact(xq[:, 0], xq[:, 1]), dtype=float)
        total += wq * float(np.sum(area * uh * uh))
    return math.sqrt(total)


def h1_seminorm(mesh: TriMesh, vals, grad_exact=None) -> float:
    """H1 seminorm of the P1 function, or of its error against an exact
    gradient ``grad_exact(x, y) -> (gx, gy)`` (degree-5 quadrature)."""
    p, t = mesh.nodes, mesh.triangles
    p0, p1, p2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    area = mesh.triangle_areas()
    v = np.asarray(vals, dtype=float)
    # gradient of P1: sum_i v_i grad lam_i, constant per triangle
    E = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    perp = np.stack([-E[:, :, 1], E[:, :, 0]], axis=2)  # rotate edges by 90 deg
    gh = np.einsum("tk,tkd->td", v[t], perp) / (2.0 * area)[:, None]
    if grad_exact is None:
        return math.sqrt(float(np.sum(area * (gh * gh).sum(axis=1))))
    bary, w = TRI_QUAD_7
    corners = p[t]
    total = 0.0
    for lam, wq in zip(bary, w):
        xq = np.einsum("k,tkd->td", lam, corners)
        gx, gy = grad_exact(xq[:, 0], xq[:, 1])
        ex = gh[:, 0] - np.asarray(gx, dtype=float)
        ey = gh[:, 1] - np.asarray(gy, dtype=float)
        total += wq * float(np.sum(area * (ex * ex + ey * ey)))
    return math.sqrt(total)


def eval_singular_volume(domain: PolygonalDomain, j: int, m: int, points) -> np.ndarray:
    """xi_j(r) r^{m lam_j} sin(m lam_j theta_j) at the given points.

    Zero outside the wedge support (theta beyond omega_j or r >= 2 R_j);
    harmonic where the cutoff is inactive.
    """
    k = m * domain.corners[j].lam
    vals = wedge_field(domain, j, points, k, lambda t: np.sin(k * t))
    if np.ndim(points) == 1:
        return float(vals[0])
    return vals


def synthesize_modes(domain: PolygonalDomain, mesh: TriMesh, j: int,
                     coefficients: dict) -> np.ndarray:
    """Nodal field sum_m c_m xi r^(m lam) sin(m lam theta): a manufactured
    field with known wedge-mode coefficients at corner j."""
    out = np.zeros(mesh.n_nodes)
    for m, cm in coefficients.items():
        out += cm * eval_singular_volume(domain, j, int(m), mesh.nodes)
    return out
