"""Triangulations of polygonal domains.

Two generators share one mesh type:

* ``triangulate`` builds an unstructured conforming Delaunay mesh:
  boundary nodes spaced ~h along each side, a hexagonal interior lattice
  clipped row by row to the polygon, and the Delaunay triangulation of
  their union.  Interior candidates are filtered out of a disk wider than
  every boundary segment's diametral disk, which makes each boundary
  segment a Gabriel (hence Delaunay) edge, so the polygon boundary is
  recovered by construction, and keeps the triangles at the boundary
  above ``MIN_ANGLE_DEG``.  Lattice triangles whose closed circumdisk
  holds no other node are certified from their lattice indices: they are
  Delaunay and inside the polygon.  Qhull (``scipy.spatial.Delaunay``)
  runs only on the band of nodes that certified triangles do not
  surround, and only its triangles outside the certified region are
  trimmed to the polygon.  The mesh is built once; one below
  ``MIN_ANGLE_DEG`` raises ``MeshError``.

* ``structured_mesh`` builds the uniform right-isosceles lattice of any
  polygon with axis-parallel sides and vertices on the 1/n grid (the unit
  square, the L-shape, ...).  All angles are <= 90 degrees, which is what
  the discrete maximum principle needs.

Corner grading with exponent mu < 1 at corner j places points on the
layer radii R_j (k/K)^(1/mu), K ~ R_j / (mu h), of ``_graded_layers``:
the two sides get boundary nodes at those distances from the corner, and
the lattice points within R_j + h/2 are replaced by ``_ring_points``, arcs
on the same radii, R_j included, whose angular pitch matches the radial
gaps.  The seam between the outermost arc, at R_j, and the lattice then
scales with h.
Local element diameter scales like h (r/R_j)^(1-mu).  A refinement ladder
is one fresh generator call per level at h0/2^k: on the lattice that is
the red refinement of the level below (the same triangles, numbered
afresh), and a graded mesh stays in its grading family.

Both generators hand ``_finalize`` one chain of node ids per polygon side,
corner j through corner j+1.  Read from corner 0, the chains are the mesh's
``trace``, and ``_finalize`` numbers the nodes by it: node k < nb is trace
position k, the interior nodes follow in the generator's order.  It checks
that the boundary edges are exactly the chains' segments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import PolygonalDomain

MIN_ANGLE_DEG = 20.0


class MeshError(RuntimeError):
    """Triangulation failed its invariants (quality, conformity, reachable h)."""


@dataclass
class BoundaryTrace:
    """Ordered boundary-node structure of a mesh.

    Nodes are listed counterclockwise starting at polygon corner 0;
    trace position k is mesh node k, and ``points`` views those nodes.
    ``mass`` is the cyclic piecewise-linear boundary mass matrix,
    ``lumped`` its row sums.  ``side_of_segment[i]`` tags the segment
    from node i to node i+1; ``arc[i]`` is the cumulative arclength.
    ``corner_pos`` maps polygon corner index -> trace position.
    """

    points: np.ndarray
    seg_lengths: np.ndarray
    side_of_segment: np.ndarray
    arc: np.ndarray
    corner_pos: dict
    mass: sp.csr_matrix
    lumped: np.ndarray

    @property
    def n(self) -> int:
        return len(self.points)

    def side_positions(self, j: int) -> np.ndarray:
        """Trace positions of side j's nodes, corner j through corner j+1."""
        M = len(self.corner_pos)
        a = self.corner_pos[j]
        b = self.corner_pos[(j + 1) % M]
        if b <= a:
            b += self.n
        return np.arange(a, b + 1) % self.n

    def perimeter(self) -> float:
        return float(self.seg_lengths.sum())


@dataclass
class TriMesh:
    """Conforming triangle mesh of a polygonal domain.

    ``triangles`` are CCW index triples into ``nodes``; ``trace`` is its
    boundary, built once by ``_finalize``.  The edge table comes from the
    same pass: ``edges`` holds the distinct edges as pairs a < b in
    lexicographic order, and ``tri_edges[t, k]`` is the edge of triangle
    t's half-edge k, from vertex k to vertex k+1.
    """

    domain: PolygonalDomain
    nodes: np.ndarray
    triangles: np.ndarray
    trace: BoundaryTrace
    edges: np.ndarray
    tri_edges: np.ndarray
    h: float = 0.0
    min_angle: float = 0.0
    nonobtuse: bool = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def boundary_node_ids(self) -> np.ndarray:
        """Boundary node ids, ascending: the trace positions."""
        return np.arange(self.trace.n)

    def triangle_areas(self) -> np.ndarray:
        x, y = self.nodes[:, 0][self.triangles], self.nodes[:, 1][self.triangles]
        return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                      - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


# ---------------------------------------------------------------------
# Delaunay kernel

def _delaunay(points: np.ndarray) -> np.ndarray:
    """Qhull Delaunay triangles of ``points``, CCW, zero-area slivers removed.

    Qhull emits slivers between collinear hull points (e.g. nodes along a
    straight polygon side); they carry no area and would break the
    closed-boundary check, so they are dropped by a scale-free test.
    """
    # imported here: scipy.spatial adds ~0.1 s to ``import dclab``
    from scipy.spatial import Delaunay, QhullError

    try:
        tris = Delaunay(points).simplices.astype(np.int64)
    except QhullError as exc:
        raise MeshError(f"Delaunay triangulation failed: {exc}") from exc
    p = points[tris]
    u = p[:, 1] - p[:, 0]
    v = p[:, 2] - p[:, 0]
    area2 = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    cw = area2 < 0
    tris[cw] = tris[cw][:, [0, 2, 1]]
    longest2 = np.max([(u * u).sum(axis=1), (v * v).sum(axis=1),
                       ((v - u) ** 2).sum(axis=1)], axis=0)
    return tris[np.abs(area2) > 1e-10 * longest2]


# ---------------------------------------------------------------------
# point generation

def _graded_layers(R: float, h: float, mu: float) -> list[float]:
    """Descending layer radii from R toward the corner.

    The family R (k/K)^(1/mu), K ~ R/(mu h), realizes local spacing
    h (r/R)^(1-mu).  Layers below k = ceil(1/mu) are dropped: the
    innermost cell then has length ~ h^(1/mu) R^(1-1/mu) and the jump to
    its neighbor stays bounded (<= e - 1) for every mu.
    """
    K = max(2, math.ceil(R / (mu * h)))
    m = min(K - 1, max(1, math.ceil(1.0 / mu - 1e-12)))
    return [R * (k / K) ** (1.0 / mu) for k in range(K, m - 1, -1)]


def _side_points(domain: PolygonalDomain, h: float, grading: dict):
    """Boundary nodes (~h per side, graded layers near flagged corners)
    and one chain per side: chain j lists the node ids from corner j
    through corner j+1 in the order emitted.

    Polygon vertex k is node k; side interiors follow.
    """
    verts = domain.vertices
    M = len(verts)
    pts = [tuple(v) for v in verts]
    chains = []
    for j in range(M):
        a, b = verts[j], verts[(j + 1) % M]
        L = float(np.linalg.norm(b - a))
        head = []  # distances from a, ascending, excluding 0
        tail = []  # distances from b, ascending, excluding 0
        mu_a = grading.get(j, 1.0)
        mu_b = grading.get((j + 1) % M, 1.0)
        if mu_a < 1.0:
            head = sorted(_graded_layers(domain.corners[j].radius, h, mu_a))
        if mu_b < 1.0:
            tail = sorted(_graded_layers(domain.corners[(j + 1) % M].radius, h, mu_b))
        lo = head[-1] if head else 0.0
        hi = L - (tail[-1] if tail else 0.0)
        n_mid = max(1, int(round((hi - lo) / h)))
        mids = [lo + (hi - lo) * k / n_mid for k in range(1, n_mid)]
        dists = sorted(set(head) | set(mids) | {L - t for t in tail})
        dists = [s for s in dists if 1e-12 * L < s < L * (1 - 1e-12)]
        chains.append([j, *range(len(pts), len(pts) + len(dists)), (j + 1) % M])
        for s in dists:
            pts.append(tuple(a + (s / L) * (b - a)))
    return np.array(pts, dtype=float), chains


def _ring_points(domain: PolygonalDomain, j: int, h: float, mu: float) -> np.ndarray:
    """Interior points on concentric arcs inside the graded zone of corner j,
    one per layer radius of ``_graded_layers`` from R_j inward, with
    angular spacing matching the radial layer gaps (isotropic cells).  The
    arc at R_j faces the lattice, which starts beyond R_j + h/2."""
    c = domain.corners[j]
    rs = _graded_layers(c.radius, h, mu)
    out = []
    for r in rs:
        pitch = h * (r / c.radius) ** (1.0 - mu)
        n = max(1, int(round(c.angle * r / pitch)))
        for i in range(1, n):
            ang = c.frame_angle + c.angle * i / n
            out.append((c.vertex[0] + r * math.cos(ang),
                        c.vertex[1] + r * math.sin(ang)))
    return np.array(out, dtype=float).reshape(-1, 2)


def _hex_lattice(domain: PolygonalDomain, h: float,
                 angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Triangular lattice points inside the domain, and their (row, column)
    indices (i, u).

    Point (i, u), with u of the parity of i, sits at (h u/2, h i sqrt(3)/2)
    in the frame rotated by ``angle`` about the global origin (so a
    reflection axis through the origin along ``angle`` maps the lattice to
    itself).  Each row is clipped to the polygon by its crossings with the
    sides: a point is kept when an odd number of crossings lies at or left
    of it, the crossing-number rule of ``PolygonalDomain.contains`` in the
    rotated frame.
    """
    c, s = math.cos(angle), math.sin(angle)
    vx, vy = _to_lattice_frame(domain.vertices, c, s)
    wx, wy = np.roll(vx, -1), np.roll(vy, -1)
    dy = h * math.sqrt(3.0) / 2.0
    rows = np.arange(math.floor(vy.min() / dy), math.ceil(vy.max() / dy) + 1)
    y = rows[:, None] * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = vx + (y - vy) * (wx - vx) / (wy - vy)
    # sorted crossings x_0 <= x_1 <= ... per row; inside is [x_2q, x_2q+1)
    xint = np.sort(np.where((vy > y) != (wy > y), xint, np.inf), axis=1)
    m = 2 * (len(vx) // 2)
    r, q = np.nonzero(np.isfinite(xint[:, 1:m:2]))
    lo, hi = xint[r, 2 * q], xint[r, 2 * q + 1]
    off = 0.5 * (rows[r] % 2)
    k0 = np.floor(lo / h - off).astype(np.int64)
    n = np.ceil(hi / h - off).astype(np.int64) - k0 + 1
    k = np.repeat(k0 - (np.cumsum(n) - n), n) + np.arange(n.sum())
    i = rows[np.repeat(r, n)]
    x = h * (k + 0.5 * (i % 2))
    inside = (x >= np.repeat(lo, n)) & (x < np.repeat(hi, n))
    i, k, x = i[inside], k[inside], x[inside]
    y = i * dy
    return (np.column_stack([c * x - s * y, s * x + c * y]),
            np.column_stack([i, 2 * k + i % 2]))


def _to_lattice_frame(p, c, s):
    """Coordinates of points ``p`` in the lattice frame rotated by the
    angle with cosine c and sine s."""
    return c * p[:, 0] + s * p[:, 1], c * p[:, 1] - s * p[:, 0]


def _validate_grading(domain: PolygonalDomain, grading: dict) -> dict:
    out = {}
    for j, mu in grading.items():
        if not isinstance(j, int) or not 0 <= j < len(domain.vertices):
            raise MeshError(f"grading refers to nonexistent corner {j}")
        if not 0.0 < mu <= 1.0:
            raise MeshError(f"grading exponent at corner {j} must lie in (0, 1]")
        if mu < 1.0:
            out[j] = float(mu)
    return out


def _filter_interior(interior, bpts, bsegs):
    """Drop interior candidates that sit inside an (inflated) diametral
    disk of a boundary segment or too close to a boundary node.  A
    candidate is a row of ``interior``: x, y, then any columns that ride
    along.

    Each disk is a (centre, radius) query: the segment midpoint with
    0.6 * its length, and each boundary node with 0.5 * its longest
    adjacent segment.  The flat triangles at the boundary join a segment
    AB to a candidate near B, on B's node circle and on the segment
    circle of the next segment BC.  On a straight side of equal segments
    that triangle's angle at A is 22.8 degrees, a margin over
    ``MIN_ANGLE_DEG`` that holds at every lattice angle: the
    diametral-lens idea of Delaunay refinement (Shewchuk 2002).  A KD-tree
    ball query with radii inflated by 1e-9 finds the candidates near each
    disk, and the exact test ``d^2 <= rad^2`` decides which of them to
    drop.
    """
    # imported here: scipy.spatial adds ~0.1 s to ``import dclab``
    from scipy.spatial import cKDTree

    if len(interior) == 0:
        return interior
    xy = interior[:, :2]
    ia, ib = np.asarray(bsegs).T
    seg_len = np.linalg.norm(bpts[ib] - bpts[ia], axis=1)
    ln = np.zeros(len(bpts))
    np.maximum.at(ln, ia, seg_len)
    np.maximum.at(ln, ib, seg_len)
    centres = np.vstack([0.5 * (bpts[ia] + bpts[ib]), bpts])
    rad = np.concatenate([0.6 * seg_len, 0.5 * ln])
    near = cKDTree(xy).query_ball_point(centres, rad * (1.0 + 1e-9))
    counts = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
    cand = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp,
                       count=int(counts.sum()))
    disk = np.repeat(np.arange(len(near)), counts)
    d = xy[cand] - centres[disk]
    drop = (d[:, 0] ** 2 + d[:, 1] ** 2) <= rad[disk] * rad[disk]
    keep = np.ones(len(interior), dtype=bool)
    keep[cand[drop]] = False
    return interior[keep]


def triangulate(domain: PolygonalDomain, h: float, grading: dict | None = None,
                lattice_angle: float = 0.0) -> TriMesh:
    """Unstructured Delaunay mesh with target diameter h.

    ``grading`` maps corner index -> exponent mu in (0, 1]; mu < 1 grades
    the mesh toward that corner (boundary layers spaced by h (r/R)^(1-mu),
    interior rings with matching angular pitch, so cells stay isotropic).
    ``lattice_angle`` rotates the interior point lattice (useful to align
    it with a symmetry axis).  The mesh is built in one pass; a minimum
    angle below ``MIN_ANGLE_DEG`` raises ``MeshError`` (h unreachable for
    this geometry).
    """
    if h <= 0:
        raise MeshError("h must be positive")
    grading = _validate_grading(domain, grading or {})
    bpts_g, chains = _side_points(domain, h, grading)
    lat, ij = _hex_lattice(domain, h, lattice_angle)
    # candidate rows: x, y and the row of ``ij`` (-1 off the lattice)
    interior = np.column_stack([lat, np.arange(len(lat))])
    for j, mu in grading.items():
        c = domain.corners[j]
        d = interior[:, :2] - np.asarray(c.vertex)
        outside = np.hypot(d[:, 0], d[:, 1]) > c.radius + 0.5 * h
        ring = _ring_points(domain, j, h, mu)
        interior = np.vstack([interior[outside],
                              np.column_stack([ring, np.full(len(ring), -1.0)])])
    segs = [seg for c in chains for seg in zip(c[:-1], c[1:])]
    interior = _filter_interior(interior, bpts_g, segs)
    on_lat = interior[:, 2] >= 0
    lat_ids = len(bpts_g) + np.flatnonzero(on_lat)
    lat_ij = ij[interior[on_lat, 2].astype(np.int64)]
    pts = np.vstack([bpts_g, interior[:, :2]])
    tris = _triangles(domain, pts, lat_ids, lat_ij, h, lattice_angle)
    mesh = _finalize(domain, pts, tris, chains)
    if mesh.min_angle < MIN_ANGLE_DEG:
        raise MeshError(
            f"min angle {mesh.min_angle:.2f} deg below {MIN_ANGLE_DEG}; "
            "h unreachable for this geometry")
    return mesh


def _triangles(domain, pts, lat_ids, lat_ij, h, angle):
    """Delaunay triangles of ``pts`` inside the polygon.

    Node ``lat_ids[n]`` is the point ``lat_ij[n]`` = (i, u) of
    ``_hex_lattice(domain, h, angle)``.  The up and the down lattice
    triangle of each lattice node are certified when their three nodes are
    present and their closed circumdisk (radius h/sqrt(3), inflated by
    1e-9) holds no other node: such a triangle is strictly Delaunay, and
    inside the polygon because no Delaunay edge crosses a Gabriel boundary
    segment.  Qhull runs on the band, the nodes with fewer than 6
    certified triangles.  Every edge on the rim of the certified region is
    strictly Delaunay, so no band triangle straddles it: a band triangle
    whose centroid lies in a certified lattice triangle is dropped, and the
    rest are trimmed to the polygon by their centroids.  With no lattice
    nodes this is Qhull on all of ``pts``.
    """
    # imported here: scipy.spatial adds ~0.1 s to ``import dclab``
    from scipy.spatial import cKDTree

    certified = np.zeros((0, 3), dtype=np.int64)
    if len(lat_ids):
        # the up triangle of node (i, u) is (i, u), (i, u+2), (i+1, u+1),
        # its down triangle (i, u), (i+1, u+1), (i+1, u-1)
        i, u = lat_ij.T
        i0, u0 = i.min(), u.min() - 1
        node = np.full((i.max() - i0 + 2, u.max() - u0 + 3), -1, dtype=np.int64)
        a, b = i - i0, u - u0
        node[a, b] = lat_ids
        cand = np.stack([
            np.column_stack([node[a, b], node[a, b + 2], node[a + 1, b + 1]]),
            np.column_stack([node[a, b], node[a + 1, b + 1], node[a + 1, b - 1]])])
        ok = (cand >= 0).all(axis=2)
        p = pts[cand[ok]]
        other = np.ones(len(pts), dtype=bool)
        other[lat_ids] = False
        # the other nodes in each candidate's closed circumdisk, centred
        # at its centroid
        near = cKDTree((p[:, 0] + p[:, 1] + p[:, 2]) / 3.0,
                       balanced_tree=False).query_ball_point(
            pts[other], h / math.sqrt(3.0) * (1.0 + 1e-9))
        empty = np.ones(len(p), dtype=bool)
        empty[np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp)] = False
        ok[ok] = empty
        certified = cand[ok]
        # cell[0], cell[1]: whether the up, the down triangle of a node is
        # certified
        cell = np.zeros((2,) + node.shape, dtype=bool)
        cell[:, a, b] = ok

    band = np.flatnonzero(np.bincount(certified.ravel(), minlength=len(pts)) < 6)
    tris = band[_delaunay(pts[band])]
    if len(tris) == 0:
        raise MeshError("empty triangulation")
    cent = pts[tris].mean(axis=1)
    if len(certified):
        up, ci, cu = _lattice_cell(cent, h, angle)
        ci, cu = ci - i0, cu - u0
        hole = (ci >= 0) & (ci < node.shape[0]) & (cu >= 0) & (cu < node.shape[1])
        hole[hole] = cell[np.where(up, 0, 1)[hole], ci[hole], cu[hole]]
        tris, cent = tris[~hole], cent[~hole]
    tris = np.vstack([certified, tris[domain.contains(cent)]])
    if len(tris) == 0:
        raise MeshError("all triangles trimmed; h unreachable")
    return tris


def _lattice_cell(p, h, angle):
    """(up, i, u) of the lattice triangle holding each point ``p``: the up
    or the down triangle of node (i, u), in the indexing of
    ``_triangles``."""
    x, y = _to_lattice_frame(p, math.cos(angle), math.sin(angle))
    t = y / (h * math.sqrt(3.0) / 2.0)
    i = np.floor(t).astype(np.int64)
    t -= i
    # at height t in row i, the up triangle of node u spans u + t <= 2x/h
    # <= u + 2 - t, the down triangle u - t <= 2x/h <= u + t
    s = 2.0 * x / h
    u = 2 * np.floor((s - i % 2) / 2.0).astype(np.int64) + i % 2
    f = s - u
    up = (f >= t) & (f <= 2.0 - t)
    return up, i, u + 2 * (f > 2.0 - t)


def _edges(tris: np.ndarray, n_nodes: int):
    """(half, edges, inv, counts): ``half`` stacks the oriented 0-1, 1-2
    and 2-0 edges of all triangles, ``edges`` the distinct pairs a < b in
    lexicographic order (the order of the key a * n_nodes + b), ``inv``
    maps ``half`` into ``edges``, ``counts`` is triangles per edge."""
    half = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    lo, hi = np.sort(half, axis=1).T
    keys, inv, counts = np.unique(lo * n_nodes + hi, return_inverse=True,
                                  return_counts=True)
    return half, np.column_stack([keys // n_nodes, keys % n_nodes]), inv, counts


# ---------------------------------------------------------------------
# structured right-isosceles meshes

def structured_mesh(domain: PolygonalDomain, h: float) -> TriMesh:
    """Uniform right-triangle lattice of a polygon with axis-parallel sides
    and vertices on the 1/n grid, n = 1/h (unit square, L-shape, ...).

    Grid cells with centres inside the polygon are split into (v00, v10,
    v11), (v00, v11, v01), and each side's chain steps along the grid; a
    vertex off the grid or a side that is not axis-parallel raises
    ``MeshError``.  Every angle is 45 or 90 degrees (non-obtuse).  For
    graded meshes use ``triangulate``; a radial map would wreck its angles.
    """
    n = max(1, int(round(1.0 / h)))
    if abs(n * h - 1.0) > 1e-9:
        raise MeshError("structured meshes need h dividing 1")
    grid = np.rint(domain.vertices * n).astype(np.int64)
    off = np.hypot(*(domain.vertices - grid / n).T) > 1e-9
    if off.any():
        raise MeshError(f"structured meshes need vertices on the 1/{n} grid; "
                        f"vertex {off.argmax()} is off it")
    lo, hi = grid.min(axis=0), grid.max(axis=0)
    i, j = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1),
                       indexing="ij")
    idx = np.arange(i.size).reshape(i.shape)
    chains = []
    for k, (a, b) in enumerate(zip(grid, np.roll(grid, -1, axis=0))):
        d = b - a
        if np.count_nonzero(d) != 1:
            raise MeshError("structured meshes need axis-parallel sides; "
                            f"side {k} is not")
        steps = a - lo + np.arange(abs(d).sum() + 1)[:, None] * np.sign(d)
        chains.append(idx[steps[:, 0], steps[:, 1]])
    centres = np.column_stack([(i[:-1, :-1].ravel() + 0.5) / n,
                               (j[:-1, :-1].ravel() + 0.5) / n])
    keep = domain.contains(centres)
    v00, v10 = idx[:-1, :-1].ravel()[keep], idx[1:, :-1].ravel()[keep]
    v01, v11 = idx[:-1, 1:].ravel()[keep], idx[1:, 1:].ravel()[keep]
    tris = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    # lattice nodes outside the polygon are dropped by _finalize
    nodes = np.column_stack([i.ravel() / n, j.ravel() / n])
    return _finalize(domain, nodes, tris, chains)


# ---------------------------------------------------------------------
# finalize: invariants, boundary check, trace

def _finalize(domain, nodes, tris, chains) -> TriMesh:
    """Checked mesh of a generator's output.  ``chains[j]`` lists the
    boundary node ids from corner j through corner j+1: they must join into
    one loop without a repeated node, start at the polygon's vertices, and
    their segments must be exactly the boundary half-edges.  The mesh
    numbers the loop's nodes first, in loop order, then the interior nodes
    that some triangle uses, in their given order; unused points are
    dropped.  The edge table of these checks is kept on the mesh
    (``edges``, ``tri_edges``), where the assembly reads it."""
    u = nodes[tris[:, 1]] - nodes[tris[:, 0]]
    v = nodes[tris[:, 2]] - nodes[tris[:, 0]]
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    if np.any(areas <= 0):
        raise MeshError("non-positively-oriented triangle")
    if abs(areas.sum() - domain.area) > 1e-12 * domain.area:
        raise MeshError(
            f"triangle areas sum to {float(areas.sum())!r}, domain area "
            f"{domain.area!r}")

    chains = [np.asarray(c, dtype=np.int64) for c in chains]
    ids = np.concatenate([c[:-1] for c in chains])
    if (len(np.unique(ids)) != len(ids) or not np.array_equal(
            np.concatenate([c[1:] for c in chains]), np.roll(ids, -1))):
        raise MeshError("boundary is not a simple loop")
    nb = len(ids)
    inner = np.zeros(len(nodes), dtype=bool)
    inner[tris.ravel()] = True
    inner[ids] = False
    order = np.concatenate([ids, np.flatnonzero(inner)])
    remap = np.empty(len(nodes), dtype=np.int64)
    remap[order] = np.arange(len(order))
    nodes, tris = nodes[order], remap[tris]
    nn = len(nodes)
    half, edges, inv, counts = _edges(tris, nn)
    if np.any(counts > 2):
        raise MeshError("non-conforming mesh: edge shared by >2 triangles")
    bed = half[counts[inv] == 1]
    loop = np.arange(nb)
    if not np.array_equal(np.sort(bed[:, 0] * nn + bed[:, 1]),
                          loop * nn + np.roll(loop, -1)):
        raise MeshError("boundary edges are not the generator's side chains")
    if len(chains) != len(domain.vertices):
        raise MeshError(f"{len(chains)} side chains for {len(domain.vertices)} sides")
    n_seg = [len(c) - 1 for c in chains]
    corner_pos = dict(enumerate(np.cumsum([0, *n_seg[:-1]]).tolist()))
    off = np.hypot(*(nodes[list(corner_pos.values())] - domain.vertices).T) > 1e-9
    if off.any():
        raise MeshError(f"side chain {off.argmax()} does not start at its corner")

    vec = nodes[np.roll(tris, -1, axis=1)]    # edge k runs vertex k -> k+1
    vec -= nodes[tris]
    lens = np.linalg.norm(vec, axis=2)
    h = float(lens.max())
    angles = _angles_deg(vec, lens)

    sides = np.repeat(np.arange(len(chains)), n_seg)
    return TriMesh(domain=domain, nodes=nodes, triangles=tris,
                   trace=_boundary_trace(nodes[:nb], sides, corner_pos),
                   edges=edges, tri_edges=inv.reshape(3, -1).T.copy(), h=h,
                   min_angle=float(angles.min()),
                   nonobtuse=bool(angles.max() <= 90.0 + 1e-9))


def _angles_deg(edges: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Triangle angles (nt, 3) from the edge vectors (nt, 3, 2), edge k
    running from vertex k to k+1, and their lengths (nt, 3).  The angle
    at vertex k lies between edge k and the reversed edge k-1."""
    angs = np.empty(lens.shape)
    for k in range(3):
        dot = -(edges[:, k] * edges[:, k - 1]).sum(axis=1)
        angs[:, k] = np.degrees(np.arccos(np.clip(
            dot / (lens[:, k] * lens[:, k - 1]), -1.0, 1.0)))
    return angs


def _boundary_trace(pts, sides, corner_pos) -> BoundaryTrace:
    """Trace of the boundary nodes ``pts`` in loop order; segment i, from
    node i to node i+1 (cyclically), lies on side ``sides[i]``."""
    nb = len(pts)
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)[:-1]])

    # segment i couples node i with node k = i + 1 (cyclically)
    i = np.arange(nb)
    k = np.roll(i, -1)
    rows = np.column_stack([i, i, k, k]).ravel()
    cols = np.column_stack([i, k, i, k]).ravel()
    vals = np.column_stack([seg / 3.0, seg / 6.0, seg / 6.0, seg / 3.0]).ravel()
    mass = sp.csr_matrix((vals, (rows, cols)), shape=(nb, nb))
    lumped = np.asarray(mass.sum(axis=1)).ravel()
    return BoundaryTrace(points=pts, seg_lengths=seg,
                         side_of_segment=sides, arc=arc,
                         corner_pos=corner_pos, mass=mass, lumped=lumped)
