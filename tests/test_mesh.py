"""Mesh generation: structured lattices, Delaunay, grading, boundary traces."""

import hashlib
import math

import numpy as np
import pytest

from dclab.geometry import (
    L_SHAPE_REENTRANT_CORNER,
    build_domain,
    l_shape,
    point_segment_distance,
    unit_square,
)
from dclab.meshing import (
    MIN_ANGLE_DEG,
    MeshError,
    _angles_deg,
    _delaunay,
    _filter_interior,
    _finalize,
    _hex_lattice,
    _side_points,
    _triangles,
    structured_mesh,
    triangulate,
)


def _check_invariants(mesh):
    areas = mesh.triangle_areas()
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(mesh.domain.area, rel=1e-12)
    assert mesh.min_angle >= MIN_ANGLE_DEG - 1e-9
    # every polygon vertex is a boundary node
    tr = mesh.trace
    assert sorted(tr.corner_pos) == list(range(len(mesh.domain.vertices)))
    for j, pos in tr.corner_pos.items():
        assert np.allclose(tr.points[pos], mesh.domain.vertices[j])


def _arrays(mesh):
    return mesh.nodes, mesh.triangles, mesh.trace.side_of_segment


# ---------------------------------------------------------------------
# structured lattices

def test_structured_square():
    mesh = structured_mesh(unit_square(), 0.5)
    assert mesh.n_nodes == 9
    assert mesh.n_triangles == 8
    assert mesh.nonobtuse
    assert mesh.min_angle == pytest.approx(45.0)
    _check_invariants(mesh)


def test_structured_l_shape():
    mesh = structured_mesh(l_shape(), 0.125)
    assert mesh.n_nodes == 225
    assert mesh.nonobtuse
    _check_invariants(mesh)


def test_structured_needs_dividing_h():
    with pytest.raises(MeshError, match="h dividing 1"):
        structured_mesh(unit_square(), 0.3)
    with pytest.raises(MeshError, match="vertices on the 1/4 grid; vertex 2"):
        structured_mesh(build_domain("sector(3pi/2, 16)"), 0.25)
    # vertices on the grid, but a side that is not axis-parallel
    with pytest.raises(MeshError, match="axis-parallel sides; side 1"):
        structured_mesh(build_domain([(0, 0), (1, 0), (0, 1)]), 0.25)


@pytest.mark.parametrize("h", [1 / 8, 1 / 32])
def test_structured_mesh_depends_on_vertices_not_name(h):
    named = structured_mesh(l_shape(), h)
    listed = structured_mesh(build_domain(l_shape().vertices.tolist()), h)
    assert listed.domain.name != named.domain.name
    for a, b in zip(_arrays(named), _arrays(listed)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------
# unstructured Delaunay

@pytest.mark.parametrize("name,h,angle", [
    ("unit-square", 0.11, 0.0),
    ("l-shape", 0.13, 0.0),
    # a rotated lattice: 23.49 degrees on its one pass
    ("l-shape", 1 / 16, 0.011),
], ids=["unit-square-0.11", "l-shape-0.13", "l-shape-0.0625-0.011"])
def test_triangulate_quality(name, h, angle):
    dom = build_domain(name)
    mesh = triangulate(dom, h, lattice_angle=angle)
    _check_invariants(mesh)
    # actual max edge length stays near the target
    assert mesh.h <= 2.0 * h


def test_triangulate_sector():
    dom = build_domain("sector(3pi/2, 32)")
    mesh = triangulate(dom, 0.1)
    _check_invariants(mesh)


# inputs that once fell below 20 degrees between the boundary and the
# lattice: the first four at these lattice angles (19.59, 19.78, 19.67 and
# 19.59), the graded L-shape at 1/8 (17.14) and the two-corner polygon
# (17.74) at any; test_graded_sector_reaches_fine_h covers the graded
# sector past the seam (19.74)
_GATE_CASES = {
    "l-shape-1/16-6deg": ("l-shape", None, 1 / 16, {}, 6),
    "l-shape-1/16-8deg": ("l-shape", None, 1 / 16, {}, 8),
    "l-shape-0.05-2deg": ("l-shape", None, 0.05, {}, 2),
    "graded-square-1/16-36deg": ("unit-square", None, 1 / 16, {0: 0.5}, 36),
    "graded-l-shape-1/8": ("l-shape", None, 1 / 8, {2: 0.5}, 0),
    "two-corner-polygon-1/16": (
        [(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1.5), (1, 2), (0, 2)],
        None, 1 / 16, {4: 0.5, 5: 0.5}, 0),
}


@pytest.mark.parametrize("case", list(_GATE_CASES))
def test_first_pass_clears_the_gate(case):
    spec, radii, h, grading, degrees = _GATE_CASES[case]
    mesh = triangulate(build_domain(spec, r_overrides=radii), h, grading,
                       lattice_angle=math.radians(degrees))
    _check_invariants(mesh)
    assert mesh.min_angle >= 21.0


def test_sector_mesh_symmetric_about_bisector():
    dom = build_domain("sector(3pi/2, 64)")
    bis = 0.75 * math.pi
    mesh = triangulate(dom, 0.08, lattice_angle=bis)
    c, s = math.cos(bis), math.sin(bis)
    pts = mesh.nodes
    refl = np.column_stack([
        (c * c - s * s) * pts[:, 0] + 2 * c * s * pts[:, 1],
        2 * c * s * pts[:, 0] - (c * c - s * s) * pts[:, 1],
    ])
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(pts).query(refl)
    assert dist.max() < 1e-9


# the meshes of the preset-ladder benchmark (case-a0 and ex38-skew, first
# levels), then the L-shape and a graded sector at three lattice angles
_QHULL_CASES = [("l-shape", 1 / 32, {2: 0.5}, 0.0),
                ("sector(3pi/2, 64)", 0.05, {}, 0.0),
                ("sector(3pi/2, 64)", 0.025, {}, 0.0)] + [
    (spec, h, grading, angle)
    for angle in (0.0, 0.011, math.pi / 4 + 0.001)
    for spec, h, grading in [("l-shape", 0.05, {}),
                             ("sector(3pi/2, 64)", 0.025, {0: 0.5})]]


def _circumcircles(p):
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    b, c = b - a, c - a
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    o = np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                         b[:, 0] * cc - c[:, 0] * bb]) / d[:, None]
    return a + o, np.hypot(o[:, 0], o[:, 1])


def _assert_whole_set_qhull_up_to_ties(dom, pts, tris, h):
    """``tris`` is scipy's Delaunay triangulation of all of ``pts`` trimmed
    to the polygon by centroid, except at cocircular ties."""
    from scipy.spatial import Delaunay, cKDTree

    ref = Delaunay(pts).simplices
    u, v = pts[ref[:, 1]] - pts[ref[:, 0]], pts[ref[:, 2]] - pts[ref[:, 0]]
    area2 = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    ref = ref[np.abs(area2) > 1e-10 * h * h]  # Qhull's slivers on straight sides
    ref = ref[dom.contains(pts[ref].mean(axis=1))]
    assert len(ref) == len(tris)
    ours = set(map(tuple, np.sort(tris, axis=1).tolist()))
    theirs = set(map(tuple, np.sort(ref, axis=1).tolist()))
    diff = np.array(sorted(ours ^ theirs), dtype=np.int64).reshape(-1, 3)
    # every difference is a cocircular tie: a 4th node on the circumcircle,
    # none inside
    centre, r = _circumcircles(pts[diff])
    tree = cKDTree(pts)
    for o, rad in zip(centre, r):
        d = np.hypot(*(pts[tree.query_ball_point(o, 1.01 * rad)] - o).T)
        assert np.count_nonzero(np.abs(d - rad) <= 1e-9 * rad) >= 4
        assert np.all(d >= rad * (1.0 - 1e-9))


@pytest.mark.parametrize("spec,h,grading,angle", _QHULL_CASES,
                         ids=[f"{c[0]}-{c[1]:g}-{c[2]}-{c[3]:.4f}" for c in _QHULL_CASES])
def test_triangulation_is_whole_set_qhull_up_to_ties(spec, h, grading, angle):
    dom = build_domain(spec, r_overrides={0: 0.3} if "sector" in spec else None)
    mesh = triangulate(dom, h, grading, angle)
    _assert_whole_set_qhull_up_to_ties(dom, mesh.nodes, mesh.triangles, h)


@pytest.mark.parametrize("frac", [0.0, 0.9])
def test_node_in_a_lattice_circumdisk_joins_the_band(frac):
    # a node inside the lattice triangle at the centre of the square, frac R
    # from its centroid toward a vertex (R its circumradius), lies in the
    # closed circumdisks of that triangle and of some neighbours: none of
    # them may be certified
    dom, h = unit_square(), 0.1
    bpts, chains = _side_points(dom, h, {})
    lat, ij = _hex_lattice(dom, h, 0.0)
    kept = _filter_interior(np.column_stack([lat, ij]), bpts, _chain_segments(chains))
    lat, ij = kept[:, :2], kept[:, 2:].astype(np.int64)
    i, u = ij[np.argmin(np.hypot(*(lat - 0.5).T))]
    tri = [np.flatnonzero((ij == n).all(axis=1))[0]
           for n in [(i, u), (i, u + 2), (i + 1, u + 1)]]
    cent = lat[tri].mean(axis=0)
    extra = cent + frac * (lat[tri[0]] - cent)
    pts = np.vstack([bpts, lat, extra])
    tris = _triangles(dom, pts, len(bpts) + np.arange(len(lat)), ij, h, 0.0)
    assert np.isin(len(pts) - 1, tris)
    _assert_whole_set_qhull_up_to_ties(dom, pts, tris, h)


def _lattice_by_contains(domain, h, angle):
    """Reference: the lattice points of a disk around the domain, filtered
    by ``contains``, as rows x, y, i, u."""
    c, s = math.cos(angle), math.sin(angle)
    dy = h * math.sqrt(3.0) / 2.0
    n = int(np.hypot(*domain.vertices.T).max() / dy) + 2
    i, k = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1), indexing="ij")
    i, k = i.ravel(), k.ravel()
    x, y = h * (k + 0.5 * (i % 2)), i * dy
    rows = np.column_stack([c * x - s * y, s * x + c * y, i, 2 * k + i % 2])
    return rows[domain.contains(rows[:, :2])]


@pytest.mark.parametrize("angle", [0.0, 0.011, math.pi / 4 + 0.001])
@pytest.mark.parametrize("spec", ["l-shape", "sector(3pi/2, 64)",
                                  "sector(19pi/10, 1024)", "unit-square"])
def test_row_clipping_keeps_the_contains_lattice(spec, angle):
    dom, h = build_domain(spec), 0.05
    pts, ij = _hex_lattice(dom, h, angle)
    clipped = np.column_stack([pts, ij])
    ref = _lattice_by_contains(dom, h, angle)
    if angle == 0.0:
        # the same arithmetic as contains, so the same points, including
        # those on the sides (the L-shape's y = 0 row and x = 0 column)
        assert np.array_equal(clipped, ref)
    bpts, chains = _side_points(dom, h, {})
    segs = _chain_segments(chains)
    assert np.array_equal(_filter_interior(clipped, bpts, segs),
                          _filter_interior(ref, bpts, segs))


def _angles_by_vertex_pairs(p):
    """Triangle angles (3, nt) from the two edges at each vertex, each
    difference and norm taken afresh."""
    angs = []
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        dot = (u * v).sum(axis=1)
        den = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        angs.append(np.degrees(np.arccos(np.clip(dot / den, -1.0, 1.0))))
    return np.stack(angs)


@pytest.mark.parametrize("build", [
    lambda: structured_mesh(l_shape(), 0.1),
    lambda: triangulate(l_shape(), 1 / 32, {2: 0.5}),
    lambda: triangulate(build_domain("sector(3pi/2, 64)", r_overrides={0: 0.3}),
                        0.025, {0: 0.5}, lattice_angle=0.011),
], ids=["structured-l-shape", "graded-l-shape", "graded-sector-rotated"])
def test_shared_edge_angles_match_vertex_pairs(build):
    # _finalize takes each edge vector and length once; the angles, h and
    # the quality flags equal those of the per-vertex formula bit for bit
    mesh = build()
    p = mesh.nodes[mesh.triangles]
    edges = np.roll(p, -1, axis=1) - p
    lens = np.linalg.norm(edges, axis=2)
    ref = _angles_by_vertex_pairs(p)
    assert _angles_deg(edges, lens).T.tobytes() == ref.tobytes()
    assert mesh.min_angle == float(ref.min())
    assert mesh.nonobtuse == bool(ref.max() <= 90.0 + 1e-9)
    assert mesh.h == float(max(np.linalg.norm(p[:, (k + 1) % 3] - p[:, k],
                                              axis=1).max() for k in range(3)))


def test_triangulate_rejects_bad_input():
    with pytest.raises(MeshError):
        triangulate(unit_square(), -0.1)
    with pytest.raises(MeshError):
        triangulate(l_shape(), 0.25, grading={2: 1.5})
    with pytest.raises(MeshError):
        triangulate(l_shape(), 0.25, grading={17: 0.5})
    # a Qhull failure surfaces as MeshError (exit code 3), not QhullError
    with pytest.raises(MeshError):
        _delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


# Counts (nodes, triangles, boundary nodes) and sha256 prefixes of nodes,
# triangles and trace.side_of_segment (float64, int64, int64;
# little-endian bytes) of meshes whose edge tables go through _finalize
# from both generators.  Node digests are pinned where the coordinates
# are exact lattice arithmetic; a rotated lattice rounds through the
# cosine and sine of its angle, so its nodes are not pinned.  The trace
# is numbered first, so its points are the first trace.n nodes.
@pytest.mark.parametrize("build,counts,digests", [
    (lambda: structured_mesh(l_shape(), 1 / 16), (833, 1536, 128),
     ("cb44f56c413700ca", "d49755c8a114126a", "bd0673ff69c7ab5d")),
    (lambda: triangulate(l_shape(), 1 / 16, lattice_angle=0.011), (929, 1728, 128),
     (None, "05a503c774457c6c", "bd0673ff69c7ab5d")),
], ids=["structured", "rotated-lattice"])
def test_mesh_arrays_are_pinned(build, counts, digests):
    mesh = build()
    arrays = _arrays(mesh)
    assert [a.dtype for a in arrays] == [np.float64] + 2 * [np.int64]
    assert (mesh.n_nodes, mesh.n_triangles, mesh.trace.n) == counts
    assert np.array_equal(mesh.nodes[:mesh.trace.n], mesh.trace.points)
    for a, want in zip(arrays, digests):
        if want is not None:
            assert _digest(a) == want


@pytest.mark.parametrize("build", [
    lambda: structured_mesh(l_shape(), 1 / 16),
    lambda: triangulate(l_shape(), 1 / 16, grading={2: 0.5}),
    lambda: triangulate(l_shape(), 1 / 16, lattice_angle=0.011),
    lambda: triangulate(build_domain("sector(3pi/2, 64)"), 0.1),
], ids=["structured", "graded", "rotated-lattice", "sector"])
def test_edge_table_maps_every_half_edge(build):
    mesh = build()
    t, e, te = mesh.triangles, mesh.edges, mesh.tri_edges
    assert te.shape == t.shape and e.dtype == te.dtype == np.int64
    # distinct pairs a < b in lexicographic order
    keys = e[:, 0] * mesh.n_nodes + e[:, 1]
    assert np.all(e[:, 0] < e[:, 1]) and np.all(np.diff(keys) > 0)
    # half-edge k of a triangle, vertex k -> k+1, maps to an edge with the
    # same two endpoints
    a, b = t, np.roll(t, -1, axis=1)
    assert np.array_equal(e[te, 0], np.minimum(a, b))
    assert np.array_equal(e[te, 1], np.maximum(a, b))
    # every edge is used once (on the boundary) or twice
    uses = np.bincount(te.ravel(), minlength=len(e))
    assert uses.min() == 1 and uses.max() == 2
    assert np.count_nonzero(uses == 1) == mesh.trace.n


def _filter_interior_by_disk_loop(interior, bpts, bsegs):
    """Reference: one pass over every candidate per disk."""
    keep = np.ones(len(interior), dtype=bool)
    ln = np.zeros(len(bpts))
    for ia, ib in bsegs:
        a, b = bpts[ia], bpts[ib]
        L = float(np.linalg.norm(b - a))
        ln[ia], ln[ib] = max(ln[ia], L), max(ln[ib], L)
        d, r = interior - 0.5 * (a + b), 0.6 * L
        keep &= (d[:, 0] ** 2 + d[:, 1] ** 2) > r * r
    for i, p in enumerate(bpts):
        d, r = interior - p, 0.5 * ln[i]
        keep &= (d[:, 0] ** 2 + d[:, 1] ** 2) > r * r
    return interior[keep]


def test_interior_filter_matches_disk_loop():
    # random candidates plus candidates placed on each disk's circle, where
    # the KD-tree's own rounding would decide without the exact test
    bpts, chains = _side_points(l_shape(), 1 / 8, {2: 0.5})
    segs = _chain_segments(chains)
    rng = np.random.default_rng(0)
    a, b = bpts[[s[0] for s in segs]], bpts[[s[1] for s in segs]]
    rad = 0.6 * np.linalg.norm(b - a, axis=1)
    ang = rng.uniform(0.0, 2.0 * math.pi, len(segs))
    on_circle = 0.5 * (a + b) + rad[:, None] * np.column_stack([np.cos(ang),
                                                                np.sin(ang)])
    interior = np.vstack([rng.uniform(-1.0, 1.0, (4000, 2)), on_circle])
    ref = _filter_interior_by_disk_loop(interior, bpts, segs)
    out = _filter_interior(interior, bpts, segs)
    assert 0 < len(out) < len(interior)
    assert np.array_equal(out, ref)
    assert len(_filter_interior(interior[:0], bpts, segs)) == 0


def _chain_segments(chains):
    return [(int(a), int(b)) for c in chains for a, b in zip(c[:-1], c[1:])]


def _segments_by_distance(domain, bpts):
    """Reference: each side's nodes found by their distance to it, in
    order along it."""
    segs = []
    M = len(domain.vertices)
    for j in range(M):
        a, b = domain.vertices[j], domain.vertices[(j + 1) % M]
        dist, t = point_segment_distance(bpts, a, b)
        ids = np.flatnonzero(dist <= 1e-9 * float(np.linalg.norm(b - a)))
        ids = ids[np.argsort(t[ids])]
        segs.extend(zip(ids[:-1].tolist(), ids[1:].tolist()))
    return segs


@pytest.mark.parametrize("spec,h,grading", [
    ("unit-square", 0.11, {}),
    ("l-shape", 1 / 8, {2: 0.5}),
    ("l-shape", 1 / 32, {2: 1 / 3, 0: 0.6}),
    ("sector(3pi/2, 64)", 0.05, {0: 0.5}),
])
def test_side_segments_match_distance_search(spec, h, grading):
    dom = build_domain(spec)
    bpts, chains = _side_points(dom, h, grading)
    assert [c[0] for c in chains] == list(range(len(dom.vertices)))
    segs = _chain_segments(chains)
    assert segs == _segments_by_distance(dom, bpts)
    assert len(segs) == len(bpts)


@pytest.mark.parametrize("vertices,h", [
    ([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], 1 / 4),
    ([[3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2], [0, 0], [3, 0]], 1 / 2),
], ids=["six-vertex", "u-shape-from-top-right"])
def test_structured_chains_match_distance_search(vertices, h):
    # the trace reads structured_mesh's side chains in order
    mesh = structured_mesh(build_domain(vertices), h)
    ids = list(range(mesh.trace.n))
    assert (list(zip(ids, ids[1:] + ids[:1]))
            == _segments_by_distance(mesh.domain, mesh.nodes))


# ---------------------------------------------------------------------
# grading

@pytest.mark.parametrize("mu", [2.0 / 3.0, 0.5, 1.0 / 3.0])
def test_graded_first_layer_law(mu):
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    R = dom.corners[j].radius
    h = 1.0 / 16.0
    mesh = triangulate(dom, h, grading={j: mu})
    _check_invariants(mesh)
    d = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    bn = mesh.boundary_node_ids()
    onx = bn[(np.abs(mesh.nodes[bn, 1]) < 1e-12) & (mesh.nodes[bn, 0] > 1e-12)]
    r1 = d[onx].min()
    law = h ** (1.0 / mu) * R ** (1.0 - 1.0 / mu)
    # the innermost layer obeys the law up to the bounded truncation factor
    assert law * 0.99 <= r1 <= math.e * law


def test_graded_layer_spacing_follows_power_law():
    # boundary spacing ~ h (r/R)^(1-mu) away from the innermost cell
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    R = dom.corners[j].radius
    h, mu = 1.0 / 32.0, 0.5
    mesh = triangulate(dom, h, grading={j: mu})
    bn = mesh.boundary_node_ids()
    onx = bn[(np.abs(mesh.nodes[bn, 1]) < 1e-12) & (mesh.nodes[bn, 0] > 1e-12)]
    rr = np.sort(np.hypot(*mesh.nodes[onx].T))
    rr = rr[rr < R - 1e-12]
    gaps = np.diff(rr)
    mids = 0.5 * (rr[1:] + rr[:-1])
    want = h * (mids / R) ** (1.0 - mu)
    assert np.all(gaps < 1.3 * want) and np.all(gaps > 0.7 * want)


def test_graded_refinement_stays_graded():
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    # the next rung of a graded ladder is a fresh call at h/2
    fine = triangulate(dom, 1.0 / 32.0, grading={j: 0.5})
    _check_invariants(fine)
    d = np.hypot(fine.nodes[:, 0], fine.nodes[:, 1])
    bn = fine.boundary_node_ids()
    onx = bn[(np.abs(fine.nodes[bn, 1]) < 1e-12) & (fine.nodes[bn, 0] > 1e-12)]
    R = dom.corners[j].radius
    law = (1.0 / 32.0) ** 2 * R ** (-1.0)
    assert d[onx].min() == pytest.approx(law, rel=1e-9)


@pytest.mark.parametrize("omega,mu", [("3pi/2", 0.5), ("19pi/10", 1 / 3)])
def test_graded_sector_reaches_fine_h(omega, mu):
    # the lattice cut at R + h/2 keeps the seam between the outermost ring
    # and the lattice at ~h as h shrinks; at 1.05 R it was 2.4 h here, and
    # the mesh failed the angle gate at 17-18 degrees; with the ring at R
    # it clears the gate with a margin on its one pass
    dom = build_domain(f"sector({omega}, 64)", r_overrides={0: 0.3})
    mesh = triangulate(dom, 0.00625, grading={0: mu})
    _check_invariants(mesh)
    assert mesh.min_angle >= 21.0


# ---------------------------------------------------------------------
# boundary trace

def test_trace_square():
    mesh = structured_mesh(unit_square(), 0.25)
    tr = mesh.trace
    assert tr.perimeter() == pytest.approx(4.0)
    assert tr.n == 16
    # starts at corner 0 and walks counterclockwise
    assert np.allclose(tr.points[0], (0.0, 0.0))
    assert tr.corner_pos[0] == 0
    assert np.all(np.diff(tr.arc) > 0)
    # mass matrix: total mass is the perimeter, rows sum to the lumped mass
    assert tr.mass.sum() == pytest.approx(4.0)
    assert np.allclose(np.asarray(tr.mass.sum(axis=1)).ravel(), tr.lumped)


def test_trace_side_positions():
    mesh = structured_mesh(unit_square(), 0.25)
    tr = mesh.trace
    pos = tr.side_positions(0)
    assert len(pos) == 5  # both corners included
    pts = tr.points[pos]
    assert np.allclose(pts[:, 1], 0.0)
    assert np.all(np.diff(pts[:, 0]) > 0)
    # segment side tags partition the loop
    assert set(tr.side_of_segment.tolist()) == {0, 1, 2, 3}


# the unit square cut along its diagonal into two triangles
_SQUARE_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
_SQUARE_TRIS = np.array([[0, 1, 2], [0, 2, 3]])


def test_finalize_reads_the_trace_from_the_chains():
    mesh = _finalize(unit_square(), _SQUARE_NODES, _SQUARE_TRIS,
                     [[0, 1], [1, 2], [2, 3], [3, 0]])
    tr = mesh.trace
    assert tr.points.tolist() == _SQUARE_NODES.tolist()
    assert tr.side_of_segment.tolist() == [0, 1, 2, 3]
    assert tr.corner_pos == {0: 0, 1: 1, 2: 2, 3: 3}


def test_finalize_numbers_the_trace_first():
    # the unit square with its corners scrambled among the generator's
    # ids, one interior node (id 2) and one point no triangle uses (id 4)
    pts = np.array([[1.0, 1.0], [0.0, 1.0], [0.5, 0.5], [0.0, 0.0],
                    [0.3, 0.7], [1.0, 0.0]])
    tris = np.array([[3, 5, 2], [5, 0, 2], [0, 1, 2], [1, 3, 2]])
    mesh = _finalize(unit_square(), pts, tris, [[3, 5], [5, 0], [0, 1], [1, 3]])
    # node k < 4 is trace position k, the interior node follows, the
    # unused point is gone
    assert mesh.trace.n == 4 and mesh.n_nodes == 5
    assert mesh.nodes.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                   [0.0, 1.0], [0.5, 0.5]]
    assert np.array_equal(mesh.trace.points, mesh.nodes[:4])
    assert mesh.boundary_node_ids().tolist() == [0, 1, 2, 3]
    # every triangle holds the same points, in the same order
    assert mesh.nodes[mesh.triangles].tobytes() == pts[tris].tobytes()


@pytest.mark.parametrize("chains,match", [
    ([[0, 1], [1, 2], [2, 3]], "not a simple loop"),
    ([[0, 1], [1, 2], [2, 3, 0]], "3 side chains for 4 sides"),
    ([[1, 2], [2, 3], [3, 0], [0, 1]], "chain 0 does not start at its corner"),
    ([[0, 2], [2, 3], [3, 0]], "boundary edges are not"),
    ([[0, 1], [1, 2], [2, 3], [3, 0, 1]], "not a simple loop"),
], ids=["missing-side", "merged-sides", "wrong-corner", "diagonal",
        "repeated-node"])
def test_finalize_rejects_chains_off_the_boundary(chains, match):
    with pytest.raises(MeshError, match=match):
        _finalize(unit_square(), _SQUARE_NODES, _SQUARE_TRIS, chains)


def test_finalize_names_the_area_sum_as_a_plain_number():
    # one of the two triangles dropped: the areas sum to half the square's
    with pytest.raises(MeshError) as err:
        _finalize(unit_square(), _SQUARE_NODES, _SQUARE_TRIS[:1],
                  [[0, 1], [1, 2], [2, 3], [3, 0]])
    assert str(err.value) == "triangle areas sum to 0.5, domain area 1.0"


def test_trace_l_shape_perimeter():
    mesh = triangulate(l_shape(), 0.2)
    tr = mesh.trace
    assert tr.perimeter() == pytest.approx(8.0)
