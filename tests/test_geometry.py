"""Corner data, index sets, cut-offs, and closed-form wedge formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from dclab import geometry, singular
from dclab.geometry import (
    GeometryError,
    L_SHAPE_REENTRANT_CORNER,
    MAX_VERTICES,
    PolygonalDomain,
    SingularBoundaryData,
    UNBOUNDED,
    _check_simple,
    _polar_arrays,
    build_domain,
    cutoff,
    eval_s_profile,
    eval_singular_volume,
    l_shape,
    point_segment_distance,
    sector,
    singular_set_for_exponents,
    unit_square,
)
from dclab.meshing import structured_mesh


# ---------------------------------------------------------------------
# polygon construction and validation

def test_unit_square_basic():
    dom = unit_square()
    assert len(dom.vertices) == 4
    assert dom.area == pytest.approx(1.0)
    assert dom.perimeter == pytest.approx(4.0)
    assert np.allclose(dom.lambdas, 2.0)
    assert all(c.convex for c in dom.corners)


def test_l_shape_reentrant_corner():
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    c = dom.corners[j]
    assert c.vertex == (0.0, 0.0)
    assert c.angle == pytest.approx(1.5 * math.pi)
    assert c.lam == pytest.approx(2.0 / 3.0)
    assert c.reentrant and not c.convex
    assert dom.area == pytest.approx(3.0)
    assert dom.perimeter == pytest.approx(8.0)
    # the other five corners are right angles
    lams = np.delete(dom.lambdas, j)
    assert np.allclose(lams, 2.0)


def test_l_shape_localization_radius():
    # auto rule: quarter of the shortest adjacent feature scale
    dom = l_shape()
    assert dom.corners[L_SHAPE_REENTRANT_CORNER].radius == pytest.approx(0.125)


def test_radius_override_and_validation():
    dom = build_domain("l-shape", r_overrides={2: 0.3})
    assert dom.corners[2].radius == pytest.approx(0.3)
    square = build_domain("unit-square", r_overrides={0: 0.1})
    assert square.corners[0].radius == 0.1 and square.name == "unit-square"
    assert square.corners[1].radius == unit_square().corners[1].radius
    with pytest.raises(GeometryError):
        build_domain("l-shape", r_overrides={2: 0.9})  # wedge pokes out
    with pytest.raises(GeometryError):
        build_domain("l-shape", r_overrides={2: -0.1})
    with pytest.raises(GeometryError, match="corners 0 and 1 overlap"):
        PolygonalDomain(unit_square().vertices, r_overrides={0: 0.3, 1: 0.3})


def _clearance_by_side_loop(verts, j):
    """Distance from corner j to its non-adjacent sides, one side at a time."""
    M = len(verts)
    best = math.inf
    for s in range(M):
        if s in (j, (j - 1) % M):
            continue
        a, b = verts[s], verts[(s + 1) % M]
        ab = b - a
        t = min(1.0, max(0.0, float(np.dot(verts[j] - a, ab) / np.dot(ab, ab))))
        best = min(best, float(np.linalg.norm(verts[j] - (a + t * ab))))
    return best


@pytest.mark.parametrize("spec,overrides", [
    ("l-shape", None), ("unit-square", None), ("sector(3pi/2, 64)", {0: 0.3}),
    ("sector(3pi/2, 16)", None), ("sector(1.9pi, 128)", None),
])
def test_corner_radii_match_side_loop(spec, overrides):
    # the vectorized clearance may differ from the loop in the last bits,
    # but no corner radius moves
    dom = build_domain(spec, overrides)
    verts, L = dom.vertices, dom.side_lengths
    for j, c in enumerate(dom.corners):
        clear = _clearance_by_side_loop(verts, j)
        nearest = np.delete(np.linalg.norm(verts[j] - verts, axis=1), j).min()
        auto = min(0.25 * min(L[j], L[j - 1], 0.5 * nearest), 0.49 * clear)
        assert c.radius == (overrides or {}).get(j, auto)


def _clearance_per_corner(verts, j):
    """The per-corner clearance that PolygonalDomain computed before it
    took all corners in one (M, M) distance, as reference."""
    M = len(verts)
    far = (np.arange(M) != j) & (np.arange(M) != (j - 1) % M)
    dist, _ = point_segment_distance(verts[j], verts[far],
                                     np.roll(verts, -1, axis=0)[far])
    return float(dist.min())


@pytest.mark.parametrize("spec", ["l-shape", "sector(3pi/2, 64)",
                                  "sector(3pi/2, 1024)"])
def test_corner_radii_match_per_corner_clearance(spec):
    # bit for bit: the same arithmetic, one corner at a time
    dom = build_domain(spec)
    verts, L = dom.vertices, dom.side_lengths
    nearest = np.linalg.norm(verts[:, None] - verts[None], axis=2)
    np.fill_diagonal(nearest, np.inf)
    for j, c in enumerate(dom.corners):
        auto = min(0.25 * min(L[j], L[j - 1], 0.5 * nearest[j].min()),
                   0.49 * _clearance_per_corner(verts, j))
        assert c.radius == auto


def test_vertex_count_is_bounded():
    # the count is checked before any (M, M) work: these sides would
    # otherwise fail as zero-length
    with pytest.raises(GeometryError, match=f"need 3 to {MAX_VERTICES} "):
        PolygonalDomain(np.zeros((MAX_VERTICES + 1, 2)))
    with pytest.raises(GeometryError, match="arc chords"):
        sector(1.5 * math.pi, MAX_VERTICES - 1)
    assert len(sector(1.5 * math.pi, MAX_VERTICES - 2).vertices) == MAX_VERTICES


def test_clockwise_polygon_rejected():
    with pytest.raises(GeometryError, match="counterclockwise"):
        PolygonalDomain([(0, 0), (0, 1), (1, 1), (1, 0)])


def test_self_intersecting_polygon_rejected():
    with pytest.raises(GeometryError):
        PolygonalDomain([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie


def _scalar_check_simple(verts, scale):
    """The side-pair loop that ``_check_simple`` replaces, as reference:
    the first crossing pair (i, j) in loop order, or None."""
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    def on_seg(p, q, r):
        return (abs(orient(p, q, r)) <= tol
                and min(p[0], q[0]) - tol <= r[0] <= max(p[0], q[0]) + tol
                and min(p[1], q[1]) - tol <= r[1] <= max(p[1], q[1]) + tol)

    def cross(a1, a2, b1, b2):
        d1 = orient(b1, b2, a1)
        d2 = orient(b1, b2, a2)
        d3 = orient(a1, a2, b1)
        d4 = orient(a1, a2, b2)
        if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and \
           ((d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)):
            return True
        return any((abs(d) <= tol and on_seg(p, q, r)) for d, (p, q, r) in [
            (d1, (b1, b2, a1)), (d2, (b1, b2, a2)),
            (d3, (a1, a2, b1)), (d4, (a1, a2, b2))])

    M = len(verts)
    tol = 1e-12 * scale * scale
    for i in range(M):
        for j in range(i + 1, M):
            if j == i or (j + 1) % M == i or (i + 1) % M == j:
                continue
            if cross(verts[i], verts[(i + 1) % M],
                     verts[j], verts[(j + 1) % M]):
                return i, j
    return None


def _first_crossing(verts, scale):
    try:
        _check_simple(verts, scale)
    except GeometryError as exc:
        return str(exc)
    return None


def test_simplicity_check_matches_the_side_pair_loop(monkeypatch):
    # random polygons on a coarse integer grid (collinear sides, vertices
    # on sides and touching ends are common there) and on the plane, the
    # self-intersecting bowtie, and valid domains; small blocks of pairs
    # make the block walk keep the loop's order
    rng = np.random.default_rng(17)
    cases = [np.array([(0, 0), (1, 1), (1, 0), (0, 1)], dtype=float),
             np.array([(0, 0), (2, 0), (2, 2), (1, -1), (0, 2)], dtype=float),
             l_shape().vertices, sector(1.5 * math.pi, 40).vertices]
    for _ in range(300):
        m = int(rng.integers(4, 12))
        cases.append(rng.integers(0, 4, size=(m, 2)).astype(float))
        cases.append(rng.normal(size=(m, 2)))
    found = 0
    for block in (geometry._PAIR_BLOCK, 7):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        for verts in cases:
            scale = float(np.linalg.norm(
                np.roll(verts, -1, axis=0) - verts, axis=1).max())
            want = _scalar_check_simple(verts, scale)
            got = _first_crossing(verts, scale)
            assert got == (None if want is None
                           else f"sides {want[0]} and {want[1]} intersect")
            found += want is not None
    assert 0 < found < 2 * len(cases)


def test_zero_length_side_rejected():
    with pytest.raises(GeometryError):
        PolygonalDomain([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_sector_names_and_parse():
    dom = build_domain("sector(3pi/2, 16)")
    assert dom.corners[0].angle == pytest.approx(1.5 * math.pi)
    assert dom.corners[0].vertex == (0.0, 0.0)
    dom2 = sector(0.75 * math.pi, 16)
    assert dom2.corners[0].lam == pytest.approx(4.0 / 3.0)
    with pytest.raises(GeometryError):
        build_domain("pac-man")
    with pytest.raises(GeometryError):
        sector(2.0 * math.pi)
    with pytest.raises(GeometryError):
        sector(1.0, n_arc=4)


def test_contains():
    dom = l_shape()
    inside = dom.contains([(-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    assert inside.all()
    outside = dom.contains([(0.5, -0.5), (1.5, 0.0), (-2.0, 0.0)])
    assert not outside.any()


# ---------------------------------------------------------------------
# local polar frames

def test_local_polar_l_shape():
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    r, theta = _polar_arrays(dom, j, [(0.5, 0.0), (0.0, 0.7), (0.0, -0.5),
                                      (0.0, 0.0)])
    assert r[0] == pytest.approx(0.5) and theta[0] == pytest.approx(0.0)
    assert theta[1] == pytest.approx(0.5 * math.pi)
    assert theta[2] == pytest.approx(1.5 * math.pi)  # on Gamma_{j-1}
    assert r[3] == 0.0 and theta[3] == 0.0  # the corner itself


@settings(max_examples=200)
@given(r=st.floats(1e-6, 0.9), frac=st.floats(0.0, 1.0))
def test_local_polar_round_trip(r, frac):
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    c = dom.corners[j]
    theta = frac * c.angle
    ang = c.frame_angle + theta
    p = (c.vertex[0] + r * math.cos(ang), c.vertex[1] + r * math.sin(ang))
    (got_r,), (got_theta,) = _polar_arrays(dom, j, p)
    assert got_r == pytest.approx(r, rel=1e-12)
    assert got_theta == pytest.approx(theta, abs=1e-9)


# ---------------------------------------------------------------------
# cut-off

def test_cutoff_values_and_support():
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    R = dom.corners[j].radius
    assert cutoff(dom, j, 0.0) == 1.0
    assert cutoff(dom, j, R) == 1.0
    assert cutoff(dom, j, 1.5 * R) == pytest.approx(0.5)
    assert cutoff(dom, j, 2.0 * R) == 0.0
    assert cutoff(dom, j, 10.0 * R) == 0.0


def test_cutoff_is_c2():
    # value, slope and curvature match the constants outside the blend at
    # both ends: 1 - xi(R + eps) and xi(2R - eps) vanish like eps^3, with
    # the smoothstep's leading coefficient 10
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    R = dom.corners[j].radius
    for t in (1e-2, 1e-3, 1e-4):
        eps = t * R
        assert (1.0 - cutoff(dom, j, R + eps)) / t**3 == pytest.approx(
            10.0, rel=2e-2)
        assert cutoff(dom, j, 2.0 * R - eps) / t**3 == pytest.approx(
            10.0, rel=2e-2)


def test_cutoff_monotone():
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    R = dom.corners[j].radius
    rr = np.linspace(0.0, 2.5 * R, 400)
    vals = cutoff(dom, j, rr)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


# ---------------------------------------------------------------------
# index sets and Sobolev exponents

def test_singular_sets_l_shape():
    lams = l_shape().lambdas
    assert singular_set_for_exponents(lams, 2.0, 1) == {L_SHAPE_REENTRANT_CORNER}
    assert singular_set_for_exponents(lams, 2.0, 2) == set()
    assert singular_set_for_exponents(lams, 2.0, 3) == set()
    # below the W^{2,p} threshold p_omega = 3/2 nothing is singular
    assert singular_set_for_exponents(lams, 1.4, 1) == set()
    # second mode enters only for p > 3
    assert singular_set_for_exponents(lams, 4.0, 2) == {L_SHAPE_REENTRANT_CORNER}


def test_singular_sets_square_empty():
    lams = unit_square().lambdas
    for m in (1, 2, 3):
        assert singular_set_for_exponents(lams, 2.0, m) == set()


def test_resonance_guard():
    # p = 2, lam = 1: 2(p-1)/(p lam) = 1 is an integer
    with pytest.raises(GeometryError, match="resonant"):
        singular_set_for_exponents([1.0], 2.0, 1)


@settings(max_examples=300)
@given(
    lams=st.lists(st.floats(0.5, 4.0), min_size=1, max_size=8),
    p=st.floats(1.01, 20.0),
)
def test_singular_set_nesting(lams, p):
    try:
        sets = {m: singular_set_for_exponents(lams, p, m) for m in (1, 2, 3, 4, 5)}
    except GeometryError:
        assume(False)
    assert sets[3] <= sets[2] <= sets[1]
    assert sets[4] == set() and sets[5] == set()


# ---------------------------------------------------------------------
# wedge modes: values, harmonicity, traces, fluxes

def test_singular_volume_values():
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    lam = 2.0 / 3.0
    # inside the cutoff plateau the mode is exactly r^lam sin(lam theta)
    r, theta = 0.1, 0.8
    c = dom.corners[j]
    ang = c.frame_angle + theta
    p = (r * math.cos(ang), r * math.sin(ang))
    want = r**lam * math.sin(lam * theta)
    assert eval_singular_volume(dom, j, 1, p) == pytest.approx(want, rel=1e-12)
    # vanishes on both wedge walls and outside the support
    assert eval_singular_volume(dom, j, 1, (0.1, 0.0)) == pytest.approx(0.0, abs=1e-15)
    far = (0.9, 0.3)
    assert eval_singular_volume(dom, j, 1, far) == 0.0


def test_singular_volume_harmonic_in_plateau():
    # five-point Laplacian of r^{2 lam/3...} vanishes where the cutoff is 1
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    p0 = np.array([-0.05, 0.05])
    eps = 1e-4
    stencil = [(0, 0), (eps, 0), (-eps, 0), (0, eps), (0, -eps)]
    vals = [eval_singular_volume(dom, j, 1, p0 + s) for s in stencil]
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / eps**2
    assert abs(lap) < 1e-3  # FD error only; exact Laplacian is 0


def test_singular_normal_derivative_frozen():
    # the outward normal derivative of the m-th wedge mode on both sides
    # is the control's singular profile with coefficient -m lam (nu = 1):
    # -m lam chi^(m+1) r^(m lam - 1)
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    mesh = structured_mesh(dom, 1.0 / 16.0)
    tr = mesh.trace
    at = np.isclose(np.hypot(*tr.points.T), 1.0 / 16.0) & (tr.points[:, 0] >= 0.0)
    east, south = tr.points[at, 1] == 0.0, tr.points[at, 0] == 0.0
    assert east.sum() == south.sum() == 1  # one node on Gamma_j, Gamma_{j-1}

    def profile(m):
        terms = singular.predicted_control_terms(dom, j, {m: 1.0}, 1.0,
                                                 -UNBOUNDED, UNBOUNDED)
        return singular.control_singular_profile(dom, mesh, j, terms)[at]

    # -(2/3) (1/16)^(-1/3) = -1.6798947... on both sides for odd m
    assert profile(1) == pytest.approx([-1.6798947] * 2, abs=1e-6)
    # the even mode carries the side sign chi
    even = profile(2)
    assert even[east] == pytest.approx(-0.529134, abs=1e-6)
    assert even[south] == pytest.approx(0.529134, abs=1e-6)


def test_jump_chi():
    # the side sign chi_j is +1 on Gamma_j and -1 on Gamma_{j-1}: the side
    # order of the corner walk, carried by the parity-2 datum; the corner
    # and the non-adjacent sides take no sign
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    mesh = structured_mesh(dom, 1.0 / 16.0)
    tr = mesh.trace
    pos, _, chi = singular._corner_sides(dom, tr, j, 1.0)
    next_pos, prev_pos = pos[chi > 0], pos[chi < 0]
    assert np.isin(next_pos, tr.side_positions(j)).all()
    assert np.isin(prev_pos, tr.side_positions(j - 1)).all()
    assert np.all((tr.points[next_pos, 0] > 0.0) & (tr.points[next_pos, 1] == 0.0))
    assert np.all((tr.points[prev_pos, 0] == 0.0) & (tr.points[prev_pos, 1] < 0.0))
    g = singular.singular_boundary_values(
        dom, mesh, SingularBoundaryData(corner=j, n=2, eta=0.25))
    near = np.hypot(*tr.points.T) < 2.0 * dom.corners[j].radius
    assert np.all(g[next_pos[near[next_pos]]] > 0.0)
    assert np.all(g[prev_pos[near[prev_pos]]] < 0.0)
    rest = np.ones(tr.n, dtype=bool)
    rest[next_pos] = rest[prev_pos] = False
    assert rest[tr.corner_pos[j]] and np.all(g[rest] == 0.0)


@pytest.mark.parametrize("dom, j, n, eta", [
    # the two singular data of the lemma25-check preset
    (unit_square(), 0, 1, 1.5),
    (l_shape(), L_SHAPE_REENTRANT_CORNER, 2, 1.0 / 3.0),
    (l_shape(), L_SHAPE_REENTRANT_CORNER, 1, 0.4),
    (l_shape(), L_SHAPE_REENTRANT_CORNER, 2, 0.4),
], ids=["lemma25-n1-square", "lemma25-n2-lshape", "lshape-n1", "lshape-n2"])
def test_s_profile_endpoints(dom, j, n, eta):
    # s(0) = 1 and s(omega) = (-1)^(n+1): the odd datum keeps its sign
    # across the corner, the even one flips it
    w = dom.corners[j].angle
    s = eval_s_profile(dom, j, n, eta=eta, theta=np.array([0.0, w]))
    assert s[0] == pytest.approx(1.0)
    assert s[1] == pytest.approx((-1.0) ** (n + 1))


def test_s_profile_rejects_resonant_eta():
    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    # eta = lam resonates: sin(lam w) = sin(pi) = 0
    with pytest.raises(GeometryError, match="resonant"):
        eval_s_profile(dom, j, 1, eta=2.0 / 3.0, theta=0.3)


def test_control_singular_coefficient():
    # the control's wedge terms predicted from the adjoint's modes
    dom = l_shape()
    lam = 2.0 / 3.0
    j = L_SHAPE_REENTRANT_CORNER
    got = singular.predicted_control_terms(dom, j, {1: 1.0}, 0.1, -1.0, 1.0)
    assert got[1] == pytest.approx(-lam / 0.1)
    # zero not admissible: the projection freezes the corner value
    assert singular.predicted_control_terms(dom, j, {1: 1.0}, 0.1, 0.5,
                                            2.0) == {1: 0.0}
    assert singular.predicted_control_terms(dom, j, {1: 1.0}, 0.1,
                                            -UNBOUNDED, UNBOUNDED)[1] < 0.0


def test_singular_boundary_data_validation():
    from dclab.geometry import validate_singular_boundary_data

    dom = l_shape()
    j = L_SHAPE_REENTRANT_CORNER
    ok = SingularBoundaryData(corner=j, n=2, eta=0.25)
    validate_singular_boundary_data(dom, ok)
    with pytest.raises(GeometryError):
        validate_singular_boundary_data(
            dom, SingularBoundaryData(corner=j, n=2, eta=-0.1))
    with pytest.raises(GeometryError):  # eta/lam integer resonates
        validate_singular_boundary_data(
            dom, SingularBoundaryData(corner=j, n=1, eta=4.0 / 3.0))
