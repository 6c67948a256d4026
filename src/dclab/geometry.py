"""Polygonal domains and closed-form corner asymptotics for the Laplacian.

A simple polygon with counterclockwise vertices x_1..x_M has sides
Gamma_j = (x_j, x_{j+1}) and interior angles omega_j at x_j, measured
counterclockwise from Gamma_j to Gamma_{j-1}.  Each corner carries the
singular exponent

    lambda_j = pi / omega_j,

and the harmonic wedge modes r^{m lambda_j} sin(m lambda_j theta_j) in
local polar coordinates (r_j, theta_j) with theta_j = 0 on Gamma_j and
theta_j = omega_j on Gamma_{j-1}.  This module holds everything about a
domain that can be written down in closed form: the corner frames, the
C^2 cut-off functions localizing each corner, the index sets of
non-smooth modes at integrability p, the masked wedge fields
xi_j(r) r^k profile(theta) on nodes, and the corner profiles
s_{j,n}(theta) used to build singular Dirichlet data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Sentinel for an unbounded exponent or a missing box constraint.
UNBOUNDED = math.inf

#: Tolerance for the integer-resonance guard on exponent arithmetic.
RESONANCE_TOL = 1e-9

#: Largest vertex coordinate magnitude: squared side lengths, pairwise
#: vertex distances and the signed area stay finite below it.
COORD_MAX = 1e150

#: Most vertices a polygon may have.  The radius and clearance checks
#: build (M, M, 2) float64 temporaries; at M = 1,100 each is 19.4 MB.
#: sector(3pi/2, 1024) has 1,026 vertices.
MAX_VERTICES = 1_100

#: side pairs tested at once by the simplicity check (bounds its memory)
_PAIR_BLOCK = 1 << 18


class GeometryError(ValueError):
    """Invalid polygon, corner query, or resonant exponent combination."""


@dataclass(frozen=True)
class CornerData:
    """Closed-form data attached to corner j of a polygon.

    ``angle`` is the interior angle omega_j, ``lam`` the exponent
    pi/omega_j, ``radius`` the localization radius R_j (cutoff is 1 on
    [0, R_j] and 0 beyond 2 R_j).  ``frame_angle`` is the direction of
    Gamma_j; local polar angles are measured counterclockwise from it.
    """

    index: int
    vertex: tuple[float, float]
    angle: float
    lam: float
    radius: float
    frame_angle: float

    @property
    def convex(self) -> bool:
        return self.angle < math.pi - 1e-12

    @property
    def reentrant(self) -> bool:
        return self.angle > math.pi + 1e-12


@dataclass(frozen=True)
class SingularBoundaryData:
    """Singular Dirichlet datum concentrated at one corner.

    The trace is chi^(n+1) * xi_j(r) * r^eta, with the side
    sign chi = +1 on Gamma_j and -1 on Gamma_{j-1}: parity n=1 keeps the
    sign across the corner, n=2 flips it (the chi-type datum).  Validity
    requires eta > -1/2 for n=1, eta > 0 for n=2, and eta/lam_j not an
    integer (resonance with a wedge mode).
    """

    corner: int
    n: int
    eta: float


class PolygonalDomain:
    """Simple CCW polygon with per-corner singularity data.

    Construct via :func:`build_domain` or the named builders; the
    constructor validates orientation, simplicity, and the localization
    radii.
    """

    def __init__(self, vertices, r_overrides=None, name: str = "polygon"):
        verts = np.asarray(vertices, dtype=float)
        if (verts.ndim != 2 or verts.shape[1] != 2
                or not 3 <= verts.shape[0] <= MAX_VERTICES):
            raise GeometryError(f"need 3 to {MAX_VERTICES} vertices of shape "
                                f"(M, 2), got {verts.shape}")
        if not np.abs(verts).max() <= COORD_MAX:
            raise GeometryError(
                f"vertex coordinates must be finite and at most {COORD_MAX:g} "
                "in magnitude; larger ones overflow the side lengths and area")
        self.vertices = verts
        self.name = name
        M = len(verts)

        lengths = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        scale = float(lengths.max())
        if np.any(lengths < 1e-12 * scale):
            j = int(np.argmin(lengths))
            raise GeometryError(f"zero-length side {j}")

        area2 = float(np.sum(verts[:, 0] * np.roll(verts[:, 1], -1)
                             - np.roll(verts[:, 0], -1) * verts[:, 1]))
        if area2 <= 0.0:
            raise GeometryError(
                "polygon must be counterclockwise (signed area > 0); "
                "refusing to reverse the input")
        self.area = 0.5 * area2
        self.perimeter = float(lengths.sum())

        _check_simple(verts, scale)

        self.corners: list[CornerData] = []
        angles = []
        for j in range(M):
            prev_dir = verts[j - 1] - verts[j]
            next_dir = verts[(j + 1) % M] - verts[j]
            a_next = math.atan2(next_dir[1], next_dir[0])
            a_prev = math.atan2(prev_dir[1], prev_dir[0])
            omega = (a_prev - a_next) % (2.0 * math.pi)
            if omega < 1e-9 or omega > 2.0 * math.pi - 1e-9:
                raise GeometryError(f"degenerate interior angle at corner {j}")
            angles.append(omega)

        # Interior angle sum of a simple polygon is (M-2)*pi.
        if abs(sum(math.pi - w for w in angles) - 2.0 * math.pi) > 1e-9 * M:
            raise GeometryError("exterior angles do not sum to 2*pi")

        overrides = dict(r_overrides or {})
        gaps = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        corner_dist = gaps.min(axis=1)
        # Keep the closed wedge sector of radius 2R_j inside the domain:
        # stay clear of every side not adjacent to corner j.
        side_dist, _ = point_segment_distance(
            verts[:, None, :], verts[None, :, :],
            np.roll(verts, -1, axis=0)[None, :, :])
        diag = np.arange(M)
        side_dist[diag, diag] = side_dist[diag, diag - 1] = np.inf
        clear = side_dist.min(axis=1)
        short = np.minimum(lengths, np.roll(lengths, 1))
        auto = np.minimum(0.25 * np.minimum(short, 0.5 * corner_dist),
                          0.49 * clear)
        for j in range(M):
            omega = angles[j]
            R = float(overrides.get(j, auto[j]))
            if R <= 0.0:
                raise GeometryError(f"nonpositive radius at corner {j}")
            if R > short[j] / 2.0 or 2.0 * R > clear[j]:
                raise GeometryError(
                    f"radius override {R} at corner {j} leaves the wedge "
                    "neighborhood sticking out of the domain")
            next_dir = verts[(j + 1) % M] - verts[j]
            self.corners.append(CornerData(
                index=j,
                vertex=(float(verts[j, 0]), float(verts[j, 1])),
                angle=omega,
                lam=math.pi / omega,
                radius=R,
                frame_angle=math.atan2(next_dir[1], next_dir[0]),
            ))

        R2 = 2.0 * np.array([c.radius for c in self.corners])
        j, k = np.nonzero(np.triu(gaps <= R2[:, None] + R2[None, :]))
        if len(j):
            raise GeometryError(
                f"localization disks of corners {j[0]} and {k[0]} overlap")

    # -- basic queries ------------------------------------------------

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([c.lam for c in self.corners])

    def contains(self, points) -> np.ndarray:
        """Strict interior test by crossing number (boundary points are unreliable)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        verts = self.vertices
        M = len(verts)
        inside = np.zeros(len(pts), dtype=bool)
        x, y = pts[:, 0], pts[:, 1]
        for j in range(M):
            x1, y1 = verts[j]
            x2, y2 = verts[(j + 1) % M]
            cond = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= cond & (x < xint)
        return inside


def _check_simple(verts: np.ndarray, scale: float) -> None:
    """Reject self-intersecting polygons: the first pair of non-adjacent
    sides i < j, in lexicographic order, that cross or touch."""
    M = len(verts)
    tol = 1e-12 * scale * scale
    ends = np.roll(verts, -1, axis=0)
    j = np.arange(M)
    rows = max(1, _PAIR_BLOCK // M)
    for i0 in range(0, M, rows):
        i = np.arange(i0, min(i0 + rows, M))[:, None]
        pairs = (j >= i + 2) & ~((i == 0) & (j == M - 1))
        hit = pairs & _segments_cross(verts[i], ends[i], verts[j], ends[j], tol)
        if hit.any():
            k, jk = np.unravel_index(np.argmax(hit), hit.shape)
            raise GeometryError(f"sides {i0 + k} and {jk} intersect")


def _orient(p, q, r):
    return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))


def _segments_cross(a1, a2, b1, b2, tol):
    """Whether segments [a1, a2] and [b1, b2] cross, or touch within tol
    (collinear overlap included), elementwise over broadcast leading axes
    of the (..., 2) point arrays."""
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    hit = ((((d1 > tol) & (d2 < -tol)) | ((d1 < -tol) & (d2 > tol)))
           & (((d3 > tol) & (d4 < -tol)) | ((d3 < -tol) & (d4 > tol))))
    for d, (p, q, r) in ((d1, (b1, b2, a1)), (d2, (b1, b2, a2)),
                         (d3, (a1, a2, b1)), (d4, (a1, a2, b2))):
        # r lies on [p, q]: collinear and inside its bounding box
        on = np.abs(d) <= tol
        for c in (0, 1):
            lo = np.minimum(p[..., c], q[..., c])
            hi = np.maximum(p[..., c], q[..., c])
            on &= (lo - tol <= r[..., c]) & (r[..., c] <= hi + tol)
        hit |= on
    return hit


def point_segment_distance(p, a, b):
    """Distance from points p to segments [a, b], broadcast over leading
    axes, and the parameter t in [0, 1] of the nearest point a + t (b - a)."""
    ab = b - a
    t = np.clip(((p - a) * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    d = p - (a + t[..., None] * ab)
    return np.hypot(d[..., 0], d[..., 1]), t


# -- named domains ----------------------------------------------------

def build_domain(spec, r_overrides=None) -> PolygonalDomain:
    """Build a domain from a name or an explicit CCW vertex list.

    Accepted names: "unit-square", "l-shape", "sector(omega[, n_arc])" with
    omega in radians, a number or [c]pi[/d] (e.g. "sector(3pi/2, 64)"), and
    n_arc 64 by default; any other name raises GeometryError.
    """
    if isinstance(spec, str):
        return _named_domain(spec, r_overrides)
    return PolygonalDomain(spec, r_overrides=r_overrides)


def unit_square() -> PolygonalDomain:
    return PolygonalDomain([(0, 0), (1, 0), (1, 1), (0, 1)], name="unit-square")


def l_shape() -> PolygonalDomain:
    """(-1,1)^2 minus the closed quadrant [0,1) x (-1,0]; re-entrant corner at the origin."""
    verts = [(-1, -1), (0, -1), (0, 0), (1, 0), (1, 1), (-1, 1)]
    return PolygonalDomain(verts, name="l-shape")


def sector(omega: float, n_arc: int = 64, r_overrides=None) -> PolygonalDomain:
    """Circular sector of angle omega approximated by an n_arc-chord polygon.

    Corner 0 sits at the origin with interior angle omega; the arc is
    replaced by chords, whose junction vertices have angles just below pi.
    """
    if not (0.0 < omega < 2.0 * math.pi):
        raise GeometryError("sector angle must lie in (0, 2*pi)")
    if not 8 <= n_arc <= MAX_VERTICES - 2:  # before building its vertices
        raise GeometryError(f"need 8 to {MAX_VERTICES - 2} arc chords")
    ts = np.linspace(0.0, omega, n_arc + 1)
    verts = [(0.0, 0.0)] + [(math.cos(t), math.sin(t)) for t in ts]
    return PolygonalDomain(verts, r_overrides=r_overrides,
                           name=f"sector({omega:.6g},{n_arc})")


def _parse_angle(text: str) -> float:
    """A number, or [c]pi[/d] with numbers c and d != 0, as in "3pi/2"."""
    head, pi, tail = text.replace(" ", "").partition("pi")
    if not pi:
        return float(head)
    num = float(head) if head not in ("", "+", "-") else float(head + "1")
    if not tail:
        return num * math.pi
    den = float(tail[1:]) if tail.startswith("/") else 0.0
    if den == 0.0:
        raise ValueError(f"bad denominator {tail!r}")
    return num * math.pi / den


def _named_domain(name: str, r_overrides) -> PolygonalDomain:
    key = name.strip().lower()
    if key.startswith("sector(") and key.endswith(")"):
        args = key[len("sector("):-1].split(",")
        try:
            if len(args) > 2:
                raise ValueError(f"{len(args)} arguments")
            omega = _parse_angle(args[0])
            n_arc = int(args[1]) if len(args) == 2 else 64
        except ValueError as exc:
            raise GeometryError(
                f"malformed domain name {name!r}: expected sector(omega[, "
                f"n_arc]) with omega a number or [c]pi[/d] ({exc})") from None
        return sector(omega, n_arc, r_overrides=r_overrides)
    fixed = {"unit-square": unit_square, "l-shape": l_shape}.get(key)
    if fixed is None:
        raise GeometryError(f"unknown domain name {name!r}")
    dom = fixed()
    if r_overrides:
        return PolygonalDomain(dom.vertices, r_overrides=r_overrides, name=dom.name)
    return dom


# -- local polar frames ----------------------------------------------

def _polar_arrays(domain: PolygonalDomain, j: int, points):
    """Polar coordinates (r, theta) of points in the frame of corner j.

    theta = 0 along Gamma_j, growing counterclockwise (mod 2pi) to omega_j
    on Gamma_{j-1}; the corner itself maps to (0, 0).  Points outside the
    wedge are not rejected.
    """
    c = domain.corners[j]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts - np.asarray(c.vertex)
    r = np.hypot(d[:, 0], d[:, 1])
    theta = (np.arctan2(d[:, 1], d[:, 0]) - c.frame_angle) % (2.0 * math.pi)
    theta[r == 0.0] = 0.0
    return r, theta


# -- cut-off ----------------------------------------------------------

def cutoff(domain: PolygonalDomain, j: int, r):
    """C^2 cut-off xi_j: 1 on [0, R_j], 0 on [2R_j, inf), quintic blend between.

    The blend is the quintic smoothstep, which has vanishing first and
    second derivatives at both ends, so xi_j is C^2; xi_j(1.5 R_j) = 1/2.
    """
    R = domain.corners[j].radius
    r = np.asarray(r, dtype=float)
    t = np.clip((r - R) / R, 0.0, 1.0)
    return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


# -- index sets and exponents -----------------------------------------

def singular_set_for_exponents(lams, p: float, m: int) -> set[int]:
    """Indices j with 0 < m*lam_j < 2 - 2/p, guarded against resonance.

    The set is only well defined when 2(p-1)/(p*lam_j) is not an integer
    for any corner; a violation raises GeometryError naming the corner.
    Empty for every m >= 4 since m*lam_j >= 4*lam_min > 2 - 2/p.
    """
    if not p > 1.0:
        raise GeometryError("integrability exponent p must exceed 1")
    if m < 1:
        raise GeometryError("mode order m must be a positive integer")
    thresh = 2.0 - 2.0 / p
    out = set()
    for j, lam in enumerate(lams):
        q = 2.0 * (p - 1.0) / (p * lam)
        if abs(q - round(q)) < RESONANCE_TOL:
            raise GeometryError(
                f"resonant exponent at corner {j}: 2(p-1)/(p*lambda) = "
                f"{q:.6g} is an integer")
        if 0.0 < m * lam < thresh:
            out.add(j)
    return out


# -- wedge fields, profiles, coefficients ----------------------------

def wedge_field(domain: PolygonalDomain, j: int, points, exponent: float,
                profile) -> np.ndarray:
    """xi_j(r) * r^exponent * profile(theta) at the given points.

    Zero at the corner itself and outside the wedge support (theta beyond
    omega_j or r >= 2 R_j); ``profile`` maps an array of angles to values.
    """
    c = domain.corners[j]
    r, theta = _polar_arrays(domain, j, points)
    vals = np.zeros_like(r)
    mask = (r > 0.0) & (r < 2.0 * c.radius) & (theta <= c.angle + 1e-12)
    r = r[mask]
    vals[mask] = cutoff(domain, j, r) * r ** exponent * profile(theta[mask])
    return vals


def eval_s_profile(domain: PolygonalDomain, j: int, n: int, eta: float, theta) -> np.ndarray:
    """Angular profile of the wedge lift with exponent eta and parity n.

        s(theta) = [((-1)^{n+1} - cos(eta w)) / sin(eta w)] sin(eta theta)
                   + cos(eta theta)

    so that s(0) = 1 and s(w) = (-1)^{n+1}; parity n=1 keeps the same
    trace on both sides, n=2 flips the sign on Gamma_{j-1}.  A resonant
    eta (sin(eta w) ~ 0) raises GeometryError.
    """
    if n not in (1, 2):
        raise GeometryError("parity n must be 1 or 2")
    w = domain.corners[j].angle
    s = math.sin(eta * w)
    if abs(s) < 1e-12:
        raise GeometryError(
            f"resonant exponent eta={eta} at corner {j}: sin(eta*omega) ~ 0")
    coef = (((-1.0) ** (n + 1)) - math.cos(eta * w)) / s
    theta = np.asarray(theta, dtype=float)
    return coef * np.sin(eta * theta) + np.cos(eta * theta)


def validate_singular_boundary_data(domain: PolygonalDomain,
                                    data: SingularBoundaryData) -> None:
    """Check exponent admissibility of a singular Dirichlet datum."""
    lam = domain.corners[data.corner].lam
    if data.n == 1 and not data.eta > -0.5:
        raise GeometryError("parity-1 datum needs eta > -1/2")
    if data.n == 2 and not data.eta > 0.0:
        raise GeometryError("parity-2 datum needs eta > 0")
    if data.n not in (1, 2):
        raise GeometryError("parity n must be 1 or 2")
    q = data.eta / lam
    if abs(q - round(q)) < RESONANCE_TOL:
        raise GeometryError(
            f"datum exponent eta={data.eta} resonates with wedge modes "
            f"of corner {data.corner} (eta/lambda integer)")
