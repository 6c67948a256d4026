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
non-smooth modes at integrability p, the critical Sobolev exponents, the
side-dependent sign chi_j, boundary traces and outward normal derivatives
of the wedge modes, and the corner profiles s_{j,n}(theta) used to build
singular Dirichlet data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Sentinel for an unbounded exponent or a missing box constraint.
UNBOUNDED = math.inf

#: Tolerance for the integer-resonance guard on exponent arithmetic.
RESONANCE_TOL = 1e-9


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
class LocalPolar:
    """Local polar coordinates (r, theta) of a point at a given corner."""

    r: float
    theta: float


@dataclass(frozen=True)
class SingularBoundaryData:
    """Singular Dirichlet datum concentrated at one corner.

    The trace is amplitude * xi_j(r) * r^eta on Gamma_j and
    amplitude * sigma * xi_j(r) * r^eta on Gamma_{j-1}, where sigma = +1
    for parity n=1 and sigma = -1 for n=2 (the chi-type datum).  Validity
    requires eta > -1/2 for n=1, eta > 0 for n=2, and eta/lam_j not an
    integer (resonance with a wedge mode).
    """

    corner: int
    n: int
    eta: float
    amplitude: float = 1.0

    def side_sign(self) -> int:
        return 1 if self.n == 1 else -1


class PolygonalDomain:
    """Simple CCW polygon with per-corner singularity data.

    Construct via :func:`build_domain` or the named builders; the
    constructor validates orientation, simplicity, and the localization
    radii.
    """

    def __init__(self, vertices, r_overrides=None, name: str = "polygon"):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise GeometryError("need at least 3 vertices of shape (M, 2)")
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
        self.side_lengths = lengths

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
        for j in range(M):
            omega = angles[j]
            auto = 0.25 * min(lengths[j], lengths[j - 1], 0.5 * corner_dist[j])
            # Keep the closed wedge sector of radius 2R_j inside the domain:
            # stay clear of every non-adjacent side.
            clear = _nonadjacent_side_clearance(verts, j)
            auto = min(auto, 0.49 * clear)
            R = float(overrides.get(j, auto))
            if R <= 0.0:
                raise GeometryError(f"nonpositive radius at corner {j}")
            if R > min(lengths[j], lengths[j - 1]) / 2.0 or 2.0 * R > clear:
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

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([c.lam for c in self.corners])

    def side(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (x_j, x_{j+1}) of side Gamma_j."""
        M = len(self.vertices)
        return self.vertices[j % M], self.vertices[(j + 1) % M]

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
    """Reject self-intersecting polygons (non-adjacent side crossings)."""
    M = len(verts)
    tol = 1e-12 * scale * scale
    for i in range(M):
        a1, a2 = verts[i], verts[(i + 1) % M]
        for j in range(i + 1, M):
            if j == i or (j + 1) % M == i or (i + 1) % M == j:
                continue
            b1, b2 = verts[j], verts[(j + 1) % M]
            if _segments_cross(a1, a2, b1, b2, tol):
                raise GeometryError(f"sides {i} and {j} intersect")


def _segments_cross(a1, a2, b1, b2, tol) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    d1 = orient(b1, b2, a1)
    d2 = orient(b1, b2, a2)
    d3 = orient(a1, a2, b1)
    d4 = orient(a1, a2, b2)
    if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and \
       ((d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)):
        return True

    def on_seg(p, q, r):
        return (abs(orient(p, q, r)) <= tol
                and min(p[0], q[0]) - tol <= r[0] <= max(p[0], q[0]) + tol
                and min(p[1], q[1]) - tol <= r[1] <= max(p[1], q[1]) + tol)

    return any((abs(d) <= tol and on_seg(p, q, r)) for d, (p, q, r) in [
        (d1, (b1, b2, a1)), (d2, (b1, b2, a2)),
        (d3, (a1, a2, b1)), (d4, (a1, a2, b2))])


def _nonadjacent_side_clearance(verts: np.ndarray, j: int) -> float:
    M = len(verts)
    far = (np.arange(M) != j) & (np.arange(M) != (j - 1) % M)
    dist, _ = point_segment_distance(verts[j], verts[far],
                                     np.roll(verts, -1, axis=0)[far])
    return float(dist.min())


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

    Accepted names: "unit-square", "l-shape", "sector(omega, n_arc)" with
    omega in radians (the token "pi" is understood, e.g. "sector(3pi/2, 64)").
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


L_SHAPE_REENTRANT_CORNER = 2  # index of the origin in l_shape()


def sector(omega: float, n_arc: int = 64, r_overrides=None) -> PolygonalDomain:
    """Circular sector of angle omega approximated by an n_arc-chord polygon.

    Corner 0 sits at the origin with interior angle omega; the arc is
    replaced by chords, whose junction vertices have angles just below pi.
    """
    if not (0.0 < omega < 2.0 * math.pi):
        raise GeometryError("sector angle must lie in (0, 2*pi)")
    if n_arc < 8:
        raise GeometryError("need at least 8 arc chords")
    ts = np.linspace(0.0, omega, n_arc + 1)
    verts = [(0.0, 0.0)] + [(math.cos(t), math.sin(t)) for t in ts]
    return PolygonalDomain(verts, r_overrides=r_overrides,
                           name=f"sector({omega:.6g},{n_arc})")


def _parse_angle(text: str) -> float:
    t = text.strip().lower().replace(" ", "")
    if "pi" in t:
        head, _, tail = t.partition("pi")
        num = float(head) if head not in ("", "+", "-") else float(head + "1")
        den = float(tail[1:]) if tail.startswith("/") else 1.0
        return num * math.pi / den
    return float(t)


def _named_domain(name: str, r_overrides) -> PolygonalDomain:
    key = name.strip().lower()
    if key.startswith("sector(") and key.endswith(")"):
        inner = key[len("sector("):-1]
        parts = inner.split(",")
        omega = _parse_angle(parts[0])
        n_arc = int(parts[1]) if len(parts) > 1 else 64
        return sector(omega, n_arc, r_overrides=r_overrides)
    fixed = {"unit-square": unit_square, "l-shape": l_shape}.get(key)
    if fixed is None:
        raise GeometryError(f"unknown domain name {name!r}")
    dom = fixed()
    if r_overrides:
        return PolygonalDomain(dom.vertices, r_overrides=r_overrides, name=dom.name)
    return dom


# -- local polar frames ----------------------------------------------

def local_polar(domain: PolygonalDomain, j: int, point) -> LocalPolar:
    """Polar coordinates of a point in the frame of corner j.

    theta = 0 along Gamma_j, growing counterclockwise to omega_j on
    Gamma_{j-1}.  Points outside the closed wedge (by more than an arc of
    1e-12) raise GeometryError.  The corner itself maps to (0, 0).
    """
    c = domain.corners[j]
    p = np.asarray(point, dtype=float) - np.asarray(c.vertex)
    r = float(np.hypot(p[0], p[1]))
    if r == 0.0:
        return LocalPolar(0.0, 0.0)
    theta = (math.atan2(p[1], p[0]) - c.frame_angle) % (2.0 * math.pi)
    if theta > c.angle:
        if theta <= c.angle + 1e-12 / max(r, 1e-12):
            theta = c.angle
        elif theta >= 2.0 * math.pi - 1e-12 / max(r, 1e-12):
            theta = 0.0
        else:
            raise GeometryError(
                f"point {point} lies outside the wedge of corner {j}")
    return LocalPolar(r, theta)


def _polar_arrays(domain: PolygonalDomain, j: int, points):
    """Vectorized frame transform; returns (r, theta mod 2pi) without wedge checks."""
    c = domain.corners[j]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts - np.asarray(c.vertex)
    r = np.hypot(d[:, 0], d[:, 1])
    theta = (np.arctan2(d[:, 1], d[:, 0]) - c.frame_angle) % (2.0 * math.pi)
    theta[r == 0.0] = 0.0
    return r, theta


# -- cut-off ----------------------------------------------------------

def cutoff(domain: PolygonalDomain, j: int, r, deriv: int = 0):
    """C^2 cut-off xi_j: 1 on [0, R_j], 0 on [2R_j, inf), quintic blend between.

    The blend is the quintic smoothstep, which has vanishing first and
    second derivatives at both ends, so xi_j is C^2; xi_j(1.5 R_j) = 1/2.
    ``deriv`` in {0, 1, 2} selects the derivative order in r.
    """
    R = domain.corners[j].radius
    r = np.asarray(r, dtype=float)
    t = np.clip((r - R) / R, 0.0, 1.0)
    if deriv == 0:
        s = t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
        out = 1.0 - s
    elif deriv == 1:
        ds = 30.0 * t * t * (1.0 - t) ** 2
        out = -ds / R
    elif deriv == 2:
        d2s = 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)
        out = -d2s / (R * R)
    else:
        raise ValueError("deriv must be 0, 1, or 2")
    if np.ndim(r) == 0:
        return float(out)
    return out


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
                f"resonant exponent at corner {j}: 2(p-1)/(p*lambda) = {q!r} "
                "is an integer; perturb p")
        if 0.0 < m * lam < thresh:
            out.add(j)
    return out


def singular_sets(domain: PolygonalDomain, p: float, m: int) -> set[int]:
    """Corners whose m-th wedge mode fails W^{2,p} regularity (see above)."""
    return singular_set_for_exponents(domain.lambdas, p, m)


@dataclass(frozen=True)
class SobolevExponents:
    """Critical exponents of the domain: p_omega (W^{2,p} limit for the
    Dirichlet Laplacian), t_omega = 1 + lambda_1 (H^t limit), p_dirichlet
    (gradient integrability limit for harmonic extensions)."""

    p_omega: float
    t_omega: float
    p_dirichlet: float


def sobolev_exponents(domain: PolygonalDomain) -> SobolevExponents:
    lam1 = float(domain.lambdas.min())
    p_omega = UNBOUNDED if lam1 >= 2.0 else 2.0 / (2.0 - min(lam1, 2.0))
    p_dir = UNBOUNDED if lam1 >= 1.0 else 2.0 / (1.0 - min(1.0, lam1))
    return SobolevExponents(p_omega=p_omega, t_omega=1.0 + lam1, p_dirichlet=p_dir)


def admissible_p(domain: PolygonalDomain, s_star: float, h_sets) -> float:
    """Largest usable integrability exponent given the active-mode sets.

    h_sets maps m in {1, 2, 3} to the set of corners whose m-th mode has a
    nonvanishing coefficient.  Each such corner enforces the strict bound
    p < 2/(2 - m*lam_j); the returned value is the minimum of s_star and
    all strict bounds, with a 1e-6 margin subtracted whenever a strict
    bound is the binding one.  With all sets empty the answer is s_star.
    """
    strict = UNBOUNDED
    for m, js in h_sets.items():
        for j in js:
            mlam = m * domain.corners[j].lam
            if mlam < 2.0:
                strict = min(strict, 2.0 / (2.0 - mlam))
    if math.isinf(strict):
        return s_star
    return min(s_star, strict - 1e-6)


# -- side signs, traces, normal derivatives ---------------------------

def jump_chi(domain: PolygonalDomain, j: int, point) -> int:
    """Side sign chi_j at a boundary point near corner j: +1 on Gamma_j,
    -1 on Gamma_{j-1}.  The corner itself (and points on neither side)
    raise GeometryError."""
    c = domain.corners[j]
    p = np.asarray(point, dtype=float)
    tol = 1e-9 * max(c.radius, 1.0)
    if np.linalg.norm(p - np.asarray(c.vertex)) <= tol:
        raise GeometryError(f"chi is undefined at corner {j} itself")
    ends = np.array([domain.side(j), domain.side(j - 1)])
    dist, _ = point_segment_distance(p, ends[:, 0], ends[:, 1])
    on_next, on_prev = dist <= tol
    if on_next and not on_prev:
        return 1
    if on_prev and not on_next:
        return -1
    if on_next and on_prev:
        raise GeometryError(f"point {point} touches both sides of corner {j}")
    raise GeometryError(f"point {point} is not on a side adjacent to corner {j}")


def eval_singular_volume(domain: PolygonalDomain, j: int, m: int, points) -> np.ndarray:
    """xi_j(r) r^{m lam_j} sin(m lam_j theta_j) at the given points.

    Zero outside the wedge support (theta beyond omega_j or r >= 2 R_j);
    harmonic where the cutoff is inactive.
    """
    c = domain.corners[j]
    r, theta = _polar_arrays(domain, j, points)
    k = m * c.lam
    vals = np.zeros_like(r)
    mask = (r > 0.0) & (r < 2.0 * c.radius) & (theta <= c.angle + 1e-12)
    if np.any(mask):
        xi = cutoff(domain, j, r[mask])
        vals[mask] = xi * r[mask] ** k * np.sin(k * theta[mask])
    if np.ndim(points) == 1:
        return float(vals[0])
    return vals


def singular_normal_derivative(domain: PolygonalDomain, j: int, m: int,
                               r: float, side_index: int) -> float:
    """Outward normal derivative of the m-th wedge mode of corner j on an
    adjacent side, at distance r < R_j from the corner.

    On Gamma_j (theta=0):      -m lam_j r^{m lam_j - 1}
    On Gamma_{j-1} (theta=w):  (-1)^m m lam_j r^{m lam_j - 1}
    """
    c = domain.corners[j]
    M = len(domain.vertices)
    if not 0.0 < r < c.radius:
        raise GeometryError(
            f"normal-derivative formula needs 0 < r < R_j = {c.radius}")
    k = m * c.lam
    if side_index % M == j:
        return -k * r ** (k - 1.0)
    if side_index % M == (j - 1) % M:
        return ((-1.0) ** m) * k * r ** (k - 1.0)
    raise GeometryError(f"side {side_index} is not adjacent to corner {j}")


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
    out = coef * np.sin(eta * theta) + np.cos(eta * theta)
    if out.ndim == 0:
        return float(out)
    return out


def control_singular_coefficient(c_hat: float, m: int, lam: float, nu: float,
                                 a: float, b: float) -> float:
    """Coefficient of the control's wedge term with exponent m*lam - 1.

    Equal to -m lam c_hat / nu when 0 lies in the admissible interval
    [a, b] (so the projection is locally the identity near the corner,
    where the adjoint flux vanishes for convex corners or the datum is
    centered); zero otherwise.  Infinite bounds are allowed.
    """
    if nu <= 0.0:
        raise GeometryError("regularization nu must be positive")
    if a > b:
        raise GeometryError("empty admissible interval")
    if a <= 0.0 <= b:
        return -m * lam * c_hat / nu
    return 0.0


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
