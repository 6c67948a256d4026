"""Corner-singularity analysis of computed fields.

Extraction of wedge-mode coefficients by annulus least squares,
classification of the active-mode sets that shape the optimal control,
flatness diagnostics at corners, structural decomposition checks of the
control, verification of singular-data expansions of the state, and
empirical convergence rates.

Extraction fits nodal values in an annulus r in [r1, r2] around a corner
against the wedge modes r^(m lam) sin(m lam theta) plus a smooth
background {l1 l2, l1 l2 x, l1 l2 y} built from the two lines through the
corner's sides (so every background function vanishes on both wedge
walls, like the fields being analyzed).  Columns are rescaled to unit
size; if the scaled design matrix has condition number above COND_MAX
the highest mode is dropped and the fit is flagged.  The annulus must hold
MIN_ANNULUS_NODES nodes.  The flatness scan counts a control within
FLAT_TOL of a bound as on it, and the sign of c_{j,1} predicts the flat
bound once |c_{j,1}| > C1_SIGN_MIN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    PolygonalDomain,
    SingularBoundaryData,
    control_singular_coefficient,
    cutoff,
    eval_s_profile,
    eval_singular_volume,
    singular_sets,
    validate_singular_boundary_data,
    _polar_arrays,
)
from .meshing import TriMesh, boundary_trace_space

#: condition-number cap for the scaled extraction design matrix
COND_MAX = 1e8

#: minimum node count in the extraction annulus
MIN_ANNULUS_NODES = 30

#: a control value within this distance of a bound counts as on it
FLAT_TOL = 1e-8

#: smallest |c_{j,1}| whose sign predicts the flat bound
C1_SIGN_MIN = 1e-3


class AnalysisError(RuntimeError):
    pass


def _corner_sides(domain: PolygonalDomain, tr, j: int, r_max: float):
    """(side, trace positions, corner distances) on Gamma_j and then on
    Gamma_{j-1}, for the boundary nodes with 1e-14 < r < r_max."""
    vertex = np.asarray(domain.corners[j].vertex)
    out = []
    for side in (j, (j - 1) % len(domain.vertices)):
        pos = tr.side_positions(side)
        radii = np.linalg.norm(tr.points[pos] - vertex, axis=1)
        keep = (radii > 1e-14) & (radii < r_max)
        out.append((side, pos[keep], radii[keep]))
    return out


# ---------------------------------------------------------------------
# coefficient extraction

@dataclass
class CoefficientFit:
    """Wedge-mode coefficients of one field at one corner."""

    corner: int
    coefficients: dict          # m -> extracted coefficient
    background: np.ndarray
    annulus: tuple
    n_nodes: int
    residual: float             # fit residual relative to the field size
    condition: float
    dropped_modes: tuple = ()
    warning: str | None = None


def extract_coefficients(domain: PolygonalDomain, mesh: TriMesh, values,
                         j: int, modes=(1, 2), annulus=None) -> CoefficientFit:
    """Least-squares wedge-mode coefficients of a nodal field at corner j.

    The field must vanish on the boundary near the corner (adjoint type);
    subtract boundary data first if it does not.  The default annulus
    [R_j/4, R_j/2] is widened toward 0.95 R_j if it holds fewer than
    MIN_ANNULUS_NODES mesh nodes.
    """
    c = domain.corners[j]
    lam = c.lam
    vals = np.asarray(values, dtype=float)
    if vals.shape != (mesh.n_nodes,):
        raise AnalysisError("field length does not match the mesh")
    modes = tuple(sorted(set(int(m) for m in modes)))
    if not modes or modes[0] < 1:
        raise AnalysisError("mode orders must be positive integers")

    r_all, theta_all = _polar_arrays(domain, j, mesh.nodes)
    lo, hi = (0.25 * c.radius, 0.5 * c.radius) if annulus is None else annulus
    if not 0.0 < lo < hi <= c.radius:
        raise AnalysisError("annulus must satisfy 0 < r1 < r2 <= R_j")
    sel = np.where((r_all >= lo) & (r_all <= hi))[0]
    while len(sel) < MIN_ANNULUS_NODES and hi < 0.95 * c.radius - 1e-15:
        hi = min(1.25 * hi, 0.95 * c.radius)
        sel = np.where((r_all >= lo) & (r_all <= hi))[0]
    if len(sel) < MIN_ANNULUS_NODES:
        raise AnalysisError(
            f"extraction annulus at corner {j} holds {len(sel)} nodes "
            f"(< {MIN_ANNULUS_NODES}); refine the mesh or widen the annulus")

    r, theta = r_all[sel], theta_all[sel]
    xl = r * np.cos(theta)
    yl = r * np.sin(theta)
    # products of the linear forms of the two wedge walls; they vanish on
    # both sides, as adjoint-type fields do
    b0 = yl * (math.sin(c.angle) * xl - math.cos(c.angle) * yl)
    y = vals[sel]

    active = list(modes)
    dropped = []
    warning = None
    while True:
        cols = [r ** (m * lam) * np.sin(m * lam * theta) for m in active]
        cols += [b0, b0 * xl, b0 * yl]
        A = np.column_stack(cols)
        scale = np.abs(A).max(axis=0)
        scale[scale == 0.0] = 1.0
        As = A / scale
        sv = np.linalg.svd(As, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        if cond <= COND_MAX or len(active) == 1:
            break
        dropped.append(active.pop())  # drop the highest mode
        warning = (f"ill-conditioned basis at corner {j} "
                   f"(cond {cond:.2e}); dropped modes {tuple(dropped)}")
    coef_s, *_ = np.linalg.lstsq(As, y, rcond=None)
    coef = coef_s / scale
    res = float(np.linalg.norm(As @ coef_s - y))
    denom = float(np.linalg.norm(y))
    rel = res / denom if denom > 0 else res

    coefficients = {m: float(coef[k]) for k, m in enumerate(active)}
    for m in dropped:
        coefficients[m] = math.nan
    return CoefficientFit(corner=j, coefficients=coefficients,
                          background=coef[len(active):].copy(),
                          annulus=(float(lo), float(hi)), n_nodes=len(sel),
                          residual=rel, condition=cond,
                          dropped_modes=tuple(dropped), warning=warning)


def synthesize_modes(domain: PolygonalDomain, mesh: TriMesh, j: int,
                     coefficients: dict) -> np.ndarray:
    """Nodal field sum_m c_m xi r^(m lam) sin(m lam theta) (test helper
    and manufactured-field builder)."""
    out = np.zeros(mesh.n_nodes)
    for m, cm in coefficients.items():
        out += cm * eval_singular_volume(domain, j, int(m), mesh.nodes)
    return out


# ---------------------------------------------------------------------
# H-set classification

@dataclass
class HSetReport:
    """Active-mode sets inferred from an extraction history.

    ``h1`` is exact (convex members of the first singular set).  ``h2``
    and ``h3`` require the leading coefficient c_{j,1} to vanish, which
    is decided from its trend across refinement levels: vanishing if it
    decays geometrically (last ratio <= 0.6 and overall drop >= 4x), and
    nonvanishing if it is refinement-stable (last ratio within 30%).
    Anything else is reported as undetermined, never guessed.
    """

    h1: set
    h2: set
    h3: set
    undetermined: set = field(default_factory=set)
    c1_trends: dict = field(default_factory=dict)


def _c1_verdict(history: list) -> str:
    cs = [abs(c) for c in history]
    if not cs:
        return "undetermined"
    scale = max(cs)
    if scale <= 1e-12:
        return "zero"
    if len(cs) < 2:
        return "undetermined"
    ratio = cs[-1] / cs[-2] if cs[-2] > 0 else math.inf
    if cs[-1] <= 1e-12 * scale:
        return "zero"
    if ratio <= 0.6 and cs[-1] <= 0.25 * cs[0]:
        return "zero"
    if 0.7 <= ratio <= 1.3:
        return "nonzero"
    return "undetermined"


def classify_H_sets(domain: PolygonalDomain, s_star: float,
                    extraction_history) -> HSetReport:
    """Classify the contributing-corner sets from extracted coefficients.

    ``extraction_history`` is a sequence (one entry per refinement level,
    coarse to fine) of dicts corner -> CoefficientFit.
    """
    j1 = singular_sets(domain, s_star, 1)
    j2 = singular_sets(domain, s_star, 2)
    j3 = singular_sets(domain, s_star, 3)
    h1 = {j for j in j1 if domain.corners[j].lam > 1.0}
    h2, h3, und = set(), set(), set()
    trends = {}
    for j in sorted(j2 | j3):
        hist = []
        for level in extraction_history:
            if j in level and 1 in level[j].coefficients:
                hist.append(level[j].coefficients[1])
        verdict = _c1_verdict(hist)
        trends[j] = {"history": hist, "verdict": verdict}
        if verdict == "zero":
            h2 |= {j} & j2
            h3 |= {j} & j3
        elif verdict == "undetermined":
            und |= {(2, j)} if j in j2 else set()
            und |= {(3, j)} if j in j3 else set()
    return HSetReport(h1=h1, h2=h2, h3=h3, undetermined=und, c1_trends=trends)


# ---------------------------------------------------------------------
# flatness diagnostics

@dataclass
class FlatnessVerdict:
    """Outcome of the flat-control scan at one corner."""

    corner: int
    verdict: str                # "flat-at-a" | "flat-at-b" | "one-sided" | "not-flat"
    radius: float               # largest radius on which the control is flat
    flat_value: float | None
    per_side: dict              # side index -> (bound char or None, radius)
    predicted_bound: str | None  # from the sign of c_{j,1}
    consistent: bool
    contradiction: bool


def _side_flat_scan(u, radii, lower, upper):
    """Classify the run of nodes at a bound, outward from the corner.

    The radius is the midpoint between the last node of the longer run
    and the first node off both bounds (the last node if there is none).
    """
    order = np.argsort(radii)
    r = radii[order]
    n_a = int(np.cumprod(np.abs(u - lower)[order] <= FLAT_TOL).sum())
    n_b = int(np.cumprod(np.abs(u - upper)[order] <= FLAT_TOL).sum())
    if n_a == n_b == 0:
        return None, 0.0
    rad_a = r[n_a - 1] if n_a else 0.0
    rad_b = r[n_b - 1] if n_b else 0.0
    first_off = r[min(max(n_a, n_b), len(r) - 1)]
    if rad_a >= rad_b:
        return "a", 0.5 * (rad_a + first_off)
    return "b", 0.5 * (rad_b + first_off)


def flatness_diagnostic(domain: PolygonalDomain, mesh: TriMesh, u,
                        lower, upper, j: int,
                        c1: float | None = None) -> FlatnessVerdict:
    """Scan the control near corner j for a flat run at a bound.

    For corners where 0 is admissible the phenomenon only occurs at
    non-convex corners, so convex corners are rejected there.  The sign
    rule links the flat bound to the leading adjoint coefficient: c1 >
    C1_SIGN_MIN predicts the lower bound, c1 < -C1_SIGN_MIN the upper.
    """
    c = domain.corners[j]
    tr = boundary_trace_space(mesh)
    nb = tr.n
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (nb,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (nb,))
    u = np.asarray(u, dtype=float)
    corner_pos = tr.corner_pos[j]
    zero_adm = lo[corner_pos] <= 0.0 <= hi[corner_pos]
    if c.convex and zero_adm:
        raise AnalysisError(
            f"flatness diagnostic undefined at convex corner {j} "
            "when 0 is admissible")

    per_side = {side: _side_flat_scan(u[pos], radii, lo[pos], hi[pos])
                for side, pos, radii in _corner_sides(domain, tr, j, c.radius)}

    bounds_seen = {b for b, _ in per_side.values() if b is not None}
    radius = min((rad for b, rad in per_side.values() if b is not None),
                 default=0.0)
    if len(bounds_seen) == 1 and all(b is not None for b, _ in per_side.values()):
        bound = bounds_seen.pop()
        verdict = f"flat-at-{bound}"
        flat_value = float(lo[corner_pos] if bound == "a" else hi[corner_pos])
    elif bounds_seen:
        verdict = "one-sided"
        bound = None
        flat_value = None
        radius = max(rad for b, rad in per_side.values() if b is not None)
    else:
        verdict = "not-flat"
        bound = None
        flat_value = None

    predicted = None
    if c1 is not None and abs(c1) > C1_SIGN_MIN:
        predicted = "a" if c1 > 0 else "b"
    consistent = (predicted is None or verdict == f"flat-at-{predicted}")
    contradiction = (predicted is not None and verdict == "not-flat")
    return FlatnessVerdict(corner=j, verdict=verdict, radius=float(radius),
                           flat_value=flat_value, per_side=per_side,
                           predicted_bound=predicted, consistent=consistent,
                           contradiction=contradiction)


# ---------------------------------------------------------------------
# structural decomposition of the control

@dataclass
class StructureFitReport:
    """Raw vs singular-subtracted control size over shrinking shells.

    The boundary nodes near the corner are binned into geometric shells
    r in [R/2^(k+1), R/2^k).  A singular control grows from shell to
    shell toward the corner (negative log-log slope of the shell maxima);
    subtracting the predicted terms should remove most of that growth at
    a single level (``removed_fraction``), and the remainder on any fixed
    shell should decay under mesh refinement (``structure_refinement_trend``).
    """

    corner: int
    terms: dict                 # m -> boundary coefficient a_{j,m}
    shells: list                # (r_in, r_out, max_raw, osc_raw, max_rem, osc_rem)
    slope_raw: float            # log-log slope of shell max vs shell radius
    slope_remainder: float
    raw_blows_up: bool
    removed_fraction: float     # 1 - max_rem/max_raw on the innermost shell
    remainder_subdominant: bool


def predicted_control_terms(domain: PolygonalDomain, j: int, c_fit: dict,
                            nu: float, a, b) -> dict:
    """Boundary coefficients a_{j,m} implied by extracted adjoint modes."""
    lam = domain.corners[j].lam
    return {m: control_singular_coefficient(cm, m, lam, nu,
                                            np.min(a), np.max(b))
            for m, cm in c_fit.items() if not math.isnan(cm)}


def control_singular_profile(domain: PolygonalDomain, mesh: TriMesh, j: int,
                             terms: dict) -> np.ndarray:
    """Trace-order field sum_m a_m chi^(m+1) xi(r) r^(m lam - 1) near
    corner j (zero beyond the cutoff support)."""
    tr = boundary_trace_space(mesh)
    c = domain.corners[j]
    lam = c.lam
    out = np.zeros(tr.n)
    sides = _corner_sides(domain, tr, j, 2.0 * c.radius)
    for sign_base, (_, pos, radii) in zip((1.0, -1.0), sides):
        xi = cutoff(domain, j, radii)
        for m, am in terms.items():
            if am == 0.0:
                continue
            chi_pow = sign_base ** (m + 1)  # +1 for odd m, chi for even m
            out[pos] += am * chi_pow * xi * radii ** (m * lam - 1.0)
    return out


def structural_fit_control(domain: PolygonalDomain, mesh: TriMesh, u,
                           j: int, terms: dict) -> StructureFitReport:
    """Compare the raw control against the singular-subtracted remainder
    over at most 12 geometric shells shrinking toward corner j."""
    tr = boundary_trace_space(mesh)
    u = np.asarray(u, dtype=float)
    pred = control_singular_profile(domain, mesh, j, terms)
    rem = u - pred
    c = domain.corners[j]
    radii = np.linalg.norm(tr.points - np.asarray(c.vertex), axis=1)

    shells = []
    for k in range(12):
        r_out = c.radius / 2.0 ** k
        r_in = 0.5 * r_out
        sel = (radii > 1e-14) & (radii >= r_in) & (radii < r_out)
        if not np.any(sel):
            break
        ur, rr = u[sel], rem[sel]
        shells.append((float(r_in), float(r_out),
                       float(np.abs(ur).max()), float(ur.max() - ur.min()),
                       float(np.abs(rr).max()), float(rr.max() - rr.min())))
    if len(shells) < 3:
        raise AnalysisError("not enough boundary resolution for the "
                            "structural comparison")

    mids = np.array([math.sqrt(s[0] * s[1]) for s in shells])
    raw = np.array([max(s[2], 1e-300) for s in shells])
    remv = np.array([max(s[4], 1e-300) for s in shells])
    slope_raw = float(np.polyfit(np.log(mids), np.log(raw), 1)[0])
    slope_rem = float(np.polyfit(np.log(mids), np.log(remv), 1)[0])
    removed = 1.0 - remv[-1] / raw[-1]
    return StructureFitReport(
        corner=j, terms=dict(terms), shells=shells,
        slope_raw=slope_raw, slope_remainder=slope_rem,
        raw_blows_up=bool(slope_raw <= -0.15),
        removed_fraction=float(removed),
        remainder_subdominant=bool(removed >= 0.75))


def structure_refinement_trend(coarse: StructureFitReport,
                               fine: StructureFitReport) -> tuple:
    """Per-shell remainder ratios fine/coarse on shells both levels resolve.

    Outer shells are dominated by the regular part, which converges to a
    fixed nonzero profile, so the decay verdict uses only the inner
    shells (outer radius <= R/4) where the subtracted singular term
    dominates and the remainder is discretization error.  Returns
    (ratios, decayed) with ``decayed`` true when the geometric-mean inner
    ratio is at most 0.9.
    """
    by_radius = {round(math.log2(s[1])): s for s in coarse.shells}
    R = coarse.shells[0][1]
    ratios = []
    inner = []
    for s in fine.shells:
        key = round(math.log2(s[1]))
        if key in by_radius:
            c = by_radius[key]
            q = s[4] / max(c[4], 1e-300)
            ratios.append((s[1], q))
            if s[1] <= 0.25 * R + 1e-15:
                inner.append(q)
    if not inner:
        raise AnalysisError("no common inner shells between refinement levels")
    gm = math.exp(np.mean([math.log(max(q, 1e-300)) for q in inner]))
    return ratios, bool(gm <= 0.9)


def holder_quotient(domain: PolygonalDomain, mesh: TriMesh, u, j: int,
                    alpha: float) -> float:
    """Largest discrete Hölder quotient |u(x)-u(y)| / |x-y|^alpha over
    boundary-node pairs within R_j of corner j.

    A field behaving like r^alpha near the corner has a bounded quotient
    that is dominated by node pairs straddling the corner; subtracting
    the correct singular term lowers it.
    """
    tr = boundary_trace_space(mesh)
    c = domain.corners[j]
    u = np.asarray(u, dtype=float)
    r = np.linalg.norm(tr.points - np.asarray(c.vertex), axis=1)
    sel = np.where(r < c.radius)[0]
    if len(sel) < 2:
        raise AnalysisError("not enough boundary nodes for the quotient")
    # imported here: scipy.spatial adds ~0.1 s to ``import dclab``
    from scipy.spatial.distance import pdist
    q = pdist(u[sel, None], "cityblock") / pdist(tr.points[sel]) ** alpha
    return float(q.max())


# ---------------------------------------------------------------------
# singular boundary data: state decomposition check

@dataclass
class SingularDataReport:
    """Decay of the state remainder after subtracting the wedge lift."""

    corner: int
    eta: float
    n: int
    rows: list                  # (rho, max_remainder, max_subtracted)
    slope: float                # log-log decay rate of the remainder
    boundary_residual: float    # remainder size on boundary nodes near corner
    endpoint_value: float       # s(omega), expect (-1)^(n+1)
    mode_fit: CoefficientFit | None


def singular_boundary_values(domain: PolygonalDomain, mesh: TriMesh,
                             data: SingularBoundaryData) -> np.ndarray:
    """Trace-order Dirichlet values of the singular datum."""
    validate_singular_boundary_data(domain, data)
    if data.eta <= 0.0:
        raise AnalysisError("nodal imposition needs a continuous datum "
                            "(eta > 0)")
    tr = boundary_trace_space(mesh)
    c = domain.corners[data.corner]
    out = np.zeros(tr.n)
    sides = _corner_sides(domain, tr, data.corner, 2.0 * c.radius)
    for sgn, (_, pos, radii) in zip((1.0, float(data.side_sign())), sides):
        out[pos] = (data.amplitude * sgn * cutoff(domain, data.corner, radii)
                    * radii ** data.eta)
    return out


def wedge_lift(domain: PolygonalDomain, mesh: TriMesh,
               data: SingularBoundaryData) -> np.ndarray:
    """Nodal field amplitude xi(r) r^eta s(theta): the closed-form
    harmonic lift whose trace equals the singular datum near the corner."""
    c = domain.corners[data.corner]
    r, theta = _polar_arrays(domain, data.corner, mesh.nodes)
    out = np.zeros(mesh.n_nodes)
    mask = (r > 0.0) & (r < 2.0 * c.radius) & (theta <= c.angle + 1e-12)
    s = eval_s_profile(domain, data.corner, data.n, data.eta, theta[mask])
    out[mask] = (data.amplitude * cutoff(domain, data.corner, r[mask])
                 * r[mask] ** data.eta * s)
    return out


def verify_singular_expansion(domain: PolygonalDomain, mesh: TriMesh,
                              state_values, data: SingularBoundaryData,
                              modes=(1, 2)) -> SingularDataReport:
    """Check the structural expansion of the state for a singular datum.

    Subtracts the closed-form wedge lift from the computed state and
    measures the remainder over at most five balls of radius R_j / 2^k:
    the remainder must decay strictly faster than r^eta (it consists of
    wedge modes and a regular part).  Also reports the remainder's trace
    residual near the corner (continuity across the corner) and fits the
    remainder's own wedge modes.
    """
    j = data.corner
    c = domain.corners[j]
    vals = np.asarray(state_values, dtype=float)
    lift = wedge_lift(domain, mesh, data)
    rem = vals - lift

    r, _ = _polar_arrays(domain, j, mesh.nodes)
    rows = []
    for k in range(5):
        rho = c.radius / 2.0 ** k
        sel = (r > 1e-14) & (r < rho)
        if np.count_nonzero(sel) < 3:
            break
        rows.append((float(rho), float(np.abs(rem[sel]).max()),
                     float(abs(data.amplitude) * rho ** data.eta)))
    if len(rows) < 3:
        raise AnalysisError("not enough resolution near the corner for "
                            "the remainder-decay check")
    rhos = np.array([row[0] for row in rows])
    peaks = np.array([max(row[1], 1e-300) for row in rows])
    slope = float(np.polyfit(np.log(rhos), np.log(peaks), 1)[0])

    tr = boundary_trace_space(mesh)
    rb = np.linalg.norm(tr.points - np.asarray(c.vertex), axis=1)
    near = rb < c.radius
    bres = float(np.abs(rem[tr.node_ids][near]).max()) if np.any(near) else 0.0

    w = c.angle
    endpoint = float(eval_s_profile(domain, j, data.n, data.eta, w))

    fit = None
    try:
        fit = extract_coefficients(domain, mesh, rem, j, modes=modes)
    except AnalysisError:
        pass
    return SingularDataReport(corner=j, eta=data.eta, n=data.n, rows=rows,
                              slope=slope, boundary_residual=bres,
                              endpoint_value=endpoint, mode_fit=fit)


# ---------------------------------------------------------------------
# empirical rates

@dataclass(frozen=True)
class RateEstimate:
    order: float
    monotone: bool

    @property
    def warning(self) -> str | None:
        return None if self.monotone else "non-monotone sequence"


def rate_estimate(errors, hs=None) -> RateEstimate:
    """Least-squares slope of log(error) against log(h).

    With ``hs`` omitted the levels are assumed to halve h.  Zero or
    negative entries are invalid.
    """
    e = np.asarray(errors, dtype=float)
    if len(e) < 2:
        raise AnalysisError("rate estimate needs at least 2 levels")
    if np.any(e <= 0.0):
        raise AnalysisError("errors must be positive")
    if hs is None:
        h = 2.0 ** -np.arange(len(e))
    else:
        h = np.asarray(hs, dtype=float)
    slope = float(np.polyfit(np.log(h), np.log(e), 1)[0])
    return RateEstimate(order=slope, monotone=bool(np.all(np.diff(e) < 0.0)))
