"""Corner-singularity analysis of computed fields.

Extraction of wedge-mode coefficients by annulus least squares,
classification of the active-mode sets that shape the optimal control,
flatness diagnostics at corners, structural decomposition checks of the
control, verification of singular-data expansions of the state (the
decay and trace of the remainder after the wedge lift; no mode fit of
the remainder), and empirical convergence rates.

Extraction fits nodal values in the annulus r in [R_j/4, R_j/2] around a
corner against the wedge modes r^(m lam) sin(m lam theta) plus a smooth
background {l1 l2, l1 l2 x, l1 l2 y} built from the two lines through the
corner's sides (so every background function vanishes on both wedge
walls, like the fields being analyzed).  The modes are m = 1, 2: with
lam in (1/2, 1) at a re-entrant corner, m lam stays below the degrees 2
and 3 of the background.  Columns are rescaled to unit size, and a scaled
design matrix with condition number above COND_MAX is an AnalysisError.
The annulus must hold MIN_ANNULUS_NODES nodes.  The flatness scan counts
a node as on a bound only where the control equals it: the solver puts
every active node exactly on its bound.  The sign of c_{j,1} predicts the
flat bound once |c_{j,1}| > C1_SIGN_MIN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import (
    PolygonalDomain,
    SingularBoundaryData,
    cutoff,
    eval_s_profile,
    singular_set_for_exponents,
    validate_singular_boundary_data,
    wedge_field,
    _polar_arrays,
)
from .meshing import TriMesh

#: condition-number cap for the scaled extraction design matrix
COND_MAX = 1e8

#: minimum node count in the extraction annulus
MIN_ANNULUS_NODES = 30

#: smallest |c_{j,1}| whose sign predicts the flat bound
C1_SIGN_MIN = 1e-3

#: wedge modes extracted at each corner
MODES = (1, 2)

#: exponent s* of the H-sets: j is in the m-th set if 0 < m lam_j < 2 - 2/s*
S_STAR = 4.0


class AnalysisError(RuntimeError):
    pass


def _corner_sides(domain: PolygonalDomain, tr, j: int, r_max: float):
    """The window of corner j: (trace positions, corner distances, chi)
    of the boundary nodes with 1e-14 < r < r_max, those on Gamma_j
    (chi = +1) first, then those on Gamma_{j-1} (chi = -1)."""
    vertex = np.asarray(domain.corners[j].vertex)
    pos = [tr.side_positions(j),
           tr.side_positions((j - 1) % len(domain.vertices))]
    chi = np.repeat([1.0, -1.0], [len(p) for p in pos])
    pos = np.concatenate(pos)
    radii = np.linalg.norm(tr.points[pos] - vertex, axis=1)
    keep = (radii > 1e-14) & (radii < r_max)
    return pos[keep], radii[keep], chi[keep]


# ---------------------------------------------------------------------
# coefficient extraction

@dataclass
class CoefficientFit:
    """Wedge-mode coefficients of one field at one corner."""

    coefficients: dict          # m -> extracted coefficient
    annulus: tuple
    n_nodes: int
    residual: float             # fit residual relative to the field size
    condition: float


def extract_coefficients(domain: PolygonalDomain, mesh: TriMesh, values,
                         j: int) -> CoefficientFit:
    """Least-squares coefficients of the wedge modes MODES of a nodal field
    at corner j.

    The field must vanish on the boundary near the corner (adjoint type);
    subtract boundary data first if it does not.  The annulus
    [R_j/4, R_j/2] is widened toward 0.95 R_j if it holds fewer than
    MIN_ANNULUS_NODES mesh nodes.  A basis whose scaled condition number
    exceeds COND_MAX raises AnalysisError: at a convex corner a mode can
    coincide with the background (at 90 degrees lam = 2, and
    r^lam sin(lam theta) = 2 x y).
    """
    c = domain.corners[j]
    lam = c.lam
    vals = np.asarray(values, dtype=float)
    if vals.shape != (mesh.n_nodes,):
        raise AnalysisError("field length does not match the mesh")

    r_all, theta_all = _polar_arrays(domain, j, mesh.nodes)
    lo, hi = 0.25 * c.radius, 0.5 * c.radius
    sel = np.where((r_all >= lo) & (r_all <= hi))[0]
    while len(sel) < MIN_ANNULUS_NODES and hi < 0.95 * c.radius - 1e-15:
        hi = min(1.25 * hi, 0.95 * c.radius)
        sel = np.where((r_all >= lo) & (r_all <= hi))[0]
    if len(sel) < MIN_ANNULUS_NODES:
        raise AnalysisError(
            f"extraction annulus at corner {j} holds {len(sel)} nodes "
            f"(< {MIN_ANNULUS_NODES}); refine the mesh")

    r, theta = r_all[sel], theta_all[sel]
    xl = r * np.cos(theta)
    yl = r * np.sin(theta)
    # products of the linear forms of the two wedge walls; they vanish on
    # both sides, as adjoint-type fields do
    b0 = yl * (math.sin(c.angle) * xl - math.cos(c.angle) * yl)
    y = vals[sel]

    cols = [r ** (m * lam) * np.sin(m * lam * theta) for m in MODES]
    A = np.column_stack(cols + [b0, b0 * xl, b0 * yl])
    scale = np.abs(A).max(axis=0)
    scale[scale == 0.0] = 1.0
    As = A / scale
    coef_s, _, _, sv = np.linalg.lstsq(As, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if cond > COND_MAX:
        raise AnalysisError(f"ill-conditioned basis at corner {j} "
                            f"(cond {cond:.2e})")
    coef = coef_s / scale
    res = float(np.linalg.norm(As @ coef_s - y))
    denom = float(np.linalg.norm(y))
    rel = res / denom if denom > 0 else res
    return CoefficientFit(coefficients={m: float(coef[k])
                                        for k, m in enumerate(MODES)},
                          annulus=(float(lo), float(hi)), n_nodes=len(sel),
                          residual=rel, condition=cond)


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


def classify_H_sets(domain: PolygonalDomain,
                    extraction_history) -> HSetReport:
    """Classify the contributing-corner sets, at exponent S_STAR, from
    extracted coefficients.

    ``extraction_history`` is a sequence (one entry per refinement level,
    coarse to fine) of dicts corner -> CoefficientFit.
    """
    j1, j2, j3 = (singular_set_for_exponents(domain.lambdas, S_STAR, m)
                  for m in (1, 2, 3))
    h1 = {j for j in j1 if domain.corners[j].lam > 1.0}
    h2, h3, und = set(), set(), set()
    for j in sorted(j2 | j3):
        verdict = _c1_verdict([level[j].coefficients[1]
                               for level in extraction_history if j in level])
        if verdict == "zero":
            h2 |= {j} & j2
            h3 |= {j} & j3
        elif verdict == "undetermined":
            und |= {(2, j)} if j in j2 else set()
            und |= {(3, j)} if j in j3 else set()
    return HSetReport(h1=h1, h2=h2, h3=h3, undetermined=und)


# ---------------------------------------------------------------------
# flatness diagnostics

@dataclass
class FlatnessVerdict:
    """Outcome of the flat-control scan at one corner."""

    verdict: str                # "flat-at-a" | "flat-at-b" | "one-sided" | "not-flat"
    radius: float | None        # largest flat radius, None if not flat
    per_side: dict              # side index -> (bound char or None, radius)
    predicted_bound: str | None  # from the sign of c_{j,1}
    consistent: bool


def _side_flat_scan(u, radii, lower, upper):
    """Classify the run of nodes at a bound, outward from the corner.

    The radius is the midpoint between the last node of the longer run
    and the first node off both bounds (the last node if there is none);
    a side with no node at a bound has no radius.
    """
    order = np.argsort(radii)
    r = radii[order]
    n_a = int(np.cumprod((u == lower)[order]).sum())
    n_b = int(np.cumprod((u == upper)[order]).sum())
    if n_a == n_b == 0:
        return None, None
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
    tr = mesh.trace
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

    pos, radii, chi = _corner_sides(domain, tr, j, c.radius)
    per_side = {}
    for side, on in ((j, chi > 0), ((j - 1) % len(domain.vertices), chi < 0)):
        p = pos[on]
        per_side[side] = _side_flat_scan(u[p], radii[on], lo[p], hi[p])

    bounds_seen = {b for b, _ in per_side.values() if b is not None}
    flat_radii = [float(rad) for _, rad in per_side.values()
                  if rad is not None]
    if len(bounds_seen) == 1 and len(flat_radii) == len(per_side):
        verdict, radius = f"flat-at-{bounds_seen.pop()}", min(flat_radii)
    elif bounds_seen:
        verdict, radius = "one-sided", max(flat_radii)
    else:
        verdict, radius = "not-flat", None

    predicted = None
    if c1 is not None and abs(c1) > C1_SIGN_MIN:
        predicted = "a" if c1 > 0 else "b"
    consistent = (predicted is None or verdict == f"flat-at-{predicted}")
    return FlatnessVerdict(verdict=verdict, radius=radius, per_side=per_side,
                           predicted_bound=predicted, consistent=consistent)


# ---------------------------------------------------------------------
# structural decomposition of the control

def predicted_control_terms(domain: PolygonalDomain, j: int, c_fit: dict,
                            nu: float, a, b) -> dict:
    """Boundary coefficients a_{j,m} implied by extracted adjoint modes.

    The control's wedge term with exponent m lam - 1 has the coefficient
    -m lam c_{j,m} / nu where 0 lies in [min a, max b] (the projection is
    then locally the identity near the corner), and 0 otherwise; infinite
    bounds are allowed.
    """
    lam = domain.corners[j].lam
    zero_admissible = np.min(a) <= 0.0 <= np.max(b)
    return {m: -m * lam * cm / nu if zero_admissible else 0.0
            for m, cm in c_fit.items()}


def _trace_terms(domain: PolygonalDomain, mesh: TriMesh, j: int,
                 terms) -> np.ndarray:
    """Trace-order field sum amplitude chi^(parity+1) xi(r) r^exponent over
    the (amplitude, parity, exponent) terms, on Gamma_j (chi = +1) and
    Gamma_{j-1} (chi = -1) within 2R_j of corner j; zero elsewhere."""
    tr = mesh.trace
    out = np.zeros(tr.n)
    pos, radii, chi = _corner_sides(domain, tr, j,
                                    2.0 * domain.corners[j].radius)
    xi = cutoff(domain, j, radii)
    for amplitude, parity, exponent in terms:
        out[pos] += amplitude * chi ** (parity + 1) * xi * radii ** exponent
    return out


def control_singular_profile(domain: PolygonalDomain, mesh: TriMesh, j: int,
                             terms: dict) -> np.ndarray:
    """Trace-order field sum_m a_m chi^(m+1) xi(r) r^(m lam - 1) near
    corner j (zero beyond the cutoff support)."""
    lam = domain.corners[j].lam
    return _trace_terms(domain, mesh, j, [(am, m, m * lam - 1.0)
                                          for m, am in terms.items()
                                          if am != 0.0])


def structural_fit_control(domain: PolygonalDomain, mesh: TriMesh, rem,
                           j: int) -> list:
    """Largest |rem| on each geometric shell r in [R_j/2^(k+1), R_j/2^k),
    k = 0 ... 11, of the boundary nodes near corner j, stopping at the
    first empty shell.

    ``rem`` is a trace-order field: the harness passes the control minus
    its predicted singular profile.  A singular control grows from shell
    to shell toward the corner; the remainder should not, and on each
    fixed shell it should decay under mesh refinement
    (``structure_refinement_trend``).
    """
    rem = np.asarray(rem, dtype=float)
    c = domain.corners[j]
    pos, radii, _ = _corner_sides(domain, mesh.trace, j, c.radius)
    rem = rem[pos]
    peaks = []
    for k in range(12):
        r_out = c.radius / 2.0 ** k
        sel = (radii >= 0.5 * r_out) & (radii < r_out)
        if not np.any(sel):
            break
        peaks.append(float(np.abs(rem[sel]).max()))
    if len(peaks) < 3:
        raise AnalysisError("not enough boundary resolution for the "
                            "structural comparison")
    return peaks


def structure_refinement_trend(coarse: list, fine: list, R: float) -> tuple:
    """Per-shell remainder ratios fine/coarse on shells both levels resolve.

    ``coarse`` and ``fine`` are the shell peaks of ``structural_fit_control``
    at two refinement levels, paired by shell index k; shell k has outer
    radius R/2^k.  Outer shells are dominated by the regular part, which
    converges to a fixed nonzero profile, so the decay verdict uses only
    the inner shells (k >= 2) where the subtracted singular term dominates
    and the remainder is discretization error.  A shell whose coarse
    remainder is exactly 0 has no ratio and is left out.  Returns
    (ratios, decayed): ratios holds (R/2^k, ratio) pairs, and ``decayed``
    is true when the geometric-mean inner ratio is at most 0.9.
    """
    ratios = []
    inner = []
    for k, (c, f) in enumerate(zip(coarse, fine)):
        if c != 0.0:
            ratios.append((R / 2.0 ** k, f / c))
            if k >= 2:
                inner.append(f / c)
    if not inner:
        raise AnalysisError("no common inner shell with a nonzero coarse "
                            "remainder between refinement levels")
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
    tr = mesh.trace
    u = np.asarray(u, dtype=float)
    pos, _, _ = _corner_sides(domain, tr, j, domain.corners[j].radius)
    sel = np.concatenate([[tr.corner_pos[j]], pos])
    if len(sel) < 2:
        raise AnalysisError("not enough boundary nodes for the quotient")
    # imported here: scipy.spatial adds ~0.1 s to ``import dclab``
    from scipy.spatial.distance import pdist
    q = pdist(u[sel, None], "cityblock") / pdist(tr.points[sel]) ** alpha
    return float(q.max())


def corner_log_slope(domain: PolygonalDomain, mesh: TriMesh, u,
                     j: int) -> float | None:
    """Log-log slope of |u| against the distance to corner j, over the
    nodes of its two sides with r in [1.5 r_min, R_j/2] and |u| > 1e-12,
    where r_min is the distance of the corner's nearest boundary node.
    None with fewer than four such nodes."""
    c = domain.corners[j]
    pos, r, _ = _corner_sides(domain, mesh.trace, j, c.radius)
    if len(r) == 0:
        return None
    # trace order fixes polyfit's summation order, and so the last bits
    # of the slope
    order = np.argsort(pos)
    r, u = r[order], np.asarray(u, dtype=float)[pos[order]]
    sel = (r >= 1.5 * r.min()) & (r <= 0.5 * c.radius) & (np.abs(u) > 1e-12)
    if np.count_nonzero(sel) < 4:
        return None
    return float(np.polyfit(np.log(r[sel]), np.log(np.abs(u[sel])), 1)[0])


# ---------------------------------------------------------------------
# singular boundary data: state decomposition check

@dataclass
class SingularDataReport:
    """Decay of the state remainder after subtracting the wedge lift."""

    eta: float
    slope: float                # log-log decay rate of the remainder
    boundary_residual: float    # remainder size on boundary nodes near corner


def singular_boundary_values(domain: PolygonalDomain, mesh: TriMesh,
                             data: SingularBoundaryData) -> np.ndarray:
    """Trace-order Dirichlet values of the singular datum."""
    validate_singular_boundary_data(domain, data)
    if data.eta <= 0.0:
        raise AnalysisError("nodal imposition needs a continuous datum "
                            "(eta > 0)")
    return _trace_terms(domain, mesh, data.corner,
                        [(1.0, data.n, data.eta)])


def wedge_lift(domain: PolygonalDomain, mesh: TriMesh,
               data: SingularBoundaryData) -> np.ndarray:
    """Nodal field xi(r) r^eta s(theta): the closed-form harmonic lift
    whose trace equals the singular datum near the corner."""
    return wedge_field(domain, data.corner, mesh.nodes, data.eta,
                       partial(eval_s_profile, domain, data.corner, data.n,
                               data.eta))


def verify_singular_expansion(domain: PolygonalDomain, mesh: TriMesh, rem,
                              data: SingularBoundaryData
                              ) -> SingularDataReport:
    """Check the structural expansion of the state for a singular datum.

    ``rem`` is the nodal remainder: the computed state minus the
    closed-form ``wedge_lift``.  Measures it over at most five balls of
    radius R_j / 2^k: the remainder must decay strictly faster than r^eta
    (it consists of wedge modes and a regular part).  Also reports the
    remainder's trace residual near the corner (continuity across the
    corner).
    """
    j = data.corner
    c = domain.corners[j]
    rem = np.asarray(rem, dtype=float)

    r, _ = _polar_arrays(domain, j, mesh.nodes)
    rhos, peaks = [], []
    for k in range(5):
        rho = c.radius / 2.0 ** k
        sel = (r > 1e-14) & (r < rho)
        if np.count_nonzero(sel) < 3:
            break
        rhos.append(rho)
        peaks.append(max(float(np.abs(rem[sel]).max()), 1e-300))
    if len(rhos) < 3:
        raise AnalysisError("not enough resolution near the corner for "
                            "the remainder-decay check")
    slope = float(np.polyfit(np.log(rhos), np.log(peaks), 1)[0])

    # the corner node is left out: its remainder is 0 (datum and lift both vanish)
    pos, _, _ = _corner_sides(domain, mesh.trace, j, c.radius)
    bres = float(np.abs(rem[pos]).max(initial=0.0))
    return SingularDataReport(eta=data.eta, slope=slope,
                              boundary_residual=bres)


# ---------------------------------------------------------------------
# empirical rates

@dataclass(frozen=True)
class RateEstimate:
    order: float
    monotone: bool


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
