"""Coefficient extraction, H-set classification, flatness and structure
diagnostics, singular-data expansion checks, rate estimation."""
import functools
import json
import math

import numpy as np
import pytest

from dclab import control, fem, meshing, singular
from dclab import geometry as geo
from dclab.cli import main

from helpers import L_SHAPE_REENTRANT_CORNER as J, synthesize_modes

DOM = geo.l_shape()


# ---------------------------------------------------------------- fixtures

@functools.lru_cache(maxsize=None)
def lshape_mesh(hinv, mu=None):
    grading = {J: mu} if mu else None
    return meshing.triangulate(DOM, 1.0 / hinv, grading=grading)


@functools.lru_cache(maxsize=None)
def unconstrained_solution(hinv):
    mesh = lshape_mesh(hinv, mu=1.0 / 3.0)
    prob = control.ControlProblem(fem.FemSystem(mesh), 0.2,
                                  control.ConstantTarget(1.0))
    sol = control.solve_unconstrained(prob)
    fit = singular.extract_coefficients(DOM, mesh, sol.phi.values, J)
    return mesh, sol, fit


@functools.lru_cache(maxsize=None)
def constrained_solution():
    mesh = lshape_mesh(32, mu=0.5)
    prob = control.ControlProblem(fem.FemSystem(mesh), 0.2,
                                  control.ConstantTarget(1.0),
                                  lower=-1.0, upper=1.0)
    sol = control.solve_constrained(prob)
    fit = singular.extract_coefficients(DOM, mesh, sol.phi.values, J)
    return mesh, sol, fit


# ---------------------------------------------------------------- extraction

def test_synthesized_field_recovered_exactly():
    # the annulus basis contains the synthesized modes, so the fit is
    # exact up to least-squares roundoff
    mesh = lshape_mesh(64)
    field = synthesize_modes(DOM, mesh, J, {1: 1.0, 2: -0.5})
    fit = singular.extract_coefficients(DOM, mesh, field, J)
    assert abs(fit.coefficients[1] - 1.0) < 1e-8
    assert abs(fit.coefficients[2] + 0.5) < 1e-8
    assert fit.residual < 1e-8
    assert fit.n_nodes >= 30


def test_annulus_widens_on_sparse_mesh():
    mesh = lshape_mesh(32)
    field = synthesize_modes(DOM, mesh, J, {1: 1.0, 2: -0.5})
    fit = singular.extract_coefficients(DOM, mesh, field, J)
    R = DOM.corners[J].radius
    assert fit.annulus[1] > 0.5 * R  # default upper bound was widened
    assert fit.n_nodes >= 30
    assert abs(fit.coefficients[1] - 1.0) < 1e-8


def test_extraction_needs_enough_nodes():
    mesh = meshing.triangulate(DOM, 1.0 / 16.0)
    with pytest.raises(singular.AnalysisError, match="nodes"):
        singular.extract_coefficients(DOM, mesh, np.zeros(mesh.n_nodes), J)


def test_fem_path_recovery():
    # solve -lap y = -lap(sum c_m xi w_m) with y=0 on the boundary; the
    # exact solution is the synthesized field, so extraction error here
    # is discretization error only
    coeffs = {1: 1.0, 2: -0.5}
    lam = DOM.corners[J].lam
    mesh = lshape_mesh(32, mu=0.5)
    sysm = fem.FemSystem(mesh)

    def source(x, y):
        r, theta = geo._polar_arrays(DOM, J, np.column_stack([x, y]))
        out = np.zeros(len(r))
        band = (r > 1e-14) & (theta <= DOM.corners[J].angle + 1e-12)
        # first and second r-derivatives of the quintic blend of xi
        R = DOM.corners[J].radius
        t = np.clip((r[band] - R) / R, 0.0, 1.0)
        xi1 = -30.0 * t * t * (1.0 - t) ** 2 / R
        xi2 = -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / (R * R)
        for m, cm in coeffs.items():
            k = m * lam
            out[band] += -cm * np.sin(k * theta[band]) * r[band] ** (k - 1) * (
                (2 * k + 1) * xi1 + r[band] * xi2)
        return out

    load = fem.assemble_load(mesh, source)
    y = fem.solve_dirichlet(sysm, np.zeros(sysm.trace.n), load=load)
    fit = singular.extract_coefficients(DOM, mesh, y.values, J)
    assert abs(fit.coefficients[1] - 1.0) < 2e-2
    assert abs(fit.coefficients[2] + 0.5) < 2e-2


def test_smooth_field_gives_tiny_coefficients():
    mesh = lshape_mesh(64)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    fit = singular.extract_coefficients(DOM, mesh, x * y * (x + 1) * (y + 1),
                                        J)
    assert abs(fit.coefficients[1]) < 1e-4
    assert abs(fit.coefficients[2]) < 1e-4


def test_ill_conditioned_basis_raises():
    # at the square's 90 degree corner lam = 2, so mode 1, r^2 sin(2 theta)
    # = 2 x y, is the background term x y: no fit, an error that names the
    # condition number
    dom = geo.unit_square()
    mesh = meshing.triangulate(dom, 1.0 / 64.0, grading={0: 0.5})
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    with pytest.raises(singular.AnalysisError,
                       match=r"ill-conditioned basis at corner 0 "
                             r"\(cond \d\.\d\de\+\d+\)"):
        singular.extract_coefficients(dom, mesh, x * y, 0)


@pytest.mark.parametrize("omega", ["1.02pi", "3pi/2", "1.98pi"])
def test_reentrant_fits_are_well_conditioned(omega):
    # lam in (1/2, 1) keeps the modes r^lam and r^(2 lam) apart from the
    # background of degree 2 and 3 at every re-entrant angle
    dom = geo.build_domain(f"sector({omega}, 64)", r_overrides={0: 0.3})
    mesh = meshing.triangulate(dom, 0.05, grading={0: 0.5})
    field = synthesize_modes(dom, mesh, 0, {1: 1.0, 2: -0.5})
    fit = singular.extract_coefficients(dom, mesh, field, 0)
    assert fit.condition < 1e3
    assert abs(fit.coefficients[1] - 1.0) < 1e-8
    assert abs(fit.coefficients[2] + 0.5) < 1e-8


# ---------------------------------------------------------------- H sets

def _fake_history(values):
    levels = []
    for v in values:
        fit = singular.CoefficientFit(
            coefficients={1: v, 2: -0.5},
            annulus=(0.03, 0.06), n_nodes=40, residual=1e-3, condition=3.0)
        levels.append({J: fit})
    return levels


def test_classify_decaying_c1():
    rep = singular.classify_H_sets(DOM, _fake_history([0.1, 0.05, 0.02]))
    assert rep.h2 == {J}
    assert rep.h1 == set()  # re-entrant corner has lam < 1
    assert not rep.undetermined


def test_classify_stable_c1():
    rep = singular.classify_H_sets(DOM, _fake_history([0.8, 0.82, 0.81]))
    assert rep.h2 == set()
    assert not rep.undetermined


def test_classify_ambiguous_is_undetermined():
    rep = singular.classify_H_sets(DOM, _fake_history([0.1, 0.08, 0.052]))
    assert rep.h2 == set()
    assert (2, J) in rep.undetermined


def test_classify_exact_zero():
    rep = singular.classify_H_sets(DOM, _fake_history([0.0, 0.0, 0.0]))
    assert rep.h2 == {J}


def test_classify_single_level_is_undetermined():
    rep = singular.classify_H_sets(DOM, _fake_history([0.1]))
    assert rep.h2 == set()
    assert (2, J) in rep.undetermined


def test_h1_rule_is_exact():
    # sector arc junctions are convex with lam slightly above 1, so they
    # land in H1 without any extraction; the re-entrant corner never does
    dom = geo.build_domain("sector(3pi/2, 64)")
    rep = singular.classify_H_sets(dom, [])
    j1 = geo.singular_set_for_exponents(dom.lambdas, 4.0, 1)
    assert rep.h1 == {j for j in j1 if dom.corners[j].lam > 1.0}
    assert 0 not in rep.h1
    assert rep.h1  # arc corners are present


# ---------------------------------------------------------------- flatness

def test_flatness_constrained_lshape():
    mesh, sol, fit = constrained_solution()
    c1 = fit.coefficients[1]
    rep = singular.flatness_diagnostic(DOM, mesh, sol.u, -1.0, 1.0, J, c1=c1)
    assert c1 < 0.0
    assert rep.verdict == "flat-at-b"  # sign rule: c1 < 0 -> upper bound
    # every boundary node within the flat radius sits at the upper bound
    pos, _ = _near_corner(mesh, rep.radius)
    assert np.all(sol.u[pos] == 1.0)
    assert 0.01 < rep.radius < 0.08
    assert rep.consistent
    assert set(rep.per_side) == {J, J - 1}
    assert all(b == "b" for b, _ in rep.per_side.values())


def test_flatness_needs_the_bound_exactly():
    # the solver puts every active node exactly on its bound: a node
    # 1e-12 off it is not on it, and ends the flat run at the corner
    dom = geo.unit_square()
    mesh = meshing.structured_mesh(dom, 1.0 / 32.0)
    tr = mesh.trace
    u = np.full(tr.n, 1.0)
    rep = singular.flatness_diagnostic(dom, mesh, u, 1.0, 2.0, 0)
    assert rep.verdict == "flat-at-a"
    # the nearest node of each side, both at r = 1/32
    pos, radii, _ = singular._corner_sides(dom, tr, 0, dom.corners[0].radius)
    nearest = pos[radii == radii.min()]
    assert len(nearest) == 2
    u[nearest] = 1.0 + 1e-12
    rep = singular.flatness_diagnostic(dom, mesh, u, 1.0, 2.0, 0)
    assert rep.verdict == "not-flat" and rep.radius is None
    assert rep.per_side == {0: (None, None), 3: (None, None)}


def test_flatness_rejects_convex_corner_with_zero_admissible():
    mesh = meshing.structured_mesh(geo.unit_square(), 0.25)
    u = np.zeros(mesh.trace.n)
    with pytest.raises(singular.AnalysisError, match="convex"):
        singular.flatness_diagnostic(geo.unit_square(), mesh, u, -1.0, 1.0, 0)


@pytest.mark.parametrize("marks, verdict, radius, per_side", [
    # all lower
    ({0: (1.0, math.inf), 3: (1.0, math.inf)}, "flat-at-a", 0.09375,
     {0: ("a", 0.09375), 3: ("a", 0.09375)}),
    # lower to r <= 0.04 on both sides
    ({0: (1.0, 0.04), 3: (1.0, 0.04)}, "flat-at-a", 0.046875,
     {0: ("a", 0.046875), 3: ("a", 0.046875)}),
    # lower to 0.07 on side 0 and to 0.04 on side 3
    ({0: (1.0, 0.07), 3: (1.0, 0.04)}, "flat-at-a", 0.046875,
     {0: ("a", 0.078125), 3: ("a", 0.046875)}),
    # lower to 0.04 on side 0 and upper to 0.07 on side 3
    ({0: (1.0, 0.04), 3: (2.0, 0.07)}, "one-sided", 0.078125,
     {0: ("a", 0.046875), 3: ("b", 0.078125)}),
    # lower to 0.07 on side 0 only
    ({0: (1.0, 0.07)}, "one-sided", 0.078125,
     {0: ("a", 0.078125), 3: (None, None)}),
], ids=["all-lower", "lower-to-0.04", "lower-to-0.07-and-0.04",
        "lower-and-upper", "lower-on-one-side"])
def test_flatness_convex_corner_allowed_without_zero(marks, verdict, radius,
                                                     per_side):
    # bounds [1, 2]: the control is flat near convex corners too; on the
    # h = 1/32 lattice the side nodes sit at r = k/32, and a flat radius is
    # the midpoint between the last node at the bound and the next one
    dom = geo.unit_square()
    mesh = meshing.structured_mesh(dom, 1.0 / 32.0)
    tr = mesh.trace
    u = np.full(tr.n, 1.5)
    for side, (value, r_max) in marks.items():
        pos = tr.side_positions(side)
        r = np.linalg.norm(tr.points[pos] - np.asarray(dom.corners[0].vertex),
                           axis=1)
        u[pos[r <= r_max]] = value
    rep = singular.flatness_diagnostic(dom, mesh, u, 1.0, 2.0, 0)
    assert rep.verdict == verdict
    assert rep.radius == radius
    assert rep.per_side == per_side


def test_flatness_not_flat_with_contradiction_flag():
    mesh, _, _ = constrained_solution()
    u = np.full(mesh.trace.n, 0.25)
    rep = singular.flatness_diagnostic(DOM, mesh, u, -1.0, 1.0, J, c1=0.4)
    assert rep.verdict == "not-flat"
    assert rep.radius is None
    assert rep.predicted_bound == "a"
    assert not rep.consistent


def test_flatness_one_sided():
    mesh, _, _ = constrained_solution()
    tr = mesh.trace
    u = np.full(tr.n, 0.25)
    vtx = np.asarray(DOM.corners[J].vertex)
    pos = tr.side_positions(J)
    r = np.linalg.norm(tr.points[pos] - vtx, axis=1)
    u[pos[r < 0.06]] = -1.0  # lower bound on one adjacent side only
    rep = singular.flatness_diagnostic(DOM, mesh, u, -1.0, 1.0, J)
    assert rep.verdict == "one-sided"
    assert rep.per_side[J][0] == "a"
    assert rep.per_side[(J - 1) % len(DOM.vertices)][0] is None


# ---------------------------------------------------------------- structure

def _near_corner(mesh, radius):
    """Trace positions and radii of the boundary nodes with r < radius,
    selected by their distance to the corner over the whole trace."""
    tr = mesh.trace
    radii = np.linalg.norm(tr.points - np.asarray(DOM.corners[J].vertex), axis=1)
    near = radii < radius
    return np.flatnonzero(near), radii[near]


def _shell(radii, k):
    """Mask of the radii in shell k, [R_j/2^(k+1), R_j/2^k), corner left out."""
    r_out = DOM.corners[J].radius / 2 ** k
    return (radii > 1e-14) & (radii >= r_out / 2) & (radii < r_out)


def test_structure_fit_unconstrained_blowup_removed():
    peaks = []
    for hinv in (32, 64):
        mesh, sol, fit = unconstrained_solution(hinv)
        terms = singular.predicted_control_terms(
            DOM, J, fit.coefficients, 0.2, -geo.UNBOUNDED, geo.UNBOUNDED)
        # the leading boundary coefficient is -lam*c1/nu, recomputable
        lam = DOM.corners[J].lam
        assert terms[1] == pytest.approx(-lam * fit.coefficients[1] / 0.2)
        rem = sol.u - singular.control_singular_profile(DOM, mesh, J, terms)
        raw = singular.structural_fit_control(DOM, mesh, sol.u, J)
        peaks.append(singular.structural_fit_control(DOM, mesh, rem, J))
        # the shells hold every boundary node within R_j except the corner
        pos, radii = _near_corner(mesh, DOM.corners[J].radius)
        assert len(raw) == len(peaks[-1])
        for k, (p_raw, p_rem) in enumerate(zip(raw, peaks[-1])):
            sel = pos[_shell(radii, k)]
            assert (p_raw, p_rem) == (np.abs(sol.u[sel]).max(),
                                      np.abs(rem[sel]).max())
        # the control grows on every shell toward the corner, and the
        # subtraction removes over 80% of it on the innermost one
        assert all(b > a for a, b in zip(raw, raw[1:])) and raw[-1] > 2 * raw[0]
        assert peaks[-1][-1] < 0.2 * raw[-1]
    R = DOM.corners[J].radius
    ratios, decayed = singular.structure_refinement_trend(*peaks, R)
    assert [r for r, _ in ratios] == [R / 2 ** k for k in range(len(ratios))]
    assert decayed


def test_structure_fit_flat_control_is_regular():
    mesh, sol, _ = constrained_solution()
    peaks = singular.structural_fit_control(DOM, mesh, sol.u, J)
    # the control is bounded by the upper bound and sits on it across the
    # innermost shell
    assert all(p <= 1.0 for p in peaks) and peaks[-1] == 1.0
    pos, radii = _near_corner(mesh, DOM.corners[J].radius)
    assert np.ptp(sol.u[pos[_shell(radii, len(peaks) - 1)]]) == 0.0


def test_structure_trend_of_zero_remainders_is_undefined():
    # u = 0 leaves nothing to compare: no ratio, no verdict
    zeros = [0.0] * 5
    with pytest.raises(singular.AnalysisError, match="nonzero"):
        singular.structure_refinement_trend(zeros, zeros, 0.5)


def test_predicted_terms_zero_when_zero_not_admissible():
    terms = singular.predicted_control_terms(DOM, J, {1: 0.5, 2: -0.2},
                                             1.0, 1.0, 2.0)
    assert terms == {1: 0.0, 2: 0.0}


def test_holder_quotient_drops_after_subtraction():
    dom = geo.build_domain("sector(3pi/2, 64)", r_overrides={0: 0.3})
    w = dom.corners[0].angle
    nrm = (-math.sin(0.5 * w), math.cos(0.5 * w))
    disc = fem.DiscontinuityLine((0.0, 0.0), nrm)

    def skew(x, y):
        return np.where(nrm[0] * x + nrm[1] * y < 0.0, 1.0, -1.0)

    mesh = meshing.triangulate(dom, 0.025)
    prob = control.ControlProblem(
        fem.FemSystem(mesh), 1.0,
        control.CallableTarget(skew, discontinuity=disc),
        lower=-1.0, upper=1.0)
    sol = control.solve_constrained(prob)
    fit = singular.extract_coefficients(dom, mesh, sol.phi.values, 0)
    terms = singular.predicted_control_terms(dom, 0, fit.coefficients,
                                             1.0, -1.0, 1.0)
    pred = singular.control_singular_profile(dom, mesh, 0, terms)
    alpha = 2.0 * dom.corners[0].lam - 1.0
    q_raw = singular.holder_quotient(dom, mesh, sol.u, 0, alpha)
    q_rem = singular.holder_quotient(dom, mesh, sol.u - pred, 0, alpha)
    assert q_rem < 0.5 * q_raw


def test_holder_quotient_of_constant_is_zero():
    mesh, _, _ = constrained_solution()
    tr = mesh.trace
    assert singular.holder_quotient(DOM, mesh, np.ones(tr.n), J, 0.5) == 0.0


def _holder_by_trace_scan(domain, mesh, u, j, alpha):
    """Reference: the nodes within R_j picked by a scan of the whole trace,
    every pair by a double loop; None with fewer than two nodes."""
    tr = mesh.trace
    c = domain.corners[j]
    r = np.linalg.norm(tr.points - np.asarray(c.vertex), axis=1)
    sel = np.flatnonzero(r < c.radius)
    if len(sel) < 2:
        return None
    q = 0.0
    for i, a in enumerate(sel):
        for b in sel[i + 1:]:
            d = tr.points[a] - tr.points[b]
            q = max(q, abs(u[a] - u[b]) / math.sqrt(d[0] ** 2 + d[1] ** 2) ** alpha)
    return q


def _log_slope_by_trace_scan(domain, mesh, u, j):
    """Reference: the fit nodes picked by a scan of the whole trace."""
    tr = mesh.trace
    c = domain.corners[j]
    r = np.linalg.norm(tr.points - np.asarray(c.vertex), axis=1)
    if not np.any(r > 1e-14):
        return None
    lo = 1.5 * r[r > 1e-14].min()
    sel = (r >= lo) & (r <= 0.5 * c.radius) & (np.abs(u) > 1e-12)
    if np.count_nonzero(sel) < 4:
        return None
    return float(np.polyfit(np.log(r[sel]), np.log(np.abs(u[sel])), 1)[0])


@pytest.mark.parametrize("spec,radii,build,slopes", [
    ("l-shape", None,
     lambda d: meshing.triangulate(d, 1 / 32, grading={J: 0.5}), 2),
    ("l-shape", None, lambda d: meshing.structured_mesh(d, 1 / 64), 12),
    ("sector(3pi/2, 64)", {0: 0.3}, lambda d: meshing.triangulate(d, 0.025), 2),
], ids=["graded-l-shape", "structured-l-shape", "sector"])
def test_corner_window_matches_trace_scan(spec, radii, build, slopes):
    # both measurements take their nodes from _corner_sides; the radius
    # rule keeps every other boundary node out of R_j, so they see the
    # nodes of a whole-trace scan and give its values bit for bit
    dom = geo.build_domain(spec, r_overrides=radii)
    mesh = build(dom)
    tr = mesh.trace
    rng = np.random.default_rng(5)
    fitted = 0  # (corner, field) pairs with a slope
    for j in range(len(dom.vertices)):
        r = np.linalg.norm(tr.points - np.asarray(dom.corners[j].vertex), axis=1)
        for u in (rng.normal(size=tr.n), r ** 0.3 + 0.01 * rng.normal(size=tr.n)):
            want = _holder_by_trace_scan(dom, mesh, u, j, 0.4)
            if want is None:
                with pytest.raises(singular.AnalysisError):
                    singular.holder_quotient(dom, mesh, u, j, 0.4)
            else:
                assert singular.holder_quotient(dom, mesh, u, j, 0.4) == want
            want = _log_slope_by_trace_scan(dom, mesh, u, j)
            assert singular.corner_log_slope(dom, mesh, u, j) == want
            fitted += want is not None
    assert fitted == slopes


# polygon with two re-entrant corners: 4 at (2, 1) (omega = 1.648 pi) and 5
# at (1, 1.5) (omega = 1.352 pi), whose neighbouring sides keep R_5 at 1/16
TWO_CORNERS = [(0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1.5), (1, 2), (0, 2)]


def test_two_corner_windows_are_disjoint():
    # each corner's window out to the cutoff support 2R_j holds its own
    # nodes only, so each corner's singular profile is zero on the other's
    dom = geo.build_domain(TWO_CORNERS)
    mesh = meshing.triangulate(dom, 1 / 16, grading={4: 0.5, 5: 0.5})
    tr = mesh.trace
    windows = {j: singular._corner_sides(dom, tr, j,
                                         2.0 * dom.corners[j].radius)
               for j in (4, 5)}
    assert [len(windows[j][0]) for j in (4, 5)] == [9, 5]
    assert not np.intersect1d(windows[4][0], windows[5][0]).size
    for j, other in ((4, 5), (5, 4)):
        pos, _, chi = windows[j]
        # Gamma_j's nodes first, then Gamma_{j-1}'s
        assert np.array_equal(chi, np.sort(chi)[::-1])
        prof = singular.control_singular_profile(dom, mesh, j,
                                                 {1: 1.0, 2: 1.0})
        assert np.flatnonzero(prof).tolist() == sorted(pos)
        assert not prof[windows[other][0]].any()


def test_overlapping_corner_disks_are_a_config_error(tmp_path, capsys):
    cfg = {"domain": {"vertices": TWO_CORNERS},
           "corner_radii": {"4": 0.37, "5": 0.2, "6": 0.01},
           "mesh": {"h0": 1 / 16},
           "problem": {"nu": 0.2, "target": {"kind": "constant",
                                             "value": 1.0}}}
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert ("config.domain: localization disks of corners 4 and 5 overlap"
            in capsys.readouterr().err)


# ------------------------------------------------------ singular boundary data

def test_wedge_lift_trace_matches_datum():
    data = geo.SingularBoundaryData(corner=J, n=2, eta=1.0 / 3.0)
    mesh = lshape_mesh(32, mu=0.5)
    g = singular.singular_boundary_values(DOM, mesh, data)
    lift = singular.wedge_lift(DOM, mesh, data)
    tr = mesh.trace
    assert np.abs(lift[:tr.n] - g).max() < 1e-12


def test_singular_datum_needs_positive_eta_for_nodal_imposition():
    data = geo.SingularBoundaryData(corner=J, n=1, eta=-0.25)
    mesh = lshape_mesh(32, mu=0.5)
    with pytest.raises(singular.AnalysisError, match="eta"):
        singular.singular_boundary_values(DOM, mesh, data)


def test_expansion_square_corner_parity1():
    dom = geo.unit_square()
    data = geo.SingularBoundaryData(corner=0, n=1, eta=1.5)
    mesh = meshing.triangulate(dom, 1.0 / 32.0, grading={0: 0.5})
    sysm = fem.FemSystem(mesh)
    g = singular.singular_boundary_values(dom, mesh, data)
    y = fem.solve_dirichlet(sysm, g)
    rem = y.values - singular.wedge_lift(dom, mesh, data)
    rep = singular.verify_singular_expansion(dom, mesh, rem, data)
    assert rep.slope > 1.5  # remainder decays faster than r^eta
    assert rep.boundary_residual < 1e-12


def test_expansion_lshape_corner_parity2():
    data = geo.SingularBoundaryData(corner=J, n=2, eta=1.0 / 3.0)
    mesh = lshape_mesh(32, mu=0.5)
    sysm = fem.FemSystem(mesh)
    g = singular.singular_boundary_values(DOM, mesh, data)
    y = fem.solve_dirichlet(sysm, g)
    rem = y.values - singular.wedge_lift(DOM, mesh, data)
    rep = singular.verify_singular_expansion(DOM, mesh, rem, data)
    assert rep.slope > 1.0 / 3.0
    assert rep.boundary_residual < 1e-12
    pos, _ = _near_corner(mesh, DOM.corners[J].radius)
    assert rep.boundary_residual == np.abs(rem[pos]).max()


# ---------------------------------------------------------------- rates

def test_rate_exact_geometric_sequence():
    est = singular.rate_estimate([1e-1, 2.5e-2, 6.25e-3])
    assert est.order == pytest.approx(2.0)
    assert est.monotone


def test_rate_constant_errors_warn():
    est = singular.rate_estimate([0.5, 0.5, 0.5])
    assert est.order == pytest.approx(0.0)
    assert not est.monotone


def test_rate_nonmonotone_flagged():
    est = singular.rate_estimate([1e-1, 2e-1, 1e-2])
    assert not est.monotone


def test_rate_with_explicit_h():
    est = singular.rate_estimate([9e-2, 1e-2], hs=[3e-1, 1e-1])
    assert est.order == pytest.approx(2.0)


def test_rate_input_validation():
    with pytest.raises(singular.AnalysisError):
        singular.rate_estimate([1e-1])
    with pytest.raises(singular.AnalysisError):
        singular.rate_estimate([1e-1, -1e-2])
