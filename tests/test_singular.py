"""Coefficient extraction, H-set classification, flatness and structure
diagnostics, singular-data expansion checks, rate estimation."""
import functools
import math

import numpy as np
import pytest

from dclab import control, fem, meshing, singular
from dclab import geometry as geo
from dclab.geometry import L_SHAPE_REENTRANT_CORNER as J

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
    fit = singular.extract_coefficients(DOM, mesh, sol.phi.values, J,
                                        modes=(1, 2))
    return mesh, sol, fit


@functools.lru_cache(maxsize=None)
def constrained_solution():
    mesh = lshape_mesh(32, mu=0.5)
    prob = control.ControlProblem(fem.FemSystem(mesh), 0.2,
                                  control.ConstantTarget(1.0),
                                  lower=-1.0, upper=1.0)
    sol = control.solve_constrained(prob)
    fit = singular.extract_coefficients(DOM, mesh, sol.phi.values, J,
                                        modes=(1, 2))
    return mesh, sol, fit


# ---------------------------------------------------------------- extraction

def test_synthesized_field_recovered_exactly():
    # the annulus basis contains the synthesized modes, so the fit is
    # exact up to least-squares roundoff
    mesh = lshape_mesh(64)
    field = singular.synthesize_modes(DOM, mesh, J, {1: 1.0, 2: -0.5})
    fit = singular.extract_coefficients(DOM, mesh, field, J, modes=(1, 2))
    assert abs(fit.coefficients[1] - 1.0) < 1e-8
    assert abs(fit.coefficients[2] + 0.5) < 1e-8
    assert fit.residual < 1e-8
    assert fit.n_nodes >= 30
    assert fit.warning is None


def test_annulus_widens_on_sparse_mesh():
    mesh = lshape_mesh(32)
    field = singular.synthesize_modes(DOM, mesh, J, {1: 1.0, 2: -0.5})
    fit = singular.extract_coefficients(DOM, mesh, field, J, modes=(1, 2))
    R = DOM.corners[J].radius
    assert fit.annulus[1] > 0.5 * R  # default upper bound was widened
    assert fit.n_nodes >= 30
    assert abs(fit.coefficients[1] - 1.0) < 1e-8


def test_extraction_needs_enough_nodes():
    mesh = meshing.triangulate(DOM, 1.0 / 16.0)
    with pytest.raises(singular.AnalysisError, match="nodes"):
        singular.extract_coefficients(DOM, mesh, np.zeros(mesh.n_nodes), J)


def test_bad_annulus_rejected():
    mesh = lshape_mesh(64)
    z = np.zeros(mesh.n_nodes)
    with pytest.raises(singular.AnalysisError):
        singular.extract_coefficients(DOM, mesh, z, J, annulus=(0.06, 0.03))
    with pytest.raises(singular.AnalysisError):
        singular.extract_coefficients(DOM, mesh, z, J, annulus=(0.0, 0.06))


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
        xi1 = geo.cutoff(DOM, J, r[band], deriv=1)
        xi2 = geo.cutoff(DOM, J, r[band], deriv=2)
        for m, cm in coeffs.items():
            k = m * lam
            out[band] += -cm * np.sin(k * theta[band]) * r[band] ** (k - 1) * (
                (2 * k + 1) * xi1 + r[band] * xi2)
        return out

    load = fem.assemble_load(mesh, source, order=5)
    y = fem.solve_dirichlet(sysm, np.zeros(sysm.trace.n), load=load)
    fit = singular.extract_coefficients(DOM, mesh, y.values, J, modes=(1, 2))
    assert abs(fit.coefficients[1] - 1.0) < 2e-2
    assert abs(fit.coefficients[2] + 0.5) < 2e-2


def test_smooth_field_gives_tiny_coefficients():
    mesh = lshape_mesh(64)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    fit = singular.extract_coefficients(DOM, mesh, x * y * (x + 1) * (y + 1),
                                        J, modes=(1, 2))
    assert abs(fit.coefficients[1]) < 1e-4
    assert abs(fit.coefficients[2]) < 1e-4


def test_degenerate_third_mode_dropped():
    # at lam = 2/3 the m=3 mode r^2 sin(2 theta) coincides with the
    # smooth background term x*y, so the guard must drop it
    mesh = lshape_mesh(64)
    field = singular.synthesize_modes(DOM, mesh, J, {1: 1.0, 2: -0.5})
    fit = singular.extract_coefficients(DOM, mesh, field, J, modes=(1, 2, 3))
    assert fit.dropped_modes == (3,)
    assert fit.warning is not None
    assert math.isnan(fit.coefficients[3])
    assert abs(fit.coefficients[1] - 1.0) < 1e-8
    assert abs(fit.coefficients[2] + 0.5) < 1e-8


# ---------------------------------------------------------------- H sets

def _fake_history(values):
    levels = []
    for v in values:
        fit = singular.CoefficientFit(
            corner=J, coefficients={1: v, 2: -0.5}, background=np.zeros(3),
            annulus=(0.03, 0.06), n_nodes=40, residual=1e-3, condition=3.0)
        levels.append({J: fit})
    return levels


def test_classify_decaying_c1():
    rep = singular.classify_H_sets(DOM, 4.0, _fake_history([0.1, 0.05, 0.02]))
    assert rep.h2 == {J}
    assert rep.h1 == set()  # re-entrant corner has lam < 1
    assert not rep.undetermined


def test_classify_stable_c1():
    rep = singular.classify_H_sets(DOM, 4.0, _fake_history([0.8, 0.82, 0.81]))
    assert rep.h2 == set()
    assert not rep.undetermined


def test_classify_ambiguous_is_undetermined():
    rep = singular.classify_H_sets(DOM, 4.0, _fake_history([0.1, 0.08, 0.052]))
    assert rep.h2 == set()
    assert (2, J) in rep.undetermined


def test_classify_exact_zero():
    rep = singular.classify_H_sets(DOM, 4.0, _fake_history([0.0, 0.0, 0.0]))
    assert rep.h2 == {J}


def test_classify_single_level_is_undetermined():
    rep = singular.classify_H_sets(DOM, 4.0, _fake_history([0.1]))
    assert rep.h2 == set()
    assert (2, J) in rep.undetermined


def test_h1_rule_is_exact():
    # sector arc junctions are convex with lam slightly above 1, so they
    # land in H1 without any extraction; the re-entrant corner never does
    dom = geo.build_domain("sector(3pi/2, 64)")
    rep = singular.classify_H_sets(dom, 4.0, [])
    j1 = geo.singular_sets(dom, 4.0, 1)
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
    assert rep.flat_value == 1.0
    assert 0.01 < rep.radius < 0.08
    assert rep.consistent and not rep.contradiction
    assert set(rep.per_side) == {J, J - 1}
    assert all(b == "b" for b, _ in rep.per_side.values())


def test_flatness_rejects_convex_corner_with_zero_admissible():
    mesh = meshing.structured_mesh(geo.unit_square(), 0.25)
    u = np.zeros(meshing.boundary_trace_space(mesh).n)
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
     {0: ("a", 0.078125), 3: (None, 0.0)}),
], ids=["all-lower", "lower-to-0.04", "lower-to-0.07-and-0.04",
        "lower-and-upper", "lower-on-one-side"])
def test_flatness_convex_corner_allowed_without_zero(marks, verdict, radius,
                                                     per_side):
    # bounds [1, 2]: the control is flat near convex corners too; on the
    # h = 1/32 lattice the side nodes sit at r = k/32, and a flat radius is
    # the midpoint between the last node at the bound and the next one
    dom = geo.unit_square()
    mesh = meshing.structured_mesh(dom, 1.0 / 32.0)
    tr = meshing.boundary_trace_space(mesh)
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
    u = np.full(meshing.boundary_trace_space(mesh).n, 0.25)
    rep = singular.flatness_diagnostic(DOM, mesh, u, -1.0, 1.0, J, c1=0.4)
    assert rep.verdict == "not-flat"
    assert rep.radius == 0.0
    assert rep.predicted_bound == "a"
    assert rep.contradiction


def test_flatness_one_sided():
    mesh, _, _ = constrained_solution()
    tr = meshing.boundary_trace_space(mesh)
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

def test_structure_fit_unconstrained_blowup_removed():
    reports = []
    for hinv in (32, 64):
        mesh, sol, fit = unconstrained_solution(hinv)
        terms = singular.predicted_control_terms(
            DOM, J, fit.coefficients, 0.2, -geo.UNBOUNDED, geo.UNBOUNDED)
        # the leading boundary coefficient is -lam*c1/nu, recomputable
        lam = DOM.corners[J].lam
        assert terms[1] == pytest.approx(-lam * fit.coefficients[1] / 0.2)
        rep = singular.structural_fit_control(DOM, mesh, sol.u, J, terms)
        reports.append(rep)
        assert rep.raw_blows_up
        assert rep.slope_raw < -0.2
        assert rep.removed_fraction > 0.8
        assert rep.remainder_subdominant
    ratios, decayed = singular.structure_refinement_trend(*reports)
    assert decayed


def test_structure_fit_flat_control_is_regular():
    mesh, sol, _ = constrained_solution()
    rep = singular.structural_fit_control(DOM, mesh, sol.u, J, {})
    assert not rep.raw_blows_up
    assert rep.removed_fraction == 0.0


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
    fit = singular.extract_coefficients(dom, mesh, sol.phi.values, 0,
                                        modes=(1, 2))
    terms = singular.predicted_control_terms(dom, 0, fit.coefficients,
                                             1.0, -1.0, 1.0)
    pred = singular.control_singular_profile(dom, mesh, 0, terms)
    alpha = 2.0 * dom.corners[0].lam - 1.0
    q_raw = singular.holder_quotient(dom, mesh, sol.u, 0, alpha)
    q_rem = singular.holder_quotient(dom, mesh, sol.u - pred, 0, alpha)
    assert q_rem < 0.5 * q_raw


def test_holder_quotient_of_constant_is_zero():
    mesh, _, _ = constrained_solution()
    tr = meshing.boundary_trace_space(mesh)
    assert singular.holder_quotient(DOM, mesh, np.ones(tr.n), J, 0.5) == 0.0


# ------------------------------------------------------ singular boundary data

def test_wedge_lift_trace_matches_datum():
    data = geo.SingularBoundaryData(corner=J, n=2, eta=1.0 / 3.0)
    mesh = lshape_mesh(32, mu=0.5)
    g = singular.singular_boundary_values(DOM, mesh, data)
    lift = singular.wedge_lift(DOM, mesh, data)
    tr = meshing.boundary_trace_space(mesh)
    assert np.abs(lift[tr.node_ids] - g).max() < 1e-12


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
    rep = singular.verify_singular_expansion(dom, mesh, y.values, data)
    assert rep.slope > 1.5  # remainder decays faster than r^eta
    assert rep.boundary_residual < 1e-12
    assert rep.endpoint_value == pytest.approx(1.0)


def test_expansion_lshape_corner_parity2():
    data = geo.SingularBoundaryData(corner=J, n=2, eta=1.0 / 3.0)
    mesh = lshape_mesh(32, mu=0.5)
    sysm = fem.FemSystem(mesh)
    g = singular.singular_boundary_values(DOM, mesh, data)
    y = fem.solve_dirichlet(sysm, g)
    rep = singular.verify_singular_expansion(DOM, mesh, y.values, data)
    assert rep.slope > 1.0 / 3.0
    assert rep.boundary_residual < 1e-12
    assert rep.endpoint_value == pytest.approx(-1.0)  # sign flip on the far side
    assert rep.mode_fit is not None


def test_zero_datum_gives_zero_state():
    data = geo.SingularBoundaryData(corner=J, n=1, eta=1.5, amplitude=0.0)
    mesh = lshape_mesh(32, mu=0.5)
    sysm = fem.FemSystem(mesh)
    g = singular.singular_boundary_values(DOM, mesh, data)
    y = fem.solve_dirichlet(sysm, g)
    assert np.abs(y.values).max() < 1e-14
    fit = singular.extract_coefficients(DOM, mesh, y.values, J, modes=(1, 2))
    assert abs(fit.coefficients[1]) < 1e-14
    assert abs(fit.coefficients[2]) < 1e-14


# ---------------------------------------------------------------- rates

def test_rate_exact_geometric_sequence():
    est = singular.rate_estimate([1e-1, 2.5e-2, 6.25e-3])
    assert est.order == pytest.approx(2.0)
    assert est.monotone
    assert est.warning is None


def test_rate_constant_errors_warn():
    est = singular.rate_estimate([0.5, 0.5, 0.5])
    assert est.order == pytest.approx(0.0)
    assert not est.monotone
    assert est.warning is not None


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
