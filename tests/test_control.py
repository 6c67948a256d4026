"""Boundary-control solver: objective, gradient, PDAS, optimality."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from dclab.geometry import UNBOUNDED, l_shape, unit_square
from dclab.meshing import structured_mesh, triangulate
from dclab.fem import FemSystem, check_max_principle
from dclab import control
from dclab.control import (
    CG_RTOL,
    CG_RTOL_SETS,
    CallableTarget,
    ConstantTarget,
    ControlError,
    ControlProblem,
    KKT_TOL,
    solve_constrained,
    solve_unconstrained,
    _pcg,
    _target_data,
)
from dclab.fem import DiscontinuityLine, assemble_load


@pytest.fixture(scope="module")
def square_system():
    return FemSystem(structured_mesh(unit_square(), 1.0 / 16.0))


@pytest.fixture(scope="module")
def wavy_problem(square_system):
    target = CallableTarget(lambda x, y: np.exp(x) * np.sin(2.0 * y))
    return ControlProblem(square_system, nu=0.1, target=target)


# ---------------------------------------------------------------------
# objective and gradient

def test_objective_trivial_values(square_system):
    nb = square_system.trace.n
    p = ControlProblem(square_system, nu=0.5, target=ConstantTarget(0.0))
    assert p.objective(np.zeros(nb)) == 0.0
    # u = 1 gives the harmonic state y = 1: J = 1/2 |Omega| + nu/2 |Gamma|
    assert p.objective(np.ones(nb)) == pytest.approx(0.5 + 0.25 * 4.0, rel=1e-12)


def test_objective_constant_target(square_system):
    nb = square_system.trace.n
    p = ControlProblem(square_system, nu=1.0, target=ConstantTarget(2.0))
    # u = 0: y = 0, J = 1/2 * 4 * |Omega|
    assert p.objective(np.zeros(nb)) == pytest.approx(2.0, rel=1e-12)
    # u = 2: y = 2 matches the target exactly, only the penalty remains
    assert p.objective(2.0 * np.ones(nb)) == pytest.approx(0.5 * 4.0 * 4.0, rel=1e-12)


def test_gradient_matches_central_differences(wavy_problem):
    # J is quadratic, so central differences are exact up to roundoff
    p = wavy_problem
    nb = p.system.trace.n
    rng = np.random.default_rng(7)
    u = rng.normal(size=nb)
    g, _, _, _ = p.gradient(u)
    eps = 1e-5
    for i in rng.choice(nb, 10, replace=False):
        up, um = u.copy(), u.copy()
        up[i] += eps
        um[i] -= eps
        fd = (p.objective(up) - p.objective(um)) / (2.0 * eps)
        assert abs(fd - g[i]) < 1e-9


def test_hessian_apply_consistent_with_gradient(wavy_problem):
    # grad J(u) - grad J(0) = H u for a quadratic
    p = wavy_problem
    nb = p.system.trace.n
    rng = np.random.default_rng(3)
    u = rng.normal(size=nb)
    g_u, _, _, _ = p.gradient(u)
    g_0, _, _, _ = p.gradient(np.zeros(nb))
    hu = p.hessian_apply(u)
    assert np.abs(g_u - g_0 - hu).max() < 1e-12 * np.abs(g_u).max()


@pytest.mark.parametrize("fn", [
    lambda x, y: np.where(y > 0.3 + 0.2 * x, 1.5, -1.5),
    lambda x, y: 0.7,
])
def test_callable_target_data_in_one_pass(square_system, fn):
    # one quadrature pass gives the two-call load bit for bit, and the
    # constant 1/2 int y_d^2 to round-off
    target = CallableTarget(fn, DiscontinuityLine((0.0, 0.3), (-0.2, 1.0)))
    t, const = _target_data(square_system, target)
    mesh = square_system.mesh
    kw = dict(discontinuity=target.discontinuity)
    t2 = assemble_load(mesh, fn, **kw)
    sq = assemble_load(mesh, lambda x, y: np.asarray(fn(x, y)) ** 2, **kw)
    assert np.array_equal(t, t2)
    assert const == pytest.approx(0.5 * sq.sum(), rel=1e-14)


def test_problem_validation(square_system):
    with pytest.raises(ControlError):
        ControlProblem(square_system, nu=0.0, target=ConstantTarget(0.0))
    with pytest.raises(ControlError):
        ControlProblem(square_system, nu=1.0, target=ConstantTarget(0.0),
                       lower=1.0, upper=-1.0)
    with pytest.raises(ControlError):
        ControlProblem(square_system, nu=1.0, target="flat")


# ---------------------------------------------------------------------
# unconstrained solves

def test_unconstrained_nodewise_optimality(wavy_problem):
    sol = solve_unconstrained(wavy_problem)
    assert sol.converged
    # the discrete optimality system closes exactly: u = d/nu nodewise
    assert np.abs(sol.u - sol.flux / wavy_problem.nu).max() < KKT_TOL
    assert sol.kkt.satisfied


def test_unconstrained_converged_only_when_kkt_holds(monkeypatch):
    # the nodewise residual is round-off of the control's size (4.7e-14 at
    # a target of 1, 4.7e-8 at 1e6), and the tolerance scales with the
    # target over nu: every target converges, and a problem of scale 1
    # keeps the bound KKT_TOL itself
    system = FemSystem(structured_mesh(unit_square(), 0.125))
    for value in (1.0, 1e2, 1e4, 1e6):
        p = ControlProblem(system, nu=1.0, target=ConstantTarget(value))
        assert p.scale == value
        sol = solve_unconstrained(p)
        assert sol.kkt.tol == KKT_TOL * value
        assert 1e-15 * value < sol.kkt.stationarity_max < sol.kkt.tol
        assert sol.converged
    # a CG stopped early leaves a residual above the tolerance, and the
    # exact step after it corrects nothing: the loop stops there, at the
    # second iteration, rather than repeat it up to MAX_ITER
    monkeypatch.setattr(control, "CG_RTOL", 1e-3)
    for value in (1.0, 1e6):
        p = ControlProblem(system, nu=1.0, target=ConstantTarget(value))
        sol = solve_unconstrained(p)
        assert sol.kkt.stationarity_max > sol.kkt.tol
        assert sol.converged is False
        assert sol.iterations == len(sol.history) == 2


def test_bound_free_solve_is_one_exact_cg_solve(monkeypatch):
    # with no finite bound the loop's sets stay empty: one iteration of
    # one CG solve at CG_RTOL, paid with the fresh fields at the start and
    # at the returned control (43 = 3 + 2 x 20 LU solves here; the state
    # of u0 = 0 needs no solve), and both entry points give the same bits
    system = FemSystem(structured_mesh(l_shape(), 1.0 / 16.0))
    target = CallableTarget(lambda x, y: np.exp(x) * np.sin(2.0 * y))
    solves, applies = [], []
    solve = system.solve_interior
    monkeypatch.setattr(system, "solve_interior",
                        lambda rhs: solves.append(rhs.any()) or solve(rhs))
    rtols = _record_cg_rtols(monkeypatch)
    sols = []
    for entry, lo, hi in ((solve_unconstrained, -UNBOUNDED, UNBOUNDED),
                          (solve_constrained, -np.inf, np.inf)):
        p = ControlProblem(system, nu=0.1, target=target, lower=lo, upper=hi)
        hess = p.hessian_apply
        monkeypatch.setattr(p, "hessian_apply",
                            lambda v: applies.append(1) or hess(v))
        solves.clear()
        applies.clear()
        rtols.clear()
        sol = entry(p)
        assert sol.converged and sol.iterations == 1 and rtols == [CG_RTOL]
        assert sum(solves) == 3 + 2 * len(applies)
        sols.append(sol)
    assert np.array_equal(sols[0].u, sols[1].u)
    assert np.array_equal(sols[0].phi.values, sols[1].phi.values)


def test_wide_bounds_match_unconstrained(square_system):
    target = CallableTarget(lambda x, y: np.exp(x) * np.sin(2.0 * y))
    free = solve_unconstrained(
        ControlProblem(square_system, nu=0.1, target=target))
    wide = solve_constrained(
        ControlProblem(square_system, nu=0.1, target=target,
                       lower=-1e6, upper=1e6))
    assert np.abs(free.u - wide.u).max() < 1e-8
    assert not np.any(np.abs(wide.u) == 1e6)


# ---------------------------------------------------------------------
# constrained solves

@pytest.fixture(scope="module")
def boxed_problem(square_system):
    target = CallableTarget(lambda x, y: np.exp(x) * np.sin(2.0 * y))
    return ControlProblem(square_system, nu=0.08, target=target,
                          lower=-0.2, upper=0.25)


def test_pdas_converges_fast(boxed_problem):
    sol = solve_constrained(boxed_problem)
    assert sol.converged and sol.method == "pdas"
    assert sol.iterations <= 30
    assert sol.kkt.satisfied
    # constraints genuinely bite here
    assert np.any(sol.u == boxed_problem.upper)


def test_pdas_independent_of_start(boxed_problem):
    rng = np.random.default_rng(11)
    s1 = solve_constrained(boxed_problem)
    s2 = solve_constrained(boxed_problem,
                           u0=rng.normal(size=boxed_problem.system.trace.n))
    assert np.abs(s1.u - s2.u).max() < 1e-8


def test_constrained_solution_is_projection_of_flux(boxed_problem):
    sol = solve_constrained(boxed_problem)
    proj = np.clip(sol.flux / boxed_problem.nu,
                   boxed_problem.lower, boxed_problem.upper)
    assert np.abs(sol.u - proj).max() < KKT_TOL
    assert np.all(sol.u >= boxed_problem.lower - 1e-14)
    assert np.all(sol.u <= boxed_problem.upper + 1e-14)


def test_active_bounds_have_correct_multiplier_sign(boxed_problem):
    sol = solve_constrained(boxed_problem)
    cand = sol.flux / boxed_problem.nu
    act = sol.u == boxed_problem.upper
    assert np.all(cand[act] >= boxed_problem.upper[act] - 1e-10)
    inact = (sol.u != boxed_problem.lower) & ~act
    assert np.abs(sol.u[inact] - cand[inact]).max() < KKT_TOL


def test_active_nodes_sit_exactly_on_their_bound(boxed_problem):
    # pinning and clipping put each active node on its bound, with no
    # tolerance: a node is active exactly where u equals a finite bound
    p = boxed_problem
    one_sided = ControlProblem(p.system, nu=p.nu, target=p.target,
                               upper=p.upper)
    for q in (p, one_sided):
        sol = solve_constrained(q)
        on_a, on_b = sol.u == q.lower, sol.u == q.upper
        assert on_b.any()
        # every node the projection moves sits on the bound it moves to
        cand = sol.flux / q.nu
        assert on_a[cand < q.lower - KKT_TOL].all()
        assert on_b[cand > q.upper + KKT_TOL].all()


def test_converged_is_the_kkt_verdict(boxed_problem, wavy_problem,
                                     monkeypatch):
    sols = [solve_constrained(boxed_problem),
            solve_unconstrained(wavy_problem)]
    # one iteration does not solve the boxed problem
    monkeypatch.setattr(control, "MAX_ITER", 1)
    sols.append(solve_constrained(boxed_problem))
    assert [s.method for s in sols] == ["pdas"] * 3
    assert [s.converged for s in sols] == [True, True, False]
    assert all(s.converged == s.kkt.satisfied for s in sols)


def test_cg_makes_no_discarded_hessian_applies(boxed_problem, monkeypatch):
    # from the zero correction CG applies the Hessian once per iteration
    # and not for the initial residual: scipy's cg from zero, on the same
    # block, preconditioner and stopping residual, counts the iterations
    p = boxed_problem
    nb = p.system.trace.n
    g0, _, _, _ = p.gradient(np.zeros(nb))
    idx = np.flatnonzero(np.arange(nb) % 3 != 0)
    rhs, scale = -g0[idx], float(np.linalg.norm(g0))

    def block(v):
        full = np.zeros(nb)
        full[idx] = v
        return p.hessian_apply(full)[idx]
    n = len(idx)
    iterations = []
    ref, info = spla.cg(
        spla.LinearOperator((n, n), matvec=block, dtype=float), rhs,
        rtol=0.0, atol=CG_RTOL * scale,
        M=spla.LinearOperator((n, n), dtype=float,
                              matvec=lambda v: v / (p.nu * p.lumped[idx])),
        callback=lambda xk: iterations.append(1))
    assert info == 0 and iterations
    applies = []
    hess = p.hessian_apply
    monkeypatch.setattr(p, "hessian_apply",
                        lambda v: applies.append(1) or hess(v))
    x, _ = _pcg(p, idx, rhs, rtol=CG_RTOL, scale=scale)
    assert len(applies) == len(iterations)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    # a right-hand side already inside the tolerance costs no apply
    applies.clear()
    x, hx = _pcg(p, idx, rhs, rtol=CG_RTOL, scale=2.0 * scale / CG_RTOL)
    assert not applies and not x.any() and not hx.any()


def test_cg_carries_the_hessian_image(boxed_problem):
    # the image H x that CG sums from its applies is the Hessian apply of
    # the returned correction, zero off the block included
    p = boxed_problem
    nb = p.system.trace.n
    g0, _, _, _ = p.gradient(np.zeros(nb))
    idx = np.flatnonzero(np.arange(nb) % 3 != 0)
    for rtol in (CG_RTOL_SETS, CG_RTOL):
        x, hx = _pcg(p, idx, -g0[idx], rtol=rtol,
                     scale=float(np.linalg.norm(g0)))
        full = np.zeros(nb)
        full[idx] = x
        want = p.hessian_apply(full)
        assert np.abs(hx - want).max() <= 1e-12 * np.abs(want).max()


def _assert_fields_fresh(p, sol):
    """The returned fields are solved at the returned control, bit for bit."""
    y = p.state(sol.u)
    phi, d = p.adjoint(y)
    assert np.array_equal(sol.y.values, y.values)
    assert np.array_equal(sol.phi.values, phi.values)
    assert np.array_equal(sol.flux, d)
    assert sol.kkt == p.kkt_residual(sol.u, sol.flux)


def test_converged_pdas_fields_match_fresh_solves(boxed_problem, monkeypatch):
    # every exit returns fields solved at the returned control
    p = boxed_problem
    controls = []
    state = p.state
    monkeypatch.setattr(p, "state", lambda u: controls.append(u.copy())
                        or state(u))
    sol = solve_constrained(p)
    assert sol.converged and sol.method == "pdas"
    # the last PDAS iterate's fields are reused, not solved for again
    assert not np.array_equal(controls[-1], controls[-2])
    _assert_fields_fresh(p, sol)
    monkeypatch.undo()
    # the iteration cap: the last step is a CG correction, so the fields
    # are stale and the return solves them at the returned control
    p = _budget_problem("l-shape")
    state = p.state
    monkeypatch.setattr(p, "state", lambda u: controls.append(u.copy())
                        or state(u))
    for cap in (1, 3):
        monkeypatch.setattr(control, "MAX_ITER", cap)
        sol = solve_constrained(p)
        assert not sol.converged and sol.iterations == cap
        assert np.array_equal(controls[-1], sol.u)
        _assert_fields_fresh(p, sol)
    monkeypatch.undo()
    # the stall exit: an exact step that corrects nothing
    monkeypatch.setattr(control, "CG_RTOL", 1e-3)
    q = ControlProblem(FemSystem(structured_mesh(unit_square(), 0.125)),
                       nu=1.0, target=ConstantTarget(1e6))
    sol = solve_constrained(q)
    assert not sol.converged and sol.iterations == 2
    _assert_fields_fresh(q, sol)


def _fresh_objectives(p, monkeypatch):
    """J at every fresh point of a solve of p, in order, with None where a
    projected-Newton step starts: the point before it is a rejected pin."""
    log = []
    gradient, newton = p.gradient, control._projected_newton

    def logged(u, y=None):
        fields = gradient(u, y)
        log.append(p.objective(u, fields[1]))
        return fields
    monkeypatch.setattr(p, "gradient", logged)
    monkeypatch.setattr(control, "_projected_newton",
                        lambda *a: log.append(None) or newton(*a))
    return log


def _kept(log):
    return [J for J, nxt in zip(log, log[1:] + [0.0])
            if J is not None and nxt is not None]


#: two problems on which the PDAS sets cycle and projected gradient with
#: Armijo backtracking is still short of the KKT tolerance after 20,000
#: PDE solves: (domain, h, nu, lower, upper, A, B, C), with the target
#: A sin(1 + B x) + C y^2
BUDGET_PROBLEMS = {
    "square": (unit_square, 1 / 16, 0.00936, -1.423, 0.783, 0.251, -1.671,
               0.283),
    "l-shape": (l_shape, 1 / 16, 0.0018, 0.543, 1.150, 0.521, -1.537, 0.609),
}


def _budget_problem(label):
    domain, h, nu, lo, hi, a, b, c = BUDGET_PROBLEMS[label]
    return ControlProblem(
        FemSystem(structured_mesh(domain(), h)), nu,
        CallableTarget(lambda x, y: a * np.sin(1.0 + b * x) + c * y * y),
        lower=lo, upper=hi)


def _flipping_problem():
    # PDAS alone flips between all 32 trace nodes at the lower bound and
    # all at the upper one here
    return ControlProblem(FemSystem(structured_mesh(unit_square(), 1 / 8)),
                          nu=0.01, target=ConstantTarget(0.5),
                          lower=-1.0, upper=1.0)


@pytest.mark.parametrize("label", ["boxed", "flipping", "square", "l-shape"])
def test_objective_never_rises_between_kept_iterates(boxed_problem, label,
                                                     monkeypatch):
    p = {"boxed": boxed_problem, "flipping": _flipping_problem()}.get(label)
    p = p or _budget_problem(label)
    log = _fresh_objectives(p, monkeypatch)
    sol = solve_constrained(p)
    assert sol.converged
    kept = _kept(log)
    assert all(b <= a + 1e-14 * abs(a) for a, b in zip(kept, kept[1:]))
    assert sol.objective <= kept[0]
    # every step fills the objective column, and its closed-form
    # changes end at the objective of the returned fields
    Js = [h["objective"] for h in sol.history]
    assert len(Js) == sol.iterations
    assert abs(Js[-1] - sol.objective) <= 1e-12 * abs(sol.objective)
    assert (None in log) == (label != "boxed")


def test_pins_that_raise_j_take_projected_newton_steps():
    # the flipping sets' first pin raises J; the projected-Newton step
    # from the start point solves the problem (no node is active at the
    # solution)
    p = _flipping_problem()
    sol = solve_constrained(p)
    assert sol.converged and sol.kkt.satisfied
    # a pair repeats only in a row, where the settled sets are solved
    # again exactly
    sets = [(h["active_lower"], h["active_upper"]) for h in sol.history]
    runs = [s for s, prev in zip(sets, [None] + sets) if s != prev]
    assert len(set(runs)) == len(runs)
    assert not np.any((sol.u == p.lower) | (sol.u == p.upper))


def test_projected_newton_step_keeps_its_state(monkeypatch):
    # the Armijo test solves the accepted trial's state S x, and the loop
    # carries y + S x on: only the adjoint is solved at the new point (38
    # LU solves on the flipping problem, 39 with that state solved again)
    p = _flipping_problem()
    solves, steps = [], []
    solve = p.system.solve_interior
    monkeypatch.setattr(p.system, "solve_interior",
                        lambda rhs: solves.append(1) or solve(rhs))
    newton = control._projected_newton
    monkeypatch.setattr(control, "_projected_newton",
                        lambda *a: steps.append(newton(*a)) or steps[-1])
    sol = solve_constrained(p)
    assert sol.converged and steps and None not in steps
    assert len(solves) <= 38
    monkeypatch.undo()
    for u, y, _ in steps:
        fresh = p.state(u).values
        assert np.abs(y.values - fresh).max() <= 1e-13 * np.abs(fresh).max()


@pytest.mark.parametrize("label", sorted(BUDGET_PROBLEMS))
def test_problems_where_projected_gradient_stalls_converge(label,
                                                          monkeypatch):
    p = _budget_problem(label)
    solves = []
    solve = p.system.solve_interior
    monkeypatch.setattr(p.system, "solve_interior",
                        lambda rhs: solves.append(1) or solve(rhs))
    sol = solve_constrained(p)
    assert sol.converged and sol.kkt.satisfied
    assert len(solves) <= {"square": 80, "l-shape": 170}[label]


def test_iteration_cap_bounds_the_work(monkeypatch):
    # a capped solve reports converged=False, and takes at most
    # 4 + MAX_ITER (5 + 2 _HALVINGS) LU solves besides two per Hessian apply
    p = _budget_problem("l-shape")
    solves, applies = [], []
    solve, hess = p.system.solve_interior, p.hessian_apply
    monkeypatch.setattr(p.system, "solve_interior",
                        lambda rhs: solves.append(1) or solve(rhs))
    monkeypatch.setattr(p, "hessian_apply",
                        lambda v: applies.append(1) or hess(v))
    for cap in (1, 3):
        monkeypatch.setattr(control, "MAX_ITER", cap)
        solves.clear()
        applies.clear()
        sol = solve_constrained(p)
        assert not sol.converged and sol.iterations == cap
        assert len(solves) <= 4 + cap * (5 + 2 * control._HALVINGS) \
            + 2 * len(applies)


@pytest.mark.parametrize("nu", [0.08, 0.3, 1.0, 3.0])
def test_constrained_converges_for_every_nu(square_system, nu):
    # from u = 0 and from the upper bound the solve reaches the same
    # control within the KKT tolerance
    target = CallableTarget(lambda x, y: np.exp(x) * np.sin(2.0 * y))
    p = ControlProblem(square_system, nu=nu, target=target,
                       lower=-0.2, upper=0.25)
    sol = solve_constrained(p)
    assert sol.converged and sol.kkt.satisfied
    other = solve_constrained(p, u0=p.upper)
    assert other.converged
    assert np.abs(sol.u - other.u).max() < 1e-9


def test_random_problems_all_converge():
    # 400 problems, seeded: nu log-uniform in [1e-4, 10] (PDAS alone
    # cycles on a third of them), bounds two uniform draws in [-1.5, 1.5],
    # targets A sin(B x + 1) + C y^2 with A, B, C uniform in [-2, 2], on
    # the structured unit square and L-shape at h = 1/8 and 1/16 (81-833
    # nodes); ~2 s
    systems = [FemSystem(structured_mesh(domain(), h))
               for domain in (unit_square, l_shape) for h in (1 / 8, 1 / 16)]
    rng = np.random.default_rng(0)
    for k in range(400):
        nu = 10.0 ** rng.uniform(-4.0, 1.0)
        lo, hi = np.sort(rng.uniform(-1.5, 1.5, 2))
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        p = ControlProblem(systems[k % 4], nu, CallableTarget(
            lambda x, y: a * np.sin(b * x + 1.0) + c * y * y),
            lower=lo, upper=hi)
        sol = solve_constrained(p)
        assert sol.converged, (k, nu, lo, hi, a, b, c)
        assert sol.iterations <= 20


def test_scale_of_a_problem():
    # a problem of scale 1 keeps the bound KKT_TOL; the target's rms over
    # nu and the box's distance from 0 raise it
    system = FemSystem(structured_mesh(unit_square(), 0.25))
    for nu, value, lo, hi, scale in [(1.0, 1.0, -1.0, 1.0, 1.0),
                                     (2.0, 0.5, -1.0, 1.0, 1.0),
                                     (0.2, 1.0, -1.0, 1.0, 5.0),
                                     (1.0, 0.0, 3.0, 4.0, 3.0),
                                     (1.0, -2.0, -np.inf, -5.0, 5.0)]:
        p = ControlProblem(system, nu, ConstantTarget(value), lower=lo,
                           upper=hi)
        assert p.scale == pytest.approx(scale, rel=1e-15)
        assert p.kkt_residual(np.zeros(system.trace.n),
                              np.zeros(system.trace.n)).tol \
            == pytest.approx(KKT_TOL * scale, rel=1e-15)


def test_large_data_with_wide_bounds_converges():
    # a target of 1e6 under bounds of 1e9: the residual is round-off of a
    # control of size 2.7e5, inside the tolerance of the problem's scale
    p = ControlProblem(FemSystem(triangulate(unit_square(), 0.125)),
                       nu=1.0, target=ConstantTarget(1e6), lower=-1e9,
                       upper=1e9)
    sol = solve_constrained(p)
    assert sol.converged and sol.kkt.stationarity_max > KKT_TOL


def _record_cg_rtols(monkeypatch):
    rtols = []
    cg = control._pcg
    monkeypatch.setattr(control, "_pcg", lambda *a, **kw:
                        rtols.append(kw["rtol"]) or cg(*a, **kw))
    return rtols


def test_pdas_steps_are_inexact_until_the_sets_settle(boxed_problem,
                                                      monkeypatch):
    rtols = _record_cg_rtols(monkeypatch)
    sol = solve_constrained(boxed_problem)
    assert sol.converged and sol.method == "pdas" and sol.kkt.satisfied
    assert rtols[0] == CG_RTOL_SETS
    assert rtols[-1] == CG_RTOL
    # once exact, every later step stays exact
    k = rtols.index(CG_RTOL)
    assert set(rtols[:k]) == {CG_RTOL_SETS} and set(rtols[k:]) == {CG_RTOL}


def test_all_active_sets_need_no_exact_step(square_system, monkeypatch):
    # a negative target under the bound 0 makes every node active at the
    # start point already: the seeded sets need no CG and one iteration
    p = ControlProblem(square_system, nu=0.2, target=ConstantTarget(-1.0),
                       lower=0.0)
    rtols = _record_cg_rtols(monkeypatch)
    applies = []
    hess = p.hessian_apply
    monkeypatch.setattr(p, "hessian_apply",
                        lambda v: applies.append(1) or hess(v))
    sol = solve_constrained(p)
    assert sol.converged and sol.method == "pdas" and sol.kkt.satisfied
    assert np.array_equal(sol.u, p.lower)
    # CG is handed the empty inactive block, and makes no apply
    assert rtols == [CG_RTOL_SETS] and applies == []
    assert sol.iterations == 1


@pytest.fixture(scope="module")
def l_shape_system():
    return FemSystem(structured_mesh(l_shape(), 1.0 / 32.0))


#: the four problem kinds of the solve benchmark: (nu, lower, upper, target)
SOLVE_FIXED_PROBLEMS = {
    "upper-active": (0.24, -1.025, 1.025, 0.92),
    "lower-active": (0.18, 0.0, math.inf, -0.925),
    "tight-small-nu": (0.0095, -0.104, 0.104, 1.03),
    "unbounded": (0.23, -math.inf, math.inf, 0.99),
}


@pytest.mark.parametrize("label", sorted(SOLVE_FIXED_PROBLEMS))
def test_inexact_pdas_matches_all_exact_steps(l_shape_system, label,
                                              monkeypatch):
    nu, lo, hi, target = SOLVE_FIXED_PROBLEMS[label]
    p = ControlProblem(l_shape_system, nu, ConstantTarget(target),
                       lower=lo, upper=hi)
    applies = []
    hess = p.hessian_apply
    monkeypatch.setattr(p, "hessian_apply",
                        lambda v: applies.append(1) or hess(v))
    sol = solve_constrained(p)
    n_inexact = len(applies)
    applies.clear()
    monkeypatch.setattr(control, "CG_RTOL_SETS", CG_RTOL)
    ref = solve_constrained(p)
    assert sol.converged and sol.kkt.satisfied
    assert np.abs(sol.u - ref.u).max() <= 1e-10
    if label == "unbounded":
        # no bounds: the one CG solve is untouched
        assert n_inexact == len(applies)
    elif label == "upper-active":
        assert n_inexact < len(applies)
    else:
        # the seeded sets hold every node: no CG on either path
        assert n_inexact == len(applies) == 0


#: most LU solves of each solve-benchmark problem at h = 1/32: two per
#: Hessian apply and two per set of fresh fields, which are solved for at
#: the start point, at a pinning that moves the control and before
#: returning (the parent's counts were 48, 14, 20 and 30)
SOLVE_FIXED_LU_SOLVES = {
    "upper-active": 46,
    "lower-active": 2,
    "tight-small-nu": 4,
    "unbounded": 30,
}


@pytest.mark.parametrize("label", sorted(SOLVE_FIXED_PROBLEMS))
def test_each_pde_solve_is_paid_once(l_shape_system, label, monkeypatch):
    nu, lo, hi, target = SOLVE_FIXED_PROBLEMS[label]
    p = ControlProblem(l_shape_system, nu, ConstantTarget(target),
                       lower=lo, upper=hi)
    solves = []
    solve = l_shape_system.solve_interior
    monkeypatch.setattr(l_shape_system, "solve_interior",
                        lambda rhs: solves.append(1) or solve(rhs))
    sol = solve_constrained(p)
    assert sol.converged and sol.kkt.satisfied
    assert len(solves) <= SOLVE_FIXED_LU_SOLVES[label]


@pytest.mark.parametrize("bounds", [(-0.2, 0.25), (-1e6, 1e6), None],
                         ids=["active-nodes", "no-active-nodes",
                              "unconstrained"])
def test_warm_start_at_the_solution_returns(square_system, bounds,
                                            monkeypatch):
    # restarted at its own solution a solve returns at once: the CG scale
    # is not the round-off gradient there, against which CG would run
    # 5 (no-active-nodes) and 18 (unconstrained) more iterations
    target = CallableTarget(lambda x, y: np.exp(x) * np.sin(2.0 * y))
    if bounds is None:
        p = ControlProblem(square_system, nu=0.08, target=target)
        solve = solve_unconstrained
    else:
        p = ControlProblem(square_system, nu=0.08, target=target,
                           lower=bounds[0], upper=bounds[1])
        solve = solve_constrained
    first = solve(p)
    assert first.kkt.satisfied
    assert np.any((first.u == p.lower) | (first.u == p.upper)) \
        == (bounds == (-0.2, 0.25))
    applies = []
    hess = p.hessian_apply
    monkeypatch.setattr(p, "hessian_apply",
                        lambda v: applies.append(1) or hess(v))
    again = solve(p, u0=first.u)
    assert again.converged and again.kkt.satisfied
    assert again.iterations <= 2
    assert len(applies) <= 2 < control._CG_MAX_ITER
    assert np.abs(again.u - first.u).max() <= KKT_TOL


def test_fresh_fields_overrule_the_carried_gradient(boxed_problem,
                                                    monkeypatch):
    # the first exact step returns a correction off by 1e-5 with the image
    # of the exact one: the carried gradient passes the KKT tolerance, the
    # fresh fields do not, and PDAS goes on from them to the true solution
    ref = solve_constrained(boxed_problem)
    cg = control._pcg
    spoiled, hide = [], []

    def spoil(*a, **kw):
        x, hx = cg(*a, **kw)
        if kw["rtol"] == CG_RTOL and not spoiled:
            spoiled.append(1)
            hide.append(1)
            x = x * (1.0 + 1e-5)
        return x, hx
    monkeypatch.setattr(control, "_pcg", spoil)
    sol = solve_constrained(boxed_problem)
    assert spoiled
    assert sol.converged and sol.method == "pdas" and sol.kkt.satisfied
    assert sol.iterations == ref.iterations + 1
    assert np.abs(sol.u - ref.u).max() <= 1e-10
    # the same, with the carried KKT report hidden at the spoiled step: the
    # next exact step corrects nothing, and only then do the fresh fields
    # disagree; their solve replaced the gradient, so the loop goes on
    # rather than stop as if the iteration would repeat
    spoiled.clear()
    hide.clear()
    kkt_residual = boxed_problem.kkt_residual

    def hidden(u, d):
        report = kkt_residual(u, d)
        if hide:
            hide.pop()
            return dataclasses.replace(report, stationarity_max=np.inf)
        return report
    monkeypatch.setattr(boxed_problem, "kkt_residual", hidden)
    sol = solve_constrained(boxed_problem)
    assert spoiled
    assert sol.converged and sol.iterations == ref.iterations + 2
    assert np.abs(sol.u - ref.u).max() <= 1e-10


def test_zero_start_gradient_still_scales_cg(square_system, monkeypatch):
    # target 0, no source, u0 = 0: the gradient there is exactly 0, and
    # pinning the bound 0.1 on the left side gives CG a nonzero
    # right-hand side, which needs a nonzero stopping scale: at scale 0
    # CG runs on until its residual is exactly 0 (129 applies)
    pts = square_system.trace.points
    lower = np.where(pts[:, 0] < 0.5, 0.1, -np.inf)
    p = ControlProblem(square_system, nu=0.1, target=ConstantTarget(0.0),
                       lower=lower)
    g0, _, _, _ = p.gradient(np.zeros(square_system.trace.n))
    assert not g0.any()
    applies = []
    hess = p.hessian_apply
    monkeypatch.setattr(p, "hessian_apply",
                        lambda v: applies.append(1) or hess(v))
    sol = solve_constrained(p)
    assert sol.converged and sol.method == "pdas" and sol.kkt.satisfied
    active = sol.u == p.lower
    assert active.any() and not active.all()
    # fewer than the inactive block's size, over both steps
    assert len(applies) < (~active).sum()


def test_equivariance_under_lattice_symmetry(square_system):
    # the diagonal lattice is invariant under 180-degree rotation about
    # the center, so a symmetric target yields a symmetric control
    target = CallableTarget(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    p = ControlProblem(square_system, nu=0.2, target=target,
                       lower=-0.1, upper=0.3)
    sol = solve_constrained(p)
    pts = square_system.trace.points
    _, rot = cKDTree(pts).query(np.column_stack([1.0 - pts[:, 0],
                                                 1.0 - pts[:, 1]]))
    assert np.abs(sol.u - sol.u[rot]).max() < 1e-12
    assert np.any(sol.u == p.upper)


def test_optimal_state_satisfies_max_principle(square_system):
    target = CallableTarget(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    p = ControlProblem(square_system, nu=0.2, target=target,
                       lower=-0.1, upper=0.3)
    sol = solve_constrained(p)
    rep = check_max_principle(square_system, sol.y)
    assert rep.satisfied


def test_constrained_on_graded_l_shape():
    sysm = FemSystem(triangulate(l_shape(), 1.0 / 16.0, grading={2: 1.0 / 3.0}))
    p = ControlProblem(sysm, nu=0.05, target=ConstantTarget(1.0),
                       lower=-0.3, upper=0.4)
    sol = solve_constrained(p)
    assert sol.converged and sol.kkt.satisfied
    assert np.any(sol.u == p.upper)
    assert check_max_principle(sysm, sol.y).satisfied
    # the state cannot exceed the largest admissible boundary value
    assert sol.y.values.max() <= 0.4 + 1e-12


def test_solver_work_does_not_grow_with_the_mesh():
    # graded L-shape, nu = 0.2, bounds +-1, target 1: the LU solves that
    # reach the factor (a nonzero right-hand side) per constrained solve
    # are 49, 47 and 47 at h = 1/16, 1/32 and 1/64, in 5 iterations each;
    # no finer level may need more than the coarsest
    counts = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        system = FemSystem(triangulate(l_shape(), h, grading={2: 0.5}))
        solves = []
        solve = system.solve_interior
        system.solve_interior = (
            lambda rhs, solve=solve: solves.append(rhs.any()) or solve(rhs))
        p = ControlProblem(system, nu=0.2, target=ConstantTarget(1.0),
                           lower=-1.0, upper=1.0)
        sol = solve_constrained(p)
        assert sol.converged and sol.kkt.satisfied
        counts.append(sum(solves))
    assert max(counts[1:]) <= counts[0], counts
