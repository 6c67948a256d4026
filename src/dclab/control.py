"""Boundary control of the Laplacian with box constraints.

Minimize over boundary data u:

    J(u) = 1/2 ||y_u - y_target||^2_{L2}  +  nu/2 ||u||^2_{L2(Gamma)},
    -Lap y_u = 0 in Omega,  y_u = u on Gamma,  a <= u <= b on Gamma.

The discrete objective uses the lumped boundary mass M_L for the control
penalty, and the reduced gradient is

    grad J(u) = M_L (nu u - d_phi),

where d_phi is the lumped variational normal derivative of the adjoint
state (-Lap phi = y_u - y_target, phi = 0 on Gamma).  With the same M_L
in the penalty, the Riesz map, and the flux recovery, the discrete
optimality system closes exactly: at the solution every node satisfies
u_i = clip(d_i / nu, a_i, b_i) to solver precision, mirroring the
pointwise projection formula of the continuous problem.

Every problem, with bounds or without, is solved by one loop of
primal-dual active set (PDAS) steps, a semismooth Newton method
(Hintermueller, Ito & Kunisch 2002): pin the active nodes on their
bounds and the others into the box, then solve the equality-constrained
quadratic by CG on the inactive block of the reduced Hessian
H = nu M_L + S^T M S (two cached-LU solves per apply).  The sets are
the PDAS rule d/nu < a, d/nu > b, first at the start point; with no
finite bound they stay empty, and the loop is one CG solve of H x = -g.
J is quadratic, so after a CG correction x the gradient is carried as
g + H x, from the applies CG makes anyway; fresh fields are solved for
only where a pin moves the control and where the carried gradient says
converged (at that control, put in the box).  Returned fields and KKT
report are always fresh, and a node is active exactly where the returned
control equals a finite bound.

H is not an M-matrix, so the PDAS sets can cycle.  The loop keeps a pin
only where J has dropped since the last fresh point it kept, which it
tests at no solve: over a step x, J changes by x . (g_0 + g_1) / 2, g_0
and g_1 the gradients at its ends (a CG correction lowers J by
construction).  Elsewhere it goes back to that point for one
projected-Newton step (Bertsekas 1982): the rule's nodes on their bound
stay there, the others take a Newton step by CG, or, where that does
not lower J, the scaled gradient -g / (nu M_L), with Armijo backtracking
along the projection arc; the state y + S x of the accepted trial, which
the test solved for, is kept, so only the adjoint is solved there.
Every kept point is feasible, and J falls from each to the next.

CG runs to the loose CG_RTOL_SETS while the sets move (an inexact Newton
step), and to CG_RTOL from the first step that leaves them unchanged or
repeats a pair, or from the first step where no bound is finite; the
loop returns at unchanged sets whose fresh fields meet the KKT
tolerance, or stops unconverged after MAX_ITER iterations, each at most
5 + 2 _HALVINGS LU solves besides two per Hessian apply.
CG's residual scale is taken at the start point (or, where it is 0
there, at the first pinned control).

The stopping tests share one round-off bound, fem.ROUND_OFF, relative to
the problem's scale max(1, rms(y_target) / nu, max |clip(0, a, b)|),
the control's size (d/nu carries the target over nu): the KKT tolerance
is KKT_TOL times the scale, and CG stops two decades inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import (ROUND_OFF, DiscontinuityLine, FemSystem, ScalarField,
                  assemble_load, solve_dirichlet,
                  variational_normal_derivative)
from .geometry import UNBOUNDED

#: nodewise optimality tolerance at scale 1: |u - clip(d/nu, a, b)| at
#: every node, and the bound violation, are at most KKT_TOL * scale
KKT_TOL = ROUND_OFF

#: relative CG tolerance of an exact Newton step, two decades inside the
#: KKT tolerance
CG_RTOL = ROUND_OFF / 100

#: relative CG tolerance of a PDAS step while the active sets still move
CG_RTOL_SETS = 1e-3

#: iterations before solve_constrained stops unconverged
MAX_ITER = 200

#: backtracking halvings per projected-Newton direction
_HALVINGS = 40

#: CG iterations before a Newton step gives up
_CG_MAX_ITER = 5000


class ControlError(RuntimeError):
    pass


# ---------------------------------------------------------------------
# target data

@dataclass(frozen=True)
class ConstantTarget:
    value: float


@dataclass(frozen=True)
class CallableTarget:
    """Target given as a function of (x, y); an optional discontinuity
    line makes the quadrature respect a jump."""

    fn: object
    discontinuity: DiscontinuityLine | None = None


def _target_data(system: FemSystem, target):
    """Load vector t_i = int y_target phi_i and the constant
    1/2 int y_target^2 of the objective."""
    mesh = system.mesh
    if isinstance(target, ConstantTarget):
        c = float(target.value)
        t = c * (system.M @ np.ones(mesh.n_nodes))
        return t, 0.5 * c * c * mesh.domain.area
    if isinstance(target, CallableTarget):
        def values_and_squares(x, y):
            v = np.broadcast_to(np.asarray(target.fn(x, y), dtype=float),
                                x.shape)
            return np.stack([v, v * v])
        # the hats sum to one, so the load of y_target^2 sums to its integral
        t, sq = assemble_load(mesh, values_and_squares,
                              discontinuity=target.discontinuity)
        return t, 0.5 * float(sq.sum())
    raise ControlError(f"unsupported target {target!r}")


# ---------------------------------------------------------------------
# problem container

class ControlProblem:
    """Assembled data of one boundary-control problem on a fixed mesh.

    Bounds may be scalars or trace-order arrays; use -inf/inf (or
    geometry.UNBOUNDED) for one-sided or absent constraints.
    """

    def __init__(self, system: FemSystem, nu: float, target,
                 lower=-UNBOUNDED, upper=UNBOUNDED):
        if nu <= 0.0:
            raise ControlError("regularization nu must be positive")
        self.system = system
        self.nu = float(nu)
        nb = system.trace.n
        self.lower = np.broadcast_to(np.asarray(lower, dtype=float), (nb,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, dtype=float), (nb,)).copy()
        if np.any(self.lower > self.upper):
            raise ControlError("lower bound exceeds upper bound somewhere")
        self.target = target
        self.t_load, self.t_const = _target_data(system, target)
        self.lumped = system.trace.lumped
        # the size of the control: d/nu carries the target (its rms) over
        # nu, and the box may hold it away from 0; never below 1
        rms = float(np.sqrt(2.0 * self.t_const / system.mesh.domain.area))
        self.scale = max(1.0, rms / self.nu,
                         float(np.abs(np.clip(0.0, self.lower, self.upper)).max()))

    # -- pieces of the optimality system -------------------------------

    def state(self, u: np.ndarray) -> ScalarField:
        return solve_dirichlet(self.system, u)

    def _flux(self, w: np.ndarray):
        """Zero-trace solve of A phi = w and the lumped boundary flux of phi."""
        sysm = self.system
        nb = sysm.trace.n
        phi = np.concatenate([np.zeros(nb), sysm.solve_interior(w[nb:])])
        return phi, variational_normal_derivative(sysm, phi, load=w)

    def adjoint(self, y: ScalarField):
        """Adjoint field and its lumped boundary flux d_phi."""
        phi, d = self._flux(self.system.M @ y.values - self.t_load)
        return ScalarField(self.system.mesh, phi), d

    def objective(self, u: np.ndarray, y: ScalarField | None = None) -> float:
        if y is None:
            y = self.state(u)
        v = y.values
        data = 0.5 * float(v @ (self.system.M @ v)) - float(v @ self.t_load) \
            + self.t_const
        pen = 0.5 * self.nu * float(u @ (self.lumped * u))
        return data + pen

    def gradient(self, u: np.ndarray, y: ScalarField | None = None):
        """grad J(u) (trace order), plus y, phi, d_phi for reuse; a known
        state y of u is used, not solved for again."""
        if y is None:
            y = self.state(u)
        phi, d = self.adjoint(y)
        g = self.lumped * (self.nu * u - d)
        return g, y, phi, d

    def hessian_apply(self, v: np.ndarray) -> np.ndarray:
        """(nu M_L + S^T M S) v via one state and one adjoint solve."""
        yv = solve_dirichlet(self.system, v)
        _, dv = self._flux(self.system.M @ yv.values)
        return self.lumped * (self.nu * v - dv)

    def kkt_residual(self, u: np.ndarray, d: np.ndarray):
        """Nodewise projection residual and feasibility violation at u,
        given the lumped adjoint flux d there."""
        proj = np.clip(d / self.nu, self.lower, self.upper)
        r = u - proj
        feas = max(0.0, float((self.lower - u).max()), float((u - self.upper).max()))
        return KKTReport(stationarity_max=float(np.abs(r).max()),
                         feasibility=feas, tol=KKT_TOL * self.scale)


@dataclass(frozen=True)
class KKTReport:
    stationarity_max: float
    feasibility: float
    tol: float

    @property
    def satisfied(self) -> bool:
        return self.stationarity_max <= self.tol and self.feasibility <= self.tol


@dataclass
class OptimalSolution:
    """Result of an optimal-control solve."""

    u: np.ndarray
    y: ScalarField
    phi: ScalarField
    flux: np.ndarray
    objective: float
    kkt: KKTReport
    iterations: int
    history: list = field(default_factory=list)

    #: the one solver path (PDAS with projected-Newton steps); perfbench
    #: reads it
    method = "pdas"

    @property
    def converged(self) -> bool:
        return self.kkt.satisfied


def _finish(problem: ControlProblem, u, iterations, history, fields=None):
    """Assemble the solution at u; ``fields`` = (y, phi, d_phi) already
    computed at this very u skips re-solving for them."""
    if fields is None:
        y = problem.state(u)
        phi, d = problem.adjoint(y)
    else:
        y, phi, d = fields
    kkt = problem.kkt_residual(u, d)
    return OptimalSolution(
        u=u, y=y, phi=phi, flux=d,
        objective=problem.objective(u, y), kkt=kkt, iterations=iterations,
        history=history)


# ---------------------------------------------------------------------
# solvers

def _residual_scale(problem: ControlProblem, u: np.ndarray,
                    d: np.ndarray) -> float:
    """CG's stopping scale for one solve: the sizes of the two terms of
    grad J = M_L (nu u - d) at the start point.  At u = 0 this is
    ||grad J(0)||; at a converged nonzero control, where grad J itself is
    round-off, it is not."""
    return float(np.linalg.norm(problem.nu * problem.lumped * u)
                 + np.linalg.norm(problem.lumped * d))


def _pcg(problem: ControlProblem, idx: np.ndarray, rhs: np.ndarray,
         rtol: float, scale: float):
    """Preconditioned CG from zero for the inactive block H_II x = rhs.

    Stops at residual ``rtol * scale`` and returns x with its full-trace
    image H x (zero off ``idx``), summed from the applies CG makes
    anyway: one per iteration, none for the initial residual.
    """
    nb = problem.system.trace.n
    diag = problem.nu * problem.lumped[idx]
    x = np.zeros(len(idx))
    hx = np.zeros(nb)
    r = rhs.copy()
    tol = rtol * scale
    for it in range(_CG_MAX_ITER):
        if np.linalg.norm(r) <= tol:
            return x, hx
        z = r / diag
        rho = float(r @ z)
        p = z if it == 0 else z + (rho / rho_prev) * p
        full = np.zeros(nb)
        full[idx] = p
        hp = problem.hessian_apply(full)
        q = hp[idx]
        alpha = rho / float(p @ q)
        x += alpha * p
        r -= alpha * q
        hx += alpha * hp
        rho_prev = rho
    raise ControlError(f"inner CG failed to converge in {_CG_MAX_ITER} "
                       "iterations")


def solve_unconstrained(problem: ControlProblem,
                        u0: np.ndarray | None = None) -> OptimalSolution:
    """Solve a problem with no finite bound: the loop of solve_constrained
    on the empty box, one CG solve of H (u - u0) = -grad J(u0)."""
    return solve_constrained(problem, u0)


def solve_constrained(problem: ControlProblem,
                      u0: np.ndarray | None = None) -> OptimalSolution:
    """PDAS for the box-constrained problem, with a projected-Newton step
    wherever a pin would raise J (see module docstring)."""
    lo, hi = problem.lower, problem.upper
    nu = problem.nu
    u = np.clip(0.0 if u0 is None else np.asarray(u0, float), lo, hi)
    g, y, phi, d = problem.gradient(u)
    J = problem.objective(u, y)
    fresh = True        # y, phi, d were solved for at this very u
    base = u, g, y, phi, d, J       # the last fresh point kept
    scale = _residual_scale(problem, u, d)

    def rule(u, d):
        """The PDAS sets at (u, d), and the KKT residual there."""
        cand = d / nu
        return cand < lo, cand > hi, problem.kkt_residual(u, d)

    def change(u, g):       # J(u) - J(base), from the gradients at both
        return 0.5 * float((u - base[0]) @ (base[1] + g))

    act_a, act_b, _ = rule(u, d)
    # with no finite bound the sets stay empty: exact steps from the first
    bounded = np.isfinite(lo).any() or np.isfinite(hi).any()
    rtol = CG_RTOL_SETS if bounded else CG_RTOL
    seen = set()
    history = []

    for it in range(1, MAX_ITER + 1):
        # pin the active nodes, the others into the box (fresh fields
        # only if that moves the control), then zero the gradient on the
        # inactive block by a CG correction
        pinned = np.where(act_a, lo, np.where(act_b, hi, np.clip(u, lo, hi)))
        if not np.array_equal(pinned, u):
            fresh = True
            fields = problem.gradient(pinned)
            dJ = change(pinned, fields[0])
            if dJ < 0.0:
                u, (g, y, phi, d), J = pinned, fields, base[5] + dJ
            else:
                # J has not dropped: a projected-Newton step from the base
                u, g, y, phi, d, J = base
                act_a, act_b, _ = rule(u, d)
                act_a, act_b = act_a & (u == lo), act_b & (u == hi)
                step = _projected_newton(
                    problem, base, np.flatnonzero(~(act_a | act_b)), rtol, scale)
                if step is None:
                    break
                u, y, J = step
                g, y, phi, d = problem.gradient(u, y)
            base = u, g, y, phi, d, J
            scale = scale or _residual_scale(problem, u, d)
        idx = np.flatnonzero(~(act_a | act_b))
        x, hx = _pcg(problem, idx, -g[idx], rtol=rtol, scale=scale)
        if x.any():
            u = u.copy()
            u[idx] += x
            g = g + hx
            fresh = False
            d = nu * u - g / problem.lumped
            J = base[5] + change(u, g)

        new_a, new_b, kkt = rule(u, d)
        same = np.array_equal(new_a, act_a) and np.array_equal(new_b, act_b)
        if same and kkt.satisfied and not fresh:
            # the carried gradient says converged: decide on fresh fields
            # at the control in the box, and where they disagree go on
            u = np.clip(u, lo, hi)
            g, y, phi, d = problem.gradient(u)
            fresh = True
            dJ = change(u, g)
            J = base[5] + dJ
            if dJ < 0.0:
                base = u, g, y, phi, d, J
            new_a, new_b, kkt = rule(u, d)
            same = np.array_equal(new_a, act_a) and np.array_equal(new_b, act_b)
        history.append({"iteration": it, "active_lower": int(new_a.sum()),
                        "active_upper": int(new_b.sum()), "objective": J,
                        "kkt": kkt.stationarity_max})
        if same and kkt.satisfied:
            break
        key = (new_a.tobytes(), new_b.tobytes())
        if same or key in seen:
            # the sets have settled (or repeat): exact steps from here on
            rtol = CG_RTOL
        seen.add(key)
        act_a, act_b = new_a, new_b

    return _finish(problem, np.clip(u, lo, hi), it, history,
                   (y, phi, d) if fresh else None)


def _projected_newton(problem: ControlProblem, base, idx, rtol, scale):
    """One projected-Newton step from the fresh point ``base`` (u, g, y,
    phi, d, J), the nodes off ``idx`` staying on their bound: Newton's
    direction by CG, else (where CG's tolerance already holds) the scaled
    gradient d/nu - u.  A trial step x changes J by exactly
    g . x + 1/2 (||S x||^2_M + nu x^T M_L x), S x its state, at one PDE
    solve; two rounded objectives would decide a change of ~1e-20 by
    round-off.  Returns the new control, its state y + S x and J, or None
    where no trial lowers J."""
    u, g, y, _, d, J = base
    lo, hi = problem.lower, problem.upper
    M, ml, nu = problem.system.M, problem.lumped, problem.nu
    newton = np.zeros_like(u)
    newton[idx], _ = _pcg(problem, idx, -g[idx], rtol=rtol, scale=scale)
    for p in (newton, d / nu - u):
        s = 1.0
        for _ in range(_HALVINGS):
            trial = np.clip(u + s * p, lo, hi)
            x = trial - u
            if not x.any():
                break
            sx = problem.state(x).values
            slope = float(g @ x)
            dJ = slope + 0.5 * (float(sx @ (M @ sx)) + nu * float(x @ (ml * x)))
            if dJ <= 1e-4 * slope:
                return trial, ScalarField(y.mesh, y.values + sx), J + dJ
            s *= 0.5
    return None
