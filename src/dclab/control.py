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

Constrained problems are solved by a primal-dual active set iteration
(semismooth Newton): given active sets, the equality-constrained
quadratic is solved by conjugate gradients on the inactive block of the
reduced Hessian H = nu M_L + S^T M S (two cached-LU solves per apply),
then the sets are updated from the unprojected candidate d / nu.

Each PDE solve is paid once.  State and adjoint are solved at the start
point u0, and the first active sets are the PDAS rule there
(d/nu < a, d/nu > b; Hintermueller, Ito & Kunisch 2002), not empty sets.
J is quadratic, so after a CG correction x the gradient is carried as
g + H x, with H x summed from the applies CG makes anyway; fresh fields
are solved for again only where pinning a newly active node moves the
control, and at a step whose carried gradient says converged.  Returned
fields and KKT report are always fresh; where they disagree with the
carried gradient, PDAS goes on from them.

A step that changes the active sets only has to pick the next sets, so
CG runs to the loose CG_RTOL_SETS while the sets move (an inexact Newton
step).  PDAS is exact once the sets are right, so the first step that
leaves them unchanged switches to CG_RTOL for good: the same sets are
solved again, from the current iterate, and the iteration returns only
at unchanged sets whose fresh fields satisfy KKT_TOL.  Both tolerances
scale one residual size per solve, taken at the start point (or, where
it is 0 there, at the first pinned control).  A set pair that repeats
among inexact steps switches to exact steps too; among exact steps it
means cycling, and a projected-gradient fallback with Armijo
backtracking, bounded by PG_MAX_SOLVES PDE solves, takes over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import (
    DiscontinuityLine,
    FemSystem,
    ScalarField,
    assemble_load,
    solve_dirichlet,
    variational_normal_derivative,
)
from .geometry import UNBOUNDED

#: nodewise optimality tolerance: |u - clip(d/nu, a, b)| at every node
KKT_TOL = 1e-10

#: relative CG tolerance for the reduced Newton/unconstrained systems
CG_RTOL = 1e-12

#: relative CG tolerance of a PDAS step while the active sets still move
CG_RTOL_SETS = 1e-3

#: PDAS iterations before the projected-gradient fallback takes over
PDAS_MAX_ITER = 200

#: work budget of the projected-gradient fallback, in PDE solves
PG_MAX_SOLVES = 20000

#: backtracking halvings per projected-gradient step
_PG_HALVINGS = 60

#: CG iterations before a PDAS step or unconstrained solve gives up
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

    def gradient(self, u: np.ndarray):
        """grad J(u) (trace order), plus y, phi, d_phi for reuse."""
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
                         feasibility=feas)


@dataclass(frozen=True)
class KKTReport:
    stationarity_max: float
    feasibility: float

    @property
    def satisfied(self) -> bool:
        return self.stationarity_max <= KKT_TOL and self.feasibility <= KKT_TOL


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
    method: str
    active_lower: np.ndarray = None
    active_upper: np.ndarray = None
    history: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.kkt.satisfied


def _finish(problem: ControlProblem, u, iterations, method, history,
            fields=None):
    """Assemble the solution at u; ``fields`` = (y, phi, d_phi) already
    computed at this very u skips re-solving for them.  Pinning and
    clipping put every active node exactly on its bound, so a node is
    active where u equals a finite bound."""
    if fields is None:
        y = problem.state(u)
        phi, d = problem.adjoint(y)
    else:
        y, phi, d = fields
    kkt = problem.kkt_residual(u, d)
    return OptimalSolution(
        u=u, y=y, phi=phi, flux=d,
        objective=problem.objective(u, y), kkt=kkt, iterations=iterations,
        method=method,
        active_lower=(u == problem.lower) & np.isfinite(problem.lower),
        active_upper=(u == problem.upper) & np.isfinite(problem.upper),
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
    """Solve the bound-free problem: H (u - u0) = -grad J(u0) by CG."""
    nb = problem.system.trace.n
    u = np.zeros(nb) if u0 is None else np.asarray(u0, dtype=float)
    g, y, phi, d = problem.gradient(u)
    x, _ = _pcg(problem, np.arange(nb), -g, CG_RTOL,
                _residual_scale(problem, u, d))
    fields = None if x.any() else (y, phi, d)
    return _finish(problem, u + x, iterations=1, method="cg", history=[],
                   fields=fields)


def solve_constrained(problem: ControlProblem,
                      u0: np.ndarray | None = None) -> OptimalSolution:
    """Primal-dual active set iteration for the box-constrained problem,
    seeded at the start point, with the gradient carried through CG and
    inexact steps while the active sets move (see module docstring)."""
    lo, hi = problem.lower, problem.upper
    if not (np.any(np.isfinite(lo)) or np.any(np.isfinite(hi))):
        return solve_unconstrained(problem, u0)
    nu = problem.nu
    nb = problem.system.trace.n
    u = np.zeros(nb) if u0 is None else np.clip(np.asarray(u0, float), lo, hi)
    g, y, phi, d = problem.gradient(u)
    fresh = True        # y, phi, d were solved for at this very u
    scale = _residual_scale(problem, u, d)

    def rule(u, d):
        """The PDAS sets at (u, d), and the KKT residual there."""
        cand = d / nu
        return cand < lo, cand > hi, problem.kkt_residual(u, d)

    act_a, act_b, _ = rule(u, d)
    rtol = CG_RTOL_SETS
    seen = set()
    history = []

    for it in range(1, PDAS_MAX_ITER + 1):
        # equality-constrained step: pin the active nodes (fresh fields
        # only if that moves the control), then zero the gradient on the
        # inactive block by a CG correction
        pinned = np.where(act_a, lo, np.where(act_b, hi, u))
        if not np.array_equal(pinned, u):
            u = pinned
            g, y, phi, d = problem.gradient(u)
            fresh = True
            scale = scale or _residual_scale(problem, u, d)
        idx = np.flatnonzero(~(act_a | act_b))
        if len(idx):
            x, hx = _pcg(problem, idx, -g[idx], rtol=rtol, scale=scale)
            if x.any():
                u = u.copy()
                u[idx] += x
                g = g + hx
                fresh = False
                d = nu * u - g / problem.lumped

        new_a, new_b, kkt = rule(u, d)
        same = np.array_equal(new_a, act_a) and np.array_equal(new_b, act_b)
        drifted = False
        if same and kkt.satisfied and not fresh:
            # the carried gradient says converged: decide on fresh fields,
            # and where they disagree go on from them
            g, y, phi, d = problem.gradient(u)
            fresh = True
            new_a, new_b, kkt = rule(u, d)
            same = np.array_equal(new_a, act_a) and np.array_equal(new_b, act_b)
            drifted = same and not kkt.satisfied
        history.append({"iteration": it,
                        "active_lower": int(new_a.sum()),
                        "active_upper": int(new_b.sum()),
                        "kkt": kkt.stationarity_max})
        if same and kkt.satisfied:
            uc = np.clip(u, lo, hi)
            fields = (y, phi, d) if np.array_equal(uc, u) else None
            return _finish(problem, uc, it, "pdas", history, fields)
        key = (new_a.tobytes(), new_b.tobytes())
        if rtol != CG_RTOL and (same or key in seen):
            # the sets have settled (or repeat): exact steps from here on,
            # and only a set pair repeated among them counts as cycling
            rtol = CG_RTOL
            seen.clear()
        elif key in seen and not drifted:
            # cycling: fall back to the globally convergent method
            return _projected_gradient(problem, np.clip(u, lo, hi), history)
        seen.add(key)
        if not same:
            act_a, act_b = new_a, new_b

    return _projected_gradient(problem, np.clip(u, lo, hi), history)


def _projected_gradient(problem: ControlProblem, u: np.ndarray, history,
                        max_solves: int = PG_MAX_SOLVES) -> OptimalSolution:
    """Projected gradient with Armijo backtracking (monotone, slow, safe).

    J is quadratic, so a trial step x changes it by exactly
    g . x + 1/2 (||S x||^2_M + nu x^T M_L x), S x the state of boundary
    data x.  The Armijo test takes that change in this closed form: the
    difference of two rounded objectives, O(1) each, would decide steps
    whose true change is ~1e-20 by round-off.

    At most ``max_solves`` PDE solves: a step costs one gradient (two
    solves) and up to _PG_HALVINGS trial states (one each), the
    unconverged result's fields two more, and a step starts only while
    that worst case fits.  A run out of budget returns unconverged.
    """
    lo, hi = problem.lower, problem.upper
    M, ml, nu = problem.system.M, problem.lumped, problem.nu
    J = problem.objective(u)
    solves = 1
    step = 1.0 / nu
    it = 0
    while solves + 2 + _PG_HALVINGS + 2 <= max_solves:
        it += 1
        g, y, phi, d = problem.gradient(u)
        solves += 2
        # Riesz representative of the gradient in the lumped metric
        gr = g / ml
        kkt = problem.kkt_residual(u, d)
        if kkt.satisfied:
            return _finish(problem, u, it, "pg", history, (y, phi, d))
        s = step
        for _ in range(_PG_HALVINGS):
            cand = np.clip(u - s * gr, lo, hi)
            x = cand - u
            sx = problem.state(x).values
            solves += 1
            slope = float(g @ x)
            dJ = slope + 0.5 * (float(sx @ (M @ sx)) + nu * float(x @ (ml * x)))
            if dJ <= 1e-4 * slope or not x.any():
                break
            s *= 0.5
        # stalled only when a step leaves u exactly unchanged: a relative
        # tolerance (np.allclose's 1e-5) stops short of KKT_TOL
        if not x.any():
            break
        u, J = cand, J + dJ
        history.append({"iteration": len(history) + 1, "pg_objective": J,
                        "kkt": kkt.stationarity_max})
    return _finish(problem, u, it, "pg", history)
