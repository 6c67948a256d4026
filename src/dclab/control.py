"""Boundary control of the Laplacian with box constraints.

Minimize over boundary data u:

    J(u) = 1/2 ||y_u - y_target||^2_{L2}  +  nu/2 ||u||^2_{L2(Gamma)},
    -Lap y_u = f in Omega,  y_u = u on Gamma,  a <= u <= b on Gamma.

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

A step that changes the active sets only has to pick the next sets, so
CG runs to the loose CG_RTOL_SETS while the sets move (an inexact Newton
step).  PDAS is exact once the sets are right, so the first step that
leaves them unchanged switches to CG_RTOL for good: the same sets are
solved again, warm-started from the current iterate, and the iteration
returns only at unchanged sets whose fresh fields satisfy KKT_TOL.  A
set pair that repeats among inexact steps switches to exact steps too;
among exact steps it means cycling, and a projected-gradient fallback
with Armijo backtracking, bounded by PG_MAX_SOLVES PDE solves, takes
over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

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


@dataclass(frozen=True)
class NodalTarget:
    values: np.ndarray


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
        t, sq = assemble_load(mesh, values_and_squares, order=5,
                              discontinuity=target.discontinuity)
        return t, 0.5 * float(sq.sum())
    if isinstance(target, NodalTarget):
        v = np.asarray(target.values, dtype=float)
        if v.shape != (mesh.n_nodes,):
            raise ControlError("nodal target must have one value per mesh node")
        t = system.M @ v
        return t, 0.5 * float(v @ t)
    raise ControlError(f"unsupported target {target!r}")


# ---------------------------------------------------------------------
# problem container

class ControlProblem:
    """Assembled data of one boundary-control problem on a fixed mesh.

    Bounds may be scalars or trace-order arrays; use -inf/inf (or
    geometry.UNBOUNDED) for one-sided or absent constraints.
    """

    def __init__(self, system: FemSystem, nu: float, target,
                 lower=-UNBOUNDED, upper=UNBOUNDED, source=None):
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
        self.f_load = (np.zeros(system.mesh.n_nodes) if source is None
                       else assemble_load(system.mesh, source, order=5))
        self.lumped = system.trace.lumped

    # -- pieces of the optimality system -------------------------------

    def state(self, u: np.ndarray) -> ScalarField:
        return solve_dirichlet(self.system, u, load=self.f_load)

    def _flux(self, w: np.ndarray):
        """Zero-trace solve of A phi = w and the lumped boundary flux of phi."""
        sysm = self.system
        phi = np.zeros(sysm.mesh.n_nodes)
        phi[sysm.itr] = sysm.solve_interior(w[sysm.itr])
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

    def kkt_residual(self, u: np.ndarray, d: np.ndarray | None = None):
        """Nodewise projection residual and feasibility violation."""
        if d is None:
            _, _, _, d = self.gradient(u)
        proj = np.clip(d / self.nu, self.lower, self.upper)
        r = u - proj
        feas = max(0.0, float((self.lower - u).max()), float((u - self.upper).max()))
        l2 = math.sqrt(float(r @ (self.lumped * r)))
        return KKTReport(stationarity_max=float(np.abs(r).max()),
                         stationarity_l2=l2, feasibility=feas)


@dataclass(frozen=True)
class KKTReport:
    stationarity_max: float
    stationarity_l2: float
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
    converged: bool
    method: str
    active_lower: np.ndarray = None
    active_upper: np.ndarray = None
    history: list = field(default_factory=list)


def _finish(problem: ControlProblem, u, iterations, converged, method, history,
            fields=None):
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
        objective=problem.objective(u, y),
        kkt=kkt, iterations=iterations, converged=converged, method=method,
        active_lower=np.isclose(u, problem.lower, rtol=0.0, atol=1e-14)
        & np.isfinite(problem.lower),
        active_upper=np.isclose(u, problem.upper, rtol=0.0, atol=1e-14)
        & np.isfinite(problem.upper),
        history=history)


# ---------------------------------------------------------------------
# solvers

def _cg_on_subset(problem: ControlProblem, mask: np.ndarray, rhs: np.ndarray,
                  x0: np.ndarray | None = None, rtol: float = CG_RTOL):
    """CG to relative residual ``rtol`` for the inactive block of the
    reduced Hessian."""
    idx = np.where(mask)[0]
    n = len(idx)

    def apply(v):
        full = np.zeros(problem.system.trace.n)
        full[idx] = v
        return problem.hessian_apply(full)[idx]

    # an explicit dtype keeps scipy from probing matvec (one discarded
    # Hessian apply, i.e. two PDE solves) to infer it
    op = spla.LinearOperator((n, n), matvec=apply, dtype=float)
    pre = spla.LinearOperator(
        (n, n), matvec=lambda v: v / (problem.nu * problem.lumped[idx]),
        dtype=float)
    x, info = spla.cg(op, rhs[idx], x0=None if x0 is None else x0[idx],
                      rtol=rtol, atol=0.0, M=pre, maxiter=5000)
    if info != 0:
        raise ControlError(f"inner CG failed to converge (info={info})")
    return x, idx


def solve_unconstrained(problem: ControlProblem,
                        u0: np.ndarray | None = None) -> OptimalSolution:
    """Solve the bound-free problem: H u = -grad J(0) by CG."""
    nb = problem.system.trace.n
    g0, _, _, _ = problem.gradient(np.zeros(nb))
    mask = np.ones(nb, dtype=bool)
    x, idx = _cg_on_subset(problem, mask, -g0, x0=u0)
    u = np.zeros(nb)
    u[idx] = x
    return _finish(problem, u, iterations=1, converged=True,
                   method="cg", history=[])


def solve_constrained(problem: ControlProblem,
                      u0: np.ndarray | None = None) -> OptimalSolution:
    """Primal-dual active set iteration for the box-constrained problem,
    with inexact steps while the active sets move (see module docstring)."""
    lo, hi = problem.lower, problem.upper
    if not (np.any(np.isfinite(lo)) or np.any(np.isfinite(hi))):
        return solve_unconstrained(problem, u0)
    nb = problem.system.trace.n
    u = np.zeros(nb) if u0 is None else np.clip(np.asarray(u0, float), lo, hi)
    act_a = np.zeros(nb, dtype=bool)
    act_b = np.zeros(nb, dtype=bool)
    rtol = CG_RTOL_SETS
    g_fix = None
    seen = set()
    history = []

    for it in range(1, PDAS_MAX_ITER + 1):
        # equality-constrained step: pin active nodes, zero the gradient
        # on the inactive block
        u_fix = np.zeros(nb)
        u_fix[act_a] = lo[act_a]
        u_fix[act_b] = hi[act_b]
        inactive = ~(act_a | act_b)
        if np.any(inactive):
            if g_fix is None:
                g_fix, _, _, _ = problem.gradient(u_fix)
            x, idx = _cg_on_subset(problem, inactive, -g_fix, x0=u, rtol=rtol)
            u = u_fix.copy()
            u[idx] = x
        else:
            u = u_fix

        y = problem.state(u)
        phi, d = problem.adjoint(y)
        cand = d / problem.nu
        new_a = cand < lo
        new_b = cand > hi
        kkt = problem.kkt_residual(u, d)
        history.append({"iteration": it,
                        "active_lower": int(new_a.sum()),
                        "active_upper": int(new_b.sum()),
                        "kkt": kkt.stationarity_max})
        same = np.array_equal(new_a, act_a) and np.array_equal(new_b, act_b)
        if same and kkt.satisfied:
            uc = np.clip(u, lo, hi)
            fields = (y, phi, d) if np.array_equal(uc, u) else None
            return _finish(problem, uc, it, True, "pdas", history, fields)
        key = (new_a.tobytes(), new_b.tobytes())
        if rtol != CG_RTOL and (same or key in seen):
            # the sets have settled (or repeat): exact steps from here on,
            # and only a set pair repeated among them counts as cycling
            rtol = CG_RTOL
            seen.clear()
        elif key in seen:
            # cycling: fall back to the globally convergent method
            return _projected_gradient(problem, np.clip(u, lo, hi), history)
        seen.add(key)
        if not same:
            act_a, act_b = new_a, new_b
            g_fix = None

    return _projected_gradient(problem, np.clip(u, lo, hi), history)


def _projected_gradient(problem: ControlProblem, u: np.ndarray, history,
                        max_solves: int = PG_MAX_SOLVES) -> OptimalSolution:
    """Projected gradient with Armijo backtracking (monotone, slow, safe).

    At most ``max_solves`` PDE solves: a step costs one gradient (two
    solves) and up to _PG_HALVINGS objectives (one each), the unconverged
    result's fields two more, and a step starts only while that worst
    case fits.  A run out of budget returns unconverged.
    """
    lo, hi = problem.lower, problem.upper
    J = problem.objective(u)
    solves = 1
    step = 1.0 / problem.nu
    it = 0
    while solves + 2 + _PG_HALVINGS + 2 <= max_solves:
        it += 1
        g, y, phi, d = problem.gradient(u)
        solves += 2
        # Riesz representative of the gradient in the lumped metric
        gr = g / problem.lumped
        kkt = problem.kkt_residual(u, d)
        if kkt.satisfied:
            return _finish(problem, u, it, True, "pg", history, (y, phi, d))
        s = step
        for _ in range(_PG_HALVINGS):
            cand = np.clip(u - s * gr, lo, hi)
            Jc = problem.objective(cand)
            solves += 1
            dec = float(g @ (cand - u))
            if Jc <= J + 1e-4 * dec or np.array_equal(cand, u):
                break
            s *= 0.5
        # stalled only when a step leaves u exactly unchanged: a relative
        # tolerance (np.allclose's 1e-5) stops short of KKT_TOL
        if np.array_equal(cand, u) and Jc >= J:
            break
        u, J = cand, Jc
        history.append({"iteration": len(history) + 1, "pg_objective": J,
                        "kkt": kkt.stationarity_max})
    return _finish(problem, u, it, False, "pg", history)
