"""P1 finite elements on triangular meshes.

Assembly of stiffness/mass matrices, Dirichlet solves with a cached
interior factorization, variational normal-derivative (flux) recovery on
the boundary trace, triangle quadrature with optional subdivision along a
discontinuity line, error norms, and a discrete maximum-principle check.

The variational flux is the discrete outward normal derivative d solving

    M_L d = (A z - ell) restricted to boundary nodes,

which is the distributional normal derivative of the finite element
function z with volume load ell, tested against the boundary hats.  M_L
is the lumped boundary mass (the row sums of M_Gamma); it keeps the
recovery strictly local and makes the discrete optimality system of
``control`` close exactly.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .meshing import TriMesh, boundary_trace_space


class FemError(RuntimeError):
    pass


# ---------------------------------------------------------------------
# quadrature

#: barycentric points and weights, exact for polynomials of degree 2
TRI_QUAD_3 = (
    np.array([
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]),
    np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
)

_s15 = math.sqrt(15.0)
_b1, _b2 = (6.0 + _s15) / 21.0, (6.0 - _s15) / 21.0
_a1, _a2 = 1.0 - 2.0 * _b1, 1.0 - 2.0 * _b2
_w1, _w2 = (155.0 + _s15) / 1200.0, (155.0 - _s15) / 1200.0
#: degree-5 rule (7 points, Radon), in closed form
TRI_QUAD_7 = (
    np.array([
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [_a1, _b1, _b1], [_b1, _a1, _b1], [_b1, _b1, _a1],
        [_a2, _b2, _b2], [_b2, _a2, _b2], [_b2, _b2, _a2],
    ]),
    np.array([9.0 / 40.0, _w1, _w1, _w1, _w2, _w2, _w2]),
)


def tri_quadrature(order: int):
    """Barycentric quadrature rule exact to the given polynomial degree."""
    if order <= 2:
        return TRI_QUAD_3
    if order <= 5:
        return TRI_QUAD_7
    raise FemError("quadrature orders above 5 are not provided")


# ---------------------------------------------------------------------
# assembly

def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """P1 stiffness matrix; K_ij = (e_i . e_j) / (4 |T|) elementwise."""
    p, t = mesh.nodes, mesh.triangles
    p0, p1, p2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    # edge vectors opposite each vertex
    E = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    u, v = p1 - p0, p2 - p0
    area = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    ke = np.einsum("tid,tjd->tij", E, E) / (4.0 * area)[:, None, None]
    ii = t[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    jj = t[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((ke.ravel(), (ii, jj)), shape=(n, n)).tocsr()


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix (exact)."""
    t = mesh.triangles
    area = mesh.triangle_areas()
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * base[None, :, :]
    ii = t[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    jj = t[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((me.ravel(), (ii, jj)), shape=(n, n)).tocsr()


@dataclass(frozen=True)
class DiscontinuityLine:
    """A straight line p . normal = point . normal across which integrands
    may jump; triangles crossed by it are subdivided before quadrature."""

    point: tuple
    normal: tuple

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        nrm = np.asarray(self.normal, dtype=float)
        nrm = nrm / np.linalg.norm(nrm)
        return (np.atleast_2d(pts) - np.asarray(self.point)) @ nrm


def _split_crossed(d: np.ndarray) -> np.ndarray:
    """Barycentric split of triangles crossed by a line.

    ``d`` holds the signed vertex distances (nc, 3) of triangles with
    vertices strictly on both sides.  The lone vertex is the one whose
    side the other two do not share (a vertex on the line shares both).
    The line cuts the two edges at it; the lone vertex and the cuts make
    one sub-triangle, the other side's quadrilateral two, one of which
    has zero area when a vertex lies on the line.  Returns (nc, 3, 3, 3):
    per triangle three sub-triangles, each a matrix whose rows are its
    vertices in barycentric coordinates of the parent.
    """
    nc = len(d)
    pos = d > 0.0
    lone = np.where(pos.sum(axis=1) == 1, pos.argmax(axis=1),
                    (d < 0.0).argmax(axis=1))
    rows = np.arange(nc)
    b1, b2 = (lone + 1) % 3, (lone + 2) % 3
    da = d[rows, lone]
    eye = np.eye(3)
    ea, e1, e2 = eye[lone], eye[b1], eye[b2]
    t1 = (da / (da - d[rows, b1]))[:, None]
    t2 = (da / (da - d[rows, b2]))[:, None]
    c1 = (1.0 - t1) * ea + t1 * e1
    c2 = (1.0 - t2) * ea + t2 * e2
    return np.stack([np.stack([ea, c1, c2], axis=1),
                     np.stack([c1, e1, e2], axis=1),
                     np.stack([c1, e2, c2], axis=1)], axis=1)


def assemble_load(mesh: TriMesh, f, order: int = 2,
                  discontinuity: DiscontinuityLine | None = None) -> np.ndarray:
    """Load vector ell_i = int f phi_i via triangle quadrature.

    ``f`` maps (x, y) arrays to values, or to a stack of k value arrays
    (shape (k, npts)); the result is then the (k, n_nodes) stack of
    their loads, from one pass over the quadrature points.  With a
    discontinuity line each crossed triangle is split into three
    sub-triangles along it (see ``_split_crossed``), so the rule never
    straddles the jump.  Every (sub-)triangle is a barycentric matrix B
    in its parent (B = I when uncrossed): its area is |det B| |T|, and at
    a rule point lam the parent hats take the values lam B.
    """
    bary, w = tri_quadrature(order)
    p, t = mesh.nodes, mesh.triangles
    area = mesh.triangle_areas()
    B = np.broadcast_to(np.eye(3), (len(t), 3, 3))
    if discontinuity is not None:
        d = discontinuity.signed_distance(p)[t]
        crossed = (d.max(axis=1) > 1e-14) & (d.min(axis=1) < -1e-14)
        if np.any(crossed):
            split = _split_crossed(d[crossed]).reshape(-1, 3, 3)
            t = np.concatenate([t[~crossed], np.repeat(t[crossed], 3, axis=0)])
            area = np.concatenate([area[~crossed], np.abs(np.linalg.det(split))
                                   * np.repeat(area[crossed], 3)])
            B = np.concatenate([B[~crossed], split])
    corners = p[t]
    ids = t.ravel()
    out = 0.0
    for lam, wq in zip(bary, w):
        hats = np.einsum("k,skj->sj", lam, B)   # parent hats at the point
        xq = np.einsum("sk,skd->sd", hats, corners)
        fv = np.asarray(f(xq[:, 0], xq[:, 1]), dtype=float)
        wts = ((wq * area * fv)[..., None] * hats).reshape(-1, ids.size)
        out = out + np.array([np.bincount(ids, weights=r, minlength=mesh.n_nodes)
                              for r in wts])
    return out.reshape(fv.shape[:-1] + (mesh.n_nodes,))


# ---------------------------------------------------------------------
# fields and systems

@dataclass
class ScalarField:
    """Nodal P1 function."""

    mesh: TriMesh
    values: np.ndarray

    def boundary_values(self) -> np.ndarray:
        tr = boundary_trace_space(self.mesh)
        return self.values[tr.node_ids]


def _find_malloc_trim(libc):
    """glibc's ``malloc_trim`` from a loaded C library, or None where the
    library has no such symbol."""
    fn = getattr(libc, "malloc_trim", None)
    if fn is not None:
        fn.argtypes = [ctypes.c_size_t]
        fn.restype = ctypes.c_int
    return fn


#: returns freed heap pages to the OS before a factorization; None off glibc
try:
    _MALLOC_TRIM = _find_malloc_trim(ctypes.CDLL(None))
except (OSError, TypeError):   # no process symbol table (Windows)
    _MALLOC_TRIM = None


class FemSystem:
    """Assembled operators of a mesh plus a cached interior factorization.

    Attributes: A (stiffness), M (mass), trace (boundary structure),
    interior/boundary index arrays.  The LU factorization of the interior
    block A_II is computed on first use and reused by every solve.  A_II
    is symmetric, so its columns are ordered by minimum degree on the
    pattern of A + A^T, which gives a sparser factor (and cheaper solves)
    than SuperLU's default COLAMD ordering of A^T A.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.trace = boundary_trace_space(mesh)
        self.A = assemble_stiffness(mesh)
        self.M = assemble_mass(mesh)
        self.bnd = self.trace.node_ids
        mask = np.ones(mesh.n_nodes, dtype=bool)
        mask[self.bnd] = False
        self.itr = np.where(mask)[0]
        self._aii = self.A[self.itr][:, self.itr].tocsc()
        self._aib = self.A[self.itr][:, self.bnd].tocsr()
        self._lu = None

    @property
    def lu(self):
        if self._lu is None:
            if _MALLOC_TRIM is not None:
                # hand the freed heap back first: on a fragmented heap the
                # factor's allocations raised the peak RSS by ~20 MiB at random
                _MALLOC_TRIM(0)
            self._lu = spla.splu(self._aii, permc_spec="MMD_AT_PLUS_A")
        return self._lu

    def solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu.solve(rhs)


def _boundary_values_from(system: FemSystem, g) -> np.ndarray:
    tr = system.trace
    if callable(g):
        return np.asarray(g(tr.points[:, 0], tr.points[:, 1]), dtype=float)
    vals = np.asarray(g, dtype=float)
    if vals.shape != (tr.n,):
        raise FemError(f"boundary data must have length {tr.n}")
    return vals


def solve_dirichlet(system: FemSystem, g,
                    load: np.ndarray | None = None) -> ScalarField:
    """Solve -Lap y = f with y = g on the boundary.

    ``g`` is a callable, interpolated at the trace nodes, or an array over
    trace nodes (counterclockwise trace order).  ``load`` is the
    preassembled volume load of f (see ``assemble_load``); none means f = 0.
    """
    gb = _boundary_values_from(system, g)
    ell = (np.zeros(system.mesh.n_nodes) if load is None
           else np.asarray(load, dtype=float))
    rhs = ell[system.itr] - system._aib @ gb
    yi = system.solve_interior(rhs)
    vals = np.empty(system.mesh.n_nodes)
    vals[system.itr] = yi
    vals[system.bnd] = gb
    return ScalarField(system.mesh, vals)


def variational_normal_derivative(system: FemSystem, z, load=None) -> np.ndarray:
    """Lumped discrete outward normal derivative of z on the boundary trace.

    ``z`` is a ScalarField or nodal array solving -Lap z = load (weakly
    against interior hats).  Returns the flux in trace order.
    """
    vals = z.values if isinstance(z, ScalarField) else np.asarray(z, dtype=float)
    res = system.A @ vals
    if load is not None:
        res = res - np.asarray(load, dtype=float)
    return res[system.bnd] / system.trace.lumped


# ---------------------------------------------------------------------
# norms and checks

def l2_norm(mesh: TriMesh, vals, exact=None) -> float:
    """L2 norm of the P1 function, or of its error against ``exact``
    (degree-5 quadrature)."""
    bary, w = tri_quadrature(5)
    p, t = mesh.nodes, mesh.triangles
    corners = p[t]
    area = mesh.triangle_areas()
    v = np.asarray(vals, dtype=float)[t]  # (nt, 3)
    total = 0.0
    for lam, wq in zip(bary, w):
        uh = v @ lam
        if exact is not None:
            xq = np.einsum("k,tkd->td", lam, corners)
            uh = uh - np.asarray(exact(xq[:, 0], xq[:, 1]), dtype=float)
        total += wq * float(np.sum(area * uh * uh))
    return math.sqrt(total)


def h1_seminorm(mesh: TriMesh, vals, grad_exact=None) -> float:
    """H1 seminorm of the P1 function, or of its error against an exact
    gradient ``grad_exact(x, y) -> (gx, gy)`` (degree-5 quadrature)."""
    p, t = mesh.nodes, mesh.triangles
    p0, p1, p2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    area = mesh.triangle_areas()
    v = np.asarray(vals, dtype=float)
    # gradient of P1: sum_i v_i grad lam_i, constant per triangle
    E = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    perp = np.stack([-E[:, :, 1], E[:, :, 0]], axis=2)  # rotate edges by 90 deg
    gh = np.einsum("tk,tkd->td", v[t], perp) / (2.0 * area)[:, None]
    if grad_exact is None:
        return math.sqrt(float(np.sum(area * (gh * gh).sum(axis=1))))
    bary, w = tri_quadrature(5)
    corners = p[t]
    total = 0.0
    for lam, wq in zip(bary, w):
        xq = np.einsum("k,tkd->td", lam, corners)
        gx, gy = grad_exact(xq[:, 0], xq[:, 1])
        ex = gh[:, 0] - np.asarray(gx, dtype=float)
        ey = gh[:, 1] - np.asarray(gy, dtype=float)
        total += wq * float(np.sum(area * (ex * ex + ey * ey)))
    return math.sqrt(total)


def boundary_l2(trace, vals) -> float:
    """L2(Gamma) norm of a trace-order nodal function."""
    v = np.asarray(vals, dtype=float)
    return math.sqrt(float(v @ (trace.mass @ v)))


@dataclass(frozen=True)
class MaxPrincipleReport:
    interior_min: float
    interior_max: float
    boundary_min: float
    boundary_max: float
    violation: float
    satisfied: bool


def check_max_principle(system: FemSystem, field) -> MaxPrincipleReport:
    """Discrete maximum principle: interior range within boundary range,
    up to 1e-10."""
    vals = field.values if isinstance(field, ScalarField) else np.asarray(field)
    vi = vals[system.itr]
    vb = vals[system.bnd]
    if len(vi) == 0:
        vi = vb
    bmin, bmax = float(vb.min()), float(vb.max())
    imin, imax = float(vi.min()), float(vi.max())
    viol = max(0.0, bmin - imin, imax - bmax)
    return MaxPrincipleReport(interior_min=imin, interior_max=imax,
                              boundary_min=bmin, boundary_max=bmax,
                              violation=viol, satisfied=bool(viol <= 1e-10))
