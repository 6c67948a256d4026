"""P1 finite elements on triangular meshes.

Stiffness and mass matrices from the mesh's edge table, Dirichlet solves
with a cached interior factorization, variational normal-derivative
(flux) recovery on the boundary trace, triangle quadrature with optional
subdivision along a discontinuity line, the boundary L2 norm, and a
discrete maximum-principle check.

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

from .meshing import TriMesh


#: relative round-off bound of a solved field: a value of size s is
#: trusted to ROUND_OFF * max(1, s), the tolerance of the maximum-principle
#: check here and of the optimality tests of ``control``
ROUND_OFF = 1e-10


class FemError(RuntimeError):
    pass


# ---------------------------------------------------------------------
# quadrature

_s15 = math.sqrt(15.0)
_b1, _b2 = (6.0 + _s15) / 21.0, (6.0 - _s15) / 21.0
_a1, _a2 = 1.0 - 2.0 * _b1, 1.0 - 2.0 * _b2
_w1, _w2 = (155.0 + _s15) / 1200.0, (155.0 - _s15) / 1200.0
#: barycentric points and weights of the degree-5 rule (7 points,
#: Radon), in closed form
TRI_QUAD_7 = (
    np.array([
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [_a1, _b1, _b1], [_b1, _a1, _b1], [_b1, _b1, _a1],
        [_a2, _b2, _b2], [_b2, _a2, _b2], [_b2, _b2, _a2],
    ]),
    np.array([9.0 / 40.0, _w1, _w1, _w1, _w2, _w2, _w2]),
)


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


def assemble_load(mesh: TriMesh, f,
                  discontinuity: DiscontinuityLine | None = None) -> np.ndarray:
    """Load vector ell_i = int f phi_i by the degree-5 rule TRI_QUAD_7.

    ``f`` maps (x, y) arrays to values, or to a stack of k value arrays
    (shape (k, npts)); the result is then the (k, n_nodes) stack of
    their loads, from one pass over the quadrature points.  With a
    discontinuity line each crossed triangle is split into three
    sub-triangles along it (see ``_split_crossed``), so the rule never
    straddles the jump.  Every (sub-)triangle is a barycentric matrix B
    in its parent (B = I when uncrossed): its area is |det B| |T|, and at
    a rule point lam the parent hats take the values lam B.
    """
    bary, w = TRI_QUAD_7
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


def _symmetric(n: int, edges: np.ndarray, off: np.ndarray,
               diag: np.ndarray) -> sp.csr_matrix:
    """The symmetric n x n matrix with ``diag`` on its diagonal and off[e]
    at (a, b) and (b, a) of each edge e = (a, b)."""
    upper = sp.csr_matrix((off, edges.T), shape=(n, n))
    return (upper + upper.T + sp.diags(diag)).tocsr()


class FemSystem:
    """Assembled operators of a mesh plus a cached interior factorization.

    Attributes: A_bnd (the boundary rows of the stiffness A, for the flux),
    M (mass), trace (boundary structure).  Nodes k < trace.n are the trace
    (see ``meshing._finalize``), so A's blocks are slices.  A is kept only
    as A_bnd and the interior block A_II, which hold each coupling once: A
    is bitwise symmetric, so A_II is the CSC transpose of its CSR slice (the
    same arrays, no copy), and the Dirichlet lift reads A_IB = A_BI^T
    through A_bnd.  A and M are per-edge and per-node ``np.bincount`` sums
    over the mesh's edge table (``TriMesh.edges``, ``TriMesh.tri_edges``).
    With E_v the edge vector of triangle T opposite its vertex v, half-edge
    k couples vertices k and k+1 by E_k . E_(k+1) / (4 |T|) in A and
    |T| / 12 in M, and vertex v gets |E_v|^2 / (4 |T|) and |T| / 6 on the
    diagonal.  An edge sums at most two terms, so its coupling is the same
    in any order; A does not store the couplings that sum to exactly 0.0
    (the hypotenuse of a right-isosceles cell, cot 90 = 0), so the factor
    of a structured mesh sees the 5-point graph of its operator.  The LU
    factorization of A_II is computed on first use (see ``lu``) and reused
    by every solve; a zero right-hand side is answered without it.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        self.trace = mesh.trace
        n, t, edges = mesh.n_nodes, mesh.triangles, mesh.edges
        x, y = mesh.nodes[:, 0][t], mesh.nodes[:, 1][t]
        # E_v runs from vertex v+1 to vertex v+2
        ex = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
        ey = y[:, [2, 0, 1]] - y[:, [1, 2, 0]]
        area = mesh.triangle_areas()
        q = 4.0 * area[:, None]
        half, vert = mesh.tri_edges.ravel(), t.ravel()
        dot = ex * ex[:, [1, 2, 0]] + ey * ey[:, [1, 2, 0]]   # E_k . E_(k+1)
        a_off = np.bincount(half, (dot / q).ravel(), len(edges))
        a_diag = np.bincount(vert, ((ex * ex + ey * ey) / q).ravel(), n)
        keep = a_off != 0.0
        A = _symmetric(n, edges[keep], a_off[keep], a_diag)
        self.M = _symmetric(
            n, edges,
            np.bincount(half, np.repeat(area * (1.0 / 12.0), 3), len(edges)),
            np.bincount(vert, np.repeat(area * (2.0 / 12.0), 3), n))
        nb = self.trace.n
        self._aii = A[nb:, nb:].T
        self.A_bnd = A[:nb]
        self._lu = None

    @property
    def lu(self):
        """SuperLU factor of A_II, with fixed settings for an SPD M-matrix.

        * ``permc_spec="MMD_AT_PLUS_A"``: minimum degree on the pattern of
          A + A^T, which fills far less than the default COLAMD ordering
          of A^T A.
        * ``SymmetricMode``: the elimination tree is that of A + A^T, and
          the diagonal is the preferred pivot.  A_II of a Delaunay or
          nonobtuse mesh is a diagonally dominant M-matrix, so every pivot
          is diagonal (``perm_r == perm_c``).
        * ``relax=1, panel_size=1``: no relaxed supernodes, one-column
          panels.

        On the benchmark and preset meshes (README) SuperLU's defaults
        took 1.3-1.9x the factor time and 1.5-1.9x its peak memory, at the
        same fill.
        """
        if self._lu is None:
            if _MALLOC_TRIM is not None:
                # hand the freed heap back first: on a fragmented heap the
                # factor's allocations raised the peak RSS by ~20 MiB at random
                _MALLOC_TRIM(0)
            self._lu = spla.splu(self._aii, permc_spec="MMD_AT_PLUS_A",
                                 relax=1, panel_size=1,
                                 options={"SymmetricMode": True})
        return self._lu

    def solve_interior(self, rhs: np.ndarray) -> np.ndarray:
        if not rhs.any():
            # e.g. the state at u = 0 with no load: exact zeros, no factor
            return np.zeros(rhs.shape)
        return self.lu.solve(rhs)


def _boundary_values_from(system: FemSystem, g) -> np.ndarray:
    tr = system.trace
    vals = np.asarray(g(tr.points[:, 0], tr.points[:, 1]) if callable(g) else g,
                      dtype=float)
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
    # A_IB gb = (A_bnd^T gb)[nb:] by symmetry, each sum in A_IB's row order
    rhs = (ell - system.A_bnd.T @ gb)[system.trace.n:]
    return ScalarField(system.mesh,
                       np.concatenate([gb, system.solve_interior(rhs)]))


def variational_normal_derivative(system: FemSystem, z, load=None) -> np.ndarray:
    """Lumped discrete outward normal derivative of z on the boundary trace.

    ``z`` is a ScalarField or nodal array solving -Lap z = load (weakly
    against interior hats).  Returns the flux in trace order.
    """
    vals = z.values if isinstance(z, ScalarField) else np.asarray(z, dtype=float)
    res = system.A_bnd @ vals
    if load is not None:
        res = res - np.asarray(load, dtype=float)[:system.trace.n]
    return res / system.trace.lumped


# ---------------------------------------------------------------------
# boundary norm and checks

def boundary_l2(trace, vals) -> float:
    """L2(Gamma) norm of a trace-order nodal function."""
    v = np.asarray(vals, dtype=float)
    return math.sqrt(float(v @ (trace.mass @ v)))


@dataclass(frozen=True)
class MaxPrincipleReport:
    violation: float
    satisfied: bool


def check_max_principle(system: FemSystem, field) -> MaxPrincipleReport:
    """Discrete maximum principle: interior range within boundary range,
    up to ROUND_OFF times the boundary values' size (at least 1)."""
    vals = field.values if isinstance(field, ScalarField) else np.asarray(field)
    vb, vi = np.split(vals, [system.trace.n])
    if len(vi) == 0:
        vi = vb
    viol = max(0.0, float(vb.min() - vi.min()), float(vi.max() - vb.max()))
    slack = ROUND_OFF * max(1.0, float(np.abs(vb).max()))
    return MaxPrincipleReport(violation=viol, satisfied=bool(viol <= slack))
