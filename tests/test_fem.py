"""Assembly, Dirichlet solves, flux recovery, norms, quadrature."""

import ctypes
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from dclab import fem
from dclab.config import resolve_config
from dclab.geometry import PolygonalDomain, build_domain, l_shape, unit_square
from dclab.harness import _make_target, make_mesh
from dclab.meshing import _edges, _finalize, structured_mesh, triangulate
from dclab.fem import (
    DiscontinuityLine,
    FemError,
    TRI_QUAD_7,
    FemSystem,
    assemble_load,
    boundary_l2,
    ROUND_OFF,
    check_max_principle,
    solve_dirichlet,
    _split_crossed,
    variational_normal_derivative,
)

from helpers import h1_seminorm, l2_norm


def _sing(x, y):
    r = np.hypot(x, y)
    th = np.arctan2(y, x) % (2.0 * np.pi)
    return r ** (2.0 / 3.0) * np.sin(2.0 / 3.0 * th)


def _sing_grad(x, y):
    r = np.hypot(x, y)
    th = np.arctan2(y, x) % (2.0 * np.pi)
    k = 2.0 / 3.0
    dr = k * r ** (k - 1.0) * np.sin(k * th)
    dt = k * r ** (k - 1.0) * np.cos(k * th)
    return (dr * np.cos(th) - dt * np.sin(th),
            dr * np.sin(th) + dt * np.cos(th))


# ---------------------------------------------------------------------
# quadrature and assembly

def test_quadrature_exactness():
    bary, w = TRI_QUAD_7
    assert w.sum() == pytest.approx(1.0)
    # integrate x^a y^b, a + b <= 5, over the reference triangle and
    # compare with a! b! / (a + b + 2)!: the rule is given in closed form,
    # so exact to round-off
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for a in range(6):
        for b in range(6 - a):
            xq = bary @ ref
            got = 0.5 * np.sum(w * xq[:, 0] ** a * xq[:, 1] ** b)
            want = (math.factorial(a) * math.factorial(b)
                    / math.factorial(a + b + 2))
            assert abs(got - want) <= 1e-15 * want, (a, b)


def test_factorization_without_malloc_trim(monkeypatch):
    # a C library without the glibc symbol: no trim, the factor still works
    class NoTrimLibc:
        pass
    assert fem._find_malloc_trim(NoTrimLibc()) is None
    monkeypatch.setattr(fem, "_MALLOC_TRIM",
                        fem._find_malloc_trim(NoTrimLibc()))
    system = FemSystem(structured_mesh(unit_square(), 1 / 8))
    b = np.ones(system._aii.shape[0])
    x = system.solve_interior(b)
    assert np.linalg.norm(system._aii @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_malloc_trim_runs_before_each_factorization(monkeypatch):
    calls = []
    trim = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_size_t)(
        lambda pad: calls.append(pad) or 1)
    monkeypatch.setattr(fem, "_MALLOC_TRIM", trim)
    system = FemSystem(structured_mesh(unit_square(), 1 / 8))
    system.lu
    system.lu
    assert calls == [0]


def _whole_stiffness(system):
    """A rebuilt from its stored blocks: A_bnd, then [A_BI^T  A_II]."""
    nb = system.trace.n
    lower = sp.hstack([system.A_bnd[:, nb:].T, system._aii])
    return sp.vstack([system.A_bnd, lower], format="csr")


def test_stiffness_structure():
    mesh = triangulate(l_shape(), 0.21)
    A = _whole_stiffness(FemSystem(mesh))
    assert (A != A.T).nnz == 0
    # constants are in the kernel
    assert np.abs(A @ np.ones(mesh.n_nodes)).max() < 1e-12


def _summed(mesh, ke):
    """Reference assembly: the element matrices ``ke`` (nt, 3, 3) summed
    entry by entry in triangle order (``np.bincount`` over the distinct
    (i, j) keys), entries that sum to exactly 0.0 not stored."""
    t, n = mesh.triangles, mesh.n_nodes
    ii = np.repeat(t, 3, axis=1).ravel()
    jj = np.tile(t, 3).ravel()
    keys, inv = np.unique(ii * n + jj, return_inverse=True)
    vals = np.bincount(inv.ravel(), ke.ravel())
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (keys[keep] // n, keys[keep] % n)),
                         shape=(n, n))


def _coo_stiffness(mesh):
    """Reference stiffness from the 3 x 3 element matrices."""
    p, t = mesh.nodes, mesh.triangles
    p0, p1, p2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    # edge vectors opposite each vertex
    E = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    u, v = p1 - p0, p2 - p0
    area = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    return _summed(mesh, np.einsum("tid,tjd->tij", E, E)
                   / (4.0 * area)[:, None, None])


def _coo_mass(mesh):
    """Reference consistent mass from the 3 x 3 element matrices."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _summed(mesh, mesh.triangle_areas()[:, None, None] * base)


_ASSEMBLY_CASES = {
    "square-1/8": lambda: structured_mesh(unit_square(), 1 / 8),
    "l-shape-1/12": lambda: structured_mesh(l_shape(), 1 / 12),
    "l-shape-1/128": lambda: structured_mesh(l_shape(), 1 / 128),
    "graded-l-shape-1/32": lambda: triangulate(l_shape(), 1 / 32,
                                               grading={2: 0.5}),
    "sector-0.025": lambda: triangulate(build_domain("sector(3pi/2, 64)"),
                                        0.025),
    "rotated-lattice": lambda: triangulate(l_shape(), 1 / 16,
                                           lattice_angle=0.011),
}


@pytest.mark.parametrize("case", list(_ASSEMBLY_CASES))
def test_edge_assembly_matches_coo_reference(case):
    # Same stored pattern, and every entry bit-equal: the edge form and
    # the reference both add an entry's terms in triangle order.  A_II is
    # the CSC transpose of its CSR slice; by symmetry its arrays are the
    # reference block's CSR arrays
    mesh = _ASSEMBLY_CASES[case]()
    system = FemSystem(mesh)
    A, nb = _coo_stiffness(mesh), system.trace.n
    assert system._aii.format == "csc"
    for got, want in [(system.A_bnd, A[:nb]), (system._aii, A[nb:, nb:]),
                      (system.M, _coo_mass(mesh))]:
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("build", [
    lambda: structured_mesh(l_shape(), 1 / 32),
    lambda: triangulate(l_shape(), 1 / 32, grading={2: 0.5}),
], ids=["structured", "graded"])
def test_factor_pivots_on_the_diagonal_at_the_default_fill(build):
    # symmetric mode without relaxed supernodes or panels: the same fill
    # as SuperLU's defaults, diagonal pivots, a backward-stable solve
    system = FemSystem(build())
    lu = system.lu
    assert np.array_equal(lu.perm_r, lu.perm_c)
    default = spla.splu(system._aii, permc_spec="MMD_AT_PLUS_A")
    assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz
    b = np.random.default_rng(5).normal(size=system._aii.shape[0])
    x = system.solve_interior(b)
    assert (np.linalg.norm(system._aii @ x - b)
            <= 1e-12 * np.linalg.norm(b))


def test_interior_factor_uses_symmetric_ordering():
    # minimum degree on A + A^T fills less than SuperLU's COLAMD default
    system = FemSystem(structured_mesh(l_shape(), 1.0 / 64.0))
    lu = system.lu
    colamd = spla.splu(system._aii)
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz
    b = np.random.default_rng(0).normal(size=system._aii.shape[0])
    x = system.solve_interior(b)
    assert (np.linalg.norm(system._aii @ x - b)
            <= 1e-12 * np.linalg.norm(b))


def _with_edge_zeros(A, mesh):
    """A with an explicit 0.0 added at every diagonal and mesh-edge
    position, summed COO -> CSR as the assembly sums its element
    matrices: the matrix a stiffness stores when its zeros are kept."""
    coo = A.tocoo()
    e = _edges(mesh.triangles, mesh.n_nodes)[1]
    d = np.arange(mesh.n_nodes)
    rows = np.concatenate([coo.row, d, e[:, 0], e[:, 1]])
    cols = np.concatenate([coo.col, d, e[:, 1], e[:, 0]])
    vals = np.concatenate([coo.data, np.zeros(len(rows) - coo.nnz)])
    return sp.coo_matrix((vals, (rows, cols)), shape=A.shape).tocsr()


@pytest.mark.parametrize("h", [1 / 8, 0.1, 1 / 12])
@pytest.mark.parametrize("domain", [unit_square, l_shape])
def test_structured_stiffness_stores_the_5_point_graph(domain, h):
    # the hypotenuse couplings of a right-isosceles cell cancel exactly
    # (cot 90 = 0) and are not stored: A holds the diagonal and the
    # axis-parallel edges, nothing else and no zero
    mesh = structured_mesh(domain(), h)
    A = _whole_stiffness(FemSystem(mesh))
    assert np.count_nonzero(A.data == 0.0) == 0
    e = _edges(mesh.triangles, mesh.n_nodes)[1]
    d = mesh.nodes[e[:, 1]] - mesh.nodes[e[:, 0]]
    axis = e[(d[:, 0] == 0.0) | (d[:, 1] == 0.0)]
    assert len(axis) < len(e)
    assert A.nnz == mesh.n_nodes + 2 * len(axis)
    coo = A.tocoo()
    stored = set(zip(coo.row.tolist(), coo.col.tolist()))
    want = {(i, i) for i in range(mesh.n_nodes)}
    want |= {(i, j) for i, j in axis.tolist()} | {(j, i) for i, j in axis.tolist()}
    assert stored == want


def test_pruned_factor_fills_less_and_solves_the_same():
    mesh = structured_mesh(l_shape(), 1 / 32)
    system = FemSystem(mesh)
    A = _whole_stiffness(system)
    full = _with_edge_zeros(A, mesh)
    assert full.nnz > A.nnz and (full != A).nnz == 0
    nb = system.trace.n
    aii = full[nb:, nb:].tocsc()
    lu_full = spla.splu(aii, permc_spec="MMD_AT_PLUS_A")
    lu = system.lu
    assert lu.L.nnz + lu.U.nnz < lu_full.L.nnz + lu_full.U.nnz
    rng = np.random.default_rng(3)
    b = rng.normal(size=aii.shape[0])
    x, x_full = system.solve_interior(b), lu_full.solve(b)
    assert np.linalg.norm(x - x_full) <= 1e-12 * np.linalg.norm(x_full)
    # the dropped terms were 0.0 * x_j
    z = rng.normal(size=mesh.n_nodes)
    assert (system.A_bnd @ z).tobytes() == (full[:nb] @ z).tobytes()
    assert (system._aii @ z[nb:]).tobytes() == (aii @ z[nb:]).tobytes()


def test_zero_rhs_skips_the_factor():
    system = FemSystem(structured_mesh(l_shape(), 1 / 8))
    n = system._aii.shape[0]
    rhs = np.zeros(n)
    x = system.solve_interior(rhs)
    # a system whose every solve is zero never factors
    assert system._lu is None
    assert x is not rhs and x.shape == (n,) and x.dtype == np.float64
    assert not x.any() and not np.signbit(x).any()
    # SuperLU answers a zero right-hand side with the same +0.0
    real = spla.splu(system._aii, permc_spec="MMD_AT_PLUS_A")
    assert real.solve(rhs).tobytes() == x.tobytes()

    class Counting:
        calls = 0

        def solve(self, b):
            self.calls += 1
            return real.solve(b)

    system._lu = Counting()
    x2 = system.solve_interior(rhs)
    assert system._lu.calls == 0 and x2 is not x and not x2.any()
    x2[0] = 1.0
    assert not x.any() and not rhs.any()
    b = np.ones(n)
    assert system.solve_interior(b).tobytes() == real.solve(b).tobytes()
    assert system._lu.calls == 1


def test_mass_total():
    mesh = triangulate(l_shape(), 0.21)
    M = FemSystem(mesh).M
    assert M.sum() == pytest.approx(mesh.domain.area, rel=1e-12)
    one = np.ones(mesh.n_nodes)
    assert one @ (M @ one) == pytest.approx(3.0, rel=1e-12)


def test_load_constant():
    mesh = structured_mesh(unit_square(), 0.25)
    ell = assemble_load(mesh, lambda x, y: np.ones_like(x))
    assert ell.sum() == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------
# Dirichlet solves

def test_constant_data_reproduced():
    sysm = FemSystem(triangulate(unit_square(), 0.13))
    y = solve_dirichlet(sysm, lambda x, yy: np.ones_like(x))
    assert np.abs(y.values - 1.0).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), c=st.floats(-3, 3))
def test_linear_data_reproduced(a, b, c):
    # P1 spaces contain linears, so the discrete harmonic extension of a
    # linear trace is that linear, to roundoff
    mesh = _LIN_MESH
    sysm = _LIN_SYS
    g = a * mesh.nodes[:, 0] + b * mesh.nodes[:, 1] + c
    tr = sysm.trace
    y = solve_dirichlet(sysm, g[:tr.n])
    assert np.abs(y.values - g).max() < 1e-10 * (1 + abs(a) + abs(b) + abs(c))


_LIN_MESH = triangulate(l_shape(), 0.19)
_LIN_SYS = FemSystem(_LIN_MESH)


def test_manufactured_convergence():
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    gex = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                        np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    errs, herrs = [], []
    for m in [structured_mesh(unit_square(), 1 / 8 / 2**k) for k in range(3)]:
        sysm = FemSystem(m)
        y = solve_dirichlet(sysm, lambda x, yy: 0.0 * x, load=assemble_load(m, f))
        errs.append(l2_norm(m, y.values, exact))
        herrs.append(h1_seminorm(m, y.values, gex))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    hrates = np.log2(np.array(herrs[:-1]) / np.array(herrs[1:]))
    assert np.all(rates > 1.9)
    assert np.all(hrates > 0.95)


def test_harmonic_quadratic():
    sysm = FemSystem(triangulate(unit_square(), 0.1))
    g = lambda x, y: x * x - y * y
    y = solve_dirichlet(sysm, g)
    assert l2_norm(sysm.mesh, y.values, g) < 2e-3


def test_singular_h1_rate_ungraded():
    # H1 convergence is capped at lambda = 2/3 on quasi-uniform meshes
    herrs = []
    for m in [structured_mesh(l_shape(), 1 / 8 / 2**k) for k in range(3)]:
        y = solve_dirichlet(FemSystem(m), _sing)
        herrs.append(h1_seminorm(m, y.values, _sing_grad))
    rates = np.log2(np.array(herrs[:-1]) / np.array(herrs[1:]))
    assert np.all((rates > 0.55) & (rates < 0.78))


def test_singular_h1_rate_graded():
    # grading mu = lambda = 2/3 restores first order
    herrs = []
    for m in [triangulate(l_shape(), 1 / 8 / 2**k, grading={2: 2 / 3})
              for k in range(3)]:
        y = solve_dirichlet(FemSystem(m), _sing)
        herrs.append(h1_seminorm(m, y.values, _sing_grad))
    rates = np.log2(np.array(herrs[:-1]) / np.array(herrs[1:]))
    assert rates[-1] > 0.85


def test_bad_boundary_data():
    sysm = FemSystem(structured_mesh(unit_square(), 0.5))
    with pytest.raises(FemError):
        solve_dirichlet(sysm, np.zeros(3))


@pytest.mark.parametrize("g", [
    lambda x, y: 1.0,
    lambda x, y: x[:, None],
    lambda x, y: np.ones(len(x) - 1),
], ids=["scalar", "column", "short"])
def test_callable_boundary_data_checks_its_shape(g):
    # a callable's values take the array path: one value per trace node
    sysm = FemSystem(structured_mesh(unit_square(), 0.25))
    with pytest.raises(FemError, match=f"length {sysm.trace.n}"):
        solve_dirichlet(sysm, g)


# ---------------------------------------------------------------------
# flux recovery

def test_flux_of_linear_exact_on_lattice():
    sysm = FemSystem(structured_mesh(unit_square(), 1 / 8))
    z = solve_dirichlet(sysm, lambda x, y: x)
    d = variational_normal_derivative(sysm, z)
    tr = sysm.trace
    for side, want in ((1, 1.0), (3, -1.0), (0, 0.0), (2, 0.0)):
        pos = tr.side_positions(side)[1:-1]
        assert np.abs(d[pos] - want).max() < 1e-12


def test_flux_compatibility():
    # total boundary flux equals minus the total load
    sysm = FemSystem(triangulate(l_shape(), 0.17))
    ell = assemble_load(sysm.mesh, lambda x, y: np.ones_like(x))
    z = solve_dirichlet(sysm, lambda x, y: 0.0 * x, load=ell)
    d = variational_normal_derivative(sysm, z, load=ell)
    total = float(sysm.trace.lumped @ d)
    assert total == pytest.approx(-sysm.mesh.domain.area, abs=1e-12)


def test_flux_takes_the_boundary_rows_bit_for_bit():
    # A_bnd holds A's boundary rows in trace order with each row's entries
    # in A's order, so the flux equals the whole product restricted to
    # the trace, bit for bit
    sysm = FemSystem(triangulate(l_shape(), 0.17))
    A = _coo_stiffness(sysm.mesh)
    rng = np.random.default_rng(5)
    z = rng.normal(size=sysm.mesh.n_nodes)
    ell = rng.normal(size=sysm.mesh.n_nodes)
    lumped = sysm.trace.lumped
    assert sysm.A_bnd.shape == (sysm.trace.n, sysm.mesh.n_nodes)
    assert (variational_normal_derivative(sysm, z).tobytes()
            == ((A @ z)[:sysm.trace.n] / lumped).tobytes())
    assert (variational_normal_derivative(sysm, z, load=ell).tobytes()
            == ((A @ z - ell)[:sysm.trace.n] / lumped).tobytes())


@pytest.mark.parametrize("case", ["l-shape-1/12", "graded-l-shape-1/32",
                                  "rotated-lattice"])
def test_dirichlet_lift_reads_the_boundary_rows_bit_for_bit(case):
    # A_IB g is formed as (A_bnd^T g)[nb:]; A is bitwise symmetric, and
    # both products add each row's terms in column order, so the state
    # equals the one from the reference's own A_IB block
    mesh = _ASSEMBLY_CASES[case]()
    sysm = FemSystem(mesh)
    nb = sysm.trace.n
    rng = np.random.default_rng(7)
    g, ell = rng.normal(size=nb), rng.normal(size=mesh.n_nodes)
    rhs = ell[nb:] - _coo_stiffness(mesh)[nb:, :nb] @ g
    want = np.concatenate([g, sysm.solve_interior(rhs)])
    assert solve_dirichlet(sysm, g, load=ell).values.tobytes() == want.tobytes()


def test_flux_converges_to_manufactured():
    f = lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    errs = []
    for m in [structured_mesh(unit_square(), 1 / 16 / 2**k) for k in range(2)]:
        sysm = FemSystem(m)
        ell = assemble_load(m, f)
        y = solve_dirichlet(sysm, lambda x, yy: 0.0 * x, load=ell)
        d = variational_normal_derivative(sysm, y, load=ell)
        tr = sysm.trace
        pos = tr.side_positions(0)[1:-1]
        want = -np.pi * np.sin(np.pi * tr.points[pos, 0])
        errs.append(np.abs(d[pos] - want).max())
    assert errs[0] < 0.02
    assert errs[1] < 0.3 * errs[0]


# ---------------------------------------------------------------------
# norms, max principle, discontinuous loads

def test_norm_oracles():
    mesh = structured_mesh(unit_square(), 1 / 32)
    x = mesh.nodes[:, 0]
    # ||x||_L2 = 1/sqrt(3), |x|_H1 = 1, exact for P1 data
    assert l2_norm(mesh, x) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert h1_seminorm(mesh, x) == pytest.approx(1.0, rel=1e-12)
    tr = FemSystem(mesh).trace
    assert boundary_l2(tr, np.ones(tr.n)) == pytest.approx(2.0, rel=1e-12)


def test_max_principle_reports():
    sysm = FemSystem(structured_mesh(unit_square(), 1 / 16))
    g = lambda x, y: np.sin(3 * x) - np.cos(2 * y)
    rep = check_max_principle(sysm, solve_dirichlet(sysm, g))
    assert rep.satisfied and rep.violation == 0.0
    bad = np.zeros(sysm.mesh.n_nodes)
    bad[sysm.trace.n] = 1.0   # the first interior node
    rep = check_max_principle(sysm, bad)
    assert not rep.satisfied
    assert rep.violation == pytest.approx(1.0)


@pytest.mark.parametrize("size", [1.0, 1e6])
def test_max_principle_slack_scales_with_the_field(size):
    # ROUND_OFF bounds the violation at fields of size 1 and below, and
    # relative to the boundary values' size above
    sysm = FemSystem(structured_mesh(unit_square(), 1 / 8))
    field = np.full(sysm.mesh.n_nodes, size)
    for excess, ok in ((0.5 * ROUND_OFF, True), (2.0 * ROUND_OFF, False)):
        field[sysm.trace.n] = size + excess * size
        rep = check_max_principle(sysm, field)
        assert rep.satisfied == ok


def test_discontinuous_load_clipped_exactly():
    mesh = structured_mesh(unit_square(), 1 / 8)
    line = DiscontinuityLine((0.37, 0.0), (1.0, 0.0))
    step = lambda x, y: (x > 0.37).astype(float)
    ell = assemble_load(mesh, step, discontinuity=line)
    assert ell.sum() == pytest.approx(0.63, rel=1e-12)
    # without clipping the quadrature misplaces the jump
    raw = assemble_load(mesh, step)
    assert abs(raw.sum() - 0.63) > 1e-3


@pytest.mark.parametrize("on_line", [0, 1, 2])
def test_split_with_vertex_on_line_keeps_area(on_line):
    # right triangle cut by the line x = y through one of its vertices
    tri = np.roll(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), on_line, axis=0)
    mesh = _finalize(PolygonalDomain(tri), tri, np.array([[0, 1, 2]]),
                     [[0, 1], [1, 2], [2, 0]])
    line = DiscontinuityLine((0.0, 0.0), (1.0, -1.0))
    d = line.signed_distance(tri)[None, :]
    sub = np.abs(np.linalg.det(_split_crossed(d)[0]))
    assert sub.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(sub) == 2  # one sub-triangle has zero area
    # each side gets its own half: 0.25 * 1 + 0.25 * 3
    step = lambda x, y: np.where(x > y, 1.0, 3.0)
    ell = assemble_load(mesh, step, discontinuity=line)
    assert ell.sum() == pytest.approx(1.0, abs=1e-15)


def test_skew_step_target_integrates_exactly():
    # ex38-skew level 0: the odd step across the bisector of the sector's
    # corner, +-1, integrates to 0 and its square to |Omega|
    cfg, dom = resolve_config({
        "domain": "sector(3pi/2, 64)", "corner_radii": {"0": 0.3},
        "mesh": {"kind": "triangulated", "h0": 0.05},
        "problem": {"nu": 1.0, "target": {"kind": "skew-step",
                                          "corner": 0}}})
    mesh = make_mesh(dom, cfg["mesh"], 0)
    target = _make_target(dom, cfg["problem"]["target"])
    line = target.discontinuity
    assert np.any(np.abs(line.signed_distance(mesh.nodes)) < 1e-14)
    odd = assemble_load(mesh, target.fn, discontinuity=line)
    sq = assemble_load(mesh, lambda x, y: target.fn(x, y) ** 2,
                       discontinuity=line)
    assert abs(odd.sum()) < 1e-12
    assert abs(sq.sum() - dom.area) < 1e-12
