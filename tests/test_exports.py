"""CSV writers: byte-equal to formatting each cell through ``_fmt`` (the
per-cell reference ``write_rows`` below), and the per-level tables join on
row numbers."""

import csv
import os
from types import SimpleNamespace

import numpy as np
import pytest

from dclab import exports, harness
from dclab.geometry import PolygonalDomain, l_shape, unit_square
from dclab.meshing import structured_mesh, triangulate

SPECIAL = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308,
           0.1, -2.5e-300, 1.0, 123456789.0]


def write_rows(path, header, rows):
    """CSV with a header row, each cell through ``exports._fmt``: the
    per-cell reference that ``write_columns`` matches byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([exports._fmt(v) for v in row])


def _reference_mesh_csv(outdir, mesh):
    write_rows(os.path.join(outdir, "mesh_nodes.csv"), ["x", "y"],
               ((p[0], p[1]) for p in mesh.nodes))
    write_rows(os.path.join(outdir, "mesh_triangles.csv"),
               ["n0", "n1", "n2"],
               ((t[0], t[1], t[2]) for t in mesh.triangles))


def _reference_field_csv(path, columns):
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    write_rows(path, list(columns),
               (tuple(a[i] for a in arrays) for i in range(len(arrays[0]))))


def _reference_boundary_csv(path, mesh, columns):
    tr = mesh.trace
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    write_rows(path, ["side", "arc"] + list(columns),
               ((tr.side_of_segment[k], tr.arc[k], *(a[k] for a in arrays))
                for k in range(tr.n)))


def _special_column(n, shift):
    return np.resize(np.roll(SPECIAL, shift), n)


@pytest.mark.parametrize("block_rows", [3, exports.BLOCK_ROWS])
def test_nodal_writers_match_per_cell_rows(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(exports, "BLOCK_ROWS", block_rows)
    mesh = structured_mesh(l_shape(), 1 / 4)
    n = mesh.n_nodes
    # special floats as coordinates and int64 ids beyond 32 bits
    odd = SimpleNamespace(
        nodes=np.column_stack([_special_column(n, 0), _special_column(n, 3)]),
        triangles=mesh.triangles.astype(np.int64) + 2 ** 40)
    fields = {"state": _special_column(n, 1), "ints": np.arange(n) - 3,
              "bools": np.arange(n) % 2 == 0}
    nb = mesh.trace.n
    bnd = {"u": _special_column(nb, 5), "flux": np.linspace(-1.0, 1.0, nb)}
    for sub, writers in {
        "new": (exports.write_mesh_csv, exports.write_field_csv,
                exports.write_boundary_csv),
        "ref": (_reference_mesh_csv, _reference_field_csv,
                _reference_boundary_csv),
    }.items():
        out = tmp_path / sub
        out.mkdir()
        write_mesh, write_field, write_boundary = writers
        write_mesh(str(out), odd)
        write_field(str(out / "fields.csv"), fields)
        write_boundary(str(out / "boundary.csv"), mesh, bnd)
        (out / "empty").mkdir()
        write_mesh(str(out / "empty"),
                   SimpleNamespace(nodes=np.zeros((0, 2)),
                                   triangles=np.zeros((0, 3), dtype=np.int64)))
    for name in ("mesh_nodes.csv", "mesh_triangles.csv", "fields.csv",
                 "boundary.csv", "empty/mesh_nodes.csv", "empty/mesh_triangles.csv"):
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "ref" / name).read_bytes(), name
    text = (tmp_path / "new" / "mesh_nodes.csv").read_text()
    assert "-0," in text and "nan" in text and "-inf" in text
    assert "4.9406564584124654e-324" in text
    assert str(2 ** 40) in (tmp_path / "new" / "mesh_triangles.csv").read_text()


def _reference_iteration_csv(path, history):
    write_rows(path, ["iteration", "active_lower", "active_upper",
                      "objective", "kkt"],
               ((rec["iteration"], rec["active_lower"], rec["active_upper"],
                 rec["objective"], rec["kkt"]) for rec in history))


def _reference_extraction_csv(path, fits):
    rows = []
    for level, per_corner in enumerate(fits):
        for j in sorted(per_corner):
            fit = per_corner[j]
            for m in sorted(fit.coefficients):
                rows.append((level, j, m, fit.coefficients[m], fit.residual,
                             fit.annulus[0], fit.annulus[1], fit.n_nodes))
    write_rows(path, ["level", "corner", "mode", "coefficient", "residual",
                      "annulus_lo", "annulus_hi", "n_nodes"], rows)


def _reference_trends_csv(path, cfg, domain, levels):
    corners = harness._analysed_corners(domain)
    header = ["level", "h", "nodes", "triangles"]
    if cfg["problem"] is not None:
        header += ["iterations", "kkt", "max_u", "objective"]
        for j in corners:
            header += [f"c{m}_corner{j}" for m in harness.MODES]
            header += [f"flat_radius_corner{j}", f"slope_corner{j}"]
    else:
        header += ["slope", "boundary_residual"]
    rows = []
    for rec in levels:
        row = [rec.index, rec.h, rec.n_nodes, rec.n_triangles]
        if cfg["problem"] is not None:
            main = rec.solves[harness._primary(cfg["problem"]["solve"])]
            row += [main["iterations"], main["kkt"], main["max_u"],
                    main["objective"]]
            for j in corners:
                fit = rec.fits.get(j)
                row += ["" if fit is None else fit.coefficients[m]
                        for m in harness.MODES]
                v = rec.flatness.get(j)
                row.append("" if v is None or v.radius is None else v.radius)
                row.append(rec.slopes.get(j, ""))
        else:
            r = rec.expansion
            row += ["", ""] if r is None else [r.slope, r.boundary_residual]
        rows.append(row)
    write_rows(path, header, rows)


def _fit(c1, c2, residual, n_nodes):
    return SimpleNamespace(coefficients={2: c2, 1: c1}, residual=residual,
                           annulus=(0.0625, 0.125), n_nodes=n_nodes)


def _scan(radius):
    """A flatness scan as ``trends.csv`` reads it: its radius or None."""
    return SimpleNamespace(radius=radius)


def _level(k, fits=None, flatness=None, slopes=None, expansion=None):
    value = SPECIAL[k % len(SPECIAL)]
    solve = {"iterations": 5 + k, "kkt": value, "max_u": 1.0 / (k + 3),
             "objective": -value}
    return SimpleNamespace(
        index=k, h=0.25 / 2 ** k, n_nodes=np.int64(81 * 4 ** k),
        n_triangles=128 * 4 ** k,
        solves={"constrained": solve, "unconstrained": dict(solve, kkt=0.1)},
        fits=fits or {}, flatness=flatness or {}, slopes=slopes or {},
        expansion=expansion)


@pytest.mark.parametrize("block_rows", [3, exports.BLOCK_ROWS])
def test_tables_match_per_cell_rows(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(exports, "BLOCK_ROWS", block_rows)
    history = [{"iteration": k, "active_lower": 3 * k, "active_upper": 40 - k,
                "objective": SPECIAL[k], "kkt": np.float64(SPECIAL[-k])}
               for k in range(len(SPECIAL))]
    fits = [{2: _fit(0.1, float("nan"), 5e-324, np.int64(40))}, {},
            {5: _fit(-0.0, 1e308, 0.5, 12),
             4: _fit(np.float64(0.3), -2.5, 0.0, 9)}]
    two_corners = PolygonalDomain(
        [[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1.5], [1, 2], [0, 2]])
    control_levels = [
        _level(0),
        _level(1, fits={4: fits[2][4]}, slopes={4: -0.3},
               flatness={4: _scan(None), 5: _scan(0.25)}),
        _level(2, fits=fits[2], slopes={4: float("nan"), 5: 0.7},
               flatness={4: _scan(0.1), 5: _scan(None)}),
        _level(3, fits=fits[2], slopes={4: 1.5, 5: 2.5},
               flatness={4: _scan(0.1), 5: _scan(0.2)})]
    expansion_levels = [
        _level(k, expansion=None if k == 1 else SimpleNamespace(
            slope=SPECIAL[k], boundary_residual=1e-3 * k)) for k in range(4)]
    tables = [
        ("iterations.csv", "iterations", (history,)),
        ("iterations_empty.csv", "iterations", ([],)),
        ("extraction.csv", "extraction", (fits,)),
        ("trends_both.csv", "trends",
         ({"problem": {"solve": "both"}}, two_corners, control_levels)),
        ("trends_constrained.csv", "trends",
         ({"problem": {"solve": "constrained"}}, l_shape(),
          control_levels[:1])),
        ("trends_expansion.csv", "trends",
         ({"problem": None}, unit_square(), expansion_levels)),
    ]
    writers = {
        "new": {"iterations": exports.write_iteration_csv,
                "extraction": exports.write_extraction_csv,
                "trends": harness._write_trends_csv},
        "ref": {"iterations": _reference_iteration_csv,
                "extraction": _reference_extraction_csv,
                "trends": _reference_trends_csv},
    }
    for sub, by_kind in writers.items():
        (tmp_path / sub).mkdir()
        for name, kind, args in tables:
            by_kind[kind](str(tmp_path / sub / name), *args)
    for name, _, _ in tables:
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "ref" / name).read_bytes(), name
    trends = (tmp_path / "new" / "trends_both.csv").read_text()
    # blank cells where a level has no fit, flatness radius or slope
    assert trends.splitlines()[1].endswith(",,,,,,,,")
    assert ",0.10000000000000001," in trends
    assert (tmp_path / "new" / "iterations_empty.csv").read_bytes() == (
        b"iteration,active_lower,active_upper,objective,kkt\r\n")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_tables_join_on_row_numbers(tmp_path):
    mesh = triangulate(l_shape(), 1 / 8, {2: 0.5})
    n, tr = mesh.n_nodes, mesh.trace
    exports.write_mesh_csv(str(tmp_path), mesh)
    exports.write_field_csv(str(tmp_path / "fields.csv"),
                            {"state": np.linspace(0.0, 1.0, n)})
    exports.write_boundary_csv(str(tmp_path / "boundary.csv"), mesh,
                               {"u": np.ones(tr.n)})
    nodes = _read_csv(tmp_path / "mesh_nodes.csv")
    tris = _read_csv(tmp_path / "mesh_triangles.csv")
    fields = _read_csv(tmp_path / "fields.csv")
    bnd = _read_csv(tmp_path / "boundary.csv")
    assert nodes[0] == ["x", "y"] and len(nodes) == n + 1
    assert fields[0] == ["state"] and len(fields) == len(nodes)
    assert tris[0] == ["n0", "n1", "n2"]
    assert len(tris) == mesh.n_triangles + 1
    ids = np.array(tris[1:], dtype=np.int64)
    assert ids.min() >= 0 and ids.max() < len(nodes) - 1
    # row k of boundary.csv is trace position k, row k of mesh_nodes.csv
    assert bnd[0] == ["side", "arc", "u"] and len(bnd) == tr.n + 1
    assert nodes[1:tr.n + 1] == [[format(x, ".17g"), format(y, ".17g")]
                                 for x, y in tr.points]
    arc = np.array([row[1] for row in bnd[1:]], dtype=float)
    seg = np.linalg.norm(np.diff(np.array(nodes[1:tr.n + 1], dtype=float),
                                 axis=0), axis=1)
    assert np.allclose(np.diff(arc), seg, rtol=0.0, atol=1e-12)
