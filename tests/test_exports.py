"""Nodal CSV writers: byte-equal to the per-cell ``write_rows`` path, and
the per-level tables join on row numbers."""

import csv
import os
from types import SimpleNamespace

import numpy as np
import pytest

from dclab import exports
from dclab.geometry import l_shape
from dclab.meshing import structured_mesh, triangulate

SPECIAL = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308,
           0.1, -2.5e-300, 1.0, 123456789.0]


def _reference_mesh_csv(outdir, mesh):
    exports.write_rows(os.path.join(outdir, "mesh_nodes.csv"), ["x", "y"],
                       ((p[0], p[1]) for p in mesh.nodes))
    exports.write_rows(os.path.join(outdir, "mesh_triangles.csv"),
                       ["n0", "n1", "n2"],
                       ((t[0], t[1], t[2]) for t in mesh.triangles))


def _reference_field_csv(path, columns):
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    exports.write_rows(path, list(columns),
                       (tuple(a[i] for a in arrays)
                        for i in range(len(arrays[0]))))


def _reference_boundary_csv(path, mesh, columns):
    tr = mesh.trace
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    exports.write_rows(path, ["side", "arc"] + list(columns),
                       ((tr.side_of_segment[k], tr.arc[k],
                         *(a[k] for a in arrays))
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
