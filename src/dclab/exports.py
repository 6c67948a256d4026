"""Deterministic CSV / gnuplot output for harness runs.

All writers format floats with repr-level precision and contain no
timestamps or machine identifiers, so rerunning a configuration yields
byte-identical files.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .meshing import TriMesh


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_rows(path, header, rows):
    """CSV with a header row; floats at repr-level precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


#: rows formatted per ``write_columns`` block; bounds the transient strings
BLOCK_ROWS = 1024


def write_columns(path, header, columns):
    """CSV of equal-length 1-D numpy columns, the same bytes as
    ``write_rows``: integer columns as ``%d``, float columns as ``%.17g``.

    One row template is applied to ``.tolist()`` slices of BLOCK_ROWS
    rows at a time, so no per-cell Python call is made and the transient
    strings stay bounded by the block size.
    """
    tmpl = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                    for c in columns) + "\r\n"
    k = len(columns)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for s in range(0, len(columns[0]), BLOCK_ROWS):
            block = [c[s:s + BLOCK_ROWS].tolist() for c in columns]
            cells = [None] * (k * len(block[0]))
            for j, col in enumerate(block):
                cells[j::k] = col
            fh.write((tmpl * len(block[0])) % tuple(cells))


def write_mesh_csv(outdir, mesh: TriMesh) -> None:
    """``mesh_nodes.csv`` (x, y) and ``mesh_triangles.csv`` (n0, n1, n2):
    row k is node k, resp. triangle k, so no index column is written."""
    p, t = mesh.nodes, mesh.triangles
    write_columns(os.path.join(outdir, "mesh_nodes.csv"), ["x", "y"],
                  [p[:, 0], p[:, 1]])
    write_columns(os.path.join(outdir, "mesh_triangles.csv"),
                  ["n0", "n1", "n2"], [t[:, 0], t[:, 1], t[:, 2]])


def write_field_csv(path, columns: dict) -> None:
    """Nodal fields, one column per dict entry; row k is node k."""
    write_columns(path, list(columns),
                  [np.asarray(a, dtype=float) for a in columns.values()])


def write_boundary_csv(path, mesh: TriMesh, columns: dict) -> None:
    """Trace-ordered side index, arc length, then one column per dict
    entry; row k is trace position k, node k of ``mesh_nodes.csv``."""
    tr = mesh.trace
    write_columns(path, ["side", "arc"] + list(columns),
                  [tr.side_of_segment, tr.arc,
                   *(np.asarray(a, dtype=float) for a in columns.values())])


def write_iteration_csv(path, history) -> None:
    """Active-set iteration log: the sets, J and the KKT residual after
    each step."""
    rows = [(rec["iteration"], rec["active_lower"], rec["active_upper"],
             rec["objective"], rec["kkt"]) for rec in history]
    write_rows(path, ["iteration", "active_lower", "active_upper",
                      "objective", "kkt"], rows)


def write_extraction_csv(path, fits) -> None:
    """One row per (level, corner, mode)."""
    rows = []
    for level, per_corner in enumerate(fits):
        for j in sorted(per_corner):
            fit = per_corner[j]
            for m in sorted(fit.coefficients):
                rows.append((level, j, m, fit.coefficients[m], fit.residual,
                             fit.annulus[0], fit.annulus[1], fit.n_nodes))
    write_rows(path, ["level", "corner", "mode", "coefficient", "residual",
                      "annulus_lo", "annulus_hi", "n_nodes"], rows)


def write_gnuplot_script(path, n_levels: int, title: str) -> None:
    """Script plotting the boundary control profile of every level."""
    lines = [
        "set datafile separator comma",
        "set key autotitle columnhead",
        f'set title "{title}"',
        'set xlabel "boundary arc length"',
        'set ylabel "control"',
        "plot " + ", \\\n     ".join(
            f'"level{k}/boundary.csv" using "arc":"u" with lines'
            f' title "level {k}"' for k in range(n_levels)),
        "pause -1",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, name: str, verdict_rows, info_rows) -> None:
    """Plain-text run summary: verdicts first, then level table."""
    lines = [f"run: {name}", ""]
    for label, ok, detail in verdict_rows:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    if verdict_rows:
        lines.append("")
    lines.extend(info_rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
