"""Deterministic CSV / gnuplot output for harness runs.

All writers format floats with repr-level precision and contain no
timestamps or machine identifiers, so rerunning a configuration yields
byte-identical files.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .meshing import TriMesh, boundary_trace_space


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


def write_mesh_csv(outdir, mesh: TriMesh) -> None:
    write_rows(os.path.join(outdir, "mesh_nodes.csv"), ["node", "x", "y"],
               ((i, p[0], p[1]) for i, p in enumerate(mesh.nodes)))
    write_rows(os.path.join(outdir, "mesh_triangles.csv"),
               ["triangle", "n0", "n1", "n2"],
               ((i, t[0], t[1], t[2]) for i, t in enumerate(mesh.triangles)))


def write_field_csv(path, mesh: TriMesh, columns: dict) -> None:
    """Nodal fields: node, x, y, then one column per dict entry."""
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    rows = ((i, p[0], p[1], *(a[i] for a in arrays))
            for i, p in enumerate(mesh.nodes))
    write_rows(path, ["node", "x", "y"] + names, rows)


def write_boundary_csv(path, mesh: TriMesh, columns: dict) -> None:
    """Trace-ordered boundary table with side index and arc length."""
    tr = boundary_trace_space(mesh)
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    rows = ((k, tr.node_ids[k], tr.side_of_segment[k], tr.arc[k],
             tr.points[k, 0], tr.points[k, 1], *(a[k] for a in arrays))
            for k in range(tr.n))
    write_rows(path, ["pos", "node", "side", "arc", "x", "y"] + names, rows)


def write_iteration_csv(path, history) -> None:
    """Active-set / projected-gradient iteration log."""
    rows = []
    for rec in history:
        rows.append((rec.get("iteration", ""), rec.get("active_lower", ""),
                     rec.get("active_upper", ""), rec.get("pg_objective", ""),
                     rec.get("kkt", "")))
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
