"""Experiment driver: refinement ladders, diagnostics, verdicts, artifacts.

run_config() executes one validated configuration.  Each refinement level
gets a freshly generated mesh at h0 / 2^k (so corner grading deepens with
h rather than being frozen at the coarse level), the requested solves and
per-corner diagnostics run on it, and deterministic CSV artifacts are
written.  At each re-entrant corner, each diagnostic runs wherever it is
defined for the control it measures, with no switch: the flatness scan
on the constrained solve, with c_{j,1} of that solve's adjoint, and the
structure fit, singular profile, Holder quotient and log-log slope on
the primary control unless that control is flat at the corner.  After
the ladder, cross-level trends are computed and the expectation table
(dclab.expectations) grades the configured expectations into PASS/FAIL
verdict lines.

Exit codes follow the CLI convention: 0 all expectations hold, 1 some
verdict failed, 3 a solver or mesh generator failed.  Config errors (2)
are raised before this module runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import check_node_budget, resolve_config
from .control import (CallableTarget, ConstantTarget, ControlError,
                      ControlProblem, solve_constrained, solve_unconstrained)
from .expectations import evaluate, g6
from .exports import (write_boundary_csv, write_extraction_csv,
                      write_field_csv, write_gnuplot_script,
                      write_iteration_csv, write_mesh_csv, write_rows,
                      write_summary)
from .fem import (DiscontinuityLine, FemError, FemSystem, check_max_principle,
                  solve_dirichlet)
from .geometry import UNBOUNDED, GeometryError, SingularBoundaryData
from .meshing import MeshError, structured_mesh, triangulate
from .singular import (MODES, AnalysisError, classify_H_sets,
                       control_singular_profile, corner_log_slope,
                       extract_coefficients, flatness_diagnostic,
                       holder_quotient,
                       predicted_control_terms, singular_boundary_values,
                       structural_fit_control, structure_refinement_trend,
                       verify_singular_expansion, wedge_lift)


@dataclass
class LevelRecord:
    """Everything measured at one refinement level."""

    index: int
    h: float
    n_nodes: int
    n_triangles: int
    solves: dict = field(default_factory=dict)      # tag -> summary dict
    fits: dict = field(default_factory=dict)        # corner -> CoefficientFit
    skipped: dict = field(default_factory=dict)     # corner -> reason
    flatness: dict = field(default_factory=dict)    # corner -> FlatnessVerdict
    structure: dict = field(default_factory=dict)   # corner -> shell peaks
    holder: dict = field(default_factory=dict)      # corner -> (raw, rem)
    slopes: dict = field(default_factory=dict)      # corner -> log-log slope
    expansion: object = None                        # SingularDataReport


@dataclass
class RunResult:
    name: str
    exit_code: int
    verdicts: list                                  # (label, ok, detail)
    levels: list
    trends: dict
    outdir: str
    error: str | None = None


def make_mesh(domain, mesh_block, level):
    """The mesh of refinement level ``level`` (h = h0 / 2^level) that a
    normalized ``mesh`` config block asks for."""
    h = mesh_block["h0"] / 2.0 ** level
    if mesh_block["kind"] == "structured":
        return structured_mesh(domain, h)
    return triangulate(domain, h, grading=mesh_block["grading"])


def _analysed_corners(domain):
    """Indices of the corners a run analyses: the re-entrant ones."""
    return [c.index for c in domain.corners if c.reentrant]


def _primary(mode):
    """The solve whose fields a level's corner diagnostics, artifacts and
    trends.csv row report: the unconstrained one wherever it runs."""
    return "constrained" if mode == "constrained" else "unconstrained"


def _make_target(domain, tcfg):
    if tcfg["kind"] == "constant":
        return ConstantTarget(tcfg["value"])
    # odd step across the corner bisector: +1 for theta < omega/2, -1
    # beyond, with the jump line declared for exact quadrature
    c = domain.corners[tcfg["corner"]]
    bis = c.frame_angle + 0.5 * c.angle
    nrm = (-math.sin(bis), math.cos(bis))
    vx, vy = c.vertex

    def fn(x, y):
        s = (x - vx) * nrm[0] + (y - vy) * nrm[1]
        return np.where(s < 0.0, 1.0, -1.0)

    line = DiscontinuityLine(point=(vx, vy), normal=nrm)
    return CallableTarget(fn, discontinuity=line)


def _solve_summary(system, sol):
    mp = check_max_principle(system, sol.y)
    return {
        "iterations": sol.iterations,
        "kkt": sol.kkt.stationarity_max,
        "max_u": float(np.max(np.abs(np.asarray(sol.u, dtype=float)))),
        "max_principle_ok": mp.satisfied,
        "max_principle_violation": mp.violation,
        "objective": sol.objective,
    }


def _run_control_level(domain, mesh, cfg, rec, leveldir):
    prob = cfg["problem"]
    system = FemSystem(mesh)
    target = _make_target(domain, prob["target"])
    lo = -UNBOUNDED if prob["lower"] is None else prob["lower"]
    hi = UNBOUNDED if prob["upper"] is None else prob["upper"]
    mode = prob["solve"]

    sols = {}
    if mode in ("constrained", "both"):
        p = ControlProblem(system, prob["nu"], target, lower=lo, upper=hi)
        sols["constrained"] = solve_constrained(p)
    if mode in ("unconstrained", "both"):
        p = ControlProblem(system, prob["nu"], target)
        sols["unconstrained"] = solve_unconstrained(p)
    primary = _primary(mode)

    for tag, sol in sols.items():
        rec.solves[tag] = _solve_summary(system, sol)
        if not sol.converged:
            raise ControlError(f"{tag} solve did not converge at level "
                               f"{rec.index}")
    main = sols[primary]
    con = sols.get("constrained")
    twin = con if mode == "both" else None

    def fit_at(sol, j):
        try:
            return extract_coefficients(domain, mesh, sol.phi.values, j)
        except AnalysisError as exc:
            rec.skipped.setdefault(j, str(exc))

    # per-corner diagnostics on the primary solve's adjoint and control;
    # a corner's first failure is the note it keeps.  The structure shells
    # and the second Holder quotient measure one remainder, u - profile
    bounds = (lo, hi) if primary == "constrained" else (-UNBOUNDED, UNBOUNDED)
    sing = None
    for j in _analysed_corners(domain):
        fit = fit_at(main, j)
        if fit is not None:
            rec.fits[j] = fit

        if con is not None:
            # the sign rule reads the adjoint of the solve it scans
            cfit = fit if con is main else fit_at(con, j)
            c1 = None if cfit is None else cfit.coefficients[1]
            try:
                rec.flatness[j] = flatness_diagnostic(
                    domain, mesh, con.u, lo, hi, j, c1=c1)
            except AnalysisError as exc:
                rec.skipped.setdefault(j, str(exc))

        fl = rec.flatness.get(j)
        # a control flat at the corner is locally constant: no singular
        # terms, no Holder quotient and no slope of a constant are measured
        # on it.  The flatness of a twin says nothing of the primary control
        if fit is None or (primary == "constrained" and fl is not None
                           and fl.verdict in ("flat-at-a", "flat-at-b")):
            continue
        terms = predicted_control_terms(domain, j, fit.coefficients,
                                        prob["nu"], *bounds)
        prof = control_singular_profile(domain, mesh, j, terms)
        rem = main.u - prof
        # the corners' 2R_j windows are disjoint: the sum is exact
        sing = prof if sing is None else sing + prof
        try:
            rec.structure[j] = structural_fit_control(domain, mesh, rem, j)
        except AnalysisError as exc:
            rec.skipped.setdefault(j, str(exc))
        # lam in (1/2, 1) puts the Holder exponent 2 lam - 1 in (0, 1); an
        # unconstrained control grows like r^(lam-1): no Holder quotient
        if primary == "constrained":
            alpha = 2.0 * domain.corners[j].lam - 1.0
            rec.holder[j] = (holder_quotient(domain, mesh, main.u, j, alpha),
                             holder_quotient(domain, mesh, rem, j, alpha))
        s = corner_log_slope(domain, mesh, main.u, j)
        if s is not None:
            rec.slopes[j] = s

    # artifacts
    fields = {"state": main.y.values, "adjoint": main.phi.values}
    bnd = {"u": main.u, "flux": main.flux}
    if twin is not None:
        fields["state_twin"] = twin.y.values
        fields["adjoint_twin"] = twin.phi.values
        bnd["u_twin"] = twin.u
        bnd["flux_twin"] = twin.flux
    if sing is not None:
        bnd["u_sing"] = sing
    write_field_csv(os.path.join(leveldir, "fields.csv"), fields)
    write_boundary_csv(os.path.join(leveldir, "boundary.csv"), mesh, bnd)
    if con is not None:
        write_iteration_csv(os.path.join(leveldir, "iterations.csv"),
                            con.history)


def _run_singular_level(domain, mesh, cfg, rec, leveldir):
    data = SingularBoundaryData(**cfg["singular_data"])
    system = FemSystem(mesh)
    g = singular_boundary_values(domain, mesh, data)
    y = solve_dirichlet(system, g)
    lift = wedge_lift(domain, mesh, data)
    rem = y.values - lift
    try:
        rec.expansion = verify_singular_expansion(domain, mesh, rem, data)
    except AnalysisError as exc:
        rec.skipped[data.corner] = str(exc)
    write_field_csv(os.path.join(leveldir, "fields.csv"),
                    {"state": y.values, "lift": lift, "remainder": rem})
    write_boundary_csv(os.path.join(leveldir, "boundary.csv"), mesh,
                       {"g": g})


def _collect_trends(domain, levels):
    trends = {"coeff": {}, "flatness": {}, "slope": {}, "holder": {},
              "structure": {}}

    history = [rec.fits for rec in levels if rec.fits]
    if history:
        try:
            trends["h_sets"] = classify_H_sets(domain, history)
        except GeometryError as exc:  # an exponent resonant with S_STAR
            trends["h_sets_error"] = f"H-sets not classified: {exc}"

    for j in _analysed_corners(domain):
        fits = [rec.fits[j] for rec in levels if j in rec.fits]
        trends["coeff"][j] = {m: [f.coefficients[m] for f in fits]
                              for m in MODES}
        trends["flatness"][j] = [rec.flatness.get(j) for rec in levels]
        slopes = [rec.slopes[j] for rec in levels if j in rec.slopes]
        if slopes:
            trends["slope"][j] = slopes[-1]
        holders = [rec.holder[j] for rec in levels if j in rec.holder]
        if holders:
            trends["holder"][j] = holders[-1]
        peaks = [rec.structure[j] for rec in levels if j in rec.structure]
        if len(peaks) >= 2:
            try:
                trends["structure"][j] = structure_refinement_trend(
                    peaks[-2], peaks[-1], domain.corners[j].radius)
            except AnalysisError:
                pass
    return trends


def _info_rows(cfg, levels, trends):
    rows = []
    if cfg["problem"] is not None:
        rows.append("level  h          nodes    tris     solve          "
                    "iters  kkt          max|u|      objective")
        for rec in levels:
            for tag in sorted(rec.solves):
                s = rec.solves[tag]
                rows.append(
                    f"{rec.index:<6d} {rec.h:<10.6g} {rec.n_nodes:<8d} "
                    f"{rec.n_triangles:<8d} {tag:<14s} "
                    f"{s['iterations']:<6d} {s['kkt']:<12.3e} "
                    f"{s['max_u']:<11.6g} {s['objective']:.6g}")
    else:
        rows.append("level  h          nodes    tris     slope    "
                    "boundary_residual")
        for rec in levels:
            r = rec.expansion
            srep = f"{r.slope:<8.4g} {r.boundary_residual:.3e}" \
                if r is not None else "(skipped)"
            rows.append(f"{rec.index:<6d} {rec.h:<10.6g} {rec.n_nodes:<8d} "
                        f"{rec.n_triangles:<8d} {srep}")
    rows.append("")

    for j, per_mode in sorted(trends["coeff"].items()):
        for m, vals in sorted(per_mode.items()):
            if vals:
                rows.append(f"corner {j} c{m} history: "
                            f"{[g6(v) for v in vals]}")
    for j, scans in sorted(trends["flatness"].items()):
        # 'verdict radius', the verdict alone without one, None unscanned
        labels = [v if v is None else v.verdict if v.radius is None
                  else f"{v.verdict} {g6(v.radius)}" for v in scans]
        if any(labels):
            rows.append(f"corner {j} flatness per level: {labels}")
    for j, s in sorted(trends["slope"].items()):
        rows.append(f"corner {j} finest log-log control slope: {g6(s)}")
    for j, (q_raw, q_rem) in sorted(trends["holder"].items()):
        rows.append(f"corner {j} Holder quotient raw {g6(q_raw)} "
                    f"remainder {g6(q_rem)}")
    for j, (ratios, decayed) in sorted(trends["structure"].items()):
        rows.append(f"corner {j} structure remainder ratios "
                    f"{[(g6(r), g6(q)) for r, q in ratios]} "
                    f"decayed={decayed}")
    rep = trends.get("h_sets")
    if rep is not None:
        rows.append(f"H-sets: h1={sorted(rep.h1)} h2={sorted(rep.h2)} "
                    f"h3={sorted(rep.h3)} "
                    f"undetermined={sorted(rep.undetermined)}")
    if "h_sets_error" in trends:
        rows.append(f"note: {trends['h_sets_error']}")
    rows += [f"note: level {rec.index} corner {j}: {why}" for rec in levels
             for j, why in sorted(rec.skipped.items())]
    return rows


def _write_trends_csv(path, cfg, domain, levels):
    corners = _analysed_corners(domain)
    header = ["level", "h", "nodes", "triangles"]
    if cfg["problem"] is not None:
        header += ["iterations", "kkt", "max_u", "objective"]
        for j in corners:
            header += [f"c{m}_corner{j}" for m in MODES]
            header += [f"flat_radius_corner{j}", f"slope_corner{j}"]
    else:
        header += ["slope", "boundary_residual"]
    rows = []
    for rec in levels:
        row = [rec.index, rec.h, rec.n_nodes, rec.n_triangles]
        if cfg["problem"] is not None:
            main = rec.solves[_primary(cfg["problem"]["solve"])]
            row += [main["iterations"], main["kkt"], main["max_u"],
                    main["objective"]]
            for j in corners:
                fit = rec.fits.get(j)
                row += ["" if fit is None else fit.coefficients[m]
                        for m in MODES]
                v = rec.flatness.get(j)
                row.append("" if v is None or v.radius is None else v.radius)
                row.append(rec.slopes.get(j, ""))
        else:
            r = rec.expansion
            row += ["", ""] if r is None else [r.slope, r.boundary_residual]
        rows.append(row)
    write_rows(path, header, rows)


def run_config(cfg, outdir) -> RunResult:
    """Execute one configuration and write its artifacts into outdir."""
    cfg, domain = resolve_config(cfg)
    check_node_budget(cfg["mesh"], domain)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")

    levels = []
    try:
        for k in range(cfg["mesh"]["levels"]):
            mesh = make_mesh(domain, cfg["mesh"], k)
            rec = LevelRecord(index=k, h=cfg["mesh"]["h0"] / 2.0 ** k,
                              n_nodes=mesh.n_nodes,
                              n_triangles=mesh.n_triangles)
            leveldir = os.path.join(outdir, f"level{k}")
            os.makedirs(leveldir, exist_ok=True)
            write_mesh_csv(leveldir, mesh)
            if cfg["problem"] is not None:
                _run_control_level(domain, mesh, cfg, rec, leveldir)
            else:
                _run_singular_level(domain, mesh, cfg, rec, leveldir)
            levels.append(rec)
    except (ControlError, FemError, MeshError) as exc:
        msg = f"solver failure at level {len(levels)}: {exc}"
        write_summary(os.path.join(outdir, "summary.txt"), cfg["name"],
                      [("run", False, msg)], [])
        return RunResult(name=cfg["name"], exit_code=3, verdicts=[],
                         levels=levels, trends={}, outdir=outdir, error=msg)

    trends = _collect_trends(domain, levels)
    verdicts = evaluate(cfg, levels, trends)
    info = _info_rows(cfg, levels, trends)
    write_summary(os.path.join(outdir, "summary.txt"), cfg["name"],
                  verdicts, info)
    _write_trends_csv(os.path.join(outdir, "trends.csv"), cfg, domain,
                      levels)
    fits_by_level = [rec.fits for rec in levels]
    if any(fits_by_level):
        write_extraction_csv(os.path.join(outdir, "extraction.csv"),
                             fits_by_level)
    if cfg["problem"] is not None:
        write_gnuplot_script(os.path.join(outdir, "profile.gp"),
                             len(levels), cfg["name"])
    code = 0 if all(ok for _, ok, _ in verdicts) else 1
    return RunResult(name=cfg["name"], exit_code=code, verdicts=verdicts,
                     levels=levels, trends=trends, outdir=outdir)


def run_preset(name, outdir, levels=None):
    """Run every sub-configuration of a preset; list of RunResults."""
    from .presets import expand_preset
    results = []
    for subname, cfg in expand_preset(name, levels):
        sub_out = os.path.join(outdir, subname) if subname else outdir
        results.append(run_config(cfg, sub_out))
    return results
