"""Experiment driver: refinement ladders, diagnostics, verdicts, artifacts.

run_config() executes one validated configuration.  Each refinement level
gets a freshly generated mesh at h0 / 2^k (so corner grading deepens with
h rather than being frozen at the coarse level), the requested solves and
per-corner diagnostics run on it, and deterministic CSV artifacts are
written.  After the ladder, cross-level trends are computed and the
expectation table (dclab.expectations) grades the configured expectations
into PASS/FAIL verdict lines.

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

from .config import resolve_config
from .control import (CallableTarget, ConstantTarget, ControlError,
                      ControlProblem, solve_constrained, solve_unconstrained)
from .expectations import evaluate, g6
from .exports import (write_boundary_csv, write_extraction_csv,
                      write_field_csv, write_gnuplot_script,
                      write_iteration_csv, write_mesh_csv, write_rows,
                      write_summary)
from .fem import (DiscontinuityLine, FemError, FemSystem, check_max_principle,
                  solve_dirichlet)
from .geometry import UNBOUNDED, SingularBoundaryData
from .meshing import (MeshError, boundary_trace_space, structured_mesh,
                      triangulate)
from .singular import (AnalysisError, classify_H_sets,
                       control_singular_profile, extract_coefficients,
                       flatness_diagnostic, holder_quotient,
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
    terms: dict = field(default_factory=dict)       # corner -> {m: a_m}
    structure: dict = field(default_factory=dict)   # corner -> report
    holder: dict = field(default_factory=dict)      # corner -> (raw, rem)
    slopes: dict = field(default_factory=dict)      # corner -> log-log slope
    expansion = None                                # SingularDataReport
    profile = None                                  # (arc, u, perimeter)


@dataclass
class RunResult:
    name: str
    exit_code: int
    verdicts: list                                  # (label, ok, detail)
    levels: list
    trends: dict
    outdir: str
    error: str | None = None


def _make_mesh(domain, cfg, level):
    m = cfg["mesh"]
    h = m["h0"] / 2.0 ** level
    if m["kind"] == "structured":
        return structured_mesh(domain, h)
    return triangulate(domain, h, grading=m["grading"],
                       lattice_angle=m["lattice_angle"])


def _make_target(domain, tcfg):
    if tcfg["kind"] == "constant":
        return ConstantTarget(tcfg["value"])
    # odd step across the corner bisector: +value for theta < omega/2,
    # -value beyond, with the jump line declared for exact quadrature
    c = domain.corners[tcfg["corner"]]
    v = float(tcfg["value"])
    bis = c.frame_angle + 0.5 * c.angle
    nrm = (-math.sin(bis), math.cos(bis))
    vx, vy = c.vertex

    def fn(x, y):
        s = (x - vx) * nrm[0] + (y - vy) * nrm[1]
        return np.where(s < 0.0, v, -v)

    line = DiscontinuityLine(point=(vx, vy), normal=nrm)
    return CallableTarget(fn, discontinuity=line)


def _solve_summary(system, sol):
    mp = check_max_principle(system, sol.y)
    return {
        "iterations": sol.iterations,
        "converged": sol.converged,
        "method": sol.method,
        "kkt": sol.kkt.stationarity_max,
        "feasibility": sol.kkt.feasibility,
        "max_u": float(np.max(np.abs(np.asarray(sol.u, dtype=float)))),
        "max_principle_ok": mp.satisfied,
        "max_principle_violation": mp.violation,
        "objective": sol.objective,
    }


def _corner_log_slope(domain, mesh, u, j):
    """Log-log slope of |u| against corner distance on [1.5 r_min, R/2],
    over the nodes with |u| > 1e-12."""
    tr = boundary_trace_space(mesh)
    c = domain.corners[j]
    r = np.linalg.norm(tr.points - np.asarray(c.vertex), axis=1)
    u = np.asarray(u, dtype=float)
    pos = r > 1e-14
    if not np.any(pos):
        return None
    lo = 1.5 * r[pos].min()
    sel = (r >= lo) & (r <= 0.5 * c.radius) & (np.abs(u) > 1e-12)
    if np.count_nonzero(sel) < 4:
        return None
    return float(np.polyfit(np.log(r[sel]), np.log(np.abs(u[sel])), 1)[0])


def _profile_diff(coarse, fine):
    """Max nodal difference of two boundary profiles via arc interpolation."""
    arc_c, u_c, _ = coarse
    arc_f, u_f, per_f = fine
    arc = np.concatenate([arc_f, [per_f]])
    vals = np.concatenate([u_f, [u_f[0]]])
    return float(np.max(np.abs(np.interp(arc_c, arc, vals) - u_c)))


def _run_control_level(domain, mesh, cfg, rec, leveldir):
    prob = cfg["problem"]
    ana = cfg["analysis"]
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
    primary = "unconstrained" if mode != "constrained" else "constrained"
    twin = ({"constrained", "unconstrained"} - {primary}).pop() \
        if mode == "both" else None

    for tag, sol in sols.items():
        rec.solves[tag] = _solve_summary(system, sol)
        if not sol.converged:
            raise ControlError(f"{tag} solve did not converge at level "
                               f"{rec.index}")
    main = sols[primary]
    tr = system.trace
    rec.profile = (tr.arc.copy(), np.asarray(main.u, dtype=float),
                   tr.perimeter())

    # per-corner diagnostics on the primary solve's adjoint and control;
    # a corner's first failure is the note it keeps
    bounds = (lo, hi) if primary == "constrained" else (-UNBOUNDED, UNBOUNDED)
    for j in ana["corners"]:
        try:
            rec.fits[j] = extract_coefficients(domain, mesh, main.phi.values,
                                               j, modes=tuple(ana["modes"]))
        except AnalysisError as exc:
            rec.skipped[j] = str(exc)
        fit = rec.fits.get(j)

        if ana["flatness"] and "constrained" in sols:
            c1 = fit.coefficients.get(1) if fit is not None else None
            if c1 is not None and math.isnan(c1):
                c1 = None
            try:
                rec.flatness[j] = flatness_diagnostic(
                    domain, mesh, sols["constrained"].u, lo, hi, j, c1=c1)
            except AnalysisError as exc:
                rec.skipped.setdefault(j, str(exc))

        if not ana["structure"] or fit is None:
            continue
        fl = rec.flatness.get(j)
        if fl is not None and fl.verdict in ("flat-at-a", "flat-at-b"):
            # locally constant control: nothing singular to subtract
            terms = {}
        else:
            terms = predicted_control_terms(domain, j, fit.coefficients,
                                            prob["nu"], *bounds)
        rec.terms[j] = terms
        try:
            rec.structure[j] = structural_fit_control(domain, mesh, main.u,
                                                      j, terms)
        except AnalysisError as exc:
            rec.skipped.setdefault(j, str(exc))
        c = domain.corners[j]
        alpha = 2.0 * c.lam - 1.0
        if c.reentrant and 0.0 < alpha < 1.0:
            q_raw = holder_quotient(domain, mesh, main.u, j, alpha)
            pred = control_singular_profile(domain, mesh, j, terms)
            q_rem = holder_quotient(domain, mesh, main.u - pred, j, alpha)
            rec.holder[j] = (q_raw, q_rem)
        if c.reentrant:
            s = _corner_log_slope(domain, mesh, main.u, j)
            if s is not None:
                rec.slopes[j] = s

    # artifacts
    fields = {"state": main.y.values, "adjoint": main.phi.values}
    bnd = {"u": main.u, "flux": main.flux}
    if twin is not None:
        fields["state_twin"] = sols[twin].y.values
        fields["adjoint_twin"] = sols[twin].phi.values
        bnd["u_twin"] = sols[twin].u
        bnd["flux_twin"] = sols[twin].flux
    if rec.terms:
        sing = np.zeros(tr.n)
        for j, terms in sorted(rec.terms.items()):
            sing += control_singular_profile(domain, mesh, j, terms)
        bnd["u_sing"] = sing
    write_field_csv(os.path.join(leveldir, "fields.csv"), mesh, fields)
    write_boundary_csv(os.path.join(leveldir, "boundary.csv"), mesh, bnd)
    if "constrained" in sols:
        write_iteration_csv(os.path.join(leveldir, "iterations.csv"),
                            sols["constrained"].history)


def _run_singular_level(domain, mesh, cfg, rec, leveldir):
    d = cfg["singular_data"]
    data = SingularBoundaryData(corner=d["corner"], n=d["n"], eta=d["eta"],
                                amplitude=d["amplitude"])
    system = FemSystem(mesh)
    g = singular_boundary_values(domain, mesh, data)
    y = solve_dirichlet(system, g)
    lift = wedge_lift(domain, mesh, data)
    try:
        rec.expansion = verify_singular_expansion(
            domain, mesh, y.values, data, modes=tuple(cfg["analysis"]["modes"]))
    except AnalysisError as exc:
        rec.skipped[d["corner"]] = str(exc)
    write_field_csv(os.path.join(leveldir, "fields.csv"), mesh,
                    {"state": y.values, "lift": lift,
                     "remainder": y.values - lift})
    write_boundary_csv(os.path.join(leveldir, "boundary.csv"), mesh,
                       {"g": g})


def _collect_trends(domain, cfg, levels):
    ana = cfg["analysis"]
    trends = {"coeff": {}, "flatness": {}, "flat_radius": {}, "slope": {},
              "holder": {}, "structure": {}, "profile_diffs": []}

    history = [rec.fits for rec in levels if rec.fits]
    if history:
        trends["h_sets"] = classify_H_sets(domain, ana["s_star"], history)

    for j in ana["corners"]:
        fits = [rec.fits[j] for rec in levels if j in rec.fits]
        trends["coeff"][j] = {
            m: [f.coefficients[m] for f in fits
                if not math.isnan(f.coefficients.get(m, math.nan))]
            for m in ana["modes"]}
        latest = [(rec.index, rec.flatness[j]) for rec in levels
                  if j in rec.flatness]
        if latest:
            trends["flatness"][j] = latest[-1]
        trends["flat_radius"][j] = [
            rec.flatness[j].radius if j in rec.flatness else None
            for rec in levels]
        slopes = [rec.slopes[j] for rec in levels if j in rec.slopes]
        if slopes:
            trends["slope"][j] = slopes[-1]
        holders = [rec.holder[j] for rec in levels if j in rec.holder]
        if holders:
            trends["holder"][j] = holders[-1]
        reports = [rec.structure[j] for rec in levels if j in rec.structure]
        if len(reports) >= 2:
            try:
                trends["structure"][j] = structure_refinement_trend(
                    reports[-2], reports[-1])
            except AnalysisError:
                pass

    profiles = [rec.profile for rec in levels if rec.profile is not None]
    for a, b in zip(profiles, profiles[1:]):
        trends["profile_diffs"].append(_profile_diff(a, b))
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
    for j, radii in sorted(trends["flat_radius"].items()):
        if any(r is not None for r in radii):
            rows.append(f"corner {j} flat radius per level: "
                        f"{[None if r is None else g6(r) for r in radii]}")
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
    if trends["profile_diffs"]:
        rows.append("control profile max diff between levels: "
                    f"{[g6(d) for d in trends['profile_diffs']]}")
    skips = [(rec.index, j, why) for rec in levels
             for j, why in sorted(rec.skipped.items())]
    for idx, j, why in skips:
        rows.append(f"note: level {idx} corner {j}: {why}")
    return rows


def _write_trends_csv(path, cfg, levels):
    corners = cfg["analysis"]["corners"]
    modes = cfg["analysis"]["modes"]
    header = ["level", "h", "nodes", "triangles"]
    if cfg["problem"] is not None:
        header += ["iterations", "kkt", "max_u", "objective"]
        for j in corners:
            header += [f"c{m}_corner{j}" for m in modes]
            header += [f"flat_radius_corner{j}", f"slope_corner{j}"]
    else:
        header += ["slope", "boundary_residual", "endpoint"]
    rows = []
    for rec in levels:
        row = [rec.index, rec.h, rec.n_nodes, rec.n_triangles]
        if cfg["problem"] is not None:
            tags = sorted(rec.solves)
            if tags:
                main = rec.solves[tags[-1]]
                row += [main["iterations"], main["kkt"], main["max_u"],
                        main["objective"]]
            else:
                row += ["", "", "", ""]
            for j in corners:
                fit = rec.fits.get(j)
                row += ["" if fit is None else fit.coefficients.get(m, "")
                        for m in modes]
                v = rec.flatness.get(j)
                row.append("" if v is None else v.radius)
                row.append(rec.slopes.get(j, ""))
        else:
            r = rec.expansion
            row += (["", "", ""] if r is None else
                    [r.slope, r.boundary_residual, r.endpoint_value])
        rows.append(row)
    write_rows(path, header, rows)


def run_config(cfg, outdir) -> RunResult:
    """Execute one configuration and write its artifacts into outdir."""
    cfg, domain = resolve_config(cfg)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")

    levels = []
    try:
        for k in range(cfg["mesh"]["levels"]):
            mesh = _make_mesh(domain, cfg, k)
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

    trends = _collect_trends(domain, cfg, levels)
    verdicts = evaluate(cfg, levels, trends)
    info = _info_rows(cfg, levels, trends)
    write_summary(os.path.join(outdir, "summary.txt"), cfg["name"],
                  verdicts, info)
    _write_trends_csv(os.path.join(outdir, "trends.csv"), cfg, levels)
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
