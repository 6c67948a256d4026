"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line with the measured quantity so the
suite output documents the run.  The preset ladders execute once per
session (module fixture) and are shared by the criteria that grade them.
"""

import json
import math
import os

import numpy as np
import pytest

from dclab.control import (ConstantTarget, ControlProblem, solve_constrained,
                           solve_unconstrained)
from dclab.fem import FemSystem, assemble_load, solve_dirichlet
from dclab.geometry import l_shape, unit_square
from dclab.harness import run_preset
from dclab.meshing import structured_mesh, triangulate
from dclab.presets import PRESETS
from dclab.singular import extract_coefficients, rate_estimate

import preset_reference
from helpers import (L_SHAPE_REENTRANT_CORNER, h1_seminorm, l2_norm,
                     synthesize_modes)

J = L_SHAPE_REENTRANT_CORNER


@pytest.fixture(scope="module")
def preset_results(tmp_path_factory):
    root = tmp_path_factory.mktemp("presets")
    return {name: run_preset(name, str(root / name)) for name in PRESETS}


def _verdict(results, label):
    for res in results:
        for lab, ok, detail in res.verdicts:
            if lab == label:
                return ok, detail
    raise AssertionError(f"verdict {label!r} missing")


def test_criterion_01_fem_l2_order():
    # smooth manufactured solution, h = 1/8 ... 1/64
    exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    errs = []
    for m in [structured_mesh(unit_square(), 1 / 8 / 2**k) for k in range(4)]:
        y = solve_dirichlet(FemSystem(m), lambda x, yy: 0.0 * x,
                            load=assemble_load(m, f))
        errs.append(l2_norm(m, y.values, exact))
    rate = rate_estimate(errs)
    assert rate.monotone
    assert rate.order >= 1.9
    print(f"criterion 1 PASS: L2 order {rate.order:.3f} >= 1.9")


def test_criterion_02_singularity_limited_h1_rate():
    # exact corner mode of the L-shape on uniform (ungraded) meshes
    def exact(x, y):
        r = np.hypot(x, y)
        th = np.arctan2(y, x) % (2.0 * np.pi)
        return r ** (2.0 / 3.0) * np.sin(2.0 / 3.0 * th)

    def grad(x, y):
        r = np.hypot(x, y)
        th = np.arctan2(y, x) % (2.0 * np.pi)
        k = 2.0 / 3.0
        dr = k * r ** (k - 1.0) * np.sin(k * th)
        dt = k * r ** (k - 1.0) * np.cos(k * th)
        return (dr * np.cos(th) - dt * np.sin(th),
                dr * np.sin(th) + dt * np.cos(th))

    herrs = []
    for m in [structured_mesh(l_shape(), 1 / 8 / 2**k) for k in range(4)]:
        y = solve_dirichlet(FemSystem(m), exact)
        herrs.append(h1_seminorm(m, y.values, grad))
    rate = rate_estimate(herrs)
    assert abs(rate.order - 0.667) <= 0.1
    print(f"criterion 2 PASS: H1 order {rate.order:.3f} = 0.667 +- 0.1")


def test_criterion_03_adjoint_gradient_matches_fd():
    rng = np.random.default_rng(3)
    worst = 0.0
    domains = [structured_mesh(unit_square(), 1 / 8),
               triangulate(l_shape(), 1 / 8)]
    for mesh in domains:
        prob = ControlProblem(FemSystem(mesh), 0.7, ConstantTarget(0.3))
        nb = prob.system.trace.n
        u = rng.normal(size=nb)
        g, _, _, _ = prob.gradient(u)
        for _ in range(5):
            v = rng.normal(size=nb)
            eps = 1e-5
            fd = (prob.objective(u + eps * v)
                  - prob.objective(u - eps * v)) / (2.0 * eps)
            an = float(g @ v)
            worst = max(worst, abs(fd - an) / max(abs(fd), 1e-300))
    assert worst < 1e-6
    print(f"criterion 3 PASS: gradient vs FD rel error {worst:.2e} < 1e-6")


def test_criterion_04_optimizer(preset_results):
    # active-set convergence on every control preset, every level
    worst_it, worst_kkt = 0, 0.0
    for name, results in preset_results.items():
        for res in results:
            for rec in res.levels:
                for s in rec.solves.values():
                    worst_it = max(worst_it, s["iterations"])
                    worst_kkt = max(worst_kkt, s["kkt"])
    assert worst_it <= 30
    assert worst_kkt < 1e-10

    # non-binding bounds agree with the bound-free solver
    sysm = FemSystem(structured_mesh(unit_square(), 1 / 8))
    wide = solve_constrained(ControlProblem(sysm, 0.5, ConstantTarget(0.4),
                                            lower=-100.0, upper=100.0))
    free = solve_unconstrained(ControlProblem(sysm, 0.5, ConstantTarget(0.4)))
    gap_free = float(np.abs(wide.u - free.u).max())
    assert gap_free < 1e-8

    # two different starts agree on a binding problem
    boxed = ControlProblem(sysm, 0.5, ConstantTarget(0.4),
                           lower=-0.05, upper=0.05)
    s1 = solve_constrained(boxed, u0=np.zeros(sysm.trace.n))
    s2 = solve_constrained(boxed, u0=np.full(sysm.trace.n, 0.05))
    gap_start = float(np.abs(s1.u - s2.u).max())
    assert gap_start < 1e-8
    print(f"criterion 4 PASS: <= {worst_it} iterations, KKT {worst_kkt:.2e}"
          f" < 1e-10, agreement gaps {gap_free:.2e}/{gap_start:.2e} < 1e-8")


def test_criterion_05_max_principle_random_controls():
    rng = np.random.default_rng(5)
    worst = 0.0
    for mesh in (structured_mesh(unit_square(), 1 / 16),
                 structured_mesh(l_shape(), 1 / 16)):
        sysm = FemSystem(mesh)
        for _ in range(20):
            u = rng.uniform(-1.0, 1.0, size=sysm.trace.n)
            y = solve_dirichlet(sysm, u)
            ratio = np.abs(y.values).max() / np.abs(u).max()
            worst = max(worst, ratio)
            assert ratio <= 1.0 + 1e-10
    print(f"criterion 5 PASS: max |y|/|u| = {worst:.12f} <= 1 + 1e-10 "
          "over 40 random controls")


def test_criterion_06_extraction_fidelity():
    dom = l_shape()
    want = {1: 1.0, 2: -0.5}
    rels = {}
    for hinv, tol in ((64, 0.02), (128, 0.007)):
        mesh = triangulate(dom, 1.0 / hinv, grading={J: 0.5})
        field = synthesize_modes(dom, mesh, J, want)
        fit = extract_coefficients(dom, mesh, field, J)
        rel = max(abs(fit.coefficients[m] - want[m]) / abs(want[m])
                  for m in want)
        rels[hinv] = rel
        assert rel <= tol
    print("criterion 6 PASS: synthesized (1.0, -0.5) recovered, rel errors "
          f"{rels[64]:.2e} <= 2e-2 (h=1/64), {rels[128]:.2e} <= 7e-3 "
          "(h=1/128)")


def test_criterion_07_flatness_preset(preset_results):
    results = preset_results["lshape-constrained"]
    ok_v, det_v = _verdict(results, "flat_verdict")
    ok_r, det_r = _verdict(results, "flat_radius_stable")
    ok_s, det_s = _verdict(results, "sign_consistent")
    assert ok_v, det_v
    assert ok_r, det_r
    assert ok_s, det_s
    assert all(res.exit_code == 0 for res in results)
    print(f"criterion 7 PASS: {det_v}; {det_r}")


def test_criterion_08_coefficient_dichotomy(preset_results):
    ok_d, det_d = _verdict(preset_results["ex38-skew"], "c1_decay_factor")
    ok_2, det_2 = _verdict(preset_results["ex38-skew"], "c2_stable_within")
    assert ok_d, det_d
    assert ok_2, det_2
    ok_m, det_m = _verdict(preset_results["ex38-symmetric"], "c1_min")
    ok_s, det_s = _verdict(preset_results["ex38-symmetric"],
                           "c1_stable_within")
    assert ok_m, det_m
    assert ok_s, det_s
    print(f"criterion 8 PASS: skew {det_d}; symmetric {det_m}")


def test_criterion_09_unconstrained_blowup(preset_results):
    results = preset_results["lshape-unconstrained"]
    ok_s, det_s = _verdict(results, "slope_range")
    ok_b, det_b = _verdict(results, "twin_bounded")
    assert ok_s, det_s
    assert ok_b, det_b
    print(f"criterion 9 PASS: {det_s}; {det_b}")


def test_criterion_10_singular_data_expansion(preset_results):
    results = preset_results["lemma25-check"]
    assert len(results) == 2
    for res in results:
        ok, det = _verdict([res], "expansion_ok")
        assert ok, (res.name, det)
    print("criterion 10 PASS: remainder decay at the two finest levels "
          "for both parities")


def test_corner_diagnostics_only_where_defined(preset_results):
    # no Holder quotient for an unbounded control; at a flat corner no
    # structure fit, u_sing column, Holder quotient or log-log slope.  The
    # constrained twin is scanned for flatness, and its flat verdict does
    # not withhold the measures of the unconstrained primary control
    (unc,) = preset_results["lshape-unconstrained"]
    (con,) = preset_results["lshape-constrained"]
    assert unc.trends["holder"] == {}
    twin = [rec.flatness.get(2) for rec in unc.levels]
    assert [getattr(v, "verdict", None) for v in twin] == ["flat-at-b"] * 2
    assert all(v.radius > 0 for v in twin)
    assert set(unc.trends["slope"]) == set(unc.trends["structure"]) == {2}
    for key in ("slope_range", "structure_decays"):
        ok, det = _verdict([unc], key)
        assert ok, det
    # a level whose control is not flat has no flat radius, and the
    # summary shows its verdict alone
    (skew,) = preset_results["ex38-skew"]
    assert [rec.flatness[0].radius for rec in skew.levels] == [None] * 3
    with open(os.path.join(skew.outdir, "summary.txt")) as fh:
        assert ("corner 0 flatness per level: "
                "['not-flat', 'not-flat', 'not-flat']\n") in fh.read()
    for key in ("structure", "holder", "slope"):
        assert con.trends[key] == {}, key
    with open(os.path.join(con.outdir, "level0", "boundary.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert "u_sing" not in header
    with open(os.path.join(con.outdir, "summary.txt")) as fh:
        summary = fh.read()
    assert "log-log control slope" not in summary
    assert "Holder quotient" not in summary
    with open(os.path.join(con.outdir, "trends.csv")) as fh:
        rows = [line.rstrip("\r\n").split(",") for line in fh]
    col = rows[0].index("slope_corner2")
    assert len(rows) == 4 and all(r[col] == "" for r in rows[1:])
    assert len(con.verdicts) == 4 and all(ok for _, ok, _ in con.verdicts)
    ok, det = _verdict(preset_results["ex38-skew"], "holder_ratio_max")
    assert ok, det
    print(f"diagnostics PASS: boundary.csv columns {header}; {det}")


def test_summaries_print_only_graded_lines(preset_results):
    # the control profile difference graded nothing and measured no order
    verdicts = []
    for results in preset_results.values():
        for res in results:
            with open(os.path.join(res.outdir, "summary.txt")) as fh:
                text = fh.read()
            assert "control profile" not in text, res.name
            for label, ok, detail in res.verdicts:
                assert f"{'PASS' if ok else 'FAIL'}  {label}: {detail}\n" \
                    in text
            verdicts += res.verdicts
    assert len(verdicts) == 22 and all(ok for _, ok, _ in verdicts)
    print(f"summaries PASS: {len(verdicts)} verdict lines, no profile line")


def test_preset_numbers_match_reference(preset_results):
    # preset_reference.json pins every preset run; its module docstring
    # says how to regenerate it.  Counts and verdict booleans hold on any
    # stack, iterations, detail strings and file digests on the stack
    # that wrote the file
    with open(preset_reference.PATH) as fh:
        ref = json.load(fh)
    now = json.loads(json.dumps(preset_reference.reference(preset_results)))
    assert now["runs"].keys() == ref["runs"].keys()
    same_stack = now["stack"] == ref["stack"]
    for name, want in ref["runs"].items():
        got = now["runs"][name]
        assert ([(lv["nodes"], lv["triangles"]) for lv in got["levels"]]
                == [(lv["nodes"], lv["triangles"]) for lv in want["levels"]])
        assert ([(label, ok) for label, ok, _ in got["verdicts"]]
                == [(label, ok) for label, ok, _ in want["verdicts"]])
        if same_stack:
            assert got == want, name
    print(f"reference PASS: {len(ref['runs'])} runs, "
          f"{'all numbers' if same_stack else 'counts and verdicts'} "
          f"as pinned for {ref['stack']}")
