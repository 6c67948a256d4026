"""The expectation table: one registry that validates and grades verdicts.

TABLE maps each expectation key to the kind of value it takes and to the
grader that turns a finished ladder into its PASS/FAIL row; evaluate()
emits the rows in table order.  config.SCHEMA builds its expectations
block from TABLE, so the config walker checks each value by its kind: a
tolerance is a non-negative number, a factor a positive one, a range
[lo, hi] with lo <= hi, corners a list of corner indices of the domain.
A bool or verdict (a name in FLAT_VERDICTS) passes when the measured
property equals it, and fails when nothing was measured.

Corner rule: an expectation about one corner is graded at the
lowest-numbered corner that has the measurement it needs; the harness
measures at the domain's re-entrant corners.  This module imports
nothing else from dclab, so config and harness both import it.
"""

from __future__ import annotations

import math

TOLERANCE, FACTOR, BOOL, VERDICT, RANGE, CORNERS = (
    "tolerance", "factor", "bool", "verdict", "range", "corners")
FLAT_VERDICTS = ("flat-at-a", "flat-at-b", "one-sided", "not-flat")


def g6(x) -> str:
    return format(float(x), ".6g")


def _at_corner(trend, missing, measure=lambda value: value):
    """Turn judge(j, value, want) into a grader that keeps the corner rule:
    value = measure(trends[trend][j]) at the lowest-numbered corner j where
    it is not None, and (None, missing) when no corner has it."""
    def wrap(judge):
        def grade(cfg, levels, trends, want):
            for j, value in sorted(trends[trend].items()):
                value = None if value is None else measure(value)
                if value is not None:
                    return judge(j, value, want)
            return None, missing.format(want=want)
        return grade
    return wrap


def _worst(field, label):
    def grade(cfg, levels, trends, tol):
        worst = max((s[field] for rec in levels for s in rec.solves.values()),
                    default=math.nan)
        return worst <= tol, f"{label} = {g6(worst)} (tol {g6(tol)})"
    return grade


def _max_principle(cfg, levels, trends, want):
    solved = [(rec.index, tag, s) for rec in levels
              for tag, s in sorted(rec.solves.items())]
    bad = [(index, tag, g6(s["max_principle_violation"]))
           for index, tag, s in solved if not s["max_principle_ok"]]
    if bad:
        return False, f"violated at {bad}"
    if not solved:
        return None, "no solves"
    return True, "interior range within boundary range in every solve"


def _latest(scans):
    """(level, scan) at the finest level whose flatness scan ran."""
    ran = [(k, v) for k, v in enumerate(scans) if v is not None]
    return ran[-1] if ran else None


@_at_corner("flatness", "no flatness data (expected {want})", _latest)
def _flat_verdict(j, latest, want):
    index, v = latest
    radius = "" if v.radius is None else f", radius {g6(v.radius)}"
    return v.verdict, (f"corner {j} level {index}: {v.verdict}{radius} "
                       f"(expected {want})")


def _radii(scans):
    radii = [v.radius for v in scans if v is not None and v.radius]
    return radii if len(radii) >= 2 else None


@_at_corner("flatness", "fewer than 2 flatness radii", _radii)
def _flat_radius_stable(j, radii, tol):
    change = abs(radii[-1] - radii[-2]) / radii[-2]
    return change <= tol, (f"corner {j} radii {[g6(r) for r in radii]}, last "
                           f"change {g6(100 * change)}% (tol "
                           f"{g6(100 * tol)}%)")


@_at_corner("flatness", "no flatness data", _latest)
def _sign_consistent(j, latest, want):
    v = latest[1]
    return (v.consistent,
            f"corner {j}: verdict {v.verdict}, predicted bound "
            f"{v.predicted_bound}")


@_at_corner("slope", "no slope measured")
def _slope_range(j, s, want):
    lo, hi = want
    return lo <= s <= hi, (f"corner {j} log-log slope {g6(s)} "
                           f"(range [{g6(lo)}, {g6(hi)}])")


def _twin_bounded(cfg, levels, trends, want):
    prob = cfg["problem"] or {}
    cap = max(abs(prob.get("lower") or 0.0), abs(prob.get("upper") or 0.0))
    vals = [rec.solves["constrained"]["max_u"] for rec in levels
            if "constrained" in rec.solves]
    return (max(vals) <= cap * (1.0 + 1e-10) if vals else None,
            f"constrained max |u| per level {[g6(v) for v in vals]} "
            f"(bound {g6(cap)})")


def _c1_bound(word, holds):
    """Grade the |c1| history against a decay factor or a floor."""
    @_at_corner("coeff", "no c1 history", lambda hist: hist.get(1) or None)
    def grade(j, c1, want):
        return holds(c1, want), (f"corner {j} |c1| history "
                                 f"{[g6(abs(v)) for v in c1]} "
                                 f"({word} {g6(want)})")
    return grade


def _decays(c1, factor):
    return len(c1) >= 2 and all(abs(b) <= abs(a) / factor
                                for a, b in zip(c1, c1[1:]))


def _floored(c1, floor):
    return min(abs(v) for v in c1) >= floor


def _stable(m):
    """Grade |c_m| staying within a relative tolerance of its first value."""
    @_at_corner("coeff", f"no c{m} history", lambda hist: hist.get(m) or None)
    def grade(j, c, tol):
        ok = (len(c) >= 2 and abs(c[0]) > 0
              and all(abs(abs(v) - abs(c[0])) <= tol * abs(c[0]) for v in c))
        return ok, (f"corner {j} c{m} history {[g6(v) for v in c]} "
                    f"(tol {g6(100 * tol)}%)")
    return grade


@_at_corner("structure", "no structure trend")
def _structure_decays(j, trend, want):
    ratios, decayed = trend
    return decayed, (f"corner {j} inner-shell remainder ratios "
                     f"{[(g6(r), g6(q)) for r, q in ratios]}")


@_at_corner("holder", "no quotient measured",
            lambda q: q if q[0] > 1e-14 else None)
def _holder_ratio(j, q, tol):
    q_raw, q_rem = q
    ratio = q_rem / q_raw
    return ratio <= tol, (f"corner {j} quotient {g6(q_raw)} -> {g6(q_rem)} "
                          f"(ratio {g6(ratio)}, tol {g6(tol)})")


def _h2(cfg, levels, trends, want):
    rep = trends.get("h_sets")
    if rep is None:
        return False, trends.get("h_sets_error", "no extraction history")
    want = set(want)
    return (rep.h2 == want and not rep.undetermined,
            f"h2 = {sorted(rep.h2)} (expected {sorted(want)}), "
            f"undetermined = {sorted(rep.undetermined)}")


def _expansion_ok(cfg, levels, trends, want):
    last = [rec.expansion for rec in levels
            if rec.expansion is not None][-2:]
    if len(last) < 2:
        return None, "fewer than 2 expansion reports"
    ok = all(r.slope > r.eta and r.boundary_residual < 1e-10 for r in last)
    return ok, (f"slopes {[g6(r.slope) for r in last]} vs eta "
                f"{g6(cfg['singular_data']['eta'])}, boundary residual "
                f"{g6(max(r.boundary_residual for r in last))}")


#: key -> (value kind, grader), in verdict-row order.  A grader returns
#: (measured, detail): the measured value for the bool and verdict kinds,
#: whether the expectation holds for the others.
TABLE = {
    "control_max": (TOLERANCE, _worst("max_u", "max |u|")),
    "kkt_max": (TOLERANCE, _worst("kkt", "max stationarity")),
    "max_principle": (BOOL, _max_principle),
    "flat_verdict": (VERDICT, _flat_verdict),
    "flat_radius_stable": (TOLERANCE, _flat_radius_stable),
    "sign_consistent": (BOOL, _sign_consistent),
    "slope_range": (RANGE, _slope_range),
    "twin_bounded": (BOOL, _twin_bounded),
    "c1_decay_factor": (FACTOR, _c1_bound("factor", _decays)),
    "c2_stable_within": (TOLERANCE, _stable(2)),
    "c1_min": (TOLERANCE, _c1_bound("floor", _floored)),
    "c1_stable_within": (TOLERANCE, _stable(1)),
    "structure_decays": (BOOL, _structure_decays),
    "holder_ratio_max": (TOLERANCE, _holder_ratio),
    "h2": (CORNERS, _h2),
    "expansion_ok": (BOOL, _expansion_ok),
}


def evaluate(cfg, levels, trends):
    """Verdict rows (key, ok, detail) for a validated config's expectations."""
    exp = cfg["expectations"]
    rows = []
    for key, (kind, grade) in TABLE.items():
        if key in exp:
            measured, detail = grade(cfg, levels, trends, exp[key])
            ok = measured == exp[key] if kind in (BOOL, VERDICT) else measured
            rows.append((key, bool(ok), detail))
    return rows
