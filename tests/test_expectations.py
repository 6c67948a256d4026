"""The expectation table: value validation and grading.

Every configured expectation is validated by the kind its table entry
names and graded by its grader, with per-corner expectations read at the
lowest-numbered corner that has the measurement.
"""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dclab.config import ConfigError, resolve_config, validate_config
from dclab.expectations import FLAT_VERDICTS, TABLE, evaluate
from dclab.harness import _collect_trends, run_config

# one value of the right kind for every key, valid on the unit square
EVERY_KEY = {
    "control_max": 1e-10, "kkt_max": 1e-10, "max_principle": True,
    "flat_verdict": "flat-at-b", "flat_radius_stable": 0.2,
    "sign_consistent": True, "slope_range": [-0.43, -0.23],
    "twin_bounded": True, "c1_decay_factor": 2.0, "c2_stable_within": 0.2,
    "c1_min": 0.05, "c1_stable_within": 0.2, "structure_decays": True,
    "holder_ratio_max": 0.6, "h2": [0], "expansion_ok": True,
}

TINY = {
    "domain": "l-shape",
    "mesh": {"h0": 0.0625, "levels": 2, "grading": {2: 0.5}},
    "problem": {"nu": 0.2, "lower": -1.0, "upper": 1.0,
                "target": {"kind": "constant", "value": 1.0}},
}


def _with(base, **top):
    cfg = copy.deepcopy(base)
    cfg.update(top)
    return cfg


def test_table_covers_every_key_once():
    assert list(TABLE) == list(EVERY_KEY)


def test_empty_ladder_grades_every_key_in_table_order():
    cfg, domain = resolve_config(_with(TINY, domain="unit-square",
                                       mesh={"h0": 0.25},
                                       expectations=EVERY_KEY))
    rows = evaluate(cfg, [], _collect_trends(domain, []))
    assert [key for key, _, _ in rows] == list(TABLE)
    # an empty ladder measures nothing, so no expectation can hold
    assert not any(ok for _, ok, _ in rows)


def test_lowest_numbered_corner_with_data_is_graded():
    # corner 1 lacks the slope, the c2 history, a second flat radius and a
    # nonzero Holder quotient, whose lowest-numbered corner with data is 3;
    # corner 5, listed first, is never reached
    flat = SimpleNamespace(verdict="flat-at-b", radius=0.1, consistent=True,
                           predicted_bound="upper")
    trends = {
        "coeff": {5: {1: [0.3, 0.3], 2: [0.5, 0.5]},
                  3: {1: [], 2: [0.5, 0.5]}, 1: {1: [0.2, 0.1], 2: []}},
        "flatness": {5: [flat, flat], 3: [flat, flat], 1: [None, flat]},
        "slope": {5: -0.3, 3: -0.3},
        "holder": {5: (1.0, 0.5), 3: (1.0, 0.5), 1: (0.0, 0.0)},
        "structure": {5: ([(2.0, 1.0)], False), 1: ([(1.0, 0.5)], True)},
    }
    keys = {"flat_verdict": 1, "sign_consistent": 1, "flat_radius_stable": 3,
            "slope_range": 3, "c1_min": 1, "c2_stable_within": 3,
            "structure_decays": 1, "holder_ratio_max": 3}
    cfg = validate_config(_with(
        TINY, domain="unit-square", mesh={"h0": 0.25},
        expectations={k: EVERY_KEY[k] for k in keys}))
    rows = evaluate(cfg, [], trends)
    assert [key for key, _, _ in rows] == [k for k in TABLE if k in keys]
    for key, _, detail in rows:
        assert detail.startswith(f"corner {keys[key]}"), (key, detail)


def test_not_flat_level_has_no_radius():
    # a not-flat scan measures no radius, and no grader prints or uses one
    scan = SimpleNamespace(verdict="not-flat", radius=None, consistent=False,
                           predicted_bound="b")
    trends = {"flatness": {1: [None, scan]}}
    cfg = validate_config(_with(
        TINY, domain="unit-square", mesh={"h0": 0.25},
        expectations={"flat_verdict": "flat-at-b", "flat_radius_stable": 0.2}))
    assert evaluate(cfg, [], trends) == [
        ("flat_verdict", False,
         "corner 1 level 1: not-flat (expected flat-at-b)"),
        ("flat_radius_stable", False, "fewer than 2 flatness radii")]


def test_max_principle_lists_every_violating_solve():
    # level 1's constrained solve breaks the principle: FAIL, naming the
    # (level, solve, violation) of each solve that does
    def solve(ok, violation):
        return {"max_principle_ok": ok, "max_principle_violation": violation}

    levels = [
        SimpleNamespace(index=0, solves={"constrained": solve(True, 0.0)}),
        SimpleNamespace(index=1, solves={"unconstrained": solve(True, 0.0),
                                         "constrained": solve(False, 2e-3)})]
    cfg = validate_config(_with(TINY, domain="unit-square", mesh={"h0": 0.25},
                                expectations={"max_principle": True}))
    assert evaluate(cfg, levels, {}) == [
        ("max_principle", False, "violated at [(1, 'constrained', '0.002')]")]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    res = run_config(TINY, str(tmp_path_factory.mktemp("tiny")))
    assert res.exit_code == 0
    return res


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=2)),
    max_leaves=4)
# values of each kind that validation may accept; arbitrary JSON otherwise
NEAR = {"tolerance": st.floats(0.0, 10.0), "factor": st.floats(-1.0, 10.0),
        "bool": st.booleans(), "verdict": st.sampled_from(FLAT_VERDICTS),
        "range": st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
        "corners": st.lists(st.integers(-1, 5), max_size=3)}
ENTRY = st.sampled_from(sorted(TABLE)).flatmap(
    lambda key: st.tuples(st.just(key), JSON | NEAR[TABLE[key][0]]))
EXPECTATIONS = (st.lists(ENTRY, max_size=4).map(dict)
                | st.dictionaries(st.text(max_size=6), JSON, max_size=2))


@settings(max_examples=200, deadline=None)
@given(EXPECTATIONS)
def test_any_expectation_value_validates_or_names_its_path(tiny_run, exp):
    try:
        cfg = validate_config(_with(TINY, expectations=exp))
    except ConfigError as exc:
        assert str(exc).startswith("config.expectations.")
        return
    rows = evaluate(cfg, tiny_run.levels, tiny_run.trends)
    assert len(rows) == len(cfg["expectations"])
