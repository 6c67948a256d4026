"""Named experiment presets for the CLI.

Each preset expands to one or more complete configuration dicts in the
schema of config.validate_config; run_config validates them.  Registry
order is alphabetical and the listing is part of the public interface, so
treat renames as breaking changes.
"""

from __future__ import annotations

import copy


# name -> (one-line description, [(subname, config)]); keep alphabetical
PRESETS = {
    "case-a0": (
        "one-sided bounds [0, 1] with negative target; control sits at the"
        " lower bound, flat verdict at the re-entrant corner",
        [("", {
            "name": "case-a0",
            "domain": "l-shape",
            "mesh": {"kind": "triangulated", "h0": 1.0 / 32, "levels": 2,
                     "grading": {2: 0.5}},
            "problem": {"nu": 0.2, "lower": 0.0, "upper": 1.0,
                        "target": {"kind": "constant", "value": -1.0}},
            "expectations": {"control_max": 1e-10,
                             "flat_verdict": "flat-at-a",
                             "max_principle": True},
        })]),
    "ex38-skew": (
        "odd step target about the sector bisector; leading odd coefficient"
        " decays under refinement, second stays put",
        [("", {
            "name": "ex38-skew",
            "domain": "sector(3pi/2, 64)",
            "corner_radii": {0: 0.3},
            "mesh": {"kind": "triangulated", "h0": 0.05, "levels": 3},
            "problem": {"nu": 1.0, "lower": -1.0, "upper": 1.0,
                        "target": {"kind": "skew-step", "corner": 0}},
            "expectations": {"c1_decay_factor": 2.0, "c2_stable_within": 0.2,
                             "holder_ratio_max": 0.6, "h2": [0]},
        })]),
    "ex38-symmetric": (
        "constant target on the sector; leading odd coefficient stays"
        " bounded away from zero",
        [("", {
            "name": "ex38-symmetric",
            "domain": "sector(3pi/2, 64)",
            "corner_radii": {0: 0.3},
            "mesh": {"kind": "triangulated", "h0": 0.05, "levels": 3},
            "problem": {"nu": 1.0, "lower": -1.0, "upper": 1.0,
                        "target": {"kind": "constant", "value": 1.0}},
            "expectations": {"c1_min": 0.05, "c1_stable_within": 0.2,
                             "h2": []},
        })]),
    "lemma25-check": (
        "harmonic lift of corner-singular boundary data; remainder decays"
        " faster than the datum exponent",
        [("n1-square", {
            "name": "lemma25-n1-square",
            "domain": "unit-square",
            "mesh": {"kind": "triangulated", "h0": 1.0 / 16, "levels": 3,
                     "grading": {0: 0.5}},
            "singular_data": {"corner": 0, "n": 1, "eta": 1.5},
            "expectations": {"expansion_ok": True},
        }), ("n2-lshape", {
            "name": "lemma25-n2-lshape",
            "domain": "l-shape",
            "mesh": {"kind": "triangulated", "h0": 1.0 / 16, "levels": 3,
                     "grading": {2: 0.5}},
            "singular_data": {"corner": 2, "n": 2, "eta": 1.0 / 3.0},
            "expectations": {"expansion_ok": True},
        })]),
    "lshape-constrained": (
        "constrained tracking on the L-shape; control is flat at a bound"
        " near the re-entrant corner",
        [("", {
            "name": "lshape-constrained",
            "domain": "l-shape",
            "mesh": {"kind": "triangulated", "h0": 1.0 / 32, "levels": 3,
                     "grading": {2: 0.5}},
            "problem": {"nu": 0.2, "lower": -1.0, "upper": 1.0,
                        "target": {"kind": "constant", "value": 1.0}},
            "expectations": {"flat_verdict": "flat-at-b",
                             "flat_radius_stable": 0.2,
                             "sign_consistent": True, "max_principle": True},
        })]),
    "lshape-unconstrained": (
        "unconstrained tracking on the L-shape; control grows at the"
        " re-entrant corner at the predicted rate, constrained twin stays"
        " bounded",
        [("", {
            "name": "lshape-unconstrained",
            "domain": "l-shape",
            "mesh": {"kind": "triangulated", "h0": 1.0 / 32, "levels": 2,
                     "grading": {2: 1.0 / 3.0}},
            "problem": {"nu": 0.2, "lower": -1.0, "upper": 1.0,
                        "solve": "both",
                        "target": {"kind": "constant", "value": 1.0}},
            "expectations": {"slope_range": [-0.43, -0.23],
                             "twin_bounded": True, "structure_decays": True},
        })]),
    "square-smoke": (
        "zero target on the unit square; optimal control vanishes to solver"
        " tolerance",
        [("", {
            "name": "square-smoke",
            "domain": "unit-square",
            "mesh": {"kind": "structured", "h0": 1.0 / 8, "levels": 2},
            "problem": {"nu": 1.0, "lower": -1.0, "upper": 1.0,
                        "target": {"kind": "constant", "value": 0.0}},
            "expectations": {"control_max": 1e-10, "kkt_max": 1e-10,
                             "max_principle": True},
        })]),
}


def list_presets():
    """(name, description) pairs in stable alphabetical order."""
    return [(name, PRESETS[name][0]) for name in sorted(PRESETS)]


def expand_preset(name: str, levels: int | None = None):
    """Return the (subname, config) pairs of a preset, not yet validated.

    The configs are copies, so callers may edit them.  ``levels``
    overrides the ladder depth of every sub-configuration.
    """
    if name not in PRESETS:
        from .config import ConfigError
        raise ConfigError(f"unknown preset {name!r}; run 'dclab presets'")
    out = copy.deepcopy(PRESETS[name][1])
    if levels is not None:
        for _, cfg in out:
            cfg["mesh"]["levels"] = int(levels)
    return out
