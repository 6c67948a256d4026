"""Configuration validation, preset registry, and CLI behavior.

The CLI contract: exit 0 when all expectations hold, 1 when a verdict
fails, 2 on configuration errors, 3 on solver failures; artifacts are
byte-identical across reruns of the same configuration.
"""

import copy
import json
import os
import re

import pytest

from dclab.cli import main
from dclab.config import ConfigError, load_config, validate_config
from dclab.expectations import (BOOL, CORNERS, FACTOR, RANGE, TABLE,
                                TOLERANCE, VERDICT)
from dclab.presets import PRESETS, expand_preset, list_presets

BASE = {
    "domain": "unit-square",
    "mesh": {"kind": "structured", "h0": 0.25},
    "problem": {"nu": 1.0, "lower": -1.0, "upper": 1.0,
                "target": {"kind": "constant", "value": 0.0}},
}


def _cfg(**mesh_or_top):
    cfg = copy.deepcopy(BASE)
    for key, val in mesh_or_top.items():
        if isinstance(val, dict) and key in cfg and isinstance(cfg[key], dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


# ---------------------------------------------------------------------
# config validation

def test_defaults_filled():
    out = validate_config(BASE)
    assert out["name"] == "run"
    assert out["mesh"]["levels"] == 1
    assert out["mesh"]["kind"] == "structured"
    assert out["problem"]["solve"] == "constrained"
    assert out["analysis"] == {"corners": [], "modes": [1, 2],
                               "flatness": False, "structure": False,
                               "s_star": 4.0}
    assert out["expectations"] == {}


def test_solve_mode_inferred_from_bounds():
    free = _cfg()
    del free["problem"]["lower"], free["problem"]["upper"]
    assert validate_config(free)["problem"]["solve"] == "unconstrained"
    nulls = _cfg(problem={"lower": None, "upper": None})
    assert validate_config(nulls)["problem"]["solve"] == "unconstrained"
    assert validate_config(BASE)["problem"]["solve"] == "constrained"


def test_validation_is_idempotent():
    once = validate_config(BASE)
    assert validate_config(copy.deepcopy(once)) == once


def test_error_paths_carry_field_names():
    cases = [
        (_cfg(mesh={"h0": None}), "config.mesh.h0"),
        (_cfg(mesh={"h0": -0.1}), "config.mesh.h0"),
        (_cfg(mesh={"levels": 0}), "config.mesh.levels"),
        (_cfg(mesh={"kind": "hexahedral"}), "config.mesh.kind"),
        (_cfg(mesh={"grading": {0: 0.5}}), "config.mesh.grading"),
        (_cfg(mesh={"lattice_angle": 0.3}), "config.mesh.lattice_angle"),
        (_cfg(problem={"nu": 0.0}), "config.problem.nu"),
        (_cfg(problem={"lower": 2.0, "upper": 1.0}), "config.problem"),
        (_cfg(analysis={"s_star": 1.5}), "config.analysis.s_star"),
        (_cfg(expectations={"bogus": 1}), "config.expectations.bogus"),
        (_cfg(extra_field=1), "config.extra_field"),
        (_cfg(mesh={"levels": True}), "config.mesh.levels"),
        (_cfg(mesh={"h0": True}), "config.mesh.h0"),
        (_cfg(problem={"lower": True}), "config.problem.lower"),
        (_cfg(problem={"target": {"kind": "skew-step", "corner": True}}),
         "config.problem.target.corner"),
        (_cfg(problem=None, singular_data={"corner": True, "n": 1, "eta": 1.5}),
         "config.singular_data.corner"),
        (_cfg(problem=None, singular_data={"corner": 0, "n": True, "eta": 1.5}),
         "config.singular_data.n"),
        (_cfg(seed=False), "config.seed"),
        # corner indices are range-checked against the built domain
        (_cfg(analysis={"corners": [7]}), "config.analysis.corners[0]"),
        (_cfg(analysis={"corners": [0, -1]}), "config.analysis.corners[1]"),
        (_cfg(problem={"target": {"kind": "skew-step", "corner": 4}}),
         "config.problem.target.corner"),
        (_cfg(problem=None, singular_data={"corner": 5, "n": 1, "eta": 1.5}),
         "config.singular_data.corner"),
        (_cfg(problem=None, singular_data={"corner": 0, "n": 1, "eta": 2.0}),
         "config.singular_data.eta"),
        (_cfg(corner_radii={"9": 0.1}), "config.corner_radii[9]"),
        (_cfg(mesh={"kind": "triangulated", "grading": {"4": 0.5}}),
         "config.mesh.grading[4]"),
        (_cfg(domain="hexagon"), "config.domain"),
        (_cfg(domain="sector(x)"), "config.domain"),
        (_cfg(domain={"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]}),
         "config.domain"),
        # expectation values are checked by the kind their table entry names
        (_cfg(expectations={"c1_decay_factor": 0}),
         "config.expectations.c1_decay_factor"),
        (_cfg(expectations={"kkt_max": -1e-10}), "config.expectations.kkt_max"),
        (_cfg(expectations={"kkt_max": 10**400}), "config.expectations.kkt_max"),
        (_cfg(expectations={"flat_verdict": "flat"}),
         "config.expectations.flat_verdict"),
        (_cfg(expectations={"slope_range": [0.5, -0.5]}),
         "config.expectations.slope_range"),
        (_cfg(expectations={"slope_range": [0.5]}),
         "config.expectations.slope_range"),
        (_cfg(expectations={"slope_range": [0.5, float("inf")]}),
         "config.expectations.slope_range"),
        (_cfg(expectations={"h2": [0, 4]}), "config.expectations.h2[1]"),
        # bounds, radii and grading exponents must be finite floats
        (_cfg(problem={"lower": 10**400}), "config.problem.lower"),
        (_cfg(problem={"lower": float("nan")}), "config.problem.lower"),
        (_cfg(problem={"upper": float("nan")}), "config.problem.upper"),
        (_cfg(corner_radii={"0": 10**400}), "config.corner_radii[0]"),
        (_cfg(corner_radii={"0": float("nan")}), "config.corner_radii[0]"),
        (_cfg(mesh={"kind": "triangulated", "grading": {"2": 10**400}}),
         "config.mesh.grading[2]"),
    ]
    wrong_type = {TOLERANCE: "x", FACTOR: "x", BOOL: "yes", VERDICT: 3,
                  RANGE: 5, CORNERS: 3}
    for key, (kind, _) in TABLE.items():
        cases.append((_cfg(expectations={key: wrong_type[kind]}),
                      f"config.expectations.{key}"))
    for cfg, needle in cases:
        with pytest.raises(ConfigError, match=re.escape(needle)):
            validate_config(cfg)


def test_bad_target_kind_rejected():
    cfg = _cfg()
    cfg["problem"]["target"] = {"kind": "gaussian"}
    with pytest.raises(ConfigError, match="target.kind"):
        validate_config(cfg)


def test_exactly_one_problem_block():
    neither = _cfg()
    del neither["problem"]
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config(neither)
    both = _cfg(singular_data={"corner": 0, "n": 1, "eta": 1.5})
    with pytest.raises(ConfigError, match="exactly one"):
        validate_config(both)


def test_vertex_domain_accepted():
    cfg = _cfg(domain={"vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]})
    cfg["mesh"]["kind"] = "triangulated"
    out = validate_config(cfg)
    assert out["domain"]["vertices"][1] == [2.0, 0.0]


def test_load_config_reports_json_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


# ---------------------------------------------------------------------
# preset registry

def test_preset_listing_stable_and_complete():
    names = [n for n, _ in list_presets()]
    assert names == sorted(names)
    assert names == ["case-a0", "ex38-skew", "ex38-symmetric",
                     "lemma25-check", "lshape-constrained",
                     "lshape-unconstrained", "square-smoke"]
    assert all(desc for _, desc in list_presets())


def test_every_preset_expands_to_valid_configs():
    for name in PRESETS:
        subs = expand_preset(name)
        assert subs
        for subname, cfg in subs:
            cfg = validate_config(cfg)
            assert cfg["mesh"]["levels"] >= 1
            assert (cfg["problem"] is None) != (cfg["singular_data"] is None)


def test_levels_override():
    for _, cfg in expand_preset("lshape-constrained", levels=1):
        assert cfg["mesh"]["levels"] == 1


def test_unknown_preset_raises():
    with pytest.raises(ConfigError, match="unknown preset"):
        expand_preset("no-such")


# ---------------------------------------------------------------------
# CLI

def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "square-smoke" in out and "lshape-constrained" in out


def test_cli_square_smoke_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["preset", "square-smoke", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "PASS  control_max" in summary
    assert os.path.exists(os.path.join(out, "level1", "boundary.csv"))
    assert os.path.exists(os.path.join(out, "profile.gp"))
    cfg = json.load(open(os.path.join(out, "config.json")))
    assert cfg["name"] == "square-smoke"


def test_cli_outputs_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["preset", "square-smoke", "--out", a]) == 0
    assert main(["preset", "square-smoke", "--out", b]) == 0
    for root, _, files in os.walk(a):
        for f in files:
            pa = os.path.join(root, f)
            pb = pa.replace(a, b, 1)
            assert open(pa, "rb").read() == open(pb, "rb").read(), f
    # same files on both sides
    na = sum(len(fs) for _, _, fs in os.walk(a))
    nb = sum(len(fs) for _, _, fs in os.walk(b))
    assert na == nb > 0


def test_cli_config_error_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"domain": "unit-square",
                             "mesh": {"h0": 0.25}}))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    p.write_text(json.dumps(_cfg(analysis={"corners": [7]})))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config.analysis.corners[0]" in capsys.readouterr().err
    p.write_text(json.dumps(_cfg(expectations={"kkt_max": "x"})))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config.expectations.kkt_max" in capsys.readouterr().err
    assert main(["preset", "no-such"]) == 2
    assert main(["preset", "square-smoke", "--levels", "0",
                 "--out", str(tmp_path / "p")]) == 2
    assert "config.mesh.levels" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "p")


def test_cli_failed_expectation_is_exit_1(tmp_path, capsys):
    cfg = _cfg(expectations={"control_max": 1e-30})
    cfg["problem"]["target"]["value"] = 0.5
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "FAIL  control_max" in capsys.readouterr().out


def test_cli_mesh_subcommand(tmp_path, capsys):
    out = str(tmp_path / "m")
    rc = main(["mesh", "l-shape", "--h", "0.1", "--grading", "2:0.5",
               "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "mesh_nodes.csv"))
    assert os.path.exists(os.path.join(out, "mesh_triangles.csv"))
    assert main(["mesh", "no-such-domain", "--h", "0.2"]) == 2
    assert main(["mesh", "l-shape", "--h", "0.25", "--structured",
                 "--lattice-angle", "0.3", "--out", out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args, field", [
    (["--h", "nan"], "config.mesh.h0"),
    (["--h", "inf"], "config.mesh.h0"),
    (["--h", "0.2", "--lattice-angle", "nan"], "config.mesh.lattice_angle"),
    (["--h", "-1"], "config.mesh.h0"),
    (["--h", "0.2", "--grading", "2:1.5"], "config.mesh.grading[2]"),
    (["--h", "0.2", "--grading", "2:nan"], "config.mesh.grading[2]"),
    (["--h", "0.2", "--grading", "9:0.5"], "config.mesh.grading[9]"),
], ids=["h-nan", "h-inf", "lattice-angle-nan", "h-negative",
        "grading-above-1", "grading-nan", "grading-no-corner"])
def test_cli_mesh_bad_arguments_are_exit_2(tmp_path, capsys, args, field):
    # the mesh subcommand checks its arguments with the config's mesh rules
    out = str(tmp_path / "m")
    assert main(["mesh", "l-shape", *args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert not os.path.exists(out)
