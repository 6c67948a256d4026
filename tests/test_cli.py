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
from hypothesis import given, settings
from hypothesis import strategies as st

from dclab import config, control, harness, meshing
from dclab.cli import main
from dclab.config import SCHEMA, ConfigError, load_config, validate_config
from dclab.expectations import (BOOL, CORNERS, FACTOR, RANGE, TABLE,
                                TOLERANCE, VERDICT)
from dclab.geometry import MAX_VERTICES
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
    assert out["expectations"] == {}
    # the corners to analyse follow from the domain: there is no block
    assert "analysis" not in out


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
        (_cfg(mesh={"lattice_angle": 0.3}),
         "config.mesh.lattice_angle: unknown field"),
        (_cfg(problem={"nu": 0.0}), "config.problem.nu"),
        (_cfg(problem={"lower": 2.0, "upper": 1.0}), "config.problem"),
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
        (_cfg(expectations={"h2": [7]}), "config.expectations.h2[0]"),
        (_cfg(expectations={"h2": [0, -1]}), "config.expectations.h2[1]"),
        (_cfg(problem={"target": {"kind": "skew-step", "corner": 4}}),
         "config.problem.target.corner"),
        (_cfg(problem=None, singular_data={"corner": 5, "n": 1, "eta": 1.5}),
         "config.singular_data.corner"),
        (_cfg(problem=None, singular_data={"corner": 0, "n": 1, "eta": 2.0}),
         "config.singular_data.eta"),
        # admissible for n = 1, but a nodal trace needs eta > 0
        (_cfg(problem=None, singular_data={"corner": 0, "n": 1, "eta": -0.25}),
         "config.singular_data.eta: must be positive"),
        (_cfg(problem=None, singular_data={"corner": 0, "n": 1, "eta": 0.0}),
         "config.singular_data.eta: must be positive"),
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
        # two keys of a corner map naming one corner
        (_cfg(mesh={"kind": "triangulated", "grading": {"0": 0.5, "00": 0.3}}),
         "config.mesh.grading[0]: corner given twice"),
        (_cfg(corner_radii={"0": 0.1, " 0": 0.2}),
         "config.corner_radii[0]: corner given twice"),
        # every block rejects a key it does not list
        (_cfg(mesh={"gradings": {"0": 0.5}}),
         "config.mesh.gradings: unknown field"),
        (_cfg(problem={"bogus": 1}), "config.problem.bogus: unknown field"),
        (_cfg(problem={"target": {"kind": "constant", "value": 0.0,
                                  "corner": 0}}),
         "config.problem.target.corner: unknown field"),
        (_cfg(problem=None, singular_data={"corner": 0, "n": 1, "eta": 1.5,
                                           "amplitud": 2}),
         "config.singular_data.amplitud: unknown field"),
        # the lattice angle, the step's height and the datum's amplitude
        # are not settable either
        (_cfg(problem={"target": {"kind": "skew-step", "corner": 0,
                                  "value": 1.0}}),
         "config.problem.target.value: unknown field"),
        (_cfg(problem=None, singular_data={"corner": 0, "n": 1, "eta": 1.5,
                                           "amplitude": 1.0}),
         "config.singular_data.amplitude: unknown field"),
        # the analysed corners, wedge modes and s* are not settable
        (_cfg(analysis={"corners": [0]}), "config.analysis: unknown field"),
        (_cfg(analysis={}), "config.analysis: unknown field"),
        # a value is never mistaken for the schema's leave-out default
        (_cfg(expectations={"kkt_max": "omit"}), "config.expectations.kkt_max"),
        (_cfg(domain={"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                      "name": "square"}),
         "config.domain.name: unknown field"),
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


COORD = (st.integers(-3, 3) | st.floats() | st.booleans()
         | st.sampled_from([10**399, 1e200, -1e200, 1e-200]))
ANGLE = (st.sampled_from(["pi", "3pi/2", "1.9pi", "-pi", "2pi", "pipi",
                          "pi/0", "pi/", "pi/pi", "/2", "x", ""])
         | st.floats().map(repr))
SECTOR = st.builds("sector({}{})".format, ANGLE, st.sampled_from(
    ["", ", 8", ",16", ", 3", ", 8, 3", ",", ", x", ", 8.5", ", True"]))
DOMAIN = (st.sampled_from(["l-shape", "unit-square", "hexagon"]) | SECTOR
          | st.text(max_size=12) | st.none() | st.integers() | st.floats()
          | st.lists(st.lists(COORD, min_size=2, max_size=2),
                     min_size=3, max_size=6).map(lambda v: {"vertices": v})
          | st.lists(st.lists(COORD, max_size=3) | COORD | st.text(max_size=2),
                     max_size=5).map(lambda v: {"vertices": v})
          | st.dictionaries(st.text(max_size=8), COORD, max_size=2))


@settings(max_examples=300, deadline=None)
@given(DOMAIN)
def test_any_domain_validates_or_names_its_path(domain):
    try:
        validate_config(_cfg(domain=domain))
    except ConfigError as exc:
        assert str(exc).startswith("config.domain"), str(exc)


def test_load_config_reports_json_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_preset_configs_normalize_as_pinned():
    # preset_configs.json holds the normalized configs as written by the
    # hand-coded validators that SCHEMA replaced
    path = os.path.join(os.path.dirname(__file__), "preset_configs.json")
    got = {f"{name}/{sub}" if sub else name: validate_config(cfg)
           for name in PRESETS for sub, cfg in expand_preset(name)}
    with open(path) as fh:
        assert json.dumps(got, indent=2, sort_keys=True) + "\n" == fh.read()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=2)),
    max_leaves=4)
def _mostly(strategy, other, one_in):
    """Draws from strategy, and about one draw in one_in from other."""
    return st.sampled_from(range(one_in)).flatmap(
        lambda i: other if i == one_in - 1 else strategy)


NUMBER = _mostly(st.floats(0.05, 3.0) | st.sampled_from([1, 2, 4.5]),
                 st.floats() | st.sampled_from([0, -1, 1e-10, 10**400, True]),
                 8)
POLYGONS = [[[0, 0], [2, 0], [2, 1], [0, 1]], [[0, 0], [1, 0], [0, 1]]]


def _near(kind):
    """Values shaped like a SCHEMA kind, not all of them valid."""
    if isinstance(kind, dict):
        fields = {key: _mostly(_near(k), JSON, 25)
                  for key, (k, _, _) in kind.items()}
        stray = st.dictionaries(st.text(max_size=6), JSON, min_size=1,
                                max_size=1)
        return st.tuples(
            st.fixed_dictionaries(
                {key: fields[key] for key, f in kind.items() if f[1]},
                optional={key: fields[key] for key, f in kind.items()
                          if not f[1]}),
            _mostly(st.just({}), stray, 20)).map(lambda p: {**p[1], **p[0]})
    name, *args = kind if isinstance(kind, tuple) else (kind,)
    if name == config.TAGGED:
        key, variants = args
        return st.sampled_from(sorted(variants)).flatmap(
            lambda tag: _near(variants[tag]).map(lambda b: {**b, key: tag}))
    leaves = {
        config.STR: lambda *_: st.text(max_size=4),
        config.NAME: lambda *_: _mostly(st.sampled_from(["run", "a.b-c_1"]),
                                        st.text(max_size=4), 4),
        BOOL: lambda *_: st.booleans(),
        config.NUMBER: lambda *_: NUMBER,
        config.COUNT: lambda *_: _mostly(st.integers(1, 3), st.integers(-1, 0), 8),
        config.CORNER: lambda *_: _mostly(st.integers(0, 2), st.integers(-1, 9), 8),
        RANGE: lambda *_: st.lists(NUMBER, min_size=1, max_size=3).map(sorted),
        config.VERTICES: lambda *_: _mostly(st.sampled_from(POLYGONS), st.lists(
            st.lists(NUMBER, min_size=2, max_size=2), max_size=4), 8),
        config.ENUM: lambda choices: st.sampled_from(choices),
        config.LIST: lambda item: st.lists(_near(item), max_size=3),
        config.MAP: lambda value: st.dictionaries(
            st.integers(-1, 6).map(str), _near(value), max_size=2),
        config.NAME_OR: lambda fields: _mostly(st.sampled_from(
            ["l-shape", "unit-square", "sector(3pi/2, 16)"]), _near(fields), 4),
    }
    return leaves[name](*args)


@settings(max_examples=300, deadline=None)
@given(_near(SCHEMA))
def test_any_config_validates_or_names_its_path(cfg):
    try:
        out = validate_config(cfg)
    except ConfigError as exc:
        assert re.match(r"config[.:]", str(exc)), str(exc)
        return
    # what a run writes as config.json validates to itself
    assert validate_config(json.loads(json.dumps(out, allow_nan=False))) == out


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
    # an override, and any edit of what expand_preset returned, stays in
    # the caller's copy
    for name in PRESETS:
        before = expand_preset(name)
        for _, cfg in expand_preset(name, levels=1):
            cfg["mesh"]["h0"] = None
        assert expand_preset(name) == before


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


@pytest.mark.parametrize("name", ["square-smoke", "ex38-skew",
                                  "lemma25-check", "case-a0"])
def test_cli_outputs_deterministic(tmp_path, name):
    # ex38-skew runs the control's singular profile and the structure
    # shells, lemma25-check the singular datum and its wedge lift, case-a0
    # PDAS from active sets seeded at the start point
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["preset", name, "--out", a]) == 0
    assert main(["preset", name, "--out", b]) == 0
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
    p.write_text(json.dumps(_cfg(expectations={"h2": [7]})))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config.expectations.h2[0]" in capsys.readouterr().err
    p.write_text(json.dumps(_cfg(expectations={"kkt_max": "x"})))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config.expectations.kkt_max" in capsys.readouterr().err
    p.write_text(json.dumps(_cfg(mesh={"h0": 1 / 16}, problem=None,
                                 singular_data={"corner": 0, "n": 1,
                                                "eta": -0.25})))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "config.singular_data.eta" in capsys.readouterr().err
    # files json cannot read: nested past the recursion limit, not UTF-8
    p.write_text("[" * 200000)
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {p} nests too deeply" in capsys.readouterr().err
    p.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {p} is not UTF-8" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")
    assert main(["preset", "no-such"]) == 2
    assert main(["preset", "square-smoke", "--levels", "0",
                 "--out", str(tmp_path / "p")]) == 2
    assert "config.mesh.levels" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "p")


@pytest.mark.parametrize("name", ["..", "/abs", "a/b", 'a"b', ""],
                         ids=["parent", "absolute", "nested", "quote",
                              "empty"])
def test_cli_name_outside_the_output_root_is_exit_2(tmp_path, capsys,
                                                    monkeypatch, name):
    # without --out a run writes to dclab-out/<name>: a name must be one
    # plain path component, which also keeps the gnuplot title unquoted
    monkeypatch.chdir(tmp_path)
    if name == "/abs":
        name = str(tmp_path / "abs")
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_cfg(name=name)))
    assert main(["run", str(p)]) == 2
    assert "config.name" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


@pytest.mark.parametrize("text, key", [
    ('{"domain": "unit-square", "mesh": {"h0": 0.25}, "mesh": {"h0": 0.5},'
     ' "problem": {"nu": 1.0, "target": {"kind": "constant", "value": 0}}}',
     "mesh"),
    ('{"domain": "unit-square", "mesh": {"h0": 0.25, "h0": 0.5},'
     ' "problem": {"nu": 1.0, "target": {"kind": "constant", "value": 0}}}',
     "h0"),
], ids=["top-level", "nested"])
def test_cli_repeated_json_key_is_exit_2(tmp_path, capsys, text, key):
    # json keeps the last of a repeated key; the config must not
    p = tmp_path / "c.json"
    p.write_text(text)
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"config error: {p}: key {key!r} given twice\n"
    assert not os.path.exists(tmp_path / "o")


def test_cli_unconverged_unconstrained_solve_is_exit_3(tmp_path, capsys,
                                                      monkeypatch):
    # a CG stopped at a loose tolerance leaves the KKT residual above the
    # problem's tolerance
    monkeypatch.setattr(control, "CG_RTOL", 1e-3)
    cfg = {"domain": "unit-square", "mesh": {"h0": 0.125},
           "problem": {"nu": 1.0,
                       "target": {"kind": "constant", "value": 1.0}}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 3
    assert "unconstrained solve did not converge" in capsys.readouterr().out


@pytest.mark.parametrize("problem", [
    {"nu": 1.0, "target": {"kind": "constant", "value": 1e4}},
    {"nu": 0.0001, "lower": -1.0, "upper": 1.0,
     "target": {"kind": "constant", "value": 0.5}},
], ids=["large-target", "small-nu"])
def test_cli_solves_at_any_scale_exit_0(tmp_path, problem):
    # a target of 1e4 leaves a residual of 1.2e-9, round-off of a control
    # of size 1.2e4, inside the tolerance of the problem's scale; at
    # nu = 1e-4 the PDAS sets cycle
    cfg = {"domain": "l-shape", "mesh": {"kind": "structured", "h0": 0.03125},
           "problem": problem}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", [
    ["run", "CONFIG"],
    ["preset", "square-smoke"],
    ["mesh", "unit-square", "--h", "0.5"],
], ids=["run", "preset", "mesh"])
def test_cli_out_naming_a_file_is_exit_2(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_cfg()))
    out = tmp_path / "taken"
    out.write_text("keep")
    argv = [str(cfg) if a == "CONFIG" else a for a in command]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("output error: ")
    assert out.read_text() == "keep"


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
                 "--grading", "2:0.5", "--out", out]) == 2
    # the lattice angle is not a setting: argparse rejects the flag
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "l-shape", "--h", "0.25", "--lattice-angle", "0.3",
              "--out", out])
    assert exc.value.code == 2
    assert "--lattice-angle" in capsys.readouterr().err


def test_cli_mesh_generator_failure_is_exit_3(tmp_path, capsys):
    # a graded corner of the unit square at h = 0.2 leaves a 14 degree
    # triangle: the generator fails its gate, nothing is written
    out = tmp_path / "m"
    rc = main(["mesh", "unit-square", "--h", "0.2", "--grading", "0:0.5",
               "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "mesh generation failed: min angle 14.04 deg below 20.0")
    assert not out.exists()


@pytest.mark.parametrize("args, field", [
    (["--h", "nan"], "config.mesh.h0"),
    (["--h", "inf"], "config.mesh.h0"),
    (["--h", "-1"], "config.mesh.h0"),
    (["--h", "0.2", "--grading", "2:1.5"], "config.mesh.grading[2]"),
    (["--h", "0.2", "--grading", "2:nan"], "config.mesh.grading[2]"),
    (["--h", "0.2", "--grading", "9:0.5"], "config.mesh.grading[9]"),
    (["--h", "0.2", "--grading", "2"], "config.mesh.grading[2]"),
    (["--h", "0.2", "--grading", "2:abc"], "config.mesh.grading[2]"),
    (["--h", "0.2", "--grading", "2:0.5", "--grading", "2:0.3"],
     "config.mesh.grading"),
    (["--h", "0.2", "--grading", "2:0.5", "--grading", "02:0.3"],
     "config.mesh.grading[2]"),
], ids=["h-nan", "h-inf", "h-negative",
        "grading-above-1", "grading-nan", "grading-no-corner",
        "grading-no-exponent", "grading-not-a-number", "grading-repeated",
        "grading-corner-repeated"])
def test_cli_mesh_bad_arguments_are_exit_2(tmp_path, capsys, args, field):
    # the mesh subcommand checks its arguments with the config's mesh rules
    out = str(tmp_path / "m")
    assert main(["mesh", "l-shape", *args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")
    assert not os.path.exists(out)


TRIANGLE = [[0, 0], [1, 0], [0, 1]]


@pytest.mark.parametrize("domain", [
    {"vertices": [[float("nan"), 1]] + TRIANGLE[1:]},
    "sector(pi/0, 8)",
    {"vertices": [[10**399, 0]] + TRIANGLE[1:]},
    {"vertices": [[True, 1]] + TRIANGLE[1:]},
    "sector(pipi, 8)",
    "sector(pi, 8, 3)",
    {"vertices": [[0, 0], [1e200, 0], [0, 1e200]]},
], ids=["vertex-nan", "sector-zero-denominator", "vertex-400-digits",
        "vertex-bool", "sector-pipi", "sector-three-arguments",
        "vertices-overflow"])
def test_cli_bad_domain_is_exit_2(tmp_path, capsys, domain):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_cfg(domain=domain)))
    out = tmp_path / "o"
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: config.domain")
    if isinstance(domain, str):
        assert main(["mesh", domain, "--h", "0.2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config.domain: ")
    assert not out.exists()


def _no_meshing(monkeypatch):
    def mesh(*args, **kwargs):
        raise AssertionError("a mesh was generated")
    for owner, attr in ((meshing, "triangulate"), (meshing, "structured_mesh"),
                        (harness, "make_mesh")):
        monkeypatch.setattr(owner, attr, mesh)


def test_node_budget_is_exit_2_before_meshing(tmp_path, capsys, monkeypatch):
    _no_meshing(monkeypatch)
    out = tmp_path / "o"
    assert main(["mesh", "l-shape", "--h", "1e-300", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: config.mesh.h0: ")
    p = tmp_path / "c.json"
    for levels in (40, 10**400):
        p.write_text(json.dumps(_cfg(mesh={"levels": levels})))
        assert main(["run", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config.mesh.h0: ")
    assert main(["preset", "square-smoke", "--levels", "40",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: config.mesh.h0: ")
    assert not out.exists()


def test_too_many_vertices_is_exit_2(tmp_path, capsys, monkeypatch):
    # the vertex count is checked before the domain is built: at a
    # smaller count these repeated vertices fail as zero-length sides
    _no_meshing(monkeypatch)
    p, out = tmp_path / "c.json", tmp_path / "o"
    sector = f"sector(3pi/2, {MAX_VERTICES - 1})"
    for domain in ({"vertices": [[0, 0]] * (MAX_VERTICES + 1)}, sector):
        p.write_text(json.dumps(_cfg(domain=domain)))
        assert main(["run", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.domain: ")
        assert f"need 3 to {MAX_VERTICES} vertices" in err or "arc chords" in err
    assert main(["mesh", sector, "--h", "0.2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: config.domain: ")
    assert not out.exists()


@pytest.mark.parametrize("domain, angle", [
    ({"vertices": [[0, 0], [1, 0],
                   [0.9659258262890683, 0.25881904510252074]]}, "15.00"),
    ("sector(0.3, 8)", "17.19"),
], ids=["triangle-15-deg", "sector-0.3"])
def test_corner_below_min_angle_is_exit_2(tmp_path, capsys, monkeypatch,
                                          domain, angle):
    # the triangles at a vertex split its angle, so no mesh of a corner
    # sharper than MIN_ANGLE_DEG passes the gate: rejected before meshing
    _no_meshing(monkeypatch)
    p, out = tmp_path / "c.json", tmp_path / "o"
    p.write_text(json.dumps(_cfg(domain=domain,
                                 mesh={"kind": "triangulated", "h0": 0.05})))
    needle = (f"config error: config.domain: corner 0 has angle "
              f"{angle} deg, below the mesh minimum {meshing.MIN_ANGLE_DEG}")
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(needle)
    if isinstance(domain, str):
        assert main(["mesh", domain, "--h", "0.05", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(needle)
    assert not out.exists()
