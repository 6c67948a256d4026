"""Run-configuration schema: validation and normalization.

A configuration is a JSON-compatible dict describing one experiment: a
domain, a mesh ladder, either a control problem or a singular boundary
datum, the analyses to run, and optional expectations the harness turns
into pass/fail verdicts.  Validation reports the offending field path.
"""

from __future__ import annotations

import json
import sys

from .expectations import (BOOL, CORNERS, FACTOR, FLAT_VERDICTS, RANGE,
                           TABLE, VERDICT)
from .geometry import (GeometryError, SingularBoundaryData, build_domain,
                       validate_singular_boundary_data)


class ConfigError(ValueError):
    """Invalid configuration; the message names the field."""


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _get(d, key, path, types, required=False, default=None):
    # an explicit JSON null counts as absent, which also makes
    # re-validating an already normalized config a no-op
    if key not in d or d[key] is None:
        if required:
            _fail(f"{path}.{key}", "required field missing")
        return default
    v = d[key]
    accepted = types if isinstance(types, tuple) else (types,)
    # bool is a subclass of int; accept it only where it is asked for
    if not isinstance(v, accepted) or (isinstance(v, bool) and bool not in accepted):
        tn = " or ".join(t.__name__ for t in accepted)
        _fail(f"{path}.{key}", f"expected {tn}, got {type(v).__name__}")
    return v


def _finite(v, path):
    # rejects NaN and infinities, and an int too large for a float, on
    # which float() raises OverflowError
    if not abs(v) <= sys.float_info.max:
        _fail(path, "must be finite")
    return float(v)


def _number(d, key, path, required=False, default=None, positive=False):
    v = _get(d, key, path, (int, float), required=required, default=default)
    if v is None:
        return None
    v = _finite(v, f"{path}.{key}")
    if positive and v <= 0.0:
        _fail(f"{path}.{key}", "must be positive")
    return v


def _corner_index(j, n_corners, path):
    if not 0 <= j < n_corners:
        _fail(path, f"corner {j} does not exist; the domain has corners "
                    f"0..{n_corners - 1}")


def _corner_list(corners, n_corners, path):
    for i, j in enumerate(corners):
        if not isinstance(j, int) or isinstance(j, bool):
            _fail(f"{path}[{i}]", "expected an integer")
        _corner_index(j, n_corners, f"{path}[{i}]")
    return list(corners)


def _corner_map(raw, path):
    out = {}
    for k, v in raw.items():
        try:
            j = int(k)
        except (TypeError, ValueError):
            _fail(path, f"corner index {k!r} is not an integer")
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            _fail(f"{path}[{k}]", "expected a number")
        out[j] = _finite(v, f"{path}[{k}]")
    return out


_TARGET_KINDS = {"constant", "skew-step"}
_SOLVE_MODES = {"constrained", "unconstrained", "both"}
_MESH_KINDS = {"triangulated", "structured"}


def _expectations(raw, n_corners):
    """Check each expectation value against the kind its table entry names."""
    path = "config.expectations"
    out = {}
    for key, v in raw.items():
        where = f"{path}.{key}"
        if key not in TABLE:
            _fail(where, "unknown expectation")
        if v is None:  # an explicit null counts as absent, as in _get
            continue
        kind = TABLE[key][0]
        if kind == BOOL:
            _get(raw, key, path, bool)
        elif kind == VERDICT:
            if _get(raw, key, path, str) not in FLAT_VERDICTS:
                _fail(where, f"must be one of {list(FLAT_VERDICTS)}")
        elif kind == RANGE:
            if len(_get(raw, key, path, list)) != 2:
                _fail(where, "expected [lo, hi]")
            v = [_number({key: x}, key, path, required=True) for x in v]
            if v[0] > v[1]:
                _fail(where, "lo exceeds hi")
        elif kind == CORNERS:
            v = _corner_list(_get(raw, key, path, list), n_corners, where)
        else:
            v = _number(raw, key, path, positive=kind == FACTOR)
            if v < 0.0:
                _fail(where, "must be non-negative")
        out[key] = v
    return out


def _vertex(v, path):
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                       for c in v)):
        _fail(path, "expected [x, y]")
    return [_finite(c, path) for c in v]


def resolve_domain(cfg):
    """Validate the ``domain`` and ``corner_radii`` fields of a
    configuration and build the domain.

    Returns (normalized domain, normalized radii, PolygonalDomain).
    """
    dom = _get(cfg, "domain", "config", (str, dict), required=True)
    if isinstance(dom, dict):
        verts = _get(dom, "vertices", "config.domain", list, required=True)
        if len(verts) < 3:
            _fail("config.domain.vertices", "need at least 3 vertices")
        dom = {"vertices": [_vertex(v, f"config.domain.vertices[{i}]")
                            for i, v in enumerate(verts)]}
    radii = _get(cfg, "corner_radii", "config", dict, default=None)
    radii = _corner_map(radii, "config.corner_radii") if radii else None
    try:
        domain = build_domain(dom["vertices"] if isinstance(dom, dict) else dom,
                              r_overrides=radii)
    except GeometryError as exc:
        _fail("config.domain", str(exc))
    # build_domain ignores radius overrides of corners it does not have
    for j in radii or {}:
        _corner_index(j, len(domain.corners), f"config.corner_radii[{j}]")
    return dom, radii, domain


def resolve_mesh(mesh, n_corners) -> dict:
    """Validate and normalize the ``mesh`` block of a configuration for a
    domain with ``n_corners`` corners."""
    m = {}
    m["kind"] = _get(mesh, "kind", "config.mesh", str, default="triangulated")
    if m["kind"] not in _MESH_KINDS:
        _fail("config.mesh.kind", f"must be one of {sorted(_MESH_KINDS)}")
    m["h0"] = _number(mesh, "h0", "config.mesh", required=True, positive=True)
    levels = _get(mesh, "levels", "config.mesh", int, default=1)
    if levels < 1:
        _fail("config.mesh.levels", "must be an integer >= 1")
    m["levels"] = levels
    grading = _get(mesh, "grading", "config.mesh", dict, default=None)
    if grading:
        g = _corner_map(grading, "config.mesh.grading")
        for j, mu in g.items():
            _corner_index(j, n_corners, f"config.mesh.grading[{j}]")
            if not 0.0 < mu <= 1.0:
                _fail(f"config.mesh.grading[{j}]", "exponent must lie in (0, 1]")
        if m["kind"] == "structured":
            _fail("config.mesh.grading", "structured meshes do not support grading")
        m["grading"] = g
    else:
        m["grading"] = None
    m["lattice_angle"] = _number(mesh, "lattice_angle", "config.mesh", default=0.0)
    if m["kind"] == "structured" and m["lattice_angle"] != 0.0:
        _fail("config.mesh.lattice_angle",
              "structured meshes do not support a lattice angle")
    return m


def validate_config(cfg) -> dict:
    """Normalize and validate a configuration dict.

    Returns a new dict with defaults filled in; raises ConfigError with a
    field path on the first problem found.
    """
    return resolve_config(cfg)[0]


def resolve_config(cfg):
    """Validate a configuration and build its domain.

    Returns (normalized config, PolygonalDomain).  Every corner index the
    config names is checked against the domain, so a run never meets an
    out-of-range corner.
    """
    if not isinstance(cfg, dict):
        _fail("config", "top level must be an object")
    out = {}
    out["name"] = _get(cfg, "name", "config", str, default="run")

    out["domain"], out["corner_radii"], domain = resolve_domain(cfg)
    n_corners = len(domain.corners)

    out["mesh"] = resolve_mesh(
        _get(cfg, "mesh", "config", dict, required=True), n_corners)

    data = _get(cfg, "singular_data", "config", dict, default=None)
    prob = _get(cfg, "problem", "config", dict, default=None)
    if (data is None) == (prob is None):
        _fail("config", "exactly one of 'problem' or 'singular_data' is required")

    if data is not None:
        d = {}
        corner = _get(data, "corner", "config.singular_data", int, required=True)
        _corner_index(corner, n_corners, "config.singular_data.corner")
        d["corner"] = corner
        n = _get(data, "n", "config.singular_data", int, required=True)
        if n not in (1, 2):
            _fail("config.singular_data.n", "parity must be 1 or 2")
        d["n"] = n
        d["eta"] = _number(data, "eta", "config.singular_data", required=True)
        d["amplitude"] = _number(data, "amplitude", "config.singular_data",
                                 default=1.0)
        try:
            validate_singular_boundary_data(domain, SingularBoundaryData(**d))
        except GeometryError as exc:
            _fail("config.singular_data.eta", str(exc))
        out["singular_data"] = d
        out["problem"] = None
    else:
        p = {}
        p["nu"] = _number(prob, "nu", "config.problem", required=True, positive=True)
        p["lower"] = _number(prob, "lower", "config.problem")
        p["upper"] = _number(prob, "upper", "config.problem")
        if (p["lower"] is not None and p["upper"] is not None
                and p["lower"] > p["upper"]):
            _fail("config.problem", "lower bound exceeds upper bound")
        tgt = _get(prob, "target", "config.problem", dict, required=True)
        kind = _get(tgt, "kind", "config.problem.target", str, required=True)
        if kind not in _TARGET_KINDS:
            _fail("config.problem.target.kind",
                  f"must be one of {sorted(_TARGET_KINDS)}")
        t = {"kind": kind}
        if kind == "constant":
            t["value"] = _number(tgt, "value", "config.problem.target",
                                 required=True)
        else:
            t["corner"] = _get(tgt, "corner", "config.problem.target", int,
                               required=True)
            _corner_index(t["corner"], n_corners, "config.problem.target.corner")
            t["value"] = _number(tgt, "value", "config.problem.target",
                                 default=1.0)
        p["target"] = t
        solve = _get(prob, "solve", "config.problem", str, default=None)
        if solve is None:
            solve = ("constrained" if (p["lower"] is not None
                                       or p["upper"] is not None)
                     else "unconstrained")
        if solve not in _SOLVE_MODES:
            _fail("config.problem.solve", f"must be one of {sorted(_SOLVE_MODES)}")
        p["solve"] = solve
        out["problem"] = p
        out["singular_data"] = None

    ana = _get(cfg, "analysis", "config", dict, default=None) or {}
    a = {}
    a["corners"] = _corner_list(
        _get(ana, "corners", "config.analysis", list, default=[]), n_corners,
        "config.analysis.corners")
    modes = _get(ana, "modes", "config.analysis", list, default=[1, 2])
    for i, mm in enumerate(modes):
        if not isinstance(mm, int) or isinstance(mm, bool) or mm < 1:
            _fail(f"config.analysis.modes[{i}]", "expected a positive integer")
    a["modes"] = modes
    a["flatness"] = bool(_get(ana, "flatness", "config.analysis", bool,
                              default=False))
    a["structure"] = bool(_get(ana, "structure", "config.analysis", bool,
                               default=False))
    a["s_star"] = _number(ana, "s_star", "config.analysis", default=4.0)
    if a["s_star"] < 2.0:
        _fail("config.analysis.s_star", "must be >= 2")
    out["analysis"] = a

    exp = _get(cfg, "expectations", "config", dict, default=None) or {}
    out["expectations"] = _expectations(exp, n_corners)

    known = {"name", "domain", "corner_radii", "mesh", "problem",
             "singular_data", "analysis", "expectations"}
    for k in cfg:
        if k not in known:
            _fail(f"config.{k}", "unknown field")
    return out, domain


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return validate_config(raw)
