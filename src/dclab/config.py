"""Run-configuration schema: validation and normalization.

A configuration is a JSON-compatible dict describing one experiment: a
domain, a mesh ladder, either a control problem or a singular boundary
datum, and optional expectations the harness turns into pass/fail
verdicts; the corners to analyse follow from the domain.  One walker
checks a config against SCHEMA, fills in defaults and rejects any key a
block does not list; the rules that tie fields together run after it.
Errors name the field path.
"""

from __future__ import annotations

import json
import math
import re
import sys

from .expectations import (BOOL, CORNERS, FACTOR, FLAT_VERDICTS, RANGE,
                           TABLE, TOLERANCE, VERDICT)
from .geometry import (GeometryError, SingularBoundaryData, build_domain,
                       validate_singular_boundary_data)
from .meshing import MIN_ANGLE_DEG

#: Node budget of a ladder's finest level.  Its estimate, domain area /
#: h_finest**2, is a lower bound for both mesh generators.  It is 49,152
#: for lshape-constrained's finest level (57,769 actual nodes), which
#: leaves about 17x headroom.
MAX_NODES = 10**6


class ConfigError(ValueError):
    """Invalid configuration; the message names the field."""


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _typed(v, path, *types):
    # bool is a subclass of int; accept it only where it is asked for
    if not isinstance(v, types) or (isinstance(v, bool) and bool not in types):
        tn = " or ".join(t.__name__ for t in types)
        _fail(path, f"expected {tn}, got {type(v).__name__}")
    return v


# A kind is a name in _KINDS, a tuple of that name and its arguments, or a
# block: a dict of field -> (kind, required, default).  A kind's walker
# returns the normalized value, and appends (path, index) to corners for
# each corner index, to be checked once the domain is built.

STR, NAME, NUMBER, COUNT, CORNER, VERTICES = (
    "str", "name", "number", "count", "corner", "vertices")
ENUM, LIST, MAP, TAGGED, NAME_OR = "enum", "list", "map", "tagged", "name-or"

#: default of a field that the normalized block leaves out when absent
OMIT = object()


def _name(v, path, corners):
    # one plain path component: it names the run's directory under the
    # output root, and is written unquoted into the gnuplot title
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", _typed(v, path, str)):
        _fail(path, "must be letters, digits, '.', '_' or '-', starting "
                    "with a letter or digit")
    return v


def _number(v, path, corners, test=None, msg=None):
    _typed(v, path, int, float)
    # rejects NaN and infinities, and an int too large for a float, on
    # which float() raises OverflowError
    if not abs(v) <= sys.float_info.max:
        _fail(path, "must be finite")
    if test is not None and not test(float(v)):
        _fail(path, msg)
    return float(v)


def _count(v, path, corners):
    if _typed(v, path, int) < 1:
        _fail(path, "must be an integer >= 1")
    return v


def _corner(v, path, corners):
    corners.append((path, _typed(v, path, int)))
    return v


def _range(v, path, corners):
    if len(_typed(v, path, list)) != 2:
        _fail(path, "expected [lo, hi]")
    lo, hi = (_number(x, path, corners) for x in v)
    if lo > hi:
        _fail(path, "lo exceeds hi")
    return [lo, hi]


def _vertices(v, path, corners):
    if len(_typed(v, path, list)) < 3:
        _fail(path, "need at least 3 vertices")
    out = []
    for i, xy in enumerate(v):
        if not isinstance(xy, (list, tuple)) or len(xy) != 2:
            _fail(f"{path}[{i}]", "expected [x, y]")
        out.append([_number(c, f"{path}[{i}]", corners) for c in xy])
    return out


def _enum(v, path, corners, choices):
    if _typed(v, path, type(choices[0])) not in choices:
        _fail(path, f"must be one of {list(choices)}")
    return v


def _list(v, path, corners, kind):
    return [_walk(kind, x, f"{path}[{i}]", corners)
            for i, x in enumerate(_typed(v, path, list))]


def _corner_map(v, path, corners, kind):
    """Corner index -> value of kind; an empty map normalizes to None."""
    out = {}
    for k, x in _typed(v, path, dict).items():
        try:
            j = int(k)
        except (TypeError, ValueError):
            _fail(path, f"corner index {k!r} is not an integer")
        if j in out:
            _fail(f"{path}[{j}]", "corner given twice")
        corners.append((f"{path}[{j}]", j))
        out[j] = _walk(kind, x, f"{path}[{k}]", corners)
    return out or None


def _tagged(v, path, corners, key, variants):
    """A block whose fields are those of variants[v[key]]."""
    tag = _typed(v, path, dict).get(key)
    if tag is None:
        _fail(f"{path}.{key}", "required field missing")
    _enum(tag, f"{path}.{key}", corners, tuple(variants))
    return _block(variants[tag], v, path, corners)


def _name_or(v, path, corners, fields):
    if isinstance(v, str):
        return v
    return _block(fields, _typed(v, path, str, dict), path, corners)


def _block(fields, v, path, corners):
    for key in _typed(v, path, dict):
        if key not in fields:
            _fail(f"{path}.{key}", "unknown field")
    out = {}
    for key, (kind, required, default) in fields.items():
        # an explicit JSON null counts as absent, which also makes
        # re-validating an already normalized config a no-op
        x = v.get(key)
        if x is None and required:
            _fail(f"{path}.{key}", "required field missing")
        x = default if x is None else x
        if x is not OMIT:
            out[key] = (None if x is None
                        else _walk(kind, x, f"{path}.{key}", corners))
    return out


_KINDS = {STR: lambda v, path, corners: _typed(v, path, str), NAME: _name,
          BOOL: lambda v, path, corners: _typed(v, path, bool),
          NUMBER: _number, COUNT: _count, CORNER: _corner, RANGE: _range,
          VERTICES: _vertices, ENUM: _enum, LIST: _list, MAP: _corner_map,
          TAGGED: _tagged, NAME_OR: _name_or}


def _walk(kind, v, path, corners):
    if isinstance(kind, dict):
        return _block(kind, v, path, corners)
    name, *args = kind if isinstance(kind, tuple) else (kind,)
    return _KINDS[name](v, path, corners, *args)


POSITIVE = (NUMBER, lambda v: v > 0.0, "must be positive")
_EXPECTATION_KINDS = {
    TOLERANCE: (NUMBER, lambda v: v >= 0.0, "must be non-negative"),
    FACTOR: POSITIVE, BOOL: BOOL, VERDICT: (ENUM, FLAT_VERDICTS),
    RANGE: RANGE, CORNERS: (LIST, CORNER)}

#: block -> field -> (kind, required, default).  A field that is absent or
#: null takes its default, which is validated like a given value.
SCHEMA = {
    "name": (NAME, False, "run"),
    "domain": ((NAME_OR, {"vertices": (VERTICES, True, None)}), True, None),
    "corner_radii": ((MAP, NUMBER), False, None),
    "mesh": ({
        "kind": ((ENUM, ("structured", "triangulated")), False,
                 "triangulated"),
        "h0": (POSITIVE, True, None),
        "levels": (COUNT, False, 1),
        "grading": ((MAP, (NUMBER, lambda mu: 0.0 < mu <= 1.0,
                           "exponent must lie in (0, 1]")), False, None),
    }, True, None),
    "problem": ({
        "nu": (POSITIVE, True, None),
        "lower": (NUMBER, False, None),
        "upper": (NUMBER, False, None),
        "target": ((TAGGED, "kind", {
            "constant": {"kind": (STR, True, None),
                         "value": (NUMBER, True, None)},
            "skew-step": {"kind": (STR, True, None),
                          "corner": (CORNER, True, None)},
        }), True, None),
        # None until the bounds decide it
        "solve": ((ENUM, ("both", "constrained", "unconstrained")), False,
                  None),
    }, False, None),
    "singular_data": ({
        "corner": (CORNER, True, None),
        "n": ((ENUM, (1, 2)), True, None),
        # nodal imposition needs a continuous datum
        "eta": (POSITIVE, True, None),
    }, False, None),
    "expectations": ({key: (_EXPECTATION_KINDS[kind], False, OMIT)
                      for key, (kind, _) in TABLE.items()}, False, {}),
}


def _resolve(fields, cfg):
    """Walk cfg against fields, which hold SCHEMA's domain and mesh
    entries, and apply their rules: (normalized config, PolygonalDomain)."""
    corners = []
    out = _block(fields, cfg, "config", corners)
    if out["mesh"]["kind"] == "structured" and out["mesh"]["grading"]:
        _fail("config.mesh.grading", "structured meshes do not support grading")
    dom = out["domain"]
    try:
        domain = build_domain(dom["vertices"] if isinstance(dom, dict) else dom,
                              r_overrides=out.get("corner_radii"))
    except GeometryError as exc:
        _fail("config.domain", str(exc))
    for c in domain.corners:  # the triangles at a vertex split its angle
        deg = math.degrees(c.angle)
        if deg < MIN_ANGLE_DEG:
            _fail("config.domain", f"corner {c.index} has angle {deg:.2f} "
                                   f"deg, below the mesh minimum {MIN_ANGLE_DEG}")
    # build_domain ignores radius overrides of corners it does not have
    n_corners = len(domain.corners)
    for path, j in corners:
        if not 0 <= j < n_corners:
            _fail(path, f"corner {j} does not exist; the domain has corners "
                        f"0..{n_corners - 1}")
    return out, domain


def check_node_budget(mesh, domain):
    """Reject a mesh block whose finest level needs over MAX_NODES nodes on
    domain; a bound on work that callers check before meshing."""
    # ldexp takes any int levels; h * h may underflow to 0 or be inf
    h = math.ldexp(mesh["h0"], 1 - mesh["levels"])
    if domain.area > MAX_NODES * h * h:
        _fail("config.mesh.h0", f"the finest level (h = {h:.6g}) needs over "
                                f"{MAX_NODES} nodes, estimated as area / h^2")


def resolve_mesh(domain, mesh):
    """(normalized mesh block, PolygonalDomain), validated as in a config."""
    out, dom = _resolve({key: SCHEMA[key] for key in ("domain", "mesh")},
                        {"domain": domain, "mesh": mesh})
    return out["mesh"], dom


def resolve_config(cfg):
    """Validate a configuration and build its domain.

    Returns (normalized config, PolygonalDomain).  Every corner index the
    config names is checked against the domain, so a run never meets an
    out-of-range corner.
    """
    out, domain = _resolve(SCHEMA, cfg)
    prob, data = out["problem"], out["singular_data"]
    if (prob is None) == (data is None):
        _fail("config", "exactly one of 'problem' or 'singular_data' is required")
    if prob is not None:
        bounds = prob["lower"], prob["upper"]
        if None not in bounds and bounds[0] > bounds[1]:
            _fail("config.problem", "lower bound exceeds upper bound")
        if prob["solve"] is None:
            prob["solve"] = ("unconstrained" if bounds == (None, None)
                             else "constrained")
    else:
        try:
            validate_singular_boundary_data(domain, SingularBoundaryData(**data))
        except GeometryError as exc:
            _fail("config.singular_data.eta", str(exc))
    return out, domain


def validate_config(cfg) -> dict:
    """Normalize and validate a configuration dict.

    Returns a new dict with defaults filled in; raises ConfigError with a
    field path on the first problem found.
    """
    return resolve_config(cfg)[0]


def unique_keys(pairs, path):
    """dict(pairs), where a key given twice is a config error."""
    out = {}
    for k, v in pairs:
        if k in out:
            _fail(path, f"key {k!r} given twice")
        out[k] = v
    return out


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=lambda pairs:
                            unique_keys(pairs, path))
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: {e}") from e
    except RecursionError as e:
        raise ConfigError(f"{path} nests too deeply to parse") from e
    return validate_config(raw)
