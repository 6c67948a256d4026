"""In-memory span recorder and the per-layer metrics computed from it.

A span is (name, start, end, parent, run id).  Spans are recorded around
the public dclab entry points of each layer by wrapping the names where
they are bound: ``dclab.harness`` and ``dclab.control`` bind their
callees with ``from .x import f``, so wrapping ``dclab.meshing.triangulate``
alone would miss the harness's calls.  Nothing under ``src/`` changes;
``Tracer.uninstall`` restores every wrapped name.

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans; the root span of every pass belongs
to the benchmark itself (layer ``bench``), so the self times of all
layers add up to the traced pass time.
"""

from __future__ import annotations

import functools
import math
import time
import weakref
from collections import Counter


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, run_id]
        self.counters = Counter()
        self.mesh_calls = []     # (run_id, nodes, seconds, min angle) per mesh
        self.run_id = 0
        self._stack = []
        self._restore = []
        self._factored = weakref.WeakSet()

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def count(self, key: str, n=1) -> None:
        self.counters[(self.run_id, key)] += n

    def _in_layer(self, layer: str) -> bool:
        """True if an enclosing open span belongs to ``layer``."""
        return any(_layer(self.spans[i][0]) == layer for i in self._stack)

    # -- wrapping -------------------------------------------------------

    def _traced(self, fn, name, after=None, errors=()):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer._in_layer(_layer(name))
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except errors:
                tracer.count(_layer(name) + ".errors")
                raise
            finally:
                dt = tracer.end(idx)
            if after is not None:
                after(out, args, kwargs, dt, nested)
            return out
        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, after=None, errors=()):
        self._patch(owner, attr,
                    self._traced(getattr(owner, attr), name, after, errors))

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self) -> None:
        """Wrap every layer entry point of dclab."""
        from dclab import control, fem, harness, meshing, singular

        def mesh_done(mesh, args, kwargs, dt, nested):
            self.count("meshing.calls")
            self.count("meshing.nodes", mesh.n_nodes)
            self.count("meshing.triangles", mesh.n_triangles)
            self.count("meshing.boundary_nodes",
                       len(mesh.boundary_node_ids()))
            self.mesh_calls.append((self.run_id, mesh.n_nodes, dt,
                                    float(mesh.min_angle)))

        for owner in (harness, meshing):
            for attr in ("triangulate", "structured_mesh"):
                self.wrap(owner, attr, "meshing." + attr, mesh_done,
                          errors=meshing.MeshError)

        # fem: assembly, factorization (first .lu per system), solves, loads
        self.wrap(fem.FemSystem, "__init__", "fem.assemble")
        lu_get = fem.FemSystem.__dict__["lu"].fget

        def lu(system):
            if system in self._factored:
                return lu_get(system)
            idx = self.begin("fem.factorize")
            try:
                f = lu_get(system)
            finally:
                self.end(idx)
            self._factored.add(system)
            self.count("fem.lu_nnz", f.L.nnz + f.U.nnz)
            return f
        self._patch(fem.FemSystem, "lu", property(lu))
        self.wrap(fem.FemSystem, "solve_interior", "fem.lu_solve",
                  lambda *a: self.count("fem.lu_solves"))
        self.wrap(control, "assemble_load", "fem.load",
                  lambda *a: self.count("fem.load_calls"))
        for owner in (harness, control):
            self.wrap(owner, "solve_dirichlet", "fem.solve_dirichlet")
        self.wrap(fem, "check_max_principle", "fem.max_principle")

        # control: problem setup, solvers, Hessian applies
        def solve_done(sol, args, kwargs, dt, nested):
            if nested:
                return
            self.count("control.solves")
            if sol.method == "pdas":
                self.count("control.pdas_iterations", sol.iterations)
            if sol.method == "pg":
                self.count("control.pg_fallbacks")
            if not sol.converged:
                self.count("control.unconverged")
            u0 = args[1] if len(args) > 1 else kwargs.get("u0")
            if u0 is not None:
                self.count("control.warm_starts")

        for owner in (harness, control):
            for attr in ("solve_constrained", "solve_unconstrained"):
                self.wrap(owner, attr, "control." + attr, solve_done,
                          errors=control.ControlError)
        self.wrap(control.ControlProblem, "__init__", "control.setup")
        self.wrap(control.ControlProblem, "hessian_apply",
                  "control.hessian_apply",
                  lambda *a: self.count("control.hessian_applies"))

        # singular: corner analysis as called by the harness
        for attr in ("extract_coefficients", "flatness_diagnostic",
                     "classify_H_sets", "structural_fit_control",
                     "structure_refinement_trend", "holder_quotient",
                     "predicted_control_terms", "control_singular_profile",
                     "singular_boundary_values", "wedge_lift",
                     "verify_singular_expansion"):
            self.wrap(harness, attr, "singular." + attr,
                      lambda *a: self.count("singular.calls"),
                      errors=singular.AnalysisError)
        self.wrap(singular, "extract_coefficients",
                  "singular.extract_coefficients",
                  lambda *a: self.count("singular.calls"),
                  errors=singular.AnalysisError)

        # exports: every artifact writer the harness calls
        for attr in ("write_boundary_csv", "write_extraction_csv",
                     "write_field_csv", "write_gnuplot_script",
                     "write_iteration_csv", "write_mesh_csv",
                     "write_summary"):
            self.wrap(harness, attr, "exports." + attr)

        # harness: the preset runner itself
        self.wrap(harness, "run_preset", "harness.run_preset")

    def span_cost(self, n: int = 20000) -> float:
        """Seconds a traced call adds over a plain one (wrapper + span)."""
        def noop():
            return None
        traced = self._traced(noop, "bench.calibrate")
        run_id, self.run_id = self.run_id, -1
        t = time.perf_counter()
        for _ in range(n):
            noop()
        plain = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(n):
            traced()
        cost = (time.perf_counter() - t - plain) / n
        self.spans = [s for s in self.spans if s[4] != -1]
        self.run_id = run_id
        return max(cost, 0.0)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------
# per-layer metrics

def _self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def _scaling_exponent(calls):
    """Least-squares slope of log(seconds) against log(nodes)."""
    pts = [(math.log(n), math.log(t)) for n, t in calls if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def pass_metrics(spans, counters, mesh_calls, run_id):
    """Per-layer metrics of one traced pass (the spans with ``run_id``)."""
    ids = [i for i, s in enumerate(spans) if s[4] == run_id]
    sub = [spans[i] for i in ids]
    remap = {old: new for new, old in enumerate(ids)}
    sub = [[s[0], s[1], s[2], remap.get(s[3], -1), s[4]] for s in sub]
    self_t = _self_times(sub)
    c = Counter({k: v for (r, k), v in counters.items() if r == run_id})

    def self_sum(pred):
        return sum(t for s, t in zip(sub, self_t) if pred(s[0]))

    def outer_sum(layer):
        """Inclusive time of spans with no enclosing span of the layer."""
        total = 0.0
        for s in sub:
            if _layer(s[0]) != layer:
                continue
            p = s[3]
            while p >= 0 and _layer(sub[p][0]) != layer:
                p = sub[p][3]
            if p < 0:
                total += s[2] - s[1]
        return total

    calls = [(n, t) for r, n, t, _ in mesh_calls if r == run_id]
    angles = [a for r, _, _, a in mesh_calls if r == run_id]
    mesh_s = self_sum(lambda n: _layer(n) == "meshing")
    root = [s for s in sub if s[3] < 0]
    wall = sum(s[2] - s[1] for s in root)
    return {
        "meshing.s": mesh_s,
        "meshing.calls": c["meshing.calls"],
        "meshing.nodes": c["meshing.nodes"],
        "meshing.boundary_nodes": c["meshing.boundary_nodes"],
        "meshing.triangles": c["meshing.triangles"],
        "meshing.nodes_per_s": c["meshing.nodes"] / mesh_s if mesh_s else 0.0,
        "meshing.scaling_exp": _scaling_exponent(calls),
        "meshing.min_angle_deg": min(angles) if angles else 0.0,
        "meshing.errors": c["meshing.errors"],
        "fem.s": self_sum(lambda n: _layer(n) == "fem"),
        "fem.assemble_s": self_sum(lambda n: n == "fem.assemble"),
        "fem.factorize_s": self_sum(lambda n: n == "fem.factorize"),
        "fem.lu_nnz": c["fem.lu_nnz"],
        "fem.lu_solves": c["fem.lu_solves"],
        "fem.lu_solve_s": self_sum(lambda n: n == "fem.lu_solve"),
        "fem.load_s": self_sum(lambda n: n == "fem.load"),
        "fem.load_calls": c["fem.load_calls"],
        "control.s": outer_sum("control"),
        "control.self_s": self_sum(lambda n: _layer(n) == "control"),
        "control.solves": c["control.solves"],
        "control.pdas_iterations": c["control.pdas_iterations"],
        "control.hessian_applies": c["control.hessian_applies"],
        "control.pg_fallbacks": c["control.pg_fallbacks"],
        "control.unconverged": c["control.unconverged"],
        "control.warm_starts": c["control.warm_starts"],
        "singular.s": self_sum(lambda n: _layer(n) == "singular"),
        "singular.calls": c["singular.calls"],
        "singular.skipped": c["singular.errors"],
        "exports.s": self_sum(lambda n: _layer(n) == "exports"),
        "exports.files": c["exports.files"],
        "exports.bytes": c["exports.bytes"],
        "harness.self_s": self_sum(lambda n: _layer(n) == "harness"),
        "bench.self_s": self_sum(lambda n: _layer(n) == "bench"),
        "trace.wall_s": wall,
        "trace.spans": len(sub),
    }


#: layers whose self times partition the traced pass time
LAYER_SELF = ("meshing.s", "fem.s", "control.self_s", "singular.s",
              "exports.s", "harness.self_s", "bench.self_s")
