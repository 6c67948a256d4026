"""The benchmark's workloads: inputs from a seed, one timed pass, gates.

Every workload drives dclab only through public names, looked up on the
module at call time (``meshing.triangulate``, ``control.solve_constrained``,
...) so that the tracer's wrappers see the benchmark's own calls too.
Import this module only after ``src/`` of the checkout is on sys.path.

A pass returns one ``Outcome`` per operation.  An operation fails when
dclab raises one of its errors or when a correctness gate fails; the
gates check invariants, not digests, so a change that alters meshes or
round-off still passes when the results are valid.  The digest of each
operation is compared only across the passes of one run (determinism).
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np
from dclab import (AnalysisError, ControlError, FemError, GeometryError,
                   MeshError, build_domain, control, fem, harness, l_shape,
                   meshing, singular, structured_mesh)

#: the gates are the benchmark's own: a change to dclab's constants cannot loosen them
MIN_ANGLE_DEG = 20.0
DCLAB_ERRORS = (AnalysisError, ControlError, FemError, GeometryError,
                MeshError)


@dataclass
class Outcome:
    label: str
    problems: list = field(default_factory=list)   # empty when the op passed
    digest: str = ""


def _error(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------
# mesh invariants

def mesh_problems(mesh, domain) -> list:
    """CCW positive areas, a closed conforming boundary, min angle >= 20."""
    nodes, tris = mesh.nodes, mesh.triangles
    p = nodes[tris]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    out = []
    if len(tris) == 0 or np.any(area <= 0.0):
        out.append("triangle with non-positive CCW area")
    if abs(area.sum() - domain.area) > 1e-9 * domain.area:
        out.append(f"areas sum to {float(area.sum())!r}, domain {domain.area!r}")

    n = len(nodes)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    key = np.sort(edges[:, 0] * n + edges[:, 1])
    if np.any(key[1:] == key[:-1]):
        out.append("directed edge used twice (non-conforming)")
    # boundary edges: directed edges whose reverse no triangle uses
    rev = edges[:, 1] * n + edges[:, 0]
    pos = np.minimum(np.searchsorted(key, rev), len(key) - 1)
    bnd = edges[key[pos] != rev]
    nxt = dict(zip(bnd[:, 0].tolist(), bnd[:, 1].tolist()))
    closed = len(bnd) > 0 and len(nxt) == len(bnd) \
        and len(set(nxt.values())) == len(bnd)
    if closed:
        start = int(bnd[0, 0])
        cur, steps = nxt[start], 1
        while cur != start and steps < len(bnd):
            cur, steps = nxt.get(cur), steps + 1
        closed = cur == start and steps == len(bnd)
    if not closed:
        out.append("boundary edges do not form one closed loop")
    for j, v in enumerate(domain.vertices):
        d = np.hypot(*(nodes - v).T)
        k = int(np.argmin(d))
        if d[k] > 1e-9 or k not in nxt:
            out.append(f"polygon corner {j} is not a boundary node")

    ang = _min_angle_deg(p)
    if ang < MIN_ANGLE_DEG:
        out.append(f"min angle {ang:.3f} deg < {MIN_ANGLE_DEG}")
    return out


def _min_angle_deg(p) -> float:
    angs = []
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        c = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1)
                                   * np.linalg.norm(v, axis=1))
        angs.append(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))).min())
    return float(min(angs))


def _mesh_digest(mesh) -> str:
    h = hashlib.sha256(np.ascontiguousarray(mesh.nodes).tobytes())
    h.update(np.ascontiguousarray(mesh.triangles).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------
# mesh-ladder: meshing.triangulate alone

#: (domain spec, corner radii, h, grading) as in the presets' graded meshes
MESH_LADDER = {
    "full": [("l-shape", {}, 1 / 32, {2: 0.5}),
             ("l-shape", {}, 1 / 64, {2: 0.5}),
             ("sector(3pi/2, 64)", {0: 0.3}, 0.05, {}),
             ("sector(3pi/2, 64)", {0: 0.3}, 0.025, {}),
             ("sector(3pi/2, 64)", {0: 0.3}, 0.0125, {}),
             ("unit-square", {}, 1 / 64, {0: 0.5})],
    "tiny": [("l-shape", {}, 1 / 8, {2: 0.5}),
             ("sector(3pi/2, 64)", {0: 0.3}, 0.1, {}),
             ("unit-square", {}, 1 / 16, {0: 0.5})],
}

#: The seed picks the lattice angle pi/4 + 0.001 k, |k| <= 2.  Over the
#: full range [0, pi/3) the Bowyer-Watson cost of these meshes varies
#: about 3x: the axis-aligned angles 0 and pi/6 are slow, and some angles
#: (pi/4 +- 0.003, +- 0.007, ...) fail the 20 degree gate on the first
#: attempt and re-triangulate after smoothing up to four times.  This
#: band changes the meshes (nodes move up to 0.2 h) but not the amount
#: of work, and none of its angles takes the smoothing retry.
ANGLE_STEPS = 2


def lattice_angle(seed: int) -> float:
    k = int(np.random.default_rng(seed).integers(-ANGLE_STEPS, ANGLE_STEPS + 1))
    return math.pi / 4 + 0.001 * k


class MeshLadder:
    name = "mesh-ladder"

    def setup(self, seed, size):
        angle = lattice_angle(seed)
        return [(f"{spec} h={h:g}", build_domain(spec, r_overrides=radii), h,
                 grading, angle)
                for spec, radii, h, grading in MESH_LADDER[size]]

    def run_pass(self, inputs, tmp):
        outs = []
        for label, domain, h, grading, angle in inputs:
            out = Outcome(label)
            try:
                mesh = meshing.triangulate(domain, h, grading, angle)
            except DCLAB_ERRORS as exc:
                out.problems.append(_error(exc))
            else:
                out.problems += mesh_problems(mesh, domain)
                out.digest = _mesh_digest(mesh)
            outs.append(out)
        return outs, {}


# ---------------------------------------------------------------------
# solve-fixed: FemSystem + splu and four control solves on one mesh

SOLVE_MESH_H = {"full": 1 / 128, "tiny": 1 / 32}


def solve_problems(seed):
    """Four problems with seed-drawn nu, bounds and target.

    The ranges are narrow enough that the seed changes the data more than
    the amount of work: PDAS takes 3, 2 and 3 iterations and the last
    problem one CG solve, except that about one seed in twelve gives the
    upper-active problem a fourth iteration (~10% more work per pass).
    Wider ranges (target/nu above ~5, or tight bounds looser than +-0.1)
    change the iteration counts of a quarter of the seeds.
    """
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))
    b = u(0.9, 1.1)
    c = u(0.095, 0.105)
    return [
        ("upper-active", u(0.2, 0.25), -b, b, u(0.9, 1.0)),
        ("lower-active", u(0.15, 0.25), 0.0, math.inf, u(-1.1, -0.9)),
        ("tight-small-nu", u(0.0095, 0.0105), -c, c, u(0.95, 1.05)),
        ("unbounded", u(0.15, 0.25), -math.inf, math.inf, u(0.9, 1.1)),
    ]


class SolveFixed:
    name = "solve-fixed"

    def setup(self, seed, size):
        domain = l_shape()
        mesh = structured_mesh(domain, SOLVE_MESH_H[size])
        return domain, mesh, solve_problems(seed)

    def run_pass(self, inputs, tmp):
        domain, mesh, problems = inputs
        outs = [Outcome("mesh", mesh_problems(mesh, domain),
                        _mesh_digest(mesh))]
        system = fem.FemSystem(mesh)
        system.lu
        for label, nu, lo, hi, target in problems:
            out = Outcome(label)
            try:
                prob = control.ControlProblem(
                    system, nu, control.ConstantTarget(target),
                    lower=lo, upper=hi)
                sol = control.solve_constrained(prob)
                fit = singular.extract_coefficients(domain, mesh,
                                                    sol.phi.values, 2)
                mp = fem.check_max_principle(system, sol.y)
            except DCLAB_ERRORS as exc:
                out.problems.append(_error(exc))
                outs.append(out)
                continue
            if not sol.converged:
                out.problems.append(f"{sol.method} solve not converged")
            if not sol.kkt.satisfied:
                out.problems.append(
                    f"KKT residual {sol.kkt.stationarity_max:.3e}")
            if not mp.satisfied:
                out.problems.append(
                    f"max principle violated by {mp.violation:.3e}")
            h = hashlib.sha256(np.ascontiguousarray(sol.u).tobytes())
            h.update(repr(sorted(fit.coefficients.items())).encode())
            out.digest = h.hexdigest()
            outs.append(out)
        return outs, {}


# ---------------------------------------------------------------------
# preset-ladder: what users run, artifacts included

#: Small presets, so that a run holds a dozen passes or more and their
#: median rides out the host's slow spells.  A pass of heavier presets
#: (``lshape-constrained --levels 2``, ``ex38-skew``, ``lemma25-check``:
#: ~25 s) fits only twice in a run, and two passes take the speed of
#: whatever spell they fall into.  ``case-a0 --levels 1`` solves on an
#: L-shape mesh graded at the re-entrant corner, ``ex38-skew --levels 2``
#: on a two-level ladder on the sector, ``square-smoke`` on structured
#: meshes.
PRESET_LADDER = {
    "full": [("case-a0", 1), ("ex38-skew", 2), ("square-smoke", None)],
    "tiny": [("square-smoke", 1), ("case-a0", 1)],
}


def tree_digest(root):
    """sha256 over relative paths and contents; (digest, files, bytes)."""
    h = hashlib.sha256()
    files = size = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
            files += 1
            size += len(data)
    return h.hexdigest(), files, size


class PresetLadder:
    name = "preset-ladder"

    def setup(self, seed, size):
        order = np.random.default_rng(seed).permutation(
            len(PRESET_LADDER[size]))
        return [PRESET_LADDER[size][i] for i in order]

    def run_pass(self, inputs, tmp):
        outs = []
        files = size = 0
        for name, levels in inputs:
            out = Outcome(name if levels is None else f"{name} --levels {levels}")
            outdir = tempfile.mkdtemp(dir=tmp)
            try:
                for r in harness.run_preset(name, outdir, levels=levels):
                    if r.exit_code != 0:
                        out.problems.append(f"{r.name}: exit code {r.exit_code}"
                                            f" {r.error or ''}")
                    out.problems += [f"{r.name}: FAIL {label}: {detail}"
                                     for label, ok, detail in r.verdicts
                                     if not ok]
            except DCLAB_ERRORS as exc:
                out.problems.append(_error(exc))
            out.digest, nf, nb = tree_digest(outdir)
            shutil.rmtree(outdir)
            files += nf
            size += nb
            outs.append(out)
        return outs, {"exports.files": files, "exports.bytes": size}


WORKLOADS = {w.name: w for w in (MeshLadder(), SolveFixed(), PresetLadder())}
