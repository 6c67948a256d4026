"""Command line interface.

The environment variable DCLAB_THREADS caps the BLAS/OpenMP thread pools
used by assembly and the sparse solvers.  It must take effect before
numpy is first imported, so this module imports the numerical stack
lazily inside the subcommands.

Exit codes: 0 ok, 1 expectation failed, 2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys


def _apply_thread_cap():
    n = os.environ.get("DCLAB_THREADS")
    if not n:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _report(result) -> None:
    print(f"[{result.name}] -> {result.outdir}")
    for label, ok, detail in result.verdicts:
        print(f"  {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    if result.error:
        print(f"  error: {result.error}")


def _cmd_run(args) -> int:
    from .config import ConfigError, load_config
    from .harness import run_config
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = args.out or os.path.join("dclab-out", cfg["name"])
    result = run_config(cfg, outdir)
    _report(result)
    return result.exit_code


def _cmd_preset(args) -> int:
    from .config import ConfigError
    from .harness import run_preset
    outdir = args.out or os.path.join("dclab-out", args.name)
    try:
        results = run_preset(args.name, outdir, levels=args.levels)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        _report(result)
    return max(result.exit_code for result in results)


def _cmd_mesh(args) -> int:
    from .config import resolve_mesh
    from .exports import write_mesh_csv
    from .geometry import build_domain
    from .meshing import MeshError, structured_mesh, triangulate
    try:
        domain = build_domain(args.domain)
        grading = {}
        for item in args.grading:
            j, mu = item.split(":", 1)
            grading[j] = float(mu)
        m = resolve_mesh({"kind": "structured" if args.structured
                          else "triangulated", "h0": args.h,
                          "grading": grading,
                          "lattice_angle": args.lattice_angle},
                         len(domain.corners))
    except ValueError as exc:  # as are ConfigError and GeometryError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.structured:
            mesh = structured_mesh(domain, m["h0"])
        else:
            mesh = triangulate(domain, m["h0"], grading=m["grading"],
                               lattice_angle=m["lattice_angle"])
    except MeshError as exc:
        print(f"mesh generation failed: {exc}", file=sys.stderr)
        return 3
    outdir = args.out or os.path.join("dclab-out", "mesh")
    os.makedirs(outdir, exist_ok=True)
    write_mesh_csv(outdir, mesh)
    print(f"{args.domain}: {mesh.n_nodes} nodes, {mesh.n_triangles} "
          f"triangles, min angle {mesh.min_angle:.2f} deg -> {outdir}")
    return 0


def _cmd_presets(_args) -> int:
    from .presets import list_presets
    for name, description in list_presets():
        print(f"{name:<22s} {description}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dclab",
        description="Dirichlet boundary control laboratory on polygons")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run a JSON configuration file")
    r.add_argument("config", help="path to the configuration")
    r.add_argument("--out", default=None, help="output directory")
    r.set_defaults(fn=_cmd_run)

    pr = sub.add_parser("preset", help="run a named preset")
    pr.add_argument("name")
    pr.add_argument("--levels", type=int, default=None,
                    help="override the ladder depth")
    pr.add_argument("--out", default=None, help="output directory")
    pr.set_defaults(fn=_cmd_preset)

    m = sub.add_parser("mesh", help="generate a mesh and write it as CSV")
    m.add_argument("domain", help='e.g. "l-shape" or "sector(3pi/2, 64)"')
    m.add_argument("--h", type=float, required=True, help="target diameter")
    m.add_argument("--grading", action="append", default=[], metavar="J:MU",
                   help="grade toward corner J with exponent MU (repeatable)")
    m.add_argument("--structured", action="store_true",
                   help="lattice mesh instead of Delaunay")
    m.add_argument("--lattice-angle", type=float, default=0.0)
    m.add_argument("--out", default=None, help="output directory")
    m.set_defaults(fn=_cmd_mesh)

    ls = sub.add_parser("presets", help="list available presets")
    ls.set_defaults(fn=_cmd_presets)
    return p


def main(argv=None) -> int:
    _apply_thread_cap()
    args = _build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
