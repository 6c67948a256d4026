"""Command line interface.

Importing dclab loads numpy and scipy, so their thread pools follow the
standard variables (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS)
of the environment the command starts in.

Exit codes: 0 ok, 1 expectation failed, 2 config or output error, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import os
import sys


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
        result = run_config(cfg, args.out
                            or os.path.join("dclab-out", cfg["name"]))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
    from .config import (ConfigError, check_node_budget, resolve_mesh,
                         unique_keys)
    from .exports import write_mesh_csv
    from .harness import make_mesh
    from .meshing import MeshError
    pairs = []
    for item in args.grading:
        j, _, mu = item.partition(":")
        try:
            pairs.append((j, float(mu)))
        except ValueError:  # resolve_mesh rejects it with its field path
            pairs.append((j, mu))
    try:
        grading = unique_keys(pairs, "config.mesh.grading")
        m, domain = resolve_mesh(args.domain, {
            "kind": "structured" if args.structured else "triangulated",
            "h0": args.h, "grading": grading})
        check_node_budget(m, domain)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        mesh = make_mesh(domain, m, 0)
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
    m.add_argument("--out", default=None, help="output directory")
    m.set_defaults(fn=_cmd_mesh)

    ls = sub.add_parser("presets", help="list available presets")
    ls.set_defaults(fn=_cmd_presets)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        # a config that cannot be read is a ConfigError: this is the output's
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
