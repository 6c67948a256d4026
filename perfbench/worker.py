"""One workload in one fresh process; prints a JSON result as its last line.

Started by run.py with the BLAS/OpenMP thread caps already in the
environment, so numpy is single-threaded from its first import.  Set-up
(imports and input generation) is timed from ``--t0``, the parent's
CLOCK_MONOTONIC reading taken just before it started this process.

The timed phase runs whole passes over the workload's operations until
``--seconds`` would be exceeded by one more pass, and at least
``MIN_PASSES``.  With ``--trace 1`` the first pass runs untraced and
the rest traced, which gives the tracing overhead in the same process.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: passes per run: the determinism check needs two
MIN_PASSES = 2
MAX_PASSES = 200


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import dclab
    if Path(dclab.__file__).resolve().parent != ROOT / "src" / "dclab":
        print(f"dclab imported from {dclab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    from tracing import Tracer, pass_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.size)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        _emit({"setup_s": setup_s})
        return 0

    tracer = Tracer() if args.trace else None
    passes = []
    digests = {}
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        traced = tracer is not None and len(passes) >= 1
        if traced:
            if not tracer.installed:
                tracer.install()
            tracer.run_id = len(passes)
            root = tracer.begin("bench.pass")
        c0, t0 = time.process_time(), time.perf_counter()
        outcomes, counts = wl.run_pass(inputs, args.tmp)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for out in outcomes:
            first = digests.setdefault(out.label, out.digest)
            if out.digest != first:
                out.problems.append("nondeterministic: result differs from"
                                    " the first pass of this run")
        if traced:
            for key, n in counts.items():
                tracer.count(key, n)
            tracer.end(root)
        passes.append({"wall": wall, "cpu": cpu, "traced": traced,
                       "failures": [[o.label, o.problems] for o in outcomes
                                    if o.problems],
                       "attempted": len(outcomes)})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        per_pass = [pass_metrics(tracer.spans, tracer.counters,
                                 tracer.mesh_calls, i)
                    for i, p in enumerate(passes) if p["traced"]]
        layers = {k: statistics.median(m[k] for m in per_pass)
                  for k in per_pass[0]}
        layers["trace.overhead_est_frac"] = (
            layers["trace.spans"] * tracer.span_cost() / layers["trace.wall_s"])
        result["layers"] = layers
        result["spans"] = tracer.spans
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
