"""dclab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload solve-fixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in fresh
single-threaded processes (worker.py) that import dclab from ``src/`` of
this checkout.  Set-up is measured in SETUP_PROBES extra processes that
stop after set-up, plus the measuring one, and reported as the median.

Printed: a run record, every metric by name with its unit, the failed
operations, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are BENCHMARK.json's ``end_to_end`` ones, with ``--trace 1``
its ``per_layer`` ones.  The full record (run record, every pass, every
span) goes to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
Exit code 0 when every operation passed its gates, 1 when one failed,
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: mesh-ladder is not in BENCHMARK.json (too noisy for its bounds on a
#: shared 2-vCPU machine, see README.md) but stays runnable by hand
WORKLOADS = ("mesh-ladder", "solve-fixed", "preset-ladder")
SETUP_PROBES = 3
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "DCLAB_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: coarse inputs, for the smoke test only")
    return ap.parse_args(argv)


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an operation failing)."""


# ---------------------------------------------------------------------
# run record

def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _cpu_model():
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _l3_size():
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(idx / "level", "") == "3":
            return _read(idx / "size")
    return "unknown"


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref, "")
    if loose:
        return loose
    for line in _read(ROOT / ".git" / "packed-refs", "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def run_record(args, env, versions):
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "l3": _l3_size(), **versions,
            "threads": {v: env[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "size": args.size,
            "commit": _git_commit()}


# ---------------------------------------------------------------------
# workers

def _worker(args, env, tmp, setup_only, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--tmp", tmp]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


# ---------------------------------------------------------------------
# metrics

def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def end_to_end(result, setups):
    """``cpu_s`` is the CPU time of a pass, not its wall time: the worker is
    single-threaded, so the two agree while the host gives it its vCPU,
    but on a shared host the wall time also counts spells in which the
    vCPU was taken away (up to 1.8x the CPU time of a pass).  The wall
    time is printed beside it and is ``trace.untraced_wall_s``.

    ``cpu_s`` is the mean over the run's passes, not the median: the host
    holds the worker at one of several speeds for many passes on end, and
    the median snaps to one of them where the mean follows the share of
    the run spent at each.  The median is printed beside it."""
    cpus = [p["cpu"] for p in result["passes"] if not p["traced"]]
    return {"cpu_s": statistics.fmean(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": result["peak_rss_mib"]}


def per_layer(result):
    m = dict(result["layers"])
    untraced = [p["wall"] for p in result["passes"] if not p["traced"]]
    m["trace.untraced_wall_s"] = statistics.median(untraced)
    m["trace.overhead_frac"] = m["trace.wall_s"] / m["trace.untraced_wall_s"] - 1
    return m


def _distribution(values):
    t = tail(values)
    return (f"{statistics.fmean(values):.4f} s mean, "
            f"{statistics.median(values):.4f} s median, "
            + (f"p{t[0]:.0f} {t[1]:.4f} s" if t else
               "no tail percentile (needs >= 11 samples)")
            + f", n={len(values)} passes")


def _print_end_to_end(passes, setups, values):
    print("  cpu_s         " + _distribution([p["cpu"] for p in passes]))
    print("  wall time     " + _distribution([p["wall"] for p in passes])
          + " (not bounded)")
    print(f"  setup_s       {values['setup_s']:.4f} s median, "
          f"n={len(setups)} processes")
    print(f"  peak_rss_mib  {values['peak_rss_mib']:.1f} MiB")


def _print_layers(values, wanted):
    from tracing import LAYER_SELF
    wall = values["trace.wall_s"]
    print(f"  layer self times of the median traced pass ({wall:.4f} s), "
          f"sum {sum(values[k] for k in LAYER_SELF):.4f} s:")
    for k in LAYER_SELF:
        print(f"    {k:<16} {values[k]:10.4f} s {100 * values[k] / wall:6.2f} %")
    print(f"  tracing overhead {100 * values['trace.overhead_frac']:+.2f} % "
          "against the untraced pass of this run (noise included), "
          f"{100 * values['trace.overhead_est_frac']:.3f} % from the "
          "calibrated cost of a span")
    for m in wanted:
        print(f"  {m['name']:<26} {values[m['name']]:.6g} {m['unit']}")


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "dclab" / "__init__.py").is_file():
        raise BenchError(f"no dclab sources under {ROOT / 'src'}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = _child_env()
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=outdir)
    try:
        setups = [_worker(args, env, tmp, True, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _worker(args, env, tmp, False, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(result["setup_s"])

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    values = per_layer(result) if args.trace else end_to_end(result, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = run_record(args, env, result["versions"])

    print("run record: " + json.dumps(record))
    print(f"{args.workload}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), "
          f"{attempted} operations, {len(failures)} failed")
    if args.trace:
        _print_layers(values, wanted)
    else:
        _print_end_to_end(passes, setups, values)
    print(f"  fail_frac     {len(failures) / attempted:.4g} ratio "
          f"({len(failures)}/{attempted})")
    for (label, problems), n in Counter(
            (label, "; ".join(problems)) for label, problems in failures).items():
        print(f"  FAILED {label} ({n}x): {problems}")

    full = {"record": record, "setup_s": setups, "metrics": values,
            "passes": passes, "spans": result.get("spans", [])}
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(full) + "\n")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
