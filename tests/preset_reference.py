"""The numbers of every preset run that tier-1 pins.

``tests/preset_reference.json`` holds, for each run of every preset at
its own ladder depth: the node and triangle counts and the iterations of
each solve per level, the verdict lines, and the sha256 of every
artifact file except ``config.json`` (``preset_configs.json`` pins the
configs).  It also records the Python, numpy and scipy versions that
wrote it.  test_acceptance compares the counts and verdict booleans on
every stack, and everything else only on the stack that wrote the file.

Regenerate it, from the root of the repository, with

    PYTHONPATH=src python tests/preset_reference.py
"""

import hashlib
import json
import os
import platform
import tempfile

import numpy
import scipy

from dclab.harness import run_preset
from dclab.presets import PRESETS

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "preset_reference.json")


def stack():
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _digests(outdir):
    out = {}
    for root, _, files in os.walk(outdir):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), outdir)
            rel = rel.replace(os.sep, "/")
            if rel != "config.json":
                with open(os.path.join(root, name), "rb") as fh:
                    out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def reference(preset_results):
    """The pinned numbers of {preset name: [RunResult]}, as JSON values."""
    runs = {}
    for name in sorted(preset_results):
        for res in preset_results[name]:
            runs[res.name] = {
                "levels": [{"nodes": rec.n_nodes,
                            "triangles": rec.n_triangles,
                            "iterations": {tag: s["iterations"] for tag, s
                                           in sorted(rec.solves.items())}}
                           for rec in res.levels],
                "verdicts": [[label, ok, detail]
                             for label, ok, detail in res.verdicts],
                "sha256": _digests(res.outdir)}
    return {"stack": stack(), "runs": runs}


def main():
    with tempfile.TemporaryDirectory() as root:
        ref = reference({name: run_preset(name, os.path.join(root, name))
                         for name in PRESETS})
    with open(PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH}: {len(ref['runs'])} runs")


if __name__ == "__main__":
    main()
