"""The ``small_sweeps`` job: library calls to ``decoq.sweep.sweep``.

Usage: python3 perfbench/sweeps_job.py SPEC.json

SPEC lists code/channel pairs with a p-grid each.  Every pair is swept, then
the bare ``none`` code on the same grid, as ``decoq sweep`` does; each sweep
builds its own code.  One JSON line per pair is printed, floats in full
precision.  ``sweep`` is looked up at call time so that a tracer installed
beforehand sees the calls.
"""
import importlib
import json
import sys


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sweep_mod = importlib.import_module("decoq.sweep")
    for item in spec:
        code, kind, grid = item["code"], item["channel"], item["grid"]
        corrected = sweep_mod.sweep(code, kind, grid)
        bare = sweep_mod.sweep("none", kind, grid)
        print(json.dumps({
            "code": code, "channel": kind,
            "samples": [[p, float(d)] for p, d in corrected.samples],
            "bare": [[p, float(d)] for p, d in bare.samples]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
