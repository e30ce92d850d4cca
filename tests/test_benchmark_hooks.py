"""The functions the benchmark's tracer (perfbench/tracer.py) wraps still
resolve where the program looks them up, route counting still works, and
one round of each benchmark workload passes the benchmark's own checks.

Runs in subprocesses: installing the tracer replaces module attributes of
``decoq`` for the rest of the process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import importlib, json, sys
sys.path.insert(0, "perfbench")
importlib.import_module("decoq.cli")
from tracer import Tracer
tracer = Tracer()
tracer.install()
from decoq.noise import family
sweep_module = sys.modules["decoq.sweep"]    # decoq.sweep is the function
for kind, native in (("bit_flip", 0.1), ("amplitude_damping", 1.0)):
    sweep_module.measure_auto(family(kind).chi(native))
print(json.dumps(tracer.totals()))
"""


def test_tracer_self_check_and_routes():
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("DECOM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(proc.stdout.splitlines()[-1])
    assert totals["decoherence.measure_auto.calls"] == 2
    assert totals["decoherence.route.diagonal"] == 1
    assert totals["decoherence.route.general"] == 1
    assert totals["decoherence.measure_general.s"] > 0.0


@pytest.mark.parametrize("workload", ("shor9_dqd", "sweeps"))
def test_one_benchmark_round_is_correct(workload):
    # one round, run as shipped, traced and with DECOM_THREADS=1: every job's
    # output against perfbench/reference.json, byte identity across the
    # three variants, and every per-layer metric the workload needs non-zero
    env = dict(os.environ)
    env.pop("DECOM_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
