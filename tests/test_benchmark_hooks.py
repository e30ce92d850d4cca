"""The functions the benchmark's tracer (perfbench/tracer.py) wraps still
resolve where the program looks them up, and route counting still works.

Runs in a subprocess: installing the tracer replaces module attributes of
``decoq`` for the rest of the process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import importlib, json, sys
sys.path.insert(0, "perfbench")
importlib.import_module("decoq.cli")
from tracer import Tracer
tracer = Tracer()
tracer.install()
from decoq.noise import chi_formula
sweep_module = sys.modules["decoq.sweep"]    # decoq.sweep is the function
for kind, native in (("bit_flip", 0.1), ("amplitude_damping", 1.0)):
    sweep_module.measure_auto(chi_formula(kind, native))
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
