"""Per-layer tracer for one benchmark job, installed from outside the program.

Usage: python3 perfbench/tracer.py OUT.json cli ARGS...     (decoq CLI)
       python3 perfbench/tracer.py OUT.json sweeps SPEC.json (sweeps_job)

It wraps public functions of ``decoq`` by replacing module attributes, runs
the job in this process, and writes per-layer totals to OUT.json.  Nothing
under ``src/`` changes.  ``.s`` metrics are busy seconds summed over calls
(across threads); ``.calls`` are counts.

Self-check: every wrapped name must resolve, in each module that looks it
up on the workloads' paths, to the function its defining module holds.
A rename or an inlining then stops the job with an error instead of
reporting 0.
"""
from __future__ import annotations

import importlib
import json
import math
import sys
import threading
import time
from collections import Counter

# layer -> (defining module, modules that look the function up at call time)
LAYERS = {
    "codes.code_by_name": ("decoq.codes", ("decoq.sweep", "decoq.cli")),
    "sim.simulate_choi": ("decoq.sim", ("decoq.sweep",)),
    "sim.apply_gate": ("decoq.sim", ("decoq.sim",)),
    "sim.apply_channel_wire": ("decoq.sim", ("decoq.sim",)),
    "sim.partial_trace": ("decoq.sim", ("decoq.sim",)),
    "channels.choi_to_chi": ("decoq.channels", ("decoq.sweep",)),
    "noise.from_calibrated_p": ("decoq.noise", ("decoq.sweep",)),
    "decoherence.measure_auto": ("decoq.decoherence", ("decoq.sweep",)),
    "decoherence.measure_diagonal": ("decoq.decoherence",
                                     ("decoq.decoherence",)),
    "decoherence.measure_quadratic": ("decoq.decoherence",
                                      ("decoq.decoherence",)),
    "decoherence.measure_general": ("decoq.decoherence",
                                    ("decoq.decoherence",)),
    "sweep.sweep": ("decoq.sweep", ("decoq.sweep", "decoq.cli")),
    "sweep.fit_poly": ("decoq.sweep", ("decoq.cli",)),
    "sweep.break_even": ("decoq.sweep", ("decoq.cli",)),
    "dqd.spectral_function": ("decoq.dqd", ("decoq.dqd",)),
}

COMPLEX_BYTES = 16
ROUTES = {"decoherence.measure_diagonal": "diagonal",
          "decoherence.measure_quadratic": "quadratic",
          "decoherence.measure_general": "general"}


class TracerError(RuntimeError):
    """A wrapped name no longer resolves where the program looks it up."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _contraction_bytes(rho) -> int:
    """Computed, not measured: one contraction reads and writes the 4^m
    complex entries of an m-wire density matrix."""
    return 2 * COMPLEX_BYTES * rho.size


class _ThreadState:
    def __init__(self):
        self.totals = Counter()
        self.child_s = []        # open spans: time covered by their children
        self.in_sim = 0
        self.noise_seen = False
        self.in_auto = 0


class Tracer:
    """Collects per-layer totals from every thread that calls a wrapped
    function; ``totals`` merges them once the job is done."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def totals(self) -> Counter:
        out = Counter()
        with self._lock:
            for st in self._states:
                out.update(st.totals)
        return out

    def span(self, layer, fn, args=(), kwargs=None):
        """Run ``fn`` as a span of ``layer``, with the layer's counters."""
        kwargs = kwargs or {}
        st = self._state()
        before(layer, st, args, kwargs)
        st.child_s.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            covered = st.child_s.pop()
            if st.child_s:
                st.child_s[-1] += dt
            st.totals[layer + ".calls"] += 1
            st.totals[layer + ".s"] += dt
            st.totals[layer + ".self_s"] += dt - covered
            after(layer, st, args, kwargs, dt)

    def wrap(self, layer, fn):
        def traced(*args, **kwargs):
            return self.span(layer, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Self-check every layer, then wrap it wherever ``decoq`` holds it."""
        originals = {}
        for layer, (home, lookups) in LAYERS.items():
            attr = layer.rsplit(".", 1)[1]
            fn = getattr(importlib.import_module(home), attr, None)
            if not callable(fn):
                raise TracerError(f"{home} has no function {attr}")
            for name in lookups:
                if getattr(importlib.import_module(name), attr, None) is not fn:
                    raise TracerError(f"{name}.{attr} is not {home}.{attr}")
            originals[id(fn)] = (layer, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "decoq"
                                   or mod_name.startswith("decoq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    layer, fn = originals[id(value)]
                    setattr(mod, attr, self.wrap(layer, fn))


def before(layer, st, args, kwargs):
    if layer == "sim.simulate_choi":
        st.in_sim += 1
        st.noise_seen = False
    elif layer == "sim.apply_channel_wire":
        st.noise_seen = True
    elif layer == "decoherence.measure_auto":
        st.in_auto += 1
    elif layer in ROUTES and st.in_auto:
        st.totals["decoherence.route." + ROUTES[layer]] += 1


def after(layer, st, args, kwargs, dt):
    if layer == "sim.simulate_choi":
        st.in_sim -= 1
    elif layer == "sim.apply_gate":
        st.totals["sim.bytes_computed"] += 2 * _contraction_bytes(
            _arg(args, kwargs, 0, "rho"))
        if st.in_sim:
            st.totals["sim.decode.s" if st.noise_seen else "sim.encode.s"] += dt
    elif layer == "sim.apply_channel_wire":
        ops = len(_arg(args, kwargs, 1, "channel").operators)
        st.totals["sim.bytes_computed"] += 2 * ops * _contraction_bytes(
            _arg(args, kwargs, 0, "rho"))
        if st.in_sim:
            st.totals["sim.noise.s"] += dt
    elif layer == "sim.partial_trace" and st.in_sim:
        st.totals["sim.trace.s"] += dt
    elif layer == "decoherence.measure_auto":
        st.in_auto -= 1
    elif layer == "dqd.spectral_function":
        t = float(_arg(args, kwargs, 1, "t"))
        if t > 0.0:
            decade = min(max(math.floor(math.log10(t) + 1e-9), -13), -10)
            st.totals[f"dqd.spectral_function.s.t1e{decade}"] += dt


def busy_seconds(totals) -> float:
    """Time some thread spent working: the self time of every span, less
    the self time of ``sweep.sweep``, which is the caller waiting on the
    sweep's worker pool."""
    self_s = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    return self_s - totals["sweep.sweep.self_s"]


def main(argv) -> int:
    out_path, kind, *args = argv
    tracer = Tracer()
    if kind == "cli":
        importlib.import_module("decoq.cli")
        tracer.install()
        job = lambda: sys.modules["decoq.cli"].main(args)
    elif kind == "sweeps":
        import sweeps_job
        importlib.import_module("decoq.cli")     # load every decoq module
        tracer.install()
        job = lambda: sweeps_job.main(*args)
    else:
        raise SystemExit(f"unknown job kind {kind!r}")
    code = tracer.span("job", job)
    sys.stdout.flush()
    totals = tracer.totals()
    totals["trace.busy_s"] = busy_seconds(totals)
    with open(out_path, "w") as fh:
        json.dump(dict(totals), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
