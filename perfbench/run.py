"""decoq benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload shor9_dqd --seed 1 --seconds 60 --trace 0

Every job runs serially in a fresh Python process (``PYTHONPATH=src``), with
the BLAS pool pinned to one thread and ``DECOM_THREADS`` unset, so the sweep
pool is measured as shipped.  Jobs run while they fit in ``--seconds``;
every job's output is checked.  Human-readable lines come first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
# a hung job is killed after this long, so that a 60 s run still ends
# within 180 s; the slowest job, a single-threaded shor9 fit, takes <10 s
JOB_TIMEOUT_S = 100
# traced run: each round runs as shipped, traced, and with DECOM_THREADS=1
VARIANTS = ("plain", "traced", "single")

PROBE = """\
import json, sys, numpy, decoq, decoq.cli
try:
    b = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{b['name']} {b['version']}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"decoq": decoq.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "blas": blas}))
"""


class SetupError(RuntimeError):
    """The program cannot be run from this checkout."""


@dataclass
class Outcome:
    job: workloads.Job
    variant: str
    wall: float
    cpu: float
    problems: list = field(default_factory=list)
    trace: dict | None = None


class Runner:
    """Runs jobs as child processes inside the checkout at ``root``."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.first_output = {}
        env = dict(os.environ)
        env.pop("DECOM_THREADS", None)
        env.update(THREAD_ENV)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def spawn(self, argv, env=None, timeout=JOB_TIMEOUT_S):
        """Run ``argv``; return (exit code or None on timeout, wall s, cpu s,
        stdout bytes, stderr text)."""
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=env or self.env, cwd=self.root)
            # a blocking wait: Popen.wait(timeout) polls in steps of up to
            # 50 ms, which would quantize the wall times
            timed_out = threading.Event()
            timer = threading.Timer(timeout,
                                    lambda: (timed_out.set(), proc.kill()))
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        if timed_out.is_set():
            code = None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime
               + after.ru_stime - before.ru_stime)
        return (code, wall, cpu, out_path.read_bytes(),
                err_path.read_text(errors="replace"))

    def probe(self) -> dict:
        """Import the program once (this also warms its bytecode cache) and
        record the versions it runs with."""
        code, _, _, out, err = self.spawn([sys.executable, "-c", PROBE],
                                          timeout=60)
        if code != 0:
            raise SetupError(f"cannot import decoq from {self.root / 'src'}:"
                             f"\n{err.strip()}")
        info = json.loads(out)
        src = (self.root / "src").resolve()
        if src not in Path(info["decoq"]).resolve().parents:
            raise SetupError(f"decoq imported from {info['decoq']}, "
                             f"not from {src}")
        return info

    def setup_seconds(self) -> float:
        """Wall time of a fresh interpreter that only imports decoq.cli."""
        code, wall, _, _, err = self.spawn(
            [sys.executable, "-c", "import decoq.cli"], timeout=60)
        if code != 0:
            raise SetupError(f"import decoq.cli failed:\n{err.strip()}")
        return wall

    def run(self, job: workloads.Job, variant: str) -> Outcome:
        env = self.env
        trace_path = self.workdir / "trace.json"
        if variant == "traced":
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path),
                    job.kind, *job.args]
            trace_path.unlink(missing_ok=True)
        elif job.kind == "cli":
            argv = [sys.executable, "-m", "decoq.cli", *job.args]
        else:
            argv = [sys.executable, str(HERE / "sweeps_job.py"), *job.args]
        if variant == "single":
            env = dict(self.env, DECOM_THREADS="1")
        code, wall, cpu, out, err = self.spawn(argv, env)
        outcome = Outcome(job, variant, wall, cpu)
        problems = outcome.problems
        if code is None:
            problems.append(f"timed out after {JOB_TIMEOUT_S} s")
        elif code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in err:
            problems.append("traceback on stderr: "
                            + err.strip().splitlines()[-1])
        if not problems:
            try:
                problems.extend(job.check(out.decode()))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        first = self.first_output.setdefault(job.key, out)
        if out != first:
            problems.append("output differs from an earlier job of the "
                            "same command in this run")
        if variant == "traced" and not problems:
            outcome.trace = json.loads(trace_path.read_text())
        return outcome


# ------------------------------------------------------------- metrics --

def tail_note(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            return f"p{q} {cut:.4f} s"
    return "no tail percentile (fewer than 10 samples beyond p75)"


def lower_quartile(values) -> float:
    """The time a quarter of the samples beat; a lone sample is itself."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(outcomes, setup, per_round: Counter) -> tuple:
    """Times are lower quartiles over a run's jobs of one command, so that
    load from outside the benchmark, which slows the shared host in bursts
    of seconds to minutes, moves them less than a median would.  The
    commands' quartiles, each times its jobs per round, make one round."""
    by_key = {}
    for o in outcomes:
        by_key.setdefault(o.job.key, []).append(o)
    wall = {k: lower_quartile(o.wall for o in os) for k, os in by_key.items()}
    cpu = {k: lower_quartile(o.cpu for o in os) for k, os in by_key.items()}
    points = sum(n * by_key[k][0].job.points for k, n in per_round.items())
    round_wall = sum(n * wall[k] for k, n in per_round.items())
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "points_per_s": points / round_wall,
        "job_s": round_wall / sum(per_round.values()),
        "cpu_s_per_point": sum(n * cpu[k] for k, n in per_round.items())
        / points,
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": lower_quartile(setup),
    }
    failed = sum(1 for o in outcomes if o.problems)
    notes = [f"job {key}: {len(os)} jobs, lower quartile {wall[key]:.4f} s, "
             f"median {statistics.median(o.wall for o in os):.4f} s; "
             + tail_note([o.wall for o in os])
             for key, os in sorted(by_key.items())]
    notes += [
        f"points: {sum(o.job.points for o in outcomes)} in "
        f"{sum(o.wall for o in outcomes):.3f} s of job wall time",
        f"setup_s: lower quartile of {len(setup)} imports, one before each "
        f"job; median {statistics.median(setup):.4f} s",
        f"failed_frac: {failed}/{len(outcomes)} = {failed / len(outcomes):g}",
    ]
    return metrics, notes


SHARES = {"sim": "sim.simulate_choi.s",
          "measure_general": "decoherence.measure_general.s",
          "spectral_function": "dqd.spectral_function.s"}


def per_layer(workload, done, names) -> tuple:
    """Per-layer metrics of the traced rounds, plus the pool speed-up and
    the tracing overhead from the round wall times of the three variants.
    The speed-up counts only the commands that call the sweep."""
    pooled = {o.job.key for r in done for o in r["traced"]
              if o.trace is not None and o.trace.get("sweep.sweep.calls")}

    def round_wall(variant, keys=None):
        return statistics.median(
            sum(o.wall for o in r[variant]
                if keys is None or o.job.key in keys)
            for r in done)

    traces = []
    for r in done:
        if all(o.trace is not None for o in r["traced"]):
            total = Counter()
            for o in r["traced"]:
                total.update(o.trace)
            traces.append(total)
    metrics = {name: statistics.median(t[name] for t in traces)
               if traces else 0.0 for name in names}
    metrics["sweep.pool_speedup"] = (round_wall("single", pooled)
                                     / round_wall("plain", pooled)
                                     if pooled else 0.0)
    metrics["trace.overhead_frac"] = (round_wall("traced")
                                      / round_wall("plain") - 1.0)
    notes = [f"{len(done)} rounds, each run as shipped, traced and with "
             "DECOM_THREADS=1; per-layer values are medians over rounds"]
    problems = []
    if traces:
        problems = [f"{name} reads 0 on {workload}"
                    for name in workloads.REQUIRED_NONZERO[workload]
                    if not metrics[name]]
        busy = statistics.median(t["trace.busy_s"] for t in traces)
        notes.append(f"busy {busy:.4f} s per round")
    # the shares of each command's busy time, over all its traced jobs
    by_key = {}
    for r in done:
        for o in r["traced"]:
            if o.trace is not None:
                by_key.setdefault(o.job.key, Counter()).update(o.trace)
    for key, total in sorted(by_key.items()):
        notes.append(f"  {key}: shares of busy time: " + ", ".join(
            f"{label} {total[name] / total['trace.busy_s']:.3f}"
            for label, name in SHARES.items()))
    return metrics, notes, problems


# ---------------------------------------------------------------- env --

def commit_of(root: Path) -> str:
    """HEAD of a git checkout, read from its files; 'none' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, probe: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "threads": dict(THREAD_ENV, DECOM_THREADS="unset"),
        "commit": commit_of(root),
        "src_sha256": src_digest(root),
    }


# --------------------------------------------------------------- main --

def measure(args, root: Path, spec: dict) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(root, workdir)
        env = environment(root, runner.probe())
        rounds = workloads.rounds(args.workload, args.seed, workdir)
        first = next(rounds)
        per_round = Counter(job.key for job in first)
        rounds = itertools.chain([first], rounds)
        # a unit is one job, or in a traced run one round in every variant
        # the first round always runs whole, so every command is measured
        if args.trace:
            whole = 1
            # the variants of a job run back to back, so that they see
            # the same load from outside
            units = (("round", [(v, job) for job in jobs for v in VARIANTS])
                     for jobs in rounds)
        else:
            whole = len(first)
            units = ((job.key, [("plain", job)])
                     for jobs in rounds for job in jobs)
        done, setup = [], []   # done: {variant: [Outcome]} per unit
        start = last = time.perf_counter()
        spans = {}             # unit wall times, setup included, per kind
        for kind, unit in units:
            # start a unit only if a typical one of its kind (of any kind,
            # before its first) still ends within --seconds
            past = spans.get(kind) or [s for v in spans.values() for s in v]
            if (len(done) >= whole
                    and last - start + statistics.median(past) > args.seconds):
                break
            if not args.trace:
                # spread over the run, so that the quartile sees its load
                setup.append(runner.setup_seconds())
            by_variant = {}
            for variant, job in unit:
                by_variant.setdefault(variant, []).append(
                    runner.run(job, variant))
            done.append(by_variant)
            now = time.perf_counter()
            spans.setdefault(kind, []).append(now - last)
            last = now
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(runner.setup_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for r in done for group in r.values() for o in group]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, notes, problems = per_layer(args.workload, done, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, notes = end_to_end(outcomes, setup, per_round)
        problems = []
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in units:
        print(f"{name:40s} {values[name]:.6g} {units[name]}")
    for note in notes:
        print(note)
    failed = [o for o in outcomes if o.problems]
    for o in failed[:5]:
        print(f"FAILED {o.variant} {o.job.key}: " + "; ".join(o.problems[:5]),
              file=sys.stderr)
    for p in problems:
        print(f"TRACE SELF-CHECK: {p}", file=sys.stderr)
    return {
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and waited for, and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        result = measure(args, root, spec)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
