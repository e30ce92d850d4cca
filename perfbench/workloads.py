"""The two benchmark workloads: their jobs, their inputs and their output checks.

A job is one command run in a fresh Python process, as a CLI user pays for
it.  A round is one pass over a workload's job list; per-layer numbers are
reported per round.  Each workload joins two job mixes, weighted so that
each takes about half of a round.  Inputs come from the workload seed alone:
it draws the p-grids of the sweeps whose checks are closed-form (same count,
same range) and the job order.  Grids checked against values recorded at
the commit that defined the benchmark (``reference.json``) stay fixed, as do
the CLI's own grids for ``fit`` and ``dqd``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

LO, HI, STEPS = 0.02, 0.3, 16          # sweep range and point count
SHOR9_FIT_POINTS = (5e-4, 1e-3, 2e-3)  # the CLI's shor9 fit policy
SHOR5_FIT_POINTS = tuple(0.05 + 0.05 * i for i in range(6))

CUBIC = (0.0, 3.0, -2.0)
# Closed-form D(p) = sum_i a_i p^(i+1), from the acceptance criteria.
CLOSED_FORM = {
    ("bit3", "bit_flip"): CUBIC,
    ("phase3", "phase_flip"): CUBIC,
    ("shor5", "depolarizing"): (0.0, 15.0, -50.0, 60.0, -24.0),
    ("shor5", "phase_damping"): (0.0, 10.0, -20.0, 10.0, 0.0),
    ("shor5", "amplitude_damping"): (0.0, 15 / 8, -15 / 8, 5 / 8, 0.0),
}
SMALL_PAIRS = tuple((code, kind) for code in ("bit3", "phase3", "shor5")
                    for kind in ("bit_flip", "phase_flip", "depolarizing",
                                 "phase_damping"))

POLY_TOL = 1e-8          # closed-form polynomials, as in the acceptance tests
CALIBRATION_TOL = 1e-9   # bare sweep: D0 = p
RECORDED_TOL = 1e-9      # values recorded at the defining commit
DQD_REL_TOL = 1e-6       # dqd CSV, relative (quadrature digits may move ~1e-8)
SHOR9_ALPHA2 = 36.0      # leading coefficient of shor9 under depolarizing
SHOR9_ALPHA2_REL = 0.01

WORKLOADS = ("shor9_dqd", "sweeps")
# jobs of each kind in one round: about half of a round each
DQD_PER_ROUND = 3           # beside one shor9 fit
SMALL_SWEEPS_PER_ROUND = 5  # beside the three amplitude-damping jobs

# Per-layer metrics each workload must read non-zero in a traced run, so
# that a renamed or inlined function fails loudly instead of reporting 0.
REQUIRED_NONZERO = {
    "shor9_dqd": (
        "sim.simulate_choi.calls", "sim.simulate_choi.s", "sim.encode.s",
        "sim.noise.s", "sim.decode.s", "sim.trace.s", "sim.apply_gate.calls",
        "sim.apply_channel_wire.calls", "sim.bytes_computed",
        "decoherence.route.diagonal", "sweep.sweep.s", "sweep.fit_poly.s",
        "sweep.break_even.s", "dqd.spectral_function.calls",
        "dqd.spectral_function.s.t1e-13", "dqd.spectral_function.s.t1e-12",
        "dqd.spectral_function.s.t1e-11", "dqd.spectral_function.s.t1e-10"),
    "sweeps": (
        "codes.code_by_name.calls", "codes.code_by_name.s",
        "sim.simulate_choi.calls", "sim.simulate_choi.s", "sim.encode.s",
        "sim.noise.s", "sim.decode.s", "sim.trace.s",
        "decoherence.measure_auto.calls", "decoherence.measure_auto.s",
        "decoherence.route.diagonal", "decoherence.route.general",
        "decoherence.measure_general.s", "channels.choi_to_chi.s",
        "noise.from_calibrated_p.s", "sweep.sweep.s", "sweep.fit_poly.s",
        "sweep.break_even.s"),
}


@dataclass(frozen=True)
class Job:
    """One process: ``kind`` is ``cli`` (``python -m decoq.cli ARGS``) or
    ``sweeps`` (``python perfbench/sweeps_job.py SPEC``).  Jobs with equal
    ``key`` must print byte-identical stdout within a run."""
    key: str
    kind: str
    args: tuple
    points: int
    check: Callable[[str], list]


def fixed_grid():
    return [LO + i * (HI - LO) / (STEPS - 1) for i in range(STEPS)]


def jittered_grid(rng: random.Random):
    """One uniform draw in each of STEPS equal cells of [LO, HI]."""
    cell = (HI - LO) / STEPS
    return [LO + (i + rng.random()) * cell for i in range(STEPS)]


def poly(coeffs, p: float) -> float:
    return sum(a * p ** (i + 1) for i, a in enumerate(coeffs))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ------------------------------------------------------------ parsing --

def parse_csv(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def parse_fit(text: str) -> dict:
    out = {"alpha": [], "residual": None, "break_even": None, "p_star": None}
    for line in text.splitlines():
        if line.startswith("alpha_"):
            out["alpha"].append(float(line.split("=")[1]))
        elif line.startswith("max residual over samples ="):
            out["residual"] = float(line.split("=")[1])
        elif line.startswith("break_even p* ="):
            out["break_even"] = "found"
            out["p_star"] = float(line.split("=")[1])
        elif line.startswith("break_even: "):
            out["break_even"] = line.split(": ")[1]
    if not out["alpha"] or out["residual"] is None or out["break_even"] is None:
        raise ValueError("incomplete fit output")
    return out


# ------------------------------------------------------------- checks --

def _close(got, want, tol, what, errors, rel=False):
    scale = abs(want) if rel else 1.0
    if not abs(got - want) <= tol * scale:
        errors.append(f"{what}: got {got!r}, want {want!r} within {tol:g}"
                      f"{' relative' if rel else ''}")


def check_sweep_csv(text, grid, closed_form=None, recorded=None):
    """CLI sweep CSV: the requested grid, D0 = p, and D_corrected against a
    closed form or against the recorded CSV on the same grid."""
    errors = []
    rows = parse_csv(text, "p,D0,D_corrected")
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, want {len(grid)}"]
    ref_rows = parse_csv(recorded, "p,D0,D_corrected") if recorded else None
    for i, ((p, d0, d), want_p) in enumerate(zip(rows, grid)):
        _close(p, want_p, 1e-11, f"row {i} p", errors, rel=True)
        _close(d0, p, CALIBRATION_TOL, f"row {i} D0", errors)
        if closed_form is not None:
            _close(d, poly(closed_form, p), POLY_TOL, f"row {i} D", errors)
        else:
            _close(d, ref_rows[i][2], RECORDED_TOL, f"row {i} D", errors)
    return errors


def check_fit(text, recorded, fit_points, closed_form=None, alpha2=None):
    """CLI fit: closed-form coefficients or the shor9 leading coefficient,
    and the recorded fit (its polynomial at the fit points, the residual and
    the break-even point)."""
    errors = []
    got, ref = parse_fit(text), parse_fit(recorded)
    if len(got["alpha"]) != len(ref["alpha"]):
        return [f"{len(got['alpha'])} coefficients, want {len(ref['alpha'])}"]
    if closed_form is not None:
        for i, (a, want) in enumerate(zip(got["alpha"], closed_form), 1):
            _close(a, want, POLY_TOL, f"alpha_{i}", errors)
    if alpha2 is not None:
        _close(got["alpha"][1], alpha2, SHOR9_ALPHA2_REL, "alpha_2", errors,
               rel=True)
    # the fit's coefficients are ill-conditioned at small p; the values they
    # encode at the fit points are not
    for p in fit_points:
        _close(poly(got["alpha"], p), poly(ref["alpha"], p), RECORDED_TOL,
               f"fitted D({p})", errors)
    _close(got["residual"], ref["residual"], RECORDED_TOL, "residual", errors)
    if got["break_even"] != ref["break_even"]:
        errors.append(f"break_even {got['break_even']}, "
                      f"want {ref['break_even']}")
    elif got["p_star"] is not None:
        _close(got["p_star"], ref["p_star"], RECORDED_TOL, "p*", errors)
    return errors


def check_dqd(text, recorded):
    """dqd CSV: D < D0 on every row, every value near the recorded CSV."""
    errors = []
    header = "t_s,p1,p2,D0,D,clamped"
    rows, ref_rows = parse_csv(text, header), parse_csv(recorded, header)
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, want {len(ref_rows)}"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if not row[4] < row[3]:
            errors.append(f"row {i}: D={row[4]!r} not below D0={row[3]!r}")
        for name, got, want in zip(header.split(","), row, ref):
            _close(got, want, DQD_REL_TOL, f"row {i} {name}", errors, rel=True)
    return errors


def check_small_sweeps(text, spec, recorded):
    """Library sweeps: D0 = p on every bare sweep, closed forms where known,
    recorded values elsewhere."""
    errors = []
    lines = [json.loads(line) for line in text.splitlines()]
    if [(r["code"], r["channel"]) for r in lines] != \
            [(s["code"], s["channel"]) for s in spec]:
        return ["sweeps missing or out of order"]
    for r, s in zip(lines, spec):
        pair = (r["code"], r["channel"])
        name = "/".join(pair)
        ps = [p for p, _ in r["samples"]]
        if ps != sorted(s["grid"]) or [p for p, _ in r["bare"]] != ps:
            errors.append(f"{name}: grid differs from the request")
            continue
        for p, d0 in r["bare"]:
            _close(d0, p, CALIBRATION_TOL, f"{name} D0({p})", errors)
        want = CLOSED_FORM.get(pair)
        for i, (p, d) in enumerate(r["samples"]):
            if want is not None:
                _close(d, poly(want, p), POLY_TOL, f"{name} D({p})", errors)
            else:
                _close(d, recorded[name][i], RECORDED_TOL, f"{name} D({p})",
                       errors)
    return errors


# --------------------------------------------------------------- jobs --

def _cli(key, args, points, check):
    return Job(key, "cli", tuple(str(a) for a in args), points, check)


def shor9_fit_job(ref):
    return _cli("fit-shor9-depolarizing",
                ("fit", "--code", "shor9", "--channel", "depolarizing"),
                len(SHOR9_FIT_POINTS),
                lambda out: check_fit(out, ref["fit-shor9-depolarizing"],
                                      SHOR9_FIT_POINTS, alpha2=SHOR9_ALPHA2))


def shor5_amp_fit_job(ref):
    return _cli("fit-shor5-amplitude_damping",
                ("fit", "--code", "shor5", "--channel", "amplitude_damping"),
                len(SHOR5_FIT_POINTS),
                lambda out: check_fit(
                    out, ref["fit-shor5-amplitude_damping"], SHOR5_FIT_POINTS,
                    closed_form=CLOSED_FORM[("shor5", "amplitude_damping")]))


def amp_sweep_job(code, pmin, pmax, ref):
    grid = [pmin + i * (pmax - pmin) / (STEPS - 1) for i in range(STEPS)]
    key = f"sweep-{code}-amplitude_damping"
    closed = CLOSED_FORM.get((code, "amplitude_damping"))
    return _cli(key, ("sweep", "--code", code, "--channel",
                      "amplitude_damping", "--pmin", repr(pmin), "--pmax",
                      repr(pmax), "--steps", STEPS),
                2 * STEPS,
                lambda out: check_sweep_csv(out, grid, closed,
                                            None if closed else ref[key]))


def dqd_job(ref):
    return _cli("dqd", ("dqd",), 25, lambda out: check_dqd(out, ref["dqd"]))


def small_sweeps_spec(rng: random.Random):
    """The 12 code/channel pairs in seeded order; closed-form pairs get a
    jittered grid, the rest the fixed grid their recorded values use."""
    pairs = list(SMALL_PAIRS)
    rng.shuffle(pairs)
    return [{"code": code, "channel": kind,
             "grid": jittered_grid(rng) if (code, kind) in CLOSED_FORM
             else fixed_grid()}
            for code, kind in pairs]


def small_sweeps_job(spec_path: Path, spec, ref):
    return Job("small_sweeps", "sweeps", (str(spec_path),),
               sum(2 * len(s["grid"]) for s in spec),
               lambda out: check_small_sweeps(out, spec, ref["small_sweeps"]))


def rounds(workload: str, seed: int, workdir: Path):
    """Yield the job list of each round, forever, in an order drawn from
    ``seed``, as are the jittered grids."""
    rng = random.Random(seed)
    ref = load_reference()
    if workload == "shor9_dqd":
        jobs = [shor9_fit_job(ref)] + [dqd_job(ref)] * DQD_PER_ROUND
    elif workload == "sweeps":
        spec = small_sweeps_spec(rng)
        spec_path = workdir / "small_sweeps_spec.json"
        spec_path.write_text(json.dumps(spec))
        half_step = (HI - LO) / (STEPS - 1) / 2
        jobs = ([small_sweeps_job(spec_path, spec, ref)]
                * SMALL_SWEEPS_PER_ROUND
                + [amp_sweep_job("shor5", LO + rng.random() * half_step,
                                 HI - rng.random() * half_step, ref),
                   amp_sweep_job("bit3", LO, HI, ref),
                   shor5_amp_fit_job(ref)])
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    while True:
        rng.shuffle(jobs)
        yield list(jobs)
