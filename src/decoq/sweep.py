"""Sweeps of the corrected decoherence measure over p, exact polynomial fits,
and break-even location.

For a code/channel pair, ``sweep`` simulates the error-corrected Choi state
at each requested calibrated probability p and measures D.  Because the
simulated D(p) of an n-qubit code is an exact polynomial of degree <= n with
no constant term, ``fit_poly`` recovers the closed-form coefficients by
solving an exact Vandermonde system (no least squares), and ``break_even``
finds the smallest p where correction stops helping, i.e. D(p) = p.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import choi_to_chi
from .codes import code_by_name
from .decoherence import measure_auto
from .noise import family, from_calibrated_p, native_from_calibrated
from .sim import simulate_choi


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficients alpha_1..alpha_n of D(p) = sum_i alpha_i p^i (no constant)."""
    coefficients: tuple
    residual: float = 0.0

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def evaluate(self, p):
        p = np.asarray(p, dtype=float)
        out = np.zeros_like(p)
        for a in reversed(self.coefficients):
            out = (out + a) * p
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class SweepResult:
    code: str
    channel: str
    samples: tuple                 # ((p, D), ...) sorted by p


# registers (code.n + 1 wires) of at least this many wires measure their
# points on a thread pool; smaller ones in the calling thread, because their
# per-point work is mostly Python holding the interpreter lock, while the
# large contractions of bigger registers run in numpy with it released.  On
# 2 CPUs the pool lost on 6 wires (shor5) and won on every size from 7 to 10
POOL_MIN_WIRES = 7


def _measure_point(code, kind: str, p: float) -> float:
    channel = from_calibrated_p(kind, p)
    tau = simulate_choi(code, channel)
    return measure_auto(choi_to_chi(tau))


class ThreadCapError(ValueError):
    """DECOM_THREADS is set but is not an integer."""


def _worker_count(n_jobs: int) -> int:
    """Pool size: one worker per job, at most DECOM_THREADS and at most one
    per CPU (the pool starts a thread per queued job while none is idle)."""
    cpus = os.cpu_count() or 1
    cap = os.environ.get("DECOM_THREADS")
    try:
        cap = int(cap) if cap else cpus
    except ValueError:
        raise ThreadCapError(
            f"DECOM_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(n_jobs, cap, cpus))


def sweep(code_name: str, channel_kind: str, p_values,
          code=None) -> SweepResult:
    """Measure corrected D at each p, collected in order; the points run on
    a thread pool only for registers of POOL_MIN_WIRES or more wires and a
    worker cap above 1."""
    p_values = [float(p) for p in p_values]
    family(channel_kind)                  # refuses an unknown kind
    if code is None:
        code = code_by_name(code_name)
    for p in p_values:
        try:
            native_from_calibrated(channel_kind, p)
        except ValueError as exc:
            raise ValueError(f"{channel_kind}: {exc}, got {p!r}") from None
    workers = _worker_count(len(p_values))
    if workers == 1 or code.n + 1 < POOL_MIN_WIRES:
        ds = [_measure_point(code, channel_kind, p) for p in p_values]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            ds = list(pool.map(lambda p: _measure_point(code, channel_kind, p),
                               p_values))
    samples = tuple(sorted(zip(p_values, ds)))
    return SweepResult(code_name, channel_kind, samples)


def fit_poly(samples, degree: int) -> PolyCoeffs:
    """Exact polynomial interpolation through ``degree`` of the samples.

    Solves the square system sum_i alpha_i p^i = D at ``degree`` sample
    points (spread evenly through the list if more are given), in the scaled
    variable u = p/p_max for conditioning.  The residual is the largest
    absolute mismatch over *all* supplied samples — near zero exactly when
    the underlying data is truly a polynomial of this degree.
    """
    pts = [(float(p), float(d)) for p, d in samples]
    if degree < 1:
        raise ValueError("degree must be at least 1")
    ps = [p for p, _ in pts]
    if len(set(ps)) < degree:
        raise ValueError(f"need {degree} distinct p values, have {len(set(ps))}")
    if min(ps) <= 0.0:
        raise ValueError("fit points must have p > 0 (the constant term "
                         "is fixed at zero)")
    idx = np.linspace(0, len(pts) - 1, degree).round().astype(int)
    sel = [pts[i] for i in idx]
    if len({p for p, _ in sel}) < degree:
        raise ValueError("duplicate fit points after selection")
    pmax = max(p for p, _ in sel)
    u = np.array([p / pmax for p, _ in sel])
    rhs = np.array([d for _, d in sel])
    vand = np.vander(u, degree + 1, increasing=True)[:, 1:]
    beta = np.linalg.solve(vand, rhs)
    alpha = beta / pmax ** np.arange(1, degree + 1)
    poly = PolyCoeffs(tuple(alpha))
    resid = max(abs(poly.evaluate(p) - d) for p, d in pts)
    return PolyCoeffs(poly.coefficients, resid)


@dataclass(frozen=True)
class BreakEven:
    """Smallest p > 0 with D(p) = p.  status: found | none | all."""
    status: str
    p: float | None = None


def break_even(poly: PolyCoeffs, p_max: float = 1.0) -> BreakEven:
    """Locate the first crossing of D(p) with the identity line.

    A coarse grid on [1e-6, p_max] brackets the first sign change of
    D(p) - p, then bisection narrows it below 1e-12.  If D - p vanishes
    identically the crossing is everywhere ("all"); with no sign change
    the code beats (or loses to) the bare channel throughout ("none").
    A root at p_max itself (|D(p_max) - p_max| < 1e-12) is not a crossing,
    so rounding cannot decide the answer: under phase damping D(p) - p
    vanishes at the cap p = 1/2 for the 3-qubit codes, and both report
    "none" (bit3 loses and phase3 wins on all of [0, 1/2)).
    """
    lo = 1e-6
    if p_max <= lo:
        raise ValueError("p_max too small")
    grid = np.linspace(lo, p_max, 4097)
    g = poly.evaluate(grid) - grid
    if np.abs(g).max() < 1e-12:
        return BreakEven("all")
    if abs(g[-1]) < 1e-12:
        grid, g = grid[:-1], g[:-1]
    sign = np.sign(g)
    change = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]
    change = [i for i in change if not (sign[i] == 0 and sign[i + 1] == 0)]
    if not change:
        return BreakEven("none")
    a, b = grid[change[0]], grid[change[0] + 1]
    fa = poly.evaluate(a) - a
    for _ in range(100):
        mid = 0.5 * (a + b)
        fm = poly.evaluate(mid) - mid
        if fm == 0.0:
            return BreakEven("found", float(mid))
        if (fa < 0) == (fm < 0):
            a, fa = mid, fm
        else:
            b = mid
    return BreakEven("found", float(0.5 * (a + b)))
