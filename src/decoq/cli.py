"""Command-line interface: channel reports, QEC sweeps, fits, DQD curves.

Subcommands
-----------
channel  -- print the chi matrix, Choi eigenvalues, decoherence measure and
            CPTP verdict of one channel at one native parameter value.
sweep    -- CSV of p, D0 (bare qubit, = p), D_corrected (after QEC) over a p grid.
fit      -- recover the exact D(p) polynomial of a code/channel pair and its
            break-even point.
dqd      -- CSV of the double-quantum-dot curves over a logarithmic time grid.

CSV files use 12-significant-digit scientific notation, a header row, and LF
line endings; identical configurations produce byte-identical files.  Exit
codes: 0 success, 2 configuration error, 3 range/validation error (including
nan or infinite values of any float flag, a --steps above MAX_STEPS, and a
``channel --p`` or ``dqd --params`` that takes floating point out of range).
``dqd`` evaluates B^2(t) in closed form, so any finite --tmax is accepted.

Each command imports the layers it needs when it runs, so ``dqd`` loads
neither numpy nor the simulator.
"""
from __future__ import annotations

import argparse
import importlib
import math
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RANGE = 3

# largest --steps of ``sweep`` and ``dqd``: refused before the grid is
# allocated, since a 1e9-point grid alone needs gigabytes
MAX_STEPS = 10 ** 6

# the library functions the commands call, by the module that defines them:
# each command looks them up there when it runs, and they stay readable as
# attributes of this module
_LIBRARY_NAMES = {"code_by_name": "codes", "sweep": "sweep",
                  "fit_poly": "sweep", "break_even": "sweep"}


def __getattr__(name):
    if name not in _LIBRARY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _LIBRARY_NAMES[name], __package__)
    return getattr(module, name)


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _write_lines(path: str | None, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------- channel --

def _chi_entry(v: float) -> str:
    """A chi entry in fixed point below 1e6 in magnitude, and in exponent
    form beyond, so a row stays one short line at any finite value."""
    return f"{v:+.6f}" if abs(v) < 1e6 else f"{v:+.6e}"


def cmd_channel(args) -> int:
    import numpy as np

    from . import noise
    from .channels import chi_to_choi, chi_to_kraus, verify_cptp
    from .decoherence import (is_diagonal, measure_auto,
                              measure_by_definition, measure_diagonal,
                              measure_general)
    kind = args.channel
    native = args.p
    fam = noise.family(kind)
    # far outside the physical range the chi matrix or its spectrum leaves
    # floating point, and the report is refused before anything is printed
    try:
        with np.errstate(over="raise", invalid="raise"):
            chi = fam.chi(native)
            report = verify_cptp(chi)
            eigs = np.linalg.eigvalsh(chi_to_choi(chi))
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError):
        raise ValueError(f"--p {native!r} is too large in magnitude for the "
                         f"{kind} chi matrix") from None

    # the range build_channel accepts; verify_cptp forgives an eigenvalue
    # down to EIG_FLOOR, so it passes values just outside
    physical = 0.0 <= native <= fam.native_top
    print(f"channel: {kind}  native parameter: {native!r}")
    if physical:
        p = fam.calibrate(native)
        # a closed cap belongs to a family whose calibration is the identity
        spec = f"native={native!r}" if fam.cap_open else f"p={p!r}"
        print(f"spec: kind={kind},{spec}")
        print(f"calibrated p: {_fmt(p)}")
    print("chi matrix (real part):")
    for row in chi.real:
        print("  " + "  ".join(_chi_entry(v) for v in row))
    if np.abs(chi.imag).max() > 1e-15:
        print("chi matrix (imag part):")
        for row in chi.imag:
            print("  " + "  ".join(_chi_entry(v) for v in row))
    print("choi eigenvalues: " + "  ".join(_fmt(v) for v in eigs))
    cp = "ok" if report.completely_positive else "VIOLATED"
    tp = "ok" if report.trace_preserving else "VIOLATED"
    print(f"cptp: complete positivity {cp} (min eigenvalue "
          f"{_fmt(report.min_eigenvalue)}), trace preservation {tp}")
    if not physical:
        print("measure: skipped (not a physical channel at this parameter)")
        return EXIT_OK

    if is_diagonal(chi):
        print(f"D (diagonal rule):    {_fmt(measure_diagonal(chi))}")
    print(f"D (secular equation): {_fmt(measure_general(chi))}")
    print(f"D (dispatch):         {_fmt(measure_auto(chi))}")
    grid = measure_by_definition(chi_to_kraus(chi), grid_density=20000)
    print(f"D (definition, grid): {_fmt(grid)}")
    return EXIT_OK


# ------------------------------------------------------------------ sweep --

def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ValueError("--steps must be >= 1")
    if steps > MAX_STEPS:
        raise ValueError(f"--steps must be <= {MAX_STEPS}, got {steps}")


def _linspace(lo: float, hi: float, n: int) -> list:
    """n >= 1 evenly spaced floats from lo to hi, bit for bit as
    np.linspace gives them: i step + lo, with hi itself last, and numpy's
    own forms where the step underflows to zero and where n = 1 (which
    turns a lo of -0.0 into 0.0)."""
    delta = hi - lo
    if n == 1:
        return [0.0 * delta + lo]
    step = delta / (n - 1)
    if step == 0.0:
        return [i / (n - 1) * delta + lo for i in range(n - 1)] + [hi]
    return [i * step + lo for i in range(n - 1)] + [hi]


def _p_grid(args):
    from . import noise
    noise.family(args.channel)             # an unknown kind before --steps
    _check_steps(args.steps)
    if args.pmin > args.pmax:
        raise ValueError("--pmin must not exceed --pmax")
    for flag, p in (("--pmax", args.pmax), ("--pmin", args.pmin)):
        try:
            noise.native_from_calibrated(args.channel, p)
        except ValueError as exc:
            raise ValueError(f"{flag} {p!r}: {args.channel} {exc}") from None
    return _linspace(args.pmin, args.pmax, args.steps)


def _compile_simulator_first() -> None:
    """Import decoq.sim before numpy loads.  Compiling its source takes
    about a megabyte for a moment; done first, numpy's allocations reuse
    that memory instead of raising the peak above it."""
    from . import sim  # noqa: F401


def cmd_sweep(args) -> int:
    _compile_simulator_first()
    from .codes import code_by_name
    from .sweep import sweep
    code_by_name(args.code)                # an unknown code before the grid
    ps = _p_grid(args)
    result = sweep(args.code, args.channel, ps)
    # the calibration makes p the bare qubit's D0 (a p of -0.0 has D0 0.0)
    rows = ["p,D0,D_corrected"]
    for p, d in result.samples:
        rows.append(f"{_fmt(p)},{_fmt(abs(p))},{_fmt(d)}")
    if args.format == "svg":
        _write_lines(args.out, _svg_lines(
            [(p, p) for p in sorted(set(ps))], result.samples,
            "p", "D", ("bare D0", "corrected D")))
    else:
        _write_lines(args.out, rows)
    return EXIT_OK


# -------------------------------------------------------------------- fit --

# per-code sampling policy: small codes fit exactly on [0.05, 0.3]; the
# 9-qubit code's polynomial has degree 9 there, so its quadratic leading
# coefficient is extracted from a degree-3 fit at small p instead.
_FIT_POLICY = {
    "bit3": {"degree": 3, "points": _linspace(0.05, 0.3, 4)},
    "phase3": {"degree": 3, "points": _linspace(0.05, 0.3, 4)},
    "shor5": {"degree": 5, "points": _linspace(0.05, 0.3, 6)},
    "shor9": {"degree": 3, "points": [5e-4, 1e-3, 2e-3]},
    "none": {"degree": 1, "points": _linspace(0.05, 0.3, 2)},
}


def cmd_fit(args) -> int:
    _compile_simulator_first()
    from .codes import code_by_name
    from .noise import FAMILIES
    from .sweep import break_even, fit_poly, sweep
    code_by_name(args.code)                # an unknown code before the policy
    policy = _FIT_POLICY[args.code]
    result = sweep(args.code, args.channel, policy["points"])
    poly = fit_poly(result.samples, policy["degree"])
    print(f"code={args.code} channel={args.channel}")
    for i, a in enumerate(poly.coefficients, start=1):
        print(f"alpha_{i} = {_fmt(a)}")
    print(f"max residual over samples = {_fmt(poly.residual)}")
    be = break_even(poly, p_max=FAMILIES[args.channel].cap)
    if be.status == "found":
        print(f"break_even p* = {_fmt(be.p)}")
    else:
        print(f"break_even: {be.status}")
    return EXIT_OK


# -------------------------------------------------------------------- dqd --

_FLOAT_RANGE = "the device parameters leave floating-point range"


def _log_grid(lo: float, hi: float, n: int) -> list:
    """n floats from lo to hi evenly spaced in log10, as np.geomspace builds
    them: lo and hi themselves at the ends, 10**(i step + log10(lo))
    between, clamped into [lo, hi] (a point past the largest float is
    hi)."""
    if n == 1:
        return [lo]
    a = math.log10(lo)
    step = (math.log10(hi) - a) / (n - 1)
    inner = []
    for i in range(1, n - 1):
        try:
            t = 10.0 ** (i * step + a)
        except OverflowError:
            t = hi
        inner.append(min(max(t, lo), hi))
    return [lo, *inner, hi]


def cmd_dqd(args) -> int:
    import json

    from . import dqd as dqd_mod
    try:
        params = (dqd_mod.load_params(args.params) if args.params
                  else dqd_mod.default_params())
    except (OverflowError, ZeroDivisionError):
        raise ValueError(_FLOAT_RANGE) from None
    except (OSError, json.JSONDecodeError, ValueError, TypeError,
            RecursionError) as exc:
        print(f"error: bad params file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _check_steps(args.steps)
    if not 0.0 < args.tmin <= args.tmax:
        raise ValueError("need 0 < --tmin <= --tmax")
    ts = _log_grid(args.tmin, args.tmax, args.steps)
    rows = ["t_s,p1,p2,D0,D,clamped"]
    pts_d0, pts_d = [], []
    for t in ts:
        try:
            p1, p2, clamped = dqd_mod.dqd_error_probs(params, t, args.n_ops)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(_FLOAT_RANGE) from None
        d0, d = dqd_mod.decoherence_pair(p1, p2)
        rows.append(f"{_fmt(t)},{_fmt(p1)},{_fmt(p2)},{_fmt(d0)},{_fmt(d)},"
                    f"{int(clamped)}")
        pts_d0.append((t, d0))
        pts_d.append((t, d))
    if args.format == "svg":
        _write_lines(args.out, _svg_lines(pts_d0, pts_d, "t (s)", "D",
                                          ("uncorrected D0", "corrected D"),
                                          logx=True))
    else:
        _write_lines(args.out, rows)
    return EXIT_OK


# -------------------------------------------------------------------- svg --

def _svg_lines(series_a, series_b, xlabel, ylabel, names, logx=False):
    """A minimal two-polyline SVG chart (no external assets)."""
    w, h, pad = 640, 420, 56
    xs = [x for x, _ in series_a] + [x for x, _ in series_b]
    ys = [y for _, y in series_a] + [y for _, y in series_b]
    if logx:
        xs = [math.log10(x) for x in xs]
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(max(ys), 1e-30)
    sx = (w - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (h - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)

    def pts(series):
        out = []
        for x, y in series:
            if logx:
                x = math.log10(x)
            out.append(f"{pad + (x - x0) * sx:.2f},{h - pad - (y - y0) * sy:.2f}")
        return " ".join(out)

    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{pts(series_a)}"/>',
        f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" '
        f'points="{pts(series_b)}"/>',
        f'<text x="{w / 2:.0f}" y="{h - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}{" (log10)" if logx else ""}</text>',
        f'<text x="16" y="{h / 2:.0f}" font-size="13" '
        f'transform="rotate(-90 16 {h / 2:.0f})" text-anchor="middle">'
        f'{ylabel}</text>',
        f'<text x="{w - pad}" y="{pad - 18}" text-anchor="end" fill="#1f77b4" '
        f'font-size="12">{names[0]}</text>',
        f'<text x="{w - pad}" y="{pad - 4}" text-anchor="end" fill="#d62728" '
        f'font-size="12">{names[1]}</text>',
        '</svg>',
    ]


# ------------------------------------------------------------------- main --

def build_parser() -> argparse.ArgumentParser:
    from .codes import CODE_NAMES
    from .noise import CHANNEL_KINDS
    parser = argparse.ArgumentParser(
        prog="decoq",
        description="decoherence measures and measurement-free QEC analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("channel", help="inspect one channel")
    c.add_argument("--channel", required=True,
                   help="|".join(CHANNEL_KINDS))
    c.add_argument("--p", type=float, required=True,
                   help="native parameter (probability, Gamma*t, or B^2)")
    c.set_defaults(func=cmd_channel)

    s = sub.add_parser("sweep", help="p-sweep of a code/channel pair")
    s.add_argument("--code", required=True, help="|".join(CODE_NAMES))
    s.add_argument("--channel", required=True)
    s.add_argument("--pmin", type=float, default=0.0)
    s.add_argument("--pmax", type=float, default=0.3)
    s.add_argument("--steps", type=int, default=16)
    s.add_argument("--out", default=None, help="output path (default stdout)")
    s.add_argument("--format", choices=("csv", "svg"), default="csv")
    s.set_defaults(func=cmd_sweep)

    f = sub.add_parser(
        "fit", help="closed-form polynomial + break-even",
        description="Recover D(p) coefficients exactly. Small codes fit "
                    "their full-degree polynomial on p in [0.05, 0.3]; the "
                    "9-qubit code reports its quadratic leading coefficient "
                    "from a degree-3 fit at p in {5e-4, 1e-3, 2e-3}.")
    f.add_argument("--code", required=True)
    f.add_argument("--channel", required=True)
    f.set_defaults(func=cmd_fit)

    d = sub.add_parser("dqd", help="double-quantum-dot decoherence curves")
    d.add_argument("--params", default=None, help="JSON parameter file")
    d.add_argument("--n-ops", type=int, default=1)
    d.add_argument("--tmin", type=float, default=1e-13)
    d.add_argument("--tmax", type=float, default=1e-9)
    d.add_argument("--steps", type=int, default=25)
    d.add_argument("--out", default=None)
    d.add_argument("--format", choices=("csv", "svg"), default="csv")
    d.set_defaults(func=cmd_dqd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} must be finite, got {value!r}",
                  file=sys.stderr)
            return EXIT_RANGE
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        from .codes import UnknownCodeError
        from .noise import UnknownKindError
        print(f"error: {exc}", file=sys.stderr)
        config = (OSError, UnknownCodeError, UnknownKindError)
        return EXIT_CONFIG if isinstance(exc, config) else EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
