"""Exit codes, CSV determinism, and report content of the command line tool."""
import argparse
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from decoq import cli, dqd
from decoq.cli import _FIT_POLICY, MAX_STEPS, build_parser, main
from decoq.noise import FAMILIES

import util

ROOT = Path(__file__).resolve().parents[1]


def test_channel_report(capsys):
    assert main(["channel", "--channel", "bit_flip", "--p", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "\nspec: kind=bit_flip,p=0.25\n" in out
    assert "\ncalibrated p: 2.50000000000e-01\n" in out
    assert "D (diagonal rule)" in out
    assert "D (dispatch)" in out
    assert "complete positivity ok" in out
    # the damping families name their native parameter on the spec line
    assert main(["channel", "--channel", "amplitude_damping",
                 "--p", "0.7"]) == 0
    out = capsys.readouterr().out
    assert ("\nspec: kind=amplitude_damping,native=0.7\n"
            "calibrated p: 5.03414696209e-01\n") in out


def test_channel_report_with_complex_chi(capsys):
    assert main(["channel", "--channel", "amplitude_damping", "--p", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "chi matrix (imag part):" in out
    d = 1.0 - np.exp(-1.0)
    assert f"D (secular equation): {d:.11e}" in out


def test_channel_unphysical_parameter(capsys):
    assert main(["channel", "--channel", "bit_flip", "--p", "1.2"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    assert "measure: skipped" in out
    # just outside the range, where the CPTP check forgives the eigenvalue:
    # the whole report, without the spec, calibration and measure lines
    for kind, value in (("bit_flip", "1.00000000005"),
                        ("depolarizing", "0.6666666667"),
                        ("amplitude_damping", "-1e-11"),
                        ("phase_damping", "-1e-11")):
        assert main(["channel", "--channel", kind, f"--p={value}"]) == 0
        out, err = capsys.readouterr()
        assert err == "", (kind, value)
        assert out.endswith("measure: skipped (not a physical channel at "
                            "this parameter)\n"), (kind, value)
        assert "spec:" not in out and "calibrated p:" not in out
        assert "D (" not in out


UNKNOWN_KIND = ("", "error: unknown channel kind 'gauss'\n")
UNKNOWN_CODE = ("", "error: unknown code 'steane'; choose from bit3, phase3, "
                    "shor5, shor9, none\n")


def test_channel_unknown_kind(capsys):
    assert main(["channel", "--channel", "gauss", "--p", "0.1"]) == 2
    assert capsys.readouterr() == UNKNOWN_KIND


def test_channel_non_finite_parameter(capsys):
    for value in ("nan", "inf"):
        assert main(["channel", "--channel", "bit_flip", "--p", value]) == 3
        err = capsys.readouterr().err
        assert "--p" in err
        assert len(err.splitlines()) == 1


def test_channel_at_extreme_parameters(capsys):
    # far outside the physical range the chi matrix (damping at a large
    # negative exponent) or its spectrum (flips and depolarizing near the
    # float limit) leaves floating point: one line naming --p and exit 3;
    # closer in, an unphysical parameter still gets its VIOLATED report,
    # in short lines (amplitude damping at -700 has chi entries near 2.5e303)
    refused = {(kind, v) for kind in ("bit_flip", "phase_flip", "depolarizing")
               for v in (1e308, -1e308)}
    refused |= {(kind, v) for kind in ("amplitude_damping", "phase_damping")
                for v in (-1e308, -1000.0)}
    cases = [(kind, value) for kind in FAMILIES
             for value in (1e308, -1e308, 1000.0, -1000.0)]
    for kind, value in cases + [("amplitude_damping", -700.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no numpy warning either
            code = main(["channel", "--channel", kind, f"--p={value!r}"])
        out, err = capsys.readouterr()
        if (kind, value) in refused:
            assert code == 3 and out == ""
            assert err.splitlines() == [
                f"error: --p {value!r} is too large in magnitude for the "
                f"{kind} chi matrix"]
        else:
            assert code == 0 and err == ""
            assert out.startswith(f"channel: {kind}  native parameter: ")
            assert max(len(line) for line in out.splitlines()) <= 120


def test_chi_entries_keep_fixed_point_below_a_million(capsys):
    assert main(["channel", "--channel", "amplitude_damping",
                 "--p=-700.0"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:6]
    assert rows[0].split() == ["+2.535580e+303", "+0.000000", "+0.000000",
                               "-2.535580e+303"]
    # phase damping at -13 has chi entries (1 +- e^13)/2, near 2.2e5
    assert main(["channel", "--channel", "phase_damping", "--p=-13.0"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:6]
    assert rows[0].split() == ["+221207.196004", "+0.000000", "+0.000000",
                               "+0.000000"]
    assert rows[3].split()[3] == "-221206.196004"


def test_sweep_csv_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--code", "bit3", "--channel", "bit_flip",
            "--pmin", "0.05", "--pmax", "0.2", "--steps", "4"]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    assert b"\r" not in b1
    lines = b1.decode().splitlines()
    assert lines[0] == "p,D0,D_corrected"
    assert len(lines) == 5
    p, d0, d = map(float, lines[-1].split(","))
    assert abs(p - 0.2) < 1e-12
    assert abs(d0 - 0.2) < 1e-9
    assert abs(d - 0.104) < 1e-9


def test_sweep_exit_codes(capsys):
    # the code is checked first, so an unknown kind does not hide it
    for kind in ("bit_flip", "gauss"):
        assert main(["sweep", "--code", "steane", "--channel", kind]) == 2
        assert capsys.readouterr() == UNKNOWN_CODE
    # the kind is checked before --steps and the p range, and stays exit 2
    for extra in ([], ["--steps", "0"], ["--pmin", "0.5", "--pmax", "0.1"]):
        assert main(["sweep", "--code", "bit3", "--channel", "gauss"]
                    + extra) == 2
        assert capsys.readouterr() == UNKNOWN_KIND
    assert main(["sweep", "--code", "bit3", "--channel", "bit_flip",
                 "--pmin", "0.5", "--pmax", "0.1"]) == 3
    assert main(["sweep", "--code", "bit3", "--channel", "bit_flip",
                 "--steps", "0"]) == 3
    assert main(["sweep", "--code", "bit3", "--channel", "depolarizing",
                 "--pmax", "0.9", "--steps", "3"]) == 3


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_sweep_at_calibrated_cap(kind, capsys):
    # the damping families reach their cap only at infinite damping
    cap = FAMILIES[kind].cap
    argv = ["sweep", "--code", "bit3", "--channel", kind,
            "--pmin", repr(cap), "--pmax", repr(cap), "--steps", "1"]
    if kind in ("amplitude_damping", "phase_damping"):
        assert main(argv) == 3
        half_open = {"amplitude_damping": "[0, 1)",
                     "phase_damping": "[0, 1/2)"}[kind]
        assert capsys.readouterr().err.splitlines() == [
            f"error: --pmax {cap!r}: {kind} calibrated p must lie in "
            f"{half_open}"]
    else:
        assert main(argv) == 0
        p, d0, d = map(float, capsys.readouterr().out.splitlines()[1].split(","))
        assert abs(p - cap) < 1e-11 and abs(d0 - cap) < 1e-11


def test_fit_break_even_at_the_cap_is_none(capsys):
    # under phase damping D(p) - p vanishes at the cap p = 1/2 for bit3
    # (which loses on [0, 1/2)) and phase3 (which wins there)
    for code in ("bit3", "phase3"):
        assert main(["fit", "--code", code, "--channel", "phase_damping"]) == 0
        assert "break_even: none" in capsys.readouterr().out.splitlines()


def test_sweep_svg(tmp_path):
    out = tmp_path / "plot.svg"
    for argv in (["sweep", "--code", "bit3", "--channel", "bit_flip",
                  "--pmin", "0.05", "--pmax", "0.2", "--steps", "3"],
                 ["dqd", "--tmin", "1e-13", "--tmax", "1e-11",
                  "--steps", "3"]):
        assert main(argv + ["--format", "svg", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        # dqd plots t on a log10 axis
        assert (">t (s) (log10)</text>" in text) == (argv[0] == "dqd")


def test_sweep_d0_is_the_calibrated_p(capsys, tmp_path):
    # a simulated bare qubit misses p in the last digits on the first rows
    # of these two sweeps (1.00000004137e-09 at p = 1e-9)
    for code, kind, pmin in (("bit3", "depolarizing", "1e-9"),
                             ("shor5", "amplitude_damping", "1e-6")):
        assert main(["sweep", "--code", code, "--channel", kind, "--pmin",
                     pmin, "--pmax", "1e-3", "--steps", "5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            p, d0, _ = row.split(",")
            assert d0 == p, row
    # a grid that repeats one p draws one bare point
    out = tmp_path / "plot.svg"
    assert main(["sweep", "--code", "bit3", "--channel", "bit_flip",
                 "--pmin", "0.1", "--pmax", "0.1", "--steps", "3",
                 "--format", "svg", "--out", str(out)]) == 0
    bare, corrected = [line.split('points="')[1].split('"')[0].split()
                       for line in out.read_text().splitlines()
                       if line.startswith("<polyline")]
    assert len(bare) == 1 and len(corrected) == 3


def test_fit_output(capsys):
    assert main(["fit", "--code", "bit3", "--channel", "bit_flip"]) == 0
    fields = {}
    for line in capsys.readouterr().out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    assert abs(float(fields["alpha_1"])) < 1e-8
    assert abs(float(fields["alpha_2"]) - 3.0) < 1e-8
    assert abs(float(fields["alpha_3"]) + 2.0) < 1e-8
    assert abs(float(fields["break_even p*"]) - 0.5) < 1e-9


def test_fit_unknown_code(capsys):
    for kind in ("bit_flip", "gauss"):
        assert main(["fit", "--code", "steane", "--channel", kind]) == 2
        assert capsys.readouterr() == UNKNOWN_CODE
    assert main(["fit", "--code", "bit3", "--channel", "gauss"]) == 2
    assert capsys.readouterr() == UNKNOWN_KIND


def test_dqd_csv(tmp_path):
    out = tmp_path / "dqd.csv"
    assert main(["dqd", "--tmin", "1e-13", "--tmax", "1e-11",
                 "--steps", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,p1,p2,D0,D,clamped"
    assert len(lines) == 4
    for line in lines[1:]:
        t, p1, p2, d0, d, clamped = line.split(",")
        assert clamped in ("0", "1")
        assert float(d0) >= max(float(p1), float(p2)) - 1e-15
        assert float(d) <= float(d0)


def test_dqd_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dqd", "--params", str(bad), "--steps", "1"]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"speed": 1}')
    assert main(["dqd", "--params", str(unknown), "--steps", "1"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["dqd", "--params", str(missing), "--steps", "1"]) == 2
    assert main(["dqd", "--tmin", "0", "--steps", "1"]) == 3
    assert main(["dqd", "--steps", "0"]) == 3
    # non-finite bounds are rejected before any B^2(t) is evaluated
    for flag, value in (("--tmax", "inf"), ("--tmax", "nan"),
                        ("--tmin", "nan"), ("--tmin", "inf")):
        capsys.readouterr()
        assert main(["dqd", flag, value, "--steps", "2"]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_dqd_params_beyond_float_range_are_range_errors(tmp_path, capsys):
    # each value is finite and positive, but the rates overflow or divide
    # by a product that underflows to zero
    path = tmp_path / "params.json"
    for key, value in (("k_per_m", "1e200"), ("a_nm", "1e300"),
                       ("s_m_per_s", "1e-300"), ("rho_g_per_cm3", "1e-320"),
                       ("a_nm", "1e-300")):
        path.write_text(f'{{"{key}": {value}}}')
        assert main(["dqd", "--params", str(path), "--steps", "2"]) == 3
        assert capsys.readouterr() == ("", (
            "error: the device parameters leave floating-point range\n"))


def test_dqd_n_ops_beyond_a_float_is_a_range_error(capsys):
    assert main(["dqd", "--steps", "1", "--n-ops", "1" + "0" * 400]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_ops is too large to convert to a float\n"


def test_dqd_non_finite_params_are_bad_params_files(tmp_path, capsys):
    fields = {"xi_eV": "deformation_potential", "s_m_per_s": "sound_speed",
              "rho_g_per_cm3": "crystal_density", "L_nm": "dot_separation",
              "a_nm": "dot_radius", "k_per_m": "phonon_wavevector"}
    path = tmp_path / "params.json"
    for key, field in fields.items():
        for value in ("Infinity", "NaN", "1e400", "1" + "0" * 400,
                      "-1" + "0" * 400):
            path.write_text(f'{{"{key}": {value}}}')
            capsys.readouterr()
            assert main(["dqd", "--params", str(path), "--steps", "1"]) == 2
            assert capsys.readouterr().err == (
                f"error: bad params file: {field} must be finite and "
                "strictly positive\n")
        # JSON values that are not numbers are refused by key
        for value in ("true", '"50"', "null"):
            path.write_text(f'{{"{key}": {value}}}')
            capsys.readouterr()
            assert main(["dqd", "--params", str(path), "--steps", "1"]) == 2
            assert capsys.readouterr() == ("", (
                f"error: bad params file: {key} must be a number, "
                f"got {value}\n"))


def test_dqd_tiny_dot_separation_is_a_bad_params_file(tmp_path, capsys):
    path = tmp_path / "params.json"
    for value in ("1e-300", "1e-6"):
        path.write_text(f'{{"L_nm": {value}}}')
        capsys.readouterr()
        assert main(["dqd", "--params", str(path), "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: bad params file: dot_separation must "
                               "be at least 0.01 dot_radius/sqrt(2)")


def test_dqd_deeply_nested_params_is_a_bad_params_file(tmp_path, capsys):
    # the JSON decoder recurses once per level of nesting
    path = tmp_path / "deep.json"
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        path.write_text(text)
        capsys.readouterr()
        assert main(["dqd", "--params", str(path), "--steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: bad params file: maximum recursion")


def test_steps_above_the_cap_are_range_errors(capsys):
    steps = str(MAX_STEPS + 1)
    for argv in (["sweep", "--code", "bit3", "--channel", "bit_flip"],
                 ["dqd"]):
        capsys.readouterr()
        assert main(argv + ["--steps", steps]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --steps must be <= {MAX_STEPS}, "
                                f"got {steps}\n")


def test_dqd_huge_tmax_reaches_the_long_time_limit(capsys):
    # B^2(t) is in closed form, so any finite --tmax is accepted; past
    # t ~ 1e-8 s the dephasing is at its limit B^2(inf)
    limit = -math.expm1(-0.008776581953207073) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")           # no numpy overflow warning
        assert main(["dqd", "--tmin", "1e-3", "--tmax", "1.7e308",
                     "--steps", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "1.00000000000e-03", "4.12310562562e+152", "1.70000000000e+308"]
    assert {row.split(",")[2] for row in rows} == {f"{limit:.11e}"}


# the smallest valid command line of each subcommand
_BASE_ARGV = {
    "channel": ["--channel", "bit_flip", "--p", "0.1"],
    "sweep": ["--code", "bit3", "--channel", "bit_flip", "--steps", "2"],
    "fit": ["--code", "bit3", "--channel", "bit_flip"],
    "dqd": ["--tmin", "1e-12", "--tmax", "1e-12", "--steps", "1"],
}
_NON_FINITE = ("nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "INF",
               "1e999", "-1e999")


def _float_flags():
    """(subcommand, flag) for every float-typed option of the parser."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return [(name, action.option_strings[0])
            for name, subparser in sub.choices.items()
            for action in subparser._actions if action.type is float]


def test_non_finite_float_flags_are_range_errors(capsys):
    flags = _float_flags()
    assert {cmd for cmd, _ in flags} == {"channel", "sweep", "dqd"}
    assert set(_BASE_ARGV) == {cmd for cmd, _ in flags} | {"fit"}
    rng = random.Random(20261018)
    for cmd, flag in flags:
        for value in rng.sample(_NON_FINITE, 4):
            argv = [cmd] + _BASE_ARGV[cmd] + [f"{flag}={value}"]
            assert main(argv) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: {flag} must be finite, got {float(value)!r}"]


_LAZY_LOADS = """
import sys
import decoq.sweep, decoq.cli
print("decoq.dqd" in sys.modules, "json" in sys.modules)
import decoq
import decoq.dqd as dqd
print(decoq.dqd is dqd)
from decoq.codes import code_by_name
from decoq.noise import from_calibrated_p
from decoq.sim import simulate_choi
for name in ("shor5", "shor9"):
    simulate_choi(code_by_name(name), from_calibrated_p("depolarizing", 0.1))
    print("decoq.reads" in sys.modules)
homes = {"code_by_name": "codes", "sweep": "sweep", "fit_poly": "sweep",
         "break_even": "sweep"}
print(all(getattr(decoq.cli, name) is getattr(sys.modules["decoq." + home],
                                              name)
          for name, home in homes.items()),
      decoq.sim is sys.modules["decoq.sim"],
      decoq.sweep is sys.modules["decoq.sweep"])
"""


def test_the_dqd_model_and_the_read_sets_load_only_when_used():
    # a sweep job imports neither decoq.dqd nor json, and only a register
    # of more than one block (shor9's) loads the read sets.  The library
    # functions the commands call resolve on decoq.cli to those of their
    # defining modules, and each submodule is bound on the package
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", _LAZY_LOADS], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\nTrue\nFalse\nTrue\nTrue True True\n"


_NO_NUMPY = """
import contextlib, io, sys
import decoq
loaded = ["numpy" in sys.modules]
import decoq.cli
loaded.append("numpy" in sys.modules)
for argv in (["dqd"], ["dqd", "--format", "svg"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = decoq.cli.main(argv)
    loaded.append((code, "numpy" in sys.modules))
print(loaded)
"""


def test_the_dqd_command_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, (0, False), (0, False)]\n"
    # the help texts list the codes, whose builders load the simulator
    # only when a code is built
    for argv in (["dqd"], ["--help"], ["sweep", "--help"]):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                               "decoq.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "decoq.noise" in proc.stderr, argv
        assert "numpy" not in proc.stderr, argv


def test_fit_policy_points_are_the_numpy_grids():
    want = {"bit3": np.linspace(0.05, 0.3, 4),
            "phase3": np.linspace(0.05, 0.3, 4),
            "shor5": np.linspace(0.05, 0.3, 6),
            "shor9": [5e-4, 1e-3, 2e-3],
            "none": np.linspace(0.05, 0.3, 2)}
    assert set(_FIT_POLICY) == set(want)
    for code, points in want.items():
        got = _FIT_POLICY[code]["points"]
        assert all(type(p) is float for p in got)
        assert [p.hex() for p in got] == [float(p).hex() for p in points]


def test_linspace_is_numpys_bit_for_bit():
    # sweep grids and fit points: any finite ends, equal ends, -0.0, and a
    # span of a few subnormals, whose step underflows to zero
    rng = random.Random(20261021)
    for _ in range(20000):
        n = rng.randint(1, 500)
        kind = rng.random()
        if kind < 0.1:
            lo = hi = rng.uniform(-1.0, 1.0)
        elif kind < 0.15:
            lo, hi = -0.0, rng.choice((-0.0, 0.0, rng.random()))
        elif kind < 0.2:
            lo = rng.randint(-50, 50) * 5e-324
            hi = lo + rng.randint(-50, 50) * 5e-324
        else:
            lo, hi = (rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300)
                      for _ in range(2))
        got = np.array(cli._linspace(lo, hi, n))
        want = np.linspace(lo, hi, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
            lo, hi, n)

def _dqd_output(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["dqd", *argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def _numpy_dqd_output(argv, capsys, monkeypatch):
    """The dqd output of the numpy route: np.geomspace's grid, and Dawson's
    integral summed over arrays."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_log_grid", np.geomspace)
        m.setattr(dqd, "dawson", util.numpy_dawson)
        m.setattr(dqd, "_second_difference", util.numpy_second_difference)
        with np.errstate(over="ignore"):      # np.geomspace's last point
            return _dqd_output(argv, capsys)


def test_the_default_dqd_outputs_are_those_of_the_numpy_route(capsys,
                                                              monkeypatch):
    for argv in ([], ["--format", "svg"]):
        assert _dqd_output(argv, capsys) == _numpy_dqd_output(
            argv, capsys, monkeypatch)
    # the benchmark's recorded CSV, from a quadrature that has since become
    # the closed form, holds the same curve to 1e-6
    recorded = json.loads((ROOT / "perfbench" / "reference.json")
                          .read_text())["dqd"].splitlines()
    printed = _dqd_output([], capsys).splitlines()
    assert printed[0] == recorded[0] and len(printed) == len(recorded)
    for row, want in zip(printed[1:], recorded[1:]):
        for x, y in zip(row.split(","), want.split(",")):
            assert math.isclose(float(x), float(y), rel_tol=1e-6), (row, want)


def test_seeded_dqd_grids_print_the_numpy_route_to_the_last_digit(
        tmp_path, capsys, monkeypatch):
    # the standard library's log10 and powers of ten may each differ from
    # numpy's by an ulp, and an ulp of log10 t moves t by ln(10) ulp(log10 t)
    # relative (up to 37 ulp of t at 1e-15 s); that, or an ulp of B^2, now
    # and then crosses the rounding of a printed twelfth digit (one row of
    # these 4,882)
    params = tmp_path / "params.json"
    params.write_text('{"L_nm": 3.0}')
    rng = random.Random(20261020)
    rows = differing = 0
    for i in range(24):
        tmin = 10.0 ** rng.uniform(-16.0, -6.0)
        tmax = tmin * 10.0 ** rng.uniform(0.0, 8.0)
        steps = rng.randint(2, 400)
        grid = cli._log_grid(tmin, tmax, steps)
        assert grid[0] == tmin and grid[-1] == tmax
        for t, want in zip(grid, np.geomspace(tmin, tmax, steps)):
            assert abs(t - want) <= 4 * (math.log(10) * math.ulp(
                math.log10(want)) * want + math.ulp(want))
        argv = [f"--tmin={tmin!r}", f"--tmax={tmax!r}", f"--steps={steps}"]
        if i % 2:
            argv += ["--params", str(params)]
        printed = _dqd_output(argv, capsys).splitlines()
        numpy_route = _numpy_dqd_output(argv, capsys, monkeypatch).splitlines()
        assert len(printed) == len(numpy_route) == steps + 1
        for row, want in zip(printed[1:], numpy_route[1:]):
            rows += 1
            if row != want:
                differing += 1
                for x, y in zip(row.split(","), want.split(",")):
                    assert abs(float(x) - float(y)) <= 1e-11 * abs(float(y))
    assert differing <= rows // 1000


@pytest.mark.parametrize("tmin, tmax, steps", [
    # np.geomspace overflowed computing its last point, then replaced it
    (1e300, 1.7976931348623157e308, 3),
    # a middle point past the largest float: inf in np.geomspace, tmax here
    (1.7976931348623157e308, 1.7976931348623157e308, 3),
    (1e-13, 1e-9, 1),
    (5e-324, 1e-9, 25),
], ids=["overflow", "inf", "one-step", "subnormal"])
def test_dqd_grid_edges_print_what_the_numpy_route_printed(
        tmin, tmax, steps, capsys, monkeypatch):
    grid = cli._log_grid(tmin, tmax, steps)
    assert len(grid) == steps and grid[0] == tmin
    assert steps == 1 or grid[-1] == tmax
    argv = [f"--tmin={tmin!r}", f"--tmax={tmax!r}", f"--steps={steps}"]
    assert all(tmin <= t <= tmax for t in grid)
    printed = _dqd_output(argv, capsys)
    assert [row.split(",")[0] for row in printed.splitlines()[1:]] == [
        cli._fmt(t) for t in grid]
    if tmin == tmax:
        assert grid == [tmax] * steps
    else:
        assert printed == _numpy_dqd_output(argv, capsys, monkeypatch)
