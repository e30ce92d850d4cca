"""Exit codes, CSV determinism, and report content of the command line tool."""
import argparse
import math
import random
import warnings

import numpy as np
import pytest

from decoq.cli import MAX_STEPS, build_parser, main
from decoq.noise import FAMILIES


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
    assert main(["sweep", "--code", "steane", "--channel", "bit_flip"]) == 2
    capsys.readouterr()
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
    assert main(["sweep", "--code", "bit3", "--channel", "bit_flip",
                 "--pmin", "0.05", "--pmax", "0.2", "--steps", "3",
                 "--format", "svg", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


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
    assert main(["fit", "--code", "steane", "--channel", "bit_flip"]) == 2
    capsys.readouterr()
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


def test_malformed_thread_cap_is_a_configuration_error(monkeypatch, capsys):
    monkeypatch.setenv("DECOM_THREADS", "abc")
    argv = ["sweep", "--code", "bit3", "--channel", "bit_flip", "--steps", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "DECOM_THREADS" in err
    assert len(err.splitlines()) == 1
    for value in ("0", "1"):
        monkeypatch.setenv("DECOM_THREADS", value)
        assert main(argv) == 0
