"""Sweeps, exact polynomial fits, break-even."""
import numpy as np
import pytest

from decoq.noise import FAMILIES
from decoq.sweep import PolyCoeffs, break_even, fit_poly, sweep


def test_sweep_known_values():
    res = sweep("bit3", "bit_flip", (0.1, 0.3, 0.2))
    assert res.code == "bit3"
    assert res.channel == "bit_flip"
    ps = [p for p, _ in res.samples]
    assert ps == sorted(ps)
    want = {0.1: 0.028, 0.2: 0.104, 0.3: 0.216}   # 3 p^2 - 2 p^3
    for p, d in res.samples:
        assert abs(d - want[p]) < 1e-12


def test_sweep_trivial_code_returns_bare_measure():
    res = sweep("none", "depolarizing", (0.5,))
    assert abs(res.samples[0][1] - 0.5) < 1e-12
    res = sweep("shor5", "depolarizing", (0.0,))
    assert abs(res.samples[0][1]) < 1e-12


def test_sweep_range_and_name_checks():
    with pytest.raises(ValueError):
        sweep("bit3", "depolarizing", (0.7,))
    # the range check agrees with noise.native_from_calibrated at each cap
    for kind, fam in FAMILIES.items():
        cap = fam.cap
        if kind in ("amplitude_damping", "phase_damping"):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1(/2)?\)"):
                sweep("bit3", kind, (cap,))
        else:
            assert abs(sweep("none", kind, (cap,)).samples[0][1] - cap) < 1e-12
    with pytest.raises(ValueError):
        sweep("bit3", "gauss", (0.1,))
    with pytest.raises(ValueError):
        sweep("steane", "bit_flip", (0.1,))


def test_sweep_inverts_each_calibration_once(monkeypatch):
    # the range check before the first point does not invert p; each
    # point's channel does, once
    calls = []
    fam = FAMILIES["phase_damping"]
    monkeypatch.setitem(FAMILIES, "phase_damping", fam._replace(
        invert=lambda p: calls.append(p) or fam.invert(p)))
    sweep("bit3", "phase_damping", (0.1, 0.3, 0.2))
    assert calls == [0.1, 0.3, 0.2]
    with pytest.raises(ValueError, match="got 0.5"):
        sweep("bit3", "phase_damping", (0.1, 0.5))
    assert calls == [0.1, 0.3, 0.2]


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_weak_noise_sweeps_give_no_negative_measure(kind):
    # D is a norm; at small p the simulated shor5 Pauli weights carry
    # round-off down to -1.6e-17, which the diagonal rule must not return
    res = sweep("shor5", kind, np.geomspace(1e-12, 1e-3, 19))
    assert min(d for _, d in res.samples) >= 0.0


def test_fit_poly_recovers_cubic():
    samples = [(p, 3 * p ** 2 - 2 * p ** 3) for p in np.linspace(0.05, 0.3, 7)]
    poly = fit_poly(samples, 3)
    assert np.abs(np.array(poly.coefficients) - (0.0, 3.0, -2.0)).max() < 1e-10
    assert poly.residual < 1e-12
    assert poly.degree == 3
    assert abs(poly.evaluate(0.17) - (3 * 0.17 ** 2 - 2 * 0.17 ** 3)) < 1e-12
    vals = poly.evaluate(np.array([0.1, 0.2]))
    assert np.abs(vals - np.array([0.028, 0.104])).max() < 1e-12


def test_fit_poly_under_degree_leaves_residual():
    samples = [(p, 3 * p ** 2 - 2 * p ** 3) for p in (0.1, 0.2, 0.3)]
    poly = fit_poly(samples, 2)
    assert poly.residual > 1e-4


def test_fit_poly_validation():
    good = [(0.1, 0.01), (0.2, 0.04)]
    with pytest.raises(ValueError):
        fit_poly(good, 0)
    with pytest.raises(ValueError):
        fit_poly(good, 3)
    with pytest.raises(ValueError):
        fit_poly([(0.0, 0.0), (0.1, 0.01)], 2)
    with pytest.raises(ValueError):
        fit_poly([(0.1, 0.01), (0.2, 0.04), (0.1, 0.01)], 2)


def test_fit_is_stable_across_disjoint_sample_sets():
    a = fit_poly(sweep("bit3", "bit_flip", (0.06, 0.1, 0.14)).samples, 3)
    b = fit_poly(sweep("bit3", "bit_flip", (0.18, 0.24, 0.3)).samples, 3)
    diff = np.abs(np.array(a.coefficients) - np.array(b.coefficients)).max()
    assert diff < 1e-7


def test_fit_predicts_a_held_out_point():
    res = sweep("bit3", "bit_flip", (0.05, 0.12, 0.21, 0.3))
    poly = fit_poly(res.samples, 3)
    held = sweep("bit3", "bit_flip", (0.26,)).samples[0][1]
    assert abs(poly.evaluate(0.26) - held) < 1e-8


def test_break_even():
    poly = PolyCoeffs((0.0, 3.0, -2.0))
    be = break_even(poly)
    assert be.status == "found"
    assert abs(be.p - 0.5) < 1e-10
    assert break_even(PolyCoeffs((1.0,))).status == "all"
    assert break_even(PolyCoeffs((0.5,))).status == "none"
    with pytest.raises(ValueError):
        break_even(poly, p_max=1e-7)


def test_break_even_ignores_a_root_at_p_max():
    # D(p) - p = +-p (1 - 2p) has its only root in (0, 1/2] at p_max = 1/2;
    # rounding of either sign at the end of the range must not decide
    for sign in (1.0, -1.0):
        for nudge in (0.0, 1e-15, -1e-15):
            poly = PolyCoeffs((1.0 + sign + nudge, -2.0 * sign))
            assert break_even(poly, p_max=0.5).status == "none"
    # a crossing just inside p_max is still found
    poly = PolyCoeffs((2.0, -1.0 / 0.499))
    be = break_even(poly, p_max=0.5)
    assert be.status == "found" and abs(be.p - 0.499) < 1e-10
