"""Phonon rates, the dephasing integral, and the derived error curves."""
import json
import math
import warnings

import numpy as np
import pytest

from decoq.dqd import (EV, DqdParams, amp_poly, dawson, decoherence_pair,
                       default_params, dqd_error_probs, load_params,
                       params_from_units, phase_poly, relaxation_rate,
                       spectral_function)

import util

GAMMA_DEFAULT = 1273433624.2483376        # 1/s, frozen high-precision value
B2_DEFAULT_1E10 = 0.0087765807330008576   # dimensionless, frozen value
B2_DEFAULT_LIMIT = 0.008776581953207073   # B^2(t -> inf), default device


def test_params_positivity():
    with pytest.raises(ValueError):
        DqdParams(0.0, 9e3, 2330.0, 5e-8, 3e-9, 1e8)
    with pytest.raises(ValueError):
        DqdParams(5e-19, 9e3, 2330.0, 5e-8, 3e-9, -1e8)
    with pytest.raises(ValueError):
        params_from_units(L_nm=-1.0)


def test_params_must_be_finite():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="deformation_potential must be "
                                             "finite and strictly positive"):
            DqdParams(bad, 9e3, 2330.0, 5e-8, 3e-9, 1e8)
        with pytest.raises(ValueError, match="dot_separation must be finite"):
            params_from_units(L_nm=bad)


def test_params_unit_conversions():
    p = default_params()
    assert abs(p.deformation_potential / EV - 3.3) < 1e-12
    assert abs(p.crystal_density - 2330.0) < 1e-9
    assert abs(p.dot_separation - 5e-8) < 1e-20
    assert abs(p.dot_radius - 3e-9) < 1e-21
    assert p.sound_speed == 9e3
    assert p.phonon_wavevector == 1e8


def test_load_params(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"L_nm": 40.0, "a_nm": 2.0}))
    p = load_params(path)
    assert abs(p.dot_separation - 4e-8) < 1e-20
    assert abs(p.dot_radius - 2e-9) < 1e-21
    assert abs(p.deformation_potential / EV - 3.3) < 1e-12  # default kept
    path.write_text(json.dumps({"length": 1.0}))
    with pytest.raises(ValueError):
        load_params(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        load_params(path)


def test_relaxation_rate_closed_form():
    p = default_params()
    assert abs(relaxation_rate(p) - GAMMA_DEFAULT) / GAMMA_DEFAULT < 1e-12
    # at k = 2 pi / L the oscillatory bracket closes to one
    k = 2.0 * math.pi / p.dot_separation
    q = params_from_units(k_per_m=k)
    pref = (q.deformation_potential ** 2 * k ** 3
            / (4.0 * math.pi * q.crystal_density * q.sound_speed ** 2 * q.hbar)
            * math.exp(-(q.dot_radius * k) ** 2 / 2.0))
    assert abs(relaxation_rate(q) - pref) / pref < 1e-12


def test_spectral_function_edges():
    p = default_params()
    assert spectral_function(p, 0.0) == 0.0
    with pytest.raises(ValueError):
        spectral_function(p, -1e-12)


def test_spectral_function_frozen_value():
    got = spectral_function(default_params(), 1e-10)
    assert abs(got - B2_DEFAULT_1E10) / B2_DEFAULT_1E10 < 1e-12


@pytest.mark.parametrize("t", [1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
def test_spectral_function_against_analytic_angular_integral(t):
    # the angular integral has the closed form 1 - sin(2 q L)/(2 q L); what
    # remains is a 1-d integral, evaluated by the quadrature oracle
    p = default_params()
    want = util.reference_b2(p, t)
    assert abs(spectral_function(p, t) - want) / want < 1e-14


@pytest.mark.parametrize("params", [default_params(),
                                    params_from_units(L_nm=3.0)],
                         ids=["default", "L3nm"])
def test_spectral_function_matches_reference_quadrature(params):
    # y = L/sqrt(beta) is 23.6 for the default device and 1.41 at L = 3 nm;
    # above 1e-9 s the oracle's own phase round-off reaches ~1.5e-14
    for t in np.geomspace(1e-16, 1e-8, 33):
        want = util.reference_b2(params, t)
        rel = abs(spectral_function(params, t) - want) / want
        assert rel < (1e-14 if t <= 1e-9 else 5e-14), (t, rel)


def test_dawson_matches_reference_quadrature():
    below = [np.nextafter(b, 0.0) for b in (0.2, 10.0)]
    xs = np.concatenate([np.geomspace(1e-8, 1e4, 241), [0.2, 10.0], below])
    for x in xs:
        want = util.reference_dawson(x)
        assert abs(dawson(x) - want) / want < 2e-15, x
        assert dawson(-x) == -dawson(x)
    assert dawson(0.0) == 0.0
    assert dawson(math.inf) == 0.0


def test_spectral_function_long_time_limit():
    p = default_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # no numpy overflow warning
        for t in (1e300, 1.7e308, np.float64(1.7e308)):
            got = spectral_function(p, t)
            assert abs(got - B2_DEFAULT_LIMIT) / B2_DEFAULT_LIMIT < 1e-14
        # where delta = s t/(2 sqrt(beta)) is finite the formula gives the
        # same limit
        got = spectral_function(p, 1e-3)
        assert abs(got - B2_DEFAULT_LIMIT) / B2_DEFAULT_LIMIT < 1e-14
        p1, p2, clamped = dqd_error_probs(p, 1e300)
    assert (p1, clamped) == (1.0, False)
    want = -math.expm1(-B2_DEFAULT_LIMIT) / 2.0
    assert abs(p2 - want) <= 1e-14 * want


def test_error_probabilities():
    p = default_params()
    assert dqd_error_probs(p, 0.0) == (0.0, 0.0, False)
    t = 1e-13
    p1, p2, clamped = dqd_error_probs(p, t)
    assert not clamped
    gamma_t = relaxation_rate(p) * t
    assert abs(p1 - gamma_t) / gamma_t < 0.01
    b2 = spectral_function(p, t)
    assert abs(p2 - b2 / 2.0) / (b2 / 2.0) < 0.01
    # the operation count scales linearly until a cap bites
    q1, q2, qc = dqd_error_probs(p, t, n_ops=7)
    assert abs(q1 - 7.0 * p1) < 1e-15
    assert abs(q2 - 7.0 * p2) < 1e-15
    assert not qc


def test_error_probability_clamps():
    p = default_params()
    p1, p2, clamped = dqd_error_probs(p, 1e-9, n_ops=3)
    assert clamped and p1 == 1.0 and p2 <= 0.5
    p1, p2, clamped = dqd_error_probs(p, 1e-10, n_ops=1000)
    assert clamped and p2 == 0.5
    with pytest.raises(ValueError):
        dqd_error_probs(p, 1e-10, n_ops=0)
    with pytest.raises(ValueError):
        dqd_error_probs(p, -1.0)


def test_n_ops_beyond_a_float_is_refused():
    # refused, instead of an OverflowError from n_ops * p1
    p = default_params()
    with pytest.raises(ValueError, match="n_ops is too large"):
        dqd_error_probs(p, 1e-10, n_ops=10 ** 400)
    assert dqd_error_probs(p, 1e-10, n_ops=10 ** 308)[2]


def test_polynomials_and_decoherence():
    assert abs(amp_poly(0.1) - 0.0169375) < 1e-15
    assert abs(phase_poly(0.1) - 0.081) < 1e-15
    def pair(t):
        return decoherence_pair(*dqd_error_probs(default_params(), t)[:2])

    assert pair(0.0) == (0.0, 0.0)
    for t in (1e-12, 1e-11, 1e-10):
        d0, d = pair(t)
        assert 0.0 < d < d0 < 0.2
