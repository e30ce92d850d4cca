"""Phonon rates, the dephasing integral, and the derived error curves."""
import json
import math

import numpy as np
import pytest

from decoq import dqd
from decoq.dqd import (EV, ConvergenceError, DqdParams, QuadratureConfig,
                       QuadratureSizeError, amp_poly, default_params,
                       dqd_decoherence, dqd_error_probs, load_params,
                       params_from_units, phase_poly, relaxation_rate,
                       spectral_function)

GAMMA_DEFAULT = 1273433624.2483376        # 1/s, frozen high-precision value
B2_DEFAULT_1E10 = 0.0087765807330008576   # dimensionless, frozen value


def test_params_positivity():
    with pytest.raises(ValueError):
        DqdParams(0.0, 9e3, 2330.0, 5e-8, 3e-9, 1e8)
    with pytest.raises(ValueError):
        DqdParams(5e-19, 9e3, 2330.0, 5e-8, 3e-9, -1e8)
    with pytest.raises(ValueError):
        params_from_units(L_nm=-1.0)


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


def test_spectral_function_node_doubling_self_consistency():
    p = default_params()
    coarse = spectral_function(p, 1e-11)
    fine = spectral_function(p, 1e-11, QuadratureConfig(outer_nodes=48))
    assert abs(coarse - fine) / fine < 1e-4


@pytest.mark.parametrize("t", [1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
def test_spectral_function_against_analytic_angular_integral(t):
    # the angular integral has the closed form 1 - sin(2 q L)/(2 q L); what
    # remains is a 1-d integral evaluated here on a fine panelized grid
    p = default_params()
    a, ell, s = p.dot_radius, p.dot_separation, p.sound_speed
    q_max = 8.0 / a
    x, w = np.polynomial.legendre.leggauss(48)
    edges = np.linspace(0.0, q_max, 1201)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    q = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
    wq = (half[:, None] * w[None, :]).reshape(-1)
    angular = 1.0 - np.sin(2.0 * q * ell) / (2.0 * q * ell)
    integrand = (q * np.exp(-(a * q) ** 2 / 2.0)
                 * np.sin(q * s * t / 2.0) ** 2 * angular)
    pref = p.deformation_potential ** 2 / (np.pi ** 2 * p.hbar
                                           * p.crystal_density * s ** 3)
    want = pref * float((integrand * wq).sum())
    got = spectral_function(p, t)
    assert abs(got - want) / want < 1e-10


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(outer_nodes=8)
    with pytest.raises(ValueError):
        QuadratureConfig(q_max_factor=2.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_refinements=0)


def test_convergence_error_surfaces():
    # the first 16 -> 32 node doubling still moves the value by ~3e-13, so a
    # tighter tolerance with a one-refinement budget cannot be met
    cfg = QuadratureConfig(outer_nodes=16, rel_tol=1e-14, max_refinements=1)
    with pytest.raises(ConvergenceError):
        spectral_function(default_params(), 1e-10, cfg)


def test_huge_t_is_rejected_before_allocating():
    params = default_params()
    # about 1e9 panels at 1e-3 s; at 1e300 s the panel count overflows to inf
    for t in (1e-3, 1e300):
        with pytest.raises(QuadratureSizeError, match="quadrature nodes"):
            dqd_error_probs(params, t)
    assert issubclass(QuadratureSizeError, ValueError)
    # the default grid's largest t stays under the limit after every doubling
    cfg = QuadratureConfig()
    nodes = cfg.outer_nodes * 2 ** cfg.max_refinements
    q_max = cfg.q_max_factor / params.dot_radius
    assert dqd._b2_once(params, 1e-9, nodes, q_max) > 0.0


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


def test_polynomials_and_decoherence():
    assert abs(amp_poly(0.1) - 0.0169375) < 1e-15
    assert abs(phase_poly(0.1) - 0.081) < 1e-15
    assert dqd_decoherence(default_params(), 0.0) == (0.0, 0.0)
    for t in (1e-12, 1e-11, 1e-10):
        d0, d = dqd_decoherence(default_params(), t)
        assert 0.0 < d < d0 < 0.2
