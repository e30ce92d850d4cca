"""Noise families: closed-form process matrices, calibration, spec round trips."""
import math

import numpy as np
import pytest

from decoq.channels import kraus_to_chi, kraus_to_choi, verify_cptp
from decoq.decoherence import measure_auto
from decoq.noise import (CHANNEL_KINDS, amplitude_damping, bit_flip,
                         build_channel, calibrated_probability, chi_formula,
                         depolarizing, format_spec, from_calibrated_p,
                         make_spec, native_from_calibrated, phase_damping,
                         phase_flip)


def test_chi_known_values():
    chi = chi_formula("bit_flip", 0.25)
    assert np.abs(chi - np.diag([0.75, 0.25, 0.0, 0.0])).max() < 1e-15
    chi = chi_formula("depolarizing", 2.0 / 3.0)
    assert np.abs(chi - np.diag([0.0, 1 / 3, 1 / 3, 1 / 3])).max() < 1e-15
    chi = chi_formula("phase_damping", math.log(2.0))
    assert np.abs(chi - np.diag([0.75, 0.0, 0.0, 0.25])).max() < 1e-15
    chi = chi_formula("amplitude_damping", 50.0)   # fully decayed
    assert abs(chi[0, 3] - 0.25) < 1e-10
    assert abs(chi[3, 3] - 0.25) < 1e-10


def test_zero_strength_is_the_identity_channel():
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    for kind in CHANNEL_KINDS:
        assert np.abs(chi_formula(kind, 0.0) - want).max() < 1e-15


def test_kraus_operators_match_chi_formula():
    natives = {"bit_flip": 0.3, "phase_flip": 0.45, "depolarizing": 0.5,
               "amplitude_damping": 0.8, "phase_damping": 1.3}
    for kind, nat in natives.items():
        chi = kraus_to_chi(build_channel(kind, nat))
        assert np.abs(chi - chi_formula(kind, nat)).max() < 1e-12


def test_channels_are_cptp_inside_their_ranges():
    rng = np.random.default_rng(12)
    tops = {"bit_flip": 1.0, "phase_flip": 1.0, "depolarizing": 2.0 / 3.0,
            "amplitude_damping": 5.0, "phase_damping": 5.0}
    for kind, top in tops.items():
        for nat in rng.uniform(0.0, top, 20):
            rep = verify_cptp(kraus_to_chi(build_channel(kind, nat)))
            assert rep.trace_preserving and rep.completely_positive
            tau = kraus_to_choi(build_channel(kind, nat))
            assert np.linalg.eigvalsh(tau).min() > -1e-12


def test_calibration_equals_the_bare_measure():
    natives = {"bit_flip": 0.2, "phase_flip": 0.35, "depolarizing": 0.4,
               "amplitude_damping": 1.7, "phase_damping": 0.9}
    for kind, nat in natives.items():
        d0 = measure_auto(kraus_to_chi(build_channel(kind, nat)))
        assert abs(d0 - calibrated_probability(kind, nat)) < 1e-9


def test_weak_damping_keeps_its_relative_precision():
    # 1 - e^(-x) by subtraction keeps only ~1e-16/x of relative precision;
    # both damping families form it with expm1, in their chi matrices and in
    # their Kraus weights
    rng = np.random.default_rng(20261018)
    natives = np.concatenate([[1e-12, 1e-4], 10.0 ** rng.uniform(-12, -4, 30)])
    for x in natives:
        for kind in ("amplitude_damping", "phase_damping"):
            want = calibrated_probability(kind, x)
            got = measure_auto(chi_formula(kind, x))
            assert abs(got - want) <= 1e-14 * want, (kind, x, got)
        want = calibrated_probability("phase_damping", x)
        got = measure_auto(kraus_to_chi(phase_damping(x)))
        assert abs(got - want) <= 1e-14 * want, ("phase_damping", x, got)
        # amplitude damping's K0 = diag(1, e^(-x/2)) holds 1 - e^(-x/2) only to
        # 1e-16 absolute, so its Kraus route is checked on the decay weight
        want = calibrated_probability("amplitude_damping", x)
        decay = amplitude_damping(x).operators[1][0, 1]
        assert abs(abs(decay) ** 2 - want) <= 1e-14 * want, x


def test_inverse_calibration():
    assert abs(native_from_calibrated("amplitude_damping", 0.1)
               + math.log(0.9)) < 1e-15
    assert abs(native_from_calibrated("phase_damping", 0.25)
               - math.log(2.0)) < 1e-15
    for kind in CHANNEL_KINDS:
        for p in (0.0, 0.05, 0.3):
            nat = native_from_calibrated(kind, p)
            assert abs(calibrated_probability(kind, nat) - p) < 1e-12
            chi = kraus_to_chi(from_calibrated_p(kind, p))
            assert abs(measure_auto(chi) - p) < 1e-9
    with pytest.raises(ValueError):
        native_from_calibrated("amplitude_damping", 1.0)
    with pytest.raises(ValueError):
        native_from_calibrated("phase_damping", 0.5)
    with pytest.raises(ValueError):
        native_from_calibrated("depolarizing", 0.7)
    with pytest.raises(ValueError):
        native_from_calibrated("gauss", 0.1)


def test_native_parameter_range_checks():
    for fn, bad in ((bit_flip, -0.1), (bit_flip, 1.1), (phase_flip, 2.0),
                    (depolarizing, 0.7), (amplitude_damping, -1e-9),
                    (phase_damping, -0.5)):
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError):
        build_channel("gauss", 0.1)


def test_amplitude_damping_choi_eigenvalues_frozen():
    tau = kraus_to_choi(build_channel("amplitude_damping", 1.0))
    eigs = np.sort(np.linalg.eigvalsh(tau))
    assert np.abs(eigs[:2]).max() < 1e-12
    assert abs(eigs[2] - 0.31606027941427883) < 1e-12
    assert abs(eigs[3] - 0.6839397205857212) < 1e-12


def test_spec_round_trips():
    spec = make_spec("bit_flip", p=0.1)
    assert spec.native_param == 0.1
    assert spec.frame == "computational"
    assert format_spec(spec) == "kind=bit_flip,p=0.1"

    spec = make_spec("amplitude_damping", native=0.7)
    assert spec.frame == "plus_minus"
    assert format_spec(spec) == "kind=amplitude_damping,native=0.7"
    spec2 = make_spec("amplitude_damping", p=spec.calibrated_p)
    assert abs(spec2.native_param - 0.7) < 1e-12
    ch = build_channel(spec.kind, spec.native_param)
    assert abs(ch.operators[0][1, 1] - math.exp(-0.35)) < 1e-12


def test_spec_errors():
    with pytest.raises(ValueError):
        make_spec("bit_flip")
    with pytest.raises(ValueError):
        make_spec("bit_flip", p=0.1, native=0.1)
    with pytest.raises(ValueError):
        make_spec("gauss", p=0.1)
