"""Noise families: closed-form process matrices, calibration, ranges."""
import math

import numpy as np
import pytest

from decoq.channels import kraus_to_chi, kraus_to_choi, verify_cptp
from decoq.decoherence import measure_auto
from decoq.noise import (CHANNEL_KINDS, FAMILIES, UnknownKindError,
                         build_channel, family, from_calibrated_p,
                         native_from_calibrated)
from decoq.sweep import sweep

# each family's native and calibrated range messages, its cap and whether
# the cap is open (reached only at infinite damping), as the table must say
FROZEN_RANGES = {
    "bit_flip": ("p must lie in [0, 1]", "calibrated p must lie in [0, 1]",
                 1.0, False),
    "phase_flip": ("p must lie in [0, 1]", "calibrated p must lie in [0, 1]",
                   1.0, False),
    "depolarizing": ("p must lie in [0, 2/3]",
                     "calibrated p must lie in [0, 2/3]", 2.0 / 3.0, False),
    "amplitude_damping": ("gamma_t must be >= 0",
                          "calibrated p must lie in [0, 1)", 1.0, True),
    "phase_damping": ("b_sq must be >= 0",
                      "calibrated p must lie in [0, 1/2)", 0.5, True),
}


def _valid_natives(kind, rng, n=20):
    """n random native parameters inside the family's range (damping
    exponents up to 5), then its range ends."""
    top = min(FAMILIES[kind].native_top, 5.0)
    return [*rng.uniform(0.0, top, n), 0.0, top]


def _valid_ps(kind, rng, n=20):
    """n random calibrated p below the family's cap, then 0, then the
    largest p it accepts (the cap itself when closed)."""
    fam = FAMILIES[kind]
    top = np.nextafter(fam.cap, 0.0) if fam.cap_open else fam.cap
    return [*rng.uniform(0.0, fam.cap, n), 0.0, float(top)]


def test_chi_known_values():
    chi = family("bit_flip").chi(0.25)
    assert np.abs(chi - np.diag([0.75, 0.25, 0.0, 0.0])).max() < 1e-15
    chi = family("depolarizing").chi(2.0 / 3.0)
    assert np.abs(chi - np.diag([0.0, 1 / 3, 1 / 3, 1 / 3])).max() < 1e-15
    chi = family("phase_damping").chi(math.log(2.0))
    assert np.abs(chi - np.diag([0.75, 0.0, 0.0, 0.25])).max() < 1e-15
    chi = family("amplitude_damping").chi(50.0)   # fully decayed
    assert abs(chi[0, 3] - 0.25) < 1e-10
    assert abs(chi[3, 3] - 0.25) < 1e-10


def test_zero_strength_is_the_identity_channel():
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    for kind in CHANNEL_KINDS:
        assert np.abs(family(kind).chi(0.0) - want).max() < 1e-15


def test_kraus_operators_match_chi_formula():
    rng = np.random.default_rng(101)
    fixed = {"bit_flip": 0.3, "phase_flip": 0.45, "depolarizing": 0.5,
             "amplitude_damping": 0.8, "phase_damping": 1.3}
    for kind in CHANNEL_KINDS:
        for nat in [fixed[kind], *_valid_natives(kind, rng)]:
            chi = kraus_to_chi(build_channel(kind, nat))
            assert np.abs(chi - family(kind).chi(nat)).max() < 1e-12, (
                kind, nat)


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
    rng = np.random.default_rng(102)
    fixed = {"bit_flip": 0.2, "phase_flip": 0.35, "depolarizing": 0.4,
             "amplitude_damping": 1.7, "phase_damping": 0.9}
    for kind in CHANNEL_KINDS:
        for nat in [fixed[kind], *_valid_natives(kind, rng)]:
            d0 = measure_auto(kraus_to_chi(build_channel(kind, nat)))
            assert abs(d0 - family(kind).calibrate(nat)) < 1e-9, (
                kind, nat)


def test_caps_and_ranges_refuse_with_their_messages():
    for kind, (native_msg, p_msg, cap, cap_open) in FROZEN_RANGES.items():
        fam = family(kind)
        assert (fam.cap, fam.cap_open) == (cap, cap_open)
        below = float(np.nextafter(cap, 0.0))
        native_from_calibrated(kind, below)
        if cap_open:
            refused_p = [cap]
            build_channel(kind, 1e300)            # damping has no native top
        else:
            native_from_calibrated(kind, cap)
            top = float(np.nextafter(fam.native_top, 2.0))
            refused_p = [top]
            build_channel(kind, cap)
            with pytest.raises(ValueError) as exc:
                build_channel(kind, top)
            assert str(exc.value) == native_msg
        for p in [*refused_p, -5e-324, -0.1]:
            with pytest.raises(ValueError) as exc:
                native_from_calibrated(kind, p)
            assert str(exc.value) == p_msg, (kind, p)
            with pytest.raises(ValueError) as exc:
                sweep("none", kind, (p,))
            assert str(exc.value) == f"{kind}: {p_msg}, got {p!r}"
        for bad in (-5e-324, -0.1):
            with pytest.raises(ValueError) as exc:
                build_channel(kind, bad)
            assert str(exc.value) == native_msg, (kind, bad)


def test_weak_damping_keeps_its_relative_precision():
    # 1 - e^(-x) by subtraction keeps only ~1e-16/x of relative precision;
    # both damping families form it with expm1, in their chi matrices and in
    # their Kraus weights
    rng = np.random.default_rng(20261018)
    natives = np.concatenate([[1e-12, 1e-4], 10.0 ** rng.uniform(-12, -4, 30)])
    for x in natives:
        for kind in ("amplitude_damping", "phase_damping"):
            want = family(kind).calibrate(x)
            got = measure_auto(family(kind).chi(x))
            assert abs(got - want) <= 1e-14 * want, (kind, x, got)
        want = family("phase_damping").calibrate(x)
        got = measure_auto(kraus_to_chi(build_channel("phase_damping", x)))
        assert abs(got - want) <= 1e-14 * want, ("phase_damping", x, got)
        # amplitude damping's K0 = diag(1, e^(-x/2)) holds 1 - e^(-x/2) only to
        # 1e-16 absolute, so its Kraus route is checked on the decay weight
        want = family("amplitude_damping").calibrate(x)
        decay = build_channel("amplitude_damping", x).operators[1][0, 1]
        assert abs(abs(decay) ** 2 - want) <= 1e-14 * want, x


def test_inverse_calibration():
    assert abs(native_from_calibrated("amplitude_damping", 0.1)
               + math.log(0.9)) < 1e-15
    assert abs(native_from_calibrated("phase_damping", 0.25)
               - math.log(2.0)) < 1e-15
    rng = np.random.default_rng(103)
    for kind in CHANNEL_KINDS:
        for p in (0.05, 0.3, *_valid_ps(kind, rng)):
            nat = native_from_calibrated(kind, p)
            assert abs(family(kind).calibrate(nat) - p) <= 1e-15 * p, (
                kind, p)
            chi = kraus_to_chi(from_calibrated_p(kind, p))
            assert abs(measure_auto(chi) - p) < 1e-9, (kind, p)
    with pytest.raises(ValueError):
        native_from_calibrated("amplitude_damping", 1.0)
    with pytest.raises(ValueError):
        native_from_calibrated("phase_damping", 0.5)
    with pytest.raises(ValueError):
        native_from_calibrated("depolarizing", 0.7)
    with pytest.raises(ValueError):
        native_from_calibrated("gauss", 0.1)


def test_native_parameter_range_checks():
    for kind, bad in (("bit_flip", -0.1), ("bit_flip", 1.1),
                      ("phase_flip", 2.0), ("depolarizing", 0.7),
                      ("amplitude_damping", -1e-9), ("phase_damping", -0.5),
                      ("amplitude_damping", math.nan)):
        with pytest.raises(ValueError) as exc:
            build_channel(kind, bad)
        assert str(exc.value) == FROZEN_RANGES[kind][0]
    with pytest.raises(ValueError):
        build_channel("gauss", 0.1)


def test_unknown_kind_is_one_error():
    calls = (lambda: family("gauss"),
             lambda: native_from_calibrated("gauss", 0.1),
             lambda: build_channel("gauss", 0.1),
             lambda: from_calibrated_p("gauss", 0.1),
             lambda: sweep("none", "gauss", (0.1,)))
    for call in calls:
        # a ValueError, whose subclass the CLI maps to exit 2
        with pytest.raises(UnknownKindError) as exc:
            call()
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == "unknown channel kind 'gauss'"


def test_amplitude_damping_choi_eigenvalues_frozen():
    tau = kraus_to_choi(build_channel("amplitude_damping", 1.0))
    eigs = np.sort(np.linalg.eigvalsh(tau))
    assert np.abs(eigs[:2]).max() < 1e-12
    assert abs(eigs[2] - 0.31606027941427883) < 1e-12
    assert abs(eigs[3] - 0.6839397205857212) < 1e-12
