"""End-to-end acceptance checks, one pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py``: the verbose status line of
each ``test_criterion_NN_*`` test is the verdict.  Each test also prints a
``criterion N: PASS/FAIL (...)`` line with the measured numbers (shown with
``-s`` or on failure).
"""
import time

import numpy as np

from decoq.channels import (PAULI_X, PAULI_Y, PAULI_Z, KrausChannel,
                            chi_to_kraus, kraus_to_chi, kraus_to_choi)
from decoq.codes import code_by_name
from decoq.decoherence import (measure_auto, measure_by_definition,
                               measure_quadratic)
from decoq.dqd import (decoherence_pair, default_params, dqd_error_probs,
                       relaxation_rate, spectral_function)
from decoq.noise import build_channel, family
from decoq.sim import simulate_choi
from decoq.sweep import break_even, fit_poly, sweep

import util


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_bit_flip_code_cubic():
    t0 = time.perf_counter()
    res = sweep("bit3", "bit_flip", (0.1, 0.2, 0.3))
    poly = fit_poly(res.samples, 3)
    elapsed = time.perf_counter() - t0
    got = np.array(poly.coefficients)
    err = np.abs(got - np.array([0.0, 3.0, -2.0])).max()
    ok = err <= 1e-8 and elapsed < 1.0
    _report(1, ok, f"coefficients {got.tolist()}, "
                   f"max error {err:.2e}, {elapsed:.2f}s")


def test_criterion_02_five_qubit_depolarizing_quartic():
    t0 = time.perf_counter()
    res = sweep("shor5", "depolarizing", np.linspace(0.05, 0.3, 6))
    poly = fit_poly(res.samples, 5)
    elapsed = time.perf_counter() - t0
    got = np.array(poly.coefficients)
    want = np.array([0.0, 15.0, -50.0, 60.0, -24.0])
    err = np.abs(got - want).max()
    ok = err <= 1e-8 and elapsed < 30.0
    _report(2, ok, f"coefficients {got.tolist()}, "
                   f"max error {err:.2e}, {elapsed:.1f}s")


def test_criterion_03_five_qubit_amplitude_damping_polynomial():
    res = sweep("shor5", "amplitude_damping", np.linspace(0.05, 0.3, 6))
    poly = fit_poly(res.samples, 5)
    got = np.array(poly.coefficients)
    want = np.array([0.0, 15.0 / 8.0, -15.0 / 8.0, 5.0 / 8.0, 0.0])
    err = np.abs(got - want).max()
    ratio = 15.0 / got[1]
    ok = err <= 1e-8 and abs(ratio - 8.0) < 1e-6
    _report(3, ok, f"coefficients {got.tolist()}, max error {err:.2e}, "
                   f"quadratic ratio to depolarizing {ratio:.8f}")


def test_criterion_04_five_qubit_phase_damping_polynomial():
    res = sweep("shor5", "phase_damping", np.linspace(0.05, 0.3, 6))
    poly = fit_poly(res.samples, 5)
    got = np.array(poly.coefficients)
    want = np.array([0.0, 10.0, -20.0, 10.0, 0.0])
    err = np.abs(got - want).max()
    ratio = 15.0 / got[1]
    ok = err <= 1e-8 and abs(ratio - 1.5) < 1e-6
    _report(4, ok, f"coefficients {got.tolist()}, max error {err:.2e}, "
                   f"quadratic ratio to depolarizing {ratio:.8f}")


def test_criterion_05_nine_qubit_leading_coefficient():
    t0 = time.perf_counter()
    res = sweep("shor9", "depolarizing", (5e-4, 1e-3, 2e-3))
    poly = fit_poly(res.samples, 3)
    elapsed = time.perf_counter() - t0
    alpha2 = poly.coefficients[1]
    ok = abs(alpha2 - 36.0) <= 0.36 and elapsed < 600.0
    _report(5, ok, f"alpha_2 = {alpha2:.4f} (target 36 within 1%), "
                   f"{elapsed:.1f}s")


def test_criterion_06_calibration_anchors():
    worst = 0.0
    cases = [("bit_flip", 0.17), ("phase_flip", 0.4), ("depolarizing", 0.5),
             ("amplitude_damping", 1.3), ("phase_damping", 0.8)]
    for kind, native in cases:
        d0 = measure_auto(kraus_to_chi(build_channel(kind, native)))
        worst = max(worst, abs(d0 - family(kind).calibrate(native)))
    ok = worst <= 1e-9
    _report(6, ok, f"max |D0 - calibration formula| = {worst:.2e} "
                   f"over {len(cases)} families")


def test_criterion_07_damping_choi_spectra():
    worst = 0.0
    for kind, exps in (("amplitude_damping", (0.2, 1.0, 3.0)),
                       ("phase_damping", (0.1, 0.7, 2.0))):
        for x in exps:
            eigs = np.sort(np.linalg.eigvalsh(
                kraus_to_choi(build_channel(kind, x))))
            want = np.array([0.0, 0.0, (1.0 - np.exp(-x)) / 2.0,
                             (1.0 + np.exp(-x)) / 2.0])
            worst = max(worst, float(np.abs(eigs - want).max()))
    ok = worst <= 1e-10
    _report(7, ok, f"max Choi eigenvalue error {worst:.2e}")


def test_criterion_08_quadratic_form_matches_brute_force():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        chi = util.random_tp_chi(rng, zero_linear=True)
        dq = measure_quadratic(chi)
        dd = measure_by_definition(chi_to_kraus(chi), grid_density=10_000)
        worst = max(worst, abs(dq - dd))
    ok = worst <= 5e-3
    _report(8, ok, f"worst |quadratic - definition| = {worst:.2e} "
                   f"over 100 channels at grid 10000")


def test_criterion_09_all_declared_errors_restored():
    bell = util.bell_choi_reference()
    pauli = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    worst, cases = 0.0, 0
    for name in ("bit3", "phase3", "shor5", "shor9"):
        code = code_by_name(name)
        tau = simulate_choi(code, [None] * code.n)
        worst = max(worst, float(np.abs(tau - bell).max()))
        cases += 1
        for label, wire in code.corrects:
            per = [None] * code.n
            per[wire] = KrausChannel((pauli[label],))
            tau = simulate_choi(code, per)
            worst = max(worst, float(np.abs(tau - bell).max()))
            cases += 1
    ok = worst <= 1e-10
    _report(9, ok, f"{cases} cases (4 identities + 48 errors), "
                   f"worst deviation {worst:.2e}")


def test_criterion_10_dqd_pipeline():
    t0 = time.perf_counter()
    params = default_params()
    zero_ok = spectral_function(params, 0.0) == 0.0
    gamma = relaxation_rate(params)
    gamma_ok = abs(gamma - 1273433624.2483376) / 1273433624.2483376 <= 1e-12
    b2 = spectral_function(params, 1e-10)
    b2_ok = abs(b2 - 0.0087765807330008576) / 0.0087765807330008576 <= 1e-6
    oracle = util.reference_b2(params, 1e-10)
    conv_ok = abs(b2 - oracle) / oracle <= 1e-12
    mono_ok = True
    for t in (1e-12, 1e-11, 1e-10):
        d0, d = decoherence_pair(*dqd_error_probs(params, t)[:2])
        mono_ok = mono_ok and 0.0 < d < d0
    elapsed = time.perf_counter() - t0
    ok = (zero_ok and gamma_ok and b2_ok and conv_ok and mono_ok
          and elapsed < 60.0)
    _report(10, ok, f"B2(0)=0 {zero_ok}, Gamma frozen {gamma_ok}, "
                    f"B2 frozen {b2_ok}, quadrature oracle {conv_ok}, "
                    f"D<D0 {mono_ok}, {elapsed:.1f}s")


def test_criterion_11_break_even_of_bit_flip_code():
    res = sweep("bit3", "bit_flip", (0.1, 0.2, 0.3))
    poly = fit_poly(res.samples, 3)
    be = break_even(poly)
    ok = be.status == "found" and abs(be.p - 0.5) <= 1e-10
    _report(11, ok, f"status {be.status}, p = {be.p!r}")
