"""The four routes to the decoherence measure, checked against exact oracles."""
import numpy as np
import pytest

import decoq.decoherence as decoherence
from decoq.channels import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, KrausChannel,
                            chi_to_kraus, kraus_to_chi)
from decoq.decoherence import (bloch_map, fibonacci_sphere, is_diagonal,
                               measure_auto, measure_by_definition,
                               measure_diagonal, measure_general,
                               measure_quadratic)
from decoq.noise import build_channel, family

import util


def test_fibonacci_sphere_points():
    pts = fibonacci_sphere(500)
    assert pts.shape == (500, 3)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    assert np.abs(pts - fibonacci_sphere(500)).max() == 0.0
    with pytest.raises(ValueError):
        fibonacci_sphere(0)


def test_measure_diagonal_known_values():
    assert abs(measure_diagonal(np.diag([0.8, 0.2, 0.0, 0.0])) - 0.2) < 1e-15
    assert abs(measure_diagonal(family("depolarizing").chi(0.1)) - 0.1) < 1e-15
    # the largest pairwise sum of the three Pauli weights wins
    assert abs(measure_diagonal(np.diag([0.7, 0.2, 0.06, 0.04])) - 0.26) < 1e-15
    with pytest.raises(ValueError):
        measure_diagonal(family("amplitude_damping").chi(0.5))


def test_bloch_map_matches_transfer_matrix():
    rng = np.random.default_rng(2)
    for zero_linear in (True, False):
        for _ in range(20):
            chi = util.random_tp_chi(rng, zero_linear=zero_linear)
            a, u = bloch_map(chi)
            a_ref, u_ref = util.bloch_transfer(chi)
            assert np.abs(a - a_ref).max() < 1e-14
            assert np.abs(u - u_ref).max() < 1e-14
            assert (np.abs(u).max() < 1e-14) == zero_linear
    with pytest.raises(ValueError):
        bloch_map(np.eye(2))


def test_is_diagonal_tolerance_scales_with_error_weight():
    chi = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    assert is_diagonal(chi)
    chi[1, 2] = chi[2, 1] = 1e-11
    assert is_diagonal(chi)
    chi[1, 2] = 1e-10j
    assert not is_diagonal(chi)
    identity = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert is_diagonal(identity)
    identity[0, 3] = 1e-16                       # rounding
    assert is_diagonal(identity)
    # weak damping: off-diagonal entries as small as the error weight
    for gamma_t in (1e-13, 1e-10, 1e-6, 0.5):
        assert not is_diagonal(family("amplitude_damping").chi(gamma_t))


def test_measure_auto_weak_damping():
    # an absolute tolerance would send these to the diagonal rule or drop
    # the Bloch shift u, and report about half of D.  This chi has
    # chi_11 = chi_22 = Re chi_03 = q / 4 and D = q = 1 - e^{-gamma t}, up
    # to the rounding of q itself
    for gamma_t in (1e-13, 1e-11, 1e-9, 1e-6):
        chi = family("amplitude_damping").chi(gamma_t)
        want = 4.0 * chi[1, 1].real
        assert abs(measure_auto(chi) - want) < 1e-12 * want
        assert abs(measure_general(chi) - want) < 1e-12 * want


def test_measure_quadratic_matches_ball_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        chi = util.random_tp_chi(rng, zero_linear=True)
        assert abs(measure_quadratic(chi) - util.measure_oracle(chi)) < 1e-12


def test_quadratic_form_rejects_linear_terms():
    with pytest.raises(ValueError):
        measure_quadratic(family("amplitude_damping").chi(0.7))


def test_measure_general_matches_oracle_with_linear_terms():
    rng = np.random.default_rng(6)
    for _ in range(200):
        chi = util.random_tp_chi(rng, zero_linear=False)
        assert abs(measure_general(chi) - util.measure_oracle(chi)) < 1e-12


def _pauli_then_damping(px, py, pz, gamma_t, rotation=None):
    """chi of a Pauli channel followed by amplitude damping toward |0>,
    optionally conjugated by a 2x2 unitary (a rotation of the Bloch frame)."""
    pauli = (np.sqrt(1.0 - px - py - pz) * PAULI_I, np.sqrt(px) * PAULI_X,
             np.sqrt(py) * PAULI_Y, np.sqrt(pz) * PAULI_Z)
    damping = build_channel("amplitude_damping", gamma_t)
    ops = [k @ p for k in damping.operators for p in pauli]
    if rotation is not None:
        ops = [rotation @ op @ rotation.conj().T for op in ops]
    return kraus_to_chi(KrausChannel(tuple(ops)))


@pytest.mark.parametrize("weights", [(0.0, 0.0, 0.4), (0.05, 0.0, 0.35),
                                     (0.1, 0.05, 0.3)])
def test_measure_general_hard_case(weights):
    # u = (0, 0, 1 - e^{-gamma t}) lies along z, while Pauli noise without
    # much z-weight leaves the largest contraction of A - I in the x-y plane:
    # g = (A - I)^T u has no component along the top eigenvector of
    # (A - I)^T (A - I), and for weak damping the secular root is at s = 0.
    rng = np.random.default_rng(12)
    for gamma_t in (0.02, 0.1, 0.3):
        chi = _pauli_then_damping(*weights, gamma_t)
        a, u = bloch_map(chi)
        k = a - np.eye(3)
        mu, v = np.linalg.eigh(k.T @ k)
        gt = v.T @ (k.T @ u)
        assert gt[-1] == 0.0 and np.linalg.norm(u) > 0.01
        live = gt != 0.0
        rest = gt[live] / (mu[-1] - mu[live])
        assert rest @ rest < 1.0            # the hard case proper
        assert abs(measure_general(chi) - util.measure_oracle(chi)) < 1e-12
        # the same channel in a random frame: gt[-1] is rounding, not zero
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rotation, _ = np.linalg.qr(h)
        chi = _pauli_then_damping(*weights, gamma_t, rotation)
        assert abs(measure_general(chi) - util.measure_oracle(chi)) < 1e-12
        assert abs(measure_auto(chi) - util.measure_oracle(chi)) < 1e-12


def test_measure_general_unital_channels():
    rng = np.random.default_rng(14)
    for _ in range(50):
        chi = util.random_tp_chi(rng, zero_linear=True)
        assert abs(measure_general(chi) - util.measure_oracle(chi)) < 1e-12
    for kind in ("bit_flip", "depolarizing", "phase_damping"):
        chi = family(kind).chi(0.3)
        assert abs(measure_general(chi) - measure_diagonal(chi)) < 1e-15


def test_measure_general_amplitude_damping_closed_form():
    for gt in (1e-6, 0.05, 0.3, 1.0, 2.5, 40.0):
        chi = family("amplitude_damping").chi(gt)
        assert abs(measure_general(chi) - (-np.expm1(-gt))) < 1e-14


def test_measure_by_definition_tracks_dispatch():
    rng = np.random.default_rng(8)
    for _ in range(5):
        chi = util.random_tp_chi(rng, zero_linear=False)
        d_grid = measure_by_definition(chi_to_kraus(chi), grid_density=40_000)
        assert abs(d_grid - measure_auto(chi)) < 5e-3
    with pytest.raises(ValueError):
        measure_by_definition(build_channel("bit_flip", 0.1), grid_density=4)


def test_measure_auto_dispatch_routes(monkeypatch):
    # each route is looked up as a module global at call time
    calls = []
    for name in ("measure_diagonal", "measure_quadratic", "measure_general"):
        fn = getattr(decoherence, name)
        monkeypatch.setattr(decoherence, name,
                            lambda chi, fn=fn, name=name:
                            calls.append(name) or fn(chi))
    # diagonal chi -> diagonal shortcut
    assert abs(measure_auto(family("bit_flip").chi(0.3)) - 0.3) < 1e-14
    # unital but non-diagonal -> sigma_max(A - I) / 2
    rng = np.random.default_rng(10)
    chi = util.random_tp_chi(rng, zero_linear=True)
    assert abs(measure_auto(chi) - measure_quadratic(chi)) < 1e-12
    # Bloch shift u != 0 -> secular equation
    chi = family("amplitude_damping").chi(1.0)
    assert abs(measure_auto(chi) - (1.0 - np.exp(-1.0))) < 1e-14
    assert calls == ["measure_diagonal", "measure_quadratic",
                     "measure_general"]
