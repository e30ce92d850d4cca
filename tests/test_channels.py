"""Channel representations: Kraus, process matrix, and Choi state conversions."""
import numpy as np
import pytest

from decoq.channels import (PAULI_BASIS, PAULI_X, KrausChannel,
                            chi_from_parameters, chi_to_choi, chi_to_kraus,
                            choi_to_chi, kraus_to_chi, kraus_to_choi,
                            maximally_entangled, verify_cptp)
from decoq.noise import family

import util
from util import (apply_channel, apply_chi, bloch_density, devectorize,
                  random_density, random_kraus_channel, vectorize)


def test_pauli_basis_orthogonality():
    for a, ea in enumerate(PAULI_BASIS):
        for b, eb in enumerate(PAULI_BASIS):
            inner = np.trace(ea.conj().T @ eb)
            want = 2.0 if a == b else 0.0
            assert abs(inner - want) < 1e-15


def test_vectorize_is_row_major():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.abs(vectorize(a) - np.array([1, 2, 3, 4])).max() < 1e-15
    assert np.abs(devectorize(vectorize(a)) - a).max() < 1e-15
    with pytest.raises(ValueError):
        devectorize(np.arange(3))


def test_maximally_entangled_amplitudes():
    psi = maximally_entangled(2)
    want = np.zeros(4)
    want[0] = want[3] = 1.0 / np.sqrt(2.0)
    assert np.abs(psi - want).max() < 1e-15
    assert abs(np.linalg.norm(maximally_entangled(3)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        maximally_entangled(1)


def test_choi_puts_channel_on_first_factor():
    tau = kraus_to_choi(KrausChannel((PAULI_X,)))
    omega = maximally_entangled(2)
    psi = np.kron(PAULI_X, np.eye(2)) @ omega
    assert np.abs(tau - np.outer(psi, psi.conj())).max() < 1e-12


def test_kraus_chi_choi_round_trips():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ch = random_kraus_channel(rng)
        chi = kraus_to_chi(ch)
        assert np.abs(chi - chi.conj().T).max() < 1e-12
        assert abs(np.trace(chi).real - 1.0) < 1e-10
        tau = chi_to_choi(chi)
        assert np.abs(tau - kraus_to_choi(ch)).max() < 1e-10
        assert np.abs(choi_to_chi(tau) - chi).max() < 1e-10
        back = kraus_to_chi(chi_to_kraus(chi))
        assert np.abs(back - chi).max() < 1e-10


def test_apply_channel_matches_apply_chi():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ch = random_kraus_channel(rng)
        chi = kraus_to_chi(ch)
        rho = random_density(2, rng)
        assert np.abs(apply_channel(ch, rho) - apply_chi(chi, rho)).max() < 1e-10


def test_choi_state_properties():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tau = kraus_to_choi(random_kraus_channel(rng))
        assert abs(np.trace(tau).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(tau).min() > -1e-12
        # trace preservation <=> untouched factor marginal is I/2
        red = np.einsum("ijil->jl", tau.reshape(2, 2, 2, 2))
        assert np.abs(red - np.eye(2) / 2.0).max() < 1e-10


def test_verify_cptp_verdicts():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rep = verify_cptp(kraus_to_chi(random_kraus_channel(rng)))
        assert rep.trace_preserving and rep.completely_positive
    bad = verify_cptp(family("bit_flip").chi(1.001))
    assert bad.trace_preserving
    assert not bad.completely_positive
    assert bad.min_eigenvalue < -1e-4


def _chi_parameters(chi):
    """The 13-entry layout of chi_from_parameters, read off a chi matrix."""
    c = np.zeros(13)
    c[0] = chi[0, 0].real
    c[1:4] = np.diag(chi)[1:].real
    c[4:10] = [chi[0, 1].real, chi[0, 1].imag, chi[0, 2].real,
               chi[0, 2].imag, chi[0, 3].real, chi[0, 3].imag]
    c[10:13] = [chi[1, 2].real, chi[1, 3].real, chi[2, 3].real]
    return c


def test_chi_parameter_layout_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        chi = util.random_tp_chi(rng, zero_linear=False)
        c = _chi_parameters(chi)
        assert np.abs(chi_from_parameters(c) - chi).max() < 1e-12
        assert verify_cptp(chi).trace_preserving


def test_trace_preservation_fixes_imaginary_parts():
    rng = np.random.default_rng(23)
    for _ in range(10):
        chi = kraus_to_chi(random_kraus_channel(rng))
        assert abs(chi[1, 2].imag + chi[0, 3].real) < 1e-10
        assert abs(chi[1, 3].imag - chi[0, 2].real) < 1e-10
        assert abs(chi[2, 3].imag + chi[0, 1].real) < 1e-10


def test_bloch_density_and_random_density():
    assert np.abs(bloch_density(0, 0, 1) - np.diag([1.0, 0.0])).max() < 1e-15
    r = 1.0 / np.sqrt(3.0)
    rho = bloch_density(r, r, r)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    with pytest.raises(ValueError):
        bloch_density(1.0, 1.0, 0.0)
    rng = np.random.default_rng(1)
    rho = random_density(4, rng)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > 0.0


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        KrausChannel((0.5 * PAULI_BASIS[0],))
    with pytest.raises(ValueError):
        KrausChannel(())
    # channels act on one qubit: any operator that is not 2x2 is refused
    for ops in ((np.eye(2), np.eye(3)), (np.eye(4),), (np.eye(1),),
                (np.ones(2),)):
        with pytest.raises(ValueError, match="must be 2x2"):
            KrausChannel(ops)


def test_chi_to_kraus_rejects_non_psd():
    with pytest.raises(ValueError):
        chi_to_kraus(family("bit_flip").chi(1.1))


def test_superop_is_the_kraus_sum_built_once():
    ch = random_kraus_channel(np.random.default_rng(33))
    superop = ch.superop
    assert np.array_equal(superop, sum(np.kron(op, op.conj())
                                       for op in ch.operators))
    assert ch.superop is superop
    with pytest.raises(ValueError, match="read-only"):
        superop[0, 0] = 0.0
    rho = random_density(2, np.random.default_rng(34))
    assert np.abs(devectorize(superop @ vectorize(rho))
                  - apply_channel(ch, rho)).max() < 1e-15
