"""Error-correction circuits restore every declared correctable error."""
import numpy as np
import pytest

from decoq.channels import (PAULI_X, PAULI_Y, PAULI_Z, KrausChannel,
                            choi_to_chi)
from decoq import sim
from decoq.codes import (CODE_NAMES, QecCode, UnknownCodeError, bit_flip_code,
                         build_recovery, code_by_name, phase_flip_code,
                         shor5_code, shor9_code)
from decoq.decoherence import measure_auto
from decoq.noise import build_channel
from decoq.sim import cnot, fuse_gates, hadamard, simulate_choi, toffoli

from util import bell_choi_reference

_BELL = bell_choi_reference()
_PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _inject(code, label, wire):
    per = [None] * code.n
    per[wire] = KrausChannel((_PAULI[label],))
    return simulate_choi(code, per)


def test_identity_passes_through_every_code():
    for name in CODE_NAMES:
        code = code_by_name(name)
        tau = simulate_choi(code, [None] * code.n)
        assert np.abs(tau - _BELL).max() < 1e-10


def test_three_qubit_codes_correct_their_errors():
    for name in ("bit3", "phase3"):
        code = code_by_name(name)
        assert len(code.corrects) == 3
        for label, wire in code.corrects:
            assert np.abs(_inject(code, label, wire) - _BELL).max() < 1e-10


def test_five_qubit_code_corrects_every_single_pauli():
    code = shor5_code()
    assert len(code.corrects) == 15
    for label, wire in code.corrects:
        assert np.abs(_inject(code, label, wire) - _BELL).max() < 1e-10


def test_nine_qubit_code_spot_checks():
    code = shor9_code()
    assert len(code.corrects) == 27
    for label, wire in (("X", 4), ("Z", 0), ("Y", 8)):
        assert np.abs(_inject(code, label, wire) - _BELL).max() < 1e-10


def test_bit3_known_logical_error_rate():
    tau = simulate_choi(bit_flip_code(), build_channel("bit_flip", 0.2))
    d = measure_auto(choi_to_chi(tau))
    assert abs(d - 0.104) < 1e-12           # 3 p^2 - 2 p^3 at p = 0.2


def test_synthesized_recovery_matches_explicit_decoder():
    base = bit_flip_code()
    rec = build_recovery(3, base.encoder, base.corrects)
    alt = QecCode("bit3r", 3, base.encoder, (rec,), base.corrects)
    for p in (0.0, 0.13, 0.3):
        t1 = simulate_choi(base, build_channel("bit_flip", p))
        t2 = simulate_choi(alt, build_channel("bit_flip", p))
        assert np.abs(t1 - t2).max() < 1e-12


def test_build_recovery_rejects_uncorrectable_sets():
    enc = bit_flip_code().encoder
    # Z errors act trivially on the repetition codewords
    with pytest.raises(ValueError):
        build_recovery(3, enc, (("Z", 0), ("Z", 1), ("Z", 2)))
    # the corrupted codewords must fill the code space: four errors are
    # more than the ancillas can label, two leave a subspace unreached
    for corrects in ((("X", 0), ("X", 1), ("X", 2), ("Y", 0)),
                     (("X", 0), ("X", 1))):
        with pytest.raises(ValueError, match="not the 8 that fill 3 wires"):
            build_recovery(3, enc, corrects)


def test_build_recovery_refuses_nan_codewords(monkeypatch):
    # a NaN column fails the orthonormality test instead of passing it by
    enc = bit_flip_code().encoder
    corrects = bit_flip_code().corrects
    monkeypatch.setattr(sim, "apply_gate",
                        lambda psi, gate: np.full_like(psi, np.nan))
    with pytest.raises(ValueError, match="not orthonormal"):
        build_recovery(3, enc, corrects)


def test_bit3_does_not_correct_y_errors():
    tau = _inject(bit_flip_code(), "Y", 1)
    assert np.abs(tau - _BELL).max() > 0.1


def test_recovery_block_shape_and_unitarity():
    code = shor5_code()
    (rec,) = code.decoder
    assert rec.wires == tuple(range(5))
    assert rec.matrix.shape == (32, 32)
    assert np.abs(rec.matrix @ rec.matrix.conj().T - np.eye(32)).max() < 1e-10


def test_code_by_name():
    assert set(CODE_NAMES) == {"bit3", "phase3", "shor5", "shor9", "none"}
    with pytest.raises(UnknownCodeError):
        code_by_name("steane")


def test_code_by_name_returns_one_object_per_name():
    for name in CODE_NAMES:
        assert code_by_name(name) is code_by_name(name)
    for _ in range(2):
        with pytest.raises(UnknownCodeError, match="unknown code 'steane'; "
                           "choose from bit3, phase3, shor5, shor9, none"):
            code_by_name("steane")


# phase3 and shor9 written out gate by gate: the oracle for the circuits
# that phase_flip_code and shor9_code derive from bit3's
_LITERAL = {
    "phase3": (
        (cnot(0, 1), cnot(0, 2), hadamard(0), hadamard(1), hadamard(2)),
        (hadamard(0), hadamard(1), hadamard(2),
         cnot(0, 1), cnot(0, 2), toffoli(1, 2, 0)),
    ),
    "shor9": (
        (cnot(0, 3), cnot(0, 6),
         hadamard(0), hadamard(3), hadamard(6),
         cnot(0, 1), cnot(0, 2),
         cnot(3, 4), cnot(3, 5),
         cnot(6, 7), cnot(6, 8)),
        (cnot(0, 1), cnot(0, 2), toffoli(1, 2, 0),
         cnot(3, 4), cnot(3, 5), toffoli(4, 5, 3),
         cnot(6, 7), cnot(6, 8), toffoli(7, 8, 6),
         hadamard(0), hadamard(3), hadamard(6),
         cnot(0, 3), cnot(0, 6), toffoli(3, 6, 0)),
    ),
}


def _same_gates(got, want):
    """Name, wires and matrix equal gate for gate; a fused permutation has
    no matrix, so its index is compared instead."""
    assert [(g.name, g.wires) for g in got] == [(w.name, w.wires)
                                                for w in want]
    for g, w in zip(got, want):
        if w.matrix is None:
            assert g.matrix is None and np.array_equal(g.src, w.src)
        else:
            assert g.matrix.tobytes() == w.matrix.tobytes()


@pytest.mark.parametrize("build", [phase_flip_code, shor9_code],
                         ids=["phase3", "shor9"])
def test_derived_codes_equal_their_literal_circuits(build):
    code = build()
    enc, dec = _LITERAL[code.name]
    _same_gates(code.encoder, enc)
    _same_gates(code.decoder, dec)
    _same_gates(code.encode_gates, fuse_gates(enc))
    _same_gates(code.decode_gates, fuse_gates(dec))

