"""Gate application, per-wire noise, partial trace, and Choi extraction."""
import functools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from decoq import reads as read_sets
from decoq import sim
from decoq.channels import (PAULI_X, PAULI_Y, PAULI_Z, KrausChannel,
                            kraus_to_choi, maximally_entangled)
from decoq.cli import _FIT_POLICY
from decoq.codes import (CODE_NAMES, QecCode, code_by_name, phase_flip_code,
                         shor9_code, trivial_code)
from decoq.noise import CHANNEL_KINDS, build_channel, from_calibrated_p
from decoq.sim import (MAX_WIRES, Gate, apply_channel_wire, apply_gate,
                       circuit_unitary, cnot, cz, fuse_gates, hadamard,
                       partial_trace, pauli_gate, simulate_choi, toffoli)

from util import (bell_choi_reference, embed_operator, kraus_sum_on_wire,
                  random_density, random_kraus_channel, read_set_mask,
                  reference_choi, tensordot_apply_channel_wire,
                  tensordot_apply_gate, tensordot_simulate_choi,
                  transpose_partial_trace)

ROOT = Path(__file__).resolve().parents[1]


def _ket(bits):
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    psi = np.zeros(2 ** len(bits), dtype=complex)
    psi[idx] = 1.0
    return np.outer(psi, psi)


def test_single_qubit_gate_acts_on_named_wire():
    rho = _ket((0, 0))
    out = apply_gate(rho, pauli_gate("X", 1))
    assert np.abs(out - _ket((0, 1))).max() < 1e-14
    out = apply_gate(rho, pauli_gate("X", 0))
    assert np.abs(out - _ket((1, 0))).max() < 1e-14


def test_hadamard_involution():
    rng = np.random.default_rng(0)
    rho = random_density(8, rng)
    out = apply_gate(apply_gate(rho, hadamard(1)), hadamard(1))
    assert np.abs(out - rho).max() < 1e-14


def test_cnot_disentangles_a_bell_pair():
    psi = maximally_entangled(2)
    rho = np.outer(psi, psi.conj())
    out = apply_gate(rho, cnot(0, 1))
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.abs(partial_trace(out, (0,)) - plus).max() < 1e-14
    assert np.abs(partial_trace(out, (1,)) - np.diag([1.0, 0.0])).max() < 1e-14
    assert abs(np.trace(out @ out).real - 1.0) < 1e-12


def test_controlled_gates():
    out = apply_gate(_ket((1, 1, 0)), toffoli(0, 1, 2))
    assert np.abs(out - _ket((1, 1, 1))).max() < 1e-14
    out = apply_gate(_ket((1, 0, 0)), toffoli(0, 1, 2))
    assert np.abs(out - _ket((1, 0, 0))).max() < 1e-14
    u1 = circuit_unitary((cz(0, 1),), 2)
    u2 = circuit_unitary((cz(1, 0),), 2)
    assert np.abs(u1 - u2).max() < 1e-14
    assert np.abs(u1 - np.diag([1, 1, 1, -1])).max() < 1e-14


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("bad", (0,), np.array([[1, 1], [0, 1]], dtype=complex))
    # NaN and inf fail the unitarity test rather than slip past it
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not unitary"):
            Gate("U", (0,), np.full((2, 2), value))
        with pytest.raises(ValueError, match="not unitary"):
            Gate("U", (0,), np.diag([1.0, value]))
    # 0/1 entries but not a permutation: still checked for unitarity
    with pytest.raises(ValueError, match="not unitary"):
        Gate("bad", (0,), np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        Gate("bad", (0, 0), np.eye(4))
    with pytest.raises(ValueError):
        Gate("bad", (0, 1), np.eye(2))
    with pytest.raises(ValueError):
        apply_gate(_ket((0,)), pauli_gate("X", 1))


def test_block_unitary_multi_wire():
    swap = np.eye(4)[:, [0, 2, 1, 3]]
    u = circuit_unitary((Gate("SWAP", (0, 1), swap),), 2)
    u2 = circuit_unitary((cnot(0, 1), cnot(1, 0), cnot(0, 1)), 2)
    assert np.abs(u - u2).max() < 1e-12


def test_apply_channel_wire_on_each_wire():
    rho = _ket((0, 0))
    flip = build_channel("bit_flip", 0.2)
    out = apply_channel_wire(apply_channel_wire(rho, flip, 0), flip, 1)
    want = np.kron(np.diag([0.8, 0.2]), np.diag([0.8, 0.2]))
    assert np.abs(out - want).max() < 1e-14
    # channels on different wires commute
    ch = build_channel("depolarizing", 0.3)
    a = apply_channel_wire(apply_channel_wire(rho, ch, 0), ch, 1)
    b = apply_channel_wire(apply_channel_wire(rho, ch, 1), ch, 0)
    assert np.abs(a - b).max() < 1e-12
    with pytest.raises(ValueError):
        apply_channel_wire(rho, build_channel("bit_flip", 0.1), 2)


def test_partial_trace():
    rng = np.random.default_rng(7)
    a, b = random_density(2, rng), random_density(2, rng)
    rho = np.kron(a, np.kron(b, a))
    assert np.abs(partial_trace(rho, (0,)) - a).max() < 1e-12
    assert np.abs(partial_trace(rho, (1,)) - b).max() < 1e-12
    assert np.abs(partial_trace(rho, (0, 1)) - np.kron(a, b)).max() < 1e-12
    # output factor order follows the keep list
    assert np.abs(partial_trace(rho, (1, 0)) - np.kron(b, a)).max() < 1e-12

    omega = maximally_entangled(2)
    rho = np.outer(omega, omega.conj())
    assert np.abs(partial_trace(rho, (1,)) - np.eye(2) / 2.0).max() < 1e-12

    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    rho = np.outer(ghz, ghz.conj())
    for w in range(3):
        assert np.abs(partial_trace(rho, (w,)) - np.eye(2) / 2.0).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 0))


def test_dephasing_between_hadamards_is_a_bit_flip():
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = apply_gate(rho, hadamard(0))
    out = apply_channel_wire(out, build_channel("phase_flip", 0.3), 0)
    out = apply_gate(out, hadamard(0))
    assert np.abs(out - np.diag([0.7, 0.3])).max() < 1e-12
    with pytest.raises(ValueError):
        apply_channel_wire(np.eye(3, dtype=complex) / 3.0,
                           build_channel("phase_flip", 0.3), 0)


def test_apply_gate_on_a_vector_matches_the_density_matrix():
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4))
                            + 1j * rng.normal(size=(4, 4)))
        wires = tuple(int(w) for w in rng.choice(4, size=2, replace=False))
        for gate in (Gate("U", wires, q), toffoli(3, 0, 1)):
            out = apply_gate(psi, gate)
            assert out.shape == psi.shape
            want = apply_gate(np.outer(psi, psi.conj()), gate)
            assert np.abs(np.outer(out, out.conj()) - want).max() < 1e-14
            full = embed_operator(gate.matrix, gate.wires, 4)
            assert np.abs(out - full @ psi).max() < 1e-14


def test_superoperator_matches_kraus_sum_for_a_non_unital_channel():
    rng = np.random.default_rng(12)
    ch = random_kraus_channel(rng)
    # non-unital: the channel moves the maximally mixed state
    unital = sum(op @ op.conj().T for op in ch.operators)
    assert np.abs(unital - np.eye(2)).max() > 0.1
    rho = random_density(8, rng)
    for wire in range(3):
        out = apply_channel_wire(rho, ch, wire)
        ops = [embed_operator(op, (wire,), 3) for op in ch.operators]
        want = sum(f @ rho @ f.conj().T for f in ops)
        assert np.abs(out - want).max() < 1e-14
        assert np.abs(out - kraus_sum_on_wire(rho, ch.operators, wire)
                      ).max() < 1e-14


def _check_against(apply, state, want):
    """``apply(state)`` and ``apply(state, out=...)`` into a separate buffer
    and into ``state`` itself all equal ``want`` bit for bit; without
    ``out`` the input is left as it was."""
    before = state.copy()
    assert np.array_equal(apply(state), want)
    assert np.array_equal(state, before)
    buf = np.empty_like(state)
    assert apply(state, out=buf) is buf and np.array_equal(buf, want)
    assert np.array_equal(state, before)
    assert apply(state, out=state) is state and np.array_equal(state, want)


def test_contractions_equal_the_tensordot_oracle(monkeypatch):
    # with a block of 4 entries every contraction on the 4-wire register
    # runs in blocks of four columns: 16 blocks for a superoperator
    for block in (sim.BLOCK_ENTRIES, 4):
        monkeypatch.setattr(sim, "BLOCK_ENTRIES", block)
        _check_contractions(np.random.default_rng(31))


def _check_contractions(rng):
    def unitary(k):
        g = rng.normal(size=(2 ** k,) * 2) + 1j * rng.normal(size=(2 ** k,) * 2)
        return np.linalg.qr(g)[0]

    gates = (hadamard(2), Gate("U", (3,), unitary(1)), cz(3, 1),
             Gate("U", (2, 0), unitary(2)),
             Gate("U", (3, 0, 2), unitary(3)),
             Gate("U", (1, 3, 0, 2), unitary(4)),
             toffoli(2, 0, 1))
    for gate in gates:
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        for state in (psi, random_density(16, rng)):
            _check_against(lambda s, **kw: apply_gate(s, gate, **kw), state,
                           tensordot_apply_gate(state, gate))
    ch = random_kraus_channel(rng)
    assert np.abs(sum(op @ op.conj().T for op in ch.operators)
                  - np.eye(2)).max() > 0.1                    # non-unital
    rho = random_density(16, rng)
    for wire in range(4):
        _check_against(lambda s, **kw: apply_channel_wire(s, ch, wire, **kw),
                       rho.copy(),
                       tensordot_apply_channel_wire(rho, ch.operators, wire))


@pytest.mark.parametrize("block", (sim.BLOCK_ENTRIES, 4))
def test_a_wire_group_equals_one_call_per_wire(monkeypatch, block):
    # one pass over a group gives the bits of one pass per wire, with
    # blocks of 2^13 entries (one block of all 6 wires) and of 4 (the
    # smallest blocks, of four columns each)
    monkeypatch.setattr(sim, "BLOCK_ENTRIES", block)
    rng = np.random.default_rng(35)
    ch = random_kraus_channel(rng)
    rho = random_density(64, rng)
    for wires in ((0, 1, 2), (3, 4, 5), (5, 0, 3), (2, 4)):
        want, oracle = rho, rho
        for w in wires:
            want = apply_channel_wire(want, ch, w)
            oracle = tensordot_apply_channel_wire(oracle, ch.operators, w)
        assert np.array_equal(want, oracle)
        _check_against(lambda s, **kw: apply_channel_wire(s, ch, wires, **kw),
                       rho.copy(), want)


def test_a_wire_group_refuses_a_repeated_or_missing_wire():
    rho = random_density(8, np.random.default_rng(36))
    ch = build_channel("depolarizing", 0.1)
    for wires in ((0, 1, 0), (1, 1), (0, 3), (-1,)):
        with pytest.raises(ValueError):
            apply_channel_wire(rho, ch, wires)


def test_out_must_be_a_contiguous_complex_array_of_the_state_shape():
    rho = random_density(8, np.random.default_rng(34))
    ch = build_channel("depolarizing", 0.1)
    for out in (np.empty((8, 8)), np.empty((4, 16), dtype=complex),
                np.empty((8, 8), dtype=complex, order="F")):
        with pytest.raises(ValueError, match="out must be"):
            apply_channel_wire(rho, ch, 0, out=out)
        with pytest.raises(ValueError, match="out must be"):
            apply_gate(rho, hadamard(1), out=out)


def test_gather_index_is_cached_per_register_size():
    rng = np.random.default_rng(32)
    gate = toffoli(2, 0, 1)
    for m in (3, 5, 3):
        idx = gate.gather_index(m)
        assert idx is gate.gather_index(m) and len(idx) == 2 ** m
        assert not idx.flags.writeable
        full = embed_operator(gate.matrix, gate.wires, m)
        psi = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        assert np.array_equal(apply_gate(psi, gate), full @ psi)
        rho = random_density(2 ** m, rng)
        assert np.array_equal(apply_gate(rho, gate), full @ rho @ full.T)


def test_gather_index_is_not_kept_beyond_the_simulator_registers():
    gate = toffoli(2, 0, 1)
    m = MAX_WIRES + 1
    idx = gate.gather_index(m)
    assert idx is not gate.gather_index(m) and m not in gate._gathers
    assert not idx.flags.writeable
    psi = np.random.default_rng(33).normal(size=2 ** m).astype(complex)
    assert np.array_equal(apply_gate(psi, gate),
                          tensordot_apply_gate(psi, gate))
    # circuit_unitary applies shor9's fused gathers to an 18-wire vector
    shor9 = code_by_name("shor9")
    simulate_choi(shor9, build_channel("depolarizing", 0.01))
    gates = shor9.decode_gates
    before = [dict(g._gathers) for g in gates]
    assert any(before)
    circuit_unitary(gates, 9)
    for g, kept in zip(gates, before):
        assert g._gathers.keys() == kept.keys()
        assert all(g._gathers[k] is kept[k] for k in kept)


def test_circuit_unitary_applies_gates_in_order():
    circ = (hadamard(0), cnot(0, 2), toffoli(2, 0, 1))
    want = np.eye(8, dtype=complex)
    for g in circ:
        want = embed_operator(g.matrix, g.wires, 3) @ want
    assert np.abs(circuit_unitary(circ, 3) - want).max() < 1e-15


def test_permutation_gates_are_gathers_equal_to_the_contraction():
    rng = np.random.default_rng(21)
    block = Gate("P", (3, 0, 2), np.eye(8)[rng.permutation(8)])
    gates = (pauli_gate("X", 2), cnot(0, 3), cnot(3, 0), toffoli(0, 1, 2),
             toffoli(2, 3, 1), toffoli(3, 1, 0), block)
    assert pauli_gate("Z", 0).src is None and hadamard(0).src is None
    for gate in gates:
        assert gate.src is not None
        full = embed_operator(gate.matrix, gate.wires, 4)
        for _ in range(3):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            assert np.abs(apply_gate(psi, gate) - full @ psi).max() == 0.0
            rho = random_density(16, rng)
            want = full @ rho @ full.conj().T
            assert np.abs(apply_gate(rho, gate) - want).max() == 0.0


def test_a_gate_given_by_its_index_gathers_like_its_matrix_or_refuses_it():
    rng = np.random.default_rng(46)
    perm = rng.permutation(8)
    gate = Gate("P", (2, 0, 3), src=perm)
    assert gate.matrix is None and np.array_equal(gate.src, perm)
    assert not gate.src.flags.writeable
    dense = Gate("P", (2, 0, 3), np.eye(8)[perm])
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.array_equal(apply_gate(psi, gate), apply_gate(psi, dense))
    rho = random_density(16, rng)
    assert np.array_equal(apply_gate(rho, gate), apply_gate(rho, dense))
    for src in ([0, 1, 2, 3, 4, 5, 6, 6], np.arange(4), np.arange(16),
                np.arange(8.0), np.arange(8).reshape(2, 4), perm + 1):
        with pytest.raises(ValueError, match="not a permutation"):
            Gate("P", (2, 0, 3), src=src)
    with pytest.raises(ValueError, match="without a matrix"):
        Gate("P", (2, 0, 3), np.eye(8)[perm], src=perm)


def test_fuse_gates_keeps_the_circuit():
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gates = (cnot(0, 2), toffoli(2, 0, 3), pauli_gate("X", 1), hadamard(3),
             Gate("U", (1, 0), q), cz(3, 2), cnot(3, 1))
    fused = fuse_gates(gates)
    assert [g.wires for g in fused] == [(0, 1, 2, 3), (0, 1, 2, 3), (1, 3)]
    assert [g.src is not None for g in fused] == [True, False, True]
    assert [g.matrix is None for g in fused] == [True, False, True]
    want = circuit_unitary(gates, 4)
    assert np.abs(circuit_unitary(fused, 4) - want).max() < 1e-15
    assert fuse_gates(()) == ()


def test_fused_circuits_are_built_once_on_the_simulator_wires():
    for name in CODE_NAMES:
        code = code_by_name(name)
        n = code.n
        assert code.encode_gates is code.encode_gates
        assert code.decode_gates is code.decode_gates
        for fused, gates in ((code.encode_gates, code.encoder),
                             (code.decode_gates, code.decoder)):
            # the code's wires are the simulator's wires 0..n-1
            for g in fused:
                assert set(g.wires) <= set(range(n))
            want = circuit_unitary(gates, n)
            got = circuit_unitary(fused, n)
            exact = all(g.src is not None for g in fused)
            assert np.abs(got - want).max() <= (0.0 if exact else 1e-15)
    shor9 = code_by_name("shor9")
    assert [(g.src is not None, g.wires) for g in shor9.decode_gates] == [
        (True, tuple(range(9))), (False, (0, 3, 6)), (True, (0, 3, 6))]
    assert len(code_by_name("shor5").encode_gates) == 9
    assert len(code_by_name("bit3").decode_gates) == 1


def test_circuit_unitary_checks_its_wires():
    u = circuit_unitary((hadamard(0),), 1)
    assert np.abs(u - np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)).max() < 1e-12
    # the 2m-wire vector has a wire 1, but the 1-wire circuit does not
    with pytest.raises(ValueError, match="wire 1 out of range for 1 wires"):
        circuit_unitary((cnot(0, 1),), 1)


def test_simulate_choi_trivial_code_reproduces_channel_choi():
    ch = build_channel("amplitude_damping", 0.9)
    tau = simulate_choi(trivial_code(), ch)
    assert np.abs(tau - kraus_to_choi(ch)).max() < 1e-12
    tau = simulate_choi(trivial_code(), (None,))
    assert np.abs(tau - bell_choi_reference()).max() < 1e-13


def test_simulate_choi_is_linear_in_the_channel():
    code = trivial_code()
    t1 = simulate_choi(code, build_channel("bit_flip", 0.0))
    t2 = simulate_choi(code, build_channel("bit_flip", 1.0))
    tm = simulate_choi(code, build_channel("bit_flip", 0.25))
    assert np.abs(tm - (0.75 * t1 + 0.25 * t2)).max() < 1e-12


def test_simulate_choi_output_is_physical():
    tau = simulate_choi(code_by_name("bit3"),
                        build_channel("depolarizing", 0.3))
    assert abs(np.trace(tau).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(tau).min() > -1e-12
    assert np.trace(tau @ tau).real <= 1.0 + 1e-12


def test_simulate_choi_input_checks():
    with pytest.raises(ValueError):
        simulate_choi(trivial_code(), (None, None))
    big = QecCode("big", 11, (), (), ())
    with pytest.raises(ValueError):
        simulate_choi(big, (None,) * 11)
    # the register's wire n is the reference, so a code refuses gates there
    for enc, dec in (((cnot(0, 3),), ()), ((), (pauli_gate("X", 3),))):
        with pytest.raises(ValueError, match=r"on wires \(.*3,?\) outside "
                                             "its 3 wires"):
            QecCode("stray", 3, enc, dec, ())


@functools.lru_cache(maxsize=None)
def _shared_code(name):
    """One code object per name, so that its decode block and the
    reference's cached unitaries are built once for all cases."""
    return code_by_name(name)


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("name", CODE_NAMES)
def test_simulate_choi_matches_dense_reference(name, kind):
    code = _shared_code(name)
    # the 9-qubit reference costs about half a second per point
    for p in (0.05,) if name == "shor9" else (0.0, 0.05, 0.3):
        ch = from_calibrated_p(kind, p)
        want = reference_choi(code, (ch,) * code.n)
        assert np.abs(simulate_choi(code, ch) - want).max() < 1e-14


@pytest.mark.parametrize("name", CODE_NAMES)
def test_simulate_choi_per_wire_paulis_match_dense_reference(name):
    code = _shared_code(name)
    paulis = (KrausChannel((PAULI_X,)), None, KrausChannel((PAULI_Y,)),
              build_channel("depolarizing", 0.2), KrausChannel((PAULI_Z,)))
    per_wire = tuple(paulis[w % len(paulis)] for w in range(code.n))
    want = reference_choi(code, per_wire)
    assert np.abs(simulate_choi(code, per_wire) - want).max() < 1e-14


def test_shor9_fit_points_equal_the_tensordot_composition():
    # the shor9 break-even p* that `decoq fit` prints is a cubic's
    # extrapolation through these points, and moves at 1e-9 when their
    # last bits do
    code = _shared_code("shor9")
    for p in _FIT_POLICY["shor9"]["points"]:
        ch = from_calibrated_p("depolarizing", p)
        assert np.array_equal(simulate_choi(code, ch),
                              tensordot_simulate_choi(code, (ch,) * code.n))


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in CODE_NAMES for kind in CHANNEL_KINDS
    # shor9 depolarizing is the test above
    if (name, kind) != ("shor9", "depolarizing")])
def test_simulate_choi_equals_the_tensordot_composition(name, kind):
    # shor9 runs at the points its fit uses
    code = _shared_code(name)
    points = (_FIT_POLICY["shor9"]["points"] if name == "shor9"
              else (0.0, 0.05, 0.3))
    for p in points:
        ch = from_calibrated_p(kind, p)
        assert np.array_equal(simulate_choi(code, ch),
                              tensordot_simulate_choi(code, (ch,) * code.n))


def test_noise_groups_split_at_none_and_at_another_channel(monkeypatch):
    # two channels with equal operators are still two objects: a group is
    # a run of wires that share one object, at most NOISE_GROUP long
    code = _shared_code("shor9")
    a = from_calibrated_p("depolarizing", 0.1)
    b = from_calibrated_p("depolarizing", 0.1)
    per_wire = (a, a, None, b, b, b, b, a, None)
    calls = []
    apply = sim.apply_channel_wire

    def recording(rho, channel, wires, **kw):
        calls.append((channel, wires))
        return apply(rho, channel, wires, **kw)

    monkeypatch.setattr(sim, "apply_channel_wire", recording)
    got = simulate_choi(code, per_wire)
    assert [(ch is a, wires) for ch, wires in calls] == [
        (True, (0, 1)), (False, (3, 4, 5)), (False, (6,)), (True, (7,))]
    assert np.array_equal(got, tensordot_simulate_choi(code, per_wire))


def _poison_unread(monkeypatch):
    """Wrap apply_channel_wire and apply_gate so that after each stage
    every entry its read set leaves unread is NaN; returns the list of the
    read sets passed, in stage order."""
    stages = []

    def poisoning(apply):
        def wrapped(state, *args, reads=None, **kw):
            out = apply(state, *args, reads=reads, **kw)
            stages.append(reads)
            if reads is not None:
                out.reshape(-1)[~read_set_mask(reads)] = np.nan
            return out
        return wrapped

    for name in ("apply_channel_wire", "apply_gate"):
        monkeypatch.setattr(sim, name, poisoning(getattr(sim, name)))
    return stages


@pytest.mark.parametrize("kind", CHANNEL_KINDS + ("per-wire mix",))
def test_shor9_stages_never_read_what_their_read_sets_leave_out(
        monkeypatch, kind):
    # the per-wire mix is that of the noise-group test below: passes of
    # two, three, one and one wires
    code = _shared_code("shor9")
    if kind == "per-wire mix":
        a = from_calibrated_p("depolarizing", 0.1)
        b = from_calibrated_p("depolarizing", 0.1)
        per_wire = (a, a, None, b, b, b, b, a, None)
    else:
        per_wire = (from_calibrated_p(kind, 0.05),) * code.n
    code.encoded_state, code.decode_gates   # built through apply_gate
    stages = _poison_unread(monkeypatch)
    got = simulate_choi(code, per_wire)
    noisy = 4 if kind == "per-wire mix" else 3
    assert len(stages) == noisy + len(code.decode_gates)
    assert all(reads is not None for reads in stages)
    assert np.isfinite(got).all()
    assert np.array_equal(got, tensordot_simulate_choi(code, per_wire))


@pytest.mark.parametrize("block", (4, 64))
def test_random_circuits_compute_every_entry_their_read_sets_hold(
        monkeypatch, block):
    # noise passes, dense gates and permutations on five wires, with blocks
    # small enough to skip: derived backward from a random trace, each
    # stage's read set leaves the trace's bits as the whole-register run.
    # The first circuit ends in a dense gate on the three wires whose
    # columns the trace leaves free, so its pass must give up a read-set
    # factor to keep four columns
    monkeypatch.setattr(sim, "BLOCK_ENTRIES", block)
    rng = np.random.default_rng(48)
    m = 5
    ch = random_kraus_channel(rng)

    def unitary(k):
        return np.linalg.qr(rng.normal(size=(2 ** k,) * 2)
                            + 1j * rng.normal(size=(2 ** k,) * 2))[0]

    for trial in range(9):
        stages = []
        for _ in range(5):
            k = int(rng.integers(1, 4))
            wires = tuple(int(w) for w in rng.choice(m, k, replace=False))
            stages.append((wires, Gate("U", wires, unitary(k)),
                           Gate("P", wires, src=rng.permutation(2 ** k)))
                          [rng.integers(3)])
        keep = tuple(int(w) for w in rng.choice(m, 2, replace=False))
        if trial == 0:
            stages[-1], keep = Gate("U", (0, 1, 2), unitary(3)), (0, 1)
        reads = read_sets.ReadSet.of_trace(m, keep)
        stage_sets = []
        for stage in reversed(stages):
            stage_sets.append(reads)
            reads = (reads.before(stage, m) if isinstance(stage, Gate)
                     else reads.freed(stage + tuple(m + w for w in stage)))
        rho = random_density(2 ** m, rng)
        want = rho.copy()
        for stage, reads in zip(stages, reversed(stage_sets)):
            if isinstance(stage, Gate):
                apply_gate(want, stage, out=want)
                apply_gate(rho, stage, out=rho, reads=reads)
            else:
                apply_channel_wire(want, ch, stage, out=want)
                apply_channel_wire(rho, ch, stage, out=rho, reads=reads)
            rho.reshape(-1)[~read_set_mask(reads)] = np.nan
        assert np.array_equal(partial_trace(rho, keep),
                              partial_trace(want, keep))
    with pytest.raises(ValueError, match="read set has 10 axes"):
        apply_gate(np.eye(8, dtype=complex), hadamard(0), reads=reads)


def _computed_share(passes, ndim) -> float:
    """The largest share of a tensor's entries that one pass of a
    contraction computes: each computed column holds one entry per row."""
    return max(1.0 if columns is None
               else columns[0].size * columns[1].size / 2 ** ndim
               for *_, columns in passes)


def test_the_read_plan_skips_shor9_blocks_and_is_built_once():
    code = _shared_code("shor9")
    ch = from_calibrated_p("depolarizing", 1e-3)
    simulate_choi(code, ch)
    m, block = code.n + 1, sim.BLOCK_ENTRIES
    groups = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    # the fused gather of the three bit-flip decoders is pulled back through
    # each triple's own index, so no factor spans more than three wires
    assert [positions for positions, _ in
            read_sets._parts(code.decode_gates[0].src)] == list(groups)
    noise, decode = read_sets.stage_reads(code.decode_gates, m, groups)

    def passes(reads, axes_seq):
        return reads.passes(axes_seq, sim._plan(2 * m, axes_seq, block), block)

    shares = [_computed_share(passes(reads, tuple((w, m + w) for w in wires)),
                              2 * m) for reads, wires in zip(noise, groups)]
    assert shares == [1.0, 1 / 4, 1 / 16]
    (dense_reads, dense), = [(r, g) for r, g in zip(decode, code.decode_gates)
                             if g.src is None]
    dense_axes = (dense.wires, tuple(m + w for w in dense.wires))
    assert _computed_share(passes(dense_reads, dense_axes), 2 * m) == 1 / 64
    # the decoder's gathers copy what the trace and the dense pass read
    gathered = [len(r.gather(g, m)[0])
                for r, g in zip(decode, code.decode_gates) if g.src is not None]
    assert gathered == [4 ** m // 64, 4 ** m // 256]
    # a second run builds nothing: the same plan and the same kernel plans
    kept = [dict(r._plans) for r in noise + decode]
    misses = read_sets.stage_reads.cache_info().misses
    simulate_choi(code, ch)
    assert read_sets.stage_reads.cache_info().misses == misses
    for reads, before in zip(noise + decode, kept):
        assert reads._plans.keys() == before.keys()
        assert all(reads._plans[k] is before[k] for k in before)


@pytest.mark.parametrize("name", ("bit3", "phase3", "shor5"))
def test_small_codes_compute_the_whole_register(monkeypatch, name):
    # a register of one block has no block to skip
    code = _shared_code(name)
    code.encoded_state, code.decode_gates   # built through apply_gate
    stages = _poison_unread(monkeypatch)
    simulate_choi(code, from_calibrated_p("depolarizing", 0.1))
    assert stages and all(reads is None for reads in stages)


def test_a_second_simulation_runs_only_the_decoder(monkeypatch):
    # the encoded pair state is built once per code object, through
    # apply_gate, and then read; every later run applies the decoder alone
    code = phase_flip_code()
    code.encode_gates, code.decode_gates     # fused through apply_gate too
    calls = []
    apply = sim.apply_gate

    def counting(state, gate, **kw):
        calls.append(state.ndim)
        return apply(state, gate, **kw)

    monkeypatch.setattr(sim, "apply_gate", counting)
    ch = from_calibrated_p("depolarizing", 0.1)
    first = simulate_choi(code, ch)
    assert calls == ([1] * len(code.encode_gates)
                     + [2] * len(code.decode_gates))
    del calls[:]
    assert np.array_equal(simulate_choi(code, ch), first)
    assert calls == [2] * len(code.decode_gates)
    psi = code.encoded_state
    assert psi is code.encoded_state and not psi.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        psi[0] = 0.0
    assert psi.nbytes == 16 * 2 ** (code.n + 1)


def test_shor9_simulation_holds_one_register_array():
    # noise, decode and the partial trace work on the one register; beside
    # it the calling thread holds the buffers of one block or one read-set
    # gather
    code = _shared_code("shor9")
    ch = from_calibrated_p("depolarizing", 1e-3)
    simulate_choi(code, ch)             # builds the gathers' cached indices
    register = np.dtype(complex).itemsize * 4 ** (code.n + 1)
    tracemalloc.start()
    try:
        simulate_choi(code, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= register + 2 ** 20


def test_a_fresh_shor9_build_and_first_simulation_hold_one_register():
    # a fused permutation run is held as its index alone: building the
    # code's fused circuits makes no 512 x 512 matrix, so the first run
    # peaks at one register, and the code then holds almost nothing
    ch = from_calibrated_p("depolarizing", 1e-3)
    register = np.dtype(complex).itemsize * 4 ** 10
    tracemalloc.start()
    try:
        code = shor9_code()
        simulate_choi(code, ch)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= register + 2 ** 20
    assert held <= 2 ** 20


def _random_matrix(m, rng):
    dim = 2 ** m
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("cap", ("1", None))
def test_density_gather_in_place_equals_the_whole_register_gather(
        monkeypatch, cap):
    # DECOM_THREADS is no longer read: a value left in the environment
    # must change nothing
    if cap is None:
        monkeypatch.delenv("DECOM_THREADS", raising=False)
    else:
        monkeypatch.setenv("DECOM_THREADS", cap)
    rng = np.random.default_rng(41)
    shor9 = code_by_name("shor9")
    for m in (8, 9, 10):
        gates = [Gate("P", tuple(int(w) for w in rng.choice(m, k, False)),
                      np.eye(2 ** k)[rng.permutation(2 ** k)])
                 for k in (1, 3, 5)]
        if m == 8:      # one permutation of the whole register: long cycles
            gates.append(Gate("P", tuple(range(m)),
                              np.eye(2 ** m)[rng.permutation(2 ** m)]))
        if m == 9:      # every cycle 32 rows long
            gates.append(Gate("P", tuple(range(5)),
                              src=np.roll(np.arange(32), 1)))
        if m == 10:
            gates += [g for g in shor9.decode_gates if g.src is not None]
        for gate in gates:
            idx = gate.gather_index(m)
            rho = _random_matrix(m, rng)
            want = rho.take(idx, axis=0).take(idx, axis=1)
            assert np.array_equal(apply_gate(rho, gate), want)
            apply_gate(rho, gate, out=rho)
            assert np.array_equal(rho, want)


def test_concurrent_split_operations_keep_their_bits():
    # four callers at once on operations of 8 blocks each, a short switch
    # interval, and caches of fresh gates built in the race: no call may
    # touch another call's entries or buffers
    rng = np.random.default_rng(44)
    m = 8
    ch = random_kraus_channel(rng)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    gates = (Gate("P", (6, 1, 3, 0), np.eye(16)[rng.permutation(16)]),
             Gate("U", (2, 7, 4), q))
    states = [_random_matrix(m, rng) for _ in range(4)]
    wants = []
    for rho in states:
        want = rho
        for w in range(m):
            want = tensordot_apply_channel_wire(want, ch.operators, w)
        for gate in gates:
            want = tensordot_apply_gate(want, gate)
        wants.append(want)

    def run(rho):
        for w in range(m):
            apply_channel_wire(rho, ch, w, out=rho)
        for gate in gates:
            apply_gate(rho, gate, out=rho)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(rho,)) for rho in states]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for rho, want in zip(states, wants):
        assert np.array_equal(rho, want)


def _keeps(m):
    keeps = {(0, m - 1), (0,), (m - 1,)}
    if m > 1:
        keeps.add((1, 0))
    return sorted(keeps)


def test_partial_trace_equals_the_transposed_copy():
    rng = np.random.default_rng(42)
    for m in range(2, 11):
        rho = _random_matrix(m, rng)
        for keep in _keeps(m):
            assert np.array_equal(partial_trace(rho, keep),
                                  transpose_partial_trace(rho, keep))


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_partial_trace_of_shor9_states_equals_the_transposed_copy(
        monkeypatch, kind):
    states = []
    trace = sim.partial_trace

    def recording(rho, keep):
        states.append(rho.copy())
        return trace(rho, keep)

    monkeypatch.setattr(sim, "partial_trace", recording)
    simulate_choi(_shared_code("shor9"), from_calibrated_p(kind, 0.05))
    (rho,) = states
    for keep in _keeps(10) + [(0, 9, 4), (3, 7)]:
        assert np.array_equal(trace(rho, keep),
                              transpose_partial_trace(rho, keep))


_THREAD_COUNTS = """
import threading
import decoq.cli
from decoq.codes import code_by_name
from decoq.noise import from_calibrated_p
from decoq.sim import simulate_choi
print(threading.active_count())
simulate_choi(code_by_name("shor9"), from_calibrated_p("depolarizing", 1e-3))
print(threading.active_count())
"""


def test_importing_the_cli_starts_no_thread():
    # nor does a shor9 simulation, whose 10-wire contractions run up to 128
    # blocks each (its first noise pass; the later passes and the dense
    # decode skip the blocks no later stage reads): every one runs in the
    # calling thread
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", _THREAD_COUNTS],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n1\n"
