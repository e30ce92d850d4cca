"""Gate application, per-wire noise, partial trace, and Choi extraction."""
import functools
import tracemalloc

import numpy as np
import pytest

from decoq import sim
from decoq.channels import (PAULI_X, PAULI_Y, PAULI_Z, KrausChannel,
                            kraus_to_choi, maximally_entangled)
from decoq.cli import _FIT_POLICY
from decoq.codes import CODE_NAMES, QecCode, code_by_name, trivial_code
from decoq.noise import CHANNEL_KINDS, build_channel, from_calibrated_p
from decoq.sim import (MAX_WIRES, Circuit, Gate, apply_channel_wire,
                       apply_gate, circuit_unitary, cnot, cz, fuse_gates,
                       hadamard, partial_trace, pauli_gate, shift_gates,
                       simulate_choi, toffoli)

from util import (bell_choi_reference, embed_operator, kraus_sum_on_wire,
                  random_density, random_kraus_channel, reference_choi,
                  tensordot_apply_channel_wire, tensordot_apply_gate,
                  tensordot_simulate_choi)


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
    u1 = circuit_unitary(Circuit(2, (cz(0, 1),)))
    u2 = circuit_unitary(Circuit(2, (cz(1, 0),)))
    assert np.abs(u1 - u2).max() < 1e-14
    assert np.abs(u1 - np.diag([1, 1, 1, -1])).max() < 1e-14


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("bad", (0,), np.array([[1, 1], [0, 1]], dtype=complex))
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
    u = circuit_unitary(Circuit(2, (Gate("SWAP", (0, 1), swap),)))
    u2 = circuit_unitary(Circuit(2, (cnot(0, 1), cnot(1, 0), cnot(0, 1))))
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
    # circuit_unitary applies shor9's fused gathers to a 20-wire vector
    shor9 = code_by_name("shor9")
    simulate_choi(shor9, build_channel("depolarizing", 0.01))
    gates = shor9.decode_gates
    before = [dict(g._gathers) for g in gates]
    assert any(before)
    circuit_unitary(Circuit(10, gates))
    for g, kept in zip(gates, before):
        assert g._gathers.keys() == kept.keys()
        assert all(g._gathers[k] is kept[k] for k in kept)


def test_circuit_unitary_applies_gates_in_order():
    circ = Circuit(3, (hadamard(0), cnot(0, 2), toffoli(2, 0, 1)))
    want = np.eye(8, dtype=complex)
    for g in circ.gates:
        want = embed_operator(g.matrix, g.wires, 3) @ want
    assert np.abs(circuit_unitary(circ) - want).max() < 1e-15


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


def test_fuse_gates_keeps_the_circuit():
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gates = (cnot(0, 2), toffoli(2, 0, 3), pauli_gate("X", 1), hadamard(3),
             Gate("U", (1, 0), q), cz(3, 2), cnot(3, 1))
    fused = fuse_gates(gates)
    assert [g.wires for g in fused] == [(0, 1, 2, 3), (0, 1, 2, 3), (1, 3)]
    assert [g.src is not None for g in fused] == [True, False, True]
    want = circuit_unitary(Circuit(4, gates))
    assert np.abs(circuit_unitary(Circuit(4, fused)) - want).max() < 1e-15
    assert fuse_gates(()) == ()


def test_fused_circuits_are_built_once_on_the_simulator_wires():
    for name in CODE_NAMES:
        code = code_by_name(name)
        m = code.n + 1
        assert code.encode_gates is code.encode_gates
        assert code.decode_gates is code.decode_gates
        for fused, gates in ((code.encode_gates, code.encoder.gates),
                             (code.decode_gates,
                              code.decoder.gates + code.recovery)):
            for g in fused:
                assert set(g.wires) <= set(range(1, m))
            want = circuit_unitary(Circuit(m, shift_gates(gates, 1)))
            got = circuit_unitary(Circuit(m, fused))
            exact = all(g.src is not None for g in fused)
            assert np.abs(got - want).max() <= (0.0 if exact else 1e-15)
    shor9 = code_by_name("shor9")
    assert [(g.src is not None, g.wires) for g in shor9.decode_gates] == [
        (True, tuple(range(1, 10))), (False, (1, 4, 7)), (True, (1, 4, 7))]
    assert len(code_by_name("shor5").encode_gates) == 9
    assert len(code_by_name("bit3").decode_gates) == 1


def test_circuit_unitary_and_shift():
    u = circuit_unitary(Circuit(1, (hadamard(0),)))
    assert np.abs(u - np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)).max() < 1e-12
    g = shift_gates((cnot(0, 1),), 1)[0]
    assert g.wires == (1, 2)
    assert np.abs(g.matrix - cnot(0, 1).matrix).max() == 0.0


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
    big = QecCode("big", 11, Circuit(11, ()), Circuit(11, ()), (), ())
    with pytest.raises(ValueError):
        simulate_choi(big, (None,) * 11)


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


def test_shor9_simulation_holds_two_register_arrays():
    # noise and decode write into the one register; the second array is a
    # permutation gather's first half or the partial trace's copy
    code = _shared_code("shor9")
    ch = from_calibrated_p("depolarizing", 1e-3)
    simulate_choi(code, ch)             # builds the cached gather indices
    register = np.dtype(complex).itemsize * 4 ** (code.n + 1)
    tracemalloc.start()
    try:
        simulate_choi(code, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * register + 2 ** 20
