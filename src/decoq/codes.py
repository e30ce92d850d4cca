"""Measurement-free error-correction circuits: encoder, decoder, recovery.

All circuits are code-local: wire 0 is the data qubit, wires 1..n-1 are
ancillas prepared in |0>.  The simulator shifts them up by one to make room
for its reference wire.  ``QecCode.encode_gates`` (the encoder) and
``QecCode.decode_gates`` (the decoder followed by the recovery) are those
shifted circuits compiled once per code by ``sim.fuse_gates``: runs of
X/CNOT/Toffoli gates become one index gather, other runs one dense block.

Four codes are provided:

* bit3   -- 3-qubit repetition code, corrects single X errors,
* phase3 -- the same conjugated by Hadamards, corrects single Z errors,
* shor5  -- 5-qubit code correcting any single-qubit Pauli error; its
  combined decode+recovery is one synthesized block unitary (see
  build_recovery),
* shor9  -- 9-qubit code (bit-flip triples inside a phase-flip triple),
  corrects any single-qubit Pauli error with an explicit Toffoli network.

``corrects`` lists the declared correctable errors as (pauli, wire) pairs;
a recovery built by enumeration maps the error-k image of logical |b> to
|b> on the data wire and the syndrome index k on the ancillas.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .sim import (Circuit, Gate, apply_gate, block_unitary, cnot, cz,
                  fuse_gates, hadamard, pauli_gate, shift_gates, toffoli)

RECOVERY_ORTHO_ATOL = 1e-10


@dataclass(frozen=True)
class QecCode:
    """An encode / decode / recover triple on n code wires."""
    name: str
    n: int
    encoder: Circuit
    decoder: Circuit
    recovery: tuple
    corrects: tuple

    def __post_init__(self):
        object.__setattr__(self, "recovery", tuple(self.recovery))
        object.__setattr__(self, "corrects",
                           tuple((str(lbl), int(w)) for lbl, w in self.corrects))
        if self.encoder.wire_count != self.n or self.decoder.wire_count != self.n:
            raise ValueError("encoder/decoder wire count must equal n")

    @cached_property
    def encode_gates(self) -> tuple:
        """The encoder, fused, on the simulator's wires 1..n."""
        return fuse_gates(shift_gates(self.encoder.gates, 1))

    @cached_property
    def decode_gates(self) -> tuple:
        """Decoder then recovery, fused, on the simulator's wires 1..n."""
        return fuse_gates(shift_gates(self.decoder.gates + self.recovery, 1))


def build_recovery(encoder: Circuit, corrects) -> Gate:
    """Synthesize the recovery block unitary by error enumeration.

    For each error E in {identity} + corrects and each logical bit b, the
    corrupted codeword E . Enc|b> is computed; these vectors must be
    orthonormal (if not, the encoder transcription is wrong and a ValueError
    is raised).  The returned block maps the k-th corrupted codeword of |b>
    to the computational state with data bit b and ancilla pattern k, and is
    completed to a full unitary on whatever subspace the errors never reach.
    """
    n = encoder.wire_count
    errors = [None] + list(corrects)
    if len(errors) > 2 ** (n - 1):
        raise ValueError("more errors than ancilla patterns can label")
    dim = 2 ** n
    columns = []
    targets = []
    for b in (0, 1):
        psi0 = np.zeros(dim, dtype=complex)
        psi0[b << (n - 1)] = 1.0          # data wire is the top bit
        for gate in encoder.gates:
            psi0 = apply_gate(psi0, gate)
        for k, err in enumerate(errors):
            psi = psi0 if err is None else apply_gate(psi0, pauli_gate(*err))
            columns.append(psi)
            targets.append((b << (n - 1)) + k)
    v = np.stack(columns, axis=1)
    gram = v.conj().T @ v
    if np.abs(gram - np.eye(v.shape[1])).max() > RECOVERY_ORTHO_ATOL:
        raise ValueError("corrupted codewords are not orthonormal; "
                         "the declared errors are not all correctable")
    t = np.zeros((dim, v.shape[1]), dtype=complex)
    for j, idx in enumerate(targets):
        t[idx, j] = 1.0
    r = t @ v.conj().T
    if v.shape[1] < dim:
        # complete on the unreached subspace: orthonormal bases for the
        # orthocomplements of range(V) and of the target set
        q, _ = np.linalg.qr(np.concatenate([v, np.eye(dim)], axis=1))
        src_rest = q[:, v.shape[1]:dim]
        free = sorted(set(range(dim)) - set(targets))
        dst_rest = np.zeros((dim, len(free)), dtype=complex)
        for j, idx in enumerate(free):
            dst_rest[idx, j] = 1.0
        r = r + dst_rest @ src_rest.conj().T
    return block_unitary("R", tuple(range(n)), r)


def bit_flip_code() -> QecCode:
    """3-qubit repetition code against single X errors."""
    enc = Circuit(3, (cnot(0, 1), cnot(0, 2)))
    dec = Circuit(3, (cnot(0, 1), cnot(0, 2), toffoli(1, 2, 0)))
    corrects = (("X", 0), ("X", 1), ("X", 2))
    return QecCode("bit3", 3, enc, dec, (), corrects)


def phase_flip_code() -> QecCode:
    """3-qubit code against single Z errors: repetition conjugated by H."""
    enc = Circuit(3, (cnot(0, 1), cnot(0, 2),
                      hadamard(0), hadamard(1), hadamard(2)))
    dec = Circuit(3, (hadamard(0), hadamard(1), hadamard(2),
                      cnot(0, 1), cnot(0, 2), toffoli(1, 2, 0)))
    corrects = (("Z", 0), ("Z", 1), ("Z", 2))
    return QecCode("phase3", 3, enc, dec, (), corrects)


def _shor5_encoder() -> Circuit:
    gates = (
        pauli_gate("Z", 0), hadamard(1),
        cnot(1, 0), cz(1, 2), cz(1, 4),
        hadamard(4),
        cnot(4, 0), cz(4, 1), cz(4, 3),
        hadamard(3),
        cz(3, 0), cz(3, 2), cnot(3, 4),
        hadamard(2),
        cz(2, 1), cnot(2, 3), cz(2, 4),
    )
    return Circuit(5, gates)


def shor5_code() -> QecCode:
    """5-qubit code; decode and recovery are one synthesized 32x32 block."""
    enc = _shor5_encoder()
    corrects = tuple((lbl, w) for w in range(5) for lbl in ("X", "Y", "Z"))
    recovery = build_recovery(enc, corrects)
    return QecCode("shor5", 5, enc, Circuit(5, ()), (recovery,), corrects)


def shor9_code() -> QecCode:
    """9-qubit code: three bit-flip triples inside a phase-flip layer."""
    enc = Circuit(9, (
        cnot(0, 3), cnot(0, 6),
        hadamard(0), hadamard(3), hadamard(6),
        cnot(0, 1), cnot(0, 2),
        cnot(3, 4), cnot(3, 5),
        cnot(6, 7), cnot(6, 8),
    ))
    dec = Circuit(9, (
        cnot(0, 1), cnot(0, 2), toffoli(1, 2, 0),
        cnot(3, 4), cnot(3, 5), toffoli(4, 5, 3),
        cnot(6, 7), cnot(6, 8), toffoli(7, 8, 6),
        hadamard(0), hadamard(3), hadamard(6),
        cnot(0, 3), cnot(0, 6), toffoli(3, 6, 0),
    ))
    corrects = tuple((lbl, w) for w in range(9) for lbl in ("X", "Y", "Z"))
    return QecCode("shor9", 9, enc, dec, (), corrects)


def trivial_code() -> QecCode:
    """One bare qubit, no correction: passes noise straight through."""
    return QecCode("none", 1, Circuit(1, ()), Circuit(1, ()), (), ())


_CODES = {
    "bit3": bit_flip_code,
    "phase3": phase_flip_code,
    "shor5": shor5_code,
    "shor9": shor9_code,
    "none": trivial_code,
}

CODE_NAMES = tuple(_CODES)


@cache
def code_by_name(name: str) -> QecCode:
    """The code of that name; one object per name per process (codes are
    frozen, and each compiles its fused circuits once)."""
    try:
        return _CODES[name]()
    except KeyError:
        raise ValueError(f"unknown code {name!r}; "
                         f"choose from {', '.join(_CODES)}") from None
