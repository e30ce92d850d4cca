"""Measurement-free error-correction circuits: encoder and decoder.

A circuit is a tuple of gates on the code's own wires: wire 0 is the data
qubit, wires 1..n-1 are ancillas prepared in |0>.  ``QecCode.encode_gates``
and ``QecCode.decode_gates`` are the encoder and the decoder (which ends in
the recovery) compiled once per code by ``sim.fuse_gates``: runs of
X/CNOT/Toffoli gates become one index gather, other runs one dense block.

Four codes are provided:

* bit3   -- 3-qubit repetition code, corrects single X errors,
* phase3 -- bit3 in the Hadamard basis, corrects single Z errors,
* shor5  -- 5-qubit code correcting any single-qubit Pauli error; its
  decoder is one synthesized block unitary that also recovers (see
  build_recovery),
* shor9  -- phase3 on wires 0, 3 and 6 over bit3 on each triple, built by
  relabeling their gates; corrects any single-qubit Pauli error.

``corrects`` lists the declared correctable errors as (pauli, wire) pairs;
a recovery built by enumeration maps the error-k image of logical |b> to
|b> on the data wire and the syndrome index k on the ancillas.

``CODE_NAMES`` loads without numpy, for the command line's help; building a
code imports the simulator.
"""
from __future__ import annotations

from functools import cache, cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .sim import Gate

RECOVERY_ORTHO_ATOL = 1e-10


class QecCode:
    """An encoder and a decoder (ending in the recovery) on n code wires."""

    def __init__(self, name: str, n: int, encoder, decoder, corrects):
        self.name, self.n = name, n
        self.encoder, self.decoder = tuple(encoder), tuple(decoder)
        self.corrects = tuple((str(lbl), int(w)) for lbl, w in corrects)
        # the simulator's reference qubit is wire n, so a gate there would
        # act on the reference rather than be refused
        for g in self.encoder + self.decoder:
            if not all(0 <= w < n for w in g.wires):
                raise ValueError(f"code {name}: gate {g.name} on wires "
                                 f"{g.wires} outside its {n} wires")

    @cached_property
    def encode_gates(self) -> tuple:
        """The encoder, fused."""
        from .sim import fuse_gates
        return fuse_gates(self.encoder)

    @cached_property
    def decode_gates(self) -> tuple:
        """The decoder, fused."""
        from .sim import fuse_gates
        return fuse_gates(self.decoder)

    @cached_property
    def encoded_state(self) -> np.ndarray:
        """The encoder run on a maximally entangled pair of the data wire
        and a reference wire n, ancillas |0>: the (n+1)-wire state vector
        ``simulate_choi`` starts from, built once (through
        ``sim.apply_gate``) and read-only."""
        import numpy as np

        from . import sim
        psi = np.zeros(2 ** (self.n + 1), dtype=complex)
        psi[0] = psi[(1 << self.n) + 1] = 1.0 / np.sqrt(2.0)
        for gate in self.encode_gates:
            sim.apply_gate(psi, gate, out=psi)
        psi.setflags(write=False)
        return psi


def build_recovery(n: int, encoder, corrects) -> Gate:
    """Synthesize the recovery block unitary by error enumeration.

    For each logical bit b and each error E_k in {identity} + corrects, the
    corrupted codeword E_k Enc|b> on n wires is column b 2^(n-1) + k of V.
    The columns must fill the 2^n-dimensional space exactly and be
    orthonormal (if not, the error set or the encoder transcription is
    wrong and a ValueError is raised).  Column b 2^(n-1) + k is then also
    the basis state with data bit b and ancilla pattern k, so the recovery,
    which maps each corrupted codeword to that state, is V^dag.
    """
    import numpy as np

    from .sim import Gate, apply_gate, pauli_gate
    errors = [None] + list(corrects)
    dim = 2 ** n
    if 2 * len(errors) != dim:
        raise ValueError(f"{len(errors)} errors (with the identity) give "
                         f"{2 * len(errors)} corrupted codewords, not the "
                         f"{dim} that fill {n} wires")
    columns = []
    for b in (0, 1):
        psi0 = np.zeros(dim, dtype=complex)
        psi0[b << (n - 1)] = 1.0          # data wire is the top bit
        for gate in encoder:
            psi0 = apply_gate(psi0, gate)
        for err in errors:
            columns.append(psi0 if err is None
                           else apply_gate(psi0, pauli_gate(*err)))
    v = np.stack(columns, axis=1)
    if not np.abs(v.conj().T @ v - np.eye(dim)).max() <= RECOVERY_ORTHO_ATOL:
        raise ValueError("corrupted codewords are not orthonormal; "
                         "the declared errors are not all correctable")
    return Gate("R", tuple(range(n)), v.conj().T)


def bit_flip_code() -> QecCode:
    """3-qubit repetition code against single X errors."""
    from .sim import cnot, toffoli
    enc = (cnot(0, 1), cnot(0, 2))
    dec = (cnot(0, 1), cnot(0, 2), toffoli(1, 2, 0))
    corrects = (("X", 0), ("X", 1), ("X", 2))
    return QecCode("bit3", 3, enc, dec, corrects)


def phase_flip_code() -> QecCode:
    """3-qubit code against single Z errors: bit3 in the Hadamard basis."""
    from .sim import hadamard
    bit3 = bit_flip_code()
    h = tuple(hadamard(w) for w in range(bit3.n))
    corrects = tuple(("Z", w) for _, w in bit3.corrects)
    return QecCode("phase3", 3, bit3.encoder + h, h + bit3.decoder, corrects)


def shor5_code() -> QecCode:
    """5-qubit code; the decoder is one synthesized 32x32 recovery block."""
    from .sim import cnot, cz, hadamard, pauli_gate
    enc = (
        pauli_gate("Z", 0), hadamard(1),
        cnot(1, 0), cz(1, 2), cz(1, 4),
        hadamard(4),
        cnot(4, 0), cz(4, 1), cz(4, 3),
        hadamard(3),
        cz(3, 0), cz(3, 2), cnot(3, 4),
        hadamard(2),
        cz(2, 1), cnot(2, 3), cz(2, 4),
    )
    corrects = tuple((lbl, w) for w in range(5) for lbl in ("X", "Y", "Z"))
    return QecCode("shor5", 5, enc, (build_recovery(5, enc, corrects),),
                   corrects)


def _relabel(gates, *wire_maps) -> tuple:
    """The gates once per wire map, in turn, with wire k moved to wires[k]."""
    from .sim import Gate
    return tuple(Gate(g.name, tuple(wires[w] for w in g.wires), g.matrix)
                 for wires in wire_maps for g in gates)


def shor9_code() -> QecCode:
    """9-qubit code: phase3 on wires 0, 3, 6 over bit3 on each triple; the
    encoder runs the outer code first, the decoder the inner."""
    outer, inner = phase_flip_code(), bit_flip_code()
    heads, triples = (0, 3, 6), ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    enc = _relabel(outer.encoder, heads) + _relabel(inner.encoder, *triples)
    dec = _relabel(inner.decoder, *triples) + _relabel(outer.decoder, heads)
    corrects = tuple((lbl, w) for w in range(9) for lbl in ("X", "Y", "Z"))
    return QecCode("shor9", 9, enc, dec, corrects)


def trivial_code() -> QecCode:
    """One bare qubit, no correction: passes noise straight through."""
    return QecCode("none", 1, (), (), ())


_CODES = {
    "bit3": bit_flip_code,
    "phase3": phase_flip_code,
    "shor5": shor5_code,
    "shor9": shor9_code,
    "none": trivial_code,
}

CODE_NAMES = tuple(_CODES)


class UnknownCodeError(ValueError):
    """A code name that is not in CODE_NAMES (a configuration error)."""


@cache
def code_by_name(name: str) -> QecCode:
    """The code of that name; one object per name per process (codes are
    never modified, and each compiles its fused circuits once)."""
    try:
        return _CODES[name]()
    except KeyError:
        raise UnknownCodeError(f"unknown code {name!r}; "
                               f"choose from {', '.join(_CODES)}") from None
