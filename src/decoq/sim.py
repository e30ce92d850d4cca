"""Dense simulation of small noisy circuits (up to 11 wires).

States are 2^m state vectors or 2^m x 2^m density matrices with tensor-factor
order equal to wire order (wire 0 is the most significant bit of the basis
index).  Gates act on one, two, three, or a block of wires.  A gate whose
matrix is a permutation (X, CNOT, Toffoli, or a fused run of them) is
applied as an exact index gather over the whole register; the gate caches
that index once per register size up to MAX_WIRES.  Every other gate, and
every channel's superoperator, is applied in place, one block of
BLOCK_ENTRIES entries at a time: the block's slice of the state's (2,)*m or
(2,)*2m view is copied with the acted-on axes first into a small buffer,
multiplied by one ``np.dot``, and written back to the same positions.
``apply_gate`` and ``apply_channel_wire`` write into ``out=``, which may be
the input; without it they return a new array.  ``fuse_gates`` compiles a
gate list into maximal permutation runs (composed by index arrays) and
maximal runs of other gates (one dense block each).

The main entry point is simulate_choi, in three stages:

* encode -- run the code's fused encoder (QecCode.encode_gates) on the pure
  state vector of a maximally entangled pair (reference wire, code data
  wire), then form its density matrix once;
* noise  -- apply a single-qubit channel to every code wire, each as one
  contraction of its 4x4 superoperator (KrausChannel.superop, built once per
  channel) on the wire's (row, column) axes;
* decode -- apply the fused decoder and recovery (QecCode.decode_gates),
  both built once per code object, and trace out all but (data, reference).

Noise and decode write into the one density matrix the function owns, so a
run holds at most two register-sized arrays: the register and the first
half of a permutation gate's gather (or the partial trace's transposed copy).

The result is the Choi state of the error-corrected logical channel, with the
noisy (data) factor first.  The superoperator and Choi contractions follow
Wood, Biamonte & Cory, arXiv:1111.6950.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .channels import PAULI_BASIS, PAULI_LABELS, KrausChannel

MAX_WIRES = 11
UNITARY_ATOL = 1e-12
# complex entries of the block a contraction copies out, multiplies and
# writes back at a time; shor9's noise stage took 92, 90, 93, 108 and
# 142 ms at 2^12 ... 2^16 entries (4 MiB L2, OpenBLAS at 1 thread)
BLOCK_ENTRIES = 2 ** 13

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_PAULIS_1Q = dict(zip(PAULI_LABELS, PAULI_BASIS))


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary acting on an ordered tuple of wires.

    ``src`` is set when the matrix is a permutation (0/1 entries, one 1 in
    each row and column): ``matrix[i, src[i]] == 1``.
    """
    name: str
    wires: tuple
    matrix: np.ndarray
    src: np.ndarray | None = field(default=None, init=False, repr=False)
    _gathers: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(set(wires)) != len(wires):
            raise ValueError(f"gate {self.name}: repeated wire in {wires}")
        mat = np.array(self.matrix, dtype=complex)
        dim = 2 ** len(wires)
        if mat.shape != (dim, dim):
            raise ValueError(f"gate {self.name}: matrix shape {mat.shape} "
                             f"does not match {len(wires)} wires")
        ones = mat == 1
        if ((ones | (mat == 0)).all() and (ones.sum(axis=0) == 1).all()
                and (ones.sum(axis=1) == 1).all()):
            src = ones.argmax(axis=1)       # a permutation is exactly unitary
            src.setflags(write=False)
            object.__setattr__(self, "src", src)
        elif np.abs(mat.conj().T @ mat - np.eye(dim)).max() > UNITARY_ATOL:
            raise ValueError(f"gate {self.name}: matrix is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def gather_index(self, m: int) -> np.ndarray:
        """A permutation gate's source index over an m-wire register
        (``_register_src``), read-only.  It is kept once per register size
        up to MAX_WIRES, the simulator's registers; a larger one (only the
        2m-wire vectors of ``circuit_unitary`` reach it) is built per call.
        Threads that race to build it all return the one stored first."""
        idx = self._gathers.get(m)
        if idx is None:
            idx = _register_src(self.src, self.wires, m)
            idx.setflags(write=False)
            if m <= MAX_WIRES:
                idx = self._gathers.setdefault(m, idx)
        return idx


def hadamard(wire: int) -> Gate:
    return Gate("H", (wire,), _H)


def pauli_gate(label: str, wire: int) -> Gate:
    return Gate(label, (wire,), _PAULIS_1Q[label])


def controlled_pauli(label: str, controls, target: int) -> Gate:
    """Pauli on ``target`` conditioned on all ``controls`` being |1>."""
    controls = tuple(controls)
    k = len(controls) + 1
    mat = np.eye(2 ** k, dtype=complex)
    block = _PAULIS_1Q[label]
    mat[-2:, -2:] = block            # all-controls-on subspace, target last
    name = "C" * len(controls) + label
    return Gate(name, controls + (target,), mat)


def cnot(control: int, target: int) -> Gate:
    return controlled_pauli("X", (control,), target)


def cz(control: int, target: int) -> Gate:
    return controlled_pauli("Z", (control,), target)


def toffoli(control_a: int, control_b: int, target: int) -> Gate:
    return controlled_pauli("X", (control_a, control_b), target)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on ``wire_count`` wires."""
    wire_count: int
    gates: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _check_wires(g.wires, self.wire_count)


def _check_wires(wires, wire_count: int):
    for w in wires:
        if not 0 <= w < wire_count:
            raise ValueError(f"wire {w} out of range for {wire_count} wires")


def _wire_count_of(state: np.ndarray, ndim: int = 2) -> int:
    """Wires of a state vector (ndim 1) or a density matrix (ndim 2)."""
    m = int(state.shape[0]).bit_length() - 1
    if ndim not in (1, 2) or state.shape != (2 ** m,) * ndim:
        raise ValueError("state dimension is not a power of two")
    return m


def _contract(tens: np.ndarray, op: np.ndarray, axes,
              out: np.ndarray) -> None:
    """Apply ``op`` to the given axes of a tensor with (2,)-sized axes,
    writing into ``out``: the same shape, and it may be ``tens`` itself.

    The other axes, in order, index the columns of the product, and their
    leading ones are fixed one block at a time.  Each block's slice is
    copied, acted-on axes first, into a small contiguous array, multiplied
    by one ``np.dot`` and written back to the same positions, so no
    register-sized temporary is made.  Every output column is the product
    ``np.tensordot(op, tens)`` forms, the same ``np.dot`` on the same
    operands.
    """
    rest = [a for a in range(tens.ndim) if a not in axes]
    # log2 of the columns of one block.  OpenBLAS 0.3.31 (Haswell kernels)
    # gives a column the bits of the whole product in blocks of 4, 8, ...
    # columns, but not of one or two, so a block has at least four
    cols = min(len(rest), max(2, BLOCK_ENTRIES.bit_length() - 1 - len(axes)))
    lead = len(rest) - cols
    order = rest[:lead] + list(axes) + rest[lead:]
    src, dst = tens.transpose(order), out.transpose(order)
    block = np.empty(src.shape[lead:], dtype=complex)
    prod = np.empty_like(block)
    a, b = block.reshape(op.shape[1], -1), prod.reshape(op.shape[0], -1)
    for idx in itertools.product((0, 1), repeat=lead):
        block[...] = src[idx]
        np.dot(op, a, out=b)
        dst[idx] = prod


def _out_buffer(state: np.ndarray, out) -> np.ndarray:
    """``out``, checked to be a C-contiguous complex array of ``state``'s
    shape, or a new one when ``out`` is None."""
    if out is None:
        return np.empty(state.shape, dtype=complex)
    if (out.shape != state.shape or out.dtype != complex
            or not out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous complex array of the "
                         "state's shape")
    return out


def _register_src(src: np.ndarray, wires, m: int) -> np.ndarray:
    """The permutation ``src`` on ``wires`` as a source index over all 2^m
    basis states of an m-wire register: U|j> has amplitude psi[idx[j]]."""
    k = len(wires)
    idx = np.moveaxis(np.arange(2 ** m).reshape((2,) * m), wires, range(k))
    idx = idx.reshape(2 ** k, -1)[src].reshape((2,) * m)
    return np.moveaxis(idx, range(k), wires).reshape(-1)


def apply_gate(state: np.ndarray, gate: Gate, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Apply the gate to a state vector (psi -> U psi) or conjugate a density
    matrix by it (rho -> U rho U^dag), writing into ``out`` (which may be
    ``state``) or, when it is None, into a new array; returns it.  A
    permutation gate is an index gather, bit for bit what the contraction
    gives (every product is with 0 or 1)."""
    m = _wire_count_of(state, state.ndim)
    _check_wires(gate.wires, m)
    out = _out_buffer(state, out)
    if gate.src is not None:
        idx = gate.gather_index(m)
        if state.ndim == 2:
            # the indices are a permutation, so "clip" clips nothing; it
            # lets take write into out without a hidden temporary
            rows = state.take(idx, axis=0)
            rows.take(idx, axis=1, out=out, mode="clip")
        else:
            state.take(idx, out=out, mode="clip")
        return out
    shape = (2,) * (state.ndim * m)
    tens = out.reshape(shape)
    _contract(state.reshape(shape), gate.matrix, gate.wires, tens)
    if state.ndim == 2:
        _contract(tens, gate.matrix.conj(), tuple(m + w for w in gate.wires),
                  tens)
    return out


def apply_channel_wire(rho: np.ndarray, channel: KrausChannel, wire: int, *,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Apply a single-qubit Kraus channel to one wire of the register,
    writing into ``out`` (which may be ``rho``) or, when it is None, into a
    new array; returns it.

    The Kraus sum is folded into the superoperator S = sum_k K (x) K^*
    (``channel.superop``), which acts on the wire's row and column axes in
    one contraction.
    """
    m = _wire_count_of(rho)
    _check_wires((wire,), m)
    out = _out_buffer(rho, out)
    shape = (2,) * (2 * m)
    _contract(rho.reshape(shape), channel.superop, (wire, m + wire),
              out.reshape(shape))
    return out


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out all wires not in ``keep``; output factors follow keep order."""
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep at least one wire")
    m = _wire_count_of(rho)
    _check_wires(keep, m)
    if len(set(keep)) != len(keep):
        raise ValueError("repeated wire in keep list")
    traced = tuple(w for w in range(m) if w not in keep)
    tens = rho.reshape((2,) * (2 * m))
    order = (keep + traced + tuple(m + w for w in keep)
             + tuple(m + w for w in traced))
    tens = tens.transpose(order)
    nk, nt = 2 ** len(keep), 2 ** len(traced)
    tens = tens.reshape(nk, nt, nk, nt)
    return np.einsum("atbt->ab", tens)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The full 2^m x 2^m unitary of a (noise-free) circuit.

    All columns are computed at once: the identity, read as a state vector
    on 2m wires (row wires first), becomes the unitary when each gate is
    applied to its row wires.
    """
    dim = 2 ** circuit.wire_count
    vec = np.eye(dim, dtype=complex).reshape(-1)
    for gate in circuit.gates:
        apply_gate(vec, gate, out=vec)
    return vec.reshape(dim, dim)


def shift_gates(gates, offset: int):
    """The same gates with every wire index moved up by ``offset``."""
    return tuple(Gate(g.name, tuple(w + offset for w in g.wires), g.matrix)
                 for g in gates)


def fuse_gates(gates) -> tuple:
    """The same circuit in fewer gates: each maximal run of permutation
    gates becomes one permutation gate, its source index composed by index
    arrays, and each maximal run of other gates one dense block
    (``circuit_unitary``).  A fused gate acts on the sorted union of its
    run's wires."""
    fused = []
    runs = itertools.groupby(gates, key=lambda g: g.src is not None)
    for is_perm, run in runs:
        run = tuple(run)
        wires = tuple(sorted({w for g in run for w in g.wires}))
        local = tuple(Gate(g.name, tuple(wires.index(w) for w in g.wires),
                           g.matrix) for g in run)
        if is_perm:
            src = np.arange(2 ** len(wires))
            for g in local:
                src = src[_register_src(g.src, g.wires, len(wires))]
            matrix = np.eye(len(src))[src]
        else:
            matrix = circuit_unitary(Circuit(len(wires), local))
        fused.append(Gate("+".join(g.name for g in run), wires, matrix))
    return tuple(fused)


def simulate_choi(code, noise) -> np.ndarray:
    """Choi state of the error-corrected channel built from ``code`` + noise.

    ``noise`` is either one single-qubit KrausChannel (applied independently
    to every code wire) or a sequence of per-code-wire channels (entries may
    be None for no noise on that wire).  Wire 0 of the register is the
    untouched reference, wire 1 the data qubit, wires 2..n the ancillas.
    Returns the 4x4 state on (data, reference), data factor first.
    """
    n = code.n
    m = n + 1
    if m > MAX_WIRES:
        raise ValueError(f"register of {m} wires exceeds the {MAX_WIRES}-wire limit")
    if isinstance(noise, KrausChannel):
        per_wire = (noise,) * n
    else:
        per_wire = tuple(noise)
        if len(per_wire) != n:
            raise ValueError(f"need one channel per code wire ({n}), "
                             f"got {len(per_wire)}")

    # |Omega> on (reference=0, data=1), ancillas |0>
    psi = np.zeros(2 ** m, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[(1 << (m - 1)) + (1 << (m - 2))] = 1.0 / np.sqrt(2.0)
    for gate in code.encode_gates:
        apply_gate(psi, gate, out=psi)
    rho = np.outer(psi, psi.conj())

    # rho is this function's own, so noise and decode write into it
    for w, ch in enumerate(per_wire):
        if ch is not None:
            apply_channel_wire(rho, ch, 1 + w, out=rho)

    for gate in code.decode_gates:
        apply_gate(rho, gate, out=rho)
    return partial_trace(rho, keep=(1, 0))
