"""Dense simulation of small noisy circuits (up to 11 wires).

States are 2^m state vectors or 2^m x 2^m density matrices with tensor-factor
order equal to wire order (wire 0 is the most significant bit of the basis
index).  Gates act on one, two, three, or a block of wires.  A gate whose
matrix is a permutation (X, CNOT, Toffoli, or a fused run of them) is
applied as an exact index gather; the gate caches that index once per
register size up to MAX_WIRES.  A density matrix is gathered through one
register-sized temporary, unless a read set (below) names the entries to
copy.  Every other gate, and every channel's superoperator, is applied in
place by ``_contract``, which takes a sequence of steps (an op and the axes
it acts on) and runs consecutive steps in one pass over the state, one
block of about BLOCK_ENTRIES entries at a time:
the block's slice of the state's (2,)*m or (2,)*2m view is copied, the
steps' axes first, into a small buffer, each step is one ``np.matmul``
(batched over the axes of the steps before it), and the result is written
back to the same positions.  A density matrix's row and column sides of a
gate are two steps, and so are two wires of one channel.  A pass splits
where a step's products would have fewer than four columns or fewer
columns than its op has rows.  Each pass's layout is planned once per
(tensor rank, axes).  ``apply_gate`` and ``apply_channel_wire`` write
into ``out=``, which may be the input; without it they return a new array.
A circuit is a tuple of gates; ``fuse_gates`` compiles one into maximal
permutation runs (composed by index arrays) and maximal runs of other gates
(one dense block each).  A fused permutation run is held as its index
alone, with no matrix.

The main entry point is simulate_choi.  An n-wire code runs on wires
0..n-1 of an (n+1)-wire register, and the last wire, n, is the reference:

* encode -- the code's encoded pair state (QecCode.encoded_state: the fused
  encoder run through ``apply_gate`` on a maximally entangled pair of code
  data wire 0 and reference wire n), built once per code object; each run
  forms its density matrix;
* noise  -- apply a single-qubit channel to every code wire by its 4x4
  superoperator (KrausChannel.superop, built once per channel) on the
  wire's (row, column) axes; a run of up to NOISE_GROUP consecutive wires
  that share one channel object is one ``apply_channel_wire`` call and one
  pass;
* decode -- apply the fused decoder (QecCode.decode_gates), built once per
  code object, and trace out all but (data, reference) with one
  ``np.einsum`` over the register's (2,)*2m view.

A register of one block (up to 6 wires: bit3, phase3, shor5, none) is run
whole, as above.  A larger one (shor9's) runs its four reference blocks in
turn in one n-wire array: block (b, c), the entries whose reference row
bit is b and column bit c, is |b_L><c_L| / 2, filled on the codewords'
support (64 of its 2^18 entries on shor9) with the products ``np.outer``
forms and +0 elsewhere.  No stage touches the reference wire, so each
block takes the same stages, and its trace onto the data wire is the Choi
state's (b, c) block.

Each noise pass and decode gate of a block computes only the entries a
later stage reads, its read set (``decoq.reads``, derived backward from
the trace once per code and noise grouping and passed as ``reads=``): a
pass whose read set depends on its column axes computes only the columns
that hold a read entry, taking runs of them by their flat positions into a
block, with the same products of four or more columns; a gather copies
only the read entries, through one small buffer so that it still works in
place.  Every other entry is left stale, and no later stage reads it.  On
a shor9 block the first noise pass computes the whole array, the second a
quarter, the third a sixteenth and the dense decode block (H on wires 0, 3
and 6) a sixty-fourth; the gathers copy 2^12 and 2^10 of its 2^18 entries.

In place, a pass of more than one block also skips each block whose input
is all zero, since its product is zero and its positions already hold
zeros.  A shor9 reference block has 64 nonzero entries, so under
depolarizing or amplitude-damping noise its first noise pass multiplies 4
of its 32 blocks; the read-set passes after it multiply all 11 of theirs.
An ``out`` that is not the input is written whole, and a one-block pass
pays no test.

Noise and decode write into the one array the function owns, and every
block runs in the calling thread, one after another, so a shor9 run holds
one 4 MiB array (the whole register would be 16 MiB) and the buffers of
one block or read-set gather.  Every computed step output is, bit for bit,
what ``np.tensordot`` of its op with the whole state gives, so grouping,
blocking, skipping and splitting change no output bit.
A skipped zero block keeps its input's zeros, whose sign may differ from
the product's; none reaches the Choi states of shor9, which a test
compares by bytes with the whole-register ``np.tensordot`` route.

The result is the Choi state of the error-corrected logical channel, with the
noisy (data) factor first.  The superoperator and Choi contractions follow
Wood, Biamonte & Cory, arXiv:1111.6950.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .channels import PAULI_BASIS, PAULI_LABELS, KrausChannel

if TYPE_CHECKING:
    from .reads import ReadSet

MAX_WIRES = 11
UNITARY_ATOL = 1e-12
# complex entries of the block a contraction copies out, multiplies and
# writes back at a time; shor9's noise stage took 92, 90, 93, 108 and
# 142 ms at 2^12 ... 2^16 entries (4 MiB L2, OpenBLAS at 1 thread)
BLOCK_ENTRIES = 2 ** 13
# wires per noise pass of simulate_choi: a group of g wires puts 4^g rows in
# each block, so three leave a block of BLOCK_ENTRIES 2^7 columns.  Over
# three runs (OpenBLAS at 1 thread, 2 vCPUs), shor9's noise stage took
# 67-88 ms a wire at a time, 53-60 ms in pairs, 42-58 ms in threes,
# 51-68 ms in fours and 59-77 ms in fives
NOISE_GROUP = 3

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_PAULIS_1Q = dict(zip(PAULI_LABELS, PAULI_BASIS))


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary acting on an ordered tuple of wires.

    ``src`` is set when the matrix is a permutation (0/1 entries, one 1 in
    each row and column): ``matrix[i, src[i]] == 1``.  A permutation may be
    given by ``src`` alone, a permutation of range(2^k); its matrix is then
    None, since ``apply_gate`` only gathers.
    """
    name: str
    wires: tuple
    matrix: np.ndarray | None = None
    src: np.ndarray | None = field(default=None, repr=False)
    _gathers: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        wires = tuple(int(w) for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(set(wires)) != len(wires):
            raise ValueError(f"gate {self.name}: repeated wire in {wires}")
        dim = 2 ** len(wires)
        if self.src is not None:
            src = np.array(self.src)
            # in Python: np.sort would map 0.2 MB of numpy's sort kernels
            if (self.matrix is not None or src.dtype.kind not in "iu"
                    or sorted(src.tolist()) != list(range(dim))):
                raise ValueError(f"gate {self.name}: src is not a permutation "
                                 f"of range({dim}) given without a matrix")
            src.setflags(write=False)
            object.__setattr__(self, "src", src)
            return
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"gate {self.name}: matrix shape {mat.shape} "
                             f"does not match {len(wires)} wires")
        ones = mat == 1
        if ((ones | (mat == 0)).all() and (ones.sum(axis=0) == 1).all()
                and (ones.sum(axis=1) == 1).all()):
            src = ones.argmax(axis=1)       # a permutation is exactly unitary
            src.setflags(write=False)
            object.__setattr__(self, "src", src)
        else:
            # written so that a NaN or infinite entry fails the test too
            with np.errstate(all="ignore"):
                err = np.abs(mat.conj().T @ mat - np.eye(dim)).max()
            if not err <= UNITARY_ATOL:
                raise ValueError(f"gate {self.name}: matrix is not unitary")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def gather_index(self, m: int) -> np.ndarray:
        """A permutation gate's source index over an m-wire register
        (``_register_src``), read-only.  It is kept once per register size
        up to MAX_WIRES, the simulator's registers; a larger one (only the
        2m-wire vectors of ``circuit_unitary`` reach it) is built per call."""
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


def _layout(ndim: int, axes_seq: tuple, block_entries: int):
    """The layout of one pass over a tensor of ``ndim`` (2,)-sized axes:
    the transposition order that puts the axes fixed per block first, then
    every step's axes in step order, then the column axes; the number of
    fixed axes; and each step's (batch, rows, columns) product shape.
    None when a batched step's products would have fewer columns than
    four or than its op's rows."""
    union = [a for axes in axes_seq for a in axes]
    rest = [a for a in range(ndim) if a not in union]
    # log2 of the columns of one block.  OpenBLAS 0.3.31 (Haswell kernels)
    # gives a column the bits of the whole product in blocks of 4, 8, ...
    # columns, but not of one or two, so a block has at least four
    cols = min(len(rest),
               max(2, block_entries.bit_length() - 1 - len(union)))
    shapes, done = [], 0
    for axes in axes_seq:
        if done and len(union) - done - len(axes) + cols < max(2, len(axes)):
            return None
        shapes.append((2 ** done, 2 ** len(axes), -1))
        done += len(axes)
    lead = len(rest) - cols
    # The order of the columns changes no bit.  Runs of consecutive axes
    # go longest last, so that the copies move long strided runs: on
    # shor9, wires 6-8 leave the runs (10..15) and (19), and this order
    # took their copies in and out from 9.1 + 8.2 to 5.0 + 5.7 ms
    runs = []
    for a in rest[lead:]:
        if runs and runs[-1][-1] == a - 1:
            runs[-1].append(a)
        else:
            runs.append([a])
    runs.sort(key=len)
    order = rest[:lead] + union + [a for run in runs for a in run]
    return tuple(order), lead, tuple(shapes)


@functools.lru_cache(maxsize=256)
def _plan(ndim: int, axes_seq: tuple, block_entries: int) -> tuple:
    """The passes of ``_contract``: consecutive steps share a pass while
    ``_layout`` allows it, and each pass is (its step count, its layout,
    None: every column is computed).  On shor5's 32x32 recovery, rows and
    columns in one pass (the columns as 32 products of four columns) took
    115 us against 87 us in two."""
    passes = []
    for axes in axes_seq:
        if passes and _layout(ndim, passes[-1] + (axes,), block_entries):
            passes[-1] += (axes,)
        else:
            passes.append((axes,))
    return tuple((len(p), *_layout(ndim, p, block_entries), None)
                 for p in passes)


def _contract(state: np.ndarray, ops: tuple, axes_seq: tuple,
              out: np.ndarray, reads: ReadSet | None = None) -> None:
    """Apply the step ``ops[i]`` to the axes ``axes_seq[i]``, for each i in
    turn, to a state read as a tensor with (2,)-sized axes, writing into
    ``out``: the same shape, and it may be ``state`` itself.  The steps act
    on disjoint axes.

    Steps run in as few passes as ``_plan`` allows.  In a pass, the axes no
    step acts on index the columns of the products, and their leading ones
    are fixed one block at a time.  Each block's slice is copied into a
    small contiguous array with the steps' axes first, in step order; each
    step is then one ``np.matmul`` between two such arrays, batched over
    the axes of the steps before it, and the last result is written back
    to the block's positions, so no register-sized temporary is made.
    Every product has at least four columns (unless the tensor has fewer
    axes to spare), and every output column of a step is the product
    ``np.tensordot(op, tens)`` forms on the same operands.

    With ``reads``, the read set of the output, a pass whose output's read
    set depends on its column axes computes only the columns that hold a
    read entry (``ReadSet.passes``): a block is then a run of those
    columns, taken from their flat positions, with the same products of
    at least four columns.

    A pass of more than one block that writes in place (``out`` is
    ``state``, or an earlier pass has written ``out``) multiplies no block
    whose input is all zero: its product is zero, which the block's
    positions already hold.  A one-block pass pays no test.
    """
    in_place = out is state
    shape = (2,) * (state.size.bit_length() - 1)
    tens, out = state.reshape(shape), out.reshape(shape)
    passes = _plan(tens.ndim, axes_seq, BLOCK_ENTRIES)
    if reads is not None:
        passes = reads.passes(axes_seq, passes, BLOCK_ENTRIES)
    for count, order, lead, shapes, columns in passes:
        pass_ops, ops = ops[:count], ops[count:]
        if columns is None:
            src, dst = tens.transpose(order), out.transpose(order)
            block = np.empty(src.shape[lead:], dtype=complex)
            spare = np.empty_like(block)
            skip = in_place and lead > 0
            for idx in itertools.product((0, 1), repeat=lead):
                block[...] = src[idx]
                if skip and not block.any():
                    continue
                dst[idx] = _steps(pass_ops, shapes, block, spare)
        else:
            rows, chunks = columns
            src, dst = tens.reshape(-1), out.reshape(-1)
            pos = np.empty((len(rows), chunks.shape[1]), dtype=np.intp)
            block = np.empty(pos.shape, dtype=complex)
            spare = np.empty_like(block)
            skip = in_place and len(chunks) > 1
            for cols in chunks:
                np.add(rows, cols, out=pos)
                src.take(pos, out=block, mode="clip")
                if skip and not block.any():
                    continue
                dst[pos] = _steps(pass_ops, shapes, block, spare)
        tens, in_place = out, True


def _steps(ops: tuple, shapes: tuple, block: np.ndarray,
           spare: np.ndarray) -> np.ndarray:
    """A pass's steps on one block, each one ``np.matmul`` from one of the
    two buffers into the other; returns the buffer that holds the last."""
    a, b = block, spare
    for op, shape in zip(ops, shapes):
        np.matmul(op, a.reshape(shape), out=b.reshape(shape))
        a, b = b, a
    return a


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


def _gather_density(rho: np.ndarray, gate: Gate, m: int, out: np.ndarray,
                    reads: ReadSet | None = None) -> None:
    """``out = rho[idx][:, idx]`` with the gate's index over m wires;
    ``out`` may be ``rho``.  The rows are gathered into one register-sized
    temporary and its columns into ``out``.  With ``reads``, only the
    entries it holds are gathered, all into one small buffer before any is
    written."""
    if reads is not None:
        dst, src = reads.gather(gate, m)
        out.reshape(-1)[dst] = rho.reshape(-1).take(src)
        return
    idx = gate.gather_index(m)
    rho.take(idx, axis=0).take(idx, axis=1, out=out, mode="clip")


def _register_src(src: np.ndarray, wires, m: int) -> np.ndarray:
    """The permutation ``src`` on ``wires`` as a source index over all 2^m
    basis states of an m-wire register: U|j> has amplitude psi[idx[j]]."""
    k = len(wires)
    idx = np.moveaxis(np.arange(2 ** m).reshape((2,) * m), wires, range(k))
    idx = idx.reshape(2 ** k, -1)[src].reshape((2,) * m)
    return np.moveaxis(idx, range(k), wires).reshape(-1)


def _check_reads(reads, ndim: int):
    if reads is not None and reads.ndim != ndim:
        raise ValueError(f"the read set has {reads.ndim} axes, the state "
                         f"{ndim}")


def apply_gate(state: np.ndarray, gate: Gate, *,
               out: np.ndarray | None = None,
               reads: ReadSet | None = None) -> np.ndarray:
    """Apply the gate to a state vector (psi -> U psi) or conjugate a density
    matrix by it (rho -> U rho U^dag), writing into ``out`` (which may be
    ``state``) or, when it is None, into a new array; returns it.  A
    permutation gate is an index gather, bit for bit what the contraction
    gives (every product is with 0 or 1); on a density matrix with no
    ``reads`` it copies through one register-sized temporary.  With
    ``reads``, a ReadSet of the density matrix's (2,)*2m view, only the
    output entries it holds are sure to be computed; the others may be
    left as ``out`` held them."""
    m = _wire_count_of(state, state.ndim)
    _check_wires(gate.wires, m)
    _check_reads(reads, state.ndim * m)
    out = _out_buffer(state, out)
    if gate.src is not None:
        # the indices are a permutation, so "clip" clips nothing; it lets
        # take write into out without a hidden temporary
        if state.ndim == 2:
            _gather_density(state, gate, m, out, reads)
        else:
            state.take(gate.gather_index(m), out=out, mode="clip")
        return out
    ops, axes_seq = (gate.matrix,), (gate.wires,)
    if state.ndim == 2:
        ops += (gate.matrix.conj(),)
        axes_seq += (tuple(m + w for w in gate.wires),)
    _contract(state, ops, axes_seq, out, reads)
    return out


def apply_channel_wire(rho: np.ndarray, channel: KrausChannel, wires, *,
                       out: np.ndarray | None = None,
                       reads: ReadSet | None = None) -> np.ndarray:
    """Apply a single-qubit Kraus channel to each of ``wires`` (one wire,
    or a tuple of distinct wires) of the register, writing into ``out``
    (which may be ``rho``) or, when it is None, into a new array; returns
    it.

    The Kraus sum is folded into the superoperator S = sum_k K (x) K^*
    (``channel.superop``), which acts on each wire's row and column axes.
    The wires' contractions run, in the order given, in as few blocked
    passes as ``_contract`` allows, bit for bit what one call per wire
    gives.  With ``reads``, only the output entries it holds are sure to
    be computed, as in ``apply_gate``.
    """
    m = _wire_count_of(rho)
    try:
        wires = tuple(wires)
    except TypeError:
        wires = (wires,)
    _check_wires(wires, m)
    if len(set(wires)) != len(wires):
        raise ValueError(f"repeated wire in {wires}")
    _check_reads(reads, 2 * m)
    out = _out_buffer(rho, out)
    _contract(rho, (channel.superop,) * len(wires),
              tuple((w, m + w) for w in wires), out, reads)
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
    nk = 2 ** len(keep)
    return np.einsum(rho.reshape((2,) * (2 * m)),
                     *_trace_labels(m, keep)).reshape(nk, nk)


@functools.lru_cache(maxsize=64)
def _trace_labels(m: int, keep: tuple) -> tuple:
    """The einsum labels of ``partial_trace``: a traced wire's row and
    column axes share a label, so einsum sums their diagonal on the
    register's own view, with no transposed copy."""
    labels = list(range(m)) + [m + w if w in keep else w for w in range(m)]
    return labels, list(keep) + [m + w for w in keep]


def circuit_unitary(gates, m: int) -> np.ndarray:
    """The full 2^m x 2^m unitary of a (noise-free) gate sequence on m wires.

    All columns are computed at once: the identity, read as a state vector
    on 2m wires (row wires first), becomes the unitary when each gate is
    applied to its row wires.
    """
    dim = 2 ** m
    vec = np.eye(dim, dtype=complex).reshape(-1)
    for gate in gates:
        _check_wires(gate.wires, m)
        apply_gate(vec, gate, out=vec)
    return vec.reshape(dim, dim)


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
        name = "+".join(g.name for g in run)
        local = [tuple(wires.index(w) for w in g.wires) for g in run]
        if is_perm:
            src = np.arange(2 ** len(wires))
            for g, on in zip(run, local):
                src = src[_register_src(g.src, on, len(wires))]
            fused.append(Gate(name, wires, src=src))
        else:
            block = tuple(Gate(g.name, on, g.matrix)
                          for g, on in zip(run, local))
            fused.append(Gate(name, wires,
                              circuit_unitary(block, len(wires))))
    return tuple(fused)


def simulate_choi(code, noise) -> np.ndarray:
    """Choi state of the error-corrected channel built from ``code`` + noise.

    ``noise`` is either one single-qubit KrausChannel (applied independently
    to every code wire) or a sequence of per-code-wire channels (entries may
    be None for no noise on that wire).  The register's wires 0..n-1 are the
    code's own (wire 0 the data qubit, 1..n-1 the ancillas) and wire n is
    the untouched reference.  Returns the 4x4 state on (data, reference),
    data factor first.  A register of more than one block runs its four
    reference blocks in turn on n wires.
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

    # a run of wires that share a channel is one pass of up to NOISE_GROUP
    # wires
    groups, start = [], 0
    while start < n:
        ch, end = per_wire[start], start + 1
        while end < min(n, start + NOISE_GROUP) and per_wire[end] is ch:
            end += 1
        if ch is not None:
            groups.append((ch, tuple(range(start, end))))
        start = end
    gates = code.decode_gates
    if 4 ** m <= BLOCK_ENTRIES:
        # one block: the whole register, computed whole
        rho = np.outer(code.encoded_state, code.encoded_state.conj())
        _run_stages(rho, groups, (None,) * len(groups), gates,
                    (None,) * len(gates))
        return partial_trace(rho, keep=(0, n))

    # imported here: a job on registers of one block never loads it
    from .reads import stage_reads
    noise_reads, decode_reads = stage_reads(
        gates, n, tuple(wires for _, wires in groups))
    # rho is this function's own, so noise and decode write into it
    words = code.encoded_state.reshape(2 ** n, 2)
    support = [np.flatnonzero(words[:, b]) for b in (0, 1)]
    rho = np.empty((2 ** n, 2 ** n), dtype=complex)
    choi = np.empty((2, 2, 2, 2), dtype=complex)
    for b, c in itertools.product((0, 1), repeat=2):
        rows, cols = support[b], support[c]
        rho.fill(0.0)
        rho[rows[:, None], cols] = np.outer(words[rows, b],
                                            words[cols, c].conj())
        _run_stages(rho, groups, noise_reads, gates, decode_reads)
        choi[:, b, :, c] = partial_trace(rho, keep=(0,))
    return choi.reshape(4, 4)


def _run_stages(rho, groups, noise_reads, gates, decode_reads) -> None:
    """The noise passes and decode gates of ``simulate_choi``, in place,
    each computing at least the entries of its read set."""
    for (ch, wires), reads in zip(groups, noise_reads):
        apply_channel_wire(rho, ch, wires, out=rho, reads=reads)
    for gate, reads in zip(gates, decode_reads):
        apply_gate(rho, gate, out=rho, reads=reads)
