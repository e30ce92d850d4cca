"""Read sets: the entries of a density matrix that later stages read.

``simulate_choi`` ends in a partial trace that reads a small part of the
register: on shor9, 4,096 of its 2^20 entries.  Its stages therefore need
to compute only the entries some later stage reads, the stage's read set.
The read sets are derived backward from the trace once per code and noise
grouping (``stage_reads``), before any value is known:

* the trace reads the entries whose row and column bits are equal on each
  traced wire;
* a permutation gate, which sends the bits x of its wires to the bits
  src[x], pulls the set back through each independent part of its index;
* a dense gate or a noise pass mixes the bits of its own wires, so it
  frees them: it reads every value there.

A read set is a product of factors, each a boolean mask over a few axes of
the register's (2,)*2m view, and an axis in no factor is free; a fused
permutation splits into its independent parts, so a factor stays small and
the set is never held as a register-sized mask.  The simulator's kernels
take a read set as ``reads=`` and plan their work from it once (``passes``
and ``gather``): a pass whose read set depends on its column axes computes
only the columns that hold a read entry, and a gather copies only the
read entries.  Every other entry is left stale, and no later stage reads
it.  This module is imported by the first simulation of a register of more
than one block.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


def _joint(factors, axes) -> np.ndarray:
    """The AND of the factors' masks as one mask over ``axes``, which
    hold every factor's axes."""
    joint = np.ones((2,) * len(axes), dtype=bool)
    for f_axes, mask in factors:
        pos = [axes.index(a) for a in f_axes]
        shape = [1] * len(axes)
        for p in pos:
            shape[p] = 2
        # the axes in ``axes`` order; sorted in Python, as np.argsort would
        # map numpy's sort kernels into every simulating process
        order = sorted(range(len(pos)), key=pos.__getitem__)
        joint &= mask.transpose(order).reshape(shape)
    return joint


def _positions(ndim: int, factors, free) -> np.ndarray:
    """The flat positions, in a tensor of ``ndim`` (2,)-sized axes, of the
    entries whose bits on each factor's axes are a True entry of its mask,
    with every value on the axes of ``free`` (the first most significant
    in the enumeration) and 0 on every other axis."""
    strides = 1 << (ndim - 1 - np.arange(ndim))
    flat = np.zeros(1, dtype=np.intp)
    for axes, mask in factors:
        flat = np.add.outer(flat, np.argwhere(mask) @ strides[list(axes)])
    for a in free:
        flat = np.add.outer(flat, (0, strides[a]))
    return flat.reshape(-1)


def _parts(src: np.ndarray) -> tuple:
    """A permutation of range(2^k) split into permutations of disjoint bit
    sets: ((positions, part), ...), where the output's bits at
    ``positions`` (0 the most significant) come from the part's
    permutation of the same bits and from no other bit.  A fused run of
    gates on disjoint wire sets splits into its runs."""
    k = len(src).bit_length() - 1
    x = np.arange(len(src))
    groups = [{i} for i in range(k)]
    for i in range(k):
        moved = src[x ^ (1 << (k - 1 - i))] ^ src
        joined = {i} | {j for j in range(k)
                        if (moved >> (k - 1 - j) & 1).any()}
        merged = set().union(*(g for g in groups if g & joined))
        groups = [g for g in groups if not g & joined] + [merged]
    parts = []
    for g in sorted(map(sorted, groups)):
        shifts = k - 1 - np.array(g)
        local = len(g) - 1 - np.arange(len(g))
        bits = np.arange(2 ** len(g))[:, None] >> local & 1
        # the part's bits of src over the inputs that are 0 off the part
        part = (src[bits @ (1 << shifts)][:, None] >> shifts & 1) @ (1 << local)
        parts.append((tuple(g), part))
    return tuple(parts)


@dataclass(frozen=True, eq=False)
class ReadSet:
    """The entries of a tensor of ``ndim`` (2,)-sized axes (a density
    matrix's (2,)*2m view) that later stages read: those whose bits on
    each factor's axes are a True entry of its mask, an array of shape
    (2,)*len(axes).  Factors have disjoint axes, and an axis in none is
    free.  The kernels' plans for it (``passes`` and ``gather``) are built
    on first use and kept."""
    ndim: int
    factors: tuple
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of_trace(cls, m: int, keep) -> ReadSet:
        """What ``partial_trace(rho, keep)`` reads of an m-wire density
        matrix: the entries whose row and column bits are equal on each
        traced wire."""
        eye = np.eye(2, dtype=bool)
        return cls(2 * m, tuple(((w, m + w), eye) for w in range(m)
                                if w not in keep))

    def freed(self, axes) -> ReadSet:
        """What is read before a step that mixes the bits of ``axes`` (a
        dense gate, a superoperator): each factor projected off them."""
        factors = []
        for f_axes, mask in self.factors:
            drop = tuple(i for i, a in enumerate(f_axes) if a in axes)
            if drop:
                f_axes = tuple(a for a in f_axes if a not in axes)
                mask = mask.any(axis=drop)
            if not mask.all():
                factors.append((f_axes, mask))
        return ReadSet(self.ndim, tuple(factors))

    def pulled_back(self, axes: tuple, src: np.ndarray) -> ReadSet:
        """What is read before a gather whose output bits x on ``axes``
        (the first most significant) come from the input's bits src[x]:
        the factors on those axes merge into one, permuted by src."""
        hit = [f for f in self.factors if set(f[0]) & set(axes)]
        if not hit:
            return self
        merged = tuple(axes) + tuple(sorted(
            {a for f_axes, _ in hit for a in f_axes} - set(axes)))
        mask = _joint(hit, merged).reshape(len(src), -1)
        pulled = np.empty_like(mask)
        pulled[src] = mask
        kept = tuple(f for f in self.factors if not set(f[0]) & set(axes))
        return ReadSet(self.ndim, kept + (
            (merged, pulled.reshape((2,) * len(merged))),))

    def before(self, gate, m: int) -> ReadSet:
        """What is read of an m-wire density matrix before ``gate`` (a
        ``sim.Gate``): a dense gate frees its wires' row and column axes, a
        permutation pulls the set back through each independent part of
        its index."""
        if gate.src is None:
            return self.freed(gate.wires + tuple(m + w for w in gate.wires))
        reads = self
        for positions, part in _parts(gate.src):
            rows = tuple(gate.wires[p] for p in positions)
            reads = reads.pulled_back(rows, part)
            reads = reads.pulled_back(tuple(m + w for w in rows), part)
        return reads

    def passes(self, axes_seq: tuple, whole: tuple,
               block_entries: int) -> tuple:
        """The passes ``whole`` (``sim._plan``'s, for steps on ``axes_seq``)
        of a contraction whose output is read here.  A pass after which
        the read set depends on axes no step of it acts on computes only
        the columns that hold a read entry: its last field is then the
        flat positions of its steps' entries (in step order, as a column)
        and its columns' flat positions, in equal chunks of at least four
        columns and about ``block_entries`` entries."""
        key = (axes_seq, block_entries)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        plan, reads, done = [], self, len(axes_seq)
        for pass_ in reversed(whole):
            count = pass_[0]
            union = [a for axes in axes_seq[done - count:done] for a in axes]
            done -= count
            reads = reads.freed(set(union))
            held = {a for f_axes, _ in reads.factors for a in f_axes}
            free = [a for a in range(self.ndim)
                    if a not in union and a not in held]
            # every product keeps four columns: two axes stay free
            while len(free) < 2 and reads.factors:
                lost = reads.factors[-1][0]
                reads, free = reads.freed(lost), sorted(free + list(lost))
            if not reads.factors:
                plan.append(pass_)
                continue
            cols = _positions(self.ndim, reads.factors, free)
            width = min(max(4, block_entries >> len(union)),
                        len(cols) & -len(cols))
            rows = _positions(self.ndim, (), union)[:, None]
            plan.append(pass_[:-1] + ((rows, cols.reshape(-1, width)),))
        return self._plans.setdefault(key, tuple(reversed(plan)))

    def gather(self, gate, m: int) -> tuple:
        """The flat positions in an m-wire density matrix of the entries
        held here, and of the entries a density-matrix gather by ``gate``
        copies to them."""
        plan = self._plans.get(gate)
        if plan is not None:
            return plan
        held = {a for f_axes, _ in self.factors for a in f_axes}
        dst = _positions(self.ndim, self.factors,
                         [a for a in range(self.ndim) if a not in held])
        idx = gate.gather_index(m)
        # src = idx[row] * 2^m + idx[column], formed in place
        src = idx.take(dst >> m)
        src <<= m
        src |= idx.take(dst & ((1 << m) - 1))
        return self._plans.setdefault(gate, (dst, src))


@functools.lru_cache(maxsize=32)
def stage_reads(gates: tuple, m: int, groups: tuple) -> tuple:
    """The read set of each stage's output in ``simulate_choi`` on m wires,
    derived backward from the partial trace onto (0, m-1): one per noise
    pass (``groups``, each pass's wires) and one per decode gate."""
    reads = ReadSet.of_trace(m, (0, m - 1))
    decode, noise = [], []
    for gate in reversed(gates):
        decode.append(reads)
        reads = reads.before(gate, m)
    for wires in reversed(groups):
        noise.append(reads)
        reads = reads.freed(wires + tuple(m + w for w in wires))
    return tuple(reversed(noise)), tuple(reversed(decode))
