"""Single-qubit channel representations and conversions.

A channel is held in one of three interchangeable forms:

* Kraus: ``E(rho) = sum_i K_i rho K_i^dag`` with ``sum_i K_i^dag K_i = I``.
* Process (chi) matrix in the unnormalized Pauli basis {I, X, Y, Z}
  (``Tr(E_a^dag E_b) = 2 delta_ab``): ``E(rho) = sum_ab chi_ab E_a rho E_b^dag``.
* Choi state ``tau = (E (x) id)|Omega><Omega|`` with
  ``|Omega> = (|00> + |11>)/sqrt(2)``; the channel output is always the
  *first* tensor factor.

Operator "supervectors" use row-major (C-order) flattening, i.e.
``vec(A) = A.reshape(-1)``, so that ``vec(A) = (A (x) I) vec(I)``.  With this
convention the Choi state is the chi matrix pushed into the supervector basis
and divided by the qubit dimension.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TP_ATOL = 1e-10       # trace preservation: Kraus completeness and verify_cptp
KRAUS_ATOL = 1e-12    # chi eigenvalues within this of zero give no Kraus operator
EIG_FLOOR = -1e-10    # how negative an eigenvalue may be before CP is declared broken

PAULI_I = np.array([[1, 0], [0, 1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)

PAULI_BASIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
PAULI_LABELS = ("I", "X", "Y", "Z")


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Kraus form of a completely positive trace-preserving qubit map.

    Operators are stored read-only.  They must be 2x2 and complete; this is
    the one place a channel on anything but one qubit is refused.
    """

    operators: tuple

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        try:
            stack = np.array(ops, dtype=complex)
        except ValueError:          # operators of different shapes
            stack = None
        if stack is None or stack.shape[1:] != (2, 2):
            raise ValueError("Kraus operators must be 2x2: channels act "
                             "on one qubit")
        comp = np.einsum("kji,kjl->il", stack.conj(), stack)
        # written so that a NaN or infinite entry fails the test too
        if not np.abs(comp - PAULI_I).max() <= TP_ATOL:
            raise ValueError("Kraus operators do not satisfy the completeness relation")
        stack.setflags(write=False)
        object.__setattr__(self, "operators", tuple(stack))
        object.__setattr__(self, "_stack", stack)

    @cached_property
    def superop(self) -> np.ndarray:
        """S = sum_k K_k (x) K_k^*, acting on row-major supervectors:
        vec(sum_k K_k rho K_k^dag) = S vec(rho).  Built once, read-only.
        One broadcast product forms every term S_k[2i + k, 2j + l] =
        K_k[i, j] K_k^*[k, l] as ``np.kron`` does, and one reduction adds
        them to 0 in order, as ``sum`` of the krons does, so the bits
        (signed zeros too) are those of the summed krons."""
        ops = self._stack
        terms = ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]
        superop = np.add.reduce(terms, axis=0, initial=0).reshape(4, 4)
        superop.setflags(write=False)
        return superop


@dataclass(frozen=True)
class CptpReport:
    """Outcome of a CPTP check on a chi matrix."""

    trace_preserving: bool
    completely_positive: bool
    min_eigenvalue: float


def maximally_entangled(d: int) -> np.ndarray:
    """State vector (1/sqrt(d)) sum_i |i>|i> of length d^2."""
    if d < 2:
        raise ValueError("need dimension >= 2")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def kraus_to_chi(channel: KrausChannel) -> np.ndarray:
    """Chi matrix of a qubit Kraus channel.

    Each operator is expanded as ``K_i = sum_a c_ia E_a`` with
    ``c_ia = Tr(E_a^dag K_i)/2``; then ``chi_ab = sum_i c_ia conj(c_ib)``.
    """
    c = np.array([[np.trace(e.conj().T @ op) / 2.0 for e in PAULI_BASIS]
                  for op in channel.operators])
    return c.T @ c.conj()


def chi_to_kraus(chi: np.ndarray) -> KrausChannel:
    """Extract a Kraus set from a chi matrix by eigendecomposition.

    Eigenvalues below -KRAUS_ATOL raise; those up to KRAUS_ATOL are dropped.
    """
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError("chi matrix must be 4x4")
    w, v = np.linalg.eigh((chi + chi.conj().T) / 2.0)
    if w.min() < -KRAUS_ATOL:
        raise ValueError("chi matrix is not positive semidefinite")
    ops = []
    for k in range(4):
        if w[k] <= KRAUS_ATOL:
            continue
        op = sum(v[a, k] * PAULI_BASIS[a] for a in range(4))
        ops.append(np.sqrt(w[k]) * op)
    return KrausChannel(tuple(ops))


# the Pauli supervectors vec(E_a), one per row, and their conjugates
_PAULI_VECS = np.array([e.reshape(-1) for e in PAULI_BASIS])
_PAULI_VECS_CONJ = _PAULI_VECS.conj()
_PAULI_VECS.setflags(write=False)
_PAULI_VECS_CONJ.setflags(write=False)


def chi_to_choi(chi: np.ndarray) -> np.ndarray:
    """Choi state of a qubit channel: push chi into the supervector basis, /2.

    ``tau = (1/2) sum_ab chi_ab vec(E_a) vec(E_b)^dag`` with row-major vec.
    """
    chi = np.asarray(chi)
    if chi.shape != (4, 4):
        raise ValueError("chi matrix must be 4x4")
    return (_PAULI_VECS.T @ chi @ _PAULI_VECS.conj()) / 2.0


def choi_to_chi(tau: np.ndarray) -> np.ndarray:
    """Inverse of chi_to_choi: project the Choi state back onto Pauli supervectors."""
    tau = np.asarray(tau, dtype=complex)
    if tau.shape != (4, 4):
        raise ValueError("Choi state must be 4x4 for a qubit channel")
    # Pauli supervectors have norm^2 = 2, so <<E_a| (2 tau) |E_b>> / 4 = chi_ab
    return (_PAULI_VECS_CONJ @ (2.0 * tau) @ _PAULI_VECS.T) / 4.0


def kraus_to_choi(channel: KrausChannel) -> np.ndarray:
    """Choi state directly from Kraus operators (channel on the first factor)."""
    omega = maximally_entangled(2)
    tau = np.zeros((4, 4), dtype=complex)
    for op in channel.operators:
        v = np.kron(op, PAULI_I) @ omega
        tau += np.outer(v, v.conj())
    return tau


def verify_cptp(chi: np.ndarray) -> CptpReport:
    """Check trace preservation and complete positivity of a chi matrix.

    Trace preservation is tested directly on the operator identity
    ``sum_ab chi_ab E_b^dag E_a = I``; complete positivity as chi >= 0.
    """
    chi = np.asarray(chi, dtype=complex)
    acc = np.zeros((2, 2), dtype=complex)
    for a in range(4):
        for b in range(4):
            acc += chi[a, b] * (PAULI_BASIS[b].conj().T @ PAULI_BASIS[a])
    tp = bool(np.abs(acc - np.eye(2)).max() <= TP_ATOL)
    w = np.linalg.eigvalsh((chi + chi.conj().T) / 2.0)
    return CptpReport(trace_preserving=tp,
                      completely_positive=bool(w.min() >= EIG_FLOOR),
                      min_eigenvalue=float(w.min()))


def chi_from_parameters(c: np.ndarray) -> np.ndarray:
    """Build the trace-preserving chi matrix from 12 real parameters.

    ``c`` has length 13 (index 0 is ignored; chi_00 is recomputed from the
    unit-trace constraint) with the layout

    ``c[1..3]``  = diagonal entries chi_11, chi_22, chi_33,
    ``c[4],c[5]`` = Re, Im of chi_01,   ``c[6],c[7]`` = Re, Im of chi_02,
    ``c[8],c[9]`` = Re, Im of chi_03,
    ``c[10..12]`` = Re of chi_12, chi_13, chi_23.

    For a trace-preserving channel the remaining imaginary parts are fixed:
    Im chi_12 = -c[8], Im chi_13 = +c[6], Im chi_23 = -c[4].
    """
    c = np.asarray(c, dtype=float)
    chi = np.array([
        [1 - c[1] - c[2] - c[3], c[4] + 1j * c[5], c[6] + 1j * c[7], c[8] + 1j * c[9]],
        [c[4] - 1j * c[5], c[1], c[10] - 1j * c[8], c[11] + 1j * c[6]],
        [c[6] - 1j * c[7], c[10] + 1j * c[8], c[2], c[12] - 1j * c[4]],
        [c[8] - 1j * c[9], c[11] - 1j * c[6], c[12] + 1j * c[4], c[3]],
    ])
    return chi
