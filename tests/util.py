"""Independent oracles and state helpers shared across tests.

The helpers build test inputs and apply a channel the textbook way:

* ``bloch_density`` and ``random_density`` make qubit and register states,
  ``random_kraus_channel`` a random CPTP qubit channel,
* ``vectorize`` and ``devectorize`` are the row-major supervector maps,
* ``apply_channel`` and ``apply_chi`` apply a channel in its Kraus and chi
  forms, and ``bell_choi_reference`` is the Choi state a perfect correction
  round returns.

The oracles deliberately avoid the library's own measure implementations:

* ``bloch_transfer`` reads the affine Bloch action (A, u) of a channel off
  its chi matrix by applying it to basis operators,
* ``exact_ball_max`` maximizes ||B P + d|| over the unit ball exactly via
  the eigenvalue secular equation (the displacement norm of a channel is
  2*||B P + d|| ... with B=(A-I)/2, d=u/2 it IS the decoherence measure),
* ``random_tp_chi`` draws random trace-preserving chi matrices by rejection
  sampling on positive semidefiniteness,
* ``reference_choi`` simulates a code's corrected Choi state with dense
  operators only, independently of ``decoq.sim``'s contractions,
* ``tensordot_apply_gate`` and ``tensordot_apply_channel_wire`` apply a gate
  or a per-wire channel by ``np.tensordot`` and ``np.moveaxis``, the
  contraction ``decoq.sim`` replaced with blocks of one direct ``np.dot``
  each: the same products, so the results must be equal bit for bit, and
  ``tensordot_simulate_choi`` composes them into a whole correction round,
* ``reference_b2`` and ``reference_dawson`` evaluate the dephasing integral
  B^2(t) and Dawson's integral by panelized Gauss-Legendre quadrature,
  independently of ``decoq.dqd``'s closed form.
"""
import functools
import math

import numpy as np

from decoq.channels import (PAULI_BASIS, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z,
                            KrausChannel, chi_from_parameters,
                            maximally_entangled)
from decoq.sim import partial_trace

SIGMA = PAULI_BASIS[1:]


def bloch_density(px, py, pz):
    """Density matrix (I + p.sigma)/2 for a Bloch vector with |p| <= 1."""
    p = np.array([px, py, pz], dtype=float)
    if p @ p > 1.0 + 1e-9:
        raise ValueError("Bloch vector lies outside the unit ball")
    return (PAULI_I + px * PAULI_X + py * PAULI_Y + pz * PAULI_Z) / 2.0


def random_density(dim, rng):
    """Random full-rank density matrix (normalized Wishart)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus_channel(rng, n_ops=4):
    """Random CPTP qubit channel: QR completion of a Gaussian block column.

    A (2*n_ops x 2) complex Gaussian matrix is orthonormalized; its 2x2 row
    blocks then satisfy the completeness relation exactly.
    """
    g = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
    q, _ = np.linalg.qr(g)
    return KrausChannel(tuple(q[2 * i:2 * i + 2, :] for i in range(n_ops)))


def vectorize(a):
    """Row-major supervector of a matrix: [A11, ..., A1d, A21, ..., Add]."""
    return np.asarray(a).reshape(-1)


def devectorize(v):
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError("supervector length is not a perfect square")
    return v.reshape(d, d)


def apply_channel(channel, rho):
    """Apply a Kraus channel to a qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("state dimension does not match the channel")
    out = np.zeros_like(rho)
    for op in channel.operators:
        out += op @ rho @ op.conj().T
    return out


def apply_chi(chi, rho):
    """Apply a qubit channel given as a chi matrix in the Pauli basis."""
    chi = np.asarray(chi)
    if chi.shape != (4, 4):
        raise ValueError("chi matrix must be 4x4")
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for a in range(4):
        for b in range(4):
            if chi[a, b] != 0:
                out += chi[a, b] * (PAULI_BASIS[a] @ rho
                                    @ PAULI_BASIS[b].conj().T)
    return out


def bell_choi_reference():
    """The ideal output |Omega><Omega| a perfect correction run returns."""
    psi = maximally_entangled(2)
    return np.outer(psi, psi.conj())


def bloch_transfer(chi):
    """(A, u) with Bloch action P -> A P + u, computed by direct application."""
    a = np.zeros((3, 3))
    u = np.zeros(3)
    for j in range(3):
        out = apply_chi(chi, SIGMA[j] / 2)
        for i in range(3):
            a[i, j] = np.trace(SIGMA[i] @ out).real
    out = apply_chi(chi, np.eye(2, dtype=complex) / 2)
    for i in range(3):
        u[i] = np.trace(SIGMA[i] @ out).real
    return a, u


def exact_ball_max(b, d):
    """max over |P| <= 1 of ||b P + d||, solved exactly (3x3 secular equation)."""
    m = b.T @ b
    g = b.T @ d
    mu, vec = np.linalg.eigh(m)
    gt = vec.T @ g
    mmax = mu[-1]
    if np.linalg.norm(g) < 1e-14:
        return float(np.sqrt(max(mmax + d @ d, 0.0)))

    def nrm2(lam):
        return float(np.sum((gt / (lam - mu)) ** 2))

    if abs(gt[-1]) < 1e-13:
        # hard case: gradient has no component along the top eigenvector
        mask = mu < mmax - 1e-13
        n2 = float(np.sum((gt[mask] / (mmax - mu[mask])) ** 2))
        if n2 < 1.0:
            part = vec[:, mask] @ (gt[mask] / (mmax - mu[mask]))
            p = part + np.sqrt(1.0 - n2) * vec[:, -1]
            return float(np.linalg.norm(b @ p + d))
    lo = mmax + 1e-15
    hi = mmax + np.linalg.norm(g) + 1.0
    while nrm2(hi) > 1.0:
        hi = mmax + 2 * (hi - mmax)
    while nrm2(lo) < 1.0:
        lo = mmax + (lo - mmax) / 2
        if lo - mmax < 1e-300:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if nrm2(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    p = vec @ (gt / (0.5 * (lo + hi) - mu))
    p /= np.linalg.norm(p)
    return float(np.linalg.norm(b @ p + d))


def measure_oracle(chi):
    """Decoherence measure via the independent transfer-matrix route."""
    a, u = bloch_transfer(chi)
    return exact_ball_max((a - np.eye(3)) / 2, u / 2)


def random_tp_chi(rng, zero_linear=True):
    """A random PSD trace-preserving chi matrix (rejection sampling)."""
    while True:
        c = np.zeros(13)
        c[1:4] = rng.uniform(0.0, 0.25, 3)
        c[5:13:2] = rng.uniform(-0.1, 0.1, 4)
        c[6:13:2] = rng.uniform(-0.1, 0.1, 4)
        if zero_linear:
            c[4] = c[6] = c[8] = 0.0
        else:
            c[4], c[6], c[8] = rng.uniform(-0.08, 0.08, 3)
        c[0] = 1.0 - c[1] - c[2] - c[3]
        chi = chi_from_parameters(c)
        if np.linalg.eigvalsh(chi).min() >= 1e-9:
            return chi


def embed_operator(matrix, wires, m):
    """``matrix`` acting on ``wires`` (in that order) as a 2^m x 2^m operator,
    summed from np.kron products of 2x2 matrix units and identities."""
    wires = tuple(wires)
    k = len(wires)
    full = np.zeros((2 ** m, 2 ** m), dtype=complex)
    for row, col in zip(*np.nonzero(matrix)):
        term = np.ones((1, 1))
        for w in range(m):
            factor = np.eye(2)
            if w in wires:
                bit = k - 1 - wires.index(w)
                factor = np.zeros((2, 2))
                factor[(row >> bit) & 1, (col >> bit) & 1] = 1.0
            term = np.kron(term, factor)
        full += matrix[row, col] * term
    return full


def kraus_sum_on_wire(rho, operators, wire):
    """sum_k K_k rho K_k^dag with each 2x2 K_k on one wire, entry by entry:
    (K rho K^dag)[i, k] = sum_{j, l} K[i, j] rho[j, l] conj(K[k, l])."""
    m = rho.shape[0].bit_length() - 1
    a, b = 2 ** wire, 2 ** (m - wire - 1)
    r = rho.reshape(a, 2, b, a, 2, b)
    out = np.zeros_like(r)
    for op in operators:
        for i, j in zip(*np.nonzero(op)):
            for k, l in zip(*np.nonzero(op)):
                out[:, i, :, :, k, :] += (op[i, j] * op[k, l].conj()
                                          * r[:, j, :, :, l, :])
    return out.reshape(rho.shape)


def _tensordot_contract(tens, op, axes):
    k = len(axes)
    u = op.reshape((2,) * (2 * k))
    tens = np.tensordot(u, tens, axes=(tuple(range(k, 2 * k)), tuple(axes)))
    return np.moveaxis(tens, range(k), axes)


def tensordot_apply_gate(state, gate):
    """psi -> U psi or rho -> U rho U^dag by tensor contraction."""
    m = state.shape[0].bit_length() - 1
    tens = _tensordot_contract(state.reshape((2,) * (state.ndim * m)),
                               gate.matrix, gate.wires)
    if state.ndim == 2:
        tens = _tensordot_contract(tens, gate.matrix.conj(),
                                   tuple(m + w for w in gate.wires))
    return tens.reshape(state.shape)


def tensordot_apply_channel_wire(rho, operators, wire):
    """The superoperator sum_k K_k (x) K_k^* contracted with one wire's
    (row, column) axes."""
    m = rho.shape[0].bit_length() - 1
    superop = sum(np.kron(op, op.conj()) for op in operators)
    return _tensordot_contract(rho.reshape((2,) * (2 * m)), superop,
                               (wire, m + wire)).reshape(rho.shape)


def tensordot_simulate_choi(code, per_wire):
    """``decoq.sim.simulate_choi`` out of the tensordot oracles: the fused
    encoder on the pure state, one superoperator per noisy wire, and the
    fused decoder, each contraction by ``np.tensordot`` into a new array;
    then the library's own partial trace."""
    m = code.n + 1
    psi = np.zeros(2 ** m, dtype=complex)
    psi[0] = psi[(1 << (m - 1)) + (1 << (m - 2))] = 1.0 / np.sqrt(2.0)
    for gate in code.encode_gates:
        psi = tensordot_apply_gate(psi, gate)
    rho = np.outer(psi, psi.conj())
    for w, ch in enumerate(per_wire):
        if ch is not None:
            rho = tensordot_apply_channel_wire(rho, ch.operators, 1 + w)
    for gate in code.decode_gates:
        rho = tensordot_apply_gate(rho, gate)
    return partial_trace(rho, keep=(1, 0))


@functools.lru_cache(maxsize=16)
def _gates_unitary(gates, n):
    """Product of the embedded gate operators (cached per gate tuple)."""
    u = np.eye(2 ** n, dtype=complex)
    for g in gates:
        u = embed_operator(g.matrix, g.wires, n) @ u
    return u


def reference_choi(code, per_wire):
    """Choi state (data factor first) of ``code`` with one channel (or None)
    per code wire, written without decoq.sim: np.kron-embedded gates, a
    Kraus sum per wire, and a matrix partial trace."""
    n = code.n
    dim = 2 ** n
    enc = _gates_unitary(code.encoder.gates, n)
    # |Omega> = (|0>|0_L> + |1>|1_L>)/sqrt2 with the reference wire first,
    # |b_L> = Enc |b 0...0> (the data wire is the top bit)
    psi = np.concatenate([enc[:, 0], enc[:, dim // 2]]) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    for w, ch in enumerate(per_wire):
        if ch is not None:
            rho = kraus_sum_on_wire(rho, ch.operators, 1 + w)
    dec = _gates_unitary(code.decoder.gates + code.recovery, n)
    tau = np.zeros((2, 2, 2, 2), dtype=complex)      # (data, ref, data', ref')
    for r in (0, 1):
        for rp in (0, 1):
            block = dec @ rho[r * dim:(r + 1) * dim,
                              rp * dim:(rp + 1) * dim] @ dec.conj().T
            tau[:, r, :, rp] = np.trace(block.reshape(2, dim // 2, 2, dim // 2),
                                        axis1=1, axis2=3)
    return tau.reshape(4, 4)


def _panel_rule(lo, hi, panels, nodes):
    """Nodes and weights of a Gauss-Legendre rule on equal panels of [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * x[None, :]).reshape(-1),
            (half[:, None] * w[None, :]).reshape(-1))


def reference_b2(params, t, nodes=64):
    """B^2(t) as the 1-d q integral, by panelized Gauss-Legendre quadrature.

    The integrand carries exp(-(a q)^2/2), so the cut at q_max = 12/a drops a
    tail below 1e-30; each panel spans at most 4 periods of the combined
    phase q (2L + s t).  The angular integral is in closed form,
    int_0^pi sin^2(q L cos theta) sin theta dtheta = 1 - sin(2qL)/(2qL).
    """
    a, ell, s = params.dot_radius, params.dot_separation, params.sound_speed
    q_max = 12.0 / a
    cycles = q_max * (2.0 * ell + s * t) / (2.0 * np.pi)
    q, wq = _panel_rule(0.0, q_max, max(8, math.ceil(cycles / 4.0)), nodes)
    two_ql = 2.0 * q * ell                  # Gauss nodes are interior: q > 0
    angular = 1.0 - np.sin(two_ql) / two_ql
    radial = q * np.exp(-(a * q) ** 2 / 2.0) * np.sin(q * s * t / 2.0) ** 2
    pref = params.deformation_potential ** 2 / (
        np.pi ** 2 * params.hbar * params.crystal_density * s ** 3)
    return pref * math.fsum(radial * angular * wq)


def reference_dawson(x, panels=32, nodes=32):
    """Dawson's integral F(x) = int_0^x exp((tau - x)(tau + x)) dtau.

    With v = x - tau the integrand is exp(-v (2x - v)), which falls below
    exp(-40) of its peak beyond v = 40/x; the rule covers v in
    [0, min(x, 40/x)] (x > 0; F is odd).
    """
    if x < 0.0:
        return -reference_dawson(-x, panels, nodes)
    v, wv = _panel_rule(0.0, min(x, 40.0 / x), panels, nodes)
    return math.fsum(np.exp(-v * (2.0 * x - v)) * wv)
