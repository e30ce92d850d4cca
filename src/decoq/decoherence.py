"""How far a channel moves states: D = sup_rho ||E(rho) - rho||.

The norm is the operator norm (largest eigenvalue magnitude).  Because
E - id is affine in rho and the norm is convex, the supremum is attained on
pure states, i.e. on the Bloch sphere; every routine here therefore works
with Bloch vectors P.

A trace-preserving qubit channel acts on Bloch vectors as the affine map
P -> A P + u (``bloch_map`` reads A and u off chi with one constant table
of Pauli traces).  E(rho_P) - rho_P = ((A - I) P + u).sigma / 2 has the
eigenvalues +-|(A - I) P + u| / 2, so

    D = max_{|P| = 1} |(A - I) P + u| / 2.

Maximizing this convex function over the unit ball is a trust-region
subproblem with an exact solution through a secular equation (More &
Sorensen 1983; Gander, Golub & von Matt, "A constrained eigenvalue
problem", 1989).

Four routes to D are provided:

* measure_diagonal   -- closed form for diagonal chi (Pauli channels),
* measure_quadratic  -- sigma_max(A - I) / 2 for unital channels (u = 0),
* measure_general    -- the secular-equation solution for any channel,
* measure_by_definition -- brute-force grid maximum straight from the Kraus
  operators, used as an independent cross-check of the other three.
"""
from __future__ import annotations

import numpy as np

from .channels import PAULI_BASIS, KrausChannel

DIAG_RTOL = 1e-10      # off-diagonal chi entries, per unit of error weight
UNITAL_RTOL = 1e-12    # Bloch shift |u_i|, per unit of the largest |A - I|_ij
ROUNDOFF_ATOL = 1e-15  # absolute floor of both tolerances
NEWTON_MAX_ITER = 100  # secular-equation solves take at most about a dozen

# _PAULI_TRACES[i, a, j, b] = Tr(s_i s_a s_j s_b) / 2 over s = I, X, Y, Z:
# contracted with chi_ab it gives the Bloch component i of E(s_j / 2).
_PAULI_TRACES = 0.5 * np.einsum("ixy,ayz,jzw,bwx->iajb",
                                *[np.array(PAULI_BASIS)] * 4)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly uniform points on the unit sphere (golden-angle lattice)."""
    if n < 1:
        raise ValueError("need at least one point")
    i = np.arange(n) + 0.5
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def is_diagonal(chi: np.ndarray) -> bool:
    """True when chi is diagonal (a Pauli channel) up to rounding.

    The tolerance is relative to the error weight chi_11 + chi_22 + chi_33,
    of which D is at least 2/3, plus the absolute floor ROUNDOFF_ATOL.  The
    floor is needed because a simulated shor9 depolarizing channel at
    p = 1e-6 has off-diagonal round-off of 4.2e-17 against a relative
    bound of 3.6e-21.  It also admits amplitude damping below
    gamma t = 4e-15, whose off-diagonal entries are gamma t / 4: there
    ``measure_auto`` returns the diagonal rule's gamma t / 2, half the
    true D = gamma t.
    """
    chi = np.asarray(chi)
    weight = abs((chi[1, 1] + chi[2, 2] + chi[3, 3]).real)
    off = np.abs(chi[_OFF_DIAGONAL]).max()
    return bool(off <= DIAG_RTOL * weight + ROUNDOFF_ATOL)


def measure_diagonal(chi: np.ndarray) -> float:
    """D for a diagonal chi matrix: chi1 + chi2 + chi3 - min(chi1, chi2, chi3).

    Equivalently the largest pairwise sum of the three Pauli weights.  D is
    a norm, so a sum that round-off leaves below zero (a simulated weight
    of -1e-17, say) is 0.  ``chi`` is the 4x4 matrix, which is checked with
    ``is_diagonal``, or its diagonal alone (as ``measure_auto`` passes it,
    having checked the matrix).
    """
    chi = np.asarray(chi)
    if chi.ndim == 2:
        if not is_diagonal(chi):
            raise ValueError("chi matrix is not diagonal; use the general "
                             "measure")
        chi = np.diag(chi)
    c1, c2, c3 = chi[1].real, chi[2].real, chi[3].real
    return max(c1 + c2 + c3 - min(c1, c2, c3), 0.0)


def bloch_map(chi: np.ndarray) -> tuple:
    """(A, u) of the Bloch action P -> A P + u of a trace-preserving chi.

    R_ij = sum_ab chi_ab Tr(s_i s_a s_j s_b) / 2 is the Bloch component i of
    E(s_j / 2); A = R[1:, 1:] and u = R[1:, 0].
    """
    chi = np.asarray(chi)
    if chi.shape != (4, 4):
        raise ValueError("chi matrix must be 4x4")
    r = np.einsum("iajb,ab->ij", _PAULI_TRACES, chi).real
    return r[1:, 1:], r[1:, 0]


def _displacement_map(chi: np.ndarray) -> tuple:
    """(A - I, u) for a trace-preserving chi.

    The chi_00 term of R is chi_00 times the identity, so A - I is the Bloch
    map of chi with chi_00 replaced by chi_00 - Tr chi = -(chi_11 + chi_22 +
    chi_33); near the identity channel, A - I by subtraction loses digits.
    """
    chi = np.array(chi, dtype=complex)
    chi[0, 0] = -(chi[1, 1] + chi[2, 2] + chi[3, 3])
    return bloch_map(chi)


def _is_unital(k: np.ndarray, u: np.ndarray) -> bool:
    """u = 0 up to rounding: dropping u moves D by at most |u| / 2."""
    tol = UNITAL_RTOL * np.abs(k).max() + ROUNDOFF_ATOL
    return bool(np.abs(u).max() <= tol)


def measure_quadratic(chi: np.ndarray) -> float:
    """D = sigma_max(A - I) / 2 for a unital channel (u = 0).

    D^2 is then the largest value of the quadratic form
    P^T (A - I)^T (A - I) P / 4 on the unit sphere.
    """
    k, u = _displacement_map(chi)
    if not _is_unital(k, u):
        raise ValueError("chi is not unital (its Bloch map shifts the "
                         "origin); use measure_general")
    return float(np.linalg.norm(k, 2) / 2.0)


def _ball_argmax(mu: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Unit x maximizing x.diag(mu).x + 2 gt.x, for ascending ``mu``.

    The maximizer is x_i = gt_i / (s + d_i) with d_i = mu_max - mu_i and the
    root s >= 0 of the secular equation sum_i gt_i^2 / (s + d_i)^2 = 1.
    Newton's method on 1/|x(s)| - 1, which is concave and increasing in s,
    rises monotonically to the root from the lower bound max_i(|gt_i| - d_i).
    Hard case: if gt has no component along the top eigenvector and
    |x(0)| <= 1, then s = 0 and the rest of the unit length goes along it.
    """
    d = mu[-1] - mu
    live = gt != 0.0               # zero components of gt stay zero in x
    g, dl = gt[live], d[live]
    x = np.zeros(3)
    s = max(float(np.max(np.abs(g) - dl, initial=0.0)), 0.0)
    y = g / (s + dl)               # s = 0 only if every live d_i >= |g_i| > 0
    if s == 0.0 and y @ y <= 1.0:  # hard case
        x[live] = y
        x[-1] = np.sqrt(1.0 - y @ y)
        return x
    hi = float(np.linalg.norm(g))  # |x(hi)| <= 1 caps the iterates
    for _ in range(NEWTON_MAX_ITER):
        n2 = float(y @ y)
        step = n2 * (np.sqrt(n2) - 1.0) / float(np.sum(y * y / (s + dl)))
        s_next = min(s + step, hi)
        if not s_next > s:
            break
        s = s_next
        y = g / (s + dl)
    x[live] = y / np.linalg.norm(y)
    return x


def measure_general(chi: np.ndarray) -> float:
    """D for any trace-preserving chi, exact to rounding.

    With K = A - I, M = K^T K and g = K^T u, the maximum of
    |K P + u|^2 = P.M P + 2 g.P + |u|^2 over |P| <= 1 is attained at
    P = (lambda I - M)^{-1} g on the unit sphere, lambda >= mu_max; in the
    eigenbasis of M that is the secular equation solved by _ball_argmax.

    D is homogeneous of degree 1 in (K, u).  Below 2^-200, M would square K
    into subnormals, so a weak channel is solved on (K, u) scaled by a power
    of two, which is exact, and D is scaled back.
    """
    k, u = _displacement_map(chi)
    e = 0
    big = max(np.abs(k).max(), np.abs(u).max())
    if big < 2.0 ** -200:
        if big == 0.0:
            return 0.0
        e = int(np.frexp(big)[1])
        k, u = np.ldexp(k, -e), np.ldexp(u, -e)
    mu, v = np.linalg.eigh(k.T @ k)
    p = v @ _ball_argmax(mu, v.T @ (k.T @ u))
    return float(np.ldexp(np.linalg.norm(k @ p + u) / 2.0, e))


def measure_by_definition(channel: KrausChannel, grid_density: int = 10_000) -> float:
    """Brute-force D: max over a Bloch-sphere grid of ||E(rho) - rho||.

    Independent of the chi-based formulas: pure states are built from the
    grid, pushed through the Kraus operators, and the displacement's largest
    eigenvalue magnitude is read off directly (for a Hermitian 2x2 with mean
    eigenvalue h and determinant det it is |h| + sqrt(h^2 - det)).  Accurate
    to the grid resolution only.
    """
    if grid_density < 8:
        raise ValueError("grid_density must be at least 8")
    pts = fibonacci_sphere(grid_density)
    rho = np.empty((grid_density, 2, 2), dtype=complex)
    rho[:, 0, 0] = (1.0 + pts[:, 2]) / 2.0
    rho[:, 1, 1] = (1.0 - pts[:, 2]) / 2.0
    rho[:, 0, 1] = (pts[:, 0] - 1j * pts[:, 1]) / 2.0
    rho[:, 1, 0] = (pts[:, 0] + 1j * pts[:, 1]) / 2.0
    delta = -rho
    for op in channel.operators:
        delta += np.einsum("ab,nbc,dc->nad", op, rho, op.conj())
    h = (delta[:, 0, 0] + delta[:, 1, 1]).real / 2.0
    det = (delta[:, 0, 0] * delta[:, 1, 1]
           - delta[:, 0, 1] * delta[:, 1, 0]).real
    vals = np.abs(h) + np.sqrt(np.maximum(h * h - det, 0.0))
    return float(vals.max())


def measure_auto(chi: np.ndarray) -> float:
    """Dispatch: diagonal closed form, else sigma_max when u = 0, else the
    secular equation.

    The routes are looked up as module globals at each call, so a wrapper
    set on this module (a tracer, say) sees every dispatch.
    """
    chi = np.asarray(chi, dtype=complex)
    tr = chi.trace().real
    if abs(tr) > 1e-8 and abs(tr - 1.0) > 1e-14:
        chi = chi / tr
    if is_diagonal(chi):
        return measure_diagonal(np.diag(chi))
    if _is_unital(*_displacement_map(chi)):
        return measure_quadratic(chi)
    return measure_general(chi)
