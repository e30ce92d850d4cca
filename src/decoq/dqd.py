"""Phonon-limited decoherence of a Si double-quantum-dot charge qubit.

Maps device parameters (deformation potential, sound speed, crystal density,
dot separation/radius, phonon wavevector) to

* a relaxation rate Gamma (closed form),
* a dephasing spectral function B^2(t) (panelized Gauss-Legendre quadrature
  of an oscillatory 1-d integral over the phonon wavevector q; the angular
  integral is done in closed form),
* error probabilities p1 = 1 - exp(-Gamma t), p2 = (1 - exp(-B^2))/2,
  optionally scaled by an operation count N and clamped to their calibrated
  ranges,
* the uncorrected measure D0 = max(p1, p2) and the 5-qubit-corrected measure
  D = max of the amplitude- and phase-damping QEC polynomials.

All internal units are SI.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

HBAR = 1.054571817e-34        # J s
EV = 1.602176634e-19          # J


# most q nodes one B^2 evaluation may allocate; the default grid
# (t <= 1e-9 s) peaks at about 2e6 after every node doubling
MAX_QUADRATURE_NODES = 2 ** 22


class ConvergenceError(Exception):
    """Quadrature failed to reach the requested tolerance within budget."""


class QuadratureSizeError(ValueError):
    """The panel rule at this t needs more than MAX_QUADRATURE_NODES nodes."""


@dataclass(frozen=True)
class DqdParams:
    """Device parameters in SI units."""
    deformation_potential: float   # J
    sound_speed: float             # m/s
    crystal_density: float         # kg/m^3
    dot_separation: float          # m
    dot_radius: float              # m
    phonon_wavevector: float       # 1/m
    hbar: float = HBAR

    def __post_init__(self):
        for name, value in vars(self).items():
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive")


def params_from_units(xi_eV: float = 3.3, s_m_per_s: float = 9.0e3,
                      rho_g_per_cm3: float = 2.33, L_nm: float = 50.0,
                      a_nm: float = 3.0, k_per_m: float = 1.0e8) -> DqdParams:
    """Build DqdParams from the conventional mixed units of the literature."""
    return DqdParams(
        deformation_potential=xi_eV * EV,
        sound_speed=s_m_per_s,
        crystal_density=rho_g_per_cm3 * 1000.0,
        dot_separation=L_nm * 1e-9,
        dot_radius=a_nm * 1e-9,
        phonon_wavevector=k_per_m,
    )


def default_params() -> DqdParams:
    """Si parameters: Xi=3.3 eV, s=9e3 m/s, rho=2.33 g/cm^3, L=50 nm, a=3 nm,
    k=1e8 1/m (the wavevector is device-specific and freely configurable)."""
    return params_from_units()


_JSON_KEYS = ("xi_eV", "s_m_per_s", "rho_g_per_cm3", "L_nm", "a_nm", "k_per_m")


def load_params(path) -> DqdParams:
    """Read DqdParams from a JSON file with unit-suffixed keys.

    Recognized keys: xi_eV, s_m_per_s, rho_g_per_cm3, L_nm, a_nm, k_per_m;
    missing keys fall back to the defaults, unknown keys are rejected.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("params file must hold a JSON object")
    unknown = set(raw) - set(_JSON_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter keys: {', '.join(sorted(unknown))}")
    return params_from_units(**{k: float(v) for k, v in raw.items()})


@dataclass(frozen=True)
class QuadratureConfig:
    """Node count and truncation for the B^2 integral over q.

    The q integral is cut off at q_max = q_max_factor / dot_radius (the
    integrand carries exp(-(a q)^2/2), so factor 8 leaves a 1e-14 tail) and
    split into panels short enough to resolve the sin^2 oscillations.  The
    per-panel node count starts at outer_nodes and doubles up to
    max_refinements times until the relative change drops below rel_tol.
    """
    outer_nodes: int = 32
    q_max_factor: float = 8.0
    rel_tol: float = 1e-7
    max_refinements: int = 6

    def __post_init__(self):
        if self.outer_nodes < 16:
            raise ValueError("outer_nodes must be at least 16")
        if self.q_max_factor < 6.0:
            raise ValueError("q_max_factor must be at least 6 "
                             "(smaller cutoffs truncate real mass)")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")


def relaxation_rate(params: DqdParams) -> float:
    """Gamma = Xi^2 k^3 / (4 pi rho s^2 hbar) * exp(-(a k)^2/2) * (1 - sinc(kL))."""
    xi = params.deformation_potential
    k = params.phonon_wavevector
    kl = k * params.dot_separation
    bracket = 1.0 - math.sin(kl) / kl if kl != 0.0 else 0.0
    return (xi * xi * k ** 3
            / (4.0 * math.pi * params.crystal_density
               * params.sound_speed ** 2 * params.hbar)
            * math.exp(-(params.dot_radius * k) ** 2 / 2.0)
            * bracket)


def _b2_once(params: DqdParams, t: float, nodes: int, q_max: float) -> float:
    """One panelized Gauss-Legendre evaluation of the B^2 q integral."""
    a = params.dot_radius
    ell = params.dot_separation
    s = params.sound_speed

    # the integrand oscillates with combined phase q*(2L + s t); keep each
    # panel to a few oscillation periods so the per-panel node count wins
    cycles = q_max * (2.0 * ell + s * t) / (2.0 * np.pi)
    panels = max(8.0, np.ceil(cycles / 4.0))
    if panels * nodes > MAX_QUADRATURE_NODES:         # sized before allocating
        raise QuadratureSizeError(
            f"B^2({t}) needs {panels * nodes:.3g} quadrature nodes, "
            f"above the limit of {MAX_QUADRATURE_NODES}")
    n_panels = int(panels)
    edges = np.linspace(0.0, q_max, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(nodes)

    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    q = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
    wq = (half[:, None] * w[None, :]).reshape(-1)

    # int_0^pi sin^2(q L cos(theta)) sin(theta) dtheta = 1 - sin(2qL)/(2qL);
    # Gauss nodes are interior, so q > 0
    two_ql = 2.0 * q * ell
    angular = 1.0 - np.sin(two_ql) / two_ql
    radial = q * np.exp(-(a * q) ** 2 / 2.0) * np.sin(q * s * t / 2.0) ** 2
    xi = params.deformation_potential
    pref = xi * xi / (np.pi ** 2 * params.hbar
                      * params.crystal_density * s ** 3)
    return pref * float((radial * angular) @ wq)


def spectral_function(params: DqdParams, t: float,
                      cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """B^2(t) by panelized quadrature with node-doubling convergence control.

    Raises QuadratureSizeError when t is so large that one evaluation would
    need more than MAX_QUADRATURE_NODES nodes.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    q_max = cfg.q_max_factor / params.dot_radius
    nodes = cfg.outer_nodes
    value = _b2_once(params, t, nodes, q_max)
    for _ in range(cfg.max_refinements):
        nodes *= 2
        refined = _b2_once(params, t, nodes, q_max)
        scale = max(abs(refined), 1e-300)
        if abs(refined - value) / scale < cfg.rel_tol:
            return refined
        value = refined
    raise ConvergenceError(
        f"B^2({t}) did not converge to rel_tol={cfg.rel_tol} "
        f"within {cfg.max_refinements} node doublings")


def amp_poly(p: float) -> float:
    """Corrected measure of the 5-qubit code under amplitude damping."""
    return 5.0 * p * p * (3.0 - 3.0 * p + p * p) / 8.0


def phase_poly(p: float) -> float:
    """Corrected measure of the 5-qubit code under phase damping."""
    return 10.0 * p * p * (1.0 - 2.0 * p + p * p)


def dqd_error_probs(params: DqdParams, t: float, n_ops: int = 1,
                    cfg: QuadratureConfig = QuadratureConfig()):
    """(p1, p2, clamped): relaxation and dephasing error probabilities.

    p1 = 1 - exp(-Gamma t) and p2 = (1 - exp(-B^2(t)))/2 are scaled by the
    operation count n_ops and clamped to their calibrated ranges ([0,1] and
    [0,1/2]); ``clamped`` reports whether either cap was hit.
    """
    t = float(t)          # a huge t overflows to inf without a numpy warning
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    p1 = -math.expm1(-relaxation_rate(params) * t)
    p2 = -math.expm1(-spectral_function(params, t, cfg)) / 2.0
    p1, p2 = n_ops * p1, n_ops * p2
    clamped = False
    if p1 > 1.0:
        p1, clamped = 1.0, True
    if p2 > 0.5:
        p2, clamped = 0.5, True
    return p1, p2, clamped


def dqd_decoherence(params: DqdParams, t: float, n_ops: int = 1,
                    cfg: QuadratureConfig = QuadratureConfig()):
    """(D0, D): uncorrected and 5-qubit-corrected decoherence at cycle time t.

    D0 is the larger of the two single-qubit error probabilities; D is the
    larger of the two corrected closed-form polynomials, evaluated at the
    scaled (and possibly clamped) probabilities.
    """
    p1, p2, _ = dqd_error_probs(params, t, n_ops, cfg)
    d0 = max(p1, p2)
    d = max(amp_poly(p1), phase_poly(p2))
    return d0, d
