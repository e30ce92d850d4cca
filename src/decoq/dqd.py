"""Phonon-limited decoherence of a Si double-quantum-dot charge qubit.

Maps device parameters (deformation potential, sound speed, crystal density,
dot separation/radius, phonon wavevector) to

* a relaxation rate Gamma (closed form),
* a dephasing spectral function B^2(t) (closed form: the integral over the
  phonon wavevector is a sum of Dawson's integrals, evaluated to double
  precision with the standard library's ``math``),
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

from .noise import FAMILIES

HBAR = 1.054571817e-34        # J s
EV = 1.602176634e-19          # J
# smallest dot separation accepted, in units of a/sqrt(2): the closed form of
# B^2(t) cancels two terms as it falls, with a relative error of about
# 1e-15/y^2 (at most 6.3e-11 against the quadrature over t = 1e-16 ... 1e-8 s
# at y = 1.001e-2)
MIN_SEPARATION_RATIO = 1e-2


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
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and strictly positive")
        # a device whose relaxation rate leaves floating point (a dot radius
        # of 1e300 nm) raises OverflowError or ZeroDivisionError here, before
        # the separation check would refuse it for another reason
        relaxation_rate(self)
        ratio = self.dot_separation * math.sqrt(2.0) / self.dot_radius
        if ratio < MIN_SEPARATION_RATIO:
            raise ValueError(
                f"dot_separation must be at least {MIN_SEPARATION_RATIO:g} "
                f"dot_radius/sqrt(2) for B^2(t) to hold its precision, "
                f"got {ratio:.3g}")


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

    Recognized keys: xi_eV, s_m_per_s, rho_g_per_cm3, L_nm, a_nm, k_per_m,
    each holding a JSON number; missing keys fall back to the defaults,
    unknown keys are rejected.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("params file must hold a JSON object")
    unknown = set(raw) - set(_JSON_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter keys: {', '.join(sorted(unknown))}")
    return params_from_units(**{k: _json_float(k, v)
                                for k, v in raw.items()})


def _json_float(key: str, value) -> float:
    """A JSON number as a float; an integer beyond float range becomes an
    infinity of its sign, which DqdParams then refuses by field name.  Any
    other JSON value (true, a string, null, ...) is refused here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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


# Dawson's integral F(x) = exp(-x^2) int_0^x exp(u^2) du, to double precision:
# a Taylor series below 0.2, Rybicki's sampling-theorem series
# F(x) = pi^(-1/2) sum_{n odd} exp(-(x - n h)^2)/n (error about
# exp(-(pi/2h)^2) ~ 1e-27 at h = 0.2) up to 10, the asymptotic series
# F(x) ~ (1/2x) sum_k (2k-1)!!/(2x^2)^k beyond.  G. B. Rybicki, Computers in
# Physics 3, 85 (1989); Cody, Paciorek & Thacher, Math. Comp. 24, 171 (1970).
_TAYLOR_MAX = 0.2
_ASYMPTOTIC_MIN = 10.0
_TAYLOR_TERMS = 10          # the next term is below 1e-21 at x = 0.2
_ASYMPTOTIC_TERMS = 14      # the next term is below 2e-18 at x = 10
_H = 0.2
# sample indices n - n0 around n0, the even integer nearest x/h; the outer
# samples lie at least 8.2 - 0.2 - 1 = 7 from x + d for any |d| <= 1 (below),
# where exp(-49) is negligible
_ODD = range(-41, 42, 2)
_SQRT_PI = math.sqrt(math.pi)


def _rybicki_samples(x: float):
    """Yield (u, n): each odd sample index n near x and its offset
    u = x - n h."""
    n0 = 2.0 * round(x / (2.0 * _H))
    base = x - n0 * _H
    for k in _ODD:
        yield base - k * _H, k + n0


def dawson(x: float) -> float:
    """Dawson's integral F(x) = exp(-x^2) int_0^x exp(u^2) du (odd in x)."""
    ax = abs(x)
    if ax < _TAYLOR_MAX:
        # F(x) = x sum_k (-2x^2)^k/(2k+1)!!
        s = 1.0
        for k in range(_TAYLOR_TERMS - 1, 0, -1):
            s = 1.0 - 2.0 * ax * ax * s / (2 * k + 1)
        value = ax * s
    elif ax < _ASYMPTOTIC_MIN:
        value = math.fsum(math.exp(-u * u) / n
                          for u, n in _rybicki_samples(ax)) / _SQRT_PI
    else:
        w = 0.5 / ax / ax                    # 0 for a huge (or infinite) x
        s = 1.0
        for k in range(_ASYMPTOTIC_TERMS - 1, 0, -1):
            s = 1.0 + (2 * k - 1) * w * s
        value = 0.5 * s / ax
    return math.copysign(value, x)


def _second_difference(y: float, d: float) -> float:
    """F(y) - F(y + d)/2 - F(y - d)/2, without cancellation at small d.

    For d <= 1 each Rybicki Gaussian is differenced exactly:
    exp(-(u+d)^2)/2 + exp(-(u-d)^2)/2 - exp(-u^2)
    = exp(-u^2) (expm1(-d^2) cosh(2ud) + 2 sinh(ud)^2).
    Beyond that the plain difference is used: its rounding error, about
    1e-16 F(y), is then at most about 1e-16 F(y)/y of B^2.
    """
    if d <= 1.0:
        m = math.expm1(-d * d)
        terms = []
        for u, n in _rybicki_samples(y):
            sh = math.sinh(u * d)
            terms.append(math.exp(-u * u)
                         * (m * math.cosh(2.0 * u * d) + 2.0 * (sh * sh)) / n)
        return -math.fsum(terms) / _SQRT_PI
    return dawson(y) - 0.5 * dawson(y + d) - 0.5 * dawson(y - d)


def spectral_function(params: DqdParams, t: float) -> float:
    """B^2(t) in closed form.

    B^2 = pref int_0^inf q exp(-beta q^2) sin^2(c q/2) (1 - sin(2qL)/(2qL)) dq
    with beta = a^2/2, c = s t and pref = Xi^2/(pi^2 hbar rho s^3).  With
    y = L/sqrt(beta), delta = c/(2 sqrt(beta)) and Dawson's integral F,

        B^2 = pref [c F(delta)/(4 beta^(3/2))
                    - (F(y) - F(y + delta)/2 - F(y - delta)/2)/(4 L sqrt(beta))],

    which tends to pref [1/(2a^2) - F(y)/(4 L sqrt(beta))] as t -> inf; that
    limit is returned once delta overflows.  The two terms cancel as y -> 0,
    where B^2 ~ y^2: the relative error grows like 1e-15/y^2 there, so
    DqdParams refuses y below MIN_SEPARATION_RATIO, and a result that
    round-off pushes below zero is returned as 0.
    """
    t = float(t)          # a huge t overflows to inf without a numpy warning
    if t < 0.0:
        raise ValueError("t must be >= 0")
    a = params.dot_radius
    ell = params.dot_separation
    s = params.sound_speed
    xi = params.deformation_potential
    pref = xi * xi / (math.pi ** 2 * params.hbar * params.crystal_density
                      * s ** 3)
    root_beta = a / math.sqrt(2.0)
    delta = s * t / (2.0 * root_beta)
    # c F(delta)/(4 beta^(3/2)) = delta F(delta)/a^2, and delta F(delta) -> 1/2
    delta_f = 0.5 if math.isinf(delta) else delta * dawson(delta)
    return pref * max(0.0, delta_f / (a * a)
                      - _second_difference(ell / root_beta, delta)
                      / (4.0 * ell * root_beta))


def amp_poly(p: float) -> float:
    """Corrected measure of the 5-qubit code under amplitude damping."""
    return 5.0 * p * p * (3.0 - 3.0 * p + p * p) / 8.0


def phase_poly(p: float) -> float:
    """Corrected measure of the 5-qubit code under phase damping."""
    return 10.0 * p * p * (1.0 - 2.0 * p + p * p)


_RELAXATION = FAMILIES["amplitude_damping"]
_DEPHASING = FAMILIES["phase_damping"]


def dqd_error_probs(params: DqdParams, t: float, n_ops: int = 1):
    """(p1, p2, clamped): relaxation and dephasing error probabilities.

    p1 = 1 - exp(-Gamma t) and p2 = (1 - exp(-B^2(t)))/2, the calibrations of
    amplitude and phase damping, are scaled by the operation count n_ops and
    clamped to those families' caps (1 and 1/2); ``clamped`` reports whether
    either cap was hit.
    """
    t = float(t)          # a huge t overflows to inf without a numpy warning
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if n_ops < 1:
        raise ValueError("n_ops must be >= 1")
    try:
        float(n_ops)
    except OverflowError:
        raise ValueError("n_ops is too large to convert to a float") from None
    p1 = n_ops * _RELAXATION.calibrate(relaxation_rate(params) * t)
    p2 = n_ops * _DEPHASING.calibrate(spectral_function(params, t))
    clamped = p1 > _RELAXATION.cap or p2 > _DEPHASING.cap
    return min(p1, _RELAXATION.cap), min(p2, _DEPHASING.cap), clamped


def decoherence_pair(p1: float, p2: float):
    """(D0, D) at the error probabilities (p1, p2): the larger bare measure
    and the larger of the two 5-qubit-corrected closed-form polynomials."""
    return max(p1, p2), max(amp_poly(p1), phase_poly(p2))
