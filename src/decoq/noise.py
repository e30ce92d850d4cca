"""Single-qubit noise channels and their calibration to an error probability.

Five channel families are provided.  Each has a *native* parameter (a flip
probability, a decay exponent Gamma*t, or a dephasing exponent B^2) and a
*calibrated* probability p defined as the decoherence measure D of the bare
single-qubit channel.  The calibration maps are invertible on the stated
ranges, so circuits driven by different physical channels can be compared at
equal single-qubit error strength.

    kind                native       calibrated p = D0(native)
    bit_flip            p in [0,1]   p
    phase_flip          p in [0,1]   p
    depolarizing        p in [0,2/3] p
    amplitude_damping   Gamma*t >= 0 1 - exp(-Gamma*t)
    phase_damping       B^2 >= 0     (1 - exp(-B^2))/2

Every family's Kraus and chi matrices act in the computational basis.  A
NoiseSpec records amplitude damping's physical frame (the |+>/|-> eigenbasis
of the double-dot coupling) as ``frame="plus_minus"``, but the tag is not
applied anywhere, and the frame does change QEC results: the 3-qubit bit-flip
code under amplitude damping at Gamma*t = 0.05 gives D = 0.0363 with the
matrices as they are and 0.0701 with them conjugated by a Hadamard.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, KrausChannel

CHANNEL_KINDS = ("bit_flip", "phase_flip", "depolarizing",
                 "amplitude_damping", "phase_damping")

_RANGE_MSG = {
    "bit_flip": "p must lie in [0, 1]",
    "phase_flip": "p must lie in [0, 1]",
    "depolarizing": "p must lie in [0, 2/3]",
    "amplitude_damping": "gamma_t must be >= 0",
    "phase_damping": "b_sq must be >= 0",
}


@dataclass(frozen=True)
class NoiseSpec:
    """A channel family plus its native parameter and calibrated probability.

    ``frame`` names the physical basis of the family, "computational" for
    the flip/depolarizing/phase-damping families and "plus_minus" for
    amplitude damping; it is a label only (the matrices are not rotated).
    """
    kind: str
    native_param: float
    calibrated_p: float
    frame: str = "computational"


def bit_flip(p: float) -> KrausChannel:
    """X error with probability p: operators {sqrt(1-p) I, sqrt(p) X}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(_RANGE_MSG["bit_flip"])
    return KrausChannel((np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * PAULI_X))


def phase_flip(p: float) -> KrausChannel:
    """Z error with probability p: operators {sqrt(1-p) I, sqrt(p) Z}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(_RANGE_MSG["phase_flip"])
    return KrausChannel((np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * PAULI_Z))


def depolarizing(p: float) -> KrausChannel:
    """Isotropic Pauli noise with total error weight p (each axis p/2).

    Complete positivity restricts p to [0, 2/3]; the endpoint is allowed.
    """
    if not 0.0 <= p <= 2.0 / 3.0 + 1e-15:
        raise ValueError(_RANGE_MSG["depolarizing"])
    w = np.sqrt(max(1.0 - 1.5 * p, 0.0))
    h = np.sqrt(p / 2.0)
    return KrausChannel((w * PAULI_I, h * PAULI_X, h * PAULI_Y, h * PAULI_Z))


def amplitude_damping(gamma_t: float) -> KrausChannel:
    """Energy relaxation |1> -> |0> with decay exponent Gamma*t."""
    if gamma_t < 0.0:
        raise ValueError(_RANGE_MSG["amplitude_damping"])
    decay = math.exp(-gamma_t)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(decay)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(-math.expm1(-gamma_t))], [0.0, 0.0]],
                  dtype=complex)
    return KrausChannel((k0, k1))


def phase_damping(b_sq: float) -> KrausChannel:
    """Pure dephasing with exponent B^2: identity plus two projector terms."""
    if b_sq < 0.0:
        raise ValueError(_RANGE_MSG["phase_damping"])
    keep = math.exp(-b_sq)
    leak = math.sqrt(-math.expm1(-b_sq))
    return KrausChannel((math.sqrt(keep) * PAULI_I,
                         leak * np.diag([1.0, 0.0]).astype(complex),
                         leak * np.diag([0.0, 1.0]).astype(complex)))


_BUILDERS = {
    "bit_flip": bit_flip,
    "phase_flip": phase_flip,
    "depolarizing": depolarizing,
    "amplitude_damping": amplitude_damping,
    "phase_damping": phase_damping,
}


def calibrated_probability(kind: str, native: float) -> float:
    """The decoherence measure of the bare channel, as a function of native."""
    if kind in ("bit_flip", "phase_flip", "depolarizing"):
        return float(native)
    if kind == "amplitude_damping":
        return -math.expm1(-native)
    if kind == "phase_damping":
        return -math.expm1(-native) / 2.0
    raise ValueError(f"unknown channel kind {kind!r}")


def native_from_calibrated(kind: str, p: float) -> float:
    """Invert the calibration map; raises if p is outside the invertible range."""
    if kind in ("bit_flip", "phase_flip"):
        if not 0.0 <= p <= 1.0:
            raise ValueError("calibrated p must lie in [0, 1]")
        return float(p)
    if kind == "depolarizing":
        if not 0.0 <= p <= 2.0 / 3.0 + 1e-15:
            raise ValueError("calibrated p must lie in [0, 2/3]")
        return float(p)
    if kind == "amplitude_damping":
        if not 0.0 <= p < 1.0:
            raise ValueError("calibrated p must lie in [0, 1)")
        return -math.log1p(-p)
    if kind == "phase_damping":
        if not 0.0 <= p < 0.5:
            raise ValueError("calibrated p must lie in [0, 1/2)")
        return -math.log1p(-2.0 * p)
    raise ValueError(f"unknown channel kind {kind!r}")


def build_channel(kind: str, native: float) -> KrausChannel:
    """Construct a channel by kind name and native parameter."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown channel kind {kind!r}") from None
    return builder(native)


def from_calibrated_p(kind: str, p: float) -> KrausChannel:
    """Construct the channel whose single-qubit decoherence measure equals p."""
    return build_channel(kind, native_from_calibrated(kind, p))


def make_spec(kind: str, *, native: float | None = None,
              p: float | None = None) -> NoiseSpec:
    """Build a NoiseSpec from either the native parameter or calibrated p."""
    if (native is None) == (p is None):
        raise ValueError("give exactly one of native= or p=")
    if kind not in _BUILDERS:
        raise ValueError(f"unknown channel kind {kind!r}")
    if native is None:
        native = native_from_calibrated(kind, p)
    else:
        build_channel(kind, native)   # range check
    frame = "plus_minus" if kind == "amplitude_damping" else "computational"
    return NoiseSpec(kind, float(native), calibrated_probability(kind, native), frame)


def chi_formula(kind: str, native: float) -> np.ndarray:
    """Closed-form chi matrix of the family at the given native parameter.

    Evaluates the algebraic formula without constructing Kraus operators, so
    it remains defined outside the completely positive range (where the
    returned matrix simply stops being PSD) — useful for reporting where a
    parameter leaves the physical region.
    """
    if kind == "bit_flip":
        return np.diag([1.0 - native, native, 0.0, 0.0]).astype(complex)
    if kind == "phase_flip":
        return np.diag([1.0 - native, 0.0, 0.0, native]).astype(complex)
    if kind == "depolarizing":
        return np.diag([1.0 - 1.5 * native, native / 2.0,
                        native / 2.0, native / 2.0]).astype(complex)
    if kind == "amplitude_damping":
        root = math.exp(-native / 2.0)
        q = -math.expm1(-native)
        chi = np.zeros((4, 4), dtype=complex)
        chi[0, 0] = (1.0 + root) ** 2 / 4.0
        chi[1, 1] = chi[2, 2] = q / 4.0
        chi[3, 3] = math.expm1(-native / 2.0) ** 2 / 4.0
        chi[0, 3] = chi[3, 0] = q / 4.0
        chi[1, 2] = -1j * q / 4.0
        chi[2, 1] = 1j * q / 4.0
        return chi
    if kind == "phase_damping":
        keep = math.exp(-native)
        return np.diag([(1.0 + keep) / 2.0, 0.0, 0.0,
                        -math.expm1(-native) / 2.0]).astype(complex)
    raise ValueError(f"unknown channel kind {kind!r}")


def format_spec(spec: NoiseSpec) -> str:
    """Serialize to the CLI text form, e.g. ``kind=bit_flip,p=0.1``."""
    if spec.kind in ("bit_flip", "phase_flip", "depolarizing"):
        return f"kind={spec.kind},p={spec.calibrated_p!r}"
    return f"kind={spec.kind},native={spec.native_param!r}"
