"""Single-qubit noise channels and their calibration to an error probability.

Five channel families are provided, each stated once, as a ``Family`` record
in ``FAMILIES`` that ``sweep``, ``cli`` and ``dqd`` read.  Each has a
*native* parameter (a flip probability, a decay exponent Gamma*t, or a
dephasing exponent B^2) and a *calibrated* probability p defined as the
decoherence measure D of the bare single-qubit channel.  The calibration
maps are invertible on the stated ranges, so circuits driven by different
physical channels can be compared at equal single-qubit error strength.

    kind                native       calibrated p = D0(native)   range of p
    bit_flip            p in [0,1]   p                           [0, 1]
    phase_flip          p in [0,1]   p                           [0, 1]
    depolarizing        p in [0,2/3] p                           [0, 2/3]
    amplitude_damping   Gamma*t >= 0 1 - exp(-Gamma*t)           [0, 1)
    phase_damping       B^2 >= 0     (1 - exp(-B^2))/2           [0, 1/2)

Every family's Kraus and chi matrices act in the computational basis.  The
record names amplitude damping's physical frame (the |+>/|-> eigenbasis of
the double-dot coupling) as ``frame="plus_minus"``, but the label is not
applied anywhere, and the frame does change QEC results: the 3-qubit
bit-flip code under amplitude damping at Gamma*t = 0.05 gives D = 0.0363
with the matrices as they are and 0.0701 with them conjugated by a Hadamard.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, KrausChannel


@dataclass(frozen=True)
class Family:
    """One channel family.  The native parameter lies in [0, native_top].
    Calibrated p lies in [0, cap) when the cap is open (the damping families
    reach it only at infinite damping); a closed cap belongs to a family
    whose calibration is the identity, and there p lies in [0, native_top],
    the cap up to rounding.  ``chi`` evaluates the closed form without Kraus
    operators, so it stays defined outside the native range (where the
    matrix stops being PSD) for ``decoq channel`` to report."""
    kraus: Callable[[float], tuple]      # native -> Kraus operators
    chi: Callable[[float], np.ndarray]   # native -> closed-form chi matrix
    calibrate: Callable[[float], float]  # native -> p = D0(native)
    invert: Callable[[float], float]     # p -> native
    native_top: float
    native_msg: str
    cap: float                           # least upper bound of p
    cap_open: bool
    p_msg: str
    frame: str = "computational"


def _diag(*weights) -> np.ndarray:
    return np.diag(weights).astype(complex)


def _depolarizing_kraus(p: float) -> tuple:
    """Isotropic Pauli noise with total error weight p (each axis p/2)."""
    w = np.sqrt(max(1.0 - 1.5 * p, 0.0))
    h = np.sqrt(p / 2.0)
    return (w * PAULI_I, h * PAULI_X, h * PAULI_Y, h * PAULI_Z)


def _amplitude_damping_kraus(gamma_t: float) -> tuple:
    """Energy relaxation |1> -> |0> with decay exponent Gamma*t."""
    return (np.array([[1.0, 0.0], [0.0, math.sqrt(math.exp(-gamma_t))]],
                     dtype=complex),
            np.array([[0.0, math.sqrt(-math.expm1(-gamma_t))], [0.0, 0.0]],
                     dtype=complex))


def _amplitude_damping_chi(gamma_t: float) -> np.ndarray:
    root = math.exp(-gamma_t / 2.0)
    q = -math.expm1(-gamma_t)
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = (1.0 + root) ** 2 / 4.0
    chi[1, 1] = chi[2, 2] = q / 4.0
    chi[3, 3] = math.expm1(-gamma_t / 2.0) ** 2 / 4.0
    chi[0, 3] = chi[3, 0] = q / 4.0
    chi[1, 2] = -1j * q / 4.0
    chi[2, 1] = 1j * q / 4.0
    return chi


def _phase_damping_kraus(b_sq: float) -> tuple:
    """Pure dephasing with exponent B^2: identity plus two projector terms."""
    keep = math.exp(-b_sq)
    leak = math.sqrt(-math.expm1(-b_sq))
    return (math.sqrt(keep) * PAULI_I, leak * _diag(1.0, 0.0),
            leak * _diag(0.0, 1.0))


FAMILIES = {
    "bit_flip": Family(
        kraus=lambda p: (np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * PAULI_X),
        chi=lambda p: _diag(1.0 - p, p, 0.0, 0.0),
        calibrate=float, invert=float,
        native_top=1.0, native_msg="p must lie in [0, 1]",
        cap=1.0, cap_open=False, p_msg="calibrated p must lie in [0, 1]"),
    "phase_flip": Family(
        kraus=lambda p: (np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * PAULI_Z),
        chi=lambda p: _diag(1.0 - p, 0.0, 0.0, p),
        calibrate=float, invert=float,
        native_top=1.0, native_msg="p must lie in [0, 1]",
        cap=1.0, cap_open=False, p_msg="calibrated p must lie in [0, 1]"),
    "depolarizing": Family(
        kraus=_depolarizing_kraus,
        chi=lambda p: _diag(1.0 - 1.5 * p, p / 2.0, p / 2.0, p / 2.0),
        calibrate=float, invert=float,
        # complete positivity ends at 2/3, allowed with room for rounding
        native_top=2.0 / 3.0 + 1e-15, native_msg="p must lie in [0, 2/3]",
        cap=2.0 / 3.0, cap_open=False,
        p_msg="calibrated p must lie in [0, 2/3]"),
    "amplitude_damping": Family(
        kraus=_amplitude_damping_kraus, chi=_amplitude_damping_chi,
        calibrate=lambda x: -math.expm1(-x),
        invert=lambda p: -math.log1p(-p),
        native_top=math.inf, native_msg="gamma_t must be >= 0",
        cap=1.0, cap_open=True, p_msg="calibrated p must lie in [0, 1)",
        frame="plus_minus"),
    "phase_damping": Family(
        kraus=_phase_damping_kraus,
        chi=lambda x: _diag((1.0 + math.exp(-x)) / 2.0, 0.0, 0.0,
                            -math.expm1(-x) / 2.0),
        calibrate=lambda x: -math.expm1(-x) / 2.0,
        invert=lambda p: -math.log1p(-2.0 * p),
        native_top=math.inf, native_msg="b_sq must be >= 0",
        cap=0.5, cap_open=True, p_msg="calibrated p must lie in [0, 1/2)"),
}

CHANNEL_KINDS = tuple(FAMILIES)


class UnknownKindError(ValueError):
    """A channel kind that is not in FAMILIES (a configuration error)."""


def family(kind: str) -> Family:
    """The record of a channel family, by kind name."""
    try:
        return FAMILIES[kind]
    except KeyError:
        raise UnknownKindError(f"unknown channel kind {kind!r}") from None


def native_from_calibrated(kind: str, p: float) -> float:
    """Invert the calibration map; raises if p is outside the invertible range."""
    fam = family(kind)
    if not (0.0 <= p < fam.cap if fam.cap_open
            else 0.0 <= p <= fam.native_top):
        raise ValueError(fam.p_msg)
    return fam.invert(p)


def build_channel(kind: str, native: float) -> KrausChannel:
    """Construct a channel by kind name and native parameter."""
    fam = family(kind)
    if not 0.0 <= native <= fam.native_top:
        raise ValueError(fam.native_msg)
    return KrausChannel(fam.kraus(native))


def from_calibrated_p(kind: str, p: float) -> KrausChannel:
    """Construct the channel whose single-qubit decoherence measure equals p."""
    return build_channel(kind, native_from_calibrated(kind, p))
