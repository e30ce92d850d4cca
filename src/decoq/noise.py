"""Single-qubit noise channels and their calibration to an error probability.

Five channel families are provided, each stated once, as a ``Family`` record
in ``FAMILIES`` that ``sweep``, ``cli`` and ``dqd`` read.  Each has a
*native* parameter (a flip probability, a decay exponent Gamma*t, or a
dephasing exponent B^2) and a *calibrated* probability p defined as the
decoherence measure D of the bare single-qubit channel.  The calibration
maps are invertible on the stated ranges, so circuits driven by different
physical channels can be compared at equal single-qubit error strength.

    kind               native        calibrated p       range     X, Y, Z
    bit_flip           p in [0,1]    p                  [0, 1]    p, 0, 0
    phase_flip         p in [0,1]    p                  [0, 1]    0, 0, p
    depolarizing       p in [0,2/3]  p                  [0, 2/3]  p/2 each
    amplitude_damping  Gamma*t >= 0  1 - exp(-Gamma*t)  [0, 1)    (not Pauli)
    phase_damping      B^2 >= 0      (1 - exp(-B^2))/2  [0, 1/2)  0, 0, p

``_pauli`` builds the four Pauli families from their X, Y, Z error weights
at calibrated p (the last column) alone, so phase damping *is* phase flip at
its calibrated p (Nielsen & Chuang, section 8.3.6).

Every family's Kraus and chi matrices act in the computational basis.
Amplitude damping's physical frame (the |+>/|-> eigenbasis of the double-dot
coupling) is only a label, ``frame="plus_minus"``, though the frame changes
QEC results: the 3-qubit bit-flip code under amplitude damping at
Gamma*t = 0.05 gives D = 0.0363 as is and 0.0701 conjugated by a Hadamard.

The records load without numpy, which the builders of Kraus operators and
chi matrices import when called, so ``dqd`` reads its calibrations and caps
on the standard library alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

    from .channels import KrausChannel


@cache
def _channels():
    """decoq.channels (and numpy), imported when the first channel is built;
    a relative import per call would cost a microsecond a point."""
    from . import channels
    return channels


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


def _pauli(weights, calibrate, **fields) -> Family:
    """The family of Pauli channels with X, Y, Z error weights ``weights(p)``
    at calibrated p: Kraus operators the identity, with what the errors
    leave, then one Pauli per nonzero weight; chi the diagonal of weights."""
    def kraus(x):
        ch = _channels()
        w = weights(calibrate(x))
        return (math.sqrt(max(1.0 - sum(w), 0.0)) * ch.PAULI_I,
                *(math.sqrt(v) * op for v, op in
                  zip(w, (ch.PAULI_X, ch.PAULI_Y, ch.PAULI_Z)) if v))

    def chi(x):
        import numpy as np
        w = weights(calibrate(x))
        return np.diag((1.0 - sum(w), *w)).astype(complex)
    return Family(kraus, chi, calibrate, **fields)


def _identity_calibrated(weights, cap, span, slack=0.0) -> Family:
    """A Pauli family whose native p, in [0, cap + slack], is calibrated p."""
    return _pauli(weights, float, invert=float, native_top=cap + slack,
                  native_msg=f"p must lie in {span}", cap=cap, cap_open=False,
                  p_msg=f"calibrated p must lie in {span}")


def _amplitude_damping_kraus(gamma_t: float) -> tuple:
    """Energy relaxation |1> -> |0> with decay exponent Gamma*t."""
    import numpy as np
    return (np.array([[1.0, 0.0], [0.0, math.sqrt(math.exp(-gamma_t))]],
                     dtype=complex),
            np.array([[0.0, math.sqrt(-math.expm1(-gamma_t))], [0.0, 0.0]],
                     dtype=complex))


def _amplitude_damping_chi(gamma_t: float) -> np.ndarray:
    import numpy as np
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


FAMILIES = {
    "bit_flip": _identity_calibrated(lambda p: (p, 0.0, 0.0), 1.0, "[0, 1]"),
    "phase_flip": _identity_calibrated(lambda p: (0.0, 0.0, p), 1.0,
                                       "[0, 1]"),
    # complete positivity ends at 2/3, allowed with room for rounding
    "depolarizing": _identity_calibrated(lambda p: (p / 2.0,) * 3, 2.0 / 3.0,
                                         "[0, 2/3]", slack=1e-15),
    "amplitude_damping": Family(
        kraus=_amplitude_damping_kraus, chi=_amplitude_damping_chi,
        calibrate=lambda x: -math.expm1(-x),
        invert=lambda p: -math.log1p(-p),
        native_top=math.inf, native_msg="gamma_t must be >= 0",
        cap=1.0, cap_open=True, p_msg="calibrated p must lie in [0, 1)",
        frame="plus_minus"),
    # phase flip at its calibrated p
    "phase_damping": _pauli(
        lambda p: (0.0, 0.0, p), lambda x: -math.expm1(-x) / 2.0,
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


def check_calibrated(kind: str, p: float) -> None:
    """Raise ValueError unless p lies in the family's calibrated range."""
    fam = family(kind)
    if not (0.0 <= p < fam.cap if fam.cap_open
            else 0.0 <= p <= fam.native_top):
        raise ValueError(fam.p_msg)


def native_from_calibrated(kind: str, p: float) -> float:
    """Invert the calibration map; raises if p is outside the invertible range."""
    check_calibrated(kind, p)
    return FAMILIES[kind].invert(p)


def build_channel(kind: str, native: float) -> KrausChannel:
    """Construct a channel by kind name and native parameter."""
    fam = family(kind)
    if not 0.0 <= native <= fam.native_top:
        raise ValueError(fam.native_msg)
    return _channels().KrausChannel(fam.kraus(native))


def from_calibrated_p(kind: str, p: float) -> KrausChannel:
    """Construct the channel whose single-qubit decoherence measure equals p."""
    return build_channel(kind, native_from_calibrated(kind, p))
