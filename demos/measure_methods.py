"""Compare the four routes to the decoherence measure D.

D is the largest operator-norm displacement ||E(rho) - rho|| over all input
states.  For diagonal chi matrices there is a closed form; unital channels
reduce to the largest singular value of A - I; channels with a Bloch shift u
need the exact secular-equation solution (which covers every channel); and
a brute-force grid straight from the Kraus operators cross-checks them all.
"""
import numpy as np

from decoq.channels import chi_from_parameters, chi_to_kraus, kraus_to_chi
from decoq.decoherence import (measure_auto, measure_by_definition,
                               measure_diagonal, measure_general,
                               measure_quadratic)
from decoq.noise import build_channel, family

np.set_printoptions(precision=6, suppress=True)


def show(name, chi, expected=None):
    rows = []
    try:
        rows.append(("diagonal rule", measure_diagonal(chi)))
    except ValueError:
        rows.append(("diagonal rule", None))
    try:
        rows.append(("quadratic form", measure_quadratic(chi)))
    except ValueError:
        rows.append(("quadratic form", None))
    rows.append(("secular equation", measure_general(chi)))
    rows.append(("dispatch", measure_auto(chi)))
    rows.append(("grid of 50000 states",
                 measure_by_definition(chi_to_kraus(chi), 50_000)))
    print(f"\n{name}")
    for label, value in rows:
        text = "not applicable" if value is None else f"{value:.10f}"
        print(f"  {label:<22} {text}")
    if expected is not None:
        print(f"  {'exact value':<22} {expected:.10f}")


# Pauli channel: chi is diagonal, every route applies
show("depolarizing, p = 0.3", family("depolarizing").chi(0.3), expected=0.3)

# unital but anisotropic: mixes X and Z errors with a cross term
c = np.zeros(13)
c[1], c[3], c[11] = 0.12, 0.08, 0.05      # X weight, Z weight, Re chi_13
show("anisotropic X/Z channel with coherence", chi_from_parameters(c))

# amplitude damping: a Bloch shift u, only the secular equation and the grid
# apply
gamma_t = 1.0
show(f"amplitude damping, Gamma*t = {gamma_t}",
     kraus_to_chi(build_channel("amplitude_damping", gamma_t)),
     expected=1.0 - np.exp(-gamma_t))

print("\nThe grid value converges from below as the grid refines:")
channel = build_channel("amplitude_damping", gamma_t)
for n in (100, 1_000, 10_000, 100_000):
    d = measure_by_definition(channel, n)
    print(f"  {n:>7} points: {d:.8f}   (exact {1 - np.exp(-1.0):.8f})")
