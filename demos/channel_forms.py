"""Walk one channel through its three representations.

Builds amplitude damping at a few decay strengths, prints the Kraus
operators, the process (chi) matrix, and the Choi-state spectrum, and checks
that every conversion path lands on the same object.
"""
import numpy as np

from decoq import (chi_to_choi, chi_to_kraus, choi_to_chi, kraus_to_chi,
                   kraus_to_choi, verify_cptp)
from decoq.noise import build_channel, family

np.set_printoptions(precision=5, suppress=True, linewidth=120)

damping = family("amplitude_damping")
for gamma_t in (0.1, 1.0, 3.0):
    print("=" * 72)
    print(f"kind=amplitude_damping,native={gamma_t!r}   (calibrated p = "
          f"{damping.calibrate(gamma_t):.6f}, frame = {damping.frame})")

    channel = build_channel("amplitude_damping", gamma_t)
    print("\nKraus operators:")
    for op in channel.operators:
        print(np.array2string(op, prefix="  "))

    chi = kraus_to_chi(channel)
    print("\nchi matrix (unnormalized Pauli basis I, X, Y, Z):")
    print(chi)
    closed = damping.chi(gamma_t)
    print(f"matches the closed form to {np.abs(chi - closed).max():.2e}")

    tau = kraus_to_choi(channel)
    eigs = np.sort(np.linalg.eigvalsh(tau))
    print(f"\nChoi eigenvalues: {eigs.round(10)}")
    print(f"expected nonzero pair: {(1 - np.exp(-gamma_t)) / 2:.10f}, "
          f"{(1 + np.exp(-gamma_t)) / 2:.10f}")

    report = verify_cptp(chi)
    print(f"\nCPTP check: trace preserving = {report.trace_preserving}, "
          f"completely positive = {report.completely_positive} "
          f"(min eigenvalue {report.min_eigenvalue:.2e})")

    # every route between the forms must agree
    gap_choi = np.abs(chi_to_choi(chi) - tau).max()
    gap_chi = np.abs(choi_to_chi(tau) - chi).max()
    gap_kraus = np.abs(kraus_to_chi(chi_to_kraus(chi)) - chi).max()
    print(f"round trips: chi->choi {gap_choi:.2e}, choi->chi {gap_chi:.2e}, "
          f"chi->kraus->chi {gap_kraus:.2e}")

print("=" * 72)
print("\nA parameter outside the physical range is flagged, not crashed:")
chi = family("bit_flip").chi(1.2)
report = verify_cptp(chi)
print(f"bit_flip at native 1.2 -> completely positive = "
      f"{report.completely_positive} (min eigenvalue "
      f"{report.min_eigenvalue:+.3f})")
