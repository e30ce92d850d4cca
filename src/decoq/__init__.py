"""Decoherence measures for single-qubit channels and measurement-free QEC."""

from .channels import (CptpReport, KrausChannel, chi_from_parameters,
                       chi_to_choi, chi_to_kraus, choi_to_chi, kraus_to_chi,
                       kraus_to_choi, maximally_entangled, verify_cptp)
from .codes import (QecCode, bit_flip_code, build_recovery, code_by_name,
                    phase_flip_code, shor5_code, shor9_code, trivial_code)
from .decoherence import (bloch_map, fibonacci_sphere, is_diagonal,
                          measure_auto, measure_by_definition,
                          measure_diagonal, measure_general,
                          measure_quadratic)
from .noise import (CHANNEL_KINDS, FAMILIES, build_channel, family,
                    from_calibrated_p, native_from_calibrated)
from .sim import (Gate, apply_gate, cnot, controlled_pauli, cz, hadamard,
                  partial_trace, pauli_gate, simulate_choi, toffoli)
from .sweep import (BreakEven, PolyCoeffs, SweepResult, break_even, fit_poly,
                    sweep)

__version__ = "0.1.0"

# the double-dot model (and json) loads on first use of it or of one of
# its names
_DQD_NAMES = frozenset((
    "DqdParams", "amp_poly", "decoherence_pair", "default_params",
    "dqd_error_probs", "load_params", "params_from_units", "phase_poly",
    "relaxation_rate", "spectral_function"))


def __getattr__(name):
    if name == "dqd" or name in _DQD_NAMES:
        import importlib
        dqd = importlib.import_module(".dqd", __name__)
        return dqd if name == "dqd" else getattr(dqd, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _DQD_NAMES)
