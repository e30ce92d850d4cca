"""Decoherence measures for single-qubit channels and measurement-free QEC.

Every name below loads its submodule (and numpy, where that submodule needs
it) on first use, so ``decoq dqd`` runs on the standard library alone.
"""
import importlib
import sys
import types

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "channels": ("CptpReport", "KrausChannel", "chi_from_parameters",
                 "chi_to_choi", "chi_to_kraus", "choi_to_chi", "kraus_to_chi",
                 "kraus_to_choi", "maximally_entangled", "verify_cptp"),
    "codes": ("QecCode", "bit_flip_code", "build_recovery", "code_by_name",
              "phase_flip_code", "shor5_code", "shor9_code", "trivial_code"),
    "decoherence": ("bloch_map", "fibonacci_sphere", "is_diagonal",
                    "measure_auto", "measure_by_definition",
                    "measure_diagonal", "measure_general",
                    "measure_quadratic"),
    "dqd": ("DqdParams", "amp_poly", "decoherence_pair", "default_params",
            "dqd_error_probs", "load_params", "params_from_units",
            "phase_poly", "relaxation_rate", "spectral_function"),
    "noise": ("CHANNEL_KINDS", "FAMILIES", "build_channel", "family",
              "from_calibrated_p", "native_from_calibrated"),
    "sim": ("Gate", "apply_gate", "cnot", "controlled_pauli", "cz",
            "hadamard", "partial_trace", "pauli_gate", "simulate_choi",
            "toffoli"),
    "sweep": ("BreakEven", "PolyCoeffs", "SweepResult", "break_even",
              "fit_poly", "sweep"),
}
# name -> the submodule that defines it
_HOMES = {name: module for module, names in _SUBMODULE_NAMES.items()
          for name in names}


def __getattr__(name):
    home = _HOMES.get(name, name if name in _SUBMODULE_NAMES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + home, __name__)
    return getattr(module, name) if name in _HOMES else module


def __dir__():
    return sorted(set(globals()) | set(_HOMES) | set(_SUBMODULE_NAMES))


class _Package(types.ModuleType):
    """Importing a submodule binds it on the package; a name the package
    exports from a submodule of the same name (``sweep``) stays the
    export."""

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and name in _HOMES:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
