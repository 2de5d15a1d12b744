"""Partition arithmetic and divisor-series statistical mechanics.

Exact and asymptotic partition counts, per-mode thermodynamics of the
equally-spaced-level boson gas, black-body and Debye-solid corrections, and
the 1/f flicker floor of a quartz resonator, with Farey/Ford/Dedekind
geometry kept exact throughout.

The top-level names load on first use (PEP 562): `import eulergas` imports
no submodule, and `eulergas.rademacher_p` or
`from eulergas import rademacher_p` imports `eulergas.modular` then.
"""

import importlib

__version__ = "0.1.0"

# Each exported name under the submodule that defines it
_EXPORTS = {
    "arith": ("DedekindConvention", "DedekindValue", "FordCircle",
              "TangencyPoint", "dedekind_sum", "divisor_sigma", "divisors",
              "farey_sequence", "ford_circle", "ford_tangency",
              "partition_count_oracle", "reduced_fraction"),
    "errors": ("ConvergenceError", "DomainError"),
    "modular": ("RademacherResult", "asymptotic_p", "functional_equation_rhs",
                "leading_term_p", "partition_generating", "rademacher_p"),
    "phonon": ("DebyeModel", "FlickerResult", "ResonatorSpec", "SolidSpec",
               "debye_frequency", "debye_function", "debye_temperature",
               "debye_velocity", "energy_fluctuation", "flicker_floor",
               "load_resonator_preset", "specific_heat"),
    "radiation": ("CavitySpec", "EinsteinModel", "EmissivityModel",
                  "NoiseModel", "PhotonModel", "PhysicalConstants",
                  "einstein_AB", "emissivity", "fluctuation_spectrum",
                  "mode_x", "photon_density", "stefan_boltzmann"),
    "thermo": ("EtaTransform", "MellinKind", "PlanckVariant", "ThermoPerMode",
               "eisenstein_g2", "entropy", "eta", "eta_transform",
               "free_energy", "free_energy_lowfreq",
               "internal_energy", "internal_energy_lowfreq", "mellin_check",
               "occupation", "occupation_lowfreq",
               "per_mode_energy_fluctuation", "planck_factor", "riemann_zeta",
               "thermo_per_mode"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import an exported name's submodule on first access, or a submodule
    itself (`eulergas.thermo`), and cache the result in this module."""
    module = _HOME.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name in _EXPORTS or name == "cli":
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
