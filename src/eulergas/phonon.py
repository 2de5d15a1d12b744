"""Debye phonon gas and the quartz-resonator flicker-floor prediction.

Average sound velocity, Debye frequency/temperature, the Debye function D
(a Bernoulli series below x_m = 2.5 and the exponential series from there
up, no quadrature), lattice specific heat in both models (the
divisor-series model carries a zeta(3) factor), canonical energy
fluctuations, and the 1/nu frequency-noise floor

    A_ph = 9 h c_ph^3 / (4 pi^3 k T),      h_-1 = A_ph / (4 Q^4 V),

with the resonator spectrum S_omega(nu)/omega^2 = h_-1/nu on the caller
side.  A_ph is defined so that S_u/u^2 = A_ph/(V nu); its numeric value is
quoted bare, with the m^3 bookkeeping carried by V (see the unit audit in
the tests).  Resonator presets are dict literals here, by name; a preset
can also be a `key = value` file, which holds the five spec keys and
optionally the two reference keys, and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .arith import _BERNOULLI_2K, ZETA3
from .errors import DomainError, require_positive
from .radiation import PhysicalConstants, load_key_value_file
from .thermo import _bose

__all__ = [
    "SolidSpec", "ResonatorSpec",
    "debye_velocity", "debye_frequency", "debye_temperature",
    "debye_function", "debye_function_series",
    "DebyeModel", "specific_heat", "energy_fluctuation",
    "FlickerResult", "flicker_floor",
    "load_resonator_preset", "PRESET_NAMES",
]


def debye_velocity(c_transverse: float, c_longitudinal: float) -> float:
    """Average wave velocity from 3/c_ph^3 = 2/c_t^3 + 1/c_l^3."""
    require_positive("c_transverse", c_transverse)
    require_positive("c_longitudinal", c_longitudinal)
    return (3.0 / (2.0 / c_transverse ** 3 + 1.0 / c_longitudinal ** 3)) ** (1.0 / 3.0)


@dataclass(frozen=True)
class SolidSpec:
    """Isotropic solid: atom count, volume, temperature and sound speed.

    Give either c_ph directly or both c_transverse and c_longitudinal, in
    which case c_ph is derived.
    """

    n_atoms: float
    volume: float
    temperature: float
    c_ph: float | None = None
    c_transverse: float | None = None
    c_longitudinal: float | None = None

    def __post_init__(self) -> None:
        for name in ("n_atoms", "volume", "temperature"):
            require_positive(name, getattr(self, name))
        if self.c_ph is None:
            if self.c_transverse is None or self.c_longitudinal is None:
                raise DomainError("give c_ph or both c_transverse and c_longitudinal")
            object.__setattr__(self, "c_ph",
                               debye_velocity(self.c_transverse, self.c_longitudinal))
        require_positive("c_ph", self.c_ph)


@dataclass(frozen=True)
class ResonatorSpec:
    q_factor: float
    carrier: float        # Hz
    active_volume: float  # m^3
    temperature: float    # K
    c_ph: float           # m/s

    def __post_init__(self) -> None:
        for name in ("q_factor", "carrier", "active_volume", "temperature", "c_ph"):
            require_positive(name, getattr(self, name))


def debye_frequency(solid: SolidSpec) -> float:
    """Maximal vibrational frequency nu_m = (3 N0 c_ph^3 / (4 pi V))^{1/3}."""
    return (3.0 * solid.n_atoms * solid.c_ph ** 3
            / (4.0 * math.pi * solid.volume)) ** (1.0 / 3.0)


def debye_temperature(solid: SolidSpec, constants: PhysicalConstants) -> float:
    """theta_D = h nu_m / k."""
    return constants.h * debye_frequency(solid) / constants.k


# Coefficient of a^{2k} in D(a) = 1 - 3a/8 + sum_k 3 B_2k a^{2k}/((2k)! (2k+3))
_DEBYE_TAYLOR = tuple(float(3 * b / (math.factorial(2 * k) * (2 * k + 3)))
                      for k, b in enumerate(_BERNOULLI_2K, start=1))
DEBYE_SWITCH = 2.5          # Bernoulli series below, exponential series above
_PI4_OVER_15 = 6.493939402266829  # Gamma(4) zeta(4) correctly rounded;
                                  # math.pi ** 4 / 15 is 1.3 ulp low


def debye_function(x_m: float) -> float:
    """D(x_m) = (3/x_m^3) * integral_0^{x_m} x^3/(e^x - 1) dx.

    Below DEBYE_SWITCH it is the Bernoulli series of the integrand,

        integral_0^{a} x^3/(e^x - 1) dx = sum_k B_k a^{k+3} / (k! (k+3)),

    which converges for a < 2 pi; 21 even terms reach double precision at
    the switch.  At and above the switch it is debye_function_series.
    """
    if not x_m > 0.0:
        raise DomainError(f"need x_m > 0, got {x_m}")
    if x_m >= DEBYE_SWITCH:
        return debye_function_series(x_m)
    a2 = x_m * x_m
    acc = 0.0
    for c in reversed(_DEBYE_TAYLOR):
        acc = acc * a2 + c
    return 1.0 - 0.375 * x_m + acc * a2


def debye_function_series(x_m: float) -> float:
    """D(x_m) via termwise e^{-nx} integration:

        integral_0^{a} x^3/(e^x-1) dx
          = pi^4/15 - sum_n e^{-na}(a^3/n + 3a^2/n^2 + 6a/n^3 + 6/n^4),

    where pi^4/15 = Gamma(4) zeta(4) is the complete integral, so only the
    exponentially decaying part needs truncation, after int(45/a) + 1
    terms.  The terms are summed exactly (math.fsum); what is left is the
    cancellation against pi^4/15, which limits the route to absolute
    accuracy ~1 ulp of pi^4/15, so it serves from x_m of order 1 up.  At
    large x_m the result tends to pi^4/(5 x_m^3) and underflows to 0
    without overflowing.
    """
    if not x_m > 0.0:
        raise DomainError(f"need x_m > 0, got {x_m}")
    a = x_m
    terms = [_PI4_OVER_15]
    for n in range(1, int(45.0 / a) + 2):
        decay = math.exp(-n * a)
        if decay == 0.0:
            break
        t = 1.0 / n
        terms.append(-decay * t * (a * a * a + t * (3.0 * a * a + 6.0 * t * (a + t))))
    return 3.0 * math.fsum(terms) / a / (a * a)


class DebyeModel(Enum):
    CONVENTIONAL = "conventional"
    GENERAL = "general"


def specific_heat(solid: SolidSpec, constants: PhysicalConstants,
                  model: DebyeModel) -> float:
    """Constant-volume lattice specific heat in J/K for the solid's N0 atoms.

    From E(T) = 3 N0 k T D(x_m) by analytic differentiation:

        C_v = 3 N0 k [ 4 D(x_m) - 3 x_m/(e^{x_m} - 1) ],  x_m = theta_D/T,

    with the Bose term taken as x_m e^{-x_m}/(1 - e^{-x_m}), so it vanishes
    instead of overflowing at large x_m.

    The GENERAL model multiplies by zeta(3).  Divide by 3*N0*k for the
    Dulong-Petit ratio.
    """
    x_m = debye_temperature(solid, constants) / solid.temperature
    # x_m = inf where T is subnormal; the Bose term is 0 there
    ratio = 4.0 * debye_function(x_m) - 3.0 * _bose(x_m, x_m)
    cv = 3.0 * solid.n_atoms * constants.k * ratio
    if model is DebyeModel.CONVENTIONAL:
        return cv
    if model is DebyeModel.GENERAL:
        return cv * ZETA3
    raise DomainError(f"unknown Debye model {model!r}")


def energy_fluctuation(solid: SolidSpec,
                       constants: PhysicalConstants) -> tuple[float, float]:
    """(epsilon^2, relative): canonical variance k T^2 C_v in J^2, and the
    relative fluctuation scale (2/(3 N0))^{1/2}, which is independent of T
    in the Dulong-Petit regime."""
    cv = specific_heat(solid, constants, DebyeModel.CONVENTIONAL)
    eps_sq = constants.k * solid.temperature ** 2 * cv
    relative = math.sqrt(2.0 / (3.0 * solid.n_atoms))
    return eps_sq, relative


class FlickerResult(NamedTuple):
    a_ph: float       # 9 h c_ph^3 / (4 pi^3 k T); S_u/u^2 = a_ph/(V nu)
    h_minus_1: float  # a_ph / (4 Q^4 V), dimensionless


def flicker_floor(resonator: ResonatorSpec,
                  constants: PhysicalConstants) -> FlickerResult:
    """Flicker-noise floor of a resonator: S_omega(nu)/omega^2 = h_-1/nu."""
    a_ph = (9.0 * constants.h * resonator.c_ph ** 3
            / (4.0 * math.pi ** 3 * constants.k * resonator.temperature))
    h_m1 = a_ph / (4.0 * resonator.q_factor ** 4 * resonator.active_volume)
    return FlickerResult(a_ph, h_m1)


# p5-5mhz: a 5 MHz P5 quartz crystal at 300 K, active region ~3 mm x 3 cm^2;
# the reference_* values are experimental orders of magnitude
_PRESETS = {
    "p5-5mhz": {"c_ph": 3.5e3, "q_factor": 2e6, "carrier": 5e6,
                "active_volume": 1e-6, "temperature": 300.0,
                "reference_a_ph": 5e-4, "reference_h_minus_1": 6e-24},
}
PRESET_NAMES = tuple(_PRESETS)
_SPEC_KEYS = {"c_ph", "q_factor", "carrier", "active_volume", "temperature"}
_REFERENCE_KEYS = {f"reference_{field}" for field in FlickerResult._fields}


def load_resonator_preset(name_or_path: str | Path) -> tuple[ResonatorSpec, dict[str, float]]:
    """Resonator spec plus reference values from a named preset or a file.

    Preset files are `key = value` with exactly the keys c_ph, q_factor,
    carrier, active_volume and temperature, and optionally reference_a_ph
    and reference_h_minus_1, which are returned separately for the
    comparison columns; any other key is a DomainError.
    """
    name = str(name_or_path)
    if name in _PRESETS:
        values = _PRESETS[name]
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise DomainError(
                f"unknown preset {name!r} (packaged: {', '.join(PRESET_NAMES)})")
        values = load_key_value_file(path, _SPEC_KEYS | _REFERENCE_KEYS)
    missing = _SPEC_KEYS - set(values)
    if missing:
        raise DomainError(f"preset missing keys: {sorted(missing)}")
    spec = ResonatorSpec(q_factor=values["q_factor"], carrier=values["carrier"],
                         active_volume=values["active_volume"],
                         temperature=values["temperature"], c_ph=values["c_ph"])
    references = {k: v for k, v in values.items() if k in _REFERENCE_KEYS}
    return spec, references
