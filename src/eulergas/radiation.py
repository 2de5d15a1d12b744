"""Black-body radiation in the conventional and divisor-series models.

Integrated quantities (Stefan-Boltzmann constant, photon density), spectral
emissivity in four model variants, the spontaneous/stimulated coefficient
ratio, and fractional energy-fluctuation spectra.  The density of states is
the cubic-cavity D(nu) = 8 pi V nu^2 / c^3 with the polarization factor 2
already embedded; it is never applied twice.

`PhysicalConstants.si()` holds the SI defining constants as literals; a
`key = value` config file (keys h, k, c and no others) can override any of
them.  `load_key_value_file` reads these files and the resonator preset
files, and refuses any key its caller does not allow and any key given
twice.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import DomainError, finite, require_positive
from .thermo import ZETA3, _bose, internal_energy

__all__ = [
    "PhysicalConstants", "CavitySpec", "mode_x",
    "stefan_boltzmann", "PhotonModel", "photon_density",
    "EmissivityModel", "emissivity",
    "EinsteinModel", "einstein_AB",
    "NoiseModel", "fluctuation_spectrum",
]


def load_key_value_file(path: str | Path, keys: set[str]) -> dict[str, float]:
    """Parse a `key = value` file with '#' comments into floats.  A file that
    cannot be read as text, a malformed line, a key outside `keys` or a key
    given twice is a DomainError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"cannot read {path}: {reason}") from exc
    out: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (expected key = value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise DomainError(f"unknown key {key!r} in {path} "
                              f"(allowed: {', '.join(sorted(keys))})")
        if key in out:
            raise DomainError(f"key {key!r} given twice in {path}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise DomainError(f"bad numeric value in config: {raw!r}") from exc
    return out


class _ConstantsFields(NamedTuple):
    h: float
    k: float
    c: float


class PhysicalConstants(_ConstantsFields):
    """Pinned h (J s), k (J/K), c (m/s); sole source of dimensional numbers."""

    __slots__ = ()

    def __new__(cls, h: float, k: float, c: float) -> PhysicalConstants:
        for name, value in zip(cls._fields, (h, k, c)):
            require_positive(f"constant {name}", value)
        return super().__new__(cls, h, k, c)

    @classmethod
    def si(cls) -> PhysicalConstants:
        return cls(h=6.62607015e-34, k=1.380649e-23, c=2.99792458e8)

    @classmethod
    def from_file(cls, path: str | Path) -> PhysicalConstants:
        """SI defaults overlaid with any of h, k, c found in the file."""
        base = cls.si()
        values = load_key_value_file(path, {"h", "k", "c"})
        return cls(h=values.get("h", base.h), k=values.get("k", base.k),
                   c=values.get("c", base.c))


class _CavityFields(NamedTuple):
    volume: float       # m^3
    temperature: float  # K


class CavitySpec(_CavityFields):
    __slots__ = ()

    def __new__(cls, volume: float, temperature: float) -> CavitySpec:
        require_positive("volume", volume)
        require_positive("temperature", temperature)
        return super().__new__(cls, volume, temperature)


def mode_x(nu: float, temperature: float, constants: PhysicalConstants) -> float:
    """Dimensionless mode variable x = h*nu/kT; DomainError where it is not
    a finite positive double, as where h*nu or k*T underflows."""
    require_positive("nu", nu)
    require_positive("T", temperature)
    kt = constants.k * temperature
    x = constants.h * nu / kt if kt else math.inf
    if not 0.0 < x < math.inf:
        raise DomainError(f"x = h*nu/kT at nu={nu:g}, T={temperature:g} is "
                          f"{x:g}, not a finite positive double")
    return x


def stefan_boltzmann(constants: PhysicalConstants) -> tuple[float, float]:
    """(sigma_SB, excess) with sigma_SB = 2 pi^5 k^4 / (15 c^2 h^3).

    excess is the multiplicative correction zeta(3) the divisor-series model
    applies to the integrated free energy.
    """
    return finite("stefan-boltzmann constant", constants,
                  lambda: 2.0 * math.pi ** 5 * constants.k ** 4
                  / (15.0 * constants.c ** 2 * constants.h ** 3)), ZETA3


class PhotonModel(Enum):
    CONVENTIONAL = "conventional"
    GENERAL = "general"


def photon_density(cavity: CavitySpec, constants: PhysicalConstants,
                   model: PhotonModel) -> float:
    """Photons per unit volume: 8 pi (kT/ch)^3 * 2 zeta(3), times zeta(3)
    again in the general model."""
    if not isinstance(model, PhotonModel):
        raise DomainError(f"unknown photon model {model!r}")
    excess = ZETA3 if model is PhotonModel.GENERAL else 1.0
    return finite(f"{model.value} photon density", {"T": cavity.temperature},
                  lambda: 8.0 * math.pi * (constants.k * cavity.temperature
                                           / (constants.c * constants.h)) ** 3
                  * 2.0 * ZETA3 * excess)


def _planck_form(quantity: str, nu: float, cavity: CavitySpec,
                 constants: PhysicalConstants, x: float, as_written,
                 per_mode: float, weight: float, power: int) -> float:
    """A Planck-form value weight/c^power * h nu^3 * per_mode/x: as written,
    or else with h nu = x kT as weight/c^power * kT * per_mode * nu * nu,
    which neither overflows where nu^3 does nor underflows to 0 against an
    overflowing per_mode/x, or else as the exp of its logs, where per_mode
    below the least normal double is x e^{-x} in both models."""
    c, t = constants.c, cavity.temperature
    return finite(
        quantity, {"nu": nu, "T": t, "V": cavity.volume}, as_written,
        lambda: weight / c ** power * (constants.k * t) * per_mode * nu * nu,
        lambda: math.exp(
            math.log(weight) - power * math.log(c) + math.log(constants.k * t)
            + 2.0 * math.log(nu) + (math.log(per_mode) if per_mode >= sys.float_info.min
                                    else math.log(x) - x)))


def planck_spectral_density(nu: float, cavity: CavitySpec,
                            constants: PhysicalConstants) -> float:
    """Conventional spectral energy density u(nu, T) in J/Hz:
    (8 pi h V / c^3) nu^3 / (e^x - 1), taken as nu^3 e^{-x}/(1 - e^{-x}),
    or in _planck_form's other orders where that is not finite."""
    x, v = mode_x(nu, cavity.temperature, constants), cavity.volume
    return _planck_form(
        "planck spectral density", nu, cavity, constants, x,
        lambda: _bose(x, 8.0 * math.pi * constants.h * v / constants.c ** 3 * nu ** 3),
        _bose(x, x), 8.0 * math.pi * v, 3)


class EmissivityModel(Enum):
    PLANCK = "planck"
    RAYLEIGH_JEANS = "rayleigh-jeans"
    GENERAL = "general"
    GENERAL_LOW_FREQ = "general-lf"


def emissivity(nu: float, cavity: CavitySpec, constants: PhysicalConstants,
               model: EmissivityModel) -> float:
    """Spectral emissivity e_b(nu, T) in W m^-2 Hz^-1.

    PLANCK:          (2 pi h / c^2) nu^3 / (e^x - 1)
    RAYLEIGH_JEANS:  2 pi k nu^2 T / c^2
    GENERAL:         (2 pi h / c^2) nu^3 sum sigma_1(n) e^{-nx}
    GENERAL_LOW_FREQ:(pi^3/3) (k^2/(c^2 h)) nu T^2

    GENERAL_LOW_FREQ / RAYLEIGH_JEANS equals pi^2/(6x).  The Planck factor
    1/(e^x - 1) is taken as e^{-x}/(1 - e^{-x}), which vanishes instead of
    overflowing at large x.  PLANCK and GENERAL, which read x, are refused
    where mode_x refuses it.  Where a form above is not a finite double they
    take _planck_form's other orders and RAYLEIGH_JEANS takes rj nu T nu;
    each raises OverflowError where its value exceeds the doubles.
    """
    require_positive("nu", nu)
    t, c = cavity.temperature, constants.c
    if model is EmissivityModel.PLANCK:
        x = mode_x(nu, t, constants)
        return _planck_form(
            "planck emissivity", nu, cavity, constants, x,
            lambda: _bose(x, 2.0 * math.pi * constants.h / c ** 2 * nu ** 3),
            _bose(x, x), 2.0 * math.pi, 2)
    if model is EmissivityModel.RAYLEIGH_JEANS:
        return finite("rayleigh-jeans emissivity", {"nu": nu, "T": t, "V": cavity.volume},
                      lambda: 2.0 * math.pi * constants.k / c ** 2 * nu ** 2 * t,
                      lambda: 2.0 * math.pi * constants.k / c ** 2 * nu * t * nu)
    if model is EmissivityModel.GENERAL:
        x = mode_x(nu, t, constants)
        e = internal_energy(x)
        return _planck_form(
            "general emissivity", nu, cavity, constants, x,
            lambda: 2.0 * math.pi * constants.h / c ** 2 * nu ** 3 * (e / x),
            e, 2.0 * math.pi, 2)
    if model is EmissivityModel.GENERAL_LOW_FREQ:
        return finite("general-lf emissivity", {"nu": nu, "T": t, "V": cavity.volume},
                      lambda: (math.pi ** 3 / 3.0) * constants.k ** 2
                      / (c ** 2 * constants.h) * nu * t * t)
    raise DomainError(f"unknown emissivity model {model!r}")


class EinsteinModel(Enum):
    CONVENTIONAL = "conventional"
    GENERAL_LOW_FREQ = "general-lf"


def einstein_AB(nu: float, constants: PhysicalConstants, temperature: float,
                model: EinsteinModel) -> float:
    """Spontaneous-to-stimulated coefficient ratio A/B.

    CONVENTIONAL: 8 pi h / lambda^3 with lambda = c/nu.
    GENERAL_LOW_FREQ: 4 pi^3 k T / (3 c lambda^2); the two differ by the
    factor pi^2/(6x) exactly.  Where lambda^3 or lambda^2 leaves the doubles
    they divide by lambda once per power.
    """
    require_positive("nu", nu)
    require_positive("T", temperature)
    lam = constants.c / nu
    if model is EinsteinModel.CONVENTIONAL:
        return finite("conventional A/B", {"nu": nu, "T": temperature},
                      lambda: 8.0 * math.pi * constants.h / lam ** 3,
                      lambda: 8.0 * math.pi * constants.h / lam / lam / lam)
    if model is EinsteinModel.GENERAL_LOW_FREQ:
        return finite("general-lf A/B", {"nu": nu, "T": temperature},
                      lambda: 4.0 * math.pi ** 3 * constants.k * temperature
                      / (3.0 * constants.c * lam ** 2),
                      lambda: 4.0 * math.pi ** 3 * constants.k / (3.0 * constants.c)
                      * (temperature / lam) / lam)
    raise DomainError(f"unknown Einstein model {model!r}")


class NoiseModel(Enum):
    RAYLEIGH_JEANS = "rj"
    GENERAL_LOW_FREQ = "general-lf"
    EINSTEIN_FULL = "einstein"


def fluctuation_spectrum(nu: float, cavity: CavitySpec,
                         constants: PhysicalConstants, model: NoiseModel) -> float:
    """Fractional energy-noise spectral density S_u/u^2.

    RAYLEIGH_JEANS:   c^3/(8 pi V) * 1/nu^2        (random-walk 1/nu^2)
    GENERAL_LOW_FREQ: (3/2) h c^3/(pi^3 V) * 1/(kT nu)   (1/nu)
    EINSTEIN_FULL:    h nu/u + c^3/(8 pi nu^2 V) with the conventional u;
                      the shot term h nu/u dominates in the Wien regime

    GENERAL_LOW_FREQ / RAYLEIGH_JEANS equals 12 x / pi^2.  Where nu^2 leaves
    the doubles the nu^2 terms divide by nu twice, and GENERAL_LOW_FREQ is
    taken in logs where its denominator does.  Each raises OverflowError
    where its value exceeds the doubles, as where u underflows to 0.
    """
    require_positive("nu", nu)
    v, c, h = cavity.volume, constants.c, constants.h
    where = {"nu": nu, "T": cavity.temperature, "V": v}
    if model is NoiseModel.EINSTEIN_FULL:
        u = planck_spectral_density(nu, cavity, constants)
        # the wave term is the RAYLEIGH_JEANS value, but in this operand
        # order, which rounds apart from that branch's at V != 1
        return finite("einstein noise", where,
                      lambda: h * nu / u + c ** 3 / (8.0 * math.pi * nu ** 2 * v),
                      lambda: h * nu / u + c ** 3 / (8.0 * math.pi * nu * v) / nu)
    if model is NoiseModel.RAYLEIGH_JEANS:
        return finite("rj noise", where,
                      lambda: c ** 3 / (8.0 * math.pi * v * nu ** 2),
                      lambda: c ** 3 / (8.0 * math.pi * v * nu) / nu)
    if model is NoiseModel.GENERAL_LOW_FREQ:
        k, t = constants.k, cavity.temperature
        return finite("general-lf noise", where,
                      lambda: 1.5 * h * c ** 3 / (math.pi ** 3 * v * k * t * nu),
                      lambda: math.exp(math.log(1.5 / math.pi ** 3) + math.log(h)
                                       + 3.0 * math.log(c) - math.log(v)
                                       - math.log(k) - math.log(t) - math.log(nu)))
    raise DomainError(f"unknown noise model {model!r}")
