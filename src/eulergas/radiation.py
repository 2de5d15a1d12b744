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
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import DomainError, require_positive
from .thermo import ZETA3, _bose, internal_energy

__all__ = [
    "PhysicalConstants", "CavitySpec", "load_key_value_file",
    "mode_x",
    "stefan_boltzmann", "PhotonModel", "photon_density",
    "planck_spectral_density", "EmissivityModel", "emissivity",
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
    sigma = (2.0 * math.pi ** 5 * constants.k ** 4
             / (15.0 * constants.c ** 2 * constants.h ** 3))
    return sigma, ZETA3


class PhotonModel(Enum):
    CONVENTIONAL = "conventional"
    GENERAL = "general"


def photon_density(cavity: CavitySpec, constants: PhysicalConstants,
                   model: PhotonModel) -> float:
    """Photons per unit volume: 8 pi (kT/ch)^3 * 2 zeta(3), times zeta(3)
    again in the general model."""
    scale = 8.0 * math.pi * (constants.k * cavity.temperature
                             / (constants.c * constants.h)) ** 3
    if model is PhotonModel.CONVENTIONAL:
        return scale * 2.0 * ZETA3
    if model is PhotonModel.GENERAL:
        return scale * 2.0 * ZETA3 * ZETA3
    raise DomainError(f"unknown photon model {model!r}")


def planck_spectral_density(nu: float, cavity: CavitySpec,
                            constants: PhysicalConstants) -> float:
    """Conventional spectral energy density u(nu, T) in J/Hz:
    (8 pi h V / c^3) nu^3 / (e^x - 1), taken as nu^3 e^{-x}/(1 - e^{-x})."""
    x = mode_x(nu, cavity.temperature, constants)
    return _bose(x, 8.0 * math.pi * constants.h * cavity.volume / constants.c ** 3
                 * nu ** 3)


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
    where mode_x refuses it.
    """
    require_positive("nu", nu)
    t = cavity.temperature
    c2 = constants.c ** 2
    if model is EmissivityModel.PLANCK:
        return _bose(mode_x(nu, t, constants),
                     2.0 * math.pi * constants.h / c2 * nu ** 3)
    if model is EmissivityModel.RAYLEIGH_JEANS:
        return 2.0 * math.pi * constants.k / c2 * nu ** 2 * t
    if model is EmissivityModel.GENERAL:
        x = mode_x(nu, t, constants)
        return (2.0 * math.pi * constants.h / c2 * nu ** 3
                * (internal_energy(x) / x))
    if model is EmissivityModel.GENERAL_LOW_FREQ:
        return (math.pi ** 3 / 3.0) * constants.k ** 2 / (c2 * constants.h) * nu * t * t
    raise DomainError(f"unknown emissivity model {model!r}")


class EinsteinModel(Enum):
    CONVENTIONAL = "conventional"
    GENERAL_LOW_FREQ = "general-lf"


def einstein_AB(nu: float, constants: PhysicalConstants, temperature: float,
                model: EinsteinModel) -> float:
    """Spontaneous-to-stimulated coefficient ratio A/B.

    CONVENTIONAL: 8 pi h / lambda^3 with lambda = c/nu.
    GENERAL_LOW_FREQ: 4 pi^3 k T / (3 c lambda^2); the two differ by the
    factor pi^2/(6x) exactly.
    """
    require_positive("nu", nu)
    require_positive("T", temperature)
    lam = constants.c / nu
    if model is EinsteinModel.CONVENTIONAL:
        return 8.0 * math.pi * constants.h / lam ** 3
    if model is EinsteinModel.GENERAL_LOW_FREQ:
        return 4.0 * math.pi ** 3 * constants.k * temperature / (3.0 * constants.c * lam ** 2)
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

    GENERAL_LOW_FREQ / RAYLEIGH_JEANS equals 12 x / pi^2.
    """
    require_positive("nu", nu)
    v = cavity.volume
    if model is NoiseModel.RAYLEIGH_JEANS:
        return constants.c ** 3 / (8.0 * math.pi * v * nu ** 2)
    if model is NoiseModel.GENERAL_LOW_FREQ:
        return (1.5 * constants.h * constants.c ** 3
                / (math.pi ** 3 * v * constants.k * cavity.temperature * nu))
    if model is NoiseModel.EINSTEIN_FULL:
        u = planck_spectral_density(nu, cavity, constants)
        if u == 0.0:
            # e^{-x} underflowed, so the shot term h nu/u exceeds every double
            raise OverflowError(f"shot term h*nu/u overflows: u underflows "
                                f"to 0 at nu={nu:g}")
        # the wave term is the RAYLEIGH_JEANS value, but in this operand
        # order, which rounds apart from that branch's at V != 1
        return (constants.h * nu / u
                + constants.c ** 3 / (8.0 * math.pi * nu ** 2 * v))
    raise DomainError(f"unknown noise model {model!r}")

