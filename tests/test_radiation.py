import math
import re
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from eulergas.errors import DomainError
from eulergas.radiation import (CavitySpec, EinsteinModel, EmissivityModel,
                                NoiseModel, PhotonModel, PhysicalConstants,
                                einstein_AB, emissivity, fluctuation_spectrum,
                                load_key_value_file, mode_x, photon_density,
                                planck_spectral_density, stefan_boltzmann)
from eulergas.thermo import free_energy, occupation, riemann_zeta


# ---------------------------------------------------------------------------
# constants plumbing
# ---------------------------------------------------------------------------

def test_si_constants_are_the_defining_values(si):
    assert si.h == 6.62607015e-34
    assert si.k == 1.380649e-23
    assert si.c == 2.99792458e8


def test_si_constants_read_no_file(monkeypatch):
    # the defining values are literals: no file is opened to build them
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read")
    monkeypatch.setattr(Path, "read_text", refuse)
    monkeypatch.setattr("builtins.open", refuse)
    assert PhysicalConstants.si() == PhysicalConstants(
        h=6.62607015e-34, k=1.380649e-23, c=2.99792458e8)


def test_constants_file_override(tmp_path, si):
    cfg = tmp_path / "alt.cfg"
    cfg.write_text("# legacy h\nh = 6.626e-34\n")
    alt = PhysicalConstants.from_file(cfg)
    assert alt.h == 6.626e-34
    assert alt.k == si.k and alt.c == si.c


def test_constants_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("h : 1\n")
    with pytest.raises(DomainError):
        load_key_value_file(bad, {"h", "k", "c"})
    bad.write_text("hh = 1e-34\n")
    with pytest.raises(DomainError):
        PhysicalConstants.from_file(bad)
    bad.write_text("h = not-a-number\n")
    with pytest.raises(DomainError):
        load_key_value_file(bad, {"h", "k", "c"})


def test_constants_must_be_positive():
    with pytest.raises(DomainError):
        PhysicalConstants(h=-1.0, k=1.0, c=1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_constants_must_be_finite(tmp_path, value):
    with pytest.raises(DomainError, match="finite"):
        PhysicalConstants(h=1.0, k=value, c=1.0)
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(f"h = {value}\n")
    with pytest.raises(DomainError, match="constant h"):
        PhysicalConstants.from_file(cfg)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_physical_inputs_are_refused(si, value):
    calls = [
        lambda: CavitySpec(volume=value, temperature=300.0),
        lambda: CavitySpec(volume=1.0, temperature=value),
        lambda: mode_x(value, 300.0, si),
        lambda: mode_x(1e9, value, si),
        lambda: einstein_AB(value, si, 300.0, EinsteinModel.CONVENTIONAL),
        lambda: einstein_AB(1e9, si, value, EinsteinModel.GENERAL_LOW_FREQ),
    ]
    cavity = CavitySpec(volume=1.0, temperature=300.0)
    calls += [lambda model=model: fluctuation_spectrum(value, cavity, si, model)
              for model in NoiseModel]
    for call in calls:
        with pytest.raises(DomainError, match="finite"):
            call()


@pytest.mark.parametrize("nu, temperature", [(1e12, 1e-320), (1e-320, 300.0),
                                             (1e-300, 1e300), (1e300, 1e-300)])
def test_mode_x_outside_the_doubles_is_refused(si, nu, temperature):
    # k T underflows to 0, h nu to 0, x to 0, or x overflows
    with pytest.raises(DomainError, match=r"x = h\*nu/kT") as info:
        mode_x(nu, temperature, si)
    assert f"nu={nu:g}, T={temperature:g}" in str(info.value)
    # the emissivities that read x are refused with it, the others are not
    cavity = CavitySpec(volume=1.0, temperature=temperature)
    for model in (EmissivityModel.PLANCK, EmissivityModel.GENERAL):
        with pytest.raises(DomainError, match=r"x = h\*nu/kT"):
            emissivity(nu, cavity, si, model)
    if nu < 1e154:  # where nu^2 fits a double
        for model in (EmissivityModel.RAYLEIGH_JEANS,
                      EmissivityModel.GENERAL_LOW_FREQ):
            assert math.isfinite(emissivity(nu, cavity, si, model))


def test_unreadable_constants_file_is_a_domain_error(tmp_path):
    # a missing file, a directory and bytes that are not text
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"h = \xff\xfe\n")
    for path in (tmp_path / "missing.cfg", tmp_path, binary):
        with pytest.raises(DomainError, match="cannot read"):
            PhysicalConstants.from_file(path)


# ---------------------------------------------------------------------------
# Stefan-Boltzmann
# ---------------------------------------------------------------------------

def test_stefan_boltzmann_value(si):
    sigma, excess = stefan_boltzmann(si)
    # published value of the constant under the 2019 SI definitions
    assert sigma == pytest.approx(5.670374419e-8, rel=1e-9)
    assert excess == pytest.approx(riemann_zeta(3.0), rel=1e-12)
    assert excess == pytest.approx(1.2020569, abs=1e-7)


def test_stefan_boltzmann_h_scaling(si):
    doubled = PhysicalConstants(h=2.0 * si.h, k=si.k, c=si.c)
    assert stefan_boltzmann(doubled)[0] == pytest.approx(
        stefan_boltzmann(si)[0] / 8.0, rel=1e-14)


# ---------------------------------------------------------------------------
# photon density
# ---------------------------------------------------------------------------

def test_photon_density_room_temperature(si):
    cavity = CavitySpec(volume=1.0, temperature=300.0)
    inline = (8.0 * math.pi * (si.k * 300.0 / (si.c * si.h)) ** 3
              * 2.0 * riemann_zeta(3.0))
    got = photon_density(cavity, si, PhotonModel.CONVENTIONAL)
    assert got == pytest.approx(inline, rel=1e-12)
    assert got == pytest.approx(5.47e14, rel=5e-3)


def test_photon_density_ratio_is_zeta3(si):
    cavity = CavitySpec(volume=2.0, temperature=120.0)
    ratio = (photon_density(cavity, si, PhotonModel.GENERAL)
             / photon_density(cavity, si, PhotonModel.CONVENTIONAL))
    assert abs(ratio - riemann_zeta(3.0)) < 1e-12


def test_photon_integrals_by_quadrature():
    # conventional: integral x^2/(e^x-1) = 2 zeta(3); general integrand
    # x^2 sum 1/(e^{nx}-1) integrates to 2 zeta(3)^2
    conv, _ = integrate.quad(lambda x: x * x / math.expm1(x) if x > 0 else 0.0,
                             0.0, 60.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    z3 = riemann_zeta(3.0)
    assert conv == pytest.approx(2.0 * z3, rel=1e-9)
    gen, _ = integrate.quad(lambda x: x * x * occupation(x),
                            0.0, 60.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    assert gen == pytest.approx(2.0 * z3 * z3, rel=1e-6)


def test_log_z_integral_conventional(si):
    # integral x^2 (-ln(1 - e^{-x})) dx = Gamma(3) zeta(4) = 2 zeta(4)
    val, _ = integrate.quad(
        lambda x: -x * x * math.log1p(-math.exp(-x)) if x > 0 else 0.0,
        0.0, 60.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    assert val == pytest.approx(2.0 * riemann_zeta(4.0), rel=1e-9)
    cavity = CavitySpec(volume=1e-3, temperature=300.0)
    ln_z = 8.0 * math.pi * cavity.volume * (si.k * 300.0 / (si.c * si.h)) ** 3 * val
    assert ln_z > 0.0


def test_integrated_free_energy_ratio_is_zeta3():
    # both sides by independent quadrature of the s = 3 moment
    gen, _ = integrate.quad(lambda x: -x * x * free_energy(x),
                            0.0, 60.0, epsabs=1e-13, epsrel=1e-11, limit=300)
    conv, _ = integrate.quad(
        lambda x: -x * x * math.log1p(-math.exp(-x)) if x > 0 else 0.0,
        0.0, 60.0, epsabs=1e-14, epsrel=1e-12, limit=300)
    assert gen / conv == pytest.approx(riemann_zeta(3.0), rel=1e-9)


# ---------------------------------------------------------------------------
# emissivity
# ---------------------------------------------------------------------------

def test_emissivity_low_freq_ratio(si):
    cavity = CavitySpec(volume=1.0, temperature=300.0)
    for nu in (1e5, 1e7, 1e9):
        x = mode_x(nu, 300.0, si)
        ratio = (emissivity(nu, cavity, si, EmissivityModel.GENERAL_LOW_FREQ)
                 / emissivity(nu, cavity, si, EmissivityModel.RAYLEIGH_JEANS))
        assert abs(ratio - math.pi ** 2 / (6.0 * x)) <= 1e-12 * ratio


def test_emissivity_planck_formula(si):
    cavity = CavitySpec(volume=1.0, temperature=500.0)
    nu = 1e13
    x = mode_x(nu, 500.0, si)
    inline = 2.0 * math.pi * si.h / si.c ** 2 * nu ** 3 / math.expm1(x)
    assert emissivity(nu, cavity, si, EmissivityModel.PLANCK) == pytest.approx(
        inline, rel=1e-14)


def test_emissivity_general_tracks_planck_at_high_x(si):
    t = 300.0
    cavity = CavitySpec(volume=1.0, temperature=t)
    for x in (15.0, 20.0):
        nu = x * si.k * t / si.h
        planck = emissivity(nu, cavity, si, EmissivityModel.PLANCK)
        general = emissivity(nu, cavity, si, EmissivityModel.GENERAL)
        assert abs(general / planck - 1.0) <= 2.0 * math.exp(-x) * 1.05
        assert abs(general / planck - 1.0) <= 0.01


def test_emissivity_slopes_by_regression(si):
    t = 300.0
    cavity = CavitySpec(volume=1.0, temperature=t)
    nus = np.geomspace(1e3, 1e5, 12)
    rj = [emissivity(float(nu), cavity, si, EmissivityModel.RAYLEIGH_JEANS)
          for nu in nus]
    glf = [emissivity(float(nu), cavity, si, EmissivityModel.GENERAL_LOW_FREQ)
           for nu in nus]
    slope_rj = np.polyfit(np.log(nus), np.log(rj), 1)[0]
    slope_glf = np.polyfit(np.log(nus), np.log(glf), 1)[0]
    assert abs(slope_rj - 2.0) < 1e-6
    assert abs(slope_glf - 1.0) < 1e-6


def test_emissivity_general_at_tiny_x(si):
    # E/kT = pi^2/(6x) - 1/2 + x/24 up to e^{-4 pi^2/x}, so the ratio to the
    # low-frequency form is 1 - 3x/pi^2 + x^2/(4 pi^2) to rounding
    cavity = CavitySpec(volume=1.0, temperature=300.0)
    nu = 1.0  # x ~ 1.6e-13
    x = mode_x(nu, cavity.temperature, si)
    ratio = (emissivity(nu, cavity, si, EmissivityModel.GENERAL)
             / emissivity(nu, cavity, si, EmissivityModel.GENERAL_LOW_FREQ))
    want = 1.0 - 3.0 * x / math.pi ** 2 + x * x / (4.0 * math.pi ** 2)
    assert abs(ratio - want) <= 4 * 2.0 ** -52


# ---------------------------------------------------------------------------
# A/B coefficient ratio
# ---------------------------------------------------------------------------

def test_einstein_ab_ratio_identity(si):
    nu, t = 1e6, 300.0
    x = mode_x(nu, t, si)
    conv = einstein_AB(nu, si, t, EinsteinModel.CONVENTIONAL)
    general = einstein_AB(nu, si, t, EinsteinModel.GENERAL_LOW_FREQ)
    assert abs(general / conv - math.pi ** 2 / (6.0 * x)) <= 1e-12 * (general / conv)


def test_einstein_ab_wavelength_scaling(si):
    t = 250.0
    nu = 2e6
    ratio = (einstein_AB(nu, si, t, EinsteinModel.GENERAL_LOW_FREQ)
             / einstein_AB(nu / 2.0, si, t, EinsteinModel.GENERAL_LOW_FREQ))
    assert ratio == pytest.approx(4.0, rel=1e-13)  # lambda doubling -> /4


def test_einstein_ab_conventional_at_500nm(si):
    lam = 500e-9
    nu = si.c / lam
    inline = 8.0 * math.pi * si.h / lam ** 3
    got = einstein_AB(nu, si, 300.0, EinsteinModel.CONVENTIONAL)
    assert got == pytest.approx(inline, rel=1e-12)
    assert got == pytest.approx(1.33e-13, rel=3e-3)


# ---------------------------------------------------------------------------
# fluctuation spectra
# ---------------------------------------------------------------------------

def test_noise_ratio_identity(si):
    cavity = CavitySpec(volume=1e-3, temperature=300.0)
    for nu in (1e4, 1e6, 1e8):
        x = mode_x(nu, 300.0, si)
        ratio = (fluctuation_spectrum(nu, cavity, si, NoiseModel.GENERAL_LOW_FREQ)
                 / fluctuation_spectrum(nu, cavity, si, NoiseModel.RAYLEIGH_JEANS))
        assert abs(ratio - 12.0 * x / math.pi ** 2) <= 1e-12 * ratio


def test_noise_slopes_by_regression(si):
    cavity = CavitySpec(volume=1e-3, temperature=300.0)
    nus = np.geomspace(1e4, 1e6, 10)
    rj = [fluctuation_spectrum(float(nu), cavity, si, NoiseModel.RAYLEIGH_JEANS)
          for nu in nus]
    glf = [fluctuation_spectrum(float(nu), cavity, si,
                                NoiseModel.GENERAL_LOW_FREQ) for nu in nus]
    assert abs(np.polyfit(np.log(nus), np.log(rj), 1)[0] + 2.0) < 1e-6
    assert abs(np.polyfit(np.log(nus), np.log(glf), 1)[0] + 1.0) < 1e-6


def _rj_emissivity_mp(nu, temperature, si):
    with mpmath.workdps(30):
        return (2 * mpmath.pi * mpmath.mpf(si.k) * mpmath.mpf(nu) ** 2
                * temperature / mpmath.mpf(si.c) ** 2)


def _rj_noise_mp(nu, volume, si):
    with mpmath.workdps(30):
        return (mpmath.mpf(si.c) ** 3
                / (8 * mpmath.pi * volume * mpmath.mpf(nu) ** 2))


@pytest.mark.parametrize("nu", [1.172102298e158, 2.212216291e178, 1e300])
def test_rj_emissivity_where_nu_squared_overflows(si, nu):
    # the emissivity sweep at T = 1e-300: nu^2 exceeds the doubles from
    # nu = 1.34e154, the value does not (1.3e-23 at 1.17e158)
    cavity = CavitySpec(volume=1.0, temperature=1e-300)
    value = emissivity(nu, cavity, si, EmissivityModel.RAYLEIGH_JEANS)
    want = _rj_emissivity_mp(nu, 1e-300, si)
    assert abs(value - want) <= 1e-15 * want


def test_rj_emissivity_keeps_its_rounding_below_the_root(si):
    cavity = CavitySpec(volume=1.0, temperature=300.0)
    for nu in (1e6, 1e12, 1.3e154):
        assert (emissivity(nu, cavity, si, EmissivityModel.RAYLEIGH_JEANS)
                == 2.0 * math.pi * si.k / si.c ** 2 * nu ** 2 * 300.0)


@pytest.mark.parametrize("nu,temperature", [(1e200, 1.0), (1e150, 1e300)])
def test_rj_emissivity_past_the_doubles_names_its_inputs(si, nu, temperature):
    cavity = CavitySpec(volume=1.0, temperature=temperature)
    name = f"rayleigh-jeans emissivity at nu={nu:g}, T={temperature:g}, V=1 "
    with pytest.raises(OverflowError, match=re.escape(name)):
        emissivity(nu, cavity, si, EmissivityModel.RAYLEIGH_JEANS)


@pytest.mark.parametrize("model,nu", [
    (NoiseModel.RAYLEIGH_JEANS, 9.999888672e-321),
    (NoiseModel.RAYLEIGH_JEANS, 2.395000876e-299),
    (NoiseModel.RAYLEIGH_JEANS, 1.082628006e-149),
    (NoiseModel.GENERAL_LOW_FREQ, 9.999888672e-321),
    (NoiseModel.GENERAL_LOW_FREQ, 2.395000876e-299),
])
def test_noise_past_the_doubles_names_its_inputs(si, model, nu):
    # the frac-noise sweep at T = 300: nu^2 or k*T*nu underflows, or the
    # quotient overflows; each is an OverflowError naming nu, T and V
    cavity = CavitySpec(volume=1.0, temperature=300.0)
    name = f"{model.value} noise at nu={nu:g}, T=300, V=1 "
    with pytest.raises(OverflowError, match=re.escape(name)):
        fluctuation_spectrum(nu, cavity, si, model)


@pytest.mark.parametrize("nu,volume", [
    (5.298304702e171, 1.0),     # nu^2 overflows; the value is subnormal
    (1e300, 1e-300),            # nu^2 overflows; the value is 2.7e-258
    (1e-170, 1e300),            # nu^2 underflows to 0; the value is 1.1e64
    (1e300, 1.0),               # the value is below the least double: 0
])
def test_rj_noise_where_nu_squared_leaves_the_doubles(si, nu, volume):
    cavity = CavitySpec(volume=volume, temperature=300.0)
    value = fluctuation_spectrum(nu, cavity, si, NoiseModel.RAYLEIGH_JEANS)
    want = _rj_noise_mp(nu, volume, si)
    assert abs(value - want) <= 1e-15 * want + 2.0 ** -1074


@pytest.mark.parametrize("nu,volume,temperature", [
    (1e12, 1e-300, 1e-5),     # pi^3 V k T nu underflows to 0; 6.3e306
    (1e20, 1.0, 1e-310),      # and here to a subnormal that is refused
])
def test_general_lf_noise_where_its_denominator_underflows(si, nu, volume,
                                                           temperature):
    # it read an OverflowError, as if the value exceeded the doubles
    cavity = CavitySpec(volume=volume, temperature=temperature)
    got = fluctuation_spectrum(nu, cavity, si, NoiseModel.GENERAL_LOW_FREQ)
    with mpmath.workdps(30):
        want = (1.5 * mpmath.mpf(si.h) * mpmath.mpf(si.c) ** 3
                / (mpmath.pi ** 3 * volume * mpmath.mpf(si.k) * temperature * nu))
    assert abs(got - want) <= 1e-13 * want


def _planck_forms_mp(nu, temperature, si, volume=1.0):
    """The Planck-form values at V = volume to 30 digits, as kT nu^2 times
    the per-mode factor: x/(e^x - 1), and E(x) = pi^2/(6x) - 1/2 + x/24,
    exact far below a double at the x < 1e-5 used here, or x e^{-x} at the
    x > 1e30 used here."""
    with mpmath.workdps(30):
        kt = mpmath.mpf(si.k) * temperature
        x = mpmath.mpf(si.h) * nu / kt
        kt_nu2 = kt * mpmath.mpf(nu) ** 2
        planck = x / mpmath.expm1(x)
        general = (mpmath.pi ** 2 / (6 * x) - 0.5 + x / 24 if x < 1
                   else x * mpmath.exp(-x))
        c = mpmath.mpf(si.c)
        return {"density": 8 * mpmath.pi * volume / c ** 3 * kt_nu2 * planck,
                EmissivityModel.PLANCK: 2 * mpmath.pi / c ** 2 * kt_nu2 * planck,
                EmissivityModel.GENERAL: 2 * mpmath.pi / c ** 2 * kt_nu2 * general}


@pytest.mark.parametrize("nu,temperature,volume", [
    pytest.param(1e110, 1e105, 1.0, id="1e+110-1e+105"),
    pytest.param(1e-160, 0.5, 1.0, id="1e-160-0.5"),
    # x = 4.8e34: the density's kT times its prefactor overflows while
    # x/(e^x - 1) is 0, a product that read nan; the value underflows
    pytest.param(1e150, 1e105, 1e300, id="1e+150-1e+105-1e+300"),
])
def test_planck_forms_where_nu_cubed_leaves_the_doubles(si, nu, temperature,
                                                         volume):
    # nu^3 overflows at 1e110 and 1e150, and at 1e-160 underflows to 0 while
    # E(x)/x overflows; each value that fits a double is returned
    cavity = CavitySpec(volume=volume, temperature=temperature)
    got = {"density": planck_spectral_density(nu, cavity, si),
           **{m: emissivity(nu, cavity, si, m)
              for m in (EmissivityModel.PLANCK, EmissivityModel.GENERAL)}}
    for key, want in _planck_forms_mp(nu, temperature, si, volume).items():
        assert abs(got[key] - want) <= 1e-15 * want + 2.0 ** -1074, key


def test_planck_forms_past_the_doubles_name_their_inputs(si):
    cavity = CavitySpec(volume=1.0, temperature=1e300)
    where = re.escape(" at nu=1e+150, T=1e+300, V=1 ")
    with pytest.raises(OverflowError, match="planck spectral density" + where):
        planck_spectral_density(1e150, cavity, si)
    for model in (EmissivityModel.PLANCK, EmissivityModel.GENERAL):
        with pytest.raises(OverflowError, match=f"{model.value} emissivity" + where):
            emissivity(1e150, cavity, si, model)


@pytest.mark.parametrize("nu,x", [(1e103, 800.0), (1e150, 746.0),
                                  (1e150, 1500.0), (1e300, 2000.0)])
def test_planck_forms_where_the_per_mode_factor_underflows(si, nu, x):
    # nu^3 overflows and x/(e^x - 1) underflows to 0, so the order by kT read
    # 0.0 whatever the value; in logs it is 1e-96 to 1e191 here
    temperature = si.h * nu / (x * si.k)
    cavity = CavitySpec(volume=1.0, temperature=temperature)
    with mpmath.workdps(30):
        xx = mpmath.mpf(si.h) * nu / (mpmath.mpf(si.k) * temperature)
        planck = (2 * mpmath.pi * mpmath.mpf(si.h) / mpmath.mpf(si.c) ** 2
                  * mpmath.mpf(nu) ** 3 / mpmath.expm1(xx))
    got = emissivity(nu, cavity, si, EmissivityModel.PLANCK)
    assert abs(got - planck) <= 1e-12 * planck
    assert planck_spectral_density(nu, cavity, si) == pytest.approx(
        4.0 / si.c * float(planck), rel=1e-12)


def test_planck_forms_that_read_0_past_the_doubles_are_refused(si):
    # x = 800 at nu = 1e300: the value is e^1140 (it read 0.0)
    cavity = CavitySpec(volume=1.0, temperature=si.h * 1e300 / (800.0 * si.k))
    for model in (EmissivityModel.PLANCK, EmissivityModel.GENERAL):
        with pytest.raises(OverflowError, match=f"^{model.value} emissivity "):
            emissivity(1e300, cavity, si, model)


@pytest.mark.parametrize("nu,temperature", [(1e-200, 1e150), (1e-170, 1e300)])
def test_rj_emissivity_where_nu_squared_underflows(si, nu, temperature):
    # nu^2 underflows to 0, so the nu^2 order reads 0.0; nu T nu does not
    cavity = CavitySpec(volume=1.0, temperature=temperature)
    value = emissivity(nu, cavity, si, EmissivityModel.RAYLEIGH_JEANS)
    want = _rj_emissivity_mp(nu, temperature, si)
    assert abs(value - want) <= 1e-15 * want


@pytest.mark.parametrize("model", list(EinsteinModel))
@pytest.mark.parametrize("nu,temperature", [(1e-200, 300.0), (1e171, 300.0),
                                            (1e250, 1e-300)])
def test_einstein_ab_where_a_power_of_lambda_leaves_the_doubles(si, model, nu,
                                                                temperature):
    # lambda^3 or lambda^2 overflows (it raised the errno tuple) or
    # underflows to 0 (a bare ZeroDivisionError)
    with mpmath.workdps(30):
        lam = mpmath.mpf(si.c) / nu
        want = (8 * mpmath.pi * mpmath.mpf(si.h) / lam ** 3
                if model is EinsteinModel.CONVENTIONAL else
                4 * mpmath.pi ** 3 * mpmath.mpf(si.k) * temperature
                / (3 * mpmath.mpf(si.c) * lam ** 2))
    if want > 1.7976931348623157e308:
        with pytest.raises(OverflowError, match="^" + re.escape(
                f"{model.value} A/B at nu={nu:g}, T={temperature:g} exceeds")):
            einstein_AB(nu, si, temperature, model)
    else:
        got = einstein_AB(nu, si, temperature, model)
        assert abs(got - want) <= 1e-15 * want + 2.0 ** -1074


def test_integrated_quantities_past_the_doubles_name_their_inputs(si):
    with pytest.raises(OverflowError, match=re.escape(
            "general photon density at T=1e+110 exceeds the largest double")):
        photon_density(CavitySpec(volume=1.0, temperature=1e110), si,
                       PhotonModel.GENERAL)
    with pytest.raises(OverflowError, match=(
            r"^stefan-boltzmann constant at h=1e-300, k=1e\+100, c=1 exceeds")):
        stefan_boltzmann(PhysicalConstants(h=1e-300, k=1e100, c=1.0))


def test_einstein_wave_term_where_nu_squared_overflows(si):
    # x = 500: the shot term is finite and nu^2 exceeds the doubles; the sum
    # is RJ * e^x, as below
    nu = 1e155
    temperature = si.h * nu / (500.0 * si.k)
    cavity = CavitySpec(volume=1.0, temperature=temperature)
    got = fluctuation_spectrum(nu, cavity, si, NoiseModel.EINSTEIN_FULL)
    with mpmath.workdps(30):
        want = _rj_noise_mp(nu, 1.0, si) * mpmath.exp(
            mpmath.mpf(si.h) * nu / (mpmath.mpf(si.k) * temperature))
    assert abs(got - want) <= 1e-13 * want


def test_einstein_full_with_planck_u_is_rj_times_exp_x(si):
    # algebraic collapse: h nu/u + c^3/(8 pi nu^2 V) = RJ * e^x for Planck u
    cavity = CavitySpec(volume=1e-3, temperature=300.0)
    for nu in (1e9, 1e11):
        x = mode_x(nu, 300.0, si)
        full = fluctuation_spectrum(nu, cavity, si, NoiseModel.EINSTEIN_FULL)
        rj = fluctuation_spectrum(nu, cavity, si, NoiseModel.RAYLEIGH_JEANS)
        assert full == pytest.approx(rj * math.exp(x), rel=1e-12)


def test_spectral_point_assembles_both_models(si):
    cavity = CavitySpec(volume=1e-3, temperature=300.0)
    nu = 1e11
    u_conventional = planck_spectral_density(nu, cavity, si)
    e_b_planck = emissivity(nu, cavity, si, EmissivityModel.PLANCK)
    e_b_general = emissivity(nu, cavity, si, EmissivityModel.GENERAL)
    u_general = 4.0 * cavity.volume / si.c * e_b_general
    assert u_general >= u_conventional > 0.0
    assert e_b_general >= e_b_planck > 0.0
    assert fluctuation_spectrum(nu, cavity, si, NoiseModel.RAYLEIGH_JEANS) > 0.0
    assert fluctuation_spectrum(nu, cavity, si, NoiseModel.GENERAL_LOW_FREQ) > 0.0
    # u and e_b tied by e_b = (c/4V) u in both models
    assert e_b_planck == pytest.approx(
        si.c / (4.0 * cavity.volume) * u_conventional, rel=1e-12)


# ---------------------------------------------------------------------------
# dimensional audit (units-tag fixture)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unit:
    kg: int = 0
    m: int = 0
    s: int = 0
    kelvin: int = 0

    def __mul__(self, other):
        return Unit(self.kg + other.kg, self.m + other.m, self.s + other.s,
                    self.kelvin + other.kelvin)

    def __truediv__(self, other):
        return Unit(self.kg - other.kg, self.m - other.m, self.s - other.s,
                    self.kelvin - other.kelvin)

    def __pow__(self, n):
        return Unit(self.kg * n, self.m * n, self.s * n, self.kelvin * n)


U_H = Unit(kg=1, m=2, s=-1)              # J s
U_K = Unit(kg=1, m=2, s=-2, kelvin=-1)   # J / K
U_C = Unit(m=1, s=-1)
U_NU = Unit(s=-1)
U_T = Unit(kelvin=1)
U_V = Unit(m=3)
DIMENSIONLESS = Unit()


def test_units_stefan_boltzmann():
    got = U_K ** 4 / (U_C ** 2 * U_H ** 3)
    want = Unit(kg=1, s=-3) / U_T ** 4          # W m^-2 K^-4
    assert got == want


def test_units_photon_density():
    got = (U_K * U_T / (U_C * U_H)) ** 3
    assert got == DIMENSIONLESS / U_V


def test_units_mode_x_dimensionless():
    assert U_H * U_NU / (U_K * U_T) == DIMENSIONLESS


def test_units_emissivity_models_agree():
    spectral_emissive = Unit(kg=1, s=-3) / U_NU   # W m^-2 Hz^-1
    planck = U_H * U_NU ** 3 / U_C ** 2
    rj = U_K * U_NU ** 2 * U_T / U_C ** 2
    glf = U_K ** 2 / (U_C ** 2 * U_H) * U_NU * U_T ** 2
    assert planck == rj == glf == spectral_emissive


def test_units_einstein_ab_models_agree():
    lam = U_C / U_NU
    conv = U_H / lam ** 3
    glf = U_K * U_T / (U_C * lam ** 2)
    assert conv == glf


def test_units_fluctuation_models_agree():
    # all three fractional-noise expressions must compose identically; with
    # the extensive u (J/Hz) convention they all carry 1/s, read as the
    # fractional PSD of the u time series per unit bandwidth
    rj = U_C ** 3 / (U_V * U_NU ** 2)
    glf = U_H * U_C ** 3 / (U_V * U_K * U_T * U_NU)
    u_unit = U_H  # J/Hz = J s
    shot = U_H * U_NU / u_unit
    wave = U_C ** 3 / (U_NU ** 2 * U_V)
    assert rj == glf == shot == wave


def test_units_flicker_floor_composition():
    # the phonon-side formula composes exactly so that S_u/u^2 = a_ph/(V nu)
    # lands on the same unit as the photon-side noise expressions
    a_ph_formula = U_H * U_C ** 3 / (U_K * U_T)
    noise_unit = U_C ** 3 / (U_V * U_NU ** 2)
    assert a_ph_formula == noise_unit * U_V * U_NU
    # per unit of noise rate, a_ph carries exactly one volume, which the V
    # in h_-1 = a_ph/(4 Q^4 V) cancels; h_-1 is dimensionless when the
    # fractional noise is read as the 1/Hz PSD of the stationary u(t) record
    assert a_ph_formula / (noise_unit * U_NU) == U_V
