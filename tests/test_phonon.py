import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from eulergas.errors import DomainError
from eulergas.phonon import (DEBYE_SWITCH, PRESET_NAMES, DebyeModel,
                             ResonatorSpec, SolidSpec, debye_frequency,
                             debye_function, debye_function_series,
                             debye_temperature, debye_velocity,
                             energy_fluctuation, flicker_floor,
                             load_resonator_preset, specific_heat)
from eulergas.thermo import riemann_zeta


def make_solid(temperature, n_atoms=6.022e23, volume=1e-5, c_ph=3500.0):
    return SolidSpec(n_atoms=n_atoms, volume=volume, temperature=temperature,
                     c_ph=c_ph)


# ---------------------------------------------------------------------------
# velocities and the Debye scale
# ---------------------------------------------------------------------------

def test_debye_velocity_isotropic_degenerate():
    assert debye_velocity(4200.0, 4200.0) == pytest.approx(4200.0, rel=1e-15)


def test_debye_velocity_worked_value():
    inline = (3.0 / (2.0 / 27e9 + 1.0 / 216e9)) ** (1.0 / 3.0)
    assert debye_velocity(3000.0, 6000.0) == pytest.approx(inline, rel=1e-15)


def test_debye_velocity_bounds():
    for ct, cl in ((2000.0, 9000.0), (3500.0, 5700.0)):
        v = debye_velocity(ct, cl)
        assert min(ct, cl) < v < max(ct, cl)


def test_solid_spec_derives_velocity():
    s = SolidSpec(n_atoms=1e23, volume=1e-6, temperature=300.0,
                  c_transverse=3000.0, c_longitudinal=6000.0)
    assert s.c_ph == pytest.approx(debye_velocity(3000.0, 6000.0), rel=1e-15)
    with pytest.raises(DomainError):
        SolidSpec(n_atoms=1e23, volume=1e-6, temperature=300.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_physical_inputs_are_refused(value):
    solid = dict(n_atoms=1e23, volume=1e-6, temperature=300.0, c_ph=3500.0)
    resonator = dict(q_factor=1e6, carrier=5e6, active_volume=1e-6,
                     temperature=300.0, c_ph=3500.0)
    calls = [lambda: debye_velocity(value, 6000.0),
             lambda: debye_velocity(3000.0, value),
             lambda: SolidSpec(n_atoms=1e23, volume=1e-6, temperature=300.0,
                               c_transverse=value, c_longitudinal=6000.0)]
    calls += [lambda key=key: SolidSpec(**{**solid, key: value})
              for key in solid]
    calls += [lambda key=key: ResonatorSpec(**{**resonator, key: value})
              for key in resonator]
    for call in calls:
        with pytest.raises(DomainError, match="finite"):
            call()


def test_debye_frequency_scaling_and_value():
    base = make_solid(300.0)
    doubled = make_solid(300.0, n_atoms=2 * 6.022e23)
    assert (debye_frequency(doubled)
            == pytest.approx(debye_frequency(base) * 2 ** (1 / 3), rel=1e-14))
    inline = (3.0 * 6.022e23 * 3500.0 ** 3 / (4.0 * math.pi * 1e-5)) ** (1 / 3)
    assert debye_frequency(base) == pytest.approx(inline, rel=1e-14)


def test_mode_count_closes(si):
    # integral of the mode density up to nu_m returns all 3 N0 states
    solid = make_solid(300.0)
    nu_m = debye_frequency(solid)
    density = 12.0 * math.pi * solid.volume / solid.c_ph ** 3
    total, _ = integrate.quad(lambda nu: density * nu * nu, 0.0, nu_m,
                              epsabs=0.0, epsrel=1e-12, limit=100)
    assert total == pytest.approx(3.0 * solid.n_atoms, rel=1e-9)


# ---------------------------------------------------------------------------
# Debye function
# ---------------------------------------------------------------------------

def test_debye_function_small_argument_taylor():
    # D(a) = 1 - 3a/8 + a^2/20 + O(a^4)
    for a in (1e-3, 1e-2):
        taylor = 1.0 - 3.0 * a / 8.0 + a * a / 20.0
        assert debye_function(a) == pytest.approx(taylor, rel=1e-9)


def test_debye_function_large_argument_limit():
    a = 40.0
    assert debye_function(a) == pytest.approx(math.pi ** 4 / (5.0 * a ** 3),
                                              rel=1e-12)


def test_debye_function_dual_route_at_one():
    assert debye_function(1.0) == pytest.approx(debye_function_series(1.0),
                                                rel=1e-9)


def test_debye_function_monotone_and_bounded():
    grid = np.geomspace(1e-3, 50.0, 25)
    values = [debye_function(float(a)) for a in grid]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_debye_function_domain():
    with pytest.raises(DomainError):
        debye_function(0.0)


def _debye_reference(a: float) -> mpmath.mpf:
    """40-digit quadrature of (3/a^3) integral_0^a x^3/(e^x - 1) dx."""
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        return 3 / a ** 3 * mpmath.quad(lambda x: x ** 3 / mpmath.expm1(x),
                                        [0, min(a, 2), a])


@pytest.mark.parametrize("a", [
    *(float(a) for a in np.geomspace(1e-6, 720.0, 36)),
    *(DEBYE_SWITCH * (1.0 + e) for e in (-1e-3, -2.0 ** -52, 0.0, 2.0 ** -52,
                                         1e-3)),
    2.8, 3.4,  # where the exponential series cancels most against pi^4/15
])
def test_debye_function_against_40_digit_quadrature(a):
    ref = _debye_reference(a)
    assert abs(debye_function(a) - ref) <= 2e-15 * ref


def test_debye_function_huge_argument_underflows():
    # the pi^4/(5 a^3) limit, taken without forming a^3
    assert debye_function(1e103) == pytest.approx(math.pi ** 4 / 5.0 * 1e-309,
                                                  rel=1e-12)
    assert debye_function(3e302) == 0.0
    assert debye_function(math.inf) == 0.0


@pytest.mark.parametrize("temperature", [1e-300, 1e-310])
def test_specific_heat_near_zero_temperature_is_zero(si, temperature):
    # x_m ~ 4e302, and inf at a subnormal T: the Bose term is written in
    # e^{-x} form and cannot overflow
    cold = make_solid(temperature)
    assert specific_heat(cold, si, DebyeModel.CONVENTIONAL) == 0.0
    assert energy_fluctuation(cold, si)[0] == 0.0


# ---------------------------------------------------------------------------
# specific heat
# ---------------------------------------------------------------------------

def test_dulong_petit_limit(si):
    solid = make_solid(300.0)
    theta = debye_temperature(solid, si)
    hot = make_solid(20.0 * theta)
    r3 = 3.0 * hot.n_atoms * si.k
    assert specific_heat(hot, si, DebyeModel.CONVENTIONAL) / r3 == pytest.approx(
        1.0, abs=5e-3)


def test_cubic_law_limit(si):
    solid = make_solid(300.0)
    theta = debye_temperature(solid, si)
    cold = make_solid(0.01 * theta)
    r3 = 3.0 * cold.n_atoms * si.k
    want = (4.0 * math.pi ** 4 / 5.0) * (0.01) ** 3
    assert specific_heat(cold, si, DebyeModel.CONVENTIONAL) / r3 == pytest.approx(
        want, rel=1e-2)


def test_specific_heat_ratio_is_zeta3(si):
    solid = make_solid(77.0)
    ratio = (specific_heat(solid, si, DebyeModel.GENERAL)
             / specific_heat(solid, si, DebyeModel.CONVENTIONAL))
    assert abs(ratio - riemann_zeta(3.0)) < 1e-12


def test_specific_heat_ratio_bounded_and_continuous(si):
    solid = make_solid(300.0)
    theta = debye_temperature(solid, si)
    previous = None
    for t_over_theta in np.geomspace(0.02, 30.0, 30):
        s = make_solid(float(t_over_theta) * theta)
        ratio = specific_heat(s, si, DebyeModel.CONVENTIONAL) / (3.0 * s.n_atoms * si.k)
        assert 0.0 < ratio <= 1.0 + 1e-12
        if previous is not None:
            assert ratio > previous  # C_v rises monotonically with T
        previous = ratio


def test_specific_heat_matches_bracketed_form(si):
    # cross-check the analytic derivative against 3R [D - x D'] with D' by
    # central difference
    solid = make_solid(150.0)
    x_m = debye_temperature(solid, si) / solid.temperature
    h = 1e-6 * x_m
    d_prime = (debye_function(x_m + h) - debye_function(x_m - h)) / (2.0 * h)
    bracketed = 3.0 * solid.n_atoms * si.k * (
        debye_function(x_m) - x_m * d_prime)
    got = specific_heat(solid, si, DebyeModel.CONVENTIONAL)
    assert got == pytest.approx(bracketed, rel=1e-6)


# ---------------------------------------------------------------------------
# energy fluctuations
# ---------------------------------------------------------------------------

def test_energy_fluctuation_values(si):
    solid = SolidSpec(n_atoms=1e23, volume=1e-6, temperature=300.0, c_ph=3500.0)
    eps_sq, relative = energy_fluctuation(solid, si)
    assert eps_sq > 0.0
    assert relative == pytest.approx(math.sqrt(2.0 / 3e23), rel=1e-15)
    assert 1e-12 < relative < 1e-11
    # variance identity
    cv = specific_heat(solid, si, DebyeModel.CONVENTIONAL)
    assert eps_sq == pytest.approx(si.k * 300.0 ** 2 * cv, rel=1e-14)


def test_energy_fluctuation_scaling(si):
    base = SolidSpec(n_atoms=1e23, volume=1e-6, temperature=300.0, c_ph=3500.0)
    quad = SolidSpec(n_atoms=4e23, volume=1e-6, temperature=300.0, c_ph=3500.0)
    assert (energy_fluctuation(quad, si)[1]
            == pytest.approx(energy_fluctuation(base, si)[1] / 2.0, rel=1e-14))


# ---------------------------------------------------------------------------
# flicker floor
# ---------------------------------------------------------------------------

def test_flicker_worked_example(si):
    spec, refs = load_resonator_preset("p5-5mhz")
    result = flicker_floor(spec, si)
    inline_a = 9.0 * si.h * 3.5e3 ** 3 / (4.0 * math.pi ** 3 * si.k * 300.0)
    assert result.a_ph == pytest.approx(inline_a, rel=1e-12)
    assert abs(result.a_ph / 5e-4 - 1.0) < 0.2
    inline_h = inline_a / (4.0 * (2e6) ** 4 * 1e-6)
    assert result.h_minus_1 == pytest.approx(inline_h, rel=1e-12)
    assert 6e-24 / 2.0 < result.h_minus_1 < 6e-24 * 2.0
    assert result.h_minus_1 == pytest.approx(7.777e-24, rel=1e-3)
    assert refs["reference_a_ph"] == 5e-4
    assert refs["reference_h_minus_1"] == 6e-24


def test_flicker_q_scaling(si):
    spec, _ = load_resonator_preset("p5-5mhz")
    double_q = ResonatorSpec(q_factor=2.0 * spec.q_factor, carrier=spec.carrier,
                             active_volume=spec.active_volume,
                             temperature=spec.temperature, c_ph=spec.c_ph)
    assert (flicker_floor(double_q, si).h_minus_1
            == pytest.approx(flicker_floor(spec, si).h_minus_1 / 16.0, rel=1e-14))


def test_flicker_parameter_scalings_exact(si):
    spec, _ = load_resonator_preset("p5-5mhz")
    base = flicker_floor(spec, si).h_minus_1
    for field, factor, expected in (("active_volume", 2.0, 0.5),
                                    ("temperature", 2.0, 0.5),
                                    ("q_factor", 3.0, 3.0 ** -4)):
        kwargs = {"q_factor": spec.q_factor, "carrier": spec.carrier,
                  "active_volume": spec.active_volume,
                  "temperature": spec.temperature, "c_ph": spec.c_ph}
        kwargs[field] *= factor
        scaled = flicker_floor(ResonatorSpec(**kwargs), si).h_minus_1
        assert scaled == pytest.approx(base * expected, rel=1e-13)


def test_preset_loading(tmp_path):
    with pytest.raises(DomainError):
        load_resonator_preset("no-such-preset")
    custom = tmp_path / "lab.cfg"
    custom.write_text("c_ph = 4000\nq_factor = 1e6\ncarrier = 1e7\n"
                      "active_volume = 2e-6\ntemperature = 77\n")
    spec, refs = load_resonator_preset(custom)
    assert spec.temperature == 77.0 and refs == {}
    incomplete = tmp_path / "bad.cfg"
    incomplete.write_text("c_ph = 4000\n")
    with pytest.raises(DomainError):
        load_resonator_preset(incomplete)


def test_named_preset_is_a_literal(monkeypatch):
    # p5-5mhz's pinned values, built with no file read
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read")
    monkeypatch.setattr(Path, "read_text", refuse)
    monkeypatch.setattr("builtins.open", refuse)
    spec, refs = load_resonator_preset("p5-5mhz")
    assert spec == ResonatorSpec(q_factor=2e6, carrier=5e6, active_volume=1e-6,
                                 temperature=300.0, c_ph=3.5e3)
    assert type(spec.temperature) is float
    assert refs == {"reference_a_ph": 5e-4, "reference_h_minus_1": 6e-24}
    assert list(refs) == ["reference_a_ph", "reference_h_minus_1"]
    assert PRESET_NAMES == ("p5-5mhz",)


# ---------------------------------------------------------------------------
# finite values or named refusals at extreme doubles
# ---------------------------------------------------------------------------

def _nu_m_mp(solid):
    with mpmath.workdps(30):
        return (3 * mpmath.mpf(solid.n_atoms) * mpmath.mpf(solid.c_ph) ** 3
                / (4 * mpmath.pi * solid.volume)) ** (mpmath.mpf(1) / 3)


@pytest.mark.parametrize("n_atoms,volume,c_ph", [
    (6e23, 1e-5, 1e110),      # c_ph^3 overflows; nu_m is 2.4e119
    (1e300, 1e-5, 3500.0),    # the quotient overflows; nu_m is 3.4e105
    (1.7e308, 3500.0, 5e-324),  # 3 N0 overflows and c_ph^3 is 0: nan
])
def test_debye_scale_where_its_cube_leaves_the_doubles(si, n_atoms, volume,
                                                        c_ph):
    solid = make_solid(77.0, n_atoms=n_atoms, volume=volume, c_ph=c_ph)
    want = _nu_m_mp(solid)
    assert abs(debye_frequency(solid) - want) <= 4e-16 * want
    theta = debye_temperature(solid, si)
    assert abs(theta - want * si.h / si.k) <= 1e-15 * want * si.h / si.k


def test_debye_scale_past_the_doubles_names_its_inputs(si):
    solid = make_solid(77.0, n_atoms=1e300, volume=1e-300, c_ph=1e300)
    where = ("at n_atoms=1e+300, volume=1e-300, temperature=77, c_ph=1e+300 "
             "exceeds the largest double")
    for call in (lambda: debye_frequency(solid),
                 lambda: debye_temperature(solid, si),
                 lambda: specific_heat(solid, si, DebyeModel.GENERAL),
                 lambda: energy_fluctuation(solid, si)):
        with pytest.raises(OverflowError) as exc:
            call()
        assert str(exc.value) == f"debye frequency {where}"


def test_specific_heat_where_3_n0_overflows(si):
    # 3 N0 overflows, N0 k does not; at a subnormal T the value is 0.0
    # (it read nan), at T = 77 it is 3 N0 k times the ratio at 6e23 atoms
    huge = make_solid(5e-324, n_atoms=1.7e308)
    assert specific_heat(huge, si, DebyeModel.CONVENTIONAL) == 0.0
    for temperature in (77.0, 1e4):
        solid = make_solid(temperature, n_atoms=1.7e308, volume=1.7e308 / 6e18)
        ref = make_solid(temperature, n_atoms=6e23, volume=6e23 / 6e18)
        for model in DebyeModel:
            got = specific_heat(solid, si, model)
            want = specific_heat(ref, si, model) * (1.7e308 / 6e23)
            assert got == pytest.approx(want, rel=1e-14)


def test_specific_heat_where_its_ratio_underflows(si):
    # x_m = 1e110 > 2e108: 4 D(x_m) - 3 x_m/(e^{x_m} - 1) is 0 in doubles,
    # while 3 N0 k times it, 12 pi^4 N0 k/(5 x_m^3), is not (it read 0.0)
    solid = make_solid(1e-5, n_atoms=1.7e308, volume=1e-100)
    x_m = debye_temperature(solid, si) / solid.temperature
    assert x_m > 2e108
    with mpmath.workdps(30):
        want = (12 * mpmath.pi ** 4 / 5 * mpmath.mpf(solid.n_atoms) * si.k
                / mpmath.mpf(x_m) ** 3)
    got = specific_heat(solid, si, DebyeModel.CONVENTIONAL)
    assert abs(got - want) <= 1e-13 * want


def test_energy_fluctuation_at_the_ends_of_the_doubles(si):
    # 2/(3 N0) overflows at N0 = 5e-324 (relative read inf) and underflows
    # at 1.7e308 (relative read 0.0); T^2 overflows at T = 1e160
    for n_atoms in (5e-324, 1.7e308):
        relative = energy_fluctuation(make_solid(77.0, n_atoms=n_atoms), si)[1]
        with mpmath.workdps(30):
            want = mpmath.sqrt(mpmath.mpf(2) / (3 * mpmath.mpf(n_atoms)))
        assert abs(relative - want) <= 4e-16 * want
    solid = make_solid(1e160, n_atoms=1.0)
    eps_sq = energy_fluctuation(solid, si)[0]
    cv = specific_heat(solid, si, DebyeModel.CONVENTIONAL)
    assert eps_sq == pytest.approx(si.k * 1e160 * cv * 1e160, rel=1e-15)
    with pytest.raises(OverflowError, match="^energy variance at n_atoms=6.022e"):
        energy_fluctuation(make_solid(1e300), si)


@pytest.mark.parametrize("q_factor,c_ph,temperature", [
    (1e100, 3500.0, 300.0),    # Q^4 overflows; h_-1 underflows to 0.0
    (1e77, 3500.0, 300.0),     # 4 Q^4 overflows; h_-1 is 1.2e-306
    (1.2e77, 3500.0, 300.0),   # Q^4 overflows; h_-1 is 6.0e-307
    (1e-90, 3500.0, 300.0),    # Q^4 underflows; h_-1 is 1.2e358: refused
    (2e6, 1e110, 1e100),       # c_ph^3 overflows; a_ph is 1.2e216
    (2e6, 3500.0, 1e-305),     # 4 pi^3 k T underflows; a_ph is 1.5e304
])
def test_flicker_floor_at_the_ends_of_the_doubles(si, q_factor, c_ph,
                                                  temperature):
    spec = ResonatorSpec(q_factor=q_factor, carrier=5e6, active_volume=1e-6,
                         temperature=temperature, c_ph=c_ph)
    with mpmath.workdps(30):
        a_ph = (9 * mpmath.mpf(si.h) * mpmath.mpf(c_ph) ** 3
                / (4 * mpmath.pi ** 3 * mpmath.mpf(si.k) * temperature))
        h_m1 = a_ph / (4 * mpmath.mpf(q_factor) ** 4 * 1e-6)
    if h_m1 > 1.7976931348623157e308:
        with pytest.raises(OverflowError, match="^" + re.escape(
                f"h_-1 at q_factor={q_factor:g}, carrier=5e+06, "
                f"active_volume=1e-06, temperature={temperature:g}, "
                f"c_ph={c_ph:g} exceeds the largest double")):
            flicker_floor(spec, si)
        return
    result = flicker_floor(spec, si)
    for got, want in zip(result, (a_ph, h_m1)):
        assert abs(got - want) <= 1e-12 * want + 2.0 ** -1074
