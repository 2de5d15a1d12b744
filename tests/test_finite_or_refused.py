"""Finite values or typed refusals over the whole double range.

Every float-taking export of radiation, phonon and thermo, and
modular.partition_generating, given floats drawn from all doubles
(subnormals, +-0, inf and nan included), returns finite floats or raises
DomainError, ConvergenceError or an OverflowError with a message of its own:
never Python's errno tuple, a bare ZeroDivisionError, ValueError or
TypeError, and never an inf or a nan.
"""

import inspect
import math
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergas import phonon, radiation, thermo
from eulergas.errors import ConvergenceError, DomainError, finite
from eulergas.modular import partition_generating

_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-323,
            1e-310, sys.float_info.min, 1e-300, 1e-100, 1.0, -1.0, 1e100,
            1e300, sys.float_info.max)
# mostly positive doubles, so that most calls get past the spec checks
FLOATS = st.one_of(st.sampled_from(_SPECIAL),
                   st.floats(min_value=5e-324, max_value=sys.float_info.max),
                   st.floats())
SI = radiation.PhysicalConstants.si()


def _constants(h, k, c):
    """SI where h is None, as an argument named h is in half the examples."""
    return SI if h is None else radiation.PhysicalConstants(h, k, c)


def _cavity(volume, temperature):
    return radiation.CavitySpec(volume=volume, temperature=temperature)


def _solid(n_atoms, volume, temperature, c_ph):
    return phonon.SolidSpec(n_atoms=n_atoms, volume=volume,
                            temperature=temperature, c_ph=c_ph)


def _resonator(q, volume, temperature, c_ph):
    return phonon.ResonatorSpec(q_factor=q, carrier=5e6, active_volume=volume,
                                temperature=temperature, c_ph=c_ph)


def _per_model(name, enum, call):
    """One case per member of enum: call(member, *floats)."""
    return {f"{name}-{m.value}": partial(call, m) for m in enum}


# name: function of the drawn floats (h, k, c come last where used)
CASES = {
    "PhysicalConstants": lambda h0, k, c: radiation.PhysicalConstants(h0, k, c),
    "CavitySpec": _cavity,
    "mode_x": lambda nu, t, h, k, c: radiation.mode_x(nu, t, _constants(h, k, c)),
    "stefan_boltzmann": lambda h, k, c: radiation.stefan_boltzmann(
        _constants(h, k, c)),
    **_per_model("photon_density", radiation.PhotonModel, lambda m, v, t, h, k, c:
                 radiation.photon_density(_cavity(v, t), _constants(h, k, c), m)),
    **_per_model("emissivity", radiation.EmissivityModel, lambda m, nu, v, t, h, k, c:
                 radiation.emissivity(nu, _cavity(v, t), _constants(h, k, c), m)),
    **_per_model("einstein_AB", radiation.EinsteinModel, lambda m, nu, t, h, k, c:
                 radiation.einstein_AB(nu, _constants(h, k, c), t, m)),
    **_per_model("fluctuation_spectrum", radiation.NoiseModel, lambda m, nu, v, t, h, k, c:
                 radiation.fluctuation_spectrum(nu, _cavity(v, t),
                                                _constants(h, k, c), m)),
    "SolidSpec": _solid,
    "SolidSpec-velocities": lambda n, v, t, ct, cl: phonon.SolidSpec(
        n_atoms=n, volume=v, temperature=t, c_transverse=ct, c_longitudinal=cl),
    "ResonatorSpec": phonon.ResonatorSpec,
    "debye_velocity": phonon.debye_velocity,
    "debye_frequency": lambda n, v, t, c_ph: phonon.debye_frequency(
        _solid(n, v, t, c_ph)),
    "debye_temperature": lambda n, v, t, c_ph, h, k, c: phonon.debye_temperature(
        _solid(n, v, t, c_ph), _constants(h, k, c)),
    "debye_function": phonon.debye_function,
    **_per_model("specific_heat", phonon.DebyeModel, lambda m, n, v, t, c_ph, h, k, c:
                 phonon.specific_heat(_solid(n, v, t, c_ph), _constants(h, k, c), m)),
    "energy_fluctuation": lambda n, v, t, c_ph, h, k, c: phonon.energy_fluctuation(
        _solid(n, v, t, c_ph), _constants(h, k, c)),
    "flicker_floor": lambda q, v, t, c_ph, h, k, c: phonon.flicker_floor(
        _resonator(q, v, t, c_ph), _constants(h, k, c)),
    **{name: getattr(thermo, name) for name in (
        "thermo_per_mode", "free_energy", "free_energy_lowfreq", "occupation",
        "occupation_lowfreq", "internal_energy", "internal_energy_lowfreq",
        "entropy", "entropy_lowfreq", "per_mode_energy_fluctuation",
        "riemann_zeta")},
    **_per_model("planck_factor", thermo.PlanckVariant, lambda m, x: thermo.planck_factor(x, m)),
    **_per_model("mellin_check", thermo.MellinKind, lambda m, s: thermo.mellin_check(s, m)),
    "eta": lambda re, im: thermo.eta(complex(re, im)),
    **_per_model("eta_transform", thermo.EtaTransform, lambda m, re, im:
                 thermo.eta_transform(complex(re, im), m)),
    "eisenstein_g2": lambda re, im: thermo.eisenstein_g2(complex(re, im)),
    "partition_generating": partition_generating,
    "partition_generating-complex": lambda re, im: partition_generating(
        complex(re, im)),
}


def _floats_in(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [v for item in value for v in _floats_in(item)]
    return [value] if isinstance(value, float) else []


def _check(name, call, args):
    try:
        value = call(*args)
    except (DomainError, ConvergenceError):
        return
    except OverflowError as exc:
        # a message of its own, naming the inputs: not ('errno', 'text')
        assert len(exc.args) == 1 and isinstance(exc.args[0], str), (name, exc.args)
        assert "overflow" in str(exc) or "exceeds" in str(exc), (name, str(exc))
        return
    assert all(math.isfinite(v) for v in _floats_in(value)), (name, value)


_PARAMETERS = {name: tuple(inspect.signature(call).parameters)
               for name, call in CASES.items()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(floats=st.lists(FLOATS, min_size=7, max_size=7), si=st.booleans())
def test_finite_or_typed_refusal(floats, si):
    # each case reads the floats it needs, in order; an argument named h is
    # None, so that the case takes the SI constants, in half the examples
    for name, call in CASES.items():
        args = [None if si and arg == "h" else x
                for arg, x in zip(_PARAMETERS[name], floats)]
        _check(name, call, args)


class _Unformattable(float):
    def __format__(self, spec):
        raise AssertionError("the message was formatted")


def test_finite_takes_the_first_finite_order():
    def boom(exc):
        def order():
            raise exc
        return order
    inputs = {"x": _Unformattable(2.0)}  # formatted only on a refusal
    assert finite("q", inputs, lambda: 1.5, boom(AssertionError)) == 1.5
    assert finite("q", inputs, boom(OverflowError(34, "x")),
                  boom(ZeroDivisionError), lambda: math.inf,
                  lambda: math.nan, lambda: -2.5) == -2.5
    # a 0 is taken from the last order only: an earlier one may underflow
    assert finite("q", inputs, lambda: 0.0, lambda: 3e-320) == 3e-320
    assert finite("q", inputs, boom(OverflowError), lambda: 0.0) == 0.0
    assert finite("q", inputs, lambda: 0.0) == 0.0
    with pytest.raises(ValueError):  # anything else is not passed over
        finite("q", inputs, boom(ValueError))


def test_finite_refuses_naming_the_inputs():
    with pytest.raises(OverflowError) as exc:
        finite("u", {"nu": 1e150, "T": 300.0, "V": 1.0}, lambda: 0.0,
               lambda: math.inf, lambda: 1e300 * 1e300 - 1e300 * 1e300)
    assert exc.value.args == (
        "u at nu=1e+150, T=300, V=1 exceeds the largest double",)
