"""Rate formulas: frozen oracle values, scalings, and invariances."""

import math

import numpy as np
import pytest

from conftest import random_rotations
from cslsurf.csl import (
    CslParams,
    angular_dephasing_coefficient,
    com_heating_rate,
    dephasing_matrix,
    dephasing_prefactor,
    rate_report,
    rotational_heating_rate,
    superposition_dephasing_rate,
    total_heating_rate,
)
from cslsurf.errors import ConfigError, DegenerateDimension, SingularInertia, ValidityWarning
from cslsurf.geometry import (
    Box,
    ConeCappedCylinder,
    Cylinder,
    GappedCylinder,
    Sphere,
    mass_properties,
    quadrature,
)
from cslsurf.tensors import rotational_surface_tensor, surface_tensor

PARAMS = CslParams()

# frozen from a standalone evaluation of 2 pi lam sig^2 rho^2 / m_N^2 with
# lam = 1e-16, sig = 1e-7, rho = 2000, m_N = 1.66053906660e-27
PREFACTOR_RHO2000 = 9.114685011669181e+30
# frozen: prefactor * (4 pi / 3) * (1e-6)^2 for the R = 1 um sphere
LAMBDA_XX_SPHERE_1UM = 3.81795032965932e+19
# frozen: 1.5 * hbar^2 * lam * m_N / (m_N^2 sig^2)
TOTAL_HEATING_ONE_NUCLEON = 1.0046030288415153e-43


class TestParams:
    def test_defaults(self):
        assert PARAMS.collapse_rate == 1e-16
        assert PARAMS.localization_length == 1e-7

    def test_positivity(self):
        with pytest.raises(DegenerateDimension):
            CslParams(collapse_rate=0.0)
        with pytest.raises(DegenerateDimension):
            CslParams(localization_length=-1e-7)


class TestPrefactorAndMatrix:
    def test_prefactor_against_independent_arithmetic(self):
        rho = 2000.0
        by_hand = (2.0 * math.pi * 1e-16 * (1e-7) ** 2 * rho**2
                   / (1.66053906660e-27) ** 2)
        got = dephasing_prefactor(rho, PARAMS)
        assert got == pytest.approx(by_hand, rel=1e-14)
        assert got == pytest.approx(PREFACTOR_RHO2000, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, math.nan])
    def test_prefactor_rejects_bad_density(self, rho):
        with pytest.raises(DegenerateDimension):
            dephasing_prefactor(rho, PARAMS)

    def test_zero_tensor_gives_zero_matrix(self):
        dm = dephasing_matrix(np.zeros((3, 3)), 1000.0, PARAMS)
        assert np.array_equal(dm.matrix, np.zeros((3, 3)))

    def test_sphere_value_frozen(self):
        s = surface_tensor(quadrature(Sphere(1e-6), resolution=16))
        dm = dephasing_matrix(s, 2000.0, PARAMS)
        assert dm.matrix[0, 0] == pytest.approx(LAMBDA_XX_SPHERE_1UM, rel=1e-12)

    def test_cylinder_longitudinal_independent_of_length(self):
        rho = 1500.0
        values = []
        for L in (2e-6, 1e-5, 5e-5):
            s = surface_tensor(quadrature(Cylinder(1e-6, L, axis="x"), resolution=16))
            values.append(dephasing_matrix(s, rho, PARAMS).matrix[0, 0])
        spread = (max(values) - min(values)) / values[0]
        assert spread < 5e-3
        assert spread < 1e-12


class TestSuperpositionRate:
    def setup_method(self):
        s = surface_tensor(quadrature(Sphere(1e-6), resolution=16))
        self.dm = dephasing_matrix(s, 2000.0, PARAMS)

    def test_zero_delta(self):
        assert superposition_dephasing_rate(self.dm, np.zeros(3)) == 0.0

    def test_quadratic_scaling_exact(self):
        d = np.array([1e-9, 2e-9, -1e-9])
        r1 = superposition_dephasing_rate(self.dm, d)
        r2 = superposition_dephasing_rate(self.dm, 2.0 * d)
        assert r2 == pytest.approx(4.0 * r1, rel=1e-15)

    def test_nonnegative(self, rng):
        for _ in range(20):
            d = rng.normal(scale=1e-9, size=3)
            assert superposition_dephasing_rate(self.dm, d) >= 0.0

    def test_warns_beyond_validity(self):
        sigma = PARAMS.localization_length
        with pytest.warns(ValidityWarning):
            superposition_dephasing_rate(self.dm, np.array([0.4 * sigma, 0, 0]))

    def test_silent_inside_validity(self, recwarn):
        sigma = PARAMS.localization_length
        superposition_dephasing_rate(self.dm, np.array([0.2 * sigma, 0, 0]))
        assert not [w for w in recwarn.list if issubclass(w.category, ValidityWarning)]


class TestAngularCoefficient:
    def test_sphere_zero(self):
        assert angular_dephasing_coefficient(0.0, 1000.0, PARAMS) == 0.0

    def test_rod_value(self):
        R, L, rho = 0.05e-6, 2e-6, 1200.0
        spec = Cylinder(R, L, axis="x")
        p = quadrature(spec, resolution=32)
        strength = float(np.array([0.0, 0.0, 1.0]) @ rotational_surface_tensor(
            p, mass_properties(spec, rho).centroid) @ np.array([0.0, 0.0, 1.0]))
        coeff = angular_dephasing_coefficient(strength, rho, PARAMS)
        expected = dephasing_prefactor(rho, PARAMS) * math.pi * R * L**3 / 12.0
        assert coeff == pytest.approx(expected, rel=0.02, abs=0)

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            angular_dephasing_coefficient(-1.0, 1000.0, PARAMS)


class TestHeating:
    def test_two_algebraic_forms_agree(self):
        rho = 1850.0
        mp = mass_properties(Sphere(2e-6), rho)
        a = com_heating_rate(mp.area, mp.mass, rho, PARAMS)
        lam, sig = PARAMS.collapse_rate, PARAMS.localization_length
        b = (PARAMS.hbar**2 * 2 * math.pi * lam * sig**2 * rho
             / PARAMS.nucleon_mass**2 * mp.area / mp.volume)
        assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_size_scaling_inverse(self):
        rho = 1000.0
        rates = []
        for R in (1e-6, 2e-6):
            mp = mass_properties(Sphere(R), rho)
            rates.append(com_heating_rate(mp.area, mp.mass, rho, PARAMS))
        assert rates[1] == pytest.approx(0.5 * rates[0], rel=1e-12, abs=0)

    def test_total_heating_frozen_and_linear(self):
        gamma = total_heating_rate(PARAMS.nucleon_mass, PARAMS)
        assert gamma == pytest.approx(TOTAL_HEATING_ONE_NUCLEON, rel=1e-12, abs=0)
        assert total_heating_rate(2.0, PARAMS) == pytest.approx(
            2.0 * total_heating_rate(1.0, PARAMS), rel=1e-15, abs=0
        )

    def test_sphere_ratio_exact(self):
        rho = 2329.0  # silicon-ish; value is irrelevant, it cancels
        for R in (1e-6, 5e-6, 1e-4):
            mp = mass_properties(Sphere(R), rho)
            ratio = (com_heating_rate(mp.area, mp.mass, rho, PARAMS)
                     / total_heating_rate(mp.mass, PARAMS))
            expected = 3.0 * (PARAMS.localization_length / R) ** 4
            assert ratio == pytest.approx(expected, rel=1e-12, abs=0)

    def test_rotational_sphere_zero(self):
        rho = 1000.0
        spec = Sphere(1e-6)
        mp = mass_properties(spec, rho)
        s_rot = rotational_surface_tensor(quadrature(spec, resolution=16), mp.centroid)
        gamma = rotational_heating_rate(s_rot, mp.inertia, rho, PARAMS)
        assert abs(gamma) < 1e-20 * total_heating_rate(mp.mass, PARAMS)

    def test_rotational_rod_composition(self):
        # compose the two closed forms independently: per perpendicular axis
        # hbar^2 c (pi R L^3 / 12) / (M L^2 / 12), twice
        R, L, rho = 0.05e-6, 2e-6, 1400.0
        spec = Cylinder(R, L, axis="x")
        mp = mass_properties(spec, rho)
        s_rot = rotational_surface_tensor(quadrature(spec, resolution=32), mp.centroid)
        got = rotational_heating_rate(s_rot, mp.inertia, rho, PARAMS)
        c = dephasing_prefactor(rho, PARAMS)
        expected = 2.0 * PARAMS.hbar**2 * c * (math.pi * R * L**3 / 12.0) / (mp.mass * L**2 / 12.0)
        assert got == pytest.approx(expected, rel=0.01, abs=0)

    def test_rotational_scaling_one_over_alpha(self):
        # r -> alpha r at fixed density: S_rot ~ alpha^4, I ~ alpha^5
        rho = 1000.0
        rates = []
        for alpha in (1.0, 2.0):
            spec = ConeCappedCylinder(0.4e-6 * alpha, 1.2e-6 * alpha,
                                      math.radians(60), axis="x")
            mp = mass_properties(spec, rho)
            s_rot = rotational_surface_tensor(quadrature(spec, resolution=24), mp.centroid)
            rates.append(rotational_heating_rate(s_rot, mp.inertia, rho, PARAMS))
        assert rates[1] == pytest.approx(rates[0] / 2.0, rel=1e-10, abs=0)

    def test_singular_inertia_rejected(self):
        with pytest.raises(SingularInertia):
            rotational_heating_rate(np.eye(3), np.diag([1.0, 1.0, 0.0]), 1000.0, PARAMS)


class TestReportAndInvariance:
    def test_rates_invariant_under_rotation(self):
        rho = 1300.0
        spec = Box((1e-6, 2e-6, 3e-6))
        p = quadrature(spec, resolution=12)
        mp = mass_properties(spec, rho)
        base = rate_report(surface_tensor(p), rotational_surface_tensor(p, mp.centroid),
                           mp, rho, PARAMS)
        for R in random_rotations(4, seed=11):
            q = p.rotated(R)
            mi = type(mp)(volume=mp.volume, area=mp.area, mass=mp.mass,
                          centroid=R @ mp.centroid, inertia=R @ mp.inertia @ R.T)
            rep = rate_report(surface_tensor(q),
                              rotational_surface_tensor(q, mi.centroid), mi, rho, PARAMS)
            assert rep.com_heating == pytest.approx(base.com_heating, rel=1e-10, abs=0)
            assert rep.rotational_heating == pytest.approx(base.rotational_heating, rel=1e-10, abs=0)
            assert np.allclose(np.sort(rep.angular_coefficients),
                               np.sort(base.angular_coefficients), rtol=1e-10)

    @pytest.mark.parametrize("spec", [
        Sphere(1e-6),
        Cylinder(0.5e-6, 2e-6),
        Box((0.4e-6, 0.8e-6, 1.6e-6)),
        GappedCylinder(0.5e-6, 4e-6, 2, 0.4e-6),
    ])
    def test_com_below_total_for_bulky_bodies(self, spec):
        # every dimension of these is >= 2 sigma = 2e-7
        rho = 1000.0
        mp = mass_properties(spec, rho)
        assert (com_heating_rate(mp.area, mp.mass, rho, PARAMS)
                <= total_heating_rate(mp.mass, PARAMS))

    def test_report_conventions_differ_when_inertia_does(self):
        # for a rod the second-moment bookkeeping pairs the transverse
        # rotational strength with the small transverse second moment
        # M R^2/4 instead of the perpendicular inertia M (3R^2 + L^2)/12,
        # blowing the rate up by exactly (3R^2 + L^2) / (3R^2)
        rho = 1100.0
        R, L = 0.05e-6, 2e-6
        spec = Cylinder(R, L, axis="x")
        p = quadrature(spec, resolution=24)
        mp = mass_properties(spec, rho)
        s, s_rot = surface_tensor(p), rotational_surface_tensor(p, mp.centroid)
        std = rate_report(s, s_rot, mp, rho, PARAMS, inertia_convention="standard")
        alt = rate_report(s, s_rot, mp, rho, PARAMS, inertia_convention="second_moment")
        expected_blowup = (3 * R**2 + L**2) / (3 * R**2)
        assert (alt.rotational_heating / std.rotational_heating
                == pytest.approx(expected_blowup, rel=1e-9))
        with pytest.raises(ValueError):
            rate_report(s, s_rot, mp, rho, PARAMS, inertia_convention="bogus")


@pytest.mark.parametrize("name", ["collapse_rate", "localization_length", "nucleon_mass", "hbar"])
def test_params_reject_an_infinite_field(name):
    # an infinite collapse rate used to pass and end rate_report in a LinAlgError
    with pytest.raises(DegenerateDimension, match="finite"):
        CslParams(**{name: math.inf})


@pytest.mark.parametrize("rho", [1e300, 1e150])
def test_prefactor_rejects_a_density_that_overflows(rho):
    # 1e300**2 used to raise a bare OverflowError; at 1e150 the square is
    # finite but c is not
    with pytest.raises(DegenerateDimension):
        dephasing_prefactor(rho, PARAMS)


@pytest.mark.parametrize("strength", [-1.0, math.nan, math.inf])
def test_angular_coefficient_rejects_unusable_strength_typed(strength):
    with pytest.raises(DegenerateDimension):
        angular_dephasing_coefficient(strength, 1000.0, PARAMS)


def test_unknown_inertia_convention_is_a_config_error():
    spec = Sphere(1e-6)
    p = quadrature(spec, resolution=8)
    mp = mass_properties(spec, 1000.0)
    s, s_rot = surface_tensor(p), rotational_surface_tensor(p, mp.centroid)
    with pytest.raises(ConfigError):
        rate_report(s, s_rot, mp, 1000.0, PARAMS, inertia_convention="bogus")
