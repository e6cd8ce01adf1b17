"""Unusable inputs at the public entry points raise a typed error.

A number given as a string or a bool, a point array whose last axis is not
3, and a non-finite area or tensor used to be accepted and then end in a
bare TypeError, UFuncTypeError or LinAlgError, or in a wrong number.
"""

import math

import numpy as np
import pytest

import cslsurf
from cslsurf.errors import DegenerateDimension

SIGMA = 1e-7
RHO = 1000.0
PARAMS = cslsurf.CslParams()
SPHERE = cslsurf.Sphere(3 * SIGMA)
S = (4 * math.pi / 3) * (3 * SIGMA) ** 2 * np.eye(3)
POINTS = np.zeros((2, 3))

# each entry point with one numeric argument replaced by ``v``
NUMERIC = {
    "CslParams-collapse_rate": lambda v: cslsurf.CslParams(collapse_rate=v),
    "CslParams-localization_length": lambda v: cslsurf.CslParams(localization_length=v),
    "Sphere-radius": lambda v: cslsurf.Sphere(v),
    "Cone-apex_angle": lambda v: cslsurf.ConeCappedCylinder(SIGMA, 2 * SIGMA, v),
    "Gapped-gap_width": lambda v: cslsurf.GappedCylinder(SIGMA, 10 * SIGMA, 1, v),
    "mass_properties-density": lambda v: cslsurf.mass_properties(SPHERE, v),
    "raster-density": lambda v: cslsurf.rasterize_smoothed_density(SPHERE, v, SIGMA),
    "raster-sigma": lambda v: cslsurf.rasterize_smoothed_density(SPHERE, RHO, v),
    "raster-padding": lambda v: cslsurf.rasterize_smoothed_density(SPHERE, RHO, SIGMA,
                                                                   padding=v),
    "smoothed_density-density": lambda v: cslsurf.smoothed_density(SPHERE, v, SIGMA, POINTS),
    "smoothed_density-sigma": lambda v: cslsurf.smoothed_density(SPHERE, RHO, v, POINTS),
    "surface_formula-density": lambda v: cslsurf.surface_formula_outer_integral(S, v, SIGMA),
    "surface_formula-sigma": lambda v: cslsurf.surface_formula_outer_integral(S, RHO, v),
    "edge_layer_factor-sigma": lambda v: cslsurf.edge_layer_factor(cslsurf.EdgeProfile.step(), v),
    "kspace-density": lambda v: cslsurf.kspace_outer_integral(SPHERE, v, SIGMA),
    "kspace-sigma": lambda v: cslsurf.kspace_outer_integral(SPHERE, RHO, v),
    "prefactor-density": lambda v: cslsurf.dephasing_prefactor(v, PARAMS),
    "com_heating-area": lambda v: cslsurf.com_heating_rate(v, 1e-15, RHO, PARAMS),
    "total_heating-mass": lambda v: cslsurf.total_heating_rate(v, PARAMS),
}


@pytest.mark.parametrize("value", ["1000", True], ids=["str", "bool"])
@pytest.mark.parametrize("entry", NUMERIC.values(), ids=NUMERIC.keys())
def test_number_given_as_str_or_bool_is_degenerate(entry, value):
    # CslParams(localization_length=True) gave sigma = 1 m and a prefactor
    # of 9.1e44; kspace_outer_integral(spec, "1000", sigma) returned a tensor
    with pytest.raises(DegenerateDimension, match="must be a real number"):
        entry(value)


def test_float32_density_gives_a_float64_mass():
    rho = np.float32(1000.3)
    mass = cslsurf.mass_properties(SPHERE, rho).mass
    assert mass == cslsurf.mass_properties(SPHERE, float(rho)).mass
    assert np.asarray(mass).dtype == np.float64


def _mu(spec, points):
    return cslsurf.form_factor(spec)(points)


def _smoothed(spec, points):
    return cslsurf.smoothed_density(spec, RHO, SIGMA, points)


POINT_FUNCTIONS = {
    "contains": cslsurf.contains,
    "signed_distance": cslsurf.signed_distance,
    "smoothed_density": _smoothed,
    "form_factor": _mu,
}


@pytest.mark.parametrize("fn", POINT_FUNCTIONS.values(), ids=POINT_FUNCTIONS.keys())
def test_stacked_points_match_the_rows(fn):
    # contains and signed_distance used to return the (5, 2) transpose
    spec = cslsurf.Cylinder(3 * SIGMA, 8 * SIGMA, axis=(1.0, 2.0, 3.0))
    scale = 1.0 / SIGMA if fn is _mu else 4 * SIGMA
    stack = np.random.default_rng(3).uniform(-scale, scale, size=(2, 5, 3))
    got = fn(spec, stack)
    assert got.shape == (2, 5)
    assert np.array_equal(got, np.stack([fn(spec, row) for row in stack]))
    assert fn(spec, stack[0, 0]).shape == (1,)


@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (2,), (), (2, 5, 1)])
@pytest.mark.parametrize("fn", POINT_FUNCTIONS.values(), ids=POINT_FUNCTIONS.keys())
def test_points_whose_last_axis_is_not_3_are_degenerate(fn, shape):
    # (n, 2) points raised a bare TypeError or IndexError, and a form
    # factor silently returned four values for (4, 2) wavevectors
    with pytest.raises(DegenerateDimension, match=r"shape \(\.\.\., 3\)"):
        fn(SPHERE, np.zeros(shape))


NAN_TENSOR = np.full((3, 3), math.nan)
INERTIA = 1e-25 * np.eye(3)

NON_FINITE = {
    "com_heating-negative-area": lambda: cslsurf.com_heating_rate(-1.0, 1e-15, RHO, PARAMS),
    "com_heating-nan-area": lambda: cslsurf.com_heating_rate(math.nan, 1e-15, RHO, PARAMS),
    "rotational_heating-nan-tensor": lambda: cslsurf.rotational_heating_rate(
        NAN_TENSOR, INERTIA, RHO, PARAMS),
    "rotational_heating-nan-inertia": lambda: cslsurf.rotational_heating_rate(
        S, NAN_TENSOR, RHO, PARAMS),
    "rotational_heating-inf-inertia": lambda: cslsurf.rotational_heating_rate(
        S, np.where(np.eye(3) > 0, math.inf, 0.0), RHO, PARAMS),
    "clamp_psd": lambda: cslsurf.clamp_psd(NAN_TENSOR),
    "is_psd": lambda: cslsurf.is_psd(NAN_TENSOR),
    "principal_axes": lambda: cslsurf.principal_axes(NAN_TENSOR),
    "dephasing_matrix": lambda: cslsurf.dephasing_matrix(NAN_TENSOR, RHO, PARAMS),
}


@pytest.mark.parametrize("entry", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_or_negative_rate_input_is_degenerate(entry):
    # a negative area gave a negative heating power and a NaN one NaN; a
    # NaN tensor or inertia gave NaN or a bare LinAlgError
    with pytest.raises(DegenerateDimension):
        entry()
