"""Unusable inputs at the public entry points raise a typed error.

A number given as a string or a bool, a point array whose last axis is not
3, a non-finite area or tensor, and an array argument that is ragged,
made of strings or complex numbers, or of the wrong shape used to be
accepted and then end in a bare TypeError, ValueError, IndexError or
LinAlgError, or in a wrong number or a result of the wrong shape.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cslsurf
from cslsurf.errors import ConfigError, DegenerateDimension, ParseError, ResolutionOverflow

SIGMA = 1e-7
RHO = 1000.0
PARAMS = cslsurf.CslParams()
SPHERE = cslsurf.Sphere(3 * SIGMA)
S = (4 * math.pi / 3) * (3 * SIGMA) ** 2 * np.eye(3)
POINTS = np.zeros((2, 3))

DD = DegenerateDimension
# each entry point with one numeric argument replaced by ``v``: the call, a
# valid value (an int where the argument must be an integer) and the error
# that an unusable value raises
NUMERIC = {
    "CslParams-collapse_rate": (lambda v: cslsurf.CslParams(collapse_rate=v), 1e-16, DD),
    "CslParams-localization_length": (lambda v: cslsurf.CslParams(localization_length=v),
                                      SIGMA, DD),
    "Sphere-radius": (lambda v: cslsurf.Sphere(v), SIGMA, DD),
    "Cone-apex_angle": (lambda v: cslsurf.ConeCappedCylinder(SIGMA, 2 * SIGMA, v), 1.0, DD),
    "Gapped-gap_count": (lambda v: cslsurf.GappedCylinder(SIGMA, 10 * SIGMA, v, SIGMA), 1, DD),
    "Gapped-gap_width": (lambda v: cslsurf.GappedCylinder(SIGMA, 10 * SIGMA, 1, v), SIGMA, DD),
    "mass_properties-density": (lambda v: cslsurf.mass_properties(SPHERE, v), RHO, DD),
    "raster-density": (lambda v: cslsurf.rasterize_smoothed_density(SPHERE, v, SIGMA), RHO, DD),
    "raster-sigma": (lambda v: cslsurf.rasterize_smoothed_density(SPHERE, RHO, v), SIGMA, DD),
    "raster-padding": (lambda v: cslsurf.rasterize_smoothed_density(SPHERE, RHO, SIGMA,
                                                                    padding=v), 6 * SIGMA, DD),
    "raster-max_voxels": (lambda v: cslsurf.rasterize_smoothed_density(SPHERE, RHO, SIGMA,
                                                                       max_voxels=v),
                          2**18, ConfigError),
    "smoothed_density-density": (lambda v: cslsurf.smoothed_density(SPHERE, v, SIGMA, POINTS),
                                 RHO, DD),
    "smoothed_density-sigma": (lambda v: cslsurf.smoothed_density(SPHERE, RHO, v, POINTS),
                               SIGMA, DD),
    "surface_formula-density": (lambda v: cslsurf.surface_formula_outer_integral(S, v, SIGMA),
                                RHO, DD),
    "surface_formula-sigma": (lambda v: cslsurf.surface_formula_outer_integral(S, RHO, v),
                              SIGMA, DD),
    "edge_layer_factor-sigma": (lambda v: cslsurf.edge_layer_factor(cslsurf.EdgeProfile.step(),
                                                                    v), SIGMA, DD),
    "kspace-density": (lambda v: cslsurf.kspace_outer_integral(SPHERE, v, SIGMA), RHO, DD),
    "kspace-sigma": (lambda v: cslsurf.kspace_outer_integral(SPHERE, RHO, v), SIGMA, DD),
    "prefactor-density": (lambda v: cslsurf.dephasing_prefactor(v, PARAMS), RHO, DD),
    "com_heating-area": (lambda v: cslsurf.com_heating_rate(v, 1e-15, RHO, PARAMS), 1e-12, DD),
    "total_heating-mass": (lambda v: cslsurf.total_heating_rate(v, PARAMS), 1e-15, DD),
    "angular_coefficient-strength": (lambda v: cslsurf.angular_dephasing_coefficient(
        v, RHO, PARAMS), 1e-20, DD),
    "EdgeProfile-height": (lambda v: cslsurf.EdgeProfile(heights=(-SIGMA, v), values=(1, 0)),
                           SIGMA, DD),
    "EdgeProfile-value": (lambda v: cslsurf.EdgeProfile(heights=(-SIGMA, SIGMA), values=(v, 0)),
                          1.0, DD),
    "quadrature-resolution": (lambda v: cslsurf.quadrature(SPHERE, v), 4, ResolutionOverflow),
    "VoxelGrid-spacing": (lambda v: cslsurf.VoxelGrid(np.zeros(3), v, np.ones((2, 2, 2))),
                          SIGMA, DD),
    "VoxelGrid-margin": (lambda v: cslsurf.VoxelGrid(np.zeros(3), SIGMA, np.ones((2, 2, 2)), v),
                         0.0, DD),
    **{f"box_mesh-{side}": (lambda v, i=i: cslsurf.box_mesh(*(v if j == i else SIGMA
                                                              for j in range(3))), SIGMA, DD)
       for i, side in enumerate("abc")},
    "icosphere-radius": (lambda v: cslsurf.icosphere(v, 0), 1.0, DD),
    "icosphere-subdivisions": (lambda v: cslsurf.icosphere(1.0, v), 1, DD),
}
UNUSABLE = [math.nan, math.inf, -math.inf, 10**400, -(10**400), "1000", True]


@pytest.mark.parametrize("value", ["1000", True], ids=["str", "bool"])
@pytest.mark.parametrize("name", [name for name, (_, _, error) in NUMERIC.items() if error is DD])
def test_number_given_as_str_or_bool_is_degenerate(name, value):
    # CslParams(localization_length=True) gave sigma = 1 m and a prefactor
    # of 9.1e44; kspace_outer_integral(spec, "1000", sigma) returned a tensor
    call, valid, _ = NUMERIC[name]
    kind = "an integer" if isinstance(valid, int) else "a real number"
    with pytest.raises(DegenerateDimension, match=f"must be {kind}"):
        call(value)


@settings(max_examples=2 * len(NUMERIC), deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(NUMERIC)))
def test_every_number_passes_one_gate(name):
    # at 10**400 every entry raised a bare OverflowError; the generators took
    # NaN, inf and True, icosphere(1, 2.7) built 2 subdivisions and
    # box_mesh(-1, 1, 1) a reflected box; the voxel cap refused an integral float
    call, valid, error = NUMERIC[name]
    call(valid)
    for value in UNUSABLE + ([valid + 0.5] if isinstance(valid, int) else []):
        with pytest.raises(error):
            call(value)
    if isinstance(valid, int):
        call(float(valid))


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


def _bad(kind, good):
    """A value of ``kind`` in place of the valid array ``good``."""
    good = np.asarray(good)
    with_bool = good.astype(object)
    with_bool.flat[0] = True  # in a list, np.asarray reads it as the number 1
    return {"ragged": lambda: [good.tolist(), [0]],
            "str": lambda: good.astype(str),
            "complex": lambda: good.astype(complex),
            "shape": lambda: np.zeros(good.shape[:-1], good.dtype),
            "bool": lambda: with_bool.tolist()}[kind]()


PATCHES = cslsurf.quadrature(SPHERE, resolution=4)
MESH = cslsurf.box_mesh(SIGMA, SIGMA, SIGMA)
MASS = cslsurf.mass_properties(SPHERE, RHO)
Z = (0.0, 0.0, 1.0)

ALL, NO_SHAPE = "ragged str complex shape bool", "ragged str complex bool"
ORIGIN = (0.0, 0.0, 0.0)
# each array argument: the call with ``v`` in its place, a valid value, and
# the kinds of bad value that were not refused with a typed error before (the
# others are pinned by the point, VoxelGrid and mesh tests)
ARRAY = {
    "clamp_psd": (cslsurf.clamp_psd, S, ALL),
    "is_psd": (cslsurf.is_psd, S, ALL),
    "principal_axes": (cslsurf.principal_axes, S, ALL),
    "dephasing_matrix": (lambda v: cslsurf.dephasing_matrix(v, RHO, PARAMS), S, ALL),
    "DephasingMatrix": (lambda v: cslsurf.DephasingMatrix(v, PARAMS), S, ALL),
    "surface_formula": (lambda v: cslsurf.surface_formula_outer_integral(v, RHO, SIGMA), S, ALL),
    "rotational_heating-tensor": (
        lambda v: cslsurf.rotational_heating_rate(v, INERTIA, RHO, PARAMS), S, ALL),
    "rotational_heating-inertia": (
        lambda v: cslsurf.rotational_heating_rate(S, v, RHO, PARAMS), INERTIA, ALL),
    "rate_report-surface_tensor": (
        lambda v: cslsurf.rate_report(v, S, MASS, RHO, PARAMS), S, ALL),
    "rate_report-rotational_tensor": (
        lambda v: cslsurf.rate_report(S, v, MASS, RHO, PARAMS), S, ALL),
    "rotational_surface_tensor-origin": (
        lambda v: cslsurf.rotational_surface_tensor(PATCHES, v), ORIGIN, ALL),
    "axial_rotational_strength-origin": (
        lambda v: cslsurf.axial_rotational_strength(PATCHES, v, Z), ORIGIN, ALL),
    "axial_rotational_strength-axis": (
        lambda v: cslsurf.axial_rotational_strength(PATCHES, ORIGIN, v), Z, ALL),
    **{f"{name}-points": (lambda v, fn=fn: fn(SPHERE, v), POINTS, NO_SHAPE)
       for name, fn in POINT_FUNCTIONS.items()},
    "Sphere-center": (lambda v: cslsurf.Sphere(SIGMA, center=v), ORIGIN, NO_SHAPE),
    "Cylinder-axis": (lambda v: cslsurf.Cylinder(SIGMA, SIGMA, axis=v), Z, NO_SHAPE),
    "box_mesh-center": (lambda v: cslsurf.box_mesh(1.0, 1.0, 1.0, center=v), ORIGIN, ALL),
    "icosphere-center": (lambda v: cslsurf.icosphere(1.0, 0, center=v), ORIGIN, ALL),
    "VoxelGrid-values": (lambda v: cslsurf.VoxelGrid(ORIGIN, SIGMA, v), np.ones((2, 2, 2)),
                         "ragged"),
    "SurfacePatches-points": (
        lambda v: cslsurf.SurfacePatches(v, PATCHES.normals[:2], PATCHES.weights[:2]),
        PATCHES.points[:2], ALL),
    "SurfacePatches-normals": (
        lambda v: cslsurf.SurfacePatches(PATCHES.points[:2], v, PATCHES.weights[:2]),
        PATCHES.normals[:2], ALL),
    "SurfacePatches-weights": (
        lambda v: cslsurf.SurfacePatches(PATCHES.points[:2], PATCHES.normals[:2], v),
        PATCHES.weights[:2], ALL),
    "SurfacePatches.translated-offset": (PATCHES.translated, ORIGIN, ALL),
    "TriangleMesh.translated-offset": (MESH.translated, ORIGIN, ALL),
    "TriangleMesh-vertices": (lambda v: cslsurf.TriangleMesh(v, MESH.faces), MESH.vertices,
                              NO_SHAPE),
    "TriangleMesh-faces": (lambda v: cslsurf.TriangleMesh(MESH.vertices, v), MESH.faces,
                           NO_SHAPE),
    "superposition_dephasing_rate-delta": (
        lambda v: cslsurf.superposition_dephasing_rate(cslsurf.dephasing_matrix(S, RHO, PARAMS), v),
        (SIGMA, 0.0, 0.0), "bool"),
}


@pytest.mark.parametrize("name, kind", [(name, kind) for name, (_, _, kinds) in ARRAY.items()
                                        for kind in kinds.split()])
def test_array_that_is_ragged_not_real_or_misshapen_is_refused(name, kind):
    # these raised a bare ValueError or IndexError, or were read as numbers
    # (numeric strings), cut to their real part or broadcast into a result
    call, good, _ = ARRAY[name]
    error = ParseError if name.startswith("TriangleMesh-") else DegenerateDimension
    with pytest.raises(error):
        call(_bad(kind, good))


def test_fractional_mesh_faces_are_refused():
    # faces + 0.7 used to be truncated to the same mesh
    with pytest.raises(ParseError, match="integers"):
        cslsurf.TriangleMesh(MESH.vertices, MESH.faces + 0.7)


@pytest.mark.parametrize("validate", [True, False])
def test_negative_mesh_faces_are_refused(validate):
    # they wrapped from the end of the vertex list: faces - 8 built the same box
    with pytest.raises(ParseError, match="face indices -8 to -1"):
        cslsurf.TriangleMesh(MESH.vertices, MESH.faces - 8, validate=validate)


def test_cavities_that_are_not_shapes_are_degenerate():
    # an int raised a bare TypeError from tuple(5); a list of numbers passed
    for cavities in (5, [5], "abc"):
        with pytest.raises(DegenerateDimension, match="cavities"):
            cslsurf.Sphere(SIGMA, cavities=cavities)
