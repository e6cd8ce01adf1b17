"""Shape validation, quadrature coverage, and point classification."""

import math

import numpy as np
import pytest

from cslsurf.errors import (
    CavityOverlap,
    DegenerateDimension,
    NonUnitAxis,
    ResolutionOverflow,
)
from cslsurf.geometry import (
    Box,
    ConeCappedCylinder,
    Cylinder,
    EllipticCylinder,
    GappedCylinder,
    Mesh,
    Sphere,
    box_mesh,
    bounding_box,
    build_shape,
    contains,
    icosphere,
    mass_properties,
    quadrature,
    signed_distance,
)

SHAPE_SUITE = [
    Sphere(1.0),
    Cylinder(1.0, 2.0),
    Cylinder(0.5, 3.0, axis="x"),
    Box((1.0, 2.0, 3.0)),
    ConeCappedCylinder(1.0, 4.0, math.radians(60), axis="y"),
    EllipticCylinder(1.0, 0.6, 2.0),
    GappedCylinder(1.0, 10.0, 3, 0.5, axis="x"),
]


def analytic_area(spec):
    if isinstance(spec, Sphere):
        return 4 * math.pi * spec.radius**2
    if isinstance(spec, Cylinder):
        return 2 * math.pi * spec.radius * spec.length + 2 * math.pi * spec.radius**2
    if isinstance(spec, Box):
        a, b, c = spec.size
        return 2 * (a * b + b * c + c * a)
    if isinstance(spec, ConeCappedCylinder):
        return (2 * math.pi * spec.radius * spec.length
                + 2 * math.pi * spec.radius**2 / math.sin(spec.apex_angle / 2))
    if isinstance(spec, GappedCylinder):
        solid = spec.length - spec.gap_count * spec.gap_width
        return (2 * math.pi * spec.radius * solid
                + 2 * math.pi * spec.radius**2 * (spec.gap_count + 1))
    raise AssertionError


class TestValidation:
    @pytest.mark.parametrize("bad", [
        lambda: Sphere(-1.0),
        lambda: Sphere(0.0),
        lambda: Cylinder(1.0, -2.0),
        lambda: Box((1.0, 0.0, 1.0)),
        lambda: ConeCappedCylinder(1.0, 1.0, 0.0),
        lambda: ConeCappedCylinder(1.0, 1.0, math.pi),
        lambda: GappedCylinder(1.0, 2.0, 4, 0.5),   # gaps eat the rod
        lambda: GappedCylinder(1.0, 2.0, -1, 0.1),
        lambda: Cylinder(1.0, 1.0, axis=(0.0, 0.0, 0.0)),
        lambda: Sphere(1.0, center=(0.0, np.nan, 0.0)),
    ])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(DegenerateDimension):
            bad()

    @pytest.mark.parametrize("huge", [
        lambda: Sphere(1e300),
        lambda: Cylinder(1e200, 1.0),
        lambda: Box((1e200, 1.0, 1.0)),
        lambda: ConeCappedCylinder(1.0, 1e200, math.radians(60)),
        lambda: ConeCappedCylinder(1.0, 1.0, 1e-320),   # an infinite cone height
        lambda: EllipticCylinder(1.0, 1e200, 1.0),
        lambda: GappedCylinder(1.0, 1e200, 3, 1.0),
        lambda: Mesh(box_mesh(1e200, 1.0, 1.0)),
    ], ids=["sphere", "cylinder", "box", "cone", "cone_apex", "elliptic", "gapped", "mesh"])
    def test_rejects_extent_whose_moments_overflow(self, huge):
        # these used to raise a bare OverflowError, or warn and return
        # infinite moments, from mass_properties, quadrature and the oracles
        with pytest.raises(DegenerateDimension, match="too large"):
            huge()

    @pytest.mark.parametrize("spec", [
        Sphere(9e59), Cylinder(9e59, 1.8e60), Box((1.8e60,) * 3),
        EllipticCylinder(9e59, 4e59, 1.8e60), GappedCylinder(9e59, 1.8e60, 2, 1e59),
    ], ids=["sphere", "cylinder", "box", "elliptic", "gapped"])
    def test_largest_extent_keeps_finite_moments(self, spec):
        props = mass_properties(spec, 1.0)
        assert np.all(np.isfinite(props.inertia)) and np.all(np.isfinite(props.second_moment))
        assert np.isfinite(props.area) and np.isfinite(props.volume)

    @pytest.mark.parametrize("width", [math.inf, math.nan])
    def test_gap_width_must_be_finite(self, width):
        # with no gaps an infinite width used to make every segment NaN
        with pytest.raises(DegenerateDimension, match="gap width"):
            GappedCylinder(1.0, 2.0, 0, width)

    def test_axis_names(self):
        assert Cylinder(1.0, 1.0, axis="x").axis == (1.0, 0.0, 0.0)
        assert Cylinder(1.0, 1.0, axis=(0, 2, 0)).axis == (0.0, 1.0, 0.0)
        with pytest.raises(DegenerateDimension):
            Cylinder(1.0, 1.0, axis="w")

    def test_valid_cavity(self):
        spec = Sphere(2.0, cavities=(Sphere(0.5, center=(0.5, 0, 0)),))
        assert build_shape(spec) is spec

    def test_cavity_outside_host(self):
        with pytest.raises(CavityOverlap):
            build_shape(Sphere(1.0, cavities=(Sphere(0.5, center=(1.0, 0, 0)),)))

    def test_cavity_touching_boundary(self):
        with pytest.raises(CavityOverlap):
            build_shape(Sphere(1.0, cavities=(Sphere(0.5, center=(0.5, 0, 0)),)))

    def test_cavities_overlap_each_other(self):
        with pytest.raises(CavityOverlap):
            build_shape(Sphere(3.0, cavities=(
                Sphere(0.6, center=(0.5, 0, 0)),
                Sphere(0.6, center=(-0.5, 0, 0)),
            )))

    def test_nested_cavity_rejected(self):
        inner = Sphere(0.5, cavities=(Sphere(0.1),))
        with pytest.raises(CavityOverlap):
            build_shape(Sphere(2.0, cavities=(inner,)))

    def test_cavity_in_box_near_corner_is_fine(self):
        spec = Box((4.0, 4.0, 4.0), cavities=(Sphere(0.4, center=(1.2, 1.2, 1.2)),))
        assert build_shape(spec) is spec

    def test_sphere_cavity_on_cone_seam_is_fine(self):
        # the seam disc z = L/2 is inside the body, 3 from every wall
        spec = ConeCappedCylinder(6.0, 12.0, math.pi / 2,
                                  cavities=(Sphere(1.0, center=(0.0, 0.0, 6.0)),))
        assert build_shape(spec) is spec

    @pytest.mark.parametrize("center", [(5.0, 0.0, 0.0), (0.0, 5.0, 6.0)],
                             ids=["wall-tangent", "slant-at-seam"])
    def test_sphere_cavity_touching_cone_rejected(self, center):
        with pytest.raises(CavityOverlap):
            build_shape(ConeCappedCylinder(6.0, 12.0, math.pi / 2,
                                           cavities=(Sphere(1.0, center=center),)))


class TestQuadrature:
    @pytest.mark.parametrize("spec", SHAPE_SUITE[:5] + [SHAPE_SUITE[6]])
    def test_total_area_is_exact(self, spec):
        patches = quadrature(spec, resolution=16)
        assert patches.total_area == pytest.approx(analytic_area(spec), rel=1e-12)

    def test_elliptic_area_matches_legendre_form(self):
        # trapezoid arc length vs the complete elliptic integral closed form
        from cslsurf.geometry import mass_properties

        spec = EllipticCylinder(1.0, 0.6, 2.0)
        area = quadrature(spec, resolution=32).total_area
        assert area == pytest.approx(mass_properties(spec, 1.0).area, rel=1e-12)

    @pytest.mark.parametrize("spec", SHAPE_SUITE)
    def test_unit_normals(self, spec):
        patches = quadrature(spec, resolution=8)
        patches.validate()
        norms = np.linalg.norm(patches.normals, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    @pytest.mark.parametrize("resolution", [4, 8, 16, 32, 64])
    def test_area_error_stays_below_budget(self, resolution):
        # exact parametric patches: no tessellation error at any resolution
        patches = quadrature(Sphere(1.0), resolution=resolution)
        err = abs(patches.total_area - 4 * math.pi) / (4 * math.pi)
        assert err < 1e-3
        assert err < 1e-12

    def test_gap_faces_counted(self):
        spec = GappedCylinder(1.0, 10.0, 3, 0.5, axis="x")
        patches = quadrature(spec, resolution=16)
        axial = np.abs(patches.normals[:, 0]) > 0.999999
        face_area = float(np.sum(patches.weights[axial]))
        assert face_area == pytest.approx(2 * math.pi * (3 + 1), rel=1e-3)
        assert face_area == pytest.approx(2 * math.pi * (3 + 1), rel=1e-12)

    def test_cavity_normals_point_into_cavity(self):
        spec = Sphere(2.0, cavities=(Sphere(0.5, center=(0.5, 0, 0)),))
        patches = quadrature(spec, resolution=8)
        host_n = quadrature(Sphere(2.0), resolution=8)
        cavity = slice(len(host_n), None)
        radial = patches.points[cavity] - np.array([0.5, 0, 0])
        radial /= np.linalg.norm(radial, axis=1)[:, None]
        # outward from material = toward the cavity center
        assert np.all(np.einsum("ij,ij->i", patches.normals[cavity], radial) < 0)

    def test_cavity_adds_area(self):
        spec = Sphere(2.0, cavities=(Sphere(0.5),))
        patches = quadrature(spec, resolution=16)
        expected = 4 * math.pi * (2.0**2 + 0.5**2)
        assert patches.total_area == pytest.approx(expected, rel=1e-12)

    def test_resolution_overflow(self):
        with pytest.raises(ResolutionOverflow):
            quadrature(Sphere(1.0), resolution=16, max_patches=100)
        with pytest.raises(ResolutionOverflow):
            quadrature(Sphere(1.0), resolution=0)

    def test_mesh_patches_area(self):
        spec = Mesh(mesh=box_mesh(1.0, 1.0, 1.0))
        patches = quadrature(spec)
        assert patches.total_area == pytest.approx(6.0, rel=1e-12)

    def test_divergence_theorem_volume_from_patches(self):
        # independent volume cross-check: V = (1/3) sum w (r . n)
        for spec, volume in [
            (Sphere(1.0), 4 * math.pi / 3),
            (Cylinder(1.0, 2.0), 2 * math.pi),
            (Box((1.0, 2.0, 3.0)), 6.0),
            (ConeCappedCylinder(1.0, 2.0, math.radians(90)),
             2 * math.pi + 2 * math.pi / 3),
            (GappedCylinder(1.0, 10.0, 3, 0.5), math.pi * 8.5),
            (EllipticCylinder(1.0, 0.6, 2.0), math.pi * 1.2),
        ]:
            patches = quadrature(spec, resolution=24)
            v = float(np.einsum("i,ij,ij->", patches.weights, patches.points,
                                patches.normals)) / 3.0
            assert v == pytest.approx(volume, rel=1e-10), spec


class TestPointQueries:
    def test_contains_basic(self):
        pts = np.array([[0, 0, 0], [0.9, 0, 0], [1.1, 0, 0]], dtype=float)
        assert contains(Sphere(1.0), pts).tolist() == [True, True, False]

    def test_contains_respects_cavity(self):
        spec = Sphere(2.0, cavities=(Sphere(0.5),))
        pts = np.array([[0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]], dtype=float)
        assert contains(spec, pts).tolist() == [False, True, False]

    def test_contains_gapped(self):
        spec = GappedCylinder(1.0, 10.0, 1, 2.0, axis="z")
        # one central gap of width 2: material on |z| in (1, 5)
        pts = np.array([[0, 0, 0], [0, 0, 3.0], [0, 0, 6.0]], dtype=float)
        assert contains(spec, pts).tolist() == [False, True, False]

    def test_contains_rotated_cylinder(self):
        spec = Cylinder(0.5, 4.0, axis="x")
        pts = np.array([[1.5, 0, 0], [0, 1.5, 0]], dtype=float)
        assert contains(spec, pts).tolist() == [True, False]

    @pytest.mark.parametrize("spec", [
        Sphere(1.0),
        Cylinder(1.0, 2.0, axis="y"),
        Box((1.0, 2.0, 3.0)),
        GappedCylinder(1.0, 10.0, 3, 0.5),
        ConeCappedCylinder(1.0, 2.0, math.radians(60)),
    ])
    def test_sdf_sign_matches_contains(self, spec, rng):
        lo, hi = bounding_box(spec)
        pts = rng.uniform(lo - 0.5, hi + 0.5, size=(500, 3))
        sdf = signed_distance(spec, pts)
        inside = contains(spec, pts)
        on_boundary = np.abs(sdf) < 1e-9
        assert np.array_equal((sdf < 0) | on_boundary, inside | on_boundary)

    def test_sdf_values(self):
        assert signed_distance(Sphere(1.0), [[2.0, 0, 0]])[0] == pytest.approx(1.0)
        assert signed_distance(Sphere(1.0), [[0.5, 0, 0]])[0] == pytest.approx(-0.5)
        assert signed_distance(Box((2.0, 2.0, 2.0)), [[0, 0, 1.75]])[0] == pytest.approx(0.75)

    def test_cone_sdf_apex(self):
        spec = ConeCappedCylinder(1.0, 2.0, math.radians(90))
        apex_z = 1.0 + spec.cone_height
        d = signed_distance(spec, [[0, 0, apex_z + 0.25]])[0]
        assert d == pytest.approx(0.25, rel=1e-6)

    def test_mesh_contains(self):
        spec = Mesh(mesh=icosphere(1.0, 2))
        pts = np.array([[0, 0, 0], [0.5, 0.5, 0.5], [1.5, 0, 0]], dtype=float)
        got = contains(spec, pts)
        assert got.tolist() == [True, True, False]

    def test_bounding_box_rotated(self):
        lo, hi = bounding_box(Cylinder(1.0, 4.0, axis="x"))
        assert hi[0] == pytest.approx(2.0)
        assert hi[1] == pytest.approx(1.0)
        assert hi[2] == pytest.approx(1.0)


def test_patch_transform_helpers():
    patches = quadrature(Box((1.0, 1.0, 2.0)), resolution=4)
    moved = patches.translated([1.0, 0.0, 0.0])
    assert moved.total_area == pytest.approx(patches.total_area)
    assert np.allclose(moved.normals, patches.normals)
    flipped = patches.flipped()
    assert np.allclose(flipped.normals, -patches.normals)
    with pytest.raises(NonUnitAxis):
        bad = quadrature(Sphere(1.0), resolution=4)
        bad.normals[0] *= 2.0
        bad.validate()
