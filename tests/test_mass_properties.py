"""Bulk property accumulation: closed forms, meshes, cavities, invariants."""

import math

import numpy as np
import pytest

from cslsurf.geometry import (
    Box,
    ConeCappedCylinder,
    Cylinder,
    EllipticCylinder,
    GappedCylinder,
    Mesh,
    Sphere,
    box_mesh,
    icosphere,
    mass_properties,
    quadrature,
)
from cslsurf.geometry.patches import SurfacePatches, compose_mass_properties

SUITE = [
    Sphere(1.0),
    Cylinder(1.0, 2.0, axis="x"),
    Box((1.0, 2.0, 3.0)),
    ConeCappedCylinder(0.8, 2.0, math.radians(70), axis="y"),
    EllipticCylinder(1.0, 0.6, 2.0),
    GappedCylinder(1.0, 10.0, 3, 0.5, axis="x"),
    Sphere(2.0, cavities=(Sphere(0.5, center=(0.8, 0, 0)),)),
]


class TestClosedForms:
    def test_sphere(self):
        mp = mass_properties(Sphere(1.0), 1.0)
        assert mp.volume == pytest.approx(4 * math.pi / 3, rel=1e-14)
        expected = 0.4 * mp.mass
        assert np.allclose(mp.inertia, expected * np.eye(3), rtol=1e-14)

    def test_cylinder_axial(self):
        mp = mass_properties(Cylinder(1.0, 2.0, axis="x"), 1.0)
        assert mp.inertia[0, 0] == pytest.approx(mp.mass / 2.0, rel=1e-14)
        perp = mp.mass * (3 * 1.0 + 4.0) / 12.0
        assert mp.inertia[1, 1] == pytest.approx(perp, rel=1e-14)

    def test_box_example(self):
        mp = mass_properties(Box((1.0, 2.0, 3.0)), 2.0)
        assert mp.mass == pytest.approx(12.0)
        assert mp.inertia[0, 0] == pytest.approx(12.0 * (4 + 9) / 12.0, rel=1e-14)

    def test_elliptic(self):
        a, b, L = 1.0, 0.6, 2.0
        mp = mass_properties(EllipticCylinder(a, b, L), 3.0)
        assert mp.volume == pytest.approx(math.pi * a * b * L, rel=1e-14)
        assert mp.inertia[2, 2] == pytest.approx(mp.mass * (a**2 + b**2) / 4, rel=1e-14)

    def test_gapped_volume(self):
        mp = mass_properties(GappedCylinder(1.0, 10.0, 3, 0.5, axis="x"), 1.0)
        assert mp.volume == pytest.approx(math.pi * (10 - 1.5), rel=1e-14)
        assert mp.area == pytest.approx(
            2 * math.pi * 8.5 + 2 * math.pi * 4, rel=1e-14
        )


class TestCrossChecks:
    @pytest.mark.parametrize("spec", SUITE)
    def test_inertia_second_moment_identity(self, spec):
        mp = mass_properties(spec, 1.7)
        lhs = mp.inertia
        rhs = np.trace(mp.second_moment) * np.eye(3) - mp.second_moment
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * abs(np.trace(lhs)))

    @pytest.mark.parametrize("spec", SUITE)
    def test_volume_against_patch_divergence(self, spec):
        # independent accumulation: V = (1/3) sum w (r . n) over all patches
        mp = mass_properties(spec, 1.0)
        p = quadrature(spec, resolution=24)
        v = float(np.einsum("i,ij,ij->", p.weights, p.points, p.normals)) / 3.0
        assert v == pytest.approx(mp.volume, rel=1e-10)

    @pytest.mark.parametrize("spec", SUITE)
    def test_centroid_against_patch_moment(self, spec):
        # int x_i dV = (1/2) oint x_i^2 n_i dS, componentwise
        mp = mass_properties(spec, 1.0)
        p = quadrature(spec, resolution=24)
        first = 0.5 * np.einsum("i,ij,ij->j", p.weights, p.points**2, p.normals)
        assert np.allclose(first / mp.volume, mp.centroid, atol=1e-10)

    @pytest.mark.parametrize("spec", SUITE)
    def test_inertia_against_patch_moments(self, spec):
        # (1/5) oint r o r (r . n) dS = int r o r dV, about the centroid
        rho = 2.0
        mp = mass_properties(spec, rho)
        p = quadrature(spec, resolution=48)
        r = p.points - mp.centroid
        full = np.einsum("i,ij,ik,il,il->jk", p.weights, r, r, r, p.normals) / 5.0
        J = mp.second_moment
        assert np.allclose(rho * full, J, rtol=0, atol=1e-12 * np.abs(J).max())


class TestMesh:
    def test_cube_matches_box(self):
        mp_mesh = mass_properties(Mesh(mesh=box_mesh(1.0, 2.0, 3.0)), 2.0)
        mp_box = mass_properties(Box((1.0, 2.0, 3.0)), 2.0)
        assert mp_mesh.volume == pytest.approx(mp_box.volume, rel=1e-12)
        assert mp_mesh.area == pytest.approx(mp_box.area, rel=1e-12)
        assert np.allclose(mp_mesh.inertia, mp_box.inertia, rtol=1e-12)

    def test_icosphere_approaches_ball(self):
        mp = mass_properties(Mesh(mesh=icosphere(1.0, 4)), 1.0)
        assert mp.volume == pytest.approx(4 * math.pi / 3, rel=3e-3)
        assert np.allclose(mp.inertia, 0.4 * mp.mass * np.eye(3), rtol=3e-3)

    def test_translation_invariance(self, rng):
        base = icosphere(1.0, 3)
        mp0 = mass_properties(Mesh(mesh=base), 1.0)
        shift = rng.uniform(-40, 40, 3)
        mp1 = mass_properties(Mesh(mesh=base.translated(shift)), 1.0)
        assert mp1.volume == pytest.approx(mp0.volume, rel=1e-10)
        assert mp1.area == pytest.approx(mp0.area, rel=1e-10)
        assert np.allclose(mp1.centroid - shift, mp0.centroid, atol=1e-10)
        assert np.allclose(mp1.inertia, mp0.inertia,
                           rtol=1e-10, atol=1e-10 * np.trace(mp0.inertia))


class TestCavities:
    def test_concentric_shell(self):
        r1, r2, rho = 2.0, 0.5, 3.0
        mp = mass_properties(Sphere(r1, cavities=(Sphere(r2),)), rho)
        v = 4 * math.pi / 3 * (r1**3 - r2**3)
        assert mp.volume == pytest.approx(v, rel=1e-14)
        assert mp.mass == pytest.approx(rho * v, rel=1e-14)
        assert mp.area == pytest.approx(4 * math.pi * (r1**2 + r2**2), rel=1e-14)
        i_shell = (8 * math.pi / 15) * rho * (r1**5 - r2**5)
        assert np.allclose(mp.inertia, i_shell * np.eye(3), rtol=1e-14)

    def test_offcenter_cavity_shifts_centroid(self):
        r1, r2 = 2.0, 0.5
        c2 = np.array([0.8, 0.0, 0.0])
        mp = mass_properties(Sphere(r1, cavities=(Sphere(r2, center=tuple(c2)),)), 1.0)
        v1 = 4 * math.pi / 3 * r1**3
        v2 = 4 * math.pi / 3 * r2**3
        expected = -v2 * c2 / (v1 - v2)
        assert np.allclose(mp.centroid, expected, atol=1e-14)

    def test_density_must_be_positive(self):
        from cslsurf.errors import DegenerateDimension

        with pytest.raises(DegenerateDimension):
            mass_properties(Sphere(1.0), 0.0)

    @pytest.mark.parametrize("radius, density", [
        (1e-6, math.inf), (1e-6, math.nan),
        # these used to warn (overflow, invalid) and return an infinite mass
        # or inertia with NaN entries; a RuntimeWarning now fails the suite
        (1e10, 1e300), (1e59, 1e100),
    ], ids=["inf", "nan", "mass_overflows", "inertia_overflows"])
    def test_density_must_be_finite(self, radius, density):
        from cslsurf.errors import DegenerateDimension

        with pytest.raises(DegenerateDimension, match="density"):
            mass_properties(Sphere(radius), density)

    def test_largest_density_keeps_finite_moments(self):
        props = mass_properties(Sphere(1e59), 1e10)   # inertia ~ 1.7e306
        assert np.isfinite(props.mass) and np.all(np.isfinite(props.inertia))


def test_net_volume_that_is_not_positive_is_degenerate():
    from cslsurf.errors import DegenerateDimension

    # a cavity part larger than its host leaves a negative net volume
    parts = [(1.0, 1.0, 6.0, np.zeros(3), np.eye(3)), (-1.0, 2.0, 8.0, np.zeros(3), np.eye(3))]
    with pytest.raises(DegenerateDimension):
        compose_mass_properties(parts, 1.0)


def test_negative_patch_weight_is_degenerate():
    from cslsurf.errors import DegenerateDimension

    patches = SurfacePatches(np.zeros((2, 3)), np.tile([0.0, 0.0, 1.0], (2, 1)), [1.0, -0.5])
    with pytest.raises(DegenerateDimension):
        patches.validate()
