"""Surface-tensor values against closed forms and invariance properties."""

import math

import numpy as np
import pytest

from conftest import random_rotations
from cslsurf.csl import CslParams, dephasing_matrix
from cslsurf.errors import DegenerateDimension, NonUnitAxis
from cslsurf.geometry import (
    Box,
    ConeCappedCylinder,
    Cylinder,
    EllipticCylinder,
    GappedCylinder,
    Sphere,
    mass_properties,
    quadrature,
)
from cslsurf.tensors import (
    axial_rotational_strength,
    clamp_psd,
    is_psd,
    principal_axes,
    rotational_surface_tensor,
    surface_tensor,
)


class TestSurfaceTensor:
    def test_sphere_isotropic(self):
        s = surface_tensor(quadrature(Sphere(1.0), resolution=16))
        assert np.allclose(s, (4 * math.pi / 3) * np.eye(3), rtol=1e-12)
        assert s[0, 0] == pytest.approx(4.18879, rel=1e-5)

    def test_cylinder_components(self):
        R, L = 1.0, 5.0
        s = surface_tensor(quadrature(Cylinder(R, L, axis="x"), resolution=16))
        # independent oracle for the lateral part: L R int cos^2 dphi
        phi = (np.arange(20000) + 0.5) * (2 * np.pi / 20000)
        lateral_yy = L * R * np.sum(np.cos(phi) ** 2) * (2 * np.pi / 20000)
        assert s[0, 0] == pytest.approx(2 * math.pi * R**2, rel=1e-12)
        assert s[1, 1] == pytest.approx(lateral_yy, rel=1e-12)
        assert s[1, 1] == pytest.approx(math.pi * R * L, rel=1e-12)
        assert s[2, 2] == pytest.approx(math.pi * R * L, rel=1e-12)
        off = s - np.diag(np.diag(s))
        assert np.max(np.abs(off)) < 1e-12 * np.trace(s)

    def test_gap_multiplication(self):
        base = surface_tensor(quadrature(Cylinder(1.0, 10.0, axis="x"), resolution=16))
        for n in range(5):
            spec = GappedCylinder(1.0, 10.0, n, 0.5, axis="x")
            s = surface_tensor(quadrature(spec, resolution=16))
            assert s[0, 0] == pytest.approx((n + 1) * base[0, 0], rel=1e-10)

    @pytest.mark.parametrize("spec", [
        Sphere(1.0),
        Cylinder(1.0, 5.0, axis="y"),
        Box((1.0, 2.0, 3.0)),
        EllipticCylinder(1.0, 0.6, 2.0),
        ConeCappedCylinder(1.0, 2.0, math.radians(45)),
    ])
    def test_trace_equals_area(self, spec):
        p = quadrature(spec, resolution=16)
        assert np.trace(surface_tensor(p)) == pytest.approx(p.total_area, rel=1e-12)

    def test_translation_leaves_surface_tensor(self):
        p = quadrature(Box((1.0, 2.0, 3.0)), resolution=8)
        s0 = surface_tensor(p)
        s1 = surface_tensor(p.translated([10.0, -3.0, 7.0]))
        assert np.array_equal(s0, s1)


class TestRotationalTensor:
    def test_sphere_vanishes(self):
        p = quadrature(Sphere(1.0), resolution=16)
        s_rot = rotational_surface_tensor(p, np.zeros(3))
        assert np.linalg.norm(s_rot) < 1e-10

    def test_rod_perpendicular_axis(self):
        R, L = 0.05, 2.0
        p = quadrature(Cylinder(R, L, axis="x"), resolution=32)
        mp = mass_properties(Cylinder(R, L, axis="x"), 1.0)
        got = axial_rotational_strength(p, mp.centroid, np.array([0.0, 0.0, 1.0]))
        slender_limit = math.pi * R * L**3 / 12.0
        exact = slender_limit + math.pi * R**4 / 2.0  # end caps
        assert got == pytest.approx(exact, rel=1e-10)
        assert got == pytest.approx(slender_limit, rel=0.02)

    def test_cylinder_own_axis_zero(self):
        p = quadrature(Cylinder(1.0, 4.0, axis="z"), resolution=16)
        got = axial_rotational_strength(p, np.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert got < 1e-10  # R^4 scale is O(1) here

    @pytest.mark.parametrize("e2", [0.04, 0.01])
    def test_elliptic_leading_order(self, e2):
        a, L = 1.0, 3.0
        spec = EllipticCylinder(a, a * math.sqrt(1 - e2), L)
        p = quadrature(spec, resolution=32)
        mp = mass_properties(spec, 1.0)
        got = axial_rotational_strength(p, mp.centroid, np.array([0.0, 0.0, 1.0]))
        leading = e2**2 / 4.0 * math.pi * a**2 * L  # at a = 1 == the a^3 form
        assert got == pytest.approx(leading, rel=0.10)
        # next order is e^2/4: deviation must shrink with e^2
        assert abs(got / leading - 1.0) == pytest.approx(e2 / 4, rel=0.25)

    def test_elliptic_scale_carries_a_cubed(self):
        # dimensional form of the leading order is (e^4/4) pi a^3 L
        e2, L = 0.01, 3.0
        vals = {}
        for a in (1.0, 2.0):
            spec = EllipticCylinder(a, a * math.sqrt(1 - e2), L)
            p = quadrature(spec, resolution=32)
            vals[a] = axial_rotational_strength(
                p, mass_properties(spec, 1.0).centroid, np.array([0.0, 0.0, 1.0])
            )
        assert vals[2.0] / vals[1.0] == pytest.approx(8.0, rel=1e-3)

    def test_shifted_sphere_lever_arm(self):
        # shifting patches by d turns (r x n) into (d x n): strength about
        # any axis perpendicular to d becomes (area/3) d^2
        R, d = 1.0, 0.7
        p = quadrature(Sphere(R), resolution=16).translated([d, 0.0, 0.0])
        got = axial_rotational_strength(p, np.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert got == pytest.approx((4 * math.pi * R**2 / 3) * d**2, rel=1e-12)

    def test_cone_caps_suppress_axial_face_term(self):
        flat = surface_tensor(quadrature(Cylinder(1.0, 4.0, axis="x"), resolution=16))
        for deg in (30, 60, 90, 120):
            spec = ConeCappedCylinder(1.0, 4.0, math.radians(deg), axis="x")
            s = surface_tensor(quadrature(spec, resolution=16))
            ratio = s[0, 0] / flat[0, 0]
            assert ratio == pytest.approx(math.sin(math.radians(deg) / 2), rel=0.01)
            assert ratio == pytest.approx(math.sin(math.radians(deg) / 2), rel=1e-10)


class TestInvariance:
    SPECS = [
        Cylinder(1.0, 5.0, axis="x"),
        Box((1.0, 2.0, 3.0)),
        ConeCappedCylinder(1.0, 2.0, math.radians(75)),
        EllipticCylinder(1.0, 0.6, 2.0),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_rotation_covariance(self, spec):
        p = quadrature(spec, resolution=12)
        s0 = surface_tensor(p)
        r0 = rotational_surface_tensor(p, np.zeros(3))
        for R in random_rotations(5):
            q = p.rotated(R)
            assert np.allclose(surface_tensor(q), R @ s0 @ R.T,
                               rtol=1e-10, atol=1e-10 * np.trace(s0))
            assert np.allclose(rotational_surface_tensor(q, np.zeros(3)), R @ r0 @ R.T,
                               rtol=1e-10, atol=1e-10 * max(np.trace(r0), 1e-300))

    @pytest.mark.parametrize("spec", SPECS)
    def test_axial_equals_quadratic_form(self, spec, rng):
        p = quadrature(spec, resolution=12)
        origin = np.array([0.1, -0.2, 0.3])
        s_rot = rotational_surface_tensor(p, origin)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            direct = axial_rotational_strength(p, origin, axis)
            quad = float(axis @ s_rot @ axis)
            assert direct == pytest.approx(quad, rel=1e-12, abs=1e-12 * np.trace(s_rot))

    @pytest.mark.parametrize("spec", SPECS + [Sphere(1.0)])
    def test_tensors_are_psd(self, spec):
        p = quadrature(spec, resolution=12)
        assert is_psd(surface_tensor(p))
        assert is_psd(rotational_surface_tensor(p, np.zeros(3)))


class TestHelpers:
    def test_non_unit_axis_rejected(self):
        p = quadrature(Sphere(1.0), resolution=4)
        with pytest.raises(NonUnitAxis):
            axial_rotational_strength(p, np.zeros(3), np.array([1.0, 1.0, 0.0]))

    def test_clamp_psd_removes_noise(self):
        t = np.diag([1.0, 2.0, -1e-12])
        out = clamp_psd(t)
        assert out[2, 2] == 0.0
        assert np.allclose(out[:2, :2], t[:2, :2])

    def test_clamp_psd_rejects_indefinite(self):
        with pytest.raises(ValueError):
            clamp_psd(np.diag([1.0, 1.0, -0.5]))

    def test_indefinite_surface_tensor_is_degenerate(self):
        with pytest.raises(DegenerateDimension):
            dephasing_matrix(np.diag([1.0, -1.0, 0.0]), 2000.0, CslParams())

    def test_principal_axes_orthonormal(self):
        p = quadrature(Box((1.0, 2.0, 3.0)), resolution=8)
        vals, vecs = principal_axes(surface_tensor(p))
        assert np.all(np.diff(vals) >= 0)
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("which", ["inertia", "rotational"])
    def test_degenerate_principal_axes_reproducible(self, which):
        # two equal moments: eigh alone rotates or flips the pair on 1-ulp noise
        spec = Cylinder(1.0, 5.0, axis=(0.4, 0.3, -1.0))
        if which == "inertia":
            t = mass_properties(spec, 1.0).inertia
        else:
            t = rotational_surface_tensor(quadrature(spec), np.zeros(3))
        vals, vecs = principal_axes(t)
        assert np.allclose(t @ vecs, vecs * vals, rtol=0, atol=1e-12 * np.trace(t))
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
        assert np.linalg.det(vecs) == pytest.approx(1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            ulp = rng.choice([-1.0, 1.0], size=(3, 3)) * np.inf
            _, noisy = principal_axes(np.nextafter(t, ulp))
            assert np.allclose(noisy, vecs, rtol=0, atol=1e-9)

    def test_isotropic_principal_axes_are_world_axes(self):
        vals, vecs = principal_axes(surface_tensor(quadrature(Sphere(1.0))))
        assert np.array_equal(vecs, np.eye(3))
