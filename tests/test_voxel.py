"""Smoothed-field construction: exact factors, profiles, grid mechanics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from cslsurf.csl import CslParams
from cslsurf.errors import (
    CslsurfError,
    DegenerateDimension,
    GridTooLarge,
    ParseError,
    ShiftOutOfGrid,
    SpacingTooCoarse,
    UnsupportedShape,
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
    signed_distance,
)
from cslsurf.oracle import (
    EdgeProfile,
    VoxelGrid,
    decoherence_function,
    edge_layer_factor,
    rasterize_smoothed_density,
    read_grid,
    smoothed_density,
    write_grid,
)

SIGMA = 1e-7
RHO = 2000.0

# frozen 1-D radial quadrature of the ball-Gaussian convolution at d = R = 10 sigma
BALL_SURFACE_VALUE_10SIG = 0.46010577195986


class TestPointEvaluator:
    def test_sphere_center_value(self):
        spec = Sphere(10 * SIGMA)
        v = smoothed_density(spec, RHO, SIGMA, np.zeros((1, 3)))[0]
        assert v == pytest.approx(RHO, rel=1e-6)

    def test_sphere_surface_value_matches_convolution(self):
        # curvature pulls the surface midpoint below rho/2 by ~ 0.4 sigma / R
        spec = Sphere(10 * SIGMA)
        v = smoothed_density(spec, RHO, SIGMA, np.array([[10 * SIGMA, 0, 0]]))[0]
        assert v / RHO == pytest.approx(BALL_SURFACE_VALUE_10SIG, rel=1e-9)

    def test_sphere_surface_value_flat_limit(self):
        # at R = 100 sigma the flat-edge midpoint rho/2 holds to 1 percent
        R = 100 * SIGMA
        v = smoothed_density(Sphere(R), RHO, SIGMA, np.array([[R, 0, 0]]))[0]
        assert v == pytest.approx(RHO / 2, rel=0.01)

    def test_box_face_profile_is_erf_step(self):
        # through a face center the field is the 1-D step convolution
        L = 40 * SIGMA
        spec = Box((L, L, L))
        h = np.linspace(-4 * SIGMA, 4 * SIGMA, 33)
        pts = np.zeros((len(h), 3))
        pts[:, 0] = L / 2 + h
        got = smoothed_density(spec, RHO, SIGMA, pts)
        expected = RHO * ndtr(-h / SIGMA)
        assert np.allclose(got, expected, rtol=1e-10)

    def test_cylinder_factorizes(self):
        spec = Cylinder(8 * SIGMA, 20 * SIGMA, axis="z")
        inside = smoothed_density(spec, RHO, SIGMA, np.zeros((1, 3)))[0]
        assert inside == pytest.approx(RHO, rel=1e-6)
        rim = smoothed_density(spec, RHO, SIGMA,
                               np.array([[8 * SIGMA, 0.0, 10 * SIGMA]]))[0]
        # two orthogonal half-space edges meet: value ~ rho/4 at the rim
        assert rim == pytest.approx(RHO / 4, rel=0.05)

    def test_cavity_subtracts(self):
        # cavity walls 10 sigma away leave only a chi-3 tail at its center
        spec = Sphere(30 * SIGMA, cavities=(Sphere(10 * SIGMA),))
        v_center = smoothed_density(spec, RHO, SIGMA, np.zeros((1, 3)))[0]
        assert abs(v_center) < 1e-8 * RHO
        v_mid = smoothed_density(spec, RHO, SIGMA, np.array([[20 * SIGMA, 0, 0]]))[0]
        assert v_mid == pytest.approx(RHO, rel=1e-6)

    @pytest.mark.parametrize("profile", [None, EdgeProfile.step()], ids=["default", "step"])
    def test_cone_field_is_step_profile_of_signed_distance(self, profile):
        spec = ConeCappedCylinder(5 * SIGMA, 10 * SIGMA, math.radians(70),
                                  axis=(0.3, -0.4, 1.0), center=(SIGMA, 0.5 * SIGMA, 0.0))
        pts = np.random.default_rng(11).uniform(-18 * SIGMA, 18 * SIGMA, size=(20000, 3))
        got = smoothed_density(spec, 1.0, SIGMA, pts, profile=profile)
        expected = EdgeProfile.step().smoothed(signed_distance(spec, pts), SIGMA)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("density, sigma", [
        (RHO, -SIGMA), (RHO, 0.0), (RHO, math.nan), (RHO, math.inf),
        (0.0, SIGMA), (-RHO, SIGMA), (math.nan, SIGMA), (math.inf, SIGMA),
    ])
    def test_bad_density_or_sigma_is_degenerate(self, density, sigma):
        # sigma < 0 used to give -density inside a box, sigma = 0 NaN on its face
        spec = Box((4 * SIGMA, 4 * SIGMA, 4 * SIGMA))
        with pytest.raises(DegenerateDimension):
            smoothed_density(spec, density, sigma, [[0.0, 0.0, 0.0], [2 * SIGMA, 0.0, 0.0]])

    def test_mesh_points_unsupported(self):
        spec = Mesh(mesh=box_mesh(1e-6, 1e-6, 1e-6))
        with pytest.raises(UnsupportedShape):
            smoothed_density(spec, RHO, SIGMA, np.zeros((1, 3)))


class TestRasterize:
    def test_boundary_values_negligible(self):
        grid = rasterize_smoothed_density(Sphere(8 * SIGMA), RHO, SIGMA)
        edge = np.concatenate([
            grid.values[0].ravel(), grid.values[-1].ravel(),
            grid.values[:, 0].ravel(), grid.values[:, -1].ravel(),
            grid.values[:, :, 0].ravel(), grid.values[:, :, -1].ravel(),
        ])
        assert np.max(np.abs(edge)) < 1e-8 * RHO

    def test_spacing_cap(self):
        with pytest.raises(SpacingTooCoarse):
            rasterize_smoothed_density(Sphere(5 * SIGMA), RHO, SIGMA, spacing=SIGMA)

    def test_voxel_cap(self):
        with pytest.raises(GridTooLarge):
            rasterize_smoothed_density(Sphere(8 * SIGMA), RHO, SIGMA, max_voxels=1000)

    def test_padding_floor(self):
        with pytest.raises(ValueError):
            rasterize_smoothed_density(Sphere(5 * SIGMA), RHO, SIGMA, padding=2 * SIGMA)

    @pytest.mark.parametrize("kwargs", [
        {"spacing": 0.0}, {"spacing": -SIGMA / 4}, {"spacing": math.inf},
        {"padding": 4.9 * SIGMA}, {"padding": math.nan}, {"padding": math.inf},
        {"sigma": 0.0}, {"sigma": -SIGMA}, {"density": 0.0}, {"density": math.nan},
    ])
    def test_bad_grid_arguments_are_typed_errors(self, kwargs):
        args = {"density": RHO, "sigma": SIGMA, **kwargs}
        with pytest.raises(CslsurfError) as info:
            rasterize_smoothed_density(Sphere(5 * SIGMA), **args)
        assert isinstance(info.value, ValueError)

    def test_grid_matches_point_evaluator(self):
        spec = GappedCylinder(4 * SIGMA, 20 * SIGMA, 2, 2 * SIGMA, axis="x")
        grid = rasterize_smoothed_density(spec, RHO, SIGMA)
        ax = grid.axes()
        i, j, k = 11, grid.dims[1] // 2, grid.dims[2] // 2
        pt = np.array([[ax[0][i], ax[1][j], ax[2][k]]])
        assert grid.values[i, j, k] == pytest.approx(
            smoothed_density(spec, RHO, SIGMA, pt)[0], rel=1e-12, abs=1e-300
        )

    def test_filtered_mesh_matches_exact_box(self):
        L = 10 * SIGMA
        exact = rasterize_smoothed_density(Box((L, L, L)), RHO, SIGMA)
        mesh = rasterize_smoothed_density(Mesh(mesh=box_mesh(L, L, L)), RHO, SIGMA)
        assert mesh.dims == exact.dims
        scale = np.max(exact.values)
        assert np.max(np.abs(mesh.values - exact.values)) / scale < 0.02

    def test_filtered_elliptic_circular_limit(self):
        R, L = 6 * SIGMA, 12 * SIGMA
        exact = rasterize_smoothed_density(Cylinder(R, L), RHO, SIGMA)
        ell = rasterize_smoothed_density(EllipticCylinder(R, R, L), RHO, SIGMA)
        scale = np.max(exact.values)
        assert np.max(np.abs(ell.values - exact.values)) / scale < 0.02

    def test_cone_capped_uses_signed_distance(self):
        spec = ConeCappedCylinder(5 * SIGMA, 10 * SIGMA, math.radians(90))
        grid = rasterize_smoothed_density(spec, RHO, SIGMA)
        # the mid voxel sits within half a cell of the center, > 4.7 sigma
        # from the nearest wall
        mid = tuple(n // 2 for n in grid.dims)
        assert grid.values[mid] == pytest.approx(RHO, rel=1e-5)

    def test_grid_io_roundtrip(self, tmp_path):
        grid = rasterize_smoothed_density(Sphere(6 * SIGMA), RHO, SIGMA)
        path = tmp_path / "field.cslgrid"
        write_grid(grid, path)
        back = read_grid(path)
        assert back.dims == grid.dims
        assert back.spacing == grid.spacing
        assert np.array_equal(back.origin, grid.origin)
        assert np.array_equal(back.values, grid.values)
        assert back.margin == grid.margin

    def test_reread_grid_keeps_shift_guard(self, tmp_path):
        grid = rasterize_smoothed_density(Sphere(5 * SIGMA), RHO, SIGMA)
        path = tmp_path / "field.cslgrid"
        write_grid(grid, path)
        back = read_grid(path)
        far = np.array([grid.margin + SIGMA, 0.0, 0.0])
        with pytest.raises(ShiftOutOfGrid):
            decoherence_function(back, far, CslParams())

    def test_version_one_grid_rejected(self, tmp_path):
        path = tmp_path / "old.cslgrid"
        path.write_bytes(b"cslgrid 1 1 1 1 1e-07 0 0 0\n" + np.zeros(1).tobytes())
        with pytest.raises(ParseError, match="margin"):
            read_grid(path)


    @pytest.mark.parametrize("header, values", [
        (b"cslgrid 2 2 2 2 1e-07 0 0 0 6e-07", 5),
        (b"cslgrid 2 2 2 2 1e-07 0 0 0 6e-07", 9),
        (b"cslgrid 2 -1 -1 1 1e-07 0 0 0 6e-07", 1),
        (b"cslgrid 2 2 2 two 1e-07 0 0 0 6e-07", 8),
        # 1e15 voxels would take 8 PB: ParseError, not MemoryError
        (b"cslgrid 2 100000 100000 100000 1e-07 0 0 0 6e-07", 2),
    ], ids=["truncated", "trailing-data", "negative-size", "not-a-number", "oversized"])
    def test_malformed_grid_rejected(self, tmp_path, header, values):
        path = tmp_path / "bad.cslgrid"
        path.write_bytes(header + b"\n" + np.zeros(values).tobytes())
        with pytest.raises(ParseError):
            read_grid(path)

    @pytest.mark.parametrize("geometry", [
        b"-1e-07 0 0 0 6e-07", b"0 0 0 0 6e-07", b"nan 0 0 0 6e-07",
        b"1e-07 0 inf 0 6e-07", b"1e-07 0 0 0 -6e-07", b"1e-07 0 0 0 nan",
    ])
    def test_unusable_grid_geometry_rejected(self, tmp_path, geometry):
        path = tmp_path / "bad.cslgrid"
        path.write_bytes(b"cslgrid 2 2 2 2 " + geometry + b"\n" + np.zeros(8).tobytes())
        with pytest.raises(ParseError, match="header"):
            read_grid(path)

    @pytest.mark.parametrize("spacing, origin, margin", [
        (-SIGMA / 2, np.zeros(3), 0.0), (0.0, np.zeros(3), 0.0),
        (math.nan, np.zeros(3), 0.0), (math.inf, np.zeros(3), 0.0),
        (SIGMA / 2, np.zeros(2), 0.0), (SIGMA / 2, [0.0, math.nan, 0.0], 0.0),
        (SIGMA / 2, [-math.inf, 0.0, 0.0], 0.0), (SIGMA / 2, np.zeros(3), -SIGMA),
        (SIGMA / 2, np.zeros(3), math.nan), (SIGMA / 2, np.zeros(3), math.inf),
    ])
    def test_unusable_grid_geometry_is_degenerate(self, spacing, origin, margin):
        # a negative spacing would negate both oracles' sums, zero divide by
        # zero; neither reaches them
        with pytest.raises(DegenerateDimension):
            VoxelGrid(origin, spacing, np.ones((4, 4, 4)), margin)

    @pytest.mark.parametrize("value", [1 + 2j, "a", "1.5"])
    def test_values_that_are_not_real_numbers_are_degenerate(self, value):
        # complex values used to lose their imaginary part, strings to raise
        # a bare ValueError (or, if numeric, to be read as numbers)
        with pytest.raises(DegenerateDimension, match="real numbers"):
            VoxelGrid(np.zeros(3), SIGMA / 2, np.full((2, 2, 2), value))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4, 5), (), (0, 4, 4), (4, 4, 0)])
    def test_values_not_3d_or_with_an_empty_axis_are_degenerate(self, shape):
        # an empty axis has no spectrum to sum
        with pytest.raises(DegenerateDimension, match="values"):
            VoxelGrid(np.zeros(3), SIGMA / 2, np.ones(shape))


class TestProfiles:
    def test_step_factor_closed_form(self):
        got = edge_layer_factor(EdgeProfile.step(), SIGMA)
        assert got == pytest.approx(1.0 / (2 * math.sqrt(math.pi) * SIGMA), rel=1e-10)
        assert got == pytest.approx(2.8209e6, rel=1e-4)

    def test_ramp_below_step_and_converging(self):
        step = edge_layer_factor(EdgeProfile.step(), SIGMA)
        ramp = edge_layer_factor(EdgeProfile.linear_ramp(SIGMA), SIGMA)
        assert ramp < step
        narrow = edge_layer_factor(EdgeProfile.linear_ramp(SIGMA / 100), SIGMA)
        assert narrow == pytest.approx(step, rel=1e-3)
        assert narrow < step

    def test_ramp_smoothed_against_quadrature(self):
        # independent 1-D convolution oracle for the ramp profile
        w = SIGMA
        profile = EdgeProfile.linear_ramp(w)

        def brute(h):
            g = lambda t: (math.exp(-0.5 * ((h - t) / SIGMA) ** 2)
                           / (SIGMA * math.sqrt(2 * math.pi)))
            ramp, _ = quad(lambda t: g(t) * (0.5 - t / w), -w / 2, w / 2)
            plateau, _ = quad(g, -12 * SIGMA, -w / 2)
            return ramp + plateau

        hs = np.array([-2.0, -0.5, 0.0, 0.3, 1.5]) * SIGMA
        got = profile.smoothed(hs, SIGMA)
        expected = [brute(h) for h in hs]
        assert np.allclose(got, expected, rtol=1e-9)

    def test_ramp_midpoint_and_width(self):
        profile = EdgeProfile.linear_ramp(SIGMA)
        assert profile.smoothed(0.0, SIGMA) == pytest.approx(0.5, rel=1e-12)
        # softer descent than the bare step at one sigma outside
        step_val = EdgeProfile.step().smoothed(SIGMA, SIGMA)
        assert profile.smoothed(SIGMA, SIGMA) > step_val

    def test_ramp_rasterization_on_box_face(self):
        L = 20 * SIGMA
        profile = EdgeProfile.linear_ramp(SIGMA)
        spec = Box((L, L, L))
        h = np.linspace(-3 * SIGMA, 3 * SIGMA, 13)
        pts = np.zeros((len(h), 3))
        pts[:, 2] = L / 2 + h
        got = smoothed_density(spec, RHO, SIGMA, pts, profile=profile)
        expected = RHO * profile.smoothed(h, SIGMA)
        assert np.allclose(got, expected, rtol=1e-9)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            EdgeProfile(heights=(0.0, 1.0), values=(0.0, 1.0))  # ascending
        with pytest.raises(ValueError):
            EdgeProfile(heights=(0.0,), values=(1.0,))
        with pytest.raises(ValueError):
            EdgeProfile.linear_ramp(-1.0)

    @pytest.mark.parametrize("make", [
        lambda: EdgeProfile(heights=(0.0, 1.0), values=(0.0, 1.0)),
        lambda: EdgeProfile(heights=(0.0,), values=(1.0,)),
        lambda: EdgeProfile(heights=(0.0, 1.0), values=(1.0,)),
        lambda: EdgeProfile(heights=(0.0, 1.0, 2.0), values=(1.0, 0.5, 0.6)),
        lambda: EdgeProfile(heights=(0.0, math.nan), values=(1.0, 0.0)),
        lambda: EdgeProfile.linear_ramp(-1.0),
        lambda: EdgeProfile.linear_ramp(math.inf),
        lambda: edge_layer_factor(EdgeProfile.step(), 0.0),
        lambda: edge_layer_factor(EdgeProfile.step(), -SIGMA),
    ])
    def test_unusable_profile_or_sigma_is_degenerate(self, make):
        with pytest.raises(DegenerateDimension):
            make()

    def test_step_callable(self):
        prof = EdgeProfile.step()
        assert prof(-1.0) == 1.0
        assert prof(1.0) == 0.0

    def test_soft_profile_needs_signed_distance(self):
        spec = Mesh(mesh=box_mesh(1e-6, 1e-6, 1e-6))
        with pytest.raises(UnsupportedShape):
            rasterize_smoothed_density(spec, RHO, SIGMA,
                                       profile=EdgeProfile.linear_ramp(SIGMA))
