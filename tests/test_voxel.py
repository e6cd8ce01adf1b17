"""Smoothed-field construction: exact factors, profiles, grid mechanics."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

import cslsurf
from cslsurf.csl import CslParams
from cslsurf.errors import (
    ConfigError,
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
    mass_properties,
)
from cslsurf.oracle import (
    EdgeProfile,
    VoxelGrid,
    decoherence_function,
    edge_layer_factor,
    kspace_outer_integral,
    rasterize_smoothed_density,
    read_grid,
    smoothed_density,
    write_grid,
)
from cslsurf.oracle.integrals import _body_spectrum
from cslsurf.oracle.voxel import _wavenumbers, supersampled_fraction

SIGMA = 1e-7
RHO = 2000.0

FAR_BOX_MESH = Mesh(mesh=box_mesh(8.3 * SIGMA, 8.3 * SIGMA, 8.3 * SIGMA), center=(0.0, 0.0, 1e12))

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

    def test_cone_step_edge_has_no_point_evaluator(self):
        # no closed-form smoothed indicator: a step edge takes the filtered
        # raster, as the elliptic cylinder's does
        spec = ConeCappedCylinder(5 * SIGMA, 10 * SIGMA, math.radians(70),
                                  axis=(0.3, -0.4, 1.0), center=(SIGMA, 0.5 * SIGMA, 0.0))
        with pytest.raises(UnsupportedShape):
            smoothed_density(spec, 1.0, SIGMA, np.zeros((1, 3)))

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

    @pytest.mark.parametrize("build", [
        lambda: rasterize_smoothed_density(Sphere(1e-6), RHO, SIGMA, spacing=1e-300),
        lambda: rasterize_smoothed_density(Sphere(1e-6), RHO, SIGMA, padding=1e300),
        lambda: rasterize_smoothed_density(Sphere(1e-6), RHO, SIGMA, padding=1e308),
        lambda: kspace_outer_integral(Mesh(mesh=box_mesh(1e-6, 1e-6, 1e-6)), RHO, SIGMA,
                                      _spectrum=_body_spectrum(
                                          Mesh(mesh=box_mesh(1e-6, 1e-6, 1e-6)), RHO, SIGMA,
                                          padding=1e300)),
    ], ids=["spacing-1e-300", "padding-1e300", "padding-1e308", "kspace-mesh-padding-1e300"])
    def test_one_axis_past_the_cap_is_too_large(self, build):
        # such an axis used to reach next_fast_len and end in an OverflowError
        with pytest.raises(GridTooLarge, match="alone"):
            build()

    @pytest.mark.parametrize("cap", ["10", 2.5, True, 0, -1, None])
    def test_voxel_cap_that_is_not_a_positive_integer_is_a_config_error(self, cap):
        with pytest.raises(ConfigError, match="max voxels must be (an integer|at least 1)"):
            rasterize_smoothed_density(Sphere(8 * SIGMA), RHO, SIGMA, max_voxels=cap)

    @pytest.mark.parametrize("build", [
        lambda: rasterize_smoothed_density(Sphere(8 * SIGMA, center=(1e9, 0.0, 0.0)), RHO, SIGMA),
        lambda: rasterize_smoothed_density(Sphere(8 * SIGMA, center=(0.0, -150.0, 0.0)),
                                           RHO, SIGMA),
        lambda: rasterize_smoothed_density(FAR_BOX_MESH, RHO, SIGMA),
        lambda: kspace_outer_integral(FAR_BOX_MESH, RHO, SIGMA),
    ], ids=["sphere-1e9", "sphere-150", "box-mesh-1e12", "kspace-box-mesh-1e12"])
    def test_grid_far_from_the_origin_is_degenerate(self, build):
        # at 1e9 m the sphere's grid mass was 0.2% low, at 1e12 m the box
        # mesh's 46% high; past 2.9e9 spacings (146 m at sigma / 2) the
        # coordinates round by more than 1e-6 of the distance from a voxel's
        # center to its corner subsamples
        with pytest.raises(DegenerateDimension, match="from the origin"):
            build()

    def test_grid_short_of_the_far_limit_keeps_its_mass(self):
        spec = Sphere(8 * SIGMA, center=(0.0, -140.0, 0.0))
        grid = rasterize_smoothed_density(spec, RHO, SIGMA)
        mass = grid.values.sum() * grid.cell_volume()
        assert abs(mass / (RHO * 4 / 3 * math.pi * (8 * SIGMA) ** 3) - 1) < 1e-6

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

    def test_cone_capped_interior_is_full_density(self):
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

    def test_non_ascii_header_rejected(self, tmp_path):
        # a UnicodeDecodeError is no CslsurfError
        path = tmp_path / "bad.cslgrid"
        path.write_bytes(b"\xff\xfe garbage\n" + np.zeros(8).tobytes())
        with pytest.raises(ParseError, match="cslgrid 2"):
            read_grid(path)

    def test_header_without_newline_is_not_read_whole(self, tmp_path):
        # 4 MiB with no newline: the header is read to 1 KiB at most, where
        # an unbounded readline held the whole line and its decoded copy
        path = tmp_path / "bad.cslgrid"
        path.write_bytes(b"cslgrid 2 " + b"1" * (4 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="cslgrid 2"):
                read_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
        (SIGMA / 2, [0.0, [1.0, 2.0], 0.0], 0.0), (SIGMA / 2, ["0", "0", "0"], 0.0),
        (SIGMA / 2, np.zeros(3, complex), 0.0),
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

    def test_ramp_smoothed_slope_against_quadrature(self):
        # independent 1-D convolution oracle: g_sigma * dH, dH = -1/w on the ramp
        w = SIGMA
        profile = EdgeProfile.linear_ramp(w)

        def brute(h):
            # in units of sigma, so that quad sees numbers of order one
            g = lambda u: math.exp(-0.5 * (h / SIGMA - u) ** 2) / math.sqrt(2 * math.pi)
            value, _ = quad(g, -w / (2 * SIGMA), w / (2 * SIGMA), epsabs=0.0, epsrel=1e-13)
            return -value / w

        hs = np.array([-2.0, -0.5, 0.0, 0.3, 1.5]) * SIGMA
        got = profile.smoothed_slope(hs, SIGMA)
        expected = [brute(h) for h in hs]
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_ramp_slope_is_shallower_than_the_step_and_integrates_to_minus_one(self):
        ramp, step = EdgeProfile.linear_ramp(SIGMA), EdgeProfile.step()
        peak = 1.0 / (SIGMA * math.sqrt(2 * math.pi))
        assert step.smoothed_slope(0.0, SIGMA) == pytest.approx(-peak, rel=1e-15)
        assert -peak < ramp.smoothed_slope(0.0, SIGMA) < 0.0
        # the profile falls from 1 to 0 across the edge
        total, _ = quad(lambda u: SIGMA * ramp.smoothed_slope(u * SIGMA, SIGMA),
                        -12.0, 12.0, epsabs=0.0, epsrel=1e-13)
        assert total == pytest.approx(-1.0, rel=1e-12)

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
        lambda: EdgeProfile(heights=5, values=5),   # used to raise a bare TypeError
    ])
    def test_unusable_profile_or_sigma_is_degenerate(self, make):
        with pytest.raises(DegenerateDimension):
            make()


# ---------------------------------------------------------------------------
# the filtered raster: the Gaussian applied in the spectrum


def test_filtered_raster_keeps_the_mass():
    # the gain is 1 at k = 0.  The faces +-4.25 sigma of this box lie midway
    # between subsample planes (odd multiples of sigma/16 from its center), so
    # its fill counts the volume exactly; the cone's fill does not, but the
    # raster keeps what it counts
    box = Mesh(mesh=box_mesh(8.5 * SIGMA, 8.5 * SIGMA, 8.5 * SIGMA))
    grid = rasterize_smoothed_density(box, RHO, SIGMA)
    mass = mass_properties(box, RHO).mass
    assert grid.values.sum() * grid.cell_volume() == pytest.approx(mass, rel=1e-12, abs=0)
    cone = ConeCappedCylinder(5 * SIGMA, 8 * SIGMA, math.radians(70), axis=(1.0, 0.5, 0.2))
    grid = rasterize_smoothed_density(cone, RHO, SIGMA)
    frac = supersampled_fraction(cone, grid.dims, grid.origin, grid.spacing)
    assert grid.values.sum() == pytest.approx(RHO * frac.sum(), rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", [
    Mesh(mesh=box_mesh(8.3 * SIGMA, 7.1 * SIGMA, 6.2 * SIGMA), center=(0.1 * SIGMA, 0.0, 0.0)),
    ConeCappedCylinder(6 * SIGMA, 12 * SIGMA, math.radians(60.0), axis="y"),
], ids=["mesh", "cone"])
def test_filtered_raster_matches_the_real_space_filter(spec):
    # the periodic spectral product against the 8-sigma real-space kernel
    # with zeros past the grid, the filter it replaced: the margin keeps the
    # wrapped and the cut tails below 1e-9 rho.  The raster's spectrum is
    # taken back through D, the transform of the 4-point cell average that
    # its filter deconvolves, sin(x) / (4 sin(x / 4)) at x = k h / 2 per axis
    from scipy import ndimage

    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    D = [np.sinc(k * grid.spacing / (2 * np.pi)) / np.sinc(k * grid.spacing / (8 * np.pi))
         for k in _wavenumbers(grid.dims, grid.spacing)]
    spectrum = np.fft.rfftn(grid.values) * D[0][:, None, None] * D[1][:, None] * D[2]
    averaged = np.fft.irfftn(spectrum, s=grid.dims, axes=(0, 1, 2))
    frac = supersampled_fraction(spec, grid.dims, grid.origin, grid.spacing)
    reference = RHO * ndimage.gaussian_filter(frac, SIGMA / grid.spacing, mode="constant",
                                              truncate=8.0)
    assert np.max(np.abs(averaged - reference)) < 1e-9 * RHO


def test_import_leaves_out_scipy_ndimage():
    code = "import sys, cslsurf, cslsurf.cli; sys.exit('scipy.ndimage' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cslsurf.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
