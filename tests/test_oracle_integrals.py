"""Cross-validation of the surface reduction against brute-force oracles.

The k-space quadrature is checked against independent closed forms
(1-D Gaussian-sine integrals for the box, adaptive radial quadrature for
the sphere); the gradient route is checked against the k-space route;
the decoherence function is checked against the quadratic form and its
saturation value.
"""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cslsurf.csl import CslParams, dephasing_matrix, superposition_dephasing_rate
from cslsurf.errors import (
    DegenerateDimension,
    GridTooLarge,
    QuadratureNotConverged,
    ShiftOutOfGrid,
    SpacingTooCoarse,
)
from cslsurf.geometry import (
    Box,
    Cylinder,
    EllipticCylinder,
    GappedCylinder,
    Mesh,
    Sphere,
    box_mesh,
    local_frame,
    quadrature,
)
from cslsurf.oracle import (
    decoherence_function,
    form_factor,
    gradient_outer_integral,
    kspace_outer_integral,
    rasterize_smoothed_density,
    surface_formula_outer_integral,
)
from cslsurf.oracle import integrals, voxel
from cslsurf.oracle.voxel import VoxelGrid
from cslsurf.tensors import surface_tensor

SIGMA = 1e-7
RHO = 1800.0
PARAMS = CslParams()


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))


class TestGradientIntegral:
    def test_uniform_field_gives_zero(self):
        grid = VoxelGrid(origin=np.zeros(3), spacing=SIGMA / 2,
                         values=np.full((24, 24, 24), 3.7))
        assert np.linalg.norm(gradient_outer_integral(grid)) == 0.0

    def test_box_off_diagonals_vanish(self):
        grid = rasterize_smoothed_density(Box((12e-7, 16e-7, 8e-7)), RHO, SIGMA)
        K = gradient_outer_integral(grid)
        off = K - np.diag(np.diag(K))
        assert np.max(np.abs(off)) < 1e-6 * np.trace(K)

    def test_refinement_already_converged_at_half_sigma(self):
        spec = Sphere(8 * SIGMA)
        k_half = gradient_outer_integral(
            rasterize_smoothed_density(spec, RHO, SIGMA, spacing=SIGMA / 2))
        k_quarter = gradient_outer_integral(
            rasterize_smoothed_density(spec, RHO, SIGMA, spacing=SIGMA / 4))
        change = rel_err(k_half, k_quarter)
        assert change < 5e-3
        assert change < 1e-6


class TestKspaceIntegral:
    def test_sphere_against_radial_quadrature(self):
        R = 6 * SIGMA
        K = kspace_outer_integral(Sphere(R), RHO, SIGMA)

        def integrand(k):
            mu = 4 * math.pi * RHO * (math.sin(k * R) - k * R * math.cos(k * R)) / k**3
            return k**4 * math.exp(-(k * SIGMA) ** 2) * mu**2

        radial, _ = quad(integrand, 1e-3 / SIGMA, 10.0 / SIGMA, limit=400)
        small, _ = quad(integrand, 0.0, 1e-3 / SIGMA, limit=50)
        expected = (4 * math.pi / 3) * (radial + small)
        assert K[0, 0] == pytest.approx(expected, rel=1e-5, abs=0)
        assert rel_err(K, K[0, 0] * np.eye(3)) < 1e-8

    def test_box_against_separable_closed_form(self):
        a, b, c = 14 * SIGMA, 10 * SIGMA, 8 * SIGMA
        K = kspace_outer_integral(Box((a, b, c)), RHO, SIGMA)

        def smear(L):   # int exp(-s^2 u^2) 4 sin^2(uL/2) du
            return 2 * math.sqrt(math.pi) / SIGMA * (1 - math.exp(-L**2 / (4 * SIGMA**2)))

        def spread(L):  # int exp(-s^2 u^2) 4 sin^2(uL/2) / u^2 du
            return 2 * (math.pi * L * math.erf(L / (2 * SIGMA))
                        + 2 * SIGMA * math.sqrt(math.pi)
                        * (math.exp(-L**2 / (4 * SIGMA**2)) - 1))

        expected = RHO**2 * np.diag([
            smear(a) * spread(b) * spread(c),
            spread(a) * smear(b) * spread(c),
            spread(a) * spread(b) * smear(c),
        ])
        # closed form on the body-frame rule: equal to rounding
        assert np.allclose(K, expected, rtol=1e-13, atol=0)

    def test_cylinder_against_gradient(self):
        spec = Cylinder(6 * SIGMA, 14 * SIGMA, axis="z")
        K = kspace_outer_integral(spec, RHO, SIGMA)
        Kg = gradient_outer_integral(rasterize_smoothed_density(spec, RHO, SIGMA))
        assert rel_err(K, Kg) < 1e-3

    def test_rotated_cylinder_covariant(self):
        K_z = kspace_outer_integral(Cylinder(5 * SIGMA, 12 * SIGMA, axis="z"), RHO, SIGMA)
        K_x = kspace_outer_integral(Cylinder(5 * SIGMA, 12 * SIGMA, axis="x"), RHO, SIGMA)
        assert K_x[0, 0] == pytest.approx(K_z[2, 2], rel=1e-6, abs=0)
        assert K_x[1, 1] == pytest.approx(K_z[0, 0], rel=1e-6, abs=0)

    def test_shell_composite_form_factor(self):
        spec = Sphere(12 * SIGMA, cavities=(Sphere(6 * SIGMA),))
        K = kspace_outer_integral(spec, RHO, SIGMA)
        Kg = gradient_outer_integral(rasterize_smoothed_density(spec, RHO, SIGMA))
        assert rel_err(K, Kg) < 1e-3

    def test_wide_kernel_limit(self):
        # sigma >> R: |mu_k|^2 -> M^2 and the integral is a pure Gaussian moment
        R = 0.05 * SIGMA
        M = RHO * 4 * math.pi * R**3 / 3
        K = kspace_outer_integral(Sphere(R), RHO, SIGMA)
        expected = M**2 * math.pi**1.5 / (2 * SIGMA**5)
        assert K[0, 0] == pytest.approx(expected, rel=5e-3, abs=0)

    def test_fft_fallback_against_analytic_box(self):
        # side incommensurate with the voxel pitch, as for a generic mesh
        L = 8.3 * SIGMA
        analytic = kspace_outer_integral(Box((L, L, L)), RHO, SIGMA)
        assert form_factor(Mesh(mesh=box_mesh(L, L, L))) is None
        fallback = kspace_outer_integral(Mesh(mesh=box_mesh(L, L, L)), RHO, SIGMA)
        assert rel_err(fallback, analytic) < 0.025

    def test_fft_fallback_voxel_cap(self):
        spec = Mesh(mesh=box_mesh(8.3 * SIGMA, 8.3 * SIGMA, 8.3 * SIGMA))
        with pytest.raises(GridTooLarge):
            kspace_outer_integral(spec, RHO, SIGMA, _raster=rasterize_smoothed_density(
                spec, RHO, SIGMA, max_voxels=1000))

    @pytest.mark.parametrize("spacing", [0.75, 1.0, 2.0])
    def test_fft_fallback_spacing_cap(self, spacing):
        # coarser than sigma/2 the DFT route was 4.5-59% off, silently
        spec = Mesh(mesh=box_mesh(8 * SIGMA, 8 * SIGMA, 8 * SIGMA))
        with pytest.raises(SpacingTooCoarse):
            kspace_outer_integral(spec, RHO, SIGMA, _raster=rasterize_smoothed_density(
                spec, RHO, SIGMA, spacing=spacing * SIGMA))

    @pytest.mark.parametrize("density, spacing", [
        (RHO, 0.0), (RHO, -0.25), (RHO, math.nan), (0.0, None), (-RHO, None),
    ])
    def test_fft_fallback_rejects_bad_grid_arguments(self, density, spacing):
        spec = Mesh(mesh=box_mesh(8 * SIGMA, 8 * SIGMA, 8 * SIGMA))
        spacing = None if spacing is None else spacing * SIGMA
        with pytest.raises(DegenerateDimension):
            kspace_outer_integral(spec, density, SIGMA, _raster=rasterize_smoothed_density(
                spec, density, SIGMA, spacing=spacing))

    @pytest.mark.parametrize("density, sigma", [
        (RHO, -SIGMA), (RHO, 0.0), (RHO, math.nan), (RHO, math.inf),
        (0.0, SIGMA), (-RHO, SIGMA), (math.nan, SIGMA), (math.inf, SIGMA),
    ])
    def test_analytic_ladder_rejects_bad_density_or_sigma(self, density, sigma):
        # the ladder used to return a negative-trace tensor for sigma < 0,
        # zero for density 0, and ZeroDivisionError for sigma = 0
        with pytest.raises(DegenerateDimension):
            kspace_outer_integral(Sphere(5 * SIGMA), density, sigma)

    @pytest.mark.parametrize("spec", [
        # a box is closed form; its cavity keeps it on the spherical ladder
        Box((400 * SIGMA, 6 * SIGMA, 6 * SIGMA), cavities=(Sphere(2 * SIGMA),)),
        Cylinder(400 * SIGMA, 6 * SIGMA),
    ], ids=["ladder", "body_frame"])
    def test_non_convergence_raises(self, monkeypatch, spec):
        monkeypatch.setattr(integrals, "MAX_RADIAL_NODES", 128)
        with pytest.raises(QuadratureNotConverged):
            kspace_outer_integral(spec, RHO, SIGMA)

    @pytest.mark.parametrize("nodes", [1, 127])
    def test_closed_form_box_returns_at_any_budget(self, monkeypatch, nodes):
        box = Box((4 * SIGMA, 5 * SIGMA, 6 * SIGMA))
        expected = kspace_outer_integral(box, RHO, SIGMA)
        monkeypatch.setattr(integrals, "MAX_RADIAL_NODES", nodes)
        assert np.array_equal(kspace_outer_integral(box, RHO, SIGMA), expected)

    @pytest.mark.parametrize("spec", [
        Cylinder(4 * SIGMA, 8 * SIGMA),
        Box((8 * SIGMA,) * 3, cavities=(Sphere(SIGMA),)),
    ], ids=["body_frame", "ladder"])
    def test_refinement_needs_two_rungs_within_the_budget(self, monkeypatch, spec):
        # rungs of 128 and 256 radial nodes settle these bodies; a budget
        # with room for one rung or none raises
        for nodes in (1, 127, 128):
            monkeypatch.setattr(integrals, "MAX_RADIAL_NODES", nodes)
            with pytest.raises(QuadratureNotConverged):
                kspace_outer_integral(spec, RHO, SIGMA)
        monkeypatch.setattr(integrals, "MAX_RADIAL_NODES", 256)
        assert np.all(np.isfinite(kspace_outer_integral(spec, RHO, SIGMA)))

    def test_ladder_refines_up_to_the_whole_budget(self, monkeypatch):
        # the ladder used to stop at its sixth rung, 4096 radial nodes,
        # whatever the budget, and its error named the budget as used
        radial = []

        def unsettled(mu, density, sigma, n_r, n_t, n_p):
            radial.append(n_r)
            return float(len(radial)) ** 3 * np.eye(3)

        monkeypatch.setattr(integrals, "_kspace_quadrature", unsettled)
        offset = Sphere(6 * SIGMA, cavities=(Sphere(2 * SIGMA, center=(SIGMA, 0, 0)),))
        monkeypatch.setattr(integrals, "MAX_RADIAL_NODES", 8192)
        with pytest.raises(QuadratureNotConverged, match="up to 8192 radial nodes"):
            kspace_outer_integral(offset, RHO, SIGMA)
        assert radial == [128 << i for i in range(7)]
        radial.clear()
        monkeypatch.setattr(integrals, "MAX_RADIAL_NODES", 1000)
        with pytest.raises(QuadratureNotConverged, match="up to 512 radial nodes"):
            kspace_outer_integral(offset, RHO, SIGMA)
        assert radial == [128, 256, 512]

    def test_rungs_grow_the_ladder_angles_with_the_radial_nodes(self, monkeypatch):
        monkeypatch.setattr(integrals, "MAX_RADIAL_NODES", 8192)
        assert list(integrals._rungs()) == [
            (128, 16, 32), (256, 24, 48), (512, 32, 64), (1024, 48, 96),
            (2048, 64, 128), (4096, 96, 192), (8192, 128, 256)]
        monkeypatch.setattr(integrals, "MAX_RADIAL_NODES", 127)
        assert list(integrals._rungs()) == []

    @pytest.mark.parametrize("a, b", [(1e-160, 1.0), (1.0, 1e-160)])
    def test_elliptic_aspect_whose_stretch_overflows_raises(self, a, b):
        # the squared axis ratio overflows the body-frame rule's angular
        # weights: a typed error, never a bare OverflowError
        spec = EllipticCylinder(a * SIGMA, b * SIGMA, SIGMA)
        with pytest.raises(DegenerateDimension, match="not finite"):
            kspace_outer_integral(spec, RHO, SIGMA)

    def test_x_axis_rod_converges(self):
        # the spherical ladder did not resolve the rod's narrow form factor in
        # six rungs; the body-frame rule converges on its radial nodes alone
        rod = Cylinder(20 * SIGMA, 80 * SIGMA, axis="x")
        K = kspace_outer_integral(rod, RHO, SIGMA)
        surf = surface_formula_outer_integral(surface_tensor(quadrature(rod)), RHO, SIGMA)
        # the caps' edge term, -2 sigma / (sqrt(pi) R)
        assert K[0, 0] / surf[0, 0] - 1 == pytest.approx(-0.05638, abs=1e-4)
        assert np.count_nonzero(K - np.diag(np.diag(K))) == 0

    @pytest.mark.parametrize("spec, ladder", [
        (Sphere(6 * SIGMA, cavities=(Sphere(2 * SIGMA),)), False),
        (Sphere(6 * SIGMA, cavities=(Sphere(2 * SIGMA, center=(SIGMA, 0, 0)),)), True),
        (Sphere(6 * SIGMA, cavities=(Box((SIGMA,) * 3),)), True),
        (Cylinder(4 * SIGMA, 8 * SIGMA, cavities=(Sphere(2 * SIGMA),)), True),
        (EllipticCylinder(4 * SIGMA, 3 * SIGMA, 8 * SIGMA), False),
        (Box((4 * SIGMA, 5 * SIGMA, 6 * SIGMA)), False),
        (Cylinder(4 * SIGMA, 8 * SIGMA, axis=(1.0, 2.0, 3.0)), False),
        (Box((8 * SIGMA,) * 3, cavities=(Sphere(SIGMA),)), True),
        (GappedCylinder(4 * SIGMA, 12 * SIGMA, 2, SIGMA, axis=(1.0, 2.0, 3.0)), False),
    ], ids=["shell", "offset_cavity", "box_cavity", "cylinder_cavity", "elliptic", "box",
            "tilted_cylinder", "box_with_cavity", "gapped"])
    def test_which_bodies_climb_the_ladder(self, monkeypatch, spec, ladder):
        rungs = []
        quadrature_rung = integrals._kspace_quadrature

        def counted(*args):
            rungs.append(args[3:])
            return quadrature_rung(*args)

        monkeypatch.setattr(integrals, "_kspace_quadrature", counted)
        kspace_outer_integral(spec, RHO, SIGMA)
        assert bool(rungs) == ladder

    def test_concentric_shell_matches_the_ladder(self):
        c = (SIGMA, 0.0, 0.0)
        spec = Sphere(12 * SIGMA, center=c, cavities=(Sphere(6 * SIGMA, center=c),))
        rung = list(integrals._rungs())[2]
        ladder = integrals._kspace_quadrature(form_factor(spec), RHO, SIGMA, *rung)
        K = kspace_outer_integral(spec, RHO, SIGMA)
        assert rel_err(K, ladder) < 1e-10
        assert np.array_equal(K, K[0, 0] * np.eye(3))

    @pytest.mark.parametrize("spec", [
        Sphere(3 * SIGMA),
        Sphere(3 * SIGMA, cavities=(Sphere(SIGMA, center=(SIGMA, 0, 0)),)),
    ], ids=["body_frame", "ladder"])
    def test_ladder_converges_at_a_density_whose_tensor_norm_overflows(self, spec):
        # the Frobenius norm of a tensor with entries past ~1e154 overflows;
        # the ladder used to run all six rungs and raise QuadratureNotConverged.
        # Both rules take the same overflow-safe test
        K = kspace_outer_integral(spec, 1e100, SIGMA)
        assert np.all(np.isfinite(K))
        assert rel_err(K / 1e200, kspace_outer_integral(spec, 1.0, SIGMA)) < 1e-13


_sides = st.floats(3.0, 12.0).map(lambda s: s * SIGMA)
_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@st.composite
def bare_solids(draw):
    """A bare box, cylinder, elliptic or gapped cylinder or sphere of 3-12
    sigma with a random axis, and the same solid along +z (a box: its
    sides turned by a cyclic permutation of the axes)."""
    kind = draw(st.sampled_from(["box", "cylinder", "elliptic", "sphere", "gapped"]))
    a, b, c = draw(_sides), draw(_sides), draw(_sides)
    axis = draw(_axes)
    if kind == "box":
        return Box((a, b, c)), Box((b, c, a))
    if kind == "sphere":
        return Sphere(a), Sphere(a)
    if kind == "cylinder":
        return Cylinder(a, b, axis=axis), Cylinder(a, b)
    if kind == "gapped":
        gaps = draw(st.integers(1, 3))
        return (GappedCylinder(a, b, gaps, 0.5 * b / (gaps + 1), axis=axis),
                GappedCylinder(a, b, gaps, 0.5 * b / (gaps + 1)))
    return EllipticCylinder(a, b, c, axis=axis), EllipticCylinder(a, b, c)


#: the ladder's fourth rung, converged to some 1e-9 on these bodies
_CONVERGED_RUNG = list(integrals._rungs())[3]


@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(bare_solids())
@example((EllipticCylinder(12 * SIGMA, 3 * SIGMA, 5 * SIGMA, axis=(0.3, 1.0, 1.0)),
          EllipticCylinder(12 * SIGMA, 3 * SIGMA, 5 * SIGMA)))
@example((EllipticCylinder(3 * SIGMA, 12 * SIGMA, 5 * SIGMA, axis=(1.0, -0.2, 0.4)),
          EllipticCylinder(3 * SIGMA, 12 * SIGMA, 5 * SIGMA)))
@example((Cylinder(12 * SIGMA, 3 * SIGMA, axis=(1.0, 1.0, 0.3)), Cylinder(12 * SIGMA, 3 * SIGMA)))
@example((Sphere(12 * SIGMA), Sphere(12 * SIGMA)))
@example((GappedCylinder(6 * SIGMA, 12 * SIGMA, 3, SIGMA, axis=(1.0, -0.5, 0.2)),
          GappedCylinder(6 * SIGMA, 12 * SIGMA, 3, SIGMA)))
def test_body_frame_rule_matches_the_ladder_and_turns_with_the_body(solids):
    spec, along_z = solids
    K = kspace_outer_integral(spec, RHO, SIGMA)
    ladder = integrals._kspace_quadrature(form_factor(spec), RHO, SIGMA, *_CONVERGED_RUNG)
    assert rel_err(K, ladder) < 1e-5
    # along_z's local axis i is spec's axis i - 1 for a box, and its axis
    # becomes spec's through spec's frame otherwise
    F = np.eye(3)[:, [1, 2, 0]] if isinstance(spec, Box) else local_frame(spec)
    expected = F @ kspace_outer_integral(along_z, RHO, SIGMA) @ F.T
    assert rel_err(K, expected) < 1e-13


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(gaps=st.integers(1, 3), width=st.floats(0.2, 3.0), axis=_axes,
       radius=st.floats(2.0, 6.0), length=st.floats(8.0, 20.0))
def test_gapped_cylinder_body_frame_rule_is_the_gradient_integral(gaps, width, axis, radius,
                                                                   length):
    # the axial factors are pair sums over the segments; the closed-form
    # raster's spectral gradient integral is the same integral, exact but
    # for aliasing far below 1e-10 at sigma / 2
    assume(gaps * width < 0.8 * length)
    spec = GappedCylinder(radius * SIGMA, length * SIGMA, gaps, width * SIGMA, axis=axis)
    K = kspace_outer_integral(spec, RHO, SIGMA)
    Kg = gradient_outer_integral(rasterize_smoothed_density(spec, RHO, SIGMA))
    assert rel_err(K, Kg) < 1e-10


def test_far_body_on_the_ladder_keeps_its_tensor():
    # the ladder takes the form-factor phases about the host's center;
    # taken about the world origin, they lose their precision at 1e9 m
    # and the ladder does not converge
    def body(x):
        return Sphere(20 * SIGMA, center=(x, 0.0, 0.0),
                      cavities=(Sphere(8 * SIGMA, center=(x, 6 * SIGMA, 0.0)),))

    near = kspace_outer_integral(body(0.0), RHO, SIGMA)
    assert rel_err(kspace_outer_integral(body(1e9), RHO, SIGMA), near) < 1e-9


class TestSurfaceFormula:
    def test_definition(self):
        S = np.diag([1.0, 2.0, 3.0])
        out = surface_formula_outer_integral(S, RHO, SIGMA)
        scale = (2 * math.pi) ** 3 * RHO**2 / (2 * math.sqrt(math.pi) * SIGMA)
        assert np.array_equal(out, scale * S)

    def test_surface_effect_sharpens_with_size(self):
        devs = []
        for n in (5, 10, 20):
            spec = Sphere(n * SIGMA)
            surf = surface_formula_outer_integral(
                surface_tensor(quadrature(spec, resolution=16)), RHO, SIGMA)
            grad = gradient_outer_integral(
                rasterize_smoothed_density(spec, RHO, SIGMA))
            devs.append(rel_err(surf, grad))
        assert devs[0] > devs[1] > devs[2]
        # curvature correction is 2 (sigma/R)^2
        assert devs[2] == pytest.approx(2.0 / 400.0, rel=0.1)


class TestDecoherenceFunction:
    def setup_method(self):
        self.spec = Sphere(10 * SIGMA)
        self.grid = rasterize_smoothed_density(self.spec, RHO, SIGMA)
        self.S = surface_tensor(quadrature(self.spec, resolution=16))

    def test_zero_delta(self):
        assert decoherence_function(self.grid, np.zeros(3), PARAMS) == 0.0

    def test_symmetry(self):
        d = np.array([0.3 * SIGMA, -0.2 * SIGMA, 0.15 * SIGMA])
        a = decoherence_function(self.grid, d, PARAMS)
        b = decoherence_function(self.grid, -d, PARAMS)
        assert b == pytest.approx(a, rel=1e-10, abs=0)

    def test_quadratic_regime_against_dephasing_matrix(self):
        dm = dephasing_matrix(self.S, RHO, PARAMS)
        d = np.array([0.1 * SIGMA, 0.0, 0.0])
        exact = decoherence_function(self.grid, d, PARAMS)
        quad_form = superposition_dephasing_rate(dm, d)
        # dominated by the 2 (sigma/R)^2 curvature deficit at R = 10 sigma
        assert exact == pytest.approx(quad_form, rel=0.03, abs=0)
        assert exact < quad_form

    def test_monotone_up_to_saturation(self):
        grid = rasterize_smoothed_density(Sphere(6 * SIGMA), RHO, SIGMA,
                                          padding=16 * SIGMA)
        values = [decoherence_function(grid, np.array([x * SIGMA, 0, 0]), PARAMS)
                  for x in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_box(self):
        grid = rasterize_smoothed_density(Box((8 * SIGMA,) * 3), RHO, SIGMA,
                                          padding=14 * SIGMA)
        values = [decoherence_function(grid, np.array([0, x * SIGMA, 0]), PARAMS)
                  for x in (0.5, 1.0, 2.0, 5.0, 9.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_saturation_value(self):
        grid = rasterize_smoothed_density(Sphere(4 * SIGMA), RHO, SIGMA,
                                          padding=20 * SIGMA)
        pref = (PARAMS.collapse_rate * PARAMS.localization_length**3
                / (math.pi**1.5 * PARAMS.nucleon_mass**2))
        f_sat = pref * (2 * math.pi) ** 3 * grid.cell_volume() * np.sum(grid.values**2)
        for x in (14.0, 16.0, 18.0):
            f = decoherence_function(grid, np.array([x * SIGMA, 0, 0]), PARAMS)
            assert f == pytest.approx(f_sat, rel=5e-3, abs=0)

    def test_shift_out_of_grid(self):
        with pytest.raises(ShiftOutOfGrid):
            decoherence_function(self.grid, np.array([10e-7, 0, 0]), PARAMS)

    def test_bad_delta_shape(self):
        with pytest.raises(ValueError):
            decoherence_function(self.grid, np.zeros(2), PARAMS)

    @pytest.mark.parametrize("delta", [np.zeros(2), np.zeros((3, 1)), 0.0,
                                       [np.nan, 0.0, 0.0], [0.0, 0.0, -np.nan]])
    def test_unusable_delta_is_degenerate(self, delta):
        with pytest.raises(DegenerateDimension, match="delta"):
            decoherence_function(self.grid, delta, PARAMS)

    @pytest.mark.parametrize("delta", [[1e-8j, 0.0, 0.0], np.array([0.0, 1e-8 + 0j, 0.0]),
                                       "abc", ["1e-8", "0", "0"], [None, 0.0, 0.0],
                                       [[0.0, 0.0], [0.0]], [True, False, True]])
    def test_delta_that_is_not_real_numbers_is_degenerate(self, delta):
        with pytest.raises(DegenerateDimension, match="delta"):
            decoherence_function(self.grid, delta, PARAMS)

    @pytest.mark.parametrize("margin", [None, 0.0])
    def test_infinite_delta_leaves_the_grid(self, margin):
        grid = self.grid if margin is None else VoxelGrid(
            self.grid.origin, self.grid.spacing, self.grid.values, margin=margin)
        with pytest.raises(ShiftOutOfGrid):
            decoherence_function(grid, [0.0, -np.inf, 0.0], PARAMS)

    def test_small_shift_limit_of_gradient_integral(self):
        # both sum the same spectrum: 1 - cos(k . delta) <= (k . delta)^2 / 2
        grid = rasterize_smoothed_density(Box((8 * SIGMA, 10 * SIGMA, 6 * SIGMA)), RHO, SIGMA)
        d = 0.01 * SIGMA * np.array([1.0, -2.0, 2.0]) / 3.0
        pref = (PARAMS.collapse_rate * PARAMS.localization_length**3
                / (math.pi**1.5 * PARAMS.nucleon_mass**2))
        quad_form = 0.5 * pref * d @ gradient_outer_integral(grid) @ d
        exact = decoherence_function(grid, d, PARAMS)
        assert exact <= quad_form
        assert exact == pytest.approx(quad_form, rel=1e-4, abs=0)


@pytest.fixture(scope="module")
def shift_grids():
    box = Box((8 * SIGMA, 10 * SIGMA, 6 * SIGMA), center=(3 * SIGMA, -2 * SIGMA, SIGMA))
    return {"sphere": rasterize_smoothed_density(Sphere(10 * SIGMA), RHO, SIGMA),
            "offset_box": rasterize_smoothed_density(box, RHO, SIGMA)}


def _zero_filled_shift(values, n):
    """values at r + n h on the same lattice, zero where r + n h leaves the grid."""
    out = np.zeros_like(values)
    out[tuple(slice(max(-k, 0), m - max(k, 0)) for k, m in zip(n, values.shape))] = \
        values[tuple(slice(max(k, 0), m - max(-k, 0)) for k, m in zip(n, values.shape))]
    return out


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(body=st.sampled_from(["sphere", "offset_box"]),
       n=st.tuples(*[st.integers(-7, 7)] * 3))
def test_integer_shifts_match_the_zero_filled_shift(shift_grids, body, n):
    # the real-space reference of the spectral phase ramp: a shift by whole
    # cells moves the grid's own values, and the 12-cell margin holds only
    # the field's Gaussian tail, so the periodic and zero-filled shifts agree
    grid = shift_grids[body]
    h, v = grid.spacing, grid.values
    delta = np.asarray(n) * h
    assume(np.linalg.norm(delta) <= grid.margin)
    pref = (PARAMS.collapse_rate * PARAMS.localization_length**3
            / (math.pi**1.5 * PARAMS.nucleon_mass**2))
    want = pref * (2 * math.pi) ** 3 * h**3 * np.sum(v * (v - _zero_filled_shift(v, n)))
    assert decoherence_function(grid, delta, PARAMS) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_grid_values_that_are_not_finite_raise(bad):
    # 1e300 is finite, but its power overflows
    values = np.zeros((8, 9, 10))
    values[3, 4, 5], values[1, 2, 3] = RHO, bad
    grid = VoxelGrid(np.zeros(3), SIGMA / 2, values, margin=2 * SIGMA)
    delta = [0.1 * SIGMA, 0.0, 0.0]
    calls = [lambda: gradient_outer_integral(grid),
             lambda: decoherence_function(grid, delta, PARAMS)]
    for call in calls:
        with pytest.raises(DegenerateDimension, match="not finite"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_grid_values_that_are_not_finite_raise_in_halves(bad, monkeypatch):
    # split in halves, as from 2^20 values on: the pool's thread takes the
    # caller's floating-point error handling
    monkeypatch.setattr(voxel, "_PARALLEL_SIZE", 1)
    test_grid_values_that_are_not_finite_raise(bad)


def test_one_fft_per_oracle_call(monkeypatch):
    # one transform per grid, whatever the number of oracle calls on it; the
    # per-grid FFT counts of the benchmark tracer read scipy.fft.rfftn calls
    A, B, C = (rasterize_smoothed_density(Sphere(r * SIGMA), RHO, SIGMA) for r in (4, 3, 2))
    L = 4.3 * SIGMA
    calls = []
    rfftn = scipy.fft.rfftn

    def counted(*args, **kwargs):
        calls.append(1)
        return rfftn(*args, **kwargs)

    def decohere(grid, x=0.3):
        return decoherence_function(grid, np.array([x * SIGMA, 0, 0]), PARAMS)

    monkeypatch.setattr(scipy.fft, "rfftn", counted)
    gradient_outer_integral(A)
    for x in (0.01, 0.3, 2.0):
        decohere(A, x)
    assert len(calls) == 1
    # A, B, A, B: both spectra are held
    for grid in (B, A, B):
        decohere(grid)
    assert len(calls) == 2
    # a third grid evicts the least recent one (A), which is then transformed again
    decohere(C)
    decohere(B)
    assert len(calls) == 3
    decohere(A)
    assert len(calls) == 4
    # a standalone DFT route filters its own raster (one transform) and
    # takes that raster's spectrum (one more)
    for expected in (6, 8):
        kspace_outer_integral(Mesh(mesh=box_mesh(L, L, L)), RHO, SIGMA)
        assert len(calls) == expected


@pytest.mark.parametrize("spec", [Sphere(3 * SIGMA), Mesh(mesh=box_mesh(*(8 * SIGMA,) * 3))],
                         ids=["ladder", "dft"])
def test_kspace_density_whose_square_overflows_raises(spec):
    # the ladder raised a bare OverflowError and the DFT route returned NaN
    with pytest.raises(DegenerateDimension, match="density"):
        kspace_outer_integral(spec, 1e300, SIGMA)


def test_kspace_dft_overflow_raises():
    # density^2 is finite, but the indicator's power spectrum overflows
    spec = Mesh(mesh=box_mesh(*(8 * SIGMA,) * 3))
    with pytest.raises(DegenerateDimension, match="not finite"):
        kspace_outer_integral(spec, 1e153, SIGMA)


@pytest.mark.parametrize("density, sigma", [(1e300, SIGMA), (1e150, SIGMA), (RHO, 0.0)])
def test_surface_formula_rejects_unusable_density_or_sigma(density, sigma):
    # an OverflowError at 1e300, an inf/NaN tensor at 1e150 and a
    # ZeroDivisionError at sigma = 0
    with pytest.raises(DegenerateDimension):
        surface_formula_outer_integral(np.eye(3), density, sigma)
