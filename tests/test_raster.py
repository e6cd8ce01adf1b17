"""The closed-form raster evaluates each solid on broadcast local axes.

On a named axis (x, y or z) every local coordinate is one world axis, so
the voxels the raster evaluates must be the point evaluator's values at
the grid points bit for bit, and each 1-D factor is taken once per axis
value, not once per voxel.  A body that is mirror-symmetric about its
grid's centre is evaluated on the low half of each axis, the indices up
to (n - 1) / 2, and every other voxel is its mirror voxel bit for bit;
any other body is evaluated on every voxel, as one full walk of the
planes evaluates it.  On a tilted axis the local coordinates are sums of
products and may round differently from a matrix product.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chndtr, ndtr

from cslsurf.geometry import Box, Cylinder, EllipticCylinder, GappedCylinder, Sphere
from cslsurf.geometry import shapes
from cslsurf.geometry.shapes import local_frame, signed_distance
from cslsurf.oracle import rasterize_smoothed_density, smoothed_density, voxel

SIGMA = 1e-7
RHO = 2000.0
PADDING = 5 * SIGMA   # the least allowed, to keep the grids small

_size = st.floats(1.0, 3.0).map(lambda u: u * SIGMA)
_sub_cell = st.tuples(*[st.floats(-0.5, 0.5)] * 3).map(
    lambda c: tuple(0.5 * SIGMA * u for u in c))


@st.composite
def named_axis_solids(draw):
    kind = draw(st.sampled_from(("sphere", "box", "cylinder", "gapped")))
    axis = draw(st.sampled_from("xyz"))
    center = draw(_sub_cell)
    a, b, c = (draw(_size) for _ in range(3))
    if kind == "sphere":
        spec, inner = Sphere(a, center=center), a
    elif kind == "box":
        spec, inner = Box((a, b, c), center=center), min(a, b, c) / 2
    elif kind == "cylinder":
        spec, inner = Cylinder(a, 2 * b, axis=axis, center=center), min(a, b)
    else:
        # two gaps keep a solid segment at the center
        spec = GappedCylinder(a, 6 * b, 2, b * draw(st.floats(0.2, 0.8)),
                              axis=axis, center=center)
        inner = min(a, spec.segments()[0] / 2)
    mirrored = True
    if draw(st.booleans()):
        # a cavity at the body's center, or one a tenth of a spacing off it
        mirrored = draw(st.booleans())
        at = np.asarray(center) + (0.0 if mirrored else 0.05 * SIGMA) * np.array(
            draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])))
        cavity = Sphere(inner * draw(st.floats(0.2, 0.6)), center=tuple(at))
        spec = replace(spec, cavities=(cavity,))
    return spec, mirrored


def _grid_points(grid):
    X, Y, Z = np.meshgrid(*grid.axes(), indexing="ij")
    return np.stack([X, Y, Z], axis=-1)


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _assert_point_evaluator(spec, grid, mirrored):
    """The voxels the raster evaluates are the point evaluator's at their
    points bit for bit: the low half of each axis, indices up to (n - 1) /
    2, of a mirror-symmetric body, whose every other voxel is its mirror
    voxel bit for bit, and every voxel of any other body."""
    want = smoothed_density(spec, RHO, SIGMA, _grid_points(grid))
    assert voxel._mirrored(spec) == mirrored
    if not mirrored:
        assert np.array_equal(grid.values, want)
        return
    low = tuple(slice(0, (n + 1) // 2) for n in grid.dims)
    assert np.array_equal(grid.values[low], want[low])
    for axis in range(3):
        assert np.array_equal(_bits(grid.values), _bits(np.flip(grid.values, axis)))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(named_axis_solids())
def test_named_axis_grid_is_the_point_evaluator(body):
    spec, mirrored = body
    grid = rasterize_smoothed_density(spec, RHO, SIGMA, padding=PADDING)
    _assert_point_evaluator(spec, grid, mirrored)


TILTED = [
    Cylinder(2 * SIGMA, 5 * SIGMA, axis=(0.3, 0.5, 0.8), center=(0.1 * SIGMA, 0.0, -0.2 * SIGMA)),
    GappedCylinder(2 * SIGMA, 7 * SIGMA, 2, SIGMA, axis=(-0.6, 0.2, 0.7)),
    Cylinder(3 * SIGMA, 6 * SIGMA, axis=(0.1, 0.9, 0.2),
             cavities=(Sphere(SIGMA, center=(0.2 * SIGMA, 0.0, 0.0)),)),
]
# measured: the largest change is 5.7e-16 of the peak density
TILTED_BOUND = 1e-14


@pytest.mark.parametrize("spec", TILTED, ids=["cylinder", "gapped", "cavity"])
def test_tilted_grid_agrees_with_the_matrix_frame(spec):
    grid = rasterize_smoothed_density(spec, RHO, SIGMA, padding=PADDING)
    points = _grid_points(grid)
    want = 0.0
    for sign, solid in ((1.0, spec), *((-1.0, c) for c in spec.cavities)):
        p = (points - np.asarray(solid.center)) @ local_frame(solid)
        want = want + sign * solid._smoothed_unit(p[..., 0], p[..., 1], p[..., 2], SIGMA)
    assert np.max(np.abs(grid.values - RHO * want)) <= TILTED_BOUND * RHO


def _every_plane(spec, grid):
    """The closed-form raster as it was before any body was mirrored: the
    fields of the solids on the broadcast axes of every x-plane."""
    x, y, z = grid.axes()
    solids = (spec, *spec.cavities)
    return np.stack([voxel._density(solids, RHO, SIGMA, np.full((1, 1), xi), y[:, None],
                                    z[None, :]) for xi in x])


ASYMMETRIC = TILTED + [
    Sphere(4 * SIGMA, cavities=(Sphere(SIGMA, center=(SIGMA, 0.5 * SIGMA, 0.0)),)),
    Cylinder(3 * SIGMA, 8 * SIGMA, axis="x", cavities=(Sphere(SIGMA, center=(SIGMA, 0.0, 0.0)),)),
    Box((4 * SIGMA, 5 * SIGMA, 3 * SIGMA), cavities=(Sphere(SIGMA, center=(0.0, 0.0, 5e-4 * SIGMA)),)),
]


@pytest.mark.parametrize("spec", ASYMMETRIC, ids=["tilted-cylinder", "tilted-gapped",
                                                  "tilted-cavity", "sphere-off-center-cavity",
                                                  "x-rod-off-center-cavity",
                                                  "box-cavity-1e-3-spacing-off"])
def test_raster_of_a_body_without_mirror_symmetry_evaluates_every_voxel(spec):
    grid = rasterize_smoothed_density(spec, RHO, SIGMA, padding=PADDING)
    assert not voxel._mirrored(spec)
    assert grid.values.tobytes() == _every_plane(spec, grid).tobytes()


FAR = (3e-3, -2e-3, 1e-3)     # a million sigma from the origin


@pytest.mark.parametrize("spec, mirrored", [
    (Sphere(4 * SIGMA, center=(0.3 * SIGMA, 0.0, 0.1 * SIGMA)), True),
    (Sphere(4 * SIGMA, center=FAR, cavities=(Sphere(2 * SIGMA, center=FAR),)), True),
    (Box((4 * SIGMA, 5 * SIGMA, 3 * SIGMA), center=FAR), True),
    (Cylinder(2 * SIGMA, 6 * SIGMA, axis=(0.0, -1.0, 0.0)), True),
    (GappedCylinder(2 * SIGMA, 9 * SIGMA, 2, SIGMA, axis="x",
                    cavities=(Sphere(0.5 * SIGMA),)), True),
    (Sphere(4 * SIGMA, center=FAR, cavities=(Sphere(2 * SIGMA, center=(
        FAR[0], FAR[1], FAR[2] + 5e-4 * SIGMA)),)), False),
    (Cylinder(2 * SIGMA, 6 * SIGMA, axis=(0.0, 0.6, 0.8)), False),
    (Box((4 * SIGMA, 5 * SIGMA, 3 * SIGMA), cavities=(Cylinder(SIGMA, SIGMA, axis=(1, 1, 0)),)),
     False),
    (EllipticCylinder(2 * SIGMA, 2 * SIGMA, 6 * SIGMA), False),
], ids=["sphere", "far-shell", "far-box", "y-rod", "x-gapped-cavity", "far-shell-cavity-off",
        "tilted-rod", "box-tilted-cavity", "elliptic"])
def test_mirrored_bodies_are_told_by_their_shape(spec, mirrored):
    # every solid a sphere, box, or round or gapped rod on a named axis,
    # centred on the grid's centre to within 4 eps of the largest |coordinate|
    assert voxel._mirrored(spec) == mirrored
    if mirrored:
        grid = rasterize_smoothed_density(spec, RHO, SIGMA, padding=PADDING)
        _assert_point_evaluator(spec, grid, True)


def test_box_erf_factors_come_from_the_axes(monkeypatch):
    seen = []

    def counted(x):
        seen.append(np.size(x))
        return ndtr(x)

    monkeypatch.setattr(shapes, "ndtr", counted)
    grid = rasterize_smoothed_density(Box((3 * SIGMA, 4 * SIGMA, 2 * SIGMA)), RHO, SIGMA)
    nx, ny, nz = grid.dims
    # two erf values per axis value and plane, not six per voxel
    assert sum(seen) <= 2 * nx * (1 + ny + nz) < 6 * nx * ny * nz


# The band.  The ball and disc factors take their closed forms only from 10
# sigma inside to 12 sigma outside their wall; deeper inside they are 1.0,
# farther outside 0, where a convex solid's field is at most ndtr(-12).

FAR_BOUND = ndtr(-12.0)    # 1.8e-33


def _full_ball(d, radius, sigma):
    """The ball factor's closed form on every point, near and far wall."""
    d = np.asarray(d, dtype=float)
    up, um = (d + radius) / sigma, (d - radius) / sigma
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ndtr(-um) - ndtr(-up) + (sigma / d) * (phi(up) - phi(um))
    center = ndtr(radius / sigma) - ndtr(-radius / sigma) - 2.0 * (radius / sigma) * phi(radius / sigma)
    return np.where(d < 1e-9 * sigma, center, out)


def _full_disc(r, radius, sigma):
    """The disc factor's closed form on every point."""
    return chndtr((radius / sigma) ** 2, 2.0, (np.asarray(r, dtype=float) / sigma) ** 2)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([(shapes._ball_factor, _full_ball), (shapes._disc_factor, _full_disc)]),
       st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
def test_round_factors_take_their_closed_form_on_the_band(factors, ratio, shares):
    banded, full = factors
    radius = ratio * SIGMA
    # distances from the axis or center out to 40 sigma past the wall, a
    # few of them on the band's edges, at the center and a subnormal step off it
    t = np.array([u * (radius + 40 * SIGMA) for u in shares]
                 + [0.0, 5e-324, max(radius - 10 * SIGMA, 0.0), radius + 12 * SIGMA])
    got = banded(t, radius, SIGMA)
    with np.errstate(over="ignore"):    # sigma / d of a subnormal d, which the center replaces
        want = full(t, radius, SIGMA)
    far = t > radius + 12 * SIGMA
    assert np.array_equal(got[~far], want[~far])
    assert np.all(got[far] == 0.0) and np.all(want[far] <= FAR_BOUND)
    # deeper inside the full form is 1.0 itself
    assert np.all(want[t < radius - 10 * SIGMA] == 1.0)


def _unbanded(monkeypatch):
    """Make the round factors take their closed form on every point."""
    monkeypatch.setattr(shapes, "_near_wall",
                        lambda t, radius, sigma, closed_form: closed_form(np.asarray(t, float)))
    monkeypatch.setattr(shapes, "_FAR_WALL", math.inf)


_wide = st.floats(2.0, 12.0).map(lambda u: u * SIGMA)


@st.composite
def banded_bodies(draw):
    kind = draw(st.sampled_from(("sphere", "shell", "rod", "tilted", "gapped")))
    center = draw(_sub_cell)
    a, b = draw(_wide), draw(_wide)
    axis = draw(st.sampled_from(["x", "y", "z", (0.3, 0.5, 0.8), (-0.6, 0.2, 0.7)]
                                if kind != "tilted" else [(0.3, 0.5, 0.8), (0.1, 0.9, 0.2)]))
    if kind in ("sphere", "shell"):
        spec, inner = Sphere(a, center=center), a
    elif kind == "gapped":
        spec = GappedCylinder(a, 6 * b, 2, b * draw(st.floats(0.2, 0.8)),
                              axis=axis, center=center)
        inner = min(a, spec.segments()[0] / 2)
    else:
        spec, inner = Cylinder(a, 2 * b, axis=axis, center=center), min(a, b)
    if kind == "shell":
        spec = replace(spec, cavities=(Sphere(inner * draw(st.floats(0.3, 0.95)), center=center),))
    elif draw(st.booleans()):
        # an off-center cavity
        r = inner * draw(st.floats(0.2, 0.4))
        shift = np.asarray(center) + (inner - r) * 0.8 * np.array(draw(st.sampled_from(
            [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.48, -0.6, 0.64)])))
        spec = replace(spec, cavities=(Sphere(r, center=tuple(shift)),))
    return spec


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(banded_bodies())
def test_banded_raster_moves_only_far_outside_a_solid(spec):
    # a wide margin, so that every grid has voxels far outside
    grid = rasterize_smoothed_density(spec, RHO, SIGMA, padding=8 * SIGMA)
    with pytest.MonkeyPatch.context() as mp:
        _unbanded(mp)
        full = rasterize_smoothed_density(spec, RHO, SIGMA, padding=8 * SIGMA).values
    moved = grid.values != full
    points = _grid_points(grid)
    solids = [replace(spec, cavities=()), *spec.cavities]
    far = np.any([signed_distance(solid, points) > 12 * SIGMA for solid in solids], axis=0)
    assert moved.any() and np.all(far[moved])
    # one dropped term of at most ndtr(-12) rho, and the rounding of the value
    eps = np.finfo(float).eps
    assert np.all(np.abs(grid.values - full) <= FAR_BOUND * RHO * (1 + 4 * eps) + 4 * eps * np.abs(full))
    if isinstance(spec, Sphere):
        # more than 12 sigma outside the ball every solid's factor is 0
        assert np.all(grid.values[signed_distance(solids[0], points) > 12 * SIGMA] == 0.0)


def test_x_axis_rod_takes_its_disc_factor_once_per_raster(monkeypatch):
    seen = []

    def counted(*args):
        seen.append(np.size(args[2]))
        return chndtr(*args)

    monkeypatch.setattr(shapes, "chndtr", counted)
    spec = Cylinder(8 * SIGMA, 30 * SIGMA, axis="x", center=(0.1 * SIGMA, -0.2 * SIGMA, 0.0))
    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    nx, ny, nz = grid.dims
    # at most one value per (y, z) line, not one per voxel
    assert 0 < sum(seen) <= ny * nz < nx * ny * nz
    _assert_point_evaluator(spec, grid, True)
