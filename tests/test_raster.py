"""The closed-form raster evaluates each solid on broadcast local axes.

On a named axis (x, y or z) every local coordinate is one world axis, so
the grid must be the point evaluator's values at the grid points bit for
bit, and each 1-D factor is taken once per axis value, not once per voxel.
On a tilted axis the local coordinates are sums of products and may round
differently from a matrix product.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from cslsurf.geometry import Box, Cylinder, GappedCylinder, Sphere
from cslsurf.geometry import shapes
from cslsurf.geometry.shapes import local_frame
from cslsurf.oracle import rasterize_smoothed_density, smoothed_density

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
    if draw(st.booleans()):
        cavity = Sphere(inner * draw(st.floats(0.2, 0.6)), center=center)
        spec = replace(spec, cavities=(cavity,))
    return spec


def _grid_points(grid):
    X, Y, Z = np.meshgrid(*grid.axes(), indexing="ij")
    return np.stack([X, Y, Z], axis=-1)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(named_axis_solids())
def test_named_axis_grid_is_the_point_evaluator(spec):
    grid = rasterize_smoothed_density(spec, RHO, SIGMA, padding=PADDING)
    assert np.array_equal(grid.values, smoothed_density(spec, RHO, SIGMA, _grid_points(grid)))


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
