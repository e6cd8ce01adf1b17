"""The cone-capped cylinder's closed-form inside test, r <= r(z)."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cslsurf.geometry import ConeCappedCylinder, contains, signed_distance
from cslsurf.geometry.shapes import local_frame
from cslsurf.oracle.voxel import _grid_geometry, supersampled_fraction
from test_properties import PROPERTY_SETTINGS, _direction, _offset, _unit
from test_scanline import pointwise_fraction

SIGMA = 1e-7


def _tilted_cone():
    return ConeCappedCylinder(3 * SIGMA, 4 * SIGMA, math.radians(110), axis=(0.3, -0.5, 0.8),
                              center=(0.2 * SIGMA, 0.1 * SIGMA, -0.3 * SIGMA))


def _world(spec, local):
    return np.asarray(spec.center) + np.asarray(local) @ local_frame(spec).T


def test_fill_never_evaluates_the_signed_distance(monkeypatch):
    spec = _tilted_cone()
    dims, origin = _grid_geometry(spec, SIGMA / 2, SIGMA)

    def no_distance(self, p):
        raise AssertionError("ConeCappedCylinder._sdf called to classify points")

    monkeypatch.setattr(ConeCappedCylinder, "_sdf", no_distance)
    assert contains(spec, np.asarray(spec.center))[0]
    frac = supersampled_fraction(spec, dims, origin, SIGMA / 2)
    assert frac.max() == 1.0 and frac.min() == 0.0


@PROPERTY_SETTINGS
@given(R=_unit, L=_unit, angle=st.floats(0.3, 2.8), axis=_direction, center=_offset,
       seed=st.integers(0, 2**32 - 1))
def test_contains_matches_signed_distance(R, L, angle, axis, center, seed):
    spec = ConeCappedCylinder(R, L, angle, axis=axis, center=center)
    half, top = L / 2.0, L / 2.0 + spec.cone_height
    rng = np.random.default_rng(seed)
    lo = np.array([-R, -R, -top]) * 1.2
    pts = _world(spec, rng.uniform(lo, -lo, size=(2000, 3)))
    d = signed_distance(spec, pts)
    away = np.abs(d) > 1e-9 * top
    assert np.array_equal(contains(spec, pts)[away], d[away] <= 0.0)

    # the seam discs z = +-L/2 lie inside, where the piecewise distance reads 0
    phi = rng.uniform(0.0, 2.0 * np.pi, size=8)
    r = R * rng.uniform(0.0, 0.99, size=8)
    ring = np.stack([r * np.cos(phi), r * np.sin(phi), np.full(8, half)], axis=1)
    seams = _world(spec, np.concatenate([ring, ring * [1.0, 1.0, -1.0]]))
    assert np.all(contains(spec, seams))
    assert np.all(signed_distance(spec, seams) <= 0.0)

    # on the axis, just below and just beyond each apex
    eps = 1e-6
    axis_pts = _world(spec, [[0.0, 0.0, s * top * f]
                             for s in (1.0, -1.0) for f in (1.0 - eps, 1.0 + eps)])
    assert contains(spec, axis_pts).tolist() == [True, False, True, False]
    assert (signed_distance(spec, axis_pts) <= 0.0).tolist() == [True, False, True, False]


def test_fraction_is_mean_of_signed_distance_sign(monkeypatch):
    spec = _tilted_cone()
    spacing = SIGMA / 2
    dims, origin = _grid_geometry(spec, spacing, SIGMA)
    frac = supersampled_fraction(spec, dims, origin, spacing)
    # the same lattice classified by the sign of the signed distance
    monkeypatch.setattr(ConeCappedCylinder, "_inside",
                        lambda self, x, y, z: self._sdf(x, y, z) <= 0.0)
    assert np.array_equal(frac, pointwise_fraction(spec, dims, origin, spacing))
