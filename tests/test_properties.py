"""Property tests over every analytic shape type.

Shapes are drawn with random positive dimensions (aspect ratios up to 4),
a random axis where the type has one, a random center, and optionally one
small spherical cavity at the body's center.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cslsurf.cli import _shape_from_json, _shape_to_json
from cslsurf.geometry import (
    Box,
    ConeCappedCylinder,
    Cylinder,
    EllipticCylinder,
    GappedCylinder,
    Mesh,
    Sphere,
    TriangleMesh,
    bounding_box,
    box_mesh,
    icosphere,
    mass_properties,
    quadrature,
    signed_distance,
)
from cslsurf.geometry.shapes import _counts, _local_axes
from cslsurf.oracle.voxel import supersampled_fraction
from cslsurf.tensors import rotational_surface_tensor, surface_tensor

# a fixed example set keeps the test suite deterministic and near 1.5 s
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None,
                             derandomize=True)

_unit = st.floats(1.0, 4.0)
_scale = st.floats(-7.0, -3.0).map(lambda e: 10.0**e)
_direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)
_offset = st.tuples(*[st.floats(-5.0, 5.0)] * 3)


KINDS = ("sphere", "cylinder", "box", "cone", "elliptic", "gapped")


@st.composite
def analytic_shapes(draw, kinds=KINDS, with_cavity=st.booleans()):
    s = draw(_scale)
    center = tuple(s * c for c in draw(_offset))
    axis = draw(_direction)
    kind = draw(st.sampled_from(kinds))
    d1, d2, d3 = (s * draw(_unit) for _ in range(3))
    if kind == "sphere":
        spec, inner = Sphere(d1, center=center), d1
    elif kind == "cylinder":
        spec, inner = Cylinder(d1, d2, axis=axis, center=center), min(d1, d2 / 2)
    elif kind == "box":
        spec, inner = Box((d1, d2, d3), center=center), min(d1, d2, d3) / 2
    elif kind == "cone":
        angle = draw(st.floats(0.3, 2.8))
        spec = ConeCappedCylinder(d1, d2, angle, axis=axis, center=center)
        inner = min(d1, d2 / 2)
    elif kind == "elliptic":
        spec = EllipticCylinder(d1, d2, d3, axis=axis, center=center)
        inner = min(d1, d2, d3 / 2)
    else:
        # an even gap count keeps a solid segment at the center
        gaps = 2 * draw(st.integers(0, 2))
        width = d2 / (gaps + 1) * draw(st.floats(0.05, 0.5))
        spec = GappedCylinder(d1, d2, gaps, width, axis=axis, center=center)
        seg, _ = spec.segments()
        inner = min(d1, seg / 2)
    if draw(with_cavity):
        cavity = Sphere(inner * draw(st.floats(0.1, 0.5)), center=center)
        spec = replace(spec, cavities=(cavity,))
    return spec


@PROPERTY_SETTINGS
@given(analytic_shapes())
def test_json_round_trip(spec):
    back = _shape_from_json(_shape_to_json(spec))
    assert type(back) is type(spec)
    for f in fields(spec):
        got, want = getattr(back, f.name), getattr(spec, f.name)
        if f.name == "axis":
            assert np.allclose(got, want, rtol=0, atol=1e-15)
        else:
            assert got == want


@PROPERTY_SETTINGS
@given(analytic_shapes())
# this close to -z the local frame needs the guarded 1 + c of rotation_to_z
@example(Cylinder(1e-3, 1e-3, axis=(0.0, 2e-7, -1.0)))
def test_surface_tensor_trace_is_area(spec):
    trace = np.trace(surface_tensor(quadrature(spec)))
    area = mass_properties(spec, 1.0).area
    assert math.isclose(trace, area, rel_tol=1e-10)


@PROPERTY_SETTINGS
@given(analytic_shapes(), st.integers(1, 12))
def test_bounding_box_holds_the_surface(spec, resolution):
    points = quadrature(spec, resolution=resolution).points
    lo, hi = bounding_box(spec)
    tol = 1e-12 * (hi - lo)
    assert np.all(points >= lo - tol) and np.all(points <= hi + tol)


def _moved(spec, R, t):
    """The body after x -> R x + t: the axis turns, a box becomes a turned mesh."""
    def place(c):
        return tuple(R @ np.asarray(c) + t)

    cavities = tuple(replace(c, center=place(c.center)) for c in spec.cavities)
    if isinstance(spec, Box):
        box = box_mesh(*spec.size)
        return Mesh(mesh=TriangleMesh(box.vertices @ R.T, box.faces),
                    center=place(spec.center), cavities=cavities)
    moved = replace(spec, center=place(spec.center), cavities=cavities)
    if hasattr(spec, "axis"):
        moved = replace(moved, axis=tuple(R @ np.asarray(spec.axis)))
    return moved


def _tensors(spec):
    """S, S_rot about the centroid, and the scale area x (largest lever arm)^2."""
    patches = quadrature(spec)
    centroid = mass_properties(spec, 1.0).centroid
    S = surface_tensor(patches)
    arm2 = np.max(np.sum((patches.points - centroid) ** 2, axis=1))
    return S, rotational_surface_tensor(patches, centroid), np.trace(S) * arm2


@PROPERTY_SETTINGS
@given(
    # an elliptic cross-section keeps its in-plane frame from the axis alone,
    # which a rotation about another direction does not carry along
    analytic_shapes().filter(lambda spec: not isinstance(spec, EllipticCylinder)),
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    _offset,
)
# an axis 1e-7 rad from +z, turned a quarter-turn about y: its frame must keep
# the tilt, which a local frame snapped to the exact one loses
@example(Cylinder(1e-3, 1e-3, axis=(0.0, 1e-7, 1.0)), (0.0, 1.0, 0.0, 1.0), (0.0, 0.0, 0.0))
def test_tensors_covariant_under_rigid_motion(spec, quat, offset):
    R = Rotation.from_quat(quat).as_matrix()
    S, S_rot, scale = _tensors(spec)
    t = np.asarray(offset) * math.sqrt(np.trace(S))
    S_moved, S_rot_moved, _ = _tensors(_moved(spec, R, t))
    assert np.allclose(S_moved, R @ S @ R.T, rtol=0, atol=1e-10 * np.trace(S))
    assert np.allclose(S_rot_moved, R @ S_rot @ R.T, rtol=0, atol=1e-10 * scale)


@PROPERTY_SETTINGS
@given(
    st.sampled_from(("box", "icosphere")),
    _scale,
    st.tuples(_unit, _unit, _unit),
    st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
)
def test_mesh_surface_tensor_turns_with_its_vertices(kind, s, dims, quat):
    size = tuple(s * d for d in dims)
    mesh = box_mesh(*size) if kind == "box" else icosphere(size[0], 2)
    R = Rotation.from_quat(quat).as_matrix()
    S = surface_tensor(quadrature(Mesh(mesh=mesh)))
    turned = surface_tensor(quadrature(Mesh(mesh=TriangleMesh(mesh.vertices @ R.T, mesh.faces))))
    tol = 1e-12 * np.trace(S)
    assert np.allclose(turned, R @ S @ R.T, rtol=0, atol=tol)
    if kind == "box":
        assert np.allclose(S, surface_tensor(quadrature(Box(size))), rtol=0, atol=tol)


@pytest.mark.parametrize("kind", KINDS)
@settings(PROPERTY_SETTINGS, max_examples=5)
@given(data=st.data())
def test_cavity_subtracts_exactly(kind, data):
    spec = data.draw(analytic_shapes(kinds=(kind,), with_cavity=st.just(True)))
    host, cavity = replace(spec, cavities=()), spec.cavities[0]
    # 12^3 cells of half the cavity radius: the cavity always covers
    # subsamples, and a large one reaches past the host's boundary
    n, spacing = 12, cavity.radius / 2
    origin = np.asarray(cavity.center) - spacing * (n - 1) / 2

    def count(solid):
        # subsamples inside, per voxel: exact small integers
        return 64 * supersampled_fraction(solid, (n, n, n), origin, spacing)

    assert np.array_equal(count(spec), count(host) - count(cavity))
    volume = mass_properties(spec, 1.0).volume
    parts = mass_properties(host, 1.0).volume - mass_properties(cavity, 1.0).volume
    assert math.isclose(volume, parts, rel_tol=1e-12)


# the solids whose surface is an (r, z) profile polyline swept about their axis
SWEPT_KINDS = ("cylinder", "cone", "elliptic", "gapped")


@PROPERTY_SETTINGS
@given(analytic_shapes(kinds=("cylinder", "gapped", "cone"), with_cavity=st.just(False)),
       st.integers(0, 2**32 - 1))
def test_signed_distance_magnitude_is_the_clearance(spec, seed):
    # the fill's culling distance and the public distance are one number
    lo, hi = bounding_box(spec)
    pad = 0.2 * (hi - lo)
    p = np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(500, 3))
    clearance = spec._clearance(*_local_axes(spec, *p.T))
    assert np.array_equal(np.abs(signed_distance(spec, p)), clearance)


@PROPERTY_SETTINGS
@given(_scale, _unit, _unit, _direction, st.integers(4, 12))
def test_round_elliptic_cylinder_is_the_cylinder(s, r, length, axis, resolution):
    R, L = s * r, s * length
    round_ = quadrature(EllipticCylinder(R, R, L, axis=axis), resolution=resolution)
    circle = quadrature(Cylinder(R, L, axis=axis), resolution=resolution)
    assert len(round_) == len(circle)
    assert np.allclose(round_.points, circle.points, rtol=0, atol=1e-14 * max(R, L))
    assert np.allclose(round_.normals, circle.normals, rtol=0, atol=1e-14)
    assert np.allclose(round_.weights, circle.weights, rtol=0,
                       atol=1e-14 * np.max(circle.weights))


@PROPERTY_SETTINGS
@given(analytic_shapes(kinds=SWEPT_KINDS), st.integers(1, 12))
def test_closed_surface_normals_sum_to_zero(spec, resolution):
    patches = quadrature(spec, resolution=resolution)
    flux = patches.weights @ patches.normals
    assert np.all(np.abs(flux) <= 1e-13 * patches.total_area)


@PROPERTY_SETTINGS
@given(_scale, _unit, _unit, st.floats(0.3, 2.8), st.integers(1, 12))
def test_cone_cap_area_is_pi_r_slant(s, r, length, angle, resolution):
    R = s * r
    spec = ConeCappedCylinder(R, s * length, angle)
    bottom, wall, top = spec._patch_families(_counts(resolution))
    slant = R / math.sin(angle / 2.0)
    for size, build in (bottom, top):
        cap = build()
        assert len(cap) == size
        assert math.isclose(np.sum(cap.weights), math.pi * R * slant, rel_tol=1e-13)
