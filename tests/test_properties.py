"""Property tests over every analytic shape type.

Shapes are drawn with random positive dimensions (aspect ratios up to 4),
a random axis where the type has one, a random center, and optionally one
small spherical cavity at the body's center.
"""

import math
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cslsurf import (
    SurfacePatches,
    contains,
    form_factor,
    gradient_outer_integral,
    kspace_outer_integral,
    rasterize_smoothed_density,
    smoothed_density,
)
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
from cslsurf.geometry.shapes import _counts, _local_axes, local_frame
from cslsurf.oracle.voxel import supersampled_fraction
from cslsurf.errors import CavityOverlap, DegenerateDimension
from cslsurf.tensors import clamp_psd, is_psd, rotational_surface_tensor, surface_tensor

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
@given(analytic_shapes(kinds=("sphere", "box"), with_cavity=st.just(False)),
       st.integers(0, 2**32 - 1))
def test_signed_distance_is_the_closed_form(spec, seed):
    # |p - c| - R and the box's outside distance plus its depth, negative
    # inside, on random points and on the quadrature nodes; at the center
    # (0, 0, 0) a box's nodes sit on its faces exactly
    lo, hi = bounding_box(spec)
    pad = 0.2 * (hi - lo)
    random = np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(500, 3))
    for body in (spec, replace(spec, center=(0.0, 0.0, 0.0))):
        p = np.concatenate([random, quadrature(body, resolution=8).points])
        q = p - np.asarray(body.center)
        if isinstance(body, Sphere):
            want = np.linalg.norm(q, axis=1) - body.radius
        else:
            d = np.abs(q) - np.asarray(body.size) / 2.0
            want = np.linalg.norm(np.maximum(d, 0.0), axis=1) + np.minimum(d.max(axis=1), 0.0)
        assert np.array_equal(signed_distance(body, p), want)


def _accepts(build, cavity):
    """Whether ``build(cavities=(cavity,))`` passes the cavity check."""
    try:
        build(cavities=(cavity,))
    except CavityOverlap:
        return False
    return True


# a cavity radius in units of its center's clearance: tangent, or clearly in or out
_RADIUS = st.one_of(st.just(1.0), st.floats(0.05, 0.95), st.floats(1.05, 1.5))


@PROPERTY_SETTINGS
@given(analytic_shapes(kinds=("sphere", "cylinder", "box", "cone", "gapped"),
                       with_cavity=st.just(False)),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3), _RADIUS)
def test_sphere_cavity_on_exact_host_needs_clearance(spec, at, size):
    # a host with an exact clearance takes a sphere cavity iff its center
    # is inside and farther than its radius from the boundary
    lo, hi = bounding_box(spec)
    where = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.asarray(at)
    clearance = spec._clearance(*_local_axes(spec, *where[:, None]))[0]
    assume(clearance > 0.0)
    cavity = Sphere(size * clearance, center=tuple(where))
    accepted = _accepts(partial(replace, spec), cavity)
    assert accepted == (contains(spec, where)[0] and clearance > cavity.radius)


# a box face's distance past a rod's rim, in units of the scale: within a
# ring point's sagitta R (1 - cos(pi / 64)) > 3e-4 of it, or clearly past
_SLACK = st.one_of(st.floats(-1e-3, 1e-3), st.floats(0.0, 0.5))


@PROPERTY_SETTINGS
@given(_scale, _unit, _unit, _direction, st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       st.tuples(_SLACK, _SLACK, _SLACK))
# the rim passes x = 0.57465 by 2e-4 half-way between two ring points
@example(1.0, 2.0, 1.2, (0.3635, 0.8643, 0.3476), (0.0, 0.0, 0.0), (-2e-4, 1.4, 1.4))
def test_tilted_rod_cavity_in_a_box_needs_its_rim_inside(s, r, length, axis, at, slack):
    # along world axis j the rim of a rod of radius R and length L on the
    # unit axis a reaches |a_j| L / 2 + R sqrt(1 - a_j^2) past its center
    # c: the body is built iff that lies strictly inside the box
    R, L = s * r / 4.0, s * length / 2.0
    rod = Cylinder(R, L, axis=axis, center=tuple(s * 0.1 * np.asarray(at)))
    a, c = np.asarray(rod.axis), np.asarray(rod.center)
    rim = np.abs(c) + np.abs(a) * L / 2.0 + R * np.sqrt(1.0 - a * a)
    half = rim + s * np.asarray(slack)
    assume(np.all(half > 0.0))
    margin = np.min(half - rim)
    assume(abs(margin) > 1e-9 * s)
    assert _accepts(partial(Box, tuple(2.0 * half)), rod) == (margin > 0.0)


@PROPERTY_SETTINGS
@given(_scale, _unit, _unit, _direction, st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.one_of(st.floats(-1e-4, 1e-4),
                                                    st.floats(-0.5, 0.5)))
# both rims pass the sphere by 1.1e-4 half-way between two ring points
@example(1.0, 2.0, 2.4, (0.3635, 0.8643, 0.3476), (2.668, -0.633, -1.216), (0.0, 0.0, 0.0),
         -1.1e-4)
def test_tilted_rod_cavity_in_a_sphere_needs_its_rim_inside(s, r, length, axis, at, host, slack):
    # in the rod's frame the sphere's center h is a distance d from the
    # axis, and the rim point farthest from h, opposite h's projection onto
    # a rim's plane, lies sqrt((R + d)^2 + (L / 2 + |h_z|)^2) from it: the
    # body is built iff that is strictly below the sphere's radius.  A
    # radius within 1e-4 s of it often lies between that point's distance
    # and the nearest ring point's, where only the farthest point decides
    R, L = s * r / 4.0, s * length / 2.0
    rod = Cylinder(R, L, axis=axis, center=tuple(s * 0.1 * np.asarray(at)))
    center = s * 0.1 * np.asarray(host)
    hx, hy, hz = (center - rod.center) @ local_frame(rod)
    far = math.hypot(R + math.hypot(hx, hy), L / 2.0 + abs(hz))
    radius = far + s * slack
    assume(radius > 0.0 and abs(radius - far) > 1e-9 * radius)
    accepted = _accepts(partial(Sphere, radius, center=tuple(center)), rod)
    assert accepted == (far < radius)


@PROPERTY_SETTINGS
@given(_scale, _unit, _unit, _direction, _offset, st.tuples(*[st.floats(-1.1, 1.1)] * 3),
       st.sampled_from(["sphere", "box"]), _RADIUS, st.tuples(*[st.floats(0.1, 2.0)] * 3))
def test_round_elliptic_host_takes_the_cylinders_cavities(s, r, length, axis, offset, at,
                                                          kind, size, sides):
    # the same sphere and box cavities, tangent spheres included, as the
    # equal cylinder, whose clearance it shares to the bit
    R, L = s * r, s * length
    kw = dict(axis=axis, center=tuple(s * c for c in offset))
    cylinder = partial(Cylinder, R, L, **kw)
    elliptic = partial(EllipticCylinder, R, R, L, **kw)
    host = cylinder()
    where = np.asarray(host.center) + local_frame(host) @ (np.asarray(at) * [R, R, L / 2])
    if kind == "sphere":
        clearance = host._clearance(*_local_axes(host, *where[:, None]))[0]
        assume(clearance > 0.0)
        cavity = Sphere(size * clearance, center=tuple(where))
        inside = contains(host, where)[0]
        assert _accepts(elliptic, cavity) == (inside and clearance > cavity.radius)
    else:
        cavity = Box(tuple(s * np.asarray(sides)), center=tuple(where))
    assert _accepts(elliptic, cavity) == _accepts(cylinder, cavity)


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


def _bits(value):
    """The value's raw bytes, arrays, patches and mass-property fields alike."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return [_bits(getattr(value, f)) for f in value.__dataclass_fields__]
    if isinstance(value, SurfacePatches):
        return [_bits(value.points), _bits(value.normals), _bits(value.weights)]
    return np.ascontiguousarray(value).tobytes()


@settings(PROPERTY_SETTINGS, max_examples=12)
@given(_scale, _unit, _unit, st.one_of(_direction, st.just((0.0, 2e-7, -1.0))), _offset,
       st.one_of(st.none(), st.floats(0.1, 0.45)), st.floats(0.0, 10.0))
# an axis near -z, whose local frame takes the guarded 1 + c, with a cavity
@example(1e-6, 2.0, 3.0, (0.0, 2e-7, -1.0), (1.0, -2.0, 0.5), 0.3, 0.5)
def test_rods_share_one_definition(s, r, length, axis, offset, cavity, width):
    # a zero-gap gapped cylinder is the cylinder, and a round elliptic
    # cylinder takes its form factor and k-space rule, to the bit
    R, L, sigma = s * r, s * length, s
    center = tuple(s * c for c in offset)
    cavities = () if cavity is None else (Sphere(cavity * min(R, L), center=center),)
    kw = dict(axis=axis, center=center, cavities=cavities)
    cylinder, gapped = Cylinder(R, L, **kw), GappedCylinder(R, L, 0, width * s, **kw)
    elliptic = EllipticCylinder(R, R, L, **kw)
    p = np.random.default_rng(0).uniform(-3.0 * s, 3.0 * s, size=(300, 3)) + center
    k = np.random.default_rng(1).normal(scale=2.0 / s, size=(300, 3))

    def outputs(spec):
        grid = rasterize_smoothed_density(spec, 1.0, sigma)
        return [quadrature(spec, resolution=6), mass_properties(spec, 2.0),
                contains(spec, p), signed_distance(spec, p), smoothed_density(spec, 1.0, sigma, p),
                grid.values, gradient_outer_integral(grid), form_factor(spec)(k),
                kspace_outer_integral(spec, 1.0, sigma)]

    assert _bits(outputs(gapped)) == _bits(outputs(cylinder))
    assert _bits(form_factor(elliptic)(k)) == _bits(form_factor(cylinder)(k))
    if not cavities:    # the body-frame rule
        assert _bits(kspace_outer_integral(elliptic, 1.0, sigma)) == _bits(
            kspace_outer_integral(cylinder, 1.0, sigma))


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


@st.composite
def _symmetric_tensors(draw):
    """R diag(vals) R^T at a scale from 1e-30 to 1e30: eigenvalues of any
    sign (so traces <= 0 too), zero, or one just either side of the floor
    -1e-10 trace of two positive ones."""
    vals = draw(st.one_of(
        st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        st.just((0.0, 0.0, 0.0)),
        st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.5, 2.0)).map(
            lambda v: (v[0], v[1], -v[2] * 1e-10 * (v[0] + v[1])))))
    R = Rotation.from_rotvec(draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))).as_matrix()
    return 10.0 ** draw(st.floats(-30.0, 30.0)) * (R @ np.diag(vals) @ R.T)


@PROPERTY_SETTINGS
@given(_symmetric_tensors())
@example(np.diag([-1e-24, -2e-24, -3e-24]))
def test_clamp_psd_accepts_what_is_psd_accepts(t):
    # clamp_psd used an absolute floor of -1e-10 where the trace is not
    # positive, so it clamped that tensor to zero while is_psd refused it
    try:
        clamped = clamp_psd(t)
    except DegenerateDimension:
        assert not is_psd(t)
    else:
        assert is_psd(t) and is_psd(clamped)
        assert np.all(np.linalg.eigvalsh(clamped) >= -1e-15 * np.abs(t).max())
    if np.trace(t) <= 0.0 and np.any(t != 0.0):
        assert not is_psd(t)
