"""Scanline solid voxelization of meshes against the per-point parity test,
and the line fill of analytic solids against the same pointwise test."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cslsurf.geometry import mesh as mesh_module
from cslsurf.geometry import shapes
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
    build_shape,
    contains,
    icosphere,
    mass_properties,
    quadrature,
)
from cslsurf.oracle import rasterize_smoothed_density
from cslsurf.oracle.voxel import _SUPERSAMPLE, _grid_geometry, supersampled_fraction
from test_properties import _direction, analytic_shapes

SIGMA = 1e-7
RHO = 2000.0

# derandomized like test_properties; each example classifies ~1e5 points
SCANLINE_SETTINGS = settings(max_examples=30, deadline=None, database=None,
                             derandomize=True)


def lattice_cells(dims, origin, spacing):
    """The fill's (n, ss) subsample axes of the grid (dims, origin, spacing)."""
    sub = (np.arange(_SUPERSAMPLE) + 0.5) / _SUPERSAMPLE - 0.5
    return [origin[a] + spacing * (np.arange(dims[a])[:, None] + sub[None, :])
            for a in range(3)]


def pointwise_counts(spec, xs, ys, zs, classify=contains):
    """``classify`` (default contains()) at every point of the lattice of
    the (n, ss) axes xs, ys and zs, counted per voxel."""
    X, Y, Z = np.meshgrid(xs.ravel(), ys.ravel(), zs.ravel(), indexing="ij")
    inside = classify(spec, np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1))
    (nx, ss), (ny, _), (nz, _) = xs.shape, ys.shape, zs.shape
    return inside.reshape(nx, ss, ny, ss, nz, ss).sum(axis=(1, 3, 5))


def pointwise_fraction(spec, dims, origin, spacing, classify=contains):
    """Mean of ``classify`` (default contains()) over the same ss^3
    subsample lattice, per voxel."""
    return pointwise_counts(spec, *lattice_cells(dims, origin, spacing),
                            classify) / _SUPERSAMPLE**3


@SCANLINE_SETTINGS
@given(
    kind=st.sampled_from(["box", "icosphere"]),
    sides=st.tuples(*[st.floats(2.0, 5.0)] * 3),
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    shift=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
)
# grid-centred cube: lattice lines pass exactly through the diagonal edge
# shared by the two triangles of each x face
@example(kind="box", sides=(3.0, 3.0, 3.0), quat=(0.0, 0.0, 0.0, 1.0), shift=(0.0, 0.0, 0.0))
def test_scanline_fraction_matches_pointwise(kind, sides, quat, shift):
    spacing = 1.0
    base = box_mesh(*sides) if kind == "box" else icosphere(min(sides) / 2, 1)
    turned = base.vertices @ Rotation.from_quat(quat).as_matrix().T
    dims, origin = _grid_geometry(Mesh(mesh=TriangleMesh(turned, base.faces)), spacing, spacing)
    # a sub-cell move of the mesh against its grid
    spec = Mesh(mesh=TriangleMesh(turned + np.asarray(shift) * spacing, base.faces))
    got = supersampled_fraction(spec, dims, origin, spacing)
    assert np.array_equal(got, pointwise_fraction(spec, dims, origin, spacing))


@pytest.mark.parametrize("side, spacing", [(3.0, 1.0), (8.3 * SIGMA, SIGMA / 2)])
def test_centred_box_mesh_matches_analytic_box(side, spacing):
    # lines on the shared diagonals of the x faces must cross them once
    box = Box((side, side, side))
    dims, origin = _grid_geometry(box, spacing, 6 * spacing)
    got = supersampled_fraction(Mesh(mesh=box_mesh(side, side, side)), dims, origin, spacing)
    assert np.array_equal(got, supersampled_fraction(box, dims, origin, spacing))


MIXED_BODIES = pytest.mark.parametrize("spec", [
    Mesh(mesh=icosphere(4.0, 1), cavities=(Sphere(1.5, center=(0.5, 0.0, 0.0)),
                                           Mesh(mesh=box_mesh(1.0, 2.0, 1.5),
                                                center=(-1.8, 0.2, 0.3)))),
    Box((7.0, 6.0, 6.5), center=(0.2, -0.1, 0.0),
        cavities=(Mesh(mesh=icosphere(1.5, 1), center=(1.1, 0.3, -0.2)),
                  Sphere(1.0, center=(-2.0, 0.0, 0.4)))),
], ids=["mesh-host", "box-host"])


@MIXED_BODIES
def test_scanline_fraction_with_cavities_matches_pointwise(spec):
    dims, origin = _grid_geometry(spec, 1.0, 1.0)
    got = supersampled_fraction(spec, dims, origin, 1.0)
    assert np.array_equal(got, pointwise_fraction(spec, dims, origin, 1.0))


@MIXED_BODIES
def test_culled_fill_with_mixed_cavities_matches_pointwise(spec):
    # each body with 5 spacings of padding, so many lines of the lattice
    # miss it, at the spacing that puts about 16 voxels across it
    spacing = 0.5
    dims, origin = _grid_geometry(spec, spacing, 5 * spacing)
    got = supersampled_fraction(spec, dims, origin, spacing)
    assert np.array_equal(got, pointwise_fraction(spec, dims, origin, spacing))


def test_mesh_cavity_fills_by_scanline(monkeypatch):
    # per-point parity tests every face for every subsample; the fill must not use it
    spec = build_shape(Box((12 * SIGMA,) * 3,
                           cavities=(Mesh(mesh=icosphere(4 * SIGMA, 1)),)))

    def no_point_queries(self, points):
        raise AssertionError("TriangleMesh.contains called by the fill")

    monkeypatch.setattr(TriangleMesh, "contains", no_point_queries)
    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    mass = mass_properties(spec, RHO).mass
    assert abs(grid.values.sum() * grid.cell_volume() - mass) / mass < 1e-3


def test_icosphere_1280_raster():
    R = 10 * SIGMA
    spec = Mesh(mesh=icosphere(R, 3))
    assert len(spec.mesh.faces) == 1280
    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    mass = mass_properties(spec, RHO).mass
    assert abs(grid.values.sum() * grid.cell_volume() - mass) / mass < 1e-3
    exact = rasterize_smoothed_density(Sphere(R), RHO, SIGMA)
    assert grid.dims == exact.dims
    scale = np.max(exact.values)
    assert np.max(np.abs(grid.values - exact.values)) / scale < 0.02


def test_contains_memory_bounded_for_many_faces():
    # one (points, faces, 3) chunk of 4096 points would take 0.5 GB per array
    mesh = icosphere(1.0, 4)
    assert len(mesh.faces) == 5120
    points = np.random.default_rng(3).uniform(-1.1, 1.1, size=(4096, 3))
    tracemalloc.start()
    try:
        mask = mesh.contains(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.array_equal(mask, [mesh.contains(p)[0] for p in points])


def test_contains_memory_bounded_for_one_large_band():
    # every point lies in the y band of each of the box's 12 faces; when a
    # chunk took whole faces, 200,000 points peaked near 60 MB
    mesh = box_mesh(1.0, 1.0, 1.0)
    points = np.random.default_rng(4).uniform(-0.45, 0.55, size=(200_000, 3))
    tracemalloc.start()
    try:
        mask = mesh.contains(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.array_equal(mask[:2000], unculled_contains(mesh, points[:2000]))
    assert 0 < np.count_nonzero(mask) < len(points)


def unculled_contains(mesh, points):
    """Parity of the crossings of every face with every point's +x ray."""
    hit, x = mesh._ray_faces.crossings(points[:, None, 1], points[:, None, 2])
    return np.count_nonzero(hit & (x > points[:, None, 0]), axis=1) % 2 == 1


def probe_points(mesh, seed, n=400):
    """Random points around the mesh, its vertices and edge midpoints, and
    random points on the (y, z) lines through its vertices."""
    rng = np.random.default_rng(seed)
    lo, hi = mesh.bounding_box()
    pad = 0.1 * (hi - lo)
    corner = mesh.vertices[mesh.faces]
    on_lines = mesh.vertices[rng.integers(len(mesh.vertices), size=n)].copy()
    on_lines[:, 0] = rng.uniform(lo[0] - pad[0], hi[0] + pad[0], size=n)
    return np.concatenate([rng.uniform(lo - pad, hi + pad, size=(n, 3)), mesh.vertices,
                           (corner[:, 0] + corner[:, 1]) / 2, on_lines])


@SCANLINE_SETTINGS
@given(
    kind=st.sampled_from(["box", "icosphere"]),
    sides=st.tuples(*[st.floats(2.0, 5.0)] * 3),
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="box", sides=(3.0, 3.0, 3.0), quat=(0.0, 0.0, 0.0, 1.0), seed=0)
def test_contains_cull_matches_unculled(kind, sides, quat, seed):
    base = box_mesh(*sides) if kind == "box" else icosphere(min(sides) / 2, 2)
    mesh = TriangleMesh(base.vertices @ Rotation.from_quat(quat).as_matrix().T, base.faces)
    points = probe_points(mesh, seed)
    assert np.array_equal(mesh.contains(points), unculled_contains(mesh, points))


def test_contains_cull_chunks(monkeypatch):
    # a few point-face pairs per chunk, and faces whose y band alone exceeds it
    monkeypatch.setattr(mesh_module, "_CONTAINS_PAIRS", 7)
    mesh = icosphere(1.0, 1)
    points = probe_points(mesh, 5, n=200)
    assert np.array_equal(mesh.contains(points), unculled_contains(mesh, points))
    assert not mesh.contains(np.empty((0, 3))).size


@st.composite
def profiled_or_hollow(draw):
    """An elliptic, cone-capped or gapped cylinder on a named (x, y, z) or
    tilted axis, or a sphere with a sphere cavity off its center, some 4 to
    20 units across and off the lattice by a sub-unit center."""
    kind = draw(st.sampled_from(["elliptic", "cone", "gapped", "hollow"]))
    axis = draw(st.one_of(st.sampled_from(["x", "y", "z"]), _direction))
    center = draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3))
    a, b, c = (draw(st.floats(1.0, 2.0)) for _ in range(3))
    if kind == "elliptic":
        return EllipticCylinder(2 * a, 2 * b, 4 * c, axis=axis, center=center)
    if kind == "cone":
        return ConeCappedCylinder(2 * a, 3 * b, draw(st.floats(1.0, 2.5)), axis=axis,
                                  center=center)
    if kind == "gapped":
        return GappedCylinder(2 * a, 6 * b, 2, 0.3 * c, axis=axis, center=center)
    off = np.asarray(draw(st.tuples(*[st.floats(-0.5, 0.5)] * 3)))
    return Sphere(3 * a, center=center, cavities=(Sphere(a, center=tuple(center + a * off)),))


@SCANLINE_SETTINGS
@given(spec=st.one_of(analytic_shapes(), profiled_or_hollow()),
       shift=st.tuples(*[st.floats(0.0, 1.0)] * 3))
# at spacing 1/4 every subsample coordinate is an odd multiple of 1/32, as
# are the faces +-49/32 of this box and the flat faces x = +-61/32 of this
# cylinder: they hold whole subsample planes
@example(spec=Box((49 / 16,) * 3), shift=(0.0, 0.0, 0.0))
@example(spec=EllipticCylinder(2.0, 1.5, 61 / 16, axis="x"), shift=(0.0, 0.0, 0.0))
@example(spec=ConeCappedCylinder(2.0, 3.0, math.pi / 2, axis="y"), shift=(0.5, 0.5, 0.5))
@example(spec=GappedCylinder(2.0, 6.0, 2, 0.5, axis="z"), shift=(0.0, 0.0, 0.0))
@example(spec=Sphere(3.0, cavities=(Sphere(1.0),)), shift=(0.0, 0.0, 0.0))
# lines that graze the surface, at spacing 1/4 and subsamples on odd
# multiples of 1/32: the elliptic wall y = 47/32 is tangent to a row of
# lines, at a sample; so is the round wall of this cylinder on the tilted
# axis (1, 0, 1), to the rows y = +-47/32; the axis of this cone is a
# lattice line through both apexes; the lines of this cone's rows
# z = 1/32 +- 2 pass through an apex, at a sample; and the line z = 49/32
# of this sphere's row y = 1/32 touches its pole, at a sample
@example(spec=EllipticCylinder(2.0, 47 / 32, 4.0, axis="z", center=(1 / 32, 0.0, 0.0)),
         shift=(0.0, 0.0, 0.0))
@example(spec=Cylinder(47 / 32, 2.0, axis=(1.0, 0.0, 1.0)), shift=(0.0, 0.0, 0.0))
@example(spec=ConeCappedCylinder(1.0, 2.0, math.pi / 2, axis="x", center=(0.0, 1 / 32, 1 / 32)),
         shift=(0.0, 0.0, 0.0))
@example(spec=ConeCappedCylinder(1.0, 2.0, math.pi / 2, axis="z", center=(1 / 32,) * 3),
         shift=(0.0, 0.0, 0.0))
@example(spec=Sphere(1.5, center=(1 / 32,) * 3), shift=(0.0, 0.0, 0.0))
# frames of -1 and 0 entries: a line's origin is the points' own local
# axes at world x = center x, whose x term is +-0.0.  On -z local y and z
# are -y and -z; on x local z is world x alone, so every line's origin
# holds only that +-0.0 term; on -y local y is -z
@example(spec=EllipticCylinder(2.0, 1.5, 4.0, axis=(0.0, 0.0, -1.0), center=(1 / 32, 0.0, 0.1)),
         shift=(0.0, 0.0, 0.0))
@example(spec=ConeCappedCylinder(1.5, 2.0, 2.0, axis="x", center=(0.1, 1 / 32, 0.0)),
         shift=(0.25, 0.5, 0.75))
@example(spec=GappedCylinder(1.5, 6.0, 2, 0.5, axis=(0.0, -1.0, 0.0)), shift=(0.5, 0.0, 0.0))
def test_band_fill_matches_pointwise(spec, shift):
    # the line fill places runs by closed forms and takes _inside on the
    # broadcast axes of its rows and columns, the pointwise test on points:
    # on a named axis r^2 and r(z) take fewer values than the points, on a
    # tilted one every local coordinate is a sum over the three world axes
    lo, hi = bounding_box(spec)
    spacing = 2.0 ** math.floor(math.log2((hi - lo).max() / 12))
    dims, origin = _grid_geometry(spec, spacing, 2 * spacing)
    # a sub-cell move of the grid against the body
    origin = (np.round(origin / spacing) + np.asarray(shift)) * spacing
    got = supersampled_fraction(spec, dims, origin, spacing)
    assert np.array_equal(got, pointwise_fraction(spec, dims, origin, spacing))


@pytest.mark.parametrize("spec", [
    EllipticCylinder(2.0, 1.5, 4.0, axis=(1.0, 2.0, 3.0)),
    Box((7.0, 6.0, 6.5), cavities=(Sphere(1.0, center=(-2.0, 0.0, 0.4)),
                                   Cylinder(0.8, 1.5, axis=(0.2, 0.5, 0.9),
                                            center=(1.2, 0.3, -0.5)))),
], ids=["bare", "with-cavities"])
def test_fill_builds_no_shape(monkeypatch, spec):
    # the host is filled as built, its cavities included, since no hook of
    # the fill reads them: no solid is built, as a copy without them was
    built = []
    post_init = shapes._Solid.__post_init__

    def counting(self):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(shapes._Solid, "__post_init__", counting)
    dims, origin = _grid_geometry(spec, 0.5, 1.0)
    got = supersampled_fraction(spec, dims, origin, 0.5)
    assert built == []
    monkeypatch.undo()
    assert np.array_equal(got, pointwise_fraction(spec, dims, origin, 0.5))


@st.composite
def culled_bodies(draw):
    """Analytic bodies, bare or with one cavity: the sphere that
    :func:`analytic_shapes` draws, or a box or tilted elliptic cylinder
    inside that sphere."""
    spec = draw(analytic_shapes())
    if spec.cavities:
        (sphere,) = spec.cavities
        r, kind = sphere.radius, draw(st.sampled_from(["sphere", "box", "elliptic"]))
        fraction = st.floats(0.3, 1.0)
        if kind == "box":
            # half its diagonal is at most sqrt(3) r / 2
            cavity = Box(tuple(r * draw(fraction) for _ in range(3)), center=sphere.center)
        elif kind == "elliptic":
            # no point of it is farther than r / sqrt(2) from the center
            a, b, length = (r * draw(fraction) for _ in range(3))
            cavity = EllipticCylinder(a / 2, b / 2, length, axis=draw(_direction),
                                      center=sphere.center)
        else:
            cavity = sphere
        spec = replace(spec, cavities=(cavity,))
    return spec


@SCANLINE_SETTINGS
@given(spec=culled_bodies(), voxels=st.sampled_from([2, 8, 16]),
       shift=st.tuples(*[st.floats(0.0, 1.0)] * 3))
# a body about two voxels across
@example(spec=Sphere(1.0, center=(0.1, 0.2, 0.3)), voxels=2, shift=(0.0, 0.0, 0.0))
# the faces x, y, z = -3.75 and 4.25 of this box lie on voxel faces
@example(spec=Box((8.0,) * 3, center=(0.25,) * 3), voxels=16, shift=(1.0, 1.0, 1.0))
def test_block_culled_fill_matches_pointwise(spec, voxels, shift):
    # about ``voxels`` voxels across the body and 5 spacings of padding, so
    # many lines of the lattice miss it and many lines cross it
    lo, hi = bounding_box(spec)
    spacing = 2.0 ** math.floor(math.log2((hi - lo).max() / voxels))
    dims, origin = _grid_geometry(spec, spacing, 5 * spacing)
    origin = (np.round(origin / spacing) + np.asarray(shift)) * spacing
    got = supersampled_fraction(spec, dims, origin, spacing)
    assert np.array_equal(got, pointwise_fraction(spec, dims, origin, spacing))


@SCANLINE_SETTINGS
@given(spec=analytic_shapes(with_cavity=st.just(False)), seed=st.integers(0, 2**32 - 1))
def test_clearance_is_a_lower_bound(spec, seed):
    # every quadrature point is on the boundary, so no boundary distance exceeds
    # the distance to the nearest one
    surface = quadrature(spec, resolution=8).points
    lo, hi = bounding_box(spec)
    pad = 0.2 * (hi - lo)
    points = np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(300, 3))
    nearest = np.min(np.linalg.norm(points[:, None] - surface[None], axis=2), axis=1)
    clearance = spec._clearance(*shapes._local_axes(spec, *points.T))
    assert np.all(clearance <= nearest + 1e-12 * np.max(hi - lo))


def test_line_fill_takes_no_clearance(monkeypatch):
    # a sphere 40 sigma across, 80 voxels: the line fill places each line's
    # runs by the roots of its closed form, and reads no distance
    spec = Sphere(20 * SIGMA)
    dims, origin = _grid_geometry(spec, SIGMA / 2, 6 * SIGMA)

    def no_clearance(solid, x, y, z):
        raise AssertionError("Sphere._clearance called by the fill")

    monkeypatch.setattr(Sphere, "_clearance", no_clearance)
    frac = supersampled_fraction(spec, dims, origin, SIGMA / 2)
    volume = frac.sum() * (SIGMA / 2) ** 3
    assert abs(volume / mass_properties(spec, 1.0).volume - 1) < 1e-3


@pytest.mark.parametrize("spec", [Sphere(20 * SIGMA),
                                  EllipticCylinder(20 * SIGMA, 12 * SIGMA, 30 * SIGMA,
                                                   axis=(1.0, 2.0, 3.0))],
                         ids=["sphere", "tilted-elliptic"])
def test_line_fill_classifies_few_samples_per_line(monkeypatch, spec):
    # the same sphere, and an elliptic cylinder on a tilted axis: _inside
    # classifies only the samples of a line with a sample within the
    # rounding bound of the surface, which lies in a face or grazes it;
    # few lines do (none of these), so at most a few per crossing line
    dims, origin = _grid_geometry(spec, SIGMA / 2, 6 * SIGMA)
    inside, classified = type(spec)._inside, []

    def counting(solid, x, y, z):
        classified.append(np.broadcast(x, y, z).size)
        return inside(solid, x, y, z)

    monkeypatch.setattr(type(spec), "_inside", counting)
    frac = supersampled_fraction(spec, dims, origin, SIGMA / 2)
    crossing = _SUPERSAMPLE**2 * np.count_nonzero(frac.any(axis=0))
    assert sum(classified) <= 4 * crossing
    # the sampled volume, to the aliasing of a tilted flat face
    volume = frac.sum() * (SIGMA / 2) ** 3
    assert abs(volume / mass_properties(spec, 1.0).volume - 1) < 3e-3


def test_lattice_parity_past_a_byte_of_crossings():
    # 131 thin boxes side by side in x, and two subsamples of each voxel
    # inside one of them (boxes 0, 50, 51 and 130): 100 crossings lie
    # between the first two, and 260 between the first and the last, more
    # than a uint8 count holds; each voxel takes flips of both signs
    boxes = [box_mesh(4e-4, 1.0, 1.0, center=(1e-3 * i + 2e-4, 0.0, 0.0)) for i in range(131)]
    spec = Mesh(mesh=TriangleMesh(np.concatenate([b.vertices for b in boxes]),
                                  np.concatenate([b.faces + 8 * i for i, b in enumerate(boxes)])))
    xs = np.array([[-0.5, 1e-4, 0.0502, 0.0507], [0.0512, 0.1302, 0.3, 0.5]])
    ys = np.linspace(-0.6, 0.6, 8).reshape(2, 4)
    zs = np.linspace(-0.55, 0.65, 8).reshape(2, 4)
    got = spec._lattice(xs, ys, zs)
    assert got.dtype == np.uint8
    assert np.array_equal(got, pointwise_counts(spec, xs, ys, zs))
    in_box = np.array([[np.count_nonzero(np.abs(y) < 0.5) * np.count_nonzero(np.abs(z) < 0.5)
                        for z in zs] for y in ys])
    assert np.array_equal(got, [2 * in_box, 2 * in_box]) and in_box.min() > 0


@pytest.mark.parametrize("xs", [np.linspace(-0.5, 0.5, 8),      # crossings before and beyond all
                                np.linspace(0.2, 1.5, 8),        # beyond none on the +x side
                                np.linspace(-1.5, -0.3, 4)])     # beyond all on the +x side
def test_lattice_clipped_inside_the_mesh(xs):
    spec = Mesh(mesh=icosphere(1.0, 2, center=(0.01, -0.02, 0.03)))
    xs, ys, zs = (a.reshape(-1, 4) for a in (xs, np.linspace(-1.2, 1.2, 12),
                                             np.linspace(-1.1, 1.3, 8)))
    got = spec._lattice(xs, ys, zs)
    expected = pointwise_counts(spec, xs, ys, zs)
    assert got.dtype == np.uint8 and np.array_equal(got, expected) and expected.any()


def octahedron(r):
    """The octahedron of vertices +- r e_i, wound outward."""
    vertices = np.concatenate([r * np.eye(3), -r * np.eye(3)])
    faces = [[sx, 1 + sy, 2 + sz] if (sx + sy + sz) % 2 == 0 else [sx, 2 + sz, 1 + sy]
             for sx, sy, sz in product((0, 3), repeat=3)]
    return TriangleMesh(vertices, faces)


@SCANLINE_SETTINGS
@given(
    kind=st.sampled_from(["box", "icosphere", "octahedron"]),
    sides=st.tuples(*[st.floats(2.0, 5.0)] * 3),
    quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
    center=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    pairs=st.sampled_from([7, 500, mesh_module._CONTAINS_PAIRS]),
)
# faces at +-11/8, on the subsample planes of the fixed lattice: lattice
# lines run along the box's edges and subsamples sit on its x faces
@example(kind="box", sides=(2.75,) * 3, quat=(0.0, 0.0, 0.0, 1.0), center=(0.0,) * 3,
         pairs=mesh_module._CONTAINS_PAIRS)
@example(kind="box", sides=(2.75,) * 3, quat=(0.0, 0.0, 0.0, 1.0), center=(0.0,) * 3, pairs=7)
# vertices (1/8 +- 2, 1/8, 1/8) and their permutations: lattice lines run
# through every vertex and along every edge, parallel to y at z = 1/8,
# parallel to z in the row y = 1/8, and diagonal
@example(kind="octahedron", sides=(4.0,) * 3, quat=(0.0, 0.0, 0.0, 1.0),
         center=(0.125,) * 3, pairs=mesh_module._CONTAINS_PAIRS)
@example(kind="octahedron", sides=(4.0,) * 3, quat=(0.0, 0.0, 0.0, 1.0),
         center=(0.125,) * 3, pairs=7)
def test_mesh_counts_match_pointwise_under_rigid_motion(kind, sides, quat, center, pairs):
    # a rotated mesh moved anywhere on a fixed lattice, in chunks of a few
    # face/row and face/line pairs up to the default
    if kind == "icosphere":
        base = icosphere(min(sides) / 2, 1)
    elif kind == "octahedron":
        base = octahedron(min(sides) / 2)
    else:
        base = box_mesh(*sides)
    turned = base.vertices @ Rotation.from_quat(quat).as_matrix().T
    spec = Mesh(mesh=TriangleMesh(turned, base.faces), center=center)
    cells = lattice_cells((10, 10, 10), np.full(3, -4.5), 1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mesh_module, "_CONTAINS_PAIRS", pairs)
        got = spec._lattice(*cells)
    assert got.dtype == np.uint8
    assert np.array_equal(got, pointwise_counts(spec, *cells))


@pytest.mark.parametrize("spec", [Box((16.0, 16.0, 16.0)),
                                  EllipticCylinder(8.0, 6.0, 16.0, axis=(1.0, 2.0, 3.0))],
                         ids=["box", "tilted-elliptic"])
def test_analytic_fill_memory_bounded_for_a_fine_lattice(spec):
    # the mesh test's lattice: 75^3 voxels and 90,000 lattice lines for the
    # box, and 96 x 108 x 120 voxels and 207,360 lines for the tilted
    # cylinder; they go in chunks of lines, so the temporaries stay bounded
    cells = lattice_cells(*_grid_geometry(spec, 0.25, 1.0), 0.25)
    tracemalloc.start()
    try:
        count = spec._lattice(*cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    volume = mass_properties(spec, 1.0).volume
    assert abs(int(count.sum()) * (0.25 / _SUPERSAMPLE) ** 3 / volume - 1) < 3e-3
    if isinstance(spec, Box):
        assert count.shape == (75, 75, 75) and int(count.sum()) == 64**4


def test_mesh_fill_memory_bounded_for_a_fine_lattice():
    # each of the 4 triangles of the x faces has 65,536 lattice lines in
    # its yz box; taken in one pass, those face/line pairs would peak near
    # 70 MB
    spec = Mesh(mesh=box_mesh(16.0, 16.0, 16.0))
    cells = lattice_cells(*_grid_geometry(spec, 0.25, 1.0), 0.25)
    tracemalloc.start()
    try:
        count = spec._lattice(*cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert count.shape == (75, 75, 75) and int(count.sum()) == 64**4
