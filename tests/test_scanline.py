"""Scanline solid voxelization of meshes against the per-point parity test,
and the narrow-band fill of analytic solids against the same pointwise test."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from cslsurf.geometry import mesh as mesh_module
from cslsurf.geometry import shapes
from cslsurf.geometry import (
    Box,
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
from test_properties import analytic_shapes

SIGMA = 1e-7
RHO = 2000.0

# derandomized like test_properties; each example classifies ~1e5 points
SCANLINE_SETTINGS = settings(max_examples=30, deadline=None, database=None,
                             derandomize=True)


def pointwise_fraction(spec, dims, origin, spacing):
    """Mean of contains() over the same ss^3 subsample lattice, per voxel."""
    ss = _SUPERSAMPLE
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    axes = [origin[a] + spacing * (np.arange(dims[a])[:, None] + sub[None, :]).ravel()
            for a in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    inside = contains(spec, np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1))
    blocks = inside.reshape(dims[0], ss, dims[1], ss, dims[2], ss)
    return blocks.mean(axis=(1, 3, 5))


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


@pytest.mark.parametrize("spec", [
    Mesh(mesh=icosphere(4.0, 1), cavities=(Sphere(1.5, center=(0.5, 0.0, 0.0)),
                                           Mesh(mesh=box_mesh(1.0, 2.0, 1.5),
                                                center=(-1.8, 0.2, 0.3)))),
    Box((7.0, 6.0, 6.5), center=(0.2, -0.1, 0.0),
        cavities=(Mesh(mesh=icosphere(1.5, 1), center=(1.1, 0.3, -0.2)),
                  Sphere(1.0, center=(-2.0, 0.0, 0.4)))),
], ids=["mesh-host", "box-host"])
def test_scanline_fraction_with_cavities_matches_pointwise(spec):
    dims, origin = _grid_geometry(spec, 1.0, 1.0)
    got = supersampled_fraction(spec, dims, origin, 1.0)
    assert np.array_equal(got, pointwise_fraction(spec, dims, origin, 1.0))


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


@SCANLINE_SETTINGS
@given(spec=analytic_shapes(), shift=st.tuples(*[st.floats(0.0, 1.0)] * 3))
# at spacing 1/4 every subsample coordinate is an odd multiple of 1/32, as
# are the faces +-49/32 of this box: its faces hold whole subsample planes
@example(spec=Box((49 / 16,) * 3), shift=(0.0, 0.0, 0.0))
def test_band_fill_matches_pointwise(spec, shift):
    lo, hi = bounding_box(spec)
    spacing = 2.0 ** math.floor(math.log2((hi - lo).max() / 12))
    dims, origin = _grid_geometry(spec, spacing, 2 * spacing)
    # a sub-cell move of the grid against the body
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


def test_band_keeps_uniform_voxels_out_of_contains(monkeypatch):
    # a sphere 40 sigma across, 80 voxels: only voxels within the reach of its
    # surface classify their 64 subsamples, the others their center
    spec = Sphere(20 * SIGMA)
    dims, origin = _grid_geometry(spec, SIGMA / 2, 6 * SIGMA)
    classified = []

    def counting(solid, points):
        classified.append(len(points))
        return contains(solid, points)

    monkeypatch.setattr(shapes, "contains", counting)
    frac = supersampled_fraction(spec, dims, origin, SIGMA / 2)
    assert sum(classified) <= 0.1 * _SUPERSAMPLE**3 * math.prod(dims)
    volume = frac.sum() * (SIGMA / 2) ** 3
    assert abs(volume / mass_properties(spec, 1.0).volume - 1) < 1e-3


def test_lattice_parity_past_a_byte_of_crossings():
    # 131 thin boxes side by side in x, and a lattice sample inside the
    # first and the last: 260 crossings lie between the two, more than a
    # uint8 count holds, so only parity survives the wrap
    boxes = [box_mesh(4e-4, 1.0, 1.0, center=(1e-3 * i + 2e-4, 0.0, 0.0)) for i in range(131)]
    mesh = TriangleMesh(np.concatenate([b.vertices for b in boxes]),
                        np.concatenate([b.faces + 8 * i for i, b in enumerate(boxes)]))
    xs = np.array([-0.5, 1e-4, 0.1302, 0.3])
    ys = np.linspace(-0.6, 0.6, 7)
    zs = np.linspace(-0.55, 0.65, 5)
    got = mesh.contains_lattice(xs, ys, zs)
    Y, Z, X = np.meshgrid(ys, zs, xs, indexing="ij")
    expected = mesh.contains(np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1))
    assert np.array_equal(got.ravel(), expected)
    in_box = (np.abs(Y) < 0.5) & (np.abs(Z) < 0.5) & ((X == 1e-4) | (X == 0.1302))
    assert np.array_equal(got, in_box) and in_box.any()


@pytest.mark.parametrize("xs", [np.linspace(-0.5, 0.5, 9),      # crossings before and beyond all
                                np.linspace(0.2, 1.5, 6),        # beyond none on the +x side
                                np.linspace(-1.5, -0.3, 5)])     # beyond all on the +x side
def test_lattice_clipped_inside_the_mesh(xs):
    mesh = icosphere(1.0, 2, center=(0.01, -0.02, 0.03))
    ys, zs = np.linspace(-1.2, 1.2, 11), np.linspace(-1.1, 1.3, 7)
    got = mesh.contains_lattice(xs, ys, zs)
    Y, Z, X = np.meshgrid(ys, zs, xs, indexing="ij")
    expected = mesh.contains(np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1))
    assert np.array_equal(got.ravel(), expected) and expected.any()
