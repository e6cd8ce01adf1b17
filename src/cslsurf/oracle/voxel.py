"""Voxelized Gaussian-smoothed density fields.

The field is the body indicator (times density) convolved with an
isotropic Gaussian of width sigma.  One rule picks the field of each
solid, the host and each cavity alike (:func:`_unit_field`): its closed
form when the edge is a step (spheres, boxes, circular and gapped
cylinders: erf products and the noncentral chi-square disc integral);
otherwise the smoothed edge profile of its signed distance (the step
profile for cone-capped cylinders); otherwise none.  A body with a solid
that has none (elliptic cylinders, meshes) is rasterized as a
supersampled indicator filtered on the grid; it has no point evaluator
and takes no soft edge profile.

Every field takes the solid's local coordinates as three broadcastable
arrays, from the rule that ``contains`` and ``signed_distance`` use too
(``geometry.shapes._local_axes``: a local coordinate sums only the world
coordinates its frame column does not zero, and takes +-1 as a sign).
The raster walks the grid one x-plane at a time and passes the plane's x
as a (1, 1) array, y as (ny, 1) and z as (1, nz); the point evaluator
passes the columns of its points.  On a named axis (x, y or z) the
frame holds only 0 and +-1, so each local coordinate is one world axis
minus the center, and a closed-form factor that reads no more than x
and one other world axis is taken on ny or nz values per plane, not on
ny nz: a box's erf factors, a cylinder's axial factor, and its disc
factor unless its axis is x.  Those are the numbers a matrix product
gives, and a product of broadcast factors is the product of the same
factors per voxel, so such grids are bit for bit the point evaluator's
values.  A tilted axis sums products in a fixed order, which may round
differently from a matrix product.

The supersampled indicator is the share of a 4x4x4 subsample lattice
per voxel that lies in the material.  One loop fills it a voxel row of
lattice lines at a time: the host and then each cavity classify the
row through their ``_scanline`` hook, and each cavity is subtracted.
Analytic solids fill a narrow band: each voxel's center takes the
solid's clearance, a lower bound on its distance to the boundary.  A voxel whose clearance exceeds
the reach, the largest distance from its center to a subsample (3/8 sqrt 3
spacings, with a relative slack of 1e-6), cannot be cut by the boundary,
and all its subsamples take ``contains`` at the center.  Only the other
voxels' subsamples go through ``contains``, gathered from the same axis
arrays, so each is the lattice point the pointwise test would see and
the fractions are exactly its fractions.  Meshes use scanline parity:
one +x ray per (y, z) subsample line, crossed with every face whose yz
bounding box holds the line, and a running parity along x.  Each edge
is evaluated from one fixed end, so the faces sharing it see exactly
opposite values, and a line exactly on an edge or a vertex is counted
as if moved by an infinitesimal step toward +y (then +z), a top-left
rule: it crosses the surface there once, as a line beside it would.
The lattice is the same for every shape, so the fraction is always a
count over 64.

A body that takes both the filtered raster and the DFT route of the
k-space integral (a mesh, say) has both read its indicator, on the same
lattice by default.  Inside a :func:`shared_fill` scope for that body
(``validate`` opens one for a body without a form factor) the first
fill is kept, read-only, and the next request for the same (dims,
origin, spacing) takes it instead of filling again.  At most one
fraction is held, and none once the scope ends.
"""

import contextlib
import contextvars
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.fft import next_fast_len

from ..errors import (
    DegenerateDimension,
    GridTooLarge,
    ParseError,
    SpacingTooCoarse,
    UnsupportedShape,
)
from ..geometry.shapes import _local_axes, _positive, bounding_box, build_shape
from .profiles import EdgeProfile

#: default zero-field margin around the body, in units of sigma.  Five
#: sigma leaves a step-edge residue of ~3e-7 rho at the grid boundary;
#: six pushes it below 1e-8 rho.
DEFAULT_PADDING_SIGMA = 6.0
MIN_PADDING_SIGMA = 5.0
DEFAULT_MAX_VOXELS = 512**3
# even, so that no subsample sits exactly on a cell center where a
# grid-aligned facet could pass
_SUPERSAMPLE = 4


@dataclass
class VoxelGrid:
    """Regular scalar field: values[i, j, k] at origin + (i, j, k) * spacing."""

    origin: np.ndarray    # (3,) m, position of values[0, 0, 0]
    spacing: float        # m, uniform
    values: np.ndarray    # (nx, ny, nz)
    margin: float = 0.0   # zero-field padding width around the body, m

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.spacing = _positive("spacing", self.spacing)
        self.margin = float(self.margin)
        self.values = np.asarray(self.values)
        if self.origin.shape != (3,) or not np.all(np.isfinite(self.origin)):
            raise DegenerateDimension(f"origin must be a finite 3-vector, got {self.origin}")
        if not (0.0 <= self.margin < math.inf):
            raise DegenerateDimension(f"margin must be finite and not negative, got {self.margin}")
        if self.values.dtype.kind not in "biuf" or self.values.ndim != 3 or self.values.size == 0:
            raise DegenerateDimension("values must be a 3-D array of real numbers with no "
                                      f"empty axis, got {self.values.dtype} {self.values.shape}")
        self.values = self.values.astype(float, copy=False)

    @property
    def dims(self):
        return self.values.shape

    def axes(self):
        return [self.origin[i] + self.spacing * np.arange(self.dims[i]) for i in range(3)]

    def cell_volume(self):
        return self.spacing**3


def write_grid(grid: VoxelGrid, path):
    """Dump as a one-line text header plus raw little-endian float64.

    The header is ``cslgrid 2 nx ny nz spacing ox oy oz margin``.
    """
    header = "cslgrid 2 {} {} {} {:.17g} {:.17g} {:.17g} {:.17g} {:.17g}\n".format(
        *grid.dims, grid.spacing, *grid.origin, grid.margin
    )
    # a view, not a copy, of the usual C-ordered little-endian float64 grid
    values = np.ascontiguousarray(grid.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(values)


def read_grid(path):
    """Read a grid written by :func:`write_grid`.

    Version-1 files carry no margin, so a shift guard on them could not
    hold; they raise :class:`ParseError`, as does a header whose spacing,
    origin or margin :class:`VoxelGrid` rejects.
    """
    with open(Path(path), "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 10 or header[:2] != ["cslgrid", "2"]:
            raise ParseError("not a cslgrid 2 file (version 1 carries no grid margin)")
        try:
            nx, ny, nz = (int(x) for x in header[2:5])
            spacing, *origin, margin = (float(x) for x in header[5:10])
        except ValueError as exc:
            raise ParseError(f"bad cslgrid header: {exc}") from None
        # the size is checked before anything is allocated for the data
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if min(nx, ny, nz) < 1 or size != 8 * nx * ny * nz:
            raise ParseError(
                f"grid data has {size} bytes; a {nx}x{ny}x{nz} grid needs {8 * nx * ny * nz}"
            )
        values = np.empty((nx, ny, nz), dtype="<f8")
        if fh.readinto(values) != size:
            raise ParseError("grid data ended early")
    try:
        return VoxelGrid(np.array(origin), spacing, values, margin)
    except DegenerateDimension as exc:
        raise ParseError(f"bad cslgrid header: {exc}") from None


# ---------------------------------------------------------------------------
# point evaluation


def _unit_field(solid, profile):
    """The rule that picks a solid's smoothed indicator ``f(x, y, z, sigma)``.

    ``x``, ``y`` and ``z`` are broadcastable arrays of local coordinates
    (:func:`_local_axes`).  The first that applies: the closed form when
    the edge is a step; the smoothed ``profile`` (the step by default) of
    the signed distance; otherwise None, and only the filtered raster can
    serve the solid, which needs a step edge.
    """
    step = profile is None or profile.is_step
    if step and solid._smoothed_unit is not None:
        return solid._smoothed_unit
    if solid._sdf is not None:
        profile = EdgeProfile.step() if profile is None else profile
        return lambda x, y, z, sigma: profile.smoothed(solid._sdf(x, y, z), sigma)
    if not step:
        raise UnsupportedShape("soft edge profiles need an exact signed distance, "
                               f"which {type(solid).__name__} does not provide")
    return None


def _density(parts, density, sigma, x, y, z):
    """Smoothed density at the world points (x, y, z) of broadcastable
    arrays from the (solid, field) of the host and then of each cavity,
    which subtract."""
    out = None
    for solid, unit in parts:
        value = unit(*_local_axes(solid, x, y, z), sigma)
        out = value if out is None else out - value
    return density * out


def smoothed_density(spec, density, sigma, points, profile=None):
    """Pointwise sigma-smoothed density of the body (cavities subtract).

    ``density`` and ``sigma`` must be positive and finite
    (:class:`DegenerateDimension`)."""
    _positive("density", density)
    _positive("sigma", sigma)
    spec = build_shape(spec)
    parts = [(s, _unit_field(s, profile)) for s in (spec, *spec.cavities)]
    for solid, unit in parts:
        if unit is None:
            raise UnsupportedShape(
                f"no point evaluator for {type(solid).__name__}; rasterize instead")
    points = np.asarray(points, dtype=float)
    return _density(parts, density, sigma, points[..., 0], points[..., 1], points[..., 2])


# ---------------------------------------------------------------------------
# rasterization


def _grid_lengths(density, sigma, spacing=None, padding=None):
    """Checked (spacing, padding) of a grid of the ``sigma``-smoothed
    ``density``.  ``spacing`` defaults to sigma / 2 and may not be coarser
    (:class:`SpacingTooCoarse`); ``padding`` defaults to 6 sigma and may
    not be below 5.  Any other unusable value, a non-positive or
    non-finite one included, raises :class:`DegenerateDimension`."""
    spacing = sigma / 2.0 if spacing is None else float(spacing)
    padding = DEFAULT_PADDING_SIGMA * sigma if padding is None else float(padding)
    for name, value in (("density", density), ("sigma", sigma), ("spacing", spacing)):
        _positive(name, value)
    if spacing > sigma / 2.0 * (1.0 + 1e-12):
        raise SpacingTooCoarse(f"spacing {spacing} exceeds sigma/2 = {sigma / 2}")
    if not (padding >= MIN_PADDING_SIGMA * sigma) or not math.isfinite(padding):
        raise DegenerateDimension(
            f"padding must be finite and at least {MIN_PADDING_SIGMA} sigma, got {padding}")
    return spacing, padding


def _grid_geometry(spec, spacing, padding, max_voxels=DEFAULT_MAX_VOXELS):
    """Dims and origin of the grid over the bounding box plus ``padding``
    on every side; axis sizes are rounded up to FFT-friendly lengths."""
    lo, hi = bounding_box(spec)
    dims, origin = [], []
    for i in range(3):
        span = (hi[i] - lo[i]) + 2.0 * padding
        n = next_fast_len(int(math.ceil(span / spacing)) + 1, real=True)
        mid = 0.5 * (lo[i] + hi[i])
        dims.append(n)
        origin.append(mid - 0.5 * (n - 1) * spacing)
    n_total = math.prod(dims)
    if n_total > max_voxels:
        raise GridTooLarge(f"{tuple(dims)} = {n_total} voxels exceed cap {max_voxels}")
    return tuple(dims), np.array(origin)


def rasterize_smoothed_density(spec, density, sigma, spacing=None, profile=None,
                               padding=None, max_voxels=DEFAULT_MAX_VOXELS):
    """Rasterize the sigma-smoothed density onto a regular grid.

    The grid covers the body bounding box plus ``padding`` (default 6
    sigma, at least 5) on every side; axis sizes are rounded up to
    FFT-friendly lengths.  ``spacing`` defaults to sigma / 2 and may not
    be coarser.

    A body whose solids all have a field is evaluated one x-plane at a
    time on the broadcast local axes of the plane (x as (1, 1), y as
    (ny, 1), z as (1, nz)), so temporaries stay plane-sized and a factor
    that depends on one world axis is taken once per value of that axis;
    on named axes the grid is bit for bit :func:`smoothed_density` at its
    points.  Any other body takes the filtered supersampled indicator,
    which a :func:`shared_fill` scope keeps for the DFT route.
    """
    spec = build_shape(spec)
    spacing, padding = _grid_lengths(density, sigma, spacing, padding)
    if profile is not None and not profile.is_step:
        padding += profile.support()[1] - profile.support()[0]

    dims, origin = _grid_geometry(spec, spacing, padding, max_voxels)
    parts = [(s, _unit_field(s, profile)) for s in (spec, *spec.cavities)]
    if any(unit is None for _, unit in parts):
        frac = _fraction(spec, dims, origin, spacing)
        values = density * ndimage.gaussian_filter(
            frac, sigma=sigma / spacing, mode="constant", cval=0.0, truncate=8.0)
    else:
        values = np.empty(dims)
        y = (origin[1] + spacing * np.arange(dims[1]))[:, None]
        z = (origin[2] + spacing * np.arange(dims[2]))[None, :]
        for i in range(dims[0]):
            x = np.full((1, 1), origin[0] + spacing * i)
            values[i] = _density(parts, density, sigma, x, y, z)
    return VoxelGrid(origin=origin, spacing=spacing, values=values, margin=padding)


#: inside a :func:`shared_fill` scope, {"spec": the body whose fill is
#: shared, "held": (lattice key, read-only fraction) of its last fill}
_SHARED_FILL = contextvars.ContextVar("shared_fill", default=None)


@contextlib.contextmanager
def shared_fill(spec):
    """Scope in which ``spec``'s supersampled indicator is filled once
    per lattice: the first fill is kept, read-only, and the next request
    for the same (dims, origin, spacing) takes it.  At most one fraction
    is held, and none once the scope ends; other bodies fill as usual.
    """
    token = _SHARED_FILL.set({"spec": spec})
    try:
        yield
    finally:
        _SHARED_FILL.reset(token)


def _fraction(spec, dims, origin, spacing):
    """:func:`supersampled_fraction`, shared inside a :func:`shared_fill`
    scope for ``spec``."""
    shared = _SHARED_FILL.get()
    if shared is None or shared["spec"] is not spec:
        return supersampled_fraction(spec, dims, origin, spacing)
    key = (tuple(dims), origin.tobytes(), spacing)
    held = shared.pop("held", (None, None))
    if held[0] == key:
        return held[1]
    del held  # a miss frees the held fraction before it fills
    frac = supersampled_fraction(spec, dims, origin, spacing)
    frac.flags.writeable = False
    shared["held"] = key, frac
    return frac


def supersampled_fraction(spec, dims, origin, spacing):
    """Per-voxel material fraction: the share of an ss^3 subsample lattice
    inside the material.

    One voxel row of lattice lines at a time, the host solid (without its
    cavities, built once per fill) and then each cavity classify the row
    through their ``_scanline`` hook (scanline parity for meshes, a
    narrow band about the boundary otherwise); each cavity subtracts.
    """
    ss = _SUPERSAMPLE
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    frac, host = np.empty(dims), replace(spec, cavities=())
    ax_x, ax_y, ax_z = (origin[a] + spacing * (np.arange(dims[a])[:, None] + sub[None, :]).ravel()
                        for a in range(3))
    for j in range(dims[1]):
        ys = ax_y[j * ss:(j + 1) * ss]
        inside = host._scanline(ax_x, ys, ax_z)               # (y, z, x)
        for cav in spec.cavities:
            inside &= ~cav._scanline(ax_x, ys, ax_z)
        # a count is at most ss**3 = 64; summing the leading axis first as
        # uint8 is about 4x faster than one bool reduction over three axes
        blocks = inside.view(np.uint8).reshape(ss, dims[2], ss, dims[0], ss)
        counts = blocks.sum(axis=0, dtype=np.uint8).sum(axis=(1, 3), dtype=np.uint8)
        frac[:, j, :] = counts.T / ss**3
    return frac
