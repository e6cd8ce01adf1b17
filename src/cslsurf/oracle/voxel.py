"""Voxelized Gaussian-smoothed density fields.

The field is the body indicator (times density) convolved with an
isotropic Gaussian of width sigma.  One rule picks the field of each
solid, the host and each cavity alike (:func:`_unit_field`): a step edge
takes the solid's closed-form ``_smoothed_unit`` (spheres, boxes,
circular and gapped cylinders: erf products and the noncentral
chi-square disc integral) or, where it has none (cone-capped and
elliptic cylinders, meshes), the supersampled indicator filtered on the
grid, which has no point evaluator; it never reads a signed distance.
A soft edge profile is smoothed across the exact signed distance, and a
solid without one (elliptic cylinders, meshes) takes no soft profile.

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
per voxel that lies in the material, composed from per-voxel counts
(0..64), never from a mask of the whole lattice.  The host and each
cavity classify the lattice through their ``_lattice`` hook, which
returns each voxel's side, the band (the voxels the boundary may cut)
and the band's subsample bits.  An analytic solid works in three levels.
Blocks of 4 voxels a side take the solid's clearance, a lower bound on
the distance to the boundary, at their centers; a block whose clearance
exceeds its reach, the largest distance from its center to one of its
subsamples (with a relative slack of 1e-6), cannot be cut by the
boundary, and all its voxels take ``contains`` at its center.  The
voxels of the other blocks do the same with their own reach (3/8 sqrt 3
spacings).  Only the voxels left classify their 64 subsamples, gathered
from the same axis arrays and passed through ``contains`` in fixed-size
chunks, so each is the lattice point the pointwise test would see and
the fractions are exactly its fractions.  Meshes use scanline parity,
one voxel row of lattice lines at a time: one +x ray per (y, z)
subsample line, crossed with every face whose yz bounding box holds the
line, and a running parity along x.  Each edge is evaluated from one
fixed end, so the faces sharing it see exactly opposite values, and a
line exactly on an edge or a vertex is counted as if moved by an
infinitesimal step toward +y (then +z), a top-left rule: it crosses the
surface there once, as a line beside it would.  A body without cavities
counts its host's band alone.  With cavities, the solids' bits are
composed over the union of their bands, a solid taking its side where
the voxel is outside its own band; outside the union a voxel counts 64
if it is in the host and in no cavity.  The lattice is the same for
every shape, so the fraction is always a count over 64.

A body that takes both the filtered raster and the DFT route of the
k-space integral (a mesh or a cone-capped cylinder) reads its indicator
on both, on the same lattice by default.  Its fill is kept, read-only,
for the next request of the other route, in either order
(:func:`_fraction`); the next fill request, gradient or decoherence
integral, or the body's death frees it.  A body that takes one route
keeps nothing.
"""

import math
import os
import weakref
from dataclasses import dataclass, replace
from functools import reduce
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
from ..geometry.shapes import _has_form_factor, _local_axes, _positive, bounding_box, build_shape

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
    (:func:`_local_axes`).  A step edge (``profile`` None or the step)
    takes the solid's ``_smoothed_unit``; None there means only the
    filtered raster can serve the solid.  A soft ``profile`` is
    smoothed across the signed distance, and a solid without one raises
    :class:`UnsupportedShape`.
    """
    if profile is None or profile.is_step:
        return solid._smoothed_unit
    if solid._sdf is None:
        raise UnsupportedShape("soft edge profiles need a signed distance, "
                               f"which {type(solid).__name__} does not provide")
    return lambda x, y, z, sigma: profile.smoothed(solid._sdf(x, y, z), sigma)


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
    whose fill it shares with the DFT route of :func:`kspace_outer_integral`
    on the same lattice, before or after (:func:`_fraction`).
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


#: (weak reference to the body, lattice key, read-only fraction) of the last
#: fill of a body that takes both the filtered raster and the DFT route
_KEPT = None


def _release(ref):
    """Empty the slot when the body of its fill dies."""
    global _KEPT
    kept = _KEPT
    if kept is not None and kept[0] is ref:
        _KEPT = None


def _fraction(spec, dims, origin, spacing):
    """:func:`supersampled_fraction`, or the kept fill of this body and
    (dims, origin, spacing).  The slot is emptied first, so a miss frees
    it before filling and a race costs at most an extra fill.  A new fill
    is kept, read-only, if the body takes the other route too."""
    global _KEPT
    key = (tuple(dims), origin.tobytes(), spacing)
    kept, _KEPT = _KEPT, None
    if kept is not None and kept[0]() is spec and kept[1] == key:
        return kept[2]
    del kept
    frac = supersampled_fraction(spec, dims, origin, spacing)
    if not (_has_form_factor(spec) or all(s._smoothed_unit for s in (spec, *spec.cavities))):
        frac.flags.writeable = False
        _KEPT = weakref.ref(spec, _release), key, frac
    return frac


def _drop_kept():
    """Empty the slot: the gradient and decoherence integrals read no fill."""
    global _KEPT
    _KEPT = None


def supersampled_fraction(spec, dims, origin, spacing):
    """Per-voxel material fraction: the share of an ss^3 subsample lattice
    inside the material, a count over ss^3.

    The host solid (without its cavities, built once per fill) and each
    cavity classify the lattice through their ``_lattice`` hook (blocks,
    then voxels, then the band's subsamples for analytic solids; scanline
    parity for meshes): each voxel's side, the voxels the boundary may cut
    (the band) and their subsample bits.  A body with no cavities asks its
    host for the band's counts alone.  Otherwise, over the union of the
    bands, a solid's bits are its own in its band and its side elsewhere,
    and the host's bits less every cavity's are counted; outside the
    union, a voxel counts ss^3 if it is in the host and in no cavity.
    """
    ss = _SUPERSAMPLE
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    cells = [origin[a] + spacing * (np.arange(dims[a])[:, None] + sub[None, :]) for a in range(3)]
    host = replace(spec, cavities=())
    if not spec.cavities:
        side, band, counts = host._lattice(*cells, counts=True)
    else:
        parts = [solid._lattice(*cells) for solid in (host, *spec.cavities)]
        band = reduce(np.union1d, [part[1] for part in parts])
        side = inside = None
        for solid_side, solid_band, bits in parts:
            full = np.repeat(solid_side.reshape(-1)[band][:, None], ss**3, axis=1)
            full[np.searchsorted(band, solid_band)] = bits
            side = solid_side if side is None else side & ~solid_side
            inside = full if inside is None else inside & ~full
        counts = np.count_nonzero(inside, axis=1)
    count = side * np.uint8(ss**3)
    count.reshape(-1)[band] = counts
    return count / ss**3
