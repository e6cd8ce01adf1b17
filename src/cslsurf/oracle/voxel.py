"""Voxelized Gaussian-smoothed density fields.

The field is the body indicator (times density) convolved with an
isotropic Gaussian of width sigma.  One rule picks the field of each
solid, the host and each cavity alike: the solid's closed-form
``_smoothed_unit`` (spheres, boxes, circular and gapped cylinders: erf
products and the noncentral chi-square disc integral) or, where it has
none (cone-capped and elliptic cylinders, meshes), the supersampled
indicator filtered on the grid, which has no point evaluator; neither
reads a distance.  The filter is applied in the spectrum: one
rfftn of the indicator and the product with the Gaussian's gain
exp(-k^2 sigma^2 / 2) on the grid's wavenumbers (:func:`_filter_spectrum`),
so the grid is periodic, as it is for every oracle transform; the
zero-field margin keeps the wrapped tails below ~1e-8 rho, and the gain
of 1 at k = 0 keeps the fill's mass.  The raster takes one irfftn of
that spectrum; a body's grid oracles square it where it lies, from 2^20
values on built in two passes over its z columns, each of which takes
the gain (:func:`_gain`) on its own columns.

Every field takes the solid's local coordinates as three broadcastable
arrays, from the rule that ``contains`` and ``signed_distance`` use too
(``geometry.shapes._local_axes``: a local coordinate sums only the world
coordinates its frame column does not zero, and takes +-1 as a sign).
The raster walks the grid one plane at a time along the first world axis
that is no solid's local z (x, unless a rod lies along x), and passes
the plane's coordinate as a (1, 1) array and the other two axes, in
order, as (n, 1) and (1, n') arrays; the point evaluator passes the
columns of its points.  On a named axis (x, y or z) the frame holds
only 0 and +-1, so each local coordinate is one world axis minus the
center, and a closed-form factor that reads no more than the walked
axis and one other world axis is taken on n or n' values per plane, not
on n n': a box's erf factors, a cylinder's axial factor, and its disc
factor, which reads the two world axes across its own and so takes one
row per plane.  Those are the numbers a matrix product gives, and a
product of broadcast factors is the product of the same factors per
voxel, so such grids are bit for bit the point evaluator's values.  A
tilted axis sums products in a fixed order, which may round
differently from a matrix product.

A round wall's field differs from 0 or 1 only near it: the ball's and
the disc's factors take their closed form (two ``ndtr`` and two
exponentials, or one ``chndtr``) only from 10 sigma inside to 12 sigma
outside the wall, write 1.0 deeper inside, which is what the closed
form gives there to the bit, and exact 0 farther outside, where a convex
solid's field is at most ndtr(-12) = 1.8e-33 (the half-space bound).  A
ball whose (d + R) / sigma reaches 20 skips its far wall's terms, which
lie below half an ulp of the value.  The raster and the point evaluator
read the same factors, so in-band and interior values keep the bits of
the full closed form, and a value moves only more than 12 sigma outside
a solid, by at most ndtr(-12) rho.

A grid of 2^20 voxels or more walks its planes in two halves where the
process may run on more than one core: the caller's thread takes the
first, and one helper thread, started for the call and joined before it
returns, the second.  A plane is the same numbers on either thread, so
the grid keeps its bits.  The same rule gives the filter's transforms
and the oracles' spectrum transforms one worker per core.  It also marks
the spectra that the oracles build in two passes over their z columns
(two thirds, then the rest, so no pass holds the whole complex
spectrum) and cut to the ball their Gaussian leaves standing; a mode
sum reads them on the caller's thread, whose matrix products take the
BLAS's own threads.  The halves depend on the array alone, so no output
depends on the number of cores.  The helper calls no public function.

The supersampled indicator is the share of a 4x4x4 subsample lattice
per voxel that lies in the material, composed from per-voxel counts
(0..64), never from a mask of the lattice or of its rows.  The host,
as built, and each cavity count their subsamples in each voxel through
their ``_lattice`` hook, from the inside runs of each +x subsample line, the
ray-parity scanline of solid voxelization.  A mesh places them at the
crossings of one +x ray per (y, z) subsample line with the faces whose
yz shadow, widened by a relative slack, holds the line at its row,
taken in bounded chunks of face/row and face/line pairs: a line is
inside past each sample that an odd number of its crossings lie beyond,
so its runs change only at its flips, the samples where an odd number
of crossings fall.  Each edge is evaluated from one fixed end, so the
faces sharing it see exactly opposite values, and a line exactly on an
edge or a vertex is counted as if moved by an infinitesimal step toward
+y (then +z), a top-left rule: it crosses the surface there once, as a
line beside it would.  An analytic solid places them at the closed-form
roots of its comparisons along the line (a sphere's |p|^2 = R^2, a
box's faces, a wall's r^2 = r(z)^2 and its ends), along lines whose
local coordinates come from the points' own rule, each within a window
that holds its rounding: 1e-9 of the body's size, or its square.  No
rounding can flip a comparison between the windows, so a line with no
subsample in one is inside exactly where the closed forms say; on a
named axis their terms take one value per lattice row or column.  A
line with a subsample in a window, one that lies in a face or grazes
the surface, takes the solid's inside test at each subsample, on the
broadcast axes of its row and column, which is what ``contains``
computes on the gathered points, so the counts are exactly the pointwise
ones.  Each run adds its share of subsamples to the voxel where it
starts and takes it off where it stops, and one pass over the x-planes
turns the shares of a voxel column's ss^2 lines into its counts, with
no pass over the subsamples.  Each cavity's counts are subtracted from
the host's, as every other path subtracts cavities; a body's cavities
are checked inside it and apart as it is built, so the difference is
the pointwise count of host and no cavity.  A cavity that counts more
subsamples in a voxel than the host has left there (it leaves between
the check's probes) raises ``CavityOverlap``.  The lattice is the same
for every shape, so the fraction is always a count over 64.
"""

import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import fft as sfft

from ..errors import (
    CavityOverlap,
    ConfigError,
    DegenerateDimension,
    GridTooLarge,
    ParseError,
    SpacingTooCoarse,
    UnsupportedShape,
)
from ..geometry.patches import _array, _scalar
from ..geometry.shapes import (
    _local_axes,
    _point_axes,
    bounding_box,
    build_shape,
)

#: default zero-field margin around the body, in units of sigma.  Five
#: sigma leaves a step-edge residue of ~3e-7 rho at the grid boundary;
#: six pushes it below 1e-8 rho.
DEFAULT_PADDING_SIGMA = 6.0
MIN_PADDING_SIGMA = 5.0
DEFAULT_MAX_VOXELS = 512**3
# even, so that no subsample sits exactly on a cell center where a
# grid-aligned facet could pass
_SUPERSAMPLE = 4
# an array of this many values or more is split in two halves for the
# threads: the closed-form raster's planes and the transforms of the
# spectrum and the filter; a spectrum is also built in two passes over its
# z columns and cut to a ball of x pencils from this size on (read at call
# time, as voxel._PARALLEL_SIZE)
_PARALLEL_SIZE = 1 << 20


# ---------------------------------------------------------------------------
# threads


def _cores():
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(size):
    """The threads of a transform of ``size`` values."""
    return _cores() if size >= _PARALLEL_SIZE else 1


def _split(fn, n, size):
    """``fn(0, n)`` for an array of ``size`` values.  From
    ``_PARALLEL_SIZE`` values on, where there is more than one core, the
    call is split in two halves: ``fn(0, n // 2)`` on the caller's thread
    and ``fn(n // 2, n)`` on one helper thread, under the caller's
    floating-point error handling; the helper is joined before this
    returns, and an exception of either half is raised once both have
    ended.  ``fn`` must call no public function (the benchmark's tracer,
    which wraps them, is not thread-safe), and the halves depend on ``n``
    alone, so the result does not depend on the number of cores."""
    if size < _PARALLEL_SIZE or _cores() == 1:
        fn(0, n)
        return
    errors, failed = np.geterr(), []

    def second():
        try:
            with np.errstate(**errors):
                fn(n // 2, n)
        except BaseException as exc:    # raised on the caller's thread
            failed.append(exc)

    helper = threading.Thread(target=second, name="cslsurf-raster")
    helper.start()
    try:
        fn(0, n // 2)
    finally:
        helper.join()
    if failed:
        raise failed[0]


@dataclass
class VoxelGrid:
    """Regular scalar field: values[i, j, k] at origin + (i, j, k) * spacing."""

    origin: np.ndarray    # (3,) m, position of values[0, 0, 0]
    spacing: float        # m, uniform
    values: np.ndarray    # (nx, ny, nz)
    margin: float = 0.0   # zero-field padding width around the body, m

    def __post_init__(self):
        self.origin = _array("origin", self.origin, (3,))
        self.spacing = _scalar("spacing", self.spacing, 0.0, open=True)
        self.margin = _scalar("margin", self.margin, 0.0)
        self.values = _array("values", self.values, (None, None, None), finite=False)
        if self.values.size == 0:
            raise DegenerateDimension(f"values must have no empty axis, got {self.values.shape}")

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
    hold; they raise :class:`ParseError`, as does a first line that is
    not ASCII or has no newline within its first 1024 bytes (a header
    takes at most about 200), and a header whose spacing, origin or
    margin :class:`VoxelGrid` rejects.
    """
    with open(Path(path), "rb") as fh:
        line = fh.readline(1024)
        header = line.decode().split() if line.isascii() and line.endswith(b"\n") else []
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


def _density(solids, density, sigma, x, y, z):
    """Smoothed density at the world points (x, y, z) of broadcastable
    arrays from the ``_smoothed_unit`` of the host and then of each
    cavity, which subtract."""
    out = None
    for solid in solids:
        value = solid._smoothed_unit(*_local_axes(solid, x, y, z), sigma)
        out = value if out is None else out - value
    return density * out


def smoothed_density(spec, density, sigma, points):
    """Pointwise sigma-smoothed density of the body (cavities subtract).

    A ball or disc factor is exact 0 more than 12 sigma outside its wall
    (the full closed form is at most ndtr(-12) = 1.8e-33 there) and 1.0
    more than 10 sigma inside.  ``density`` and ``sigma`` must be
    positive and finite (:class:`DegenerateDimension`); a solid without a
    closed-form field raises :class:`UnsupportedShape`."""
    density = _scalar("density", density, 0.0, open=True)
    sigma = _scalar("sigma", sigma, 0.0, open=True)
    spec = build_shape(spec)
    solids = (spec, *spec.cavities)
    for solid in solids:
        if solid._smoothed_unit is None:
            raise UnsupportedShape(
                f"no point evaluator for {type(solid).__name__}; rasterize instead")
    return _density(solids, density, sigma, *_point_axes(points))


# ---------------------------------------------------------------------------
# rasterization


def _grid_lengths(density, sigma, spacing=None, padding=None):
    """Checked (density, sigma, spacing, padding) of a grid of the
    ``sigma``-smoothed ``density``.  ``spacing`` defaults to sigma / 2 and
    may not be coarser (:class:`SpacingTooCoarse`); ``padding`` defaults
    to 6 sigma and may not be below 5.  Any other unusable value, a
    non-positive, non-finite or non-real one included, raises
    :class:`DegenerateDimension`."""
    density = _scalar("density", density, 0.0, open=True)
    sigma = _scalar("sigma", sigma, 0.0, open=True)
    spacing = _scalar("spacing", sigma / 2.0 if spacing is None else spacing, 0.0, open=True)
    padding = _scalar("padding", DEFAULT_PADDING_SIGMA * sigma if padding is None else padding)
    if spacing > sigma / 2.0 * (1.0 + 1e-12):
        raise SpacingTooCoarse(f"spacing {spacing} exceeds sigma/2 = {sigma / 2}")
    if padding < MIN_PADDING_SIGMA * sigma:
        raise DegenerateDimension(
            f"padding must be at least {MIN_PADDING_SIGMA} sigma, got {padding}")
    return density, sigma, spacing, padding


#: the largest rounding of a grid coordinate that :func:`_grid_geometry`
#: lets pass, relative to the distance from a voxel's center to its
#: corner subsamples
_REACH_SLACK = 1e-6


def _grid_geometry(spec, spacing, padding, max_voxels=DEFAULT_MAX_VOXELS):
    """Dims and origin of the grid over the bounding box plus ``padding``
    on every side; axis sizes are rounded up to FFT-friendly lengths.

    ``max_voxels`` must be a positive integer, an integral float included
    (:class:`ConfigError`).  A
    grid past it raises :class:`GridTooLarge`, and so does one axis past
    it on its own, before its length is rounded.  A coordinate X rounds
    by at most eps |X| (eps = 2^-52), so a grid whose largest
    |coordinate| passes ``_REACH_SLACK`` (1e-6) of the distance from a
    voxel's center to its corner subsamples, (3/8) sqrt(3) spacings, over
    eps, about 2.9e9 spacings (146 m at 50 nm), raises
    :class:`DegenerateDimension`: its coordinates no longer resolve the
    subsample lattice to that share of a voxel.
    """
    max_voxels = _scalar("max_voxels", max_voxels, 1, integer=True, error=ConfigError)
    lo, hi = bounding_box(spec)
    dims, origin = [], []
    for i in range(3):
        span = (hi[i] - lo[i]) + 2.0 * padding
        if not span / spacing + 1 <= max_voxels:
            raise GridTooLarge(f"axis {'xyz'[i]} alone takes {span / spacing + 1:.3g} voxels, "
                               f"past the cap {max_voxels}")
        n = sfft.next_fast_len(int(math.ceil(span / spacing)) + 1, real=True)
        mid = 0.5 * (lo[i] + hi[i])
        dims.append(n)
        origin.append(mid - 0.5 * (n - 1) * spacing)
    n_total = math.prod(dims)
    if n_total > max_voxels:
        raise GridTooLarge(f"{tuple(dims)} = {n_total} voxels exceed cap {max_voxels}")
    origin = np.array(origin)
    far = np.max(np.abs([origin, origin + (np.array(dims) - 1) * spacing]))
    corner = math.sqrt(3.0) * (_SUPERSAMPLE - 1) / (2 * _SUPERSAMPLE) * spacing
    limit = _REACH_SLACK * corner / np.finfo(float).eps
    if not far <= limit:
        raise DegenerateDimension(
            f"the grid reaches {far:.3g} from the origin, past {limit:.3g}, where its "
            f"coordinates no longer resolve the subsample lattice at spacing {spacing:.3g}")
    return tuple(dims), origin


def rasterize_smoothed_density(spec, density, sigma, spacing=None, padding=None,
                               max_voxels=DEFAULT_MAX_VOXELS):
    """Rasterize the sigma-smoothed density onto a regular grid.

    The grid covers the body bounding box plus ``padding`` (default 6
    sigma, at least 5) on every side; axis sizes are rounded up to
    FFT-friendly lengths.  ``spacing`` defaults to sigma / 2 and may not
    be coarser.

    A body whose solids all have a field is evaluated one plane at a time
    on the broadcast local axes of the plane (the walked axis as (1, 1),
    the others as (n, 1) and (1, n')), along x unless a solid's local z
    is x, so temporaries stay plane-sized and a factor that depends on
    one world axis is taken once per value of that axis; on named axes
    the grid is bit for bit :func:`smoothed_density` at its points.  A
    ball or disc factor takes its closed form only on the band from 10
    sigma inside to 12 sigma outside its wall, and is 1.0 deeper in and 0
    farther out, so a voxel more than 12 sigma outside a solid may read up
    to ndtr(-12) rho = 1.8e-33 rho below the full closed form.  A grid of
    2^20 voxels or more takes its planes in two halves, on two threads,
    with the same bits.  Any other body takes the
    supersampled indicator, filtered in the spectrum of the periodic grid
    (:func:`_filter_spectrum`) and brought back by one irfftn.
    """
    spec = build_shape(spec)
    density, sigma, spacing, padding = _grid_lengths(density, sigma, spacing, padding)
    dims, origin = _grid_geometry(spec, spacing, padding, max_voxels)
    if _sampled(spec):
        values = sfft.irfftn(_filter_spectrum(spec, dims, origin, density, sigma, spacing),
                             s=dims, overwrite_x=True, workers=_workers(math.prod(dims)))
    else:
        solids = (spec, *spec.cavities)
        values = np.empty(dims)
        # the first world axis that is no solid's local z: a named rod along
        # it would take its disc factor on every voxel of each plane
        walk = next((a for a in range(3)
                     if all(abs(solid._frame[a, 2]) != 1.0 for solid in solids)), 0)
        b, c = (a for a in range(3) if a != walk)
        rows = (origin[b] + spacing * np.arange(dims[b]))[:, None]
        columns = (origin[c] + spacing * np.arange(dims[c]))[None, :]
        stack = np.moveaxis(values, walk, 0)    # a view: stack[i] is plane i

        def planes(start, stop):
            for i in range(start, stop):
                axes = [rows, columns]
                axes.insert(walk, np.full((1, 1), origin[walk] + spacing * i))
                stack[i] = _density(solids, density, sigma, *axes)

        _split(planes, dims[walk], values.size)
    return VoxelGrid(origin=origin, spacing=spacing, values=values, margin=padding)


def _sampled(spec):
    """Whether a solid of the body has no closed-form field: a filtered raster."""
    return any(solid._smoothed_unit is None for solid in (spec, *spec.cavities))


def _filter_spectrum(spec, dims, origin, density, sigma, spacing):
    """The filtered raster's spectrum: one rfftn of the body's supersampled
    fraction, which dies with it, times the filter's :func:`_gain`."""
    F = sfft.rfftn(supersampled_fraction(spec, dims, origin, spacing),
                   workers=_workers(math.prod(dims)))
    _gain(dims, density, sigma, spacing)(F, slice(None))
    return F


def _gain(dims, density, sigma, spacing):
    """The filter of a grid of ``dims``: a function that multiplies the
    columns z of its half spectrum, held in F, in place by ``density`` and
    the separable gain exp(-k^2 sigma^2 / 2) on the grid's angular
    wavenumbers, so that a part of the columns takes the bits of the whole."""
    gx, gy, gz = (np.exp(-0.5 * (sigma * k) ** 2) for k in _wavenumbers(dims, spacing))

    def apply(F, z):
        F *= (density * gx)[:, None, None]
        F *= gy[:, None]
        F *= gz[z]

    return apply


def _wavenumbers(shape, h):
    """Angular wavenumbers of the rfftn axes of a grid of ``shape``."""
    return (2.0 * np.pi * sfft.fftfreq(shape[0], d=h),
            2.0 * np.pi * sfft.fftfreq(shape[1], d=h),
            2.0 * np.pi * sfft.rfftfreq(shape[2], d=h))


def supersampled_fraction(spec, dims, origin, spacing):
    """Per-voxel material fraction: the share of an ss^3 subsample lattice
    inside the material, a count over ss^3.

    The body as built, whose cavities no hook of the fill reads, and each
    cavity count their subsamples in each voxel through their ``_lattice``
    hook (the inside runs of each +x subsample line: at the closed-form
    roots of an analytic solid, at the ray crossings of a mesh), so the
    fill builds no shape.  Each cavity's counts are subtracted from the
    host's, as mass and form factor subtract them.  A cavity whose count
    in some voxel exceeds what is left of the host's there leaves its host
    or meets another cavity on the lattice, and raises
    :class:`CavityOverlap`.
    """
    ss = _SUPERSAMPLE
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    cells = [origin[a] + spacing * (np.arange(dims[a])[:, None] + sub[None, :]) for a in range(3)]
    count = spec._lattice(*cells)
    for i, cav in enumerate(spec.cavities):
        hole = cav._lattice(*cells)
        if np.any(hole > count):
            raise CavityOverlap(f"cavity {i} is not inside what is left of the host "
                                "on the fill's subsample lattice")
        count -= hole
    return count / ss**3
