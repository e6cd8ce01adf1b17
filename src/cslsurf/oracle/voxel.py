"""Voxelized Gaussian-smoothed density fields.

The field is the body indicator (times density) convolved with an
isotropic Gaussian of width sigma.  One rule picks the field of each
solid, the host and each cavity alike: the solid's closed-form
``_smoothed_unit`` (spheres, boxes, circular and gapped cylinders: erf
products and the noncentral chi-square disc integral) or, where it has
none (cone-capped and elliptic cylinders, meshes), the supersampled
indicator filtered on the grid, which has no point evaluator; it never
reads a signed distance.  The filter is applied in the spectrum: one
rfftn of the indicator, the product with the Gaussian's gain
exp(-k^2 sigma^2 / 2) on the grid's wavenumbers and one irfftn, so the
grid is periodic, as it is for every oracle transform; the zero-field
margin keeps the wrapped tails below ~1e-8 rho, and the gain of 1 at
k = 0 keeps the fill's mass.

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

A grid of 2^20 voxels or more walks its planes in two halves of x: the
caller's thread takes the first and a private pool, one thread per
further core the process may run on, the second.  A plane is the same
numbers on either thread, so the grid keeps its bits.  The same rule
gives the filter's transforms and the oracles' spectrum transform
``workers`` threads, and splits a mode sum's spectrum into two halves
of y rows.  The halves depend on the array's shape alone, so no output
depends on the number of cores.  Work sent to the pool calls no public
function, and a forked child starts without its parent's pool.

The supersampled indicator is the share of a 4x4x4 subsample lattice
per voxel that lies in the material, composed from per-voxel counts
(0..64), never from a mask of the lattice or of its rows.  The host
and each cavity count their subsamples in each voxel through their
``_lattice`` hook.  An analytic solid works in three levels.  Blocks of
4 voxels a side take the solid's clearance, a lower bound on the
distance to the boundary, at their centers; a block whose clearance
exceeds its reach, the largest distance from its center to one of its
subsamples (with a relative slack of 1e-6), cannot be cut by the
boundary, and all its voxels take ``contains`` at its center.  The
voxels of the other blocks do the same with their own reach (3/8 sqrt 3
spacings).  Only the voxels left, the band, classify their 64
subsamples in fixed-size chunks: each voxel's rows of the same axis
arrays go to the solid's inside test as broadcast axes, which is what
``contains`` computes on the gathered points, so each is the lattice
point the pointwise test would see and the counts are exactly its
counts.  A mesh counts from the crossings of one +x ray per (y, z)
subsample line with the faces whose yz shadow, widened by a relative
slack, holds the line at its row, taken in bounded chunks of face/row
and face/line pairs.  A line is inside past each sample that an
odd number of its crossings lie beyond, so its inside runs change only
at its flips, the samples where an odd number of crossings fall; each
flip adds its signed share of subsamples to its voxel and the next,
and one cumulative sum along x turns the shares of a voxel column's
ss^2 lines into its counts, with no pass over the subsamples.  Each
edge is evaluated from one fixed end, so the faces sharing it see
exactly opposite values, and a line exactly on an edge or a vertex is
counted as if moved by an infinitesimal step toward +y (then +z), a
top-left rule: it crosses the surface there once, as a line beside it
would.  Each cavity's counts are subtracted from the host's, as every
other path subtracts cavities; ``build_shape`` keeps each cavity
strictly inside its host and apart from the others, so the difference
is the pointwise count of host and no cavity.  A cavity that counts
more subsamples in a voxel than the host has left there raises
``CavityOverlap``.  The lattice is the same for every shape, so the
fraction is always a count over 64.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
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
    _REACH_SLACK,
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
# threads: the closed-form raster's planes, a mode sum's spectrum rows and
# the transforms of the spectrum and the filter
_PARALLEL_SIZE = 1 << 20


# ---------------------------------------------------------------------------
# threads


def _cores():
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the pool of the threads beside the caller's, made on first use; a forked
# child has none of its parent's threads, so it starts without a pool
_POOL = None
_POOL_LOCK = threading.Lock()


def _forget_pool():
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _halves(n, size):
    """The (start, stop) ranges of 0..n that an array of ``size`` values is
    split into: two halves from ``_PARALLEL_SIZE`` values on, else one."""
    return [(0, n // 2), (n // 2, n)] if size >= _PARALLEL_SIZE else [(0, n)]


def _workers(size):
    """The threads of a transform of ``size`` values."""
    return _cores() if size >= _PARALLEL_SIZE else 1


def _spread(fn, parts):
    """``[fn(part) for part in parts]``: the first part on the caller's
    thread and the others on the pool, under the caller's floating-point
    error handling, where there is more than one core.  ``fn`` must call
    no public function (the benchmark's tracer, which wraps them, is not
    thread-safe), and the parts must not depend on the number of cores,
    so that neither does the result."""
    global _POOL
    if len(parts) == 1 or _cores() == 1:
        return [fn(part) for part in parts]
    errors = np.geterr()

    def run(part):
        with np.errstate(**errors):
            return fn(part)

    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_cores() - 1, thread_name_prefix="cslsurf")
        futures = [_POOL.submit(run, part) for part in parts[1:]]
    try:
        first = fn(parts[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


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

    ``density`` and ``sigma`` must be positive and finite
    (:class:`DegenerateDimension`); a solid without a closed-form field
    raises :class:`UnsupportedShape`."""
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


def _grid_geometry(spec, spacing, padding, max_voxels=DEFAULT_MAX_VOXELS):
    """Dims and origin of the grid over the bounding box plus ``padding``
    on every side; axis sizes are rounded up to FFT-friendly lengths.

    ``max_voxels`` must be a positive integer, an integral float included
    (:class:`ConfigError`).  A
    grid past it raises :class:`GridTooLarge`, and so does one axis past
    it on its own, before its length is rounded.  The fill keeps a
    relative slack of 1e-6 on a voxel's reach, (3/8) sqrt(3) spacings,
    for rounding; a coordinate X rounds by at most eps |X| (eps = 2^-52),
    so a grid whose largest |coordinate| passes 1e-6 (3/8) sqrt(3) / eps,
    about 2.9e9 spacings (146 m at 50 nm), raises
    :class:`DegenerateDimension`: its coordinates no longer resolve the
    subsample lattice.
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
    reach = math.sqrt(3.0) * (_SUPERSAMPLE - 1) / (2 * _SUPERSAMPLE) * spacing
    limit = _REACH_SLACK * reach / np.finfo(float).eps
    if not far <= limit:
        raise DegenerateDimension(
            f"the grid reaches {far:.3g} from the origin, past {limit:.3g}, where its "
            f"coordinates round by more than the fill's reach slack at spacing {spacing:.3g}")
    return tuple(dims), origin


def rasterize_smoothed_density(spec, density, sigma, spacing=None, padding=None,
                               max_voxels=DEFAULT_MAX_VOXELS):
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
    points.  A grid of 2^20 voxels or more takes its planes in two halves,
    on two threads, with the same bits.  Any other body takes the
    supersampled indicator, filtered in the spectrum of the periodic grid
    (:func:`_filtered`); the DFT route of :func:`kspace_outer_integral`
    reads this raster's spectrum.
    """
    spec = build_shape(spec)
    density, sigma, spacing, padding = _grid_lengths(density, sigma, spacing, padding)
    dims, origin = _grid_geometry(spec, spacing, padding, max_voxels)
    solids = (spec, *spec.cavities)
    if any(solid._smoothed_unit is None for solid in solids):
        values = _filtered(supersampled_fraction(spec, dims, origin, spacing), density, sigma,
                           spacing)
    else:
        values = np.empty(dims)
        y = (origin[1] + spacing * np.arange(dims[1]))[:, None]
        z = (origin[2] + spacing * np.arange(dims[2]))[None, :]

        def planes(span):
            for i in range(*span):
                x = np.full((1, 1), origin[0] + spacing * i)
                values[i] = _density(solids, density, sigma, x, y, z)

        _spread(planes, _halves(dims[0], values.size))
    return VoxelGrid(origin=origin, spacing=spacing, values=values, margin=padding)


def _filtered(frac, density, sigma, spacing):
    """``density`` times the fraction ``frac`` convolved with the Gaussian of
    width ``sigma``, in the spectrum: one rfftn, the product with the
    separable gain exp(-k^2 sigma^2 / 2) on the grid's angular wavenumbers
    (``density`` folded into the x factor), in place, and one irfftn.  The
    grid is periodic, as for every oracle transform; the margin keeps the
    wrapped tails below ~1e-8 rho."""
    workers = _workers(frac.size)
    F = sfft.rfftn(frac, workers=workers)
    gx, gy, gz = (np.exp(-0.5 * (sigma * k) ** 2) for k in _wavenumbers(frac.shape, spacing))
    F *= (density * gx)[:, None, None]
    F *= gy[:, None]
    F *= gz
    return sfft.irfftn(F, s=frac.shape, overwrite_x=True, workers=workers)


def _wavenumbers(shape, h):
    """Angular wavenumbers of the rfftn axes of a grid of ``shape``."""
    return (2.0 * np.pi * sfft.fftfreq(shape[0], d=h),
            2.0 * np.pi * sfft.fftfreq(shape[1], d=h),
            2.0 * np.pi * sfft.rfftfreq(shape[2], d=h))


def supersampled_fraction(spec, dims, origin, spacing):
    """Per-voxel material fraction: the share of an ss^3 subsample lattice
    inside the material, a count over ss^3.

    The host solid (without its cavities, built once per fill) and each
    cavity count their subsamples in each voxel through their ``_lattice``
    hook (blocks, then voxels, then the band's subsamples for analytic
    solids; the flips of each line's ray parity for meshes), and each
    cavity's counts are subtracted from the host's, as mass and form
    factor subtract them.  A cavity whose count in some voxel exceeds
    what is left of the host's there leaves its host or meets another
    cavity on the lattice, and raises :class:`CavityOverlap`.
    """
    ss = _SUPERSAMPLE
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    cells = [origin[a] + spacing * (np.arange(dims[a])[:, None] + sub[None, :]) for a in range(3)]
    count = replace(spec, cavities=())._lattice(*cells)
    for i, cav in enumerate(spec.cavities):
        hole = cav._lattice(*cells)
        if np.any(hole > count):
            raise CavityOverlap(f"cavity {i} is not inside what is left of the host "
                                "on the fill's subsample lattice")
        count -= hole
    return count / ss**3
