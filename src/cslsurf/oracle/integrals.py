"""Brute-force evaluations of the decoherence structure.

The central identity under test: the Gaussian-damped second moment of
the body form factor,

    K = int exp(-k^2 sigma^2) |mu_k|^2 (k o k) dk,

equals (2 pi)^3 times the volume integral of grad(mu_sigma) o
grad(mu_sigma), and for bodies much larger than sigma collapses to
(2 pi)^3 rho^2 / (2 sqrt(pi) sigma) times the surface tensor.  The three
routes here are mutually independent, but for one thing: a sampled body
has no form factor, and its k-space tensor is the gradient sum of its
one spectrum.

* :func:`gradient_outer_integral` differentiates a rasterized smoothed
  field spectrally, with the exact derivative symbol,
* :func:`kspace_outer_integral` integrates the analytic form factor in
  one refinement loop, whose radial nodes double until the tensor
  settles.  Each shape's ``_kspace_local`` hook picks the rule of its
  steps: the body-frame rule (closed form for a bare box or a concentric
  shell or ball, one radial integral for a bare rod) or, where the hook
  declines, a radial x angular ladder in world axes.  A body without a form
  factor is one without a closed-form field, so it has a filtered
  raster, and its DFT route is the gradient sum of that raster's spectrum,
* :func:`surface_formula_outer_integral` applies the closed-form surface
  scaling.

:func:`decoherence_function` evaluates the full (non-quadratic)
positional dephasing rate from the field autocorrelation.

The gradient route and the decoherence function are Parseval sums over
the power spectrum P = w |F(k)|^2 of a gridded field, each with its own
mode weight, read from one record (``_Spectrum``) of P
and its grid.  :func:`_power` makes it of a grid: it transforms each
value content once and keeps the spectra of the two most recently used
value contents, so a scan of many oracle calls on one grid, or on grids
whose values are equal bit for bit (a grid and its re-read file), pays
for one transform; the values of a transformed or matched grid are
read-only, and so is the array that owns their memory.
:func:`_body_spectrum` makes it of a body: a sampled body's
P is its filter's spectrum squared, one fill and one transform.

A grid whose axes are all even and whose values equal their mirror image
in each axis bit for bit (a closed-form raster of a mirror-symmetric body
is such a grid by construction, and so is its re-read file) takes the
octant route (:func:`_octant`): its transform has the modulus of the
type-II DCT of its upper octant, so P is the square of one ``dctn`` of
that octant, on the modes 0 <= k < n/2 of each axis, times their
multiplicities (1 at k = 0, 2 elsewhere; the Nyquist modes are 0).  It is
held whole, an eighth of the grid's bytes, in column slices of one dense
array with no gather map, and every weight is even in each k_i, so the
gradient is diagonal and the decoherence weight is 1 - cos a cos b cos c.
Its sums move from the whole route's by rounding.  Every other grid takes
the whole route, below.  Below
2^20 values P comes of one rfftn; a larger P is built in two passes over
its z columns, the low two thirds and then the rest, each transformed in
rfftn's own axis order and squared before the next (:func:`_parts`), so
no more than two thirds of the complex half spectrum is held at once and
each mode keeps the bits of the one transform.  The record holds P in
blocks of x pencils, and the sum over x of what it holds of each (y, z)
column (:func:`_blocks`).  Below 2^20 values P is one block, every
pencil whole; a larger P is cut to the ball |k| < r outside which the
Gaussian leaves at most 2^-60 of sum P and of sum P |k|^2.  In the
order of |k_x| the ball's modes of a column are a prefix, its pencil,
and the columns of each pass are grouped by pencil length into dense
blocks: 0.53-0.56 of the modes on sigma/2 grids, where the ball has
0.50.  The blocks' columns, one after the other, make one column
order: each block holds a slice of it, and a gather map sends each
(y, z) column to its place there, or past its end where no block holds
it.  Each weight is a short sum of per-axis products, so one kernel,
:func:`_mode_sum`, reads each block once: one matrix product of a few
rows of x factors with its pencils, written into the block's slice of
one (rows, held columns + 1) array, whose last column is zero; each
row of that array is gathered into a (ny, nz') plane by the map and
meets a few rows of y factors in one more product, all on the caller's
thread, so beside that array one plane at a time is made.  Each caller
ends over z with vectors of nz' values.  The weights are

* k o k, the derivative symbol's outer product, in
  :func:`gradient_outer_integral` and the DFT route of
  :func:`kspace_outer_integral` (its diagonal on an octant),
* 1 - cos(k . delta), as -Re of e^{i k . delta} - 1 split by axis, in
  :func:`decoherence_function`, whose terms without an x phase read the
  column sums instead of a row of ones; on an octant, (1 - cos a) +
  cos a (1 - cos b) + cos a cos b (1 - cos c), each 1 - cos formed as
  2 sin^2 of the half angle.
"""

import math
import threading
import weakref
from collections import namedtuple
from dataclasses import replace

import numpy as np
from scipy import fft as sfft

from ..csl import CslParams, _density_squared
from ..errors import DegenerateDimension, QuadratureNotConverged, ShiftOutOfGrid
from ..geometry.patches import _array, _scalar
from ..geometry.shapes import (
    _gl,
    _has_form_factor,
    _leggauss,
    _points,
    _sphere_patches,
    build_shape,
)
from ..tensors import _psd
from . import voxel
from .voxel import (
    DEFAULT_MAX_VOXELS,
    VoxelGrid,
    _gain,
    _grid_geometry,
    _grid_lengths,
    _sampled,
    _wavenumbers,
    _workers,
    rasterize_smoothed_density,
)

KMAX_SIGMA = 8.0  # radial cutoff k_max = KMAX_SIGMA / sigma; Gaussian tail < 1e-27
# the refinement loop stops once one rung changes K by less than KSPACE_TOL
# (relative); its last rung has MAX_RADIAL_NODES radial nodes
KSPACE_TOL = 1e-4
MAX_RADIAL_NODES = 4096
_RADIAL_CHUNK = 128  # radial nodes per form-factor call of the k-space ladder


# ---------------------------------------------------------------------------
# spectral mode sums over a grid


# power spectra of the two most recently used value contents, least
# recently used first: ([weak references to the value arrays known to
# hold those bits], (the blocks of P, their column sums, their gather
# map)).  An entry goes
# when the last of its arrays dies.  The lock is reentrant because a weak
# reference's callback can run in any thread, including one that holds it.
_SPECTRA = []
_SPECTRA_LOCK = threading.RLock()


def _forget(ref):
    with _SPECTRA_LOCK:
        for refs, _ in _SPECTRA:
            refs[:] = [r for r in refs if r is not ref]
        _SPECTRA[:] = [entry for entry in _SPECTRA if entry[0]]


def _same_bits(a, b):
    """Whether two arrays of one shape and dtype hold the same bits.

    They are compared one x-plane at a time as unsigned integers, so no
    full-size temporary is built, the first differing plane ends the
    comparison, and NaNs and signed zeros compare by their bits."""
    if (a.shape != b.shape or a.dtype != b.dtype
            or a.dtype.kind not in "biuf" or a.dtype.itemsize not in (1, 2, 4, 8)):
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return all(np.array_equal(p.view(bits), q.view(bits)) for p, q in zip(a, b))


# the share of each of its sums that a cut spectrum may leave out
_TAIL = 2.0**-60
# the most groups, by the length of their x pencils, of the columns of
# each pass over a cut spectrum's z columns
_GROUPS = 8
# the most columns of an octant record's block: one matrix product over
# all the plate's 18,225 columns took 8 ms where its slices took 0.25 ms
# with two BLAS threads, and 0.38 against 0.30 ms with one
_COLUMNS = 4096

# one group of x pencils of P: the x indices they share (a slice, or the
# + and then the - frequencies of least |k_x|), their columns (the slice
# [lo, hi) of the record's column order that they fill) and the dense
# (x, columns) array of P's values there
_Block = namedtuple("_Block", "x columns values")

# what every Parseval sum reads: the blocks of P = w_z |F|^2 of a grid's
# half spectrum F (one rfftn, or two passes over its z columns) that hold
# every mode the sums need, the (ny, nz') sums over x of each column's
# held values, the read-only (ny, nz') gather map (each column's place in
# the blocks' column order, the number of held columns where no block
# holds it), and the grid; or, on an octant (:func:`_octant`), blocks that
# are column slices of P on the modes 0 <= k < n/2 of each axis, in order,
# their (ny/2, nz/2) column sums, and no gather map (None)
_Spectrum = namedtuple("_Spectrum", "blocks sums place spacing dims margin")


def _squared(F, nz, z0=0):
    """Read-only P = w_z |F|^2 (w_z counts each column's Hermitian twin) of
    the columns z0, z0 + 1, ... of the half spectrum of a grid of ``nz`` z
    values, held in F, written into F's own buffer one x-plane at a time
    in increasing order, then shrunk to size: a part of the P that
    :func:`_blocks` cuts."""
    n = F.shape
    z = np.arange(z0, z0 + n[2])
    wz = np.where((z == 0) | (2 * z == nz), 1.0, 2.0)
    plane = n[1] * n[2]
    flat = F.view(np.float64).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n[0]):
            flat[i * plane:(i + 1) * plane] = ((F[i].real**2 + F[i].imag**2) * wz).ravel()
    del flat
    F.resize((n[0] * plane + 1) // 2, refcheck=False)
    P = F.view(np.float64)[:n[0] * plane].reshape(n)
    P.flags.writeable = False
    return P


# the most complex values that one z transform of a slab of x-planes makes:
# the only temporary of a pass beside its columns, so small against them
_SLAB = 1 << 15


def _parts(values, gain=None):
    """P = w_z |F|^2 of the half spectrum F of the rfftn of the grid
    ``values``, times ``gain(F, z)`` (which multiplies F's columns z in
    place) where given, as read-only parts that tile its z columns in
    order (:func:`_squared`).

    A P of fewer than ``_PARALLEL_SIZE`` values is one part, from one
    rfftn.  A larger one is built in two passes, the first over the low
    two thirds of the columns and the second over the rest, so that no
    pass holds more than two thirds of F: a pass takes the rfft along z
    of a few x-planes at a time (at most ``_SLAB`` values), keeps its
    columns, then takes the fft along x and then along y in place.  That
    is the order of the axes inside rfftn, so each mode has the bits of
    the one transform.  The pass then applies the gain, squares and
    shrinks, before the next begins."""
    n = values.shape
    m = n[2] // 2 + 1
    workers = _workers(values.size)
    if n[0] * n[1] * m < voxel._PARALLEL_SIZE:
        F = sfft.rfftn(values, workers=workers)
        if gain is not None:
            gain(F, slice(None))
        return [_squared(F, n[2])]
    parts, step = [], max(1, _SLAB // (n[1] * m))
    for z in _passes(m):
        F = np.empty((n[0], n[1], z.stop - z.start), complex)
        for i in range(0, n[0], step):
            F[i:i + step] = sfft.rfft(values[i:i + step], axis=2, workers=workers)[:, :, z]
        sfft.fftn(F, axes=(0, 1), overwrite_x=True, workers=workers)
        if gain is not None:
            gain(F, z)
        parts.append(_squared(F, n[2], z.start))
        del F
    return parts


def _passes(m):
    """The z columns of each pass over a half spectrum of ``m`` z columns:
    the low two thirds, then the rest."""
    edges = sorted({0, (2 * m + 2) // 3, m})
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _blocks(parts, dims):
    """The blocks, column sums and gather map of a record of the half
    spectrum P of a grid of ``dims``, from the parts of P that tile its z
    columns in order (:func:`_parts`).  The list is emptied, so that each
    part dies as soon as its blocks are gathered.

    A P of fewer than ``_PARALLEL_SIZE`` values is one block, P itself.
    A larger one is cut to a ball |k| < r: sum P and sum P |k|^2 are
    tallied over shells of the width of the grid's smallest wavenumber
    step, in increasing |k_x|, the planes of +k_x and -k_x added (they
    share their shells), so the tally reads the same values in the same
    order whatever parts P comes in, and r is the smallest shell edge
    past which both tails are at most ``_TAIL`` (2^-60) of their totals.
    Each sum's weight is bounded by a multiple of 1 or of |k|^2, so no
    sum moves by more than 2^-60 of its scale.  In the order of |k_x| the
    modes of each (y, z) column that lie inside the ball are a prefix, the
    x pencil of the column, whose length one search over the distinct
    k_x^2 counts.  The columns of each pass (:func:`_passes`, whatever
    parts P comes in, so that two passes give the record of one
    transform) are grouped by that length
    (:func:`_ranges`, ``_GROUPS`` groups at most), and a group is held as
    one contiguous array of the x of its longest pencil, gathered from
    P's two x ranges of the + and the - frequencies: shorter pencils are
    padded with P's own values, each mode is held once at most, and
    columns wholly outside the ball are left out.  The groups' columns,
    one group after another, are one column order: each block is given
    its slice of it, and the read-only gather map, of the shape of the
    column sums, each column's place in it, or the number of held columns
    where no block holds it.  Each group's column sums are taken as it is
    gathered.  The parts are gathered in
    descending z and each is let go once its groups are.  Tails that are
    not finite, or a ball that holds every mode (white noise), leave P
    whole: one block of every column, in order, whose gather map sends
    each column to its own index, so those sums keep their bits and a
    grid that is not finite still raises.
    """
    def whole():
        P = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)
        parts.clear()
        P.flags.writeable = False
        with np.errstate(over="ignore", invalid="ignore"):
            sums = P.sum(axis=0)
        place = np.arange(sums.size).reshape(sums.shape)
        place.flags.writeable = False
        return [_Block(slice(None), slice(0, sums.size), P.reshape(dims[0], -1))], sums, place

    if sum(p.size for p in parts) < voxel._PARALLEL_SIZE:
        return whole()
    kx2, ky2, kz2 = (k * k for k in _wavenumbers(dims, 1.0))
    step = 2.0 * np.pi / max(dims)

    def shell(k2):  # of kx^2 + (ky^2 + kz^2), which rounds up as any term grows
        k = np.sqrt(k2)
        k /= step
        return k.astype(np.intp)

    yz2 = ky2[:, None] + kz2
    u, counts = np.unique(kx2, return_counts=True)    # the distinct k_x^2, increasing
    top = int(shell(u[-1] + yz2.max()))    # the shell of the farthest mode
    tally = np.zeros((2, top + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for x2 in u:    # the planes of +k_x and -k_x share their shells: one tally
            k2 = x2 + yz2
            s = shell(k2).ravel()
            planes = np.flatnonzero(kx2 == x2)
            p = np.concatenate([q[planes].sum(axis=0) for q in parts], axis=1)
            tally[0] += np.bincount(s, p.ravel(), top + 2)
            tally[1] += np.bincount(s, (p * k2).ravel(), top + 2)
    tails = np.cumsum(tally[:, ::-1], axis=1)[:, ::-1]    # tails[:, n]: shells n and on
    if not np.all(np.isfinite(tails[:, 0])):
        return whole()
    r = max(1, int(np.argmax(np.all(tails <= _TAIL * tails[:, :1], axis=0))))
    if r > top:
        return whole()
    # each column's pencil: the number of x whose k_x^2 is one of the j
    # least distinct values, j found from the bound (r step)^2 - ky^2 - kz^2
    # and mended by one step where that bound rounds across a value
    def inside(j):
        return shell(u[np.clip(j, 0, len(u) - 1)] + yz2) < r

    j = np.searchsorted(u, (r * step) ** 2 - yz2)
    j += (j < len(u)) & inside(j)
    j -= (j > 0) & ~inside(j - 1)
    length = np.concatenate([[0], np.cumsum(counts)])[j]
    nx, nz = dims[0], yz2.shape[1]
    cuts = []
    for z in _passes(nz):
        local = length[:, z].ravel()
        for g0, g1 in _ranges(local.max() + 1, _GROUPS):
            columns = np.flatnonzero((local >= max(g0, 1)) & (local < g1))
            if columns.size:
                y, zc = np.divmod(columns, z.stop - z.start)
                cuts.append((z.start, y, zc + z.start, local[columns].max()))
    if len(cuts) < 2:
        return whole()
    starts = np.cumsum([0] + [p.shape[2] for p in parts])
    edges = np.cumsum([0] + [y.size for _, y, _, _ in cuts]).tolist()    # each block's slice
    blocks, sums = [None] * len(cuts), np.zeros(yz2.shape)
    place = np.full(yz2.shape, edges[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in reversed(range(len(cuts))):
            z0, y, z, n = cuts[i]
            while starts[len(parts) - 1] > z0:
                parts.pop()
            part = parts[-1]
            columns = y * part.shape[2] + z - starts[len(parts) - 1]
            part = part.reshape(nx, -1)
            plus, minus = (n + 1) // 2, n // 2    # the x of least |k_x|: 0, 1, -1, 2, -2, ...
            values = np.empty((n, columns.size))
            np.take(part[:plus], columns, axis=1, out=values[:plus], mode="clip")
            np.take(part[nx - minus:], columns, axis=1, out=values[plus:], mode="clip")
            del part
            columns = y * nz + z
            sums.flat[columns] = values.sum(axis=0)
            place.flat[columns] = np.arange(edges[i], edges[i + 1])
            blocks[i] = _Block(np.r_[0:plus, nx - minus:nx], slice(edges[i], edges[i + 1]), values)
    parts.clear()
    place.flags.writeable = False
    return blocks, sums, place


def _ranges(n, parts):
    """Up to ``parts`` ranges of 0..n, from edges at n sqrt(i / parts):
    they narrow toward n, as the columns of a ball crowd toward its long
    pencils (some L columns have a pencil of length L).  Rounding may
    close some; they are left out."""
    edges = np.unique((n * np.sqrt(np.arange(parts + 1) / parts)).round().astype(int))
    return zip(edges[:-1], edges[1:])


def _freeze(values):
    """Make ``values`` read-only, and each array on its ``.base`` chain:
    numpy collapses that chain to the array that owns the memory."""
    while isinstance(values, np.ndarray):
        values.flags.writeable = False
        values = values.base


def _power(grid: VoxelGrid):
    """The spectrum record of the grid's values (:func:`_record`): P of the
    octant of a grid that equals its mirror image, else their P
    (:func:`_parts`, one rfftn, or two passes over its z columns from 2^20
    values on), cut by :func:`_blocks`.

    P depends on the values alone, not on the grid's origin, spacing or
    margin, and so does its cut, which counts wavenumbers in steps, so
    the blocks and their column sums are kept per value content: those of
    the two most recently used contents are held, each with weak
    references to the arrays known to hold its bits.  An array is looked up by identity,
    then compared bit for bit with one live array of each held spectrum
    (:func:`_same_bits`); a match joins that spectrum without a
    transform.  A spectrum is freed when the last of its arrays dies, and
    a miss evicts before it transforms.  An array that is transformed or
    joins a spectrum is made read-only, and so is the array that owns its
    memory (:func:`_freeze`; numpy's ``.base`` leads straight to it): an
    in-place edit of either raises instead of leaving a stale spectrum,
    and a new array assigned to ``grid.values`` is looked up afresh.
    numpy does not track views, so any other view of that memory stays
    writeable, whenever it was taken (before the first oracle call or
    after it), and an edit through it leaves the spectrum stale: such a
    view must not be edited.
    """
    values = grid.values
    with _SPECTRA_LOCK:
        entry = next((e for e in _SPECTRA if any(ref() is values for ref in e[0])), None)
        if entry is None:
            for candidate in list(_SPECTRA):
                # holding one of its arrays keeps the entry alive while it is compared
                held = next((a for a in (ref() for ref in candidate[0]) if a is not None), None)
                if held is not None and _same_bits(held, values):
                    _freeze(values)
                    candidate[0].append(weakref.ref(values, _forget))
                    entry = candidate
                    break
        if entry is not None:
            _SPECTRA[:] = [e for e in _SPECTRA if e is not entry] + [entry]
            return _Spectrum(*entry[1], grid.spacing, grid.dims, grid.margin)
        del _SPECTRA[:-1]      # evict first: one held spectrum at most beside F
    _freeze(values)
    record = _record(grid)
    with _SPECTRA_LOCK:
        _SPECTRA.append(([weakref.ref(values, _forget)], record[:3]))
        del _SPECTRA[:-2]
    return record


def _record(grid: VoxelGrid):
    """:func:`_power`'s record of the grid, made afresh and not held: on the
    octant (:func:`_octant`) where every axis is even and the values equal
    their mirror image in each axis bit for bit (:func:`_symmetric`), else
    P of the half spectrum (:func:`_parts`), cut by :func:`_blocks`."""
    values = grid.values.astype(float, copy=False)
    if all(n % 2 == 0 for n in values.shape) and _symmetric(values):
        return _Spectrum(*_octant(values), grid.spacing, grid.dims, grid.margin)
    return _Spectrum(*_blocks(_parts(values), grid.dims), grid.spacing, grid.dims, grid.margin)


def _symmetric(values):
    """Whether the grid's values equal their mirror image in each axis bit
    for bit: one pass over the x-planes of the low half, each compared as
    unsigned integers with its mirror plane and with itself reversed in y
    and in z, so NaNs and signed zeros compare by their bits and the first
    plane that differs ends the pass."""
    bits = values.view(np.uint64)
    n = len(bits)
    return all(np.array_equal(p, bits[n - 1 - i]) and np.array_equal(p, p[::-1])
               and np.array_equal(p, p[:, ::-1]) for i, p in enumerate(bits[:(n + 1) // 2]))


def _octant(values):
    """The blocks, column sums and gather map (None) of the octant record
    of a grid whose axes are even and whose values equal their mirror
    image.  Such a grid's transform is real up to each axis's phase, and
    its modulus at k and -k is the type-II DCT of the upper half, the
    indices from n/2 on, at k: so P is the square of one ``dctn`` of the
    upper octant (:func:`_workers` of its size), on the modes 0 <= k < n/2
    of each axis, times their multiplicities, 1 at k = 0 and 2 elsewhere;
    the Nyquist modes are exactly 0.  It is held as one dense array, every
    pencil whole, whose blocks are slices of ``_COLUMNS`` columns of it,
    read as they lie: the sums weigh each mode by an even function of each
    k_i, so the octant gives them all."""
    h = [n // 2 for n in values.shape]
    P = sfft.dctn(values[h[0]:, h[1]:, h[2]:], type=2, workers=_workers(math.prod(h)))
    with np.errstate(over="ignore", invalid="ignore"):
        P *= P
        P[1:] *= 2.0
        P[:, 1:] *= 2.0
        P[:, :, 1:] *= 2.0
        sums = P.sum(axis=0)
    P.flags.writeable = False
    P = P.reshape(h[0], -1)
    return [_Block(slice(None), slice(j, min(j + _COLUMNS, sums.size)), P[:, j:j + _COLUMNS])
            for j in range(0, sums.size, _COLUMNS)], sums, None


def _body_spectrum(spec, density, sigma, spacing=None, padding=None,
                   max_voxels=DEFAULT_MAX_VOXELS):
    """The spectrum record of :func:`rasterize_smoothed_density` with the
    same arguments and checks: for a sampled body, whose raster is the
    irfftn of the filter's spectrum (:func:`voxel._filter_spectrum`), that
    spectrum squared where it lies, which is the raster's round trip to
    rounding, and cut.  Its P is that of the fill, with the filter's gain
    applied to each part as :func:`_parts` builds it (one rfftn, or two
    passes over the z columns), and the fill dies before the cut.  Any
    other body's record is :func:`_record` of its raster, outside
    :func:`_power`'s cache: the raster dies with the call, so it neither
    evicts a held spectrum nor is held."""
    spec = build_shape(spec)
    if not _sampled(spec):
        return _record(rasterize_smoothed_density(spec, density, sigma, spacing, padding,
                                                  max_voxels))
    density, sigma, spacing, padding = _grid_lengths(density, sigma, spacing, padding)
    dims, origin = _grid_geometry(spec, spacing, padding, max_voxels)
    parts = _parts(voxel.supersampled_fraction(spec, dims, origin, spacing),
                   _gain(dims, density, sigma, spacing))
    return _Spectrum(*_blocks(parts, dims), spacing, dims, padding)


def _mode_sum(spectrum: _Spectrum, xrows, yrows):
    """R[m, a, kz] = (h^3 / N) sum over kx, ky of xrows[m, kx] yrows[a, ky] P[kx, ky, kz].

    h is the grid spacing, N the number of voxels and P the record's
    spectrum, read block by block on the caller's thread: each block's x
    pencils meet their x rows in one matrix product, written straight
    into the block's slice of one (m, held columns + 1) array whose last
    column is zero.  Each row of that array is then gathered by the
    record's map into one (ny, nz') plane, which meets the y rows in one
    more product, so beside that array one plane at a time is made; on
    an octant record, which has no map, the row is that plane as it lies.
    Each block's product and each row's y product is the same BLAS call,
    on the same values, as when the products were scattered into a
    zeroed (m, ny nz') array, so the sums keep those bits.  The threads
    of each product are the BLAS's own.
    """
    xrows = spectrum.spacing**3 / math.prod(spectrum.dims) * xrows
    shape, place = spectrum.sums.shape, spectrum.place
    held = spectrum.blocks[-1].columns.stop
    X = np.empty((len(xrows), held + 1))
    X[:, held] = 0.0
    for x, columns, values in spectrum.blocks:
        np.matmul(xrows[:, x], values, out=X[:, columns])
    R = np.empty((len(xrows), len(yrows), shape[1]))
    for row, out in zip(X, R):
        np.matmul(yrows, row[:held].reshape(shape) if place is None else row[place], out=out)
    return R


def _modes(spectrum: _Spectrum):
    """The angular wavenumbers of the x, y and z modes that the record
    holds: those of rfftn's axes, or on an octant the first n/2 of each."""
    k = _wavenumbers(spectrum.dims, spectrum.spacing)
    if spectrum.place is None:
        return tuple(ki[:n // 2] for ki, n in zip(k, spectrum.dims))
    return k


def _outer_sum(spectrum: _Spectrum, s):
    """(h^3 / N) sum over modes of P s o s for per-axis factors s."""
    X, Y, Z = (np.stack([np.ones_like(si), si, si * si]) for si in s)
    R = _mode_sum(spectrum, X, Y)    # R[i, j] sums P sx^i sy^j over x and y
    xx, xy, xz = R[2, 0] @ Z[0], R[1, 1] @ Z[0], R[1, 0] @ Z[1]
    yy, yz, zz = R[0, 2] @ Z[0], R[0, 1] @ Z[1], R[0, 0] @ Z[2]
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def _finite(value, what):
    if not np.all(np.isfinite(value)):  # the report of the overflow or NaN that errstate hid
        raise DegenerateDimension(f"{what} is not finite: its inputs are not, or it overflows")
    return value


def gradient_outer_integral(grid: VoxelGrid):
    """(2 pi)^3 int grad(f) o grad(f) dV for the gridded field f.

    The derivatives take their exact symbols through the DFT, so on a
    closed-form raster the error is the aliasing of the smooth field, far
    below the 0.5 percent budget at sigma/2 spacing (4e-16 to 5e-15 of the
    exact tensor).  A grid that equals its mirror image, as the raster of
    a mirror-symmetric body does, takes the octant route: its tensor is
    diagonal, the off-diagonal entries exactly 0, and its diagonal moves
    from the whole route's by rounding (below 1e-14).  A sampled raster
    is the supersampled fraction with its
    4-point cell average deconvolved in the filter; the aliasing of walls
    on or near low-index planes of the subsample lattice stays.  At
    sigma/2, tilted elliptic rods of 4 to 8 sigma off those planes are a
    median 2e-4 off (2.5e-3 the largest of 13,666 random rods); rods along
    a grid axis 1.2 to 1.4 percent, a box mesh 1.8 percent.  Grid values
    that are not finite raise :class:`DegenerateDimension`.
    """
    return _gradient(_power(grid))


def _gradient(spectrum: _Spectrum):
    """:func:`gradient_outer_integral` of the grid of a spectrum record."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = (2.0 * np.pi) ** 3 * _outer_sum(spectrum, _modes(spectrum))
    if spectrum.place is None:    # the octant's mirror images cancel each k_i k_j, i != j
        G = np.diag(np.diag(G))
    return _finite(G, "the gradient integral")


def surface_formula_outer_integral(surface_tensor, density, sigma):
    """Closed-form surface scaling (2 pi)^3 rho^2 / (2 sqrt(pi) sigma) * S; an S
    that is not a finite real 3x3 PSD tensor raises :class:`DegenerateDimension`."""
    sigma = _scalar("sigma", sigma, 0.0, open=True)
    scale = (2.0 * np.pi) ** 3 * _density_squared(density) / (2.0 * math.sqrt(math.pi) * sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(scale * _psd("tensor", surface_tensor)[0], "the surface formula")


# ---------------------------------------------------------------------------
# analytic form factors


def form_factor(spec):
    """Complex form factor mu(k) of the body, or None if unavailable.

    mu(k) = rho_unit * int_body exp(-i k . r) dr with unit density; the
    caller multiplies by rho.  Compositions (center offsets, cavities of
    analytic parts) enter as phased sums.
    """
    spec = build_shape(spec)
    if not _has_form_factor(spec):
        return None
    parts = [(1.0, spec)] + [(-1.0, c) for c in spec.cavities]
    fns = [(sign, np.asarray(part.center, dtype=float), part._unit_form_factor)
           for sign, part in parts]

    def mu(k):
        k = _points(k)
        out = 0.0j
        for sign, center, fn in fns:
            phase = np.exp(-1j * (k @ center)) if np.any(center) else 1.0
            out = out + sign * phase * fn(k)
        return out

    return mu


# ---------------------------------------------------------------------------
# k-space integral


def _kspace_quadrature(mu, density, sigma, n_r, n_t, n_p):
    kmax = KMAX_SIGMA / sigma
    xr, wr = _leggauss(n_r)
    kr, wkr = 0.5 * kmax * (xr + 1.0), 0.5 * kmax * wr
    # the directions and weights of the unit sphere's surface rule
    unit = _sphere_patches(1.0, n_t, n_p)
    dirs, wd = unit.normals, unit.weights
    radial = wkr * kr**4 * np.exp(-((kr * sigma) ** 2))
    per_dir = np.zeros(len(dirs))
    for lo in range(0, n_r, _RADIAL_CHUNK):
        sl = slice(lo, lo + _RADIAL_CHUNK)
        kvecs = kr[sl, None, None] * dirs[None, :, :]
        f2 = np.abs(mu(kvecs)) ** 2
        per_dir += radial[sl] @ f2
    per_dir *= density**2
    return np.einsum("d,di,dj->ij", per_dir * wd, dirs, dirs)


def _rungs():
    """(n_r, n_t, n_p) of each refinement step: n_r radial nodes, doubling
    from 128 up to ``MAX_RADIAL_NODES``, and the ladder's n_t polar and
    2 n_t azimuthal directions, n_t growing by sqrt(2) (16, 24, 32, 48, ...)."""
    step = 0
    while (n_r := 128 << step) <= MAX_RADIAL_NODES:
        n_t = (16 if step % 2 == 0 else 24) << (step // 2)
        yield n_r, n_t, 2 * n_t
        step += 1


def _settled(K, prev):
    """Whether one refinement step changed the tensor by less than
    ``KSPACE_TOL``: relative, Frobenius, both norms taken of K / max|K|,
    since those of K overflow past ~1e154."""
    scale = np.max(np.abs(K)) or 1.0
    return np.linalg.norm((K - prev) / scale) / max(np.linalg.norm(K / scale), 1e-300) < KSPACE_TOL


def kspace_outer_integral(spec, density, sigma, *, _spectrum=None):
    """int exp(-k^2 sigma^2) |mu_k|^2 (k o k) dk.

    A body with an analytic form factor takes one refinement loop over
    :func:`_rungs`, whose radial nodes double from 128 up to
    ``MAX_RADIAL_NODES``, until one step changes the tensor by less than
    ``KSPACE_TOL`` (relative, Frobenius, of K / max|K| so that no norm
    overflows); :class:`QuadratureNotConverged` if no step has by the
    last rung.  The shape's ``_kspace_local`` hook picks the rule of a step:

    * the body-frame rule where it returns a local tensor (a bare sphere,
      box, circular, elliptic or gapped cylinder, or a sphere whose
      cavities are all spheres at its center).  In the local frame F the
      Gaussian and the closed-form factors of the form factor separate,
      so K = F K_local F^T with K_local diagonal.  A bare box is closed
      form, and so is a sphere: bare, the surface formula times 1 +
      e^(-x^2) - 2 (1 - e^(-x^2)) / x^2 at x = R / sigma, and with
      concentric cavities a sum of such terms over pairs of radii.
      Neither takes a rung.  A rod leaves one radial integral over [0,
      KMAX_SIGMA / sigma], on the step's radial nodes;
    * the spherical ladder where it returns None: the step's radial x
      angular rule on the form factor of the body moved so that the
      host's center is the origin (|mu|^2 does not change under a
      translation, and phases taken about a far origin lose their
      precision).

    A body without one also has a solid without a closed-form field, so
    it takes the filtered raster, which deconvolves the fill's cell
    average, and its DFT route is the gradient sum of that raster's power
    spectrum (:func:`_gradient`), not a second oracle.  The spectrum is
    the filter's own, squared where it lies (:func:`_body_spectrum` on the
    default grid: one fill, one rfftn and no real-space grid), or
    ``_spectrum``: the record of the same body, density and sigma that the
    caller has already made on a grid of its choice, so one fill and one
    transform serve both grid oracles.

    ``density`` and ``sigma`` must be positive and finite, and so must
    density^2 and the tensor, on every route
    (:class:`DegenerateDimension`).
    """
    rho2 = _density_squared(density)
    sigma = _scalar("sigma", sigma, 0.0, open=True)
    spec = build_shape(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        if not _has_form_factor(spec):
            return _gradient(_body_spectrum(spec, density, sigma) if _spectrum is None
                             else _spectrum)
        local = spec._kspace_local(sigma)
        if local is None:
            mu = form_factor(_about_center(spec))

            def rung(n_r, n_t, n_p):
                return _kspace_quadrature(mu, density, sigma, n_r, n_t, n_p)
        else:
            (factors, integrand), frame = local, spec._frame
            if integrand is None:
                return _finite(rho2 * (frame * factors) @ frame.T, "the k-space tensor")

            def rung(n_r, n_t, n_p):
                k, w = _gl(n_r, 0.0, KMAX_SIGMA / sigma)
                return rho2 * (frame * (factors * (integrand(k) @ w))) @ frame.T
        prev, n_r = None, 0
        for n_r, n_t, n_p in _rungs():
            K = _finite(rung(n_r, n_t, n_p), "the k-space tensor")
            if prev is not None and _settled(K, prev):
                return K
            prev = K
    raise QuadratureNotConverged(
        f"k-space quadrature did not reach {KSPACE_TOL} in rungs of up to {n_r} radial nodes")


def _about_center(spec):
    """The body moved so that its host's center is the origin; ``spec``
    itself if it is there already."""
    shift = np.asarray(spec.center)
    if not np.any(shift):
        return spec
    return replace(spec, center=(0.0, 0.0, 0.0), cavities=tuple(
        replace(cav, center=np.asarray(cav.center) - shift) for cav in spec.cavities))


# ---------------------------------------------------------------------------
# full decoherence function


def _expm1i(theta):
    """e^{i theta} - 1 as 2i sin(theta/2) e^{i theta/2}, exact to rounding for small theta."""
    return 2j * np.sin(theta / 2.0) * np.exp(0.5j * theta)


def decoherence_function(grid: VoxelGrid, delta, params: CslParams):
    """Positional dephasing rate F(delta) in 1/s from the gridded field.

    F = (lambda sigma^3 / pi^{3/2} m_N^2) (2 pi)^3
        int [mu(r)^2 - mu(r) mu(r + delta)] dr.

    The shifted-field correlation is evaluated through the DFT phase
    ramp, which is exact for the sigma-smooth field at any sub-cell
    displacement.  Its sum of P (1 - cos(k . delta)) is -Re of
    the sum of P (e^{i k . delta} - 1), split by axis: the real and
    imaginary parts of e^{i k_x delta_x} - 1 are the two x rows of
    :func:`_mode_sum` and the y phases its y rows, the terms without an x
    phase take the record's column sums, the z phases are a contraction
    over z, and every e^{i theta} - 1 is formed as
    2i sin(theta/2) e^{i theta/2}.  So no 1 - cos cancels:
    the result agrees with the per-mode sum of 2 sin^2(k . delta / 2) to
    rounding at any |delta|, where a per-mode 1 - cos is off by some
    1e-11 relative at 1e-3 sigma.  On the octant record of a grid that
    equals its mirror image the mirror images of a mode sum its weight to
    1 - cos a cos b cos c, taken as (1 - cos a) + cos a (1 - cos b) + cos a
    cos b (1 - cos c), each 1 - cos as 2 sin^2 of the half angle: one pass
    of two x rows over the octant, which moves the value from the whole
    route's by rounding.

    A ``delta`` that is not a 3-vector of real numbers (a string, a
    complex or a NaN included), or grid values that are not finite, raise
    :class:`DegenerateDimension`; a ``delta`` longer than the grid's
    margin, or infinite, raises :class:`ShiftOutOfGrid` before any transform.
    """
    return _decoherence(grid, delta, params)


def _decoherence(field, delta, params: CslParams):
    """:func:`decoherence_function` of a grid, or of a spectrum record."""
    delta = _array("delta", delta, (3,), finite=False)
    # an infinite shift leaves any grid, a margin-less one included
    if np.any(np.isinf(delta)) or (field.margin and np.linalg.norm(delta) > field.margin):
        raise ShiftOutOfGrid(
            f"|delta| = {np.linalg.norm(delta):.3g} exceeds grid margin {field.margin:.3g}")
    delta = _array("delta", delta, (3,))  # what is left not finite is a NaN
    spectrum = _power(field) if isinstance(field, VoxelGrid) else field
    pref = (params.collapse_rate * params.localization_length**3
            / (math.pi**1.5 * params.nucleon_mass**2))
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = (k * d for k, d in zip(_modes(spectrum), delta))
        if spectrum.place is None:
            # on the octant the mirror images sum 1 - cos(a + b + c) to
            # 1 - cos a cos b cos c = (1 - cos a) + cos a (1 - cos b) + cos a cos b (1 - cos c)
            va, vb, vc = (2.0 * np.sin(t / 2.0) ** 2 for t in (a, b, c))
            R = _mode_sum(spectrum, np.stack([va, np.cos(a)]),
                          np.stack([np.ones_like(b), vb, np.cos(b)]))
            integral = R[0, 0].sum() + R[1, 1].sum() + R[1, 2] @ vc
        else:
            # sum P (1 - cos(a + b + c)) = -Re sum P (e^{i(a+b+c)} - 1), with
            # e^{i(a+b+c)} - 1 = (e^{ia} - 1) e^{i(b+c)} + (e^{ib} - 1) e^{ic} + (e^{ic} - 1)
            ea, eb, eb1 = _expm1i(a), np.exp(1j * b), _expm1i(b)
            R = _mode_sum(spectrum, np.stack([ea.real, ea.imag]), np.stack([eb.real, eb.imag]))
            # the sums over x and y of P (e^{ib} - 1) and of P, from the column sums
            scale = spectrum.spacing**3 / math.prod(spectrum.dims)
            Q = scale * np.stack([eb1.real, eb1.imag, np.ones_like(b)]) @ spectrum.sums
            # sums over x and y of P ((e^{ia} - 1) e^{ib} + e^{ib} - 1)
            S = R[0, 0] - R[1, 1] + Q[0] + 1j * (R[0, 1] + R[1, 0] + Q[1])
            integral = -(S @ np.exp(1j * c) + Q[2] @ _expm1i(c)).real
    return _finite(pref * (2.0 * np.pi) ** 3 * integral, "the decoherence function")
