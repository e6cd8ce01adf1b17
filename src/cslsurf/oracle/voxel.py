"""Voxelized Gaussian-smoothed density fields.

The field is the body indicator (times density) convolved with an
isotropic Gaussian of width sigma.  For spheres, boxes, circular and
gapped cylinders the convolution separates into exact 1-D/2-D factors
and is evaluated in closed form (erf products and the noncentral
chi-square disc integral); cone-capped cylinders use the erf profile of
their signed distance; elliptic cylinders and meshes fall back to a
supersampled indicator filtered on the grid.

That indicator is the share of a 4x4x4 subsample lattice per voxel that
lies in the material.  Meshes fill it by scanline parity: one +x ray per
(y, z) subsample line, crossed with every face whose yz bounding box holds
the line, and a running parity along x.  Each edge is evaluated from one
fixed end, so the faces sharing it see exactly opposite values, and a
line exactly on an edge or a vertex is counted as if moved by an
infinitesimal step toward +y (then +z), a top-left rule: it crosses the
surface there once, as a line beside it would.  The lattice is the same
for every shape, so the fraction is always a count over 64.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.fft import next_fast_len

from ..errors import GridTooLarge, ParseError, SpacingTooCoarse, UnsupportedShape
from ..geometry.shapes import (
    bounding_box,
    build_shape,
    contains,
    local_frame,
    signed_distance,
    _bare,
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


@dataclass
class VoxelGrid:
    """Regular scalar field: values[i, j, k] at origin + (i, j, k) * spacing."""

    origin: np.ndarray    # (3,) m, position of values[0, 0, 0]
    spacing: float        # m, uniform
    values: np.ndarray    # (nx, ny, nz)
    margin: float = 0.0   # zero-field padding width around the body, m

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError("values must be a 3-D array")

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
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(grid.values.astype("<f8").tobytes(order="C"))


def read_grid(path):
    """Read a grid written by :func:`write_grid`.

    Version-1 files carry no margin, so a shift guard on them could not
    hold; they raise :class:`ParseError`.
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
        data = fh.read()
    if min(nx, ny, nz) < 1 or len(data) != 8 * nx * ny * nz:
        raise ParseError(
            f"grid data has {len(data)} bytes; a {nx}x{ny}x{nz} grid needs {8 * nx * ny * nz}"
        )
    values = np.frombuffer(data, dtype="<f8").reshape(nx, ny, nz).copy()
    return VoxelGrid(np.array(origin), spacing, values, margin)


# ---------------------------------------------------------------------------
# point evaluation


def _part_unit_field(spec, sigma, points, profile):
    """Smoothed indicator (0..1) of a bare solid at the given points."""
    if profile is not None and not profile.is_step:
        # soft skin: profile of the signed distance, smoothed
        sdf = signed_distance(_bare(spec), points.reshape(-1, 3))
        return profile.smoothed(sdf, sigma).reshape(points.shape[:-1])
    if spec._smoothed_unit is None:
        raise UnsupportedShape(
            f"no point evaluator for {type(spec).__name__}; rasterize instead"
        )
    p = (points - np.asarray(spec.center)) @ local_frame(spec)
    return spec._smoothed_unit(p, sigma)


def smoothed_density(spec, density, sigma, points, profile=None):
    """Pointwise sigma-smoothed density of the body (cavities subtract)."""
    spec = build_shape(spec)
    points = np.asarray(points, dtype=float)
    out = _part_unit_field(spec, sigma, points, profile)
    for cav in spec.cavities:
        out = out - _part_unit_field(cav, sigma, points, profile)
    return density * out


# ---------------------------------------------------------------------------
# rasterization


def _grid_geometry(spec, spacing, padding):
    lo, hi = bounding_box(spec)
    dims, origin = [], []
    for i in range(3):
        span = (hi[i] - lo[i]) + 2.0 * padding
        n = next_fast_len(int(math.ceil(span / spacing)) + 1, real=True)
        mid = 0.5 * (lo[i] + hi[i])
        dims.append(n)
        origin.append(mid - 0.5 * (n - 1) * spacing)
    return tuple(dims), np.array(origin)


def rasterize_smoothed_density(spec, density, sigma, spacing=None, profile=None,
                               padding=None, max_voxels=DEFAULT_MAX_VOXELS):
    """Rasterize the sigma-smoothed density onto a regular grid.

    The grid covers the body bounding box plus ``padding`` (default 6
    sigma, at least 5) on every side; axis sizes are rounded up to
    FFT-friendly lengths.  ``spacing`` defaults to sigma / 2 and may not
    be coarser.
    """
    spec = build_shape(spec)
    if not (sigma > 0) or not (density > 0):
        raise ValueError("sigma and density must be positive")
    spacing = sigma / 2.0 if spacing is None else float(spacing)
    if spacing > sigma / 2.0 * (1.0 + 1e-12):
        raise SpacingTooCoarse(f"spacing {spacing} exceeds sigma/2 = {sigma / 2}")
    padding = DEFAULT_PADDING_SIGMA * sigma if padding is None else float(padding)
    if padding < MIN_PADDING_SIGMA * sigma:
        raise ValueError(f"padding must be at least {MIN_PADDING_SIGMA} sigma")
    if profile is not None and not profile.is_step:
        padding += profile.support()[1] - profile.support()[0]

    dims, origin = _grid_geometry(spec, spacing, padding)
    n_total = dims[0] * dims[1] * dims[2]
    if n_total > max_voxels:
        raise GridTooLarge(f"{dims} = {n_total} voxels exceed cap {max_voxels}")

    needs_filter = _needs_grid_filter(spec, profile)
    if needs_filter and profile is not None and not profile.is_step:
        raise UnsupportedShape(
            "soft edge profiles need an exact signed distance, which "
            f"{type(spec).__name__} does not provide"
        )
    if needs_filter:
        values = _rasterize_filtered(spec, density, sigma, spacing, dims, origin)
    else:
        values = np.empty(dims)
        ax_y = origin[1] + spacing * np.arange(dims[1])
        ax_z = origin[2] + spacing * np.arange(dims[2])
        Y, Z = np.meshgrid(ax_y, ax_z, indexing="ij")
        plane = np.empty((dims[1], dims[2], 3))
        plane[:, :, 1] = Y
        plane[:, :, 2] = Z
        for i in range(dims[0]):
            plane[:, :, 0] = origin[0] + spacing * i
            values[i] = smoothed_density(spec, density, sigma, plane, profile)
    return VoxelGrid(origin=origin, spacing=spacing, values=values, margin=padding)


def _needs_grid_filter(spec, profile):
    soft = profile is not None and not profile.is_step
    def pointwise(s):
        if soft:
            try:
                signed_distance(_bare(s), np.zeros((1, 3)))
                return True
            except UnsupportedShape:
                return False
        return s._smoothed_unit is not None
    return not all(pointwise(s) for s in (spec, *spec.cavities))


def supersampled_fraction(spec, dims, origin, spacing):
    """Per-voxel material fraction: the share of an ss^3 subsample lattice
    inside the material.

    Meshes classify one voxel row of lattice lines at a time by scanline
    parity; other solids are tested with contains() one x-plane at a time.
    Cavities subtract per subsample.
    """
    ss = _SUPERSAMPLE
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    frac = np.empty(dims)
    ax_x, ax_y, ax_z = (origin[a] + spacing * (np.arange(dims[a])[:, None] + sub[None, :]).ravel()
                        for a in range(3))
    if spec._scanline is not None:
        for j in range(dims[1]):
            ys = ax_y[j * ss:(j + 1) * ss]
            inside = spec._scanline(ax_x, ys, ax_z)               # (y, z, x)
            if spec.cavities:
                Y, Z, X = np.meshgrid(ys, ax_z, ax_x, indexing="ij")
                pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
                for cav in spec.cavities:
                    inside &= ~contains(cav, pts).reshape(inside.shape)
            counts = inside.reshape(ss, dims[2], ss, dims[0], ss).sum(axis=(0, 2, 4))
            frac[:, j, :] = counts.T / ss**3
        return frac
    Y, Z = np.meshgrid(ax_y, ax_z, indexing="ij")
    pts = np.empty((Y.size, 3))
    pts[:, 1] = Y.ravel()
    pts[:, 2] = Z.ravel()
    for i in range(dims[0]):
        acc = np.zeros(Y.shape)
        for x in ax_x[i * ss:(i + 1) * ss]:
            pts[:, 0] = x
            acc += contains(spec, pts).reshape(Y.shape)
        blocks = acc.reshape(dims[1], ss, dims[2], ss)
        frac[i] = blocks.mean(axis=(1, 3)) / ss
    return frac


def _rasterize_filtered(spec, density, sigma, spacing, dims, origin):
    """Supersampled material indicator, then discrete Gaussian filtering."""
    frac = supersampled_fraction(spec, dims, origin, spacing)
    return density * ndimage.gaussian_filter(
        frac, sigma=sigma / spacing, mode="constant", cval=0.0, truncate=8.0
    )
