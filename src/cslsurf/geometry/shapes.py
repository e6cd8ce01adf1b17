"""Analytic solids and their exact surface quadrature decompositions.

Every analytic variant generates patches on the exact parametric surface,
so normals carry no tessellation error and the summed weights equal the
analytic area to rounding.  Resolution only controls how finely the area
is subdivided.  Cavity walls are first-class boundary patches whose
normals point out of the material (into the cavity).

A solid of revolution is defined by its (r, z) profile polylines alone
(:class:`_Revolved`).  Its patches sweep each straight segment about the
local z axis (:func:`_sweep`), its inside test is r <= r(z) on the walls,
and its bounds, mass properties (Green's theorem in the (r, z) plane),
signed distance and clearance come from the same segments.  The
clearance, the unsigned distance that the supersampled fill's culling
and the cavity checks read, is the least distance to a segment, and the
signed distance is that same number, negative inside.  The circular,
elliptic and gapped cylinders are one rod (:class:`_Rod`), whose closed
forms all come from its semi-axes (a, b) and segments.  The elliptic
cylinder is the unit rod under the stretch x -> a x, y -> b y and has no
signed distance: one measured in the stretched frame is not a distance,
and its clearance is a lower bound.  Every signed distance here is
exact.  The sphere keeps its own rule, whose points are exactly R times
the normals; boxes take one rule per face.

The smoothed field never reads a signed distance: the Gaussian-smoothed
indicator is a shape's closed form (``_smoothed_unit``) where one
exists, and otherwise the oracles filter the supersampled indicator.

Each shape class is the one place its geometry lives; the module-level
functions here and in the oracles dispatch to its methods.  Each hook
takes the local coordinates as broadcastable arrays (:func:`_local_axes`);
only a mesh's ray parity stacks them into points.  The supersampled
fill's ``_lattice`` hook takes world axes: an analytic solid classifies
its block and voxel centers through :func:`contains` and its band's
subsamples through ``_inside`` on broadcast axes, and a mesh counts from
its ray crossings.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
from itertools import combinations, product

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import chndtr, ellipe, ive, j1, ndtr

from ..errors import (
    CavityOverlap,
    DegenerateDimension,
    ResolutionOverflow,
    UnsupportedShape,
)
from .mesh import TriangleMesh
from .patches import (
    SurfacePatches,
    _array,
    _scalar,
    compose_mass_properties,
    rotation_to_z,
    unit_vector,
)

DEFAULT_RESOLUTION = 32
MAX_PATCHES = 2_000_000
_MAX_EXTENT = 1e60  # largest half-extent L: second moments ~ (2 L)^5 stay below float max

_AXIS_NAMES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


# ---------------------------------------------------------------------------
# fields: each canonicaliser takes (field name, value) and returns the value


def _canon_axis(name, axis):
    if isinstance(axis, str):
        try:
            axis = _AXIS_NAMES[axis.lower()]
        except KeyError:
            raise DegenerateDimension(f"unknown axis name {axis!r}") from None
    v = _array(name, axis, (3,))
    if np.linalg.norm(v) == 0:
        raise DegenerateDimension(f"invalid axis {axis!r}")
    return tuple(unit_vector(v))


def _box_sides(name, sides):
    sides = _array("box size", sides, (3,))
    _scalar("box side", sides.min(), 0.0, open=True)
    return tuple(sides.tolist())


def _triangle_mesh(name, value):
    if not isinstance(value, TriangleMesh):
        raise DegenerateDimension("Mesh spec requires a TriangleMesh")
    return value


def _field(canon, unit=None, **kw):
    """A shape field.  ``canon`` canonicalises its value at construction;
    ``unit`` is the dimension of its quantities (None: not a quantity)."""
    return field(metadata={"canon": canon, "unit": unit}, **kw)


def _length():
    return _field(partial(_scalar, low=0.0, open=True), "length")


def _axis():
    return _field(_canon_axis, default=(0.0, 0.0, 1.0))


def _center():
    return _field(lambda name, c: tuple(_array(name, c, (3,))), "length", default=(0.0,) * 3)


def _cavities():
    def shapes(name, value):
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, _Solid) for v in value):
            raise DegenerateDimension(f"{name} must be a list or tuple of shapes, got {value!r}")
        return tuple(value)
    return _field(shapes, default=())


# ---------------------------------------------------------------------------
# exact smoothed factors and form-factor kernels


def _interval_factor(x, half, sigma):
    """Convolution of the indicator of [-half, half] with g_sigma."""
    return ndtr((x + half) / sigma) - ndtr((x - half) / sigma)


def _disc_factor(r, radius, sigma):
    """Convolution of a 2-D disc indicator with the 2-D Gaussian.

    P(|X + r| <= radius) for X ~ N(0, sigma^2 I2), i.e. the noncentral
    chi-square CDF with 2 degrees of freedom.
    """
    return chndtr((radius / sigma) ** 2, 2.0, (r / sigma) ** 2)


def _ball_factor(d, radius, sigma):
    """Convolution of a 3-D ball indicator with the 3-D Gaussian (exact)."""
    d = np.asarray(d, dtype=float)
    up = (d + radius) / sigma
    um = (d - radius) / sigma
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ndtr(-um) - ndtr(-up) + (sigma / d) * (phi(up) - phi(um))
    center = ndtr(radius / sigma) - ndtr(-radius / sigma) - 2.0 * (radius / sigma) * phi(radius / sigma)
    return np.where(d < 1e-9 * sigma, center, out)


def _norm(x, y, z):
    """|(x, y, z)|, summed in the order of np.linalg.norm and so to its bits."""
    return np.sqrt((x * x + y * y) + z * z)


def _sinc(x):
    return np.sinc(x / np.pi)


def _jinc(x):
    """2 J1(x) / x, continuous through 0."""
    small = np.abs(x) < 1e-6
    xs = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x**2 / 8.0, 2.0 * j1(xs) / xs)


def _slab_moments(length, sigma, centers=(0.0,)):
    """(Z0, Z2): the integrals over the whole line of exp(-sigma^2 u^2)
    |sum_i length sinc(u length / 2) e^{-i u z_i}|^2 u^m, m = 0 and 2, the
    closed-form axial factors of the k-space tensor of straight segments
    of that ``length`` at the axial ``centers`` z_i.  Each segment alone
    gives the closed form of one slab; each pair at d = -|z_i - z_j| adds
    twice 2 pi [r(d + L) - 2 r(d) + r(d - L)] to Z0, with r(x) = x
    Phi(x / tau) + tau phi(x / tau) and tau = sqrt(2) sigma, and twice
    2 g(d) - g(d + L) - g(d - L) to Z2, with g(a) = sqrt(pi) / sigma
    exp(-a^2 / 4 sigma^2).  The segments do not overlap, so every
    argument of r is negative, where r is small and nothing cancels."""
    t = length / (2.0 * sigma)
    gap = -math.expm1(-t * t)
    z0 = 2.0 * math.pi * (length * math.erf(t) - 2.0 * sigma / math.sqrt(math.pi) * gap)
    z2 = 2.0 * math.sqrt(math.pi) / sigma * gap
    n, tau = len(centers), math.sqrt(2.0) * sigma
    d = -np.abs(np.subtract.outer(centers, centers)[np.triu_indices(n, 1)])

    def r(x):
        return x * ndtr(x / tau) + tau / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (x / tau) ** 2)

    def g(x):
        return math.sqrt(math.pi) / sigma * np.exp(-((x / (2.0 * sigma)) ** 2))

    pairs0 = np.sum(r(d + length) - 2.0 * r(d) + r(d - length))
    pairs2 = np.sum(2.0 * g(d) - g(d + length) - g(d - length))
    return n * z0 + 4.0 * math.pi * pairs0, n * z2 + 2.0 * pairs2


# ---------------------------------------------------------------------------
# (r, z) profiles of solids of revolution, in the local frame


def _segments(profiles):
    """(r0, z0, r1, z1) of each straight segment of the ``profiles`` polylines."""
    return [(*p, *q) for profile in profiles for p, q in zip(profile, profile[1:])]


def _profile_inside(profiles, x, y, z, stretch=(1.0, 1.0)):
    """Mask of the points with r <= r(z) on a wall (a segment that is not
    a disc) of the ``profiles``; r^2 = (x/a)^2 + (y/b)^2 under the
    ``stretch`` (a, b).  The supersampled fill's hot loop: the largest
    r(z)^2 among the walls whose z range holds the point (-inf where none
    does) is taken on z's own shape, and r^2, on the shape of x and y, is
    compared with it once: the OR of one comparison per wall, bit for bit.
    On the broadcast axes of a named axis, r(z) is taken per z alone."""
    a, b = stretch
    r2 = (x / a) ** 2 + (y / b) ** 2
    limit = np.full(np.shape(z), -np.inf)
    for r0, z0, r1, z1 in _segments(profiles):
        if z0 == z1:
            continue
        if r0 == r1:
            rz2 = r0 * r0
        else:
            rz = r0 + (z - z0) * ((r1 - r0) / (z1 - z0))
            rz2 = rz * rz
        np.maximum(limit, rz2, out=limit, where=(z >= z0) & (z <= z1))
    return r2 <= limit


def _profile_distance(profiles, x, y, z):
    """Least distance from the point to a segment of the ``profiles``: the
    distance to the surface they sweep."""
    r = np.hypot(x, y)
    dist = np.inf
    for r0, z0, r1, z1 in _segments(profiles):
        vr, vz = r1 - r0, z1 - z0
        t = np.clip(((r - r0) * vr + (z - z0) * vz) / (vr * vr + vz * vz), 0.0, 1.0)
        dist = np.minimum(dist, np.hypot(r - (r0 + t * vr), z - (z0 + t * vz)))
    return dist


def _profile_sdf(profiles, x, y, z):
    """:func:`_profile_distance`, negative where :func:`_profile_inside` holds."""
    dist = _profile_distance(profiles, x, y, z)
    return np.where(_profile_inside(profiles, x, y, z), -dist, dist)


# ---------------------------------------------------------------------------
# patch families in the local frame


@lru_cache(maxsize=64)
def _leggauss(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], built once
    per n and read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl(n, a, b):
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _counts(resolution):
    res = _scalar("resolution", resolution, 1, integer=True, error=ResolutionOverflow)
    return {
        "phi": max(8, 4 * res),
        "theta": max(4, res),
        "len": max(2, res),
        "rad": max(2, res // 2),
        "face": max(2, res // 2),
    }


def _family(size, build, *args):
    """A patch family: its patch count, and the deferred call that builds it."""
    return size, partial(build, *args)


def _sweep(r0, z0, r1, z1, n_u, n_phi, stretch):
    """Patches of the surface that the straight (r, z) profile segment from
    (r0, z0) to (r1, z1) sweeps about the local z axis.

    Gauss-Legendre nodes u along the segment, a midpoint ring in phi.  The
    material lies left of the segment's direction d = (dr, dz), so the
    outward normal is (dz, -dr) / |d| and the weight r |d| w_u dphi.  The
    ``stretch`` (a, b) then maps x -> a x and y -> b y: normals go through
    M^-T = diag(1/a, 1/b, 1) and are renormalised, and weights gain the
    area factor a b |M^-T n|.
    """
    u, wu = _gl(n_u, 0.0, 1.0)
    dr, dz = r1 - r0, z1 - z0
    span = math.hypot(dr, dz)
    r = r0 + u * dr
    a, b = stretch
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    cp, sp = np.cos(phi), np.sin(phi)
    n = np.stack([cp * (dz / span / a), sp * (dz / span / b),
                  np.full(n_phi, -dr / span)], axis=1)
    gain = np.linalg.norm(n, axis=1)
    pts = np.stack([a * np.outer(r, cp).ravel(), b * np.outer(r, sp).ravel(),
                    np.repeat(z0 + u * dz, n_phi)], axis=1)
    weights = np.outer(r * span * wu, (a * b * 2.0 * np.pi / n_phi) * gain).ravel()
    return SurfacePatches(pts, np.tile(n / gain[:, None], (n_u, 1)), weights)


def _sphere_patches(R, n_theta, n_phi):
    # outside the sweep: its points are exactly R times its normals
    ct, wt = _leggauss(n_theta)
    st = np.sqrt(1.0 - ct**2)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    cp, sp, dphi = np.cos(phi), np.sin(phi), 2.0 * np.pi / n_phi
    nx = np.outer(st, cp).ravel()
    ny = np.outer(st, sp).ravel()
    nz = np.outer(ct, np.ones(n_phi)).ravel()
    normals = np.stack([nx, ny, nz], axis=1)
    weights = (R**2 * dphi) * np.outer(wt, np.ones(n_phi)).ravel()
    return SurfacePatches(R * normals, normals, weights)


def _rect_patches(axis, sign, half, n_face):
    """One box face, normal along +-axis, with Gauss-Legendre tangential nodes."""
    tang = [i for i in range(3) if i != axis]
    u, wu = _gl(n_face, -half[tang[0]], half[tang[0]])
    v, wv = _gl(n_face, -half[tang[1]], half[tang[1]])
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.zeros((U.size, 3))
    pts[:, tang[0]] = U.ravel()
    pts[:, tang[1]] = V.ravel()
    pts[:, axis] = sign * half[axis]
    normals = np.zeros((U.size, 3))
    normals[:, axis] = sign
    weights = np.outer(wu, wv).ravel()
    return SurfacePatches(pts, normals, weights)


# ---------------------------------------------------------------------------
# the supersampled fill's lattice

#: voxels per block side, the first level of an analytic solid's fill
_BLOCK = 4
#: band voxels whose subsamples go through one ``_inside`` call
_BAND_CHUNK = 1024
#: relative slack of a reach (:func:`_groups`)
_REACH_SLACK = 1e-6


def _groups(cells, size):
    """Centers of the runs of ``size`` voxels along each axis of the
    lattice ``cells`` (the last run may be shorter), and their reach: the
    largest distance from a run's center to one of its subsamples, with a
    relative slack of ``_REACH_SLACK`` (1e-6) for the rounding of the local
    frame and of the clearance, some 1e-15 of the body's size, and of the
    grid coordinates, which ``oracle.voxel._grid_geometry`` keeps below it."""
    mids, half = [], []
    for c in cells:
        (n, ss), first = c.shape, np.arange(0, len(c), size)
        flat = c.ravel()
        mid = 0.5 * (flat[first * ss] + flat[np.minimum(first + size, n) * ss - 1])
        mids.append(mid)
        half.append(np.max(np.abs(flat - np.repeat(mid, size * ss)[:n * ss])))
    return mids, math.hypot(*half) * (1.0 + _REACH_SLACK)


def _spread(blocks, dims):
    """The voxel mask of the (nx, ny, nz) voxels ``dims`` that takes each
    entry of the per-block mask ``blocks``, ``_BLOCK`` voxels a side."""
    (p, q, r), b = blocks.shape, _BLOCK
    voxels = np.broadcast_to(blocks[:, None, :, None, :, None], (p, b, q, b, r, b))
    return voxels.reshape(p * b, q * b, r * b)[:dims[0], :dims[1], :dims[2]]


# ---------------------------------------------------------------------------
# shapes


class _Solid:
    """Geometry shared by the shape dataclasses.

    Methods see the bare solid (cavities are composed by the module-level
    functions) and its local coordinates as broadcastable arrays ``x, y,
    z``: center at the origin, axis along +z.  ``_frame``, local to world
    axes, is built once with the solid (``_axis_frame``) and read-only.
    Every shape classifies points with its own ``_inside`` (closed form,
    or ray parity for meshes); none goes through a signed distance.  A
    solid of revolution has one definition, its (r, z) profile, from
    which :class:`_Revolved` derives all its geometry, and a rod
    (:class:`_Rod`: circular, elliptic and gapped cylinders) has one more,
    its semi-axes and segments, from which it derives its closed forms.
    The hooks ``_sdf`` (exact signed distance; none for the elliptic
    cylinder and meshes), ``_smoothed_unit`` (closed-form Gaussian-smoothed
    indicator; the round rod's for the circular and gapped cylinders,
    none for the cone-capped and elliptic cylinders and meshes) and
    ``_unit_form_factor`` (every rod has the rod's; none for the
    cone-capped cylinder and meshes) are None where the shape has none;
    the oracles then take the next path of their rule (the raster:
    the filtered supersampled indicator; the k-space integral: the DFT
    route, which reads that raster).  A shape with ``_smoothed_unit`` has
    ``_unit_form_factor`` too, so a body takes the DFT route only when it
    takes the filtered raster.  ``_kspace_local(sigma)``, the one
    hook that sees cavities, picks the k-space rule of a body with a form
    factor.  It returns (factors, integrand), the body-frame rule: the
    diagonal of int exp(-k^2 sigma^2) |mu|^2 q o q dq in local axes q, at
    unit density, is ``factors`` times the integral of ``integrand`` over
    k in [0, KMAX_SIGMA / sigma], or ``factors`` where ``integrand`` is
    None.  It returns None, the spherical ladder, for a body it cannot
    take: by default, and for a box or rod with cavities or a sphere
    whose cavities are not all spheres at its center.  ``_clearance`` is
    a lower bound on the distance to the boundary, exact (``|_sdf|``)
    unless a subclass says otherwise.  ``_lattice`` counts each voxel's
    subsamples inside the bare solid on the supersampled fill's world-axis
    lattice, culling blocks and then voxels by their clearance; ``Mesh``
    overrides it with a count from the flips of each lattice line's ray
    parity.  ``_corners`` are the local points no quadrature node
    reaches, which the cavity check probes too.  ``_patch_families(n)``
    takes the patch counts of a resolution (:func:`_counts`) as minima:
    an analytic solid's rule integrates both surface tensors exactly, to
    rounding, at every resolution, so a flattened elliptic ring takes
    more points than ``n["phi"]`` (:meth:`_Revolved._patch_families`).
    """

    _sdf = None
    _smoothed_unit = None
    _unit_form_factor = None

    def __post_init__(self):
        for f in fields(self):
            value = f.metadata["canon"](f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
        object.__setattr__(self, "_frame", self._axis_frame())
        self._frame.flags.writeable = False
        with np.errstate(invalid="ignore"):     # an infinite extent meets the frame's zeros
            extent = np.max(np.abs(self._bounds()))
        if not extent <= _MAX_EXTENT:
            raise DegenerateDimension(f"{type(self).__name__} is too large: a half-extent "
                                      f"past {_MAX_EXTENT:g} overflows its moments")

    def _axis_frame(self):
        return np.eye(3)

    def _kspace_local(self, sigma):
        return None

    def _clearance(self, x, y, z):
        return np.abs(self._sdf(x, y, z))

    def _corners(self):
        return np.empty((0, 3))

    def _lattice(self, xs, ys, zs):
        """Count the subsamples inside the solid, which has no cavities (the
        fill passes its cavity-free host and each cavity alone), on the
        lattice of ``xs``, ``ys`` and ``zs``: (n, ss) arrays of ascending
        world coordinates, row i holding the ss subsamples of voxel i on
        that axis.  Returns the (nx, ny, nz) uint8 counts, 0 to ss^3.

        Three levels.  Blocks of ``_BLOCK`` voxels per axis take the
        ``_clearance`` at their centers: a block farther from the boundary
        than its reach (:func:`_groups`) lies on one side of it, and all
        its voxels take :func:`contains` at its center.  The voxels of the
        other blocks do the same at voxel level.  Only the voxels left, the
        band, classify their subsamples, ``_BAND_CHUNK`` voxels at a time:
        the rows xs[i], ys[j] and zs[k] of each voxel go to ``_inside`` as
        broadcast (chunk, ss, 1, 1), (chunk, 1, ss, 1) and (chunk, 1, 1,
        ss) axes, and no point array is gathered.  The solid has no
        cavities, so that is what :func:`contains` computes, elementwise,
        and every count is the one the pointwise test gives on that
        voxel's lattice points; on a named axis a hook that reads fewer
        than three world axes takes fewer than ss^3 values per voxel.
        """
        cells = (xs, ys, zs)
        dims, ss = tuple(len(c) for c in cells), xs.shape[1]
        (bx, by, bz), reach = _groups(cells, _BLOCK)
        clearance = self._clearance(*_local_axes(self, bx[:, None, None], by[None, :, None],
                                                 bz[None, None, :]))
        near = np.broadcast_to(~(clearance > reach), (len(bx), len(by), len(bz)))
        block_side = np.zeros(near.shape, dtype=bool)
        far = np.nonzero(~near)
        block_side[far] = contains(self, np.stack([bx[far[0]], by[far[1]], bz[far[2]]], axis=1))
        count = _spread(block_side, dims) * np.uint8(ss**3)
        # the voxels of the near blocks, at voxel level
        voxels = np.flatnonzero(_spread(near, dims))
        (vx, vy, vz), reach = _groups(cells, 1)
        i, j, k = np.unravel_index(voxels, dims)
        x, y, z = vx[i], vy[j], vz[k]
        far = self._clearance(*_local_axes(self, x, y, z)) > reach
        inside = contains(self, np.stack([x[far], y[far], z[far]], axis=1))
        count.reshape(-1)[voxels[far]] = inside * np.uint8(ss**3)
        # the band's subsamples, on the broadcast axes of each voxel
        band = voxels[~far]
        i, j, k = np.unravel_index(band, dims)
        for lo in range(0, len(band), _BAND_CHUNK):
            sl = slice(lo, lo + _BAND_CHUNK)
            inside = self._inside(*_local_axes(self, xs[i[sl], :, None, None],
                                               ys[j[sl], None, :, None],
                                               zs[k[sl], None, None, :]))
            count.reshape(-1)[band[sl]] = np.count_nonzero(inside, axis=(1, 2, 3))
        return count

    def _bounds(self):
        """(min, max) corners about the center, in world axes."""
        ext = np.abs(self._frame) @ self._half_extent()
        return -ext, ext


class _Revolved(_Solid):
    """A solid of revolution, defined by ``_profiles()`` alone: one (r, z)
    polyline per connected piece, from the axis back to the axis, z
    non-decreasing, the material on its left.  ``_stretch`` (a, b) maps
    x -> a x and y -> b y.  Patches, inside test, bounds, mass properties
    and signed distance all come from the polylines.
    """

    _stretch = (1.0, 1.0)

    def _axis_frame(self):
        return rotation_to_z(self.axis)

    def _inside(self, x, y, z):
        return _profile_inside(self._profiles(), x, y, z, self._stretch)

    def _sdf(self, x, y, z):
        return _profile_sdf(self._profiles(), x, y, z)

    def _clearance(self, x, y, z):
        # exact when round.  Under the stretch (a, b), x -> x s/a, y -> y s/b
        # with s = min(a, b) lengthens no distance and maps the body onto
        # the round one of radius s, whose distance is then a lower bound
        a, b = self._stretch
        s = min(a, b)
        profiles = [[(r * s, z) for r, z in profile] for profile in self._profiles()]
        return _profile_distance(profiles, x * (s / a), y * (s / b), z)

    def _corners(self):
        # a ring of 64 points at each profile vertex, under the stretch
        (a, b), phi = self._stretch, np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        r, z = np.repeat(np.concatenate(self._profiles()).T[:, :, None], 64, axis=2)
        return np.stack([a * r * np.cos(phi), b * r * np.sin(phi), z], axis=-1).reshape(-1, 3)

    def _half_extent(self):
        # x and y both take the larger stretch: the circumscribed cylinder
        rz = np.concatenate(self._profiles())
        r = rz[:, 0].max() * max(self._stretch)
        return np.array([r, r, np.abs(rz[:, 1]).max()])

    def _patch_families(self, n):
        # a segment that reaches the axis (disc, cone) takes the radial count.
        # Under a stretch of axis ratio q < 1 the ring's integrands are
        # analytic only for |Im phi| < atanh(q), so the midpoint ring's error
        # falls as exp(-n_phi atanh(q)): 37 / atanh(q) points put it below
        # rounding (e^-37 < 1e-16).  A round ring needs no more than n["phi"],
        # and one past the patch cap is cut to just past it, which quadrature
        # refuses (37 / atanh(q) overflows to infinity below q = 2e-307)
        q = min(self._stretch) / max(self._stretch)
        ring = 37.0 / math.atanh(q) if q < 1.0 else 0.0
        n_phi = max(n["phi"], math.ceil(min(ring, MAX_PATCHES + 1)))
        families = []
        for r0, z0, r1, z1 in _segments(self._profiles()):
            n_u = n["rad"] if 0.0 in (r0, r1) else n["len"]
            families.append(_family(n_u * n_phi, _sweep, r0, z0, r1, z1, n_u, n_phi,
                                    self._stretch))
        return families

    def _parts(self):
        # Green's theorem in the (r, z) plane: V = pi oint r^2 dz,
        # int z^k dV = pi oint r^2 z^k dz and int x^2 dV = (pi/4) oint r^4 dz.
        # Each integrand has degree <= 4 along a segment: 3 nodes are exact
        r0, z0, r1, z1 = np.array(_segments(self._profiles())).T
        u, w = _gl(3, 0.0, 1.0)
        r = r0[:, None] + np.outer(r1 - r0, u)
        z = z0[:, None] + np.outer(z1 - z0, u)
        dV = np.pi * r**2 * np.outer(z1 - z0, w)
        V = dV.sum()
        zc = np.sum(dV * z) / V
        xx = np.sum(dV * r**2) / 4.0
        A = np.pi * np.sum((r0 + r1) * np.hypot(r1 - r0, z1 - z0))
        return [(V, A, [0.0, 0.0, zc], np.diag([xx, xx, np.sum(dV * (z - zc) ** 2)]))]


class _Rod(_Revolved):
    """A stack of coaxial cylinders, defined by its semi-axes (a, b) =
    ``_semi_axes`` and ``segments()`` (their length and axial centers),
    by default round, of ``radius``, with one of its ``length`` at the
    center.  Its profile, one rectangle per segment, has radius a over
    the stretch: R, or 1 for the unit rod that the stretch (a, b) makes
    elliptic.  The round field, the form factor and the body-frame rule
    come from the semi-axes and segments alone.
    """

    @property
    def _semi_axes(self):
        return self.radius, self.radius

    def segments(self):
        """(segment_length, array of segment center offsets along the axis)."""
        return self.length, np.zeros(1)

    def _profiles(self):
        r, (seg, centers) = self._semi_axes[0] / self._stretch[0], self.segments()
        return [[(0.0, lo), (r, lo), (r, hi), (0.0, hi)]
                for lo, hi in zip(centers - seg / 2, centers + seg / 2)]

    def _smoothed_unit(self, x, y, z, sigma):
        # the disc factor times one interval factor per segment
        seg, centers = self.segments()
        axial = sum(_interval_factor(z - zc, seg / 2.0, sigma) for zc in centers)
        return _disc_factor(np.hypot(x, y), self._semi_axes[0], sigma) * axial

    def _unit_form_factor(self, k):
        (a, b), (seg, centers) = self._semi_axes, self.segments()
        kl = k @ self._frame
        kz = kl[..., 2]
        phases = sum(np.exp(-1j * kz * zc) for zc in centers) if np.any(centers) else 1.0
        return (np.pi * a * b * seg * _jinc(np.hypot(kl[..., 0] * a, kl[..., 1] * b))
                * _sinc(kz * seg / 2.0) * phases)

    def _kspace_local(self, sigma):
        """The body-frame rule, or None if the rod has cavities.

        The transverse form factor is pi a b jinc(zeta) with zeta = |(a q_x,
        b q_y)|, so with q_x = zeta cos(phi) / a and q_y = zeta sin(phi) / b
        the Gaussian's angular integral is closed form: for x = sigma^2
        zeta^2 (a^-2 - b^-2) / 2 and d = exp(-sigma^2 zeta^2 / max(a, b)^2)
        the weights of q_x^2, q_y^2 and 1 are pi d (I0e(x) - I1e(x))
        zeta^2 / a^2, pi d (I0e(x) + I1e(x)) zeta^2 / b^2 and 2 pi d I0e(x),
        I_ne = ``ive``.  zeta = max(a, b) k spans [0, KMAX_SIGMA max(a, b) /
        sigma] as k spans the radial rule, and the axial factors are Z0, Z0
        and Z2 of the segments (:func:`_slab_moments`).
        """
        if self.cavities:
            return None
        (a, b), (seg, centers) = self._semi_axes, self.segments()
        big = max(a, b)
        stretch = 0.5 * ((big / a) * (big / a) - (big / b) * (big / b))
        z0, z2 = _slab_moments(seg, sigma, centers)

        def transverse(k):
            zeta, u2 = big * k, (sigma * k) ** 2
            i0, i1 = ive(0, u2 * stretch), ive(1, u2 * stretch)
            # (pi a b jinc)^2 zeta / (a b) times pi d, and the Jacobian big of zeta
            disc = big * math.pi**3 * a * b * _jinc(zeta) ** 2 * zeta * np.exp(-u2)
            return disc * np.stack([(i0 - i1) * (zeta / a) ** 2, (i0 + i1) * (zeta / b) ** 2,
                                    2.0 * i0])

        return np.array([z0, z0, z2]), transverse


@dataclass(frozen=True)
class Sphere(_Solid):
    radius: float = _length()
    center: tuple = _center()
    cavities: tuple = _cavities()

    def _inside(self, x, y, z):
        return _norm(x, y, z) <= self.radius

    def _sdf(self, x, y, z):
        return _norm(x, y, z) - self.radius

    def _half_extent(self):
        return np.full(3, self.radius)

    def _patch_families(self, n):
        return [_family(n["theta"] * n["phi"], _sphere_patches,
                        self.radius, n["theta"], n["phi"])]

    def _parts(self):
        R = self.radius
        V = 4.0 * np.pi * R**3 / 3.0
        return [(V, 4.0 * np.pi * R**2, np.zeros(3), V * R**2 / 5.0 * np.eye(3))]

    def _smoothed_unit(self, x, y, z, sigma):
        return _ball_factor(_norm(x, y, z), self.radius, sigma)

    def _unit_form_factor(self, k):
        R = self.radius
        V = 4.0 * np.pi * R**3 / 3.0
        u = np.linalg.norm(k, axis=-1) * R
        small = np.abs(u) < 1e-6
        us = np.where(small, 1.0, u)
        g = np.where(small, 1.0 - u**2 / 10.0, 3.0 * (np.sin(us) - us * np.cos(us)) / us**3)
        return V * g

    def _kspace_local(self, sigma):
        # |mu| is a function of |k| alone, the cavities' too if all are spheres
        # at the center: the integrand is 4 pi/3 k^4 exp(-k^2 sigma^2) |mu(k z)|^2
        if not all(isinstance(cav, Sphere) and cav.center == self.center
                   for cav in self.cavities):
            return None
        parts = [(1.0, self)] + [(-1.0, cav) for cav in self.cavities]

        def shell(k):
            kz = np.outer(k, (0.0, 0.0, 1.0))
            mu = sum(sign * part._unit_form_factor(kz) for sign, part in parts)
            return k**4 * np.exp(-((k * sigma) ** 2)) * mu**2

        return np.full(3, 4.0 * np.pi / 3.0), shell


@dataclass(frozen=True)
class Cylinder(_Rod):
    radius: float = _length()
    length: float = _length()
    axis: tuple = _axis()
    center: tuple = _center()
    cavities: tuple = _cavities()


@dataclass(frozen=True)
class Box(_Solid):
    size: tuple = _field(_box_sides, "length")  # (a, b, c), axis-aligned
    center: tuple = _center()
    cavities: tuple = _cavities()

    def _inside(self, x, y, z):
        hx, hy, hz = np.asarray(self.size) / 2.0
        return (np.abs(x) <= hx) & (np.abs(y) <= hy) & (np.abs(z) <= hz)

    def _sdf(self, x, y, z):
        qx, qy, qz = (np.abs(w) - side / 2.0 for w, side in zip((x, y, z), self.size))
        outside = _norm(np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0))
        return outside + np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)

    def _half_extent(self):
        return np.asarray(self.size) / 2.0

    def _corners(self):
        return np.array(list(product(*[(-h, h) for h in self._half_extent()])))

    def _patch_families(self, n):
        half = np.asarray(self.size) / 2.0
        return [_family(n["face"] ** 2, _rect_patches, ax, sgn, half, n["face"])
                for ax in range(3) for sgn in (+1, -1)]

    def _parts(self):
        a, b, c = self.size
        V = a * b * c
        A = 2.0 * (a * b + b * c + c * a)
        J = np.diag([V * a**2 / 12.0, V * b**2 / 12.0, V * c**2 / 12.0])
        return [(V, A, np.zeros(3), J)]

    def _smoothed_unit(self, x, y, z, sigma):
        out = 1.0
        for w, side in zip((x, y, z), self.size):
            out = out * _interval_factor(w, side / 2.0, sigma)
        return out

    def _unit_form_factor(self, k):
        a, b, c = self.size
        return (a * _sinc(k[..., 0] * a / 2.0)
                * b * _sinc(k[..., 1] * b / 2.0)
                * c * _sinc(k[..., 2] * c / 2.0))

    def _kspace_local(self, sigma):
        # a product of three slabs: nothing is left to integrate
        if self.cavities:
            return None
        (za0, za2), (zb0, zb2), (zc0, zc2) = (_slab_moments(s, sigma) for s in self.size)
        return np.array([za2 * zb0 * zc0, za0 * zb2 * zc0, za0 * zb0 * zc2]), None


@dataclass(frozen=True)
class ConeCappedCylinder(_Revolved):
    """Cylinder whose two flat faces are replaced by outward cones.

    ``apex_angle`` is the full opening angle of each cone; the flat-face
    limit is apex_angle -> pi.  The cylindrical section has length
    ``length``; the cones extend beyond it.
    """

    radius: float = _length()
    length: float = _length()
    apex_angle: float = _field(partial(_scalar, low=0.0, high=math.pi, open=True),
                               "angle")  # rad
    axis: tuple = _axis()
    center: tuple = _center()
    cavities: tuple = _cavities()

    @property
    def cone_height(self):
        return self.radius / math.tan(self.apex_angle / 2.0)

    def _profiles(self):
        # r(z): 0 at each apex, rising linearly to R at the seams z = +-L/2
        R, half, h = self.radius, self.length / 2.0, self.cone_height
        return [[(0.0, -half - h), (R, -half), (R, half), (0.0, half + h)]]


@dataclass(frozen=True)
class EllipticCylinder(_Rod):
    """Cylinder with elliptic cross section, semi-axes a (x) and b (y): the
    unit rod under the stretch (a, b)."""

    semi_axis_a: float = _length()
    semi_axis_b: float = _length()
    length: float = _length()
    axis: tuple = _axis()
    center: tuple = _center()
    cavities: tuple = _cavities()

    _sdf = None
    _smoothed_unit = None

    @property
    def _stretch(self):
        return self.semi_axis_a, self.semi_axis_b

    _semi_axes = _stretch

    def _parts(self):
        a, b, L = self.semi_axis_a, self.semi_axis_b, self.length
        V = np.pi * a * b * L
        big, small = max(a, b), min(a, b)
        perimeter = 4.0 * big * ellipe(1.0 - (small / big) ** 2)
        A = perimeter * L + 2.0 * np.pi * a * b
        J = np.diag([V * a**2 / 4.0, V * b**2 / 4.0, V * L**2 / 12.0])
        return [(V, A, np.zeros(3), J)]


@dataclass(frozen=True)
class GappedCylinder(_Rod):
    """Cylinder of overall span ``length`` cut by evenly spaced gaps.

    ``gap_count`` perpendicular gaps of width ``gap_width`` split the rod
    into gap_count + 1 equal solid segments; every cut face is a material
    boundary.
    """

    radius: float = _length()
    length: float = _length()
    gap_count: int = _field(partial(_scalar, low=0, integer=True), "dimensionless")
    gap_width: float = _field(partial(_scalar, low=0.0), "length")
    axis: tuple = _axis()
    center: tuple = _center()
    cavities: tuple = _cavities()

    def __post_init__(self):
        super().__post_init__()
        if self.gap_count > 0:
            _scalar("gap_width", self.gap_width, 0.0, open=True)
            if self.gap_count * self.gap_width >= self.length:
                raise DegenerateDimension("gaps consume the whole cylinder")

    def segments(self):
        """(segment_length, array of segment center offsets along the axis)."""
        n = self.gap_count
        seg = (self.length - n * self.gap_width) / (n + 1)
        starts = -self.length / 2.0 + np.arange(n + 1) * (seg + self.gap_width)
        return seg, starts + seg / 2.0


@dataclass(frozen=True)
class Mesh(_Solid):
    """Shape defined by a watertight triangle mesh."""

    mesh: TriangleMesh = _field(_triangle_mesh)
    center: tuple = _center()
    cavities: tuple = _cavities()

    def _inside(self, x, y, z):
        p = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
        return self.mesh.contains(p.reshape(-1, 3)).reshape(p.shape[:-1])

    def _lattice(self, xs, ys, zs):
        # a lattice line is inside between the flips of its ray parity
        # (TriangleMesh._flips): a line with an odd number of flips starts
        # inside, and a flip enters or leaves by the parity of its rank in
        # its line.  A flip at sample a adds +-(ss - a % ss) to voxel a // ss
        # and +-(a % ss) to the next; the ss^2 lines of a voxel column share
        # its row of differences, so one cumsum along x gives the counts
        (nx, ss), ny, nz = xs.shape, len(ys), len(zs)
        line, at = self.mesh._flips(*(a.ravel() for a in _local_axes(self, xs, ys, zs)))
        first = np.flatnonzero(np.diff(line, prepend=-1))
        run = np.diff(first, append=len(line))
        rank = np.arange(len(line)) - np.repeat(first, run)
        step = np.where((rank + np.repeat(run, run)) % 2 == 0, 1, -1)
        j, k = np.divmod(line, nz * ss)
        column, plane = (j // ss) * nz + k // ss, ny * nz
        q, m = np.divmod(at, ss)
        diff = np.zeros((nx + 2) * plane, dtype=np.int16)
        # add.at is fast only on values of the array's own dtype
        np.add.at(diff, q * plane + column, (step * (ss - m)).astype(np.int16))
        np.add.at(diff, (q + 1) * plane + column, (step * m).astype(np.int16))
        np.add.at(diff, column[first[run % 2 == 1]], np.int16(ss))
        count = np.cumsum(diff.reshape(nx + 2, plane)[:nx], axis=0, dtype=np.int16)
        return count.astype(np.uint8).reshape(nx, ny, nz)

    def _bounds(self):
        return self.mesh.bounding_box()

    def _corners(self):
        return self.mesh.vertices

    def _patch_families(self, n):
        # the per-facet mid-edge rule; resolution does not apply
        return [_family(3 * len(self.mesh.faces), self.mesh.surface_patches)]

    def _parts(self):
        V, first, second = self.mesh.integral_moments()
        if V <= 0:
            raise DegenerateDimension("mesh volume is not positive")
        c_local = first / V
        J_local = second - V * np.outer(c_local, c_local)
        return [(V, self.mesh.area(), c_local, J_local)]


ANALYTIC_SHAPES = (Sphere, Cylinder, Box, ConeCappedCylinder, EllipticCylinder, GappedCylinder)
Shape = (*ANALYTIC_SHAPES, Mesh)


def local_frame(spec):
    """The solid's read-only rotation matrix mapping local coordinates
    (axis = +z) to world, built once with the solid."""
    return spec._frame


# ---------------------------------------------------------------------------
# validation


def build_shape(spec):
    """Validate a shape spec (including cavities) and return it.

    Numeric invariants are enforced at construction; this adds the
    geometric cavity checks: cavities must be strictly inside the host
    material and mutually disjoint.  Idempotent.
    """
    if not isinstance(spec, Shape):
        raise UnsupportedShape(f"not a shape spec: {type(spec).__name__}")
    if getattr(spec, "_validated", False):
        return spec
    if spec.cavities:
        _check_cavities(spec)
    object.__setattr__(spec, "_validated", True)
    return spec


def _check_cavities(spec):
    """Cavities must sit strictly inside the host and apart from each other.

    Checks are exact for spherical cavities against hosts with a signed
    distance (tangency included): the center must be inside, and farther
    from the boundary than the radius by the ``_clearance``, which is
    then the magnitude of the signed distance.  Other combinations are
    validated on probes of the cavity surface: the resolution-8
    quadrature nodes, and the ``_corners`` that no node reaches (a box's
    8 corners, a ring at each profile vertex of a solid of revolution,
    a mesh's vertices).
    """
    host = replace(spec, cavities=())
    probes = []
    for cav in spec.cavities:
        if not isinstance(cav, Shape):
            raise CavityOverlap(f"cavity is not a shape spec: {cav!r}")
        if cav.cavities:
            raise CavityOverlap("cavities may not themselves contain cavities")
        pts = np.concatenate([quadrature(cav, resolution=8).points,
                              cav._corners() @ cav._frame.T + cav.center])
        if not np.all(contains(host, pts)):
            raise CavityOverlap("cavity surface is not strictly inside the host")
        # parity probes above are the best available for hosts without a distance
        if host._sdf is not None:
            if isinstance(cav, Sphere):
                touches = (not contains(host, cav.center)[0]
                           or host._clearance(*_local_axes(host, *cav.center)) <= cav.radius)
            else:
                touches = np.max(signed_distance(host, pts)) >= 0.0
            if touches:
                raise CavityOverlap("cavity touches the host boundary")
        probes.append(pts)
    for (i, cav_i), (j, cav_j) in combinations(enumerate(spec.cavities), 2):
        if isinstance(cav_i, Sphere) and isinstance(cav_j, Sphere):
            gap = np.linalg.norm(np.asarray(cav_i.center) - np.asarray(cav_j.center))
            if gap <= cav_i.radius + cav_j.radius:
                raise CavityOverlap(f"cavities {i} and {j} overlap")
        elif np.any(contains(cav_j, probes[i])) or np.any(contains(cav_i, probes[j])):
            raise CavityOverlap(f"cavities {i} and {j} overlap")


# ---------------------------------------------------------------------------
# point classification


def _local_axes(spec, x, y, z):
    """Local coordinates of the world points (x, y, z), given as
    broadcastable arrays, as every hook takes them: coordinate k is
    sum_j F[j, k] (w_j - c_j), F the solid's frame and c the center.
    Terms with F[j, k] = 0 are skipped and F[j, k] = +-1 takes
    +-(w_j - c_j), so on a named axis each local coordinate keeps the
    shape of one world axis and equals the matrix product's value; on a
    tilted one the sum may round differently."""
    w = [v - c for v, c in zip((x, y, z), spec.center)]
    terms = [[w[j] if f == 1.0 else -w[j] if f == -1.0 else f * w[j]
              for j, f in enumerate(column) if f != 0.0] for column in spec._frame.T]
    return [sum(t[1:], t[0]) for t in terms]


def _points(points):
    """``points`` as a float array of shape (..., 3); a bare 3-vector is one
    point, of shape (1, 3).  Anything else, a ragged or non-numeric
    sequence included, raises :class:`DegenerateDimension`."""
    p = _array("points", points, (..., 3), finite=False)
    return p[None] if p.ndim == 1 else p


def _point_axes(points):
    """The world axes x, y, z of :func:`_points`, each of the points' leading shape."""
    return np.moveaxis(_points(points), -1, 0)


def contains(spec, points):
    """Boolean mask of the points' leading shape: is there material at each
    point of an (..., 3) array.  The body passes :func:`build_shape` first."""
    spec = build_shape(spec)
    axes = _point_axes(points)
    inside = spec._inside(*_local_axes(spec, *axes))
    for cav in spec.cavities:
        inside &= ~cav._inside(*_local_axes(cav, *axes))
    return inside


def signed_distance(spec, points):
    """Signed distance to the material boundary (negative inside).

    Exact, for sphere, box, cylinder, gapped and cone-capped cylinders
    and compositions with such cavities; unavailable for elliptic
    cylinders and meshes.  Without cavities its magnitude is the solid's
    clearance, bit for bit.  The body passes :func:`build_shape` first.
    """
    spec = build_shape(spec)
    for solid in (spec, *spec.cavities):
        if solid._sdf is None:
            raise UnsupportedShape(f"signed distance not available for {type(solid).__name__}")
    axes = _point_axes(points)
    d = spec._sdf(*_local_axes(spec, *axes))
    for cav in spec.cavities:
        d = np.maximum(d, -cav._sdf(*_local_axes(cav, *axes)))
    return d


def _has_form_factor(spec):
    return all(solid._unit_form_factor is not None for solid in (spec, *spec.cavities))


def bounding_box(spec):
    """Axis-aligned (min, max) corners of the material."""
    c = np.asarray(spec.center)
    lo, hi = spec._bounds()
    return c + lo, c + hi


# ---------------------------------------------------------------------------
# quadrature


def quadrature(spec, resolution=DEFAULT_RESOLUTION):
    """Surface quadrature of the whole material boundary.

    Covers the outer surface, gap faces, and cavity walls; cavity-wall
    normals point out of the material.  For meshes the decomposition is
    the per-facet mid-edge rule and ``resolution`` is ignored.  A rule of
    more than MAX_PATCHES patches raises :class:`ResolutionOverflow`.
    """
    spec = build_shape(spec)
    counts = _counts(resolution)
    solids = [spec, *spec.cavities]
    families = [solid._patch_families(counts) for solid in solids]
    total = sum(size for fams in families for size, _ in fams)
    if total > MAX_PATCHES:
        raise ResolutionOverflow(f"{total} patches exceed the cap {MAX_PATCHES}")

    host, *cavities = [
        SurfacePatches.concatenate([build() for _, build in fams])
        .rotated(solid._frame).translated(solid.center)
        for solid, fams in zip(solids, families)
    ]
    return SurfacePatches.concatenate([host] + [c.flipped() for c in cavities])


# ---------------------------------------------------------------------------
# mass properties


def mass_properties(spec, density):
    """Volume, area, mass, centroid, and inertia tensors of the body.

    Cavities subtract volume and add wall area.  For meshes the moments
    come from exact signed-tetrahedron accumulation over the facets.
    """
    density = _scalar("density", density, 0.0, open=True)
    spec = build_shape(spec)
    parts = []
    for sign, solid in [(+1.0, spec)] + [(-1.0, cav) for cav in spec.cavities]:
        # each part's J is its second moment about its own centroid
        frame, center = solid._frame, np.asarray(solid.center)
        for V, A, c, J in solid._parts():
            parts.append((sign, V, A, frame @ np.asarray(c) + center,
                          frame @ np.asarray(J) @ frame.T))
    return compose_mass_properties(parts, density)
