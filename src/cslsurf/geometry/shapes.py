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
signed distance is that same number, negative inside.  The elliptic
cylinder is the unit cylinder under the stretch x -> a x, y -> b y and
has no signed distance: one measured in the stretched frame is not a
distance, and its clearance is a lower bound.  Every signed distance
here is exact.  The sphere keeps its own rule, whose points are exactly
R times the normals; boxes take one rule per face.

A step edge never reads a signed distance: its Gaussian-smoothed
indicator is a shape's closed form (``_smoothed_unit``) where one
exists, and otherwise the oracles filter the supersampled indicator.

Each shape class is the one place its geometry lives; the module-level
functions here and in the oracles dispatch to its methods.  Each hook
takes the local coordinates as broadcastable arrays (:func:`_local_axes`);
only a mesh's ray parity stacks them into points.  The supersampled
fill's ``_lattice`` hook takes world axes and classifies through
:func:`contains`.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
from itertools import combinations

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
    v = np.asarray(axis, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)) or np.linalg.norm(v) == 0:
        raise DegenerateDimension(f"invalid axis {axis!r}")
    return tuple(unit_vector(v))


def _canon_center(name, center):
    c = np.asarray(center, dtype=float)
    if c.shape != (3,) or not np.all(np.isfinite(c)):
        raise DegenerateDimension(f"invalid center {center!r}")
    return tuple(c)


def _positive(name, value):
    value = float(value)
    if not (value > 0.0) or not math.isfinite(value):
        raise DegenerateDimension(
            f"{name.replace('_', ' ')} must be positive and finite, got {value}")
    return value


def _box_sides(name, sides):
    sides = tuple(_positive("box side", s) for s in sides)
    if len(sides) != 3:
        raise DegenerateDimension("box size must have 3 entries")
    return sides


def _apex_angle(name, value):
    value = float(value)
    if not (0.0 < value < math.pi):
        raise DegenerateDimension(f"apex angle must be in (0, pi), got {value}")
    return value


def _real(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise DegenerateDimension(f"{name.replace('_', ' ')} must be finite, got {value}")
    return value


def _count(name, value):
    value = int(value)
    if value < 0:
        raise DegenerateDimension(f"{name.replace('_', ' ')} must be >= 0")
    return value


def _triangle_mesh(name, value):
    if not isinstance(value, TriangleMesh):
        raise DegenerateDimension("Mesh spec requires a TriangleMesh")
    return value


def _field(canon, unit=None, **kw):
    """A shape field.  ``canon`` canonicalises its value at construction;
    ``unit`` is the dimension of its quantities (None: not a quantity)."""
    return field(metadata={"canon": canon, "unit": unit}, **kw)


def _length():
    return _field(_positive, "length")


def _axis():
    return _field(_canon_axis, default=(0.0, 0.0, 1.0))


def _center():
    return _field(_canon_center, "length", default=(0.0, 0.0, 0.0))


def _cavities():
    return _field(lambda name, value: tuple(value), default=())


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


def _slab_moments(length, sigma):
    """(Z0, Z2): the integrals over the whole line of exp(-sigma^2 u^2)
    |length sinc(u length / 2)|^2 u^m, m = 0 and 2, the closed-form axial
    factors of the k-space tensor of a straight solid of that ``length``."""
    t = length / (2.0 * sigma)
    gap = -math.expm1(-t * t)
    z0 = 2.0 * math.pi * (length * math.erf(t) - 2.0 * sigma / math.sqrt(math.pi) * gap)
    return z0, 2.0 * math.sqrt(math.pi) / sigma * gap


def _cylinder_kspace(solid, a, b, sigma):
    """``_kspace_local`` of the circular or elliptic cylinder ``solid``
    with semi-axes (a, b): None if it has cavities.

    The transverse form factor is pi a b jinc(zeta) with zeta = |(a q_x,
    b q_y)|, so with q_x = zeta cos(phi) / a and q_y = zeta sin(phi) / b
    the Gaussian's angular integral is closed form: for x = sigma^2
    zeta^2 (a^-2 - b^-2) / 2 and d = exp(-sigma^2 zeta^2 / max(a, b)^2)
    the weights of q_x^2, q_y^2 and 1 are pi d (I0e(x) - I1e(x))
    zeta^2 / a^2, pi d (I0e(x) + I1e(x)) zeta^2 / b^2 and 2 pi d I0e(x),
    I_ne = ``ive``.  zeta = max(a, b) k spans [0, KMAX_SIGMA max(a, b) /
    sigma] as k spans the radial rule, and the axial factors are Z0, Z0
    and Z2 of the length (:func:`_slab_moments`).
    """
    if solid.cavities:
        return None
    big = max(a, b)
    stretch = 0.5 * ((big / a) * (big / a) - (big / b) * (big / b))
    z0, z2 = _slab_moments(solid.length, sigma)

    def transverse(k):
        zeta, u2 = big * k, (sigma * k) ** 2
        i0, i1 = ive(0, u2 * stretch), ive(1, u2 * stretch)
        # (pi a b jinc)^2 zeta / (a b) times pi d, and the Jacobian big of zeta
        disc = big * math.pi**3 * a * b * _jinc(zeta) ** 2 * zeta * np.exp(-u2)
        return disc * np.stack([(i0 - i1) * (zeta / a) ** 2, (i0 + i1) * (zeta / b) ** 2,
                                2.0 * i0])

    return np.array([z0, z0, z2]), transverse


# ---------------------------------------------------------------------------
# (r, z) profiles of solids of revolution, in the local frame


def _segments(profiles):
    """(r0, z0, r1, z1) of each straight segment of the ``profiles`` polylines."""
    return [(*p, *q) for profile in profiles for p, q in zip(profile, profile[1:])]


def _profile_inside(profiles, x, y, z, stretch=(1.0, 1.0)):
    """Mask of the points with r <= r(z) on a wall (a segment that is not
    a disc) of the ``profiles``; r^2 = (x/a)^2 + (y/b)^2 under the
    ``stretch`` (a, b).  The supersampled fill's hot loop: r^2 is taken
    once and compared with r(z)^2 per wall, and the walls OR-ed."""
    a, b = stretch
    r2 = (x / a) ** 2 + (y / b) ** 2
    inside = False
    for r0, z0, r1, z1 in _segments(profiles):
        if z0 == z1:
            continue
        if r0 == r1:
            wall = r2 <= r0 * r0
        else:
            rz = r0 + (z - z0) * ((r1 - r0) / (z1 - z0))
            wall = r2 <= rz * rz
        inside = inside | (wall & (z >= z0) & (z <= z1))
    return inside


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
    res = int(resolution)
    if res < 1:
        raise ResolutionOverflow("resolution must be >= 1")
    return {
        "phi": max(8, 4 * res),
        "theta": max(4, res),
        "len": max(2, res),
        "rad": max(2, res // 2),
        "face": max(2, res // 2),
        "ellipse": max(16, 4 * res),
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
#: band voxels whose subsamples go through one ``contains`` call
_BAND_CHUNK = 1024


def _groups(cells, size):
    """Centers of the runs of ``size`` voxels along each axis of the
    lattice ``cells`` (the last run may be shorter), and their reach: the
    largest distance from a run's center to one of its subsamples, with a
    relative slack of 1e-6 for the rounding of the local frame and of the
    clearance, some 1e-15 of the body's size."""
    mids, half = [], []
    for c in cells:
        (n, ss), first = c.shape, np.arange(0, len(c), size)
        flat = c.ravel()
        mid = 0.5 * (flat[first * ss] + flat[np.minimum(first + size, n) * ss - 1])
        mids.append(mid)
        half.append(np.max(np.abs(flat - np.repeat(mid, size * ss)[:n * ss])))
    return mids, math.hypot(*half) * (1.0 + 1e-6)


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
    which :class:`_Revolved` derives all its geometry.  The hooks ``_sdf``
    (exact signed distance; none for the elliptic cylinder),
    ``_smoothed_unit`` (closed-form Gaussian-smoothed indicator; none for
    the cone-capped and elliptic cylinders) and ``_unit_form_factor`` are
    None where the shape has none; the oracles then take the next path of
    their rule (``oracle.voxel._unit_field``: the filtered raster; the
    k-space integral: the DFT route).  ``_kspace_local(sigma)``, the one
    hook that sees cavities, picks the k-space rule of a body with a form
    factor.  It returns (factors, integrand), the body-frame rule: the
    diagonal of int exp(-k^2 sigma^2) |mu|^2 q o q dq in local axes q, at
    unit density, is ``factors`` times the integral of ``integrand`` over
    k in [0, KMAX_SIGMA / sigma], or ``factors`` where ``integrand`` is
    None.  It returns None, the spherical ladder, for a body it cannot
    take: by default, and for a box or cylinder with cavities or a sphere
    whose cavities are not all spheres at its center.  ``_clearance`` is
    a lower bound on the distance to the boundary, exact (``|_sdf|``)
    unless a subclass says otherwise.  ``_lattice`` classifies the supersampled
    fill's world-axis lattice, culling blocks and then voxels by their
    clearance; ``Mesh`` overrides it with scanline parity.  Both return
    each voxel's side, the band of voxels the boundary may cut and the
    band's subsample bits or counts.
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

    def _lattice(self, xs, ys, zs, counts=False):
        """Classify the solid, which has no cavities (the fill passes its
        cavity-free host), on the subsample lattice of ``xs``, ``ys`` and
        ``zs``: (n, ss) arrays of ascending world coordinates, row i
        holding the ss subsamples of voxel i on that axis.

        Returns (side, band, bits): the (nx, ny, nz) mask of the voxels
        that lie inside, the ascending flat indices of the band (the
        voxels the boundary may cut, whose ``side`` is moot), and the
        band's (n_band, ss^3) subsample bits, bit (a ss + b) ss + c of a
        voxel for its subsample (a, b, c) along (x, y, z), or with
        ``counts`` the number of set bits of each.

        Three levels.  Blocks of ``_BLOCK`` voxels per axis take the
        ``_clearance`` at their centers: a block farther from the boundary
        than its reach (:func:`_groups`) lies on one side of it, and all
        its voxels take :func:`contains` at its center.  The voxels of the
        other blocks do the same at voxel level.  Only the voxels left, the
        band, classify their subsamples, gathered from the same axes and
        passed through :func:`contains` ``_BAND_CHUNK`` voxels at a time,
        so every bit is the one the pointwise test gives at that lattice
        point.
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
        side = np.ascontiguousarray(_spread(block_side, dims))
        # the voxels of the near blocks, at voxel level
        voxels = np.flatnonzero(_spread(near, dims))
        (vx, vy, vz), reach = _groups(cells, 1)
        i, j, k = np.unravel_index(voxels, dims)
        x, y, z = vx[i], vy[j], vz[k]
        far = self._clearance(*_local_axes(self, x, y, z)) > reach
        side.reshape(-1)[voxels[far]] = contains(self, np.stack([x[far], y[far], z[far]], axis=1))
        # the band's subsamples, in the order of their bits
        band = voxels[~far]
        i, j, k = np.unravel_index(band, dims)
        bits = np.empty(len(band) if counts else (len(band), ss**3),
                        dtype=np.intp if counts else bool)
        pts = np.empty((3, min(len(band), _BAND_CHUNK), ss, ss, ss))
        for lo in range(0, len(band), _BAND_CHUNK):
            sl = slice(lo, lo + _BAND_CHUNK)
            chunk = pts[:, :len(band[sl])]
            chunk[0] = xs[i[sl], :, None, None]
            chunk[1] = ys[j[sl], None, :, None]
            chunk[2] = zs[k[sl], None, None, :]
            inside = contains(self, chunk.reshape(3, -1).T).reshape(-1, ss**3)
            bits[sl] = np.count_nonzero(inside, axis=1) if counts else inside
        return side, band, bits

    def _bounds(self):
        """(min, max) corners about the center, in world axes."""
        ext = np.abs(self._frame) @ self._half_extent()
        return -ext, ext


class _Revolved(_Solid):
    """A solid of revolution, defined by ``_profiles()`` alone: one (r, z)
    polyline per connected piece, from the axis back to the axis, z
    non-decreasing, the material on its left.  ``_stretch`` (a, b) maps
    x -> a x and y -> b y; ``_ring`` names the patch count around the axis.
    Patches, inside test, bounds, mass properties and signed distance all
    come from the polylines.
    """

    _stretch = (1.0, 1.0)
    _ring = "phi"

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

    def _half_extent(self):
        # x and y both take the larger stretch: the circumscribed cylinder
        rz = np.concatenate(self._profiles())
        r = rz[:, 0].max() * max(self._stretch)
        return np.array([r, r, np.abs(rz[:, 1]).max()])

    def _patch_families(self, n):
        # a segment that reaches the axis (disc, cone) takes the radial count
        n_phi, families = n[self._ring], []
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
class Cylinder(_Revolved):
    radius: float = _length()
    length: float = _length()
    axis: tuple = _axis()
    center: tuple = _center()
    cavities: tuple = _cavities()

    def _profiles(self):
        R, half = self.radius, self.length / 2.0
        return [[(0.0, -half), (R, -half), (R, half), (0.0, half)]]

    def _smoothed_unit(self, x, y, z, sigma):
        return (_disc_factor(np.hypot(x, y), self.radius, sigma)
                * _interval_factor(z, self.length / 2.0, sigma))

    def _unit_form_factor(self, k):
        R, L = self.radius, self.length
        kl = k @ self._frame
        kperp = np.hypot(kl[..., 0], kl[..., 1])
        return np.pi * R**2 * L * _jinc(kperp * R) * _sinc(kl[..., 2] * L / 2.0)

    def _kspace_local(self, sigma):
        return _cylinder_kspace(self, self.radius, self.radius, sigma)


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
    apex_angle: float = _field(_apex_angle, "angle")  # rad, 0 < angle < pi
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
class EllipticCylinder(_Revolved):
    """Cylinder with elliptic cross section, semi-axes a (x) and b (y)."""

    semi_axis_a: float = _length()
    semi_axis_b: float = _length()
    length: float = _length()
    axis: tuple = _axis()
    center: tuple = _center()
    cavities: tuple = _cavities()

    _sdf = None
    _ring = "ellipse"

    @property
    def _stretch(self):
        return self.semi_axis_a, self.semi_axis_b

    def _profiles(self):
        # the unit cylinder, stretched by (a, b)
        half = self.length / 2.0
        return [[(0.0, -half), (1.0, -half), (1.0, half), (0.0, half)]]

    def _parts(self):
        a, b, L = self.semi_axis_a, self.semi_axis_b, self.length
        V = np.pi * a * b * L
        big, small = max(a, b), min(a, b)
        perimeter = 4.0 * big * ellipe(1.0 - (small / big) ** 2)
        A = perimeter * L + 2.0 * np.pi * a * b
        J = np.diag([V * a**2 / 4.0, V * b**2 / 4.0, V * L**2 / 12.0])
        return [(V, A, np.zeros(3), J)]

    def _unit_form_factor(self, k):
        a, b, L = self.semi_axis_a, self.semi_axis_b, self.length
        kl = k @ self._frame
        zeta = np.hypot(kl[..., 0] * a, kl[..., 1] * b)
        return np.pi * a * b * L * _jinc(zeta) * _sinc(kl[..., 2] * L / 2.0)

    def _kspace_local(self, sigma):
        return _cylinder_kspace(self, self.semi_axis_a, self.semi_axis_b, sigma)


@dataclass(frozen=True)
class GappedCylinder(_Revolved):
    """Cylinder of overall span ``length`` cut by evenly spaced gaps.

    ``gap_count`` perpendicular gaps of width ``gap_width`` split the rod
    into gap_count + 1 equal solid segments; every cut face is a material
    boundary.
    """

    radius: float = _length()
    length: float = _length()
    gap_count: int = _field(_count, "dimensionless")
    gap_width: float = _field(_real, "length")
    axis: tuple = _axis()
    center: tuple = _center()
    cavities: tuple = _cavities()

    def __post_init__(self):
        super().__post_init__()
        if self.gap_count > 0:
            _positive("gap_width", self.gap_width)
            if self.gap_count * self.gap_width >= self.length:
                raise DegenerateDimension("gaps consume the whole cylinder")

    def segments(self):
        """(segment_length, list of segment center offsets along the axis)."""
        n = self.gap_count
        seg = (self.length - n * self.gap_width) / (n + 1)
        starts = -self.length / 2.0 + np.arange(n + 1) * (seg + self.gap_width)
        return seg, starts + seg / 2.0

    def _profiles(self):
        # one cylinder profile per solid segment
        R, (seg, centers) = self.radius, self.segments()
        return [[(0.0, lo), (R, lo), (R, hi), (0.0, hi)]
                for lo, hi in zip(centers - seg / 2, centers + seg / 2)]

    def _smoothed_unit(self, x, y, z, sigma):
        seg, centers = self.segments()
        axial = 0.0
        for zc in centers:
            axial = axial + _interval_factor(z - zc, seg / 2.0, sigma)
        return _disc_factor(np.hypot(x, y), self.radius, sigma) * axial


@dataclass(frozen=True)
class Mesh(_Solid):
    """Shape defined by a watertight triangle mesh."""

    mesh: TriangleMesh = _field(_triangle_mesh)
    center: tuple = _center()
    cavities: tuple = _cavities()

    def _inside(self, x, y, z):
        p = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
        return self.mesh.contains(p.reshape(-1, 3)).reshape(p.shape[:-1])

    def _lattice(self, xs, ys, zs, counts=False):
        # scanline parity, one voxel row of ss lattice lines at a time; the
        # band is the voxels whose count is neither 0 nor ss^3, and only a
        # fill that asks for bits gathers them out of the row
        dims, ss = (len(xs), len(ys), len(zs)), xs.shape[1]
        nx, ny, nz = dims
        lx, ly, lz = _local_axes(self, xs.ravel(), ys.ravel(), zs.ravel())
        count = np.empty(dims, dtype=np.uint8)
        cut, cut_bits = [], []
        for j in range(ny):
            inside = self.mesh.contains_lattice(lx, ly[j * ss:(j + 1) * ss], lz)   # (y, z, x)
            # a count is at most ss**3 = 64; summing the leading axis first as
            # uint8 is about 4x faster than one bool reduction over three axes
            blocks = inside.view(np.uint8).reshape(ss, nz, ss, nx, ss)
            row = blocks.sum(axis=0, dtype=np.uint8).sum(axis=(1, 3), dtype=np.uint8)
            count[:, j, :] = row.T
            if not counts:
                kz, kx = np.nonzero((row > 0) & (row < ss**3))
                cut.append((kx * ny + j) * nz + kz)
                voxel_bits = inside.reshape(blocks.shape)[:, kz, :, kx, :]   # (voxel, y, z, x)
                cut_bits.append(voxel_bits.transpose(0, 3, 1, 2).reshape(len(kz), ss**3))
        band = np.flatnonzero((count > 0) & (count < ss**3))
        if counts:
            bits = count.reshape(-1)[band]
        else:
            bits = np.concatenate(cut_bits)[np.argsort(np.concatenate(cut))]
        return count == ss**3, band, bits

    def _bounds(self):
        return self.mesh.bounding_box()

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
    validated on sampled cavity-surface probes.
    """
    host = replace(spec, cavities=())
    probes = []
    for cav in spec.cavities:
        if not isinstance(cav, Shape):
            raise CavityOverlap(f"cavity is not a shape spec: {cav!r}")
        if cav.cavities:
            raise CavityOverlap("cavities may not themselves contain cavities")
        pts = quadrature(cav, resolution=8).points
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


def contains(spec, points):
    """Boolean mask: is there material at each point."""
    axes = np.atleast_2d(np.asarray(points, dtype=float)).T
    inside = spec._inside(*_local_axes(spec, *axes))
    for cav in spec.cavities:
        inside &= ~cav._inside(*_local_axes(cav, *axes))
    return inside


def signed_distance(spec, points):
    """Signed distance to the material boundary (negative inside).

    Exact, for sphere, box, cylinder, gapped and cone-capped cylinders
    and compositions with such cavities; unavailable for elliptic
    cylinders and meshes.  Without cavities its magnitude is the solid's
    clearance, bit for bit.
    """
    for solid in (spec, *spec.cavities):
        if solid._sdf is None:
            raise UnsupportedShape(f"signed distance not available for {type(solid).__name__}")
    axes = np.atleast_2d(np.asarray(points, dtype=float)).T
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


def quadrature(spec, resolution=DEFAULT_RESOLUTION, max_patches=MAX_PATCHES):
    """Surface quadrature of the whole material boundary.

    Covers the outer surface, gap faces, and cavity walls; cavity-wall
    normals point out of the material.  For meshes the decomposition is
    the per-facet mid-edge rule and ``resolution`` is ignored.
    """
    spec = build_shape(spec)
    counts = _counts(resolution)
    solids = [spec, *spec.cavities]
    families = [solid._patch_families(counts) for solid in solids]
    total = sum(size for fams in families for size, _ in fams)
    if total > max_patches:
        raise ResolutionOverflow(f"{total} patches exceed the cap {max_patches}")

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
    _positive("density", density)
    spec = build_shape(spec)
    parts = []
    for sign, solid in [(+1.0, spec)] + [(-1.0, cav) for cav in spec.cavities]:
        # each part's J is its second moment about its own centroid
        frame, center = solid._frame, np.asarray(solid.center)
        for V, A, c, J in solid._parts():
            parts.append((sign, V, A, frame @ np.asarray(c) + center,
                          frame @ np.asarray(J) @ frame.T))
    return compose_mass_properties(parts, density)
