"""Analytic solids and their exact surface quadrature decompositions.

Every analytic variant generates patches on the exact parametric surface,
so normals carry no tessellation error and the summed weights equal the
analytic area to rounding.  Resolution only controls how finely the area
is subdivided.  Cavity walls are first-class boundary patches whose
normals point out of the material (into the cavity).

A solid of revolution is defined by its (r, z) profile polylines alone
(:class:`_Revolved`).  Its patches sweep each straight segment about the
local z axis (:func:`_sweep`), its inside test is r <= r(z) on the walls,
and its bounds, mass properties (Green's theorem in the (r, z) plane) and
signed distance (the least distance to a segment) come from the same
segments.  The cone-capped cylinder keeps the least signed distance of
three pieces, for the reason its ``_sdf`` gives.  The elliptic cylinder
is the unit cylinder under the stretch x -> a x, y -> b y and has no
signed distance: one measured in the stretched frame is not a distance.
Every solid of revolution, the cone included, takes its clearance (the
unsigned distance that the supersampled fill's narrow band and the
cavity checks read) from its profile's segments; under the elliptic
stretch it is a lower bound.
The sphere keeps its own rule, whose points are exactly R times the
normals; boxes take one rule per face.

Each shape class is the one place its geometry lives; the module-level
functions here and in the oracles dispatch to its methods.  Each hook
takes the local coordinates as broadcastable arrays (:func:`_local_axes`);
only a mesh's ray parity stacks them into points.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import combinations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import chndtr, ellipe, j1, ndtr

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


def _gl(n, a, b):
    x, w = leggauss(n)
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
    ct, wt = leggauss(n_theta)
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
    (signed distance; none for the elliptic cylinder, and the cone-capped
    cylinder's is not exact, see the module docstring), ``_smoothed_unit``
    (closed-form Gaussian-smoothed indicator) and ``_unit_form_factor``
    are None where the shape has none; the oracles
    then take the next path of their rule (``oracle.voxel._unit_field``,
    the DFT route of the k-space integral).  ``_clearance`` is a lower
    bound on the distance to the boundary, exact (``|_sdf|``) unless a
    subclass says otherwise.  ``_scanline`` classifies a world-axis
    lattice in a narrow band about the boundary; ``Mesh`` overrides it
    with scanline parity.
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

    def _axis_frame(self):
        return np.eye(3)

    def _clearance(self, x, y, z):
        return np.abs(self._sdf(x, y, z))

    def _scanline(self, xs, ys, zs):
        """(len(ys), len(zs), len(xs)) mask of the solid, which has no
        cavities (the fill passes its cavity-free host), on the lattice of
        ascending world axes.  ``ys`` is one voxel row of ss lines, and
        ``xs`` and ``zs`` hold ss subsamples per voxel.

        A narrow band: a voxel whose center is farther from the boundary
        (its ``_clearance``) than the reach, its largest center-to-subsample
        distance, lies on one side of it, and all its subsamples take
        :func:`contains` at the center.  The reach carries a relative slack
        of 1e-6 for the rounding of the local frame and of the clearance,
        some 1e-15 of the body's size.  Only the other voxels' subsamples
        go through :func:`contains`, gathered from the same axes, so every
        bit is the one the pointwise test gives at that lattice point.
        """
        ss = len(ys)
        cells = [v.reshape(-1, ss) for v in (xs, ys, zs)]
        mids = [c.mean(axis=1) for c in cells]
        reach = math.hypot(*(np.max(np.abs(c - m[:, None])) for c, m in zip(cells, mids)))
        cx, (cy,), cz = mids
        Z, X = np.meshgrid(cz, cx, indexing="ij")
        centers = np.stack([X.ravel(), np.full(X.size, cy), Z.ravel()], axis=1)
        band = self._clearance(*_local_axes(self, *centers.T)) <= reach * (1.0 + 1e-6)
        side = np.zeros(len(centers), dtype=bool)
        side[~band] = contains(self, centers[~band])
        out = np.empty((ss, len(cz), ss, len(cx), ss), dtype=bool)
        out[...] = side.reshape(1, len(cz), 1, len(cx), 1)
        kz, kx = (k[:, None] for k in np.divmod(np.flatnonzero(band), len(cx)))
        a, b, c = np.indices((ss, ss, ss)).reshape(3, -1)
        zi, xi = kz * ss + b, kx * ss + c
        pts = np.stack(np.broadcast_arrays(xs[xi], ys[a], zs[zi]), axis=-1)
        out[a, kz, b, kx, c] = contains(self, pts.reshape(-1, 3)).reshape(zi.shape)
        return out.reshape(ss, len(zs), len(xs))

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

    def _sdf(self, x, y, z):
        # The least of the signed distances of three pieces, the cylinder and
        # the two cones: 0 on the seam discs inside the body.  The sdf-erf
        # field of the profile's exact distance is no smoothed indicator
        # either, and would move the benchmark cone's gradient integral from
        # 0.210 to 0.067 of the DFT route's, out of the band its known
        # failure is declared in; that waits for the cone's own form factor
        # (ROADMAP item 4)
        (apex0, seam0, seam1, apex1), = self._profiles()
        axis0, axis1 = (0.0, seam0[1]), (0.0, seam1[1])
        pieces = ([axis0, seam0, seam1, axis1], [apex0, seam0, axis0], [axis1, seam1, apex1])
        return np.minimum.reduce([_profile_sdf([piece], x, y, z) for piece in pieces])


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
    gap_width: float = _field(lambda name, value: float(value), "length")
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

    def _scanline(self, xs, ys, zs):
        return self.mesh.contains_lattice(*_local_axes(self, xs, ys, zs))

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
    from the boundary than the radius by the exact ``_clearance``, which
    for the cone-capped cylinder is its profile's distance, not its
    ``_sdf``.  Other combinations are validated on sampled cavity-surface
    probes.
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

    Available for sphere, box, cylinder, gapped and cone-capped cylinders
    and compositions with such cavities; unavailable for elliptic
    cylinders and meshes.  Exact except for the cone-capped cylinder,
    whose distance is the minimum over its cylinder and cone pieces and
    so is too small in magnitude inside the body near the seam discs.
    """
    for solid in (spec, *spec.cavities):
        if solid._sdf is None:
            raise UnsupportedShape(f"signed distance not available for {type(solid).__name__}")
    axes = np.atleast_2d(np.asarray(points, dtype=float)).T
    d = spec._sdf(*_local_axes(spec, *axes))
    for cav in spec.cavities:
        d = np.maximum(d, -cav._sdf(*_local_axes(cav, *axes)))
    return d


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
