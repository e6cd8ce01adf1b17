"""Analytic solids and their exact surface quadrature decompositions.

Every analytic variant generates patches on the exact parametric surface,
so normals carry no tessellation error and the summed weights equal the
analytic area to rounding.  Resolution only controls how finely the area
is subdivided.  Cavity walls are first-class boundary patches whose
normals point out of the material (into the cavity).

A solid of revolution is defined by its (r, z) profile polylines alone
(:class:`_Revolved`).  Its patches sweep each straight segment about the
local z axis (:func:`_sweep`), its inside test is r <= r(z) on the walls,
and its bounds, mass properties (Green's theorem in the (r, z) plane)
and clearance come from the same segments.  The circular, elliptic and
gapped cylinders are one rod (:class:`_Rod`), whose closed forms all
come from its semi-axes (a, b) and segments; the elliptic cylinder is
the unit rod under the stretch x -> a x, y -> b y.  The sphere keeps
its own rule, whose points are exactly R times the normals; boxes take
one rule per face.

Each solid states its distance to the boundary once, as its clearance:
exact for spheres, boxes and round solids of revolution, a lower bound
for other elliptic cylinders, none for meshes.  The cavity check probes
it, and :func:`signed_distance` is an exact clearance, negative inside.
Neither the smoothed field nor the fill reads a distance: the field is a
shape's closed form (``_smoothed_unit``) where one exists, and otherwise
the oracles filter the supersampled indicator.

Each shape class is the one place its geometry lives; the module-level
functions here and in the oracles dispatch to its methods.  Each hook
takes the local coordinates as broadcastable arrays (:func:`_local_axes`);
only a mesh's ray parity stacks them into points.  The supersampled
fill's ``_lattice`` hook takes world axes and counts from the inside runs
of each +x lattice line, the ray-parity scanline of solid voxelization
(Schwarz & Seidel, ACM Trans. Graph. 29(6), 179 (2010)): a mesh places
them at its ray crossings, an analytic solid at the closed-form roots of
its comparisons along the line, and one assembly (:func:`_fill_counts`)
adds them up.
"""

import math
from dataclasses import dataclass, field, fields
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
from .mesh import _CONTAINS_PAIRS, TriangleMesh
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
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, Shape) for v in value):
            raise DegenerateDimension(f"{name} must be a list or tuple of shapes, got {value!r}")
        if any(v.cavities for v in value):
            raise CavityOverlap("cavities may not themselves contain cavities")
        return tuple(value)
    return _field(shapes, default=())


# ---------------------------------------------------------------------------
# exact smoothed factors and form-factor kernels


def _interval_factor(x, half, sigma):
    """Convolution of the indicator of [-half, half] with g_sigma."""
    return ndtr((x + half) / sigma) - ndtr((x - half) / sigma)


# the band of a round wall, in sigma: deeper inside, the closed forms round
# to 1.0; farther outside, a convex solid's field is at most ndtr(-12) =
# 1.8e-33 (the half-space bound)
_BAND_IN, _BAND_OUT = 10.0, 12.0
# past this (d + R) / sigma the far wall's terms of the ball lie below half
# an ulp of every value in the band, which is at least ~1e-33
_FAR_WALL = 20.0


def _on(mask, x, fn):
    """fn(x) where ``mask`` holds, 0 elsewhere, on x's shape."""
    out = np.zeros(x.shape)
    if mask.any():
        out[mask] = fn(x[mask])
    return out


def _near_wall(t, radius, sigma, closed_form):
    """A round wall's factor at distances ``t`` from its axis or center:
    ``closed_form(t)`` on the band from 10 sigma inside to 12 sigma outside
    the wall t = radius, exactly 1.0 deeper inside, which is what the closed
    form gives there, and exactly 0 farther outside."""
    t = np.asarray(t, dtype=float)
    deep = t < radius - _BAND_IN * sigma
    return np.where(deep, 1.0, _on(~deep & (t <= radius + _BAND_OUT * sigma), t, closed_form))


def _disc_factor(r, radius, sigma):
    """Convolution of a 2-D disc indicator with the 2-D Gaussian.

    P(|X + r| <= radius) for X ~ N(0, sigma^2 I2), i.e. the noncentral
    chi-square CDF with 2 degrees of freedom, taken on the wall's band
    (:func:`_near_wall`).
    """
    return _near_wall(r, radius, sigma,
                      lambda r: chndtr((radius / sigma) ** 2, 2.0, (r / sigma) ** 2))


def _ball_factor(d, radius, sigma):
    """Convolution of a 3-D ball indicator with the 3-D Gaussian (exact),
    taken on the wall's band (:func:`_near_wall`).  Where u+ = (d + R) /
    sigma reaches 20 the far wall's ndtr(-u+) and Gaussian lie below half
    an ulp of the value and are not taken: the value keeps its bits."""
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def closed_form(d):
        up = (d + radius) / sigma
        um = (d - radius) / sigma
        reach = up < _FAR_WALL     # where the far wall's terms reach the value's bits
        # sigma / d is infinite only below 1e-9 sigma, where the center's value is taken
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = (ndtr(-um) - _on(reach, up, lambda u: ndtr(-u))
                   + (sigma / d) * (_on(reach, up, phi) - phi(um)))
        center = (ndtr(radius / sigma) - ndtr(-radius / sigma)
                  - 2.0 * (radius / sigma) * phi(radius / sigma))
        return np.where(d < 1e-9 * sigma, center, out)

    return _near_wall(d, radius, sigma, closed_form)


def _norm(x, y, z):
    """|(x, y, z)|, summed in the order of np.linalg.norm and so to its bits."""
    return np.sqrt((x * x + y * y) + z * z)


def _sinc(x):
    return np.sinc(x / np.pi)


# 3 (sin u - u cos u) / u^3 = sum over m of (-1)^m 6 (m + 1) u^2m / (2m + 3)!,
# which ten terms give to rounding below u = 1
_BALL_SERIES = [(-1) ** m * 6 * (m + 1) / math.factorial(2 * m + 3) for m in range(10)]


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


def _ball_gain(x):
    """B(x) = 1 + e^(-x^2) - 2 (1 - e^(-x^2)) / x^2, the k-space tensor of
    a ball of radius x sigma over its surface formula: 1 - 2 / x^2 for a
    large ball, x^4 / 6 for a small one; at x = sqrt(R_i R_j) / sigma it
    weighs two walls of a shell (:meth:`Sphere._kspace_local`).  From x = 1
    on it is taken in that closed form.  Below x = 1, where the closed form
    cancels (it is 1e-8 off at x = 0.01 and 0 at 1e-4), it is the series
    sum_{n >= 2} (-1)^n (n - 1) x^(2n) / (n + 1)! up to n = 20, whose first
    dropped term is below 1e-18 of B."""
    t = x * x
    if x >= 1.0:
        return 1.0 + math.exp(-t) + 2.0 * math.expm1(-t) / t
    b = 0.0
    for n in range(20, 1, -1):
        b = b * -t + (n - 1) / math.factorial(n + 1)
    return b * t * t


# ---------------------------------------------------------------------------
# (r, z) profiles of solids of revolution, in the local frame


def _segments(profiles):
    """(r0, z0, r1, z1) of each straight segment of the ``profiles`` polylines."""
    return [(*p, *q) for profile in profiles for p, q in zip(profile, profile[1:])]


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
# the supersampled fill's lattice lines

#: rounding bound of a lattice line's closed forms, relative to the body's
#: size (or its squares): some 1e6 ulps, far above the rounding of the
#: local frame, of ``_inside`` and of the roots, and far below a subsample
_ROUNDING = 1e-9
#: lattice lines per chunk of an analytic solid's line fill, and samples per
#: batch of its lines that take every sample
_LINES = _SAMPLES = _CONTAINS_PAIRS


def _fill_counts(shape, chunks):
    """The (nx, ny, nz) uint8 counts of the subsamples inside a solid on the
    lattice of ``shape`` ((nx, ss), ny, nz voxels), from the ``chunks`` of
    runs (line, start, stop) that its ``_runs`` yields: the samples start
    to stop - 1 of each line are inside, those of no run outside.

    A run adds ss - a % ss at its start a to voxel a // ss and a % ss to
    the next, and takes them off again at its stop, so the differences of
    the ss^2 lines of a voxel column add up, plane by plane in x, to its
    counts.  They are kept modulo 256, which the counts (0 to ss^3) never
    reach, so no run needs a wider type, and the runs may come in any order.
    """
    (nx, ss), ny, nz = shape
    plane = ny * nz
    diff = np.zeros((nx + 2, plane), dtype=np.uint8)
    flat = diff.reshape(-1)
    for line, start, stop in chunks:
        j, k = np.divmod(line, nz * ss)
        column = (j // ss) * nz + k // ss
        for at, sign in ((start, 1), (stop, -1)):
            q, m = np.divmod(at, ss)
            cell = q * plane + column
            # add.at is fast only on values of the array's own dtype
            np.add.at(flat, cell, (sign * (ss - m)).astype(np.uint8))
            np.add.at(flat, cell + plane, (sign * m).astype(np.uint8))
    for i in range(1, nx):
        np.add(diff[i], diff[i - 1], out=diff[i])
    return diff[:nx].reshape(nx, ny, nz)


def _quadratic(u, v, weights):
    """(A, B, C) of sum_k weights[k] p_k^2 = A s^2 + B s + C along p = v + s u."""
    terms = [(c, uk, vk) for c, uk, vk in zip(weights, u, v) if c != 0.0]
    return (sum(c * uk * uk for c, uk, _ in terms),
            sum((2.0 * c * uk * vk for c, uk, vk in terms if uk != 0.0), 0.0),
            sum(c * vk * vk for c, _, vk in terms))


def _linear_band(b, c, tol):
    """(lo, hi) of the s where |b s + c| <= tol.  Where b = 0 it is every s
    (-inf, inf) if |c| < tol, and else none: both ends at the same
    infinity, where no sample lies."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s0, s1 = (-tol - c) / b, (tol - c) / b
    return np.fmin(s0, s1), np.fmax(s0, s1)


def _roots(A, B, C, disc):
    """The real roots r1 <= r2 of A s^2 + B s + C, A > 0, of discriminant
    ``disc``, NaN where none, in the form that loses no digits to
    cancellation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (B + np.copysign(np.sqrt(disc), B))
        r1, r2 = q / A, C / q
    return np.fmin(r1, r2), np.fmax(r1, r2)


def _quadric_band(A, B, C, E):
    """The s where |A s^2 + B s + C| <= E (A a number), as two windows (lo,
    hi) about its roots, in order: NaN where empty, and the first the
    whole band where it has no gap (a graze).  Where A = 0, the first is
    the band of B s + C and the second empty."""
    if A == 0.0:
        return _linear_band(B, C, E), (np.nan, np.nan)
    if A < 0.0:
        A, B, C = -A, -B, -C
    disc = B * B - 4.0 * A * C
    o1, o2 = _roots(A, B, C - E, disc + 4.0 * A * E)
    i1, i2 = _roots(A, B, C + E, disc - 4.0 * A * E)
    none = np.isnan(i1)
    return (o1, np.where(none, o2, i1)), (np.where(none, np.nan, i2), o2)


class _LineBlock:
    """A block of the +x lattice lines of the ascending world ``x`` samples,
    of ``shape`` (rows, columns), whose samples first to stop - 1 lie in
    the solid's bounding box.  ``past`` places a window (lo, hi) of the
    local s = world x - ``center_x`` on each line: the first sample past
    it, widened by ``tol``, and ``every`` marks the lines with a sample of
    the box in it, which take ``_inside`` at every sample."""

    def __init__(self, x, center_x, tol, first, stop, shape):
        self.x, self.center_x, self.tol = x, center_x, tol
        self.first, self.stop, self.shape = first, stop, shape
        self.every = np.zeros(shape, dtype=bool)

    def past(self, window, line=None):
        """The first sample past ``window`` on each line (``stop`` where it
        is NaN), of the lines ``line`` of the flattened block or, where
        None, of the whole block, broadcast."""
        lo, hi = window
        x, c = self.x, self.center_x
        at = np.clip(np.searchsorted(x, c + (hi + self.tol), "right"), self.first, self.stop)
        held = (at > self.first) & (x[np.maximum(at - 1, self.first)] >= c + (lo - self.tol))
        if line is None:
            np.logical_or(self.every, held, out=self.every)
        else:
            self.every.ravel()[line] |= held
        return at

    def between(self, enter, leave, line=None):
        """The run (start, stop) from past window ``enter`` to past window
        ``leave``, empty where ``leave`` is NaN."""
        return self.past(enter, line), np.where(np.isnan(leave[0]), -1, self.past(leave, line))


# ---------------------------------------------------------------------------
# shapes


class _Solid:
    """Geometry shared by the shape dataclasses.

    A body is checked once, as it is built: its fields are canonicalised,
    its frame is built and ``_check`` checks its cavities
    (:func:`_check_cavities`), so every shape that exists is valid.

    Methods see the bare solid (cavities are composed by the module-level
    functions; the fill hands its hooks the body as built, since none but
    ``_kspace_local`` reads ``cavities``) and its local coordinates as
    broadcastable arrays ``x, y, z``, from the one rule of every path
    (:func:`_local_axes`): center at the origin, axis along +z.
    ``_frame``, local to world axes, is built once with the solid
    (``_axis_frame``) and read-only.
    Every shape classifies points with its own ``_inside`` (closed form,
    or ray parity for meshes); none goes through a distance.  A
    solid of revolution has one definition, its (r, z) profile, from
    which :class:`_Revolved` derives all its geometry, and a rod
    (:class:`_Rod`: circular, elliptic and gapped cylinders) has one more,
    its semi-axes and segments, from which it derives its closed forms.
    The hooks ``_clearance`` (the solid's one distance to its boundary;
    none for meshes), ``_smoothed_unit`` (closed-form Gaussian-smoothed
    indicator; the round rod's for the circular and gapped cylinders,
    none for the cone-capped and elliptic cylinders and meshes) and
    ``_unit_form_factor`` (every rod has the rod's; none for the
    cone-capped cylinder and meshes) are None where the shape has none;
    the oracles then take the next path of their rule (the raster:
    the filtered supersampled indicator; the k-space integral: the DFT
    route, the gradient sum of that raster's spectrum).  A shape with ``_smoothed_unit`` has
    ``_unit_form_factor`` too, so a body takes the DFT route only when it
    takes the filtered raster.  ``_kspace_local(sigma)``, the one
    hook that sees cavities, picks the k-space rule of a body with a form
    factor.  It returns (factors, integrand), the body-frame rule: the
    diagonal of int exp(-k^2 sigma^2) |mu|^2 q o q dq in local axes q, at
    unit density, is ``factors`` times the integral of ``integrand`` over
    k in [0, KMAX_SIGMA / sigma], or ``factors`` where ``integrand`` is
    None (a bare box, a sphere whose cavities are all spheres at its
    center; a bare rod leaves a radial integrand).  It returns None, the
    spherical ladder, for a body it cannot take: by default, and for a
    box or rod with cavities or a sphere with another cavity.  ``_clearance`` is
    a lower bound on the distance to the boundary, exact unless
    ``_exact`` is false (elliptic cylinders with a != b; meshes, which
    have no clearance).  ``_lattice`` counts each voxel's
    subsamples inside the bare solid on the supersampled fill's world-axis
    lattice from the inside runs of its +x lattice lines (``_runs``):
    an analytic solid's ``_spans(u, v, size, block)`` places them on a
    block of lines, the local points v + s u with u the frame's first
    row and v the local axes of the points at world x = center x, from
    the closed-form roots of its comparisons (:class:`_LineBlock`), and
    ``Mesh`` overrides ``_runs`` with the flips of each line's ray
    parity.  ``_corners`` are the local points no quadrature node
    reaches, which the cavity check probes too; ``_piece`` (None if
    connected) numbers a gapped rod's segments.  ``_patch_families(n)``
    takes the patch counts of a resolution (:func:`_counts`) as minima:
    an analytic solid's rule integrates both surface tensors exactly, to
    rounding, at every resolution, so a flattened elliptic ring takes
    more points than ``n["phi"]`` (:meth:`_Revolved._patch_families`).
    """

    _clearance = None
    _exact = True
    _piece = None
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
        self._check()

    def _check(self):
        """Check the built body: each cavity against it and the others."""
        if self.cavities:
            _check_cavities(self)

    def _axis_frame(self):
        return np.eye(3)

    def _kspace_local(self, sigma):
        return None

    def _lattice(self, xs, ys, zs):
        """Count the subsamples inside the bare solid (the fill passes the
        host as built, and each cavity alone), on the
        lattice of ``xs``, ``ys`` and ``zs``: (n, ss) arrays of ascending
        world coordinates, row i holding the ss subsamples of voxel i on
        that axis.  Returns the (nx, ny, nz) uint8 counts, 0 to ss^3, from
        the inside runs of its +x lattice lines (:meth:`_runs`,
        :func:`_fill_counts`)."""
        return _fill_counts((xs.shape, len(ys), len(zs)),
                            self._runs(xs.ravel(), ys.ravel(), zs.ravel()))

    def _runs(self, x, y, z):
        """Yield the inside runs (line, start, stop) of the +x lattice lines
        of the ascending world axes ``x``, ``y`` and ``z``, in chunks: line
        j * len(z) + k runs through (y[j], z[k]), and its samples x[start]
        to x[stop - 1] are inside.

        A line's local points are v + s u at world x = center_x + s: u is
        the frame's first row and v the points' own local axes
        (:func:`_local_axes`) at s = 0, whose world x term is an exact
        +-0.0, so each local coordinate keeps the bits of the pointwise
        rule.  The solid's ``_spans`` places the runs from the closed-form
        roots of its comparisons along each line (:class:`_LineBlock`), each root
        within a window that holds its rounding (``_ROUNDING``): between
        the windows, and past the solid's bounding box (widened by the same
        bound), no rounding can flip a comparison, so a line with no sample
        in a window is inside exactly where the closed forms say.  A line
        with a sample in a window, one that lies in a face or grazes the
        surface within the bound, takes ``_inside`` at every sample in the
        box, at the points the pointwise test would see.  The lines go
        ``_LINES`` at a time, and those that take every sample in batches
        of about ``_SAMPLES`` samples.
        """
        lo, hi = bounding_box(self)
        size = float(np.linalg.norm(hi - lo))
        tol = _ROUNDING * size + 8.0 * np.finfo(float).eps * float(np.max(np.abs(self.center)))
        # the samples, rows and columns in the box, widened by tol
        (r0, j0, k0), (r1, j1, k1) = (
            [np.searchsorted(w, b, side) for w, b in zip((x, y, z), bound)]
            for bound, side in ((lo - tol, "left"), (hi + tol, "right")))
        if r0 == r1 or k0 == k1:
            return
        zs, rows = z[k0:k1], max(1, _LINES // (k1 - k0))
        for j in range(j0, j1, rows):
            ys = y[j:j + rows][:j1 - j]
            block = _LineBlock(x, self.center[0], tol, r0, r1, (len(ys), len(zs)))
            v = _local_axes(self, self.center[0], ys[:, None], zs[None, :])
            runs = self._spans(self._frame[0], v, size, block)
            every = block.every.ravel()
            for line, start, stop in runs:
                if line is None:
                    start, stop = (np.broadcast_to(a, block.shape).ravel() for a in (start, stop))
                    line = np.arange(len(every))
                keep = (start < stop) & ~every[line]
                row, col = np.divmod(line[keep], len(zs))
                yield (j + row) * len(z) + k0 + col, start[keep], stop[keep]
            # the lines that take every sample in the box
            samples = np.arange(r0, r1 + 1)
            row, col = np.nonzero(block.every)
            batch = max(1, _SAMPLES // len(samples))
            for first in range(0, len(row), batch):
                rs, cs = row[first:first + batch], col[first:first + batch]
                # a run starts where the class turns inside and stops where
                # it turns outside, at the latest past the box
                change = np.zeros((len(rs), len(samples)), dtype=bool)
                change[:, :-1] = self._inside(*_local_axes(self, x[samples[:-1]], ys[rs, None],
                                                           zs[cs, None]))
                change[:, 1:] ^= change[:, :-1].copy()
                run, k = np.nonzero(change)
                run = run[::2]
                yield (j + rs[run]) * len(z) + k0 + cs[run], samples[k[::2]], samples[k[1::2]]

    def _bounds(self):
        """(min, max) corners about the center, in world axes."""
        ext = np.abs(self._frame) @ self._half_extent()
        return -ext, ext


class _Revolved(_Solid):
    """A solid of revolution, defined by ``_profiles()`` alone: one (r, z)
    polyline per connected piece, from the axis back to the axis, z
    non-decreasing, the material on its left.  ``_stretch`` (a, b) maps
    x -> a x and y -> b y.  Patches, inside test, bounds, mass properties,
    clearance and the fill's runs all come from the polylines.  Its walls
    (``_walls``: the segments that are not discs) and the largest r(z)^2
    among those that hold z (``_limit``) are stated once: the inside test
    and the fill's lines on a named axis both compare r^2 with
    ``_limit``, and its lines on a tilted axis take each wall's roots.
    The cavity check probes a ring at each profile vertex and the ring's
    extreme points along the world axes (``_corners``), and in a sphere
    host, when round, each ring's point farthest from the host's center.
    """

    _stretch = (1.0, 1.0)

    def _axis_frame(self):
        return rotation_to_z(self.axis)

    def _walls(self):
        """(r0, z0, slope, z1) of each wall, a profile segment that is not a
        disc: r(z) = r0 + (z - z0) slope for z0 <= z <= z1."""
        return [(r0, z0, (r1 - r0) / (z1 - z0), z1)
                for r0, z0, r1, z1 in _segments(self._profiles()) if z0 != z1]

    def _limit(self, z):
        """The largest r(z)^2 of the walls whose z range holds z (-inf where
        none does), on z's own shape."""
        limit = np.full(np.shape(z), -np.inf)
        for r0, z0, k, z1 in self._walls():
            # a constant wall takes r0 itself, so an infinite z meets no 0 * inf
            rz = r0 if k == 0.0 else r0 + (z - z0) * k
            np.maximum(limit, rz * rz, out=limit, where=(z >= z0) & (z <= z1))
        return limit

    def _inside(self, x, y, z):
        """Mask of the points with r <= r(z) on a wall; r^2 = (x/a)^2 +
        (y/b)^2 under the stretch (a, b), on the shape of x and y, is
        compared once with ``_limit(z)``, on z's: the OR of one comparison
        per wall, bit for bit.  On the broadcast axes of a named axis, r(z)
        is taken per z alone."""
        a, b = self._stretch
        return (x / a) ** 2 + (y / b) ** 2 <= self._limit(z)

    def _spans(self, u, v, size, block):
        # the roots of r^2 - r(z)^2 along each line, r(z) = e + f s on a wall
        a, b = self._stretch
        A0, B0, C0 = _quadratic(u, v, (1.0 / (a * a), 1.0 / (b * b), 0.0))
        tol = _ROUNDING * size
        walls = self._walls()
        # bounds on r^2 and r(z) in the bounding box, which rounding scales
        rzmax = max(abs(r0) + abs(k) * (size + abs(z0)) for r0, z0, k, _ in walls)
        E = _ROUNDING * ((size / min(a, b)) ** 2 + rzmax * rzmax)
        if u[2] == 0.0:
            # the line keeps its local z: inside between the roots of r^2 -
            # _limit(z), as _inside takes it; a line within rounding of a
            # wall's end takes every sample
            seam = np.logical_or.reduce([np.abs(v[2] - end) <= tol
                                         for wall in walls for end in wall[1::2]])
            whole = np.where(seam, np.inf, np.nan)
            block.past((-whole, whole))
            return [(None, *block.between(*_quadric_band(A0, B0, C0 - self._limit(v[2]), E)))]
        # a tilted line: those that meet the circumscribed cylinder take each
        # wall's runs of r^2 <= r(z)^2 within the wall's z range
        rmax2 = max(max(r0, r0 + k * (z1 - z0)) ** 2 for r0, z0, k, z1 in walls) + E
        near = (B0 * B0 - 4.0 * A0 * (C0 - rmax2) >= 0.0) if A0 > 0.0 else C0 <= rmax2
        line = np.flatnonzero(np.broadcast_to(near, block.shape))
        B0, C0, vz = (np.broadcast_to(w, block.shape).ravel()[line] for w in (B0, C0, v[2]))
        runs, first, stop = [], block.first, block.stop
        # the first sample past each wall's end planes, shared by the next wall
        ends = {end: block.past(_linear_band(u[2], vz - end, tol), line)
                for wall in walls for end in wall[1::2]}
        for r0, z0, k, z1 in walls:
            lo, hi = np.minimum(ends[z0], ends[z1]), np.maximum(ends[z0], ends[z1])
            # only the lines with a sample in the wall's z range
            held = np.flatnonzero(lo < hi)
            lo, hi, wall = lo[held], hi[held], line[held]
            e, f = r0 + (vz[held] - z0) * k, u[2] * k
            A, B, C = A0 - f * f, B0[held] - 2.0 * e * f, C0[held] - e * e
            enter, leave = _quadric_band(A, B, C, E)
            if A > 0.0:
                # inside between the roots
                radial = [block.between(enter, leave, wall)]
            elif A < 0.0:
                # inside outside the roots, and everywhere where there are none
                p1, p2 = block.past(enter, wall), block.past(leave, wall)
                roots = ~np.isnan(enter[0])
                p2 = np.where(np.isnan(leave[0]), p1, p2)
                radial = [(first, np.where(roots, p1, stop)), (np.where(roots, p2, stop), stop)]
            else:
                # B s + C <= 0: before or past its root, or everywhere or nowhere
                p1 = block.past(enter, wall)
                radial = [(np.where(B < 0.0, p1, first),
                           np.where(B > 0.0, p1, np.where((B == 0.0) & (C > 0.0), -1, stop)))]
            runs += [(wall, np.maximum(s, lo), np.minimum(t, hi)) for s, t in radial]
        return runs

    @property
    def _exact(self):
        return self._stretch[0] == self._stretch[1]

    def _clearance(self, x, y, z):
        # the least distance to a profile segment, exact when round.  Under
        # the stretch (a, b), x -> x s/a, y -> y s/b with s = min(a, b)
        # lengthens no distance and maps the body onto the round one of
        # radius s, whose distance is then a lower bound
        a, b = self._stretch
        s = min(a, b)
        r, dist = np.hypot(x * (s / a), y * (s / b)), np.inf
        for r0, z0, r1, z1 in _segments(self._profiles()):
            r0, r1 = r0 * s, r1 * s
            vr, vz = r1 - r0, z1 - z0
            t = np.clip(((r - r0) * vr + (z - z0) * vz) / (vr * vr + vz * vz), 0.0, 1.0)
            dist = np.minimum(dist, np.hypot(r - (r0 + t * vr), z - (z0 + t * vz)))
        return dist

    def _corners(self):
        # a ring of 64 points at each profile vertex, under the stretch, and
        # the ring's extreme points along each world axis: for the frame row
        # w of the axis, w . (a r cos t, b r sin t, z) peaks at t = atan2(b
        # w_y, a w_x) and is least half a turn on
        a, b = self._stretch
        peak = np.arctan2(b * self._frame[:, 1], a * self._frame[:, 0])
        phi = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False),
                              peak, peak + np.pi])
        r, z = np.repeat(np.concatenate(self._profiles()).T[:, :, None], len(phi), axis=2)
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

    def _spans(self, u, v, size, block):
        # inside between the roots of |p|^2 - R^2
        R = self.radius
        A, B, C = _quadratic(u, v, (1.0, 1.0, 1.0))
        return [(None, *block.between(*_quadric_band(A, B, C - R * R,
                                                     _ROUNDING * (size * size + R * R))))]

    def _clearance(self, x, y, z):
        return np.abs(_norm(x, y, z) - self.radius)

    def _half_extent(self):
        return np.full(3, self.radius)

    def _corners(self):
        # the six axis poles, which no quadrature node reaches
        return np.concatenate([np.eye(3), -np.eye(3)]) * self.radius

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
        """V 3 (sin u - u cos u) / u^3, u = |k| R: the ten terms of its
        series below u = 1, where the difference would cancel to some
        eps / u^2, and the closed form above."""
        R = self.radius
        V = 4.0 * np.pi * R**3 / 3.0
        u = np.linalg.norm(k, axis=-1) * R
        small = u < 1.0
        us, u2 = np.where(small, 1.0, u), np.where(small, u, 0.0) ** 2
        series = np.polynomial.polynomial.polyval(u2, _BALL_SERIES)
        return V * np.where(small, series, 3.0 * (np.sin(us) - us * np.cos(us)) / us**3)

    def _kspace_local(self, sigma):
        """The body-frame rule, closed form, or None for a cavity that is not
        a sphere at the center.

        |mu| is |sum_i s_i mu_i| over the host (s = 1) and its cavities (s =
        -1), mu_i = 4 pi (sin k R_i - k R_i cos k R_i) / k^3, and product to
        sum makes each int k^4 exp(-k^2 sigma^2) mu_i mu_j dk closed form: at
        unit density K is (2 pi)^3 / (2 sqrt(pi) sigma) I times the sum of s_i
        s_j (4 pi R_i R_j / 3) exp(-(R_i - R_j)^2 / 4 sigma^2) B(sqrt(R_i R_j)
        / sigma) (:func:`_ball_gain`), for i = j the bare ball's B(R / sigma)
        times its surface formula.  Across a wall d << sigma thick the terms
        cancel to some 4e-16 sigma^2 / d^2 relative.
        """
        if not all(isinstance(cav, Sphere) and cav.center == self.center
                   for cav in self.cavities):
            return None
        scale = (2.0 * math.pi) ** 3 / (2.0 * math.sqrt(math.pi) * sigma)
        walls = [(1.0, self.radius)] + [(-1.0, cav.radius) for cav in self.cavities]
        K = sum(s * t * scale * (4.0 * math.pi * R * r / 3.0)
                * math.exp(-((R - r) / (2.0 * sigma)) ** 2)
                * _ball_gain(math.sqrt(R / sigma * (r / sigma)))
                for (s, R), (t, r) in product(walls, walls))
        return np.full(3, K), None


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

    def _spans(self, u, v, size, block):
        # the frame is the world's: a line in the box's y and z range is
        # inside from x = -a/2 to a/2, and one within rounding of a y or z
        # face takes every sample
        tol, (hx, hy, hz) = _ROUNDING * size, np.asarray(self.size) / 2.0
        for i, h in ((1, hy), (2, hz)):
            for sign in (-1.0, 1.0):
                block.past(_linear_band(u[i], v[i] - sign * h, tol))
        start, stop = (block.past(_linear_band(u[0], v[0] - sign * hx, tol))
                       for sign in (-1.0, 1.0))
        return [(None, start, np.where((np.abs(v[1]) <= hy) & (np.abs(v[2]) <= hz), stop, -1))]

    def _clearance(self, x, y, z):
        # the distance outside the box, or the depth inside it
        qx, qy, qz = (np.abs(w) - side / 2.0 for w, side in zip((x, y, z), self.size))
        outside = _norm(np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0))
        return outside - np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)

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

    def _check(self):
        if self.gap_count > 0:
            _scalar("gap_width", self.gap_width, 0.0, open=True)
            if self.gap_count * self.gap_width >= self.length:
                raise DegenerateDimension("gaps consume the whole cylinder")
        super()._check()

    def segments(self):
        """(segment_length, array of segment center offsets along the axis)."""
        n = self.gap_count
        seg = (self.length - n * self.gap_width) / (n + 1)
        starts = -self.length / 2.0 + np.arange(n + 1) * (seg + self.gap_width)
        return seg, starts + seg / 2.0

    def _piece(self, x, y, z):
        seg, centers = self.segments()     # the segment whose span holds z
        return np.searchsorted(centers + seg / 2.0, z)


@dataclass(frozen=True)
class Mesh(_Solid):
    """Shape defined by a watertight triangle mesh."""

    _exact = False

    mesh: TriangleMesh = _field(_triangle_mesh)
    center: tuple = _center()
    cavities: tuple = _cavities()

    def _inside(self, x, y, z):
        p = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
        return self.mesh.contains(p.reshape(-1, 3)).reshape(p.shape[:-1])

    def _runs(self, x, y, z):
        # the flips of each lattice line's ray parity (TriangleMesh._flips),
        # sorted: a line with an odd number of flips starts inside, so its
        # runs are its flips in pairs after a flip at 0
        line, at = self.mesh._flips(*_local_axes(self, x, y, z))
        first = np.flatnonzero(np.diff(line, prepend=-1))
        odd = first[np.diff(first, append=len(line)) % 2 == 1]
        line, at = np.insert(line, odd, line[odd]), np.insert(at, odd, 0)
        yield line[::2], at[::2], at[1::2]

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
    """Return ``spec`` if it is a shape; anything else raises
    :class:`UnsupportedShape`.  A shape is checked whole, its cavities
    included, as it is built (:class:`_Solid`), so every shape is valid."""
    if not isinstance(spec, Shape):
        raise UnsupportedShape(f"not a shape spec: {type(spec).__name__}")
    return spec


def _check_cavities(spec):
    """Cavities must sit strictly inside the host and apart from each other.

    Each cavity is probed on its resolution-8 quadrature nodes and the
    ``_corners`` no node reaches (a sphere's poles, a box's corners, a
    ring at each profile vertex with its extreme points along the world
    axes, a mesh's vertices).  In a sphere host a round solid of
    revolution adds each ring's point farthest from the host's center,
    in closed form, where that center is off its axis.  Every probe must be
    inside the host, none at clearance 0 where the host has one, and all in
    one ``_piece`` of the host: a connected cavity bridges no gap.  A
    sphere in a host with an exact clearance is checked exactly, tangency
    included: its center must be inside and its clearance above the
    radius.  The ``cavities`` field has already refused non-shapes and
    nested cavities.
    """
    probes = []
    for cav in spec.cavities:
        corners = [cav._corners()]
        if isinstance(spec, Sphere) and isinstance(cav, _Revolved) and cav._exact:
            # each ring's point farthest from the host's center, opposite
            # the center's projection onto the ring's plane
            hx, hy, _ = (np.asarray(spec.center) - cav.center) @ cav._frame
            d = math.hypot(hx, hy)
            if d > 0.0:
                a, (r, z) = cav._stretch[0], np.concatenate(cav._profiles()).T
                corners.append(np.stack([-a * r * hx / d, -a * r * hy / d, z], axis=-1))
        pts = np.concatenate([quadrature(cav, resolution=8).points,
                              np.concatenate(corners) @ cav._frame.T + cav.center])
        local = _local_axes(spec, *pts.T)
        if not np.all(spec._inside(*local)):
            raise CavityOverlap("cavity surface is not strictly inside the host")
        if spec._piece is not None and np.ptp(spec._piece(*local)) > 0:
            raise CavityOverlap("cavity bridges a gap between the host's solid pieces")
        if spec._clearance is not None:
            if isinstance(cav, Sphere) and spec._exact:
                center = _local_axes(spec, *np.array(cav.center)[:, None])
                touches = not (spec._inside(*center)[0]
                               and spec._clearance(*center)[0] > cav.radius)
            else:
                touches = np.any(spec._clearance(*local) == 0.0)
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
    point of an (..., 3) array."""
    spec = build_shape(spec)
    axes = _point_axes(points)
    inside = spec._inside(*_local_axes(spec, *axes))
    for cav in spec.cavities:
        inside &= ~cav._inside(*_local_axes(cav, *axes))
    return inside


def _signed(solid, axes):
    """The solid's clearance at the world ``axes``, negative where it holds them."""
    local = _local_axes(solid, *axes)
    d = solid._clearance(*local)
    return np.where(solid._inside(*local), -d, d)


def signed_distance(spec, points):
    """Signed distance to the material boundary (negative inside).

    Each solid's exact clearance, negative where its inside test holds,
    so the sign is the class :func:`contains` gives; cavities compose by
    max(d, -d_cavity).  A solid whose clearance is not exact (elliptic
    cylinder with a != b, mesh) raises :class:`UnsupportedShape`.
    """
    spec = build_shape(spec)
    for solid in (spec, *spec.cavities):
        if not solid._exact:
            raise UnsupportedShape(f"signed distance not available for {type(solid).__name__}")
    axes = _point_axes(points)
    d = _signed(spec, axes)
    for cav in spec.cavities:
        d = np.maximum(d, -_signed(cav, axes))
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
