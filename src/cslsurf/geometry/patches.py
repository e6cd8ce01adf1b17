"""Surface quadrature records and bulk mass properties.

A :class:`SurfacePatches` object is a flat quadrature decomposition of a
body boundary: sample points, outward unit normals (outward from the
material, i.e. pointing into cavities on cavity walls) and area weights.
All surface integrals downstream are plain weighted sums over it.
"""

import math
import numbers
import reprlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateDimension, NonUnitAxis

UNIT_TOL = 1e-10


def _array(name, value, shape, finite=True, dtype=float, error=DegenerateDimension):
    """``value`` as an array of ``dtype``, not copied if it is one already.

    ``shape`` gives each axis's length, None for any, and a leading ``...``
    any number of leading axes.  A ragged sequence, entries that are not
    real numbers (integers for an integer ``dtype``; strings, complex numbers
    and bools are neither), another shape or, with ``finite``, a NaN or an
    infinity raise ``error``.  A bool inside a sequence converts to a number,
    so sequences (not arrays) are searched for one.
    """
    kind = "integers" if np.dtype(dtype).kind in "iu" else "real numbers"
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged sequence
        a = np.empty(0, dtype=object)
    if a.dtype.kind not in ("iu" if kind == "integers" else "iuf") or (
            not isinstance(value, np.ndarray)
            and any(isinstance(x, (bool, np.bool_)) for x in np.asarray(value, object).flat)):
        got = a.dtype if isinstance(value, np.ndarray) else reprlib.repr(value)
        raise error(f"{name} must be an array of {kind}, got {got}")
    want = shape[1:] if shape[:1] == (...,) else shape
    got = a.shape[a.ndim - len(want):] if want != shape and a.ndim >= len(want) else a.shape
    if len(got) != len(want) or any(n not in (None, g) for n, g in zip(want, got)):
        spec = str(shape).replace("Ellipsis", "...").replace("None", "n")
        raise error(f"{name} must have shape {spec}, got {a.shape}")
    a = a.astype(dtype, copy=False)
    if finite and not np.all(np.isfinite(a)):
        raise error(f"{name} is not finite: {reprlib.repr(a.tolist())}")
    return a


def _scalar(name, value, low=-math.inf, high=math.inf, *, open=False, integer=False,
            error=DegenerateDimension):
    """``value`` as a finite float, or with ``integer`` as an int, in [low, high]
    ((low, high) if ``open``).

    A bool or anything that is not a real number (a string included), a
    number past the float range, a NaN or an infinity, a fraction where
    ``integer`` is set (an integral float such as 2.0, as quantities parse,
    passes) or a value out of bounds raises ``error``.  The message names
    ``name``, underscores read as spaces.
    """
    name = name.replace("_", " ")
    kind = "an integer" if integer else "a real number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be {kind}, got {reprlib.repr(value)}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        raise error(f"{name} must be {kind} within the float range, "
                    f"got {reprlib.repr(value)}") from None
    if integer:
        if not (isinstance(value, numbers.Integral) or x.is_integer()):
            raise error(f"{name} must be an integer, got {reprlib.repr(value)}")
        x = int(value)
    if not ((low < x < high) if open else (low <= x <= high)) or not math.isfinite(x):
        if high < math.inf:
            need = f"in {'(' if open else '['}{low:g}, {high:g}{')' if open else ']'}"
        elif low == -math.inf:
            need = "finite"
        else:
            side = (("positive" if open else "non-negative") if low == 0
                    else f"{'greater than' if open else 'at least'} {low:g}")
            need = side if integer else f"{side} and finite"
        raise error(f"{name} must be {need}, got {x}")
    return x


def unit_vector(v):
    """Return ``v`` normalized, raising :class:`NonUnitAxis` on zero length."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if not np.isfinite(n) or n == 0.0:
        raise NonUnitAxis(f"cannot normalize zero or non-finite vector {v}")
    return v / n


def rotation_to_z(axis):
    """Rotation matrix R with R @ (0,0,1) == axis (unit)."""
    a = unit_vector(axis)
    z = np.array([0.0, 0.0, 1.0])
    c = float(np.dot(z, a))
    v = np.cross(z, a)
    v2 = float(v @ v)
    if v2 < np.finfo(float).tiny:
        # the axis is +-z, or so near that |v|^2 underflows; -z is 180
        # degrees about x.  c is no test: it rounds to +-1 for tilts below
        # about 1e-8 rad, which the frame below keeps
        return np.eye(3) if c > 0.0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    # 1 + c equals |v|^2 / (1 - c).  Within ~2.6 degrees of -z the sum
    # 1 + c has lost digits and R would not be orthogonal; the quotient has not
    denom = v2 / (1.0 - c) if c < -0.999 else 1.0 + c
    return np.eye(3) + vx + vx @ vx / denom


@dataclass
class SurfacePatches:
    """Quadrature decomposition of a boundary into (point, normal, weight)."""

    points: np.ndarray   # (n, 3) m
    normals: np.ndarray  # (n, 3) unit, outward from the material
    weights: np.ndarray  # (n,) m^2

    def __post_init__(self):
        self.points = _array("points", self.points, (None, 3), finite=False)
        self.normals = _array("normals", self.normals, (None, 3), finite=False)
        self.weights = _array("weights", self.weights, (None,), finite=False)

    def __len__(self):
        return self.points.shape[0]

    @property
    def total_area(self):
        return float(np.sum(self.weights))

    def validate(self):
        """Check unit normals and non-negative weights; return self."""
        norms = np.linalg.norm(self.normals, axis=1)
        bad = np.abs(norms - 1.0).max(initial=0.0)
        if bad > UNIT_TOL:
            raise NonUnitAxis(f"patch normals deviate from unit length by {bad:.2e}")
        if np.any(self.weights < 0):
            raise DegenerateDimension("negative patch weight")
        return self

    def translated(self, offset):
        return SurfacePatches(self.points + _array("offset", offset, (3,)), self.normals.copy(),
                              self.weights.copy())

    def rotated(self, matrix):
        """Apply a rotation matrix to points and normals."""
        m = _array("matrix", matrix, (3, 3))
        return SurfacePatches(self.points @ m.T, self.normals @ m.T, self.weights.copy())

    def flipped(self):
        """Reverse all normals (used for cavity walls)."""
        return SurfacePatches(self.points.copy(), -self.normals, self.weights.copy())

    @staticmethod
    def concatenate(parts):
        parts = list(parts)
        return SurfacePatches(
            np.vstack([p.points for p in parts]),
            np.vstack([p.normals for p in parts]),
            np.concatenate([p.weights for p in parts]),
        )


@dataclass
class MassProperties:
    """Bulk properties of a homogeneous body.

    ``inertia`` is the standard tensor int rho (r^2 I - r o r) dV about the
    centroid; ``second_moment`` is int rho (r o r) dV about the centroid.
    The two are related exactly by I = tr(J) I3 - J.
    """

    volume: float          # m^3, cavities excluded
    area: float            # m^2, cavity walls included
    mass: float            # kg
    centroid: np.ndarray   # (3,) m
    inertia: np.ndarray    # (3, 3) kg m^2 about centroid
    second_moment: np.ndarray = field(default=None)  # (3, 3) kg m^2 about centroid

    def __post_init__(self):
        self.centroid = _array("centroid", self.centroid, (3,))
        self.inertia = _array("inertia", self.inertia, (3, 3))
        if self.second_moment is None:
            self.second_moment = np.trace(self.inertia) / 2.0 * np.eye(3) - self.inertia
        else:
            self.second_moment = _array("second moment", self.second_moment, (3, 3))


def compose_mass_properties(parts, density):
    """Combine signed part contributions into one :class:`MassProperties`.

    ``parts`` is an iterable of (sign, volume, area, centroid,
    second_moment_about_own_centroid) with geometric (density-free)
    second moments.  Cavities enter with sign -1: volume subtracts,
    area adds.  A density that makes the mass or the inertia overflow
    raises :class:`DegenerateDimension`.
    """
    vol = 0.0
    area = 0.0
    first_moment = np.zeros(3)
    j_origin = np.zeros((3, 3))
    for sign, v, a, c, j_c in parts:
        vol += sign * v
        area += a
        first_moment += sign * v * c
        j_origin += sign * (j_c + v * np.outer(c, c))
    if vol <= 0.0:
        raise DegenerateDimension("net volume is not positive")
    centroid = first_moment / vol
    with np.errstate(over="ignore", invalid="ignore"):
        mass = density * vol
        j_cm = density * (j_origin - vol * np.outer(centroid, centroid))
        inertia = np.trace(j_cm) * np.eye(3) - j_cm
    if not (np.isfinite(mass) and np.all(np.isfinite(inertia))):
        raise DegenerateDimension(f"density {density} overflows the mass or the inertia")
    return MassProperties(
        volume=vol,
        area=area,
        mass=mass,
        centroid=centroid,
        inertia=inertia,
        second_moment=j_cm,
    )
