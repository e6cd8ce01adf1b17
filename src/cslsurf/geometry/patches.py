"""Surface quadrature records and bulk mass properties.

A :class:`SurfacePatches` object is a flat quadrature decomposition of a
body boundary: sample points, outward unit normals (outward from the
material, i.e. pointing into cavities on cavity walls) and area weights.
All surface integrals downstream are plain weighted sums over it.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateDimension, NonUnitAxis

UNIT_TOL = 1e-10


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
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))

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
        offset = np.asarray(offset, dtype=float)
        return SurfacePatches(self.points + offset, self.normals.copy(), self.weights.copy())

    def rotated(self, matrix):
        """Apply a rotation matrix to points and normals."""
        m = np.asarray(matrix, dtype=float)
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
        self.centroid = np.asarray(self.centroid, dtype=float)
        self.inertia = np.asarray(self.inertia, dtype=float)
        if self.second_moment is None:
            self.second_moment = np.trace(self.inertia) / 2.0 * np.eye(3) - self.inertia
        else:
            self.second_moment = np.asarray(self.second_moment, dtype=float)


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
        c = np.asarray(c, dtype=float)
        vol += sign * v
        area += a
        first_moment += sign * v * c
        j_origin += sign * (np.asarray(j_c, dtype=float) + v * np.outer(c, c))
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
