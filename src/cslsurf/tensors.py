"""Geometry-invariant surface tensors of a body boundary.

Two symmetric 3x3 tensors encode everything the collapse-noise coupling
needs to know about a homogeneous rigid body:

* the translational surface tensor, the boundary integral of the outer
  product of the outward unit normal with itself (units m^2, trace equal
  to the total area), and
* the rotational surface tensor, the boundary integral of
  (r x n) o (r x n) about a chosen origin (units m^4).

Both reduce to weighted sums over a :class:`SurfacePatches` quadrature.
"""

import math
from itertools import combinations_with_replacement

import numpy as np

from .errors import DegenerateDimension, NonUnitAxis
from .geometry.patches import SurfacePatches, _array

PSD_CLAMP_REL = 1e-10
# eigenvalues closer than this times |trace| span one degenerate eigenspace
DEGENERATE_REL = 1e-10


def _outer_sum(w, v):
    """sum_p w_p v_p o v_p, symmetric.  Each entry is one sum over a
    contiguous array, which numpy adds pairwise, so its rounding grows with
    the log of the patch count, not with the count."""
    t = np.empty((3, 3))
    for i, j in combinations_with_replacement(range(3), 2):
        t[i, j] = t[j, i] = np.sum(w * v[:, i] * v[:, j])
    return t


def surface_tensor(patches: SurfacePatches) -> np.ndarray:
    """Integral of n o n dS over the boundary; symmetric PSD, trace = area."""
    return _outer_sum(patches.weights, patches.normals)


def rotational_surface_tensor(patches: SurfacePatches, origin=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Integral of (r x n) o (r x n) dS about ``origin``.

    Physically meaningful about the body centroid; any finite real 3-vector
    is accepted (the dependence on origin is the lever-arm shift, which
    callers may want to probe), and other origins raise DegenerateDimension.
    """
    r = patches.points - _array("origin", origin, (3,))
    return _outer_sum(patches.weights, np.cross(r, patches.normals))


def axial_rotational_strength(patches: SurfacePatches, origin, axis) -> float:
    """Integral of the squared triple product [r, n, axis] dS.

    Direct accumulation of ((r x n) . axis)^2; equals the quadratic form
    axis . S_rot . axis of :func:`rotational_surface_tensor` identically.
    ``origin`` and ``axis`` must be finite real 3-vectors (or
    DegenerateDimension is raised), and ``axis`` unit length (or NonUnitAxis).
    """
    axis = _array("axis", axis, (3,))
    if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise NonUnitAxis(f"rotation axis must be unit length, |axis| = {np.linalg.norm(axis)}")
    r = patches.points - _array("origin", origin, (3,))
    triple = np.einsum("pi,i->p", np.cross(r, patches.normals), axis)
    return float(np.sum(patches.weights * triple**2))


def _psd(name, tensor, strict=True):
    """The tensor as a float array, the eigenvalues and eigenvector columns
    of its symmetric part, and whether it is PSD: no eigenvalue below
    -PSD_CLAMP_REL times the trace where the trace is positive, else times
    the largest |eigenvalue|.  Anything but a finite 3x3 tensor of real
    numbers, or when ``strict`` a tensor that is not PSD, raises
    :class:`DegenerateDimension` naming ``name``."""
    t = _array(name, tensor, (3, 3))
    vals, vecs = np.linalg.eigh(0.5 * (t + t.T))
    trace = np.trace(t)
    scale = trace if trace > 0.0 else np.abs(vals).max()
    psd = bool(np.all(vals >= -PSD_CLAMP_REL * scale))
    if strict and not psd:
        raise DegenerateDimension(f"{name} is not positive semidefinite: eigenvalues {vals}")
    return t, vals, vecs, psd


def clamp_psd(tensor):
    """Zero out the negative eigenvalues (float noise) of a tensor that
    :func:`is_psd` accepts.

    Raises :class:`DegenerateDimension` for any other tensor, and for
    anything but a finite 3x3 tensor of real numbers.
    """
    _, vals, vecs, _ = _psd("tensor", tensor)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


def is_psd(tensor):
    """Is ``tensor`` PSD to within ``PSD_CLAMP_REL``: no eigenvalue below
    -PSD_CLAMP_REL times its trace where that is positive, else times its
    largest |eigenvalue|; :func:`clamp_psd` accepts exactly these."""
    return _psd("tensor", tensor, strict=False)[3]


def principal_axes(tensor):
    """Eigenvalues (ascending) and unit eigenvector columns of a symmetric tensor.

    The columns are canonical, so that last-bit noise in the tensor cannot
    rotate or flip them.  Eigenvalues equal within ``DEGENERATE_REL`` of the
    trace share one eigenspace.  Three equal ones give the identity.  For a
    pair, the third vector u fixes the plane, and its first column is the
    projection of x onto that plane (of y when u lies within 45 degrees of
    x), its second completes a right-handed frame.  Every vector outside a
    degenerate pair has its largest component positive.  Anything but a
    finite 3x3 tensor of real numbers raises :class:`DegenerateDimension`.
    """
    t = _array("tensor", tensor, (3, 3))
    vals, vecs = np.linalg.eigh(0.5 * (t + t.T))
    tol = DEGENERATE_REL * abs(vals.sum())
    if vals[2] - vals[0] <= tol:
        return vals, np.eye(3)
    vecs = vecs * np.sign(vecs[np.abs(vecs).argmax(axis=0), [0, 1, 2]])
    if vals[1] - vals[0] <= tol or vals[2] - vals[1] <= tol:
        single = 2 if vals[1] - vals[0] <= tol else 0
        u = vecs[:, single]
        e = np.eye(3)[0 if abs(u[0]) <= math.sqrt(0.5) else 1]
        a = e - (e @ u) * u
        a /= np.linalg.norm(a)
        vecs[:, [(single + 1) % 3, (single + 2) % 3]] = np.stack([a, np.cross(u, a)], axis=1)
    return vals, vecs
