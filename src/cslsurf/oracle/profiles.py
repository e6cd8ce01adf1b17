"""Boundary density profiles and the edge-layer strength integral.

A profile H(h) describes how the density falls from 1 (deep inside,
h -> -inf) to 0 (outside) across the boundary layer; h is the signed
height above the nominal surface.  The ideal sharp edge is the
descending step at h = 0.  Profiles here are piecewise linear, which
keeps their Gaussian-smoothed slope in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ..errors import DegenerateDimension
from ..geometry.patches import _scalar
from ..geometry.shapes import _gl


def _gauss(x, sigma):
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class EdgeProfile:
    """Monotone non-increasing profile, tabulated at knots; step if empty.

    ``heights`` and ``values`` define a piecewise-linear descent with
    values[0] = 1 and values[-1] = 0; H = 1 before the first knot and 0
    after the last.  The default (no knots) is the ideal step at h = 0.  A
    knot that is not a finite real number, or heights or values that are
    not a sequence, raise :class:`DegenerateDimension`.
    """

    heights: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        try:
            h = tuple(_scalar("knot height", x) for x in self.heights)
            v = tuple(_scalar("knot value", x) for x in self.values)
        except TypeError:  # not a sequence: heights=5
            raise DegenerateDimension("heights and values must be sequences, "
                                      f"got {self.heights!r} and {self.values!r}") from None
        if len(h) != len(v):
            raise DegenerateDimension("heights and values must have equal length")
        if h:
            if len(h) < 2:
                raise DegenerateDimension("tabulated profile needs at least 2 knots")
            if np.any(np.diff(h) <= 0):
                raise DegenerateDimension("knot heights must be strictly increasing")
            if np.any(np.diff(v) > 0):
                raise DegenerateDimension("profile must be non-increasing")
            if abs(v[0] - 1.0) > 1e-12 or abs(v[-1]) > 1e-12:
                raise DegenerateDimension("profile must descend from 1 to 0")
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "values", v)

    @classmethod
    def step(cls):
        return cls()

    @classmethod
    def linear_ramp(cls, width):
        width = _scalar("ramp width", width, 0.0, open=True)
        return cls(heights=(-width / 2.0, width / 2.0), values=(1.0, 0.0))

    @property
    def is_step(self):
        return not self.heights

    def support(self):
        if self.is_step:
            return 0.0, 0.0
        return self.heights[0], self.heights[-1]

    def smoothed_slope(self, h, sigma):
        """(g_sigma * dH)(h): the slope dH/dh convolved with the Gaussian
        kernel, in closed form; the step gives -g_sigma(h)."""
        h = np.asarray(h, dtype=float)
        if self.is_step:
            return -_gauss(h, sigma)
        t = np.asarray(self.heights)
        v = np.asarray(self.values)
        out = np.zeros_like(h)
        for j in range(len(t) - 1):
            s = (v[j + 1] - v[j]) / (t[j + 1] - t[j])
            out = out + s * (ndtr((h - t[j]) / sigma) - ndtr((h - t[j + 1]) / sigma))
        return out


def edge_layer_factor(profile: EdgeProfile, sigma) -> float:
    """Squared smoothed-slope integral across the edge, units 1/m.

    For the ideal step this is the integral of the squared Gaussian,
    1 / (2 sqrt(pi) sigma); softer profiles give strictly smaller values
    and recover the step value as their width vanishes.  A 512-node
    Gauss-Legendre rule spans the profile's support widened by 10 sigma.
    """
    sigma = _scalar("sigma", sigma, 0.0, open=True)
    lo, hi = profile.support()
    a, b = lo - 10.0 * sigma, hi + 10.0 * sigma
    h, wh = _gl(512, a, b)
    slope = profile.smoothed_slope(h, sigma)
    return float(np.sum(wh * slope**2))
