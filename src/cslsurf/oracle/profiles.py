"""Boundary density profiles and the edge-layer strength integral.

A profile H(h) describes how the density falls from 1 (deep inside,
h -> -inf) to 0 (outside) across the boundary layer; h is the signed
height above the nominal surface.  The ideal sharp edge is the
descending step at h = 0.  Profiles here are piecewise linear, which
keeps their Gaussian smoothing in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

from ..errors import DegenerateDimension
from ..geometry.shapes import _positive


def _gauss(x, sigma):
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class EdgeProfile:
    """Monotone non-increasing profile, tabulated at knots; step if empty.

    ``heights`` and ``values`` define a piecewise-linear descent with
    values[0] = 1 and values[-1] = 0; H = 1 before the first knot and 0
    after the last.  The default (no knots) is the ideal step at h = 0.
    """

    heights: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        h = tuple(float(x) for x in self.heights)
        v = tuple(float(x) for x in self.values)
        if len(h) != len(v):
            raise DegenerateDimension("heights and values must have equal length")
        if h:
            if len(h) < 2:
                raise DegenerateDimension("tabulated profile needs at least 2 knots")
            if not all(map(math.isfinite, h + v)):
                raise DegenerateDimension("knot heights and values must be finite")
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
        width = _positive("ramp width", width)
        return cls(heights=(-width / 2.0, width / 2.0), values=(1.0, 0.0))

    @property
    def is_step(self):
        return not self.heights

    def support(self):
        if self.is_step:
            return 0.0, 0.0
        return self.heights[0], self.heights[-1]

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        if self.is_step:
            return np.where(h < 0.0, 1.0, 0.0)
        return np.interp(h, self.heights, self.values, left=1.0, right=0.0)

    def smoothed(self, h, sigma):
        """(g_sigma * H)(h): profile convolved with the Gaussian kernel.

        Closed form for piecewise-linear tables; the step gives the
        complementary normal CDF.
        """
        h = np.asarray(h, dtype=float)
        if self.is_step:
            return ndtr(-h / sigma)
        t = np.asarray(self.heights)
        v = np.asarray(self.values)
        out = ndtr((t[0] - h) / sigma)  # H = 1 plateau
        for j in range(len(t) - 1):
            a, b = t[j], t[j + 1]
            s = (v[j + 1] - v[j]) / (b - a)
            d_phi = ndtr((h - a) / sigma) - ndtr((h - b) / sigma)
            moment = h * d_phi + sigma**2 * (_gauss(h - a, sigma) - _gauss(h - b, sigma))
            out = out + (v[j] - s * a) * d_phi + s * moment
        return out

    def smoothed_slope(self, h, sigma):
        """d/dh of :meth:`smoothed`; equals (g_sigma * dH)(h)."""
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


def edge_layer_factor(profile: EdgeProfile, sigma, n_nodes=512) -> float:
    """Squared smoothed-slope integral across the edge, units 1/m.

    For the ideal step this is the integral of the squared Gaussian,
    1 / (2 sqrt(pi) sigma); softer profiles give strictly smaller values
    and recover the step value as their width vanishes.
    """
    _positive("sigma", sigma)
    lo, hi = profile.support()
    a, b = lo - 10.0 * sigma, hi + 10.0 * sigma
    x, w = leggauss(n_nodes)
    h = 0.5 * (b - a) * x + 0.5 * (a + b)
    wh = 0.5 * (b - a) * w
    slope = profile.smoothed_slope(h, sigma)
    return float(np.sum(wh * slope**2))
