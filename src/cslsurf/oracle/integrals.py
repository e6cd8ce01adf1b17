"""Brute-force evaluations of the decoherence structure.

The central identity under test: the Gaussian-damped second moment of
the body form factor,

    K = int exp(-k^2 sigma^2) |mu_k|^2 (k o k) dk,

equals (2 pi)^3 times the volume integral of grad(mu_sigma) o
grad(mu_sigma), and for bodies much larger than sigma collapses to
(2 pi)^3 rho^2 / (2 sqrt(pi) sigma) times the surface tensor.  The three
routes here are mutually independent:

* :func:`gradient_outer_integral` differentiates a rasterized smoothed
  field (spectrally by default; the plain central-difference stencil is
  kept as an option but its symbol error at sigma/2 spacing is percent
  level and fails the tight cross-checks),
* :func:`kspace_outer_integral` integrates the analytic form factor in
  one refinement loop, whose radial nodes double until the tensor
  settles.  Each shape's ``_kspace_local`` hook picks the rule of its
  steps: the body-frame rule (closed form for a bare box, one radial
  integral for a bare sphere or cylinder) or, where the hook declines,
  a radial x angular ladder in world axes.  Shapes without a form
  factor take a DFT of the raw indicator,
* :func:`surface_formula_outer_integral` applies the closed-form surface
  scaling.

:func:`decoherence_function` evaluates the full (non-quadratic)
positional dephasing rate from the field autocorrelation.

The gradient route, the DFT route and the decoherence function are all
Parseval sums over the power spectrum P = w |F(k)|^2 of a gridded field,
each with its own mode weight.  :func:`_power` transforms each value
content once and keeps the spectra of the two most recently used value
contents, so a scan of many oracle calls on one grid, or on grids whose
values are equal bit for bit (a grid and its re-read file), pays for one
transform; the values of a transformed or matched grid are read-only.
Each weight is a short sum of per-axis products, so one kernel,
:func:`_mode_sum`, reads the spectrum once, contracting its x axis with
at most three rows of x factors in one matrix product, and each caller
ends with small contractions over y and z.  The weights are

* s o s for the derivative symbol s(k) = k, or sin(k h)/h for the
  central stencil, in :func:`gradient_outer_integral`,
* k o k times the squared separable gain exp(-k^2 sigma^2 / 2) / D(k),
  D the transform of the supersampled cell average, in the DFT route
  of :func:`kspace_outer_integral`,
* 1 - cos(k . delta), as -Re of e^{i k . delta} - 1 split by axis, in
  :func:`decoherence_function`.
"""

import math
import numbers
import threading
import weakref

import numpy as np
from scipy import fft as sfft

from ..csl import CslParams, _density_squared
from ..errors import ConfigError, DegenerateDimension, QuadratureNotConverged, ShiftOutOfGrid
from ..geometry.shapes import (
    _gl,
    _has_form_factor,
    _leggauss,
    _positive,
    _sphere_patches,
    build_shape,
)
from .voxel import (
    _SUPERSAMPLE,
    DEFAULT_MAX_VOXELS,
    VoxelGrid,
    _drop_kept,
    _fraction,
    _grid_geometry,
    _grid_lengths,
)

KMAX_SIGMA = 8.0  # radial cutoff k_max = KMAX_SIGMA / sigma; Gaussian tail < 1e-27
_RADIAL_CHUNK = 128  # radial nodes per form-factor call of the k-space ladder


# ---------------------------------------------------------------------------
# spectral mode sums over a grid


# power spectra of the two most recently used value contents, least
# recently used first: ([weak references to the value arrays known to
# hold those bits], P).  An entry goes when the last of its arrays dies.
# The lock is reentrant because a weak reference's callback can run in
# any thread, including one that holds it.
_SPECTRA = []
_SPECTRA_LOCK = threading.RLock()


def _forget(ref):
    with _SPECTRA_LOCK:
        for refs, _ in _SPECTRA:
            refs[:] = [r for r in refs if r is not ref]
        _SPECTRA[:] = [entry for entry in _SPECTRA if entry[0]]


def _same_bits(a, b):
    """Whether two arrays of one shape and dtype hold the same bits.

    They are compared one x-plane at a time as unsigned integers, so no
    full-size temporary is built, the first differing plane ends the
    comparison, and NaNs and signed zeros compare by their bits."""
    if (a.shape != b.shape or a.dtype != b.dtype
            or a.dtype.kind not in "biuf" or a.dtype.itemsize not in (1, 2, 4, 8)):
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return all(np.array_equal(p.view(bits), q.view(bits)) for p, q in zip(a, b))


def _power(grid: VoxelGrid):
    """Power spectrum P = w_z |F|^2 of the grid values' one rfftn F.

    w_z counts the Hermitian twin of each half-spectrum column.  P is
    written into F's own buffer, one x-plane at a time in increasing
    order (plane i of P lands on planes <= i of F, already read), and the
    buffer is then shrunk to P's size, so no second spectrum-sized array
    is ever alive.  P depends on the values alone, not on the grid's
    origin, spacing or margin, so it is kept per value content: the
    spectra of the two most recently used contents are held, each with
    weak references to the arrays known to hold its bits.  An array is
    looked up by identity, then compared bit for bit with one live array
    of each held spectrum (:func:`_same_bits`); a match joins that
    spectrum without a transform.  A spectrum is freed when the last of
    its arrays dies, and a miss evicts before it transforms.  An array
    that is transformed or joins a spectrum is made read-only: an
    in-place edit raises instead of leaving a stale spectrum, and a new
    array assigned to ``grid.values`` is looked up afresh.
    """
    values = grid.values
    with _SPECTRA_LOCK:
        entry = next((e for e in _SPECTRA if any(ref() is values for ref in e[0])), None)
        if entry is None:
            for candidate in list(_SPECTRA):
                # holding one of its arrays keeps the entry alive while it is compared
                held = next((a for a in (ref() for ref in candidate[0]) if a is not None), None)
                if held is not None and _same_bits(held, values):
                    values.flags.writeable = False
                    candidate[0].append(weakref.ref(values, _forget))
                    entry = candidate
                    break
        if entry is not None:
            _SPECTRA[:] = [e for e in _SPECTRA if e is not entry] + [entry]
            return entry[1]
        del _SPECTRA[:-1]      # evict first: one held spectrum at most beside F
    values.flags.writeable = False
    F = sfft.rfftn(values.astype(float, copy=False))
    n = F.shape
    wz = np.full(n[2], 2.0)
    wz[0] = 1.0
    if values.shape[2] % 2 == 0:
        wz[-1] = 1.0
    plane = n[1] * n[2]
    flat = F.view(np.float64).reshape(-1)
    for i in range(n[0]):
        flat[i * plane:(i + 1) * plane] = ((F[i].real**2 + F[i].imag**2) * wz).ravel()
    del flat
    F.resize((n[0] * plane + 1) // 2, refcheck=False)
    P = F.view(np.float64)[:n[0] * plane].reshape(n)
    P.flags.writeable = False
    with _SPECTRA_LOCK:
        _SPECTRA.append(([weakref.ref(values, _forget)], P))
        del _SPECTRA[:-2]
    return P


def _wavenumbers(shape, h):
    """Angular wavenumbers of the rfftn axes of a grid of ``shape``."""
    return (2.0 * np.pi * sfft.fftfreq(shape[0], d=h),
            2.0 * np.pi * sfft.fftfreq(shape[1], d=h),
            2.0 * np.pi * sfft.rfftfreq(shape[2], d=h))


def _mode_sum(grid: VoxelGrid, rows):
    """(h^3 / N) sum over kx of ``rows`` times the grid's cached spectrum P.

    h is the grid spacing and N the number of voxels.  The (m, nx) rows
    of x factors, m <= 3, meet P in one matrix product that reads P once;
    the (m, ny, nz') result is left to the caller's y and z contractions.
    """
    P = _power(grid)
    nx, ny, nz = P.shape
    rows = grid.spacing**3 / grid.values.size * rows
    return (rows @ P.reshape(nx, ny * nz)).reshape(-1, ny, nz)


def _outer_sum(grid: VoxelGrid, s, g=(1.0, 1.0, 1.0)):
    """(h^3 / N) sum over modes of P gx gy gz s o s for per-axis factors s and g."""
    (sx, sy, sz), (gx, gy, gz) = s, g
    Q = _mode_sum(grid, gx * np.stack([np.ones_like(sx), sx, sx * sx])) * np.multiply.outer(gy, gz)
    qy, qz = Q.sum(axis=2), Q.sum(axis=1)
    xx, xy, xz = qy[2].sum(), qy[1] @ sy, qz[1] @ sz
    yy, yz, zz = qy[0] @ (sy * sy), sy @ Q[0] @ sz, qz[0] @ (sz * sz)
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def _finite(value, what):
    if not np.all(np.isfinite(value)):  # the report of the overflow or NaN that errstate hid
        raise DegenerateDimension(f"{what} is not finite: its inputs are not, or it overflows")
    return value


def gradient_outer_integral(grid: VoxelGrid, method="spectral"):
    """(2 pi)^3 int grad(f) o grad(f) dV for the gridded field f.

    ``method="spectral"`` uses exact derivative symbols through the DFT
    (discretization error limited by aliasing of the smooth field, far
    below the 0.5 percent budget at sigma/2 spacing).  ``"central"``
    reproduces the classic second-order stencil via its symbol
    sin(k h)/h; kept for error-budget studies.  Any other method raises
    :class:`ConfigError`; grid values that are not finite raise
    :class:`DegenerateDimension`.
    """
    _drop_kept()
    h = grid.spacing
    s = _wavenumbers(grid.values.shape, h)
    if method == "central":
        s = [np.sin(k * h) / h for k in s]
    elif method != "spectral":
        raise ConfigError(f"unknown method {method!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        G = (2.0 * np.pi) ** 3 * _outer_sum(grid, s)
    return _finite(G, "the gradient integral")


def surface_formula_outer_integral(surface_tensor, density, sigma):
    """Closed-form surface scaling (2 pi)^3 rho^2 / (2 sqrt(pi) sigma) * S."""
    _positive("sigma", sigma)
    scale = (2.0 * np.pi) ** 3 * _density_squared(density) / (2.0 * math.sqrt(math.pi) * sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(scale * np.asarray(surface_tensor, dtype=float), "the surface formula")


# ---------------------------------------------------------------------------
# analytic form factors


def form_factor(spec):
    """Complex form factor mu(k) of the body, or None if unavailable.

    mu(k) = rho_unit * int_body exp(-i k . r) dr with unit density; the
    caller multiplies by rho.  Compositions (center offsets, cavities of
    analytic parts) enter as phased sums.
    """
    spec = build_shape(spec)
    if not _has_form_factor(spec):
        return None
    parts = [(1.0, spec)] + [(-1.0, c) for c in spec.cavities]
    fns = [(sign, np.asarray(part.center, dtype=float), part._unit_form_factor)
           for sign, part in parts]

    def mu(k):
        k = np.asarray(k, dtype=float)
        out = 0.0j
        for sign, center, fn in fns:
            phase = np.exp(-1j * (k @ center)) if np.any(center) else 1.0
            out = out + sign * phase * fn(k)
        return out

    return mu


# ---------------------------------------------------------------------------
# k-space integral


def _kspace_quadrature(mu, density, sigma, n_r, n_t, n_p):
    kmax = KMAX_SIGMA / sigma
    xr, wr = _leggauss(n_r)
    kr, wkr = 0.5 * kmax * (xr + 1.0), 0.5 * kmax * wr
    # the directions and weights of the unit sphere's surface rule
    unit = _sphere_patches(1.0, n_t, n_p)
    dirs, wd = unit.normals, unit.weights
    radial = wkr * kr**4 * np.exp(-((kr * sigma) ** 2))
    per_dir = np.zeros(len(dirs))
    for lo in range(0, n_r, _RADIAL_CHUNK):
        sl = slice(lo, lo + _RADIAL_CHUNK)
        kvecs = kr[sl, None, None] * dirs[None, :, :]
        f2 = np.abs(mu(kvecs)) ** 2
        per_dir += radial[sl] @ f2
    per_dir *= density**2
    return np.einsum("d,di,dj->ij", per_dir * wd, dirs, dirs)


def _rungs(max_radial_nodes):
    """(n_r, n_t, n_p) of each refinement step: n_r radial nodes, doubling
    from 128 up to ``max_radial_nodes``, and the ladder's n_t polar and
    2 n_t azimuthal directions, n_t growing by sqrt(2) (16, 24, 32, 48, ...)."""
    step = 0
    while (n_r := 128 << step) <= max_radial_nodes:
        n_t = (16 if step % 2 == 0 else 24) << (step // 2)
        yield n_r, n_t, 2 * n_t
        step += 1


def _settled(K, prev, tol):
    """Whether one refinement step changed the tensor by less than ``tol``:
    relative, Frobenius, both norms taken of K / max|K|, since those of K
    overflow past ~1e154."""
    scale = np.max(np.abs(K)) or 1.0
    return np.linalg.norm((K - prev) / scale) / max(np.linalg.norm(K / scale), 1e-300) < tol


def _check_budget(tol, max_radial_nodes):
    """:class:`ConfigError` unless ``tol`` is a positive finite number and
    ``max_radial_nodes`` a positive integer; a bool is neither."""
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not (math.isfinite(tol) and tol > 0)):
        raise ConfigError(f"tol must be a positive finite number, got {tol!r}")
    if (isinstance(max_radial_nodes, bool) or not isinstance(max_radial_nodes, numbers.Integral)
            or max_radial_nodes < 1):
        raise ConfigError(f"max_radial_nodes must be a positive integer, got {max_radial_nodes!r}")


def kspace_outer_integral(spec, density, sigma, tol=1e-4, spacing=None,
                          max_voxels=DEFAULT_MAX_VOXELS, max_radial_nodes=4096,
                          padding=None):
    """int exp(-k^2 sigma^2) |mu_k|^2 (k o k) dk.

    A body with an analytic form factor takes one refinement loop over
    :func:`_rungs`, whose radial nodes double from 128 up to
    ``max_radial_nodes``, until one step changes the tensor by less than
    ``tol`` (relative, Frobenius, of K / max|K| so that no norm
    overflows); :class:`QuadratureNotConverged` if the budget runs out
    first.  The shape's ``_kspace_local`` hook picks the rule of a step:

    * the body-frame rule where it returns a local tensor (a bare sphere,
      box, circular or elliptic cylinder, or a sphere whose cavities are
      all spheres at its center).  In the local frame F the Gaussian and
      the closed-form factors of the form factor separate, so K = F
      K_local F^T with K_local diagonal.  A box is closed form and
      returns at any budget; the others leave one radial integral over
      [0, KMAX_SIGMA / sigma], on the step's radial nodes;
    * the spherical ladder where it returns None: the step's radial x
      angular rule on the phased form factor in world axes.

    A body without one takes the DFT route: a Parseval sum over the DFT
    of the supersampled raw indicator, on a grid of ``spacing`` (default
    sigma / 2, which it may not exceed) padded by ``padding`` (default 6
    sigma), both of which the analytic rules ignore; its grid arguments
    are checked as for :func:`rasterize_smoothed_density`.  It shares one fill
    with a filtered raster of the same body and lattice, in either order,
    unless a gradient or decoherence integral runs between them.

    A ``tol`` that is not a positive finite number, or a
    ``max_radial_nodes`` that is not a positive integer, raises
    :class:`ConfigError`.  ``density`` and ``sigma`` must be positive and
    finite, and so must density^2 and the tensor, on every route
    (:class:`DegenerateDimension`).
    """
    _check_budget(tol, max_radial_nodes)
    _density_squared(density)
    _positive("sigma", sigma)
    spec = build_shape(spec)
    mu = form_factor(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        if mu is None:
            return _finite(_kspace_fft(spec, density, sigma, spacing, padding, max_voxels),
                           "the k-space tensor")
        local = spec._kspace_local(sigma)
        if local is None:
            def rung(n_r, n_t, n_p):
                return _kspace_quadrature(mu, density, sigma, n_r, n_t, n_p)
        else:
            (factors, integrand), rho2, frame = local, _density_squared(density), spec._frame
            if integrand is None:
                return _finite(rho2 * (frame * factors) @ frame.T, "the k-space tensor")

            def rung(n_r, n_t, n_p):
                k, w = _gl(n_r, 0.0, KMAX_SIGMA / sigma)
                return rho2 * (frame * (factors * (integrand(k) @ w))) @ frame.T
        prev, n_r = None, 0
        for n_r, n_t, n_p in _rungs(max_radial_nodes):
            K = _finite(rung(n_r, n_t, n_p), "the k-space tensor")
            if prev is not None and _settled(K, prev, tol):
                return K
            prev = K
    raise QuadratureNotConverged(
        f"k-space quadrature did not reach {tol} in rungs of up to {n_r} radial nodes "
        f"(max_radial_nodes={max_radial_nodes})")


def _kspace_fft(spec, density, sigma, spacing, padding, max_voxels):
    """DFT route: supersampled indicator, deconvolved cell average.

    Independent of the smoothed-field gradient route: it transforms the
    raw (unsmoothed) indicator and applies the Gaussian damping exactly
    in k-space.  The indicator may be a filtered raster's fill of the same
    lattice; the grid is ``density`` times it, so the tensor is the same bits.
    """
    h, padding = _grid_lengths(density, sigma, spacing, padding)
    dims, origin = _grid_geometry(spec, h, padding, max_voxels)
    ss = _SUPERSAMPLE
    grid = VoxelGrid(origin, h, density * _fraction(spec, dims, origin, h))

    def gain(k):
        # Gaussian damping over the transform of the ss-point cell average;
        # the latter has no zeros for |k| <= pi/h
        num = np.sin(k * h / 2.0)
        den = ss * np.sin(k * h / (2.0 * ss))
        dirichlet = np.where(np.abs(k) < 1e-300, 1.0, num / np.where(den == 0, 1.0, den))
        return np.exp(-(k**2) * sigma**2 / 2.0) / dirichlet

    # |mu_hat|^2 dk = |h^3 F|^2 (2 pi)^3 / (ntot h^3) = (2 pi)^3 (h^3/ntot) |F|^2
    k = _wavenumbers(grid.values.shape, h)
    return (2.0 * np.pi) ** 3 * _outer_sum(grid, k, [gain(ki) ** 2 for ki in k])


# ---------------------------------------------------------------------------
# full decoherence function


def _expm1i(theta):
    """e^{i theta} - 1 as 2i sin(theta/2) e^{i theta/2}, exact to rounding for small theta."""
    return 2j * np.sin(theta / 2.0) * np.exp(0.5j * theta)


def decoherence_function(grid: VoxelGrid, delta, params: CslParams, method="spectral"):
    """Positional dephasing rate F(delta) in 1/s from the gridded field.

    F = (lambda sigma^3 / pi^{3/2} m_N^2) (2 pi)^3
        int [mu(r)^2 - mu(r) mu(r + delta)] dr.

    The shifted-field correlation is evaluated through the DFT phase
    ramp by default, which is exact for the sigma-smooth field at any
    sub-cell displacement.  Its sum of P (1 - cos(k . delta)) is -Re of
    the sum of P (e^{i k . delta} - 1), split by axis: the x phases are
    rows of the one x-axis product of :func:`_mode_sum`, the y and z
    phases small contractions of its result, and every e^{i theta} - 1
    is formed as 2i sin(theta/2) e^{i theta/2}.  So no 1 - cos cancels:
    the result agrees with the per-mode sum of 2 sin^2(k . delta / 2) to
    rounding at any |delta|, where a per-mode 1 - cos is off by some
    1e-11 relative at 1e-3 sigma.  ``method="trilinear"`` interpolates
    the shifted field on the grid instead; its linear-interpolation bias
    inflates F by roughly h/|delta| for sub-cell shifts, so it is only
    meaningful for |delta| of at least a few spacings.  Any other method
    raises :class:`ConfigError`.

    A ``delta`` that is not a 3-vector of real numbers (a string, a
    complex or a NaN included), or grid values that are not finite, raise
    :class:`DegenerateDimension`; a ``delta`` longer than the grid's
    margin, or infinite, raises :class:`ShiftOutOfGrid`.
    """
    _drop_kept()
    try:
        d = np.asarray(delta)
    except ValueError:                  # a ragged sequence
        d = np.empty(0)
    if d.dtype.kind not in "iuf" or d.shape != (3,) or np.any(np.isnan(d)):
        raise DegenerateDimension(f"delta must be a 3-vector of real numbers, got {delta!r}")
    delta = d.astype(float)
    # an infinite shift leaves any grid, a margin-less one included
    if np.any(np.isinf(delta)) or (grid.margin and np.linalg.norm(delta) > grid.margin):
        raise ShiftOutOfGrid(
            f"|delta| = {np.linalg.norm(delta):.3g} exceeds grid margin {grid.margin:.3g}")
    pref = (params.collapse_rate * params.localization_length**3
            / (math.pi**1.5 * params.nucleon_mass**2))
    h = grid.spacing
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "spectral":
            # sum P (1 - cos(a + b + c)) = -Re sum P (e^{i(a+b+c)} - 1), with
            # e^{i(a+b+c)} - 1 = (e^{ia} - 1) e^{i(b+c)} + (e^{ib} - 1) e^{ic} + (e^{ic} - 1)
            a, b, c = (k * d for k, d in zip(_wavenumbers(grid.values.shape, h), delta))
            ea = _expm1i(a)
            Q = _mode_sum(grid, np.stack([ea.real, ea.imag, np.ones_like(a)]))
            A, B = Q[0] + 1j * Q[1], Q[2]   # sum over x of P (e^{ia} - 1), and of P
            total = (np.exp(1j * b) @ A + _expm1i(b) @ B) @ np.exp(1j * c)
            integral = -(total + B.sum(axis=0) @ _expm1i(c)).real
        elif method == "trilinear":
            from scipy import ndimage

            shifted = ndimage.shift(grid.values, -delta / h, order=1, mode="constant", cval=0.0)
            integral = h**3 * float(np.sum(grid.values * (grid.values - shifted)))
        else:
            raise ConfigError(f"unknown method {method!r}")
    return _finite(pref * (2.0 * np.pi) ** 3 * integral, "the decoherence function")
