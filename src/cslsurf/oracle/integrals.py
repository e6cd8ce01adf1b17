"""Brute-force evaluations of the decoherence structure.

The central identity under test: the Gaussian-damped second moment of
the body form factor,

    K = int exp(-k^2 sigma^2) |mu_k|^2 (k o k) dk,

equals (2 pi)^3 times the volume integral of grad(mu_sigma) o
grad(mu_sigma), and for bodies much larger than sigma collapses to
(2 pi)^3 rho^2 / (2 sqrt(pi) sigma) times the surface tensor.  The three
routes here are mutually independent, but for one thing: on a sampled
body the two grid routes share one raster and differ only by the
deconvolution of the cell average.

* :func:`gradient_outer_integral` differentiates a rasterized smoothed
  field spectrally, with the exact derivative symbol,
* :func:`kspace_outer_integral` integrates the analytic form factor in
  one refinement loop, whose radial nodes double until the tensor
  settles.  Each shape's ``_kspace_local`` hook picks the rule of its
  steps: the body-frame rule (closed form for a bare box, one radial
  integral for a bare sphere or cylinder) or, where the hook declines,
  a radial x angular ladder in world axes.  A body without a form
  factor is one without a closed-form field, so it has a filtered
  raster, and its DFT route reads that raster's spectrum,
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
:func:`_mode_sum`, reads the spectrum once and contracts its x and y
axes with a few rows of x factors and of y factors.  It takes the
spectrum in blocks of y rows, one matrix product with the x rows and a
second with the block's y rows each, so no array of a spectrum plane's
size is made; a spectrum of 2^20 values or more takes two halves, one
per thread.  Each caller ends over z with vectors of nz' values.  The
weights are

* k o k, the derivative symbol's outer product, in
  :func:`gradient_outer_integral`,
* k o k / D(k)^2, D the separable transform of the supersampled cell
  average, in the DFT route of :func:`kspace_outer_integral`,
* 1 - cos(k . delta), as -Re of e^{i k . delta} - 1 split by axis, in
  :func:`decoherence_function`.
"""

import math
import threading
import weakref
from dataclasses import replace

import numpy as np
from scipy import fft as sfft

from ..csl import CslParams, _density_squared
from ..errors import DegenerateDimension, QuadratureNotConverged, ShiftOutOfGrid
from ..geometry.patches import _array, _scalar
from ..geometry.shapes import (
    _gl,
    _has_form_factor,
    _leggauss,
    _points,
    _sphere_patches,
    build_shape,
)
from ..tensors import _psd
from .voxel import (
    _SUPERSAMPLE,
    VoxelGrid,
    _halves,
    _spread,
    _wavenumbers,
    _workers,
    rasterize_smoothed_density,
)

KMAX_SIGMA = 8.0  # radial cutoff k_max = KMAX_SIGMA / sigma; Gaussian tail < 1e-27
# the refinement loop stops once one rung changes K by less than KSPACE_TOL
# (relative); its last rung has MAX_RADIAL_NODES radial nodes
KSPACE_TOL = 1e-4
MAX_RADIAL_NODES = 4096
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
    F = sfft.rfftn(values.astype(float, copy=False), workers=_workers(values.size))
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


def _mode_sum(grid: VoxelGrid, xrows, yrows):
    """R[m, a, kz] = (h^3 / N) sum over kx, ky of xrows[m, kx] yrows[a, ky] P[kx, ky, kz].

    h is the grid spacing, N the number of voxels and P the grid's cached
    spectrum.  P is read in blocks of y rows: each block meets the x rows
    in one matrix product, whose (m, block, nz') result meets the block's
    y rows in a second, so no array of a spectrum plane's size is made.
    A spectrum of ``_PARALLEL_SIZE`` values or more takes two halves,
    one per thread, and a smaller one a single block; the halves are
    added in order, so the result does not depend on the number of cores.
    """
    P = _power(grid)
    nx, ny, nz = P.shape
    xrows = grid.spacing**3 / grid.values.size * xrows
    flat = P.reshape(nx, ny * nz)

    def block(span):
        lo, hi = span
        xsum = (xrows @ flat[:, lo * nz:hi * nz]).reshape(len(xrows), hi - lo, nz)
        return yrows[:, lo:hi] @ xsum

    return sum(_spread(block, _halves(ny, P.size)))


def _outer_sum(grid: VoxelGrid, s, g=(1.0, 1.0, 1.0)):
    """(h^3 / N) sum over modes of P gx gy gz s o s for per-axis factors s and g."""
    X, Y, Z = (gi * np.stack([np.ones_like(si), si, si * si]) for si, gi in zip(s, g))
    R = _mode_sum(grid, X, Y)    # R[i, j] sums P gx sx^i gy sy^j over x and y
    xx, xy, xz = R[2, 0] @ Z[0], R[1, 1] @ Z[0], R[1, 0] @ Z[1]
    yy, yz, zz = R[0, 2] @ Z[0], R[0, 1] @ Z[1], R[0, 0] @ Z[2]
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def _finite(value, what):
    if not np.all(np.isfinite(value)):  # the report of the overflow or NaN that errstate hid
        raise DegenerateDimension(f"{what} is not finite: its inputs are not, or it overflows")
    return value


def gradient_outer_integral(grid: VoxelGrid):
    """(2 pi)^3 int grad(f) o grad(f) dV for the gridded field f.

    The derivatives take their exact symbols through the DFT
    (discretization error limited by aliasing of the smooth field, far
    below the 0.5 percent budget at sigma/2 spacing).  Grid values that
    are not finite raise :class:`DegenerateDimension`.
    """
    s = _wavenumbers(grid.values.shape, grid.spacing)
    with np.errstate(over="ignore", invalid="ignore"):
        G = (2.0 * np.pi) ** 3 * _outer_sum(grid, s)
    return _finite(G, "the gradient integral")


def surface_formula_outer_integral(surface_tensor, density, sigma):
    """Closed-form surface scaling (2 pi)^3 rho^2 / (2 sqrt(pi) sigma) * S; an S
    that is not a finite real 3x3 PSD tensor raises :class:`DegenerateDimension`."""
    sigma = _scalar("sigma", sigma, 0.0, open=True)
    scale = (2.0 * np.pi) ** 3 * _density_squared(density) / (2.0 * math.sqrt(math.pi) * sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(scale * _psd("tensor", surface_tensor)[0], "the surface formula")


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
        k = _points(k)
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


def _rungs():
    """(n_r, n_t, n_p) of each refinement step: n_r radial nodes, doubling
    from 128 up to ``MAX_RADIAL_NODES``, and the ladder's n_t polar and
    2 n_t azimuthal directions, n_t growing by sqrt(2) (16, 24, 32, 48, ...)."""
    step = 0
    while (n_r := 128 << step) <= MAX_RADIAL_NODES:
        n_t = (16 if step % 2 == 0 else 24) << (step // 2)
        yield n_r, n_t, 2 * n_t
        step += 1


def _settled(K, prev):
    """Whether one refinement step changed the tensor by less than
    ``KSPACE_TOL``: relative, Frobenius, both norms taken of K / max|K|,
    since those of K overflow past ~1e154."""
    scale = np.max(np.abs(K)) or 1.0
    return np.linalg.norm((K - prev) / scale) / max(np.linalg.norm(K / scale), 1e-300) < KSPACE_TOL


def kspace_outer_integral(spec, density, sigma, *, _raster=None):
    """int exp(-k^2 sigma^2) |mu_k|^2 (k o k) dk.

    A body with an analytic form factor takes one refinement loop over
    :func:`_rungs`, whose radial nodes double from 128 up to
    ``MAX_RADIAL_NODES``, until one step changes the tensor by less than
    ``KSPACE_TOL`` (relative, Frobenius, of K / max|K| so that no norm
    overflows); :class:`QuadratureNotConverged` if no step has by the
    last rung.  The shape's ``_kspace_local`` hook picks the rule of a step:

    * the body-frame rule where it returns a local tensor (a bare sphere,
      box, circular, elliptic or gapped cylinder, or a sphere whose
      cavities are all spheres at its center).  In the local frame F the
      Gaussian and the closed-form factors of the form factor separate,
      so K = F K_local F^T with K_local diagonal.  A box is closed form
      and takes no rung; the others leave one radial integral over
      [0, KMAX_SIGMA / sigma], on the step's radial nodes;
    * the spherical ladder where it returns None: the step's radial x
      angular rule on the form factor of the body moved so that the
      host's center is the origin (|mu|^2 does not change under a
      translation, and phases taken about a far origin lose their
      precision).

    A body without one also has a solid without a closed-form field, so
    it takes the filtered raster, and its DFT route is the Parseval sum
    of that raster's power spectrum with the cell average deconvolved
    (:func:`_kspace_fft`).  The raster is
    :func:`rasterize_smoothed_density` with its default grid, or
    ``_raster``: one of the same body, density and sigma that the caller
    has already made on a grid of its choice, so one fill and one
    spectrum serve both grid oracles.

    ``density`` and ``sigma`` must be positive and finite, and so must
    density^2 and the tensor, on every route
    (:class:`DegenerateDimension`).
    """
    rho2 = _density_squared(density)
    sigma = _scalar("sigma", sigma, 0.0, open=True)
    spec = build_shape(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        if not _has_form_factor(spec):
            grid = _raster if _raster is not None else rasterize_smoothed_density(
                spec, density, sigma)
            return _finite(_kspace_fft(grid), "the k-space tensor")
        local = spec._kspace_local(sigma)
        if local is None:
            mu = form_factor(_about_center(spec))

            def rung(n_r, n_t, n_p):
                return _kspace_quadrature(mu, density, sigma, n_r, n_t, n_p)
        else:
            (factors, integrand), frame = local, spec._frame
            if integrand is None:
                return _finite(rho2 * (frame * factors) @ frame.T, "the k-space tensor")

            def rung(n_r, n_t, n_p):
                k, w = _gl(n_r, 0.0, KMAX_SIGMA / sigma)
                return rho2 * (frame * (factors * (integrand(k) @ w))) @ frame.T
        prev, n_r = None, 0
        for n_r, n_t, n_p in _rungs():
            K = _finite(rung(n_r, n_t, n_p), "the k-space tensor")
            if prev is not None and _settled(K, prev):
                return K
            prev = K
    raise QuadratureNotConverged(
        f"k-space quadrature did not reach {KSPACE_TOL} in rungs of up to {n_r} radial nodes")


def _about_center(spec):
    """The body moved so that its host's center is the origin; ``spec``
    itself if it is there already."""
    shift = np.asarray(spec.center)
    if not np.any(shift):
        return spec
    return replace(spec, center=(0.0, 0.0, 0.0), cavities=tuple(
        replace(cav, center=np.asarray(cav.center) - shift) for cav in spec.cavities))


def _kspace_fft(grid):
    """DFT route: the Parseval sum of the filtered raster's power spectrum.

    The raster's transform is the Gaussian's gain G = exp(-k^2 sigma^2 / 2)
    times the density times the transform of the supersampled fraction,
    so P k o k over D(k)^2, D the transform of the ss-point cell average,
    is the damped |mu|^2 k o k of the raw indicator: only the cell average
    is deconvolved.  D has no zeros for |k| <= pi / h.
    """
    h, ss = grid.spacing, _SUPERSAMPLE

    def deconvolution(k):
        num = np.sin(k * h / 2.0)
        den = ss * np.sin(k * h / (2.0 * ss))
        dirichlet = np.where(np.abs(k) < 1e-300, 1.0, num / np.where(den == 0, 1.0, den))
        return 1.0 / dirichlet**2

    # |mu_hat|^2 dk = |h^3 F|^2 (2 pi)^3 / (ntot h^3) = (2 pi)^3 (h^3/ntot) |F|^2
    k = _wavenumbers(grid.values.shape, h)
    return (2.0 * np.pi) ** 3 * _outer_sum(grid, k, [deconvolution(ki) for ki in k])


# ---------------------------------------------------------------------------
# full decoherence function


def _expm1i(theta):
    """e^{i theta} - 1 as 2i sin(theta/2) e^{i theta/2}, exact to rounding for small theta."""
    return 2j * np.sin(theta / 2.0) * np.exp(0.5j * theta)


def decoherence_function(grid: VoxelGrid, delta, params: CslParams):
    """Positional dephasing rate F(delta) in 1/s from the gridded field.

    F = (lambda sigma^3 / pi^{3/2} m_N^2) (2 pi)^3
        int [mu(r)^2 - mu(r) mu(r + delta)] dr.

    The shifted-field correlation is evaluated through the DFT phase
    ramp, which is exact for the sigma-smooth field at any sub-cell
    displacement.  Its sum of P (1 - cos(k . delta)) is -Re of
    the sum of P (e^{i k . delta} - 1), split by axis: the x and y phases
    are the rows of :func:`_mode_sum`, the z phases a contraction of its
    result over z, and every e^{i theta} - 1 is formed as
    2i sin(theta/2) e^{i theta/2}.  So no 1 - cos cancels:
    the result agrees with the per-mode sum of 2 sin^2(k . delta / 2) to
    rounding at any |delta|, where a per-mode 1 - cos is off by some
    1e-11 relative at 1e-3 sigma.

    A ``delta`` that is not a 3-vector of real numbers (a string, a
    complex or a NaN included), or grid values that are not finite, raise
    :class:`DegenerateDimension`; a ``delta`` longer than the grid's
    margin, or infinite, raises :class:`ShiftOutOfGrid`.
    """
    delta = _array("delta", delta, (3,), finite=False)
    # an infinite shift leaves any grid, a margin-less one included
    if np.any(np.isinf(delta)) or (grid.margin and np.linalg.norm(delta) > grid.margin):
        raise ShiftOutOfGrid(
            f"|delta| = {np.linalg.norm(delta):.3g} exceeds grid margin {grid.margin:.3g}")
    delta = _array("delta", delta, (3,))  # what is left not finite is a NaN
    pref = (params.collapse_rate * params.localization_length**3
            / (math.pi**1.5 * params.nucleon_mass**2))
    with np.errstate(over="ignore", invalid="ignore"):
        # sum P (1 - cos(a + b + c)) = -Re sum P (e^{i(a+b+c)} - 1), with
        # e^{i(a+b+c)} - 1 = (e^{ia} - 1) e^{i(b+c)} + (e^{ib} - 1) e^{ic} + (e^{ic} - 1)
        a, b, c = (k * d for k, d in zip(_wavenumbers(grid.values.shape, grid.spacing), delta))
        ea, eb, eb1 = _expm1i(a), np.exp(1j * b), _expm1i(b)
        R = _mode_sum(grid, np.stack([ea.real, ea.imag, np.ones_like(a)]),
                      np.stack([eb.real, eb.imag, eb1.real, eb1.imag, np.ones_like(b)]))
        # sums over x and y of P ((e^{ia} - 1) e^{ib} + e^{ib} - 1), and of P
        S = R[0, 0] - R[1, 1] + R[2, 2] + 1j * (R[0, 1] + R[1, 0] + R[2, 3])
        integral = -(S @ np.exp(1j * c) + R[2, 4] @ _expm1i(c)).real
    return _finite(pref * (2.0 * np.pi) ** 3 * integral, "the decoherence function")
