"""The cached power spectrum behind the mode sums and the decoherence function.

Each value content is transformed once: the spectra of the two most
recently used contents are held, an array equal bit for bit to a held
one (a grid re-read from its file, a copy) takes that spectrum without
a transform, a spectrum lives until the last of its arrays dies, and an
array that is transformed or takes a held spectrum is read-only.
``decoherence_function`` sums 1 - cos(k . delta) over that spectrum as
separable phase contractions, checked here against the per-mode sum of
2 sin^2(k . delta / 2), which has no cancellation at small shifts.  The
gradient integral, the DFT route's weight and the decoherence function
all go through one mode-sum kernel; on small random grids, singleton
axes included, each is checked against the same sum taken mode by mode
over numpy's own transform, in one block and in two halves.
"""

import gc
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslsurf.csl import CslParams
from cslsurf.geometry import Box, Sphere
from cslsurf.oracle import (decoherence_function, integrals, rasterize_smoothed_density,
                            read_grid, voxel, write_grid)
from cslsurf.oracle.voxel import VoxelGrid

SIGMA = 1e-7
RHO = 1800.0
PARAMS = CslParams()
PREF = (PARAMS.collapse_rate * PARAMS.localization_length**3
        / (math.pi**1.5 * PARAMS.nucleon_mass**2))
MAGNITUDES = (1e-3, 1e-2, 0.1, 1.0, 4.0)   # in sigma


class _Reference:
    """Per-mode 2 sin^2(k . delta / 2) sum over numpy's own transform."""

    def __init__(self, grid):
        self.grid = grid
        n, h = grid.dims, grid.spacing
        wz = np.full(n[2] // 2 + 1, 2.0)
        wz[0] = 1.0
        if n[2] % 2 == 0:
            wz[-1] = 1.0
        self.power = np.abs(np.fft.rfftn(grid.values)) ** 2 * wz
        self.k = (2 * np.pi * np.fft.fftfreq(n[0], h)[:, None, None],
                  2 * np.pi * np.fft.fftfreq(n[1], h)[None, :, None],
                  2 * np.pi * np.fft.rfftfreq(n[2], h)[None, None, :])

    def __call__(self, delta):
        phase = sum(k * d for k, d in zip(self.k, delta))
        total = np.sum(self.power * 2.0 * np.sin(phase / 2.0) ** 2)
        return PREF * (2 * np.pi) ** 3 * self.grid.spacing**3 / self.grid.values.size * total


@pytest.fixture(scope="module")
def references():
    bodies = {"sphere": Sphere(4 * SIGMA, center=(0.3 * SIGMA, -0.2 * SIGMA, 0.1 * SIGMA)),
              "box": Box((5 * SIGMA, 7 * SIGMA, 6 * SIGMA))}
    return {name: _Reference(rasterize_smoothed_density(spec, RHO, SIGMA))
            for name, spec in bodies.items()}


@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("body", ["sphere", "box"])
def test_small_shift_accuracy(references, body, magnitude):
    ref = references[body]
    delta = magnitude * SIGMA * np.array([0.48, -0.6, 0.64])
    assert decoherence_function(ref.grid, delta, PARAMS) == pytest.approx(ref(delta), rel=1e-13)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(body=st.sampled_from(["sphere", "box"]),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       log_magnitude=st.floats(-4.0, math.log10(4.0)))
def test_small_shift_accuracy_property(references, body, direction, log_magnitude):
    ref = references[body]
    delta = 10.0**log_magnitude * SIGMA * np.asarray(direction) / np.linalg.norm(direction)
    assert decoherence_function(ref.grid, delta, PARAMS) == pytest.approx(ref(delta), rel=1e-13)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(shape=st.tuples(*[st.integers(1, 9)] * 3), seed=st.integers(0, 2**32 - 1),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       log_magnitude=st.floats(-3.0, math.log10(4.0)))
def test_mode_sums_match_dense_per_mode_sums(shape, seed, direction, log_magnitude):
    """Every sum of the one mode-sum kernel against numpy's transform, mode by
    mode, in one block and split in two halves of y rows on two threads."""
    h = SIGMA / 2
    rng = np.random.default_rng(seed)
    grid = VoxelGrid(np.zeros(3), h, RHO * rng.standard_normal(shape), margin=10 * SIGMA)
    ref = _Reference(grid)
    scale = (2 * np.pi) ** 3 * h**3 / grid.values.size

    def dense(s, g=1.0):
        return scale * np.array([[np.sum(ref.power * g * si * sj) for sj in s] for si in s])

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    gain = [np.exp(-(k * SIGMA) ** 2) / (1.0 + (k * h) ** 2) for k in ref.k]
    k1, g1 = [k.ravel() for k in ref.k], [g.ravel() for g in gain]
    delta = 10.0**log_magnitude * SIGMA * np.asarray(direction) / np.linalg.norm(direction)
    for split in (voxel._PARALLEL_SIZE, 1):
        with mock.patch.object(voxel, "_PARALLEL_SIZE", split):
            assert close(integrals.gradient_outer_integral(grid), dense(ref.k))
            assert close((2 * np.pi) ** 3 * integrals._outer_sum(grid, k1, g1),
                         dense(ref.k, gain[0] * gain[1] * gain[2]))
            assert decoherence_function(grid, delta, PARAMS) == pytest.approx(ref(delta),
                                                                             rel=1e-13)


def _blob(n=48):
    x = (np.arange(n) - n / 2) / 6.0
    r2 = x[:, None, None] ** 2 + x[None, :, None] ** 2 + x[None, None, :] ** 2
    return VoxelGrid(np.zeros(3), SIGMA / 2, RHO * np.exp(-r2 / 2.0), margin=10 * SIGMA)


DELTA = np.array([0.3, -0.1, 0.2]) * SIGMA


def test_transformed_values_are_read_only():
    grid = _blob()
    decoherence_function(grid, DELTA, PARAMS)
    with pytest.raises(ValueError):
        grid.values[0, 0, 0] = 1.0


def test_new_values_array_gives_its_own_number():
    grid = _blob()
    first = decoherence_function(grid, DELTA, PARAMS)
    new = 2.0 * grid.values
    grid.values = new
    got = decoherence_function(grid, DELTA, PARAMS)
    assert got == decoherence_function(VoxelGrid(grid.origin, grid.spacing, new.copy()),
                                       DELTA, PARAMS)
    assert got == pytest.approx(4.0 * first, rel=1e-12)


def test_cached_and_evicted_results_are_bitwise_equal():
    grid, others = _blob(), [_blob(40), _blob(36)]
    first = decoherence_function(grid, DELTA, PARAMS)
    assert decoherence_function(grid, DELTA, PARAMS) == first
    for other in others:              # two other arrays evict the grid's spectrum
        decoherence_function(other, DELTA, PARAMS)
    assert decoherence_function(grid, DELTA, PARAMS) == first


def test_dead_grid_releases_its_spectrum():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid = _blob()
        nbytes = grid.values.nbytes
        decoherence_function(grid, DELTA, PARAMS)
        held = tracemalloc.get_traced_memory()[0] - before
        del grid
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held > 1.4 * nbytes        # the values and their spectrum
    assert after < 0.05 * nbytes


def test_cold_call_memory():
    grid = _blob(64)
    nbytes = grid.values.nbytes
    tracemalloc.start()
    try:
        decoherence_function(grid, DELTA, PARAMS)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the transform's buffer is the only spectrum-sized array, and it is
    # shrunk to the half-size power spectrum that is kept
    assert peak <= 1.1 * nbytes
    assert held <= 0.55 * nbytes


def test_threads_share_the_cache():
    # more threads than held spectra and than cores, switching often
    grids = [_blob(n) for n in (40, 36, 32)]
    expected = [decoherence_function(VoxelGrid(g.origin, g.spacing, g.values.copy()),
                                     DELTA, PARAMS) for g in grids]
    failures = []

    def work(k):
        try:
            for j in range(30):
                i = (j + k) % len(grids)
                if decoherence_function(grids[i], DELTA, PARAMS) != expected[i]:
                    failures.append((k, j))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(integrals._SPECTRA) <= 2


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(body=st.sampled_from(["sphere", "box"]),
       delta=st.tuples(*[st.floats(-4.0, 4.0)] * 3))
def test_copy_gives_the_same_number_property(references, body, delta):
    grid = references[body].grid
    copy = VoxelGrid(grid.origin, grid.spacing, grid.values.copy())
    delta = SIGMA * np.asarray(delta)
    assert decoherence_function(copy, delta, PARAMS) == decoherence_function(grid, delta, PARAMS)


@pytest.fixture
def transforms(monkeypatch):
    """The rfftn calls made while the test runs."""
    calls = []
    rfftn = integrals.sfft.rfftn

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return rfftn(*args, **kwargs)

    gc.collect()          # no dead array of an earlier test still holds a spectrum
    monkeypatch.setattr(integrals.sfft, "rfftn", counted)
    return calls


def test_reread_grid_shares_the_spectrum(transforms, tmp_path):
    grid = _blob(44)
    write_grid(grid, tmp_path / "blob.cslgrid")
    reread = read_grid(tmp_path / "blob.cslgrid")
    assert reread.values is not grid.values
    first = decoherence_function(grid, DELTA, PARAMS)
    assert decoherence_function(reread, DELTA, PARAMS) == first
    assert len(transforms) == 1


def test_copy_differing_in_its_last_plane_is_transformed(transforms):
    grid = _blob(46)
    values = grid.values.copy()
    values[-1, 23, 23] += RHO
    first = decoherence_function(grid, DELTA, PARAMS)
    got = decoherence_function(VoxelGrid(grid.origin, grid.spacing, values), DELTA, PARAMS)
    assert len(transforms) == 2
    assert got != first


def test_contents_compare_bit_for_bit(transforms):
    values = np.zeros((6, 8, 10))
    values[2, 3, 4], values[5, 7, 9] = 1.0, np.nan
    signed = values.copy()
    signed[0, 0, 0] = -0.0
    for v in (values, values.copy(), signed):
        integrals._power(VoxelGrid(np.zeros(3), SIGMA / 2, v))
    # the copy's NaN has the same bits, so it shares; a -0.0 for 0.0 does not
    assert len(transforms) == 2


def test_array_that_takes_a_held_spectrum_is_read_only():
    grid = _blob(42)
    decoherence_function(grid, DELTA, PARAMS)
    copy = grid.values.copy()
    assert copy.flags.writeable
    decoherence_function(VoxelGrid(grid.origin, grid.spacing, copy), DELTA, PARAMS)
    with pytest.raises(ValueError):
        copy[0, 0, 0] = 1.0


def test_spectrum_lives_until_its_last_array_dies():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid = _blob(50)
        nbytes = grid.values.nbytes
        decoherence_function(grid, DELTA, PARAMS)
        copy = VoxelGrid(grid.origin, grid.spacing, grid.values.copy())
        decoherence_function(copy, DELTA, PARAMS)
        del grid
        gc.collect()
        one_left = tracemalloc.get_traced_memory()[0] - before
        del copy
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert one_left > 1.4 * nbytes     # the copy's values and the spectrum
    assert after < 0.05 * nbytes


def test_lookup_builds_no_full_size_temporary():
    grid = _blob(60)
    nbytes = grid.values.nbytes
    decoherence_function(grid, DELTA, PARAMS)
    equal = VoxelGrid(grid.origin, grid.spacing, grid.values.copy())
    values = grid.values.copy()
    values[-1, 30, 30] += RHO
    differs = VoxelGrid(grid.origin, grid.spacing, values)
    tracemalloc.start()
    try:
        integrals._power(equal)
        hit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        decoherence_function(differs, DELTA, PARAMS)
        miss_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a full-size boolean of the comparison alone would be nbytes / 8
    assert hit_peak < 0.05 * nbytes
    # compared through its last plane, then transformed: the cold call's bound
    assert miss_peak <= 1.1 * nbytes
