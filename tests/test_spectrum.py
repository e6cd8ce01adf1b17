"""The cached power spectrum behind the mode sums and the decoherence function.

Each value content is transformed once: the spectra of the two most
recently used contents are held, an array equal bit for bit to a held
one (a grid re-read from its file, a copy) takes that spectrum without
a transform, a spectrum lives until the last of its arrays dies, and an
array that is transformed or takes a held spectrum is read-only, and so
is the array it views.
``decoherence_function`` sums 1 - cos(k . delta) over that spectrum as
separable phase contractions, checked here against the per-mode sum of
2 sin^2(k . delta / 2), which has no cancellation at small shifts.  The
gradient integral and the decoherence function both go through one
mode-sum kernel; on small random grids, singleton axes included, each
is checked against the same sum taken mode by mode
over numpy's own transform, in one block and in two halves.  A spectrum
cut to the ball its Gaussian leaves standing (the cut's threshold,
read at call time, lowered below small grids) holds the ball in x
pencils of P's own values, with their sums over x, and gives each sum
of the whole spectrum mode by mode to 1e-13, a shift along y or z
alone, which reads only the column sums, included; white noise is not
cut.  A spectrum of 2^20 values or more is built in two passes over
its z columns; its record is, block for block and bit for bit, the
record of one rfftn of the same values, and it is built once per value
content.  A grid whose axes are all even and whose values equal their
mirror image bit for bit takes the octant record, one dctn of its upper
octant: its gradient and decoherence sums match the dense per-mode sums
to 1e-12, and a grid re-read from its file takes it too; a grid one bit
off, with an odd axis, with a cavity off centre or with a tilted rod
keeps the whole record bit for bit.
"""

import gc
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import held_columns
from cslsurf.csl import CslParams
from cslsurf.geometry import (Box, ConeCappedCylinder, Cylinder, EllipticCylinder,
                              GappedCylinder, Sphere)
from cslsurf.oracle import (decoherence_function, integrals, rasterize_smoothed_density,
                            read_grid, voxel, write_grid)
from cslsurf.oracle.integrals import _body_spectrum
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

    def dense(s):
        return scale * np.array([[np.sum(ref.power * si * sj) for sj in s] for si in s])

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    delta = 10.0**log_magnitude * SIGMA * np.asarray(direction) / np.linalg.norm(direction)
    for split in (voxel._PARALLEL_SIZE, 1):
        with mock.patch.object(voxel, "_PARALLEL_SIZE", split):
            assert close(integrals.gradient_outer_integral(grid), dense(ref.k))
            assert decoherence_function(grid, delta, PARAMS) == pytest.approx(ref(delta),
                                                                             rel=1e-13)


CUT = ["sphere", "box", "tilted-cylinder", "elliptic-filtered"]


@pytest.fixture(scope="module")
def cut():
    """Each body's P and its record cut, the cut's threshold lowered below
    its grid: a sphere, a box, a tilted cylinder and the filtered raster's
    own spectrum of an elliptic cylinder (``_body_spectrum``)."""
    bodies = {"sphere": Sphere(4 * SIGMA, center=(0.3 * SIGMA, -0.2 * SIGMA, 0.1 * SIGMA)),
              "box": Box((5 * SIGMA, 7 * SIGMA, 6 * SIGMA)),
              "tilted-cylinder": Cylinder(3 * SIGMA, 9 * SIGMA, axis=(1.0, 2.0, 3.0)),
              "elliptic-filtered": EllipticCylinder(4 * SIGMA, 3 * SIGMA, 8 * SIGMA)}
    out = {}
    for name, spec in bodies.items():
        if name == "elliptic-filtered":
            whole = _body_spectrum(spec, RHO, SIGMA)
            ((_, _, P),) = whole.blocks
            P = P.reshape(*whole.dims[:2], -1)
        else:
            # the half spectrum's P, also where the record of the grid takes the octant
            grid = rasterize_smoothed_density(spec, RHO, SIGMA)
            (P,) = integrals._parts(grid.values)
            whole = integrals._Spectrum(None, None, None, grid.spacing, grid.dims, grid.margin)
        with mock.patch.object(voxel, "_PARALLEL_SIZE", 1):
            blocks, sums, place = integrals._blocks([P], whole.dims)
        record = whole._replace(blocks=blocks, sums=sums, place=place)
        assert 1 < len(record.blocks) and sum(b.values.size for b in record.blocks) < P.size
        out[name] = P, record
    return out


def _held(P, record):
    """How many times each mode of P is held by the record's blocks,
    asserting that the blocks hold P's own values."""
    flat = P.reshape(P.shape[0], -1)
    kept = np.zeros(flat.shape, dtype=int)
    for (x, _, values), columns in zip(record.blocks, held_columns(record)):
        at = np.ix_(x, columns)
        assert np.array_equal(values, flat[at])
        kept[at] += 1
    return kept.reshape(P.shape)


@pytest.mark.parametrize("body", CUT)
def test_cut_leaves_out_at_most_its_tails(cut, body):
    # the blocks hold P's own values, each mode once at most, every mode of
    # the ball |k| < r, r the least shell edge past which the tails of sum
    # P and of sum P |k|^2 are at most 2^-60 of their totals, and what they
    # leave out is at most 2^-60 of both sums
    P, record = cut[body]
    n = record.dims
    kept = _held(P, record)
    assert kept.max() == 1
    k2 = sum(k**2 for k in np.meshgrid(*(2 * np.pi * f for f in (
        np.fft.fftfreq(n[0]), np.fft.fftfreq(n[1]), np.fft.rfftfreq(n[2]))), indexing="ij"))
    shell = (np.sqrt(k2) / (2 * np.pi / max(n))).astype(int)
    tails = np.array([[np.sum((P * w)[shell >= s]) for s in range(shell.max() + 2)]
                      for w in (1.0, k2)])
    r = int(np.argmax(np.all(tails <= 2.0**-60 * tails[:, :1], axis=0)))
    assert r > 0 and np.all(kept[shell < r] == 1)
    for weight in (1.0, k2):
        assert np.sum((P * weight)[kept == 0]) <= 2.0**-60 * (1 + 1e-9) * np.sum(P * weight)


@pytest.mark.parametrize("body", CUT)
def test_column_sums_are_the_sums_of_the_held_values(cut, body):
    # each column's sum over x of what the blocks hold of it, 0 where they
    # hold nothing
    P, record = cut[body]
    held = np.where(_held(P, record) > 0, P, 0.0)
    assert np.allclose(record.sums, held.sum(axis=0), rtol=1e-15, atol=0)
    assert np.all(record.sums[~held.any(axis=0)] == 0)
    flat = record.sums.ravel()
    for (_, _, values), columns in zip(record.blocks, held_columns(record)):
        assert flat[columns].tobytes() == values.sum(axis=0).tobytes()


def _check_layout(record):
    """The blocks' column slices tile [0, held) in block order, and the gather
    map sends the held columns one to one onto [0, held) and every other
    column to the zero column at held; the map is read-only, and so are
    the slices."""
    blocks, sums, place = record[:3]
    edges = [0]
    for b in blocks:
        assert isinstance(b.columns, slice) and b.columns.step is None
        assert b.columns.start == edges[-1] < b.columns.stop
        assert b.values.shape[1] == b.columns.stop - b.columns.start
        edges.append(b.columns.stop)
        with pytest.raises(AttributeError):
            b.columns.start = 0
    held = edges[-1]
    assert place.shape == sums.shape and place.dtype == np.intp
    inside = place < held
    assert np.array_equal(np.sort(place[inside]), np.arange(held))
    assert np.all(place[~inside] == held)
    assert not place.flags.writeable
    with pytest.raises(ValueError):
        place[0, 0] = 0


@pytest.mark.parametrize("body", CUT)
def test_blocks_take_slices_of_one_column_order(cut, body):
    _check_layout(cut[body][1])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(body=st.sampled_from(CUT),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       log_magnitude=st.floats(-3.0, math.log10(4.0)))
def test_cut_spectrum_sums_match_dense_per_mode_sums(cut, body, direction, log_magnitude):
    """The blocks of a cut record against the whole P it was cut from,
    mode by mode: the gradient and the decoherence function."""
    P, record = cut[body]
    n, h = record.dims, record.spacing
    k = (2 * np.pi * np.fft.fftfreq(n[0], h)[:, None, None],
         2 * np.pi * np.fft.fftfreq(n[1], h)[None, :, None],
         2 * np.pi * np.fft.rfftfreq(n[2], h)[None, None, :])
    scale = (2 * np.pi) ** 3 * h**3 / math.prod(n)

    def dense(weight):
        return scale * np.array([[np.sum(P * weight * ki * kj) for kj in k] for ki in k])

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    assert close(integrals._gradient(record), dense(1.0))
    delta = 10.0**log_magnitude * SIGMA * np.asarray(direction) / np.linalg.norm(direction)
    phase = sum(ki * di for ki, di in zip(k, delta))
    want = PREF * scale * np.sum(P * 2.0 * np.sin(phase / 2.0) ** 2)
    assert integrals._decoherence(record, delta, PARAMS) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("body", CUT)
def test_shift_along_y_or_z_alone_reads_the_column_sums(cut, body, axis, magnitude):
    # every x row of the blocks' product is 0, so the sum is the column sums'
    P, record = cut[body]
    n, h = record.dims, record.spacing
    k = 2 * np.pi * (np.fft.fftfreq(n[1], h)[:, None] if axis == 1 else np.fft.rfftfreq(n[2], h))
    delta = np.zeros(3)
    delta[axis] = -magnitude * SIGMA
    want = PREF * (2 * np.pi) ** 3 * h**3 / math.prod(n) * np.sum(
        P * 2.0 * np.sin(k * delta[axis] / 2.0) ** 2)
    assert integrals._decoherence(record, delta, PARAMS) == pytest.approx(want, rel=1e-13)


def test_white_noise_keeps_every_mode_in_one_block():
    # no shell of a flat spectrum is negligible, so nothing is cut: the one
    # block is P itself, every x pencil whole and every column in order
    values = RHO * np.random.default_rng(7).standard_normal((24, 20, 18))
    with mock.patch.object(voxel, "_PARALLEL_SIZE", 1):
        record = integrals._power(VoxelGrid(np.zeros(3), SIGMA / 2, values))
    assert [(b.x, b.columns, b.values.shape) for b in record.blocks] == [
        (slice(None), slice(0, 200), (24, 200))]
    assert np.array_equal(record.place, np.arange(200).reshape(20, 10))
    _check_layout(record)
    assert record.sums.shape == (20, 10)
    assert np.array_equal(record.sums.ravel(), record.blocks[0].values.sum(axis=0))


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
    """The rfftn and dctn calls made while the test runs."""
    calls = []
    gc.collect()          # no dead array of an earlier test still holds a spectrum
    for name in ("rfftn", "dctn"):
        def counted(*args, _transform=getattr(integrals.sfft, name), **kwargs):
            calls.append(args[0].shape)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(integrals.sfft, name, counted)
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


def test_body_record_skips_the_grid_cache(transforms):
    # a closed-form body's record transforms its raster outside the cache:
    # it evicts neither held grid spectrum, and is the record that _power
    # makes of the same raster, bit for bit
    grids = [_blob(40), _blob(36)]
    for grid in grids:
        decoherence_function(grid, DELTA, PARAMS)
    record = _body_spectrum(Sphere(6 * SIGMA), RHO, SIGMA)
    assert len(transforms) == 3
    for grid in grids:
        decoherence_function(grid, DELTA, PARAMS)
    assert len(transforms) == 3
    want = integrals._power(rasterize_smoothed_density(Sphere(6 * SIGMA), RHO, SIGMA))
    assert _same_record(record[:3], want[:3])


def test_array_that_takes_a_held_spectrum_is_read_only():
    grid = _blob(42)
    decoherence_function(grid, DELTA, PARAMS)
    copy = grid.values.copy()
    assert copy.flags.writeable
    decoherence_function(VoxelGrid(grid.origin, grid.spacing, copy), DELTA, PARAMS)
    with pytest.raises(ValueError):
        copy[0, 0, 0] = 1.0


@pytest.mark.parametrize("held", [False, True], ids=["transformed", "joined"])
def test_array_the_values_view_is_read_only(held):
    # an edit through the array that the values view once raised nothing:
    # the next call returned the spectrum of the old bits
    values = _blob(30).values
    if held:
        decoherence_function(VoxelGrid(np.zeros(3), SIGMA / 2, values.copy()), DELTA, PARAMS)
    base = np.zeros((40,) + values.shape[1:])
    base[5:35] = values
    grid = VoxelGrid(np.zeros(3), SIGMA / 2, base[5:35])
    assert grid.values.base is base
    decoherence_function(grid, DELTA, PARAMS)
    with pytest.raises(ValueError):
        base[10:20] *= 3.0
    assert np.array_equal(grid.values, values)


def test_only_the_values_and_the_owner_of_their_memory_are_made_read_only():
    # numpy collapses .base to the array that owns the memory, so an array
    # between the two stays writeable, and so does any view of it, taken
    # before the first call or after it
    flat = np.zeros(40 * 30 * 30)
    between = flat.reshape(40, 30, 30)
    between[5:35] = _blob(30).values
    grid = VoxelGrid(np.zeros(3), SIGMA / 2, between[5:35])
    before = between[10:20]
    assert grid.values.base is flat
    decoherence_function(grid, DELTA, PARAMS)
    after = between[10:20]
    assert [a.flags.writeable for a in (grid.values, flat, between, before, after)] == [
        False, False, True, True, True]


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


# ---------------------------------------------------------------------------
# the two passes of a large spectrum against one rfftn


def _one_transform_record(values, gain=None):
    """The blocks and column sums of the record of one scipy.fft.rfftn of
    ``values``, times the filter's gain (density, gx, gy, gz) where given."""
    F = scipy.fft.rfftn(values)
    if gain is not None:
        density, gx, gy, gz = gain
        F *= (density * gx)[:, None, None]
        F *= gy[:, None]
        F *= gz
    nz = values.shape[2]
    z = np.arange(F.shape[2])
    with np.errstate(over="ignore", invalid="ignore"):
        P = (F.real**2 + F.imag**2) * np.where((z == 0) | (2 * z == nz), 1.0, 2.0)
    return integrals._blocks([P], values.shape)


def _same_record(got, want):
    """Block for block: the same x indices and column slices, and values
    equal bit for bit, and so are the column sums and the gather maps."""
    def index(i):
        return (i.start, i.stop, i.step) if isinstance(i, slice) else i.tolist()

    def same(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    (got, got_sums, got_place), (want, want_sums, want_place) = got, want
    return len(got) == len(want) and all(
        index(g.x) == index(w.x) and index(g.columns) == index(w.columns)
        and same(g.values, w.values) for g, w in zip(got, want)) and same(got_sums, want_sums) and (
        got_place is want_place is None or (got_place is not None and want_place is not None
                                            and same(got_place, want_place)))


def _sampled_record(spec, spacing=SIGMA / 2):
    """The record of a sampled body, and the one of one rfftn of its fill
    times its filter's gain: the Gaussian's over D, the transform of the
    4-point cell average, sin(x) / (4 sin(x / 4)) at x = k h / 2."""
    record = _body_spectrum(spec, RHO, SIGMA, spacing=spacing)
    dims, origin = voxel._grid_geometry(spec, spacing, voxel.DEFAULT_PADDING_SIGMA * SIGMA)
    gain = (np.exp(-0.5 * (SIGMA * k) ** 2) * np.sinc(k * spacing / (2 * np.pi) / 4)
            / np.sinc(k * spacing / (2 * np.pi)) for k in voxel._wavenumbers(dims, spacing))
    fraction = voxel.supersampled_fraction(spec, dims, origin, spacing)
    return record[:3], _one_transform_record(fraction, (RHO, *gain))


SMALL_BODIES = {"sphere": Sphere(4 * SIGMA, center=(0.3 * SIGMA, -0.2 * SIGMA, 0.1 * SIGMA)),
                "plate": Box((2 * SIGMA, 7 * SIGMA, 6 * SIGMA)),
                "sampled": EllipticCylinder(4 * SIGMA, 3 * SIGMA, 5 * SIGMA)}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(4, 13)),
       seed=st.integers(0, 2**32 - 1), smooth=st.booleans(), slab=st.integers(1, 400),
       body=st.sampled_from([None, *SMALL_BODIES]))
def test_passes_give_the_record_of_one_transform(shape, seed, smooth, slab, body):
    """Random grids (odd and even nz, the Nyquist column included; white
    noise, which is not cut, or a smooth blob, which is), the sphere, the
    plate and a sampled body with its gain, each built in two passes."""
    with mock.patch.object(voxel, "_PARALLEL_SIZE", 1), \
            mock.patch.object(integrals, "_SLAB", slab):
        if body == "sampled":
            got, want = _sampled_record(SMALL_BODIES[body])
        else:
            if body is None:
                rng = np.random.default_rng(seed)
                values = RHO * rng.standard_normal(shape)
                if smooth:
                    axes = np.meshgrid(*(np.arange(n) - rng.uniform(0, n) for n in shape),
                                       indexing="ij")
                    values = RHO * np.exp(-sum(a * a for a in axes) / rng.uniform(1.0, 8.0))
            else:
                values = rasterize_smoothed_density(SMALL_BODIES[body], RHO, SIGMA).values
            parts = integrals._parts(values)
            assert len(parts) == (2 if values.shape[2] >= 4 else 1)
            got, want = integrals._blocks(parts, values.shape), _one_transform_record(values)
    assert _same_record(got, want)


@pytest.mark.parametrize("body", ["sphere", "plate", "sampled"])
def test_large_records_are_those_of_one_transform(body):
    # 150^3 and 72x270x270 grids, and the 108x108x256 fill of a cone: at
    # 2^20 values or more, two passes, whose blocks are the one rfftn's
    if body == "sampled":
        got, want = _sampled_record(ConeCappedCylinder(20 * SIGMA, 40 * SIGMA, 1.0))
    else:
        spec = {"sphere": Sphere(30 * SIGMA), "plate": Box((20 * SIGMA, 120 * SIGMA, 120 * SIGMA))}
        values = rasterize_smoothed_density(spec[body], RHO, SIGMA).values
        assert values.shape[0] * values.shape[1] * (values.shape[2] // 2 + 1) >= 2**20
        parts = integrals._parts(values)
        assert len(parts) == 2
        got, want = integrals._blocks(parts, values.shape), _one_transform_record(values)
    assert len(got[0]) > 1
    assert _same_record(got, want)
    _check_layout(got)


def test_large_spectrum_is_built_once_per_value_content(monkeypatch, tmp_path):
    # a 128^3 grid: its half spectrum has 2^20 values or more, so it is built
    # in passes, once, whatever the number of oracle calls on it or on its twin
    builds = []
    parts = integrals._parts

    def counted(*args, **kwargs):
        builds.append(args[0].shape)
        return parts(*args, **kwargs)

    gc.collect()
    monkeypatch.setattr(integrals, "_parts", counted)
    grid = _blob(128)
    write_grid(grid, tmp_path / "blob.cslgrid")
    reread = read_grid(tmp_path / "blob.cslgrid")
    first = decoherence_function(grid, DELTA, PARAMS)
    integrals.gradient_outer_integral(grid)
    for other in (grid, reread, grid):
        assert decoherence_function(other, DELTA, PARAMS) == first
    assert builds == [(128, 128, 128)]


# ---------------------------------------------------------------------------
# the octant record of a grid that equals its mirror image


@st.composite
def mirrored_bodies(draw):
    """A centred sphere, concentric shell, box, z rod or gapped cylinder, at
    a sub-cell centre, on a grid whose axes are all even."""
    kind = draw(st.sampled_from(["sphere", "shell", "box", "z-rod", "gapped"]))
    center = tuple(draw(st.floats(-0.25, 0.25)) * SIGMA for _ in range(3))
    a, b, c = (draw(st.floats(2.0, 5.0)) * SIGMA for _ in range(3))
    if kind in ("sphere", "shell"):
        spec = Sphere(a, center=center)
        if kind == "shell":
            spec = Sphere(a, center=center, cavities=(Sphere(a * draw(st.floats(0.3, 0.8)),
                                                             center=center),))
    elif kind == "box":
        spec = Box((a, b, c), center=center)
    elif kind == "z-rod":
        spec = Cylinder(a, 2 * b, axis="z", center=center)
    else:
        spec = GappedCylinder(a, 3 * b, 2, 0.3 * b, axis=draw(st.sampled_from("xyz")),
                              center=center)
    dims, _ = voxel._grid_geometry(spec, SIGMA / 2, voxel.DEFAULT_PADDING_SIGMA * SIGMA)
    assume(all(n % 2 == 0 for n in dims))
    return spec


@settings(max_examples=30, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(spec=mirrored_bodies(),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       log_magnitude=st.floats(-2.0, math.log10(4.0)))
def test_octant_sums_match_dense_per_mode_sums(spec, direction, log_magnitude):
    # the octant route against the dense per-mode sum over numpy's rfftn of
    # the whole grid: the gradient tensor, whose off-diagonal entries are
    # exactly 0, and the decoherence function at 0.01 to 4 sigma
    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    record = integrals._record(grid)
    assert record.place is None
    ref = _Reference(grid)
    scale = (2 * np.pi) ** 3 * grid.spacing**3 / grid.values.size
    dense = scale * np.array([[np.sum(ref.power * ki * kj) for kj in ref.k] for ki in ref.k])
    G = integrals._gradient(record)
    assert np.all(G[~np.eye(3, dtype=bool)] == 0.0)
    assert np.abs(G - dense).max() <= 1e-12 * np.abs(dense).max()
    delta = 10.0**log_magnitude * SIGMA * np.asarray(direction) / np.linalg.norm(direction)
    assert integrals._decoherence(record, delta, PARAMS) == pytest.approx(ref(delta), rel=1e-12)


def test_octant_holds_the_half_spectrum_on_its_modes():
    # P of the octant is |F|^2 of the whole grid on the modes 0 <= k < n/2
    # of each axis, times 1 at k = 0 and 2 elsewhere per axis, in one dense
    # array of which each block is a column slice; F is 0 at Nyquist
    grid = rasterize_smoothed_density(Box((5 * SIGMA, 7 * SIGMA, 6 * SIGMA)), RHO, SIGMA)
    n = grid.dims
    h = [m // 2 for m in n]
    record = integrals._record(grid)
    assert record.place is None and record.sums.shape == (h[1], h[2])
    P = record.blocks[0].values.base.reshape(h)
    assert all(b.values.base is record.blocks[0].values.base for b in record.blocks)
    assert [b.columns for b in record.blocks] == [
        slice(j, min(j + integrals._COLUMNS, h[1] * h[2]))
        for j in range(0, h[1] * h[2], integrals._COLUMNS)]
    F2 = np.abs(np.fft.fftn(grid.values)) ** 2
    w = [np.where(np.arange(m) == 0, 1.0, 2.0) for m in h]
    want = F2[:h[0], :h[1], :h[2]] * w[0][:, None, None] * w[1][:, None] * w[2]
    assert np.abs(P - want).max() <= 1e-13 * want.max()
    assert np.array_equal(record.sums, P.sum(axis=0))
    assert max(F2[h[0]].max(), F2[:, h[1]].max(), F2[:, :, h[2]].max()) <= 1e-26 * F2.max()


def _symmetric_blob(shape):
    axes = [np.arange(m) - (m - 1) / 2 for m in shape]
    x, y, z = np.meshgrid(*axes, indexing="ij")
    return RHO * np.exp(-(x * x + 2 * y * y + 3 * z * z) / 40.0)


def _one_bit_off():
    values = rasterize_smoothed_density(Sphere(4 * SIGMA), RHO, SIGMA).values.copy()
    assert integrals._symmetric(values)
    values.view(np.uint64)[3, 20, 17] ^= 1
    return values


WHOLE = {
    "one-bit-off": _one_bit_off,
    "odd-axis": lambda: _symmetric_blob((20, 21, 22)),
    "cavity-1e-3-spacing-off": lambda: rasterize_smoothed_density(
        Sphere(4 * SIGMA, cavities=(Sphere(2 * SIGMA, center=(0.0, 5e-5 * SIGMA, 0.0)),)),
        RHO, SIGMA).values,
    "tilted-rod": lambda: rasterize_smoothed_density(
        Cylinder(3 * SIGMA, 9 * SIGMA, axis=(1.0, 2.0, 3.0)), RHO, SIGMA).values,
}


@pytest.mark.parametrize("cut", [False, True], ids=["one-block", "cut"])
@pytest.mark.parametrize("body", WHOLE)
def test_grid_that_is_not_an_octant_keeps_the_whole_record(body, cut):
    values = WHOLE[body]()
    if body == "odd-axis":
        assert integrals._symmetric(values)
    size = 1 if cut else voxel._PARALLEL_SIZE
    with mock.patch.object(voxel, "_PARALLEL_SIZE", size):
        record = integrals._record(VoxelGrid(np.zeros(3), SIGMA / 2, values, margin=SIGMA))
        want = integrals._blocks(integrals._parts(values), values.shape)
    assert record.place is not None and (len(record.blocks) > 1) == cut
    assert _same_record(record[:3], want)


def test_reread_grid_keeps_the_octant(transforms, tmp_path):
    grid = rasterize_smoothed_density(Box((5 * SIGMA, 7 * SIGMA, 6 * SIGMA),
                                          center=(0.3 * SIGMA, 0.0, 0.0)), RHO, SIGMA)
    write_grid(grid, tmp_path / "box.cslgrid")
    reread = read_grid(tmp_path / "box.cslgrid")
    assert integrals._record(reread).place is None
    assert decoherence_function(reread, DELTA, PARAMS) == decoherence_function(grid, DELTA, PARAMS)
    assert transforms == [tuple(n // 2 for n in grid.dims)] * 2
