"""The threads of the grid oracles.

An array of 2^20 values or more is split in two: the closed-form
raster's planes, the second half on one helper thread that ends with the
call, and the transforms of the spectrum and of the filtered raster,
which take two workers.  That spectrum is built in two
passes over its z columns, so its build holds at most 0.70 of the
complex half spectrum, and cut to the ball its Gaussian leaves standing
(x pencils grouped by length, at most 0.60 of the modes of the
benchmark's sphere and plate).  A mode sum reads those blocks on the
caller's thread: each block's product is written
into its slice of one array of the held columns, whose rows are
gathered into a spectrum plane one at a time, and it keeps the bits of
the products scattered into a plane-sized array (a copy of that kernel
is kept here).  The halves depend on the array alone, so every output is
the same bit for bit on one core and on two; a raster's halves keep the
bits of one block (the mode sums' blocks are checked against dense sums
in ``test_spectrum.py``); no thread outlives a raster, an exception of
the helper's half reaches the caller, and a forked child rasters with
its parent's bits.
"""

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import held_columns
from cslsurf.csl import CslParams
from cslsurf.geometry import Box, Cylinder, EllipticCylinder, Sphere
from cslsurf.oracle import (
    decoherence_function,
    gradient_outer_integral,
    integrals,
    rasterize_smoothed_density,
    voxel,
)
from cslsurf.oracle.voxel import VoxelGrid

SIGMA = 1e-7
RHO = 1800.0
PARAMS = CslParams()
SRC = str(Path(__file__).resolve().parent.parent / "src")
DELTAS = [m * SIGMA * np.array([0.48, -0.6, 0.64]) for m in (0.01, 0.3, 4.0)]


@pytest.fixture(scope="module")
def grids():
    """The 150^3 grid of a 30 sigma sphere and the 72x270x270 grid of a plate."""
    out = {"sphere": rasterize_smoothed_density(Sphere(30 * SIGMA), RHO, SIGMA),
           "plate": rasterize_smoothed_density(Box((20 * SIGMA, 120 * SIGMA, 120 * SIGMA)),
                                               RHO, SIGMA)}
    assert out["sphere"].dims == (150, 150, 150) and out["plate"].dims == (72, 270, 270)
    return out


@pytest.mark.parametrize("body, limit", [("plate", 1.0), ("sphere", 0.375)])
def test_mode_sum_makes_no_plane_sized_array(grids, body, limit):
    # the x sums of the held columns and one gathered (ny, nz') plane: 0.73
    # MiB on the plate and 0.24 MiB on the sphere; all rows gathered at once
    # peaked past 1.0 MiB on the plate, and a (3, ny, nz') x product with
    # its complex copies at 2.0 and 0.74 MiB
    grid = grids[body]
    decoherence_function(grid, DELTAS[1], PARAMS)       # the spectrum is held
    tracemalloc.start()
    try:
        decoherence_function(grid, DELTAS[1], PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 2**20


@pytest.mark.parametrize("body", ["sphere", "plate"])
def test_held_spectrum_keeps_at_most_six_tenths_of_its_modes(grids, body):
    # the ball that the Gaussian leaves standing, in x pencils grouped by
    # length: 55.3% and 52.6% of the half spectrum's modes (66.4% and 64.0%
    # in y/z blocks; the whole spectrum was held before)
    n = grids[body].dims
    blocks = integrals._power(grids[body]).blocks
    assert len(blocks) > 1
    assert sum(b.values.size for b in blocks) <= 0.60 * n[0] * n[1] * (n[2] // 2 + 1)


def _scatter_sum(spectrum, xrows, yrows):
    """The mode sum as each block's product scattered into its (y, z)
    columns of one zeroed (m, ny nz') array, then met by the y rows."""
    xrows = spectrum.spacing**3 / math.prod(spectrum.dims) * xrows
    ny, nz = spectrum.dims[1], spectrum.dims[2] // 2 + 1
    X = np.zeros((len(xrows), ny * nz))
    for (x, _, values), columns in zip(spectrum.blocks, held_columns(spectrum)):
        X[:, columns] = xrows[:, x] @ values
    return yrows @ X.reshape(len(xrows), ny, nz)


@pytest.mark.parametrize("body", ["sphere", "plate", "sampled", "white-noise"])
def test_mode_sum_keeps_the_bits_of_the_scatter(grids, body):
    # the rows of the gradient, the DFT route and three decoherence values,
    # on the held sphere and plate (16 blocks each), a sampled body's record
    # cut below 2^20 values, and white noise, which is one block
    if body in grids:
        record = integrals._power(grids[body])
    else:
        with mock.patch.object(voxel, "_PARALLEL_SIZE", 1):
            if body == "sampled":
                record = integrals._body_spectrum(
                    EllipticCylinder(4 * SIGMA, 3 * SIGMA, 8 * SIGMA), RHO, SIGMA)
            else:
                values = RHO * np.random.default_rng(7).standard_normal((24, 20, 18))
                record = integrals._power(VoxelGrid(np.zeros(3), SIGMA / 2, values))
    assert (len(record.blocks) == 1) == (body == "white-noise")
    rows, mode_sum = [], integrals._mode_sum

    def recorded(spectrum, xrows, yrows):
        rows.append((xrows, yrows))
        return mode_sum(spectrum, xrows, yrows)

    with mock.patch.object(integrals, "_mode_sum", recorded):
        integrals._gradient(record)
        integrals._kspace_fft(record)
        for d in DELTAS:
            integrals._decoherence(record, d, PARAMS)
    assert [(len(x), len(y)) for x, y in rows] == [(3, 3), (3, 3)] + [(2, 2)] * 3
    for xrows, yrows in rows:
        got, want = mode_sum(record, xrows, yrows), _scatter_sum(record, xrows, yrows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _barred(*args):
    raise AssertionError("a mode sum reached the raster's split")


def test_mode_sum_runs_on_the_callers_thread(grids):
    # with two cores and the split barred, every mode sum of the held
    # sphere's gradient and decoherence values runs on the caller's thread,
    # starts no thread and keeps its bits
    grid = grids["sphere"]
    before = [gradient_outer_integral(grid).tobytes()]
    before += [decoherence_function(grid, d, PARAMS).hex() for d in DELTAS]
    threads, mode_sum, alive = [], integrals._mode_sum, threading.enumerate()

    def recorded(*args):
        threads.append(threading.get_ident())
        return mode_sum(*args)

    with mock.patch.object(voxel, "_cores", lambda: 2), \
            mock.patch.object(voxel, "_split", _barred), \
            mock.patch.object(integrals, "_mode_sum", recorded):
        after = [gradient_outer_integral(grid).tobytes()]
        after += [decoherence_function(grid, d, PARAMS).hex() for d in DELTAS]
    assert after == before
    assert len(threads) == 1 + len(DELTAS) and set(threads) == {threading.get_ident()}
    assert threading.enumerate() == alive


def test_spectrum_build_holds_at_most_two_thirds_of_the_transform(grids):
    # the sphere's record is built in two passes over kz, so no more than
    # two thirds of its complex half spectrum F is held at once; one whole
    # rfftn held all of F and peaked above 1.0 F
    n = grids["sphere"].dims
    nbytes = n[0] * n[1] * (n[2] // 2 + 1) * 16
    tracemalloc.start()
    try:
        integrals._blocks(integrals._parts(grids["sphere"].values), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.70 * nbytes


def test_user_threads_get_the_serial_values(grids):
    # more user threads than cores, each with its own helper, switching often
    grid = grids["sphere"]
    expected = [decoherence_function(grid, d, PARAMS) for d in DELTAS]
    results, failures = {}, []

    def work(k):
        try:
            results[k] = [decoherence_function(grid, d, PARAMS) for d in DELTAS * 4]
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert results == {k: expected * 4 for k in range(3)}


@pytest.mark.parametrize("spec", [
    Sphere(4 * SIGMA, center=(0.3 * SIGMA, -0.2 * SIGMA, 0.1 * SIGMA)),
    Box((5 * SIGMA, 7 * SIGMA, 6 * SIGMA), cavities=(Sphere(SIGMA),)),
    Cylinder(3 * SIGMA, 9 * SIGMA, axis=(1.0, 2.0, 3.0)),
    Cylinder(3 * SIGMA, 9 * SIGMA, axis="x"),
    EllipticCylinder(4 * SIGMA, 3 * SIGMA, 8 * SIGMA),
], ids=["sphere", "box-with-cavity", "tilted-cylinder", "x-axis-cylinder", "elliptic-filtered"])
def test_halves_keep_the_bits_of_one_block(spec):
    # every array split in halves, as from 2^20 values on
    one = rasterize_smoothed_density(spec, RHO, SIGMA)
    with mock.patch.object(voxel, "_PARALLEL_SIZE", 1):
        two = rasterize_smoothed_density(spec, RHO, SIGMA)
    assert _digest(two.values) == _digest(one.values)


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _raster_digest(queue):
    queue.put(_digest(rasterize_smoothed_density(Sphere(20 * SIGMA), RHO, SIGMA).values))


def _split_raster(spec, runs, density=None):
    """The raster of ``spec``, split as on two cores.  ``runs`` records, by
    thread, the x of the first plane that it took through ``_density``
    (``density`` where given), also where the raster raises."""
    real = density or voxel._density

    def recorded(solids, rho, sigma, x, y, z):
        runs.setdefault(threading.current_thread(), x.item())
        return real(solids, rho, sigma, x, y, z)

    with mock.patch.object(voxel, "_cores", lambda: 2), \
            mock.patch.object(voxel, "_density", recorded):
        return rasterize_smoothed_density(spec, RHO, SIGMA)


def _helpers(runs):
    """The threads of ``runs`` other than the caller's."""
    return [t for t in runs if t is not threading.current_thread()]


def test_split_raster_leaves_no_thread():
    # the second half runs on a helper thread that ends with the call, so
    # no thread the raster started is left alive
    alive, runs = threading.enumerate(), {}
    grid = _split_raster(Sphere(20 * SIGMA), runs)
    assert grid.values.size >= voxel._PARALLEL_SIZE
    (helper,) = _helpers(runs)
    assert runs[threading.current_thread()] == grid.origin[0]
    assert runs[helper] == grid.origin[0] + grid.spacing * (grid.dims[0] // 2)
    assert not helper.is_alive() and threading.enumerate() == alive
    assert _digest(grid.values) == _digest(
        rasterize_smoothed_density(Sphere(20 * SIGMA), RHO, SIGMA).values)


def test_helpers_exception_reaches_the_caller():
    # a plane of the second half raises on the helper; the caller's half
    # runs to its end first, and the helper is gone when the caller sees it
    spec, done, density = Sphere(20 * SIGMA), [], voxel._density
    dims, origin = voxel._grid_geometry(spec, SIGMA / 2, voxel.DEFAULT_PADDING_SIGMA * SIGMA)
    half = origin[0] + SIGMA / 2 * (dims[0] // 2)

    def failing(solids, rho, sigma, x, y, z):
        if x.item() >= half:
            raise RuntimeError("a plane of the second half")
        done.append(x.item())
        return density(solids, rho, sigma, x, y, z)

    alive, runs = threading.enumerate(), {}
    with pytest.raises(RuntimeError, match="second half"):
        _split_raster(spec, runs, failing)
    assert len(done) == dims[0] // 2
    (helper,) = _helpers(runs)
    assert not helper.is_alive() and threading.enumerate() == alive


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_rasters_with_the_parents_bits():
    # a child forked after a split raster makes the same grid, bit for bit
    runs = {}
    grid = _split_raster(Sphere(20 * SIGMA), runs)
    assert grid.values.size >= voxel._PARALLEL_SIZE and len(_helpers(runs)) == 1
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_raster_digest, args=(queue,))
    child.start()
    try:
        digest = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert digest == _digest(grid.values)


# the outputs of the threaded paths, printed as JSON with every float in hex;
# an argument of 1 runs the script on one core
OUTPUTS = """
import hashlib, json, os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {0})
import numpy as np
import cslsurf

s, rho, params = 1e-7, 1800.0, cslsurf.CslParams()
out = {"cores": len(os.sched_getaffinity(0))}
bodies = {"sphere": cslsurf.Sphere(30 * s),
          "plate": cslsurf.Box((20 * s, 120 * s, 120 * s), center=(0.1 * s, 0.3 * s, 0))}
for name, spec in bodies.items():
    grid = cslsurf.rasterize_smoothed_density(spec, rho, s)
    out[name] = hashlib.sha256(grid.values.tobytes()).hexdigest()
    out[name + " gradient"] = [x.hex() for x in cslsurf.gradient_outer_integral(grid).ravel()]
    for m in (0.01, 0.3, 4.0):
        delta = m * s * np.array([0.48, -0.6, 0.64])
        out[f"{name} F {m}"] = cslsurf.decoherence_function(grid, delta, params).hex()
cone = cslsurf.ConeCappedCylinder(20 * s, 40 * s, 1.0)
out["cone dft"] = [x.hex() for x in cslsurf.kspace_outer_integral(cone, rho, s).ravel()]
print(json.dumps(out))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
def test_outputs_do_not_depend_on_the_core_count():
    # the cone's raster (108x108x256) is filtered, and it takes the DFT route
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    runs = [json.loads(subprocess.run([sys.executable, "-c", OUTPUTS, arg], env=env,
                                      check=True, capture_output=True, text=True,
                                      timeout=300).stdout)
            for arg in ("0", "1")]
    assert runs[1].pop("cores") == 1
    runs[0].pop("cores")
    assert runs[0] == runs[1]
