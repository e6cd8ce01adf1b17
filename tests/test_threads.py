"""The threads of the grid oracles.

An array of 2^20 values or more is split in two halves: the closed-form
raster's x-planes, a mode sum's spectrum rows, and the transforms of the
spectrum and of the filtered raster take two threads.  The halves depend
on the array's shape alone, so every output is the same bit for bit on
one core and on two, and a raster's halves keep the bits of one block
(the mode sums' halves are checked against dense sums in
``test_spectrum.py``); the pool is private, a forked child starts
without it, and a mode sum makes no array of a spectrum plane's size.
"""

import hashlib
import json
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

from cslsurf.csl import CslParams
from cslsurf.geometry import Box, Cylinder, EllipticCylinder, Sphere
from cslsurf.oracle import decoherence_function, rasterize_smoothed_density, voxel

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
    # the parent's (3, ny, nz') x product and its complex copies peaked at
    # 2.0 MiB on the plate and 0.74 MiB on the sphere
    grid = grids[body]
    decoherence_function(grid, DELTAS[1], PARAMS)       # the spectrum is held
    tracemalloc.start()
    try:
        decoherence_function(grid, DELTAS[1], PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 2**20


def test_user_threads_get_the_serial_values(grids):
    # more user threads than cores, each sharing the one pool, switching often
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
    EllipticCylinder(4 * SIGMA, 3 * SIGMA, 8 * SIGMA),
], ids=["sphere", "box-with-cavity", "tilted-cylinder", "elliptic-filtered"])
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


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_builds_its_own_pool():
    # a child that kept its parent's pool waited forever on threads it does not have
    grid = rasterize_smoothed_density(Sphere(20 * SIGMA), RHO, SIGMA)
    assert grid.values.size >= voxel._PARALLEL_SIZE
    if voxel._cores() > 1:
        assert voxel._POOL is not None
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
