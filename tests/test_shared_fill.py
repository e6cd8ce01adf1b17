"""One supersampled fill per body in ``validate``: the filtered raster and
the DFT route of the k-space integral share it, and none outlives the
command."""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from cslsurf.cli import main
from cslsurf.geometry import Mesh, Sphere, box_mesh, load_mesh, mesh_to_stl
from cslsurf.oracle import kspace_outer_integral, voxel

SIGMA = 1e-7
RHO = 1000.0

SHAPES = {
    # filtered raster, analytic form factor
    "elliptic": {"type": "elliptic_cylinder", "semi_axis_a": 3 * SIGMA,
                 "semi_axis_b": 2 * SIGMA, "length": 6 * SIGMA},
    # signed-distance raster, DFT route
    "cone": {"type": "cone_capped_cylinder", "radius": 3 * SIGMA, "length": 6 * SIGMA,
             "apex_angle": math.radians(60.0)},
}


@pytest.fixture
def fills(monkeypatch):
    """Weak references to the fractions filled while the test runs."""
    made = []
    fill = voxel.supersampled_fraction

    def counted(*args):
        frac = fill(*args)
        made.append(weakref.ref(frac))
        return frac

    monkeypatch.setattr(voxel, "supersampled_fraction", counted)
    return made


@pytest.fixture
def box_stl(tmp_path):
    path = tmp_path / "box.stl"
    path.write_bytes(mesh_to_stl(box_mesh(5 * SIGMA, 4 * SIGMA, 3 * SIGMA,
                                          center=(0.13 * SIGMA, -0.21 * SIGMA, 0.07 * SIGMA))))
    return path


def validate(capsys, *argv):
    code = main(["validate", "--sigma", str(SIGMA), "--tolerance", "1", *argv])
    assert code == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)["results"]


@pytest.mark.parametrize("body", ["mesh", *SHAPES])
def test_validate_fills_once_and_holds_none_after(capsys, fills, box_stl, body):
    argv = ["--mesh", str(box_stl)] if body == "mesh" else ["--shape", json.dumps(SHAPES[body])]
    validate(capsys, *argv)
    assert len(fills) == 1
    gc.collect()
    assert fills[0]() is None
    assert voxel._SHARED_FILL.get() is None


def test_validate_spacing_reaches_the_dft_route(capsys, fills, box_stl):
    h = 0.4 * SIGMA
    results = validate(capsys, "--mesh", str(box_stl), "--spacing", f"{h} m")
    assert len(fills) == 1
    assert results["grid_spacing"] == h
    expected = kspace_outer_integral(Mesh(mesh=load_mesh(box_stl)), RHO, SIGMA, spacing=h)
    assert np.array_equal(results["kspace_integral"], expected)


def test_validate_padding_reaches_the_dft_route(capsys, fills, box_stl):
    padding = 7 * SIGMA
    results = validate(capsys, "--mesh", str(box_stl), "--padding", f"{padding} m")
    assert len(fills) == 1
    expected = kspace_outer_integral(Mesh(mesh=load_mesh(box_stl)), RHO, SIGMA, padding=padding)
    assert np.array_equal(results["kspace_integral"], expected)


def test_analytic_ladder_ignores_padding():
    spec = Sphere(3 * SIGMA)
    assert np.array_equal(kspace_outer_integral(spec, RHO, SIGMA, padding=7 * SIGMA),
                          kspace_outer_integral(spec, RHO, SIGMA))


def test_other_lattice_refills_and_releases_the_held_one(fills):
    spec = Mesh(mesh=box_mesh(4 * SIGMA, 4 * SIGMA, 4 * SIGMA))
    dims, origin = voxel._grid_geometry(spec, SIGMA / 2, 6 * SIGMA)
    with voxel.shared_fill(spec):
        first = voxel._fraction(spec, dims, origin, SIGMA / 2)
        assert not first.flags.writeable
        del first
        # a finer lattice misses: the held fraction goes before the new fill
        finer = voxel._fraction(spec, dims, origin, SIGMA / 4)
        assert fills[0]() is None
        again = voxel._fraction(spec, dims, origin, SIGMA / 4)
        assert again is finer and len(fills) == 2
        # taken once: the next request fills afresh
        assert voxel._fraction(spec, dims, origin, SIGMA / 4) is not finer
