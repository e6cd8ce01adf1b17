"""One supersampled fill per body and lattice: the filtered raster and the
DFT route of the k-space integral share it, in either order, and no fill
outlives its body, the next fill request, or the next gradient or
decoherence integral."""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from cslsurf.cli import main
from cslsurf.csl import CslParams
from cslsurf.geometry import (
    ConeCappedCylinder,
    EllipticCylinder,
    Mesh,
    Sphere,
    box_mesh,
    load_mesh,
    mesh_to_stl,
)
from cslsurf.oracle import (
    decoherence_function,
    gradient_outer_integral,
    integrals,
    kspace_outer_integral,
    rasterize_smoothed_density,
    voxel,
)

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
    """Weak references to the fractions filled while the test runs; each
    fill asserts that no earlier one is alive when it starts."""
    made = []
    fill = voxel.supersampled_fraction

    def counted(*args):
        assert all(ref() is None for ref in made), "a fill ran while an earlier one was held"
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
    assert voxel._KEPT is None


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
    first = voxel._fraction(spec, dims, origin, SIGMA / 2)
    assert not first.flags.writeable
    del first
    # a finer lattice misses: the kept fraction goes before the new fill
    # (the fills fixture checks that)
    finer = voxel._fraction(spec, dims, origin, SIGMA / 4)
    assert fills[0]() is None
    again = voxel._fraction(spec, dims, origin, SIGMA / 4)
    assert again is finer and len(fills) == 2
    assert voxel._KEPT is None
    # taken once: the next request fills afresh
    del again, finer
    voxel._fraction(spec, dims, origin, SIGMA / 4)
    assert len(fills) == 3


def box_body():
    return Mesh(mesh=box_mesh(5 * SIGMA, 4 * SIGMA, 3 * SIGMA, center=(0.13 * SIGMA, 0.0, 0.0)))


def test_readme_composition_fills_once(fills):
    spec = box_body()
    kspace_outer_integral(spec, RHO, SIGMA)
    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    gradient_outer_integral(grid)
    assert len(fills) == 1
    assert fills[0]() is None
    assert voxel._KEPT is None
    # the handed-over fill gives the bits of a fill of its own
    assert np.array_equal(grid.values, rasterize_smoothed_density(box_body(), RHO, SIGMA).values)


def test_raster_before_the_kspace_integral_fills_once(fills):
    spec = box_body()
    rasterize_smoothed_density(spec, RHO, SIGMA)
    K = kspace_outer_integral(spec, RHO, SIGMA)
    assert len(fills) == 1
    # the handed-over fill gives the bits of a fill of its own
    assert np.array_equal(K, kspace_outer_integral(box_body(), RHO, SIGMA))


def test_exact_dephasing_of_a_mesh_holds_no_fill_through_the_decoherence_function(
        capsys, fills, box_stl, monkeypatch):
    # the raster keeps its fill for a k-space request that never comes;
    # the decoherence function frees it before it takes the spectrum
    held = []
    power = integrals._power

    def spectrum(grid):
        held.append((voxel._KEPT, [ref() for ref in fills]))
        return power(grid)

    monkeypatch.setattr(integrals, "_power", spectrum)
    code = main(["dephasing", "--mesh", str(box_stl), "--sigma", str(SIGMA), "--density",
                 str(RHO), "--delta", f"{SIGMA} m,0,0", "--exact"])
    assert code == 0, capsys.readouterr().err
    assert len(fills) == 1
    assert held == [(None, [None])]


@pytest.mark.parametrize("oracle", ["gradient", "decoherence"])
def test_gradient_and_decoherence_free_a_kept_fill(fills, oracle):
    # a raster that no k-space request follows holds its fill through
    # neither integral
    spec = box_body()
    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    assert fills[0]() is not None
    if oracle == "gradient":
        gradient_outer_integral(grid)
    else:
        decoherence_function(grid, [SIGMA, 0.0, 0.0], CslParams(localization_length=SIGMA))
    assert fills[0]() is None
    assert voxel._KEPT is None


def test_elliptic_cylinder_keeps_no_fill(fills):
    # its k-space integral takes the form factor, so only the raster reads its fill
    spec = EllipticCylinder(3 * SIGMA, 2 * SIGMA, 6 * SIGMA)
    rasterize_smoothed_density(spec, RHO, SIGMA)
    assert len(fills) == 1
    assert fills[0]() is None
    assert voxel._KEPT is None


def test_cone_keeps_no_fill(fills):
    # its DFT route fills, but its raster reads its _smoothed_unit, not a fill
    spec = ConeCappedCylinder(3 * SIGMA, 6 * SIGMA, math.radians(60.0))
    kspace_outer_integral(spec, RHO, SIGMA)
    assert len(fills) == 1
    assert fills[0]() is None
    assert voxel._KEPT is None


def test_kept_fill_goes_with_its_body(fills):
    spec = box_body()
    kspace_outer_integral(spec, RHO, SIGMA)
    assert fills[0]() is not None
    del spec
    gc.collect()
    assert fills[0]() is None
    assert voxel._KEPT is None
