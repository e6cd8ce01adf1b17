"""One fill and one transform per body for both grid oracles.

A body takes the DFT route of the k-space integral only when it also
takes the filtered raster (every shape with a closed-form field has a
form factor), and that route reads the raster's power spectrum.
``validate`` makes the body's spectrum record once and hands it to both
oracles, and ``dephasing --exact`` reads the same record.  A sampled
body's record is the filter's own spectrum, squared where it lies, so
the body is filled once and transformed once forward and never back,
and its numbers are the raster's round trip to rounding; no fill
outlives the call that made it.
"""

import gc
import json
import math
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from cslsurf.cli import _shape_from_json, main
from cslsurf.csl import CslParams
from cslsurf.geometry import (
    ConeCappedCylinder,
    EllipticCylinder,
    Mesh,
    box_mesh,
    load_mesh,
    mesh_to_stl,
)
from cslsurf.geometry import shapes
from cslsurf.oracle import (
    decoherence_function,
    gradient_outer_integral,
    kspace_outer_integral,
    rasterize_smoothed_density,
    voxel,
)
from cslsurf.oracle.integrals import _body_spectrum, _decoherence, _gradient
from cslsurf.oracle.voxel import _SUPERSAMPLE, _grid_geometry, supersampled_fraction

SIGMA = 1e-7
RHO = 1000.0

SHAPES = {
    # filtered raster, analytic form factor
    "elliptic": {"type": "elliptic_cylinder", "semi_axis_a": 3 * SIGMA,
                 "semi_axis_b": 2 * SIGMA, "length": 6 * SIGMA},
    # filtered raster, DFT route: one fill for both
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
def transforms(monkeypatch):
    """The forward and inverse real transforms made while the test runs."""
    calls = []
    for name in ("rfftn", "irfftn"):
        original = getattr(scipy.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    gc.collect()          # no dead array of an earlier test still holds a spectrum
    return calls


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
def test_validate_fills_once_and_holds_none_after(capsys, fills, transforms, box_stl, body):
    argv = ["--mesh", str(box_stl)] if body == "mesh" else ["--shape", json.dumps(SHAPES[body])]
    validate(capsys, *argv)
    assert len(fills) == 1
    # the filter's spectrum, which the gradient integral reads, and the DFT
    # route of the mesh and the cone too
    assert transforms == ["rfftn"]
    gc.collect()
    assert fills[0]() is None


@pytest.mark.parametrize("shape", [
    {"type": "sphere", "radius": 3 * SIGMA, "center": [0.1 * SIGMA, 0.0, 0.0]},
    {"type": "box", "size": [5 * SIGMA, 4 * SIGMA, 3 * SIGMA]},
    {"type": "cylinder", "radius": 2 * SIGMA, "length": 5 * SIGMA, "axis": [0.3, 0.2, 1.0]},
], ids=["sphere", "box", "cylinder"])
def test_validate_of_a_closed_form_body_is_the_gradient_of_its_raster(capsys, fills, shape):
    results = validate(capsys, "--shape", json.dumps(shape), "--density", str(RHO))
    assert fills == []
    grid = rasterize_smoothed_density(_shape_from_json(shape), RHO, SIGMA)
    assert np.array_equal(results["gradient_integral"], gradient_outer_integral(grid))


def test_validate_spacing_reaches_the_dft_route(capsys, fills, box_stl):
    h = 0.4 * SIGMA
    results = validate(capsys, "--mesh", str(box_stl), "--spacing", f"{h} m")
    assert len(fills) == 1
    assert results["grid_spacing"] == h
    spec = Mesh(mesh=load_mesh(box_stl))
    expected = kspace_outer_integral(spec, RHO, SIGMA,
                                     _spectrum=_body_spectrum(spec, RHO, SIGMA, spacing=h))
    assert np.array_equal(results["kspace_integral"], expected)


def test_validate_padding_reaches_the_dft_route(capsys, fills, box_stl):
    padding = 7 * SIGMA
    results = validate(capsys, "--mesh", str(box_stl), "--padding", f"{padding} m")
    assert len(fills) == 1
    spec = Mesh(mesh=load_mesh(box_stl))
    expected = kspace_outer_integral(spec, RHO, SIGMA,
                                     _spectrum=_body_spectrum(spec, RHO, SIGMA, padding=padding))
    assert np.array_equal(results["kspace_integral"], expected)


def box_body():
    return Mesh(mesh=box_mesh(5 * SIGMA, 4 * SIGMA, 3 * SIGMA, center=(0.13 * SIGMA, 0.0, 0.0)))


def cone_body():
    return ConeCappedCylinder(3 * SIGMA, 6 * SIGMA, math.radians(60.0))


def test_readme_composition_fills_twice_and_holds_none(fills):
    # a library caller who composes the two oracles on a sampled body fills
    # twice, one fill at a time, and holds neither afterwards
    spec = box_body()
    kspace_outer_integral(spec, RHO, SIGMA)
    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    gradient_outer_integral(grid)
    assert len(fills) == 2
    assert [ref() for ref in fills] == [None, None]


def test_spectrum_before_the_kspace_integral_fills_once(fills):
    spec = box_body()
    spectrum = _body_spectrum(spec, RHO, SIGMA)
    K = kspace_outer_integral(spec, RHO, SIGMA, _spectrum=spectrum)
    assert len(fills) == 1
    # the handed-over record gives the bits of a record of the route's own
    del spectrum
    assert np.array_equal(K, kspace_outer_integral(box_body(), RHO, SIGMA))


def test_standalone_kspace_integral_of_a_mesh_transforms_once(fills, transforms):
    kspace_outer_integral(box_body(), RHO, SIGMA)
    assert len(fills) == 1
    assert transforms == ["rfftn"]


def test_exact_dephasing_of_a_mesh_holds_no_fill_through_the_decoherence_sum(
        capsys, fills, transforms, box_stl, monkeypatch):
    held = []

    def decoherence(spectrum, *args):
        held.append([ref() for ref in fills])
        return _decoherence(spectrum, *args)

    monkeypatch.setattr("cslsurf.cli._decoherence", decoherence)
    code = main(["dephasing", "--mesh", str(box_stl), "--sigma", str(SIGMA), "--density",
                 str(RHO), "--delta", f"{SIGMA} m,0,0", "--exact"])
    assert code == 0, capsys.readouterr().err
    assert len(fills) == 1
    assert held == [[None]]
    assert transforms == ["rfftn"]


@pytest.mark.parametrize("oracle", ["gradient", "decoherence"])
def test_raster_holds_no_fill_through_gradient_or_decoherence(fills, oracle):
    grid = rasterize_smoothed_density(box_body(), RHO, SIGMA)
    assert fills[0]() is None
    if oracle == "gradient":
        gradient_outer_integral(grid)
    else:
        decoherence_function(grid, [SIGMA, 0.0, 0.0], CslParams(localization_length=SIGMA))
    assert len(fills) == 1


def test_elliptic_cylinder_keeps_no_fill(fills):
    # its k-space integral takes the form factor, so only the raster reads its fill
    spec = EllipticCylinder(3 * SIGMA, 2 * SIGMA, 6 * SIGMA)
    rasterize_smoothed_density(spec, RHO, SIGMA)
    assert len(fills) == 1
    assert fills[0]() is None


def test_cone_dft_route_fills_once_and_holds_none(fills):
    # no form factor and no closed-form field: the DFT route fills, filters
    # and transforms a raster of its own, which dies with the call
    kspace_outer_integral(cone_body(), RHO, SIGMA)
    assert len(fills) == 1
    assert fills[0]() is None


def test_a_closed_form_field_implies_a_form_factor():
    # the one rule: a body takes the DFT route only if it takes the
    # filtered raster, so the route can read that raster's spectrum
    for cls in shapes.Shape:
        assert cls._smoothed_unit is None or cls._unit_form_factor is not None, cls.__name__


def raw_indicator_parseval(spec, density, sigma):
    """(2 pi)^3 (h^3 / N) sum of w |rfftn(rho frac)|^2 G^2 / D^2 k o k over
    numpy's own transform of the supersampled raw indicator: G the
    Gaussian's gain, D the transform of the ss-point cell average."""
    h, ss = sigma / 2, _SUPERSAMPLE
    dims, origin = _grid_geometry(spec, h, 6 * sigma)
    F = np.fft.rfftn(density * supersampled_fraction(spec, dims, origin, h))
    wz = np.full(F.shape[2], 2.0)
    wz[0] = 1.0
    if dims[2] % 2 == 0:
        wz[-1] = 1.0
    k = np.meshgrid(2 * np.pi * np.fft.fftfreq(dims[0], h), 2 * np.pi * np.fft.fftfreq(dims[1], h),
                    2 * np.pi * np.fft.rfftfreq(dims[2], h), indexing="ij")
    weight = wz * np.abs(F) ** 2
    for ki in k:
        den = ss * np.sin(ki * h / (2 * ss))
        dirichlet = np.where(ki == 0, 1.0, np.sin(ki * h / 2) / np.where(ki == 0, 1.0, den))
        weight = weight * np.exp(-(ki * sigma) ** 2) / dirichlet**2
    scale = (2 * np.pi) ** 3 * h**3 / math.prod(dims)
    return scale * np.array([[np.sum(weight * ki * kj) for kj in k] for ki in k])


@st.composite
def sampled_bodies(draw):
    """A mesh box of random sides at a sub-cell offset, or a cone of
    random apex angle: bodies with neither a form factor nor a field."""
    if draw(st.booleans()):
        sides = [draw(st.floats(3.0, 8.0)) * SIGMA for _ in range(3)]
        offset = [draw(st.floats(-0.25, 0.25)) * SIGMA for _ in range(3)]
        return Mesh(mesh=box_mesh(*sides, center=offset))
    return ConeCappedCylinder(3 * SIGMA, 6 * SIGMA, draw(st.floats(0.5, 2.8)))


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(sampled_bodies())
def test_dft_route_is_the_raw_indicator_parseval_sum(spec):
    K = kspace_outer_integral(spec, RHO, SIGMA)
    want = raw_indicator_parseval(spec, RHO, SIGMA)
    assert np.abs(K - want).max() <= 1e-13 * np.abs(want).max()
    # a handed-over record gives the bits of the route's own
    assert np.array_equal(
        kspace_outer_integral(spec, RHO, SIGMA, _spectrum=_body_spectrum(spec, RHO, SIGMA)), K)


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(sampled_bodies())
def test_spectrum_route_is_the_raster_round_trip(spec):
    # the filter's own spectrum against the rfftn of the raster it inverts to:
    # the gradient tensor (the DFT route's too) and F(delta) agree to rounding
    def close(got, want):
        return np.abs(got - want).max() <= 2e-15 * np.abs(want).max()

    spectrum = _body_spectrum(spec, RHO, SIGMA)
    grid = rasterize_smoothed_density(spec, RHO, SIGMA)
    assert spectrum.dims == grid.dims and spectrum.spacing == grid.spacing
    assert spectrum.margin == grid.margin
    assert close(_gradient(spectrum), gradient_outer_integral(grid))
    params = CslParams(localization_length=SIGMA)
    for x in (0.01, 0.3, 4.0):
        delta = [x * SIGMA, -0.5 * x * SIGMA, 0.25 * x * SIGMA]
        assert close(_decoherence(spectrum, delta, params),
                     decoherence_function(grid, delta, params))
