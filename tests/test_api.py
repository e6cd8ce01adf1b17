"""The public API: the names ``cslsurf`` exports, and the parameters of
its oracle entry points.

Growing it is a design decision, not a side effect of a change, so both
are pinned here; a new export or option must be added below on purpose.
"""

import inspect

import cslsurf

PUBLIC_NAMES = [
    "Box", "ConeCappedCylinder", "CslParams", "Cylinder", "DephasingMatrix",
    "EdgeProfile", "EllipticCylinder", "GappedCylinder", "MassProperties", "Mesh",
    "RateReport", "Sphere", "SurfacePatches", "TriangleMesh", "VoxelGrid",
    "angular_dephasing_coefficient", "axial_rotational_strength", "box_mesh",
    "build_shape", "clamp_psd", "com_heating_rate", "contains", "decoherence_function",
    "dephasing_matrix", "dephasing_prefactor", "edge_layer_factor", "form_factor",
    "gradient_outer_integral", "icosphere", "is_psd", "kspace_outer_integral",
    "load_mesh", "mass_properties", "principal_axes", "quadrature",
    "rasterize_smoothed_density", "rate_report", "rotational_heating_rate",
    "rotational_surface_tensor", "signed_distance", "smoothed_density",
    "superposition_dephasing_rate", "surface_formula_outer_integral", "surface_tensor",
    "total_heating_rate",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 45
    assert sorted(cslsurf.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(cslsurf.__all__)) == len(cslsurf.__all__)
    for name in cslsurf.__all__:
        assert hasattr(cslsurf, name), name


# the parameters of the oracle entry points, in order: a settable value is
# an option to document and test, so none comes back as a side effect
SIGNATURES = {
    "kspace_outer_integral": ["spec", "density", "sigma", "_spectrum"],
    "rasterize_smoothed_density": ["spec", "density", "sigma", "spacing", "padding",
                                   "max_voxels"],
    "gradient_outer_integral": ["grid"],
    "decoherence_function": ["grid", "delta", "params"],
    "smoothed_density": ["spec", "density", "sigma", "points"],
    "form_factor": ["spec"],
}


def test_oracle_parameters_are_pinned():
    for name, params in SIGNATURES.items():
        assert list(inspect.signature(getattr(cslsurf, name)).parameters) == params, name
    spectrum = inspect.signature(cslsurf.kspace_outer_integral).parameters["_spectrum"]
    assert spectrum.kind is inspect.Parameter.KEYWORD_ONLY and spectrum.default is None
