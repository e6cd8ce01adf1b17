"""Command-line front end.

Subcommands: ``tensors``, ``rates``, ``validate``, ``sweep``,
``dephasing``.  Configuration comes from a JSON document (--config),
inline shape JSON (--shape) or a mesh file (--mesh); flags override the
config.  Quantities accept unit suffixes ("1e-5 cm", "2 g/cm^3",
"60 deg") and are normalized to SI in the emitted report, which embeds
the fully resolved configuration for reproducibility.

Exit codes: 0 success, 1 usage or configuration error, 2 validation
tolerance failure, 3 resource cap exceeded.
"""

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .csl import (
    CslParams,
    com_heating_rate,
    dephasing_matrix,
    dephasing_prefactor,
    rate_report,
    superposition_dephasing_rate,
    total_heating_rate,
)
from .errors import (
    ConfigError,
    CslsurfError,
    GridTooLarge,
    QuadratureNotConverged,
    ResolutionOverflow,
    SpacingTooCoarse,
)
from .geometry import (
    DEFAULT_RESOLUTION,
    Mesh,
    Shape,
    TriangleMesh,
    load_mesh,
    mass_properties,
    quadrature,
)
from .geometry.shapes import _integer
from .oracle import (
    DEFAULT_MAX_VOXELS,
    decoherence_function,
    gradient_outer_integral,
    kspace_outer_integral,
    rasterize_smoothed_density,
    surface_formula_outer_integral,
)
from .tensors import (
    axial_rotational_strength,
    principal_axes,
    rotational_surface_tensor,
    surface_tensor,
)
from .units import parse_quantity, parse_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_RESOURCE = 3

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _type_name(cls):
    """JSON name of a shape class: ConeCappedCylinder -> cone_capped_cylinder."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()


_SHAPE_TYPES = {_type_name(cls): cls for cls in Shape}


def _mesh_from_file(path, mesh_files):
    """Load a mesh shape and note its file path and SHA-256 in ``mesh_files``."""
    if not isinstance(path, str):
        raise ConfigError(f"a mesh path must be a string, got {path!r}")
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    spec = Mesh(mesh=load_mesh(path))
    mesh_files[spec.mesh] = {"path": str(path), "sha256": digest}
    return spec


def _field_from_json(fld, value, mesh_files):
    if fld.name == "cavities":
        if not isinstance(value, list):
            raise ConfigError(f"cavities must be a list of shape specs, got {value!r}")
        return tuple(_shape_from_json(c, mesh_files) for c in value)
    unit = fld.metadata["unit"]
    if unit is None:
        return value  # e.g. an axis name or components, canonicalised by the shape
    if fld.type is tuple:
        return tuple(parse_vector(value, unit))
    return parse_quantity(value, unit)


def _shape_from_json(doc, mesh_files=None):
    if not isinstance(doc, dict) or not isinstance(doc.get("type"), str):
        raise ConfigError(f"shape spec must be an object with a string 'type': {doc!r}")
    mesh_files = {} if mesh_files is None else mesh_files
    kind = doc["type"].lower()
    if kind == "mesh":
        if "path" not in doc:
            raise ConfigError("mesh shape needs a 'path'")
        return _mesh_from_file(doc["path"], mesh_files)
    cls = _SHAPE_TYPES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown shape type {doc['type']!r}")
    flds = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        if key == "type":
            continue
        if key not in flds:
            raise ConfigError(f"unknown field {key!r} for shape {kind!r}")
        kwargs[key] = _field_from_json(flds[key], value, mesh_files)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad shape spec: {exc}") from None


def _shape_to_json(spec, mesh_files=None):
    doc = {"type": _type_name(type(spec))}
    for fld in dataclasses.fields(spec):
        val = getattr(spec, fld.name)
        if isinstance(val, TriangleMesh):
            doc.update(vertices=len(val.vertices), faces=len(val.faces),
                       **(mesh_files or {}).get(val, {}))
        elif fld.name == "cavities":
            if val:
                doc["cavities"] = [_shape_to_json(c, mesh_files) for c in val]
        else:
            doc[fld.name] = list(val) if isinstance(val, tuple) else val
    return doc


def _first_given(*values):
    return next(v for v in values if v is not None)


def _json(text, source):
    """Parse a str, or UTF-8 bytes, as JSON; a ValueError (not UTF-8, not
    JSON, an integer past the digit limit) is a ConfigError naming ``source``."""
    try:
        return json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from None


def _resolve(args):
    """Merge config file and flags into (shape, density, params, options)."""
    cfg = {}
    if args.config:
        with open(args.config, "rb") as fh:
            cfg = _json(fh.read(), f"config {args.config}")
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    if getattr(args, "shape", None):
        cfg["shape"] = _json(args.shape, "--shape")
    if getattr(args, "mesh", None):
        cfg["mesh"] = args.mesh
    if "shape" in cfg and "mesh" in cfg:
        raise ConfigError("give exactly one shape source (shape or mesh), not both")
    mesh_files = {}
    if "shape" in cfg:
        shape = _shape_from_json(cfg["shape"], mesh_files)
    elif "mesh" in cfg:
        shape = _mesh_from_file(cfg["mesh"], mesh_files)
    else:
        raise ConfigError("no shape given (use --shape, --mesh, or a config file)")

    density = args.density if args.density is not None else cfg.get("density")
    density = None if density is None else parse_quantity(density, "density")

    pdoc = cfg.get("params", {})
    if not isinstance(pdoc, dict):
        raise ConfigError(f"params must be an object, got {pdoc!r}")
    flags = {"collapse_rate": args.collapse_rate, "localization_length": args.sigma}
    pdoc = {**pdoc, **{k: v for k, v in flags.items() if v is not None}}
    flds = dataclasses.fields(CslParams)
    unknown = set(pdoc) - {f.name for f in flds}
    if unknown:
        raise ConfigError(f"unknown CSL parameter(s) {sorted(unknown)}")
    params = CslParams(**{f.name: parse_quantity(pdoc[f.name], f.metadata["unit"])
                          for f in flds if f.name in pdoc})

    resolution = _first_given(args.resolution, cfg.get("resolution"), DEFAULT_RESOLUTION)
    resolution = _integer("resolution", parse_quantity(resolution, "dimensionless"), ConfigError)
    if resolution < 1:
        raise ConfigError(f"resolution must be at least 1, got {resolution}")
    if getattr(args, "max_voxels", 1) < 1:
        raise ConfigError(f"max voxels must be at least 1, got {args.max_voxels}")
    fmt = _first_given(args.format, cfg.get("format"), "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
    options = {
        "resolution": resolution,
        "format": fmt,
        "config": cfg,
        "mesh_files": mesh_files,
    }
    return shape, density, params, options


def _report(command, shape, density, params, options, results, extra=None):
    """The report: package version, command, fully resolved config
    (plus the command's ``extra`` settings) and results."""
    config = {
        "shape": _shape_to_json(shape, options["mesh_files"]),
        "density": density,
        "params": dataclasses.asdict(params),
        "resolution": options["resolution"],
        **(extra or {}),
    }
    return {"version": __version__, "command": command, "config": config, "results": results}


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, rows)
    elif isinstance(obj, list) and obj and isinstance(obj[0], (list, int, float)):
        rows.append((prefix, json.dumps(obj)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _emit(report, options, out_path, table=None):
    """Write the report as JSON, or as CSV when requested."""
    if options["format"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if table is not None:
            writer.writerows([table["columns"], *table["rows"]])
        else:
            rows = []
            _flatten("", _jsonify(report), rows)
            writer.writerow(["key", "value"])
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _body_tensors(shape, resolution, origin=None):
    patches = quadrature(shape, resolution=resolution)
    props = mass_properties(shape, 1.0)  # geometric part only
    origin = props.centroid if origin is None else np.asarray(origin, dtype=float)
    s = surface_tensor(patches)
    s_rot = rotational_surface_tensor(patches, origin)
    return patches, props, s, s_rot, origin


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tensors(args):
    shape, density, params, options = _resolve(args)
    origin = parse_vector(args.origin, "length") if args.origin else None
    patches, geo, s, s_rot, origin = _body_tensors(shape, options["resolution"], origin)
    vals, vecs = principal_axes(geo.inertia)
    results = {
        "area": patches.total_area,
        "volume": geo.volume,
        "centroid": geo.centroid,
        "surface_tensor": s,
        "rotational_surface_tensor": s_rot,
        "rotational_origin": origin,
        "inertia_per_density": geo.inertia,
        "inertia_principal_moments_per_density": vals,
        "inertia_principal_axes": vecs.T,
        "patch_count": len(patches),
    }
    if density is not None:
        mp = mass_properties(shape, density)
        results["mass"] = mp.mass
        results["inertia"] = mp.inertia
    _emit(_report("tensors", shape, density, params, options, results), options, args.out)
    return EXIT_OK


def _cmd_rates(args):
    shape, density, params, options = _resolve(args)
    if density is None:
        raise ConfigError("rates require --density")
    patches, _, s, s_rot, origin = _body_tensors(shape, options["resolution"])
    props = mass_properties(shape, density)
    rep = rate_report(s, s_rot, props, density, params,
                      inertia_convention=args.inertia_convention)
    results = {
        "dephasing_matrix": rep.dephasing.matrix,
        "angular_dephasing_coefficients": rep.angular_coefficients,
        "angular_dephasing_axes": rep.angular_axes.T,
        "com_heating_watts": rep.com_heating,
        "total_heating_watts": rep.total_heating,
        "rotational_heating_watts": rep.rotational_heating,
        "com_heating_fraction": rep.com_fraction,
        "mass": props.mass,
        "area": props.area,
        "volume": props.volume,
    }
    report = _report("rates", shape, density, params, options, results,
                     {"inertia_convention": args.inertia_convention})
    _emit(report, options, args.out)
    return EXIT_OK


def _cmd_validate(args):
    shape, density, params, options = _resolve(args)
    tol = parse_quantity(_first_given(args.tolerance, options["config"].get("tolerance"), 0.01),
                         "dimensionless")
    if not (tol >= 0.0):
        raise ConfigError(f"tolerance must not be negative, got {tol}")
    if density is None:
        density = 1000.0  # cancels in every relative comparison
    sigma = params.localization_length
    spacing = parse_quantity(args.spacing, "length") if args.spacing else None
    padding = parse_quantity(args.padding, "length") if args.padding else None
    patches = quadrature(shape, resolution=options["resolution"])
    s = surface_tensor(patches)
    surf = surface_formula_outer_integral(s, density, sigma)
    # the raster first, so its grid check runs before a k-space ladder that
    # may take seconds, and a DFT route reads its spectrum
    grid = rasterize_smoothed_density(
        shape, density, sigma, spacing=spacing, padding=padding,
        max_voxels=args.max_voxels,
    )
    grad = gradient_outer_integral(grid)
    grid_dims, resolved = list(grid.dims), {"spacing": grid.spacing, "padding": grid.margin}
    kint = kspace_outer_integral(shape, density, sigma, _raster=grid)

    def rel(a, b):
        return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b)))

    pairs = {
        "gradient_vs_kspace": rel(grad, kint),
        "surface_vs_gradient": rel(surf, grad),
        "surface_vs_kspace": rel(surf, kint),
    }
    passed = all(v <= tol for v in pairs.values())
    results = {
        "surface_formula": surf,
        "gradient_integral": grad,
        "kspace_integral": kint,
        "pairwise_relative_errors": pairs,
        "tolerance": tol,
        "grid_dims": grid_dims,
        "grid_spacing": resolved["spacing"],
        "passed": passed,
    }
    report = _report("validate", shape, density, params, options, results, resolved)
    table = {
        "columns": ["pair", "relative_error", "tolerance", "passed"],
        "rows": [[k, v, tol, v <= tol] for k, v in pairs.items()],
    }
    _emit(report, options, args.out, table=table)
    return EXIT_OK if passed else EXIT_TOLERANCE


#: sweep variable -> (shape field it sets, dimension of its values)
_SWEEPS = {
    "L": ("length", "length"),
    "theta": ("apex_angle", "angle"),
    "N": ("gap_count", "dimensionless"),
    "e": ("semi_axis_b", "dimensionless"),
    "R": ("radius", "length"),
}


def _sweep_shape(base, variable, value):
    name = _SWEEPS[variable][0]
    if name not in {f.name for f in dataclasses.fields(base)}:
        raise ConfigError(f"cannot sweep {variable} on {type(base).__name__}")
    if variable == "e":  # eccentricity at fixed semi-axis a
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"eccentricity e must be in [0, 1), got {value}")
        value = base.semi_axis_a * math.sqrt(1.0 - value**2)
    return dataclasses.replace(base, **{name: value})


def _cmd_sweep(args):
    shape, density, params, options = _resolve(args)
    sweep_cfg = options["config"].get("sweep", {})
    if not isinstance(sweep_cfg, dict):
        raise ConfigError(f"sweep must be an object, got {sweep_cfg!r}")
    variable = args.variable or sweep_cfg.get("variable")
    values = args.values or sweep_cfg.get("values")
    if not variable or not values:
        raise ConfigError("sweep needs a variable and values")
    values = values.split(",") if isinstance(values, str) else values
    if not isinstance(values, list):
        raise ConfigError(f"sweep values must be a list or a comma-separated string, got {values!r}")
    if not isinstance(variable, str) or variable not in _SWEEPS:
        raise ConfigError(f"unknown sweep variable {variable!r} (use {tuple(_SWEEPS)})")
    values = [parse_quantity(v, _SWEEPS[variable][1]) for v in values]

    axis = np.asarray(getattr(shape, "axis", (1.0, 0.0, 0.0)), dtype=float)
    columns = ["value", "area", "volume", "s_axis", "s_xx", "s_yy", "s_zz", "srot_axis"]
    if density is not None:
        columns += ["lambda_axis", "com_heating_watts", "total_heating_watts"]
    rows = []
    for value in values:
        spec = _sweep_shape(shape, variable, value)
        patches, geo, s, s_rot, origin = _body_tensors(spec, options["resolution"])
        row = [
            value,
            patches.total_area,
            geo.volume,
            float(axis @ s @ axis),
            s[0, 0], s[1, 1], s[2, 2],
            axial_rotational_strength(patches, origin, axis),
        ]
        if density is not None:
            mass = geo.volume * density
            row += [
                dephasing_prefactor(density, params) * row[3],
                com_heating_rate(patches.total_area, mass, density, params),
                total_heating_rate(mass, params),
            ]
        rows.append(row)
    table = {"columns": columns, "rows": rows}
    report = _report("sweep", shape, density, params, options, table,
                     {"sweep": {"variable": variable, "values": values}})
    _emit(report, options, args.out, table=table)
    return EXIT_OK


def _cmd_dephasing(args):
    shape, density, params, options = _resolve(args)
    if density is None:
        raise ConfigError("dephasing requires --density")
    delta_doc = args.delta or options["config"].get("delta")
    if delta_doc is None:
        raise ConfigError("dephasing requires --delta")
    delta = np.asarray(parse_vector(delta_doc, "length"), dtype=float)
    patches, _, s, s_rot, origin = _body_tensors(shape, options["resolution"])
    dm = dephasing_matrix(s, density, params)
    sep = float(np.linalg.norm(delta))
    sigma = params.localization_length
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rate = superposition_dephasing_rate(dm, delta)
    warned = any(issubclass(w.category, UserWarning) for w in caught)
    results = {
        "delta": delta,
        "delta_over_sigma": sep / sigma,
        "dephasing_matrix": dm.matrix,
        "rate_per_second": rate,
        "quadratic_regime_warning": warned,
    }
    if args.exact:
        grid = rasterize_smoothed_density(shape, density, sigma,
                                          max_voxels=args.max_voxels)
        exact = decoherence_function(grid, delta, params)
        results["exact_rate_per_second"] = exact
        results["quadratic_vs_exact_relative"] = (
            abs(rate - exact) / exact if exact else 0.0
        )
    report = _report("dephasing", shape, density, params, options, results,
                     {"delta": list(delta)})
    _emit(report, options, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--shape", help="inline shape JSON")
    sub.add_argument("--mesh", help="STL or OBJ file")
    sub.add_argument("--density", help="material density (e.g. '2 g/cm^3')")
    sub.add_argument("--lambda", dest="collapse_rate", help="collapse rate (1/s)")
    sub.add_argument("--sigma", help="localization length (e.g. '1e-5 cm')")
    sub.add_argument("--resolution", type=int, help="patches per characteristic length")
    sub.add_argument("--format", choices=("json", "csv"))
    sub.add_argument("--out", help="write the report here instead of stdout")


@functools.cache
def build_parser():
    """The command-line parser, built once per process on the first call:
    each parse fills a new namespace, so no call sees another's flags."""
    parser = _Parser(prog="cslsurf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"cslsurf {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("tensors", help="surface tensors and mass properties")
    _add_common(p)
    p.add_argument("--origin", help="override origin for the rotational tensor")
    p.set_defaults(func=_cmd_tensors)

    p = subs.add_parser("rates", help="dephasing matrix and heating rates")
    _add_common(p)
    p.add_argument("--inertia-convention", choices=("standard", "second_moment"),
                   default="standard")
    p.set_defaults(func=_cmd_rates)

    p = subs.add_parser("validate", help="cross-check surface formula against oracles")
    _add_common(p)
    p.add_argument("--spacing", help="voxel spacing (default sigma/2)")
    p.add_argument("--padding", help="grid padding (default 6 sigma)")
    p.add_argument("--max-voxels", type=int, default=DEFAULT_MAX_VOXELS)
    p.add_argument("--tolerance", type=float,
                   help="largest pairwise relative error that passes (default 0.01)")
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("sweep", help="parameter sweeps of the tensor outputs")
    _add_common(p)
    p.add_argument("--variable", choices=tuple(_SWEEPS))
    p.add_argument("--values", help="comma-separated parameter values")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("dephasing", help="superposition dephasing rate")
    _add_common(p)
    p.add_argument("--delta", help="separation vector, e.g. '1e-9 m,0,0'")
    p.add_argument("--exact", action="store_true",
                   help="also evaluate the full decoherence function on a grid")
    p.add_argument("--max-voxels", type=int, default=DEFAULT_MAX_VOXELS)
    p.set_defaults(func=_cmd_dephasing)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (GridTooLarge, ResolutionOverflow, SpacingTooCoarse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except QuadratureNotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (CslsurfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
