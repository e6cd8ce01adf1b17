"""Command-line front end.

Subcommands: ``tensors``, ``rates``, ``validate``, ``sweep``,
``dephasing``.  Configuration comes from a JSON document (--config),
inline shape JSON (--shape) or a mesh file (--mesh); each setting is a
flag and a config key of the same name, and the flag wins.  Quantities
take unit suffixes ("1e-5 cm", "2 g/cm^3", "60 deg"); the report holds
them in SI, and its config, passed back with --config, reproduces it.

Exit codes: 0 success, 1 usage or configuration error, 2 validation
tolerance failure, 3 resource cap exceeded.
"""

import argparse
import collections
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
from .geometry.mesh import _path_format
from .geometry.patches import _scalar
from .geometry.shapes import _has_form_factor
from .oracle import (
    DEFAULT_MAX_VOXELS,
    kspace_outer_integral,
    surface_formula_outer_integral,
)
from .oracle.integrals import _body_spectrum, _decoherence, _gradient, _on_octant
from .oracle.voxel import DEFAULT_PADDING_SIGMA
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
    """Load a mesh file and note its path and SHA-256 in ``mesh_files``."""
    if not isinstance(path, str):
        raise ConfigError(f"a mesh path must be a string, got {path!r}")
    data = Path(path).read_bytes()  # one read: the bytes hashed are the bytes parsed
    mesh = load_mesh(data, _path_format(path))
    mesh_files[mesh] = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return mesh


def _field_from_json(fld, value, mesh_files):
    if fld.name == "mesh":
        return _mesh_from_file(value, mesh_files)
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


#: what a report records of a mesh file; on read-back each must match the file
_MESH_RECORD = ("vertices", "faces", "sha256")


def _shape_from_json(doc, mesh_files=None):
    if not isinstance(doc, dict) or not isinstance(doc.get("type"), str):
        raise ConfigError(f"shape spec must be an object with a string 'type': {doc!r}")
    mesh_files = {} if mesh_files is None else mesh_files
    kind = doc["type"].lower()
    cls = _SHAPE_TYPES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown shape type {doc['type']!r}")
    if cls is Mesh and "path" not in doc:
        raise ConfigError("mesh shape needs a 'path'")
    # a mesh's file path is the JSON name of its ``mesh`` field
    flds = {"path" if f.name == "mesh" else f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        if key == "type" or (cls is Mesh and key in _MESH_RECORD):
            continue
        if key not in flds:
            raise ConfigError(f"unknown field {key!r} for shape {kind!r}")
        kwargs[flds[key].name] = _field_from_json(flds[key], value, mesh_files)
    try:
        spec = cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad shape spec: {exc}") from None
    if cls is Mesh:
        found = _shape_to_json(spec, mesh_files)
        for key in _MESH_RECORD:
            if key in doc and doc[key] != found[key]:
                raise ConfigError(f"mesh file {found['path']} has {key} {found[key]!r}, "
                                  f"not {doc[key]!r} as the config says")
    return spec


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


def _json(text, source):
    """Parse a str, or UTF-8 bytes, as JSON; a ValueError (not UTF-8, not
    JSON, an integer past the digit limit) is a ConfigError naming ``source``."""
    try:
        return json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# settings: each is a flag and a config key of the same name


def _quantity(dimension, low=-math.inf, integer=False):
    """A setting's parser: a finite quantity of ``dimension``, an integer if
    asked, not below ``low``."""
    def parse(name, value):
        return _scalar(name, parse_quantity(value, dimension), low, integer=integer,
                       error=ConfigError)
    return parse


def _vector(dimension):
    return lambda name, value: parse_vector(value, dimension)


def _one_of(*choices):
    def parse(name, value):
        # types too: 1 == True, but 1 is not a switch value
        if (type(value), value) not in [(type(c), c) for c in choices]:
            raise ConfigError(f"{name.replace('_', ' ')} must be one of {choices}, got {value!r}")
        return value
    return parse


def _list(name, value):
    values = value.split(",") if isinstance(value, str) else value
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep values must be a non-empty list or a comma-separated string, "
                          f"got {value!r}")
    return values


#: sweep variable -> (shape field it sets, dimension of its values)
_SWEEPS = {"L": ("length", "length"), "theta": ("apex_angle", "angle"),
           "N": ("gap_count", "dimensionless"), "e": ("semi_axis_b", "dimensionless"),
           "R": ("radius", "length")}

_Setting = collections.namedtuple("_Setting", "parse defaults help")
_ALL = ("tensors", "rates", "validate", "sweep", "dephasing")
_COUNT = _quantity("dimensionless", 1, integer=True)
_REQUIRED = object()  # a ``defaults`` value: the command needs the setting

#: each setting is a flag --name (dashes for underscores; a switch if its
#: default is False) and a config key name, taken by the commands that its
#: ``defaults`` maps to their default (_REQUIRED, or a function of sigma).
#: A run takes the flag, else the key, else the default, and its report
#: echoes each setting as the run used it
_SETTINGS = {
    "density": _Setting(_quantity("density"),
                        {**dict.fromkeys(_ALL), "rates": _REQUIRED, "validate": 1000.0,
                         "dephasing": _REQUIRED},
                        "material density (e.g. '2 g/cm^3')"),
    "resolution": _Setting(_COUNT, dict.fromkeys(_ALL, DEFAULT_RESOLUTION),
                           "patches per characteristic length"),
    "format": _Setting(_one_of("json", "csv"), dict.fromkeys(_ALL, "json"),
                       "report format: json or csv"),
    "origin": _Setting(_vector("length"), {"tensors": None}, "rotational tensor origin"),
    "tolerance": _Setting(_quantity("dimensionless", 0), {"validate": 0.01}, "max relative error"),
    "spacing": _Setting(_quantity("length"), {"validate": lambda s: s / 2.0},
                        "voxel spacing; default sigma/2"),
    "padding": _Setting(_quantity("length"), {"validate": lambda s: DEFAULT_PADDING_SIGMA * s},
                        "grid padding; default 6 sigma"),
    "max_voxels": _Setting(_COUNT, dict.fromkeys(("validate", "dephasing"), DEFAULT_MAX_VOXELS),
                           "grid voxel cap"),
    "variable": _Setting(_one_of(*_SWEEPS), {"sweep": _REQUIRED}, "swept: " + ", ".join(_SWEEPS)),
    "values": _Setting(_list, {"sweep": _REQUIRED}, "comma-separated parameter values"),
    "delta": _Setting(_vector("length"), {"dephasing": _REQUIRED}, "separation, e.g. '1e-9 m,0,0'"),
    "exact": _Setting(_one_of(False, True), {"dephasing": False}, "also the exact rate on a grid"),
}
#: the settings that a config holds, and a report echoes, in a "sweep" block
_SWEPT = ("variable", "values")
_CONFIG_KEYS = {"shape", "mesh", "params", "sweep", *_SETTINGS} - set(_SWEPT)


def _resolve(args):
    """Merge config file and flags into (shape, params, options): ``options``
    holds every setting of the command, parsed, and the mesh files read."""
    cfg = {}
    if args.config:
        with open(args.config, "rb") as fh:
            cfg = _json(fh.read(), f"config {args.config}")
        if not isinstance(cfg, dict):
            raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)}")
    if args.shape:
        cfg["shape"] = _json(args.shape, "--shape")
    if args.mesh:
        cfg["mesh"] = args.mesh
    if "shape" in cfg and "mesh" in cfg:
        raise ConfigError("give exactly one shape source (shape or mesh), not both")
    if "mesh" in cfg:
        cfg["shape"] = {"type": "mesh", "path": cfg["mesh"]}
    if "shape" not in cfg:
        raise ConfigError("no shape given (use --shape, --mesh, or a config file)")
    mesh_files = {}
    shape = _shape_from_json(cfg["shape"], mesh_files)

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

    block = cfg.get("sweep", {}) if args.command == "sweep" else {}
    if not isinstance(block, dict) or set(block) - set(_SWEPT):
        raise ConfigError(f"sweep must be an object with keys {_SWEPT}, got {block!r}")
    options = {"mesh_files": mesh_files}
    for name, setting in _SETTINGS.items():
        if args.command in setting.defaults:
            value = getattr(args, name)
            if value is None:
                value = (block if name in _SWEPT else cfg).get(name)
            default = setting.defaults[args.command]
            if value is None and default is _REQUIRED:
                raise ConfigError(f"{args.command} requires --{name.replace('_', '-')}")
            if value is None and callable(default):
                default = default(params.localization_length)
            options[name] = default if value is None else setting.parse(name, value)
    if "values" in options:  # quantities of the swept variable's dimension
        dimension = _SWEEPS[options["variable"]][1]
        options["values"] = [parse_quantity(v, dimension) for v in options["values"]]
    return shape, params, options


def _report(command, shape, params, options, results):
    """The report: package version, command, fully resolved config (every
    setting of the command, as the run used it) and results."""
    config = {"shape": _shape_to_json(shape, options["mesh_files"]),
              "density": options["density"], "params": dataclasses.asdict(params)}
    for name in filter(_SETTINGS.__contains__, options):
        (config.setdefault("sweep", {}) if name in _SWEPT else config)[name] = options[name]
    return {"version": __version__, "command": command, "config": config, "results": results}


def _plain(obj):
    """json's ``default`` hook: a numpy array as a list, a numpy scalar as a number."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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


def _emit(report, options, out_path, table):
    """Write the report as JSON, or as CSV when requested."""
    if options["format"] == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if table is not None:
            writer.writerows([table["columns"], *table["rows"]])
        else:
            rows = []
            _flatten("", json.loads(json.dumps(report, default=_plain)), rows)
            writer.writerow(["key", "value"])
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True, default=_plain) + "\n"
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
# subcommands: each reads the resolved (shape, params, options) and returns
# (results, CSV table or None, exit code); main writes the report


def _cmd_tensors(shape, params, options):
    patches, geo, s, s_rot, origin = _body_tensors(shape, options["resolution"], options["origin"])
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
    if options["density"] is not None:
        mp = mass_properties(shape, options["density"])
        results["mass"] = mp.mass
        results["inertia"] = mp.inertia
    return results, None, EXIT_OK


def _cmd_rates(shape, params, options):
    density = options["density"]
    patches, _, s, s_rot, origin = _body_tensors(shape, options["resolution"])
    props = mass_properties(shape, density)
    rep = rate_report(s, s_rot, props, density, params)
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
    return results, None, EXIT_OK


def _spectrum_route(spectrum):
    """The route of a body's spectrum record, ``"octant"`` or ``"half
    spectrum"``, and the share of that route's modes (one per triple of
    held wavenumbers) that its blocks hold."""
    return {"spectrum_route": "octant" if _on_octant(spectrum) else "half spectrum",
            "held_mode_share": (sum(b.values.size for b in spectrum.blocks)
                                / math.prod(len(k) for k in spectrum.k))}


def _cmd_validate(shape, params, options):
    density, tol, sigma = options["density"], options["tolerance"], params.localization_length
    patches = quadrature(shape, resolution=options["resolution"])
    s = surface_tensor(patches)
    surf = surface_formula_outer_integral(s, density, sigma)
    # the raster's spectrum first, so its grid check runs before a k-space
    # ladder that may take seconds; a body without a form factor takes
    # the gradient sum of it as its k-space tensor, which kspace_route names
    spectrum = _body_spectrum(shape, density, sigma, options["spacing"], options["padding"],
                              options["max_voxels"])
    grad = _gradient(spectrum)
    kint = kspace_outer_integral(shape, density, sigma, _spectrum=spectrum)

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
        "kspace_route": "form factor" if _has_form_factor(shape) else "gradient spectrum",
        **_spectrum_route(spectrum),
        "pairwise_relative_errors": pairs,
        "tolerance": tol,
        "grid_dims": list(spectrum.dims),
        "grid_spacing": spectrum.spacing,
        "passed": passed,
    }
    table = {
        "columns": ["pair", "relative_error", "tolerance", "passed"],
        "rows": [[k, v, tol, v <= tol] for k, v in pairs.items()],
    }
    return results, table, EXIT_OK if passed else EXIT_TOLERANCE


def _sweep_shape(base, variable, value):
    name = _SWEEPS[variable][0]
    if name not in {f.name for f in dataclasses.fields(base)}:
        raise ConfigError(f"cannot sweep {variable} on {type(base).__name__}")
    if variable == "e":  # eccentricity at fixed semi-axis a
        if not 0.0 <= value < 1.0:
            raise ConfigError(f"eccentricity e must be in [0, 1), got {value}")
        value = base.semi_axis_a * math.sqrt(1.0 - value**2)
    return dataclasses.replace(base, **{name: value})


def _cmd_sweep(shape, params, options):
    variable, density, values = options["variable"], options["density"], options["values"]
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
    return table, table, EXIT_OK


def _cmd_dephasing(shape, params, options):
    density = options["density"]
    delta = np.asarray(options["delta"], dtype=float)
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
    if options["exact"]:
        spectrum = _body_spectrum(shape, density, sigma, max_voxels=options["max_voxels"])
        exact = _decoherence(spectrum, delta, params)
        results["exact_rate_per_second"] = exact
        results["quadratic_vs_exact_relative"] = (
            abs(rate - exact) / exact if exact else 0.0
        )
        results.update(_spectrum_route(spectrum))
    return results, None, EXIT_OK


# ---------------------------------------------------------------------------

_COMMANDS = {
    "tensors": (_cmd_tensors, "surface tensors and mass properties"),
    "rates": (_cmd_rates, "dephasing matrix and heating rates"),
    "validate": (_cmd_validate, "cross-check surface formula against oracles"),
    "sweep": (_cmd_sweep, "parameter sweeps of the tensor outputs"),
    "dephasing": (_cmd_dephasing, "superposition dephasing rate"),
}


@functools.cache
def build_parser():
    """The command-line parser, built once per process on the first call:
    each parse fills a new namespace, so no call sees another's flags."""
    parser = _Parser(prog="cslsurf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"cslsurf {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = subs.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--shape", help="inline shape JSON")
        p.add_argument("--mesh", help="STL or OBJ file")
        p.add_argument("--lambda", dest="collapse_rate", help="collapse rate (1/s)")
        p.add_argument("--sigma", help="localization length (e.g. '1e-5 cm')")
        p.add_argument("--out", help="write the report here instead of stdout")
        for name, s in _SETTINGS.items():
            if command in s.defaults:
                switch = s.defaults[command] is False
                p.add_argument("--" + name.replace("_", "-"), help=s.help,
                               **({"action": "store_const", "const": True} if switch else {}))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        shape, params, options = _resolve(args)
        results, table, code = _COMMANDS[args.command][0](shape, params, options)
        _emit(_report(args.command, shape, params, options, results), options, args.out, table)
        return code
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
