"""The benchmark's workloads: inputs made from a seed, the ops, and their checks.

An op is one closed-loop call into cslsurf: the next op starts only after
the previous one returns.  ``run`` is timed; ``check`` is not, and decides
whether the op succeeded.  An op fails when it raises, when a CLI call
writes no report, or when its output fails the check.

The seed moves every body by a sub-cell offset (less than one voxel of
sigma/2), picks the directions of the separation vectors and the
non-default axes, and draws the ``tensors_sweep`` dimensions.  Grid
dimensions and patch counts do not depend on it: a translation leaves the
bounding-box span unchanged, and analytic patch counts depend only on the
resolution.
"""

import json
import math
import os

import numpy as np

import cslsurf
import cslsurf.cli
import cslsurf.oracle
from cslsurf.errors import ShiftOutOfGrid
from cslsurf.geometry import mesh_to_obj, mesh_to_stl

SIGMA = 1e-7                  # m, the default CSL localization length
SPACING = SIGMA / 2.0         # default voxel spacing of the oracles
RHO = 1800.0                  # kg/m^3 for the oracle workloads
DENSITY = "2 g/cm^3"          # for the CLI rates and sweeps
DENSITY_SI = 2000.0
ANALYTIC_TOL = 0.005          # both oracle sides analytic (acceptance criterion 08)
SAMPLED_TOL = 0.025           # either side sampled (test_fft_fallback_against_analytic_box)
EXACT_TOL = 1e-10             # trace(S) = area, gap law, isotropic sphere
QUADRATIC_TOL = 0.02          # F(delta) vs its quadratic form (criterion 10)

#: Ops that fail on the code this benchmark was written against, each with
#: its cause and the signature of that failure.  A failed op counts as a known
#: failure, and leaves the run correct, only when its record matches the
#: signature; any other failure of the same op makes the run incorrect.  Each
#: cause is a defect of cslsurf, left for a change to the library.
CONE_DISAGREEMENT_BAND = (0.15, 0.30)   # gradient vs k-space, about 0.21 at baseline


def _rod_signature(record):
    """The CLI caught QuadratureNotConverged: tolerance exit code, no report."""
    detail = record["detail"]
    return ("error" not in record and detail.get("report") is False
            and detail.get("exit_code") == cslsurf.cli.EXIT_TOLERANCE)


def _cone_signature(record):
    """The oracles disagree, within the band the seam error gives."""
    err = record["detail"].get("gradient_vs_kspace")
    lo, hi = CONE_DISAGREEMENT_BAND
    return "error" not in record and err is not None and lo <= err <= hi


def _margin_signature(record):
    """Every in-memory grid raises ShiftOutOfGrid and no re-read grid does."""
    raised = record["detail"]
    return ("error" not in record and bool(raised)
            and all(v == key.endswith(":in_memory") for key, v in raised.items()))


KNOWN_FAILURES = {
    "validate_closed_form:rod": (
        "the k-space ladder of the 20x80 sigma rod climbs all six rungs and "
        "raises QuadratureNotConverged, so the CLI writes no report",
        _rod_signature),
    "validate_sampled:cone": (
        "signed_distance returns 0 on the internal seam discs at z = +-L/2, so "
        "the sdf-erf field drops to 0.5 rho inside the body and the gradient "
        "and k-space oracles disagree by about 21%",
        _cone_signature),
    "dephasing_scan:margin": (
        "write_grid/read_grid drop the grid margin, so a shift beyond it does "
        "not raise ShiftOutOfGrid on the re-read grid",
        _margin_signature),
}


class Op:
    def __init__(self, op_id, kind, run, check, info=None):
        self.id = op_id
        self.kind = kind
        self.run = run
        self.check = check
        self.info = dict(info or {})


class Workload:
    """``ops`` is one round; the traced run runs ``trace_ops``, by default
    the same, and else one pass of a round that repeats its bodies."""

    def __init__(self, ops, warmup, info, trace_ops=None):
        self.ops = ops
        self.warmup = warmup
        self.info = info
        self.trace_ops = ops if trace_ops is None else trace_ops


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _offset(rng):
    return rng.uniform(0.0, SPACING, size=3)


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b)))


def _close(value, expected, tol=EXACT_TOL):
    return abs(value - expected) <= tol * abs(expected)


_SHAPES = {
    "sphere": cslsurf.Sphere,
    "cylinder": cslsurf.Cylinder,
    "box": cslsurf.Box,
    "cone_capped_cylinder": cslsurf.ConeCappedCylinder,
    "elliptic_cylinder": cslsurf.EllipticCylinder,
    "gapped_cylinder": cslsurf.GappedCylinder,
}


def _spec(doc):
    """The cslsurf shape a CLI shape document (SI numbers only) describes."""
    kw = {k: v for k, v in doc.items() if k != "type"}
    kw["cavities"] = tuple(_spec(c) for c in doc.get("cavities", ()))
    return _SHAPES[doc["type"]](**kw)


def _patch_count(spec, resolution=cslsurf.geometry.DEFAULT_RESOLUTION):
    return len(cslsurf.quadrature(spec, resolution=resolution))


def _cli_op(op_id, kind, argv, out, check, info=None):
    """One in-process ``cslsurf.cli.main`` call writing its report to ``out``."""

    def run():
        return cslsurf.cli.main(argv + ["--out", out])

    def check_report(code):
        if not os.path.exists(out):
            return False, {"report": False, "exit_code": code}
        with open(out) as fh:
            report = json.load(fh)
        os.unlink(out)
        ok, detail = check(report)
        return ok, dict(detail, exit_code=code)

    return Op(op_id, kind, run, check_report, info)


# ---------------------------------------------------------------------------
# tensors_sweep

TENSORS_SWEEP_WHY = (
    "The everyday path: quadrature, tensors, rates, CLI resolve/emit and mesh "
    "parsing do all the work and the oracles none.")

# tensors_sweep runs by name but is not among the workloads of BENCHMARK.json.
# Its ops take tens of milliseconds, about as long as one reference sample of
# worker.py, so their cost in reference units is about as noisy as their wall
# time; on a 2-vCPU host whose speed drifts by up to 1.5x the ten-seed spread
# of its ops_per_s reached 0.29-0.35 of the median.  Its layers stay measured
# elsewhere: cli.main, quadrature, tensors and load_mesh in validate_sampled,
# csl and mass_properties in the dephasing_scan set-up.

HIGH_RESOLUTION = 96
ICOSPHERE_SUBDIVISIONS = (4, 5)     # 5120 and 20480 faces
ICOSPHERE_RADIUS = 1e-6


def _analytic_bodies(rng):
    """Six shape types, each bare and with a spherical cavity; axes non-default."""
    um = 1e-6
    c = _offset(rng)

    def axis():
        return list(_unit(rng))

    R = rng.uniform(0.5, 2.0) * um
    bodies = [("sphere", {"type": "sphere", "radius": R, "center": list(c)}, 0.4 * R)]
    R, L = rng.uniform(0.3, 1.0) * um, rng.uniform(2.0, 6.0) * um
    bodies.append(("cylinder", {"type": "cylinder", "radius": R, "length": L,
                                "axis": axis(), "center": list(c)}, 0.4 * R))
    size = list(rng.uniform(0.5, 3.0, size=3) * um)
    bodies.append(("box", {"type": "box", "size": size, "center": list(c)},
                   0.3 * min(size)))
    R, L = rng.uniform(0.3, 1.0) * um, rng.uniform(1.0, 4.0) * um
    bodies.append(("cone_capped_cylinder", {
        "type": "cone_capped_cylinder", "radius": R, "length": L,
        "apex_angle": math.radians(rng.uniform(40.0, 140.0)),
        "axis": axis(), "center": list(c)}, 0.4 * R))
    a = rng.uniform(0.5, 1.5) * um
    b, L = a * rng.uniform(0.3, 0.9), rng.uniform(1.0, 4.0) * um
    bodies.append(("elliptic_cylinder", {
        "type": "elliptic_cylinder", "semi_axis_a": a, "semi_axis_b": b,
        "length": L, "axis": axis(), "center": list(c)}, 0.4 * b))
    R, L = rng.uniform(0.3, 1.0) * um, rng.uniform(4.0, 8.0) * um
    gapped = {"type": "gapped_cylinder", "radius": R, "length": L, "gap_count": 2,
              "gap_width": rng.uniform(0.05, 0.2) * L / 3.0, "axis": axis(),
              "center": list(c)}
    bodies.append(("gapped_cylinder", gapped, None))

    out = []
    for name, doc, cavity_r in bodies:
        out.append((name, doc, None))
        if name == "gapped_cylinder":
            # the cavity sits in the first solid segment, not in a gap
            seg, centers = _spec(doc).segments()
            at = np.asarray(doc["center"]) + centers[0] * np.asarray(_spec(doc).axis)
            cavity_r = 0.4 * min(doc["radius"], seg / 2.0)
        else:
            at = np.asarray(doc["center"])
        cavity = {"type": "sphere", "radius": cavity_r, "center": list(at)}
        out.append((name + "+cavity", dict(doc, cavities=[cavity]), cavity_r))
    return out


def _tensors_check(doc, cavity_r):
    def check(report):
        res = report["results"]
        S = np.asarray(res["surface_tensor"])
        area = res["area"]
        detail = {"patches": res["patch_count"],
                  "trace_minus_area": float(np.trace(S) - area)}
        ok = _close(float(np.trace(S)), area)
        if doc["type"] == "sphere":
            s0 = 4.0 * math.pi * (doc["radius"] ** 2 + (cavity_r or 0.0) ** 2) / 3.0
            dev = float(np.max(np.abs(S - s0 * np.eye(3))) / s0)
            detail["isotropy_deviation"] = dev
            ok = ok and dev <= EXACT_TOL
        return ok, detail
    return check


def _rates_check(doc, cavity_r, prefactor):
    def check(report):
        res = report["results"]
        lam = np.asarray(res["dephasing_matrix"])
        expected = prefactor * res["area"]
        ok = _close(float(np.trace(lam)), expected)
        detail = {"trace_over_prefactor_area": float(np.trace(lam) / expected)}
        if doc["type"] == "sphere":
            dev = float(np.max(np.abs(lam - np.trace(lam) / 3.0 * np.eye(3)))
                        / (np.trace(lam) / 3.0))
            detail["isotropy_deviation"] = dev
            ok = ok and dev <= EXACT_TOL
        return ok, detail
    return check


def _sweep_check(variable, base, prefactor):
    def check(report):
        cols = report["results"]["columns"]
        rows = [dict(zip(cols, r)) for r in report["results"]["rows"]]
        ok = bool(rows)
        for r in rows:
            ok = ok and _close(r["s_xx"] + r["s_yy"] + r["s_zz"], r["area"])
            ok = ok and _close(r["lambda_axis"], prefactor * r["s_axis"])
            if variable == "N":   # gap law: every cut adds two discs of pi R^2
                ok = ok and _close(r["s_axis"],
                                   (r["value"] + 1) * 2.0 * math.pi * base["radius"] ** 2)
            if variable == "R":   # isotropic sphere
                s0 = 4.0 * math.pi * r["value"] ** 2 / 3.0
                ok = ok and all(_close(r[k], s0) for k in ("s_xx", "s_yy", "s_zz"))
        return ok, {"rows": len(rows)}
    return check


def _mesh_check(faces):
    # an inscribed icosphere misses about 6/faces of the sphere's area; allow 8/faces
    tol = 8.0 / faces

    def check(report):
        res = report["results"]
        S = np.asarray(res["surface_tensor"])
        s0 = 4.0 * math.pi * ICOSPHERE_RADIUS**2 / 3.0
        dev = float(np.max(np.abs(S - s0 * np.eye(3))) / s0)
        ok = dev <= tol and _close(float(np.trace(S)), res["area"])
        return ok, {"patches": res["patch_count"], "faceting_deviation": dev,
                    "faceting_tolerance": tol}
    return check


def _csl_prefactor(density):
    """2 pi lambda sigma^2 rho^2 / m_N^2 from the default CslParams fields."""
    p = cslsurf.CslParams()
    return (2.0 * math.pi * p.collapse_rate * p.localization_length**2
            * density**2 / p.nucleon_mass**2)


def tensors_sweep(rng, tmp):
    out = os.path.join(tmp, "report.json")
    prefactor = _csl_prefactor(DENSITY_SI)
    ops = []
    bodies = _analytic_bodies(rng)
    for name, doc, cavity_r in bodies:
        shape = json.dumps(doc)
        for res in (None, HIGH_RESOLUTION):
            res_args = [] if res is None else ["--resolution", str(res)]
            tag = f"{name}@{res or 'default'}"
            ops.append(_cli_op(f"tensors:{tag}", "tensors",
                               ["tensors", "--shape", shape] + res_args, out,
                               _tensors_check(doc, cavity_r)))
            ops.append(_cli_op(f"rates:{tag}", "rates",
                               ["rates", "--shape", shape, "--density", DENSITY] + res_args,
                               out, _rates_check(doc, cavity_r, prefactor)))

    by_type = {name: doc for name, doc, cavity_r in bodies if cavity_r is None}
    c = list(_offset(rng))
    sweeps = [
        ("N", dict(by_type["gapped_cylinder"], center=c), "0,1,2,3,4"),
        ("theta", dict(by_type["cone_capped_cylinder"], center=c),
         "30 deg,60 deg,90 deg,120 deg"),
        ("e", dict(by_type["elliptic_cylinder"], center=c), "0,0.3,0.6,0.9"),
        ("L", dict(by_type["cylinder"], center=c),
         ",".join(f"{x:.6g}" for x in rng.uniform(1e-6, 8e-6, size=4))),
        ("R", dict(by_type["sphere"], center=c),
         ",".join(f"{x:.6g}" for x in rng.uniform(0.2e-6, 3e-6, size=4))),
    ]
    for variable, doc, values in sweeps:
        ops.append(_cli_op(f"sweep:{variable}", "sweep",
                           ["sweep", "--shape", json.dumps(doc), "--variable", variable,
                            "--values", values, "--density", DENSITY],
                           out, _sweep_check(variable, doc, prefactor)))

    center = _offset(rng)
    mesh_files = {}
    for subdiv in ICOSPHERE_SUBDIVISIONS:
        tri = cslsurf.icosphere(ICOSPHERE_RADIUS, subdiv, center=center)
        faces = len(tri.faces)
        for fmt, suffix, blob in (
            ("stl-binary", "stl", mesh_to_stl(tri)),
            ("stl-ascii", "stl", mesh_to_stl(tri, ascii_format=True)),
            ("obj", "obj", mesh_to_obj(tri).encode()),
        ):
            path = os.path.join(tmp, f"icosphere{faces}-{fmt}.{suffix}")
            with open(path, "wb") as fh:
                fh.write(blob)
            mesh_files[os.path.basename(path)] = len(blob)
            ops.append(_cli_op(f"mesh:{faces}:{fmt}", "mesh",
                               ["tensors", "--mesh", path], out, _mesh_check(faces),
                               {"faces": faces, "bytes": len(blob)}))

    warm = json.dumps({"type": "sphere", "radius": 1e-6})
    warmup = _cli_op("warmup", "tensors", ["tensors", "--shape", warm], out,
                     _tensors_check({"type": "sphere", "radius": 1e-6}, None))
    return Workload(ops, warmup, {"mesh_bytes": mesh_files,
                                  "high_resolution": HIGH_RESOLUTION})


# ---------------------------------------------------------------------------
# validate_closed_form and validate_sampled


def _validate_op(op_id, argv, tol, out, info):
    def check(report):
        res = report["results"]
        grad, kint = res["gradient_integral"], res["kspace_integral"]
        err = _rel(grad, kint)
        surf = _rel(res["surface_formula"], grad)
        return err <= tol, {"gradient_vs_kspace": err, "tolerance": tol,
                            "surface_vs_gradient": surf, "grid_dims": res["grid_dims"]}

    return _cli_op(op_id, "validate", ["validate"] + argv, out, check, info)


def _shape_ops(prefix, bodies, out):
    return [_validate_op(f"{prefix}:{name}", ["--shape", json.dumps(doc)], tol, out,
                         {"patches": _patch_count(_spec(doc))})
            for name, doc, tol in bodies]


# validate_closed_form runs by name but is not among the workloads of
# BENCHMARK.json.  A round takes about 47 s, 30 s of it the rod's failing
# ladder, and with one round a run its ten-seed spreads of ops_per_ref and
# op_p50_ref reached 0.26-0.28, past the 0.25 bound; two rounds a run would
# not fit the time a benchmark check may take.  Its layers stay measured
# elsewhere: closed-form rasterization in the dephasing_scan set-up, the
# k-space ladder and form factors on the elliptic cylinder of
# validate_sampled, the DFT fallback and sdf-erf rasterization on its cone.

VALIDATE_CLOSED_FORM_WHY = (
    "Closed-form rasterization and the k-space ladder dominate, each grid is "
    "transformed once, and the mesh layers do no work; an FFT cache should not "
    "move it.")


#: the 40 sigma sphere and the shell run this many times per round, each time
#: at its own sub-cell offset and spread between the slow bodies, so that the
#: median latency is not one sample taken at one moment of the run.  The box
#: and the cylinder, about three times faster, run FAST_REPEATS times.  The
#: eleven ops that pass then sort as two boxes, two cylinders, three shells,
#: three spheres and the gapped cylinder, so the median is the middle shell;
#: with one box and one cylinder it was the last shell or the first sphere,
#: the edge between two latency clusters, and jumped by 25% from run to run.
SPHERE_REPEATS = 3
FAST_REPEATS = 2


def _spheres(rng, repeat):
    s = SIGMA
    shell_c = list(_offset(rng))
    return [
        (f"sphere40#{repeat}", {"type": "sphere", "radius": 40 * s,
                                "center": list(_offset(rng))}, ANALYTIC_TOL),
        (f"shell#{repeat}", {"type": "sphere", "radius": 30 * s, "center": shell_c,
                             "cavities": [{"type": "sphere", "radius": 15 * s,
                                           "center": shell_c}]}, ANALYTIC_TOL),
    ]


def _fast(rng, repeat):
    s = SIGMA
    return [
        (f"box#{repeat}", {"type": "box", "size": [14 * s, 10 * s, 8 * s],
                           "center": list(_offset(rng))}, ANALYTIC_TOL),
        (f"cylinder#{repeat}", {"type": "cylinder", "radius": 6 * s, "length": 14 * s,
                                "center": list(_offset(rng))}, ANALYTIC_TOL),
    ]


def validate_closed_form(rng, tmp):
    s = SIGMA
    out = os.path.join(tmp, "report.json")
    spheres = [_spheres(rng, k) for k in range(SPHERE_REPEATS)]
    fast = [_fast(rng, k) for k in range(FAST_REPEATS)]
    slow = [
        # no analytic form factor: k-space side takes the sampled DFT fallback
        ("gapped", {"type": "gapped_cylinder", "radius": 15 * s, "length": 60 * s,
                    "gap_count": 3, "gap_width": 4 * s, "center": list(_offset(rng))},
         SAMPLED_TOL),
        ("rod", {"type": "cylinder", "radius": 20 * s, "length": 80 * s, "axis": "x",
                 "center": list(_offset(rng))}, ANALYTIC_TOL),
    ]
    bodies = (spheres[0] + fast[0][:1] + slow[:1] + spheres[1] + fast[0][1:] + slow[1:]
              + fast[1][:1] + spheres[2] + fast[1][1:])
    ops = _shape_ops("validate_closed_form", bodies, out)
    # the warm-up body is none of the timed ones, so no result it leaves in a
    # cache can serve a timed op
    warm = {"type": "sphere", "radius": 10 * s, "center": list(_offset(rng))}
    warmup = _validate_op("warmup", ["--shape", json.dumps(warm)], ANALYTIC_TOL, out, {})
    return Workload(ops, warmup, {})


VALIDATE_SAMPLED_WHY = (
    "supersampled_fraction -> contains -> TriangleMesh.contains does most of "
    "the work (the mesh rasterization cliff); the closed-form layers do none.")


#: a round runs every body this many times, each pass at its own sub-cell
#: offsets.  Its ops take 0.3 to 25 s, so one pass gives three successful
#: latencies and a median that is one op; on a host whose speed drifts by
#: up to 1.5x over seconds that median spread by up to 0.27 over ten runs.
SAMPLED_PASSES = 2


def _sampled_pass(rng, tmp, out, k):
    s = SIGMA
    box = cslsurf.box_mesh(8.3 * s, 8.3 * s, 8.3 * s, center=_offset(rng))
    box_path = os.path.join(tmp, f"box{k}.stl")
    ico = cslsurf.icosphere(5 * s, 0, center=_offset(rng))
    ico_path = os.path.join(tmp, f"icosahedron{k}.obj")
    with open(box_path, "wb") as fh:
        fh.write(mesh_to_stl(box))
    with open(ico_path, "w") as fh:
        fh.write(mesh_to_obj(ico))
    ops = [
        _validate_op("validate_sampled:box_mesh", ["--mesh", box_path], SAMPLED_TOL,
                     out, {"patches": _patch_count(cslsurf.Mesh(mesh=box)), "faces": 12}),
        _validate_op("validate_sampled:icosahedron", ["--mesh", ico_path], SAMPLED_TOL,
                     out, {"patches": _patch_count(cslsurf.Mesh(mesh=ico)), "faces": 20}),
    ]
    bodies = [
        # filtered raster, analytic ladder
        ("elliptic", {"type": "elliptic_cylinder", "semi_axis_a": 6 * s,
                      "semi_axis_b": 4 * s, "length": 12 * s,
                      "center": list(_offset(rng))}, SAMPLED_TOL),
        # sdf-erf raster, DFT fallback
        ("cone", {"type": "cone_capped_cylinder", "radius": 6 * s, "length": 12 * s,
                  "apex_angle": math.radians(60.0), "center": list(_offset(rng))},
         SAMPLED_TOL),
    ]
    return ops + _shape_ops("validate_sampled", bodies, out)


def validate_sampled(rng, tmp):
    s = SIGMA
    out = os.path.join(tmp, "report.json")
    passes = [_sampled_pass(rng, tmp, out, k) for k in range(SAMPLED_PASSES)]
    warm = {"type": "elliptic_cylinder", "semi_axis_a": 3 * s, "semi_axis_b": 2 * s,
            "length": 6 * s, "center": list(_offset(rng))}
    warmup = _validate_op("warmup", ["--shape", json.dumps(warm)], SAMPLED_TOL, out, {})
    return Workload([op for ops in passes for op in ops], warmup, {}, trace_ops=passes[0])


# ---------------------------------------------------------------------------
# dephasing_scan

DEPHASING_SCAN_WHY = (
    "One rasterization and many spectral evaluations per grid: the FFT and "
    "mode sums take most of the time, so FFT reuse shows here and not in "
    "validate_*.  An op is one separation evaluated on both grids.")

SEPARATIONS = 32
SEPARATION_RANGE = (0.01, 4.0)      # in sigma
PROBE = 0.1                         # criterion 10 separation, in sigma


def dephasing_scan(rng, tmp):
    s = SIGMA
    params = cslsurf.CslParams()
    # decoherence prefactor lambda sigma^3 / (pi^1.5 m_N^2); with the grid's own
    # gradient tensor G, 1 - cos x <= x^2 / 2 gives F(delta) <= pref/2 delta.G.delta
    pref = (params.collapse_rate * params.localization_length**3
            / (math.pi**1.5 * params.nucleon_mass**2))
    bodies = [("sphere", cslsurf.Sphere(30 * s, center=_offset(rng))),
              ("plate", cslsurf.Box((20 * s, 120 * s, 120 * s), center=_offset(rng)))]
    grids = {}
    masses = {}
    info = {}
    for name, spec in bodies:
        grid = cslsurf.rasterize_smoothed_density(spec, RHO, s)
        path = os.path.join(tmp, f"{name}.cslgrid")
        cslsurf.oracle.write_grid(grid, path)
        reread = cslsurf.oracle.read_grid(path)
        G = cslsurf.gradient_outer_integral(reread)
        patches = cslsurf.quadrature(spec, resolution=24)
        dm = cslsurf.dephasing_matrix(cslsurf.surface_tensor(patches), RHO, params)
        grids[name] = (grid, reread, G, dm)
        masses[name] = cslsurf.mass_properties(spec, RHO).mass
        info[name] = {"grid_dims": list(grid.dims), "patches": len(patches),
                      "grid_bytes": os.path.getsize(path)}

    dims = {name: info[name]["grid_dims"] for name in grids}

    def scan_op(j, magnitude):
        """F at one separation on each re-read grid, each in its own direction."""
        deltas = {name: magnitude * _unit(rng) for name, _ in bodies}

        def run():
            return {name: cslsurf.decoherence_function(grids[name][1], delta, params)
                    for name, delta in deltas.items()}

        def check(values):
            ok, detail = True, {}
            for name, F in values.items():
                _, _, G, dm = grids[name]
                delta = deltas[name]
                bound = 0.5 * pref * float(delta @ G @ delta)
                quad = float(delta @ dm.matrix @ delta)
                ok = ok and math.isfinite(F) and 0.0 < F <= bound * (1.0 + 1e-9)
                if magnitude <= PROBE * s * (1.0 + 1e-12):
                    ok = ok and F >= (1.0 - QUADRATIC_TOL) * bound
                detail[name] = {"F_over_gradient_quadratic": F / bound,
                                "F_over_surface_quadratic": F / quad}
            return ok, detail

        return Op(f"dephasing_scan:{j}", "decoherence", run, check,
                  {"delta_over_sigma": magnitude / s, "grid_dims": dims})

    probe_delta = np.array([PROBE * s, 0.0, 0.0])

    def probe():
        return {name: (cslsurf.decoherence_function(grid, probe_delta, params),
                       cslsurf.decoherence_function(reread, probe_delta, params))
                for name, (grid, reread, G, dm) in grids.items()}

    def probe_check(values):
        """Criterion 10, the re-read grid gives the in-memory grid's value,
        and it holds the body's mass."""
        ok, detail = True, {}
        for name, (in_memory, from_file) in values.items():
            reread = grids[name][1]
            quad = float(probe_delta @ grids[name][3].matrix @ probe_delta)
            deviation = abs(from_file / quad - 1.0)
            mass = float(reread.values.sum()) * reread.cell_volume()
            ok = (ok and from_file == in_memory and deviation < QUADRATIC_TOL
                  and _close(mass, masses[name]))
            detail[name] = {"criterion10_deviation": deviation,
                            "mass_over_body_mass": mass / masses[name]}
        return ok, detail

    # an op evaluates one separation on both grids, so that every op costs
    # about the same and the median latency is not the boundary between a
    # cluster of sphere evaluations and a cluster of plate evaluations
    magnitudes = np.geomspace(*SEPARATION_RANGE, SEPARATIONS) * s
    ops = [scan_op(j, m) for j, m in enumerate(magnitudes)]
    ops.append(Op("dephasing_scan:probe", "probe", probe, probe_check, {"grid_dims": dims}))

    far_dirs = {name: _unit(rng) for name, _ in bodies}

    def margin():
        """Does a shift beyond the margin raise, on each in-memory and re-read grid?"""
        raised = {}
        for name, _ in bodies:
            grid, reread, G, dm = grids[name]
            far = (grid.margin + s) * far_dirs[name]
            for label, g in (("in_memory", grid), ("reread", reread)):
                try:
                    cslsurf.decoherence_function(g, far, params)
                    raised[f"{name}:{label}"] = False
                except ShiftOutOfGrid:
                    raised[f"{name}:{label}"] = True
        return raised

    ops.append(Op("dephasing_scan:margin", "margin", margin,
                  lambda raised: (all(raised.values()), raised), {"grid_dims": dims}))

    warm_delta = np.array([0.0, 2.0 * PROBE * s, 0.0])   # unlike any timed separation

    def warm():
        return [cslsurf.decoherence_function(grids[n][1], warm_delta, params)
                for n, _ in bodies]

    def warm_check(values):
        return all(v > 0 for v in values), {}

    return Workload(ops, Op("warmup", "decoherence", warm, warm_check), info)


WORKLOADS = {
    "tensors_sweep": (tensors_sweep, TENSORS_SWEEP_WHY),
    "validate_closed_form": (validate_closed_form, VALIDATE_CLOSED_FORM_WHY),
    "validate_sampled": (validate_sampled, VALIDATE_SAMPLED_WHY),
    "dephasing_scan": (dephasing_scan, DEPHASING_SCAN_WHY),
}
