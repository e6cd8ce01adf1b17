"""Per-layer tracing of cslsurf from outside the library.

The tracer wraps public functions of each cslsurf module and records one
span per call into a layer: (name, start, end, parent, op id).  Every
module that binds a wrapped function by name gets the wrapper, so calls
made through ``from x import f`` aliases are seen too.  A layer's self time
is its span duration minus the time its child spans cover.  Counters
(patches, voxels, points, ray tests, ...) are computed from the public
arguments and results at the same boundaries.

A call into a layer that is already the innermost open span is not a new
span: ``calls`` counts entries into a layer from outside it.
"""

import os
import sys
import time
from collections import defaultdict

import numpy as np

# rasterization path by shape type, as documented in cslsurf.oracle.voxel:
# meshes and elliptic cylinders take the supersampled + filtered path,
# cone-capped cylinders the signed-distance erf path, the rest closed form.
_FILTERED_TYPES = ("Mesh", "EllipticCylinder")
_SDF_TYPES = ("ConeCappedCylinder",)


def raster_path(spec):
    kinds = {type(spec).__name__} | {type(c).__name__ for c in spec.cavities}
    if kinds & set(_FILTERED_TYPES):
        return "filtered"
    if kinds & set(_SDF_TYPES):
        return "sdf_erf"
    return "closed_form"


def _modes(dims):
    nx, ny, nz = dims
    return nx * ny * (nz // 2 + 1)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self.stack = []            # indices into spans
        self.child_time = []       # per span: time covered by direct children
        self.counts = defaultdict(float)
        self.op = "setup"
        self.op_kind = "setup"
        self._seen_fractions = set()
        self._decoherence_grids = set()
        self._patches = []

    # -- spans -----------------------------------------------------------

    def begin_op(self, op_id, kind):
        self.op = op_id
        self.op_kind = kind
        self._seen_fractions = set()

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.child_time.append(0.0)
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        idx = self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if span[3] is not None:
            self.child_time[span[3]] += span[2] - span[1]

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name, fn, *args, **kwargs):
        if self.innermost() == name:
            return fn(*args, **kwargs)
        self.counts[name + ".calls"] += 1
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    # -- patching --------------------------------------------------------

    def _bind(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every cslsurf module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("cslsurf"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _layer(self, name, original, counter=None):
        def wrapper(*args, **kwargs):
            if self.innermost() == name:
                return original(*args, **kwargs)
            result = self.span(name, original, *args, **kwargs)
            if counter is not None:
                counter(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        self._bind(original, wrapper)

    def install(self):
        import scipy.fft

        import cslsurf.cli
        import cslsurf.csl
        import cslsurf.tensors
        from cslsurf.geometry import mesh, shapes
        from cslsurf.oracle import integrals, voxel

        count = self.counts
        self._layer("cli.main", cslsurf.cli.main)

        def quad_counter(result, *a, **k):
            count["geometry.shapes.quadrature.patches"] += len(result)

        self._layer("geometry.shapes.quadrature", shapes.quadrature, quad_counter)
        self._layer("geometry.shapes.mass_properties", shapes.mass_properties)
        for attr in ("surface_tensor", "rotational_surface_tensor",
                     "axial_rotational_strength", "clamp_psd", "is_psd",
                     "principal_axes"):
            self._layer("tensors", getattr(cslsurf.tensors, attr))
        for attr in ("dephasing_prefactor", "dephasing_matrix",
                     "superposition_dephasing_rate", "angular_dephasing_coefficient",
                     "com_heating_rate", "total_heating_rate",
                     "rotational_heating_rate", "rate_report"):
            self._layer("csl", getattr(cslsurf.csl, attr))

        def load_counter(result, source, *a, **k):
            if isinstance(source, (str, os.PathLike)):
                count["geometry.mesh.load_mesh.bytes"] += os.path.getsize(source)
            elif isinstance(source, (bytes, bytearray)):
                count["geometry.mesh.load_mesh.bytes"] += len(source)
            count["geometry.mesh.load_mesh.faces"] += len(result.faces)

        self._layer("geometry.mesh.load_mesh", mesh.load_mesh, load_counter)

        raster = voxel.rasterize_smoothed_density

        def rasterize(spec, *args, **kwargs):
            name = "oracle.voxel.rasterize." + raster_path(spec)
            grid = self.span(name, raster, spec, *args, **kwargs)
            count[name + ".voxels"] += grid.values.size
            return grid

        self._bind(raster, rasterize)

        fraction = voxel.supersampled_fraction

        def supersampled(spec, dims, origin, spacing):
            key = (id(spec), tuple(dims), np.asarray(origin).tobytes(), float(spacing))
            if key in self._seen_fractions:
                count["oracle.voxel.supersampled_fraction.repeats"] += 1
            self._seen_fractions.add(key)
            return self.span("oracle.voxel.supersampled_fraction", fraction,
                             spec, dims, origin, spacing)

        self._bind(fraction, supersampled)

        def contains_counter(result, spec, points, *a, **k):
            n = len(np.atleast_2d(points))
            count["geometry.shapes.contains.points"] += n
            parent = self.innermost()
            if parent == "oracle.voxel.supersampled_fraction":
                count["oracle.voxel.supersampled_fraction.subsamples"] += n

        self._layer("geometry.shapes.contains", shapes.contains, contains_counter)

        mesh_contains = mesh.TriangleMesh.contains

        def triangle_contains(tri, points, *args, **kwargs):
            n = len(np.atleast_2d(points))
            count["geometry.mesh.contains.ray_tests"] += n * len(tri.faces)
            return self.span("geometry.mesh.contains", mesh_contains, tri, points,
                             *args, **kwargs)

        self._patches.append((mesh.TriangleMesh, "contains", mesh_contains))
        mesh.TriangleMesh.contains = triangle_contains

        form_factor = integrals.form_factor

        def counted_form_factor(*args, **kwargs):
            mu = form_factor(*args, **kwargs)
            if mu is None:
                return None

            def counted_mu(k):
                count["oracle.integrals.form_factor.calls"] += 1
                count["oracle.integrals.form_factor.kpoints"] += np.asarray(k).size // 3
                return mu(k)

            return counted_mu

        self._bind(form_factor, counted_form_factor)

        kspace = integrals.kspace_outer_integral

        def kspace_integral(spec, *args, **kwargs):
            path = "ladder" if form_factor(spec) is not None else "dft_fallback"
            name = "oracle.integrals.kspace." + path
            result = self.span(name, kspace, spec, *args, **kwargs)
            if path == "ladder":
                count[name + ".converged"] += 1
            return result

        self._bind(kspace, kspace_integral)

        def grid_counter(prefix):
            def counter(result, grid, *a, **k):
                modes = _modes(grid.values.shape)
                count[prefix + ".modes"] += modes
                count[prefix + ".computed_bytes"] += 8 * grid.values.size + 16 * modes
            return counter

        self._layer("oracle.integrals.gradient_outer", integrals.gradient_outer_integral,
                    grid_counter("oracle.integrals.gradient_outer"))

        decoherence = integrals.decoherence_function
        decoherence_counter = grid_counter("oracle.integrals.decoherence")

        def decoherence_function(grid, *args, **kwargs):
            if self.op_kind == "decoherence":
                self._decoherence_grids.add(id(grid))
            result = self.span("oracle.integrals.decoherence", decoherence, grid,
                               *args, **kwargs)
            decoherence_counter(result, grid)
            return result

        self._bind(decoherence, decoherence_function)

        def write_counter(result, grid, path, *a, **k):
            count["oracle.voxel.grid_io.bytes"] += os.path.getsize(path)

        def read_counter(result, path, *a, **k):
            count["oracle.voxel.grid_io.bytes"] += os.path.getsize(path)

        self._layer("oracle.voxel.grid_io", voxel.write_grid, write_counter)
        self._layer("oracle.voxel.grid_io", voxel.read_grid, read_counter)

        rfftn = scipy.fft.rfftn

        def traced_rfftn(*args, **kwargs):
            if (self.op_kind == "decoherence"
                    and self.innermost() == "oracle.integrals.decoherence"):
                count["oracle.integrals.decoherence.ffts"] += 1
            return self.span("scipy.fft.rfftn", rfftn, *args, **kwargs)

        self._patches.append((scipy.fft, "rfftn", rfftn))
        scipy.fft.rfftn = traced_rfftn

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self):
        """Self time per layer, counters and waste ratios.

        The worker runs every op and the set-up inside an ``other`` span, so
        ``other.self_s`` is the time no wrapped layer covers.
        """
        self_s = defaultdict(float)
        for (name, start, end, parent, op), child in zip(self.spans, self.child_time):
            self_s[name] += (end - start) - child
        out = {name + ".self_s": t for name, t in self_s.items()}
        out.update(self.counts)
        c = self.counts
        out["oracle.voxel.supersampled_fraction.repeat_ratio"] = _ratio(
            c["oracle.voxel.supersampled_fraction.repeats"],
            c["oracle.voxel.supersampled_fraction.calls"])
        out["oracle.integrals.kspace.ladder.converged_ratio"] = _ratio(
            c["oracle.integrals.kspace.ladder.converged"],
            c["oracle.integrals.kspace.ladder.calls"])
        out["oracle.integrals.decoherence.fft_per_grid"] = _ratio(
            c["oracle.integrals.decoherence.ffts"], len(self._decoherence_grids))
        out["trace.spans"] = len(self.spans)
        return out

    def dump_spans(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def _ratio(num, den):
    """num / den, or 0 when there is no base (the base is reported alongside)."""
    return num / den if den else 0.0
