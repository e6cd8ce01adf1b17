"""Triangle meshes: STL/OBJ ingestion, validation, and integral properties.

Meshes must be watertight (every undirected edge shared by exactly two
triangles) and consistently wound.  A consistently inward-wound mesh is
repaired by flipping every face; mixed winding is rejected.
"""

import functools
import io
import itertools
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import InvertedOrientation, NonWatertightMesh, ParseError
from .patches import SurfacePatches, _array

# vertex dedup tolerance, relative to the bounding-box diagonal
DEDUP_RELATIVE_TOL = 1e-9
# point-face pairs per chunk of TriangleMesh.contains (those in a face's y
# band), and row-face and line-face pairs per chunk of TriangleMesh._flips
# (the rows in a face's y range, the lines in its shadow at each row); a
# chunk's temporaries stay near 6 MB whatever the face count or lattice
_CONTAINS_PAIRS = 1 << 16
# relative slack of a face's yz shadow at a row (TriangleMesh._flips), of the
# face's |y| + |z| bounds: some 1e6 ulps, far above the rounding of its edges
_SHADOW_SLACK = 1e-10


def _pairs(counts):
    """The pairs (i, k), k < counts[i], in order, as index arrays (i, k)
    of at most ``_CONTAINS_PAIRS`` pairs a chunk, however large one count."""
    ends = np.concatenate([[0], np.cumsum(counts)])
    for first in range(0, ends[-1], _CONTAINS_PAIRS):
        pair = np.arange(first, min(first + _CONTAINS_PAIRS, ends[-1]))
        i = np.searchsorted(ends, pair, "right") - 1
        yield i, pair - ends[i]


class _RayFaces(NamedTuple):
    """Faces as seen by +x rays, face axis first.

    Edge k of a face is opposite its corner k.  ``base`` and ``step`` are
    its (y, z) start and direction, taken from its lexicographically
    smaller end; ``sign`` (+-1) turns the edge function into the
    barycentric weight of corner k; ``owns`` says whether a line exactly
    on the edge is inside.
    """

    base: np.ndarray   # (m, 3, 2)
    step: np.ndarray   # (m, 3, 2)
    sign: np.ndarray   # (m, 3)
    owns: np.ndarray   # (m, 3) bool
    x: np.ndarray      # (m, 3) corner x
    lo: np.ndarray     # (m, 2) yz bounding box
    hi: np.ndarray     # (m, 2)

    def take(self, index):
        # np.take gathers rows many times faster than fancy indexing
        return _RayFaces(*(np.take(a, index, axis=0) for a in self))

    def rows(self, y):
        """The faces at rows ``y`` for :func:`_crossings`; a row's lines share them."""
        ty = self.step[..., 1] * (y[..., None] - self.base[..., 0])
        return self.sign, self.step[..., 0], self.base[..., 1], ty, self.owns, self.x

    def crossings(self, y, z):
        """(hit, x): does the +x line at (y, z) cross each face, and where.

        ``y`` and ``z`` broadcast against the face axis.  Only elementwise
        arithmetic (:func:`_crossings`), so any two callers get the same
        bits for the same line and face.
        """
        hit, x = _crossings(self.rows(y), z)
        # the bounding box is the callers' cull; testing it here too keeps
        # an unculled caller equal where rounding puts a line just outside
        # the box on the inner side of all three edges
        return hit & ((self.lo[..., 0] <= y) & (y <= self.hi[..., 0])
                      & (self.lo[..., 1] <= z) & (z <= self.hi[..., 1])), x


def _crossings(rows, z):
    """(hit, x) of the lines at ``z`` of :meth:`_RayFaces.rows`, unboxed."""
    sign, dy, bz, ty, owns, x = rows
    w = sign * (dy * (z[..., None] - bz) - ty)
    total = w[..., 0] + w[..., 1] + w[..., 2]
    hit = np.all((w > 0.0) | ((w == 0.0) & owns), axis=-1) & (total > 0.0)
    x = (w[..., 0] * x[..., 0] + w[..., 1] * x[..., 1] + w[..., 2] * x[..., 2]) / np.where(
        hit, total, 1.0)
    return hit, x


class TriangleMesh:
    """Indexed triangle mesh of a solid: watertight, consistently wound and
    oriented outward.

    Every mesh is checked as it is built: an edge not shared by exactly two
    faces raises :class:`NonWatertightMesh`, mixed winding
    :class:`InvertedOrientation`, and a consistently inward mesh has its
    faces flipped.  So no open surface or triangle soup reaches the
    volume, the ray parity or a :class:`~cslsurf.geometry.shapes.Mesh`.

    Parameters
    ----------
    vertices : (n, 3) array of finite real numbers
    faces : (m, 3) int array, indices into vertices from 0 (other input raises ParseError)
    """

    def __init__(self, vertices, faces):
        self.vertices = np.ascontiguousarray(
            _array("vertices", vertices, (None, 3), error=ParseError))
        self.faces = np.ascontiguousarray(_array(
            "faces", faces, (None, 3), finite=False, dtype=np.int64, error=ParseError))
        lo, hi = (self.faces.min(), self.faces.max()) if len(self.faces) else (0, -1)
        if lo < 0 or hi >= len(self.vertices):  # a negative index would wrap from the end
            raise ParseError(f"face indices {lo} to {hi} leave the {len(self.vertices)} vertices")
        self._check_topology()
        if self.volume() < 0:
            self.faces = self.faces[:, ::-1]

    # -- topology ------------------------------------------------------

    def _directed_edges(self):
        f = self.faces
        return np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])

    def _check_topology(self):
        de = self._directed_edges()
        undirected = np.sort(de, axis=1)
        _, counts = np.unique(undirected, axis=0, return_counts=True)
        if np.any(counts != 2):
            n_bad = int(np.sum(counts != 2))
            raise NonWatertightMesh(
                f"{n_bad} edges are not shared by exactly two triangles"
            )
        # watertight and manifold: consistent winding means every directed
        # edge appears exactly once
        _, dcounts = np.unique(de, axis=0, return_counts=True)
        if np.any(dcounts != 1):
            raise InvertedOrientation(
                "triangle winding is inconsistent between neighbors"
            )

    # -- per-face quantities -------------------------------------------

    def corners(self):
        v, f = self.vertices, self.faces
        return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]

    def face_cross(self):
        p0, p1, p2 = self.corners()
        return np.cross(p1 - p0, p2 - p0)

    def face_areas(self):
        return 0.5 * np.linalg.norm(self.face_cross(), axis=1)

    def face_normals(self):
        cr = self.face_cross()
        nrm = np.linalg.norm(cr, axis=1)
        nrm[nrm == 0] = 1.0
        return cr / nrm[:, None]

    # -- integral properties -------------------------------------------

    def area(self):
        return float(np.sum(self.face_areas()))

    def volume(self):
        """Signed volume from the signed tetrahedron sum."""
        p0, p1, p2 = self.corners()
        return float(np.einsum("ij,ij->", p0, np.cross(p1, p2)) / 6.0)

    def integral_moments(self):
        """Return (volume, first moment, second moment) about the origin.

        Exact polynomial integrals over the enclosed solid, accumulated
        from signed origin tetrahedra:  int x_i x_j dV over a tetrahedron
        with vertices {0, a, b, c} equals (V/20)(s o s + a o a + b o b +
        c o c) with s = a + b + c.
        """
        a, b, c = self.corners()
        vt = np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
        s = a + b + c
        first = np.einsum("i,ij->j", vt, s) / 4.0
        second = (
            np.einsum("t,ti,tj->ij", vt, s, s)
            + np.einsum("t,ti,tj->ij", vt, a, a)
            + np.einsum("t,ti,tj->ij", vt, b, b)
            + np.einsum("t,ti,tj->ij", vt, c, c)
        ) / 20.0
        return float(np.sum(vt)), first, second

    # -- geometry queries ----------------------------------------------

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def translated(self, offset):
        return TriangleMesh(self.vertices + _array("offset", offset, (3,)), self.faces)

    @functools.cached_property
    def _ray_faces(self):
        """Per-face data of the +x ray test; faces parallel to x are left out.

        Computed once per mesh: nothing changes ``vertices`` or ``faces``
        after ``__init__``.
        """
        corner = self.vertices[self.faces]                  # (m, corner, xyz)
        yz = corner[:, :, 1:]
        e, f = yz[:, 1] - yz[:, 0], yz[:, 2] - yz[:, 0]
        area = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]        # twice the yz shadow
        keep = area != 0.0
        yz, area, x = yz[keep], area[keep], corner[keep, :, 0]
        # edge k runs from corner k+1 to corner k+2, opposite corner k
        tail, head = yz[:, [1, 2, 0]], yz[:, [2, 0, 1]]
        # evaluate each edge from its lexicographically smaller (y, z) end,
        # so the two faces sharing it get exactly opposite values
        flip = (head[..., 0] < tail[..., 0]) | (
            (head[..., 0] == tail[..., 0]) & (head[..., 1] < tail[..., 1]))
        base = np.where(flip[..., None], head, tail)
        step = np.where(flip[..., None], tail - head, head - tail)
        sign = np.where(flip, -1.0, 1.0) * np.sign(area)[:, None]
        # top-left rule: a line exactly on an edge counts as if moved by an
        # infinitesimal step toward +y (and a smaller one toward +z)
        dy, dz = sign * step[..., 0], sign * step[..., 1]
        owns = (dz < 0.0) | ((dz == 0.0) & (dy > 0.0))
        return _RayFaces(base, step, sign, owns, x, yz.min(axis=1), yz.max(axis=1))

    def contains(self, points):
        """Even-odd parity of the crossings of a +x ray from each point.

        A crossing is where the ray's (y, z) line meets a face's shadow
        on the yz plane, at the x its barycentric weights give.  Each
        edge is evaluated from its lexicographically smaller (y, z) end,
        so the two faces sharing it see exactly opposite values, and a
        line exactly on an edge or a vertex counts as if moved by an
        infinitesimal step toward +y (then +z), a top-left rule.  A ray
        that threads an edge or a vertex is thus counted as a ray beside
        it would be.  :meth:`_flips`, which the supersampled fill of a
        lattice counts from, takes the same arithmetic, so the two agree
        in every bit.  Each face is tested only against the points in its
        yz bounding box: the points sorted by y give each face its band,
        cut to the box in z.  The face/point pairs of the bands go in
        chunks of ``_CONTAINS_PAIRS``, so memory stays bounded however
        many points one band holds.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        faces = self._ray_faces
        order = np.argsort(points[:, 1], kind="stable")
        y = points[order, 1]
        # the points in each face's y band: order[p0:p1]
        p0 = np.searchsorted(y, faces.lo[:, 0], "left")
        band = np.searchsorted(y, faces.hi[:, 0], "right") - p0
        parity = np.zeros(len(points), dtype=np.int64)
        for f, o in _pairs(band):
            p = order[p0[f] + o]
            z = points[p, 2]
            keep = (faces.lo[f, 1] <= z) & (z <= faces.hi[f, 1])
            f, p = f[keep], p[keep]
            hit, x = faces.take(f).crossings(points[p, 1], points[p, 2])
            parity += np.bincount(p[hit & (x > points[p, 0])], minlength=len(points))
        return parity % 2 == 1

    def _flips(self, xs, ys, zs):
        """Where :meth:`contains` changes along the lines of an ascending
        lattice.

        Line ``j * len(zs) + k`` is the +x line at (ys[j], zs[k]).  Each
        face meets the rows ys[j] in its y range, cut from the lattice by
        bisection, and at each row only the lines whose z lies in its
        shadow there: the z range of its three edges (``base``, ``step``)
        over the slab of rows within a slack of ys[j], widened by that
        slack and clipped to its bounding box.  The slack,
        ``_SHADOW_SLACK`` of the face's |y| + |z| bounds, is far above the
        rounding of the edge functions and of the range, so no pair that
        :meth:`_RayFaces.crossings` would hit is dropped, and each line is
        in the face's box; lines index one gather per face/row.  Each
        crossing is placed among the ``xs`` by bisection: a crossing at
        index i lies beyond exactly the samples xs[:i].  Returns (line,
        at), sorted, of the pairs that an odd number of crossings reach:
        sample xs[a] of a line is inside when an odd number of its flips
        have at > a.  Face/row and face/line pairs both go in chunks of
        ``_CONTAINS_PAIRS``, so the temporaries stay bounded whatever the
        lattice; only the crossings are kept.
        """
        faces = self._ray_faces
        j0 = np.searchsorted(ys, faces.lo[:, 0], "left")
        j1 = np.searchsorted(ys, faces.hi[:, 0], "right")
        slack = _SHADOW_SLACK * (np.abs(faces.lo) + np.abs(faces.hi)).sum(axis=1)
        keys = [np.empty(0, dtype=np.int64)]
        for f, o in _pairs(j1 - j0):
            j, s, at = j0[f] + o, slack[f], faces.take(f)
            # the slab of rows [ylo, yhi] about ys[j], and each edge (dy >= 0)
            # over it; an edge parallel to z lies in it whole or not at all
            ylo, yhi = (ys[j] - s)[:, None], (ys[j] + s)[:, None]
            by, bz, dy, dz = at.base[..., 0], at.base[..., 1], at.step[..., 0], at.step[..., 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                t0 = np.where(dy > 0.0, np.clip((ylo - by) / dy, 0.0, 1.0), 0.0)
                t1 = np.where(dy > 0.0, np.clip((yhi - by) / dy, 0.0, 1.0), 1.0)
            za, zb = bz + t0 * dz, bz + t1 * dz
            spans = (by <= yhi) & (ylo <= by + dy)
            lo = np.min(np.where(spans, np.minimum(za, zb), np.inf), axis=1) - s
            hi = np.max(np.where(spans, np.maximum(za, zb), -np.inf), axis=1) + s
            k0 = np.searchsorted(zs, np.maximum(lo, at.lo[:, 1]), "left")
            k1 = np.searchsorted(zs, np.minimum(hi, at.hi[:, 1]), "right")
            rows = [np.ascontiguousarray(a) for a in at.rows(ys[j])]
            for r, k in _pairs(np.maximum(k1 - k0, 0)):
                kr = k0[r] + k
                hit, x = _crossings([np.take(a, r, axis=0) for a in rows], zs[kr])
                i = np.searchsorted(xs, x[hit], "left")
                keys.append((j[r][hit] * len(zs) + kr[hit]) * (len(xs) + 1) + i)
        key, count = np.unique(np.concatenate(keys), return_counts=True)
        return np.divmod(key[count % 2 == 1], len(xs) + 1)

    def surface_patches(self):
        """Mid-edge three-point rule per facet.

        Exact for integrands quadratic in position over each flat facet,
        which covers both surface tensors.
        """
        p0, p1, p2 = self.corners()
        areas = self.face_areas()
        normals = self.face_normals()
        mids = np.concatenate([(p0 + p1) / 2, (p1 + p2) / 2, (p2 + p0) / 2])
        return SurfacePatches(
            points=mids,
            normals=np.tile(normals, (3, 1)),
            weights=np.tile(areas / 3.0, 3),
        )


# ---------------------------------------------------------------------------
# parsing


def _row_index(keys):
    """Dense index of each row among the distinct rows of ``keys``."""
    order = np.lexsort(keys.T)
    step = np.any(np.diff(keys[order], axis=0) != 0.0, axis=1)
    index = np.empty(len(keys), dtype=np.int64)
    index[order] = np.concatenate([[0], np.cumsum(step)])
    return index


def _weld_groups(vertices, tol):
    """Lowest vertex index of each vertex's weld group.

    Vertices closer than ``tol`` on every axis share a cell of side
    2 tol in at least one of the eight lattices shifted by 0 or tol along
    each axis; a group is a chain of such shared cells.
    """
    cells = [_row_index(np.floor(vertices / (2.0 * tol) + shift))
             for shift in itertools.product((0.0, 0.5), repeat=3)]
    group = np.arange(len(vertices))
    while True:
        before = group
        for cell in cells:
            low = np.full(cell.max() + 1, len(vertices))
            np.minimum.at(low, cell, group)
            group = low[cell]
        if np.array_equal(group, before):
            return group


def _dedup(vertices, faces):
    vertices = np.asarray(vertices, dtype=float)
    faces = np.asarray(faces, dtype=np.int64)
    if len(vertices) == 0 or len(faces) == 0:
        raise ParseError("mesh has no geometry")
    span = vertices.max(axis=0) - vertices.min(axis=0)
    diag = float(np.linalg.norm(span))
    if diag == 0.0:
        raise ParseError("mesh is degenerate (zero bounding box)")
    tol = DEDUP_RELATIVE_TOL * diag
    first, group = np.unique(_weld_groups(vertices, tol), return_inverse=True)
    new_vertices = vertices[first]
    new_faces = group[faces]
    # drop faces that collapsed during welding
    good = (
        (new_faces[:, 0] != new_faces[:, 1])
        & (new_faces[:, 1] != new_faces[:, 2])
        & (new_faces[:, 2] != new_faces[:, 0])
    )
    return new_vertices, new_faces[good]


def _parse_stl_binary(data):
    if len(data) < 84:
        raise ParseError("binary STL shorter than its 84-byte header")
    (count,) = struct.unpack_from("<I", data, 80)
    expected = 84 + 50 * count
    if len(data) != expected:
        raise ParseError(f"binary STL length {len(data)} != expected {expected}")
    rec = np.frombuffer(data, dtype=np.uint8, count=50 * count, offset=84)
    rec = rec.reshape(count, 50)
    tri = rec[:, 12:48].copy().view("<f4").reshape(count, 3, 3).astype(float)
    vertices = tri.reshape(-1, 3)
    faces = np.arange(3 * count, dtype=np.int64).reshape(count, 3)
    return _dedup(vertices, faces)


def _parse_stl_ascii(text):
    verts = []
    nvert_in_facet = 0
    in_solid = False
    closed = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tok = line.split()
        key = tok[0].lower()
        if key == "solid":
            in_solid = True
        elif key == "vertex":
            if len(tok) < 4:
                raise ParseError(f"bad vertex line: {line!r}")
            try:
                verts.append([float(tok[1]), float(tok[2]), float(tok[3])])
            except ValueError as exc:
                raise ParseError(f"bad vertex line: {line!r}") from exc
            nvert_in_facet += 1
        elif key == "endfacet":
            if nvert_in_facet != 3:
                raise ParseError("facet without exactly 3 vertices")
            nvert_in_facet = 0
        elif key == "endsolid":
            closed = True
    if not in_solid or not closed:
        raise ParseError("truncated ASCII STL (missing solid/endsolid)")
    if nvert_in_facet:
        raise ParseError("truncated ASCII STL (open facet)")
    if not verts:
        raise ParseError("ASCII STL contains no vertices")
    vertices = np.asarray(verts, dtype=float)
    if len(vertices) % 3:
        raise ParseError("ASCII STL vertex count not a multiple of 3")
    faces = np.arange(len(vertices), dtype=np.int64).reshape(-1, 3)
    return _dedup(vertices, faces)


def _parse_obj(text):
    verts = []
    faces = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "v":
            if len(tok) < 4:
                raise ParseError(f"bad OBJ vertex: {line!r}")
            try:
                verts.append([float(tok[1]), float(tok[2]), float(tok[3])])
            except ValueError as exc:
                raise ParseError(f"bad OBJ vertex: {line!r}") from exc
        elif tok[0] == "f":
            idx = []
            for part in tok[1:]:
                head = part.split("/")[0]
                try:
                    i = int(head)
                except ValueError as exc:
                    raise ParseError(f"bad OBJ face: {line!r}") from exc
                idx.append(i - 1 if i > 0 else len(verts) + i)
            if len(idx) < 3:
                raise ParseError(f"OBJ face with <3 vertices: {line!r}")
            for k in range(1, len(idx) - 1):  # fan triangulation
                faces.append([idx[0], idx[k], idx[k + 1]])
    if not faces:
        raise ParseError("OBJ contains no faces")
    vertices = np.asarray(verts, dtype=float)
    faces = np.asarray(faces, dtype=np.int64)
    if faces.min() < 0 or faces.max() >= len(vertices):
        raise ParseError("OBJ face index out of range")
    return _dedup(vertices, faces)


def _sniff_format(data):
    if len(data) >= 84:
        (count,) = struct.unpack_from("<I", data, 80)
        if len(data) == 84 + 50 * count:
            return "stl-binary"
    head = data[:512].lstrip()
    if head.startswith(b"solid"):
        return "stl-ascii"
    for line in data.splitlines():
        s = line.strip()
        if s.startswith(b"v ") or s.startswith(b"f "):
            return "obj"
        if s and not s.startswith(b"#"):
            break
    raise ParseError("cannot identify mesh format (expected STL or OBJ)")


def _path_format(path):
    """The mesh format that the suffix of ``path`` declares, "stl" or "obj",
    or None (auto-detect) for any other suffix."""
    ext = Path(path).suffix.lower().lstrip(".")
    return ext if ext in ("stl", "obj") else None


def load_mesh(source, fmt=None):
    """Load a triangle mesh from STL (binary or ASCII) or Wavefront OBJ.

    ``source`` may be a path, bytes, or a binary file-like object.
    ``fmt`` is ``"stl"``, ``"obj"`` or ``None`` to auto-detect.  The mesh
    is vertex-welded, checked watertight, and oriented outward.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
        fmt = _path_format(source) if fmt is None else fmt
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            data = data.encode()
    else:
        raise ParseError(f"unsupported mesh source {type(source).__name__}")

    if fmt == "stl":
        kind = _sniff_format(data)
        if kind == "obj":
            raise ParseError("declared stl but content looks like OBJ")
    elif fmt == "obj":
        kind = "obj"
    elif fmt is None:
        kind = _sniff_format(data)
    else:
        raise ParseError(f"unknown mesh format {fmt!r}")

    if kind == "stl-binary":
        vertices, faces = _parse_stl_binary(data)
    elif kind == "stl-ascii":
        vertices, faces = _parse_stl_ascii(data.decode("ascii", errors="replace"))
    else:
        vertices, faces = _parse_obj(data.decode("utf-8", errors="replace"))
    return TriangleMesh(vertices, faces)
