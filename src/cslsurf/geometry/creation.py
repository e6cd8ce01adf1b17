"""Procedural mesh generators, mainly for tests and examples."""

import numpy as np

from .mesh import TriangleMesh
from .patches import _array, _scalar


def box_mesh(a, b, c, center=(0.0, 0.0, 0.0)):
    """Axis-aligned box as a 12-triangle mesh; each side must be positive and
    finite (:class:`DegenerateDimension`)."""
    a, b, c = (_scalar(f"side {n}", s, 0.0, open=True) for n, s in zip("abc", (a, b, c)))
    hx, hy, hz = a / 2.0, b / 2.0, c / 2.0
    v = np.array([
        [-hx, -hy, -hz], [hx, -hy, -hz], [hx, hy, -hz], [-hx, hy, -hz],
        [-hx, -hy, hz], [hx, -hy, hz], [hx, hy, hz], [-hx, hy, hz],
    ]) + _array("center", center, (3,))
    f = np.array([
        [0, 2, 1], [0, 3, 2],      # bottom (z = -hz)
        [4, 5, 6], [4, 6, 7],      # top
        [0, 1, 5], [0, 5, 4],      # y = -hy
        [2, 3, 7], [2, 7, 6],      # y = +hy
        [1, 2, 6], [1, 6, 5],      # x = +hx
        [3, 0, 4], [3, 4, 7],      # x = -hx
    ])
    return TriangleMesh(v, f)


def icosphere(radius=1.0, subdivisions=3, center=(0.0, 0.0, 0.0)):
    """Geodesic sphere from a subdivided icosahedron (20 * 4^n faces); the
    radius must be positive and finite and the subdivisions a non-negative
    integer (:class:`DegenerateDimension`)."""
    radius = _scalar("radius", radius, 0.0, open=True)
    subdivisions = _scalar("subdivisions", subdivisions, 0, integer=True)
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
    vlist = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = np.asarray(vlist[i]) + np.asarray(vlist[j])
                m /= np.linalg.norm(m)
                cache[key] = len(vlist)
                vlist.append(tuple(m))
            return cache[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nxt += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = nxt
    vertices = np.asarray(vlist) * radius + _array("center", center, (3,))
    return TriangleMesh(vertices, np.asarray(faces, dtype=np.int64))


def mesh_to_obj(mesh):
    """Serialize a mesh to Wavefront OBJ text."""
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces]
    return "\n".join(lines) + "\n"


def mesh_to_stl(mesh, ascii_format=False, name="mesh"):
    """Serialize a mesh to STL bytes (binary by default)."""
    normals = mesh.face_normals()
    p0, p1, p2 = mesh.corners()
    if ascii_format:
        out = [f"solid {name}"]
        for n, a, b, c in zip(normals, p0, p1, p2):
            out.append(f"  facet normal {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}")
            out.append("    outer loop")
            for v in (a, b, c):
                out.append(f"      vertex {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
            out.append("    endloop")
            out.append("  endfacet")
        out.append(f"endsolid {name}")
        return ("\n".join(out) + "\n").encode()
    import struct

    blob = bytearray(b"\0" * 80)
    blob += struct.pack("<I", len(mesh.faces))
    for n, a, b, c in zip(normals, p0, p1, p2):
        blob += struct.pack("<12f", *n, *a, *b, *c)
        blob += b"\0\0"
    return bytes(blob)
