"""STL/OBJ parsing, welding, watertightness, and orientation repair."""

import math

import numpy as np
import pytest

from cslsurf.errors import InvertedOrientation, NonWatertightMesh, ParseError
from cslsurf.geometry import (
    TriangleMesh,
    box_mesh,
    icosphere,
    load_mesh,
    mesh_to_obj,
)
from cslsurf.geometry.mesh import DEDUP_RELATIVE_TOL


class TestStl:
    def test_ascii_unit_cube(self, cube_stl_ascii):
        mesh = load_mesh(cube_stl_ascii)
        assert len(mesh.vertices) == 8
        assert len(mesh.faces) == 12
        assert mesh.volume() == pytest.approx(1.0, rel=1e-12)
        assert mesh.area() == pytest.approx(6.0, rel=1e-12)

    def test_binary_unit_cube(self, cube_stl_binary):
        mesh = load_mesh(cube_stl_binary)
        assert len(mesh.vertices) == 8
        assert len(mesh.faces) == 12
        assert mesh.volume() == pytest.approx(1.0, rel=1e-6)

    def test_binary_across_file(self, cube_stl_binary, tmp_path):
        path = tmp_path / "cube.stl"
        path.write_bytes(cube_stl_binary)
        mesh = load_mesh(path)
        assert mesh.volume() == pytest.approx(1.0, rel=1e-6)

    def test_truncated_binary(self, cube_stl_binary):
        with pytest.raises(ParseError):
            load_mesh(cube_stl_binary[:-7])

    def test_truncated_ascii(self, cube_stl_ascii):
        text = cube_stl_ascii.decode()
        cut = text[: text.rindex("endsolid") - 40]
        with pytest.raises(ParseError):
            load_mesh(cut.encode())

    def test_bad_vertex_line(self):
        bad = b"solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0\nendloop\nendfacet\nendsolid x\n"
        with pytest.raises(ParseError):
            load_mesh(bad)

    def test_declared_stl_but_obj(self):
        with pytest.raises(ParseError):
            load_mesh(b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", fmt="stl")


class TestObj:
    def test_icosphere_volume_against_analytic(self):
        # 20 * 4^5 = 20480 facets; analytic ball volume is the oracle
        mesh = icosphere(1.0, 5)
        assert len(mesh.faces) == 20480
        text = mesh_to_obj(mesh)
        loaded = load_mesh(text.encode(), fmt="obj")
        assert len(loaded.faces) == 20480
        exact = 4 * math.pi / 3
        assert abs(loaded.volume() - exact) / exact < 1e-3

    def test_slash_syntax_and_quads(self):
        text = (
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
            "v 0 0 1\nv 1 0 1\nv 1 1 1\nv 0 1 1\n"
            "f 1/1/1 3/3/3 2/2/2\nf 1 4 3\n"
            "f 5 6 7 8\n"            # quad -> fan
            "f 1 2 6 5\nf 2 3 7 6\nf 3 4 8 7\nf 4 1 5 8\n"
        )
        mesh = load_mesh(text.encode())
        assert len(mesh.vertices) == 8
        assert len(mesh.faces) == 12
        assert mesh.volume() == pytest.approx(1.0, rel=1e-12)

    def test_negative_indices(self):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf -4 -3 -2\nf -4 -2 -1\nf -4 -1 -3\nf -3 -1 -2\n"
        mesh = load_mesh(text.encode())
        assert len(mesh.faces) == 4
        assert mesh.volume() == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_no_faces(self):
        with pytest.raises(ParseError):
            load_mesh(b"v 0 0 0\nv 1 0 0\nv 0 1 0\n")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            load_mesh(b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")


    def test_non_finite_vertex_is_refused(self):
        # the mesh loaded with a NaN volume, and a Mesh of it then called
        # itself too large
        text = mesh_to_obj(box_mesh(1.0, 1.0, 1.0)).replace("v 0.5 0.5 0.5", "v nan 0.5 0.5")
        assert "nan" in text
        with pytest.raises(ParseError, match="vertices is not finite"):
            load_mesh(text.encode())


class TestTopology:
    def test_open_edge_rejected(self):
        cube = box_mesh(1.0, 1.0, 1.0)
        with pytest.raises(NonWatertightMesh):
            TriangleMesh(cube.vertices, cube.faces[:-1])

    def test_inconsistent_winding_rejected(self):
        cube = box_mesh(1.0, 1.0, 1.0)
        faces = cube.faces.copy()
        faces[0] = faces[0, ::-1]
        with pytest.raises(InvertedOrientation):
            TriangleMesh(cube.vertices, faces)

    def test_inward_mesh_is_flipped(self):
        cube = box_mesh(1.0, 1.0, 1.0)
        inverted = cube.faces[:, ::-1]
        mesh = TriangleMesh(cube.vertices, inverted)
        assert mesh.volume() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mesh", [
        *(icosphere(1.3, n, center=(0.4, -0.7, 1.1)) for n in range(4)),
        box_mesh(1.0, 2.0, 3.0),
        box_mesh(0.3, 5.0, 1.7, center=(-2.0, 0.5, 3.0)),
    ], ids=["ico0", "ico1", "ico2", "ico3", "box", "box_off"])
    def test_two_volume_accumulations_agree(self, mesh):
        # the divergence theorem, V = (1/3) sum c.n dA with c the face
        # centroid: an accumulation apart from volume()'s origin tetrahedra
        centroids = np.mean(mesh.vertices[mesh.faces], axis=1)
        v = np.einsum("ij,ij->", centroids, mesh.face_cross()) / 6.0  # face_cross = 2A n
        assert abs(mesh.volume() - v) <= 1e-12 * abs(v)


def _soup_stl(triangles):
    """ASCII STL text of a triangle soup, (m, 3, 3) corners, to full precision."""
    lines = ["solid soup"]
    for tri in triangles:
        lines += ["facet normal 0 0 0", "outer loop",
                  *(f"vertex {x:.17g} {y:.17g} {z:.17g}" for x, y, z in tri),
                  "endloop", "endfacet"]
    return ("\n".join(lines + ["endsolid soup"]) + "\n").encode()


def _soup_obj(triangles):
    """OBJ text of a triangle soup: three vertices of its own per face."""
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in triangles.reshape(-1, 3)]
    lines += [f"f {3 * i + 1} {3 * i + 2} {3 * i + 3}" for i in range(len(triangles))]
    return "\n".join(lines) + "\n"


class TestWelding:
    # a mesh is always watertight, so the exploded soups are written as text
    def test_jittered_vertices_weld(self):
        cube = box_mesh(1.0, 1.0, 1.0)
        # exploded triangle soup with jitter below the weld tolerance
        soup = np.stack(cube.corners(), axis=1)
        rng = np.random.default_rng(3)
        soup = soup + rng.uniform(-1e-12, 1e-12, soup.shape)
        mesh = load_mesh(_soup_stl(soup))
        assert len(mesh.vertices) == 8
        assert len(mesh.faces) == 12

    def test_copies_straddling_a_rounding_boundary_weld(self):
        # the soup's copies of corner (0.5, 0.5, 0.5) sit 0.1 tol apart, on
        # either side of a half-multiple of tol, where rounding to a tol
        # lattice splits them; the bounding box, and so tol, is unchanged
        cube = box_mesh(1.0, 1.0, 1.0)
        soup = np.stack(cube.corners(), axis=1)
        tol = DEDUP_RELATIVE_TOL * math.sqrt(3.0)
        boundary = (math.floor(0.5 / tol) - 2 + 0.5) * tol
        copies = np.all(soup == 0.5, axis=2)
        soup[copies, 0] = boundary + np.where(np.arange(copies.sum()) % 2, 0.05, -0.05) * tol
        mesh = load_mesh(_soup_obj(soup).encode(), fmt="obj")
        assert len(mesh.vertices) == 8
        assert len(mesh.faces) == 12
        assert mesh.volume() == pytest.approx(1.0, rel=1e-6)

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ParseError):
            load_mesh(b"v 0 0 0\nv 0 0 0\nv 0 0 0\nf 1 2 3\nf 1 3 2\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_vertices_are_refused(value):
    cube = box_mesh(1.0, 1.0, 1.0)
    vertices = cube.vertices.copy()
    vertices[3, 1] = value
    with pytest.raises(ParseError, match="vertices is not finite"):
        TriangleMesh(vertices, cube.faces)
