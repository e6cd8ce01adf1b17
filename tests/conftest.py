import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from cslsurf.geometry import box_mesh, mesh_to_stl


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_rotations(n, seed=7):
    """Deterministic batch of uniformly random rotation matrices."""
    return Rotation.random(n, random_state=seed).as_matrix()


@pytest.fixture
def cube_stl_ascii():
    return mesh_to_stl(box_mesh(1.0, 1.0, 1.0), ascii_format=True)


@pytest.fixture
def cube_stl_binary():
    return mesh_to_stl(box_mesh(1.0, 1.0, 1.0))


def held_columns(record):
    """The (y, z) columns, as indices y nz' + z of the half spectrum, of each
    block of a spectrum record, read from its gather map: all of them where
    the record is one block.  Each block holds the slice of the column order
    that its ``columns`` names; the map sends a held column to its place in
    that order and every other column past it."""
    blocks, place = record[0], record[2]
    if place is None:
        return [slice(None)]
    order = np.argsort(place, axis=None, kind="stable")
    return [order[b.columns] for b in blocks]
