"""The analytic solids' surface tensors are exact to rounding.

Each solid's quadrature rule integrates both surface tensors exactly at
every resolution: summed without rounding, trace(S) is the closed-form
area, and S and S_rot do not move when the resolution is raised fourfold.
The bodies sit on a tilted axis off the origin, bare and with a centred
spherical cavity; the elliptic cylinder takes axis ratios down to 0.01,
whose ring needs far more points than a round one.  ``surface_tensor`` and
``rotational_surface_tensor`` sum the patches one after another; on these
bodies that sum stays within 1e-12 of the rule's exact value (at most
5.8e-13 of the area, on the flattest ellipse's 240,896 patches).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cslsurf.geometry import (
    Box,
    ConeCappedCylinder,
    Cylinder,
    EllipticCylinder,
    GappedCylinder,
    Sphere,
    mass_properties,
    quadrature,
)
from cslsurf.tensors import rotational_surface_tensor, surface_tensor

AXIS = (1.0, 2.0, 3.0)
CENTER = (0.3, -0.2, 0.1)

# each body and the radius of the largest sphere about its center inside it
BODIES = {
    "sphere": (Sphere(1.0, center=CENTER), 1.0),
    "cylinder": (Cylinder(1.0, 3.0, axis=AXIS, center=CENTER), 1.0),
    "box": (Box((1.0, 2.0, 3.0), center=CENTER), 0.5),
    "cone": (ConeCappedCylinder(1.0, 2.0, 1.0, axis=AXIS, center=CENTER), 1.0),
    **{f"elliptic-{q}": (EllipticCylinder(1.0, q, 3.0, axis=AXIS, center=CENTER), q)
       for q in (0.6, 0.1, 0.01)},
    # two gaps leave a solid segment of length 3 at the center
    "gapped": (GappedCylinder(1.0, 10.0, 2, 0.5, axis=AXIS, center=CENTER), 1.0),
}


def _exact_tensors(patches, origin):
    """S, S_rot and the sum of w |r|^2 about ``origin``, each entry summed
    without rounding (math.fsum of the per-patch terms)."""
    w, n = patches.weights, patches.normals
    rxn = np.cross(patches.points - origin, n)
    s = np.array([[math.fsum(w * n[:, i] * n[:, j]) for j in range(3)] for i in range(3)])
    s_rot = np.array([[math.fsum(w * rxn[:, i] * rxn[:, j]) for j in range(3)]
                      for i in range(3)])
    r2 = math.fsum(w * np.einsum("pi,pi->p", patches.points - origin, patches.points - origin))
    return s, s_rot, r2


@pytest.mark.parametrize("resolution", [1, 3, 8, 32])
@pytest.mark.parametrize("cavity", [False, True], ids=["bare", "cavity"])
@pytest.mark.parametrize("name", BODIES)
def test_analytic_tensors_are_exact(name, cavity, resolution):
    spec, inner = BODIES[name]
    if cavity:
        spec = replace(spec, cavities=(Sphere(0.5 * inner, center=CENTER),))
    props = mass_properties(spec, 1.0)
    origin = props.centroid
    patches, fine = quadrature(spec, resolution), quadrature(spec, 4 * resolution)
    s, s_rot, r2 = _exact_tensors(patches, origin)
    s4, s_rot4, _ = _exact_tensors(fine, origin)
    # the rule: its area is the closed form, and a finer rule changes nothing
    assert abs(np.trace(s) - props.area) <= 1e-13 * props.area
    assert np.abs(s - s4).max() <= 1e-13 * np.abs(s4).max()
    # S_rot's entries are bounded by the sum of w |r|^2 (the sphere's are 0)
    assert np.abs(s_rot - s_rot4).max() <= 1e-13 * r2
    # the library's sums: the exact ones to the rounding of a long sum
    assert np.abs(surface_tensor(patches) - s).max() <= 1e-12 * props.area
    assert np.abs(rotational_surface_tensor(patches, origin) - s_rot).max() <= 1e-12 * r2
