"""Collapse-noise dephasing and heating rates of rigid homogeneous bodies.

Every rate follows from one Lindblad term, d<p_i p_j>/dt = 2 hbar^2
Lambda_ij with Lambda = c S, S the translational surface tensor and

    c = 2 pi lambda sigma^2 rho^2 / m_N^2        [1 / (s m^4)]

(lambda the collapse rate, sigma the localization length, rho the
material density, m_N the nucleon mass).  A displacement delta dephases
at delta . Lambda . delta, and the center of mass heats at
hbar^2 tr Lambda / M = hbar^2 c A / M, since tr S = A, the full boundary
area.  The same form, d<L_i L_j>/dt = 2 hbar^2 c S_rot,ij with L = I omega,
gives the rotational heating hbar^2 c tr(I^-1 S_rot), I the inertia tensor
about the centroid, and the angular dephasing c s_rot d_phi^2 about a
principal axis of S_rot.  Heating rates are in watts.  The total heating
3 hbar^2 lambda M / (2 m_N^2 sigma^2), whose 3/2 acceptance criterion 07
pins, is twice the free-nucleon heating that this term implies (Lambda =
lambda / (4 sigma^2) per nucleon and axis); the number is left as it is
until ROADMAP item 26 settles it.
"""

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateDimension, SingularInertia, ValidityWarning
from .geometry.patches import _array, _scalar
from .tensors import _psd, clamp_psd, principal_axes

#: quadratic (momentum-diffusion) regime is quantitative for |delta| << sigma;
#: warn above this fraction
DELTA_VALIDITY_FRACTION = 0.3


@dataclass(frozen=True)
class CslParams:
    """Universal collapse parameters and physical constants (SI).

    Defaults are the conventional collapse rate 1e-16 1/s and
    localization length 1e-7 m, with CODATA values for the atomic mass
    unit and hbar.  Each field's ``unit`` metadata is the dimension its
    configured quantities are parsed in (hbar, in J s, takes plain numbers).
    """

    collapse_rate: float = field(default=1e-16, metadata={"unit": "rate"})
    localization_length: float = field(default=1e-7, metadata={"unit": "length"})
    nucleon_mass: float = field(default=1.66053906660e-27, metadata={"unit": "mass"})
    hbar: float = field(default=1.054571817e-34, metadata={"unit": "dimensionless"})

    def __post_init__(self):
        for f in fields(self):
            value = _scalar(f.name, getattr(self, f.name), 0.0, open=True)
            object.__setattr__(self, f.name, value)


def _density_squared(density):
    """rho^2, the one density check of every rate and oracle scaling with it:
    a density that is not positive and finite, or whose square overflows,
    raises :class:`DegenerateDimension`."""
    density = _scalar("density", density, 0.0, open=True)
    try:
        return density**2
    except OverflowError:
        raise DegenerateDimension(f"density {density} is too large to square") from None


def dephasing_prefactor(density, params: CslParams) -> float:
    """c = 2 pi lambda sigma^2 rho^2 / m_N^2, in 1/(s m^4); a density or c
    that is not finite raises :class:`DegenerateDimension`."""
    lam = params.collapse_rate
    sig = params.localization_length
    c = 2.0 * math.pi * lam * sig**2 * _density_squared(density) / params.nucleon_mass**2
    if not math.isfinite(c):
        raise DegenerateDimension(f"the CSL prefactor overflows at density {density}")
    return c


@dataclass
class DephasingMatrix:
    """Positional dephasing quadratic-form matrix, units 1/(s m^2); one that
    is not PSD (:func:`~cslsurf.tensors.is_psd`) raises :class:`DegenerateDimension`."""

    matrix: np.ndarray
    params: CslParams

    def __post_init__(self):
        self.matrix = _psd("matrix", self.matrix)[0]


def dephasing_matrix(surface_tensor, density, params: CslParams) -> DephasingMatrix:
    """Dephasing matrix c * S from the translational surface tensor S; an S
    that is not a finite real 3x3 tensor raises :class:`DegenerateDimension`."""
    c = dephasing_prefactor(density, params)
    return DephasingMatrix(clamp_psd(c * _array("tensor", surface_tensor, (3, 3))), params)


def superposition_dephasing_rate(dephasing: DephasingMatrix, delta) -> float:
    """Decay rate (1/s) of a superposition displaced by ``delta`` (m).

    rate = delta . Lambda . delta.  Quantitative in the small-displacement
    regime; a :class:`ValidityWarning` is emitted when |delta| exceeds
    0.3 sigma (the quadratic form keeps growing where the true rate
    saturates).  A ``delta`` that is not a 3-vector of finite real
    numbers raises :class:`DegenerateDimension`.
    """
    d = _array("delta", delta, (3,))
    sep = float(np.linalg.norm(d))
    sigma = dephasing.params.localization_length
    if sep > DELTA_VALIDITY_FRACTION * sigma:
        warnings.warn(
            f"|delta| = {sep:.3g} m exceeds {DELTA_VALIDITY_FRACTION} sigma; "
            "quadratic dephasing rate overestimates the saturated rate",
            ValidityWarning,
            stacklevel=2,
        )
    return float(d @ dephasing.matrix @ d)


def angular_dephasing_coefficient(axial_strength, density, params: CslParams) -> float:
    """Angular dephasing coefficient c * (axial rotational strength).

    The dephasing rate of an angular superposition d_phi about the same
    axis is coefficient * d_phi^2; units 1/(s rad^2).  A strength that is
    not a non-negative finite real number raises :class:`DegenerateDimension`.
    """
    c = dephasing_prefactor(density, params)
    return c * _scalar("axial strength", axial_strength, 0.0)


def com_heating_rate(total_area, mass, density, params: CslParams) -> float:
    """Center-of-mass heating power (W): hbar^2 c A / M.

    Equivalently hbar^2 (2 pi lambda sigma^2 rho / m_N^2) (A / V); the
    two forms agree identically since M = rho V.  A is the full boundary
    area including cavity walls.
    """
    total_area = _scalar("area", total_area, 0.0, open=True)
    mass = _scalar("mass", mass, 0.0, open=True)
    c = dephasing_prefactor(density, params)
    return params.hbar**2 * c * total_area / mass


def total_heating_rate(mass, params: CslParams) -> float:
    """Total heating power over all constituents: 3 hbar^2 lambda M / (2 m_N^2 sigma^2)."""
    mass = _scalar("mass", mass, 0.0, open=True)
    lam = params.collapse_rate
    sig = params.localization_length
    return 1.5 * params.hbar**2 * lam * mass / (params.nucleon_mass**2 * sig**2)


def rotational_heating_rate(rotational_tensor, inertia, density, params: CslParams) -> float:
    """Rotational heating power (W): hbar^2 c Tr(I^-1 S_rot).

    ``inertia`` is the inertia tensor about the centroid.  A tensor that
    is not finite, real and 3x3, or a rotational tensor that is not PSD,
    raises :class:`DegenerateDimension`.
    """
    inertia, s_rot = _array("inertia", inertia, (3, 3)), _psd("tensor", rotational_tensor)[0]
    vals = np.linalg.eigvalsh(0.5 * (inertia + inertia.T))
    if vals.min() <= 1e-12 * max(vals.max(), 0.0) or vals.min() <= 0.0:
        raise SingularInertia(f"inertia tensor is singular: eigenvalues {vals}")
    c = dephasing_prefactor(density, params)
    return params.hbar**2 * c * float(np.trace(np.linalg.solve(inertia, s_rot)))


@dataclass
class RateReport:
    """Bundle of all rates for one body and parameter set."""

    dephasing: DephasingMatrix                 # 1/(s m^2)
    angular_coefficients: np.ndarray           # (3,) 1/(s rad^2), per principal axis
    angular_axes: np.ndarray                   # (3, 3) eigenvector columns
    com_heating: float                         # W
    total_heating: float                       # W
    rotational_heating: float                  # W
    com_fraction: float                        # Gamma_cm / Gamma_total

    def __post_init__(self):
        self.angular_coefficients = _array("angular coefficients", self.angular_coefficients, (3,))
        self.angular_axes = _array("angular axes", self.angular_axes, (3, 3))


def rate_report(surface_tensor, rotational_tensor, mass_props, density,
                params: CslParams) -> RateReport:
    """Assemble every rate from the two surface tensors and bulk properties."""
    dm = dephasing_matrix(surface_tensor, density, params)
    c = dephasing_prefactor(density, params)
    s_rot = clamp_psd(rotational_tensor)
    vals, vecs = principal_axes(s_rot)
    gamma_cm = com_heating_rate(mass_props.area, mass_props.mass, density, params)
    gamma_tot = total_heating_rate(mass_props.mass, params)
    gamma_rot = rotational_heating_rate(s_rot, mass_props.inertia, density, params)
    return RateReport(
        dephasing=dm,
        angular_coefficients=c * vals,
        angular_axes=vecs,
        com_heating=gamma_cm,
        total_heating=gamma_tot,
        rotational_heating=gamma_rot,
        com_fraction=gamma_cm / gamma_tot,
    )
