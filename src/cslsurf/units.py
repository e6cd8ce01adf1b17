"""Parsing of quantity strings with unit suffixes into SI floats.

Accepted inputs are plain numbers (interpreted as SI) or strings like
``"1e-5 cm"``, ``"2 g/cm^3"``, ``"60 deg"``.  Whitespace between the
number and the unit is optional.
"""

import re

from .errors import ConfigError

_LENGTH = {
    "m": 1.0,
    "cm": 1e-2,
    "mm": 1e-3,
    "um": 1e-6,
    "µm": 1e-6,
    "nm": 1e-9,
    "A": 1e-10,
    "angstrom": 1e-10,
}

_DENSITY = {
    "kg/m^3": 1.0,
    "kg/m3": 1.0,
    "g/cm^3": 1e3,
    "g/cm3": 1e3,
    "g/cc": 1e3,
    "g/ml": 1e3,
}

_MASS = {"kg": 1.0, "g": 1e-3, "mg": 1e-6, "amu": 1.66053906660e-27}

_RATE = {"1/s": 1.0, "s^-1": 1.0, "s-1": 1.0, "hz": 1.0, "Hz": 1.0}

_ANGLE = {"rad": 1.0, "deg": 3.141592653589793 / 180.0, "°": 3.141592653589793 / 180.0}

_TABLES = {
    "length": _LENGTH,
    "density": _DENSITY,
    "mass": _MASS,
    "rate": _RATE,
    "angle": _ANGLE,
    "dimensionless": {},
}

_NUMBER = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")


def parse_quantity(value, dimension):
    """Convert ``value`` to an SI float.

    ``value`` may be a number (returned as-is) or a string with an
    optional unit suffix from the table for ``dimension`` (one of
    ``length``, ``density``, ``mass``, ``rate``, ``angle``,
    ``dimensionless``).  A bare numeric string is taken as SI.  Any
    other type, a bool included, or an integer past the float range
    raises :class:`ConfigError`.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"quantity {value!r} is out of the float range") from None
    if not isinstance(value, str):
        raise ConfigError(f"cannot parse quantity {value!r} of type {type(value).__name__}")
    m = _NUMBER.match(value)
    if not m:
        raise ConfigError(f"malformed quantity: {value!r}")
    number, unit = float(m.group(1)), m.group(2)
    if not unit:
        return number
    try:
        table = _TABLES[dimension]
    except KeyError:
        raise ConfigError(f"unknown dimension {dimension!r}") from None
    # case-sensitive first (m vs M), then a lowercase retry for convenience
    if unit in table:
        return number * table[unit]
    if unit.lower() in table:
        return number * table[unit.lower()]
    raise ConfigError(f"unknown {dimension} unit {unit!r} in {value!r}")


def parse_vector(value, dimension):
    """Parse a 3-sequence (or comma-separated string) of quantities."""
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"expected 3 components, got {value!r}")
    return [parse_quantity(v, dimension) for v in value]
