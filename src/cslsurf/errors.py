"""Exception and warning types raised across the package."""


class CslsurfError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDimension(CslsurfError, ValueError):
    """A shape or grid parameter is zero, negative, or otherwise unusable."""


class CavityOverlap(CslsurfError, ValueError):
    """Cavities overlap each other or are not strictly inside the host."""


class NonWatertightMesh(CslsurfError, ValueError):
    """Mesh has boundary or non-manifold edges and cannot bound a volume."""


class InvertedOrientation(CslsurfError, ValueError):
    """Mesh winding is inconsistent between neighboring triangles."""


class ParseError(CslsurfError, ValueError):
    """File data (a mesh or a grid) does not parse as the declared format."""


class ResolutionOverflow(CslsurfError, ValueError):
    """Requested quadrature resolution exceeds the patch-count cap."""


class NonUnitAxis(CslsurfError, ValueError):
    """A direction that must be unit length is not."""


class SingularInertia(CslsurfError, ValueError):
    """Inertia tensor is not invertible."""


class GridTooLarge(CslsurfError, ValueError):
    """Voxel grid would exceed the configured memory cap."""


class SpacingTooCoarse(CslsurfError, ValueError):
    """Voxel spacing is too coarse for a validation-quality grid."""


class ShiftOutOfGrid(CslsurfError, ValueError):
    """Displacement exceeds the zero-padding margin of the grid."""


class QuadratureNotConverged(CslsurfError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class UnsupportedShape(CslsurfError, ValueError):
    """Operation is not available for this shape variant."""


class ConfigError(CslsurfError, ValueError):
    """Run configuration is invalid or incomplete."""


class ValidityWarning(UserWarning):
    """A quantitative validity condition of the model is stretched."""
