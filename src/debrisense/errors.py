"""Exception and warning types used throughout the package."""


class DebrisenseError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DebrisenseError):
    """Invalid or incomplete configuration data."""


class GeometryError(DebrisenseError):
    """Degenerate or physically inconsistent path geometry."""


class GrazingGeometryError(GeometryError):
    """Scattering geometry too close to grazing for the surface model."""


class MaterialError(DebrisenseError):
    """Unknown material or frequency outside the tabulated range."""


class EqualizationError(DebrisenseError):
    """Channel estimate unusable for zero-forcing equalization."""


class TrainingError(DebrisenseError):
    """SVM training cannot proceed or did not converge."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConvergenceWarning(UserWarning):
    """Series or solver hit its iteration cap before the target tolerance."""


class BlasThreadsWarning(UserWarning):
    """No control was found to run a pool worker's BLAS on one thread."""
