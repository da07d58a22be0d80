"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid grid, solver, or experiment configuration."""


class SingularBasisError(ValueError):
    """Reconstruction vectors requested at a degenerate wavenumber."""


class QuadratureError(RuntimeError):
    """Panel refinement failed to converge.

    Carries the last value, the last refinement delta, and the depth reached
    so callers can report how far the refinement got.
    """

    def __init__(self, message, *, value=None, last_delta=None, depth=None):
        super().__init__(message)
        self.value = value
        self.last_delta = last_delta
        self.depth = depth


class BlowUpError(RuntimeError):
    """Time integration produced non-finite coefficients after ``last_valid_time``;
    every sample ``solver.run`` took before them is in the caller's trajectory."""

    def __init__(self, message, *, last_valid_time=0.0):
        super().__init__(message)
        self.last_valid_time = last_valid_time


class SnapshotFormatError(ValueError):
    """Snapshot file failed magic or version validation."""


class DiagnosticIntegrityError(RuntimeError):
    """A hard diagnostic invariant failed; inside ``solver.run`` every sample
    taken before the failure is in the caller's trajectory."""


class IncompleteHistoryError(ValueError):
    """Diagnostics history has gaps or does not cover the requested window."""


class AuditResolutionError(RuntimeError):
    """Finite-difference error too large for the requested audit cadence."""


class AuditInapplicableError(ValueError):
    """Audit weights diverge for the supplied profile or exponents."""


class FitDomainError(ValueError):
    """Decay fit requested on non-positive values, t <= -1 or too few samples."""
