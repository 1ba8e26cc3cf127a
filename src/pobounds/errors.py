"""Exception types shared across the package."""

from __future__ import annotations


class PoboundsError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PoboundsError, ValueError):
    """A distribution, query, or assumption failed an invariant check."""

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


class MalformedValueError(ValidationError):
    """An input field holds a value of the wrong kind, such as ``1.9`` for an
    index or NaN for a mass; the command line names the file it came from."""


class NotAnIntegerError(MalformedValueError, TypeError):
    """A field that must hold an integer holds something else, such as ``1.9``."""


class ConfigError(PoboundsError, ValueError):
    """Inconsistent or unsupported combination of inputs/options."""


class ContradictionError(PoboundsError, ValueError):
    """An event specification is self-contradictory (empty event)."""


class UndefinedConditionalError(PoboundsError, ValueError):
    """A conditional functional was requested on a zero-probability event."""


class MiteIncompatibleError(PoboundsError, ValueError):
    """Data contradicts the unit-increment monotonicity assumption.

    ``violations`` lists (cell description, mass) pairs for every
    identification cell whose computed mass falls below -1e-8.
    """

    def __init__(self, violations: list[tuple[str, float]]):
        detail = "; ".join(f"{name}={mass:.6g}" for name, mass in violations)
        super().__init__(f"identification formulas produce negative mass: {detail}")
        self.violations = violations


class InsufficientDataError(PoboundsError, ValueError):
    """A sample required for estimation is empty."""


class SolverFailureError(PoboundsError, RuntimeError):
    """Numerical breakdown inside the simplex solver.

    Carries the tableau state at the point of failure for post-mortems.
    """

    def __init__(self, message: str, tableau=None, basis=None):
        super().__init__(message)
        self.tableau = tableau
        self.basis = basis


class BootstrapFailureError(PoboundsError, RuntimeError):
    """Every bootstrap replicate was infeasible."""
