"""Exception types shared across the package."""


class PdclabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PdclabError):
    """Operator/state spaces do not match."""


class TruncationError(PdclabError):
    """A truncated Fock space is too small for the requested accuracy."""


class IntegratorError(PdclabError):
    """Time integration failed or violated a state invariant."""


class SteadyStateDegenerateError(PdclabError):
    """No unique steady state: the steady-state system is singular.

    The count of the Liouvillian's zero modes, when known, is attached as
    ``kernel_dim``; it exceeds 1 when the null space is degenerate.
    """

    def __init__(self, message: str, kernel_dim: int | None = None):
        super().__init__(message)
        self.kernel_dim = kernel_dim


class SeriesConvergenceError(PdclabError):
    """A series did not converge within its term budget."""


class DivergenceError(PdclabError):
    """A requested quantity is divergent (zero derivative, zero rate)."""


class ResidualError(PdclabError):
    """A computed solution does not satisfy its equations to tolerance."""


class StabilityError(PdclabError):
    """Parameters outside the stable/normal-phase domain of a formula."""


class ConfigError(PdclabError):
    """Scenario configuration is invalid."""
