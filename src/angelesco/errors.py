"""Exception hierarchy shared by all modules."""


class AngelescoError(Exception):
    """Base class for all package-specific errors."""


class SingularSystem(AngelescoError):
    """A pivot fell below the context tolerance during elimination."""


class ShapeError(AngelescoError):
    """Matrix input violates a structural requirement (symmetry, size cap)."""


class BracketError(AngelescoError):
    """Root bracket does not enclose a sign change."""


class InvalidWeight(AngelescoError):
    """Weight density is not strictly positive near its interval."""


class NormalityFailure(AngelescoError):
    """A multiple-orthogonality linear system was singular."""


class InternalInconsistency(AngelescoError):
    """Two independent computations of the same quantity disagree.

    Usually signals precision exhaustion; raise the mantissa bits.
    """


class ZeroLocationFailure(AngelescoError):
    """Zero counts per interval do not match the multi-index."""


class DomainError(AngelescoError):
    """Evaluation point lies outside the allowed region."""


class SolveFailure(AngelescoError):
    """Newton/continuation failed to converge."""


class RegimeError(AngelescoError):
    """Operation requested outside its support regime in c."""


class ClassificationError(AngelescoError):
    """Sheet labels could not be continued reliably."""


class ConvergenceError(AngelescoError):
    """Fixed-point iteration did not reach the residual target."""


class SourceError(AngelescoError):
    """Coefficient source is missing a requested index."""
