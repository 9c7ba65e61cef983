"""Exception taxonomy shared across the library.

ValueError subclasses signal contract violations on inputs; RuntimeError
subclasses signal numerical-contract failures discovered mid-computation
(the CLI maps the latter to exit code 3).
"""


class MismatchedDimensions(ValueError):
    """Count table and probability vector disagree in length or ordering."""


class DegenerateProbability(ValueError):
    """A probability sits at 0 or 1 where the operation needs (0, 1)."""


class EmptyLog(ValueError):
    """Event log is empty or below the minimum size for the estimator."""


class InsufficientData(ValueError):
    """Too few or too poorly spread sample points for a fit."""


class NoSignal(RuntimeError):
    """Best periodic fit is indistinguishable from a constant model."""


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotPure(ValueError):
    """Density operator is not a rank-1 projector within tolerance."""


class InsufficientDesign(ValueError):
    """Orientation design does not identify the separation unknowns."""


class NonSeparable(RuntimeError):
    """Frequency data cannot be written as Tr(rho X) within the noise floor."""

    def __init__(self, residual: float, threshold: float):
        self.residual = float(residual)
        self.threshold = float(threshold)
        super().__init__(
            f"separation residual {self.residual:.3e} exceeds threshold "
            f"{self.threshold:.3e}"
        )


class PhaseUndefined(RuntimeError):
    """Phase requested where the amplitude is below the probability floor."""


class UnstableStep(RuntimeError):
    """Time stepper lost norm conservation beyond tolerance."""


class BoundaryContact(RuntimeError):
    """Probability mass reached the hard-wall boundary cells."""


class SchemaMismatch(ValueError):
    """Persisted file does not match the documented schema."""


class CorruptData(ValueError):
    """Persisted file violates its own declared invariants."""
