"""Exception types shared across the toolkit."""


class InvalidDimensionError(ValueError):
    """Complex dimension is missing, non-positive, or too small for the request."""


class DegreeError(ValueError):
    """Form degree out of range for the ambient space."""


class DegeneratePlaneError(ValueError):
    """Spanning vectors are (numerically) linearly dependent, zero, or not finite."""


class SpaceMismatchError(ValueError):
    """Operands live over different ambient spaces."""


class PreconditionError(ValueError):
    """An operation-specific precondition failed."""


class ResourceLimitError(RuntimeError):
    """Request exceeds a configured cap (dimension or count) or double-precision range."""


class DegenerateSampleError(RuntimeError):
    """A random draw projected to (numerically) zero; retry with another seed."""


class IdentityInconsistencyError(RuntimeError):
    """An internally solved linear system was singular or self-inconsistent."""


class DegenerateDenominatorError(ValueError):
    """Ratio denominator vanished relative to the reference scale."""


class NotNegativelyCurvedError(ValueError):
    """Quarter-pinching normalization needs a strictly negative curvature maximum."""


class TensorFormatError(ValueError):
    """Tensor file is malformed or fails basic consistency checks."""
