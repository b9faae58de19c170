"""Exception hierarchy for the whole package."""


class QcsolError(Exception):
    """Base class for all library errors."""


class ParseError(QcsolError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalError(QcsolError):
    """Evaluation failed (division by zero, sqrt of a negative, bad domain)."""


class BoundaryMismatchError(EvalError):
    """Adjacent piecewise branches disagree on a shared guard boundary."""


class DimensionError(QcsolError):
    """Mismatched dimensions between a point and a problem/set."""


class NonPolyhedralError(QcsolError):
    """Cone extraction requested on a set with curved atoms."""


class ZeroVectorError(QcsolError):
    """An operation that needs a nonzero vector received a (near-)zero one."""


class KernelError(QcsolError):
    """The LP kernel failed: the simplex exceeded its iteration cap, phase 1
    reported an unbounded objective, or neither branch of Gordan's
    alternative could be certified at the tolerance."""


class InconsistentDichotomyError(QcsolError):
    """Claimed solutions mix zero and nonzero gradients."""


class HypothesisViolatedError(QcsolError):
    """A theorem hypothesis (e.g. nonzero gradient at the anchor) fails."""


class NoMultiplierError(QcsolError):
    """No Lagrange multiplier exists at the given point and tolerance."""


class NotOpenGroundSetError(QcsolError):
    """A characterization needing an open ground set got a constrained one."""


class EmptyGridError(QcsolError):
    """No feasible grid point inside the window."""


class ProblemFormatError(QcsolError):
    """Invalid JSON problem file."""
