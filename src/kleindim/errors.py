"""Exception types shared across the package."""


class KleindimError(Exception):
    """Base class for all package errors."""


class NumericError(KleindimError, ValueError):
    """A computation left nothing usable: a singular or drifted matrix,
    or a sample with no point to plot."""


class ElementNotLoxodromic(KleindimError):
    """Raised when an operation requires a loxodromic element."""


class LengthMismatch(KleindimError):
    """Translation lengths that must agree differ beyond tolerance."""


class PlanesDisjoint(KleindimError):
    """The image plane misses the reference plane entirely."""


class NoDiscreteSolution(KleindimError):
    """The trace equations admit no discrete real solution."""


class GluingResidual(KleindimError):
    """A cuff-matching condition failed beyond tolerance."""


class IncompleteBall(KleindimError):
    """Orbit enumeration did not certify completeness out to the radius."""


class DegenerateScaleWindow(KleindimError):
    """No usable regression window among the supplied scales."""


class EnumerationBudgetExceeded(KleindimError):
    """A word/element enumeration hit its configured budget."""


class UnrealizablePath(KleindimError):
    """A bend path violates its leg/angle constraints."""


class BoundViolation(KleindimError):
    """A theorem-backed bound failed; signals a construction bug."""
