"""Exception types shared across the engine."""


class FeynGKZError(Exception):
    """Base class for all engine errors."""


class PoleError(FeynGKZError):
    """A Gamma factor or Pochhammer symbol was evaluated at a pole."""


class InconsistentPair(FeynGKZError):
    """A standard pair leads to an unsolvable exponent system."""


class UnderdeterminedPair(FeynGKZError):
    """A standard pair leaves the exponent system underdetermined."""


class DimensionMismatch(FeynGKZError):
    """An input is missing, malformed, misshapen or not integral."""


class SingularM(FeynGKZError):
    """The loop-momentum bilinear form has identically zero determinant."""


class DeformationFailed(FeynGKZError):
    """No admissible deformation monomial could be inserted."""


class NoZeroComponent(FeynGKZError):
    """An exponent vector has no vanishing component, so the Gamma-product
    prescription for its integration constant does not apply."""


class UnassignedParameter(FeynGKZError):
    """An expression names a parameter that the assignment gives no value."""


class NonPositiveCoefficient(FeynGKZError):
    """A coefficient of g is zero or negative, outside the positive orthant
    where the integral and its series are defined."""


class NonConvergent(FeynGKZError):
    """A Beta step or the exact gate shows that the integral diverges."""


class DivergentArgument(FeynGKZError):
    """A series was evaluated outside its region of convergence."""


class NonFiniteValue(FeynGKZError):
    """A series or oracle value came out as inf or nan."""
