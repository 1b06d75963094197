"""Exception hierarchy.

Every domain error carries a stable ``name`` that the CLI echoes verbatim,
so callers can match on it without parsing messages.
"""


class KhinfamError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


# -- series ------------------------------------------------------------------

class ZeroConstantTerm(KhinfamError):
    pass


class NonzeroInnerConstant(KhinfamError):
    pass


class IndexBeyondTruncation(KhinfamError):
    pass


# -- numerics ----------------------------------------------------------------

class DomainError(KhinfamError):
    pass


class UnsupportedOrder(KhinfamError):
    pass


class BracketInvalid(KhinfamError):
    pass


class NoConvergence(KhinfamError):
    pass


# -- khinchin families -------------------------------------------------------

class RadiusOutOfRange(KhinfamError):
    pass


class DerivativeOrderUnavailable(KhinfamError):
    pass


class ZeroMean(KhinfamError):
    pass


class ZeroInSector(KhinfamError):
    pass


# -- catalog -----------------------------------------------------------------

class InvalidSpec(KhinfamError):
    pass


class TruncationTooLarge(KhinfamError):
    pass


class NoApproxAvailable(KhinfamError):
    pass


# -- asymptotics -------------------------------------------------------------

class TargetAboveMeanSup(KhinfamError):
    pass


class QGcdViolation(KhinfamError):
    pass


class MixedResidueClasses(KhinfamError):
    pass


class WindowTooNarrow(KhinfamError):
    pass


# -- large powers ------------------------------------------------------------

class BudgetExceeded(KhinfamError):
    pass


class RatioOutOfBand(KhinfamError):
    pass


class BoundaryVarianceInfinite(KhinfamError):
    pass


class FirstCoefficientZero(KhinfamError):
    pass


class RegimeMismatch(KhinfamError):
    pass


class KTooLarge(KhinfamError):
    pass


class NotUSG(KhinfamError):
    pass


class PrefactorRadiusTooSmall(KhinfamError):
    pass


class NoApplicableRegime(KhinfamError):
    pass


# -- Lagrange / branching ----------------------------------------------------

class MeanSupBelowOne(KhinfamError):
    pass


class IndexBelowJ(KhinfamError):
    pass


class ParameterDomain(KhinfamError):
    pass


class SupercriticalSpec(KhinfamError):
    pass
