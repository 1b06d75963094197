"""Log-space numbers, special functions and monotone root finding.

All asymptotic magnitudes in this package travel as a :class:`LogNumber`
(sign plus natural log of magnitude); plain floats appear only at the final
formatting step, since quantities like e^{pi*sqrt(2n/3)} overflow doubles
long before the interesting range of n is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import BracketInvalid, DomainError, NoConvergence, UnsupportedOrder

_LN2 = math.log(2.0)

# Bernoulli numbers B_2, B_4, ..., B_16 for Euler-Maclaurin tails.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
)

# zeta'(-b) for b = 0, 1, 2; validated against the reflection-formula oracle
# in the test suite.
#   zeta'(0)  = -ln(2 pi)/2
#   zeta'(-1) = 1/12 - ln A           (A: Glaisher-Kinkelin)
#   zeta'(-2) = -zeta(3)/(4 pi^2)
ZETA_PRIME_NEG = {
    0: -0.9189385332046727,
    1: -0.16542114370045092,
    2: -0.030448457058393270,
}

# zeta(-b) for b = 0, 1, 2 (trivial rational values).
ZETA_NEG = {0: -0.5, 1: -1.0 / 12.0, 2: 0.0}


def log_of_int(n: int) -> float:
    """Natural log of a positive integer of arbitrary size."""
    if n <= 0:
        raise DomainError("log of non-positive integer")
    bits = n.bit_length()
    if bits <= 900:
        return math.log(n)
    shift = bits - 64
    return math.log(n >> shift) + shift * _LN2


def log_of_fraction(q: Fraction) -> float:
    if q <= 0:
        raise DomainError("log of non-positive rational")
    return log_of_int(q.numerator) - log_of_int(q.denominator)


@dataclass(frozen=True)
class LogNumber:
    """A real number stored as sign and log of absolute value."""

    sign: int
    log_abs: float

    @staticmethod
    def zero() -> "LogNumber":
        return LogNumber(0, 0.0)

    @staticmethod
    def from_log(log_abs: float, sign: int = 1) -> "LogNumber":
        return LogNumber(sign, log_abs)

    @staticmethod
    def from_fraction(q: Fraction) -> "LogNumber":
        if q == 0:
            return LogNumber.zero()
        sign = 1 if q > 0 else -1
        return LogNumber(sign, log_of_fraction(abs(q)))

    def __mul__(self, other: "LogNumber") -> "LogNumber":
        if self.sign == 0 or other.sign == 0:
            return LogNumber.zero()
        return LogNumber(self.sign * other.sign, self.log_abs + other.log_abs)

    def __truediv__(self, other: "LogNumber") -> "LogNumber":
        if other.sign == 0:
            raise ZeroDivisionError("division by log-space zero")
        if self.sign == 0:
            return LogNumber.zero()
        return LogNumber(self.sign * other.sign, self.log_abs - other.log_abs)

    def ratio(self, other: "LogNumber") -> float:
        """self/other as a plain float; both must be nonzero."""
        q = self / other
        return q.sign * math.exp(q.log_abs)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.log_abs > 709.0:
            return self.sign * math.inf
        return self.sign * math.exp(self.log_abs)

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogNumber(0)"
        s = "-" if self.sign < 0 else ""
        return f"LogNumber({s}exp({self.log_abs:.6g}))"


@dataclass(frozen=True)
class RootBracket:
    """Interval [lo, hi] known to straddle the target of a monotone map.

    ``g_lo`` and ``g_hi``, when given, are the map's values at the ends, so
    a solver started from the bracket need not evaluate them again.
    """

    lo: float
    hi: float
    g_lo: float | None = field(default=None, compare=False)
    g_hi: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.lo < self.hi):
            raise BracketInvalid(f"bad bracket [{self.lo}, {self.hi}]")


def lambert_w0(x: float) -> float:
    """Principal branch of w*e^w = x for x >= -1/e, by Halley iteration.

    Initial guess: ln x - ln ln x for large x, a branch-point series near
    -1/e, and x*(1 - x) otherwise.
    """
    if x < -1.0 / math.e - 1e-15:
        raise DomainError("lambert_w0 needs x >= -1/e")
    if x == 0.0:
        return 0.0
    if x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)
    elif x < -0.25:
        p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    else:
        w = x * (1.0 - x)
    for _ in range(80):
        ew = math.exp(w)
        r = w * ew - x
        if abs(r) <= 1e-13 * max(1.0, abs(x)):
            return w
        denom = ew * (w + 1.0) - (w + 2.0) * r / (2.0 * w + 2.0)
        w -= r / denom
    raise NoConvergence("lambert_w0 did not converge")


def zeta_real(s: float) -> float:
    """Riemann zeta on the real axis s > 1, Euler-Maclaurin accelerated."""
    if s <= 1.0:
        raise DomainError("zeta_real needs s > 1")
    n_terms = 24
    acc = math.fsum(k ** (-s) for k in range(1, n_terms))
    n = float(n_terms)
    acc += n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    # Tail sum_{k} B_{2k}/(2k)! * (s)(s+1)...(s+2k-2) * n^{-s-2k+1}
    poch = s
    fact = 2.0
    for i, b in enumerate(_BERNOULLI):
        k = i + 1
        acc += float(b) / fact * poch * n ** (-s - 2 * k + 1)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
    return acc


def zeta_prime_neg(b: int) -> float:
    """zeta'(-b) for b in {0, 1, 2}, stored as named constants."""
    if b not in ZETA_PRIME_NEG:
        raise UnsupportedOrder(f"zeta'(-b) only provided for b in {{0,1,2}}, got {b}")
    return ZETA_PRIME_NEG[b]


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (delegates to the C library implementation)."""
    if x <= 0:
        raise DomainError("log_gamma needs x > 0")
    return math.lgamma(x)


def finite_diff(g: Callable[[float], float], t: float, h: float) -> float:
    """Central difference (g(t+h) - g(t-h)) / (2h)."""
    return (g(t + h) - g(t - h)) / (2.0 * h)


def solve_monotone_point(
    g: Callable[[float], float], target: float, bracket: RootBracket
) -> tuple[float, float]:
    """Root t of g(t) = target for increasing g, never leaving the bracket,
    and g(t) as evaluated there.

    Hybrid bisection/secant: a secant step is accepted only when it lands
    strictly inside the current bracket, otherwise the step bisects. Stops
    at |g(t) - target| <= 1e-9 max(1, |target|) with the bracket at most
    1e-13 t wide; gives up after 200 steps.
    """
    lo, hi = bracket.lo, bracket.hi
    tol_value = 1e-9 * max(1.0, abs(target))
    v_lo = g(lo) if bracket.g_lo is None else bracket.g_lo
    v_hi = g(hi) if bracket.g_hi is None else bracket.g_hi
    g_lo = v_lo - target
    g_hi = v_hi - target
    if g_lo > 0 or g_hi < 0:
        raise BracketInvalid("bracket does not straddle the target")
    if g_lo == 0:
        return lo, v_lo
    if g_hi == 0:
        return hi, v_hi
    t = 0.5 * (lo + hi)
    for it in range(200):
        # A pure secant/false-position scheme can stall with one frozen
        # endpoint, so every other step bisects to guarantee width decay.
        if it % 2 == 0 and g_hi != g_lo:
            t_sec = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            t = t_sec if lo < t_sec < hi else 0.5 * (lo + hi)
        else:
            t = 0.5 * (lo + hi)
        v = g(t)
        g_t = v - target
        if g_t < 0:
            lo, g_lo = t, g_t
        else:
            hi, g_hi = t, g_t
        if abs(g_t) <= tol_value and (hi - lo) <= 1e-13 * max(t, 1e-300):
            return t, v
    v = g(t)
    if abs(v - target) <= tol_value:
        return t, v
    raise NoConvergence("no root to tolerance after 200 iterations")


def bracket_increasing(g: Callable[[float], float], target: float, radius: float) -> RootBracket:
    """Find [lo, hi] with g(lo) <= target <= g(hi) for increasing g on (0, radius).

    The lower end starts at min(1, radius/2) and halves toward zero. For
    entire families the upper end starts at 2 and doubles; for finite radius
    it bisects toward the radius.
    """
    lo = min(1.0, radius / 2.0)
    for _ in range(2000):
        g_lo = g(lo)
        if g_lo <= target:
            break
        lo /= 2.0
    else:
        raise BracketInvalid("could not find a lower bracket end")
    if math.isfinite(radius):
        hi = (lo + radius) / 2.0
        for _ in range(2000):
            g_hi = g(hi)
            if g_hi >= target:
                break
            hi = (hi + radius) / 2.0
        else:
            raise BracketInvalid("target not bracketed below the radius")
    else:
        hi = 2.0
        for _ in range(2000):
            g_hi = g(hi)
            if g_hi >= target:
                break
            hi *= 2.0
        else:
            raise BracketInvalid("target not bracketed")
    return RootBracket(lo, hi, g_lo, g_hi)
