"""Khinchin families: the tilted probability laws attached to a power series.

A power series f with non-negative coefficients and f(0) > 0 induces, for
each radius t inside the disk of convergence, the law P(X_t = n) = a_n t^n
/ f(t). This module holds the family container plus the probabilistic
operations on it: mass, moments, characteristic function, fulcrum
derivatives, Chernoff bounds and the structural diagnostics.

Evaluation is organized around logs: a family must know ln f(t) (and
optionally ln f(z) for complex z); the mean, the variance and the third and
fourth fulcrum derivatives are the derivatives of order 1 to 4 of the
fulcrum s -> ln f(e^s), i.e. the first four cumulants of X_t, each
supplied by the family itself, none by numerical differentiation. Moments
up to order 4 come from these cumulants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import series as se
from .errors import (
    ComplexEvalUnavailable,
    DerivativeOrderUnavailable,
    DomainError,
    NoCoefficientAccess,
    RadiusOutOfRange,
    ZeroInSector,
    ZeroMean,
)
from .numerics import LogNumber, log_of_fraction

# Maximum-term comparison constant from the Chebyshev argument:
# f(t) <= (1/H) * mu(f, t) * (1 + sigma_f(t)) with H = 1/(4*sqrt(2)).
MAX_TERM_H = 1.0 / (4.0 * math.sqrt(2.0))


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    row = [1] + [0] * n
    for m in range(1, n + 1):
        new = [0] * (n + 1)
        for j in range(1, m + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


@dataclass(frozen=True)
class Family:
    """An evaluable generating function together with its family data.

    ``log_value`` is ln f(t) on (0, radius); ``mean`` and ``variance`` are
    m_f and sigma_f^2. ``fulcrum34`` returns the third and fourth fulcrum
    derivatives at s = ln t (the third and fourth cumulants of X_t).
    ``log_value_complex`` is any branch of log f(z); only
    exp(log f(z) - log f(t)) is ever consumed, which is branch-free.

    ``log_value_circle``, when given, takes a radius t and returns an
    evaluator of ln f on the circle |z| = t that must agree with
    ``log_value_complex`` there. It does the work that depends only on the
    radius once, for callers that evaluate many angles at one t (see
    ``circle_evaluator``). ``dataclasses.replace(fam, log_value_complex=g)``
    keeps it, so those callers go on evaluating the family's own ln f;
    replace ``log_value_circle`` too, or set it to None, to route them
    through g.

    ``oracle`` is the one route to the exact coefficients: a function of no
    arguments that returns the truncated series, or None when the family
    has no coefficient access. ``coeffs`` calls it. ``make_family`` passes
    one that builds on its first call and keeps the result;
    ``family_from_coeffs`` one that returns its series.
    ``dataclasses.replace`` hands the oracle on without calling it, and
    ``replace(fam, oracle=None)`` drops it.
    """

    name: str
    radius: float
    mean_sup: float
    log_value: Callable[[float], float]
    mean: Callable[[float], float]
    variance: Callable[[float], float]
    fulcrum34: Callable[[float], tuple[float, float]]
    log_value_complex: Callable[[complex], complex] | None = None
    log_value_circle: Callable[[float], Callable[[complex], complex]] | None = None
    q_gcd: int = 1
    usg: bool = False
    boundary_variance: float | None = None
    spec_key: str | None = None
    meta: dict = field(default_factory=dict, compare=False)
    oracle: Callable[[], se.CoeffSeries] | None = field(default=None, compare=False, repr=False)

    @property
    def coeffs(self) -> se.CoeffSeries | None:
        return None if self.oracle is None else self.oracle()

    def check_radius(self, t: float) -> None:
        if not math.isfinite(t):
            raise RadiusOutOfRange(f"t={t} must be finite")
        if t <= 0:
            raise RadiusOutOfRange(f"t={t} must be positive")
        if t > self.radius:
            raise RadiusOutOfRange(f"t={t} outside radius {self.radius}")
        if t == self.radius and math.isinf(self.mean_sup):
            raise RadiusOutOfRange(f"t={t} on the boundary needs a finite mean limit")


@dataclass(frozen=True)
class KhinchinPoint:
    t: float
    f_t: float
    m_t: float
    var_t: float


def point(fam: Family, t: float) -> KhinchinPoint:
    fam.check_radius(t)
    return KhinchinPoint(t, math.exp(fam.log_value(t)), fam.mean(t), fam.variance(t))


# -- mass and normalization ----------------------------------------------------


def log_mass(fam: Family, t: float, n: int) -> LogNumber:
    """P(X_t = n) as a LogNumber; requires coefficient access."""
    fam.check_radius(t)
    if fam.coeffs is None:
        raise NoCoefficientAccess(f"{fam.name} has no coefficient access")
    if fam.coeffs.coeff(n) == 0:
        return LogNumber.zero()
    return LogNumber.from_log(next(_log_masses(fam, t, n, n, fam.log_value(t))))


def _log_masses(fam: Family, t: float, lo: int, hi: int, log_f: float) -> Iterator[float]:
    """ln P(X_t = n) = ln a_n + n ln t - ln f(t) for n = lo..hi, -inf where
    a_n = 0, given log_f = ln f(t); ln t is taken once. The caller checks t
    and the coefficient access."""
    cs = fam.coeffs.coeffs
    log_t = math.log(t)
    for n in range(lo, hi + 1):
        c = cs[n]
        yield -math.inf if c == 0 else log_of_fraction(c) + n * log_t - log_f


def mass(fam: Family, t: float, n: int) -> float:
    if t == 0:  # degenerate point mass at zero
        return 1.0 if n == 0 else 0.0
    return log_mass(fam, t, n).to_float()


def mass_total(fam: Family, t: float) -> tuple[float, float]:
    """Sum of the truncated masses plus a certified tail bound.

    The tail uses the geometric majorant at the comparison radius t* = 2t
    (entire f) or (t + R)/2: sum_{n>N} a_n t^n <= (t/t*)^{N+1} f(t*), so the
    reported pair satisfies total + tail >= 1 >= total.
    """
    fam.check_radius(t)
    if fam.coeffs is None:
        raise NoCoefficientAccess(f"{fam.name} has no coefficient access")
    t_star = 2.0 * t if math.isinf(fam.radius) else 0.5 * (t + fam.radius)
    if not t < t_star < fam.radius:
        raise RadiusOutOfRange(f"no comparison radius strictly between t = {t} and R = {fam.radius}")
    log_f = fam.log_value(t)
    n_top = fam.coeffs.order
    total = math.fsum(math.exp(x) for x in _log_masses(fam, t, 0, n_top, log_f))
    log_tail = (n_top + 1) * (math.log(t) - math.log(t_star)) + fam.log_value(t_star) - log_f
    tail = math.exp(log_tail) if log_tail < 700.0 else math.inf
    return total, tail


# -- moments -------------------------------------------------------------------


def _cumulants(fam: Family, t: float, order: int) -> list[float]:
    """Cumulants kappa_1..kappa_order of X_t (order <= 4); evaluates only
    the ones asked for."""
    fam.check_radius(t)
    out = [fam.mean(t)]
    if order > 1:
        out.append(fam.variance(t))
    if order > 2:
        out.extend(fam.fulcrum34(math.log(t)))
    return out[:order]


def _factorial_moments(kappa: list[float]) -> list[float]:
    """Factorial moments of orders 1..len(kappa) from the cumulants kappa
    (at most four), through the raw moments."""
    j = len(kappa)
    m1 = kappa[0]
    ex = [1.0, m1]
    if j >= 2:
        ex.append(kappa[1] + m1 * m1)
    if j >= 3:
        ex.append(kappa[2] + 3.0 * kappa[1] * m1 + m1**3)
    if j >= 4:
        ex.append(kappa[3] + 4.0 * kappa[2] * m1 + 3.0 * kappa[1] ** 2
                  + 6.0 * kappa[1] * m1 * m1 + m1**4)
    out = [ex[1]]
    if j >= 2:
        out.append(ex[2] - ex[1])
    if j >= 3:
        out.append(ex[3] - 3.0 * ex[2] + 2.0 * ex[1])
    if j >= 4:
        out.append(ex[4] - 6.0 * ex[3] + 11.0 * ex[2] - 6.0 * ex[1])
    return out


def factorial_moment(fam: Family, t: float, j: int) -> float:
    """E[X_t (X_t - 1) ... (X_t - j + 1)] = t^j f^(j)(t) / f(t)."""
    if j < 0:
        raise ValueError("factorial moment order must be >= 0")
    fam.check_radius(t)
    if j == 0:
        return 1.0
    if j > 4:
        return _direct_moment_sum(fam, t, j, factorial=True)
    return _factorial_moments(_cumulants(fam, t, j))[-1]


def moment(fam: Family, t: float, k: int) -> float:
    """E[X_t^k] via Stirling numbers over factorial moments (k <= 4),
    falling back to direct coefficient sums for higher k."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if k > 4:
        return _direct_moment_sum(fam, t, k, factorial=False)
    fm = _factorial_moments(_cumulants(fam, t, k))
    return math.fsum(stirling2(k, j) * fm[j - 1] for j in range(1, k + 1))


def central_moment(fam: Family, t: float, k: int) -> float:
    if k < 1:
        raise ValueError("central moment order must be >= 1")
    fam.check_radius(t)
    if k == 1:
        return 0.0
    if k == 2:
        return fam.variance(t)
    if k <= 4:
        k3, k4 = fam.fulcrum34(math.log(t))
        return k3 if k == 3 else k4 + 3.0 * fam.variance(t) ** 2
    m = fam.mean(t)
    return _direct_weighted_sum(fam, t, lambda n: (n - m) ** k)


def _direct_moment_sum(fam: Family, t: float, k: int, factorial: bool) -> float:
    if fam.coeffs is None:
        raise DerivativeOrderUnavailable(
            f"order {k} needs coefficient access for {fam.name}"
        )

    if factorial:

        def w(n: float) -> float:
            acc = 1.0
            for i in range(k):
                acc *= n - i
            return acc

    else:

        def w(n: float) -> float:
            return n**k

    return _direct_weighted_sum(fam, t, w)


def _direct_weighted_sum(fam: Family, t: float, weight: Callable[[float], float]) -> float:
    if fam.coeffs is None:
        raise NoCoefficientAccess(f"{fam.name} has no coefficient access")
    fam.check_radius(t)
    terms = enumerate(_log_masses(fam, t, 0, fam.coeffs.order, fam.log_value(t)))
    return math.fsum(weight(float(n)) * math.exp(x) for n, x in terms if x > -math.inf)


# -- characteristic and moment generating functions ----------------------------


def circle_evaluator(fam: Family, t: float) -> Callable[[complex], complex]:
    """ln f on the circle |z| = t: the family's ``log_value_circle`` at t,
    or else ``log_value_complex`` itself."""
    if fam.log_value_circle is not None:
        return fam.log_value_circle(t)
    return fam.log_value_complex


def charfn(fam: Family, t: float, theta: float) -> complex:
    """E[e^{i theta X_t}] = f(t e^{i theta}) / f(t)."""
    fam.check_radius(t)
    if fam.log_value_complex is None:
        raise ComplexEvalUnavailable(f"{fam.name} has no complex evaluation")
    z = t * cmath.exp(1j * theta)
    return cmath.exp(fam.log_value_complex(z) - fam.log_value(t))


def mgf(fam: Family, t: float, lam: float) -> float:
    """E[e^{lam X_t}] = f(t e^lam) / f(t)."""
    fam.check_radius(t)
    t2 = t * math.exp(lam)
    if t2 >= fam.radius:
        raise RadiusOutOfRange(f"t*e^lambda = {t2} reaches the radius {fam.radius}")
    return math.exp(fam.log_value(t2) - fam.log_value(t))


def fulcrum_derivs(fam: Family, s: float, max_order: int = 4) -> tuple[float, ...]:
    """Derivatives F', F'', F''', F'''' of F(s) = ln f(e^s)."""
    if not 1 <= max_order <= 4:
        raise DerivativeOrderUnavailable("fulcrum derivatives available up to order 4")
    t = math.exp(s)
    if t >= fam.radius:
        raise RadiusOutOfRange(f"e^s = {t} outside radius {fam.radius}")
    return tuple(_cumulants(fam, t, max_order))


# -- Chernoff bounds -----------------------------------------------------------


def chernoff_sigma(fam: Family, t: float, lam_max: float) -> float:
    """Sigma(s, Lambda) = 2 max_{0<|u|<=Lambda} (F'(s+u) - F'(s)) / u, 1024 steps a side."""
    fam.check_radius(t)
    s = math.log(t)
    if t * math.exp(lam_max) >= fam.radius:
        raise RadiusOutOfRange("t*e^Lambda must stay inside the radius")
    m0 = fam.mean(t)
    best = 0.0
    for i in range(1, 1025):
        u = lam_max * i / 1024
        for uu in (u, -u):
            val = (fam.mean(math.exp(s + uu)) - m0) / uu
            if val > best:
                best = val
    return 2.0 * best


def chernoff_bound(fam: Family, t: float, y: float, lam_max: float) -> float:
    """Two-sided tail bound P(|X_t - m| > y), capped at 1."""
    if y < 0:
        raise ValueError("deviation y must be >= 0")
    sig = chernoff_sigma(fam, t, lam_max)
    if y <= lam_max * sig:
        bound = 2.0 * math.exp(-y * y / (2.0 * sig))
    else:
        bound = 2.0 * math.exp(-lam_max * y / 2.0)
    return min(1.0, bound)


# -- structural diagnostics ----------------------------------------------------


def clan_ratio(fam: Family, t: float) -> float:
    """sigma_f(t) / m_f(t); small values signal concentration."""
    fam.check_radius(t)
    m = fam.mean(t)
    if m <= 0:
        raise ZeroMean(f"mean vanishes at t={t}")
    return math.sqrt(fam.variance(t)) / m


@dataclass(frozen=True)
class GapStats:
    window_gap: int
    tail_gap_estimate: int
    q_gcd: int
    provisional: bool


def gap_stats(fam: Family) -> GapStats:
    """Index-gap statistics over the truncated coefficient window.

    Both gaps are window statistics, hence lower estimates of the true
    sup/limsup; the q estimate is provisional when fewer than 8 nonzero
    coefficients are visible.
    """
    if fam.coeffs is None:
        raise NoCoefficientAccess(f"{fam.name} has no coefficient access")
    nz = fam.coeffs.nonzero_indices()
    if len(nz) < 2:
        return GapStats(0, 0, 1, True)
    gaps = [b - a for a, b in zip(nz, nz[1:])]
    half = len(gaps) // 2
    tail_gap = max(gaps[half:]) if gaps[half:] else max(gaps)
    return GapStats(max(gaps), tail_gap, se.support_gcd(fam.coeffs), len(nz) < 8)


def zero_free_halfwidth(fam: Family, t: float) -> float:
    """Angular half-width pi / (2 sigma_f(t)) of the guaranteed zero-free sector.

    With complex evaluation, f(z) / f(t) is checked for a zero at 256 angles
    on each side of the axis, through the circle evaluator at t and with
    ln f(t) computed once. A zero, whether ln f fails there (``cmath.log(0)``
    raises) or returns a -inf real part, raises ``ZeroInSector``.
    """
    fam.check_radius(t)
    hw = math.pi / (2.0 * math.sqrt(fam.variance(t)))
    if fam.log_value_complex is not None:
        log_f = fam.log_value(t)
        log_f_circle = circle_evaluator(fam, t)
        for i in range(256):
            theta = (i + 0.5) / 256 * min(hw, math.pi)
            for th in (theta, -theta):
                z = t * cmath.exp(1j * th)
                try:
                    w = log_f_circle(z) - log_f
                except (ValueError, ZeroDivisionError):
                    w = -math.inf
                if cmath.exp(w) == 0:  # as it is for every w with a -inf real part
                    raise ZeroInSector(f"{fam.name} vanishes at {z}, inside the sector")
    return hw


def max_term(fam: Family, t: float) -> tuple[int, LogNumber]:
    """Largest term max_n a_n t^n of the truncated series, as (index, value)."""
    if fam.coeffs is None:
        raise NoCoefficientAccess(f"{fam.name} has no coefficient access")
    fam.check_radius(t)
    log_t = math.log(t)
    best_n, best = -1, -math.inf
    for n, c in enumerate(fam.coeffs.coeffs):
        if c > 0:
            v = log_of_fraction(c) + n * log_t
            if v > best:
                best_n, best = n, v
    if best_n < 0:
        raise NoCoefficientAccess("series has no positive coefficients")
    return best_n, LogNumber.from_log(best)


# -- building families from raw coefficients -----------------------------------


def family_from_coeffs(
    coeffs: se.CoeffSeries,
    name: str = "custom",
    radius: float = math.inf,
) -> Family:
    """Family backed purely by a truncated coefficient list.

    Evaluations are straight finite sums, so the result is only trustworthy
    at radii where the discarded tail is negligible; its intended use is as
    an independent cross-check oracle in tests (products, subordination) and
    for polynomial data, where the truncation is the whole function.
    """
    try:
        pairs = [(n, float(c)) for n, c in enumerate(coeffs.coeffs) if c != 0]
    except OverflowError:
        raise DomainError("a coefficient does not fit a float") from None
    if not pairs or coeffs.coeffs[0] <= 0:
        raise ValueError("coefficient family needs a positive constant term")

    def f_at(t: float) -> float:
        return math.fsum(c * t**n for n, c in pairs)

    def log_value(t: float) -> float:
        return math.log(f_at(t))

    def mean_fn(t: float) -> float:
        f = f_at(t)
        return math.fsum(n * c * t**n for n, c in pairs) / f

    def variance_fn(t: float) -> float:
        f = f_at(t)
        m = mean_fn(t)
        ex2 = math.fsum(n * n * c * t**n for n, c in pairs) / f
        return ex2 - m * m

    def fulcrum34_fn(s: float) -> tuple[float, float]:
        t = math.exp(s)
        f = f_at(t)
        m = mean_fn(t)
        mu3 = math.fsum((n - m) ** 3 * c * t**n for n, c in pairs) / f
        mu4 = math.fsum((n - m) ** 4 * c * t**n for n, c in pairs) / f
        var = variance_fn(t)
        return mu3, mu4 - 3.0 * var * var

    dense = [complex(float(c)) for c in coeffs.coeffs]

    def log_complex_dense(z: complex) -> complex:
        acc = complex(0.0)
        for c in reversed(dense):
            acc = acc * z + c
        return cmath.log(acc)

    def overflow_named(fn: Callable, stat: str) -> Callable:
        # c * t**n raises OverflowError once t**n leaves the float range.
        def in_range(x: float):
            try:
                return fn(x)
            except OverflowError:
                raise DomainError(f"{stat} of {name} at {x} overflows a float") from None

        return in_range

    return Family(
        name=name,
        radius=radius,
        mean_sup=float(coeffs.order) if math.isinf(radius) else math.inf,
        log_value=overflow_named(log_value, "ln f"),
        mean=overflow_named(mean_fn, "mean"),
        variance=overflow_named(variance_fn, "variance"),
        log_value_complex=log_complex_dense,
        oracle=lambda: coeffs,
        q_gcd=se.support_gcd(coeffs),
        fulcrum34=overflow_named(fulcrum34_fn, "fulcrum derivatives"),
    )
