"""Khinchin families: the tilted probability laws attached to a power series.

A power series f with non-negative coefficients and f(0) > 0 induces, for
each radius t inside the disk of convergence, the law P(X_t = n) = a_n t^n
/ f(t). This module holds the family container plus the probabilistic
operations on it: mass, moments, characteristic function, fulcrum
derivatives, Chernoff bounds and the structural diagnostics.

Evaluation is organized around logs: a family must know ln f(t), and ln f
on each circle |z| = t inside the radius; the mean, the variance and the
third and fourth fulcrum derivatives are the derivatives of order 1 to 4 of
the fulcrum s -> ln f(e^s), i.e. the first four cumulants of X_t, each
supplied by the family itself, none by numerical differentiation. Moments
up to order 4 come from these cumulants.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from . import series as se
from .errors import (
    DerivativeOrderUnavailable,
    DomainError,
    IndexBeyondTruncation,
    RadiusOutOfRange,
    WindowTooNarrow,
    ZeroInSector,
    ZeroMean,
)
from .numerics import LogNumber, log_of_fraction

if TYPE_CHECKING:  # catalog imports this module
    from .catalog import FamilySpec

# Maximum-term comparison constant from the Chebyshev argument:
# f(t) <= (1/H) * mu(f, t) * (1 + sigma_f(t)) with H = 1/(4*sqrt(2)).
MAX_TERM_H = 1.0 / (4.0 * math.sqrt(2.0))


class Oracle:
    """Exact coefficients a_0..a_n, built by ``build(n)`` on the first ask and
    kept; an ask past them rebuilds through n, or twice the kept order if
    that is more, never past ``cap``, so a widening reader pays few builds."""

    def __init__(self, build: Callable[[int], se.CoeffSeries], cap: int) -> None:
        self.build = build
        self.cap = cap
        self.kept: se.CoeffSeries | None = None

    def __call__(self, n: int) -> se.CoeffSeries:
        if self.kept is None or self.kept.order < n:
            grown = n if self.kept is None else max(n, min(self.cap, 2 * self.kept.order))
            self.kept = self.build(grown)
        return self.kept.truncate(n)


@dataclass(frozen=True)
class Family:
    """An evaluable generating function together with its family data.

    ``log_value`` is ln f(t) on (0, radius); ``mean`` and ``variance`` are
    m_f and sigma_f^2. ``fulcrum34`` returns the third and fourth fulcrum
    derivatives at s = ln t (the third and fourth cumulants of X_t).

    ``log_value_circle`` takes a radius t and returns an evaluator of any
    branch of ln f on the circle |z| = t, having done once the work that
    depends only on t; only exp(ln f(z) - ln f(t)) is ever consumed, which
    is branch-free (``log_charfn``).

    ``oracle`` is the one route to the exact coefficients, an ``Oracle``
    whose cap no build may pass. A reader asks ``coeffs_through(n)`` for the
    window it needs; ``coeffs`` reads through the cap.
    ``dataclasses.replace`` hands the oracle on without calling it.

    ``spec`` is the catalog spec a family was made from, None for one made
    from raw coefficients.
    """

    name: str
    radius: float
    mean_sup: float
    log_value: Callable[[float], float]
    mean: Callable[[float], float]
    variance: Callable[[float], float]
    fulcrum34: Callable[[float], tuple[float, float]]
    log_value_circle: Callable[[float], Callable[[complex], complex]]
    oracle: Oracle = field(compare=False, repr=False)
    q_gcd: int = 1
    usg: bool = False
    boundary_variance: float | None = None
    spec: FamilySpec | None = None
    log_value_complex = None  # not a field; perfbench/tracing.py reads the name

    @property
    def coeffs(self) -> se.CoeffSeries:
        return self.coeffs_through(self.oracle.cap)

    @property
    def degree(self) -> float:
        """The degree of a polynomial (entire, with a finite mean limit), else inf."""
        return self.mean_sup if math.isinf(self.radius) else math.inf

    def coeffs_through(self, n: int) -> se.CoeffSeries:
        """a_0..a_n exactly; IndexBeyondTruncation past the oracle's cap, save
        the zeros past a polynomial's degree within it."""
        if n < 0:
            raise IndexBeyondTruncation(f"index {n} is negative")
        if n <= self.oracle.cap:
            return self.oracle(n)
        if self.degree <= self.oracle.cap:
            return self.oracle(int(self.degree)).pad(n)
        cap = self.oracle.cap
        raise IndexBeyondTruncation(f"{self.name} is truncated at order {cap} < {n} (--trunc)")

    def check_radius(self, t: float) -> None:
        if not math.isfinite(t):
            raise RadiusOutOfRange(f"t={t} must be finite")
        if t <= 0:
            raise RadiusOutOfRange(f"t={t} must be positive")
        if t > self.radius:
            raise RadiusOutOfRange(f"t={t} outside radius {self.radius}")
        if t == self.radius and math.isinf(self.mean_sup):
            raise RadiusOutOfRange(f"t={t} on the boundary needs a finite mean limit")


# -- mass and normalization ----------------------------------------------------


def log_mass(fam: Family, t: float, n: int) -> LogNumber:
    """P(X_t = n) as a LogNumber."""
    fam.check_radius(t)
    if n > fam.degree:  # past a polynomial's degree, unread
        return LogNumber.zero()
    cs = fam.coeffs_through(n)
    if cs.coeff(n) == 0:
        return LogNumber.zero()
    return LogNumber.from_log(next(_log_masses(cs, t, n, n, fam.log_value(t))))


def _log_masses(cs: se.CoeffSeries, t: float, lo: int, hi: int, log_f: float) -> Iterator[float]:
    """ln P(X_t = n) = ln a_n + n ln t - ln f(t) for n = lo..hi, -inf where
    a_n = 0, from the coefficients cs (through at least hi), given log_f =
    ln f(t); ln t is taken once. The caller checks t."""
    cs = cs.coeffs
    log_t = math.log(t)
    for n in range(lo, hi + 1):
        c = cs[n]
        yield -math.inf if c == 0 else log_of_fraction(c) + n * log_t - log_f


def mass(fam: Family, t: float, n: int) -> float:
    if t == 0:  # degenerate point mass at zero
        return 1.0 if n == 0 else 0.0
    return log_mass(fam, t, n).to_float()


# -- the law's window -----------------------------------------------------------

# A window reader stops where its certified tail is at most this share of
# what it has summed: the unit roundoff, below the last bit of the sum.
_TAIL_SHARE = 2.0**-53


def _law_top(fam: Family, t: float, k: int = 0, log_share: float = math.log(_TAIL_SHARE)) -> int:
    """The least N with a certified bound on sum_{n > N} n^k P(X_t = n)
    at most e^log_share (the sum is 0 past a polynomial's degree).

    For t < t* < R and r = t/t*, a_n t^n <= f(t*) r^n, so the sum is at most
    f(t*)/f(t) times the largest x^k r^x over x > N, at max(N + 1, k/ln(1/r));
    the bound is the smaller at t* = 2t (entire f) or (t + R)/2 and at t e^u,
    u sigma the deviation where a Gaussian tail reaches the unit roundoff,
    when that is nearer. It does not grow with N.
    """
    mid = 2.0 * t if math.isinf(fam.radius) else 0.5 * (t + fam.radius)
    if not t < mid < fam.radius:
        raise RadiusOutOfRange(f"no comparison radius strictly between t = {t} and R = {fam.radius}")
    var = fam.variance(t)
    gauss = t * math.exp(math.sqrt(-2.0 * math.log(_TAIL_SHARE) / var)) if var > 0.0 else mid
    log_t, log_f = math.log(t), fam.log_value(t)
    radii = [(math.log(s) - log_t, fam.log_value(s) - log_f)
             for s in ([mid, gauss] if t < gauss < mid else [mid])]

    def certified(n: int) -> bool:
        peaks = [(max(n + 1.0, k / log_r), log_r, c) for log_r, c in radii]
        bound = min(k * math.log(x) - x * log_r + c for x, log_r, c in peaks)
        return n >= fam.degree or bound <= log_share

    hi = 0
    while not certified(hi):
        if hi > 2**53:
            raise WindowTooNarrow(f"no certified window of {fam.name} ends below 2^53")
        hi = 2 * hi + 1
    return bisect.bisect_left(range(hi + 1), True, key=certified)


def _window(fam: Family, t: float, top: int | None = None) -> se.CoeffSeries:
    """The coefficients through top, by default through the law's window at
    t (``_law_top``: its certified tail mass is at most the unit roundoff);
    WindowTooNarrow when the oracle's cap cuts the window."""
    fam.check_radius(t)
    if top is None:
        top = _law_top(fam, t)
    try:
        return fam.coeffs_through(top)
    except IndexBeyondTruncation as exc:
        raise WindowTooNarrow(f"the window of {fam.name} at t={t} reaches {top}: {exc}") from None


def mass_total(fam: Family, t: float) -> tuple[float, float]:
    """Sum of the masses over the law's window at t, and the unit roundoff,
    which bounds the rest: total + tail >= 1 >= total."""
    cs = _window(fam, t)
    total = math.fsum(math.exp(x) for x in _log_masses(cs, t, 0, cs.order, fam.log_value(t)))
    return total, _TAIL_SHARE


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


def _raw_moments(fam: Family, t: float, k: int) -> list[float]:
    """E[X_t], ..., E[X_t^k] (k <= 4) from the cumulants."""
    kappa = _cumulants(fam, t, k)
    m1 = kappa[0]
    ex = [m1]
    if k >= 2:
        ex.append(kappa[1] + m1 * m1)
    if k >= 3:
        ex.append(kappa[2] + 3.0 * kappa[1] * m1 + m1**3)
    if k >= 4:
        ex.append(kappa[3] + 4.0 * kappa[2] * m1 + 3.0 * kappa[1] ** 2
                  + 6.0 * kappa[1] * m1 * m1 + m1**4)
    return ex


def factorial_moment(fam: Family, t: float, j: int) -> float:
    """E[X_t (X_t - 1) ... (X_t - j + 1)] = t^j f^(j)(t) / f(t): from the
    raw moments for j <= 4, by direct coefficient sums past that."""
    if j < 0:
        raise ValueError("factorial moment order must be >= 0")
    fam.check_radius(t)
    if j == 0:
        return 1.0
    if j > 4:
        return _direct_weighted_sum(fam, t, lambda n: math.prod(n - i for i in range(j)), j)
    ex = _raw_moments(fam, t, j)
    if j == 1:
        return ex[0]
    if j == 2:
        return ex[1] - ex[0]
    if j == 3:
        return ex[2] - 3.0 * ex[1] + 2.0 * ex[0]
    return ex[3] - 6.0 * ex[2] + 11.0 * ex[1] - 6.0 * ex[0]


def moment(fam: Family, t: float, k: int) -> float:
    """E[X_t^k]: from the cumulants for k <= 4, by direct coefficient sums
    past that."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if k > 4:
        return _direct_weighted_sum(fam, t, lambda n: n**k, k)
    return _raw_moments(fam, t, k)[-1]


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
    return _direct_weighted_sum(fam, t, lambda n: (n - m) ** k, k)


def _direct_weighted_sum(fam: Family, t: float, weight: Callable[[float], float],
                         k: int = 0) -> float:
    """E[weight(X_t)] for |weight(n)| <= n^k past the law's window: the sum
    over it, carried on until the certified rest (``_law_top``) is at most
    the unit roundoff times the sum of the absolute terms."""
    cs = _window(fam, t)
    log_f = fam.log_value(t)

    def terms(lo: int, cs: se.CoeffSeries) -> list[float]:
        masses = enumerate(_log_masses(cs, t, lo, cs.order, log_f), lo)
        return [weight(float(n)) * math.exp(x) for n, x in masses if x > -math.inf]

    out = terms(0, cs)
    size = max(math.fsum(abs(v) for v in out), 5e-324)
    top = _law_top(fam, t, k, math.log(_TAIL_SHARE) + math.log(size))
    if top > cs.order:
        out += terms(cs.order + 1, _window(fam, t, top))
    return math.fsum(out)


# -- characteristic and moment generating functions ----------------------------


def log_charfn(fam: Family, t: float) -> Callable[[float], complex]:
    """theta -> ln f(t e^{i theta}) - ln f(t), a logarithm of
    E[e^{i theta X_t}], through the circle evaluator at t and with ln f(t)
    taken once. The caller checks t."""
    log_f, on_circle = fam.log_value(t), fam.log_value_circle(t)
    return lambda theta: on_circle(t * cmath.exp(1j * theta)) - log_f


def charfn(fam: Family, t: float, theta: float) -> complex:
    """E[e^{i theta X_t}] = f(t e^{i theta}) / f(t)."""
    fam.check_radius(t)
    return cmath.exp(log_charfn(fam, t)(theta))


def mgf(fam: Family, t: float, lam: float) -> float:
    """E[e^{lam X_t}] = f(t e^lam) / f(t)."""
    fam.check_radius(t)
    t2 = t * math.exp(lam)
    if not t2 < fam.radius:
        raise RadiusOutOfRange(f"t*e^lambda = {t2} reaches the radius {fam.radius}")
    return math.exp(fam.log_value(t2) - fam.log_value(t))


def fulcrum_derivs(fam: Family, s: float, max_order: int = 4) -> tuple[float, ...]:
    """Derivatives F', F'', F''', F'''' of F(s) = ln f(e^s)."""
    if not 1 <= max_order <= 4:
        raise DerivativeOrderUnavailable("fulcrum derivatives available up to order 4")
    return tuple(_cumulants(fam, math.exp(s), max_order))


# -- Chernoff bounds -----------------------------------------------------------


def chernoff_sigma(fam: Family, t: float, lam_max: float) -> float:
    """Sigma(s, Lambda) = 2 max_{0<|u|<=Lambda} (F'(s+u) - F'(s)) / u, 1024 steps a side."""
    fam.check_radius(t)
    s = math.log(t)
    if not t * math.exp(lam_max) < fam.radius:
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


def gap_stats(fam: Family, t: float) -> GapStats:
    """Index-gap statistics over the law's window at t (see ``_window``).

    Both gaps are window statistics, hence lower estimates of the true
    sup/limsup; the q estimate is provisional when fewer than 8 nonzero
    coefficients are visible.
    """
    cs = _window(fam, t)
    nz = cs.nonzero_indices()
    if len(nz) < 2:
        return GapStats(0, 0, 1, True)
    gaps = [b - a for a, b in zip(nz, nz[1:])]
    half = len(gaps) // 2
    tail_gap = max(gaps[half:]) if gaps[half:] else max(gaps)
    return GapStats(max(gaps), tail_gap, se.support_gcd(cs), len(nz) < 8)


def zero_free_halfwidth(fam: Family, t: float) -> float:
    """Angular half-width pi / (2 sigma_f(t)) of the guaranteed zero-free sector.

    f(z) / f(t) is checked for a zero at 256 angles on each side of the
    axis, through ``log_charfn``. A zero, whether ln f fails there
    (``cmath.log(0)`` raises) or returns a -inf real part, raises
    ``ZeroInSector``.
    """
    fam.check_radius(t)
    hw = math.pi / (2.0 * math.sqrt(fam.variance(t)))
    log_phi = log_charfn(fam, t)
    for i in range(256):
        theta = (i + 0.5) / 256 * min(hw, math.pi)
        for th in (theta, -theta):
            try:
                w = log_phi(th)
            except (ValueError, ZeroDivisionError):
                w = -math.inf
            if cmath.exp(w) == 0:  # as it is for every w with a -inf real part
                z = t * cmath.exp(1j * th)
                raise ZeroInSector(f"{fam.name} vanishes at {z}, inside the sector")
    return hw


def max_term(fam: Family, t: float) -> tuple[int, LogNumber]:
    """Largest term max_n a_n t^n, as (index, value), the first on a tie: a
    scan to the mean, carried on until the certified bound of ``_law_top``
    on the sum of the later terms is below the best found (WindowTooNarrow
    when the oracle's cap cuts the scan)."""
    fam.check_radius(t)
    cs = _window(fam, t, int(fam.mean(t)) + 1)
    logs = list(_log_masses(cs, t, 0, cs.order, 0.0))  # ln a_n t^n, -inf where a_n = 0
    top = _law_top(fam, t, log_share=max(logs) - fam.log_value(t))
    if top > cs.order:
        logs += _log_masses(_window(fam, t, top), t, cs.order + 1, top, 0.0)
    best = max(logs)
    return logs.index(best), LogNumber.from_log(best)


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

    def central(t: float, k: int) -> float:
        # sum (n - m)^k a_n t^n / f(t): no cancellation, unlike E[X^2] - m^2
        m = mean_fn(t)
        return math.fsum((n - m) ** k * c * t**n for n, c in pairs) / f_at(t)

    def fulcrum34_fn(s: float) -> tuple[float, float]:
        t = math.exp(s)
        var = central(t, 2)
        return central(t, 3), central(t, 4) - 3.0 * var * var

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
        variance=overflow_named(lambda t: central(t, 2), "variance"),
        log_value_circle=lambda t: log_complex_dense,
        oracle=Oracle(lambda n: coeffs, coeffs.order),
        q_gcd=se.support_gcd(coeffs),
        fulcrum34=overflow_named(fulcrum34_fn, "fulcrum derivatives"),
    )
