"""Asymptotics of the k-th coefficient of psi(z)^n across all k/n regimes.

Every estimator but the exact fixed-k polynomial returns a log-space value.
The exact oracle, ``exact_power_coeff``, gives coefficient k of h*psi^n (or
psi^n) in exact rationals from psi and h truncated at k. A polynomial psi of
degree d is powered by Miller's recurrence in integers
(``series.miller_power_coeff``, O(k d)); a series psi by binary
exponentiation (``series.power_coeff``), whose last step is one O(k) dot
product. A shorter truncation is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import series as se
from .errors import (
    BoundaryVarianceInfinite,
    BudgetExceeded,
    FirstCoefficientZero,
    IndexBeyondTruncation,
    KTooLarge,
    LAboveMeanSup,
    NoApplicableRegime,
    NoCoefficientAccess,
    NotUSG,
    PrefactorRadiusTooSmall,
    QGcdViolation,
    RatioOutOfBand,
    RegimeMismatch,
)
from .asym import Estimate, lattice_lead, on_lattice, saddle_log, saddle_solve
from .family import Family
from .numerics import LogNumber, log_of_fraction

CONVOLUTION_BUDGET = 1_000_000_000
SMALL_K_MAX_RATIO = 0.05
LARGE_K_MIN_RATIO = 20.0
FIXED_K_MAX = 64


@dataclass(frozen=True)
class Regime:
    """Which asymptotic regime a (n, k) query falls into."""

    kind: str  # comparable | limit_l | boundary | small_k | small_k_refined | fixed_k | large_k
    a: float | None = None
    b: float | None = None
    l: float | None = None
    omega: float | None = None
    j: int | None = None


@dataclass(frozen=True)
class PowerCoeffQuery:
    psi: Family
    n: int
    k: int
    prefactor: Family | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 0:
            raise ValueError("need power n >= 1 and index k >= 0")


def exact_power_coeff(q: PowerCoeffQuery) -> Fraction:
    """coeff_k(psi^n), or of h*psi^n with a prefactor, exactly.

    Refused, in this order: psi without coefficients, a binary-powering
    cost estimate over CONVOLUTION_BUDGET, a prefactor without
    coefficients, a truncation below k. A polynomial psi (entire, with its
    degree as a finite mean limit) is powered by Miller's recurrence, any
    other psi by binary exponentiation.
    """
    psi, n, k, h = q.psi, q.n, q.k, q.prefactor
    # the oracles are built only past every refusal
    if psi.oracle is None:
        raise NoCoefficientAccess(f"{psi.name} carries no coefficients")
    cost = (k + 1) ** 2 * (2 * max(1, n.bit_length()))
    if cost > CONVOLUTION_BUDGET:
        raise BudgetExceeded(f"estimated {cost} coefficient-multiplies exceeds the budget")
    if h is not None and h.oracle is None:
        raise NoCoefficientAccess("prefactor carries no coefficients")
    a = _coeffs_through(psi, k)
    hc = None if h is None else _coeffs_through(h, k)
    power = se.miller_power_coeff if _is_polynomial(psi) else se.power_coeff
    return power(a, n, k, hc)


def _is_polynomial(fam: Family) -> bool:
    return math.isinf(fam.radius) and math.isfinite(fam.mean_sup)


def _coeffs_through(fam: Family, k: int) -> se.CoeffSeries:
    """fam's coefficients, refused if truncated before index k and fam may
    reach it: an entire fam has degree mean_sup (finite for a polynomial)."""
    coeffs, degree = fam.coeffs, fam.mean_sup if _is_polynomial(fam) else math.inf
    if coeffs.order < min(k, degree):
        raise IndexBeyondTruncation(f"{fam.name} is truncated at order {coeffs.order} < {k}")
    return coeffs


def _estimate(
    method: str, q: PowerCoeffQuery, tau: float, var: float, lead: float = 0.0
) -> Estimate:
    psi, n, k = q.psi, q.n, q.k
    ln = saddle_log(lead, n, psi.log_value(tau), k, tau, var)
    meta = {"n": n, "k": k, "tau": tau, "psi": psi.name}
    return Estimate(method, LogNumber.from_log(ln), meta)


def estimate_comparable(q: PowerCoeffQuery, a: float, b: float) -> Estimate:
    """Regime k comparable with n: a <= k/n <= b < mean limit of psi."""
    psi, n, k = q.psi, q.n, q.k
    if not 0 < a < b < psi.mean_sup:
        raise RatioOutOfBand(f"need 0 < A < B < mean limit; got A={a}, B={b}")
    ratio = k / n
    if not a <= ratio <= b:
        raise RatioOutOfBand(f"k/n = {ratio} outside [{a}, {b}]")
    lead = lattice_lead(psi.q_gcd, k, QGcdViolation)
    sp = saddle_solve(psi, ratio)
    return _estimate("comparable", q, sp.t, sp.variance, lead)


def estimate_limit_l(q: PowerCoeffQuery, l: float, omega: float) -> Estimate:
    """Regime k/n -> L with drift (nL - k)/sqrt(n) -> -omega; fixed saddle."""
    psi = q.psi
    if l >= psi.mean_sup:
        raise LAboveMeanSup(f"L = {l} >= mean limit {psi.mean_sup}")
    lead = lattice_lead(psi.q_gcd, q.k, QGcdViolation)
    sp = saddle_solve(psi, l)
    lead -= omega * omega / (2.0 * sp.variance)
    return _estimate("limit_l", q, sp.t, sp.variance, lead)


def estimate_boundary(q: PowerCoeffQuery, omega: float = 0.0) -> Estimate:
    """Regime k/n -> L = mean limit, finite radius, finite boundary variance."""
    psi = q.psi
    if not math.isfinite(psi.radius) or not math.isfinite(psi.mean_sup):
        raise RegimeMismatch("boundary regime needs finite radius and finite mean limit")
    if psi.boundary_variance is None or not math.isfinite(psi.boundary_variance):
        raise BoundaryVarianceInfinite(f"{psi.name} has no finite boundary variance")
    lead = lattice_lead(psi.q_gcd, q.k, QGcdViolation)
    var = psi.boundary_variance
    lead -= omega * omega / (2.0 * var)
    return _estimate("boundary", q, psi.radius, var, lead)


def estimate_small_k(q: PowerCoeffQuery) -> Estimate:
    """Regime k -> infinity with k = o(n); needs psi'(0) > 0."""
    psi, n, k = q.psi, q.n, q.k
    _require_b1(psi)
    if k < 1 or k / n > SMALL_K_MAX_RATIO:
        raise RegimeMismatch(f"k/n = {k / n} not small (threshold {SMALL_K_MAX_RATIO})")
    sp = saddle_solve(psi, k / n)
    return _estimate("small_k", q, sp.t, k / n)


def series_b_coefficients(psi: se.CoeffSeries, j_max: int) -> list[Fraction]:
    """B_1..B_{j_max} with B_j = coeff_{j-1}((psi/psi')^{j-1}) / j.

    These are the expansion coefficients of ln psi(m^{-1}(z)) around 0 and
    depend only on the first j coefficients of psi.
    """
    if psi.coeff(0) == 0 or (psi.order >= 1 and psi.coeff(1) == 0):
        raise FirstCoefficientZero("B coefficients need psi(0) != 0 and psi'(0) != 0")
    out: list[Fraction] = [Fraction(1)]  # B_1 = 1
    dpsi = se.differentiate(psi)
    base = se.mul(psi.truncate(j_max), se.reciprocal(dpsi.truncate(j_max)))
    power = se.CoeffSeries.from_list([1], order=j_max)
    for j in range(2, j_max + 1):
        power = se.mul(power, base)
        out.append(power.coeff(j - 1) / j)
    return out


def estimate_small_k_refined(q: PowerCoeffQuery, j_terms: int) -> Estimate:
    """Small-k estimate with the J-term exponential correction in k^j/n^{j-1}."""
    psi, n, k = q.psi, q.n, q.k
    _require_b1(psi)
    if j_terms < 1:
        raise ValueError("need at least one correction term")
    if psi.coeffs is None:
        raise FirstCoefficientZero("refined small-k needs coefficient access")
    b0 = float(psi.coeffs.coeff(0))
    b1 = float(psi.coeffs.coeff(1))
    correction = 0.0
    if j_terms >= 2:
        bs = series_b_coefficients(psi.coeffs, j_terms)
        correction = math.fsum(
            float(bs[j - 1]) / (j - 1) * k**j / float(n) ** (j - 1)
            for j in range(2, j_terms + 1)
        )
    ln = (
        -0.5 * math.log(2.0 * math.pi)
        + (n - k) * math.log(b0)
        + k * math.log(b1)
        + k * math.log(n)
        + k
        - k * math.log(k)
        - 0.5 * math.log(k)
        - correction
    )
    meta = {"n": n, "k": k, "j_terms": j_terms, "psi": psi.name}
    return Estimate("small_k_refined", LogNumber.from_log(ln), meta)


@dataclass(frozen=True)
class FixedKPolynomial:
    """coeff_k(psi^n) = sum_l C(n, l) b0^{n-l} c_l, exact in n."""

    k: int
    b0: Fraction
    c: tuple[Fraction, ...]  # c[l] for l = 0..k

    def value_at(self, n: int) -> Fraction:
        total = Fraction(0)
        for l, cl in enumerate(self.c):
            if cl != 0 and l <= n:
                total += math.comb(n, l) * self.b0 ** (n - l) * cl
        return total

    def degree(self) -> int:
        for l in range(len(self.c) - 1, -1, -1):
            if self.c[l] != 0:
                return l
        return 0


def fixed_k_polynomial(psi: se.CoeffSeries, k: int) -> FixedKPolynomial:
    """Exact polynomial-in-n form of coeff_k(psi^n) for fixed k (k <= 64).

    With u = psi - b0, psi^n = sum_l C(n, l) b0^{n-l} u^l: c_l is coefficient
    k of u^l (c_0 = [k = 0]), read off one running product of u at order k.
    """
    if k > FIXED_K_MAX:
        raise KTooLarge(f"fixed-k polynomial is guarded at k <= {FIXED_K_MAX}")
    head = psi.truncate(k)
    u = se.CoeffSeries((Fraction(0),) + head.coeffs[1:])
    c = [Fraction(int(k == 0))]
    power = se.CoeffSeries.from_list([1], order=k)
    for _ in range(k):
        power = se.mul(power, u)
        c.append(power.coeff(k))
    return FixedKPolynomial(k, head.coeff(0), tuple(c))


def estimate_large_k(q: PowerCoeffQuery) -> Estimate:
    """Regime k/n -> infinity; needs a uniformly-strongly-Gaussian psi."""
    psi, n, k = q.psi, q.n, q.k
    if not psi.usg:
        raise NotUSG(f"{psi.name} is not flagged uniformly strongly Gaussian")
    if k / n < LARGE_K_MIN_RATIO:
        raise RegimeMismatch(f"k/n = {k / n} below the large-k threshold {LARGE_K_MIN_RATIO}")
    sp = saddle_solve(psi, k / n)
    return _estimate("large_k", q, sp.t, sp.variance)


def estimate_with_prefactor(q: PowerCoeffQuery, regime: Regime) -> Estimate:
    """Coefficients of h(z) psi(z)^n in the comparable or small-k regimes."""
    if q.prefactor is None:
        raise ValueError("query has no prefactor family")
    psi, h = q.psi, q.prefactor
    if h.radius < psi.radius:
        raise PrefactorRadiusTooSmall(f"prefactor radius {h.radius} below psi radius {psi.radius}")
    lattice_lead(psi.q_gcd, q.k, QGcdViolation, h.q_gcd)
    bare = PowerCoeffQuery(psi, q.n, q.k)
    if regime.kind == "comparable":
        est = estimate_comparable(bare, regime.a, regime.b)
        tau = est.meta["tau"]
        ln = est.value.log_abs + h.log_value(tau)
    elif regime.kind == "small_k":
        est = estimate_small_k(bare)
        if h.coeffs is None:
            raise PrefactorRadiusTooSmall("prefactor needs coefficients for h(0)")
        ln = est.value.log_abs + log_of_fraction(h.coeffs.coeff(0))
    else:
        raise RegimeMismatch(f"prefactor estimates cover comparable/small_k, not {regime.kind}")
    meta = dict(est.meta)
    meta["prefactor"] = h.name
    return Estimate(f"{est.method}+prefactor", LogNumber.from_log(ln), meta)


def auto_regime(q: PowerCoeffQuery) -> Regime:
    """Deterministic regime classification with the default policy thresholds.

    With a prefactor only the regimes ``estimate_with_prefactor`` covers,
    small_k and comparable, are candidates.
    """
    psi, n, k = q.psi, q.n, q.k
    bare = q.prefactor is None
    if bare and k <= FIXED_K_MAX and n >= 10 * k:
        return Regime("fixed_k")
    ratio = k / n
    if ratio <= SMALL_K_MAX_RATIO and _has_b1(psi):
        return Regime("small_k")
    if bare and psi.usg and ratio >= LARGE_K_MIN_RATIO:
        return Regime("large_k")
    cap = min(psi.mean_sup, 20.0)
    a, b = 0.05 * cap, 0.95 * cap
    if a <= ratio <= b and on_lattice(psi.q_gcd, k):
        return Regime("comparable", a=a, b=b)
    with_h = "" if bare else f" with prefactor {q.prefactor.name} (small_k or comparable only)"
    raise NoApplicableRegime(
        f"no regime covers k/n = {ratio} for {psi.name}{with_h} (mean limit {psi.mean_sup})"
    )


def estimate(q: PowerCoeffQuery, regime: Regime) -> Estimate | FixedKPolynomial:
    """The estimate of ``regime`` for q; a query with a prefactor goes
    through ``estimate_with_prefactor``. ``small_k_refined`` takes J = 2
    correction terms unless ``regime.j`` says otherwise."""
    if q.prefactor is not None:
        return estimate_with_prefactor(q, regime)
    kind = regime.kind
    if kind == "comparable":
        return estimate_comparable(q, regime.a, regime.b)
    if kind == "limit_l":
        return estimate_limit_l(q, regime.l, regime.omega)
    if kind == "boundary":
        return estimate_boundary(q, regime.omega or 0.0)
    if kind == "small_k":
        return estimate_small_k(q)
    if kind == "small_k_refined":
        return estimate_small_k_refined(q, 2 if regime.j is None else regime.j)
    if kind == "fixed_k":
        if q.psi.coeffs is None:
            raise NoApplicableRegime("fixed-k route needs coefficients")
        return fixed_k_polynomial(_coeffs_through(q.psi, q.k), q.k)
    if kind == "large_k":
        return estimate_large_k(q)
    raise RegimeMismatch(f"unknown regime {kind!r}")


def estimate_auto(q: PowerCoeffQuery) -> tuple[Regime, Estimate | FixedKPolynomial]:
    """``estimate`` in the ``auto_regime`` regime; kept for the benchmark's saddle pool."""
    regime = auto_regime(q)
    return regime, estimate(q, regime)


def _has_b1(psi: Family) -> bool:
    if psi.coeffs is not None:
        return psi.coeffs.order >= 1 and psi.coeffs.coeff(1) > 0
    return psi.q_gcd == 1


def _require_b1(psi: Family) -> None:
    if not _has_b1(psi):
        raise FirstCoefficientZero(f"{psi.name} has psi'(0) = 0")
