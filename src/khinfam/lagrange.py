"""Lagrange-equation coefficients, tree asymptotics and total-progeny laws.

The solution g of g(w) = w psi(g(w)) is the generating function of the
total progeny of a branching process with offspring law tilted from psi.
This module provides the apex (the radius where the mean hits 1), the
Otter-Meir-Moon coefficient asymptotics with its boundary and subcritical
variants, Borel-Tanner and Poisson-initial progeny laws, the general tilted
asymptotic, and a deterministic branching-process sampler for Monte Carlo
cross-checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import series as se
from .asym import Estimate, saddle_solve
from .errors import (
    IndexBelowJ,
    MeanSupBelowOne,
    ParameterDomain,
    PrefactorRadiusTooSmall,
    SupercriticalSpec,
    ZeroCoefficient,
)
from .family import Family
from .numerics import LogNumber, log_of_fraction


# -- apex ------------------------------------------------------------------------


@dataclass(frozen=True)
class Apex:
    """Radius tau with m_psi(tau) = 1; three shapes.

    kind 'interior': tau in (0, R). kind 'boundary': mean limit exactly 1
    at finite radius, tau = R with the boundary deviation. kind 'linear':
    psi = a + b z, the one case with mean limit 1 at infinite radius, where
    the solution is the closed geometric form a z / (1 - b z).
    """

    kind: str
    tau: float
    sigma2: float | None = None
    linear_a: Fraction | None = None
    linear_b: Fraction | None = None


def apex(psi: Family) -> Apex:
    if psi.mean_sup > 1.0:
        sp = saddle_solve(psi, 1.0)
        return Apex("interior", sp.t, sigma2=sp.variance)
    if psi.mean_sup == 1.0:
        if math.isinf(psi.radius):
            # degree-one polynomial a + b z
            if psi.coeffs is None or psi.coeffs.nonzero_indices() != [0, 1]:
                raise MeanSupBelowOne(
                    f"{psi.name}: mean limit 1 at infinite radius is the a+bz case only"
                )
            return Apex(
                "linear",
                math.inf,
                linear_a=psi.coeffs.coeff(0),
                linear_b=psi.coeffs.coeff(1),
            )
        if psi.boundary_variance is None or not math.isfinite(psi.boundary_variance):
            raise MeanSupBelowOne(
                f"{psi.name}: boundary apex needs a finite boundary variance"
            )
        return Apex("boundary", psi.radius, sigma2=psi.boundary_variance)
    raise MeanSupBelowOne(f"{psi.name} has mean limit {psi.mean_sup} < 1")


# -- exact coefficients ------------------------------------------------------------


def extended_coeff(h: se.CoeffSeries, psi: se.CoeffSeries, n: int) -> Fraction:
    """coeff_n(H(g)) = coeff_{n-1}(H'(z) psi(z)^n) / n, exactly.

    With tilted data whose transcendental prefactors are factored out (e^{t z}
    for e^{t(z-1)}), this is the exact rational part of P(Z = n); the caller
    reinstates the dropped factor."""
    return se.power_coeff(psi, n, n - 1, se.differentiate(h)) / n


# -- Otter-Meir-Moon and relatives --------------------------------------------------


@dataclass(frozen=True)
class DecayCertificate:
    """Subcritical case: no asymptotic formula, only the vanishing of the
    scaled sequence A_n R^{n-1} psi(R)^{-n} n^{3/2}."""

    radius: float
    log_psi_at_radius: float

    def scaled(self, n: int, a_n: Fraction) -> float:
        if a_n == 0:
            return 0.0
        ln = (
            log_of_fraction(abs(a_n))
            + (n - 1) * math.log(self.radius)
            - n * self.log_psi_at_radius
            + 1.5 * math.log(n)
        )
        return math.exp(ln)


def omm_estimate(psi: Family, n: int) -> Estimate | DecayCertificate:
    """Asymptotics of coefficient n of the Lagrange solution with data psi."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if psi.mean_sup < 1.0:
        if psi.boundary_variance is None or not math.isfinite(psi.boundary_variance):
            raise MeanSupBelowOne(f"{psi.name}: subcritical data needs boundary moments")
        return DecayCertificate(psi.radius, psi.log_value(psi.radius))
    if (n - 1) % psi.q_gcd != 0:
        raise ZeroCoefficient(
            f"A_{n} = 0: n - 1 must be a multiple of the support gcd {psi.q_gcd}"
        )
    ap = apex(psi)
    if ap.kind == "linear":
        ln = log_of_fraction(ap.linear_a) + (n - 1) * log_of_fraction(ap.linear_b)
        return Estimate("omm-linear-exact", LogNumber.from_log(ln), {"n": n})
    tau, sigma = ap.tau, math.sqrt(ap.sigma2)
    ln = (
        math.log(psi.q_gcd)
        - 0.5 * math.log(2.0 * math.pi)
        + math.log(tau)
        - math.log(sigma)
        - 1.5 * math.log(n)
        + n * (psi.log_value(tau) - math.log(tau))
    )
    return Estimate("omm", LogNumber.from_log(ln), {"n": n, "tau": tau, "psi": psi.name})


def power_asym(
    psi: Family,
    q: int,
    n: int,
    alpha: float | None = None,
    beta: float | None = None,
) -> Estimate:
    """Asymptotics of coeff_n(g^q).

    Fixed q: (q/sqrt(2 pi)) tau^q / sigma(tau) * n^{-3/2} (psi(tau)/tau)^n.
    Scaled q = alpha n + beta sqrt(n): same shape at the radius where the
    mean equals 1 - alpha, with the Gaussian drift factor.
    """
    if q < 1 or n < 1:
        raise ValueError("need q >= 1 and n >= 1")
    if alpha is None:
        ap = apex(psi)
        if ap.kind == "linear":
            raise MeanSupBelowOne("power asymptotics need an interior or boundary apex")
        tau, sigma2 = ap.tau, ap.sigma2
        drift = 0.0
    else:
        if not 0.0 <= alpha < 1.0:
            raise ParameterDomain(f"alpha must lie in [0, 1), got {alpha}")
        sp = saddle_solve(psi, 1.0 - alpha)
        tau, sigma2 = sp.t, sp.variance
        drift = -(beta or 0.0) ** 2 / (2.0 * sigma2)
    ln = (
        math.log(q)
        - 0.5 * math.log(2.0 * math.pi)
        + q * math.log(tau)
        - 0.5 * math.log(sigma2)
        - 1.5 * math.log(n)
        + n * (psi.log_value(tau) - math.log(tau))
        + drift
    )
    return Estimate("lagrange-power", LogNumber.from_log(ln), {"n": n, "q": q, "tau": tau})


def func_asym(h: Family, psi: Family, n: int) -> Estimate:
    """Asymptotics of coeff_n(H(g)) for a prefactor-series H."""
    if h.radius < psi.radius:
        raise PrefactorRadiusTooSmall(
            f"H radius {h.radius} below psi radius {psi.radius}"
        )
    ap = apex(psi)
    if ap.kind != "interior":
        raise MeanSupBelowOne("function asymptotics need an interior apex")
    tau, sigma = ap.tau, math.sqrt(ap.sigma2)
    # H'(tau) from the family's derivative reconstruction
    from .family import eval_real

    h_prime = eval_real(h, tau)[1]
    ln = (
        -0.5 * math.log(2.0 * math.pi)
        + math.log(h_prime)
        + math.log(tau)
        - math.log(sigma)
        - 1.5 * math.log(n)
        + n * (psi.log_value(tau) - math.log(tau))
    )
    return Estimate("lagrange-func", LogNumber.from_log(ln), {"n": n, "tau": tau})


# -- Borel-Tanner and Poisson-initial progeny laws ---------------------------------


def borel_tanner_log_pmf(t: float, j: int, n: int) -> float:
    if not 0.0 < t <= 1.0:
        raise ParameterDomain(f"offspring tilt t = {t} must lie in (0, 1]")
    if j < 1:
        raise ValueError("initial size j must be >= 1")
    if n < j:
        raise IndexBelowJ(f"progeny {n} below initial size {j}")
    return (
        math.log(j)
        - math.log(n)
        - t * n
        + (n - j) * (math.log(t) + math.log(n))
        - math.lgamma(n - j + 1)
    )


def borel_tanner_pmf(t: float, j: int, n: int) -> float:
    """P(total progeny = n) with Poisson(t) offspring and j initial nodes."""
    return math.exp(borel_tanner_log_pmf(t, j, n))


def borel_tanner_rational_part(t: Fraction, j: int, n: int) -> Fraction:
    """The pmf with the transcendental factor e^{-tn} removed: exact rational
    (j/n) (tn)^{n-j} / (n-j)! for rational t."""
    if n < j:
        raise IndexBelowJ(f"progeny {n} below initial size {j}")
    return Fraction(j, n) * (t * n) ** (n - j) / math.factorial(n - j)


def borel_tanner_asym(t: float, j: int, n: int) -> Estimate:
    """(j/sqrt(2 pi)) n^{-3/2} t^{n-j} e^{n(1-t)}."""
    if not 0.0 < t <= 1.0:
        raise ParameterDomain(f"offspring tilt t = {t} must lie in (0, 1]")
    ln = (
        math.log(j)
        - 0.5 * math.log(2.0 * math.pi)
        - 1.5 * math.log(n)
        + (n - j) * math.log(t)
        + n * (1.0 - t)
    )
    return Estimate("borel-tanner", LogNumber.from_log(ln), {"t": t, "j": j, "n": n})


def poisson_poisson_pmf(s: float, t: float, n: int) -> float:
    """P(total progeny = n) with Poisson(t) offspring, Poisson(s) initial law."""
    if not (0.0 < t <= 1.0 and s > 0.0):
        raise ParameterDomain("need 0 < t <= 1 and s > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    ln = (
        -math.lgamma(n + 1.0)
        - t * n
        - s
        + (n - 1) * math.log(t * n + s)
        + math.log(s)
    )
    return math.exp(ln)


def poisson_poisson_asym(s: float, t: float, n: int) -> Estimate:
    """(1/sqrt(2 pi)) e^{s/t - s} s t^{n-1} e^{n(1-t)} n^{-3/2}."""
    if not (0.0 < t <= 1.0 and s > 0.0):
        raise ParameterDomain("need 0 < t <= 1 and s > 0")
    ln = (
        -0.5 * math.log(2.0 * math.pi)
        + s / t
        - s
        + math.log(s)
        + (n - 1) * math.log(t)
        + n * (1.0 - t)
        - 1.5 * math.log(n)
    )
    return Estimate("poisson-poisson", LogNumber.from_log(ln), {"s": s, "t": t, "n": n})


# -- general tilted Lagrangian law ---------------------------------------------------


@dataclass(frozen=True)
class LagrangianSpec:
    """Offspring source psi tilted at t, initial source f tilted at s.

    ``initial`` may be a Family or the monomial z^j (set ``monomial_j``).
    Subcriticality requires m_psi(t) <= 1, i.e. t at or below the apex.
    """

    psi: Family
    t: float
    s: float
    initial: Family | None = None
    monomial_j: int | None = None

    def __post_init__(self) -> None:
        if (self.initial is None) == (self.monomial_j is None):
            raise ValueError("exactly one of initial family or monomial_j is required")
        if self.monomial_j is not None and self.monomial_j < 1:
            raise ValueError("monomial degree must be >= 1")


def general_lagrangian_asym(spec: LagrangianSpec, n: int) -> Estimate:
    """Asymptotics of P(Z_{s,t} = n) for the tilted Lagrangian law."""
    psi, t, s = spec.psi, spec.t, spec.s
    ap = apex(psi)
    if ap.kind == "linear":
        raise ParameterDomain("general asymptotics need an interior or boundary apex")
    tau, sigma = ap.tau, math.sqrt(ap.sigma2)
    if t > tau:
        raise SupercriticalSpec(f"tilt t = {t} above the apex {tau}")
    if spec.monomial_j is not None:
        j = spec.monomial_j
        log_s_over_f = (1 - j) * math.log(s)  # s / s^j
        log_fprime = math.log(j) + (j - 1) * (math.log(s) + math.log(tau) - math.log(t))
    else:
        f = spec.initial
        s_radius = f.radius
        if s * tau >= t * s_radius:
            raise ParameterDomain(
                f"need s*tau < t*S: s={s}, tau={tau}, t={t}, S={s_radius}"
            )
        from .family import eval_real

        log_s_over_f = math.log(s) - f.log_value(s)
        log_fprime = math.log(eval_real(f, s * tau / t)[1])
    ln = (
        -0.5 * math.log(2.0 * math.pi)
        + log_s_over_f
        + n * (psi.log_value(tau) - psi.log_value(t))
        + (n - 1) * (math.log(t) - math.log(tau))
        - 1.5 * math.log(n)
        - math.log(sigma)
        + log_fprime
    )
    return Estimate(
        "lagrangian", LogNumber.from_log(ln), {"n": n, "t": t, "s": s, "tau": tau}
    )


# -- Monte Carlo --------------------------------------------------------------------


@dataclass(frozen=True)
class SampleResult:
    counts: dict[int, int]
    trials: int
    censored: int
    cap: int

    def empirical_pmf(self) -> dict[int, float]:
        return {n: c / self.trials for n, c in sorted(self.counts.items())}


def _tilted_pmf_table(fam: Family, t: float) -> list[float]:
    """Cumulative inverse-sampling table of the tilted law at radius t."""
    fam.check_radius(t)
    if fam.coeffs is None:
        raise ZeroCoefficient(f"{fam.name} needs coefficients to sample from")
    log_f = fam.log_value(t)
    log_t = math.log(t)
    probs: list[float] = []
    acc = 0.0
    for m, c in enumerate(fam.coeffs.coeffs):
        p = math.exp(log_of_fraction(c) + m * log_t - log_f) if c > 0 else 0.0
        probs.append(p)
        acc += p
        if 1.0 - acc < 1e-12:
            break
    cum = []
    run = 0.0
    for p in probs:
        run += p
        cum.append(run)
    cum[-1] = max(cum[-1], 1.0)
    return cum


def gw_sample(
    spec: LagrangianSpec,
    trials: int,
    seed: int,
    cap: int = 1_000_000,
) -> SampleResult:
    """Total-progeny histogram of the branching process, deterministic in seed.

    Trials whose node count exceeds ``cap`` are censored, counted separately
    rather than discarded, since the critical tilt has heavy tails.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    psi, t = spec.psi, spec.t
    if psi.mean(t) > 1.0 + 1e-12:
        raise SupercriticalSpec(f"offspring mean {psi.mean(t)} exceeds 1 at t = {t}")
    rng = random.Random(seed)
    offspring_cum = _tilted_pmf_table(psi, t)
    init_cum = None
    if spec.initial is not None:
        init_cum = _tilted_pmf_table(spec.initial, spec.s)

    def draw(cum: list[float]) -> int:
        u = rng.random()
        lo, hi = 0, len(cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] >= u:
                hi = mid
            else:
                lo = mid + 1
        return lo

    counts: dict[int, int] = {}
    censored = 0
    for _ in range(trials):
        generation = spec.monomial_j if init_cum is None else draw(init_cum)
        total = generation
        while generation > 0 and total <= cap:
            children = 0
            for _ in range(generation):
                children += draw(offspring_cum)
            total += children
            generation = children
        if generation > 0:
            censored += 1
        else:
            counts[total] = counts.get(total, 0) + 1
    return SampleResult(counts=counts, trials=trials, censored=censored, cap=cap)
