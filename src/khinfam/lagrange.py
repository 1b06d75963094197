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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import family as fm
from . import series as se
from .asym import Estimate, lattice_lead, saddle_log, saddle_solve
from .errors import (
    IndexBelowJ,
    MeanSupBelowOne,
    ParameterDomain,
    PrefactorRadiusTooSmall,
    SupercriticalSpec,
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
            head = psi.coeffs_through(1) if psi.has_coeffs else None
            if head is None or head.nonzero_indices() != [0, 1]:
                raise MeanSupBelowOne(
                    f"{psi.name}: mean limit 1 at infinite radius is the a+bz case only"
                )
            return Apex(
                "linear",
                math.inf,
                linear_a=head.coeff(0),
                linear_b=head.coeff(1),
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


def omm_estimate(psi: Family, n: int) -> Estimate | DecayCertificate:
    """Asymptotics of coefficient n of the Lagrange solution with data psi."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if psi.mean_sup < 1.0:
        if psi.boundary_variance is None or not math.isfinite(psi.boundary_variance):
            raise MeanSupBelowOne(f"{psi.name}: subcritical data needs boundary moments")
        return DecayCertificate(psi.radius, psi.log_value(psi.radius))
    lead = lattice_lead(psi.q_gcd, n - 1)  # A_n = (1/n) [z^{n-1}] psi^n
    ap = apex(psi)
    if ap.kind == "linear":
        ln = log_of_fraction(ap.linear_a) + (n - 1) * log_of_fraction(ap.linear_b)
        return Estimate("omm-linear-exact", LogNumber.from_log(ln), {"n": n})
    ln = saddle_log(lead - math.log(n), n, psi.log_value(ap.tau), n - 1, ap.tau, ap.sigma2)
    return Estimate("omm", LogNumber.from_log(ln), {"n": n, "tau": ap.tau, "psi": psi.name})


def power_asym(
    psi: Family,
    q: int,
    n: int,
    alpha: float | None = None,
    beta: float | None = None,
) -> Estimate:
    """Asymptotics of coeff_n(g^q) = (q/n) [z^{n-q}] psi^n.

    Fixed q: the saddle estimate at the apex. Scaled q = alpha n + beta
    sqrt(n): the same at the radius where the mean equals 1 - alpha, with
    the Gaussian drift factor.
    """
    if q < 1 or n < 1:
        raise ValueError("need q >= 1 and n >= 1")
    if n < q:
        raise IndexBelowJ(f"coefficient {n} of g^{q} is 0: progeny below initial size {q}")
    lead = lattice_lead(psi.q_gcd, n - q)
    if alpha is None:
        ap = apex(psi)
        if ap.kind == "linear":
            raise MeanSupBelowOne("power asymptotics need an interior or boundary apex")
        tau, sigma2, drift = ap.tau, ap.sigma2, 0.0
    else:
        if not 0.0 <= alpha < 1.0:
            raise ParameterDomain(f"alpha must lie in [0, 1), got {alpha}")
        sp = saddle_solve(psi, 1.0 - alpha)
        tau, sigma2 = sp.t, sp.variance
        drift = -(beta or 0.0) ** 2 / (2.0 * sigma2)
    lead = lead + math.log(q) - math.log(n) + drift
    ln = saddle_log(lead, n, psi.log_value(tau), n - q, tau, sigma2)
    return Estimate("lagrange-power", LogNumber.from_log(ln), {"n": n, "q": q, "tau": tau})


def func_asym(h: Family, psi: Family, n: int) -> Estimate:
    """Asymptotics of coeff_n(H(g)) = (1/n) [z^{n-1}] H'(z) psi^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if h.radius < psi.radius:
        raise PrefactorRadiusTooSmall(f"H radius {h.radius} below psi radius {psi.radius}")
    lead = lattice_lead(psi.q_gcd, n - 1, h.q_gcd, -1)
    ap = apex(psi)
    if ap.kind != "interior":
        raise MeanSupBelowOne("function asymptotics need an interior apex")
    tau = ap.tau
    lead = lead + _log_derivative(h, tau) - math.log(n)
    ln = saddle_log(lead, n, psi.log_value(tau), n - 1, tau, ap.sigma2)
    return Estimate("lagrange-func", LogNumber.from_log(ln), {"n": n, "tau": tau})


def _log_derivative(f: Family, x: float) -> float:
    """ln f'(x) = ln f(x) + ln m_f(x) - ln x, with no float f'(x) formed."""
    f.check_radius(x)
    return f.log_value(x) + math.log(f.mean(x)) - math.log(x)


# -- Borel-Tanner and Poisson-initial progeny laws ---------------------------------


def _check_borel_tanner(t: float, j: int, n: int) -> None:
    if not 0.0 < t <= 1.0:
        raise ParameterDomain(f"offspring tilt t = {t} must lie in (0, 1]")
    if j < 1:
        raise ValueError("initial size j must be >= 1")
    if n < j:
        raise IndexBelowJ(f"progeny {n} below initial size {j}")


def borel_tanner_log_pmf(t: float, j: int, n: int) -> float:
    _check_borel_tanner(t, j, n)
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
    _check_borel_tanner(t, j, n)
    ln = (
        math.log(j)
        - 0.5 * math.log(2.0 * math.pi)
        - 1.5 * math.log(n)
        + (n - j) * math.log(t)
        + n * (1.0 - t)
    )
    return Estimate("borel-tanner", LogNumber.from_log(ln), {"t": t, "j": j, "n": n})


def _check_poisson_progeny(s: float, t: float, n: int) -> None:
    if not (0.0 < t <= 1.0 and s > 0.0):
        raise ParameterDomain("need 0 < t <= 1 and s > 0")
    if n < 1:
        raise ValueError("n must be >= 1")


def poisson_poisson_pmf(s: float, t: float, n: int) -> float:
    """P(total progeny = n) with Poisson(t) offspring, Poisson(s) initial law."""
    _check_poisson_progeny(s, t, n)
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
    _check_poisson_progeny(s, t, n)
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
    Each tilt is checked against its family's radius here, before anything
    is evaluated; then subcriticality, m_psi(t) <= 1 up to 1e-12, or
    SupercriticalSpec.
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
        self.psi.check_radius(self.t)
        if self.initial is not None:
            self.initial.check_radius(self.s)
        if self.psi.mean(self.t) > 1.0 + 1e-12:
            raise SupercriticalSpec(f"offspring mean {self.psi.mean(self.t)} > 1 at t={self.t}")


def general_lagrangian_asym(spec: LagrangianSpec, n: int) -> Estimate:
    """Asymptotics of P(Z_{s,t} = n) for the tilted Lagrangian law.

    With f_s(z) = f(sz)/f(s) and psi_t(z) = psi(tz)/psi(t), P(Z = n) is
    (1/n) [z^{n-1}] f_s'(z) psi_t(z)^n: the saddle estimate of psi_t at its
    apex tau/t, where psi_t is psi(tau)/psi(t) and its variance is psi's at
    tau. For f = z^j, f_s' = j z^{j-1} moves the index to n - j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    psi, t, s = spec.psi, spec.t, spec.s
    ap = apex(psi)
    if ap.kind == "linear":
        raise MeanSupBelowOne("general asymptotics need an interior or boundary apex")
    tau = ap.tau
    if spec.monomial_j is not None:
        j = spec.monomial_j
        if n < j:
            raise IndexBelowJ(f"progeny {n} below initial size {j}")
        lead, k = math.log(j), n - j
        lattice = lattice_lead(psi.q_gcd, n - 1, 0, j - 1)
    else:
        f = spec.initial
        if s * tau >= t * f.radius:
            raise ParameterDomain(f"need s*tau < t*S: s={s}, tau={tau}, t={t}, S={f.radius}")
        lattice = lattice_lead(psi.q_gcd, n - 1, f.q_gcd, -1)
        lead, k = math.log(s) - f.log_value(s) + _log_derivative(f, s * tau / t), n - 1
    log_psi_t = psi.log_value(tau) - psi.log_value(t)
    ln = saddle_log(lattice + lead - math.log(n), n, log_psi_t, k, tau / t, ap.sigma2)
    return Estimate("lagrangian", LogNumber.from_log(ln), {"n": n, "t": t, "s": s, "tau": tau})


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
    """Cumulative inverse-sampling table of the tilted law at radius t over
    its window (``family._window``), the last entry raised to 1."""
    cs = fm._window(fam, t)
    log_masses = fm._log_masses(cs, t, 0, cs.order, fam.log_value(t))
    cum = list(accumulate(math.exp(x) for x in log_masses))
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
    rng = random.Random(seed)
    offspring_cum = _tilted_pmf_table(spec.psi, spec.t)
    init_cum = None
    if spec.initial is not None:
        init_cum = _tilted_pmf_table(spec.initial, spec.s)

    # a draw is the first index whose cumulative mass reaches u; cum[-1] >= 1 > u
    counts: dict[int, int] = {}
    censored = 0
    for _ in range(trials):
        generation = spec.monomial_j if init_cum is None else bisect_left(init_cum, rng.random())
        total = generation
        while generation > 0 and total <= cap:
            children = 0
            for _ in range(generation):
                children += bisect_left(offspring_cum, rng.random())
            total += children
            generation = children
        if generation > 0:
            censored += 1
        else:
            counts[total] = counts.get(total, 0) + 1
    return SampleResult(counts=counts, trials=trials, censored=censored, cap=cap)
