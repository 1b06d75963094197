"""Saddle-point coefficient estimators and Gaussianity diagnostics.

The central pipeline: solve m_f(t_n) = n, then estimate the n-th
coefficient as f(t_n) / (sqrt(2 pi) sigma_f(t_n) t_n^n). A closed-form
variant replaces the exact mean/deviation laws by their asymptotic
approximations, which removes the root-finding step for the partition
catalog. Everything is carried in log space.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass, field

from . import catalog as cat
from . import family as fm
from .errors import (
    ComplexEvalUnavailable,
    DomainError,
    GcdNotOne,
    MixedResidueClasses,
    NoCoefficientAccess,
    ParameterDomain,
    QGcdNotOne,
    TargetAboveMeanSup,
    UnsupportedColoredOrder,
    WindowTooNarrow,
)
from .family import Family
from .numerics import (
    ZETA_NEG,
    LogNumber,
    bracket_increasing,
    lambert_w0,
    log_gamma,
    solve_monotone_point,
    zeta_prime_neg,
    zeta_real,
)


@dataclass(frozen=True)
class SaddlePoint:
    n: float  # the mean target; an index for coefficient estimates
    t: float
    log_f: float
    mean: float
    variance: float


@dataclass(frozen=True)
class Estimate:
    method: str
    value: LogNumber
    meta: dict = field(default_factory=dict, compare=False)


def saddle_solve(fam: Family, n: float) -> SaddlePoint:
    """The unique radius t_n with m_f(t_n) = n."""
    if n <= 0:
        raise ParameterDomain(f"saddle target {n} must be positive")
    if n >= fam.mean_sup:
        raise TargetAboveMeanSup(f"target {n} >= mean limit {fam.mean_sup} of {fam.name}")
    # The bracket carries the means at its ends and the solver returns the
    # mean at the root, so no t is evaluated twice.
    bracket = bracket_increasing(fam.mean, n, fam.radius)
    t, mean = solve_monotone_point(fam.mean, n, bracket)
    return SaddlePoint(
        n=int(n) if float(n).is_integer() else n,
        t=t,
        log_f=fam.log_value(t),
        mean=mean,
        variance=fam.variance(t),
    )


def saddle_log(lead: float, n: float, log_psi: float, k: float, tau: float, var: float) -> float:
    """ln of e^lead psi(tau)^n / (tau^k sqrt(2 pi n var)), the Gaussian saddle
    estimate of [z^k] e^lead psi^n, summed in this order. Hayman's estimate is
    n = 1; a Lagrange coefficient (1/n) [z^{n-q}] h psi^n at the apex has
    ln h(tau) - ln n in lead."""
    return lead + n * log_psi - k * math.log(tau) - 0.5 * math.log(2.0 * math.pi * n * var)


def on_lattice(g: int, m: int, shift: int = 0) -> bool:
    """Whether g divides m - shift: the lattice rule of ``lattice_lead``."""
    return (m - shift) % g == 0


def lattice_lead(g: int, m: int, refuse: type, h_gcd: int = 0, shift: int = 0) -> float:
    """ln g, which makes the one-peak saddle estimate of [z^m] h psi^n right
    when psi(z) = psi_1(z^g). psi^n then has g equal peaks on |z| = tau, at
    tau times the g-th roots of unity w, where an h on the class shift + gZ
    takes the value w^shift h(tau): the peaks add up to g times the Gaussian
    value at tau when g divides m - shift, and cancel otherwise, where the
    coefficient is 0 and m is refused with the caller's error ``refuse``.
    shift is -1 for H' or f_s', j - 1 for j z^(j-1), 0 for a prefactor or
    h = 1; h_gcd is the support gcd of H, f or the prefactor, 0 for a
    monomial. As h(0) > 0, h lies on one class iff g divides h_gcd; an h
    over several classes is refused (MixedResidueClasses). g = 1 gives 0.0.
    """
    if h_gcd % g:
        raise MixedResidueClasses(f"a factor of support gcd {h_gcd} spans classes mod {g}")
    if not on_lattice(g, m, shift):
        raise refuse(f"[z^{m}] h psi^n vanishes: support gcd {g} does not divide {m - shift}")
    return math.log(g)


def hayman_estimate(fam: Family, n: int) -> Estimate:
    """Saddle-point estimate of coefficient n; a family on the multiples of
    g > 1 takes ``lattice_lead``'s factor g (meta ``rescaled_gcd``)."""
    lead = lattice_lead(fam.q_gcd, n, QGcdNotOne)
    sp = saddle_solve(fam, float(n))
    ln = saddle_log(lead, 1, sp.log_f, n, sp.t, sp.variance)
    meta = {"n": n, "family": fam.name, "rescaled_gcd": round(math.exp(lead)), "t": sp.t}
    return Estimate("hayman", LogNumber.from_log(ln), meta)


def baez_duarte_estimate(fam: Family, n: int) -> Estimate:
    """Closed-saddle estimate using the approximate mean/deviation laws.

    No root finding: tau_n comes from inverting the approximate mean law in
    closed form; the series value f(tau_n) is still the true one.
    """
    if fam.spec_key is None:
        raise cat.NoApproxAvailable(f"{fam.name} has no registered approximate laws")
    spec = cat.parse_family(fam.spec_key)
    approx = cat.approx_moments(spec)
    lead = lattice_lead(fam.q_gcd, n, QGcdNotOne)
    s_n = approx.s_for_mean(float(n))
    tau = math.exp(-s_n)
    sigma = approx.sigma_tilde(s_n)
    ln = saddle_log(lead, 1, fam.log_value(tau), n, tau, sigma * sigma)
    return Estimate("baez-duarte", LogNumber.from_log(ln), {"n": n, "tau": tau, "family": fam.name})


# -- closed-form partition asymptotics -------------------------------------------


def closed_partition_asym(kind: str, n: int, a: int | None = None, b: int | None = None) -> Estimate:
    """Closed asymptotic formulas for the classical partition counts.

    kind: 'hr' (plain partitions), 'distinct', 'ingham' (needs a, b),
    'wright_plane' (plane partitions), 'colored' (needs b <= 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "hr":
        ln = -math.log(4.0 * math.sqrt(3.0)) - math.log(n) + math.pi * math.sqrt(2.0 * n / 3.0)
        return Estimate("hr", LogNumber.from_log(ln), {"n": n})
    if kind == "distinct":
        ln = (
            -math.log(4.0 * 3.0**0.25)
            - 0.75 * math.log(n)
            + math.pi * math.sqrt(n / 3.0)
        )
        return Estimate("distinct", LogNumber.from_log(ln), {"n": n})
    if kind == "ingham":
        if a is None or b is None or a < 1 or b < 1:
            raise ValueError("ingham needs integers a, b >= 1")
        if math.gcd(a, b) != 1:
            raise GcdNotOne(f"ingham needs gcd(a, b) = 1, got gcd({a},{b}) != 1")
        z2 = zeta_real(2.0)
        ln_const = (
            -0.5 * math.log(2.0)
            - math.log(2.0 * math.pi)
            + log_gamma(b / a)
            + (b / (2.0 * a) - 0.5) * math.log(a)
            + (b / (2.0 * a)) * math.log(z2)
        )
        ln = ln_const - (0.5 + b / (2.0 * a)) * math.log(n) + math.pi * math.sqrt(2.0 * n / (3.0 * a))
        return Estimate("ingham", LogNumber.from_log(ln), {"n": n, "a": a, "b": b})
    if kind == "wright_plane":
        return _colored_estimate(1, n, "wright_plane")
    if kind == "colored":
        if b is None or b < 0:
            raise ValueError("colored needs an integer b >= 0")
        if b > 2:
            raise UnsupportedColoredOrder("colored asymptotics provided for b <= 2")
        return _colored_estimate(b, n, "colored")
    raise ValueError(f"unknown closed form {kind!r}")


def _colored_estimate(b: int, n: int, method: str) -> Estimate:
    zb = ZETA_NEG[b]
    gz = math.exp(log_gamma(b + 2.0)) * zeta_real(b + 2.0)
    ln_alpha = (
        -0.5 * math.log(2.0 * math.pi)
        + zeta_prime_neg(b)
        - 0.5 * math.log(b + 2.0)
        + (1.0 - 2.0 * zb) / (2.0 * (b + 2.0)) * math.log(gz)
    )
    beta_exp = (-2.0 * zb + b + 3.0) / (2.0 * (b + 2.0))
    gamma = (b + 2.0) / (b + 1.0) * gz ** (1.0 / (b + 2.0))
    ln = ln_alpha - beta_exp * math.log(n) + gamma * n ** ((b + 1.0) / (b + 2.0))
    return Estimate(method, LogNumber.from_log(ln), {"n": n, "b": b})


def moser_wyman(n: int) -> Estimate:
    """Closed asymptotic for the n-th Bell number over n factorial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w = lambert_w0(float(n))
    ln = (
        math.expm1(w)
        - 0.5 * math.log(2.0 * math.pi)
        - 0.5 * (math.log(w) + math.log(w + 1.0) + w)
        - n * math.log(w)
    )
    return Estimate("moser-wyman", LogNumber.from_log(ln), {"n": n, "w": w})


# -- local limit diagnostics ------------------------------------------------------


def local_clt_sup(fam: Family, t: float) -> float:
    """sup over the window of |mass * sqrt(2 pi) sigma - Gaussian density term|.

    The true statement takes the sup over all integers; a truncation can
    only certify the window mean +- 10 sigma, whose top the oracle must reach.
    """
    fam.check_radius(t)
    if fam.coeffs is None:
        raise NoCoefficientAccess(f"{fam.name} has no coefficient access")
    m = fam.mean(t)
    var = fam.variance(t)
    sigma = math.sqrt(var)
    lo = max(0, int(m - 10.0 * sigma))
    hi = int(m + 10.0 * sigma) + 1
    if hi > fam.coeffs.order:
        raise WindowTooNarrow(
            f"truncation {fam.coeffs.order} below required window top {hi}"
        )
    root_2pi = math.sqrt(2.0 * math.pi)
    best = 0.0
    for n, log_p in enumerate(fm._log_masses(fam, t, lo, hi, fam.log_value(t)), lo):
        gauss = math.exp(-((m - n) ** 2) / (2.0 * var))
        best = max(best, abs(math.exp(log_p) * root_2pi * sigma - gauss))
    return best


def strong_gaussian_integral(fam: Family, t: float) -> float:
    """Integral over |theta| <= pi sigma of |E e^{i theta X-check} - e^{-theta^2/2}|.

    The integrand is even in theta: f has real coefficients, so
    f(conj z) = conj f(z), and conjugation leaves the modulus alone. The
    integral is twice the composite Simpson rule on [0, pi sigma], on 2048,
    4096, ... intervals (the step of a 4096-interval rule on the whole
    range) until two successive half-range values agree to 5e-9;
    the halving and the doubling are exact in floating point. Each
    refinement evaluates the integrand only at its new points (see
    ``_adaptive_simpson``), and ln f through the family's circle evaluator
    at t (``family.circle_evaluator``).
    """
    if fam.log_value_complex is None:
        raise ComplexEvalUnavailable(f"{fam.name} has no complex evaluation")
    sigma, phi = _normalized_charfn(fam, t)

    def integrand(theta: float) -> float:
        return abs(phi(theta) - math.exp(-theta * theta / 2.0))

    return 2.0 * _adaptive_simpson(integrand, 0.0, math.pi * sigma, 5e-9, base=2048)


def _normalized_charfn(fam: Family, t: float):
    """sigma_f(t) and theta -> E e^{i theta X-check}, the characteristic
    function of (X_t - m) / sigma, with ln f from the circle evaluator at t."""
    fam.check_radius(t)
    sigma = math.sqrt(fam.variance(t))
    m = fam.mean(t)
    log_f = fam.log_value(t)
    log_f_circle = fm.circle_evaluator(fam, t)

    def phi(theta: float) -> complex:
        z = t * cmath.exp(1j * theta / sigma)
        return cmath.exp(log_f_circle(z) - log_f - 1j * theta * m / sigma)

    return sigma, phi


def _adaptive_simpson(f, a: float, b: float, tol: float, base: int = 4096) -> float:
    """Composite Simpson on base, 2 base, 4 base, ... intervals (base even,
    at most six halvings) until two successive values agree to ``tol``.

    Each halving evaluates f only at its new odd points and keeps the
    ordinates of the level before: those are its even points bit for bit,
    since h/2 is exact and a + (h/2)(2i) == a + h i. ``math.fsum`` is
    correctly rounded, so the result equals re-evaluating every level.
    """
    if base % 2:
        raise ValueError("Simpson needs an even number of intervals")
    n = base
    h = (b - a) / n
    ends = f(a) + f(b)
    interior = array("d", (f(a + h * i) for i in range(2, n, 2)))
    prev = None
    for _ in range(7):
        odd = array("d", (f(a + h * i) for i in range(1, n, 2)))
        acc = ends + 4.0 * math.fsum(odd)
        acc += 2.0 * math.fsum(interior)
        cur = acc * h / 3.0
        if prev is not None and abs(cur - prev) < tol:
            return cur
        interior.extend(odd)
        prev = cur
        n *= 2
        h = (b - a) / n
    return prev


def gaussianity_ratio(fam: Family, t: float) -> float:
    """Skewness-type ratio F'''(s) / F''(s)^{3/2} at s = ln t."""
    fam.check_radius(t)
    s = math.log(t)
    d = fm.fulcrum_derivs(fam, s, max_order=3)
    return d[2] / d[1] ** 1.5


def cut_diagnostics(fam: Family, t: float, h: float, grid: int = 2048) -> tuple[float, float]:
    """Major/minor-arc diagnostics for a proposed cut angle h.

    major: sup_{|theta| <= h sigma} |E e^{i theta X-check} e^{theta^2/2} - 1|
    minor: sigma * sup_{h sigma <= |theta| <= pi sigma} |E e^{i theta X-check}|
    both sups are even in theta, so each is taken over grid + 1 points of
    theta >= 0; the minor arc is empty when h >= pi. ln f is evaluated
    through the family's circle evaluator at t. A DomainError reports a
    grid value that overflows a float, which happens when sigma is large
    and the major arc reaches far.
    """
    if fam.log_value_complex is None:
        raise ComplexEvalUnavailable(f"{fam.name} has no complex evaluation")
    if not 0 < h <= math.pi:
        raise ValueError("cut angle must lie in (0, pi]")
    sigma, phi = _normalized_charfn(fam, t)

    major = 0.0
    minor = 0.0
    try:
        for i in range(grid + 1):
            theta = h * sigma * i / grid
            v = abs(phi(theta) * cmath.exp(theta * theta / 2.0) - 1.0)
            major = max(major, v)
        if h < math.pi:
            for i in range(grid + 1):
                theta = (h + (math.pi - h) * i / grid) * sigma
                minor = max(minor, abs(phi(theta)))
    except OverflowError as exc:
        raise DomainError(
            f"cut diagnostics overflow a float at t={t}, h={h} (sigma={sigma:.6g})"
        ) from exc
    return major, sigma * minor
