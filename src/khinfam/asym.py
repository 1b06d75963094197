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
    MixedResidueClasses,
    ParameterDomain,
    QGcdViolation,
    TargetAboveMeanSup,
)
from .family import Family
from .numerics import (
    LogNumber,
    bracket_increasing,
    lambert_w0,
    solve_monotone_point,
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


def lattice_lead(g: int, m: int, h_gcd: int = 0, shift: int = 0) -> float:
    """ln g, which makes the one-peak saddle estimate of [z^m] h psi^n right
    when psi(z) = psi_1(z^g). psi^n then has g equal peaks on |z| = tau, at
    tau times the g-th roots of unity w, where an h on the class shift + gZ
    takes the value w^shift h(tau): the peaks add up to g times the Gaussian
    value at tau when g divides m - shift, and cancel otherwise, where the
    coefficient is 0 and m is refused (QGcdViolation).
    shift is -1 for H' or f_s', j - 1 for j z^(j-1), 0 for a prefactor or
    h = 1; h_gcd is the support gcd of H, f or the prefactor, 0 for a
    monomial. As h(0) > 0, h lies on one class iff g divides h_gcd; an h
    over several classes is refused (MixedResidueClasses). g = 1 gives 0.0.
    """
    if h_gcd % g:
        raise MixedResidueClasses(f"a factor of support gcd {h_gcd} spans classes mod {g}")
    if not on_lattice(g, m, shift):
        raise QGcdViolation(f"[z^{m}] h psi^n vanishes: support gcd {g} does not divide {m - shift}")
    return math.log(g)


def hayman_estimate(fam: Family, n: int) -> Estimate:
    """Saddle-point estimate of coefficient n; a family on the multiples of
    g > 1 takes ``lattice_lead``'s factor g (meta ``rescaled_gcd``)."""
    lead = lattice_lead(fam.q_gcd, n)
    sp = saddle_solve(fam, float(n))
    ln = saddle_log(lead, 1, sp.log_f, n, sp.t, sp.variance)
    meta = {"n": n, "family": fam.name, "rescaled_gcd": round(math.exp(lead)), "t": sp.t}
    return Estimate("hayman", LogNumber.from_log(ln), meta)


def baez_duarte_estimate(fam: Family, n: int) -> Estimate:
    """Closed-saddle estimate using the approximate mean/deviation laws.

    No root finding: tau_n comes from inverting the approximate mean law in
    closed form; the series value f(tau_n) is still the true one.
    """
    if fam.spec is None:
        raise cat.NoApproxAvailable(f"{fam.name} has no registered approximate laws")
    if n <= 0:
        raise ParameterDomain(f"saddle target {n} must be positive")
    approx = cat.approx_moments(fam.spec)
    lead = lattice_lead(fam.q_gcd, n)
    s_n = approx.s_for_mean(float(n))
    tau = math.exp(-s_n)
    sigma = approx.sigma_tilde(s_n)
    ln = saddle_log(lead, 1, fam.log_value(tau), n, tau, sigma * sigma)
    return Estimate("baez-duarte", LogNumber.from_log(ln), {"n": n, "tau": tau, "family": fam.name})


# -- closed-form partition asymptotics -------------------------------------------

# The closed forms, by the name ``coeff --method`` takes, in the order its
# help lists them: the estimate's method and the family whose counts it
# estimates, where Pab:a,b and Wab:a,b take the caller's a and b. ``closed``
# picks the one whose family is the spec's variant; mw is Moser-Wyman's, the
# one that reads no Mellin record.
CLOSED_FORMS = {
    "hr": ("hr", "P"),
    "distinct": ("distinct", "Q"),
    "ingham": ("ingham", "Pab:a,b"),
    "wright": ("wright_plane", "Wab:1,1"),
    "colored": ("colored", "Wab:a,b"),
    "mw": ("moser-wyman", "bell"),
}


def closed_partition_asym(kind: str, n: int, a: int | None = None, b: int | None = None) -> Estimate:
    """Meinardus' asymptotic of the n-th count of a partition product, for
    the estimate method ``kind`` of a partition family in ``CLOSED_FORMS``
    (Wab's a is 1 by default). It reads the Mellin record of
    the shape with g divided out at n/g, and refuses an n off the multiples
    of g (QGcdViolation): ln a_n ~ D'(0) - ln(2 pi (1+alpha))/2 + (1 - 2 D(0))
    / (2 + 2 alpha) ln K + (D(0) - 1 - alpha/2) / (1 + alpha) ln n
    + (1 + 1/alpha) K^(1/(1+alpha)) n^(alpha/(1+alpha))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    family = next((f for m, f in CLOSED_FORMS.values() if m == kind and f != "bell"), None)
    if family is None:
        raise ValueError(f"unknown closed form {kind!r}")
    variant, _, params = family.partition(":")
    if params == "a,b":
        spec = cat.FamilySpec(variant, a=1 if a is None and variant == "Wab" else a, b=b)
    else:
        spec = cat.parse_family(family)
    full = cat.mellin(spec)
    if not on_lattice(full.g, n):
        raise QGcdViolation(f"{spec.key()} has no part count at {n}: gcd {full.g} does not divide it")
    rec = full.reduced()
    m = n // full.g
    d0, d1 = rec.at_zero()
    alpha, k = rec.alpha, rec.k
    e = alpha + 1.0
    ln = (
        d1
        - 0.5 * math.log(2.0 * math.pi * e)
        + (1.0 - 2.0 * d0) / (2.0 * e) * math.log(k)
        + (d0 - 1.0 - alpha / 2.0) / e * math.log(m)
        + e / alpha * k ** (1.0 / e) * m ** (alpha / e)
    )
    return Estimate(kind, LogNumber.from_log(ln), {"n": n, "family": spec.key()})


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

    The true statement takes the sup over all integers; this one takes it
    over the window mean +- 10 sigma, whose coefficients it asks the oracle
    for (WindowTooNarrow when the oracle's cap cuts the window).
    """
    fam.check_radius(t)
    m = fam.mean(t)
    var = fam.variance(t)
    sigma = math.sqrt(var)
    hi = int(m + 10.0 * sigma) + 1  # OverflowError, a DomainError, for an infinite mean
    lo = max(0, int(m - 10.0 * sigma))
    cs = fm._window(fam, t, hi)
    root_2pi = math.sqrt(2.0 * math.pi)
    best = 0.0
    for n, log_p in enumerate(fm._log_masses(cs, t, lo, hi, fam.log_value(t)), lo):
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
    sigma, phi = _normalized_charfn(fam, t)

    def integrand(theta: float) -> float:
        return abs(phi(theta) - math.exp(-theta * theta / 2.0))

    return 2.0 * _adaptive_simpson(integrand, 0.0, math.pi * sigma, 5e-9, base=2048)


def _normalized_charfn(fam: Family, t: float):
    """sigma_f(t) and theta -> E e^{i theta X-check}, the characteristic
    function of (X_t - m) / sigma, with ln f from the circle evaluator at t."""
    if fam.log_value_complex is None:
        raise ComplexEvalUnavailable(f"{fam.name} has no complex evaluation")
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
    return fam.fulcrum34(math.log(t))[0] / fam.variance(t) ** 1.5


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
