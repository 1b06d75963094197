"""Named generating-function families.

Each catalog entry binds three things together: closed-form evaluators for
ln f, the mean and the variance; an exact integer/rational coefficient
oracle; and, for the partition-type families, the approximate mean/variance
laws and the axis asymptotics of f(e^{-s}) as s drops to 0.

Infinite sums (partition means, fulcrum derivatives) are truncated with an
explicit geometric tail criterion: stop once the current term is below
1e-16 of the partial sum and the majorant of the remaining tail is below
1e-14 of it. The complex ln f of a partition product is a Lambert series cut
at the least order whose certified tail bound is at most 1e-17.

The exact oracle of Q, Pab and Wab is the integer Euler transform
n a_n = sum_{k<=n} s_k a_{n-k} over the divisor sums s_k that the Lambert
table reads; P keeps the O(n^1.5) pentagonal recurrence, its independent check.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from . import series as se
from .errors import (
    DomainError,
    InvalidSpec,
    NoApproxAvailable,
    NoAxisFormula,
    TruncationTooLarge,
)
from .family import Family
from .numerics import ZETA_NEG, LogNumber, lambert_w0, log_gamma, zeta_prime_neg, zeta_real

MAX_TRUNC = 100_000

_REL_TERM = 1e-16
_REL_TAIL = 1e-14


@dataclass(frozen=True)
class FamilySpec:
    """Parsed description of a catalog family.

    Variants: exp, bernoulli, binom (n), geom, negbinom (n), poly (coeffs),
    bell, P, Q, Pab (a, b), Wab (a, b), expof (inner poly spec), canprod
    (zeros), setsoflists.
    """

    variant: str
    n: int | None = None
    a: int | None = None
    b: int | None = None
    coeffs: tuple[Fraction, ...] | None = None
    zeros: tuple[Fraction, ...] | None = None
    inner: "FamilySpec | None" = None

    def key(self) -> str:
        parts = [self.variant]
        if self.n is not None:
            parts.append(str(self.n))
        if self.a is not None:
            parts.append(f"{self.a},{self.b}")
        if self.coeffs is not None:
            parts.append(",".join(str(c) for c in self.coeffs))
        if self.zeros is not None:
            parts.append(",".join(str(z) for z in self.zeros))
        if self.inner is not None:
            parts.append(self.inner.key())
        return ":".join(parts)


def parse_family(text: str) -> FamilySpec:
    """Parse the textual grammar shared with the CLI."""
    text = text.strip()
    head, _, rest = text.partition(":")
    try:
        if head == "exp":
            return FamilySpec("exp")
        if head == "bernoulli":
            return FamilySpec("bernoulli")
        if head == "geom":
            return FamilySpec("geom")
        if head == "bell":
            return FamilySpec("bell")
        if head == "P":
            return FamilySpec("P")
        if head == "Q":
            return FamilySpec("Q")
        if head == "setsoflists":
            return FamilySpec("setsoflists")
        if head == "binom":
            return FamilySpec("binom", n=int(rest))
        if head == "negbinom":
            return FamilySpec("negbinom", n=int(rest))
        if head == "poly":
            return FamilySpec("poly", coeffs=tuple(_parse_rat(v) for v in rest.split(",")))
        if head == "Pab":
            a, b = (int(v) for v in rest.split(","))
            return FamilySpec("Pab", a=a, b=b)
        if head == "Wab":
            a, b = (int(v) for v in rest.split(","))
            return FamilySpec("Wab", a=a, b=b)
        if head == "expof":
            return FamilySpec("expof", inner=parse_family(rest))
        if head == "canprod":
            texts = rest.split(",")
            zeros = tuple(_parse_rat(v) for v in texts)
            for text, z in zip(texts, zeros):
                if z > 0 and not _fits_float(1 / z):
                    raise InvalidSpec(f"1/{text.strip()} does not fit a float")
            return FamilySpec("canprod", zeros=zeros)
    except InvalidSpec:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidSpec(f"cannot parse family {text!r}: {exc}") from exc
    raise InvalidSpec(
        f"unknown family {text!r}; grammar: exp | bernoulli | binom:N | geom | "
        "negbinom:N | poly:a0,a1,... | bell | P | Q | Pab:a,b | Wab:a,b | "
        "expof:poly:... | canprod:b1,b2,... | setsoflists"
    )


def _parse_rat(text: str) -> Fraction:
    value = Fraction(text.strip())
    if not _fits_float(value):
        raise InvalidSpec(f"{text.strip()} does not fit a float")
    return value


def _fits_float(value: Fraction) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _validate(spec: FamilySpec) -> None:
    v = spec.variant
    if v in ("binom", "negbinom") and (spec.n is None or spec.n < 1):
        raise InvalidSpec(f"{v} needs an integer parameter >= 1")
    if v == "Pab" and (spec.a is None or spec.a < 1 or spec.b is None or spec.b < 1):
        raise InvalidSpec("Pab needs integers a, b >= 1")
    if v == "Wab" and (spec.a is None or spec.a < 1 or spec.b is None or spec.b < 0):
        raise InvalidSpec("Wab needs integers a >= 1, b >= 0")
    if v == "poly":
        cs = spec.coeffs or ()
        if len(cs) < 2 or cs[0] <= 0 or any(c < 0 for c in cs) or all(c == 0 for c in cs[1:]):
            raise InvalidSpec("poly needs a0 > 0, coefficients >= 0 and degree >= 1")
    if v == "expof":
        if spec.inner is None or spec.inner.variant != "poly":
            raise InvalidSpec("expof currently takes a poly inner spec")
        inner = spec.inner.coeffs or ()
        if not inner or inner[0] != 0 or any(c < 0 for c in inner) or all(c == 0 for c in inner):
            raise InvalidSpec("expof inner series needs g(0) = 0 and g nonzero, g >= 0")
    if v == "canprod":
        zs = spec.zeros or ()
        if not zs or any(z <= 0 for z in zs) or list(zs) != sorted(zs):
            raise InvalidSpec("canprod needs a positive increasing zero list")


# -- partition-product sums ------------------------------------------------------

_MAX_TERMS = 10_000_000
_NO_TAIL = "series summation did not reach its tail criterion"
_LAMBERT_TAIL = 1e-17


def _parts_shape(spec: FamilySpec) -> tuple[int, int, int]:
    """(first part p0, step d, weight exponent b) of a partition product
    prod_j (1 - z^{p_j})^(-c_j), p_j = p0 + d (j - 1), c_j = j^b; Q is the
    odd-parts form of the distinct-parts product."""
    v = spec.variant
    if v == "P":
        return 1, 1, 0
    if v == "Q":
        return 1, 2, 0
    if v == "Pab":
        return spec.b, spec.a, 0
    return spec.a, spec.a, spec.b  # Wab


def _part_pairs(p0: int, d: int, b: int, hi: int) -> Iterator[tuple[int, int]]:
    """The (part, multiplicity) pairs (p_j, j^b), p_j = p0 + d (j - 1) <= hi."""
    return ((p, j**b) for j, p in enumerate(range(p0, hi + 1, d), 1))


def _divisor_sums(parts_mult: Iterable[tuple[int, Fraction | int]], lo: int, hi: int) -> list:
    """s_k = sum of c p over the (p, c) pairs with p dividing k, for
    lo <= k <= hi, by a sieve over the pairs (a part above hi adds nothing)."""
    sums = [0] * (hi - lo + 1)
    for p, c in parts_mult:
        w = c * p
        first = -(-lo // p) * p - lo  # offset of the first multiple of p >= lo
        sums[first::p] = [s + w for s in sums[first::p]]
    return sums


def _coeff_log_bound(b: int) -> Callable[[int], float]:
    """k -> ln of an upper bound on a_k = s_k / k for weight exponent b.

    Every shape has p_j >= j, so c_j = j^b <= p_j^b. With b = 0,
    a_k <= sum_{e | k} 1/e <= H_k <= 1 + ln k; with b >= 1,
    s_k <= sigma_{b+1}(k) <= zeta(b+1) k^{b+1}, so a_k <= zeta(b+1) k^b.
    Both bounds grow with k by a ratio that falls with k.
    """
    if b == 0:
        return lambda k: math.log1p(math.log(k))
    log_zeta = math.log(zeta_real(b + 1.0))
    return lambda k: log_zeta + b * math.log(k)


def _lambert_log_tail(r: float, order: int, log_bound: Callable[[int], float]) -> float:
    """ln of a bound on the tail sum_{k > order} a_k r^k of ln f(r).

    With g the bound of ``_coeff_log_bound`` and K = order + 1, the ratio
    g(k+1)/g(k) is at most rho = g(K+1)/g(K) for k >= K, so the tail is at
    most g(K) r^K / (1 - r rho); inf when r rho >= 1.
    """
    k = order + 1
    g = log_bound(k)
    q = r * math.exp(log_bound(k + 1) - g)
    if q >= 1.0:
        return math.inf
    return g + k * math.log(r) - math.log1p(-q)


def _lambert_order(r: float, log_bound: Callable[[int], float]) -> int:
    """The least order K >= 1 whose certified tail bound at |z| = r, 0 < r < 1,
    is at most _LAMBERT_TAIL: Newton steps up from -ln(_LAMBERT_TAIL)/-ln r
    (ln of the bound falls by about -ln r per term), then single steps down
    while the bound one order lower still holds."""
    lr = -math.log(r)
    target = math.log(_LAMBERT_TAIL)
    order = max(1, math.ceil(-target / lr))
    tail = _lambert_log_tail(r, order, log_bound)
    while tail > target:
        if tail == math.inf:
            order *= 2
        else:
            order = max(order + 1, math.ceil(order + (tail - target) / lr))
        if order > _MAX_TERMS:
            raise TruncationTooLarge(f"complex log product needs over {_MAX_TERMS} terms")
        tail = _lambert_log_tail(r, order, log_bound)
    while order > 1 and _lambert_log_tail(r, order - 1, log_bound) <= target:
        order -= 1
    return order


def _parts_sums(p0: int, d: int, b: int):
    """Evaluators of the product prod_j (1 - t^{p_j})^(-c_j), j >= 1.

    The parts are p_j = p0 + d (j - 1) and the weights c_j = j^b, the shape
    that ``_parts_shape`` names. Returns ln f, m, sigma^2, complex ln f and
    the pair (F''', F'''') of fulcrum derivatives at s = ln t, then the
    circle evaluator: t -> (z -> ln f(z)) for |z| = t.

    ln f, m and sigma^2 are each one for loop over the part range
    range(p0, p0 + d _MAX_TERMS, d), whose end is the term limit. Each
    term takes u^p once; the majorant of the tail is read at the next part,
    p + d. For b = 0 the weight j^b is the integer 1, so P, Q, Pab and
    Wab:a,0 loop with no weight power and no part counter. Float
    expressions keep their operands, order and grouping, and only
    side-effect-free comparisons are reordered, so for 0 <= u < 1, where no
    term is negative, every result and every power taken is that of summing
    term by term. The term test v <= 1e-16 total comes first. F''' and
    F'''' share one loop: with x = u^p, the inner sums over k of k^(q-1) x^k
    are x (1 + x) / (1 - x)^3 and x (1 + 4x + x^2) / (1 - x)^4 (Eulerian
    polynomials), so a part costs one power and no inner series. It stops
    once both sums meet the tail criterion. A loop also stops at a term
    that is exactly 0.0: u^p has underflowed, so every later term is 0 too.
    That test comes after the tail criterion, so an input that meets the
    criterion stops where it always did; it ends the loops at t below about
    5e-308, where 1e-16 times the sum underflows to 0 and the criterion can
    never be met (the term test's equality case).

    Complex ln f is the Lambert series ln f(z) = sum_{k>=1} (s_k/k) z^k with
    s_k = sum_{j : p_j | k} c_j p_j, the same principal-branch value as
    sum_j -c_j Log(1 - z^{p_j}) for |z| < 1. It is one Horner pass over a
    table of s_k/k kept by the evaluator: the integers s_k come from the
    divisor sieve that the exact oracle's Euler transform reads too, each is
    divided by k once, and the table grows on demand.
    The order K is the least one whose certified tail bound at |z|
    (``_lambert_log_tail``) is at most 1e-17.

    The circle evaluator at t takes K and the slice of the table once, from
    t, and then makes the same Horner pass at each z; ``log_value_complex``
    is the circle evaluator at |z|. A computed z = t e^{i phi} has |z|
    within a rounding error or two of t, so the two agree bit for bit
    wherever both radii give the same K. At |z| <= t (1 + 2 eps),
    eps = 2^-52, the tail past K is at most ``_lambert_log_tail`` at
    r = t (1 + 2 eps): the bound at t times (1 + 2 eps)^(K+1), over a
    geometric denominator 1 - r rho that is 2 eps r rho smaller. For every
    order up to _MAX_TERMS that is below 1.00000001e-17.
    """

    parts = range(p0, p0 + d * _MAX_TERMS, d)

    if b == 0:
        def log_value(u: float) -> float:
            total = 0.0
            for p in parts:
                v = -math.log1p(-u**p)
                total += v
                tiny = _REL_TERM * total
                if v <= tiny and (v < tiny and u ** (p + d) / (1.0 - u)
                                  < _REL_TAIL * total or v == 0.0):
                    return total
            raise TruncationTooLarge(_NO_TAIL)

        def mean(u: float) -> float:
            total = 0.0
            for p in parts:
                x = u**p
                v = p * x / (1.0 - x)
                total += v
                tiny = _REL_TERM * total
                if v <= tiny and (v < tiny and (p + d) * u ** (p + d) / (1.0 - u)
                                  < _REL_TAIL * total or v == 0.0):
                    return total
            raise TruncationTooLarge(_NO_TAIL)

        def variance(u: float) -> float:
            total = 0.0
            for p in parts:
                x = u**p
                v = p * p * x / (1.0 - x) ** 2
                total += v
                tiny = _REL_TERM * total
                if v <= tiny and (v < tiny and (p + d) * (p + d) * u ** (p + d) / (1.0 - u) ** 2
                                  < _REL_TAIL * total or v == 0.0):
                    return total
            raise TruncationTooLarge(_NO_TAIL)

    else:
        def log_value(u: float) -> float:
            total = 0.0
            for j, p in enumerate(parts, 1):
                v = -(j**b) * math.log1p(-u**p)
                total += v
                tiny = _REL_TERM * total
                if v <= tiny and (v < tiny and (j + 1) ** b * u ** (p + d) / (1.0 - u)
                                  < _REL_TAIL * total or v == 0.0):
                    return total
            raise TruncationTooLarge(_NO_TAIL)

        def mean(u: float) -> float:
            total = 0.0
            for j, p in enumerate(parts, 1):
                x = u**p
                v = j**b * p * x / (1.0 - x)
                total += v
                tiny = _REL_TERM * total
                if v <= tiny and (v < tiny and (j + 1) ** b * (p + d) * u ** (p + d) / (1.0 - u)
                                  < _REL_TAIL * total or v == 0.0):
                    return total
            raise TruncationTooLarge(_NO_TAIL)

        def variance(u: float) -> float:
            total = 0.0
            for j, p in enumerate(parts, 1):
                x = u**p
                v = j**b * p * p * x / (1.0 - x) ** 2
                total += v
                tiny = _REL_TERM * total
                if v <= tiny and (v < tiny and (j + 1) ** b * (p + d) * (p + d) * u ** (p + d)
                                  / (1.0 - u) ** 2 < _REL_TAIL * total or v == 0.0):
                    return total
            raise TruncationTooLarge(_NO_TAIL)

    log_bound = _coeff_log_bound(b)
    table = array("d")  # s_k / k at index k - 1, grown on demand

    def log_value_circle(t: float) -> Callable[[complex], complex]:
        if not t < 1.0:
            raise TruncationTooLarge(f"complex log product needs |z| < 1, got {t}")
        order = _lambert_order(t, log_bound) if t else 1
        if order > len(table):
            lo = len(table) + 1
            hi = min(max(order, 2 * len(table)), _MAX_TERMS)
            sums = _divisor_sums(_part_pairs(p0, d, b, hi), lo, hi)
            table.extend([s / k for k, s in zip(range(lo, hi + 1), sums)])
        coeffs = table[order - 1::-1]

        def on_circle(z: complex) -> complex:
            acc = 0j
            for a in coeffs:
                acc = acc * z + a
            return acc * z

        return on_circle

    def log_value_complex(z: complex) -> complex:
        return log_value_circle(abs(z))(z)

    def fulcrum34(s: float) -> tuple[float, float]:
        # F(s) = sum_j -c_j ln(1 - x_j), x_j = e^{p_j s}, so F^(q)(s) =
        # sum_j c_j p_j^q sum_k k^{q-1} x_j^k, an inner sum in closed form
        u = math.exp(s)
        f3 = f4 = 0.0
        j, p = 1, p0
        while True:
            x = u**p
            w = j**b * float(p) ** 3 * x / (1.0 - x) ** 3
            v3 = w * (1.0 + x)
            v4 = w * p * (1.0 + x * (4.0 + x)) / (1.0 - x)
            f3 += v3
            f4 += v4
            j += 1
            p += d
            if (f3 > 0 and v3 < _REL_TERM * f3 and v4 < _REL_TERM * f4
                    and j**b * float(p) ** 3 * u**p / (1.0 - u) ** 3 < _REL_TAIL * f3
                    and j**b * float(p) ** 4 * u**p / (1.0 - u) ** 4 < _REL_TAIL * f4
                    or v3 == 0.0):
                return f3, f4
            if j > _MAX_TERMS:
                raise TruncationTooLarge("series summation did not reach its tail criterion")

    return log_value, mean, variance, log_value_complex, fulcrum34, log_value_circle


# -- exact coefficient oracles ---------------------------------------------------


def pentagonal_partitions(n_max: int) -> list[int]:
    """p(0..n_max) by the pentagonal-number recurrence."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def product_expansion(parts_mult: Iterable[tuple[int, int]], n_max: int) -> list[int]:
    """Coefficients a_0..a_{n_max} of prod (1 - z^p)^(-c) over the listed
    (p, c) pairs, by the Euler transform
    n a_n = sum_{k=1}^{n} s_k a_{n-k} over the divisor sums s_k of
    ``_divisor_sums``; the division is exact."""
    s = _divisor_sums(parts_mult, 1, n_max)
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(map(mul, s, reversed(a))) // n)
    return a


def sets_of_lists_numbers(n_max: int) -> list[int]:
    """s_0..s_n, the sets of lists on n labels (OEIS A000262), by the
    recurrence s_n = (2n - 1) s_{n-1} - (n - 1)(n - 2) s_{n-2}."""
    out = [1, 1][: n_max + 1]
    for n in range(2, n_max + 1):
        out.append((2 * n - 1) * out[-1] - (n - 1) * (n - 2) * out[-2])
    return out


def _egf(numerators: Iterable[int]) -> se.CoeffSeries:
    """The series sum_n b_n z^n / n!, with n! kept as a running product."""
    vals = []
    fact = 1
    for n, b in enumerate(numerators):
        if n:
            fact *= n
        vals.append(Fraction(b, fact))
    return se.CoeffSeries(tuple(vals))


def _canprod_poly(zeros: Sequence[Fraction], n_max: int) -> se.CoeffSeries:
    """prod (1 + z/b) over the zeros b, truncated at order n_max."""
    acc = se.CoeffSeries.from_list([1], order=n_max)
    for z in zeros:
        acc = se.mul(acc, se.CoeffSeries.from_list([1, Fraction(1, 1) / z], order=n_max))
    return acc


def _check_order(n_max: int) -> None:
    if n_max < 0:
        raise ValueError(f"truncation {n_max} must be >= 0")
    if n_max > MAX_TRUNC:
        raise TruncationTooLarge(f"truncation {n_max} exceeds the guard {MAX_TRUNC}")


def bell_numbers(n_max: int) -> list[int]:
    """B_0..B_n by the Bell triangle (each row starts with the previous
    row's last entry; the row's last entry is the next Bell number)."""
    if n_max == 0:
        return [1]
    out = [1, 1]
    row = [1]
    for _ in range(2, n_max + 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        out.append(row[-1])
    return out


@lru_cache(maxsize=128)
def exact_coeffs(spec: FamilySpec, n_max: int) -> se.CoeffSeries:
    """Exact coefficients a_0..a_{n_max} of the catalog family."""
    _validate(spec)
    _check_order(n_max)
    v = spec.variant
    if v == "exp":
        return _egf(repeat(1, n_max + 1))
    if v == "bernoulli":
        return se.CoeffSeries.from_list([1, 1], order=n_max)
    if v == "binom":
        vals = [math.comb(spec.n, k) if k <= spec.n else 0 for k in range(n_max + 1)]
        return se.CoeffSeries.from_list(vals)
    if v == "geom":
        return se.CoeffSeries.from_list([1] * (n_max + 1))
    if v == "negbinom":
        vals = [math.comb(n + spec.n - 1, n) for n in range(n_max + 1)]
        return se.CoeffSeries.from_list(vals)
    if v == "poly":
        return se.CoeffSeries.from_list(spec.coeffs, order=n_max)
    if v == "bell":
        return _egf(bell_numbers(n_max))
    if v == "P":
        return se.CoeffSeries.from_list(pentagonal_partitions(n_max))
    if v in ("Q", "Pab", "Wab"):
        parts = _part_pairs(*_parts_shape(spec), n_max)
        return se.CoeffSeries.from_list(product_expansion(parts, n_max))
    if v == "expof":
        g = se.CoeffSeries.from_list(spec.inner.coeffs, order=n_max)
        exp_g, _ = se.exp_series(g)
        return exp_g
    if v == "canprod":
        return _canprod_poly(spec.zeros, n_max)
    if v == "setsoflists":
        return _egf(sets_of_lists_numbers(n_max))
    raise InvalidSpec(f"unknown variant {v}")


# -- family construction ---------------------------------------------------------


def make_family(spec: FamilySpec, trunc: int = 512) -> Family:
    """Bind closed-form evaluators and the exact oracle into a Family.

    The oracle, ``exact_coeffs(spec, trunc)``, is built on the first read of
    ``coeffs`` and kept by the family. Every variant is named by its spec
    key.
    """
    _validate(spec)
    _check_order(trunc)
    v = spec.variant
    key = spec.key()
    common = dict(
        name=key, spec_key=key, oracle=cache(lambda: exact_coeffs(spec, trunc)),
        usg=v in ("exp", "bell", "P", "Q") or (v == "Wab" and spec.a == 1),
    )

    if v == "exp":
        return Family(
            **common, radius=math.inf, mean_sup=math.inf,
            log_value=lambda t: t,
            mean=lambda t: t,
            variance=lambda t: t,
            log_value_complex=lambda z: z,
            fulcrum34=lambda s: (math.exp(s), math.exp(s)),
        )

    if v in ("bernoulli", "binom"):
        n = 1 if v == "bernoulli" else spec.n
        return Family(
            **common, radius=math.inf, mean_sup=float(n),
            log_value=lambda t: n * math.log1p(t),
            mean=lambda t: _binom_mean(n, t),
            variance=lambda t: _binom_var(n, t),
            log_value_complex=lambda z: n * cmath.log(1 + z),
            fulcrum34=lambda s: _binom_f34(n, math.exp(s)),
        )

    if v in ("geom", "negbinom"):
        n = 1 if v == "geom" else spec.n
        return Family(
            **common, radius=1.0, mean_sup=math.inf,
            log_value=lambda t: -n * math.log1p(-t),
            mean=lambda t: n * t / (1.0 - t),
            variance=lambda t: n * t / (1.0 - t) ** 2,
            log_value_complex=lambda z: -n * cmath.log(1 - z),
            fulcrum34=lambda s: _geom_f34(n, math.exp(s)),
        )

    if v in ("poly", "canprod"):
        if v == "canprod":
            poly = _canprod_poly(spec.zeros, len(spec.zeros))
        else:
            poly = se.CoeffSeries.from_list(spec.coeffs)
        from .family import family_from_coeffs

        return dataclasses.replace(
            family_from_coeffs(poly, name=key), **common,
            meta={"truncated_product": v == "canprod"},
        )

    if v == "bell":
        def f34(s: float) -> tuple[float, float]:
            t = math.exp(s)
            et = _float_exp(math.exp, t)
            return (t + 3 * t * t + t**3) * et, (t + 7 * t * t + 6 * t**3 + t**4) * et

        return Family(
            **common, radius=math.inf, mean_sup=math.inf,
            log_value=lambda t: _float_exp(math.expm1, t),
            mean=lambda t: t * _float_exp(math.exp, t),
            variance=lambda t: t * (1.0 + t) * _float_exp(math.exp, t),
            log_value_complex=lambda z: cmath.exp(z) - 1,
            fulcrum34=f34,
        )

    if v == "expof":
        return _exp_poly_family(se.CoeffSeries.from_list(spec.inner.coeffs), common)

    if v == "setsoflists":
        def f34(s: float) -> tuple[float, float]:
            t = math.exp(s)
            f3 = t * (1 + 4 * t + t * t) / (1 - t) ** 4
            f4 = t * (1 + 11 * t + 11 * t * t + t**3) / (1 - t) ** 5
            return f3, f4

        return Family(
            **common, radius=1.0, mean_sup=math.inf,
            log_value=lambda t: t / (1.0 - t),
            mean=lambda t: t / (1.0 - t) ** 2,
            variance=lambda t: t * (1.0 + t) / (1.0 - t) ** 3,
            log_value_complex=lambda z: z / (1 - z),
            fulcrum34=f34,
        )

    # partition products: P, Q, Pab, Wab
    p0, d, b = _parts_shape(spec)
    log_value, mean, variance, log_complex, fulcrum34, log_circle = _parts_sums(p0, d, b)

    return Family(
        **common, radius=1.0, mean_sup=math.inf,
        log_value=log_value, mean=mean, variance=variance,
        log_value_complex=log_complex, log_value_circle=log_circle,
        q_gcd=math.gcd(p0, d),
        fulcrum34=fulcrum34,
    )


def _float_exp(fn: Callable[[float], float], t: float) -> float:
    """fn(t) for fn = math.exp or math.expm1, naming a float overflow."""
    try:
        return fn(t)
    except OverflowError:
        raise DomainError(f"e^{t} overflows a float") from None


def _binom_mean(n: int, t: float) -> float:
    m = n * t / (1.0 + t)
    # n t overflows for t near the float maximum; n x with x = t/(1+t) does not
    return n * (t / (1.0 + t)) if m == math.inf else m


def _binom_var(n: int, t: float) -> float:
    try:
        return n * t / (1.0 + t) ** 2
    except OverflowError:
        return _binom_cumulants_in_x(n, t)[0]


def _binom_f34(n: int, t: float) -> tuple[float, float]:
    try:
        f3 = n * t * (1 - t) / (1 + t) ** 3
    except OverflowError:
        f3 = _binom_cumulants_in_x(n, t)[1]
    try:
        f4 = n * t * (1 - 4 * t + t * t) / (1 + t) ** 4
    except OverflowError:
        f4 = _binom_cumulants_in_x(n, t)[2]
    return f3, f4


def _binom_cumulants_in_x(n: int, t: float) -> tuple[float, float, float]:
    """kappa_2..kappa_4 of binom:n as n x(1-x), n x(1-x)(1-2x) and
    n x(1-x)(1-6x(1-x)) in x = t/(1+t), for t where (1+t)^k leaves the float
    range. 1 - x is taken as 1/(1+t): 1 - x itself rounds to 0 there."""
    x, y = t / (1.0 + t), 1.0 / (1.0 + t)
    var = n * x * y
    return var, var * (y - x), var * (1 - 6 * x * y)


def _geom_f34(n: int, t: float) -> tuple[float, float]:
    f3 = n * t * (1 + t) / (1 - t) ** 3
    f4 = n * t * (1 + 4 * t + t * t) / (1 - t) ** 4
    return f3, f4


def _exp_poly_family(g: se.CoeffSeries, common: dict) -> Family:
    gf = [float(c) for c in g.coeffs]

    def g_at(t: float) -> float:
        return math.fsum(c * t**n for n, c in enumerate(gf) if c)

    def g_deriv(t: float, order: int) -> float:
        return math.fsum(
            math.prod(range(n - order + 1, n + 1)) * c * t ** (n - order)
            for n, c in enumerate(gf)
            if c and n >= order
        )

    def g_complex(z: complex) -> complex:
        acc = complex(0.0)
        for c in reversed(gf):
            acc = acc * z + c
        return acc

    def f34(s: float) -> tuple[float, float]:
        # F(s) = g(e^s): F^(q)(s) = sum_m m^q g_m e^{ms}
        t = math.exp(s)
        f3 = math.fsum(n**3 * c * t**n for n, c in enumerate(gf) if c)
        f4 = math.fsum(n**4 * c * t**n for n, c in enumerate(gf) if c)
        return f3, f4

    return Family(
        **common, radius=math.inf, mean_sup=math.inf,
        log_value=g_at,
        mean=lambda t: t * g_deriv(t, 1),
        variance=lambda t: t * g_deriv(t, 1) + t * t * g_deriv(t, 2),
        log_value_complex=g_complex,
        q_gcd=se.support_gcd(g),
        fulcrum34=f34,
    )


# -- approximate moments and axis asymptotics ------------------------------------


@dataclass(frozen=True)
class ApproxMoments:
    """Closed-form approximations of the mean and deviation laws.

    ``m_tilde``/``sigma_tilde`` are functions of s (t = e^{-s});
    ``s_for_mean(n)`` inverts m_tilde in closed form, and ``tau_for(n)``
    returns the corresponding radius e^{-s_n}.
    """

    m_tilde: Callable[[float], float]
    sigma_tilde: Callable[[float], float]
    s_for_mean: Callable[[float], float]

    def tau_for(self, n: float) -> float:
        return math.exp(-self.s_for_mean(n))


def approx_moments(spec: FamilySpec) -> ApproxMoments:
    """The closed approximate mean/variance laws of the partition catalog."""
    _validate(spec)
    v = spec.variant
    z2 = zeta_real(2.0)
    if v == "P":
        return ApproxMoments(
            m_tilde=lambda s: z2 / s**2,
            sigma_tilde=lambda s: math.sqrt(2.0 * z2 / s**3),
            s_for_mean=lambda n: math.sqrt(z2 / n),
        )
    if v == "Q":
        return ApproxMoments(
            m_tilde=lambda s: z2 / (2.0 * s**2),
            sigma_tilde=lambda s: math.sqrt(z2 / s**3),
            s_for_mean=lambda n: math.sqrt(z2 / (2.0 * n)),
        )
    if v == "Pab":
        a = float(spec.a)
        return ApproxMoments(
            m_tilde=lambda s: z2 / (a * s**2),
            sigma_tilde=lambda s: math.sqrt(2.0 * z2 / (a * s**3)),
            s_for_mean=lambda n: math.sqrt(z2 / (a * n)),
        )
    if v == "Wab":
        # parts a*j of weight j^b: ln f ~ Gamma(b+1) zeta(b+2) / (a s)^(b+1)
        a, b = float(spec.a), float(spec.b)
        e = b + 2.0
        c = zeta_real(e) * math.exp(log_gamma(e)) / a ** (b + 1.0)
        c2 = zeta_real(e) * math.exp(log_gamma(e + 1.0)) / a ** (b + 1.0)
        return ApproxMoments(
            m_tilde=lambda s: c / s**e,
            sigma_tilde=lambda s: math.sqrt(c2 / s ** (e + 1.0)),
            s_for_mean=lambda n: (c / n) ** (1.0 / e),
        )
    if v == "bell":
        # exact mean law te^t: the inverse is the Lambert function, and the
        # deviation approximation is the true one.
        return ApproxMoments(
            m_tilde=lambda s: math.exp(-s) * math.exp(math.exp(-s)),
            sigma_tilde=lambda s: math.sqrt(
                math.exp(-s) * (1.0 + math.exp(-s)) * math.exp(math.exp(-s))
            ),
            s_for_mean=lambda n: -math.log(lambert_w0(n)),
        )
    raise NoApproxAvailable(f"no approximate moment law for {v}")


def axis_asymptotic(spec: FamilySpec, s: float) -> LogNumber:
    """Closed asymptotic value of f(e^{-s}) as s drops to 0, in log space.

    No caller in the package: kept until one Mellin record per partition
    shape decides whether the closed forms read it or it moves to the tests.
    """
    _validate(spec)
    if s <= 0:
        raise NoAxisFormula("axis asymptotics need s > 0")
    v = spec.variant
    z2 = zeta_real(2.0)
    if v == "P":
        ln = z2 / s + 0.5 * math.log(s) - 0.5 * math.log(2.0 * math.pi)
        return LogNumber.from_log(ln)
    if v == "Q":
        ln = z2 / (2.0 * s) - 0.5 * math.log(2.0)
        return LogNumber.from_log(ln)
    if v == "Pab":
        a, b = spec.a, spec.b
        ln = (
            z2 / (a * s)
            + (b / a - 0.5) * math.log(a * s)
            + log_gamma(b / a)
            - 0.5 * math.log(2.0 * math.pi)
        )
        return LogNumber.from_log(ln)
    if v == "Wab":
        a, b = spec.a, spec.b
        if b > 2:
            raise NoAxisFormula("colored axis asymptotics need b <= 2 (zeta'(-b) table)")
        # the poles at w = b + 1 and w = 0 of Gamma(w) zeta(w+1) a^-w zeta(w-b) s^-w
        e = b + 1.0
        ln = (
            zeta_real(1.0 + e) * math.exp(log_gamma(e)) / a**e / s**e
            - ZETA_NEG[b] * math.log(s)
            + zeta_prime_neg(b)
            - ZETA_NEG[b] * math.log(a)
        )
        return LogNumber.from_log(ln)
    raise NoAxisFormula(f"no axis asymptotic formula for {v}")
