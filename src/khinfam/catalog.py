"""Named generating-function families.

Each catalog entry binds three things together: closed-form evaluators for
ln f, the mean and the variance; an exact integer/rational coefficient
oracle; and, for the partition-type families, the Mellin record that the
approximate mean/variance laws and the closed forms of ``asym`` read.

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
from functools import lru_cache, partial
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from . import series as se
from .errors import (
    DomainError,
    InvalidSpec,
    NoApproxAvailable,
    RadiusOutOfRange,
    TruncationTooLarge,
)
from .family import Family, Oracle, family_from_coeffs
from .numerics import ZETA_NEG, lambert_w0, log_gamma, zeta_prime_neg, zeta_real

MAX_TRUNC = 100_000

_REL_TERM = 1e-16
_REL_TAIL = 1e-14


# each variant and its parameter, as the grammar writes it
_VARIANTS = {
    "exp": "", "bernoulli": "", "binom": ":N", "geom": "", "negbinom": ":N",
    "poly": ":a0,a1,...", "bell": "", "P": "", "Q": "", "Pab": ":a,b", "Wab": ":a,b",
    "expof": ":poly:...", "canprod": ":b1,b2,...", "setsoflists": "",
}


@dataclass(frozen=True)
class FamilySpec:
    """Parsed description of a catalog family (see ``_VARIANTS``), checked
    when it is made. ``coeffs`` holds a poly's coefficients, and those of
    the poly g of expof, e^g."""

    variant: str
    n: int | None = None
    a: int | None = None
    b: int | None = None
    coeffs: tuple[Fraction, ...] | None = None
    zeros: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        v = self.variant
        if v not in _VARIANTS:
            raise InvalidSpec(f"unknown variant {v}")
        if v in ("binom", "negbinom") and (self.n is None or self.n < 1):
            raise InvalidSpec(f"{v} needs an integer parameter >= 1")
        if v == "Pab" and (self.a is None or self.a < 1 or self.b is None or self.b < 1):
            raise InvalidSpec("Pab needs integers a, b >= 1")
        if v == "Wab" and (self.a is None or self.a < 1 or self.b is None or self.b < 0):
            raise InvalidSpec("Wab needs integers a >= 1, b >= 0")
        cs = self.coeffs or ()
        if v == "poly" and (len(cs) < 2 or cs[0] <= 0 or any(c < 0 for c in cs)
                            or all(c == 0 for c in cs[1:])):
            raise InvalidSpec("poly needs a0 > 0, coefficients >= 0 and degree >= 1")
        if v == "expof" and (not cs or cs[0] != 0 or any(c < 0 for c in cs)
                             or all(c == 0 for c in cs)):
            raise InvalidSpec("expof inner series needs g(0) = 0 and g nonzero, g >= 0")
        zs = self.zeros or ()
        if v == "canprod" and (not zs or any(z <= 0 for z in zs) or list(zs) != sorted(zs)):
            raise InvalidSpec("canprod needs a positive increasing zero list")

    def key(self) -> str:
        parts = [self.variant] + (["poly"] if self.variant == "expof" else [])
        if self.n is not None:
            parts.append(str(self.n))
        if self.a is not None:
            parts.append(f"{self.a},{self.b}")
        if self.coeffs is not None:
            parts.append(",".join(str(c) for c in self.coeffs))
        if self.zeros is not None:
            parts.append(",".join(str(z) for z in self.zeros))
        return ":".join(parts)


def parse_family(text: str) -> FamilySpec:
    """Parse the textual grammar shared with the CLI."""
    text = text.strip()
    head, colon, rest = text.partition(":")
    if head not in _VARIANTS:
        grammar = " | ".join(v + param for v, param in _VARIANTS.items())
        raise InvalidSpec(f"unknown family {text!r}; grammar: {grammar}")
    param = _VARIANTS[head]
    try:
        if not param:
            if colon:
                raise InvalidSpec(f"{head} takes no parameter: {text!r}")
            return FamilySpec(head)
        if param == ":N":
            return FamilySpec(head, n=int(rest))
        if param == ":a,b":
            a, b = (int(v) for v in rest.split(","))
            return FamilySpec(head, a=a, b=b)
        if param == ":b1,b2,...":
            texts = rest.split(",")
            zeros = tuple(_parse_rat(v) for v in texts)
            for t, z in zip(texts, zeros):
                if z > 0 and not _fits_float(1 / z):
                    raise InvalidSpec(f"1/{t.strip()} does not fit a float")
            return FamilySpec(head, zeros=zeros)
        if param == ":poly:...":
            inner, _, rest = rest.partition(":")
            if inner != "poly":
                raise InvalidSpec("expof currently takes a poly inner spec")
        return FamilySpec(head, coeffs=tuple(_parse_rat(v) for v in rest.split(",")))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidSpec(f"cannot parse family {text!r}: {exc}") from exc


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
    that ``_parts_shape`` names. Returns ln f, m, sigma^2, the pair
    (F''', F'''') of fulcrum derivatives at s = ln t, and the circle
    evaluator: t -> (z -> ln f(z)) for |z| = t.

    ln f, m and sigma^2 are each one for loop over the part range
    range(p0, p0 + d _MAX_TERMS, d), whose end is the term limit. Each
    term takes u^p once; the majorant of the tail is read at the next part,
    p + d. For b = 0 the weight j^b is the integer 1, so P, Q, Pab and
    Wab:a,0 loop with no weight power and no part counter. Float
    expressions keep their operands, order and grouping, and only
    side-effect-free comparisons are reordered, so for 0 <= u < 1, where no
    term is negative, every result and every power taken is that of summing
    term by term. Each loop first refuses a u that is not below 1, nan
    included, as RadiusOutOfRange: no sum there meets its tail criterion.
    The term test v <= 1e-16 total comes first. F''' and
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
    The order K is the least one whose certified tail bound at t
    (``_lambert_log_tail``) is at most 1e-17.

    The circle evaluator at t takes K and the slice of the table once, from
    t, and then makes the same Horner pass at each z. A computed
    z = t e^{i phi} has |z| within a rounding error or two of t. At
    |z| <= t (1 + 2 eps), eps = 2^-52, the tail past K is at most
    ``_lambert_log_tail`` at r = t (1 + 2 eps): the bound at t times
    (1 + 2 eps)^(K+1), over a geometric denominator 1 - r rho that is
    2 eps r rho smaller. For every order up to _MAX_TERMS that is below
    1.00000001e-17.
    """

    parts = range(p0, p0 + d * _MAX_TERMS, d)

    if b == 0:
        def log_value(u: float) -> float:
            if not u < 1.0:
                raise RadiusOutOfRange(f"the product needs t < 1, got {u}")
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
            if not u < 1.0:
                raise RadiusOutOfRange(f"the product needs t < 1, got {u}")
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
            if not u < 1.0:
                raise RadiusOutOfRange(f"the product needs t < 1, got {u}")
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
            if not u < 1.0:
                raise RadiusOutOfRange(f"the product needs t < 1, got {u}")
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
            if not u < 1.0:
                raise RadiusOutOfRange(f"the product needs t < 1, got {u}")
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
            if not u < 1.0:
                raise RadiusOutOfRange(f"the product needs t < 1, got {u}")
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
            raise RadiusOutOfRange(f"complex log product needs |z| < 1, got {t}")
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

    def fulcrum34(s: float) -> tuple[float, float]:
        # F(s) = sum_j -c_j ln(1 - x_j), x_j = e^{p_j s}, so F^(q)(s) =
        # sum_j c_j p_j^q sum_k k^{q-1} x_j^k, an inner sum in closed form
        u = math.exp(s)
        if not u < 1.0:
            raise RadiusOutOfRange(f"the product needs s < 0, got {s}")
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

    return log_value, mean, variance, fulcrum34, log_value_circle


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
        g = se.CoeffSeries.from_list(spec.coeffs, order=n_max)
        exp_g, _ = se.exp_series(g)
        return exp_g
    if v == "canprod":
        return _canprod_poly(spec.zeros, n_max)
    return _egf(sets_of_lists_numbers(n_max))  # setsoflists


# -- family construction ---------------------------------------------------------


def make_family(spec: FamilySpec, trunc: int = 512) -> Family:
    """Bind closed-form evaluators and the exact oracle into a Family.

    The oracle builds ``exact_coeffs(spec, n)`` on the first
    ``coeffs_through(n)`` and keeps it, growing it on a later ask; ``trunc``
    is its cap, the one order no build may pass. Every variant is named by
    its spec key and carries its spec.
    """
    _check_order(trunc)
    v = spec.variant
    common = dict(
        name=spec.key(), spec=spec, oracle=Oracle(lambda n: exact_coeffs(spec, n), trunc),
        usg=v in ("exp", "bell", "P", "Q") or (v == "Wab" and spec.a == 1),
    )

    if v in ("poly", "canprod"):
        if v == "canprod":
            poly = _canprod_poly(spec.zeros, len(spec.zeros))
        else:
            poly = se.CoeffSeries.from_list(spec.coeffs)
        return dataclasses.replace(family_from_coeffs(poly, name=common["name"]), **common)

    if v in ("P", "Q", "Pab", "Wab"):
        p0, d, b = _parts_shape(spec)
        log_value, mean, variance, fulcrum34, log_circle = _parts_sums(p0, d, b)
        return Family(
            **common, radius=1.0, mean_sup=math.inf, log_value=log_value, mean=mean,
            variance=variance, log_value_circle=log_circle, q_gcd=math.gcd(p0, d),
            fulcrum34=fulcrum34,
        )

    return _closed_family(spec, common)


# -- closed forms: f = e^g, so the cumulants are kappa_q = (theta^q g)(t) ----------

# w Li_{-r}(t) = w sum_k k^r t^k at index r + 1, r = -1 .. 4: -w ln(1 - t),
# then w t A_r(t) / (1 - t)^(r+1) with A_r the Eulerian polynomials
_POLYLOG = (
    lambda w, t: -w * math.log1p(-t),
    lambda w, t: w * t / (1.0 - t),
    lambda w, t: w * t / (1.0 - t) ** 2,
    lambda w, t: w * t * (1 + t) / (1 - t) ** 3,
    lambda w, t: w * t * (1 + 4 * t + t * t) / (1 - t) ** 4,
    lambda w, t: w * t * (1 + 11 * t + 11 * t * t + t**3) / (1 - t) ** 5,
)

# kappa_1 .. kappa_4 of binom:n, g = n ln(1 + z), in t and in x = t/(1+t);
# the x-forms take 1 - x as y = 1/(1+t), since 1 - x itself rounds to 0
# where the t-forms leave the float range
_BINOM_T = (
    lambda n, t: n * t / (1.0 + t),
    lambda n, t: n * t / (1.0 + t) ** 2,
    lambda n, t: n * t * (1 - t) / (1 + t) ** 3,
    lambda n, t: n * t * (1 - 4 * t + t * t) / (1 + t) ** 4,
)
_BINOM_X = (
    lambda n, x, y: n * x,
    lambda n, x, y: n * x * y,
    lambda n, x, y: n * x * y * (y - x),
    lambda n, x, y: n * x * y * (1 - 6 * x * y),
)

# kappa_1 .. kappa_4 of bell, g = e^z - 1: T_q(t) e^t from (t, e^t), with
# T_q the Touchard polynomials
_TOUCHARD = (
    lambda t, et: t * et,
    lambda t, et: t * (1.0 + t) * et,
    lambda t, et: (t + 3 * t * t + t**3) * et,
    lambda t, et: (t + 7 * t * t + 6 * t**3 + t**4) * et,
)


def _binom_kappa(t_form, x_form, n: int, t: float) -> float:
    """The t-form, or the x-form where the t-form overflows: raises or is inf."""
    try:
        k = t_form(n, t)
    except OverflowError:
        k = math.inf
    return x_form(n, t / (1.0 + t), 1.0 / (1.0 + t)) if k == math.inf else k


def _bell_kappa(touchard, t: float) -> float:
    return touchard(t, _float_exp(math.exp, t))


def _theta_poly(q: int, g: Sequence[float], t: float) -> float:
    """(theta^q g)(t) = sum_n n^q g_n t^n, one fsum over the nonzero g_n."""
    return math.fsum(n**q * c * t**n for n, c in enumerate(g) if c)


def _horner(g: Sequence[float], z: complex) -> complex:
    acc = complex(0.0)
    for c in reversed(g):
        acc = acc * z + c
    return acc


def _fulcrum34(k3, k4, s: float) -> tuple[float, float]:
    t = math.exp(s)
    return k3(t), k4(t)


def _closed_family(spec: FamilySpec, common: dict) -> Family:
    """A closed-form variant's family from its table kappa_0 .. kappa_4 of t,
    one callable object per entry. With theta = t d/dt, kappa_0 = ln f = g,
    kappa_1 is the mean, kappa_2 the variance, and fulcrum34(s) is the pair
    of fulcrum derivatives (kappa_3, kappa_4) at t = e^s."""
    v = spec.variant
    radius, mean_sup, q_gcd = math.inf, math.inf, 1
    if v == "exp":  # theta^q z = z
        kappas, log_complex = [(lambda t: t) for _ in range(5)], lambda z: z
    elif v in ("bernoulli", "binom"):
        n = 1 if v == "bernoulli" else spec.n
        mean_sup = float(n)
        kappas = [lambda t: n * math.log1p(t)]
        kappas += [partial(_binom_kappa, tf, xf, n) for tf, xf in zip(_BINOM_T, _BINOM_X)]
        log_complex = lambda z: n * cmath.log(1 + z)
    elif v in ("geom", "negbinom"):  # kappa_q = N Li_{1-q}
        n = 1 if v == "geom" else spec.n
        radius = 1.0
        kappas = [partial(li, n) for li in _POLYLOG[:5]]
        log_complex = lambda z: -n * cmath.log(1 - z)
    elif v == "setsoflists":  # g = z/(1-z): kappa_q = Li_{-q}
        radius = 1.0
        kappas, log_complex = [partial(li, 1) for li in _POLYLOG[1:]], lambda z: z / (1 - z)
    elif v == "bell":  # g = e^z - 1
        kappas = [lambda t: _float_exp(math.expm1, t)]
        kappas += [partial(_bell_kappa, tq) for tq in _TOUCHARD]
        log_complex = lambda z: cmath.exp(z) - 1
    else:  # expof: kappa_q = sum_n n^q g_n t^n
        g = tuple(float(c) for c in spec.coeffs)
        kappas = [partial(_theta_poly, q, g) for q in range(5)]
        log_complex = partial(_horner, g)
        q_gcd = se.support_gcd(se.CoeffSeries.from_list(spec.coeffs))
    k0, k1, k2, k3, k4 = kappas
    return Family(
        **common, radius=radius, mean_sup=mean_sup,
        log_value=k0, mean=k1, variance=k2, log_value_circle=lambda t: log_complex,
        q_gcd=q_gcd, fulcrum34=partial(_fulcrum34, k3, k4),
    )


def _float_exp(fn: Callable[[float], float], t: float) -> float:
    """fn(t) for fn = math.exp or math.expm1, naming a float overflow."""
    try:
        return fn(t)
    except OverflowError:
        raise DomainError(f"e^{t} overflows a float") from None


# -- the Mellin record and the approximate laws -----------------------------------


@dataclass(frozen=True)
class Mellin:
    """The Mellin data of the partition product of shape (p0, d, b) (see
    ``_parts_shape``), which Meinardus' theorem reads off the Dirichlet
    series D(w) = sum_j c_j p_j^(-w): its pole ``alpha``, its residue A
    there, D(0) and D'(0) (``at_zero``), and g = gcd(p0, d). With
    K = A Gamma(alpha + 1) zeta(alpha + 1), ln f(e^-s) ~ (K/alpha) s^-alpha
    - D(0) ln s + D'(0) as s drops to 0.

    b = 0 (P, Q, Pab): D(w) = d^(-w) zeta(w, p0/d), so alpha = 1, A = 1/d,
    D(0) = 1/2 - p0/d and D'(0) = ln Gamma(p0/d) - ln(2 pi)/2 - D(0) ln d.
    Wab:a,b (p0 = d = a): D(w) = a^(-w) zeta(w - b), so alpha = b + 1,
    A = a^-(b+1), D(0) = zeta(-b) and D'(0) = zeta'(-b) - zeta(-b) ln a.
    """

    p0: int
    d: int
    b: int

    @property
    def alpha(self) -> float:
        return self.b + 1.0

    @property
    def k(self) -> float:
        """K = A Gamma(alpha + 1) zeta(alpha + 1), with A = d^-(b+1)."""
        e = self.alpha + 1.0
        return 1.0 / self.d ** (self.b + 1) * math.exp(log_gamma(e)) * zeta_real(e)

    @property
    def g(self) -> int:
        return math.gcd(self.p0, self.d)

    def reduced(self) -> "Mellin":
        """The shape (p0/g, d/g, b), whose counts at n/g are this one's at n."""
        return Mellin(self.p0 // self.g, self.d // self.g, self.b)

    def at_zero(self) -> tuple[float, float]:
        """(D(0), D'(0)); UnsupportedOrder past the zeta'(-b) table, b > 2."""
        if self.b == 0:
            x = self.p0 / self.d
            d0 = 0.5 - x
            return d0, log_gamma(x) - 0.5 * math.log(2.0 * math.pi) - d0 * math.log(self.d)
        slope = zeta_prime_neg(self.b)
        return ZETA_NEG[self.b], slope - ZETA_NEG[self.b] * math.log(self.d)


def mellin(spec: FamilySpec) -> Mellin:
    """The Mellin record of a partition product P, Q, Pab or Wab."""
    if spec.variant not in ("P", "Q", "Pab", "Wab"):
        raise NoApproxAvailable(f"{spec.variant} is not a partition product")
    return Mellin(*_parts_shape(spec))


@dataclass(frozen=True)
class ApproxMoments:
    """Closed-form approximations of the mean and deviation laws.

    ``m_tilde``/``sigma_tilde`` are functions of s (t = e^{-s});
    ``s_for_mean(n)`` inverts m_tilde in closed form, so the closed saddle
    of n is the radius e^{-s_n}.
    """

    m_tilde: Callable[[float], float]
    sigma_tilde: Callable[[float], float]
    s_for_mean: Callable[[float], float]


def approx_moments(spec: FamilySpec) -> ApproxMoments:
    """The closed approximate mean/variance laws: the leading terms of the
    Mellin record's ln f for a partition product, m ~ K / s^(alpha+1) and
    sigma^2 ~ (alpha+1) K / s^(alpha+2); the exact laws for bell."""
    if spec.variant == "bell":
        # exact mean law te^t: the inverse is the Lambert function, and the
        # deviation approximation is the true one.
        return ApproxMoments(
            m_tilde=lambda s: math.exp(-s) * math.exp(math.exp(-s)),
            sigma_tilde=lambda s: math.sqrt(
                math.exp(-s) * (1.0 + math.exp(-s)) * math.exp(math.exp(-s))
            ),
            s_for_mean=lambda n: -math.log(lambert_w0(n)),
        )
    rec = mellin(spec)
    e, k = rec.alpha + 1.0, rec.k
    return ApproxMoments(
        m_tilde=lambda s: k / s**e,
        sigma_tilde=lambda s: math.sqrt(e * k / s ** (e + 1.0)),
        s_for_mean=lambda n: (k / n) ** (1.0 / e),
    )
