"""Exact arithmetic on truncated power series with rational coefficients.

A :class:`CoeffSeries` holds the coefficients a_0..a_N of a power series as
exact ``Fraction`` values. All operations truncate to the common order and
are exact at every retained index, which makes this module the ground-truth
oracle for the asymptotic estimators in the rest of the package.

Each kernel's docstring gives its cost in coefficient products; nnz(a) is
the number of nonzero coefficients of a within the order used. The loops
visit nonzero coefficients only, so sparse operands are cheap, and a single
coefficient of a power h*a^n or a product is computed without the rest of
the series (``power_coeff``, ``coeff_of_product``). ``miller_power_coeff``
is the same coefficient of a power by a recurrence over integer numerators,
linear in k for a polynomial a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import (
    IndexBeyondTruncation,
    NonzeroInnerConstant,
    ZeroConstantTerm,
)

DEFAULT_ORDER = 4096

Rat = Fraction | int


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class CoeffSeries:
    """Truncated power series: coefficients for indices 0..order inclusive."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @staticmethod
    def from_list(values: Iterable[Rat], order: int | None = None) -> "CoeffSeries":
        cs = [_frac(v) for v in values]
        if order is not None:
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        return CoeffSeries(tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        if n < 0 or n > self.order:
            raise IndexBeyondTruncation(f"index {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "CoeffSeries":
        if order >= self.order:
            return self.pad(order)
        return CoeffSeries(self.coeffs[: order + 1])

    def pad(self, order: int) -> "CoeffSeries":
        if order <= self.order:
            return self
        return CoeffSeries(self.coeffs + (Fraction(0),) * (order - self.order))

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def nonzero_indices(self) -> list[int]:
        return [n for n, c in enumerate(self.coeffs) if c != 0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoeffSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"CoeffSeries([{head}{tail}], order={self.order})"


@dataclass(frozen=True)
class SeriesClassTag:
    """Membership flags for the non-negative coefficient classes.

    ``in_k`` needs a positive constant term and at least two nonzero
    coefficients; ``in_ks`` allows a vanishing constant term, with ``shift``
    the least index whose removal puts the series back in the base class.
    """

    in_k: bool
    in_ks: bool
    shift: int


def class_tag(f: CoeffSeries) -> SeriesClassTag:
    if not f.is_nonnegative():
        return SeriesClassTag(in_k=False, in_ks=False, shift=0)
    nz = f.nonzero_indices()
    if len(nz) < 2:
        return SeriesClassTag(in_k=False, in_ks=False, shift=0)
    shift = nz[0]
    return SeriesClassTag(in_k=shift == 0, in_ks=True, shift=shift)


def _nonzero_terms(a: CoeffSeries, lo: int, hi: int) -> list[tuple[int, Fraction]]:
    """The (index, coefficient) pairs of a with lo <= index <= hi and a
    nonzero coefficient, by increasing index."""
    return [(i, c) for i, c in enumerate(a.coeffs[lo : hi + 1], lo) if c != 0]


def scale(a: CoeffSeries, c: Rat) -> CoeffSeries:
    c = _frac(c)
    return CoeffSeries(tuple(c * x for x in a.coeffs))


def mul(a: CoeffSeries, b: CoeffSeries) -> CoeffSeries:
    """Convolution product, truncated at the smaller operand order n.

    Loops over the nonzero a_i and, for each, the nonzero b_j with
    i + j <= n: nnz(a)*nnz(b) products at most, (n+1)(n+2)/2 when both are
    dense.
    """
    n = min(a.order, b.order)
    ac = a.coeffs
    bnz = _nonzero_terms(b, 0, n)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        ai = ac[i]
        if ai == 0:
            continue
        top = n - i
        for j, bj in bnz:
            if j > top:
                break
            out[i + j] += ai * bj
    return CoeffSeries(tuple(out))


def square(a: CoeffSeries) -> CoeffSeries:
    """a*a with each cross product a_i*a_j, i < j, taken once and doubled.

    About half the products of ``mul(a, a)``: about n^2/4 for a dense a of
    order n against n^2/2, plus one doubling per index.
    """
    n = a.order
    nz = _nonzero_terms(a, 0, n)
    out = [Fraction(0)] * (n + 1)
    for p, (i, ai) in enumerate(nz):
        if 2 * i > n:
            break
        top = n - i
        for j, aj in nz[p + 1:]:
            if j > top:
                break
            out[i + j] += ai * aj
    out = [c + c for c in out]
    for i, ai in nz:
        if 2 * i > n:
            break
        out[2 * i] += ai * ai
    return CoeffSeries(tuple(out))


def coeff_of_product(a: CoeffSeries, b: CoeffSeries, k: int) -> Fraction:
    """Coefficient k of a*b alone: one dot product, k+1 products at most."""
    order = min(a.order, b.order)
    if k < 0 or k > order:
        raise IndexBeyondTruncation(f"index {k} beyond truncation order {order}")
    bc = b.coeffs
    acc = Fraction(0)
    for i, ai in _nonzero_terms(a, 0, k):
        bj = bc[k - i]
        if bj != 0:
            acc += ai * bj
    return acc


def _power_split(a: CoeffSeries, n: int, h: CoeffSeries | None) -> tuple:
    """Binary exponentiation of h*a^n (a^n when h is None), with h as the
    starting factor, stopped before its last multiply or squaring.

    Returns (x, y) with x*y = h*a^n: y is x when that step is a squaring,
    and None when x is the whole result (n = 1 without h). Needs n >= 1.
    """
    result, base = h, a
    while n > 1:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n == 1 and result is None:
            return base, base
        base = square(base)
    return (base, None) if result is None else (result, base)


def pow(a: CoeffSeries, n: int) -> CoeffSeries:  # noqa: A001 - mirrors the operation name
    """Binary exponentiation with truncation after every multiply.

    About log2(n) squarings and popcount(n) - 1 multiplies at the order of a.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    x, y = _power_split(a, n, None)
    if y is None:
        return x
    return square(x) if x is y else mul(x, y)


def power_coeff(a: CoeffSeries, n: int, k: int, h: CoeffSeries | None = None) -> Fraction:
    """Coefficient k of h*a^n (of a^n when h is None), exactly.

    a and h are truncated at k (higher coefficients cannot reach index k),
    and the last multiply or squaring of ``pow``'s binary exponentiation is
    ``coeff_of_product``: O(k) for the one coefficient read, not O(k^2).
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if k < 0:
        raise ValueError(f"coefficient index must be >= 0, got {k}")
    x, y = _power_split(a.truncate(k), n, None if h is None else h.truncate(k))
    if y is None:
        return _frac(x.coeffs[k])
    return coeff_of_product(x, y, k)


def _integer_terms(a: CoeffSeries, hi: int) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(i, D*a_i)]) over the nonzero a_i with i <= hi, where D is the
    lcm of their denominators."""
    terms = _nonzero_terms(a, 0, min(hi, a.order))
    d = lcm(*(c.denominator for _, c in terms))
    return d, [(i, c.numerator * (d // c.denominator)) for i, c in terms]


def miller_power_coeff(a: CoeffSeries, n: int, k: int, h: CoeffSeries | None = None) -> Fraction:
    """Coefficient k of h*a^n (of a^n when h is None) by Miller's recurrence
    in integers; needs a_0 != 0. Equal to ``power_coeff``.

    With b = a/a_0 and c the lcm of the denominators of b_1..b_k, the series
    q(z) = b(cz) has integer coefficients and q_0 = 1, so the coefficients of
    v = q^n satisfy m v_m = sum_{j=1}^{min(m, deg)} ((n+1)j - m) q_j v_{m-j},
    an exact integer division (Knuth, TAOCP vol. 2, 4.7), and h*a^n has
    coefficient a_0^n sum_i h_i v_{k-i} / c^{k-i}. v_m = c^m [z^m] b^n grows
    with m, not with n, and a_0^n is the only n-th power formed. Costs
    O(k nnz(a)) integer products, so a polynomial a of degree d takes O(k d)
    whatever n; v_m vanishes past n d.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if k < 0:
        raise ValueError(f"coefficient index must be >= 0, got {k}")
    a0 = _frac(a.coeffs[0])
    if a0 == 0:
        raise ValueError("Miller's recurrence needs a nonzero constant term")
    terms = [(j, x / a0) for j, x in _nonzero_terms(a, 1, min(k, a.order))]
    top = min(k, n * terms[-1][0]) if terms else 0
    if h is None and k > top:
        return Fraction(0)
    c = lcm(*(b.denominator for _, b in terms))
    q = [(j, b.numerator * (c // b.denominator) * c ** (j - 1)) for j, b in terms]
    v = [1]
    for m in range(1, top + 1):
        acc = 0
        for j, qj in q:
            if j > m:
                break
            acc += ((n + 1) * j - m) * qj * v[m - j]
        v.append(acc // m)
    if h is None:
        return a0**n * Fraction(v[k], c**k)
    e, hterms = _integer_terms(h, k)
    total = sum(hi * v[k - i] * c**i for i, hi in hterms if k - i <= top)
    return a0**n * Fraction(total, e * c**k)


def derivative_series(f: CoeffSeries) -> CoeffSeries:
    """The series z*f'(z): coefficient n becomes n*a_n."""
    return CoeffSeries(tuple(n * c for n, c in enumerate(f.coeffs)))


def differentiate(f: CoeffSeries) -> CoeffSeries:
    """Plain derivative f'(z); drops one order."""
    if f.order == 0:
        return CoeffSeries((Fraction(0),))
    return CoeffSeries(tuple((n + 1) * f.coeffs[n + 1] for n in range(f.order)))


def exp_series(g: CoeffSeries) -> tuple[CoeffSeries, Fraction]:
    """Exponential of a series.

    Returns ``(series, g0)`` where ``series`` is exp(g - g0) with exact
    rational coefficients and ``g0`` is the constant term of ``g``. The
    transcendental factor e^{g0} stays symbolic as the returned exponent,
    which keeps the coefficient lattice rational.

    Uses the derivative identity f' = g' f, i.e. n f_n = sum k g_k f_{n-k},
    summed over the nonzero g_k only, so a polynomial g costs O(n deg g).
    """
    g0 = g.coeffs[0]
    n = g.order
    f = [Fraction(0)] * (n + 1)
    f[0] = Fraction(1)
    kg = [(k, k * c) for k, c in _nonzero_terms(g, 1, n)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k, kg_k in kg:
            if k > m:
                break
            if f[m - k] != 0:
                acc += kg_k * f[m - k]
        f[m] = acc / m
    return CoeffSeries(tuple(f)), g0


def log_series(f: CoeffSeries) -> CoeffSeries:
    """Logarithm of a series with positive constant term.

    Returns log(f / f0) with constant term 0; the scalar log(f0) is not
    representable as a rational and is left to the caller.

    Uses m l_m = m f_m - sum_{j=1}^{m-1} (m-j) l_{m-j} f_j (f scaled to
    f0 = 1), summed over the nonzero f_j only: O(n nnz(f)).
    """
    f0 = f.coeffs[0]
    if f0 == 0:
        raise ZeroConstantTerm("log_series requires a nonzero constant term")
    n = f.order
    fc = [c / f0 for c in f.coeffs]
    fnz = [(j, fc[j]) for j, _ in _nonzero_terms(f, 1, n)]
    l = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = m * fc[m]
        for j, fj in fnz:
            if j >= m:
                break
            acc -= (m - j) * l[m - j] * fj
        l[m] = acc / m
    return CoeffSeries(tuple(l))


def compose(f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    """Composition f(g(z)) for g with g(0) = 0, by Horner evaluation.

    Horner starts at the highest nonzero f_k, k <= n = min(f.order, g.order),
    and takes one ``mul`` by g per lower index: O(deg f * n nnz(g)).
    """
    if g.coeffs[0] != 0:
        raise NonzeroInnerConstant("inner series must have zero constant term")
    n = min(f.order, g.order)
    gt = g.truncate(n)
    fnz = _nonzero_terms(f, 0, n)
    top = fnz[-1][0] if fnz else 0
    acc = CoeffSeries.from_list([f.coeffs[top]], order=n)
    for k in range(top - 1, -1, -1):
        acc = mul(acc, gt)
        acc = CoeffSeries((acc.coeffs[0] + f.coeffs[k],) + acc.coeffs[1:])
    return acc


def reciprocal(f: CoeffSeries, order: int | None = None) -> CoeffSeries:
    """Multiplicative inverse 1/f, needing f(0) != 0.

    f_0 inv_m = -sum_{k=1}^{m} f_k inv_{m-k}, summed over the nonzero f_k
    only: O(n nnz(f)) to order n.
    """
    f0 = f.coeffs[0]
    if f0 == 0:
        raise ZeroConstantTerm("reciprocal requires a nonzero constant term")
    n = f.order if order is None else order
    fnz = _nonzero_terms(f, 1, n)
    inv = [Fraction(0)] * (n + 1)
    inv[0] = 1 / f0
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k, fk in fnz:
            if k > m:
                break
            acc += fk * inv[m - k]
        inv[m] = -acc / f0
    return CoeffSeries(tuple(inv))


def lagrange_invert(psi: CoeffSeries, n_max: int) -> CoeffSeries:
    """Solve g = z*psi(g) for the first n_max coefficients of g.

    Coefficient n of g is coeff_{n-1}(psi^n)/n, reading the powers psi^n one
    ``mul`` at a time: O(n_max^2 nnz(psi)). ``lagrange_fixed_point`` is the
    independent route that checks it.
    """
    if psi.coeffs[0] == 0:
        raise ZeroConstantTerm("Lagrange data must have psi(0) != 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    base = psi.truncate(n_max - 1)
    out = [Fraction(0)] * (n_max + 1)
    power = CoeffSeries.from_list([1], order=n_max - 1)
    for n in range(1, n_max + 1):
        power = mul(power, base)
        out[n] = power.coeff(n - 1) / n
    return CoeffSeries(tuple(out))


def lagrange_fixed_point(psi: CoeffSeries, n_max: int) -> CoeffSeries:
    """Independent route to the Lagrange solution: iterate g <- z*psi(g).

    Each pass fixes one more coefficient, so the working order grows with the
    iteration count instead of paying full-order compositions throughout:
    pass m is one ``compose`` at order m.
    """
    if psi.coeffs[0] == 0:
        raise ZeroConstantTerm("Lagrange data must have psi(0) != 0")
    g = CoeffSeries.from_list([0], order=1)
    for m in range(1, n_max + 1):
        val = compose(psi.truncate(m - 1).pad(m), g.pad(m).truncate(m))
        shifted = (Fraction(0),) + val.coeffs[:m]
        g = CoeffSeries(shifted)
    return g.pad(n_max)


def support_gcd(f: CoeffSeries) -> int:
    """gcd of the indices of nonzero coefficients at positive index."""
    q = 0
    for n in f.nonzero_indices():
        if n == 0:
            continue
        q = gcd(q, n)
    return q if q else 1


def serialize(f: CoeffSeries) -> str:
    """One coefficient per line as numerator/denominator, after a header."""
    lines = [f"order={f.order}"]
    lines.extend(f"{c.numerator}/{c.denominator}" for c in f.coeffs)
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> CoeffSeries:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or not lines[0].startswith("order="):
        raise ValueError("missing order= header")
    order = int(lines[0][len("order="):])
    coeffs = [Fraction(ln) for ln in lines[1:]]
    if len(coeffs) != order + 1:
        raise ValueError("coefficient count does not match header")
    return CoeffSeries(tuple(coeffs))


def schoolbook_mul(a: Sequence[Rat], b: Sequence[Rat]) -> list[Fraction]:
    """Reference double-loop convolution used by tests as an oracle."""
    n = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        for j in range(k + 1):
            out[k] += _frac(a[j]) * _frac(b[k - j])
    return out
