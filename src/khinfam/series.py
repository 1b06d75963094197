"""Exact arithmetic on truncated power series with rational coefficients.

A :class:`CoeffSeries` holds the coefficients a_0..a_N of a power series as
exact ``Fraction`` values. All operations truncate to the common order and
are exact at every retained index, which makes this module the ground-truth
oracle for the asymptotic estimators in the rest of the package.

Each kernel's docstring gives its cost in coefficient products; nnz(a) is
the number of nonzero coefficients of a within the order used. The loops
visit nonzero coefficients only, so sparse operands are cheap, and a single
coefficient of a power h*a^n or a product is computed without the rest of
the series (``power_coeff``, ``coeff_of_product``).

``power_coeff`` is the one routine for a coefficient of a power, and
``pow`` gives a whole power by the same rule. Each picks its route from
the window a_0..a_k it reads (k the index, or the order for ``pow``): when
a_0 != 0 and the window's last nonzero index lies below k (a_k = 0, so a is
a polynomial there), Miller's recurrence over integer numerators, O(k
nnz(a)) integer products whatever n; otherwise binary exponentiation over
``Fraction`` values, O(k^2 log n) products for a dense a.
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


def _nonzero_terms(a: CoeffSeries, lo: int, hi: int) -> list[tuple[int, Fraction]]:
    """The (index, coefficient) pairs of a with lo <= index <= hi and a
    nonzero coefficient, by increasing index."""
    return [(i, c) for i, c in enumerate(a.coeffs[lo : hi + 1], lo) if c != 0]


def scale(a: CoeffSeries, c: Rat) -> CoeffSeries:
    """c * a; kept for the benchmark's exp(log f) = f / f0 cross-check."""
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


def _takes_miller(a: CoeffSeries, k: int) -> bool:
    """Whether a power of a read through index k takes Miller's route: a_0 != 0
    and the last nonzero index of a_0..a_k lies below k, i.e. a_k = 0 or k is
    past the order of a."""
    return a.coeffs[0] != 0 and (k > a.order or a.coeffs[k] == 0)


def _miller_power(a: CoeffSeries, n: int, top: int) -> tuple[int, list[int]]:
    """Miller's recurrence in integers for a^n through index top; needs a_0 != 0.

    With b = a/a_0 and c the lcm of the denominators of b_1..b_top, the series
    q(z) = b(cz) has integer coefficients and q_0 = 1, so the coefficients of
    v = q^n satisfy m v_m = sum_{j=1}^{min(m, deg)} ((n+1)j - m) q_j v_{m-j},
    an exact integer division (Knuth, TAOCP vol. 2, 4.7). Returns (c, v) with
    v = [v_0..v_T], T = min(top, n deg), deg the last nonzero index of
    a_0..a_top: [z^m] a^n is a_0^n v_m / c^m for m <= T and 0 past T. v_m
    = c^m [z^m] b^n grows with m, not with n. O(T nnz(a)) integer products.
    """
    a0 = _frac(a.coeffs[0])
    terms = [(j, x / a0) for j, x in _nonzero_terms(a, 1, min(top, a.order))]
    top = min(top, n * terms[-1][0]) if terms else 0
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
    return c, v


def pow(a: CoeffSeries, n: int) -> CoeffSeries:  # noqa: A001 - mirrors the operation name
    """a^n truncated at the order N of a.

    A polynomial a (a_0 != 0 and a_N = 0) takes Miller's recurrence:
    O(N nnz(a)) integer products, and every coefficient past n deg a is one
    shared zero. Any other a takes binary exponentiation with truncation
    after every multiply: about log2(n) squarings and popcount(n) - 1
    multiplies at order N.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if _takes_miller(a, a.order):
        c, v = _miller_power(a, n, a.order)
        a0n, zero = _frac(a.coeffs[0]) ** n, Fraction(0)
        out = [zero] * (a.order + 1)
        cm = 1
        for m, vm in enumerate(v):
            if vm:
                out[m] = a0n * Fraction(vm, cm)
            cm *= c
        return CoeffSeries(tuple(out))
    x, y = _power_split(a, n, None)
    if y is None:
        return x
    return square(x) if x is y else mul(x, y)


def power_coeff(a: CoeffSeries, n: int, k: int, h: CoeffSeries | None = None) -> Fraction:
    """Coefficient k of h*a^n (of a^n when h is None), exactly.

    a and h are read through index k only (higher coefficients cannot reach
    it). When a_0 != 0 and a_k = 0, so that a is a polynomial of degree d < k
    in that window, Miller's recurrence gives the coefficients of a^n through
    k in O(k nnz(a)) integer products, whatever n (zero past n d), and h
    enters as one integer dot product: a_0^n is the only n-th power formed.
    Any other a takes ``pow``'s binary exponentiation, whose last multiply or
    squaring is ``coeff_of_product``: O(k) for the one coefficient read, so
    O(k^2 log n) products for a dense a.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if k < 0:
        raise ValueError(f"coefficient index must be >= 0, got {k}")
    if _takes_miller(a, k):
        c, v = _miller_power(a, n, k)
        e, hterms = (1, [(0, 1)]) if h is None else _integer_terms(h, k)
        total = sum(hi * v[k - i] * c**i for i, hi in hterms if k - i < len(v))
        return _frac(a.coeffs[0]) ** n * Fraction(total, e * c**k) if total else Fraction(0)
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
    f0 = 1), summed over the nonzero f_j only: O(n nnz(f)). Kept, with no
    caller in the package, because the benchmark's exact pool times it.
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

    Coefficient n of g is coeff_{n-1}(psi^n)/n, each read by ``power_coeff``.
    A polynomial psi of degree d takes Miller's route for every n > d + 1:
    O(n_max^2 nnz(psi)) integer products in all. Any other psi takes binary
    powering per n, O(n^2 log n) products for a dense psi.
    ``lagrange_fixed_point`` is the independent route that checks it.
    """
    if psi.coeffs[0] == 0:
        raise ZeroConstantTerm("Lagrange data must have psi(0) != 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    coeffs = [power_coeff(psi, n, n - 1) / n for n in range(1, n_max + 1)]
    return CoeffSeries((Fraction(0), *coeffs))


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


def schoolbook_mul(a: Sequence[Rat], b: Sequence[Rat]) -> list[Fraction]:
    """Double-loop convolution, kept as the independent oracle of ``mul``."""
    n = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        for j in range(k + 1):
            out[k] += _frac(a[j]) * _frac(b[k - j])
    return out
