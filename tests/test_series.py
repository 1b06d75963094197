"""Exact-series arithmetic against schoolbook oracles."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinfam import lagrange as L
from khinfam import series as S
from khinfam.catalog import exact_coeffs, parse_family, pentagonal_partitions
from khinfam.errors import IndexBeyondTruncation, NonzeroInnerConstant, ZeroConstantTerm

FR = Fraction


def geometric_series(order):
    return S.CoeffSeries.from_list([1] * (order + 1))


def exp_coeffs(order):
    return S.CoeffSeries.from_list([FR(1, math.factorial(n)) for n in range(order + 1)])


def nonnegative(f):
    return all(c >= 0 for c in f.coeffs)


rationals = st.builds(
    Fraction,
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=16),
)


def series_strategy(max_order=16, zero_constant=False):
    def build(values):
        if zero_constant:
            values = [FR(0)] + values
        else:
            values = [FR(1) + values[0]] + values[1:]
        return S.CoeffSeries.from_list(values)

    return st.lists(rationals, min_size=2, max_size=max_order).map(build)


class TestMul:
    def test_binomial_square(self):
        a = S.CoeffSeries.from_list([1, 1], order=4)
        assert S.mul(a, a).coeffs[:3] == (FR(1), FR(2), FR(1))

    def test_exponential_product_doubles_rate(self):
        e = exp_coeffs(8)
        prod = S.mul(e, e)
        for n in range(9):
            assert prod.coeff(n) == FR(2**n, math.factorial(n))

    def test_partition_product_partial(self):
        # prod_{j<=10} 1/(1-z^j) truncated at 10 carries the full p(10)
        acc = S.CoeffSeries.from_list([1], order=10)
        for j in range(1, 11):
            inv = S.CoeffSeries.from_list(
                [1 if m % j == 0 else 0 for m in range(11)]
            )
            acc = S.mul(acc, inv)
        assert acc.coeff(10) == 42

    def test_order_is_min_of_operands(self):
        a = S.CoeffSeries.from_list([1, 1], order=10)
        b = S.CoeffSeries.from_list([1, 2, 1], order=5)
        assert S.mul(a, b).order == 5

    @settings(max_examples=30, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_matches_schoolbook(self, a, b):
        got = S.mul(a, b)
        want = S.schoolbook_mul(a.coeffs, b.coeffs)
        assert list(got.coeffs) == want

    def test_matches_schoolbook_order_64(self):
        a = S.CoeffSeries.from_list([FR((3 * n * n + 1) % 17, n % 5 + 1) for n in range(65)])
        b = S.CoeffSeries.from_list([FR((7 * n + 2) % 13, n % 3 + 1) for n in range(65)])
        assert list(S.mul(a, b).coeffs) == S.schoolbook_mul(a.coeffs, b.coeffs)


class TestPow:
    def test_binomial_coefficient(self):
        a = S.CoeffSeries.from_list([1, 1], order=20)
        assert S.pow(a, 20).coeff(10) == 184756

    def test_power_one_is_identity(self):
        a = S.CoeffSeries.from_list([1, 2, 3])
        assert S.pow(a, 1) == a

    def test_trinomial_cube(self):
        a = S.CoeffSeries.from_list([1, 1, 1], order=6)
        assert S.pow(a, 3).coeff(3) == 7

    @settings(max_examples=15, deadline=None)
    @given(series_strategy(max_order=8), st.integers(min_value=1, max_value=32))
    def test_equals_iterated_mul(self, a, n):
        want = a
        for _ in range(n - 1):
            want = S.mul(want, a)
        assert S.pow(a, n) == want


signed_rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=16),
)


@st.composite
def signed_series(draw, max_order=24, constant="any"):
    """Signed rational coefficients with gaps; constant term as asked."""
    order = draw(st.integers(min_value=0, max_value=max_order))
    coeff = st.one_of(st.just(FR(0)), signed_rationals)
    values = draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))
    if constant == "zero":
        values[0] = FR(0)
    elif constant == "nonzero" and values[0] == 0:
        values[0] = draw(signed_rationals.filter(bool))
    return S.CoeffSeries.from_list(values)


@st.composite
def sparse_series(draw, max_order=48, constant="any"):
    """At most four nonzero terms spread over a long series."""
    order = draw(st.integers(min_value=0, max_value=max_order))
    terms = draw(st.dictionaries(
        st.integers(min_value=0, max_value=order), signed_rationals, max_size=4
    ))
    values = [terms.get(i, FR(0)) for i in range(order + 1)]
    if constant == "zero":
        values[0] = FR(0)
    elif constant == "nonzero" and values[0] == 0:
        values[0] = FR(1)
    return S.CoeffSeries.from_list(values)


def any_series(max_order=24, constant="any"):
    return st.one_of(
        signed_series(max_order, constant), sparse_series(2 * max_order, constant)
    )


exponents = st.one_of(
    st.just(1),
    st.integers(min_value=1, max_value=6).map(lambda j: 2**j),
    st.integers(min_value=1, max_value=6).map(lambda j: 2**j - 1),
    st.integers(min_value=1, max_value=70),
)


def all_fractions(f):
    return all(type(c) is Fraction for c in f.coeffs)


# The dense loops the kernels had before they iterated nonzero terms only;
# kept here as oracles.


def dense_mul(a, b):
    n = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        ai = ac[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = bc[j]
            if bj != 0:
                out[i + j] += ai * bj
    return S.CoeffSeries(tuple(out))


def dense_reciprocal(f, order=None):
    f0 = f.coeffs[0]
    n = f.order if order is None else order
    fc = f.pad(n).coeffs
    inv = [Fraction(0)] * (n + 1)
    inv[0] = 1 / f0
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if fc[k] != 0:
                acc += fc[k] * inv[m - k]
        inv[m] = -acc / f0
    return S.CoeffSeries(tuple(inv))


def dense_log(f):
    f0 = f.coeffs[0]
    n = f.order
    fc = [c / f0 for c in f.coeffs]
    l = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = m * fc[m]
        for k in range(1, m):
            acc -= k * l[k] * fc[m - k]
        l[m] = acc / m
    return S.CoeffSeries(tuple(l))


def dense_compose(f, g):
    n = min(f.order, g.order)
    gt = g.truncate(n)
    acc = S.CoeffSeries.from_list([f.coeffs[n]], order=n)
    for k in range(n - 1, -1, -1):
        acc = dense_mul(acc, gt)
        acc = S.CoeffSeries((acc.coeffs[0] + f.coeffs[k],) + acc.coeffs[1:])
    return acc


def dense_64(seed):
    return S.CoeffSeries.from_list(
        [FR((seed * n * n + 3 * n + 1) % 19 - 9, n % 4 + 1) for n in range(65)]
    )


class TestSquare:
    @settings(max_examples=60, deadline=None)
    @given(any_series())
    def test_equals_mul_and_schoolbook(self, a):
        sq = S.square(a)
        assert sq == S.mul(a, a)
        assert list(sq.coeffs) == S.schoolbook_mul(a.coeffs, a.coeffs)
        assert all_fractions(sq)

    def test_dense_order_64(self):
        a = dense_64(7)
        assert list(S.square(a).coeffs) == S.schoolbook_mul(a.coeffs, a.coeffs)

    def test_binomial_row(self):
        a = S.CoeffSeries.from_list([1, 1], order=4)
        assert S.square(a).coeffs == (1, 2, 1, 0, 0)

    def test_single_term(self):
        a = S.CoeffSeries.from_list([0, 0, FR(-3, 2)], order=6)
        assert S.square(a).coeffs == (0, 0, 0, 0, FR(9, 4), 0, 0)


class TestCoeffOfProduct:
    @settings(max_examples=40, deadline=None)
    @given(any_series(), any_series(), st.integers(min_value=0, max_value=60))
    def test_equals_full_product(self, a, b, k):
        if k > min(a.order, b.order):
            with pytest.raises(IndexBeyondTruncation):
                S.coeff_of_product(a, b, k)
            return
        c = S.coeff_of_product(a, b, k)
        assert c == S.mul(a, b).coeff(k)
        assert type(c) is Fraction


class TestPowerCoeff:
    @settings(max_examples=80, deadline=None)
    @given(any_series(max_order=16), exponents, st.integers(min_value=0, max_value=24))
    def test_equals_full_power(self, a, n, k):
        # k may exceed the order of a: the truncation pads with zeros
        c = S.power_coeff(a, n, k)
        assert c == S.pow(a.truncate(k), n).coeff(k)
        assert type(c) is Fraction

    @settings(max_examples=20, deadline=None)
    @given(any_series(max_order=12, constant="zero"), exponents)
    def test_zero_constant_term_vanishes_below_n(self, a, n):
        # a = z*b, so a^n starts at z^n
        for k in range(min(n, 14)):
            assert S.power_coeff(a, n, k) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 100, 1000])
    def test_binomial(self, n):
        a = S.CoeffSeries.from_list([1, 1])
        for k in (0, 1, n // 2, n, n + 1):
            assert S.power_coeff(a, n, k) == math.comb(n, k)

    def test_dense_order_64(self):
        a = dense_64(5)
        for n in (1, 2, 3, 5, 8, 13):
            assert S.power_coeff(a, n, 64) == S.pow(a, n).coeff(64)

    def test_rejects_exponent_zero(self):
        with pytest.raises(ValueError):
            S.power_coeff(S.CoeffSeries.from_list([1, 1]), 0, 3)

    def test_rejects_negative_index(self):
        a = S.CoeffSeries.from_list([1, 1])
        for h in (None, a):
            with pytest.raises(ValueError, match="index must be >= 0, got -1"):
                S.power_coeff(a, 3, -1, h)

    @settings(max_examples=120, deadline=None)
    @given(any_series(max_order=16), exponents, st.integers(min_value=0, max_value=24),
           st.none() | any_series(max_order=16) | any_series(max_order=16, constant="zero"))
    def test_prefactor_equals_schoolbook_product(self, a, n, k, h):
        # coefficient k of h * a^n; k may exceed the order of a, of h or both
        c = S.power_coeff(a, n, k, h)
        power = S.pow(a.truncate(k), n)
        if h is None:
            assert c == power.coeff(k)
        else:
            assert c == S.schoolbook_mul(power.coeffs, h.truncate(k).coeffs)[k]
        assert type(c) is Fraction

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 16])
    def test_prefactor_binomial(self, n):
        # (1 + z)^2 (1 + z)^n = (1 + z)^(n + 2), and z (1 + z)^n shifts by one
        a = S.CoeffSeries.from_list([1, 1])
        for k in range(n + 4):
            assert S.power_coeff(a, n, k, S.pow(a.pad(2), 2)) == math.comb(n + 2, k)
            assert S.power_coeff(a, n, k, S.CoeffSeries.from_list([0, 1])) == (
                math.comb(n, k - 1) if k else 0)


@st.composite
def integer_polynomials(draw, max_degree=8):
    """Integer coefficients with gaps and a nonzero constant term, often
    not +-1."""
    values = draw(st.lists(st.integers(min_value=-9, max_value=9),
                           min_size=1, max_size=max_degree + 1))
    if values[0] == 0:
        values[0] = draw(st.sampled_from([-3, 2, 5]))
    return S.CoeffSeries.from_list(values)


def miller_operands(max_order=8):
    """Integer and rational polynomials, sparse ones with long gaps, all
    with a nonzero constant term."""
    return st.one_of(integer_polynomials(max_order), signed_series(max_order, "nonzero"),
                     sparse_series(4 * max_order, "nonzero"))


class TestMillerPowerCoeff:
    @settings(max_examples=200, deadline=None)
    @given(miller_operands(), exponents, st.integers(min_value=0, max_value=40),
           st.none() | signed_series(12) | sparse_series(40))
    def test_equals_power_coeff(self, a, n, k, h):
        c = S.miller_power_coeff(a, n, k, h)
        assert c == S.power_coeff(a, n, k, h)
        assert type(c) is Fraction

    @settings(max_examples=40, deadline=None)
    @given(miller_operands(max_order=4), exponents,
           st.none() | signed_series(12) | sparse_series(40))
    def test_index_zero_and_past_the_degree(self, a, n, h):
        deg = max(a.nonzero_indices())
        for k in (0, n * deg, n * deg + 1, n * deg + 7):
            c = S.miller_power_coeff(a, n, k, h)
            assert c == S.power_coeff(a, n, k, h)
            assert type(c) is Fraction
        if h is None:
            assert S.miller_power_coeff(a, n, 0) == a.coeff(0) ** n
            assert S.miller_power_coeff(a, n, n * deg) == a.coeff(deg) ** n
            assert S.miller_power_coeff(a, n, n * deg + 1) == 0

    @pytest.mark.parametrize("order", [0, 1, 5, 16])
    def test_dense_series(self, order):
        for a in (exp_coeffs(order), geometric_series(order), dense_64(3).truncate(order)):
            for n in (1, 2, 3, 7, 8, 13):
                for k in {0, order // 2, order}:
                    for h in (None, exp_coeffs(order), S.CoeffSeries.from_list([0, 0, FR(-2, 3)])):
                        assert S.miller_power_coeff(a, n, k, h) == S.power_coeff(a, n, k, h)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 100])
    def test_closed_forms(self, n):
        # (1 + z^2)^n, (2 + z)^n and (1/2 + z/3)^n coefficient by coefficient
        gap = S.CoeffSeries.from_list([1, 0, 1])
        two = S.CoeffSeries.from_list([2, 1])
        thirds = S.CoeffSeries.from_list([FR(1, 2), FR(1, 3)])
        for k in range(2 * n + 3):
            assert S.miller_power_coeff(gap, n, k) == (math.comb(n, k // 2) if k % 2 == 0 else 0)
            assert S.miller_power_coeff(two, n, k) == math.comb(n, k) * 2 ** max(n - k, 0)
            assert S.miller_power_coeff(thirds, n, k) == (
                math.comb(n, k) * FR(1, 2) ** (n - k) * FR(1, 3) ** k if k <= n else 0)

    def test_huge_exponent_with_a_small_answer(self):
        # a_0 = +-1 and rational a_j: the coefficient stays small whatever n,
        # so no n-th power of a denominator or of a scaled a_0 may be formed
        half = S.CoeffSeries.from_list([1, FR(1, 2)])
        gap = S.CoeffSeries.from_list([-1, 0, FR(2, 3)])
        h = S.CoeffSeries.from_list([FR(1, 5), 0, 3])
        for n in (10**7, 10**7 + 1, 10**9):
            start = time.perf_counter()
            for k in (0, 1, 10):
                assert S.miller_power_coeff(half, n, k) == FR(math.comb(n, k), 2**k)
                assert S.miller_power_coeff(gap, n, 2 * k) == (
                    math.comb(n, k) * (-1) ** (n - k) * FR(2, 3) ** k)
            assert S.miller_power_coeff(gap, n, 21) == 0
            assert S.miller_power_coeff(half, n, 10, h) == (
                FR(1, 5) * FR(math.comb(n, 10), 2**10) + 3 * FR(math.comb(n, 8), 2**8))
            # checked before the next n, so a regression fails before n = 10^9
            assert time.perf_counter() - start < 2.0
        for a in (half, gap):
            for k in (0, 7, 10):
                c = S.miller_power_coeff(a, 10**7, k, h)
                assert c == S.power_coeff(a, 10**7, k, h) and type(c) is Fraction

    def test_rejects_zero_constant_term(self):
        for a in (S.CoeffSeries.from_list([0, 1]), S.CoeffSeries.from_list([0, 0, 3])):
            with pytest.raises(ValueError, match="nonzero constant term"):
                S.miller_power_coeff(a, 3, 2)

    def test_rejects_exponent_zero_and_negative_index(self):
        a = S.CoeffSeries.from_list([1, 1])
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            S.miller_power_coeff(a, 0, 3)
        with pytest.raises(ValueError, match="index must be >= 0, got -1"):
            S.miller_power_coeff(a, 3, -1)


def parent_extended_coeff(h, psi, n):
    """``lagrange.extended_coeff`` as it was before it read one coefficient
    through ``power_coeff``: a full power, then a full product with H'."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hp = S.differentiate(h).pad(n - 1).truncate(n - 1)
    power = S.pow(psi.truncate(n - 1).pad(n - 1), n) if n > 1 else psi.truncate(0).pad(0)
    return S.mul(hp, power).coeff(n - 1) / n


class TestExtendedCoeffOracle:
    @settings(max_examples=80, deadline=None)
    @given(any_series(max_order=12), any_series(max_order=12, constant="nonzero"),
           st.integers(min_value=1, max_value=20))
    def test_equals_parent_route(self, h, psi, n):
        c = L.extended_coeff(h, psi, n)
        assert c == parent_extended_coeff(h, psi, n)
        assert type(c) is Fraction

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_constant_h_and_first_index(self, n):
        psi = exp_coeffs(8)
        const = S.CoeffSeries.from_list([FR(7, 3)])  # order 0: H' = 0
        assert L.extended_coeff(const, psi, n) == 0 == parent_extended_coeff(const, psi, n)
        h = S.CoeffSeries.from_list([FR(1, 2), FR(-3, 4), 5])
        assert L.extended_coeff(h, psi, n) == parent_extended_coeff(h, psi, n)
        if n == 1:  # coeff_0(H' psi) = h_1 psi_0
            assert L.extended_coeff(h, psi, 1) == FR(-3, 4)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_index_below_one(self, n):
        psi = exp_coeffs(8)
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            L.extended_coeff(psi, psi, n)


class TestNonzeroLoopsMatchDenseLoops:
    @settings(max_examples=60, deadline=None)
    @given(any_series(), any_series())
    def test_mul(self, a, b):
        got = S.mul(a, b)
        assert got == dense_mul(a, b)
        assert all_fractions(got)

    @settings(max_examples=60, deadline=None)
    @given(any_series(constant="nonzero"), st.none() | st.integers(0, 40))
    def test_reciprocal(self, f, order):
        got = S.reciprocal(f, order)
        assert got == dense_reciprocal(f, order)
        assert all_fractions(got)

    @settings(max_examples=60, deadline=None)
    @given(any_series(constant="nonzero"))
    def test_log_series(self, f):
        got = S.log_series(f)
        assert got == dense_log(f)
        assert all_fractions(got)

    @settings(max_examples=40, deadline=None)
    @given(any_series(max_order=12), any_series(max_order=12, constant="zero"))
    def test_compose(self, f, g):
        got = S.compose(f, g)
        assert got == dense_compose(f, g)
        assert all_fractions(got)

    def test_dense_order_64(self):
        a, b = dense_64(3), dense_64(11)
        f = S.CoeffSeries((FR(2),) + a.coeffs[1:])
        g = S.CoeffSeries((FR(0),) + b.coeffs[1:33])
        assert S.mul(a, b) == dense_mul(a, b)
        assert S.reciprocal(f) == dense_reciprocal(f)
        assert S.log_series(f) == dense_log(f)
        assert S.compose(f.truncate(32), g) == dense_compose(f.truncate(32), g)

    def test_trailing_zeros_of_the_outer_series(self):
        f = S.CoeffSeries.from_list([3, 0, 1], order=10)
        g = S.CoeffSeries.from_list([0, 1, 1], order=10)
        assert S.compose(f, g) == dense_compose(f, g)


class TestExpLog:
    def test_exp_of_z(self):
        g = S.CoeffSeries.from_list([0, 1], order=10)
        f, g0 = S.exp_series(g)
        assert g0 == 0
        for n in range(11):
            assert f.coeff(n) == FR(1, math.factorial(n))

    def test_bell_numbers_from_exponential(self):
        g = S.CoeffSeries.from_list(
            [0] + [FR(1, math.factorial(n)) for n in range(1, 9)]
        )
        f, _ = S.exp_series(g)
        assert f.coeff(5) * math.factorial(5) == 52

    def test_partitions_from_divisor_sums(self):
        g = S.CoeffSeries.from_list(
            [0] + [FR(sum(d for d in range(1, m + 1) if m % d == 0), m) for m in range(1, 7)]
        )
        f, _ = S.exp_series(g)
        assert f.coeff(6) == 11

    def test_constant_term_goes_to_prefactor(self):
        g = S.CoeffSeries.from_list([FR(3, 2), 1], order=6)
        f, g0 = S.exp_series(g)
        assert g0 == FR(3, 2)
        assert f.coeff(0) == 1 and f.coeff(1) == 1

    def test_log_of_geometric(self):
        f = geometric_series(10)
        lg = S.log_series(f)
        assert lg.coeff(0) == 0
        for n in range(1, 11):
            assert lg.coeff(n) == FR(1, n)

    def test_log_of_partition_series_is_divisor_sum(self):
        p = exact_coeffs(parse_family("P"), 8)
        lg = S.log_series(p)
        assert lg.coeff(6) == FR(12, 6)

    def test_log_requires_positive_constant(self):
        with pytest.raises(ZeroConstantTerm):
            S.log_series(S.CoeffSeries.from_list([0, 1]))

    @settings(max_examples=20, deadline=None)
    @given(series_strategy(max_order=16, zero_constant=True))
    def test_round_trip(self, g):
        f, g0 = S.exp_series(g)
        assert g0 == 0
        assert S.log_series(f) == g

    def test_round_trip_order_64(self):
        g = S.CoeffSeries.from_list(
            [0] + [FR((7 * n * n + 3) % 23, n + 2) for n in range(1, 65)]
        )
        f, _ = S.exp_series(g)
        assert S.log_series(f) == g
        # derivative identity f' = g' f at every retained order
        fprime = S.differentiate(f)
        want = S.mul(S.differentiate(g), f)
        assert fprime.coeffs[: f.order] == want.coeffs[: f.order]


class TestCompose:
    def test_geometric_of_square(self):
        f = geometric_series(10)
        g = S.CoeffSeries.from_list([0, 0, 1], order=10)
        h = S.compose(f, g)
        for n in range(11):
            assert h.coeff(n) == (1 if n % 2 == 0 else 0)

    def test_sets_of_lists_count(self):
        f = exp_coeffs(3)
        g = S.CoeffSeries.from_list([0, 1, 1, 1])
        h = S.compose(f, g)
        assert h.coeff(3) * math.factorial(3) == 13

    def test_identity_inner(self):
        f = S.CoeffSeries.from_list([2, 5, 7, 1])
        g = S.CoeffSeries.from_list([0, 1, 0, 0])
        assert S.compose(f, g) == f

    def test_rejects_nonzero_inner_constant(self):
        with pytest.raises(NonzeroInnerConstant):
            S.compose(geometric_series(4), S.CoeffSeries.from_list([1, 1], order=4))


class TestDerivative:
    # z f'(z) has coefficient n a_n, which f' holds at index n - 1
    def test_weighted_exponential(self):
        d = S.differentiate(exp_coeffs(8))
        for n in range(1, 9):
            assert d.coeff(n - 1) == FR(n, math.factorial(n))

    def test_linear(self):
        assert S.differentiate(S.CoeffSeries.from_list([1, 1])).coeffs == (FR(1),)
        assert S.differentiate(S.CoeffSeries.from_list([7])).coeffs == (FR(0),)

    def test_partition_series(self):
        p = exact_coeffs(parse_family("P"), 5)
        d = S.differentiate(p)
        assert [d.coeff(n - 1) for n in range(1, 6)] == [1, 4, 9, 20, 35]


class TestLagrangeInversion:
    def test_cayley_trees(self):
        g = S.lagrange_invert(exp_coeffs(8), 8)
        assert g == S.lagrange_fixed_point(exp_coeffs(8), 8)
        assert g.coeff(5) == FR(125, 24)
        for n in range(1, 9):
            assert g.coeff(n) == FR(n ** (n - 1), math.factorial(n))

    def test_affine_data(self):
        g = S.lagrange_invert(S.CoeffSeries.from_list([1, 1], order=8), 8)
        assert g == S.lagrange_fixed_point(S.CoeffSeries.from_list([1, 1], order=8), 8)
        for n in range(1, 9):
            assert g.coeff(n) == 1

    def test_shifted_catalan(self):
        g = S.lagrange_invert(geometric_series(8), 8)
        assert g == S.lagrange_fixed_point(geometric_series(8), 8)
        assert g.coeff(3) == 2

    def test_functional_equation_holds_exactly(self):
        for psi in (exp_coeffs(16), geometric_series(16),
                    S.CoeffSeries.from_list([1, 1, 1], order=16)):
            g = S.lagrange_invert(psi, 16)
            rhs = S.compose(psi.pad(16), g)
            for n in range(1, 17):
                want = rhs.coeff(n - 1)  # coeff_n(z*psi(g)) = coeff_{n-1}(psi(g))
                assert g.coeff(n) == want

    def test_rejects_zero_constant(self):
        with pytest.raises(ZeroConstantTerm):
            S.lagrange_invert(S.CoeffSeries.from_list([0, 1], order=4), 3)


class TestCoeffAccess:
    def test_exponential_coefficient(self):
        assert exp_coeffs(8).coeff(4) == FR(1, 24)

    def test_partition_100(self):
        p = exact_coeffs(parse_family("P"), 100)
        assert p.coeff(100) == 190569292

    def test_constant_term(self):
        assert S.CoeffSeries.from_list([7, 1]).coeff(0) == 7

    def test_out_of_window_raises(self):
        with pytest.raises(IndexBeyondTruncation):
            exp_coeffs(4).coeff(5)


class TestNonNegativity:
    @settings(max_examples=20, deadline=None)
    @given(series_strategy(max_order=10), series_strategy(max_order=10))
    def test_operations_preserve_nonnegativity(self, a, b):
        assert nonnegative(S.mul(a, b))
        assert nonnegative(S.pow(a, 3))
        assert nonnegative(S.differentiate(a))
        shifted = S.CoeffSeries((FR(0),) + a.coeffs[1:])
        f, _ = S.exp_series(shifted)
        assert nonnegative(f)
        assert nonnegative(S.compose(a, S.CoeffSeries((FR(0),) + b.coeffs[1:])))


def test_pentagonal_matches_known_values():
    p = pentagonal_partitions(20)
    assert p[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
