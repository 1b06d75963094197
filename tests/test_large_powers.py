"""Large-power coefficient estimators against the exact binary-power oracle."""

import dataclasses
import math
from fractions import Fraction

import pytest

from khinfam import family as F
from khinfam import large_powers as LP
from khinfam import series as S
from khinfam.catalog import exact_coeffs, make_family, parse_family
from khinfam.errors import (
    BoundaryVarianceInfinite,
    BudgetExceeded,
    FirstCoefficientZero,
    IndexBeyondTruncation,
    KTooLarge,
    NoApplicableRegime,
    NoCoefficientAccess,
    NotUSG,
    PrefactorRadiusTooSmall,
    QGcdViolation,
    RatioOutOfBand,
    RegimeMismatch,
    TargetAboveMeanSup,
)
from khinfam.numerics import LogNumber, zeta_real


@pytest.fixture(scope="module")
def binom():
    return make_family(parse_family("poly:1,1"), trunc=8)


@pytest.fixture(scope="module")
def expf():
    return make_family(parse_family("exp"), trunc=128)


def exact_log(fam, n, k):
    return LogNumber.from_fraction(LP.exact_power_coeff(LP.PowerCoeffQuery(fam, n, k)))


class TestExactOracle:
    def test_binomial(self, binom):
        q = LP.PowerCoeffQuery(binom, 20, 10)
        assert LP.exact_power_coeff(q) == 184756

    def test_exponential_closed_form(self, expf):
        for n, k in ((3, 5), (7, 4)):
            q = LP.PowerCoeffQuery(expf, n, k)
            assert LP.exact_power_coeff(q) == Fraction(n**k, math.factorial(k))

    def test_trinomial(self):
        fam = make_family(parse_family("poly:1,1,1"), trunc=8)
        assert LP.exact_power_coeff(LP.PowerCoeffQuery(fam, 3, 3)) == 7

    def test_budget_guard(self, binom):
        with pytest.raises(BudgetExceeded):
            LP.exact_power_coeff(LP.PowerCoeffQuery(binom, 2**40, 60000))

    def test_prefactor(self, binom):
        q = LP.PowerCoeffQuery(binom, 10, 4, prefactor=binom)
        assert LP.exact_power_coeff(q) == math.comb(11, 4)

    def test_type_is_fraction(self, binom, expf):
        for q in (LP.PowerCoeffQuery(binom, 1, 0), LP.PowerCoeffQuery(binom, 16, 5),
                  LP.PowerCoeffQuery(expf, 7, 9, prefactor=binom)):
            assert type(LP.exact_power_coeff(q)) is Fraction

    def test_prefactor_equals_full_product(self, expf):
        geom = make_family(parse_family("geom"), trunc=16)
        for psi, h in ((expf, make_family(parse_family("poly:2,0,0,3"), trunc=16)),
                       (geom, make_family(parse_family("bell"), trunc=16))):
            for n in (1, 2, 3, 8, 13):
                for k in (0, 1, 5, 12):
                    q = LP.PowerCoeffQuery(psi, n, k, prefactor=h)
                    base = psi.coeffs.truncate(k)
                    want = S.mul(S.pow(base, n), h.coeffs.truncate(k)).coeff(k)
                    assert LP.exact_power_coeff(q) == want


@pytest.fixture
def multiplies(monkeypatch):
    """Counts every series.mul and series.square call."""
    calls = []
    for name in ("mul", "square"):
        real = getattr(S, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(S, name, spy)
    return calls


@pytest.fixture
def routes(monkeypatch):
    """Records, in order, each call of the two private routes of
    ``series.power_coeff``, Miller's pass (with its exponent and top index)
    and binary powering, passing it through."""
    calls = []
    for name in ("_miller_power", "_power_split"):
        def spy(*args, _real=getattr(S, name), _name=name):
            calls.append((_name, *args[1:]) if _name == "_miller_power" else (_name,))
            return _real(*args)

        monkeypatch.setattr(S, name, spy)
    return calls


class TestExactRefusals:
    # (k+1)^2 * 2 * bitlen(n) against CONVOLUTION_BUDGET = 10^9: with n = 16
    # (bitlen 5) k = 9999 costs exactly 10^9 and k = 10000 is over. binom is
    # a polynomial, so a query under the budget reaches Miller's recurrence.

    def test_budget_threshold(self, binom, multiplies, routes):
        with pytest.raises(BudgetExceeded):
            LP.exact_power_coeff(LP.PowerCoeffQuery(binom, 16, 10_000))
        assert multiplies == [] and routes == []
        assert LP.exact_power_coeff(LP.PowerCoeffQuery(binom, 16, 9_999)) == 0
        assert routes == [("_miller_power", 16, 9_999)]
        with pytest.raises(BudgetExceeded):
            LP.exact_power_coeff(LP.PowerCoeffQuery(binom, 31, 10_000))
        assert LP.exact_power_coeff(LP.PowerCoeffQuery(binom, 31, 9_999)) == 0

    def test_budget_before_prefactor_product(self, binom, multiplies):
        q = LP.PowerCoeffQuery(binom, 16, 10_000, prefactor=binom)
        with pytest.raises(BudgetExceeded):
            LP.exact_power_coeff(q)
        assert multiplies == []

    def test_budget_refused_before_the_oracle_is_built(self, binom):
        def unbuilt():
            raise AssertionError("oracle built before the budget check")

        psi = dataclasses.replace(binom, oracle=unbuilt)
        with pytest.raises(BudgetExceeded):
            LP.exact_power_coeff(LP.PowerCoeffQuery(psi, 16, 10_000, prefactor=psi))

    def test_psi_access_refused_first(self, binom, multiplies):
        bare = dataclasses.replace(binom, oracle=None)
        q = LP.PowerCoeffQuery(bare, 10, 4, prefactor=bare)
        with pytest.raises(NoCoefficientAccess, match=bare.name):
            LP.exact_power_coeff(q)
        with pytest.raises(NoCoefficientAccess, match=bare.name):
            LP.exact_power_coeff(LP.PowerCoeffQuery(bare, 2**40, 60_000))
        assert multiplies == []

    def test_prefactor_access_refused_second(self, binom, multiplies):
        bare = dataclasses.replace(binom, oracle=None)
        q = LP.PowerCoeffQuery(binom, 10, 4, prefactor=bare)
        with pytest.raises(NoCoefficientAccess, match="prefactor"):
            LP.exact_power_coeff(q)
        assert multiplies == []
        # the budget is checked before the prefactor, as it always was
        with pytest.raises(BudgetExceeded):
            LP.exact_power_coeff(LP.PowerCoeffQuery(binom, 16, 10_000, prefactor=bare))

    def test_truncation_below_k_refused(self, multiplies):
        # powering e^z cut at z^4 would give 2.7557252624e13 for coefficient
        # 10 of (e^z)^100, against 100^10/10! = 2.7557319224e13
        exp4 = make_family(parse_family("exp"), trunc=4)
        geom9 = make_family(parse_family("geom"), trunc=9)
        poly1 = make_family(parse_family("poly:1,1,1"), trunc=1)
        for q in (LP.PowerCoeffQuery(exp4, 100, 10),
                  LP.PowerCoeffQuery(geom9, 3, 10),
                  LP.PowerCoeffQuery(poly1, 5, 2),
                  LP.PowerCoeffQuery(make_family(parse_family("exp"), trunc=16), 5, 10,
                                     prefactor=geom9)):
            with pytest.raises(IndexBeyondTruncation, match="truncated at order"):
                LP.exact_power_coeff(q)
            if q.prefactor is None:
                with pytest.raises(IndexBeyondTruncation):
                    LP.estimate(q, LP.Regime("fixed_k"))
        assert multiplies == []

    def test_truncation_through_k_or_the_degree_accepted(self, binom):
        # order >= k, or >= the degree of a polynomial, changes nothing
        exp10 = make_family(parse_family("exp"), trunc=10)
        q = LP.PowerCoeffQuery(exp10, 100, 10)
        assert LP.exact_power_coeff(q) == Fraction(100**10, math.factorial(10))
        assert LP.estimate(q, LP.Regime("fixed_k")).value_at(100) == LP.exact_power_coeff(q)
        poly2 = make_family(parse_family("poly:1,1,1"), trunc=2)
        assert LP.exact_power_coeff(LP.PowerCoeffQuery(poly2, 3, 3)) == 7
        q = LP.PowerCoeffQuery(binom, 40, 20, prefactor=poly2)
        assert binom.coeffs.order == 8
        assert LP.exact_power_coeff(q) == sum(math.comb(40, 20 - i) for i in range(3))


class TestExactRoute:
    def test_polynomial_psi_takes_miller(self, binom, multiplies, routes):
        bern = make_family(parse_family("bernoulli"), trunc=4)
        tri = make_family(parse_family("poly:3,0,1/2,2"), trunc=3)
        exp22 = make_family(parse_family("exp"), trunc=22)
        queries = (LP.PowerCoeffQuery(binom, 1000, 500),
                   LP.PowerCoeffQuery(bern, 20, 10, prefactor=binom),
                   LP.PowerCoeffQuery(tri, 7, 30),  # past n * deg = 21
                   LP.PowerCoeffQuery(tri, 7, 22, prefactor=exp22))
        got = [LP.exact_power_coeff(q) for q in queries]
        assert multiplies == []
        assert routes == [("_miller_power", q.n, q.k) for q in queries]
        assert all(type(c) is Fraction for c in got)
        # (1 + z)^1000, (1 + z)^20 (1 + z), and tri^7 by seven schoolbook products
        tri7 = [Fraction(1)] + [Fraction(0)] * 22
        for _ in range(7):
            tri7 = S.schoolbook_mul(tri7, tri.coeffs.pad(22).coeffs)
        assert got[:3] == [math.comb(1000, 500), math.comb(21, 10), 0]
        assert got[3] == sum(tri7[22 - i] / math.factorial(i) for i in range(23))

    def test_rational_polynomial_at_a_huge_exponent(self, multiplies, routes):
        # (1 + z/2)^n at n = 10^7: C(n, 10)/2^10, with no 2^n-sized integer
        half = make_family(parse_family("poly:1,1/2"), trunc=1)
        c = LP.exact_power_coeff(LP.PowerCoeffQuery(half, 10**7, 10))
        assert multiplies == [] and routes == [("_miller_power", 10**7, 10)]
        assert type(c) is Fraction and c == Fraction(math.comb(10**7, 10), 2**10)

    def test_series_psi_keeps_binary_powering(self, expf, binom, multiplies, routes):
        geom = make_family(parse_family("geom"), trunc=16)
        assert LP.exact_power_coeff(LP.PowerCoeffQuery(expf, 7, 9, prefactor=binom)) == (
            sum(Fraction(7**(9 - i), math.factorial(9 - i)) for i in range(2)))
        assert LP.exact_power_coeff(LP.PowerCoeffQuery(geom, 5, 16)) == math.comb(20, 16)
        assert routes == [("_power_split",)] * 2
        assert multiplies != []

    def test_polynomial_read_through_its_degree_keeps_binary_powering(self, routes):
        # a_k != 0: the window is no polynomial of degree below k
        tri = make_family(parse_family("poly:3,0,1/2,2"), trunc=3)
        assert LP.exact_power_coeff(LP.PowerCoeffQuery(tri, 7, 3)) == 7 * 2 * 3**6
        assert routes == [("_power_split",)]


class TestComparable:
    def test_binomial_half(self, binom):
        q = LP.PowerCoeffQuery(binom, 1000, 500)
        est = LP.estimate_comparable(q, 0.05, 0.95)
        r = exact_log(binom, 1000, 500).ratio(est.value)
        assert abs(r - 1.0) < 0.005

    def test_binomial_small_instance(self, binom):
        q = LP.PowerCoeffQuery(binom, 20, 10)
        est = LP.estimate_comparable(q, 0.05, 0.95)
        r = est.value.ratio(LogNumber.from_fraction(Fraction(184756)))
        assert 1.010 <= r <= 1.015  # frozen: 1.01257

    def test_even_support_odd_index_refused(self):
        fam = make_family(parse_family("poly:1,0,1"), trunc=8)
        with pytest.raises(QGcdViolation):
            LP.estimate_comparable(LP.PowerCoeffQuery(fam, 100, 99), 0.2, 1.8)

    def test_ratio_band_guard(self, binom):
        with pytest.raises(RatioOutOfBand):
            LP.estimate_comparable(LP.PowerCoeffQuery(binom, 10, 10), 0.05, 0.95)

    def test_support_rescaling_invariance(self, binom):
        # psi(z) = phi(z^2) pushes estimates through the substitution exactly
        fam2 = make_family(parse_family("poly:1,0,1"), trunc=8)
        n, kp = 400, 120
        est2 = LP.estimate_comparable(LP.PowerCoeffQuery(fam2, n, 2 * kp), 0.1, 1.9)
        est1 = LP.estimate_comparable(LP.PowerCoeffQuery(binom, n, kp), 0.05, 0.95)
        assert abs(est2.value.log_abs - est1.value.log_abs) < 1e-9

    def test_degenerate_top_coefficient(self):
        fam = make_family(parse_family("poly:1,2,3"), trunc=8)
        q = LP.PowerCoeffQuery(fam, 30, 60)
        assert LP.exact_power_coeff(q) == Fraction(3) ** 30
        with pytest.raises(RatioOutOfBand):
            LP.estimate_comparable(q, 0.05, 1.9)


class TestLimitL:
    def test_central_binomial(self, binom):
        for n in (100, 1000):
            k = n // 2
            est = LP.estimate_limit_l(LP.PowerCoeffQuery(binom, n, k), 0.5, 0.0)
            r = exact_log(binom, n, k).ratio(est.value)
            assert abs(r - 1.0) <= 1.0 / (4 * n)

    def test_drift_factor(self, binom):
        n, lam = 10_000, 1.0
        k = int(n / 2 + lam * math.sqrt(n))
        est = LP.estimate_limit_l(LP.PowerCoeffQuery(binom, n, k), 0.5, lam)
        exact = LogNumber.from_fraction(Fraction(math.comb(n, k)))
        assert abs(est.value.ratio(exact) - 1.0) < 0.05
        # the drift factor itself is e^{-2 lam^2} relative to the centered one
        est0 = LP.estimate_limit_l(LP.PowerCoeffQuery(binom, n, k), 0.5, 0.0)
        assert abs(est.value.log_abs - est0.value.log_abs + 2.0 * lam**2) < 1e-12

    def test_zero_drift_matches_comparable(self, binom):
        n, k = 1000, 500
        a = LP.estimate_limit_l(LP.PowerCoeffQuery(binom, n, k), 0.5, 0.0)
        b = LP.estimate_comparable(LP.PowerCoeffQuery(binom, n, k), 0.05, 0.95)
        assert abs(a.value.log_abs - b.value.log_abs) < 1e-9

    def test_limit_above_mean_sup(self, binom):
        with pytest.raises(TargetAboveMeanSup):
            LP.estimate_limit_l(LP.PowerCoeffQuery(binom, 10, 10), 1.0, 0.0)


def zeta_tail_family(power, trunc=256):
    """1 + sum z^n / n^power as a boundary-regime test family."""
    coeffs = S.CoeffSeries.from_list(
        [1] + [Fraction(1, n**power) for n in range(1, trunc + 1)]
    )
    base = F.family_from_coeffs(coeffs, radius=1.0)
    f_r = 1.0 + zeta_real(float(power))
    mean_sup = zeta_real(power - 1.0) / f_r
    if power > 3:
        ex2 = zeta_real(power - 2.0) / f_r
        bvar = ex2 - mean_sup**2
    else:
        bvar = math.inf
    return dataclasses.replace(base, mean_sup=mean_sup, boundary_variance=bvar)


class TestBoundary:
    def test_zeta_family_estimate(self):
        fam = zeta_tail_family(4)
        n = 60
        k = int(n * fam.mean_sup)
        omega = (k - n * fam.mean_sup) / math.sqrt(n)
        est = LP.estimate_boundary(LP.PowerCoeffQuery(fam, n, k), omega)
        r = exact_log(fam, n, k).ratio(est.value)
        assert 0.95 <= r <= 1.12  # frozen: 1.0712 at n = 60

    def test_reduces_to_drift_shape_at_radius(self):
        fam = zeta_tail_family(4)
        e0 = LP.estimate_boundary(LP.PowerCoeffQuery(fam, 50, int(50 * fam.mean_sup)), 0.0)
        assert e0.value.sign == 1 and math.isfinite(e0.value.log_abs)

    def test_infinite_boundary_variance(self):
        fam = zeta_tail_family(3)
        with pytest.raises(BoundaryVarianceInfinite):
            LP.estimate_boundary(LP.PowerCoeffQuery(fam, 50, 25), 0.0)


class TestSmallK:
    def test_exponential_root_n(self, expf):
        errs = []
        for n in (2500, 10_000):
            k = int(math.sqrt(n))
            est = LP.estimate_small_k(LP.PowerCoeffQuery(expf, n, k))
            exact = LogNumber.from_log(k * math.log(n) - math.lgamma(k + 1))
            errs.append(abs(est.value.ratio(exact) - 1.0))
        assert errs[0] > errs[1]
        assert errs[1] < 0.001  # frozen: 1/(12k) law

    def test_binomial_slow_growth(self, binom):
        n = 10_000
        k = int(n**0.3)
        est = LP.estimate_small_k(LP.PowerCoeffQuery(binom, n, k))
        exact = LogNumber.from_fraction(Fraction(math.comb(n, k)))
        assert abs(est.value.ratio(exact) - 1.0) < 0.02

    def test_missing_linear_coefficient(self):
        fam = make_family(parse_family("poly:1,0,1"), trunc=8)
        with pytest.raises(FirstCoefficientZero):
            LP.estimate_small_k(LP.PowerCoeffQuery(fam, 1000, 10))

    def test_regime_guard(self, expf):
        with pytest.raises(RegimeMismatch):
            LP.estimate_small_k(LP.PowerCoeffQuery(expf, 100, 50))


class TestSmallKRefined:
    def test_expansion_coefficients(self, expf, binom):
        assert LP.series_b_coefficients(expf.coeffs.truncate(6), 3) == [
            Fraction(1), Fraction(0), Fraction(0)
        ]
        one_z = exact_coeffs(parse_family("poly:1,1"), 6)
        assert LP.series_b_coefficients(one_z, 3) == [
            Fraction(1), Fraction(1, 2), Fraction(1, 3)
        ]

    def test_trinomial_refined(self):
        fam = make_family(parse_family("poly:1,1,1"), trunc=128)
        n = 10_000
        k = int(math.sqrt(n))
        est = LP.estimate_small_k_refined(LP.PowerCoeffQuery(fam, n, k), 2)
        r = est.value.ratio(exact_log(fam, n, k))
        assert abs(r - 1.0) < 0.02

    def test_exponential_refined_equals_plain(self, expf):
        # the second expansion coefficient vanishes for e^z
        n, k = 10_000, 100
        plain = LP.estimate_small_k_refined(LP.PowerCoeffQuery(expf, n, k), 1)
        refined = LP.estimate_small_k_refined(LP.PowerCoeffQuery(expf, n, k), 2)
        assert abs(plain.value.log_abs - refined.value.log_abs) < 1e-12


def degree(poly):
    """The degree in n of a fixed-k polynomial: its last nonzero c_l."""
    return max((l for l, cl in enumerate(poly.c) if cl != 0), default=0)


def surjections(n: int, k: int) -> int:
    """k! S(n, k), the surjections of an n-set onto a k-set, by inclusion-exclusion."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))


class TestFixedK:
    def test_binomial_polynomial(self, binom):
        poly = LP.fixed_k_polynomial(binom.coeffs.truncate(8), 3)
        for n in (3, 10, 50):
            assert poly.value_at(n) == math.comb(n, 3)

    def test_even_support_leading_term(self):
        psi = exact_coeffs(parse_family("poly:1,0,1"), 8)
        poly = LP.fixed_k_polynomial(psi, 4)
        assert degree(poly) == 2
        assert poly.c[2] == Fraction(1)  # b_2^{k/2} = 1, weight 1/(k/2)! * l!
        q = LP.PowerCoeffQuery(make_family(parse_family("poly:1,0,1"), trunc=8), 10, 4)
        assert poly.value_at(10) == LP.exact_power_coeff(q)

    def test_sparse_support_zero_polynomial(self):
        psi = exact_coeffs(parse_family("poly:1,0,0,1"), 8)
        poly = LP.fixed_k_polynomial(psi, 4)
        assert degree(poly) == 0 and poly.value_at(9) == 0

    def test_guard(self, binom):
        with pytest.raises(KTooLarge):
            LP.fixed_k_polynomial(binom.coeffs, 65)

    # c_l = coeff_k((psi - b0)^l) in closed form, without the series kernel:
    # e^z - 1 gives l! S(k, l) / k!, z/(1 - z) gives C(k-1, l-1), and z gives [l = k]
    ORACLES = {
        "exp": lambda k, l: Fraction(surjections(k, l), math.factorial(k)),
        "geom": lambda k, l: Fraction(math.comb(k - 1, l - 1) if l >= 1 else 0),
        "poly:1,1": lambda k, l: Fraction(int(l == k)),
    }

    @pytest.mark.parametrize("spec", sorted(ORACLES))
    @pytest.mark.parametrize("k", [1, 7, 31, 64])
    def test_closed_form_coefficients(self, spec, k):
        poly = LP.fixed_k_polynomial(exact_coeffs(parse_family(spec), k), k)
        assert poly.k == k and poly.b0 == 1
        assert poly.c == tuple(self.ORACLES[spec](k, l) for l in range(k + 1))
        assert all(type(cl) is Fraction for cl in poly.c)

    def test_zero_index(self):
        poly = LP.fixed_k_polynomial(exact_coeffs(parse_family("poly:2,1"), 4), 0)
        assert poly.c == (1,) and poly.b0 == 2 and poly.value_at(7) == 2**7

    def test_truncation_below_k_reads_zeros(self):
        # a series given directly is taken as it stands: missing terms are 0
        short = exact_coeffs(parse_family("exp"), 3)
        padded = short.pad(9)
        assert LP.fixed_k_polynomial(short, 9) == LP.fixed_k_polynomial(padded, 9)

    def test_grid_equality(self):
        specs = ("poly:1,1", "poly:1,1,1", "poly:1,0,1", "exp")
        for text in specs:
            psi = exact_coeffs(parse_family(text), 16)
            fam = make_family(parse_family(text), trunc=16)
            for k in range(1, 9):
                poly = LP.fixed_k_polynomial(psi, k)
                for n in (1, 4, 17, 50):
                    got = poly.value_at(n)
                    want = LP.exact_power_coeff(LP.PowerCoeffQuery(fam, n, k))
                    assert got == want


class TestLargeK:
    def test_exponential_improves_with_k(self, expf):
        errs = []
        for k in (200, 1000):
            q = LP.PowerCoeffQuery(expf, 5, k)
            est = LP.estimate_large_k(q)
            exact = LogNumber.from_log(k * math.log(5) - math.lgamma(k + 1))
            errs.append(abs(est.value.ratio(exact) - 1.0))
        assert errs[0] > errs[1]
        assert errs[1] < 0.001

    def test_partition_square(self):
        fam = make_family(parse_family("P"), trunc=512)
        q = LP.PowerCoeffQuery(fam, 2, 400)
        est = LP.estimate_large_k(q)
        r = est.value.ratio(exact_log(fam, 2, 400))
        assert abs(r - 1.0) < 0.10  # frozen: 1.0053

    def test_usg_flag_required(self, binom):
        with pytest.raises(NotUSG):
            LP.estimate_large_k(LP.PowerCoeffQuery(binom, 5, 500))


class TestPrefactor:
    def test_constant_prefactor_is_identity(self, binom):
        one = F.family_from_coeffs(S.CoeffSeries.from_list([1]), radius=math.inf)
        q = LP.PowerCoeffQuery(binom, 1000, 500, prefactor=one)
        got = LP.estimate_with_prefactor(q, LP.Regime("comparable", a=0.05, b=0.95))
        bare = LP.estimate_comparable(LP.PowerCoeffQuery(binom, 1000, 500), 0.05, 0.95)
        assert abs(got.value.log_abs - bare.value.log_abs) < 1e-12

    def test_binomial_shift(self, binom):
        q = LP.PowerCoeffQuery(binom, 1000, 500, prefactor=binom)
        est = LP.estimate_with_prefactor(q, LP.Regime("comparable", a=0.05, b=0.95))
        exact = LogNumber.from_fraction(Fraction(math.comb(1001, 500)))
        assert abs(exact.ratio(est.value) - 1.0) < 0.01

    def test_small_k_uses_origin_value(self, expf):
        two = make_family(parse_family("poly:2,1"), trunc=64)
        n, k = 10_000, 100
        q = LP.PowerCoeffQuery(expf, n, k, prefactor=two)
        est = LP.estimate_with_prefactor(q, LP.Regime("small_k"))
        bare = LP.estimate_small_k(LP.PowerCoeffQuery(expf, n, k))
        assert abs(est.value.log_abs - bare.value.log_abs - math.log(2.0)) < 1e-12
        exact = LogNumber.from_fraction(LP.exact_power_coeff(q))
        assert abs(est.value.ratio(exact) - 1.0) < 0.01

    def test_radius_guard(self, expf):
        geom = make_family(parse_family("geom"), trunc=32)
        q = LP.PowerCoeffQuery(expf, 100, 50, prefactor=geom)
        with pytest.raises(PrefactorRadiusTooSmall):
            LP.estimate_with_prefactor(q, LP.Regime("comparable", a=0.05, b=0.95))


class TestAutoRegime:
    def test_classifications(self, binom, expf):
        assert LP.auto_regime(LP.PowerCoeffQuery(binom, 1000, 500)).kind == "comparable"
        assert LP.auto_regime(LP.PowerCoeffQuery(binom, 10**6, 31)).kind == "fixed_k"
        assert LP.auto_regime(LP.PowerCoeffQuery(expf, 5, 500)).kind == "large_k"
        assert LP.auto_regime(LP.PowerCoeffQuery(expf, 10**4, 99)).kind == "small_k"

    def test_no_applicable_regime(self, binom):
        with pytest.raises(NoApplicableRegime):
            LP.auto_regime(LP.PowerCoeffQuery(binom, 10, 10))

    def test_auto_dispatch(self, binom):
        regime, est = LP.estimate_auto(LP.PowerCoeffQuery(binom, 1000, 500))
        assert regime.kind == "comparable"
        r = exact_log(binom, 1000, 500).ratio(est.value)
        assert abs(r - 1.0) < 0.005

    def test_prefactor_small_k(self, binom):
        q = LP.PowerCoeffQuery(binom, 1000, 20, prefactor=binom)
        assert LP.auto_regime(q).kind == "small_k"
        regime, est = LP.estimate_auto(q)
        assert est.method == "small_k+prefactor"
        exact = LogNumber.from_fraction(Fraction(math.comb(1001, 20)))
        assert abs(exact.ratio(est.value) - 1.0) < 0.05

    def test_prefactor_never_fixed_or_large_k(self, binom, expf):
        h = make_family(parse_family("binom:4"), trunc=64)
        # fixed_k and large_k without the prefactor
        assert LP.auto_regime(LP.PowerCoeffQuery(binom, 10**6, 31)).kind == "fixed_k"
        assert LP.auto_regime(LP.PowerCoeffQuery(expf, 5, 500)).kind == "large_k"
        with_h = LP.PowerCoeffQuery(binom, 10**6, 31, prefactor=h)
        assert LP.auto_regime(with_h).kind == "small_k"
        with pytest.raises(NoApplicableRegime, match="prefactor binom:4"):
            LP.auto_regime(LP.PowerCoeffQuery(expf, 5, 500, prefactor=h))

    def test_auto_keeps_the_prefactor(self):
        # psi is built through index 150: the module's expf (trunc 128) is
        # refused by the exact oracle at k = 150
        expf = make_family(parse_family("exp"), trunc=150)
        h = make_family(parse_family("binom:4"), trunc=64)
        q = LP.PowerCoeffQuery(expf, 100, 150, prefactor=h)
        regime, est = LP.estimate_auto(q)
        assert est == LP.estimate_with_prefactor(q, LP.auto_regime(q))
        assert est.method == "comparable+prefactor"
        # exact: ln 89.406; the bare comparable estimate is 85.756
        assert abs(est.value.log_abs - LogNumber.from_fraction(LP.exact_power_coeff(q)).log_abs) < 0.05


class TestDispatch:
    @pytest.mark.parametrize("regime,direct", [
        (LP.Regime("comparable", a=0.01, b=0.95),
         lambda q: LP.estimate_comparable(q, 0.01, 0.95)),
        (LP.Regime("limit_l", l=0.5, omega=0.25), lambda q: LP.estimate_limit_l(q, 0.5, 0.25)),
        (LP.Regime("small_k_refined"), lambda q: LP.estimate_small_k_refined(q, 2)),
        (LP.Regime("small_k_refined", j=3), lambda q: LP.estimate_small_k_refined(q, 3)),
        (LP.Regime("fixed_k"), lambda q: LP.fixed_k_polynomial(q.psi.coeffs, q.k)),
    ])
    def test_each_regime_runs_its_estimator(self, binom, regime, direct):
        q = LP.PowerCoeffQuery(binom, 1000, 20)
        assert LP.estimate(q, regime) == direct(q)

    def test_small_and_large_k(self, expf):
        q = LP.PowerCoeffQuery(expf, 10_000, 100)
        assert LP.estimate(q, LP.Regime("small_k")) == LP.estimate_small_k(q)
        q = LP.PowerCoeffQuery(expf, 5, 500)
        assert LP.estimate(q, LP.Regime("large_k")) == LP.estimate_large_k(q)

    def test_refined_small_k_takes_j_as_given(self, binom):
        with pytest.raises(ValueError):
            LP.estimate(LP.PowerCoeffQuery(binom, 100, 3), LP.Regime("small_k_refined", j=0))

    def test_unknown_regime_refused(self, binom):
        with pytest.raises(RegimeMismatch):
            LP.estimate(LP.PowerCoeffQuery(binom, 100, 3), LP.Regime("nope"))

    @pytest.mark.parametrize("bare_psi,regime", [
        (True, LP.Regime("small_k_refined")),  # was FirstCoefficientZero
        (True, LP.Regime("fixed_k")),  # was NoApplicableRegime
        (False, LP.Regime("small_k")),  # the prefactor's h(0); was PrefactorRadiusTooSmall
    ], ids=["refined-psi", "fixed_k-psi", "small_k-prefactor"])
    def test_a_missing_oracle_is_refused_by_the_oracle(self, binom, bare_psi, regime):
        bare = dataclasses.replace(binom, oracle=None)
        q = (LP.PowerCoeffQuery(bare, 1000, 20) if bare_psi
             else LP.PowerCoeffQuery(binom, 1000, 20, prefactor=bare))
        with pytest.raises(NoCoefficientAccess, match=bare.name):
            LP.estimate(q, regime)


class TestErrorConvergence:
    def test_binomial_error_shrinks_like_inverse_n(self, binom):
        errs = []
        for n in (100, 1000, 10_000):
            k = n // 2
            est = LP.estimate_limit_l(LP.PowerCoeffQuery(binom, n, k), 0.5, 0.0)
            exact = LogNumber.from_fraction(Fraction(math.comb(n, k)))
            errs.append(abs(exact.ratio(est.value) - 1.0))
        assert errs[0] > errs[1] > errs[2]
        # rate check: error * 4n stays within a stable band near 1
        for n, e in zip((100, 1000, 10_000), errs):
            assert 0.9 <= e * 4 * n <= 1.0
