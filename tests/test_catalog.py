"""Catalog families: exact oracles, closed identities, approximate laws."""

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from khinfam import catalog as C
from khinfam import series as S
from khinfam.errors import (
    InvalidSpec,
    NoApproxAvailable,
    NoAxisFormula,
    TruncationTooLarge,
)
from khinfam.numerics import lambert_w0, zeta_real

Z2 = math.pi**2 / 6


def sigma_k(m, k):
    return sum(d**k for d in range(1, m + 1) if m % d == 0)


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["exp", "bernoulli", "binom:4", "geom", "negbinom:3", "poly:1,1/2,3",
         "bell", "P", "Q", "Pab:2,1", "Wab:1,1", "expof:poly:0,0,1",
         "canprod:1,2,4", "setsoflists"],
    )
    def test_round_trips(self, text):
        spec = C.parse_family(text)
        C.make_family(spec, trunc=16)  # must build

    @pytest.mark.parametrize(
        "text",
        ["nope", "binom:0", "Pab:0,1", "Wab:1,-1", "poly:0,1", "poly:1",
         "poly:1,-1", "expof:poly:1,1", "canprod:3,2", "binom:x"],
    )
    def test_invalid_specs(self, text):
        with pytest.raises(InvalidSpec):
            spec = C.parse_family(text)
            C.make_family(spec, trunc=8)


class TestExactCoefficients:
    def test_partition_cross_validation_to_2000(self):
        pent = C.pentagonal_partitions(2000)
        prod = C.product_expansion([(p, 1) for p in range(1, 2001)], 2000)
        assert pent == prod

    def test_distinct_counts(self):
        q = C.exact_coeffs(C.parse_family("Q"), 100)
        assert q.coeff(6) == 4
        assert q.coeff(100) == 444793

    def test_bell_values(self):
        b = C.bell_numbers(10)
        assert b == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
        coeffs = C.exact_coeffs(C.parse_family("bell"), 6)
        assert coeffs.coeff(6) == Fraction(203, math.factorial(6))

    def test_bell_matches_exponential_route(self):
        direct = C.exact_coeffs(C.parse_family("bell"), 24)
        g = S.CoeffSeries.from_list(
            [0] + [Fraction(1, math.factorial(k)) for k in range(1, 25)]
        )
        via_exp, _ = S.exp_series(g)
        assert direct == via_exp

    def test_plane_partitions(self):
        m = C.exact_coeffs(C.parse_family("Wab:1,1"), 12)
        # 1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479
        want = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479]
        assert [m.coeff(n) for n in range(13)] == want

    def test_arithmetic_progression_odd_parts(self):
        pab = C.exact_coeffs(C.parse_family("Pab:2,1"), 64)
        q = C.exact_coeffs(C.parse_family("Q"), 64)
        assert pab == q

    def test_negative_binomial(self):
        nb = C.exact_coeffs(C.parse_family("negbinom:3"), 8)
        assert [nb.coeff(n) for n in range(5)] == [1, 3, 6, 10, 15]

    def test_sets_of_lists(self):
        f = C.exact_coeffs(C.parse_family("setsoflists"), 5)
        got = [f.coeff(n) * math.factorial(n) for n in range(6)]
        assert got == [1, 1, 3, 13, 73, 501]

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooLarge):
            C.exact_coeffs(C.parse_family("exp"), 200_000)

    def test_huge_rational_rejected_at_parse_time(self):
        with pytest.raises(InvalidSpec):
            C.parse_family("poly:1e400,1")


def dense_exp_series(g):
    """exp(g - g0) by the loop over every k <= m, the reference for the
    loop over the nonzero g_k in ``series.exp_series``."""
    gc = g.coeffs
    f = [Fraction(0)] * (g.order + 1)
    f[0] = Fraction(1)
    for m in range(1, g.order + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if gc[k] != 0 and f[m - k] != 0:
                acc += k * gc[k] * f[m - k]
        f[m] = acc / m
    return S.CoeffSeries(tuple(f))


ORACLE_N = 300


def all_fractions(series):
    return all(type(c) is Fraction for c in series.coeffs)


class TestLinearOracles:
    """The running-product and recurrence oracles equal the routes they
    replaced, up to n = 300, coefficient for coefficient."""

    def test_exp_is_one_over_factorial(self):
        got = C.exact_coeffs(C.parse_family("exp"), ORACLE_N)
        assert got.coeffs == tuple(Fraction(1, math.factorial(n)) for n in range(ORACLE_N + 1))
        assert all_fractions(got)

    def test_bell_is_bell_number_over_factorial(self):
        got = C.exact_coeffs(C.parse_family("bell"), ORACLE_N)
        bells = C.bell_numbers(ORACLE_N)
        assert got.coeffs == tuple(Fraction(b, math.factorial(n)) for n, b in enumerate(bells))
        assert all_fractions(got)

    def test_sets_of_lists_is_exp_of_z_over_one_minus_z(self):
        got = C.exact_coeffs(C.parse_family("setsoflists"), ORACLE_N)
        assert got == dense_exp_series(S.CoeffSeries.from_list([0] + [1] * ORACLE_N))
        assert all_fractions(got)

    @pytest.mark.parametrize("inner", ["0,1,1", "0,1,0,1", "0,1/2,0,0,2/3", "0,0,3/7,5"])
    def test_expof_matches_dense_loop(self, inner):
        spec = C.parse_family("expof:poly:" + inner)
        got = C.exact_coeffs(spec, ORACLE_N)
        assert got == dense_exp_series(S.CoeffSeries.from_list(spec.inner.coeffs, order=ORACLE_N))
        assert all_fractions(got)

    @pytest.mark.parametrize("g", [
        [Fraction(3, 2), 1, Fraction(-1, 3), 0, 2],  # g0 != 0 and a negative term
        [0] + [Fraction(1, k) for k in range(1, 40)],  # dense
        [0, 0, 0, 0, 0, 0, Fraction(5, 7)],
    ])
    def test_exp_series_matches_dense_loop(self, g):
        series = S.CoeffSeries.from_list(g, order=60)
        got, g0 = S.exp_series(series)
        assert got == dense_exp_series(series)
        assert g0 == series.coeffs[0]
        assert all_fractions(got)


class TestClosedEvaluations:
    def test_partition_identity_at_radii(self):
        P = C.make_family(C.parse_family("P"), trunc=8)
        Q = C.make_family(C.parse_family("Q"), trunc=8)
        for t in (0.3, 0.6, 0.9):
            lhs = Q.log_value(t) + P.log_value(t * t)
            assert abs(lhs - P.log_value(t)) < 1e-10

    def test_partition_identity_on_coefficients(self):
        p = C.exact_coeffs(C.parse_family("P"), 256)
        q = C.exact_coeffs(C.parse_family("Q"), 256)
        p_sq = S.CoeffSeries.from_list(
            [p.coeff(n // 2) if n % 2 == 0 else 0 for n in range(257)]
        )
        assert S.mul(q, p_sq) == p

    def test_mean_identity_q_vs_p(self):
        P = C.make_family(C.parse_family("P"), trunc=8)
        Q = C.make_family(C.parse_family("Q"), trunc=8)
        for t in (0.3, 0.6, 0.9):
            want = P.mean(t) - 2 * P.mean(t * t)
            assert abs(Q.mean(t) - want) <= 1e-10 * max(1.0, want)

    def test_arithmetic_equals_distinct(self):
        pab = C.make_family(C.parse_family("Pab:2,1"), trunc=8)
        q = C.make_family(C.parse_family("Q"), trunc=8)
        for t in (0.2, 0.5, 0.8):
            assert abs(pab.log_value(t) - q.log_value(t)) < 1e-12
            assert abs(pab.mean(t) - q.mean(t)) < 1e-10 * (1 + q.mean(t))

    def test_usg_flags(self):
        assert C.make_family(C.parse_family("exp"), 8).usg
        assert C.make_family(C.parse_family("bell"), 8).usg
        assert C.make_family(C.parse_family("P"), 8).usg
        assert C.make_family(C.parse_family("Q"), 8).usg
        assert C.make_family(C.parse_family("Wab:1,2"), 8).usg
        assert not C.make_family(C.parse_family("Wab:2,1"), 8).usg
        assert not C.make_family(C.parse_family("geom"), 8).usg
        assert not C.make_family(C.parse_family("poly:1,1"), 8).usg

    def test_gcd_parameters(self):
        assert C.make_family(C.parse_family("Pab:2,4"), 8).q_gcd == 2
        assert C.make_family(C.parse_family("Wab:3,1"), 9).q_gcd == 3

    def test_canonical_product(self):
        fam = C.make_family(C.parse_family("canprod:1,2,4"), trunc=8)
        t = 0.7
        want = sum(t / (b + t) for b in (1.0, 2.0, 4.0))
        assert abs(fam.mean(t) - want) < 1e-12
        assert fam.meta.get("truncated_product")
        assert fam.mean_sup == 3.0

    @pytest.mark.parametrize("spec", ["bernoulli", "binom:5"])
    def test_binomial_cumulants_unchanged_where_the_t_forms_are_finite(self, spec):
        fam = C.make_family(C.parse_family(spec), trunc=8)
        n = fam.mean_sup
        grid = [10.0**e for e in range(-300, 308, 7)] + [0.5, 1.0, 2.0, 3.0, 1.3e77, 5.6e102,
                                                         3.5e307, 1e308, 1.7e308]
        finite = 0
        for t0 in grid:
            t = math.exp(math.log(t0))
            k3, k4 = fam.fulcrum34(math.log(t0))
            for got, old in ((fam.mean(t0), lambda: n * t0 / (1.0 + t0)),
                             (fam.variance(t0), lambda: n * t0 / (1.0 + t0) ** 2),
                             (k3, lambda: n * t * (1 - t) / (1 + t) ** 3),
                             (k4, lambda: n * t * (1 - 4 * t + t * t) / (1 + t) ** 4)):
                try:
                    want = old()
                except OverflowError:
                    continue
                if math.isinf(want):  # the mean's n t overflows to inf, not an error
                    continue
                finite += 1
                assert got.hex() == want.hex(), t0
        assert finite > 200

    @pytest.mark.parametrize("t", [1e120, 1e160, 1e200, 1e300, 1e307])
    def test_binomial_cumulants_in_x_past_the_float_range_of_the_t_forms(self, t):
        # with x = t/(1+t): n x(1-x), n x(1-x)(1-2x), n x(1-x)(1-6x(1-x)),
        # which are 5/t, -5/t and 5/t to float precision at these t;
        # fulcrum34 takes s = ln t and reads t back as e^s
        fam = C.make_family(C.parse_family("binom:5"), trunc=8)
        k3, k4 = fam.fulcrum34(math.log(t))
        te = math.exp(math.log(t))
        for got, want in ((fam.variance(t), 5 / t), (k3, -5 / te), (k4, 5 / te)):
            assert math.isfinite(got) and abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("spec", ["bernoulli", "binom:5"])
    def test_binomial_mean_past_the_float_range_of_n_t(self, spec):
        # n t overflows past t = 1.8e308 / n; there x = t/(1+t) rounds to 1
        fam = C.make_family(C.parse_family(spec), trunc=8)
        for t in (3.6e307, 1e308, 1.7976931348623157e308):
            assert fam.mean(t) == fam.mean_sup, t

    def test_basic_family_radii(self):
        geom = C.make_family(C.parse_family("geom"), 8)
        assert geom.radius == 1.0 and math.isinf(geom.mean_sup)
        expf = C.make_family(C.parse_family("exp"), 8)
        assert math.isinf(expf.radius)

    def test_gcd_field_matches_coefficient_support(self):
        for text in ("exp", "P", "Q", "Pab:2,4", "Pab:3,2", "Wab:2,1",
                     "expof:poly:0,0,1", "poly:1,0,0,2"):
            fam = C.make_family(C.parse_family(text), trunc=48)
            assert fam.q_gcd == S.support_gcd(fam.coeffs), text

    def test_point_bundle(self):
        from khinfam.family import point

        fam = C.make_family(C.parse_family("exp"), 8)
        pt = point(fam, 2.0)
        assert (pt.t, pt.m_t, pt.var_t) == (2.0, 2.0, 2.0)
        assert abs(pt.f_t - math.exp(2.0)) < 1e-12


class TestApproxMoments:
    def test_partition_plugin_values(self):
        ap = C.approx_moments(C.parse_family("P"))
        assert abs(ap.m_tilde(0.1) - Z2 / 0.01) < 1e-9
        assert abs(ap.tau_for(100) - math.exp(-math.pi / math.sqrt(600))) < 1e-12

    def test_distinct_plugin_values(self):
        ap = C.approx_moments(C.parse_family("Q"))
        assert abs(ap.m_tilde(0.1) - Z2 / 0.02) < 1e-9
        # derived inverse law for the distinct-part family
        assert abs(ap.s_for_mean(50.0) - math.sqrt(Z2 / 100.0)) < 1e-12

    def test_colored_w11_value(self):
        ap = C.approx_moments(C.parse_family("Wab:1,1"))
        want = zeta_real(3.0) * 2.0 * 1000.0  # zeta(3) Gamma(3) / s^3 at s = 0.1
        assert abs(ap.m_tilde(0.1) - want) < 1e-9 * want

    def test_bell_uses_exact_mean_inverse(self):
        ap = C.approx_moments(C.parse_family("bell"))
        assert abs(ap.tau_for(10.0) - lambert_w0(10.0)) < 1e-12

    def test_admissibility_residual_shrinks(self):
        for text in ("P", "Q", "Pab:3,2", "Wab:1,1", "Wab:1,2"):
            spec = C.parse_family(text)
            fam = C.make_family(spec, trunc=8)
            ap = C.approx_moments(spec)

            def residual(s):
                return abs(
                    (ap.m_tilde(s) - fam.mean(math.exp(-s))) / ap.sigma_tilde(s)
                )

            assert residual(0.01) < residual(0.1)

    @pytest.mark.parametrize("text", ["Wab:2,1", "Wab:3,2", "Wab:2,0"])
    def test_colored_laws_with_parts_on_a_lattice(self, text):
        # parts a*j of weight j^b: m ~ Gamma(b+2) zeta(b+2) / (a^(b+1) s^(b+2))
        spec = C.parse_family(text)
        fam = C.make_family(spec, trunc=8)
        ap = C.approx_moments(spec)
        t = math.exp(-0.01)
        assert abs(ap.m_tilde(0.01) / fam.mean(t) - 1.0) < 0.01
        assert abs(ap.sigma_tilde(0.01) ** 2 / fam.variance(t) - 1.0) < 0.01

    def test_unavailable(self):
        with pytest.raises(NoApproxAvailable):
            C.approx_moments(C.parse_family("geom"))


class TestAxisAsymptotics:
    def test_partition_ratio_tends_to_one(self):
        spec = C.parse_family("P")
        fam = C.make_family(spec, trunc=8)
        ratios = []
        for s in (0.2, 0.1, 0.05, 0.02):
            ratios.append(
                math.exp(C.axis_asymptotic(spec, s).log_abs - fam.log_value(math.exp(-s)))
            )
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[2] - 1.0) < 0.02  # s = 0.05 within two percent

    def test_distinct_from_partition_quotient(self):
        # the distinct-part series value is exactly P(t)/P(t^2)
        P = C.make_family(C.parse_family("P"), trunc=8)
        Q = C.make_family(C.parse_family("Q"), trunc=8)
        t = math.exp(-0.05)
        assert abs(Q.log_value(t) - (P.log_value(t) - P.log_value(t * t))) < 1e-10

    def test_colored_w11_against_direct_product(self):
        spec = C.parse_family("Wab:1,1")
        fam = C.make_family(spec, trunc=8)
        s = 0.05
        ax = C.axis_asymptotic(spec, s).log_abs
        assert abs(ax - fam.log_value(math.exp(-s))) < 1e-4

    @pytest.mark.parametrize("text", ["Wab:2,1", "Wab:3,2", "Wab:2,0"])
    def test_colored_with_parts_on_a_lattice(self, text):
        # Wab:2,1 at s = 0.01: ln f = 3004.65; the law for a = 1 gave 81.5
        spec = C.parse_family(text)
        fam = C.make_family(spec, trunc=8)
        for s, tol in ((0.1, 1e-2), (0.01, 1e-3)):
            assert abs(C.axis_asymptotic(spec, s).log_abs - fam.log_value(math.exp(-s))) < tol

    def test_colored_beyond_table_raises(self):
        with pytest.raises(NoAxisFormula):
            C.axis_asymptotic(C.parse_family("Wab:1,3"), 0.1)

    def test_no_formula_for_basic_families(self):
        with pytest.raises(NoAxisFormula):
            C.axis_asymptotic(C.parse_family("exp"), 0.1)


# -- set/multiset transforms and Hayman-class window checks, kept as oracles ---------


def _log_product(c, sign):
    """b_m = (1/m) sum_{jk = m} sign(k) j c_j: the log-series of a product over
    the sizes j with count c_j (index 0 ignored)."""
    n = len(c) - 1
    out = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        for k in range(1, n // j + 1):
            out[j * k] += sign(k) * j * Fraction(c[j])
    return S.CoeffSeries((Fraction(0), *(out[m] / m for m in range(1, n + 1))))


def multiset_transform(c):
    """Log-series of the multiset product prod (1 - z^j)^(-c_j)."""
    return _log_product(c, lambda k: 1)


def powerset_transform(c):
    """Log-series of the selection product prod (1 + z^j)^{c_j}; it may carry
    negative coefficients."""
    return _log_product(c, lambda k: 1 if k % 2 else -1)


@dataclass(frozen=True)
class CriterionVerdict:
    ok: bool
    reason: str
    first_violation: int | None = None


def hayman_criterion_entire(g, B, beta, L, lam):
    """Window check of B beta^n/n! <= b_n <= L lam^n/n! with 2 lam < 3 beta."""
    if not (B > 0 and L > 0 and beta >= 0 and lam >= 0):
        raise ValueError("constants must satisfy B, L > 0 and beta, lam >= 0")
    if not 2.0 * lam < 3.0 * beta:
        return CriterionVerdict(False, "parameter-inequality")
    log_fact = 0.0
    for n in range(1, g.order + 1):
        log_fact += math.log(n)
        bn = float(g.coeff(n))
        lo = B * math.exp(n * math.log(beta) - log_fact) if beta > 0 else 0.0
        hi = L * math.exp(n * math.log(lam) - log_fact) if lam > 0 else 0.0
        if bn < lo * (1 - 1e-12) or bn > hi * (1 + 1e-12):
            return CriterionVerdict(False, "coefficient-bound", first_violation=n)
    return CriterionVerdict(True, "ok")


def hayman_criterion_finite(g, B, beta, L, lam, R):
    """Window check of B n^beta/R^n <= b_n <= L n^lam/R^n with 2 lam < 3 beta + 1."""
    if not (B > 0 and L > 0 and beta > -1 and lam > -1 and R > 0):
        raise ValueError("need B, L > 0, beta, lam > -1 and finite R > 0")
    if not 2.0 * lam < 3.0 * beta + 1.0:
        return CriterionVerdict(False, "parameter-inequality")
    log_r = math.log(R)
    for n in range(1, g.order + 1):
        bn = float(g.coeff(n))
        lo = B * math.exp(beta * math.log(n) - n * log_r)
        hi = L * math.exp(lam * math.log(n) - n * log_r)
        if bn < lo * (1 - 1e-12) or bn > hi * (1 + 1e-12):
            return CriterionVerdict(False, "coefficient-bound", first_violation=n)
    return CriterionVerdict(True, "ok")


class TestTransforms:
    def test_multiset_divisor_sums(self):
        g = multiset_transform([0] + [1] * 8)
        assert g.coeff(6) == 2
        for m in range(1, 9):
            assert g.coeff(m) == Fraction(sigma_k(m, 1), m)

    def test_multiset_weighted_colors(self):
        g = multiset_transform([0] + list(range(1, 9)))
        for m in range(1, 9):
            assert g.coeff(m) == Fraction(sigma_k(m, 2), m)

    def test_multiset_single_color(self):
        g = multiset_transform([0, 1, 0, 0, 0])
        for m in range(1, 5):
            assert g.coeff(m) == Fraction(1, m)
        f, _ = S.exp_series(g)
        assert all(f.coeff(n) == 1 for n in range(5))

    def test_multiset_exponential_matches_product(self):
        for c in ([0] + [1] * 256, [0] + list(range(1, 257))):
            g = multiset_transform(c)
            f, _ = S.exp_series(g)
            parts = [(j, c[j]) for j in range(1, 257) if c[j]]
            prod = C.product_expansion(parts, 256)
            assert [f.coeff(n) for n in range(257)] == [Fraction(v) for v in prod]

    def test_powerset_divisor_identity(self):
        g = powerset_transform([0] + [1] * 8)
        assert g.coeff(4) == Fraction(1, 4)
        for m in range(1, 9):
            want = Fraction(sigma_k(m, 1) - (2 * sigma_k(m // 2, 1) if m % 2 == 0 else 0), m)
            assert g.coeff(m) == want

    def test_powerset_single_is_log1p(self):
        g = powerset_transform([0, 1, 0, 0])
        assert [g.coeff(m) for m in range(1, 4)] == [1, Fraction(-1, 2), Fraction(1, 3)]
        assert any(c < 0 for c in g.coeffs)

    def test_powerset_exponential_counts_distinct(self):
        g = powerset_transform([0] + [1] * 64)
        f, _ = S.exp_series(g)
        assert f.coeff(6) == 4
        q = C.exact_coeffs(C.parse_family("Q"), 64)
        assert f == q

    @pytest.mark.parametrize("n", [60, 200])
    def test_powerset_product_matches_the_distinct_parts_oracle(self, n):
        # the product route over prod (1 + z^j) against Q's Euler transform
        # over the odd-part divisor sums: the two share no code
        f, _ = S.exp_series(powerset_transform([0] + [1] * n))
        assert f == C.exact_coeffs(C.parse_family("Q"), n)


class TestHaymanCriteria:
    def test_bell_series_passes(self):
        g = S.CoeffSeries.from_list(
            [0] + [Fraction(1, math.factorial(n)) for n in range(1, 40)]
        )
        verdict = hayman_criterion_entire(g, 1.0, 1.0, 1.0, 1.0)
        assert verdict.ok

    def test_parameter_inequality_fails_fast(self):
        g = S.CoeffSeries.from_list([0] + [Fraction(n, math.factorial(n)) for n in range(1, 20)])
        verdict = hayman_criterion_entire(g, 1.0, 1.0, 2.0, 2.0)
        assert not verdict.ok and verdict.reason == "parameter-inequality"

    def test_pointed_sets_window(self):
        g = S.CoeffSeries.from_list([0] + [Fraction(n, math.factorial(n)) for n in range(1, 40)])
        verdict = hayman_criterion_entire(g, 1.0, 1.0, math.e, 1.3)
        assert verdict.ok

    def test_divisor_series_finite_radius(self):
        g = S.CoeffSeries.from_list(
            [0] + [Fraction(sigma_k(m, 1), m) for m in range(1, 513)]
        )
        d_eps = max(float(g.coeff(n)) / n**0.3 for n in range(1, 513))
        verdict = hayman_criterion_finite(g, 1.0, 0.0, d_eps, 0.3, 1.0)
        assert verdict.ok

    def test_plane_partition_series_finite_radius(self):
        g = S.CoeffSeries.from_list(
            [0] + [Fraction(sigma_k(m, 2), m) for m in range(1, 257)]
        )
        d = max(float(g.coeff(n)) / n**1.3 for n in range(1, 257))
        verdict = hayman_criterion_finite(g, 1.0, 1.0, d, 1.3, 1.0)
        assert verdict.ok

    def test_wrong_exponent_violates_inequality(self):
        g = S.CoeffSeries.from_list([0] + [1] * 16)
        beta = 0.0
        lam = 3 * beta / 2 + 1
        verdict = hayman_criterion_finite(g, 1.0, beta, 1.0, lam, 1.0)
        assert not verdict.ok and verdict.reason == "parameter-inequality"

    def test_coefficient_violation_reports_index(self):
        g = S.CoeffSeries.from_list([0, 1, Fraction(1, 2), 50])
        verdict = hayman_criterion_entire(g, 1.0, 1.0, 1.0, 1.1)
        assert not verdict.ok and verdict.first_violation == 3


# -- the closure-based partition sums, kept as an independent oracle ----------------


def _closure_sum_terms(term, majorant, start=1, step=1, limit=10_000_000):
    total = 0.0
    j = start
    while True:
        v = term(j)
        total += v
        if total > 0 and v < 1e-16 * total and majorant(j + step) < 1e-14 * total:
            return total
        j += step
        if j > limit:
            raise TruncationTooLarge("series summation did not reach its tail criterion")


def _closure_parts_sums(parts, limit=10_000_000):
    """ln f, m, sigma^2, complex ln f and F^(q) of prod (1 - t^p_j)^(-c_j),
    with ``parts(j) = (p_j, c_j)``: one closure per term and per majorant;
    ln f, m and sigma^2 give up after ``limit`` terms."""

    def log_value(u):
        def term(j):
            p, c = parts(j)
            return -c * math.log1p(-u**p)

        def major(j):
            p, c = parts(j)
            return c * u**p / (1.0 - u)

        return _closure_sum_terms(term, major, limit=limit)

    def mean(u):
        def term(j):
            p, c = parts(j)
            x = u**p
            return c * p * x / (1.0 - x)

        def major(j):
            p, c = parts(j)
            return c * p * u**p / (1.0 - u)

        return _closure_sum_terms(term, major, limit=limit)

    def variance(u):
        def term(j):
            p, c = parts(j)
            x = u**p
            return c * p * p * x / (1.0 - x) ** 2

        def major(j):
            p, c = parts(j)
            return c * p * p * u**p / (1.0 - u) ** 2

        return _closure_sum_terms(term, major, limit=limit)

    def log_value_complex(z):
        total = complex(0.0)
        j = 1
        az = abs(z)
        while True:
            p, c = parts(j)
            w = z**p
            total += -c * cmath.log(1 - w)
            if az**p * c < 1e-17 * max(1.0, abs(total)) and az**p < 0.5:
                return total
            j += 1

    def fulcrum_high(s, q):
        u = math.exp(s)

        def term(j):
            p, c = parts(j)
            x = u**p
            inner = 0.0
            k = 1
            xk = x
            while True:
                v = k ** (q - 1) * xk
                inner += v
                if v < 1e-17 * max(inner, 1e-300) and xk < 0.5:
                    break
                k += 1
                xk *= x
            return c * float(p) ** q * inner

        def major(j):
            p, c = parts(j)
            return c * float(p) ** q * u**p / (1.0 - u) ** q

        return _closure_sum_terms(term, major)

    return log_value, mean, variance, log_value_complex, fulcrum_high


PARTS = {
    "P": lambda j: (j, 1),
    "Q": lambda j: (2 * j - 1, 1),
    "Pab:2,1": lambda j: (2 * (j - 1) + 1, 1),
    "Pab:3,2": lambda j: (3 * (j - 1) + 2, 1),
    "Wab:1,0": lambda j: (j, 1),
    "Wab:1,1": lambda j: (j, j),
    "Wab:1,2": lambda j: (j, j**2),
    "Pab:4,3": lambda j: (4 * (j - 1) + 3, 1),
    "Wab:2,1": lambda j: (2 * j, j),
    "Wab:3,2": lambda j: (3 * j, j**2),
}
RADII = (0.1, 0.5, 0.9, 0.99, 0.999)


def _real_radii(text):
    """RADII, and 0.9999 for the unit and linear weights on step 1."""
    return RADII + (0.9999,) if text in ("P", "Wab:1,1") else RADII


def _decimal_fulcrum(parts, s, q):
    """F^(q)(s) = sum_j c_j p_j^q sum_k k^{q-1} x_j^k, x_j = u^{p_j}, to 45
    digits at the float u = e^s's exact value: the double series with its
    terms collected by the power u^n = x_j^k they carry, an integer
    coefficient each, summed by Horner in Decimal. The coefficient of u^n is
    n^(q-1) times the sum of c_j p_j over the parts dividing n, at most
    n^(q+4) for the weights c_j <= j^2 here, so cutting at N with
    N (-ln u) >= 110 + (q + 4) ln N leaves a tail below 1e-40 of the sum."""
    u = math.exp(s)
    n_max = 64
    while n_max * -math.log(u) < 110.0 + (q + 4) * math.log(n_max):
        n_max += n_max // 4
    coef = [0] * (n_max + 1)
    j = 1
    while parts(j)[0] <= n_max:
        p, c = parts(j)
        for k in range(1, n_max // p + 1):
            coef[p * k] += c * p**q * k ** (q - 1)
        j += 1
    with localcontext() as ctx:
        ctx.prec = 45
        x = Decimal(u)
        acc = Decimal(0)
        for a in reversed(coef):
            acc = acc * x + a
        return acc


class _Powers(float):
    """A float that records the exponent of every power taken of it."""

    def __new__(cls, value, seen):
        obj = super().__new__(cls, value)
        obj.seen = seen
        return obj

    def __pow__(self, p):
        self.seen.append(p)
        return float(self) ** p


class TestPartitionSums:
    """The fused per-statistic loops against the closure-based sums: ln f, m
    and sigma^2 bit for bit, the fulcrum derivatives to a few ulps."""

    @pytest.mark.parametrize("text", sorted(PARTS))
    def test_real_statistics_bitwise(self, text):
        fam = C.make_family(C.parse_family(text), trunc=8)
        log_value, mean, variance, _, _ = _closure_parts_sums(PARTS[text])
        for u in _real_radii(text):
            assert fam.log_value(u) == log_value(u), u
            assert fam.mean(u) == mean(u), u
            assert fam.variance(u) == variance(u), u

    @pytest.mark.parametrize("text", sorted(PARTS))
    def test_fulcrum_derivatives_bitwise(self, text):
        # The closed-form inner sums round differently from the closures'
        # double series, so the two agree to rounding, not bit for bit.
        fam = C.make_family(C.parse_family(text), trunc=8)
        fulcrum_high = _closure_parts_sums(PARTS[text])[4]
        # at u = 0.999 the double sum takes ~1.7 s a family: the unit and the
        # square weights stand for the rest there
        for u in RADII if text in ("P", "Wab:1,2") else RADII[:-1]:
            s = math.log(u)
            for got, q in zip(fam.fulcrum34(s), (3, 4)):
                want = fulcrum_high(s, q)
                assert abs(got - want) <= 1e-13 * want, (u, q)

    @pytest.mark.parametrize("text", sorted(PARTS))
    def test_fulcrum_derivatives_against_decimal(self, text):
        fam = C.make_family(C.parse_family(text), trunc=8)
        for u in (0.3, 0.9, 0.99):
            s = math.log(u)
            for got, q in zip(fam.fulcrum34(s), (3, 4)):
                want = _decimal_fulcrum(PARTS[text], s, q)
                assert abs(Decimal(got) - want) <= Decimal(3e-14) * want, (u, q)

    @pytest.mark.parametrize("text", sorted(PARTS))
    def test_same_powers_in_the_same_order(self, text):
        # Every u**p a sum takes, majorants included, in order: a majorant
        # read at another part, or a term too many, shows here even where
        # it leaves the total's bits alone.
        fam = C.make_family(C.parse_family(text), trunc=8)
        oracle = _closure_parts_sums(PARTS[text])
        for u in _real_radii(text):
            for new, old in zip((fam.log_value, fam.mean, fam.variance), oracle[:3]):
                seen_new, seen_old = [], []
                assert new(_Powers(u, seen_new)) == old(_Powers(u, seen_old))
                assert seen_new == seen_old

    @pytest.mark.parametrize("text", sorted(PARTS))
    def test_term_limit_raises_after_the_same_powers(self, text, monkeypatch):
        # The sums give up after _MAX_TERMS terms, a limit read when the
        # family is built. Cut where a majorant is first read and fails to
        # end the sum (the first power taken twice in a row), each sum takes
        # the oracle's powers, that majorant last, and then raises.
        u = 0.999
        names = ("log_value", "mean", "variance")
        full = C.make_family(C.parse_family(text), trunc=8)
        limits = []
        for name in names:
            seen = []
            getattr(full, name)(_Powers(u, seen))
            limits.append(next(i for i in range(len(seen) - 1) if seen[i] == seen[i + 1]))
        for k, (name, limit) in enumerate(zip(names, limits)):
            monkeypatch.setattr(C, "_MAX_TERMS", limit)
            cut = getattr(C.make_family(C.parse_family(text), trunc=8), name)
            oracle = _closure_parts_sums(PARTS[text], limit)[k]
            seen_new, seen_old = [], []
            with pytest.raises(TruncationTooLarge):
                cut(_Powers(u, seen_new))
            with pytest.raises(TruncationTooLarge):
                oracle(_Powers(u, seen_old))
            assert seen_new == seen_old, name
            assert len(seen_new) == limit + 1, name

    @pytest.mark.parametrize("text", sorted(PARTS))
    def test_underflowed_terms_end_the_sums(self, text):
        # Below t ~ 5e-308, 1e-16 times the sum underflows to 0 and the tail
        # criterion cannot be met; the first term that is exactly 0 ends the
        # loop, so only the first part contributes.
        fam = C.make_family(C.parse_family(text), trunc=8)
        p0 = SHAPES[text][0]
        for u in (1e-310, 1e-200, 5e-324):
            first = u**p0
            assert fam.log_value(u) == -math.log1p(-first)
            assert fam.mean(u) == p0 * first / (1.0 - first)
            assert fam.variance(u) == p0 * p0 * first / (1.0 - first) ** 2
            f3, f4 = fam.fulcrum34(math.log(u))
            assert f3 == float(p0) ** 3 * math.exp(math.log(u)) ** p0
            assert f4 == float(p0) ** 4 * math.exp(math.log(u)) ** p0

    def test_shapes_name_the_products(self):
        # (first part, step, weight exponent): the parts of Pab:2,1 are the
        # odd numbers, the same product as Q, so every statistic agrees.
        q = C._parts_sums(1, 2, 0)
        pab = C.make_family(C.parse_family("Pab:2,1"), trunc=8)
        for u in (0.3, 0.8):
            assert q[1](u) == pab.mean(u)
            assert q[0](u) == pab.log_value(u)


# one point per catalog variant, away from the zeros of F''' and F''''
VARIANT_POINTS = [
    ("exp", 1.3), ("bernoulli", 0.7), ("binom:5", 0.6), ("geom", 0.6),
    ("negbinom:3", 0.5), ("poly:2,3,5", 0.8), ("bell", 0.9), ("P", 0.8),
    ("Q", 0.8), ("Pab:3,2", 0.8), ("Wab:1,2", 0.8), ("expof:poly:0,1,1", 1.2),
    ("canprod:1,2,4", 0.73), ("setsoflists", 0.5),
]


@pytest.mark.parametrize("text,t", VARIANT_POINTS)
def test_fulcrum34_is_the_derivative_of_the_variance(text, t):
    # F''' and F'''' are the first two derivatives in s of sigma^2(e^s):
    # Richardson-extrapolated central differences with h = 1e-3 agree to
    # about 3e-9 and 2e-8 on every variant.
    fam = C.make_family(C.parse_family(text), trunc=8)
    s, h = math.log(t), 1e-3

    def var_at(x):
        return fam.variance(math.exp(x))

    def d1(step):
        return (var_at(s + step) - var_at(s - step)) / (2.0 * step)

    def d2(step):
        return (var_at(s + step) - 2.0 * var_at(s) + var_at(s - step)) / (step * step)

    f3, f4 = fam.fulcrum34(s)
    assert abs((4.0 * d1(h / 2) - d1(h)) / 3.0 - f3) <= 1e-7 * abs(f3)
    assert abs((4.0 * d2(h / 2) - d2(h)) / 3.0 - f4) <= 1e-6 * abs(f4)


# -- complex ln f as a Lambert series ---------------------------------------------

# (first part, step, weight exponent) of each product in PARTS
SHAPES = {
    "P": (1, 1, 0),
    "Q": (1, 2, 0),
    "Pab:2,1": (1, 2, 0),
    "Pab:3,2": (2, 3, 0),
    "Wab:1,0": (1, 1, 0),
    "Wab:1,1": (1, 1, 1),
    "Wab:1,2": (1, 1, 2),
    "Pab:4,3": (3, 4, 0),
    "Wab:2,1": (2, 2, 1),
    "Wab:3,2": (3, 3, 2),
}
COMPLEX_RADII = (0.3, 0.5, 0.9, 0.99)
ANGLES = (0.0, 0.4, math.pi / 2, 2.5, math.pi, -1.1)
ULP = 2.0**-52


def _lambert_numerators(parts, order):
    """s_0..s_order, s_k = sum of c_j p_j over the parts dividing k, from
    ``parts(j) = (p_j, c_j)``, one slice per part."""
    out = [0] * (order + 1)
    j = 1
    while parts(j)[0] <= order:
        p, c = parts(j)
        out[p::p] = [s + c * p for s in out[p::p]]
        j += 1
    return out


def _decimal_log_value(parts, b, z):
    """ln f(z) to 40 digits at the float z's exact value: the Lambert partial
    sum in Decimal, to an order whose certified tail is below 1e-30."""
    r = abs(z)
    bound = C._coeff_log_bound(b)
    order = math.ceil(70.0 / -math.log(r))
    while C._lambert_log_tail(r, order, bound) > math.log(1e-30):
        order += 16
    sums = _lambert_numerators(parts, order)
    with localcontext() as ctx:
        ctx.prec = 40
        x, y = Decimal(z.real), Decimal(z.imag)
        re = im = Decimal(0)
        for k in range(order, 0, -1):
            re, im = re * x - im * y + Decimal(sums[k]) / k, re * y + im * x
        return re * x - im * y, re * y + im * x


def _distance(v, ref):
    re, im = ref
    return abs(complex(float(Decimal(v.real) - re), float(Decimal(v.imag) - im)))


class _Multiplicand(complex):
    """A complex that counts the products it is the right operand of."""

    def __new__(cls, value, seen):
        obj = super().__new__(cls, value)
        obj.seen = seen
        return obj

    def __rmul__(self, other):
        self.seen.append(other)
        return complex(self) * other


class TestLambertSeries:
    """Complex ln f of the partition products: ln f(z) = sum_k (s_k/k) z^k."""

    @pytest.mark.parametrize("text", sorted(SHAPES))
    def test_divisor_sums_give_the_exact_coefficients(self, text):
        # Euler transform in integers: n a_n = sum_{k=1}^{n} s_k a_{n-k}
        sums = C._divisor_sums(C._part_pairs(*SHAPES[text], 200), 1, 200)
        a = [1]
        for n in range(1, 201):
            total = sum(sums[k - 1] * a[n - k] for k in range(1, n + 1))
            assert total % n == 0, n
            a.append(total // n)
        assert a == list(C.exact_coeffs(C.parse_family(text), 200).coeffs)

    @pytest.mark.parametrize("text", sorted(SHAPES))
    def test_sieve_segments_join(self, text):
        # the evaluator grows its table one segment at a time
        whole = C._divisor_sums(C._part_pairs(*SHAPES[text], 300), 1, 300)
        assert whole == _lambert_numerators(PARTS[text], 300)[1:]
        cut = (C._divisor_sums(C._part_pairs(*SHAPES[text], 37), 1, 37)
               + C._divisor_sums(C._part_pairs(*SHAPES[text], 300), 38, 300))
        assert cut == whole

    @pytest.mark.parametrize("text", sorted(SHAPES))
    def test_complex_log_against_a_40_digit_reference(self, text):
        # The error stays within 16 ulps of max(1, ln f(|z|)); the most
        # measured on this grid is 4.8 (Wab:1,2 at |z| = 0.99). The
        # term-by-term loop it replaced was off by up to 909 ulps there.
        fam = C.make_family(C.parse_family(text), trunc=8)
        b = SHAPES[text][2]
        for r in COMPLEX_RADII:
            scale = max(1.0, fam.log_value(r))
            for angle in ANGLES:
                z = cmath.rect(r, angle)
                ref = _decimal_log_value(PARTS[text], b, z)
                assert _distance(fam.log_value_complex(z), ref) <= 16 * ULP * scale, (r, angle)

    @pytest.mark.parametrize("text", sorted(SHAPES))
    def test_complex_log_agrees_with_the_term_by_term_loop(self, text):
        # sum_j -c_j Log(1 - z^{p_j}), an independent route; its own error
        # against the 40-digit reference is up to 909 ulps of ln f(|z|) here
        fam = C.make_family(C.parse_family(text), trunc=8)
        log_value_complex = _closure_parts_sums(PARTS[text])[3]
        for r in COMPLEX_RADII:
            scale = max(1.0, fam.log_value(r))
            for angle in ANGLES:
                z = cmath.rect(r, angle)
                gap = abs(fam.log_value_complex(z) - log_value_complex(z))
                assert gap <= 2048 * ULP * scale, (r, angle)

    @pytest.mark.parametrize("s", [1.0, 0.1, 0.01, 0.001])
    def test_real_log_of_P_near_the_radius(self, s):
        # ln P(e^-s) = sum_k sigma(k) q^k / k at q = the float e^-s, against
        # the truncated sums; their relative error was 4.6e-17, -1.3e-15,
        # -6.3e-15 and -5.0e-14 at these s, the mark a modular ln P must beat
        fam = C.make_family(C.parse_family("P"), trunc=8)
        u = math.exp(-s)
        ref = _decimal_log_value(PARTS["P"], 0, complex(u))[0]
        assert abs((Decimal(fam.log_value(u)) - ref) / ref) < Decimal(1e-13)

    @pytest.mark.parametrize("text", ["P", "Q", "Pab:3,2", "Wab:1,1", "Wab:1,2"])
    def test_tail_bound_dominates_the_exact_tail(self, text):
        b = SHAPES[text][2]
        bound = C._coeff_log_bound(b)
        sums = _lambert_numerators(PARTS[text], 8000)
        for r in (0.5, 0.9, 0.99):
            for order in (1, 10, C._lambert_order(r, bound)):
                # the sum to 1e-15 relative; terms past k = 8000 are below
                # 0.99^8000 * 8000^3 < 1e-22 and add less than that
                tail = math.fsum(sums[k] / k * r**k for k in range(order + 1, 8001))
                assert tail <= math.exp(C._lambert_log_tail(r, order, bound)), (r, order)

    @pytest.mark.parametrize("b", [0, 1, 2, 5])
    def test_order_is_the_least_certified(self, b):
        bound = C._coeff_log_bound(b)
        target = math.log(C._LAMBERT_TAIL)
        for r in (1e-3, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999):
            order = C._lambert_order(r, bound)
            assert C._lambert_log_tail(r, order, bound) <= target, r
            assert order == 1 or C._lambert_log_tail(r, order - 1, bound) > target, r

    @pytest.mark.parametrize("text", sorted(SHAPES))
    def test_horner_pass_takes_the_certified_order(self, text):
        fam = C.make_family(C.parse_family(text), trunc=8)
        bound = C._coeff_log_bound(SHAPES[text][2])
        for r in COMPLEX_RADII:
            seen = []
            z = cmath.rect(r, 0.4)
            got = fam.log_value_complex(_Multiplicand(z, seen))
            assert got == fam.log_value_complex(z)
            # one product per coefficient, and the last one for the factor z
            assert len(seen) == C._lambert_order(r, bound) + 1, r

    @pytest.mark.parametrize("b", [0, 1, 2, 5])
    def test_order_at_t_certifies_the_rounded_circle(self, b):
        # the circle evaluator takes the order at t; at |z| <= t (1 + 2 eps)
        # its tail bound is still below 1.00000001e-17
        bound = C._coeff_log_bound(b)
        for r in (1e-3, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999):
            order = C._lambert_order(r, bound)
            rounded = C._lambert_log_tail(r * (1 + 2 * ULP), order, bound)
            assert rounded <= math.log(1.00000001e-17), r

    def test_computed_circle_points_stay_within_two_eps(self):
        for t in (0.3, 0.5, 0.6, 0.9, 0.99):
            for i in range(4097):
                assert abs(t * cmath.exp(1j * math.pi * i / 4096)) <= t * (1 + 2 * ULP), (t, i)

    @pytest.mark.parametrize("text", sorted(SHAPES))
    def test_circle_evaluator_is_complex_ln_f_on_the_circle(self, text):
        fam = C.make_family(C.parse_family(text), trunc=8)
        for r in COMPLEX_RADII:
            on_circle = fam.log_value_circle(r)
            for angle in ANGLES:
                z = r * cmath.exp(1j * angle)
                assert on_circle(z) == fam.log_value_complex(z), (r, angle)

    def test_order_guard(self):
        fam = C.make_family(C.parse_family("P"), trunc=8)
        assert fam.log_value_complex(0j) == 0
        for z in (1.0, cmath.rect(1.5, 0.2), complex(math.nan, 0.0), cmath.rect(1 - 1e-7, 0.3)):
            with pytest.raises(TruncationTooLarge):
                fam.log_value_complex(z)
            with pytest.raises(TruncationTooLarge):
                fam.log_value_circle(abs(z))


# -- the Euler transform against the per-part product loops it replaced -------------


def _loop_product_expansion(parts_mult, n_max):
    """Coefficients of prod (1 - z^p)^(-c) for the listed (p, c) pairs: one
    pass per part, and a binomial series for c > 1."""
    out = [0] * (n_max + 1)
    out[0] = 1
    for p, c in parts_mult:
        if p > n_max or c == 0:
            continue
        if c == 1:
            for n in range(p, n_max + 1):
                out[n] += out[n - p]
        else:
            # multiply by sum_m C(m+c-1, m) z^{pm}
            old = out[:]
            for n in range(p, n_max + 1):
                acc = 0
                binom = c  # C(m+c-1, m) for m = 1
                m = 1
                while p * m <= n:
                    acc += binom * old[n - p * m]
                    binom = binom * (c + m) // (m + 1)
                    m += 1
                out[n] = old[n] + acc
    return out


def _loop_distinct_expansion(n_max):
    """Coefficients of prod (1 + z^j)."""
    out = [0] * (n_max + 1)
    out[0] = 1
    for p in range(1, n_max + 1):
        for n in range(n_max, p - 1, -1):
            out[n] += out[n - p]
    return out


def _loop_coeffs(text, n_max):
    """The product loops' coefficients of a partition product, with the part
    lists written out per variant."""
    spec = C.parse_family(text)
    if spec.variant == "Q":
        return _loop_distinct_expansion(n_max)
    if spec.variant == "P":
        parts = [(p, 1) for p in range(1, n_max + 1)]
    elif spec.variant == "Pab":
        parts = [(p, 1) for p in range(spec.b, n_max + 1, spec.a)]
    else:
        parts = [(j * spec.a, j**spec.b) for j in range(1, n_max // spec.a + 1)]
    return _loop_product_expansion(parts, n_max)


EULER_SPECS = sorted(SHAPES) + ["Pab:3,2", "Pab:2,3", "Wab:1,3"]


class TestEulerTransform:
    """Q, Pab and Wab by n a_n = sum_k s_k a_{n-k} over the one divisor sieve."""

    @pytest.mark.parametrize("text", EULER_SPECS)
    @pytest.mark.parametrize("n_max", [0, 1, 2, 97, 300])
    def test_exact_coeffs_equal_the_product_loops(self, text, n_max):
        got = C.exact_coeffs(C.parse_family(text), n_max)
        assert got.coeffs == tuple(Fraction(v) for v in _loop_coeffs(text, n_max))

    def test_plane_partitions_to_500(self):
        got = C.exact_coeffs(C.parse_family("Wab:1,1"), 500)
        assert got.coeffs == tuple(Fraction(v) for v in _loop_coeffs("Wab:1,1", 500))

    def test_pairs_in_any_order(self):
        # parts above n_max and zero multiplicities add nothing, as in the loops
        pairs = [(5, 2), (1, 1), (500, 3), (2, 0), (3, 4)]
        assert C.product_expansion(pairs, 40) == _loop_product_expansion(pairs, 40)

    @pytest.mark.parametrize("text", sorted(SHAPES))
    def test_shape_of_each_spec(self, text):
        assert C._parts_shape(C.parse_family(text)) == SHAPES[text]

    @pytest.mark.parametrize("variant", ["Pab", "Wab"])
    def test_support_gcd_of_the_shape(self, variant):
        # Pab:a,b has parts b, b + a, ...; Wab:a,b the multiples of a
        for a in range(1, 5):
            for b in range(1 if variant == "Pab" else 0, 5):
                fam = C.make_family(C.parse_family(f"{variant}:{a},{b}"), 8)
                assert fam.q_gcd == (math.gcd(a, b) if variant == "Pab" else a), (a, b)
