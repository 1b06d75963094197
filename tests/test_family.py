"""Khinchin-family operations against closed forms and direct mass sums."""

import cmath
import dataclasses
import math

import pytest

from khinfam import catalog
from khinfam import family as F
from khinfam import series as S
from khinfam.catalog import exact_coeffs, make_family, parse_family
from khinfam.errors import (
    ComplexEvalUnavailable,
    NoCoefficientAccess,
    NotEntire,
    RadiusOutOfRange,
    TruncationTooLarge,
    ZeroMean,
)


@pytest.fixture(scope="module")
def fams():
    return {
        "exp": make_family(parse_family("exp"), trunc=256),
        "bern": make_family(parse_family("bernoulli"), trunc=8),
        "binom5": make_family(parse_family("binom:5"), trunc=8),
        "geom": make_family(parse_family("geom"), trunc=512),
        "bell": make_family(parse_family("bell"), trunc=128),
        "P": make_family(parse_family("P"), trunc=256),
    }


class TestMass:
    def test_poisson_mass(self, fams):
        want = math.exp(-2) * 2**3 / 6
        assert abs(F.mass(fams["exp"], 2.0, 3) - want) < 1e-14

    def test_bernoulli_half(self, fams):
        assert abs(F.mass(fams["bern"], 1.0, 1) - 0.5) < 1e-14

    def test_partition_mass_against_coefficient_sum(self, fams):
        # P(1/2) from the raw coefficients is an independent check of the
        # closed product evaluation inside the family
        p = exact_coeffs(parse_family("P"), 256)
        f_half = math.fsum(float(c) * 0.5**n for n, c in enumerate(p.coeffs))
        want = 3 * 0.125 / f_half
        assert abs(F.mass(fams["P"], 0.5, 3) - want) < 1e-12

    def test_degenerate_origin(self, fams):
        assert F.mass(fams["exp"], 0.0, 0) == 1.0
        assert F.mass(fams["exp"], 0.0, 3) == 0.0

    def test_requires_coefficients(self):
        fam = make_family(parse_family("exp"), trunc=8)
        import dataclasses

        bare = dataclasses.replace(fam, coeffs=None)
        with pytest.raises(NoCoefficientAccess):
            F.mass(bare, 1.0, 0)

    def test_total_with_tail_bound(self, fams):
        total, tail = F.mass_total(fams["P"], 0.5)
        assert total <= 1.0 + 1e-12
        assert total + tail >= 1.0 - 1e-9

    def test_radius_check(self, fams):
        with pytest.raises(RadiusOutOfRange):
            F.mass(fams["geom"], 1.5, 0)


class TestMeanVariance:
    def test_poisson(self, fams):
        assert abs(fams["exp"].mean(5.0) - 5.0) < 1e-14
        assert abs(fams["exp"].variance(5.0) - 5.0) < 1e-14

    def test_bell(self, fams):
        assert abs(fams["bell"].mean(2.0) - 2 * math.exp(2)) < 1e-12
        assert abs(fams["bell"].variance(2.0) - 6 * math.exp(2)) < 1e-11

    def test_geometric(self, fams):
        assert abs(fams["geom"].mean(0.5) - 1.0) < 1e-14
        assert abs(fams["geom"].variance(0.5) - 2.0) < 1e-14

    def test_small_radius_linear_law(self, fams):
        # m_f(t) * a0 / (a1 t) -> 1 as t drops to 0
        for name in ("exp", "geom", "P", "bell"):
            fam = fams[name]
            t = 1e-5
            assert abs(fam.mean(t) / t - 1.0) < 1e-3  # all four have a1/a0 = 1


class TestMoments:
    def test_poisson_third_moment_is_bell(self, fams):
        assert abs(F.moment(fams["exp"], 1.0, 3) - 5.0) < 1e-10

    def test_geometric_half_third_moment_is_ordered_bell(self, fams):
        assert abs(F.moment(fams["geom"], 0.5, 3) - 13.0) < 1e-9

    def test_first_moment_is_mean(self, fams):
        for fam in fams.values():
            t = min(1.0, fam.radius / 2)
            assert F.moment(fam, t * 0.5, 1) == fam.mean(t * 0.5)

    def test_jensen_monotonicity(self, fams):
        for name in ("exp", "geom", "P"):
            fam = fams[name]
            t = 0.4 if math.isfinite(fam.radius) else 2.0
            vals = [F.moment(fam, t, k) ** (1.0 / k) for k in (1, 2, 3, 4)]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-9

    def test_moments_match_direct_sums(self, fams):
        for name, t in (("exp", 2.0), ("geom", 0.4), ("bell", 1.2), ("P", 0.4)):
            fam = fams[name]
            for k in (1, 2, 3, 4):
                direct = F._direct_weighted_sum(fam, t, lambda x: x**k)
                assert abs(F.moment(fam, t, k) - direct) <= 1e-8 * max(1.0, direct)

    def test_high_order_falls_back_to_coefficients(self, fams):
        direct = F._direct_weighted_sum(fams["exp"], 1.0, lambda x: x**5)
        assert abs(F.moment(fams["exp"], 1.0, 5) - direct) < 1e-12

    def test_high_order_without_coefficients_rejected(self, fams):
        import dataclasses

        from khinfam.errors import DerivativeOrderUnavailable

        bare = dataclasses.replace(fams["exp"], coeffs=None)
        with pytest.raises(DerivativeOrderUnavailable):
            F.moment(bare, 1.0, 5)


class TestFactorialMoments:
    def test_poisson_powers(self, fams):
        for j, t in ((1, 0.7), (2, 1.3), (3, 2.0), (4, 0.9)):
            assert abs(F.factorial_moment(fams["exp"], t, j) - t**j) < 1e-9 * max(1, t**j)

    def test_binomial_mean(self, fams):
        t = 0.8
        want = 5 * t / (1 + t)
        assert abs(F.factorial_moment(fams["binom5"], t, 1) - want) < 1e-12

    def test_partition_against_direct_sum(self, fams):
        direct = F._direct_weighted_sum(fams["P"], 0.5, lambda n: n * (n - 1))
        assert abs(F.factorial_moment(fams["P"], 0.5, 2) - direct) <= 1e-8 * direct


class TestCentralMoments:
    def test_first_vanishes(self, fams):
        assert F.central_moment(fams["exp"], 1.5, 1) == 0.0

    def test_second_is_variance(self, fams):
        for name in ("exp", "geom", "bell"):
            fam = fams[name]
            t = 0.5
            assert abs(F.central_moment(fam, t, 2) - fam.variance(t)) <= 1e-9

    def test_poisson_fourth_central_moment(self, fams):
        # direct mass-weighted oracle gives lambda + 3 lambda^2 = 4 at t = 1
        direct = F._direct_weighted_sum(fams["exp"], 1.0, lambda n: (n - 1.0) ** 4)
        assert abs(direct - 4.0) < 1e-10
        assert abs(F.central_moment(fams["exp"], 1.0, 4) - direct) < 1e-8


class TestCharacteristicFunction:
    def test_bernoulli_closed_form(self, fams):
        t, theta = 1.0, 0.8
        want = (1 + t * cmath.exp(1j * theta)) / (1 + t)
        assert abs(F.charfn(fams["bern"], t, theta) - want) < 1e-13

    def test_poisson_closed_form(self, fams):
        t, theta = 3.0, 1.1
        want = cmath.exp(t * (cmath.exp(1j * theta) - 1))
        assert abs(F.charfn(fams["exp"], t, theta) - want) < 1e-12

    def test_unit_value_at_zero(self, fams):
        for fam in fams.values():
            t = 0.5 if math.isfinite(fam.radius) else 2.0
            assert abs(F.charfn(fam, t, 0.0) - 1.0) < 1e-14

    def test_modulus_bounded_by_one(self, fams):
        for fam in fams.values():
            t = 0.6 if math.isfinite(fam.radius) else 4.0
            for theta in (0.1, 0.9, 2.2, 3.14):
                assert abs(F.charfn(fam, t, theta)) <= 1.0 + 1e-12

    def test_normalized_poisson_identity(self, fams):
        t, theta = 100.0, 1.0
        want = cmath.exp(t * (cmath.exp(1j * theta / math.sqrt(t)) - 1 - 1j * theta / math.sqrt(t)))
        assert abs(F.normalized_charfn(fams["exp"], t, theta) - want) < 1e-12

    def test_normalized_geometric_against_series_sum(self, fams):
        t, theta = 0.9, 0.5
        fam = fams["geom"]
        m, sg = fam.mean(t), math.sqrt(fam.variance(t))
        direct = sum(
            cmath.exp(1j * theta * (n - m) / sg) * (t**n * (1 - t)) for n in range(4000)
        )
        assert abs(F.normalized_charfn(fam, t, theta) - direct) < 1e-10

    def test_normalized_first_two_moments(self, fams):
        for name in ("exp", "geom", "P"):
            fam = fams[name]
            t = 0.5 if math.isfinite(fam.radius) else 3.0
            m, var = fam.mean(t), fam.variance(t)
            z1 = F._direct_weighted_sum(fam, t, lambda n: (n - m) / math.sqrt(var))
            z2 = F._direct_weighted_sum(fam, t, lambda n: (n - m) ** 2 / var)
            assert abs(z1) < 1e-8
            assert abs(z2 - 1.0) < 1e-8

    def test_complex_eval_unavailable(self, fams):
        import dataclasses

        bare = dataclasses.replace(fams["exp"], log_value_complex=None)
        with pytest.raises(ComplexEvalUnavailable):
            F.charfn(bare, 1.0, 0.5)


class TestFulcrum:
    def test_exponential_all_derivatives_equal(self, fams):
        d = F.fulcrum_derivs(fams["exp"], 0.7, 4)
        for v in d:
            assert abs(v - math.exp(0.7)) < 1e-9

    def test_bell_second_derivative_at_origin(self, fams):
        d = F.fulcrum_derivs(fams["bell"], 0.0, 2)
        assert abs(d[1] - 2 * math.e) < 1e-10

    def test_partition_growth_law(self, fams):
        # second fulcrum derivative ~ 2 zeta(2) / s^3 near the radius;
        # ratio frozen from the divisor-sum evaluation: 0.99848 at s = 0.01
        s = -0.01
        d = F.fulcrum_derivs(fams["P"], s, 2)
        ratio = d[1] / (2 * (math.pi**2 / 6) / 0.01**3)
        assert abs(ratio - 0.99848) < 2e-3

    def test_finite_difference_fallback_matches_closed_form(self, fams):
        import dataclasses

        fam = fams["bell"]
        bare = dataclasses.replace(fam, fulcrum34=None)
        s = 0.3
        closed = F.fulcrum_derivs(fam, s, 4)
        fd = F.fulcrum_derivs(bare, s, 4)
        assert abs(fd[2] - closed[2]) < 1e-5 * abs(closed[2])
        assert abs(fd[3] - closed[3]) < 1e-3 * abs(closed[3])


class TestMgf:
    def test_poisson_value(self, fams):
        want = math.exp(math.e - 1)
        assert abs(F.mgf(fams["exp"], 1.0, 1.0) - want) < 1e-12

    def test_zero_argument(self, fams):
        assert F.mgf(fams["P"], 0.5, 0.0) == 1.0

    def test_geometric_closed_form(self, fams):
        assert abs(F.mgf(fams["geom"], 0.5, math.log(1.5)) - 2.0) < 1e-12

    def test_radius_guard(self, fams):
        with pytest.raises(RadiusOutOfRange):
            F.mgf(fams["geom"], 0.5, math.log(2.1))


class TestChernoff:
    def test_exponential_sigma_constant(self, fams):
        got = F.chernoff_sigma(fams["exp"], 1.0, 1.0)
        assert abs(got - 2 * (math.e - 1)) < 1e-6

    def test_zero_deviation_caps_at_one(self, fams):
        assert F.chernoff_bound(fams["exp"], 1.0, 0.0, 1.0) == 1.0

    def test_bound_dominates_partition_tail(self, fams):
        fam = fams["P"]
        t, lam = 0.5, 0.3
        m = fam.mean(t)
        for y in (2.0, 5.0, 8.0):
            bound = F.chernoff_bound(fam, t, y, lam)
            tail = F._direct_weighted_sum(fam, t, lambda n: 1.0 if abs(n - m) > y else 0.0)
            assert tail <= bound + 1e-12


class TestDiagnostics:
    def test_clan_ratio_poisson(self, fams):
        assert abs(F.clan_ratio(fams["exp"], 100.0) - 0.1) < 1e-12

    def test_clan_ratio_geometric_tends_to_one(self, fams):
        vals = [F.clan_ratio(fams["geom"], t) for t in (0.9, 0.99, 0.999)]
        for v, t in zip(vals, (0.9, 0.99, 0.999)):
            assert abs(v - 1 / math.sqrt(t)) < 1e-9
        assert abs(vals[-1] - 1.0) < 2e-3

    def test_clan_ratio_partition_law(self, fams):
        t = 0.99
        s = -math.log(t)
        want = math.sqrt(2 * s / (math.pi**2 / 6))
        assert abs(F.clan_ratio(fams["P"], t) / want - 1.0) < 0.05

    def test_zero_mean_rejected(self, fams):
        import dataclasses

        degenerate = dataclasses.replace(fams["exp"], mean=lambda t: 0.0)
        with pytest.raises(ZeroMean):
            F.clan_ratio(degenerate, 1.0)

    def test_gap_stats(self, fams):
        gs = F.gap_stats(fams["exp"])
        assert gs.window_gap == 1 and gs.q_gcd == 1 and not gs.provisional

    def test_gap_even_support(self):
        fam = make_family(parse_family("expof:poly:0,0,1"), trunc=64)
        gs = F.gap_stats(fam)
        assert gs.q_gcd == 2
        assert gs.window_gap == 2

    def test_gap_sparse_window(self):
        coeffs = [0] * 65
        coeffs[0] = 1
        for k in range(7):
            coeffs[2**k] = 1
        fam = F.family_from_coeffs(S.CoeffSeries.from_list(coeffs))
        gs = F.gap_stats(fam)
        assert gs.window_gap == 32

    def test_zero_free_halfwidth(self, fams):
        assert abs(F.zero_free_halfwidth(fams["exp"], 4.0) - math.pi / 4) < 1e-12
        assert abs(F.zero_free_halfwidth(fams["bern"], 1.0) - math.pi) < 1e-12
        F.zero_free_halfwidth(fams["P"], 0.9)  # grid check must not trip

    @pytest.mark.parametrize("name,t", [("P", 0.9), ("exp", 4.0), ("geom", 0.5)])
    def test_zero_free_halfwidth_reads_ln_f_once(self, fams, name, t):
        calls = []

        def log_value(u):
            calls.append(u)
            return fams[name].log_value(u)

        recording = dataclasses.replace(fams[name], log_value=log_value)
        assert F.zero_free_halfwidth(recording, t) == F.zero_free_halfwidth(fams[name], t)
        assert calls == [t]

    def test_max_term_exponential(self, fams):
        idx, val = F.max_term(fams["exp"], 10.0)
        assert idx in (9, 10)
        # Chebyshev-argument bound: the max term times (1 + sigma) dominates H f(t)
        sigma = math.sqrt(fams["exp"].variance(10.0))
        lhs = math.exp(fams["exp"].log_value(10.0))
        rhs = (1.0 / F.MAX_TERM_H) * val.to_float() * (1.0 + sigma)
        assert lhs <= rhs
        # magnitude law e^t / sqrt(t) up to bounded factors
        assert 0.2 < val.to_float() / (math.exp(10.0) / math.sqrt(10.0)) < 1.0

    def test_max_term_linear(self, fams):
        idx, val = F.max_term(fams["bern"], 2.0)
        assert idx == 1 and abs(val.to_float() - 2.0) < 1e-12

    def test_max_term_partition_matches_scan(self, fams):
        fam = fams["P"]
        idx, _ = F.max_term(fam, 0.5)
        brute = max(
            range(fam.coeffs.order + 1),
            key=lambda n: float(fam.coeffs.coeff(n)) * 0.5**n,
        )
        assert idx == brute

    def test_estimate_order(self, fams):
        est = F.estimate_order(fams["exp"], [10.0, 1e3, 1e6])
        assert 0.95 <= est <= 1.05
        poly = make_family(parse_family("poly:1,1,1,1"), trunc=8)
        assert F.estimate_order(poly, [1e3, 1e6]) < 0.2
        sq = make_family(parse_family("expof:poly:0,0,1"), trunc=32)
        assert 2.0 <= F.estimate_order(sq, [1e4, 1e5, 1e6]) <= 2.1

    def test_estimate_order_requires_entire(self, fams):
        with pytest.raises(NotEntire):
            F.estimate_order(fams["geom"], [10.0])


class TestEvalReal:
    def test_polynomial_derivatives_exact(self):
        fam = make_family(parse_family("poly:2,3,5"), trunc=8)
        f, d1, d2, d3 = F.eval_real(fam, 2.0)
        assert abs(f - (2 + 6 + 20)) < 1e-9
        assert abs(d1 - (3 + 20)) < 1e-9
        assert abs(d2 - 10.0) < 1e-8
        assert abs(d3 - 0.0) < 1e-6

    def test_exponential_derivatives(self, fams):
        f, d1, d2, d3 = F.eval_real(fams["exp"], 1.5)
        for v in (f, d1, d2, d3):
            assert abs(v - math.exp(1.5)) < 1e-6


class TestOperationsLaws:
    def test_product_law(self):
        g = exact_coeffs(parse_family("geom"), 256)
        p = exact_coeffs(parse_family("P"), 256)
        prod = F.family_from_coeffs(S.mul(g, p), radius=1.0)
        gf = make_family(parse_family("geom"), trunc=8)
        pf = make_family(parse_family("P"), trunc=8)
        t = 0.3
        assert abs(prod.mean(t) - (gf.mean(t) + pf.mean(t))) <= 1e-10 * (1 + prod.mean(t))
        assert abs(prod.variance(t) - (gf.variance(t) + pf.variance(t))) <= 1e-10 * (
            1 + prod.variance(t)
        )

    def test_power_substitution_law(self):
        g = exact_coeffs(parse_family("geom"), 100)
        lifted = S.CoeffSeries.from_list(
            [g.coeff(n // 3) if n % 3 == 0 else 0 for n in range(301)]
        )
        sub = F.family_from_coeffs(lifted, radius=1.0)
        gf = make_family(parse_family("geom"), trunc=8)
        t = 0.5
        assert abs(sub.mean(t) - 3 * gf.mean(t**3)) <= 1e-10 * (1 + sub.mean(t))
        assert abs(sub.variance(t) - 9 * gf.variance(t**3)) <= 1e-10 * (1 + sub.variance(t))


ALL_VARIANTS = ["exp", "bernoulli", "binom:4", "geom", "negbinom:3", "poly:1,1/2,3",
                "bell", "P", "Q", "Pab:2,1", "Wab:1,1", "expof:poly:0,0,1",
                "canprod:1,2,4", "setsoflists"]


class TestLazyOracle:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The (spec key, order) of every exact_coeffs call made from now on."""
        calls = []
        real = catalog.exact_coeffs

        def counting(spec, n_max):
            calls.append((spec.key(), n_max))
            return real(spec, n_max)

        monkeypatch.setattr(catalog, "exact_coeffs", counting)
        return calls

    @pytest.mark.parametrize("text", ALL_VARIANTS)
    def test_built_on_first_read_and_kept(self, builds, text):
        spec = parse_family(text)
        fam = make_family(spec, trunc=16)
        assert builds == []
        first = fam.coeffs
        assert builds == [(spec.key(), 16)]
        assert fam.coeffs is first
        assert len(builds) == 1
        assert first == exact_coeffs(spec, 16)

    def test_replace_neither_builds_nor_drops(self, builds):
        fam = make_family(parse_family("setsoflists"), trunc=16)
        hot = dataclasses.replace(fam, mean=lambda t: 1.0)
        assert builds == []
        assert hot.coeffs is fam.coeffs
        assert len(builds) == 1

    def test_replace_keeps_a_built_oracle(self, builds):
        fam = make_family(parse_family("P"), trunc=16)
        first = fam.coeffs
        assert dataclasses.replace(fam, name="P'").coeffs is first
        assert len(builds) == 1

    def test_replace_with_none_drops_the_oracle(self, builds):
        fam = make_family(parse_family("exp"), trunc=16)
        bare = dataclasses.replace(fam, coeffs=None)
        assert bare.coeffs is None
        assert dataclasses.replace(bare, mean=lambda t: t).coeffs is None
        assert builds == []

    def test_replace_with_a_series(self):
        fam = make_family(parse_family("exp"), trunc=16)
        series = S.CoeffSeries.from_list([1, 2, 3])
        assert dataclasses.replace(fam, coeffs=series).coeffs is series

    def test_truncation_checked_up_front(self):
        with pytest.raises(TruncationTooLarge):
            make_family(parse_family("exp"), trunc=catalog.MAX_TRUNC + 1)
        with pytest.raises(ValueError):
            make_family(parse_family("P"), trunc=-1)


class TestRadiusCheck:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_finite_and_non_positive(self, t):
        with pytest.raises(RadiusOutOfRange):
            make_family(parse_family("exp"), trunc=8).check_radius(t)
