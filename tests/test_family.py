"""Khinchin-family operations against closed forms and direct mass sums."""

import cmath
import dataclasses
import math
import re

import pytest

from khinfam import asym as A
from khinfam import catalog
from khinfam import family as F
from khinfam import series as S
from khinfam.catalog import exact_coeffs, make_family, parse_family
from khinfam.errors import (
    ComplexEvalUnavailable,
    NoCoefficientAccess,
    RadiusOutOfRange,
    TruncationTooLarge,
    ZeroInSector,
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


def normalized_charfn(fam, t, theta):
    """Characteristic function of (X_t - m) / sigma, from the one helper
    the Gaussianity diagnostics use."""
    return A._normalized_charfn(fam, t)[1](theta)


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

        bare = dataclasses.replace(fam, oracle=None)
        with pytest.raises(NoCoefficientAccess):
            F.mass(bare, 1.0, 0)

    def test_total_with_tail_bound(self, fams):
        total, tail = F.mass_total(fams["P"], 0.5)
        assert total <= 1.0 + 1e-12
        assert total + tail >= 1.0 - 1e-9

    def test_radius_check(self, fams):
        with pytest.raises(RadiusOutOfRange):
            F.mass(fams["geom"], 1.5, 0)

    def test_no_comparison_radius_between_t_and_r(self, fams):
        # t* = 2t overflows to inf; (t + 1) / 2 rounds to R = 1
        for name, t in (("exp", 1e308), ("geom", math.nextafter(1.0, 0.0))):
            with pytest.raises(RadiusOutOfRange, match=re.escape(f"t = {t} and R = ")):
                F.mass_total(fams[name], t)


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

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_one_evaluation_of_the_cumulants(self, fams, k):
        # moment(k) reads m, sigma^2 and (k > 2) F''', F'''' once each, and
        # equals the Stirling sum over factorial_moment bit for bit
        calls = []

        def counted(name):
            fn = getattr(fams["P"], name)

            def wrapped(x):
                calls.append(name)
                return fn(x)

            return wrapped

        names = ("log_value", "mean", "variance", "fulcrum34")
        fam = dataclasses.replace(fams["P"], **{n: counted(n) for n in names})
        got = F.moment(fam, 0.6, k)
        assert calls == ["mean", "variance"] + (["fulcrum34"] if k > 2 else [])
        assert got == math.fsum(F.stirling2(k, j) * F.factorial_moment(fams["P"], 0.6, j)
                                for j in range(1, k + 1))

    @pytest.mark.parametrize("stat,want", [
        (lambda fam, t: F.moment(fam, t, 1), ["mean"]),
        (lambda fam, t: F.factorial_moment(fam, t, 1), ["mean"]),
        (lambda fam, t: F.factorial_moment(fam, t, 2), ["mean", "variance"]),
        (lambda fam, t: F.central_moment(fam, t, 2), ["variance"]),
        (lambda fam, t: F.central_moment(fam, t, 3), ["fulcrum34"]),
        (lambda fam, t: F.central_moment(fam, t, 4), ["fulcrum34", "variance"]),
        (lambda fam, t: F.fulcrum_derivs(fam, math.log(t), 1), ["mean"]),
    ], ids=["moment1", "fmoment1", "fmoment2", "cmoment2", "cmoment3", "cmoment4", "fulcrum1"])
    def test_only_the_cumulants_read_are_evaluated(self, fams, stat, want):
        calls = []

        def counted(name):
            fn = getattr(fams["P"], name)

            def wrapped(x):
                calls.append(name)
                return fn(x)

            return wrapped

        names = ("log_value", "mean", "variance", "fulcrum34")
        fam = dataclasses.replace(fams["P"], **{n: counted(n) for n in names})
        got = stat(fam, 0.6)
        assert calls == want
        assert got == stat(fams["P"], 0.6)

    def test_third_and_fourth_central_moments_from_the_cumulants(self, fams):
        fam, t = fams["P"], 0.6
        k3, k4 = fam.fulcrum34(math.log(t))
        assert F.central_moment(fam, t, 3) == k3
        assert F.central_moment(fam, t, 4) == k4 + 3.0 * fam.variance(t) ** 2

    def test_high_order_falls_back_to_coefficients(self, fams):
        direct = F._direct_weighted_sum(fams["exp"], 1.0, lambda x: x**5)
        assert abs(F.moment(fams["exp"], 1.0, 5) - direct) < 1e-12

    def test_high_order_without_coefficients_rejected(self, fams):
        import dataclasses

        from khinfam.errors import DerivativeOrderUnavailable

        bare = dataclasses.replace(fams["exp"], oracle=None)
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
        assert abs(normalized_charfn(fams["exp"], t, theta) - want) < 1e-12

    def test_normalized_geometric_against_series_sum(self, fams):
        t, theta = 0.9, 0.5
        fam = fams["geom"]
        m, sg = fam.mean(t), math.sqrt(fam.variance(t))
        direct = sum(
            cmath.exp(1j * theta * (n - m) / sg) * (t**n * (1 - t)) for n in range(4000)
        )
        assert abs(normalized_charfn(fam, t, theta) - direct) < 1e-10

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


# -- the order of growth of an entire family, kept as an oracle on its mean ---------


class NotEntire(Exception):
    pass


def estimate_order(fam, t_grid):
    """Order-of-growth estimate max over the grid of ln m_f(t) / ln t."""
    if math.isfinite(fam.radius):
        raise NotEntire(f"{fam.name} has finite radius {fam.radius}")
    return max(math.log(fam.mean(t)) / math.log(t) for t in t_grid)


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
        est = estimate_order(fams["exp"], [10.0, 1e3, 1e6])
        assert 0.95 <= est <= 1.05
        poly = make_family(parse_family("poly:1,1,1,1"), trunc=8)
        assert estimate_order(poly, [1e3, 1e6]) < 0.2
        sq = make_family(parse_family("expof:poly:0,0,1"), trunc=32)
        assert 2.0 <= estimate_order(sq, [1e4, 1e5, 1e6]) <= 2.1

    def test_estimate_order_requires_entire(self, fams):
        with pytest.raises(NotEntire):
            estimate_order(fams["geom"], [10.0])


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
        assert fam.name == fam.spec_key == spec.key()
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
        bare = dataclasses.replace(fam, oracle=None)
        assert bare.coeffs is None
        assert dataclasses.replace(bare, mean=lambda t: t).coeffs is None
        assert builds == []

    def test_replace_with_a_series(self):
        fam = make_family(parse_family("exp"), trunc=16)
        series = S.CoeffSeries.from_list([1, 2, 3])
        assert dataclasses.replace(fam, oracle=lambda: series).coeffs is series

    def test_truncation_checked_up_front(self):
        with pytest.raises(TruncationTooLarge):
            make_family(parse_family("exp"), trunc=catalog.MAX_TRUNC + 1)
        with pytest.raises(ValueError):
            make_family(parse_family("P"), trunc=-1)


# float.hex of (ln f, mean, variance, F''', F'''', Re ln f, Im ln f): the
# first three at t, the fulcrum derivatives at s = ln t and ln f at z = t e^i.
# A change to how make_family assembles a family must not move a bit of them.
# The partition products' F''' and F'''' were re-taken when their inner sums
# became closed forms: P 0.41 F''' -2 ulps, P 0.77 F'''' -1, Q and Pab:2,1
# 0.41 F''' and F'''' -1 each, 0.77 F'''' +2, Wab:1,1 0.77 F''' -1.
CONSTRUCTION_PINS = {
    ("exp", 0.73): (
        "0x1.75c28f5c28f5cp-1", "0x1.75c28f5c28f5cp-1", "0x1.75c28f5c28f5cp-1",
        "0x1.75c28f5c28f5cp-1", "0x1.75c28f5c28f5cp-1",
        "0x1.93e303fe47514p-2", "0x1.3a821916034f5p-1"),
    ("exp", 4.1): (
        "0x1.0666666666666p+2", "0x1.0666666666666p+2", "0x1.0666666666666p+2",
        "0x1.0666666666666p+2", "0x1.0666666666666p+2",
        "0x1.1b8cf767ff382p+1", "0x1.b99a9df6946dap+1"),
    ("bernoulli", 0.73): (
        "0x1.18a35e8792b89p-1", "0x1.b017ad2208e0fp-2", "0x1.f38765025a2bfp-3",
        "0x1.37d8392380cd1p-5", "-0x1.cf06df0f95743p-4",
        "0x1.af443d0bfbc62p-2", "0x1.a8e73e304d14ep-2"),
    ("bernoulli", 4.1): (
        "0x1.a115e873757d3p+0", "0x1.9b9b9b9b9b9bap-1", "0x1.42d465f7891abp-3",
        "-0x1.8875a922e2e93p-4", "0x1.180256ab97b1ap-7",
        "0x1.8d0b849e7dd56p+0", "0x1.a426f500622bcp-1"),
    ("binom:4", 0.73): (
        "0x1.18a35e8792b89p+1", "0x1.b017ad2208e0fp+0", "0x1.f38765025a2bfp-1",
        "0x1.37d8392380cd1p-3", "-0x1.cf06df0f95743p-2",
        "0x1.af443d0bfbc62p+0", "0x1.a8e73e304d14ep+0"),
    ("binom:4", 4.1): (
        "0x1.a115e873757d3p+2", "0x1.9b9b9b9b9b9bap+1", "0x1.42d465f7891abp-1",
        "-0x1.8875a922e2e93p-2", "0x1.180256ab97b1ap-5",
        "0x1.8d0b849e7dd56p+2", "0x1.a426f500622bcp+1"),
    ("geom", 0.41): (
        "0x1.0e25e0f715ce6p-1", "0x1.63cbeea4e1a07p-1", "0x1.2d85c5e6d93e3p+0",
        "0x1.684b3cbf3bfe5p+1", "0x1.300b9bb2eb710p+3",
        "0x1.493a606fee2c8p-3", "0x1.ab2d89d6578a0p-2"),
    ("geom", 0.77): (
        "0x1.783caf331ec76p+0", "0x1.ac8590b21642dp+1", "0x1.d1c8d4ee18327p+3",
        "0x1.c0107eea9a0f2p+6", "0x1.4171c4d23d938p+10",
        "0x1.17e64e955ec30p-3", "0x1.acaf698368e9fp-1"),
    ("negbinom:3", 0.41): (
        "0x1.9538d172a0b59p+0", "0x1.0ad8f2fba9386p+1", "0x1.c448a8da45dd5p+1",
        "0x1.0e386d8f6cfecp+3", "0x1.c811698c61299p+4",
        "0x1.edd790a7e542cp-2", "0x1.40622760c1a78p+0"),
    ("negbinom:3", 0.77): (
        "0x1.1a2d836657158p+2", "0x1.41642c8590b22p+3", "0x1.5d569fb29225dp+5",
        "0x1.500c5f2ff38b6p+8", "0x1.e22aa73b5c5d3p+11",
        "0x1.a3d975e00e248p-2", "0x1.41838f228eaf7p+1"),
    ("poly:1,1/2,3", 0.73): (
        "0x1.1620d52df18bcp+0", "0x1.33b6fe2d6af66p+0", "0x1.ac0cbd326ef42p-1",
        "-0x1.40682acc59edbp-2", "-0x1.2c6df87cc224cp+0",
        "0x1.3809c07e9424dp-1", "0x1.4705a6266b3bbp+0"),
    ("poly:1,1/2,3", 4.1): (
        "0x1.fd59f4d84816cp+1", "0x1.ec9d021b30716p+0", "0x1.b7e021f423b80p-4",
        "-0x1.4e01490d589f5p-3", "0x1.ff8cba7fa57d9p-3",
        "0x1.f7bf771c464e7p+1", "0x1.f2d1e2600c5a1p+0"),
    ("bell", 0.73): (
        "0x1.13387b92862f9p+0", "0x1.83ca832af66f7p+0", "0x1.4f70740529a58p+1",
        "0x1.68ed45416d28ap+2", "0x1.d605e238f563fp+3",
        "0x1.b2d746ecf5f18p-3", "0x1.b5c95f1f1347dp-1"),
    ("bell", 4.1): (
        "0x1.dab8e8b42f3b6p+5", "0x1.eeca54ebe39cdp+7", "0x1.3b6dc956611a5p+10",
        "0x1.d19119fc5b5e7p+12", "0x1.818d4684ca468p+15",
        "-0x1.3765ad0d0d8e1p+3", "-0x1.64122f3b1750ap+1"),
    ("P", 0.41): (
        "0x1.a9b659cc0daccp-1", "0x1.8cd430964b0c9p+0", "0x1.00cf794c6f45ep+2",
        "0x1.c69fff9c3c145p+3", "0x1.05477a19125a8p+6",
        "0x1.da5a25529cc80p-8", "0x1.12d388fcadf58p-1"),
    ("P", 0.77): (
        "0x1.2c583d761c7a1p+2", "0x1.635615f81f456p+4", "0x1.61e2f442ea1dcp+7",
        "0x1.015fe5e930523p+11", "0x1.efb70caaca93ap+14",
        "-0x1.058ae13e0824ep-1", "0x1.d9079947f2a14p-1"),
    ("Q", 0.41): (
        "0x1.39e0670ebb6b4p-1", "0x1.fc642cbf2223cp-1", "0x1.29108e63b6ddcp+1",
        "0x1.f3c609f3df126p+2", "0x1.184496fbf2912p+5",
        "0x1.95fc47b022a47p-4", "0x1.aa7c7ef0922d0p-2"),
    ("Q", 0.77): (
        "0x1.67d33848d7b79p+1", "0x1.7ff1e0cab7624p+3", "0x1.70867da5478d5p+6",
        "0x1.086030c45b5d6p+10", "0x1.f9c2969ec1176p+13",
        "-0x1.22add7e842e84p-3", "0x1.735793f3612dep-1"),
    ("Pab:2,1", 0.41): (
        "0x1.39e0670ebb6b4p-1", "0x1.fc642cbf2223cp-1", "0x1.29108e63b6ddcp+1",
        "0x1.f3c609f3df126p+2", "0x1.184496fbf2912p+5",
        "0x1.95fc47b022a47p-4", "0x1.aa7c7ef0922d0p-2"),
    ("Pab:2,1", 0.77): (
        "0x1.67d33848d7b79p+1", "0x1.7ff1e0cab7624p+3", "0x1.70867da5478d5p+6",
        "0x1.086030c45b5d6p+10", "0x1.f9c2969ec1176p+13",
        "-0x1.22add7e842e84p-3", "0x1.735793f3612dep-1"),
    ("Wab:1,1", 0.41): (
        "0x1.563c962f15dfdp+0", "0x1.a648b2b8d8d70p+1", "0x1.69d6b6b51891ap+3",
        "0x1.97bd0d8324657p+5", "0x1.1e58e469c9c69p+8",
        "-0x1.bd64325a77f24p-3", "0x1.30fff72b22108p-1"),
    ("Wab:1,1", 0.77): (
        "0x1.151c5c517d3c8p+4", "0x1.0caad89547b20p+7", "0x1.82163c5a80e4dp+10",
        "0x1.7171e52fdc30bp+14", "0x1.b9cba2d043bd8p+18",
        "-0x1.24aebb96f2ab8p+0", "0x1.c3e9c608ed26cp-2"),
    ("expof:poly:0,0,1", 0.73): (
        "0x1.10d844d013a92p-1", "0x1.10d844d013a92p+0", "0x1.10d844d013a92p+1",
        "0x1.10d844d013a92p+2", "0x1.10d844d013a92p+3",
        "-0x1.c62c8b5da5186p-3", "0x1.f031b3c1d0b8dp-2"),
    ("expof:poly:0,0,1", 4.1): (
        "0x1.0cf5c28f5c28fp+4", "0x1.0cf5c28f5c28fp+5", "0x1.0cf5c28f5c28fp+6",
        "0x1.0cf5c28f5c28fp+7", "0x1.0cf5c28f5c28fp+8",
        "-0x1.bfb518fe82659p+2", "0x1.e92117f58cceap+3"),
    ("canprod:1,2,4", 0.73): (
        "0x1.06e35b28552efp+0", "0x1.aff94416231e7p-1", "0x1.2401508ff42a9p-1",
        "0x1.c16350c62d5cfp-3", "-0x1.e7cb48413d8a0p-4",
        "0x1.7935f14e4b82fp-1", "0x1.9c2368186bd6ap-1"),
    ("canprod:1,2,4", 4.1): (
        "0x1.b99805874347ap+1", "0x1.fb73224eeaf94p+0", "0x1.41848e3df745cp-1",
        "-0x1.65ec10b8bf9e3p-3", "-0x1.7fc51881a904cp-3",
        "0x1.905f1af2db48cp+1", "0x1.01b24e03d2a99p+1"),
    ("setsoflists", 0.41): (
        "0x1.63cbeea4e1a07p-1", "0x1.2d85c5e6d93e3p+0", "0x1.684b3cbf3bfe5p+1",
        "0x1.300b9bb2eb710p+3", "0x1.54ca40d39abc5p+5",
        "0x1.2dce2019e265ap-4", "0x1.e7408b05aa5eap-2"),
    ("setsoflists", 0.77): (
        "0x1.ac8590b21642dp+1", "0x1.d1c8d4ee18327p+3", "0x1.c0107eea9a0f2p+6",
        "0x1.4171c4d23d938p+10", "0x1.33771d888b111p+14",
        "-0x1.dc1680ac5cd53p-3", "0x1.b405f4bcb85abp-1"),
}


@pytest.mark.parametrize("text,t", list(CONSTRUCTION_PINS))
def test_evaluators_pinned_bit_for_bit(text, t):
    fam = make_family(parse_family(text), trunc=16)
    c = fam.log_value_complex(cmath.rect(t, 1.0))
    got = (fam.log_value(t), fam.mean(t), fam.variance(t),
           *fam.fulcrum34(math.log(t)), c.real, c.imag)
    assert tuple(x.hex() for x in got) == CONSTRUCTION_PINS[text, t]


class TestRadiusCheck:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_finite_and_non_positive(self, t):
        with pytest.raises(RadiusOutOfRange):
            make_family(parse_family("exp"), trunc=8).check_radius(t)

    # each pointwise statistic checks t before it evaluates anything: on geom
    # (radius 1) at t = 2 the closed-form evaluators return a mean of -2.0
    # and a finite variance, which no statistic may pass on as a value
    STATS = {
        "moment1": lambda fam, t: F.moment(fam, t, 1),
        "moment2": lambda fam, t: F.moment(fam, t, 2),
        "fmoment0": lambda fam, t: F.factorial_moment(fam, t, 0),
        "fmoment1": lambda fam, t: F.factorial_moment(fam, t, 1),
        "cmoment1": lambda fam, t: F.central_moment(fam, t, 1),
        "cmoment2": lambda fam, t: F.central_moment(fam, t, 2),
        "cmoment3": lambda fam, t: F.central_moment(fam, t, 3),
        "clan": F.clan_ratio,
        "ncharfn": lambda fam, t: normalized_charfn(fam, t, 0.5),
        "sgauss": A.strong_gaussian_integral,
        "cuts": lambda fam, t: A.cut_diagnostics(fam, t, 1.0),
        "gratio": A.gaussianity_ratio,
        "cltsup": A.local_clt_sup,
    }

    @pytest.mark.parametrize("t", [2.0, -1.0])
    @pytest.mark.parametrize("stat", sorted(STATS))
    def test_statistics_check_the_radius_first(self, fams, stat, t):
        with pytest.raises(RadiusOutOfRange):
            self.STATS[stat](fams["geom"], t)


def _planted(fam, t, log_at_zero):
    """fam with ln f replaced by ln(f(z) (z - z0)), z0 the first point that
    ``zero_free_halfwidth`` checks at t, and ``log_at_zero`` giving ln f at z0.
    The circle evaluator is dropped, so the check reads ``log_value_complex``."""
    hw = math.pi / (2.0 * math.sqrt(fam.variance(t)))
    z0 = t * cmath.exp(1j * (0.5 / 256 * min(hw, math.pi)))

    def log_value_complex(z):
        if z == z0:
            return log_at_zero(fam.log_value_complex(z), z - z0)
        return fam.log_value_complex(z) + cmath.log(z - z0)

    return dataclasses.replace(fam, log_value_complex=log_value_complex, log_value_circle=None)


class TestZeroInSector:
    @pytest.mark.parametrize("log_at_zero", [
        lambda w, d: w + cmath.log(d),  # cmath.log(0) raises ValueError
        lambda w, d: w - cmath.log(1 / d),  # 1 / 0j raises ZeroDivisionError
        lambda w, d: complex(-math.inf, 0.0),  # ln 0 reported as -inf
        lambda w, d: complex(-math.inf, math.nan),
        lambda w, d: w - 1e4,  # |f(z0) / f(t)| below the float range
    ], ids=["log-raises", "division-by-zero", "minus-inf", "minus-inf-nan", "underflow"])
    @pytest.mark.parametrize("name,t", [("exp", 1.0), ("P", 0.5)])
    def test_planted_zero_raises(self, fams, name, t, log_at_zero):
        fam = _planted(fams[name], t, log_at_zero)
        with pytest.raises(ZeroInSector, match="vanishes at"):
            F.zero_free_halfwidth(fam, t)

    def test_planted_zero_outside_the_sector_passes(self, fams):
        # the same f with its zero moved to the negative axis, far outside
        fam = dataclasses.replace(
            fams["exp"], log_value_circle=None,
            log_value_complex=lambda z: z + cmath.log(z + 1.0),
        )
        F.zero_free_halfwidth(fam, 1.0)

    def test_criterion_11_families_raise_nothing(self):
        radii = {"exp": (0.5, 2.0), "geom": (0.2, 0.5), "bell": (0.5, 1.5),
                 "P": (0.3, 0.5), "Q": (0.3, 0.5)}
        for name, ts in radii.items():
            fam = make_family(parse_family(name), trunc=256)
            for t in ts:
                assert F.zero_free_halfwidth(fam, t) == math.pi / (2.0 * math.sqrt(fam.variance(t)))
