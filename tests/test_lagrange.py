"""Lagrange solutions, tree asymptotics and progeny distributions."""

import cmath
import dataclasses
import math
from fractions import Fraction

import pytest

from khinfam import family as F
from khinfam import lagrange as L
from khinfam import series as S
from khinfam.catalog import exact_coeffs, make_family, parse_family
from khinfam.errors import (
    IndexBelowJ,
    MeanSupBelowOne,
    ParameterDomain,
    QGcdViolation,
    RadiusOutOfRange,
    SupercriticalSpec,
    WindowTooNarrow,
)
from khinfam.numerics import LogNumber


@pytest.fixture(scope="module")
def expf():
    return make_family(parse_family("exp"), trunc=128)


@pytest.fixture(scope="module")
def geom():
    return make_family(parse_family("geom"), trunc=128)


class TestApex:
    def test_exponential(self, expf):
        ap = L.apex(expf)
        assert ap.kind == "interior"
        assert abs(ap.tau - 1.0) < 1e-9
        assert abs(ap.sigma2 - 1.0) < 1e-9

    def test_geometric(self, geom):
        ap = L.apex(geom)
        assert abs(ap.tau - 0.5) < 1e-9

    def test_affine_case_is_closed_form(self):
        fam = make_family(parse_family("poly:1,1"), trunc=8)
        ap = L.apex(fam)
        assert ap.kind == "linear"
        assert ap.linear_a == 1 and ap.linear_b == 1

    def test_subcritical_rejected(self):
        fam = make_family(parse_family("poly:3,1"), trunc=8)  # mean limit 1 but a+bz ok
        assert L.apex(fam).kind == "linear"
        sub = dataclasses.replace(fam, mean_sup=0.5)
        with pytest.raises(MeanSupBelowOne):
            L.apex(sub)


class TestExtendedCoeff:
    def test_identity_reduces_to_inversion(self, expf):
        psi = expf.coeffs.truncate(32)
        ident = S.CoeffSeries.from_list([0, 1], order=32)
        g = S.lagrange_invert(psi, 16)
        for n in range(1, 17):
            assert L.extended_coeff(ident, psi, n) == g.coeff(n)

    def test_square_of_tree_series(self):
        psi = exact_coeffs(parse_family("exp"), 16)
        h = S.CoeffSeries.from_list([0, 0, 1], order=16)
        assert L.extended_coeff(h, psi, 4) == 4

    def test_affine_data(self):
        psi = exact_coeffs(parse_family("poly:1,1"), 16)
        ident = S.CoeffSeries.from_list([0, 1], order=16)
        assert L.extended_coeff(ident, psi, 5) == 1

    def test_matches_series_composition(self):
        psi = exact_coeffs(parse_family("geom"), 24)
        g = S.lagrange_invert(psi, 24)
        h = S.CoeffSeries.from_list([0, 0, 1], order=24)
        comp = S.mul(g, g)
        for n in range(1, 25):
            assert L.extended_coeff(h, psi, n) == comp.coeff(n)


class TestOtterMeirMoon:
    def test_cayley_ratios(self, expf):
        for n in (5, 20, 100):
            est = L.omm_estimate(expf, n)
            exact = LogNumber.from_log((n - 1) * math.log(n) - math.lgamma(n + 1))
            assert abs(exact.ratio(est.value) - 1.0) <= 1.0 / (4 * n)

    def test_geometric_band(self, geom):
        a40 = S.lagrange_invert(exact_coeffs(parse_family("geom"), 64), 40).coeff(40)
        est = L.omm_estimate(geom, 40)
        r = LogNumber.from_fraction(a40).ratio(est.value)
        assert 1.0 <= r <= 1.02  # frozen: 1.0095

    def test_even_support_refuses_even_index(self):
        fam = make_family(parse_family("expof:poly:0,0,1"), trunc=64)
        with pytest.raises(QGcdViolation):
            L.omm_estimate(fam, 4)
        est = L.omm_estimate(fam, 5)  # 5 - 1 is a multiple of 2
        assert est.value.sign == 1

    def test_affine_case_exact(self):
        fam = make_family(parse_family("poly:1,2"), trunc=8)
        est = L.omm_estimate(fam, 6)
        assert est.method == "omm-linear-exact"
        assert abs(est.value.to_float() - 1 * 2**5) < 1e-9

    def test_subcritical_decay_certificate(self):
        # offspring 1 + sum z^n/n^4 has mean limit below one at the radius;
        # the certificate's scaled sequence A_n R^(n-1) psi(R)^(-n) n^(3/2)
        # must vanish along n
        from khinfam.numerics import zeta_real

        coeffs = S.CoeffSeries.from_list(
            [1] + [Fraction(1, n**4) for n in range(1, 65)]
        )
        base = F.family_from_coeffs(coeffs, radius=1.0)
        f_r = 1.0 + zeta_real(4.0)
        mean_sup = zeta_real(3.0) / f_r
        bvar = zeta_real(2.0) / f_r - mean_sup**2
        fam = dataclasses.replace(base, mean_sup=mean_sup, boundary_variance=bvar)
        cert = L.omm_estimate(fam, 10)
        assert isinstance(cert, L.DecayCertificate)
        a = S.lagrange_invert(coeffs, 48)
        ln_scaled = [LogNumber.from_fraction(a.coeff(n)).log_abs + (n - 1) * math.log(cert.radius)
                     - n * cert.log_psi_at_radius + 1.5 * math.log(n) for n in (8, 16, 32, 48)]
        assert all(x > y for x, y in zip(ln_scaled, ln_scaled[1:]))

    def test_radius_of_solution(self, geom):
        # |A_n|^{1/n} climbs to psi(tau)/tau = 4; within five percent only
        # once n clears the polynomial prefactor (frozen: 2.2% at n = 512)
        for n in (384, 448, 512):
            a_n = Fraction(math.comb(2 * n - 2, n - 1), n)
            root = math.exp(LogNumber.from_fraction(a_n).log_abs / n)
            assert abs(root / 4.0 - 1.0) < 0.05
        small = S.lagrange_invert(exact_coeffs(parse_family("geom"), 64), 64)
        roots = [
            math.exp(LogNumber.from_fraction(small.coeff(n)).log_abs / n)
            for n in (32, 48, 64)
        ]
        assert roots[0] < roots[1] < roots[2] < 4.0


class TestPowerAsym:
    def test_q_one_reduces_to_omm(self, expf):
        a = L.power_asym(expf, 1, 50)
        b = L.omm_estimate(expf, 50)
        assert abs(a.value.log_abs - b.value.log_abs) < 1e-12

    def test_exponential_q_two(self, expf):
        est = L.power_asym(expf, 2, 20)
        exact = LogNumber.from_fraction(Fraction(2, 20) * Fraction(20**18, math.factorial(18)))
        r = est.value.ratio(exact)
        assert 1.0 <= r <= 1.1  # frozen: 1.0570

    def test_alpha_zero_matches_fixed_q(self, expf):
        a = L.power_asym(expf, 3, 40)
        b = L.power_asym(expf, 3, 40, alpha=0.0, beta=0.0)
        assert abs(a.value.log_abs - b.value.log_abs) < 1e-9

    def test_alpha_domain(self, expf):
        with pytest.raises(ParameterDomain):
            L.power_asym(expf, 2, 10, alpha=1.0, beta=0.0)

    def test_index_below_the_power_refused(self, expf):
        # [z^3] g^5 = 0: a forest of 5 trees has at least 5 nodes
        with pytest.raises(IndexBelowJ):
            L.power_asym(expf, 5, 3)
        assert L.power_asym(expf, 5, 5).value.sign == 1

    def test_support_gcd(self):
        # psi = 1 + z^2 has support gcd 2: [z^n] g^2 = (2/n) [z^{n-2}] psi^n
        # is 0 for odd n, and the saddle estimate carries the factor 2 at even n
        psi = make_family(parse_family("poly:1,0,1"), trunc=8)
        for alpha in (None, 0.0):
            with pytest.raises(QGcdViolation):
                L.power_asym(psi, 2, 31, alpha=alpha, beta=0.0)
        exact = LogNumber.from_fraction(Fraction(2, 30) * math.comb(30, 14))
        r = L.power_asym(psi, 2, 30).value.ratio(exact)
        assert 1.0 <= r <= 1.1  # 1.076; 0.538 without the gcd factor


class TestFuncAsym:
    def test_identity_outer_reduces_to_omm(self, expf):
        h_z = F.Family(
            name="z", radius=math.inf, mean_sup=1.0,
            log_value=math.log, mean=lambda t: 1.0, variance=lambda t: 0.0,
            fulcrum34=lambda s: (0.0, 0.0), log_value_circle=lambda t: cmath.log,
            oracle=F.Oracle(lambda n: S.CoeffSeries.from_list([0, 1]), 1),
        )
        a = L.func_asym(h_z, expf, 30)
        b = L.omm_estimate(expf, 30)
        assert abs(a.value.log_abs - b.value.log_abs) < 1e-9

    def test_square_outer_against_exact(self, expf):
        h_z2 = F.Family(
            name="z^2", radius=math.inf, mean_sup=2.0,
            log_value=lambda t: 2 * math.log(t), mean=lambda t: 2.0,
            variance=lambda t: 0.0, fulcrum34=lambda s: (0.0, 0.0),
            log_value_circle=lambda t: lambda z: 2 * cmath.log(z),
            oracle=F.Oracle(lambda n: S.CoeffSeries.from_list([0, 0, 1]), 2),
        )
        est = L.func_asym(h_z2, expf, 30)
        exact = LogNumber.from_fraction(
            L.extended_coeff(
                S.CoeffSeries.from_list([0, 0, 1], order=32),
                exact_coeffs(parse_family("exp"), 32),
                30,
            )
        )
        r = est.value.ratio(exact)
        assert 1.0 <= r <= 1.06  # frozen: 1.0374

    def test_forests_of_trees(self, expf):
        # outer e^z over Poisson offspring counts forests; exact value from
        # the series-composition oracle at n = 20
        tree = S.lagrange_invert(exact_coeffs(parse_family("exp"), 24), 21)
        forest, _ = S.exp_series(tree.truncate(21))
        exact = LogNumber.from_fraction(forest.coeff(20))
        est = L.func_asym(expf, expf, 20)
        r = est.value.ratio(exact)
        assert 1.0 <= r <= 1.12  # frozen: 1.0802

    def test_derivative_past_the_float_range_in_logs(self):
        # H = e^{1000 z^2}, psi = 1 + z^2 with apex tau = 1, psi(1) = 2 and
        # variance 1: ln H'(1) = 1000 + ln 2000, where H'(1) overflows a float.
        # H and psi both live on the even indices, so the lead adds ln 2.
        psi = make_family(parse_family("poly:1,0,1"), trunc=8)
        h = make_family(parse_family("expof:poly:0,0,1000"), trunc=8)
        n = 50
        assert (L.apex(psi).tau, L.apex(psi).sigma2) == (1.0, 1.0)
        ln = L.func_asym(h, psi, n).value.log_abs
        ln_h_prime = (ln - math.log(2.0) + math.log(n) - n * math.log(2.0)
                      + 0.5 * math.log(2.0 * math.pi * n))
        assert ln_h_prime == pytest.approx(1000.0 + math.log(2000.0), rel=1e-12)

    def test_index_zero_refused(self, expf):
        with pytest.raises(ValueError, match="n must be >= 1"):
            L.func_asym(expf, expf, 0)


class TestBorelTanner:
    def test_exact_values(self):
        assert abs(L.borel_tanner_pmf(1.0, 1, 1) - math.exp(-1)) < 1e-15
        assert abs(L.borel_tanner_pmf(1.0, 1, 2) - math.exp(-2)) < 1e-15
        assert abs(L.borel_tanner_pmf(0.5, 2, 2) - math.exp(-1)) < 1e-15

    def test_index_guard(self):
        with pytest.raises(IndexBelowJ):
            L.borel_tanner_pmf(0.5, 3, 2)
        with pytest.raises(IndexBelowJ):
            L.borel_tanner_asym(0.5, 3, 2)

    def test_initial_size_guard(self):
        for law in (L.borel_tanner_log_pmf, L.borel_tanner_asym):
            with pytest.raises(ValueError, match="initial size j must be >= 1"):
                law(0.5, 0, 3)

    def test_parameter_guard(self):
        with pytest.raises(ParameterDomain):
            L.borel_tanner_pmf(1.5, 1, 5)

    def test_tilted_power_identity_exact(self):
        t = Fraction(2, 5)
        psi_rat = S.CoeffSeries.from_list([t**i / math.factorial(i) for i in range(40)])
        for j in (1, 3):
            for n in range(j, j + 12):
                lhs = L.borel_tanner_rational_part(t, j, n)
                power = S.pow(psi_rat.truncate(max(1, n - j)), n) if n > 1 else psi_rat
                assert lhs == Fraction(j, n) * power.coeff(n - j)

    def test_asymptotic_ratio_improves(self):
        errs = []
        for n in (50, 100, 200):
            r = L.borel_tanner_pmf(0.5, 1, n) / L.borel_tanner_asym(0.5, 1, n).value.to_float()
            errs.append(abs(r - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.02

    def test_mass_sums_to_one_with_geometric_tail(self):
        for t in (0.4, 0.8):
            total = math.fsum(L.borel_tanner_pmf(t, 1, n) for n in range(1, 2001))
            r = t * math.exp(1.0 - t)
            eps = 2.0 * L.borel_tanner_asym(t, 1, 2001).value.to_float() / (1.0 - r)
            assert total <= 1.0 + 1e-12
            assert total >= 1.0 - max(eps, 1e-12)


class TestPoissonInitial:
    def test_single_node_value(self):
        s, t = 2.0, 0.8
        assert abs(L.poisson_poisson_pmf(s, t, 1) - math.exp(-t - s) * s) < 1e-15

    def test_degenerates_to_single_ancestor(self):
        s = 1e-6
        for n in (1, 3, 7):
            pp = L.poisson_poisson_pmf(s, 0.7, n)
            bt = L.borel_tanner_pmf(0.7, 1, n)
            assert abs(pp / (s * math.exp(-s) * bt) - 1.0) < 1e-4

    def test_asymptotic_band(self):
        r200 = L.poisson_poisson_pmf(2.0, 0.8, 200) / L.poisson_poisson_asym(2.0, 0.8, 200).value.to_float()
        assert abs(r200 - 0.9721) < 0.005  # frozen from the exact pmf
        r1000 = L.poisson_poisson_pmf(2.0, 0.8, 1000) / L.poisson_poisson_asym(2.0, 0.8, 1000).value.to_float()
        assert abs(r1000 - 1.0) < abs(r200 - 1.0)


class TestGeneralLagrangian:
    def test_reduces_to_borel_tanner(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=0.9, s=1.0, monomial_j=2)
        got = L.general_lagrangian_asym(spec, 150)
        want = L.borel_tanner_asym(0.9, 2, 150)
        assert abs(got.value.log_abs - want.value.log_abs) < 1e-12

    def test_reduces_to_poisson_initial(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=0.8, s=2.0, initial=expf)
        got = L.general_lagrangian_asym(spec, 150)
        want = L.poisson_poisson_asym(2.0, 0.8, 150)
        assert abs(got.value.log_abs - want.value.log_abs) < 1e-9

    def test_bernoulli_initial_against_exact(self, expf):
        n, t, s = 100, Fraction(9, 10), 1
        psi_rat = S.CoeffSeries.from_list(
            [t**i / math.factorial(i) for i in range(n + 4)]
        )
        f_init = S.CoeffSeries.from_list([Fraction(1, 2), Fraction(1, 2)], order=n + 4)
        exact_rat = L.extended_coeff(f_init, psi_rat, n)
        ln_exact = LogNumber.from_fraction(exact_rat).log_abs - float(t) * n
        bz = make_family(parse_family("poly:1,1"), trunc=8)
        spec = L.LagrangianSpec(psi=expf, t=0.9, s=1.0, initial=bz)
        est = L.general_lagrangian_asym(spec, n)
        assert abs(math.exp(est.value.log_abs - ln_exact) - 1.0) < 0.05

    def test_domain_guard(self, expf, geom):
        spec = L.LagrangianSpec(psi=expf, t=0.5, s=0.95, initial=geom)
        with pytest.raises(ParameterDomain):
            L.general_lagrangian_asym(spec, 50)

    def test_a_tilt_outside_the_radius_is_refused_at_construction(self, expf, geom):
        # nothing is evaluated: a nan or negative tilt of P ran its partition
        # sums to their term limit, and exp at t = -1 leaked a math domain error
        P = make_family(parse_family("P"), trunc=8)
        for psi, t in ((P, math.nan), (P, -0.5), (expf, -1.0), (geom, 1.5)):
            with pytest.raises(RadiusOutOfRange):
                L.LagrangianSpec(psi=psi, t=t, s=1.0, monomial_j=1)
        with pytest.raises(RadiusOutOfRange):
            L.LagrangianSpec(psi=geom, t=0.3, s=math.nan, initial=P)

    def test_supercritical_tilt_rejected(self, expf):
        # the spec refuses it when it is made, for every reader of the spec
        with pytest.raises(SupercriticalSpec):
            L.LagrangianSpec(psi=expf, t=1.2, s=1.0, monomial_j=1)

    def test_the_critical_tilt_is_accepted(self, expf, geom):
        # m_psi(t) = 1 exactly: e^z at 1, 1/(1-z) at 1/2
        for psi, t in ((expf, 1.0), (geom, 0.5)):
            assert psi.mean(t) == 1.0
            spec = L.LagrangianSpec(psi=psi, t=t, s=1.0, monomial_j=1)
            assert L.general_lagrangian_asym(spec, 50).value.sign == 1

    def test_a_linear_apex_has_no_general_asymptotic(self):
        # psi = 1 + z: mean limit 1 only at infinite radius, as in power_asym
        spec = L.LagrangianSpec(psi=make_family(parse_family("poly:1,1"), trunc=8),
                                t=1.0, s=1.0, monomial_j=1)
        with pytest.raises(MeanSupBelowOne):
            L.general_lagrangian_asym(spec, 50)

    def test_index_below_the_initial_size_refused(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=0.5, s=1.0, monomial_j=5)
        with pytest.raises(IndexBelowJ):
            L.general_lagrangian_asym(spec, 2)
        assert L.general_lagrangian_asym(spec, 5).value.sign == 1
        with pytest.raises(ValueError, match="n must be >= 1"):
            L.general_lagrangian_asym(dataclasses.replace(spec, monomial_j=1), 0)


class TestTiltScaling:
    def test_tilted_solution_matches_scaled_solution(self):
        # with Poisson offspring at tilt t, the progeny series satisfies
        # g_t(z) = g(t e^{-t} z) / t coefficientwise; rational parts exact
        t = Fraction(7, 10)
        order = 32
        tilted_rational = S.CoeffSeries.from_list(
            [t**i / math.factorial(i) for i in range(order + 1)]
        )
        lhs = S.lagrange_invert(tilted_rational, order)  # e^{tn} prefactor units
        for n in range(1, order + 1):
            rhs = Fraction(t) ** (n - 1) * Fraction(n) ** (n - 1) / math.factorial(n)
            assert lhs.coeff(n) == rhs


class TestSampler:
    def test_deterministic_replay(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=0.5, s=1.0, monomial_j=1)
        a = L.gw_sample(spec, 5000, seed=11)
        b = L.gw_sample(spec, 5000, seed=11)
        assert a == b

    def test_seed_changes_histogram(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=0.5, s=1.0, monomial_j=1)
        a = L.gw_sample(spec, 5000, seed=11)
        b = L.gw_sample(spec, 5000, seed=12)
        assert a.counts != b.counts

    def test_matches_exact_pmf(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=0.5, s=1.0, monomial_j=1)
        res = L.gw_sample(spec, 20_000, seed=42)
        emp = res.empirical_pmf()
        for n in (1, 2, 3, 5):
            p = L.borel_tanner_pmf(0.5, 1, n)
            assert abs(emp.get(n, 0.0) - p) <= 4.5 * math.sqrt(p * (1 - p) / 20_000)

    def test_critical_tilt_censors(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=1.0, s=1.0, monomial_j=1)
        res = L.gw_sample(spec, 2000, seed=5, cap=10_000)
        assert res.censored > 0

    def test_supercritical_rejected(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=1.0, s=1.0, monomial_j=1)
        hot = dataclasses.replace(expf, mean=lambda t: 1.5)
        with pytest.raises(SupercriticalSpec):
            L.gw_sample(dataclasses.replace(spec, psi=hot), 10, seed=1)

    def test_the_table_is_the_laws_window(self, expf, geom):
        for fam, t in ((expf, 0.5), (geom, 0.4)):
            cum = L._tilted_pmf_table(fam, t)
            assert len(cum) == F._law_top(fam, t) + 1
            acc = 0.0
            for n, entry in enumerate(cum[:-1]):
                acc += F.mass(fam, t, n)
                assert entry == acc, (fam.name, n)
            assert cum[-1] >= 1.0

    def test_a_window_past_the_cap_is_refused(self):
        # exp at 0.5 needs coefficients past 8: the window readers' refusal
        short = make_family(parse_family("exp"), trunc=8)
        spec = L.LagrangianSpec(psi=short, t=0.5, s=1.0, monomial_j=1)
        with pytest.raises(WindowTooNarrow):
            L.gw_sample(spec, 10, seed=1)

    def test_poisson_initial_sampling(self, expf):
        spec = L.LagrangianSpec(psi=expf, t=0.5, s=1.5, initial=expf)
        res = L.gw_sample(spec, 5000, seed=3)
        # total progeny 0 happens when the initial generation is empty
        assert res.counts.get(0, 0) > 0
        want = math.exp(-1.5)
        assert abs(res.counts.get(0, 0) / res.trials - want) < 4.5 * math.sqrt(
            want * (1 - want) / 5000
        )
