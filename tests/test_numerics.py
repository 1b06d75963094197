"""Special functions and root finding against independent oracles."""

import math
from fractions import Fraction

import pytest

from khinfam import numerics as N
from khinfam.catalog import make_family, parse_family
from khinfam.errors import BracketInvalid, DomainError, UnsupportedOrder

EULER_GAMMA = 0.5772156649015329


def bisect_w(x, lo=-1.0, hi=800.0):
    """Bisection oracle for w e^w = x."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(min(mid, 700.0)) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zeta3_partial_sum_oracle():
    """zeta(3) from a long partial sum plus an Euler-Maclaurin tail."""
    n = 20000
    s = math.fsum(k**-3 for k in range(1, n + 1))
    return s + 1 / (2 * n**2) - 1 / (2 * n**3) + 1 / (4 * n**4)


def zeta_prime_oracle(s, n=20000):
    """zeta'(s) = -sum ln k / k^s with an Euler-Maclaurin tail, s > 1."""
    head = -math.fsum(math.log(k) * k**-s for k in range(2, n))

    def f(x):
        return math.log(x) * x**-s

    integral = n ** (1 - s) * (math.log(n) / (s - 1) + 1 / (s - 1) ** 2)
    fprime = n ** (-s - 1) * (1 - s * math.log(n))
    return head - (integral + 0.5 * f(n) - fprime / 12.0)


class TestLambertW:
    def test_fixed_points(self):
        assert N.lambert_w0(0.0) == 0.0
        assert abs(N.lambert_w0(math.e) - 1.0) < 1e-14

    def test_against_bisection(self):
        for x in (0.3, 1.0, 100.0, 12345.6):
            assert abs(N.lambert_w0(x) - bisect_w(x)) < 1e-10 * max(1.0, bisect_w(x))

    def test_residual_on_log_grid(self):
        for i in range(40):
            x = 10 ** (-3 + 9 * i / 39)
            w = N.lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_branch_point_region(self):
        x = -1 / math.e + 1e-4
        w = N.lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            N.lambert_w0(-1.0)


class TestZeta:
    def test_even_values_closed_forms(self):
        closed = {
            2: math.pi**2 / 6,
            4: math.pi**4 / 90,
            6: math.pi**6 / 945,
            8: math.pi**8 / 9450,
        }
        for k, val in closed.items():
            assert abs(N.zeta_real(float(k)) - val) <= 1e-12 * val

    def test_zeta3_against_partial_sum_oracle(self):
        want = zeta3_partial_sum_oracle()
        assert abs(N.zeta_real(3.0) - want) <= 1e-12 * want

    def test_near_one_blowup(self):
        # zeta(1 + eps) = 1/eps + gamma + O(eps)
        got = N.zeta_real(1.0 + 1e-6)
        assert abs(got - (1e6 + EULER_GAMMA)) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            N.zeta_real(1.0)


class TestZetaPrimeNeg:
    def test_at_zero_classical_value(self):
        assert abs(N.zeta_prime_neg(0) + 0.5 * math.log(2 * math.pi)) < 1e-14

    def test_at_minus_one_reflection_oracle(self):
        # log-differentiating the functional equation at s = -1:
        # zeta'(-1)/zeta(-1) = ln(2 pi) + gamma - 1 - zeta'(2)/zeta(2)
        z2 = N.zeta_real(2.0)
        want = (-1.0 / 12.0) * (
            math.log(2 * math.pi) + EULER_GAMMA - 1.0 - zeta_prime_oracle(2.0) / z2
        )
        assert abs(N.zeta_prime_neg(1) - want) <= 1e-10

    def test_at_minus_two_reflection_oracle(self):
        # zeta'(-2) = -zeta(3) / (4 pi^2), with zeta(3) from the sum oracle
        want = -zeta3_partial_sum_oracle() / (4 * math.pi**2)
        assert abs(N.zeta_prime_neg(2) - want) <= 1e-10

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            N.zeta_prime_neg(3)


class TestLogGamma:
    def test_integer_factorials(self):
        for n in range(1, 20):
            assert abs(N.log_gamma(n + 1.0) - math.log(math.factorial(n))) <= 1e-12

    def test_half_integer_values(self):
        assert abs(N.log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
        assert abs(N.log_gamma(1.5) - math.log(math.sqrt(math.pi) / 2)) < 1e-14
        assert abs(N.log_gamma(5.0) - math.log(24.0)) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            N.log_gamma(0.0)


class TestSolveMonotone:
    def test_identity_map(self):
        br = N.RootBracket(1.0, 5.0)
        assert abs(N.solve_monotone_point(lambda t: t, 3.0, br)[0] - 3.0) < 1e-9

    def test_exponential_mean_hits_target_exactly(self):
        fam = make_family(parse_family("exp"), trunc=8)
        for n in (1, 7, 500):
            br = N.bracket_increasing(fam.mean, n, fam.radius)
            t = N.solve_monotone_point(fam.mean, float(n), br)[0]
            assert abs(t - n) <= 1e-8 * n

    def test_an_exact_hit_ends_the_solve(self):
        # exp's mean is t, so a secant step lands on the root itself; the
        # solve stops there instead of bisecting the bracket down to 1e-13 t
        fam = make_family(parse_family("exp"), trunc=8)
        for n in (100.0, 100_000.0):
            calls = []

            def mean(t):
                calls.append(t)
                return fam.mean(t)

            t, value = N.solve_monotone_point(mean, n, N.bracket_increasing(mean, n, fam.radius))
            assert t == value == n
            assert len(calls) <= 20

    def test_residual_bound_over_catalog_means(self):
        # dense grid for the closed-form means, spot checks for the summed ones
        for text in ("exp", "geom"):
            fam = make_family(parse_family(text), trunc=8)
            for n in range(1, 1001):
                br = N.bracket_increasing(fam.mean, n, fam.radius)
                t = N.solve_monotone_point(fam.mean, float(n), br)[0]
                assert abs(fam.mean(t) - n) <= 1e-9 * max(1.0, n)
        for text in ("bell", "P", "Q", "Wab:1,1"):
            fam = make_family(parse_family(text), trunc=8)
            for n in (1, 10, 100, 1000):
                br = N.bracket_increasing(fam.mean, n, fam.radius)
                t = N.solve_monotone_point(fam.mean, float(n), br)[0]
                assert abs(fam.mean(t) - n) <= 1e-9 * max(1.0, n)

    def test_partition_mean_against_closed_approximation(self):
        fam = make_family(parse_family("P"), trunc=8)
        br = N.bracket_increasing(fam.mean, 100.0, fam.radius)
        t = N.solve_monotone_point(fam.mean, 100.0, br)[0]
        approx = math.exp(-math.pi / math.sqrt(600))
        assert abs(t / approx - 1.0) < 0.03

    def test_invalid_bracket(self):
        with pytest.raises(BracketInvalid):
            N.solve_monotone_point(lambda t: t, 10.0, N.RootBracket(1.0, 2.0))[0]

    def test_values_carried_from_bracket_to_root(self):
        fam = make_family(parse_family("P"), trunc=8)
        br = N.bracket_increasing(fam.mean, 100.0, fam.radius)
        assert (br.g_lo, br.g_hi) == (fam.mean(br.lo), fam.mean(br.hi))
        t, value = N.solve_monotone_point(fam.mean, 100.0, br)
        assert value == fam.mean(t)
        assert t == N.solve_monotone_point(fam.mean, 100.0, N.RootBracket(br.lo, br.hi))[0]

    def test_root_at_a_bracket_end(self):
        # g(lo) hits the target: the root is lo and its value the bracket's
        br = N.RootBracket(2.0, 5.0, g_lo=3.0, g_hi=6.0)
        assert N.solve_monotone_point(lambda t: t + 1.0, 3.0, br) == (2.0, 3.0)


class TestFiniteDiff:
    def test_square(self):
        assert abs(N.finite_diff(lambda t: t * t, 3.0, 1e-5) - 6.0) < 1e-8

    def test_exponential_mean_slope(self):
        fam = make_family(parse_family("exp"), trunc=8)
        assert abs(N.finite_diff(fam.mean, 2.5, 1e-6) - 1.0) < 1e-8

    def test_partition_variance_is_t_times_mean_slope(self):
        fam = make_family(parse_family("P"), trunc=8)
        t = 0.9
        slope = N.finite_diff(fam.mean, t, 1e-7)
        assert abs(t * slope - fam.variance(t)) <= 1e-4 * fam.variance(t)


def lognum(x):
    """x != 0 as a LogNumber: its sign and ln |x|."""
    return N.LogNumber(1 if x > 0 else -1, math.log(abs(x)))


class TestLogNumber:
    def test_multiplication_is_additive(self):
        a = lognum(3.5)
        b = lognum(-2.0)
        c = a * b
        assert c.sign == -1
        assert abs(c.log_abs - math.log(7.0)) < 1e-14

    def test_associativity_in_log_space(self):
        a, b, c = (lognum(x) for x in (2.0, 5.0, 11.0))
        left = (a * b) * c
        right = a * (b * c)
        assert abs(left.log_abs - right.log_abs) < 1e-12

    def test_division(self):
        a = lognum(10.0)
        b = lognum(4.0)
        assert abs((a / b).to_float() - 2.5) < 1e-12

    def test_round_trip_keeps_twelve_digits(self):
        for x in (1e-300, 1.2345678901234e-5, 3.0, 6.02e23, 1e299):
            y = lognum(x).to_float()
            assert abs(y - x) <= 1e-12 * x

    def test_huge_fraction(self):
        q = Fraction(10**500 + 1, 7**13)
        ln = N.LogNumber.from_fraction(q)
        want = 500 * math.log(10) - 13 * math.log(7)
        assert abs(ln.log_abs - want) < 1e-9 * abs(want)

    def test_overflow_to_inf(self):
        assert N.LogNumber.from_log(800.0).to_float() == math.inf

    def test_zero(self):
        z = N.LogNumber.zero()
        assert z.to_float() == 0.0
        assert (z * lognum(5.0)).sign == 0
