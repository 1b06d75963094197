"""Saddle-point estimators and Gaussianity diagnostics.

Bands marked "frozen" were computed from the exact oracles (pentagonal
recurrence, product expansions, Bell triangle) before being written down.
"""

import cmath
import dataclasses
import math
from fractions import Fraction

import pytest

from khinfam import asym as A
from khinfam import catalog as C
from khinfam import family as F
from khinfam import lagrange as L
from khinfam import large_powers as LP
from khinfam.catalog import bell_numbers, exact_coeffs, make_family, parse_family
from khinfam.errors import (
    ComplexEvalUnavailable,
    DomainError,
    QGcdViolation,
    TargetAboveMeanSup,
    UnsupportedOrder,
    WindowTooNarrow,
)
from khinfam.numerics import ZETA_NEG, LogNumber, lambert_w0, log_gamma, zeta_prime_neg, zeta_real


@pytest.fixture(scope="module")
def fams():
    return {
        "exp": make_family(parse_family("exp"), trunc=8),
        "bell": make_family(parse_family("bell"), trunc=8),
        "P": make_family(parse_family("P"), trunc=8),
        "Q": make_family(parse_family("Q"), trunc=8),
    }


@pytest.fixture(scope="module")
def exact_p():
    return exact_coeffs(parse_family("P"), 1000)


@pytest.fixture(scope="module")
def exact_q():
    return exact_coeffs(parse_family("Q"), 1000)


class TestSaddle:
    def test_exponential_saddle_is_target(self, fams):
        sp = A.saddle_solve(fams["exp"], 7)
        assert abs(sp.t - 7.0) < 1e-8

    def test_bell_saddle_is_lambert_point(self, fams):
        sp = A.saddle_solve(fams["bell"], 10)
        assert abs(sp.t - lambert_w0(10.0)) < 1e-9

    def test_partition_saddle_near_closed_approximation(self, fams):
        sp = A.saddle_solve(fams["P"], 100)
        assert abs(sp.t / math.exp(-math.pi / math.sqrt(600)) - 1.0) < 0.03
        assert abs(sp.mean - 100.0) <= 1e-9 * 100

    def test_target_above_mean_limit(self):
        fam = make_family(parse_family("binom:4"), trunc=8)
        with pytest.raises(TargetAboveMeanSup):
            A.saddle_solve(fam, 5)


class TestHaymanEstimate:
    def test_stirling_ratio_structure(self, fams):
        for n in (10, 100):
            est = A.hayman_estimate(fams["exp"], n)
            exact = LogNumber.from_fraction(Fraction(1, math.factorial(n)))
            r = exact.ratio(est.value)
            # exact/estimate = 1 - 1/(12n) + O(n^-2)
            assert abs((r - 1.0) + 1.0 / (12 * n)) < 0.3 / (12 * n)

    def test_partition_at_100(self, fams, exact_p):
        est = A.hayman_estimate(fams["P"], 100)
        exact = LogNumber.from_fraction(Fraction(exact_p.coeff(100)))
        assert abs(exact.ratio(est.value) - 1.0) < 0.06

    def test_bell_at_20(self, fams):
        est = A.hayman_estimate(fams["bell"], 20)
        exact = LogNumber.from_fraction(
            Fraction(bell_numbers(20)[20], math.factorial(20))
        )
        assert abs(exact.ratio(est.value) - 1.0) < 0.05

    def test_error_decreases_along_n(self, fams, exact_p, exact_q):
        bells = bell_numbers(1000)
        grids = {
            "exp": lambda n: LogNumber.from_fraction(Fraction(1, math.factorial(n))),
            "P": lambda n: LogNumber.from_fraction(Fraction(exact_p.coeff(n))),
            "Q": lambda n: LogNumber.from_fraction(Fraction(exact_q.coeff(n))),
            "bell": lambda n: LogNumber.from_fraction(
                Fraction(bells[n], math.factorial(n))
            ),
        }
        for name, exact_fn in grids.items():
            errs = []
            for n in (50, 100, 200, 500, 1000):
                est = A.hayman_estimate(fams[name], n)
                errs.append(abs(exact_fn(n).ratio(est.value) - 1.0))
            assert all(a > b for a, b in zip(errs, errs[1:])), name

    def test_even_support_needs_rescaling(self):
        fam = make_family(parse_family("expof:poly:0,0,1"), trunc=64)
        with pytest.raises(QGcdViolation):
            A.hayman_estimate(fam, 9)

    def test_even_support_rescaled_matches_companion(self, fams):
        # coefficients of e^{z^2} at index 2k are those of e^z at k, and the
        # rescaled estimate reproduces the companion's estimate exactly
        fam = make_family(parse_family("expof:poly:0,0,1"), trunc=64)
        got = A.hayman_estimate(fam, 20)
        companion = A.hayman_estimate(fams["exp"], 10)
        assert abs(got.value.log_abs - companion.value.log_abs) < 1e-9
        assert got.meta["rescaled_gcd"] == 2


class TestBaezDuarte:
    def test_partition_reproduces_closed_pipeline(self, fams, exact_p):
        est = A.baez_duarte_estimate(fams["P"], 100)
        exact = LogNumber.from_fraction(Fraction(exact_p.coeff(100)))
        r = est.value.ratio(exact)
        assert 1.03 <= r <= 1.05  # frozen: 1.0401

    def test_distinct_within_ten_percent(self, fams, exact_q):
        est = A.baez_duarte_estimate(fams["Q"], 100)
        exact = LogNumber.from_fraction(Fraction(exact_q.coeff(100)))
        assert abs(est.value.ratio(exact) - 1.0) < 0.10

    def test_bell_equals_exact_saddle_route(self, fams):
        bd = A.baez_duarte_estimate(fams["bell"], 50)
        hay = A.hayman_estimate(fams["bell"], 50)
        assert abs(bd.value.log_abs - hay.value.log_abs) < 1e-9

    def test_uses_closed_radius(self, fams):
        est = A.baez_duarte_estimate(fams["P"], 100)
        assert abs(est.meta["tau"] - math.exp(-math.pi / math.sqrt(600))) < 1e-12

    # exact / estimate on Wab:a,b with a >= 2, whose parts a*j share the gcd
    # a: frozen 0.9822, 0.9888, 0.9962; 0.9927, 0.9946, 0.9957; 0.9457,
    # 0.9614, 0.9726. Báez-Duarte's law leaves out the D(0)/s term of the
    # mean, so it trails Hayman on Wab:2,0 (0.9782, 0.9848, 0.9894).
    @pytest.mark.parametrize("text,ns", [
        ("Wab:2,1", (100, 200, 1000)),
        ("Wab:3,2", (300, 450, 600)),
        ("Wab:2,0", (100, 200, 400)),
    ])
    def test_parts_on_a_lattice_against_exact(self, text, ns):
        spec = parse_family(text)
        fam = make_family(spec, trunc=8)
        exact = exact_coeffs(spec, max(ns))
        ratios = [LogNumber.from_fraction(Fraction(exact.coeff(n))).ratio(
            A.baez_duarte_estimate(fam, n).value) for n in ns]
        assert all(0.94 < r < 1.0 for r in ratios), ratios
        assert ratios == sorted(ratios)

    def test_index_off_the_lattice_refused(self):
        fam = make_family(parse_family("Wab:2,0"), trunc=8)
        with pytest.raises(QGcdViolation):
            A.baez_duarte_estimate(fam, 201)


class TestClosedPartitionForms:
    def test_hr_at_100(self, exact_p):
        est = A.closed_partition_asym("hr", 100)
        exact = LogNumber.from_fraction(Fraction(exact_p.coeff(100)))
        assert 1.02 <= est.value.ratio(exact) <= 1.07  # frozen: 1.0457

    def test_colored_zero_reduces_to_hr(self):
        for n in (10, 100, 1000):
            a = A.closed_partition_asym("colored", n, b=0)
            b = A.closed_partition_asym("hr", n)
            assert abs(a.value.log_abs - b.value.log_abs) < 1e-12 * max(1, b.value.log_abs)

    def test_ingham_reduces_to_known_cases(self):
        for n in (10, 100):
            hr = A.closed_partition_asym("hr", n)
            i11 = A.closed_partition_asym("ingham", n, a=1, b=1)
            assert abs(hr.value.log_abs - i11.value.log_abs) < 1e-12 * max(1, hr.value.log_abs)
            di = A.closed_partition_asym("distinct", n)
            i21 = A.closed_partition_asym("ingham", n, a=2, b=1)
            assert abs(di.value.log_abs - i21.value.log_abs) < 1e-12 * max(1, di.value.log_abs)

    def test_ingham_gcd_guard(self):
        # parts 4, 6, 8, ...: Pab:2,4 counts at n those of Pab:1,2 at n/2
        for n in (10, 100):
            half = A.closed_partition_asym("ingham", n // 2, a=1, b=2)
            assert A.closed_partition_asym("ingham", n, a=2, b=4).value == half.value
        with pytest.raises(QGcdViolation):
            A.closed_partition_asym("ingham", 11, a=2, b=4)

    def test_colored_order_guard(self):
        # zeta'(-3) is not tabled
        with pytest.raises(UnsupportedOrder):
            A.closed_partition_asym("colored", 10, b=3)

    def test_wright_plane_band(self):
        mc = exact_coeffs(parse_family("Wab:1,1"), 50)
        est = A.closed_partition_asym("wright_plane", 50)
        exact = LogNumber.from_fraction(Fraction(mc.coeff(50)))
        assert 1.012 <= est.value.ratio(exact) <= 1.024  # frozen: 1.0181

    def test_hr_and_closed_saddle_converge(self, fams, exact_p):
        hr = A.closed_partition_asym("hr", 1000)
        bd = A.baez_duarte_estimate(fams["P"], 1000)
        assert abs(math.exp(hr.value.log_abs - bd.value.log_abs) - 1.0) < 0.02


# The five hand-written closed forms that the Mellin record replaced, kept as
# oracles of ``closed_partition_asym``.


def _hand_hr(n):
    return -math.log(4.0 * math.sqrt(3.0)) - math.log(n) + math.pi * math.sqrt(2.0 * n / 3.0)


def _hand_distinct(n):
    return -math.log(4.0 * 3.0**0.25) - 0.75 * math.log(n) + math.pi * math.sqrt(n / 3.0)


def _hand_ingham(n, a, b):
    # gcd(a, b) = 1 only
    const = (-0.5 * math.log(2.0) - math.log(2.0 * math.pi) + log_gamma(b / a)
             + (b / (2.0 * a) - 0.5) * math.log(a) + (b / (2.0 * a)) * math.log(zeta_real(2.0)))
    return const - (0.5 + b / (2.0 * a)) * math.log(n) + math.pi * math.sqrt(2.0 * n / (3.0 * a))


def _hand_colored(n, b):
    zb = ZETA_NEG[b]
    gz = math.exp(log_gamma(b + 2.0)) * zeta_real(b + 2.0)
    const = (-0.5 * math.log(2.0 * math.pi) + zeta_prime_neg(b) - 0.5 * math.log(b + 2.0)
             + (1.0 - 2.0 * zb) / (2.0 * (b + 2.0)) * math.log(gz))
    return (const - (-2.0 * zb + b + 3.0) / (2.0 * (b + 2.0)) * math.log(n)
            + (b + 2.0) / (b + 1.0) * gz ** (1.0 / (b + 2.0)) * n ** ((b + 1.0) / (b + 2.0)))


def _hand_wright_plane(n):
    return _hand_colored(n, 1)


_HAND_CASES = (
    [("hr", {}, _hand_hr), ("distinct", {}, _hand_distinct),
     ("wright_plane", {}, _hand_wright_plane)]
    + [("colored", {"b": b}, lambda n, b=b: _hand_colored(n, b)) for b in (0, 1, 2)]
    + [("ingham", {"a": a, "b": b}, lambda n, a=a, b=b: _hand_ingham(n, a, b))
       for a in range(1, 6) for b in range(1, 6) if math.gcd(a, b) == 1]
)


@pytest.mark.parametrize("kind, params, hand", _HAND_CASES,
                         ids=[f"{k}{''.join(f'-{v}' for v in p.values())}" for k, p, _ in _HAND_CASES])
def test_closed_forms_match_the_hand_formulas(kind, params, hand):
    for n in (1, 2, 3, 10, 37, 100, 1000, 12345, 10**6, 10**8):
        want = hand(n)
        got = A.closed_partition_asym(kind, n, **params).value.log_abs
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, got, want)


class TestMoserWyman:
    def test_small_n_well_defined(self):
        est = A.moser_wyman(1)
        assert est.value.sign == 1 and math.isfinite(est.value.log_abs)

    def test_band_at_50(self):
        bells = bell_numbers(50)
        est = A.moser_wyman(50)
        exact = LogNumber.from_fraction(Fraction(bells[50], math.factorial(50)))
        assert abs(exact.ratio(est.value) - 1.0) < 0.01  # frozen: 0.00724

    def test_equals_exact_saddle_route(self, fams):
        hay = A.hayman_estimate(fams["bell"], 50)
        mw = A.moser_wyman(50)
        assert abs(mw.value.log_abs - hay.value.log_abs) < 1e-9


class TestLocalClt:
    def test_poisson_small_sup(self):
        fam = make_family(parse_family("exp"), trunc=256)
        assert A.local_clt_sup(fam, 100.0) < 0.05

    def test_poisson_decreasing_grid(self):
        fam = make_family(parse_family("exp"), trunc=1400)
        vals = [A.local_clt_sup(fam, t) for t in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_geometric_bounded_away(self):
        fam = make_family(parse_family("geom"), trunc=1200)
        assert A.local_clt_sup(fam, 0.99) > 0.5  # frozen: 1.884

    def test_window_guard(self):
        fam = make_family(parse_family("exp"), trunc=32)
        with pytest.raises(WindowTooNarrow):
            A.local_clt_sup(fam, 100.0)

    # poly:1,0,1 at t = 1 has zero coefficients inside its window 0..12
    @pytest.mark.parametrize("text,t", [
        ("P", 0.9), ("bell", 2.0), ("exp", 30.0), ("geom", 0.5), ("poly:1,0,1", 1.0),
    ])
    def test_one_log_value_per_radius(self, text, t):
        spec = parse_family(text)
        probe = make_family(spec, trunc=8)
        m, var = probe.mean(t), probe.variance(t)
        sigma = math.sqrt(var)
        fam = make_family(spec, trunc=int(m + 12.0 * sigma) + 2)
        log_value, calls = _counting(fam.log_value)
        got = A.local_clt_sup(dataclasses.replace(fam, log_value=log_value), t)
        assert len(calls) == 1
        # the sup as one family.mass per index of the window gives it
        best = 0.0
        for n in range(max(0, int(m - 10.0 * sigma)), int(m + 10.0 * sigma) + 2):
            gauss = math.exp(-((m - n) ** 2) / (2.0 * var))
            best = max(best, abs(F.mass(fam, t, n) * math.sqrt(2.0 * math.pi) * sigma - gauss))
        assert got == best


class TestStrongGaussianIntegral:
    def test_poisson_follows_skewness_law(self):
        # the integral decays like (2/3)/sqrt(t): the third-cumulant term
        # integrates to int e^{-x^2/2} |x|^3 / 6 dx = 2/3 (frozen oracle law)
        fam = make_family(parse_family("exp"), trunc=8)
        for t in (100.0, 400.0, 1000.0):
            val = A.strong_gaussian_integral(fam, t)
            assert abs(val * math.sqrt(t) - 2.0 / 3.0) < 0.02
        assert A.strong_gaussian_integral(fam, 400.0) < 0.04  # frozen: 0.0334

    def test_integrand_vanishes_at_origin(self):
        fam = make_family(parse_family("exp"), trunc=8)
        assert abs(A._normalized_charfn(fam, 50.0)[1](0.0) - 1.0) < 1e-14

    def test_poisson_decreasing_grid(self):
        fam = make_family(parse_family("exp"), trunc=8)
        vals = [A.strong_gaussian_integral(fam, t) for t in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_linear_family_not_vanishing(self):
        fam = make_family(parse_family("bernoulli"), trunc=8)
        # the variance dies, the window shrinks, the integral stays tiny but
        # the integrand is near-constant 1 - e^{-theta^2/2}: frozen 0.0068
        val = A.strong_gaussian_integral(fam, 100.0)
        window = 2 * math.pi * math.sqrt(fam.variance(100.0))
        assert val > 0.5 * window * 0.001


def _reevaluating_simpson(f, a, b, tol, base=4096):
    """Composite Simpson that evaluates the whole grid again at each level."""

    def simpson(n):
        h = (b - a) / n
        acc = f(a) + f(b)
        acc += 4.0 * math.fsum(f(a + h * i) for i in range(1, n, 2))
        acc += 2.0 * math.fsum(f(a + h * i) for i in range(2, n, 2))
        return acc * h / 3.0

    n = base
    prev = simpson(n)
    for _ in range(6):
        n *= 2
        cur = simpson(n)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    return prev


def _counting(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def _counting_circle(fam):
    """A log_value_circle for fam that records each radius asked for and
    each point evaluated on a circle."""
    radii, calls = [], []

    def circle(t):
        radii.append(t)
        on_circle = fam.log_value_circle(t)

        def counted(z):
            calls.append(z)
            return on_circle(z)

        return counted

    return circle, radii, calls


def _kinked(x):
    return abs(math.sin(7.0 * x)) + abs(x - 0.3) ** 0.5 + (1.0 if x > 1.1 else 0.0)


class TestReusingSimpson:
    def test_two_levels_bitwise_with_fewer_calls(self):
        f, calls = _counting(_kinked)
        got = A._adaptive_simpson(f, -2.0, 3.0, tol=1.0)
        old, old_calls = _counting(_kinked)
        assert got == _reevaluating_simpson(old, -2.0, 3.0, tol=1.0)
        assert len(old_calls) == 4097 + 8193
        assert len(calls) == 8193
        assert len(set(calls)) == 8193

    def test_every_level_bitwise(self):
        # tol 0 is never met: all seven levels run and the last one is returned
        f, calls = _counting(_kinked)
        got = A._adaptive_simpson(f, -2.0, 3.0, tol=0.0, base=64)
        assert got == _reevaluating_simpson(_kinked, -2.0, 3.0, tol=0.0, base=64)
        assert len(calls) == 64 * 2**6 + 1

    def test_odd_base_refused(self):
        with pytest.raises(ValueError):
            A._adaptive_simpson(_kinked, 0.0, 1.0, tol=1e-8, base=4095)

    def test_strong_gaussian_integral_calls(self):
        # half the range at the full range's step: 2048 intervals, 4097
        # ordinates, all through the one evaluator of the circle at t
        fam = make_family(parse_family("P"), trunc=8)
        circle, radii, calls = _counting_circle(fam)
        val = A.strong_gaussian_integral(dataclasses.replace(fam, log_value_circle=circle), 0.5)
        assert val == A.strong_gaussian_integral(fam, 0.5)
        assert radii == [0.5]
        assert len(calls) == 4097
        assert len(set(calls)) == 4097
        # the circle evaluator is kept by replace, so complex ln f is not called
        lvc, direct = _counting(fam.log_value_complex)
        A.strong_gaussian_integral(dataclasses.replace(fam, log_value_complex=lvc), 0.5)
        assert direct == []


def _full_range_sgint(fam, t, tol=1e-8):
    """The integral by the full-range rule: Simpson on [-pi sigma, pi sigma]
    from a 4096-interval base, with ln f from log_value_complex at every
    point. The oracle of the half-range rule, which relies on evenness."""
    sigma = math.sqrt(fam.variance(t))
    m = fam.mean(t)
    log_f = fam.log_value(t)
    half = math.pi * sigma

    def integrand(theta):
        z = t * cmath.exp(1j * theta / sigma)
        val = cmath.exp(fam.log_value_complex(z) - log_f - 1j * theta * m / sigma)
        return abs(val - math.exp(-theta * theta / 2.0))

    return A._adaptive_simpson(integrand, -half, half, tol, base=4096)


def _sgint_rule(monkeypatch, fam, t):
    """What strong_gaussian_integral hands to the Simpson rule."""
    seen = {}

    def capture(f, a, b, tol, base):
        seen.update(f=f, a=a, b=b, tol=tol, base=base)
        return 0.0

    with monkeypatch.context() as mp:
        mp.setattr(A, "_adaptive_simpson", capture)
        A.strong_gaussian_integral(fam, t)
    return seen


# (spec, t): every shape of complex ln f in the catalog
SGINT_CASES = [
    ("P", 0.5), ("Q", 0.6), ("Pab:2,1", 0.5), ("Wab:1,2", 0.5), ("exp", 3.0), ("exp", 1000.0),
    ("bell", 3.0), ("geom", 0.7), ("setsoflists", 0.7), ("binom:4", 2.0), ("negbinom:3", 0.5),
    ("expof:poly:0,1,1", 1.5), ("poly:1,2,1", 1.5), ("canprod:1,2", 2.0),
]
# the sgint queries of the saddle benchmark pool, whose families are built at trunc 64
POOL_SGINT = [("exp", 3.0), ("bell", 3.0), ("geom", 0.7), ("setsoflists", 0.7),
              ("P", 0.5), ("Pab:2,1", 0.5)]


class TestHalfRangeIntegral:
    @pytest.mark.parametrize("text,t", SGINT_CASES)
    def test_integrand_bitwise_even_on_the_grid(self, monkeypatch, text, t):
        fam = make_family(parse_family(text), trunc=8)
        rule = _sgint_rule(monkeypatch, fam, t)
        assert (rule["a"], rule["base"]) == (0.0, 2048)
        h = rule["b"] / 2048
        for i in range(0, 2049, 7):
            assert rule["f"](-h * i) == rule["f"](h * i), i

    @pytest.mark.parametrize("text,t", POOL_SGINT)
    def test_bitwise_the_full_range_on_the_pool(self, text, t):
        fam = make_family(parse_family(text), trunc=64)
        assert A.strong_gaussian_integral(fam, t) == _full_range_sgint(fam, t)

    @pytest.mark.parametrize("text,t", SGINT_CASES)
    def test_agrees_with_the_full_range(self, text, t):
        # the rules round differently; the most measured here is exp at
        # t = 1000, 6e-14 (318 ulps)
        fam = make_family(parse_family(text), trunc=8)
        new, old = A.strong_gaussian_integral(fam, t), _full_range_sgint(fam, t)
        assert abs(new - old) <= 1e-13 * old


# the partition-product sgint and cuts queries of the saddle benchmark pool
POOL_CIRCLES = [
    ("sgint", "P", (0.5,)), ("sgint", "Pab:2,1", (0.5,)),
    ("cuts", "P", (0.5, 0.5, 256)), ("cuts", "Q", (0.6, 0.5, 256)),
]


def _diagnostic(op):
    return A.strong_gaussian_integral if op == "sgint" else A.cut_diagnostics


class TestCircleEvaluator:
    @pytest.mark.parametrize("op,text,args", POOL_CIRCLES)
    def test_bitwise_complex_ln_f_at_every_grid_point(self, op, text, args):
        fam = make_family(parse_family(text), trunc=64)
        circle, radii, calls = _counting_circle(fam)
        got = _diagnostic(op)(dataclasses.replace(fam, log_value_circle=circle), *args)
        assert got == _diagnostic(op)(fam, *args)
        assert radii == [args[0]]
        on_circle = fam.log_value_circle(args[0])
        for z in calls:
            assert on_circle(z) == fam.log_value_complex(z), z

    @pytest.mark.parametrize("op,text,args", POOL_CIRCLES)
    def test_one_lambert_order_per_call(self, monkeypatch, op, text, args):
        fam = make_family(parse_family(text), trunc=64)
        order, radii = C._lambert_order, []

        def counted(r, log_bound):
            radii.append(r)
            return order(r, log_bound)

        monkeypatch.setattr(C, "_lambert_order", counted)
        _diagnostic(op)(fam, *args)
        assert radii == [args[0]]

    @pytest.mark.parametrize("op,text,args", POOL_CIRCLES)
    def test_a_law_without_complex_evaluation_is_refused(self, op, text, args):
        bare = dataclasses.replace(make_family(parse_family(text), trunc=64), log_value_complex=None)
        with pytest.raises(ComplexEvalUnavailable, match=bare.name):
            _diagnostic(op)(bare, *args)

    def test_closed_forms_fall_back_to_complex_ln_f(self):
        fam = make_family(parse_family("geom"), trunc=8)
        assert fam.log_value_circle is None
        assert F.circle_evaluator(fam, 0.7) is fam.log_value_complex


class TestSaddleEvaluations:
    @pytest.mark.parametrize("text,n", [("P", 1000), ("P", 7), ("Q", 300), ("exp", 50),
                                        ("bell", 1000), ("geom", 20), ("Wab:1,2", 1000)])
    def test_mean_evaluated_once_per_t(self, text, n):
        fam = make_family(parse_family(text), trunc=8)
        mean, calls = _counting(fam.mean)
        sp = A.saddle_solve(dataclasses.replace(fam, mean=mean), n)
        assert len(calls) == len(set(calls))
        assert sp.mean == fam.mean(sp.t)
        assert sp == A.saddle_solve(fam, n)


# float.hex values of the evaluators' results before their loops were fused;
# families at trunc 64. A rewrite that moves a single bit fails here. The
# cuts pin was re-taken when complex ln f became the Lambert series (it moved
# by 3 and 2 ulps from 0x1.92a27fb1560ecp+0, 0x1.990b3db0d8977p+0), and the
# fulcrum pin when the partition products' F''' and F'''' became closed-form
# sums (F''' moved by 1 ulp from 0x1.5c183efcfbb8fp+19).
PINNED = {
    "sgint P 0.5": "0x1.0174b45f5c491p+2",
    "hayman P 10000": "0x1.eab8dc849f0a6p+7",
    "hayman P 10000 t": "0x1.f97ce6298dacap-1",
    "hayman Wab:1,2 1000": "0x1.74c66ba1b8610p+8",
    "hayman Wab:1,2 1000 t": "0x1.8176ffaa67607p-1",
    "fulcrum Q ln 0.95": ["0x1.38907851f02ffp+8", "0x1.7ce7b1bd4b395p+13",
                          "0x1.5c183efcfbb90p+19", "0x1.a825be8d9fe91p+25"],
    "cuts Q 0.6 0.5 256": ["0x1.92a27fb1560e9p+0", "0x1.990b3db0d8975p+0"],
    "bd Wab:1,1 10000": "0x1.ce6be3807368bp+9",
    "bd Wab:1,1 100000": "0x1.0dfc2e13c706cp+12",
    "bd Wab:1,2 100000": "0x1.75c4eab4dfc1dp+13",
}


class TestPinnedValues:
    @pytest.fixture(scope="class")
    def fam64(self):
        return lambda text: make_family(parse_family(text), trunc=64)

    def test_strong_gaussian_integral(self, fam64):
        assert A.strong_gaussian_integral(fam64("P"), 0.5).hex() == PINNED["sgint P 0.5"]

    @pytest.mark.parametrize("text,n", [("P", 10_000), ("Wab:1,2", 1000)])
    def test_hayman(self, fam64, text, n):
        est = A.hayman_estimate(fam64(text), n)
        assert est.value.sign == 1
        assert est.value.log_abs.hex() == PINNED[f"hayman {text} {n}"]
        assert est.meta["t"].hex() == PINNED[f"hayman {text} {n} t"]

    # the saddle pool's Wab queries, from before the a >= 2 laws were fixed
    @pytest.mark.parametrize("text,n", [("Wab:1,1", 10_000), ("Wab:1,1", 100_000),
                                        ("Wab:1,2", 100_000)])
    def test_baez_duarte(self, fam64, text, n):
        est = A.baez_duarte_estimate(fam64(text), n)
        assert est.value.log_abs.hex() == PINNED[f"bd {text} {n}"]

    def test_fulcrum_derivatives(self, fam64):
        got = F.fulcrum_derivs(fam64("Q"), math.log(0.95), 4)
        assert [x.hex() for x in got] == PINNED["fulcrum Q ln 0.95"]

    def test_cut_diagnostics(self, fam64):
        got = A.cut_diagnostics(fam64("Q"), 0.6, 0.5, 256)
        assert [x.hex() for x in got] == PINNED["cuts Q 0.6 0.5 256"]


class TestGaussianityRatio:
    def test_exponential_inverse_root(self):
        fam = make_family(parse_family("exp"), trunc=8)
        for t in (4.0, 100.0):
            assert abs(A.gaussianity_ratio(fam, t) - t**-0.5) < 1e-9

    def test_partition_small_s_law(self):
        fam = make_family(parse_family("P"), trunc=8)
        got = A.gaussianity_ratio(fam, math.exp(-0.01))
        want = 3.0 / math.sqrt(2.0 * zeta_real(2.0)) * 0.1
        assert abs(got / want - 1.0) < 0.1

    def test_bell_tends_to_zero(self):
        fam = make_family(parse_family("bell"), trunc=8)
        vals = [A.gaussianity_ratio(fam, t) for t in (2.0, 5.0, 10.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05


class TestCutDiagnostics:
    def test_poisson_major_arc_shrinks(self):
        fam = make_family(parse_family("exp"), trunc=8)
        majors = []
        for t in (1e2, 1e3, 1e4):
            major, _ = A.cut_diagnostics(fam, t, t**-0.4, grid=512)
            majors.append(major)
        assert majors[0] > majors[1] > majors[2]
        assert majors[2] < 0.04  # frozen: 0.0264 (decay law t^{1-3a}/6)

    def test_poisson_both_shrink_with_wider_cut(self):
        # alpha = 0.35 keeps the minor-arc bound decreasing on this grid
        fam = make_family(parse_family("exp"), trunc=8)
        pairs = [A.cut_diagnostics(fam, t, t**-0.35, grid=512) for t in (1e2, 1e3, 1e4)]
        assert pairs[0][0] > pairs[1][0] > pairs[2][0]
        assert pairs[0][1] > pairs[1][1] > pairs[2][1]
        assert pairs[2][1] < 0.05  # frozen: 0.0362

    def test_full_cut_empties_minor_arc(self):
        fam = make_family(parse_family("exp"), trunc=8)
        _, minor = A.cut_diagnostics(fam, 100.0, math.pi, grid=64)
        assert minor == 0.0

    def test_partition_major_arc_trend(self):
        fam = make_family(parse_family("P"), trunc=8)
        vals = []
        for s in (0.1, 0.05):
            major, _ = A.cut_diagnostics(fam, math.exp(-s), s**1.4, grid=256)
            vals.append(major)
        assert vals[0] > vals[1]
        assert vals[1] < 1.1  # frozen: 0.950; the approach to 0 is O(s^0.2)

    @pytest.mark.parametrize("spec", ["Wab:1,1", "Wab:1,2"])
    def test_overflow_is_a_domain_error(self, spec):
        # sigma is in the hundreds at t = 0.9, so e^{theta^2/2} overflows
        fam = make_family(parse_family(spec), trunc=8)
        with pytest.raises(DomainError):
            A.cut_diagnostics(fam, 0.9, 0.5)


# -- one Gaussian body ---------------------------------------------------------------
#
# The float expressions each estimator wrote out by hand before they shared
# ``saddle_log``, kept as the oracle of the body. Hayman's is the body's own
# order of evaluation, so it agrees bit for bit. The others sum the same
# terms in another order, so they agree to 1e-15 relative to the largest
# term, max(|ln|, n |ln psi(tau)|): at n = 2 the ln of an O(1) coefficient is
# a difference of O(1) terms, and the tilt of ``general`` cancels terms a few
# times the size of the result.

_TWO_PI = 2.0 * math.pi


def _hand_hayman(fam, n):
    sp = A.saddle_solve(fam, float(n))
    return (math.log(fam.q_gcd) + sp.log_f - n * math.log(sp.t)
            - 0.5 * math.log(_TWO_PI * sp.variance))


def _hand_bd(fam, n):
    approx = C.approx_moments(fam.spec)
    s_n = approx.s_for_mean(float(n))
    tau = math.exp(-s_n)
    return (fam.log_value(tau) - n * math.log(tau) - 0.5 * math.log(_TWO_PI)
            - math.log(approx.sigma_tilde(s_n)))


def _hand_power(psi, n, k, tau, sigma2, extra_log=0.0, sqrt_term=None):
    # the gcd factor is 1 on every family here
    ln = -0.5 * math.log(_TWO_PI) + n * psi.log_value(tau) - k * math.log(tau) + extra_log
    return ln - (math.log(sqrt_term) if sqrt_term is not None else 0.5 * math.log(n * sigma2))


def _hand_omm(psi, n):
    ap = L.apex(psi)
    return (math.log(psi.q_gcd) - 0.5 * math.log(_TWO_PI) + math.log(ap.tau)
            - math.log(math.sqrt(ap.sigma2)) - 1.5 * math.log(n)
            + n * (psi.log_value(ap.tau) - math.log(ap.tau)))


def _hand_lagrange_power(psi, q, n):
    ap = L.apex(psi)
    return (math.log(q) - 0.5 * math.log(_TWO_PI) + q * math.log(ap.tau)
            - 0.5 * math.log(ap.sigma2) - 1.5 * math.log(n)
            + n * (psi.log_value(ap.tau) - math.log(ap.tau)))


def _hand_func(h, psi, n):
    ap = L.apex(psi)
    h_prime = math.exp(h.log_value(ap.tau)) * h.mean(ap.tau) / ap.tau
    return (-0.5 * math.log(_TWO_PI) + math.log(h_prime) + math.log(ap.tau)
            - math.log(math.sqrt(ap.sigma2)) - 1.5 * math.log(n)
            + n * (psi.log_value(ap.tau) - math.log(ap.tau)))


def _hand_general(spec, n):
    psi, t, s = spec.psi, spec.t, spec.s
    ap = L.apex(psi)
    tau = ap.tau
    if spec.monomial_j is not None:
        j = spec.monomial_j
        log_s_over_f = (1 - j) * math.log(s)
        log_fprime = math.log(j) + (j - 1) * (math.log(s) + math.log(tau) - math.log(t))
    else:
        f = spec.initial
        log_s_over_f = math.log(s) - f.log_value(s)
        x = s * tau / t
        log_fprime = math.log(math.exp(f.log_value(x)) * f.mean(x) / x)
    return (-0.5 * math.log(_TWO_PI) + log_s_over_f
            + n * (psi.log_value(tau) - psi.log_value(t))
            + (n - 1) * (math.log(t) - math.log(tau)) - 1.5 * math.log(n)
            - math.log(math.sqrt(ap.sigma2)) + log_fprime)


BODY_FAMILIES = ("exp", "geom", "bell", "P", "binom:4")
BODY_NS = (2, 50, 500)


def _body_cases(text):
    """(name, estimate ln, hand-written ln) for every estimator that applies."""
    fam = make_family(parse_family(text), trunc=8)
    expf = make_family(parse_family("exp"), trunc=8)
    for n in BODY_NS:
        if n < fam.mean_sup:
            yield f"hayman {n}", A.hayman_estimate(fam, n), _hand_hayman(fam, n)
        if text in ("bell", "P"):
            yield f"bd {n}", A.baez_duarte_estimate(fam, n), _hand_bd(fam, n)
        q = LP.PowerCoeffQuery(fam, n, n)
        sp = A.saddle_solve(fam, 1.0)
        yield (f"comparable {n}", LP.estimate_comparable(q, 0.5, 2.0),
               _hand_power(fam, n, n, sp.t, sp.variance))
        yield (f"limit_l {n}", LP.estimate_limit_l(q, 1.0, 0.5),
               _hand_power(fam, n, n, sp.t, sp.variance, -0.125 / sp.variance))
        if n >= 50:
            q = LP.PowerCoeffQuery(fam, n, n // 20)
            sp = A.saddle_solve(fam, (n // 20) / n)
            yield (f"small_k {n}", LP.estimate_small_k(q),
                   _hand_power(fam, n, n // 20, sp.t, sp.variance, sqrt_term=math.sqrt(n // 20)))
        if fam.usg:
            q = LP.PowerCoeffQuery(fam, n, 20 * n)
            sp = A.saddle_solve(fam, 20.0)
            yield (f"large_k {n}", LP.estimate_large_k(q),
                   _hand_power(fam, n, 20 * n, sp.t, sp.variance))
        yield f"omm {n}", L.omm_estimate(fam, n), _hand_omm(fam, n)
        yield f"power {n}", L.power_asym(fam, 2, n), _hand_lagrange_power(fam, 2, n)
        yield f"func {n}", L.func_asym(expf, fam, n), _hand_func(expf, fam, n)
        t = 0.5 * L.apex(fam).tau
        for spec in (L.LagrangianSpec(fam, t, 1.0, monomial_j=2),
                     L.LagrangianSpec(fam, t, 0.5, initial=expf)):
            yield f"general {n} j={spec.monomial_j}", L.general_lagrangian_asym(spec, n), \
                _hand_general(spec, n)


class TestSaddleBody:
    def test_formula_and_order(self):
        # lead + n ln psi - k ln tau - ln(2 pi n var) / 2, left to right
        want = 0.25 + 7 * 1.5 - 3 * math.log(0.8) - 0.5 * math.log(_TWO_PI * 7 * 2.5)
        assert A.saddle_log(0.25, 7, 1.5, 3, 0.8, 2.5) == want

    @pytest.mark.parametrize("text", BODY_FAMILIES)
    def test_every_estimator_matches_its_hand_written_sum(self, text):
        psi = make_family(parse_family(text), trunc=8)
        names = set()
        for name, est, hand in _body_cases(text):
            names.add(name.split()[0])
            assert est.value.sign == 1, name
            if name.startswith("hayman"):
                assert est.value.log_abs.hex() == hand.hex(), name
                continue
            n, tau = est.meta["n"], est.meta["tau"]
            scale = max(abs(hand), n * abs(psi.log_value(tau)))
            assert abs(est.value.log_abs - hand) <= 1e-15 * scale, name
        assert {"comparable", "limit_l", "omm", "power", "func", "general"} <= names
