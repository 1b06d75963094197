"""Acceptance self-test: one callable per criterion, shared by the CLI
``selftest`` verb and the pytest acceptance module.

Expected bands tagged "frozen" below were computed from the exact oracles
(pentagonal recurrence, product expansions, Bell triangle, binary powers)
before being written down; none are invented.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import asym as A
from . import catalog as C
from . import family as F
from . import lagrange as L
from . import large_powers as LP
from . import series as S
from .errors import ZeroInSector
from .numerics import LogNumber, finite_diff


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _result(number: int, name: str, checks: list[tuple[bool, str]]) -> CriterionResult:
    passed = all(ok for ok, _ in checks)
    bad = [msg for ok, msg in checks if not ok]
    good = [msg for ok, msg in checks if ok]
    detail = "; ".join(bad if bad else good[:4])
    return CriterionResult(number, name, passed, detail)


def criterion_1() -> CriterionResult:
    """Stirling via the saddle estimate for e^z."""
    start = time.time()
    fam = C.make_family(C.parse_family("exp"), trunc=8)
    checks = []
    for n in (10, 50, 100, 500):
        est = A.hayman_estimate(fam, n)
        exact = LogNumber.from_fraction(Fraction(1, math.factorial(n)))
        r = exact.ratio(est.value)
        checks.append((abs(r - 1.0) <= 1.0 / (8 * n), f"n={n} ratio={r:.6f}"))
    elapsed = time.time() - start
    checks.append((elapsed < 1.0, f"runtime {elapsed:.2f}s"))
    return _result(1, "factorial saddle estimate", checks)


def criterion_2() -> CriterionResult:
    """Hardy-Ramanujan closed form against exact partition numbers."""
    start = time.time()
    pc = C.exact_coeffs(C.parse_family("P"), 1000)
    ratios = {}
    for n in (50, 100, 200, 500, 1000):
        est = A.closed_partition_asym("hr", n)
        exact = LogNumber.from_fraction(Fraction(pc.coeff(n)))
        ratios[n] = est.value.ratio(exact)
    elapsed = time.time() - start
    seq = [ratios[n] for n in (50, 100, 200, 500, 1000)]
    checks = [
        (1.02 <= ratios[100] <= 1.07, f"ratio(100)={ratios[100]:.4f}"),
        (all(a > b for a, b in zip(seq, seq[1:])), f"decreasing {['%.4f' % r for r in seq]}"),
        (ratios[1000] < 1.03, f"ratio(1000)={ratios[1000]:.4f}"),
        (elapsed < 5.0, f"runtime {elapsed:.2f}s"),
    ]
    return _result(2, "Hardy-Ramanujan closed form", checks)


def criterion_3() -> CriterionResult:
    """Closed-saddle (Baez-Duarte) vs exact-saddle estimates for partitions."""
    fam = C.make_family(C.parse_family("P"), trunc=8)
    checks = []
    for n in (100, 500, 1000):
        bd = A.baez_duarte_estimate(fam, n)
        hay = A.hayman_estimate(fam, n)
        ratio = math.exp(bd.value.log_abs - hay.value.log_abs)
        checks.append((abs(ratio - 1.0) <= 0.01, f"n={n} ratio={ratio:.4f}"))
    return _result(3, "closed-saddle vs exact-saddle agreement", checks)


def criterion_4() -> CriterionResult:
    """Distinct-part and plane-partition closed forms vs exact counts."""
    qc = C.exact_coeffs(C.parse_family("Q"), 500)
    mc = C.exact_coeffs(C.parse_family("Wab:1,1"), 500)
    grid = (50, 100, 200, 500)
    dq = [
        A.closed_partition_asym("distinct", n).value.ratio(
            LogNumber.from_fraction(Fraction(qc.coeff(n)))
        )
        for n in grid
    ]
    dm = [
        A.closed_partition_asym("wright_plane", n).value.ratio(
            LogNumber.from_fraction(Fraction(mc.coeff(n)))
        )
        for n in grid
    ]
    checks = [
        (all(a > b for a, b in zip(dq, dq[1:])), f"distinct {['%.4f' % r for r in dq]}"),
        (all(a > b for a, b in zip(dm, dm[1:])), f"plane {['%.4f' % r for r in dm]}"),
        # frozen from the product-expansion oracle
        (1.020 <= dq[0] <= 1.033 and dq[-1] <= 1.010, "distinct band"),
        (1.012 <= dm[0] <= 1.024 and dm[-1] <= 1.006, "plane band"),
    ]
    return _result(4, "distinct and plane partition closed forms", checks)


def criterion_5() -> CriterionResult:
    """Bell-number closed form (Lambert-point saddle) vs the Bell triangle."""
    bells = C.bell_numbers(200)
    grid = (20, 50, 100, 200)
    errs = []
    for n in grid:
        est = A.moser_wyman(n)
        exact = LogNumber.from_fraction(Fraction(bells[n], math.factorial(n)))
        errs.append(abs(exact.ratio(est.value) - 1.0))
    checks = [
        (all(a > b for a, b in zip(errs, errs[1:])), f"decreasing {['%.5f' % e for e in errs]}"),
        # frozen from the Bell-triangle oracle
        (0.012 <= errs[0] <= 0.019 and errs[-1] <= 0.004, "band"),
    ]
    return _result(5, "Bell-number closed form", checks)


def criterion_6() -> CriterionResult:
    """Lagrange exactness triangle: formula = fixed point = extended form."""
    order = 64
    data = {
        "exp": C.exact_coeffs(C.parse_family("exp"), order),
        "1+z": C.exact_coeffs(C.parse_family("poly:1,1"), order),
        "geom": C.exact_coeffs(C.parse_family("geom"), order),
        "1+z+z2": C.exact_coeffs(C.parse_family("poly:1,1,1"), order),
    }
    ident = S.CoeffSeries.from_list([0, 1], order=order)
    checks = []
    for name, psi in data.items():
        formula = S.lagrange_invert(psi, order)
        fixed = S.lagrange_fixed_point(psi, order)
        ext = [L.extended_coeff(ident, psi, n) for n in range(1, order + 1)]
        ok = formula == fixed and all(
            formula.coeff(n) == ext[n - 1] for n in range(1, order + 1)
        )
        checks.append((ok, name))
    return _result(6, "Lagrange exactness triangle", checks)


def criterion_7() -> CriterionResult:
    """Tree-coefficient asymptotics for Poisson offspring."""
    fam = C.make_family(C.parse_family("exp"), trunc=8)
    checks = []
    for n in (5, 20, 100):
        est = L.omm_estimate(fam, n)
        exact = LogNumber.from_log((n - 1) * math.log(n) - math.lgamma(n + 1))
        r = exact.ratio(est.value)
        checks.append((abs(r - 1.0) <= 1.0 / (4 * n), f"n={n} ratio={r:.5f}"))
    return _result(7, "tree-coefficient asymptotics", checks)


def criterion_8() -> CriterionResult:
    """Borel-Tanner pmf identity (exact) and its asymptotic at n = 200."""
    checks = []
    exact_ok = True
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        psi_rat = S.CoeffSeries.from_list(
            [t**i / math.factorial(i) for i in range(60)]
        )  # e^{t z}: the tilted pgf with e^{-t} factored out
        for j in (1, 2, 3):
            for n in range(j, j + 20):
                lhs = L.borel_tanner_rational_part(t, j, n)
                rhs = Fraction(j, n) * S.power_coeff(psi_rat, n, n - j)
                if lhs != rhs:
                    exact_ok = False
    checks.append((exact_ok, "pmf identity exact on the 3x3x20 grid"))
    for t in (0.25, 0.5, 1.0):
        for j in (1, 2, 3):
            ratio = L.borel_tanner_pmf(t, j, 200) / L.borel_tanner_asym(t, j, 200).value.to_float()
            checks.append((abs(ratio - 1.0) <= 0.02, f"t={t} j={j} ratio={ratio:.4f}"))
    return _result(8, "Borel-Tanner identity and asymptotics", checks)


def criterion_9() -> CriterionResult:
    """Central binomial coefficients in the comparable regime.

    Ratio convention: exact/estimate, as used for every estimator-vs-oracle
    comparison in this package. (The reversed ratio exceeds the 1/(4n) band
    by its second-order term 1/(32 n^2); see the test notes.)
    """
    binom = C.make_family(C.parse_family("poly:1,1"), trunc=8)
    checks = []
    for n in (100, 1000):
        k = n // 2
        est = LP.estimate_limit_l(LP.PowerCoeffQuery(binom, n, k), 0.5, 0.0)
        exact = LogNumber.from_fraction(Fraction(math.comb(n, k)))
        r = exact.ratio(est.value)
        checks.append((abs(r - 1.0) <= 1.0 / (4 * n), f"n={n} ratio={r:.7f}"))
    n, lam = 10_000, 1.0
    k = int(n / 2 + lam * math.sqrt(n))
    est = LP.estimate_limit_l(LP.PowerCoeffQuery(binom, n, k), 0.5, lam)
    exact = LogNumber.from_fraction(Fraction(math.comb(n, k)))
    r = exact.ratio(est.value)
    checks.append((abs(r - 1.0) <= 0.05, f"drift correction ratio={r:.5f}"))
    return _result(9, "central binomial comparable regime", checks)


def criterion_10() -> CriterionResult:
    """Small-k refined estimate for e^z and exact fixed-k polynomials."""
    expf = C.make_family(C.parse_family("exp"), trunc=128)
    n = 10_000
    k = int(math.sqrt(n))
    est = LP.estimate_small_k_refined(LP.PowerCoeffQuery(expf, n, k), 2)
    exact = LogNumber.from_log(k * math.log(n) - math.lgamma(k + 1))
    r = est.value.ratio(exact)
    checks = [(abs(r - 1.0) <= 0.02, f"refined ratio={r:.5f}")]
    bs = LP.series_b_coefficients(expf.coeffs.truncate(4), 2)
    checks.append((bs[1] == 0, "second expansion coefficient vanishes for e^z"))
    specs = ("poly:1,1", "poly:1,1,1", "poly:1,0,1", "exp")
    grid_ok = True
    for sp in specs:
        psi = C.exact_coeffs(C.parse_family(sp), 16)
        fam = C.make_family(C.parse_family(sp), trunc=16)
        for k2 in range(1, 9):
            poly = LP.fixed_k_polynomial(psi, k2)
            for n2 in (1, 2, 5, 10, 25, 50):
                q = LP.PowerCoeffQuery(fam, n2, k2)
                if poly.value_at(n2) != LP.exact_power_coeff(q):
                    grid_ok = False
    checks.append((grid_ok, "fixed-k polynomial equals the power oracle exactly"))
    return _result(10, "small-k and fixed-k regimes", checks)


def criterion_11() -> CriterionResult:
    """Method invariants: normalization, variance law, moments, operations,
    characteristic function bounds, diagnostics monotonicity, tail bounds."""
    start = time.time()
    checks = []

    fams = {
        "exp": (C.make_family(C.parse_family("exp"), trunc=256), [0.5, 2.0, 5.0, 20.0]),
        "geom": (C.make_family(C.parse_family("geom"), trunc=256), [0.2, 0.5, 0.8]),
        "bell": (C.make_family(C.parse_family("bell"), trunc=256), [0.5, 1.5, 3.0]),
        "P": (C.make_family(C.parse_family("P"), trunc=256), [0.3, 0.5, 0.7]),
        "Q": (C.make_family(C.parse_family("Q"), trunc=256), [0.3, 0.5, 0.7]),
    }

    # mass normalization against the certified tail bound, 20 radii per
    # family; the top radius keeps mean + 10 sigma inside the truncation
    norm_ok = True
    norm_top = {"exp": 40.0, "geom": 0.8, "bell": 3.0, "P": 0.8, "Q": 0.8}
    for name, (fam, ts) in fams.items():
        hi = norm_top[name]
        radii = [hi * (i + 1) / 20 for i in range(20)]
        for t in radii:
            total, tail = F.mass_total(fam, t)
            if not (total <= 1.0 + 1e-12 and total + tail >= 1.0 - 1e-9):
                norm_ok = False
    checks.append((norm_ok, "mass normalization with tail bound"))

    # variance = t * d(mean)/dt by finite differences
    var_ok = True
    for name, (fam, ts) in fams.items():
        for t in ts:
            h = 1e-6 * t
            fd = t * finite_diff(fam.mean, t, h)
            if abs(fd - fam.variance(t)) > 1e-6 * max(1.0, fam.variance(t)):
                var_ok = False
    checks.append((var_ok, "variance equals t * mean-slope"))

    # Stirling-route moments equal direct mass-weighted sums
    mom_ok = True
    for name, (fam, ts) in fams.items():
        t = ts[0]
        for k in (1, 2, 3, 4):
            direct = F._direct_weighted_sum(fam, t, lambda x: x**k)
            if abs(F.moment(fam, t, k) - direct) > 1e-8 * max(1.0, abs(direct)):
                mom_ok = False
    checks.append((mom_ok, "moments match direct sums"))

    # product and power-substitution laws via coefficient-built families
    geom_c = C.exact_coeffs(C.parse_family("geom"), 256)
    p_c = C.exact_coeffs(C.parse_family("P"), 256)
    prod = F.family_from_coeffs(S.mul(geom_c, p_c), radius=1.0)
    gf = fams["geom"][0]
    pf = fams["P"][0]
    t = 0.3
    prod_ok = (
        abs(prod.mean(t) - (gf.mean(t) + pf.mean(t))) <= 1e-10 * (1 + prod.mean(t))
        and abs(prod.variance(t) - (gf.variance(t) + pf.variance(t)))
        <= 1e-10 * (1 + prod.variance(t))
    )
    sub_c = S.CoeffSeries.from_list(
        [geom_c.coeff(n // 3) if n % 3 == 0 else 0 for n in range(300)]
    )
    sub = F.family_from_coeffs(sub_c, radius=1.0)
    t = 0.5
    sub_ok = (
        abs(sub.mean(t) - 3.0 * gf.mean(t**3)) <= 1e-10 * (1 + sub.mean(t))
        and abs(sub.variance(t) - 9.0 * gf.variance(t**3)) <= 1e-10 * (1 + sub.variance(t))
    )
    checks.append((prod_ok, "product law for mean and variance"))
    checks.append((sub_ok, "power-substitution law for mean and variance"))

    # characteristic function bounds
    cf_ok = True
    for name, (fam, ts) in fams.items():
        for t in ts[:2]:
            for theta in (0.0, 0.3, 1.0, 2.5, 3.1):
                v = abs(F.charfn(fam, t, theta))
                if v > 1.0 + 1e-9:
                    cf_ok = False
            if abs(F.charfn(fam, t, 0.0) - 1.0) > 1e-12:
                cf_ok = False
    checks.append((cf_ok, "characteristic function stays in the unit disk"))

    # zero-free sector grid check
    zf_ok = True
    try:
        for name, (fam, ts) in fams.items():
            for t in ts[:2]:
                F.zero_free_halfwidth(fam, t)
    except ZeroInSector:
        zf_ok = False
    checks.append((zf_ok, "zero-free sector verified on the grid"))

    # local limit diagnostics decrease along the exponential's radius grid
    expf = C.make_family(C.parse_family("exp"), trunc=1400)
    clt = [A.local_clt_sup(expf, t) for t in (10.0, 100.0, 1000.0)]
    sg = [A.strong_gaussian_integral(expf, t) for t in (10.0, 100.0, 1000.0)]
    checks.append((clt[0] > clt[1] > clt[2], f"local limit sup {['%.4f' % v for v in clt]}"))
    checks.append((sg[0] > sg[1] > sg[2], f"gaussian integral {['%.4f' % v for v in sg]}"))

    # Chernoff bound dominates the empirical tail mass
    ch_ok = True
    for name, t, lam in (("exp", 1.0, 1.0), ("P", 0.5, 0.3)):
        fam = fams[name][0]
        m = fam.mean(t)
        for y in (2.0, 5.0, 10.0):
            bound = F.chernoff_bound(fam, t, y, lam)
            tail = F._direct_weighted_sum(fam, t, lambda x: 1.0 if abs(x - m) > y else 0.0)
            if tail > bound + 1e-12:
                ch_ok = False
    checks.append((ch_ok, "Chernoff bound dominates empirical tails"))

    elapsed = time.time() - start
    checks.append((elapsed < 60.0, f"runtime {elapsed:.1f}s"))
    return _result(11, "property suite", checks)


def criterion_12() -> CriterionResult:
    """Monte Carlo: branching sampler against the exact progeny law."""
    expf = C.make_family(C.parse_family("exp"), trunc=64)
    spec = L.LagrangianSpec(psi=expf, t=0.5, s=1.0, monomial_j=1)
    trials = 100_000
    res = L.gw_sample(spec, trials, seed=20240817)
    emp = res.empirical_pmf()
    checks = []
    cell_ok = True
    for n in range(1, 60):
        p = L.borel_tanner_pmf(0.5, 1, n)
        if p < 1e-3:
            continue
        dev = abs(emp.get(n, 0.0) - p)
        if dev > 4.0 * math.sqrt(p * (1.0 - p) / trials):
            cell_ok = False
            checks.append((False, f"cell {n}: dev {dev:.2e}"))
    checks.append((cell_ok, "cells within four binomial deviations"))
    replay = L.gw_sample(spec, trials, seed=20240817)
    bytes_a = json.dumps(sorted(res.counts.items())).encode()
    bytes_b = json.dumps(sorted(replay.counts.items())).encode()
    checks.append((bytes_a == bytes_b and res.censored == replay.censored, "byte-identical replay"))
    return _result(12, "Monte Carlo cross-check", checks)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
)


def run_selftest(numbers: list[int] | None = None) -> list[CriterionResult]:
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers is not None and i not in numbers:
            continue
        results.append(fn())
    return results
