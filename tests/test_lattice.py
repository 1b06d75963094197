"""The support-lattice rule of every saddle estimate (``asym.lattice_lead``).

When psi(z) = psi_1(z^g), [z^m] h psi^n is g times the one-peak Gaussian
saddle value on the lattice and 0 off it. Every estimator takes this from
the one helper: it adds ln g on the lattice, refuses an index off it with
``QGcdViolation`` and refuses a factor h spread over several residue
classes mod g with ``MixedResidueClasses``. The checks run against the exact oracles.
"""

import ast
import functools
import math
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khinfam import asym as A
from khinfam import cli
from khinfam import family as F
from khinfam import lagrange as L
from khinfam import large_powers as LP
from khinfam import series as S
from khinfam.catalog import exact_coeffs, make_family, parse_family
from khinfam.errors import (
    DomainError,
    KhinfamError,
    MixedResidueClasses,
    QGcdViolation,
)
from khinfam.numerics import log_of_fraction

# psi = 1 + z^2 (a polynomial), P(z^2) (radius 1, infinite mean limit) and
# e^{z^2} (entire): each has support gcd 2. The boundary regime of
# large_powers needs a finite radius and a finite mean limit, which none of
# them has, so it is left out of the matrix.
PSIS = ("poly:1,0,1", "Wab:2,0", "expof:poly:0,0,1")
H = "poly:1,0,1"  # an outer H, initial f or prefactor h on the even indices
MIXED = "poly:1,1"  # one on both residue classes mod 2


@functools.lru_cache(maxsize=None)
def fam(text: str) -> F.Family:
    return make_family(parse_family(text), trunc=400)


@functools.lru_cache(maxsize=None)
def ser(text: str, order: int) -> S.CoeffSeries:
    return exact_coeffs(parse_family(text), order)


def monomial(j: int, order: int) -> S.CoeffSeries:
    return S.CoeffSeries.from_list([0] * j + [1], order=max(order, j))


def tilt(psi: str) -> float:
    """Half the apex of psi, a binary fraction, so psi_t has exact data."""
    return L.apex(fam(psi)).tau / 2


def general(psi: str, n: int, initial: str | None) -> float:
    """ln P(Z = n) of the Lagrangian law with offspring psi tilted at t,
    from the exact coefficient: (1/n) [z^{n-1}] f_s' psi_t^n with s = 1."""
    t = Fraction(tilt(psi))
    if initial is None:  # f = z^2
        ext = L.extended_coeff(monomial(2, n), ser(psi, n), n)
        return log_of_fraction(ext / t**2) + n * math.log(t) - n * fam(psi).log_value(t)
    f = ser(initial, n)
    scaled = S.CoeffSeries(tuple(c / t**i for i, c in enumerate(f.coeffs)))
    ext = L.extended_coeff(scaled, ser(psi, n), n)
    return (log_of_fraction(ext) + n * math.log(t) - fam(initial).log_value(1.0)
            - n * fam(psi).log_value(t))


def spec(psi: str, initial: str | None) -> L.LagrangianSpec:
    if initial is None:
        return L.LagrangianSpec(psi=fam(psi), t=tilt(psi), s=1.0, monomial_j=2)
    return L.LagrangianSpec(psi=fam(psi), t=tilt(psi), s=1.0, initial=fam(initial))


def power_ln(psi: str, n: int, k: int, h: str | None = None) -> float:
    """ln [z^k] h psi^n, exactly."""
    return log_of_fraction(S.power_coeff(ser(psi, k), n, k, None if h is None else ser(h, k)))


def power_of(psi: str, k: int) -> int:
    """The power n of the large_powers rows at index k: n = k, which stays
    below the mean limit 2 of 1 + z^2, or k // 2 on P(z^2)."""
    return k // 2 if psi == "Wab:2,0" else k


def comparable(psi: str, k: int, h: str | None = None):
    q = LP.PowerCoeffQuery(fam(psi), power_of(psi, k), k, None if h is None else fam(h))
    r = k / q.n
    if h is None:
        return LP.estimate_comparable(q, r / 2, 1.5 * r)
    return LP.estimate_with_prefactor(q, LP.Regime("comparable", a=r / 2, b=1.5 * r))


# name -> (estimate at index m, exact ln at m).
# m is the index the lattice rule reads: n for hayman and bd, n - 1 of
# [z^(n-1)] psi^n for omm, n - 2 of [z^(n-2)] psi^n for power q = 2, n of
# coeff_n H(T) and P(Z = n) for func and general, k for large_powers.
CASES = {
    "hayman": (lambda p, m: A.hayman_estimate(fam(p), m),
               lambda p, m: log_of_fraction(ser(p, m).coeff(m))),
    "baez-duarte": (lambda p, m: A.baez_duarte_estimate(fam(p), m),
                    lambda p, m: log_of_fraction(ser(p, m).coeff(m))),
    "omm": (lambda p, m: L.omm_estimate(fam(p), m + 1),
            lambda p, m: log_of_fraction(L.extended_coeff(monomial(1, m + 1),
                                                          ser(p, m + 1), m + 1))),
    "power": (lambda p, m: L.power_asym(fam(p), 2, m + 2),
              lambda p, m: log_of_fraction(L.extended_coeff(monomial(2, m + 2),
                                                            ser(p, m + 2), m + 2))),
    "func": (lambda p, m: L.func_asym(fam(H), fam(p), m),
             lambda p, m: log_of_fraction(L.extended_coeff(ser(H, m), ser(p, m), m))),
    "general-j": (lambda p, m: L.general_lagrangian_asym(spec(p, None), m),
                  lambda p, m: general(p, m, None)),
    "general-f": (lambda p, m: L.general_lagrangian_asym(spec(p, H), m),
                  lambda p, m: general(p, m, H)),
    "comparable": (comparable, lambda p, m: power_ln(p, power_of(p, m), m)),
    "limit_l": (lambda p, m: LP.estimate_limit_l(
                    LP.PowerCoeffQuery(fam(p), power_of(p, m), m), m / power_of(p, m), 0.0),
                lambda p, m: power_ln(p, power_of(p, m), m)),
    "prefactor": (lambda p, m: comparable(p, m, H),
                  lambda p, m: power_ln(p, power_of(p, m), m, H)),
}
# hayman and baez-duarte estimate psi's own coefficients: a polynomial has
# no saddle past its degree, and only the partition shape has approximate
# laws.
MATRIX = [(name, p) for name in CASES for p in PSIS
          if not (name == "hayman" and p == "poly:1,0,1")
          and not (name == "baez-duarte" and p != "Wab:2,0")]


@pytest.mark.parametrize("name,psi", MATRIX)
def test_on_the_lattice_the_estimate_carries_g(name, psi):
    # exact / estimate lies in (0.9, 1.1) at both indices and moves toward 1
    # as the index grows; without ln 2 it would be about 2. Measured: 0.916
    # (bd on P(z^2)) to 1.011 at 40, 0.957 to 1.003 at 160.
    est, exact = CASES[name]
    ratios = [math.exp(exact(psi, m) - est(psi, m).value.log_abs) for m in (40, 160)]
    assert all(0.9 < r < 1.1 for r in ratios), ratios
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0), ratios


@pytest.mark.parametrize("name,psi", MATRIX)
def test_off_the_lattice_the_estimator_refuses_with_its_error(name, psi):
    est, exact = CASES[name]
    with pytest.raises(DomainError):
        exact(psi, 41)  # the exact coefficient is 0, which has no log
    with pytest.raises(QGcdViolation):
        est(psi, 41)


@pytest.mark.parametrize("call", [
    lambda: L.func_asym(fam(MIXED), fam("poly:1,0,1"), 20),
    lambda: L.func_asym(fam(MIXED), fam("poly:1,0,1"), 21),
    lambda: L.general_lagrangian_asym(spec("poly:1,0,1", MIXED), 20),
    lambda: LP.estimate_with_prefactor(
        LP.PowerCoeffQuery(fam("poly:1,0,1"), 100, 50, prefactor=fam(MIXED)),
        LP.Regime("comparable", a=0.1, b=1.9)),
    lambda: LP.estimate_with_prefactor(
        LP.PowerCoeffQuery(fam("poly:1,0,1"), 100, 51, prefactor=fam(MIXED)),
        LP.Regime("comparable", a=0.1, b=1.9)),
], ids=["func-even", "func-odd", "general-f", "prefactor-even", "prefactor-odd"])
def test_a_factor_on_several_residue_classes_is_refused(call):
    with pytest.raises(MixedResidueClasses):
        call()


def test_the_helper_refuses_mixed_classes_before_the_index():
    with pytest.raises(MixedResidueClasses):
        A.lattice_lead(2, 3, h_gcd=1)
    with pytest.raises(QGcdViolation):
        A.lattice_lead(2, 3, h_gcd=2)
    assert A.lattice_lead(2, 3, h_gcd=4, shift=-1) == math.log(2)
    assert A.lattice_lead(1, 7, h_gcd=3, shift=5) == 0.0
    assert A.lattice_lead(3, 7, shift=1) == math.log(3)


# -- the rule against the exact oracles, on random polynomials -------------------


@st.composite
def lattice_data(draw):
    """psi = sum a_i z^(g i) with every a_i > 0 up to degree g d, so each
    coefficient of psi^n up to n g d is nonzero on the lattice and 0 off it.
    h = sum b_i z^(g i) with b_0, b_1 > 0, plus one off-lattice term when
    mixed; n and k stay inside exact reach."""
    g = draw(st.sampled_from((1, 2, 3)))
    d = draw(st.integers(1, 3))
    a = [0] * (g * d + 1)
    for i in range(d + 1):
        a[g * i] = draw(st.integers(1, 4))
    b = [0] * (2 * g + 1)
    b[0], b[g] = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    b[2 * g] = draw(st.integers(0, 3))
    if g > 1 and draw(st.booleans()):
        b[draw(st.sampled_from([r for r in range(1, 2 * g + 1) if r % g]))] = 1
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, g * d * n))
    return S.CoeffSeries.from_list(a), S.CoeffSeries.from_list(b), n, k


def _estimates(psi: S.CoeffSeries, h: S.CoeffSeries, n: int, k: int):
    """(estimate thunk, exact coefficient whose zeros it must respect)."""
    fp, fh = F.family_from_coeffs(psi, "psi"), F.family_from_coeffs(h, "h")
    top = fp.mean_sup * (1 - 1e-6)
    q, qh = LP.PowerCoeffQuery(fp, n, k), LP.PowerCoeffQuery(fp, n, k, prefactor=fh)
    z = functools.partial(monomial, order=n)
    yield (lambda: LP.estimate_comparable(q, 1e-6, top),
           lambda: S.power_coeff(psi, n, k))
    yield (lambda: LP.estimate_limit_l(q, k / n, 0.0), lambda: S.power_coeff(psi, n, k))
    yield (lambda: LP.estimate_with_prefactor(qh, LP.Regime("comparable", a=1e-6, b=top)),
           lambda: S.power_coeff(psi, n, k, h))
    yield (lambda: A.hayman_estimate(fp, k), lambda: psi.coeff(k) if k <= psi.order else 0)
    yield lambda: L.omm_estimate(fp, n), lambda: L.extended_coeff(z(1), psi, n)
    yield lambda: L.power_asym(fp, 2, n), lambda: L.extended_coeff(z(2), psi, n)
    yield lambda: L.func_asym(fh, fp, n), lambda: L.extended_coeff(h, psi, n)
    for initial, j, outer in ((None, 2, z(2)), (fh, None, h)):
        def general(initial=initial, j=j):
            t = min(L.apex(fp).tau, 2.0) / 2  # a linear psi's apex is at infinity
            return L.general_lagrangian_asym(
                L.LagrangianSpec(psi=fp, t=t, s=1.0, initial=initial, monomial_j=j), n)
        yield general, functools.partial(L.extended_coeff, outer, psi, n)


@settings(max_examples=100, deadline=None)
@given(lattice_data())
def test_an_estimate_is_returned_only_where_the_exact_coefficient_is_nonzero(data):
    psi, h, n, k = data
    for est, exact in _estimates(psi, h, n, k):
        try:
            value = est()
        except KhinfamError:
            continue
        assert exact() != 0, (psi.coeffs, h.coeffs, n, k, value)


# -- one home for the decision --------------------------------------------------

SRC = Path(A.__file__).resolve().parent
ESTIMATORS = {
    "asym.py": ("hayman_estimate", "baez_duarte_estimate"),
    "lagrange.py": ("omm_estimate", "power_asym", "func_asym", "general_lagrangian_asym"),
    "large_powers.py": ("estimate_comparable", "estimate_limit_l", "estimate_boundary",
                        "estimate_with_prefactor"),
}


def _calls(node: ast.AST, names: tuple[str, ...]) -> list[ast.Call]:
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and isinstance(c.func, ast.Name) and c.func.id in names]


@pytest.mark.parametrize("module", sorted(ESTIMATORS))
def test_the_support_gcd_is_read_only_by_the_lattice_helper(module):
    # q_gcd may appear only as an argument of lattice_lead or on_lattice;
    # _has_b1 uses it as a proxy for psi'(0) > 0 when psi has no coefficients
    tree = ast.parse((SRC / module).read_text())
    allowed = {id(a) for c in _calls(tree, ("lattice_lead", "on_lattice")) for a in c.args}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_has_b1":
            allowed |= {id(x) for x in ast.walk(fn)}
    stray = [x.lineno for x in ast.walk(tree)
             if isinstance(x, ast.Attribute) and x.attr == "q_gcd" and id(x) not in allowed]
    assert not stray, f"{module} reads q_gcd outside the lattice helper at lines {stray}"
    defs = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    for name in ESTIMATORS[module]:
        assert _calls(defs[name], ("lattice_lead",)), f"{name} skips the lattice rule"


# -- the CLI contract --------------------------------------------------------------


def run(line: str, capsys) -> tuple[int, str, str]:
    code = cli.main(shlex.split(line))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("line,exact,lo,hi", [
    # ln of the exact coefficient; exact / estimate was 1.79 and 1.98
    # before the ln 2 lead
    ("lagrange --op func --psi poly:1,0,1 --h poly:1,0,1 --n 20",
     lambda: L.extended_coeff(ser(H, 20), ser("poly:1,0,1", 20), 20), 0.89, 0.91),
    ("lagrange --op func --psi poly:1,0,1 --h poly:1,0,1 --n 200",
     lambda: L.extended_coeff(ser(H, 200), ser("poly:1,0,1", 200), 200), 0.985, 0.995),
    # P(Z = 200) = (2/200) [z^198] psi^200 0.5^198 / 1.25^200
    ("lagrange --op general --psi poly:1,0,1 --t 0.5 --s 1 --j 2 --n 200",
     lambda: Fraction(2, 200) * math.comb(200, 99) * Fraction(1, 2) ** 198
     / Fraction(5, 4) ** 200, 0.985, 0.995),
])
def test_lattice_estimates_printed_against_exact(line, exact, lo, hi, capsys):
    code, out, err = run(line, capsys)
    assert (code, err) == (0, "")
    ln = float(out.splitlines()[1].split()[2])
    assert lo < math.exp(log_of_fraction(exact()) - ln) < hi


@pytest.mark.parametrize("line,error", [
    # each printed a number with exit 0 for a zero coefficient
    ("lagrange --op func --psi poly:1,0,1 --h poly:1,0,1 --n 21", "QGcdViolation"),
    ("lagrange --op general --psi poly:1,0,1 --t 0.5 --s 1 --j 2 --n 21", "QGcdViolation"),
    # h = 1 + z spans both classes mod 2: k = 50 printed ratio 0.6317 with
    # exit 0, and k = 51, whose coefficient is not 0, was QGcdViolation
    ("largepow --psi poly:1,0,1 --h poly:1,1 --n 100 --k 50 --regime comparable:0.1,1.9",
     "MixedResidueClasses"),
    ("largepow --psi poly:1,0,1 --h poly:1,1 --n 100 --k 51 --regime comparable:0.1,1.9",
     "MixedResidueClasses"),
    ("lagrange --op func --psi poly:1,0,1 --h expof:poly:0,1000 --n 50", "MixedResidueClasses"),
    ("lagrange --op general --psi poly:1,0,1 --h expof:poly:0,1000 --n 50",
     "MixedResidueClasses"),
    ("largepow --psi poly:1,0,1 --n 10 --k 3 --regime comparable:0.1,0.9", "QGcdViolation"),
    ("lagrange --op omm --psi poly:1,0,1 --n 20", "QGcdViolation"),
    ("coeff --family Wab:2,0 --n 41 --method hayman", "QGcdViolation"),
    # one name for the one fact: these were QGcdNotOne, QGcdNotOne and
    # ZeroCoefficient
    ("coeff --family Pab:2,2 --n 11 --method hayman", "QGcdViolation"),
    ("coeff --family Pab:2,2 --n 11 --method closed", "QGcdViolation"),
    ("lagrange --op omm --psi poly:1,0,1 --n 12", "QGcdViolation"),
])
def test_off_lattice_and_mixed_commands_exit_3(line, error, capsys):
    code, out, err = run(line, capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {error}: ")
