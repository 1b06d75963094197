"""The fixed query pools of the three workloads, their set-up and dispatch.

A pool entry is a ``Query``: a stable id, a cost class, an operation name
and its arguments. Arguments name inputs (series operands, families, specs)
that ``build_inputs`` makes during set-up, so the timed region calls one
library function on ready-made arguments. ``run_query`` looks every library
function up on its module at call time, so the tracing wrappers installed on
the module namespaces see every call.

Cost classes are part of the workload design:

* ``exact``: ``sparse`` (operands with at most 3 nonzero terms), ``dense``
  (integer OGFs and EGFs with factorial denominators) and ``oracle`` (the
  catalog coefficient oracles themselves).
* ``saddle``: ``solver`` (closed-form families and closed formulas),
  ``partsum`` (partition products, whose evaluators are truncated sums) and
  ``grid`` (quadrature and grid diagnostics on closed-form families).
* ``cli``: ``cheap`` (verbs that print from estimates), ``check`` (verbs
  that pay an exact check or a large oracle: ``largepow``, ``diag``),
  ``error`` (out-of-domain inputs with a named error) and ``defect`` (inputs
  that currently crash or print ``nan``; see ``CLI_DEFECTS``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import pkgutil
import random
import re
import shlex
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("exact", "saddle", "cli")


@dataclass(frozen=True)
class Query:
    qid: str
    cls: str
    op: str
    args: tuple


# -- exact ---------------------------------------------------------------------

SPARSE = ("poly:1,1", "poly:1,1,1", "canprod:1,2", "canprod:1,3", "binom:2", "poly:1,0,1")
DENSE = ("P", "bell", "exp", "geom", "Q", "Wab:1,1")

# (op, sizes for sparse operands, sizes for dense operands); a size is the
# series order, or (n, k) for exact_power_coeff.
_EXACT_PLAN = (
    ("mul", (96, 112, 128, 160, 192, 224, 256, 288), (56, 64, 80, 96, 112, 128, 192)),
    ("pow", (48, 56, 64, 80, 96, 112, 128, 144), (32, 36, 40)),
    ("compose", (24, 28, 32, 40, 48, 56, 64, 72), (16, 18, 20)),
    ("exp_series", (24, 28, 32, 40, 48, 56, 64, 72), (48, 56, 64)),
    ("log_series", (8, 10, 12, 14, 16, 18, 20, 22), (48, 56, 64)),
    ("reciprocal", (32, 40, 48, 56, 64, 72, 80, 88), (64, 72, 80)),
    ("lagrange_invert", (8, 9, 10, 11, 12, 13, 14, 15), (16, 18, 20)),
    ("lagrange_fixed_point", (6, 7, 8, 9, 10, 11, 12, 13), (12, 13, 14)),
    ("extended_coeff", (8, 10, 11, 12, 14, 16, 18, 20), (24, 26, 28)),
    ("exact_power_coeff", ((50, 10), (100, 11), (200, 12), (300, 12), (1000, 11), (60, 13),
                           (30, 8), (500, 9)),
     ((100, 26), (120, 28), (150, 30))),
    ("fixed_k_polynomial", (6, 7, 8, 9, 10, 11, 12, 13), (17, 18, 19)),
)

_ORACLE_PLAN = (
    ("P", 300), ("P", 600), ("Q", 240), ("Q", 400), ("Pab:2,1", 320), ("Pab:3,2", 280),
    ("Wab:1,1", 100), ("Wab:1,2", 90), ("bell", 150), ("bell", 200), ("exp", 260),
    ("exp", 500), ("setsoflists", 48), ("setsoflists", 60), ("expof:poly:0,1,1", 96),
    ("expof:poly:0,1,0,1", 120), ("canprod:1,2,3", 180), ("canprod:1,2,4,8", 220),
)


class _PairAllocator:
    """Hands out (spec, order) operands so that no pair repeats in the pool."""

    def __init__(self) -> None:
        self.used: set[tuple[str, int]] = set()

    def take(self, spec: str, order: int) -> str:
        while (spec, order) in self.used:
            order += 1
        self.used.add((spec, order))
        return f"{spec}@{order}"


def exact_pool() -> list[Query]:
    alloc = _PairAllocator()
    out: list[Query] = []
    for spec, n in _ORACLE_PLAN:
        alloc.take(spec, n)
        out.append(Query(f"exact_coeffs|{spec}|{n}", "oracle", "exact_coeffs", (spec, n)))
    for cls, specs, col in (("sparse", SPARSE, 1), ("dense", DENSE, 2)):
        for plan in _EXACT_PLAN:
            op, sizes = plan[0], plan[col]
            for i, size in enumerate(sizes):
                x = specs[i % len(specs)]
                y = specs[(i + 1) % len(specs)]
                out.append(_exact_query(alloc, cls, op, x, y, size))
    ids = [q.qid for q in out]
    assert len(ids) == len(set(ids))
    return out


def _exact_query(alloc: _PairAllocator, cls: str, op: str, x: str, y: str, size) -> Query:
    if op == "mul":
        args = (alloc.take(x, size), alloc.take(y, size))
    elif op == "pow":
        args = (alloc.take(x, size), 3 + size % 5)
    elif op == "compose":
        args = (alloc.take(x, size), "z*" + alloc.take(y, size))
    elif op in ("exp_series", "log_series", "reciprocal"):
        args = (alloc.take(x, size),)
    elif op in ("lagrange_invert", "lagrange_fixed_point"):
        args = (alloc.take(x, size - 1), size)
    elif op == "extended_coeff":
        args = (alloc.take(y, size), alloc.take(x, size), size)
    elif op == "exact_power_coeff":
        n, k = size
        args = ("fam:" + alloc.take(x, k), n, k)
    elif op == "fixed_k_polynomial":
        args = (alloc.take(x, size), size)
    else:
        raise ValueError(op)
    return Query(f"{op}|" + "|".join(str(a) for a in args), cls, op, args)


# -- saddle --------------------------------------------------------------------

CLOSED_FAMS = ("exp", "bell", "geom", "negbinom:3", "setsoflists", "binom:4", "expof:poly:0,1,1")
PART_FAMS = ("P", "Q", "Pab:2,1", "Wab:1,1", "Wab:1,2")
SADDLE_TRUNC = 64


_RADIUS_ONE = PART_FAMS + ("geom", "negbinom:3", "setsoflists")


def _near_radius(fam_spec: str) -> float:
    """A radius close to the edge for radius-1 families, else a large one."""
    return 0.95 if fam_spec in _RADIUS_ONE else 6.0


def _mid_radius(fam_spec: str) -> float:
    return 0.7 if fam_spec in _RADIUS_ONE else 3.0


def saddle_pool() -> list[Query]:
    out: list[Query] = []

    def add(cls: str, op: str, *args) -> None:
        out.append(Query(f"{op}|" + "|".join(str(a) for a in args), cls, op, args))

    ns = (100, 1000, 10_000, 100_000)
    for f in ("exp", "bell", "geom", "negbinom:3", "setsoflists", "expof:poly:0,1,1"):
        for n in ns:
            add("solver", "hayman", f, n)
    for n in ns:
        add("solver", "bd", "bell", n)
    for b, n in enumerate((100, 1000, 10_000)):
        add("solver", "closed", "hr", n, 0, 0)
        add("solver", "closed", "distinct", n, 0, 0)
        add("solver", "closed", "ingham", n, 2, 1)
        add("solver", "closed", "wright_plane", n, 0, 0)
        add("solver", "closed", "colored", n, 0, b)
        add("solver", "moser_wyman", n)
    # every large_powers regime, on closed-form families
    add("solver", "comparable", "binom:4", 1000, 500, 0.2, 3.8)
    add("solver", "comparable", "exp", 100, 500, 1.0, 19.0)
    add("solver", "comparable", "geom", 200, 600, 1.0, 19.0)
    add("solver", "limit_l", "exp", 1000, 2000, 2.0, 0.5)
    add("solver", "limit_l", "bell", 500, 1500, 3.0, -0.25)
    add("solver", "boundary", "geom", 100, 100, 0.0)
    add("solver", "small_k", "exp", 10_000, 100)
    add("solver", "small_k", "geom", 100_000, 300)
    add("solver", "small_k_refined", "exp", 10_000, 50, 1)
    add("solver", "small_k_refined", "binom:4", 20_000, 40, 1)
    add("solver", "large_k", "exp", 100, 5000)
    add("solver", "large_k", "bell", 100, 4000)
    add("solver", "prefactor_comparable", "exp", "bell", 100, 500, 1.0, 19.0)
    add("solver", "prefactor_small_k", "exp", "binom:4", 10_000, 100)
    add("solver", "auto", "binom:4", 1000, 500)
    add("solver", "auto", "exp", 100, 5000)
    add("solver", "auto", "exp", 10_000, 100)
    add("solver", "auto", "geom", 100, 800)
    # Lagrange asymptotics
    for f in ("exp", "bell", "geom", "negbinom:3"):
        add("solver", "apex", f)
        add("solver", "omm", f, 50)
        add("solver", "omm", f, 500)
    add("solver", "power_asym", "exp", 2, 30)
    add("solver", "power_asym", "geom", 3, 200)
    add("solver", "func_asym", "exp", "exp", 25)
    add("solver", "func_asym", "bell", "exp", 80)
    add("solver", "bt_asym", 0.8, 2, 40)
    add("solver", "bt_asym", 0.5, 1, 400)
    add("solver", "pp_asym", 1.0, 0.5, 60)
    add("solver", "pp_asym", 2.0, 0.9, 300)
    add("solver", "general", "exp", 0.5, 1.0, 2, 50)
    add("solver", "general", "geom", 0.3, 1.0, 1, 80)
    # family statistics on closed forms
    for f in CLOSED_FAMS:
        t = _mid_radius(f)
        add("solver", "moment", f, t, 4)
        add("solver", "cmoment", f, t, 3)
        add("solver", "fmoment", f, t, 2)
        add("solver", "charfn", f, t, 0.3)
        add("solver", "fulcrum", f, math.log(_near_radius(f)))
        add("solver", "gratio", f, _near_radius(f))
    # grid and quadrature diagnostics on closed forms
    for f in ("exp", "bell", "geom", "setsoflists"):
        t = _mid_radius(f)
        add("grid", "chernoff", f, 0.8 * t, 0.1)
        add("grid", "sgint", f, t)
        add("grid", "cuts", f, t, 0.5, 512)
    # partition products: every evaluation is a truncated sum
    for f in PART_FAMS:
        for n in ns:
            add("partsum", "hayman", f, n)
        for n in (10_000, 100_000) if f != "Wab:1,2" else (100_000,):
            add("partsum", "bd", f, n)
        t = 0.9
        add("partsum", "moment", f, t, 4)
        add("partsum", "cmoment", f, t, 3)
        add("partsum", "fmoment", f, t, 3)
        add("partsum", "charfn", f, _near_radius(f), 0.3)
        add("partsum", "fulcrum", f, math.log(_near_radius(f)))
        add("partsum", "gratio", f, _near_radius(f))
        add("partsum", "omm", f, 200)
        if f != "Pab:2,1":  # the only partition product not flagged USG
            add("partsum", "large_k", f, 100, 5000)
    add("partsum", "chernoff", "P", 0.5, 0.1)
    add("partsum", "chernoff", "Q", 0.6, 0.1)
    add("partsum", "sgint", "P", 0.5)
    add("partsum", "sgint", "Pab:2,1", 0.5)
    add("partsum", "cuts", "P", 0.5, 0.5, 256)
    add("partsum", "cuts", "Q", 0.6, 0.5, 256)
    ids = [q.qid for q in out]
    assert len(ids) == len(set(ids))
    return out


# -- cli -----------------------------------------------------------------------

# Inputs that break the CLI contract at the commit the references were made
# at: the first four exit through a Python traceback, the last prints nan as
# a success. Their reference is the contract (exit 2 or 3 with a named
# error), so they count as failed until the CLI is fixed.
CLI_DEFECTS = (
    "family --family geom --t 1",
    "family --family bell --t 800",
    "family --family poly:1e400,1 --t 1",
    "diag --family exp --t 0",
    "family --family exp --t nan",
)

_CLI_CHEAP = (
    # coeff: exact plus estimates
    "coeff --family P --n 100 --method exact,hayman,hr",
    "coeff --family P --n 250 --method exact,hayman,bd,hr",
    "coeff --family P --n 1000 --method hayman,bd,hr",
    "coeff --family Q --n 200 --method exact,hayman,distinct",
    "coeff --family Q --n 60 --method exact,closed",
    "coeff --family Pab:2,1 --n 150 --method exact,hayman,bd,ingham",
    "coeff --family Pab:3,2 --n 90 --method exact,hayman,closed",
    "coeff --family Wab:1,1 --n 80 --method exact,hayman,closed",
    "coeff --family Wab:1,0 --n 70 --method exact,hayman,colored",
    "coeff --family Wab:1,2 --n 40 --method exact,hayman,closed",
    "coeff --family bell --n 50 --method exact,hayman,mw",
    "coeff --family bell --n 120 --method exact,hayman,closed",
    "coeff --family exp --n 30 --method exact,hayman",
    "coeff --family exp --n 300 --method exact,hayman,bd",
    "coeff --family geom --n 500 --method exact,hayman",
    "coeff --family negbinom:3 --n 40 --method exact,hayman",
    "coeff --family setsoflists --n 30 --method exact,hayman",
    "coeff --family expof:poly:0,1,1 --n 25 --method exact,hayman",
    "coeff --family P --n 80 --method exact,wright",
    "--out csv coeff --family P --n 120 --method exact,hayman,hr",
    "--out jsonl coeff --family Q --n 150 --method exact,hayman,bd",
    # family statistics
    "family --family bell --t 2 --stats mean,var",
    "family --family bell --t 5 --stats mean,var,clan",
    "family --family P --t 0.9 --stats mean,var,clan",
    "family --family P --t 0.5 --stats moment:2,cmoment:3,mgf:0.1",
    "family --family Q --t 0.7 --stats cmoment:3,fmoment:2,mgf:0.1",
    "family --family geom --t 0.5 --stats mean,var,moment:3,charfn:0.5",
    "family --family negbinom:2 --t 0.3 --stats mean,var,fmoment:3",
    "family --family exp --t 3 --stats mass:5,maxterm,gap,qgcd,zerofree",
    "family --family exp --t 1.5 --stats moment:5,charfn:1.0",
    "family --family binom:6 --t 2 --stats mean,var,gap,qgcd",
    "family --family bernoulli --t 0.5 --stats mean,var,charfn:0.2",
    "family --family poly:1,2,1 --t 1 --stats mean,var,zerofree",
    "family --family poly:1,0,3 --t 0.5 --stats mean,qgcd,gap",
    "family --family canprod:1,2,3 --t 2 --stats mean,var,maxterm",
    "family --family expof:poly:0,1,1 --t 1 --stats mean,var",
    "family --family Pab:2,1 --t 0.6 --stats mean,var",
    "family --family Pab:2,2 --t 0.5",
    "--trunc 64 family --family setsoflists --t 0.5 --stats mean,var,clan",
    "--out csv family --family bell --t 1 --stats mean,var,moment:3",
    "--out jsonl family --family geom --t 0.25 --stats mean,var,mass:3",
    # large powers, cheap regimes
    "largepow --psi exp --n 100 --k 10 --regime auto",
    "largepow --psi geom --n 300 --k 5 --regime auto",
    "largepow --psi poly:1,2 --n 100 --k 3 --regime smallkref:3",
    "largepow --psi poly:1,1 --n 100 --k 60 --regime comparable:0.1,0.9",
    "largepow --psi exp --n 500 --k 12 --regime smallk",
    # every lagrange op
    "lagrange --op omm --psi exp --n 20",
    "lagrange --op omm --psi geom --n 40",
    "lagrange --op omm --psi bell --n 30",
    "lagrange --op omm --psi P --n 30",
    "lagrange --op omm --psi binom:2 --n 25",
    "lagrange --op apex --psi geom",
    "lagrange --op apex --psi exp",
    "lagrange --op power --psi exp --q 2 --n 30",
    "lagrange --op power --psi geom --q 3 --n 60",
    "lagrange --op func --psi exp --h exp --n 25",
    "lagrange --op func --psi geom --h bell --n 40",
    "lagrange --op bt --t 0.5 --j 1 --n 3",
    "lagrange --op bt --t 0.9 --j 2 --n 20",
    "lagrange --op btasym --t 0.8 --j 2 --n 40",
    "lagrange --op pp --s 1 --t 0.5 --n 6",
    "lagrange --op ppasym --s 1 --t 0.5 --n 60",
    "lagrange --op general --psi exp --t 0.5 --s 1 --j 2 --n 50",
    "lagrange --op general --psi geom --t 0.4 --s 1 --h exp --n 30",
    "--seed 7 lagrange --op sample --psi exp --t 0.5 --j 1 --trials 200",
    "--seed 3 lagrange --op sample --psi geom --t 0.4 --j 2 --trials 300",
    "--seed 11 lagrange --op sample --psi exp --t 0.8 --j 1 --s 1 --trials 150",
    # diag at small truncation
    "diag --family geom --t 0.5 --stats sgint,gratio",
    "--trunc 256 diag --family bell --t 2,3 --stats cltsup,gratio",
    "--trunc 128 diag --family geom --t 0.3,0.5 --stats cltsup,gratio",
    # the cheap acceptance criteria
    "selftest --criteria 1",
    "selftest --criteria 5,7",
    "selftest --criteria 9",
    "selftest --criteria 10",
    "selftest --criteria 1,7,9",
    # neighbours over the grammar
    "coeff --family Pab:2,2 --n 10 --method hayman",
    "coeff --family Q --n 500 --method hayman,bd,distinct",
    "--trunc 128 family --family Wab:1,2 --t 0.5 --stats mean,var",
    "family --family Q --t 0.5 --stats mean,var,clan",
    "lagrange --op btasym --t 1 --j 1 --n 100",
    "lagrange --op ppasym --s 2 --t 0.9 --n 200",
    "--out csv lagrange --op omm --psi Q --n 50",
    "largepow --psi bell --n 200 --k 4 --regime auto",
    "largepow --psi poly:1,1 --n 200 --k 100 --regime auto",
    "--trunc 256 diag --family exp --t 5,20 --stats gratio,cuts",
    "--trunc 1024 diag --family exp --t 30 --stats cltsup",
)

_CLI_CHECK = (
    "largepow --psi poly:1,1 --n 1000 --k 500 --regime auto",
    "largepow --psi poly:1,1 --n 400 --k 200 --regime auto",
    "largepow --psi poly:1,1,1 --n 200 --k 120 --regime auto",
    "largepow --psi poly:1,2,1 --n 150 --k 120 --regime auto",
    "largepow --psi binom:2 --n 150 --k 120 --regime auto",
    "largepow --psi binom:3 --n 200 --k 150 --regime auto",
    "largepow --psi binom:4 --n 100 --k 150 --regime auto",
    "largepow --psi geom --n 40 --k 100 --regime auto",
    "largepow --psi exp --n 60 --k 80 --regime auto",
    "largepow --psi bell --n 30 --k 60 --regime auto",
    "diag --family exp --t 10,100,1000 --stats cltsup,sgint",
    "--trunc 2048 diag --family exp --t 100,200 --stats cltsup,gratio",
    "selftest --criteria 4",
)

# Out-of-domain inputs the CLI already answers with a named error.
_CLI_ERRORS = (
    "coeff --family nope --n 10",
    "largepow --psi poly:1,1 --n 10 --k 3 --regime bogus",
    "largepow --psi poly:1,0,1 --n 10 --k 3 --regime comparable:0.1,0.9",
)


def cli_pool() -> list[Query]:
    out = []
    for cls, lines in (("cheap", _CLI_CHEAP), ("check", _CLI_CHECK), ("error", _CLI_ERRORS),
                       ("defect", CLI_DEFECTS)):
        for line in lines:
            out.append(Query(line, cls, "cli", tuple(shlex.split(line))))
    ids = [q.qid for q in out]
    assert len(ids) == len(set(ids))
    return out


POOLS = {"exact": exact_pool, "saddle": saddle_pool, "cli": cli_pool}


def passes(pool: list[Query], seed: int):
    """The query stream of a run: endless seeded permutations of the pool."""
    rng = random.Random(f"khinfam-bench:{seed}")
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield order


# -- set-up --------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a workload's queries read, built before the timed region."""

    series: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    specs: dict = field(default_factory=dict)


def build_inputs(K, workload: str, pool: list[Query]) -> Inputs:
    """Build the operands, families and specs the pool names.

    ``K`` is the imported ``khinfam`` package. Oracle caches are cleared at
    the end, so set-up leaves nothing for the timed queries to hit.
    """
    inp = Inputs()
    C = K.catalog

    def operand(key: str):
        if key in inp.series:
            return inp.series[key]
        if key.startswith("z*"):
            base = operand(key[2:])
            val = K.series.CoeffSeries((Fraction(0),) + base.coeffs[:-1])
        else:
            spec, _, order = key.rpartition("@")
            val = C.exact_coeffs(C.parse_family(spec), int(order))
        inp.series[key] = val
        return val

    for q in pool:
        if workload == "exact":
            for a in q.args:
                if not isinstance(a, str):
                    continue
                if a.startswith("fam:"):
                    spec, _, order = a[4:].rpartition("@")
                    inp.families[a] = C.make_family(C.parse_family(spec), trunc=int(order))
                elif "@" in a:
                    operand(a)
            if q.op == "exact_coeffs":
                inp.specs[q.args[0]] = C.parse_family(q.args[0])
        elif workload == "saddle":
            for a in q.args:
                if isinstance(a, str) and (a in CLOSED_FAMS or a in PART_FAMS):
                    if a not in inp.families:
                        inp.families[a] = C.make_family(C.parse_family(a), trunc=SADDLE_TRUNC)
    clear_caches(K)
    return inp


def clear_caches(K) -> None:
    """Empty every ``functools`` cache bound in a khinfam module."""
    for mod in khinfam_modules(K):
        for name in list(vars(mod)):
            fn = getattr(mod, name)
            if callable(getattr(fn, "cache_clear", None)):
                fn.cache_clear()


def khinfam_modules(K) -> list:
    """The package and every module in it."""
    return [K] + [importlib.import_module(f"{K.__name__}.{m.name}")
                  for m in pkgutil.iter_modules(K.__path__)]


# -- dispatch ------------------------------------------------------------------


def run_query(K, inp: Inputs, q: Query):
    """Make the one library call of query ``q`` and return its result."""
    op, a = q.op, q.args
    S, C, A, F = K.series, K.catalog, K.asym, K.family
    LP, L = K.large_powers, K.lagrange
    ser, fam = inp.series, inp.families
    # exact
    if op == "exact_coeffs":
        return C.exact_coeffs(inp.specs[a[0]], a[1])
    if op == "mul":
        return S.mul(ser[a[0]], ser[a[1]])
    if op == "pow":
        return S.pow(ser[a[0]], a[1])
    if op == "compose":
        return S.compose(ser[a[0]], ser[a[1]])
    if op == "exp_series":
        return S.exp_series(ser[a[0]])
    if op == "log_series":
        return S.log_series(ser[a[0]])
    if op == "reciprocal":
        return S.reciprocal(ser[a[0]])
    if op == "lagrange_invert":
        return S.lagrange_invert(ser[a[0]], a[1])
    if op == "lagrange_fixed_point":
        return S.lagrange_fixed_point(ser[a[0]], a[1])
    if op == "extended_coeff":
        return L.extended_coeff(ser[a[0]], ser[a[1]], a[2])
    if op == "exact_power_coeff":
        return LP.exact_power_coeff(LP.PowerCoeffQuery(fam[a[0]], a[1], a[2]))
    if op == "fixed_k_polynomial":
        return LP.fixed_k_polynomial(ser[a[0]], a[1])
    # saddle
    if op == "hayman":
        return A.hayman_estimate(fam[a[0]], a[1])
    if op == "bd":
        return A.baez_duarte_estimate(fam[a[0]], a[1])
    if op == "closed":
        kind, n, x, y = a
        if kind == "ingham":
            return A.closed_partition_asym(kind, n, a=x, b=y)
        if kind == "colored":
            return A.closed_partition_asym(kind, n, b=y)
        return A.closed_partition_asym(kind, n)
    if op == "moser_wyman":
        return A.moser_wyman(a[0])
    if op == "comparable":
        return LP.estimate_comparable(LP.PowerCoeffQuery(fam[a[0]], a[1], a[2]), a[3], a[4])
    if op == "limit_l":
        return LP.estimate_limit_l(LP.PowerCoeffQuery(fam[a[0]], a[1], a[2]), a[3], a[4])
    if op == "boundary":
        return LP.estimate_boundary(LP.PowerCoeffQuery(fam[a[0]], a[1], a[2]), a[3])
    if op == "small_k":
        return LP.estimate_small_k(LP.PowerCoeffQuery(fam[a[0]], a[1], a[2]))
    if op == "small_k_refined":
        return LP.estimate_small_k_refined(LP.PowerCoeffQuery(fam[a[0]], a[1], a[2]), a[3])
    if op == "large_k":
        return LP.estimate_large_k(LP.PowerCoeffQuery(fam[a[0]], a[1], a[2]))
    if op == "prefactor_comparable":
        pq = LP.PowerCoeffQuery(fam[a[0]], a[2], a[3], prefactor=fam[a[1]])
        return LP.estimate_with_prefactor(pq, LP.Regime("comparable", a=a[4], b=a[5]))
    if op == "prefactor_small_k":
        pq = LP.PowerCoeffQuery(fam[a[0]], a[2], a[3], prefactor=fam[a[1]])
        return LP.estimate_with_prefactor(pq, LP.Regime("small_k"))
    if op == "auto":
        return LP.estimate_auto(LP.PowerCoeffQuery(fam[a[0]], a[1], a[2]))
    if op == "apex":
        return L.apex(fam[a[0]])
    if op == "omm":
        return L.omm_estimate(fam[a[0]], a[1])
    if op == "power_asym":
        return L.power_asym(fam[a[0]], a[1], a[2])
    if op == "func_asym":
        return L.func_asym(fam[a[0]], fam[a[1]], a[2])
    if op == "bt_asym":
        return L.borel_tanner_asym(*a)
    if op == "pp_asym":
        return L.poisson_poisson_asym(*a)
    if op == "general":
        psi, t, s, j, n = a
        return L.general_lagrangian_asym(L.LagrangianSpec(psi=fam[psi], t=t, s=s, monomial_j=j), n)
    if op == "moment":
        return F.moment(fam[a[0]], a[1], a[2])
    if op == "cmoment":
        return F.central_moment(fam[a[0]], a[1], a[2])
    if op == "fmoment":
        return F.factorial_moment(fam[a[0]], a[1], a[2])
    if op == "charfn":
        return F.charfn(fam[a[0]], a[1], a[2])
    if op == "fulcrum":
        return F.fulcrum_derivs(fam[a[0]], a[1], 4)
    if op == "gratio":
        return A.gaussianity_ratio(fam[a[0]], a[1])
    if op == "chernoff":
        return F.chernoff_sigma(fam[a[0]], a[1], a[2])
    if op == "sgint":
        return A.strong_gaussian_integral(fam[a[0]], a[1])
    if op == "cuts":
        return A.cut_diagnostics(fam[a[0]], a[1], a[2], a[3])
    if op == "cli":
        return run_cli(K, list(a))
    raise ValueError(f"unknown op {op!r}")


@dataclass(frozen=True)
class CliOutcome:
    exit: int
    stdout: str
    error: str | None


_ERROR_LINE = re.compile(r"^error: (\w+): ", re.M)


def run_cli(K, argv: list[str]) -> CliOutcome:
    """One ``khinfam`` command in-process, with stdout and stderr captured.

    An exception that escapes ``main`` propagates to the caller.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = K.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    text = err.getvalue()
    m = _ERROR_LINE.search(text)
    if m:
        name = m.group(1)
    elif text.startswith("usage error:") or "error:" in text:
        name = "usage"
    else:
        name = None
    return CliOutcome(code, out.getvalue(), name)


# -- normal form of results ----------------------------------------------------


def exact_digest(result) -> str:
    """sha256 of the exact rational content of an exact-workload result."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, Fraction):
            h.update(f"{x.numerator}/{x.denominator};".encode())
        elif isinstance(x, int):
            h.update(f"{x};".encode())
        elif isinstance(x, (tuple, list)):
            h.update(b"(")
            for y in x:
                feed(y)
            h.update(b")")
        elif dataclasses.is_dataclass(x):
            h.update(type(x).__name__.encode() + b"{")
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
            h.update(b"}")
        else:
            raise TypeError(f"no exact normal form for {type(x).__name__}")

    feed(result)
    return h.hexdigest()


def plain(result):
    """JSON-ready normal form of a float result (estimates, moments, ...).

    Dataclasses become dicts of their compared fields, so free-form metadata
    (``Estimate.meta``) is left out.
    """
    if isinstance(result, bool) or result is None or isinstance(result, (int, str)):
        return result
    if isinstance(result, float):
        return result if math.isfinite(result) else repr(result)
    if isinstance(result, complex):
        return {"re": plain(result.real), "im": plain(result.imag)}
    if isinstance(result, Fraction):
        return f"{result.numerator}/{result.denominator}"
    if isinstance(result, (tuple, list)):
        return [plain(x) for x in result]
    if dataclasses.is_dataclass(result):
        return {f.name: plain(getattr(result, f.name))
                for f in dataclasses.fields(result) if f.compare}
    raise TypeError(f"no normal form for {type(result).__name__}")


def normal_form(workload: str, result):
    if workload == "exact":
        return {"digest": exact_digest(result)}
    if workload == "cli":
        return {"exit": result.exit, "stdout": result.stdout, "error": result.error}
    return {"value": plain(result)}
