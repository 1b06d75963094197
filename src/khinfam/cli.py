"""Command-line front end: family specs in, tables/CSV/JSON-lines out.

Verbs: coeff, family, largepow, lagrange, diag, selftest; global flags
--trunc, --out and --seed; each family is built once, with --trunc as its
oracle's cap, and each reader asks for its own window. ``largepow`` hands
its regime to ``large_powers.estimate``. The options live in one table,
``GLOBAL_OPTIONS`` and each verb's ``Verb.options``. ``_read_argv`` reads a
well-formed command from it with argparse's conversions and checks, and
builds no parser; any other argv, help included, goes to the argparse tree
built from the same table. Each lagrange op reads the options
``LAGRANGE_READS`` names and refuses any other off its default (exit 2).
Every numeric result is reported as a natural-log column plus, when
representable, the decimal value. Exit codes: 0 success, 2 usage error, 3
domain error (the error name from the owning module is echoed verbatim). A
family spec that does not parse (``--family nope``) is ``InvalidSpec`` and
exits 3, like any other named error, as is a vocabulary word with a stray
or missing argument or an empty list (``--stats mean:3``, ``--stats ,``). A float overflow or division by zero that escapes a verb is
reported as ``DomainError`` and exits 3 too.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import asym as A
from . import catalog as C
from . import family as F
from . import lagrange as L
from . import large_powers as LP
from .errors import DomainError, InvalidSpec, KhinfamError
from .numerics import LogNumber
from .series import DEFAULT_ORDER

COLUMN_ORDER_NOTE = (
    "Column order is fixed per verb: coeff -> method,n,ln,value,ratio; "
    "family -> stat,ln,value; largepow -> regime,n,k,ln,value,exact_ln,exact,ratio; "
    "lagrange -> op,n,ln,value; diag -> t followed by the requested stats. "
    "CSV renders log columns as ln=<digits> and decimals with 12 significant digits."
)


# -- formatting -----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _finite(x, what: str):
    """x, a float or complex result; DomainError where it is nan or infinite,
    which no success row may print."""
    if not cmath.isfinite(x):
        raise DomainError(f"{what} is {x}")
    return x


def _value_cell(ln: float, sign: int = 1) -> str:
    if sign == 0:
        return "0"
    if abs(ln) > 700.0:
        return ""
    return _fmt(sign * math.exp(ln))


def _log_cells(value: LogNumber, what: str = "ln") -> tuple[str, str]:
    if value.sign == 0:
        return ("", "0")
    ln = _finite(value.log_abs, what)
    return (_fmt(ln), _value_cell(ln, value.sign))


def _estimate_row(est: A.Estimate, n: int) -> dict:
    ln_c, v_c = _log_cells(est.value)
    return {"op": est.method, "n": n, "ln": ln_c, "value": v_c}


def _word_list(text: str, what: str) -> list[str]:
    """The words of a comma list; InvalidSpec when it holds none."""
    words = [w.strip() for w in text.split(",") if w.strip()]
    if not words:
        raise InvalidSpec(f"no {what} in {text!r}")
    return words


def _split_word(word: str, bare: tuple[str, ...], what: str) -> tuple[str, str]:
    """A vocabulary word's name and argument; InvalidSpec for an argument
    to a name in ``bare``, which takes none."""
    name, colon, arg = word.partition(":")
    if colon and name in bare:
        raise InvalidSpec(f"{what} {name} takes no argument, got {word!r}")
    return name, arg


def emit_rows(rows: list[dict], columns: list[str], fmt: str, stream) -> None:
    if fmt == "csv":
        print(",".join(columns), file=stream)
        for row in rows:
            cells = []
            for col in columns:
                v = row.get(col, "")
                if col.endswith("ln") and v != "":
                    v = f"ln={v}"
                cells.append(str(v))
            print(",".join(cells), file=stream)
    elif fmt == "jsonl":
        for row in rows:
            print(json.dumps({c: row.get(c, "") for c in columns}), file=stream)
    else:
        widths = [
            max(len(c), max((len(str(r.get(c, ""))) for r in rows), default=0))
            for c in columns
        ]
        print("  ".join(c.ljust(w) for c, w in zip(columns, widths)), file=stream)
        for row in rows:
            print(
                "  ".join(str(row.get(c, "")).ljust(w) for c, w in zip(columns, widths)),
                file=stream,
            )


# -- coeff verb -----------------------------------------------------------------


def _closed_estimate(spec: C.FamilySpec, method: str, n: int) -> A.Estimate:
    """The closed form ``method`` of ``asym.CLOSED_FORMS`` at n."""
    if method == "closed":
        method = next((m for m, (_, family) in A.CLOSED_FORMS.items()
                       if family in (spec.variant, f"{spec.variant}:a,b")), None)
        if method is None:
            raise InvalidSpec(f"no closed form registered for {spec.variant}")
    if method not in A.CLOSED_FORMS:
        raise InvalidSpec(f"unknown coeff method {method!r}")
    if method == "mw":
        return A.moser_wyman(n)
    kind, family = A.CLOSED_FORMS[method]
    if family.endswith(":a,b") and family.partition(":")[0] != spec.variant:
        raise InvalidSpec(f"{method} closed form applies to {family} families")
    return A.closed_partition_asym(kind, n, a=spec.a, b=spec.b)


def _exact_text(value: Fraction, alone: bool) -> str:
    """The exact rational as digits. Past the interpreter's int-to-str limit
    it is refused when it is the one row asked for, and left blank beside an
    estimate, whose row and ratio need only its ln."""
    try:
        return str(value)
    except ValueError:
        if not alone:
            return ""
        raise DomainError(
            f"the exact value has more digits than the int-to-str limit "
            f"({sys.get_int_max_str_digits()})"
        ) from None


def cmd_coeff(args, stream) -> int:
    spec = C.parse_family(args.family)
    fam = C.make_family(spec, trunc=args.trunc)
    methods = _word_list(args.method, "coeff method")
    n = args.n
    rows: list[dict] = []
    exact_log: LogNumber | None = None
    if "exact" in methods:
        # past a polynomial's degree a_n is 0, read without a window through n
        a_n = Fraction(0) if n > fam.degree else fam.coeffs_through(n).coeff(n)
        exact_log = LogNumber.from_fraction(a_n)
        ln_cell, val_cell = _log_cells(exact_log)
        rows.append(
            {"method": "exact", "n": n, "ln": ln_cell,
             "value": val_cell or _exact_text(a_n, set(methods) == {"exact"}), "ratio": ""}
        )
    for method in methods:
        if method == "exact":
            continue
        if method in ("hayman", "bd", "baez-duarte"):
            est = (A.hayman_estimate if method == "hayman" else A.baez_duarte_estimate)(fam, n)
        else:
            est = _closed_estimate(spec, method, n)
        ln_cell, val_cell = _log_cells(est.value)
        ratio = _fmt(exact_log.ratio(est.value)) if exact_log is not None else ""
        rows.append({"method": est.method, "n": n, "ln": ln_cell, "value": val_cell,
                     "ratio": ratio})
    emit_rows(rows, ["method", "n", "ln", "value", "ratio"], args.out, stream)
    return 0


# -- family verb ----------------------------------------------------------------


def _family_stat(fam, stat: str, t: float) -> float | complex | str:
    name, arg = _split_word(stat, ("mean", "var", "clan", "zerofree", "maxterm", "gap", "qgcd"),
                            "family stat")
    if name == "mean":
        return fam.mean(t)
    if name == "var":
        return fam.variance(t)
    if name == "clan":
        return F.clan_ratio(fam, t)
    if name == "mass":
        return F.mass(fam, t, int(arg))
    if name == "moment":
        return F.moment(fam, t, int(arg))
    if name == "cmoment":
        return F.central_moment(fam, t, int(arg))
    if name == "fmoment":
        return F.factorial_moment(fam, t, int(arg))
    if name == "charfn":
        return F.charfn(fam, t, float(arg))
    if name == "mgf":
        return F.mgf(fam, t, float(arg))
    if name == "zerofree":
        return F.zero_free_halfwidth(fam, t)
    if name == "maxterm":
        idx, val = F.max_term(fam, t)
        return f"n={idx} ln={_fmt(val.log_abs)}"
    if name == "gap":
        gs = F.gap_stats(fam, t)
        return f"gap>={gs.window_gap} tail>={gs.tail_gap_estimate} q={gs.q_gcd}"
    if name == "qgcd":
        return float(fam.q_gcd)
    raise InvalidSpec(f"unknown family stat {stat!r}")


def cmd_family(args, stream) -> int:
    fam = C.make_family(C.parse_family(args.family), trunc=args.trunc)
    stats = _word_list(args.stats, "family stat")
    fam.check_radius(args.t)
    rows = []
    for stat in stats:
        val = _family_stat(fam, stat, args.t)
        what = f"{stat} at t={args.t}"
        if isinstance(val, complex):
            _finite(val, what)
            rows.append({"stat": stat, "ln": _fmt(math.log(abs(val))) if val else "",
                         "value": f"{val.real:.12g}{val.imag:+.12g}j"})
        elif isinstance(val, str):
            rows.append({"stat": stat, "ln": "", "value": val})
        else:
            x = _finite(float(val), what)
            if x > 0:
                rows.append({"stat": stat, "ln": _fmt(math.log(x)), "value": _fmt(x)})
            else:
                rows.append({"stat": stat, "ln": "", "value": _fmt(x)})
    emit_rows(rows, ["stat", "ln", "value"], args.out, stream)
    return 0


# -- largepow verb ----------------------------------------------------------------


def _parse_regime(text: str, q: LP.PowerCoeffQuery) -> LP.Regime:
    head, rest = _split_word(text, ("auto", "smallk", "fixedk", "largek"), "regime")
    if head == "auto":
        return LP.auto_regime(q)
    if head in ("comparable", "limitl", "limit_l"):
        pair = rest.split(",")
        if len(pair) != 2:
            raise InvalidSpec(f"regime {text!r} needs two values, got {len(pair)}")
        a, b = (float(v) for v in pair)
        if head == "comparable":
            return LP.Regime("comparable", a=a, b=b)
        return LP.Regime("limit_l", l=a, omega=b)
    if head == "boundary":
        return LP.Regime("boundary", omega=float(rest) if rest else 0.0)
    if head == "smallk":
        return LP.Regime("small_k")
    if head in ("smallkref", "small_k_refined"):
        return LP.Regime("small_k_refined", j=int(rest) if rest else None)
    if head == "fixedk":
        return LP.Regime("fixed_k")
    if head == "largek":
        return LP.Regime("large_k")
    raise InvalidSpec(f"unknown regime {text!r}")


def cmd_largepow(args, stream) -> int:
    psi = C.make_family(C.parse_family(args.psi), trunc=args.trunc)
    pre = None
    if args.h:
        pre = C.make_family(C.parse_family(args.h), trunc=args.trunc)
    q = LP.PowerCoeffQuery(psi, args.n, args.k, prefactor=pre)
    regime = _parse_regime(args.regime, q)
    result = LP.estimate(q, regime)
    if isinstance(result, LP.FixedKPolynomial):
        val = result.value_at(args.n)
        est_log = LogNumber.from_fraction(val)
    else:
        est_log = result.value
    kind = regime.kind if pre is None else f"{regime.kind}+prefactor"
    row = {"regime": kind, "n": args.n, "k": args.k}
    row["ln"], row["value"] = _log_cells(est_log)
    try:
        exact = LogNumber.from_fraction(LP.exact_power_coeff(q))
        row["exact_ln"], row["exact"] = _log_cells(exact)
        row["ratio"] = _fmt(exact.ratio(est_log)) if est_log.sign else ""
    except KhinfamError:
        row["exact_ln"] = row["exact"] = row["ratio"] = ""
    emit_rows(
        [row],
        ["regime", "n", "k", "ln", "value", "exact_ln", "exact", "ratio"],
        args.out,
        stream,
    )
    return 0


# -- lagrange verb ----------------------------------------------------------------


# the options each lagrange op reads; any other must keep its default
LAGRANGE_READS = {
    "apex": "psi", "omm": "psi n", "power": "psi q n", "func": "psi h n", "bt": "t j n",
    "btasym": "t j n", "pp": "s t n", "ppasym": "s t n", "general": "psi h t s j n",
    "sample": "psi h t s j trials",
}


def cmd_lagrange(args, stream) -> int:
    rows = []
    op = args.op
    reads = ["op", *LAGRANGE_READS.get(op, "").split()]
    for name, option in VERBS["lagrange"].options.items():
        if name[2:] not in reads and getattr(args, name[2:]) != option.default:
            raise ValueError(f"lagrange --op {op} does not read {name}")
    if "psi" in reads:
        psi = C.make_family(C.parse_family(args.psi), trunc=args.trunc)
    h = None  # the outer series of func, the initial law of general and sample
    if args.h:
        h = C.make_family(C.parse_family(args.h), trunc=args.trunc)
    if op in ("general", "sample"):
        spec = L.LagrangianSpec(psi=psi, t=args.t, s=args.s, initial=h,
                                monomial_j=None if h is not None else args.j)
    if op == "apex":
        ap = L.apex(psi)
        shape = (f"a={ap.linear_a} b={ap.linear_b}" if ap.kind == "linear"
                 else f"tau={_fmt(ap.tau)}")
        rows.append({"op": "apex", "n": "", "ln": "", "value": f"{ap.kind} {shape}"})
    elif op == "omm":
        est = L.omm_estimate(psi, args.n)
        if isinstance(est, L.DecayCertificate):
            rows.append({"op": "omm", "n": args.n, "ln": "",
                         "value": f"subcritical decay certificate at R={est.radius}"})
        else:
            rows.append(_estimate_row(est, args.n))
    elif op == "power":
        est = L.power_asym(psi, args.q, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "func":
        if h is None:
            raise InvalidSpec("func needs --h for the outer series")
        est = L.func_asym(h, psi, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "bt":
        p = _finite(L.borel_tanner_pmf(args.t, args.j, args.n), "bt-pmf")
        rows.append({"op": "bt-pmf", "n": args.n,
                     "ln": _fmt(L.borel_tanner_log_pmf(args.t, args.j, args.n)),
                     "value": _fmt(p)})
    elif op == "btasym":
        est = L.borel_tanner_asym(args.t, args.j, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "pp":
        p = _finite(L.poisson_poisson_pmf(args.s, args.t, args.n), "pp-pmf")
        rows.append({"op": "pp-pmf", "n": args.n,
                     "ln": _fmt(math.log(p)) if p > 0 else "", "value": _fmt(p)})
    elif op == "ppasym":
        est = L.poisson_poisson_asym(args.s, args.t, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "general":
        est = L.general_lagrangian_asym(spec, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "sample":
        res = L.gw_sample(spec, args.trials, seed=args.seed)
        for n, p in res.empirical_pmf().items():
            rows.append({"op": "sample", "n": n, "ln": _fmt(math.log(p)) if p else "",
                         "value": _fmt(p)})
        rows.append({"op": "censored", "n": "", "ln": "",
                     "value": _fmt(res.censored / res.trials)})
    else:
        raise InvalidSpec(f"unknown lagrange op {op!r}")
    emit_rows(rows, ["op", "n", "ln", "value"], args.out, stream)
    return 0


# -- diag verb --------------------------------------------------------------------


def cmd_diag(args, stream) -> int:
    fam = C.make_family(C.parse_family(args.family), trunc=args.trunc)
    stats = _word_list(args.stats, "diag stat")
    radii = [float(x) for x in args.t.split(",")]
    for t in radii:
        fam.check_radius(t)
    rows = []
    for t in radii:
        row: dict = {"t": _fmt(t)}
        for stat in stats:
            name, arg = _split_word(stat, ("cltsup", "sgint", "gratio"), "diag stat")
            if name == "cltsup":
                cells = {name: A.local_clt_sup(fam, t)}
            elif name == "sgint":
                cells = {name: A.strong_gaussian_integral(fam, t)}
            elif name == "gratio":
                cells = {name: A.gaussianity_ratio(fam, t)}
            elif name == "cuts":
                h = float(arg) if arg else min(math.pi, t ** -0.4)
                cells = dict(zip(("major", "minor"), A.cut_diagnostics(fam, t, h)))
            else:
                raise InvalidSpec(f"unknown diag stat {stat!r}")
            row.update((c, _fmt(_finite(x, f"{c} at t={t}"))) for c, x in cells.items())
        rows.append(row)
    columns = ["t"] + [c for c in ("cltsup", "sgint", "gratio", "major", "minor")
                       if any(c in r for r in rows)]
    emit_rows(rows, columns, args.out, stream)
    return 0


# -- selftest verb ------------------------------------------------------------------


def cmd_selftest(args, stream) -> int:
    from .selftest import run_selftest  # the criteria's imports only a selftest needs

    numbers = None
    if args.criteria:
        numbers = [int(x) for x in args.criteria.split(",")]
    results = run_selftest(numbers)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{tag} criterion {r.number}: {r.name} ({r.detail})", file=stream)
    print(f"{len(results) - failed}/{len(results)} criteria passed", file=stream)
    return 0 if failed == 0 else 1


# -- entry point --------------------------------------------------------------------


class Option(NamedTuple):
    """One ``--name value`` option. The fields are ``add_argument``'s keywords
    of the same names, so argparse and ``_read_argv`` read the same table."""

    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str | None = None


class Verb(NamedTuple):
    help: str
    options: dict[str, Option]
    run: Callable[..., int]


GLOBAL_OPTIONS = {
    "--trunc": Option(int, DEFAULT_ORDER, help="largest coefficient order an oracle may build"),
    "--out": Option(default="table", choices=("table", "csv", "jsonl")),
    "--seed": Option(int, 0, help="sampler seed"),
}

VERBS = {
    "coeff": Verb("coefficient estimates for a catalog family", {
        "--family": Option(required=True),
        "--n": Option(int, required=True),
        "--method": Option(default="exact,hayman",
                           help="comma list: exact,hayman,bd,closed," + ",".join(A.CLOSED_FORMS)),
    }, cmd_coeff),
    "family": Verb("pointwise statistics of a family", {
        "--family": Option(required=True),
        "--t": Option(float, required=True),
        "--stats": Option(default="mean,var",
                          help="comma list: mean,var,clan,mass:N,moment:K,cmoment:K,fmoment:J,"
                               "charfn:THETA,mgf:LAMBDA,zerofree,maxterm,gap,qgcd"),
    }, cmd_family),
    "largepow": Verb("coefficients of large powers psi^n", {
        "--psi": Option(required=True),
        "--n": Option(int, required=True),
        "--k": Option(int, required=True),
        "--h": Option(help="optional prefactor family"),
        "--regime": Option(default="auto",
                           help="auto | comparable:A,B | limitl:L,W | boundary[:W] | smallk | "
                                "smallkref:J | fixedk | largek"),
    }, cmd_largepow),
    "lagrange": Verb("Lagrange-equation and progeny asymptotics", {
        "--op": Option(default="omm", choices=tuple(LAGRANGE_READS)),
        "--psi": Option(default="exp"),
        "--h": Option(help="outer/initial series for func/general"),
        "--n": Option(int, 10),
        "--q": Option(int, 1),
        "--j": Option(int, 1),
        "--t": Option(float, 1.0),
        "--s": Option(float, 1.0),
        "--trials": Option(int, 10000),
    }, cmd_lagrange),
    "diag": Verb("Gaussianity diagnostics over a radius grid", {
        "--family": Option(required=True),
        "--t": Option(required=True, help="comma list of radii"),
        "--stats": Option(default="cltsup,sgint", help="comma list: cltsup,sgint,gratio,cuts[:H]"),
    }, cmd_diag),
    "selftest": Verb("run the acceptance criteria", {
        "--criteria": Option(help="comma list of criterion numbers"),
    }, cmd_selftest),
}


def build_parser():
    """The argparse tree of every verb, built from the option table. It reads
    each command ``_read_argv`` refuses: help, and every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="khinfam",
        description=(
            "Exact coefficients and saddle-point asymptotics of power series "
            "with non-negative coefficients."
        ),
        epilog=COLUMN_ORDER_NOTE,
        allow_abbrev=False,
    )
    for name, option in GLOBAL_OPTIONS.items():
        parser.add_argument(name, **option._asdict())
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, v in VERBS.items():
        p = sub.add_parser(verb, help=v.help, allow_abbrev=False)
        for name, option in v.options.items():
            p.add_argument(name, **option._asdict())
    return parser


# argparse's negative-number pattern: a token it reads as a value, not an
# option, although it starts with "-"
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read from
    the option table without argparse; None where argv is not well formed.

    Well formed is global ``--opt value`` pairs, the verb, then the verb's own
    ``--opt value`` pairs: each option spelled in full, each value converted
    by its type and within its choices, and every required option given. A
    value argparse would read as an option, one that starts with "-" and is
    not a negative number, is not well formed. Help, ``--opt=value`` and
    every other argv go to argparse, which prints what it always printed.
    """
    values = {}
    options, verb = GLOBAL_OPTIONS, None
    tokens = iter(argv)
    for token in tokens:
        if verb is None and token in VERBS:
            options, verb = VERBS[token].options, token
            continue
        option, text = options.get(token), next(tokens, None)
        if option is None or text is None or (
                text.startswith("-") and not _NEGATIVE_NUMBER.match(text)):
            return None
        try:
            value = option.type(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[token[2:]] = value
    if verb is None:
        return None
    for name, option in (*GLOBAL_OPTIONS.items(), *VERBS[verb].options.items()):
        if name[2:] not in values:
            if option.required:
                return None
            values[name[2:]] = option.default
    return SimpleNamespace(verb=verb, **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        if args.trunc < 1:
            raise InvalidSpec(f"truncation {args.trunc} must be >= 1")
        if args.trunc > C.MAX_TRUNC:
            raise InvalidSpec(f"truncation {args.trunc} exceeds {C.MAX_TRUNC}")
        return VERBS[args.verb].run(args, sys.stdout)
    except KhinfamError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        # a float overflow or a division by zero inside a statistic: the
        # request left the range its float evaluators cover
        print(f"error: DomainError: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
