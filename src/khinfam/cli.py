"""Command-line front end: family specs in, tables/CSV/JSON-lines out.

Verbs: coeff, family, largepow, lagrange, diag, selftest; global flags
--trunc (env KF_TRUNC), --out and --seed. ``largepow`` hands its regime to
``large_powers.estimate``. Every numeric result is reported as a natural-log
column plus, when representable, the decimal value. Exit codes: 0 success,
2 usage error, 3 domain error (the error name from the owning module is
echoed verbatim). A family spec that
does not parse (``--family nope``) is ``InvalidSpec`` and exits 3, like any
other named error. A float overflow or division by zero that escapes a verb
is reported as ``DomainError`` and exits 3 too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import asym as A
from . import catalog as C
from . import family as F
from . import lagrange as L
from . import large_powers as LP
from .errors import DomainError, InvalidSpec, KhinfamError, WindowTooNarrow
from .numerics import LogNumber
from .selftest import run_selftest
from .series import DEFAULT_ORDER

COLUMN_ORDER_NOTE = (
    "Column order is fixed per verb: coeff -> method,n,ln,value,ratio; "
    "family -> stat,ln,value; largepow -> regime,n,k,ln,value,exact_ln,exact,ratio; "
    "lagrange -> op,n,ln,value[,extra]; diag -> t followed by the requested stats. "
    "CSV renders log columns as ln=<digits> and decimals with 12 significant digits."
)


@dataclass
class Config:
    trunc: int = DEFAULT_ORDER
    out: str = "table"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trunc < 1:
            raise InvalidSpec(f"truncation {self.trunc} must be >= 1")
        if self.trunc > C.MAX_TRUNC:
            raise InvalidSpec(f"truncation {self.trunc} exceeds {C.MAX_TRUNC}")


# -- formatting -----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _value_cell(ln: float, sign: int = 1) -> str:
    if sign == 0:
        return "0"
    if abs(ln) > 700.0:
        return ""
    return _fmt(sign * math.exp(ln))


def _log_cells(value: LogNumber) -> tuple[str, str]:
    if value.sign == 0:
        return ("", "0")
    ln = value.log_abs
    return (_fmt(ln), _value_cell(ln, value.sign))


def _estimate_row(est: A.Estimate, n: int) -> dict:
    ln_c, v_c = _log_cells(est.value)
    return {"op": est.method, "n": n, "ln": ln_c, "value": v_c}


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


_CLOSED_BY_VARIANT = {"P": "hr", "Q": "distinct", "Pab": "ingham", "Wab": "colored", "bell": "mw"}


def _closed_estimate(spec: C.FamilySpec, method: str, n: int) -> A.Estimate:
    if method == "mw":
        return A.moser_wyman(n)
    if method == "hr":
        return A.closed_partition_asym("hr", n)
    if method == "distinct":
        return A.closed_partition_asym("distinct", n)
    if method == "ingham":
        return A.closed_partition_asym("ingham", n, a=spec.a, b=spec.b)
    if method == "wright":
        return A.closed_partition_asym("wright_plane", n)
    if method == "colored":
        if spec.variant != "Wab" or spec.a != 1:
            raise InvalidSpec("colored closed form applies to Wab:1,b families")
        return A.closed_partition_asym("colored", n, b=spec.b)
    raise InvalidSpec(f"unknown coeff method {method!r}")


def _exact_text(value: Fraction) -> str:
    """The exact rational as digits, within the interpreter's int-to-str limit."""
    try:
        return str(value)
    except ValueError:
        raise DomainError(
            f"the exact value has more digits than the int-to-str limit "
            f"({sys.get_int_max_str_digits()})"
        ) from None


def cmd_coeff(args, cfg: Config, stream) -> int:
    spec = C.parse_family(args.family)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    n = args.n
    fam = None
    rows: list[dict] = []
    exact_log: LogNumber | None = None
    if "exact" in methods:
        coeffs = C.exact_coeffs(spec, n)
        a_n = coeffs.coeff(n)
        exact_log = LogNumber.from_fraction(a_n)
        ln_cell, val_cell = _log_cells(exact_log)
        rows.append(
            {"method": "exact", "n": n, "ln": ln_cell, "value": val_cell or _exact_text(a_n),
             "ratio": ""}
        )
    for method in methods:
        if method == "exact":
            continue
        if method == "hayman":
            if fam is None:
                fam = C.make_family(spec, trunc=min(cfg.trunc, 64))
            est = A.hayman_estimate(fam, n)
        elif method in ("bd", "baez-duarte"):
            if fam is None:
                fam = C.make_family(spec, trunc=min(cfg.trunc, 64))
            est = A.baez_duarte_estimate(fam, n)
        elif method == "closed":
            variant = _CLOSED_BY_VARIANT.get(spec.variant)
            if variant is None:
                raise InvalidSpec(f"no closed form registered for {spec.variant}")
            est = _closed_estimate(spec, variant, n)
        else:
            est = _closed_estimate(spec, method, n)
        ln_cell, val_cell = _log_cells(est.value)
        ratio = _fmt(exact_log.ratio(est.value)) if exact_log is not None else ""
        rows.append({"method": est.method, "n": n, "ln": ln_cell, "value": val_cell,
                     "ratio": ratio})
    emit_rows(rows, ["method", "n", "ln", "value", "ratio"], cfg.out, stream)
    return 0


# -- family verb ----------------------------------------------------------------


def _family_stat(fam, stat: str, t: float, cfg: Config) -> float | LogNumber | complex | str:
    name, _, arg = stat.partition(":")
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
        gs = F.gap_stats(fam)
        return f"gap>={gs.window_gap} tail>={gs.tail_gap_estimate} q={gs.q_gcd}"
    if name == "qgcd":
        return float(fam.q_gcd)
    raise InvalidSpec(f"unknown family stat {stat!r}")


def cmd_family(args, cfg: Config, stream) -> int:
    spec = C.parse_family(args.family)
    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    trunc = min(cfg.trunc, 512)
    for stat in stats:
        name, _, arg = stat.partition(":")
        if name == "mass" and arg:
            trunc = max(trunc, min(C.MAX_TRUNC, int(arg)))
    fam = C.make_family(spec, trunc=trunc)
    fam.check_radius(args.t)
    rows = []
    for stat in stats:
        val = _family_stat(fam, stat, args.t, cfg)
        if isinstance(val, complex):
            rows.append({"stat": stat, "ln": _fmt(math.log(abs(val))) if val else "",
                         "value": f"{val.real:.12g}{val.imag:+.12g}j"})
        elif isinstance(val, str):
            rows.append({"stat": stat, "ln": "", "value": val})
        elif isinstance(val, LogNumber):
            ln_cell, v_cell = _log_cells(val)
            rows.append({"stat": stat, "ln": ln_cell, "value": v_cell})
        else:
            x = float(val)
            if not math.isfinite(x):
                raise DomainError(f"{stat} at t={args.t} is {x}")
            if x > 0:
                rows.append({"stat": stat, "ln": _fmt(math.log(x)), "value": _fmt(x)})
            else:
                rows.append({"stat": stat, "ln": "", "value": _fmt(x)})
    emit_rows(rows, ["stat", "ln", "value"], cfg.out, stream)
    return 0


# -- largepow verb ----------------------------------------------------------------


def _parse_regime(text: str, q: LP.PowerCoeffQuery) -> LP.Regime:
    head, _, rest = text.partition(":")
    if head == "auto":
        return LP.auto_regime(q)
    if head == "comparable":
        a, b = (float(v) for v in rest.split(","))
        return LP.Regime("comparable", a=a, b=b)
    if head in ("limitl", "limit_l"):
        l, w = (float(v) for v in rest.split(","))
        return LP.Regime("limit_l", l=l, omega=w)
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


def cmd_largepow(args, cfg: Config, stream) -> int:
    spec = C.parse_family(args.psi)
    trunc = min(cfg.trunc, max(args.k, 8))
    psi = C.make_family(spec, trunc=trunc)
    pre = None
    if args.h:
        pre = C.make_family(C.parse_family(args.h), trunc=trunc)
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
        cfg.out,
        stream,
    )
    return 0


# -- lagrange verb ----------------------------------------------------------------


def cmd_lagrange(args, cfg: Config, stream) -> int:
    rows = []
    op = args.op
    if op in ("apex", "omm", "power", "func", "general", "sample"):
        psi = C.make_family(C.parse_family(args.psi), trunc=min(cfg.trunc, 256))
    if op == "apex":
        ap = L.apex(psi)
        rows.append({"op": "apex", "n": "", "ln": "", "value": f"{ap.kind} tau={_fmt(ap.tau)}"})
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
        if not args.h:
            raise InvalidSpec("func needs --h for the outer series")
        h = C.make_family(C.parse_family(args.h), trunc=min(cfg.trunc, 256))
        est = L.func_asym(h, psi, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "bt":
        p = L.borel_tanner_pmf(args.t, args.j, args.n)
        rows.append({"op": "bt-pmf", "n": args.n,
                     "ln": _fmt(L.borel_tanner_log_pmf(args.t, args.j, args.n)),
                     "value": _fmt(p)})
    elif op == "btasym":
        est = L.borel_tanner_asym(args.t, args.j, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "pp":
        p = L.poisson_poisson_pmf(args.s, args.t, args.n)
        rows.append({"op": "pp-pmf", "n": args.n,
                     "ln": _fmt(math.log(p)) if p > 0 else "", "value": _fmt(p)})
    elif op == "ppasym":
        est = L.poisson_poisson_asym(args.s, args.t, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "general":
        init = C.make_family(C.parse_family(args.h), trunc=min(cfg.trunc, 256)) if args.h else None
        spec = L.LagrangianSpec(psi=psi, t=args.t, s=args.s, initial=init,
                                monomial_j=None if init is not None else args.j)
        est = L.general_lagrangian_asym(spec, args.n)
        rows.append(_estimate_row(est, args.n))
    elif op == "sample":
        spec = L.LagrangianSpec(psi=psi, t=args.t, s=args.s, monomial_j=args.j)
        res = L.gw_sample(spec, args.trials, seed=cfg.seed)
        for n, p in res.empirical_pmf().items():
            rows.append({"op": "sample", "n": n, "ln": _fmt(math.log(p)) if p else "",
                         "value": _fmt(p)})
        rows.append({"op": "censored", "n": "", "ln": "",
                     "value": _fmt(res.censored / res.trials)})
    else:
        raise InvalidSpec(f"unknown lagrange op {op!r}")
    emit_rows(rows, ["op", "n", "ln", "value"], cfg.out, stream)
    return 0


# -- diag verb --------------------------------------------------------------------


def cmd_diag(args, cfg: Config, stream) -> int:
    spec = C.parse_family(args.family)
    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    radii = [float(x) for x in args.t.split(",")]
    fam = C.make_family(spec, trunc=cfg.trunc)
    for t in radii:
        fam.check_radius(t)
    if any(s.startswith("cltsup") for s in stats):
        top = max(radii)
        need = int(fam.mean(top) + 12.0 * math.sqrt(fam.variance(top))) + 2
        if need > C.MAX_TRUNC:  # refuse before building an oracle that large
            raise WindowTooNarrow(f"cltsup at t={top} needs truncation {need}, past {C.MAX_TRUNC}")
        if need > cfg.trunc:
            fam = C.make_family(spec, trunc=need)
    rows = []
    for t in radii:
        row: dict = {"t": _fmt(t)}
        for stat in stats:
            name, _, arg = stat.partition(":")
            if name == "cltsup":
                row[name] = _fmt(A.local_clt_sup(fam, t))
            elif name == "sgint":
                row[name] = _fmt(A.strong_gaussian_integral(fam, t))
            elif name == "gratio":
                row[name] = _fmt(A.gaussianity_ratio(fam, t))
            elif name == "cuts":
                h = float(arg) if arg else min(math.pi, t ** -0.4)
                major, minor = A.cut_diagnostics(fam, t, h)
                row["major"] = _fmt(major)
                row["minor"] = _fmt(minor)
            else:
                raise InvalidSpec(f"unknown diag stat {stat!r}")
        rows.append(row)
    columns = ["t"] + [c for c in ("cltsup", "sgint", "gratio", "major", "minor")
                       if any(c in r for r in rows)]
    emit_rows(rows, columns, cfg.out, stream)
    return 0


# -- selftest verb ------------------------------------------------------------------


def cmd_selftest(args, cfg: Config, stream) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khinfam",
        description=(
            "Exact coefficients and saddle-point asymptotics of power series "
            "with non-negative coefficients."
        ),
        epilog=COLUMN_ORDER_NOTE,
        allow_abbrev=False,
    )
    parser.add_argument("--trunc", type=int,
                        default=int(os.environ.get("KF_TRUNC", str(DEFAULT_ORDER))),
                        help="coefficient truncation order (env KF_TRUNC)")
    parser.add_argument("--out", choices=("table", "csv", "jsonl"), default="table")
    parser.add_argument("--seed", type=int, default=0, help="sampler seed")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("coeff", help="coefficient estimates for a catalog family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", default="exact,hayman",
                   help="comma list: exact,hayman,bd,closed,hr,distinct,ingham,wright,colored,mw")

    p = sub.add_parser("family", help="pointwise statistics of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--stats", default="mean,var",
                   help="comma list: mean,var,clan,mass:N,moment:K,cmoment:K,fmoment:J,"
                        "charfn:THETA,mgf:LAMBDA,zerofree,maxterm,gap,qgcd")

    p = sub.add_parser("largepow", help="coefficients of large powers psi^n")
    p.add_argument("--psi", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", default=None, help="optional prefactor family")
    p.add_argument("--regime", default="auto",
                   help="auto | comparable:A,B | limitl:L,W | boundary[:W] | smallk | "
                        "smallkref:J | fixedk | largek")

    p = sub.add_parser("lagrange", help="Lagrange-equation and progeny asymptotics")
    p.add_argument("--op", default="omm",
                   choices=("apex", "omm", "power", "func", "bt", "btasym", "pp",
                            "ppasym", "general", "sample"))
    p.add_argument("--psi", default="exp")
    p.add_argument("--h", default=None, help="outer/initial series for func/general")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=10000)

    p = sub.add_parser("diag", help="Gaussianity diagnostics over a radius grid")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True, help="comma list of radii")
    p.add_argument("--stats", default="cltsup,sgint",
                   help="comma list: cltsup,sgint,gratio,cuts[:H]")

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", default=None, help="comma list of criterion numbers")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(trunc=args.trunc, out=args.out, seed=args.seed)
        handler = {
            "coeff": cmd_coeff,
            "family": cmd_family,
            "largepow": cmd_largepow,
            "lagrange": cmd_lagrange,
            "diag": cmd_diag,
            "selftest": cmd_selftest,
        }[args.verb]
        return handler(args, cfg, sys.stdout)
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
