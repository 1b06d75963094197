"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py [--check]

For every pool entry this records, in ``perfbench/refs/<workload>.json``:

* exact: a sha256 digest of the exact ``Fraction`` content of the result;
* saddle: the float result in normal form (compared with a tolerance);
* cli: exit code, stdout and the error name on stderr;
* a named error, for entries that are out of the domain by design;
* the CLI contract, for the inputs in ``pools.CLI_DEFECTS``.

Before writing, the exact results are cross-checked by independent routes
in the package: ``mul`` against ``schoolbook_mul``; ``lagrange_invert``
against ``lagrange_fixed_point`` and ``extended_coeff``; the pentagonal
partition recurrence against ``product_expansion``; ``exact_power_coeff``
against ``fixed_k_polynomial``; ``log_series`` against ``exp_series`` and
``reciprocal`` against ``mul``. With ``--check`` nothing is written and the
exit code says whether the files are reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pools  # noqa: E402
import run  # noqa: E402


def cross_check(K, pool, inp) -> int:
    """Check the exact pool by the package's independent routes; count checks."""
    S, C, LP, L = K.series, K.catalog, K.large_powers, K.lagrange
    ser, n_checks = inp.series, 0

    def expect(ok: bool, what: str) -> None:
        nonlocal n_checks
        if not ok:
            raise SystemExit(f"make_refs: cross-check failed: {what}")
        n_checks += 1

    z = S.CoeffSeries((Fraction(0), Fraction(1)))
    p_orders = set()
    for q in pool:
        a = q.args
        if q.op == "mul":
            x, y = ser[a[0]], ser[a[1]]
            expect(S.mul(x, y).coeffs == tuple(S.schoolbook_mul(x.coeffs, y.coeffs)), q.qid)
        elif q.op in ("lagrange_invert", "lagrange_fixed_point"):
            psi, n = ser[a[0]], a[1]
            g = S.lagrange_invert(psi, n)
            expect(g == S.lagrange_fixed_point(psi, n), q.qid + " formula vs fixed point")
            for m in sorted({1, n // 2, n}):
                expect(L.extended_coeff(z, psi, m) == g.coeff(m), f"{q.qid} extended_coeff {m}")
        elif q.op == "exact_power_coeff":
            fam, n, k = inp.families[a[0]], a[1], a[2]
            exact = LP.exact_power_coeff(LP.PowerCoeffQuery(fam, n, k))
            expect(LP.fixed_k_polynomial(fam.coeffs, k).value_at(n) == exact, q.qid)
        elif q.op == "log_series":
            f = ser[a[0]]
            back, _ = S.exp_series(S.log_series(f))
            expect(back == S.scale(f, 1 / f.coeffs[0]), q.qid + " exp(log f) = f/f0")
        elif q.op == "reciprocal":
            f = ser[a[0]]
            one = S.mul(f, S.reciprocal(f))
            expect(one.coeffs == (1,) + (0,) * f.order, q.qid + " f * (1/f) = 1")
        for arg in a:
            if isinstance(arg, str) and arg.startswith(("P@", "fam:P@")):
                p_orders.add(int(arg.rpartition("@")[2]))
        if q.op == "exact_coeffs" and a[0] == "P":
            p_orders.add(a[1])
    for n in sorted(p_orders):
        parts = [(p, 1) for p in range(1, n + 1)]
        expect(C.pentagonal_partitions(n) == C.product_expansion(parts, n), f"P@{n}")
    return n_checks


def reference(K, workload: str, q, inp) -> dict:
    try:
        result, exc = pools.run_query(K, inp, q), None
    except Exception as e:  # classified below
        result, exc = None, e
    if q.cls == "defect":
        if exc is not None:
            observed = f"raises {type(exc).__name__}"
        else:
            got = pools.normal_form(workload, result)
            observed = f"exit {got['exit']}: " + " ".join(got["stdout"].split())[:80]
        return {"contract": "exit 2 or 3 with a named error", "observed": observed}
    if exc is not None:
        if not isinstance(exc, K.errors.KhinfamError):
            raise SystemExit(f"make_refs: {q.qid} raises {type(exc).__name__}: {exc}")
        return {"error": exc.name}
    got = pools.normal_form(workload, result)
    if workload == "cli" and run.judge(K, workload, got, None, got) != "ok":
        raise SystemExit(f"make_refs: {q.qid} breaks the CLI contract: {got}")
    return got


def generate(workload: str) -> str:
    K = run.import_khinfam()
    if K is None:
        raise SystemExit("make_refs: no khinfam package under src/")
    pool = pools.POOLS[workload]()
    inp = pools.build_inputs(K, workload, pool)
    if workload == "exact":
        n = cross_check(K, pool, inp)
        print(f"exact: {n} cross-checks passed", file=sys.stderr)
    refs = {}
    for q in pool:
        refs[q.qid] = reference(K, workload, q, inp)
        pools.clear_caches(K)
    return json.dumps(refs, indent=1, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="write or check perfbench/refs/*.json")
    ap.add_argument("--check", action="store_true", help="compare instead of writing")
    args = ap.parse_args(argv)
    status = 0
    for w in pools.WORKLOADS:
        text = generate(w)
        path = run.HERE / "refs" / f"{w}.json"
        if args.check:
            same = path.is_file() and path.read_text() == text
            print(f"{w}: {'reproduced' if same else 'DIFFERS'}", file=sys.stderr)
            status |= not same
        else:
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
            print(f"{w}: wrote {path.relative_to(run.ROOT)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
