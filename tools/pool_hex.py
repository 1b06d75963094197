"""Dump every perfbench pool output with its floats as hex, and diff two dumps.

    python tools/pool_hex.py dump OUT.json [--root CHECKOUT]
    python tools/pool_hex.py diff A.json B.json

``dump`` replays the exact, saddle and cli pools in process, through
perfbench's own set-up and dispatch (``pools.build_inputs``,
``pools.run_query``), with the caches cleared before each query as
``perfbench/make_refs.py`` does, and writes each query's normal form
(``run.outcome``) with every float as ``float.hex``. ``--root`` names the
checkout to replay (its ``perfbench/`` and ``src/``), by default the one
this file is in. Nothing is written under ``perfbench/``.

``diff`` lists the entries that differ between two dumps, each with its
largest relative change over the floats it holds, or ``changed`` when a
string, an exit code or an error name differs. It exits 1 when any entry
differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path


def load_run(root: Path):
    """``perfbench/run.py`` of the checkout at root, as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hexed(x):
    """x with every float replaced by its hex form."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, list):
        return [hexed(y) for y in x]
    if isinstance(x, dict):
        return {k: hexed(v) for k, v in x.items()}
    return x


def dump(root: Path) -> dict:
    sys.dont_write_bytecode = True  # neither perfbench/ nor src/ gets a cache
    run = load_run(root)
    K = run.import_khinfam()
    if K is None:
        raise SystemExit(f"pool_hex: no khinfam package under {root / 'src'}")
    out = {}
    for workload in run.pools.WORKLOADS:
        pool = run.pools.POOLS[workload]()
        inputs = run.pools.build_inputs(K, workload, pool)
        entries = out[workload] = {}
        for q in pool:
            run.pools.clear_caches(K)
            try:
                result, exc = run.pools.run_query(K, inputs, q), None
            except Exception as e:  # an error is an outcome too
                result, exc = None, e
            entries[q.qid] = hexed(run.outcome(workload, result, exc))
    return out


def is_hex(x) -> bool:
    # perfbench's normal form holds finite floats only, and hex() of one
    # starts with 0x or -0x
    return isinstance(x, str) and x.startswith(("0x", "-0x"))


def relative_change(a, b) -> float | None:
    """The largest |b - a| / |a| over the floats of two entries, or None
    when they differ in anything but floats."""
    if is_hex(a) and is_hex(b):
        x, y = float.fromhex(a), float.fromhex(b)
        return 0.0 if x == y else abs(y - x) / abs(x) if x else math.inf
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = zip(a, b)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = ((a[k], b[k]) for k in a)
    else:
        return 0.0 if a == b else None
    worst = 0.0
    for x, y in pairs:
        rel = relative_change(x, y)
        if rel is None:
            return None
        worst = max(worst, rel)
    return worst


def diff(a: dict, b: dict) -> list[str]:
    lines = []
    for workload in sorted(a.keys() | b.keys()):
        wa, wb = a.get(workload, {}), b.get(workload, {})
        for qid in sorted(wa.keys() | wb.keys()):
            if qid not in wa or qid not in wb:
                lines.append(f"{workload} {qid}: only in {'B' if qid not in wa else 'A'}")
            elif wa[qid] != wb[qid]:
                rel = relative_change(wa[qid], wb[qid])
                what = "changed" if rel is None else f"relative change {rel:.3g}"
                lines.append(f"{workload} {qid}: {what}\n  A {json.dumps(wa[qid])}\n"
                             f"  B {json.dumps(wb[qid])}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_dump = sub.add_parser("dump", help="replay the three pools and write their outputs")
    p_dump.add_argument("out", type=Path)
    p_dump.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    p_diff = sub.add_parser("diff", help="list the entries that moved between two dumps")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        out = dump(args.root.resolve())
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"{args.out}: " + ", ".join(f"{w} {len(e)}" for w, e in out.items()))
        return 0
    lines = diff(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
    print("\n".join(lines) if lines else "no entry moved")
    print(f"{len(lines)} entries moved", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
