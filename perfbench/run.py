"""khinfam benchmark: one closed-loop client over a seeded query stream.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {exact,saddle,cli} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout. A run builds the
workload's inputs, then sends queries one at a time, each only after the
previous one returned, in whole passes over the pool (each pass a fresh
seeded permutation) until ``--seconds`` have elapsed. Every output is checked
against ``perfbench/refs/<workload>.json``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same,
then replays the first pass, each query both untraced and with every khinfam
function wrapped, checks the layer split, and prints the per-layer metrics;
its spans and checks go to ``perfbench/out/``. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. A line starting ``stamp`` before it records the machine.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import pools  # noqa: E402
from pools import WORKLOADS  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SETUP_REPEATS = 7
MIN_QUERIES = 100
# Float results must agree with their reference to a thousand times the
# saddle solver's relative tolerance on the mean (1e-9).
REL_TOL = 1e-6
ABS_TOL = 1e-12
# "Near 0" for evaluator calls on exact: under this share of the traced spans.
EVAL_NEAR_ZERO = 0.01
_NAN_INF = re.compile(r"(?<![\w.])[-+]?(nan|inf)(?![\w.])", re.I)

END_TO_END = (
    ("throughput_qps", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("success_frac", "frac"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


# -- set-up ----------------------------------------------------------------------


def import_khinfam():
    """Import khinfam from this checkout's ``src/``, or return None."""
    if not (SRC / "khinfam" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import khinfam
    import khinfam.cli  # noqa: F401  (the cli workload's entry point)

    if Path(khinfam.__file__).resolve().parent != SRC / "khinfam":
        return None
    return khinfam


def load_refs(workload: str, pool) -> dict | None:
    path = HERE / "refs" / f"{workload}.json"
    if not path.is_file():
        return None
    refs = json.loads(path.read_text())
    if any(q.qid not in refs for q in pool):
        return None
    return refs


def setup(workload: str):
    """Everything before the first timed query: import, pool, inputs, refs."""
    K = import_khinfam()
    if K is None:
        raise SystemExit("perfbench: no khinfam package under src/ of this checkout")
    pool = pools.POOLS[workload]()
    refs = load_refs(workload, pool)
    if refs is None:
        raise SystemExit(f"perfbench: perfbench/refs/{workload}.json misses pool entries")
    inputs = pools.build_inputs(K, workload, pool)
    return K, pool, refs, inputs


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from process start to the first query being ready, per repeat."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed: {err.strip()[-400:]}")
        out.append(ready - t0)
    return out


# -- judging outputs ---------------------------------------------------------------


def close(a, b) -> bool:
    """Equal up to REL_TOL/ABS_TOL for numbers, exactly otherwise."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    return a == b


def outcome(workload: str, result, exc):
    """What a query produced: its normal form, or the exception it raised."""
    if exc is not None:
        return {"raised": type(exc).__name__}
    return pools.normal_form(workload, result)


def judge(K, workload: str, got, exc, ref) -> str:
    """``ok``, ``failed`` (a known defect that breaks the contract) or ``wrong``.

    A query whose reference is a named error succeeds when it raises that
    error. A ``defect`` query is held to the CLI contract only: it succeeds
    on exit 2 or 3 with a named error, and fails, without being wrong, while
    it crashes or prints nan or inf.
    """
    defect = "contract" in ref
    if exc is not None:
        if isinstance(exc, K.errors.KhinfamError) and ref.get("error") == exc.name:
            return "ok"
        return "failed" if defect else "wrong"
    if workload == "cli":
        breach = got["exit"] not in (0, 2, 3) or (
            got["exit"] == 0 and _NAN_INF.search(got["stdout"]) is not None)
        if defect:
            if breach:
                return "failed"
            return "ok" if got["exit"] in (2, 3) and got["error"] else "wrong"
        if breach:
            return "wrong"
    if workload == "saddle":
        return "ok" if "value" in ref and close(got["value"], ref["value"]) else "wrong"
    return "ok" if got == ref else "wrong"


# -- the closed loop ---------------------------------------------------------------


@dataclass(slots=True)
class Record:
    q: pools.Query
    seconds: float
    status: str
    got: dict


def one_query(K, workload, inputs, q, refs) -> Record:
    if workload == "cli":  # as if each command had a process to itself
        pools.clear_caches(K)
    t0 = time.perf_counter()
    try:
        result, exc = pools.run_query(K, inputs, q), None
    except Exception as e:  # an unexpected crash is an outcome to judge
        result, exc = None, e
    dt = time.perf_counter() - t0
    got = outcome(workload, result, exc)
    return Record(q, dt, judge(K, workload, got, exc, refs[q.qid]), got)


def run_loop(K, workload, inputs, passes, refs, seconds: float) -> list[list[Record]]:
    """Whole passes until ``seconds`` have elapsed and MIN_QUERIES are done."""
    gc.collect()
    start = time.perf_counter()
    out: list[list[Record]] = []
    done = 0
    while time.perf_counter() - start < seconds or done < MIN_QUERIES:
        order = next(passes)
        if out:
            pools.clear_caches(K)
        out.append([one_query(K, workload, inputs, q, refs) for q in order])
        done += len(order)
    return out


def tail_percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank percentile q, or None unless ten samples lie beyond it."""
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < 10:
        return None
    return xs[rank - 1]


def class_split(workload: str, records: list[Record]) -> dict:
    """Per-query median latency by cost class, and the predicted ordering."""
    per_q: dict[str, list[float]] = {}
    cls_of = {}
    for r in records:
        per_q.setdefault(r.q.qid, []).append(r.seconds)
        cls_of[r.q.qid] = r.q.cls
    med = {qid: statistics.median(v) for qid, v in per_q.items()}
    by_cls: dict[str, list[float]] = {}
    for qid, m in med.items():
        by_cls.setdefault(cls_of[qid], []).append(m)
    summary = {c: {"queries": len(v), "min_ms": min(v) * 1e3, "median_ms": statistics.median(v) * 1e3,
                   "max_ms": max(v) * 1e3} for c, v in sorted(by_cls.items())}
    cheap, dear = {"exact": ("sparse", "dense"), "saddle": ("solver", "partsum")}.get(
        workload, (None, None))
    if cheap in by_cls and dear in by_cls:
        summary["split_holds"] = max(by_cls[cheap]) < min(by_cls[dear])
        summary["split"] = f"every {cheap} query cheaper than every {dear} query"
    return summary


def machine_stamp() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": _loadavg()}


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def end_to_end(records: list[Record], setup_runs: list[float]) -> dict:
    lat = [r.seconds for r in records]
    failed = sum(r.status != "ok" for r in records)
    p90 = tail_percentile(lat, 0.9)
    if p90 is None:
        raise SystemExit("perfbench: too few queries for a p90 with ten samples beyond it")
    return {
        "throughput_qps": len(lat) / math.fsum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "success_frac": 1.0 - failed / len(lat),
        "setup_s": statistics.median(setup_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_split(workload: str, metrics: dict, split: dict) -> dict[str, bool]:
    """The layer split a workload is built on, as checks the traced run must pass.

    ``exact``: ``catalog.eval.calls`` near 0 (under 1% of the spans) and every
    sparse query cheaper than every dense one. ``saddle``: ``series.calls`` 0
    and every solver query cheaper than every partsum one. ``cli``: none.
    """
    checks: dict[str, bool] = {}
    if workload == "exact":
        checks["catalog_eval_calls_near_zero"] = (
            metrics["catalog.eval.calls"] < EVAL_NEAR_ZERO * metrics["trace.spans"])
    if workload == "saddle":
        checks["series_calls_zero"] = metrics["series.calls"] == 0
    if workload in ("exact", "saddle"):
        checks["class_split"] = split.get("split_holds", False)
    return checks


def traced_run(K, workload, inputs, first_pass, refs, split) -> tuple[Tracer, dict, dict]:
    """Replay one pass with every khinfam function wrapped; per-layer metrics.

    Each query runs twice in a row, untraced and traced, so that the tracing
    overhead is measured on pairs the machine ran at the same speed; the side
    that runs first alternates from query to query, so that neither gains from
    warm caches. Returns the tracer, the metrics and the checks, every one of
    which must hold for the run to be correct: every traced result equal to
    the untraced ones and to its reference, every wrapped name back to its
    original object, and the workload's layer split.
    """
    order = [r.q for r in first_pass]
    tracer = Tracer(K, pools.khinfam_modules(K))
    traced_inputs = pools.Inputs(inputs.series, {}, inputs.specs)
    plain, traced, restored = [], [], True
    gc.collect()
    for i, q in enumerate(order):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            pools.clear_caches(K)
            if not with_trace:
                plain.append(one_query(K, workload, inputs, q, refs))
                continue
            tracer.install()
            try:
                if not traced_inputs.families:
                    traced_inputs.families = {k: tracer.wrap_family(v)
                                              for k, v in inputs.families.items()}
                tracer.qid = i
                traced.append(one_query(K, workload, traced_inputs, q, refs))
            finally:
                restored = tracer.uninstall() and restored
    overhead = math.fsum(r.seconds for r in traced) / math.fsum(r.seconds for r in plain) - 1.0
    stdout_bytes = sum(len(r.got.get("stdout", "").encode()) for r in traced)
    metrics = tracer.layer_metrics(overhead, stdout_bytes)
    checks = {
        "traced_equals_untraced": all(a.got == b.got == c.got
                                      for a, b, c in zip(traced, plain, first_pass)),
        "traced_match_refs": all(r.status != "wrong" for r in traced),
        "names_restored": restored,
        **layer_split(workload, metrics, split),
    }
    return tracer, metrics, checks


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    K, pool, refs, inputs = setup(args.workload)
    passes = pools.passes(pool, args.seed)
    passes = itertools.chain([next(passes)], passes)  # the first pass is part of set-up
    if args.setup_only:
        print("ready", flush=True)
        return 0

    stamp = machine_stamp()
    setup_runs = measure_setup(args.workload, args.seed) if not args.trace else []
    rounds = run_loop(K, args.workload, inputs, passes, refs, args.seconds)
    records = [r for rnd in rounds for r in rnd]
    wrong = [r for r in records if r.status == "wrong"]
    failed = [r for r in records if r.status != "ok"]
    split = class_split(args.workload, records)
    stamp.update(workload=args.workload, seed=args.seed, queries=len(records),
                 passes=len(rounds), pool=len(pool))

    if args.trace:
        tracer, metrics, checks = traced_run(K, args.workload, inputs, rounds[0], refs, split)
        honest = all(checks.values())
        units = dict(PER_LAYER)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}.tsv", [r.q.qid for r in rounds[0]])
        (out_dir / f"trace-{args.workload}.json").write_text(json.dumps(
            {"stamp": stamp, "checks": checks, "classes": split, "metrics": metrics},
            indent=1) + "\n")
        print("trace checks " + json.dumps(checks), file=sys.stderr)
    else:
        metrics, honest = end_to_end(records, setup_runs), True
        units = dict(END_TO_END)
        print("classes " + json.dumps(split), file=sys.stderr)

    for r in failed[:20]:
        print(f"{r.status}: {r.q.qid} {str(r.got)[:200]}", file=sys.stderr)
    stamp["loadavg_end"] = _loadavg()
    print("stamp " + json.dumps(stamp))
    for name, value in metrics.items():
        extra = f" (of {len(records)} queries)" if name.startswith("latency_") else ""
        print(f"{name} {value} {units[name]}{extra}")
    print(json.dumps({
        "correct": honest and not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
