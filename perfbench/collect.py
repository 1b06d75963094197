"""Run the benchmark over ten seeds and summarise each metric.

    python3 perfbench/collect.py [--first-seed 1] [--out FILE]

For every workload this makes one ``--trace 0`` run for each of SEEDS seeds
and one ``--trace 1`` run (first seed), each as its own process, and reports per
end-to-end metric the median, the quartiles and the spread: the distance
between the quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median. The summary, with every run's machine stamp, goes to ``--out``
(default: print only).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(next(ln for ln in lines if ln.startswith("stamp "))[6:])
    return json.loads(lines[-1]), stamp


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"run_seconds": seconds, "workloads": {}}
    for w in [x["name"] for x in bench["workloads"]]:
        runs, stamps = [], []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            result, stamp = one_run(w, seed, seconds, 0)
            runs.append(result)
            stamps.append(stamp)
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        traced, trace_stamp = one_run(w, args.first_seed, seconds, 1)
        trace = json.loads((HERE / "out" / f"trace-{w}.json").read_text())
        e2e = {m: summarise([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        for m, s in e2e.items():
            print(f"{w:7s} {m:15s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[m]})", file=sys.stderr)
        summary["workloads"][w] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "trace_checks": trace["checks"],
            "classes": trace["classes"],
            "stamps": stamps + [trace_stamp],
        }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
