#!/usr/bin/env python3
"""Steadiness report: runs one workload once per seed (seeds 1..--runs)
and prints, per end-to-end metric, the median, the quartiles and the
spread.

    python3 perfbench/steady.py --workload paper_sweep --runs 10 --seconds 30

Run from the repository root. The spread is (q3 - q1) / median over the
runs, with the quartiles of statistics.quantiles(values, n=4), and is
compared with the metric's bound in BENCHMARK.json: under a third of
the bound is steady, under the bound is usable, above it is too noisy
to gate on. Each run's set-up samples are listed too (median,
quartiles, count), since set-up is the metric a run samples least on
scale_sharded and the one most easily under-sampled elsewhere. The
runs' results are saved to
.bench_build/perfbench/steady-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"]
              for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    results = []
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        print("seed %d: correct=%s %s" % (seed, result["correct"], " ".join(
            "%s=%.6g" % (name, m["value"])
            for name, m in result["metrics"].items())), flush=True)
        # Set-up is the easiest metric to under-sample: show the run's own
        # median, quartiles and sample count (run.py's log line).
        for line in done.stderr.splitlines():
            if line.startswith("setup_s"):
                print("    within run: " + line, flush=True)

    print("\n%-14s %12s %12s %12s %8s %8s  verdict" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = ("steady" if spread < bound / 3 else
                   "usable" if spread <= bound else "too noisy")
        summary[name] = {"values": values, "median": median, "q1": q1,
                         "q3": q3, "spread": spread, "bound": bound,
                         "verdict": verdict}
        print("%-14s %12.6g %12.6g %12.6g %8.4f %8.3f  %s" %
              (name, median, q1, q3, spread, bound, verdict))
    out = Path(".bench_build") / "perfbench" / ("steady-%s.json" % args.workload)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload,
                               "seconds": args.seconds,
                               "correct": all(r["correct"] for r in results),
                               "metrics": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
