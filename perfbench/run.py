#!/usr/bin/env python3
"""Campaign benchmark: host time of the paper's campaigns, end to end.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds perfbench/ (and through
it the otisnet library) into .bench_build/perfbench, writes the campaign
spec for the workload and seed, runs campaign_bench on it for --seconds,
checks every row it wrote, and prints one JSON object as the last line
of stdout: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. README.md in this directory explains the workloads and
metrics; --record-reference rewrites reference/<workload>.json from a
run on the reference seed.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "perfbench"
REFERENCE_SEED = 1


def paper_sweep(seed):
    return {
        "name": "paper_sweep",
        "topologies": [{"kind": "stack_kautz", "s": 4, "d": 3, "k": 2},
                       {"kind": "pops", "t": 6, "g": 12},
                       {"kind": "stack_imase_itoh", "s": 4, "d": 2, "n": 12}],
        "arbitrations": ["token", "random", "aloha"],
        "traffic": "uniform",
        "loads": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "wavelengths": [1, 2],
        "seeds": [seed],
        "warmup_slots": 200,
        "measure_slots": 2000,
        "engine": "phased",
    }


def scale_sharded(seed):
    return {
        "name": "scale_sharded",
        "topologies": [{"kind": "stack_kautz", "s": 10, "d": 10, "k": 3}],
        "arbitrations": ["token"],
        "traffic": "uniform",
        "loads": [0.6],
        "wavelengths": [1],
        "routes": ["compressed"],
        # 2048 ticks = 2 slots of propagation: the async-sharded cell's
        # conservative windows get real lookahead.
        "timings": ["none", {"profile": "const", "tuning": 0,
                             "propagation": 2048, "guard": 0}],
        "seeds": [seed],
        "warmup_slots": 50,
        "measure_slots": 150,
        "engine": "sharded",
        "engine_threads": 2,
    }


def collectives(seed):
    return {
        "name": "collectives",
        "topologies": [{"kind": "pops", "t": 12, "g": 24},
                       {"kind": "stack_kautz", "s": 8, "d": 8, "k": 2}],
        "arbitrations": ["token", "random"],
        "traffic": "uniform",
        "loads": [0.0, 0.3],
        "wavelengths": [1],
        "timings": ["none", {"profile": "const", "tuning": 512,
                             "propagation": 128}],
        "workloads": [{"kind": "one_to_all", "root": 0}, "gossip",
                      {"kind": "reduce", "root": 0, "arity": 2},
                      {"kind": "gather", "root": 0},
                      {"kind": "bsp", "phases": 4, "shift": 1}],
        "seeds": [seed],
        "warmup_slots": 0,
        "measure_slots": 1,
        "engine": "phased",
    }


# Workload -> (spec function, campaign pool workers).
WORKLOADS = {
    "paper_sweep": (paper_sweep, 2),
    "scale_sharded": (scale_sharded, 1),
    "collectives": (collectives, 2),
}


def benchmark_metrics(kind):
    """Metric name -> unit for "end_to_end" or "per_layer", as declared in
    BENCHMARK.json. README.md says which end-to-end metric and workload
    each per-layer metric should move."""
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


# Memory readings are taken from the first traced repetition, the one
# that starts from a fresh process; later ones reuse freed heap.
FIRST_REP_LAYERS = {"routing.rss_delta_mib", "sim.rss_delta_mib",
                    "process.base_rss_mib", "process.peak_rss_mib"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output to stderr."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                    "--target", "campaign_bench"],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR / "campaign_bench"


def reference_path(workload):
    return BENCH_DIR / "reference" / (workload + ".json")


def summarize(values):
    """Median with quartiles and sample count, for the log."""
    if len(values) < 2:
        return "%.6g (n=%d)" % (values[0], len(values))
    q1, median, q3 = statistics.quantiles(values, n=4)
    return "%.6g [%.6g, %.6g] n=%d" % (median, q1, q3, len(values))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference/<workload>.json from this run "
                             "(reference seed only)")
    args = parser.parse_args()
    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error("--record-reference needs --seed %d" % REFERENCE_SEED)

    binary = build()
    host = json.loads(subprocess.run([str(binary), "--host"], check=True,
                                     capture_output=True, text=True).stdout)
    work = BUILD_DIR / "work" / ("%s-seed%d-trace%d" % (args.workload,
                                                        args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    make_spec, threads = WORKLOADS[args.workload]
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(make_spec(args.seed), indent=1))

    subprocess.run([str(binary), "--spec", str(spec_path), "--work", str(work),
                    "--threads", str(threads), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)],
                   stdout=sys.stderr, check=True, timeout=args.seconds + 120)
    report = json.loads((work / "report.json").read_text())
    rows = (work / "rows.jsonl").read_text().splitlines()
    if not report["wall_s"] or (args.trace and not report["layers"]):
        sys.exit("campaign_bench: no repetition completed: %s"
                 % "; ".join(report["errors"]))

    if args.record_reference:
        reference_path(args.workload).parent.mkdir(exist_ok=True)
        digests = {json.loads(line)["cell_id"]: checks.row_digest(line)
                   for line in rows}
        reference_path(args.workload).write_text(json.dumps(
            {"seed": REFERENCE_SEED, "digests": digests}, indent=1) + "\n")
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(reference_path(args.workload).read_text())
        reference = reference["digests"]
    failures = checks.failing_cells(rows, report["schedule_slots"], reference)
    for cell, reason in sorted(failures.items()):
        log("check failed: %s: %s" % (cell, reason))

    # Every repetition ran every cell; a repetition that threw lost all
    # of them, a row that differs from the first repetition's is one
    # failed cell, and a cell whose row fails a check fails every time.
    cells = len(reference) if reference is not None else len(rows)
    runs = len(report["wall_s"]) + len(report["traced_wall_s"])
    errors = len(report["errors"])
    attempted = cells * (runs + errors)
    failed = min(attempted, len(failures) * runs + report["rows_mismatched"]
                 + cells * errors)

    hops = sum(json.loads(line)["coupler_transmissions"] for line in rows)
    if args.trace == 0:
        samples = {
            "wall_s": report["wall_s"],
            "setup_s": report["setup_s"],
            "ns_per_hop": [wall * 1e9 / hops for wall in report["wall_s"]],
            "cpu_s": report["cpu_s"],
            "peak_rss_mib": [report["peak_rss_mib"]],
        }
        for name, values in samples.items():
            log("%-14s %s" % (name, summarize(values)))
        metrics = {name: metric(statistics.median(samples[name]), unit)
                   for name, unit in benchmark_metrics("end_to_end").items()}
    else:
        layers = report["layers"]
        values = {name: [rep[name] for rep in layers] for name in layers[0]}
        values["trace.overhead"] = [
            statistics.median(report["traced_wall_s"])
            / statistics.median(report["wall_s"]) - 1.0]
        values["campaign.failed_frac"] = [failed / attempted]
        metrics = {}
        for name, unit in benchmark_metrics("per_layer").items():
            series = values[name][:1] if name in FIRST_REP_LAYERS else values[name]
            metrics[name] = metric(statistics.median(series), unit)
        for name in sorted(metrics):
            log("%-26s %.6g" % (name, metrics[name]["value"]))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(BUILD_DIR / "results.jsonl", "a") as history:
        history.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, "trace": args.trace,
                                  "seconds": args.seconds, "host": host,
                                  "result": result}) + "\n")
    print("host: " + json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        sys.exit("run.py: %s" % error)
