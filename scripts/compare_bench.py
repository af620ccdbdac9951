#!/usr/bin/env python3
"""Compare two BENCH_sim.json files; warn on regressions, enforce bars.

Usage: compare_bench.py PREVIOUS.json CURRENT.json [--threshold 0.20]

Matches results on (topology, arbitration, engine) and reports the
slots/sec ratio current/previous. Rows slower than the threshold emit a
GitHub Actions ::warning:: annotation, as do route-table byte growth,
event-queue rate slowdowns (hold and flood models), collective-makespan
growth, per-phase ns/slot growth from the phase_breakdown section, and
serial route-compile ns/pair growth from the route_compile section, and
peak-RSS growth of the memory cell. Cross-run wall-clock comparisons
stay warnings (shared CI runners are noisy; the trajectory is
informative).

Wall-clock and memory rows are compared only when both files carry the
same host block (hardware threads, CPU model, compiler); a file without
one counts as an unknown host. Otherwise one warning names both hosts
and those rows are skipped -- a host change is not a regression. The
deterministic rows (route-table bytes, collective makespans) are
compared whatever the host.

The acceptance section of the CURRENT file IS enforced: if
micro_benchmarks recorded pass=false (phased >= 6x event-queue),
queue_pass=false (calendar >= 3x priority queue),
telemetry_pass=false (attached-but-disabled telemetry costs more than
2% on the phased acceptance case), runtime_stats_pass=false
(attached-but-disabled runtime-introspection channel costs more than
2% on the sharded acceptance case), or async_parallel_pass=false
(async-sharded >= 2.5x its own 1-thread run at 8 threads) -- all
judged on the best of paired back-to-back rounds, so a slow runner
cannot flip them -- the script emits ::error:: and exits 1. It does
the same when a recorded overhead percentage disagrees, beyond
rounding, with the off/disabled slots/s rows of its own ladder. The same
holds for route_compile_pass (parallel route compile >= 2.5x serial at
8 threads) and memory_pass (one sketch-mode scale-up cell's peak-RSS
growth within its KiB budget). An async_parallel_pass or
route_compile_pass of null means the host could not judge the 8-thread
bar (too few cores); a memory_pass of null means /proc/self/status was
unavailable -- null verdicts only warn. Exit status is also 1 when the
*current* file is missing, unreadable, not a JSON object or nested
deeper than Python's parser recurses; a previous file in that state
counts as no previous results.
"""

import argparse
import json
import sys


def load_doc(path):
    """The JSON object in `path`; ValueError when the file is not one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except RecursionError as exc:
        raise ValueError(f"nested too deeply ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"top level is a JSON {type(doc).__name__}, "
                         "not an object")
    return doc


def host_label(doc):
    """The file's host as one string, or None when it records none."""
    host = doc.get("host")
    if not isinstance(host, dict):
        return None
    return (f"{host.get('cpu_model', '?')}, {host.get('nproc', '?')} "
            f"threads, {host.get('compiler', '?')}")


def results_by_key(doc):
    rows = doc.get("results", [])
    if not isinstance(rows, list) or not all(isinstance(r, dict)
                                             for r in rows):
        raise ValueError("\"results\" is not a list of objects")
    return {(r["topology"], r["arbitration"], r["engine"]): r for r in rows}


def overhead_contradictions(doc):
    """Overhead verdicts that disagree with the file's own ladder rows.

    micro_benchmarks writes each ladder's off and disabled rows from the
    paired round that sets the verdict, so the recorded overhead must
    equal (off / disabled - 1) * 100 up to rounding: the rows are
    truncated to whole slots/s and the percentage to two decimals.
    Returns one message per ladder that does not.
    """
    acceptance = doc.get("acceptance", {})
    problems = []
    for ladder, key in (("telemetry", "telemetry_overhead_pct"),
                        ("runtime_stats", "runtime_stats_overhead_pct")):
        rows = {r.get("mode"): r.get("slots_per_sec")
                for r in doc.get(ladder, [])}
        recorded = acceptance.get(key)
        off, disabled = rows.get("off"), rows.get("disabled")
        if recorded is None or off is None or disabled is None:
            continue
        if off <= 0 or disabled <= 0:
            problems.append(f"{ladder}: non-positive off/disabled rows "
                            f"({off}, {disabled})")
            continue
        low = (off / (disabled + 1) - 1) * 100 - 0.005
        high = ((off + 1) / disabled - 1) * 100 + 0.005
        if not low <= recorded <= high:
            problems.append(
                f"{ladder}: recorded {key} {recorded}% but its rows "
                f"(off {off}, disabled {disabled} slots/s) imply "
                f"{(off / disabled - 1) * 100:.2f}%")
    return problems


def enforce_acceptance(current_doc):
    """Fail (return 1) when the current run's recorded bars are false."""
    acceptance = current_doc.get("acceptance", {})
    if not acceptance:
        return 0
    speedup = acceptance.get("measured_speedup")
    required = acceptance.get("required_speedup")
    print(f"\nacceptance: phased vs event-queue "
          f"{speedup}x (required {required}x), "
          f"calendar vs priority "
          f"{acceptance.get('queue_measured_speedup')}x "
          f"(required {acceptance.get('queue_required_speedup')}x)")
    failed = False
    if acceptance.get("pass") is False:
        print(f"::error title=Engine speedup bar failed::phased engine "
              f"at {speedup}x of the event-queue baseline, below the "
              f"required {required}x")
        failed = True
    if acceptance.get("queue_pass") is False:
        print(f"::error title=Queue speedup bar failed::calendar queue "
              f"at {acceptance.get('queue_measured_speedup')}x of the "
              f"priority-queue baseline, below the required "
              f"{acceptance.get('queue_required_speedup')}x")
        failed = True
    if "telemetry_pass" in acceptance:
        print(f"acceptance: disabled-telemetry overhead "
              f"{acceptance.get('telemetry_overhead_pct')}% (max "
              f"{acceptance.get('telemetry_required_max_overhead_pct')}%)")
    if acceptance.get("telemetry_pass") is False:
        print(f"::error title=Telemetry overhead bar failed::attached-but-"
              f"disabled telemetry costs "
              f"{acceptance.get('telemetry_overhead_pct')}% on the phased "
              f"acceptance case, above the allowed "
              f"{acceptance.get('telemetry_required_max_overhead_pct')}%")
        failed = True
    if "runtime_stats_pass" in acceptance:
        print(f"acceptance: disabled-runtime-stats overhead "
              f"{acceptance.get('runtime_stats_overhead_pct')}% (max "
              f"{acceptance.get('runtime_stats_required_max_overhead_pct')}"
              f"%)")
    if acceptance.get("runtime_stats_pass") is False:
        print(f"::error title=Runtime-stats overhead bar failed::attached-"
              f"but-disabled runtime-introspection channel costs "
              f"{acceptance.get('runtime_stats_overhead_pct')}% on the "
              f"sharded acceptance case, above the allowed "
              f"{acceptance.get('runtime_stats_required_max_overhead_pct')}"
              f"%")
        failed = True
    for problem in overhead_contradictions(current_doc):
        print(f"::error title=Overhead verdict contradicts its rows::"
              f"{problem}")
        failed = True
    # The async-parallel scaling bar is tri-state: true/false when the
    # host could judge the 8-thread requirement, null (None) with a skip
    # reason when it could not. Only an explicit false fails the build;
    # a skipped verdict stays a warning so laptop/CI runs on small
    # machines don't block on a bar they cannot measure.
    if "async_parallel_pass" in acceptance:
        print(f"acceptance: async-sharded scaling "
              f"{acceptance.get('async_parallel_measured_speedup')}x at "
              f"{acceptance.get('async_parallel_threads')} threads "
              f"(required {acceptance.get('async_parallel_required_speedup')}"
              f"x at 8)")
    if acceptance.get("async_parallel_pass") is False:
        print(f"::error title=Async-parallel scaling bar failed::async-"
              f"sharded engine at "
              f"{acceptance.get('async_parallel_measured_speedup')}x of its "
              f"1-thread run, below the required "
              f"{acceptance.get('async_parallel_required_speedup')}x")
        failed = True
    elif ("async_parallel_pass" in acceptance
          and acceptance.get("async_parallel_pass") is None):
        print(f"::warning title=Async-parallel bar skipped::"
              f"{acceptance.get('async_parallel_skip_reason')}")
    # Parallel route compilation: same tri-state protocol (an 8-thread
    # bar that small hosts record as null with a skip reason).
    if "route_compile_pass" in acceptance:
        print(f"acceptance: parallel route compile "
              f"{acceptance.get('route_compile_measured_speedup')}x at "
              f"{acceptance.get('route_compile_threads')} threads "
              f"(required {acceptance.get('route_compile_required_speedup')}"
              f"x at 8)")
    if acceptance.get("route_compile_pass") is False:
        print(f"::error title=Route-compile scaling bar failed::parallel "
              f"route compile at "
              f"{acceptance.get('route_compile_measured_speedup')}x of the "
              f"serial compile, below the required "
              f"{acceptance.get('route_compile_required_speedup')}x")
        failed = True
    elif ("route_compile_pass" in acceptance
          and acceptance.get("route_compile_pass") is None):
        print(f"::warning title=Route-compile bar skipped::"
              f"{acceptance.get('route_compile_skip_reason')}")
    # Per-cell memory budget: null means /proc/self/status was
    # unavailable (non-Linux host); only an explicit false fails.
    if "memory_pass" in acceptance:
        print(f"acceptance: sketch-cell peak RSS "
              f"{acceptance.get('memory_cell_kib')} KiB (budget "
              f"{acceptance.get('memory_budget_kib')} KiB)")
    if acceptance.get("memory_pass") is False:
        print(f"::error title=Per-cell memory budget exceeded::the "
              f"sketch-mode scale-up cell grew peak RSS by "
              f"{acceptance.get('memory_cell_kib')} KiB, above the "
              f"{acceptance.get('memory_budget_kib')} KiB budget")
        failed = True
    elif ("memory_pass" in acceptance
          and acceptance.get("memory_pass") is None):
        print(f"::warning title=Memory budget skipped::"
              f"{acceptance.get('memory_skip_reason')}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("previous")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative slowdown that triggers a warning")
    args = parser.parse_args()

    try:
        current_doc = load_doc(args.current)
        current = results_by_key(current_doc)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare_bench: cannot read current results from "
              f"{args.current}: {exc}")
        return 1

    try:
        previous_doc = load_doc(args.previous)
        previous = results_by_key(previous_doc)
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare_bench: no previous results in {args.previous} "
              f"({exc}); nothing to compare -- first run on this branch?")
        return enforce_acceptance(current_doc)

    # Wall-clock and memory rows only mean something between runs on one
    # machine: from another (or an unknown) host, compare against an
    # empty previous document so those sections find nothing to pair.
    prev_host, cur_host = host_label(previous_doc), host_label(current_doc)
    same_host = prev_host is not None and prev_host == cur_host
    timed_doc = previous_doc if same_host else {}
    if not same_host:
        print(f"::warning title=Different hosts::previous run on "
              f"{prev_host or 'an unknown host'}, current run on "
              f"{cur_host or 'an unknown host'}; wall-clock and memory "
              f"rows not compared")

    header = f"{'topology':<12} {'arb':<7} {'engine':<12} " \
             f"{'prev slots/s':>13} {'cur slots/s':>13} {'ratio':>7}"
    print(header)
    print("-" * len(header))
    regressions = []
    for key in sorted(current) if same_host else []:
        cur = current[key]
        prev = previous.get(key)
        if prev is None or not prev.get("slots_per_sec"):
            print(f"{key[0]:<12} {key[1]:<7} {key[2]:<12} "
                  f"{'(new)':>13} {cur['slots_per_sec']:>13} {'-':>7}")
            continue
        ratio = cur["slots_per_sec"] / prev["slots_per_sec"]
        print(f"{key[0]:<12} {key[1]:<7} {key[2]:<12} "
              f"{prev['slots_per_sec']:>13} {cur['slots_per_sec']:>13} "
              f"{ratio:>7.2f}")
        if ratio < 1.0 - args.threshold:
            regressions.append((key, ratio))

    for (topology, arbitration, engine), ratio in regressions:
        print(f"::warning title=Perf regression::{topology}/{arbitration}/"
              f"{engine} slots/sec at {ratio:.2f}x of previous run "
              f"(threshold {1.0 - args.threshold:.2f}x)")

    # Memory dimension: route-table bytes are deterministic per
    # (topology, engine), so ANY growth is a real regression, not noise.
    memory_regressions = []
    for key in sorted(current):
        cur_bytes = current[key].get("route_table_bytes")
        prev = previous.get(key)
        prev_bytes = prev.get("route_table_bytes") if prev else None
        if cur_bytes and prev_bytes and cur_bytes > prev_bytes:
            memory_regressions.append((key, prev_bytes, cur_bytes))
    for (topology, arbitration, engine), prev_bytes, cur_bytes in \
            memory_regressions:
        print(f"::warning title=Route-table memory regression::{topology}/"
              f"{arbitration}/{engine} route tables grew from {prev_bytes} "
              f"to {cur_bytes} bytes")

    # Event-queue dimension: calendar vs priority event rates per traffic
    # model (rows keyed by queue, model and pending count; absent in
    # pre-async-layer baselines, and rows from before the flood model
    # carry no "model": they are hold rows). A malformed row (missing
    # "queue") should surface, not silence the comparison.
    def queue_key(row):
        return (row["queue"], row.get("model", "hold"), row.get("pending"))

    queue_regressions = []
    cur_queues = {queue_key(q): q
                  for q in current_doc.get("event_queues", [])}
    prev_queues = {queue_key(q): q
                   for q in timed_doc.get("event_queues", [])}
    for key in sorted(cur_queues, key=str):
        cur_rate = cur_queues[key].get("events_per_sec")
        prev_rate = prev_queues.get(key, {}).get("events_per_sec")
        if not cur_rate or not prev_rate:
            continue
        ratio = cur_rate / prev_rate
        name, model, pending = key
        print(f"event queue {name:<10} {model:<6} {pending!s:>8} "
              f"{prev_rate:>13} {cur_rate:>13} {ratio:>7.2f}")
        if ratio < 1.0 - args.threshold:
            queue_regressions.append((key, ratio))
    for (name, model, pending), ratio in queue_regressions:
        print(f"::warning title=Event-rate regression::{name} queue "
              f"events/sec ({model} model, {pending} pending) at "
              f"{ratio:.2f}x of previous run")

    # Collectives dimension: simulated makespans of the compiled schedule
    # workloads are deterministic per (topology, operation), so ANY growth
    # against the previous run is a real scheduling/engine regression,
    # not noise (rows absent in pre-workload-subsystem baselines).
    makespan_regressions = []
    cur_coll = {(c["topology"], c["operation"]): c
                for c in current_doc.get("collectives", [])}
    prev_coll = {(c["topology"], c["operation"]): c
                 for c in previous_doc.get("collectives", [])}
    for key in sorted(cur_coll):
        cur_slots = cur_coll[key].get("makespan_slots")
        prev_slots = prev_coll.get(key, {}).get("makespan_slots")
        if cur_slots is None or prev_slots is None:
            continue
        print(f"collective {key[0]:<12} {key[1]:<12} "
              f"{prev_slots:>6} -> {cur_slots:>6} slots")
        if cur_slots > prev_slots:
            makespan_regressions.append((key, prev_slots, cur_slots))
    for (topology, operation), prev_slots, cur_slots in makespan_regressions:
        print(f"::warning title=Makespan regression::{topology}/{operation} "
              f"simulated makespan grew from {prev_slots} to {cur_slots} "
              f"slots")

    # Telemetry dimension: the obs-layer cost ladder (off / disabled /
    # sampling slots/sec on the phased acceptance case). Wall-clock, so
    # regressions beyond the threshold warn; the enforced disabled-mode
    # bar lives in the acceptance section below. Rows absent in
    # pre-observability baselines.
    telemetry_regressions = []
    cur_tel = {t["mode"]: t for t in current_doc.get("telemetry", [])}
    prev_tel = {t["mode"]: t for t in timed_doc.get("telemetry", [])}
    for mode in sorted(cur_tel):
        cur_rate = cur_tel[mode].get("slots_per_sec")
        prev_rate = prev_tel.get(mode, {}).get("slots_per_sec")
        if not cur_rate or not prev_rate:
            continue
        ratio = cur_rate / prev_rate
        print(f"telemetry {mode:<12} {prev_rate:>13} {cur_rate:>13} "
              f"{ratio:>7.2f}")
        if ratio < 1.0 - args.threshold:
            telemetry_regressions.append((mode, ratio))
    for mode, ratio in telemetry_regressions:
        print(f"::warning title=Telemetry-overhead regression::telemetry "
              f"mode {mode} slots/sec at {ratio:.2f}x of previous run")

    # Runtime-stats dimension: the runtime-channel cost ladder (off /
    # disabled / collecting slots/sec on the sharded acceptance case).
    # Same protocol as the telemetry ladder: per-mode wall-clock drops
    # beyond the threshold warn here, the enforced disabled-mode bar
    # lives in the acceptance section. Rows absent in pre-runtime-
    # channel baselines.
    runtime_regressions = []
    cur_rt = {r["mode"]: r for r in current_doc.get("runtime_stats", [])}
    prev_rt = {r["mode"]: r for r in timed_doc.get("runtime_stats", [])}
    for mode in sorted(cur_rt):
        cur_rate = cur_rt[mode].get("slots_per_sec")
        prev_rate = prev_rt.get(mode, {}).get("slots_per_sec")
        if not cur_rate or not prev_rate:
            continue
        ratio = cur_rate / prev_rate
        print(f"runtime-stats {mode:<12} {prev_rate:>13} {cur_rate:>13} "
              f"{ratio:>7.2f}")
        if ratio < 1.0 - args.threshold:
            runtime_regressions.append((mode, ratio))
    for mode, ratio in runtime_regressions:
        print(f"::warning title=Runtime-stats overhead regression::runtime "
              f"stats mode {mode} slots/sec at {ratio:.2f}x of previous run")

    # Async-parallel dimension: the threads-vs-1 scaling of the sharded
    # calendar-queue engine on the scale-up case. Only comparable when
    # both runs used the same thread count (different hosts measure
    # different bars); wall-clock, so a drop beyond the threshold warns.
    # Absent in pre-parallel-async baselines.
    async_regressions = []
    cur_async = current_doc.get("async_parallel", {})
    prev_async = timed_doc.get("async_parallel", {})
    cur_scaling = cur_async.get("speedup_best")
    prev_scaling = prev_async.get("speedup_best")
    if cur_scaling and prev_scaling \
            and cur_async.get("threads") == prev_async.get("threads"):
        ratio = cur_scaling / prev_scaling
        print(f"async-parallel scaling ({cur_async.get('threads')}T) "
              f"{prev_scaling:>7.2f}x {cur_scaling:>7.2f}x {ratio:>7.2f}")
        if ratio < 1.0 - args.threshold:
            async_regressions.append(ratio)
    for ratio in async_regressions:
        print(f"::warning title=Async-parallel scaling regression::"
              f"async-sharded threads-vs-1 speedup at {ratio:.2f}x of the "
              f"previous run's")

    # Phase dimension: the serial phased engine's per-phase ns/slot
    # (generate / arbitrate / receive / total, keyed by topology).
    # Wall-clock like the slots/sec rows, so growth beyond the threshold
    # warns; a regressing phase points straight at its hot functions
    # (the hot_functions section names them). Absent in pre-breakdown
    # baselines.
    phase_regressions = []
    phase_fields = ("generate_ns_per_slot", "arbitrate_ns_per_slot",
                    "receive_ns_per_slot", "total_ns_per_slot")
    cur_phases = {p["topology"]: p
                  for p in current_doc.get("phase_breakdown", [])}
    prev_phases = {p["topology"]: p
                   for p in timed_doc.get("phase_breakdown", [])}
    for topology in sorted(cur_phases):
        if topology not in prev_phases:
            continue
        for field in phase_fields:
            cur_ns = cur_phases[topology].get(field)
            prev_ns = prev_phases[topology].get(field)
            if not cur_ns or not prev_ns:
                continue
            ratio = cur_ns / prev_ns
            phase = field.removesuffix("_ns_per_slot")
            print(f"phase {topology:<12} {phase:<10} {prev_ns:>9.1f} "
                  f"{cur_ns:>9.1f} ns/slot {ratio:>7.2f}")
            if ratio > 1.0 + args.threshold:
                phase_regressions.append((topology, phase, ratio))
    for topology, phase, ratio in phase_regressions:
        print(f"::warning title=Phase regression::{topology} {phase} phase "
              f"at {ratio:.2f}x the previous run's ns/slot "
              f"(threshold {1.0 + args.threshold:.2f}x)")

    # Route-compile dimension: absolute serial compile cost per evaluated
    # router pair, keyed by (topology, routes). Wall-clock like the phase
    # rows, so growth beyond the threshold warns. Absent in baselines
    # that predate the serial rows.
    compile_regressions = []
    cur_compile = {(r["topology"], r["routes"]): r for r in
                   current_doc.get("route_compile", {}).get("serial", [])}
    prev_compile = {(r["topology"], r["routes"]): r for r in
                    timed_doc.get("route_compile", {}).get("serial", [])}
    for key in sorted(cur_compile):
        cur_ns = cur_compile[key].get("ns_per_pair")
        prev_ns = prev_compile.get(key, {}).get("ns_per_pair")
        if not cur_ns or not prev_ns:
            continue
        ratio = cur_ns / prev_ns
        print(f"route compile {key[0]:<12} {key[1]:<10} {prev_ns:>9.1f} "
              f"{cur_ns:>9.1f} ns/pair {ratio:>7.2f}")
        if ratio > 1.0 + args.threshold:
            compile_regressions.append((key, ratio))
    for (topology, routes), ratio in compile_regressions:
        print(f"::warning title=Route-compile regression::{topology} "
              f"{routes} serial compile at {ratio:.2f}x the previous run's "
              f"ns/pair (threshold {1.0 + args.threshold:.2f}x)")

    # Memory-cell dimension: the sketch-mode scale-up cell's peak-RSS
    # growth in KiB. Allocator and kernel behaviour vary by host, so it
    # is compared only between files from the same host, and growth
    # beyond the threshold warns (the enforced budget is memory_pass).
    rss_regressions = []
    cur_kib = current_doc.get("memory", {}).get("cell_kib")
    prev_kib = timed_doc.get("memory", {}).get("cell_kib")
    if cur_kib and prev_kib:
        ratio = cur_kib / prev_kib
        print(f"memory cell {prev_kib:>9} -> {cur_kib:>9} KiB {ratio:>7.2f}")
        if ratio > 1.0 + args.threshold:
            rss_regressions.append(ratio)
    for ratio in rss_regressions:
        print(f"::warning title=Memory regression::the sketch-mode scale-up "
              f"cell's peak RSS growth at {ratio:.2f}x the previous run's "
              f"(threshold {1.0 + args.threshold:.2f}x)")

    if not regressions and not memory_regressions and not queue_regressions \
            and not makespan_regressions and not telemetry_regressions \
            and not runtime_regressions and not async_regressions \
            and not phase_regressions and not compile_regressions \
            and not rss_regressions:
        print(f"\nno regression beyond {args.threshold:.0%} threshold")

    # The enforced bars: micro_benchmarks already measured these on
    # paired rounds and recorded the verdicts; a false here fails the
    # build even if the benchmark step's exit status was swallowed.
    return enforce_acceptance(current_doc)


if __name__ == "__main__":
    sys.exit(main())
