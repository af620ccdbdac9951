// Microbenchmarks for the hot paths of the library: topology
// construction, the Kautz word bijection, label/arithmetic routing, line
// digraph iteration, design construction + verification, and -- the
// headline -- the simulator's slot rate per engine.
//
// The simulator section times every (topology, arbitration) pair on the
// seed's event-queue reference (sim/reference.hpp, rows labelled
// "event-queue"), on the phased engine with dense and with
// compressed routing tables, and on the async engine in its slot-aligned
// limit (plus a sharded run), prints slots/sec AND the bytes each route
// table occupies, and writes the results to BENCH_sim.json so future PRs
// have a machine-readable perf trajectory in both dimensions. A
// route-table memory section sizes dense vs compressed tables per
// topology -- including a >= 10^4-processor stack-Kautz whose dense
// table is only ever computed arithmetically. An event-queue section
// races the calendar queue against std::priority_queue on a 10^6-event
// hold workload and on the engines' same-tick floods. An async-parallel
// section measures the threads-vs-1 scaling of the sharded
// calendar-queue engine on SK(10,10,3) under constant skew; a
// route-compile section measures the pool-vs-serial speedup of
// SK(10,10,3)'s compressed compile and records absolute
// serial compile times (ms and ns per evaluated pair) for it and for
// SK(8,8,2)'s dense compile. Exit status checks the acceptance bars:
// phased >= 6x event-queue slots/sec on SK(4,3,2), calendar >= 3x
// priority-queue event rate at 10^6 pending events, async-sharded
// >= 2.5x its own 1-thread run at 8 threads (judged only on hosts with
// >= 8 cores; recorded as a null verdict with a skip reason otherwise),
// and the
// attached-but-disabled obs layers -- deterministic telemetry on the
// serial phased loop, the runtime-stats channel on the sharded loop --
// each within 2% of their no-obs baselines. Bars are
// judged on the BEST
// ratio over kAcceptanceRounds back-to-back paired rounds (contender
// then baseline inside each round): shared-container host speed swings
// ~3x across seconds-long windows, so pairing keeps the two sides of a
// ratio in the same speed window, and the best round -- like min-time
// benchmarking -- is the one least contaminated by a mid-pair shift.
//
// A phase-breakdown section (always written to the JSON; printed with
// --phase-breakdown, exported standalone with --phases-out PATH) times
// the serial phased engine's three slot phases separately -- ns/slot
// for generate / arbitrate / receive per topology -- and names the hot
// functions behind each phase, so a perf regression in a future PR
// points at a phase, not just a total. Its SK(10,10,3) row (compressed
// routes, load 0.6, 200 slots) tracks the cache-bound regime, where
// queue state outgrows L2. The file opens with a host block (hardware
// threads, CPU model, compiler) that compare_bench.py matches before
// comparing any wall-clock or memory row.
//
// Self-contained chrono harness (no external benchmark dependency): each
// measurement is the best of `kReps` runs, which is the right estimator
// for a noisy single-core container. Simulator cells time sim.run()
// only -- construction (route sharing, arena/index setup) happens
// before the clock starts, per rep.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "collectives/pops_collectives.hpp"
#include "collectives/stack_kautz_collectives.hpp"
#include "core/args.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/work_pool.hpp"
#include "obs/runtime_stats.hpp"
#include "obs/telemetry.hpp"
#include "designs/builders.hpp"
#include "designs/verify.hpp"
#include "graph/algorithms.hpp"
#include "graph/line_digraph.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "otis/imase_itoh_realization.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/generic_stack_routing.hpp"
#include "routing/imase_itoh_routing.hpp"
#include "routing/kautz_routing.hpp"
#include "routing/stack_routing.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/ops_network.hpp"
#include "sim/reference.hpp"
#include "topology/imase_itoh.hpp"
#include "topology/kautz.hpp"
#include "workload/schedule_workload.hpp"

namespace {

constexpr int kReps = 3;

/// Best-of-`reps` wall time of `fn()` in seconds.
double time_best(const std::function<void()>& fn, int reps = kReps) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

/// One classic micro-benchmark row: `iters` calls of `fn`, ns/op.
void micro(otis::core::Table& table, const std::string& name,
           std::int64_t iters, const std::function<void()>& fn) {
  const double seconds = time_best([&] {
    for (std::int64_t i = 0; i < iters; ++i) {
      fn();
    }
  });
  table.add(name, iters,
            otis::core::format_double(seconds / static_cast<double>(iters) *
                                          1e9,
                                      1));
}

// ------------------------------------------------------------- sim bench

struct SimBenchCase {
  std::string topology;
  const otis::hypergraph::StackGraph* stack;
  /// The pre-refactor call pattern: per-packet routing callbacks into
  /// the real router. Drives the event-queue reference.
  otis::sim::RoutingHooks hooks;
  /// The compiled tables driving the phased/sharded engines.
  std::shared_ptr<const otis::routing::CompiledRoutes> routes;
  /// The group-factored tables (bit-identical results, O(G^2) memory).
  std::shared_ptr<const otis::routing::CompressedRoutes> compressed;
  /// Rebuilds the compressed table from scratch, for compile timing.
  std::function<std::size_t()> recompile;
  std::int64_t nodes;
};

struct SimBenchResult {
  std::string topology;
  std::string arbitration;
  std::string engine;
  std::int64_t slots;
  double slots_per_sec;
  double packets_per_sec;
  std::int64_t route_table_bytes;  ///< 0 for the hook-routed baseline
};

constexpr std::int64_t kSimSlots = 2000;
constexpr double kSimLoad = 0.3;

/// Per-phase cost of the serial phased engine on one topology, ns/slot
/// averaged over every instrumented slot (kReps runs' worth).
struct PhaseRow {
  std::string topology;
  std::string routes;
  double load;
  std::int64_t slots;
  double generate_ns;
  double arbitrate_ns;
  double receive_ns;
};

/// The cache-bound phase row: SK(10,10,3) (11,000 processors, 121,000
/// VOQs) on compressed routes past saturation, where queue state far
/// outgrows L2 and every phase's cost is its memory misses.
constexpr double kScalePhaseLoad = 0.6;
constexpr std::int64_t kScalePhaseSlots = 200;

/// The functions that dominate each phase of the phased slot loop (the
/// one loop behind serial and sharded runs; a serial run is one shard),
/// kept next to the breakdown so a regressing phase points straight at
/// its code.
struct HotPhase {
  const char* phase;
  const char* functions;
};
constexpr HotPhase kHotFunctions[] = {
    {"generate",
     "\"Steps::generate\", \"detail::RunStreams::draw_senders\", "
     "\"TrafficGenerator::draw_senders (compact sender list, "
     "BernoulliThreshold integer gate)\", \"core::Rng::operator()\", "
     "\"detail::staged_enqueue (route row, queue header, tail slot "
     "prefetched ahead)\", \"VoqArenaT::push (one 16-byte record)\""},
    {"arbitrate",
     "\"Steps::arbitrate (slot scheduler, flattened)\", "
     "\"detail::pick_then_pop (a summary word's picks, then its pops)\", "
     "\"detail::pick_single_token (request-mask rotate+ctz scan)\", "
     "\"VoqArenaT::pop_front\", \"RouteView::relay (inline final "
     "deliveries, relays to the owner's outbox)\", "
     "\"OccupancyMasks::mark_empty\""},
    {"receive",
     "\"Steps::receive\", "
     "\"detail::staged_enqueue (relay re-enqueue)\", "
     "\"VoqArenaT::push\", \"OccupancyMasks::mark_nonempty\""},
};

/// The telemetry overhead modes of the BENCH telemetry rows: no
/// telemetry attached (the null-pointer fast path every production run
/// takes by default), attached with an all-defaults config (pays only
/// the per-slot pointer/period tests -- the enforced <= 2% bar), and
/// sampling every 64 slots into a discarding writer (the amortized
/// probe-fill cost, reported but not enforced).
enum class TelemetryMode { kOff, kDisabled, kSampling };

/// The runtime-channel overhead modes of the BENCH runtime_stats rows,
/// measured on kSharded runs of the phased slot loop (the channel
/// records no rows for kPhased): no session attached (the production
/// null-pointer path), attached with a default config whose active()
/// is false (one pointer+flag test before the worker loop -- the
/// enforced <= 2% bar), and collecting into a discarding row counter
/// (the per-slot accounting's full price, reported but not enforced).
enum class RuntimeStatsMode { kOff, kDisabled, kCollecting };

/// Stands for the event-queue reference where a bench takes an engine.
constexpr std::optional<otis::sim::Engine> kEventQueueBaseline;

/// One timed simulator run: construction (route-table sharing, arena
/// and feed-index setup) happens before the clock starts; only
/// sim.run(), or run_reference() for the baseline, is timed. Returns
/// wall seconds.
double time_sim_run(const SimBenchCase& c, otis::sim::Arbitration arb,
                    std::optional<otis::sim::Engine> engine, int threads,
                    bool compressed_routes,
                    otis::sim::PhaseBreakdown* breakdown,
                    otis::sim::RunMetrics* metrics_out = nullptr,
                    TelemetryMode telemetry = TelemetryMode::kOff,
                    RuntimeStatsMode runtime = RuntimeStatsMode::kOff) {
  otis::sim::SimConfig config;
  config.arbitration = arb;
  config.warmup_slots = 0;
  config.measure_slots = kSimSlots;
  config.seed = 1;
  config.engine = engine.value_or(otis::sim::Engine::kPhased);
  config.threads = threads;
  // Accumulates across reps; callers divide by the accumulated slots.
  config.phase_breakdown = breakdown;
  if (telemetry == TelemetryMode::kDisabled) {
    config.telemetry = otis::obs::Telemetry::create({});
  } else if (telemetry == TelemetryMode::kSampling) {
    otis::obs::TelemetryConfig tc;
    tc.sample_period = 64;  // empty timeseries_path: rows counted, not written
    config.telemetry = otis::obs::Telemetry::create(tc);
  }
  if (runtime == RuntimeStatsMode::kDisabled) {
    config.runtime_stats = otis::obs::RuntimeStats::create({});
  } else if (runtime == RuntimeStatsMode::kCollecting) {
    otis::obs::RuntimeStatsConfig rc;
    rc.collect = true;  // empty path: rows counted, not written
    config.runtime_stats = otis::obs::RuntimeStats::create(rc);
  }
  auto traffic =
      std::make_unique<otis::sim::UniformTraffic>(c.nodes, kSimLoad);
  std::unique_ptr<otis::sim::OpsNetworkSim> sim;
  if (engine && compressed_routes) {
    sim = std::make_unique<otis::sim::OpsNetworkSim>(
        *c.stack, c.compressed, std::move(traffic), config);
  } else if (engine) {
    sim = std::make_unique<otis::sim::OpsNetworkSim>(
        *c.stack, c.routes, std::move(traffic), config);
  }
  const auto start = std::chrono::steady_clock::now();
  // Baseline: the seed's end-to-end path -- callback routing on the
  // event-queue reference, no compiled tables anywhere.
  const otis::sim::RunMetrics metrics =
      sim != nullptr
          ? sim->run()
          : otis::sim::run_reference(*c.stack, c.hooks, *traffic, config)
                .metrics;
  const auto stop = std::chrono::steady_clock::now();
  if (metrics_out != nullptr) {
    *metrics_out = metrics;
  }
  return std::chrono::duration<double>(stop - start).count();
}

SimBenchResult run_sim_bench(const SimBenchCase& c,
                             otis::sim::Arbitration arb,
                             std::optional<otis::sim::Engine> engine,
                             int threads,
                             bool compressed_routes = false,
                             otis::sim::PhaseBreakdown* breakdown = nullptr) {
  otis::sim::RunMetrics metrics;
  double seconds = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    seconds = std::min(seconds, time_sim_run(c, arb, engine, threads,
                                             compressed_routes, breakdown,
                                             &metrics));
  }
  SimBenchResult r;
  r.topology = c.topology;
  r.arbitration = otis::sim::arbitration_name(arb);
  r.engine = engine ? otis::sim::engine_name(*engine) : "event-queue";
  if (engine == otis::sim::Engine::kSharded) {
    r.engine += "(" + std::to_string(threads) + ")";
  }
  if (compressed_routes) {
    r.engine += "+cr";
  }
  r.slots = kSimSlots;
  r.slots_per_sec = static_cast<double>(kSimSlots) / seconds;
  r.packets_per_sec =
      static_cast<double>(metrics.delivered_packets) / seconds;
  r.route_table_bytes =
      !engine ? 0
              : static_cast<std::int64_t>(compressed_routes
                                              ? c.compressed->memory_bytes()
                                              : c.routes->memory_bytes());
  return r;
}

/// One row of the route-table memory model: measured or (for instances
/// whose dense table should never be allocated) computed dense bytes
/// next to the compressed table's real footprint.
struct RouteTableRow {
  std::string topology;
  std::int64_t nodes;
  std::int64_t dense_bytes;
  std::int64_t compressed_bytes;
  double compile_seconds;  ///< compressed-table compile time
};

// -------------------------------------------- event-queue hold model

/// One collectives makespan datapoint: the simulated completion time of
/// a compiled schedule workload on the phased engine (token, W = 1, no
/// background load). Deterministic per topology, so compare_bench.py
/// treats ANY growth against the previous run as a regression.
struct CollectiveBenchRow {
  std::string topology;
  std::string operation;
  std::int64_t makespan_slots;
  std::int64_t analytic_slots;
};

CollectiveBenchRow run_collective_bench(
    const std::string& topology, const std::string& operation,
    const otis::hypergraph::StackGraph& stack,
    std::shared_ptr<const otis::routing::CompiledRoutes> routes,
    const otis::collectives::SlotSchedule& schedule) {
  std::shared_ptr<otis::workload::Workload> load =
      otis::workload::schedule_workload(stack, schedule);
  otis::sim::SimConfig config;
  config.warmup_slots = 0;
  config.measure_slots = 1;  // ignored: workload runs go to completion
  config.workload = load;
  otis::sim::OpsNetworkSim sim(
      stack, std::move(routes),
      std::make_unique<otis::sim::UniformTraffic>(stack.node_count(), 0.0),
      config);
  const otis::sim::RunMetrics metrics = sim.run();
  return CollectiveBenchRow{topology, operation, metrics.makespan_slots,
                            schedule.slot_count()};
}

/// One pending-event-set datapoint: events/sec of `queue` under a
/// traffic `model`, with up to `pending` events resident.
///  - "hold": Brown's benchmark for calendar queues -- pop the minimum,
///    push a replacement a random span ahead. Its spans scatter events
///    over ~10^4 slots, which no engine produces.
///  - "flood": what the async engines produce -- the OPS model is
///    slot-synchronous, so a slot's arrivals all land on one tick.
struct QueueBenchResult {
  std::string queue;
  std::string model;
  std::int64_t pending;
  double events_per_sec;
};

/// One telemetry-overhead datapoint: the phased SK(4,3,2)/token case
/// with the obs layer in one of the TelemetryMode states.
struct TelemetryBenchRow {
  std::string mode;
  double slots_per_sec;
};

/// One runtime-channel overhead datapoint: the kSharded phased
/// SK(4,3,2)/token case (1 shard, so the numbers isolate channel cost
/// from scaling) in one of the RuntimeStatsMode states.
struct RuntimeStatsBenchRow {
  std::string mode;
  double slots_per_sec;
};

constexpr std::int64_t kQueuePending = 1'000'000;
constexpr std::int64_t kQueueHoldOps = 2'000'000;
/// Replacement spans are uniform over ~10^4 slots, so events spread over
/// many calendar days (the async engines' propagation horizon is a few
/// slots, and their arrivals come in same-tick floods: see the flood
/// model below).
constexpr std::int64_t kQueueSpanSlots = 10'000;

/// One timed hold run: `prefill(queue)` runs untimed (building the
/// resident set is setup, not the steady state), the hold loop is
/// timed. Returns wall seconds for kQueueHoldOps operations.
template <class Queue, class Prefill, class HoldOp>
double hold_seconds_once(Prefill prefill, HoldOp hold_op) {
  Queue queue;
  otis::core::Rng rng(7);
  prefill(queue, rng);
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < kQueueHoldOps; ++i) {
    hold_op(queue, rng);
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

otis::sim::SimTime random_span(otis::core::Rng& rng) {
  return static_cast<otis::sim::SimTime>(
      rng.uniform(kQueueSpanSlots * otis::sim::kTicksPerSlot));
}

double calendar_hold_seconds_once() {
  // Pushes keyed by a running counter, like the priority queue's.
  struct Queue {
    otis::sim::CalendarQueue<std::int64_t> calendar;
    std::uint64_t seq = 0;
  };
  return hold_seconds_once<Queue>(
      [](Queue& queue, otis::core::Rng& rng) {
        for (std::int64_t i = 0; i < kQueuePending; ++i) {
          queue.calendar.push_keyed(random_span(rng), queue.seq++, i);
        }
      },
      [](Queue& queue, otis::core::Rng& rng) {
        const auto entry = queue.calendar.pop();
        queue.calendar.push_keyed(entry.time + 1 + random_span(rng),
                                  queue.seq++, entry.payload);
      });
}

double priority_hold_seconds_once() {
  struct Entry {
    otis::sim::SimTime time;
    std::uint64_t seq;
    std::int64_t payload;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  struct Queue {
    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    std::uint64_t seq = 0;
  };
  return hold_seconds_once<Queue>(
      [](Queue& queue, otis::core::Rng& rng) {
        for (std::int64_t i = 0; i < kQueuePending; ++i) {
          queue.heap.push(Entry{random_span(rng), queue.seq++, i});
        }
      },
      [](Queue& queue, otis::core::Rng& rng) {
        const Entry entry = queue.heap.top();
        queue.heap.pop();
        queue.heap.push(Entry{entry.time + 1 + random_span(rng),
                              queue.seq++, entry.payload});
      });
}

/// Flood model: per slot, pop every event due, then push
/// `arrivals` events keyed in ascending order on the one tick
/// `propagation` ticks later. Two sizes: scale_sharded's arrivals per
/// shard per slot on SK(10,10,3) (2-slot propagation), and the
/// collectives topologies' coupler count (128-tick propagation).
struct FloodCase {
  std::int64_t arrivals;
  otis::sim::SimTime propagation;
};
constexpr FloodCase kFloodCases[] = {{4000, 2 * otis::sim::kTicksPerSlot},
                                     {576, 128}};
/// Events popped per timed flood run.
constexpr std::int64_t kFloodEvents = 2'000'000;

/// Peak resident events of a flood case: every slot still in flight.
std::int64_t flood_pending(const FloodCase& flood) {
  return flood.arrivals *
         ((flood.propagation + otis::sim::kTicksPerSlot - 1) /
          otis::sim::kTicksPerSlot);
}

/// One timed flood run over `queue`'s (push_keyed, due, pop) adapter.
/// Returns wall seconds for kFloodEvents pops.
template <class Queue, class Push, class Due, class Pop>
double flood_seconds_once(const FloodCase& flood, Push push, Due due,
                          Pop pop) {
  Queue queue;
  std::int64_t popped = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t slot = 0; popped < kFloodEvents; ++slot) {
    const otis::sim::SimTime tick = slot * otis::sim::kTicksPerSlot;
    while (due(queue, tick)) {
      pop(queue);
      ++popped;
    }
    const std::uint64_t base =
        static_cast<std::uint64_t>(slot * flood.arrivals);
    for (std::int64_t i = 0; i < flood.arrivals; ++i) {
      push(queue, tick + flood.propagation,
           base + static_cast<std::uint64_t>(i));
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

double calendar_flood_seconds_once(const FloodCase& flood) {
  using Queue = otis::sim::CalendarQueue<std::int64_t>;
  return flood_seconds_once<Queue>(
      flood,
      [](Queue& queue, otis::sim::SimTime at, std::uint64_t seq) {
        queue.push_keyed(at, seq, static_cast<std::int64_t>(seq));
      },
      [](Queue& queue, otis::sim::SimTime tick) {
        return !queue.empty() && queue.peek().time <= tick;
      },
      [](Queue& queue) {
        volatile std::int64_t payload = queue.pop().payload;
        (void)payload;
      });
}

double priority_flood_seconds_once(const FloodCase& flood) {
  struct Entry {
    otis::sim::SimTime time;
    std::uint64_t seq;
    std::int64_t payload;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  using Queue = std::priority_queue<Entry, std::vector<Entry>, Later>;
  return flood_seconds_once<Queue>(
      flood,
      [](Queue& queue, otis::sim::SimTime at, std::uint64_t seq) {
        queue.push(Entry{at, seq, static_cast<std::int64_t>(seq)});
      },
      [](Queue& queue, otis::sim::SimTime tick) {
        return !queue.empty() && queue.top().time <= tick;
      },
      [](Queue& queue) {
        volatile std::int64_t payload = queue.top().payload;
        (void)payload;
        queue.pop();
      });
}

// ------------------------------------- parallel async acceptance case

/// Slots of one parallel-async acceptance run. The case is SK(10,10,3)
/// -- 11000 processors, the route-table section's scale-up topology --
/// under constant skew with multi-slot propagation, so each
/// conservative window spans several slots and the sharded workers get
/// real runway between barriers.
constexpr std::int64_t kAsyncParallelSlots = 200;
constexpr double kAsyncParallelLoad = 0.3;
/// The enforced bar: kAsyncSharded at 8 threads must beat its own
/// 1-thread run by >= 2.5x on the acceptance case. On hosts with fewer
/// than 8 hardware threads the bar cannot be judged; the measurement
/// still runs at min(8, cores) and the verdict is recorded as null with
/// a skip reason (compare_bench.py warns instead of failing).
constexpr double kAsyncParallelRequiredSpeedup = 2.5;
constexpr int kAsyncParallelBarThreads = 8;

/// One timed kAsyncSharded run of the acceptance case; construction is
/// untimed, only sim.run() is on the clock.
double async_parallel_seconds_once(
    const otis::hypergraph::StackGraph& stack,
    const std::shared_ptr<const otis::routing::CompressedRoutes>& routes,
    int threads) {
  otis::sim::SimConfig config;
  config.arbitration = otis::sim::Arbitration::kTokenRoundRobin;
  config.warmup_slots = 0;
  config.measure_slots = kAsyncParallelSlots;
  config.seed = 3;
  config.engine = otis::sim::Engine::kAsyncSharded;
  config.threads = threads;
  // Constant skew, propagation of three slots: lookahead windows of
  // several slots, the regime the conservative windows are built for.
  config.timing.profile = otis::sim::SkewProfile::kConstant;
  config.timing.tuning_ticks = 64;
  config.timing.propagation_ticks = 3 * otis::sim::kTicksPerSlot;
  otis::sim::OpsNetworkSim sim(
      stack, routes,
      std::make_unique<otis::sim::UniformTraffic>(stack.node_count(),
                                                  kAsyncParallelLoad),
      config);
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

// ------------------------------------------------ acceptance gates

/// Rounds of the paired acceptance measurements (the enforced bars).
constexpr int kAcceptanceRounds = 5;

/// Max and median of per-round time ratios baseline/contender over
/// paired back-to-back rounds. Host speed on a shared container swings
/// by ~3x across seconds-long windows, so a ratio of two independently
/// measured best times can compare different speed windows and is not
/// reproducible. Pairing keeps the two sides of each ratio adjacent in
/// time, and the best round -- like min-time in classic benchmarking
/// -- is the round least contaminated by a mid-pair speed shift; the
/// median is reported alongside as the conservative estimate.
struct PairedSpeedup {
  double best = 0.0;
  double median = 0.0;
  /// The round that set `best`: its contender and baseline seconds, so
  /// rows written beside the verdict agree with it.
  double best_contender_seconds = 0.0;
  double best_baseline_seconds = 0.0;
};

PairedSpeedup paired_speedup(
    int rounds, const std::function<double()>& contender_seconds,
    const std::function<double()>& baseline_seconds) {
  struct Round {
    double ratio, contender, baseline;
  };
  std::vector<Round> done;
  for (int round = 0; round < rounds; ++round) {
    const double tc = contender_seconds();
    const double tb = baseline_seconds();
    if (tc > 0.0 && tb > 0.0) {
      done.push_back({tb / tc, tc, tb});
    }
  }
  if (done.empty()) {
    return {};
  }
  std::sort(done.begin(), done.end(),
            [](const Round& a, const Round& b) { return a.ratio < b.ratio; });
  return {done.back().ratio, done[done.size() / 2].ratio,
          done.back().contender, done.back().baseline};
}

/// The parallel-async acceptance datapoint written to BENCH_sim.json.
struct AsyncParallelResult {
  int threads = 0;           ///< contender thread count actually used
  int hardware_threads = 0;  ///< std::thread::hardware_concurrency()
  PairedSpeedup speedup;     ///< threads-vs-1 paired ratio
  bool skipped = false;      ///< bar not judged (host below 8 threads)
};

// ------------------------------------- parallel route compilation bar

/// The enforced bar: compiling SK(10,10,3)'s compressed route tables
/// over an 8-worker WorkStealingPool must beat the serial compile by
/// >= 2.5x (paired rounds, best ratio). Same tri-state protocol as the
/// async-parallel bar: on hosts with fewer than 8 hardware threads the
/// measurement still runs at min(8, cores) and the verdict is null
/// with a skip reason.
constexpr double kRouteCompileRequiredSpeedup = 2.5;
constexpr int kRouteCompileBarThreads = 8;

/// Repetitions behind each absolute serial compile time (best of).
constexpr int kSerialCompileReps = 5;

/// One absolute serial route compile: the cost the pool speedup divides,
/// and the number compare_bench.py tracks across runs.
struct SerialCompileRow {
  std::string topology;
  std::string routes;      ///< "compressed" or "dense"
  std::int64_t pairs = 0;  ///< router evaluations: G^2 group pairs
                           ///< (compressed) or N(N-1) node pairs (dense)
  double seconds = 0.0;    ///< best of kSerialCompileReps

  [[nodiscard]] double ns_per_pair() const {
    return pairs > 0 ? seconds * 1e9 / static_cast<double>(pairs) : 0.0;
  }
};

/// The parallel route-compile datapoint written to BENCH_sim.json.
struct RouteCompileResult {
  int threads = 0;           ///< pool worker count actually used
  int hardware_threads = 0;  ///< std::thread::hardware_concurrency()
  PairedSpeedup speedup;     ///< pool-vs-serial paired ratio
  bool skipped = false;      ///< bar not judged (host below 8 threads)
  std::vector<SerialCompileRow> serial;  ///< absolute serial compiles
};

// ------------------------------------------ per-cell memory budget

/// Peak-RSS growth allowed for compiling and running one sketch-mode
/// scale-up cell (SK(10,10,3), 11000 processors, compressed routes,
/// phased engine). The budget is sized so the normal cell -- a ~10 MB
/// group-compressed table, the VOQ arena, and the fixed ~15 KiB
/// latency sketch -- passes with headroom, while the two O(N)-scale
/// accidents it guards against blow straight through it: a dense route
/// table for this topology is ~1.5 GB, and full-sample latency storage
/// grows by 8 bytes per delivered packet forever.
constexpr std::int64_t kMemoryBudgetKiB = 192 * 1024;
/// Measurement window of the memory cell (enough deliveries that
/// full-sample storage would visibly move the high-water mark).
constexpr std::int64_t kMemoryCellSlots = 200;

/// Peak resident set from /proc/self/status in KiB: VmHWM when the
/// kernel reports it, otherwise the current VmRSS (sandboxed kernels
/// omit the high-water line; the probe reads while the cell's
/// allocations are still live, so current RSS approximates the peak).
/// Returns -1 when neither is available (non-Linux host): the memory
/// verdict is then null, mirroring the thread-count skip protocol.
std::int64_t read_vm_hwm_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  std::int64_t rss = -1;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
    if (line.rfind("VmRSS:", 0) == 0) {
      rss = std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return rss;
}

/// The per-cell memory datapoint written to BENCH_sim.json. Measured
/// first thing in main() so the process high-water mark reflects this
/// cell and not an earlier benchmark's allocations.
struct MemoryBenchResult {
  std::int64_t rss_before_kib = -1;  ///< VmHWM before the cell
  std::int64_t rss_peak_kib = -1;    ///< VmHWM after the cell
  bool skipped = false;              ///< /proc/self/status unavailable
  [[nodiscard]] std::int64_t delta_kib() const {
    return rss_peak_kib - rss_before_kib;
  }
};

/// Compiles compressed routes for SK(10,10,3) and runs one phased
/// sketch-mode cell, bracketing the work with VmHWM reads.
MemoryBenchResult memory_cell_once() {
  MemoryBenchResult result;
  result.rss_before_kib = read_vm_hwm_kib();
  if (result.rss_before_kib < 0) {
    result.skipped = true;
    return result;
  }
  otis::hypergraph::StackKautz big(10, 10, 3);
  const auto routes =
      std::make_shared<const otis::routing::CompressedRoutes>(
          otis::routing::compress_stack_kautz_routes(big));
  otis::sim::SimConfig config;
  config.arbitration = otis::sim::Arbitration::kTokenRoundRobin;
  config.warmup_slots = 0;
  config.measure_slots = kMemoryCellSlots;
  config.seed = 7;
  config.engine = otis::sim::Engine::kPhased;
  config.latency_mode = otis::sim::LatencyMode::kSketch;
  otis::sim::OpsNetworkSim sim(
      big.stack(), routes,
      std::make_unique<otis::sim::UniformTraffic>(big.processor_count(),
                                                  kAsyncParallelLoad),
      config);
  sim.run();
  result.rss_peak_kib = read_vm_hwm_kib();
  return result;
}

/// Runs the cache-bound phase row (kScalePhaseLoad, kScalePhaseSlots;
/// see there) kReps times, serial phased, accumulating its breakdown.
PhaseRow scale_phase_row() {
  otis::hypergraph::StackKautz big(10, 10, 3);
  const auto routes =
      std::make_shared<const otis::routing::CompressedRoutes>(
          otis::routing::compress_stack_kautz_routes(big));
  otis::sim::PhaseBreakdown bd;
  for (int rep = 0; rep < kReps; ++rep) {
    otis::sim::SimConfig config;
    config.warmup_slots = 0;
    config.measure_slots = kScalePhaseSlots;
    config.seed = 1;
    config.latency_mode = otis::sim::LatencyMode::kSketch;
    config.phase_breakdown = &bd;
    otis::sim::OpsNetworkSim sim(
        big.stack(), routes,
        std::make_unique<otis::sim::UniformTraffic>(big.processor_count(),
                                                    kScalePhaseLoad),
        config);
    sim.run();
  }
  const double scale =
      bd.slots > 0 ? 1e9 / static_cast<double>(bd.slots) : 0.0;
  return PhaseRow{"SK(10,10,3)", "compressed", kScalePhaseLoad, bd.slots,
                  bd.generate_seconds * scale, bd.arbitrate_seconds * scale,
                  bd.receive_seconds * scale};
}

/// The machine a BENCH file was measured on: hardware threads, CPU
/// model and compiler. compare_bench.py compares wall-clock and memory
/// rows only between files from the same host.
void write_host_block(std::ostream& out) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0 &&
        line.find(':') != std::string::npos) {
      model = line.substr(line.find(':') + 1);
      model.erase(0, model.find_first_not_of(' '));
      break;
    }
  }
  std::erase_if(model, [](char ch) { return ch == '"' || ch == '\\'; });
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  out << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << model << "\", \"compiler\": \""
      << compiler << "\"},\n";
}

/// The phase_breakdown and hot_functions JSON sections, shared between
/// BENCH_sim.json and the standalone --phases-out artifact.
void write_phase_sections(std::ostream& out,
                          const std::vector<PhaseRow>& phases) {
  out << "  \"phase_breakdown\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseRow& p = phases[i];
    out << "    {\"topology\": \"" << p.topology
        << "\", \"engine\": \"phased\", \"arbitration\": \"token\", "
        << "\"routes\": \"" << p.routes << "\", \"load\": "
        << otis::core::format_double(p.load, 2) << ", "
        << "\"slots\": " << p.slots << ", \"generate_ns_per_slot\": "
        << otis::core::format_double(p.generate_ns, 1)
        << ", \"arbitrate_ns_per_slot\": "
        << otis::core::format_double(p.arbitrate_ns, 1)
        << ", \"receive_ns_per_slot\": "
        << otis::core::format_double(p.receive_ns, 1)
        << ", \"total_ns_per_slot\": "
        << otis::core::format_double(
               p.generate_ns + p.arbitrate_ns + p.receive_ns, 1)
        << "}" << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"hot_functions\": [\n";
  const std::size_t hot_count =
      sizeof(kHotFunctions) / sizeof(kHotFunctions[0]);
  for (std::size_t i = 0; i < hot_count; ++i) {
    out << "    {\"phase\": \"" << kHotFunctions[i].phase
        << "\", \"functions\": [" << kHotFunctions[i].functions << "]}"
        << (i + 1 < hot_count ? "," : "") << "\n";
  }
  out << "  ],\n";
}

void write_phases_json(const std::string& path,
                       const std::vector<PhaseRow>& phases) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"ops_network_phase_breakdown\",\n"
      << "  \"slots_per_run\": " << kSimSlots << ",\n"
      << "  \"uniform_load\": " << kSimLoad << ",\n";
  write_phase_sections(out, phases);
  out << "  \"reps\": " << kReps << "\n"
      << "}\n";
}

void write_bench_json(const std::string& path,
                      const std::vector<SimBenchResult>& results,
                      const std::vector<RouteTableRow>& tables,
                      const std::vector<QueueBenchResult>& queues,
                      const std::vector<CollectiveBenchRow>& collectives,
                      const std::vector<PhaseRow>& phases,
                      const std::vector<TelemetryBenchRow>& telemetry,
                      const PairedSpeedup& telemetry_speedup,
                      bool telemetry_pass,
                      const std::vector<RuntimeStatsBenchRow>& runtime,
                      const PairedSpeedup& runtime_speedup,
                      bool runtime_pass,
                      const PairedSpeedup& queue_speedup, bool queue_pass,
                      const AsyncParallelResult& async_parallel,
                      bool async_parallel_pass,
                      const RouteCompileResult& route_compile,
                      bool route_compile_pass,
                      const MemoryBenchResult& memory, bool memory_pass,
                      const PairedSpeedup& sk_speedup, bool pass) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"ops_network_slot_engine\",\n";
  write_host_block(out);
  out << "  \"slots_per_run\": " << kSimSlots << ",\n"
      << "  \"uniform_load\": " << kSimLoad << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SimBenchResult& r = results[i];
    out << "    {\"topology\": \"" << r.topology << "\", \"arbitration\": \""
        << r.arbitration << "\", \"engine\": \"" << r.engine
        << "\", \"slots_per_sec\": " << static_cast<std::int64_t>(
               r.slots_per_sec)
        << ", \"packets_per_sec\": " << static_cast<std::int64_t>(
               r.packets_per_sec)
        << ", \"route_table_bytes\": " << r.route_table_bytes
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"route_tables\": [\n";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const RouteTableRow& t = tables[i];
    out << "    {\"topology\": \"" << t.topology << "\", \"nodes\": "
        << t.nodes << ", \"dense_bytes\": " << t.dense_bytes
        << ", \"compressed_bytes\": " << t.compressed_bytes
        << ", \"compression_ratio\": "
        << otis::core::format_double(
               t.compressed_bytes > 0
                   ? static_cast<double>(t.dense_bytes) /
                         static_cast<double>(t.compressed_bytes)
                   : 0.0,
               1)
        << ", \"compile_seconds\": "
        << otis::core::format_double(t.compile_seconds, 4) << "}"
        << (i + 1 < tables.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"event_queues\": [\n";
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const QueueBenchResult& q = queues[i];
    out << "    {\"queue\": \"" << q.queue << "\", \"model\": \"" << q.model
        << "\", \"pending\": " << q.pending << ", \"events_per_sec\": "
        << static_cast<std::int64_t>(q.events_per_sec) << "}"
        << (i + 1 < queues.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"collectives\": [\n";
  for (std::size_t i = 0; i < collectives.size(); ++i) {
    const CollectiveBenchRow& c = collectives[i];
    out << "    {\"topology\": \"" << c.topology << "\", \"operation\": \""
        << c.operation << "\", \"makespan_slots\": " << c.makespan_slots
        << ", \"analytic_slots\": " << c.analytic_slots << "}"
        << (i + 1 < collectives.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"telemetry\": [\n";
  for (std::size_t i = 0; i < telemetry.size(); ++i) {
    const TelemetryBenchRow& t = telemetry[i];
    out << "    {\"mode\": \"" << t.mode << "\", \"slots_per_sec\": "
        << static_cast<std::int64_t>(t.slots_per_sec) << "}"
        << (i + 1 < telemetry.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"runtime_stats\": [\n";
  for (std::size_t i = 0; i < runtime.size(); ++i) {
    const RuntimeStatsBenchRow& r = runtime[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"slots_per_sec\": "
        << static_cast<std::int64_t>(r.slots_per_sec) << "}"
        << (i + 1 < runtime.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"async_parallel\": {\"topology\": \"SK(10,10,3)\", "
         "\"arbitration\": \"token\", \"routes\": \"compressed\", "
         "\"timing\": \"const skew, 3-slot propagation\", \"slots\": "
      << kAsyncParallelSlots << ", \"load\": "
      << otis::core::format_double(kAsyncParallelLoad, 2)
      << ", \"threads\": " << async_parallel.threads
      << ", \"hardware_threads\": " << async_parallel.hardware_threads
      << ", \"speedup_best\": "
      << otis::core::format_double(async_parallel.speedup.best, 2)
      << ", \"speedup_median\": "
      << otis::core::format_double(async_parallel.speedup.median, 2)
      << "},\n"
      << "  \"route_compile\": {\"topology\": \"SK(10,10,3)\", "
         "\"routes\": \"compressed\", \"threads\": "
      << route_compile.threads
      << ", \"hardware_threads\": " << route_compile.hardware_threads
      << ", \"speedup_best\": "
      << otis::core::format_double(route_compile.speedup.best, 2)
      << ", \"speedup_median\": "
      << otis::core::format_double(route_compile.speedup.median, 2)
      << ", \"serial\": [";
  for (std::size_t i = 0; i < route_compile.serial.size(); ++i) {
    const SerialCompileRow& r = route_compile.serial[i];
    out << (i > 0 ? ", " : "") << "{\"topology\": \"" << r.topology
        << "\", \"routes\": \"" << r.routes << "\", \"pairs\": " << r.pairs
        << ", \"compile_ms\": "
        << otis::core::format_double(r.seconds * 1e3, 2)
        << ", \"ns_per_pair\": "
        << otis::core::format_double(r.ns_per_pair(), 1) << "}";
  }
  out << "]},\n"
      << "  \"memory\": {\"topology\": \"SK(10,10,3)\", \"engine\": "
         "\"phased\", \"latency_stats\": \"sketch\", \"routes\": "
         "\"compressed\", \"slots\": "
      << kMemoryCellSlots;
  if (memory.skipped) {
    out << ", \"rss_before_kib\": null, \"rss_peak_kib\": null, "
           "\"cell_kib\": null";
  } else {
    out << ", \"rss_before_kib\": " << memory.rss_before_kib
        << ", \"rss_peak_kib\": " << memory.rss_peak_kib
        << ", \"cell_kib\": " << memory.delta_kib();
  }
  out << ", \"budget_kib\": " << kMemoryBudgetKiB << "},\n";
  write_phase_sections(out, phases);
  // telemetry_speedup.best is off/disabled time ratio >= 1 means free;
  // overhead_pct = (1/best - 1) * 100 is the slowdown the disabled obs
  // layer costs the hot path (the <= 2% bar from the PR contract).
  const double telemetry_overhead_pct =
      telemetry_speedup.best > 0.0
          ? (1.0 / telemetry_speedup.best - 1.0) * 100.0
          : 100.0;
  const double runtime_overhead_pct =
      runtime_speedup.best > 0.0
          ? (1.0 / runtime_speedup.best - 1.0) * 100.0
          : 100.0;
  out << "  \"acceptance\": {\"topology\": \"SK(4,3,2)\", \"arbitration\": "
         "\"token\", \"statistic\": \"best_paired_round\", \"rounds\": "
      << kAcceptanceRounds
      << ", \"required_speedup\": 6.0, \"measured_speedup\": "
      << otis::core::format_double(sk_speedup.best, 2)
      << ", \"median_speedup\": "
      << otis::core::format_double(sk_speedup.median, 2)
      << ", \"pass\": " << (pass ? "true" : "false")
      << ", \"queue_required_speedup\": 3.0, \"queue_measured_speedup\": "
      << otis::core::format_double(queue_speedup.best, 2)
      << ", \"queue_median_speedup\": "
      << otis::core::format_double(queue_speedup.median, 2)
      << ", \"queue_pass\": " << (queue_pass ? "true" : "false")
      << ", \"telemetry_overhead_pct\": "
      << otis::core::format_double(telemetry_overhead_pct, 2)
      << ", \"telemetry_required_max_overhead_pct\": 2.0"
      << ", \"telemetry_pass\": " << (telemetry_pass ? "true" : "false")
      << ", \"runtime_stats_overhead_pct\": "
      << otis::core::format_double(runtime_overhead_pct, 2)
      << ", \"runtime_stats_required_max_overhead_pct\": 2.0"
      << ", \"runtime_stats_pass\": " << (runtime_pass ? "true" : "false")
      << ", \"async_parallel_required_speedup\": "
      << otis::core::format_double(kAsyncParallelRequiredSpeedup, 1)
      << ", \"async_parallel_measured_speedup\": "
      << otis::core::format_double(async_parallel.speedup.best, 2)
      << ", \"async_parallel_median_speedup\": "
      << otis::core::format_double(async_parallel.speedup.median, 2)
      << ", \"async_parallel_threads\": " << async_parallel.threads;
  // The tri-state verdict: null means "not judged on this host" (too
  // few cores for the 8-thread bar), which compare_bench.py downgrades
  // to a warning; an explicit false always fails CI.
  if (async_parallel.skipped) {
    out << ", \"async_parallel_pass\": null"
        << ", \"async_parallel_skip_reason\": \"hardware_threads "
        << async_parallel.hardware_threads << " < "
        << kAsyncParallelBarThreads
        << "; the 8-thread scaling bar needs 8 cores\"";
  } else {
    out << ", \"async_parallel_pass\": "
        << (async_parallel_pass ? "true" : "false");
  }
  out << ", \"route_compile_required_speedup\": "
      << otis::core::format_double(kRouteCompileRequiredSpeedup, 1)
      << ", \"route_compile_measured_speedup\": "
      << otis::core::format_double(route_compile.speedup.best, 2)
      << ", \"route_compile_median_speedup\": "
      << otis::core::format_double(route_compile.speedup.median, 2)
      << ", \"route_compile_threads\": " << route_compile.threads;
  if (route_compile.skipped) {
    out << ", \"route_compile_pass\": null"
        << ", \"route_compile_skip_reason\": \"hardware_threads "
        << route_compile.hardware_threads << " < "
        << kRouteCompileBarThreads
        << "; the 8-thread scaling bar needs 8 cores\"";
  } else {
    out << ", \"route_compile_pass\": "
        << (route_compile_pass ? "true" : "false");
  }
  out << ", \"memory_budget_kib\": " << kMemoryBudgetKiB;
  if (memory.skipped) {
    out << ", \"memory_cell_kib\": null, \"memory_pass\": null"
        << ", \"memory_skip_reason\": \"/proc/self/status unavailable\"";
  } else {
    out << ", \"memory_cell_kib\": " << memory.delta_kib()
        << ", \"memory_pass\": " << (memory_pass ? "true" : "false");
  }
  out << "}\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --out moves BENCH_sim.json (CI writes into its artifact dir, laptops
  // keep the default); --threads sizes the sharded engine datapoint;
  // --phase-breakdown prints the per-phase ns/slot table;
  // --phases-out PATH exports the breakdown as a standalone artifact.
  const otis::core::Args args(
      argc, argv, {"out", "threads", "phase-breakdown", "phases-out"});
  const std::string out_path = args.get("out", "BENCH_sim.json");
  const int sharded_threads =
      static_cast<int>(args.get_int("threads", 2));

  // -------------------------------------------- per-cell memory budget
  // First section on purpose: VmHWM is a process-lifetime high-water
  // mark, so the cell must run before any other benchmark inflates it.
  std::cout << "[memory] peak RSS of one sketch-mode SK(10,10,3) cell "
               "(compressed routes, phased, " << kMemoryCellSlots
            << " slots)\n";
  const MemoryBenchResult memory = memory_cell_once();
  const bool memory_pass =
      !memory.skipped && memory.delta_kib() <= kMemoryBudgetKiB;
  if (memory.skipped) {
    std::cout << "  /proc/self/status unavailable; verdict null\n\n";
  } else {
    std::cout << "  VmHWM " << memory.rss_before_kib << " -> "
              << memory.rss_peak_kib << " KiB, cell cost "
              << memory.delta_kib() << " KiB (budget "
              << kMemoryBudgetKiB << " KiB: "
              << (memory_pass ? "PASS" : "FAIL") << ")\n\n";
  }

  // ---------------------------------------------- classic micro section
  std::cout << "[micro] library hot paths (best of " << kReps << ")\n\n";
  otis::core::Table table({"benchmark", "iters", "ns/op"});

  micro(table, "Kautz(4,4) construction", 20,
        [] { otis::topology::Kautz kautz(4, 4); });
  {
    otis::topology::Kautz kautz(4, 4);  // 500 nodes
    std::int64_t v = 0;
    micro(table, "Kautz word bijection", 20000, [&] {
      auto word = kautz.word_of(v);
      if (kautz.vertex_of(word) != v) {
        std::abort();
      }
      v = (v + 1) % kautz.order();
    });
    otis::routing::KautzRouter router(kautz);
    std::int64_t u = 1;
    std::int64_t w = kautz.order() / 2;
    micro(table, "Kautz label route", 20000, [&] {
      volatile auto hops = router.route(u, w).size();
      (void)hops;
      u = (u + 7) % kautz.order();
      w = (w + 13) % kautz.order();
    });
  }
  {
    otis::topology::ImaseItoh ii(4, 10000);
    otis::routing::ImaseItohRouter router(ii);
    std::int64_t u = 1;
    std::int64_t w = ii.order() / 2;
    micro(table, "Imase-Itoh arithmetic route (n=10000)", 20000, [&] {
      volatile auto labels = router.route_labels(u, w).size();
      (void)labels;
      u = (u + 7) % ii.order();
      w = (w + 13) % ii.order();
    });
  }
  micro(table, "Kautz(3,3) BFS diameter", 50, [] {
    otis::topology::Kautz kautz(3, 3);
    volatile auto d = otis::graph::diameter(kautz.graph());
    (void)d;
  });
  micro(table, "Kautz(3,3) line digraph", 100, [] {
    otis::topology::Kautz kautz(3, 3);
    volatile auto n = otis::graph::line_digraph(kautz.graph()).graph.size();
    (void)n;
  });
  micro(table, "SK(6,3,2) design build", 10, [] {
    volatile auto n =
        otis::designs::stack_kautz_design(6, 3, 2).netlist.component_count();
    (void)n;
  });
  {
    auto design = otis::designs::stack_kautz_design(6, 3, 2);
    micro(table, "SK(6,3,2) design verify", 10, [&] {
      volatile bool ok = otis::designs::verify_design(design).ok;
      (void)ok;
    });
  }
  micro(table, "Proposition 1 verify (n=1024)", 10, [] {
    otis::otis::ImaseItohRealization real(4, 1024);
    volatile bool ok = real.verify(nullptr);
    (void)ok;
  });
  table.print(std::cout);

  // ---------------------------------------------------- simulator bench
  std::cout << "\n[sim] slot engine throughput, uniform load " << kSimLoad
            << ", " << kSimSlots << " slots/run (best of " << kReps
            << ")\n\n";

  otis::hypergraph::StackKautz sk(4, 3, 2);
  otis::hypergraph::Pops pops(6, 12);
  otis::hypergraph::StackImaseItoh sii(4, 2, 12);
  otis::routing::StackKautzRouter sk_router(sk);
  otis::routing::PopsRouter pops_router(pops);
  otis::routing::GenericStackRouter sii_router(sii.stack());

  otis::sim::RoutingHooks sk_hooks;
  sk_hooks.next_coupler = [&sk_router](otis::hypergraph::Node c,
                                       otis::hypergraph::Node d) {
    return sk_router.next_coupler(c, d);
  };
  sk_hooks.relay_on = [&sk_router](otis::hypergraph::HyperarcId h,
                                   otis::hypergraph::Node d) {
    return sk_router.relay_on(h, d);
  };
  otis::sim::RoutingHooks pops_hooks;
  pops_hooks.next_coupler = [&pops_router](otis::hypergraph::Node c,
                                           otis::hypergraph::Node d) {
    return pops_router.next_coupler(c, d);
  };
  pops_hooks.relay_on = [](otis::hypergraph::HyperarcId,
                           otis::hypergraph::Node d) { return d; };
  otis::sim::RoutingHooks sii_hooks;
  sii_hooks.next_coupler = [&sii_router](otis::hypergraph::Node c,
                                         otis::hypergraph::Node d) {
    return sii_router.next_coupler(c, d);
  };
  sii_hooks.relay_on = [&sii_router](otis::hypergraph::HyperarcId h,
                                     otis::hypergraph::Node d) {
    return sii_router.relay_on(h, d);
  };

  const std::vector<SimBenchCase> cases = {
      {"SK(4,3,2)", &sk.stack(), sk_hooks,
       std::make_shared<const otis::routing::CompiledRoutes>(
           otis::routing::compile_stack_kautz_routes(sk)),
       std::make_shared<const otis::routing::CompressedRoutes>(
           otis::routing::compress_stack_kautz_routes(sk)),
       [&sk] {
         return otis::routing::compress_stack_kautz_routes(sk)
             .memory_bytes();
       },
       sk.processor_count()},
      {"POPS(6,12)", &pops.stack(), pops_hooks,
       std::make_shared<const otis::routing::CompiledRoutes>(
           otis::routing::compile_pops_routes(pops)),
       std::make_shared<const otis::routing::CompressedRoutes>(
           otis::routing::compress_pops_routes(pops)),
       [&pops] {
         return otis::routing::compress_pops_routes(pops).memory_bytes();
       },
       pops.processor_count()},
      {"SII(4,2,12)", &sii.stack(), sii_hooks,
       std::make_shared<const otis::routing::CompiledRoutes>(
           otis::routing::compile_stack_imase_itoh_routes(sii)),
       std::make_shared<const otis::routing::CompressedRoutes>(
           otis::routing::compress_stack_imase_itoh_routes(sii)),
       [&sii] {
         return otis::routing::compress_stack_imase_itoh_routes(sii)
             .memory_bytes();
       },
       sii.processor_count()},
  };
  const otis::sim::Arbitration policies[] = {
      otis::sim::Arbitration::kTokenRoundRobin,
      otis::sim::Arbitration::kRandomWinner,
      otis::sim::Arbitration::kSlottedAloha};

  std::vector<SimBenchResult> results;
  otis::core::Table sim_table({"topology", "arbitration", "engine",
                               "slots/s", "pkts/s", "table bytes"});
  const auto record = [&](SimBenchResult r) {
    sim_table.add(r.topology, r.arbitration, r.engine,
                  static_cast<std::int64_t>(r.slots_per_sec),
                  static_cast<std::int64_t>(r.packets_per_sec),
                  r.route_table_bytes);
    results.push_back(std::move(r));
  };
  for (const SimBenchCase& c : cases) {
    for (otis::sim::Arbitration arb : policies) {
      // The async engine runs its slot-aligned limit here: same results
      // as phased (bit-for-bit), so the row isolates the calendar-queue
      // engine's overhead against the direct slot loop.
      for (std::optional<otis::sim::Engine> engine :
           {kEventQueueBaseline, std::optional(otis::sim::Engine::kPhased),
            std::optional(otis::sim::Engine::kAsync)}) {
        record(run_sim_bench(c, arb, engine, 1));
      }
      // The dense-vs-compressed datapoint: same engine, same results,
      // O(G^2) instead of O(N^2) table bytes.
      record(run_sim_bench(c, arb, otis::sim::Engine::kPhased, 1,
                           /*compressed_routes=*/true));
    }
  }
  // One sharded datapoint (thread-count invariant by construction; on a
  // single-core container this mostly measures barrier overhead).
  record(run_sim_bench(cases[0], otis::sim::Arbitration::kTokenRoundRobin,
                       otis::sim::Engine::kSharded, sharded_threads));
  sim_table.print(std::cout);

  // ------------------------------------------------ phase breakdown
  // Dedicated instrumented runs (phased/token/serial): the clock reads
  // around each phase would skew the headline throughput cells above.
  std::vector<PhaseRow> phases;
  for (const SimBenchCase& c : cases) {
    otis::sim::PhaseBreakdown bd;
    run_sim_bench(c, otis::sim::Arbitration::kTokenRoundRobin,
                  otis::sim::Engine::kPhased, 1,
                  /*compressed_routes=*/false, &bd);
    // bd accumulates across the kReps reps; bd.slots totals them too,
    // so seconds / slots is already the per-slot mean.
    const double scale =
        bd.slots > 0 ? 1e9 / static_cast<double>(bd.slots) : 0.0;
    phases.push_back(PhaseRow{c.topology, "dense", kSimLoad, bd.slots,
                              bd.generate_seconds * scale,
                              bd.arbitrate_seconds * scale,
                              bd.receive_seconds * scale});
  }
  phases.push_back(scale_phase_row());
  if (args.has("phase-breakdown")) {
    std::cout << "\n[phases] phased/token slot-loop breakdown, ns/slot "
                 "(mean over " << kReps << " reps)\n\n";
    otis::core::Table phase_table({"topology", "generate", "arbitrate",
                                   "receive", "total"});
    for (const PhaseRow& p : phases) {
      phase_table.add(
          p.topology, otis::core::format_double(p.generate_ns, 1),
          otis::core::format_double(p.arbitrate_ns, 1),
          otis::core::format_double(p.receive_ns, 1),
          otis::core::format_double(
              p.generate_ns + p.arbitrate_ns + p.receive_ns, 1));
    }
    phase_table.print(std::cout);
  }

  // ------------------------------------------- route-table memory model
  std::cout << "\n[routes] table memory, dense vs group-compressed\n\n";
  std::vector<RouteTableRow> route_tables;
  for (const SimBenchCase& c : cases) {
    RouteTableRow row;
    row.topology = c.topology;
    row.nodes = c.nodes;
    row.dense_bytes = static_cast<std::int64_t>(c.routes->memory_bytes());
    row.compressed_bytes =
        static_cast<std::int64_t>(c.compressed->memory_bytes());
    row.compile_seconds = time_best([&] {
      volatile std::size_t bytes = c.recompile();
      (void)bytes;
    });
    route_tables.push_back(std::move(row));
  }
  {
    // The scale-up datapoint: SK(10,10,3) has N = 11000 processors; its
    // dense table (~1.5 GB) is computed arithmetically, never allocated.
    otis::hypergraph::StackKautz big(10, 10, 3);
    RouteTableRow row;
    row.topology = "SK(10,10,3)";
    row.nodes = big.processor_count();
    row.dense_bytes =
        static_cast<std::int64_t>(otis::routing::CompiledRoutes::dense_bytes(
            big.processor_count(), big.coupler_count()));
    std::int64_t bytes = 0;
    row.compile_seconds = time_best([&] {
      bytes = static_cast<std::int64_t>(
          otis::routing::compress_stack_kautz_routes(big).memory_bytes());
    });
    row.compressed_bytes = bytes;
    route_tables.push_back(std::move(row));
  }
  otis::core::Table routes_table({"topology", "nodes", "dense B",
                                  "compressed B", "ratio", "compile ms"});
  for (const RouteTableRow& t : route_tables) {
    routes_table.add(
        t.topology, t.nodes, t.dense_bytes, t.compressed_bytes,
        otis::core::format_double(
            static_cast<double>(t.dense_bytes) /
                static_cast<double>(t.compressed_bytes),
            1),
        otis::core::format_double(t.compile_seconds * 1e3, 2));
  }
  routes_table.print(std::cout);

  // ---------------------------------------- pending-event-set showdown
  // Paired rounds double as the table's rate cells (best per side) and
  // the acceptance ratio (see paired_speedup).
  std::cout << "\n[queues] calendar vs priority queue: hold model with "
            << kQueuePending << " pending events, and same-tick floods of "
            << kFloodCases[0].arrivals << " and " << kFloodCases[1].arrivals
            << " arrivals per slot (" << kAcceptanceRounds
            << " paired rounds)\n\n";
  double calendar_best = 1e300;
  double priority_best = 1e300;
  const PairedSpeedup queue_speedup = paired_speedup(
      kAcceptanceRounds,
      [&] {
        const double t = calendar_hold_seconds_once();
        calendar_best = std::min(calendar_best, t);
        return t;
      },
      [&] {
        const double t = priority_hold_seconds_once();
        priority_best = std::min(priority_best, t);
        return t;
      });
  std::vector<QueueBenchResult> queues = {
      {"calendar", "hold", kQueuePending,
       static_cast<double>(kQueueHoldOps) / calendar_best},
      {"priority", "hold", kQueuePending,
       static_cast<double>(kQueueHoldOps) / priority_best}};
  // The flood rows: best of paired rounds per side, like the hold rows.
  for (const FloodCase& flood : kFloodCases) {
    double calendar_flood = 1e300;
    double priority_flood = 1e300;
    for (int round = 0; round < kAcceptanceRounds; ++round) {
      calendar_flood =
          std::min(calendar_flood, calendar_flood_seconds_once(flood));
      priority_flood =
          std::min(priority_flood, priority_flood_seconds_once(flood));
    }
    queues.push_back({"calendar", "flood", flood_pending(flood),
                      static_cast<double>(kFloodEvents) / calendar_flood});
    queues.push_back({"priority", "flood", flood_pending(flood),
                      static_cast<double>(kFloodEvents) / priority_flood});
  }
  otis::core::Table queue_table({"queue", "model", "pending", "events/s"});
  for (const QueueBenchResult& q : queues) {
    queue_table.add(q.queue, q.model, q.pending,
                    static_cast<std::int64_t>(q.events_per_sec));
  }
  queue_table.print(std::cout);

  // ----------------------------------------- collectives makespans
  std::cout << "\n[collectives] simulated makespans of the compiled "
               "schedule workloads (phased, token, W = 1)\n\n";
  const std::vector<CollectiveBenchRow> collectives = {
      run_collective_bench("SK(4,3,2)", "one-to-all", sk.stack(),
                           cases[0].routes,
                           otis::collectives::stack_kautz_one_to_all(sk, 0)),
      run_collective_bench("SK(4,3,2)", "gossip", sk.stack(),
                           cases[0].routes,
                           otis::collectives::stack_kautz_gossip(sk)),
      run_collective_bench("POPS(6,12)", "one-to-all", pops.stack(),
                           cases[1].routes,
                           otis::collectives::pops_one_to_all(pops, 0)),
      run_collective_bench("POPS(6,12)", "gossip", pops.stack(),
                           cases[1].routes,
                           otis::collectives::pops_gossip(pops)),
  };
  otis::core::Table collectives_table(
      {"topology", "operation", "makespan", "analytic"});
  for (const CollectiveBenchRow& c : collectives) {
    collectives_table.add(c.topology, c.operation, c.makespan_slots,
                          c.analytic_slots);
  }
  collectives_table.print(std::cout);

  // --------------------------------------------- telemetry overhead
  // The obs-layer cost ladder on the acceptance case. The enforced bar
  // is the attached-but-disabled mode (pure branch cost); the sampling
  // row reports the amortized probe-fill price for context.
  std::cout << "\n[telemetry] obs-layer overhead on SK(4,3,2)/token, "
               "phased serial (" << kAcceptanceRounds
            << " paired rounds)\n\n";
  const PairedSpeedup telemetry_speedup = paired_speedup(
      kAcceptanceRounds,
      [&] {
        return time_sim_run(cases[0], otis::sim::Arbitration::kTokenRoundRobin,
                            otis::sim::Engine::kPhased, 1, false, nullptr,
                            nullptr, TelemetryMode::kDisabled);
      },
      [&] {
        return time_sim_run(cases[0], otis::sim::Arbitration::kTokenRoundRobin,
                            otis::sim::Engine::kPhased, 1, false, nullptr,
                            nullptr, TelemetryMode::kOff);
      });
  double tel_sampling_best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    tel_sampling_best = std::min(
        tel_sampling_best,
        time_sim_run(cases[0], otis::sim::Arbitration::kTokenRoundRobin,
                     otis::sim::Engine::kPhased, 1, false, nullptr, nullptr,
                     TelemetryMode::kSampling));
  }
  // The off and disabled rows come from the round that sets the
  // verdict, so the recorded overhead is the one these rows imply.
  const std::vector<TelemetryBenchRow> telemetry_rows = {
      {"off", static_cast<double>(kSimSlots) /
                  telemetry_speedup.best_baseline_seconds},
      {"disabled", static_cast<double>(kSimSlots) /
                       telemetry_speedup.best_contender_seconds},
      {"sampling_64", static_cast<double>(kSimSlots) / tel_sampling_best}};
  otis::core::Table telemetry_table({"mode", "slots/s"});
  for (const TelemetryBenchRow& t : telemetry_rows) {
    telemetry_table.add(t.mode, static_cast<std::int64_t>(t.slots_per_sec));
  }
  telemetry_table.print(std::cout);
  // best >= 0.98 <=> disabled costs at most ~2% over the null pointer.
  const bool telemetry_pass = telemetry_speedup.best >= 0.98;

  // ---------------------------------------- runtime-channel overhead
  // Same ladder for the runtime-introspection channel, on the runs it
  // actually instruments: kSharded with 1 thread, a one-shard slot loop
  // (no barriers), so the paired ratio isolates the channel's cost
  // from parallel scaling noise. The enforced bar is attached-but-
  // disabled (one pointer+flag test before the worker loop); the
  // collecting row prices the per-slot accounting for context.
  std::cout << "\n[runtime-stats] runtime-channel overhead on "
               "SK(4,3,2)/token, phased sharded(1) ("
            << kAcceptanceRounds << " paired rounds)\n\n";
  const PairedSpeedup runtime_speedup = paired_speedup(
      kAcceptanceRounds,
      [&] {
        return time_sim_run(cases[0], otis::sim::Arbitration::kTokenRoundRobin,
                            otis::sim::Engine::kSharded, 1, false, nullptr,
                            nullptr, TelemetryMode::kOff,
                            RuntimeStatsMode::kDisabled);
      },
      [&] {
        return time_sim_run(cases[0], otis::sim::Arbitration::kTokenRoundRobin,
                            otis::sim::Engine::kSharded, 1, false, nullptr,
                            nullptr, TelemetryMode::kOff,
                            RuntimeStatsMode::kOff);
      });
  double rt_collecting_best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    rt_collecting_best = std::min(
        rt_collecting_best,
        time_sim_run(cases[0], otis::sim::Arbitration::kTokenRoundRobin,
                     otis::sim::Engine::kSharded, 1, false, nullptr, nullptr,
                     TelemetryMode::kOff, RuntimeStatsMode::kCollecting));
  }
  const std::vector<RuntimeStatsBenchRow> runtime_rows = {
      {"off", static_cast<double>(kSimSlots) /
                  runtime_speedup.best_baseline_seconds},
      {"disabled", static_cast<double>(kSimSlots) /
                       runtime_speedup.best_contender_seconds},
      {"collecting", static_cast<double>(kSimSlots) / rt_collecting_best}};
  otis::core::Table runtime_table({"mode", "slots/s"});
  for (const RuntimeStatsBenchRow& r : runtime_rows) {
    runtime_table.add(r.mode, static_cast<std::int64_t>(r.slots_per_sec));
  }
  runtime_table.print(std::cout);
  const bool runtime_pass = runtime_speedup.best >= 0.98;

  const bool queue_pass = queue_speedup.best >= 3.0;

  // ------------------------------------- parallel async engine scaling
  // Threads-vs-1 paired speedup of kAsyncSharded on the scale-up
  // topology under real skew. The contender uses min(8, cores) threads;
  // the 2.5x bar is judged only on hosts with >= 8 hardware threads.
  AsyncParallelResult async_parallel;
  async_parallel.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  async_parallel.threads = std::min(
      kAsyncParallelBarThreads, std::max(1, async_parallel.hardware_threads));
  async_parallel.skipped =
      async_parallel.hardware_threads < kAsyncParallelBarThreads;
  std::cout << "\n[async-parallel] kAsyncSharded on SK(10,10,3)/token, "
               "const skew, " << async_parallel.threads
            << " threads vs 1 (" << kAcceptanceRounds
            << " paired rounds)\n";
  RouteCompileResult route_compile;
  route_compile.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  route_compile.threads = std::min(
      kRouteCompileBarThreads, std::max(1, route_compile.hardware_threads));
  route_compile.skipped =
      route_compile.hardware_threads < kRouteCompileBarThreads;
  {
    otis::hypergraph::StackKautz big(10, 10, 3);
    const auto big_routes =
        std::make_shared<const otis::routing::CompressedRoutes>(
            otis::routing::compress_stack_kautz_routes(big));
    async_parallel.speedup = paired_speedup(
        kAcceptanceRounds,
        [&] {
          return async_parallel_seconds_once(big.stack(), big_routes,
                                             async_parallel.threads);
        },
        [&] {
          return async_parallel_seconds_once(big.stack(), big_routes, 1);
        });

    // ----------------------------------- parallel route-compile scaling
    // Pool-vs-serial paired speedup of the same topology's compressed
    // route compile (the campaign's per-topology setup cost). Both
    // sides produce bit-identical tables (test_parallel_compile); only
    // the wall clock differs.
    std::cout << "\n[route-compile] compressed SK(10,10,3) tables, "
              << route_compile.threads << "-worker pool vs serial ("
              << kAcceptanceRounds << " paired rounds)\n";
    otis::core::WorkStealingPool compile_pool(route_compile.threads);
    const auto compile_seconds_once =
        [&](otis::core::WorkStealingPool* pool) {
          const auto start = std::chrono::steady_clock::now();
          volatile std::size_t bytes =
              otis::routing::compress_stack_kautz_routes(big, pool)
                  .memory_bytes();
          (void)bytes;
          const auto stop = std::chrono::steady_clock::now();
          return std::chrono::duration<double>(stop - start).count();
        };
    route_compile.speedup = paired_speedup(
        kAcceptanceRounds, [&] { return compile_seconds_once(&compile_pool); },
        [&] { return compile_seconds_once(nullptr); });

    // Absolute serial compiles (best of kSerialCompileReps): the
    // group-granular compile of the same topology, and a dense compile
    // that evaluates the router on every node pair.
    const std::int64_t groups = big.group_count();
    route_compile.serial.push_back(
        {"SK(10,10,3)", "compressed", groups * groups,
         time_best(
             [&] {
               volatile std::size_t bytes =
                   otis::routing::compress_stack_kautz_routes(big)
                       .memory_bytes();
               (void)bytes;
             },
             kSerialCompileReps)});
    const otis::hypergraph::StackKautz dense_sk(8, 8, 2);
    const std::int64_t nodes = dense_sk.processor_count();
    route_compile.serial.push_back(
        {"SK(8,8,2)", "dense", nodes * (nodes - 1),
         time_best(
             [&] {
               volatile std::size_t bytes =
                   otis::routing::compile_stack_kautz_routes(dense_sk)
                       .memory_bytes();
               (void)bytes;
             },
             kSerialCompileReps)});
    otis::core::Table serial_table(
        {"topology", "routes", "pairs", "serial ms", "ns/pair"});
    for (const SerialCompileRow& r : route_compile.serial) {
      serial_table.add(r.topology, r.routes, r.pairs,
                       otis::core::format_double(r.seconds * 1e3, 2),
                       otis::core::format_double(r.ns_per_pair(), 1));
    }
    std::cout << "\nserial compiles, best of " << kSerialCompileReps
              << "\n\n";
    serial_table.print(std::cout);
  }
  const bool async_parallel_pass =
      async_parallel.speedup.best >= kAsyncParallelRequiredSpeedup;
  const bool route_compile_pass =
      route_compile.speedup.best >= kRouteCompileRequiredSpeedup;

  // The enforced phased-vs-event-queue ratio: dedicated paired rounds
  // on the acceptance case (SK(4,3,2), token), one full run per side
  // per round.
  const PairedSpeedup speedup = paired_speedup(
      kAcceptanceRounds,
      [&] {
        return time_sim_run(cases[0],
                            otis::sim::Arbitration::kTokenRoundRobin,
                            otis::sim::Engine::kPhased, 1, false, nullptr);
      },
      [&] {
        return time_sim_run(cases[0],
                            otis::sim::Arbitration::kTokenRoundRobin,
                            kEventQueueBaseline, 1, false, nullptr);
      });
  const bool pass = speedup.best >= 6.0;
  write_bench_json(out_path, results, route_tables, queues, collectives,
                   phases, telemetry_rows, telemetry_speedup, telemetry_pass,
                   runtime_rows, runtime_speedup, runtime_pass,
                   queue_speedup, queue_pass, async_parallel,
                   async_parallel_pass, route_compile, route_compile_pass,
                   memory, memory_pass, speedup, pass);
  if (args.has("phases-out")) {
    const std::string phases_path =
        args.get("phases-out", "BENCH_phases.json");
    write_phases_json(phases_path, phases);
    std::cout << "\nphase breakdown written to " << phases_path << "\n";
  }
  std::cout << "\nphased vs event-queue on SK(4,3,2)/token: best "
            << otis::core::format_double(speedup.best, 2) << "x, median "
            << otis::core::format_double(speedup.median, 2) << "x over "
            << kAcceptanceRounds << " paired rounds (acceptance: best >= 6x: "
            << (pass ? "PASS" : "FAIL")
            << ")\ncalendar vs priority queue at " << kQueuePending
            << " pending: best "
            << otis::core::format_double(queue_speedup.best, 2)
            << "x, median "
            << otis::core::format_double(queue_speedup.median, 2)
            << "x (acceptance: best >= 3x: " << (queue_pass ? "PASS" : "FAIL")
            << ")\ndisabled-telemetry overhead: "
            << otis::core::format_double(
                   telemetry_speedup.best > 0.0
                       ? (1.0 / telemetry_speedup.best - 1.0) * 100.0
                       : 100.0,
                   2)
            << "% (acceptance: <= 2%: "
            << (telemetry_pass ? "PASS" : "FAIL")
            << ")\ndisabled-runtime-stats overhead (sharded loop): "
            << otis::core::format_double(
                   runtime_speedup.best > 0.0
                       ? (1.0 / runtime_speedup.best - 1.0) * 100.0
                       : 100.0,
                   2)
            << "% (acceptance: <= 2%: "
            << (runtime_pass ? "PASS" : "FAIL")
            << ")\nasync-sharded " << async_parallel.threads
            << "-thread scaling on SK(10,10,3): best "
            << otis::core::format_double(async_parallel.speedup.best, 2)
            << "x, median "
            << otis::core::format_double(async_parallel.speedup.median, 2)
            << "x (acceptance: best >= "
            << otis::core::format_double(kAsyncParallelRequiredSpeedup, 1)
            << "x at " << kAsyncParallelBarThreads << " threads: "
            << (async_parallel.skipped
                    ? "SKIPPED, host below 8 hardware threads"
                    : (async_parallel_pass ? "PASS" : "FAIL"))
            << ")\nparallel route compile on SK(10,10,3): best "
            << otis::core::format_double(route_compile.speedup.best, 2)
            << "x, median "
            << otis::core::format_double(route_compile.speedup.median, 2)
            << "x (acceptance: best >= "
            << otis::core::format_double(kRouteCompileRequiredSpeedup, 1)
            << "x at " << kRouteCompileBarThreads << " threads: "
            << (route_compile.skipped
                    ? "SKIPPED, host below 8 hardware threads"
                    : (route_compile_pass ? "PASS" : "FAIL"))
            << ")\nsketch-cell peak RSS: "
            << (memory.skipped ? std::string("SKIPPED, no /proc")
                               : std::to_string(memory.delta_kib()) +
                                     " KiB (acceptance: <= " +
                                     std::to_string(kMemoryBudgetKiB) +
                                     " KiB: " +
                                     (memory_pass ? "PASS" : "FAIL") + ")")
            << "\nresults written to " << out_path << "\n";
  return pass && queue_pass && telemetry_pass && runtime_pass &&
                 (async_parallel.skipped || async_parallel_pass) &&
                 (route_compile.skipped || route_compile_pass) &&
                 (memory.skipped || memory_pass)
             ? 0
             : 1;
}
