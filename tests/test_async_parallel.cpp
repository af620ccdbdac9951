// Parallel async engine (Engine::kAsyncSharded) tests:
//  - randomized differential stress of CalendarQueue ordering under
//    concurrent per-shard queues: keyed pushes plus simulated mailbox
//    handoffs, k-way merged across shards, must reproduce a single
//    reference queue's (time, seq) pop order exactly;
//  - the feed-local shard plan both sharded engines share is sane:
//    cuts ascend, couplers are never split and have one owner, and
//    coupler ids ascend with the shard index;
//  - THE invariance suite: open-loop kAsyncSharded results are
//    bit-identical across thread counts {1, 2, 3, 5, 8} and stay
//    invariant under constant / per-level skew, guard bands, finite
//    queues, WDM and drain; in the slot-aligned limit they pin the
//    sharded phased engine at every thread count up to 16;
//  - workload (closed-loop) runs are bit-identical to the SERIAL async
//    engine for every thread count, policy, table and skew profile,
//    with and without background traffic;
//  - telemetry: probe values and timeseries bytes do not depend on the
//    worker count, and attaching a session never changes the metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "obs/telemetry.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/occupancy.hpp"
#include "sim/ops_network.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"
#include "workload/schedule_workload.hpp"
#include "collectives/stack_kautz_collectives.hpp"

namespace otis::sim {
namespace {

constexpr int kThreadCounts[] = {1, 2, 3, 5, 8};
/// Shard counts of the plan and sharded-phased checks: 16 exceeds the
/// 12 groups of every small fixture, so some shards own nothing.
constexpr int kShardCounts[] = {1, 2, 3, 5, 8, 16};

constexpr Arbitration kAllPolicies[] = {Arbitration::kTokenRoundRobin,
                                        Arbitration::kRandomWinner,
                                        Arbitration::kSlottedAloha};

void expect_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.coupler_transmissions, b.coupler_transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.makespan_slots, b.makespan_slots);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.percentile(0.5), b.latency.percentile(0.5));
  EXPECT_EQ(a.latency.percentile(0.95), b.latency.percentile(0.95));
}

TimingConfig constant_timing(SimTime tuning, SimTime propagation,
                             SimTime guard = 0) {
  TimingConfig config;
  config.profile = SkewProfile::kConstant;
  config.tuning_ticks = tuning;
  config.propagation_ticks = propagation;
  config.guard_ticks = guard;
  return config;
}

TimingConfig level_timing(SimTime tuning, SimTime propagation,
                          SimTime level_skew) {
  TimingConfig config;
  config.profile = SkewProfile::kPerLevel;
  config.tuning_ticks = tuning;
  config.propagation_ticks = propagation;
  config.level_skew_ticks = level_skew;
  return config;
}

// --------------------------------------- sharded calendar differential

// The engine's cross-shard protocol in miniature: events carry explicit
// global (time, seq) keys, land in the shard queue owning their target,
// and "mailed" events are held back and keyed-pushed one window later.
// Popping the shards as a k-way merge on (time, seq) must reproduce one
// reference queue holding every event -- whatever the partition, the
// push interleaving or the mailbox delays. Flood mode is the engines'
// real traffic: each window's events land on 1-3 ticks, hundreds to a
// few thousand per tick, keyed in ascending (slot, coupler, winner)
// order, so the mailed half replays keys that interleave with the
// shard's own run.
TEST(ShardedCalendarStress, KeyedShardQueuesMergeToReferenceOrder) {
  constexpr std::pair<bool, std::size_t> kCases[] = {  // {flood, shards}
      {false, 2}, {false, 3}, {false, 5}, {false, 8},
      {true, 2},  {true, 3},  {true, 5},  {true, 8}};
  for (const auto& [flood, shard_count] : kCases) {
    SCOPED_TRACE(flood ? "flood" : "scattered");
    SCOPED_TRACE(shard_count);
    core::Rng rng(1234 + shard_count);
    std::vector<CalendarQueue<std::uint64_t>> shards(shard_count);
    CalendarQueue<std::uint64_t> reference;

    struct Mail {
      SimTime time;
      std::uint64_t seq;
      std::uint64_t payload;
      std::size_t shard;
    };
    std::vector<Mail> mailbox;

    std::uint64_t next_payload = 0;
    constexpr SimTime kWindow = 4 * kTicksPerSlot;
    const int windows = flood ? 16 : 64;
    for (int w = 0; w < windows; ++w) {
      const SimTime window_start = w * kWindow;

      // Mail from the previous window arrives first (the barrier).
      for (const Mail& m : mailbox) {
        shards[m.shard].push_keyed(m.time, m.seq, m.payload);
      }
      mailbox.clear();

      // Produce events for strictly-later windows; unique random seq
      // values model the engine's (slot, coupler, winner) keys, which
      // need not be dense or contiguous per shard.
      std::vector<SimTime> ticks(flood ? 1 + rng.uniform(3) : 0);
      for (SimTime& tick : ticks) {
        tick = window_start + kWindow +
               static_cast<SimTime>(rng.uniform(4 * kWindow));
      }
      const std::size_t produced =
          flood ? ticks.size() * (200 + rng.uniform(2800))
                : 8 + rng.uniform(24);
      for (std::size_t i = 0; i < produced; ++i) {
        const SimTime at =
            flood ? ticks[rng.uniform(ticks.size())]
                  : window_start + kWindow +
                        static_cast<SimTime>(rng.uniform(4 * kWindow));
        const std::uint64_t seq =
            (static_cast<std::uint64_t>(w) << 32) +
            (flood ? i : rng.uniform(1u << 20));
        const std::size_t target = rng.uniform(shard_count);
        const std::uint64_t payload = next_payload++;
        reference.push_keyed(at, seq, payload);
        if (rng.uniform(2) == 0) {
          mailbox.push_back(Mail{at, seq, payload, target});
        } else {
          shards[target].push_keyed(at, seq, payload);
        }
      }

      // Drain this window as the engines do: k-way merge on (time, seq)
      // across the shard queues, in lockstep with the reference.
      const SimTime window_end = window_start + kWindow;
      for (;;) {
        std::size_t best = shard_count;
        for (std::size_t s = 0; s < shard_count; ++s) {
          if (shards[s].empty() || shards[s].peek().time >= window_end) {
            continue;
          }
          if (best == shard_count ||
              shards[s].peek().time < shards[best].peek().time ||
              (shards[s].peek().time == shards[best].peek().time &&
               shards[s].peek().seq < shards[best].peek().seq)) {
            best = s;
          }
        }
        if (best == shard_count) {
          break;
        }
        const auto got = shards[best].pop();
        ASSERT_FALSE(reference.empty());
        const auto want = reference.pop();
        ASSERT_EQ(got.time, want.time);
        ASSERT_EQ(got.seq, want.seq);
        ASSERT_EQ(got.payload, want.payload);
      }
    }

    // Final flush: undelivered mail lands first (the engines drain every
    // outbox before flushing), then everything merges in reference order.
    for (const Mail& m : mailbox) {
      shards[m.shard].push_keyed(m.time, m.seq, m.payload);
    }
    mailbox.clear();
    for (;;) {
      std::size_t best = shard_count;
      for (std::size_t s = 0; s < shard_count; ++s) {
        if (shards[s].empty()) {
          continue;
        }
        if (best == shard_count ||
            shards[s].peek().time < shards[best].peek().time ||
            (shards[s].peek().time == shards[best].peek().time &&
             shards[s].peek().seq < shards[best].peek().seq)) {
          best = s;
        }
      }
      if (best == shard_count) {
        break;
      }
      const auto got = shards[best].pop();
      ASSERT_FALSE(reference.empty());
      const auto want = reference.pop();
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.payload, want.payload);
    }
    EXPECT_TRUE(reference.empty());
  }
}

// ------------------------------------------------ feed-local shard plan

/// Checks detail::plan_shards on `stack`: the cuts ascend and span
/// every node, every coupler has exactly one owner and every feeder of
/// the coupler lies inside the owner's node range (so no cut splits a
/// feed), and coupler ids ascend with the shard index -- the sharded
/// phased engine reads its inboxes producer by producer on that
/// promise.
void expect_feed_local_plan(const hypergraph::StackGraph& stack,
                            int shards) {
  const hypergraph::DirectedHypergraph& hg = stack.hypergraph();
  const std::int64_t nodes = hg.node_count();
  const std::int64_t couplers = hg.hyperarc_count();
  std::vector<std::int64_t> voq_base(static_cast<std::size_t>(nodes) + 1, 0);
  for (hypergraph::Node v = 0; v < nodes; ++v) {
    voq_base[static_cast<std::size_t>(v) + 1] =
        voq_base[static_cast<std::size_t>(v)] + hg.out_degree(v);
  }
  detail::FeedIndex feed;
  feed.build(hg, voq_base);
  const detail::ShardPlan plan = detail::plan_shards(feed, voq_base, shards);

  ASSERT_EQ(plan.node_cut.size(), static_cast<std::size_t>(shards) + 1);
  ASSERT_EQ(plan.couplers.size(), static_cast<std::size_t>(shards));
  EXPECT_EQ(plan.node_cut.front(), 0);
  EXPECT_EQ(plan.node_cut.back(), nodes);
  for (int w = 0; w < shards; ++w) {
    EXPECT_LE(plan.node_cut[static_cast<std::size_t>(w)],
              plan.node_cut[static_cast<std::size_t>(w) + 1]);
  }
  ASSERT_EQ(plan.node_owner.size(), static_cast<std::size_t>(nodes));
  const auto in_shard = [&](hypergraph::Node v, int w) {
    return plan.node_cut[static_cast<std::size_t>(w)] <= v &&
           v < plan.node_cut[static_cast<std::size_t>(w) + 1];
  };
  std::int64_t misplaced_nodes = 0;
  for (hypergraph::Node v = 0; v < nodes; ++v) {
    misplaced_nodes +=
        in_shard(v, plan.node_owner[static_cast<std::size_t>(v)]) ? 0 : 1;
  }
  EXPECT_EQ(misplaced_nodes, 0);

  std::vector<int> owner(static_cast<std::size_t>(couplers), -1);
  std::int64_t duplicates = 0;
  std::int64_t out_of_order = 0;
  hypergraph::HyperarcId last = -1;
  for (int w = 0; w < shards; ++w) {
    for (const hypergraph::HyperarcId h :
         plan.couplers[static_cast<std::size_t>(w)]) {
      duplicates += owner[static_cast<std::size_t>(h)] >= 0 ? 1 : 0;
      owner[static_cast<std::size_t>(h)] = w;
      out_of_order += h > last ? 0 : 1;
      last = h;
    }
  }
  EXPECT_EQ(duplicates, 0);
  EXPECT_EQ(out_of_order, 0);
  std::int64_t orphans = 0;
  std::int64_t split_feeds = 0;
  for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
    const int w = owner[static_cast<std::size_t>(h)];
    if (w < 0) {
      ++orphans;
      continue;
    }
    const hypergraph::CouplerFeed f = hg.coupler_feed(h);
    for (std::int64_t si = 0; si < f.count; ++si) {
      split_feeds += in_shard(f.source[si], w) ? 0 : 1;
    }
  }
  EXPECT_EQ(orphans, 0);
  EXPECT_EQ(split_feeds, 0);
}

TEST(ShardPlan, FeedLocalCutsGiveEveryCouplerOneOwner) {
  const hypergraph::StackKautz sk432(4, 3, 2);
  const hypergraph::Pops pops(6, 12);
  const hypergraph::StackImaseItoh sii(4, 2, 12);
  const hypergraph::StackKautz sk10(10, 10, 3);
  const std::pair<const char*, const hypergraph::StackGraph*> cases[] = {
      {"SK(4,3,2)", &sk432.stack()},
      {"POPS(6,12)", &pops.stack()},
      {"SII(4,2,12)", &sii.stack()},
      {"SK(10,10,3)", &sk10.stack()}};
  for (const auto& [name, stack] : cases) {
    for (const int shards : kShardCounts) {
      SCOPED_TRACE(std::string(name) + " shards=" + std::to_string(shards));
      expect_feed_local_plan(*stack, shards);
    }
  }
}

// --------------------------------------------------- open-loop parity

enum class Table { kDense, kCompressed };

template <class Network, class CompileDense, class CompileCompressed>
RunMetrics run_case(Network& network, CompileDense compile_dense,
                    CompileCompressed compile_compressed,
                    std::int64_t processors, Engine engine, int threads,
                    Arbitration arb, Table table, const TimingConfig& timing,
                    std::vector<std::int64_t>* successes,
                    std::int64_t queue_capacity = 0,
                    std::int64_t wavelengths = 1, bool drain = false) {
  SimConfig config;
  config.arbitration = arb;
  config.warmup_slots = 40;
  config.measure_slots = 400;
  config.seed = 23;
  config.engine = engine;
  config.threads = threads;
  config.queue_capacity = queue_capacity;
  config.wavelengths = wavelengths;
  config.drain = drain;
  config.timing = timing;
  auto traffic = std::make_unique<UniformTraffic>(processors, 0.45);
  RunMetrics metrics;
  if (table == Table::kDense) {
    OpsNetworkSim sim(network.stack(), compile_dense(), std::move(traffic),
                      config);
    metrics = sim.run();
    if (successes != nullptr) {
      *successes = sim.coupler_successes();
    }
  } else {
    OpsNetworkSim sim(network.stack(), compile_compressed(),
                      std::move(traffic), config);
    metrics = sim.run();
    if (successes != nullptr) {
      *successes = sim.coupler_successes();
    }
  }
  return metrics;
}

/// 0 = SK(4,3,2), 1 = POPS(6,12), 2 = SII(4,2,12).
RunMetrics run_topology(int topology, Engine engine, int threads,
                        Arbitration arb, Table table,
                        const TimingConfig& timing = {},
                        std::vector<std::int64_t>* successes = nullptr,
                        std::int64_t queue_capacity = 0,
                        std::int64_t wavelengths = 1, bool drain = false) {
  switch (topology) {
    case 0: {
      hypergraph::StackKautz sk(4, 3, 2);
      return run_case(
          sk, [&] { return routing::compile_stack_kautz_routes(sk); },
          [&] { return routing::compress_stack_kautz_routes(sk); },
          sk.processor_count(), engine, threads, arb, table, timing,
          successes, queue_capacity, wavelengths, drain);
    }
    case 1: {
      hypergraph::Pops pops(6, 12);
      return run_case(
          pops, [&] { return routing::compile_pops_routes(pops); },
          [&] { return routing::compress_pops_routes(pops); },
          pops.processor_count(), engine, threads, arb, table, timing,
          successes, queue_capacity, wavelengths, drain);
    }
    default: {
      hypergraph::StackImaseItoh sii(4, 2, 12);
      return run_case(
          sii, [&] { return routing::compile_stack_imase_itoh_routes(sii); },
          [&] { return routing::compress_stack_imase_itoh_routes(sii); },
          sii.processor_count(), engine, threads, arb, table, timing,
          successes, queue_capacity, wavelengths, drain);
    }
  }
}

TEST(AsyncShardedParity, SlotAlignedMatchesShardedPhasedAcrossThreads) {
  // The slot-aligned async-sharded engine at one thread is the
  // reference: it shares no slot loop with the sharded phased engine,
  // which must reproduce it at every shard count -- so the cross-shard
  // relay hand-off is checked against an independent engine, not only
  // against itself -- with finite queues, WDM and drain. Async-sharded
  // itself must match at every thread count on both route tables.
  const char* names[] = {"SK(4,3,2)", "POPS(6,12)", "SII(4,2,12)"};
  for (int topology = 0; topology < 3; ++topology) {
    for (Arbitration arb : kAllPolicies) {
      for (const std::int64_t queue_capacity : {0, 3}) {
        for (const std::int64_t wavelengths : {1, 2}) {
          for (const bool drain : {false, true}) {
            SCOPED_TRACE(std::string(names[topology]) + "/" +
                         arbitration_name(arb) + "/cap=" +
                         std::to_string(queue_capacity) + "/w=" +
                         std::to_string(wavelengths) +
                         (drain ? "/drain" : ""));
            std::vector<std::int64_t> want_successes;
            const RunMetrics want = run_topology(
                topology, Engine::kAsyncSharded, 1, arb, Table::kDense, {},
                &want_successes, queue_capacity, wavelengths, drain);
            for (const int threads : kShardCounts) {
              SCOPED_TRACE(threads);
              std::vector<std::int64_t> got_successes;
              const RunMetrics got = run_topology(
                  topology, Engine::kSharded, threads, arb, Table::kDense,
                  {}, &got_successes, queue_capacity, wavelengths, drain);
              expect_identical(want, got);
              EXPECT_EQ(want_successes, got_successes);
            }
          }
        }
      }
      std::vector<std::int64_t> want_successes;
      const RunMetrics want =
          run_topology(topology, Engine::kAsyncSharded, 1, arb,
                       Table::kDense, {}, &want_successes);
      for (Table table : {Table::kDense, Table::kCompressed}) {
        SCOPED_TRACE(std::string(names[topology]) + "/" +
                     arbitration_name(arb) + "/" +
                     (table == Table::kDense ? "dense" : "compressed"));
        for (const int threads : kThreadCounts) {
          SCOPED_TRACE(threads);
          std::vector<std::int64_t> got_successes;
          expect_identical(want, run_topology(topology, Engine::kAsyncSharded,
                                              threads, arb, table, {},
                                              &got_successes));
          EXPECT_EQ(want_successes, got_successes);
          expect_identical(want, run_topology(topology, Engine::kSharded,
                                              threads, arb, table, {},
                                              &got_successes));
          EXPECT_EQ(want_successes, got_successes);
        }
      }
    }
  }
}

TEST(AsyncShardedParity, SkewedRunsAreThreadCountInvariant) {
  // Constant skew with >1 slot of propagation exercises lookahead
  // windows of several slots; the per-level profile mixes lookahead-1
  // couplers with distant ones; the guarded variant exercises the
  // eligibility gate. The single-thread run is the reference -- every
  // other worker count must reproduce it bit-for-bit.
  const TimingConfig timings[] = {
      constant_timing(256, 3 * kTicksPerSlot + 200, 64),
      level_timing(256, 700, 1400),
  };
  for (int topology = 0; topology < 3; ++topology) {
    for (const TimingConfig& timing : timings) {
      for (Arbitration arb : kAllPolicies) {
        SCOPED_TRACE(std::string("topology ") + std::to_string(topology) +
                     "/" + timing.label() + "/" + arbitration_name(arb));
        std::vector<std::int64_t> want_successes;
        const RunMetrics want =
            run_topology(topology, Engine::kAsyncSharded, 1, arb,
                         Table::kDense, timing, &want_successes);
        EXPECT_GT(want.offered_packets, 0);
        EXPECT_GT(want.delivered_packets, 0);
        for (const int threads : {2, 3, 5, 8}) {
          SCOPED_TRACE(threads);
          std::vector<std::int64_t> got_successes;
          const RunMetrics got =
              run_topology(topology, Engine::kAsyncSharded, threads, arb,
                           Table::kDense, timing, &got_successes);
          expect_identical(want, got);
          EXPECT_EQ(want_successes, got_successes);
        }
      }
    }
  }
}

TEST(AsyncShardedParity, QueuesWdmAndDrainStayInvariantUnderSkew) {
  const TimingConfig timing = constant_timing(200, 2 * kTicksPerSlot, 100);
  for (int topology = 0; topology < 3; ++topology) {
    SCOPED_TRACE(topology);
    const RunMetrics want = run_topology(
        topology, Engine::kAsyncSharded, 1, Arbitration::kTokenRoundRobin,
        Table::kCompressed, timing, nullptr, /*queue_capacity=*/3,
        /*wavelengths=*/2, /*drain=*/true);
    EXPECT_EQ(want.backlog, 0) << "drain must empty the network";
    for (const int threads : {2, 5, 8}) {
      SCOPED_TRACE(threads);
      const RunMetrics got = run_topology(
          topology, Engine::kAsyncSharded, threads,
          Arbitration::kTokenRoundRobin, Table::kCompressed, timing, nullptr,
          3, 2, true);
      expect_identical(want, got);
    }
  }
}

// ---------------------------------------------------- workload parity

struct WorkloadResult {
  RunMetrics metrics;
  std::vector<std::int64_t> coupler_success;
};

WorkloadResult run_gossip(Engine engine, int threads, Arbitration arb,
                          double background, const TimingConfig& timing,
                          bool compressed) {
  hypergraph::StackKautz sk(4, 3, 2);
  SimConfig config;
  config.engine = engine;
  config.threads = threads;
  config.arbitration = arb;
  config.seed = 99;
  config.warmup_slots = 0;
  config.measure_slots = 1;  // ignored: run to completion
  config.timing = timing;
  config.workload = std::shared_ptr<workload::Workload>(
      workload::schedule_workload(sk.stack(),
                                  collectives::stack_kautz_gossip(sk)));
  auto traffic =
      std::make_unique<UniformTraffic>(sk.processor_count(), background);
  WorkloadResult result;
  if (compressed) {
    OpsNetworkSim sim(sk.stack(), routing::compress_stack_kautz_routes(sk),
                      std::move(traffic), config);
    result.metrics = sim.run();
    result.coupler_success = sim.coupler_successes();
  } else {
    OpsNetworkSim sim(sk.stack(), routing::compile_stack_kautz_routes(sk),
                      std::move(traffic), config);
    result.metrics = sim.run();
    result.coupler_success = sim.coupler_successes();
  }
  return result;
}

TEST(AsyncShardedWorkload, BitIdenticalToSerialAsyncAcrossThreads) {
  // THE closed-loop acceptance property: a workload-driven parallel run
  // equals the serial async engine exactly -- same streams, same ids,
  // same per-queue (time, seq) order -- for every worker count.
  for (Arbitration arb : kAllPolicies) {
    for (const double background : {0.0, 0.4}) {
      SCOPED_TRACE(std::string(arbitration_name(arb)) + "/bg=" +
                   std::to_string(background));
      const WorkloadResult want =
          run_gossip(Engine::kAsync, 1, arb, background, {}, false);
      EXPECT_EQ(want.metrics.backlog, 0);
      for (const bool compressed : {false, true}) {
        for (const int threads : kThreadCounts) {
          SCOPED_TRACE(std::string(compressed ? "compressed" : "dense") +
                       "/t=" + std::to_string(threads));
          const WorkloadResult got = run_gossip(
              Engine::kAsyncSharded, threads, arb, background, {}, compressed);
          expect_identical(want.metrics, got.metrics);
          EXPECT_EQ(want.coupler_success, got.coupler_success);
        }
      }
    }
  }
}

TEST(AsyncShardedWorkload, BitIdenticalToSerialAsyncUnderSkew) {
  // Skew stretches the collective's critical path; the parallel engine
  // must still track the serial one exactly, makespan included.
  const TimingConfig timing = constant_timing(256, 3 * kTicksPerSlot, 64);
  const WorkloadResult want = run_gossip(
      Engine::kAsync, 1, Arbitration::kTokenRoundRobin, 0.4, timing, false);
  EXPECT_GT(want.metrics.makespan_slots, 0);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    const WorkloadResult got =
        run_gossip(Engine::kAsyncSharded, threads,
                   Arbitration::kTokenRoundRobin, 0.4, timing, false);
    expect_identical(want.metrics, got.metrics);
    EXPECT_EQ(want.coupler_success, got.coupler_success);
  }
}

// ------------------------------------------------ telemetry invariance

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("otis_async_parallel_" + tag)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

RunMetrics run_sk_telemetry(int threads, const TimingConfig& timing,
                            std::shared_ptr<obs::Telemetry> telemetry) {
  hypergraph::StackKautz sk(4, 3, 2);
  SimConfig config;
  config.warmup_slots = 50;
  config.measure_slots = 400;
  config.seed = 42;
  config.engine = Engine::kAsyncSharded;
  config.threads = threads;
  config.timing = timing;
  config.telemetry = std::move(telemetry);
  OpsNetworkSim sim(
      sk.stack(), routing::compile_stack_kautz_routes(sk),
      std::make_unique<UniformTraffic>(sk.processor_count(), 0.35), config);
  return sim.run();
}

TEST(AsyncShardedTelemetry, SamplingIsThreadCountInvariantToTheByte) {
  // Skewed timing makes the lookahead window several slots wide, so
  // sample boundaries fall mid-window: the per-slot frame/backlog
  // snapshots must still reconstruct the exact serial probe values.
  const TimingConfig timing = constant_timing(200, 3 * kTicksPerSlot, 0);
  ScratchDir scratch("bytes");
  const RunMetrics off = run_sk_telemetry(1, timing, nullptr);

  std::string reference_bytes;
  obs::EngineSample reference_probes;
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    const std::filesystem::path path =
        scratch.path() / ("ts_" + std::to_string(threads) + ".jsonl");
    obs::TelemetryConfig tconfig;
    tconfig.sample_period = 64;
    tconfig.timeseries_path = path.string();
    const auto tel = obs::Telemetry::create(tconfig);
    const RunMetrics on = run_sk_telemetry(threads, timing, tel);
    expect_identical(off, on);

    const obs::EngineSample probes = tel->probes();
    tel->close();
    const std::string bytes = read_file(path);
    EXPECT_GT(bytes.size(), 0u);
    if (reference_bytes.empty()) {
      reference_bytes = bytes;
      reference_probes = probes;
    } else {
      EXPECT_EQ(bytes, reference_bytes)
          << "timeseries bytes must not depend on the worker count";
      EXPECT_EQ(probes, reference_probes);
    }
  }
}

}  // namespace
}  // namespace otis::sim
