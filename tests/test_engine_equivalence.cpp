// Engine-equivalence and determinism tests for the phased slot engine:
//  - the phased engine reproduces the seed's event-queue reference
//    (run_reference) RunMetrics bit-for-bit at seed parity (all
//    arbitration policies, multi-hop and single-hop topologies, finite
//    queues, WDM, drain);
//  - the sharded engine is bit-identical for every thread count;
//  - CompiledRoutes agrees with the hooks it was baked from;
//  - packet conservation holds exactly under every (engine, policy),
//    the reference included;
//  - SimConfig is validated at construction.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/error.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/generic_stack_routing.hpp"
#include "routing/stack_routing.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/reference.hpp"
#include "sim/traffic.hpp"
#include "sim/voq_arena.hpp"

namespace otis::sim {
namespace {

/// Exact equality of every metric, including the latency distribution.
void expect_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.coupler_transmissions, b.coupler_transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.percentile(0.5), b.latency.percentile(0.5));
  EXPECT_EQ(a.latency.percentile(0.95), b.latency.percentile(0.95));
}

RoutingHooks stack_kautz_hooks(const routing::StackKautzRouter& router) {
  RoutingHooks hooks;
  hooks.next_coupler = [&router](hypergraph::Node c, hypergraph::Node d) {
    return router.next_coupler(c, d);
  };
  hooks.relay_on = [&router](hypergraph::HyperarcId h, hypergraph::Node d) {
    return router.relay_on(h, d);
  };
  return hooks;
}

/// Hooks answered from a compiled table (dense or compressed); `routes`
/// must outlive them.
template <class Routes>
RoutingHooks table_hooks(const Routes& routes) {
  RoutingHooks hooks;
  hooks.next_coupler = [&routes](hypergraph::Node c, hypergraph::Node d) {
    return routes.next_coupler(c, d);
  };
  hooks.relay_on = [&routes](hypergraph::HyperarcId h, hypergraph::Node d) {
    return routes.relay(h, d);
  };
  return hooks;
}

/// Runs the event-queue reference (run_reference) where a test takes an
/// engine.
constexpr std::optional<Engine> kReference;

[[nodiscard]] const char* run_name(std::optional<Engine> engine) {
  return engine ? engine_name(*engine) : "event-queue";
}

/// One stack-Kautz run; coupler successes are appended to the metrics
/// comparison by the caller when needed.
RunMetrics run_sk(std::optional<Engine> engine, Arbitration arb,
                  std::uint64_t seed, int threads = 1,
                  std::int64_t queue_capacity = 0,
                  std::int64_t wavelengths = 1, bool drain = false) {
  hypergraph::StackKautz sk(4, 3, 2);
  routing::StackKautzRouter router(sk);
  SimConfig config;
  config.arbitration = arb;
  config.warmup_slots = 50;
  config.measure_slots = 400;
  config.seed = seed;
  config.threads = threads;
  config.queue_capacity = queue_capacity;
  config.wavelengths = wavelengths;
  config.drain = drain;
  auto traffic = std::make_unique<UniformTraffic>(sk.processor_count(), 0.35);
  if (!engine) {
    return run_reference(sk.stack(), stack_kautz_hooks(router), *traffic,
                         config)
        .metrics;
  }
  config.engine = *engine;
  OpsNetworkSim sim(sk.stack(), stack_kautz_hooks(router), std::move(traffic),
                    config);
  return sim.run();
}

constexpr Arbitration kAllPolicies[] = {Arbitration::kTokenRoundRobin,
                                        Arbitration::kRandomWinner,
                                        Arbitration::kSlottedAloha};

TEST(EngineEquivalence, PhasedMatchesEventQueueOnStackKautz) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    RunMetrics legacy = run_sk(kReference, arb, 42);
    RunMetrics phased = run_sk(Engine::kPhased, arb, 42);
    expect_identical(legacy, phased);
  }
}

TEST(EngineEquivalence, PhasedMatchesEventQueueWithQueuesWdmAndDrain) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    RunMetrics legacy = run_sk(kReference, arb, 7, 1,
                               /*queue_capacity=*/3, /*wavelengths=*/2,
                               /*drain=*/true);
    RunMetrics phased = run_sk(Engine::kPhased, arb, 7, 1, 3, 2, true);
    expect_identical(legacy, phased);
  }
}

TEST(EngineEquivalence, PhasedMatchesEventQueueOnPops) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    auto run = [arb](std::optional<Engine> engine) {
      hypergraph::Pops pops(4, 3);
      SimConfig config;
      config.arbitration = arb;
      config.warmup_slots = 30;
      config.measure_slots = 300;
      config.seed = 5;
      routing::CompiledRoutes routes = routing::compile_pops_routes(pops);
      auto traffic = std::make_unique<UniformTraffic>(12, 0.4);
      if (!engine) {
        return run_reference(pops.stack(), table_hooks(routes), *traffic,
                             config)
            .metrics;
      }
      config.engine = *engine;
      OpsNetworkSim sim(pops.stack(), std::move(routes), std::move(traffic),
                        config);
      return sim.run();
    };
    expect_identical(run(kReference), run(Engine::kPhased));
  }
}

TEST(EngineEquivalence, PhasedMatchesEventQueueOnStackImaseItoh) {
  auto run = [](std::optional<Engine> engine) {
    hypergraph::StackImaseItoh sii(3, 2, 7);
    SimConfig config;
    config.warmup_slots = 40;
    config.measure_slots = 300;
    config.seed = 11;
    config.arbitration = Arbitration::kRandomWinner;
    routing::CompiledRoutes routes =
        routing::compile_stack_imase_itoh_routes(sii);
    auto traffic =
        std::make_unique<UniformTraffic>(sii.processor_count(), 0.25);
    if (!engine) {
      return run_reference(sii.stack(), table_hooks(routes), *traffic,
                           config)
          .metrics;
    }
    config.engine = *engine;
    OpsNetworkSim sim(sii.stack(), std::move(routes), std::move(traffic),
                      config);
    return sim.run();
  };
  expect_identical(run(kReference), run(Engine::kPhased));
}

TEST(EngineEquivalence, PhasedCouplerSuccessesMatchEventQueue) {
  hypergraph::StackKautz sk(4, 3, 2);
  routing::StackKautzRouter router(sk);
  auto run = [&](std::optional<Engine> engine,
                 std::vector<std::int64_t>& successes) {
    SimConfig config;
    config.warmup_slots = 50;
    config.measure_slots = 300;
    config.seed = 3;
    auto traffic = std::make_unique<UniformTraffic>(sk.processor_count(), 0.5);
    if (!engine) {
      successes = run_reference(sk.stack(), stack_kautz_hooks(router),
                                *traffic, config)
                      .coupler_successes;
      return;
    }
    config.engine = *engine;
    OpsNetworkSim sim(sk.stack(), stack_kautz_hooks(router),
                      std::move(traffic), config);
    sim.run();
    successes = sim.coupler_successes();
  };
  std::vector<std::int64_t> legacy;
  std::vector<std::int64_t> phased;
  run(kReference, legacy);
  run(Engine::kPhased, phased);
  EXPECT_EQ(legacy, phased);
}

TEST(EngineEquivalence, ShardedIsBitIdenticalAcrossThreadCounts) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    RunMetrics one = run_sk(Engine::kSharded, arb, 9, 1);
    // SK(4,3,2) has 12 groups, so 16 threads leave empty shards that
    // must still cross both per-slot barriers.
    for (int threads : {2, 3, 5, 8, 16}) {
      SCOPED_TRACE(threads);
      RunMetrics many = run_sk(Engine::kSharded, arb, 9, threads);
      expect_identical(one, many);
    }
  }
}

TEST(EngineEquivalence, DrainBitParityAcrossAllEnginesAndThreadCounts) {
  // drain = true keeps every engine running past the traffic horizon
  // until the network empties. The three serial universes (event-queue,
  // phased, async-with-zero-delays) must agree bit-for-bit on the
  // drained run -- including with finite queues and WDM -- and the
  // sharded universe must be identical for every thread count.
  for (Arbitration arb : kAllPolicies) {
    for (std::int64_t queue_capacity : {std::int64_t{0}, std::int64_t{3}}) {
      for (std::int64_t wavelengths : {std::int64_t{1}, std::int64_t{2}}) {
        SCOPED_TRACE(std::string(arbitration_name(arb)) + "/cap=" +
                     std::to_string(queue_capacity) + "/w=" +
                     std::to_string(wavelengths));
        const RunMetrics legacy =
            run_sk(kReference, arb, 57, 1, queue_capacity, wavelengths,
                   /*drain=*/true);
        const RunMetrics phased = run_sk(Engine::kPhased, arb, 57, 1,
                                         queue_capacity, wavelengths, true);
        const RunMetrics async = run_sk(Engine::kAsync, arb, 57, 1,
                                        queue_capacity, wavelengths, true);
        expect_identical(legacy, phased);
        expect_identical(legacy, async);
        EXPECT_EQ(phased.backlog, 0) << "drain must empty the network";

        const RunMetrics sharded_one =
            run_sk(Engine::kSharded, arb, 57, 1, queue_capacity,
                   wavelengths, true);
        for (int threads : {2, 3, 5, 8, 16}) {
          SCOPED_TRACE(threads);
          const RunMetrics sharded_many =
              run_sk(Engine::kSharded, arb, 57, threads, queue_capacity,
                     wavelengths, true);
          expect_identical(sharded_one, sharded_many);
        }
        EXPECT_EQ(sharded_one.backlog, 0);
      }
    }
  }
}

TEST(EngineEquivalence, LargerStackKautzParityAcrossRoutesAndThreads) {
  // Fixtures a size class above the others, so the compact-sender
  // generation batches span multiple shards with ragged per-shard sender
  // counts and arbitration batches span several summary words:
  //  - SK(5,4,2): 160 processors, 80 couplers (2 words), load 0.4;
  //  - SK(2,4,3): 160 processors, 320 couplers (5 words; 3 per shard at
  //    2 threads), load 0.4;
  //  - SK(2,4,3) at load 0.9: queues double several times and drained
  //    segments are recycled across queues.
  // One event-queue reference run (hook-routed) must be matched
  // bit-for-bit by the phased engine on dense AND on group-compressed
  // tables, by the async engine in its slot-aligned limit, and by the
  // sharded engine at every thread count, on both route
  // representations; async-sharded in its slot-aligned limit must match
  // sharded at {1, 2, 3} threads.
  const struct {
    std::int64_t s, d, k;
    double load;
  } inputs[] = {{5, 4, 2, 0.4}, {2, 4, 3, 0.4}, {2, 4, 3, 0.9}};
  for (const auto& input : inputs) {
    hypergraph::StackKautz sk(input.s, input.d, input.k);
    SCOPED_TRACE("SK(" + std::to_string(input.s) + "," +
                 std::to_string(input.d) + "," + std::to_string(input.k) +
                 ") load " + std::to_string(input.load));
    routing::StackKautzRouter router(sk);
    const auto dense = std::make_shared<const routing::CompiledRoutes>(
        routing::compile_stack_kautz_routes(sk));
    const auto compressed =
        std::make_shared<const routing::CompressedRoutes>(
            routing::compress_stack_kautz_routes(sk));
    for (Arbitration arb : kAllPolicies) {
      SCOPED_TRACE(arbitration_name(arb));
      SimConfig config;
      config.arbitration = arb;
      config.warmup_slots = 30;
      config.measure_slots = 250;
      config.seed = 23;
      auto run = [&](std::optional<Engine> engine, bool use_compressed,
                     int threads) {
        SimConfig c = config;
        c.threads = threads;
        auto traffic = std::make_unique<UniformTraffic>(sk.processor_count(),
                                                        input.load);
        if (!engine) {
          return run_reference(sk.stack(), stack_kautz_hooks(router),
                               *traffic, c)
              .metrics;
        }
        c.engine = *engine;
        if (use_compressed) {
          OpsNetworkSim sim(sk.stack(), compressed, std::move(traffic), c);
          return sim.run();
        }
        OpsNetworkSim sim(sk.stack(), dense, std::move(traffic), c);
        return sim.run();
      };
      const RunMetrics legacy = run(kReference, false, 1);
      for (bool use_compressed : {false, true}) {
        SCOPED_TRACE(use_compressed ? "compressed" : "dense");
        expect_identical(legacy, run(Engine::kPhased, use_compressed, 1));
        expect_identical(legacy, run(Engine::kAsync, use_compressed, 1));
        const RunMetrics sharded_one =
            run(Engine::kSharded, use_compressed, 1);
        for (int threads : {2, 3, 5, 8}) {
          SCOPED_TRACE(threads);
          expect_identical(sharded_one,
                           run(Engine::kSharded, use_compressed, threads));
        }
        for (int threads : {1, 2, 3}) {
          SCOPED_TRACE("async-sharded " + std::to_string(threads));
          expect_identical(
              sharded_one, run(Engine::kAsyncSharded, use_compressed, threads));
        }
      }
    }
  }
}

TEST(EngineEquivalence, PrefetchingArenaParityOnLargeStackKautz) {
  // SK(4,8,3): 2,304 processors feeding 8 couplers each, so 18,432 VOQs,
  // past VoqArena::kPrefetchQueues: every engine runs the prefetching
  // instantiation of pick_then_pop and staged_enqueue, which the
  // fixtures above (all below it) never reach. Two wavelengths: the 64
  // couplers of a summary word here leave 8 groups that share a label
  // prefix and so target distinct groups, so only a coupler's own
  // winners can share a VOQ and make the pop order visible. Compressed
  // routes only: the dense tables would take ~84 MB.
  hypergraph::StackKautz sk(4, 8, 3);
  ASSERT_GE(sk.processor_count() * 8,
            static_cast<std::int64_t>(VoqArena::kPrefetchQueues));
  routing::StackKautzRouter router(sk);
  const auto compressed =
      std::make_shared<const routing::CompressedRoutes>(
          routing::compress_stack_kautz_routes(sk));
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    auto run = [&](std::optional<Engine> engine, int threads) {
      SimConfig c;
      c.arbitration = arb;
      c.wavelengths = 2;
      c.warmup_slots = 10;
      c.measure_slots = 40;
      c.seed = 29;
      c.threads = threads;
      auto traffic =
          std::make_unique<UniformTraffic>(sk.processor_count(), 0.4);
      if (!engine) {
        return run_reference(sk.stack(), stack_kautz_hooks(router), *traffic,
                             c)
            .metrics;
      }
      c.engine = *engine;
      OpsNetworkSim sim(sk.stack(), compressed, std::move(traffic), c);
      return sim.run();
    };
    const RunMetrics legacy = run(kReference, 1);
    expect_identical(legacy, run(Engine::kPhased, 1));
    expect_identical(legacy, run(Engine::kAsync, 1));
    const RunMetrics sharded_one = run(Engine::kSharded, 1);
    for (int threads : {2, 3}) {
      SCOPED_TRACE(threads);
      expect_identical(sharded_one, run(Engine::kSharded, threads));
      expect_identical(sharded_one, run(Engine::kAsyncSharded, threads));
    }
  }
}

TEST(EngineEquivalence, WideCouplerParityAcrossPoliciesAndWavelengths) {
  // POPS(70,2) and POPS(130,2): every coupler has 70 or 130 feeders, so
  // its request mask spans 2 or 3 words -- the only fixtures where
  // pick_single_token wraps across words, the token and random scans
  // cross a word boundary and slotted aloha keeps its transmit masks in
  // scratch. At load 0.005 aloha elects winners; at 0.3 its couplers
  // collide. phased and slot-aligned async must match run_reference;
  // sharded and slot-aligned async-sharded at 1-3 threads must match
  // each other.
  for (std::int64_t group_size : {70, 130}) {
    hypergraph::Pops pops(group_size, 2);
    const auto routes = std::make_shared<const routing::CompiledRoutes>(
        routing::compile_pops_routes(pops));
    for (Arbitration arb : kAllPolicies) {
      for (std::int64_t wavelengths : {1, 2, 3}) {
        for (double load : {0.005, 0.02, 0.3}) {
          SCOPED_TRACE("POPS(" + std::to_string(group_size) + ",2) " +
                       arbitration_name(arb) + " W=" +
                       std::to_string(wavelengths) + " load " +
                       std::to_string(load));
          auto run = [&](std::optional<Engine> engine, int threads) {
            SimConfig c;
            c.arbitration = arb;
            c.wavelengths = wavelengths;
            c.warmup_slots = 20;
            c.measure_slots = 200;
            c.seed = 37;
            c.threads = threads;
            auto traffic = std::make_unique<UniformTraffic>(
                pops.processor_count(), load);
            if (!engine) {
              return run_reference(pops.stack(), table_hooks(*routes),
                                   *traffic, c)
                  .metrics;
            }
            c.engine = *engine;
            OpsNetworkSim sim(pops.stack(), routes, std::move(traffic), c);
            return sim.run();
          };
          const RunMetrics legacy = run(kReference, 1);
          expect_identical(legacy, run(Engine::kPhased, 1));
          expect_identical(legacy, run(Engine::kAsync, 1));
          const RunMetrics sharded_one = run(Engine::kSharded, 1);
          for (int threads : {2, 3}) {
            SCOPED_TRACE(threads);
            expect_identical(sharded_one, run(Engine::kSharded, threads));
          }
          for (int threads : {1, 2, 3}) {
            SCOPED_TRACE("async-sharded " + std::to_string(threads));
            expect_identical(sharded_one,
                             run(Engine::kAsyncSharded, threads));
          }
          if (arb == Arbitration::kSlottedAloha && load == 0.005) {
            EXPECT_GT(legacy.coupler_transmissions, 0);
          }
          if (arb == Arbitration::kSlottedAloha && load == 0.3) {
            EXPECT_GT(legacy.collisions, 0);
          }
        }
      }
    }
  }
}

TEST(EngineEquivalence, ShardedDrainTerminatesAndIsThreadCountInvariant) {
  // Drain keeps the barrier loop alive past the traffic horizon until
  // the folded in-flight count hits zero; the backlog must come out
  // zero and identical for any worker count.
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    RunMetrics one = run_sk(Engine::kSharded, arb, 31, 1, 0, 1, true);
    EXPECT_EQ(one.backlog, 0);
    RunMetrics four = run_sk(Engine::kSharded, arb, 31, 4, 0, 1, true);
    expect_identical(one, four);
  }
}

TEST(EngineEquivalence, ShardedBurstyTrafficIsThreadCountInvariant) {
  // BurstyTraffic keeps per-node state -- the one generator whose
  // correctness under sharding depends on node ownership being exclusive.
  auto run = [](int threads) {
    hypergraph::StackKautz sk(4, 3, 2);
    routing::StackKautzRouter router(sk);
    SimConfig config;
    config.warmup_slots = 20;
    config.measure_slots = 500;
    config.seed = 13;
    config.engine = Engine::kSharded;
    config.threads = threads;
    OpsNetworkSim sim(sk.stack(), stack_kautz_hooks(router),
                      std::make_unique<BurstyTraffic>(sk.processor_count(),
                                                      0.8, 0.05, 0.05),
                      config);
    return sim.run();
  };
  RunMetrics one = run(1);
  RunMetrics four = run(4);
  expect_identical(one, four);
}

TEST(EngineEquivalence, ShardedIsDeterministicAndSeedSensitive) {
  RunMetrics a = run_sk(Engine::kSharded, Arbitration::kRandomWinner, 21, 3);
  RunMetrics b = run_sk(Engine::kSharded, Arbitration::kRandomWinner, 21, 3);
  RunMetrics c = run_sk(Engine::kSharded, Arbitration::kRandomWinner, 22, 3);
  expect_identical(a, b);
  EXPECT_NE(a.offered_packets, c.offered_packets);
}

TEST(EngineEquivalence, PacketConservationExactUnderAllEnginesAndPolicies) {
  // With no warmup every offered packet is delivered, dropped, or
  // still queued when the run stops -- exactly.
  for (std::optional<Engine> engine :
       {kReference, std::optional(Engine::kPhased),
        std::optional(Engine::kSharded)}) {
    for (Arbitration arb : kAllPolicies) {
      SCOPED_TRACE(std::string(run_name(engine)) + "/" +
                   arbitration_name(arb));
      hypergraph::StackKautz sk(4, 3, 2);
      routing::StackKautzRouter router(sk);
      SimConfig config;
      config.arbitration = arb;
      config.warmup_slots = 0;
      config.measure_slots = 600;
      config.seed = 17;
      config.threads = 2;
      config.queue_capacity = 4;  // force drops into the balance too
      auto traffic =
          std::make_unique<UniformTraffic>(sk.processor_count(), 0.6);
      RunMetrics m;
      if (engine) {
        config.engine = *engine;
        OpsNetworkSim sim(sk.stack(), stack_kautz_hooks(router),
                          std::move(traffic), config);
        m = sim.run();
      } else {
        m = run_reference(sk.stack(), stack_kautz_hooks(router), *traffic,
                          config)
                .metrics;
      }
      EXPECT_GT(m.offered_packets, 0);
      EXPECT_EQ(m.offered_packets,
                m.delivered_packets + m.dropped_packets + m.backlog);
    }
  }
}

TEST(CompiledRoutes, AgreesWithTheHooksItWasBakedFrom) {
  hypergraph::StackKautz sk(3, 2, 2);
  routing::StackKautzRouter router(sk);
  routing::CompiledRoutes routes = routing::compile_stack_kautz_routes(sk);
  const auto& hg = sk.stack().hypergraph();
  for (hypergraph::Node v = 0; v < hg.node_count(); ++v) {
    for (hypergraph::Node d = 0; d < hg.node_count(); ++d) {
      if (v == d) {
        EXPECT_EQ(routes.next_coupler(v, d), -1);
        continue;
      }
      const hypergraph::HyperarcId h = router.next_coupler(v, d);
      EXPECT_EQ(routes.next_coupler(v, d), h);
      EXPECT_EQ(routes.next_slot(v, d), sk.stack().out_slot_of(v, h));
      EXPECT_EQ(routes.relay(h, d), router.relay_on(h, d));
    }
  }
}

TEST(CompiledRoutes, GenericAdapterServesTableRoutedStacks) {
  hypergraph::StackImaseItoh sii(2, 2, 5);
  routing::GenericStackRouter router(sii.stack());
  routing::CompiledRoutes routes =
      routing::compile_stack_imase_itoh_routes(sii);
  for (hypergraph::Node v = 0; v < sii.processor_count(); ++v) {
    for (hypergraph::Node d = 0; d < sii.processor_count(); ++d) {
      if (v == d) {
        continue;
      }
      EXPECT_EQ(routes.next_coupler(v, d), router.next_coupler(v, d));
    }
  }
}

TEST(CsrViews, OutSlotAndCouplerFeedAreConsistent) {
  hypergraph::StackKautz sk(3, 2, 2);
  const auto& hg = sk.stack().hypergraph();
  for (hypergraph::HyperarcId h = 0; h < hg.hyperarc_count(); ++h) {
    const hypergraph::CouplerFeed feed = hg.coupler_feed(h);
    const auto& sources = hg.hyperarc(h).sources;
    ASSERT_EQ(feed.count, static_cast<std::int64_t>(sources.size()));
    for (std::int64_t i = 0; i < feed.count; ++i) {
      const hypergraph::Node v = feed.source[i];
      EXPECT_EQ(v, sources[static_cast<std::size_t>(i)]);
      // Hypergraph binary search, stack-graph arithmetic, and the
      // flattened feed must all report the same VOQ slot.
      EXPECT_EQ(feed.slot[i], hg.out_slot_of(v, h));
      EXPECT_EQ(feed.slot[i], sk.stack().out_slot_of(v, h));
      EXPECT_EQ(hg.out_hyperarcs(v)[static_cast<std::size_t>(feed.slot[i])],
                h);
    }
  }
  // Non-sources resolve to -1.
  EXPECT_EQ(hg.out_slot_of(0, hg.hyperarc_count() - 1) >= 0,
            sk.stack().out_slot_of(0, hg.hyperarc_count() - 1) >= 0);
}

TEST(SimConfigValidation, RejectsDegenerateParameters) {
  hypergraph::Pops pops(2, 2);
  auto make = [&](SimConfig config) {
    OpsNetworkSim sim(pops.stack(), routing::compile_pops_routes(pops),
                      std::make_unique<SaturationTraffic>(4), config);
  };
  SimConfig ok;
  EXPECT_NO_THROW(make(ok));
  SimConfig bad_wavelengths;
  bad_wavelengths.wavelengths = 0;
  EXPECT_THROW(make(bad_wavelengths), core::Error);
  SimConfig bad_measure;
  bad_measure.measure_slots = 0;
  EXPECT_THROW(make(bad_measure), core::Error);
  SimConfig bad_warmup;
  bad_warmup.warmup_slots = -1;
  EXPECT_THROW(make(bad_warmup), core::Error);
  SimConfig bad_capacity;
  bad_capacity.queue_capacity = -1;
  EXPECT_THROW(make(bad_capacity), core::Error);
  // Windows up to kMaxRunSlots keep every slot and tick in int64.
  const auto window = [](std::int64_t warmup, std::int64_t measure) {
    SimConfig config;
    config.warmup_slots = warmup;
    config.measure_slots = measure;
    return config;
  };
  EXPECT_NO_THROW(make(window(kMaxRunSlots - 20, 20)));
  EXPECT_NO_THROW(make(window(0, kMaxRunSlots)));
  EXPECT_THROW(make(window(kMaxRunSlots - 19, 20)), core::Error);
  EXPECT_THROW(make(window(0, kMaxRunSlots + 1)), core::Error);
  // warmup + measure would overflow int64 itself.
  EXPECT_THROW(make(window(9223372036854775000, 20)), core::Error);
}

TEST(SimConfigValidation, ReferenceRefusesWhatItNeverImplemented) {
  // The reference shares OpsNetworkSim's validation, and refuses a trace
  // recorder and sub-slot timing (workloads, telemetry and checkpointing
  // are checked beside their engine tests).
  hypergraph::Pops pops(2, 2);
  const routing::CompiledRoutes routes = routing::compile_pops_routes(pops);
  SimConfig base;
  base.warmup_slots = 10;
  base.measure_slots = 50;
  auto run = [&](const SimConfig& config) {
    SaturationTraffic traffic(4);
    return run_reference(pops.stack(), table_hooks(routes), traffic, config);
  };
  EXPECT_NO_THROW(run(base));
  SimConfig bad_wavelengths = base;
  bad_wavelengths.wavelengths = 0;
  EXPECT_THROW(run(bad_wavelengths), core::Error);
  SimConfig recorded = base;
  recorded.recorder =
      std::make_shared<workload::TraceRecorder>(pops.processor_count());
  EXPECT_THROW(run(recorded), core::Error);
  SimConfig skewed = base;
  skewed.engine = Engine::kAsync;  // passes the shared timing check
  skewed.timing.profile = SkewProfile::kConstant;
  skewed.timing.propagation_ticks = 300;
  EXPECT_THROW(run(skewed), core::Error);
}

}  // namespace
}  // namespace otis::sim
