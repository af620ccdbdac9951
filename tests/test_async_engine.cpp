// Async timing layer tests:
//  - the calendar queue orders events exactly like the priority-queue
//    EventQueue (time order, FIFO tie-break, past-scheduling rejection),
//    same-tick floods and checkpoint re-pushes included;
//  - TimingConfig/TimingModel compile the skew profiles correctly
//    (constant, per-level, trace-derived);
//  - THE parity suite: the AsyncEngine with a slot-aligned (all-zero)
//    timing model is bit-identical to the phased engine on SK, SII and
//    POPS, with dense AND compressed route tables, for every arbitration
//    policy, including drain, finite queues, WDM and coupler successes;
//  - skewed runs behave physically: tuning delay raises latency,
//    propagation skew defers deliveries, guard bands cost a slot, and
//    skewed runs stay deterministic in the seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "designs/builders.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"

namespace otis::sim {
namespace {

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

constexpr Arbitration kAllPolicies[] = {Arbitration::kTokenRoundRobin,
                                        Arbitration::kRandomWinner,
                                        Arbitration::kSlottedAloha};

// ------------------------------------------------------- calendar queue

TEST(CalendarQueueTest, PopsInTimeOrderAcrossBucketsAndYears) {
  CalendarQueue<int> q(/*bucket_width=*/4, /*initial_buckets=*/4);
  // Times spanning several calendar years (bucket wrap-arounds).
  const std::vector<SimTime> times = {37, 2, 18, 5, 90, 2, 41, 0, 17};
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.push_keyed(times[i], i, static_cast<int>(i));
  }
  EXPECT_EQ(q.pending(), times.size());
  SimTime last = -1;
  std::uint64_t last_seq = 0;
  bool first = true;
  while (!q.empty()) {
    const auto entry = q.pop();
    if (!first && entry.time == last) {
      EXPECT_GT(entry.seq, last_seq) << "FIFO tie-break at equal times";
    }
    EXPECT_GE(entry.time, last);
    last = entry.time;
    last_seq = entry.seq;
    first = false;
  }
  EXPECT_EQ(q.now(), 90);
}

TEST(CalendarQueueTest, MatchesEventQueueOrderOnRandomWorkload) {
  // Differential test: same pushes, identical pop order as the
  // priority-queue EventQueue semantics (time, then schedule order).
  CalendarQueue<int> calendar(kTicksPerSlot);
  struct Ref {
    SimTime time;
    int id;
  };
  std::vector<Ref> reference;
  core::Rng rng(99);
  SimTime now = 0;
  int id = 0;
  for (int round = 0; round < 2000; ++round) {
    const SimTime at =
        now + static_cast<SimTime>(rng.uniform(20 * kTicksPerSlot));
    calendar.push_keyed(at, static_cast<std::uint64_t>(id), id);
    reference.push_back(Ref{at, id});
    ++id;
    if (round % 3 == 0 && !calendar.empty()) {
      const auto entry = calendar.pop();
      // Reference: earliest (time, insertion order) entry.
      std::size_t best = 0;
      for (std::size_t i = 1; i < reference.size(); ++i) {
        if (reference[i].time < reference[best].time) {
          best = i;
        }
      }
      EXPECT_EQ(entry.time, reference[best].time);
      EXPECT_EQ(entry.payload, reference[best].id);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(best));
      now = entry.time;
    }
  }
  while (!calendar.empty()) {
    const auto entry = calendar.pop();
    std::size_t best = 0;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      if (reference[i].time < reference[best].time) {
        best = i;
      }
    }
    EXPECT_EQ(entry.payload, reference[best].id);
    reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(best));
  }
  EXPECT_TRUE(reference.empty());
}

TEST(CalendarQueueTest, FloodsPopInReferenceOrder) {
  // The engines' traffic: a slot's arrivals all land on one tick. 5,000
  // pushes keyed in push order on one tick and 500 on a second, interleaved,
  // popped at each slot boundary against a sorted (time, seq) reference.
  // Scattered pushes overflow a multi-tick day into the heap and outgrow
  // the span, so the calendar rescales while both floods are pending;
  // the drain of the big flood takes new pushes into its own day; and
  // midway through that drain a checkpoint copy -- every for_each entry
  // re-pushed with push_keyed into a fresh queue -- must pop the same
  // sequence from then on.
  using Queue = CalendarQueue<int>;
  Queue queue;
  std::optional<Queue> restored;
  std::set<std::tuple<SimTime, std::uint64_t, int>> reference;
  int next_id = 0;
  const auto push = [&](SimTime at) {
    const auto seq = static_cast<std::uint64_t>(next_id);
    reference.emplace(at, seq, next_id);
    queue.push_keyed(at, seq, next_id);
    if (restored) {
      restored->push_keyed(at, seq, next_id);
    }
    ++next_id;
  };
  const SimTime big = 2 * kTicksPerSlot + 5;
  const SimTime small = 3 * kTicksPerSlot + 100;
  for (int i = 0; i < 5500; ++i) {
    push(i % 11 == 10 ? small : big);
  }
  for (SimTime i = 0; i < 40; ++i) {
    push(kTicksPerSlot + 7 * i);
  }

  int big_popped = 0;
  for (SimTime slot = 1; slot <= 5; ++slot) {
    while (!queue.empty() && queue.peek().time <= slot * kTicksPerSlot) {
      const auto got = queue.pop();
      ASSERT_FALSE(reference.empty());
      const auto [time, seq, id] = *reference.begin();
      reference.erase(reference.begin());
      ASSERT_EQ(got.time, time);
      ASSERT_EQ(got.seq, seq);
      ASSERT_EQ(got.payload, id);
      if (restored) {
        const auto copy = restored->pop();
        ASSERT_EQ(copy.time, time);
        ASSERT_EQ(copy.seq, seq);
        ASSERT_EQ(copy.payload, id);
      }
      if (got.time != big || ++big_popped % 1000 != 0) {
        continue;
      }
      push(big);
      push(big + 1);
      push(2 * big);
      if (big_popped == 2000) {
        restored.emplace();
        queue.for_each([&](const Queue::Entry& entry) {
          restored->push_keyed(entry.time, entry.seq, entry.payload);
        });
        EXPECT_EQ(restored->pending(), queue.pending());
      }
    }
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(restored->empty());
  EXPECT_TRUE(reference.empty());
}

TEST(CalendarQueueTest, RejectsPastScheduling) {
  CalendarQueue<int> q;
  q.push_keyed(5 * kTicksPerSlot, 0, 1);
  (void)q.pop();
  EXPECT_EQ(q.now(), 5 * kTicksPerSlot);
  EXPECT_THROW(q.push_keyed(kTicksPerSlot, 1, 2), core::Error);
}

// --------------------------------------------------------- timing model

TEST(TimingConfigTest, LabelsAndValidation) {
  TimingConfig none;
  EXPECT_TRUE(none.is_slot_aligned());
  EXPECT_EQ(none.label(), "none");
  EXPECT_NO_THROW(none.validate());

  TimingConfig constant;
  constant.profile = SkewProfile::kConstant;
  constant.tuning_ticks = 256;
  constant.propagation_ticks = 128;
  EXPECT_FALSE(constant.is_slot_aligned());
  EXPECT_EQ(constant.label(), "const(t256,p128,g0)");
  EXPECT_NO_THROW(constant.validate());

  TimingConfig level = constant;
  level.profile = SkewProfile::kPerLevel;
  level.level_skew_ticks = 64;
  EXPECT_EQ(level.label(), "level(t256,p128,l64,g0)");
  EXPECT_NO_THROW(level.validate());

  TimingConfig bad_none;
  bad_none.tuning_ticks = 1;
  EXPECT_THROW(bad_none.validate(), core::Error);
  TimingConfig negative = constant;
  negative.propagation_ticks = -1;
  EXPECT_THROW(negative.validate(), core::Error);
  TimingConfig wide_guard = constant;
  wide_guard.guard_ticks = kTicksPerSlot;
  EXPECT_THROW(wide_guard.validate(), core::Error);
  TimingConfig stray_level = constant;
  stray_level.level_skew_ticks = 8;
  EXPECT_THROW(stray_level.validate(), core::Error);
}

TEST(TimingConfigTest, DelaysPastTheBoundThrow) {
  hypergraph::Pops pops(2, 2);
  for (SimTime TimingConfig::*field :
       {&TimingConfig::tuning_ticks, &TimingConfig::propagation_ticks,
        &TimingConfig::level_skew_ticks}) {
    TimingConfig edge;
    edge.profile = SkewProfile::kPerLevel;
    edge.*field = kMaxDelayTicks;
    EXPECT_NO_THROW(edge.validate());
    TimingConfig past = edge;
    past.*field = kMaxDelayTicks + 1;
    EXPECT_THROW(past.validate(), core::Error);
    SimConfig config;
    config.engine = Engine::kAsync;
    config.timing = past;
    EXPECT_THROW(
        OpsNetworkSim(pops.stack(), routing::compile_pops_routes(pops),
                      std::make_unique<SaturationTraffic>(4), config),
        core::Error);
  }
  // Each field fits, but a level-1 coupler's delay would not.
  hypergraph::StackKautz sk(3, 2, 2);
  TimingConfig leveled;
  leveled.profile = SkewProfile::kPerLevel;
  leveled.propagation_ticks = kMaxDelayTicks;
  leveled.level_skew_ticks = 1;
  EXPECT_THROW((void)TimingModel::compile(sk.stack(), leveled), core::Error);
  const designs::NetworkDesign design = designs::stack_kautz_design(2, 2, 2);
  hypergraph::StackKautz small(2, 2, 2);
  EXPECT_THROW((void)TimingModel::from_trace(small.stack(), design, 1e30),
               core::Error);
}

TEST(TimingModelTest, CompilesConstantAndPerLevelProfiles) {
  hypergraph::StackKautz sk(3, 2, 2);
  const auto& stack = sk.stack();

  TimingConfig constant;
  constant.profile = SkewProfile::kConstant;
  constant.tuning_ticks = 100;
  constant.propagation_ticks = 40;
  const TimingModel uniform = TimingModel::compile(stack, constant);
  EXPECT_FALSE(uniform.slot_aligned());
  EXPECT_EQ(uniform.coupler_count(),
            stack.hypergraph().hyperarc_count());
  for (hypergraph::HyperarcId h = 0; h < uniform.coupler_count(); ++h) {
    EXPECT_EQ(uniform.tuning(h), 100);
    EXPECT_EQ(uniform.propagation(h), 40);
  }

  TimingConfig leveled = constant;
  leveled.profile = SkewProfile::kPerLevel;
  leveled.level_skew_ticks = 10;
  const TimingModel skewed = TimingModel::compile(stack, leveled);
  bool found_skew = false;
  SimTime largest = 0;
  for (hypergraph::HyperarcId h = 0; h < skewed.coupler_count(); ++h) {
    const graph::ArcId arc = stack.arc_of_coupler(h);
    const SimTime level =
        std::abs(stack.base().head(arc) - stack.base().tail(arc));
    EXPECT_EQ(skewed.propagation(h), 40 + 10 * level);
    largest = std::max(largest, skewed.propagation(h));
    found_skew |= skewed.propagation(h) != skewed.propagation(0);
  }
  EXPECT_TRUE(found_skew) << "per-level skew must differentiate couplers";
  EXPECT_EQ(skewed.max_propagation(), largest);

  const TimingModel zero = TimingModel::compile(stack, TimingConfig{});
  EXPECT_TRUE(zero.slot_aligned());
  EXPECT_EQ(zero.max_propagation(), 0);
}

TEST(TimingModelTest, TraceDerivedSkewFollowsTheOptics) {
  // SK(2,2,2): the optical design exists (Fig. 12 construction); every
  // coupler's delay comes from its worst traced component chain.
  hypergraph::StackKautz sk(2, 2, 2);
  const designs::NetworkDesign design = designs::stack_kautz_design(2, 2, 2);
  const TimingModel model =
      TimingModel::from_trace(sk.stack(), design, /*ticks_per_component=*/8.0,
                              /*tuning_ticks=*/16);
  EXPECT_FALSE(model.slot_aligned());
  EXPECT_EQ(model.coupler_count(), sk.coupler_count());
  for (hypergraph::HyperarcId h = 0; h < model.coupler_count(); ++h) {
    EXPECT_EQ(model.tuning(h), 16);
    // Every lightpath crosses at least tx -> ... -> rx components.
    EXPECT_GE(model.propagation(h), 3 * 8);
  }
  // Doubling the per-component scale doubles every delay.
  const TimingModel doubled =
      TimingModel::from_trace(sk.stack(), design, 16.0, 16);
  for (hypergraph::HyperarcId h = 0; h < model.coupler_count(); ++h) {
    EXPECT_EQ(doubled.propagation(h), 2 * model.propagation(h));
  }
}

// --------------------------------------------------- zero-delay parity

enum class Table { kDense, kCompressed };

template <class Network, class CompileDense, class CompileCompressed>
RunMetrics run_case(Network& network, CompileDense compile_dense,
                    CompileCompressed compile_compressed,
                    std::int64_t processors, Engine engine, Arbitration arb,
                    Table table, const TimingConfig& timing,
                    std::vector<std::int64_t>* successes,
                    std::int64_t queue_capacity = 0,
                    std::int64_t wavelengths = 1, bool drain = false) {
  SimConfig config;
  config.arbitration = arb;
  config.warmup_slots = 40;
  config.measure_slots = 400;
  config.seed = 23;
  config.engine = engine;
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

/// Runs (engine, arb, table, timing) on one of the three paper
/// topologies by index: 0 = SK(4,3,2), 1 = POPS(6,12), 2 = SII(4,2,12).
RunMetrics run_topology(int topology, Engine engine, Arbitration arb,
                        Table table, const TimingConfig& timing = {},
                        std::vector<std::int64_t>* successes = nullptr,
                        std::int64_t queue_capacity = 0,
                        std::int64_t wavelengths = 1, bool drain = false) {
  switch (topology) {
    case 0: {
      hypergraph::StackKautz sk(4, 3, 2);
      return run_case(
          sk, [&] { return routing::compile_stack_kautz_routes(sk); },
          [&] { return routing::compress_stack_kautz_routes(sk); },
          sk.processor_count(), engine, arb, table, timing, successes,
          queue_capacity, wavelengths, drain);
    }
    case 1: {
      hypergraph::Pops pops(6, 12);
      return run_case(
          pops, [&] { return routing::compile_pops_routes(pops); },
          [&] { return routing::compress_pops_routes(pops); },
          pops.processor_count(), engine, arb, table, timing, successes,
          queue_capacity, wavelengths, drain);
    }
    default: {
      hypergraph::StackImaseItoh sii(4, 2, 12);
      return run_case(
          sii, [&] { return routing::compile_stack_imase_itoh_routes(sii); },
          [&] { return routing::compress_stack_imase_itoh_routes(sii); },
          sii.processor_count(), engine, arb, table, timing, successes,
          queue_capacity, wavelengths, drain);
    }
  }
}

TEST(AsyncEngineParity, SlotAlignedMatchesPhasedOnAllTopologiesAndTables) {
  const char* names[] = {"SK(4,3,2)", "POPS(6,12)", "SII(4,2,12)"};
  for (int topology = 0; topology < 3; ++topology) {
    for (Arbitration arb : kAllPolicies) {
      for (Table table : {Table::kDense, Table::kCompressed}) {
        SCOPED_TRACE(std::string(names[topology]) + "/" +
                     arbitration_name(arb) + "/" +
                     (table == Table::kDense ? "dense" : "compressed"));
        std::vector<std::int64_t> phased_successes;
        std::vector<std::int64_t> async_successes;
        const RunMetrics phased = run_topology(
            topology, Engine::kPhased, arb, table, {}, &phased_successes);
        const RunMetrics async = run_topology(
            topology, Engine::kAsync, arb, table, {}, &async_successes);
        expect_identical(phased, async);
        EXPECT_EQ(phased_successes, async_successes);
      }
    }
  }
}

TEST(AsyncEngineParity, SlotAlignedMatchesPhasedWithQueuesWdmAndDrain) {
  for (int topology = 0; topology < 3; ++topology) {
    for (Arbitration arb : kAllPolicies) {
      SCOPED_TRACE(std::string("topology ") + std::to_string(topology) + "/" +
                   arbitration_name(arb));
      const RunMetrics phased =
          run_topology(topology, Engine::kPhased, arb, Table::kDense, {},
                       nullptr, /*queue_capacity=*/3, /*wavelengths=*/2,
                       /*drain=*/true);
      const RunMetrics async =
          run_topology(topology, Engine::kAsync, arb, Table::kDense, {},
                       nullptr, 3, 2, true);
      expect_identical(phased, async);
      EXPECT_EQ(async.backlog, 0) << "drain must empty the network";
    }
  }
}

TEST(AsyncEngineParity, ExplicitZeroTimingModelStillCollapses) {
  // A slot-aligned model built through the kConstant profile with all
  // zeros must behave exactly like the default-constructed config.
  TimingConfig zero;
  zero.profile = SkewProfile::kConstant;
  const RunMetrics a = run_topology(0, Engine::kAsync,
                                    Arbitration::kTokenRoundRobin,
                                    Table::kDense, zero);
  const RunMetrics b = run_topology(0, Engine::kPhased,
                                    Arbitration::kTokenRoundRobin,
                                    Table::kDense);
  expect_identical(a, b);
}

// ----------------------------------------------------- skewed behaviour

TimingConfig constant_timing(SimTime tuning, SimTime propagation,
                             SimTime guard = 0) {
  TimingConfig config;
  config.profile = SkewProfile::kConstant;
  config.tuning_ticks = tuning;
  config.propagation_ticks = propagation;
  config.guard_ticks = guard;
  return config;
}

TEST(AsyncEngineSkew, TuningDelayRaisesLatencyAndLowersThroughput) {
  const RunMetrics aligned = run_topology(
      0, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense);
  // 2.5 slots of tuning: every hop waits out at least 3 slot boundaries.
  const RunMetrics tuned = run_topology(
      0, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      constant_timing(5 * kTicksPerSlot / 2, 0));
  EXPECT_EQ(aligned.offered_packets, tuned.offered_packets)
      << "generation is timing-independent";
  EXPECT_GT(tuned.latency.mean(), aligned.latency.mean() + 2.0);
  EXPECT_LT(tuned.delivered_packets, aligned.delivered_packets);
}

TEST(AsyncEngineSkew, PropagationSkewDefersDeliveriesNotThroughput) {
  const RunMetrics aligned = run_topology(
      1, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense);
  // Single-hop POPS with 1.5 slots of propagation: packets arrive late
  // (higher latency) but the coupler schedule is unchanged.
  const RunMetrics skewed = run_topology(
      1, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      constant_timing(0, 3 * kTicksPerSlot / 2));
  EXPECT_EQ(aligned.coupler_transmissions, skewed.coupler_transmissions);
  EXPECT_GT(skewed.latency.mean(), aligned.latency.mean() + 0.9);
}

TEST(AsyncEngineSkew, GuardBandCostsOneSlotPerHop) {
  const RunMetrics aligned = run_topology(
      1, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense);
  // A packet generated at the boundary misses its own slot's guard and
  // waits for the next one: +1 slot latency on single-hop POPS.
  const RunMetrics guarded = run_topology(
      1, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      constant_timing(0, 0, kTicksPerSlot / 4));
  EXPECT_NEAR(guarded.latency.mean(), aligned.latency.mean() + 1.0, 0.35);
}

TEST(AsyncEngineSkew, SkewedRunsAreDeterministicAndSeedSensitive) {
  const TimingConfig timing = constant_timing(300, 700);
  auto run = [&](std::uint64_t seed) {
    hypergraph::StackKautz sk(4, 3, 2);
    SimConfig config;
    config.engine = Engine::kAsync;
    config.timing = timing;
    config.seed = seed;
    config.warmup_slots = 20;
    config.measure_slots = 300;
    config.arbitration = Arbitration::kRandomWinner;
    OpsNetworkSim sim(
        sk.stack(), routing::compile_stack_kautz_routes(sk),
        std::make_unique<UniformTraffic>(sk.processor_count(), 0.4), config);
    return sim.run();
  };
  const RunMetrics a = run(11);
  const RunMetrics b = run(11);
  const RunMetrics c = run(12);
  expect_identical(a, b);
  EXPECT_NE(a.offered_packets, c.offered_packets);
}

TEST(AsyncEngineSkew, PerLevelSkewChangesOutcomesOnMultiHop) {
  TimingConfig leveled;
  leveled.profile = SkewProfile::kPerLevel;
  leveled.propagation_ticks = 100;
  leveled.level_skew_ticks = 400;
  const RunMetrics flat = run_topology(
      0, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      constant_timing(0, 100));
  const RunMetrics skewed = run_topology(
      0, Engine::kAsync, Arbitration::kTokenRoundRobin, Table::kDense,
      leveled);
  EXPECT_GT(skewed.latency.mean(), flat.latency.mean());
}

TEST(AsyncEngineSkew, TraceDerivedModelRunsEndToEnd) {
  hypergraph::StackKautz sk(2, 2, 2);
  const designs::NetworkDesign design = designs::stack_kautz_design(2, 2, 2);
  auto timing = std::make_shared<const TimingModel>(TimingModel::from_trace(
      sk.stack(), design, /*ticks_per_component=*/kTicksPerSlot / 16.0));
  SimConfig config;
  config.engine = Engine::kAsync;
  config.warmup_slots = 20;
  config.measure_slots = 400;
  config.seed = 5;
  OpsNetworkSim sim(
      sk.stack(), routing::compile_stack_kautz_routes(sk),
      std::make_unique<UniformTraffic>(sk.processor_count(), 0.3), config);
  sim.set_timing_model(timing);
  const RunMetrics skewed = sim.run();
  EXPECT_GT(skewed.delivered_packets, 0);
  EXPECT_GT(skewed.latency.mean(), 1.0)
      << "optical path lengths must introduce visible delay";
}

TEST(AsyncEngineSkew, SlottedEnginesRejectSkewedTimingConfigs) {
  hypergraph::Pops pops(2, 2);
  SimConfig config;
  config.engine = Engine::kPhased;
  config.timing = constant_timing(64, 0);
  EXPECT_THROW(OpsNetworkSim(pops.stack(), routing::compile_pops_routes(pops),
                             std::make_unique<SaturationTraffic>(4), config),
               core::Error);
  config.engine = Engine::kAsync;
  EXPECT_NO_THROW(
      OpsNetworkSim(pops.stack(), routing::compile_pops_routes(pops),
                    std::make_unique<SaturationTraffic>(4), config));
}

TEST(AsyncEngineSkew, RunsAtTheDelayBound) {
  // Every transmission lands ~2^50 slots after the window: the final
  // flush counts the deliveries and leaves the relays queued.
  hypergraph::StackKautz sk(4, 3, 2);
  const auto run = [&](Engine engine, int threads) {
    SimConfig config;
    config.engine = engine;
    config.threads = threads;
    config.warmup_slots = 0;
    config.measure_slots = 40;
    config.seed = 3;
    config.timing = constant_timing(0, kMaxDelayTicks, 64);
    OpsNetworkSim sim(
        sk.stack(), routing::compile_stack_kautz_routes(sk),
        std::make_unique<UniformTraffic>(sk.processor_count(), 0.3), config);
    return sim.run();
  };
  for (const Engine engine : {Engine::kAsync, Engine::kAsyncSharded}) {
    SCOPED_TRACE(engine_name(engine));
    const RunMetrics m = run(engine, 1);
    EXPECT_GT(m.delivered_packets, 0);
    EXPECT_GT(m.backlog, 0);
    EXPECT_EQ(m.offered_packets,
              m.delivered_packets + m.dropped_packets + m.backlog);
    EXPECT_GE(m.latency.max(), kMaxDelayTicks / kTicksPerSlot);
    if (engine == Engine::kAsyncSharded) {
      expect_identical(m, run(engine, 3));
    }
  }
}

TEST(AsyncEngineSkew, PacketConservationExactUnderSkew) {
  for (Arbitration arb : kAllPolicies) {
    SCOPED_TRACE(arbitration_name(arb));
    hypergraph::StackKautz sk(4, 3, 2);
    SimConfig config;
    config.engine = Engine::kAsync;
    config.arbitration = arb;
    config.warmup_slots = 0;
    config.measure_slots = 300;
    config.seed = 7;
    config.queue_capacity = 4;
    config.timing = constant_timing(200, 900, 100);
    OpsNetworkSim sim(
        sk.stack(), routing::compile_stack_kautz_routes(sk),
        std::make_unique<UniformTraffic>(sk.processor_count(), 0.5), config);
    const RunMetrics m = sim.run();
    EXPECT_GT(m.offered_packets, 0);
    EXPECT_EQ(m.offered_packets,
              m.delivered_packets + m.dropped_packets + m.backlog);
  }
}

}  // namespace
}  // namespace otis::sim
