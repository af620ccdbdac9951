// Tests for the discrete-event core and the slotted OPS network
// simulator: event ordering, packet conservation, latency on single-hop
// POPS, arbitration policies, determinism and saturation behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/stack_routing.hpp"
#include "sim/event_queue.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/traffic.hpp"

namespace otis::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(5); });
  q.schedule_at(1, [&] { order.push_back(1); });
  q.schedule_at(3, [&] { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(q.now(), 5);
}

TEST(EventQueue, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2, [&] { order.push_back(0); });
  q.schedule_at(2, [&] { order.push_back(1); });
  q.schedule_at(2, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] { ++fired; });
  q.schedule_at(10, [&] { ++fired; });
  EXPECT_EQ(q.run_until(5), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 5);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) {
      q.schedule_in(1, tick);
    }
  };
  q.schedule_at(0, tick);
  q.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 4);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule_at(3, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(1, [] {}), core::Error);
}

TEST(EventQueue, RejectsPastSchedulingFromInsideAnAction) {
  // The clock advances as events execute: an action scheduling before
  // its own firing time must be refused, not silently reordered.
  EventQueue q;
  bool threw = false;
  q.schedule_at(7, [&] {
    try {
      q.schedule_at(6, [] {});
    } catch (const core::Error&) {
      threw = true;
    }
    q.schedule_at(7, [] {});  // equal to now() is fine (FIFO after us)
  });
  q.run_all();
  EXPECT_TRUE(threw);
  EXPECT_EQ(q.now(), 7);
}

TEST(EventQueue, RejectsNegativeDelayAndKeepsClockSemantics) {
  EventQueue q;
  EXPECT_THROW(q.schedule_in(-1, [] {}), core::Error);
  // run_until advances the clock to the bound even with nothing left;
  // run_all leaves it at the last executed event.
  q.schedule_at(2, [] {});
  EXPECT_EQ(q.run_until(10), 1);
  EXPECT_EQ(q.now(), 10);
  q.schedule_at(12, [] {});
  EXPECT_EQ(q.run_all(), 1);
  EXPECT_EQ(q.now(), 12);
  EXPECT_TRUE(q.empty());
}

TEST(LatencyStats, MeanMaxPercentile) {
  LatencyStats stats;
  for (std::int64_t v : {1, 2, 3, 4, 100}) {
    stats.record(v);
  }
  EXPECT_EQ(stats.count(), 5);
  EXPECT_DOUBLE_EQ(stats.mean(), 22.0);
  EXPECT_EQ(stats.max(), 100);
  EXPECT_EQ(stats.percentile(0.0), 1);
  EXPECT_EQ(stats.percentile(1.0), 100);
  EXPECT_EQ(stats.percentile(0.5), 3);
}

TEST(LatencyStats, EmptyIsZero) {
  LatencyStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.percentile(0.95), 0);
}

/// The nearest-rank reference: the sample a full sort puts at rank
/// round(q * (n - 1)), the first/last sample at q <= 0 / q >= 1.
std::int64_t sorted_nearest_rank(std::vector<std::int64_t> values, double q) {
  std::sort(values.begin(), values.end());
  if (q <= 0.0) {
    return values.front();
  }
  if (q >= 1.0) {
    return values.back();
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Full-mode percentile() selects instead of sorting and reorders the
/// samples as it goes; every answer must still be the sorted nearest
/// rank, whatever was queried, recorded or merged before it.
TEST(LatencyStats, FullModePercentileIsSortedNearestRank) {
  const double quantiles[] = {0.0, 0.05, 0.5, 0.95, 1.0};
  core::Rng rng(2026);
  const auto draw = [&](std::size_t count, std::size_t distinct) {
    std::vector<std::int64_t> values(count);
    for (std::int64_t& v : values) {
      v = static_cast<std::int64_t>(rng.uniform(distinct));
    }
    return values;
  };
  const auto expect_all = [&](const LatencyStats& stats,
                              const std::vector<std::int64_t>& values) {
    ASSERT_EQ(stats.count(), static_cast<std::int64_t>(values.size()));
    EXPECT_EQ(stats.max(), *std::max_element(values.begin(), values.end()));
    // Forward, then backward: each query starts from the order the
    // previous selection left behind.
    for (const double q : quantiles) {
      EXPECT_EQ(stats.percentile(q), sorted_nearest_rank(values, q))
          << "q=" << q;
    }
    for (auto q = std::rbegin(quantiles); q != std::rend(quantiles); ++q) {
      EXPECT_EQ(stats.percentile(*q), sorted_nearest_rank(values, *q))
          << "q=" << *q;
    }
  };
  for (const std::size_t n : {1, 2, 1000, 50000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Few distinct values per sample: many duplicates, like slot
    // latencies.
    const std::size_t distinct = n / 16 + 2;
    std::vector<std::int64_t> values = draw(n, distinct);
    LatencyStats stats;
    for (const std::int64_t v : values) {
      stats.record(v);
    }
    expect_all(stats, values);

    // record -> percentile -> record -> percentile.
    for (const std::int64_t v : draw(n / 2 + 1, distinct)) {
      stats.record(v);
      values.push_back(v);
    }
    expect_all(stats, values);

    // A merge after a percentile, from a source that was queried too.
    const std::vector<std::int64_t> more = draw(n, 2 * distinct);
    LatencyStats other;
    for (const std::int64_t v : more) {
      other.record(v);
    }
    EXPECT_EQ(other.percentile(0.5), sorted_nearest_rank(more, 0.5));
    stats.merge(other);
    values.insert(values.end(), more.begin(), more.end());
    expect_all(stats, values);
  }
}

TEST(Traffic, UniformRespectsLoadRoughly) {
  UniformTraffic traffic(10, 0.3);
  core::Rng rng(5);
  int packets = 0;
  const int slots = 20000;
  for (int i = 0; i < slots; ++i) {
    TrafficDemand d = traffic.demand(i % 10, rng);
    packets += d.has_packet ? 1 : 0;
    if (d.has_packet) {
      EXPECT_NE(d.destination, i % 10);
      EXPECT_GE(d.destination, 0);
      EXPECT_LT(d.destination, 10);
    }
  }
  EXPECT_NEAR(static_cast<double>(packets) / slots, 0.3, 0.02);
}

TEST(Traffic, HotspotSkewsDestinations) {
  HotspotTraffic traffic(16, 1.0, 3, 0.5);
  core::Rng rng(6);
  int to_hot = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    TrafficDemand d = traffic.demand(0, rng);
    ASSERT_TRUE(d.has_packet);
    to_hot += d.destination == 3 ? 1 : 0;
  }
  // 0.5 direct + 0.5 * (1/15) uniform share.
  EXPECT_NEAR(static_cast<double>(to_hot) / trials, 0.5 + 0.5 / 15, 0.03);
}

TEST(Traffic, PermutationHasNoFixedPointsAndIsStable) {
  PermutationTraffic traffic(9, 1.0, 123);
  for (std::int64_t v = 0; v < 9; ++v) {
    EXPECT_NE(traffic.permutation()[static_cast<std::size_t>(v)], v);
  }
  core::Rng rng(7);
  TrafficDemand first = traffic.demand(4, rng);
  TrafficDemand second = traffic.demand(4, rng);
  ASSERT_TRUE(first.has_packet);
  EXPECT_EQ(first.destination, second.destination);
}

TEST(Traffic, BurstyMeanLoadMatchesStationaryChain) {
  // enter_on = exit_on = 0.1 -> P(on) = 0.5; peak 0.6 -> mean 0.3.
  BurstyTraffic traffic(8, 0.6, 0.1, 0.1);
  EXPECT_NEAR(traffic.mean_load(), 0.3, 1e-12);
  core::Rng rng(44);
  std::int64_t packets = 0;
  const int slots = 40000;
  for (int i = 0; i < slots; ++i) {
    for (std::int64_t node = 0; node < 8; ++node) {
      packets += traffic.demand(node, rng).has_packet ? 1 : 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(packets) / (8.0 * slots), 0.3, 0.03);
}

TEST(Traffic, BurstyIsActuallyBursty) {
  // Long bursts / long idles: consecutive-slot arrivals should be much
  // more correlated than Bernoulli at the same mean load.
  BurstyTraffic traffic(2, 1.0, 0.02, 0.02);  // mean load 0.5, burst ~50
  core::Rng rng(45);
  int runs = 0;
  bool last = false;
  const int slots = 20000;
  int ones = 0;
  for (int i = 0; i < slots; ++i) {
    const bool now = traffic.demand(0, rng).has_packet;
    ones += now ? 1 : 0;
    if (now != last) {
      ++runs;
    }
    last = now;
  }
  // Bernoulli(0.5) would give ~slots/2 runs; bursts give far fewer.
  EXPECT_LT(runs, slots / 4);
  EXPECT_GT(ones, slots / 5);
}

TEST(Traffic, BurstyValidatesParameters) {
  EXPECT_THROW(BurstyTraffic(4, 1.5, 0.1, 0.1), core::Error);
  EXPECT_THROW(BurstyTraffic(4, 0.5, 0.0, 0.1), core::Error);
  EXPECT_THROW(BurstyTraffic(0, 0.5, 0.1, 0.1), core::Error);
}

TEST(Traffic, SaturationAlwaysHasPacket) {
  SaturationTraffic traffic(5);
  core::Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(traffic.demand(i % 5, rng).has_packet);
  }
  EXPECT_TRUE(traffic.is_saturating());
}

/// Helper: build a simulator over POPS(t, g) with uniform traffic on the
/// default (phased) engine via compiled routes.
RunMetrics run_pops(std::int64_t t, std::int64_t g, double load,
                    Arbitration arb, std::uint64_t seed,
                    std::int64_t measure = 1500) {
  hypergraph::Pops pops(t, g);
  SimConfig config;
  config.arbitration = arb;
  config.warmup_slots = 100;
  config.measure_slots = measure;
  config.seed = seed;
  config.drain = false;
  OpsNetworkSim sim(pops.stack(), routing::compile_pops_routes(pops),
                    std::make_unique<UniformTraffic>(pops.processor_count(),
                                                     load),
                    config);
  return sim.run();
}

TEST(OpsNetworkSim, PacketConservationOnPops) {
  RunMetrics m = run_pops(4, 2, 0.2, Arbitration::kTokenRoundRobin, 11);
  // Every offered packet is delivered, dropped, or still queued. (The
  // simulator also delivers warmup leftovers; delivered during the
  // window can thus slightly exceed offered-minus-backlog, so compare
  // with a slack of the warmup backlog.)
  EXPECT_GT(m.offered_packets, 0);
  EXPECT_GE(m.delivered_packets + m.backlog + m.dropped_packets,
            m.offered_packets);
}

TEST(OpsNetworkSim, LowLoadPopsDeliversEverythingInOneSlot) {
  // At very low load contention is negligible: latency ~= 1 slot.
  RunMetrics m = run_pops(4, 4, 0.01, Arbitration::kTokenRoundRobin, 3,
                          4000);
  EXPECT_GT(m.latency.count(), 0);
  EXPECT_LT(m.latency.mean(), 1.5);
  EXPECT_GT(static_cast<double>(m.delivered_packets) /
                static_cast<double>(m.offered_packets),
            0.95);
}

TEST(OpsNetworkSim, DeterministicForSameSeed) {
  RunMetrics a = run_pops(4, 2, 0.4, Arbitration::kRandomWinner, 77);
  RunMetrics b = run_pops(4, 2, 0.4, Arbitration::kRandomWinner, 77);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.coupler_transmissions, b.coupler_transmissions);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

TEST(OpsNetworkSim, SeedsChangeOutcome) {
  RunMetrics a = run_pops(4, 2, 0.4, Arbitration::kRandomWinner, 1);
  RunMetrics b = run_pops(4, 2, 0.4, Arbitration::kRandomWinner, 2);
  EXPECT_NE(a.offered_packets, b.offered_packets);
}

TEST(OpsNetworkSim, CouplerThroughputCapRespected) {
  // A coupler delivers at most one packet per slot: total successful
  // transmissions <= couplers * slots, and per-coupler counts too.
  hypergraph::Pops pops(8, 2);
  routing::PopsRouter router(pops);
  RoutingHooks hooks;
  hooks.next_coupler = [&](hypergraph::Node c, hypergraph::Node d) {
    return router.next_coupler(c, d);
  };
  hooks.relay_on = [](hypergraph::HyperarcId, hypergraph::Node d) {
    return d;
  };
  SimConfig config;
  config.warmup_slots = 50;
  config.measure_slots = 500;
  config.seed = 21;
  OpsNetworkSim sim(pops.stack(), hooks,
                    std::make_unique<SaturationTraffic>(16), config);
  RunMetrics m = sim.run();
  EXPECT_LE(m.coupler_transmissions, 4 * 500);
  for (std::int64_t c : sim.coupler_successes()) {
    EXPECT_LE(c, 500);
  }
  // Under saturation the couplers should be busy nearly every slot with
  // token arbitration.
  EXPECT_GT(m.coupler_utilization(4), 0.9);
}

TEST(OpsNetworkSim, AlohaCollidesTokenDoesNot) {
  RunMetrics token = run_pops(8, 2, 0.5, Arbitration::kTokenRoundRobin, 5);
  RunMetrics aloha = run_pops(8, 2, 0.5, Arbitration::kSlottedAloha, 5);
  EXPECT_EQ(token.collisions, 0);
  EXPECT_GT(aloha.collisions, 0);
  EXPECT_GE(token.delivered_packets, aloha.delivered_packets);
}

TEST(OpsNetworkSim, MultiHopOnStackKautzDeliversWithCorrectHopLatency) {
  hypergraph::StackKautz sk(2, 2, 2);
  routing::StackKautzRouter router(sk);
  RoutingHooks hooks;
  hooks.next_coupler = [&](hypergraph::Node c, hypergraph::Node d) {
    return router.next_coupler(c, d);
  };
  hooks.relay_on = [&](hypergraph::HyperarcId h, hypergraph::Node d) {
    return router.relay_on(h, d);
  };
  SimConfig config;
  config.warmup_slots = 100;
  config.measure_slots = 2000;
  config.seed = 9;
  OpsNetworkSim sim(sk.stack(), hooks,
                    std::make_unique<UniformTraffic>(sk.processor_count(),
                                                     0.02),
                    config);
  RunMetrics m = sim.run();
  EXPECT_GT(m.delivered_packets, 0);
  // At near-zero load latency approaches the mean hop count, which lies
  // in [1, k]; with k = 2 the mean must sit strictly between.
  EXPECT_GT(m.latency.mean(), 0.9);
  EXPECT_LT(m.latency.mean(), 3.0);
}

TEST(OpsNetworkSim, QueueCapacityDropsUnderOverload) {
  hypergraph::Pops pops(8, 1);  // one group: all traffic shares 1 coupler
  routing::PopsRouter router(pops);
  RoutingHooks hooks;
  hooks.next_coupler = [&](hypergraph::Node c, hypergraph::Node d) {
    return router.next_coupler(c, d);
  };
  hooks.relay_on = [](hypergraph::HyperarcId, hypergraph::Node d) {
    return d;
  };
  SimConfig config;
  config.warmup_slots = 0;
  config.measure_slots = 500;
  config.seed = 4;
  config.queue_capacity = 2;
  OpsNetworkSim sim(pops.stack(), hooks,
                    std::make_unique<SaturationTraffic>(8), config);
  RunMetrics m = sim.run();
  EXPECT_GT(m.dropped_packets, 0);
  // The single coupler still only carries <= 1 packet/slot.
  EXPECT_LE(m.delivered_packets, 500);
}

TEST(OpsNetworkSim, MultipleWavelengthsRaiseCouplerCapacity) {
  // W = 2 on a saturated single-group POPS: the lone coupler can now
  // carry two packets per slot.
  auto run = [](std::int64_t wavelengths) {
    hypergraph::Pops pops(8, 1);
    routing::PopsRouter router(pops);
    RoutingHooks hooks;
    hooks.next_coupler = [&router](hypergraph::Node c, hypergraph::Node d) {
      return router.next_coupler(c, d);
    };
    hooks.relay_on = [](hypergraph::HyperarcId, hypergraph::Node d) {
      return d;
    };
    SimConfig config;
    config.warmup_slots = 50;
    config.measure_slots = 500;
    config.seed = 77;
    config.wavelengths = wavelengths;
    OpsNetworkSim sim(pops.stack(), hooks,
                      std::make_unique<SaturationTraffic>(8), config);
    return sim.run();
  };
  RunMetrics w1 = run(1);
  RunMetrics w2 = run(2);
  EXPECT_LE(w1.coupler_transmissions, 500);
  EXPECT_GT(w2.coupler_transmissions, 900);  // ~2 per slot
  EXPECT_LE(w2.coupler_transmissions, 1000);
  EXPECT_GT(w2.delivered_packets, w1.delivered_packets);
}

TEST(OpsNetworkSim, WavelengthsReduceAlohaCollisions) {
  RunMetrics w1 = run_pops(8, 2, 0.6, Arbitration::kSlottedAloha, 5);
  // Same setup but W = 4: build manually since run_pops fixes W = 1.
  hypergraph::Pops pops(8, 2);
  routing::PopsRouter router(pops);
  RoutingHooks hooks;
  hooks.next_coupler = [&](hypergraph::Node c, hypergraph::Node d) {
    return router.next_coupler(c, d);
  };
  hooks.relay_on = [](hypergraph::HyperarcId, hypergraph::Node d) {
    return d;
  };
  SimConfig config;
  config.arbitration = Arbitration::kSlottedAloha;
  config.warmup_slots = 100;
  config.measure_slots = 1500;
  config.seed = 5;
  config.wavelengths = 4;
  OpsNetworkSim sim(pops.stack(), hooks,
                    std::make_unique<UniformTraffic>(16, 0.6), config);
  RunMetrics w4 = sim.run();
  EXPECT_LT(w4.collisions, w1.collisions);
}

/// One SweepPoint per load folded over POPS(4,2) token trials, load by
/// load and seed by seed.
std::vector<SweepPoint> pops_sweep(const std::vector<double>& loads,
                                   const std::vector<std::uint64_t>& seeds) {
  std::vector<SweepPoint> points;
  for (const double load : loads) {
    SweepPoint point;
    for (const std::uint64_t seed : seeds) {
      point.merge(SweepPoint::from_trial(
          run_pops(4, 2, load, Arbitration::kTokenRoundRobin, seed, 800),
          load, 8, 4));
    }
    points.push_back(point);
  }
  return points;
}

TEST(Experiment, LoadSweepAggregatesAndIsMonotoneAtLowLoad) {
  auto points = pops_sweep({0.05, 0.2}, {1, 2, 3});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].trials, 3);
  EXPECT_GT(points[1].throughput_per_node, points[0].throughput_per_node);
  EXPECT_GT(points[0].delivered_fraction, 0.9);
}

TEST(Experiment, SweepPointMergeMatchesDirectMoments) {
  // Three single-trial points with throughputs {1, 2, 6}: mean 3,
  // population variance ((4 + 1 + 9) / 3) = 14/3.
  SweepPoint a;
  a.load = 0.5;
  a.throughput_per_node = 1.0;
  a.trials = 1;
  SweepPoint b = a;
  b.throughput_per_node = 2.0;
  SweepPoint c = a;
  c.throughput_per_node = 6.0;

  SweepPoint left_fold = a;
  left_fold.merge(b);
  left_fold.merge(c);
  EXPECT_EQ(left_fold.trials, 3);
  EXPECT_NEAR(left_fold.throughput_per_node, 3.0, 1e-12);
  EXPECT_NEAR(left_fold.throughput_stddev, std::sqrt(14.0 / 3.0), 1e-9);

  // Trial-count-weighted: merging (a+b) into c equals any other order.
  SweepPoint pair = a;
  pair.merge(b);
  SweepPoint right_fold = c;
  right_fold.merge(pair);
  EXPECT_NEAR(right_fold.throughput_per_node, left_fold.throughput_per_node,
              1e-12);
  EXPECT_NEAR(right_fold.throughput_stddev, left_fold.throughput_stddev,
              1e-9);

  // Merging into an empty point copies the other side.
  SweepPoint empty;
  empty.merge(left_fold);
  EXPECT_EQ(empty.trials, 3);
  EXPECT_NEAR(empty.throughput_stddev, left_fold.throughput_stddev, 1e-12);
}

TEST(Experiment, LoadSweepReportsStddevAcrossSeeds) {
  auto points = pops_sweep({0.3}, {1, 2, 3, 4});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].trials, 4);
  // Different seeds give different trials, so the spread is positive and
  // small relative to the mean at a stable operating point.
  EXPECT_GT(points[0].throughput_stddev, 0.0);
  EXPECT_LT(points[0].throughput_stddev, points[0].throughput_per_node);
  EXPECT_GE(points[0].mean_latency_stddev, 0.0);
}

}  // namespace
}  // namespace otis::sim
