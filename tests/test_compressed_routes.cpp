// Dense <-> compressed routing-table parity, the correctness bar of the
// group-factored RouteView layer:
//  - CompressedRoutes agrees with CompiledRoutes on next_coupler /
//    next_slot / relay for every (node, dest) pair on SK, SII, POPS and
//    a generic stack-graph;
//  - compress() (fold the dense table, exhaustive verification) and
//    compile() (O(G^2) router evaluations, the dense table never built)
//    produce identical tables;
//  - engine bit-parity: dense and compressed tables give identical
//    RunMetrics and coupler-success vectors on the phased and sharded
//    (all thread counts) engines and on the event-queue reference;
//  - non-group-factored routers are rejected, not silently compressed;
//  - the memory model: a >= 10^4-node stack-Kautz compresses to under
//    1/50 of the dense footprint (the ISSUE acceptance bound).

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/error.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/stack_routing.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/reference.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"

namespace otis {
namespace {

/// Every routing answer the engines consume must agree: next coupler
/// and VOQ slot for each (node, dest), and the relay of the coupler the
/// route actually chose.
void expect_route_parity(const hypergraph::StackGraph& stack,
                         const routing::CompiledRoutes& dense,
                         const routing::CompressedRoutes& compressed) {
  ASSERT_EQ(dense.node_count(), compressed.node_count());
  ASSERT_EQ(dense.coupler_count(), compressed.coupler_count());
  for (hypergraph::Node v = 0; v < dense.node_count(); ++v) {
    for (hypergraph::Node d = 0; d < dense.node_count(); ++d) {
      if (v == d) {
        continue;
      }
      const hypergraph::HyperarcId h = dense.next_coupler(v, d);
      EXPECT_EQ(compressed.next_coupler(v, d), h) << "v=" << v << " d=" << d;
      EXPECT_EQ(compressed.next_slot(v, d), dense.next_slot(v, d))
          << "v=" << v << " d=" << d;
      EXPECT_EQ(compressed.relay(h, d), dense.relay(h, d))
          << "h=" << h << " d=" << d;
    }
  }
  (void)stack;
}

TEST(CompressedRoutes, MatchesDenseOnStackKautz) {
  hypergraph::StackKautz sk(4, 3, 2);
  const routing::CompiledRoutes dense = routing::compile_stack_kautz_routes(sk);
  const routing::CompressedRoutes compressed =
      routing::compress_stack_kautz_routes(sk);
  expect_route_parity(sk.stack(), dense, compressed);
  EXPECT_EQ(compressed.group_count(), sk.group_count());
  EXPECT_EQ(compressed.stacking_factor(), 4);
  EXPECT_LT(compressed.memory_bytes(), dense.memory_bytes());
}

TEST(CompressedRoutes, MatchesDenseOnPops) {
  hypergraph::Pops pops(4, 5);
  const routing::CompiledRoutes dense = routing::compile_pops_routes(pops);
  const routing::CompressedRoutes compressed =
      routing::compress_pops_routes(pops);
  expect_route_parity(pops.stack(), dense, compressed);
}

TEST(CompressedRoutes, MatchesDenseOnStackImaseItoh) {
  hypergraph::StackImaseItoh sii(3, 2, 7);
  const routing::CompiledRoutes dense =
      routing::compile_stack_imase_itoh_routes(sii);
  const routing::CompressedRoutes compressed =
      routing::compress_stack_imase_itoh_routes(sii);
  expect_route_parity(sii.stack(), dense, compressed);
}

TEST(CompressedRoutes, MatchesDenseOnGenericStackGraph) {
  // A stack-graph the per-family adapters never see: s = 1 over a plain
  // de Bruijn base (no loops needed -- every group is a single node, so
  // same-group traffic does not exist and the (g, g) entries stay
  // unbaked).
  topology::DeBruijn db(2, 3);
  hypergraph::StackGraph stack(1, db.graph());
  const routing::CompiledRoutes dense =
      routing::compile_generic_stack_routes(stack);
  const routing::CompressedRoutes compressed =
      routing::compress_generic_stack_routes(stack);
  expect_route_parity(stack, dense, compressed);

  // And s = 3 over a looped base via the generic router.
  hypergraph::StackGraph looped(
      3, hypergraph::imase_itoh_with_loops(2, 5));
  expect_route_parity(looped, routing::compile_generic_stack_routes(looped),
                      routing::compress_generic_stack_routes(looped));
}

TEST(CompressedRoutes, CompressFromDenseEqualsCompileFromRouter) {
  // compress() exhaustively verifies the dense table while folding it;
  // its output must match the group-sampled compile() path everywhere.
  hypergraph::StackKautz sk(3, 2, 3);
  const routing::CompiledRoutes dense = routing::compile_stack_kautz_routes(sk);
  const routing::CompressedRoutes folded =
      routing::CompressedRoutes::compress(sk.stack(), dense);
  const routing::CompressedRoutes compiled =
      routing::compress_stack_kautz_routes(sk);
  ASSERT_EQ(folded.memory_bytes(), compiled.memory_bytes());
  for (hypergraph::Node v = 0; v < folded.node_count(); ++v) {
    for (hypergraph::Node d = 0; d < folded.node_count(); ++d) {
      if (v == d) {
        continue;
      }
      ASSERT_EQ(folded.next_coupler(v, d), compiled.next_coupler(v, d));
      ASSERT_EQ(folded.next_slot(v, d), compiled.next_slot(v, d));
    }
  }
}

TEST(CompressedRoutes, RejectsNonGroupFactoredRouters) {
  hypergraph::StackKautz sk(2, 2, 2);
  const routing::StackKautzRouter router(sk);

  // Copy 1 always transmits on its loop coupler: feedable, but a
  // different group decision than copy 0's -- not factored.
  const auto skewed_next = [&](hypergraph::Node c, hypergraph::Node d) {
    if (sk.index_in_group(c) == 1 && sk.group_of(c) != sk.group_of(d)) {
      return sk.loop_coupler(sk.group_of(c));
    }
    return router.next_coupler(c, d);
  };
  const auto relay = [&](hypergraph::HyperarcId h, hypergraph::Node d) {
    return router.relay_on(h, d);
  };
  EXPECT_THROW(
      routing::CompressedRoutes::compile(sk.stack(), skewed_next, relay),
      core::Error);

  // A relay that picks a valid target of the coupler but not the copy
  // with the destination's index breaks the index-preserving convention.
  const auto next = [&](hypergraph::Node c, hypergraph::Node d) {
    return router.next_coupler(c, d);
  };
  const auto skewed_relay = [&](hypergraph::HyperarcId h, hypergraph::Node d) {
    const hypergraph::Node honest = router.relay_on(h, d);
    const graph::Vertex group = sk.group_of(honest);
    return sk.processor(group,
                        (sk.index_in_group(honest) + 1) %
                            sk.stacking_factor());
  };
  EXPECT_THROW(
      routing::CompressedRoutes::compile(sk.stack(), next, skewed_relay),
      core::Error);

  // The same non-factored decisions baked densely are caught by the
  // exhaustive compress() verifier too.
  hypergraph::StackKautz sk3(3, 2, 2);
  const routing::StackKautzRouter router3(sk3);
  const auto skewed_mid = [&](hypergraph::Node c, hypergraph::Node d) {
    // Only the middle copy deviates: the compile() spot check (copies 0
    // and s-1) cannot see it, the exhaustive fold must.
    if (sk3.index_in_group(c) == 1 && sk3.group_of(c) != sk3.group_of(d)) {
      return sk3.loop_coupler(sk3.group_of(c));
    }
    return router3.next_coupler(c, d);
  };
  const routing::CompiledRoutes dense = routing::CompiledRoutes::compile(
      sk3.stack(), skewed_mid,
      [&](hypergraph::HyperarcId h, hypergraph::Node d) {
        return router3.relay_on(h, d);
      });
  EXPECT_THROW(routing::CompressedRoutes::compress(sk3.stack(), dense),
               core::Error);
}

// ------------------------------------------------------ engine parity

void expect_identical(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.coupler_transmissions, b.coupler_transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.percentile(0.95), b.latency.percentile(0.95));
}

/// Hooks answered from a compiled table; `routes` must outlive them.
template <class Routes>
sim::RoutingHooks table_hooks(const Routes& routes) {
  sim::RoutingHooks hooks;
  hooks.next_coupler = [&routes](hypergraph::Node v, hypergraph::Node d) {
    return routes.next_coupler(v, d);
  };
  hooks.relay_on = [&routes](hypergraph::HyperarcId h, hypergraph::Node d) {
    return routes.relay(h, d);
  };
  return hooks;
}

struct ParityCase {
  const hypergraph::StackGraph& stack;
  routing::CompiledRoutes dense;
  routing::CompressedRoutes compressed;
  std::int64_t nodes;
  std::uint64_t seed;
};

void expect_engine_parity(const ParityCase& c) {
  // A null engine runs the event-queue reference, its callbacks served
  // from the chosen table.
  auto run = [&](bool compressed, std::optional<sim::Engine> engine,
                 int threads, std::vector<std::int64_t>& successes) {
    sim::SimConfig config;
    config.warmup_slots = 20;
    config.measure_slots = 200;
    config.seed = c.seed;
    config.threads = threads;
    config.arbitration = sim::Arbitration::kRandomWinner;
    auto traffic = std::make_unique<sim::UniformTraffic>(c.nodes, 0.4);
    if (!engine) {
      sim::ReferenceRun reference =
          compressed ? sim::run_reference(c.stack, table_hooks(c.compressed),
                                          *traffic, config)
                     : sim::run_reference(c.stack, table_hooks(c.dense),
                                          *traffic, config);
      successes = std::move(reference.coupler_successes);
      return reference.metrics;
    }
    config.engine = *engine;
    sim::RunMetrics metrics;
    if (compressed) {
      sim::OpsNetworkSim sim(c.stack, c.compressed, std::move(traffic),
                             config);
      metrics = sim.run();
      successes = sim.coupler_successes();
    } else {
      sim::OpsNetworkSim sim(c.stack, c.dense, std::move(traffic), config);
      metrics = sim.run();
      successes = sim.coupler_successes();
    }
    return metrics;
  };

  // Serial phased and the event-queue reference (its callbacks served
  // from one table or the other).
  for (std::optional<sim::Engine> engine :
       {std::optional(sim::Engine::kPhased), std::optional<sim::Engine>()}) {
    SCOPED_TRACE(engine ? sim::engine_name(*engine) : "event-queue");
    std::vector<std::int64_t> dense_successes;
    std::vector<std::int64_t> compressed_successes;
    const sim::RunMetrics dense =
        run(false, engine, 1, dense_successes);
    const sim::RunMetrics compressed =
        run(true, engine, 1, compressed_successes);
    expect_identical(dense, compressed);
    EXPECT_EQ(dense_successes, compressed_successes);
  }
  // Sharded across thread counts.
  for (int threads : {1, 3}) {
    SCOPED_TRACE("sharded/" + std::to_string(threads));
    std::vector<std::int64_t> dense_successes;
    std::vector<std::int64_t> compressed_successes;
    const sim::RunMetrics dense =
        run(false, sim::Engine::kSharded, threads, dense_successes);
    const sim::RunMetrics compressed =
        run(true, sim::Engine::kSharded, threads, compressed_successes);
    expect_identical(dense, compressed);
    EXPECT_EQ(dense_successes, compressed_successes);
  }
}

TEST(CompressedEngineParity, StackKautz) {
  hypergraph::StackKautz sk(4, 3, 2);
  expect_engine_parity(
      ParityCase{sk.stack(), routing::compile_stack_kautz_routes(sk),
                 routing::compress_stack_kautz_routes(sk),
                 sk.processor_count(), 42});
}

TEST(CompressedEngineParity, Pops) {
  hypergraph::Pops pops(6, 12);
  expect_engine_parity(
      ParityCase{pops.stack(), routing::compile_pops_routes(pops),
                 routing::compress_pops_routes(pops), pops.processor_count(),
                 7});
}

TEST(CompressedEngineParity, StackImaseItoh) {
  hypergraph::StackImaseItoh sii(4, 2, 12);
  expect_engine_parity(
      ParityCase{sii.stack(), routing::compile_stack_imase_itoh_routes(sii),
                 routing::compress_stack_imase_itoh_routes(sii),
                 sii.processor_count(), 11});
}

// ---------------------------------------------------- memory model

TEST(CompressedRoutes, AutoRouteTableFlipsAtTheThreshold) {
  EXPECT_EQ(sim::resolve_route_table(sim::RouteTable::kAuto,
                                     sim::kAutoRouteTableNodes - 1),
            sim::RouteTable::kDense);
  EXPECT_EQ(sim::resolve_route_table(sim::RouteTable::kAuto,
                                     sim::kAutoRouteTableNodes),
            sim::RouteTable::kCompressed);
  EXPECT_EQ(sim::resolve_route_table(sim::RouteTable::kDense, 1 << 20),
            sim::RouteTable::kDense);
  EXPECT_EQ(sim::resolve_route_table(sim::RouteTable::kCompressed, 2),
            sim::RouteTable::kCompressed);
}

TEST(CompressedRoutes, LargeStackKautzCompressesBelowFiftiethOfDense) {
  // SK(10, 10, 3): N = 11000 processors, G = 1100 groups. The dense
  // table would be ~1.5 GB and is never built; the compressed one is a
  // few MB, compiled from the router at group granularity.
  hypergraph::StackKautz sk(10, 10, 3);
  ASSERT_EQ(sk.processor_count(), 11000);
  const routing::CompressedRoutes compressed =
      routing::compress_stack_kautz_routes(sk);
  EXPECT_EQ(compressed.node_count(), 11000);
  const std::size_t dense_bytes = routing::CompiledRoutes::dense_bytes(
      sk.processor_count(), sk.coupler_count());
  EXPECT_LE(compressed.memory_bytes() * 50, dense_bytes)
      << "compressed=" << compressed.memory_bytes()
      << " dense=" << dense_bytes;
}

}  // namespace
}  // namespace otis
