#include "routing/compiled_routes.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"
#include "core/work_pool.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/generic_stack_routing.hpp"
#include "routing/stack_routing.hpp"

namespace otis::routing {

CompiledRoutes CompiledRoutes::compile(const hypergraph::StackGraph& network,
                                       const NextCouplerFn& next_coupler,
                                       const RelayFn& relay_on,
                                       core::WorkStealingPool* pool) {
  OTIS_REQUIRE(next_coupler && relay_on,
               "CompiledRoutes: routing callbacks must be set");
  const auto& hg = network.hypergraph();
  CompiledRoutes routes;
  routes.nodes_ = hg.node_count();
  routes.couplers_ = hg.hyperarc_count();
  OTIS_REQUIRE(routes.nodes_ <= std::numeric_limits<std::int32_t>::max() &&
                   routes.couplers_ <= std::numeric_limits<std::int32_t>::max(),
               "CompiledRoutes: network too large for int32 tables");
  const std::size_t n = static_cast<std::size_t>(routes.nodes_);
  routes.next_coupler_.assign(n * n, -1);
  routes.next_slot_.assign(n * n, -1);
  routes.relay_.assign(static_cast<std::size_t>(routes.couplers_) * n, -1);

  const auto run = [&](std::size_t count, const auto& fn) {
    if (pool != nullptr && pool->thread_count() > 1 && count > 1) {
      pool->run(count, fn);
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        fn(i);
      }
    }
  };

  // Pass 1, parallel over source rows: row v owns the pre-sized entries
  // [v*N, (v+1)*N) of both node tables, so rows never share a write.
  run(n, [&](std::size_t row) {
    const auto v = static_cast<hypergraph::Node>(row);
    for (hypergraph::Node dest = 0; dest < routes.nodes_; ++dest) {
      if (v == dest) {
        continue;
      }
      const hypergraph::HyperarcId h = next_coupler(v, dest);
      const std::int64_t slot = network.out_slot_of(v, h);
      OTIS_REQUIRE(slot >= 0,
                   "CompiledRoutes: router chose a coupler the node "
                   "cannot feed");
      const std::size_t at = routes.index(v, dest);
      routes.next_coupler_[at] = static_cast<std::int32_t>(h);
      routes.next_slot_[at] = static_cast<std::int32_t>(slot);
    }
  });

  // Pass 2, parallel over destination columns: only (coupler, dest)
  // pairs a route can actually produce are baked; the rest stay -1 (a
  // relay query for a coupler the router never picks has no defined
  // answer). For a fixed dest the touched entries relay_[h*N + dest]
  // are disjoint from every other column's, so the columns are
  // independent -- unlike the per-source split, where two sources
  // picking the same coupler would race on one lazily-filled entry.
  run(n, [&](std::size_t column) {
    const auto dest = static_cast<hypergraph::Node>(column);
    for (hypergraph::Node v = 0; v < routes.nodes_; ++v) {
      if (v == dest) {
        continue;
      }
      const std::size_t h =
          static_cast<std::size_t>(routes.next_coupler_[routes.index(v, dest)]);
      std::int32_t& relay_entry = routes.relay_[h * n + column];
      if (relay_entry < 0) {
        const hypergraph::Node relay =
            relay_on(static_cast<hypergraph::HyperarcId>(h), dest);
        const auto& targets = hg.hyperarc(h).targets;
        OTIS_REQUIRE(std::find(targets.begin(), targets.end(), relay) !=
                         targets.end(),
                     "CompiledRoutes: relay is not a target of its coupler");
        relay_entry = static_cast<std::int32_t>(relay);
      }
    }
  });
  return routes;
}

CompiledRoutes compile_stack_kautz_routes(const hypergraph::StackKautz& network,
                                          core::WorkStealingPool* pool) {
  const StackKautzRouter router(network);
  return CompiledRoutes::compile(
      network.stack(),
      [&router](hypergraph::Node c, hypergraph::Node d) {
        return router.next_coupler(c, d);
      },
      [&router](hypergraph::HyperarcId h, hypergraph::Node d) {
        return router.relay_on(h, d);
      },
      pool);
}

CompiledRoutes compile_pops_routes(const hypergraph::Pops& network,
                                   core::WorkStealingPool* pool) {
  const PopsRouter router(network);
  return CompiledRoutes::compile(
      network.stack(),
      [&router](hypergraph::Node c, hypergraph::Node d) {
        return router.next_coupler(c, d);
      },
      [](hypergraph::HyperarcId, hypergraph::Node d) { return d; }, pool);
}

CompiledRoutes compile_generic_stack_routes(
    const hypergraph::StackGraph& network, core::WorkStealingPool* pool) {
  const GenericStackRouter router(network);
  return CompiledRoutes::compile(
      network,
      [&router](hypergraph::Node c, hypergraph::Node d) {
        return router.next_coupler(c, d);
      },
      [&router](hypergraph::HyperarcId h, hypergraph::Node d) {
        return router.relay_on(h, d);
      },
      pool);
}

CompiledRoutes compile_stack_imase_itoh_routes(
    const hypergraph::StackImaseItoh& network, core::WorkStealingPool* pool) {
  return compile_generic_stack_routes(network.stack(), pool);
}

}  // namespace otis::routing
