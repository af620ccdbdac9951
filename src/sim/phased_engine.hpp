#pragma once
/// \file phased_engine.hpp
/// The three-phase slot engine behind Engine::kPhased and kSharded.
///
/// One simulated slot is three phases over flat state:
///   1. generate  -- one batched traffic call draws the slot's senders
///                   (traffic.hpp demand_batch_senders) and each packet
///                   joins the VOQ chosen by the route view;
///   2. arbitrate -- couplers with any non-empty feed (found by a
///                   count-trailing-zeros scan over the occupancy
///                   summary bitmap) pick winners straight off their
///                   request-mask words (sim/arbitration.hpp) and pop
///                   them; final deliveries complete inline;
///   3. receive   -- relayed winners re-queue at their next hop.
///
/// VOQs are 32-byte packed records in per-shard pools (voq_arena.hpp);
/// per-coupler occupancy bitmasks (occupancy.hpp), maintained on push
/// and pop, let arbitration skip empty couplers outright. The engine
/// is templated over the RouteView (route_view.hpp): dense and
/// group-factored tables compile into the same loop with no virtual
/// dispatch and give bit-identical results.
///
/// Every run is one slot loop over feed-local shards (occupancy.hpp
/// plan_shards, shared with async-sharded): a shard owns every
/// processor feeding its couplers, so it generates, arbitrates off its
/// own masks and enqueues received relays without touching another
/// shard's queues. Relays go to the relay owner through per-consumer
/// outboxes read in coupler order, so a slot needs two barriers (before
/// and after the receive step), and the outcome is a pure function of
/// the seed for every shard count. A serial run is one shard on the
/// calling thread, with no barriers, drawing from the single legacy
/// run stream (detail::RunStreams) -- bit-identical to the event-queue
/// fixture; sharded runs draw from per-node and per-coupler streams.
///
/// The source is chosen once per run. Open loop: traffic until the
/// horizon, then optional drain. Workload (SimConfig::workload): each
/// slot first injects the packets the workload reports eligible, then
/// background traffic until it completes; deliveries feed back at the
/// end of the slot, and the run ends when the workload is delivered and
/// the network drained. Workload runs draw from the per-unit streams on
/// every engine, so they are bit-identical across engines and shard
/// counts.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/route_view.hpp"
#include "sim/metrics.hpp"
#include "sim/occupancy.hpp"
#include "sim/ops_network.hpp"
#include "sim/traffic.hpp"
#include "sim/voq_arena.hpp"

namespace otis::sim {

/// Internal engine used by OpsNetworkSim for Engine::kPhased and
/// Engine::kSharded. Single-run object: construct, run() once.
template <routing::RouteView Routes>
class PhasedEngineT {
 public:
  /// All references must outlive the engine. `config` must be validated
  /// by the caller (OpsNetworkSim does).
  PhasedEngineT(const hypergraph::StackGraph& network, const Routes& routes,
                TrafficGenerator& traffic, const SimConfig& config);

  /// Runs the configured window; returns measurement-window metrics and
  /// fills per-coupler success counts (sized to the coupler count).
  RunMetrics run(std::vector<std::int64_t>& coupler_success);

 private:
  const hypergraph::StackGraph& network_;
  const Routes& routes_;
  TrafficGenerator& traffic_;
  const SimConfig& config_;

  std::int64_t nodes_ = 0;
  std::int64_t couplers_ = 0;
  /// Flat VOQ index space: node v's queues are voq_base_[v] + slot.
  std::vector<std::int64_t> voq_base_;
  /// Feed -> VOQ map and request-mask geometry (immutable per network).
  detail::FeedIndex feed_;
  std::vector<std::int64_t> token_;
};

/// The dense-table instantiation, the default engine.
using PhasedEngine = PhasedEngineT<routing::CompiledRoutes>;

extern template class PhasedEngineT<routing::CompiledRoutes>;
extern template class PhasedEngineT<routing::CompressedRoutes>;

}  // namespace otis::sim
