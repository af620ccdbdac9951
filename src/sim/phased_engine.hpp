#pragma once
/// \file phased_engine.hpp
/// Direct three-phase slot engines behind OpsNetworkSim.
///
/// One simulated slot is three phases over flat state:
///   1. generate  -- one batched traffic call fills the per-node demand
///                   scratch (traffic.hpp demand_batch: same draw
///                   sequence as per-node calls, one virtual dispatch
///                   per slot) and every firing node pushes onto the
///                   VOQ chosen by the route view;
///   2. arbitrate -- couplers with any non-empty feed (found by a
///                   count-trailing-zeros scan over the occupancy
///                   summary bitmap) pick winners straight off their
///                   request-mask words (sim/arbitration.hpp) and pop
///                   them from the SoA VOQ arena;
///   3. receive   -- every winner is consumed by its relay: counted as
///                   delivered at the destination or re-enqueued onward.
///
/// VOQs live in a structure-of-arrays arena (voq_arena.hpp): one
/// contiguous array per packet field plus flat head/size cursors, so
/// the loops touch dense cache lines instead of chasing per-queue ring
/// buffers. Per-coupler occupancy bitmasks (occupancy.hpp), maintained
/// on VOQ push/pop, let arbitration skip empty couplers outright.
///
/// The engine is templated over the RouteView (route_view.hpp): the
/// dense CompiledRoutes and the group-factored CompressedRoutes compile
/// into the same loop with no virtual dispatch, so a hop stays two
/// array loads (+ the group/copy arithmetic for compressed tables).
/// Because both views answer every query identically, the two
/// instantiations are bit-identical for every seed and thread count.
///
/// Serial mode iterates nodes then couplers in id order drawing from the
/// single legacy RNG stream, which makes it bit-identical to the
/// event-queue engine for every seed. Sharded mode runs on feed-local
/// shards (occupancy.hpp plan_shards, shared with async-sharded): a
/// shard owns every processor feeding its couplers, so it generates,
/// arbitrates off its own occupancy masks and enqueues received relays
/// without touching another shard's queues. Each coupler's owner
/// resolves its winners' relays while it arbitrates and hands them to
/// the relay owner through one per-consumer outbox, so a slot needs two
/// barriers: an exchange barrier before the receive step and the slot
/// barrier after it. All randomness comes from per-node (generation)
/// and per-coupler (arbitration) streams and inboxes are read in
/// coupler order, so the outcome is a pure function of the seed --
/// identical for every thread count and every partition. Each shard
/// owns its own arena pool so pushes never race on a growing
/// allocation.
///
/// Workload (closed-loop) mode -- SimConfig::workload set -- replaces
/// the fixed measure window with run-to-completion: phase 1 injects the
/// packets the workload reports eligible (plus open-loop background
/// traffic until the workload completes), phase 3 feeds deliveries back
/// to the workload, and the loop ends when every workload packet has
/// been delivered and the network drained. BOTH serial and sharded
/// workload runs use the per-node/per-coupler streams, so workload
/// results are bit-identical across engines as well as thread counts.

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
  RunMetrics run_serial(std::vector<std::int64_t>& coupler_success);
  RunMetrics run_sharded(std::vector<std::int64_t>& coupler_success);
  RunMetrics run_workload_serial(std::vector<std::int64_t>& coupler_success);
  RunMetrics run_workload_sharded(std::vector<std::int64_t>& coupler_success);

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
