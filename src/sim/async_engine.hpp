#pragma once
/// \file async_engine.hpp
/// Asynchronous timed-event engine behind Engine::kAsync and
/// Engine::kAsyncSharded.
///
/// The phased engines treat a slot as indivisible; this engine runs the
/// same generate / tune / arbitrate / propagate / receive cycle as timed
/// events over sub-slot ticks (kTicksPerSlot per slot), honouring a
/// TimingModel:
///
///   generate   -- a node's packet enters its VOQ at the slot boundary;
///   tune       -- the packet becomes *eligible* once its transmitter
///                 has tuned: ready = arrival + tuning(coupler); the
///                 transmitter also re-tunes after each transmission
///                 (dead time), so a VOQ that sent in slot t is next
///                 eligible at (t+1)*slot + tuning -- under backlog the
///                 tuning latency throttles the per-transmitter service
///                 rate, though a coupler's other feeds can cover the
///                 gap (stacking hides tuning dead time);
///   arbitrate  -- couplers still arbitrate at slot boundaries (the OPS
///                 hardware is slotted), but only over head packets that
///                 were ready guard ticks before the boundary;
///   propagate  -- a winner of slot t reaches its receivers at
///                 (t+1) * kTicksPerSlot + propagation(coupler), a
///                 calendar-queue event (bucket width = one slot);
///   receive    -- the arrival event delivers the packet or re-enqueues
///                 it at the relay, where the tune step repeats.
///
/// One run loop serves kAsync and kAsyncSharded, open loop and workload
/// alike, over feed-local shards (detail::plan_shards); kAsync is one
/// shard. Each shard keeps occupancy masks (occupancy.hpp) over its own
/// couplers, so arbitration scans only couplers with queued packets.
/// When every tuning latency and the guard are zero the eligibility gate
/// provably always passes (ready and retune never exceed the
/// arbitrating boundary), so the engine skips the gate reads -- and the
/// per-transmission retune bookkeeping -- outright and arbitrates
/// straight off the masks; otherwise it screens the occupancy bits
/// through the gate into per-coupler eligibility words. VOQs live in
/// the timed structure-of-arrays arena (voq_arena.hpp).
///
/// Each slot lands its arrivals as one batch: it pops all of them in
/// (time, seq) order, counts final deliveries as it pops, then enqueues
/// the relays in the same order through the phased engines' prefetching
/// staged enqueue. A landing never schedules an event, so this changes
/// no pop and no queue's push order.
///
/// A kAsync open-loop run draws from the serial phased engine's single
/// run stream in the same order (a slot's senders, then arbitration in
/// coupler order). In the slot-aligned limit (every delay zero) each
/// step degenerates to its phased counterpart at the same boundary in
/// the same order, so the engine is bit-identical to PhasedEngineT for
/// every seed, topology, arbitration policy and route-table
/// representation (tests/test_async_engine.cpp). With nonzero skew the
/// run remains a pure function of the seed and the timing model.
///
/// Engine::kAsyncSharded runs the same timed cycle as a conservative
/// parallel discrete-event simulation: the shard cuts never split a
/// coupler's feed set (so a coupler, its feed VOQs and its retune gates
/// are all owned by one worker), each shard advances its own
/// CalendarQueue, and open-loop workers run freely inside windows of
/// `lookahead` slots -- a transmission in slot t lands no earlier than
/// (t+1) * kTicksPerSlot + min_propagation, so lookahead = 1 +
/// floor(min_propagation / kTicksPerSlot) slots of any shard's future
/// are unaffected by the others (the bounded-window barrier relaxation
/// DARSIM documents for registered hardware). Cross-shard arrivals
/// travel through per-pair mailboxes drained at the window's end; every
/// calendar push carries an explicit global sequence key ((slot *
/// couplers + coupler) * wavelengths + winner), so per-queue pop order
/// is the same at every shard count -- on one shard transmissions
/// happen in key order, so it is a single auto-sequenced calendar's
/// order. Sharded runs draw from the per-node/per-coupler stream
/// universe (== the sharded phased engine when slot-aligned).
///
/// Every other run's windows are one slot wide: delivery feedback gates
/// each workload slot (workload runs of both engines draw from the
/// per-unit streams, which the phased engines share), and a kAsync open
/// loop ends its drain and writes checkpoints per slot. A one-shard run
/// calls the feedback and window-end steps directly instead of meeting
/// at barriers.

#include <cstdint>
#include <vector>

#include "hypergraph/stack_graph.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/route_view.hpp"
#include "sim/metrics.hpp"
#include "sim/occupancy.hpp"
#include "sim/ops_network.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"
#include "sim/voq_arena.hpp"

namespace otis::sim {

/// Internal engine used by OpsNetworkSim for Engine::kAsync and
/// Engine::kAsyncSharded.
/// Single-run object: construct, run() once.
template <routing::RouteView Routes>
class AsyncEngineT {
 public:
  /// All references must outlive the engine. `config` must be validated
  /// by the caller (OpsNetworkSim does); `timing` must be sized for
  /// `network`.
  AsyncEngineT(const hypergraph::StackGraph& network, const Routes& routes,
               TrafficGenerator& traffic, const SimConfig& config,
               const TimingModel& timing);

  /// Runs the configured window; returns measurement-window metrics and
  /// fills per-coupler success counts (sized to the coupler count).
  /// When SimConfig::workload is set the run is closed-loop instead:
  /// run-to-completion with delivery feedback and makespan (see
  /// phased_engine.hpp) -- deliveries land per the timing model, so a
  /// skewed workload run shows how tuning/propagation stretch a
  /// collective's critical path. In the slot-aligned limit workload
  /// runs are bit-identical to the phased engines (which share the
  /// per-node/per-coupler workload RNG streams).
  RunMetrics run(std::vector<std::int64_t>& coupler_success);

 private:
  /// True when no tuning latency and no guard band exist: the
  /// eligibility gate cannot fail, so occupancy alone decides
  /// contention (see file comment).
  [[nodiscard]] bool gates_open() const;

  /// Conservative window width in slots of sharded open-loop runs
  /// (>= 1; see file comment).
  [[nodiscard]] SimTime lookahead_slots() const;

  const hypergraph::StackGraph& network_;
  const Routes& routes_;
  TrafficGenerator& traffic_;
  const SimConfig& config_;
  const TimingModel& timing_;

  std::int64_t nodes_ = 0;
  std::int64_t couplers_ = 0;
  /// Flat VOQ index space: node v's queues are voq_base_[v] + slot.
  std::vector<std::int64_t> voq_base_;
  /// Feed -> VOQ map and request-mask geometry (immutable per network).
  detail::FeedIndex feed_;
  /// Per-VOQ transmitter re-tune gate: earliest tick the queue's next
  /// head may transmit after the previous transmission.
  std::vector<SimTime> retune_;
  std::vector<std::int64_t> token_;
};

/// The dense-table instantiation.
using AsyncEngine = AsyncEngineT<routing::CompiledRoutes>;

extern template class AsyncEngineT<routing::CompiledRoutes>;
extern template class AsyncEngineT<routing::CompressedRoutes>;

}  // namespace otis::sim
