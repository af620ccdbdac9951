#pragma once
/// \file engine.hpp
/// The one run loop behind Engine::kPhased, kSharded, kAsync and
/// kAsyncSharded.
///
/// Every run is the same cycle over feed-local shards
/// (occupancy.hpp plan_shards): a shard owns every processor feeding
/// its couplers, so it generates, arbitrates off its own occupancy masks
/// and enqueues its relays without touching another shard's queues. Per
/// slot a shard
///
///   generate  -- draws its nodes' senders (detail::RunStreams) and
///                queues each packet at the VOQ the route view picks,
///                id -1 - source (a workload packet keeps its id);
///   arbitrate -- picks each occupied coupler's winners straight off its
///                request-mask words and pops them
///                (arbitration.hpp pick_then_pop);
///
/// and a scheduler, fixed at compile time, decides where a winner goes
/// and when the shards meet:
///
///  - SlotScheduler (kPhased, kSharded): the paper's slotted hardware.
///    VOQ records count slots. A final delivery is counted inline; a
///    relay goes to its owner shard's outbox and, after an exchange
///    barrier, re-queues at its next hop in the same slot, each shard
///    reading its inbox producer by producer (= coupler order, so every
///    VOQ sees the same push order for every shard count). Windows are
///    one slot: two barriers per slot, none on one shard.
///  - CalendarScheduler (kAsync, kAsyncSharded): the same cycle as timed
///    events over sub-slot ticks (kTicksPerSlot per slot) honouring a
///    TimingModel. A packet may contend once its transmitter has tuned
///    (ready = arrival + tuning(coupler)) and re-tuned after its queue's
///    previous transmission (dead time), both guard ticks before the
///    slot boundary; when no tuning and no guard exist the gate cannot
///    close and arbitration reads the masks directly. A winner of slot t
///    lands at (t+1) * kTicksPerSlot + propagation(coupler) on the
///    calendar (or, crossing shards, through a per-pair mailbox replayed
///    at the window's end) under the global key (slot, coupler, winner),
///    so pop order is the same at every shard count. Each slot first
///    lands what is due at its boundary as one batch: deliveries counted
///    as they pop, relays enqueued in pop order. Open-loop kAsyncSharded
///    windows are lookahead_slots() wide (a landing cannot reach another
///    shard sooner -- the bounded-window relaxation DARSIM documents for
///    registered hardware), every other run's one slot.
///
/// The source is chosen once per run. Open loop: traffic until the
/// horizon, then optional drain. Workload (SimConfig::workload): each
/// slot first injects the packets the workload reports eligible, then
/// background traffic until it completes; deliveries feed back at the
/// slot's end (slot scheduler) or after the next slot's landing
/// (calendar scheduler), and the run ends when the workload is delivered
/// and the network drained.
///
/// kPhased and kAsync open-loop runs are one shard on the single run
/// stream; every other run draws from the per-unit streams, so sharded
/// results hold for every shard count and workload runs agree across
/// engines. In the slot-aligned limit (every delay zero) each calendar
/// step happens at its slot counterpart's boundary in the same order:
/// kAsync equals kPhased and kAsyncSharded equals kSharded, metric for
/// metric (tests/test_async_engine.cpp, tests/test_async_parallel.cpp).
/// Their timeseries differ: the calendar samples before its relays
/// land, so they count in pending_events instead of queue occupancy.

#include <cstdint>
#include <vector>

#include "hypergraph/stack_graph.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/route_view.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"

namespace otis::sim {

/// Runs `config` (validated by the caller; OpsNetworkSim does) on
/// `network` and returns the measured metrics, filling per-coupler
/// success counts (sized to the coupler count). `timing` drives
/// kAsync and kAsyncSharded runs and must be sized for `network`; the
/// slot engines ignore it. All references must outlive the call.
template <routing::RouteView Routes>
RunMetrics run_engine(const hypergraph::StackGraph& network,
                      const Routes& routes, TrafficGenerator& traffic,
                      const SimConfig& config, const TimingModel* timing,
                      std::vector<std::int64_t>& coupler_success);

extern template RunMetrics run_engine<routing::CompiledRoutes>(
    const hypergraph::StackGraph&, const routing::CompiledRoutes&,
    TrafficGenerator&, const SimConfig&, const TimingModel*,
    std::vector<std::int64_t>&);
extern template RunMetrics run_engine<routing::CompressedRoutes>(
    const hypergraph::StackGraph&, const routing::CompressedRoutes&,
    TrafficGenerator&, const SimConfig&, const TimingModel*,
    std::vector<std::int64_t>&);

}  // namespace otis::sim
