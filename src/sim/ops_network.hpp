#pragma once
/// \file ops_network.hpp
/// Slot-synchronous simulator of multi-OPS networks.
///
/// Model (matching the paper's hardware assumptions):
///  - time is slotted; in one slot a coupler carries at most one packet
///    (single-wavelength OPS, Sec. 2.2);
///  - a processor owns one statically-tuned transmitter per out-coupler
///    and one receiver per in-coupler, so it can send and receive on all
///    its couplers in the same slot (multi-hop network with fixed tuning,
///    Sec. 1);
///  - a transmission on a coupler is heard by all its targets; the
///    routing relay (or the destination) consumes it, everyone else
///    discards it;
///  - contention for a coupler is resolved by a pluggable arbitration
///    policy -- the "distributed control" knob of the companion paper
///    [11]: token round-robin, random winner, or oblivious (collision
///    destroys all packets in that coupler-slot; senders retry).
///
/// Four execution engines share this model: kPhased, kSharded, kAsync
/// and kAsyncSharded, one run loop (engine.hpp) over feed-local shards
/// (a shard owns every processor feeding its couplers) with packed VOQ
/// records, per-coupler occupancy bitmasks and compiled route tables,
/// templated on its scheduler:
///  - the slot scheduler (kPhased, kSharded) counts final deliveries
///    inline and re-queues relays within the slot, handing them to
///    their owner shard through per-consumer outboxes (two barriers per
///    slot). kPhased is one shard on the single run stream,
///    bit-identical to the seed's event-queue loop (run_reference,
///    reference.hpp) for every seed and several times faster; kSharded
///    draws from per-node / per-coupler streams, so its result is
///    bit-identical for EVERY thread count (though, by design, a
///    different -- equally valid -- universe than the serial engines);
///  - the calendar scheduler (kAsync, kAsyncSharded) runs the same cycle
///    as timed events on per-shard calendar queues, honouring
///    SimConfig::timing -- transmitter tuning latencies, per-coupler
///    propagation skew, slot guard bands in sub-slot ticks. kAsync is
///    one shard on the run stream, == kPhased when the timing model is
///    slot-aligned (every delay zero); kAsyncSharded is conservative
///    parallel discrete-event simulation with lookahead windows and
///    per-pair mailboxes, thread-count invariant and == kSharded when
///    slot-aligned.
///
/// The simulator works for *any* stack-graph network: POPS, stack-Kautz
/// and stack-Imase-Itoh differ only in the StackGraph and the routing
/// handed in.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/blob.hpp"
#include "core/rng.hpp"
#include "hypergraph/stack_graph.hpp"
#include "obs/runtime_stats.hpp"
#include "obs/telemetry.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "routing/route_view.hpp"
#include "sim/metrics.hpp"
#include "sim/timing_model.hpp"
#include "sim/traffic.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace otis::sim {

namespace detail {
/// The RNG universe of one run, and its sole owner: either the single
/// legacy run stream, or per-node generation streams plus per-coupler
/// arbitration streams.
///
/// The run stream interleaves draws across the whole network, so only
/// a one-shard run can consume it: kPhased and kAsync open-loop runs
/// (and the event-queue reference, which they match bit for bit) are one
/// shard of the run loop (engine.hpp) drawing from it -- a slot's
/// senders, then arbitration in coupler order -- under either
/// scheduler. Every other run draws from the per-unit streams, so the
/// partition can never influence a draw: sharded results hold for
/// every shard count, and workload runs agree across engines. The tags
/// keep the three families disjoint.
class RunStreams {
 public:
  static constexpr std::uint64_t kRunStream = 0x0715;
  static constexpr std::uint64_t kNodeStreamBase = 0x4F50534E4F444500ULL;
  static constexpr std::uint64_t kCouplerStreamBase = 0x4F5053435E504C00ULL;

  /// The run stream when `single` (which requires `shards` == 1),
  /// otherwise one stream per node and per coupler.
  RunStreams(std::uint64_t seed, bool single, std::int64_t nodes,
             std::int64_t couplers, int shards);

  [[nodiscard]] bool single() const noexcept { return node_.empty(); }

  /// Draws one slot's senders among nodes [begin, end) into `out`.
  std::size_t draw_senders(TrafficGenerator& traffic, std::int64_t begin,
                           std::int64_t end, SenderDemand* out) {
    return traffic.draw_senders(begin, end,
                                single() ? arb_.data() : node_.data(),
                                !single(), out);
  }

  /// Coupler h's arbitration stream (the run stream when single).
  [[nodiscard]] core::Rng& arbitration(std::size_t h) noexcept {
    return arb_[h & mask_];
  }

  /// Checkpoint round-trip: the run stream, or every node stream then
  /// every coupler stream.
  void put(core::BlobWriter& out) const;
  void get(core::BlobReader& in);

 private:
  std::vector<core::Rng> node_;  ///< per node; empty for the run stream
  std::vector<core::Rng> arb_;   ///< per coupler, or just the run stream
  std::size_t mask_ = 0;         ///< coupler -> arb_ index mask
};

/// Slot bound on closed-loop runs, shared by every engine (the engines
/// must cut a stuck run off at the SAME slot or their reported
/// slots/backlog would diverge): a workload that has not completed and
/// drained by then (dependency livelock under aloha, or a trace whose
/// generation slots run away) ends the run with a backlog instead of
/// spinning forever.
inline SimTime workload_slot_bound(const workload::Workload& load) {
  return 1'000'000 + 64 * load.packet_count();
}
}  // namespace detail

/// Coupler-contention resolution policies.
enum class Arbitration {
  kTokenRoundRobin,  ///< rotating priority per coupler: fair, collision-free
  kRandomWinner,     ///< uniformly random contender wins, others wait
  kSlottedAloha,     ///< each contender transmits w.p. 1/2; >1 collides
};

[[nodiscard]] const char* arbitration_name(Arbitration policy);

/// Execution engines (see file comment).
enum class Engine {
  kPhased,        ///< slot scheduler, one shard; == run_reference bit-for-bit
  kSharded,       ///< slot scheduler over N workers; thread-count invariant
  kAsync,         ///< calendar scheduler, one shard; == kPhased when aligned
  kAsyncSharded,  ///< conservative-PDES async over N workers; thread-count
                  ///< invariant, == serial kAsync bit-for-bit in workload mode
};

[[nodiscard]] const char* engine_name(Engine engine);

/// Which routing-table representation the phased engines run on. Both
/// answer every route query identically (CompressedRoutes verifies that
/// at compile time), so the choice never changes results -- only memory:
/// dense is O(N^2 + H*N), compressed is O(G^2 + H).
enum class RouteTable {
  kDense,       ///< dense CompiledRoutes tables
  kCompressed,  ///< group-factored CompressedRoutes tables
  kAuto,        ///< compressed at/above kAutoRouteTableNodes, else dense
};

[[nodiscard]] const char* route_table_name(RouteTable table);

/// Node count at which RouteTable::kAuto flips from dense to compressed
/// tables. Below it the dense table is at most ~32 MiB and its
/// branch-free relay lookup is marginally cheaper; above it the O(N^2)
/// footprint starts to dominate the simulation's memory.
inline constexpr std::int64_t kAutoRouteTableNodes = 2048;

/// kAuto resolved against a concrete node count (kDense/kCompressed pass
/// through).
[[nodiscard]] constexpr RouteTable resolve_route_table(
    RouteTable table, std::int64_t nodes) noexcept {
  if (table == RouteTable::kAuto) {
    return nodes >= kAutoRouteTableNodes ? RouteTable::kCompressed
                                         : RouteTable::kDense;
  }
  return table;
}

/// How packet latencies are counted (see LatencyStats). Both modes
/// report identical count/sum/mean/min/max; percentiles from the sketch
/// carry a bounded relative error (<= LatencyStats::
/// kSketchRelativeError) instead of being exact.
enum class LatencyMode {
  kFull,    ///< exact histogram; memory O(min(max latency, 2^16) + outliers)
  kSketch,  ///< log-spaced bucket sketch; O(1) memory per cell
  kAuto,    ///< sketch at/above kAutoLatencySketchNodes nodes, else full
};

[[nodiscard]] const char* latency_mode_name(LatencyMode mode);

/// Node count at which LatencyMode::kAuto flips from the exact histogram
/// to the sketch. Cells from this size up keep the sketch's percentiles,
/// so their outputs stay byte-identical to the runs that recorded them.
inline constexpr std::int64_t kAutoLatencySketchNodes = 32768;

/// True when `mode` resolved against a concrete node count selects the
/// sketch representation (mirrors resolve_route_table).
[[nodiscard]] constexpr bool resolve_latency_sketch(
    LatencyMode mode, std::int64_t nodes) noexcept {
  if (mode == LatencyMode::kAuto) {
    return nodes >= kAutoLatencySketchNodes;
  }
  return mode == LatencyMode::kSketch;
}

/// Wall-time attribution of the slot loop's three phases, filled by
/// one-shard phased runs when SimConfig::phase_breakdown points at one
/// (micro_benchmarks --phase-breakdown). Multi-shard runs ignore it:
/// their phases overlap across threads.
struct PhaseBreakdown {
  std::int64_t slots = 0;  ///< slot iterations attributed below
  double generate_seconds = 0.0;
  double arbitrate_seconds = 0.0;
  double receive_seconds = 0.0;
};

/// Routing callbacks: which coupler a node uses for a destination, and
/// which member of the coupler's target set relays the packet onward.
/// OpsNetworkSim bakes these into a route table once at construction;
/// only the reference (reference.hpp) calls them per packet.
struct RoutingHooks {
  /// next_coupler(current, destination) -> coupler id.
  std::function<hypergraph::HyperarcId(hypergraph::Node, hypergraph::Node)>
      next_coupler;
  /// relay_on(coupler, destination) -> the node that picks the packet up
  /// off that coupler (must be one of the coupler's targets).
  std::function<hypergraph::Node(hypergraph::HyperarcId, hypergraph::Node)>
      relay_on;
};

/// Simulator configuration.
struct SimConfig {
  Arbitration arbitration = Arbitration::kTokenRoundRobin;
  /// warmup_slots + measure_slots <= kMaxRunSlots (timing_model.hpp).
  std::int64_t warmup_slots = 200;     ///< excluded from metrics; >= 0
  std::int64_t measure_slots = 2000;   ///< measured window; > 0
  std::int64_t queue_capacity = 0;     ///< 0 = unbounded VOQs; >= 0
  std::uint64_t seed = 1;
  bool drain = false;  ///< keep running (no new traffic) until empty
  /// Wavelengths per coupler (WDM extension; the paper's couplers are
  /// single-wavelength, its "further research" direction): up to this
  /// many senders succeed per coupler-slot. Must be >= 1.
  std::int64_t wavelengths = 1;
  /// Execution engine. kPhased is the default: same results as the
  /// seed's event-queue loop (reference.hpp), several times faster.
  Engine engine = Engine::kPhased;
  /// Worker threads, one shard each, for kSharded and kAsyncSharded
  /// (<= 0 means hardware concurrency). The serial engines ignore it
  /// and run one shard. Results never depend on this value.
  int threads = 1;
  /// Latency representation (LatencyStats' exact histogram vs the
  /// log-bucket sketch). kAuto flips to the sketch at
  /// kAutoLatencySketchNodes. Never changes which packets are
  /// simulated -- only how their latencies are aggregated.
  LatencyMode latency_mode = LatencyMode::kAuto;
  /// Intra-run checkpointing (sim/checkpoint.hpp): when
  /// checkpoint_every_slots > 0 the engine serializes its full state to
  /// checkpoint_path every that-many slots (atomic tmp+rename), and with
  /// checkpoint_resume set it restores from an existing compatible blob
  /// before running -- the resumed run is bit-identical to an
  /// uninterrupted one. Open-loop runs only (no workload, no trace
  /// sink).
  std::int64_t checkpoint_every_slots = 0;
  std::string checkpoint_path;
  bool checkpoint_resume = false;
  /// Test/drill hook: when >= 0, the run stops right after writing the
  /// first checkpoint at a boundary slot >= this value (simulating an
  /// interruption); the returned metrics are the partial window and the
  /// blob on disk is the handoff to a checkpoint_resume run.
  std::int64_t checkpoint_stop_at = -1;
  /// Sub-slot timing (tuning latencies, propagation skew, guard bands;
  /// timing_model.hpp). Non-slot-aligned configs require Engine::kAsync
  /// or Engine::kAsyncSharded -- the slotted engines cannot honour them
  /// and refuse rather than silently ignoring the skew.
  TimingConfig timing;
  /// Closed-loop workload (workload/workload.hpp). When set the run is
  /// driven to completion instead of a fixed measure window:
  /// warmup_slots/measure_slots are ignored, every slot is measured,
  /// the engine injects the workload's packets as their dependencies
  /// deliver, and RunMetrics::makespan_slots reports the completion
  /// time. The traffic generator keeps running as *background* load
  /// alongside the workload until it completes (hand in load 0 for an
  /// uncontended run). Workload runs draw generation randomness from
  /// per-node streams and arbitration randomness from per-coupler
  /// streams on every engine (detail::RunStreams), so the result is
  /// bit-identical across phased/sharded/async engines, route tables
  /// and thread counts.
  /// Requires unbounded VOQs (queue_capacity 0: a dropped dependency
  /// would stall its dependents forever).
  std::shared_ptr<workload::Workload> workload;
  /// Optional generation capture: every open-loop packet the engines
  /// generate is recorded as a (slot, source, destination) trace entry
  /// for bit-identical replay (workload/trace.hpp).
  std::shared_ptr<workload::TraceRecorder> recorder;
  /// Optional per-phase timing sink (must outlive the run). Honoured by
  /// one-shard phased runs only; see PhaseBreakdown.
  PhaseBreakdown* phase_breakdown = nullptr;
  /// Optional telemetry session (obs/telemetry.hpp): timeseries probe
  /// sampling every sample_period slots plus warmup/measure/drain spans
  /// in the Chrome trace. Null (the default) costs the engines one
  /// pointer test per slot; sampling reads engine state only (no RNG,
  /// no reordering), so attaching it never changes RunMetrics, and the
  /// sharded engine's per-shard probe records merge order-independently
  /// at the slot barrier, keeping probe values and timeseries bytes
  /// identical across thread counts.
  std::shared_ptr<obs::Telemetry> telemetry;
  /// Optional runtime-introspection session (obs/runtime_stats.hpp):
  /// the NONdeterministic channel -- per-shard barrier-wait/advance
  /// time, conservative-window widths, mailbox pressure and calendar
  /// depth, all wall-clock derived. Collected by kSharded and
  /// kAsyncSharded runs at any thread count; kPhased and kAsync runs
  /// record none. Null or inactive costs one pointer+flag
  /// test per run (checked once before the worker loop, never per
  /// slot), and collection never touches simulation state: RunMetrics,
  /// probe values and timeseries bytes are unchanged whether or not a
  /// session is attached -- the strict separation that keeps the
  /// deterministic channel's thread-count-invariance intact.
  std::shared_ptr<obs::RuntimeStats> runtime_stats;
};

/// Throws core::Error unless `config` can run on a network of `nodes`
/// processors. Shared by OpsNetworkSim and run_reference (reference.hpp).
void validate_config(const SimConfig& config, std::int64_t nodes);

/// The slot-synchronous multi-OPS network simulator.
class OpsNetworkSim {
 public:
  /// `network` must outlive the simulator. Traffic generator is owned.
  /// The hooks are baked into a routing table at construction:
  /// group-factored CompressedRoutes at kAutoRouteTableNodes nodes and
  /// above when the router is group-factored, dense CompiledRoutes
  /// otherwise (RouteTable::kAuto).
  OpsNetworkSim(const hypergraph::StackGraph& network,
                const RoutingHooks& routing,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config);

  /// Same, with a pre-compiled dense table or group-factored one (the
  /// O(G^2 + H) representation): share one table across many trials of
  /// a sweep instead of re-baking per simulator.
  OpsNetworkSim(const hypergraph::StackGraph& network,
                std::shared_ptr<const routing::CompiledRoutes> routes,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config);
  OpsNetworkSim(const hypergraph::StackGraph& network,
                std::shared_ptr<const routing::CompressedRoutes> routes,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config);

  /// Convenience: either table by value.
  template <routing::RouteView Routes>
  OpsNetworkSim(const hypergraph::StackGraph& network, Routes routes,
                std::unique_ptr<TrafficGenerator> traffic, SimConfig config)
      : OpsNetworkSim(network,
                      std::make_shared<const Routes>(std::move(routes)),
                      std::move(traffic), std::move(config)) {}

  /// Overrides the timing model compiled from SimConfig::timing for
  /// Engine::kAsync runs -- the hook for trace-derived models
  /// (TimingModel::from_trace), which need an optical design the config
  /// cannot name declaratively. Must match the network's coupler count.
  void set_timing_model(std::shared_ptr<const TimingModel> timing);

  /// Runs warmup + measurement (+ optional drain); returns the metrics of
  /// the measurement window.
  RunMetrics run();

  /// Per-coupler successful-transmission counts of the measured window
  /// (valid after run()).
  [[nodiscard]] const std::vector<std::int64_t>& coupler_successes() const {
    return coupler_success_;
  }

 private:
  const hypergraph::StackGraph& network_;
  /// Exactly one of these is set.
  std::shared_ptr<const routing::CompiledRoutes> routes_;
  std::shared_ptr<const routing::CompressedRoutes> compressed_routes_;
  std::shared_ptr<const TimingModel> timing_model_;  ///< kAsync override
  std::unique_ptr<TrafficGenerator> traffic_;
  SimConfig config_;
  std::vector<std::int64_t> coupler_success_;
};

}  // namespace otis::sim
