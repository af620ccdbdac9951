#pragma once
/// \file spec.hpp
/// Declarative experiment-campaign specifications.
///
/// The paper's results are grids of simulation cells -- topology x
/// arbitration x load x wavelengths x seed. A CampaignSpec names every
/// axis of one grid declaratively (in code or as a JSON file, see
/// parse_campaign_spec); the grid/runner layers expand and execute it.
///
/// TopologySpec is the bridge between the declarative world and the
/// concrete network classes: CompiledTopology::build constructs the
/// hypergraph (StackKautz / Pops / StackImaseItoh) and bakes its routing
/// into one CompiledRoutes, which the runner shares via shared_ptr across
/// every cell of that topology -- the one-compile-per-topology contract
/// the ROADMAP's batch-experiment item asks for. Builds are counted by a
/// process-wide counter so tests can assert that contract.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collectives/schedule.hpp"
#include "core/work_pool.hpp"
#include "hypergraph/stack_graph.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/compressed_routes.hpp"
#include "sim/ops_network.hpp"

namespace otis::campaign {

/// One topology axis value: which network family plus its parameters.
struct TopologySpec {
  enum class Kind {
    kStackKautz,      ///< SK(s, d, k)
    kPops,            ///< POPS(t, g)
    kStackImaseItoh,  ///< SII(s, d, n)
  };

  Kind kind = Kind::kStackKautz;
  std::int64_t stacking = 1;  ///< s (SK/SII) or group size t (POPS)
  std::int64_t degree = 0;    ///< d (SK/SII); unused for POPS
  std::int64_t order = 0;     ///< diameter k (SK), group count g/n (POPS/SII)

  [[nodiscard]] static TopologySpec stack_kautz(std::int64_t s, std::int64_t d,
                                                std::int64_t k);
  [[nodiscard]] static TopologySpec pops(std::int64_t t, std::int64_t g);
  [[nodiscard]] static TopologySpec stack_imase_itoh(std::int64_t s,
                                                     std::int64_t d,
                                                     std::int64_t n);

  /// Canonical label, e.g. "SK(4,3,2)", "POPS(6,12)", "SII(4,2,12)".
  /// Doubles as the topology part of cell IDs, so it must stay stable.
  [[nodiscard]] std::string label() const;

  /// Processor count N by arithmetic alone -- SK: s*d^(k-1)*(d+1),
  /// POPS: t*g, SII: s*n -- so RouteTable::kAuto can resolve before the
  /// (possibly huge) network is ever built.
  [[nodiscard]] std::int64_t processor_count() const;

  [[nodiscard]] bool operator==(const TopologySpec& other) const noexcept {
    return kind == other.kind && stacking == other.stacking &&
           degree == other.degree && order == other.order;
  }
};

/// A topology built and routed once, shared read-only by many cells.
class CompiledTopology {
 public:
  /// Constructs the network and compiles the requested routing-table
  /// representations -- at most one compile per representation per call;
  /// bumps topology_compile_count() once per call. At large N request
  /// only the compressed table: the dense one is O(N^2) and is never
  /// materialized unless asked for. A non-null `pool` spreads the table
  /// fill across its workers (output bit-identical to serial); the
  /// campaign runner passes its own otherwise-idle pool here.
  [[nodiscard]] static std::shared_ptr<const CompiledTopology> build(
      const TopologySpec& spec, bool want_dense = true,
      bool want_compressed = false, core::WorkStealingPool* pool = nullptr);

  [[nodiscard]] const TopologySpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] const hypergraph::StackGraph& stack() const noexcept {
    return *stack_;
  }
  /// Dense tables; null unless requested at build().
  [[nodiscard]] const std::shared_ptr<const routing::CompiledRoutes>& routes()
      const noexcept {
    return routes_;
  }
  /// Group-factored tables; null unless requested at build().
  [[nodiscard]] const std::shared_ptr<const routing::CompressedRoutes>&
  compressed_routes() const noexcept {
    return compressed_routes_;
  }
  [[nodiscard]] std::int64_t processor_count() const noexcept {
    return processors_;
  }
  [[nodiscard]] std::int64_t coupler_count() const noexcept {
    return couplers_;
  }

  /// True when this topology ships analytic collective schedules
  /// (POPS and stack-Kautz; stack-Imase-Itoh has none yet).
  [[nodiscard]] bool has_collective_schedules() const noexcept {
    return static_cast<bool>(schedule_builder_);
  }
  /// The analytic slot schedule for a gossip (all-to-all) or, when
  /// `gossip` is false, a one-to-all broadcast from `root`. Throws
  /// core::Error when has_collective_schedules() is false.
  [[nodiscard]] collectives::SlotSchedule collective_schedule(
      bool gossip, hypergraph::Node root) const;

 private:
  CompiledTopology() = default;

  TopologySpec spec_;
  std::string label_;
  std::shared_ptr<const void> owner_;  ///< keeps the network object alive
  const hypergraph::StackGraph* stack_ = nullptr;
  std::shared_ptr<const routing::CompiledRoutes> routes_;
  std::shared_ptr<const routing::CompressedRoutes> compressed_routes_;
  /// Typed access to the network for schedule generation without
  /// widening owner_ beyond void (null for families without schedules).
  std::function<collectives::SlotSchedule(bool gossip, hypergraph::Node root)>
      schedule_builder_;
  std::int64_t processors_ = 0;
  std::int64_t couplers_ = 0;
};

/// Process-wide count of CompiledTopology::build calls (== routing-table
/// compiles). Tests reset it, run a campaign, and assert one per topology.
[[nodiscard]] std::int64_t topology_compile_count() noexcept;
void reset_topology_compile_count() noexcept;

/// Traffic families a campaign can drive (see sim/traffic.hpp).
enum class TrafficKind {
  kUniform,      ///< Bernoulli(load), uniform destinations
  kSaturation,   ///< always-backlogged; the load axis is ignored
  kHotspot,      ///< Bernoulli(load), a fraction aimed at one hot node
  kPermutation,  ///< Bernoulli(load) to a fixed seed-drawn permutation
  kBursty,       ///< on/off Markov arrivals; the load axis is the peak
};

[[nodiscard]] const char* traffic_kind_name(TrafficKind kind);
/// Inverse of traffic_kind_name; throws core::Error on unknown names.
[[nodiscard]] TrafficKind parse_traffic_kind(const std::string& name);

/// One traffic axis value: a family plus its shape parameters. Shape
/// values are per axis entry (not spec-level scalars), so one grid can
/// sweep hotspot fractions or burst lengths side by side. Converts
/// implicitly from TrafficKind with the default shape.
struct TrafficSpec {
  TrafficKind kind = TrafficKind::kUniform;
  /// kHotspot shape.
  std::int64_t hotspot_node = 0;
  double hotspot_fraction = 0.2;
  /// kBursty shape: ON entry/exit probabilities per slot; mean burst =
  /// 1/exit, mean idle = 1/enter.
  double bursty_enter_on = 0.05;
  double bursty_exit_on = 0.2;

  TrafficSpec() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): axis-literal ergonomics
  TrafficSpec(TrafficKind k) : kind(k) {}

  /// Canonical label: the plain family name for shape-free families,
  /// the family plus its shape for hotspot/bursty -- e.g. "uniform",
  /// "hotspot(n0,f0.2000)", "bursty(on0.0500,off0.2000)". Doubles as
  /// the traffic part of cell IDs, so it must stay stable.
  [[nodiscard]] std::string label() const;

  /// Throws core::Error on out-of-range shape values.
  void validate() const;

  [[nodiscard]] bool operator==(const TrafficSpec&) const noexcept = default;
};

/// Inverse of sim::route_table_name; throws core::Error on unknown names.
[[nodiscard]] sim::RouteTable parse_route_table(const std::string& name);

/// Inverse of sim::latency_mode_name; throws core::Error on unknown names.
[[nodiscard]] sim::LatencyMode parse_latency_mode(const std::string& name);

/// Workload families a campaign can drive (closed-loop; see
/// workload/workload.hpp). kNone keeps the cell open-loop -- the
/// classic fixed-window run. Every other kind switches the cell to
/// run-to-completion with a makespan metric; the traffic axis then
/// provides *background* load alongside the workload (use loads [0.0]
/// for uncontended collectives).
enum class WorkloadKind {
  kNone,      ///< open loop (traffic axis only)
  kOneToAll,  ///< compiled broadcast schedule (POPS / stack-Kautz)
  kGossip,    ///< compiled all-to-all gossip schedule (POPS / stack-Kautz)
  kBsp,       ///< bulk-synchronous phase exchange (any topology)
  kReduce,    ///< arity-ary combining tree (any topology)
  kGather,    ///< incast: everyone sends to the root (any topology)
  kTrace,     ///< replay a recorded packet trace file (any topology)
};

[[nodiscard]] const char* workload_kind_name(WorkloadKind kind);
/// Inverse of workload_kind_name; throws core::Error on unknown names.
[[nodiscard]] WorkloadKind parse_workload_kind(const std::string& name);

/// One workload axis value: a family plus its shape parameters.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kNone;
  std::int64_t root = 0;      ///< one_to_all / reduce / gather
  std::int64_t phases = 4;    ///< bsp
  std::int64_t shift = 1;     ///< bsp
  std::int64_t arity = 2;     ///< reduce
  std::string trace_file;     ///< trace: path to a Trace::load-able file

  WorkloadSpec() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): axis-literal ergonomics
  WorkloadSpec(WorkloadKind k) : kind(k) {}

  /// Canonical label, e.g. "none", "one_to_all(r0)", "gossip",
  /// "bsp(p4,s1)", "reduce(r0,a2)", "gather(r0)",
  /// "trace(file.trace)" (basename only, so IDs survive directory
  /// moves). Doubles as the workload part of cell IDs, so it must stay
  /// stable.
  [[nodiscard]] std::string label() const;

  /// Throws core::Error on out-of-range shape values (kTrace requires a
  /// non-empty file whose basename holds no control character).
  void validate() const;

  [[nodiscard]] bool operator==(const WorkloadSpec&) const noexcept = default;
};

/// Per-cell execution override, matched by topology label. Overrides
/// change *how* matched cells run (engine, threads, routing-table
/// representation), never *what* they simulate -- route-table choice and
/// engine threads are result-invariant, but note that phased and sharded
/// engines are distinct (equally valid) random universes, exactly as
/// with the spec-level engine field. Matching overrides layer in order
/// (later entries win per field); a pinned route_table collapses the
/// topology's routes axis to that one value.
struct CellOverride {
  std::string topology;  ///< TopologySpec::label() to match, e.g. "SK(6,3,2)"
  std::optional<sim::Engine> engine;
  std::optional<int> engine_threads;
  std::optional<sim::RouteTable> route_table;
};

/// The declarative experiment grid. Cells = topologies x arbitrations x
/// traffics x loads x wavelengths x route tables x timings x workloads
/// x seeds, every combination simulated once.
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<TopologySpec> topologies;
  std::vector<sim::Arbitration> arbitrations{
      sim::Arbitration::kTokenRoundRobin};
  std::vector<TrafficSpec> traffics{TrafficSpec{}};
  /// Workload axis: kNone cells run the classic open-loop window; other
  /// kinds run closed-loop to completion (makespan column). Schedule
  /// kinds (one_to_all/gossip) require every topology in the grid to be
  /// POPS or stack-Kautz -- validate() rejects the mix early.
  std::vector<WorkloadSpec> workloads{WorkloadSpec{}};
  std::vector<double> loads{0.5};
  std::vector<std::int64_t> wavelengths{1};
  /// Routing-table axis: result-invariant by construction (compressed
  /// tables answer every query identically), so listing more than one
  /// value is for memory/speed comparison, not for new physics.
  std::vector<sim::RouteTable> route_tables{sim::RouteTable::kAuto};
  /// Timing axis: named skew profiles resolved to concrete tick values
  /// (sim/timing_model.hpp). Cells whose timing is not slot-aligned run
  /// on the async engine regardless of the `engine` field -- the
  /// slotted engines cannot honour sub-slot skew.
  std::vector<sim::TimingConfig> timings{sim::TimingConfig{}};
  std::vector<std::uint64_t> seeds{1};

  /// Per-cell simulator window (see SimConfig).
  std::int64_t warmup_slots = 200;
  std::int64_t measure_slots = 1000;
  std::int64_t queue_capacity = 0;

  /// Latency representation every cell records with
  /// (SimConfig::latency_mode): "auto" keeps exact full-sample
  /// percentiles on small cells and flips to the O(1)-memory sketch at
  /// sim::kAutoLatencySketchNodes nodes, "full"/"sketch" force a mode.
  sim::LatencyMode latency_stats = sim::LatencyMode::kAuto;

  /// Intra-cell checkpoint stride in slots; 0 disables. With an out_dir
  /// set, every open-loop cell serializes its engine state to
  /// out_dir/checkpoints/cell-<index>.ckpt at this stride and deletes
  /// the blob when the cell completes; a --resume run restores
  /// interrupted cells mid-window instead of re-running them from
  /// slot 0 (results stay bit-identical either way).
  std::int64_t checkpoint_every = 0;

  /// Engine every cell runs on; engine_threads feeds SimConfig.threads
  /// for kSharded cells (results are thread-count invariant by design).
  sim::Engine engine = sim::Engine::kPhased;
  int engine_threads = 1;

  /// Telemetry attached to every cell (all-defaults = off). Relative
  /// output paths resolve against the runner's out_dir; the runner
  /// shares one timeseries writer and one trace sink across all cells,
  /// tagging rows/spans with the cell id.
  obs::TelemetryConfig telemetry;

  /// Runtime-introspection JSONL (obs/runtime_stats.hpp), the
  /// NONdeterministic channel: per-shard barrier/window stats from the
  /// sharded engines plus the runner's pool-worker utilization, all
  /// streamed to this path (relative paths resolve against out_dir).
  /// Kept apart from `telemetry` internals so the deterministic
  /// timeseries bytes never mix with wall-clock rows; empty = off.
  std::string runtime_stats_path;

  /// Per-topology execution overrides applied during grid expansion.
  std::vector<CellOverride> overrides;

  /// Total cell count of the expanded grid (overrides that pin a route
  /// table collapse that topology's routes axis to one value).
  [[nodiscard]] std::int64_t cell_count() const;

  /// Throws core::Error when any axis is empty, a window is invalid, or
  /// an override names no topology in the grid.
  void validate() const;
};

/// Parses a spec from its JSON form. Schema (README "Running campaigns"):
/// {
///   "name": "paper-grid",
///   "topologies": [{"kind": "stack_kautz", "s": 4, "d": 3, "k": 2},
///                  {"kind": "pops", "t": 6, "g": 12},
///                  {"kind": "stack_imase_itoh", "s": 4, "d": 2, "n": 12}],
///   "arbitrations": ["token", "random", "aloha"],
///   "traffic": ["uniform",
///               {"kind": "hotspot", "node": 0, "fraction": [0.1, 0.3]},
///               {"kind": "bursty", "enter_on": 0.05,
///                "exit_on": [0.1, 0.2]}],
///   "loads": [0.1, 0.5, 0.9],
///   "wavelengths": [1, 2, 4],
///   "routes": ["auto"],
///   "timings": ["none",
///               {"profile": "const", "tuning": [256, 512],
///                "propagation": 128, "guard": 0},
///               {"profile": "level", "tuning": 256, "propagation": 64,
///                "level_skew": 128}],
///   "workloads": ["none",
///                 {"kind": "one_to_all", "root": 0},
///                 "gossip",
///                 {"kind": "bsp", "phases": [2, 4], "shift": 1},
///                 {"kind": "reduce", "root": 0, "arity": 2},
///                 {"kind": "gather", "root": 0},
///                 {"kind": "trace", "file": "uniform.trace"}],
///   "seeds": [1, 2, 3],
///   "warmup_slots": 200, "measure_slots": 1000, "queue_capacity": 0,
///   "engine": "phased", "engine_threads": 1,
///   "latency_stats": "auto", "checkpoint_every": 0,
///   "telemetry": {"sample_period": 64, "timeseries": "timeseries.jsonl",
///                 "trace": "campaign.trace.json",
///                 "runtime_stats": "runtime.jsonl",
///                 "probes": ["delivered", "backlog"]},
///   "overrides": [{"topology": "SK(4,3,2)", "engine": "sharded",
///                  "engine_threads": 4, "routes": "compressed"}]
/// }
/// Every field except "topologies" has the CampaignSpec default.
/// "traffic" and "routes" accept a single string as well as an array
/// (the single-string "traffic" form is the pre-axis schema). Traffic
/// entries may be structured objects carrying per-entry shape values; a
/// shape value given as an array sweeps that parameter into one axis
/// entry per value. Timing entries are "none" or an object whose
/// delays are sub-slot ticks (sim::kTicksPerSlot per slot); "tuning"
/// accepts an array to sweep the tuning latency. Workload entries are
/// plain kind names or structured objects; "phases" (bsp) and "arity"
/// (reduce) accept sweep arrays.
[[nodiscard]] CampaignSpec parse_campaign_spec(const std::string& json_text);

/// parse_campaign_spec over the contents of `path`.
[[nodiscard]] CampaignSpec load_campaign_spec(const std::string& path);

}  // namespace otis::campaign
