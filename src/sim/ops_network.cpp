#include "sim/ops_network.hpp"

#include <utility>

#include "core/error.hpp"
#include "sim/engine.hpp"

namespace otis::sim {

namespace detail {

RunStreams::RunStreams(std::uint64_t seed, bool single, std::int64_t nodes,
                       std::int64_t couplers, int shards) {
  if (single) {
    OTIS_REQUIRE(shards == 1,
                 "RunStreams: the single run stream needs one shard");
    arb_.push_back(core::Rng::stream(seed, kRunStream));
    return;
  }
  node_.reserve(static_cast<std::size_t>(nodes));
  for (std::int64_t v = 0; v < nodes; ++v) {
    node_.push_back(core::Rng::stream(
        seed, kNodeStreamBase + static_cast<std::uint64_t>(v)));
  }
  arb_.reserve(static_cast<std::size_t>(couplers));
  for (std::int64_t h = 0; h < couplers; ++h) {
    arb_.push_back(core::Rng::stream(
        seed, kCouplerStreamBase + static_cast<std::uint64_t>(h)));
  }
  mask_ = ~std::size_t{0};
}

void RunStreams::put(core::BlobWriter& out) const {
  for (const core::Rng& r : node_) {
    out.put_rng(r);
  }
  for (const core::Rng& r : arb_) {
    out.put_rng(r);
  }
}

void RunStreams::get(core::BlobReader& in) {
  for (core::Rng& r : node_) {
    r = in.get_rng();
  }
  for (core::Rng& r : arb_) {
    r = in.get_rng();
  }
}

}  // namespace detail

const char* arbitration_name(Arbitration policy) {
  switch (policy) {
    case Arbitration::kTokenRoundRobin:
      return "token";
    case Arbitration::kRandomWinner:
      return "random";
    case Arbitration::kSlottedAloha:
      return "aloha";
  }
  return "?";
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kPhased:
      return "phased";
    case Engine::kSharded:
      return "sharded";
    case Engine::kAsync:
      return "async";
    case Engine::kAsyncSharded:
      return "async-sharded";
  }
  return "?";
}

const char* route_table_name(RouteTable table) {
  switch (table) {
    case RouteTable::kDense:
      return "dense";
    case RouteTable::kCompressed:
      return "compressed";
    case RouteTable::kAuto:
      return "auto";
  }
  return "?";
}

const char* latency_mode_name(LatencyMode mode) {
  switch (mode) {
    case LatencyMode::kFull:
      return "full";
    case LatencyMode::kSketch:
      return "sketch";
    case LatencyMode::kAuto:
      return "auto";
  }
  return "?";
}

void validate_config(const SimConfig& config, std::int64_t nodes) {
  OTIS_REQUIRE(config.wavelengths >= 1,
               "OpsNetworkSim: wavelengths must be >= 1");
  OTIS_REQUIRE(config.measure_slots > 0,
               "OpsNetworkSim: measure_slots must be > 0");
  OTIS_REQUIRE(config.warmup_slots >= 0,
               "OpsNetworkSim: warmup_slots must be >= 0");
  OTIS_REQUIRE(config.measure_slots <= kMaxRunSlots &&
                   config.warmup_slots <= kMaxRunSlots - config.measure_slots,
               "OpsNetworkSim: warmup_slots + measure_slots must be at most "
               "2^50");
  OTIS_REQUIRE(config.queue_capacity >= 0,
               "OpsNetworkSim: queue_capacity must be >= 0");
  config.timing.validate();
  OTIS_REQUIRE(config.engine == Engine::kAsync ||
                   config.engine == Engine::kAsyncSharded ||
                   config.timing.is_slot_aligned(),
               "OpsNetworkSim: timing delays require Engine::kAsync or "
               "Engine::kAsyncSharded (the slotted engines cannot honour "
               "sub-slot skew)");
  if (config.workload != nullptr) {
    OTIS_REQUIRE(config.queue_capacity == 0,
                 "OpsNetworkSim: workloads require unbounded VOQs (a "
                 "dropped dependency would stall its dependents forever)");
    OTIS_REQUIRE(config.workload->node_count() == nodes,
                 "OpsNetworkSim: workload built for another node count");
  }
  OTIS_REQUIRE(config.recorder == nullptr ||
                   config.recorder->node_count() == nodes,
               "OpsNetworkSim: recorder built for another node count");
  OTIS_REQUIRE(config.checkpoint_every_slots >= 0,
               "OpsNetworkSim: checkpoint_every_slots must be >= 0");
  if (config.checkpoint_every_slots > 0 || config.checkpoint_resume ||
      config.checkpoint_stop_at >= 0) {
    OTIS_REQUIRE(!config.checkpoint_path.empty(),
                 "OpsNetworkSim: checkpointing requires checkpoint_path");
    OTIS_REQUIRE(config.workload == nullptr,
                 "OpsNetworkSim: checkpointing covers open-loop runs only "
                 "(workload completion state is not serialized)");
    OTIS_REQUIRE(config.recorder == nullptr,
                 "OpsNetworkSim: checkpointing cannot restore a partially "
                 "written trace recording");
    OTIS_REQUIRE(config.telemetry == nullptr ||
                     config.telemetry->trace_sink() == nullptr,
                 "OpsNetworkSim: checkpointing excludes Chrome-trace spans "
                 "(wall-clock timestamps cannot be resumed); timeseries "
                 "sampling is supported");
  }
}

OpsNetworkSim::OpsNetworkSim(const hypergraph::StackGraph& network,
                             const RoutingHooks& routing,
                             std::unique_ptr<TrafficGenerator> traffic,
                             SimConfig config)
    : network_(network), traffic_(std::move(traffic)), config_(config) {
  OTIS_REQUIRE(routing.next_coupler && routing.relay_on,
               "OpsNetworkSim: routing hooks must be set");
  OTIS_REQUIRE(traffic_ != nullptr, "OpsNetworkSim: traffic must be set");
  validate_config(config_, network_.node_count());
  if (resolve_route_table(RouteTable::kAuto, network_.node_count()) ==
      RouteTable::kCompressed) {
    try {
      compressed_routes_ = std::make_shared<const routing::CompressedRoutes>(
          routing::CompressedRoutes::compile(network_, routing.next_coupler,
                                             routing.relay_on));
    } catch (const core::Error&) {
      // kAuto must never change which hook routers are accepted: a
      // router that is not group-factored simply keeps its dense
      // tables.
    }
  }
  if (compressed_routes_ == nullptr) {
    routes_ = std::make_shared<const routing::CompiledRoutes>(
        routing::CompiledRoutes::compile(network_, routing.next_coupler,
                                         routing.relay_on));
  }
}

OpsNetworkSim::OpsNetworkSim(
    const hypergraph::StackGraph& network,
    std::shared_ptr<const routing::CompiledRoutes> routes,
    std::unique_ptr<TrafficGenerator> traffic, SimConfig config)
    : network_(network),
      routes_(std::move(routes)),
      traffic_(std::move(traffic)),
      config_(config) {
  OTIS_REQUIRE(routes_ != nullptr, "OpsNetworkSim: routes must be set");
  OTIS_REQUIRE(traffic_ != nullptr, "OpsNetworkSim: traffic must be set");
  OTIS_REQUIRE(routes_->node_count() == network_.node_count(),
               "OpsNetworkSim: routes were compiled for another network");
  validate_config(config_, network_.node_count());
}

OpsNetworkSim::OpsNetworkSim(
    const hypergraph::StackGraph& network,
    std::shared_ptr<const routing::CompressedRoutes> routes,
    std::unique_ptr<TrafficGenerator> traffic, SimConfig config)
    : network_(network),
      compressed_routes_(std::move(routes)),
      traffic_(std::move(traffic)),
      config_(config) {
  OTIS_REQUIRE(compressed_routes_ != nullptr,
               "OpsNetworkSim: routes must be set");
  OTIS_REQUIRE(traffic_ != nullptr, "OpsNetworkSim: traffic must be set");
  OTIS_REQUIRE(compressed_routes_->node_count() == network_.node_count(),
               "OpsNetworkSim: routes were compiled for another network");
  validate_config(config_, network_.node_count());
}

void OpsNetworkSim::set_timing_model(
    std::shared_ptr<const TimingModel> timing) {
  OTIS_REQUIRE(timing != nullptr, "OpsNetworkSim: timing must be set");
  // Same refuse-don't-ignore contract as SimConfig::timing: a model
  // injected under a slotted engine would be silently dropped.
  OTIS_REQUIRE(config_.engine == Engine::kAsync ||
                   config_.engine == Engine::kAsyncSharded,
               "OpsNetworkSim: timing models require Engine::kAsync or "
               "Engine::kAsyncSharded");
  OTIS_REQUIRE(timing->coupler_count() ==
                   network_.hypergraph().hyperarc_count(),
               "OpsNetworkSim: timing model sized for another network");
  timing_model_ = std::move(timing);
}

RunMetrics OpsNetworkSim::run() {
  // One span covering the whole engine run; the engines nest their
  // warmup/measure/drain window spans inside it on the same track.
  obs::Span run_span;
  if (config_.telemetry != nullptr &&
      config_.telemetry->trace_sink() != nullptr) {
    run_span = obs::Span(
        config_.telemetry->trace_sink(), config_.telemetry->tid(), "sim.run",
        "engine",
        {{"engine", engine_name(config_.engine)},
         {"arbitration", arbitration_name(config_.arbitration)},
         {"nodes", std::to_string(network_.node_count())},
         {"couplers",
          std::to_string(network_.hypergraph().hyperarc_count())}});
  }
  // Only the calendar engines compile (or take) a timing model.
  std::shared_ptr<const TimingModel> timing;
  if (config_.engine == Engine::kAsync ||
      config_.engine == Engine::kAsyncSharded) {
    timing = timing_model_;
    if (timing == nullptr) {
      timing = std::make_shared<const TimingModel>(
          TimingModel::compile(network_, config_.timing));
    }
  }
  return compressed_routes_ != nullptr
             ? run_engine(network_, *compressed_routes_, *traffic_, config_,
                          timing.get(), coupler_success_)
             : run_engine(network_, *routes_, *traffic_, config_,
                          timing.get(), coupler_success_);
}

}  // namespace otis::sim
