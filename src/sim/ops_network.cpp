#include "sim/ops_network.hpp"

#include <algorithm>
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
    case Engine::kEventQueue:
      return "event-queue";
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

void OpsNetworkSim::validate_config() const {
  OTIS_REQUIRE(config_.wavelengths >= 1,
               "OpsNetworkSim: wavelengths must be >= 1");
  OTIS_REQUIRE(config_.measure_slots > 0,
               "OpsNetworkSim: measure_slots must be > 0");
  OTIS_REQUIRE(config_.warmup_slots >= 0,
               "OpsNetworkSim: warmup_slots must be >= 0");
  OTIS_REQUIRE(config_.measure_slots <= kMaxRunSlots &&
                   config_.warmup_slots <= kMaxRunSlots - config_.measure_slots,
               "OpsNetworkSim: warmup_slots + measure_slots must be at most "
               "2^50");
  OTIS_REQUIRE(config_.queue_capacity >= 0,
               "OpsNetworkSim: queue_capacity must be >= 0");
  config_.timing.validate();
  OTIS_REQUIRE(config_.engine == Engine::kAsync ||
                   config_.engine == Engine::kAsyncSharded ||
                   config_.timing.is_slot_aligned(),
               "OpsNetworkSim: timing delays require Engine::kAsync or "
               "Engine::kAsyncSharded (the slotted engines cannot honour "
               "sub-slot skew)");
  if (config_.workload != nullptr) {
    OTIS_REQUIRE(config_.engine != Engine::kEventQueue,
                 "OpsNetworkSim: workloads need delivery feedback, which "
                 "the tests-only event-queue fixture does not implement "
                 "(use phased/sharded/async)");
    OTIS_REQUIRE(config_.queue_capacity == 0,
                 "OpsNetworkSim: workloads require unbounded VOQs (a "
                 "dropped dependency would stall its dependents forever)");
    OTIS_REQUIRE(config_.workload->node_count() == network_.node_count(),
                 "OpsNetworkSim: workload built for another node count");
  }
  if (config_.recorder != nullptr) {
    OTIS_REQUIRE(config_.engine != Engine::kEventQueue,
                 "OpsNetworkSim: trace recording is implemented by the "
                 "phased/sharded/async engines only");
    OTIS_REQUIRE(config_.recorder->node_count() == network_.node_count(),
                 "OpsNetworkSim: recorder built for another node count");
  }
  OTIS_REQUIRE(config_.telemetry == nullptr ||
                   config_.engine != Engine::kEventQueue,
               "OpsNetworkSim: telemetry is implemented by the "
               "phased/sharded/async engines only");
  OTIS_REQUIRE(config_.checkpoint_every_slots >= 0,
               "OpsNetworkSim: checkpoint_every_slots must be >= 0");
  if (config_.checkpoint_every_slots > 0 || config_.checkpoint_resume ||
      config_.checkpoint_stop_at >= 0) {
    OTIS_REQUIRE(!config_.checkpoint_path.empty(),
                 "OpsNetworkSim: checkpointing requires checkpoint_path");
    OTIS_REQUIRE(config_.engine != Engine::kEventQueue,
                 "OpsNetworkSim: checkpointing is implemented by the "
                 "phased/sharded/async engines only");
    OTIS_REQUIRE(config_.workload == nullptr,
                 "OpsNetworkSim: checkpointing covers open-loop runs only "
                 "(workload completion state is not serialized)");
    OTIS_REQUIRE(config_.recorder == nullptr,
                 "OpsNetworkSim: checkpointing cannot restore a partially "
                 "written trace recording");
    OTIS_REQUIRE(config_.telemetry == nullptr ||
                     config_.telemetry->trace_sink() == nullptr,
                 "OpsNetworkSim: checkpointing excludes Chrome-trace spans "
                 "(wall-clock timestamps cannot be resumed); timeseries "
                 "sampling is supported");
  }
}

OpsNetworkSim::OpsNetworkSim(const hypergraph::StackGraph& network,
                             RoutingHooks routing,
                             std::unique_ptr<TrafficGenerator> traffic,
                             SimConfig config)
    : network_(network),
      routing_(std::move(routing)),
      traffic_(std::move(traffic)),
      config_(config),
      rng_(core::Rng::stream(config.seed,
                             detail::RunStreams::kRunStream)) {
  OTIS_REQUIRE(routing_.next_coupler && routing_.relay_on,
               "OpsNetworkSim: routing hooks must be set");
  OTIS_REQUIRE(traffic_ != nullptr, "OpsNetworkSim: traffic must be set");
  validate_config();
  if (config_.engine != Engine::kEventQueue) {
    if (resolve_route_table(RouteTable::kAuto, network_.node_count()) ==
        RouteTable::kCompressed) {
      try {
        compressed_routes_ =
            std::make_shared<const routing::CompressedRoutes>(
                routing::CompressedRoutes::compile(
                    network_, routing_.next_coupler, routing_.relay_on));
      } catch (const core::Error&) {
        // kAuto must never change which hook routers are accepted: a
        // router that is not group-factored simply keeps its dense
        // tables.
      }
    }
    if (compressed_routes_ == nullptr) {
      routes_ = std::make_shared<const routing::CompiledRoutes>(
          routing::CompiledRoutes::compile(network_, routing_.next_coupler,
                                           routing_.relay_on));
    }
  }
  coupler_success_.assign(
      static_cast<std::size_t>(network_.hypergraph().hyperarc_count()), 0);
}

OpsNetworkSim::OpsNetworkSim(
    const hypergraph::StackGraph& network,
    std::shared_ptr<const routing::CompiledRoutes> routes,
    std::unique_ptr<TrafficGenerator> traffic, SimConfig config)
    : network_(network),
      routes_(std::move(routes)),
      traffic_(std::move(traffic)),
      config_(config),
      rng_(core::Rng::stream(config.seed,
                             detail::RunStreams::kRunStream)) {
  OTIS_REQUIRE(routes_ != nullptr, "OpsNetworkSim: routes must be set");
  OTIS_REQUIRE(traffic_ != nullptr, "OpsNetworkSim: traffic must be set");
  OTIS_REQUIRE(routes_->node_count() == network_.node_count(),
               "OpsNetworkSim: routes were compiled for another network");
  validate_config();
  // The event-queue engine still routes through callbacks; serve them
  // from the baked tables.
  routing_.next_coupler = routes_->next_coupler_fn();
  routing_.relay_on = routes_->relay_fn();
  coupler_success_.assign(
      static_cast<std::size_t>(network_.hypergraph().hyperarc_count()), 0);
}

OpsNetworkSim::OpsNetworkSim(const hypergraph::StackGraph& network,
                             routing::CompiledRoutes routes,
                             std::unique_ptr<TrafficGenerator> traffic,
                             SimConfig config)
    : OpsNetworkSim(network,
                    std::make_shared<const routing::CompiledRoutes>(
                        std::move(routes)),
                    std::move(traffic), config) {}

OpsNetworkSim::OpsNetworkSim(
    const hypergraph::StackGraph& network,
    std::shared_ptr<const routing::CompressedRoutes> routes,
    std::unique_ptr<TrafficGenerator> traffic, SimConfig config)
    : network_(network),
      compressed_routes_(std::move(routes)),
      traffic_(std::move(traffic)),
      config_(config),
      rng_(core::Rng::stream(config.seed,
                             detail::RunStreams::kRunStream)) {
  OTIS_REQUIRE(compressed_routes_ != nullptr,
               "OpsNetworkSim: routes must be set");
  OTIS_REQUIRE(traffic_ != nullptr, "OpsNetworkSim: traffic must be set");
  OTIS_REQUIRE(compressed_routes_->node_count() == network_.node_count(),
               "OpsNetworkSim: routes were compiled for another network");
  validate_config();
  routing_.next_coupler = compressed_routes_->next_coupler_fn();
  routing_.relay_on = compressed_routes_->relay_fn();
  coupler_success_.assign(
      static_cast<std::size_t>(network_.hypergraph().hyperarc_count()), 0);
}

OpsNetworkSim::OpsNetworkSim(const hypergraph::StackGraph& network,
                             routing::CompressedRoutes routes,
                             std::unique_ptr<TrafficGenerator> traffic,
                             SimConfig config)
    : OpsNetworkSim(network,
                    std::make_shared<const routing::CompressedRoutes>(
                        std::move(routes)),
                    std::move(traffic), config) {}

// NOTE: the event-queue engine below is deliberately kept as the seed
// wrote it -- std::find scans, per-coupler scratch allocation, routing
// callbacks per hop. It is the reference implementation the phased
// engines are bit-compared against, and the baseline the slots/sec
// benchmarks measure their speedup from. Do not "optimize" it; speed
// work belongs in engine.cpp. (Sole exception, per the
// arbitration.hpp contract: the token round-robin cursor below wraps
// on compare instead of taking a per-step remainder, mirroring the
// mask arbitration; it visits the identical position sequence.)
void OpsNetworkSim::enqueue(Packet packet, hypergraph::Node at) {
  const auto& hg = network_.hypergraph();
  const hypergraph::HyperarcId coupler =
      routing_.next_coupler(at, packet.destination);
  const auto& outs = hg.out_hyperarcs(at);
  auto it = std::find(outs.begin(), outs.end(), coupler);
  OTIS_REQUIRE(it != outs.end(),
               "OpsNetworkSim: router chose a coupler the node cannot feed");
  const std::size_t slot_index =
      static_cast<std::size_t>(it - outs.begin());
  auto& queue = voq_[static_cast<std::size_t>(at)][slot_index];
  if (config_.queue_capacity > 0 &&
      static_cast<std::int64_t>(queue.size()) >= config_.queue_capacity) {
    if (measuring_) {
      ++metrics_.dropped_packets;
    }
    --inflight_;
    return;
  }
  queue.push_back(std::move(packet));
}

void OpsNetworkSim::slot() {
  const auto& hg = network_.hypergraph();
  const SimTime now = queue_.now();

  // Phase 1: traffic generation (skipped while draining).
  const bool generating =
      now < config_.warmup_slots + config_.measure_slots;
  if (generating) {
    for (hypergraph::Node v = 0; v < hg.node_count(); ++v) {
      TrafficDemand demand = traffic_->demand(v, rng_);
      if (!demand.has_packet || demand.destination == v) {
        continue;
      }
      if (measuring_) {
        ++metrics_.offered_packets;
      }
      ++inflight_;
      enqueue(Packet{next_packet_id_++, v, demand.destination, now, 0}, v);
    }
  }

  // Phase 2: per-coupler arbitration over the head packets of the VOQs
  // feeding it. Winners are collected first and forwarded afterwards so a
  // packet advances at most one hop per slot.
  struct Delivery {
    Packet packet;
    hypergraph::HyperarcId coupler;
  };
  std::vector<Delivery> deliveries;
  for (hypergraph::HyperarcId h = 0; h < hg.hyperarc_count(); ++h) {
    const auto& sources = hg.hyperarc(h).sources;
    // Contenders: indices into `sources` whose VOQ toward h is non-empty.
    std::vector<std::size_t> contenders;
    for (std::size_t si = 0; si < sources.size(); ++si) {
      const hypergraph::Node node = sources[si];
      const auto& outs = hg.out_hyperarcs(node);
      const std::size_t slot_index = static_cast<std::size_t>(
          std::find(outs.begin(), outs.end(), h) - outs.begin());
      if (!voq_[static_cast<std::size_t>(node)][slot_index].empty()) {
        contenders.push_back(si);
      }
    }
    if (contenders.empty()) {
      continue;
    }
    // Up to `wavelengths` contenders succeed per coupler-slot (the paper's
    // single-wavelength couplers are W = 1).
    const std::size_t capacity =
        static_cast<std::size_t>(config_.wavelengths);
    std::vector<std::size_t> winners;
    switch (config_.arbitration) {
      case Arbitration::kTokenRoundRobin: {
        // Scan sources starting at the token cursor; the first W
        // contenders win and the token moves just past the last winner.
        std::size_t si =
            static_cast<std::size_t>(token_[static_cast<std::size_t>(h)]);
        for (std::size_t step = 0;
             step < sources.size() && winners.size() < capacity; ++step) {
          if (std::find(contenders.begin(), contenders.end(), si) !=
              contenders.end()) {
            winners.push_back(si);
            token_[static_cast<std::size_t>(h)] =
                si + 1 == sources.size() ? 0
                                         : static_cast<std::int64_t>(si + 1);
          }
          ++si;
          if (si == sources.size()) {
            si = 0;
          }
        }
        break;
      }
      case Arbitration::kRandomWinner: {
        // Partial Fisher-Yates over the contender list.
        for (std::size_t i = 0;
             i < contenders.size() && winners.size() < capacity; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng_.uniform(contenders.size() -
                                                        i));
          std::swap(contenders[i], contenders[j]);
          winners.push_back(contenders[i]);
        }
        break;
      }
      case Arbitration::kSlottedAloha: {
        // Every contender independently transmits with probability 1/2;
        // at most W simultaneous transmitters succeed, more collide.
        std::vector<std::size_t> transmitting;
        for (std::size_t si : contenders) {
          if (rng_.bernoulli(0.5)) {
            transmitting.push_back(si);
          }
        }
        if (!transmitting.empty() && transmitting.size() <= capacity) {
          winners = std::move(transmitting);
        } else if (transmitting.size() > capacity && measuring_) {
          ++metrics_.collisions;
        }
        break;
      }
    }
    for (std::size_t winner_si : winners) {
      const hypergraph::Node winner = sources[winner_si];
      const auto& outs = hg.out_hyperarcs(winner);
      const std::size_t slot_index = static_cast<std::size_t>(
          std::find(outs.begin(), outs.end(), h) - outs.begin());
      auto& queue = voq_[static_cast<std::size_t>(winner)][slot_index];
      Packet packet = std::move(queue.front());
      queue.pop_front();
      ++packet.hops;
      if (measuring_) {
        ++metrics_.coupler_transmissions;
        ++coupler_success_[static_cast<std::size_t>(h)];
      }
      deliveries.push_back(Delivery{std::move(packet), h});
    }
  }

  // Phase 3: receivers pick winners off their couplers.
  for (Delivery& d : deliveries) {
    const hypergraph::Node relay =
        routing_.relay_on(d.coupler, d.packet.destination);
    if (relay == d.packet.destination) {
      if (measuring_) {
        ++metrics_.delivered_packets;
        if (d.packet.created >= config_.warmup_slots) {
          metrics_.latency.record(now - d.packet.created + 1);
        }
      }
      --inflight_;
    } else {
      enqueue(std::move(d.packet), relay);
    }
  }

  // Schedule the next slot while work remains.
  const bool more_traffic = now + 1 < config_.warmup_slots +
                                          config_.measure_slots;
  const bool keep_draining = config_.drain && inflight_ > 0;
  if (more_traffic || keep_draining) {
    queue_.schedule_in(1, [this] { slot(); });
  }
}

RunMetrics OpsNetworkSim::run_event_queue() {
  // VOQs and tokens are this engine's private state; the phased engines
  // keep their own flat ring buffers, so allocate only when actually
  // running on the event queue.
  const auto& hg = network_.hypergraph();
  voq_.resize(static_cast<std::size_t>(hg.node_count()));
  for (hypergraph::Node v = 0; v < hg.node_count(); ++v) {
    voq_[static_cast<std::size_t>(v)].resize(hg.out_hyperarcs(v).size());
  }
  token_.assign(static_cast<std::size_t>(hg.hyperarc_count()), 0);
  metrics_ = RunMetrics{};
  metrics_.slots = config_.measure_slots;
  queue_.schedule_at(0, [this] { slot(); });
  // Warmup window: run without recording.
  measuring_ = false;
  queue_.run_until(config_.warmup_slots - 1);
  measuring_ = true;
  queue_.run_until(config_.warmup_slots + config_.measure_slots - 1);
  measuring_ = false;
  if (config_.drain) {
    // Generous bound: every in-flight packet can always progress under
    // token/random arbitration; aloha needs slack.
    queue_.run_until(config_.warmup_slots + config_.measure_slots +
                     kDrainSlots);
  }
  metrics_.backlog = inflight_;
  return metrics_;
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
  if (config_.engine == Engine::kEventQueue) {
    return run_event_queue();
  }
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
  metrics_ = compressed_routes_ != nullptr
                 ? run_engine(network_, *compressed_routes_, *traffic_,
                              config_, timing.get(), coupler_success_)
                 : run_engine(network_, *routes_, *traffic_, config_,
                              timing.get(), coupler_success_);
  return metrics_;
}

}  // namespace otis::sim
