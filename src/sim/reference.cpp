#include "sim/reference.hpp"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/error.hpp"
#include "sim/event_queue.hpp"

namespace otis::sim {

namespace {

/// A packet in flight.
struct Packet {
  std::int64_t id = 0;
  hypergraph::Node source = 0;
  hypergraph::Node destination = 0;
  SimTime created = 0;
  int hops = 0;
};

// Kept as the seed wrote it (reference.hpp). Sole exception, per the
// arbitration.hpp contract: the token round-robin cursor below wraps on
// compare instead of taking a per-step remainder, mirroring the mask
// arbitration; it visits the identical position sequence.
struct EventQueueReference {
  const hypergraph::StackGraph& network_;
  RoutingHooks routing_;
  TrafficGenerator* traffic_;
  const SimConfig& config_;
  core::Rng rng_;
  EventQueue queue_{};
  /// Virtual output queues: per node, per out-coupler slot (indexed by
  /// position of the coupler in out_hyperarcs(node)).
  std::vector<std::vector<std::deque<Packet>>> voq_{};
  std::vector<std::int64_t> token_{};  ///< per coupler, round-robin cursor
  std::vector<std::int64_t> coupler_success_{};
  RunMetrics metrics_{};
  bool measuring_ = false;
  std::int64_t next_packet_id_ = 0;
  std::int64_t inflight_ = 0;

  void enqueue(Packet packet, hypergraph::Node at);
  void slot();
  ReferenceRun run();
};

void EventQueueReference::enqueue(Packet packet, hypergraph::Node at) {
  const auto& hg = network_.hypergraph();
  const hypergraph::HyperarcId coupler =
      routing_.next_coupler(at, packet.destination);
  const auto& outs = hg.out_hyperarcs(at);
  auto it = std::find(outs.begin(), outs.end(), coupler);
  OTIS_REQUIRE(it != outs.end(),
               "run_reference: router chose a coupler the node cannot feed");
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

void EventQueueReference::slot() {
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

ReferenceRun EventQueueReference::run() {
  const auto& hg = network_.hypergraph();
  voq_.resize(static_cast<std::size_t>(hg.node_count()));
  for (hypergraph::Node v = 0; v < hg.node_count(); ++v) {
    voq_[static_cast<std::size_t>(v)].resize(hg.out_hyperarcs(v).size());
  }
  token_.assign(static_cast<std::size_t>(hg.hyperarc_count()), 0);
  coupler_success_.assign(token_.size(), 0);
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
  return ReferenceRun{std::move(metrics_), std::move(coupler_success_)};
}

}  // namespace

ReferenceRun run_reference(const hypergraph::StackGraph& network,
                           const RoutingHooks& routing,
                           TrafficGenerator& traffic,
                           const SimConfig& config) {
  OTIS_REQUIRE(routing.next_coupler && routing.relay_on,
               "run_reference: routing hooks must be set");
  validate_config(config, network.node_count());
  OTIS_REQUIRE(!config.workload && !config.recorder && !config.telemetry &&
                   config.checkpoint_every_slots == 0 &&
                   !config.checkpoint_resume && config.checkpoint_stop_at < 0 &&
                   config.timing.is_slot_aligned(),
               "run_reference: no workload, trace recorder, telemetry, "
               "checkpointing or sub-slot timing");
  return EventQueueReference{
      network, routing, &traffic, config,
      core::Rng::stream(config.seed, detail::RunStreams::kRunStream)}
      .run();
}

}  // namespace otis::sim
