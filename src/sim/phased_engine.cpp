#include "sim/phased_engine.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "sim/arbitration.hpp"
#include "sim/checkpoint.hpp"

namespace otis::sim {
namespace {

/// Legacy per-run stream tag (must match the event-queue engine).
constexpr std::uint64_t kRunStream = 0x0715;
/// Sharded/workload per-unit streams and the closed-loop slot bound
/// are shared with the async engine (ops_network.hpp detail) so
/// workload runs agree across engines.
using detail::coupler_streams;
using detail::node_streams;
using detail::workload_slot_bound;

/// How far ahead the serial workload loop's delivery walk prefetches
/// relay entries. Deliveries for one coupler land on scattered
/// relay-table rows, so a short look-ahead hides the load latency
/// without thrashing the prefetch queue.
constexpr std::size_t kRelayPrefetchAhead = 8;

/// A transmission whose receiver relays it onward. Packets that reached
/// their destination are counted inline during arbitration (metric
/// updates cannot disturb same-slot winner selection); only relays
/// defer to the receive step, because their enqueues would make queues
/// non-empty for couplers arbitrated later in the same slot.
struct Relay {
  VoqEntry entry;
  hypergraph::Node node;
};

/// Arrives at `barrier`, charging the wait to `rt` when runtime stats
/// are on.
template <class Barrier>
void timed_wait(Barrier& barrier, obs::ShardRuntime* rt) {
  if (rt == nullptr) {
    barrier.arrive_and_wait();
    return;
  }
  const std::int64_t t0 = obs::runtime_now_ns();
  barrier.arrive_and_wait();
  rt->barrier_wait_ns += obs::runtime_now_ns() - t0;
}

/// Per-run state and per-slot steps of the two sharded loops (open loop
/// and workload). The shards come from detail::plan_shards, so a
/// shard's nodes feed exactly its couplers: generation, arbitration and
/// the enqueue of received relays touch only the shard's own VOQs, and
/// each shard keeps the occupancy masks of its couplers as the serial
/// loop does. A slot runs
///
///   generate -> arbitrate -> exchange barrier -> receive -> slot barrier
///
/// where arbitrate completes final deliveries inline and posts each
/// relay to the outbox of the relay node's owner, and receive enqueues
/// the shard's inbox producer by producer. Shard coupler ranges ascend
/// with the shard index (checked by plan_shards), so producer order
/// is global coupler order: every VOQ sees the serial push order for
/// every thread count.
template <routing::RouteView Routes>
struct SlotShards {
  struct Shard {
    std::int64_t node_begin = 0, node_end = 0;
    std::int64_t coupler_begin = 0, coupler_end = 0;
    std::int64_t offered = 0, delivered = 0, dropped = 0;
    std::int64_t transmissions = 0, collisions = 0;
    std::int64_t inflight_delta = 0;
    LatencyStats latency;
    detail::OccupancyMasks masks;             ///< over the shard's couplers
    std::vector<std::vector<Relay>> outbox;   ///< per consumer shard
    std::vector<std::int64_t> delivered_ids;  ///< workload ids this slot
    detail::PickScratch picks;
  };

  /// `delivery_bound` sizes the latency buffers (split evenly).
  SlotShards(const Routes& routes_in, const detail::FeedIndex& feed_in,
             const std::vector<std::int64_t>& voq_base_in,
             const SimConfig& config_in, TrafficGenerator& traffic_in,
             std::vector<std::int64_t>& token_in,
             std::vector<std::int64_t>& coupler_success_in,
             std::int64_t delivery_bound)
      : routes(routes_in),
        feed(feed_in),
        voq_base(voq_base_in),
        config(config_in),
        traffic(traffic_in),
        token(token_in),
        coupler_success(coupler_success_in),
        nodes(static_cast<std::int64_t>(voq_base_in.size()) - 1),
        threads(detail::shard_count(
            config_in.threads, nodes,
            static_cast<std::int64_t>(feed_in.coupler_count()))),
        plan(detail::plan_shards(feed_in, voq_base_in, threads)),
        gen_rng(node_streams(config_in.seed, nodes)),
        arb_rng(coupler_streams(
            config_in.seed,
            static_cast<std::int64_t>(feed_in.coupler_count()))),
        shards(static_cast<std::size_t>(threads)),
        senders(static_cast<std::size_t>(nodes)) {
    voq.init(static_cast<std::size_t>(voq_base.back()),
             static_cast<std::size_t>(threads));
    const bool sketch = resolve_latency_sketch(config.latency_mode, nodes);
    std::int64_t covered = 0;  ///< end of the previous shard's couplers
    for (int w = 0; w < threads; ++w) {
      Shard& shard = shards[static_cast<std::size_t>(w)];
      const auto& mine = plan.couplers[static_cast<std::size_t>(w)];
      shard.node_begin = plan.node_cut[static_cast<std::size_t>(w)];
      shard.node_end = plan.node_cut[static_cast<std::size_t>(w) + 1];
      shard.coupler_begin = mine.empty() ? covered : mine.front();
      shard.coupler_end = covered =
          shard.coupler_begin + static_cast<std::int64_t>(mine.size());
      shard.masks.init(feed, shard.coupler_begin, shard.coupler_end);
      shard.outbox.resize(static_cast<std::size_t>(threads));
      if (sketch) {
        shard.latency.use_sketch();
      }
      shard.latency.reserve(
          std::min(delivery_bound / threads + 1, kLatencyReserveCap));
      // Only this shard pushes onto its nodes' queues (generation and
      // receive), so growth stays inside the shard's own pool.
      for (std::int64_t qi = voq_base[static_cast<std::size_t>(
               shard.node_begin)];
           qi < voq_base[static_cast<std::size_t>(shard.node_end)]; ++qi) {
        voq.set_pool(static_cast<std::size_t>(qi),
                     static_cast<std::uint32_t>(w));
      }
    }
  }

  /// Worker threads reach the shards through references to this object.
  SlotShards(const SlotShards&) = delete;
  SlotShards& operator=(const SlotShards&) = delete;

  /// Rebuilds every shard's masks from a restored arena.
  void restore_masks() {
    for (Shard& shard : shards) {
      for (std::int64_t qi = voq_base[static_cast<std::size_t>(
               shard.node_begin)];
           qi < voq_base[static_cast<std::size_t>(shard.node_end)]; ++qi) {
        if (!voq.empty(static_cast<std::size_t>(qi))) {
          shard.masks.mark_nonempty(feed, static_cast<std::size_t>(qi));
        }
      }
    }
  }

  /// Queues `entry` on `shard`'s VOQ `qi`, dropping it at a full finite
  /// queue.
  void enqueue(Shard& shard, std::size_t qi, const VoqEntry& entry,
               bool measuring) {
    const std::size_t size = voq.size(qi);
    if (config.queue_capacity > 0 &&
        static_cast<std::int64_t>(size) >= config.queue_capacity) {
      if (measuring) {
        ++shard.dropped;
      }
      --shard.inflight_delta;
      return;
    }
    voq.push(qi, entry);
    if (size == 0) {
      shard.masks.mark_nonempty(feed, qi);
    }
  }

  /// Draws the senders of `shard`'s nodes for slot `now` and queues
  /// their packets, ids id_base + now * nodes + source (deterministic
  /// without a shared counter).
  void generate(Shard& shard, SimTime now, bool measuring,
                std::int64_t id_base) {
    SenderDemand* const batch = senders.data() + shard.node_begin;
    const std::size_t count = traffic.demand_batch_senders_streams(
        shard.node_begin, shard.node_end, gen_rng.data(), batch);
    if (measuring) {
      shard.offered += static_cast<std::int64_t>(count);
    }
    shard.inflight_delta += static_cast<std::int64_t>(count);
    detail::staged_enqueue(
        routes, voq_base, voq, count,
        [&](std::size_t i) {
          return std::pair{batch[i].source, batch[i].destination};
        },
        [&](std::size_t i, std::size_t qi) {
          const SenderDemand d = batch[i];
          if (config.recorder != nullptr) {
            config.recorder->record(now, d.source, d.destination);
          }
          enqueue(shard, qi,
                  VoqEntry{id_base + now * nodes + d.source, d.destination,
                           now, 0},
                  measuring);
        });
  }

  /// Arbitrates `shard`'s couplers with a non-empty feed in slot `now`.
  /// Latency counts packets created at or after `warmup`; delivered ids
  /// below `workload_ids` are workload packets, reported back through
  /// delivered_ids.
  void arbitrate(Shard& shard, SimTime now, bool measuring, SimTime warmup,
                 std::int64_t workload_ids) {
    detail::OccupancyMasks& masks = shard.masks;
    const auto transmit = [&](const detail::Pick& pick) {
      VoqEntry entry = voq.pop_front(pick.qi);
      if (voq.empty(pick.qi)) {
        masks.mark_empty(feed, pick.qi);
      }
      ++entry.hops;
      if (measuring) {
        ++shard.transmissions;
        ++coupler_success[pick.coupler];
      }
      const hypergraph::Node relay = routes.relay(
          static_cast<hypergraph::HyperarcId>(pick.coupler),
          entry.destination);
      if (relay != entry.destination) {
        shard
            .outbox[static_cast<std::size_t>(
                plan.node_owner[static_cast<std::size_t>(relay)])]
            .push_back(Relay{entry, relay});
        return;
      }
      if (measuring) {
        ++shard.delivered;
        if (entry.created >= warmup) {
          shard.latency.record(now - entry.created + 1);
        }
      }
      if (entry.id < workload_ids) {
        shard.delivered_ids.push_back(entry.id);
      }
      --shard.inflight_delta;
    };
    for (std::size_t aw = 0; aw < masks.active.size(); ++aw) {
      const std::int64_t collisions = detail::pick_then_pop(
          masks.active[aw],
          static_cast<std::size_t>(masks.coupler_begin) + (aw << 6), feed,
          voq, config.arbitration,
          static_cast<std::size_t>(config.wavelengths), token, shard.picks,
          [&](std::size_t h) { return masks.words_of(feed, h); },
          [&](std::size_t h) -> core::Rng& { return arb_rng[h]; }, transmit);
      if (measuring) {
        shard.collisions += collisions;
      }
    }
  }

  /// Enqueues shard w's inbox, producer by producer (= coupler order).
  void receive(int w, bool measuring) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    for (Shard& producer : shards) {
      std::vector<Relay>& inbox = producer.outbox[static_cast<std::size_t>(w)];
      detail::staged_enqueue(
          routes, voq_base, voq, inbox.size(),
          [&](std::size_t i) {
            return std::pair{inbox[i].node, inbox[i].entry.destination};
          },
          [&](std::size_t i, std::size_t qi) {
            enqueue(shard, qi, inbox[i].entry, measuring);
          });
      inbox.clear();
    }
  }

  /// Fills `frame` from `shard` at a sampling boundary. Its couplers'
  /// occupancy is final once its own receive step ended: no other shard
  /// pushes onto its queues.
  void snapshot(const Shard& shard, const obs::EngineProbes& ids,
                obs::ProbeRegistry& frame) const {
    frame.zero();
    frame.set(ids.offered, shard.offered);
    frame.set(ids.delivered, shard.delivered);
    frame.set(ids.transmissions, shard.transmissions);
    frame.set(ids.collisions, shard.collisions);
    frame.set(ids.dropped, shard.dropped);
    detail::observe_occupancy(frame, ids.occupancy, feed, voq,
                              shard.coupler_begin, shard.coupler_end);
  }

  /// Adds every shard's counters to `metrics` (order-independent).
  void fold(RunMetrics& metrics) const {
    for (const Shard& shard : shards) {
      metrics.offered_packets += shard.offered;
      metrics.delivered_packets += shard.delivered;
      metrics.dropped_packets += shard.dropped;
      metrics.coupler_transmissions += shard.transmissions;
      metrics.collisions += shard.collisions;
      metrics.latency.merge(shard.latency);
    }
  }

  /// Runs worker(w) for every shard, on this thread when there is one.
  template <class Worker>
  void run_workers(const Worker& worker) const {
    if (threads == 1) {
      worker(0);
      return;
    }
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      pool.emplace_back(worker, w);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  const Routes& routes;
  const detail::FeedIndex& feed;
  const std::vector<std::int64_t>& voq_base;
  const SimConfig& config;
  TrafficGenerator& traffic;
  std::vector<std::int64_t>& token;
  std::vector<std::int64_t>& coupler_success;
  std::int64_t nodes;
  int threads;
  detail::ShardPlan plan;
  /// Per-unit RNG streams: the partition can never influence a draw.
  std::vector<core::Rng> gen_rng;
  std::vector<core::Rng> arb_rng;
  VoqArena voq;
  std::vector<Shard> shards;
  /// Compact senders of the current slot; shard w writes the slice at
  /// its node_begin.
  std::vector<SenderDemand> senders;
};

}  // namespace

template <routing::RouteView Routes>
PhasedEngineT<Routes>::PhasedEngineT(const hypergraph::StackGraph& network,
                                     const Routes& routes,
                                     TrafficGenerator& traffic,
                                     const SimConfig& config)
    : network_(network),
      routes_(routes),
      traffic_(traffic),
      config_(config) {
  const auto& hg = network_.hypergraph();
  nodes_ = hg.node_count();
  couplers_ = hg.hyperarc_count();
  voq_base_.resize(static_cast<std::size_t>(nodes_) + 1);
  voq_base_[0] = 0;
  for (hypergraph::Node v = 0; v < nodes_; ++v) {
    voq_base_[static_cast<std::size_t>(v) + 1] =
        voq_base_[static_cast<std::size_t>(v)] + hg.out_degree(v);
  }
  feed_.build(hg, voq_base_);
  token_.assign(static_cast<std::size_t>(couplers_), 0);
}

template <routing::RouteView Routes>
RunMetrics PhasedEngineT<Routes>::run(
    std::vector<std::int64_t>& coupler_success) {
  coupler_success.assign(static_cast<std::size_t>(couplers_), 0);
  if (config_.workload != nullptr) {
    return config_.engine == Engine::kSharded
               ? run_workload_sharded(coupler_success)
               : run_workload_serial(coupler_success);
  }
  if (config_.engine == Engine::kSharded) {
    return run_sharded(coupler_success);
  }
  return run_serial(coupler_success);
}

template <routing::RouteView Routes>
RunMetrics PhasedEngineT<Routes>::run_serial(
    std::vector<std::int64_t>& coupler_success) {
  core::Rng rng = core::Rng::stream(config_.seed, kRunStream);
  RunMetrics metrics;
  metrics.slots = config_.measure_slots;
  if (resolve_latency_sketch(config_.latency_mode, nodes_)) {
    metrics.latency.use_sketch();
  }
  metrics.latency.reserve(
      std::min(config_.measure_slots * nodes_, kLatencyReserveCap));

  const SimTime horizon = config_.warmup_slots + config_.measure_slots;
  const SimTime drain_bound = horizon + 1'000'000;
  std::int64_t inflight = 0;
  std::int64_t next_packet_id = 0;

  VoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()));
  detail::OccupancyMasks masks;
  masks.init(feed_);

  // Hoisted scratch: one allocation per run, not per coupler-slot.
  detail::PickScratch picks;
  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));
  std::vector<Relay> relays;  ///< this slot's relays (see Relay)
  const std::int64_t queue_cap = config_.queue_capacity;
  PhaseBreakdown* breakdown = config_.phase_breakdown;
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0, t1, t2;

  // Telemetry: one pointer test per slot when detached; sampling work
  // only at tel->due() boundaries. State reads only -- never RNG.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  if (tel != nullptr && tel->trace_sink() != nullptr) {
    windows = obs::WindowSpans(tel->trace_sink(), tel->tid(),
                               config_.warmup_slots, horizon);
  }
  const auto fill_probes = [&](const VoqArena& arena) {
    detail::fill_metric_probes(*tel, metrics, inflight);
    obs::ProbeRegistry& reg = tel->probes();
    const obs::ProbeId hist = tel->engine_probes().occupancy;
    reg.clear_histogram(hist);
    detail::observe_occupancy(reg, hist, feed_, arena, 0, couplers_);
  };

  // Queues `entry` on VOQ `qi` (detail::staged_enqueue computes qi).
  const auto enqueue = [&](std::size_t qi, const VoqEntry& entry,
                           bool measuring) {
    const std::size_t size = voq.size(qi);
    if (queue_cap > 0 && static_cast<std::int64_t>(size) >= queue_cap) {
      if (measuring) {
        ++metrics.dropped_packets;
      }
      --inflight;
      return;
    }
    voq.push(qi, entry);
    if (size == 0) {
      masks.mark_nonempty(feed_, qi);
    }
  };

  // Checkpointing (sim/checkpoint.hpp). A blob written at the top of
  // slot S is "everything needed to run slots S.. onward": the resumed
  // run replays the identical remainder, so restored results are
  // bit-identical to an uninterrupted run's. Saves only happen at the
  // top of a slot the run is definitely going to execute, so a resume
  // never runs a slot the uninterrupted run skipped.
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  const auto save_checkpoint = [&](SimTime next_slot) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(next_slot);
    out.put_i64(inflight);
    out.put_i64(next_packet_id);
    out.put_rng(rng);
    out.put_i64_vec(token_);
    checkpoint_put_metrics(out, metrics);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, voq);
    std::vector<std::int64_t> traffic_state;
    traffic_.checkpoint_state(traffic_state);
    out.put_i64_vec(traffic_state);
    checkpoint_put_telemetry(out, tel, tel_last);
    checkpoint_store(config_.checkpoint_path, out);
  };
  SimTime start_slot = 0;
  if (config_.checkpoint_resume) {
    std::vector<std::uint8_t> blob;
    if (checkpoint_load(config_.checkpoint_path, config_, nodes_, couplers_,
                        blob)) {
      core::BlobReader in(blob);
      (void)checkpoint_read_header(in, config_, nodes_, couplers_);
      start_slot = in.get_i64();
      inflight = in.get_i64();
      next_packet_id = in.get_i64();
      rng = in.get_rng();
      token_ = in.get_i64_vec();
      checkpoint_get_metrics(in, metrics);
      coupler_success = in.get_i64_vec();
      checkpoint_get_voq(in, voq, nodes_);
      traffic_.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
      for (std::size_t qi = 0; qi < voq.queue_count(); ++qi) {
        if (!voq.empty(qi)) {
          masks.mark_nonempty(feed_, qi);
        }
      }
    }
  }

  for (SimTime now = start_slot;;) {
    if (ckpt_every > 0 && now != start_slot && now % ckpt_every == 0) {
      save_checkpoint(now);
      if (config_.checkpoint_stop_at >= 0 &&
          now >= config_.checkpoint_stop_at) {
        // Drill hook: pretend the process died right after the write.
        // No telemetry finish() -- the resumed run continues the stream.
        metrics.backlog = inflight;
        metrics.interrupted = true;
        return metrics;
      }
    }
    const bool measuring = now >= config_.warmup_slots && now < horizon;
    if (breakdown != nullptr) {
      t0 = Clock::now();
    }

    // Phase 1: traffic generation (stops at the horizon; drain only).
    // The compact batch hands back just the ~load*N senders, so the
    // enqueue loop runs over actual packets with no idle-node branch.
    if (now < horizon) {
      const std::size_t sender_count =
          traffic_.demand_batch_senders(0, nodes_, rng, senders.data());
      if (measuring) {
        metrics.offered_packets += static_cast<std::int64_t>(sender_count);
      }
      inflight += static_cast<std::int64_t>(sender_count);
      detail::staged_enqueue(
          routes_, voq_base_, voq, sender_count,
          [&](std::size_t i) {
            return std::pair{senders[i].source, senders[i].destination};
          },
          [&](std::size_t i, std::size_t qi) {
            const SenderDemand d = senders[i];
            if (config_.recorder != nullptr) {
              config_.recorder->record(now, d.source, d.destination);
            }
            enqueue(qi, VoqEntry{next_packet_id++, d.destination, now, 0},
                    measuring);
          });
    }
    if (breakdown != nullptr) {
      t1 = Clock::now();
    }

    // Phase 2: arbitration over the couplers with any non-empty feed,
    // found by scanning the occupancy summary bitmap, one word's picks
    // at a time. Final deliveries complete inline; relays defer (see
    // `relays`).
    relays.clear();
    const auto transmit = [&](const detail::Pick& pick) {
      VoqEntry entry = voq.pop_front(pick.qi);
      if (voq.empty(pick.qi)) {
        masks.mark_empty(feed_, pick.qi);
      }
      ++entry.hops;
      if (measuring) {
        ++metrics.coupler_transmissions;
        ++coupler_success[pick.coupler];
      }
      const hypergraph::Node relay = routes_.relay(
          static_cast<hypergraph::HyperarcId>(pick.coupler),
          entry.destination);
      if (relay == entry.destination) {
        if (measuring) {
          ++metrics.delivered_packets;
          if (entry.created >= config_.warmup_slots) {
            metrics.latency.record(now - entry.created + 1);
          }
        }
        --inflight;
      } else {
        relays.push_back(Relay{entry, relay});
      }
    };
    for (std::size_t aw = 0; aw < masks.active.size(); ++aw) {
      const std::int64_t collisions = detail::pick_then_pop(
          masks.active[aw], aw << 6, feed_, voq, config_.arbitration,
          static_cast<std::size_t>(config_.wavelengths), token_, picks,
          [&](std::size_t h) { return masks.words_of(feed_, h); },
          [&](std::size_t) -> core::Rng& { return rng; }, transmit);
      if (measuring) {
        metrics.collisions += collisions;
      }
    }
    if (breakdown != nullptr) {
      t2 = Clock::now();
    }

    // Phase 3: relayed packets re-queue at their next hop.
    detail::staged_enqueue(
        routes_, voq_base_, voq, relays.size(),
        [&](std::size_t i) {
          return std::pair{relays[i].node, relays[i].entry.destination};
        },
        [&](std::size_t i, std::size_t qi) {
          enqueue(qi, relays[i].entry, measuring);
        });
    if (breakdown != nullptr) {
      const Clock::time_point t3 = Clock::now();
      breakdown->generate_seconds +=
          std::chrono::duration<double>(t1 - t0).count();
      breakdown->arbitrate_seconds +=
          std::chrono::duration<double>(t2 - t1).count();
      breakdown->receive_seconds +=
          std::chrono::duration<double>(t3 - t2).count();
      ++breakdown->slots;
    }

    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        fill_probes(voq);
        tel->sample(now);
      }
      tel_last = now;
    }

    const bool more_traffic = now + 1 < horizon;
    const bool keep_draining = config_.drain && inflight > 0;
    if (!(more_traffic || keep_draining)) {
      break;
    }
    ++now;
    if (now > drain_bound) {
      break;
    }
  }

  metrics.backlog = inflight;
  if (tel != nullptr) {
    windows.finish();
    fill_probes(voq);
    tel->finish(tel_last);
  }
  return metrics;
}

template <routing::RouteView Routes>
RunMetrics PhasedEngineT<Routes>::run_sharded(
    std::vector<std::int64_t>& coupler_success) {
  SlotShards<Routes> state(routes_, feed_, voq_base_, config_, traffic_,
                           token_, coupler_success,
                           config_.measure_slots * nodes_);
  using Shard = typename SlotShards<Routes>::Shard;
  const int threads = state.threads;
  std::vector<Shard>& shards = state.shards;
  const SimTime horizon = config_.warmup_slots + config_.measure_slots;
  const SimTime drain_bound = horizon + 1'000'000;

  // Telemetry: per-shard probe frames, folded with order-independent
  // integer adds in the slot barrier's completion step -- the merged
  // values are sums over ALL nodes/couplers, so they cannot depend on
  // the partition (= thread count).
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  std::vector<obs::ProbeRegistry> frames;
  if (tel != nullptr) {
    if (tel->trace_sink() != nullptr) {
      windows = obs::WindowSpans(tel->trace_sink(), tel->tid(),
                                 config_.warmup_slots, horizon);
    }
    frames.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      frames.push_back(tel->probes().clone_schema());
    }
  }

  // Runtime channel (obs/runtime_stats.hpp): wall-clock barrier/work
  // accounting, one private slot per shard. The flag is captured once,
  // so an attached-but-disabled session never reaches the loop.
  obs::RuntimeStats* const rts = config_.runtime_stats.get();
  const bool rt_on = rts != nullptr && rts->active();
  std::vector<obs::ShardRuntime> rt_shards(
      rt_on ? static_cast<std::size_t>(threads) : 0);

  // Slot state shared across workers; mutated only by the slot barrier's
  // completion step, which runs while every worker is blocked.
  SimTime now = 0;
  std::int64_t inflight = 0;
  bool running = true;
  bool interrupted = false;  ///< checkpoint_stop_at drill fired

  // Checkpointing. The blob holds the fold of the per-shard counters and
  // the per-unit RNG streams, never the partition itself, so it is
  // thread-count independent: a run checkpointed with 2 workers resumes
  // bit-identically with 8 (the engine's usual invariance). Saves happen
  // in the completion step -- every worker is blocked, so the shared
  // state is quiescent.
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  std::exception_ptr ckpt_error;  ///< completion step is noexcept
  const auto save_checkpoint = [&](SimTime next_slot) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(next_slot);
    out.put_i64(inflight);
    for (const core::Rng& r : state.gen_rng) {
      out.put_rng(r);
    }
    for (const core::Rng& r : state.arb_rng) {
      out.put_rng(r);
    }
    out.put_i64_vec(token_);
    RunMetrics folded;
    state.fold(folded);
    out.put_i64(folded.offered_packets);
    out.put_i64(folded.delivered_packets);
    out.put_i64(folded.dropped_packets);
    out.put_i64(folded.coupler_transmissions);
    out.put_i64(folded.collisions);
    folded.latency.serialize(out);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, state.voq);
    std::vector<std::int64_t> traffic_state;
    traffic_.checkpoint_state(traffic_state);
    out.put_i64_vec(traffic_state);
    checkpoint_put_telemetry(out, tel, tel_last);
    checkpoint_store(config_.checkpoint_path, out);
  };
  if (config_.checkpoint_resume) {
    std::vector<std::uint8_t> blob;
    if (checkpoint_load(config_.checkpoint_path, config_, nodes_, couplers_,
                        blob)) {
      core::BlobReader in(blob);
      (void)checkpoint_read_header(in, config_, nodes_, couplers_);
      now = in.get_i64();
      inflight = in.get_i64();
      for (core::Rng& r : state.gen_rng) {
        r = in.get_rng();
      }
      for (core::Rng& r : state.arb_rng) {
        r = in.get_rng();
      }
      token_ = in.get_i64_vec();
      // The folded counters land in shard 0; the final fold is an
      // order-independent sum/merge, so the split is irrelevant.
      Shard& s0 = shards[0];
      s0.offered = in.get_i64();
      s0.delivered = in.get_i64();
      s0.dropped = in.get_i64();
      s0.transmissions = in.get_i64();
      s0.collisions = in.get_i64();
      s0.latency.deserialize(in);
      coupler_success = in.get_i64_vec();
      checkpoint_get_voq(in, state.voq, nodes_);
      state.restore_masks();
      traffic_.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
    }
  }

  const auto on_slot_end = [&]() noexcept {
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
    }
    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        obs::ProbeRegistry& reg = tel->probes();
        reg.zero();
        for (const obs::ProbeRegistry& frame : frames) {
          reg.accumulate(frame);
        }
        // Backlog is global state only the completion step knows.
        reg.set(tel->engine_probes().backlog, inflight);
        tel->sample(now);
      }
      tel_last = now;
    }
    const bool more_traffic = now + 1 < horizon;
    const bool keep_draining = config_.drain && inflight > 0;
    if (!(more_traffic || keep_draining)) {
      running = false;
      return;
    }
    ++now;
    if (now > drain_bound) {
      running = false;
      return;
    }
    // The run is definitely continuing into slot `now`: boundary save
    // (same "blob = state at the top of a slot that will execute"
    // contract as the serial loop).
    if (ckpt_every > 0 && now % ckpt_every == 0) {
      try {
        save_checkpoint(now);
        if (config_.checkpoint_stop_at >= 0 &&
            now >= config_.checkpoint_stop_at) {
          interrupted = true;
          running = false;
        }
      } catch (...) {
        ckpt_error = std::current_exception();
        running = false;
      }
    }
  };
  std::barrier<> exchange_barrier(threads);
  std::barrier<decltype(on_slot_end)> slot_barrier(threads, on_slot_end);

  const auto worker = [&](int w) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    obs::ShardRuntime* const rt =
        rt_on ? &rt_shards[static_cast<std::size_t>(w)] : nullptr;
    const std::int64_t loop_start = rt_on ? obs::runtime_now_ns() : 0;
    while (true) {
      const bool measuring = now >= config_.warmup_slots && now < horizon;

      // Generate over the shard's nodes (compact batch into the shard's
      // slice of `senders`), then arbitrate its couplers: feed-local, so
      // no barrier separates the two.
      if (now < horizon) {
        state.generate(shard, now, measuring, 0);
      }
      state.arbitrate(shard, now, measuring, config_.warmup_slots, 0);
      timed_wait(exchange_barrier, rt);

      state.receive(w, measuring);
      if (tel != nullptr && tel->due(now)) {
        // All workers agree on due(now): `now` is slot-barrier state.
        state.snapshot(shard, tel->engine_probes(),
                       frames[static_cast<std::size_t>(w)]);
      }
      if (rt != nullptr) {
        // Slot engines have a fixed one-slot "window".
        ++rt->windows;
        ++rt->lookahead_used;
        ++rt->lookahead_available;
      }
      timed_wait(slot_barrier, rt);
      if (!running) {
        break;
      }
    }
    if (rt != nullptr) {
      rt->work_ns +=
          obs::runtime_now_ns() - loop_start - rt->barrier_wait_ns;
    }
  };

  const std::int64_t run_start = rt_on ? obs::runtime_now_ns() : 0;
  state.run_workers(worker);
  if (rt_on) {
    rts->record_shards("phased_sharded", "open_loop",
                       obs::runtime_now_ns() - run_start, rt_shards);
  }

  if (ckpt_error != nullptr) {
    std::rethrow_exception(ckpt_error);
  }

  RunMetrics metrics;
  metrics.slots = config_.measure_slots;
  state.fold(metrics);
  metrics.backlog = inflight;
  metrics.interrupted = interrupted;
  // Drill interruptions skip finish(): the process "died", and the
  // resumed run continues the telemetry stream where this one stopped.
  if (tel != nullptr && !interrupted) {
    windows.finish();
    detail::fill_metric_probes(*tel, metrics, inflight);
    obs::ProbeRegistry& reg = tel->probes();
    const obs::ProbeId hist = tel->engine_probes().occupancy;
    reg.clear_histogram(hist);
    detail::observe_occupancy(reg, hist, feed_, state.voq, 0, couplers_);
    tel->finish(tel_last);
  }
  return metrics;
}

template <routing::RouteView Routes>
RunMetrics PhasedEngineT<Routes>::run_workload_serial(
    std::vector<std::int64_t>& coupler_success) {
  workload::Workload& load = *config_.workload;
  load.reset();

  // Workload contract: per-node generation streams and per-coupler
  // arbitration streams on EVERY engine, so the run is one universe
  // across phased/sharded/async (see ops_network.hpp detail tags).
  std::vector<core::Rng> gen_rng = node_streams(config_.seed, nodes_);
  std::vector<core::Rng> arb_rng = coupler_streams(config_.seed, couplers_);

  RunMetrics metrics;
  const std::int64_t background_base = load.packet_count();
  const SimTime bound = workload_slot_bound(load);
  std::int64_t inflight = 0;
  bool load_done = false;  ///< as of the end of the previous slot

  VoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()));
  detail::OccupancyMasks masks;
  masks.init(feed_);

  detail::PickScratch picks;
  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));
  struct Delivery {
    VoqEntry entry;
    hypergraph::HyperarcId coupler;
  };
  std::vector<Delivery> deliveries;
  std::vector<workload::WorkloadPacket> inject;
  std::vector<std::int64_t> delivered_ids;
  if (resolve_latency_sketch(config_.latency_mode, nodes_)) {
    metrics.latency.use_sketch();
  }
  metrics.latency.reserve(std::min(background_base, kLatencyReserveCap));

  // Telemetry mirrors run_serial: one pointer test per slot when
  // detached; closed-loop runs have no warmup, so the whole run is one
  // "measure" window.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  if (tel != nullptr && tel->trace_sink() != nullptr) {
    windows = obs::WindowSpans(tel->trace_sink(), tel->tid(), 0, bound + 1);
  }
  const auto fill_probes = [&](const VoqArena& arena) {
    detail::fill_metric_probes(*tel, metrics, inflight);
    obs::ProbeRegistry& reg = tel->probes();
    const obs::ProbeId hist = tel->engine_probes().occupancy;
    reg.clear_histogram(hist);
    detail::observe_occupancy(reg, hist, feed_, arena, 0, couplers_);
  };

  // queue_capacity is 0 in workload mode (validated), so enqueue never
  // drops.
  const auto enqueue = [&](const VoqEntry& entry, hypergraph::Node at) {
    const std::int32_t slot = routes_.next_slot(at, entry.destination);
    const std::size_t qi = static_cast<std::size_t>(
        voq_base_[static_cast<std::size_t>(at)] + slot);
    const std::size_t size = voq.size(qi);
    voq.push(qi, entry);
    if (size == 0) {
      masks.mark_nonempty(feed_, qi);
    }
  };

  load.poll(0, inject);
  SimTime now = 0;
  for (;;) {
    // Phase 1a: inject the packets that became eligible, in the
    // workload's (id-sorted) order.
    for (const workload::WorkloadPacket& packet : inject) {
      ++metrics.offered_packets;
      ++inflight;
      enqueue(VoqEntry{packet.id, packet.destination, now, 0}, packet.source);
    }
    inject.clear();
    // Phase 1b: open-loop background traffic until the workload is
    // complete (load 0 generators never fire).
    if (!load_done) {
      const std::size_t sender_count = traffic_.demand_batch_senders_streams(
          0, nodes_, gen_rng.data(), senders.data());
      metrics.offered_packets += static_cast<std::int64_t>(sender_count);
      inflight += static_cast<std::int64_t>(sender_count);
      for (std::size_t i = 0; i < sender_count; ++i) {
        const SenderDemand d = senders[i];
        if (config_.recorder != nullptr) {
          config_.recorder->record(now, d.source, d.destination);
        }
        enqueue(VoqEntry{background_base + now * nodes_ + d.source,
                         d.destination, now, 0},
                d.source);
      }
    }

    // Phase 2: arbitration, drawing from the coupler's own stream.
    deliveries.clear();
    for (std::size_t aw = 0; aw < masks.active.size(); ++aw) {
      metrics.collisions += detail::pick_then_pop(
          masks.active[aw], aw << 6, feed_, voq, config_.arbitration,
          static_cast<std::size_t>(config_.wavelengths), token_, picks,
          [&](std::size_t h) { return masks.words_of(feed_, h); },
          [&](std::size_t h) -> core::Rng& { return arb_rng[h]; },
          [&](const detail::Pick& pick) {
            VoqEntry entry = voq.pop_front(pick.qi);
            if (voq.empty(pick.qi)) {
              masks.mark_empty(feed_, pick.qi);
            }
            ++entry.hops;
            ++metrics.coupler_transmissions;
            ++coupler_success[pick.coupler];
            deliveries.push_back(Delivery{
                entry, static_cast<hypergraph::HyperarcId>(pick.coupler)});
          });
    }

    // Phase 3: consume winners; workload deliveries feed back.
    delivered_ids.clear();
    for (std::size_t di = 0; di < deliveries.size(); ++di) {
      if (di + kRelayPrefetchAhead < deliveries.size()) {
        const Delivery& ahead = deliveries[di + kRelayPrefetchAhead];
        routes_.prefetch_relay(ahead.coupler, ahead.entry.destination);
      }
      Delivery& d = deliveries[di];
      const hypergraph::Node relay =
          routes_.relay(d.coupler, d.entry.destination);
      if (relay == d.entry.destination) {
        ++metrics.delivered_packets;
        metrics.latency.record(now - d.entry.created + 1);
        if (d.entry.id < background_base) {
          delivered_ids.push_back(d.entry.id);
        }
        --inflight;
      } else {
        enqueue(d.entry, relay);
      }
    }
    for (std::int64_t id : delivered_ids) {
      load.delivered(id);
    }
    if (!delivered_ids.empty()) {
      metrics.makespan_slots = now + 1;
    }
    load_done = load.done();
    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        fill_probes(voq);
        tel->sample(now);
      }
      tel_last = now;
    }

    if (load_done && inflight == 0) {
      break;
    }
    ++now;
    if (now > bound) {
      break;
    }
    if (!load_done) {
      load.poll(now, inject);
    }
  }

  metrics.slots = now + 1;
  metrics.backlog = inflight;
  if (tel != nullptr) {
    windows.finish();
    fill_probes(voq);
    tel->finish(tel_last);
  }
  return metrics;
}

template <routing::RouteView Routes>
RunMetrics PhasedEngineT<Routes>::run_workload_sharded(
    std::vector<std::int64_t>& coupler_success) {
  workload::Workload& load = *config_.workload;
  load.reset();

  const std::int64_t background_base = load.packet_count();
  SlotShards<Routes> state(routes_, feed_, voq_base_, config_, traffic_,
                           token_, coupler_success, background_base);
  using Shard = typename SlotShards<Routes>::Shard;
  const int threads = state.threads;
  std::vector<Shard>& shards = state.shards;
  const SimTime bound = workload_slot_bound(load);

  // Telemetry: per-shard frames merged in the completion step, exactly
  // as in the open-loop sharded mode.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  std::vector<obs::ProbeRegistry> frames;
  if (tel != nullptr) {
    if (tel->trace_sink() != nullptr) {
      windows = obs::WindowSpans(tel->trace_sink(), tel->tid(), 0, bound + 1);
    }
    frames.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      frames.push_back(tel->probes().clone_schema());
    }
  }

  // Runtime channel: as in the open-loop sharded mode.
  obs::RuntimeStats* const rts = config_.runtime_stats.get();
  const bool rt_on = rts != nullptr && rts->active();
  std::vector<obs::ShardRuntime> rt_shards(
      rt_on ? static_cast<std::size_t>(threads) : 0);

  // Slot state shared across workers; mutated only in the slot
  // barrier's completion step (every worker is blocked then). `inject`
  // is read-only during phases.
  SimTime now = 0;
  std::int64_t inflight = 0;
  std::int64_t makespan = 0;
  bool load_done = false;
  bool running = true;
  std::vector<workload::WorkloadPacket> inject;
  load.poll(0, inject);

  const auto on_slot_end = [&]() noexcept {
    bool delivered_any = false;
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      // Feed order across shards is arbitrary but irrelevant: poll()
      // depends only on the delivered SET (workload contract).
      for (std::int64_t id : shard.delivered_ids) {
        load.delivered(id);
        delivered_any = true;
      }
      shard.delivered_ids.clear();
    }
    if (delivered_any) {
      makespan = now + 1;
    }
    load_done = load.done();
    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        obs::ProbeRegistry& reg = tel->probes();
        reg.zero();
        for (const obs::ProbeRegistry& frame : frames) {
          reg.accumulate(frame);
        }
        reg.set(tel->engine_probes().backlog, inflight);
        tel->sample(now);
      }
      tel_last = now;
    }
    inject.clear();
    if (load_done && inflight == 0) {
      running = false;
      return;
    }
    ++now;
    if (now > bound) {
      running = false;
      return;
    }
    if (!load_done) {
      load.poll(now, inject);
    }
  };
  std::barrier<> exchange_barrier(threads);
  std::barrier<decltype(on_slot_end)> slot_barrier(threads, on_slot_end);

  const auto worker = [&](int w) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    obs::ShardRuntime* const rt =
        rt_on ? &rt_shards[static_cast<std::size_t>(w)] : nullptr;
    const std::int64_t loop_start = rt_on ? obs::runtime_now_ns() : 0;
    while (true) {
      // Generate: the shard's slice of the eligible injections, then
      // background traffic over its nodes until the workload completes.
      for (const workload::WorkloadPacket& packet : inject) {
        if (packet.source < shard.node_begin ||
            packet.source >= shard.node_end) {
          continue;
        }
        ++shard.offered;
        ++shard.inflight_delta;
        state.enqueue(shard,
                      detail::queue_of(routes_, voq_base_, packet.source,
                                       packet.destination),
                      VoqEntry{packet.id, packet.destination, now, 0}, true);
      }
      if (!load_done) {
        state.generate(shard, now, true, background_base);
      }
      state.arbitrate(shard, now, true, 0, background_base);
      timed_wait(exchange_barrier, rt);

      state.receive(w, true);
      if (tel != nullptr && tel->due(now)) {
        state.snapshot(shard, tel->engine_probes(),
                       frames[static_cast<std::size_t>(w)]);
      }
      if (rt != nullptr) {
        ++rt->windows;
        ++rt->lookahead_used;
        ++rt->lookahead_available;
      }
      timed_wait(slot_barrier, rt);
      if (!running) {
        break;
      }
    }
    if (rt != nullptr) {
      rt->work_ns +=
          obs::runtime_now_ns() - loop_start - rt->barrier_wait_ns;
    }
  };

  const std::int64_t run_start = rt_on ? obs::runtime_now_ns() : 0;
  state.run_workers(worker);
  if (rt_on) {
    rts->record_shards("phased_sharded", "workload",
                       obs::runtime_now_ns() - run_start, rt_shards);
  }

  RunMetrics metrics;
  metrics.slots = now + 1;
  metrics.makespan_slots = makespan;
  state.fold(metrics);
  metrics.backlog = inflight;
  if (tel != nullptr) {
    windows.finish();
    detail::fill_metric_probes(*tel, metrics, inflight);
    obs::ProbeRegistry& reg = tel->probes();
    const obs::ProbeId hist = tel->engine_probes().occupancy;
    reg.clear_histogram(hist);
    detail::observe_occupancy(reg, hist, feed_, state.voq, 0, couplers_);
    tel->finish(tel_last);
  }
  return metrics;
}

template class PhasedEngineT<routing::CompiledRoutes>;
template class PhasedEngineT<routing::CompressedRoutes>;

}  // namespace otis::sim
