#include "sim/phased_engine.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <utility>

#include "core/error.hpp"
#include "sim/arbitration.hpp"
#include "sim/checkpoint.hpp"

namespace otis::sim {
namespace {

/// A transmission whose receiver relays it onward. Packets that reached
/// their destination are counted inline during arbitration (metric
/// updates cannot disturb same-slot winner selection); only relays
/// defer to the receive step, because their enqueues would make queues
/// non-empty for couplers arbitrated later in the same slot.
struct Relay {
  VoqEntry entry;
  hypergraph::Node node;
};

/// Per-run state and per-slot steps of the slot loop. The shards come
/// from detail::plan_shards, so a shard's nodes feed exactly its
/// couplers: generation, arbitration and the enqueue of received relays
/// touch only the shard's own VOQs, and each shard keeps the occupancy
/// masks of its couplers. A slot runs
///
///   generate -> arbitrate -> exchange barrier -> receive -> slot barrier
///
/// where arbitrate completes final deliveries inline and posts each
/// relay to the outbox of the relay node's owner, and receive enqueues
/// the shard's inbox producer by producer. Shard coupler ranges ascend
/// with the shard index (checked by plan_shards), so producer order
/// is global coupler order: every VOQ sees the same push order for
/// every shard count. A one-shard run needs neither barrier.
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

  /// `single_stream` selects the run stream (one shard only);
  /// `delivery_bound` sizes the latency buffers (split evenly).
  SlotShards(const Routes& routes_in, const detail::FeedIndex& feed_in,
             const std::vector<std::int64_t>& voq_base_in,
             const SimConfig& config_in, TrafficGenerator& traffic_in,
             std::vector<std::int64_t>& token_in,
             std::vector<std::int64_t>& coupler_success_in, int threads_in,
             bool single_stream, std::int64_t delivery_bound)
      : routes(routes_in),
        feed(feed_in),
        voq_base(voq_base_in),
        config(config_in),
        traffic(traffic_in),
        token(token_in),
        coupler_success(coupler_success_in),
        nodes(static_cast<std::int64_t>(voq_base_in.size()) - 1),
        threads(threads_in),
        plan(detail::plan_shards(feed_in, voq_base_in, threads)),
        streams(config_in.seed, single_stream, nodes,
                static_cast<std::int64_t>(feed_in.coupler_count()), threads),
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

  /// Queues `shard`'s slice of the workload packets eligible in slot
  /// `now`, in the workload's (id-sorted) order. Workload runs have
  /// unbounded queues, so nothing drops.
  void inject(Shard& shard, const std::vector<workload::WorkloadPacket>& due,
              SimTime now) {
    for (const workload::WorkloadPacket& packet : due) {
      if (packet.source < shard.node_begin ||
          packet.source >= shard.node_end) {
        continue;
      }
      ++shard.offered;
      ++shard.inflight_delta;
      enqueue(shard,
              detail::queue_of(routes, voq_base, packet.source,
                               packet.destination),
              VoqEntry{packet.id, packet.destination, now, 0}, true);
    }
  }

  /// Draws the senders of `shard`'s nodes for slot `now` and queues
  /// their packets, ids id_base + now * nodes + source (deterministic
  /// without a shared counter).
  void generate(Shard& shard, SimTime now, bool measuring,
                std::int64_t id_base) {
    SenderDemand* const batch = senders.data() + shard.node_begin;
    const std::size_t count = streams.draw_senders(
        traffic, shard.node_begin, shard.node_end, batch);
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
  /// delivered_ids. Flattened: GCC 12 otherwise keeps the per-pick
  /// transmit step out of line (max-inline-insns-single), which made
  /// one-shard sweeps' arbitrate phase ~18% and perfbench paper_sweep
  /// ~4% slower (4-vCPU Xeon, GCC 12.2).
  [[gnu::flatten]] void arbitrate(Shard& shard, SimTime now, bool measuring,
                                  SimTime warmup, std::int64_t workload_ids) {
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
      if (const std::int64_t id = entry.id; id < workload_ids) {
        shard.delivered_ids.push_back(id);
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
          [&](std::size_t h) -> core::Rng& {
            return streams.arbitration(h);
          },
          transmit);
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

  /// Adds every shard's counters to `metrics` (order-independent); the
  /// run's `last` fold moves the latency samples instead of copying.
  void fold(RunMetrics& metrics, bool last) {
    for (Shard& shard : shards) {
      metrics.offered_packets += shard.offered;
      metrics.delivered_packets += shard.delivered;
      metrics.dropped_packets += shard.dropped;
      metrics.coupler_transmissions += shard.transmissions;
      metrics.collisions += shard.collisions;
      if (last) {
        metrics.latency.merge(std::move(shard.latency));
      } else {
        metrics.latency.merge(shard.latency);
      }
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
  detail::RunStreams streams;
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

  // The source, chosen once per run: open-loop traffic over a warmup +
  // measure window (+ drain), or a closed-loop workload whose packets
  // carry ids [0, workload_ids), with background traffic above them,
  // measured from slot 0 up to the workload slot bound.
  workload::Workload* const load = config_.workload.get();
  std::int64_t workload_ids = 0;
  SimTime warmup = config_.warmup_slots;
  SimTime horizon = warmup + config_.measure_slots;
  if (load != nullptr) {
    load->reset();
    workload_ids = load->packet_count();
    warmup = 0;
    horizon = detail::workload_slot_bound(*load) + 1;
  }
  const SimTime drain_bound = horizon + kDrainSlots;

  // A serial run is one shard drawing from the run stream; sharded and
  // workload runs draw from the per-unit streams.
  const bool sharded = config_.engine == Engine::kSharded;
  const int threads =
      sharded ? detail::shard_count(config_.threads, nodes_, couplers_) : 1;
  SlotShards<Routes> state(
      routes_, feed_, voq_base_, config_, traffic_, token_, coupler_success,
      threads, !sharded && load == nullptr,
      load != nullptr
          ? workload_ids
          : std::min(config_.measure_slots, kLatencyReserveCap) * nodes_);
  using Shard = typename SlotShards<Routes>::Shard;
  std::vector<Shard>& shards = state.shards;

  // Telemetry: per-shard probe frames, folded with order-independent
  // integer adds in the slot-end step -- the merged values are sums
  // over ALL nodes/couplers, so they cannot depend on the partition.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  std::vector<obs::ProbeRegistry> frames;
  if (tel != nullptr) {
    if (tel->trace_sink() != nullptr) {
      windows = obs::WindowSpans(tel->trace_sink(), tel->tid(), warmup,
                                 horizon);
    }
    frames.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w) {
      frames.push_back(tel->probes().clone_schema());
    }
  }

  // Runtime channel (obs/runtime_stats.hpp): wall-clock barrier/work
  // accounting, one private slot per shard, for sharded runs at any
  // shard count. The flag is captured once, so an attached-but-disabled
  // session never reaches the loop.
  obs::RuntimeStats* const rts = config_.runtime_stats.get();
  const bool rt_on = sharded && rts != nullptr && rts->active();
  std::vector<obs::ShardRuntime> rt_shards(
      rt_on ? static_cast<std::size_t>(threads) : 0);
  PhaseBreakdown* const breakdown =
      threads == 1 ? config_.phase_breakdown : nullptr;

  // Slot state shared across workers; mutated only by the slot-end step,
  // which runs while every worker is blocked. `inject` is read-only
  // during the phases.
  SimTime now = 0;
  std::int64_t inflight = 0;
  std::int64_t makespan = 0;
  bool load_done = false;
  bool running = true;
  bool interrupted = false;  ///< checkpoint_stop_at drill fired
  std::vector<workload::WorkloadPacket> inject;

  // Checkpointing (sim/checkpoint.hpp; open-loop runs only). A blob
  // written at the top of slot S is "everything needed to run slots S..
  // onward", so a resumed run is bit-identical to an uninterrupted one.
  // It holds the fold of the per-shard counters and the streams, never
  // the partition, so sharded blobs are thread-count independent. Saves
  // happen in the slot-end step, when the shared state is quiescent.
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  std::exception_ptr ckpt_error;  ///< the slot-end step is noexcept
  const auto save_checkpoint = [&](SimTime next_slot) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(next_slot);
    out.put_i64(inflight);
    state.streams.put(out);
    out.put_i64_vec(token_);
    RunMetrics folded;
    state.fold(folded, false);
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
      state.streams.get(in);
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
      OTIS_REQUIRE(s0.latency.max() <= now,
                   "checkpoint: a latency exceeds the elapsed slots");
      coupler_success = in.get_i64_vec();
      checkpoint_get_voq(in, state.voq, nodes_);
      state.restore_masks();
      traffic_.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
    }
  }
  if (load != nullptr) {
    load->poll(0, inject);
  }

  // Decides whether the run continues into slot now + 1 and advances
  // `now` if so. Open loop: traffic until the horizon, then drain, cut
  // off at the drain bound, with a checkpoint at the top of every
  // boundary slot that will run.
  const auto next_open_slot = [&]() -> bool {
    const bool more_traffic = now + 1 < horizon;
    const bool keep_draining = config_.drain && inflight > 0;
    if (!(more_traffic || keep_draining)) {
      return false;
    }
    ++now;
    if (now > drain_bound) {
      return false;
    }
    if (ckpt_every > 0 && now % ckpt_every == 0) {
      try {
        save_checkpoint(now);
        if (config_.checkpoint_stop_at >= 0 &&
            now >= config_.checkpoint_stop_at) {
          interrupted = true;
          return false;
        }
      } catch (...) {
        ckpt_error = std::current_exception();
        return false;
      }
    }
    return true;
  };
  // Workload: run until it completed and the network drained, cut off
  // past the slot bound; polls the next slot's injections.
  const auto next_workload_slot = [&]() -> bool {
    inject.clear();
    if (load_done && inflight == 0) {
      return false;
    }
    ++now;
    if (now >= horizon) {
      return false;
    }
    if (!load_done) {
      load->poll(now, inject);
    }
    return true;
  };
  const auto on_slot_end = [&]() noexcept {
    bool delivered_any = false;
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      // Only workload runs deliver ids below workload_ids. Feed order
      // across shards is irrelevant: poll() depends only on the
      // delivered SET (workload contract).
      for (const std::int64_t id : shard.delivered_ids) {
        load->delivered(id);
        delivered_any = true;
      }
      shard.delivered_ids.clear();
    }
    if (delivered_any) {
      makespan = now + 1;
    }
    if (load != nullptr) {
      load_done = load->done();
    }
    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        obs::ProbeRegistry& reg = tel->probes();
        reg.zero();
        for (const obs::ProbeRegistry& frame : frames) {
          reg.accumulate(frame);
        }
        // Backlog is global state only the slot-end step knows.
        reg.set(tel->engine_probes().backlog, inflight);
        tel->sample(now);
      }
      tel_last = now;
    }
    running = load != nullptr ? next_workload_slot() : next_open_slot();
  };
  std::barrier<> exchange_barrier(threads);
  std::barrier<decltype(on_slot_end)> slot_barrier(threads, on_slot_end);

  const auto worker = [&](int w) {
    using Clock = std::chrono::steady_clock;
    Shard& shard = shards[static_cast<std::size_t>(w)];
    obs::ShardRuntime* const rt =
        rt_on ? &rt_shards[static_cast<std::size_t>(w)] : nullptr;
    const std::int64_t loop_start = rt_on ? obs::runtime_now_ns() : 0;
    Clock::time_point t0, t1, t2;
    while (true) {
      const bool measuring = now >= warmup && now < horizon;
      if (breakdown != nullptr) {
        t0 = Clock::now();
      }
      // Generate over the shard's nodes: its slice of the eligible
      // injections, then traffic until the horizon (open loop) or until
      // the workload completes. Arbitration follows with no barrier:
      // the shard owns every queue its couplers read.
      if (load != nullptr) {
        state.inject(shard, inject, now);
      }
      if (load != nullptr ? !load_done : now < horizon) {
        state.generate(shard, now, measuring, workload_ids);
      }
      if (breakdown != nullptr) {
        t1 = Clock::now();
      }
      state.arbitrate(shard, now, measuring, warmup, workload_ids);
      if (breakdown != nullptr) {
        t2 = Clock::now();
      }
      if (threads > 1) {
        detail::timed_wait(exchange_barrier, rt);
      }

      state.receive(w, measuring);
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
      if (tel != nullptr && tel->due(now)) {
        // All workers agree on due(now): `now` is slot-end state.
        state.snapshot(shard, tel->engine_probes(),
                       frames[static_cast<std::size_t>(w)]);
      }
      if (rt != nullptr) {
        // Slot engines have a fixed one-slot "window".
        ++rt->windows;
        ++rt->lookahead_used;
        ++rt->lookahead_available;
      }
      if (threads > 1) {
        detail::timed_wait(slot_barrier, rt);
      } else {
        on_slot_end();
      }
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
  detail::run_shards(threads, worker);
  if (rt_on) {
    rts->record_shards("phased_sharded",
                       load != nullptr ? "workload" : "open_loop",
                       obs::runtime_now_ns() - run_start, rt_shards);
  }

  if (ckpt_error != nullptr) {
    std::rethrow_exception(ckpt_error);
  }

  RunMetrics metrics;
  metrics.slots = load != nullptr ? now + 1 : config_.measure_slots;
  metrics.makespan_slots = makespan;
  state.fold(metrics, true);
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

template class PhasedEngineT<routing::CompiledRoutes>;
template class PhasedEngineT<routing::CompressedRoutes>;

}  // namespace otis::sim
