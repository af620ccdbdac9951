#include "sim/async_engine.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#include <exception>
#include <limits>
#include <utility>

#include "core/error.hpp"
#include "sim/arbitration.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/checkpoint.hpp"

namespace otis::sim {
namespace {

/// Ceiling on the conservative window width of async-sharded open-loop
/// runs (every other run's windows are one slot wide): bounds the
/// per-shard telemetry frame storage and keeps termination/backlog
/// checks (which only happen at window ends) reasonably fresh under
/// drain.
constexpr SimTime kMaxLookaheadSlots = 32;

/// Slot-valued latency of a timed delivery: the number of whole slots
/// the packet needed, rounding a partially-used slot up. In the
/// zero-delay limit this equals the phased engine's (now - created + 1).
std::int64_t latency_slots(SimTime delivered_tick, SimTime created_tick) {
  return (delivered_tick - created_tick + kTicksPerSlot - 1) / kTicksPerSlot;
}

/// Coupler h's request words at slot boundary `slot_tick`: its
/// occupancy words when every gate is open; otherwise, written into
/// `eligible` (laid out like the masks' request words), only the heads
/// whose own tuning finished AND whose transmitter re-tuned since the
/// queue's previous transmission, both `guard` ticks before the
/// boundary. nullptr when no head qualifies.
const std::uint64_t* gated_request(const detail::FeedIndex& fi,
                                   const detail::OccupancyMasks& masks,
                                   const TimedVoqArena& voq,
                                   const std::vector<SimTime>& retune,
                                   SimTime guard, bool open,
                                   std::vector<std::uint64_t>& eligible,
                                   std::size_t h, SimTime slot_tick) {
  const std::uint64_t* request = masks.words_of(fi, h);
  if (open) {
    return request;
  }
  const std::size_t fb = static_cast<std::size_t>(fi.feed_base[h]);
  const std::size_t mb =
      static_cast<std::size_t>(fi.mask_base[h] - masks.word_begin);
  const std::size_t words =
      static_cast<std::size_t>(fi.mask_base[h + 1] - fi.mask_base[h]);
  std::uint64_t any = 0;
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::uint64_t bits = request[wi];
    std::uint64_t elig = 0;
    while (bits != 0) {
      const std::size_t si =
          (wi << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      const std::uint64_t bit = bits & (~bits + 1);
      bits &= bits - 1;
      const std::size_t qi = static_cast<std::size_t>(fi.feed_qi[fb + si]);
      if (std::max(voq.front_ready(qi), retune[qi]) + guard <= slot_tick) {
        elig |= bit;
      }
    }
    eligible[mb + wi] = elig;
    any |= elig;
  }
  return any == 0 ? nullptr : eligible.data() + mb;
}

/// An in-flight transmission: coupler -> receivers, landing at the
/// event's calendar time. `measuring` is the transmission slot's flag
/// (the phased engine accounts deliveries in the slot that carried
/// them, so the async engines must too); workload runs measure every
/// slot.
struct Arrival {
  VoqEntry entry;
  hypergraph::HyperarcId coupler = 0;
  bool measuring = false;
};

/// A cross-shard arrival: the consumer replays the producer's
/// push_keyed, so the global (time, seq) pop order is preserved across
/// the handoff.
struct Mail {
  SimTime time = 0;
  std::uint64_t seq = 0;
  Arrival arrival;
};

/// A landed relay waiting for its enqueue at `node`; `tick` is when it
/// landed.
struct Landing {
  VoqEntry entry;
  hypergraph::Node node = 0;
  SimTime tick = 0;
  bool measuring = false;
};

/// Relays per staged enqueue of the landing step: a final drain can
/// land a whole calendar at once, and the batch stays this small.
constexpr std::size_t kLandingBatch = 1024;

/// The landing step: pops every arrival of `calendar` due by `until` in
/// (time, seq) order, calls deliver(arrival, tick) on each final
/// delivery as it pops, and enqueue(qi, entry, node, tick, measuring)
/// on each relay in pop order through detail::staged_enqueue, up to
/// kLandingBatch relays at a time (`batch` is scratch). A landing never
/// schedules an event, so popping arrivals before enqueuing them
/// changes no pop and every VOQ sees the pushes an interleaved
/// pop-enqueue loop made. Deliveries never enter the batch: a dense
/// table has no queue at the destination itself. Returns the number of
/// arrivals popped.
template <class Routes, class Deliver, class Enqueue>
std::int64_t land(CalendarQueue<Arrival>& calendar, SimTime until,
                  const Routes& routes,
                  const std::vector<std::int64_t>& voq_base,
                  const TimedVoqArena& voq, std::vector<Landing>& batch,
                  Deliver&& deliver, Enqueue&& enqueue) {
  std::int64_t popped = 0;
  do {
    batch.clear();
    while (batch.size() < kLandingBatch && !calendar.empty() &&
           calendar.peek().time <= until) {
      const auto event = calendar.pop();
      ++popped;
      const Arrival& arrival = event.payload;
      const hypergraph::Node relay =
          routes.relay(arrival.coupler, arrival.entry.destination);
      if (relay == arrival.entry.destination) {
        deliver(arrival, event.time);
      } else {
        batch.push_back(
            Landing{arrival.entry, relay, event.time, arrival.measuring});
      }
    }
    detail::staged_enqueue(
        routes, voq_base, voq, batch.size(),
        [&](std::size_t i) {
          return std::pair{batch[i].node, batch[i].entry.destination};
        },
        [&](std::size_t i, std::size_t qi) {
          const Landing& l = batch[i];
          enqueue(qi, l.entry, l.node, l.tick, l.measuring);
        });
  } while (batch.size() == kLandingBatch);
  return popped;
}

/// One shard of a run: its nodes (detail::plan_shards) and couplers,
/// whose queues, occupancy masks and calendar only it touches, and its
/// share of the counters.
struct Shard {
  std::int64_t node_begin = 0, node_end = 0;
  std::int64_t coupler_begin = 0, coupler_end = 0;
  std::int64_t offered = 0, delivered = 0, dropped = 0;
  std::int64_t transmissions = 0, collisions = 0;
  std::int64_t inflight_delta = 0;  ///< since the last fold
  std::int64_t events_delta = 0;    ///< calendar pushes - pops, ditto
  SimTime makespan_tick = 0;
  LatencyStats latency;
  CalendarQueue<Arrival> calendar;
  std::vector<std::vector<Mail>> outbox;    ///< per consumer shard
  std::vector<std::int64_t> delivered_ids;  ///< workload ids this slot
  /// Occupancy of the shard's couplers, and their gated request words
  /// in the masks' layout.
  detail::OccupancyMasks masks;
  std::vector<std::uint64_t> eligible;
  detail::PickScratch picks;
  std::vector<Landing> landed;  ///< the landing step's batch
  /// Telemetry snapshots per window slot (deltas since the last fold).
  std::vector<std::int64_t> backlog_snap, events_snap;
};

/// The shards of `plan`: masks over their own couplers (plus gated
/// request words unless `open`), one outbox per shard, snapshots for
/// `window` slots, latency buffers sized for an even share of
/// `delivery_bound` samples, and each shard's queues growing in its
/// own pool of `voq`.
std::vector<Shard> make_shards(const detail::ShardPlan& plan,
                               const detail::FeedIndex& feed,
                               const std::vector<std::int64_t>& voq_base,
                               TimedVoqArena& voq, bool sketch,
                               std::int64_t delivery_bound, bool open,
                               SimTime window) {
  const std::size_t threads = plan.couplers.size();
  std::vector<Shard> shards(threads);
  std::int64_t covered = 0;  ///< end of the previous shard's couplers
  for (std::size_t w = 0; w < threads; ++w) {
    Shard& shard = shards[w];
    const auto& mine = plan.couplers[w];
    shard.node_begin = plan.node_cut[w];
    shard.node_end = plan.node_cut[w + 1];
    shard.coupler_begin = mine.empty() ? covered : mine.front();
    shard.coupler_end = covered =
        shard.coupler_begin + static_cast<std::int64_t>(mine.size());
    shard.masks.init(feed, shard.coupler_begin, shard.coupler_end);
    shard.eligible.assign(open ? 0 : shard.masks.request.size(), 0);
    shard.outbox.resize(threads);
    shard.backlog_snap.assign(static_cast<std::size_t>(window), 0);
    shard.events_snap.assign(static_cast<std::size_t>(window), 0);
    if (sketch) {
      shard.latency.use_sketch();
    }
    shard.latency.reserve(std::min(
        delivery_bound / static_cast<std::int64_t>(threads) + 1,
        kLatencyReserveCap));
    for (std::int64_t qi =
             voq_base[static_cast<std::size_t>(shard.node_begin)];
         qi < voq_base[static_cast<std::size_t>(shard.node_end)]; ++qi) {
      voq.set_pool(static_cast<std::size_t>(qi),
                   static_cast<std::uint32_t>(w));
    }
  }
  return shards;
}

/// The per-shard steps of the run loop over one run's arena. Each
/// touches only its shard's queues, masks, calendar and counters, and
/// the retune gates, tokens and success counts of the shard's own
/// couplers, so shards run them concurrently.
template <class Routes>
struct ShardSteps {
  const Routes& routes;
  const detail::FeedIndex& feed;
  const std::vector<std::int64_t>& voq_base;
  const TimingModel& timing;
  const SimConfig& config;
  const detail::ShardPlan& plan;
  TrafficGenerator& traffic;
  TimedVoqArena& voq;
  std::vector<SimTime>& retune;
  std::vector<std::int64_t>& token;
  std::vector<std::int64_t>& coupler_success;
  detail::RunStreams& streams;
  /// Compact senders of the current slot; shard w writes the slice at
  /// its node_begin.
  std::vector<SenderDemand>& senders;
  bool open;                  ///< AsyncEngineT::gates_open()
  SimTime warmup_tick;        ///< latency counts packets created from here
  std::int64_t workload_ids;  ///< ids below are the workload's packets

  /// Queues `entry` on VOQ `qi` of `shard`'s node `at`, reached at
  /// `tick` (its transmitter is tuned `tuning` ticks later), dropping
  /// it at a full finite queue. On the gates-open fast path ready is
  /// never read, so the next-coupler lookup that only feeds the tuning
  /// latency is skipped.
  void enqueue(Shard& shard, std::size_t qi, const VoqEntry& entry,
               hypergraph::Node at, SimTime tick, bool measuring) const {
    const std::size_t size = voq.size(qi);
    if (config.queue_capacity > 0 &&
        static_cast<std::int64_t>(size) >= config.queue_capacity) {
      if (measuring) {
        ++shard.dropped;
      }
      --shard.inflight_delta;
      return;
    }
    SimTime ready = tick;
    if (!open) {
      ready = tick + timing.tuning(routes.next_coupler(at, entry.destination));
    }
    voq.push(qi, TimedVoqEntry{entry.id, entry.destination, entry.created,
                               entry.hops, ready});
    if (size == 0) {
      shard.masks.mark_nonempty(feed, qi);
    }
  }

  /// Marks `shard`'s non-empty queues in its masks (after a restore).
  void rebuild_masks(Shard& shard) const {
    for (std::int64_t qi =
             voq_base[static_cast<std::size_t>(shard.node_begin)];
         qi < voq_base[static_cast<std::size_t>(shard.node_end)]; ++qi) {
      if (!voq.empty(static_cast<std::size_t>(qi))) {
        shard.masks.mark_nonempty(feed, static_cast<std::size_t>(qi));
      }
    }
  }

  /// Lands every arrival of `shard`'s calendar due by `until`.
  void land_due(Shard& shard, SimTime until) const {
    shard.events_delta -= land(
        shard.calendar, until, routes, voq_base, voq, shard.landed,
        [&](const Arrival& arrival, SimTime tick) {
          if (arrival.measuring) {
            ++shard.delivered;
            if (arrival.entry.created >= warmup_tick) {
              shard.latency.record(
                  latency_slots(tick, arrival.entry.created));
            }
          }
          if (arrival.entry.id < workload_ids) {
            shard.delivered_ids.push_back(arrival.entry.id);
            shard.makespan_tick = std::max(shard.makespan_tick, tick);
          }
          --shard.inflight_delta;
        },
        [&](std::size_t qi, const VoqEntry& entry, hypergraph::Node at,
            SimTime tick, bool measuring) {
          enqueue(shard, qi, entry, at, tick, measuring);
        });
  }

  /// Queues `shard`'s slice of the workload packets `due` at the
  /// boundary `slot_tick`, in the workload's (id-sorted) order.
  void inject(Shard& shard, const std::vector<workload::WorkloadPacket>& due,
              SimTime slot_tick) const {
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
              VoqEntry{packet.id, packet.destination, slot_tick, 0},
              packet.source, slot_tick, true);
    }
  }

  /// Draws the senders of `shard`'s nodes for slot `s` and queues their
  /// packets at its boundary, ids workload_ids + s * nodes + source
  /// (deterministic without a shared counter).
  void generate(Shard& shard, SimTime s, bool measuring) const {
    const SimTime slot_tick = ticks_from_slots(s);
    const std::int64_t nodes = static_cast<std::int64_t>(voq_base.size()) - 1;
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
            config.recorder->record(s, d.source, d.destination);
          }
          enqueue(shard, qi,
                  VoqEntry{workload_ids + s * nodes + d.source,
                           d.destination, slot_tick, 0},
                  d.source, slot_tick, measuring);
        });
  }

  /// Arbitrates shard w's occupied couplers in slot `s` over their
  /// eligibility-gated heads and transmits the winners. The global
  /// transmission order (slot, coupler, winner) is each arrival's
  /// sequence key, so per-queue pop order is the same at every shard
  /// count whatever shard the arrival crosses into. A final delivery
  /// stays on the transmitter's calendar (its landing touches only
  /// counters).
  void arbitrate(Shard& shard, int w, SimTime s, bool measuring) const {
    const SimTime slot_tick = ticks_from_slots(s);
    const SimTime guard = timing.guard();
    const std::uint64_t couplers = feed.coupler_count();
    const std::size_t capacity = static_cast<std::size_t>(config.wavelengths);
    detail::OccupancyMasks& masks = shard.masks;
    const auto transmit = [&](const detail::Pick& pick) {
      const auto h = static_cast<hypergraph::HyperarcId>(pick.coupler);
      TimedVoqEntry entry = voq.pop_front(pick.qi);
      if (voq.empty(pick.qi)) {
        masks.mark_empty(feed, pick.qi);
      }
      if (!open) {
        // Transmitter dead time: busy through this slot, re-tunes after.
        // (With gates open the re-tune lands exactly on the next
        // boundary and can never block, so it is not tracked.)
        retune[pick.qi] = slot_tick + kTicksPerSlot + timing.tuning(h);
      }
      ++entry.hops;
      if (measuring) {
        ++shard.transmissions;
        ++coupler_success[pick.coupler];
      }
      // Propagate: the transmission occupies slot s and lands prop(h)
      // ticks after the next boundary.
      const SimTime at = slot_tick + kTicksPerSlot + timing.propagation(h);
      const std::uint64_t seq =
          (static_cast<std::uint64_t>(s) * couplers + pick.coupler) *
              capacity +
          pick.rank;
      ++shard.events_delta;
      // One shard owns every relay; more look the relay's owner up.
      int owner = w;
      if (plan.couplers.size() > 1) {
        const hypergraph::Node relay = routes.relay(h, entry.destination);
        if (relay != entry.destination) {
          owner = plan.node_owner[static_cast<std::size_t>(relay)];
        }
      }
      Arrival arrival{VoqEntry{entry.id, entry.destination, entry.created,
                               entry.hops},
                      h, measuring};
      if (owner != w) {
        shard.outbox[static_cast<std::size_t>(owner)].push_back(
            Mail{at, seq, std::move(arrival)});
      } else {
        shard.calendar.push_keyed(at, seq, std::move(arrival));
      }
    };
    for (std::size_t aw = 0; aw < masks.active.size(); ++aw) {
      const std::int64_t collisions = detail::pick_then_pop(
          masks.active[aw],
          static_cast<std::size_t>(shard.coupler_begin) + (aw << 6), feed,
          voq, config.arbitration, capacity, token, shard.picks,
          [&](std::size_t h) {
            return gated_request(feed, masks, voq, retune, guard, open,
                                 shard.eligible, h, slot_tick);
          },
          [&](std::size_t h) -> core::Rng& { return streams.arbitration(h); },
          transmit);
      if (measuring) {
        shard.collisions += collisions;
      }
    }
  }

  /// Fills `frame` from `shard` at a sampling boundary (feed-locality
  /// makes the snapshot shard-private).
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
};

/// Adds every shard's counters to `metrics` (order-independent); the
/// run's `last` fold moves the latency samples instead of copying.
void fold(std::vector<Shard>& shards, RunMetrics& metrics, bool last) {
  for (Shard& shard : shards) {
    metrics.offered_packets += shard.offered;
    metrics.delivered_packets += shard.delivered;
    metrics.dropped_packets += shard.dropped;
    metrics.coupler_transmissions += shard.transmissions;
    metrics.collisions += shard.collisions;
    metrics.latency.merge(last ? std::move(shard.latency)
                               : LatencyStats(shard.latency));
  }
}

/// Charges `shard`'s outboxes -- exactly its sends since their
/// consumers last drained them -- to the runtime channel.
void count_sends(const Shard& shard, obs::ShardRuntime& rt) {
  for (const auto& box : shard.outbox) {
    rt.mailbox_msgs_sent += static_cast<std::int64_t>(box.size());
    rt.mailbox_bytes_sent +=
        static_cast<std::int64_t>(box.size() * sizeof(Mail));
  }
}

using Pending = CalendarQueue<Arrival>::Entry;

/// Checkpoint bytes of a pending arrival: its (time, seq) key, then
/// the payload (re-pushed keyed, the calendar pops it where it was).
void put_arrival(core::BlobWriter& out, const Pending& event) {
  out.put_i64(event.time);
  out.put_u64(event.seq);
  out.put_i64(event.payload.entry.id);
  out.put_i64(event.payload.entry.destination);
  out.put_i64(event.payload.entry.created);
  out.put_i64(event.payload.entry.hops);
  out.put_u64(static_cast<std::uint64_t>(event.payload.coupler));
  out.put_u8(event.payload.measuring ? 1 : 0);
}

/// Reads what put_arrival wrote. Throws core::Error unless the arrival
/// names a node and coupler of a network of `nodes` and `couplers`.
Pending get_arrival(core::BlobReader& in, std::int64_t nodes,
                    std::int64_t couplers) {
  Pending event;
  event.time = in.get_i64();
  event.seq = in.get_u64();
  VoqEntry& entry = event.payload.entry;
  entry.id = in.get_i64();
  entry.destination = in.get_i64();
  entry.created = in.get_i64();
  entry.hops = static_cast<std::int32_t>(in.get_i64());
  const auto coupler = static_cast<hypergraph::HyperarcId>(in.get_u64());
  event.payload.coupler = coupler;
  event.payload.measuring = in.get_u8() != 0;
  OTIS_REQUIRE(entry.destination >= 0 && entry.destination < nodes &&
                   entry.hops >= 0 && coupler >= 0 && coupler < couplers,
               "checkpoint: in-flight arrival outside the network");
  return event;
}

}  // namespace

template <routing::RouteView Routes>
AsyncEngineT<Routes>::AsyncEngineT(const hypergraph::StackGraph& network,
                                   const Routes& routes,
                                   TrafficGenerator& traffic,
                                   const SimConfig& config,
                                   const TimingModel& timing)
    : network_(network),
      routes_(routes),
      traffic_(traffic),
      config_(config),
      timing_(timing) {
  const auto& hg = network_.hypergraph();
  nodes_ = hg.node_count();
  couplers_ = hg.hyperarc_count();
  OTIS_REQUIRE(timing_.coupler_count() == couplers_,
               "AsyncEngine: timing model sized for another network");
  OTIS_REQUIRE(nodes_ <= kMaxPackedNodes,
               "AsyncEngine: node ids must fit in 31 bits (at most 2^31 "
               "nodes): the timed VOQ entry packs destinations as int32");
  voq_base_.resize(static_cast<std::size_t>(nodes_) + 1);
  voq_base_[0] = 0;
  for (hypergraph::Node v = 0; v < nodes_; ++v) {
    voq_base_[static_cast<std::size_t>(v) + 1] =
        voq_base_[static_cast<std::size_t>(v)] + hg.out_degree(v);
  }
  feed_.build(hg, voq_base_);
  retune_.assign(static_cast<std::size_t>(voq_base_.back()), 0);
  token_.assign(static_cast<std::size_t>(couplers_), 0);
}

template <routing::RouteView Routes>
bool AsyncEngineT<Routes>::gates_open() const {
  if (timing_.guard() != 0) {
    return false;
  }
  for (hypergraph::HyperarcId h = 0; h < couplers_; ++h) {
    if (timing_.tuning(h) != 0) {
      return false;
    }
  }
  return true;
}

template <routing::RouteView Routes>
SimTime AsyncEngineT<Routes>::lookahead_slots() const {
  // A transmission in slot t lands no earlier than (t+1) * kTicksPerSlot
  // + min_propagation, so it cannot reach another shard's receive step
  // before slot t + 1 + floor(min_propagation / kTicksPerSlot). Tuning
  // and guard delay *eligibility*, never a landing time, so they cannot
  // widen the window.
  return std::min<SimTime>(kMaxLookaheadSlots,
                           1 + timing_.min_propagation() / kTicksPerSlot);
}

template <routing::RouteView Routes>
RunMetrics AsyncEngineT<Routes>::run(
    std::vector<std::int64_t>& coupler_success) {
  coupler_success.assign(static_cast<std::size_t>(couplers_), 0);

  // The source, chosen once per run: open-loop traffic over a warmup +
  // measure window (+ drain), or a closed-loop workload whose packets
  // carry ids [0, workload_ids), with background traffic above them,
  // measured from slot 0 up to the workload slot bound (shared with the
  // phased engines: skew only defers deliveries by bounded sub-slot
  // amounts, so no extra headroom is needed).
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

  // A kAsync open-loop run is one shard on the serial phased engine's
  // run stream (the slot-aligned limit must consume the identical RNG
  // sequence); every other run draws from the per-unit streams, so
  // sharded results hold for every shard count and workload runs agree
  // across engines. Windows are lookahead_slots() wide for sharded open
  // loops, one slot otherwise: delivery feedback gates every workload
  // slot, and a serial run ends its drain and checkpoints per slot.
  const bool sharded = config_.engine == Engine::kAsyncSharded;
  const int threads =
      sharded ? detail::shard_count(config_.threads, nodes_, couplers_) : 1;
  const detail::ShardPlan plan =
      detail::plan_shards(feed_, voq_base_, threads);
  detail::RunStreams streams(config_.seed, !sharded && load == nullptr,
                             nodes_, couplers_, threads);
  const SimTime window = sharded && load == nullptr ? lookahead_slots() : 1;
  const bool open = gates_open();

  TimedVoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()),
           static_cast<std::size_t>(threads));
  std::vector<Shard> shards = make_shards(
      plan, feed_, voq_base_, voq,
      resolve_latency_sketch(config_.latency_mode, nodes_),
      load != nullptr
          ? workload_ids
          : std::min(config_.measure_slots, kLatencyReserveCap) * nodes_,
      open, window);
  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));
  const ShardSteps<Routes> steps{
      .routes = routes_, .feed = feed_, .voq_base = voq_base_,
      .timing = timing_, .config = config_, .plan = plan,
      .traffic = traffic_, .voq = voq, .retune = retune_, .token = token_,
      .coupler_success = coupler_success, .streams = streams,
      .senders = senders, .open = open,
      .warmup_tick = ticks_from_slots(warmup), .workload_ids = workload_ids};

  // Telemetry: per-shard frames for every slot of the window, folded in
  // the window-end step in slot order -- probe values and timeseries
  // bytes cannot depend on the partition. Backlog and calendar-pending
  // are global gauges rebuilt from their last folded value plus the
  // shards' per-slot deltas.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  std::vector<obs::ProbeRegistry> frames;
  if (tel != nullptr) {
    if (tel->trace_sink() != nullptr) {
      windows = obs::WindowSpans(tel->trace_sink(), tel->tid(), warmup,
                                 horizon);
    }
    if (tel->sampling()) {
      frames.reserve(static_cast<std::size_t>(threads * window));
      for (std::int64_t i = 0; i < threads * window; ++i) {
        frames.push_back(tel->probes().clone_schema());
      }
    }
  }

  // Runtime channel (obs/runtime_stats.hpp): per-shard barrier-wait /
  // window-width / mailbox / calendar-depth accounting for sharded runs
  // at any shard count. The flag is captured once; an attached-but-
  // disabled session never reaches the loop. Sends are counted at the
  // producer before the window barrier, replays at the consumer inside
  // the window-end step (workers blocked), so across a run total sends
  // == total replays.
  obs::RuntimeStats* const rts = config_.runtime_stats.get();
  const bool rt_on = sharded && rts != nullptr && rts->active();
  std::vector<obs::ShardRuntime> rt_shards(
      rt_on ? static_cast<std::size_t>(threads) : 0);

  // Window state shared across workers; mutated only by the feedback
  // and window-end steps (barrier completions while every worker is
  // blocked, or direct calls on one shard). `inject` is read-only
  // during a window.
  const auto end_of_window = [&](SimTime begin) {
    return std::min(begin + window,
                    begin < horizon ? horizon : drain_bound + 1);
  };
  SimTime win_begin = 0;
  SimTime win_end = end_of_window(0);
  std::int64_t inflight = 0;
  std::int64_t pending_total = 0;
  bool load_done = false;
  bool running = true;
  bool interrupted = false;  ///< checkpoint_stop_at drill fired
  std::vector<workload::WorkloadPacket> inject;
  const auto fold_deltas = [&] {
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      pending_total += shard.events_delta;
      shard.events_delta = 0;
    }
  };

  // Checkpointing (sim/checkpoint.hpp; open-loop runs only). Saves
  // happen in the window-end step, at the first boundary at or past
  // each checkpoint_every_slots multiple. As in the phased engine the
  // blob folds the per-shard counters and keeps the streams, never the
  // partition, so sharded blobs are thread-count independent; calendar
  // entries carry their global (time, seq) keys, and on restore each
  // one lands on the calendar of the shard owning its relay node (final
  // deliveries touch only counters, so any calendar works for them --
  // shard 0 takes them).
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  SimTime next_ckpt =
      ckpt_every > 0 ? ckpt_every : std::numeric_limits<SimTime>::max();
  std::exception_ptr ckpt_error;  ///< the window-end step is noexcept
  const auto save_checkpoint = [&](SimTime boundary) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(boundary);
    out.put_i64(inflight);
    out.put_i64(pending_total);
    streams.put(out);
    out.put_i64_vec(token_);
    out.put_i64_vec(retune_);
    RunMetrics folded;
    fold(shards, folded, false);
    out.put_i64(folded.offered_packets);
    out.put_i64(folded.delivered_packets);
    out.put_i64(folded.dropped_packets);
    out.put_i64(folded.coupler_transmissions);
    out.put_i64(folded.collisions);
    folded.latency.serialize(out);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, voq);
    std::uint64_t events = 0;
    for (const Shard& shard : shards) {
      events += shard.calendar.pending();
    }
    out.put_u64(events);
    for (const Shard& shard : shards) {
      shard.calendar.for_each(
          [&](const Pending& event) { put_arrival(out, event); });
    }
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
      win_begin = in.get_i64();
      win_end = end_of_window(win_begin);
      if (ckpt_every > 0) {
        next_ckpt = (win_begin / ckpt_every + 1) * ckpt_every;
      }
      inflight = in.get_i64();
      pending_total = in.get_i64();
      streams.get(in);
      token_ = in.get_i64_vec();
      retune_ = in.get_i64_vec();
      // The folded counters land in shard 0; the final fold is an
      // order-independent sum/merge, so the split is irrelevant.
      Shard& s0 = shards[0];
      s0.offered = in.get_i64();
      s0.delivered = in.get_i64();
      s0.dropped = in.get_i64();
      s0.transmissions = in.get_i64();
      s0.collisions = in.get_i64();
      s0.latency.deserialize(in);
      OTIS_REQUIRE(s0.latency.max() <= win_begin,
                   "checkpoint: a latency exceeds the elapsed slots");
      coupler_success = in.get_i64_vec();
      checkpoint_get_voq(in, voq, nodes_);
      for (Shard& shard : shards) {
        steps.rebuild_masks(shard);
      }
      const std::uint64_t events = in.get_u64();
      for (std::uint64_t i = 0; i < events; ++i) {
        Pending event = get_arrival(in, nodes_, couplers_);
        const Arrival& arrival = event.payload;
        const hypergraph::Node relay =
            routes_.relay(arrival.coupler, arrival.entry.destination);
        const std::size_t owner =
            relay != arrival.entry.destination
                ? static_cast<std::size_t>(
                      plan.node_owner[static_cast<std::size_t>(relay)])
                : 0;
        shards[owner].calendar.push_keyed(event.time, event.seq,
                                          std::move(event.payload));
      }
      traffic_.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
    }
  }

  // Workload runs, after each slot's landings: fold them, feed the
  // deliveries back and decide -- done and drained stops before slot
  // win_begin counts, a slot past the bound counts it (as the phased
  // engines do) -- then poll the slot's injections.
  const auto on_feedback = [&]() noexcept {
    fold_deltas();
    for (Shard& shard : shards) {
      // Feed order across shards is arbitrary but irrelevant: poll()
      // depends only on the delivered SET (workload contract).
      for (const std::int64_t id : shard.delivered_ids) {
        load->delivered(id);
      }
      shard.delivered_ids.clear();
    }
    load_done = load->done();
    if (load_done && inflight == 0) {
      running = false;
      return;
    }
    if (win_begin >= horizon) {
      ++win_begin;
      running = false;
      return;
    }
    inject.clear();
    if (!load_done) {
      load->poll(win_begin, inject);
    }
  };
  const auto on_window_end = [&]() noexcept {
    // Drain the mailboxes while every worker is blocked: a worker-side
    // drain would race with a producer that cleared the barrier first
    // and is already appending next-window mail to the same outbox.
    // Lookahead guarantees every mailed time is at or past the next
    // window's boundary, so the drain order across producers is
    // irrelevant -- pop order is a pure function of (time, seq).
    for (Shard& producer : shards) {
      for (int w = 0; w < threads; ++w) {
        auto& box = producer.outbox[static_cast<std::size_t>(w)];
        if (rt_on) {
          rt_shards[static_cast<std::size_t>(w)].mailbox_msgs_replayed +=
              static_cast<std::int64_t>(box.size());
        }
        for (Mail& mail : box) {
          shards[static_cast<std::size_t>(w)].calendar.push_keyed(
              mail.time, mail.seq, std::move(mail.arrival));
        }
        box.clear();
      }
    }
    if (tel != nullptr) {
      for (SimTime s = win_begin; s < win_end; ++s) {
        windows.at_slot(s);
        if (tel->due(s)) {
          const std::size_t k = static_cast<std::size_t>(s - win_begin);
          obs::ProbeRegistry& reg = tel->probes();
          reg.zero();
          std::int64_t backlog = inflight;
          std::int64_t pending = pending_total;
          for (int w = 0; w < threads; ++w) {
            reg.accumulate(frames[static_cast<std::size_t>(w) *
                                      static_cast<std::size_t>(window) +
                                  k]);
            backlog += shards[static_cast<std::size_t>(w)].backlog_snap[k];
            pending += shards[static_cast<std::size_t>(w)].events_snap[k];
          }
          reg.set(tel->engine_probes().backlog, backlog);
          reg.set(tel->engine_probes().pending_events, pending);
          tel->sample(s);
        }
        tel_last = s;
      }
    }
    fold_deltas();
    if (load != nullptr) {
      win_begin = win_end++;
      return;
    }
    // Open loop: traffic until the horizon, then drain, cut off at the
    // drain bound.
    const bool more_traffic = win_end < horizon;
    const bool keep_draining = config_.drain && inflight > 0;
    if (!(more_traffic || keep_draining) || win_end > drain_bound) {
      running = false;
      return;
    }
    win_begin = win_end;
    win_end = end_of_window(win_begin);
    // The run is definitely continuing into [win_begin, win_end): save
    // at the first boundary at or past the next checkpoint multiple.
    if (win_begin >= next_ckpt) {
      try {
        save_checkpoint(win_begin);
        next_ckpt = (win_begin / ckpt_every + 1) * ckpt_every;
        if (config_.checkpoint_stop_at >= 0 &&
            win_begin >= config_.checkpoint_stop_at) {
          interrupted = true;
          running = false;
        }
      } catch (...) {
        ckpt_error = std::current_exception();
        running = false;
      }
    }
  };
  std::barrier<decltype(on_feedback)> feedback_barrier(threads, on_feedback);
  std::barrier<decltype(on_window_end)> window_barrier(threads,
                                                       on_window_end);

  const auto worker = [&](int w) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    obs::ShardRuntime* const rt =
        rt_on ? &rt_shards[static_cast<std::size_t>(w)] : nullptr;
    const std::int64_t loop_start = rt_on ? obs::runtime_now_ns() : 0;
    while (running) {
      // Cross-shard arrivals were already replayed onto this shard's
      // calendar by the last window-end step.
      if (rt != nullptr) {
        ++rt->windows;
        rt->lookahead_used += win_end - win_begin;
        rt->lookahead_available += window;
        rt->calendar_peak = std::max(
            rt->calendar_peak,
            static_cast<std::int64_t>(shard.calendar.pending()));
      }
      for (SimTime s = win_begin; s < win_end; ++s) {
        const bool measuring = s >= warmup && s < horizon;
        // Land every transmission due by this slot boundary -- the
        // phased engine's receive step runs before the next slot's
        // generate, so arrivals at exactly the boundary precede this
        // slot's work.
        steps.land_due(shard, ticks_from_slots(s));
        if (load != nullptr) {
          if (threads > 1) {
            detail::timed_wait(feedback_barrier, rt);
          } else {
            on_feedback();
          }
          if (!running) {
            break;
          }
          steps.inject(shard, inject, ticks_from_slots(s));
        }
        // Traffic until the horizon (open loop) or until the workload
        // completes.
        if (load != nullptr ? !load_done : s < horizon) {
          steps.generate(shard, s, measuring);
        }
        steps.arbitrate(shard, w, s, measuring);
        if (tel != nullptr && tel->due(s)) {
          const std::size_t k = static_cast<std::size_t>(s - win_begin);
          steps.snapshot(shard, tel->engine_probes(),
                         frames[static_cast<std::size_t>(w) *
                                    static_cast<std::size_t>(window) +
                                k]);
          shard.backlog_snap[k] = shard.inflight_delta;
          shard.events_snap[k] = shard.events_delta;
        }
      }
      if (!running) {
        break;  // the feedback step ended the run mid-window
      }
      if (rt != nullptr) {
        count_sends(shard, *rt);  // drained by the window-end step
      }
      if (threads > 1) {
        detail::timed_wait(window_barrier, rt);
      } else {
        on_window_end();
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
    rts->record_shards("async_sharded",
                       load != nullptr ? "workload" : "open_loop",
                       obs::runtime_now_ns() - run_start, rt_shards);
  }

  if (ckpt_error != nullptr) {
    std::rethrow_exception(ckpt_error);
  }

  // Open loop: land everything still in flight (the last window-end
  // step already drained every mailbox onto the calendars). A landing
  // only counts a delivery or re-enqueues at a relay's VOQ -- it never
  // schedules a new event -- so a full per-shard calendar drain empties
  // the system. Per-queue order inside each shard still follows (time,
  // seq); the cross-shard interleaving is irrelevant because a shard's
  // flush touches only its own VOQs and counters. Drill interruptions
  // skip the flush: the checkpoint already captured those events, and
  // the resumed run lands them. Workload runs have no final flush: a
  // run the bound cut off leaves undeliverable events pending and
  // reports them as backlog.
  if (load == nullptr && !interrupted) {
    for (Shard& shard : shards) {
      steps.land_due(shard, std::numeric_limits<SimTime>::max());
    }
  }
  fold_deltas();

  RunMetrics metrics;
  metrics.slots = load != nullptr ? win_begin : config_.measure_slots;
  fold(shards, metrics, true);
  SimTime makespan_tick = 0;
  for (const Shard& shard : shards) {
    makespan_tick = std::max(makespan_tick, shard.makespan_tick);
  }
  metrics.makespan_slots = (makespan_tick + kTicksPerSlot - 1) / kTicksPerSlot;
  metrics.backlog = inflight;
  metrics.interrupted = interrupted;
  // Drill interruptions skip finish(): the process "died", and the
  // resumed run continues the telemetry stream where this one stopped.
  if (tel != nullptr && !interrupted) {
    windows.finish();
    detail::fill_metric_probes(*tel, metrics, inflight);
    obs::ProbeRegistry& reg = tel->probes();
    reg.set(tel->engine_probes().pending_events, pending_total);
    const obs::ProbeId hist = tel->engine_probes().occupancy;
    reg.clear_histogram(hist);
    detail::observe_occupancy(reg, hist, feed_, voq, 0, couplers_);
    tel->finish(tel_last);
  }
  return metrics;
}

template class AsyncEngineT<routing::CompiledRoutes>;
template class AsyncEngineT<routing::CompressedRoutes>;

}  // namespace otis::sim
