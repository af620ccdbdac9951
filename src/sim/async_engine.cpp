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

/// Ceiling on the conservative window width: bounds the per-shard
/// telemetry frame storage and keeps termination/backlog checks (which
/// only happen at window barriers) reasonably fresh under drain.
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

/// Coupler h's request words rebuilt from its feed queues into
/// `request` (the sharded open loop keeps no occupancy masks): occupied
/// heads that pass the gate of gated_request. nullptr when none does.
const std::uint64_t* rebuilt_request(const detail::FeedIndex& fi,
                                     const TimedVoqArena& voq,
                                     const std::vector<SimTime>& retune,
                                     SimTime guard, bool open,
                                     std::vector<std::uint64_t>& request,
                                     std::size_t h, SimTime slot_tick) {
  const std::size_t fb = static_cast<std::size_t>(fi.feed_base[h]);
  const std::size_t source_count =
      static_cast<std::size_t>(fi.feed_base[h + 1]) - fb;
  const std::size_t words = (source_count + 63) / 64;
  request.assign(words, 0);
  std::uint64_t any = 0;
  for (std::size_t si = 0; si < source_count; ++si) {
    const std::size_t qi = static_cast<std::size_t>(fi.feed_qi[fb + si]);
    if (voq.empty(qi) ||
        (!open &&
         std::max(voq.front_ready(qi), retune[qi]) + guard > slot_tick)) {
      continue;
    }
    request[si >> 6] |= std::uint64_t{1} << (si & 63);
    any = 1;
  }
  return any == 0 ? nullptr : request.data();
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

/// One shard of the sharded open loop or the workload loop: its nodes
/// (detail::plan_shards) and couplers, whose queues, occupancy masks
/// (workload loop) and calendar only it touches, and its share of the
/// counters.
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
  /// Occupancy of the shard's couplers and their gated request words
  /// in the masks' layout (workload loop), or one coupler's rebuilt
  /// request words (open loop).
  detail::OccupancyMasks masks;
  std::vector<std::uint64_t> eligible, request;
  detail::PickScratch picks;
  std::vector<Landing> landed;  ///< the landing step's batch
  /// Open-loop telemetry snapshots per window slot (cumulative deltas).
  std::vector<std::int64_t> backlog_snap, events_snap;
};

/// The shards of `plan`: one outbox per shard, latency buffers of
/// reserve(node count) samples, and each shard's queues growing in its
/// own pool of `voq`.
template <class Reserve>
std::vector<Shard> make_shards(const detail::ShardPlan& plan,
                               const std::vector<std::int64_t>& voq_base,
                               TimedVoqArena& voq, bool sketch,
                               Reserve&& reserve) {
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
    shard.outbox.resize(threads);
    if (sketch) {
      shard.latency.use_sketch();
    }
    shard.latency.reserve(reserve(shard.node_end - shard.node_begin));
    for (std::int64_t qi =
             voq_base[static_cast<std::size_t>(shard.node_begin)];
         qi < voq_base[static_cast<std::size_t>(shard.node_end)]; ++qi) {
      voq.set_pool(static_cast<std::size_t>(qi),
                   static_cast<std::uint32_t>(w));
    }
  }
  return shards;
}

/// The per-shard steps of the sharded open loop and the workload loop
/// over one run's arena. Each touches only its shard's queues, masks,
/// calendar and counters, and the retune gates, tokens and success
/// counts of the shard's own couplers, so shards run them concurrently.
template <class Routes>
struct ShardSteps {
  const Routes& routes;
  const detail::FeedIndex& feed;
  const std::vector<std::int64_t>& voq_base;
  const TimingModel& timing;
  const SimConfig& config;
  const detail::ShardPlan& plan;
  TimedVoqArena& voq;
  std::vector<SimTime>& retune;
  std::vector<std::int64_t>& token;
  std::vector<std::int64_t>& coupler_success;
  detail::RunStreams& streams;
  bool open;                  ///< AsyncEngineT::gates_open()
  bool masked;                ///< shards keep masks (the workload loop)
  SimTime warmup_tick;        ///< latency counts packets created from here
  std::int64_t workload_ids;  ///< delivered ids below this are reported

  /// Queues `entry` on VOQ `qi` of `shard`'s node `at`, reached at
  /// `tick`: the serial loop's enqueue, drops included, on the shard's
  /// counters and masks.
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
    if (masked && size == 0) {
      shard.masks.mark_nonempty(feed, qi);
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

  /// Arbitrates shard w's couplers in slot `s` over their
  /// eligibility-gated heads and transmits the winners: the occupied
  /// ones off the masks, or every one with its request words rebuilt
  /// (one shard, gates closed, ran 6% slower with masks). The global
  /// transmission order (slot, coupler, winner) is each arrival's
  /// sequence key, so per-queue pop order matches the serial engine's
  /// single auto-sequenced calendar whatever shard the arrival crosses
  /// into. A final delivery stays on the transmitter's calendar (its
  /// landing touches only counters).
  void arbitrate(Shard& shard, int w, SimTime s, bool measuring) const {
    const SimTime slot_tick = ticks_from_slots(s);
    const SimTime guard = timing.guard();
    const std::uint64_t couplers = feed.coupler_count();
    const std::size_t capacity = static_cast<std::size_t>(config.wavelengths);
    const auto transmit = [&](const detail::Pick& pick) {
      const auto h = static_cast<hypergraph::HyperarcId>(pick.coupler);
      TimedVoqEntry entry = voq.pop_front(pick.qi);
      if (masked && voq.empty(pick.qi)) {
        shard.masks.mark_empty(feed, pick.qi);
      }
      if (!open) {
        // Transmitter dead time: busy through this slot, re-tunes after.
        retune[pick.qi] = slot_tick + kTicksPerSlot + timing.tuning(h);
      }
      ++entry.hops;
      if (measuring) {
        ++shard.transmissions;
        ++coupler_success[pick.coupler];
      }
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
    const detail::OccupancyMasks& masks = shard.masks;
    for (std::int64_t c = shard.coupler_begin; c < shard.coupler_end;
         c += 64) {
      const std::int64_t n = std::min<std::int64_t>(64, shard.coupler_end - c);
      const std::int64_t collisions = detail::pick_then_pop(
          masked ? masks.active[static_cast<std::size_t>(
                       (c - shard.coupler_begin) >> 6)]
          : n == 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << n) - 1,
          static_cast<std::size_t>(c), feed, voq, config.arbitration,
          capacity, token, shard.picks,
          [&](std::size_t h) {
            return masked ? gated_request(feed, masks, voq, retune, guard,
                                          open, shard.eligible, h, slot_tick)
                          : rebuilt_request(feed, voq, retune, guard, open,
                                            shard.request, h, slot_tick);
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
  if (config_.workload != nullptr) {
    return run_workload(coupler_success);
  }
  if (config_.engine == Engine::kAsyncSharded) {
    return run_sharded(coupler_success);
  }
  coupler_success.assign(static_cast<std::size_t>(couplers_), 0);
  // The run stream of the serial phased engine: the zero-delay limit
  // must consume the identical RNG sequence.
  detail::RunStreams streams(config_.seed, true, nodes_, couplers_, 1);
  RunMetrics metrics;
  metrics.slots = config_.measure_slots;
  if (resolve_latency_sketch(config_.latency_mode, nodes_)) {
    metrics.latency.use_sketch();
  }
  metrics.latency.reserve(
      std::min(std::min(config_.measure_slots, kLatencyReserveCap) * nodes_,
               kLatencyReserveCap));

  const SimTime horizon = config_.warmup_slots + config_.measure_slots;
  const SimTime drain_bound = horizon + kDrainSlots;
  const SimTime warmup_tick = ticks_from_slots(config_.warmup_slots);
  const SimTime guard = timing_.guard();
  const bool open = gates_open();
  std::int64_t inflight = 0;
  std::int64_t next_packet_id = 0;

  TimedVoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()));
  detail::OccupancyMasks masks;
  masks.init(feed_);
  CalendarQueue<Arrival> propagations;

  // Hoisted scratch, as in the phased engine.
  detail::PickScratch picks;
  std::vector<Landing> landed;
  std::vector<std::uint64_t> eligible(
      open ? 0 : static_cast<std::size_t>(feed_.mask_base.back()), 0);
  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));
  const std::int64_t queue_cap = config_.queue_capacity;

  // Telemetry: one pointer test per slot when detached, state reads
  // only at sampling boundaries, plus the calendar-queue pending count.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  if (tel != nullptr && tel->trace_sink() != nullptr) {
    windows = obs::WindowSpans(tel->trace_sink(), tel->tid(),
                               config_.warmup_slots, horizon);
  }
  const auto fill_probes = [&]() {
    detail::fill_metric_probes(*tel, metrics, inflight);
    obs::ProbeRegistry& reg = tel->probes();
    reg.set(tel->engine_probes().pending_events,
            static_cast<std::int64_t>(propagations.pending()));
    const obs::ProbeId hist = tel->engine_probes().occupancy;
    reg.clear_histogram(hist);
    detail::observe_occupancy(reg, hist, feed_, voq, 0, couplers_);
  };

  /// Queues `entry` on VOQ `qi` of node `at`; `tick` is when it landed
  /// there (its transmitter is tuned `tuning` ticks later). Mirrors the
  /// phased engine's enqueue, including drop accounting. On the
  /// gates-open fast path ready is never read, so the next-coupler
  /// lookup that only feeds the tuning latency is skipped.
  const auto enqueue = [&](std::size_t qi, const VoqEntry& entry,
                           hypergraph::Node at, SimTime tick,
                           bool measuring) {
    const std::size_t size = voq.size(qi);
    if (queue_cap > 0 && static_cast<std::int64_t>(size) >= queue_cap) {
      if (measuring) {
        ++metrics.dropped_packets;
      }
      --inflight;
      return;
    }
    SimTime ready = tick;
    if (!open) {
      ready = tick +
              timing_.tuning(routes_.next_coupler(at, entry.destination));
    }
    voq.push(qi, TimedVoqEntry{entry.id, entry.destination, entry.created,
                               entry.hops, ready});
    if (size == 0) {
      masks.mark_nonempty(feed_, qi);
    }
  };

  /// Lands every arrival due by `until` (a final delivery is counted in
  /// the slot that carried it).
  const auto land_due = [&](SimTime until) {
    land(
        propagations, until, routes_, voq_base_, voq, landed,
        [&](const Arrival& arrival, SimTime tick) {
          if (arrival.measuring) {
            ++metrics.delivered_packets;
            if (arrival.entry.created >= warmup_tick) {
              metrics.latency.record(
                  latency_slots(tick, arrival.entry.created));
            }
          }
          --inflight;
        },
        enqueue);
  };

  // Checkpointing (sim/checkpoint.hpp): same "blob = state at the top
  // of a slot that will execute" contract as the phased slot loop,
  // plus the async-only state -- re-tune deadlines, the calendar's
  // pending arrivals (re-pushed keyed: pop order is a pure function of
  // (time, seq)) and its auto-sequence counter.
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  const auto save_checkpoint = [&](SimTime next_slot) {
    core::BlobWriter out;
    checkpoint_write_header(out, config_, nodes_, couplers_);
    out.put_i64(next_slot);
    out.put_i64(inflight);
    out.put_i64(next_packet_id);
    streams.put(out);
    out.put_i64_vec(token_);
    out.put_i64_vec(retune_);
    checkpoint_put_metrics(out, metrics);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, voq);
    out.put_u64(propagations.pending());
    propagations.for_each(
        [&](const Pending& event) { put_arrival(out, event); });
    out.put_u64(propagations.next_seq());
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
      streams.get(in);
      token_ = in.get_i64_vec();
      retune_ = in.get_i64_vec();
      checkpoint_get_metrics(in, metrics);
      OTIS_REQUIRE(metrics.latency.max() <= start_slot,
                   "checkpoint: a latency exceeds the elapsed slots");
      coupler_success = in.get_i64_vec();
      checkpoint_get_voq(in, voq, nodes_);
      const std::uint64_t pending = in.get_u64();
      for (std::uint64_t i = 0; i < pending; ++i) {
        Pending event = get_arrival(in, nodes_, couplers_);
        propagations.push_keyed(event.time, event.seq,
                                std::move(event.payload));
      }
      propagations.set_next_seq(in.get_u64());
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
        // Drill hook: pretend the process died right after the write
        // (no in-flight flush, no telemetry finish()).
        metrics.backlog = inflight;
        metrics.interrupted = true;
        return metrics;
      }
    }
    const SimTime slot_tick = ticks_from_slots(now);
    const bool measuring = now >= config_.warmup_slots && now < horizon;

    // Land every transmission due by this slot boundary -- the phased
    // engine's phase 3 runs before the next slot's phase 1, so arrivals
    // at exactly the boundary precede this slot's work.
    land_due(slot_tick);

    // Generate (stops at the horizon; drain only afterwards). Compact
    // batch: only the slot's actual senders come back.
    if (now < horizon) {
      const std::size_t sender_count =
          streams.draw_senders(traffic_, 0, nodes_, senders.data());
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
            enqueue(qi,
                    VoqEntry{next_packet_id++, d.destination, slot_tick, 0},
                    d.source, slot_tick, measuring);
          });
    }

    // Arbitrate: winner selection over the occupied couplers,
    // restricted to head packets whose transmitter tuned in time (the
    // gates-open fast path arbitrates the occupancy words directly).
    for (std::size_t aw = 0; aw < masks.active.size(); ++aw) {
      const std::int64_t collisions = detail::pick_then_pop(
          masks.active[aw], aw << 6, feed_, voq, config_.arbitration,
          static_cast<std::size_t>(config_.wavelengths), token_, picks,
          [&](std::size_t h) {
            return gated_request(feed_, masks, voq, retune_, guard, open,
                                 eligible, h, slot_tick);
          },
          [&](std::size_t h) -> core::Rng& {
            return streams.arbitration(h);
          },
          [&](const detail::Pick& pick) {
            const auto h = static_cast<hypergraph::HyperarcId>(pick.coupler);
            TimedVoqEntry entry = voq.pop_front(pick.qi);
            if (voq.empty(pick.qi)) {
              masks.mark_empty(feed_, pick.qi);
            }
            if (!open) {
              // Transmitter dead time: busy through this slot, re-tunes
              // after. (With gates open the re-tune lands exactly on the
              // next boundary and can never block, so it is not tracked.)
              retune_[pick.qi] =
                  slot_tick + kTicksPerSlot + timing_.tuning(h);
            }
            ++entry.hops;
            if (measuring) {
              ++metrics.coupler_transmissions;
              ++coupler_success[pick.coupler];
            }
            // Propagate: the transmission occupies slot `now` and lands
            // prop(h) ticks after the next boundary.
            propagations.push(
                slot_tick + kTicksPerSlot + timing_.propagation(h),
                Arrival{VoqEntry{entry.id, entry.destination, entry.created,
                                 entry.hops},
                        h, measuring});
          });
      if (measuring) {
        metrics.collisions += collisions;
      }
    }

    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        fill_probes();
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

  // Transmissions of the final slot are still in flight; land them (the
  // phased engine's last phase 3 does the same work inside the slot).
  land_due(std::numeric_limits<SimTime>::max());

  metrics.backlog = inflight;
  if (tel != nullptr) {
    windows.finish();
    fill_probes();
    tel->finish(tel_last);
  }
  return metrics;
}

template <routing::RouteView Routes>
RunMetrics AsyncEngineT<Routes>::run_sharded(
    std::vector<std::int64_t>& coupler_success) {
  const int threads =
      detail::shard_count(config_.threads, nodes_, couplers_);
  const detail::ShardPlan plan =
      detail::plan_shards(feed_, voq_base_, threads);
  coupler_success.assign(static_cast<std::size_t>(couplers_), 0);

  // Per-unit streams (detail::RunStreams), as in the sharded phased
  // engine: the serial run stream cannot be split across shards, so the
  // sharded open loop is a different -- equally valid -- universe; in
  // the slot-aligned limit it is bit-identical to Engine::kSharded.
  detail::RunStreams streams(config_.seed, false, nodes_, couplers_,
                             threads);

  RunMetrics metrics;
  metrics.slots = config_.measure_slots;

  const SimTime horizon = config_.warmup_slots + config_.measure_slots;
  const SimTime drain_bound = horizon + kDrainSlots;
  const SimTime lookahead = lookahead_slots();

  TimedVoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()),
           static_cast<std::size_t>(threads));
  std::vector<Shard> shards = make_shards(
      plan, voq_base_, voq,
      resolve_latency_sketch(config_.latency_mode, nodes_),
      [&](std::int64_t shard_nodes) {
        return std::min(
            std::min(config_.measure_slots, kLatencyReserveCap) * shard_nodes,
            kLatencyReserveCap);
      });
  const ShardSteps<Routes> steps{
      .routes = routes_, .feed = feed_, .voq_base = voq_base_,
      .timing = timing_, .config = config_, .plan = plan, .voq = voq,
      .retune = retune_, .token = token_, .coupler_success = coupler_success,
      .streams = streams, .open = gates_open(), .masked = false,
      .warmup_tick = ticks_from_slots(config_.warmup_slots),
      .workload_ids = 0};
  for (Shard& shard : shards) {
    shard.backlog_snap.assign(static_cast<std::size_t>(lookahead), 0);
    shard.events_snap.assign(static_cast<std::size_t>(lookahead), 0);
  }

  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));

  // Telemetry: per-shard frames for every slot of the window, folded in
  // the window barrier's completion step in slot order -- probe values
  // and timeseries bytes cannot depend on the partition. Backlog and
  // calendar-pending are global gauges reconstructed from the window
  // start value plus the shards' cumulative per-slot deltas.
  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  std::vector<obs::ProbeRegistry> frames;
  if (tel != nullptr) {
    if (tel->trace_sink() != nullptr) {
      windows = obs::WindowSpans(tel->trace_sink(), tel->tid(),
                                 config_.warmup_slots, horizon);
    }
    if (tel->sampling()) {
      frames.reserve(static_cast<std::size_t>(threads) *
                     static_cast<std::size_t>(lookahead));
      for (std::int64_t i = 0; i < threads * lookahead; ++i) {
        frames.push_back(tel->probes().clone_schema());
      }
    }
  }

  // Runtime channel (obs/runtime_stats.hpp): per-shard barrier-wait /
  // window-width / mailbox / calendar-depth accounting. The flag is
  // captured once; an attached-but-disabled session never reaches the
  // loop. Sends are counted at the producer before the barrier, replays
  // at the consumer inside the completion step (workers blocked), so
  // across a run total sends == total replays.
  obs::RuntimeStats* const rts = config_.runtime_stats.get();
  const bool rt_on = rts != nullptr && rts->active();
  std::vector<obs::ShardRuntime> rt_shards(
      rt_on ? static_cast<std::size_t>(threads) : 0);

  // Window state shared across workers; mutated only by the window
  // barrier's completion step, which runs while every worker is blocked.
  SimTime win_begin = 0;
  SimTime win_end = std::min(lookahead, horizon);
  std::int64_t inflight = 0;
  std::int64_t pending_total = 0;
  bool running = true;
  bool interrupted = false;  ///< checkpoint_stop_at drill fired

  // Checkpointing. Saves happen at window boundaries (the completion
  // step, all workers blocked), at the first boundary at or past each
  // checkpoint_every_slots multiple. As in the sharded phased engine
  // the blob folds the per-shard counters and keeps the per-unit RNG
  // streams, so it is thread-count independent; calendar entries carry
  // their global (time, seq) keys, and on restore each one lands on the
  // calendar of the shard owning its relay node (final deliveries touch
  // only counters, so any calendar works for them -- shard 0 takes
  // them).
  const std::int64_t ckpt_every = config_.checkpoint_every_slots;
  SimTime next_ckpt =
      ckpt_every > 0 ? ckpt_every : std::numeric_limits<SimTime>::max();
  std::exception_ptr ckpt_error;  ///< completion step is noexcept
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
      win_end = std::min(win_begin + lookahead,
                         win_begin < horizon ? horizon : drain_bound + 1);
      if (ckpt_every > 0) {
        next_ckpt = (win_begin / ckpt_every + 1) * ckpt_every;
      }
      inflight = in.get_i64();
      pending_total = in.get_i64();
      streams.get(in);
      token_ = in.get_i64_vec();
      retune_ = in.get_i64_vec();
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
                                      static_cast<std::size_t>(lookahead) +
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
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      pending_total += shard.events_delta;
      shard.events_delta = 0;
    }
    const bool more_traffic = win_end < horizon;
    const bool keep_draining = config_.drain && inflight > 0;
    if (!(more_traffic || keep_draining)) {
      running = false;
      return;
    }
    win_begin = win_end;
    if (win_begin > drain_bound) {
      running = false;
      return;
    }
    win_end = std::min(win_begin + lookahead,
                       win_begin < horizon ? horizon : drain_bound + 1);
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
  std::barrier<decltype(on_window_end)> window_barrier(threads,
                                                       on_window_end);

  const auto worker = [&](int w) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    obs::ShardRuntime* const rt =
        rt_on ? &rt_shards[static_cast<std::size_t>(w)] : nullptr;
    const std::int64_t loop_start = rt_on ? obs::runtime_now_ns() : 0;
    while (true) {
      // Cross-shard arrivals were already replayed onto this shard's
      // calendar by the window barrier's completion step.
      if (rt != nullptr) {
        ++rt->windows;
        rt->lookahead_used += win_end - win_begin;
        rt->lookahead_available += lookahead;
        rt->calendar_peak = std::max(
            rt->calendar_peak,
            static_cast<std::int64_t>(shard.calendar.pending()));
      }
      for (SimTime s = win_begin; s < win_end; ++s) {
        const SimTime slot_tick = ticks_from_slots(s);
        const bool measuring = s >= config_.warmup_slots && s < horizon;

        steps.land_due(shard, slot_tick);

        if (s < horizon) {
          SenderDemand* const batch = senders.data() + shard.node_begin;
          const std::size_t sender_count = streams.draw_senders(
              traffic_, shard.node_begin, shard.node_end, batch);
          if (measuring) {
            shard.offered += static_cast<std::int64_t>(sender_count);
          }
          shard.inflight_delta += static_cast<std::int64_t>(sender_count);
          detail::staged_enqueue(
              routes_, voq_base_, voq, sender_count,
              [&](std::size_t i) {
                return std::pair{batch[i].source, batch[i].destination};
              },
              [&](std::size_t i, std::size_t qi) {
                const SenderDemand d = batch[i];
                if (config_.recorder != nullptr) {
                  config_.recorder->record(s, d.source, d.destination);
                }
                // Deterministic id without a shared counter (the sharded
                // phased convention).
                steps.enqueue(shard, qi,
                              VoqEntry{s * nodes_ + d.source, d.destination,
                                       slot_tick, 0},
                              d.source, slot_tick, measuring);
              });
        }

        steps.arbitrate(shard, w, s, measuring);

        if (tel != nullptr && tel->due(s)) {
          const std::size_t k = static_cast<std::size_t>(s - win_begin);
          steps.snapshot(shard, tel->engine_probes(),
                         frames[static_cast<std::size_t>(w) *
                                    static_cast<std::size_t>(lookahead) +
                                k]);
          shard.backlog_snap[k] = shard.inflight_delta;
          shard.events_snap[k] = shard.events_delta;
        }
      }
      if (rt != nullptr) {
        count_sends(shard, *rt);  // drained at the last window barrier
      }
      detail::timed_wait(window_barrier, rt);
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
    rts->record_shards("async_sharded", "open_loop",
                       obs::runtime_now_ns() - run_start, rt_shards);
  }

  if (ckpt_error != nullptr) {
    std::rethrow_exception(ckpt_error);
  }

  // Land everything still in flight (the last window's barrier already
  // drained every mailbox onto the calendars). A landing only counts a
  // delivery or re-enqueues at a relay's VOQ -- it never schedules a
  // new event -- so a full per-shard calendar drain empties the system.
  // Per-queue order inside each shard still follows (time, seq); the
  // cross-shard interleaving is irrelevant because a shard's flush
  // touches only its own VOQs and counters. Drill interruptions skip
  // the flush: the checkpoint already captured those events, and the
  // resumed run lands them.
  if (!interrupted) {
    for (Shard& shard : shards) {
      steps.land_due(shard, std::numeric_limits<SimTime>::max());
    }
  }

  fold(shards, metrics, true);
  for (const Shard& shard : shards) {
    inflight += shard.inflight_delta;
  }
  metrics.backlog = inflight;
  metrics.interrupted = interrupted;
  if (tel != nullptr && !interrupted) {
    windows.finish();
    detail::fill_metric_probes(*tel, metrics, inflight);
    obs::ProbeRegistry& reg = tel->probes();
    reg.set(tel->engine_probes().pending_events, 0);
    const obs::ProbeId hist = tel->engine_probes().occupancy;
    reg.clear_histogram(hist);
    detail::observe_occupancy(reg, hist, feed_, voq, 0, couplers_);
    tel->finish(tel_last);
  }
  return metrics;
}

template <routing::RouteView Routes>
RunMetrics AsyncEngineT<Routes>::run_workload(
    std::vector<std::int64_t>& coupler_success) {
  // kAsync is one shard; kAsyncSharded cuts the same feed-local shards
  // as the open loop. Either way the run is bit-identical: per-node and
  // per-coupler streams, ids fixed by the workload and by (slot,
  // source), and keyed (time, seq) receive order per queue.
  const bool sharded = config_.engine == Engine::kAsyncSharded;
  const int threads =
      sharded ? detail::shard_count(config_.threads, nodes_, couplers_) : 1;
  const detail::ShardPlan plan =
      detail::plan_shards(feed_, voq_base_, threads);
  coupler_success.assign(static_cast<std::size_t>(couplers_), 0);
  workload::Workload& load = *config_.workload;
  load.reset();

  // Delivery feedback gates injection every slot, so the conservative
  // window collapses to one slot: two steps per slot (receive+feed,
  // then inject+arbitrate), each closed by a barrier when there is more
  // than one shard.
  detail::RunStreams streams(config_.seed, false, nodes_, couplers_,
                             threads);

  RunMetrics metrics;
  const std::int64_t background_base = load.packet_count();
  // Shared with the phased engines; skew can only defer deliveries by
  // bounded sub-slot amounts, so no extra headroom needed.
  const SimTime bound = detail::workload_slot_bound(load);
  const bool open = gates_open();

  TimedVoqArena voq;
  voq.init(static_cast<std::size_t>(voq_base_.back()),
           static_cast<std::size_t>(threads));
  std::vector<Shard> shards = make_shards(
      plan, voq_base_, voq,
      resolve_latency_sketch(config_.latency_mode, nodes_),
      [&](std::int64_t) {
        return std::min(load.packet_count() / threads + 1,
                        kLatencyReserveCap);
      });
  for (Shard& shard : shards) {
    shard.masks.init(feed_, shard.coupler_begin, shard.coupler_end);
    shard.eligible.assign(open ? 0 : shard.masks.request.size(), 0);
  }
  // Every slot measures; ids below background_base are the workload's.
  const ShardSteps<Routes> steps{
      .routes = routes_, .feed = feed_, .voq_base = voq_base_,
      .timing = timing_, .config = config_, .plan = plan, .voq = voq,
      .retune = retune_, .token = token_, .coupler_success = coupler_success,
      .streams = streams, .open = open, .masked = true, .warmup_tick = 0,
      .workload_ids = background_base};

  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes_));

  obs::Telemetry* const tel = config_.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  std::vector<obs::ProbeRegistry> frames;
  if (tel != nullptr) {
    if (tel->trace_sink() != nullptr) {
      windows = obs::WindowSpans(tel->trace_sink(), tel->tid(), 0, bound + 1);
    }
    if (tel->sampling()) {
      frames.reserve(static_cast<std::size_t>(threads));
      for (int w = 0; w < threads; ++w) {
        frames.push_back(tel->probes().clone_schema());
      }
    }
  }

  // Runtime channel: as in the open-loop sharded mode, for sharded runs
  // at any shard count, except replays are counted worker-side (each
  // consumer drains its own mailboxes in phase A here).
  obs::RuntimeStats* const rts = config_.runtime_stats.get();
  const bool rt_on = sharded && rts != nullptr && rts->active();
  std::vector<obs::ShardRuntime> rt_shards(
      rt_on ? static_cast<std::size_t>(threads) : 0);

  // Slot state shared across workers; mutated only in the two steps
  // that close the phases (barrier completions, or direct calls on one
  // shard). `inject` is read-only during phases.
  SimTime now = 0;
  std::int64_t inflight = 0;
  std::int64_t pending_total = 0;
  bool load_done = false;
  bool running = true;
  std::vector<workload::WorkloadPacket> inject;

  // After the receives: fold the landings, feed the workload, and
  // decide -- done+empty stops before the slot counts; a bound hit
  // counts the boundary, as the phased engines do.
  const auto on_receives_done = [&]() noexcept {
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      pending_total += shard.events_delta;
      shard.events_delta = 0;
      // Feed order across shards is arbitrary but irrelevant: poll()
      // depends only on the delivered SET (workload contract).
      for (const std::int64_t id : shard.delivered_ids) {
        load.delivered(id);
      }
      shard.delivered_ids.clear();
    }
    load_done = load.done();
    if (load_done && inflight == 0) {
      running = false;
      return;
    }
    if (now > bound) {
      ++now;
      running = false;
      return;
    }
    inject.clear();
    if (!load_done) {
      load.poll(now, inject);
    }
  };
  const auto on_slot_end = [&]() noexcept {
    for (Shard& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      pending_total += shard.events_delta;
      shard.events_delta = 0;
    }
    if (tel != nullptr) {
      windows.at_slot(now);
      if (tel->due(now)) {
        obs::ProbeRegistry& reg = tel->probes();
        reg.zero();
        for (const obs::ProbeRegistry& frame : frames) {
          reg.accumulate(frame);
        }
        reg.set(tel->engine_probes().backlog, inflight);
        reg.set(tel->engine_probes().pending_events, pending_total);
        tel->sample(now);
      }
      tel_last = now;
    }
    ++now;
  };
  std::barrier<decltype(on_receives_done)> receive_barrier(
      threads, on_receives_done);
  std::barrier<decltype(on_slot_end)> slot_barrier(threads, on_slot_end);

  const auto worker = [&](int w) {
    Shard& shard = shards[static_cast<std::size_t>(w)];
    obs::ShardRuntime* const rt =
        rt_on ? &rt_shards[static_cast<std::size_t>(w)] : nullptr;
    const std::int64_t loop_start = rt_on ? obs::runtime_now_ns() : 0;
    while (true) {
      const SimTime slot_tick = ticks_from_slots(now);

      // Phase A: drain the mailboxes (written in the previous slot's
      // phase B), then land everything due at this boundary.
      for (int p = 0; p < threads; ++p) {
        auto& box = shards[static_cast<std::size_t>(p)]
                        .outbox[static_cast<std::size_t>(w)];
        if (rt != nullptr) {
          rt->mailbox_msgs_replayed +=
              static_cast<std::int64_t>(box.size());
        }
        for (Mail& mail : box) {
          shard.calendar.push_keyed(mail.time, mail.seq,
                                    std::move(mail.arrival));
        }
        box.clear();
      }
      if (rt != nullptr) {
        // The feedback-gated window is one slot wide by construction.
        ++rt->windows;
        ++rt->lookahead_used;
        ++rt->lookahead_available;
        rt->calendar_peak = std::max(
            rt->calendar_peak,
            static_cast<std::int64_t>(shard.calendar.pending()));
      }
      steps.land_due(shard, slot_tick);
      if (threads > 1) {
        detail::timed_wait(receive_barrier, rt);
      } else {
        on_receives_done();
      }
      if (!running) {
        break;
      }

      // Phase B: inject the shard's slice of the eligible workload
      // packets, then background traffic, then arbitrate the shard's
      // occupied couplers over their eligibility-gated heads.
      for (const workload::WorkloadPacket& packet : inject) {
        if (packet.source < shard.node_begin ||
            packet.source >= shard.node_end) {
          continue;
        }
        ++shard.offered;
        ++shard.inflight_delta;
        steps.enqueue(shard,
                      detail::queue_of(routes_, voq_base_, packet.source,
                                       packet.destination),
                      VoqEntry{packet.id, packet.destination, slot_tick, 0},
                      packet.source, slot_tick, true);
      }
      if (!load_done) {
        SenderDemand* const batch = senders.data() + shard.node_begin;
        const std::size_t sender_count = streams.draw_senders(
            traffic_, shard.node_begin, shard.node_end, batch);
        shard.offered += static_cast<std::int64_t>(sender_count);
        shard.inflight_delta += static_cast<std::int64_t>(sender_count);
        for (std::size_t i = 0; i < sender_count; ++i) {
          const SenderDemand d = batch[i];
          if (config_.recorder != nullptr) {
            config_.recorder->record(now, d.source, d.destination);
          }
          steps.enqueue(shard,
                        detail::queue_of(routes_, voq_base_, d.source,
                                         d.destination),
                        VoqEntry{background_base + now * nodes_ + d.source,
                                 d.destination, slot_tick, 0},
                        d.source, slot_tick, true);
        }
      }

      steps.arbitrate(shard, w, now, true);

      if (tel != nullptr && tel->due(now)) {
        // Shard-private, so no extra visibility barrier is needed.
        steps.snapshot(shard, tel->engine_probes(),
                       frames[static_cast<std::size_t>(w)]);
      }
      if (rt != nullptr) {
        count_sends(shard, *rt);  // drained in the consumers' phase A
      }
      if (threads > 1) {
        detail::timed_wait(slot_barrier, rt);
      } else {
        on_slot_end();
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
    rts->record_shards("async_sharded", "workload",
                       obs::runtime_now_ns() - run_start, rt_shards);
  }

  // No final flush: a run the bound cut off leaves undeliverable events
  // pending and reports them as backlog.
  metrics.slots = now;
  fold(shards, metrics, true);
  SimTime makespan_tick = 0;
  for (const Shard& shard : shards) {
    makespan_tick = std::max(makespan_tick, shard.makespan_tick);
  }
  metrics.makespan_slots = (makespan_tick + kTicksPerSlot - 1) / kTicksPerSlot;
  metrics.backlog = inflight;
  if (tel != nullptr) {
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
