#include "sim/engine.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#include <chrono>
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

/// A slot winner whose receiver relays it onward, posted to the relay
/// owner's outbox. Final deliveries are counted inline during
/// arbitration (counters cannot disturb same-slot winner selection);
/// only relays wait for the receive step, because their enqueues would
/// make queues non-empty for couplers arbitrated later in the slot.
struct Relay {
  VoqEntry entry;
  hypergraph::Node node;
};
static_assert(sizeof(Relay) == 24);

/// An in-flight transmission: coupler -> receivers, landing at the
/// event's calendar time. `measuring` is the transmission slot's flag
/// (deliveries count in the slot that carried them, as on the slot
/// path); workload runs measure every slot.
struct Arrival {
  VoqEntry entry;
  hypergraph::HyperarcId coupler = 0;
  bool measuring = false;
};
static_assert(sizeof(Arrival) == 32);
static_assert(sizeof(CalendarQueue<Arrival>::Entry) == 48);

/// A cross-shard arrival: the consumer replays the producer's
/// push_keyed, so the global (time, seq) pop order is preserved across
/// the handoff.
struct Mail {
  SimTime time = 0;
  std::uint64_t seq = 0;
  Arrival arrival;
};
static_assert(sizeof(Mail) == 48);

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

/// Scheduler of kPhased and kSharded (see engine.hpp): time counts in
/// slots, and a winner reaches its next hop within its own slot.
struct SlotScheduler {
  static constexpr bool kTimed = false;
  static constexpr SimTime kUnitsPerSlot = 1;
  static constexpr const char* kStatsLabel = "phased_sharded";
  using Arena = VoqArena;
  using Message = Relay;
  struct ShardState {};
};

/// Scheduler of kAsync and kAsyncSharded (see engine.hpp): time counts
/// in ticks, and a winner lands on a calendar.
struct CalendarScheduler {
  static constexpr bool kTimed = true;
  static constexpr SimTime kUnitsPerSlot = kTicksPerSlot;
  static constexpr const char* kStatsLabel = "async_sharded";
  using Arena = TimedVoqArena;
  using Message = Mail;
  /// A shard's arrivals, gated request words (in the masks' layout,
  /// unless the gates are open) and landing batch.
  struct ShardState {
    CalendarQueue<Arrival> calendar;
    std::vector<std::uint64_t> eligible;
    std::vector<Landing> landed;
  };

  explicit CalendarScheduler(const TimingModel& model) : timing(model) {
    open = timing.guard() == 0;
    for (hypergraph::HyperarcId h = 0; open && h < timing.coupler_count();
         ++h) {
      open = timing.tuning(h) == 0;
    }
    // A transmission in slot t lands no earlier than (t+1) *
    // kTicksPerSlot + min_propagation, so it cannot reach another
    // shard's landing before slot t + 1 + floor(min_propagation /
    // kTicksPerSlot). Tuning and guard delay eligibility, never a
    // landing, so they cannot widen the window.
    lookahead = std::min<SimTime>(
        kMaxLookaheadSlots, 1 + timing.min_propagation() / kTicksPerSlot);
  }

  const TimingModel& timing;
  /// No tuning latency and no guard band: ready and re-tune never pass
  /// the arbitrating boundary, so the gate reads (and the re-tune
  /// bookkeeping) are skipped outright.
  bool open = true;
  SimTime lookahead = 1;  ///< window of sharded open-loop runs, slots
};

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

/// One shard of a run: its nodes (detail::plan_shards) and couplers,
/// whose queues, occupancy masks and scheduler state only it touches,
/// and its share of the counters.
template <class Sched>
struct Shard : Sched::ShardState {
  std::int64_t node_begin = 0, node_end = 0;
  std::int64_t coupler_begin = 0, coupler_end = 0;
  std::int64_t offered = 0, delivered = 0, dropped = 0;
  std::int64_t transmissions = 0, collisions = 0;
  std::int64_t inflight_delta = 0;  ///< since the last fold
  std::int64_t events_delta = 0;    ///< calendar pushes - pops, ditto
  SimTime makespan_tick = 0;
  bool hop_overflow = false;  ///< a transmission passed VoqEntry::kMaxHops
  LatencyStats latency;
  /// Per consumer shard: relays (slot) or mail (calendar).
  std::vector<std::vector<typename Sched::Message>> outbox;
  std::vector<std::int64_t> delivered_ids;  ///< workload ids this slot
  detail::OccupancyMasks masks;             ///< over the shard's couplers
  detail::PickScratch picks;
  /// Telemetry records per window slot (sampling runs only); their
  /// gauges hold the deltas since the last fold.
  std::vector<obs::EngineSample> samples;
};

/// The shards of `plan`: masks over their own couplers (plus gated
/// request words when `gated`), one outbox per shard, sketch latency
/// stats when `sketch`, and each shard's queues growing in its own pool
/// of `voq`.
template <class Sched>
std::vector<Shard<Sched>> make_shards(
    const detail::ShardPlan& plan, const detail::FeedIndex& feed,
    const std::vector<std::int64_t>& voq_base, typename Sched::Arena& voq,
    bool sketch, bool gated) {
  const std::size_t threads = plan.couplers.size();
  std::vector<Shard<Sched>> shards(threads);
  std::int64_t covered = 0;  ///< end of the previous shard's couplers
  for (std::size_t w = 0; w < threads; ++w) {
    Shard<Sched>& shard = shards[w];
    const auto& mine = plan.couplers[w];
    shard.node_begin = plan.node_cut[w];
    shard.node_end = plan.node_cut[w + 1];
    shard.coupler_begin = mine.empty() ? covered : mine.front();
    shard.coupler_end = covered =
        shard.coupler_begin + static_cast<std::int64_t>(mine.size());
    shard.masks.init(feed, shard.coupler_begin, shard.coupler_end);
    if constexpr (Sched::kTimed) {
      shard.eligible.assign(gated ? shard.masks.request.size() : 0, 0);
    }
    shard.outbox.resize(threads);
    if (sketch) {
      shard.latency.use_sketch();
    }
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
/// touches only its shard's queues, masks, scheduler state and
/// counters, and the tokens, success counts and re-tune gates of the
/// shard's own couplers, so shards run them concurrently; the slot
/// receive step reads the other shards' outboxes between barriers.
template <class Routes, class Sched>
struct Steps {
  using ShardT = Shard<Sched>;
  static constexpr SimTime kUnits = Sched::kUnitsPerSlot;

  const Routes& routes;
  const detail::FeedIndex& feed;
  const std::vector<std::int64_t>& voq_base;
  const SimConfig& config;
  const detail::ShardPlan& plan;
  TrafficGenerator& traffic;
  typename Sched::Arena& voq;
  const Sched& sched;
  std::vector<ShardT>& shards;
  /// Per VOQ (calendar scheduler only): the earliest tick the queue's
  /// next head may transmit after the previous transmission.
  std::vector<SimTime>& retune;
  std::vector<std::int64_t>& token;
  std::vector<std::int64_t>& coupler_success;
  detail::RunStreams& streams;
  /// Compact senders of the current slot; shard w writes the slice at
  /// its node_begin.
  std::vector<SenderDemand>& senders;
  SimTime warmup_tick;  ///< latency counts packets created from here

  /// Queues `entry` on VOQ `qi` of `shard`'s node `at`, reached at
  /// `tick`, dropping it at a full finite queue. A timed record's
  /// transmitter is tuned tuning(next coupler) ticks later; with the
  /// gates open ready is never read, so that lookup is skipped.
  void enqueue(ShardT& shard, std::size_t qi, const VoqEntry& entry,
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
    if constexpr (Sched::kTimed) {
      SimTime ready = tick;
      if (!sched.open) {
        ready = tick + sched.timing.tuning(
                           routes.next_coupler(at, entry.destination));
      }
      voq.push(qi, TimedVoqEntry{entry, ready});
    } else {
      voq.push(qi, entry);
    }
    if (size == 0) {
      shard.masks.mark_nonempty(feed, qi);
    }
  }

  /// Counts a final delivery landing at `at`: latency in whole slots,
  /// a partly used slot rounded up (now - created + 1 on the slot path).
  void deliver(ShardT& shard, const VoqEntry& entry, SimTime at,
               bool measuring) const {
    if (measuring) {
      ++shard.delivered;
      if (entry.created >= warmup_tick) {
        shard.latency.record((at - entry.created + kUnits - 1) / kUnits);
      }
    }
    if (entry.id >= 0) {  // a workload packet
      shard.delivered_ids.push_back(entry.id);
      shard.makespan_tick = std::max(shard.makespan_tick, at);
    }
    --shard.inflight_delta;
  }

  /// Marks `shard`'s non-empty queues in its masks (after a restore).
  void rebuild_masks(ShardT& shard) const {
    for (std::int64_t qi =
             voq_base[static_cast<std::size_t>(shard.node_begin)];
         qi < voq_base[static_cast<std::size_t>(shard.node_end)]; ++qi) {
      if (!voq.empty(static_cast<std::size_t>(qi))) {
        shard.masks.mark_nonempty(feed, static_cast<std::size_t>(qi));
      }
    }
  }

  /// Queues `shard`'s slice of the workload packets `due` at slot `s`'s
  /// boundary, in the workload's (id-sorted) order, under their
  /// workload ids (run_loop checks they fit 31 bits). Workload runs have
  /// unbounded queues, so nothing drops.
  void inject(ShardT& shard, const std::vector<workload::WorkloadPacket>& due,
              SimTime s) const {
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
              VoqEntry{.created = s * kUnits,
                       .id = static_cast<std::int32_t>(packet.id),
                       .destination =
                           static_cast<std::int32_t>(packet.destination)},
              packet.source, s * kUnits, true);
    }
  }

  /// Draws the senders of `shard`'s nodes for slot `s` and queues their
  /// packets at its boundary, id -1 - source: negative, so never taken
  /// for a workload packet, and with the creation slot the packet's
  /// identity (deterministic without a shared counter).
  void generate(ShardT& shard, SimTime s, bool measuring) const {
    const SimTime slot_tick = s * kUnits;
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
                  VoqEntry{.created = slot_tick,
                           .id = static_cast<std::int32_t>(-1 - d.source),
                           .destination =
                               static_cast<std::int32_t>(d.destination)},
                  d.source, slot_tick, measuring);
        });
  }

  /// Arbitrates shard w's occupied couplers in slot `s` and transmits
  /// the winners. Flattened on the slot path: GCC 12 otherwise keeps
  /// the per-pick transmit step out of line (max-inline-insns-single),
  /// which made one-shard sweeps' arbitrate phase ~18% and perfbench
  /// paper_sweep ~4% slower (4-vCPU Xeon, GCC 12.2).
  [[gnu::flatten]] void arbitrate(ShardT& shard, int w, SimTime s,
                                  bool measuring) const
    requires(!Sched::kTimed)
  {
    transmit_winners(shard, w, s, measuring);
  }
  void arbitrate(ShardT& shard, int w, SimTime s, bool measuring) const
    requires(Sched::kTimed)
  {
    transmit_winners(shard, w, s, measuring);
  }

  /// arbitrate's body. Slot path: a final delivery is counted, a relay
  /// posted to its owner's outbox. Calendar path: the heads contend
  /// through the eligibility gate, and each winner lands prop(h) ticks
  /// after the next boundary under its global transmission key (slot,
  /// coupler, winner), on this shard's calendar or, when another shard
  /// owns its relay, through the mailbox. A final delivery stays on
  /// the transmitter's calendar (its landing touches only counters).
  void transmit_winners(ShardT& shard, int w, SimTime s,
                        bool measuring) const {
    const SimTime slot_tick = s * kUnits;
    const std::size_t capacity = static_cast<std::size_t>(config.wavelengths);
    detail::OccupancyMasks& masks = shard.masks;
    const auto transmit = [&](const detail::Pick& pick) {
      const auto h = static_cast<hypergraph::HyperarcId>(pick.coupler);
      VoqEntry entry = voq.pop_front(pick.qi);
      if (voq.empty(pick.qi)) {
        masks.mark_empty(feed, pick.qi);
      }
      if (entry.hops == VoqEntry::kMaxHops) [[unlikely]] {
        shard.hop_overflow = true;  // the run fails at the window end
      }
      ++entry.hops;
      if (measuring) {
        ++shard.transmissions;
        ++coupler_success[pick.coupler];
      }
      if constexpr (!Sched::kTimed) {
        const hypergraph::Node relay = routes.relay(h, entry.destination);
        if (relay != entry.destination) {
          shard
              .outbox[static_cast<std::size_t>(
                  plan.node_owner[static_cast<std::size_t>(relay)])]
              .push_back(Relay{entry, relay});
        } else {
          deliver(shard, entry, slot_tick + 1, measuring);
        }
      } else {
        if (!sched.open) {
          // Transmitter dead time: busy through this slot, re-tunes
          // after. (With gates open the re-tune lands exactly on the
          // next boundary and can never block, so it is not tracked.)
          retune[pick.qi] = slot_tick + kTicksPerSlot + sched.timing.tuning(h);
        }
        const SimTime at =
            slot_tick + kTicksPerSlot + sched.timing.propagation(h);
        const std::uint64_t seq =
            (static_cast<std::uint64_t>(s) * feed.coupler_count() +
             pick.coupler) *
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
        Arrival arrival{entry, h, measuring};
        if (owner != w) {
          shard.outbox[static_cast<std::size_t>(owner)].push_back(
              Mail{at, seq, std::move(arrival)});
        } else {
          shard.calendar.push_keyed(at, seq, std::move(arrival));
        }
      }
    };
    [[maybe_unused]] SimTime guard = 0;
    if constexpr (Sched::kTimed) {
      guard = sched.timing.guard();
    }
    for (std::size_t aw = 0; aw < masks.active.size(); ++aw) {
      const std::int64_t collisions = detail::pick_then_pop(
          masks.active[aw],
          static_cast<std::size_t>(shard.coupler_begin) + (aw << 6), feed,
          voq, config.arbitration, capacity, token, shard.picks,
          [&](std::size_t h) {
            if constexpr (Sched::kTimed) {
              return gated_request(feed, masks, voq, retune, guard,
                                   sched.open, shard.eligible, h, slot_tick);
            } else {
              return masks.words_of(feed, h);
            }
          },
          [&](std::size_t h) -> core::Rng& { return streams.arbitration(h); },
          transmit);
      if (measuring) {
        shard.collisions += collisions;
      }
    }
  }

  /// Slot path: enqueues shard w's inbox, producer by producer (=
  /// coupler order), once every shard arbitrated.
  void receive(int w, bool measuring) const {
    ShardT& shard = shards[static_cast<std::size_t>(w)];
    for (ShardT& producer : shards) {
      std::vector<Relay>& inbox = producer.outbox[static_cast<std::size_t>(w)];
      detail::staged_enqueue(
          routes, voq_base, voq, inbox.size(),
          [&](std::size_t i) {
            return std::pair{inbox[i].node, inbox[i].entry.destination};
          },
          [&](std::size_t i, std::size_t qi) {
            enqueue(shard, qi, inbox[i].entry, inbox[i].node, 0, measuring);
          });
      inbox.clear();
    }
  }

  /// Calendar path: pops every arrival of `shard`'s calendar due by
  /// `until` in (time, seq) order, counting final deliveries as they
  /// pop, and enqueues the relays in pop order through
  /// detail::staged_enqueue, kLandingBatch at a time. A landing never
  /// schedules an event, so popping arrivals before enqueuing them
  /// changes no pop and every VOQ sees the pushes an interleaved
  /// pop-enqueue loop made. Deliveries never enter the batch: a dense
  /// table has no queue at the destination itself.
  void land_due(ShardT& shard, SimTime until) const {
    std::vector<Landing>& batch = shard.landed;
    do {
      batch.clear();
      while (batch.size() < kLandingBatch && !shard.calendar.empty() &&
             shard.calendar.peek().time <= until) {
        const auto event = shard.calendar.pop();
        --shard.events_delta;
        const Arrival& arrival = event.payload;
        const hypergraph::Node relay =
            routes.relay(arrival.coupler, arrival.entry.destination);
        if (relay == arrival.entry.destination) {
          deliver(shard, arrival.entry, event.time, arrival.measuring);
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
            enqueue(shard, qi, l.entry, l.node, l.tick, l.measuring);
          });
    } while (batch.size() == kLandingBatch);
  }

  /// Fills the shard's record for the sampling boundary of window slot
  /// `k` (feed-locality makes the snapshot shard-private).
  void snapshot(ShardT& shard, std::size_t k) const {
    obs::EngineSample& sample = shard.samples[k];
    sample = {.offered = shard.offered,
              .delivered = shard.delivered,
              .transmissions = shard.transmissions,
              .collisions = shard.collisions,
              .dropped = shard.dropped,
              .backlog = shard.inflight_delta,
              .pending_events = shard.events_delta};
    detail::observe_occupancy(sample, feed, voq, shard.coupler_begin,
                              shard.coupler_end);
  }
};

/// Adds every shard's counters to `metrics` (order-independent).
template <class ShardT>
void fold(const std::vector<ShardT>& shards, RunMetrics& metrics) {
  for (const ShardT& shard : shards) {
    metrics.offered_packets += shard.offered;
    metrics.delivered_packets += shard.delivered;
    metrics.dropped_packets += shard.dropped;
    metrics.coupler_transmissions += shard.transmissions;
    metrics.collisions += shard.collisions;
    metrics.latency.merge(shard.latency);
  }
}

using Pending = CalendarQueue<Arrival>::Entry;

/// Checkpoint bytes of a pending arrival: its (time, seq) key, then
/// the payload (re-pushed keyed, the calendar pops it where it was).
void put_arrival(core::BlobWriter& out, const Pending& event) {
  out.put_i64(event.time);
  out.put_u64(event.seq);
  checkpoint_put_entry(out, event.payload.entry);
  out.put_u64(static_cast<std::uint64_t>(event.payload.coupler));
  out.put_u8(event.payload.measuring ? 1 : 0);
}

/// Reads what put_arrival wrote. Throws core::Error unless the arrival
/// names a coupler of a network of `couplers`, and its packet passes
/// checkpoint_get_entry for `nodes` and `boundary_tick`.
Pending get_arrival(core::BlobReader& in, std::int64_t nodes,
                    std::int64_t couplers, SimTime boundary_tick) {
  Pending event;
  event.time = in.get_i64();
  event.seq = in.get_u64();
  event.payload.entry = checkpoint_get_entry(in, nodes, boundary_tick);
  const auto coupler = static_cast<hypergraph::HyperarcId>(in.get_u64());
  event.payload.coupler = coupler;
  event.payload.measuring = in.get_u8() != 0;
  OTIS_REQUIRE(coupler >= 0 && coupler < couplers,
               "checkpoint: in-flight arrival outside the network");
  return event;
}

/// The run loop (see engine.hpp), for one scheduler.
template <class Routes, class Sched>
RunMetrics run_loop(const hypergraph::DirectedHypergraph& hg,
                    const Routes& routes, TrafficGenerator& traffic,
                    const SimConfig& config, const Sched& sched,
                    std::vector<std::int64_t>& coupler_success) {
  using ShardT = Shard<Sched>;
  constexpr bool kTimed = Sched::kTimed;
  constexpr SimTime kUnits = Sched::kUnitsPerSlot;
  const std::int64_t nodes = hg.node_count();
  const std::int64_t couplers = hg.hyperarc_count();
  // Flat VOQ index space: node v's queues are voq_base[v] + slot.
  std::vector<std::int64_t> voq_base(static_cast<std::size_t>(nodes) + 1, 0);
  for (hypergraph::Node v = 0; v < nodes; ++v) {
    voq_base[static_cast<std::size_t>(v) + 1] =
        voq_base[static_cast<std::size_t>(v)] + hg.out_degree(v);
  }
  detail::FeedIndex feed;
  feed.build(hg, voq_base);
  std::vector<std::int64_t> token(static_cast<std::size_t>(couplers), 0);
  std::vector<SimTime> retune(
      kTimed ? static_cast<std::size_t>(voq_base.back()) : 0, 0);
  coupler_success.assign(static_cast<std::size_t>(couplers), 0);

  // The source, chosen once per run: open-loop traffic over a warmup +
  // measure window (+ drain), or a closed-loop workload whose packets
  // carry their ids (>= 0; background traffic's are negative, see
  // generate), measured from slot 0 up to the workload slot bound (skew
  // only defers deliveries by bounded sub-slot amounts, so no extra
  // headroom is needed). The records' narrowed fields must hold every
  // id and creation time, so the run checks both before slot 0.
  workload::Workload* const load = config.workload.get();
  SimTime warmup = config.warmup_slots;
  SimTime horizon = warmup + config.measure_slots;
  if (load != nullptr) {
    load->reset();
    OTIS_REQUIRE(load->packet_count() <= INT32_MAX,
                 "run_engine: a workload holds at most 2^31 - 1 packets "
                 "(VoqEntry keeps the workload id as int32)");
    warmup = 0;
    horizon = detail::workload_slot_bound(*load) + 1;
  }
  const SimTime drain_bound = horizon + kDrainSlots;
  OTIS_REQUIRE((drain_bound + 1) * kUnits <= VoqEntry::kMaxCreated + 1,
               "run_engine: the run's last tick must stay below 2^47 "
               "(VoqEntry keeps creation times in 48 bits)");

  // kPhased and kAsync open-loop runs are one shard on the run stream;
  // every other run draws from the per-unit streams. Windows are
  // lookahead wide for async-sharded open loops, one slot otherwise:
  // delivery feedback gates every workload slot, the slot scheduler
  // meets every slot anyway, and a serial run ends its drain and
  // checkpoints per slot.
  const bool sharded = config.engine == Engine::kSharded ||
                       config.engine == Engine::kAsyncSharded;
  const int threads =
      sharded ? detail::shard_count(config.threads, nodes, couplers) : 1;
  const detail::ShardPlan plan = detail::plan_shards(feed, voq_base, threads);
  detail::RunStreams streams(config.seed, !sharded && load == nullptr, nodes,
                             couplers, threads);
  SimTime window = 1;
  bool gated = false;
  if constexpr (kTimed) {
    window = sharded && load == nullptr ? sched.lookahead : 1;
    gated = !sched.open;
  }

  typename Sched::Arena voq;
  voq.init(static_cast<std::size_t>(voq_base.back()),
           static_cast<std::size_t>(threads));
  std::vector<ShardT> shards = make_shards<Sched>(
      plan, feed, voq_base, voq,
      resolve_latency_sketch(config.latency_mode, nodes), gated);
  std::vector<SenderDemand> senders(static_cast<std::size_t>(nodes));
  const Steps<Routes, Sched> steps{
      .routes = routes, .feed = feed, .voq_base = voq_base,
      .config = config, .plan = plan, .traffic = traffic, .voq = voq,
      .sched = sched, .shards = shards, .retune = retune, .token = token,
      .coupler_success = coupler_success, .streams = streams,
      .senders = senders, .warmup_tick = warmup * kUnits};

  // Telemetry: a record per shard for every slot of the window, folded
  // in the window-end step in slot order -- probe values and timeseries
  // bytes cannot depend on the partition. Backlog and calendar-pending
  // are global gauges rebuilt from their last folded value plus the
  // shards' per-slot deltas.
  obs::Telemetry* const tel = config.telemetry.get();
  obs::WindowSpans windows;
  SimTime tel_last = 0;
  if (tel != nullptr) {
    if (tel->trace_sink() != nullptr) {
      windows = obs::WindowSpans(tel->trace_sink(), tel->tid(), warmup,
                                 horizon);
    }
    if (tel->sampling()) {
      for (ShardT& shard : shards) {
        shard.samples.resize(static_cast<std::size_t>(window));
      }
    }
  }

  // Runtime channel (obs/runtime_stats.hpp): per-shard barrier-wait /
  // window-width / mailbox / calendar-depth accounting for sharded runs
  // at any shard count. The flag is captured once; an attached-but-
  // disabled session never reaches the loop. Sends are counted at the
  // producer before the window barrier, replays at the consumer inside
  // the window-end step (workers blocked), so across a run total sends
  // == total replays; the slot scheduler has neither.
  obs::RuntimeStats* const rts = config.runtime_stats.get();
  const bool rt_on = sharded && rts != nullptr && rts->active();
  std::vector<obs::ShardRuntime> rt_shards(
      rt_on ? static_cast<std::size_t>(threads) : 0);
  PhaseBreakdown* const breakdown =
      !kTimed && threads == 1 ? config.phase_breakdown : nullptr;

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
    for (ShardT& shard : shards) {
      inflight += shard.inflight_delta;
      shard.inflight_delta = 0;
      pending_total += shard.events_delta;
      shard.events_delta = 0;
    }
  };

  // Checkpointing (sim/checkpoint.hpp; open-loop runs only). Saves
  // happen in the window-end step, at the first boundary at or past
  // each checkpoint_every_slots multiple; a blob written at boundary S
  // holds everything needed to run slots S onward, so a resumed run is
  // bit-identical to an uninterrupted one. The blob folds the per-shard
  // counters and keeps the streams, never the partition, so sharded
  // blobs are thread-count independent; calendar entries carry their
  // global (time, seq) keys, and on restore each one lands on the
  // calendar of the shard owning its relay node (final deliveries touch
  // only counters, so any calendar works for them -- shard 0 takes
  // them). Slot runs write no gates and no arrivals.
  const std::int64_t ckpt_every = config.checkpoint_every_slots;
  SimTime next_ckpt =
      ckpt_every > 0 ? ckpt_every : std::numeric_limits<SimTime>::max();
  std::exception_ptr ckpt_error;  ///< the window-end step is noexcept
  const auto save_checkpoint = [&](SimTime boundary) {
    core::BlobWriter out;
    checkpoint_write_header(out, config, nodes, couplers);
    out.put_i64(boundary);
    out.put_i64(inflight);
    out.put_i64(pending_total);
    streams.put(out);
    out.put_i64_vec(token);
    out.put_i64_vec(retune);
    RunMetrics folded;
    fold(shards, folded);
    out.put_i64(folded.offered_packets);
    out.put_i64(folded.delivered_packets);
    out.put_i64(folded.dropped_packets);
    out.put_i64(folded.coupler_transmissions);
    out.put_i64(folded.collisions);
    folded.latency.serialize(out);
    out.put_i64_vec(coupler_success);
    checkpoint_put_voq(out, voq);
    std::uint64_t events = 0;
    if constexpr (kTimed) {
      for (const ShardT& shard : shards) {
        events += shard.calendar.pending();
      }
    }
    out.put_u64(events);
    if constexpr (kTimed) {
      for (const ShardT& shard : shards) {
        shard.calendar.for_each(
            [&](const Pending& event) { put_arrival(out, event); });
      }
    }
    std::vector<std::int64_t> traffic_state;
    traffic.checkpoint_state(traffic_state);
    out.put_i64_vec(traffic_state);
    checkpoint_put_telemetry(out, tel, tel_last);
    if (tel != nullptr) {
      tel->flush();  // the rows the blob covers reach the file first
    }
    checkpoint_store(config.checkpoint_path, out);
  };
  if (config.checkpoint_resume) {
    std::vector<std::uint8_t> blob;
    if (checkpoint_load(config.checkpoint_path, config, nodes, couplers,
                        blob)) {
      core::BlobReader in(blob);
      (void)checkpoint_read_header(in, config, nodes, couplers);
      win_begin = in.get_i64();
      win_end = end_of_window(win_begin);
      if (ckpt_every > 0) {
        next_ckpt = (win_begin / ckpt_every + 1) * ckpt_every;
      }
      inflight = in.get_i64();
      pending_total = in.get_i64();
      streams.get(in);
      // Every vector must have its live length, and every round-robin
      // cursor must name one of its coupler's feeds (arbitration reads
      // request words at the cursor).
      token = in.get_i64_vec();
      OTIS_REQUIRE(token.size() == static_cast<std::size_t>(couplers),
                   "checkpoint: token count mismatch");
      for (std::size_t h = 0; h < token.size(); ++h) {
        OTIS_REQUIRE(token[h] >= 0 &&
                         token[h] < std::max<std::int64_t>(
                                        1, feed.feed_base[h + 1] -
                                               feed.feed_base[h]),
                     "checkpoint: round-robin token outside its feeds");
      }
      const std::size_t gates = retune.size();
      retune = in.get_i64_vec();
      OTIS_REQUIRE(retune.size() == gates,
                   "checkpoint: re-tune gate count mismatch");
      // The folded counters land in shard 0; the final fold is an
      // order-independent sum/merge, so the split is irrelevant.
      ShardT& s0 = shards[0];
      s0.offered = in.get_i64();
      s0.delivered = in.get_i64();
      s0.dropped = in.get_i64();
      s0.transmissions = in.get_i64();
      s0.collisions = in.get_i64();
      s0.latency.deserialize(in);
      OTIS_REQUIRE(s0.latency.max() <= win_begin,
                   "checkpoint: a latency exceeds the elapsed slots");
      OTIS_REQUIRE(s0.latency.count() == 0 || s0.latency.percentile(0.0) >= 1,
                   "checkpoint: a latency is below one slot");
      OTIS_REQUIRE(s0.latency.count() <= s0.delivered,
                   "checkpoint: more latencies than deliveries");
      coupler_success = in.get_i64_vec();
      OTIS_REQUIRE(
          coupler_success.size() == static_cast<std::size_t>(couplers),
          "checkpoint: coupler success count mismatch");
      checkpoint_get_voq(in, voq, nodes, win_begin * kUnits);
      for (ShardT& shard : shards) {
        steps.rebuild_masks(shard);
      }
      const std::uint64_t events = in.get_u64();
      OTIS_REQUIRE(kTimed || events == 0,
                   "checkpoint: a slot run holds no pending arrivals");
      if constexpr (kTimed) {
        for (std::uint64_t i = 0; i < events; ++i) {
          Pending event = get_arrival(in, nodes, couplers, win_begin * kUnits);
          const Arrival& arrival = event.payload;
          const hypergraph::Node relay =
              routes.relay(arrival.coupler, arrival.entry.destination);
          const std::size_t owner =
              relay != arrival.entry.destination
                  ? static_cast<std::size_t>(
                        plan.node_owner[static_cast<std::size_t>(relay)])
                  : 0;
          shards[owner].calendar.push_keyed(event.time, event.seq,
                                            std::move(event.payload));
        }
      }
      traffic.restore_state(in.get_i64_vec());
      tel_last = checkpoint_get_telemetry(in, tel);
    }
  }

  // Workload runs: fold the deltas, feed the deliveries back and decide
  // -- done and drained stops before slot win_begin counts, a slot past
  // the bound counts it -- then poll slot win_begin's injections. The
  // calendar scheduler calls this after each slot's landing, the slot
  // scheduler at each slot's end (after polling slot 0 up front).
  const auto on_feedback = [&]() noexcept {
    fold_deltas();
    for (ShardT& shard : shards) {
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
  if (!kTimed && load != nullptr) {
    load->poll(0, inject);
  }
  const auto any_hop_overflow = [&] {
    return std::any_of(shards.begin(), shards.end(),
                       [](const ShardT& shard) { return shard.hop_overflow; });
  };
  const auto on_window_end = [&]() noexcept {
    if (any_hop_overflow()) {
      running = false;  // before a checkpoint could save the wrapped count
      return;
    }
    if constexpr (kTimed) {
      // Drain the mailboxes while every worker is blocked: a
      // worker-side drain would race with a producer that cleared the
      // barrier first and is already appending next-window mail to the
      // same outbox. Lookahead guarantees every mailed time is at or
      // past the next window's boundary, so the drain order across
      // producers is irrelevant -- pop order is a pure function of
      // (time, seq).
      for (ShardT& producer : shards) {
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
    }
    if (tel != nullptr) {
      for (SimTime s = win_begin; s < win_end; ++s) {
        windows.at_slot(s);
        if (tel->due(s)) {
          const std::size_t k = static_cast<std::size_t>(s - win_begin);
          obs::EngineSample& sample = tel->probes();
          sample = {.backlog = inflight, .pending_events = pending_total};
          for (const ShardT& shard : shards) {
            sample += shard.samples[k];
          }
          tel->sample(s);
        }
        tel_last = s;
      }
    }
    if (load != nullptr) {
      win_begin = win_end++;
      if constexpr (kTimed) {
        fold_deltas();
      } else {
        on_feedback();
      }
      return;
    }
    fold_deltas();
    // Open loop: traffic until the horizon, then drain, cut off at the
    // drain bound.
    const bool more_traffic = win_end < horizon;
    const bool keep_draining = config.drain && inflight > 0;
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
        if (config.checkpoint_stop_at >= 0 &&
            win_begin >= config.checkpoint_stop_at) {
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
  std::barrier<> exchange_barrier(threads);
  std::barrier<decltype(on_window_end)> window_barrier(threads,
                                                       on_window_end);

  const auto worker = [&](int w) {
    using Clock = std::chrono::steady_clock;
    ShardT& shard = shards[static_cast<std::size_t>(w)];
    obs::ShardRuntime* const rt =
        rt_on ? &rt_shards[static_cast<std::size_t>(w)] : nullptr;
    const std::int64_t loop_start = rt_on ? obs::runtime_now_ns() : 0;
    Clock::time_point t0, t1, t2;
    while (running) {
      // Cross-shard arrivals were already replayed onto this shard's
      // calendar by the last window-end step.
      if (rt != nullptr) {
        ++rt->windows;
        rt->lookahead_used += win_end - win_begin;
        rt->lookahead_available += window;
        if constexpr (kTimed) {
          rt->calendar_peak = std::max(
              rt->calendar_peak,
              static_cast<std::int64_t>(shard.calendar.pending()));
        }
      }
      for (SimTime s = win_begin; s < win_end; ++s) {
        const bool measuring = s >= warmup && s < horizon;
        if constexpr (kTimed) {
          // Land every transmission due by this slot boundary: the
          // slot scheduler's receive step runs before the next slot's
          // generate, so arrivals at exactly the boundary precede this
          // slot's work.
          steps.land_due(shard, s * kUnits);
          if (load != nullptr) {
            if (threads > 1) {
              detail::timed_wait(feedback_barrier, rt);
            } else {
              on_feedback();
            }
            if (!running) {
              break;
            }
          }
        }
        if (breakdown != nullptr) {
          t0 = Clock::now();
        }
        if (load != nullptr) {
          steps.inject(shard, inject, s);
        }
        // Traffic until the horizon (open loop) or until the workload
        // completes.
        if (load != nullptr ? !load_done : s < horizon) {
          steps.generate(shard, s, measuring);
        }
        if (breakdown != nullptr) {
          t1 = Clock::now();
        }
        steps.arbitrate(shard, w, s, measuring);
        if constexpr (!kTimed) {
          if (breakdown != nullptr) {
            t2 = Clock::now();
          }
          if (threads > 1) {
            detail::timed_wait(exchange_barrier, rt);
          }
          steps.receive(w, measuring);
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
        }
        // The snapshot point: slot runs sample with relays re-queued,
        // calendar runs with them still in flight.
        if (tel != nullptr && tel->due(s)) {
          steps.snapshot(shard, static_cast<std::size_t>(s - win_begin));
        }
      }
      if (!running) {
        break;  // the feedback step ended the run mid-window
      }
      if constexpr (kTimed) {
        if (rt != nullptr) {
          // Exactly this shard's sends since their consumers last
          // drained them (the window-end step drains them).
          for (const auto& box : shard.outbox) {
            rt->mailbox_msgs_sent += static_cast<std::int64_t>(box.size());
            rt->mailbox_bytes_sent +=
                static_cast<std::int64_t>(box.size() * sizeof(Mail));
          }
        }
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
    rts->record_shards(Sched::kStatsLabel,
                       load != nullptr ? "workload" : "open_loop",
                       obs::runtime_now_ns() - run_start, rt_shards);
  }

  if (ckpt_error != nullptr) {
    std::rethrow_exception(ckpt_error);
  }
  OTIS_REQUIRE(!any_hop_overflow(),
               "run_engine: a packet's hop count overflowed its 16-bit field "
               "(do the routes loop?)");

  // Calendar open loop: land everything still in flight (the last
  // window-end step already drained every mailbox onto the calendars).
  // A landing only counts a delivery or re-enqueues at a relay's VOQ --
  // it never schedules a new event -- so a full per-shard calendar
  // drain empties the system. Per-queue order inside each shard still
  // follows (time, seq); the cross-shard interleaving is irrelevant
  // because a shard's flush touches only its own VOQs and counters.
  // Drill interruptions skip the flush: the checkpoint already captured
  // those events, and the resumed run lands them. Workload runs have no
  // final flush: a run the bound cut off leaves undeliverable events
  // pending and reports them as backlog.
  if constexpr (kTimed) {
    if (load == nullptr && !interrupted) {
      for (ShardT& shard : shards) {
        steps.land_due(shard, std::numeric_limits<SimTime>::max());
      }
    }
  }
  fold_deltas();

  RunMetrics metrics;
  metrics.slots = load != nullptr ? win_begin : config.measure_slots;
  fold(shards, metrics);
  SimTime makespan_tick = 0;
  for (const ShardT& shard : shards) {
    makespan_tick = std::max(makespan_tick, shard.makespan_tick);
  }
  metrics.makespan_slots = (makespan_tick + kUnits - 1) / kUnits;
  metrics.backlog = inflight;
  metrics.interrupted = interrupted;
  // Drill interruptions skip finish(): the process "died", and the
  // resumed run continues the telemetry stream where this one stopped.
  if (tel != nullptr && !interrupted) {
    windows.finish();
    obs::EngineSample& sample = tel->probes();
    sample = {.offered = metrics.offered_packets,
              .delivered = metrics.delivered_packets,
              .transmissions = metrics.coupler_transmissions,
              .collisions = metrics.collisions,
              .dropped = metrics.dropped_packets,
              .backlog = inflight,
              .pending_events = pending_total};
    detail::observe_occupancy(sample, feed, voq, 0, couplers);
    tel->finish(tel_last);
  }
  return metrics;
}

}  // namespace

template <routing::RouteView Routes>
RunMetrics run_engine(const hypergraph::StackGraph& network,
                      const Routes& routes, TrafficGenerator& traffic,
                      const SimConfig& config, const TimingModel* timing,
                      std::vector<std::int64_t>& coupler_success) {
  const hypergraph::DirectedHypergraph& hg = network.hypergraph();
  OTIS_REQUIRE(hg.node_count() <= kMaxPackedNodes,
               "run_engine: node ids must fit in 31 bits (at most 2^31 "
               "nodes): VoqEntry packs ids and destinations as int32");
  if (config.engine != Engine::kAsync &&
      config.engine != Engine::kAsyncSharded) {
    return run_loop(hg, routes, traffic, config, SlotScheduler{},
                    coupler_success);
  }
  OTIS_REQUIRE(timing != nullptr &&
                   timing->coupler_count() == hg.hyperarc_count(),
               "run_engine: timing model sized for another network");
  return run_loop(hg, routes, traffic, config, CalendarScheduler(*timing),
                  coupler_success);
}

template RunMetrics run_engine<routing::CompiledRoutes>(
    const hypergraph::StackGraph&, const routing::CompiledRoutes&,
    TrafficGenerator&, const SimConfig&, const TimingModel*,
    std::vector<std::int64_t>&);
template RunMetrics run_engine<routing::CompressedRoutes>(
    const hypergraph::StackGraph&, const routing::CompressedRoutes&,
    TrafficGenerator&, const SimConfig&, const TimingModel*,
    std::vector<std::int64_t>&);

}  // namespace otis::sim
