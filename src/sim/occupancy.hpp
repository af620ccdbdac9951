#pragma once
/// \file occupancy.hpp
/// Coupler-feed indexing, occupancy bitmasks and the feed-local shard
/// plan for the slot engines.
///
/// Phase 2 of the slot loop asks, for every coupler, "which of my feed
/// VOQs are non-empty?". The seed answered by chasing every feed's ring
/// buffer through two indirections per position; the engines now keep
/// the answer materialized as bitmask words maintained on VOQ push/pop:
///
///  - FeedIndex is the immutable geometry of one network: the flattened
///    feed -> VOQ map (qi = voq_base[source] + slot precomputed per feed
///    position) and the (word, bit) coordinates of each VOQ in its
///    coupler's request mask. Each VOQ feeds exactly one coupler, so the
///    reverse maps are well defined, and the feed positions of coupler h
///    are bits [0, feed_count) of the words at mask_base[h].
///
///  - OccupancyMasks is the per-run mutable state over a coupler range:
///    one request bit per feed position (set iff that VOQ is non-empty)
///    plus a summary bitmap over the range's couplers, so arbitration
///    skips empty couplers with a count-trailing-zeros scan instead of
///    touching their queues at all, and pick_winners consumes the
///    request words directly.
///
///  - plan_shards cuts the nodes into feed-local shards: no coupler's
///    feed set spans a cut, so a shard owns every VOQ its couplers read.
///    The run loop (engine.hpp) runs on it, one-shard runs too: each
///    shard keeps OccupancyMasks over its own couplers, maintained by
///    the shard alone (no atomics, no shared words); the calendar
///    scheduler screens a coupler's request words through its
///    eligibility gate when tuning latencies or a guard band exist.

#include <algorithm>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "hypergraph/stack_graph.hpp"
#include "obs/runtime_stats.hpp"
#include "obs/telemetry.hpp"

namespace otis::sim::detail {

/// Immutable per-network feed geometry (see file comment). Build once
/// per engine; shared by every run mode.
struct FeedIndex {
  std::vector<std::int64_t> feed_base;  ///< per coupler: feed_qi offset (+1)
  std::vector<std::int64_t> feed_qi;    ///< VOQ index per feed position
  std::vector<std::int64_t> mask_base;  ///< per coupler: first word (+1)
  std::vector<std::int64_t> voq_word;   ///< per VOQ: its request word
  std::vector<std::uint8_t> voq_bit;    ///< per VOQ: bit within the word
  std::vector<std::int64_t> voq_coupler;  ///< per VOQ: the coupler it feeds

  void build(const hypergraph::DirectedHypergraph& hg,
             const std::vector<std::int64_t>& voq_base) {
    const hypergraph::HyperarcId couplers = hg.hyperarc_count();
    feed_base.assign(static_cast<std::size_t>(couplers) + 1, 0);
    mask_base.assign(static_cast<std::size_t>(couplers) + 1, 0);
    for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
      const std::int64_t count = hg.coupler_feed(h).count;
      feed_base[static_cast<std::size_t>(h) + 1] =
          feed_base[static_cast<std::size_t>(h)] + count;
      mask_base[static_cast<std::size_t>(h) + 1] =
          mask_base[static_cast<std::size_t>(h)] + (count + 63) / 64;
    }
    feed_qi.assign(static_cast<std::size_t>(feed_base.back()), 0);
    voq_word.assign(static_cast<std::size_t>(voq_base.back()), 0);
    voq_bit.assign(static_cast<std::size_t>(voq_base.back()), 0);
    voq_coupler.assign(static_cast<std::size_t>(voq_base.back()), 0);
    for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
      const hypergraph::CouplerFeed feed = hg.coupler_feed(h);
      for (std::int64_t si = 0; si < feed.count; ++si) {
        const std::size_t qi = static_cast<std::size_t>(
            voq_base[static_cast<std::size_t>(feed.source[si])] +
            feed.slot[si]);
        feed_qi[static_cast<std::size_t>(
            feed_base[static_cast<std::size_t>(h)] + si)] =
            static_cast<std::int64_t>(qi);
        voq_word[qi] = mask_base[static_cast<std::size_t>(h)] + si / 64;
        voq_bit[qi] = static_cast<std::uint8_t>(si % 64);
        voq_coupler[qi] = h;
      }
    }
  }

  [[nodiscard]] std::size_t coupler_count() const noexcept {
    return feed_base.size() - 1;
  }
};

/// Per-run occupancy state over the couplers [begin, end) of a
/// FeedIndex (see file comment); one-shard runs cover every coupler.
/// The owner calls mark_nonempty on a VOQ's 0 -> 1 size transition and
/// mark_empty on 1 -> 0, for VOQs feeding the range only; the engines
/// do this inline in their enqueue/pop paths.
struct OccupancyMasks {
  std::vector<std::uint64_t> request;  ///< mask_base layout from word_begin
  std::vector<std::uint64_t> active;   ///< summary bitmap from coupler_begin
  std::int64_t coupler_begin = 0;
  std::int64_t word_begin = 0;

  void init(const FeedIndex& fi, std::int64_t begin, std::int64_t end) {
    coupler_begin = begin;
    word_begin = fi.mask_base[static_cast<std::size_t>(begin)];
    request.assign(static_cast<std::size_t>(
                       fi.mask_base[static_cast<std::size_t>(end)] -
                       word_begin),
                   0);
    active.assign(static_cast<std::size_t>(end - begin + 63) / 64, 0);
  }

  /// Coupler h's request words (h inside the range).
  [[nodiscard]] const std::uint64_t* words_of(const FeedIndex& fi,
                                              std::size_t h) const {
    return request.data() + (fi.mask_base[h] - word_begin);
  }

  void mark_nonempty(const FeedIndex& fi, std::size_t qi) {
    request[static_cast<std::size_t>(fi.voq_word[qi] - word_begin)] |=
        std::uint64_t{1} << fi.voq_bit[qi];
    const std::uint64_t h =
        static_cast<std::uint64_t>(fi.voq_coupler[qi] - coupler_begin);
    active[h >> 6] |= std::uint64_t{1} << (h & 63);
  }

  void mark_empty(const FeedIndex& fi, std::size_t qi) {
    request[static_cast<std::size_t>(fi.voq_word[qi] - word_begin)] &=
        ~(std::uint64_t{1} << fi.voq_bit[qi]);
    const std::int64_t h = fi.voq_coupler[qi];
    // Clear the summary bit only once every request word went dark.
    for (std::int64_t w = fi.mask_base[static_cast<std::size_t>(h)];
         w < fi.mask_base[static_cast<std::size_t>(h) + 1]; ++w) {
      if (request[static_cast<std::size_t>(w - word_begin)] != 0) {
        return;
      }
    }
    const std::uint64_t bit = static_cast<std::uint64_t>(h - coupler_begin);
    active[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
  }
};

/// Worker count of a sharded run: `requested`, or the hardware thread
/// count when it is <= 0, capped at one shard per node or coupler.
[[nodiscard]] inline int shard_count(int requested, std::int64_t nodes,
                                     std::int64_t couplers) {
  int threads = requested;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (threads <= 0) {
    threads = 1;
  }
  return static_cast<int>(std::min<std::int64_t>(
      threads, std::max<std::int64_t>(1, std::max(nodes, couplers))));
}

/// Runs worker(w) for every shard w on its own thread, or on the
/// calling thread when there is one shard.
template <class Worker>
void run_shards(int shards, const Worker& worker) {
  if (shards == 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(shards));
  for (int w = 0; w < shards; ++w) {
    pool.emplace_back(worker, w);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

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

/// Feed-local partition the shard loops run on: contiguous node
/// ranges whose cuts never split a coupler's feed set, and per-shard
/// coupler lists (ascending ids) owned by the shard holding the
/// coupler's feed nodes. On a stack graph a coupler's feeders are the
/// copies of its base arc's tail and arcs are numbered by tail, so each
/// shard's couplers form one id range and the ranges ascend with the
/// shard index; plan_shards checks both, and the engines rely on them.
struct ShardPlan {
  std::vector<std::int64_t> node_cut;    ///< shards + 1 cut positions
  std::vector<std::int32_t> node_owner;  ///< node -> shard index
  std::vector<std::vector<hypergraph::HyperarcId>> couplers;
};

/// Cuts the nodes behind `voq_base` (node v's VOQs are voq_base[v] ..
/// voq_base[v + 1]) into `shards` feed-local shards (see ShardPlan).
[[nodiscard]] inline ShardPlan plan_shards(
    const FeedIndex& fi, const std::vector<std::int64_t>& voq_base,
    int shards) {
  const std::int64_t nodes = static_cast<std::int64_t>(voq_base.size()) - 1;
  const std::int64_t couplers = static_cast<std::int64_t>(fi.coupler_count());
  ShardPlan plan;
  plan.node_cut.assign(static_cast<std::size_t>(shards) + 1, 0);
  plan.node_cut.back() = nodes;
  plan.couplers.resize(static_cast<std::size_t>(shards));

  // Node of each VOQ, to read coupler feed spans off the FeedIndex.
  std::vector<hypergraph::Node> node_of_queue(
      static_cast<std::size_t>(voq_base.back()));
  for (hypergraph::Node v = 0; v < nodes; ++v) {
    for (std::int64_t qi = voq_base[static_cast<std::size_t>(v)];
         qi < voq_base[static_cast<std::size_t>(v) + 1]; ++qi) {
      node_of_queue[static_cast<std::size_t>(qi)] = v;
    }
  }

  // A cut between nodes k-1 and k is feed-local iff no coupler's feed
  // set spans it. A coupler's owner arbitrates over its feed VOQs while
  // other shards run, which is only safe when every one of those queues
  // lives in the owner's shard -- so cuts inside a feed span are
  // forbidden and the ideal balanced boundaries snap outward to the
  // nearest legal position.
  std::vector<std::uint8_t> allowed(static_cast<std::size_t>(nodes) + 1, 1);
  std::vector<hypergraph::Node> min_source(static_cast<std::size_t>(couplers),
                                           0);
  for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
    const std::size_t fb =
        static_cast<std::size_t>(fi.feed_base[static_cast<std::size_t>(h)]);
    const std::size_t fe = static_cast<std::size_t>(
        fi.feed_base[static_cast<std::size_t>(h) + 1]);
    if (fb == fe) {
      continue;
    }
    hypergraph::Node lo = nodes;
    hypergraph::Node hi = 0;
    for (std::size_t p = fb; p < fe; ++p) {
      const hypergraph::Node v =
          node_of_queue[static_cast<std::size_t>(fi.feed_qi[p])];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    min_source[static_cast<std::size_t>(h)] = lo;
    for (hypergraph::Node k = lo + 1; k <= hi; ++k) {
      allowed[static_cast<std::size_t>(k)] = 0;
    }
  }

  for (int w = 1; w < shards; ++w) {
    const std::int64_t ideal = nodes * w / shards;
    std::int64_t best = 0;
    for (std::int64_t d = 0;; ++d) {
      if (ideal - d >= 0 &&
          allowed[static_cast<std::size_t>(ideal - d)] != 0) {
        best = ideal - d;
        break;
      }
      if (ideal + d <= nodes &&
          allowed[static_cast<std::size_t>(ideal + d)] != 0) {
        best = ideal + d;
        break;
      }
    }
    // Snapping keeps cuts monotone; coinciding cuts leave a shard empty
    // (it still participates in the barriers).
    plan.node_cut[static_cast<std::size_t>(w)] =
        std::max(best, plan.node_cut[static_cast<std::size_t>(w) - 1]);
  }
  plan.node_owner.assign(static_cast<std::size_t>(nodes), 0);
  for (int w = 0; w < shards; ++w) {
    for (std::int64_t v = plan.node_cut[static_cast<std::size_t>(w)];
         v < plan.node_cut[static_cast<std::size_t>(w) + 1]; ++v) {
      plan.node_owner[static_cast<std::size_t>(v)] =
          static_cast<std::int32_t>(w);
    }
  }
  for (hypergraph::HyperarcId h = 0; h < couplers; ++h) {
    plan.couplers[static_cast<std::size_t>(
                      plan.node_owner[static_cast<std::size_t>(
                          min_source[static_cast<std::size_t>(h)])])]
        .push_back(h);
  }
  hypergraph::HyperarcId next = 0;  // shard by shard: 0, 1, 2, ...
  for (const auto& mine : plan.couplers) {
    for (const hypergraph::HyperarcId h : mine) {
      OTIS_REQUIRE(h == next++,
                   "plan_shards: shard couplers are not ascending ranges");
    }
  }
  return plan;
}

/// The VOQ a packet for `dest` joins at node `at`.
template <class Routes>
[[nodiscard]] std::size_t queue_of(const Routes& routes,
                                   const std::vector<std::int64_t>& voq_base,
                                   std::int64_t at, std::int64_t dest) {
  return static_cast<std::size_t>(voq_base[static_cast<std::size_t>(at)] +
                                  routes.next_slot(at, dest));
}

/// Packets per stage of staged_enqueue (see there).
constexpr std::size_t kEnqueueStage = 4;

/// Calls enqueue(i, qi) for i in [0, n) in order, where qi is the VOQ
/// item i joins: queue_of(routes, voq_base, at, dest) for
/// {at, dest} = node_dest(i). While item i is enqueued, the loop
/// prefetches the tail slot of item i + kEnqueueStage's queue, computes
/// item i + 2 * kEnqueueStage's queue index (carried forward, never
/// looked up twice) and prefetches its header, and prefetches the
/// route row of item i + 3 * kEnqueueStage -- each load issued after
/// the one it depends on was warmed. The hints are issued only when
/// voq.prefetching(); the enqueue order is the same either way.
template <class Routes, class Arena, class NodeDest, class Enqueue>
void staged_enqueue(const Routes& routes,
                    const std::vector<std::int64_t>& voq_base,
                    const Arena& voq, std::size_t n, NodeDest&& node_dest,
                    Enqueue&& enqueue) {
  constexpr std::size_t k = kEnqueueStage;
  constexpr std::size_t kRing = 4 * k;  ///< > the 2k + 1 indices in flight
  std::size_t ring[kRing] = {};
  // Instantiated with and without the hints, as in pick_then_pop.
  const auto run = [&](auto warm) {
    constexpr bool kWarm = decltype(warm)::value;
    for (std::size_t j = 0; j < n + 3 * k; ++j) {
      if (kWarm && j < n) {
        const auto [at, dest] = node_dest(j);
        routes.prefetch_next(at, dest);
      }
      if (j >= k && j - k < n) {
        const auto [at, dest] = node_dest(j - k);
        const std::size_t qi = queue_of(routes, voq_base, at, dest);
        ring[(j - k) % kRing] = qi;
        if (kWarm) {
          voq.prefetch(qi);
        }
      }
      if (kWarm && j >= 2 * k && j - 2 * k < n) {
        voq.prefetch_tail(ring[(j - 2 * k) % kRing]);
      }
      if (j >= 3 * k) {
        enqueue(j - 3 * k, ring[(j - 3 * k) % kRing]);
      }
    }
  };
  voq.prefetching() ? run(std::true_type{}) : run(std::false_type{});
}

/// Telemetry helper of the run loop: observes each coupler of
/// [begin, end) into `sample`'s occupancy buckets with the total queued
/// packets across its feed VOQs. Runs only at sampling boundaries -- it
/// walks every feed of the range.
template <class Arena>
void observe_occupancy(obs::EngineSample& sample, const FeedIndex& fi,
                       const Arena& voq, std::int64_t begin,
                       std::int64_t end) {
  for (std::int64_t h = begin; h < end; ++h) {
    const std::size_t fb =
        static_cast<std::size_t>(fi.feed_base[static_cast<std::size_t>(h)]);
    const std::size_t fe = static_cast<std::size_t>(
        fi.feed_base[static_cast<std::size_t>(h) + 1]);
    std::int64_t queued = 0;
    for (std::size_t f = fb; f < fe; ++f) {
      queued += static_cast<std::int64_t>(
          voq.size(static_cast<std::size_t>(fi.feed_qi[f])));
    }
    sample.observe_occupancy(queued);
  }
}

}  // namespace otis::sim::detail
