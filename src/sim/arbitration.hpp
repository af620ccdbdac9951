#pragma once
/// \file arbitration.hpp
/// Per-coupler winner selection for the phased and async engines, over
/// the coupler's request-mask words (occupancy.hpp).
///
/// This is a faithful restatement of the event-queue engine's inline
/// arbitration (ops_network.cpp slot()), including the exact RNG
/// consumption order. The event-queue copy is deliberately kept as the
/// seed wrote it -- it is the reference implementation and benchmark
/// baseline -- so any change here MUST be mirrored there (or rejected);
/// tests/test_engine_equivalence.cpp enforces the bit-for-bit agreement
/// and will fail on divergence. (The token cursor's wrap-on-compare --
/// replacing the per-step remainder -- is mirrored there per this
/// contract; it visits the identical position sequence.)
///
/// The mask form replaces the seed's contender-list/byte-mask scan:
///  - token round-robin is a rotate-and-count-trailing-zeros scan over
///    the request words starting at the cursor, with no per-step `%`
///    (the cursor wraps on compare after the last position);
///  - random winner builds its ascending contender list from the mask
///    words (same list the byte scan produced) and runs the identical
///    partial Fisher-Yates over it;
///  - slotted aloha draws one Bernoulli per set bit in ascending
///    position order, exactly as the list walk did.
/// Every policy therefore consumes the same RNG draws in the same order
/// as the seed and elects the same winners in the same order.
///
/// pick_then_pop runs every engine's arbitration a summary word at a
/// time, so the queue misses of up to 64 couplers overlap.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "sim/occupancy.hpp"
#include "sim/ops_network.hpp"

namespace otis::sim::detail {

/// Fast path for the ubiquitous single-wavelength token case (the
/// paper's couplers): the first requesting position at or after the
/// cursor, wrapping, with the cursor advanced just past the winner.
/// Elects the identical winner and leaves the identical cursor as
/// pick_winners(kTokenRoundRobin, capacity = 1, ...) and, like it,
/// consumes no RNG -- but skips the winners vector and the capacity
/// loop entirely. At least one request bit must be set.
[[nodiscard]] inline std::size_t pick_single_token(
    std::size_t source_count, const std::uint64_t* request,
    std::size_t words, std::int64_t& token) {
  const std::size_t start = static_cast<std::size_t>(token);
  const std::size_t start_word = start >> 6;
  std::size_t wi = start_word;
  std::uint64_t word = request[wi] & (~std::uint64_t{0} << (start & 63));
  for (;;) {
    if (word != 0) {
      const std::size_t si =
          (wi << 6) + static_cast<std::size_t>(std::countr_zero(word));
      token =
          si + 1 == source_count ? 0 : static_cast<std::int64_t>(si + 1);
      return si;
    }
    ++wi;
    if (wi >= words) {
      break;
    }
    word = request[wi];
  }
  for (wi = 0; wi <= start_word; ++wi) {
    word = request[wi];
    if (wi == start_word) {
      const std::size_t cut = start & 63;
      word &= cut == 0 ? 0 : ~std::uint64_t{0} >> (64 - cut);
    }
    if (word != 0) {
      const std::size_t si =
          (wi << 6) + static_cast<std::size_t>(std::countr_zero(word));
      token =
          si + 1 == source_count ? 0 : static_cast<std::int64_t>(si + 1);
      return si;
    }
  }
  OTIS_ASSERT(false, "pick_single_token: no request bit set");
  return static_cast<std::size_t>(-1);
}

/// Picks the winners of one coupler-slot.
///
/// `request` points at the coupler's `words` request-mask words: bit si
/// is set iff feed position si contends (its VOQ toward this coupler is
/// non-empty and, for the calendar scheduler, eligible). No bits at or above
/// `source_count` may be set. `token` is the coupler's round-robin
/// cursor, advanced just past each winner. `scratch` is caller-owned
/// scratch (kRandomWinner builds its contender list there). Winners are
/// appended to `winners` (cleared first) in transmission order. Returns
/// true when a slotted-aloha collision destroyed every transmission of
/// this coupler-slot.
inline bool pick_winners(Arbitration policy, std::size_t capacity,
                         std::size_t source_count,
                         const std::uint64_t* request, std::size_t words,
                         std::int64_t& token, core::Rng& rng,
                         std::vector<std::size_t>& winners,
                         std::vector<std::size_t>& scratch) {
  winners.clear();
  switch (policy) {
    case Arbitration::kTokenRoundRobin: {
      // Scan positions [start, source_count) then the wrapped prefix
      // [0, start); the first `capacity` set bits win and the token
      // moves just past the last winner, wrapping on compare.
      const std::size_t start = static_cast<std::size_t>(token);
      std::size_t wi = start >> 6;
      std::uint64_t word =
          request[wi] & (~std::uint64_t{0} << (start & 63));
      for (;;) {
        while (word != 0) {
          const std::size_t si =
              (wi << 6) +
              static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          winners.push_back(si);
          token = si + 1 == source_count
                      ? 0
                      : static_cast<std::int64_t>(si + 1);
          if (winners.size() == capacity) {
            return false;
          }
        }
        ++wi;
        if (wi >= words) {
          break;
        }
        word = request[wi];
      }
      const std::size_t start_word = start >> 6;
      for (wi = 0; wi <= start_word; ++wi) {
        word = request[wi];
        if (wi == start_word) {
          const std::size_t cut = start & 63;
          word &= cut == 0 ? 0 : ~std::uint64_t{0} >> (64 - cut);
        }
        while (word != 0) {
          const std::size_t si =
              (wi << 6) +
              static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          winners.push_back(si);
          token = si + 1 == source_count
                      ? 0
                      : static_cast<std::int64_t>(si + 1);
          if (winners.size() == capacity) {
            return false;
          }
        }
      }
      return false;
    }
    case Arbitration::kRandomWinner: {
      // Partial Fisher-Yates over the ascending contender list.
      scratch.clear();
      for (std::size_t wi = 0; wi < words; ++wi) {
        std::uint64_t word = request[wi];
        while (word != 0) {
          scratch.push_back(
              (wi << 6) +
              static_cast<std::size_t>(std::countr_zero(word)));
          word &= word - 1;
        }
      }
      // The draw bounds (n, n-1, ...) depend only on the contender
      // count, never on the swap results, so the uniforms batch ahead
      // of the swap loop -- draw-sequence identical to the interleaved
      // uniform()-per-swap loop of the event-queue reference
      // (test_engine_equivalence.cpp enforces the bit-parity).
      constexpr std::size_t kDrawChunk = 32;
      std::uint64_t draws[kDrawChunk];
      const std::size_t take = std::min(capacity, scratch.size());
      for (std::size_t base = 0; base < take; base += kDrawChunk) {
        const std::size_t chunk = std::min(kDrawChunk, take - base);
        rng.uniform_descending(scratch.size() - base, chunk, draws);
        for (std::size_t c = 0; c < chunk; ++c) {
          const std::size_t i = base + c;
          const std::size_t j = i + static_cast<std::size_t>(draws[c]);
          std::swap(scratch[i], scratch[j]);
          winners.push_back(scratch[i]);
        }
      }
      return false;
    }
    case Arbitration::kSlottedAloha: {
      // Every contender independently transmits with probability 1/2; at
      // most `capacity` simultaneous transmitters succeed, more collide.
      for (std::size_t wi = 0; wi < words; ++wi) {
        std::uint64_t word = request[wi];
        while (word != 0) {
          const std::size_t si =
              (wi << 6) +
              static_cast<std::size_t>(std::countr_zero(word));
          word &= word - 1;
          if (rng.bernoulli(0.5)) {
            winners.push_back(si);
          }
        }
      }
      if (winners.size() > capacity) {
        winners.clear();
        return true;
      }
      return false;
    }
  }
  return false;
}

/// How many picks ahead pick_then_pop prefetches a winner's head entry
/// (its queue header was prefetched when the winner was picked).
constexpr std::size_t kPopPrefetchAhead = 4;

/// One winner of a pick batch: the coupler, the winning VOQ and the
/// winner's rank among the coupler's winners (transmission order).
struct Pick {
  std::size_t coupler;
  std::size_t qi;
  std::size_t rank;
};

/// Scratch of pick_then_pop, hoisted per run (or per shard).
struct PickScratch {
  std::vector<std::size_t> winners, contenders;
  std::vector<Pick> picks;
};

/// Arbitrates the couplers base + b for every set bit b of `word`.
/// Pick: in ascending coupler order, elect each coupler's winners from
/// `request_of(h)` -- its request words, or nullptr when no head may
/// contend -- with `token[h]` and the stream `rng_of(h)`, prefetching
/// each winner's queue header. Pop: walk the picks in the same coupler
/// and winner order, prefetching the head entry kPopPrefetchAhead picks
/// ahead, and call transmit(pick). The hints are issued only when
/// voq.prefetching(); the order is the same either way. A coupler's
/// picks read only its own request words and transmits draw no RNG, so
/// draws, winners and every order downstream of transmit equal a
/// coupler-by-coupler loop's. Returns the slotted-aloha collisions.
template <class Arena, class RequestOf, class RngOf, class Transmit>
std::int64_t pick_then_pop(std::uint64_t word, std::size_t base,
                           const FeedIndex& fi, const Arena& voq,
                           Arbitration policy, std::size_t capacity,
                           std::vector<std::int64_t>& token, PickScratch& s,
                           RequestOf&& request_of, RngOf&& rng_of,
                           Transmit&& transmit) {
  const bool single_token =
      policy == Arbitration::kTokenRoundRobin && capacity == 1;
  // Instantiated with and without the hints and chosen once per call: a
  // flag tested at each hint slowed in-cache runs ~10%.
  const auto run = [&](auto warm) {
    constexpr bool kWarm = decltype(warm)::value;
    std::int64_t collisions = 0;
    s.picks.clear();
    while (word != 0) {
      const std::size_t h =
          base + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      const std::uint64_t* request = request_of(h);
      if (request == nullptr) {
        continue;
      }
      const std::size_t fb = static_cast<std::size_t>(fi.feed_base[h]);
      const std::size_t source_count =
          static_cast<std::size_t>(fi.feed_base[h + 1]) - fb;
      const std::size_t words =
          static_cast<std::size_t>(fi.mask_base[h + 1] - fi.mask_base[h]);
      const auto pick = [&](std::size_t si, std::size_t rank) {
        const std::size_t qi = static_cast<std::size_t>(fi.feed_qi[fb + si]);
        if constexpr (kWarm) {
          voq.prefetch(qi);
        }
        s.picks.push_back(Pick{h, qi, rank});
      };
      if (single_token) {
        pick(pick_single_token(source_count, request, words, token[h]), 0);
        continue;
      }
      if (pick_winners(policy, capacity, source_count, request, words,
                       token[h], rng_of(h), s.winners, s.contenders)) {
        ++collisions;
      }
      for (std::size_t rank = 0; rank < s.winners.size(); ++rank) {
        pick(s.winners[rank], rank);
      }
    }
    for (std::size_t p = 0; p < s.picks.size(); ++p) {
      if constexpr (kWarm) {
        if (p + kPopPrefetchAhead < s.picks.size()) {
          voq.prefetch_front(s.picks[p + kPopPrefetchAhead].qi);
        }
      }
      transmit(s.picks[p]);
    }
    return collisions;
  };
  return voq.prefetching() ? run(std::true_type{}) : run(std::false_type{});
}

}  // namespace otis::sim::detail
