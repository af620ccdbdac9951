#pragma once
/// \file voq_arena.hpp
/// Packed-entry arena backing the engines' virtual output queues.
///
/// Layout: one 16-byte, 16-byte-aligned record per queued packet on
/// the slot path (24 bytes, 8-aligned, on the calendar path, which adds
/// a ready tick) and one 24-byte header per queue (segment pointer,
/// head, length, capacity, pool) over a power-of-two ring segment, so a
/// push or pop touches the header and one entry. Past saturation the
/// SK(10,10,3) cells queue ~765,000 packets in 121,000 queues (loop
/// couplers included), far beyond a 2 MiB L2, and most of a saturated
/// sweep's memory is these records: halving them from 32 bytes took
/// perfbench's paper_sweep peak RSS from 21.1 to 13.4 MiB and a
/// sharded SK(10,10,3) cell's from 81.7 to 55.5 (4-vCPU Xeon). The
/// earlier one-array-per-field arena paid a cold line per field on
/// each push and pop.
///
/// Pools (one per shard) carve segments from kChunkEntries-record chunks
/// that never move, so growth never copies a pool. A queue that fills
/// moves to a segment twice the size; its old segment, and the segment
/// of a queue that drains (above kInitialCapacity), go onto per-size
/// free lists (side vectors, never entry bytes) that growth takes from
/// before carving. A full chunk's tail is split onto the free lists; a
/// segment larger than a chunk is allocated alone. The chunk is what
/// each pool over-reserves: collectives on the campaign benchmark
/// peaked at 16.7 MiB RSS with 2^10-record chunks, 17.5 with 2^12 and
/// 20.7 with 2^14 (18.4 with the per-field arena), at 32-byte records.
///
/// Only the shard that owns a pool pushes to or pops from its queues
/// (the shard plan is feed-local), so one thread at a time touches a
/// pool.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace otis::sim {

/// One queued packet, minus the source node: once a packet sits in a
/// VOQ its source is never read again (relays are resolved from the
/// coupler), so the arena does not store it. The creation time and the
/// hop count share one word.
struct VoqEntry {
  /// Largest creation slot or tick the 48-bit field holds.
  static constexpr std::int64_t kMaxCreated = (std::int64_t{1} << 47) - 1;
  /// Largest hop count the 16-bit field holds.
  static constexpr std::int64_t kMaxHops = (std::int64_t{1} << 16) - 1;

  std::int64_t created : 48 = 0;  ///< slot (phased) or tick (async)
  std::uint64_t hops : 16 = 0;
  /// A workload packet's id in its workload (>= 0), or -1 - source for
  /// every other packet: with `created`, the packet's identity.
  std::int32_t id = 0;
  std::int32_t destination = 0;
};
static_assert(sizeof(VoqEntry) == 16);

/// VoqEntry plus the tick the transmitter finishes tuning (async
/// engine's eligibility gate).
struct TimedVoqEntry : VoqEntry {
  std::int64_t ready = 0;
};
static_assert(sizeof(TimedVoqEntry) == 24);

/// Largest node count whose ids fit the records' int32 fields (ids
/// 0 .. 2^31 - 1, and -1 - source down to INT32_MIN).
inline constexpr std::int64_t kMaxPackedNodes = std::int64_t{1} << 31;

template <bool Timed>
class VoqArenaT {
 public:
  using Entry = std::conditional_t<Timed, TimedVoqEntry, VoqEntry>;

  /// Initial per-queue segment capacity.
  static constexpr std::uint32_t kInitialCapacity = 8;
  /// Records per pool chunk (16 KiB, or 24 KiB timed).
  static constexpr std::size_t kChunkEntries = std::size_t{1} << 10;
  /// Queue count from which prefetching() holds and the engines' loops
  /// issue the hints below. Smaller runs' queue state (~280 bytes a
  /// queue) fits in L2 and the hints only cost: serial phased on
  /// SK(4,3,2) and POPS(6,12) ran 9-14% slower with them, collectives
  /// (up to 6,912 queues) no faster, while SK(10,10,3) (121,000 queues)
  /// generated and arbitrated ~30% slower without them.
  static constexpr std::size_t kPrefetchQueues = std::size_t{1} << 14;

  /// Re-initializes to `queue_count` empty queues spread over
  /// `pool_count` pools. Every queue starts in pool 0; sharded callers
  /// reassign with set_pool() before pushing.
  void init(std::size_t queue_count, std::size_t pool_count = 1) {
    pools_.clear();
    pools_.resize(pool_count);
    queues_.assign(queue_count, Header{});
  }

  void set_pool(std::size_t q, std::uint32_t pool) {
    queues_[q].pool = pool;
  }

  [[nodiscard]] std::size_t queue_count() const noexcept {
    return queues_.size();
  }
  [[nodiscard]] std::size_t size(std::size_t q) const noexcept {
    return queues_[q].len;
  }
  [[nodiscard]] bool empty(std::size_t q) const noexcept {
    return queues_[q].len == 0;
  }

  void push(std::size_t q, const Entry& e) {
    Header& ref = queues_[q];
    if (ref.len == ref.cap) {
      grow(ref);
    }
    ref.seg[(ref.head + ref.len) & (ref.cap - 1)] = std::bit_cast<Slot>(e);
    ++ref.len;
  }

  /// Copy of the head entry; the queue must be non-empty.
  [[nodiscard]] Entry front(std::size_t q) const {
    const Header& ref = queues_[q];
    return std::bit_cast<Entry>(ref.seg[ref.head]);
  }

  /// Ready tick of the head entry; the queue must be non-empty.
  [[nodiscard]] std::int64_t front_ready(std::size_t q) const
    requires Timed
  {
    const Header& ref = queues_[q];
    return std::bit_cast<Entry>(ref.seg[ref.head]).ready;
  }

  /// Removes and returns the head entry; the queue must be non-empty.
  Entry pop_front(std::size_t q) {
    Header& ref = queues_[q];
    const Entry e = std::bit_cast<Entry>(ref.seg[ref.head]);
    ref.head = (ref.head + 1) & (ref.cap - 1);
    if (--ref.len == 0 && ref.cap > kInitialCapacity) {
      shed(ref);
    }
    return e;
  }

  /// See kPrefetchQueues. Loops read it once: a test per hint cost ~10%.
  [[nodiscard]] bool prefetching() const noexcept {
    return queues_.size() >= kPrefetchQueues;
  }

  /// Cache hints for the engines' staged loops; they change no state.
  /// prefetch: the queue header. prefetch_front: the head entry (reads
  /// the header). prefetch_tail: the slot the next push writes (ditto).
  void prefetch(std::size_t q) const noexcept {
    __builtin_prefetch(&queues_[q]);
  }
  void prefetch_front(std::size_t q) const noexcept {
    const Header& ref = queues_[q];
    if (ref.len != 0) {
      __builtin_prefetch(ref.seg + ref.head);
    }
  }
  void prefetch_tail(std::size_t q) const noexcept {
    const Header& ref = queues_[q];
    if (ref.len < ref.cap) {
      __builtin_prefetch(ref.seg + ((ref.head + ref.len) & (ref.cap - 1)), 1);
    }
  }

  /// Visits queue `q`'s entries head to tail (checkpoint serialization:
  /// re-pushing the visited sequence into a fresh arena reproduces the
  /// queue's logical FIFO state exactly, whatever the segment layout).
  template <typename Fn>
  void for_each_entry(std::size_t q, Fn&& fn) const {
    const Header& ref = queues_[q];
    for (std::uint32_t i = 0; i < ref.len; ++i) {
      fn(std::bit_cast<Entry>(ref.seg[(ref.head + i) & (ref.cap - 1)]));
    }
  }

  /// Records `pool` has carved from fresh memory, whether in use or on
  /// a free list (recycling shows as growth that carves nothing).
  [[nodiscard]] std::size_t carved_entries(std::size_t pool) const noexcept {
    return pools_[pool].carved;
  }

 private:
  /// The stored record: the entry's bytes, 16-byte aligned on the slot
  /// path so no record straddles a cache line (a quarter of the 24-byte
  /// timed records do). Raw bytes without initializers, so fresh chunks
  /// stay untouched (and unpaged) until a push writes them.
  struct alignas(Timed ? 8 : 16) Slot {
    std::array<std::byte, sizeof(Entry)> bytes;
  };
  static_assert(sizeof(Slot) == (Timed ? 24 : 16));

  /// Per-queue metadata, packed so every queue operation touches one
  /// header cache line (a 24-byte header straddles at most two).
  struct Header {
    Slot* seg = nullptr;     ///< ring segment (cap records)
    std::uint32_t head = 0;  ///< head offset (masked by cap - 1)
    std::uint32_t len = 0;   ///< live entry count
    std::uint32_t cap = 0;   ///< segment capacity (0 or a power of two)
    std::uint32_t pool = 0;  ///< owning pool index
  };

  struct Pool {
    std::vector<std::unique_ptr<Slot[]>> blocks;  ///< chunks + oversized
    Slot* bump = nullptr;  ///< next uncarved record of the last chunk
    std::size_t room = 0;  ///< uncarved records left there
    std::size_t carved = 0;
    std::array<std::vector<Slot*>, 32> free;  ///< by log2(capacity)

    Slot* acquire(std::size_t cap) {
      std::vector<Slot*>& list = free[std::countr_zero(cap)];
      if (!list.empty()) {
        Slot* seg = list.back();
        list.pop_back();
        return seg;
      }
      carved += cap;
      if (cap > kChunkEntries) {
        blocks.push_back(std::make_unique_for_overwrite<Slot[]>(cap));
        return blocks.back().get();
      }
      if (room < cap) {
        // Split the chunk's tail onto the free lists (every size is a
        // multiple of kInitialCapacity), then open a new chunk.
        while (room >= kInitialCapacity) {
          const std::size_t piece = std::bit_floor(room);
          free[std::countr_zero(piece)].push_back(bump);
          bump += piece;
          room -= piece;
        }
        blocks.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkEntries));
        bump = blocks.back().get();
        room = kChunkEntries;
      }
      Slot* seg = bump;
      bump += cap;
      room -= cap;
      return seg;
    }

    void release(Slot* seg, std::size_t cap) {
      free[std::countr_zero(cap)].push_back(seg);
    }
  };

  /// Returns a drained queue's segment to its pool (out of line: the
  /// pop path stays small).
  [[gnu::noinline]] void shed(Header& ref) {
    pools_[ref.pool].release(ref.seg, ref.cap);
    ref = Header{nullptr, 0, 0, 0, ref.pool};
  }

  [[gnu::noinline]] void grow(Header& ref) {
    const std::uint32_t cap = ref.cap == 0 ? kInitialCapacity : ref.cap * 2;
    Pool& pool = pools_[ref.pool];
    Slot* seg = pool.acquire(cap);
    for (std::uint32_t i = 0; i < ref.len; ++i) {
      seg[i] = ref.seg[(ref.head + i) & (ref.cap - 1)];
    }
    if (ref.cap != 0) {
      pool.release(ref.seg, ref.cap);
    }
    ref.seg = seg;
    ref.head = 0;
    ref.cap = cap;
  }

  std::vector<Pool> pools_;
  std::vector<Header> queues_;
};

/// The slot scheduler's arena (kPhased, kSharded).
using VoqArena = VoqArenaT<false>;
/// The calendar scheduler's arena (per-entry ready ticks).
using TimedVoqArena = VoqArenaT<true>;

}  // namespace otis::sim
