#pragma once
/// \file voq_arena.hpp
/// Packed-entry arena backing the slot engines' virtual output queues.
///
/// Layout: one 32-byte, 32-byte-aligned record per queued packet and one
/// 24-byte header per queue (segment pointer, head, length, capacity,
/// pool) over a power-of-two ring segment, so a push or pop touches two
/// lines: the header and one entry. Past saturation the SK(10,10,3)
/// cells queue ~765,000 packets in 110,000 queues, far beyond a 2 MiB
/// L2; the earlier one-array-per-field arena paid a cold line per field
/// (four untimed, five timed) on each push and pop. The timed record
/// stores its destination as int32 to stay at 32 bytes (the async
/// engine checks that node ids fit, kMaxPackedNodes): the async-sharded
/// SK(10,10,3) cell alone (1 thread, 6 alternating runs, 4-vCPU Xeon)
/// took a median 0.93 s at 32 bytes and 1.13 s at 40.
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
/// 20.7 with 2^14 (18.4 with the per-field arena).
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
/// coupler), so the arena does not store it.
struct VoqEntry {
  std::int64_t id = 0;
  std::int64_t destination = 0;
  std::int64_t created = 0;  ///< slot (phased) or tick (async)
  std::int32_t hops = 0;
};

/// VoqEntry plus the tick the transmitter finishes tuning (async
/// engine's eligibility gate).
struct TimedVoqEntry {
  std::int64_t id = 0;
  std::int64_t destination = 0;
  std::int64_t created = 0;
  std::int32_t hops = 0;
  std::int64_t ready = 0;
};

/// Largest node count whose ids fit the timed record's int32
/// destination (ids 0 .. 2^31 - 1).
inline constexpr std::int64_t kMaxPackedNodes = std::int64_t{1} << 31;

template <bool Timed>
class VoqArenaT {
 public:
  using Entry = std::conditional_t<Timed, TimedVoqEntry, VoqEntry>;

  /// Initial per-queue segment capacity.
  static constexpr std::uint32_t kInitialCapacity = 8;
  /// Records per pool chunk (32 KiB).
  static constexpr std::size_t kChunkEntries = std::size_t{1} << 10;
  /// Queue count from which prefetching() holds and the engines' loops
  /// issue the hints below. Smaller runs' queue state (~280 bytes a
  /// queue) fits in L2 and the hints only cost: serial phased on
  /// SK(4,3,2) and POPS(6,12) ran 9-14% slower with them, collectives
  /// (up to 6,912 queues) no faster, while SK(10,10,3) (110,000 queues)
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
    store(ref.seg[(ref.head + ref.len) & (ref.cap - 1)], e);
    ++ref.len;
  }

  /// Copy of the head entry; the queue must be non-empty.
  [[nodiscard]] Entry front(std::size_t q) const {
    const Header& ref = queues_[q];
    return unpack(ref.seg[ref.head]);
  }

  /// Ready tick of the head entry; the queue must be non-empty.
  [[nodiscard]] std::int64_t front_ready(std::size_t q) const
    requires Timed
  {
    const Header& ref = queues_[q];
    return ref.seg[ref.head].ready;
  }

  /// Removes and returns the head entry; the queue must be non-empty.
  Entry pop_front(std::size_t q) {
    Header& ref = queues_[q];
    const Entry e = unpack(ref.seg[ref.head]);
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
      fn(unpack(ref.seg[(ref.head + i) & (ref.cap - 1)]));
    }
  }

  /// Records `pool` has carved from fresh memory, whether in use or on
  /// a free list (recycling shows as growth that carves nothing).
  [[nodiscard]] std::size_t carved_entries(std::size_t pool) const noexcept {
    return pools_[pool].carved;
  }

 private:
  /// The stored record: VoqEntry as is, or TimedVoqEntry with an int32
  /// destination. No member initializers, so fresh chunks stay
  /// untouched (and unpaged) until a push writes them.
  struct UntimedSlot {
    std::int64_t id;
    std::int64_t destination;
    std::int64_t created;
    std::int32_t hops;
  };
  struct TimedSlot {
    std::int64_t id;
    std::int64_t created;
    std::int64_t ready;
    std::int32_t destination;
    std::int32_t hops;
  };
  struct alignas(32) Slot : std::conditional_t<Timed, TimedSlot, UntimedSlot> {
  };
  static_assert(sizeof(Slot) == 32);

  /// Writes the fields in place: building a Slot and copying it
  /// measured slower on in-cache runs.
  static void store(Slot& s, const Entry& e) {
    s.id = e.id;
    s.destination = static_cast<decltype(s.destination)>(e.destination);
    s.created = e.created;
    s.hops = e.hops;
    if constexpr (Timed) {
      s.ready = e.ready;
    }
  }
  static Entry unpack(const Slot& s) {
    if constexpr (Timed) {
      return {s.id, s.destination, s.created, s.hops, s.ready};
    } else {
      return {s.id, s.destination, s.created, s.hops};
    }
  }

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

/// The phased engines' arena.
using VoqArena = VoqArenaT<false>;
/// The async engine's arena (per-entry ready ticks).
using TimedVoqArena = VoqArenaT<true>;

}  // namespace otis::sim
