#pragma once
/// \file calendar_queue.hpp
/// Calendar queue: the O(1)-amortized pending-event set of the async
/// engines (Brown 1988), stored structure-of-arrays.
///
/// std::priority_queue pays O(log n) pointer-hopping comparisons per
/// operation. A calendar queue hashes events by time into an array of
/// day buckets -- here the bucket width starts at one slot
/// (kTicksPerSlot ticks), the natural unit of a slotted OPS network --
/// so scheduling is an O(1) append into the right bucket and popping
/// walks the calendar day by day.
///
/// Two traffics shape the storage, and both were measured:
///  - Floods, which the engines produce. The OPS model is slot-
///    synchronous, so under a fixed propagation delay all of a slot's
///    transmissions arrive on ONE tick: ~4,000 per shard per slot on
///    SK(10,10,3), up to 576 per slot on the collectives topologies.
///    Serial async pushes them with ascending sequence keys;
///    async-sharded pushes the shard's own ascending run, then each
///    producer's mailbox replay at the window barrier, whose keys
///    interleave with it. Per-level skew and trace timing spread a
///    slot's arrivals over a few ticks.
///  - The hold model (Brown's benchmark, micro_benchmarks' [queues]
///    hold row): ~10^6 pending events scattered over ~10^4 slots. A day
///    holds a handful, but the days just ahead of now hold about twice
///    the average, so about one day in five overflows by a few entries.
///
/// Day storage. Every bucket owns kSlots fixed entry slots inside one
/// flat slab, with per-bucket fill counts and dirty flags in byte-sized
/// side arrays small enough to live in L2: a push is one write into the
/// slab plus one hot counter update -- a single cold cache line --
/// where a per-bucket std::vector costs two dependent misses and a
/// malloc each time a day's vector first fills. Segments are lazily
/// sorted: pushes append unsorted, and a segment is sorted descending
/// by (time, seq) once, when its day first drains, after which every
/// pop is a decrement.
///
/// A full segment's overflow goes to one of two places, and peek/pop
/// take the earliest of the calendar's head, the heap's root and the
/// first run's head:
///  - A *run* takes the overflow of a full segment that holds nothing
///    but the pushed tick -- a flood -- and every later push of that
///    tick while the segment is full. A run is a growable vector, its
///    buffer recycled, kept in push order behind a sorted prefix.
///    In-order pushes extend the prefix, so a serial flood is never
///    sorted; otherwise the run is ordered once, when it becomes the
///    earliest run -- merged, when the out-of-order tail is itself one
///    ascending run (one mailbox replay), else sorted -- after which
///    every pop is a cursor step. Runs are kept in tick order, so only
///    the first is ever ordered or compared.
///  - A shared binary min-heap takes any other overflow: a full segment
///    spanning several ticks. Those are the hold model's scattered
///    overflows, and they stay on the heap because giving every
///    overflowing day a run measured 20-30% slower on the hold loop
///    than the heap: a whole segment moved out and back for a
///    few-entry overflow, and a run test on every slab pop.
/// The spill paths, the calendar walk and the segment sort are kept out
/// of line, so that peek/pop stay small enough to inline into a
/// caller's event loop: the hold loop ran ~15% slower when they did
/// not.
///
/// The (time, seq) order preserves the EventQueue's FIFO tie-break
/// exactly, keeping async runs bit-reproducible.
///
/// The calendar rescales itself (a variant of Brown's rule) when a push
/// spills into the heap: if the pending count outside runs has outgrown
/// the days the events actually span, it either doubles the year length
/// (more buckets, when the span already fills the year) or halves the
/// bucket width (finer days, when the span is shorter than the year),
/// down to one-tick days. Both track the *event horizon* -- the latest
/// time ever pushed -- because days beyond the horizon cannot thin any
/// bucket. A single-tick flood never spills into the heap, so it never
/// rebuilds the calendar: a tick cannot be split. A flood spread over a
/// few ticks spills until the days are fine enough to give each tick
/// its own day, and from then on runs take it. Each rebuild at least
/// doubles the effective day count, so total rebuild work is a
/// geometric series bounded by the event span; pop order is a pure
/// function of (time, seq), so rescaling never changes it. The
/// occupancy target (kTargetOccupancy per day) is set well under kSlots
/// so spills stay rare in steady state.
///
/// The calendar's minimum is memoized: peek() caches its bucket and
/// pop() keeps the cache while the next entry stays in the current day,
/// so the peek-then-pop cycle of the async engine costs one calendar
/// walk, not two.
///
/// The payload is a template parameter: the AsyncEngine stores plain
/// structs (no per-event std::function allocation), the benchmarks
/// store integers, and a std::function instantiation would behave like
/// the classic EventQueue.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "sim/event_queue.hpp"

namespace otis::sim {

template <typename Payload>
class CalendarQueue {
 public:
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break at equal times
    Payload payload{};
  };

  /// `bucket_width` is the day length in SimTime units (default: one
  /// slot of ticks); both it and `initial_buckets` must be powers of
  /// two (bucket lookup is a shift and a mask, no division).
  explicit CalendarQueue(SimTime bucket_width = kTicksPerSlot,
                         std::size_t initial_buckets = 64)
      : slab_(initial_buckets * kSlots),
        counts_(initial_buckets, 0),
        dirty_(initial_buckets, 0) {
    OTIS_REQUIRE(bucket_width > 0 &&
                     (bucket_width & (bucket_width - 1)) == 0,
                 "CalendarQueue: bucket width must be a power of two");
    OTIS_REQUIRE(initial_buckets > 0 &&
                     (initial_buckets & (initial_buckets - 1)) == 0,
                 "CalendarQueue: bucket count must be a power of two");
    while ((SimTime{1} << width_shift_) != bucket_width) {
      ++width_shift_;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return count_; }
  /// Time of the most recently popped entry.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `payload` at absolute time `at` (>= now()).
  void push(SimTime at, Payload payload) {
    insert(at, next_seq_, std::move(payload));
    ++next_seq_;
  }

  /// Schedules `payload` at absolute time `at` with a caller-chosen
  /// sequence key instead of the internal counter. The async engine
  /// derives `seq` from the global (slot, coupler, winner) transmission
  /// order, so entries pushed into *different* per-shard calendars pop
  /// in the same relative order one auto-sequenced queue would produce.
  /// Keys must be unique per (time, seq) within one queue; next_seq_ is
  /// not advanced, so keyed and auto-sequenced pushes should not be
  /// mixed in one queue.
  void push_keyed(SimTime at, std::uint64_t seq, Payload payload) {
    insert(at, seq, std::move(payload));
  }

  /// The earliest (time, seq) entry without removing it. The queue must
  /// be non-empty.
  [[nodiscard]] const Entry& peek() {
    OTIS_ASSERT(count_ > 0, "CalendarQueue: peek on empty queue");
    const Entry* top = slab_min();
    const Entry* spilled = spilled_min();
    return spilled != nullptr && (top == nullptr || earlier(*spilled, *top))
               ? *spilled
               : *top;
  }

  /// Removes and returns the earliest (time, seq) entry. The queue must
  /// be non-empty.
  Entry pop() {
    OTIS_ASSERT(count_ > 0, "CalendarQueue: pop on empty queue");
    const Entry* top = slab_min();
    const Entry* spilled = spilled_min();
    if (spilled != nullptr && (top == nullptr || earlier(*spilled, *top))) {
      // The cached slab minimum stays valid.
      return pop_spilled(spilled);
    }
    const std::size_t b = static_cast<std::size_t>(cached_bucket_);
    Entry result = std::move(slab_[b * kSlots + counts_[b] - 1]);
    --counts_[b];
    --count_;
    now_ = result.time;
    // The bucket stays the slab minimum while its next entry is still
    // inside the just-popped day (every other bucket's entries lie in
    // later days); otherwise the next peek walks the calendar again.
    const std::size_t day = static_cast<std::size_t>(now_) >> width_shift_;
    if (counts_[b] == 0 ||
        slab_[b * kSlots + counts_[b] - 1].time >=
            static_cast<SimTime>((day + 1) << width_shift_)) {
      cached_bucket_ = -1;
    }
    return result;
  }

  /// Visits every pending entry in unspecified order (checkpoint
  /// serialization: pop order is a pure function of (time, seq), so
  /// re-pushing the visited entries with push_keyed reproduces the
  /// queue's behaviour exactly, whatever order they are visited in).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      for (std::size_t i = 0; i < counts_[b]; ++i) {
        fn(slab_[b * kSlots + i]);
      }
    }
    for (const Run& run : runs_) {
      for (std::size_t i = run.head; i < run.entries.size(); ++i) {
        fn(run.entries[i]);
      }
    }
    for (const Entry& entry : overflow_) {
      fn(entry);
    }
  }

  /// Auto-sequence counter state, for checkpointing queues that use the
  /// plain push() path.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  void set_next_seq(std::uint64_t seq) noexcept { next_seq_ = seq; }

 private:
  /// Fixed entry slots per bucket in the slab. The rescale rule keeps
  /// steady-state occupancy near kTargetOccupancy, so a Poisson day
  /// exceeds kSlots with vanishing probability.
  static constexpr std::size_t kSlots = 16;
  static constexpr std::size_t kTargetOccupancy = 8;
  /// Practical ceiling on the year length: the slab is
  /// kSlots * sizeof(Entry) bytes per day.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 17;

  /// One tick's overflow past its full segment: the pending entries
  /// are entries[head, end), [head, sorted) ascending by seq and the
  /// rest in push order.
  struct Run {
    SimTime tick = 0;
    std::vector<Entry> entries;
    std::size_t head = 0;
    std::size_t sorted = 0;
  };

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  /// std::push_heap comparator: a min-heap on (time, seq).
  static bool later(const Entry& a, const Entry& b) noexcept {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  [[nodiscard]] std::size_t bucket_of(SimTime at) const noexcept {
    return (static_cast<std::size_t>(at) >> width_shift_) &
           (counts_.size() - 1);
  }

  /// Sorts bucket `b`'s slab segment descending by (time, seq): the
  /// earliest entry ends at the segment's back.
  [[gnu::noinline]] void sort_segment(std::size_t b) {
    Entry* begin = slab_.data() + b * kSlots;
    std::sort(begin, begin + counts_[b],
              [](const Entry& x, const Entry& y) { return later(x, y); });
    dirty_[b] = 0;
  }

  void insert(SimTime at, std::uint64_t seq, Payload&& payload) {
    OTIS_REQUIRE(at >= now_, "CalendarQueue: cannot schedule in the past");
    if (at > horizon_) {
      horizon_ = at;
    }
    const bool spilled = !raw_push(at, seq, std::move(payload));
    ++count_;
    if (spilled) {
      maybe_rescale();
    }
  }

  /// Places an entry without bumping count_ / seq (shared by insert and
  /// rebuild): into its bucket's slab segment, else into its tick's
  /// run, else -- returning false -- into the overflow heap.
  bool raw_push(SimTime at, std::uint64_t seq, Payload payload) {
    const std::size_t b = bucket_of(at);
    if (counts_[b] == kSlots) [[unlikely]] {
      return spill(b, Entry{at, seq, std::move(payload)});
    }
    // The cache survives a push that cannot displace the cached
    // minimum: same bucket (its minimum only improves, and the dirty
    // flag forces a re-sort) or a time at or after the segment's last
    // entry (which is >= the bucket minimum; seq breaks ties in the
    // cached entry's favour).
    if (cached_bucket_ >= 0) {
      const std::size_t c = static_cast<std::size_t>(cached_bucket_);
      if (b != c && at < slab_[c * kSlots + counts_[c] - 1].time) {
        cached_bucket_ = -1;
      }
    }
    slab_[b * kSlots + counts_[b]] = Entry{at, seq, std::move(payload)};
    ++counts_[b];
    dirty_[b] = 1;
    return true;
  }

  /// Overflow of full segment `b`: its tick's run when one exists or the
  /// segment holds nothing but that tick (a flood), else the heap.
  [[gnu::noinline]] bool spill(std::size_t b, Entry&& entry) {
    const SimTime tick = entry.time;
    // Runs ascend by tick; floods land on the newest ones.
    auto it = runs_.end();
    while (it != runs_.begin() && std::prev(it)->tick >= tick) {
      --it;
    }
    if (it == runs_.end() || it->tick != tick) {
      const Entry* const segment = slab_.data() + b * kSlots;
      if (!std::all_of(segment, segment + kSlots,
                       [tick](const Entry& e) { return e.time == tick; })) {
        overflow_.push_back(std::move(entry));
        std::push_heap(overflow_.begin(), overflow_.end(), later);
        return false;
      }
      it = runs_.insert(it, Run{});
      it->tick = tick;
      if (!spare_.empty()) {
        it->entries = std::move(spare_.back());
        spare_.pop_back();
      }
    }
    Run& run = *it;
    if (run.sorted == run.entries.size() &&
        (run.entries.empty() || !earlier(entry, run.entries.back()))) {
      ++run.sorted;
    }
    run.entries.push_back(std::move(entry));
    ++in_runs_;
    return true;
  }

  /// One merge or one sort: an unsorted tail that is itself ascending
  /// (one mailbox replay) merges with the sorted prefix; any other tail
  /// sorts with it.
  [[gnu::noinline]] void order_run(Run& run) {
    const auto cmp = [](const Entry& x, const Entry& y) {
      return earlier(x, y);
    };
    std::vector<Entry>& entries = run.entries;
    const auto first =
        entries.begin() + static_cast<std::ptrdiff_t>(run.head);
    const auto mid =
        entries.begin() + static_cast<std::ptrdiff_t>(run.sorted);
    if (!std::is_sorted(mid, entries.end(), cmp)) {
      std::sort(first, entries.end(), cmp);
    } else if (first != mid) {
      merged_.clear();
      merged_.reserve(entries.size() - run.head);
      std::merge(std::make_move_iterator(first), std::make_move_iterator(mid),
                 std::make_move_iterator(mid),
                 std::make_move_iterator(entries.end()),
                 std::back_inserter(merged_), cmp);
      entries.swap(merged_);
      run.head = 0;
    }
    run.sorted = entries.size();
  }

  /// The earliest entry outside the slab -- the heap's root or the
  /// first run's head -- or null. Orders the first run, once per
  /// flooded tick.
  const Entry* spilled_min() {
    const Entry* best = overflow_.empty() ? nullptr : &overflow_.front();
    if (!runs_.empty()) {
      Run& run = runs_.front();
      if (run.sorted != run.entries.size()) {
        order_run(run);
      }
      const Entry& head = run.entries[run.head];
      if (best == nullptr || earlier(head, *best)) {
        best = &head;
      }
    }
    return best;
  }

  /// Pops `spilled`, which spilled_min() just returned.
  [[gnu::noinline]] Entry pop_spilled(const Entry* spilled) {
    --count_;
    if (!overflow_.empty() && spilled == &overflow_.front()) {
      std::pop_heap(overflow_.begin(), overflow_.end(), later);
      Entry result = std::move(overflow_.back());
      overflow_.pop_back();
      now_ = result.time;
      return result;
    }
    Run& run = runs_.front();
    Entry result = std::move(run.entries[run.head]);
    ++run.head;
    --in_runs_;
    now_ = result.time;
    if (run.head == run.entries.size()) {
      run.entries.clear();
      spare_.push_back(std::move(run.entries));
      runs_.erase(runs_.begin());
    }
    return result;
  }

  /// The slab's earliest entry (null iff every pending entry is in the
  /// heap or a run). Leaves cached_bucket_ on that entry's bucket,
  /// sorted.
  [[nodiscard]] const Entry* slab_min() {
    if (cached_bucket_ >= 0) {
      const std::size_t b = static_cast<std::size_t>(cached_bucket_);
      if (dirty_[b] != 0) {
        // A push landed in the cached bucket since the last walk; the
        // minimum is still here but may no longer sit at the back.
        sort_segment(b);
      }
      return &slab_[b * kSlots + counts_[b] - 1];
    }
    if (count_ == overflow_.size() + in_runs_) {
      return nullptr;
    }
    cached_bucket_ = find_min_bucket();
    const std::size_t b = static_cast<std::size_t>(cached_bucket_);
    return &slab_[b * kSlots + counts_[b] - 1];
  }

  /// Bucket whose segment back is the slab-wide minimum; requires a
  /// non-empty slab. Sorts the bucket it settles on (lazily, once per
  /// day in steady state).
  [[gnu::noinline]] [[nodiscard]] std::int64_t find_min_bucket() {
    // Walk the calendar from today: a bucket's earliest entry belongs
    // to the current day iff its time falls before that day's end, in
    // which case it is the slab minimum (earlier days were empty and
    // other buckets' entries lie in later days). The walk reads only
    // the byte-sized count array, so empty days cost ~a cycle each.
    const std::size_t buckets = counts_.size();
    std::size_t day = static_cast<std::size_t>(now_) >> width_shift_;
    for (std::size_t step = 0; step < buckets; ++step, ++day) {
      const std::size_t b = day & (buckets - 1);
      if (counts_[b] == 0) {
        continue;
      }
      if (dirty_[b] != 0) {
        sort_segment(b);
      }
      if (slab_[b * kSlots + counts_[b] - 1].time <
          static_cast<SimTime>((day + 1) << width_shift_)) {
        return static_cast<std::int64_t>(b);
      }
    }
    // Sparse tail: every slab entry lives more than a year ahead. Find
    // the bucket holding the slab minimum directly.
    std::int64_t best = -1;
    for (std::size_t b = 0; b < buckets; ++b) {
      if (counts_[b] == 0) {
        continue;
      }
      if (dirty_[b] != 0) {
        sort_segment(b);
      }
      if (best < 0 ||
          earlier(slab_[b * kSlots + counts_[b] - 1],
                  slab_[static_cast<std::size_t>(best) * kSlots +
                        counts_[static_cast<std::size_t>(best)] - 1])) {
        best = static_cast<std::int64_t>(b);
      }
    }
    return best;
  }

  /// Brown's occupancy rule, against the days the events actually span
  /// (now .. horizon), checked when a push spills into the heap: once
  /// the pending count outside runs passes kTargetOccupancy events per
  /// *effective* day, grow the year if the span already fills it, else
  /// sharpen the days. Either step doubles the effective day count, so
  /// the occupancy check fails geometrically rarely; when neither step
  /// is possible (one-tick days spanning a full maximal year) the check
  /// degrades to this cheap early-out.
  void maybe_rescale() {
    const std::size_t span_days =
        (static_cast<std::size_t>(horizon_) >> width_shift_) -
        (static_cast<std::size_t>(now_) >> width_shift_) + 1;
    if (count_ - in_runs_ <
        kTargetOccupancy * std::min(span_days, counts_.size())) {
      return;
    }
    if (span_days >= counts_.size()) {
      if (counts_.size() < kMaxBuckets) {
        rebuild(counts_.size() * 2, width_shift_);
      }
    } else if (width_shift_ > 0) {
      rebuild(counts_.size(), width_shift_ - 1);
    }
  }

  /// Redistributes every slab and spilled entry into a fresh slab with
  /// `new_size` buckets of width 2^new_shift. Spilled entries usually
  /// re-enter the (now roomier) slab; runs are keyed by tick, not day,
  /// and stay as they are.
  void rebuild(std::size_t new_size, int new_shift) {
    std::vector<Entry> old_slab = std::move(slab_);
    std::vector<std::uint8_t> old_counts = std::move(counts_);
    std::vector<Entry> old_overflow = std::move(overflow_);
    slab_.assign(new_size * kSlots, Entry{});
    counts_.assign(new_size, 0);
    dirty_.assign(new_size, 0);
    overflow_.clear();
    width_shift_ = new_shift;
    cached_bucket_ = -1;
    for (std::size_t b = 0; b < old_counts.size(); ++b) {
      for (std::size_t i = 0; i < old_counts[b]; ++i) {
        Entry& entry = old_slab[b * kSlots + i];
        raw_push(entry.time, entry.seq, std::move(entry.payload));
      }
    }
    for (Entry& entry : old_overflow) {
      raw_push(entry.time, entry.seq, std::move(entry.payload));
    }
  }

  int width_shift_ = 0;
  /// Bucket b's entries live in slab_[b * kSlots + i), i < counts_[b],
  /// unordered while dirty_[b], else sorted descending by (time, seq).
  std::vector<Entry> slab_;
  std::vector<std::uint8_t> counts_;
  std::vector<std::uint8_t> dirty_;
  /// Floods past their full segments, ascending by tick (one run per
  /// tick); only the first is ever ordered or compared.
  std::vector<Run> runs_;
  /// Emptied run buffers, kept for their capacity.
  std::vector<std::vector<Entry>> spare_;
  /// order_run's merge target, swapped with the run it orders.
  std::vector<Entry> merged_;
  /// Multi-tick overflow: a binary min-heap on (time, seq).
  std::vector<Entry> overflow_;
  std::size_t count_ = 0;
  std::size_t in_runs_ = 0;  ///< pending entries held by runs
  SimTime now_ = 0;
  SimTime horizon_ = 0;  ///< latest time ever pushed
  std::uint64_t next_seq_ = 0;
  /// Bucket whose segment back is the slab-wide minimum, or -1. The
  /// segment may have gone dirty since caching; peek/pop re-sort it.
  std::int64_t cached_bucket_ = -1;
};

}  // namespace otis::sim
