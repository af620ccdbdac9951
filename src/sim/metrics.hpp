#pragma once
/// \file metrics.hpp
/// Measurement collection for the network simulator.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

namespace otis::core {
class BlobWriter;
class BlobReader;
}  // namespace otis::core

namespace otis::sim {

/// Exact sum of int64 latencies: no multiset of at most 2^63 of them
/// overflows it.
__extension__ typedef __int128 LatencySum;

/// Online latency statistics: a count per bucket key, exact by default,
/// or a fixed-footprint HDR-style sketch once use_sketch() is called.
/// The two modes differ only in how a value maps to its key.
///
/// Exact mode keys a value by itself. Keys in [0, kDenseKeys) are counted
/// in a dense array that grows to the largest one seen; any other value
/// (negative, or 2^16 slots and more) goes to a sorted sparse map. So
/// every int64 multiset is kept exactly, in O(min(max latency, 2^16) +
/// distinct outliers) memory whatever the number of deliveries. Sketch
/// mode keys a value by its log-spaced bucket, kSketchSubBits sub-buckets
/// per octave: values below 2^kSketchSubBits land in exact unit buckets,
/// larger values share a bucket with relative width 2^-kSketchSubBits,
/// so percentile() answers within a 1/32 relative error bound in at most
/// ~15 KiB (the 10^6-node cells' requirement). The count, sum (hence
/// mean), min and max are tracked exactly in both modes, and merge() is
/// an order-independent fold, so the sharded engines' per-worker stats
/// fold identically whichever mode is active.
class LatencyStats {
 public:
  /// Sub-bucket resolution: 2^5 = 32 sub-buckets per octave, bounding
  /// the sketch's relative percentile error by 2^-5 = 3.125%.
  static constexpr int kSketchSubBits = 5;
  /// One block of 2^kSketchSubBits buckets per value octave (values are
  /// nonnegative 63-bit slot counts).
  static constexpr std::size_t kSketchBuckets =
      std::size_t{64 - kSketchSubBits} << kSketchSubBits;
  /// The sketch's worst-case relative percentile error.
  static constexpr double kSketchRelativeError = 1.0 / 32.0;
  /// Exact-mode values in [0, kDenseKeys) are counted in the dense array.
  static constexpr std::int64_t kDenseKeys = std::int64_t{1} << 16;

  /// Inline: called once per delivered packet in every engine hot loop
  /// (one predictable mode branch and, once the array has grown, one
  /// predictable range branch).
  void record(std::int64_t latency_slots) {
    add(sketch_ ? static_cast<std::int64_t>(bucket_index(latency_slots))
                : latency_slots,
        1);
    ++count_;
    sum_ += latency_slots;
    min_ = std::min(min_, latency_slots);
    max_ = std::max(max_, latency_slots);
  }

  /// Switches to sketch mode (idempotent). Any values recorded so far
  /// are re-keyed into the buckets; engines call this before recording.
  void use_sketch();

  [[nodiscard]] bool sketch() const noexcept { return sketch_; }

  /// Folds `other` into this (used to fold per-shard stats). Every
  /// statistic below depends only on the recorded multiset -- the mean
  /// is an exact integer sum, percentiles walk cumulative counts -- so
  /// merged results are identical for any merge order. Mixed-mode
  /// merges promote this object to a sketch first.
  void merge(const LatencyStats& other);

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] std::int64_t max() const;
  /// q in [0, 1]; nearest-rank percentile (rank round(q * (count - 1))
  /// of the sorted values, min at q <= 0, max at q >= 1). 0 values -> 0.
  /// A walk over the cumulative counts that changes nothing. In sketch
  /// mode the result is the containing bucket's lower bound clamped to
  /// [min, max]: never above the exact value, and within
  /// kSketchRelativeError of it relative.
  [[nodiscard]] std::int64_t percentile(double q) const;

  /// Checkpoint support: mode byte, count, sum (low then high word),
  /// min, max, then the occupied keys' count and (key, count) pairs in
  /// ascending key order. deserialize() throws core::Error on a payload
  /// no sequence of record() calls could have left.
  void serialize(core::BlobWriter& out) const;
  void deserialize(core::BlobReader& in);

 private:
  void add(std::int64_t key, std::int64_t n) {
    const auto at = static_cast<std::uint64_t>(key);
    if (at < dense_.size()) {
      dense_[at] += n;
      return;
    }
    add_outside(key, n);
  }

  /// Grows the dense array to cover `key`, or counts it in the sparse map.
  void add_outside(std::int64_t key, std::int64_t n);

  /// Calls visit(key, count) for every occupied key in ascending order
  /// until it returns true.
  template <class Visit>
  void for_each_key(Visit&& visit) const;

  /// Log-linear bucket of nonnegative `v` (negatives clamp to 0):
  /// exact below 2^kSketchSubBits, then kSketchSubBits mantissa bits.
  [[nodiscard]] static std::size_t bucket_index(std::int64_t v) noexcept {
    const std::uint64_t u = v > 0 ? static_cast<std::uint64_t>(v) : 0;
    if (u < (std::uint64_t{1} << kSketchSubBits)) {
      return static_cast<std::size_t>(u);
    }
    const int e = std::bit_width(u) - 1;
    const int shift = e - kSketchSubBits;
    return (static_cast<std::size_t>(shift + 1) << kSketchSubBits) +
           static_cast<std::size_t>((u >> shift) -
                                    (std::uint64_t{1} << kSketchSubBits));
  }

  /// Lower bound of bucket `idx` (the inverse of bucket_index).
  [[nodiscard]] static std::int64_t bucket_floor(std::size_t idx) noexcept {
    const std::size_t block = idx >> kSketchSubBits;
    if (block <= 1) {
      return static_cast<std::int64_t>(idx);
    }
    const std::size_t off = idx & ((std::size_t{1} << kSketchSubBits) - 1);
    return static_cast<std::int64_t>(
        (std::uint64_t{1} << (kSketchSubBits + block - 1)) +
        (static_cast<std::uint64_t>(off) << (block - 1)));
  }

  bool sketch_ = false;
  std::vector<std::int64_t> dense_;  ///< count per key in [0, size)
  std::map<std::int64_t, std::int64_t> sparse_;  ///< exact mode's outliers
  std::int64_t count_ = 0;
  LatencySum sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Aggregate counters of one simulation run.
struct RunMetrics {
  std::int64_t slots = 0;             ///< measured slots (after warmup)
  std::int64_t offered_packets = 0;   ///< generated during measurement
  std::int64_t delivered_packets = 0; ///< reached destination
  std::int64_t coupler_transmissions = 0;  ///< successful slot-coupler uses
  std::int64_t collisions = 0;        ///< slot-couplers lost to contention
  std::int64_t dropped_packets = 0;   ///< lost to finite queues (if any)
  std::int64_t backlog = 0;           ///< packets still queued at the end
  /// Closed-loop (workload-driven) runs only: slots from the start of
  /// the run to the last workload delivery, the simulated completion
  /// time of the collective/kernel/trace. 0 for open-loop runs.
  std::int64_t makespan_slots = 0;
  /// True only when a checkpoint_stop_at drill cut the run short right
  /// after a checkpoint write: the counters above cover just the slots
  /// executed before the stop, and the blob on disk is the live
  /// continuation. Uninterrupted runs (including ones that wrote
  /// checkpoints along the way) never set this.
  bool interrupted = false;
  LatencyStats latency;

  /// Delivered packets per processor per slot.
  [[nodiscard]] double throughput_per_node(std::int64_t nodes) const;
  /// Fraction of coupler-slots carrying a successful transmission.
  [[nodiscard]] double coupler_utilization(std::int64_t couplers) const;
};

}  // namespace otis::sim
