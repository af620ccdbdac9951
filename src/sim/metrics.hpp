#pragma once
/// \file metrics.hpp
/// Measurement collection for the network simulator.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace otis::core {
class BlobWriter;
class BlobReader;
}  // namespace otis::core

namespace otis::sim {

/// Cap on up-front LatencyStats reservations (8 MiB of samples). The
/// engines reserve min(delivery bound, cap): the bound is measure_slots
/// (clamped to the cap, so the product cannot overflow) x nodes (or the
/// workload's packet count), which over-states real
/// delivery counts by 1/load or more, so the cap keeps huge cells from
/// paying for memory they will never touch while still giving the
/// common case a reallocation-free hot loop.
inline constexpr std::int64_t kLatencyReserveCap = std::int64_t{1} << 20;

/// Online latency statistics: full-sample percentiles by default, or a
/// fixed-footprint HDR-style sketch when use_sketch() is called.
///
/// Full mode stores every sample -- O(delivered packets) memory, exact
/// percentiles. Sketch mode keeps log-spaced buckets with
/// kSketchSubBits sub-buckets per octave: values below 2^kSketchSubBits
/// land in exact unit buckets, larger values share a bucket with
/// relative width 2^-kSketchSubBits, so percentile() answers within a
/// 1/32 relative error bound in ~15 KiB regardless of how many packets
/// were delivered (the 10^6-node cells' requirement). The count, sum
/// (hence mean), min and max are tracked exactly in both modes, and
/// merge() stays an order-independent fold, so the sharded engines'
/// per-worker stats fold identically whichever mode is active.
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

  /// Inline: called once per delivered packet in every engine hot loop
  /// (one predictable mode branch).
  void record(std::int64_t latency_slots) {
    if (sketch_) {
      record_sketch(latency_slots);
      return;
    }
    samples_.push_back(latency_slots);
  }

  /// Switches to sketch mode (idempotent). Any samples recorded so far
  /// are folded into the buckets; engines call this before recording.
  void use_sketch();

  [[nodiscard]] bool sketch() const noexcept { return sketch_; }

  /// Pre-sizes the sample buffer so the hot loop's record() never
  /// reallocates mid-run; engines call this once with their delivery
  /// bound clamped to kLatencyReserveCap. A no-op in sketch mode (the
  /// buckets are the whole footprint).
  void reserve(std::int64_t samples) {
    if (!sketch_ && samples > 0) {
      samples_.reserve(static_cast<std::size_t>(samples));
    }
  }

  /// Folds `other` into this (used to fold per-shard stats). Every
  /// statistic below depends only on the recorded multiset -- the mean
  /// is an exact integer sum, full-mode percentiles select, sketch-mode
  /// percentiles walk cumulative bucket counts -- so merged results are
  /// identical for any merge order. Mixed-mode merges promote this
  /// object to a sketch first.
  void merge(const LatencyStats& other);

  [[nodiscard]] std::int64_t count() const noexcept { return count_impl(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] std::int64_t max() const;
  /// q in [0, 1]; nearest-rank percentile. 0 samples -> 0. Full mode
  /// answers in linear time (nth_element over the samples, which it may
  /// reorder; min/max scans at q <= 0 and q >= 1), so emitting a cell
  /// never sorts its whole delivery record. In sketch mode the result is
  /// the containing bucket's lower bound clamped to [min, max]: never
  /// above the exact value, and within kSketchRelativeError of it
  /// relative.
  [[nodiscard]] std::int64_t percentile(double q) const;

  /// Checkpoint support: byte-stable state round-trip (mode included).
  void serialize(core::BlobWriter& out) const;
  void deserialize(core::BlobReader& in);

 private:
  void record_sketch(std::int64_t v) {
    ++buckets_[bucket_index(v)];
    ++sketch_count_;
    sketch_sum_ += v;
    sketch_min_ = std::min(sketch_min_, v);
    sketch_max_ = std::max(sketch_max_, v);
  }

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

  [[nodiscard]] std::int64_t count_impl() const noexcept {
    return sketch_ ? sketch_count_
                   : static_cast<std::int64_t>(samples_.size());
  }

  mutable std::vector<std::int64_t> samples_;  ///< order is unspecified
  bool sketch_ = false;
  std::vector<std::int64_t> buckets_;  ///< kSketchBuckets when sketching
  std::int64_t sketch_count_ = 0;
  std::int64_t sketch_sum_ = 0;
  std::int64_t sketch_min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t sketch_max_ = std::numeric_limits<std::int64_t>::min();
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
