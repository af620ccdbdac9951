#include "sim/metrics.hpp"

#include <algorithm>

#include "core/blob.hpp"
#include "core/error.hpp"

namespace otis::sim {

void LatencyStats::use_sketch() {
  if (sketch_) {
    return;
  }
  sketch_ = true;
  buckets_.assign(kSketchBuckets, 0);
  // Fold anything recorded before the switch (mixed-mode merge path).
  for (std::int64_t s : samples_) {
    record_sketch(s);
  }
  samples_.clear();
  samples_.shrink_to_fit();
}

void LatencyStats::merge(const LatencyStats& other) {
  if (!sketch_ && other.sketch_) {
    use_sketch();
  }
  if (sketch_) {
    if (other.sketch_) {
      if (other.sketch_count_ == 0) {
        return;
      }
      for (std::size_t i = 0; i < kSketchBuckets; ++i) {
        buckets_[i] += other.buckets_[i];
      }
      sketch_count_ += other.sketch_count_;
      sketch_sum_ += other.sketch_sum_;
      sketch_min_ = std::min(sketch_min_, other.sketch_min_);
      sketch_max_ = std::max(sketch_max_, other.sketch_max_);
    } else {
      for (std::int64_t s : other.samples_) {
        record_sketch(s);
      }
    }
    return;
  }
  // Reserve the combined size up front: aggregate folds over many seeds
  // append repeatedly and would otherwise reallocate on every merge.
  samples_.reserve(samples_.size() + other.samples_.size());
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

double LatencyStats::mean() const {
  if (sketch_) {
    if (sketch_count_ == 0) {
      return 0.0;
    }
    // The sum is exact in both modes, so sketch means match full means.
    return static_cast<double>(sketch_sum_) /
           static_cast<double>(sketch_count_);
  }
  if (samples_.empty()) {
    return 0.0;
  }
  // Exact integer sum: the mean is a pure function of the sample
  // multiset, independent of recording order (the sharded engine merges
  // per-worker stats and must stay bit-identical across thread counts).
  std::int64_t total = 0;
  for (std::int64_t s : samples_) {
    total += s;
  }
  return static_cast<double>(total) / static_cast<double>(samples_.size());
}

std::int64_t LatencyStats::max() const {
  if (sketch_) {
    return sketch_count_ == 0 ? 0 : sketch_max_;
  }
  if (samples_.empty()) {
    return 0;
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

std::int64_t LatencyStats::percentile(double q) const {
  if (sketch_) {
    if (sketch_count_ == 0) {
      return 0;
    }
    if (q <= 0.0) {
      return sketch_min_;
    }
    if (q >= 1.0) {
      return sketch_max_;
    }
    // Same nearest-rank rule as the full-sample path, answered from the
    // cumulative bucket counts; the bucket floor is never above the
    // exact sample and within kSketchRelativeError of it.
    const auto rank = static_cast<std::int64_t>(
        q * static_cast<double>(sketch_count_ - 1) + 0.5);
    std::int64_t cum = 0;
    for (std::size_t i = 0; i < kSketchBuckets; ++i) {
      cum += buckets_[i];
      if (cum > rank) {
        return std::clamp(bucket_floor(i), sketch_min_, sketch_max_);
      }
    }
    return sketch_max_;
  }
  if (samples_.empty()) {
    return 0;
  }
  if (q <= 0.0) {
    return *std::min_element(samples_.begin(), samples_.end());
  }
  if (q >= 1.0) {
    return max();
  }
  // The value a full sort would put at the nearest rank, selected in
  // O(n): the campaign sinks call this for every cell, under the emit
  // lock.
  const std::size_t rank = std::min(
      static_cast<std::size_t>(
          q * static_cast<double>(samples_.size() - 1) + 0.5),
      samples_.size() - 1);
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(samples_.begin(), nth, samples_.end());
  return *nth;
}

void LatencyStats::serialize(core::BlobWriter& out) const {
  out.put_u8(sketch_ ? 1 : 0);
  if (sketch_) {
    out.put_i64(sketch_count_);
    out.put_i64(sketch_sum_);
    out.put_i64(sketch_min_);
    out.put_i64(sketch_max_);
    // Sparse encoding: most of the ~1900 buckets are empty.
    std::int64_t occupied = 0;
    for (std::int64_t b : buckets_) {
      occupied += b != 0 ? 1 : 0;
    }
    out.put_i64(occupied);
    for (std::size_t i = 0; i < kSketchBuckets; ++i) {
      if (buckets_[i] != 0) {
        out.put_u64(i);
        out.put_i64(buckets_[i]);
      }
    }
  } else {
    out.put_i64_vec(samples_);
  }
}

void LatencyStats::deserialize(core::BlobReader& in) {
  const bool sketch = in.get_u8() != 0;
  if (sketch) {
    sketch_ = false;
    samples_.clear();
    use_sketch();
    sketch_count_ = in.get_i64();
    sketch_sum_ = in.get_i64();
    sketch_min_ = in.get_i64();
    sketch_max_ = in.get_i64();
    const std::int64_t occupied = in.get_i64();
    std::int64_t total = 0;
    for (std::int64_t k = 0; k < occupied; ++k) {
      const std::uint64_t i = in.get_u64();
      const std::int64_t n = in.get_i64();
      OTIS_REQUIRE(i < kSketchBuckets && n >= 0 && n <= sketch_count_ - total,
                   "LatencyStats: sketch bucket index or count out of range");
      buckets_[i] += n;
      total += n;
    }
    OTIS_REQUIRE(total == sketch_count_,
                 "LatencyStats: sketch bucket counts do not sum to the count");
  } else {
    sketch_ = false;
    buckets_.clear();
    sketch_count_ = 0;
    sketch_sum_ = 0;
    sketch_min_ = std::numeric_limits<std::int64_t>::max();
    sketch_max_ = std::numeric_limits<std::int64_t>::min();
    samples_ = in.get_i64_vec();
  }
}

double RunMetrics::throughput_per_node(std::int64_t nodes) const {
  if (slots == 0 || nodes == 0) {
    return 0.0;
  }
  return static_cast<double>(delivered_packets) /
         (static_cast<double>(slots) * static_cast<double>(nodes));
}

double RunMetrics::coupler_utilization(std::int64_t couplers) const {
  if (slots == 0 || couplers == 0) {
    return 0.0;
  }
  return static_cast<double>(coupler_transmissions) /
         (static_cast<double>(slots) * static_cast<double>(couplers));
}

}  // namespace otis::sim
