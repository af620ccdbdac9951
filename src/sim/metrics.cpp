#include "sim/metrics.hpp"

#include <algorithm>

#include "core/blob.hpp"
#include "core/error.hpp"

namespace otis::sim {

void LatencyStats::add_outside(std::int64_t key, std::int64_t n) {
  if (key < 0 || key >= kDenseKeys) {
    sparse_[key] += n;
    return;
  }
  const auto grown = static_cast<std::int64_t>(2 * dense_.size());
  dense_.resize(static_cast<std::size_t>(
      std::min(kDenseKeys, std::max(key + 1, grown))));
  dense_[static_cast<std::size_t>(key)] += n;
}

template <class Visit>
void LatencyStats::for_each_key(Visit&& visit) const {
  auto outlier = sparse_.begin();
  for (; outlier != sparse_.end() && outlier->first < 0; ++outlier) {
    if (visit(outlier->first, outlier->second)) {
      return;
    }
  }
  for (std::size_t key = 0; key < dense_.size(); ++key) {
    if (dense_[key] != 0 &&
        visit(static_cast<std::int64_t>(key), dense_[key])) {
      return;
    }
  }
  for (; outlier != sparse_.end(); ++outlier) {
    if (visit(outlier->first, outlier->second)) {
      return;
    }
  }
}

void LatencyStats::use_sketch() {
  if (sketch_) {
    return;
  }
  const LatencyStats exact = std::move(*this);
  *this = LatencyStats();
  sketch_ = true;
  merge(exact);
}

void LatencyStats::merge(const LatencyStats& other) {
  if (!sketch_ && other.sketch_) {
    use_sketch();
  }
  // An exact source folds into a sketch by re-keying each value.
  const bool rekey = sketch_ && !other.sketch_;
  other.for_each_key([&](std::int64_t key, std::int64_t n) {
    add(rekey ? static_cast<std::int64_t>(bucket_index(key)) : key, n);
    return false;
  });
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LatencyStats::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::int64_t LatencyStats::max() const { return count_ == 0 ? 0 : max_; }

std::int64_t LatencyStats::percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q <= 0.0) {
    return min_;
  }
  if (q >= 1.0) {
    return max_;
  }
  const auto rank = static_cast<std::int64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::int64_t cum = 0;
  std::int64_t value = max_;
  for_each_key([&](std::int64_t key, std::int64_t n) {
    cum += n;
    if (cum <= rank) {
      return false;
    }
    value = sketch_ ? std::clamp(bucket_floor(static_cast<std::size_t>(key)),
                                 min_, max_)
                    : key;
    return true;
  });
  return value;
}

void LatencyStats::serialize(core::BlobWriter& out) const {
  out.put_u8(sketch_ ? 1 : 0);
  out.put_i64(count_);
  out.put_u64(static_cast<std::uint64_t>(sum_));
  out.put_i64(static_cast<std::int64_t>(sum_ >> 64));
  out.put_i64(min_);
  out.put_i64(max_);
  std::int64_t keys = 0;
  for_each_key([&](std::int64_t, std::int64_t) {
    ++keys;
    return false;
  });
  out.put_i64(keys);
  for_each_key([&](std::int64_t key, std::int64_t n) {
    out.put_i64(key);
    out.put_i64(n);
    return false;
  });
}

void LatencyStats::deserialize(core::BlobReader& in) {
  const std::uint8_t mode = in.get_u8();
  OTIS_REQUIRE(mode <= 1, "LatencyStats: unknown mode");
  LatencyStats restored;
  restored.sketch_ = mode == 1;
  restored.count_ = in.get_i64();
  const std::uint64_t sum_low = in.get_u64();
  restored.sum_ = (LatencySum{in.get_i64()} << 64) + sum_low;
  restored.min_ = in.get_i64();
  restored.max_ = in.get_i64();
  const std::int64_t keys = in.get_i64();
  OTIS_REQUIRE(keys >= 0 && keys <= restored.count_,
               "LatencyStats: a negative count, or more keys than values");
  // Exact mode: the sum and range the pairs imply.
  LatencySum sum = 0;
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < keys; ++i) {
    const std::int64_t key = in.get_i64();
    const std::int64_t n = in.get_i64();
    OTIS_REQUIRE(i == 0 || key > last,
                 "LatencyStats: keys not strictly ascending");
    OTIS_REQUIRE(!restored.sketch_ ||
                     (key >= 0 && static_cast<std::uint64_t>(key) <
                                      kSketchBuckets),
                 "LatencyStats: sketch bucket index out of range");
    OTIS_REQUIRE(n >= 1 && n <= restored.count_ - total,
                 "LatencyStats: a key count is zero or exceeds the count");
    restored.add(key, n);
    total += n;
    sum += LatencySum{key} * n;
    first = i == 0 ? key : first;
    last = key;
  }
  OTIS_REQUIRE(total == restored.count_,
               "LatencyStats: key counts do not sum to the count");
  const std::int64_t lo = restored.min_;
  const std::int64_t hi = restored.max_;
  // A sketch keeps the exact range inside its outer buckets, and the sum
  // between count x min and count x max.
  const bool agrees =
      !restored.sketch_ || total == 0
          ? restored.sum_ == sum && lo == first && hi == last
          : lo <= hi &&
                static_cast<std::int64_t>(bucket_index(lo)) == first &&
                static_cast<std::int64_t>(bucket_index(hi)) == last &&
                LatencySum{lo} * total <= restored.sum_ &&
                restored.sum_ <= LatencySum{hi} * total;
  OTIS_REQUIRE(agrees,
               "LatencyStats: sum, min or max disagrees with the counts");
  *this = std::move(restored);
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
