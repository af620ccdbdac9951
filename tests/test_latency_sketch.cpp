// LatencyStats in both modes.
//
// Exact mode (the default histogram):
//  - count, mean, max and nearest-rank percentiles match a sorted-vector
//    oracle on multisets holding 0, negatives, 2^16 - 1, 2^16 and
//    INT64_MAX, whatever the merge order, and percentile() on a const
//    object answers the same twice;
//  - promotion to a sketch, by use_sketch() or by merge(), leaves the
//    state that recording every value into a sketch gives;
//  - deserialize() throws core::Error on payloads no run could leave
//    (unsorted or duplicate keys, zero counts, counts that miss the
//    total, a sum or range that disagrees with the pairs), and a pair
//    claiming 2^62 values allocates nothing per value.
//
// The O(1)-memory sketch (LatencyStats::use_sketch):
//  - count, mean (exact integer sum), min-clamped and max statistics
//    match exact mode;
//  - percentiles answer within the documented kSketchRelativeError
//    (1/32) relative bound and never overshoot the exact value;
//  - values below 2^kSketchSubBits land in exact unit buckets;
//  - use_sketch() folds already-recorded samples and is idempotent;
//  - merge() stays an order-independent fold in sketch mode and
//    promotes the destination on mixed-mode merges;
//  - serialize()/deserialize() round-trips both representations;
//  - LatencyMode::kAuto resolves to the sketch exactly at the
//    kAutoLatencySketchNodes threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/blob.hpp"
#include "core/error.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"

namespace otis {
namespace {

using sim::LatencyStats;

/// Deterministic 64-bit mix (splitmix64) -- no external RNG state, so
/// the sample sets below are stable across platforms and reruns.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A latency-shaped sample set: mostly small values with a heavy tail
/// spanning several octaves, like queueing delays under load.
std::vector<std::int64_t> tailed_samples(std::size_t n,
                                         std::uint64_t seed = 1) {
  std::vector<std::int64_t> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = mix(seed + i);
    const int octaves = static_cast<int>(r % 21);  // 0..20 -> up to ~2M
    values.push_back(
        static_cast<std::int64_t>(mix(r) % (std::uint64_t{1} << octaves)));
  }
  return values;
}

void record_all(LatencyStats& stats, const std::vector<std::int64_t>& values) {
  for (const std::int64_t v : values) {
    stats.record(v);
  }
}

constexpr double kQuantiles[] = {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0};

/// The documented contract: a sketch percentile is never above the
/// exact one and within kSketchRelativeError of it (plus one slot of
/// integer-floor slack).
void expect_percentiles_within_bound(const LatencyStats& exact,
                                     const LatencyStats& sketch) {
  ASSERT_EQ(sketch.count(), exact.count());
  EXPECT_DOUBLE_EQ(sketch.mean(), exact.mean());
  EXPECT_EQ(sketch.max(), exact.max());
  for (const double q : kQuantiles) {
    SCOPED_TRACE(q);
    const std::int64_t p_exact = exact.percentile(q);
    const std::int64_t p_sketch = sketch.percentile(q);
    EXPECT_LE(p_sketch, p_exact);
    EXPECT_GE(static_cast<double>(p_sketch),
              (1.0 - LatencyStats::kSketchRelativeError) *
                      static_cast<double>(p_exact) -
                  1.0);
  }
}

TEST(LatencySketch, SmallValuesAreExact) {
  // Everything below 2^kSketchSubBits has its own unit bucket: the
  // sketch is not approximate at all there.
  LatencyStats exact;
  LatencyStats sketch;
  sketch.use_sketch();
  for (std::int64_t v = 0; v < (std::int64_t{1} << LatencyStats::kSketchSubBits);
       ++v) {
    for (std::int64_t rep = 0; rep <= v % 3; ++rep) {
      exact.record(v);
      sketch.record(v);
    }
  }
  ASSERT_EQ(sketch.count(), exact.count());
  for (const double q : kQuantiles) {
    EXPECT_EQ(sketch.percentile(q), exact.percentile(q)) << "q=" << q;
  }
}

TEST(LatencySketch, PercentilesWithinRelativeErrorBound) {
  const std::vector<std::int64_t> values = tailed_samples(20000);
  LatencyStats exact;
  LatencyStats sketch;
  sketch.use_sketch();
  record_all(exact, values);
  record_all(sketch, values);
  EXPECT_FALSE(exact.sketch());
  EXPECT_TRUE(sketch.sketch());
  expect_percentiles_within_bound(exact, sketch);
}

TEST(LatencySketch, UseSketchFoldsExistingSamplesAndIsIdempotent) {
  const std::vector<std::int64_t> values = tailed_samples(5000, 7);
  LatencyStats exact;
  record_all(exact, values);

  LatencyStats folded;
  record_all(folded, values);  // recorded in full mode first
  folded.use_sketch();
  folded.use_sketch();  // idempotent
  EXPECT_TRUE(folded.sketch());
  expect_percentiles_within_bound(exact, folded);

  // Folding then recording must equal recording in sketch mode all
  // along (the buckets do not care when the switch happened).
  LatencyStats native;
  native.use_sketch();
  record_all(native, values);
  for (const double q : kQuantiles) {
    EXPECT_EQ(folded.percentile(q), native.percentile(q)) << "q=" << q;
  }
}

TEST(LatencySketch, MergeIsOrderIndependent) {
  const std::vector<std::int64_t> a_values = tailed_samples(3000, 11);
  const std::vector<std::int64_t> b_values = tailed_samples(3000, 13);
  const std::vector<std::int64_t> c_values = tailed_samples(3000, 17);
  auto make = [](const std::vector<std::int64_t>& values) {
    LatencyStats s;
    s.use_sketch();
    record_all(s, values);
    return s;
  };
  LatencyStats abc = make(a_values);
  abc.merge(make(b_values));
  abc.merge(make(c_values));
  LatencyStats cba = make(c_values);
  cba.merge(make(b_values));
  cba.merge(make(a_values));
  ASSERT_EQ(abc.count(), cba.count());
  EXPECT_DOUBLE_EQ(abc.mean(), cba.mean());
  EXPECT_EQ(abc.max(), cba.max());
  for (const double q : kQuantiles) {
    EXPECT_EQ(abc.percentile(q), cba.percentile(q)) << "q=" << q;
  }
}

TEST(LatencySketch, MixedModeMergePromotesToSketch) {
  const std::vector<std::int64_t> a_values = tailed_samples(4000, 19);
  const std::vector<std::int64_t> b_values = tailed_samples(4000, 23);
  LatencyStats exact;
  record_all(exact, a_values);
  record_all(exact, b_values);

  // Full destination, sketch source: the destination promotes first.
  LatencyStats full_dst;
  record_all(full_dst, a_values);
  LatencyStats sketch_src;
  sketch_src.use_sketch();
  record_all(sketch_src, b_values);
  full_dst.merge(sketch_src);
  EXPECT_TRUE(full_dst.sketch());
  expect_percentiles_within_bound(exact, full_dst);

  // Sketch destination, full source: samples fold into the buckets.
  LatencyStats sketch_dst;
  sketch_dst.use_sketch();
  record_all(sketch_dst, a_values);
  LatencyStats full_src;
  record_all(full_src, b_values);
  sketch_dst.merge(full_src);
  EXPECT_TRUE(sketch_dst.sketch());
  for (const double q : kQuantiles) {
    EXPECT_EQ(sketch_dst.percentile(q), full_dst.percentile(q)) << "q=" << q;
  }
}

TEST(LatencySketch, SerializeRoundTripsBothModes) {
  const std::vector<std::int64_t> values = tailed_samples(2500, 29);
  for (const bool sketch_mode : {false, true}) {
    SCOPED_TRACE(sketch_mode ? "sketch" : "full");
    LatencyStats original;
    if (sketch_mode) {
      original.use_sketch();
    }
    record_all(original, values);

    core::BlobWriter out;
    original.serialize(out);
    core::BlobReader in(out.bytes());
    LatencyStats restored;
    restored.deserialize(in);
    EXPECT_TRUE(in.at_end());

    EXPECT_EQ(restored.sketch(), sketch_mode);
    ASSERT_EQ(restored.count(), original.count());
    EXPECT_DOUBLE_EQ(restored.mean(), original.mean());
    EXPECT_EQ(restored.max(), original.max());
    for (const double q : kQuantiles) {
      EXPECT_EQ(restored.percentile(q), original.percentile(q)) << "q=" << q;
    }

    // The restored object keeps recording correctly.
    restored.record(12345);
    EXPECT_EQ(restored.count(), original.count() + 1);
  }
}

/// Nearest-rank percentile of `sorted`: rank round(q * (n - 1)), the
/// first and last value at q <= 0 and q >= 1.
std::int64_t oracle_percentile(const std::vector<std::int64_t>& sorted,
                               double q) {
  if (q <= 0.0) {
    return sorted.front();
  }
  if (q >= 1.0) {
    return sorted.back();
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// `n` values, mostly small slot counts, with 0, negatives, both sides
/// of the dense array's 2^16 boundary and INT64_MAX mixed in.
std::vector<std::int64_t> hostile_samples(std::size_t n, std::uint64_t seed) {
  const std::int64_t specials[] = {0,
                                   -1,
                                   -70000,
                                   std::numeric_limits<std::int64_t>::min(),
                                   LatencyStats::kDenseKeys - 1,
                                   LatencyStats::kDenseKeys,
                                   LatencyStats::kDenseKeys + 1,
                                   std::int64_t{1} << 40,
                                   std::numeric_limits<std::int64_t>::max()};
  std::vector<std::int64_t> values;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = mix(seed * 1000003 + i);
    values.push_back(r % 4 == 0 ? specials[(r >> 8) % std::size(specials)]
                                : static_cast<std::int64_t>((r >> 8) % 300));
  }
  return values;
}

std::vector<std::uint8_t> bytes_of(const LatencyStats& stats) {
  core::BlobWriter out;
  stats.serialize(out);
  return out.bytes();
}

TEST(LatencyStats, ExactModeMatchesASortedOracle) {
  constexpr double kOracleQuantiles[] = {0.0, 0.25, 0.5, 0.95, 0.99, 1.0};
  for (const std::size_t n : {1, 2, 3, 17, 1000, 20000}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      const std::vector<std::int64_t> values = hostile_samples(n, seed);
      LatencyStats stats;
      record_all(stats, values);
      std::vector<std::int64_t> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      sim::LatencySum sum = 0;
      for (const std::int64_t v : sorted) {
        sum += v;
      }
      const LatencyStats& frozen = stats;
      EXPECT_FALSE(frozen.sketch());
      ASSERT_EQ(frozen.count(), static_cast<std::int64_t>(n));
      EXPECT_DOUBLE_EQ(frozen.mean(),
                       static_cast<double>(sum) / static_cast<double>(n));
      EXPECT_EQ(frozen.max(), sorted.back());
      for (const double q : kOracleQuantiles) {
        SCOPED_TRACE(q);
        const std::int64_t first = frozen.percentile(q);
        EXPECT_EQ(first, oracle_percentile(sorted, q));
        EXPECT_EQ(frozen.percentile(q), first);
      }

      // Any merge order leaves the same state, byte for byte.
      const std::size_t cut1 = n / 3;
      const std::size_t cut2 = 2 * n / 3;
      LatencyStats parts[3];
      for (std::size_t i = 0; i < n; ++i) {
        parts[i < cut1 ? 0 : i < cut2 ? 1 : 2].record(values[i]);
      }
      LatencyStats forward;
      LatencyStats backward = parts[2];
      for (const LatencyStats& part : parts) {
        forward.merge(part);
      }
      backward.merge(parts[1]);
      backward.merge(parts[0]);
      EXPECT_EQ(bytes_of(forward), bytes_of(stats));
      EXPECT_EQ(bytes_of(backward), bytes_of(stats));
    }
  }
}

TEST(LatencyStats, PromotionToASketchMatchesRecordingIntoOne) {
  const std::vector<std::int64_t> values = hostile_samples(5000, 31);
  const std::vector<std::int64_t> more = hostile_samples(3000, 37);
  LatencyStats native;
  native.use_sketch();
  record_all(native, values);
  record_all(native, more);

  LatencyStats promoted;
  record_all(promoted, values);
  record_all(promoted, more);
  promoted.use_sketch();
  EXPECT_EQ(bytes_of(promoted), bytes_of(native));

  // An exact destination merging a sketch, and a sketch merging an
  // exact source.
  LatencyStats exact_part;
  record_all(exact_part, values);
  LatencyStats sketch_part;
  sketch_part.use_sketch();
  record_all(sketch_part, more);
  LatencyStats exact_dst = exact_part;
  exact_dst.merge(sketch_part);
  EXPECT_EQ(bytes_of(exact_dst), bytes_of(native));
  LatencyStats more_exact;
  record_all(more_exact, more);
  LatencyStats sketch_dst;
  sketch_dst.use_sketch();
  record_all(sketch_dst, values);
  sketch_dst.merge(more_exact);
  EXPECT_EQ(bytes_of(sketch_dst), bytes_of(native));
}

/// A payload in the checkpoint layout: mode byte, count, sum (low then
/// high word), min, max, the pair count, then (key, count) pairs.
struct Payload {
  bool sketch = false;
  std::int64_t count = 0;
  sim::LatencySum sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;

  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    core::BlobWriter out;
    out.put_u8(sketch ? 1 : 0);
    out.put_i64(count);
    out.put_u64(static_cast<std::uint64_t>(sum));
    out.put_i64(static_cast<std::int64_t>(sum >> 64));
    out.put_i64(min);
    out.put_i64(max);
    out.put_i64(static_cast<std::int64_t>(pairs.size()));
    for (const auto& [key, n] : pairs) {
      out.put_i64(key);
      out.put_i64(n);
    }
    return out.bytes();
  }
};

LatencyStats restore(const Payload& payload) {
  const std::vector<std::uint8_t> bytes = payload.bytes();
  core::BlobReader in(bytes);
  LatencyStats stats;
  stats.deserialize(in);
  EXPECT_TRUE(in.at_end());
  return stats;
}

TEST(LatencyStats, HostilePayloadsThrow) {
  // Three values 1, 1, 3: what record() leaves in either mode.
  const Payload exact{false, 3, 5, 1, 3, {{1, 2}, {3, 1}}};
  for (const Payload& valid : {exact, Payload{true, 3, 5, 1, 3, {{1, 2},
                                                                 {3, 1}}}}) {
    SCOPED_TRACE(valid.sketch ? "sketch" : "exact");
    LatencyStats direct;
    if (valid.sketch) {
      direct.use_sketch();
    }
    record_all(direct, {1, 3, 1});
    EXPECT_EQ(valid.bytes(), bytes_of(direct));
    EXPECT_EQ(restore(valid).percentile(0.5), 1);

    std::vector<Payload> hostile(9, valid);
    hostile[0].pairs = {{3, 1}, {1, 2}};              // unsorted keys
    hostile[1].pairs = {{1, 1}, {1, 1}, {3, 1}};      // a duplicate key
    hostile[2].pairs = {{1, 2}, {2, 0}, {3, 1}};      // a zero count
    hostile[3].count = 4;                             // counts sum to 3
    hostile[4].count = 2;                             // ... or past it
    hostile[5].pairs = {{1, std::int64_t{1} << 62}};  // 2^62 values
    hostile[6].min = 3;                               // min not in key 1
    hostile[7].max = 0;                               // max below min
    hostile[8].pairs[0].first = -1;                   // no such bucket
    if (!valid.sketch) {
      hostile[8].pairs[0].first = 2;  // the min's key is 1
    }
    for (std::size_t i = 0; i < hostile.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_THROW((void)restore(hostile[i]), core::Error);
    }
  }
  // Exact mode knows the sum, min and max of its pairs.
  Payload sum = exact;
  sum.sum = 6;
  EXPECT_THROW((void)restore(sum), core::Error);
  Payload low = exact;
  low.min = 0;
  EXPECT_THROW((void)restore(low), core::Error);
  Payload high = exact;
  high.max = 4;
  EXPECT_THROW((void)restore(high), core::Error);
  // A sketch's sum lies between count x min and count x max.
  Payload sketch_sum = exact;
  sketch_sum.sketch = true;
  sketch_sum.sum = 10;
  EXPECT_THROW((void)restore(sketch_sum), core::Error);
  // An unknown mode, a bucket past the sketch, a truncated payload.
  Payload mode = exact;
  std::vector<std::uint8_t> bytes = mode.bytes();
  bytes[0] = 2;
  core::BlobReader bad_mode(bytes);
  LatencyStats stats;
  EXPECT_THROW(stats.deserialize(bad_mode), core::Error);
  Payload bucket{true, 1, 5, 5, 5,
                 {{static_cast<std::int64_t>(LatencyStats::kSketchBuckets),
                   1}}};
  EXPECT_THROW((void)restore(bucket), core::Error);
  bytes = exact.bytes();
  bytes.pop_back();
  core::BlobReader truncated(bytes);
  EXPECT_THROW(stats.deserialize(truncated), core::Error);
}

TEST(LatencyStats, APairClaiming2To62ValuesAllocatesNothingPerValue) {
  // Consistent and huge: 2^62 deliveries of 5 slots. A per-value
  // representation would need 32 EiB; the histogram holds one count.
  const std::int64_t n = std::int64_t{1} << 62;
  const LatencyStats stats =
      restore(Payload{false, n, sim::LatencySum{5} * n, 5, 5, {{5, n}}});
  EXPECT_EQ(stats.count(), n);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.percentile(0.5), 5);
  // The same pair under a count of 3 does not add up.
  EXPECT_THROW(
      (void)restore(Payload{false, 3, 15, 5, 5, {{5, n}}}), core::Error);
}

TEST(LatencySketch, EmptyStatsAnswerZero) {
  LatencyStats sketch;
  sketch.use_sketch();
  EXPECT_EQ(sketch.count(), 0);
  EXPECT_DOUBLE_EQ(sketch.mean(), 0.0);
  EXPECT_EQ(sketch.max(), 0);
  EXPECT_EQ(sketch.percentile(0.5), 0);
}

TEST(LatencySketch, AutoModeFlipsAtTheNodeThreshold) {
  using sim::LatencyMode;
  EXPECT_FALSE(sim::resolve_latency_sketch(LatencyMode::kAuto,
                                           sim::kAutoLatencySketchNodes - 1));
  EXPECT_TRUE(sim::resolve_latency_sketch(LatencyMode::kAuto,
                                          sim::kAutoLatencySketchNodes));
  EXPECT_TRUE(sim::resolve_latency_sketch(LatencyMode::kSketch, 2));
  EXPECT_FALSE(sim::resolve_latency_sketch(LatencyMode::kFull,
                                           std::int64_t{1} << 40));
}

}  // namespace
}  // namespace otis
