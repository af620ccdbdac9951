#pragma once
/// \file experiment.hpp
/// Multi-trial aggregation: one sweep point's metrics over independent
/// seeds, folded trial by trial.

#include <cstdint>

#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"

namespace otis::sim {

/// Aggregated results of one sweep point: per-metric mean and population
/// stddev over the trials (seeds) folded in. Points combine through
/// merge(), which is trial-count weighted and order-independent, so
/// partial aggregates (per shard, per campaign resume segment) fold into
/// the same totals as a single pass.
struct SweepPoint {
  double load = 0.0;
  double throughput_per_node = 0.0;  ///< delivered / node / slot
  double mean_latency = 0.0;         ///< slots
  double p95_latency = 0.0;          ///< slots
  double coupler_utilization = 0.0;  ///< successful coupler-slots fraction
  double collision_rate = 0.0;       ///< collisions / coupler / slot
  double delivered_fraction = 0.0;   ///< delivered / offered
  double makespan = 0.0;             ///< workload completion slots (0 =
                                     ///< open loop; see RunMetrics)
  /// Population stddev of the metric above it across trials (0 for a
  /// single trial).
  double throughput_stddev = 0.0;
  double mean_latency_stddev = 0.0;
  double p95_latency_stddev = 0.0;
  double coupler_utilization_stddev = 0.0;
  double collision_rate_stddev = 0.0;
  double delivered_fraction_stddev = 0.0;
  double makespan_stddev = 0.0;
  std::int64_t trials = 0;

  /// A single-trial point (stddevs 0) from one run's metrics; the
  /// normalizations match the original sweep aggregation.
  [[nodiscard]] static SweepPoint from_trial(const RunMetrics& metrics,
                                             double load, std::int64_t nodes,
                                             std::int64_t couplers);

  /// Folds `other` in, weighting every mean/stddev by trial counts
  /// (parallel variance combination). Merging into a zero-trial point
  /// copies `other`'s statistics. The load label is kept from *this
  /// unless it has no trials yet.
  void merge(const SweepPoint& other);
};

}  // namespace otis::sim
