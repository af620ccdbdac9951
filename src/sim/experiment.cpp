#include "sim/experiment.hpp"

#include <cmath>

namespace otis::sim {

namespace {

/// Weighted combination of two (mean, population-stddev) summaries with
/// n1 and n2 samples (parallel-variance / parallel-axis form). Exact for
/// any split of the underlying sample multiset, so merges commute.
void merge_moments(double& mean, double& stddev, std::int64_t n1,
                   double other_mean, double other_stddev, std::int64_t n2) {
  const double total = static_cast<double>(n1 + n2);
  if (total <= 0.0) {
    return;
  }
  const double combined_mean = (static_cast<double>(n1) * mean +
                                static_cast<double>(n2) * other_mean) /
                               total;
  const double second_moment =
      (static_cast<double>(n1) * (stddev * stddev + mean * mean) +
       static_cast<double>(n2) *
           (other_stddev * other_stddev + other_mean * other_mean)) /
      total;
  const double variance = second_moment - combined_mean * combined_mean;
  mean = combined_mean;
  stddev = variance > 0.0 ? std::sqrt(variance) : 0.0;
}

}  // namespace

SweepPoint SweepPoint::from_trial(const RunMetrics& metrics, double load,
                                  std::int64_t nodes, std::int64_t couplers) {
  SweepPoint point;
  point.load = load;
  point.throughput_per_node = metrics.throughput_per_node(nodes);
  point.mean_latency = metrics.latency.mean();
  point.p95_latency = static_cast<double>(metrics.latency.percentile(0.95));
  point.coupler_utilization = metrics.coupler_utilization(couplers);
  point.collision_rate =
      couplers > 0 && metrics.slots > 0
          ? static_cast<double>(metrics.collisions) /
                (static_cast<double>(couplers) *
                 static_cast<double>(metrics.slots))
          : 0.0;
  point.delivered_fraction =
      metrics.offered_packets > 0
          ? static_cast<double>(metrics.delivered_packets) /
                static_cast<double>(metrics.offered_packets)
          : 0.0;
  point.makespan = static_cast<double>(metrics.makespan_slots);
  point.trials = 1;
  return point;
}

void SweepPoint::merge(const SweepPoint& other) {
  if (other.trials <= 0) {
    return;
  }
  if (trials <= 0) {
    *this = other;
    return;
  }
  merge_moments(throughput_per_node, throughput_stddev, trials,
                other.throughput_per_node, other.throughput_stddev,
                other.trials);
  merge_moments(mean_latency, mean_latency_stddev, trials, other.mean_latency,
                other.mean_latency_stddev, other.trials);
  merge_moments(p95_latency, p95_latency_stddev, trials, other.p95_latency,
                other.p95_latency_stddev, other.trials);
  merge_moments(coupler_utilization, coupler_utilization_stddev, trials,
                other.coupler_utilization, other.coupler_utilization_stddev,
                other.trials);
  merge_moments(collision_rate, collision_rate_stddev, trials,
                other.collision_rate, other.collision_rate_stddev,
                other.trials);
  merge_moments(delivered_fraction, delivered_fraction_stddev, trials,
                other.delivered_fraction, other.delivered_fraction_stddev,
                other.trials);
  merge_moments(makespan, makespan_stddev, trials, other.makespan,
                other.makespan_stddev, other.trials);
  trials += other.trials;
}

}  // namespace otis::sim
