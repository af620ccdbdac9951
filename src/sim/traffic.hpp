#pragma once
/// \file traffic.hpp
/// Traffic generators for the OPS network simulator: the standard
/// workloads used to evaluate passive-star lightwave networks
/// (uniform Bernoulli, hotspot, fixed permutation, saturation), per
/// refs [7, 9, 25] of the paper.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hpp"

namespace otis::sim {

/// Destination request produced by a generator for one node in one slot.
struct TrafficDemand {
  bool has_packet = false;
  std::int64_t destination = -1;
};

/// One generated packet of the current slot: `source` wants to send to
/// `destination`. The compact form of a slot's demands -- at load rho
/// only ~rho*N of the N per-node demands carry a packet, so the engines
/// consume this list instead of re-scanning a mostly-idle demand array.
struct SenderDemand {
  std::int64_t source = -1;
  std::int64_t destination = -1;
};

/// Per-slot, per-node packet generation interface. Implementations must
/// be deterministic given the Rng stream handed to them.
class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;

  /// Demand of `node` in the current slot, drawn from `rng`.
  virtual TrafficDemand demand(std::int64_t node, core::Rng& rng) = 0;

  /// One slot's compact generation: appends one entry to `out` for each
  /// node v in [node_begin, node_end) whose demand this slot carries a
  /// packet for a destination other than v, in ascending node order,
  /// and returns the entry count. `out` must have room for node_end -
  /// node_begin entries. Node v draws from `rngs[per_node ? v : 0]`:
  /// the per-node streams of the sharded and workload runs, or the one
  /// run stream. By contract this is EXACTLY the draw sequence of
  /// calling demand() in that ascending loop, which the default
  /// implementation does literally. The engines call this once per
  /// slot instead of once per node, so the built-in generators override
  /// it with a devirtualized inner loop; a custom generator that
  /// overrides only demand() inherits the loop and stays bit-identical.
  virtual std::size_t draw_senders(std::int64_t node_begin,
                                   std::int64_t node_end, core::Rng* rngs,
                                   bool per_node, SenderDemand* out);

  /// Checkpoint hooks: a generator with cross-slot state (BurstyTraffic's
  /// per-node burst flags) exports it as integers so engine checkpoints
  /// can restore it mid-run; stateless generators keep these no-ops.
  virtual void checkpoint_state(std::vector<std::int64_t>& out) const {
    out.clear();
  }
  virtual void restore_state(const std::vector<std::int64_t>& state) {
    (void)state;
  }
};

/// Base of the built-in generators whose draw_senders() is the default
/// loop with `Gen::demand` devirtualized (`Gen` is final): one virtual
/// dispatch per slot instead of one per node. Instantiated for the
/// generators below in traffic.cpp.
template <class Gen>
class BatchedTraffic : public TrafficGenerator {
 public:
  std::size_t draw_senders(std::int64_t node_begin, std::int64_t node_end,
                           core::Rng* rngs, bool per_node,
                           SenderDemand* out) override;
};

/// Bernoulli(load) arrivals, destination uniform over the other nodes.
class UniformTraffic final : public TrafficGenerator {
 public:
  UniformTraffic(std::int64_t nodes, double load);
  TrafficDemand demand(std::int64_t node, core::Rng& rng) override;
  /// The demand() loop with the arrival gate as an integer threshold.
  std::size_t draw_senders(std::int64_t node_begin, std::int64_t node_end,
                           core::Rng* rngs, bool per_node,
                           SenderDemand* out) override;

 private:
  std::int64_t nodes_;
  double load_;
};

/// Bernoulli(load) arrivals; with probability `hot_fraction` the packet
/// goes to `hot_node`, otherwise uniform.
class HotspotTraffic final : public BatchedTraffic<HotspotTraffic> {
 public:
  HotspotTraffic(std::int64_t nodes, double load, std::int64_t hot_node,
                 double hot_fraction);
  TrafficDemand demand(std::int64_t node, core::Rng& rng) override;

 private:
  std::int64_t nodes_;
  double load_;
  std::int64_t hot_node_;
  double hot_fraction_;
};

/// Bernoulli(load) arrivals to a fixed random permutation partner
/// (classic adversarial-but-balanced pattern).
class PermutationTraffic final : public BatchedTraffic<PermutationTraffic> {
 public:
  /// The permutation is drawn once from `seed` (derangement-adjusted so
  /// no node targets itself when nodes > 1).
  PermutationTraffic(std::int64_t nodes, double load, std::uint64_t seed);
  TrafficDemand demand(std::int64_t node, core::Rng& rng) override;

  [[nodiscard]] const std::vector<std::int64_t>& permutation() const {
    return partner_;
  }

 private:
  double load_;
  std::vector<std::int64_t> partner_;
};

/// Two-state (on/off) Markov-modulated Bernoulli arrivals: bursty
/// traffic. While ON, packets arrive with probability `peak_load`; the
/// ON->OFF and OFF->ON transition probabilities set burst and idle
/// lengths. Destinations are uniform.
class BurstyTraffic final : public BatchedTraffic<BurstyTraffic> {
 public:
  /// mean burst length = 1/`exit_on`, mean idle = 1/`enter_on` (slots).
  BurstyTraffic(std::int64_t nodes, double peak_load, double enter_on,
                double exit_on);
  TrafficDemand demand(std::int64_t node, core::Rng& rng) override;

  /// Long-run average load: peak_load * P(on).
  [[nodiscard]] double mean_load() const;

  void checkpoint_state(std::vector<std::int64_t>& out) const override;
  void restore_state(const std::vector<std::int64_t>& state) override;

 private:
  std::int64_t nodes_;
  double peak_load_;
  double enter_on_;
  double exit_on_;
  std::vector<char> on_;  ///< per-node burst state
};

/// Every node always has a packet for a uniform random destination:
/// measures saturation throughput.
class SaturationTraffic final : public BatchedTraffic<SaturationTraffic> {
 public:
  explicit SaturationTraffic(std::int64_t nodes);
  TrafficDemand demand(std::int64_t node, core::Rng& rng) override;

 private:
  std::int64_t nodes_;
};

}  // namespace otis::sim
