#include "sim/traffic.hpp"

#include <cmath>

#include "core/error.hpp"

namespace otis::sim {

namespace {

/// Integer-threshold form of Rng::bernoulli(p) for p in (0, 1): draws
/// the same single 64-bit value and makes the identical decision.
/// bernoulli compares (x >> 11) * 2^-53 < p, which for the 53-bit
/// integer k = x >> 11 is exactly k < ceil(p * 2^53) (the product is a
/// real scaled by a power of two, so the double holds it exactly) --
/// the per-trial int-to-double conversion and float compare become one
/// integer compare in the batch loops.
struct BernoulliThreshold {
  explicit BernoulliThreshold(double p)
      : threshold(static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53))) {}
  [[nodiscard]] bool draw(core::Rng& rng) const noexcept {
    return (rng() >> 11) < threshold;
  }
  std::uint64_t threshold;
};

std::int64_t uniform_other(std::int64_t node, std::int64_t nodes,
                           core::Rng& rng) {
  if (nodes <= 1) {
    return node;
  }
  // Draw from the n-1 nodes != node without rejection.
  std::int64_t dest = static_cast<std::int64_t>(
      rng.uniform(static_cast<std::uint64_t>(nodes - 1)));
  if (dest >= node) {
    ++dest;
  }
  return dest;
}

/// The ascending demand() loop of the draw_senders contract, with the
/// engines' sender filter fused in so the per-node "idle this slot"
/// branch is taken once here. One instantiation per (generator, stream
/// mode): for a final `Gen` the demand() calls devirtualize and inline.
template <bool kPerNode, class Gen>
std::size_t demand_loop(Gen& gen, std::int64_t node_begin,
                        std::int64_t node_end, core::Rng* rngs,
                        SenderDemand* out) {
  std::size_t count = 0;
  for (std::int64_t v = node_begin; v < node_end; ++v) {
    const TrafficDemand d = gen.demand(v, rngs[kPerNode ? v : 0]);
    if (d.has_packet && d.destination != v) {
      out[count++] = SenderDemand{v, d.destination};
    }
  }
  return count;
}

/// Picks the stream mode once per call, not once per node.
template <class Gen>
std::size_t demand_senders(Gen& gen, std::int64_t node_begin,
                           std::int64_t node_end, core::Rng* rngs,
                           bool per_node, SenderDemand* out) {
  return per_node ? demand_loop<true>(gen, node_begin, node_end, rngs, out)
                  : demand_loop<false>(gen, node_begin, node_end, rngs, out);
}

/// UniformTraffic's compact loop: its demand() loop with the arrival
/// gate in threshold form. The load <= 0 / >= 1 arms reproduce
/// bernoulli()'s no-draw shortcuts.
template <bool kPerNode>
std::size_t uniform_senders(std::int64_t nodes, double load,
                            std::int64_t node_begin, std::int64_t node_end,
                            core::Rng* rngs, SenderDemand* out) {
  std::size_t count = 0;
  if (load <= 0.0) {
    return 0;
  }
  if (load >= 1.0) {
    for (std::int64_t v = node_begin; v < node_end; ++v) {
      const std::int64_t dest =
          uniform_other(v, nodes, rngs[kPerNode ? v : 0]);
      if (dest != v) {
        out[count++] = SenderDemand{v, dest};
      }
    }
    return count;
  }
  const BernoulliThreshold gate(load);
  for (std::int64_t v = node_begin; v < node_end; ++v) {
    core::Rng& rng = rngs[kPerNode ? v : 0];
    if (!gate.draw(rng)) {
      continue;
    }
    const std::int64_t dest = uniform_other(v, nodes, rng);
    if (dest != v) {
      out[count++] = SenderDemand{v, dest};
    }
  }
  return count;
}

}  // namespace

std::size_t TrafficGenerator::draw_senders(std::int64_t node_begin,
                                           std::int64_t node_end,
                                           core::Rng* rngs, bool per_node,
                                           SenderDemand* out) {
  return demand_senders(*this, node_begin, node_end, rngs, per_node, out);
}

UniformTraffic::UniformTraffic(std::int64_t nodes, double load)
    : nodes_(nodes), load_(load) {
  OTIS_REQUIRE(nodes >= 1, "UniformTraffic: need at least one node");
  OTIS_REQUIRE(load >= 0.0 && load <= 1.0,
               "UniformTraffic: load must be in [0, 1]");
}

TrafficDemand UniformTraffic::demand(std::int64_t node, core::Rng& rng) {
  if (!rng.bernoulli(load_)) {
    return {};
  }
  return TrafficDemand{true, uniform_other(node, nodes_, rng)};
}

std::size_t UniformTraffic::draw_senders(std::int64_t node_begin,
                                         std::int64_t node_end,
                                         core::Rng* rngs, bool per_node,
                                         SenderDemand* out) {
  return per_node ? uniform_senders<true>(nodes_, load_, node_begin,
                                          node_end, rngs, out)
                  : uniform_senders<false>(nodes_, load_, node_begin,
                                           node_end, rngs, out);
}

HotspotTraffic::HotspotTraffic(std::int64_t nodes, double load,
                               std::int64_t hot_node, double hot_fraction)
    : nodes_(nodes),
      load_(load),
      hot_node_(hot_node),
      hot_fraction_(hot_fraction) {
  OTIS_REQUIRE(nodes >= 1, "HotspotTraffic: need at least one node");
  OTIS_REQUIRE(hot_node >= 0 && hot_node < nodes,
               "HotspotTraffic: hot node out of range");
  OTIS_REQUIRE(hot_fraction >= 0.0 && hot_fraction <= 1.0,
               "HotspotTraffic: hot fraction must be in [0, 1]");
}

TrafficDemand HotspotTraffic::demand(std::int64_t node, core::Rng& rng) {
  if (!rng.bernoulli(load_)) {
    return {};
  }
  if (node != hot_node_ && rng.bernoulli(hot_fraction_)) {
    return TrafficDemand{true, hot_node_};
  }
  return TrafficDemand{true, uniform_other(node, nodes_, rng)};
}

PermutationTraffic::PermutationTraffic(std::int64_t nodes, double load,
                                       std::uint64_t seed)
    : load_(load) {
  OTIS_REQUIRE(nodes >= 1, "PermutationTraffic: need at least one node");
  core::Rng rng(seed);
  auto perm = rng.permutation(static_cast<std::size_t>(nodes));
  partner_.assign(perm.begin(), perm.end());
  // Fix the (rare) fixed points by swapping with a neighbour so no node
  // targets itself.
  for (std::int64_t i = 0; i < nodes && nodes > 1; ++i) {
    if (partner_[static_cast<std::size_t>(i)] == i) {
      const std::int64_t j = (i + 1) % nodes;
      std::swap(partner_[static_cast<std::size_t>(i)],
                partner_[static_cast<std::size_t>(j)]);
    }
  }
}

TrafficDemand PermutationTraffic::demand(std::int64_t node, core::Rng& rng) {
  if (!rng.bernoulli(load_)) {
    return {};
  }
  return TrafficDemand{true, partner_[static_cast<std::size_t>(node)]};
}

BurstyTraffic::BurstyTraffic(std::int64_t nodes, double peak_load,
                             double enter_on, double exit_on)
    : nodes_(nodes),
      peak_load_(peak_load),
      enter_on_(enter_on),
      exit_on_(exit_on),
      on_(static_cast<std::size_t>(nodes), 0) {
  OTIS_REQUIRE(nodes >= 1, "BurstyTraffic: need at least one node");
  OTIS_REQUIRE(peak_load >= 0.0 && peak_load <= 1.0,
               "BurstyTraffic: peak load must be in [0, 1]");
  OTIS_REQUIRE(enter_on > 0.0 && enter_on <= 1.0,
               "BurstyTraffic: enter_on must be in (0, 1]");
  OTIS_REQUIRE(exit_on > 0.0 && exit_on <= 1.0,
               "BurstyTraffic: exit_on must be in (0, 1]");
}

double BurstyTraffic::mean_load() const {
  // Stationary P(on) of the two-state chain: enter / (enter + exit).
  return peak_load_ * enter_on_ / (enter_on_ + exit_on_);
}

TrafficDemand BurstyTraffic::demand(std::int64_t node, core::Rng& rng) {
  char& state = on_[static_cast<std::size_t>(node)];
  if (state) {
    if (rng.bernoulli(exit_on_)) {
      state = 0;
    }
  } else if (rng.bernoulli(enter_on_)) {
    state = 1;
  }
  if (!state || !rng.bernoulli(peak_load_)) {
    return {};
  }
  return TrafficDemand{true, uniform_other(node, nodes_, rng)};
}

void BurstyTraffic::checkpoint_state(std::vector<std::int64_t>& out) const {
  out.assign(on_.begin(), on_.end());
}

void BurstyTraffic::restore_state(const std::vector<std::int64_t>& state) {
  OTIS_REQUIRE(state.size() == on_.size(),
               "BurstyTraffic: checkpoint state size mismatch");
  for (std::size_t i = 0; i < on_.size(); ++i) {
    on_[i] = static_cast<char>(state[i]);
  }
}

SaturationTraffic::SaturationTraffic(std::int64_t nodes) : nodes_(nodes) {
  OTIS_REQUIRE(nodes >= 1, "SaturationTraffic: need at least one node");
}

TrafficDemand SaturationTraffic::demand(std::int64_t node, core::Rng& rng) {
  return TrafficDemand{true, uniform_other(node, nodes_, rng)};
}

template <class Gen>
std::size_t BatchedTraffic<Gen>::draw_senders(std::int64_t node_begin,
                                              std::int64_t node_end,
                                              core::Rng* rngs, bool per_node,
                                              SenderDemand* out) {
  return demand_senders(static_cast<Gen&>(*this), node_begin, node_end, rngs,
                        per_node, out);
}

template class BatchedTraffic<HotspotTraffic>;
template class BatchedTraffic<PermutationTraffic>;
template class BatchedTraffic<BurstyTraffic>;
template class BatchedTraffic<SaturationTraffic>;

}  // namespace otis::sim
