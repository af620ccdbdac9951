#pragma once
/// \file timing_model.hpp
/// Sub-slot timing of a multi-OPS network: transmitter tuning latencies,
/// per-coupler propagation delays and slot guard bands.
///
/// The paper's OPS model is slot-synchronous -- every transmitter is
/// statically tuned and every fiber is cut to the same length, so a slot
/// is one indivisible time unit. Real multi-OPS hardware is messier: a
/// transmitter needs tuning time before it can feed a coupler, and the
/// fibers from different couplers to their receivers have unequal
/// lengths (propagation skew). This layer expresses those effects in
/// fixed-point sub-slot ticks (kTicksPerSlot per slot, event_queue.hpp)
/// and compiles them into flat per-coupler arrays the AsyncEngine reads
/// on its hot path.
///
/// Three delay sources:
///  - constant: one tuning value and one propagation value shared by
///    every coupler (uniform skew between generation and delivery);
///  - per-level: propagation grows with the coupler's stack level --
///    the linear-layout distance |head group - tail group| of its base
///    arc, a proxy for rack-to-rack fiber length;
///  - trace-derived: TimingModel::from_trace walks the actual optical
///    design (optics/trace.hpp) and scales each coupler's worst-case
///    component-chain length into its propagation delay.
///
/// When every delay is zero the model is "slot-aligned" and the
/// AsyncEngine provably collapses to the phased engine bit-for-bit
/// (tests/test_async_engine.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "hypergraph/stack_graph.hpp"
#include "sim/event_queue.hpp"

namespace otis::designs {
struct NetworkDesign;
}  // namespace otis::designs

namespace otis::sim {

/// How TimingConfig distributes propagation delay over the couplers.
enum class SkewProfile {
  kNone,      ///< every delay zero: the slot-aligned limit
  kConstant,  ///< same tuning/propagation delay on every coupler
  kPerLevel,  ///< propagation += level_skew_ticks * coupler stack level
};

[[nodiscard]] const char* skew_profile_name(SkewProfile profile);

/// Slots a drained run may go on past its horizon before it is cut off.
inline constexpr SimTime kDrainSlots = 1'000'000;

/// Bounds on the inputs that set a run's times: warmup + measure slots
/// at most kMaxRunSlots, and each delay (tuning, propagation, per-level
/// skew, guard, and every coupler's compiled propagation) at most
/// kMaxDelayTicks. Within them every slot and tick an engine forms --
/// a drained run's last slot boundary plus a slot, a propagation delay,
/// a tuning latency and a slot of latency rounding -- fits in SimTime.
inline constexpr SimTime kMaxRunSlots = SimTime{1} << 50;
inline constexpr SimTime kMaxDelayTicks = SimTime{1} << 60;
static_assert(ticks_from_slots(kMaxRunSlots + kDrainSlots + 64) <=
              INT64_MAX - 2 * kMaxDelayTicks - 4 * kTicksPerSlot);

/// Declarative timing knobs carried by SimConfig. All values are
/// sub-slot ticks (kTicksPerSlot per slot) and must be >= 0.
struct TimingConfig {
  SkewProfile profile = SkewProfile::kNone;
  /// Transmitter tuning latency: a packet arriving at a node cannot
  /// contend for its next coupler until this many ticks later.
  SimTime tuning_ticks = 0;
  /// Base propagation delay from a coupler to its receivers.
  SimTime propagation_ticks = 0;
  /// Extra propagation per stack level (kPerLevel only).
  SimTime level_skew_ticks = 0;
  /// Guard band: a packet must be ready this many ticks before a slot
  /// boundary to transmit in that slot.
  SimTime guard_ticks = 0;

  /// True when every delay is zero -- the limit in which the async
  /// engine is bit-identical to the phased engine.
  [[nodiscard]] bool is_slot_aligned() const noexcept {
    return tuning_ticks == 0 && propagation_ticks == 0 &&
           level_skew_ticks == 0 && guard_ticks == 0;
  }

  /// Canonical compact label, e.g. "none", "const(t256,p128,g0)",
  /// "level(t256,p64,l128,g0)". Doubles as the timing part of campaign
  /// cell IDs, so it must stay stable.
  [[nodiscard]] std::string label() const;

  /// Throws core::Error on negative values, values past kMaxDelayTicks
  /// or a kNone profile that carries nonzero delays.
  void validate() const;

  [[nodiscard]] bool operator==(const TimingConfig&) const noexcept = default;
};

/// Per-coupler timing compiled to flat arrays for the async hot path.
class TimingModel {
 public:
  /// Compiles `config` against the network (kNone/kConstant/kPerLevel).
  [[nodiscard]] static TimingModel compile(
      const hypergraph::StackGraph& network, const TimingConfig& config);

  /// Derives per-coupler propagation from the optical design realizing
  /// the network: each coupler's delay is its worst-case traced
  /// component-chain length times `ticks_per_component` (optics/trace).
  /// `design` must realize `network` (same processor count, one
  /// transmitter per out-coupler slot). Tuning and guard are uniform.
  [[nodiscard]] static TimingModel from_trace(
      const hypergraph::StackGraph& network,
      const designs::NetworkDesign& design, double ticks_per_component,
      SimTime tuning_ticks = 0, SimTime guard_ticks = 0);

  /// Tuning latency of the transmitters feeding coupler `h`.
  [[nodiscard]] SimTime tuning(hypergraph::HyperarcId h) const noexcept {
    return tuning_[static_cast<std::size_t>(h)];
  }
  /// Propagation delay from coupler `h` to its receivers.
  [[nodiscard]] SimTime propagation(hypergraph::HyperarcId h) const noexcept {
    return propagation_[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] SimTime guard() const noexcept { return guard_; }
  [[nodiscard]] std::int64_t coupler_count() const noexcept {
    return static_cast<std::int64_t>(tuning_.size());
  }
  /// True when every compiled delay is zero (phased-engine parity).
  [[nodiscard]] bool slot_aligned() const noexcept { return slot_aligned_; }
  /// Largest propagation delay of any coupler (the skew spread).
  [[nodiscard]] SimTime max_propagation() const noexcept {
    return max_propagation_;
  }
  /// Smallest propagation delay of any coupler: the conservative-PDES
  /// lookahead floor of the sharded async engine (0 on empty models).
  [[nodiscard]] SimTime min_propagation() const noexcept {
    return min_propagation_;
  }

 private:
  TimingModel() = default;
  void finalize();

  std::vector<SimTime> tuning_;
  std::vector<SimTime> propagation_;
  SimTime guard_ = 0;
  SimTime max_propagation_ = 0;
  SimTime min_propagation_ = 0;
  bool slot_aligned_ = true;
};

}  // namespace otis::sim
