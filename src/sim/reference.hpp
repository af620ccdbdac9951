#pragma once
/// \file reference.hpp
/// The seed's event-queue simulator of the slotted model, kept as it was
/// written (one EventQueue event per slot, std::find scans, a routing
/// callback per hop) as the oracle the run loop is bit-compared against
/// -- kPhased, and kAsync with zero delays, reproduce it for every seed
/// -- and as the baseline of micro_benchmarks' phased >= 6x bar. It is
/// no engine: nothing selects it. Do not optimize it.

#include <cstdint>
#include <vector>

#include "sim/ops_network.hpp"

namespace otis::sim {

struct ReferenceRun {
  RunMetrics metrics;
  std::vector<std::int64_t> coupler_successes;  ///< of the measured window
};

/// Runs `config` (warmup, measurement, optional drain) on the single run
/// stream, routing every hop through `routing`. Validates `config` as
/// OpsNetworkSim does, and throws core::Error on what the reference never
/// implemented: a workload, trace recorder, telemetry, checkpointing or
/// sub-slot timing.
[[nodiscard]] ReferenceRun run_reference(
    const hypergraph::StackGraph& network, const RoutingHooks& routing,
    TrafficGenerator& traffic, const SimConfig& config);

}  // namespace otis::sim
