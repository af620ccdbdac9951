#pragma once
/// \file trace.hpp
/// Packet traces: record the (generation slot, source, destination)
/// stream of any simulation and replay it bit-identically later -- the
/// trace-driven counterpart of the synthetic generators, as in
/// trace-driven multicore NoC simulators (e.g. HORNET).
///
/// A trace is canonical: entries sorted by (slot, source), at most one
/// entry per (slot, source) pair (a node generates at most one packet
/// per slot), all endpoints in range. Canonical form is what makes a
/// recorded trace independent of which engine -- and for the sharded
/// engine, which worker interleaving -- produced it.
///
/// Two serializations:
///  - binary: "OTISTRC1" magic, then node count, entry count and the
///    (slot, src, dst) triples as little-endian int64 -- compact and
///    O(1) per entry to parse;
///  - JSONL: a {"nodes": N, "entries": M} header line followed by one
///    {"slot", "src", "dst"} object per line -- greppable and diffable.
/// Trace::load sniffs the magic and accepts either.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "workload/workload.hpp"

namespace otis::workload {

/// One generated packet.
struct TraceEntry {
  std::int64_t slot = 0;  ///< generation slot (>= 0, non-decreasing)
  hypergraph::Node source = 0;
  hypergraph::Node destination = 0;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// A canonical packet trace (see file comment for the invariants).
struct Trace {
  std::int64_t nodes = 0;
  std::vector<TraceEntry> entries;

  /// Throws core::Error on any invariant violation: node count < 1,
  /// negative slots, slots not non-decreasing, duplicate (slot, source)
  /// pairs, endpoints out of range, source == destination.
  void validate() const;

  void save_binary(const std::string& path) const;
  void save_jsonl(const std::string& path) const;

  /// Loads either serialization (sniffs the binary magic) and
  /// validates. Throws core::Error on unreadable, truncated or
  /// invariant-violating input; a JSONL line that does not parse or
  /// lacks a key fails with the path and that line's number.
  [[nodiscard]] static Trace load(const std::string& path);

  friend bool operator==(const Trace&, const Trace&) = default;
};

/// Captures the generation stream of a running simulation. Attach one
/// via SimConfig::recorder; the phased, sharded and async engines call
/// record() for every open-loop packet they generate. record() is
/// thread-safe (the sharded engine generates concurrently); trace()
/// folds the buffer into canonical order, so the result is identical
/// whichever engine -- and worker interleaving -- produced it.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::int64_t nodes);

  [[nodiscard]] std::int64_t node_count() const noexcept { return nodes_; }

  void record(std::int64_t slot, hypergraph::Node source,
              hypergraph::Node destination);

  /// Canonical snapshot of everything recorded so far.
  [[nodiscard]] Trace trace() const;

 private:
  std::int64_t nodes_ = 0;
  mutable std::mutex mutex_;
  std::vector<TraceEntry> entries_;
};

/// Replays a trace as a Workload: entry i becomes packet i, eligible
/// exactly at its recorded slot (replay is open-loop in time but runs
/// to completion like every workload). Driving the replay with the
/// same arbitration policy on any engine, route table or thread count
/// yields bit-identical delivery metrics -- the workload RNG contract
/// (per-coupler arbitration streams) removes every other source of
/// randomness.
class TraceWorkload : public Workload {
 public:
  /// Validates the trace.
  explicit TraceWorkload(Trace trace);

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  [[nodiscard]] std::int64_t packet_count() const override {
    return static_cast<std::int64_t>(trace_.entries.size());
  }
  [[nodiscard]] std::int64_t node_count() const override {
    return trace_.nodes;
  }
  void reset() override;
  void poll(std::int64_t slot, std::vector<WorkloadPacket>& out) override;
  void delivered(std::int64_t id) override;
  [[nodiscard]] bool done() const override {
    return delivered_count_ == packet_count();
  }

 private:
  Trace trace_;
  std::size_t cursor_ = 0;
  std::int64_t delivered_count_ = 0;
};

}  // namespace otis::workload
