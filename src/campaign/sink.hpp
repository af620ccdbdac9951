#pragma once
/// \file sink.hpp
/// Streaming result sinks for campaign runs.
///
/// The runner hands every finished cell to each attached sink *in cell
/// expansion order* (it reorders worker completions behind a buffer), so
/// sink output is a pure function of the spec -- bit-identical across
/// worker thread counts. File sinks open in append mode when a campaign
/// resumes, continuing the stream after the rows of the earlier run.
///
/// Shipped sinks:
///  - JsonlSink: one self-describing JSON object per cell (the format CI
///    archives and the thread-invariance test byte-compares);
///  - CsvSink: the same rows as CSV for spreadsheet/plot pipelines;
///  - AggregateSink: in-memory fold of seeds into sim::SweepPoint means
///    + stddevs per (topology, arbitration, load, wavelengths) group.

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "campaign/grid.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"

namespace otis::campaign {

/// A finished cell plus the context needed to normalize its metrics.
/// Traffic and timing travel inside `cell` (their labels carry the
/// shape/skew parameters into the row streams).
struct CellResult {
  CampaignCell cell;
  std::string topology_label;
  std::int64_t nodes = 0;
  std::int64_t couplers = 0;
  sim::RunMetrics metrics;
};

/// Consumer of campaign results. consume() is called from one thread at
/// a time, in cell expansion order.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void consume(const CellResult& result) = 0;
  /// Makes consumed rows durable; the runner calls this before marking
  /// cells complete in the manifest. File sinks throw core::Error
  /// naming the file when a row could not be written.
  virtual void flush() {}
  /// Called once after the last cell.
  virtual void close() { flush(); }
};

/// JSON-Lines writer: one object per cell with fixed key order and fixed
/// float formatting (6 decimals), so equal campaigns give equal bytes.
class JsonlSink : public ResultSink {
 public:
  JsonlSink(const std::string& path, bool append);
  void consume(const CellResult& result) override;
  void flush() override;

 private:
  std::string path_;
  std::ofstream out_;
};

/// CSV writer with the same per-cell fields as JsonlSink. The header row
/// is written only on fresh (non-append) opens.
class CsvSink : public ResultSink {
 public:
  CsvSink(const std::string& path, bool append);
  void consume(const CellResult& result) override;
  void flush() override;

  /// The column list, shared with docs/tests.
  [[nodiscard]] static const std::vector<std::string>& columns();

 private:
  std::string path_;
  std::ofstream out_;
};

/// Folds the seed axis: one sim::SweepPoint per distinct
/// (topology, arbitration, traffic, load, wavelengths, routes, timing,
/// workload) combination, merged with trial-count weighting (mean +
/// stddev per metric). Traffic, timing and workload are keyed by their
/// canonical labels -- shape-swept entries land in distinct groups.
/// Groups appear in first-cell order.
class AggregateSink : public ResultSink {
 public:
  struct Group {
    std::string topology;
    std::string arbitration;
    std::string traffic;  ///< TrafficSpec::label()
    double load = 0.0;
    std::int64_t wavelengths = 1;
    sim::RouteTable routes = sim::RouteTable::kAuto;
    std::string timing;    ///< TimingConfig::label()
    std::string workload;  ///< WorkloadSpec::label()
    std::int64_t nodes = 0;
    std::int64_t couplers = 0;
    sim::SweepPoint point;
  };

  void consume(const CellResult& result) override;

  /// Merges one trial point into its group directly. This is how a
  /// resumed campaign re-folds cells completed by an earlier run (their
  /// rows come from results.jsonl, not from a fresh simulation) so the
  /// aggregate covers the whole grid, not just this invocation's cells.
  void fold(const std::string& topology, const std::string& arbitration,
            const std::string& traffic, double load, std::int64_t wavelengths,
            sim::RouteTable routes, const std::string& timing,
            const std::string& workload, std::int64_t nodes,
            std::int64_t couplers, const sim::SweepPoint& trial);

  [[nodiscard]] const std::vector<Group>& groups() const noexcept {
    return groups_;
  }

  /// Writes groups as CSV (means + stddevs); used by campaign_runner for
  /// the end-of-run aggregate.csv. Throws core::Error naming `path` when
  /// the file cannot be written.
  void write_csv(const std::string& path) const;

 private:
  std::vector<Group> groups_;
};

}  // namespace otis::campaign
