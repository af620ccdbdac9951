#pragma once
/// \file runner.hpp
/// Campaign execution: grid fan-out over a persistent work-stealing pool.
///
/// The runner expands the spec, drops cells already recorded in the
/// output manifest (--resume), compiles each distinct topology exactly
/// once (shared via shared_ptr across all its cells), and fans the
/// pending cells out over a WorkStealingPool. Workers simulate cells in
/// whatever order stealing yields; an ordered emit buffer then releases
/// finished cells to the sinks strictly in expansion order, so the
/// streamed JSONL/CSV bytes are identical for every --threads value
/// (per-cell seeding keeps each simulation independent of scheduling).
/// A cell's manifest line is written only after its rows are flushed to
/// every file sink, so resume never loses a cell. The ordering gives
/// at-least-once semantics: a crash in the narrow window between a
/// row's flush and its manifest line re-simulates that cell on resume
/// and appends its (deterministically identical) rows a second time —
/// the manifest, not the row streams, is the source of truth for
/// completion.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/grid.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "core/work_pool.hpp"

namespace otis::campaign {

/// The campaign layer's historical name for the shared pool (the class
/// itself moved to core so the routing compilers can use it too).
using WorkStealingPool = core::WorkStealingPool;

/// How to execute a campaign (as opposed to *what* to run, the spec).
struct CampaignOptions {
  int threads = 1;       ///< worker pool size; <= 0 = hardware concurrency
  std::string out_dir;   ///< when set: results.jsonl/results.csv/manifest.txt
  /// Skip cells listed in the manifest and append to the files; the
  /// timeseries is first cut back to the rows no pending cell writes
  /// again (a resumed cell's rows below its checkpoint's boundary).
  bool resume = false;
  bool write_jsonl = true;  ///< emit out_dir/results.jsonl
  bool write_csv = true;    ///< emit out_dir/results.csv
  /// Deterministic cross-machine split: this invocation runs only cells
  /// with expansion index == shard_index (mod shard_count). The split
  /// depends on the spec alone (never on manifests), so n machines
  /// running shards 0/n .. (n-1)/n cover the grid exactly once;
  /// concatenating their results.jsonl and manifest.txt into one
  /// directory yields a full-grid output a --resume run recognizes as
  /// complete (and refolds into the full aggregate).
  int shard_index = 0;
  int shard_count = 1;
  /// Heartbeat on stderr every ~2 s: cells done/total, rate, ETA, and
  /// busy workers. Rate and ETA cover only cells executed by this
  /// invocation (manifest-skipped cells are reported separately), so a
  /// --resume shows the true remaining time. With the spec's telemetry
  /// `runtime_stats` sink set, the heartbeat adds the running barrier-
  /// stall share and each sharded cell gets a stall-attribution line
  /// ("shard 3 caused 61% of barrier wait"). Diagnostics only -- never
  /// touches the result files.
  bool progress = false;
  /// Checkpoint drill (tests/CI only): when >= 0 and the spec enables
  /// checkpointing, every cell stops right after its first checkpoint
  /// at a slot boundary >= this value, simulating a mid-cell crash.
  /// Interrupted cells reach no sink and no manifest line -- their blob
  /// on disk is the whole handoff to a --resume invocation, which
  /// finishes them bit-identically to an uninterrupted run.
  std::int64_t checkpoint_stop = -1;
};

/// What one run() did.
struct CampaignReport {
  std::int64_t total_cells = 0;        ///< grid size
  std::int64_t completed_cells = 0;    ///< simulated this invocation
  std::int64_t skipped_cells = 0;      ///< already in the manifest
  std::int64_t out_of_shard_cells = 0;  ///< left to other shards
  std::int64_t interrupted_cells = 0;  ///< stopped at a checkpoint drill
  std::int64_t topologies_compiled = 0;  ///< routing-table sets built
  std::int64_t runtime_rows = 0;  ///< rows streamed to runtime.jsonl
  double elapsed_seconds = 0.0;
};

/// Executes CampaignSpecs. Attach extra sinks (e.g. AggregateSink)
/// before run(); file sinks for out_dir are managed internally.
class CampaignRunner {
 public:
  /// Output file names inside CampaignOptions::out_dir.
  static constexpr const char* kJsonlFile = "results.jsonl";
  static constexpr const char* kCsvFile = "results.csv";
  static constexpr const char* kManifestFile = "manifest.txt";
  /// run() holds an exclusive flock(2) on this file in out_dir until it
  /// returns, so a second runner on the same directory fails at once
  /// instead of racing the first one's sinks and checkpoint renames.
  static constexpr const char* kLockFile = "campaign.lock";

  explicit CampaignRunner(CampaignSpec spec);

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }

  /// Registers a sink that receives every cell result in expansion
  /// order (in addition to the out_dir file sinks).
  void add_sink(std::shared_ptr<ResultSink> sink);

  /// Expands, skips, compiles, simulates, streams. May be called again
  /// (e.g. to re-drive the same spec at different options); sinks added
  /// via add_sink stay attached. Throws core::Error naming out_dir,
  /// before it reads or writes anything there, when another process
  /// holds the directory's kLockFile.
  CampaignReport run(const CampaignOptions& options = {});

 private:
  CampaignSpec spec_;
  std::vector<std::shared_ptr<ResultSink>> extra_sinks_;
};

}  // namespace otis::campaign
