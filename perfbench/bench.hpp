#pragma once
// Pieces shared by the campaign benchmark's untraced loop
// (campaign_bench.cpp) and its traced repetition (traced.cpp).

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/grid.hpp"
#include "campaign/spec.hpp"

namespace perfbench {

/// Steady-clock seconds.
double now_seconds();

/// A `Vm*` line of /proc/self/status (e.g. "VmRSS", "VmHWM") in MiB.
double proc_status_mib(const char* key);

/// Lines of a text file; throws otis::core::Error when it cannot open.
std::vector<std::string> read_lines(const std::filesystem::path& path);

/// Which routing-table representations a topology's cells resolve to --
/// the same rule CampaignRunner::run applies before compiling.
struct TableNeeds {
  bool dense = false;
  bool compressed = false;
};
std::map<std::size_t, TableNeeds> table_needs(
    const otis::campaign::CampaignSpec& spec,
    const std::vector<otis::campaign::CampaignCell>& cells);

/// One traced repetition's results.
struct TracedRep {
  double wall_s = 0.0;
  /// Per-layer metrics by name (README.md lists them).
  std::map<std::string, double> layers;
};

/// Runs every cell of the spec the way CampaignRunner::run does, but by
/// calling each layer directly with a span around every call: rows go
/// to out_dir/results.jsonl, results.csv and manifest.txt as usual, and
/// the spans of this repetition are appended to `spans_out` as JSONL.
TracedRep traced_rep(const std::string& spec_path, int threads,
                     const std::filesystem::path& out_dir, int rep_index,
                     std::ostream& spans_out);

}  // namespace perfbench
