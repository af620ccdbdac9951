#pragma once
/// \file manifest.hpp
/// Cell-completion manifest: what makes interrupted campaigns resumable.
///
/// The runner appends one line -- the canonical cell ID -- to the
/// manifest after a cell's results have been flushed to every file sink.
/// A rerun with --resume loads the manifest, drops completed cells from
/// the pending set, and appends the remaining rows to the existing output
/// files. Because the ID encodes the full cell parameters (not a linear
/// index), a manifest stays valid when a spec later grows new axis
/// values: only genuinely new cells run.

#include <fstream>
#include <string>
#include <unordered_set>

namespace otis::campaign {

/// Append-only record of completed cell IDs.
class Manifest {
 public:
  /// Opens `path` for appending (`resume` true keeps existing lines,
  /// false truncates any previous manifest).
  Manifest(const std::string& path, bool resume);

  /// IDs recorded in `path`; empty set when the file does not exist.
  [[nodiscard]] static std::unordered_set<std::string> load(
      const std::string& path);

  /// Marks one cell complete. Flushes so a kill right after still finds
  /// the line on the next run; throws core::Error naming the file when
  /// the line could not be written.
  void record(const std::string& cell_id);

 private:
  std::string path_;
  std::ofstream out_;
};

}  // namespace otis::campaign
