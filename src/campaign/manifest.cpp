#include "campaign/manifest.hpp"

#include "core/error.hpp"

namespace otis::campaign {

Manifest::Manifest(const std::string& path, bool resume)
    : path_(path),
      out_(path, resume ? (std::ios::out | std::ios::app)
                        : (std::ios::out | std::ios::trunc)) {
  OTIS_REQUIRE(out_.good(), "Manifest: cannot open " + path);
}

std::unordered_set<std::string> Manifest::load(const std::string& path) {
  std::unordered_set<std::string> completed;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (!line.empty()) {
      completed.insert(line);
    }
  }
  return completed;
}

void Manifest::record(const std::string& cell_id) {
  out_ << cell_id << "\n";
  out_.flush();
  OTIS_REQUIRE(out_.good(), "Manifest: write to \"" + path_ + "\" failed");
}

}  // namespace otis::campaign
