// Claim T3 (paper Proposition 1): OTIS(d,n) perfectly realizes the
// optical interconnections of II(d,n), for ALL d and n -- not just the
// figures' sizes. Sweeps a grid of (d, n), reconstructing the node-level
// digraph from the OTIS port permutation alone and comparing arc-for-arc
// with the Imase-Itoh formula. Also times the check per instance; the
// timings go to stderr, so stdout is a pure function of the code.

#include <chrono>
#include <iostream>

#include "core/table.hpp"
#include "otis/imase_itoh_realization.hpp"
#include "topology/imase_itoh.hpp"

int main() {
  std::cout << "[Claim T3] Proposition 1 sweep: OTIS(d,n) == II(d,n)\n\n";
  otis::core::Table table({"d", "n", "ports", "verified"});
  otis::core::Table timing({"d", "n", "microseconds"});
  bool ok = true;
  std::int64_t instances = 0;
  for (int d = 1; d <= 8; ++d) {
    for (std::int64_t n : {static_cast<std::int64_t>(d),
                           static_cast<std::int64_t>(d + 1),
                           static_cast<std::int64_t>(2 * d + 1),
                           static_cast<std::int64_t>(16),
                           static_cast<std::int64_t>(64),
                           static_cast<std::int64_t>(243)}) {
      if (n < d) {
        continue;
      }
      otis::otis::ImaseItohRealization real(d, n);
      const auto start = std::chrono::steady_clock::now();
      std::string details;
      const bool verified =
          real.verify(&details) &&
          real.realized_digraph().same_arcs(
              otis::topology::ImaseItoh(d, n).graph());
      const auto micros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      table.add(d, n, d * n, verified);
      timing.add(d, n, static_cast<std::int64_t>(micros));
      ok = ok && verified;
      ++instances;
      if (!verified) {
        std::cerr << "FAILED: " << details << "\n";
      }
    }
  }
  table.print(std::cout);
  timing.print(std::cerr);
  std::cout << "\n" << instances << " (d,n) instances, all realized: "
            << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}
