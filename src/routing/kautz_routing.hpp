#pragma once
/// \file kautz_routing.hpp
/// Label-induced shortest-path routing on Kautz graphs (paper Sec. 2.5:
/// "routing on the Kautz graph is very simple, since a shortest path
/// routing algorithm (every path is of length at most k) is induced by
/// the label of the nodes").
///
/// The algorithm: find the longest suffix of the source word that is a
/// prefix of the destination word (overlap l), then shift in the
/// destination's remaining k-l letters one per hop. Because any walk of
/// length m from x to y forces suffix_{k-m}(x) = prefix_{k-m}(y), the
/// label route of length k - l is provably a *shortest* path, which the
/// tests also cross-check against BFS.
///
/// Since every next hop is a pure function of two words, the router
/// decodes each vertex's word once, at construction, into two label
/// tables: a flat N x k letter table and an N x (d+1) successor table
/// mapping (vertex, letter z) to the vertex of shift(word, z). next_hop()
/// and distance() then read the tables -- no allocation, no re-encoding,
/// no per-call word validation -- which is what makes compiling the
/// stack-Kautz route tables cheap. The word-level next_hop_word(),
/// route_words() and Kautz::vertex_of() stay as the reference the tables
/// are tested against.

#include <cstdint>
#include <vector>

#include "topology/kautz.hpp"

namespace otis::routing {

/// Shortest-path router over Kautz word labels. Owns a copy of the Kautz
/// description and its label tables, O(N (k + d)) int entries (cheap
/// relative to the graphs involved).
class KautzRouter {
 public:
  explicit KautzRouter(topology::Kautz kautz);

  [[nodiscard]] const topology::Kautz& kautz() const noexcept {
    return kautz_;
  }

  /// Longest l in [0, k] with suffix_l(x) == prefix_l(y).
  [[nodiscard]] static int overlap(const topology::Word& x,
                                   const topology::Word& y);

  /// Exact distance: k - overlap (0 when x == y).
  [[nodiscard]] int distance(std::int64_t source, std::int64_t target) const;

  /// The label route as a word sequence, source first, target last.
  [[nodiscard]] std::vector<topology::Word> route_words(
      const topology::Word& source, const topology::Word& target) const;

  /// The label route as vertex numbers.
  [[nodiscard]] std::vector<std::int64_t> route(std::int64_t source,
                                                std::int64_t target) const;

  /// Self-routing step: the word after one hop toward `target` (requires
  /// current != target). Each node can compute this from labels alone --
  /// the property that makes the network's distributed control simple.
  [[nodiscard]] topology::Word next_hop_word(
      const topology::Word& current, const topology::Word& target) const;

  /// Vertex-number form of next_hop_word, read from the label tables.
  [[nodiscard]] std::int64_t next_hop(std::int64_t current,
                                      std::int64_t target) const;

 private:
  /// Throws core::Error with `message` unless 0 <= v < N.
  void require_vertex(std::int64_t v, const char* message) const;

  /// First letter of vertex v's word in the letter table.
  [[nodiscard]] const int* letters_of(std::int64_t v) const noexcept {
    return letters_.data() + static_cast<std::size_t>(v) *
                                 static_cast<std::size_t>(kautz_.diameter());
  }

  topology::Kautz kautz_;
  std::vector<int> letters_;             ///< [vertex * k + i]: letter i
  std::vector<std::int64_t> successor_;  ///< [vertex * (d+1) + z]; -1 if
                                         ///< z is the word's last letter
};

}  // namespace otis::routing
