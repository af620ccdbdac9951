#pragma once
/// \file digraph.hpp
/// Compact directed multigraph in CSR (compressed sparse row) form.
///
/// All topologies in this library (complete digraph, Kautz, Imase-Itoh,
/// de Bruijn) are directed and may carry loops; Imase-Itoh graphs with
/// n < d(d+1) may even carry parallel arcs, so the representation is a
/// multigraph: arcs are stored exactly as given, in tail-major order.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace otis::graph {

/// Vertex id; vertices are always 0..order()-1.
using Vertex = std::int64_t;

/// Arc id in CSR order (tail-major, stable within a tail).
using ArcId = std::int64_t;

/// A (tail, head) pair used when building graphs.
struct Arc {
  Vertex tail = 0;
  Vertex head = 0;
  friend bool operator==(const Arc&, const Arc&) = default;
  friend auto operator<=>(const Arc&, const Arc&) = default;
};

/// Immutable CSR digraph. Construction validates vertex ranges. Arc ids
/// are assigned in tail-major order (all arcs out of vertex 0 first, in
/// the order supplied, then vertex 1, ...), which the line-digraph
/// operator and the OTIS port assignment both rely on.
class Digraph {
 public:
  /// Empty graph with `order` vertices and no arcs.
  explicit Digraph(Vertex order = 0);

  /// Builds from an arbitrary arc list (need not be sorted).
  static Digraph from_arcs(Vertex order, const std::vector<Arc>& arcs);

  /// Number of vertices.
  [[nodiscard]] Vertex order() const noexcept {
    return static_cast<Vertex>(offsets_.size()) - 1;
  }

  /// Number of arcs (loops and parallels counted individually).
  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(heads_.size());
  }

  /// Out-neighbours of `v` (heads of arcs with tail v), CSR order.
  [[nodiscard]] std::vector<Vertex> out_neighbors(Vertex v) const;

  /// First arc id out of `v`; arcs out of v are [out_begin(v), out_end(v)).
  /// Inline (with the range check): graph searches and route compiles
  /// call these once per visited vertex.
  [[nodiscard]] ArcId out_begin(Vertex v) const {
    check_vertex(v);
    return offsets_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] ArcId out_end(Vertex v) const {
    check_vertex(v);
    return offsets_[static_cast<std::size_t>(v) + 1];
  }

  /// Out-degree of `v`.
  [[nodiscard]] std::int64_t out_degree(Vertex v) const;

  /// In-degree of `v` (computed once, cached at construction).
  [[nodiscard]] std::int64_t in_degree(Vertex v) const;

  /// Head of arc `a`.
  [[nodiscard]] Vertex head(ArcId a) const {
    OTIS_REQUIRE(a >= 0 && a < size(), "Digraph: arc id out of range");
    return heads_[static_cast<std::size_t>(a)];
  }

  /// Tail of arc `a` (binary search over the offset array).
  [[nodiscard]] Vertex tail(ArcId a) const;

  /// Arc (tail, head) of arc id `a`.
  [[nodiscard]] Arc arc(ArcId a) const { return Arc{tail(a), head(a)}; }

  /// All arcs in CSR order.
  [[nodiscard]] std::vector<Arc> arcs() const;

  /// True if there is at least one arc u -> v.
  [[nodiscard]] bool has_arc(Vertex u, Vertex v) const;

  /// Number of parallel arcs u -> v.
  [[nodiscard]] std::int64_t arc_multiplicity(Vertex u, Vertex v) const;

  /// Number of loops (arcs v -> v).
  [[nodiscard]] std::int64_t loop_count() const;

  /// True if every vertex has out-degree == in-degree == d.
  [[nodiscard]] bool is_regular(std::int64_t d) const;

  /// Structural equality: same order and identical arc multisets.
  [[nodiscard]] bool same_arcs(const Digraph& other) const;

 private:
  void check_vertex(Vertex v) const {
    OTIS_REQUIRE(v >= 0 && v < order(), "Digraph: vertex out of range");
  }

  std::vector<ArcId> offsets_;        // size order()+1
  std::vector<Vertex> heads_;         // size size()
  std::vector<std::int64_t> indeg_;   // size order()
};

/// Convenience: sorted copy of a graph's arcs, for multiset comparisons.
[[nodiscard]] std::vector<Arc> sorted_arcs(const Digraph& g);

}  // namespace otis::graph
