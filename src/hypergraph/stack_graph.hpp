#pragma once
/// \file stack_graph.hpp
/// Stack-graphs (paper Def. 1; Bourdin-Ferreira-Marcus 1998).
///
/// The stack-graph sigma(s, G) piles s copies of each vertex of a base
/// digraph G and turns every base arc (u, v) into one hyperarc whose
/// sources are the s copies of u and whose targets are the s copies of v.
/// One hyperarc == one OPS coupler of degree s, so sigma(s, G) is *the*
/// model of a multi-OPS network whose coupler wiring follows G.
///
/// Node numbering: copy y of base vertex x gets node id x*s + y, matching
/// the paper's processor labels (x, y) = (group, index-in-group) for the
/// stack-Kautz network (Fig. 7 numbers SK(6,3,2)'s processors 0..71 in
/// exactly this order).

#include <cstdint>

#include "core/error.hpp"
#include "graph/digraph.hpp"
#include "hypergraph/hypergraph.hpp"

namespace otis::hypergraph {

/// sigma(s, G) with the projection pi back onto G kept explicit.
class StackGraph {
 public:
  /// Builds sigma(stacking_factor, base). stacking_factor >= 1.
  StackGraph(std::int64_t stacking_factor, graph::Digraph base);

  /// The stacking factor s (OPS coupler degree).
  [[nodiscard]] std::int64_t stacking_factor() const noexcept { return s_; }

  /// The base digraph G.
  [[nodiscard]] const graph::Digraph& base() const noexcept { return base_; }

  /// The hypergraph sigma(s, G); hyperarc h corresponds to base arc h
  /// (CSR arc numbering of the base digraph).
  [[nodiscard]] const DirectedHypergraph& hypergraph() const noexcept {
    return hypergraph_;
  }

  /// Total processors: s * |V(G)|.
  [[nodiscard]] Node node_count() const noexcept {
    return hypergraph_.node_count();
  }

  // The node/coupler accessors below are inline, range checks included:
  // route compilation calls them once or more per table entry.

  /// Projection pi: stack node -> base vertex (the "group" label x).
  [[nodiscard]] graph::Vertex project(Node node) const {
    OTIS_REQUIRE(node >= 0 && node < node_count(),
                 "StackGraph::project: node out of range");
    return node / s_;
  }

  /// Copy index within the stack (the label y, 0 <= y < s).
  [[nodiscard]] std::int64_t copy_index(Node node) const {
    OTIS_REQUIRE(node >= 0 && node < node_count(),
                 "StackGraph::copy_index: node out of range");
    return node % s_;
  }

  /// Node id of copy y of base vertex x.
  [[nodiscard]] Node node_of(graph::Vertex x, std::int64_t y) const {
    OTIS_REQUIRE(x >= 0 && x < base_.order(),
                 "StackGraph::node_of: base vertex out of range");
    OTIS_REQUIRE(y >= 0 && y < s_,
                 "StackGraph::node_of: copy index out of range");
    return x * s_ + y;
  }

  /// Position of coupler `h` in out_hyperarcs(node) -- the VOQ slot fed
  /// by `node` toward `h` -- or -1 when `node` cannot feed `h`. Pure
  /// arithmetic O(1): a stack node's out-couplers are exactly the CSR
  /// arc range of its base vertex, in arc-id order.
  [[nodiscard]] std::int64_t out_slot_of(Node node, HyperarcId h) const {
    OTIS_REQUIRE(h >= 0 && h < hypergraph_.hyperarc_count(),
                 "StackGraph::out_slot_of: coupler out of range");
    const graph::Vertex x = project(node);  // range-checks node
    const graph::ArcId begin = base_.out_begin(x);
    if (h < begin || h >= base_.out_end(x)) {
      return -1;
    }
    return h - begin;
  }

  /// Hyperarc (coupler) id of base arc `a`; identity by construction but
  /// kept as API so callers do not depend on that.
  [[nodiscard]] HyperarcId coupler_of_arc(graph::ArcId a) const {
    OTIS_REQUIRE(a >= 0 && a < base_.size(),
                 "StackGraph::coupler_of_arc: arc out of range");
    return a;
  }

  /// Base arc of a coupler.
  [[nodiscard]] graph::ArcId arc_of_coupler(HyperarcId h) const {
    OTIS_REQUIRE(h >= 0 && h < hypergraph_.hyperarc_count(),
                 "StackGraph::arc_of_coupler: coupler out of range");
    return h;
  }

 private:
  std::int64_t s_;
  graph::Digraph base_;
  DirectedHypergraph hypergraph_;
};

}  // namespace otis::hypergraph
