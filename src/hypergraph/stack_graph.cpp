#include "hypergraph/stack_graph.hpp"

#include <utility>

#include "core/error.hpp"

namespace otis::hypergraph {

StackGraph::StackGraph(std::int64_t stacking_factor, graph::Digraph base)
    : s_(stacking_factor), base_(std::move(base)) {
  OTIS_REQUIRE(s_ >= 1, "StackGraph: stacking factor must be >= 1");
  std::vector<Hyperarc> hyperarcs;
  hyperarcs.reserve(static_cast<std::size_t>(base_.size()));
  for (graph::ArcId a = 0; a < base_.size(); ++a) {
    const graph::Arc arc = base_.arc(a);
    Hyperarc h;
    h.sources.reserve(static_cast<std::size_t>(s_));
    h.targets.reserve(static_cast<std::size_t>(s_));
    for (std::int64_t y = 0; y < s_; ++y) {
      h.sources.push_back(arc.tail * s_ + y);
      h.targets.push_back(arc.head * s_ + y);
    }
    hyperarcs.push_back(std::move(h));
  }
  hypergraph_ = DirectedHypergraph(base_.order() * s_, std::move(hyperarcs));
}

}  // namespace otis::hypergraph
