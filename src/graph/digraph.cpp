#include "graph/digraph.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace otis::graph {

Digraph::Digraph(Vertex order) {
  OTIS_REQUIRE(order >= 0, "Digraph: negative order");
  offsets_.assign(static_cast<std::size_t>(order) + 1, 0);
  indeg_.assign(static_cast<std::size_t>(order), 0);
}

Digraph Digraph::from_arcs(Vertex order, const std::vector<Arc>& arcs) {
  Digraph g(order);
  // Counting sort by tail keeps construction O(V + E) and preserves the
  // relative order of arcs sharing a tail (stability matters for arc ids).
  for (const Arc& a : arcs) {
    g.check_vertex(a.tail);
    g.check_vertex(a.head);
    ++g.offsets_[static_cast<std::size_t>(a.tail) + 1];
  }
  for (std::size_t v = 1; v < g.offsets_.size(); ++v) {
    g.offsets_[v] += g.offsets_[v - 1];
  }
  g.heads_.resize(arcs.size());
  std::vector<ArcId> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Arc& a : arcs) {
    g.heads_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(a.tail)]++)] = a.head;
    ++g.indeg_[static_cast<std::size_t>(a.head)];
  }
  return g;
}

std::vector<Vertex> Digraph::out_neighbors(Vertex v) const {
  check_vertex(v);
  return std::vector<Vertex>(
      heads_.begin() + static_cast<std::ptrdiff_t>(out_begin(v)),
      heads_.begin() + static_cast<std::ptrdiff_t>(out_end(v)));
}

std::int64_t Digraph::out_degree(Vertex v) const {
  return out_end(v) - out_begin(v);
}

std::int64_t Digraph::in_degree(Vertex v) const {
  check_vertex(v);
  return indeg_[static_cast<std::size_t>(v)];
}

Vertex Digraph::tail(ArcId a) const {
  OTIS_REQUIRE(a >= 0 && a < size(), "Digraph: arc id out of range");
  auto it = std::upper_bound(offsets_.begin(), offsets_.end(), a);
  return static_cast<Vertex>(it - offsets_.begin()) - 1;
}

std::vector<Arc> Digraph::arcs() const {
  std::vector<Arc> result;
  result.reserve(static_cast<std::size_t>(size()));
  for (Vertex v = 0; v < order(); ++v) {
    for (ArcId a = out_begin(v); a < out_end(v); ++a) {
      result.push_back(Arc{v, heads_[static_cast<std::size_t>(a)]});
    }
  }
  return result;
}

bool Digraph::has_arc(Vertex u, Vertex v) const {
  check_vertex(v);
  for (ArcId a = out_begin(u); a < out_end(u); ++a) {
    if (heads_[static_cast<std::size_t>(a)] == v) {
      return true;
    }
  }
  return false;
}

std::int64_t Digraph::arc_multiplicity(Vertex u, Vertex v) const {
  check_vertex(v);
  std::int64_t count = 0;
  for (ArcId a = out_begin(u); a < out_end(u); ++a) {
    if (heads_[static_cast<std::size_t>(a)] == v) {
      ++count;
    }
  }
  return count;
}

std::int64_t Digraph::loop_count() const {
  std::int64_t count = 0;
  for (Vertex v = 0; v < order(); ++v) {
    count += arc_multiplicity(v, v);
  }
  return count;
}

bool Digraph::is_regular(std::int64_t d) const {
  for (Vertex v = 0; v < order(); ++v) {
    if (out_degree(v) != d || in_degree(v) != d) {
      return false;
    }
  }
  return true;
}

bool Digraph::same_arcs(const Digraph& other) const {
  if (order() != other.order() || size() != other.size()) {
    return false;
  }
  return sorted_arcs(*this) == sorted_arcs(other);
}

std::vector<Arc> sorted_arcs(const Digraph& g) {
  std::vector<Arc> arcs = g.arcs();
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

}  // namespace otis::graph
