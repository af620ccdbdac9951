#include "routing/stack_routing.hpp"

#include "core/error.hpp"

namespace otis::routing {

StackKautzRouter::StackKautzRouter(const hypergraph::StackKautz& network)
    : network_(network),
      kautz_router_(topology::Kautz(network.kautz_degree(),
                                    network.diameter())) {}

int StackKautzRouter::distance(hypergraph::Node source,
                               hypergraph::Node target) const {
  if (source == target) {
    return 0;
  }
  const graph::Vertex gs = network_.group_of(source);
  const graph::Vertex gt = network_.group_of(target);
  if (gs == gt) {
    return 1;  // loop coupler
  }
  return kautz_router_.distance(gs, gt);
}

std::vector<StackHop> StackKautzRouter::route(hypergraph::Node source,
                                              hypergraph::Node target) const {
  std::vector<StackHop> hops;
  if (source == target) {
    return hops;
  }
  const graph::Vertex gs = network_.group_of(source);
  const graph::Vertex gt = network_.group_of(target);
  const std::int64_t target_index = network_.index_in_group(target);
  if (gs == gt) {
    hops.push_back(StackHop{source, network_.loop_coupler(gs), target});
    return hops;
  }
  hypergraph::Node current = source;
  for (const std::int64_t group : kautz_router_.route(gs, gt)) {
    if (group == network_.group_of(current)) {
      continue;  // first entry is the source group
    }
    const hypergraph::HyperarcId coupler =
        network_.coupler_between(network_.group_of(current), group);
    const hypergraph::Node relay = network_.processor(group, target_index);
    hops.push_back(StackHop{current, coupler, relay});
    current = relay;
  }
  OTIS_ASSERT(current == target, "StackKautzRouter: route missed target");
  return hops;
}

hypergraph::HyperarcId StackKautzRouter::next_coupler(
    hypergraph::Node current, hypergraph::Node target) const {
  OTIS_REQUIRE(current != target,
               "StackKautzRouter::next_coupler: already delivered");
  const graph::Vertex gc = network_.group_of(current);
  const graph::Vertex gt = network_.group_of(target);
  if (gc == gt) {
    return network_.loop_coupler(gc);
  }
  const std::int64_t next_group = kautz_router_.next_hop(gc, gt);
  return network_.coupler_between(gc, next_group);
}

hypergraph::Node StackKautzRouter::relay_on(hypergraph::HyperarcId coupler,
                                            hypergraph::Node target) const {
  // The coupler's targets are the s copies of its base arc's head.
  const hypergraph::StackGraph& stack = network_.stack();
  const graph::Vertex group = stack.base().head(stack.arc_of_coupler(coupler));
  if (group == network_.group_of(target)) {
    return target;
  }
  return network_.processor(group, network_.index_in_group(target));
}

int StackKautzRouter::max_hops() const { return network_.diameter(); }

PopsRouter::PopsRouter(const hypergraph::Pops& network) : network_(network) {}

int PopsRouter::distance(hypergraph::Node source,
                         hypergraph::Node target) const {
  return source == target ? 0 : 1;
}

std::vector<StackHop> PopsRouter::route(hypergraph::Node source,
                                        hypergraph::Node target) const {
  std::vector<StackHop> hops;
  if (source == target) {
    return hops;
  }
  hops.push_back(StackHop{
      source,
      network_.coupler(network_.group_of(source), network_.group_of(target)),
      target});
  return hops;
}

hypergraph::HyperarcId PopsRouter::next_coupler(
    hypergraph::Node current, hypergraph::Node target) const {
  OTIS_REQUIRE(current != target,
               "PopsRouter::next_coupler: already delivered");
  return network_.coupler(network_.group_of(current),
                          network_.group_of(target));
}

}  // namespace otis::routing
