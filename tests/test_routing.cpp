// Tests for routing: Kautz label routing (optimality vs BFS), Imase-Itoh
// arithmetic routing, fault-tolerant routing (the [17] k+2 bound under
// d-1 faults), and the stack/POPS routers used by the simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "graph/algorithms.hpp"
#include "routing/fault_tolerant.hpp"
#include "routing/imase_itoh_routing.hpp"
#include "routing/kautz_routing.hpp"
#include "routing/stack_routing.hpp"

namespace otis::routing {
namespace {

TEST(KautzRouter, OverlapBasics) {
  EXPECT_EQ(KautzRouter::overlap({0, 1, 2}, {0, 1, 2}), 3);
  EXPECT_EQ(KautzRouter::overlap({0, 1, 2}, {1, 2, 0}), 2);
  EXPECT_EQ(KautzRouter::overlap({0, 1, 2}, {2, 0, 1}), 1);
  EXPECT_EQ(KautzRouter::overlap({0, 1, 2}, {1, 0, 2}), 0);
}

TEST(KautzRouter, RouteWordsFollowArcs) {
  topology::Kautz kautz(2, 3);
  KautzRouter router(kautz);
  const topology::Word src{0, 1, 0};
  const topology::Word dst{2, 1, 2};
  auto words = router.route_words(src, dst);
  EXPECT_EQ(words.front(), src);
  EXPECT_EQ(words.back(), dst);
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    EXPECT_TRUE(kautz.graph().has_arc(kautz.vertex_of(words[i]),
                                      kautz.vertex_of(words[i + 1])));
  }
}

TEST(KautzRouter, RouteToSelfIsEmptyPath) {
  topology::Kautz kautz(2, 2);
  KautzRouter router(kautz);
  auto path = router.route(3, 3);
  EXPECT_EQ(path, (std::vector<std::int64_t>{3}));
  EXPECT_EQ(router.distance(3, 3), 0);
}

/// The paper's Sec. 2.5 claim: label routing is shortest-path and every
/// route has length <= k. Checked against BFS for all ordered pairs. The
/// label tables behind next_hop() and distance() must also answer
/// exactly what the word-level reference does: next_hop ==
/// vertex_of(next_hop_word), distance == k - overlap.
class KautzRoutingOptimality
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(KautzRoutingOptimality, LabelRouteEqualsBfsDistance) {
  const auto [d, k] = GetParam();
  topology::Kautz kautz(d, k);
  KautzRouter router(kautz);
  const std::vector<topology::Word> words = kautz.all_words();
  for (std::int64_t u = 0; u < kautz.order(); ++u) {
    auto bfs = graph::bfs_distances(kautz.graph(), u);
    const topology::Word& x = words[static_cast<std::size_t>(u)];
    for (std::int64_t v = 0; v < kautz.order(); ++v) {
      const int label_distance = router.distance(u, v);
      EXPECT_EQ(label_distance,
                static_cast<int>(bfs[static_cast<std::size_t>(v)]))
          << "KG(" << d << "," << k << ") " << u << "->" << v;
      EXPECT_LE(label_distance, k);
      auto path = router.route(u, v);
      EXPECT_EQ(static_cast<int>(path.size()) - 1, label_distance);
      EXPECT_TRUE(graph::is_walk(kautz.graph(), path) || path.size() == 1);
      if (u == v) {
        continue;
      }
      const topology::Word& y = words[static_cast<std::size_t>(v)];
      ASSERT_EQ(router.next_hop(u, v),
                kautz.vertex_of(router.next_hop_word(x, y)))
          << "KG(" << d << "," << k << ") " << u << "->" << v;
      ASSERT_EQ(label_distance, k - KautzRouter::overlap(x, y))
          << "KG(" << d << "," << k << ") " << u << "->" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KautzRoutingOptimality,
    ::testing::Values(
        std::pair<int, int>{1, 1}, std::pair<int, int>{1, 2},
        std::pair<int, int>{1, 3}, std::pair<int, int>{2, 1},
        std::pair<int, int>{2, 2}, std::pair<int, int>{2, 3},
        std::pair<int, int>{2, 4}, std::pair<int, int>{2, 6},
        std::pair<int, int>{3, 1}, std::pair<int, int>{3, 2},
        std::pair<int, int>{3, 3}, std::pair<int, int>{3, 5},
        std::pair<int, int>{4, 2}, std::pair<int, int>{5, 1},
        std::pair<int, int>{5, 2}, std::pair<int, int>{5, 3},
        std::pair<int, int>{8, 1}, std::pair<int, int>{8, 2},
        std::pair<int, int>{8, 3}, std::pair<int, int>{10, 1},
        std::pair<int, int>{10, 2}, std::pair<int, int>{10, 3}));

TEST(KautzRouter, NextHopConvergesToTarget) {
  topology::Kautz kautz(3, 3);
  KautzRouter router(kautz);
  core::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::int64_t current = static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(kautz.order())));
    const std::int64_t target = static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(kautz.order())));
    int hops = 0;
    while (current != target) {
      current = router.next_hop(current, target);
      ++hops;
      ASSERT_LE(hops, kautz.diameter());
    }
  }
}

TEST(KautzRouter, TableLookupsKeepRangeAndArrivalChecks) {
  topology::Kautz kautz(2, 3);
  KautzRouter router(kautz);
  EXPECT_THROW((void)router.next_hop(4, 4), core::Error);
  EXPECT_THROW((void)router.next_hop(-1, 0), core::Error);
  EXPECT_THROW((void)router.next_hop(0, kautz.order()), core::Error);
  EXPECT_THROW((void)router.distance(kautz.order(), 0), core::Error);
  EXPECT_THROW((void)router.distance(0, -1), core::Error);
}

TEST(ImaseItohRouter, DistanceMatchesBfsOnSweep) {
  for (int d = 2; d <= 3; ++d) {
    for (std::int64_t n : {7LL, 12LL, 20LL, 25LL}) {
      topology::ImaseItoh ii(d, n);
      ImaseItohRouter router(ii);
      for (std::int64_t u = 0; u < n; ++u) {
        auto bfs = graph::bfs_distances(ii.graph(), u);
        for (std::int64_t v = 0; v < n; ++v) {
          EXPECT_EQ(router.distance(u, v),
                    static_cast<int>(bfs[static_cast<std::size_t>(v)]))
              << "II(" << d << "," << n << ") " << u << "->" << v;
        }
      }
    }
  }
}

TEST(ImaseItohRouter, RoutesAreValidWalks) {
  topology::ImaseItoh ii(3, 20);
  ImaseItohRouter router(ii);
  for (std::int64_t u = 0; u < 20; ++u) {
    for (std::int64_t v = 0; v < 20; ++v) {
      auto path = router.route(u, v);
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(ii.graph().has_arc(path[i], path[i + 1]));
      }
    }
  }
}

TEST(ImaseItohRouter, LabelsReproducePath) {
  topology::ImaseItoh ii(4, 17);
  ImaseItohRouter router(ii);
  for (std::int64_t u = 0; u < 17; ++u) {
    for (std::int64_t v = 0; v < 17; ++v) {
      std::int64_t current = u;
      for (int alpha : router.route_labels(u, v)) {
        current = ii.successor(current, alpha);
      }
      EXPECT_EQ(current, v);
    }
  }
}

TEST(ImaseItohRouter, AllShortestRoutesAreShortestAndDistinct) {
  topology::ImaseItoh ii(2, 12);
  ImaseItohRouter router(ii);
  for (std::int64_t u = 0; u < 12; ++u) {
    for (std::int64_t v = 0; v < 12; ++v) {
      const int dist = router.distance(u, v);
      auto routes = router.all_shortest_label_routes(u, v);
      EXPECT_GE(routes.size(), 1u);
      std::set<std::vector<int>> unique(routes.begin(), routes.end());
      EXPECT_EQ(unique.size(), routes.size());
      for (const auto& labels : routes) {
        EXPECT_EQ(static_cast<int>(labels.size()), dist);
        std::int64_t current = u;
        for (int alpha : labels) {
          current = ii.successor(current, alpha);
        }
        EXPECT_EQ(current, v);
      }
    }
  }
}

TEST(ImaseItohRouter, AgreesWithKautzLabelRouting) {
  // On a Kautz order, arithmetic routing and word routing must give the
  // same distances (both are exact).
  topology::Kautz kautz(3, 2);
  KautzRouter word_router(kautz);
  ImaseItohRouter int_router(topology::ImaseItoh(3, 12));
  for (std::int64_t u = 0; u < 12; ++u) {
    for (std::int64_t v = 0; v < 12; ++v) {
      EXPECT_EQ(word_router.distance(u, v), int_router.distance(u, v));
    }
  }
}

TEST(FaultTolerant, CandidatesAreValidAndBounded) {
  topology::Kautz kautz(3, 2);
  FaultTolerantKautzRouter router(kautz);
  for (std::int64_t u = 0; u < kautz.order(); ++u) {
    for (std::int64_t v = 0; v < kautz.order(); ++v) {
      if (u == v) {
        continue;
      }
      auto candidates = router.candidate_paths(u, v);
      EXPECT_GE(candidates.size(), static_cast<std::size_t>(kautz.degree()));
      for (const auto& path : candidates) {
        EXPECT_EQ(path.front(), u);
        EXPECT_EQ(path.back(), v);
        EXPECT_LE(static_cast<int>(path.size()) - 1, kautz.diameter() + 2);
        EXPECT_TRUE(graph::is_walk(kautz.graph(), path));
      }
    }
  }
}

/// The [17] theorem, empirically: with at most d-1 node faults, a path
/// of length <= k+2 survives between any two live nodes.
class FaultToleranceBound
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FaultToleranceBound, SurvivesDMinusOneFaults) {
  const auto [d, k] = GetParam();
  topology::Kautz kautz(d, k);
  FaultTolerantKautzRouter router(kautz);
  core::Rng rng(static_cast<std::uint64_t>(d * 100 + k));
  const int trials = 60;
  for (int trial = 0; trial < trials; ++trial) {
    // Pick d-1 distinct faults plus a live (source, target) pair.
    auto picks = rng.sample_without_replacement(
        static_cast<std::size_t>(kautz.order()),
        static_cast<std::size_t>(d - 1) + 2);
    const std::int64_t source = static_cast<std::int64_t>(picks[0]);
    const std::int64_t target = static_cast<std::int64_t>(picks[1]);
    std::vector<std::int64_t> faults(picks.begin() + 2, picks.end());
    EXPECT_TRUE(router.survives_with_bound(source, target, faults))
        << "KG(" << d << "," << k << ") trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaultToleranceBound,
                         ::testing::Values(std::pair<int, int>{2, 2},
                                           std::pair<int, int>{2, 3},
                                           std::pair<int, int>{3, 2},
                                           std::pair<int, int>{3, 3},
                                           std::pair<int, int>{4, 2}));

TEST(FaultTolerant, AvoidsFaultyVertices) {
  topology::Kautz kautz(3, 2);
  FaultTolerantKautzRouter router(kautz);
  core::Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    auto picks = rng.sample_without_replacement(12, 4);
    const std::int64_t source = static_cast<std::int64_t>(picks[0]);
    const std::int64_t target = static_cast<std::int64_t>(picks[1]);
    std::vector<std::int64_t> faults{static_cast<std::int64_t>(picks[2]),
                                     static_cast<std::int64_t>(picks[3])};
    auto route = router.route_avoiding(source, target, faults);
    ASSERT_TRUE(route.has_value());
    for (std::size_t i = 1; i + 1 < route->path.size(); ++i) {
      EXPECT_EQ(std::find(faults.begin(), faults.end(), route->path[i]),
                faults.end());
    }
    EXPECT_TRUE(graph::is_walk(kautz.graph(), route->path));
  }
}

TEST(FaultTolerant, NoFaultsGivesShortestPath) {
  topology::Kautz kautz(2, 3);
  FaultTolerantKautzRouter router(kautz);
  KautzRouter plain(kautz);
  for (std::int64_t u = 0; u < 12; ++u) {
    for (std::int64_t v = 0; v < 12; ++v) {
      if (u == v) {
        continue;
      }
      auto route = router.route_avoiding(u, v, {});
      ASSERT_TRUE(route.has_value());
      EXPECT_FALSE(route->used_bfs_fallback);
      EXPECT_EQ(static_cast<int>(route->path.size()) - 1,
                plain.distance(u, v));
    }
  }
}

TEST(FaultTolerant, ArcFaultsAvoided) {
  topology::Kautz kautz(3, 2);
  FaultTolerantKautzRouter router(kautz);
  core::Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    const std::int64_t source = static_cast<std::int64_t>(rng.uniform(12));
    std::int64_t target = static_cast<std::int64_t>(rng.uniform(12));
    if (source == target) {
      continue;
    }
    // Fail d-1 = 2 random arcs.
    std::vector<graph::Arc> faulty;
    auto arcs = kautz.graph().arcs();
    for (std::size_t pick :
         rng.sample_without_replacement(arcs.size(), 2)) {
      faulty.push_back(arcs[pick]);
    }
    auto route = router.route_avoiding_arcs(source, target, faulty);
    ASSERT_TRUE(route.has_value());
    for (std::size_t i = 0; i + 1 < route->path.size(); ++i) {
      EXPECT_EQ(std::find(faulty.begin(), faulty.end(),
                          graph::Arc{route->path[i], route->path[i + 1]}),
                faulty.end());
    }
    EXPECT_TRUE(router.survives_arc_faults_with_bound(source, target,
                                                      faulty));
  }
}

TEST(FaultTolerant, ArcFaultBoundHoldsForDMinusOneLinkFaults) {
  // The paper's Sec. 2.5 claim covers "link or node faults"; check the
  // link half: d-1 arc faults leave a route of length <= k+2.
  topology::Kautz kautz(3, 3);
  FaultTolerantKautzRouter router(kautz);
  core::Rng rng(66);
  auto arcs = kautz.graph().arcs();
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t source =
        static_cast<std::int64_t>(rng.uniform(36));
    std::int64_t target = static_cast<std::int64_t>(rng.uniform(36));
    if (source == target) {
      continue;
    }
    std::vector<graph::Arc> faulty;
    for (std::size_t pick :
         rng.sample_without_replacement(arcs.size(), 2)) {
      faulty.push_back(arcs[pick]);
    }
    EXPECT_TRUE(
        router.survives_arc_faults_with_bound(source, target, faulty));
  }
}

TEST(StackKautzRouter, DistanceCases) {
  hypergraph::StackKautz sk(6, 3, 2);
  StackKautzRouter router(sk);
  // Same node.
  EXPECT_EQ(router.distance(10, 10), 0);
  // Same group, different copies: the loop coupler, 1 hop.
  EXPECT_EQ(router.distance(sk.processor(2, 0), sk.processor(2, 5)), 1);
  // Different groups: Kautz distance, <= k = 2.
  for (std::int64_t p = 0; p < sk.processor_count(); p += 7) {
    for (std::int64_t q = 0; q < sk.processor_count(); q += 5) {
      EXPECT_LE(router.distance(p, q), 2);
    }
  }
}

TEST(StackKautzRouter, RoutesAreCouplerConsistent) {
  hypergraph::StackKautz sk(3, 2, 2);
  StackKautzRouter router(sk);
  const auto& hg = sk.stack().hypergraph();
  for (std::int64_t src = 0; src < sk.processor_count(); ++src) {
    for (std::int64_t dst = 0; dst < sk.processor_count(); ++dst) {
      auto hops = router.route(src, dst);
      EXPECT_EQ(static_cast<int>(hops.size()), router.distance(src, dst));
      std::int64_t current = src;
      for (const StackHop& hop : hops) {
        EXPECT_EQ(hop.sender, current);
        const auto& arc = hg.hyperarc(hop.coupler);
        // The sender must feed the coupler, the relay must hear it.
        EXPECT_NE(std::find(arc.sources.begin(), arc.sources.end(),
                            hop.sender),
                  arc.sources.end());
        EXPECT_NE(std::find(arc.targets.begin(), arc.targets.end(),
                            hop.relay),
                  arc.targets.end());
        current = hop.relay;
      }
      EXPECT_EQ(current, dst);
    }
  }
}

TEST(StackKautzRouter, NextCouplerAndRelayDriveDelivery) {
  hypergraph::StackKautz sk(4, 3, 2);
  StackKautzRouter router(sk);
  core::Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    std::int64_t current = static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(sk.processor_count())));
    const std::int64_t target = static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(sk.processor_count())));
    int hops = 0;
    while (current != target) {
      const auto coupler = router.next_coupler(current, target);
      current = router.relay_on(coupler, target);
      ++hops;
      ASSERT_LE(hops, sk.diameter() + 1);
    }
  }
}

TEST(PopsRouter, AlwaysSingleHop) {
  hypergraph::Pops pops(4, 3);
  PopsRouter router(pops);
  for (std::int64_t src = 0; src < pops.processor_count(); ++src) {
    for (std::int64_t dst = 0; dst < pops.processor_count(); ++dst) {
      if (src == dst) {
        EXPECT_EQ(router.distance(src, dst), 0);
        EXPECT_TRUE(router.route(src, dst).empty());
        continue;
      }
      EXPECT_EQ(router.distance(src, dst), 1);
      auto hops = router.route(src, dst);
      ASSERT_EQ(hops.size(), 1u);
      const auto& arc =
          pops.stack().hypergraph().hyperarc(hops[0].coupler);
      EXPECT_NE(std::find(arc.sources.begin(), arc.sources.end(), src),
                arc.sources.end());
      EXPECT_NE(std::find(arc.targets.begin(), arc.targets.end(), dst),
                arc.targets.end());
    }
  }
}

}  // namespace
}  // namespace otis::routing
