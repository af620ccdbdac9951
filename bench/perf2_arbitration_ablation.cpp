// Perf F2: arbitration-policy ablation on SK(6,3,2) -- the "distributed
// control" knob of the companion paper [11]. Token round-robin (perfect
// coordination) vs random winner (genie arbitration) vs slotted ALOHA
// (fully distributed, collisions possible). Expected shape: token and
// random deliver similar goodput with zero collisions; ALOHA loses
// coupler-slots to collisions and saturates visibly lower.

#include <iostream>
#include <memory>

#include "core/table.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "routing/compiled_routes.hpp"
#include "sim/experiment.hpp"
#include "sim/ops_network.hpp"

namespace {

// Topology and routing tables are immutable across trials: build once,
// share between them.
struct SharedNetwork {
  SharedNetwork()
      : sk(6, 3, 2),
        routes(std::make_shared<const otis::routing::CompiledRoutes>(
            otis::routing::compile_stack_kautz_routes(sk))) {}
  otis::hypergraph::StackKautz sk;
  std::shared_ptr<const otis::routing::CompiledRoutes> routes;
};

otis::sim::RunMetrics run_with(const SharedNetwork& net,
                               otis::sim::Arbitration policy, double load,
                               std::uint64_t seed) {
  otis::sim::SimConfig config;
  config.arbitration = policy;
  config.warmup_slots = 300;
  config.measure_slots = 1500;
  config.seed = seed;
  otis::sim::OpsNetworkSim sim(
      net.sk.stack(), net.routes,
      std::make_unique<otis::sim::UniformTraffic>(72, load), config);
  return sim.run();
}

}  // namespace

int main() {
  std::cout << "[Perf F2] arbitration ablation on SK(6,3,2), uniform "
               "traffic, 5 seeds\n\n";
  const std::vector<double> loads{0.1, 0.3, 0.6, 0.9};
  const std::vector<std::uint64_t> seeds{11, 12, 13, 14, 15};

  const SharedNetwork net;
  otis::core::Table table({"policy", "load", "throughput", "mean lat",
                           "p95 lat", "collisions/coupler/slot"});
  std::vector<std::vector<otis::sim::SweepPoint>> results;
  for (otis::sim::Arbitration policy :
       {otis::sim::Arbitration::kTokenRoundRobin,
        otis::sim::Arbitration::kRandomWinner,
        otis::sim::Arbitration::kSlottedAloha}) {
    std::vector<otis::sim::SweepPoint> points;
    for (const double load : loads) {
      otis::sim::SweepPoint point;
      for (const std::uint64_t seed : seeds) {
        point.merge(otis::sim::SweepPoint::from_trial(
            run_with(net, policy, load, seed), load, 72, 48));
      }
      points.push_back(point);
    }
    for (const auto& p : points) {
      table.add(otis::sim::arbitration_name(policy), p.load,
                p.throughput_per_node, p.mean_latency, p.p95_latency,
                p.collision_rate);
    }
    results.push_back(std::move(points));
  }
  table.print(std::cout);

  // Shapes: token/random collision-free; ALOHA collides and loses
  // throughput at saturation; token >= aloha throughput at high load.
  const auto& token = results[0];
  const auto& random = results[1];
  const auto& aloha = results[2];
  const bool no_collisions =
      token.back().collision_rate == 0.0 && random.back().collision_rate == 0.0;
  const bool aloha_collides = aloha.back().collision_rate > 0.0;
  const bool token_beats_aloha = token.back().throughput_per_node >
                                 aloha.back().throughput_per_node;
  std::cout << "\nshapes: token/random collision-free: "
            << (no_collisions ? "yes" : "NO")
            << "; ALOHA collides: " << (aloha_collides ? "yes" : "NO")
            << "; token saturation > ALOHA saturation: "
            << (token_beats_aloha ? "yes" : "NO") << "\n";
  return no_collisions && aloha_collides && token_beats_aloha ? 0 : 1;
}
