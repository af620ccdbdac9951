#include "campaign/spec.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>
#include <type_traits>

#include "collectives/pops_collectives.hpp"
#include "collectives/stack_kautz_collectives.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/table.hpp"
#include "hypergraph/pops.hpp"
#include "hypergraph/stack_imase_itoh.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "obs/trace_sink.hpp"

namespace otis::campaign {

namespace {

std::atomic<std::int64_t> g_compile_count{0};

/// `path` without its directories.
std::string trace_basename(const std::string& path) {
  const std::size_t sep = path.find_last_of("/\\");
  return sep == std::string::npos ? path : path.substr(sep + 1);
}

sim::Arbitration parse_arbitration(const std::string& name) {
  if (name == "token") {
    return sim::Arbitration::kTokenRoundRobin;
  }
  if (name == "random") {
    return sim::Arbitration::kRandomWinner;
  }
  if (name == "aloha") {
    return sim::Arbitration::kSlottedAloha;
  }
  throw core::Error("CampaignSpec: unknown arbitration \"" + name +
                    "\" (expected token|random|aloha)");
}

/// An engine_threads value; throws outside int instead of wrapping.
int parse_engine_threads(const core::Json& node) {
  const std::int64_t threads = node.as_int();
  OTIS_REQUIRE(threads >= std::numeric_limits<int>::min() &&
                   threads <= std::numeric_limits<int>::max(),
               "CampaignSpec: engine_threads out of range");
  return static_cast<int>(threads);
}

sim::Engine parse_engine(const std::string& name) {
  for (const sim::Engine engine :
       {sim::Engine::kPhased, sim::Engine::kSharded, sim::Engine::kAsync,
        sim::Engine::kAsyncSharded}) {
    if (name == sim::engine_name(engine)) {
      return engine;
    }
  }
  throw core::Error("CampaignSpec: unknown engine \"" + name +
                    "\" (expected phased|sharded|async|async-sharded)");
}

/// Misspelled keys must fail loudly (the Args parser sets the repo-wide
/// precedent): a silently-defaulted "seed"/"seeds" typo would archive a
/// statistically wrong grid.
void reject_unknown_keys(const core::Json& object,
                         const std::vector<std::string>& known,
                         const std::string& where) {
  for (const core::Json::Member& member : object.members()) {
    bool ok = false;
    for (const std::string& key : known) {
      if (member.first == key) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw core::Error("CampaignSpec: unknown key \"" + member.first +
                        "\" in " + where);
    }
  }
}

TopologySpec parse_topology(const core::Json& node) {
  const std::string kind = node.at("kind").as_string();
  if (kind == "stack_kautz") {
    reject_unknown_keys(node, {"kind", "s", "d", "k"}, "stack_kautz");
    return TopologySpec::stack_kautz(node.at("s").as_int(),
                                     node.at("d").as_int(),
                                     node.at("k").as_int());
  }
  if (kind == "pops") {
    reject_unknown_keys(node, {"kind", "t", "g"}, "pops");
    return TopologySpec::pops(node.at("t").as_int(), node.at("g").as_int());
  }
  if (kind == "stack_imase_itoh") {
    reject_unknown_keys(node, {"kind", "s", "d", "n"}, "stack_imase_itoh");
    return TopologySpec::stack_imase_itoh(node.at("s").as_int(),
                                          node.at("d").as_int(),
                                          node.at("n").as_int());
  }
  throw core::Error("CampaignSpec: unknown topology kind \"" + kind +
                    "\" (expected stack_kautz|pops|stack_imase_itoh)");
}

}  // namespace

TopologySpec TopologySpec::stack_kautz(std::int64_t s, std::int64_t d,
                                       std::int64_t k) {
  TopologySpec spec;
  spec.kind = Kind::kStackKautz;
  spec.stacking = s;
  spec.degree = d;
  spec.order = k;
  return spec;
}

TopologySpec TopologySpec::pops(std::int64_t t, std::int64_t g) {
  TopologySpec spec;
  spec.kind = Kind::kPops;
  spec.stacking = t;
  spec.degree = 0;
  spec.order = g;
  return spec;
}

TopologySpec TopologySpec::stack_imase_itoh(std::int64_t s, std::int64_t d,
                                            std::int64_t n) {
  TopologySpec spec;
  spec.kind = Kind::kStackImaseItoh;
  spec.stacking = s;
  spec.degree = d;
  spec.order = n;
  return spec;
}

std::int64_t TopologySpec::processor_count() const {
  switch (kind) {
    case Kind::kStackKautz: {
      // N = s * d^(k-1) * (d+1), the Kautz order times the stacking.
      std::int64_t groups = degree + 1;
      for (std::int64_t i = 1; i < order; ++i) {
        groups *= degree;
      }
      return stacking * groups;
    }
    case Kind::kPops:
      return stacking * order;
    case Kind::kStackImaseItoh:
      return stacking * order;
  }
  return 0;
}

std::string TopologySpec::label() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kStackKautz:
      os << "SK(" << stacking << "," << degree << "," << order << ")";
      break;
    case Kind::kPops:
      os << "POPS(" << stacking << "," << order << ")";
      break;
    case Kind::kStackImaseItoh:
      os << "SII(" << stacking << "," << degree << "," << order << ")";
      break;
  }
  return os.str();
}

std::shared_ptr<const CompiledTopology> CompiledTopology::build(
    const TopologySpec& spec, bool want_dense, bool want_compressed,
    core::WorkStealingPool* pool) {
  OTIS_REQUIRE(want_dense || want_compressed,
               "CompiledTopology: at least one table representation must "
               "be requested");
  auto topo = std::shared_ptr<CompiledTopology>(new CompiledTopology());
  topo->spec_ = spec;
  topo->label_ = spec.label();
  switch (spec.kind) {
    case TopologySpec::Kind::kStackKautz: {
      auto network = std::make_shared<hypergraph::StackKautz>(
          spec.stacking, static_cast<int>(spec.degree),
          static_cast<int>(spec.order));
      topo->stack_ = &network->stack();
      topo->processors_ = network->processor_count();
      topo->couplers_ = network->coupler_count();
      topo->schedule_builder_ = [network](bool gossip,
                                          hypergraph::Node root) {
        return gossip ? collectives::stack_kautz_gossip(*network)
                      : collectives::stack_kautz_one_to_all(*network, root);
      };
      if (want_dense) {
        topo->routes_ = std::make_shared<const routing::CompiledRoutes>(
            routing::compile_stack_kautz_routes(*network, pool));
      }
      if (want_compressed) {
        topo->compressed_routes_ =
            std::make_shared<const routing::CompressedRoutes>(
                routing::compress_stack_kautz_routes(*network, pool));
      }
      topo->owner_ = std::move(network);
      break;
    }
    case TopologySpec::Kind::kPops: {
      auto network =
          std::make_shared<hypergraph::Pops>(spec.stacking, spec.order);
      topo->stack_ = &network->stack();
      topo->processors_ = network->processor_count();
      topo->couplers_ = network->coupler_count();
      topo->schedule_builder_ = [network](bool gossip,
                                          hypergraph::Node root) {
        return gossip ? collectives::pops_gossip(*network)
                      : collectives::pops_one_to_all(*network, root);
      };
      if (want_dense) {
        topo->routes_ = std::make_shared<const routing::CompiledRoutes>(
            routing::compile_pops_routes(*network, pool));
      }
      if (want_compressed) {
        topo->compressed_routes_ =
            std::make_shared<const routing::CompressedRoutes>(
                routing::compress_pops_routes(*network, pool));
      }
      topo->owner_ = std::move(network);
      break;
    }
    case TopologySpec::Kind::kStackImaseItoh: {
      auto network = std::make_shared<hypergraph::StackImaseItoh>(
          spec.stacking, static_cast<int>(spec.degree), spec.order);
      topo->stack_ = &network->stack();
      topo->processors_ = network->processor_count();
      topo->couplers_ = network->coupler_count();
      if (want_dense) {
        topo->routes_ = std::make_shared<const routing::CompiledRoutes>(
            routing::compile_stack_imase_itoh_routes(*network, pool));
      }
      if (want_compressed) {
        topo->compressed_routes_ =
            std::make_shared<const routing::CompressedRoutes>(
                routing::compress_stack_imase_itoh_routes(*network, pool));
      }
      topo->owner_ = std::move(network);
      break;
    }
  }
  g_compile_count.fetch_add(1, std::memory_order_relaxed);
  return topo;
}

collectives::SlotSchedule CompiledTopology::collective_schedule(
    bool gossip, hypergraph::Node root) const {
  OTIS_REQUIRE(schedule_builder_ != nullptr,
               "CompiledTopology: " + label_ +
                   " has no analytic collective schedules (one_to_all/"
                   "gossip workloads need POPS or stack-Kautz)");
  OTIS_REQUIRE(root >= 0 && root < processors_,
               "CompiledTopology: schedule root out of range");
  return schedule_builder_(gossip, root);
}

std::int64_t topology_compile_count() noexcept {
  return g_compile_count.load(std::memory_order_relaxed);
}

void reset_topology_compile_count() noexcept {
  g_compile_count.store(0, std::memory_order_relaxed);
}

const char* traffic_kind_name(TrafficKind kind) {
  switch (kind) {
    case TrafficKind::kUniform:
      return "uniform";
    case TrafficKind::kSaturation:
      return "saturation";
    case TrafficKind::kHotspot:
      return "hotspot";
    case TrafficKind::kPermutation:
      return "permutation";
    case TrafficKind::kBursty:
      return "bursty";
  }
  return "?";
}

TrafficKind parse_traffic_kind(const std::string& name) {
  for (TrafficKind kind :
       {TrafficKind::kUniform, TrafficKind::kSaturation, TrafficKind::kHotspot,
        TrafficKind::kPermutation, TrafficKind::kBursty}) {
    if (name == traffic_kind_name(kind)) {
      return kind;
    }
  }
  throw core::Error(
      "CampaignSpec: unknown traffic \"" + name +
      "\" (expected uniform|saturation|hotspot|permutation|bursty)");
}

std::string TrafficSpec::label() const {
  switch (kind) {
    case TrafficKind::kHotspot: {
      std::ostringstream os;
      os << "hotspot(n" << hotspot_node << ",f"
         << core::format_double(hotspot_fraction, 4) << ")";
      return os.str();
    }
    case TrafficKind::kBursty: {
      std::ostringstream os;
      os << "bursty(on" << core::format_double(bursty_enter_on, 4) << ",off"
         << core::format_double(bursty_exit_on, 4) << ")";
      return os.str();
    }
    case TrafficKind::kUniform:
    case TrafficKind::kSaturation:
    case TrafficKind::kPermutation:
      break;
  }
  return traffic_kind_name(kind);
}

void TrafficSpec::validate() const {
  OTIS_REQUIRE(hotspot_node >= 0, "TrafficSpec: hotspot node must be >= 0");
  OTIS_REQUIRE(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0,
               "TrafficSpec: hotspot fraction must lie in [0, 1]");
  OTIS_REQUIRE(bursty_enter_on > 0.0 && bursty_enter_on <= 1.0,
               "TrafficSpec: bursty enter_on must lie in (0, 1]");
  OTIS_REQUIRE(bursty_exit_on > 0.0 && bursty_exit_on <= 1.0,
               "TrafficSpec: bursty exit_on must lie in (0, 1]");
}

const char* workload_kind_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kNone:
      return "none";
    case WorkloadKind::kOneToAll:
      return "one_to_all";
    case WorkloadKind::kGossip:
      return "gossip";
    case WorkloadKind::kBsp:
      return "bsp";
    case WorkloadKind::kReduce:
      return "reduce";
    case WorkloadKind::kGather:
      return "gather";
    case WorkloadKind::kTrace:
      return "trace";
  }
  return "?";
}

WorkloadKind parse_workload_kind(const std::string& name) {
  for (WorkloadKind kind :
       {WorkloadKind::kNone, WorkloadKind::kOneToAll, WorkloadKind::kGossip,
        WorkloadKind::kBsp, WorkloadKind::kReduce, WorkloadKind::kGather,
        WorkloadKind::kTrace}) {
    if (name == workload_kind_name(kind)) {
      return kind;
    }
  }
  throw core::Error(
      "CampaignSpec: unknown workload \"" + name +
      "\" (expected none|one_to_all|gossip|bsp|reduce|gather|trace)");
}

std::string WorkloadSpec::label() const {
  std::ostringstream os;
  switch (kind) {
    case WorkloadKind::kNone:
    case WorkloadKind::kGossip:
      return workload_kind_name(kind);
    case WorkloadKind::kOneToAll:
      os << "one_to_all(r" << root << ")";
      return os.str();
    case WorkloadKind::kBsp:
      os << "bsp(p" << phases << ",s" << shift << ")";
      return os.str();
    case WorkloadKind::kReduce:
      os << "reduce(r" << root << ",a" << arity << ")";
      return os.str();
    case WorkloadKind::kGather:
      os << "gather(r" << root << ")";
      return os.str();
    case WorkloadKind::kTrace:
      // Basename only: the ID must not change when the campaign's
      // working directory does.
      return "trace(" + trace_basename(trace_file) + ")";
  }
  return workload_kind_name(kind);
}

void WorkloadSpec::validate() const {
  OTIS_REQUIRE(root >= 0, "WorkloadSpec: root must be >= 0");
  OTIS_REQUIRE(phases >= 1, "WorkloadSpec: phases must be >= 1");
  OTIS_REQUIRE(shift >= 1, "WorkloadSpec: shift must be >= 1");
  OTIS_REQUIRE(arity >= 2, "WorkloadSpec: arity must be >= 2");
  if (kind == WorkloadKind::kTrace) {
    OTIS_REQUIRE(!trace_file.empty(),
                 "WorkloadSpec: trace workloads need a file");
    // The basename goes into cell ids, which manifest.txt keeps one per
    // line.
    const std::string base = trace_basename(trace_file);
    OTIS_REQUIRE(std::none_of(base.begin(), base.end(),
                              [](unsigned char c) {
                                return c < 0x20 || c == 0x7f;
                              }),
                 "WorkloadSpec: trace file name \"" +
                     obs::detail::json_escaped(trace_file) +
                     "\" holds a control character");
  }
}

sim::RouteTable parse_route_table(const std::string& name) {
  for (sim::RouteTable table : {sim::RouteTable::kDense,
                                sim::RouteTable::kCompressed,
                                sim::RouteTable::kAuto}) {
    if (name == sim::route_table_name(table)) {
      return table;
    }
  }
  throw core::Error("CampaignSpec: unknown route table \"" + name +
                    "\" (expected dense|compressed|auto)");
}

sim::LatencyMode parse_latency_mode(const std::string& name) {
  for (sim::LatencyMode mode : {sim::LatencyMode::kFull,
                                sim::LatencyMode::kSketch,
                                sim::LatencyMode::kAuto}) {
    if (name == sim::latency_mode_name(mode)) {
      return mode;
    }
  }
  throw core::Error("CampaignSpec: unknown latency_stats mode \"" + name +
                    "\" (expected full|sketch|auto)");
}

std::int64_t CampaignSpec::cell_count() const {
  const std::int64_t per_routes_value =
      static_cast<std::int64_t>(arbitrations.size()) *
      static_cast<std::int64_t>(traffics.size()) *
      static_cast<std::int64_t>(loads.size()) *
      static_cast<std::int64_t>(wavelengths.size()) *
      static_cast<std::int64_t>(timings.size()) *
      static_cast<std::int64_t>(workloads.size()) *
      static_cast<std::int64_t>(seeds.size());
  std::int64_t total = 0;
  for (const TopologySpec& topology : topologies) {
    // An override that pins the route table collapses that topology's
    // routes axis to one value (see expand_grid).
    std::int64_t routes_values =
        static_cast<std::int64_t>(route_tables.size());
    for (const CellOverride& override : overrides) {
      if (override.route_table && override.topology == topology.label()) {
        routes_values = 1;
      }
    }
    total += per_routes_value * routes_values;
  }
  return total;
}

void CampaignSpec::validate() const {
  OTIS_REQUIRE(!topologies.empty(), "CampaignSpec: topologies must be set");
  OTIS_REQUIRE(!arbitrations.empty(),
               "CampaignSpec: arbitrations must be non-empty");
  OTIS_REQUIRE(!traffics.empty(), "CampaignSpec: traffic must be non-empty");
  OTIS_REQUIRE(!route_tables.empty(),
               "CampaignSpec: routes must be non-empty");
  OTIS_REQUIRE(!loads.empty(), "CampaignSpec: loads must be non-empty");
  OTIS_REQUIRE(!wavelengths.empty(),
               "CampaignSpec: wavelengths must be non-empty");
  OTIS_REQUIRE(!seeds.empty(), "CampaignSpec: seeds must be non-empty");
  for (double load : loads) {
    OTIS_REQUIRE(load >= 0.0 && load <= 1.0,
                 "CampaignSpec: loads must lie in [0, 1]");
  }
  for (std::int64_t w : wavelengths) {
    OTIS_REQUIRE(w >= 1, "CampaignSpec: wavelengths must be >= 1");
  }
  OTIS_REQUIRE(warmup_slots >= 0, "CampaignSpec: warmup_slots must be >= 0");
  OTIS_REQUIRE(measure_slots > 0, "CampaignSpec: measure_slots must be > 0");
  OTIS_REQUIRE(measure_slots <= sim::kMaxRunSlots &&
                   warmup_slots <= sim::kMaxRunSlots - measure_slots,
               "CampaignSpec: warmup_slots + measure_slots must be at most "
               "2^50");
  OTIS_REQUIRE(queue_capacity >= 0,
               "CampaignSpec: queue_capacity must be >= 0");
  OTIS_REQUIRE(checkpoint_every >= 0,
               "CampaignSpec: checkpoint_every must be >= 0");
  for (const TrafficSpec& traffic : traffics) {
    traffic.validate();
  }
  OTIS_REQUIRE(!timings.empty(), "CampaignSpec: timings must be non-empty");
  for (const sim::TimingConfig& timing : timings) {
    timing.validate();
  }
  telemetry.validate();
  OTIS_REQUIRE(!workloads.empty(),
               "CampaignSpec: workloads must be non-empty");
  for (const WorkloadSpec& load : workloads) {
    load.validate();
    // Schedule kinds exist only for POPS / stack-Kautz; the grid is a
    // full cross product, so any other topology would fail mid-run --
    // refuse the spec up front instead.
    if (load.kind == WorkloadKind::kOneToAll ||
        load.kind == WorkloadKind::kGossip) {
      for (const TopologySpec& topology : topologies) {
        OTIS_REQUIRE(topology.kind != TopologySpec::Kind::kStackImaseItoh,
                     "CampaignSpec: workload \"" + load.label() +
                         "\" needs analytic schedules, which " +
                         topology.label() +
                         " (stack-Imase-Itoh) does not have");
      }
    }
    // Closed-loop runs need unbounded VOQs (see SimConfig::workload)
    // -- refuse up front, not mid-run.
    if (load.kind != WorkloadKind::kNone) {
      OTIS_REQUIRE(queue_capacity == 0,
                   "CampaignSpec: workload cells require queue_capacity 0");
    }
    // The grid is a full cross product, so a root must be a valid node
    // of EVERY topology -- otherwise the campaign would abort mid-run
    // (processor_count() is pure arithmetic, so this costs nothing).
    if (load.kind == WorkloadKind::kOneToAll ||
        load.kind == WorkloadKind::kReduce ||
        load.kind == WorkloadKind::kGather) {
      for (const TopologySpec& topology : topologies) {
        OTIS_REQUIRE(load.root < topology.processor_count(),
                     "CampaignSpec: workload \"" + load.label() +
                         "\" root is out of range for " + topology.label() +
                         " (" + std::to_string(topology.processor_count()) +
                         " processors)");
      }
    }
  }
  for (const CellOverride& override : overrides) {
    bool matched = false;
    for (const TopologySpec& topology : topologies) {
      if (topology.label() == override.topology) {
        matched = true;
        break;
      }
    }
    OTIS_REQUIRE(matched, "CampaignSpec: override topology \"" +
                              override.topology +
                              "\" names no topology in the grid");
  }
}

namespace {

/// A numeric field that is either one value or a sweep array; every
/// value lands in `out`. Missing key -> `fallback` alone. Integral
/// targets go through as_int so a fractional tick value fails loudly
/// instead of truncating into a cell ID that was never simulated.
template <typename T>
std::vector<T> number_or_sweep(const core::Json& node, const std::string& key,
                               T fallback) {
  const auto value_of = [](const core::Json& item) {
    if constexpr (std::is_integral_v<T>) {
      return static_cast<T>(item.as_int());
    } else {
      return static_cast<T>(item.as_number());
    }
  };
  std::vector<T> values;
  const core::Json* field = node.find(key);
  if (field == nullptr) {
    values.push_back(fallback);
  } else if (field->is_array()) {
    for (const core::Json& item : field->items()) {
      values.push_back(value_of(item));
    }
    OTIS_REQUIRE(!values.empty(),
                 "CampaignSpec: sweep array \"" + key + "\" is empty");
  } else {
    values.push_back(value_of(*field));
  }
  return values;
}

/// One "traffic" entry: a plain family name (TrafficSpec's default
/// shapes) or a structured object whose shape values may be sweep
/// arrays -- each combination becomes its own axis entry.
void parse_traffic_entry(const core::Json& node,
                         std::vector<TrafficSpec>& out) {
  TrafficSpec base;
  if (node.is_string()) {
    base.kind = parse_traffic_kind(node.as_string());
    out.push_back(base);
    return;
  }
  OTIS_REQUIRE(node.is_object(),
               "CampaignSpec: traffic entries must be names or objects");
  base.kind = parse_traffic_kind(node.at("kind").as_string());
  switch (base.kind) {
    case TrafficKind::kHotspot: {
      reject_unknown_keys(node, {"kind", "node", "fraction"},
                          "hotspot traffic");
      base.hotspot_node = node.int_or("node", base.hotspot_node);
      for (double fraction : number_or_sweep<double>(
               node, "fraction", base.hotspot_fraction)) {
        TrafficSpec entry = base;
        entry.hotspot_fraction = fraction;
        out.push_back(entry);
      }
      return;
    }
    case TrafficKind::kBursty: {
      reject_unknown_keys(node, {"kind", "enter_on", "exit_on"},
                          "bursty traffic");
      for (double enter : number_or_sweep<double>(node, "enter_on",
                                                  base.bursty_enter_on)) {
        for (double exit : number_or_sweep<double>(node, "exit_on",
                                                   base.bursty_exit_on)) {
          TrafficSpec entry = base;
          entry.bursty_enter_on = enter;
          entry.bursty_exit_on = exit;
          out.push_back(entry);
        }
      }
      return;
    }
    case TrafficKind::kUniform:
    case TrafficKind::kSaturation:
    case TrafficKind::kPermutation:
      reject_unknown_keys(node, {"kind"}, "traffic");
      out.push_back(base);
      return;
  }
}

sim::SkewProfile parse_skew_profile(const std::string& name) {
  for (sim::SkewProfile profile :
       {sim::SkewProfile::kNone, sim::SkewProfile::kConstant,
        sim::SkewProfile::kPerLevel}) {
    if (name == sim::skew_profile_name(profile)) {
      return profile;
    }
  }
  throw core::Error("CampaignSpec: unknown skew profile \"" + name +
                    "\" (expected none|const|level)");
}

/// One "timings" entry: "none" or an object with tick-valued delays;
/// "tuning" may be a sweep array (one axis entry per value).
void parse_timing_entry(const core::Json& node,
                        std::vector<sim::TimingConfig>& out) {
  if (node.is_string()) {
    OTIS_REQUIRE(node.as_string() == "none",
                 "CampaignSpec: the only named timing is \"none\" (use an "
                 "object for skewed profiles)");
    out.push_back(sim::TimingConfig{});
    return;
  }
  OTIS_REQUIRE(node.is_object(),
               "CampaignSpec: timing entries must be \"none\" or objects");
  reject_unknown_keys(
      node, {"profile", "tuning", "propagation", "level_skew", "guard"},
      "timing");
  sim::TimingConfig base;
  base.profile = parse_skew_profile(node.at("profile").as_string());
  base.propagation_ticks = node.int_or("propagation", 0);
  base.level_skew_ticks = node.int_or("level_skew", 0);
  base.guard_ticks = node.int_or("guard", 0);
  for (sim::SimTime tuning :
       number_or_sweep<sim::SimTime>(node, "tuning", 0)) {
    sim::TimingConfig entry = base;
    entry.tuning_ticks = tuning;
    entry.validate();
    out.push_back(entry);
  }
}

/// One "workloads" entry: a plain kind name or a structured object;
/// "phases" (bsp) and "arity" (reduce) may be sweep arrays.
void parse_workload_entry(const core::Json& node,
                          std::vector<WorkloadSpec>& out) {
  WorkloadSpec base;
  if (node.is_string()) {
    base.kind = parse_workload_kind(node.as_string());
    out.push_back(base);
    return;
  }
  OTIS_REQUIRE(node.is_object(),
               "CampaignSpec: workload entries must be names or objects");
  base.kind = parse_workload_kind(node.at("kind").as_string());
  switch (base.kind) {
    case WorkloadKind::kNone:
    case WorkloadKind::kGossip:
      reject_unknown_keys(node, {"kind"}, "workload");
      out.push_back(base);
      return;
    case WorkloadKind::kOneToAll:
      reject_unknown_keys(node, {"kind", "root"}, "one_to_all workload");
      base.root = node.int_or("root", base.root);
      out.push_back(base);
      return;
    case WorkloadKind::kBsp: {
      reject_unknown_keys(node, {"kind", "phases", "shift"}, "bsp workload");
      base.shift = node.int_or("shift", base.shift);
      for (std::int64_t phases :
           number_or_sweep<std::int64_t>(node, "phases", base.phases)) {
        WorkloadSpec entry = base;
        entry.phases = phases;
        out.push_back(entry);
      }
      return;
    }
    case WorkloadKind::kReduce: {
      reject_unknown_keys(node, {"kind", "root", "arity"},
                          "reduce workload");
      base.root = node.int_or("root", base.root);
      for (std::int64_t arity :
           number_or_sweep<std::int64_t>(node, "arity", base.arity)) {
        WorkloadSpec entry = base;
        entry.arity = arity;
        out.push_back(entry);
      }
      return;
    }
    case WorkloadKind::kGather:
      reject_unknown_keys(node, {"kind", "root"}, "gather workload");
      base.root = node.int_or("root", base.root);
      out.push_back(base);
      return;
    case WorkloadKind::kTrace:
      reject_unknown_keys(node, {"kind", "file"}, "trace workload");
      base.trace_file = node.at("file").as_string();
      out.push_back(base);
      return;
  }
}

CampaignSpec spec_from_json(const core::Json& root) {
  OTIS_REQUIRE(root.is_object(), "CampaignSpec: top level must be an object");
  reject_unknown_keys(root,
                      {"name", "topologies", "arbitrations", "traffic",
                       "loads", "wavelengths", "routes", "timings",
                       "workloads", "seeds", "warmup_slots", "measure_slots",
                       "queue_capacity", "engine", "engine_threads",
                       "latency_stats", "checkpoint_every",
                       "telemetry", "overrides"},
                      "campaign spec");

  CampaignSpec spec;
  spec.name = root.string_or("name", spec.name);

  for (const core::Json& node : root.at("topologies").items()) {
    spec.topologies.push_back(parse_topology(node));
  }
  if (const core::Json* arbs = root.find("arbitrations")) {
    spec.arbitrations.clear();
    for (const core::Json& node : arbs->items()) {
      spec.arbitrations.push_back(parse_arbitration(node.as_string()));
    }
  }
  // "traffic" accepts one name, an array of names, and structured
  // objects with per-entry (sweepable) shape values.
  if (const core::Json* traffic = root.find("traffic")) {
    spec.traffics.clear();
    if (traffic->is_string()) {
      parse_traffic_entry(*traffic, spec.traffics);
    } else {
      for (const core::Json& node : traffic->items()) {
        parse_traffic_entry(node, spec.traffics);
      }
    }
  }
  if (const core::Json* timings = root.find("timings")) {
    spec.timings.clear();
    for (const core::Json& node : timings->items()) {
      parse_timing_entry(node, spec.timings);
    }
  }
  // "workloads" accepts one entry as well as an array, like "traffic".
  if (const core::Json* workloads = root.find("workloads")) {
    spec.workloads.clear();
    if (workloads->is_string()) {
      parse_workload_entry(*workloads, spec.workloads);
    } else {
      for (const core::Json& node : workloads->items()) {
        parse_workload_entry(node, spec.workloads);
      }
    }
  }
  // "routes" accepts one string as well as an array.
  if (const core::Json* routes = root.find("routes")) {
    spec.route_tables.clear();
    if (routes->is_string()) {
      spec.route_tables.push_back(parse_route_table(routes->as_string()));
    } else {
      for (const core::Json& item : routes->items()) {
        spec.route_tables.push_back(parse_route_table(item.as_string()));
      }
    }
  }
  if (const core::Json* loads = root.find("loads")) {
    spec.loads.clear();
    for (const core::Json& node : loads->items()) {
      spec.loads.push_back(node.as_number());
    }
  }
  if (const core::Json* wavelengths = root.find("wavelengths")) {
    spec.wavelengths.clear();
    for (const core::Json& node : wavelengths->items()) {
      spec.wavelengths.push_back(node.as_int());
    }
  }
  if (const core::Json* seeds = root.find("seeds")) {
    spec.seeds.clear();
    for (const core::Json& node : seeds->items()) {
      const std::int64_t seed = node.as_int();
      OTIS_REQUIRE(seed >= 0, "CampaignSpec: seeds must be >= 0");
      spec.seeds.push_back(static_cast<std::uint64_t>(seed));
    }
  }
  spec.warmup_slots = root.int_or("warmup_slots", spec.warmup_slots);
  spec.measure_slots = root.int_or("measure_slots", spec.measure_slots);
  spec.queue_capacity = root.int_or("queue_capacity", spec.queue_capacity);
  spec.engine = parse_engine(root.string_or("engine", "phased"));
  if (const core::Json* threads = root.find("engine_threads")) {
    spec.engine_threads = parse_engine_threads(*threads);
  }
  spec.latency_stats = parse_latency_mode(
      root.string_or("latency_stats", sim::latency_mode_name(
                                          spec.latency_stats)));
  spec.checkpoint_every =
      root.int_or("checkpoint_every", spec.checkpoint_every);
  if (const core::Json* telemetry = root.find("telemetry")) {
    reject_unknown_keys(
        *telemetry,
        {"sample_period", "timeseries", "trace", "runtime_stats", "probes"},
        "telemetry");
    spec.telemetry.sample_period =
        telemetry->int_or("sample_period", spec.telemetry.sample_period);
    spec.telemetry.timeseries_path =
        telemetry->string_or("timeseries", spec.telemetry.timeseries_path);
    spec.telemetry.trace_path =
        telemetry->string_or("trace", spec.telemetry.trace_path);
    spec.runtime_stats_path =
        telemetry->string_or("runtime_stats", spec.runtime_stats_path);
    if (const core::Json* probes = telemetry->find("probes")) {
      for (const core::Json& node : probes->items()) {
        spec.telemetry.probes.push_back(node.as_string());
      }
    }
  }
  if (const core::Json* overrides = root.find("overrides")) {
    for (const core::Json& node : overrides->items()) {
      reject_unknown_keys(node,
                          {"topology", "engine", "engine_threads", "routes"},
                          "override");
      CellOverride override;
      override.topology = node.at("topology").as_string();
      if (const core::Json* engine = node.find("engine")) {
        override.engine = parse_engine(engine->as_string());
      }
      if (const core::Json* threads = node.find("engine_threads")) {
        override.engine_threads = parse_engine_threads(*threads);
      }
      if (const core::Json* routes = node.find("routes")) {
        override.route_table = parse_route_table(routes->as_string());
      }
      spec.overrides.push_back(std::move(override));
    }
  }

  spec.validate();
  return spec;
}

}  // namespace

CampaignSpec parse_campaign_spec(const std::string& json_text) {
  return spec_from_json(core::Json::parse(json_text));
}

CampaignSpec load_campaign_spec(const std::string& path) {
  return spec_from_json(core::Json::parse_file(path));
}

}  // namespace otis::campaign
