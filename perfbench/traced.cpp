// Traced repetition of a campaign. It executes the cells CampaignRunner
// executes, in the same way (one build per topology on the cell pool,
// cells fanned out over a WorkStealingPool, rows released to the sinks
// in expansion order, manifest line after the flush), but calls each
// layer's public functions itself so every call sits inside a span.
// Spans carry name, start, end, parent and cell id; they stay in memory
// until the repetition ends. Counters come from what the layers already
// expose: RunMetrics, PhaseBreakdown, the runtime-stats shard rows, the
// pool's worker stats, the route tables' memory_bytes and /proc RSS.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "bench.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/work_pool.hpp"
#include "obs/runtime_stats.hpp"
#include "sim/ops_network.hpp"
#include "sim/traffic.hpp"
#include "workload/kernels.hpp"
#include "workload/schedule_workload.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace campaign = otis::campaign;
namespace sim = otis::sim;

constexpr double kMiB = 1024.0 * 1024.0;

struct Span {
  std::string name;  ///< "<layer>.<call>"
  std::string cell;  ///< cell id or topology label; empty for campaign-wide
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store shared by the pool workers.
class Tracer {
 public:
  int begin(std::string name, int parent, std::string cell = {}) {
    const double now = now_seconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), std::move(cell), parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    const double now = now_seconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
  }
  /// Only after every worker has finished.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent,
             std::string cell = {})
      : tracer_(tracer),
        id_(tracer.begin(std::move(name), parent, std::move(cell))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Each span's duration minus the part of it its children cover.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans[i].end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = spans[i].end - spans[i].start - covered;
  }
  return self;
}

/// Nearest-rank percentile; 0 for no samples.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[rank - 1];
}

/// The runner's traffic factory, for the family the benchmark's specs
/// use.
std::unique_ptr<sim::TrafficGenerator> make_traffic(
    const campaign::CampaignCell& cell, std::int64_t nodes) {
  OTIS_REQUIRE(cell.traffic.kind == campaign::TrafficKind::kUniform,
               "traced run: only uniform traffic is driven");
  return std::make_unique<sim::UniformTraffic>(nodes, cell.load);
}

/// The runner's workload factory, with the analytic schedule build in
/// its own collectives span.
std::shared_ptr<otis::workload::Workload> make_workload(
    const campaign::CampaignCell& cell,
    const campaign::CompiledTopology& topology, Tracer& tracer, int parent) {
  const campaign::WorkloadSpec& spec = cell.workload;
  const std::int64_t nodes = topology.processor_count();
  switch (spec.kind) {
    case campaign::WorkloadKind::kNone:
      return nullptr;
    case campaign::WorkloadKind::kOneToAll:
    case campaign::WorkloadKind::kGossip: {
      const bool gossip = spec.kind == campaign::WorkloadKind::kGossip;
      otis::collectives::SlotSchedule schedule;
      {
        const ScopedSpan span(tracer, "collectives.schedule", parent, cell.id);
        schedule = topology.collective_schedule(gossip, gossip ? 0 : spec.root);
      }
      return otis::workload::schedule_workload(topology.stack(), schedule);
    }
    case campaign::WorkloadKind::kBsp:
      return otis::workload::bsp_exchange(nodes, spec.phases, spec.shift);
    case campaign::WorkloadKind::kReduce:
      return otis::workload::reduce_tree(nodes, spec.arity, spec.root);
    case campaign::WorkloadKind::kGather:
      return otis::workload::gather_incast(nodes, spec.root);
    case campaign::WorkloadKind::kTrace:
      break;
  }
  throw otis::core::Error("traced run: trace workloads are not driven");
}

/// Restarts the kernel's peak-RSS mark (VmHWM) at the current RSS, so
/// a VmHWM read after a call gives that call's own peak. With two pool
/// workers the peak also holds the other worker's concurrent cell.
/// Throws when the kernel refuses, rather than report a stale peak.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  OTIS_REQUIRE(!out.fail(),
               "traced run: cannot reset the peak RSS mark "
               "(writing 5 to /proc/self/clear_refs failed)");
}

/// The benchmark's own instrumentation (RSS probes, runtime-stats
/// rows) runs in these spans; they belong to no layer, and coverage
/// leaves them out of the traced time.
constexpr const char* kProbe = "trace.probe";

/// Spans that only wrap other spans: the repetition, the pool's run and
/// each cell. Coverage counts the layer calls inside them instead.
bool is_wrapper(const std::string& name) {
  return name == "campaign.rep" || name == "core.pool_run" ||
         name == "campaign.cell";
}

/// Share of the repetition's work time that layer-call spans cover.
/// Work time is the repetition's own thread outside the pool's run,
/// plus every cell's wall time on its worker; the probes are taken out
/// of it. A gap no layer call covers -- cell bookkeeping, freeing the
/// tables, anything untraced -- lowers the share. The pool's dispatch
/// between cells is the pool's own time and is not work time.
double coverage(const std::vector<Span>& spans) {
  double work = 0.0, covered = 0.0;
  for (const Span& span : spans) {
    const double duration = span.end - span.start;
    if (span.parent < 0) {
      work += duration;  // the repetition
      continue;
    }
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    if (span.name == "core.pool_run") {
      work -= duration;
    } else if (span.name == "campaign.cell") {
      work += duration;
    } else if (span.name == kProbe) {
      work -= duration;
    } else if (is_wrapper(parent.name)) {
      covered += duration;  // a layer call directly under a wrapper
    }
  }
  return covered / work;
}

/// What one cell leaves behind once its row has gone to the sinks.
struct CellStats {
  double rss_delta_mib = 0.0;  ///< peak RSS growth across construct + run
  double peak_rss_mib = 0.0;
  std::int64_t workload_packets = 0;
  std::int64_t hops = 0;
  std::int64_t collisions = 0;
  std::int64_t makespan = 0;
  sim::PhaseBreakdown phases;
};

}  // namespace

TracedRep traced_rep(const std::string& spec_path, int threads,
                     const fs::path& out_dir, int rep_index,
                     std::ostream& spans_out) {
  Tracer tracer;
  const double base_rss_mib = proc_status_mib("VmRSS");
  const int root = tracer.begin("campaign.rep", -1);
  std::vector<CellStats> stats;
  double routing_rss_mib = 0.0;
  double peak_rss_mib = 0.0;
  double table_bytes = 0.0;
  std::vector<otis::core::WorkStealingPool::WorkerStats> pool_stats;
  double pool_wall_ns = 0.0;
  {
    campaign::CampaignSpec spec;
    std::vector<campaign::CampaignCell> cells;
    {
      const ScopedSpan span(tracer, "campaign.load", root);
      spec = campaign::load_campaign_spec(spec_path);
      cells = campaign::expand_grid(spec);
    }
    std::vector<std::shared_ptr<campaign::ResultSink>> sinks;
    std::unique_ptr<campaign::Manifest> manifest;
    {
      const ScopedSpan span(tracer, "campaign.emit", root);
      fs::create_directories(out_dir);
      sinks.push_back(std::make_shared<campaign::JsonlSink>(
          (out_dir / campaign::CampaignRunner::kJsonlFile).string(), false));
      sinks.push_back(std::make_shared<campaign::CsvSink>(
          (out_dir / campaign::CampaignRunner::kCsvFile).string(), false));
      manifest = std::make_unique<campaign::Manifest>(
          (out_dir / campaign::CampaignRunner::kManifestFile).string(), false);
    }
    std::unique_ptr<otis::core::WorkStealingPool> pool;
    {
      const ScopedSpan span(tracer, "core.pool_start", root);
      pool = std::make_unique<otis::core::WorkStealingPool>(threads);
      pool->enable_stats();
    }

    std::map<std::size_t, std::shared_ptr<const campaign::CompiledTopology>>
        topologies;
    for (const auto& [index, need] : table_needs(spec, cells)) {
      const std::string label = spec.topologies[index].label();
      double rss0 = 0.0;
      {
        const ScopedSpan probe(tracer, kProbe, root, label);
        rss0 = proc_status_mib("VmRSS");
        reset_peak_rss();
      }
      {
        const ScopedSpan span(tracer, "routing.compile", root, label);
        topologies[index] = campaign::CompiledTopology::build(
            spec.topologies[index], need.dense, need.compressed, pool.get());
      }
      {
        const ScopedSpan probe(tracer, kProbe, root, label);
        const double peak = proc_status_mib("VmHWM");
        routing_rss_mib += peak - rss0;
        peak_rss_mib = std::max(peak_rss_mib, peak);
      }
      const campaign::CompiledTopology& built = *topologies[index];
      if (built.routes() != nullptr) {
        table_bytes += static_cast<double>(built.routes()->memory_bytes());
      }
      if (built.compressed_routes() != nullptr) {
        table_bytes +=
            static_cast<double>(built.compressed_routes()->memory_bytes());
      }
    }

    const auto rt_writer = std::make_shared<otis::obs::RuntimeStatsWriter>(
        (out_dir / "runtime.jsonl").string());
    stats.resize(cells.size());
    std::vector<campaign::CellResult> results(cells.size());
    std::mutex emit_mutex;
    std::size_t next_emit = 0;
    std::vector<bool> finished(cells.size(), false);
    {
      const ScopedSpan pool_span(tracer, "core.pool_run", root);
      pool->run(cells.size(), [&](std::size_t i, std::size_t) {
        const campaign::CampaignCell& cell = cells[i];
        const campaign::CompiledTopology& topology =
            *topologies.at(cell.topology);
        const ScopedSpan cell_span(tracer, "campaign.cell", pool_span.id(),
                                   cell.id);
        CellStats& cell_stats = stats[i];
        sim::SimConfig config;
        config.arbitration = cell.arbitration;
        config.warmup_slots = spec.warmup_slots;
        config.measure_slots = spec.measure_slots;
        config.queue_capacity = spec.queue_capacity;
        config.seed = cell.seed;
        config.wavelengths = cell.wavelengths;
        config.engine = cell.engine;
        config.threads = cell.engine_threads;
        config.timing = cell.timing;
        config.latency_mode = spec.latency_stats;
        {
          const ScopedSpan span(tracer, "workload.build", cell_span.id(),
                                cell.id);
          config.workload = make_workload(cell, topology, tracer, span.id());
        }
        if (config.workload != nullptr) {
          cell_stats.workload_packets = config.workload->packet_count();
        } else if (cell.engine == sim::Engine::kPhased) {
          config.phase_breakdown = &cell_stats.phases;
        }
        std::shared_ptr<otis::obs::RuntimeStats> rt;
        if (cell.engine == sim::Engine::kSharded ||
            cell.engine == sim::Engine::kAsyncSharded) {
          rt = otis::obs::RuntimeStats::attach(rt_writer, cell.id);
          config.runtime_stats = rt;
        }

        campaign::CellResult& result = results[i];
        result.cell = cell;
        result.topology_label = topology.label();
        result.nodes = topology.processor_count();
        result.couplers = topology.coupler_count();
        double rss0 = 0.0;
        {
          const ScopedSpan probe(tracer, kProbe, cell_span.id(), cell.id);
          rss0 = proc_status_mib("VmRSS");
          reset_peak_rss();
        }
        const auto simulate = [&](const auto& routes) {
          std::unique_ptr<sim::OpsNetworkSim> network;
          {
            const ScopedSpan span(tracer, "sim.construct", cell_span.id(),
                                  cell.id);
            network = std::make_unique<sim::OpsNetworkSim>(
                topology.stack(), routes,
                make_traffic(cell, topology.processor_count()), config);
          }
          {
            const ScopedSpan span(tracer, "sim.run", cell_span.id(), cell.id);
            result.metrics = network->run();
          }
          const ScopedSpan probe(tracer, kProbe, cell_span.id(), cell.id);
          cell_stats.peak_rss_mib = proc_status_mib("VmHWM");
          cell_stats.rss_delta_mib = cell_stats.peak_rss_mib - rss0;
        };
        if (sim::resolve_route_table(cell.routes,
                                     topology.processor_count()) ==
            sim::RouteTable::kCompressed) {
          simulate(topology.compressed_routes());
        } else {
          simulate(topology.routes());
        }
        if (rt != nullptr) {
          const ScopedSpan probe(tracer, kProbe, cell_span.id(), cell.id);
          rt->finish();
        }
        cell_stats.hops = result.metrics.coupler_transmissions;
        cell_stats.collisions = result.metrics.collisions;
        cell_stats.makespan = result.metrics.makespan_slots;

        const ScopedSpan span(tracer, "campaign.emit", cell_span.id(),
                              cell.id);
        const std::lock_guard<std::mutex> lock(emit_mutex);
        finished[i] = true;
        while (next_emit < cells.size() && finished[next_emit]) {
          for (const auto& sink : sinks) {
            sink->consume(results[next_emit]);
          }
          for (const auto& sink : sinks) {
            sink->flush();
          }
          manifest->record(results[next_emit].cell.id);
          // Emitted rows are released, as the runner releases them.
          results[next_emit] = campaign::CellResult{};
          ++next_emit;
        }
      });
    }
    {
      const ScopedSpan span(tracer, "campaign.emit", root);
      for (const auto& sink : sinks) {
        sink->close();
      }
    }
    rt_writer->close();
    pool_stats = pool->stats();
    pool_wall_ns = static_cast<double>(pool->stats_wall_ns());
  }
  tracer.end(root);
  peak_rss_mib = std::max(peak_rss_mib, proc_status_mib("VmHWM"));

  // Everything below is bookkeeping outside the traced interval.
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = self_times(spans);
  TracedRep rep;
  rep.wall_s = spans[static_cast<std::size_t>(root)].end -
               spans[static_cast<std::size_t>(root)].start;
  std::map<std::string, double>& m = rep.layers;
  for (const char* layer :
       {"campaign", "core", "routing", "sim", "workload", "collectives"}) {
    m[std::string(layer) + ".self_s"] = 0.0;
  }
  std::vector<double> run_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = span.end - span.start;
    if (span.name == kProbe) {
      m["trace.probe_s"] += duration;
      continue;
    }
    if (static_cast<int>(i) != root) {
      m[layer_of(span.name) + ".self_s"] += self[i];
    }
    if (span.name == "campaign.load") {
      m["campaign.load_s"] += duration;
    } else if (span.name == "campaign.emit") {
      m["campaign.emit_s"] += duration;
    } else if (span.name == "routing.compile") {
      m["routing.compile_s"] += duration;
    } else if (span.name == "sim.construct") {
      m["sim.construct_s"] += duration;
    } else if (span.name == "sim.run") {
      m["sim.run_s"] += duration;
      run_ms.push_back(1e3 * duration);
    } else if (span.name == "workload.build") {
      m["workload.build_s"] += duration;
    } else if (span.name == "collectives.schedule") {
      m["collectives.schedule_s"] += duration;
    }
  }
  m["trace.coverage"] = coverage(spans);
  m["sim.cell_p50_ms"] = percentile(run_ms, 0.5);
  m["sim.cell_p90_ms"] = percentile(run_ms, 0.9);

  double busy_ns = 0.0, steals = 0.0;
  for (const auto& worker : pool_stats) {
    busy_ns += static_cast<double>(worker.busy_ns);
    steals += static_cast<double>(worker.steals);
  }
  m["core.pool_busy_frac"] =
      busy_ns / (pool_wall_ns * static_cast<double>(pool_stats.size()));
  m["core.pool_steals"] = steals;
  m["routing.table_mib"] = table_bytes / kMiB;
  m["routing.rss_delta_mib"] = routing_rss_mib;

  sim::PhaseBreakdown phases;
  double hops = 0.0, collisions = 0.0, packets = 0.0, makespan = 0.0;
  double rss_delta = 0.0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    hops += static_cast<double>(stats[i].hops);
    collisions += static_cast<double>(stats[i].collisions);
    makespan += static_cast<double>(stats[i].makespan);
    peak_rss_mib = std::max(peak_rss_mib, stats[i].peak_rss_mib);
    packets += static_cast<double>(stats[i].workload_packets);
    rss_delta = std::max(rss_delta, stats[i].rss_delta_mib);
    phases.slots += stats[i].phases.slots;
    phases.generate_seconds += stats[i].phases.generate_seconds;
    phases.arbitrate_seconds += stats[i].phases.arbitrate_seconds;
    phases.receive_seconds += stats[i].phases.receive_seconds;
  }
  const double slots = static_cast<double>(std::max<std::int64_t>(phases.slots, 1));
  m["sim.generate_ns_per_slot"] = 1e9 * phases.generate_seconds / slots;
  m["sim.arbitrate_ns_per_slot"] = 1e9 * phases.arbitrate_seconds / slots;
  m["sim.receive_ns_per_slot"] = 1e9 * phases.receive_seconds / slots;
  m["sim.hops"] = hops;
  m["sim.collisions"] = collisions;
  m["sim.useful_tx_ratio"] = hops / std::max(hops + collisions, 1.0);
  m["sim.rss_delta_mib"] = rss_delta;
  m["workload.packets"] = packets;
  m["workload.makespan_slots"] = makespan;
  m["process.base_rss_mib"] = base_rss_mib;
  m["process.peak_rss_mib"] = peak_rss_mib;

  // The runtime channel's shard rows (sharded engines only).
  double wait_ns = 0.0, work_ns = 0.0, windows = 0.0, used = 0.0,
         available = 0.0, mailbox = 0.0, calendar_peak = 0.0;
  for (const std::string& line : read_lines(out_dir / "runtime.jsonl")) {
    const otis::core::Json row = otis::core::Json::parse(line);
    if (row.string_or("type", "") != "shard") {
      continue;
    }
    wait_ns += row.at("barrier_wait_ns").as_number();
    work_ns += row.at("work_ns").as_number();
    windows += row.at("windows").as_number();
    used += row.at("lookahead_used").as_number();
    available += row.at("lookahead_available").as_number();
    mailbox += row.at("mailbox_msgs_sent").as_number();
    calendar_peak =
        std::max(calendar_peak, row.at("calendar_peak").as_number());
  }
  m["sim.barrier_wait_s"] = wait_ns * 1e-9;
  m["sim.stall_share"] = wait_ns / std::max(wait_ns + work_ns, 1.0);
  m["sim.windows"] = windows;
  m["sim.lookahead_use"] = used / std::max(available, 1.0);
  m["sim.mailbox_msgs"] = mailbox;
  m["sim.calendar_peak"] = calendar_peak;

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    spans_out << "{\"rep\": " << rep_index << ", \"id\": " << i
              << ", \"parent\": " << span.parent << ", \"name\": \""
              << span.name << "\", \"cell\": \"" << span.cell
              << "\", \"start_s\": " << span.start - spans[0].start
              << ", \"end_s\": " << span.end - spans[0].start << "}\n";
  }
  return rep;
}

}  // namespace perfbench
