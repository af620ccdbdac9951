#include "campaign/runner.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sys/file.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "campaign/manifest.hpp"
#include "core/blob.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "obs/runtime_stats.hpp"
#include "obs/telemetry.hpp"
#include "sim/checkpoint.hpp"
#include "sim/ops_network.hpp"
#include "sim/traffic.hpp"
#include "workload/kernels.hpp"
#include "workload/schedule_workload.hpp"
#include "workload/trace.hpp"

namespace otis::campaign {

namespace {

/// An exclusive, non-blocking flock(2) on `dir`/CampaignRunner::kLockFile,
/// held until destruction. The lock belongs to the open file
/// description, so it also holds against another description of the
/// file in this process, and the kernel drops it if the process dies.
class DirectoryLock {
 public:
  explicit DirectoryLock(const std::filesystem::path& dir) {
    const std::string path = (dir / CampaignRunner::kLockFile).string();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    OTIS_REQUIRE(fd_ >= 0, "CampaignRunner: cannot open lock file " + path +
                               ": " + std::strerror(errno));
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      const int error = errno;
      ::close(fd_);
      OTIS_REQUIRE(error != EWOULDBLOCK,
                   "CampaignRunner: output directory " + dir.string() +
                       " is in use by another campaign runner");
      OTIS_REQUIRE(false, "CampaignRunner: cannot lock output directory " +
                              dir.string() + ": " + std::strerror(error));
    }
  }
  ~DirectoryLock() { ::close(fd_); }
  DirectoryLock(const DirectoryLock&) = delete;
  DirectoryLock& operator=(const DirectoryLock&) = delete;

 private:
  int fd_ = -1;
};

std::unique_ptr<sim::TrafficGenerator> make_traffic(const CampaignCell& cell,
                                                    std::int64_t nodes) {
  // Shape values live on the cell's TrafficSpec (per axis entry), so a
  // grid can sweep hotspot fractions or burst lengths.
  const TrafficSpec& traffic = cell.traffic;
  switch (traffic.kind) {
    case TrafficKind::kSaturation:
      return std::make_unique<sim::SaturationTraffic>(nodes);
    case TrafficKind::kHotspot:
      return std::make_unique<sim::HotspotTraffic>(
          nodes, cell.load, traffic.hotspot_node, traffic.hotspot_fraction);
    case TrafficKind::kPermutation:
      // The permutation is drawn from the cell seed, so each seed axis
      // value is an independent partner assignment.
      return std::make_unique<sim::PermutationTraffic>(nodes, cell.load,
                                                       cell.seed);
    case TrafficKind::kBursty:
      return std::make_unique<sim::BurstyTraffic>(
          nodes, cell.load, traffic.bursty_enter_on, traffic.bursty_exit_on);
    case TrafficKind::kUniform:
      break;
  }
  return std::make_unique<sim::UniformTraffic>(nodes, cell.load);
}

/// Builds the cell's closed-loop driver (null for open-loop cells).
/// Workloads are stateful single-run objects, so every cell gets its
/// own instance; schedule kinds compile the topology's analytic
/// schedule, trace kinds load the file per cell (cheap next to the
/// simulation itself).
std::shared_ptr<workload::Workload> make_workload(
    const CampaignCell& cell, const CompiledTopology& topology) {
  const WorkloadSpec& spec = cell.workload;
  const std::int64_t nodes = topology.processor_count();
  switch (spec.kind) {
    case WorkloadKind::kNone:
      return nullptr;
    case WorkloadKind::kOneToAll:
      return workload::schedule_workload(
          topology.stack(),
          topology.collective_schedule(/*gossip=*/false, spec.root));
    case WorkloadKind::kGossip:
      return workload::schedule_workload(
          topology.stack(),
          topology.collective_schedule(/*gossip=*/true, 0));
    case WorkloadKind::kBsp:
      return workload::bsp_exchange(nodes, spec.phases, spec.shift);
    case WorkloadKind::kReduce:
      return workload::reduce_tree(nodes, spec.arity, spec.root);
    case WorkloadKind::kGather:
      return workload::gather_incast(nodes, spec.root);
    case WorkloadKind::kTrace: {
      auto trace = workload::Trace::load(spec.trace_file);
      OTIS_REQUIRE(trace.nodes == nodes,
                   "campaign: trace " + spec.trace_file + " was recorded on " +
                       std::to_string(trace.nodes) + " nodes, cell runs " +
                       std::to_string(nodes));
      return std::make_shared<workload::TraceWorkload>(std::move(trace));
    }
  }
  return nullptr;
}

/// Telemetry output paths resolve against out_dir (cwd when unset).
std::string resolve_out_path(const std::string& out_dir,
                             const std::string& path) {
  const std::filesystem::path p(path);
  if (p.is_absolute() || out_dir.empty()) {
    return path;
  }
  return (std::filesystem::path(out_dir) / p).string();
}

/// The cell's run knobs: everything its SimConfig takes from the spec
/// and the cell alone, the checkpoint fingerprint included.
sim::SimConfig cell_config(const CampaignSpec& spec,
                           const CampaignCell& cell) {
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
  return config;
}

/// --resume: cuts the campaign's timeseries file at `path` back to the
/// rows the resumed cells will not write again, so that appending their
/// rows gives the uninterrupted run's rows. `resume_slot` maps each
/// pending cell's id to the slot its run starts from (0 without a
/// usable checkpoint): it keeps its sample rows below that slot, and its
/// schema row only when one of them is kept (a cell writes its schema
/// with its first sample). Rows of every other cell are kept whole. A
/// last line without its newline was torn by a crash and is dropped;
/// any other line that does not parse fails the run. The file is
/// rewritten atomically, so a crash here loses nothing.
void cut_timeseries(
    const std::string& path,
    const std::unordered_map<std::string, std::int64_t>& resume_slot) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return;  // nothing was written yet
  }
  struct Line {
    std::string text;
    bool keep = true;
    std::string schema_of;  ///< the pending cell of a schema row
  };
  std::vector<Line> lines;
  std::unordered_set<std::string> sampled;  ///< pending, with a kept sample
  std::string text;
  for (std::int64_t number = 1; std::getline(in, text); ++number) {
    if (in.eof()) {
      break;  // no newline: torn
    }
    Line line{std::move(text), true, {}};
    try {
      const core::Json row = core::Json::parse(line.text);
      const core::Json* cell = row.find("cell");
      const auto pending = cell == nullptr
                               ? resume_slot.end()
                               : resume_slot.find(cell->as_string());
      if (pending != resume_slot.end()) {
        if (row.at("type").as_string() == "schema") {
          line.schema_of = pending->first;
        } else if (row.at("slot").as_int() < pending->second) {
          sampled.insert(pending->first);
        } else {
          line.keep = false;
        }
      }
    } catch (const core::Error& error) {
      throw core::Error("CampaignRunner: " + path + " line " +
                        std::to_string(number) + ": " + error.what());
    }
    lines.push_back(std::move(line));
  }
  std::vector<std::uint8_t> kept;
  for (const Line& line : lines) {
    if (line.keep &&
        (line.schema_of.empty() || sampled.count(line.schema_of) > 0)) {
      kept.insert(kept.end(), line.text.begin(), line.text.end());
      kept.push_back('\n');
    }
  }
  core::write_file_atomic(path, kept);
}

CellResult simulate_cell(const CampaignSpec& spec,
                         const CompiledTopology& topology,
                         const CampaignCell& cell,
                         std::shared_ptr<obs::Telemetry> telemetry,
                         std::shared_ptr<obs::RuntimeStats> runtime_stats,
                         const std::string& checkpoint_path,
                         bool checkpoint_resume,
                         std::int64_t checkpoint_stop) {
  sim::SimConfig config = cell_config(spec, cell);
  config.workload = make_workload(cell, topology);
  config.telemetry = std::move(telemetry);
  config.runtime_stats = std::move(runtime_stats);
  if (!checkpoint_path.empty()) {
    config.checkpoint_every_slots = spec.checkpoint_every;
    config.checkpoint_path = checkpoint_path;
    config.checkpoint_resume = checkpoint_resume;
    config.checkpoint_stop_at = checkpoint_stop;
  }

  std::unique_ptr<sim::TrafficGenerator> traffic =
      make_traffic(cell, topology.processor_count());

  CellResult result;
  result.cell = cell;
  result.topology_label = topology.label();
  result.nodes = topology.processor_count();
  result.couplers = topology.coupler_count();
  if (sim::resolve_route_table(cell.routes, topology.processor_count()) ==
      sim::RouteTable::kCompressed) {
    sim::OpsNetworkSim sim(topology.stack(), topology.compressed_routes(),
                           std::move(traffic), config);
    result.metrics = sim.run();
  } else {
    sim::OpsNetworkSim sim(topology.stack(), topology.routes(),
                           std::move(traffic), config);
    result.metrics = sim.run();
  }
  return result;
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

void CampaignRunner::add_sink(std::shared_ptr<ResultSink> sink) {
  OTIS_REQUIRE(sink != nullptr, "CampaignRunner: sink must be set");
  extra_sinks_.push_back(std::move(sink));
}

CampaignReport CampaignRunner::run(const CampaignOptions& options) {
  const auto start_time = std::chrono::steady_clock::now();
  CampaignReport report;

  const std::vector<CampaignCell> cells = expand_grid(spec_);
  report.total_cells = static_cast<std::int64_t>(cells.size());

  // Output files + manifest-based skip set. The directory lock is
  // declared first, so it is released after every file here closes.
  std::optional<DirectoryLock> dir_lock;
  std::vector<std::shared_ptr<ResultSink>> sinks = extra_sinks_;
  std::unique_ptr<Manifest> manifest;
  std::unordered_set<std::string> completed;
  if (!options.out_dir.empty()) {
    std::filesystem::create_directories(options.out_dir);
    const std::filesystem::path dir(options.out_dir);
    dir_lock.emplace(dir);  // before any file here is read, cut or opened
    if (options.resume) {
      completed = Manifest::load((dir / kManifestFile).string());
    }
    if (options.write_jsonl) {
      sinks.push_back(std::make_shared<JsonlSink>(
          (dir / kJsonlFile).string(), options.resume));
    }
    if (options.write_csv) {
      sinks.push_back(std::make_shared<CsvSink>((dir / kCsvFile).string(),
                                                options.resume));
    }
    manifest =
        std::make_unique<Manifest>((dir / kManifestFile).string(),
                                   options.resume);
  }

  // Shared telemetry sinks: one timeseries writer (opened once the
  // pending cells are known) and one trace sink for the whole campaign;
  // every cell's rows and spans are tagged, so concurrent writers
  // interleave without ambiguity.
  const obs::TelemetryConfig& tcfg = spec_.telemetry;
  std::shared_ptr<obs::ChromeTraceSink> trace_sink;
  if (!tcfg.trace_path.empty()) {
    trace_sink = std::make_shared<obs::ChromeTraceSink>(
        resolve_out_path(options.out_dir, tcfg.trace_path));
  }
  obs::Span campaign_span;
  if (trace_sink != nullptr) {
    campaign_span =
        obs::Span(trace_sink.get(), 0, "campaign " + spec_.name, "campaign",
                  {{"cells", std::to_string(report.total_cells)}});
  }
  // The runtime channel: one shared writer for the campaign; each cell
  // gets its own session tagged with the cell id, and the pool's worker
  // rows land under a "campaign" session after the batch.
  std::shared_ptr<obs::JsonlWriter> rt_writer;
  if (!spec_.runtime_stats_path.empty()) {
    rt_writer = std::make_shared<obs::JsonlWriter>(
        resolve_out_path(options.out_dir, spec_.runtime_stats_path));
  }

  OTIS_REQUIRE(options.shard_count >= 1 && options.shard_index >= 0 &&
                   options.shard_index < options.shard_count,
               "CampaignRunner: shard must be i/n with 0 <= i < n");

  // Intra-cell checkpoints: one blob per cell under out_dir/checkpoints,
  // written every spec.checkpoint_every slots and deleted when the cell
  // completes. Only open-loop cells without a chrome-trace sink are
  // eligible (the blob cannot carry a workload's or trace sink's state);
  // ineligible cells simply run without checkpoints.
  std::filesystem::path checkpoint_dir;
  if (spec_.checkpoint_every > 0 && !options.out_dir.empty()) {
    checkpoint_dir =
        std::filesystem::path(options.out_dir) / "checkpoints";
    std::filesystem::create_directories(checkpoint_dir);
  }
  auto cell_checkpoint_path = [&](const CampaignCell& cell) -> std::string {
    if (checkpoint_dir.empty() ||
        cell.workload.kind != WorkloadKind::kNone || trace_sink != nullptr) {
      return {};
    }
    return (checkpoint_dir /
            ("cell-" + std::to_string(cell.index) + ".ckpt"))
        .string();
  };

  std::vector<const CampaignCell*> pending;
  pending.reserve(cells.size());
  for (const CampaignCell& cell : cells) {
    // Shard split first (a pure function of the spec), manifest skip
    // second, so --shard composes with --resume: a shard resumed against
    // its own (or a merged) manifest re-runs only its missing cells.
    if (cell.index % options.shard_count != options.shard_index) {
      ++report.out_of_shard_cells;
    } else if (completed.count(cell.id) > 0) {
      ++report.skipped_cells;
    } else {
      pending.push_back(&cell);
    }
  }

  // One build per distinct topology that still has pending work; all of
  // a topology's cells share the same immutable tables. Only the table
  // representations its cells resolve to are compiled -- a compressed-
  // only topology never materializes the O(N^2) dense table.
  struct TableNeeds {
    bool dense = false;
    bool compressed = false;
  };
  std::map<std::size_t, TableNeeds> needs;
  for (const CampaignCell* cell : pending) {
    TableNeeds& need = needs[cell->topology];
    const sim::RouteTable resolved = sim::resolve_route_table(
        cell->routes, spec_.topologies[cell->topology].processor_count());
    (resolved == sim::RouteTable::kCompressed ? need.compressed
                                              : need.dense) = true;
  }
  // The cell pool doubles as the route-compile pool: builds happen
  // before the cell batch starts, when every worker is otherwise idle,
  // and parallel compilation is bit-identical to serial by construction.
  WorkStealingPool pool(options.threads);
  if (rt_writer != nullptr) {
    // Enabled before the route compiles so the worker rows cover the
    // pool's whole lifetime (compile batches included).
    pool.enable_stats();
  }

  std::map<std::size_t, std::shared_ptr<const CompiledTopology>> topologies;
  for (const auto& [index, need] : needs) {
    obs::Span compile_span;
    if (trace_sink != nullptr) {
      compile_span = obs::Span(trace_sink.get(), 0,
                               "compile " + spec_.topologies[index].label(),
                               "compile");
    }
    topologies[index] = CompiledTopology::build(
        spec_.topologies[index], need.dense, need.compressed, &pool);
    ++report.topologies_compiled;
  }

  // --resume appends to the timeseries, after cutting it back to the
  // rows no pending cell writes again: a pending cell resumes from its
  // checkpoint's boundary, or from slot 0 without one.
  std::shared_ptr<obs::JsonlWriter> ts_writer;
  if (tcfg.sample_period > 0) {
    const std::string ts_path =
        tcfg.timeseries_path.empty()
            ? std::string()
            : resolve_out_path(options.out_dir, tcfg.timeseries_path);
    if (options.resume && !ts_path.empty()) {
      std::unordered_map<std::string, std::int64_t> resume_slot;
      for (const CampaignCell* cell : pending) {
        const std::string ckpt_path = cell_checkpoint_path(*cell);
        const hypergraph::DirectedHypergraph& hg =
            topologies.at(cell->topology)->stack().hypergraph();
        resume_slot[cell->id] =
            ckpt_path.empty()
                ? 0
                : sim::checkpoint_boundary(ckpt_path,
                                           cell_config(spec_, *cell),
                                           hg.node_count(),
                                           hg.hyperarc_count());
      }
      cut_timeseries(ts_path, resume_slot);
    }
    ts_writer = std::make_shared<obs::JsonlWriter>(ts_path, options.resume);
  }

  // Reorder buffer: workers finish in steal order, sinks consume in
  // expansion order. A cell becomes durable (manifest line) only after
  // its rows reached every sink. Drill-interrupted cells hold a slot in
  // the order but never reach a sink or the manifest: their partial
  // metrics are not results, their checkpoint blob is.
  struct EmitEntry {
    CellResult result;
    bool interrupted = false;
  };
  std::mutex emit_mutex;
  std::map<std::size_t, EmitEntry> ready;
  std::size_t next_emit = 0;
  // Set when a cell or an output fails: the run is lost, so cells that
  // have not started read it without the lock and skip their simulation,
  // and nothing more is emitted.
  std::atomic<bool> stopped{false};
  std::int64_t interrupted_cells = 0;
  auto emit_ready = [&]() {
    while (!stopped && !ready.empty() &&
           ready.begin()->first == next_emit) {
      const EmitEntry& entry = ready.begin()->second;
      if (entry.interrupted) {
        ++interrupted_cells;
      } else {
        try {
          for (const std::shared_ptr<ResultSink>& sink : sinks) {
            sink->consume(entry.result);
          }
          if (manifest != nullptr) {
            for (const std::shared_ptr<ResultSink>& sink : sinks) {
              sink->flush();
            }
            manifest->record(entry.result.cell.id);
          }
        } catch (...) {
          // An output failed mid-cell: emit nothing more, so no later
          // completion writes this cell's rows again and the outputs
          // stay a prefix of the expansion order.
          stopped = true;
          throw;
        }
      }
      ready.erase(ready.begin());
      ++next_emit;
    }
  };

  // --progress heartbeat: a detached-from-the-results stderr line every
  // ~2 s while the grid runs. Counters are relaxed atomics -- they feed
  // a human, not the simulation. The rate/ETA cover only cells executed
  // by THIS invocation: manifest-skipped cells never enter `pending`,
  // so a --resume of a mostly-done campaign reports the true remaining
  // time instead of the stale full-grid rate (skips are shown apart).
  // When the runtime channel is on, sharded cells contribute their
  // barrier-wait/total-time split to a running stall share.
  std::atomic<std::int64_t> cells_done{0};
  std::atomic<int> busy_workers{0};
  std::atomic<std::int64_t> agg_wait_ns{0};
  std::atomic<std::int64_t> agg_shard_ns{0};
  std::atomic<bool> progress_stop{false};
  std::thread progress_thread;
  if (options.progress) {
    progress_thread = std::thread([&, total = pending.size(),
                                   skipped = report.skipped_cells] {
      const auto t0 = std::chrono::steady_clock::now();
      auto next = t0 + std::chrono::seconds(2);
      while (!progress_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const auto tick = std::chrono::steady_clock::now();
        if (tick < next) {
          continue;
        }
        next = tick + std::chrono::seconds(2);
        const double elapsed = std::chrono::duration<double>(tick - t0).count();
        const std::int64_t done = cells_done.load(std::memory_order_relaxed);
        const double rate = elapsed > 0.0
                                ? static_cast<double>(done) / elapsed
                                : 0.0;
        const double eta =
            rate > 0.0 ? static_cast<double>(
                             static_cast<std::int64_t>(total) - done) /
                             rate
                       : 0.0;
        std::string extra;
        if (skipped > 0) {
          extra += "  resumed past " + std::to_string(skipped) + " cells";
        }
        const std::int64_t wait = agg_wait_ns.load(std::memory_order_relaxed);
        const std::int64_t busy = agg_shard_ns.load(std::memory_order_relaxed);
        if (busy > 0) {
          char stall[48];
          std::snprintf(stall, sizeof(stall), "  stall %.1f%%",
                        100.0 * static_cast<double>(wait) /
                            static_cast<double>(busy));
          extra += stall;
        }
        std::fprintf(stderr,
                     "[campaign] %lld/%zu cells  %.2f cells/s  eta %.0f s  "
                     "workers %d/%d busy%s\n",
                     static_cast<long long>(done), total, rate, eta,
                     busy_workers.load(std::memory_order_relaxed),
                     pool.thread_count(), extra.c_str());
      }
    });
  }

  std::exception_ptr run_error;
  try {
    pool.run(pending.size(), [&](std::size_t i, std::size_t worker) {
      // A cell or an output has failed: the remaining cells are not
      // simulated (and not counted as done).
      if (stopped.load()) {
        return;
      }
      const CampaignCell& cell = *pending[i];
      busy_workers.fetch_add(1, std::memory_order_relaxed);
      // Per-cell telemetry session over the shared sinks; the cell span
      // sits on the worker's track (tid 1 + w) and encloses the
      // engine's sim.run / window spans.
      std::shared_ptr<obs::Telemetry> tel;
      obs::Span cell_span;
      if (ts_writer != nullptr || trace_sink != nullptr) {
        const auto tid = static_cast<std::int32_t>(1 + worker);
        tel = obs::Telemetry::attach(tcfg, ts_writer, trace_sink, cell.id,
                                     tid);
        if (trace_sink != nullptr) {
          cell_span = obs::Span(trace_sink.get(), tid, cell.id, "cell");
        }
      }
      // Per-cell runtime session over the shared runtime writer. Only
      // the sharded engine loops fill it; the finish() below still runs
      // for every cell (it is a no-op without shard rows).
      std::shared_ptr<obs::RuntimeStats> rt;
      if (rt_writer != nullptr) {
        rt = obs::RuntimeStats::attach(rt_writer, cell.id);
      }
      const std::string ckpt_path = cell_checkpoint_path(cell);
      CellResult result;
      try {
        result = simulate_cell(spec_, *topologies.at(cell.topology), cell,
                               std::move(tel), rt, ckpt_path, options.resume,
                               options.checkpoint_stop);
      } catch (...) {
        stopped = true;
        busy_workers.fetch_sub(1, std::memory_order_relaxed);
        throw;
      }
      if (rt != nullptr) {
        const obs::RuntimeStats::StallSummary stall = rt->stall_summary();
        rt->finish();
        if (stall.shards > 0) {
          agg_wait_ns.fetch_add(stall.barrier_wait_ns,
                                std::memory_order_relaxed);
          agg_shard_ns.fetch_add(
              static_cast<std::int64_t>(stall.shards) * stall.wall_ns,
              std::memory_order_relaxed);
          if (options.progress) {
            // The stall-attribution line: which shard the others waited
            // for, and how much of the total barrier wait it explains.
            std::fprintf(
                stderr,
                "[campaign] cell %s  %lld shards  stall %.1f%%  shard %lld "
                "caused %.0f%% of barrier wait\n",
                cell.id.c_str(), static_cast<long long>(stall.shards),
                100.0 * stall.stall_share,
                static_cast<long long>(stall.blamed_shard),
                100.0 * stall.blamed_share);
          }
        }
      }
      // A drill-interrupted cell's blob is its handoff to --resume; a
      // completed cell's blob has served its purpose.
      const bool interrupted = result.metrics.interrupted;
      if (!ckpt_path.empty() && !interrupted) {
        std::error_code ignored;
        std::filesystem::remove(ckpt_path, ignored);
      }
      cell_span.end();
      busy_workers.fetch_sub(1, std::memory_order_relaxed);
      cells_done.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(emit_mutex);
      ready.emplace(i, EmitEntry{std::move(result), interrupted});
      emit_ready();
    });
  } catch (...) {
    run_error = std::current_exception();
  }
  progress_stop.store(true, std::memory_order_relaxed);
  if (progress_thread.joinable()) {
    progress_thread.join();
    std::fprintf(stderr, "[campaign] %lld/%zu cells done\n",
                 static_cast<long long>(
                     cells_done.load(std::memory_order_relaxed)),
                 pending.size());
  }
  campaign_span.end();
  if (ts_writer != nullptr) {
    ts_writer->close();
  }
  if (trace_sink != nullptr) {
    trace_sink->close();
  }
  if (rt_writer != nullptr) {
    // Pool-level utilization rows under a "campaign" session: one row
    // per worker covering the pool's lifetime (compiles + cells).
    const std::shared_ptr<obs::RuntimeStats> campaign_rt =
        obs::RuntimeStats::attach(rt_writer, "campaign");
    campaign_rt->record_workers(pool.stats_wall_ns(), pool.stats());
    report.runtime_rows = rt_writer->rows();
    rt_writer->close();
  }
  if (run_error) {
    std::rethrow_exception(run_error);
  }
  OTIS_ASSERT(ready.empty() && next_emit == pending.size(),
              "CampaignRunner: reorder buffer drained");

  for (const std::shared_ptr<ResultSink>& sink : sinks) {
    sink->close();
  }
  report.interrupted_cells = interrupted_cells;
  report.completed_cells =
      static_cast<std::int64_t>(pending.size()) - interrupted_cells;
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return report;
}

}  // namespace otis::campaign
