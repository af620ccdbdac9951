// Tests for the runtime-introspection channel (obs/runtime_stats):
//  - the two-channel contract: with an ACTIVE runtime session attached,
//    the deterministic channel stays byte-identical across worker
//    counts and RunMetrics stay bit-exact against the uninstrumented
//    run -- wall-clock collection must never leak into simulation
//    outputs;
//  - a default-config session is inert: active() false, zero rows;
//  - shard rows are internally consistent: phased-sharded windows equal
//    the slot horizon, lookahead_used <= lookahead_available, and the
//    async-sharded mailbox conservation law (total sends == total
//    replays) holds in open-loop and workload modes;
//  - the cell_summary stall attribution is a valid distribution
//    (stall_share in [0,1], blame normalized);
//  - WorkStealingPool worker counters add up: items sum to the batch
//    size, steals never exceed items, and busy+idle+steal stays within
//    the pool's wall clock.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/work_pool.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "obs/runtime_stats.hpp"
#include "obs/telemetry.hpp"
#include "routing/compiled_routes.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/traffic.hpp"
#include "workload/trace.hpp"

namespace {

using namespace otis;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Fresh scratch directory under the build tree's temp space.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("otis_rt_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

void expect_identical(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.coupler_transmissions, b.coupler_transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.backlog, b.backlog);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.max(), b.latency.max());
}

constexpr std::int64_t kWarmup = 50;
constexpr std::int64_t kMeasure = 400;

/// One SK(4,3,2) run with optional telemetry + runtime sessions.
sim::RunMetrics run_sk(sim::Engine engine, int threads,
                       std::shared_ptr<obs::Telemetry> telemetry,
                       std::shared_ptr<obs::RuntimeStats> runtime,
                       std::uint64_t seed = 42) {
  hypergraph::StackKautz sk(4, 3, 2);
  sim::SimConfig config;
  config.warmup_slots = kWarmup;
  config.measure_slots = kMeasure;
  config.seed = seed;
  config.engine = engine;
  config.threads = threads;
  config.telemetry = std::move(telemetry);
  config.runtime_stats = std::move(runtime);
  sim::OpsNetworkSim sim(
      sk.stack(),
      std::make_shared<const routing::CompiledRoutes>(
          routing::compile_stack_kautz_routes(sk)),
      std::make_unique<sim::UniformTraffic>(sk.processor_count(), 0.35),
      config);
  return sim.run();
}

workload::Trace record_small_trace() {
  hypergraph::StackKautz sk(4, 3, 2);
  auto recorder =
      std::make_shared<workload::TraceRecorder>(sk.processor_count());
  sim::SimConfig config;
  config.warmup_slots = 0;
  config.measure_slots = 120;
  config.seed = 7;
  config.recorder = recorder;
  sim::OpsNetworkSim sim(
      sk.stack(),
      std::make_shared<const routing::CompiledRoutes>(
          routing::compile_stack_kautz_routes(sk)),
      std::make_unique<sim::UniformTraffic>(sk.processor_count(), 0.4),
      config);
  sim.run();
  return recorder->trace();
}

sim::RunMetrics run_workload(sim::Engine engine, int threads,
                             const workload::Trace& trace,
                             std::shared_ptr<obs::RuntimeStats> runtime) {
  hypergraph::StackKautz sk(4, 3, 2);
  sim::SimConfig config;
  config.warmup_slots = 0;
  config.measure_slots = 1;  // ignored: workload runs go to completion
  config.seed = 7;
  config.engine = engine;
  config.threads = threads;
  config.workload = std::make_shared<workload::TraceWorkload>(trace);
  config.runtime_stats = std::move(runtime);
  sim::OpsNetworkSim sim(
      sk.stack(),
      std::make_shared<const routing::CompiledRoutes>(
          routing::compile_stack_kautz_routes(sk)),
      std::make_unique<sim::UniformTraffic>(sk.processor_count(), 0.0),
      config);
  return sim.run();
}

/// An active session counting rows without touching the filesystem.
std::shared_ptr<obs::RuntimeStats> counting_session() {
  obs::RuntimeStatsConfig config;
  config.collect = true;
  return obs::RuntimeStats::create(config);
}

/// Parses a runtime JSONL file into per-type row lists.
struct RuntimeRows {
  std::vector<core::Json> schema;
  std::vector<core::Json> shard;
  std::vector<core::Json> workers;
  std::vector<core::Json> cell_summary;
};

RuntimeRows parse_runtime(const std::filesystem::path& path) {
  RuntimeRows rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const core::Json row = core::Json::parse(line);
    const std::string type = row.at("type").as_string();
    if (type == "schema") {
      rows.schema.push_back(row);
    } else if (type == "shard") {
      rows.shard.push_back(row);
    } else if (type == "workers") {
      rows.workers.push_back(row);
    } else if (type == "cell_summary") {
      rows.cell_summary.push_back(row);
    }
  }
  return rows;
}

TEST(RuntimeStats, DefaultConfigSessionIsInert) {
  const auto session = obs::RuntimeStats::create({});
  EXPECT_FALSE(session->active());
  const sim::RunMetrics off =
      run_sk(sim::Engine::kSharded, 2, nullptr, nullptr);
  const sim::RunMetrics on =
      run_sk(sim::Engine::kSharded, 2, nullptr, session);
  expect_identical(off, on);
  EXPECT_EQ(session->rows(), 0);
  EXPECT_EQ(session->stall_summary().shards, 0);
}

TEST(RuntimeStats, ActiveSessionKeepsMetricsExactOnEveryShardedEngine) {
  for (const sim::Engine engine :
       {sim::Engine::kSharded, sim::Engine::kAsyncSharded}) {
    SCOPED_TRACE(sim::engine_name(engine));
    const sim::RunMetrics off = run_sk(engine, 3, nullptr, nullptr);
    const auto session = counting_session();
    const sim::RunMetrics on = run_sk(engine, 3, nullptr, session);
    expect_identical(off, on);
    session->finish();
    // Schema + one row per shard + the cell summary.
    EXPECT_EQ(session->rows(), 1 + 3 + 1);
  }
}

TEST(RuntimeStats, DeterministicChannelIsThreadCountInvariantWithStatsOn) {
  // The two-channel contract, end to end: the timeseries bytes and the
  // merged probe values must not move when the runtime channel is
  // collecting, whatever the worker count.
  ScratchDir scratch("invariance");
  const sim::RunMetrics off =
      run_sk(sim::Engine::kSharded, 1, nullptr, nullptr);

  std::string reference_bytes;
  obs::EngineSample reference_probes;
  for (const int threads : {1, 2, 5, 8}) {
    SCOPED_TRACE(threads);
    obs::TelemetryConfig tcfg;
    tcfg.sample_period = 64;
    const std::filesystem::path ts_path =
        scratch.path() / ("ts_" + std::to_string(threads) + ".jsonl");
    tcfg.timeseries_path = ts_path.string();
    const auto tel = obs::Telemetry::create(tcfg);
    const auto session = counting_session();
    const sim::RunMetrics on =
        run_sk(sim::Engine::kSharded, threads, tel, session);
    expect_identical(off, on);
    session->finish();
    EXPECT_GT(session->rows(), 0);

    const obs::EngineSample probes = tel->probes();
    tel->close();
    const std::string bytes = read_file(ts_path);
    EXPECT_GT(bytes.size(), 0u);
    if (reference_bytes.empty()) {
      reference_bytes = bytes;
      reference_probes = probes;
    } else {
      EXPECT_EQ(bytes, reference_bytes)
          << "deterministic channel must not depend on the worker count "
             "even while the runtime channel collects";
      EXPECT_EQ(probes, reference_probes);
    }
  }
}

TEST(RuntimeStats, PhasedShardRowsAreInternallyConsistent) {
  ScratchDir scratch("phased");
  const std::filesystem::path path = scratch.path() / "runtime.jsonl";
  obs::RuntimeStatsConfig config;
  config.path = path.string();
  const auto session = obs::RuntimeStats::create(config);
  run_sk(sim::Engine::kSharded, 3, nullptr, session);
  session->finish();
  session->close();

  const RuntimeRows rows = parse_runtime(path);
  ASSERT_EQ(rows.schema.size(), 1u);
  EXPECT_EQ(rows.schema[0].at("channel").as_string(), "runtime");
  ASSERT_EQ(rows.shard.size(), 3u);
  for (const core::Json& shard : rows.shard) {
    EXPECT_EQ(shard.at("engine").as_string(), "phased_sharded");
    EXPECT_EQ(shard.at("mode").as_string(), "open_loop");
    EXPECT_EQ(shard.at("shards").as_int(), 3);
    // The phased loop runs one barrier cycle per slot, and slot engines
    // count 1/1 lookahead per slot.
    EXPECT_EQ(shard.at("windows").as_int(), kWarmup + kMeasure);
    EXPECT_EQ(shard.at("lookahead_used").as_int(), kWarmup + kMeasure);
    EXPECT_EQ(shard.at("lookahead_available").as_int(),
              kWarmup + kMeasure);
    EXPECT_GE(shard.at("barrier_wait_ns").as_int(), 0);
    EXPECT_GE(shard.at("work_ns").as_int(), 0);
    EXPECT_GT(shard.at("wall_ns").as_int(), 0);
    // The phased engine shares state through merged arenas, never
    // through the async mailboxes.
    EXPECT_EQ(shard.at("mailbox_msgs_sent").as_int(), 0);
    EXPECT_EQ(shard.at("mailbox_msgs_replayed").as_int(), 0);
  }
  ASSERT_EQ(rows.cell_summary.size(), 1u);
  const core::Json& summary = rows.cell_summary[0];
  EXPECT_EQ(summary.at("shards").as_int(), 3);
  const double stall = summary.at("stall_share").as_number();
  EXPECT_GE(stall, 0.0);
  EXPECT_LE(stall, 1.0);
  const double blamed = summary.at("blamed_share").as_number();
  EXPECT_GE(blamed, summary.at("blamed_shard").as_int() >= 0 ? 1.0 / 3.0
                                                             : 0.0);
  EXPECT_LE(blamed, 1.0);
}

TEST(RuntimeStats, AsyncShardedMailboxSendsEqualReplays) {
  // Mailbox conservation: every cross-shard arrival is counted once at
  // its producer (outbox drain before the window barrier) and once at
  // its consumer (calendar replay); over a completed run the totals
  // match exactly. Lookahead use can be clipped by the horizon but
  // never exceeds what the conservative window offered.
  for (const int threads : {2, 5}) {
    SCOPED_TRACE(threads);
    const auto session = counting_session();
    run_sk(sim::Engine::kAsyncSharded, threads, nullptr, session);
    session->finish();
    const obs::RuntimeStats::StallSummary summary =
        session->stall_summary();
    EXPECT_EQ(summary.shards, threads);
  }

  ScratchDir scratch("async");
  const std::filesystem::path path = scratch.path() / "runtime.jsonl";
  obs::RuntimeStatsConfig config;
  config.path = path.string();
  const auto session = obs::RuntimeStats::create(config);
  run_sk(sim::Engine::kAsyncSharded, 4, nullptr, session);
  session->finish();
  session->close();

  const RuntimeRows rows = parse_runtime(path);
  ASSERT_EQ(rows.shard.size(), 4u);
  std::int64_t sent = 0;
  std::int64_t replayed = 0;
  for (const core::Json& shard : rows.shard) {
    EXPECT_EQ(shard.at("engine").as_string(), "async_sharded");
    sent += shard.at("mailbox_msgs_sent").as_int();
    replayed += shard.at("mailbox_msgs_replayed").as_int();
    EXPECT_LE(shard.at("lookahead_used").as_int(),
              shard.at("lookahead_available").as_int());
    EXPECT_GT(shard.at("windows").as_int(), 0);
    EXPECT_GE(shard.at("calendar_peak").as_int(), 0);
  }
  EXPECT_EQ(sent, replayed) << "mailbox sends and replays must balance";
  EXPECT_GT(sent, 0) << "SK(4,3,2) over 4 shards must cross shards";
}

TEST(RuntimeStats, WorkloadModeKeepsMetricsAndMailboxInvariants) {
  const workload::Trace trace = record_small_trace();
  ScratchDir scratch("workload");
  for (const sim::Engine engine :
       {sim::Engine::kSharded, sim::Engine::kAsyncSharded}) {
    SCOPED_TRACE(sim::engine_name(engine));
    const sim::RunMetrics off = run_workload(engine, 3, trace, nullptr);
    const std::filesystem::path path =
        scratch.path() / (std::string(sim::engine_name(engine)) + ".jsonl");
    obs::RuntimeStatsConfig config;
    config.path = path.string();
    const auto session = obs::RuntimeStats::create(config);
    const sim::RunMetrics on = run_workload(engine, 3, trace, session);
    expect_identical(off, on);
    session->finish();
    session->close();

    const RuntimeRows rows = parse_runtime(path);
    ASSERT_EQ(rows.shard.size(), 3u);
    std::int64_t sent = 0;
    std::int64_t replayed = 0;
    for (const core::Json& shard : rows.shard) {
      EXPECT_EQ(shard.at("mode").as_string(), "workload");
      sent += shard.at("mailbox_msgs_sent").as_int();
      replayed += shard.at("mailbox_msgs_replayed").as_int();
    }
    EXPECT_EQ(sent, replayed);
  }
}

TEST(RuntimeStats, SharedWriterTagsEachSessionsRows) {
  ScratchDir scratch("shared");
  const std::filesystem::path path = scratch.path() / "runtime.jsonl";
  const auto writer =
      std::make_shared<obs::RuntimeStatsWriter>(path.string());
  for (const std::string label : {"cell-a", "cell-b"}) {
    const auto session = obs::RuntimeStats::attach(writer, label);
    EXPECT_TRUE(session->active());
    run_sk(sim::Engine::kSharded, 2, nullptr, session);
    session->finish();
  }
  writer->close();

  const RuntimeRows rows = parse_runtime(path);
  EXPECT_EQ(rows.schema.size(), 2u);  // one per session label
  ASSERT_EQ(rows.shard.size(), 4u);
  EXPECT_EQ(rows.cell_summary.size(), 2u);
  EXPECT_EQ(rows.shard[0].at("cell").as_string(), "cell-a");
  EXPECT_EQ(rows.shard[2].at("cell").as_string(), "cell-b");
}

TEST(RuntimeStats, PoolWorkerCountersAddUp) {
  constexpr int kWorkers = 3;
  constexpr std::size_t kItems = 64;
  core::WorkStealingPool pool(kWorkers);
  pool.enable_stats();
  std::atomic<std::int64_t> sink{0};
  pool.run(kItems, [&](std::size_t item) {
    // Enough work per item that busy time is visible next to the
    // bookkeeping around it.
    std::int64_t acc = 0;
    for (std::int64_t i = 0; i < 20'000; ++i) {
      acc += static_cast<std::int64_t>(item) ^ i;
    }
    sink.fetch_add(acc, std::memory_order_relaxed);
  });

  const std::vector<core::WorkStealingPool::WorkerStats> stats =
      pool.stats();
  ASSERT_EQ(stats.size(), static_cast<std::size_t>(kWorkers));
  const std::int64_t wall = pool.stats_wall_ns();
  EXPECT_GT(wall, 0);
  std::int64_t items = 0;
  std::int64_t busy = 0;
  for (const core::WorkStealingPool::WorkerStats& w : stats) {
    items += w.items;
    busy += w.busy_ns;
    EXPECT_GE(w.busy_ns, 0);
    EXPECT_GE(w.idle_ns, 0);
    EXPECT_GE(w.steal_ns, 0);
    EXPECT_LE(w.steals, w.items) << "a steal is an executed item";
    // busy + idle + steal is measured against the pool's lifetime;
    // uncovered slivers (mutex handoffs) only make the sum smaller.
    EXPECT_LE(w.busy_ns + w.idle_ns + w.steal_ns, wall + wall / 2);
  }
  EXPECT_EQ(items, static_cast<std::int64_t>(kItems))
      << "every item executes exactly once";
  EXPECT_GT(busy, 0);

  // Stats stay monotone across batches on the same pool.
  pool.run(kItems, [&](std::size_t) {});
  std::int64_t items_after = 0;
  for (const core::WorkStealingPool::WorkerStats& w : pool.stats()) {
    items_after += w.items;
  }
  EXPECT_EQ(items_after, static_cast<std::int64_t>(2 * kItems));
}

TEST(RuntimeStats, StatsDisabledPoolCountsNothing) {
  core::WorkStealingPool pool(2);
  pool.run(16, [](std::size_t) {});
  for (const core::WorkStealingPool::WorkerStats& w : pool.stats()) {
    EXPECT_EQ(w.items, 0);
    EXPECT_EQ(w.busy_ns, 0);
    EXPECT_EQ(w.idle_ns, 0);
  }
}

}  // namespace
