// Tests for the obs telemetry subsystem:
//  - EngineSample arithmetic: occupancy bucketing over the fixed bounds
//    and the order-independent shard fold (+=);
//  - attaching telemetry never changes RunMetrics: bit-parity against
//    the untelemetered run on the phased, sharded, and async engines,
//    with and without sampling, in windowed and workload modes;
//  - thread-count invariance of the sampled artifacts: the sharded
//    engine's timeseries JSONL is byte-identical and the merged probe
//    values identical for every worker count;
//  - probe totals equal the RunMetrics they mirror;
//  - Chrome-trace output is well-formed JSON whose spans strictly nest
//    per track (round-tripped through core::Json), and a sink destroyed
//    unclosed prints a failed write to stderr;
//  - serial runs (phased open loop, phased and async workloads) and the
//    multi-shard slot-aligned runs emit exactly the timeseries bytes and
//    metrics frozen as FNV-1a-64 digests, so a refactor of the run loop
//    cannot move them;
//  - config validation: unknown probe names are rejected, and so is
//    telemetry on the probe-less event-queue reference.

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "collectives/stack_kautz_collectives.hpp"
#include "core/blob.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "hypergraph/stack_kautz.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_sink.hpp"
#include "routing/compiled_routes.hpp"
#include "routing/stack_routing.hpp"
#include "sim/metrics.hpp"
#include "sim/ops_network.hpp"
#include "sim/reference.hpp"
#include "sim/traffic.hpp"
#include "sim/timing_model.hpp"
#include "workload/schedule_workload.hpp"
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
              ("otis_obs_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Exact equality of every metric, including the latency distribution.
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
  EXPECT_EQ(a.latency.percentile(0.95), b.latency.percentile(0.95));
}

constexpr std::int64_t kWarmup = 50;
constexpr std::int64_t kMeasure = 400;

/// One SK(4,3,2) run with an optional telemetry session attached.
sim::RunMetrics run_sk(sim::Engine engine, int threads,
                       std::shared_ptr<obs::Telemetry> telemetry,
                       std::uint64_t seed = 42) {
  hypergraph::StackKautz sk(4, 3, 2);
  sim::SimConfig config;
  config.warmup_slots = kWarmup;
  config.measure_slots = kMeasure;
  config.seed = seed;
  config.engine = engine;
  config.threads = threads;
  config.telemetry = std::move(telemetry);
  sim::OpsNetworkSim sim(
      sk.stack(),
      std::make_shared<const routing::CompiledRoutes>(
          routing::compile_stack_kautz_routes(sk)),
      std::make_unique<sim::UniformTraffic>(sk.processor_count(), 0.35),
      config);
  return sim.run();
}

/// A small recorded workload for run-to-completion parity checks.
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
                             std::shared_ptr<obs::Telemetry> telemetry) {
  hypergraph::StackKautz sk(4, 3, 2);
  sim::SimConfig config;
  config.warmup_slots = 0;
  config.measure_slots = 1;  // ignored: workload runs go to completion
  config.seed = 7;
  config.engine = engine;
  config.threads = threads;
  config.workload = std::make_shared<workload::TraceWorkload>(trace);
  config.telemetry = std::move(telemetry);
  sim::OpsNetworkSim sim(
      sk.stack(),
      std::make_shared<const routing::CompiledRoutes>(
          routing::compile_stack_kautz_routes(sk)),
      std::make_unique<sim::UniformTraffic>(sk.processor_count(), 0.0),
      config);
  return sim.run();
}

obs::TelemetryConfig sampling_config(std::int64_t period,
                                     std::string timeseries_path = "",
                                     std::string trace_path = "") {
  obs::TelemetryConfig config;
  config.sample_period = period;
  config.timeseries_path = std::move(timeseries_path);
  config.trace_path = std::move(trace_path);
  return config;
}

TEST(EngineSample, OccupancyBucketsFollowTheFixedBounds) {
  // Bucket i counts couplers holding at most kOccupancyBounds[i]
  // packets: each bound lands in its own bucket, one more in the next,
  // and everything past the last bound in the overflow bucket.
  const auto& bounds = obs::EngineSample::kOccupancyBounds;
  ASSERT_EQ(bounds,
            (std::array<std::int64_t, 8>{0, 1, 2, 4, 8, 16, 32, 64}));
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    SCOPED_TRACE(bounds[i]);
    obs::EngineSample at;
    at.observe_occupancy(bounds[i]);
    obs::EngineSample expected;
    expected.occupancy[i] = 1;
    EXPECT_EQ(at, expected);

    obs::EngineSample above;
    above.observe_occupancy(bounds[i] + 1);
    expected.occupancy[i] = 0;
    expected.occupancy[i + 1] = 1;
    EXPECT_EQ(above, expected);
  }
  obs::EngineSample overflow;
  overflow.observe_occupancy(65);
  overflow.observe_occupancy(1'000'000);
  obs::EngineSample expected;
  expected.occupancy.back() = 2;
  EXPECT_EQ(overflow, expected);
}

TEST(EngineSample, FoldIsOrderIndependent) {
  // The run folds one record per shard with +=; any fold order must
  // give the same record, every field summed (gauges included).
  std::vector<obs::EngineSample> shards(3);
  for (std::int64_t s = 0; s < 3; ++s) {
    obs::EngineSample& shard = shards[static_cast<std::size_t>(s)];
    shard = {.offered = 10 + s,
             .delivered = 20 + s,
             .transmissions = 30 + s,
             .collisions = s,
             .dropped = 2 * s,
             .backlog = 3 * s,
             .pending_events = 4 * s};
    shard.observe_occupancy(s);
  }
  const auto fold = [&](const std::vector<std::size_t>& order) {
    obs::EngineSample merged;
    for (const std::size_t s : order) {
      merged += shards[s];
    }
    return merged;
  };
  obs::EngineSample expected{.offered = 33,
                             .delivered = 63,
                             .transmissions = 93,
                             .collisions = 3,
                             .dropped = 6,
                             .backlog = 9,
                             .pending_events = 12};
  expected.occupancy = {1, 1, 1, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(fold({0, 1, 2}), expected);
  EXPECT_EQ(fold({2, 1, 0}), expected);
  EXPECT_EQ(fold({1, 2, 0}), expected);
}

TEST(TelemetryConfig, RejectsUnknownProbeNames) {
  obs::TelemetryConfig config = sampling_config(16);
  config.probes = {"delivered", "bogus_probe"};
  EXPECT_THROW(obs::Telemetry::create(config), core::Error);
}

TEST(TelemetryConfig, EventQueueReferenceRejectsTelemetry) {
  // The seed's loop has no probe points; attaching telemetry to it
  // must fail loudly rather than silently record nothing.
  hypergraph::StackKautz sk(4, 3, 2);
  routing::StackKautzRouter router(sk);
  sim::RoutingHooks hooks;
  hooks.next_coupler = [&](hypergraph::Node c, hypergraph::Node d) {
    return router.next_coupler(c, d);
  };
  hooks.relay_on = [&](hypergraph::HyperarcId h, hypergraph::Node d) {
    return router.relay_on(h, d);
  };
  sim::SimConfig config;
  config.warmup_slots = kWarmup;
  config.measure_slots = kMeasure;
  config.telemetry = obs::Telemetry::create(sampling_config(16));
  sim::UniformTraffic traffic(sk.processor_count(), 0.35);
  EXPECT_THROW((void)sim::run_reference(sk.stack(), hooks, traffic, config),
               core::Error);
}

TEST(Telemetry, AttachedButDisabledIsMetricsExact) {
  const sim::RunMetrics off = run_sk(sim::Engine::kPhased, 1, nullptr);
  const sim::RunMetrics on =
      run_sk(sim::Engine::kPhased, 1, obs::Telemetry::create({}));
  expect_identical(off, on);
}

TEST(Telemetry, SamplingPreservesMetricsAndMirrorsThemInProbes) {
  const sim::RunMetrics off = run_sk(sim::Engine::kPhased, 1, nullptr);
  const auto tel = obs::Telemetry::create(sampling_config(64));
  const sim::RunMetrics on = run_sk(sim::Engine::kPhased, 1, tel);
  expect_identical(off, on);

  // End-of-run probe totals mirror the RunMetrics fields exactly.
  const obs::EngineSample& probes = tel->probes();
  EXPECT_EQ(probes.offered, on.offered_packets);
  EXPECT_EQ(probes.delivered, on.delivered_packets);
  EXPECT_EQ(probes.transmissions, on.coupler_transmissions);
  EXPECT_EQ(probes.collisions, on.collisions);
  EXPECT_EQ(probes.dropped, on.dropped_packets);
  EXPECT_EQ(probes.backlog, on.backlog);

  // One schema header, one row per full period, and the final partial
  // window.
  const std::int64_t horizon = kWarmup + kMeasure;
  const std::int64_t expected_rows =
      1 + horizon / 64 + (horizon % 64 != 0 ? 1 : 0);
  EXPECT_EQ(tel->rows_sampled(), expected_rows);
}

TEST(Telemetry, ShardedSamplingIsThreadCountInvariantToTheByte) {
  ScratchDir scratch("sharded");
  const sim::RunMetrics off = run_sk(sim::Engine::kSharded, 1, nullptr);

  std::string reference_bytes;
  obs::EngineSample reference_probes;
  for (const int threads : {1, 2, 5, 8}) {
    SCOPED_TRACE(threads);
    const std::filesystem::path path =
        scratch.path() / ("ts_" + std::to_string(threads) + ".jsonl");
    const auto tel = obs::Telemetry::create(sampling_config(64, path));
    const sim::RunMetrics on = run_sk(sim::Engine::kSharded, threads, tel);
    expect_identical(off, on);

    const obs::EngineSample probes = tel->probes();
    tel->close();
    const std::string bytes = read_file(path);
    EXPECT_GT(bytes.size(), 0u);
    if (reference_bytes.empty()) {
      reference_bytes = bytes;
      reference_probes = probes;
    } else {
      EXPECT_EQ(bytes, reference_bytes)
          << "timeseries bytes must not depend on the worker count";
      EXPECT_EQ(probes, reference_probes);
    }
  }
}

TEST(Telemetry, AsyncEngineSamplesWithoutChangingMetrics) {
  const sim::RunMetrics off = run_sk(sim::Engine::kAsync, 1, nullptr);
  const auto tel = obs::Telemetry::create(sampling_config(32));
  const sim::RunMetrics on = run_sk(sim::Engine::kAsync, 1, tel);
  expect_identical(off, on);
  EXPECT_GT(tel->rows_sampled(), 0);
  // The calendar queue drains before the run returns.
  EXPECT_EQ(tel->probes().pending_events, 0);
}

TEST(Telemetry, WorkloadRunsAreMetricsExactWithSampling) {
  const workload::Trace trace = record_small_trace();
  for (const sim::Engine engine :
       {sim::Engine::kPhased, sim::Engine::kAsync}) {
    SCOPED_TRACE(sim::engine_name(engine));
    const sim::RunMetrics off = run_workload(engine, 1, trace, nullptr);
    const sim::RunMetrics on = run_workload(
        engine, 1, trace, obs::Telemetry::create(sampling_config(16)));
    expect_identical(off, on);
  }
  const sim::RunMetrics one = run_workload(
      sim::Engine::kSharded, 1, trace,
      obs::Telemetry::create(sampling_config(16)));
  for (const int threads : {2, 5, 8}) {
    SCOPED_TRACE(threads);
    const sim::RunMetrics many = run_workload(
        sim::Engine::kSharded, threads, trace,
        obs::Telemetry::create(sampling_config(16)));
    expect_identical(one, many);
  }
}

TEST(Telemetry, ChromeTraceIsWellFormedAndSpansNestPerTrack) {
  ScratchDir scratch("trace");
  const std::filesystem::path path = scratch.path() / "run.trace.json";
  const auto tel =
      obs::Telemetry::create(sampling_config(0, "", path.string()));
  run_sk(sim::Engine::kPhased, 1, tel);
  tel->close();

  // Round-trip through the JSON parser: structure, required fields,
  // and strict per-track nesting (events arrive sorted by start time).
  const core::Json doc = core::Json::parse_file(path.string());
  const std::vector<core::Json>& events = doc.at("traceEvents").items();
  ASSERT_GE(events.size(), 3u);  // sim.run + warmup + measure
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      stacks;  // tid -> open [start, end) spans
  std::vector<std::string> names;
  for (const core::Json& event : events) {
    EXPECT_EQ(event.at("ph").as_string(), "X");
    EXPECT_EQ(event.at("pid").as_int(), 0);
    const std::int64_t ts = event.at("ts").as_int();
    const std::int64_t dur = event.at("dur").as_int();
    EXPECT_GE(ts, 0);
    EXPECT_GE(dur, 0);
    names.push_back(event.at("name").as_string());
    auto& stack = stacks[event.at("tid").as_int()];
    while (!stack.empty() && stack.back().second <= ts) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      // A span overlapping an open one must lie fully inside it.
      EXPECT_GE(ts, stack.back().first);
      EXPECT_LE(ts + dur, stack.back().second);
    }
    stack.emplace_back(ts, ts + dur);
  }
  const auto has = [&](const std::string& name) {
    for (const std::string& n : names) {
      if (n == name) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has("sim.run"));
  EXPECT_TRUE(has("warmup"));
  EXPECT_TRUE(has("measure"));
}

TEST(Telemetry, ChromeTraceSinkDestructorPrintsAFailedWrite) {
  // A destructor must not throw: a sink destroyed without close()
  // prints its write error, naming the file, to stderr.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  testing::internal::CaptureStderr();
  {
    obs::ChromeTraceSink sink("/dev/full");
    obs::Span(&sink, 0, "doomed", "test").end();
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("write to \"/dev/full\" failed"), std::string::npos)
      << err;
}

/// FNV-1a-64 of every RunMetrics field (the latency distribution through
/// its count, mean bits, max and percentiles) plus the per-coupler
/// success counts.
std::uint64_t metrics_digest(const sim::RunMetrics& m,
                             const std::vector<std::int64_t>& successes) {
  core::BlobWriter out;
  for (const std::int64_t v :
       {m.slots, m.offered_packets, m.delivered_packets,
        m.coupler_transmissions, m.collisions, m.dropped_packets, m.backlog,
        m.makespan_slots, m.latency.count(), m.latency.max()}) {
    out.put_i64(v);
  }
  out.put_u8(m.interrupted ? 1 : 0);
  out.put_u64(std::bit_cast<std::uint64_t>(m.latency.mean()));
  for (const double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    out.put_i64(m.latency.percentile(q));
  }
  out.put_i64_vec(successes);
  return core::fnv1a64(out.bytes().data(), out.bytes().size());
}

/// One SK(4,3,2) run sampled every 16 slots into `path`; returns the
/// digests of its timeseries bytes and of its metrics.
std::pair<std::uint64_t, std::uint64_t> serial_run_digests(
    sim::SimConfig config, double load, const std::filesystem::path& path) {
  hypergraph::StackKautz sk(4, 3, 2);
  const auto tel = obs::Telemetry::create(sampling_config(16, path));
  config.telemetry = tel;
  sim::OpsNetworkSim sim(
      sk.stack(),
      std::make_shared<const routing::CompiledRoutes>(
          routing::compile_stack_kautz_routes(sk)),
      std::make_unique<sim::UniformTraffic>(sk.processor_count(), load),
      config);
  const sim::RunMetrics metrics = sim.run();
  tel->close();
  const std::string bytes = read_file(path);
  EXPECT_GT(bytes.size(), 0u);
  return {core::fnv1a64(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                        bytes.size()),
          metrics_digest(metrics, sim.coupler_successes())};
}

TEST(Telemetry, SerialRunsMatchFrozenDigests) {
  // Recorded from the serial loops before they became one-shard runs,
  // the async open-loop rows before the async loops landed a slot's
  // arrivals as one batch, and the multi-shard slot rows (sharded and
  // slot-aligned async-sharded, each at 1 and 3 shards) and the aligned
  // gossip row before the slot and calendar schedulers shared one run
  // loop; every later loop must reproduce them byte for byte.
  struct Frozen {
    const char* name;
    std::uint64_t timeseries;
    std::uint64_t metrics;
  };
  const Frozen frozen[] = {
      {"phased/token/w1", 0xc626291ccfdeb1ccULL,
       0x25f42d41d23d6b56ULL},
      {"phased/token/w2", 0x28f2e9a1ccd54eb9ULL,
       0xfc82ea2a20d63919ULL},
      {"phased/random/w1", 0xb112f4b153b04b72ULL,
       0xf438d419ffee0d4dULL},
      {"phased/random/w2", 0x62248275f15ce93fULL,
       0x81bdde4fe7d73323ULL},
      {"phased/aloha/w1", 0xc6d6dcbd6de540bdULL,
       0x1f69f8e4d001ffa8ULL},
      {"phased/aloha/w2", 0xec54bc58a4e08565ULL,
       0x5008213d08731731ULL},
      {"sharded/token/w2", 0x263606ac870b5735ULL,
       0xafe4fde5a5f5fb92ULL},
      {"sharded/random/w2", 0xddc13f77ff348cc7ULL,
       0x66dc02bcd19ae54bULL},
      {"sharded/aloha/w2", 0x661a97a40e0fe786ULL,
       0x2d4f489d8e93afe5ULL},
      {"async-sharded/token/aligned", 0x06bded690c1475d8ULL,
       0xafe4fde5a5f5fb92ULL},
      {"async-sharded/random/aligned", 0xecb5bd502d9ecbc9ULL,
       0x66dc02bcd19ae54bULL},
      {"async-sharded/aloha/aligned", 0xa2f0a784c1c2b124ULL,
       0x2d4f489d8e93afe5ULL},
      {"phased/gossip/bg0.4", 0xe2c0e2519f21e230ULL,
       0x6c2e49dcfd7e1af0ULL},
      {"async/gossip/aligned", 0x3314776c5c1be33eULL,
       0x6c2e49dcfd7e1af0ULL},
      {"async/gossip/skew", 0xc448cd58f151f572ULL,
       0x2dcca216355bb69dULL},
      {"async/token/closed", 0x69fa16c8d33fdf1ULL,
       0x5a45ca22a872ba18ULL},
      {"async/token/open", 0xcfb1b614320eb4c8ULL,
       0x56059967a48a1317ULL},
      {"async/token/level", 0x826a07da8ffe19feULL,
       0x6066191c029b8502ULL},
      {"async/random/closed", 0x17149fef9701738cULL,
       0x145ca7d49063a437ULL},
      {"async/random/open", 0xb7834f691bc647dcULL,
       0x42d2103cc30f308eULL},
      {"async/random/level", 0xb54de0b59e2998a4ULL,
       0x73acd3987767a413ULL},
      {"async/aloha/closed", 0xd67cc49bf1887864ULL,
       0x2bdd996fc724d6aULL},
      {"async/aloha/open", 0x4c0e67ebcd7b4ULL,
       0x2fae76ee9059ed1ULL},
      {"async/aloha/level", 0x147055c4e096decaULL,
       0x21a40187e10897ddULL},
      {"async-sharded/token/closed", 0x64df37faeaca0cbbULL,
       0xa91970b97464c4b8ULL},
      {"async-sharded/token/open", 0x9870089045d0a54ULL,
       0x442bd4f81ebf9a78ULL},
      {"async-sharded/token/level", 0x196e534572c29ad5ULL,
       0x1ce3f7e80223768dULL},
      {"async-sharded/random/closed", 0x6ad40f3dd57ba0aaULL,
       0x8b9f2a62852f2687ULL},
      {"async-sharded/random/open", 0x4fb89e57c42a73e9ULL,
       0xc7cd632256b6c911ULL},
      {"async-sharded/random/level", 0xa1096f3c1538b467ULL,
       0xe36703bd61b67274ULL},
      {"async-sharded/aloha/closed", 0x65076bb02f20f365ULL,
       0xaafecf1897d708e7ULL},
      {"async-sharded/aloha/open", 0x2a3854ae78354065ULL,
       0x438bbbdf258d7ba8ULL},
      {"async-sharded/aloha/level", 0xb03a53c816d697a7ULL,
       0x1af77b24c0cbd109ULL},
  };
  ScratchDir scratch("frozen");
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      got;
  for (const sim::Arbitration arbitration :
       {sim::Arbitration::kTokenRoundRobin, sim::Arbitration::kRandomWinner,
        sim::Arbitration::kSlottedAloha}) {
    for (const std::int64_t wavelengths : {1, 2}) {
      sim::SimConfig config;
      config.warmup_slots = kWarmup;
      config.measure_slots = kMeasure;
      config.seed = 42;
      config.arbitration = arbitration;
      config.wavelengths = wavelengths;
      config.queue_capacity = 3;
      config.drain = true;
      const std::string policy = sim::arbitration_name(arbitration);
      const std::string w = "w" + std::to_string(wavelengths);
      got.emplace_back("phased/" + policy + "/" + w,
                       serial_run_digests(config, 0.35,
                                          scratch.path() / (policy + w)));
    }
  }
  // The multi-shard slot path on the W = 2 config: kSharded and
  // slot-aligned kAsyncSharded at 1 and 3 shards against one value each.
  // Their metrics agree; their timeseries do not, because the async
  // rows sample with relays still in flight (pending events, not queue
  // occupancy).
  for (const sim::Engine engine :
       {sim::Engine::kSharded, sim::Engine::kAsyncSharded}) {
    for (const sim::Arbitration arbitration :
         {sim::Arbitration::kTokenRoundRobin, sim::Arbitration::kRandomWinner,
          sim::Arbitration::kSlottedAloha}) {
      sim::SimConfig config;
      config.warmup_slots = kWarmup;
      config.measure_slots = kMeasure;
      config.seed = 42;
      config.arbitration = arbitration;
      config.wavelengths = 2;
      config.queue_capacity = 3;
      config.drain = true;
      config.engine = engine;
      const std::string name =
          std::string(sim::engine_name(engine)) + "/" +
          sim::arbitration_name(arbitration) +
          (engine == sim::Engine::kSharded ? "/w2" : "/aligned");
      const std::filesystem::path base =
          scratch.path() / (std::to_string(got.size()) + "_t");
      config.threads = 1;
      const auto one = serial_run_digests(config, 0.35, base.string() + "1");
      config.threads = 3;
      EXPECT_EQ(serial_run_digests(config, 0.35, base.string() + "3"), one)
          << name << " at 3 shards";
      got.emplace_back(name, one);
    }
  }
  hypergraph::StackKautz sk(4, 3, 2);
  const auto gossip = [&] {
    return std::shared_ptr<workload::Workload>(workload::schedule_workload(
        sk.stack(), collectives::stack_kautz_gossip(sk)));
  };
  sim::SimConfig phased;
  phased.seed = 99;
  phased.workload = gossip();
  got.emplace_back("phased/gossip/bg0.4",
                   serial_run_digests(phased, 0.4,
                                      scratch.path() / "phased_gossip"));
  // Workload runs draw from the per-unit streams on every engine:
  // kSharded reproduces the phased row, and the slot-aligned async
  // engines its metrics (their timeseries sample relays in flight).
  phased.engine = sim::Engine::kSharded;
  phased.threads = 3;
  phased.workload = gossip();
  EXPECT_EQ(serial_run_digests(phased, 0.4, scratch.path() / "sharded_gossip"),
            got.back().second)
      << "sharded/gossip/bg0.4 at 3 shards";
  phased.engine = sim::Engine::kAsync;
  phased.threads = 1;
  phased.workload = gossip();
  got.emplace_back("async/gossip/aligned",
                   serial_run_digests(phased, 0.4,
                                      scratch.path() / "aligned_gossip"));
  phased.engine = sim::Engine::kAsyncSharded;
  phased.threads = 3;
  phased.workload = gossip();
  EXPECT_EQ(serial_run_digests(phased, 0.4,
                               scratch.path() / "aligned_gossip_t3"),
            got.back().second)
      << "async-sharded/gossip/aligned at 3 shards";
  sim::SimConfig async;
  async.seed = 99;
  async.engine = sim::Engine::kAsync;
  async.workload = gossip();
  async.timing.profile = sim::SkewProfile::kConstant;
  async.timing.tuning_ticks = 256;
  async.timing.propagation_ticks = 3 * sim::kTicksPerSlot;
  async.timing.guard_ticks = 64;
  got.emplace_back("async/gossip/skew",
                   serial_run_digests(async, 0.4,
                                      scratch.path() / "async_gossip"));
  // kAsyncSharded workload runs reproduce the row at 1 and 3 shards.
  async.engine = sim::Engine::kAsyncSharded;
  for (const int threads : {1, 3}) {
    async.threads = threads;
    async.workload = gossip();
    EXPECT_EQ(serial_run_digests(async, 0.4,
                                 scratch.path() /
                                     ("async_sharded_gossip_t" +
                                      std::to_string(threads))),
              got.back().second)
        << "async-sharded/gossip/skew at " << threads << " shards";
  }

  // The async open loops under skew: gates closed (tuning, guard and a
  // 3-slot lookahead), gates open (2-slot propagation only) and the
  // level profile at W = 2. kAsyncSharded runs at 1 and 3 shards
  // against one value.
  struct Skew {
    const char* name;
    sim::TimingConfig timing;
    std::int64_t wavelengths;
  };
  const auto timing = [](sim::SkewProfile profile, sim::SimTime tuning,
                         sim::SimTime propagation, sim::SimTime level,
                         sim::SimTime guard) {
    sim::TimingConfig t;
    t.profile = profile;
    t.tuning_ticks = tuning;
    t.propagation_ticks = propagation;
    t.level_skew_ticks = level;
    t.guard_ticks = guard;
    return t;
  };
  const Skew skews[] = {
      {"closed",
       timing(sim::SkewProfile::kConstant, 256, 3 * sim::kTicksPerSlot + 200,
              0, 64),
       1},
      {"open",
       timing(sim::SkewProfile::kConstant, 0, 2 * sim::kTicksPerSlot, 0, 0),
       1},
      {"level",
       timing(sim::SkewProfile::kPerLevel, 128, sim::kTicksPerSlot + 100,
              300, 0),
       2},
  };
  for (const sim::Engine engine :
       {sim::Engine::kAsync, sim::Engine::kAsyncSharded}) {
    for (const sim::Arbitration arbitration :
         {sim::Arbitration::kTokenRoundRobin, sim::Arbitration::kRandomWinner,
          sim::Arbitration::kSlottedAloha}) {
      for (const Skew& skew : skews) {
        sim::SimConfig config;
        config.warmup_slots = kWarmup;
        config.measure_slots = kMeasure;
        config.seed = 7;
        config.engine = engine;
        config.arbitration = arbitration;
        config.wavelengths = skew.wavelengths;
        config.queue_capacity = 3;
        config.drain = true;
        config.timing = skew.timing;
        const std::string name = std::string(sim::engine_name(engine)) +
                                 "/" + sim::arbitration_name(arbitration) +
                                 "/" + skew.name;
        const std::filesystem::path base =
            scratch.path() / (std::to_string(got.size()) + "_t");
        config.threads = 1;
        const auto one =
            serial_run_digests(config, 0.35, base.string() + "1");
        if (engine == sim::Engine::kAsyncSharded) {
          config.threads = 3;
          EXPECT_EQ(serial_run_digests(config, 0.35, base.string() + "3"),
                    one)
              << name << " at 3 shards";
        }
        got.emplace_back(name, one);
      }
    }
  }

  ASSERT_EQ(got.size(), std::size(frozen));
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(got[i].first);
    EXPECT_EQ(got[i].first, frozen[i].name);
    std::ostringstream actual;
    actual << std::hex << "timeseries 0x" << got[i].second.first
           << ", metrics 0x" << got[i].second.second;
    EXPECT_EQ(got[i].second.first, frozen[i].timeseries) << actual.str();
    EXPECT_EQ(got[i].second.second, frozen[i].metrics) << actual.str();
  }
}

}  // namespace
