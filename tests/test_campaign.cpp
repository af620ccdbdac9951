// Tests for the campaign subsystem: grid expansion, spec parsing, the
// one-compile-per-topology contract, thread-count invariance of the
// emitted JSONL/CSV streams, and resume-from-manifest. The big spec used
// below is the ISSUE acceptance grid -- >= 100 cells across SK(4,3,2),
// POPS(6,12) and SII(4,2,12) -- with a short measurement window so the
// whole file stays fast.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/grid.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "workload/trace.hpp"

namespace {

using namespace otis;
using campaign::CampaignOptions;
using campaign::CampaignRunner;
using campaign::CampaignSpec;
using campaign::TopologySpec;

/// The ISSUE acceptance grid: 3 topologies x 1 arbitration x 5 loads x
/// 2 wavelengths x 4 seeds = 120 cells, tiny windows.
CampaignSpec acceptance_spec() {
  CampaignSpec spec;
  spec.name = "acceptance";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2),
                     TopologySpec::pops(6, 12),
                     TopologySpec::stack_imase_itoh(4, 2, 12)};
  spec.loads = {0.1, 0.3, 0.5, 0.7, 0.9};
  spec.wavelengths = {1, 2};
  spec.seeds = {1, 2, 3, 4};
  spec.warmup_slots = 10;
  spec.measure_slots = 40;
  return spec;
}

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
              ("otis_campaign_" + tag + "_" +
               std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(CampaignGrid, ExpansionCountsAndOrder) {
  const CampaignSpec spec = acceptance_spec();
  EXPECT_EQ(spec.cell_count(), 3 * 5 * 2 * 4);

  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 120u);

  std::set<std::string> ids;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<std::int64_t>(i));
    ids.insert(cells[i].id);
  }
  EXPECT_EQ(ids.size(), cells.size()) << "cell IDs must be unique";

  // Nesting order: seeds innermost, then wavelengths, loads, topology.
  EXPECT_EQ(cells[0].seed, 1u);
  EXPECT_EQ(cells[1].seed, 2u);
  EXPECT_EQ(cells[0].wavelengths, 1);
  EXPECT_EQ(cells[4].wavelengths, 2);
  EXPECT_DOUBLE_EQ(cells[0].load, 0.1);
  EXPECT_DOUBLE_EQ(cells[8].load, 0.3);
  EXPECT_EQ(cells[0].topology, 0u);
  EXPECT_EQ(cells[40].topology, 1u);
  EXPECT_EQ(cells[80].topology, 2u);

  EXPECT_EQ(cells[0].id,
            "SK(4,3,2)|token|uniform|load=0.100000|w=1|routes=auto|timing=none|"
            "workload=none|seed=1");

  // Axis values that collide in the ID's 6-decimal load form are
  // refused (a silent collision would make resume drop cells).
  CampaignSpec colliding = spec;
  colliding.loads = {0.1, 0.1000000001};
  EXPECT_THROW(campaign::expand_grid(colliding), core::Error);
}

TEST(CampaignSpecJson, ParsesFullSchema) {
  const std::string json = R"({
    "name": "parse-test",
    "topologies": [
      {"kind": "stack_kautz", "s": 6, "d": 3, "k": 2},
      {"kind": "pops", "t": 6, "g": 12},
      {"kind": "stack_imase_itoh", "s": 4, "d": 2, "n": 12}
    ],
    "arbitrations": ["token", "random", "aloha"],
    "traffic": "saturation",
    "loads": [1.0],
    "wavelengths": [1, 4],
    "seeds": [7, 8],
    "warmup_slots": 50,
    "measure_slots": 200,
    "queue_capacity": 16,
    "engine": "sharded",
    "engine_threads": 2,
    "latency_stats": "sketch",
    "checkpoint_every": 500
  })";
  const CampaignSpec spec = campaign::parse_campaign_spec(json);
  EXPECT_EQ(spec.name, "parse-test");
  ASSERT_EQ(spec.topologies.size(), 3u);
  EXPECT_EQ(spec.topologies[0].label(), "SK(6,3,2)");
  EXPECT_EQ(spec.topologies[1].label(), "POPS(6,12)");
  EXPECT_EQ(spec.topologies[2].label(), "SII(4,2,12)");
  EXPECT_EQ(spec.arbitrations.size(), 3u);
  EXPECT_EQ(spec.traffics,
            (std::vector<campaign::TrafficSpec>{
                campaign::TrafficKind::kSaturation}));
  EXPECT_EQ(spec.wavelengths, (std::vector<std::int64_t>{1, 4}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(spec.warmup_slots, 50);
  EXPECT_EQ(spec.measure_slots, 200);
  EXPECT_EQ(spec.queue_capacity, 16);
  EXPECT_EQ(spec.engine, sim::Engine::kSharded);
  EXPECT_EQ(spec.engine_threads, 2);
  EXPECT_EQ(spec.latency_stats, sim::LatencyMode::kSketch);
  EXPECT_EQ(spec.checkpoint_every, 500);
  EXPECT_EQ(spec.cell_count(), 3 * 3 * 1 * 2 * 2);
}

TEST(CampaignSpecJson, DefaultsAndErrors) {
  const CampaignSpec spec = campaign::parse_campaign_spec(
      R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}]})");
  EXPECT_EQ(spec.arbitrations.size(), 1u);
  EXPECT_EQ(spec.traffics,
            (std::vector<campaign::TrafficSpec>{
                campaign::TrafficKind::kUniform}));
  EXPECT_EQ(spec.route_tables,
            (std::vector<sim::RouteTable>{sim::RouteTable::kAuto}));
  EXPECT_EQ(spec.engine, sim::Engine::kPhased);

  EXPECT_THROW(campaign::parse_campaign_spec("{}"), core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"({"topologies": [{"kind": "ring", "n": 4}]})"),
               core::Error);
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
              "arbitrations": ["coin-flip"]})"),
      core::Error);
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
              "loads": []})"),
      core::Error);
  // Misspelled keys fail loudly instead of silently running defaults.
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
              "measure_slot": 100000})"),
      core::Error);
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"({"topologies": [{"kind": "pops", "t": 2, "g": 3, "s": 4}]})"),
      core::Error);
  // Slot windows past kMaxRunSlots, or past int64 itself, fail; the
  // edge parses.
  const auto window = [](std::int64_t warmup, std::int64_t measure) {
    return R"json({"topologies": [{"kind": "pops", "t": 2, "g": 2}],
                   "warmup_slots": )json" +
           std::to_string(warmup) +
           ", \"measure_slots\": " + std::to_string(measure) + "}";
  };
  EXPECT_NO_THROW(
      campaign::parse_campaign_spec(window(sim::kMaxRunSlots - 20, 20)));
  EXPECT_THROW(
      campaign::parse_campaign_spec(window(sim::kMaxRunSlots - 19, 20)),
      core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(window(0, sim::kMaxRunSlots + 1)),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(window(9223372036854775000, 20)),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 2}],
                           "warmup_slots": 1e19})json"),
               core::Error);
  // Integers parse exactly: a seed above 2^53 stays itself, 2^60 + 1
  // ticks is past kMaxDelayTicks rather than rounded onto it, and an
  // exponent form that a double cannot hold exactly fails.
  EXPECT_EQ(campaign::parse_campaign_spec(
                R"json({"topologies": [{"kind": "pops", "t": 2, "g": 2}],
                        "seeds": [9007199254740993]})json")
                .seeds,
            std::vector<std::uint64_t>{9007199254740993ULL});
  EXPECT_THROW(
      campaign::parse_campaign_spec(
          R"json({"topologies": [{"kind": "pops", "t": 2, "g": 2}],
                  "timings": [{"profile": "const",
                               "propagation": 1152921504606846977}]})json"),
      core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 2}],
                           "warmup_slots": 9.007199254740993e15})json"),
               core::Error);
  // engine_threads must fit in int, at top level and in overrides.
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 2}],
                           "engine_threads": 4294967298})json"),
               core::Error);
  const auto override_threads = [](const std::string& threads) {
    return R"json({"topologies": [{"kind": "pops", "t": 2, "g": 2}],
                   "overrides": [{"topology": "POPS(2,2)",
                                  "engine_threads": )json" +
           threads + "}]}";
  };
  EXPECT_EQ(campaign::parse_campaign_spec(override_threads("3"))
                .overrides.at(0)
                .engine_threads,
            3);
  EXPECT_THROW(campaign::parse_campaign_spec(override_threads("4294967298")),
               core::Error);
  EXPECT_EQ(campaign::parse_campaign_spec(
                R"json({"topologies": [{"kind": "pops", "t": 2, "g": 2}],
                        "engine_threads": 2147483647})json")
                .engine_threads,
            2147483647);
}

TEST(CampaignRunnerTest, OneCompilePerTopology) {
  CampaignSpec spec = acceptance_spec();
  campaign::reset_topology_compile_count();

  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  CampaignOptions options;
  options.threads = 4;
  const campaign::CampaignReport report = runner.run(options);

  EXPECT_EQ(report.total_cells, 120);
  EXPECT_EQ(report.completed_cells, 120);
  EXPECT_EQ(report.skipped_cells, 0);
  EXPECT_EQ(report.topologies_compiled, 3);
  EXPECT_EQ(campaign::topology_compile_count(), 3)
      << "120 cells over 3 topologies must compile exactly 3 route tables";

  // 3 topologies x 5 loads x 2 wavelengths groups, each folding 4 seeds.
  EXPECT_EQ(aggregate->groups().size(), 30u);
  for (const campaign::AggregateSink::Group& group : aggregate->groups()) {
    EXPECT_EQ(group.point.trials, 4);
    EXPECT_GE(group.point.throughput_stddev, 0.0);
  }
}

TEST(CampaignRunnerTest, JsonlBitIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = acceptance_spec();
  ScratchDir dir1("t1");
  ScratchDir dir8("t8");

  CampaignOptions options1;
  options1.threads = 1;
  options1.out_dir = dir1.path().string();
  CampaignRunner(spec).run(options1);

  CampaignOptions options8;
  options8.threads = 8;
  options8.out_dir = dir8.path().string();
  CampaignRunner(spec).run(options8);

  const std::string jsonl1 =
      read_file(dir1.path() / CampaignRunner::kJsonlFile);
  const std::string jsonl8 =
      read_file(dir8.path() / CampaignRunner::kJsonlFile);
  ASSERT_FALSE(jsonl1.empty());
  EXPECT_EQ(jsonl1, jsonl8) << "JSONL must be bit-identical for any "
                               "--threads value";
  EXPECT_EQ(read_file(dir1.path() / CampaignRunner::kCsvFile),
            read_file(dir8.path() / CampaignRunner::kCsvFile));

  // Every line is valid JSON with the cell's ID first.
  std::istringstream lines(jsonl1);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const core::Json row = core::Json::parse(line);
    EXPECT_TRUE(row.is_object());
    EXPECT_FALSE(row.at("cell_id").as_string().empty());
    ++count;
  }
  EXPECT_EQ(count, 120u);
}

TEST(CampaignRunnerTest, ResumeSkipsCompletedCells) {
  const CampaignSpec spec = acceptance_spec();

  // Reference: one uninterrupted run.
  ScratchDir full("full");
  CampaignOptions full_options;
  full_options.threads = 4;
  full_options.out_dir = full.path().string();
  CampaignRunner(spec).run(full_options);
  const std::string full_jsonl =
      read_file(full.path() / CampaignRunner::kJsonlFile);
  const std::string full_manifest =
      read_file(full.path() / CampaignRunner::kManifestFile);

  // Simulated interrupt: keep the first 30 cells' rows + manifest lines.
  ScratchDir part("part");
  constexpr std::size_t kDone = 30;
  auto truncate_lines = [](const std::string& text, std::size_t lines) {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < lines && pos != std::string::npos; ++i) {
      pos = text.find('\n', pos);
      if (pos != std::string::npos) {
        ++pos;
      }
    }
    return text.substr(0, pos);
  };
  std::ofstream(part.path() / CampaignRunner::kJsonlFile)
      << truncate_lines(full_jsonl, kDone);
  std::ofstream(part.path() / CampaignRunner::kManifestFile)
      << truncate_lines(full_manifest, kDone);
  // CSV: header + first kDone rows.
  std::ofstream(part.path() / CampaignRunner::kCsvFile) << truncate_lines(
      read_file(full.path() / CampaignRunner::kCsvFile), kDone + 1);

  campaign::reset_topology_compile_count();
  CampaignOptions resume_options;
  resume_options.threads = 4;
  resume_options.out_dir = part.path().string();
  resume_options.resume = true;
  const campaign::CampaignReport report =
      CampaignRunner(spec).run(resume_options);

  EXPECT_EQ(report.skipped_cells, static_cast<std::int64_t>(kDone));
  EXPECT_EQ(report.completed_cells,
            static_cast<std::int64_t>(120 - kDone));
  // 30 done cells cover only the first topology's first 30 of 40 cells,
  // so all 3 topologies still have pending work.
  EXPECT_EQ(campaign::topology_compile_count(), 3);

  // After resume the output files equal the uninterrupted run's, byte
  // for byte.
  EXPECT_EQ(read_file(part.path() / CampaignRunner::kJsonlFile),
            full_jsonl);
  EXPECT_EQ(read_file(part.path() / CampaignRunner::kManifestFile),
            full_manifest);
  EXPECT_EQ(read_file(part.path() / CampaignRunner::kCsvFile),
            read_file(full.path() / CampaignRunner::kCsvFile));

  // Resuming a finished campaign is a no-op.
  const campaign::CampaignReport again =
      CampaignRunner(spec).run(resume_options);
  EXPECT_EQ(again.skipped_cells, 120);
  EXPECT_EQ(again.completed_cells, 0);
  EXPECT_EQ(read_file(part.path() / CampaignRunner::kJsonlFile),
            full_jsonl);
}

// An output that cannot be written fails the campaign instead of
// losing its rows: each of the runner's six outputs in turn is a
// symlink to /dev/full, where every write fails, and the run must throw
// an error naming it. Emission stops at the failed cell, so no row
// reaches results.jsonl twice. campaign_runner's end-of-run aggregate
// CSV must fail the same way.
TEST(CampaignRunnerTest, UnwritableOutputFailsTheRun) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  CampaignSpec spec;
  spec.name = "unwritable";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.3};
  spec.seeds = {1, 2, 3};
  spec.warmup_slots = 10;
  spec.measure_slots = 40;
  spec.telemetry.sample_period = 16;
  spec.telemetry.timeseries_path = "timeseries.jsonl";
  spec.telemetry.trace_path = "campaign.trace.json";
  spec.runtime_stats_path = "runtime.jsonl";
  for (const std::string file :
       {CampaignRunner::kJsonlFile, CampaignRunner::kCsvFile,
        CampaignRunner::kManifestFile, "timeseries.jsonl",
        "campaign.trace.json", "runtime.jsonl"}) {
    SCOPED_TRACE(file);
    ScratchDir dir("unwritable");
    std::filesystem::create_symlink("/dev/full", dir.path() / file);
    CampaignOptions options;
    options.threads = 1;  // cells complete in order, each after a failure
    options.out_dir = dir.path().string();
    try {
      CampaignRunner(spec).run(options);
      ADD_FAILURE() << "the run did not fail";
    } catch (const core::Error& error) {
      EXPECT_NE(std::string(error.what()).find(file), std::string::npos)
          << error.what();
    }
    if (file != CampaignRunner::kJsonlFile) {
      std::set<std::string> ids;
      std::istringstream rows(
          read_file(dir.path() / CampaignRunner::kJsonlFile));
      for (std::string row; std::getline(rows, row);) {
        EXPECT_TRUE(
            ids.insert(core::Json::parse(row).at("cell_id").as_string())
                .second)
            << "row written twice: " << row;
      }
    }
  }
  const campaign::AggregateSink aggregate;
  EXPECT_THROW(aggregate.write_csv("/dev/full"), core::Error);
}

/// Every regular file under `dir`, by relative path, with its bytes.
std::map<std::string, std::string> snapshot(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[std::filesystem::relative(entry.path(), dir).string()] =
          read_file(entry.path());
    }
  }
  return files;
}

TEST(CampaignRunnerTest, LockedOutputDirectoryFailsTheRun) {
  // Another runner holds the directory: its lock is taken here through
  // a separate open file description of the lock file. Plain and
  // --resume runs must fail naming the directory, before they cut,
  // truncate or append to any file there; once the lock is released
  // the run succeeds.
  CampaignSpec spec;
  spec.name = "locked";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.3};
  spec.seeds = {1, 2, 3};
  spec.warmup_slots = 10;
  spec.measure_slots = 40;
  spec.checkpoint_every = 16;
  spec.telemetry.sample_period = 16;
  spec.telemetry.timeseries_path = "timeseries.jsonl";
  ScratchDir dir("locked");
  // An earlier run's leftovers, torn timeseries line included.
  std::filesystem::create_directories(dir.path() / "checkpoints");
  for (const auto& [file, bytes] :
       std::map<std::string, std::string>{
           {CampaignRunner::kJsonlFile, "{\"cell_id\": \"earlier\"}\n"},
           {CampaignRunner::kCsvFile, "cell_id\nearlier\n"},
           {CampaignRunner::kManifestFile, "earlier\n"},
           {"timeseries.jsonl", "{\"cell\": \"earlier\"}\n{\"cut"},
           {"checkpoints/cell-0.ckpt", "not a blob"}}) {
    std::ofstream(dir.path() / file, std::ios::binary) << bytes;
  }
  const std::string lock_path =
      (dir.path() / CampaignRunner::kLockFile).string();
  const int held = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(held, 0);
  ASSERT_EQ(::flock(held, LOCK_EX | LOCK_NB), 0);
  const std::map<std::string, std::string> before = snapshot(dir.path());

  CampaignOptions options;
  options.threads = 2;
  options.out_dir = dir.path().string();
  for (const bool resume : {false, true}) {
    SCOPED_TRACE(resume ? "--resume" : "fresh");
    options.resume = resume;
    try {
      CampaignRunner(spec).run(options);
      ADD_FAILURE() << "the run did not fail";
    } catch (const core::Error& error) {
      EXPECT_NE(std::string(error.what()).find(dir.path().string()),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(snapshot(dir.path()), before);
  }

  ::close(held);
  options.resume = false;
  const campaign::CampaignReport report = CampaignRunner(spec).run(options);
  EXPECT_EQ(report.completed_cells, 3);
  std::istringstream rows(read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::int64_t count = 0;
  for (std::string row; std::getline(rows, row);) {
    EXPECT_NE(core::Json::parse(row).at("cell_id").as_string(), "earlier");
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(CampaignRunnerTest, FailedOutputStopsTheGrid) {
  // Once an output has failed the run is lost, so cells that have not
  // started are not simulated: on one worker exactly the first cell
  // runs, and only it samples the timeseries.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  CampaignSpec spec;
  spec.name = "stop";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.3};
  spec.seeds = {1, 2, 3, 4};
  spec.warmup_slots = 10;
  spec.measure_slots = 40;
  spec.telemetry.sample_period = 16;
  spec.telemetry.timeseries_path = "timeseries.jsonl";
  ScratchDir dir("stop");
  std::filesystem::create_symlink("/dev/full",
                                  dir.path() / CampaignRunner::kJsonlFile);
  CampaignOptions options;
  options.threads = 1;
  options.out_dir = dir.path().string();
  EXPECT_THROW(CampaignRunner(spec).run(options), core::Error);
  std::set<std::string> cells;
  std::istringstream rows(read_file(dir.path() / "timeseries.jsonl"));
  for (std::string row; std::getline(rows, row);) {
    const core::Json json = core::Json::parse(row);
    if (const core::Json* cell = json.find("cell")) {
      cells.insert(cell->as_string());
    }
  }
  EXPECT_EQ(cells.size(), 1u);
}

TEST(CampaignRunnerTest, FailedCellStopsTheGrid) {
  // A 48-node trace cannot run on POPS(6,12)'s 72 nodes, so its first
  // cell throws. The run is lost: on one worker no SK(4,3,2) cell after
  // it is simulated, so none samples the timeseries.
  workload::Trace trace;
  trace.nodes = 48;  // SK(4,3,2)
  trace.entries = {{0, 0, 7}, {0, 3, 12}, {1, 5, 2}, {4, 23, 11}};
  ScratchDir dir("cell-throws");
  const std::string trace_path = (dir.path() / "sk.trace").string();
  trace.save_binary(trace_path);
  CampaignSpec spec;
  spec.name = "cell-throws";
  spec.topologies = {TopologySpec::pops(6, 12),
                     TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.0};
  spec.seeds = {1, 2, 3, 4, 5, 6};
  campaign::WorkloadSpec entry{campaign::WorkloadKind::kTrace};
  entry.trace_file = trace_path;
  spec.workloads = {entry};
  spec.telemetry.sample_period = 1;
  spec.telemetry.timeseries_path = "timeseries.jsonl";
  CampaignOptions options;
  options.threads = 1;
  options.out_dir = dir.path().string();
  EXPECT_THROW(CampaignRunner(spec).run(options), core::Error);
  std::istringstream rows(read_file(dir.path() / "timeseries.jsonl"));
  for (std::string row; std::getline(rows, row);) {
    EXPECT_EQ(row.find("SK(4,3,2)"), std::string::npos) << row;
  }
}

TEST(CampaignRunnerTest, ResultsJsonlEscapesItsStrings) {
  // A trace file named with a quote puts the quote into cell_id and
  // workload; every results.jsonl row must still parse, with its cell's
  // own id.
  workload::Trace trace;
  trace.nodes = 48;  // SK(4,3,2)
  trace.entries = {{0, 0, 7}, {0, 3, 12}, {1, 5, 2}, {4, 23, 11}};
  ScratchDir dir("escape");
  const std::string trace_path = (dir.path() / "we\"ird.trace").string();
  trace.save_binary(trace_path);
  CampaignSpec spec;
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.0};
  spec.seeds = {1};
  campaign::WorkloadSpec entry{campaign::WorkloadKind::kTrace};
  entry.trace_file = trace_path;
  spec.workloads = {entry};
  CampaignOptions options;
  options.out_dir = dir.path().string();
  CampaignRunner(spec).run(options);
  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  std::istringstream rows(read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::size_t count = 0;
  for (std::string row; std::getline(rows, row); ++count) {
    ASSERT_LT(count, cells.size());
    EXPECT_EQ(core::Json::parse(row).at("cell_id").as_string(),
              cells[count].id);
  }
  EXPECT_EQ(count, cells.size());
}

TEST(CampaignRunnerTest, ManifestSurvivesSpecGrowth) {
  // IDs are parameter-derived, so enlarging an axis only runs new cells.
  CampaignSpec small;
  small.topologies = {TopologySpec::pops(3, 4)};
  small.loads = {0.2};
  small.seeds = {1, 2};
  small.warmup_slots = 5;
  small.measure_slots = 20;

  ScratchDir dir("grow");
  CampaignOptions options;
  options.out_dir = dir.path().string();
  CampaignRunner(small).run(options);

  CampaignSpec grown = small;
  grown.seeds = {1, 2, 3};
  options.resume = true;
  const campaign::CampaignReport report = CampaignRunner(grown).run(options);
  EXPECT_EQ(report.skipped_cells, 2);
  EXPECT_EQ(report.completed_cells, 1);
}

TEST(CampaignGrid, TrafficAndRoutesAxesExpand) {
  CampaignSpec spec;
  spec.topologies = {TopologySpec::pops(3, 4)};
  spec.traffics = {campaign::TrafficKind::kUniform,
                   campaign::TrafficKind::kHotspot,
                   campaign::TrafficKind::kPermutation,
                   campaign::TrafficKind::kBursty};
  spec.route_tables = {sim::RouteTable::kDense, sim::RouteTable::kCompressed};
  spec.loads = {0.3};
  spec.seeds = {1, 2};
  EXPECT_EQ(spec.cell_count(), 4 * 2 * 2);

  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 16u);
  // Nesting: traffic above load/wavelengths, routes above seed.
  EXPECT_EQ(cells[0].traffic.kind, campaign::TrafficKind::kUniform);
  EXPECT_EQ(cells[4].traffic.kind, campaign::TrafficKind::kHotspot);
  EXPECT_EQ(cells[0].routes, sim::RouteTable::kDense);
  EXPECT_EQ(cells[2].routes, sim::RouteTable::kCompressed);
  EXPECT_EQ(cells[1].seed, 2u);
  EXPECT_EQ(cells[0].id,
            "POPS(3,4)|token|uniform|load=0.300000|w=1|routes=dense|timing=none|"
            "workload=none|seed=1");
  EXPECT_EQ(cells[6].id,
            "POPS(3,4)|token|hotspot(n0,f0.2000)|load=0.300000|w=1|"
            "routes=compressed|timing=none|workload=none|seed=1");
}

TEST(CampaignGrid, TopologySpecProcessorCountMatchesNetworks) {
  EXPECT_EQ(TopologySpec::stack_kautz(4, 3, 2).processor_count(), 48);
  EXPECT_EQ(TopologySpec::stack_kautz(6, 3, 2).processor_count(), 72);
  EXPECT_EQ(TopologySpec::stack_kautz(10, 10, 3).processor_count(), 11000);
  EXPECT_EQ(TopologySpec::pops(6, 12).processor_count(), 72);
  EXPECT_EQ(TopologySpec::stack_imase_itoh(4, 2, 12).processor_count(), 48);
}

TEST(CampaignGrid, OverridesResolveExecutionKnobs) {
  CampaignSpec spec;
  spec.topologies = {TopologySpec::pops(3, 4),
                     TopologySpec::stack_kautz(4, 3, 2)};
  spec.seeds = {1};
  campaign::CellOverride override;
  override.topology = "SK(4,3,2)";
  override.engine = sim::Engine::kSharded;
  override.engine_threads = 4;
  override.route_table = sim::RouteTable::kCompressed;
  spec.overrides = {override};

  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].engine, sim::Engine::kPhased);
  EXPECT_EQ(cells[0].routes, sim::RouteTable::kAuto);
  EXPECT_EQ(cells[1].engine, sim::Engine::kSharded);
  EXPECT_EQ(cells[1].engine_threads, 4);
  EXPECT_EQ(cells[1].routes, sim::RouteTable::kCompressed);
  EXPECT_EQ(cells[1].id,
            "SK(4,3,2)|token|uniform|load=0.500000|w=1|routes=compressed|"
            "timing=none|workload=none|seed=1");

  // Several overrides for one topology layer in order, later wins.
  campaign::CellOverride second;
  second.topology = "SK(4,3,2)";
  second.engine_threads = 8;
  spec.overrides.push_back(second);
  EXPECT_EQ(campaign::expand_grid(spec)[1].engine_threads, 8);
  EXPECT_EQ(campaign::expand_grid(spec)[1].engine, sim::Engine::kSharded);
  spec.overrides.pop_back();

  // A pinned route table collapses that topology's routes axis: the
  // dense-vs-compressed comparison grid plus one pinned topology works.
  spec.route_tables = {sim::RouteTable::kDense, sim::RouteTable::kCompressed};
  EXPECT_EQ(spec.cell_count(), 2 + 1);
  const std::vector<campaign::CampaignCell> pinned =
      campaign::expand_grid(spec);
  ASSERT_EQ(pinned.size(), 3u);
  EXPECT_EQ(pinned[0].routes, sim::RouteTable::kDense);
  EXPECT_EQ(pinned[1].routes, sim::RouteTable::kCompressed);
  EXPECT_EQ(pinned[2].routes, sim::RouteTable::kCompressed);
  spec.route_tables = {sim::RouteTable::kAuto};

  // Overrides must name a topology that exists in the grid.
  spec.overrides[0].topology = "SK(9,9,9)";
  EXPECT_THROW(campaign::expand_grid(spec), core::Error);
}

TEST(CampaignSpecJson, ParsesTrafficRoutesAxesAndOverrides) {
  const CampaignSpec spec = campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 2, "g": 3},
                   {"kind": "stack_kautz", "s": 4, "d": 3, "k": 2}],
    "traffic": ["uniform", {"kind": "hotspot", "node": 1, "fraction": 0.5},
                {"kind": "bursty", "enter_on": 0.1, "exit_on": 0.4}],
    "routes": ["dense", "compressed"],
    "overrides": [{"topology": "SK(4,3,2)", "engine": "sharded",
                   "engine_threads": 2, "routes": "compressed"}]
  })json");
  ASSERT_EQ(spec.traffics.size(), 3u);
  EXPECT_EQ(spec.traffics[0].kind, campaign::TrafficKind::kUniform);
  EXPECT_EQ(spec.traffics[1].kind, campaign::TrafficKind::kHotspot);
  EXPECT_EQ(spec.traffics[1].hotspot_node, 1);
  EXPECT_DOUBLE_EQ(spec.traffics[1].hotspot_fraction, 0.5);
  EXPECT_EQ(spec.traffics[1].label(), "hotspot(n1,f0.5000)");
  EXPECT_EQ(spec.traffics[2].kind, campaign::TrafficKind::kBursty);
  EXPECT_DOUBLE_EQ(spec.traffics[2].bursty_enter_on, 0.1);
  EXPECT_DOUBLE_EQ(spec.traffics[2].bursty_exit_on, 0.4);
  EXPECT_EQ(spec.traffics[2].label(), "bursty(on0.1000,off0.4000)");
  EXPECT_EQ(spec.route_tables,
            (std::vector<sim::RouteTable>{sim::RouteTable::kDense,
                                          sim::RouteTable::kCompressed}));
  ASSERT_EQ(spec.overrides.size(), 1u);
  EXPECT_EQ(spec.overrides[0].topology, "SK(4,3,2)");
  EXPECT_EQ(spec.overrides[0].engine, sim::Engine::kSharded);
  EXPECT_EQ(spec.overrides[0].engine_threads, 2);
  EXPECT_EQ(spec.overrides[0].route_table, sim::RouteTable::kCompressed);

  // Plain-string entries carry TrafficSpec's default shapes; there are
  // no spec-level shape keys.
  const CampaignSpec plain = campaign::parse_campaign_spec(
      R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
          "traffic": ["hotspot", "bursty"]})");
  ASSERT_EQ(plain.traffics.size(), 2u);
  EXPECT_EQ(plain.traffics[0].label(), "hotspot(n0,f0.2000)");
  EXPECT_EQ(plain.traffics[1].label(), "bursty(on0.0500,off0.2000)");
  for (const char* key : {"hotspot_node", "hotspot_fraction",
                          "bursty_enter_on", "bursty_exit_on"}) {
    SCOPED_TRACE(key);
    EXPECT_THROW(campaign::parse_campaign_spec(
                     R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                         "traffic": ["hotspot"], ")" +
                     std::string(key) + R"(": 1})"),
                 core::Error);
  }

  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "traffic": ["poisson"]})"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "routes": ["sparse"]})"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "overrides": [{"topology": "POPS(2,3)",
                                      "route": "dense"}]})json"),
               core::Error);
}

TEST(CampaignRunnerTest, TrafficAxisFlowsThroughToRows) {
  CampaignSpec spec;
  spec.name = "traffic-axis";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.traffics = {campaign::TrafficKind::kUniform,
                   campaign::TrafficKind::kHotspot,
                   campaign::TrafficKind::kPermutation,
                   campaign::TrafficKind::kBursty};
  spec.loads = {0.4};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 60;

  ScratchDir dir("traffic");
  CampaignOptions options;
  options.threads = 4;
  options.out_dir = dir.path().string();
  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run(options);

  // One aggregate group per traffic family (the seed axis folds), so
  // the sink must key on traffic, not only on (load, wavelengths).
  ASSERT_EQ(aggregate->groups().size(), 4u);

  std::map<std::string, int> by_traffic;
  std::istringstream lines(read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::string line;
  while (std::getline(lines, line)) {
    const core::Json row = core::Json::parse(line);
    ++by_traffic[row.at("traffic").as_string()];
    EXPECT_EQ(row.at("routes").as_string(), "auto");
    // Each family must actually move packets in this tiny window.
    EXPECT_GT(row.at("delivered").as_int(), 0);
  }
  EXPECT_EQ(by_traffic["uniform"], 2);
  // Shaped families carry their parameters in the row label.
  EXPECT_EQ(by_traffic["hotspot(n0,f0.2000)"], 2);
  EXPECT_EQ(by_traffic["permutation"], 2);
  EXPECT_EQ(by_traffic["bursty(on0.0500,off0.2000)"], 2);
}

TEST(CampaignRunnerTest, DenseAndCompressedCellsProduceIdenticalMetrics) {
  CampaignSpec spec;
  spec.name = "routes-parity";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2),
                     TopologySpec::pops(6, 12),
                     TopologySpec::stack_imase_itoh(4, 2, 12)};
  spec.route_tables = {sim::RouteTable::kDense, sim::RouteTable::kCompressed};
  spec.loads = {0.5};
  spec.seeds = {3};
  spec.warmup_slots = 10;
  spec.measure_slots = 80;

  ScratchDir dir("routesparity");
  CampaignOptions options;
  options.threads = 2;
  options.out_dir = dir.path().string();
  campaign::reset_topology_compile_count();
  const campaign::CampaignReport report = CampaignRunner(spec).run(options);
  EXPECT_EQ(report.completed_cells, 6);
  // Both representations of a topology come from ONE build call.
  EXPECT_EQ(campaign::topology_compile_count(), 3);

  // Per topology, the dense and compressed rows must agree on every
  // metric -- only cell_id and the routes field may differ.
  std::map<std::string, std::string> stripped;
  std::istringstream lines(read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    const core::Json row = core::Json::parse(line);
    const std::string topology = row.at("topology").as_string();
    std::ostringstream metrics;
    metrics << row.at("offered").as_int() << "/"
            << row.at("delivered").as_int() << "/"
            << row.at("collisions").as_int() << "/"
            << row.at("coupler_transmissions").as_int() << "/"
            << row.at("backlog").as_int() << "/"
            << row.at("mean_latency").as_number() << "/"
            << row.at("p95_latency").as_number();
    auto [it, inserted] = stripped.try_emplace(topology, metrics.str());
    if (!inserted) {
      EXPECT_EQ(it->second, metrics.str())
          << topology << ": dense and compressed rows must be identical";
    }
  }
  EXPECT_EQ(rows, 6);
}

TEST(CampaignRunnerTest, ShardsPartitionTheGridAndMergeToFullOutputs) {
  const CampaignSpec spec = acceptance_spec();

  ScratchDir full("shardfull");
  CampaignOptions full_options;
  full_options.threads = 4;
  full_options.out_dir = full.path().string();
  CampaignRunner(spec).run(full_options);

  // Three machines, deterministic split: every cell exactly once.
  constexpr int kShards = 3;
  std::vector<std::unique_ptr<ScratchDir>> dirs;
  std::multiset<std::string> shard_jsonl_lines;
  std::string merged_manifest;
  std::string merged_jsonl;
  std::int64_t completed_total = 0;
  for (int i = 0; i < kShards; ++i) {
    dirs.push_back(
        std::make_unique<ScratchDir>("shard" + std::to_string(i)));
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = dirs.back()->path().string();
    options.shard_index = i;
    options.shard_count = kShards;
    const campaign::CampaignReport report = CampaignRunner(spec).run(options);
    EXPECT_EQ(report.total_cells, 120);
    EXPECT_EQ(report.completed_cells + report.out_of_shard_cells, 120);
    completed_total += report.completed_cells;
    const std::string jsonl =
        read_file(dirs.back()->path() / CampaignRunner::kJsonlFile);
    merged_jsonl += jsonl;
    merged_manifest +=
        read_file(dirs.back()->path() / CampaignRunner::kManifestFile);
    std::istringstream lines(jsonl);
    std::string line;
    while (std::getline(lines, line)) {
      shard_jsonl_lines.insert(line);
    }
  }
  EXPECT_EQ(completed_total, 120);

  // The shards' rows are exactly the full run's rows (order aside).
  std::multiset<std::string> full_lines;
  {
    std::istringstream lines(
        read_file(full.path() / CampaignRunner::kJsonlFile));
    std::string line;
    while (std::getline(lines, line)) {
      full_lines.insert(line);
    }
  }
  EXPECT_EQ(shard_jsonl_lines, full_lines);

  // Concatenating shard outputs yields a directory --resume recognizes
  // as a complete campaign: nothing left to simulate.
  ScratchDir merged("shardmerged");
  std::ofstream(merged.path() / CampaignRunner::kJsonlFile) << merged_jsonl;
  std::ofstream(merged.path() / CampaignRunner::kManifestFile)
      << merged_manifest;
  CampaignOptions resume_options;
  resume_options.out_dir = merged.path().string();
  resume_options.resume = true;
  resume_options.write_csv = false;
  const campaign::CampaignReport resumed =
      CampaignRunner(spec).run(resume_options);
  EXPECT_EQ(resumed.skipped_cells, 120);
  EXPECT_EQ(resumed.completed_cells, 0);

  // --resume composes with --shard: a shard resumed against the merged
  // manifest has no pending work either.
  resume_options.shard_index = 1;
  resume_options.shard_count = kShards;
  const campaign::CampaignReport shard_resumed =
      CampaignRunner(spec).run(resume_options);
  EXPECT_EQ(shard_resumed.completed_cells, 0);
  EXPECT_EQ(shard_resumed.skipped_cells, 40);
  EXPECT_EQ(shard_resumed.out_of_shard_cells, 80);
}

TEST(CampaignRunnerTest, LargeCompressedWdmCellRunsEndToEnd) {
  // The wdm_scale shape at test size: a >= 10^4-processor stack-Kautz
  // cell on the sharded engine with compressed routes, end to end
  // through spec -> grid -> runner -> sinks. The dense table (~1.5 GB)
  // is never materialized.
  CampaignSpec spec;
  spec.name = "wdm-scale-cell";
  spec.topologies = {TopologySpec::stack_kautz(10, 10, 3)};
  spec.traffics = {campaign::TrafficKind::kUniform};
  spec.loads = {0.5};
  spec.wavelengths = {4};
  spec.route_tables = {sim::RouteTable::kCompressed};
  spec.seeds = {1};
  spec.warmup_slots = 5;
  spec.measure_slots = 30;
  spec.engine = sim::Engine::kSharded;
  spec.engine_threads = 2;

  ScratchDir dir("wdmscale");
  CampaignOptions options;
  options.out_dir = dir.path().string();
  const campaign::CampaignReport report = CampaignRunner(spec).run(options);
  EXPECT_EQ(report.completed_cells, 1);

  const std::string jsonl =
      read_file(dir.path() / CampaignRunner::kJsonlFile);
  const core::Json row = core::Json::parse(jsonl);
  EXPECT_EQ(row.at("nodes").as_int(), 11000);
  EXPECT_EQ(row.at("routes").as_string(), "compressed");
  EXPECT_GT(row.at("delivered").as_int(), 0);
}

TEST(CampaignSpecJson, ParsesShapeSweepsAndTimingAxis) {
  const CampaignSpec spec = campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 2, "g": 3}],
    "traffic": ["uniform",
                {"kind": "hotspot", "node": 2, "fraction": [0.1, 0.3]},
                {"kind": "bursty", "enter_on": 0.05, "exit_on": [0.1, 0.2]}],
    "timings": ["none",
                {"profile": "const", "tuning": [256, 512],
                 "propagation": 128},
                {"profile": "level", "propagation": 64, "level_skew": 32,
                 "guard": 16}]
  })json");
  // Sweep arrays expand into one axis entry per value.
  ASSERT_EQ(spec.traffics.size(), 5u);
  EXPECT_EQ(spec.traffics[1].label(), "hotspot(n2,f0.1000)");
  EXPECT_EQ(spec.traffics[2].label(), "hotspot(n2,f0.3000)");
  EXPECT_EQ(spec.traffics[3].label(), "bursty(on0.0500,off0.1000)");
  EXPECT_EQ(spec.traffics[4].label(), "bursty(on0.0500,off0.2000)");
  ASSERT_EQ(spec.timings.size(), 4u);
  EXPECT_EQ(spec.timings[0].label(), "none");
  EXPECT_EQ(spec.timings[1].label(), "const(t256,p128,g0)");
  EXPECT_EQ(spec.timings[2].label(), "const(t512,p128,g0)");
  EXPECT_EQ(spec.timings[3].label(), "level(t0,p64,l32,g16)");
  EXPECT_EQ(spec.cell_count(), 5 * 4);

  // Non-slot-aligned cells run on the async engine; aligned cells keep
  // the spec engine. The timing label is part of the cell ID.
  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 20u);
  EXPECT_EQ(cells[0].engine, sim::Engine::kPhased);
  EXPECT_EQ(cells[1].engine, sim::Engine::kAsync);
  EXPECT_EQ(cells[1].id,
            "POPS(2,3)|token|uniform|load=0.500000|w=1|routes=auto|"
            "timing=const(t256,p128,g0)|workload=none|seed=1");

  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "timings": ["fast"]})json"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "timings": [{"profile": "warp"}]})json"),
               core::Error);
  // Delays past the bound that keeps every tick in int64
  // (timing_model.hpp); the edge itself parses. Integer literals parse
  // exactly, so 2^60 + 1 is already past kMaxDelayTicks.
  for (const char* key : {"tuning", "propagation", "level_skew"}) {
    SCOPED_TRACE(key);
    const auto spec = [&](std::int64_t ticks) {
      return R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                     "timings": [{"profile": "level", ")json" +
             std::string(key) + "\": " + std::to_string(ticks) + "}]}";
    };
    EXPECT_NO_THROW(campaign::parse_campaign_spec(spec(sim::kMaxDelayTicks)));
    EXPECT_THROW(
        campaign::parse_campaign_spec(spec(sim::kMaxDelayTicks + 1)),
        core::Error);
  }
  // Fractional ticks must fail loudly, not truncate into a cell ID
  // that was never simulated.
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "timings": [{"profile": "const",
                                    "tuning": [256.5]}]})json"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(
                   R"json({"topologies": [{"kind": "pops", "t": 2, "g": 3}],
                       "traffic": [{"kind": "hotspot", "fracton": 0.2}]})json"),
               core::Error);
}

TEST(CampaignRunnerTest, ShapeSweepsProduceDistinctGroups) {
  // Two hotspot fractions in one grid: distinct cells, distinct
  // aggregate groups, and the hotter fraction concentrates traffic.
  CampaignSpec spec;
  spec.name = "shape-sweep";
  spec.topologies = {TopologySpec::pops(6, 4)};
  campaign::TrafficSpec mild(campaign::TrafficKind::kHotspot);
  mild.hotspot_fraction = 0.1;
  campaign::TrafficSpec hot = mild;
  hot.hotspot_fraction = 0.9;
  spec.traffics = {mild, hot};
  spec.loads = {0.5};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 200;

  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run({});
  ASSERT_EQ(aggregate->groups().size(), 2u);
  EXPECT_EQ(aggregate->groups()[0].traffic, "hotspot(n0,f0.1000)");
  EXPECT_EQ(aggregate->groups()[1].traffic, "hotspot(n0,f0.9000)");
  // Funnelling 90% of traffic into one node must hurt throughput.
  EXPECT_LT(aggregate->groups()[1].point.throughput_per_node,
            aggregate->groups()[0].point.throughput_per_node);
}

TEST(CampaignRunnerTest, TimingAxisFlowsThroughToRowsAndAggregate) {
  CampaignSpec spec;
  spec.name = "timing-axis";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  sim::TimingConfig skewed;
  skewed.profile = sim::SkewProfile::kConstant;
  skewed.tuning_ticks = 3 * sim::kTicksPerSlot;
  spec.timings = {sim::TimingConfig{}, skewed};
  spec.loads = {0.3};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 200;

  ScratchDir dir("timing");
  CampaignOptions options;
  options.threads = 2;
  options.out_dir = dir.path().string();
  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run(options);

  std::map<std::string, double> latency_by_timing;
  std::istringstream lines(
      read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    const core::Json row = core::Json::parse(line);
    latency_by_timing[row.at("timing").as_string()] =
        row.at("mean_latency").as_number();
    EXPECT_NE(row.at("cell_id").as_string().find("|timing="),
              std::string::npos);
  }
  EXPECT_EQ(rows, 4);
  ASSERT_EQ(latency_by_timing.count("none"), 1u);
  ASSERT_EQ(latency_by_timing.count("const(t3072,p0,g0)"), 1u);
  // Three slots of tuning per hop must show up in the latency.
  EXPECT_GT(latency_by_timing["const(t3072,p0,g0)"],
            latency_by_timing["none"] + 2.0);

  // The aggregate keys on timing: one group per axis value.
  ASSERT_EQ(aggregate->groups().size(), 2u);
  EXPECT_EQ(aggregate->groups()[0].timing, "none");
  EXPECT_EQ(aggregate->groups()[1].timing, "const(t3072,p0,g0)");
}

TEST(WorkStealingPool, RunsEveryItemOnceAndPropagatesErrors) {
  campaign::WorkStealingPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) {
    h = 0;
  }
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  // Reusable across batches (persistent threads).
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 2);
  }
  EXPECT_THROW(pool.run(8,
                        [](std::size_t i) {
                          if (i == 5) {
                            throw core::Error("boom");
                          }
                        }),
               core::Error);
}

// ------------------------------------------------------- workload axis

TEST(CampaignWorkloadTest, WorkloadAxisExpandsAndCarriesLabels) {
  CampaignSpec spec;
  spec.topologies = {TopologySpec::pops(4, 6)};
  spec.loads = {0.0};
  spec.seeds = {1};
  spec.workloads = {campaign::WorkloadSpec{},
                    campaign::WorkloadSpec{campaign::WorkloadKind::kGossip}};
  EXPECT_EQ(spec.cell_count(), 2);
  const std::vector<campaign::CampaignCell> cells =
      campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].id,
            "POPS(4,6)|token|uniform|load=0.000000|w=1|routes=auto|"
            "timing=none|workload=none|seed=1");
  EXPECT_EQ(cells[1].id,
            "POPS(4,6)|token|uniform|load=0.000000|w=1|routes=auto|"
            "timing=none|workload=gossip|seed=1");

  // Labels carry the shape parameters.
  campaign::WorkloadSpec bsp{campaign::WorkloadKind::kBsp};
  bsp.phases = 3;
  bsp.shift = 2;
  EXPECT_EQ(bsp.label(), "bsp(p3,s2)");
  campaign::WorkloadSpec reduce{campaign::WorkloadKind::kReduce};
  reduce.root = 4;
  reduce.arity = 3;
  EXPECT_EQ(reduce.label(), "reduce(r4,a3)");
  campaign::WorkloadSpec trace{campaign::WorkloadKind::kTrace};
  trace.trace_file = "/some/dir/uniform.trace";
  EXPECT_EQ(trace.label(), "trace(uniform.trace)");
}

TEST(CampaignWorkloadTest, ParsesWorkloadsJsonAndRejectsBadSpecs) {
  const CampaignSpec spec = campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "loads": [0.0],
    "workloads": ["none", {"kind": "one_to_all", "root": 2}, "gossip",
                  {"kind": "bsp", "phases": [2, 4]},
                  {"kind": "reduce", "arity": 3},
                  {"kind": "gather", "root": 1},
                  {"kind": "trace", "file": "t.trace"}]
  })json");
  ASSERT_EQ(spec.workloads.size(), 8u);  // bsp sweeps into 2 entries
  EXPECT_EQ(spec.workloads[1].label(), "one_to_all(r2)");
  EXPECT_EQ(spec.workloads[3].label(), "bsp(p2,s1)");
  EXPECT_EQ(spec.workloads[4].label(), "bsp(p4,s1)");
  EXPECT_EQ(spec.workloads[5].label(), "reduce(r0,a3)");
  EXPECT_EQ(spec.workloads[7].trace_file, "t.trace");

  // Unknown kinds and keys fail loudly.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": ["alltoall"]})json"),
               core::Error);
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": [{"kind": "bsp", "root": 3}]})json"),
               core::Error);
  // Trace workloads need a file.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": [{"kind": "trace"}]})json"),
               core::Error);
  // A control character in the file's basename would split the cell's
  // manifest.txt line, so --resume could not find it; the error names
  // the file.
  try {
    (void)campaign::parse_campaign_spec(R"json({
      "topologies": [{"kind": "pops", "t": 4, "g": 6}],
      "workloads": [{"kind": "trace", "file": "a\nb.trace"}]})json");
    ADD_FAILURE() << "a newline in a trace file name was accepted";
  } catch (const core::Error& error) {
    EXPECT_NE(std::string(error.what()).find("a\\nb.trace"),
              std::string::npos)
        << error.what();
  }
  campaign::WorkloadSpec control{campaign::WorkloadKind::kTrace};
  control.trace_file = "dir\x01/ok\x7f.trace";
  EXPECT_THROW(control.validate(), core::Error);
  control.trace_file = "dir\x01/ok.trace";  // directories may hold them
  EXPECT_NO_THROW(control.validate());
  // Schedule kernels cannot run on stack-Imase-Itoh topologies.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "stack_imase_itoh", "s": 4, "d": 2, "n": 12}],
    "workloads": ["gossip"]})json"),
               core::Error);
  // Closed-loop cells need unbounded VOQs.
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "queue_capacity": 16, "workloads": ["gossip"]})json"),
               core::Error);
  // A root must be a valid node of every topology in the grid (the
  // cross product would otherwise abort mid-run).
  EXPECT_THROW(campaign::parse_campaign_spec(R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "workloads": [{"kind": "gather", "root": 64}]})json"),
               core::Error);
}

TEST(CampaignSpecJson, EventQueueIsNoEngine) {
  // The seed's event-queue loop is a test reference, not an engine: a
  // spec naming it, at top level or in an override, fails at parse with
  // the engines it could have named.
  for (const char* text : {R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "engine": "event-queue"})json",
                           R"json({
    "topologies": [{"kind": "pops", "t": 4, "g": 6}],
    "overrides": [{"topology": "POPS(4,6)", "engine": "event-queue"}]})json"}) {
    SCOPED_TRACE(text);
    try {
      (void)campaign::parse_campaign_spec(text);
      ADD_FAILURE() << "the spec parsed";
    } catch (const core::Error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("(expected phased|sharded|async|async-sharded)"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(CampaignWorkloadTest, WorkloadCellsRunToCompletionWithMakespan) {
  CampaignSpec spec;
  spec.name = "workload-cells";
  spec.topologies = {TopologySpec::pops(6, 12),
                     TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.0};
  spec.seeds = {1};
  spec.warmup_slots = 5;   // ignored by workload cells
  spec.measure_slots = 50;
  spec.workloads = {
      campaign::WorkloadSpec{campaign::WorkloadKind::kOneToAll},
      campaign::WorkloadSpec{campaign::WorkloadKind::kGossip},
      campaign::WorkloadSpec{campaign::WorkloadKind::kGather}};

  ScratchDir dir("workload-cells");
  CampaignOptions options;
  options.threads = 2;
  options.out_dir = dir.path().string();
  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run(options);

  // Uncontended schedule cells hit the analytic bounds exactly:
  // POPS(6,12) broadcasts in 1 and gossips in t = 6; SK(4,3,2)
  // broadcasts in k = 2 and gossips in s + k = 6.
  std::map<std::string, std::map<std::string, std::int64_t>> makespans;
  std::istringstream lines(
      read_file(dir.path() / CampaignRunner::kJsonlFile));
  std::string line;
  int rows = 0;
  while (std::getline(lines, line)) {
    ++rows;
    const core::Json row = core::Json::parse(line);
    makespans[row.at("topology").as_string()]
             [row.at("workload").as_string()] =
        row.at("makespan").as_int();
    EXPECT_DOUBLE_EQ(row.at("delivered_fraction").as_number(), 1.0);
    EXPECT_EQ(row.at("backlog").as_int(), 0);
  }
  EXPECT_EQ(rows, 6);
  EXPECT_EQ(makespans["POPS(6,12)"]["one_to_all(r0)"], 1);
  EXPECT_EQ(makespans["POPS(6,12)"]["gossip"], 6);
  EXPECT_EQ(makespans["SK(4,3,2)"]["one_to_all(r0)"], 2);
  EXPECT_EQ(makespans["SK(4,3,2)"]["gossip"], 6);
  EXPECT_GT(makespans["POPS(6,12)"]["gather(r0)"], 1);

  // The aggregate keys on workload and carries the makespan.
  ASSERT_EQ(aggregate->groups().size(), 6u);
  EXPECT_EQ(aggregate->groups()[0].workload, "one_to_all(r0)");
  EXPECT_DOUBLE_EQ(aggregate->groups()[0].point.makespan, 1.0);

  // The CSV carries the workload and makespan columns.
  const std::string csv = read_file(dir.path() / CampaignRunner::kCsvFile);
  EXPECT_NE(csv.find(",workload,"), std::string::npos);
  EXPECT_NE(csv.find(",makespan"), std::string::npos);
  EXPECT_NE(csv.find("\"gossip\""), std::string::npos);
}

TEST(CampaignWorkloadTest, TraceFileCellsReplayEndToEnd) {
  // Record a tiny synthetic trace, point a campaign cell at the file.
  workload::Trace trace;
  trace.nodes = 24;  // POPS(4,6)
  trace.entries = {{0, 0, 7}, {0, 3, 12}, {1, 5, 2}, {4, 23, 11}};
  ScratchDir dir("trace-cell");
  const std::string trace_path = (dir.path() / "tiny.trace").string();
  trace.save_binary(trace_path);

  CampaignSpec spec;
  spec.topologies = {TopologySpec::pops(4, 6)};
  spec.loads = {0.0};
  spec.seeds = {1};
  campaign::WorkloadSpec entry{campaign::WorkloadKind::kTrace};
  entry.trace_file = trace_path;
  spec.workloads = {entry};

  auto aggregate = std::make_shared<campaign::AggregateSink>();
  CampaignRunner runner(spec);
  runner.add_sink(aggregate);
  runner.run(CampaignOptions{});
  ASSERT_EQ(aggregate->groups().size(), 1u);
  EXPECT_EQ(aggregate->groups()[0].workload, "trace(tiny.trace)");
  EXPECT_DOUBLE_EQ(aggregate->groups()[0].point.delivered_fraction, 1.0);
  EXPECT_GE(aggregate->groups()[0].point.makespan, 5.0);

  // A trace recorded on the wrong node count is refused.
  CampaignSpec wrong = spec;
  wrong.topologies = {TopologySpec::pops(6, 12)};
  CampaignRunner bad(wrong);
  EXPECT_THROW(bad.run(CampaignOptions{}), core::Error);
}

TEST(CampaignWorkloadTest, WorkloadCellsAreThreadCountInvariant) {
  CampaignSpec spec;
  spec.name = "workload-invariance";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.arbitrations = {sim::Arbitration::kTokenRoundRobin,
                       sim::Arbitration::kRandomWinner};
  spec.loads = {0.3};  // background traffic beside the collective
  spec.seeds = {1, 2};
  spec.workloads = {
      campaign::WorkloadSpec{campaign::WorkloadKind::kGossip}};

  std::string reference;
  for (const int threads : {1, 3}) {
    ScratchDir dir("wl-threads-" + std::to_string(threads));
    CampaignOptions options;
    options.threads = threads;
    options.out_dir = dir.path().string();
    CampaignRunner runner(spec);
    runner.run(options);
    const std::string jsonl =
        read_file(dir.path() / CampaignRunner::kJsonlFile);
    if (reference.empty()) {
      reference = jsonl;
    } else {
      EXPECT_EQ(reference, jsonl);
    }
  }
}

TEST(CampaignRunnerTest, CheckpointDrillThenResumeIsByteIdentical) {
  // The crash drill: a --checkpoint-stop run interrupts every open-loop
  // cell mid-window (blobs on disk, nothing in the result files), and a
  // --resume run finishes them from the blobs. The resumed directory's
  // results must match an uninterrupted run's byte for byte, and the
  // per-cell blobs must be gone once their cells complete.
  CampaignSpec spec;
  spec.name = "drill";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.3, 0.7};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 120;
  spec.checkpoint_every = 30;

  ScratchDir uninterrupted("ckpt-full");
  {
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = uninterrupted.path().string();
    CampaignRunner runner(spec);
    const campaign::CampaignReport report = runner.run(options);
    EXPECT_EQ(report.completed_cells, 4);
    EXPECT_EQ(report.interrupted_cells, 0);
    // Completed cells clean up their blobs.
    EXPECT_TRUE(std::filesystem::is_empty(uninterrupted.path() /
                                          "checkpoints"));
  }

  ScratchDir drilled("ckpt-drill");
  {
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = drilled.path().string();
    options.checkpoint_stop = 50;  // dies at the slot-60 boundary
    CampaignRunner runner(spec);
    const campaign::CampaignReport report = runner.run(options);
    EXPECT_EQ(report.interrupted_cells, 4);
    EXPECT_EQ(report.completed_cells, 0);
    std::size_t blobs = 0;
    for (const auto& entry : std::filesystem::directory_iterator(
             drilled.path() / "checkpoints")) {
      blobs += entry.is_regular_file() ? 1 : 0;
    }
    EXPECT_EQ(blobs, 4u);
    // Interrupted cells reach no sink and no manifest line.
    EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kJsonlFile), "");
    EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kManifestFile), "");
  }
  {
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = drilled.path().string();
    options.resume = true;
    CampaignRunner runner(spec);
    const campaign::CampaignReport report = runner.run(options);
    EXPECT_EQ(report.completed_cells, 4);
    EXPECT_EQ(report.interrupted_cells, 0);
  }
  EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kJsonlFile),
            read_file(uninterrupted.path() / CampaignRunner::kJsonlFile));
  EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kCsvFile),
            read_file(uninterrupted.path() / CampaignRunner::kCsvFile));
  EXPECT_EQ(read_file(drilled.path() / CampaignRunner::kManifestFile),
            read_file(uninterrupted.path() / CampaignRunner::kManifestFile));
  EXPECT_TRUE(std::filesystem::is_empty(drilled.path() / "checkpoints"));
}

/// The lines of a JSONL file, sorted: two workers interleave their
/// cells' rows, so only the multiset of lines is deterministic.
std::vector<std::string> sorted_lines(const std::filesystem::path& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(CampaignRunnerTest, ResumeKeepsTheTimeseriesRowsItsCheckpointsCover) {
  // The drill on both timings (the skewed one runs async-sharded) with
  // telemetry every 16 slots: after --checkpoint-stop and --resume the
  // timeseries must hold the uninterrupted run's rows, schema rows
  // included, each once. A second drilled directory mimics a crash: the
  // rows each cell wrote past its checkpoint, and a torn line, were
  // appended before the resume, and one cell lost its blob, so it
  // reruns from slot 0 and must drop every row it wrote.
  CampaignSpec spec;
  spec.name = "drill-telemetry";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  sim::TimingConfig skewed;
  skewed.profile = sim::SkewProfile::kConstant;
  skewed.tuning_ticks = 256;
  skewed.propagation_ticks = 2048;
  skewed.guard_ticks = 64;
  spec.timings = {sim::TimingConfig{}, skewed};
  spec.loads = {0.3, 0.7};
  spec.seeds = {1, 2};
  spec.warmup_slots = 10;
  spec.measure_slots = 120;
  spec.checkpoint_every = 30;
  spec.engine = sim::Engine::kSharded;
  spec.engine_threads = 2;
  spec.telemetry.sample_period = 16;
  spec.telemetry.timeseries_path = "timeseries.jsonl";
  const auto run = [&spec](const std::filesystem::path& dir, bool resume,
                           std::int64_t checkpoint_stop) {
    CampaignOptions options;
    options.threads = 2;
    options.out_dir = dir.string();
    options.resume = resume;
    options.checkpoint_stop = checkpoint_stop;
    CampaignRunner runner(spec);
    return runner.run(options);
  };

  ScratchDir fresh("ts-full");
  EXPECT_EQ(run(fresh.path(), false, -1).completed_cells, 8);
  const std::vector<std::string> expected =
      sorted_lines(fresh.path() / "timeseries.jsonl");
  ASSERT_FALSE(expected.empty());

  ScratchDir drilled("ts-drill");
  ScratchDir crashed("ts-crash");
  EXPECT_EQ(run(drilled.path(), false, 50).interrupted_cells, 8);
  std::filesystem::copy(drilled.path(), crashed.path(),
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  {
    // Each cell's last drilled sample; the fresh rows past it are the
    // ones a crash after the checkpoint would have left behind.
    std::map<std::string, std::int64_t> last;
    for (const std::string& line :
         sorted_lines(drilled.path() / "timeseries.jsonl")) {
      const core::Json row = core::Json::parse(line);
      if (row.at("type").as_string() == "sample") {
        std::int64_t& slot = last[row.at("cell").as_string()];
        slot = std::max(slot, row.at("slot").as_int());
      }
    }
    ASSERT_EQ(last.size(), 8u);
    std::ofstream out(crashed.path() / "timeseries.jsonl", std::ios::app);
    std::size_t stray = 0;
    for (const std::string& line : expected) {
      const core::Json row = core::Json::parse(line);
      if (row.at("type").as_string() == "sample" &&
          row.at("slot").as_int() > last.at(row.at("cell").as_string())) {
        out << line << "\n";
        ++stray;
      }
    }
    EXPECT_GT(stray, 0u);
    out << "{\"type\":\"sample\",\"cell\":\"";
  }
  ASSERT_TRUE(std::filesystem::remove(crashed.path() / "checkpoints" /
                                      "cell-0.ckpt"));

  for (const ScratchDir* dir : {&drilled, &crashed}) {
    SCOPED_TRACE(dir->path().string());
    EXPECT_EQ(run(dir->path(), true, -1).completed_cells, 8);
    EXPECT_EQ(sorted_lines(dir->path() / "timeseries.jsonl"), expected);
    EXPECT_EQ(read_file(dir->path() / CampaignRunner::kJsonlFile),
              read_file(fresh.path() / CampaignRunner::kJsonlFile));
  }
}

TEST(CampaignRunnerTest, SketchLatencyModeRunsTheGrid) {
  // latency_stats: "sketch" flips every cell to the O(1)-memory sketch;
  // the grid still runs end to end and reports plausible percentiles.
  CampaignSpec spec;
  spec.name = "sketch";
  spec.topologies = {TopologySpec::stack_kautz(4, 3, 2)};
  spec.loads = {0.5};
  spec.seeds = {1};
  spec.warmup_slots = 10;
  spec.measure_slots = 60;
  spec.latency_stats = sim::LatencyMode::kSketch;

  ScratchDir dir("sketch");
  CampaignOptions options;
  options.out_dir = dir.path().string();
  CampaignRunner runner(spec);
  const campaign::CampaignReport report = runner.run(options);
  EXPECT_EQ(report.completed_cells, 1);
  const std::string jsonl = read_file(dir.path() / CampaignRunner::kJsonlFile);
  EXPECT_NE(jsonl.find("\"p95_latency\""), std::string::npos);
}

}  // namespace
