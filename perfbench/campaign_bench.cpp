// Campaign benchmark program; run.py in this directory is the entry point.
//
//   campaign_bench --spec SPEC.json --work DIR --threads N --seconds S
//                  --trace 0|1
//   campaign_bench --host
//
// --trace 0 repeats the path a user runs -- load_campaign_spec ->
// CampaignRunner::run with the JSONL, CSV and manifest sinks -- for S
// seconds, and between repetitions times the campaign's set-up calls on
// their own (load, expand, one CompiledTopology::build per topology).
// --trace 1 alternates traced repetitions (traced.cpp) with untraced
// ones, so the tracing overhead is measured in the same process.
// Writes DIR/report.json, DIR/rows.jsonl (the first repetition's rows)
// and, traced, DIR/spans.jsonl. --host prints the host record.

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "core/args.hpp"
#include "core/error.hpp"

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double proc_status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB
    }
  }
  throw otis::core::Error("/proc/self/status has no " + prefix);
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  OTIS_REQUIRE(in.good(), "cannot open " + path.string());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::map<std::size_t, TableNeeds> table_needs(
    const otis::campaign::CampaignSpec& spec,
    const std::vector<otis::campaign::CampaignCell>& cells) {
  std::map<std::size_t, TableNeeds> needs;
  for (const otis::campaign::CampaignCell& cell : cells) {
    TableNeeds& need = needs[cell.topology];
    const otis::sim::RouteTable resolved = otis::sim::resolve_route_table(
        cell.routes, spec.topologies[cell.topology].processor_count());
    (resolved == otis::sim::RouteTable::kCompressed ? need.compressed
                                                    : need.dense) = true;
  }
  return needs;
}

}  // namespace perfbench

namespace {

namespace fs = std::filesystem;
namespace campaign = otis::campaign;
using perfbench::now_seconds;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Whether hardware counters can be opened here; numbers from hosts
/// with and without them are never compared.
std::string perf_counters() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd >= 0) {
    close(static_cast<int>(fd));
    return "available";
  }
  return std::string("unavailable: ") + std::strerror(errno);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_host() {
  std::cout << "{\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu_model\": " << json_string(cpu_model())
            << ", \"perf_counters\": " << json_string(perf_counters())
            << ", \"compiler\": " << json_string(__VERSION__) << "}\n";
}

/// Times the set-up calls of one campaign: parse, expand, and one build
/// per topology with the tables its cells resolve to. The builds run on
/// the calling thread: through a pool, the millisecond-scale compiles of
/// paper_sweep and collectives wait on worker wake-ups whose latency
/// grows with host load (on a busy 4-vCPU host a 2-worker pool tripled
/// the quartile range of paper_sweep's set-up samples), and the
/// runner's pooled compile is still timed inside wall_s. On request also records, untimed, the analytic
/// schedule length of every one_to_all and gossip cell
/// ("<topology>|<workload>") for the makespan oracle.
double timed_setup(const std::string& spec_path,
                   std::map<std::string, std::int64_t>* schedule_slots) {
  const double t0 = now_seconds();
  const campaign::CampaignSpec spec = campaign::load_campaign_spec(spec_path);
  const std::vector<campaign::CampaignCell> cells = campaign::expand_grid(spec);
  std::map<std::size_t, std::shared_ptr<const campaign::CompiledTopology>>
      topologies;
  for (const auto& [index, need] : perfbench::table_needs(spec, cells)) {
    topologies[index] = campaign::CompiledTopology::build(
        spec.topologies[index], need.dense, need.compressed, nullptr);
  }
  const double seconds = now_seconds() - t0;
  if (schedule_slots != nullptr) {
    for (const campaign::CampaignCell& cell : cells) {
      const campaign::WorkloadKind kind = cell.workload.kind;
      if (kind != campaign::WorkloadKind::kOneToAll &&
          kind != campaign::WorkloadKind::kGossip) {
        continue;
      }
      const campaign::CompiledTopology& topology =
          *topologies.at(cell.topology);
      const std::string key = topology.label() + "|" + cell.workload.label();
      if (schedule_slots->count(key) == 0) {
        (*schedule_slots)[key] =
            topology
                .collective_schedule(kind == campaign::WorkloadKind::kGossip,
                                     cell.workload.root)
                .slot_count();
      }
    }
  }
  return seconds;
}

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One campaign exactly as a user runs it, from spec load to the last
/// sink flush.
Rep untraced_rep(const std::string& spec_path, int threads,
                 const fs::path& out_dir) {
  const double cpu0 = cpu_seconds();
  const double t0 = now_seconds();
  campaign::CampaignRunner runner(campaign::load_campaign_spec(spec_path));
  campaign::CampaignOptions options;
  options.threads = threads;
  options.out_dir = out_dir.string();
  runner.run(options);
  return {now_seconds() - t0, cpu_seconds() - cpu0};
}

int run(const otis::core::Args& args) {
  const std::string spec_path = args.get("spec", "");
  const fs::path work = args.get("work", "");
  const int threads = static_cast<int>(args.get_int("threads", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool traced = args.get_int("trace", 0) != 0;
  OTIS_REQUIRE(!spec_path.empty() && !work.empty(),
               "campaign_bench: --spec and --work are required");
  fs::create_directories(work);
  const fs::path out = work / "out";
  std::ofstream spans_out;
  if (traced) {
    spans_out.open(work / "spans.jsonl", std::ios::out | std::ios::trunc);
    spans_out.precision(9);
  }

  std::map<std::string, std::int64_t> schedule_slots;
  std::vector<double> setup_s, wall_s, cpu_s, traced_wall_s;
  std::vector<std::map<std::string, double>> layers;
  std::vector<std::string> first_rows;
  std::int64_t rows_compared = 0, rows_mismatched = 0;
  std::vector<std::string> errors;

  // Every repetition must write the first repetition's rows again, line
  // for line: the simulation is seed-deterministic and thread-count
  // invariant, and the traced repetition must agree with the runner.
  const auto check_rows = [&]() {
    std::vector<std::string> rows = perfbench::read_lines(out / "results.jsonl");
    if (first_rows.empty()) {
      first_rows = std::move(rows);
      return;
    }
    for (std::size_t i = 0; i < first_rows.size(); ++i) {
      ++rows_compared;
      if (i >= rows.size() || rows[i] != first_rows[i]) {
        ++rows_mismatched;
      }
    }
  };

  // Set-up is timed at least kMinSetupRepeats times per repetition, and
  // more when it is short, so its median rests on many samples; on
  // scale_sharded, whose compile is a fifth of a repetition, the floor
  // is what sets the sample count.
  constexpr int kMinSetupRepeats = 3;
  constexpr int kMaxSetupRepeats = 25;
  int setup_repeats = kMinSetupRepeats;
  const double deadline = now_seconds() + seconds;
  double iteration_s = 0.0;
  do {
    const double t0 = now_seconds();
    try {
      if (traced) {
        perfbench::TracedRep rep = perfbench::traced_rep(
            spec_path, threads, out, static_cast<int>(layers.size()),
            spans_out);
        traced_wall_s.push_back(rep.wall_s);
        layers.push_back(std::move(rep.layers));
        check_rows();
      } else {
        for (int k = 0; k < setup_repeats; ++k) {
          setup_s.push_back(timed_setup(spec_path, nullptr));
        }
      }
      const Rep rep = untraced_rep(spec_path, threads, out);
      wall_s.push_back(rep.wall_s);
      cpu_s.push_back(rep.cpu_s);
      check_rows();
      if (!setup_s.empty()) {
        setup_repeats = std::clamp(
            static_cast<int>(0.15 * rep.wall_s / median(setup_s)),
            kMinSetupRepeats, kMaxSetupRepeats);
      }
    } catch (const std::exception& e) {
      errors.push_back(e.what());
      std::cerr << "campaign_bench: repetition failed: " << e.what() << "\n";
    }
    iteration_s = now_seconds() - t0;
  } while (now_seconds() + iteration_s <= deadline);
  const double peak_rss_mib = perfbench::proc_status_mib("VmHWM");
  timed_setup(spec_path, &schedule_slots);

  std::ofstream rows_out(work / "rows.jsonl", std::ios::out | std::ios::trunc);
  for (const std::string& row : first_rows) {
    rows_out << row << "\n";
  }

  std::ofstream report(work / "report.json", std::ios::out | std::ios::trunc);
  report << "{\"traced\": " << (traced ? "true" : "false")
         << ",\n \"wall_s\": " << json_array(wall_s)
         << ",\n \"cpu_s\": " << json_array(cpu_s)
         << ",\n \"setup_s\": " << json_array(setup_s)
         << ",\n \"traced_wall_s\": " << json_array(traced_wall_s)
         << ",\n \"peak_rss_mib\": "
         << json_number(peak_rss_mib)
         << ",\n \"rows_compared\": " << rows_compared
         << ",\n \"rows_mismatched\": " << rows_mismatched
         << ",\n \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    report << (i > 0 ? ", " : "") << json_string(errors[i]);
  }
  report << "],\n \"schedule_slots\": {";
  bool first = true;
  for (const auto& [key, slots] : schedule_slots) {
    report << (first ? "" : ", ") << json_string(key) << ": " << slots;
    first = false;
  }
  report << "},\n \"layers\": [";
  for (std::size_t r = 0; r < layers.size(); ++r) {
    report << (r > 0 ? ",\n  {" : "\n  {");
    first = true;
    for (const auto& [name, value] : layers[r]) {
      report << (first ? "" : ", ") << json_string(name) << ": "
             << json_number(value);
      first = false;
    }
    report << "}";
  }
  report << "]}\n";
  return report.good() && rows_out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const otis::core::Args args(
        argc, argv, {"spec", "work", "threads", "seconds", "trace", "host"});
    if (args.has("host")) {
      print_host();
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 1;
  }
}
