#include "campaign/sink.hpp"

#include <filesystem>
#include <ios>
#include <system_error>

#include "core/error.hpp"
#include "core/table.hpp"
#include "obs/trace_sink.hpp"

namespace otis::campaign {

namespace {

using obs::detail::json_escaped;

std::ios_base::openmode file_mode(bool append) {
  return append ? (std::ios::out | std::ios::app)
                : (std::ios::out | std::ios::trunc);
}

/// Fixed-precision float text shared by both file sinks; determinism of
/// the byte stream depends on never using default operator<< for doubles.
std::string num(double value) { return core::format_double(value, 6); }

/// RFC-4180 quoting for cells that carry topology labels / cell IDs --
/// both contain commas (e.g. "SK(4,3,2)").
std::string quoted(const std::string& cell) {
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') {
      out.push_back('"');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Flushes `out` and throws unless every row reached `path`.
void flush_checked(std::ofstream& out, const char* sink,
                   const std::string& path) {
  out.flush();
  OTIS_REQUIRE(out.good(),
               std::string(sink) + ": write to \"" + path + "\" failed");
}

}  // namespace

JsonlSink::JsonlSink(const std::string& path, bool append)
    : path_(path), out_(path, file_mode(append)) {
  OTIS_REQUIRE(out_.good(), "JsonlSink: cannot open " + path);
}

void JsonlSink::consume(const CellResult& r) {
  const sim::RunMetrics& m = r.metrics;
  out_ << "{\"cell_id\": \"" << json_escaped(r.cell.id) << "\""
       << ", \"topology\": \"" << json_escaped(r.topology_label) << "\""
       << ", \"arbitration\": \""
       << sim::arbitration_name(r.cell.arbitration) << "\""
       << ", \"traffic\": \"" << json_escaped(r.cell.traffic.label()) << "\""
       << ", \"load\": " << num(r.cell.load)
       << ", \"wavelengths\": " << r.cell.wavelengths
       << ", \"routes\": \"" << sim::route_table_name(r.cell.routes) << "\""
       << ", \"timing\": \"" << json_escaped(r.cell.timing.label()) << "\""
       << ", \"workload\": \"" << json_escaped(r.cell.workload.label())
       << "\""
       << ", \"seed\": " << r.cell.seed << ", \"nodes\": " << r.nodes
       << ", \"couplers\": " << r.couplers << ", \"slots\": " << m.slots
       << ", \"offered\": " << m.offered_packets
       << ", \"delivered\": " << m.delivered_packets
       << ", \"dropped\": " << m.dropped_packets
       << ", \"collisions\": " << m.collisions
       << ", \"coupler_transmissions\": " << m.coupler_transmissions
       << ", \"backlog\": " << m.backlog
       << ", \"throughput_per_node\": " << num(m.throughput_per_node(r.nodes))
       << ", \"mean_latency\": " << num(m.latency.mean())
       << ", \"p95_latency\": " << m.latency.percentile(0.95)
       << ", \"max_latency\": " << m.latency.max()
       << ", \"coupler_utilization\": "
       << num(m.coupler_utilization(r.couplers))
       << ", \"delivered_fraction\": "
       << num(m.offered_packets > 0
                  ? static_cast<double>(m.delivered_packets) /
                        static_cast<double>(m.offered_packets)
                  : 0.0)
       << ", \"makespan\": " << m.makespan_slots << "}\n";
}

void JsonlSink::flush() { flush_checked(out_, "JsonlSink", path_); }

const std::vector<std::string>& CsvSink::columns() {
  static const std::vector<std::string> kColumns = {
      "cell_id",       "topology",    "arbitration",
      "traffic",       "load",        "wavelengths",
      "routes",        "timing",      "workload",
      "seed",          "nodes",       "couplers",
      "slots",         "offered",     "delivered",
      "dropped",       "collisions",  "coupler_transmissions",
      "backlog",       "throughput_per_node",
      "mean_latency",  "p95_latency", "max_latency",
      "coupler_utilization",          "delivered_fraction",
      "makespan"};
  return kColumns;
}

CsvSink::CsvSink(const std::string& path, bool append)
    : path_(path), out_(path, file_mode(append)) {
  OTIS_REQUIRE(out_.good(), "CsvSink: cannot open " + path);
  // Append mode still needs the header when nothing was written yet
  // (e.g. --resume pointed at a fresh directory); a headerless CSV
  // shifts every column for DictReader-style consumers.
  std::error_code ec;
  const auto existing = std::filesystem::file_size(path, ec);
  if (!append || ec || existing == 0) {
    const std::vector<std::string>& cols = columns();
    for (std::size_t i = 0; i < cols.size(); ++i) {
      out_ << (i > 0 ? "," : "") << cols[i];
    }
    out_ << "\n";
  }
}

void CsvSink::consume(const CellResult& r) {
  const sim::RunMetrics& m = r.metrics;
  out_ << quoted(r.cell.id) << "," << quoted(r.topology_label) << ","
       << sim::arbitration_name(r.cell.arbitration) << ","
       << quoted(r.cell.traffic.label()) << "," << num(r.cell.load) << ","
       << r.cell.wavelengths << "," << sim::route_table_name(r.cell.routes)
       << "," << quoted(r.cell.timing.label()) << ","
       << quoted(r.cell.workload.label()) << "," << r.cell.seed << ","
       << r.nodes << ","
       << r.couplers << "," << m.slots << "," << m.offered_packets << ","
       << m.delivered_packets << "," << m.dropped_packets << ","
       << m.collisions << "," << m.coupler_transmissions << "," << m.backlog
       << "," << num(m.throughput_per_node(r.nodes)) << ","
       << num(m.latency.mean()) << "," << m.latency.percentile(0.95) << ","
       << m.latency.max() << "," << num(m.coupler_utilization(r.couplers))
       << ","
       << num(m.offered_packets > 0
                  ? static_cast<double>(m.delivered_packets) /
                        static_cast<double>(m.offered_packets)
                  : 0.0)
       << "," << m.makespan_slots << "\n";
}

void CsvSink::flush() { flush_checked(out_, "CsvSink", path_); }

void AggregateSink::consume(const CellResult& r) {
  fold(r.topology_label, sim::arbitration_name(r.cell.arbitration),
       r.cell.traffic.label(), r.cell.load, r.cell.wavelengths,
       r.cell.routes, r.cell.timing.label(), r.cell.workload.label(),
       r.nodes, r.couplers,
       sim::SweepPoint::from_trial(r.metrics, r.cell.load, r.nodes,
                                   r.couplers));
}

void AggregateSink::fold(const std::string& topology,
                         const std::string& arbitration,
                         const std::string& traffic, double load,
                         std::int64_t wavelengths, sim::RouteTable routes,
                         const std::string& timing,
                         const std::string& workload, std::int64_t nodes,
                         std::int64_t couplers,
                         const sim::SweepPoint& trial) {
  // Loads are matched through their emitted 6-decimal form, not exact
  // double equality: resumed trials arrive round-tripped through the
  // JSONL formatting and must land in the same group as live ones.
  const std::string load_key = num(load);
  for (Group& group : groups_) {
    if (group.topology == topology && group.arbitration == arbitration &&
        group.traffic == traffic && num(group.load) == load_key &&
        group.wavelengths == wavelengths && group.routes == routes &&
        group.timing == timing && group.workload == workload) {
      group.point.merge(trial);
      return;
    }
  }
  Group group;
  group.topology = topology;
  group.arbitration = arbitration;
  group.traffic = traffic;
  group.load = load;
  group.wavelengths = wavelengths;
  group.routes = routes;
  group.timing = timing;
  group.workload = workload;
  group.nodes = nodes;
  group.couplers = couplers;
  group.point = trial;
  groups_.push_back(std::move(group));
}

void AggregateSink::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  OTIS_REQUIRE(out.good(), "AggregateSink: cannot open " + path);
  out << "topology,arbitration,traffic,load,wavelengths,routes,timing,"
         "workload,trials,throughput_per_node,throughput_stddev,"
         "mean_latency,mean_latency_stddev,p95_latency,p95_latency_stddev,"
         "coupler_utilization,coupler_utilization_stddev,collision_rate,"
         "collision_rate_stddev,delivered_fraction,"
         "delivered_fraction_stddev,makespan,makespan_stddev\n";
  for (const Group& g : groups_) {
    const sim::SweepPoint& p = g.point;
    out << quoted(g.topology) << "," << g.arbitration << ","
        << quoted(g.traffic) << "," << num(g.load) << ","
        << g.wavelengths << "," << sim::route_table_name(g.routes) << ","
        << quoted(g.timing) << "," << quoted(g.workload) << ","
        << p.trials << ","
        << num(p.throughput_per_node) << "," << num(p.throughput_stddev)
        << "," << num(p.mean_latency) << "," << num(p.mean_latency_stddev)
        << "," << num(p.p95_latency) << "," << num(p.p95_latency_stddev)
        << "," << num(p.coupler_utilization) << ","
        << num(p.coupler_utilization_stddev) << "," << num(p.collision_rate)
        << "," << num(p.collision_rate_stddev) << ","
        << num(p.delivered_fraction) << ","
        << num(p.delivered_fraction_stddev) << "," << num(p.makespan) << ","
        << num(p.makespan_stddev) << "\n";
  }
  out.close();
  OTIS_REQUIRE(out.good(), "AggregateSink: write to \"" + path + "\" failed");
}

}  // namespace otis::campaign
