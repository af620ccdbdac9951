#include "workload/trace.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <utility>

#include "core/error.hpp"
#include "core/json.hpp"

namespace otis::workload {

namespace {

constexpr char kMagic[8] = {'O', 'T', 'I', 'S', 'T', 'R', 'C', '1'};

/// Explicit little-endian int64 IO: the on-disk format must not depend
/// on host byte order.
void write_i64(std::ofstream& out, std::int64_t value) {
  std::array<char, 8> bytes;
  auto v = static_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
  }
  out.write(bytes.data(), 8);
}

bool read_i64(std::ifstream& in, std::int64_t& value) {
  std::array<char, 8> bytes;
  if (!in.read(bytes.data(), 8)) {
    return false;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(bytes[static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  value = static_cast<std::int64_t>(v);
  return true;
}

/// Bytes after `in`'s read position (0 when it cannot seek). A header's
/// entry count is outside input: reserve no more than the file can
/// hold.
std::int64_t bytes_left(std::ifstream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  return here < 0 || end < here ? 0 : static_cast<std::int64_t>(end - here);
}

Trace load_binary(std::ifstream& in, const std::string& path) {
  Trace trace;
  std::int64_t count = 0;
  OTIS_REQUIRE(read_i64(in, trace.nodes) && read_i64(in, count),
               "Trace: truncated header in " + path);
  OTIS_REQUIRE(count >= 0, "Trace: negative entry count in " + path);
  constexpr std::int64_t kEntryBytes = 24;
  trace.entries.reserve(
      static_cast<std::size_t>(std::min(count, bytes_left(in) / kEntryBytes)));
  for (std::int64_t i = 0; i < count; ++i) {
    TraceEntry entry;
    OTIS_REQUIRE(read_i64(in, entry.slot) && read_i64(in, entry.source) &&
                     read_i64(in, entry.destination),
                 "Trace: truncated at entry " + std::to_string(i) + " of " +
                     std::to_string(count) + " in " + path);
    trace.entries.push_back(entry);
  }
  return trace;
}

Trace load_jsonl(std::ifstream& in, const std::string& path) {
  Trace trace;
  std::string line;
  std::int64_t line_number = 1;
  // A row that does not parse, or lacks a key, names the file and line.
  const auto on_line = [&](const auto& read) {
    try {
      read();
    } catch (const core::Error& error) {
      throw core::Error("Trace: " + path + " line " +
                        std::to_string(line_number) + ": " + error.what());
    }
  };
  OTIS_REQUIRE(static_cast<bool>(std::getline(in, line)),
               "Trace: empty trace file " + path);
  std::int64_t count = 0;
  on_line([&] {
    const core::Json header = core::Json::parse(line);
    trace.nodes = header.at("nodes").as_int();
    count = header.at("entries").as_int();
  });
  OTIS_REQUIRE(count >= 0, "Trace: negative entry count in " + path);
  constexpr std::int64_t kShortestRow = 26;  // {"slot":0,"src":0,"dst":1}
  trace.entries.reserve(
      static_cast<std::size_t>(std::min(count, bytes_left(in) / kShortestRow)));
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    on_line([&] {
      const core::Json row = core::Json::parse(line);
      // Rows carrying a "type" tag are typed metadata from the obs
      // channels (schema/sample/runtime rows); tolerate them so a trace
      // concatenated or interleaved with channel output still loads.
      // Extra fields on entry rows are ignored for the same reason.
      if (row.find("type") == nullptr) {
        trace.entries.push_back(TraceEntry{row.at("slot").as_int(),
                                           row.at("src").as_int(),
                                           row.at("dst").as_int()});
      }
    });
  }
  OTIS_REQUIRE(static_cast<std::int64_t>(trace.entries.size()) == count,
               "Trace: header announces " + std::to_string(count) +
                   " entries but " + path + " holds " +
                   std::to_string(trace.entries.size()) +
                   " (truncated file?)");
  return trace;
}

}  // namespace

void Trace::validate() const {
  OTIS_REQUIRE(nodes >= 1, "Trace: node count must be >= 1");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TraceEntry& entry = entries[i];
    OTIS_REQUIRE(entry.slot >= 0, "Trace: negative generation slot at entry " +
                                      std::to_string(i));
    OTIS_REQUIRE(entry.source >= 0 && entry.source < nodes &&
                     entry.destination >= 0 && entry.destination < nodes,
                 "Trace: endpoint out of range at entry " +
                     std::to_string(i));
    OTIS_REQUIRE(entry.source != entry.destination,
                 "Trace: source equals destination at entry " +
                     std::to_string(i));
    if (i > 0) {
      const TraceEntry& prev = entries[i - 1];
      OTIS_REQUIRE(entry.slot >= prev.slot,
                   "Trace: generation slots not non-decreasing at entry " +
                       std::to_string(i));
      OTIS_REQUIRE(entry.slot > prev.slot || entry.source > prev.source,
                   "Trace: duplicate or unsorted (slot, source) at entry " +
                       std::to_string(i));
    }
  }
}

void Trace::save_binary(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  OTIS_REQUIRE(out.good(), "Trace: cannot open " + path);
  out.write(kMagic, sizeof(kMagic));
  write_i64(out, nodes);
  write_i64(out, static_cast<std::int64_t>(entries.size()));
  for (const TraceEntry& entry : entries) {
    write_i64(out, entry.slot);
    write_i64(out, entry.source);
    write_i64(out, entry.destination);
  }
  out.flush();
  OTIS_REQUIRE(out.good(), "Trace: write to " + path + " failed");
}

void Trace::save_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  OTIS_REQUIRE(out.good(), "Trace: cannot open " + path);
  out << "{\"nodes\": " << nodes << ", \"entries\": " << entries.size()
      << "}\n";
  for (const TraceEntry& entry : entries) {
    out << "{\"slot\": " << entry.slot << ", \"src\": " << entry.source
        << ", \"dst\": " << entry.destination << "}\n";
  }
  out.flush();
  OTIS_REQUIRE(out.good(), "Trace: write to " + path + " failed");
}

Trace Trace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  OTIS_REQUIRE(in.good(), "Trace: cannot open " + path);
  std::array<char, 8> magic{};
  const bool has_magic =
      in.read(magic.data(), 8) && std::equal(magic.begin(), magic.end(),
                                             std::begin(kMagic));
  Trace trace;
  if (has_magic) {
    trace = load_binary(in, path);
  } else {
    in.close();
    std::ifstream text(path);
    OTIS_REQUIRE(text.good(), "Trace: cannot open " + path);
    trace = load_jsonl(text, path);
  }
  trace.validate();
  return trace;
}

TraceRecorder::TraceRecorder(std::int64_t nodes) : nodes_(nodes) {
  OTIS_REQUIRE(nodes >= 1, "TraceRecorder: need at least one node");
}

void TraceRecorder::record(std::int64_t slot, hypergraph::Node source,
                           hypergraph::Node destination) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_back(TraceEntry{slot, source, destination});
}

Trace TraceRecorder::trace() const {
  Trace trace;
  trace.nodes = nodes_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    trace.entries = entries_;
  }
  // Canonical order: a node generates at most one packet per slot, so
  // (slot, source) is a total key and the sorted trace is independent
  // of the recording interleaving.
  std::sort(trace.entries.begin(), trace.entries.end(),
            [](const TraceEntry& a, const TraceEntry& b) {
              return a.slot != b.slot ? a.slot < b.slot
                                      : a.source < b.source;
            });
  trace.validate();
  return trace;
}

TraceWorkload::TraceWorkload(Trace trace) : trace_(std::move(trace)) {
  trace_.validate();
  OTIS_REQUIRE(!trace_.entries.empty(),
               "TraceWorkload: trace holds no packets");
  reset();
}

void TraceWorkload::reset() {
  cursor_ = 0;
  delivered_count_ = 0;
}

void TraceWorkload::poll(std::int64_t slot,
                         std::vector<WorkloadPacket>& out) {
  // Entries are sorted by (slot, source) and ids are positional, so
  // the emission is sorted by id.
  while (cursor_ < trace_.entries.size() &&
         trace_.entries[cursor_].slot <= slot) {
    const TraceEntry& entry = trace_.entries[cursor_];
    out.push_back(WorkloadPacket{static_cast<std::int64_t>(cursor_),
                                 entry.source, entry.destination});
    ++cursor_;
  }
}

void TraceWorkload::delivered(std::int64_t id) {
  OTIS_REQUIRE(id >= 0 && id < packet_count(),
               "TraceWorkload: delivered id out of range");
  ++delivered_count_;
}

}  // namespace otis::workload
