#include "obs/runtime_stats.hpp"

#include <algorithm>
#include <sstream>

#include "core/error.hpp"
#include "obs/trace_sink.hpp"

namespace otis::obs {

RuntimeStats::RuntimeStats(std::shared_ptr<JsonlWriter> writer,
                           std::string label, bool active, bool owns_writer)
    : label_(std::move(label)),
      active_(active),
      owns_writer_(owns_writer),
      writer_(std::move(writer)) {}

std::shared_ptr<RuntimeStats> RuntimeStats::create(
    const RuntimeStatsConfig& config) {
  std::shared_ptr<JsonlWriter> writer;
  if (config.enabled()) {
    writer = std::make_shared<JsonlWriter>(config.path);
  }
  return std::shared_ptr<RuntimeStats>(new RuntimeStats(
      std::move(writer), "run", config.enabled(), /*owns_writer=*/true));
}

std::shared_ptr<RuntimeStats> RuntimeStats::attach(
    std::shared_ptr<JsonlWriter> writer, std::string label) {
  OTIS_REQUIRE(writer != nullptr, "RuntimeStats: writer must be set");
  return std::shared_ptr<RuntimeStats>(new RuntimeStats(
      std::move(writer), std::move(label), /*active=*/true,
      /*owns_writer=*/false));
}

void RuntimeStats::ensure_header() {
  // Callers hold mutex_. One schema row per session label, before its
  // first data row -- the timeseries writer's convention.
  if (header_written_ || writer_ == nullptr) {
    return;
  }
  header_written_ = true;
  std::ostringstream row;
  row << "{\"type\":\"schema\",\"channel\":\"runtime\",\"cell\":\""
      << detail::json_escaped(label_)
      << "\",\"rows\":[\"shard\",\"workers\",\"cell_summary\"],"
      << "\"note\":\"wall-clock derived; nondeterministic by design\"}";
  writer_->append(row.str());
}

void RuntimeStats::append_row(const std::string& line) {
  if (writer_ != nullptr) {
    writer_->append(line);
  }
}

void RuntimeStats::record_shards(const std::string& engine,
                                 const std::string& mode,
                                 std::int64_t wall_ns,
                                 const std::vector<ShardRuntime>& shards) {
  std::lock_guard<std::mutex> lock(mutex_);
  ensure_header();
  if (folded_.size() < shards.size()) {
    folded_.resize(shards.size());
  }
  wall_ns_ += wall_ns;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardRuntime& s = shards[i];
    ShardRuntime& f = folded_[i];
    f.barrier_wait_ns += s.barrier_wait_ns;
    f.work_ns += s.work_ns;
    f.windows += s.windows;
    f.lookahead_used += s.lookahead_used;
    f.lookahead_available += s.lookahead_available;
    f.mailbox_msgs_sent += s.mailbox_msgs_sent;
    f.mailbox_bytes_sent += s.mailbox_bytes_sent;
    f.mailbox_msgs_replayed += s.mailbox_msgs_replayed;
    f.calendar_peak = std::max(f.calendar_peak, s.calendar_peak);
    std::ostringstream row;
    row << "{\"type\":\"shard\",\"cell\":\"" << detail::json_escaped(label_)
        << "\",\"engine\":\"" << detail::json_escaped(engine)
        << "\",\"mode\":\"" << detail::json_escaped(mode)
        << "\",\"shard\":" << i << ",\"shards\":" << shards.size()
        << ",\"barrier_wait_ns\":" << s.barrier_wait_ns
        << ",\"work_ns\":" << s.work_ns << ",\"windows\":" << s.windows
        << ",\"lookahead_used\":" << s.lookahead_used
        << ",\"lookahead_available\":" << s.lookahead_available
        << ",\"mailbox_msgs_sent\":" << s.mailbox_msgs_sent
        << ",\"mailbox_bytes_sent\":" << s.mailbox_bytes_sent
        << ",\"mailbox_msgs_replayed\":" << s.mailbox_msgs_replayed
        << ",\"calendar_peak\":" << s.calendar_peak
        << ",\"wall_ns\":" << wall_ns << "}";
    append_row(row.str());
  }
}

void RuntimeStats::record_workers(
    std::int64_t wall_ns,
    const std::vector<core::WorkStealingPool::WorkerStats>& workers) {
  std::lock_guard<std::mutex> lock(mutex_);
  ensure_header();
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const core::WorkStealingPool::WorkerStats& s = workers[w];
    std::ostringstream row;
    row << "{\"type\":\"workers\",\"cell\":\"" << detail::json_escaped(label_)
        << "\",\"worker\":" << w << ",\"workers\":" << workers.size()
        << ",\"busy_ns\":" << s.busy_ns << ",\"idle_ns\":" << s.idle_ns
        << ",\"steal_ns\":" << s.steal_ns << ",\"items\":" << s.items
        << ",\"steals\":" << s.steals << ",\"wall_ns\":" << wall_ns << "}";
    append_row(row.str());
  }
}

RuntimeStats::StallSummary RuntimeStats::stall_summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StallSummary summary;
  summary.shards = static_cast<std::int64_t>(folded_.size());
  summary.wall_ns = wall_ns_;
  if (folded_.empty()) {
    return summary;
  }
  std::int64_t total_time = 0;
  std::int64_t max_wait = 0;
  for (const ShardRuntime& s : folded_) {
    summary.barrier_wait_ns += s.barrier_wait_ns;
    total_time += s.barrier_wait_ns + s.work_ns;
    max_wait = std::max(max_wait, s.barrier_wait_ns);
  }
  if (total_time > 0) {
    summary.stall_share = static_cast<double>(summary.barrier_wait_ns) /
                          static_cast<double>(total_time);
  }
  // The straggler waits least: everyone else's wait is (mostly) time
  // spent waiting for it. Blame each shard by its deficit against the
  // longest waiter and normalize.
  std::int64_t blame_total = 0;
  std::int64_t blame_max = 0;
  std::size_t blame_arg = 0;
  for (std::size_t i = 0; i < folded_.size(); ++i) {
    const std::int64_t blame = max_wait - folded_[i].barrier_wait_ns;
    blame_total += blame;
    if (blame > blame_max) {
      blame_max = blame;
      blame_arg = i;
    }
  }
  if (blame_total > 0) {
    summary.blamed_shard = static_cast<std::int64_t>(blame_arg);
    summary.blamed_share = static_cast<double>(blame_max) /
                           static_cast<double>(blame_total);
  }
  return summary;
}

void RuntimeStats::finish() {
  const StallSummary summary = stall_summary();
  std::lock_guard<std::mutex> lock(mutex_);
  if (summary.shards > 0) {
    ensure_header();
    std::ostringstream row;
    row << "{\"type\":\"cell_summary\",\"cell\":\""
        << detail::json_escaped(label_) << "\",\"shards\":" << summary.shards
        << ",\"wall_ns\":" << summary.wall_ns
        << ",\"barrier_wait_ns\":" << summary.barrier_wait_ns
        << ",\"stall_share\":" << summary.stall_share
        << ",\"blamed_shard\":" << summary.blamed_shard
        << ",\"blamed_share\":" << summary.blamed_share << "}";
    append_row(row.str());
  }
  if (writer_ != nullptr) {
    writer_->flush();
  }
}

std::int64_t RuntimeStats::rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return writer_ != nullptr ? writer_->rows() : 0;
}

void RuntimeStats::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (owns_writer_ && writer_ != nullptr) {
    writer_->close();
  }
}

}  // namespace otis::obs
