#include "obs/telemetry.hpp"

#include <utility>

#include "core/error.hpp"

namespace otis::obs {

namespace {

/// "a,b,c" for `values`.
template <class Values>
std::string joined(const Values& values) {
  std::string out;
  for (const std::int64_t value : values) {
    if (!out.empty()) {
      out += ",";
    }
    out += std::to_string(value);
  }
  return out;
}

}  // namespace

EngineSample& EngineSample::operator+=(const EngineSample& other) {
  offered += other.offered;
  delivered += other.delivered;
  transmissions += other.transmissions;
  collisions += other.collisions;
  dropped += other.dropped;
  backlog += other.backlog;
  pending_events += other.pending_events;
  for (std::size_t i = 0; i < occupancy.size(); ++i) {
    occupancy[i] += other.occupancy[i];
  }
  return *this;
}

void TelemetryConfig::validate() const {
  OTIS_REQUIRE(sample_period >= 0,
               "TelemetryConfig: sample_period must be >= 0");
  OTIS_REQUIRE(sample_period > 0 || timeseries_path.empty(),
               "TelemetryConfig: timeseries_path needs sample_period > 0");
  for (const std::string& name : probes) {
    bool known = false;
    for (const std::string& candidate : engine_probe_names()) {
      if (candidate == name) {
        known = true;
        break;
      }
    }
    OTIS_REQUIRE(known,
                 "TelemetryConfig: unknown probe \"" + name + "\" in the "
                 "allowlist (see engine_probe_names())");
  }
}

const std::vector<std::string>& engine_probe_names() {
  static const std::vector<std::string> kNames = {
      "offered",  "delivered",      "transmissions", "collisions",
      "dropped",  "backlog",        "pending_events", "occupancy"};
  return kNames;
}

// ------------------------------------------------------------- Telemetry

std::shared_ptr<Telemetry> Telemetry::create(const TelemetryConfig& config) {
  config.validate();
  std::shared_ptr<JsonlWriter> writer;
  if (config.sample_period > 0) {
    writer = std::make_shared<JsonlWriter>(config.timeseries_path);
  }
  std::shared_ptr<ChromeTraceSink> sink;
  if (!config.trace_path.empty()) {
    sink = std::make_shared<ChromeTraceSink>(config.trace_path);
  }
  return std::shared_ptr<Telemetry>(new Telemetry(
      config, std::move(writer), std::move(sink), "", 0, /*owns_sinks=*/true));
}

std::shared_ptr<Telemetry> Telemetry::attach(
    const TelemetryConfig& config, std::shared_ptr<JsonlWriter> writer,
    std::shared_ptr<ChromeTraceSink> sink, std::string label,
    std::int32_t tid) {
  config.validate();
  if (config.sample_period <= 0) {
    writer = nullptr;
  }
  return std::shared_ptr<Telemetry>(
      new Telemetry(config, std::move(writer), std::move(sink),
                    std::move(label), tid, /*owns_sinks=*/false));
}

Telemetry::Telemetry(const TelemetryConfig& config,
                     std::shared_ptr<JsonlWriter> writer,
                     std::shared_ptr<ChromeTraceSink> sink, std::string label,
                     std::int32_t tid, bool owns_sinks)
    : period_(config.sample_period),
      label_(std::move(label)),
      tid_(tid),
      owns_sinks_(owns_sinks),
      writer_(std::move(writer)),
      sink_(std::move(sink)) {
  const std::vector<std::string>& names = engine_probe_names();
  emit_.assign(names.size(), config.probes.empty());
  for (const std::string& name : config.probes) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) {
        emit_[i] = true;
      }
    }
  }
}

void Telemetry::sample(std::int64_t slot) {
  if (writer_ == nullptr) {
    return;
  }
  const std::vector<std::string>& names = engine_probe_names();
  if (!header_written_) {
    header_written_ = true;
    std::string header = "{\"type\":\"schema\"";
    if (!label_.empty()) {
      header += ",\"cell\":\"" + detail::json_escaped(label_) + "\"";
    }
    header += ",\"sample_period\":" + std::to_string(period_);
    header += ",\"probes\":[";
    bool first = true;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (!emit_[i]) {
        continue;
      }
      if (!first) {
        header += ",";
      }
      first = false;
      header += "\"" + names[i] + "\"";
    }
    header += "],\"occupancy_bounds\":[" +
              joined(EngineSample::kOccupancyBounds) + "]}";
    writer_->append(header);
  }
  std::string row = "{\"type\":\"sample\"";
  if (!label_.empty()) {
    row += ",\"cell\":\"" + detail::json_escaped(label_) + "\"";
  }
  row += ",\"slot\":" + std::to_string(slot);
  // Field i of the row is names[i]: the counters as deltas, then the
  // two gauges, then the occupancy buckets.
  const EngineSample::Counters counters = probes_.counters();
  const std::array<std::int64_t, 2> gauges = {probes_.backlog,
                                              probes_.pending_events};
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!emit_[i]) {
      continue;
    }
    row += ",\"" + names[i] + "\":";
    if (i < counters.size()) {
      row += std::to_string(counters[i] - prev_[i]);
    } else if (i < counters.size() + gauges.size()) {
      row += std::to_string(gauges[i - counters.size()]);
    } else {
      row += "[" + joined(probes_.occupancy) + "]";
    }
  }
  prev_ = counters;
  row += "}";
  writer_->append(row);
}

void Telemetry::finish(std::int64_t last_slot) {
  if (sampling() && last_slot >= 0 && !due(last_slot)) {
    sample(last_slot);
  }
  flush();
}

void Telemetry::flush() {
  if (writer_ != nullptr) {
    writer_->flush();
  }
}

std::int64_t Telemetry::rows_sampled() const {
  return writer_ == nullptr ? 0 : writer_->rows();
}

void Telemetry::close() {
  if (!owns_sinks_) {
    flush();
    return;
  }
  if (writer_ != nullptr) {
    writer_->close();
  }
  if (sink_ != nullptr) {
    sink_->close();
  }
}

// ----------------------------------------------------------- WindowSpans

WindowSpans::WindowSpans(ChromeTraceSink* sink, std::int32_t tid,
                         std::int64_t warmup, std::int64_t horizon)
    : sink_(sink), tid_(tid), warmup_(warmup), horizon_(horizon) {}

void WindowSpans::at_slot(std::int64_t now) {
  if (sink_ == nullptr) {
    return;
  }
  if (start_us_ < 0) {
    start_us_ = sink_->now_us();
  }
  if (now == warmup_ && measure_us_ < 0) {
    measure_us_ = sink_->now_us();
  }
  if (now == horizon_ && drain_us_ < 0) {
    drain_us_ = sink_->now_us();
  }
}

void WindowSpans::finish() {
  if (sink_ == nullptr || start_us_ < 0) {
    return;
  }
  const std::int64_t end_us = sink_->now_us();
  auto emit = [&](const char* name, std::int64_t from, std::int64_t to) {
    TraceEvent event;
    event.name = name;
    event.category = "engine";
    event.ts_us = from;
    event.dur_us = to - from;
    event.tid = tid_;
    sink_->emit(std::move(event));
  };
  const std::int64_t measure_from = measure_us_ >= 0 ? measure_us_ : end_us;
  if (warmup_ > 0) {
    emit("warmup", start_us_, measure_from);
  }
  emit("measure", measure_from, drain_us_ >= 0 ? drain_us_ : end_us);
  if (drain_us_ >= 0) {
    emit("drain", drain_us_, end_us);
  }
  sink_ = nullptr;
}

}  // namespace otis::obs
