#include "obs/telemetry.hpp"

#include <utility>

#include "core/error.hpp"

namespace otis::obs {

namespace {

/// Occupancy histogram bounds: couplers bucketed by queued packets.
const std::vector<std::int64_t> kOccupancyBounds = {0, 1, 2, 4, 8, 16, 32, 64};

}  // namespace

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
  engine_.offered = probes_.counter("offered");
  engine_.delivered = probes_.counter("delivered");
  engine_.transmissions = probes_.counter("transmissions");
  engine_.collisions = probes_.counter("collisions");
  engine_.dropped = probes_.counter("dropped");
  engine_.backlog = probes_.gauge("backlog");
  engine_.pending_events = probes_.gauge("pending_events");
  engine_.occupancy = probes_.histogram("occupancy", kOccupancyBounds);
  emit_.assign(probes_.probe_count(), config.probes.empty());
  for (const std::string& name : config.probes) {
    for (ProbeId id = 0; id < probes_.probe_count(); ++id) {
      if (probes_.name(id) == name) {
        emit_[id] = true;
      }
    }
  }
  prev_.assign(probes_.probe_count(), 0);
}

void Telemetry::sample(std::int64_t slot) {
  if (writer_ == nullptr) {
    return;
  }
  if (!header_written_) {
    header_written_ = true;
    std::string header = "{\"type\":\"schema\"";
    if (!label_.empty()) {
      header += ",\"cell\":\"" + detail::json_escaped(label_) + "\"";
    }
    header += ",\"sample_period\":" + std::to_string(period_);
    header += ",\"probes\":[";
    bool first = true;
    for (ProbeId id = 0; id < probes_.probe_count(); ++id) {
      if (!emit_[id]) {
        continue;
      }
      if (!first) {
        header += ",";
      }
      first = false;
      header += "\"" + probes_.name(id) + "\"";
    }
    header += "],\"occupancy_bounds\":[";
    const std::vector<std::int64_t>& bounds =
        probes_.bounds(engine_.occupancy);
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) {
        header += ",";
      }
      header += std::to_string(bounds[i]);
    }
    header += "]}";
    writer_->append(header);
  }
  std::string row = "{\"type\":\"sample\"";
  if (!label_.empty()) {
    row += ",\"cell\":\"" + detail::json_escaped(label_) + "\"";
  }
  row += ",\"slot\":" + std::to_string(slot);
  for (ProbeId id = 0; id < probes_.probe_count(); ++id) {
    if (!emit_[id]) {
      continue;
    }
    row += ",\"" + probes_.name(id) + "\":";
    switch (probes_.kind(id)) {
      case ProbeKind::kCounter: {
        const std::int64_t value = probes_.value(id);
        row += std::to_string(value - prev_[id]);
        prev_[id] = value;
        break;
      }
      case ProbeKind::kGauge:
        row += std::to_string(probes_.value(id));
        break;
      case ProbeKind::kHistogram: {
        row += "[";
        for (std::size_t b = 0; b < probes_.bucket_count(id); ++b) {
          if (b > 0) {
            row += ",";
          }
          row += std::to_string(probes_.bucket(id, b));
        }
        row += "]";
        break;
      }
    }
  }
  row += "}";
  writer_->append(row);
}

void Telemetry::finish(std::int64_t last_slot) {
  if (sampling() && last_slot >= 0 && !due(last_slot)) {
    sample(last_slot);
  }
  if (writer_ != nullptr) {
    writer_->flush();
  }
}

std::int64_t Telemetry::rows_sampled() const {
  return writer_ == nullptr ? 0 : writer_->rows();
}

void Telemetry::close() {
  if (!owns_sinks_) {
    if (writer_ != nullptr) {
      writer_->flush();
    }
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
