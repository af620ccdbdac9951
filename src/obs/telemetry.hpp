#pragma once
/// \file telemetry.hpp
/// Run-scoped telemetry: engine probe record + time-series sampler +
/// span tracing, attached to a simulation through one nullable pointer.
///
/// Cost model: `SimConfig::telemetry` is a shared_ptr that defaults to
/// null, and every engine guards its instrumentation behind a single
/// `tel != nullptr` branch per slot -- the BENCH telemetry row verifies
/// the attached-but-disabled overhead stays <= 2% on the phased
/// SK(4,3,2)/token case. With sampling enabled the engines fill the
/// probes and emit one JSONL row every `sample_period` slots; the work
/// is proportional to network size but amortized over the period.
///
/// Determinism: probe values and timeseries rows are derived from
/// simulation state only (no RNG draws, no clocks), and the sharded
/// engine fills one EngineSample per shard that the run folds with
/// order-independent integer addition at the slot barrier -- so for a
/// fixed seed the merged probe values and the timeseries bytes are
/// identical for every thread count. Chrome-trace spans use wall-clock
/// timestamps and are exempt (diagnostics, never inputs).
///
/// Probe naming: short snake_case keys that become JSONL fields.
/// Engine-standard probes (see engine_probe_names()):
///   counters  offered, delivered, transmissions, collisions, dropped
///             (rows carry per-window deltas over the measured window)
///   gauges    backlog (queued + in flight), pending_events
///             (async calendar-queue entries; 0 on slot engines)
///   histogram occupancy (couplers bucketed by queued packets across
///             their feed VOQs; snapshot, bounds 0,1,2,4,8,16,32,64)

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"

namespace otis::obs {

/// What to record; the all-defaults config means "attached but inert"
/// (only the per-slot null/period checks run -- the BENCH mode).
struct TelemetryConfig {
  /// Slots between timeseries samples; 0 disables sampling. A row is
  /// emitted at the end of slots period-1, 2*period-1, ...
  std::int64_t sample_period = 0;
  /// Probe names to include in timeseries rows; empty = all. Unknown
  /// names are rejected when the Telemetry is built.
  std::vector<std::string> probes;
  /// JSONL output for timeseries rows; empty buffers row counts only.
  std::string timeseries_path;
  /// Chrome-trace JSON output for spans; empty disables tracing.
  std::string trace_path;

  [[nodiscard]] bool enabled() const {
    return sample_period > 0 || !trace_path.empty();
  }
  void validate() const;
};

/// The engine-standard probes at one instant. A shard fills its own
/// record and the run folds them with `+=`, element-wise integer
/// addition: order-independent, so the folded record is identical for
/// every shard partition. That needs every field to be
/// partition-additive: counters and buckets sum naturally, and a gauge
/// holds the part of its quantity the shard owns (its nodes' backlog).
struct EngineSample {
  /// Bucket i of `occupancy` counts couplers holding at most
  /// kOccupancyBounds[i] packets; the last bucket counts the rest.
  static constexpr std::array<std::int64_t, 8> kOccupancyBounds = {
      0, 1, 2, 4, 8, 16, 32, 64};
  /// The counters, in engine_probe_names() order.
  using Counters = std::array<std::int64_t, 5>;

  std::int64_t offered = 0;
  std::int64_t delivered = 0;
  std::int64_t transmissions = 0;
  std::int64_t collisions = 0;
  std::int64_t dropped = 0;
  std::int64_t backlog = 0;         ///< queued + in flight
  std::int64_t pending_events = 0;  ///< calendar entries; 0 on slot runs
  std::array<std::int64_t, kOccupancyBounds.size() + 1> occupancy{};

  [[nodiscard]] Counters counters() const {
    return {offered, delivered, transmissions, collisions, dropped};
  }
  /// Counts one coupler holding `queued` packets across its feed VOQs.
  void observe_occupancy(std::int64_t queued) {
    std::size_t bucket = 0;
    while (bucket < kOccupancyBounds.size() &&
           queued > kOccupancyBounds[bucket]) {
      ++bucket;
    }
    ++occupancy[bucket];
  }
  EngineSample& operator+=(const EngineSample& other);
  bool operator==(const EngineSample&) const = default;
};

/// The engine-standard probe names, in EngineSample's field order: the
/// timeseries keys and the `probes` allowlist's vocabulary.
[[nodiscard]] const std::vector<std::string>& engine_probe_names();

/// One run's telemetry session. Engines reach it through
/// `SimConfig::telemetry` and touch only probes(), due()/sample()/
/// finish(), and trace_sink().
class Telemetry {
 public:
  /// Standalone session owning its writer and trace sink.
  static std::shared_ptr<Telemetry> create(const TelemetryConfig& config);

  /// Campaign session sharing one writer/sink across cells. `label`
  /// tags every row (the cell id); `tid` is the span track (1 + worker
  /// index by the ChromeTraceSink convention). Either sink may be null.
  static std::shared_ptr<Telemetry> attach(
      const TelemetryConfig& config, std::shared_ptr<JsonlWriter> writer,
      std::shared_ptr<ChromeTraceSink> sink, std::string label,
      std::int32_t tid);

  [[nodiscard]] EngineSample& probes() noexcept { return probes_; }
  [[nodiscard]] const EngineSample& probes() const noexcept {
    return probes_;
  }
  [[nodiscard]] ChromeTraceSink* trace_sink() const noexcept {
    return sink_.get();
  }
  [[nodiscard]] std::int32_t tid() const noexcept { return tid_; }

  [[nodiscard]] bool sampling() const noexcept { return period_ > 0; }
  /// True when the end of `slot` is a sampling boundary.
  [[nodiscard]] bool due(std::int64_t slot) const noexcept {
    return period_ > 0 && (slot + 1) % period_ == 0;
  }
  /// Emits one timeseries row from probes() (counter fields as deltas
  /// since the previous row).
  void sample(std::int64_t slot);
  /// End of run: engines refresh the probes first, then call this with
  /// the last executed slot; emits a final row unless that slot was
  /// just sampled, and flushes the writer.
  void finish(std::int64_t last_slot);
  /// Pushes the rows sampled so far to the file. Engines call it before
  /// storing a checkpoint, so a crash that keeps the blob keeps every
  /// row below its boundary too.
  void flush();

  /// Sampler cross-row state (header flag + previous counter values),
  /// for engine checkpointing: restoring it lets a resumed run append
  /// rows to the interrupted run's stream byte-identically to an
  /// uninterrupted run (counter fields are deltas against prev_, so
  /// prev_ must survive the restart).
  [[nodiscard]] bool header_written() const noexcept {
    return header_written_;
  }
  [[nodiscard]] const EngineSample::Counters& sampler_prev() const noexcept {
    return prev_;
  }
  void restore_sampler(bool header_written,
                       const EngineSample::Counters& prev) {
    header_written_ = header_written;
    prev_ = prev;
  }

  [[nodiscard]] std::int64_t rows_sampled() const;
  /// Closes owned sinks (campaign-shared sinks are closed by their
  /// owner); call before reading the output files.
  void close();

 private:
  Telemetry(const TelemetryConfig& config,
            std::shared_ptr<JsonlWriter> writer,
            std::shared_ptr<ChromeTraceSink> sink, std::string label,
            std::int32_t tid, bool owns_sinks);

  std::int64_t period_ = 0;
  std::string label_;
  std::int32_t tid_ = 0;
  bool owns_sinks_ = false;
  bool header_written_ = false;
  EngineSample probes_;
  std::vector<bool> emit_;  ///< allowlist mask by engine_probe_names() index
  EngineSample::Counters prev_{};  ///< counters at the previous row
  std::shared_ptr<JsonlWriter> writer_;
  std::shared_ptr<ChromeTraceSink> sink_;
};

/// Emits warmup / measure / drain spans for a slotted engine run. The
/// engine calls at_slot(now) once per slot (inside its telemetry
/// branch) and finish() after the loop; boundaries are detected by
/// slot number, so the helper works for every engine and drain policy.
class WindowSpans {
 public:
  WindowSpans() = default;
  WindowSpans(ChromeTraceSink* sink, std::int32_t tid, std::int64_t warmup,
              std::int64_t horizon);

  void at_slot(std::int64_t now);
  void finish();

 private:
  ChromeTraceSink* sink_ = nullptr;
  std::int32_t tid_ = 0;
  std::int64_t warmup_ = 0;
  std::int64_t horizon_ = 0;
  std::int64_t start_us_ = -1;
  std::int64_t measure_us_ = -1;
  std::int64_t drain_us_ = -1;
};

}  // namespace otis::obs
