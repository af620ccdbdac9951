#pragma once
/// \file trace_sink.hpp
/// Chrome-trace-format span export (chrome://tracing / Perfetto), and
/// the JSONL writer the timeseries and runtime channels share.
///
/// ChromeTraceSink buffers complete ("ph":"X") events and writes one
/// `{"traceEvents": [...]}` JSON document on close(), which both the
/// legacy chrome://tracing viewer and https://ui.perfetto.dev load
/// directly. Timestamps are microseconds on a steady clock whose epoch
/// is the sink's construction, so every span in one campaign shares a
/// timeline. The sink is thread-safe (campaign workers emit
/// concurrently); events are sorted by (pid, tid, ts) at close so the
/// output is stable for tooling even though arrival order races.
///
/// Track convention: pid 0 always; tid 0 is the orchestrator
/// (campaign expansion, topology compilation, standalone runs), tid
/// 1 + w is campaign worker w. Within one tid, spans strictly nest --
/// scripts/check_trace.py enforces this on CI artifacts.
///
/// Wall-clock timestamps are inherently nondeterministic; traces are
/// diagnostics, never inputs, and the determinism guarantees cover
/// RunMetrics / probe values / timeseries rows only.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace otis::obs {

namespace detail {
/// Minimal JSON string escape (quotes, backslashes, control bytes);
/// shared by the trace and JSONL writers.
[[nodiscard]] std::string json_escaped(const std::string& text);
}  // namespace detail

/// Thread-safe append-only JSONL stream of both observability channels
/// (timeseries rows and runtime rows), shared across a campaign's cells:
/// every row carries its cell id. The file is truncated at open unless
/// `append` is set (a resumed campaign's timeseries). An empty path
/// counts rows without writing -- the bench's discard mode. close()
/// throws core::Error naming the file when any row could not be
/// written.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::string path, bool append = false);

  void append(const std::string& line);
  void flush();
  void close();
  [[nodiscard]] std::int64_t rows() const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::int64_t rows_ = 0;
};

/// One buffered complete event.
struct TraceEvent {
  std::string name;
  std::string category;
  std::int64_t ts_us = 0;   ///< start, microseconds since sink epoch
  std::int64_t dur_us = 0;  ///< duration, microseconds
  std::int32_t tid = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

class ChromeTraceSink {
 public:
  /// Events are written to `path` on close() (and from the destructor
  /// if close() was never called, which prints a failed write to
  /// stderr instead of throwing it).
  explicit ChromeTraceSink(std::string path);
  ~ChromeTraceSink();

  ChromeTraceSink(const ChromeTraceSink&) = delete;
  ChromeTraceSink& operator=(const ChromeTraceSink&) = delete;

  /// Microseconds since the sink's epoch (monotone).
  [[nodiscard]] std::int64_t now_us() const;

  void emit(TraceEvent event);

  /// Sorts, writes, and closes the file; idempotent. Throws core::Error
  /// naming the file when it cannot be written.
  void close();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t event_count() const;

 private:
  std::string path_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  bool closed_ = false;
};

/// RAII complete-event span: records now_us() at construction and
/// emits on destruction (or end()). A default-constructed / null-sink
/// span is inert, so call sites need no branching.
class Span {
 public:
  Span() = default;
  Span(ChromeTraceSink* sink, std::int32_t tid, std::string name,
       std::string category,
       std::vector<std::pair<std::string, std::string>> args = {});
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { swap(other); }
  Span& operator=(Span&& other) noexcept {
    end();
    swap(other);
    return *this;
  }

  /// Emits the event now; further calls are no-ops.
  void end();

 private:
  void swap(Span& other) noexcept;

  ChromeTraceSink* sink_ = nullptr;
  std::int32_t tid_ = 0;
  std::int64_t start_us_ = 0;
  std::string name_;
  std::string category_;
  std::vector<std::pair<std::string, std::string>> args_;
};

}  // namespace otis::obs
