#include "obs/trace_sink.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>

#include "core/error.hpp"

namespace otis::obs {

namespace detail {

std::string json_escaped(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace detail

namespace {

using detail::json_escaped;

}  // namespace

JsonlWriter::JsonlWriter(std::string path, bool append)
    : path_(std::move(path)) {
  if (!path_.empty()) {
    out_.open(path_, append ? std::ios::app : std::ios::trunc);
    OTIS_REQUIRE(out_.good(), "JsonlWriter: cannot open \"" + path_ +
                                  "\" for writing");
  }
}

void JsonlWriter::append(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++rows_;
  if (out_.is_open()) {
    out_ << line << "\n";
  }
}

void JsonlWriter::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_.is_open()) {
    out_.flush();
  }
}

void JsonlWriter::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (out_.is_open()) {
    out_.close();
    OTIS_REQUIRE(out_.good(),
                 "JsonlWriter: write to \"" + path_ + "\" failed");
  }
}

std::int64_t JsonlWriter::rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

ChromeTraceSink::ChromeTraceSink(std::string path)
    : path_(std::move(path)), epoch_(std::chrono::steady_clock::now()) {
  OTIS_REQUIRE(!path_.empty(), "ChromeTraceSink: path must be set");
}

ChromeTraceSink::~ChromeTraceSink() {
  // A destructor must not throw: an explicit close() throws the error,
  // an implicit one prints it.
  try {
    close();
  } catch (const core::Error& error) {
    std::cerr << error.what() << '\n';
  }
}

std::int64_t ChromeTraceSink::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void ChromeTraceSink::emit(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!closed_) {
    events_.push_back(std::move(event));
  }
}

std::size_t ChromeTraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void ChromeTraceSink::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) {
    return;
  }
  closed_ = true;
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) {
                       return a.tid < b.tid;
                     }
                     if (a.ts_us != b.ts_us) {
                       return a.ts_us < b.ts_us;
                     }
                     // Outer spans first at equal start, so a stack-based
                     // nesting check sees parents before children.
                     return a.dur_us > b.dur_us;
                   });
  std::ofstream out(path_, std::ios::trunc);
  OTIS_REQUIRE(out.good(),
               "ChromeTraceSink: cannot open \"" + path_ + "\" for writing");
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0) {
      out << ",";
    }
    out << "\n{\"name\":\"" << json_escaped(e.name) << "\",\"cat\":\""
        << json_escaped(e.category) << "\",\"ph\":\"X\",\"ts\":" << e.ts_us
        << ",\"dur\":" << e.dur_us << ",\"pid\":0,\"tid\":" << e.tid;
    if (!e.args.empty()) {
      out << ",\"args\":{";
      for (std::size_t a = 0; a < e.args.size(); ++a) {
        if (a > 0) {
          out << ",";
        }
        out << "\"" << json_escaped(e.args[a].first) << "\":\""
            << json_escaped(e.args[a].second) << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
  // Close before checking: a trace smaller than the stream's buffer is
  // written only when the buffer is flushed.
  out.close();
  OTIS_REQUIRE(out.good(), "ChromeTraceSink: write to \"" + path_ +
                               "\" failed");
}

Span::Span(ChromeTraceSink* sink, std::int32_t tid, std::string name,
           std::string category,
           std::vector<std::pair<std::string, std::string>> args)
    : sink_(sink),
      tid_(tid),
      name_(std::move(name)),
      category_(std::move(category)),
      args_(std::move(args)) {
  if (sink_ != nullptr) {
    start_us_ = sink_->now_us();
  }
}

void Span::end() {
  if (sink_ == nullptr) {
    return;
  }
  TraceEvent event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  event.ts_us = start_us_;
  event.dur_us = sink_->now_us() - start_us_;
  event.tid = tid_;
  event.args = std::move(args_);
  sink_->emit(std::move(event));
  sink_ = nullptr;
}

void Span::swap(Span& other) noexcept {
  std::swap(sink_, other.sink_);
  std::swap(tid_, other.tid_);
  std::swap(start_us_, other.start_us_);
  name_.swap(other.name_);
  category_.swap(other.category_);
  args_.swap(other.args_);
}

}  // namespace otis::obs
