#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

// The benchmark's own span recorder. The traced run wraps calls into a
// layer's public functions in a span, and per-layer metrics are aggregated
// from the spans' durations by name. Each thread appends to a buffer of its
// own. Untraced runs leave the log disabled, so a span costs one relaxed
// load. The program's own obs::TraceRecorder is never enabled.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

namespace perfbench {

struct Span {
  const char* name;  // "<layer>.<op>", a string literal
  int64_t duration_us;
};

class SpanLog {
 public:
  static SpanLog& Global() {
    static SpanLog* log = new SpanLog();
    return *log;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(const Span& span) { ThreadBuffer().push_back(span); }

  /// Durations (in `scale` units per microsecond) of every span named
  /// `name` recorded so far. Call only while no thread is recording.
  std::vector<double> Durations(const std::string& name, double scale) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      for (const Span& s : *buffer) {
        if (name == s.name) {
          out.push_back(static_cast<double>(s.duration_us) * scale);
        }
      }
    }
    return out;
  }

 private:
  std::vector<Span>& ThreadBuffer() {
    thread_local std::vector<Span>* buffer = nullptr;
    if (buffer == nullptr) {
      auto owned = std::make_unique<std::vector<Span>>();
      owned->reserve(1024);
      buffer = owned.get();
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::move(owned));
    }
    return *buffer;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span around one call into a layer. Inert when the log is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(SpanLog::Global().enabled() ? name : nullptr),
        start_us_(name_ != nullptr ? dl::NowMicros() : 0) {}
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    SpanLog::Global().Record({name_, dl::NowMicros() - start_us_});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t start_us_;
};

/// Durations (in `scale` units per microsecond) of every span named `name`.
inline std::vector<double> SpanDurations(const std::string& name,
                                         double scale = 1.0) {
  return SpanLog::Global().Durations(name, scale);
}

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
