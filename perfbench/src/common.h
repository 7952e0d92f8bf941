#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the repo benchmark: run options, the metric report,
// percentile helpers and process resource probes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/clock.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one workload run hands back to main: metric values by name (the
/// units live in BENCHMARK.json), the operation tally behind
/// `attempted`/`failed`, and human-readable notes.
struct Report {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  /// Records one checked operation; `ok` false counts it as failed and
  /// keeps the first few reasons as notes.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 8) notes.push_back("check failed: " + what);
    }
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Percentile by linear interpolation between closest ranks.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 50); }

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Peak resident set size of this process, MB (VmHWM).
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Microsecond counts as seconds and milliseconds.
inline double Secs(int64_t us) { return static_cast<double>(us) * 1e-6; }
inline double Millis(int64_t us) { return static_cast<double>(us) * 1e-3; }

inline double Seconds() { return Secs(dl::NowMicros()); }

/// Formats a printf-style note.
template <typename... Args>
std::string Fmt(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// One run of a workload, as dispatched from main.
Report RunTrainLocalJpeg(const RunOptions& options);
Report RunTrainS3RawShuffled(const RunOptions& options);
Report RunIngestCommitMixed(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
