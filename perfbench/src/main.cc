// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints notes followed by one
// `PERFBENCH_RESULT {...}` line with the operation tally and every metric
// it measured; perfbench/run.py turns that line into the benchmark result.
// With --trace 0 the metrics are the end-to-end ones, from an untraced
// run. With --trace 1 the workload runs untraced and then traced, and the
// metrics are the per-layer ones plus the tracing overhead.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "timing_store.h"
#include "util/crc32.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// A provider that records which virtuals reached it.
class RecordingStore : public dl::storage::StorageProvider {
 public:
  dl::Result<dl::Slice> Get(std::string_view) override {
    hits += "get,";
    return dl::Slice();
  }
  dl::Result<dl::Slice> GetRange(std::string_view, uint64_t,
                                 uint64_t) override {
    hits += "range,";
    return dl::Slice();
  }
  dl::Status Put(std::string_view, dl::ByteView) override {
    hits += "put,";
    return dl::Status::OK();
  }
  dl::Status PutDurable(std::string_view, dl::ByteView) override {
    hits += "durable,";
    return dl::Status::OK();
  }
  bool atomic_durable_puts() const override { return true; }
  void Invalidate(std::string_view) override { hits += "invalidate,"; }
  dl::Status Delete(std::string_view) override {
    hits += "delete,";
    return dl::Status::OK();
  }
  dl::Result<bool> Exists(std::string_view) override {
    hits += "exists,";
    return true;
  }
  dl::Result<uint64_t> SizeOf(std::string_view) override {
    hits += "size,";
    return uint64_t{0};
  }
  dl::Result<std::vector<std::string>> ListPrefix(std::string_view) override {
    hits += "list,";
    return std::vector<std::string>{};
  }
  std::string name() const override { return "recording"; }

  std::string hits;
};

/// The decorator must hand every StorageProvider virtual to its base;
/// otherwise the measured program would differ from the real one.
void CheckDecoratorForwards(Report* report) {
  auto base = std::make_shared<RecordingStore>();
  TimingStore store(base);
  (void)store.Get("k");
  (void)store.GetRange("k", 0, 1);
  (void)store.Put("k", dl::ByteView());
  (void)store.PutDurable("k", dl::ByteView());
  store.Invalidate("k");
  (void)store.Delete("k");
  (void)store.Exists("k");
  (void)store.SizeOf("k");
  (void)store.ListPrefix("k");
  report->Check(base->hits ==
                    "get,range,put,durable,invalidate,delete,exists,size,list,",
                "decorator forwards every call, got " + base->hits);
  report->Check(store.atomic_durable_puts(),
                "decorator forwards atomic_durable_puts");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train-local-jpeg|"
               "train-s3-raw-shuffled|ingest-commit-mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  Report (*run)(const RunOptions&) = nullptr;
  if (options.workload == "train-local-jpeg") run = RunTrainLocalJpeg;
  if (options.workload == "train-s3-raw-shuffled") run = RunTrainS3RawShuffled;
  if (options.workload == "ingest-commit-mixed") run = RunIngestCommitMixed;
  if (run == nullptr) return Usage();

  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("nproc %u build %s crc32c %s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              std::string(dl::Crc32cBackend()).c_str());
  std::fflush(stdout);

  Report report = run(options);
  CheckDecoratorForwards(&report);
  for (const auto& note : report.notes) std::printf("  %s\n", note.c_str());
  std::printf("PERFBENCH_RESULT {\"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const char* sep = "";
  for (const auto& [name, value] : report.metrics) {
    if (std::isfinite(value)) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    } else {
      std::printf("%s\"%s\": null", sep, name.c_str());
    }
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
