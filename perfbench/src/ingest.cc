// The write-path workload: versioned ingest beside relabels and snapshot
// queries. One closed-loop writer appends 2048 lossy images in 64-row
// transactions; one open-loop relabeler rewrites a 256-row label range
// every 80 ms, far enough behind the tail that its publish rebases rather
// than conflicts; one open-loop reader runs a TQL filter against the
// sealed head every 10 ms. Open-loop latencies are timed from when the
// operation was due.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "layers.h"
#include "obs/metrics.h"
#include "sim/network_model.h"
#include "span_log.h"
#include "timing_store.h"
#include "tql/executor.h"
#include "tql/parser.h"
#include "tsf/dataset.h"
#include "util/rng.h"
#include "version/mvcc.h"
#include "version/version_control.h"

namespace perfbench {
namespace {

constexpr uint64_t kSeedRows = 512;
constexpr uint64_t kAppendRows = 64;
// The writer stops after this many transactions, so every run commits the
// same data and peak memory does not follow the run's throughput. At about
// 140 rows/s it needs some 15 of the 20 measured seconds.
constexpr uint64_t kAppendTxns = 32;
constexpr uint64_t kRelabelRows = 256;
// 256 int32 labels per chunk: relabel ranges and the appended tail never
// share a chunk, so their conflict footprints are disjoint.
constexpr uint64_t kLabelChunkBytes = kRelabelRows * sizeof(int32_t);
// Every 40 ms the relabels queue behind the writer's publishes faster than
// they drain (start lag grows past a second in 10 s); at 80 ms the backlog
// stays bounded.
constexpr int64_t kRelabelPeriodUs = 80000;
constexpr int64_t kQueryPeriodUs = 10000;
constexpr int kSetupBuilds = 3;
constexpr int kQueryThreshold = 100;
constexpr char kQuery[] = "SELECT * FROM ds WHERE labels < 100";

uint64_t TxnCounter(const char* name) {
  return dl::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

struct TxnCounters {
  uint64_t conflicts, retries, fast, rebased;
  static TxnCounters Now() {
    return {TxnCounter("version.txn.conflicts"),
            TxnCounter("version.txn.retries"),
            TxnCounter("version.txn.publish_fast_path"),
            TxnCounter("version.txn.publish_rebased")};
  }
};

/// Timing of one CommitWithTxnRetries call, split at the body callback:
/// begin = until the (last) body started, less earlier attempts' bodies;
/// publish = after the last body returned.
struct TxnTiming {
  double total_ms = 0, begin_ms = 0, body_ms = 0, publish_ms = 0;
};

dl::Result<std::string> TimedCommit(
    std::shared_ptr<dl::version::VersionControl> vc, const std::string& owner,
    const std::function<dl::Status(dl::tsf::Dataset&)>& body,
    const std::string& message, uint64_t retry_seed, TxnTiming* timing) {
  dl::version::TxnRetryOptions ropts;
  ropts.max_attempts = 64;
  ropts.seed = retry_seed;
  int64_t body_us = 0, last_body_end = 0;
  const int64_t start = dl::NowMicros();
  auto landed = dl::version::CommitWithTxnRetries(
      vc, {.owner = owner},
      [&](dl::tsf::Dataset& ds) {
        const int64_t t0 = dl::NowMicros();
        dl::Status st = body(ds);
        last_body_end = dl::NowMicros();
        body_us += last_body_end - t0;
        return st;
      },
      message, ropts);
  const int64_t end = dl::NowMicros();
  timing->total_ms = Millis(end - start);
  timing->body_ms = Millis(body_us);
  timing->publish_ms =
      last_body_end > 0 ? Millis(end - last_body_end) : 0;
  timing->begin_ms = timing->total_ms - timing->body_ms - timing->publish_ms;
  return landed;
}

std::map<std::string, dl::tsf::Sample> MakeRow(dl::sim::SampleSpec s,
                                               uint64_t index) {
  std::map<std::string, dl::tsf::Sample> row;
  row["images"] = dl::tsf::Sample(dl::tsf::DType::kUInt8,
                                  dl::tsf::TensorShape(s.shape),
                                  std::move(s.pixels));
  row["labels"] = dl::tsf::Sample::Scalar(s.label, dl::tsf::DType::kInt32);
  row["row_id"] = dl::tsf::Sample::Scalar(static_cast<int64_t>(index),
                                          dl::tsf::DType::kInt64);
  return row;
}

class IngestRun {
 public:
  IngestRun(const RunOptions& options, Report* report)
      : options_(options),
        report_(report),
        gen_(ImageGenerator(options.seed)) {}

  /// Builds the seeded versioned dataset kSetupBuilds times, keeping the
  /// last; returns the median build time (program time only).
  bool Setup() {
    std::vector<double> builds;
    for (int b = 0; b < kSetupBuilds; ++b) {
      vc_.reset();
      store_.reset();
      auto built = Build();
      report_->Check(built.ok(), "seed build: " + built.status().ToString());
      if (!built.ok()) return false;
      builds.push_back(*built);
    }
    setup_s_ = Median(builds);
    return true;
  }

  /// Runs writer, relabeler and reader for `seconds`.
  void Measure(double seconds) {
    const StoreCounts counts0 = store_->counts();
    const TxnCounters txn0 = TxnCounters::Now();
    const int64_t start = dl::NowMicros();
    const int64_t deadline =
        start + static_cast<int64_t>(seconds * 1e6);
    std::thread writer([&] { WriterLoop(deadline); });
    std::thread relabeler([&] { RelabelLoop(start, deadline); });
    std::thread reader([&] { ReaderLoop(start, deadline); });
    writer.join();
    relabeler.join();
    reader.join();
    wall_s_ = Secs(dl::NowMicros() - start);
    counts_ = store_->counts() - counts0;
    const TxnCounters txn1 = TxnCounters::Now();
    txn_ = {txn1.conflicts - txn0.conflicts, txn1.retries - txn0.retries,
            txn1.fast - txn0.fast, txn1.rebased - txn0.rebased};
  }

  /// Checks the final head and every query result. Its reads go through
  /// the decorator, so a traced run calls it only after the per-layer
  /// metrics are taken and the span log is off.
  void CheckOutputs() {
    CheckFinalHead();
    CheckQueries();
  }

  void SetEndToEnd(Report* out) const {
    out->Set("setup_s", setup_s_);
    out->Set("items_per_s", items_per_s());
    out->Set("cpu_ms_per_item",
             Sum(append_cpu_ms_) / static_cast<double>(appended_));
    out->Set("peak_rss_mb", PeakRssMb());
  }

  void SetPerLayer(Report* out) const {
    const double rows = static_cast<double>(std::max<uint64_t>(appended_, 1));
    const auto gets_us = SpanDurations("storage.get");
    const double get_busy = Sum(gets_us) * 1e-6;
    out->Set("storage.get.count", static_cast<double>(counts_.gets) / rows);
    out->Set("storage.get.bytes",
             static_cast<double>(counts_.get_bytes) / rows);
    out->Set("storage.get.busy_s", get_busy / rows);
    out->Set("storage.get.p50_us", Percentile(gets_us, 50));
    out->Set("storage.get.p95_us", Percentile(gets_us, 95));
    out->Set("storage.get.inflight_mean", get_busy / wall_s_);
    out->Set("storage.read_amplification",
             static_cast<double>(counts_.get_bytes) /
                 static_cast<double>(std::max<uint64_t>(scanned_bytes_, 1)));
    out->Set("storage.put.count", static_cast<double>(counts_.puts) / rows);
    out->Set("storage.put.bytes",
             static_cast<double>(counts_.put_bytes) / rows);
    out->Set("storage.put.busy_s",
             Sum(SpanDurations("storage.put")) * 1e-6 / rows);
    out->Set("storage.write_amplification",
             static_cast<double>(counts_.put_bytes) /
                 static_cast<double>(std::max<uint64_t>(user_bytes_, 1)));
    std::vector<double> begin, body, publish;
    for (const auto& t : append_timing_) {
      begin.push_back(t.begin_ms);
      body.push_back(t.body_ms);
      publish.push_back(t.publish_ms);
    }
    out->Set("version.txn.begin_ms", Median(begin));
    out->Set("version.txn.body_ms", Median(body));
    out->Set("version.txn.publish_ms", Median(publish));
    const uint64_t published = txn_.fast + txn_.rebased;
    out->Set("version.txn.rebased_share",
             published > 0 ? static_cast<double>(txn_.rebased) /
                                 static_cast<double>(published)
                           : 0);
    out->Set("version.txn.conflicts", static_cast<double>(txn_.conflicts));
    out->Set("version.txn.retries", static_cast<double>(txn_.retries));
    out->Set("version.commit.append_p50_ms", Median(append_ms_));
    out->Set("version.commit.relabel_p50_ms", Percentile(relabel_ms_, 50));
    out->Set("version.commit.relabel_p90_ms", Percentile(relabel_ms_, 90));
    out->Set("version.commit.relabel_samples",
             static_cast<double>(relabel_ms_.size()));
    out->Set("tql.query_p50_ms", Percentile(query_ms_, 50));
    out->Set("tql.query_p99_ms", Percentile(query_ms_, 99));
    out->Set("tql.query_samples", static_cast<double>(query_ms_.size()));
    out->Set("tql.parse_us", Median(SpanDurations("tql.parse")));
    out->Set("tql.execute_ms", Median(SpanDurations("tql.execute", 1e-3)));
    out->Set("tql.snapshot_open_ms",
             Median(SpanDurations("tql.snapshot_open", 1e-3)));
  }

  void Notes(const char* phase, Report* out) const {
    out->Note(Fmt("%s: append commit p10 %.1f ms, p50 %.1f ms, p90 %.1f ms",
                  phase, Percentile(append_ms_, 10), Percentile(append_ms_, 50),
                  Percentile(append_ms_, 90)));
    out->Note(Fmt("%s: appended %llu rows in %zu txns over %.2fs; relabels %zu "
                  "(p50 %.1f ms, p90 %.1f ms, max start lag %.1f ms); queries "
                  "%zu (p50 %.2f ms, p99 %.2f ms, max start lag %.1f ms)",
                  phase, static_cast<unsigned long long>(appended_),
                  append_ms_.size(), wall_s_, relabel_ms_.size(),
                  Percentile(relabel_ms_, 50), Percentile(relabel_ms_, 90),
                  relabel_lag_ms_, query_ms_.size(), Percentile(query_ms_, 50),
                  Percentile(query_ms_, 99), query_lag_ms_));
    out->Note(Fmt("%s: txn publishes fast %llu rebased %llu conflicts %llu "
                  "retries %llu",
                  phase,
                  static_cast<unsigned long long>(txn_.fast),
                  static_cast<unsigned long long>(txn_.rebased),
                  static_cast<unsigned long long>(txn_.conflicts),
                  static_cast<unsigned long long>(txn_.retries)));
  }

  /// Appended rows per second spent inside the writer's commits (the
  /// writer is closed-loop, so this is its throughput without the
  /// benchmark's input generation).
  double items_per_s() const {
    return static_cast<double>(appended_) * 1e3 / Sum(append_ms_);
  }
  dl::Result<dl::tsf::Tensor*> HeadImages() {
    DL_ASSIGN_OR_RETURN(auto head, vc_->SealedHead());
    DL_ASSIGN_OR_RETURN(auto store, vc_->StoreAt(head));
    DL_ASSIGN_OR_RETURN(head_ds_, dl::tsf::Dataset::Open(store));
    return head_ds_->GetTensor("images");
  }

 private:
  dl::Result<double> Build() {
    auto mem = std::make_shared<dl::storage::MemoryStore>();
    store_ = std::make_shared<TimingStore>(
        std::make_shared<dl::sim::SimulatedObjectStore>(
            mem, dl::sim::NetworkModel::LocalFs()));
    labels_.assign(kSeedRows, 0);
    int64_t program_us = 0;
    int64_t t0 = dl::NowMicros();
    DL_ASSIGN_OR_RETURN(vc_, dl::version::VersionControl::OpenOrInit(store_));
    DL_ASSIGN_OR_RETURN(auto ds,
                        dl::tsf::Dataset::Create(vc_->working_store()));
    DL_RETURN_IF_ERROR(
        ds->CreateTensor("images", ImageTensorOptions(/*lossy=*/true))
            .status());
    dl::tsf::TensorOptions labels;
    labels.htype = "class_label";
    labels.max_chunk_bytes = kLabelChunkBytes;
    DL_RETURN_IF_ERROR(ds->CreateTensor("labels", labels).status());
    dl::tsf::TensorOptions row_id;
    row_id.dtype = "int64";
    DL_RETURN_IF_ERROR(ds->CreateTensor("row_id", row_id).status());
    program_us += dl::NowMicros() - t0;
    for (uint64_t i = 0; i < kSeedRows; ++i) {
      auto s = gen_.Generate(i);
      labels_[i] = static_cast<int32_t>(s.label);
      auto row = MakeRow(std::move(s), i);
      t0 = dl::NowMicros();
      DL_RETURN_IF_ERROR(ds->Append(row));
      program_us += dl::NowMicros() - t0;
    }
    t0 = dl::NowMicros();
    DL_RETURN_IF_ERROR(ds->Flush());
    DL_RETURN_IF_ERROR(vc_->Commit("seed").status());
    program_us += dl::NowMicros() - t0;
    return Secs(program_us);
  }

  void WriterLoop(int64_t deadline) {
    uint64_t next = kSeedRows;
    uint64_t txn = 0;
    while (txn < kAppendTxns && dl::NowMicros() < deadline) {
      // Generating the inputs is the benchmark's work, not the program's,
      // and happens outside the timed commit.
      std::vector<std::map<std::string, dl::tsf::Sample>> rows;
      std::vector<int32_t> labels;
      for (uint64_t i = 0; i < kAppendRows; ++i) {
        auto s = gen_.Generate(next + i);
        labels.push_back(static_cast<int32_t>(s.label));
        rows.push_back(MakeRow(std::move(s), next + i));
      }
      TxnTiming timing;
      const int64_t cpu0 = dl::ThreadCpuMicros();
      auto landed = TimedCommit(
          vc_, "writer",
          [&](dl::tsf::Dataset& ds) -> dl::Status {
            for (const auto& row : rows) DL_RETURN_IF_ERROR(ds.Append(row));
            return dl::Status::OK();
          },
          "append " + std::to_string(txn), 1 + txn, &timing);
      const double cpu_ms = Millis(dl::ThreadCpuMicros() - cpu0);
      ++txn;
      std::lock_guard<std::mutex> lock(mu_);
      if (!landed.ok()) {
        report_->Check(false, "append txn: " + landed.status().ToString());
        continue;
      }
      report_->Check(true, "append txn");
      append_ms_.push_back(timing.total_ms);
      append_cpu_ms_.push_back(cpu_ms);
      append_timing_.push_back(timing);
      labels_.insert(labels_.end(), labels.begin(), labels.end());
      for (const auto& row : rows) {
        for (const auto& [name, sample] : row) {
          user_bytes_ += sample.data.size();
        }
      }
      next += kAppendRows;
      appended_ += kAppendRows;
      committed_rows_.store(next);
    }
  }

  void RelabelLoop(int64_t start, int64_t deadline) {
    dl::Rng rng(options_.seed * 7919 + 17);
    for (int64_t k = 1;; ++k) {
      const int64_t due = start + k * kRelabelPeriodUs;
      if (due >= deadline) break;
      dl::SleepMicros(due - dl::NowMicros());
      relabel_lag_ms_ = std::max(
          relabel_lag_ms_, Millis(dl::NowMicros() - due));
      // Whole label chunks with at least one full chunk between them and
      // the committed tail.
      const uint64_t tail = committed_rows_.load();
      const uint64_t ranges = (tail - kRelabelRows) / kRelabelRows;
      const uint64_t range = rng.Uniform(ranges);
      const int32_t value = static_cast<int32_t>(rng.Uniform(1000));
      std::vector<dl::tsf::Sample> samples(
          kRelabelRows, dl::tsf::Sample::Scalar(value, dl::tsf::DType::kInt32));
      TxnTiming timing;
      auto landed = TimedCommit(
          vc_, "relabeler",
          [&](dl::tsf::Dataset& ds) -> dl::Status {
            DL_ASSIGN_OR_RETURN(auto* labels, ds.GetTensor("labels"));
            return labels->UpdateContiguous(range * kRelabelRows, samples);
          },
          "relabel " + std::to_string(k), 1000000 + static_cast<uint64_t>(k),
          &timing);
      const double latency_ms = Millis(dl::NowMicros() - due);
      std::lock_guard<std::mutex> lock(mu_);
      if (!landed.ok()) {
        report_->Check(false, "relabel txn: " + landed.status().ToString());
        continue;
      }
      report_->Check(true, "relabel txn");
      relabel_ms_.push_back(latency_ms);
      relabeled_[range] = value;
      user_bytes_ += kRelabelRows * sizeof(int32_t);
    }
  }

  void ReaderLoop(int64_t start, int64_t deadline) {
    // The first query is due at the start, so a 10 s traced phase holds
    // 1000 queries: 10 beyond the reported p99.
    for (int64_t k = 0;; ++k) {
      const int64_t due = start + k * kQueryPeriodUs;
      if (due >= deadline) break;
      dl::SleepMicros(due - dl::NowMicros());
      query_lag_ms_ = std::max(
          query_lag_ms_, Millis(dl::NowMicros() - due));
      auto result = RunQuery();
      const double latency_ms = Millis(dl::NowMicros() - due);
      std::lock_guard<std::mutex> lock(mu_);
      if (!result.ok()) {
        report_->Check(false, "query: " + result.status().ToString());
        continue;
      }
      query_ms_.push_back(latency_ms);
      scanned_bytes_ += result->rows * sizeof(int32_t);
      queries_.push_back(*result);
    }
  }

  struct QueryResult {
    std::string commit;
    uint64_t rows = 0;   // rows scanned
    uint64_t count = 0;  // rows matched
  };

  dl::Result<QueryResult> RunQuery() {
    QueryResult r;
    std::shared_ptr<dl::tsf::Dataset> ds;
    {
      ScopedSpan span("tql.snapshot_open");
      DL_ASSIGN_OR_RETURN(r.commit, vc_->SealedHead());
      DL_ASSIGN_OR_RETURN(auto store, vc_->StoreAt(r.commit));
      DL_ASSIGN_OR_RETURN(ds, dl::tsf::Dataset::Open(store));
    }
    dl::Result<dl::tql::Query> query = dl::Status::Unknown("");
    {
      ScopedSpan span("tql.parse");
      query = dl::tql::ParseQuery(kQuery);
    }
    DL_RETURN_IF_ERROR(query.status());
    ScopedSpan span("tql.execute");
    DL_ASSIGN_OR_RETURN(auto view, dl::tql::ExecuteQuery(ds, *query));
    r.rows = ds->NumRows();
    r.count = view.size();
    return r;
  }

  /// The final head holds every appended row in order, each relabeled
  /// range holds its last landed value, every other label is the
  /// generator's, and sampled images are within the codec's error bound.
  void CheckFinalHead() {
    auto images = HeadImages();
    report_->Check(images.ok(), "open final head");
    if (!images.ok()) return;
    const uint64_t rows = kSeedRows + appended_;
    report_->Check(head_ds_->NumRows() == rows,
                   Fmt("final head has %llu rows, want %llu",
                       static_cast<unsigned long long>(head_ds_->NumRows()),
                       static_cast<unsigned long long>(rows)));
    auto ids = head_ds_->GetTensor("row_id");
    auto labels = head_ds_->GetTensor("labels");
    if (!ids.ok() || !labels.ok()) {
      report_->Check(false, "final head tensors");
      return;
    }
    for (uint64_t i = 0; i < rows && i < labels_.size(); ++i) {
      auto id = (*ids)->Read(i);
      auto label = (*labels)->Read(i);
      auto it = relabeled_.find(i / kRelabelRows);
      const int32_t want = it != relabeled_.end() ? it->second : labels_[i];
      report_->Check(id.ok() && label.ok() &&
                         id->AsInt() == static_cast<int64_t>(i) &&
                         label->AsInt() == want,
                     "final head row " + std::to_string(i));
    }
    for (uint64_t i = 0; i < rows; i += 97) {
      auto got = (*images)->Read(i);
      auto want = gen_.Generate(i);
      report_->Check(got.ok() && PixelsMatch(got->data,
                                             dl::ByteView(want.pixels),
                                             /*lossy=*/true),
                     "final head image " + std::to_string(i));
    }
  }

  /// Every query's count equals a brute-force count over the same pinned
  /// snapshot.
  void CheckQueries() {
    std::map<std::string, uint64_t> truth;
    for (const auto& q : queries_) {
      auto it = truth.find(q.commit);
      if (it == truth.end()) {
        auto count = BruteForceCount(q.commit);
        report_->Check(count.ok(), "brute-force count at " + q.commit);
        if (!count.ok()) continue;
        it = truth.emplace(q.commit, *count).first;
      }
      report_->Check(q.count == it->second,
                     Fmt("query at %s matched %llu rows, brute force %llu",
                         q.commit.c_str(),
                         static_cast<unsigned long long>(q.count),
                         static_cast<unsigned long long>(it->second)));
    }
  }

  dl::Result<uint64_t> BruteForceCount(const std::string& commit) {
    DL_ASSIGN_OR_RETURN(auto store, vc_->StoreAt(commit));
    DL_ASSIGN_OR_RETURN(auto ds, dl::tsf::Dataset::Open(store));
    DL_ASSIGN_OR_RETURN(auto* labels, ds->GetTensor("labels"));
    uint64_t count = 0;
    for (uint64_t i = 0; i < ds->NumRows(); ++i) {
      DL_ASSIGN_OR_RETURN(auto s, labels->Read(i));
      if (s.AsInt() < kQueryThreshold) ++count;
    }
    return count;
  }

  RunOptions options_;
  Report* report_;
  dl::sim::WorkloadGenerator gen_;
  std::shared_ptr<TimingStore> store_;
  std::shared_ptr<dl::version::VersionControl> vc_;
  std::shared_ptr<dl::tsf::Dataset> head_ds_;
  double setup_s_ = 0, wall_s_ = 0;
  std::atomic<uint64_t> committed_rows_{kSeedRows};
  StoreCounts counts_;
  TxnCounters txn_{};

  std::mutex mu_;  // guards the report and the fields below while running
  uint64_t appended_ = 0;
  uint64_t user_bytes_ = 0;
  uint64_t scanned_bytes_ = 0;
  std::vector<int32_t> labels_;          // expected label per row
  std::map<uint64_t, int32_t> relabeled_;  // range -> last landed value
  std::vector<double> append_ms_, append_cpu_ms_, relabel_ms_, query_ms_;
  std::vector<TxnTiming> append_timing_;
  std::vector<QueryResult> queries_;
  double relabel_lag_ms_ = 0, query_lag_ms_ = 0;
};

}  // namespace

Report RunIngestCommitMixed(const RunOptions& options) {
  Report report;
  // A traced run splits the measured time between an untraced and a
  // traced phase, so it takes as long as an untraced run.
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  double untraced_rate = 0;
  {
    IngestRun run(options, &report);
    if (!run.Setup()) return report;
    run.Measure(phase_s);
    run.CheckOutputs();
    run.Notes("untraced", &report);
    untraced_rate = run.items_per_s();
    if (!options.trace) {
      run.SetEndToEnd(&report);
      return report;
    }
  }
  // Traced run: a fresh dataset, the same schedule, spans on.
  IngestRun run(options, &report);
  if (!run.Setup()) return report;
  SpanLog::Global().set_enabled(true);
  run.Measure(phase_s);
  run.SetPerLayer(&report);
  report.Set("obs.trace_overhead_pct",
             100.0 * (untraced_rate - run.items_per_s()) / untraced_rate);
  auto images = run.HeadImages();
  report.Check(images.ok(), "open head for replay");
  if (images.ok()) {
    ReplayChunkLayers(*images, /*max_rows=*/1024, /*lossy=*/true, options.seed,
                      /*encode_images=*/32, &report);
  }
  SpanLog::Global().set_enabled(false);
  run.CheckOutputs();
  run.Notes("traced", &report);
  return report;
}

}  // namespace perfbench
