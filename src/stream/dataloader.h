#ifndef DEEPLAKE_STREAM_DATALOADER_H_
#define DEEPLAKE_STREAM_DATALOADER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/context.h"
#include "obs/metrics.h"
#include "tql/executor.h"
#include "tsf/dataset.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dl::stream {

/// One collated batch: per-tensor lists of samples in row order.
struct Batch {
  uint64_t size = 0;
  std::map<std::string, std::vector<tsf::Sample>> columns;

  /// Collates a column into one contiguous buffer (deep-learning native
  /// layout, batch-major). Fails if the column's samples are ragged.
  Result<tsf::Sample> Stacked(const std::string& column) const;
};

/// A row in flight through the pipeline.
using Row = std::map<std::string, tsf::Sample>;

/// Per-sample user transform, run inside worker threads (paper §4.6: the
/// transformation executes in parallel outside the interpreter lock — here,
/// plainly on the pool).
using TransformFn = std::function<Status(Row&)>;

struct DataloaderOptions {
  uint64_t batch_size = 32;
  /// Fetch/decode worker threads.
  size_t num_workers = 4;
  /// Streaming shuffle (paper §3.5): work units are visited in random
  /// order and decoded rows pass through a reservoir buffer.
  bool shuffle = false;
  /// Rows held in the shuffle reservoir.
  size_t shuffle_buffer_rows = 512;
  uint64_t seed = 42;
  /// Max work units (≈ chunks) started ahead of consumption; bounds
  /// memory (paper §4.6 "predicting memory consumption"). Sequential
  /// streams also never run more than `num_workers` units ahead of the
  /// unit being consumed: each worker decodes one unit at a time, so a
  /// deeper window would add no fetch concurrency, only decoded rows
  /// waiting in memory. Decoded rows held ahead of the consumer are thus
  /// at most min(prefetch_units, num_workers) units' worth plus the batch
  /// being assembled. Shuffled streams use the full window; their decoded
  /// rows are bounded by `shuffle_buffer_rows`.
  size_t prefetch_units = 8;
  bool drop_last = false;
  /// Tensors to stream; empty = all visible tensors.
  std::vector<std::string> tensors;
  TransformFn transform;
  /// Extra fetch attempts per chunk/sample read that fails with a
  /// retryable status (Status::IsRetryable). 0 (default) preserves
  /// fail-fast: the first storage error poisons the epoch. Retries are
  /// immediate — chain a storage::RetryingStore under the dataset for
  /// backoff between attempts; this knob is the last line of defense when
  /// even the store-level budget runs out mid-epoch.
  int max_transient_retries = 0;
  /// Trace context of the owning job (DESIGN.md §7): installed on every
  /// worker while it processes a unit and on the consumer inside Next(),
  /// so loader spans — and the storage spans beneath them — share one
  /// trace id and carry the job's tenant label. Default (empty) costs
  /// nothing; create one with obs::Context::ForJob("tenant", "job").
  obs::Context context;
};

/// Epoch counters. Thread-safety contract (all fields are also mirrored
/// into the obs::MetricsRegistry, family `loader.*`):
///
///  - *Consumer-thread-only*: `rows_delivered`, `batches_delivered`,
///    `stall_micros` are written exclusively inside Next() while
///    holding the loader mutex. The consumer thread may read them between
///    Next() calls without synchronization; other threads may not.
///
///  - *Mutex-guarded (worker-written)*: `units`, `fetch_micros`,
///    `decode_micros`, `transform_micros`, `transient_errors_recovered`
///    are accumulated by worker threads under the loader mutex. Read them
///    only after the epoch has drained (Next() returned false, or the
///    loader was destroyed) — a mid-epoch read from the consumer thread
///    races with workers.
///
/// The per-stage micros sum CPU/IO time *across all workers*: with N
/// workers their total can legitimately exceed wall time (stages overlap).
struct DataloaderStats {
  uint64_t rows_delivered = 0;
  uint64_t batches_delivered = 0;
  /// Time Next() spent blocked waiting for the pipeline.
  int64_t stall_micros = 0;
  /// Work units (chunk-aligned ranges) drained by their worker: every
  /// row decoded and handed on (to the in-order queue, or to the shuffle
  /// reservoir). Equals the planned unit count after a full epoch in both
  /// modes.
  uint64_t units = 0;
  /// Fetches that failed with a retryable error but succeeded on a retry
  /// (max_transient_retries > 0) — the epoch survived these.
  uint64_t transient_errors_recovered = 0;
  /// Worker time spent in storage reads (chunk Get + tiled/tail reads;
  /// the tiled/tail path folds its decode into this figure).
  int64_t fetch_micros = 0;
  /// Worker time spent parsing chunks and materializing samples.
  int64_t decode_micros = 0;
  /// Worker time spent inside the user transform.
  int64_t transform_micros = 0;
  /// Process-wide bytes deep-copied through the Buffer/Slice layer while
  /// this loader ran (delta of dl::TotalBytesCopied(), sampled in Next()).
  /// Consumer-thread-only, like rows_delivered. The steady-state epoch loop
  /// over raw/uncompressed htypes should keep this near zero (DESIGN.md
  /// §10); collation via Batch::Stacked is counted.
  uint64_t bytes_copied = 0;
};

/// Streaming dataloader (paper §4.6): schedules chunk-aligned fetches,
/// decompresses in parallel workers, applies user transforms, shuffles via
/// a buffer, and collates batches — while a bounded prefetch window keeps
/// memory flat and the consumer (GPU) fed.
///
/// Iterate: `while (loader.Next(&batch)) { ... }`. One pass; construct a
/// new loader per epoch (cheap).
class Dataloader {
 public:
  /// Streams the whole dataset in index order (or shuffled).
  Dataloader(std::shared_ptr<tsf::Dataset> dataset, DataloaderOptions options);

  /// Streams a query view's rows in the view's order (paper §4.4 "seamless
  /// integration with the dataloader for filtered streaming"). Sparse views
  /// produce fragmented work units — the §4.5 penalty that materialization
  /// removes.
  Dataloader(std::shared_ptr<tsf::Dataset> dataset,
             const tql::DatasetView& view, DataloaderOptions options);

  ~Dataloader();

  Dataloader(const Dataloader&) = delete;
  Dataloader& operator=(const Dataloader&) = delete;

  /// Produces the next batch; returns false at end of stream. On worker
  /// errors, returns the first error and stops.
  Result<bool> Next(Batch* out) DL_EXCLUDES(mu_);

  /// Unlocked by design — see the DataloaderStats thread-safety contract:
  /// consumer-thread fields are safe between Next() calls; worker-written
  /// fields only after the epoch drains.
  const DataloaderStats& stats() const DL_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }

 private:
  struct Unit {
    uint64_t seq;                  // completion-order key (sequential mode)
    std::vector<uint64_t> rows;    // dataset row indices
  };

  void Start();
  void ProcessUnit(const Unit& unit) DL_EXCLUDES(mu_);

  /// Builds chunk-aligned work units from the ordered row list.
  std::vector<Unit> PlanUnits(const std::vector<uint64_t>& order) const;

  std::shared_ptr<tsf::Dataset> dataset_;
  DataloaderOptions options_;
  std::vector<std::string> tensors_;
  std::vector<Unit> units_;
  std::unique_ptr<ThreadPool> pool_;

  // Leaf lock (DESIGN.md §8): workers and the consumer never acquire
  // another dl::Mutex while holding it (registry instruments are atomics).
  Mutex mu_{"stream.dataloader.mu"};
  // Ordered prefetch window: the task at visit position k may start only
  // once k < start_allowance_ (initially the window of Start(), then one
  // more per drained unit). Admission strictly by position prevents
  // later units from stealing window slots from the unit the (in-order)
  // consumer is waiting on — a semaphore here can deadlock by priority
  // inversion.
  size_t start_allowance_ DL_GUARDED_BY(mu_) = 0;
  CondVar gate_cv_;
  CondVar ready_cv_;
  // Sequential mode: per-unit progress keyed by seq; rows stream in as
  // they decode (the consumer never waits for a whole unit), and are
  // consumed strictly in seq order.
  struct UnitProgress {
    std::vector<Row> rows;
    size_t taken = 0;
    bool done = false;
  };
  std::map<uint64_t, UnitProgress> completed_ DL_GUARDED_BY(mu_);
  uint64_t next_seq_ DL_GUARDED_BY(mu_) = 0;
  // Shuffle mode: reservoir of decoded rows.
  std::vector<Row> reservoir_ DL_GUARDED_BY(mu_);
  CondVar reservoir_cv_;
  size_t units_done_ DL_GUARDED_BY(mu_) = 0;
  Status first_error_ DL_GUARDED_BY(mu_);
  bool started_ = false;  // ctor-thread only (Start() runs in the ctor)
  bool abort_ DL_GUARDED_BY(mu_) = false;

  // Carry-over rows between Next() calls (batch boundary inside a unit).
  // Touched only by the consumer thread inside Next(), but always under
  // mu_ anyway (Next() holds it throughout), so the annotation is honest.
  std::vector<Row> pending_rows_ DL_GUARDED_BY(mu_);
  Rng shuffle_rng_{42};  // consumer-thread only (used inside Next())

  DataloaderStats stats_;  // see stats() for the mixed guarding contract
  // Registry instruments (family `loader.*`), cached once in Start() so
  // the hot path touches only atomics. Workers observe per-op latencies;
  // stats_ aggregates per-stage totals for the epoch summary.
  obs::Histogram* fetch_hist_ = nullptr;
  obs::Histogram* decode_hist_ = nullptr;
  obs::Histogram* transform_hist_ = nullptr;
  obs::Histogram* stall_hist_ = nullptr;
  obs::Counter* rows_counter_ = nullptr;
  obs::Counter* bytes_copied_counter_ = nullptr;
  // Last TotalBytesCopied() sample; Next() accumulates deltas into
  // stats_.bytes_copied. Consumer-thread only.
  uint64_t copied_watermark_ = 0;
  // Decoded-but-undelivered rows (reservoir + completed units + pending).
  // A rising series means the consumer is the bottleneck; pinned at zero
  // means the loader is — the flight-recorder signal for Fig. 9 plots.
  obs::Gauge* queued_gauge_ = nullptr;
};

}  // namespace dl::stream

#endif  // DEEPLAKE_STREAM_DATALOADER_H_
