// The two training workloads: a decode-bound local JPEG epoch loop and a
// storage-bound shuffled S3 stream of raw images. Each builds its dataset
// from the workload seed, runs one unmeasured warm-up epoch that checks
// every delivered pixel against the generator, then runs measured epochs
// for the requested time. A training loop collates every batch with
// Batch::Stacked, as a model step would.

#include <algorithm>
#include <memory>
#include <vector>

#include "common.h"
#include "layers.h"
#include "sim/network_model.h"
#include "span_log.h"
#include "stream/dataloader.h"
#include "timing_store.h"
#include "tsf/dataset.h"
#include "util/crc32.h"

namespace perfbench {
namespace {

struct TrainConfig {
  bool lossy;
  bool shuffle;
  uint64_t images;
  dl::sim::NetworkModel model;
};

constexpr uint64_t kBatch = 64;
constexpr size_t kWorkers = 3;
constexpr size_t kPrefetchUnits = 16;
constexpr int kSetupBuilds = 3;
constexpr size_t kMinEpochs = 3;
constexpr size_t kMaxEpochs = 200;

/// Ground truth per row, recorded while building. `crc` is the CRC-32C of
/// the generator's pixels for raw images; for lossy images it is filled in
/// by the warm-up epoch (after the error-bound check) so measured epochs
/// can check every delivered byte cheaply.
struct Expected {
  std::vector<int32_t> labels;
  std::vector<uint32_t> crc;
  std::vector<uint64_t> shape;  // every generated image has this shape
};

/// Builds the dataset into `store` and returns the seconds spent inside
/// the program (tsf appends, codec encodes, chunk writes, flush); the
/// generator's own time is not counted.
dl::Result<double> BuildDataset(dl::storage::StoragePtr store,
                                const TrainConfig& cfg, uint64_t seed,
                                Expected* expected) {
  auto gen = ImageGenerator(seed);
  expected->labels.assign(cfg.images, 0);
  expected->crc.assign(cfg.images, 0);
  int64_t program_us = 0;
  int64_t t0 = dl::NowMicros();
  DL_ASSIGN_OR_RETURN(auto ds, dl::tsf::Dataset::Create(store));
  DL_RETURN_IF_ERROR(
      ds->CreateTensor("images", ImageTensorOptions(cfg.lossy)).status());
  dl::tsf::TensorOptions labels;
  labels.htype = "class_label";
  DL_RETURN_IF_ERROR(ds->CreateTensor("labels", labels).status());
  dl::tsf::TensorOptions row_id;
  row_id.dtype = "int64";
  DL_RETURN_IF_ERROR(ds->CreateTensor("row_id", row_id).status());
  program_us += dl::NowMicros() - t0;
  for (uint64_t i = 0; i < cfg.images; ++i) {
    auto s = gen.Generate(i);
    expected->labels[i] = static_cast<int32_t>(s.label);
    if (!cfg.lossy) expected->crc[i] = dl::Crc32c(dl::ByteView(s.pixels));
    if (i == 0) expected->shape = s.shape;
    std::map<std::string, dl::tsf::Sample> row;
    row["images"] = dl::tsf::Sample(dl::tsf::DType::kUInt8,
                                    dl::tsf::TensorShape(s.shape),
                                    std::move(s.pixels));
    row["labels"] = dl::tsf::Sample::Scalar(s.label, dl::tsf::DType::kInt32);
    row["row_id"] = dl::tsf::Sample::Scalar(static_cast<int64_t>(i),
                                            dl::tsf::DType::kInt64);
    t0 = dl::NowMicros();
    DL_RETURN_IF_ERROR(ds->Append(row));
    program_us += dl::NowMicros() - t0;
  }
  t0 = dl::NowMicros();
  DL_RETURN_IF_ERROR(ds->Flush());
  program_us += dl::NowMicros() - t0;
  return Secs(program_us);
}

struct EpochResult {
  double wall_s = 0;
  double first_batch_s = 0;
  uint64_t rows = 0;
  uint64_t payload_bytes = 0;  // bytes of the collated batches
  // Consumer-thread accounting: construction, Next(), Stacked(), and the
  // rest of the loop (output checks and bookkeeping).
  double open_s = 0, wait_s = 0, collate_s = 0, loop_s = 0;
  std::vector<double> next_us;  // each Next() call
  double check_cpu_s = 0;  // consumer CPU spent in the benchmark's checks
  double process_cpu_s = 0;  // whole-process CPU over the epoch
  dl::stream::DataloaderStats stats;
  StoreCounts counts;
};

class TrainRun {
 public:
  TrainRun(const TrainConfig& cfg, const RunOptions& options, Report* report)
      : cfg_(cfg),
        options_(options),
        report_(report),
        gen_(ImageGenerator(options.seed)) {}

  bool Setup() {
    std::vector<double> builds;
    for (int b = 0; b < kSetupBuilds; ++b) {
      // Only the last build is kept; earlier ones are dropped before the
      // next starts, so peak memory holds one dataset.
      mem_.reset();
      ds_.reset();
      mem_ = std::make_shared<dl::storage::MemoryStore>();
      auto built = BuildDataset(mem_, cfg_, options_.seed, &expected_);
      report_->Check(built.ok(), "dataset build: " + built.status().ToString());
      if (!built.ok()) return false;
      builds.push_back(*built);
    }
    setup_s_ = Median(builds);
    // Reads go through the decorator over the simulated backend over the
    // in-memory store the dataset was written to.
    store_ = std::make_shared<TimingStore>(
        std::make_shared<dl::sim::SimulatedObjectStore>(mem_, cfg_.model));
    auto ds = dl::tsf::Dataset::Open(store_);
    report_->Check(ds.ok(), "dataset open");
    if (!ds.ok()) return false;
    ds_ = *ds;
    return true;
  }

  EpochResult RunEpoch(uint64_t epoch, bool warmup) {
    EpochResult r;
    std::vector<uint8_t> seen(cfg_.images, 0);
    const StoreCounts counts0 = store_->counts();
    dl::stream::DataloaderOptions opts;
    opts.batch_size = kBatch;
    opts.num_workers = kWorkers;
    opts.prefetch_units = kPrefetchUnits;
    opts.shuffle = cfg_.shuffle;
    opts.seed = options_.seed * 1000 + epoch;
    opts.tensors = {"images", "labels", "row_id"};
    const int64_t cpu_start = dl::ProcessCpuMicros();
    const int64_t start = dl::NowMicros();
    dl::stream::Dataloader loader(ds_, opts);
    r.open_s = Secs(dl::NowMicros() - start);
    uint64_t next_in_order = 0;
    int64_t end = start;
    dl::stream::Batch batch;
    // Each piece of the consumer loop is timed on its own; what they leave
    // of the epoch's wall time is the stated consumer residual.
    while (true) {
      const int64_t t0 = dl::NowMicros();
      const dl::Result<bool> more = loader.Next(&batch);
      const int64_t t1 = dl::NowMicros();
      r.wait_s += Secs(t1 - t0);
      r.next_us.push_back(static_cast<double>(t1 - t0));
      end = t1;
      if (!more.ok()) {
        report_->Check(false, "Next: " + more.status().ToString());
        break;
      }
      if (!*more) break;
      if (r.rows == 0) r.first_batch_s = Secs(t1 - start);
      const int64_t t2 = dl::NowMicros();
      const auto images = batch.Stacked("images");
      const auto labels = batch.Stacked("labels");
      const auto ids = batch.Stacked("row_id");
      const int64_t t3 = dl::NowMicros();
      r.collate_s += Secs(t3 - t2);
      const int64_t cpu0 = dl::ThreadCpuMicros();
      const bool collated = images.ok() && labels.ok() && ids.ok();
      report_->Check(collated, "Stacked");
      if (collated) {
        r.payload_bytes +=
            images->data.size() + labels->data.size() + ids->data.size();
        CheckBatch(*images, *labels, *ids, epoch, warmup, &next_in_order,
                   &seen);
      }
      r.rows += batch.size;
      r.check_cpu_s += Secs(dl::ThreadCpuMicros() - cpu0);
      end = dl::NowMicros();
      r.loop_s += Secs(end - t3);
    }
    r.wall_s = Secs(end - start);
    r.process_cpu_s =
        Secs(dl::ProcessCpuMicros() - cpu_start);
    report_->Check(r.rows == cfg_.images &&
                       std::count(seen.begin(), seen.end(), 1) ==
                           static_cast<int64_t>(cfg_.images),
                   "epoch " + std::to_string(epoch) +
                       " delivered every row exactly once");
    r.stats = loader.stats();  // drained: worker fields are settled
    r.counts = store_->counts() - counts0;
    return r;
  }

  /// Checks one collated batch row by row: each row id new this epoch
  /// (and next in order when not shuffled), its label the generator's,
  /// and its pixels either within the codec's bound of the generator's
  /// (warm-up) or byte-identical to what the warm-up checked (CRC-32C).
  void CheckBatch(const dl::tsf::Sample& images, const dl::tsf::Sample& labels,
                  const dl::tsf::Sample& ids, uint64_t epoch, bool warmup,
                  uint64_t* next_in_order, std::vector<uint8_t>* seen) {
    std::vector<uint64_t> want_dims = {ids.NumElements()};
    want_dims.insert(want_dims.end(), expected_.shape.begin(),
                     expected_.shape.end());
    if (!(images.shape.dims() == want_dims)) {
      report_->Check(false, "batch shape");
      return;
    }
    const uint64_t image_bytes = images.data.size() / ids.NumElements();
    for (uint64_t k = 0; k < ids.NumElements(); ++k) {
      const int64_t id = static_cast<int64_t>(ids.At(k));
      bool ok = id >= 0 && static_cast<uint64_t>(id) < cfg_.images &&
                !(*seen)[id] &&
                (cfg_.shuffle || static_cast<uint64_t>(id) == *next_in_order);
      ++*next_in_order;
      if (ok) {
        (*seen)[id] = 1;
        ok = static_cast<int32_t>(labels.At(k)) == expected_.labels[id];
      }
      if (ok) {
        dl::ByteView pixels(images.data.data() + k * image_bytes, image_bytes);
        const uint32_t crc = dl::Crc32c(pixels);
        if (warmup) {
          auto want = gen_.Generate(static_cast<uint64_t>(id));
          ok = PixelsMatch(pixels, dl::ByteView(want.pixels), cfg_.lossy);
          if (cfg_.lossy) expected_.crc[id] = crc;
        }
        ok = ok && crc == expected_.crc[id];
      }
      report_->Check(ok, ok ? std::string()
                            : Fmt("row %lld in epoch %llu",
                                  static_cast<long long>(id),
                                  static_cast<unsigned long long>(epoch)));
    }
  }

  /// Measured epochs until `seconds` have passed (at least kMinEpochs).
  std::vector<EpochResult> RunPhase(double seconds, uint64_t* epoch) {
    std::vector<EpochResult> out;
    const double start = Seconds();
    while (out.size() < kMaxEpochs &&
           (out.size() < kMinEpochs || Seconds() - start < seconds)) {
      out.push_back(RunEpoch((*epoch)++, /*warmup=*/false));
    }
    return out;
  }

  double setup_s() const { return setup_s_; }
  dl::tsf::Dataset* dataset() { return ds_.get(); }

 private:
  TrainConfig cfg_;
  RunOptions options_;
  Report* report_;
  dl::sim::WorkloadGenerator gen_;
  Expected expected_;
  std::shared_ptr<dl::storage::MemoryStore> mem_;
  std::shared_ptr<TimingStore> store_;
  std::shared_ptr<dl::tsf::Dataset> ds_;
  double setup_s_ = 0;
};

double MedianImagesPerSec(const std::vector<EpochResult>& epochs) {
  std::vector<double> ips;
  for (const auto& e : epochs) {
    ips.push_back(static_cast<double>(e.rows) / e.wall_s);
  }
  return Median(ips);
}

void SetEndToEnd(const std::vector<EpochResult>& epochs, double setup_s,
                 Report* report) {
  std::vector<double> ips, cpu_ms;
  for (const auto& e : epochs) {
    ips.push_back(static_cast<double>(e.rows) / e.wall_s);
    cpu_ms.push_back((e.process_cpu_s - e.check_cpu_s) * 1e3 /
                     static_cast<double>(e.rows));
  }
  report->Set("setup_s", setup_s);
  report->Set("items_per_s", Median(ips));
  report->Set("cpu_ms_per_item", Median(cpu_ms));
  std::string per_epoch;
  for (double v : ips) per_epoch += Fmt(" %.0f", v);
  report->Note(Fmt("%zu epochs, images/s per epoch:", epochs.size()) +
               per_epoch);
}

/// Per-layer metrics from the traced epochs: the consumer loop's clocks,
/// the decorator's storage spans and counts, and the loader's public
/// stats. Per-epoch figures are means over the traced epochs.
void SetPerLayer(const std::vector<EpochResult>& epochs, Report* report) {
  const double n = static_cast<double>(epochs.size());
  double wall = 0, fetch = 0, decode = 0, transform = 0, payload = 0;
  double open = 0, wait = 0, collate = 0, loop = 0;
  std::vector<double> next_us;
  StoreCounts c{};
  for (const auto& e : epochs) {
    next_us.insert(next_us.end(), e.next_us.begin(), e.next_us.end());
    wall += e.wall_s;
    fetch += Secs(e.stats.fetch_micros);
    decode += Secs(e.stats.decode_micros);
    transform += Secs(e.stats.transform_micros);
    payload += static_cast<double>(e.payload_bytes);
    open += e.open_s;
    wait += e.wait_s;
    collate += e.collate_s;
    loop += e.loop_s;
    c.gets += e.counts.gets;
    c.get_bytes += e.counts.get_bytes;
    c.image_chunk_gets += e.counts.image_chunk_gets;
    c.puts += e.counts.puts;
    c.put_bytes += e.counts.put_bytes;
  }
  const auto gets_us = SpanDurations("storage.get");
  const double get_busy = Sum(gets_us) * 1e-6;
  report->Set("storage.get.count", static_cast<double>(c.gets) / n);
  report->Set("storage.get.bytes", static_cast<double>(c.get_bytes) / n);
  report->Set("storage.get.busy_s", get_busy / n);
  report->Set("storage.get.p50_us", Percentile(gets_us, 50));
  report->Set("storage.get.p95_us", Percentile(gets_us, 95));
  report->Set("storage.get.inflight_mean", get_busy / wall);
  report->Set("storage.read_amplification",
              static_cast<double>(c.get_bytes) / payload);
  report->Set("storage.put.count", static_cast<double>(c.puts) / n);
  report->Set("storage.put.bytes", static_cast<double>(c.put_bytes) / n);
  report->Set("storage.put.busy_s",
              Sum(SpanDurations("storage.put")) * 1e-6 / n);
  report->Set("storage.write_amplification", 0);

  std::vector<double> first_ms;
  for (const auto& e : epochs) first_ms.push_back(e.first_batch_s * 1e3);
  report->Set("stream.first_batch_ms", Median(first_ms));
  report->Set("stream.next.wait_s", wait / n);
  report->Set("stream.next.wait_p50_us", Percentile(next_us, 50));
  report->Set("stream.next.wait_p95_us", Percentile(next_us, 95));
  report->Set("stream.collate.busy_s", collate / n);
  report->Set("stream.worker.fetch_s", fetch / n);
  report->Set("stream.worker.decode_s", decode / n);
  const double worker_capacity = static_cast<double>(kWorkers) * wall;
  report->Set("stream.worker.idle_share",
              1.0 - (fetch + decode + transform) / worker_capacity);
  report->Set("stream.units", static_cast<double>(c.image_chunk_gets) / n);
  // Residuals. Consumer: construction + Next + Stacked + loop, each timed
  // on its own, against the epoch's wall time. Fetch: the loader's own
  // fetch time not spent inside storage gets (loader overhead plus time
  // its workers were descheduled around the get).
  report->Set("stream.residual.consumer_pct",
              100.0 * (wall - (open + wait + collate + loop)) / wall);
  report->Set("stream.residual.fetch_pct",
              fetch > 0 ? 100.0 * (fetch - get_busy) / fetch : 0);
  report->Note(Fmt("traced, per epoch of %zu: wall %.4f s = open %.4f + Next "
                   "%.4f + Stacked %.4f + loop %.4f + residual %.5f s; "
                   "%zu workers x wall = fetch %.3f + decode %.3f + transform "
                   "%.3f + idle %.3f s (storage gets inside fetch: %.3f s)",
                   epochs.size(), wall / n, open / n, wait / n, collate / n,
                   loop / n, (wall - open - wait - collate - loop) / n,
                   kWorkers, fetch / n, decode / n, transform / n,
                   (worker_capacity - fetch - decode - transform) / n,
                   get_busy / n));
}

bool SameRequestCounts(const std::vector<EpochResult>& a,
                       const std::vector<EpochResult>& b) {
  for (const auto* side : {&a, &b}) {
    for (const auto& e : *side) {
      if (!(e.counts == a.front().counts)) return false;
    }
  }
  return true;
}

Report RunTrain(const TrainConfig& cfg, const RunOptions& options) {
  Report report;
  TrainRun run(cfg, options, &report);
  if (!run.Setup()) return report;
  uint64_t epoch = 0;
  run.RunEpoch(epoch++, /*warmup=*/true);

  // A traced run splits the measured time between an untraced and a
  // traced phase, so it takes as long as an untraced run.
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<EpochResult> untraced = run.RunPhase(phase_s, &epoch);
  Report e2e;
  SetEndToEnd(untraced, run.setup_s(), &e2e);
  e2e.Set("peak_rss_mb", PeakRssMb());
  for (auto& note : e2e.notes) report.Note(note);
  if (!options.trace) {
    for (auto& [name, value] : e2e.metrics) report.Set(name, value);
    return report;
  }

  SpanLog::Global().set_enabled(true);
  std::vector<EpochResult> traced = run.RunPhase(phase_s, &epoch);
  SetPerLayer(traced, &report);
  report.Check(SameRequestCounts(untraced, traced),
               "traced and untraced epochs send identical request counts");
  const double base = MedianImagesPerSec(untraced);
  report.Set("obs.trace_overhead_pct",
             100.0 * (base - MedianImagesPerSec(traced)) / base);
  auto images = run.dataset()->GetTensor("images");
  report.Check(images.ok(), "images tensor for replay");
  if (images.ok()) {
    ReplayChunkLayers(*images, cfg.images, cfg.lossy, options.seed,
                      /*encode_images=*/32, &report);
  }
  SpanLog::Global().set_enabled(false);
  return report;
}

}  // namespace

Report RunTrainLocalJpeg(const RunOptions& options) {
  return RunTrain({/*lossy=*/true, /*shuffle=*/false,
                   /*images=*/4000,
                   dl::sim::NetworkModel::LocalFs()},
                  options);
}

Report RunTrainS3RawShuffled(const RunOptions& options) {
  return RunTrain({/*lossy=*/false, /*shuffle=*/true,
                   /*images=*/2500,
                   dl::sim::NetworkModel::S3SameRegion()},
                  options);
}

}  // namespace perfbench
