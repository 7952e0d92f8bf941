#include "stream/dataloader.h"

#include <algorithm>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/macros.h"

namespace dl::stream {

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

Result<tsf::Sample> Batch::Stacked(const std::string& column) const {
  auto it = columns.find(column);
  if (it == columns.end()) {
    return Status::NotFound("batch: no column '" + column + "'");
  }
  const std::vector<tsf::Sample>& samples = it->second;
  if (samples.empty()) {
    return Status::FailedPrecondition("batch: empty column");
  }
  const tsf::TensorShape& shape0 = samples[0].shape;
  for (const auto& s : samples) {
    if (!(s.shape == shape0) || s.dtype != samples[0].dtype) {
      return Status::FailedPrecondition(
          "batch: column '" + column +
          "' is ragged; stack requires uniform shapes (apply a resize "
          "transform)");
    }
  }
  std::vector<uint64_t> out_dims;
  out_dims.push_back(samples.size());
  for (uint64_t d : shape0.dims()) out_dims.push_back(d);
  tsf::TensorShape out_shape(std::move(out_dims));
  if (samples.size() == 1) {
    // A batch of one aliases the sample's buffer — zero copy.
    return tsf::Sample(samples[0].dtype, std::move(out_shape),
                       samples[0].data);
  }
  ByteBuffer staging;
  staging.reserve(samples.size() * samples[0].data.size());
  for (const auto& s : samples) {
    staging.insert(staging.end(), s.data.begin(), s.data.end());
  }
  // Collation is the one copy the batch-major layout forces; account for it
  // so loader.bytes_copied stays an honest end-to-end figure.
  internal::AddBytesCopied(staging.size());
  return tsf::Sample(samples[0].dtype, std::move(out_shape),
                     Slice(std::move(staging)));
}

// ---------------------------------------------------------------------------
// Dataloader
// ---------------------------------------------------------------------------

Dataloader::Dataloader(std::shared_ptr<tsf::Dataset> dataset,
                       DataloaderOptions options)
    : dataset_(std::move(dataset)),
      options_(std::move(options)),
      shuffle_rng_(options_.seed) {
  tensors_ = options_.tensors.empty() ? dataset_->TensorNames()
                                      : options_.tensors;
  std::vector<uint64_t> order(dataset_->NumRows());
  for (uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  units_ = PlanUnits(order);
  Start();
}

Dataloader::Dataloader(std::shared_ptr<tsf::Dataset> dataset,
                       const tql::DatasetView& view,
                       DataloaderOptions options)
    : dataset_(std::move(dataset)),
      options_(std::move(options)),
      shuffle_rng_(options_.seed) {
  tensors_ = options_.tensors.empty() ? dataset_->TensorNames()
                                      : options_.tensors;
  units_ = PlanUnits(view.indices());
  Start();
}

Dataloader::~Dataloader() {
  {
    MutexLock lock(mu_);
    abort_ = true;
  }
  reservoir_cv_.NotifyAll();
  gate_cv_.NotifyAll();
  ready_cv_.NotifyAll();
  pool_.reset();  // joins workers
  // Undeliverable rows still buffered at teardown would otherwise leave
  // the queue-depth gauge stuck above zero for the next epoch's loader.
  // Workers are joined, but take the lock anyway — it is free here and
  // keeps the guarded-access annotations honest.
  if (queued_gauge_ != nullptr) {
    MutexLock lock(mu_);
    double leftover = static_cast<double>(reservoir_.size()) +
                      static_cast<double>(pending_rows_.size());
    for (const auto& [seq, p] : completed_) {
      leftover += static_cast<double>(p.rows.size() - p.taken);
    }
    if (leftover > 0) queued_gauge_->Sub(leftover);
  }
}

std::vector<Dataloader::Unit> Dataloader::PlanUnits(
    const std::vector<uint64_t>& order) const {
  // Pick the finest-chunked tensor as the primary alignment target: its
  // chunk boundaries dominate fetch cost.
  const tsf::ChunkEncoder* primary = nullptr;
  for (const auto& name : tensors_) {
    auto t = dataset_->GetTensor(name);
    if (!t.ok()) continue;
    const tsf::ChunkEncoder& enc = (*t)->chunk_encoder();
    if (primary == nullptr || enc.num_chunks() > primary->num_chunks()) {
      primary = &enc;
    }
  }
  std::vector<Unit> units;
  Unit current;
  current.seq = 0;
  size_t current_ordinal = SIZE_MAX;
  for (uint64_t row : order) {
    size_t ordinal = SIZE_MAX;
    if (primary != nullptr) {
      auto loc = primary->Find(row);
      if (loc.ok()) ordinal = loc->chunk_ordinal;
    }
    // A new unit starts when the primary chunk changes: all rows served by
    // one chunk share one fetch, even when a sparse view skips between
    // them. (The sparse-view penalty of §4.5 remains — the full chunk is
    // fetched however few of its rows the view selects.)
    bool breaks = current.rows.empty() ? false : ordinal != current_ordinal;
    if (breaks) {
      units.push_back(std::move(current));
      current = Unit{};
      current.seq = units.size();
    }
    current_ordinal = ordinal;
    current.rows.push_back(row);
  }
  if (!current.rows.empty()) units.push_back(std::move(current));
  return units;
}

void Dataloader::Start() {
  if (started_) return;
  started_ = true;
  auto& registry = obs::MetricsRegistry::Global();
  fetch_hist_ = registry.GetHistogram("loader.fetch_us");
  decode_hist_ = registry.GetHistogram("loader.decode_us");
  transform_hist_ = registry.GetHistogram("loader.transform_us");
  stall_hist_ = registry.GetHistogram("loader.stall_us");
  rows_counter_ = registry.GetCounter("loader.rows");
  bytes_copied_counter_ = registry.GetCounter("loader.bytes_copied");
  queued_gauge_ = registry.GetGauge("loader.queued_rows");
  copied_watermark_ = TotalBytesCopied();
  // Visit units in shuffled order for shuffled streams (chunk-level
  // shuffle); the reservoir adds sample-level randomness (§3.5).
  std::vector<size_t> visit(units_.size());
  for (size_t i = 0; i < visit.size(); ++i) visit[i] = i;
  if (options_.shuffle) {
    Rng rng(options_.seed ^ 0x5eed);
    for (size_t i = visit.size(); i > 1; --i) {
      std::swap(visit[i - 1], visit[rng.Uniform(i)]);
    }
    // Re-number sequence keys to the visit order so sequential consumption
    // logic can be reused for bookkeeping.
    for (size_t k = 0; k < visit.size(); ++k) units_[visit[k]].seq = k;
  }
  // Sequential decode-ahead is capped at num_workers units past the one
  // the consumer is draining: each worker runs one unit at a time, so a
  // deeper window adds no fetch concurrency, only decoded rows waiting in
  // completed_. Shuffle mode keeps the full window; its reservoir bounds
  // the decoded rows instead.
  size_t window = options_.shuffle
                      ? options_.prefetch_units
                      : std::min(options_.prefetch_units, options_.num_workers);
  start_allowance_ = std::max<size_t>(1, window);
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  for (size_t pos = 0; pos < visit.size(); ++pos) {
    const Unit* unit = &units_[visit[pos]];
    pool_->Submit([this, unit, pos] {
      {
        MutexLock lock(mu_);
        while (!(abort_ || !first_error_.ok() || pos < start_allowance_)) {
          gate_cv_.Wait(mu_);
        }
        if (abort_ || !first_error_.ok()) {
          ++units_done_;
          ready_cv_.NotifyAll();
          return;
        }
      }
      ProcessUnit(*unit);
    });
  }
}

void Dataloader::ProcessUnit(const Unit& unit) {
  // Worker threads adopt the job's trace context for the unit's duration:
  // every span below (loader.fetch → storage.op) inherits its trace id.
  obs::ContextScope context_scope(options_.context);
  Status status;
  size_t cap = std::max<size_t>(1, options_.shuffle_buffer_rows);
  // Per-stage timing, accumulated locally and merged into stats_ once at
  // unit end (workers never contend on the mutex per sample). Each op also
  // lands in a registry histogram and, when tracing is on, a span.
  int64_t fetch_us = 0, decode_us = 0, transform_us = 0;
  auto timed = [](obs::Histogram* hist, int64_t* acc, const char* span_name,
                  auto&& fn) {
    obs::ScopedSpan span(span_name, "loader");
    int64_t t0 = NowMicros();
    auto r = fn();
    int64_t dt = NowMicros() - t0;
    *acc += dt;
    hist->Observe(static_cast<double>(dt));
    return r;
  };
  // Publishes one decoded row immediately (shuffle: into the reservoir,
  // honoring its capacity; sequential: into the unit's progress entry), so
  // consumption overlaps decoding from the first sample.
  auto publish = [&](Row row) {
    if (options_.shuffle) {
      MutexLock lock(mu_);
      while (!(abort_ || reservoir_.size() < cap)) {
        reservoir_cv_.Wait(mu_);
      }
      if (abort_) return;
      reservoir_.push_back(std::move(row));
    } else {
      MutexLock lock(mu_);
      completed_[unit.seq].rows.push_back(std::move(row));
    }
    queued_gauge_->Add(1);
    ready_cv_.NotifyAll();
  };
  // Bounded re-fetch on retryable storage errors: a transient object-store
  // fault recovers instead of poisoning the whole epoch. Retries are
  // immediate — backoff belongs to the RetryingStore decorator underneath;
  // permanent errors (NotFound, Corruption, ...) still fail fast. Every
  // transient failure lands on the error-event timeline labeled with the
  // op and key (`describe` is only invoked on failure — the hot path never
  // builds the label string).
  auto fetch_with_retry = [&](const char* op, auto&& describe, auto&& fetch) {
    auto r = fetch();
    for (int attempt = 0; attempt < options_.max_transient_retries &&
                          !r.ok() && r.status().IsRetryable();
         ++attempt) {
      obs::RecordErrorEvent(
          obs::TraceRecorder::Global(), "loader.transient_fetch",
          "op=" + std::string(op) + " key=" + describe() + " attempt=" +
              std::to_string(attempt + 1) + " " + r.status().ToString());
      r = fetch();
      if (r.ok()) {
        MutexLock lock(mu_);
        stats_.transient_errors_recovered++;
      }
    }
    if (!r.ok() && r.status().IsRetryable()) {
      // Out of budget (or none configured): this failure poisons the epoch.
      obs::RecordErrorEvent(
          obs::TraceRecorder::Global(), "loader.fetch_failed",
          "op=" + std::string(op) + " key=" + describe() + " " +
              r.status().ToString());
    }
    return r;
  };
  // Per-unit, per-tensor chunk cache: each chunk is fetched and parsed
  // once even when it serves many rows.
  std::map<std::string, std::map<uint64_t, std::shared_ptr<tsf::Chunk>>>
      cache;
  for (uint64_t row_idx : unit.rows) {
    Row row;
    for (const auto& name : tensors_) {
      auto tr = dataset_->GetTensor(name);
      if (!tr.ok()) {
        status = tr.status();
        break;
      }
      tsf::Tensor* t = *tr;
      if (row_idx >= t->NumSamples()) {
        row[name] = tsf::Sample::EmptyOf(t->meta().dtype);
        continue;
      }
      if (t->tile_encoder().IsTiled(row_idx)) {
        // Tensor-level reads fetch and decode in one call; the whole cost
        // is attributed to fetch (see DataloaderStats doc).
        auto s = timed(fetch_hist_, &fetch_us, "loader.fetch",
                       [&] { return fetch_with_retry("read", [&] {
                         return name + "[" + std::to_string(row_idx) + "]";
                       }, [&] { return t->Read(row_idx); }); });
        if (!s.ok()) {
          status = s.status();
          break;
        }
        row[name] = std::move(s).value();
        continue;
      }
      auto loc = t->chunk_encoder().Find(row_idx);
      if (!loc.ok()) {
        // Buffered (unflushed) tail: serve through the tensor.
        auto s = timed(fetch_hist_, &fetch_us, "loader.fetch",
                       [&] { return fetch_with_retry("read", [&] {
                         return name + "[" + std::to_string(row_idx) + "]";
                       }, [&] { return t->Read(row_idx); }); });
        if (!s.ok()) {
          status = s.status();
          break;
        }
        row[name] = std::move(s).value();
        continue;
      }
      auto& tensor_cache = cache[name];
      auto it = tensor_cache.find(loc->chunk_id);
      if (it == tensor_cache.end()) {
        auto bytes = timed(fetch_hist_, &fetch_us, "loader.fetch",
                           [&] { return fetch_with_retry("chunk_get", [&] {
                             return t->ChunkKey(loc->chunk_id);
                           }, [&] { return t->store()->Get(
                                 t->ChunkKey(loc->chunk_id)); }); });
        if (!bytes.ok()) {
          status = bytes.status();
          break;
        }
        auto chunk = timed(decode_hist_, &decode_us, "loader.decode",
                           [&] { return tsf::Chunk::Parse(
                               std::move(bytes).value(),
                               /*verify_checksum=*/false); });
        if (!chunk.ok()) {
          status = chunk.status();
          break;
        }
        it = tensor_cache
                 .emplace(loc->chunk_id, std::make_shared<tsf::Chunk>(
                                             std::move(chunk).value()))
                 .first;
      }
      auto s = timed(decode_hist_, &decode_us, "loader.decode",
                     [&] { return it->second->ReadSample(loc->local_index); });
      if (!s.ok()) {
        status = s.status();
        break;
      }
      row[name] = std::move(s).value();
    }
    if (!status.ok()) break;
    if (options_.transform) {
      status = timed(transform_hist_, &transform_us, "loader.transform",
                     [&] { return options_.transform(row); });
      if (!status.ok()) break;
    }
    publish(std::move(row));
  }

  {
    MutexLock lock(mu_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    if (!options_.shuffle) completed_[unit.seq].done = true;
    units_done_++;
    if (status.ok() && !abort_) ++stats_.units;
    if (options_.shuffle) ++start_allowance_;
    stats_.fetch_micros += fetch_us;
    stats_.decode_micros += decode_us;
    stats_.transform_micros += transform_us;
  }
  if (options_.shuffle) gate_cv_.NotifyAll();
  ready_cv_.NotifyAll();
}

Result<bool> Dataloader::Next(Batch* out) {
  // The consumer adopts the job's context too: loader.next / loader.stall
  // spans join the same trace as the worker-side fetches.
  obs::ContextScope context_scope(options_.context);
  obs::ScopedSpan next_span("loader.next", "loader");
  out->columns.clear();
  out->size = 0;
  int64_t wait_start = NowMicros();
  bool stalled = false;

  MutexLock lock(mu_);
  while (pending_rows_.size() < options_.batch_size) {
    if (!first_error_.ok()) return first_error_;
    if (options_.shuffle) {
      if (!reservoir_.empty()) {
        // Random eviction from the reservoir.
        size_t pick = shuffle_rng_.Uniform(reservoir_.size());
        std::swap(reservoir_[pick], reservoir_.back());
        pending_rows_.push_back(std::move(reservoir_.back()));
        reservoir_.pop_back();
        reservoir_cv_.NotifyOne();
        continue;
      }
      if (units_done_ == units_.size()) break;  // drained
    } else {
      auto it = completed_.find(next_seq_);
      if (it != completed_.end()) {
        UnitProgress& p = it->second;
        bool progressed = p.taken < p.rows.size();
        while (p.taken < p.rows.size()) {
          pending_rows_.push_back(std::move(p.rows[p.taken++]));
        }
        if (p.done && p.taken == p.rows.size()) {
          completed_.erase(it);
          ++next_seq_;
          ++start_allowance_;
          gate_cv_.NotifyAll();
          continue;
        }
        if (progressed) continue;
      }
      if (next_seq_ >= units_.size()) break;  // drained
    }
    stalled = true;
    ready_cv_.Wait(mu_);
  }
  if (stalled) {
    int64_t stall = NowMicros() - wait_start;
    stats_.stall_micros += stall;
    stall_hist_->Observe(static_cast<double>(stall));
    // The consumer-starved interval the paper's utilization plots hinge
    // on: visible as a gap-filling span on the consumer thread's track.
    auto& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) {
      recorder.Record("loader.stall", "loader", wait_start, stall);
    }
  }

  // Fold the copy-accounting delta since the last Next() into the epoch
  // stats (covers worker-side copies too: the global counter is atomic).
  uint64_t copied_now = TotalBytesCopied();
  if (copied_now > copied_watermark_) {
    uint64_t delta = copied_now - copied_watermark_;
    copied_watermark_ = copied_now;
    stats_.bytes_copied += delta;
    bytes_copied_counter_->Add(delta);
  }

  if (pending_rows_.empty()) return false;  // end of stream
  uint64_t take = std::min<uint64_t>(options_.batch_size,
                                     pending_rows_.size());
  if (take < options_.batch_size && options_.drop_last) {
    pending_rows_.clear();
    return false;
  }
  for (uint64_t i = 0; i < take; ++i) {
    for (auto& [name, sample] : pending_rows_[i]) {
      out->columns[name].push_back(std::move(sample));
    }
  }
  pending_rows_.erase(pending_rows_.begin(), pending_rows_.begin() + take);
  out->size = take;
  stats_.rows_delivered += take;
  stats_.batches_delivered += 1;
  rows_counter_->Add(take);
  queued_gauge_->Sub(static_cast<double>(take));
  return true;
}

}  // namespace dl::stream
