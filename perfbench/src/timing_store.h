#ifndef PERFBENCH_TIMING_STORE_H_
#define PERFBENCH_TIMING_STORE_H_

// Storage decorator owned by the benchmark, placed directly over the
// simulated object store. It counts requests and bytes in every run (two
// relaxed atomic adds per op) and, when the span log is on, records a
// `storage.get` / `storage.put` span per request. It forwards every
// StorageProvider virtual — including PutDurable, atomic_durable_puts and
// Invalidate — so the program above it behaves exactly as it would
// without it: version control's commit protocol branches on
// atomic_durable_puts.

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "span_log.h"
#include "storage/storage.h"

namespace perfbench {

struct StoreCounts {
  uint64_t gets = 0;        // Get + GetRange
  uint64_t get_bytes = 0;
  uint64_t image_chunk_gets = 0;  // Gets of the `images` tensor's chunks
  uint64_t puts = 0;        // Put + PutDurable
  uint64_t put_bytes = 0;
  uint64_t other = 0;       // Delete, Exists, SizeOf, ListPrefix

  StoreCounts operator-(const StoreCounts& o) const {
    return {gets - o.gets,         get_bytes - o.get_bytes,
            image_chunk_gets - o.image_chunk_gets, puts - o.puts,
            put_bytes - o.put_bytes, other - o.other};
  }
  bool operator==(const StoreCounts&) const = default;
};

class TimingStore : public dl::storage::StorageProvider {
 public:
  explicit TimingStore(dl::storage::StoragePtr base) : base_(std::move(base)) {}

  dl::Result<dl::Slice> Get(std::string_view key) override {
    ScopedSpan span("storage.get");
    auto r = base_->Get(key);
    CountGet(key, r.ok() ? r->size() : 0);
    return r;
  }
  dl::Result<dl::Slice> GetRange(std::string_view key, uint64_t offset,
                                 uint64_t length) override {
    ScopedSpan span("storage.get");
    auto r = base_->GetRange(key, offset, length);
    CountGet(key, r.ok() ? r->size() : 0);
    return r;
  }
  dl::Status Put(std::string_view key, dl::ByteView value) override {
    ScopedSpan span("storage.put");
    CountPut(value.size());
    return base_->Put(key, value);
  }
  dl::Status PutDurable(std::string_view key, dl::ByteView value) override {
    ScopedSpan span("storage.put");
    CountPut(value.size());
    return base_->PutDurable(key, value);
  }
  bool atomic_durable_puts() const override {
    return base_->atomic_durable_puts();
  }
  void Invalidate(std::string_view key) override { base_->Invalidate(key); }
  dl::Status Delete(std::string_view key) override {
    other_.fetch_add(1, std::memory_order_relaxed);
    return base_->Delete(key);
  }
  dl::Result<bool> Exists(std::string_view key) override {
    other_.fetch_add(1, std::memory_order_relaxed);
    return base_->Exists(key);
  }
  dl::Result<uint64_t> SizeOf(std::string_view key) override {
    other_.fetch_add(1, std::memory_order_relaxed);
    return base_->SizeOf(key);
  }
  dl::Result<std::vector<std::string>> ListPrefix(
      std::string_view prefix) override {
    other_.fetch_add(1, std::memory_order_relaxed);
    return base_->ListPrefix(prefix);
  }
  std::string name() const override { return base_->name(); }

  StoreCounts counts() const {
    return {gets_.load(), get_bytes_.load(), image_chunk_gets_.load(),
            puts_.load(), put_bytes_.load(), other_.load()};
  }

 private:
  void CountGet(std::string_view key, uint64_t bytes) {
    gets_.fetch_add(1, std::memory_order_relaxed);
    get_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    // Each dataloader work unit fetches its image chunk once.
    if (key.find("images/chunks/") != std::string_view::npos) {
      image_chunk_gets_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void CountPut(uint64_t bytes) {
    puts_.fetch_add(1, std::memory_order_relaxed);
    put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  dl::storage::StoragePtr base_;
  std::atomic<uint64_t> gets_{0}, get_bytes_{0}, image_chunk_gets_{0};
  std::atomic<uint64_t> puts_{0}, put_bytes_{0}, other_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_STORE_H_
