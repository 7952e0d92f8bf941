// Ablation A3 — compression choice per htype (the §5 example: JPEG sample
// compression for images, LZ4 chunk compression for labels). Sweeps the
// image tensor's codec, reporting ingest time, stored bytes, and a full
// decode scan. Built on google-benchmark for per-codec timing plus a
// summary table.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "stream/dataloader.h"

namespace dl::bench {
namespace {

constexpr int kImages = 300;

struct CodecResult {
  double ingest_secs;
  uint64_t stored_bytes;
  double scan_secs;
};

CodecResult RunCodec(const std::string& compression) {
  auto store = std::make_shared<storage::MemoryStore>();
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 81);
  Stopwatch ingest_sw;
  (void)BuildTsfDataset(store, gen, kImages, compression);
  double ingest = ingest_sw.ElapsedSeconds();
  uint64_t bytes = store->TotalBytes();

  auto ds = tsf::Dataset::Open(store).MoveValue();
  stream::DataloaderOptions opts;
  opts.batch_size = 32;
  opts.num_workers = 4;
  opts.tensors = {"images"};
  stream::Dataloader loader(ds, opts);
  Stopwatch scan_sw;
  stream::Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok() || !*more) break;
  }
  return {ingest, bytes, scan_sw.ElapsedSeconds()};
}

compress::CodecContext SampleContext(const sim::SampleSpec& s) {
  compress::CodecContext ctx;
  ctx.row_stride = s.shape[1] * s.shape[2];
  ctx.elem_size = static_cast<uint32_t>(s.shape[2]);
  return ctx;
}

void BM_CompressSample(benchmark::State& state,
                       compress::Compression codec) {
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 82);
  auto s = gen.Generate(0);
  compress::CodecContext ctx = SampleContext(s);
  for (auto _ : state) {
    auto frame = compress::CompressBytes(codec, ByteView(s.pixels), ctx);
    benchmark::DoNotOptimize(frame);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          s.pixels.size());
}

// Decode of the same sample into a reused buffer, as the loader's pooled
// chunk-decode path does; bytes/s counts decoded (raw) bytes.
void BM_DecompressSample(benchmark::State& state,
                         compress::Compression codec) {
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 82);
  auto s = gen.Generate(0);
  auto frame = compress::CompressBytes(codec, ByteView(s.pixels),
                                       SampleContext(s));
  if (!frame.ok()) {
    state.SkipWithError(frame.status().ToString().c_str());
    return;
  }
  ByteBuffer out;
  for (auto _ : state) {
    Status st =
        compress::GetCodec(codec)->DecompressInto(ByteView(*frame), out);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          s.pixels.size());
}

}  // namespace
}  // namespace dl::bench

int main(int argc, char** argv) {
  using namespace dl;
  using namespace dl::bench;
  MarkResourceBaseline();
  Header("Ablation A3 — codec choice for the image tensor",
         "paper §5 (JPEG sample compression + LZ4 chunk compression "
         "defaults)",
         "300 photographic 250^2x3 images per codec, in-memory store",
         "lossy image codec: best bytes; none: fastest ingest, most bytes; "
         "lz77-on-raw: middling");

  Table table({"sample codec", "ingest", "stored", "ratio", "decode scan"});
  uint64_t raw_bytes = 0;
  for (const std::string codec : {"none", "lz77", "image", "jpeg"}) {
    CodecResult r = RunCodec(codec);
    if (codec == "none") raw_bytes = r.stored_bytes;
    table.AddRow({codec, Secs(r.ingest_secs), HumanBytes(r.stored_bytes),
                  Fmt("%.2fx", static_cast<double>(raw_bytes) /
                                   r.stored_bytes),
                  Secs(r.scan_secs)});
  }
  table.Print();
  if (dl::Status report_st = dl::bench::WriteJsonReport("ablation_codecs", table);
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\nper-codec compression and decompression "
              "microbenchmarks (google-benchmark):\n");

  benchmark::RegisterBenchmark("compress/lz77", &BM_CompressSample,
                               compress::Compression::kLz77);
  benchmark::RegisterBenchmark("compress/image", &BM_CompressSample,
                               compress::Compression::kImage);
  benchmark::RegisterBenchmark("compress/image_lossy", &BM_CompressSample,
                               compress::Compression::kImageLossy);
  benchmark::RegisterBenchmark("decompress/lz77", &BM_DecompressSample,
                               compress::Compression::kLz77);
  benchmark::RegisterBenchmark("decompress/image", &BM_DecompressSample,
                               compress::Compression::kImage);
  benchmark::RegisterBenchmark("decompress/image_lossy", &BM_DecompressSample,
                               compress::Compression::kImageLossy);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n");
  return 0;
}
