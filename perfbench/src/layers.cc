#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "compress/codec.h"
#include "span_log.h"
#include "tsf/chunk.h"

namespace perfbench {

bool PixelsMatch(dl::ByteView got, dl::ByteView want, bool lossy) {
  if (got.size() != want.size()) return false;
  if (!lossy) {
    return std::equal(got.begin(), got.end(), want.begin());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::abs(static_cast<int>(got[i]) - static_cast<int>(want[i])) >
        kLossyMaxError) {
      return false;
    }
  }
  return true;
}

dl::tsf::TensorOptions ImageTensorOptions(bool lossy) {
  dl::tsf::TensorOptions img;
  img.htype = "image";
  img.sample_compression = lossy ? "jpeg" : "none";
  img.chunk_compression = "none";
  return img;
}

void ReplayChunkLayers(dl::tsf::Tensor* tensor, uint64_t max_rows, bool lossy,
                       uint64_t seed, int encode_images, Report* report) {
  const uint64_t rows = std::min<uint64_t>(max_rows, tensor->NumSamples());
  std::map<uint64_t, uint64_t> first_row_of_chunk;  // chunk id -> first row
  for (uint64_t r = 0; r < rows; ++r) {
    auto loc = tensor->chunk_encoder().Find(r);
    if (loc.ok()) first_row_of_chunk.emplace(loc->chunk_id, r);
  }
  uint64_t chunks = 0, images = 0, raw_bytes = 0;
  for (const auto& [chunk_id, first] : first_row_of_chunk) {
    auto bytes = tensor->store()->Get(tensor->ChunkKey(chunk_id));
    report->Check(bytes.ok(), "replay fetch of chunk " +
                                  tensor->ChunkKey(chunk_id));
    if (!bytes.ok()) continue;
    {
      ScopedSpan span("tsf.chunk_parse_verified");
      auto verified = dl::tsf::Chunk::Parse(*bytes, /*verify_checksum=*/true);
      report->Check(verified.ok(), "replay CRC check of chunk");
    }
    dl::Result<dl::tsf::Chunk> chunk = dl::Status::Unknown("unparsed");
    {
      ScopedSpan span("tsf.chunk_parse");
      chunk = dl::tsf::Chunk::Parse(*bytes, /*verify_checksum=*/false);
    }
    report->Check(chunk.ok(), "replay parse of chunk");
    if (!chunk.ok()) continue;
    ++chunks;
    for (size_t i = 0; i < chunk->num_samples() && first + i < rows; ++i) {
      ScopedSpan span("compress.decode");
      auto sample = chunk->ReadSample(i);
      if (!sample.ok()) {
        report->Check(false, "replay ReadSample");
        continue;
      }
      raw_bytes += sample->data.size();
      ++images;
    }
  }
  const double parse_us = Sum(SpanDurations("tsf.chunk_parse"));
  const double verified_us = Sum(SpanDurations("tsf.chunk_parse_verified"));
  const double decode_us = Sum(SpanDurations("compress.decode"));
  const double n_chunks = static_cast<double>(std::max<uint64_t>(chunks, 1));
  report->Set("tsf.chunk_parse.us_per_chunk", parse_us / n_chunks);
  report->Set("tsf.chunk_crc.us_per_chunk",
              std::max(0.0, verified_us - parse_us) / n_chunks);
  report->Set("compress.decode.us_per_image",
              decode_us / static_cast<double>(std::max<uint64_t>(images, 1)));
  report->Set("compress.decode.mb_per_s",
              decode_us > 0 ? static_cast<double>(raw_bytes) / decode_us : 0);

  // Encode cost of the same column's codec on freshly generated images.
  auto gen = ImageGenerator(seed);
  const auto codec = lossy ? dl::compress::Compression::kImageLossy
                           : dl::compress::Compression::kNone;
  for (int i = 0; i < encode_images; ++i) {
    auto s = gen.Generate(static_cast<uint64_t>(i));
    auto ctx = dl::tsf::ContextForSample(dl::tsf::DType::kUInt8,
                                         dl::tsf::TensorShape(s.shape));
    ScopedSpan span("compress.encode");
    auto frame = dl::compress::CompressBytes(codec, dl::ByteView(s.pixels),
                                             ctx);
    report->Check(frame.ok(), "replay encode");
  }
  report->Set("compress.encode.us_per_image",
              Median(SpanDurations("compress.encode")));
}

}  // namespace perfbench
