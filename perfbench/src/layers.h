#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Pieces shared by the workloads: the generated image inputs, the output
// checks on delivered pixels, and the single-threaded tsf/compress replay
// the traced run uses for per-layer costs.

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"
#include "sim/workload.h"
#include "tsf/dataset.h"

namespace perfbench {

/// Largest per-pixel error the lossy image codec may introduce at the
/// default quality (75 keeps all but the lowest bit; decode re-centres the
/// dropped bit, so a pixel moves by at most 1).
constexpr int kLossyMaxError = 1;

/// 250x250x3 images, the Fig. 7/8 shape, from a workload seed.
inline dl::sim::WorkloadGenerator ImageGenerator(uint64_t seed) {
  return dl::sim::WorkloadGenerator(dl::sim::WorkloadGenerator::SmallJpeg(),
                                    seed);
}

/// True when `got` equals `want` byte for byte (raw) or within the lossy
/// codec's error bound.
bool PixelsMatch(dl::ByteView got, dl::ByteView want, bool lossy);

/// Tensor options of the image column: lossy JPEG stand-in or raw bytes,
/// no chunk compression, default 8 MB chunks.
dl::tsf::TensorOptions ImageTensorOptions(bool lossy);

/// Replays the chunks holding the first `max_rows` rows of `tensor`
/// through Tensor::ChunkKey, Chunk::Parse and Chunk::ReadSample on one
/// thread, outside the dataloader, and times encoding `encode_images`
/// generated images with compress::CompressBytes. Records spans, so the
/// span log must be on; sets the tsf.* and compress.* per-layer metrics.
void ReplayChunkLayers(dl::tsf::Tensor* tensor, uint64_t max_rows, bool lossy,
                       uint64_t seed, int encode_images, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
