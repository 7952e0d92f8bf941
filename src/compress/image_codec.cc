// Predictive image codec — the repo's stand-in for PNG (lossless mode) and
// JPEG (lossy mode). See DESIGN.md §1.
//
// Pipeline: per-row Paeth prediction residuals of the quantized plane (lossy
// only; quantize runs inside the filter's row pass) -> LZ77 entropy stage.
// The frame is self-describing:
//   u8 magic 'I', u8 mode (0 lossless / 1 lossy), u8 quant_shift,
//   varint pixel_stride (channels), varint row_stride (width*channels),
//   varint raw_size, then an embedded LZ77 frame of the residual plane.

#include <cstdlib>

#include "compress/codec.h"
#include "util/coding.h"
#include "util/macros.h"

namespace dl::compress {

const Codec* GetLz77Codec();

namespace {

constexpr uint8_t kMagic = 'I';
// Largest quant shift that keeps a bit of every 8-bit sample.
constexpr uint8_t kMaxShift = 7;

// Branchless Paeth predictor: |p - left| = |up - upleft|, |p - up| =
// |left - upleft| and |p - upleft| = |left + up - 2 * upleft| for
// p = left + up - upleft, so both selects compile to conditional moves.
inline uint8_t Paeth(int left, int up, int upleft) {
  int pa = std::abs(up - upleft);
  int pb = std::abs(left - upleft);
  int pc = std::abs(left + up - 2 * upleft);
  int up_or_upleft = pb <= pc ? up : upleft;
  return static_cast<uint8_t>((pa <= pb) & (pa <= pc) ? left : up_or_upleft);
}

// Residual plane of `raw >> shift` via Paeth prediction, row by row. `stride`
// is bytes per row and divides raw.size(); `bpp` (bytes per pixel, the
// "left" neighbour distance) divides `stride`. The first row has no "up"
// (Paeth degenerates to left) and each row's first pixel has no "left"
// (Paeth degenerates to up), so both are peeled out of the Paeth loop.
ByteBuffer FilterPlane(ByteView raw, size_t stride, size_t bpp, int shift) {
  const size_t n = raw.size();
  ByteBuffer out(n);
  if (n == 0) return out;
  const uint8_t* p = raw.data();
  uint8_t* o = out.data();
  auto q = [p, shift](size_t i) {
    return static_cast<uint8_t>(p[i] >> shift);
  };
  for (size_t c = 0; c < bpp; ++c) o[c] = q(c);
  for (size_t c = bpp; c < stride; ++c) {
    o[c] = static_cast<uint8_t>(q(c) - q(c - bpp));
  }
  for (size_t row = stride; row < n; row += stride) {
    for (size_t i = row; i < row + bpp; ++i) {
      o[i] = static_cast<uint8_t>(q(i) - q(i - stride));
    }
    for (size_t i = row + bpp; i < row + stride; ++i) {
      o[i] = static_cast<uint8_t>(
          q(i) - Paeth(q(i - bpp), q(i - stride), q(i - stride - bpp)));
    }
  }
  return out;
}

// Inverse of the quantize step: restores the high bits and centres the
// value in its quantization bucket.
void DequantizeRow(uint8_t* row, size_t len, int shift) {
  if (shift == 0) return;
  const uint8_t center = static_cast<uint8_t>(1u << (shift - 1));
  for (size_t c = 0; c < len; ++c) {
    row[c] = static_cast<uint8_t>((row[c] << shift) | center);
  }
}

// Inverse of FilterPlane, in place over `n` bytes, with the dequantize
// step fused in: row y-1 is dequantized as soon as row y, the last row
// that reads it as "up", has been reconstructed.
void UnfilterPlane(uint8_t* d, size_t n, size_t stride, size_t bpp,
                   int shift) {
  if (n == 0) return;
  for (size_t c = bpp; c < stride; ++c) {
    d[c] = static_cast<uint8_t>(d[c] + d[c - bpp]);
  }
  for (size_t row = stride; row < n; row += stride) {
    uint8_t* cur = d + row;
    uint8_t* up = cur - stride;
    for (size_t c = 0; c < bpp; ++c) {
      cur[c] = static_cast<uint8_t>(cur[c] + up[c]);
    }
    for (size_t c = bpp; c < stride; ++c) {
      cur[c] = static_cast<uint8_t>(
          cur[c] + Paeth(cur[c - bpp], up[c], up[c - bpp]));
    }
    DequantizeRow(up, stride, shift);
  }
  DequantizeRow(d + n - stride, stride, shift);
}

// Header fields of an image frame, validated against what Compress writes.
struct FrameHeader {
  bool lossy = false;
  int shift = 0;
  uint64_t bpp = 0;
  uint64_t stride = 0;
  uint64_t raw_size = 0;
  // The embedded LZ77 frame of the residual plane.
  // dllint-ok(slice-owner): a view into the caller's frame, used within
  // the decode call that parsed it.
  ByteView body;
};

// The one parser of the frame header, shared by DecompressInto and
// PeekImageFrameInfo. Everything it accepts is a geometry the row-peeled
// unfilter handles: whole pixels per row (which also gives bpp <= stride)
// and whole rows per plane, with a quant shift that keeps every shift in
// the dequantize step defined.
Result<FrameHeader> ParseFrameHeader(ByteView frame) {
  Decoder dec{frame};
  DL_ASSIGN_OR_RETURN(uint8_t magic, dec.GetByte());
  if (magic != kMagic) return Status::Corruption("image: bad magic");
  DL_ASSIGN_OR_RETURN(uint8_t mode, dec.GetByte());
  DL_ASSIGN_OR_RETURN(uint8_t shift, dec.GetByte());
  FrameHeader h;
  DL_ASSIGN_OR_RETURN(h.bpp, dec.GetVarint64());
  DL_ASSIGN_OR_RETURN(h.stride, dec.GetVarint64());
  DL_ASSIGN_OR_RETURN(h.raw_size, dec.GetVarint64());
  if (mode > 1) return Status::Corruption("image: bad mode");
  if (shift > kMaxShift) return Status::Corruption("image: bad quant shift");
  if (h.bpp == 0 || h.stride == 0 || h.stride % h.bpp != 0 ||
      h.raw_size % h.stride != 0) {
    return Status::Corruption("image: inconsistent frame geometry");
  }
  h.lossy = mode == 1;
  h.shift = shift;
  DL_ASSIGN_OR_RETURN(h.body, dec.GetBytes(dec.remaining()));
  return h;
}

int ShiftForQuality(int quality) {
  if (quality <= 0) quality = 75;  // default
  if (quality > 100) quality = 100;
  if (quality >= 90) return 0;
  if (quality >= 70) return 1;
  if (quality >= 50) return 2;
  if (quality >= 30) return 3;
  return 4;
}

class ImageCodec : public Codec {
 public:
  explicit ImageCodec(bool lossy) : lossy_(lossy) {}

  Compression id() const override {
    return lossy_ ? Compression::kImageLossy : Compression::kImage;
  }
  std::string_view name() const override {
    return lossy_ ? "image_lossy" : "image";
  }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& ctx) const override {
    // Whole rows per plane and whole pixels per row is the only geometry
    // the decoder accepts. Sample contexts (tsf::ContextForSample) always
    // give it; any other row stride falls back to one row, and a pixel
    // width that does not divide the row falls back to 1.
    size_t stride = ctx.row_stride;
    if (stride == 0 || stride > raw.size() || raw.size() % stride != 0) {
      stride = raw.size() > 0 ? raw.size() : 1;
    }
    size_t bpp = ctx.elem_size > 0 ? ctx.elem_size : 1;
    if (bpp > stride) bpp = stride;
    if (stride % bpp != 0) bpp = 1;
    int shift = lossy_ ? ShiftForQuality(ctx.quality) : 0;
    ByteBuffer residuals = FilterPlane(raw, stride, bpp, shift);

    ByteBuffer out;
    out.push_back(kMagic);
    out.push_back(lossy_ ? 1 : 0);
    out.push_back(static_cast<uint8_t>(shift));
    PutVarint64(out, bpp);
    PutVarint64(out, stride);
    PutVarint64(out, raw.size());
    DL_ASSIGN_OR_RETURN(ByteBuffer lz,
                        GetLz77Codec()->Compress(ByteView(residuals), {}));
    AppendBytes(out, ByteView(lz));
    return out;
  }

  Status DecompressInto(ByteView frame, ByteBuffer& out) const override {
    out.clear();
    DL_ASSIGN_OR_RETURN(FrameHeader h, ParseFrameHeader(frame));
    // The embedded LZ77 stage unpacks the residual plane straight into the
    // caller's (possibly pooled) buffer; unfiltering then runs in place.
    DL_RETURN_IF_ERROR(GetLz77Codec()->DecompressInto(h.body, out));
    if (out.size() != h.raw_size) {
      return Status::Corruption("image: residual plane size mismatch");
    }
    UnfilterPlane(out.data(), out.size(), h.stride, h.bpp,
                  h.lossy ? h.shift : 0);
    return Status::OK();
  }

 private:
  bool lossy_;
};

}  // namespace

Result<ImageFrameInfo> PeekImageFrameInfo(ByteView frame) {
  DL_ASSIGN_OR_RETURN(FrameHeader h, ParseFrameHeader(frame));
  ImageFrameInfo info;
  info.channels = h.bpp;
  info.width = h.stride / h.bpp;
  info.height = h.raw_size / h.stride;
  info.lossy = h.lossy;
  info.raw_bytes = h.raw_size;
  return info;
}

const Codec* GetImageCodec() {
  static const ImageCodec* kCodec = new ImageCodec(/*lossy=*/false);
  return kCodec;
}
const Codec* GetImageLossyCodec() {
  static const ImageCodec* kCodec = new ImageCodec(/*lossy=*/true);
  return kCodec;
}

}  // namespace dl::compress
