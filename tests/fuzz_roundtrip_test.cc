// Fuzz-ish robustness suite for the byte codecs and the varint/fixed coding
// layer: random buffers round-trip exactly, and random/truncated/corrupted
// frames must come back as Status::Corruption (or decode to *something*) —
// never crash, scan out of bounds, or trip UBSan. Run it under
// DEEPLAKE_SANITIZE=undefined (scripts/run_sanitizers.sh) to get the actual
// UB checking; in a plain build it still catches crashes and wrong results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "util/bytes.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/envelope.h"
#include "util/json.h"
#include "util/macros.h"
#include "util/rng.h"

namespace dl {
namespace {

using compress::Compression;
using compress::GetCodec;

ByteBuffer RandomBuffer(Rng& rng, size_t n) {
  ByteBuffer data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

ByteBuffer CompressibleBuffer(Rng& rng, size_t n) {
  // Mixed runs and noise: exercises both match and literal paths in lz77.
  ByteBuffer data;
  data.reserve(n);
  while (data.size() < n) {
    if (rng.Uniform(2) == 0) {
      uint8_t v = static_cast<uint8_t>(rng.Next());
      size_t run = 1 + rng.Uniform(300);
      for (size_t k = 0; k < run && data.size() < n; ++k) data.push_back(v);
    } else {
      size_t blob = 1 + rng.Uniform(40);
      for (size_t k = 0; k < blob && data.size() < n; ++k) {
        data.push_back(static_cast<uint8_t>(rng.Next()));
      }
    }
  }
  return data;
}

const Compression kByteCodecs[] = {Compression::kLz77, Compression::kRle,
                                   Compression::kDelta};

TEST(FuzzRoundTrip, RandomBuffersSurviveAllCodecs) {
  Rng rng(0xf022);
  for (int iter = 0; iter < 60; ++iter) {
    size_t n = rng.Uniform(4096);
    ByteBuffer raw = iter % 2 == 0 ? RandomBuffer(rng, n)
                                   : CompressibleBuffer(rng, n);
    for (Compression c : kByteCodecs) {
      auto frame = GetCodec(c)->Compress(ByteView(raw), {});
      ASSERT_TRUE(frame.ok()) << compress::CompressionName(c);
      auto back = GetCodec(c)->Decompress(ByteView(*frame));
      ASSERT_TRUE(back.ok()) << compress::CompressionName(c);
      ASSERT_EQ(*back, raw) << compress::CompressionName(c)
                            << " iter=" << iter << " n=" << n;
    }
  }
}

TEST(FuzzRoundTrip, GarbageFramesNeverCrash) {
  Rng rng(0xdead);
  for (int iter = 0; iter < 400; ++iter) {
    ByteBuffer junk = RandomBuffer(rng, rng.Uniform(512));
    for (Compression c : kByteCodecs) {
      // Any Status outcome is acceptable; surviving the call is the test.
      auto r = GetCodec(c)->Decompress(ByteView(junk));
      if (!r.ok()) continue;
    }
  }
}

TEST(FuzzRoundTrip, TruncatedFramesFailCleanly) {
  Rng rng(0x7a11);
  ByteBuffer raw = CompressibleBuffer(rng, 2048);
  for (Compression c : kByteCodecs) {
    auto frame = GetCodec(c)->Compress(ByteView(raw), {});
    ASSERT_TRUE(frame.ok());
    for (size_t cut = 0; cut < frame->size();
         cut += 1 + frame->size() / 37) {
      ByteBuffer truncated(frame->begin(), frame->begin() + cut);
      auto r = GetCodec(c)->Decompress(ByteView(truncated));
      // A truncated frame may only succeed if the cut happens to land on a
      // self-consistent prefix; it must never produce the full buffer from
      // fewer bytes or crash.
      if (r.ok()) EXPECT_LE(r->size(), raw.size());
    }
  }
}

TEST(FuzzRoundTrip, DeltaSurvivesInt64Extremes) {
  // INT64_MIN -> INT64_MAX steps overflow a naive signed delta; the codec
  // must round-trip them via mod-2^64 arithmetic (UBSan-clean).
  const int64_t values[] = {std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min(),
                            0,
                            std::numeric_limits<int64_t>::max(),
                            -1,
                            1};
  ByteBuffer raw(sizeof(values));
  std::memcpy(raw.data(), values, sizeof(values));
  compress::CodecContext ctx;
  ctx.elem_size = 8;
  auto frame = GetCodec(Compression::kDelta)->Compress(ByteView(raw), ctx);
  ASSERT_TRUE(frame.ok());
  auto back = GetCodec(Compression::kDelta)->Decompress(ByteView(*frame));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, raw);
}

TEST(FuzzRoundTrip, Lz77RejectsImplausibleRawSize) {
  // A tiny frame claiming an enormous raw size must be rejected up front
  // (bounded allocation), not attempted.
  ByteBuffer evil;
  PutVarint64(evil, std::numeric_limits<uint64_t>::max() / 2);
  auto r = GetCodec(Compression::kLz77)->Decompress(ByteView(evil));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(FuzzRoundTrip, Lz77CorruptedBytesFailOrMismatch) {
  Rng rng(0xbadf);
  ByteBuffer raw = CompressibleBuffer(rng, 1024);
  auto frame = GetCodec(Compression::kLz77)->Compress(ByteView(raw), {});
  ASSERT_TRUE(frame.ok());
  for (int iter = 0; iter < 200; ++iter) {
    ByteBuffer mutated = *frame;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    // Either a clean Corruption error or a decode (possibly wrong bytes —
    // lz77 frames carry no checksum; the chunk layer owns integrity).
    auto r = GetCodec(Compression::kLz77)->Decompress(ByteView(mutated));
    (void)r.ok();
  }
}

TEST(CodingRoundTrip, VarintsAcrossTheRange) {
  Rng rng(0xc0de);
  std::vector<uint64_t> values = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<uint64_t>::max()};
  for (int i = 0; i < 200; ++i) values.push_back(rng.Next());
  ByteBuffer buf;
  for (uint64_t v : values) PutVarint64(buf, v);
  Decoder dec{ByteView(buf)};
  for (uint64_t v : values) {
    auto r = dec.GetVarint64();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v);
  }
}

TEST(CodingRoundTrip, SignedVarintsIncludingExtremes) {
  Rng rng(0x51ed);
  std::vector<int64_t> values = {0,
                                 -1,
                                 1,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(),
                                 -64,
                                 63,
                                 -65,
                                 64};
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<int64_t>(rng.Next()));
  }
  ByteBuffer buf;
  for (int64_t v : values) PutVarintSigned64(buf, v);
  Decoder dec{ByteView(buf)};
  for (int64_t v : values) {
    auto r = dec.GetVarintSigned64();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v);
  }
}

TEST(CodingRoundTrip, ZigZagIsAnInvolutionOnRandomValues) {
  Rng rng(0x2182);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Next());
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(CodingRoundTrip, FixedWidthValues) {
  Rng rng(0xf1de);
  ByteBuffer buf;
  std::vector<uint64_t> v64;
  std::vector<uint32_t> v32;
  std::vector<uint16_t> v16;
  for (int i = 0; i < 100; ++i) {
    v64.push_back(rng.Next());
    v32.push_back(static_cast<uint32_t>(rng.Next()));
    v16.push_back(static_cast<uint16_t>(rng.Next()));
  }
  for (size_t i = 0; i < v64.size(); ++i) {
    PutFixed64(buf, v64[i]);
    PutFixed32(buf, v32[i]);
    PutFixed16(buf, v16[i]);
  }
  Decoder dec{ByteView(buf)};
  for (size_t i = 0; i < v64.size(); ++i) {
    ASSERT_EQ(*dec.GetFixed64(), v64[i]);
    ASSERT_EQ(*dec.GetFixed32(), v32[i]);
    ASSERT_EQ(*dec.GetFixed16(), v16[i]);
  }
}

TEST(CodingRoundTrip, TruncatedVarintsFailCleanly) {
  ByteBuffer buf;
  PutVarint64(buf, std::numeric_limits<uint64_t>::max());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteBuffer truncated(buf.begin(), buf.begin() + cut);
    Decoder dec{ByteView(truncated)};
    EXPECT_FALSE(dec.GetVarint64().ok());
  }
}

TEST(CodingRoundTrip, OverlongVarintIsRejected) {
  // 11 continuation bytes exceed the maximum 10-byte varint64 encoding.
  ByteBuffer buf(11, 0x80);
  Decoder dec{ByteView(buf)};
  EXPECT_FALSE(dec.GetVarint64().ok());
}

// ---------------------------------------------------------------------------
// Manifest envelopes (DESIGN.md §9): wrap/unwrap round-trips exactly;
// truncation, bit flips and garbage always come back Status::Corruption —
// the failure modes crash recovery and dlfsck rely on detecting.
// ---------------------------------------------------------------------------

TEST(EnvelopeFuzz, RandomPayloadsRoundTrip) {
  Rng rng(0xe77e);
  for (int iter = 0; iter < 60; ++iter) {
    ByteBuffer payload = RandomBuffer(rng, rng.Uniform(2048));
    ByteBuffer framed = EnvelopeWrap(ByteView(payload));
    ASSERT_EQ(framed.size(), payload.size() + kEnvelopeOverhead);
    auto back = EnvelopeUnwrap(Slice::Borrowed(ByteView(framed)));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, payload);
    // The raw-passthrough reader must agree on framed input.
    auto raw = EnvelopeUnwrapOrRaw(Slice::Borrowed(ByteView(framed)));
    ASSERT_TRUE(raw.ok()) << raw.status();
    EXPECT_EQ(*raw, payload);
  }
}

TEST(EnvelopeFuzz, EveryTruncationFailsCleanly) {
  ByteBuffer framed = EnvelopeWrap(ByteView(BufferFromString(
      "{\"keys\": [\"labels/chunks/c0\", \"labels/tensor_meta.json\"]}")));
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    ByteBuffer torn(framed.begin(), framed.begin() + cut);
    auto s = EnvelopeUnwrap(Slice::Borrowed(ByteView(torn))).status();
    EXPECT_TRUE(s.IsCorruption()) << "cut=" << cut << ": " << s;
    // Once the magic is intact the torn frame must not pass for legacy
    // raw content either.
    if (cut >= 4) {
      EXPECT_TRUE(EnvelopeUnwrapOrRaw(Slice::Borrowed(ByteView(torn))).status().IsCorruption())
          << "cut=" << cut;
    }
  }
}

TEST(EnvelopeFuzz, EveryBitFlipIsDetected) {
  ByteBuffer payload = BufferFromString("commit record: parent, branch, ts");
  ByteBuffer framed = EnvelopeWrap(ByteView(payload));
  for (size_t pos = 0; pos < framed.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      ByteBuffer flipped = framed;
      flipped[pos] ^= static_cast<uint8_t>(1u << bit);
      auto got = EnvelopeUnwrap(Slice::Borrowed(ByteView(flipped)));
      // A flip in the length field may alias to a plausible length only if
      // the CRC also matches — CRC-32C makes that impossible for one bit.
      EXPECT_TRUE(got.status().IsCorruption())
          << "pos=" << pos << " bit=" << bit << ": " << got.status();
    }
  }
}

TEST(EnvelopeFuzz, GarbageNeverCrashes) {
  Rng rng(0x6a5b);
  for (int iter = 0; iter < 200; ++iter) {
    ByteBuffer junk = RandomBuffer(rng, rng.Uniform(256));
    auto strict = EnvelopeUnwrap(Slice::Borrowed(ByteView(junk)));
    if (strict.ok()) {
      // Astronomically unlikely (needs magic + matching CRC); accept but
      // sanity-check the claimed length.
      EXPECT_EQ(strict->size() + kEnvelopeOverhead, junk.size());
    }
    // Without the magic, the tolerant reader passes junk through verbatim
    // (legacy raw manifests); with it, verification still applies.
    auto tolerant = EnvelopeUnwrapOrRaw(Slice::Borrowed(ByteView(junk)));
    bool has_magic = junk.size() >= 4 && junk[0] == 'D' && junk[1] == 'L' &&
                     junk[2] == 'E' && junk[3] == '1';
    if (!has_magic) {
      ASSERT_TRUE(tolerant.ok()) << tolerant.status();
      EXPECT_EQ(*tolerant, junk);
    }
  }
}

TEST(EnvelopeFuzz, FuzzedManifestJsonFailsCleanly) {
  // The ReadManifest path: unwrap, then parse. Whatever the fuzzer does to
  // the payload, the reader must end in Corruption (envelope broken) or
  // InvalidArgument (envelope fine, JSON broken) — never crash or succeed
  // with garbage.
  Rng rng(0x9d0f);
  const std::string keyset =
      "{\"keys\": [\"labels/chunks/c0\"], \"commit\": \"abc123\"}";
  for (int iter = 0; iter < 300; ++iter) {
    ByteBuffer framed = EnvelopeWrap(ByteView(keyset));
    switch (iter % 3) {
      case 0: {  // bit flip anywhere in the frame
        size_t pos = rng.Uniform(static_cast<uint64_t>(framed.size()));
        framed[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
        break;
      }
      case 1: {  // truncate
        framed.resize(rng.Uniform(static_cast<uint64_t>(framed.size())));
        break;
      }
      default: {  // valid envelope around fuzzed JSON text
        std::string broken = keyset;
        size_t pos = rng.Uniform(static_cast<uint64_t>(broken.size()));
        broken[pos] = static_cast<char>(rng.Next());
        framed = EnvelopeWrap(ByteView(broken));
        break;
      }
    }
    auto payload = EnvelopeUnwrapOrRaw(Slice::Borrowed(ByteView(framed)));
    if (!payload.ok()) {
      EXPECT_TRUE(payload.status().IsCorruption()) << payload.status();
      continue;
    }
    auto j = Json::Parse(ByteView(*payload).ToStringView());
    if (j.ok()) {
      // The mutation happened to keep the JSON valid (e.g. flipped a char
      // inside a string literal); that is fine — CRC already vouched for
      // the bytes.
      continue;
    }
    EXPECT_TRUE(j.status().IsInvalidArgument() || j.status().IsCorruption())
        << j.status();
  }
}

// ---------------------------------------------------------------------------
// Image/LZ77 decoder parity
// ---------------------------------------------------------------------------
// The decoders work on whole rows and bulk copies. The oracles below are the
// straightforward byte-at-a-time versions of the same stages (per-byte
// Decoder reads, per-byte match copies, per-byte Paeth with the row and
// column edges as branches, a separate dequantize pass). On every input,
// valid or not, both must return identical bytes or both Corruption.

uint8_t OraclePaeth(uint8_t left, uint8_t up, uint8_t upleft) {
  int p = static_cast<int>(left) + up - upleft;
  int pa = std::abs(p - left);
  int pb = std::abs(p - up);
  int pc = std::abs(p - upleft);
  if (pa <= pb && pa <= pc) return left;
  if (pb <= pc) return up;
  return upleft;
}

void OracleUnfilterPlane(ByteBuffer& data, size_t stride, size_t bpp) {
  size_t n = data.size();
  for (size_t i = 0; i < n; ++i) {
    size_t col = i % stride;
    uint8_t left = col >= bpp ? data[i - bpp] : 0;
    uint8_t up = i >= stride ? data[i - stride] : 0;
    uint8_t upleft = (i >= stride && col >= bpp) ? data[i - stride - bpp] : 0;
    data[i] = static_cast<uint8_t>(data[i] + OraclePaeth(left, up, upleft));
  }
}

Result<ByteBuffer> OracleLz77Decompress(ByteView frame) {
  ByteBuffer out;
  Decoder dec{frame};
  DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
  if (raw_size > static_cast<uint64_t>(frame.size()) * 255 + 255) {
    return Status::Corruption("oracle: raw size implausible");
  }
  while (out.size() < raw_size) {
    DL_ASSIGN_OR_RETURN(uint8_t token, dec.GetByte());
    size_t lit_len = token >> 4;
    if (lit_len == 15) {
      while (true) {
        DL_ASSIGN_OR_RETURN(uint8_t b, dec.GetByte());
        lit_len += b;
        if (b != 255) break;
      }
    }
    DL_ASSIGN_OR_RETURN(ByteView lits, dec.GetBytes(lit_len));
    out.insert(out.end(), lits.begin(), lits.end());
    if (out.size() >= raw_size) break;
    size_t match_len = token & 0x0f;
    DL_ASSIGN_OR_RETURN(uint8_t o0, dec.GetByte());
    DL_ASSIGN_OR_RETURN(uint8_t o1, dec.GetByte());
    size_t offset = static_cast<size_t>(o0) | (static_cast<size_t>(o1) << 8);
    if (match_len == 15) {
      while (true) {
        DL_ASSIGN_OR_RETURN(uint8_t b, dec.GetByte());
        match_len += b;
        if (b != 255) break;
      }
    }
    match_len += 4;
    if (offset == 0 || offset > out.size()) {
      return Status::Corruption("oracle: bad match offset");
    }
    if (out.size() + match_len > raw_size) {
      return Status::Corruption("oracle: match overruns raw size");
    }
    size_t src = out.size() - offset;
    for (size_t k = 0; k < match_len; ++k) out.push_back(out[src + k]);
  }
  if (out.size() != raw_size) {
    return Status::Corruption("oracle: frame shorter than raw size");
  }
  return out;
}

Result<ByteBuffer> OracleImageDecompress(ByteView frame) {
  Decoder dec{frame};
  DL_ASSIGN_OR_RETURN(uint8_t magic, dec.GetByte());
  DL_ASSIGN_OR_RETURN(uint8_t mode, dec.GetByte());
  DL_ASSIGN_OR_RETURN(uint8_t shift, dec.GetByte());
  DL_ASSIGN_OR_RETURN(uint64_t bpp, dec.GetVarint64());
  DL_ASSIGN_OR_RETURN(uint64_t stride, dec.GetVarint64());
  DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
  // The header rules: the geometry Compress writes and a defined shift.
  if (magic != 'I' || mode > 1 || shift > 7 || bpp == 0 || stride == 0 ||
      bpp > stride || stride % bpp != 0 || raw_size % stride != 0) {
    return Status::Corruption("oracle: bad image header");
  }
  DL_ASSIGN_OR_RETURN(ByteView rest, dec.GetBytes(dec.remaining()));
  DL_ASSIGN_OR_RETURN(ByteBuffer out, OracleLz77Decompress(rest));
  if (out.size() != raw_size) {
    return Status::Corruption("oracle: residual plane size mismatch");
  }
  OracleUnfilterPlane(out, stride, bpp);
  if (mode == 1 && shift > 0) {
    uint8_t center = static_cast<uint8_t>(1u << (shift - 1));
    for (auto& b : out) b = static_cast<uint8_t>((b << shift) | center);
  }
  return out;
}

// Identical bytes, or Corruption from both.
void ExpectParity(const Result<ByteBuffer>& oracle,
                  const Result<ByteBuffer>& actual, const std::string& where) {
  ASSERT_EQ(oracle.ok(), actual.ok())
      << where << " oracle=" << oracle.status().ToString()
      << " actual=" << actual.status().ToString();
  if (oracle.ok()) {
    ASSERT_EQ(*oracle, *actual) << where;
  } else {
    EXPECT_TRUE(oracle.status().IsCorruption()) << where;
    EXPECT_TRUE(actual.status().IsCorruption()) << where;
  }
}

// Random photographic-ish plane: a smooth gradient per channel plus
// noise of random amplitude, so Paeth picks left, up and upleft alike.
ByteBuffer RandomImage(Rng& rng, size_t height, size_t width, size_t bpp) {
  ByteBuffer img(height * width * bpp);
  int noise = static_cast<int>(rng.Uniform(64));
  int dx = static_cast<int>(rng.Uniform(7)) - 3;
  int dy = static_cast<int>(rng.Uniform(7)) - 3;
  size_t i = 0;
  for (size_t y = 0; y < height; ++y) {
    for (size_t x = 0; x < width; ++x) {
      for (size_t c = 0; c < bpp; ++c) {
        int v = 128 + dx * static_cast<int>(x) + dy * static_cast<int>(y) +
                static_cast<int>(c) * 40 +
                (noise > 0 ? static_cast<int>(rng.Uniform(noise)) : 0);
        img[i++] = static_cast<uint8_t>(v);
      }
    }
  }
  return img;
}

// Lossy qualities that select quant shifts 0..4 (see ShiftForQuality).
constexpr int kQualityForShift[] = {95, 75, 55, 35, 10};

TEST(ImageCodecParityFuzz, RandomValidGeometries) {
  Rng rng(0x9ae7);
  for (int iter = 0; iter < 120; ++iter) {
    size_t bpp = 1 + rng.Uniform(4);
    size_t width = 1 + rng.Uniform(300);
    size_t height = 1 + rng.Uniform(64);
    ByteBuffer img = RandomImage(rng, height, width, bpp);
    compress::CodecContext ctx;
    ctx.row_stride = width * bpp;
    ctx.elem_size = static_cast<uint32_t>(bpp);
    bool lossy = iter % 2 == 1;
    size_t shift = lossy ? rng.Uniform(5) : 0;
    ctx.quality = kQualityForShift[shift];
    Compression c = lossy ? Compression::kImageLossy : Compression::kImage;
    auto frame = GetCodec(c)->Compress(ByteView(img), ctx);
    ASSERT_TRUE(frame.ok());
    std::string where = "iter=" + std::to_string(iter) +
                        " bpp=" + std::to_string(bpp) +
                        " width=" + std::to_string(width) +
                        " height=" + std::to_string(height) +
                        " shift=" + std::to_string(shift);
    auto actual = GetCodec(c)->Decompress(ByteView(*frame));
    ASSERT_TRUE(actual.ok()) << where << " " << actual.status();
    ExpectParity(OracleImageDecompress(ByteView(*frame)), actual, where);
    if (!lossy) {
      ASSERT_EQ(*actual, img) << where;
      continue;
    }
    // Each lossy sample is the centre of its quantization bucket.
    for (size_t i = 0; i < img.size(); ++i) {
      int expected = shift == 0 ? img[i]
                                : ((img[i] >> shift) << shift) |
                                      (1 << (shift - 1));
      ASSERT_EQ((*actual)[i], expected) << where << " i=" << i;
    }
  }
}

// Appends one LZ77 sequence in the codec's wire format: token, extended
// literal length, literals, then (unless `match_len` is 0) a 2-byte offset
// and extended match length.
void AppendLz77Sequence(ByteBuffer& out, ByteView lits, size_t match_len,
                        size_t offset) {
  auto put_ext = [&](size_t extra) {
    for (; extra >= 255; extra -= 255) out.push_back(255);
    out.push_back(static_cast<uint8_t>(extra));
  };
  size_t lit_nibble = std::min<size_t>(lits.size(), 15);
  size_t match_nibble =
      match_len == 0 ? 0 : std::min<size_t>(match_len - 4, 15);
  out.push_back(static_cast<uint8_t>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) put_ext(lits.size() - 15);
  out.insert(out.end(), lits.begin(), lits.end());
  if (match_len == 0) return;
  out.push_back(static_cast<uint8_t>(offset));
  out.push_back(static_cast<uint8_t>(offset >> 8));
  if (match_nibble == 15) put_ext(match_len - 4 - 15);
}

TEST(Lz77ParityFuzz, OverlappingMatchesAtShortOffsets) {
  // Frames built by hand so every offset 1..16 meets match lengths from 4
  // to 300: overlapping copies below and above the 8-byte step, plus the
  // non-overlapping case. The expected bytes are built alongside.
  Rng rng(0x0f5e);
  for (int iter = 0; iter < 300; ++iter) {
    ByteBuffer expected;
    ByteBuffer body;
    int sequences = 1 + static_cast<int>(rng.Uniform(6));
    for (int q = 0; q < sequences; ++q) {
      size_t offset = 1 + rng.Uniform(16);
      size_t lit_len = rng.Uniform(2) == 0 ? rng.Uniform(20) : offset;
      if (expected.size() + lit_len < offset) lit_len = offset;
      ByteBuffer lits = RandomBuffer(rng, lit_len);
      size_t match_len = 4 + rng.Uniform(297);
      AppendLz77Sequence(body, ByteView(lits), match_len, offset);
      expected.insert(expected.end(), lits.begin(), lits.end());
      size_t src = expected.size() - offset;
      for (size_t k = 0; k < match_len; ++k) {
        expected.push_back(expected[src + k]);
      }
    }
    ByteBuffer tail = RandomBuffer(rng, rng.Uniform(5));
    AppendLz77Sequence(body, ByteView(tail), 0, 0);
    expected.insert(expected.end(), tail.begin(), tail.end());
    ByteBuffer frame;
    PutVarint64(frame, expected.size());
    AppendBytes(frame, ByteView(body));
    std::string where = "iter=" + std::to_string(iter);
    auto actual = GetCodec(Compression::kLz77)->Decompress(ByteView(frame));
    ASSERT_TRUE(actual.ok()) << where << " " << actual.status();
    ASSERT_EQ(*actual, expected) << where;
    ExpectParity(OracleLz77Decompress(ByteView(frame)), actual, where);
  }
}

TEST(Lz77ParityFuzz, SequencesPastRawSizeAreCorruption) {
  // Literals or a match that end exactly at raw_size decode; one byte
  // further must be Corruption, never a write past the output.
  ByteBuffer lits = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (size_t raw_size : {size_t{9}, size_t{10}, size_t{29}, size_t{30}}) {
    ByteBuffer frame;
    PutVarint64(frame, raw_size);
    AppendLz77Sequence(frame, ByteView(lits), /*match_len=*/20,
                       /*offset=*/3);
    std::string where = "raw_size=" + std::to_string(raw_size);
    auto actual = GetCodec(Compression::kLz77)->Decompress(ByteView(frame));
    ExpectParity(OracleLz77Decompress(ByteView(frame)), actual, where);
    EXPECT_EQ(actual.ok(), raw_size == 10 || raw_size == 30) << where;
  }
}

TEST(ImageCodecParityFuzz, MutatedAndTruncatedFrames) {
  Rng rng(0x3c7a);
  for (int iter = 0; iter < 40; ++iter) {
    size_t bpp = 1 + rng.Uniform(4);
    size_t width = 1 + rng.Uniform(64);
    size_t height = 1 + rng.Uniform(16);
    ByteBuffer img = RandomImage(rng, height, width, bpp);
    compress::CodecContext ctx;
    ctx.row_stride = width * bpp;
    ctx.elem_size = static_cast<uint32_t>(bpp);
    ctx.quality = kQualityForShift[rng.Uniform(5)];
    Compression c = iter % 2 == 0 ? Compression::kImage
                                  : Compression::kImageLossy;
    auto frame = GetCodec(c)->Compress(ByteView(img), ctx);
    ASSERT_TRUE(frame.ok());
    auto lz = GetCodec(Compression::kLz77)->Compress(ByteView(img), {});
    ASSERT_TRUE(lz.ok());
    for (int m = 0; m < 25; ++m) {
      std::string where =
          "iter=" + std::to_string(iter) + " mutation=" + std::to_string(m);
      // Image frames: 1-3 byte mutations, biased towards the header.
      ByteBuffer mutated = *frame;
      size_t flips = 1 + rng.Uniform(3);
      for (size_t f = 0; f < flips; ++f) {
        size_t pos = rng.Uniform(2) == 0
                         ? rng.Uniform(std::min<size_t>(mutated.size(), 12))
                         : rng.Uniform(mutated.size());
        mutated[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      }
      ExpectParity(OracleImageDecompress(ByteView(mutated)),
                   GetCodec(c)->Decompress(ByteView(mutated)),
                   "image " + where);
      ByteBuffer truncated(frame->begin(),
                           frame->begin() + rng.Uniform(frame->size()));
      ExpectParity(OracleImageDecompress(ByteView(truncated)),
                   GetCodec(c)->Decompress(ByteView(truncated)),
                   "image truncated " + where);
      // Bare LZ77 frames: the same mutation and truncation.
      ByteBuffer lz_mutated = *lz;
      lz_mutated[rng.Uniform(lz_mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.Uniform(255));
      ExpectParity(OracleLz77Decompress(ByteView(lz_mutated)),
                   GetCodec(Compression::kLz77)->Decompress(
                       ByteView(lz_mutated)),
                   "lz77 " + where);
      ByteBuffer lz_truncated(lz->begin(),
                              lz->begin() + rng.Uniform(lz->size()));
      ExpectParity(OracleLz77Decompress(ByteView(lz_truncated)),
                   GetCodec(Compression::kLz77)->Decompress(
                       ByteView(lz_truncated)),
                   "lz77 truncated " + where);
    }
  }
}

// An image frame with the given header over a valid residual plane of
// `raw_size` zero bytes.
ByteBuffer ImageFrameWithHeader(uint8_t mode, uint8_t shift, uint64_t bpp,
                                uint64_t stride, uint64_t raw_size) {
  ByteBuffer frame = {'I', mode, shift};
  PutVarint64(frame, bpp);
  PutVarint64(frame, stride);
  PutVarint64(frame, raw_size);
  ByteBuffer zeros(raw_size, 0);
  auto lz = GetCodec(Compression::kLz77)->Compress(ByteView(zeros), {});
  EXPECT_TRUE(lz.ok());
  AppendBytes(frame, ByteView(*lz));
  return frame;
}

TEST(ImageCodecParityFuzz, HeaderOutsideWhatCompressWritesIsCorruption) {
  // A quant shift of 200 would make the dequantize step shift by >= 32
  // (undefined behaviour); it and every geometry Compress never writes
  // are rejected by the one header parser, on both entry points.
  struct Case {
    const char* what;
    uint8_t mode, shift;
    uint64_t bpp, stride, raw_size;
  };
  const Case kBad[] = {
      {"shift=200", 1, 200, 3, 12, 48},
      {"shift=8", 1, 8, 3, 12, 48},
      {"mode=2", 2, 1, 3, 12, 48},
      {"bpp>stride", 0, 0, 5, 4, 16},
      {"stride%bpp", 0, 0, 3, 10, 20},
      {"raw%stride", 0, 0, 3, 12, 50},
      {"bpp=0", 0, 0, 0, 12, 48},
  };
  for (const Case& k : kBad) {
    ByteBuffer frame =
        ImageFrameWithHeader(k.mode, k.shift, k.bpp, k.stride, k.raw_size);
    auto r = GetCodec(Compression::kImageLossy)->Decompress(ByteView(frame));
    EXPECT_TRUE(r.status().IsCorruption()) << k.what;
    EXPECT_TRUE(compress::PeekImageFrameInfo(ByteView(frame))
                    .status()
                    .IsCorruption())
        << k.what;
  }
  // The largest accepted shift still decodes.
  ByteBuffer ok = ImageFrameWithHeader(1, 7, 3, 12, 48);
  auto r = GetCodec(Compression::kImageLossy)->Decompress(ByteView(ok));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, ByteBuffer(48, 0x40));
}

// ---------------------------------------------------------------------------
// CRC-32C hardware/software parity
// ---------------------------------------------------------------------------
// The dispatched backend (SSE4.2 / ARMv8-CRC / software, whichever this CPU
// selected) must agree bit-for-bit with the always-available slice-by-8
// implementation at every length, alignment and split point — a wrong tail
// loop or misaligned-word fixup in the hardware path would silently corrupt
// every chunk checksum written on that machine.

TEST(Crc32cParityFuzz, RandomLengthsAndAlignments) {
  Rng rng(0xc32c);
  for (int iter = 0; iter < 400; ++iter) {
    // Slack in front so the view can start at any alignment 0..15.
    size_t align = rng.Uniform(16);
    size_t len = rng.Uniform(iter < 200 ? 64 : 8192);  // dense small sizes
    ByteBuffer backing = RandomBuffer(rng, align + len);
    ByteView view(backing.data() + align, len);
    uint32_t dispatched = Crc32c(view);
    // Crc32cExtendSoftware follows the same resumable convention as
    // Crc32cExtend: seed 0, feed back the previous return value.
    uint32_t software = Crc32cExtendSoftware(0, view);
    EXPECT_EQ(dispatched, software)
        << "len=" << len << " align=" << align << " iter=" << iter;
  }
}

TEST(Crc32cParityFuzz, EverySmallLengthEveryAlignment) {
  // Exhaustive over the region where tail/prefix handling lives: lengths
  // 0..32 at alignments 0..15 (the 8-byte word loop kicks in above ~8).
  Rng rng(0x51ab);
  ByteBuffer backing = RandomBuffer(rng, 64);
  for (size_t align = 0; align < 16; ++align) {
    for (size_t len = 0; len + align <= backing.size() && len <= 32; ++len) {
      ByteView view(backing.data() + align, len);
      EXPECT_EQ(Crc32c(view), Crc32cExtendSoftware(0, view))
          << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32cParityFuzz, RandomSplitPointsCompose) {
  // Extending across arbitrary split points must equal the one-shot CRC on
  // both backends — partial updates are how the chunk writer streams.
  Rng rng(0x5817);
  for (int iter = 0; iter < 200; ++iter) {
    size_t len = 1 + rng.Uniform(4096);
    ByteBuffer data = RandomBuffer(rng, len);
    uint32_t whole_hw = Crc32c(ByteView(data));
    uint32_t whole_sw = Crc32cExtendSoftware(0, ByteView(data));
    ASSERT_EQ(whole_hw, whole_sw);
    // 1-3 random cuts.
    size_t cuts = 1 + rng.Uniform(3);
    std::vector<size_t> points{0, len};
    for (size_t c = 0; c < cuts; ++c) points.push_back(rng.Uniform(len + 1));
    std::sort(points.begin(), points.end());
    uint32_t hw = 0, sw = 0;
    for (size_t i = 0; i + 1 < points.size(); ++i) {
      ByteView part(data.data() + points[i], points[i + 1] - points[i]);
      hw = Crc32cExtend(hw, part);
      sw = Crc32cExtendSoftware(sw, part);
    }
    EXPECT_EQ(hw, whole_hw) << "iter=" << iter;
    EXPECT_EQ(sw, whole_sw) << "iter=" << iter;
  }
}

TEST(Crc32cParityFuzz, BackendNameIsKnown) {
  std::string_view b = Crc32cBackend();
  EXPECT_TRUE(b == "sse4.2" || b == "armv8-crc" || b == "software") << b;
}

}  // namespace
}  // namespace dl
