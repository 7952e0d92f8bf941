// LZ4-style LZ77 byte compressor. Frame layout:
//   varint raw_size
//   sequences until raw_size bytes are produced:
//     token byte: (literal_len << 4) | match_len_minus_4
//       nibble value 15 means "extended": extra bytes of 255 follow, then a
//       terminator byte < 255, all summed.
//     literal bytes
//     [if match_len nibble > 0 or extended] 2-byte LE offset (1..65535),
//       then extended match length bytes if the nibble was 15.
// The final sequence carries literals only (match nibble 0, no offset) —
// signalled by the stream ending exactly at raw_size.

#include <cstring>

#include "compress/codec.h"
#include "util/coding.h"
#include "util/macros.h"

namespace dl::compress {
namespace {

constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t Hash4(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

void PutLen(ByteBuffer& out, size_t extra) {
  // Writes the extension bytes for a nibble that was 15.
  while (extra >= 255) {
    out.push_back(255);
    extra -= 255;
  }
  out.push_back(static_cast<uint8_t>(extra));
}

void EmitSequence(ByteBuffer& out, const uint8_t* lit_start, size_t lit_len,
                  size_t match_len, size_t offset) {
  uint8_t lit_nibble = lit_len >= 15 ? 15 : static_cast<uint8_t>(lit_len);
  uint8_t match_nibble = 0;
  bool has_match = match_len >= kMinMatch;
  if (has_match) {
    size_t ml = match_len - kMinMatch;
    match_nibble = ml >= 15 ? 15 : static_cast<uint8_t>(ml);
  }
  out.push_back(static_cast<uint8_t>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == 15) PutLen(out, lit_len - 15);
  out.insert(out.end(), lit_start, lit_start + lit_len);
  if (has_match) {
    out.push_back(static_cast<uint8_t>(offset));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (match_nibble == 15) PutLen(out, match_len - kMinMatch - 15);
  }
}

class Lz77Codec final : public Codec {
 public:
  Compression id() const override { return Compression::kLz77; }
  std::string_view name() const override { return "lz77"; }

  Result<ByteBuffer> Compress(ByteView raw,
                              const CodecContext& /*ctx*/) const override {
    ByteBuffer out;
    out.reserve(raw.size() / 2 + 16);
    PutVarint64(out, raw.size());
    const uint8_t* base = raw.data();
    const size_t n = raw.size();
    if (n == 0) return out;

    std::vector<uint32_t> table(kHashSize, UINT32_MAX);
    size_t i = 0;
    size_t anchor = 0;  // start of pending literals
    // Matches may not extend into the last kMinMatch bytes so the decoder's
    // wild-copy-free loop stays simple.
    const size_t match_limit = n >= kMinMatch ? n - kMinMatch : 0;
    while (i + kMinMatch <= n && i < match_limit) {
      uint32_t h = Hash4(base + i);
      uint32_t cand = table[h];
      table[h] = static_cast<uint32_t>(i);
      if (cand != UINT32_MAX && i - cand <= kMaxOffset &&
          Load32(base + cand) == Load32(base + i)) {
        // Extend the match forward.
        size_t match_len = kMinMatch;
        while (i + match_len < n &&
               base[cand + match_len] == base[i + match_len]) {
          ++match_len;
        }
        EmitSequence(out, base + anchor, i - anchor, match_len, i - cand);
        // Index a couple of positions inside the match to keep the table
        // warm without hashing every byte.
        size_t end = i + match_len;
        for (size_t p = i + 1; p + kMinMatch <= end && p + kMinMatch <= n;
             p += match_len / 4 + 1) {
          table[Hash4(base + p)] = static_cast<uint32_t>(p);
        }
        i = end;
        anchor = i;
      } else {
        ++i;
      }
    }
    // Trailing literals.
    if (anchor < n) {
      EmitSequence(out, base + anchor, n - anchor, 0, 0);
    }
    return out;
  }

  Status DecompressInto(ByteView frame, ByteBuffer& out) const override {
    out.clear();
    Decoder dec{frame};
    DL_ASSIGN_OR_RETURN(uint64_t raw_size, dec.GetVarint64());
    // raw_size comes off the wire: sanity-bound it before allocating.
    // Each frame byte can contribute at most 255 output bytes (a match
    // length extension byte of 255), so anything beyond that ratio is a
    // corrupt header — reject it instead of attempting a huge resize.
    if (raw_size > static_cast<uint64_t>(frame.size()) * 255 + 255) {
      return Status::Corruption("lz77: raw size implausible for frame");
    }
    out.resize(static_cast<size_t>(raw_size));
    const uint8_t* ip = frame.data() + dec.position();
    const uint8_t* const iend = frame.data() + frame.size();
    uint8_t* const base = out.data();
    const size_t n = out.size();
    size_t op = 0;
    while (op < n) {
      if (ip == iend) return Truncated();
      const uint8_t token = *ip++;
      size_t lit_len = token >> 4;
      if (lit_len == 15 && !ReadLengthExtension(&ip, iend, &lit_len)) {
        return Truncated();
      }
      if (lit_len > static_cast<size_t>(iend - ip)) return Truncated();
      if (lit_len > n - op) {
        return Status::Corruption("lz77: literals overrun raw size");
      }
      std::memcpy(base + op, ip, lit_len);
      ip += lit_len;
      op += lit_len;
      if (op == n) break;  // final literal-only sequence
      if (iend - ip < 2) return Truncated();
      const size_t offset =
          static_cast<size_t>(ip[0]) | (static_cast<size_t>(ip[1]) << 8);
      ip += 2;
      size_t match_len = token & 0x0f;
      if (match_len == 15 && !ReadLengthExtension(&ip, iend, &match_len)) {
        return Truncated();
      }
      match_len += kMinMatch;
      if (offset == 0 || offset > op) {
        return Status::Corruption("lz77: bad match offset");
      }
      if (match_len > n - op) {
        return Status::Corruption("lz77: match overruns raw size");
      }
      CopyMatch(base + op, offset, match_len);
      op += match_len;
    }
    return Status::OK();
  }

 private:
  static Status Truncated() {
    return Status::Corruption("lz77: truncated frame");
  }

  // Adds the extension bytes that follow a length nibble of 15 (a run of
  // 255s ended by a byte < 255). False if the frame ends first.
  static bool ReadLengthExtension(const uint8_t** ip, const uint8_t* iend,
                                  size_t* len) {
    while (*ip < iend) {
      uint8_t b = *(*ip)++;
      *len += b;
      if (b != 255) return true;
    }
    return false;
  }

  // Copies `len` bytes from `offset` bytes back to `dst`. A match that
  // starts at least `len` back does not overlap itself and is one memcpy.
  // An overlapping match repeats the last `offset` bytes: with offset >= 8
  // every 8-byte step reads only bytes already written; shorter periods
  // go byte by byte.
  static void CopyMatch(uint8_t* dst, size_t offset, size_t len) {
    const uint8_t* src = dst - offset;
    if (offset >= len) {
      std::memcpy(dst, src, len);
      return;
    }
    size_t k = 0;
    if (offset >= 8) {
      for (; k + 8 <= len; k += 8) std::memcpy(dst + k, src + k, 8);
      std::memcpy(dst + k, src + k, len - k);  // tail < 8 <= offset
      return;
    }
    for (; k < len; ++k) dst[k] = src[k];
  }
};

}  // namespace

const Codec* GetLz77Codec() {
  static const Lz77Codec* kCodec = new Lz77Codec();
  return kCodec;
}

}  // namespace dl::compress
