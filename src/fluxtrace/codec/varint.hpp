// LEB128 varints and zigzag, the integer wire primitives of the FLXT v3
// compressed columnar container (docs/format.md). Encoding is canonical:
// the minimal number of 7-bit groups, never more. Decoding *rejects*
// non-canonical input — an overlong encoding (trailing 0x80-chained
// groups that add no bits, e.g. 0x80 0x00 for zero) is treated as
// damage, not tolerated, so a v3 byte stream has exactly one spelling
// per value and hostile input cannot smuggle length ambiguity past the
// CRC-validated framing (the same discipline as the FLXI forged-count
// fix: validate before trusting, bound before allocating).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace fluxtrace::codec {

/// Longest canonical varint: 10 groups of 7 bits cover 64 bits (the
/// tenth group carries the top single bit, so its byte is 0x01 at most).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Append the canonical LEB128 encoding of `v`.
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80u | (v & 0x7fu)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Bytes put_varint would append for `v` (for exact size estimation):
/// one per started 7-bit group, and one for zero.
[[nodiscard]] inline std::size_t varint_len(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Strict canonical decode at `pos`. On success advances `pos` past the
/// value and returns true. Returns false (leaving `pos` unspecified) on
/// truncation, more than kMaxVarintBytes groups, a tenth byte carrying
/// more than the top bit, or a non-minimal (overlong) encoding.
[[nodiscard]] inline bool get_varint(std::string_view b, std::size_t& pos,
                                     std::uint64_t& out) {
  std::uint64_t v = 0;
  std::size_t n = 0;
  std::uint8_t c = 0;
  do {
    if (pos >= b.size() || n >= kMaxVarintBytes) return false;
    c = static_cast<std::uint8_t>(b[pos++]);
    if (n == 9 && (c & ~std::uint8_t{0x01}) != 0) return false; // >64 bits
    v |= static_cast<std::uint64_t>(c & 0x7fu) << (7 * n);
    ++n;
  } while ((c & 0x80u) != 0);
  if (n > 1 && c == 0) return false; // overlong: a final group of no bits
  out = v;
  return true;
}

/// Zigzag: small-magnitude signed values (deltas, frame-of-reference
/// minima) become small unsigned varints.
[[nodiscard]] inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

} // namespace fluxtrace::codec
