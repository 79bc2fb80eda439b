// Fixed-width bit packing: n unsigned values of w bits each, packed
// little-endian (value i occupies bits [i*w, (i+1)*w) of the stream,
// low bits first). This is the payload layer of the frame-of-reference
// and dictionary codecs (column.hpp): both reduce a column to small
// unsigned integers and pack them at the minimal width.
//
// Decoding is bounds-driven: the byte budget for n values of width w is
// computed (and checked against the bytes actually present) before any
// output is allocated, so a forged count cannot provoke an oversized
// allocation or an out-of-range read.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace fluxtrace::codec {

/// Bits needed to represent `v` (0 for v == 0).
[[nodiscard]] inline unsigned bit_width_u64(std::uint64_t v) {
  return static_cast<unsigned>(std::bit_width(v));
}

/// Exact packed size of `n` values at `width` bits.
[[nodiscard]] inline std::size_t packed_bytes(std::size_t n, unsigned width) {
  return (n * width + 7) / 8;
}

/// Append `values` at `width` bits each (values wider than `width` bits
/// are masked). Width 0 appends nothing: the all-zeros column.
inline void pack_bits(std::string& out, std::span<const std::uint64_t> values,
                      unsigned width) {
  if (width == 0 || values.empty()) return;
  const std::size_t base = out.size();
  out.resize(base + packed_bytes(values.size(), width));
  char* p = out.data() + base;
  const auto emit = [&p](std::uint64_t word, unsigned bytes) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &word, bytes);
      p += bytes;
    } else {
      for (unsigned k = 0; k < bytes; ++k) {
        *p++ = static_cast<char>(word >> (8 * k));
      }
    }
  };
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  // Bits accumulate low-first in `acc` and leave 8 bytes at a time.
  std::uint64_t acc = 0;
  unsigned have = 0; // pending bits in acc, always < 64
  for (std::uint64_t v : values) {
    v &= mask;
    acc |= v << have;
    if (have + width < 64) {
      have += width;
      continue;
    }
    emit(acc, 8);
    const unsigned used = 64 - have; // bits of v already in acc
    acc = used < 64 ? v >> used : 0;
    have = have + width - 64;
  }
  emit(acc, (have + 7) / 8);
}

/// Unpack `n` values of `width` bits from `b` starting at `pos` into
/// `out[0..n)`. Returns false (without touching `out`) when fewer than
/// packed_bytes(n, width) bytes remain or width > 64. Advances `pos`.
[[nodiscard]] inline bool unpack_bits(std::string_view b, std::size_t& pos,
                                      std::size_t n, unsigned width,
                                      std::uint64_t* out) {
  if (width > 64 || pos > b.size()) return false;
  const std::size_t need = packed_bytes(n, width);
  if (b.size() - pos < need) return false;
  if (width == 0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    return true;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(b.data()) + pos;
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t byte = bitpos >> 3;
    const unsigned off = static_cast<unsigned>(bitpos & 7);
    std::uint64_t v = 0;
    for (unsigned k = 0; k < 8 && byte + k < need; ++k) {
      v |= static_cast<std::uint64_t>(p[byte + k]) << (8 * k);
    }
    v >>= off;
    if (off != 0 && off + width > 64 && byte + 8 < need) {
      v |= static_cast<std::uint64_t>(p[byte + 8]) << (64 - off);
    }
    out[i] = v & mask;
    bitpos += width;
  }
  pos += need;
  return true;
}

} // namespace fluxtrace::codec
