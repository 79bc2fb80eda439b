#include "fluxtrace/io/crc.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLUXTRACE_CRC32_FOLD 1
#include <immintrin.h>
#endif

namespace fluxtrace::io {

namespace {

/// The reflected IEEE 802.3 polynomial (bit 31 is x^0).
constexpr std::uint32_t kPoly = 0xedb88320u;

using SliceTables = std::array<std::array<std::uint32_t, 256>, 16>;

const SliceTables& slice_tables() {
  static const SliceTables tables = [] {
    SliceTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t s = 1; s < 16; ++s) {
        c = t[0][c & 0xffu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

/// Advance the CRC register `crc` (pre-inverted, not yet post-inverted)
/// over `len` bytes, slice-by-16: sixteen table lookups per 16-byte step
/// instead of one per byte. table[0] is the classic byte-at-a-time
/// table, and the two 8-byte halves have no data dependency between
/// their lookups, which roughly doubles slice-by-8 on wide cores.
std::uint32_t slice16(std::uint32_t crc, const unsigned char* p,
                      std::size_t len) {
  const SliceTables& t = slice_tables();
  while (len >= 16) {
    std::uint64_t w1, w2;
    std::memcpy(&w1, p, 8);
    std::memcpy(&w2, p + 8, 8);
    if constexpr (std::endian::native == std::endian::big) {
      w1 = __builtin_bswap64(w1);
      w2 = __builtin_bswap64(w2);
    }
    w1 ^= crc;
    crc = t[15][w1 & 0xffu] ^ t[14][(w1 >> 8) & 0xffu] ^
          t[13][(w1 >> 16) & 0xffu] ^ t[12][(w1 >> 24) & 0xffu] ^
          t[11][(w1 >> 32) & 0xffu] ^ t[10][(w1 >> 40) & 0xffu] ^
          t[9][(w1 >> 48) & 0xffu] ^ t[8][(w1 >> 56) & 0xffu] ^
          t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
          t[5][(w2 >> 16) & 0xffu] ^ t[4][(w2 >> 24) & 0xffu] ^
          t[3][(w2 >> 32) & 0xffu] ^ t[2][(w2 >> 40) & 0xffu] ^
          t[1][(w2 >> 48) & 0xffu] ^ t[0][(w2 >> 56) & 0xffu];
    p += 16;
    len -= 16;
  }
  while (len-- > 0) crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  return crc;
}

#ifdef FLUXTRACE_CRC32_FOLD

#define FLUXTRACE_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

// Helpers carry the target attribute themselves: a lambda inside the
// fold would not inherit it, and the intrinsics would not inline.
FLUXTRACE_FOLD_TARGET inline __m128i load(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Fold the 128-bit lane `x` forward by the distance the constant pair
/// `k` encodes (hi64·k_hi ^ lo64·k_lo), then add the next data block.
FLUXTRACE_FOLD_TARGET inline __m128i fold_into(__m128i x, __m128i k,
                                               __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Advance the CRC register over `len` bytes, len >= 64 and a multiple
/// of 16: four 128-bit accumulators fold 64 bytes per step, collapse to
/// one, fold the remaining 16-byte blocks, then reduce 128 → 64 → 32
/// bits (Barrett). The constants are x^k mod P in the bit-reflected
/// domain, from the end of the Intel paper.
FLUXTRACE_FOLD_TARGET std::uint32_t fold(std::uint32_t crc,
                                         const unsigned char* p,
                                         std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;

  while (len >= 64) {
    x1 = fold_into(x1, k1k2, load(p));
    x2 = fold_into(x2, k1k2, load(p + 16));
    x3 = fold_into(x3, k1k2, load(p + 32));
    x4 = fold_into(x4, k1k2, load(p + 48));
    p += 64;
    len -= 64;
  }
  x1 = fold_into(x1, k3k4, x2);
  x1 = fold_into(x1, k3k4, x3);
  x1 = fold_into(x1, k3k4, x4);
  while (len >= 16) {
    x1 = fold_into(x1, k3k4, load(p));
    p += 16;
    len -= 16;
  }

  // 128 → 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5k0, 0x00), x2);

  // Barrett reduction to 32 bits.
  x2 = _mm_and_si128(x1, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
  x2 = _mm_and_si128(x2, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool detect_fold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif

/// a·b mod P, both polynomials bit-reflected (zlib's multmodp). `a` must
/// be nonzero; every caller passes a power of x.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// kZeros[i][j] = x^(8·j·256^i) mod P: multiplying a CRC by it appends
/// j·256^i zero bytes. Eight byte positions cover any 64-bit length, so
/// a combine costs one multiply per nonzero byte of the length (two for
/// a chunk payload under 64 KiB). Built at compile time.
using ZeroTables = std::array<std::array<std::uint32_t, 256>, 8>;
constexpr ZeroTables make_zero_tables() {
  ZeroTables t{};
  std::uint32_t unit = 1u << 23; // x^8: one zero byte
  for (auto& row : t) {
    row[0] = 1u << 31; // x^0
    for (std::size_t j = 1; j < row.size(); ++j) {
      row[j] = multmodp(row[j - 1], unit);
    }
    unit = multmodp(row[255], unit); // x^(8·256^(i+1))
  }
  return t;
}
constexpr ZeroTables kZeros = make_zero_tables();

} // namespace

std::uint32_t detail::crc32_slice16(const void* data, std::size_t len) {
  return slice16(0xffffffffu, static_cast<const unsigned char*>(data), len) ^
         0xffffffffu;
}

bool detail::crc32_fold_supported() {
#ifdef FLUXTRACE_CRC32_FOLD
  static const bool supported = detect_fold();
  return supported;
#else
  return false;
#endif
}

std::uint32_t detail::crc32_fold(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xffffffffu;
#ifdef FLUXTRACE_CRC32_FOLD
  if (len >= 64) {
    const std::size_t folded = len & ~std::size_t{15};
    crc = fold(crc, p, folded);
    p += folded;
    len -= folded;
  }
#endif
  return slice16(crc, p, len) ^ 0xffffffffu;
}

std::uint32_t crc32(const void* data, std::size_t len) {
  // Frame headers (13 and 21 bytes) are the commonest input: they skip
  // the dispatch entirely.
  if (len >= 64 && detail::crc32_fold_supported()) {
    return detail::crc32_fold(data, len);
  }
  return detail::crc32_slice16(data, len);
}

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2) {
  for (std::size_t i = 0; len2 != 0; ++i, len2 >>= 8) {
    if ((len2 & 0xffu) != 0) crc1 = multmodp(kZeros[i][len2 & 0xffu], crc1);
  }
  return crc1 ^ crc2;
}

} // namespace fluxtrace::io
