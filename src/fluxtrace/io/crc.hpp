// CRC-32 (IEEE 802.3, the zlib polynomial): the checksum of every FLXT
// chunk frame, FLXI sidecar and catalog manifest entry.
//
// crc32() picks its kernel once per process. On x86-64 CPUs that report
// PCLMULQDQ and SSE4.1, inputs of 64 bytes or more fold four 128-bit
// lanes at a time with carry-less multiplies and finish with a Barrett
// reduction (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel 2009 — the method
// zlib-chromium uses). The fold is compiled with a function-level target
// attribute, so no build flag changes. The tail of fewer than 16 bytes,
// short inputs and every other host run the slice-by-16 table code,
// which stays the reference the fold is tested against. Both kernels
// give the same value for every input; nothing selects one by hand.
//
// crc32_combine() is zlib's algebra: the CRC of a concatenation from the
// CRCs of its parts and the length of the second, without its bytes.
// io::image_crc (chunked.hpp) uses it to derive a whole image's CRC from
// its chunk frames.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fluxtrace::io {

/// CRC-32 of `len` bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len);

/// crc32(a ‖ b) from crc1 = crc32(a), crc2 = crc32(b) and len2 = |b|:
/// multiply crc1 by x^(8·len2) mod P, then add crc2. The power comes
/// from a compile-time table of x^(8·j·256^i) mod P, one multiply per
/// nonzero byte of len2; the bytes of b are never read.
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc1,
                                          std::uint32_t crc2,
                                          std::uint64_t len2);

namespace detail {

/// The two kernels behind crc32(), callable directly so a host with the
/// fold also tests the fallback. Both return crc32(data, len).
[[nodiscard]] std::uint32_t crc32_slice16(const void* data, std::size_t len);
/// Precondition: crc32_fold_supported(). Inputs shorter than 64 bytes
/// and the final len % 16 bytes run through the slice-by-16 code.
[[nodiscard]] std::uint32_t crc32_fold(const void* data, std::size_t len);
/// True on an x86-64 CPU reporting PCLMULQDQ and SSE4.1 (checked once).
[[nodiscard]] bool crc32_fold_supported();

} // namespace detail

} // namespace fluxtrace::io
