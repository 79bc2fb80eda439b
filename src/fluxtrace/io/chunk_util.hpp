// io-internal helpers shared by the two CHNK-framed containers: the v2
// raw chunk layer (chunked.cpp) and the v3 compressed columnar layer
// (v3.cpp). Not installed API — nothing outside src/fluxtrace/io may
// include this.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "fluxtrace/io/chunked.hpp"

namespace fluxtrace::io::detail {

/// CHNK frame header: magic + type + count + size + header/payload CRCs.
inline constexpr std::size_t kChunkHeaderBytes = 21;

// --- little-endian append/peek over an in-memory buffer ---------------

inline void app_u8(std::string& b, std::uint8_t v) {
  b.push_back(static_cast<char>(v));
}

/// Store `v` little-endian at `at` (the bytes must already exist).
inline void put_u32(std::string& b, std::size_t at, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(b.data() + at, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < 4; ++i) {
      b[at + i] = static_cast<char>(v >> (8 * i));
    }
  }
}

inline void app_u32(std::string& b, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    b.append(reinterpret_cast<const char*>(&v), sizeof v);
  } else {
    for (int i = 0; i < 4; ++i) {
      app_u8(b, static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
}

inline void app_u64(std::string& b, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    b.append(reinterpret_cast<const char*>(&v), sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) {
      app_u8(b, static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
}

inline std::uint8_t peek_u8(std::string_view b, std::size_t at) {
  return static_cast<std::uint8_t>(b[at]);
}

inline std::uint32_t peek_u32(std::string_view b, std::size_t at) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, b.data() + at, sizeof v);
    return v;
  } else {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               peek_u8(b, at + static_cast<std::size_t>(i)))
           << (8 * i);
    }
    return v;
  }
}

inline std::uint64_t peek_u64(std::string_view b, std::size_t at) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, b.data() + at, sizeof v);
    return v;
  } else {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               peek_u8(b, at + static_cast<std::size_t>(i)))
           << (8 * i);
    }
    return v;
  }
}

// --- in-place CHNK framing --------------------------------------------
// A frame is built in the buffer it ships in: open_chunk reserves the
// header, the caller appends the payload behind it, and seal_chunk fills
// the header in. The payload is never copied.

/// Reserve a frame header at the end of `b`; returns its offset.
inline std::size_t open_chunk(std::string& b) {
  const std::size_t at = b.size();
  b.resize(at + kChunkHeaderBytes);
  return at;
}

/// Fill in the header of the frame opened at `at`: its payload is every
/// byte of `b` after the header. Implemented in chunked.cpp.
void seal_chunk(std::string& b, std::size_t at, std::uint8_t type,
                std::uint32_t n_records);

/// The payload of an indexed chunk, bounds- and CRC-checked against the
/// file image. Throws TraceIoError. Implemented in chunked.cpp.
[[nodiscard]] std::string_view chunk_payload(std::string_view file,
                                             const V2ChunkRef& ref);

} // namespace fluxtrace::io::detail
