// Crash-safe trace persistence: the FLXT CHNK chunk family, and its
// **v2 raw** chunk types.
//
// A monolithic dump lets one torn write (a crash mid-dump, a bit-rotted
// sector) poison the whole file without the reader even noticing. The
// chunk family splits each stream into record chunks, each carrying its
// own CRC32-protected header and payload:
//
//   file   := u32 magic "FLXT" | u32 version=2 | chunk* | eof-chunk
//   chunk  := u32 "CHNK" | u8 type (0=markers, 1=samples, 2=eof,
//           |                       3=wait edges)
//           | u32 n_records | u32 payload_bytes
//           | u32 header_crc (over the 13 bytes above)
//           | u32 payload_crc | payload
//
// The trailing eof chunk (type 2, no payload) is the torn-write
// detector: without it, a crash that cut the file at an exact chunk
// boundary would be indistinguishable from a complete shorter file.
//
// Raw chunks store fixed-width little-endian records, so an intact
// chunk decodes byte-identically to what was written. fluxtrace writes
// FLXT v3 (v3.hpp: the same framing, compressed chunk types); the raw
// writer stays as the reference encoding the tests and benches build
// raw-chunk fixtures with, and every reader still decodes raw chunks.
//
// Two readers, both over a whole file image:
//   * read_trace_v2_body() parses strictly — any damage throws
//     TraceIoError (io::TraceReader::read dispatches here);
//   * salvage_trace() recovers every intact chunk from a truncated or
//     corrupted file: damaged payloads are skipped and counted, damaged
//     headers are resynchronized by scanning for the next chunk magic,
//     and an incomplete tail (the torn write) is discarded — never
//     returned as data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fluxtrace/io/crc.hpp"
#include "fluxtrace/io/trace_file.hpp"

namespace fluxtrace::io {

inline constexpr std::uint32_t kTraceVersion2 = 2;
inline constexpr std::uint32_t kChunkMagic = 0x4b4e4843; // "CHNK"
inline constexpr std::size_t kDefaultChunkRecords = 1024;

/// Serialize in the v2 chunked layout, `records_per_chunk` records per
/// chunk (smaller chunks = finer-grained crash recovery, more header
/// overhead: 21 bytes per chunk). Throws TraceIoError on stream failure.
void write_trace_v2(std::ostream& os, const TraceData& data,
                    std::size_t records_per_chunk = kDefaultChunkRecords);

/// The trailing eof sentinel chunk (the torn-write detector), shared by
/// the v2 and v3 layouts.
[[nodiscard]] std::string encode_eof_chunk();

/// File-path convenience; errors carry the path and errno context.
void save_trace_v2(const std::string& path, const TraceData& data,
                   std::size_t records_per_chunk = kDefaultChunkRecords);

/// What salvage_trace() recovered and what it had to give up.
struct SalvageReport {
  TraceData data;                  ///< records from every intact chunk
  std::size_t chunks_ok = 0;       ///< chunks recovered in full
  std::size_t chunks_corrupt = 0;  ///< payload/type damage: skipped
  std::size_t chunks_resynced = 0; ///< damaged headers scanned past
  std::uint64_t bytes_skipped = 0; ///< damaged bytes passed over mid-file
  std::uint64_t bytes_truncated = 0; ///< incomplete tail discarded
  bool header_ok = false;          ///< file magic + version were intact
  bool eof_ok = false;             ///< the trailing eof chunk was intact

  /// True when the file was read back in full with no damage.
  [[nodiscard]] bool clean() const {
    return header_ok && eof_ok && chunks_corrupt == 0 &&
           chunks_resynced == 0 && bytes_skipped == 0 &&
           bytes_truncated == 0;
  }
};

/// Best-effort reader over a whole file image: recovers every chunk
/// whose header and payload check out, skipping damage instead of
/// throwing. A completely destroyed file simply reports zero recovered
/// chunks.
[[nodiscard]] SalvageReport salvage_trace(std::string_view buf);

/// Strict parse of a chunked body (`body` = the bytes after the 8-byte
/// magic + version header); throws TraceIoError on any damage.
/// io-internal, used by TraceReader.
[[nodiscard]] TraceData read_trace_v2_body(std::string_view body);

// --- selective chunk access -------------------------------------------
// The query engine (query/engine.cpp) decodes *subsets* of a v2 file:
// its FLXI zone maps tell it which sample chunks a query can possibly
// match, and it skips the rest. These two calls expose the strict
// reader's chunk walk without forcing a full decode.

inline constexpr std::uint8_t kChunkTypeMarkers = 0;
inline constexpr std::uint8_t kChunkTypeSamples = 1;
inline constexpr std::uint8_t kChunkTypeEof = 2;
/// Wait edges (ISSUE 8): enter u64 | leave u64 | item u64 | waiter u32
/// | holder u32 | resource u32 | cause u8, 37 bytes per record. Spooled
/// alongside sample chunks; every reader (strict, parallel, salvage,
/// follower) decodes them into TraceData::wait_edges.
inline constexpr std::uint8_t kChunkTypeWaitEdges = 3;

/// One chunk's location in a v2 *file image* (header + chunks).
struct V2ChunkRef {
  std::uint64_t offset = 0; ///< of the chunk header, within the file image
  std::uint8_t type = 0;    ///< kChunkTypeMarkers / kChunkTypeSamples
  std::uint32_t n_records = 0;
  std::uint32_t payload_bytes = 0;
};

/// Strict header walk over a whole v2 file image: validates the file
/// header, every chunk header CRC, and the trailing eof sentinel, and
/// returns the data chunks in file order (the eof chunk is consumed, not
/// returned). Payload CRCs are *not* checked here — that is per-chunk
/// work decode_trace_v2_chunk() does on the chunks actually read. Throws
/// TraceIoError on any structural damage.
[[nodiscard]] std::vector<V2ChunkRef> index_trace_v2(std::string_view file);

/// The CRC-32 of a whole image that index_trace_v2 accepted, from its
/// frames alone: combined (crc32_combine) in file order from the CRC of
/// the 8-byte file header, each chunk's 21-byte frame header and its
/// *stored* payload CRC, and the eof frame. Reads no payload byte. When
/// every payload matches its stored CRC — which each decode checks —
/// the value equals io::crc32 over the image bit for bit. `chunks` must
/// be index_trace_v2(file); throws TraceIoError when they do not tile
/// the file.
[[nodiscard]] std::uint32_t image_crc(std::string_view file,
                                      std::span<const V2ChunkRef> chunks);

/// One strict walk of a whole chunk-family image, kept by a consumer
/// that loads from it more than once (the query engine, the sidecar
/// refresh) so the image is walked once.
struct ImageWalk {
  std::vector<V2ChunkRef> chunks; ///< index_trace_v2(image)
  std::uint64_t size = 0;         ///< bytes in the walked image
  std::uint32_t crc = 0;          ///< image_crc(image, chunks)
};

/// index_trace_v2 + image_crc over the frame headers. Throws
/// TraceIoError on any structural damage.
[[nodiscard]] ImageWalk walk_image(std::string_view file);

/// Decode one indexed chunk's records into `out` (markers or samples,
/// appended in order). Validates the payload CRC; throws TraceIoError on
/// damage or a ref that does not match `file`.
void decode_trace_v2_chunk(std::string_view file, const V2ChunkRef& ref,
                           TraceData& out);

/// Column slice for chunk-parallel decode straight into int64 columns,
/// skipping PebsSample materialization (the columnar store reads only
/// ts/ip/core and, in register-id mode, one GPR). Each worker writes its
/// chunk's rows into a pre-sized disjoint slice of the shared columns, so
/// no append coordination is needed.
struct SampleColumnSlice {
  std::int64_t* tsc = nullptr;  ///< required
  std::int64_t* ip = nullptr;   ///< required
  std::int64_t* core = nullptr; ///< required
  std::int64_t* reg = nullptr;  ///< optional: one GPR column
  unsigned reg_index = 0;       ///< which GPR fills `reg`
};

/// Decode one indexed raw *sample* chunk into a slice: writes exactly
/// ref.n_records values at each non-null pointer. Validates the payload
/// CRC and record size; throws TraceIoError on damage, a non-sample ref,
/// or a ref that does not match `file`. (The compressed-chunk
/// counterpart is io::decode_v3_samples_into, v3.hpp.)
void decode_trace_v2_samples_slice(std::string_view file,
                                   const V2ChunkRef& ref,
                                   const SampleColumnSlice& out);

} // namespace fluxtrace::io
