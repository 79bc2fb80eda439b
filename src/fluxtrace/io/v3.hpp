// The FLXT **v3 compressed columnar** layout (docs/format.md).
//
// v3 keeps v2's crash-safe CHNK framing byte-for-byte — same 21-byte
// CRC-protected frame header, same eof sentinel, same salvage resync —
// and adds three *compressed* chunk types whose payloads store records
// as independently-encoded columns instead of fixed-width rows:
//
//   file    := u32 magic "FLXT" | u32 version=3 | chunk* | eof-chunk
//   chunk   := (v2 CHNK frame; new types 4=samples, 5=markers,
//               6=wait edges, compressed)
//   payload := u32 flags (must be 0; unknown bits reject the chunk)
//            | i64 min_ts | i64 max_ts     zone hint over the time column
//            | u8 n_cols
//            | column{n_cols}
//   column  := u8 col_id (ascending from 0) | u8 codec (codec/column.hpp)
//            | u32 enc_bytes | u32 enc_crc | bytes{enc_bytes}
//
// Because the framing is shared, every v2 reader mechanism — follower
// tailing, salvage resync, torn-tail detection, selective chunk decode,
// FLXI row alignment — works on a v3 file once it dispatches the three
// new types; the version field records which chunk types the writer may
// have emitted. A v3 sample chunk carries all 19 columns (ts, ip, core,
// 16 GPRs), so a v3 round trip is bit-identical to v2 — idle registers
// cost ~1 byte per chunk under the Const codec instead of 8 bytes per
// row.
//
// The zone hint (min/max of the time column) is written at encode time
// and sits at a fixed offset in the payload, so a reader can prune a
// compressed chunk against a ts predicate without inflating it (the
// engine CRC-checks the payload before trusting the hint; a chunk that
// fails the check is decoded the hard way and salvage takes over).
//
// Hostile input: n_records is capped (kMaxChunkRecords) before any
// allocation, every column codec rejects forged lengths and
// out-of-range dictionary indices (codec/column.hpp), and field ranges
// (core ids, marker kinds, wait causes) are validated on decode exactly
// as the v2 record decoders do.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "fluxtrace/codec/column.hpp"
#include "fluxtrace/io/chunked.hpp"

namespace fluxtrace::io {

inline constexpr std::uint32_t kTraceVersion3 = 3;

/// Compressed chunk types (the raw v2 types are 0-3, chunked.hpp).
inline constexpr std::uint8_t kChunkTypeSamplesC = 4;
inline constexpr std::uint8_t kChunkTypeMarkersC = 5;
inline constexpr std::uint8_t kChunkTypeWaitEdgesC = 6;

[[nodiscard]] constexpr bool is_sample_chunk_type(std::uint8_t t) {
  return t == kChunkTypeSamples || t == kChunkTypeSamplesC;
}
[[nodiscard]] constexpr bool is_marker_chunk_type(std::uint8_t t) {
  return t == kChunkTypeMarkers || t == kChunkTypeMarkersC;
}
[[nodiscard]] constexpr bool is_wait_chunk_type(std::uint8_t t) {
  return t == kChunkTypeWaitEdges || t == kChunkTypeWaitEdgesC;
}
[[nodiscard]] constexpr bool is_compressed_chunk_type(std::uint8_t t) {
  return t >= kChunkTypeSamplesC && t <= kChunkTypeWaitEdgesC;
}

/// v3 chunks are larger than v2's default 1024: delta and dictionary
/// codecs amortize better over more rows, and the per-chunk cost of a
/// salvage loss is already bounded by the CRC framing.
inline constexpr std::size_t kDefaultChunkRecordsV3 = 4096;

/// Hard per-chunk record cap, enforced on every decode of a compressed
/// chunk (a raw chunk's count is already pinned by payload_bytes /
/// record size; a compressed chunk's is not — without this cap a forged
/// count with a valid CRC could demand an arbitrarily large allocation).
/// Writers never cut a larger chunk.
inline constexpr std::uint32_t kMaxChunkRecords = 1u << 20;

// --- streaming chunk encoders -----------------------------------------
// The byte-exact building blocks of the v3 layout, so a spooler
// (io::ResilientWriter) can emit and fsync the file chunk-at-a-time: a
// crash between chunks leaves a salvageable prefix, never a torn record.

/// The 8-byte file prefix: magic + version=3.
[[nodiscard]] std::string encode_v3_file_header();

/// Compressed chunk encoder that keeps its column buffers from chunk to
/// chunk, so a drain loop encoding one chunk per call allocates only the
/// chunk it returns. Each call returns one complete chunk (frame header,
/// CRCs, payload) for n records, n in [1, kMaxChunkRecords]; the bytes
/// are those of the encode_*_chunk_v3 functions below.
class V3ChunkEncoder {
 public:
  [[nodiscard]] std::string encode(const PebsSample* ss, std::size_t n);
  [[nodiscard]] std::string encode(const Marker* ms, std::size_t n);
  [[nodiscard]] std::string encode(const WaitEdge* es, std::size_t n);

 private:
  std::vector<std::int64_t> cols_; ///< the chunk's columns, one after another
  codec::ColumnEncoder columns_;
};

/// One complete compressed sample/marker/wait-edge chunk for n records
/// (n must be in [1, kMaxChunkRecords]).
[[nodiscard]] std::string encode_sample_chunk_v3(const PebsSample* ss,
                                                 std::size_t n);
[[nodiscard]] std::string encode_marker_chunk_v3(const Marker* ms,
                                                 std::size_t n);
[[nodiscard]] std::string encode_wait_chunk_v3(const WaitEdge* es,
                                               std::size_t n);

/// Serialize in the v3 layout (the eof sentinel is shared with v2).
/// Throws std::invalid_argument, naming the value, when
/// records_per_chunk is 0 or above kMaxChunkRecords (save_trace_v3
/// checks before it creates the file), and TraceIoError on stream
/// failure.
void write_trace_v3(std::ostream& os, const TraceData& data,
                    std::size_t records_per_chunk = kDefaultChunkRecordsV3);
void save_trace_v3(const std::string& path, const TraceData& data,
                   std::size_t records_per_chunk = kDefaultChunkRecordsV3);

// --- decode ------------------------------------------------------------

/// Strict decode of one compressed chunk payload (frame payload CRC
/// already verified by the caller) into `out`. Returns false on any
/// malformation: wrong type, forged count, unknown flags, bad column
/// ids/codecs/CRCs, out-of-range field values, trailing bytes. Never
/// throws; allocations are bounded by the record cap.
[[nodiscard]] bool decode_compressed_chunk(std::uint8_t type,
                                           std::string_view payload,
                                           std::uint32_t n_records,
                                           TraceData& out);

/// Column-direct slice decode of one compressed *sample* chunk: writes
/// exactly ref.n_records values to each non-null pointer of the slice
/// (chunked.hpp), decoding only the columns asked for — the other 15 GPR
/// columns are skipped without inflation. Validates the frame payload
/// CRC and the per-column CRCs of the columns it decodes; throws
/// TraceIoError on damage or a ref that does not match `file`.
void decode_v3_samples_into(std::string_view file, const V2ChunkRef& ref,
                            const SampleColumnSlice& out);

/// The encode-time zone hint of a compressed chunk, read without
/// decoding any column. `ok` is false when the ref is not a compressed
/// chunk, lies outside the file, or its payload fails the frame CRC —
/// a hint is never trusted over damaged bytes.
struct V3ZoneHint {
  std::int64_t min_ts = 0;
  std::int64_t max_ts = 0;
  bool ok = false;
};
[[nodiscard]] V3ZoneHint read_v3_zone_hint(std::string_view file,
                                           const V2ChunkRef& ref);

// --- compression accounting (flxt_dump) -------------------------------

/// Per-column raw vs. encoded byte totals over every compressed chunk of
/// a v3 image, plus how many chunks each codec won the column in.
struct V3ColumnSummary {
  std::string name; ///< "samples.ts", "markers.kind", "wait.enter", ...
  std::uint64_t raw_bytes = 0; ///< fixed-width v2 footprint of the values
  std::uint64_t enc_bytes = 0; ///< encoded payload bytes (headers excluded)
  std::array<std::uint32_t, codec::kNumColumnCodecs> codec_chunks{};
};

/// Walk a chunked image and account every compressed column. Throws
/// TraceIoError on structural damage (delegates to index_trace_v2);
/// returns an empty vector for an image with no compressed chunks.
[[nodiscard]] std::vector<V3ColumnSummary> v3_compression_stats(
    std::string_view file);

} // namespace fluxtrace::io
