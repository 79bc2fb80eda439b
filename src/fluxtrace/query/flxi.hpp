// The FLXI index sidecar (ISSUE 5): a compact per-chunk summary of a
// FLXT v2 trace that lets selective queries skip most of the file. The
// analysis path writes it opportunistically (the first full scan knows
// everything the index records); a reopen validates it and prunes.
//
//   file  := u32 magic "FLXI" | u32 version=2
//          | u64 trace_size | u32 trace_crc | u32 symtab_crc
//          | u32 flags | u32 n_chunks | u32 body_crc | body
//   body  := chunk*
//   chunk := u64 offset | u32 n_records
//          | i64 min_ts | i64 max_ts | i64 min_item | i64 max_item
//          | u32 n_funcs | (u32 func_id, u32 samples)*
//
// Only *sample* chunks are indexed: marker chunks are always decoded in
// full (windows are needed for item attribution no matter what is
// pruned). min/max item are the *attributed* ids — they depend on the
// marker stream (or, under register-id attribution, the sampled id
// register) and, like func ids, on the symbol table, which is why the
// header pins the trace bytes (size + image CRC), the symbol table
// (symtab_crc), and the attribution mode (flags bit 0 = register ids):
// any mismatch invalidates the sidecar and the engine falls back to a
// full scan. The image CRC is io::image_crc — the whole-image CRC-32
// derived from the chunk frames, equal to io::crc32 over an intact
// image — so checking freshness reads no payload byte. A payload
// damaged after the sidecar was written leaves it fresh: every decode
// still checks its payload CRC, so a query that reads the damaged chunk
// salvages, and one that prunes it answers as over the intact file.
// CRC discipline matches FLXT v2 — a truncated, bit-flipped,
// or hostile sidecar is *detected*, never trusted (decode_flxi returns
// nullopt; nothing throws on damage), and claimed element counts are
// checked against the bytes actually present before anything is
// allocated.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fluxtrace/base/symbols.hpp"

namespace fluxtrace::io {
class TraceReader;
struct ImageWalk;
}

namespace fluxtrace::query {

class ColumnarTrace;

inline constexpr std::uint32_t kFlxiMagic = 0x49584c46; // "FLXI"
inline constexpr std::uint32_t kFlxiVersion = 2;

/// flags bit 0: item ids were attributed from the sampled id register
/// (`use_register_ids`) rather than from marker windows. The two modes
/// yield unrelated item ranges over the same bytes, so a sidecar is only
/// valid for the mode it was built under.
inline constexpr std::uint32_t kFlxiFlagRegisterIds = 1u << 0;
inline constexpr std::uint32_t kFlxiKnownFlags = kFlxiFlagRegisterIds;

/// Summary of one FLXT v2 sample chunk.
struct FlxiChunk {
  std::uint64_t offset = 0; ///< chunk header offset in the trace file
  std::uint32_t n_records = 0;
  std::int64_t min_ts = 0, max_ts = 0;
  /// Attributed item-id range (kNoItem rows read as -1). min > max means
  /// the chunk is empty.
  std::int64_t min_item = 0, max_item = 0;
  /// (func id, samples) pairs, sorted by id; unresolved ips are omitted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> func_counts;

  friend bool operator==(const FlxiChunk&, const FlxiChunk&) = default;
};

struct FlxiIndex {
  std::uint64_t trace_size = 0;
  /// io::image_crc of the trace — io::crc32 of the whole image when
  /// every payload is intact, computed from the chunk frames alone
  std::uint32_t trace_crc = 0;
  std::uint32_t symtab_crc = 0; ///< symtab_crc() of the attributing table
  std::uint32_t flags = 0;      ///< kFlxiFlag* bits (attribution mode)
  std::vector<FlxiChunk> chunks; ///< sample chunks, in file order

  friend bool operator==(const FlxiIndex&, const FlxiIndex&) = default;
};

/// Fingerprint of a symbol table (names + address ranges).
[[nodiscard]] std::uint32_t symtab_crc(const SymbolTable& symtab);

/// Serialize / parse the sidecar image. decode_flxi returns nullopt on
/// *any* irregularity — bad magic/version, truncation, CRC mismatch,
/// counts inconsistent with the byte budget, trailing garbage.
[[nodiscard]] std::string encode_flxi(const FlxiIndex& index);
[[nodiscard]] std::optional<FlxiIndex> decode_flxi(std::string_view bytes);

/// Sidecar path convention: the trace path plus ".flxi".
[[nodiscard]] inline std::string flxi_path(const std::string& trace_path) {
  return trace_path + ".flxi";
}

/// File conveniences. save_flxi returns false (no throw) when the file
/// cannot be written — index persistence is opportunistic, never a
/// failure of the analysis itself. load_flxi returns nullopt for a
/// missing or damaged file alike.
bool save_flxi(const std::string& path, const FlxiIndex& index);
[[nodiscard]] std::optional<FlxiIndex> load_flxi(const std::string& path);

/// Build an index over a clean chunked image whose rows are already
/// decoded into `table` (the engine's cold full scan, the sidecar
/// refresh). `walk` is the strict walk the caller loaded `table` from:
/// its chunks give the layout and its size and CRC the pins, so nothing
/// walks or hashes the image again. Returns nullopt when the rows are
/// salvaged or disagree with the chunk layout.
[[nodiscard]] std::optional<FlxiIndex> build_flxi(const io::ImageWalk& walk,
                                                  const ColumnarTrace& table,
                                                  const SymbolTable& symtab,
                                                  bool use_register_ids);

/// True when `index` pins exactly the walked image (size and image CRC),
/// `symtab`, and the attribution mode — the one freshness rule the
/// engine and refresh_sidecar share.
[[nodiscard]] bool flxi_fresh(const FlxiIndex& index,
                              const io::ImageWalk& walk,
                              const SymbolTable& symtab,
                              bool use_register_ids);

/// Outcome of refresh_sidecar, ordered from best to worst.
enum class SidecarStatus : std::uint8_t {
  Fresh,       ///< existing sidecar already pins these bytes + symtab + mode
  Rebuilt,     ///< sidecar (re)built and written
  Unindexable, ///< trace is not a clean v2 image; no sidecar is possible
  WriteFailed, ///< index built but the sidecar file could not be written
};
[[nodiscard]] const char* to_string(SidecarStatus s);

/// Validate-or-rebuild the FLXI sidecar of an opened trace file: the
/// shared refresh path behind `flxt_recover --rebuild-index`, the hub's
/// ingest and compaction. One strict walk of the frame headers checks
/// freshness; a sidecar that already pins the walked image, symbol
/// table, and attribution mode is left untouched (Fresh) without a
/// payload byte read. A missing/stale/damaged one is rebuilt from a full
/// decode on `n_threads` workers (0 = hardware concurrency) that reuses
/// the walk. `reader` must come from open_trace(path): the sidecar lives
/// at flxi_path(reader.path()), and a reader with no path is
/// WriteFailed. Never reopens or re-hashes the file.
[[nodiscard]] SidecarStatus refresh_sidecar(const io::TraceReader& reader,
                                            const SymbolTable& symtab,
                                            bool use_register_ids,
                                            unsigned n_threads = 0);

} // namespace fluxtrace::query
