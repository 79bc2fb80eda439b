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
// header pins the trace bytes (size + CRC32), the symbol table
// (symtab_crc), and the attribution mode (flags bit 0 = register ids):
// any mismatch invalidates the sidecar and the engine falls back to a
// full scan. CRC discipline matches FLXT v2 — a truncated, bit-flipped,
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
  std::uint32_t trace_crc = 0;  ///< io::crc32 over the whole trace image
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

/// Build an index over a clean FLXT v2 image whose rows are already
/// decoded into `table` (the engine's cold full scan, the hub's ingest
/// refresh). `trace_crc` is io::crc32 over the whole image — passed in
/// because every caller has it already and re-hashing a multi-hundred-MB
/// image is the expensive part. Returns nullopt when the image is not
/// indexable: wrong format, a chunk walk that fails strict decode, or a
/// chunk layout that disagrees with the decoded row count (salvage).
[[nodiscard]] std::optional<FlxiIndex> build_flxi(const io::TraceReader& reader,
                                                  const ColumnarTrace& table,
                                                  const SymbolTable& symtab,
                                                  bool use_register_ids,
                                                  std::uint32_t trace_crc);

/// Outcome of refresh_sidecar, ordered from best to worst.
enum class SidecarStatus : std::uint8_t {
  Fresh,       ///< existing sidecar already pins these bytes + symtab + mode
  Rebuilt,     ///< sidecar (re)built and written
  Unindexable, ///< trace is not a clean v2 image; no sidecar is possible
  WriteFailed, ///< index built but the sidecar file could not be written
};
[[nodiscard]] const char* to_string(SidecarStatus s);

/// Validate-or-rebuild the FLXI sidecar of an on-disk trace: the shared
/// refresh path behind `flxt_recover --rebuild-index` and the hub's
/// ingest pipeline. A sidecar that already pins the current bytes,
/// symbol table, and attribution mode is left untouched (Fresh); a
/// missing/stale/damaged one is rebuilt from a full decode on
/// `n_threads` workers (0 = hardware concurrency). Throws
/// io::TraceIoError only when the trace itself cannot be read at all.
[[nodiscard]] SidecarStatus refresh_sidecar(const std::string& trace_path,
                                            const SymbolTable& symtab,
                                            bool use_register_ids,
                                            unsigned n_threads = 0);

} // namespace fluxtrace::query
