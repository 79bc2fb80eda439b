// The columnar (SoA) trace store the query engine scans: one row per
// PEBS sample, six int64 columns. Attribution happens at load time,
// through the attribution kernel core::TraceIntegrator runs too
// (core/attribution.hpp):
//
//   item — the latest-entered marker window covering (core, ts), or the
//          sampled id register in use_register_ids mode; kNoItem → -1
//   func — SymbolTable::resolve(ip); unresolved → -1
//   dur  — the elapsed-time estimate of the row's {item, func} bucket
//          (first-to-last sample per core, summed over cores, exactly
//          core::TraceTable::elapsed); rows in unestimable buckets
//          (fewer than two samples on every core) carry 0
//
// All columns are int64 so expression evaluation (expr.hpp) indexes them
// uniformly; ItemId 2^64-1 (kNoItem) reads back as -1, which is also how
// a query spells it.
//
// The scan interface is batch-oriented: col() hands out a whole column
// as std::span, block() slices all six for one scan block, and zones()
// exposes per-block min/max zone maps the engine consults before
// evaluating a block (finer-grained than FLXI's per-chunk pruning — and
// sound for *every* query shape, outliers and dur-queries included,
// because rows here are already fully decoded and attributed: skipping a
// block only skips rows the filter provably rejects).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/query/expr.hpp"

namespace fluxtrace::rt {
class ThreadPool;
}

namespace fluxtrace::query {

struct BuildOptions {
  /// Take item ids from the sampled register (§V-A timer-switching
  /// architecture) instead of locating samples in marker windows.
  bool use_register_ids = false;
  /// Zone-map granularity in rows. The engine builds with its scan block
  /// size here so scan blocks and zones coincide exactly.
  std::size_t zone_rows = 65536;
};

/// Per-block column bounds: the zone map consulted for block skipping.
struct ZoneMap {
  std::array<std::int64_t, kNumFields> min{};
  std::array<std::int64_t, kNumFields> max{};

  [[nodiscard]] std::int64_t min_of(Field f) const {
    return min[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] std::int64_t max_of(Field f) const {
    return max[static_cast<std::size_t>(f)];
  }
};

class ColumnarTrace {
 public:
  /// Attribute and columnarize `data`. Marker records are consumed for
  /// window construction only; rows correspond 1:1, in order, to
  /// data.samples.
  static ColumnarTrace build(const io::TraceData& data,
                             const SymbolTable& symtab,
                             const BuildOptions& opts = {});

  /// The one chunk loader, under full and pruned loads alike. `chunks`
  /// is io::index_trace_v2(image); `keep` flags the sample chunks to
  /// decode, in file order (empty keeps all). Every marker chunk is
  /// decoded; kept sample chunks decode straight into column slices, on
  /// `pool` when given, else on the calling thread. Throws
  /// io::TraceIoError on any damage; it never salvages.
  static ColumnarTrace load(std::string_view image,
                            std::span<const io::V2ChunkRef> chunks,
                            const std::vector<bool>& keep,
                            const SymbolTable& symtab,
                            const BuildOptions& opts,
                            rt::ThreadPool* pool);

  /// load() of every chunk, on a pool of `n_threads` (0 = hardware)
  /// built for this call. Throws io::TraceIoError on any damage.
  static ColumnarTrace load_all(std::string_view image,
                                std::span<const io::V2ChunkRef> chunks,
                                const SymbolTable& symtab,
                                const BuildOptions& opts, unsigned n_threads);

  /// load_all() over a strict walk of the reader's image; a damaged or
  /// non-chunked image falls back to read_or_salvage().
  static ColumnarTrace from_reader(const io::TraceReader& reader,
                                   const SymbolTable& symtab,
                                   const BuildOptions& opts = {},
                                   unsigned n_threads = 0);

  /// reader.read_or_salvage() + build(); salvaged() reports the subset.
  static ColumnarTrace read_or_salvage(const io::TraceReader& reader,
                                       const SymbolTable& symtab,
                                       const BuildOptions& opts);

  [[nodiscard]] std::size_t rows() const { return n_rows_; }

  /// One whole column. Throws std::out_of_range for an out-of-enum
  /// field — a forged or miscast Field can never silently read zeros.
  [[nodiscard]] std::span<const std::int64_t> col(Field f) const {
    const auto i = static_cast<std::size_t>(f);
    if (i >= kNumFields) {
      throw std::out_of_range("ColumnarTrace: field out of range");
    }
    return {cols_[i].data(), n_rows_};
  }

  /// All six columns over rows [begin, end) as one scan block.
  [[nodiscard]] ColumnBlock block(std::size_t begin, std::size_t end) const {
    ColumnBlock b;
    b.rows = end - begin;
    for (std::size_t f = 0; f < kNumFields; ++f) {
      b.col[f] = std::span<const std::int64_t>(cols_[f]).subspan(begin, b.rows);
    }
    return b;
  }

  /// Zone maps, one per zone_rows() rows in row order (the last zone may
  /// cover fewer rows). Empty for a zero-row trace.
  [[nodiscard]] std::size_t zone_rows() const { return zone_rows_; }
  [[nodiscard]] std::span<const ZoneMap> zones() const { return zones_; }

  /// True when the backing file was damaged and the rows are the
  /// salvaged subset (from_reader / read_or_salvage only).
  [[nodiscard]] bool salvaged() const { return salvaged_; }

 private:
  void attribute(const std::vector<Marker>& markers, const SymbolTable& symtab,
                 const BuildOptions& opts);
  void build_zones();

  std::array<std::vector<std::int64_t>, kNumFields> cols_;
  std::vector<ZoneMap> zones_;
  std::size_t n_rows_ = 0;
  std::size_t zone_rows_ = 65536;
  bool salvaged_ = false;
};

} // namespace fluxtrace::query
