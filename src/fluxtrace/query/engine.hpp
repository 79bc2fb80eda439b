// The trace query engine (ISSUE 5): parse a pipeline of stages over the
// columnar store and execute it with a block-parallel scan whose result
// is bit-identical to the sequential one.
//
// Pipeline grammar (stages separated by `|`, each at most once, in this
// order; `select`, `group`, `outliers`, `critical_path` and `blocked_by`
// are mutually exclusive):
//
//   query  := [stage ('|' stage)*]
//   stage  := 'filter' expr
//           | 'select' field (',' field)*
//           | 'group' field (',' field)* ':' agg (',' agg)*
//           | 'outliers' [('k' '=' number) | ('warmup' '=' integer)]*
//           | 'critical_path' | 'blocked_by'
//           | 'top' integer 'by' column
//           | 'limit' integer
//   agg    := 'count' | fn '(' field ')'        fn := sum min max p50 p95 p99
//
// Execution semantics:
//   * filter — rows where the predicate (expr.hpp) is nonzero.
//   * select — project columns; without select/group, all six columns.
//   * group  — one output row per distinct key tuple, sorted by key;
//     aggregate columns are named count / sum_dur / p95_dur / ….
//     Percentiles are nearest-rank over the exact matched values; sums
//     wrap like every other query arithmetic.
//   * outliers — replay the matched rows' {item, func} elapsed estimates
//     (the dur column) through core::FluctuationDetector in (item, func)
//     order and emit the anomalies (item, func, elapsed, mean, sigma,
//     sigmas). Statistics are cross-item per function, which is why this
//     stage disables chunk pruning entirely.
//   * critical_path / blocked_by — scan the wait-edge stream instead of
//     the samples (waitgraph.hpp).
//   * top N by col — stable sort descending on an output column, keep N.
//     parse_query resolves the column, so a typo fails before any scan.
//   * limit N — keep the first N rows.
//
// Every answer is finished in one place: run_partial() scans one trace
// into an ExecPartial, and finish_partials() merges partials and
// renders them — for run(), for the federated fan-out and for the
// streaming snapshot alike.
//
// Determinism: scans run over fixed 64Ki-row blocks regardless of thread
// count; per-block partials merge in block order, and every aggregate is
// order-independent (wrapping sums, min/max, percentiles over sorted
// collected values) — so `threads=1` and `threads=N` produce the same
// bytes, which the test suite asserts on fuzzed traces. Each scan worker
// runs a BatchEvaluator (expr.hpp) over whole blocks — the vectorized
// kernels are proven bit-identical to the scalar interpreter, so the
// batch rewrite changed no result byte either.
//
// Zone maps: the columnar store carries per-block min/max bounds for
// every column, built at the engine's block size so zones and scan
// blocks coincide. Before a block is evaluated the engine checks the
// filter's prune hints against its zone map and skips blocks that
// provably match nothing. Unlike FLXI chunk pruning this is sound for
// *every* query shape — outliers and dur-queries included — because the
// rows are already decoded and attributed; a skipped block only skips
// rows the filter rejects.
//
// FLXI pruning: when a valid sidecar (flxi.hpp) is available and the
// query's prune hints are selective, sample chunks whose zone maps
// cannot satisfy the filter are never decoded. Soundness rules:
//   * the `outliers` stage disables all pruning;
//   * a query that outputs or references `dur` disables ts-pruning
//     (a time-sliced chunk set would truncate the first-to-last spans
//     dur derives from), while item/func pruning stays on — those hints
//     only ever drop *whole* {item, func} buckets of rows the filter
//     already rejects;
//   * marker chunks are always decoded (attribution needs all windows).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/base/wait.hpp"
#include "fluxtrace/core/detector.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "fluxtrace/query/expr.hpp"
#include "fluxtrace/query/flxi.hpp"
#include "fluxtrace/query/partials.hpp"

namespace fluxtrace::rt {
class ThreadPool;
}

namespace fluxtrace::query {

/// One aggregate column of a `group` stage.
struct Aggregate {
  enum class Kind : std::uint8_t { Count, Sum, Min, Max, P50, P95, P99 };
  Kind kind = Kind::Count;
  Field field = Field::Dur; ///< ignored for Count

  /// Output column name: "count", "sum_dur", "p95_dur", …
  [[nodiscard]] std::string name() const;
};

struct TopK {
  std::uint64_t n = 0;
  std::string by; ///< output column name
  /// Index of `by` in Query::columns(); parse_query resolves it.
  std::size_t column = 0;
};

struct OutliersSpec {
  core::DetectorConfig config;
};

/// A parsed pipeline. Build with parse_query(); immutable afterwards.
struct Query {
  std::string text; ///< original query string
  std::unique_ptr<Expr> filter;  ///< null when no filter stage
  std::vector<Field> select;     ///< empty = all columns (row mode)
  std::vector<Field> group_keys; ///< group mode when aggs is non-empty
  std::vector<Aggregate> aggs;
  std::optional<OutliersSpec> outliers;
  /// Wait-edge stages (ISSUE 8): scan the trace's wait-edge stream
  /// instead of the sample columns. A filter (over item/core/ts/dur,
  /// mapped onto waiter item/waiter core/enter/blocked) and top/limit
  /// still compose; select/group/outliers do not (same rank).
  bool critical_path = false;
  bool blocked_by = false;
  std::optional<TopK> topk;
  std::optional<std::uint64_t> limit;

  [[nodiscard]] bool wait_stage() const { return critical_path || blocked_by; }
  /// Row mode's output fields: the select list, or all six.
  [[nodiscard]] std::vector<Field> row_fields() const;
  /// The output column names, the one definition both parse_query (to
  /// resolve `top ... by`) and finish_partials use: the select columns
  /// or all six, the group keys then the aggregates, or the fixed
  /// columns of outliers / critical_path / blocked_by.
  [[nodiscard]] std::vector<std::string> columns() const;
  /// Bitmask of every column the query reads or outputs.
  [[nodiscard]] unsigned fields_used() const;
  /// True when any part of the result depends on the dur column.
  [[nodiscard]] bool references_dur() const;
};

/// Parse one pipeline. `symtab` resolves `func == "name"`; pass nullptr
/// to reject string comparisons. Throws ParseError, including for a
/// `top ... by` column the stage does not output.
[[nodiscard]] Query parse_query(std::string_view text,
                                const SymbolTable* symtab);

/// One result cell. Int carries ids/cycles/counts; Real carries detector
/// statistics; Text carries resolved function names.
struct Cell {
  enum class Kind : std::uint8_t { Int, Real, Text };
  Kind kind = Kind::Int;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;

  [[nodiscard]] static Cell of_int(std::int64_t v);
  [[nodiscard]] static Cell of_real(double v);
  [[nodiscard]] static Cell of_text(std::string v);
  /// A column value as every result renders it: a func id becomes its
  /// name through `symtab` (unresolved ids, -1, stay numeric), any
  /// other field an Int.
  [[nodiscard]] static Cell of_field(Field f, std::int64_t v,
                                     const SymbolTable& symtab);

  /// Canonical printable form (Real uses %.6g).
  [[nodiscard]] std::string str() const;
  /// Ordering for `top by` (descending sort): Int/Real by value, Text
  /// lexicographic; mixed kinds order Int < Real < Text.
  [[nodiscard]] bool less(const Cell& other) const;

  friend bool operator==(const Cell&, const Cell&) = default;
};

/// Where the rows came from, for `--stats` and the pruning assertions in
/// bench/ext_query_scan.
struct ScanStats {
  std::size_t chunks_total = 0;  ///< sample chunks in the trace (0: not v2)
  std::size_t chunks_read = 0;   ///< sample chunks actually decoded
  std::size_t chunks_pruned = 0; ///< skipped via the FLXI zone maps
  /// of chunks_pruned: compressed (v3) chunks skipped without ever
  /// being inflated — via the in-payload zone hint or the sidecar.
  std::size_t chunks_pruned_compressed = 0;
  std::size_t rows_scanned = 0;  ///< rows the filter was evaluated over
  std::size_t rows_matched = 0;
  std::size_t blocks_total = 0;   ///< scan blocks in the loaded rows
  std::size_t blocks_skipped = 0; ///< skipped via in-memory zone maps
  bool index_used = false;    ///< a valid FLXI sidecar pruned this scan
  bool index_written = false; ///< this run persisted a fresh sidecar
  bool salvaged = false;      ///< strict read failed; rows are best-effort
  unsigned threads = 1;
  std::size_t wait_edges = 0; ///< wait edges scanned (wait stages only)
  bool wait_stage = false;    ///< this run was critical_path / blocked_by

  friend bool operator==(const ScanStats&, const ScanStats&) = default;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;
  ScanStats stats;
};

/// A mergeable intermediate result: one trace's (or one stream's)
/// contribution to a query, stopped just before the finish (group
/// rendering, outliers detection, wait-graph rendering, top/limit). One
/// payload is populated, by query mode:
///
///   * row mode      — `rows`, already rendered (rendering is per-row
///     pure, so per-trace rendering then concatenation equals
///     concatenation then rendering). A stream's `outliers` partial
///     also carries its running detector's anomalies here, already
///     rendered by outlier_row();
///   * group mode    — `groups`, keyed partials in the commutative
///     AggPartial algebra (partials.hpp), mergeable in any grouping but
///     finished in member order for byte determinism;
///   * outliers mode — `buckets`, the {item, func} → dur map the
///     detector replays. Sound to merge only when the member traces'
///     {item, func} buckets are disjoint (distinct sessions) — the
///     federated executor uses concatenation for this mode instead;
///   * critical_path / blocked_by — `wait`, the WaitGraph partial
///     (partials.hpp), which merges in any order.
///
/// finish_partials() over a single partial is bit-identical to
/// QueryEngine::run(); over many, it is the federated merge.
struct ExecPartial {
  std::vector<std::vector<Cell>> rows;
  GroupMap groups;
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> buckets;
  WaitGraph wait;
  ScanStats stats;
};

/// One `outliers` result row: item, func, elapsed, mean, sigma, sigmas.
[[nodiscard]] std::vector<Cell> outlier_row(const core::Anomaly& a,
                                            const SymbolTable& symtab);

struct EngineOptions {
  unsigned threads = 0;           ///< scan workers; 0 = hardware, 1 = sequential
  std::size_t block_rows = 65536; ///< fixed scan block (determinism unit)
  bool use_register_ids = false;  ///< columnar BuildOptions passthrough
  bool use_index = true;          ///< consult a FLXI sidecar for pruning
  bool write_index = true;        ///< persist FLXI after a clean full scan
};

/// A trace opened for querying. Holds the raw file image (via
/// io::TraceReader), the symbol table, the image's chunk walk, and a
/// cache of the fully decoded columnar store plus its FLXI index, so a
/// REPL session pays the full decode at most once and prunes afterwards.
/// Opening walks the frame headers only: a one-shot query pays for the
/// chunks it decodes, not for the bytes of the whole image.
class QueryEngine {
 public:
  /// Open a trace file (any format TraceReader detects). Throws
  /// TraceIoError only when the file cannot be read at all; damaged
  /// content is salvaged at query time, never fatal here.
  [[nodiscard]] static QueryEngine open(const std::string& path,
                                        SymbolTable symtab,
                                        EngineOptions opts = {});

  /// Query an in-memory trace (tests, live captures). The data is
  /// re-encoded into an FLXT v3 image internally so pruning and the
  /// in-memory index behave exactly as for an on-disk trace.
  [[nodiscard]] static QueryEngine from_data(const io::TraceData& data,
                                             SymbolTable symtab,
                                             EngineOptions opts = {});

  /// Parse + execute. Throws ParseError on a bad query; execution itself
  /// never throws on trace damage (it salvages).
  QueryResult run(std::string_view query_text);
  QueryResult run(const Query& q);

  /// Scan this trace and stop before the finish — the federated seam
  /// (see ExecPartial). Any stage: wait stages scan the wait-edge stream
  /// and decode no sample chunk.
  ExecPartial run_partial(const Query& q);

  /// Merge partials (in partial order) and finish the query: group
  /// finish + rendering, outliers detection, wait-graph rendering,
  /// top/limit. Static — it touches no trace, only the shared symbol
  /// table that rendered or will render func ids. `run(q)` is exactly
  /// `finish_partials(q, symtab(), {run_partial(q)})`, and
  /// StreamingQuery::snapshot() finishes through it too.
  [[nodiscard]] static QueryResult finish_partials(
      const Query& q, const SymbolTable& symtab,
      std::vector<ExecPartial> parts);

  [[nodiscard]] const SymbolTable& symtab() const { return symtab_; }
  [[nodiscard]] const io::TraceReader& reader() const { return reader_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

  QueryEngine(QueryEngine&&) noexcept;
  QueryEngine& operator=(QueryEngine&&) noexcept;
  ~QueryEngine();

 private:
  QueryEngine(io::TraceReader reader, SymbolTable symtab, EngineOptions opts);

  struct Loaded {
    const ColumnarTrace* table = nullptr; ///< full_ or &pruned scratch
    ScanStats stats;
  };

  /// Load the rows this query needs: a pruned load when a keep-mask
  /// applies, else the cached full load. `scratch` owns the pruned load
  /// when one happens.
  Loaded load_for(const Query& q, std::optional<ColumnarTrace>& scratch);
  /// The keep-mask of a pruned load of `q` over the walk's sample
  /// chunks: from the validated FLXI sidecar, else from the v3 zone hints
  /// (the caller checks they may prune `q`). nullopt when the sidecar
  /// does not fit the walk.
  [[nodiscard]] std::optional<std::vector<bool>> keep_mask(
      const Query& q, const PruneHints& hints, std::string_view image) const;
  void ensure_full_loaded();
  void try_build_index();
  rt::ThreadPool& pool(unsigned n_threads);
  /// pool() when decoding `sample_chunks` chunks can use it, else null.
  rt::ThreadPool* decode_pool(std::size_t sample_chunks);
  /// The block driver of every scan: runs `run_block` for blocks
  /// [0, n_blocks) on the pool when more than one of `live_blocks` can
  /// use it, else inline. Callers merge block outputs in block order,
  /// so the thread count never shows in a result.
  void for_each_block(std::size_t n_blocks, std::size_t live_blocks,
                      const std::function<void(std::size_t)>& run_block);
  void ensure_wait_edges_loaded();

  io::TraceReader reader_;
  SymbolTable symtab_;
  EngineOptions opts_;
  /// The one strict walk of the image, made at open: every load and the
  /// index build reuse its chunk list, and its frame-derived CRC
  /// (io::image_crc) pins the sidecar, so the open reads no payload byte.
  /// nullopt when the walk failed: then no sidecar counts as fresh or is
  /// written, and loads salvage.
  std::optional<io::ImageWalk> walk_;

  std::optional<ColumnarTrace> full_; ///< cached full decode
  bool full_salvaged_ = false;
  std::vector<WaitEdge> wait_edges_;  ///< cached wait-edge stream (v2)
  bool wait_loaded_ = false;
  bool wait_salvaged_ = false;
  std::optional<FlxiIndex> index_;    ///< cached/validated sidecar
  bool index_load_tried_ = false;     ///< sidecar file probed once per open
  bool index_written_ = false;
  std::size_t chunks_total_ = 0;      ///< sample chunks (0: not clean v2)
  /// Scan workers, created once and reused across run() calls — spawning
  /// a pool per query was one of the thread-scaling plateau's causes.
  std::unique_ptr<rt::ThreadPool> pool_;
  unsigned pool_threads_ = 0;
};

} // namespace fluxtrace::query
