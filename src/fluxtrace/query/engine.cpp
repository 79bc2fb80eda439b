#include "fluxtrace/query/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/obs/span.hpp"
#include "fluxtrace/query/lex.hpp"
#include "fluxtrace/query/partials.hpp"
#include "fluxtrace/query/waitgraph.hpp"
#include "fluxtrace/rt/thread_pool.hpp"

namespace fluxtrace::query {

namespace {

using detail::Lexer;
using detail::Tok;
using detail::Token;

// Self-telemetry: what the engine scans and what the index saves it.
struct QueryMetrics {
  obs::Counter& runs = obs::metrics().counter("query.runs");
  obs::Counter& rows_scanned = obs::metrics().counter("query.rows_scanned");
  obs::Counter& rows_matched = obs::metrics().counter("query.rows_matched");
  obs::Counter& chunks_pruned = obs::metrics().counter("query.chunks_pruned");
  obs::Counter& chunks_pruned_compressed =
      obs::metrics().counter("query.chunks_pruned_compressed");
  obs::Counter& blocks_skipped =
      obs::metrics().counter("query.blocks_skipped");
  obs::Counter& index_hits = obs::metrics().counter("query.index_hits");
  obs::Counter& index_writes = obs::metrics().counter("query.index_writes");

  static QueryMetrics& get() {
    static QueryMetrics m;
    return m;
  }
};

} // namespace

// --- pipeline parsing ---------------------------------------------------

std::string Aggregate::name() const {
  switch (kind) {
    case Kind::Count: return "count";
    case Kind::Sum: return "sum_" + std::string(to_string(field));
    case Kind::Min: return "min_" + std::string(to_string(field));
    case Kind::Max: return "max_" + std::string(to_string(field));
    case Kind::P50: return "p50_" + std::string(to_string(field));
    case Kind::P95: return "p95_" + std::string(to_string(field));
    case Kind::P99: return "p99_" + std::string(to_string(field));
  }
  return "?";
}

unsigned Query::fields_used() const {
  unsigned bits = filter ? filter->fields_used() : 0;
  for (const Field f : select) bits |= field_bit(f);
  for (const Field f : group_keys) bits |= field_bit(f);
  for (const Aggregate& a : aggs) {
    if (a.kind != Aggregate::Kind::Count) bits |= field_bit(a.field);
  }
  if (outliers.has_value()) {
    bits |= field_bit(Field::Item) | field_bit(Field::Func) |
            field_bit(Field::Dur);
  }
  // Row mode with no projection outputs every column.
  if (select.empty() && aggs.empty() && !outliers.has_value()) {
    bits = kAllFields;
  }
  return bits;
}

bool Query::references_dur() const {
  return (fields_used() & field_bit(Field::Dur)) != 0;
}

std::vector<Field> Query::row_fields() const {
  if (!select.empty()) return select;
  return {Field::Item, Field::Func, Field::Core,
          Field::Ts,   Field::Dur,  Field::Ip};
}

std::vector<std::string> Query::columns() const {
  static constexpr std::string_view kOutlierColumns[] = {
      "item", "func", "elapsed", "mean", "sigma", "sigmas"};
  std::vector<std::string> out;
  const auto add = [&out](const auto& names) {
    for (const auto& n : names) out.emplace_back(n);
  };
  if (critical_path) {
    add(kCriticalPathColumns);
  } else if (blocked_by) {
    add(kBlockedByColumns);
  } else if (outliers.has_value()) {
    add(kOutlierColumns);
  } else if (!aggs.empty()) {
    for (const Field f : group_keys) out.emplace_back(to_string(f));
    for (const Aggregate& a : aggs) out.push_back(a.name());
  } else {
    for (const Field f : row_fields()) out.emplace_back(to_string(f));
  }
  return out;
}

namespace {

Field expect_field(Lexer& lex) {
  const Token t = lex.expect(Tok::Ident, "a column name");
  const auto f = field_from_name(t.text);
  if (!f.has_value()) {
    throw ParseError("unknown column '" + t.text +
                         "' (have: item func core ts dur ip)",
                     t.pos);
  }
  return *f;
}

std::vector<Field> parse_field_list(Lexer& lex) {
  std::vector<Field> out;
  out.push_back(expect_field(lex));
  while (lex.accept(Tok::Comma)) out.push_back(expect_field(lex));
  return out;
}

Aggregate parse_agg(Lexer& lex) {
  const Token t = lex.expect(Tok::Ident, "an aggregate (count/sum/min/max/"
                                         "p50/p95/p99)");
  Aggregate a;
  if (t.text == "count") {
    a.kind = Aggregate::Kind::Count;
    return a;
  }
  if (t.text == "sum") a.kind = Aggregate::Kind::Sum;
  else if (t.text == "min") a.kind = Aggregate::Kind::Min;
  else if (t.text == "max") a.kind = Aggregate::Kind::Max;
  else if (t.text == "p50") a.kind = Aggregate::Kind::P50;
  else if (t.text == "p95") a.kind = Aggregate::Kind::P95;
  else if (t.text == "p99") a.kind = Aggregate::Kind::P99;
  else {
    throw ParseError("unknown aggregate '" + t.text +
                         "' (have: count sum min max p50 p95 p99)",
                     t.pos);
  }
  lex.expect(Tok::LParen, "'(' after the aggregate name");
  a.field = expect_field(lex);
  lex.expect(Tok::RParen, "')'");
  return a;
}

std::uint64_t expect_count(Lexer& lex, const char* what) {
  const Token t = lex.expect(Tok::Number, what);
  if (t.is_float || t.num <= 0) {
    throw ParseError(std::string("expected a positive integer for ") + what,
                     t.pos);
  }
  return static_cast<std::uint64_t>(t.num);
}

} // namespace

Query parse_query(std::string_view text, const SymbolTable* symtab) {
  Query q;
  q.text = std::string(text);
  Lexer lex(text);
  if (lex.at(Tok::End)) return q; // empty query: every row, every column

  // Canonical stage order, each at most once: filter < one of
  // select/group/outliers/critical_path/blocked_by < top < limit.
  int last_rank = -1;
  Token top_col;
  for (;;) {
    const Token t = lex.expect(
        Tok::Ident, "a stage (filter/select/group/outliers/critical_path/"
                    "blocked_by/top/limit)");
    int rank = -1;
    if (t.text == "filter") {
      rank = 0;
      q.filter = detail::parse_expr_tokens(lex, symtab);
    } else if (t.text == "select") {
      rank = 1;
      q.select = parse_field_list(lex);
    } else if (t.text == "group") {
      rank = 1;
      q.group_keys = parse_field_list(lex);
      lex.expect(Tok::Colon, "':' between group keys and aggregates");
      q.aggs.push_back(parse_agg(lex));
      while (lex.accept(Tok::Comma)) q.aggs.push_back(parse_agg(lex));
    } else if (t.text == "critical_path") {
      rank = 1;
      q.critical_path = true;
    } else if (t.text == "blocked_by") {
      rank = 1;
      q.blocked_by = true;
    } else if (t.text == "outliers") {
      rank = 1;
      OutliersSpec spec;
      while (lex.at(Tok::Ident)) {
        const Token p = lex.next();
        lex.expect(Tok::Assign, "'=' after the outliers parameter");
        const Token v = lex.expect(Tok::Number, "a parameter value");
        if (p.text == "k") {
          if (v.fnum <= 0.0) {
            throw ParseError("outliers k must be positive", v.pos);
          }
          spec.config.k_sigma = v.fnum;
        } else if (p.text == "warmup") {
          if (v.is_float || v.num < 0) {
            throw ParseError("outliers warmup must be a non-negative integer",
                             v.pos);
          }
          spec.config.warmup = static_cast<std::uint64_t>(v.num);
        } else {
          throw ParseError("unknown outliers parameter '" + p.text +
                               "' (have: k warmup)",
                           p.pos);
        }
      }
      q.outliers = spec;
    } else if (t.text == "top") {
      rank = 2;
      TopK tk;
      tk.n = expect_count(lex, "the top-N count");
      const Token by = lex.expect(Tok::Ident, "'by'");
      if (by.text != "by") {
        throw ParseError("expected 'by' after the top-N count", by.pos);
      }
      top_col = lex.expect(Tok::Ident, "an output column name");
      tk.by = top_col.text;
      q.topk = tk;
    } else if (t.text == "limit") {
      rank = 3;
      q.limit = expect_count(lex, "the limit count");
    } else {
      throw ParseError("unknown stage '" + t.text +
                           "' (have: filter select group outliers "
                           "critical_path blocked_by top limit)",
                       t.pos);
    }
    if (rank <= last_rank) {
      throw ParseError(
          "stage '" + t.text +
              "' out of order (filter | select/group/outliers/critical_path/"
              "blocked_by | top | limit, each at most once)",
          t.pos);
    }
    last_rank = rank;
    if (lex.accept(Tok::Pipe)) continue;
    if (lex.at(Tok::End)) break;
    throw ParseError("expected '|' or end of query at '" +
                         Lexer::describe(lex.peek()) + "'",
                     lex.peek().pos);
  }
  if (q.wait_stage() && q.filter) {
    // Wait-edge scans have no func/ip column; the remaining names map
    // onto the edge: item = waiter item, core = waiter core, ts = enter,
    // dur = blocked duration.
    q.filter->bind_check(field_bit(Field::Item) | field_bit(Field::Core) |
                             field_bit(Field::Ts) | field_bit(Field::Dur),
                         "a wait-edge stage");
  }
  if (q.topk.has_value()) {
    const std::vector<std::string> cols = q.columns();
    const auto it = std::find(cols.begin(), cols.end(), q.topk->by);
    if (it == cols.end()) {
      std::string have;
      for (const std::string& c : cols) have += (have.empty() ? "" : " ") + c;
      throw ParseError("top: unknown output column '" + q.topk->by +
                           "' (have: " + have + ")",
                       top_col.pos);
    }
    q.topk->column = static_cast<std::size_t>(it - cols.begin());
  }
  return q;
}

// --- cells --------------------------------------------------------------

Cell Cell::of_int(std::int64_t v) {
  Cell c;
  c.kind = Kind::Int;
  c.i = v;
  return c;
}

Cell Cell::of_real(double v) {
  Cell c;
  c.kind = Kind::Real;
  c.d = v;
  return c;
}

Cell Cell::of_text(std::string v) {
  Cell c;
  c.kind = Kind::Text;
  c.s = std::move(v);
  return c;
}

Cell Cell::of_field(Field f, std::int64_t v, const SymbolTable& symtab) {
  if (f == Field::Func && v >= 0 &&
      static_cast<std::size_t>(v) < symtab.size()) {
    return of_text(std::string(symtab.name(static_cast<SymbolId>(v))));
  }
  return of_int(v);
}

std::string Cell::str() const {
  switch (kind) {
    case Kind::Int: return std::to_string(i);
    case Kind::Real: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.6g", d);
      return buf;
    }
    case Kind::Text: return s;
  }
  return {};
}

bool Cell::less(const Cell& other) const {
  if (kind != other.kind) return kind < other.kind;
  switch (kind) {
    case Kind::Int: return i < other.i;
    case Kind::Real: return d < other.d;
    case Kind::Text: return s < other.s;
  }
  return false;
}

std::vector<Cell> outlier_row(const core::Anomaly& a,
                              const SymbolTable& symtab) {
  return {Cell::of_int(static_cast<std::int64_t>(a.item)),
          Cell::of_field(Field::Func, static_cast<std::int64_t>(a.fn), symtab),
          Cell::of_int(static_cast<std::int64_t>(a.elapsed)),
          Cell::of_real(a.mean), Cell::of_real(a.sigma),
          Cell::of_real(a.deviation())};
}

// --- engine -------------------------------------------------------------

QueryEngine::QueryEngine(io::TraceReader reader, SymbolTable symtab,
                         EngineOptions opts)
    : reader_(std::move(reader)), symtab_(std::move(symtab)), opts_(opts) {
  if (opts_.block_rows == 0) opts_.block_rows = 65536;
  OBS_SPAN("query.open");
  try {
    walk_ = io::walk_image(reader_.bytes());
  } catch (const io::TraceIoError&) {
    // Damaged framing or not a chunked image: every load salvages.
  }
}

// Out of line so unique_ptr<rt::ThreadPool> works with the forward
// declaration in the header.
QueryEngine::QueryEngine(QueryEngine&&) noexcept = default;
QueryEngine& QueryEngine::operator=(QueryEngine&&) noexcept = default;
QueryEngine::~QueryEngine() = default;

rt::ThreadPool& QueryEngine::pool(unsigned n_threads) {
  if (!pool_ || pool_threads_ != n_threads) {
    pool_.reset(); // join the old workers before spawning new ones
    pool_ = std::make_unique<rt::ThreadPool>(n_threads);
    pool_threads_ = n_threads;
  }
  return *pool_;
}

QueryEngine QueryEngine::open(const std::string& path, SymbolTable symtab,
                              EngineOptions opts) {
  return QueryEngine(io::open_trace(path), std::move(symtab), opts);
}

QueryEngine QueryEngine::from_data(const io::TraceData& data,
                                   SymbolTable symtab, EngineOptions opts) {
  std::ostringstream os;
  io::write_trace_v3(os, data);
  return QueryEngine(io::open_trace_bytes(std::move(os).str()),
                     std::move(symtab), opts);
}

rt::ThreadPool* QueryEngine::decode_pool(std::size_t sample_chunks) {
  const unsigned threads = rt::resolve_threads(opts_.threads);
  return threads > 1 && sample_chunks > 1 ? &pool(threads) : nullptr;
}

void QueryEngine::for_each_block(
    std::size_t n_blocks, std::size_t live_blocks,
    const std::function<void(std::size_t)>& run_block) {
  const unsigned threads = rt::resolve_threads(opts_.threads);
  if (threads > 1 && live_blocks > 1) {
    pool(threads).parallel_for(n_blocks, run_block);
  } else {
    for (std::size_t b = 0; b < n_blocks; ++b) run_block(b);
  }
}

void QueryEngine::ensure_full_loaded() {
  if (full_.has_value()) return;
  OBS_SPAN("query.load_full");
  const BuildOptions bo{opts_.use_register_ids, opts_.block_rows};
  if (walk_.has_value()) {
    try {
      const auto n_samples = static_cast<std::size_t>(
          std::ranges::count_if(walk_->chunks, [](const io::V2ChunkRef& r) {
            return io::is_sample_chunk_type(r.type);
          }));
      full_ = ColumnarTrace::load(reader_.bytes(), walk_->chunks, {}, symtab_,
                                  bo, decode_pool(n_samples));
    } catch (const io::TraceIoError&) {
      // a damaged payload: salvage below
    }
  }
  if (!full_.has_value()) {
    full_ = ColumnarTrace::read_or_salvage(reader_, symtab_, bo);
  }
  full_salvaged_ = full_->salvaged();
  try_build_index();
}

void QueryEngine::try_build_index() {
  // The index construction itself lives in flxi.cpp (build_flxi), shared
  // with the standalone refresh path (`flxt_recover --rebuild-index`,
  // the hub's ingest); this wrapper only adds the engine's caching and
  // the opportunistic sidecar write.
  if (index_.has_value() || full_salvaged_ || !full_.has_value() ||
      !walk_.has_value()) {
    return;
  }
  auto idx = build_flxi(*walk_, *full_, symtab_, opts_.use_register_ids);
  if (!idx.has_value()) return;
  chunks_total_ = idx->chunks.size();
  index_ = std::move(*idx);

  if (opts_.write_index && !reader_.path().empty() && !index_written_) {
    if (save_flxi(flxi_path(reader_.path()), *index_)) {
      index_written_ = true;
      QueryMetrics::get().index_writes.inc();
    }
  }
}

namespace {

/// True when no value in [lo, hi] can satisfy the interval hint `h`.
bool rejects(const Interval& h, std::int64_t lo, std::int64_t hi) {
  return !h.full() && (h.empty() || !h.intersects(lo, hi));
}

/// Can any row of a sidecar chunk satisfy the prune hints? ts counts
/// only when `ts_sound` (the query does not reference dur).
bool flxi_chunk_may_match(const FlxiChunk& c, const PruneHints& hints,
                          bool ts_sound) {
  if (c.n_records == 0 || (ts_sound && rejects(hints.ts, c.min_ts, c.max_ts)) ||
      rejects(hints.item, c.min_item, c.max_item)) {
    return false;
  }
  if (!hints.funcs.has_value()) return true;
  auto it = hints.funcs->begin();
  for (const auto& [fn, cnt] : c.func_counts) {
    while (it != hints.funcs->end() && *it < fn) ++it;
    if (it == hints.funcs->end()) break;
    if (*it == fn) return true;
  }
  return false;
}

} // namespace

std::optional<std::vector<bool>> QueryEngine::keep_mask(
    const Query& q, const PruneHints& hints, std::string_view image) const {
  std::vector<bool> keep;
  for (const io::V2ChunkRef& r : walk_->chunks) {
    if (!io::is_sample_chunk_type(r.type)) continue;
    const std::size_t i = keep.size();
    if (index_.has_value()) {
      // The validated index must describe exactly the sample chunks the
      // walk sees; anything else means it lied and a full scan is safer.
      if (i >= index_->chunks.size() || r.offset != index_->chunks[i].offset) {
        return std::nullopt;
      }
      keep.push_back(flxi_chunk_may_match(index_->chunks[i], hints,
                                          !q.references_dur()));
    } else {
      // A raw chunk, or one whose payload fails the frame CRC, has no
      // hint (hint.ok == false) and is decoded.
      const io::V3ZoneHint hint = io::read_v3_zone_hint(image, r);
      keep.push_back(!hint.ok || !rejects(hints.ts, hint.min_ts, hint.max_ts));
    }
  }
  if (index_.has_value() && keep.size() != index_->chunks.size()) {
    return std::nullopt;
  }
  return keep;
}

QueryEngine::Loaded QueryEngine::load_for(const Query& q,
                                          std::optional<ColumnarTrace>& scratch) {
  OBS_SPAN("query.load");
  Loaded out;
  out.stats.threads = rt::resolve_threads(opts_.threads);

  const PruneHints hints =
      q.filter ? extract_prune_hints(*q.filter) : PruneHints{};
  const bool may_prune = opts_.use_index && !q.outliers.has_value() &&
                         walk_.has_value() && hints.selective() &&
                         !full_.has_value();

  if (may_prune && !index_.has_value() && !index_load_tried_ &&
      !reader_.path().empty()) {
    index_load_tried_ = true;
    // A stale sidecar (other bytes, symbols or attribution mode) means a
    // full scan, then a rewrite under the current pins.
    if (auto idx = load_flxi(flxi_path(reader_.path()));
        idx.has_value() &&
        flxi_fresh(*idx, *walk_, symtab_, opts_.use_register_ids)) {
      chunks_total_ = idx->chunks.size();
      index_ = std::move(*idx);
      index_written_ = true; // already on disk, do not rewrite
    }
  }
  // Sidecar-free pruning: v3 compressed chunks carry an encode-time
  // min/max ts hint at a fixed payload offset (v3.hpp), so a ts-selective
  // query can skip chunks without inflating them even before any FLXI
  // sidecar exists. The hint covers only the time column, so it is
  // useless for item/func predicates, and like FLXI ts pruning it is
  // unsound once the query references dur (durations attribute across
  // chunk boundaries).
  const bool hints_prune = reader_.format() == io::TraceFormat::FlxtV3 &&
                           !q.references_dur() && !hints.ts.full();
  if (may_prune && (index_.has_value() || hints_prune)) {
    // A pruned load is the one loader over a keep-mask. Damage in the
    // kept chunks drops to the full load below, which salvages; damage in
    // a pruned chunk is never read, so it cannot touch the answer.
    const std::string_view image = reader_.bytes();
    try {
      if (const auto keep = keep_mask(q, hints, image)) {
        std::size_t kept = 0;
        std::size_t pruned_compressed = 0;
        std::size_t i = 0;
        for (const io::V2ChunkRef& r : walk_->chunks) {
          if (!io::is_sample_chunk_type(r.type)) continue;
          const bool k = (*keep)[i++];
          kept += k;
          pruned_compressed += !k && io::is_compressed_chunk_type(r.type);
        }
        scratch = ColumnarTrace::load(
            image, walk_->chunks, *keep, symtab_,
            BuildOptions{opts_.use_register_ids, opts_.block_rows},
            decode_pool(kept));
        out.table = &*scratch;
        out.stats.chunks_total = keep->size();
        out.stats.chunks_read = kept;
        out.stats.chunks_pruned = keep->size() - kept;
        out.stats.chunks_pruned_compressed = pruned_compressed;
        out.stats.index_used = index_.has_value();
        if (out.stats.index_used) QueryMetrics::get().index_hits.inc();
        QueryMetrics::get().chunks_pruned.inc(out.stats.chunks_pruned);
        QueryMetrics::get().chunks_pruned_compressed.inc(pruned_compressed);
        return out;
      }
    } catch (const io::TraceIoError&) {
      // fall through to the full load
    }
  }

  ensure_full_loaded();
  out.table = &*full_;
  out.stats.chunks_total = chunks_total_;
  out.stats.chunks_read = chunks_total_;
  out.stats.salvaged = full_salvaged_;
  out.stats.index_written = index_written_;
  return out;
}

// --- execution ----------------------------------------------------------

namespace {

/// One scan block's private results; merged in block-index order so the
/// final result is independent of which thread ran which block. The
/// aggregate algebra lives in partials.hpp, shared verbatim with the
/// streaming executor, so `--follow` snapshots and cold batch runs can
/// never disagree on what p95_dur means.
struct BlockOut {
  std::size_t matched = 0;
  std::vector<std::uint32_t> rows; ///< row mode: matched in-block offsets
  GroupMap groups;
  /// outliers mode: {item, func} -> dur (identical for every row of a
  /// bucket, so last-write-wins is deterministic)
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> buckets;
};

enum class Mode : std::uint8_t { Rows, Group, Outliers };

/// Can any row of a zone satisfy the filter's prune hints? False means
/// the whole block is provably filtered out. Sound in every mode —
/// unlike FLXI chunk pruning, the dur column is already attributed over
/// the full row set, so skipping here only skips rows the filter itself
/// would reject.
bool zone_may_match(const PruneHints& h, const ZoneMap& z) {
  if (rejects(h.ts, z.min_of(Field::Ts), z.max_of(Field::Ts)) ||
      rejects(h.item, z.min_of(Field::Item), z.max_of(Field::Item))) {
    return false;
  }
  if (h.funcs.has_value()) {
    const std::int64_t lo = z.min_of(Field::Func);
    const std::int64_t hi = z.max_of(Field::Func);
    bool any = false;
    for (const SymbolId id : *h.funcs) {
      const auto v = static_cast<std::int64_t>(id);
      if (v >= lo && v <= hi) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

/// Batch scan of rows [begin, end): one BatchEvaluator::select() for the
/// filter, then mode-specific accumulation over the matched offsets via
/// raw column pointers. Results build in `local` state and move into
/// `out` once at the end, so concurrent blocks never write the shared
/// parts array per-row (the old per-row writes false-shared cache lines
/// between adjacent blocks).
void scan_block(const Query& q, const ColumnarTrace& t, Mode mode,
                std::size_t begin, std::size_t end, BlockOut& out) {
  BlockOut local;
  const ColumnBlock block = t.block(begin, end);
  const std::size_t rows = block.rows;

  // Matched in-block offsets. With no filter every row matches and the
  // index buffer is skipped entirely.
  std::vector<std::uint32_t> sel;
  std::size_t m = rows;
  if (q.filter) {
    sel.resize(rows);
    BatchEvaluator ev(*q.filter);
    m = ev.select(block, sel.data());
  }
  local.matched = m;
  const auto offset_at = [&](std::size_t k) {
    return q.filter ? static_cast<std::size_t>(sel[k]) : k;
  };

  switch (mode) {
    case Mode::Rows: {
      if (q.filter) {
        sel.resize(m);
        local.rows = std::move(sel);
      } else {
        local.rows.resize(rows);
        for (std::size_t k = 0; k < rows; ++k) {
          local.rows[k] = static_cast<std::uint32_t>(k);
        }
      }
      break;
    }
    case Mode::Group: {
      const std::size_t nk = q.group_keys.size();
      const std::size_t na = q.aggs.size();
      // Column base pointers resolved once; the row loop is loads only.
      std::vector<const std::int64_t*> key_col(nk);
      for (std::size_t k = 0; k < nk; ++k) {
        key_col[k] = block[q.group_keys[k]].data();
      }
      std::vector<const std::int64_t*> agg_col(na);
      for (std::size_t a = 0; a < na; ++a) {
        agg_col[a] = block[q.aggs[a].field].data();
      }
      // The scratch key is reused every row; a map node allocates only
      // when a new group appears (the old code heap-allocated a key
      // vector per matched row — the hottest allocation in the profile).
      std::vector<std::int64_t> key(nk);
      auto last = local.groups.end();
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t i = offset_at(k);
        for (std::size_t c = 0; c < nk; ++c) key[c] = key_col[c][i];
        // Rows are time-ordered and items arrive in runs, so the last
        // group repeats far more often than not.
        if (last == local.groups.end() || last->first != key) {
          last = local.groups.find(key);
          if (last == local.groups.end()) {
            last = local.groups.emplace(key, GroupPartial{}).first;
            last->second.aggs.resize(na);
          }
        }
        GroupPartial& g = last->second;
        ++g.count;
        for (std::size_t a = 0; a < na; ++a) {
          g.aggs[a].observe(q.aggs[a], agg_col[a][i]);
        }
      }
      break;
    }
    case Mode::Outliers: {
      const std::int64_t* items = block[Field::Item].data();
      const std::int64_t* fns = block[Field::Func].data();
      const std::int64_t* durs = block[Field::Dur].data();
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t i = offset_at(k);
        const std::int64_t item = items[i];
        const std::int64_t fn = fns[i];
        if (item >= 0 && fn >= 0) local.buckets[{item, fn}] = durs[i];
      }
      break;
    }
  }
  out = std::move(local);
}

} // namespace

QueryResult QueryEngine::run(std::string_view query_text) {
  return run(parse_query(query_text, &symtab_));
}

QueryResult QueryEngine::run(const Query& q) {
  OBS_SPAN("query.run");
  QueryMetrics::get().runs.inc();
  std::vector<ExecPartial> parts;
  parts.push_back(run_partial(q));
  return finish_partials(q, symtab_, std::move(parts));
}

void QueryEngine::ensure_wait_edges_loaded() {
  if (wait_loaded_) return;
  wait_loaded_ = true;
  // Wait edges only exist in chunk-family images (v2 raw, v3
  // compressed). Any other image failed the open's strict walk and is
  // salvaged, as the sample loader does: a chunked trace whose file
  // header was destroyed still yields its edges, and a foreign file
  // yields none and says so.
  const std::string_view bytes = reader_.bytes();
  if (walk_.has_value()) {
    try {
      io::TraceData scratch;
      for (const io::V2ChunkRef& ref : walk_->chunks) {
        if (!io::is_wait_chunk_type(ref.type)) continue;
        io::decode_trace_v2_chunk(bytes, ref, scratch);
      }
      wait_edges_ = std::move(scratch.wait_edges);
      return;
    } catch (const io::TraceIoError&) {
      // a damaged payload: salvage below
    }
  }
  wait_edges_ = io::salvage_trace(bytes).data.wait_edges;
  wait_salvaged_ = true;
}

ExecPartial QueryEngine::run_partial(const Query& q) {
  const std::size_t block = opts_.block_rows;
  const auto blocks_of = [block](std::size_t n) {
    return n == 0 ? 0 : (n + block - 1) / block;
  };
  ExecPartial part;

  if (q.wait_stage()) {
    // Wait stages fold the wait-edge stream into one WaitGraph per block
    // and decode no sample chunk.
    std::vector<WaitGraph> graphs;
    std::vector<std::size_t> matched;
    {
      OBS_SPAN("query.wait_scan");
      ensure_wait_edges_loaded();
      const std::size_t n = wait_edges_.size();
      graphs.resize(blocks_of(n));
      matched.assign(graphs.size(), 0);
      for_each_block(graphs.size(), graphs.size(), [&](std::size_t b) {
        // Accumulate locally and move once, like scan_block.
        WaitGraph g;
        std::size_t m = 0;
        const std::size_t end = std::min(n, (b + 1) * block);
        for (std::size_t i = b * block; i < end; ++i) {
          const WaitEdge& e = wait_edges_[i];
          if (q.filter && !q.filter->test(wait_edge_fields(e))) continue;
          g.observe(e);
          ++m;
        }
        graphs[b] = std::move(g);
        matched[b] = m;
      });
    }
    {
      OBS_SPAN("query.merge");
      for (WaitGraph& g : graphs) part.wait.merge(std::move(g));
    }
    part.stats.wait_stage = true;
    part.stats.wait_edges = wait_edges_.size();
    part.stats.rows_scanned = wait_edges_.size();
    for (const std::size_t m : matched) part.stats.rows_matched += m;
    part.stats.salvaged = wait_salvaged_;
    part.stats.threads = rt::resolve_threads(opts_.threads);
    return part;
  }

  std::optional<ColumnarTrace> scratch;
  Loaded loaded = load_for(q, scratch);
  const ColumnarTrace& t = *loaded.table;

  const Mode mode = q.outliers.has_value() ? Mode::Outliers
                    : !q.aggs.empty()      ? Mode::Group
                                           : Mode::Rows;

  // Fixed-size blocks, merged in block order: the thread count never
  // shows in the result bytes.
  const std::size_t n = t.rows();
  const std::size_t n_blocks = blocks_of(n);

  // Zone-map block skipping: when the store's zones line up with the
  // scan blocks and the filter yields selective hints, blocks whose
  // bounds cannot satisfy the predicate are never evaluated. The skip
  // set is computed up front, deterministically, before any thread runs.
  std::vector<char> skip(n_blocks, 0);
  std::size_t blocks_skipped = 0;
  std::size_t rows_skipped = 0;
  if (q.filter && t.zone_rows() == block && t.zones().size() == n_blocks) {
    const PruneHints hints = extract_prune_hints(*q.filter);
    if (hints.selective()) {
      for (std::size_t b = 0; b < n_blocks; ++b) {
        if (!zone_may_match(hints, t.zones()[b])) {
          skip[b] = 1;
          ++blocks_skipped;
          rows_skipped += std::min(n, (b + 1) * block) - b * block;
        }
      }
    }
  }

  std::vector<BlockOut> blocks(n_blocks);
  {
    OBS_SPAN("query.scan");
    for_each_block(n_blocks, n_blocks - blocks_skipped, [&](std::size_t b) {
      if (skip[b]) return;
      scan_block(q, t, mode, b * block, std::min(n, (b + 1) * block),
                 blocks[b]);
    });
  }

  part.stats = loaded.stats;
  part.stats.rows_scanned = n - rows_skipped;
  part.stats.blocks_total = n_blocks;
  part.stats.blocks_skipped = blocks_skipped;
  for (const BlockOut& p : blocks) part.stats.rows_matched += p.matched;
  QueryMetrics::get().rows_scanned.inc(n - rows_skipped);
  QueryMetrics::get().rows_matched.inc(part.stats.rows_matched);
  QueryMetrics::get().blocks_skipped.inc(blocks_skipped);

  OBS_SPAN("query.merge");
  switch (mode) {
    case Mode::Rows: {
      // Render straight to cells here (per-row pure, so per-trace
      // rendering then concatenation is the concatenated rendering).
      const std::vector<Field> cols = q.row_fields();
      std::vector<std::span<const std::int64_t>> proj;
      proj.reserve(cols.size());
      for (const Field f : cols) proj.push_back(t.col(f));
      for (std::size_t b = 0; b < n_blocks; ++b) {
        const std::size_t base = b * block;
        for (const std::uint32_t off : blocks[b].rows) {
          const std::size_t i = base + off;
          std::vector<Cell> row;
          row.reserve(cols.size());
          for (std::size_t c = 0; c < cols.size(); ++c) {
            row.push_back(Cell::of_field(cols[c], proj[c][i], symtab_));
          }
          part.rows.push_back(std::move(row));
        }
      }
      break;
    }
    case Mode::Group: {
      for (BlockOut& p : blocks) {
        merge_groups(part.groups, std::move(p.groups), q.aggs);
      }
      break;
    }
    case Mode::Outliers: {
      for (BlockOut& p : blocks) part.buckets.merge(p.buckets);
      break;
    }
  }
  return part;
}

QueryResult QueryEngine::finish_partials(const Query& q,
                                         const SymbolTable& symtab,
                                         std::vector<ExecPartial> parts) {
  // Merge, in partial order. Only the stage's own payload is non-empty,
  // so merging every payload costs nothing for the others.
  ExecPartial all;
  {
    OBS_SPAN("query.merge");
    for (std::size_t i = 0; i < parts.size(); ++i) {
      ExecPartial& p = parts[i];
      if (i == 0) {
        all = std::move(p);
        continue;
      }
      ScanStats& m = all.stats;
      const ScanStats& s = p.stats;
      m.chunks_total += s.chunks_total;
      m.chunks_read += s.chunks_read;
      m.chunks_pruned += s.chunks_pruned;
      m.chunks_pruned_compressed += s.chunks_pruned_compressed;
      m.rows_scanned += s.rows_scanned;
      m.rows_matched += s.rows_matched;
      m.blocks_total += s.blocks_total;
      m.blocks_skipped += s.blocks_skipped;
      m.wait_edges += s.wait_edges;
      m.index_used = m.index_used || s.index_used;
      m.index_written = m.index_written || s.index_written;
      m.salvaged = m.salvaged || s.salvaged;
      m.wait_stage = m.wait_stage || s.wait_stage;
      m.threads = std::max(m.threads, s.threads);
      all.rows.insert(all.rows.end(), std::make_move_iterator(p.rows.begin()),
                      std::make_move_iterator(p.rows.end()));
      merge_groups(all.groups, std::move(p.groups), q.aggs);
      all.buckets.merge(p.buckets);
      all.wait.merge(std::move(p.wait));
    }
  }

  OBS_SPAN("query.finish");
  QueryResult res;
  res.stats = all.stats;
  res.columns = q.columns();
  res.rows = std::move(all.rows);
  if (!q.aggs.empty()) {
    for (auto& [key, acc] : all.groups) {
      std::vector<Cell> row;
      row.reserve(key.size() + q.aggs.size());
      for (std::size_t k = 0; k < key.size(); ++k) {
        row.push_back(Cell::of_field(q.group_keys[k], key[k], symtab));
      }
      for (std::size_t a = 0; a < q.aggs.size(); ++a) {
        row.push_back(Cell::of_int(acc.aggs[a].finish(q.aggs[a], acc.count)));
      }
      res.rows.push_back(std::move(row));
    }
  } else if (q.outliers.has_value()) {
    core::FluctuationDetector det(q.outliers->config);
    for (const auto& [key, dur] : all.buckets) {
      det.observe(static_cast<ItemId>(key.first),
                  static_cast<SymbolId>(key.second), static_cast<Tsc>(dur));
    }
    for (const core::Anomaly& a : det.anomalies()) {
      res.rows.push_back(outlier_row(a, symtab));
    }
  } else if (q.wait_stage()) {
    res.rows = (q.critical_path ? finish_critical_path(std::move(all.wait))
                                : finish_blocked_by(all.wait))
                   .rows;
  }

  if (q.topk.has_value()) {
    const std::size_t ci = q.topk->column;
    std::stable_sort(res.rows.begin(), res.rows.end(),
                     [ci](const std::vector<Cell>& x,
                          const std::vector<Cell>& y) {
                       return y[ci].less(x[ci]);
                     });
    if (res.rows.size() > q.topk->n) res.rows.resize(q.topk->n);
  }
  if (q.limit.has_value() && res.rows.size() > *q.limit) {
    res.rows.resize(*q.limit);
  }
  return res;
}

} // namespace fluxtrace::query
