// Streaming query execution over a live capture (ISSUE 6): the `--follow`
// half of the trace query engine.
//
// A StreamingQuery consumes the incremental TraceData batches an
// io::TraceFollower commits and evaluates a parsed pipeline continuously,
// with the *marker window* (one item's Enter→Leave residence on one core,
// paper §III-C) as the unit of streaming progress:
//
//   * markers pair into per-core item windows through the attribution
//     kernel (core/attribution.hpp), with the batch rule: Enter and Leave
//     pair per core by item id, and an Enter never left makes no window;
//   * samples buffer per core; a Leave marker seals its window, and the
//     window then takes the buffered samples the kernel says it owns —
//     those it covers that no later-entered window covers. A window a
//     later-entered, still-open window overlaps waits for that window's
//     Leave (or for flush()), since the open window may yet own part of
//     its span;
//   * each sealed window's rows flow through the pipeline's filter, fold
//     into running GroupPartial accumulators (partials.hpp — the exact
//     merge algebra the batch engine uses), and feed the continuously
//     evaluated `outliers` detector, which raises an alert (and an obs
//     counter) in the same ingest() call that sealed the window;
//   * snapshot() finishes a *copy* of the partials through
//     QueryEngine::finish_partials, the batch engine's own finisher, so
//     columns, cells and top/limit are the batch ones at any moment.
//
// Fed in time order (samples before markers at equal timestamps), the
// rows and their items are the batch engine's. One limit of sealing on
// the Leave: an Enter stamped on the same cycle as a Leave but delivered
// in a later batch cannot claim a sample on that cycle.
//
// Windowed dur semantics: a streamed row's dur is the first-to-last
// sample span of its {item, func} bucket *within its window*. Where each
// item has one window per core, the per-window spans summed over an
// item's windows are exactly the batch engine's dur; when an item's work
// on a function straddles several windows on one core, the streamed
// value is the per-window span, which is the only quantity a bounded-
// memory follower can know without replaying the file.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/core/attribution.hpp"
#include "fluxtrace/core/detector.hpp"
#include "fluxtrace/io/trace_file.hpp"
#include "fluxtrace/query/engine.hpp"
#include "fluxtrace/query/partials.hpp"
#include "fluxtrace/query/waitgraph.hpp"

namespace fluxtrace::query {

/// One continuously-evaluated outlier detection, raised by the ingest()
/// call that closed the offending window.
struct StreamAlert {
  ItemId item = kNoItem;
  SymbolId func = kInvalidSymbol;
  std::uint32_t core = 0;
  Tsc window_enter = 0;
  Tsc window_leave = 0;
  Tsc elapsed = 0;   ///< the {item, func} span that tripped the detector
  double mean = 0.0; ///< function's running mean at detection time
  double sigma = 0.0;
  double sigmas = 0.0; ///< deviation in sigmas
};

/// One marker window the stream closed, with what the pipeline made of it.
struct WindowResult {
  ItemId item = kNoItem;
  std::uint32_t core = 0;
  Tsc enter = 0;
  Tsc leave = 0;
  std::uint64_t rows = 0;         ///< samples attributed to the window
  std::uint64_t rows_matched = 0; ///< of those, rows passing the filter
  std::vector<StreamAlert> alerts;
};

struct StreamStats {
  std::uint64_t batches = 0;
  std::uint64_t markers = 0;
  std::uint64_t samples = 0;
  std::uint64_t wait_edges = 0; ///< wait edges ingested (wait stages)
  std::uint64_t windows_closed = 0;
  std::uint64_t rows_matched = 0;
  std::uint64_t rows_unattributed = 0; ///< aged out below any window
  std::uint64_t alerts = 0;
  std::uint64_t enters_unmatched = 0;  ///< Enters never left (no window)
};

struct StreamOptions {
  /// Row-mode pipelines keep at most this many most-recent rows for
  /// snapshot() — the live tail a follower can afford to hold.
  std::size_t row_tail = 4096;
  /// Samples older than the core watermark by more than this slack that
  /// still match no window are counted unattributed and dropped.
  Tsc attribution_slack = 0;
};

class StreamingQuery {
 public:
  /// Anything parse_query accepts runs (it has resolved `top`'s column
  /// already). The symbol table resolves sample ips to functions exactly
  /// as the columnar build does.
  StreamingQuery(Query q, SymbolTable symtab, StreamOptions opts = {});

  /// Fold one follower batch in. Returns the windows this batch sealed,
  /// in (leave, core) order — alerts ride on their window.
  std::vector<WindowResult> ingest(const io::TraceData& batch);

  /// End of stream: an Enter still open makes no window (the batch
  /// rule), so the windows it held back seal now; samples left over are
  /// unattributed.
  std::vector<WindowResult> flush();

  /// The partials accumulated so far, finished by
  /// QueryEngine::finish_partials: the same columns and cells
  /// QueryEngine::run would produce over the rows that have flowed
  /// through (outliers: the anomalies flagged as windows sealed).
  /// Non-destructive; callable per poll.
  [[nodiscard]] QueryResult snapshot() const;

  [[nodiscard]] const StreamStats& stats() const { return stats_; }
  [[nodiscard]] const Query& query() const { return query_; }
  [[nodiscard]] const SymbolTable& symtab() const { return symtab_; }

 private:
  struct PendingSample {
    Tsc tsc = 0;
    std::uint64_t ip = 0;
  };
  struct CoreState {
    std::deque<PendingSample> pending; ///< ascending tsc
    std::vector<core::TrackedWindow> closed; ///< closed, not yet sealed
    Tsc watermark = 0;
  };

  /// Seal every closed window on `core` that no open window holds back.
  void seal_ready_windows(std::uint32_t core, CoreState& cs,
                          std::vector<WindowResult>& out);
  void emit_window(const core::TrackedWindow& t, CoreState& cs,
                   std::vector<WindowResult>& out);
  /// Fold window row `row` (an index into wincols_) into the pipeline
  /// state; the filter has already accepted it.
  void fold_matched(std::size_t row, WindowResult& w);

  Query query_;
  SymbolTable symtab_;
  StreamOptions opts_;
  std::vector<Field> row_fields_; ///< row mode's output, resolved once

  core::WindowTracker tracker_;
  std::map<std::uint32_t, CoreState> cores_;

  // Running pipeline state (the partials the batch engine would merge).
  GroupMap groups_;
  std::deque<std::vector<Cell>> row_tail_;
  std::optional<core::FluctuationDetector> detector_;
  /// Wait-stage pipelines fold edges here instead (ISSUE 8); the window
  /// machinery above never engages for them.
  WaitGraph wait_graph_;

  // Batch filter evaluation (ISSUE 7): each sealed window's rows gather
  // into these per-window column buffers (reused across windows) and the
  // filter runs once per window through the same BatchEvaluator the
  // batch engine scans with — identical values per row, so snapshots
  // stay bit-identical to the per-row interpreter.
  std::optional<BatchEvaluator> filter_eval_;
  std::array<std::vector<std::int64_t>, kNumFields> wincols_;
  std::vector<std::int64_t> filter_mask_;

  StreamStats stats_;
};

} // namespace fluxtrace::query
