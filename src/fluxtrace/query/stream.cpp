#include "fluxtrace/query/stream.hpp"

#include <algorithm>
#include <tuple>

#include "fluxtrace/obs/metrics.hpp"

namespace fluxtrace::query {

namespace {

// Self-telemetry for the continuous path: the alert counter is the one
// the follow-chaos CI job asserts on.
struct StreamMetrics {
  obs::Counter& windows = obs::metrics().counter("query.stream.windows");
  obs::Counter& rows = obs::metrics().counter("query.stream.rows_matched");
  obs::Counter& alerts = obs::metrics().counter("query.stream.alerts");

  static StreamMetrics& get() {
    static StreamMetrics m;
    return m;
  }
};

} // namespace

StreamingQuery::StreamingQuery(Query q, SymbolTable symtab, StreamOptions opts)
    : query_(std::move(q)),
      symtab_(std::move(symtab)),
      opts_(opts),
      row_fields_(query_.row_fields()) {
  if (query_.outliers.has_value()) {
    detector_.emplace(query_.outliers->config);
  }
  if (query_.filter) filter_eval_.emplace(*query_.filter);
}

void StreamingQuery::fold_matched(std::size_t row, WindowResult& w) {
  const auto at = [&](Field f) {
    return wincols_[static_cast<std::size_t>(f)][row];
  };
  ++w.rows_matched;
  ++stats_.rows_matched;
  StreamMetrics::get().rows.inc();

  if (!query_.aggs.empty()) {
    std::vector<std::int64_t> key;
    key.reserve(query_.group_keys.size());
    for (const Field f : query_.group_keys) key.push_back(at(f));
    GroupPartial& g = groups_[std::move(key)];
    if (g.aggs.empty()) g.aggs.resize(query_.aggs.size());
    ++g.count;
    for (std::size_t a = 0; a < query_.aggs.size(); ++a) {
      g.aggs[a].observe(query_.aggs[a], at(query_.aggs[a].field));
    }
  } else if (!query_.outliers.has_value()) {
    // Row mode: keep the live tail for snapshot().
    std::vector<Cell> row_cells;
    row_cells.reserve(row_fields_.size());
    for (const Field f : row_fields_) {
      row_cells.push_back(Cell::of_field(f, at(f), symtab_));
    }
    row_tail_.push_back(std::move(row_cells));
    if (row_tail_.size() > opts_.row_tail) row_tail_.pop_front();
  }
}

void StreamingQuery::emit_window(const core::TrackedWindow& t,
                                 CoreState& cs,
                                 std::vector<WindowResult>& out) {
  const ItemId item = t.w.item;
  const std::uint32_t core = t.w.core;
  WindowResult w;
  w.item = item;
  w.core = core;
  w.enter = t.w.enter;
  w.leave = t.w.leave;

  // Claim the buffered samples the kernel gives this window: those it
  // covers that no later-entered window covers.
  struct Row {
    std::int64_t fn;
    PendingSample s;
  };
  std::vector<Row> rows;
  core::FuncSpans spans;
  const auto by_tsc = [](const PendingSample& p, Tsc x) { return p.tsc < x; };
  const auto lo = std::lower_bound(cs.pending.begin(), cs.pending.end(),
                                   t.w.enter, by_tsc);
  auto hi = lo;
  auto keep = lo;
  for (; hi != cs.pending.end() && hi->tsc <= t.w.leave; ++hi) {
    std::uint64_t seq = 0;
    if (tracker_.owner(core, hi->tsc, &seq) !=
            core::WindowTracker::Verdict::Owned ||
        seq != t.seq) {
      *keep++ = *hi;
      continue;
    }
    const auto fn = symtab_.resolve(hi->ip);
    if (fn.has_value()) spans[*fn].add(hi->tsc);
    rows.push_back({fn.has_value() ? static_cast<std::int64_t>(*fn) : -1, *hi});
  }
  cs.pending.erase(keep, hi);
  w.rows = rows.size();

  // Rows gather into the per-window column buffers in fold order —
  // unresolved-ip rows first (func = -1, dur = 0), then per function
  // ascending, each in time order — and the filter evaluates once over
  // the whole window as one column block. A row's dur is its function's
  // span within the window.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& x, const Row& y) { return x.fn < y.fn; });
  // Detector observations fire after the owning function's rows fold, in
  // function order — `end` marks where each function's rows stop.
  struct FnMark {
    SymbolId fn = kInvalidSymbol;
    Tsc span = 0;
    std::size_t end = 0;
  };
  std::vector<FnMark> marks;
  for (auto& c : wincols_) c.clear();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Row& r = rows[k];
    Tsc span = 0;
    if (r.fn >= 0) {
      const auto fn = static_cast<SymbolId>(r.fn);
      span = spans.at(fn).elapsed();
      if (marks.empty() || marks.back().fn != fn) marks.push_back({fn, span, 0});
      marks.back().end = k + 1;
    }
    const auto col = [this](Field f) -> std::vector<std::int64_t>& {
      return wincols_[static_cast<std::size_t>(f)];
    };
    col(Field::Item).push_back(static_cast<std::int64_t>(item));
    col(Field::Func).push_back(r.fn);
    col(Field::Core).push_back(static_cast<std::int64_t>(core));
    col(Field::Ts).push_back(static_cast<std::int64_t>(r.s.tsc));
    col(Field::Dur).push_back(static_cast<std::int64_t>(span));
    col(Field::Ip).push_back(static_cast<std::int64_t>(r.s.ip));
  }

  const std::size_t n = rows.size();
  if (filter_eval_.has_value() && n > 0) {
    filter_mask_.resize(n);
    ColumnBlock blk;
    blk.rows = n;
    for (std::size_t f = 0; f < kNumFields; ++f) {
      blk.col[f] = std::span<const std::int64_t>(wincols_[f]);
    }
    filter_eval_->eval(blk, filter_mask_.data());
  }

  std::size_t next_mark = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!filter_eval_.has_value() || filter_mask_[i] != 0) fold_matched(i, w);
    while (next_mark < marks.size() && marks[next_mark].end == i + 1) {
      const FnMark& mk = marks[next_mark++];
      if (!detector_.has_value()) continue;
      // Continuous outliers: one {item, func} elapsed estimate per
      // window, flagged against the function's running statistics in
      // the very call that sealed the window.
      if (detector_->observe(item, mk.fn, mk.span)) {
        StreamAlert a;
        a.item = item;
        a.func = mk.fn;
        a.core = core;
        a.window_enter = w.enter;
        a.window_leave = w.leave;
        a.elapsed = mk.span;
        a.mean = detector_->mean(mk.fn);
        a.sigma = detector_->sigma(mk.fn);
        a.sigmas = a.sigma > 0.0
                       ? (static_cast<double>(mk.span) - a.mean) / a.sigma
                       : 0.0;
        w.alerts.push_back(a);
        ++stats_.alerts;
        StreamMetrics::get().alerts.inc();
      }
    }
  }

  ++stats_.windows_closed;
  StreamMetrics::get().windows.inc();
  out.push_back(std::move(w));
}

void StreamingQuery::seal_ready_windows(std::uint32_t core, CoreState& cs,
                                        std::vector<WindowResult>& out) {
  // Innermost first: ascending leave edge, then entry order.
  const auto ready = std::partition(
      cs.closed.begin(), cs.closed.end(),
      [this](const core::TrackedWindow& t) { return !tracker_.settled(t); });
  std::sort(ready, cs.closed.end(),
            [](const core::TrackedWindow& a, const core::TrackedWindow& b) {
              return std::tie(a.w.leave, a.seq) < std::tie(b.w.leave, b.seq);
            });
  for (auto it = ready; it != cs.closed.end(); ++it) emit_window(*it, cs, out);
  for (auto it = ready; it != cs.closed.end(); ++it) {
    tracker_.retire(core, it->seq);
  }
  cs.closed.erase(ready, cs.closed.end());

  // Age out samples that can no longer match any window: older than the
  // watermark (minus slack) and below every window still in play.
  Tsc floor = cs.watermark > opts_.attribution_slack
                  ? cs.watermark - opts_.attribution_slack
                  : 0;
  for (const core::TrackedWindow& t : tracker_.live(core)) {
    floor = std::min(floor, t.w.enter);
  }
  while (!cs.pending.empty() && cs.pending.front().tsc < floor) {
    ++stats_.rows_unattributed;
    cs.pending.pop_front();
  }
}

std::vector<WindowResult> StreamingQuery::ingest(const io::TraceData& batch) {
  ++stats_.batches;
  std::vector<WindowResult> out;

  // Wait-edge stages fold the batch's edge stream and nothing else: the
  // marker-window machinery attributes samples, which these stages never
  // read. The filter binds the edge exactly as the batch scan does.
  if (query_.wait_stage()) {
    for (const WaitEdge& e : batch.wait_edges) {
      ++stats_.wait_edges;
      if (query_.filter && !query_.filter->test(wait_edge_fields(e))) continue;
      wait_graph_.observe(e);
      ++stats_.rows_matched;
    }
    return out;
  }

  for (const Marker& m : batch.markers) {
    ++stats_.markers;
    CoreState& cs = cores_[m.core];
    cs.watermark = std::max(cs.watermark, m.tsc);
    tracker_.push(m, cs.closed);
  }
  for (const PebsSample& s : batch.samples) {
    ++stats_.samples;
    CoreState& cs = cores_[s.core];
    cs.watermark = std::max(cs.watermark, s.tsc);
    // Keep per-core pending sorted by time (drain order is near-sorted,
    // so the tail insertion is almost always O(1)).
    PendingSample p{s.tsc, s.ip};
    auto pos = cs.pending.end();
    while (pos != cs.pending.begin() && std::prev(pos)->tsc > p.tsc) --pos;
    cs.pending.insert(pos, p);
  }

  stats_.enters_unmatched = tracker_.never_left();
  for (auto& [core, cs] : cores_) seal_ready_windows(core, cs, out);

  std::sort(out.begin(), out.end(),
            [](const WindowResult& a, const WindowResult& b) {
              return a.leave != b.leave ? a.leave < b.leave : a.core < b.core;
            });
  return out;
}

std::vector<WindowResult> StreamingQuery::flush() {
  std::vector<WindowResult> out;
  // An Enter still open is never left: it makes no window, and the
  // windows it held back can seal.
  for (auto& [core, cs] : cores_) {
    tracker_.finish_core(core, 0, cs.closed);
    stats_.enters_unmatched = tracker_.never_left();
    seal_ready_windows(core, cs, out);
    stats_.rows_unattributed += cs.pending.size();
    cs.pending.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const WindowResult& a, const WindowResult& b) {
              return a.leave != b.leave ? a.leave < b.leave : a.core < b.core;
            });
  return out;
}

QueryResult StreamingQuery::snapshot() const {
  // Copies of the running state: finishing is destructive.
  ExecPartial part;
  if (query_.wait_stage()) {
    part.wait = wait_graph_;
    part.stats.wait_stage = true;
    part.stats.wait_edges = stats_.wait_edges;
    part.stats.rows_scanned = stats_.wait_edges;
  } else {
    part.stats.rows_scanned = stats_.samples;
    if (!query_.aggs.empty()) {
      part.groups = groups_;
    } else if (detector_.has_value()) {
      // Streamed outliers are the running detector's anomalies, flagged
      // as windows sealed — not a replay of buckets.
      for (const core::Anomaly& a : detector_->anomalies()) {
        part.rows.push_back(outlier_row(a, symtab_));
      }
    } else {
      part.rows.assign(row_tail_.begin(), row_tail_.end());
    }
  }
  part.stats.rows_matched = stats_.rows_matched;
  part.stats.threads = 1;
  std::vector<ExecPartial> parts;
  parts.push_back(std::move(part));
  return QueryEngine::finish_partials(query_, symtab_, std::move(parts));
}

} // namespace fluxtrace::query
