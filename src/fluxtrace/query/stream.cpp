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
    : query_(std::move(q)), symtab_(std::move(symtab)), opts_(opts) {
  if (query_.outliers.has_value()) {
    detector_.emplace(query_.outliers->config);
  }
  if (query_.filter) {
    filter_eval_.emplace(*query_.filter, opts_.portable_eval);
  }
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
    const std::vector<Field> cols =
        query_.select.empty()
            ? std::vector<Field>{Field::Item, Field::Func, Field::Core,
                                 Field::Ts,  Field::Dur,  Field::Ip}
            : query_.select;
    std::vector<Cell> row_cells;
    row_cells.reserve(cols.size());
    for (const Field f : cols) {
      const std::int64_t v = at(f);
      if (f == Field::Func && v >= 0 &&
          static_cast<std::size_t>(v) < symtab_.size()) {
        row_cells.push_back(
            Cell::of_text(std::string(symtab_.name(static_cast<SymbolId>(v)))));
      } else {
        row_cells.push_back(Cell::of_int(v));
      }
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
  // read. Filter semantics match QueryEngine::run_wait exactly.
  if (query_.critical_path || query_.blocked_by) {
    for (const WaitEdge& e : batch.wait_edges) {
      ++stats_.wait_edges;
      if (query_.filter) {
        FieldVals fv;
        fv.set(Field::Item, static_cast<std::int64_t>(e.item));
        fv.set(Field::Core, e.waiter_core);
        fv.set(Field::Ts, static_cast<std::int64_t>(e.enter));
        fv.set(Field::Dur, static_cast<std::int64_t>(e.blocked()));
        if (!query_.filter->test(fv)) continue;
      }
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
  if (query_.critical_path || query_.blocked_by) {
    WaitGraph copy = wait_graph_; // finish_critical_path is destructive
    QueryResult res = query_.critical_path
                          ? finish_critical_path(std::move(copy))
                          : finish_blocked_by(copy);
    res.stats.wait_stage = true;
    res.stats.wait_edges = stats_.wait_edges;
    res.stats.rows_scanned = stats_.wait_edges;
    res.stats.rows_matched = stats_.rows_matched;
    res.stats.threads = 1;
    if (query_.topk.has_value()) {
      const auto it =
          std::find(res.columns.begin(), res.columns.end(), query_.topk->by);
      if (it != res.columns.end()) {
        const std::size_t ci =
            static_cast<std::size_t>(it - res.columns.begin());
        std::stable_sort(res.rows.begin(), res.rows.end(),
                         [ci](const std::vector<Cell>& x,
                              const std::vector<Cell>& y) {
                           return y[ci].less(x[ci]);
                         });
        if (res.rows.size() > query_.topk->n) res.rows.resize(query_.topk->n);
      }
    }
    if (query_.limit.has_value() && res.rows.size() > *query_.limit) {
      res.rows.resize(*query_.limit);
    }
    return res;
  }

  QueryResult res;
  res.stats.rows_scanned = stats_.samples;
  res.stats.rows_matched = stats_.rows_matched;
  res.stats.threads = 1;

  const auto func_cell = [&](std::int64_t id) {
    if (id >= 0 && static_cast<std::size_t>(id) < symtab_.size()) {
      return Cell::of_text(
          std::string(symtab_.name(static_cast<SymbolId>(id))));
    }
    return Cell::of_int(id);
  };

  if (!query_.aggs.empty()) {
    for (const Field f : query_.group_keys) {
      res.columns.emplace_back(to_string(f));
    }
    for (const Aggregate& a : query_.aggs) res.columns.push_back(a.name());
    for (const auto& [key, acc] : groups_) {
      std::vector<Cell> row;
      row.reserve(key.size() + query_.aggs.size());
      for (std::size_t k = 0; k < key.size(); ++k) {
        row.push_back(query_.group_keys[k] == Field::Func
                          ? func_cell(key[k])
                          : Cell::of_int(key[k]));
      }
      for (std::size_t a = 0; a < query_.aggs.size(); ++a) {
        AggPartial copy = acc.aggs[a]; // finish() is destructive
        row.push_back(Cell::of_int(copy.finish(query_.aggs[a], acc.count)));
      }
      res.rows.push_back(std::move(row));
    }
  } else if (query_.outliers.has_value()) {
    res.columns = {"item", "func", "elapsed", "mean", "sigma", "sigmas"};
    if (detector_.has_value()) {
      for (const core::Anomaly& a : detector_->anomalies()) {
        std::vector<Cell> row;
        row.push_back(Cell::of_int(static_cast<std::int64_t>(a.item)));
        row.push_back(func_cell(static_cast<std::int64_t>(a.fn)));
        row.push_back(Cell::of_int(static_cast<std::int64_t>(a.elapsed)));
        row.push_back(Cell::of_real(a.mean));
        row.push_back(Cell::of_real(a.sigma));
        row.push_back(Cell::of_real(a.deviation()));
        res.rows.push_back(std::move(row));
      }
    }
  } else {
    const std::vector<Field> cols =
        query_.select.empty()
            ? std::vector<Field>{Field::Item, Field::Func, Field::Core,
                                 Field::Ts,  Field::Dur,  Field::Ip}
            : query_.select;
    for (const Field f : cols) res.columns.emplace_back(to_string(f));
    for (const auto& row : row_tail_) res.rows.push_back(row);
  }

  if (query_.topk.has_value()) {
    const auto it =
        std::find(res.columns.begin(), res.columns.end(), query_.topk->by);
    if (it != res.columns.end()) {
      const std::size_t ci =
          static_cast<std::size_t>(it - res.columns.begin());
      std::stable_sort(res.rows.begin(), res.rows.end(),
                       [ci](const std::vector<Cell>& x,
                            const std::vector<Cell>& y) {
                         return y[ci].less(x[ci]);
                       });
      if (res.rows.size() > query_.topk->n) res.rows.resize(query_.topk->n);
    }
  }
  if (query_.limit.has_value() && res.rows.size() > *query_.limit) {
    res.rows.resize(*query_.limit);
  }
  return res;
}

} // namespace fluxtrace::query
