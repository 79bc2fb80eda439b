// Streaming query execution (stream.hpp): the `--follow` half of the
// engine. The contract under test: partials merged in any split agree
// with a single pass (the commutative algebra engine.cpp now shares);
// a StreamingQuery fed a trace batch-by-batch snapshots to the same
// group-mode table the batch engine computes; and the continuously
// evaluated `outliers` stage raises its alert in the very ingest() call
// that closes the offending marker window.
#include "fluxtrace/query/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "fluxtrace/query/engine.hpp"

namespace fluxtrace::query {
namespace {

/// Same deterministic workload the engine tests use: `n_items` marker
/// windows alternating over two cores, three functions. Each item's work
/// lands in exactly one window, so the streamed per-window dur equals
/// the batch engine's cross-trace span.
struct Workload {
  SymbolTable symtab;
  io::TraceData data;
};

Workload make_workload(std::size_t n_items, std::size_t samples_per_item,
                       std::uint64_t seed = 1) {
  Workload w;
  const SymbolId f0 = w.symtab.add("app::parse", 0x400);
  const SymbolId f1 = w.symtab.add("app::lookup", 0x400);
  const SymbolId f2 = w.symtab.add("app::transform", 0x400);
  const SymbolId fns[3] = {f0, f1, f2};
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  for (std::size_t i = 0; i < n_items; ++i) {
    const std::uint32_t core = static_cast<std::uint32_t>(i % 2);
    const Tsc t0 = 10000 * (i + 1);
    const Tsc t1 = t0 + 8000;
    w.data.markers.push_back({t0, i, core, MarkerKind::Enter});
    for (std::size_t s = 0; s < samples_per_item; ++s) {
      PebsSample smp;
      smp.tsc = t0 + 1 + (s * 7900) / samples_per_item;
      smp.core = core;
      smp.ip = w.symtab.ip_at(fns[rnd() % 3], 0.5);
      w.data.samples.push_back(smp);
    }
    w.data.markers.push_back({t1, i, core, MarkerKind::Leave});
  }
  return w;
}

/// Feed a workload to a StreamingQuery the way a follower delivers it:
/// in time order, one batch per item window (enter, samples, leave) —
/// the interleaving a chunked live file produces. Returns all windows.
std::vector<WindowResult> stream_by_window(StreamingQuery& sq,
                                           const Workload& w) {
  std::vector<WindowResult> all;
  std::size_t si = 0;
  for (std::size_t mi = 0; mi + 1 < w.data.markers.size(); mi += 2) {
    io::TraceData batch;
    batch.markers.push_back(w.data.markers[mi]); // enter
    const Tsc leave = w.data.markers[mi + 1].tsc;
    while (si < w.data.samples.size() && w.data.samples[si].tsc <= leave) {
      batch.samples.push_back(w.data.samples[si]);
      ++si;
    }
    batch.markers.push_back(w.data.markers[mi + 1]); // leave
    auto ws = sq.ingest(batch);
    all.insert(all.end(), std::make_move_iterator(ws.begin()),
               std::make_move_iterator(ws.end()));
  }
  auto ws = sq.flush();
  all.insert(all.end(), std::make_move_iterator(ws.begin()),
             std::make_move_iterator(ws.end()));
  return all;
}

// --- partials algebra --------------------------------------------------

TEST(AggPartial, SplitMergeMatchesSingleStream) {
  const std::int64_t vals[] = {5, -3, 17, 17, 0, 42, 9, 1, 30, -8, 6, 11};
  const Aggregate kinds[] = {
      {Aggregate::Kind::Sum, Field::Ts}, {Aggregate::Kind::Min, Field::Ts},
      {Aggregate::Kind::Max, Field::Ts}, {Aggregate::Kind::P50, Field::Ts},
      {Aggregate::Kind::P95, Field::Ts}, {Aggregate::Kind::P99, Field::Ts},
  };
  const std::size_t n = std::size(vals);
  for (const Aggregate& agg : kinds) {
    AggPartial whole;
    for (const std::int64_t v : vals) whole.observe(agg, v);
    const std::int64_t want = whole.finish(agg, n);
    // Every split point, including the empty prefix/suffix.
    for (std::size_t cut = 0; cut <= n; ++cut) {
      AggPartial lo;
      AggPartial hi;
      for (std::size_t i = 0; i < cut; ++i) lo.observe(agg, vals[i]);
      for (std::size_t i = cut; i < n; ++i) hi.observe(agg, vals[i]);
      lo.merge(agg, std::move(hi));
      EXPECT_EQ(lo.finish(agg, n), want)
          << "agg " << agg.name() << " cut " << cut;
    }
  }
}

TEST(AggPartial, MergeOrderIrrelevant) {
  const Aggregate agg{Aggregate::Kind::P95, Field::Dur};
  AggPartial a;
  AggPartial b;
  AggPartial c;
  for (std::int64_t v : {3, 1, 4}) a.observe(agg, v);
  for (std::int64_t v : {1, 5, 9, 2}) b.observe(agg, v);
  for (std::int64_t v : {6, 5}) c.observe(agg, v);

  AggPartial ab = a; // (a + b) + c
  {
    AggPartial tmp = b;
    ab.merge(agg, std::move(tmp));
    AggPartial tmp2 = c;
    ab.merge(agg, std::move(tmp2));
  }
  AggPartial cb = c; // (c + b) + a
  {
    AggPartial tmp = b;
    cb.merge(agg, std::move(tmp));
    AggPartial tmp2 = a;
    cb.merge(agg, std::move(tmp2));
  }
  EXPECT_EQ(ab.finish(agg, 9), cb.finish(agg, 9));
}

// --- streaming vs batch ------------------------------------------------

TEST(StreamingQuery, GroupSnapshotMatchesBatchEngine) {
  const Workload w = make_workload(6, 10);
  EngineOptions opts;
  opts.threads = 1;
  QueryEngine eng = QueryEngine::from_data(w.data, w.symtab, opts);
  const char* queries[] = {
      "group item: count, sum(ts), min(ts), max(ts), p50(ts)",
      "filter core == 1 | group item, func: count, sum(dur), p95(ts)",
      "group func: count | top 2 by count",
      "filter ts % 2 == 0 | group core: count, max(ts)",
  };
  for (const char* q : queries) {
    StreamingQuery sq(parse_query(q, &w.symtab), w.symtab);
    stream_by_window(sq, w);
    const QueryResult live = sq.snapshot();
    const QueryResult batch = eng.run(q);
    EXPECT_EQ(live.columns, batch.columns) << q;
    EXPECT_EQ(live.rows, batch.rows) << q;
  }
}

TEST(StreamingQuery, RowModeKeepsFilteredTail) {
  const Workload w = make_workload(4, 6);
  StreamOptions so;
  so.row_tail = 8;
  StreamingQuery sq(parse_query("filter core == 0 | select ts, core",
                                &w.symtab),
                    w.symtab, so);
  stream_by_window(sq, w);
  const QueryResult res = sq.snapshot();
  ASSERT_EQ(res.columns, (std::vector<std::string>{"ts", "core"}));
  EXPECT_EQ(res.rows.size(), 8u) << "tail capped at row_tail";
  for (const auto& row : res.rows) EXPECT_EQ(row[1], Cell::of_int(0));
  EXPECT_GT(sq.stats().rows_matched, 8u);
}

TEST(StreamingQuery, SnapshotIsNonDestructive) {
  const Workload w = make_workload(5, 8);
  StreamingQuery sq(parse_query("group item: count, p95(ts)", &w.symtab),
                    w.symtab);
  stream_by_window(sq, w);
  const QueryResult a = sq.snapshot();
  const QueryResult b = sq.snapshot(); // finish() must act on copies
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.columns, b.columns);
}

// --- continuous outlier detection --------------------------------------

TEST(StreamingQuery, AlertRaisedInIngestThatClosesTheWindow) {
  // Seven ordinary windows of app::work, then one an order of magnitude
  // slower: the alert must ride on the ingest() call that delivers the
  // slow window's leave marker — not a later poll, not only at flush.
  SymbolTable symtab;
  const SymbolId fn = symtab.add("app::work", 0x400);
  StreamingQuery sq(parse_query("outliers k=2.0 warmup=3", &symtab), symtab);

  std::uint64_t alerts_before_slow = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const bool slow = (i == 7);
    const Tsc t0 = 100000 * (i + 1);
    const Tsc span = slow ? 50000 : 1000 + 10 * static_cast<Tsc>(i);
    io::TraceData batch;
    batch.markers.push_back({t0, i, 0, MarkerKind::Enter});
    for (std::size_t s = 0; s < 4; ++s) {
      PebsSample smp;
      smp.tsc = t0 + 1 + (s * span) / 3;
      smp.core = 0;
      smp.ip = symtab.ip_at(fn, 0.5);
      batch.samples.push_back(smp);
    }
    batch.markers.push_back({t0 + span + 10, i, 0, MarkerKind::Leave});
    const auto windows = sq.ingest(batch);
    ASSERT_EQ(windows.size(), 1u) << "window " << i << " must seal in its "
                                  << "own ingest (leave advances watermark)";
    if (!slow) {
      alerts_before_slow += windows[0].alerts.size();
    } else {
      ASSERT_EQ(windows[0].alerts.size(), 1u)
          << "the slow window's alert must arrive with its close";
      const StreamAlert& a = windows[0].alerts[0];
      EXPECT_EQ(a.item, 7u);
      EXPECT_EQ(a.func, fn);
      EXPECT_GT(a.elapsed, 10000u);
      EXPECT_GT(a.sigmas, 2.0);
    }
  }
  EXPECT_EQ(alerts_before_slow, 0u) << "ordinary windows must not alert";
  EXPECT_EQ(sq.stats().alerts, 1u);

  // The snapshot reports the same anomaly in batch-engine columns.
  const QueryResult res = sq.snapshot();
  ASSERT_EQ(res.columns,
            (std::vector<std::string>{"item", "func", "elapsed", "mean",
                                      "sigma", "sigmas"}));
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0][0], Cell::of_int(7));
  EXPECT_EQ(res.rows[0][1].s, "app::work");
}

// --- stream lifecycle ---------------------------------------------------

TEST(StreamingQuery, OutOfOrderSamplesWaitForWatermark) {
  // A window's leave arrives before its last sample (cross-chunk skew on
  // one core cannot happen — the writer encodes in order — but a sample
  // chunk can land in the batch *after* the marker chunk). The window
  // must not seal until the watermark passes its leave.
  SymbolTable symtab;
  const SymbolId fn = symtab.add("f", 0x100);
  StreamingQuery sq(parse_query("group item: count", &symtab), symtab);

  io::TraceData b1;
  b1.markers.push_back({100, 1, 0, MarkerKind::Enter});
  b1.markers.push_back({200, 1, 0, MarkerKind::Leave});
  auto w1 = sq.ingest(b1); // watermark = 200 = leave: seals immediately
  ASSERT_EQ(w1.size(), 1u);

  io::TraceData b2;
  b2.markers.push_back({300, 2, 0, MarkerKind::Enter});
  PebsSample s;
  s.tsc = 350;
  s.core = 0;
  s.ip = symtab.ip_at(fn, 0.5);
  b2.samples.push_back(s);
  auto w2 = sq.ingest(b2);
  EXPECT_TRUE(w2.empty()) << "no leave yet";

  io::TraceData b3;
  b3.markers.push_back({400, 2, 0, MarkerKind::Leave});
  auto w3 = sq.ingest(b3);
  ASSERT_EQ(w3.size(), 1u);
  EXPECT_EQ(w3[0].rows, 1u) << "the buffered sample attributed at seal";
}

TEST(StreamingQuery, FlushDropsAnEnterNeverLeft) {
  // The batch rule: an Enter that is never left makes no window, so its
  // samples end unattributed instead of closing at the watermark.
  SymbolTable symtab;
  const SymbolId fn = symtab.add("f", 0x100);
  StreamingQuery sq(parse_query("group item: count", &symtab), symtab);

  io::TraceData b;
  b.markers.push_back({100, 9, 0, MarkerKind::Enter}); // never leaves
  for (std::size_t i = 0; i < 3; ++i) {
    PebsSample s;
    s.tsc = 150 + i * 10;
    s.core = 0;
    s.ip = symtab.ip_at(fn, 0.5);
    b.samples.push_back(s);
  }
  EXPECT_TRUE(sq.ingest(b).empty());

  EXPECT_TRUE(sq.flush().empty());
  EXPECT_EQ(sq.stats().enters_unmatched, 1u);
  EXPECT_EQ(sq.stats().windows_closed, 0u);
  EXPECT_EQ(sq.stats().rows_unattributed, 3u);
}

TEST(StreamingQuery, LeavePairsByItemNotByNesting) {
  // Enter 1, Enter 2, Leave 1, Leave 2 on one core: the Leaves pair with
  // their own items' Enters, and the overlap [200, 300] belongs to the
  // later-entered item 2. Item 1 seals only once item 2 has left — until
  // then item 2 may yet own part of item 1's span.
  SymbolTable symtab;
  const SymbolId fn = symtab.add("f", 0x100);
  StreamingQuery sq(parse_query("group item: count", &symtab), symtab);
  const auto sample = [&](Tsc t) {
    PebsSample s;
    s.tsc = t;
    s.core = 0;
    s.ip = symtab.ip_at(fn, 0.5);
    return s;
  };

  io::TraceData b1;
  b1.markers.push_back({100, 1, 0, MarkerKind::Enter});
  b1.markers.push_back({200, 2, 0, MarkerKind::Enter});
  b1.samples = {sample(150), sample(250)};
  b1.markers.push_back({300, 1, 0, MarkerKind::Leave});
  EXPECT_TRUE(sq.ingest(b1).empty()) << "item 2 is still open";

  io::TraceData b2;
  b2.samples = {sample(350)};
  b2.markers.push_back({400, 2, 0, MarkerKind::Leave});
  const auto ws = sq.ingest(b2);
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].item, 1u);
  EXPECT_EQ(ws[0].rows, 1u); // 150
  EXPECT_EQ(ws[1].item, 2u);
  EXPECT_EQ(ws[1].rows, 2u); // 250 and 350
}

} // namespace
} // namespace fluxtrace::query
