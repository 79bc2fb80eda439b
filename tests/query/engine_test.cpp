// Query engine: pipeline parsing, execution semantics against a
// hand-checkable reference (the columnar store itself), the bit-identity
// of parallel and sequential scans on fuzzed traces, and the FLXI
// pruning contract — pruned scans read fewer chunks and return exactly
// the full-scan result, and a hostile/stale/truncated sidecar silently
// falls back to the full scan.
#include "fluxtrace/query/engine.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_file.hpp"
#include "fluxtrace/io/v3.hpp"

namespace fluxtrace::query {
namespace {

/// Deterministic synthetic workload: `n_items` marker windows on two
/// cores, each containing samples spread over three functions. The ips
/// and timestamps come from a seeded LCG, so every test run sees the
/// same trace for the same seed.
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

/// Reference row-counting straight off the columnar store, through the
/// scalar interpreter (not the batch kernels the engine scans with).
std::size_t count_matching(const Workload& w, const std::string& pred) {
  const ColumnarTrace t = ColumnarTrace::build(w.data, w.symtab);
  const auto e = parse_expr(pred, &w.symtab);
  std::size_t n = 0;
  FieldVals row;
  for (std::size_t i = 0; i < t.rows(); ++i) {
    for (std::size_t f = 0; f < kNumFields; ++f) {
      row.v[f] = t.col(static_cast<Field>(f))[i];
    }
    if (e->test(row)) ++n;
  }
  return n;
}

TEST(ParseQuery, EmptyQueryIsSelectAll) {
  const Query q = parse_query("", nullptr);
  EXPECT_EQ(q.filter, nullptr);
  EXPECT_TRUE(q.select.empty());
  EXPECT_TRUE(q.aggs.empty());
  EXPECT_FALSE(q.outliers.has_value());
}

TEST(ParseQuery, FullPipelineParses) {
  SymbolTable symtab;
  symtab.add("f");
  const Query q = parse_query(
      "filter item >= 0 && func == \"f\" | group item, func: "
      "count, sum(dur), p99(ts) | top 3 by count | limit 2",
      &symtab);
  ASSERT_NE(q.filter, nullptr);
  EXPECT_EQ(q.group_keys.size(), 2u);
  ASSERT_EQ(q.aggs.size(), 3u);
  EXPECT_EQ(q.aggs[0].name(), "count");
  EXPECT_EQ(q.aggs[1].name(), "sum_dur");
  EXPECT_EQ(q.aggs[2].name(), "p99_ts");
  ASSERT_TRUE(q.topk.has_value());
  EXPECT_EQ(q.topk->n, 3u);
  EXPECT_EQ(q.topk->by, "count");
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 2u);
  EXPECT_TRUE(q.references_dur());
}

TEST(ParseQuery, RejectsBadPipelines) {
  const char* bad[] = {
      "select item | select func",      // duplicate stage
      "limit 5 | filter item == 1",     // out of canonical order
      "top 3 by count | group item: count", // out of order
      "select item | group item: count",    // mutually exclusive
      "group item: count | outliers",       // mutually exclusive
      "group item: bogus(dur)",             // unknown aggregate
      "group item: sum",                    // sum needs (field)
      "group item count",                   // missing colon
      "outliers k",                         // missing = value
      "top by count",                       // missing N
      "top 3 count",                        // missing 'by'
      "frobnicate item",                    // unknown stage
      "filter item == 1 |",                 // trailing pipe
      "| filter item == 1",                 // leading pipe
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)parse_query(text, nullptr), ParseError) << text;
  }
}

TEST(ParseQuery, TopColumnResolvesAtParseTimeForEveryStage) {
  // Each stage's `top` column resolves against that stage's own output
  // columns; a bad one throws at the column token and lists the columns.
  const struct {
    const char* text;
    const char* bad;
    const char* have;
  } bad[] = {
      {"top 1 by nope", "nope", "item func core ts dur ip"},
      {"select item, ts | top 2 by dur", "dur", "item ts"},
      {"group func: count | top 1 by nope", "nope", "func count"},
      {"group item: count | top 2 by sum_ts", "sum_ts", "item count"},
      {"outliers | top 1 by count", "count",
       "item func elapsed mean sigma sigmas"},
      {"critical_path | top 2 by dur", "dur",
       "item blocked edges cause resource holder"},
      {"filter dur > 0 | blocked_by | top 1 by item", "item",
       "cause resource holder edges blocked max"},
  };
  for (const auto& c : bad) {
    const std::string text = c.text;
    try {
      (void)parse_query(text, nullptr);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.pos(), text.rfind(c.bad)) << text;
      EXPECT_NE(std::string(e.what()).find(std::string("(have: ") + c.have +
                                           ")"),
                std::string::npos)
          << text << ": " << e.what();
    }
  }

  const struct {
    const char* text;
    std::size_t column;
  } good[] = {
      {"group func: count, sum(dur), p95(dur) | top 20 by p95_dur", 3},
      {"outliers k=1.0 warmup=3 | top 2 by sigmas", 5},
      {"critical_path | top 5 by blocked", 1},
      {"blocked_by | top 5 by blocked", 4},
      {"select ts, func | top 3 by func", 1},
      {"top 4 by ip", 5},
  };
  for (const auto& c : good) {
    const Query q = parse_query(c.text, nullptr);
    ASSERT_TRUE(q.topk.has_value()) << c.text;
    EXPECT_EQ(q.topk->column, c.column) << c.text;
    EXPECT_EQ(q.columns()[q.topk->column], q.topk->by) << c.text;
  }
}

TEST(QueryEngineTest, RowModeProjectsInOrder) {
  const Workload w = make_workload(4, 6);
  EngineOptions opts;
  opts.threads = 1;
  QueryEngine eng = QueryEngine::from_data(w.data, w.symtab, opts);
  const QueryResult res = eng.run("select ts, core | limit 3");
  ASSERT_EQ(res.columns, (std::vector<std::string>{"ts", "core"}));
  ASSERT_EQ(res.rows.size(), 3u);
  const ColumnarTrace t = ColumnarTrace::build(w.data, w.symtab);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(res.rows[i][0], Cell::of_int(t.col(Field::Ts)[i]));
    EXPECT_EQ(res.rows[i][1], Cell::of_int(t.col(Field::Core)[i]));
  }
}

TEST(QueryEngineTest, OutOfEnumFieldThrowsInsteadOfReadingZeros) {
  const Workload w = make_workload(2, 4);
  const ColumnarTrace t = ColumnarTrace::build(w.data, w.symtab);
  // A forged or miscast Field must never silently alias a real column or
  // read zeros — the old per-row accessor's switch fell through to 0.
  EXPECT_THROW((void)t.col(static_cast<Field>(6)), std::out_of_range);
  EXPECT_THROW((void)t.col(static_cast<Field>(17)), std::out_of_range);
  EXPECT_THROW((void)t.col(static_cast<Field>(255)), std::out_of_range);
  // In-range fields still hand out full-length columns.
  for (std::size_t f = 0; f < kNumFields; ++f) {
    EXPECT_EQ(t.col(static_cast<Field>(f)).size(), t.rows());
  }
}

TEST(QueryEngineTest, FilterMatchesReferenceCount) {
  const Workload w = make_workload(6, 10);
  EngineOptions opts;
  opts.threads = 1;
  QueryEngine eng = QueryEngine::from_data(w.data, w.symtab, opts);
  for (const char* pred :
       {"item == 2", "core == 1", "ts % 2 == 0", "func == \"app::parse\"",
        "dur > 0 && item >= 0", "item == 1 || item == 4"}) {
    const QueryResult res =
        eng.run(std::string("filter ") + pred + " | select ts");
    EXPECT_EQ(res.rows.size(), count_matching(w, pred)) << pred;
    EXPECT_EQ(res.stats.rows_matched, res.rows.size()) << pred;
  }
}

TEST(QueryEngineTest, GroupByMatchesManualAggregation) {
  const Workload w = make_workload(5, 8);
  EngineOptions opts;
  opts.threads = 1;
  QueryEngine eng = QueryEngine::from_data(w.data, w.symtab, opts);
  const QueryResult res =
      eng.run("group item: count, sum(ts), min(ts), max(ts), p50(ts)");
  ASSERT_EQ(res.columns,
            (std::vector<std::string>{"item", "count", "sum_ts", "min_ts",
                                      "max_ts", "p50_ts"}));

  // Manual reference over the columnar rows.
  const ColumnarTrace t = ColumnarTrace::build(w.data, w.symtab);
  std::map<std::int64_t, std::vector<std::int64_t>> groups;
  for (std::size_t i = 0; i < t.rows(); ++i) {
    groups[t.col(Field::Item)[i]].push_back(t.col(Field::Ts)[i]);
  }
  ASSERT_EQ(res.rows.size(), groups.size());
  std::size_t r = 0;
  for (auto& [item, tss] : groups) {
    std::sort(tss.begin(), tss.end());
    std::int64_t sum = 0;
    for (const std::int64_t v : tss) sum += v;
    EXPECT_EQ(res.rows[r][0], Cell::of_int(item));
    EXPECT_EQ(res.rows[r][1], Cell::of_int(static_cast<std::int64_t>(
                                  tss.size())));
    EXPECT_EQ(res.rows[r][2], Cell::of_int(sum));
    EXPECT_EQ(res.rows[r][3], Cell::of_int(tss.front()));
    EXPECT_EQ(res.rows[r][4], Cell::of_int(tss.back()));
    // Nearest-rank p50 over the sorted values.
    EXPECT_EQ(res.rows[r][5],
              Cell::of_int(tss[(50 * tss.size() + 99) / 100 - 1]));
    ++r;
  }
}

TEST(QueryEngineTest, GroupByFuncRendersNames) {
  const Workload w = make_workload(3, 9);
  QueryEngine eng = QueryEngine::from_data(w.data, w.symtab);
  const QueryResult res = eng.run("group func: count");
  ASSERT_FALSE(res.rows.empty());
  bool saw_name = false;
  for (const auto& row : res.rows) {
    if (row[0].kind == Cell::Kind::Text) saw_name = true;
  }
  EXPECT_TRUE(saw_name);
}

TEST(QueryEngineTest, TopKSortsDescendingAndLimits) {
  const Workload w = make_workload(6, 12);
  QueryEngine eng = QueryEngine::from_data(w.data, w.symtab);
  const QueryResult all = eng.run("group item: count");
  const QueryResult top = eng.run("group item: count | top 3 by count");
  ASSERT_EQ(top.rows.size(), 3u);
  for (std::size_t i = 1; i < top.rows.size(); ++i) {
    EXPECT_FALSE(top.rows[i - 1][1].less(top.rows[i][1]));
  }
  EXPECT_LE(top.rows.size(), all.rows.size());
  // `top N by <missing column>` is a query error, not UB.
  EXPECT_THROW((void)eng.run("group item: count | top 2 by sum_ts"),
               ParseError);
}

TEST(QueryEngineTest, OutliersFindsThePlantedFluctuation) {
  // Nine ordinary items and one whose app::transform span is an order
  // of magnitude longer: the detector must flag exactly that bucket.
  Workload w = make_workload(10, 6, 7);
  const SymbolId f2 = *w.symtab.find("app::transform");
  // Stretch item 7's transform samples far beyond the others by adding
  // a second cluster of late samples inside a widened window.
  const Tsc base = 10000 * 8; // item 7's enter tsc
  for (std::size_t k = 0; k < 4; ++k) {
    PebsSample smp;
    smp.tsc = base + 60000 + 1000 * k;
    smp.core = 7 % 2;
    smp.ip = w.symtab.ip_at(f2, 0.25);
    w.data.samples.push_back(smp);
  }
  // Move item 7's leave marker past the late samples.
  for (Marker& m : w.data.markers) {
    if (m.item == 7 && m.kind == MarkerKind::Leave) m.tsc = base + 70000;
  }
  QueryEngine eng = QueryEngine::from_data(w.data, w.symtab);
  const QueryResult res = eng.run("outliers k=2.0 warmup=3");
  ASSERT_EQ(res.columns,
            (std::vector<std::string>{"item", "func", "elapsed", "mean",
                                      "sigma", "sigmas"}));
  bool found = false;
  for (const auto& row : res.rows) {
    if (row[0] == Cell::of_int(7) && row[1].s == "app::transform") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "planted outlier not reported";
  // Pruning is off for outlier queries regardless of the index.
  EXPECT_EQ(res.stats.chunks_pruned, 0u);
}

TEST(QueryEngineTest, ParallelScanBitIdenticalToSequentialFuzzed) {
  const char* queries[] = {
      "",
      "select item, func, ts",
      "filter ts % 3 == 0 && item >= 0",
      "filter core == 1 | group item: count, sum(ts), p95(ts), p99(dur)",
      "group item, func: count, min(ts), max(ts) | top 5 by count",
      "group core: sum(dur), p50(ts) | limit 2",
      "outliers k=1.5 warmup=2",
  };
  for (const std::uint64_t seed : {1ull, 42ull, 99ull}) {
    const Workload w = make_workload(8, 20, seed);
    EngineOptions seq;
    seq.threads = 1;
    EngineOptions par;
    par.threads = 4;
    par.block_rows = 16; // force many blocks so merging really happens
    QueryEngine a = QueryEngine::from_data(w.data, w.symtab, seq);
    QueryEngine b = QueryEngine::from_data(w.data, w.symtab, par);
    for (const char* q : queries) {
      const QueryResult ra = a.run(q);
      const QueryResult rb = b.run(q);
      EXPECT_EQ(ra.columns, rb.columns) << "seed " << seed << " q " << q;
      EXPECT_EQ(ra.rows, rb.rows) << "seed " << seed << " q " << q;
    }
  }
}

// --- FLXI pruning ------------------------------------------------------

struct FlxiFixture : ::testing::Test {
  void SetUp() override {
    w = make_workload(16, 8, 3);
    path = test::private_dir() + "/query_engine_test.flxt";
    io::save_trace_v2(path, w.data, /*records_per_chunk=*/16);
    std::remove(flxi_path(path).c_str());
  }
  void TearDown() override {
    std::remove(path.c_str());
    std::remove(flxi_path(path).c_str());
  }

  QueryResult run_fresh(const std::string& q, bool use_index = true) {
    EngineOptions opts;
    opts.threads = 1;
    opts.use_index = use_index;
    opts.write_index = use_index;
    QueryEngine eng = QueryEngine::open(path, w.symtab, opts);
    return eng.run(q);
  }

  Workload w;
  std::string path;
};

TEST_F(FlxiFixture, PrunedScanReadsFewerChunksSameResult) {
  const std::string q = "filter item == 3 | group func: count, sum(ts)";
  // First open: no sidecar yet — full scan, index written.
  const QueryResult first = run_fresh(q);
  EXPECT_FALSE(first.stats.index_used);
  EXPECT_TRUE(first.stats.index_written);
  ASSERT_TRUE(load_flxi(flxi_path(path)).has_value());

  // Reopen: the sidecar prunes, the result is identical.
  const QueryResult pruned = run_fresh(q);
  EXPECT_TRUE(pruned.stats.index_used);
  EXPECT_GT(pruned.stats.chunks_pruned, 0u);
  EXPECT_LT(pruned.stats.chunks_read, pruned.stats.chunks_total);
  EXPECT_LT(pruned.stats.rows_scanned, first.stats.rows_scanned);
  EXPECT_EQ(pruned.rows, first.rows);
  EXPECT_EQ(pruned.columns, first.columns);

  // And identical to an index-free engine, for several predicates.
  for (const char* pq :
       {"filter item <= 2 | select ts", "filter ts < 120000 | select ts",
        "filter func == \"app::parse\" | group item: count"}) {
    EXPECT_EQ(run_fresh(pq).rows, run_fresh(pq, false).rows) << pq;
  }
}

TEST_F(FlxiFixture, DurQueriesSkipTsPruningButStayCorrect) {
  (void)run_fresh(""); // write the sidecar
  const std::string q =
      "filter ts < 60000 && item >= 0 | group item: count, sum(dur)";
  const QueryResult pruned = run_fresh(q);
  const QueryResult full = run_fresh(q, false);
  // dur derives from first-to-last spans; a ts-sliced chunk set would
  // truncate them, so correctness beats pruning here.
  EXPECT_EQ(pruned.rows, full.rows);
}

TEST_F(FlxiFixture, HostileSidecarsFallBackToFullScan) {
  (void)run_fresh(""); // write a valid sidecar
  const std::string sidecar = flxi_path(path);
  std::string clean;
  {
    std::ifstream is(sidecar, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    clean = std::move(buf).str();
  }
  const std::string q = "filter item == 5 | select ts";
  const QueryResult want = run_fresh(q, false);

  const auto write_sidecar = [&](const std::string& bytes) {
    std::ofstream os(sidecar, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Truncated at several points, bit-flipped in the body, pure garbage,
  // and a stale-but-wellformed sidecar for a different trace.
  std::string flipped = clean;
  flipped[clean.size() / 2] = static_cast<char>(flipped[clean.size() / 2] ^ 1);
  FlxiIndex stale;
  stale.trace_size = 1; // wrong on purpose
  stale.trace_crc = 2;
  stale.symtab_crc = 3;
  const std::string variants[] = {
      clean.substr(0, 10),
      clean.substr(0, clean.size() - 3),
      flipped,
      std::string(200, '\x5a'),
      encode_flxi(stale),
  };
  for (const std::string& v : variants) {
    write_sidecar(v);
    const QueryResult got = run_fresh(q);
    EXPECT_FALSE(got.stats.index_used);
    EXPECT_EQ(got.rows, want.rows);
  }
}

TEST_F(FlxiFixture, StaleSidecarAfterTraceRewriteIsRejected) {
  (void)run_fresh(""); // sidecar for the original trace
  // Rewrite the trace with different content; the old sidecar now lies.
  const Workload w2 = make_workload(16, 8, 12345);
  io::save_trace_v2(path, w2.data, 16);
  EngineOptions opts;
  opts.threads = 1;
  QueryEngine eng = QueryEngine::open(path, w2.symtab, opts);
  const QueryResult got = eng.run("filter item == 3 | select ts");
  EXPECT_FALSE(got.stats.index_used);
  // Reference: a no-index engine over the same file.
  EXPECT_EQ(got.rows,
            run_fresh("filter item == 3 | select ts", false).rows);
}

/// Flip one payload byte of the `k`-th sample chunk of the file at
/// `path`, leaving every frame intact.
void flip_sample_payload(const std::string& path, std::size_t k) {
  std::string image;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    image = std::move(buf).str();
  }
  std::vector<io::V2ChunkRef> samples;
  for (const io::V2ChunkRef& r : io::index_trace_v2(image)) {
    if (io::is_sample_chunk_type(r.type)) samples.push_back(r);
  }
  ASSERT_LT(k, samples.size());
  const io::V2ChunkRef& r = samples[k];
  image[r.offset + 21 + r.payload_bytes / 2] ^= 0x10;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
}

// The sidecar pins the frames (io::image_crc), not every payload byte:
// damage in a chunk the query prunes is never read, so the answer is
// the intact trace's and nothing was salvaged. Every chunk a query does
// read still has its payload CRC checked.
TEST_F(FlxiFixture, DamageInAPrunedChunkKeepsTheSidecarAndTheAnswer) {
  const std::string q = "filter item == 3 | group func: count, sum(dur)";
  (void)run_fresh(""); // sidecar over the intact trace
  const QueryResult intact = run_fresh(q);
  ASSERT_TRUE(intact.stats.index_used);

  flip_sample_payload(path, 7); // items 14 and 15: pruned by item == 3
  const QueryResult got = run_fresh(q);
  EXPECT_TRUE(got.stats.index_used);
  EXPECT_FALSE(got.stats.salvaged);
  EXPECT_GT(got.stats.chunks_pruned, 0u);
  EXPECT_EQ(got.columns, intact.columns);
  EXPECT_EQ(got.rows, intact.rows);

  // A query that reads every chunk meets the damage and salvages.
  const QueryResult all = run_fresh("group func: count");
  EXPECT_TRUE(all.stats.salvaged);
  EXPECT_FALSE(all.stats.index_used);
}

TEST_F(FlxiFixture, DamageInAKeptChunkSalvages) {
  const std::string q = "filter item == 3 | group func: count, sum(dur)";
  (void)run_fresh(""); // sidecar over the intact trace
  flip_sample_payload(path, 1); // items 2 and 3: kept by item == 3
  const QueryResult got = run_fresh(q);
  EXPECT_TRUE(got.stats.salvaged);
  EXPECT_FALSE(got.stats.index_used);
}

TEST_F(FlxiFixture, SymtabChangeInvalidatesSidecar) {
  (void)run_fresh(""); // sidecar pinned to w.symtab
  SymbolTable other;
  other.add("totally::different", 0x1000);
  EngineOptions opts;
  opts.threads = 1;
  QueryEngine eng = QueryEngine::open(path, other, opts);
  const QueryResult got = eng.run("filter item == 3 | select ts");
  EXPECT_FALSE(got.stats.index_used);
}

TEST_F(FlxiFixture, AttributionModeMismatchInvalidatesSidecar) {
  // Both modes share the same <trace>.flxi path, but min/max item are
  // attributed ids — pruning with the other mode's sidecar would
  // silently drop matching rows. A mismatch must read as stale: full
  // scan, rewrite under the current mode.
  (void)run_fresh(""); // sidecar written under marker-window attribution
  const std::string q = "filter item == 3 | select ts";
  EngineOptions regs;
  regs.threads = 1;
  regs.use_register_ids = true;
  {
    QueryEngine eng = QueryEngine::open(path, w.symtab, regs);
    const QueryResult got = eng.run(q);
    EXPECT_FALSE(got.stats.index_used);
    EXPECT_TRUE(got.stats.index_written); // re-pinned to --regs
    EngineOptions noidx = regs;
    noidx.use_index = false;
    noidx.write_index = false;
    QueryEngine ref = QueryEngine::open(path, w.symtab, noidx);
    EXPECT_EQ(got.rows, ref.run(q).rows);
  }
  // And symmetrically: the --regs sidecar just written must not prune a
  // marker-window reopen.
  const QueryResult back = run_fresh(q);
  EXPECT_FALSE(back.stats.index_used);
  EXPECT_EQ(back.rows, run_fresh(q, false).rows);
}

TEST_F(FlxiFixture, PrunedLoadsMatchAtEveryThreadCount) {
  // The id register carries each sample's item too, so register-id mode
  // prunes on the same ids marker windows assign; app::parse runs only in
  // the first four items, so a func predicate prunes as well.
  for (std::size_t i = 0; i < w.data.samples.size(); ++i) {
    w.data.samples[i].regs.set(kItemIdReg, i / 8);
    if (i >= 32) w.data.samples[i].ip = w.symtab.ip_at(1 + i % 2, 0.5);
  }
  const char* const queries[] = {
      "filter ts < 60000 | select ts, item, func",
      "filter item >= 3 && item <= 5 | group func: count, max(ts)",
      "filter func == \"app::parse\" | group item: count, min(ts)",
  };
  for (const int mode : {0, 1, 2, 3}) {
    const bool v3 = mode >= 2;
    const bool regs = mode % 2 == 1;
    if (v3) {
      io::save_trace_v3(path, w.data, 16);
    } else {
      io::save_trace_v2(path, w.data, 16);
    }
    EngineOptions o;
    o.threads = 1;
    o.use_register_ids = regs;
    std::remove(flxi_path(path).c_str());
    (void)QueryEngine::open(path, w.symtab, o).run(""); // sidecar, this mode
    for (const char* q : queries) {
      EngineOptions full = o;
      full.use_index = false;
      full.write_index = false;
      const QueryResult want = QueryEngine::open(path, w.symtab, full).run(q);
      // Pruning may only change how many chunks are read: the answer and
      // the chunk count equal the unpruned scan's, and the chunk stats do
      // not depend on the thread count.
      std::optional<ScanStats> at_one;
      for (const unsigned threads : {1u, 2u, 4u}) {
        EngineOptions po = o;
        po.threads = threads;
        po.write_index = false;
        const QueryResult got = QueryEngine::open(path, w.symtab, po).run(q);
        const std::string where = std::string(q) + " v3=" +
                                  std::to_string(v3) + " regs=" +
                                  std::to_string(regs) + " @" +
                                  std::to_string(threads);
        EXPECT_TRUE(got.stats.index_used) << where;
        EXPECT_GT(got.stats.chunks_pruned, 0u) << where;
        EXPECT_LT(got.stats.rows_scanned, want.stats.rows_scanned) << where;
        EXPECT_EQ(got.columns, want.columns) << where;
        EXPECT_EQ(got.rows, want.rows) << where;
        EXPECT_EQ(got.stats.chunks_total, want.stats.chunks_total) << where;
        EXPECT_EQ(got.stats.chunks_read + got.stats.chunks_pruned,
                  got.stats.chunks_total)
            << where;
        if (!at_one.has_value()) at_one = got.stats;
        EXPECT_EQ(got.stats.chunks_read, at_one->chunks_read) << where;
        EXPECT_EQ(got.stats.chunks_pruned, at_one->chunks_pruned) << where;
        EXPECT_EQ(got.stats.rows_scanned, at_one->rows_scanned) << where;
      }
    }
  }
}

TEST(QueryEngineTest, SalvagedTraceStillAnswers) {
  const Workload w = make_workload(8, 8, 5);
  const std::string path = test::private_dir() + "/query_torn.flxt";
  io::save_trace_v2(path, w.data, 8);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
  }
  {
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  QueryEngine eng = QueryEngine::open(path, w.symtab);
  const QueryResult res = eng.run("group core: count");
  EXPECT_TRUE(res.stats.salvaged);
  std::size_t total = 0;
  for (const auto& row : res.rows) total += static_cast<std::size_t>(row[1].i);
  EXPECT_GT(total, 0u);
  EXPECT_LT(total, w.data.samples.size());
  std::remove(path.c_str());
  std::remove(flxi_path(path).c_str());
}

TEST(ColumnarOpenTest, OpenComposesReadAndBuild) {
  const Workload w = make_workload(4, 6);
  const std::string path = test::private_dir() + "/columnar_open.flxt";
  io::save_trace_v2(path, w.data, 16);
  const ColumnarTrace t =
      ColumnarTrace::from_reader(io::open_trace(path), w.symtab);
  const ColumnarTrace ref = ColumnarTrace::build(w.data, w.symtab);
  ASSERT_EQ(t.rows(), ref.rows());
  EXPECT_FALSE(t.salvaged());
  for (std::size_t f = 0; f < kNumFields; ++f) {
    const auto a = t.col(static_cast<Field>(f));
    const auto b = ref.col(static_cast<Field>(f));
    for (std::size_t i = 0; i < t.rows(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "col " << f << " row " << i;
    }
  }
  ASSERT_EQ(t.zones().size(),
            (t.rows() + t.zone_rows() - 1) / t.zone_rows());
  std::remove(path.c_str());
}

TEST(ColumnarOpenTest, OpenSalvagesDamagedFiles) {
  const Workload w = make_workload(8, 8, 9);
  const std::string path = test::private_dir() + "/columnar_open_torn.flxt";
  io::save_trace_v2(path, w.data, 8);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
  }
  {
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  const ColumnarTrace t =
      ColumnarTrace::from_reader(io::open_trace(path), w.symtab);
  EXPECT_TRUE(t.salvaged());
  EXPECT_GT(t.rows(), 0u);
  EXPECT_LT(t.rows(), w.data.samples.size());
  std::remove(path.c_str());
}

} // namespace
} // namespace fluxtrace::query
