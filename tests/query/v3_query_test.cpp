// Query identity over FLXT v3: every pipeline shape (rows, group,
// outliers, top/limit, critical_path/blocked_by) over a v3 compressed
// trace must be bit-identical to the same query over the same records
// in v2 — pruned or not, with or without a FLXI sidecar, federated or
// single. Plus the v3-only stat: ts-selective scans prune compressed
// chunks via the in-payload zone hint without ever inflating them.
#include "fluxtrace/query/engine.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <sstream>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/federated.hpp"
#include "fluxtrace/query/flxi.hpp"
#include "fluxtrace/query/render.hpp"

namespace fluxtrace::query {
namespace {

struct Workload {
  SymbolTable symtab;
  io::TraceData data;
};

Workload make_workload(std::size_t n_items, std::uint64_t seed = 1) {
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
    const std::size_t n_samples = 4 + rnd() % 5;
    for (std::size_t s = 0; s < n_samples; ++s) {
      PebsSample smp;
      smp.tsc = t0 + 1 + (s * 7900) / n_samples;
      smp.core = core;
      smp.ip = w.symtab.ip_at(fns[rnd() % 3], 0.5);
      w.data.samples.push_back(smp);
    }
    w.data.markers.push_back({t1, i, core, MarkerKind::Leave});
    if (i % 3 == 0) {
      WaitEdge e;
      e.enter = t0 + 100;
      e.leave = t0 + 300 + rnd() % 500;
      e.item = i;
      e.waiter_core = core;
      e.holder_core = 1 - core;
      e.resource = static_cast<std::uint32_t>(i % 4);
      e.cause = static_cast<WaitCause>(rnd() % kNumWaitCauses);
      w.data.wait_edges.push_back(e);
    }
  }
  return w;
}

std::string fresh_dir(const char* tag) {
  static int n = 0;
  const std::string dir =
      test::private_dir() + "/v3q_" + tag + "_" + std::to_string(n++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string csv_of(const QueryResult& r) {
  std::ostringstream os;
  print_csv(os, r);
  return std::move(os).str();
}

const char* const kPipelines[] = {
    "select ts, item, core | limit 20",
    "filter item % 2 == 0 && core == 1 | select ts, func",
    "group func: count, sum(dur), p95(dur)",
    "filter ts >= 200000 && ts < 400000 | group item: count, max(ts)",
    "group item: count | top 5 by count",
    "outliers k=1.0 warmup=3",
    "critical_path",
    "blocked_by | top 3 by blocked",
};

TEST(QueryV3, EveryPipelineBitIdenticalToV2) {
  const std::string dir = fresh_dir("identity");
  const Workload w = make_workload(60, 42);
  const std::string p2 = dir + "/t.flxt2";
  const std::string p3 = dir + "/t.flxt3";
  io::save_trace_v2(p2, w.data, 64);
  io::save_trace_v3(p3, w.data, 64);

  for (const unsigned threads : {1u, 4u}) {
    EngineOptions opts;
    opts.threads = threads;
    opts.write_index = false;
    QueryEngine e2 = QueryEngine::open(p2, w.symtab, opts);
    QueryEngine e3 = QueryEngine::open(p3, w.symtab, opts);
    for (const char* pipeline : kPipelines) {
      EXPECT_EQ(csv_of(e3.run(pipeline)), csv_of(e2.run(pipeline)))
          << pipeline << " @" << threads << " threads";
      // run() is exactly finish_partials over its own partial, for
      // every stage, wait stages included.
      const Query q = parse_query(pipeline, &w.symtab);
      const QueryResult whole = e3.run(q);
      std::vector<ExecPartial> parts;
      parts.push_back(e3.run_partial(q));
      const QueryResult split =
          QueryEngine::finish_partials(q, w.symtab, std::move(parts));
      EXPECT_EQ(split.columns, whole.columns) << pipeline << " @" << threads;
      EXPECT_EQ(split.rows, whole.rows) << pipeline << " @" << threads;
      EXPECT_TRUE(split.stats == whole.stats) << pipeline << " @" << threads;
    }
  }
  std::remove(p2.c_str());
  std::remove(p3.c_str());
}

TEST(QueryV3, ZoneHintPrunesCompressedChunksWithoutSidecar) {
  const std::string dir = fresh_dir("hintprune");
  const Workload w = make_workload(200, 7);
  const std::string p3 = dir + "/t.flxt3";
  io::save_trace_v3(p3, w.data, 64);

  EngineOptions opts;
  opts.threads = 1;
  opts.write_index = false; // no sidecar: only the in-payload hints
  QueryEngine eng = QueryEngine::open(p3, w.symtab, opts);
  const QueryResult res =
      eng.run("filter ts >= 100000 && ts < 200000 | select ts, item");
  EXPECT_GT(res.stats.chunks_pruned_compressed, 0u);
  EXPECT_EQ(res.stats.chunks_pruned, res.stats.chunks_pruned_compressed);
  EXPECT_FALSE(res.stats.index_used); // hint pruning needs no sidecar

  // Identity against the unpruned full scan.
  EngineOptions full;
  full.threads = 1;
  full.use_index = false;
  full.write_index = false;
  QueryEngine ref = QueryEngine::open(p3, w.symtab, full);
  const QueryResult want =
      ref.run("filter ts >= 100000 && ts < 200000 | select ts, item");
  EXPECT_EQ(csv_of(res), csv_of(want));
  EXPECT_EQ(want.stats.chunks_pruned_compressed, 0u);
  std::remove(p3.c_str());
}

TEST(QueryV3, DurQueriesNeverHintPrune) {
  // Durations attribute across chunk boundaries, so ts hints must not
  // prune a dur-referencing query (same soundness rule as FLXI).
  const std::string dir = fresh_dir("durprune");
  const Workload w = make_workload(100, 9);
  const std::string p3 = dir + "/t.flxt3";
  io::save_trace_v3(p3, w.data, 64);
  EngineOptions opts;
  opts.threads = 1;
  opts.write_index = false;
  QueryEngine eng = QueryEngine::open(p3, w.symtab, opts);
  const QueryResult res =
      eng.run("filter ts >= 100000 && dur > 0 | group item: count");
  EXPECT_EQ(res.stats.chunks_pruned_compressed, 0u);
  std::remove(p3.c_str());
}

TEST(QueryV3, HintPrunedLoadsMatchAtEveryThreadCount) {
  // No sidecar: only the in-payload ts hints prune, on v3 and on a v3
  // file whose sample chunks are raw v2 (hints need compressed chunks).
  const std::string dir = fresh_dir("hintthreads");
  Workload w = make_workload(200, 17);
  for (std::size_t i = 0, item = 0; i < w.data.samples.size(); ++i) {
    // The id register carries the item whose window holds the sample.
    while (item + 1 < 200 && w.data.samples[i].tsc > 10000 * (item + 2)) {
      ++item;
    }
    w.data.samples[i].regs.set(kItemIdReg, item);
  }
  const std::string p3 = dir + "/t.flxt3";
  io::save_trace_v3(p3, w.data, 64);
  const char* const queries[] = {
      "filter ts >= 300000 && ts < 600000 | select ts, item, func",
      "filter ts < 900000 && item >= 40 && item < 50 | group func: count",
      "filter ts >= 1200000 && func == \"app::parse\" | group item: count",
  };
  for (const bool regs : {false, true}) {
    for (const char* q : queries) {
      EngineOptions full;
      full.threads = 1;
      full.use_register_ids = regs;
      full.use_index = false;
      full.write_index = false;
      const QueryResult want = QueryEngine::open(p3, w.symtab, full).run(q);
      std::optional<ScanStats> at_one;
      for (const unsigned threads : {1u, 2u, 4u}) {
        EngineOptions o = full;
        o.threads = threads;
        o.use_index = true;
        const QueryResult got = QueryEngine::open(p3, w.symtab, o).run(q);
        const std::string where =
            std::string(q) + " regs=" + std::to_string(regs) + " @" +
            std::to_string(threads);
        EXPECT_FALSE(got.stats.index_used) << where;
        EXPECT_GT(got.stats.chunks_pruned_compressed, 0u) << where;
        EXPECT_LT(got.stats.rows_scanned, want.stats.rows_scanned) << where;
        EXPECT_EQ(csv_of(got), csv_of(want)) << where;
        EXPECT_EQ(got.stats.chunks_total, want.stats.chunks_total) << where;
        EXPECT_EQ(got.stats.chunks_read + got.stats.chunks_pruned,
                  got.stats.chunks_total)
            << where;
        if (!at_one.has_value()) at_one = got.stats;
        EXPECT_EQ(got.stats.chunks_read, at_one->chunks_read) << where;
        EXPECT_EQ(got.stats.chunks_pruned_compressed,
                  at_one->chunks_pruned_compressed)
            << where;
        EXPECT_EQ(got.stats.rows_scanned, at_one->rows_scanned) << where;
      }
    }
  }
  std::remove(p3.c_str());
}

TEST(QueryV3, FlxiSidecarBuildsAndPrunesOverV3) {
  const std::string dir = fresh_dir("flxi");
  const Workload w = make_workload(150, 11);
  const std::string p3 = dir + "/t.flxt3";
  io::save_trace_v3(p3, w.data, 64);

  // First engine: full scan, writes the sidecar.
  EngineOptions opts;
  opts.threads = 1;
  {
    QueryEngine eng = QueryEngine::open(p3, w.symtab, opts);
    const QueryResult res = eng.run("group func: count");
    EXPECT_TRUE(res.stats.index_written);
  }
  // Second engine: loads the sidecar, prunes an item-selective query
  // (beyond what ts hints alone could do), identical result.
  {
    QueryEngine eng = QueryEngine::open(p3, w.symtab, opts);
    const QueryResult res =
        eng.run("filter item >= 10 && item < 20 | group item: count");
    EXPECT_TRUE(res.stats.index_used);
    EXPECT_GT(res.stats.chunks_pruned, 0u);
    EXPECT_EQ(res.stats.chunks_pruned_compressed, res.stats.chunks_pruned);

    EngineOptions full;
    full.threads = 1;
    full.use_index = false;
    full.write_index = false;
    QueryEngine ref = QueryEngine::open(p3, w.symtab, full);
    EXPECT_EQ(csv_of(res),
              csv_of(ref.run(
                  "filter item >= 10 && item < 20 | group item: count")));
  }
  std::remove(flxi_path(p3).c_str());
  std::remove(p3.c_str());
}

TEST(QueryV3, RefreshSidecarWorksOnV3) {
  const std::string dir = fresh_dir("refresh");
  const Workload w = make_workload(40, 13);
  const std::string p3 = dir + "/t.flxt3";
  io::save_trace_v3(p3, w.data, 64);
  EXPECT_EQ(refresh_sidecar(io::open_trace(p3), w.symtab, false),
            SidecarStatus::Rebuilt);
  EXPECT_EQ(refresh_sidecar(io::open_trace(p3), w.symtab, false),
            SidecarStatus::Fresh);
  std::remove(flxi_path(p3).c_str());
  std::remove(p3.c_str());
}

TEST(QueryV3, FederatedMixedV2AndV3Members) {
  const std::string dir = fresh_dir("mixed");
  // Two disjoint sessions — one spooled as v2, one as v3.
  Workload a;
  Workload b;
  {
    const Workload tmp = make_workload(30, 21);
    a.symtab = tmp.symtab;
    a.data = tmp.data;
  }
  {
    Workload tmp = make_workload(30, 22);
    // Shift session b: disjoint items and times, same symbols.
    for (Marker& m : tmp.data.markers) {
      m.item += 1000;
      m.tsc += 50'000'000;
    }
    for (PebsSample& s : tmp.data.samples) s.tsc += 50'000'000;
    for (WaitEdge& e : tmp.data.wait_edges) {
      e.item += 1000;
      e.enter += 50'000'000;
      e.leave += 50'000'000;
    }
    b.symtab = tmp.symtab;
    b.data = tmp.data;
  }
  const std::string pa = dir + "/a.flxt2";
  const std::string pb = dir + "/b.flxt3";
  io::save_trace_v2(pa, a.data, 32);
  io::save_trace_v3(pb, b.data, 32);

  io::TraceData concat = a.data;
  concat.markers.insert(concat.markers.end(), b.data.markers.begin(),
                        b.data.markers.end());
  concat.samples.insert(concat.samples.end(), b.data.samples.begin(),
                        b.data.samples.end());
  concat.wait_edges.insert(concat.wait_edges.end(),
                           b.data.wait_edges.begin(),
                           b.data.wait_edges.end());

  EngineOptions eo;
  eo.threads = 1;
  QueryEngine whole = QueryEngine::from_data(concat, a.symtab, eo);
  const std::vector<FederatedTrace> members = {{pa, false}, {pb, false}};
  for (const char* pipeline :
       {"group func: count, sum(dur)", "select ts, item | limit 9",
        "outliers k=1.0 warmup=3"}) {
    FederatedOptions fo;
    fo.engine.threads = 1;
    fo.fanout_threads = 1;
    const FederatedResult fr =
        run_federated(members, a.symtab, pipeline, fo);
    EXPECT_EQ(fr.ledger.count(TraceDisposition::Ok), members.size())
        << pipeline;
    EXPECT_EQ(csv_of(fr.result), csv_of(whole.run(pipeline))) << pipeline;
  }
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

} // namespace
} // namespace fluxtrace::query
