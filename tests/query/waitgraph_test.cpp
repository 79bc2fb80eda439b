// WaitGraph, the critical_path / blocked_by pipeline stages, and the
// golden head-of-line root-cause diagnosis (ISSUE 8). The bit-identity
// test is the load-bearing one: sequential scan, block-parallel scan and
// a StreamingQuery fed the same edges in dribs must render the same
// bytes, because CHANGES promises follow-mode answers match one-shot.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_dir.hpp"

#include "fluxtrace/acl/ruleset.hpp"
#include "fluxtrace/apps/rss_firewall_app.hpp"
#include "fluxtrace/base/wait.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/net/trafficgen.hpp"
#include "fluxtrace/query/engine.hpp"
#include "fluxtrace/query/stream.hpp"
#include "fluxtrace/query/waitgraph.hpp"

namespace fluxtrace::query {
namespace {

WaitEdge we(Tsc enter, Tsc leave, ItemId item, std::uint32_t waiter,
            std::uint32_t holder, std::uint32_t resource, WaitCause cause) {
  WaitEdge e;
  e.enter = enter;
  e.leave = leave;
  e.item = item;
  e.waiter_core = waiter;
  e.holder_core = holder;
  e.resource = resource;
  e.cause = cause;
  return e;
}

/// Deterministic fuzz edges (LCG, no libc rand state).
std::vector<WaitEdge> fuzz_edges(std::size_t n, std::uint64_t seed) {
  std::vector<WaitEdge> out;
  out.reserve(n);
  std::uint64_t s = seed * 2654435761u + 1;
  const auto next = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Tsc enter = next() % 100000;
    const ItemId item = next() % 5 == 0 ? kNoItem : next() % 32;
    out.push_back(we(enter, enter + 1 + next() % 500, item, next() % 8,
                     next() % 8, next() % 16,
                     static_cast<WaitCause>(next() % kNumWaitCauses)));
  }
  return out;
}

TEST(WaitGraph, CriticalPathUnionsOverlappingIntervals) {
  WaitGraph g;
  // Two overlapping episodes for item 5: raw durations 100 + 110, but
  // the item was only actually blocked over [100, 260) = 160 tsc.
  g.observe(we(100, 200, 5, 1, 2, 1, WaitCause::RingFull));
  g.observe(we(150, 260, 5, 1, 4, 3, WaitCause::RingFull));
  ASSERT_EQ(g.edges(), 2u);

  const QueryResult r = finish_critical_path(g);
  const std::vector<std::string> want_cols = {"item",  "blocked",  "edges",
                                              "cause", "resource", "holder"};
  EXPECT_EQ(r.columns, want_cols);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i, 5);
  EXPECT_EQ(r.rows[0][1].i, 160); // union, not 210
  EXPECT_EQ(r.rows[0][2].i, 2);
  // Dominant blocker is the larger summed duration (110 > 100).
  EXPECT_EQ(r.rows[0][3].s, "ring-full");
  EXPECT_EQ(r.rows[0][4].i, 3);
  EXPECT_EQ(r.rows[0][5].i, 4);
}

TEST(WaitGraph, DominantBlockerTieBreaksOnSmallestKey) {
  WaitGraph g;
  // Equal 50-tsc attributions; the smaller (cause, resource, holder)
  // key must win deterministically.
  g.observe(we(0, 50, 7, 1, 3, 9, WaitCause::RingFull));
  g.observe(we(100, 150, 7, 1, 8, 2, WaitCause::RingFull));
  const QueryResult r = finish_critical_path(g);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].i, 100);
  EXPECT_EQ(r.rows[0][4].i, 2);
  EXPECT_EQ(r.rows[0][5].i, 8);
}

TEST(WaitGraph, NoItemEdgesGroupUnderMinusOne) {
  WaitGraph g;
  g.observe(we(10, 40, kNoItem, 2, 1, 6, WaitCause::RingEmpty));
  g.observe(we(50, 70, kNoItem, 2, 1, 6, WaitCause::RingEmpty));
  const QueryResult r = finish_critical_path(g);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i, -1);
  EXPECT_EQ(r.rows[0][1].i, 50);
  EXPECT_EQ(r.rows[0][3].s, "ring-empty");
}

TEST(WaitGraph, CriticalPathSortsBlockedDescThenItemAsc) {
  WaitGraph g;
  g.observe(we(0, 10, 3, 0, 1, 1, WaitCause::RingFull));
  g.observe(we(0, 90, 2, 0, 1, 1, WaitCause::RingFull));
  g.observe(we(20, 30, 1, 0, 1, 1, WaitCause::RingFull)); // ties item 3
  const QueryResult r = finish_critical_path(g);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].i, 2);
  EXPECT_EQ(r.rows[1][0].i, 1);
  EXPECT_EQ(r.rows[2][0].i, 3);
}

TEST(WaitGraph, BlockedByAggregatesTotalsMaxAndKeyOrder) {
  WaitGraph g;
  g.observe(we(0, 30, 1, 1, 2, 10, WaitCause::RingFull));
  g.observe(we(50, 120, 2, 1, 2, 10, WaitCause::RingFull));
  g.observe(we(0, 5, kNoItem, 2, 1, 10, WaitCause::RingEmpty));
  const QueryResult r = finish_blocked_by(g);
  const std::vector<std::string> want_cols = {"cause",   "resource", "holder",
                                              "edges",   "blocked",  "max"};
  EXPECT_EQ(r.columns, want_cols);
  ASSERT_EQ(r.rows.size(), 2u);
  // Key order: RingFull (0) sorts before RingEmpty (1).
  EXPECT_EQ(r.rows[0][0].s, "ring-full");
  EXPECT_EQ(r.rows[0][1].i, 10);
  EXPECT_EQ(r.rows[0][2].i, 2);
  EXPECT_EQ(r.rows[0][3].i, 2);
  EXPECT_EQ(r.rows[0][4].i, 100);
  EXPECT_EQ(r.rows[0][5].i, 70);
  EXPECT_EQ(r.rows[1][0].s, "ring-empty");
  EXPECT_EQ(r.rows[1][4].i, 5);
}

TEST(WaitGraph, MergeMatchesSingleObserve) {
  const std::vector<WaitEdge> edges = fuzz_edges(300, 11);
  WaitGraph whole;
  for (const WaitEdge& e : edges) whole.observe(e);

  WaitGraph merged;
  for (std::size_t begin = 0; begin < edges.size(); begin += 77) {
    WaitGraph part;
    for (std::size_t i = begin; i < std::min(edges.size(), begin + 77); ++i) {
      part.observe(edges[i]);
    }
    merged.merge(std::move(part));
  }

  EXPECT_EQ(whole.edges(), merged.edges());
  EXPECT_EQ(finish_critical_path(whole).rows,
            finish_critical_path(merged).rows);
  EXPECT_EQ(finish_blocked_by(whole).rows, finish_blocked_by(merged).rows);
}

TEST(WaitGraph, ParserAcceptsWaitStagesWithFilterTopLimit) {
  const Query q = parse_query(
      "filter item >= 0 && dur > 10 | critical_path | top 3 by blocked | "
      "limit 2",
      nullptr);
  EXPECT_TRUE(q.critical_path);
  EXPECT_FALSE(q.blocked_by);
  ASSERT_NE(q.filter, nullptr);
  ASSERT_TRUE(q.topk.has_value());
  EXPECT_EQ(q.topk->n, 3u);
  EXPECT_EQ(q.topk->by, "blocked");
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 2u);

  const Query b = parse_query("blocked_by", nullptr);
  EXPECT_TRUE(b.blocked_by);
  EXPECT_FALSE(b.critical_path);
}

TEST(WaitGraph, ParserRejectsWaitStageCompositions) {
  // Same rank as select/group/outliers: any pairing is out of order.
  EXPECT_THROW((void)parse_query("critical_path | select item", nullptr),
               ParseError);
  EXPECT_THROW((void)parse_query("select item | critical_path", nullptr),
               ParseError);
  EXPECT_THROW((void)parse_query("critical_path | blocked_by", nullptr),
               ParseError);
  EXPECT_THROW((void)parse_query("group core : count | blocked_by", nullptr),
               ParseError);
  EXPECT_THROW((void)parse_query("outliers | critical_path", nullptr),
               ParseError);
}

TEST(WaitGraph, ParserRejectsSampleOnlyFieldsInWaitFilters) {
  SymbolTable symtab;
  (void)symtab.add("fn", 0x1000);
  // Wait edges carry item/core/ts/dur; func and ip never bind.
  EXPECT_THROW(
      (void)parse_query("filter func == \"fn\" | critical_path", &symtab),
      ParseError);
  EXPECT_THROW((void)parse_query("filter ip > 4096 | blocked_by", &symtab),
               ParseError);
  // The same fields are fine outside a wait stage.
  EXPECT_NO_THROW((void)parse_query("filter func == \"fn\"", &symtab));
}

TEST(WaitGraph, EngineCriticalPathMatchesHandComputation) {
  io::TraceData data;
  data.wait_edges = {
      we(100, 200, 5, 1, 2, 1, WaitCause::RingFull),
      we(150, 260, 5, 1, 4, 3, WaitCause::RingFull),
      we(300, 320, kNoItem, 2, 1, 6, WaitCause::RingEmpty),
  };
  EngineOptions opts;
  opts.threads = 1;
  QueryEngine eng = QueryEngine::from_data(data, SymbolTable{}, opts);

  QueryResult r = eng.run("filter item >= 0 | critical_path");
  EXPECT_TRUE(r.stats.wait_stage);
  EXPECT_EQ(r.stats.wait_edges, 3u);
  EXPECT_EQ(r.stats.rows_matched, 2u);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].i, 5);
  EXPECT_EQ(r.rows[0][1].i, 160);

  // Unfiltered: the kNoItem row appears as item -1.
  r = eng.run("critical_path");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].i, 5);
  EXPECT_EQ(r.rows[1][0].i, -1);

  // dur binds to the blocked duration: only the 110-tsc edge survives.
  r = eng.run("filter dur >= 105 | blocked_by");
  EXPECT_EQ(r.stats.rows_matched, 1u);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].i, 3);
  EXPECT_EQ(r.rows[0][2].i, 4);

  // top on an unknown output column throws like the sample path.
  EXPECT_THROW((void)eng.run("critical_path | top 2 by dur"), ParseError);
}

// A trace whose 8-byte file header was destroyed still yields its wait
// edges through salvage, exactly as its samples do, and says so.
TEST(WaitGraph, HeaderDamagedTraceSalvagesItsEdges) {
  io::TraceData data;
  data.wait_edges = fuzz_edges(300, 5);
  std::ostringstream os;
  io::write_trace_v3(os, data);
  std::string bytes = std::move(os).str();
  bytes[0] ^= '\xff';
  const std::string path = test::private_dir() + "/wait_header.flxt";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EngineOptions opts;
  opts.threads = 1;
  opts.write_index = false;
  QueryEngine clean = QueryEngine::from_data(data, SymbolTable{}, opts);
  QueryEngine damaged = QueryEngine::open(path, SymbolTable{}, opts);
  for (const char* q : {"critical_path", "blocked_by"}) {
    const QueryResult want = clean.run(q);
    const QueryResult got = damaged.run(q);
    EXPECT_EQ(got.rows, want.rows) << q;
    EXPECT_EQ(got.stats.wait_edges, data.wait_edges.size()) << q;
    EXPECT_TRUE(got.stats.salvaged) << q;
    EXPECT_FALSE(want.stats.salvaged) << q;
  }
  std::remove(path.c_str());
}

TEST(WaitGraph, BitIdenticalSequentialParallelAndStreaming) {
  io::TraceData data;
  data.wait_edges = fuzz_edges(4000, 23);

  const std::vector<std::string> queries = {
      "filter item >= 0 | critical_path",
      "critical_path | top 5 by blocked",
      "filter dur > 100 && core < 6 | blocked_by",
      "blocked_by | top 4 by blocked | limit 3",
  };
  for (const std::string& text : queries) {
    EngineOptions seq;
    seq.threads = 1;
    seq.block_rows = 64; // many blocks even sequentially
    EngineOptions par;
    par.threads = 4;
    par.block_rows = 64;
    QueryEngine e1 = QueryEngine::from_data(data, SymbolTable{}, seq);
    QueryEngine e4 = QueryEngine::from_data(data, SymbolTable{}, par);
    const QueryResult r1 = e1.run(text);
    const QueryResult r4 = e4.run(text);
    EXPECT_EQ(r1.columns, r4.columns) << text;
    EXPECT_EQ(r1.rows, r4.rows) << text;
    EXPECT_EQ(r4.stats.threads, 4u) << text;

    // Follow mode: the same edges dribbled in across seven batches must
    // snapshot to the same bytes as the one-shot scans.
    StreamingQuery sq(parse_query(text, nullptr), SymbolTable{});
    const std::size_t batch = data.wait_edges.size() / 7 + 1;
    for (std::size_t b = 0; b < data.wait_edges.size(); b += batch) {
      io::TraceData part;
      part.wait_edges.assign(
          data.wait_edges.begin() + static_cast<std::ptrdiff_t>(b),
          data.wait_edges.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(data.wait_edges.size(), b + batch)));
      // Wait-stage pipelines never open marker windows.
      EXPECT_TRUE(sq.ingest(part).empty()) << text;
    }
    const QueryResult rs = sq.snapshot();
    EXPECT_EQ(r1.columns, rs.columns) << text;
    EXPECT_EQ(r1.rows, rs.rows) << text;
    EXPECT_EQ(sq.stats().wait_edges, data.wait_edges.size()) << text;
    EXPECT_EQ(sq.stats().windows_closed, 0u) << text;
  }
}

// Golden root-cause test: the ext_rss_hol shape — round-robin dispatch
// puts every heavy type-A packet on worker 0, and with shallow worker
// rings the RX dispatcher visibly stalls against worker 0's input ring
// while an A classification holds it. From the trace alone,
// `critical_path` must name that exact blocker: ring-full on resource 10
// (worker 0's input ring) held by core 2 (worker 0).
TEST(WaitGraph, GoldenHeadOfLineRootCauseNamedFromTraceAlone) {
  SymbolTable symtab;
  const acl::RuleSet rules = acl::make_paper_ruleset();
  apps::RssFirewallConfig cfg;
  cfg.num_workers = 2;
  cfg.dispatch = apps::RssDispatch::RoundRobin;
  cfg.worker_ring_depth = 1; // capacity 1: head-of-line pressure is visible
  apps::RssFirewallApp app(symtab, rules, cfg);

  sim::MachineConfig mc;
  mc.spec.num_cores = 4 + cfg.num_workers;
  sim::Machine m(symtab, mc);

  const acl::PaperPackets pk;
  net::TrafficGenConfig tgc;
  tgc.total_packets = 400;
  // Offered load above worker 0's A+C service rate: the dispatcher must
  // stall against the shallow ring, not just queue politely. 400 packets
  // stay well under the 4096-deep NIC ring, so the wire never drops.
  tgc.inter_packet_gap_ns = 2000;
  net::TrafficGen tg(tgc, app.rx_nic(), app.tx_nic(),
                     {pk.type_a, pk.type_c, pk.type_c, pk.type_c});
  app.expect_packets(tgc.total_packets);
  m.attach(0, tg);
  app.attach(m, 1, 2, 2 + cfg.num_workers);
  const auto r = m.run();
  ASSERT_TRUE(r.all_done);
  m.flush_samples();

  io::TraceData data;
  data.markers = m.marker_log().markers();
  data.samples = m.pebs_driver().samples();
  data.wait_edges = m.wait_log().edges();
  ASSERT_FALSE(data.wait_edges.empty());

  // Ground truth from the capture layer: every ring-full edge on worker
  // 0's input ring names the dispatcher as waiter and worker 0 as holder.
  std::size_t ring10_full = 0;
  for (const WaitEdge& e : data.wait_edges) {
    if (e.cause != WaitCause::RingFull || e.resource != 10) continue;
    ++ring10_full;
    EXPECT_EQ(e.waiter_core, 1u);
    EXPECT_EQ(e.holder_core, 2u);
  }
  ASSERT_GT(ring10_full, 0u);

  // The diagnosis, from the serialized trace alone. Item-bound edges
  // only (ring-empty idle polling carries kNoItem and is filtered out).
  EngineOptions opts;
  opts.threads = 1;
  QueryEngine eng = QueryEngine::from_data(data, symtab, opts);
  const QueryResult cp = eng.run("filter item >= 0 | critical_path");
  ASSERT_FALSE(cp.rows.empty());
  EXPECT_EQ(cp.rows[0][3].s, "ring-full");
  EXPECT_EQ(cp.rows[0][4].i, 10); // worker 0's input ring
  EXPECT_EQ(cp.rows[0][5].i, 2);  // held by worker 0's core

  // blocked_by agrees: among item-bound edges the dominant blocker by
  // total blocked time is the same ring and holder.
  const QueryResult bb =
      eng.run("filter item >= 0 | blocked_by | top 1 by blocked");
  ASSERT_EQ(bb.rows.size(), 1u);
  EXPECT_EQ(bb.rows[0][0].s, "ring-full");
  EXPECT_EQ(bb.rows[0][1].i, 10);
  EXPECT_EQ(bb.rows[0][2].i, 2);
}

} // namespace
} // namespace fluxtrace::query
