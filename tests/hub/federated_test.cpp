// Federated query correctness: for members that are distinct capture
// sessions, run_federated over the member set must be bit-identical to
// a single QueryEngine evaluation of the concatenated records — for
// every pipeline shape, at any fan-out thread count — and per-member
// failures must degrade into the ledger, never into the answer.
#include "fluxtrace/query/federated.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/render.hpp"

namespace fluxtrace::query {
namespace {

struct Fleet {
  SymbolTable symtab;
  std::vector<std::string> paths;
  io::TraceData concat; ///< member records in member (path) order
};

/// n_members distinct sessions: disjoint item ids and time ranges, like
/// real per-session captures — the precondition for merge identity.
/// Every other item also records one wait edge inside its window.
Fleet make_fleet(const std::string& dir, std::size_t n_members,
                 std::size_t items_per_member, std::uint64_t seed) {
  Fleet f;
  const SymbolId f0 = f.symtab.add("app::parse", 0x400);
  const SymbolId f1 = f.symtab.add("app::lookup", 0x400);
  const SymbolId f2 = f.symtab.add("app::transform", 0x400);
  const SymbolId fns[3] = {f0, f1, f2};
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  for (std::size_t m = 0; m < n_members; ++m) {
    io::TraceData d;
    for (std::size_t i = 0; i < items_per_member; ++i) {
      const std::size_t item = m * 1000 + i;
      const std::uint32_t core = static_cast<std::uint32_t>(i % 2);
      const Tsc t0 = 10'000'000 * (m + 1) + 20'000 * i;
      const Tsc t1 = t0 + 8000;
      d.markers.push_back({t0, item, core, MarkerKind::Enter});
      const std::size_t n_samples = 3 + rnd() % 6;
      for (std::size_t k = 0; k < n_samples; ++k) {
        PebsSample s;
        s.tsc = t0 + 1 + (k * 7900) / n_samples;
        s.core = core;
        s.ip = f.symtab.ip_at(fns[rnd() % 3], 0.5);
        d.samples.push_back(s);
      }
      d.markers.push_back({t1, item, core, MarkerKind::Leave});
      if (i % 2 == 0) {
        WaitEdge e;
        e.enter = t0 + 100;
        e.leave = t0 + 300 + rnd() % 500;
        e.item = item;
        e.waiter_core = core;
        e.holder_core = 1 - core;
        e.resource = static_cast<std::uint32_t>(i % 3);
        e.cause = static_cast<WaitCause>(rnd() % kNumWaitCauses);
        d.wait_edges.push_back(e);
      }
    }
    char name[32];
    std::snprintf(name, sizeof name, "/member_%02zu.flxt", m);
    const std::string path = dir + name;
    io::save_trace_v2(path, d, 8);
    f.paths.push_back(path);
    f.concat.markers.insert(f.concat.markers.end(), d.markers.begin(),
                            d.markers.end());
    f.concat.samples.insert(f.concat.samples.end(), d.samples.begin(),
                            d.samples.end());
    f.concat.wait_edges.insert(f.concat.wait_edges.end(),
                               d.wait_edges.begin(), d.wait_edges.end());
  }
  return f;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Flip one payload byte of the first chunk of `path` whose type `pick`
/// accepts: the header walk still succeeds, that chunk's CRC fails.
void damage_chunk(const std::string& path, bool (*pick)(std::uint8_t)) {
  std::string bytes = read_file(path);
  const std::vector<io::V2ChunkRef> refs = io::index_trace_v2(bytes);
  ASSERT_GE(refs.size(), 2u);
  // The frame header's length, read off the first two chunks.
  const std::size_t header =
      refs[1].offset - refs[0].offset - refs[0].payload_bytes;
  for (const io::V2ChunkRef& r : refs) {
    if (!pick(r.type)) continue;
    bytes[r.offset + header + r.payload_bytes / 2] ^= '\x01';
    write_file(path, bytes);
    return;
  }
  FAIL() << "no chunk of the chosen type in " << path;
}

std::string fresh_dir(const char* tag) {
  static int n = 0;
  const std::string dir =
      test::private_dir() + "/fed_" + tag + "_" + std::to_string(n++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::vector<FederatedTrace> members_of(const Fleet& f) {
  std::vector<FederatedTrace> ms;
  for (const std::string& p : f.paths) ms.push_back({p, false});
  return ms;
}

std::string csv_of(const QueryResult& r) {
  std::ostringstream os;
  print_csv(os, r);
  return std::move(os).str();
}

const char* const kPipelines[] = {
    "group func: count, sum(dur), p95(dur)",
    "filter item % 2 == 0 | group func, core: count, max(ts)",
    "filter func == \"app::transform\" | select item, ts, core",
    "group item: count | top 5 by count",
    "filter dur > 0 | group core: count, p50(dur) | limit 2",
    "select ts, item | limit 7",
    "outliers k=1.0 warmup=3",
    "critical_path",
    "filter item >= 0 | critical_path | top 3 by blocked",
    "filter dur > 0 | blocked_by | limit 2",
};

TEST(Federated, MatchesConcatenatedEvaluationForEveryPipeline) {
  const std::string dir = fresh_dir("identity");
  const Fleet f = make_fleet(dir, 3, 5, 42);
  EngineOptions eo;
  eo.threads = 1;
  QueryEngine whole = QueryEngine::from_data(f.concat, f.symtab, eo);
  for (const char* pipeline : kPipelines) {
    const QueryResult expected = whole.run(pipeline);
    FederatedOptions fo;
    fo.engine.threads = 1;
    fo.fanout_threads = 1;
    const FederatedResult fr =
        run_federated(members_of(f), f.symtab, pipeline, fo);
    EXPECT_EQ(csv_of(fr.result), csv_of(expected)) << pipeline;
    EXPECT_EQ(fr.ledger.count(TraceDisposition::Ok), 3u) << pipeline;
  }
}

TEST(Federated, FanoutThreadCountIsNeverObservable) {
  const std::string dir = fresh_dir("fanout");
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Fleet f = make_fleet(dir, 4, 4, seed * 977);
    for (const char* pipeline : kPipelines) {
      FederatedOptions seq;
      seq.fanout_threads = 1;
      seq.engine.threads = 1;
      const std::string a =
          csv_of(run_federated(members_of(f), f.symtab, pipeline, seq)
                     .result);
      FederatedOptions par;
      par.fanout_threads = 4;
      const std::string b =
          csv_of(run_federated(members_of(f), f.symtab, pipeline, par)
                     .result);
      EXPECT_EQ(a, b) << "seed=" << seed << " pipeline=" << pipeline;
    }
  }
}

TEST(Federated, DamagedMemberDegradesIntoLedger) {
  const std::string dir = fresh_dir("degrade");
  const Fleet f = make_fleet(dir, 3, 4, 7);
  // Corrupt one chunk of member 1: it contributes its salvaged subset.
  {
    std::string bytes = read_file(f.paths[1]);
    bytes[bytes.size() / 2] ^= '\x01';
    write_file(f.paths[1], bytes);
  }
  const FederatedResult fr = run_federated(
      members_of(f), f.symtab, "group func: count", FederatedOptions{});
  EXPECT_EQ(fr.ledger.count(TraceDisposition::Ok), 2u);
  EXPECT_EQ(fr.ledger.count(TraceDisposition::Salvaged), 1u);
  EXPECT_EQ(fr.ledger.traces[1].state, TraceDisposition::Salvaged);
  EXPECT_EQ(fr.ledger.summary(),
            "traces: 2 ok, 1 salvaged, 0 quarantined, 0 skipped");
  EXPECT_TRUE(fr.result.stats.salvaged);

  // outliers evaluates the members' concatenation, which is clean in
  // memory; the answer must still say it is best-effort.
  const FederatedResult fo = run_federated(
      members_of(f), f.symtab, "outliers k=1.0 warmup=3", FederatedOptions{});
  EXPECT_EQ(fo.ledger.summary(),
            "traces: 2 ok, 1 salvaged, 0 quarantined, 0 skipped");
  EXPECT_TRUE(fo.result.stats.salvaged);
}

// A member is salvaged when what the query read from it came from
// salvage: a damaged sample chunk costs group queries, not wait stages,
// and a damaged wait-edge chunk the other way round.
TEST(Federated, WaitStageLedgerCountsWhatItReads) {
  EngineOptions eo;
  eo.threads = 1;
  for (const bool wait_chunk : {false, true}) {
    const Fleet f = make_fleet(fresh_dir("ledger"), 3, 4, 11);
    const std::string clean =
        csv_of(QueryEngine::from_data(f.concat, f.symtab, eo)
                   .run("critical_path"));
    damage_chunk(f.paths[1], wait_chunk ? io::is_wait_chunk_type
                                        : io::is_sample_chunk_type);
    const FederatedResult group = run_federated(
        members_of(f), f.symtab, "group func: count", FederatedOptions{});
    const FederatedResult cp = run_federated(members_of(f), f.symtab,
                                             "critical_path",
                                             FederatedOptions{});
    const TraceDisposition sample_read =
        wait_chunk ? TraceDisposition::Ok : TraceDisposition::Salvaged;
    const TraceDisposition wait_read =
        wait_chunk ? TraceDisposition::Salvaged : TraceDisposition::Ok;
    EXPECT_EQ(group.ledger.traces[1].state, sample_read) << wait_chunk;
    EXPECT_EQ(cp.ledger.traces[1].state, wait_read) << wait_chunk;
    EXPECT_EQ(cp.result.stats.salvaged, wait_chunk);
    EXPECT_EQ(cp.ledger.count(TraceDisposition::Ok), wait_chunk ? 2u : 3u);
    if (!wait_chunk) {
      EXPECT_EQ(csv_of(cp.result), clean);
    }
  }

  // A file salvage recovers nothing from is quarantined by a wait stage
  // exactly as by a group query.
  const Fleet f = make_fleet(fresh_dir("ledger"), 2, 4, 13);
  write_file(f.paths[1], std::string(4096, '\x5a'));
  for (const char* q : {"group func: count", "critical_path"}) {
    const FederatedResult fr =
        run_federated(members_of(f), f.symtab, q, FederatedOptions{});
    EXPECT_EQ(fr.ledger.traces[0].state, TraceDisposition::Ok) << q;
    EXPECT_EQ(fr.ledger.traces[1].state, TraceDisposition::Quarantined) << q;
  }
}

TEST(Federated, MissingAndQuarantinedMembersAreCountedNotFatal) {
  const std::string dir = fresh_dir("missing");
  const Fleet f = make_fleet(dir, 3, 4, 9);
  std::vector<FederatedTrace> ms = members_of(f);
  ms.push_back({dir + "/gone.flxt", false});   // unreadable -> skipped
  ms.push_back({f.paths[0], true});            // condemned -> quarantined
  const FederatedResult fr =
      run_federated(ms, f.symtab, "group func: count", FederatedOptions{});
  EXPECT_EQ(fr.ledger.count(TraceDisposition::Ok), 3u);
  EXPECT_EQ(fr.ledger.count(TraceDisposition::Skipped), 1u);
  EXPECT_EQ(fr.ledger.count(TraceDisposition::Quarantined), 1u);
  // The skip reason carries path + errno context.
  const TraceLedgerEntry& skipped = fr.ledger.traces[3];
  EXPECT_NE(skipped.detail.find("gone.flxt"), std::string::npos);
  EXPECT_NE(skipped.detail.find("No such file"), std::string::npos);
  // Exactly one state per member.
  EXPECT_EQ(fr.ledger.count(TraceDisposition::Ok) +
                fr.ledger.count(TraceDisposition::Salvaged) +
                fr.ledger.count(TraceDisposition::Quarantined) +
                fr.ledger.count(TraceDisposition::Skipped),
            ms.size());
}

TEST(Federated, EmptyMemberSetYieldsEmptyResult) {
  SymbolTable symtab;
  symtab.add("f", 0x10);
  const FederatedResult fr = run_federated(
      {}, symtab, "group func: count", FederatedOptions{});
  EXPECT_TRUE(fr.result.rows.empty());
  EXPECT_TRUE(fr.ledger.traces.empty());
  EXPECT_EQ(fr.ledger.summary(),
            "traces: 0 ok, 0 salvaged, 0 quarantined, 0 skipped");
}

TEST(Federated, BadPipelineThrowsParseError) {
  SymbolTable symtab;
  EXPECT_THROW((void)run_federated({}, symtab, "frobnicate all",
                                   FederatedOptions{}),
               ParseError);
}

} // namespace
} // namespace fluxtrace::query
