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
  }
  return f;
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
    std::ifstream is(f.paths[1], std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string bytes = std::move(buf).str();
    bytes[bytes.size() / 2] ^= '\x01';
    std::ofstream os(f.paths[1], std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const FederatedResult fr = run_federated(
      members_of(f), f.symtab, "group func: count", FederatedOptions{});
  EXPECT_EQ(fr.ledger.count(TraceDisposition::Ok), 2u);
  EXPECT_EQ(fr.ledger.count(TraceDisposition::Salvaged), 1u);
  EXPECT_EQ(fr.ledger.traces[1].state, TraceDisposition::Salvaged);
  EXPECT_EQ(fr.ledger.summary(),
            "traces: 2 ok, 1 salvaged, 0 quarantined, 0 skipped");
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
