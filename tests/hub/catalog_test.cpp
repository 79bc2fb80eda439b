// hub::Catalog end to end: sharded ingest with triage (clean / salvaged
// / quarantined), double-ingest idempotence, hostile-directory scans
// that report and continue, retention and compaction with their crash
// windows (simulated by a checkpoint hook that throws), the sweep that
// finishes interrupted deletes on the next open, and the read-side
// retry/breaker discipline.
#include "fluxtrace/hub/catalog.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <fstream>
#include <set>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/query/federated.hpp"
#include "fluxtrace/query/flxi.hpp"
#include "fluxtrace/query/render.hpp"

namespace fluxtrace::hub {
namespace {

/// Deterministic capture session: items [base, base+n) on two cores,
/// disjoint time ranges per session (like real per-session captures).
struct Session {
  SymbolTable symtab;
  io::TraceData data;
};

Session make_session(std::size_t base_item, std::size_t n_items,
                     std::uint64_t seed = 1) {
  Session s;
  const SymbolId f0 = s.symtab.add("app::parse", 0x400);
  const SymbolId f1 = s.symtab.add("app::lookup", 0x400);
  const SymbolId f2 = s.symtab.add("app::transform", 0x400);
  const SymbolId fns[3] = {f0, f1, f2};
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  for (std::size_t i = 0; i < n_items; ++i) {
    const std::size_t item = base_item + i;
    const std::uint32_t core = static_cast<std::uint32_t>(i % 2);
    const Tsc t0 = 1'000'000 * (item + 1);
    const Tsc t1 = t0 + 8000;
    s.data.markers.push_back({t0, item, core, MarkerKind::Enter});
    for (std::size_t k = 0; k < 6; ++k) {
      PebsSample smp;
      smp.tsc = t0 + 1 + (k * 7900) / 6;
      smp.core = core;
      smp.ip = s.symtab.ip_at(fns[rnd() % 3], 0.5);
      s.data.samples.push_back(smp);
    }
    s.data.markers.push_back({t1, item, core, MarkerKind::Leave});
  }
  return s;
}

struct CatalogFixture : ::testing::Test {
  void SetUp() override {
    static int n = 0;
    dir = test::private_dir() + "/hub_cat_" + std::to_string(n++);
    ::mkdir(dir.c_str(), 0755);
    symtab = make_session(0, 1).symtab; // shared symbol universe
  }

  std::string write_session(const char* name, std::size_t base_item,
                            std::size_t n_items, std::uint64_t seed = 1) {
    const std::string path = dir + "/" + name;
    io::save_trace_v2(path, make_session(base_item, n_items, seed).data, 8);
    return path;
  }

  CatalogOptions opts() {
    CatalogOptions o;
    o.threads = 1;
    o.now_ns = [this] { return clock_ns; };
    return o;
  }

  std::string dir;
  SymbolTable symtab;
  std::uint64_t clock_ns = 1'000;
};

std::set<std::string> state_of(const Catalog& cat, TraceState s) {
  std::set<std::string> out;
  for (const auto& [path, e] : cat.manifest().entries()) {
    if (e.state == s) out.insert(path);
  }
  return out;
}

/// The "zero unaccounted traces" invariant: every path ever handed to
/// the catalog is in exactly one state.
void expect_accounted(const Catalog& cat,
                      const std::set<std::string>& all_paths) {
  std::set<std::string> seen;
  for (const auto& [path, e] : cat.manifest().entries()) {
    EXPECT_TRUE(seen.insert(path).second) << path;
  }
  for (const std::string& p : all_paths) {
    EXPECT_TRUE(cat.manifest().entries().count(p) ||
                cat.manifest().entries().count(
                    p.substr(0, p.size())) != 0)
        << "unaccounted: " << p;
  }
}

TEST_F(CatalogFixture, IngestRegistersCleanTracesWithSidecars) {
  write_session("a.flxt", 0, 4);
  write_session("b.flxt", 100, 4);
  Catalog cat = Catalog::open(dir, symtab, opts());
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.scanned, 2u);
  EXPECT_EQ(rep.registered, 2u);
  EXPECT_EQ(rep.failed, 0u);
  for (const auto& [path, e] : cat.manifest().entries()) {
    EXPECT_EQ(e.state, TraceState::Ok);
    EXPECT_TRUE(e.sidecar);
    EXPECT_EQ(e.rows, 24u);
    EXPECT_GT(e.size_bytes, 0u);
    struct stat st{};
    EXPECT_EQ(::stat(query::flxi_path(path).c_str(), &st), 0) << path;
  }
}

TEST_F(CatalogFixture, SingleThreadIngestRunsNoPoolTasks) {
  // threads = 1 covers the sidecar rebuild too: a multi-chunk member
  // must decode on the calling thread, not on a hardware-sized pool.
  const std::string path = write_session("a.flxt", 0, 16); // 96 samples
  ASSERT_GT(io::index_trace_v2(io::open_trace(path).bytes()).size(), 4u);
  Catalog cat = Catalog::open(dir, symtab, opts());
  const obs::Counter& tasks = obs::metrics().counter("rt.pool.tasks_executed");
  const std::uint64_t before = tasks.value();
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.registered, 1u);
  EXPECT_TRUE(cat.manifest().entries().at(path).sidecar);
  EXPECT_EQ(tasks.value(), before);
}

TEST_F(CatalogFixture, DoubleIngestIsIdempotent) {
  write_session("a.flxt", 0, 4);
  Catalog cat = Catalog::open(dir, symtab, opts());
  EXPECT_EQ(cat.ingest().registered, 1u);
  const IngestReport second = cat.ingest();
  EXPECT_EQ(second.registered, 0u);
  EXPECT_EQ(second.unchanged, 1u);
  // And across a journal replay too.
  Catalog reopened = Catalog::open(dir, symtab, opts());
  const IngestReport third = reopened.ingest();
  EXPECT_EQ(third.registered, 0u);
  EXPECT_EQ(third.unchanged, 1u);
}

TEST_F(CatalogFixture, ChangedFileIsReingested) {
  const std::string path = write_session("a.flxt", 0, 4);
  Catalog cat = Catalog::open(dir, symtab, opts());
  cat.ingest();
  io::save_trace_v2(path, make_session(0, 8).data, 8);
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.registered, 1u);
  EXPECT_EQ(rep.unchanged, 0u);
  EXPECT_EQ(cat.manifest().entries().at(path).rows, 48u);
}

TEST_F(CatalogFixture, DamagedTraceSalvagesWithLossAccounting) {
  const std::string path = write_session("dmg.flxt", 0, 6);
  // Flip one byte inside a chunk payload: that chunk is lost, the rest
  // salvage.
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
  }
  bytes[bytes.size() / 2] ^= '\x01';
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Catalog cat = Catalog::open(dir, symtab, opts());
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.salvaged, 1u);
  const TraceEntry& e = cat.manifest().entries().at(path);
  EXPECT_EQ(e.state, TraceState::Salvaged);
  EXPECT_GE(e.chunks_corrupt, 1u);
  EXPECT_GT(e.chunks_ok, 0u);
  EXPECT_NE(e.detail.find("corrupt"), std::string::npos);
}

TEST_F(CatalogFixture, GarbageFileIsQuarantinedAndNeverQueried) {
  const std::string path = dir + "/hostile.flxt";
  {
    std::ofstream os(path, std::ios::binary);
    for (int i = 0; i < 4096; ++i) os.put(static_cast<char>(i * 37));
  }
  Catalog cat = Catalog::open(dir, symtab, opts());
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.quarantined, 1u);
  const TraceEntry& e = cat.manifest().entries().at(path);
  EXPECT_EQ(e.state, TraceState::Quarantined);
  EXPECT_FALSE(e.sidecar);
  EXPECT_NE(e.detail.find("unrecoverable"), std::string::npos);
  // The query layer counts it without opening it.
  const auto members = cat.query_members();
  ASSERT_EQ(members.size(), 1u);
  EXPECT_TRUE(members[0].quarantined);
}

TEST_F(CatalogFixture, HostileDirectoryReportsAndContinues) {
  write_session("good.flxt", 0, 4);
  ::mkdir((dir + "/sub").c_str(), 0755);
  write_session("sub/nested.flxt", 100, 4);
  // A broken symlink is unreadable for everyone — including root, which
  // chmod-000 files are not.
  ASSERT_EQ(::symlink("/nonexistent/void", (dir + "/broken.flxt").c_str()),
            0);
  Catalog cat = Catalog::open(dir, symtab, opts());
  const ScanResult sr = cat.scan();
  EXPECT_EQ(sr.traces.size(), 2u);
  ASSERT_EQ(sr.errors.size(), 1u);
  EXPECT_NE(sr.errors[0].find(dir + "/broken.flxt"), std::string::npos);
  EXPECT_NE(sr.errors[0].find("No such file"), std::string::npos);
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.registered, 2u);
  EXPECT_EQ(rep.failed, 1u); // the broken symlink, reported not fatal
}

TEST_F(CatalogFixture, RetainExpiresByAgeAndDeletesFiles) {
  const std::string old_path = write_session("old.flxt", 0, 4);
  Catalog cat = Catalog::open(dir, symtab, opts());
  cat.ingest();
  clock_ns += 10'000'000;
  const std::string new_path = write_session("new.flxt", 100, 4);
  cat.ingest();
  clock_ns += 5'000'000; // old is 15ms old, new is 5ms old
  const RetainReport rep = cat.retain(/*max_age_ns=*/8'000'000, 0);
  EXPECT_EQ(rep.expired, 1u);
  EXPECT_GT(rep.bytes_reclaimed, 0u);
  EXPECT_EQ(cat.manifest().entries().at(old_path).state,
            TraceState::Expired);
  EXPECT_EQ(cat.manifest().entries().at(new_path).state, TraceState::Ok);
  struct stat st{};
  EXPECT_NE(::stat(old_path.c_str(), &st), 0);
  EXPECT_EQ(::stat(new_path.c_str(), &st), 0);
}

TEST_F(CatalogFixture, RetainEnforcesSizeBudgetOldestFirst) {
  const std::string a = write_session("a.flxt", 0, 4);
  Catalog cat = Catalog::open(dir, symtab, opts());
  cat.ingest();
  clock_ns += 1000;
  const std::string b = write_session("b.flxt", 100, 4);
  cat.ingest();
  const std::uint64_t one =
      cat.manifest().entries().at(b).size_bytes;
  const RetainReport rep = cat.retain(0, /*max_total_bytes=*/one + 10);
  EXPECT_EQ(rep.expired, 1u);
  EXPECT_EQ(cat.manifest().entries().at(a).state, TraceState::Expired);
  EXPECT_EQ(cat.manifest().entries().at(b).state, TraceState::Ok);
}

struct Crash {};

TEST_F(CatalogFixture, CrashBetweenExpiryCommitAndDeleteIsSweptOnOpen) {
  const std::string path = write_session("a.flxt", 0, 4);
  {
    CatalogOptions o = opts();
    o.checkpoint = [](const char* cp) {
      if (std::string_view(cp) == "retain.committed") throw Crash{};
    };
    Catalog cat = Catalog::open(dir, symtab, o);
    cat.ingest();
    clock_ns += 100;
    EXPECT_THROW(cat.retain(/*max_age_ns=*/1, 0), Crash);
    // Journal says expired; the file is still on disk.
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
  }
  Catalog reopened = Catalog::open(dir, symtab, opts());
  EXPECT_EQ(reopened.open_report().swept_files, 1u);
  struct stat st{};
  EXPECT_NE(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(reopened.manifest().entries().at(path).state,
            TraceState::Expired);
}

TEST_F(CatalogFixture, CompactMergesSmallTracesAndPreservesRows) {
  const std::string a = write_session("a.flxt", 0, 4);
  const std::string b = write_session("b.flxt", 100, 4);
  Catalog cat = Catalog::open(dir, symtab, opts());
  cat.ingest();
  const CompactReport rep = cat.compact(/*threshold_bytes=*/1u << 20);
  EXPECT_EQ(rep.segments_written, 1u);
  EXPECT_EQ(rep.members_merged, 2u);
  const TraceEntry& seg = cat.manifest().entries().at(rep.segment_path);
  EXPECT_EQ(seg.state, TraceState::Ok);
  EXPECT_EQ(seg.rows, 48u);
  EXPECT_TRUE(seg.sidecar);
  EXPECT_EQ(cat.manifest().entries().at(a).state, TraceState::Expired);
  EXPECT_EQ(cat.manifest().entries().at(b).state, TraceState::Expired);
  struct stat st{};
  EXPECT_NE(::stat(a.c_str(), &st), 0); // members deleted
  EXPECT_EQ(::stat(rep.segment_path.c_str(), &st), 0);
  // The merged segment strict-reads to the concatenation.
  const io::TraceData d = io::open_trace(rep.segment_path).read();
  EXPECT_EQ(d.samples.size(), 48u);
  EXPECT_EQ(d.markers.size(), 16u);
  EXPECT_TRUE(cat.verify().clean());
}

/// Every pipeline's federated answer over the catalog's live members,
/// as CSV.
std::string federated_csv(const Catalog& cat, const SymbolTable& symtab) {
  std::ostringstream os;
  for (const char* pipeline :
       {"group func: count, sum(dur)", "select ts, item | limit 9",
        "outliers k=1.0 warmup=3"}) {
    query::FederatedOptions fo;
    fo.engine.threads = 1;
    fo.fanout_threads = 1;
    query::print_csv(
        os, query::run_federated(cat.query_members(), symtab, pipeline, fo)
                .result);
  }
  return std::move(os).str();
}

TEST_F(CatalogFixture, CompactingV3MembersDoesNotInflateTheCatalog) {
  // The segment is written as v3 like its members, so merging never
  // costs more bytes than the members it replaces, and the federated
  // answers are the members' answers.
  std::uint64_t member_bytes = 0;
  for (std::size_t m = 0; m < 8; ++m) {
    const std::string path = dir + "/m" + std::to_string(m) + ".flxt";
    io::save_trace_v3(path, make_session(100 * m, 4, m + 1).data, 8);
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    member_bytes += static_cast<std::uint64_t>(st.st_size);
  }
  Catalog cat = Catalog::open(dir, symtab, opts());
  ASSERT_EQ(cat.ingest().registered, 8u);
  const std::string before = federated_csv(cat, symtab);

  const CompactReport rep = cat.compact(/*threshold_bytes=*/1u << 20);
  ASSERT_EQ(rep.members_merged, 8u);
  const io::TraceReader seg = io::open_trace(rep.segment_path);
  EXPECT_EQ(seg.format(), io::TraceFormat::FlxtV3);
  EXPECT_LE(seg.size_bytes(), member_bytes);
  EXPECT_EQ(federated_csv(cat, symtab), before);
  EXPECT_TRUE(cat.verify().clean());
}

TEST_F(CatalogFixture, RetiredV1AndFlxzMembersAreQuarantined) {
  // Nothing reads v1 or FLXZ anymore. A leftover file in either format
  // stays in the ledger as quarantined — it never silently disappears.
  const std::string v1 = dir + "/old.flxt";
  const std::string flxz = dir + "/old.flxz";
  {
    std::ofstream os(v1, std::ios::binary);
    // "FLXT", version 1, one marker, no samples, then the marker record
    // (tsc u64, item u64, core u32, kind u8), all little-endian.
    os.write("FLXT\x01\0\0\0\x01\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0", 24);
    os.write("\xe8\x03\0\0\0\0\0\0\x07\0\0\0\0\0\0\0\0\0\0\0\0", 21);
  }
  {
    std::ofstream os(flxz, std::ios::binary);
    // LEB128 "FLXZ" magic and version 1, no marker or sample groups.
    os.write("\xc6\x98\xe1\xd2\x05\x01\0\0", 8);
  }
  write_session("a.flxt", 0, 4);
  Catalog cat = Catalog::open(dir, symtab, opts());
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.scanned, 3u);
  EXPECT_EQ(rep.registered, 1u);
  EXPECT_EQ(rep.quarantined, 2u);
  for (const std::string& path : {v1, flxz}) {
    ASSERT_EQ(cat.manifest().entries().count(path), 1u) << path;
    EXPECT_EQ(cat.manifest().entries().at(path).state,
              TraceState::Quarantined)
        << path;
  }
  std::size_t quarantined_members = 0;
  for (const query::FederatedTrace& m : cat.query_members()) {
    quarantined_members += m.quarantined ? 1 : 0;
  }
  EXPECT_EQ(quarantined_members, 2u);
}

TEST_F(CatalogFixture, CompactCrashBeforeCommitRollsBackOnOpen) {
  for (const char* window : {"compact.intent", "compact.segment"}) {
    SetUp(); // fresh dir per window
    const std::string a = write_session("a.flxt", 0, 4);
    const std::string b = write_session("b.flxt", 100, 4);
    std::string seg_path;
    {
      CatalogOptions o = opts();
      const std::string_view at = window;
      o.checkpoint = [at](const char* cp) {
        if (std::string_view(cp) == at) throw Crash{};
      };
      Catalog cat = Catalog::open(dir, symtab, o);
      cat.ingest();
      EXPECT_THROW(cat.compact(1u << 20), Crash) << window;
    }
    Catalog reopened = Catalog::open(dir, symtab, opts());
    EXPECT_TRUE(reopened.open_report().rolled_back_compaction) << window;
    EXPECT_FALSE(reopened.manifest().pending_intent().has_value());
    // Members untouched and still Ok; no segment anywhere.
    EXPECT_EQ(reopened.manifest().entries().at(a).state, TraceState::Ok)
        << window;
    EXPECT_EQ(reopened.manifest().entries().at(b).state, TraceState::Ok)
        << window;
    EXPECT_EQ(state_of(reopened, TraceState::Ok).size(), 2u) << window;
    EXPECT_TRUE(reopened.verify().clean()) << window;
  }
}

TEST_F(CatalogFixture, CompactCrashAfterCommitSweepsMembersOnOpen) {
  const std::string a = write_session("a.flxt", 0, 4);
  const std::string b = write_session("b.flxt", 100, 4);
  {
    CatalogOptions o = opts();
    o.checkpoint = [](const char* cp) {
      if (std::string_view(cp) == "compact.commit") throw Crash{};
    };
    Catalog cat = Catalog::open(dir, symtab, o);
    cat.ingest();
    EXPECT_THROW(cat.compact(1u << 20), Crash);
    // Committed: members expired in the journal, files still on disk.
    struct stat st{};
    EXPECT_EQ(::stat(a.c_str(), &st), 0);
  }
  Catalog reopened = Catalog::open(dir, symtab, opts());
  EXPECT_EQ(reopened.open_report().swept_files, 2u);
  struct stat st{};
  EXPECT_NE(::stat(a.c_str(), &st), 0);
  EXPECT_NE(::stat(b.c_str(), &st), 0);
  EXPECT_EQ(state_of(reopened, TraceState::Ok).size(), 1u); // the segment
  EXPECT_EQ(state_of(reopened, TraceState::Expired).size(), 2u);
  EXPECT_TRUE(reopened.verify().clean());
}

TEST_F(CatalogFixture, TransientReadFaultsRetryThenSucceed) {
  write_session("a.flxt", 0, 4);
  CatalogOptions o = opts();
  int faults = 2; // under max_attempts (3): retries absorb them
  o.read_fault = [&faults](const std::string&) { return faults-- > 0; };
  Catalog cat = Catalog::open(dir, symtab, o);
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.registered, 1u);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(cat.stats().retries, 2u);
  EXPECT_GT(cat.stats().backoff_ns, 0u);
}

TEST_F(CatalogFixture, PersistentFaultsOpenTheBreakerThenRecover) {
  for (int i = 0; i < 6; ++i) {
    write_session(("t" + std::to_string(i) + ".flxt").c_str(),
                  static_cast<std::size_t>(i) * 100, 2);
  }
  CatalogOptions o = opts();
  o.breaker_cooldown_ns = 1'000'000;
  bool faulting = true;
  o.read_fault = [&faulting](const std::string&) { return faulting; };
  Catalog cat = Catalog::open(dir, symtab, o);
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.registered, 0u);
  EXPECT_EQ(rep.failed, 6u);
  EXPECT_GE(cat.stats().breaker_opens, 1u);
  EXPECT_GE(cat.stats().breaker_rejects, 1u); // post-open fast failures
  // Cooldown passes, the fault clears: everything ingests.
  faulting = false;
  clock_ns += 2'000'000;
  const IngestReport again = cat.ingest();
  EXPECT_EQ(again.registered, 6u);
  EXPECT_EQ(again.failed, 0u);
}

TEST_F(CatalogFixture, ManifestEnospcFailsIngestButJournalStaysSound) {
  write_session("a.flxt", 0, 4);
  write_session("b.flxt", 100, 4);
  CatalogOptions o = opts();
  // A byte budget that admits exactly the first entry record: the disk
  // "fills" mid-ingest.
  std::uint64_t written = 0;
  std::uint64_t budget = 0;
  o.manifest_fault = [&written, &budget](std::size_t bytes) {
    if (budget == 0) budget = bytes; // first record sets the budget
    written += bytes;
    return written > budget;
  };
  Catalog cat = Catalog::open(dir, symtab, o);
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.registered + rep.failed, 2u);
  EXPECT_GE(rep.failed, 1u);
  // The journal that did get written replays cleanly.
  Catalog reopened = Catalog::open(dir, symtab, opts());
  EXPECT_FALSE(reopened.open_report().replay.recreated);
  EXPECT_EQ(reopened.manifest().entries().size(), rep.registered);
  // And the failed trace ingests on the next pass.
  const IngestReport again = reopened.ingest();
  EXPECT_EQ(reopened.manifest().entries().size(), 2u);
  EXPECT_EQ(again.failed, 0u);
}

TEST_F(CatalogFixture, EveryTraceIsAccountedAfterChaos) {
  // Compose the whole lifecycle, then assert the ledger invariant.
  std::set<std::string> all;
  all.insert(write_session("a.flxt", 0, 4));
  all.insert(write_session("b.flxt", 100, 4));
  const std::string hostile = dir + "/evil.flxt";
  {
    std::ofstream os(hostile, std::ios::binary);
    os << "not a trace at all";
  }
  all.insert(hostile);
  Catalog cat = Catalog::open(dir, symtab, opts());
  cat.ingest();
  const CompactReport crep = cat.compact(1u << 20);
  if (!crep.segment_path.empty()) all.insert(crep.segment_path);
  clock_ns += 1'000'000'000;
  cat.retain(/*max_age_ns=*/1, 0);
  expect_accounted(cat, all);
  for (const std::string& p : all) {
    ASSERT_TRUE(cat.manifest().entries().count(p)) << p;
  }
  // After retention everything user-visible is expired or quarantined.
  EXPECT_EQ(state_of(cat, TraceState::Ok).size(), 0u);
  EXPECT_EQ(state_of(cat, TraceState::Quarantined).size(), 0u);
}

TEST_F(CatalogFixture, V3MemberIngestsCleanWithSidecar) {
  const std::string path = dir + "/c.flxt3";
  io::save_trace_v3(path, make_session(0, 6).data, 8);
  write_session("a.flxt", 100, 6); // mixed-format directory
  Catalog cat = Catalog::open(dir, symtab, opts());
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.scanned, 2u);
  EXPECT_EQ(rep.registered, 2u);
  EXPECT_EQ(rep.failed, 0u);
  const TraceEntry& e = cat.manifest().entries().at(path);
  EXPECT_EQ(e.state, TraceState::Ok);
  EXPECT_TRUE(e.sidecar); // FLXI builds over v3 compressed chunks too
  EXPECT_EQ(e.rows, 36u);
}

TEST_F(CatalogFixture, DamagedV3MemberSalvagesWithLossAccounting) {
  const std::string path = dir + "/dmg.flxt3";
  io::save_trace_v3(path, make_session(0, 8, 3).data, 8);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
  }
  // Flip one byte inside a compressed chunk payload: triage must lose
  // only that chunk and keep the member queryable as Salvaged.
  const auto refs = io::index_trace_v2(bytes);
  std::size_t victim = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (io::is_sample_chunk_type(refs[i].type)) victim = i;
  }
  bytes[static_cast<std::size_t>(refs[victim].offset) + 21 +
        refs[victim].payload_bytes / 2] ^= '\x01';
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Catalog cat = Catalog::open(dir, symtab, opts());
  const IngestReport rep = cat.ingest();
  EXPECT_EQ(rep.salvaged, 1u);
  const TraceEntry& e = cat.manifest().entries().at(path);
  EXPECT_EQ(e.state, TraceState::Salvaged);
  EXPECT_EQ(e.chunks_corrupt, 1u);
  EXPECT_GT(e.chunks_ok, 0u);
  // Loss accounted to exactly that chunk: every other sample survives.
  EXPECT_EQ(e.rows, 48u - refs[victim].n_records);
}

} // namespace
} // namespace fluxtrace::hub
