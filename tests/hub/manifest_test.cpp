// Crash consistency of the hub manifest journal: torn tails self-repair,
// bit-flipped records stop the replay at the last good byte, a destroyed
// header restarts the journal, the composite compaction commit applies
// atomically, and snapshot() survives being interrupted (old xor new).
#include "fluxtrace/hub/manifest.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace fluxtrace::hub {
namespace {

std::string unique_path(const char* tag) {
  static int n = 0;
  return test::private_dir() + "/manifest_" + tag + "_" +
         std::to_string(n++) + ".flxh";
}

TraceEntry entry(const std::string& path, TraceState state = TraceState::Ok,
                 std::uint64_t size = 100) {
  TraceEntry e;
  e.path = path;
  e.state = state;
  e.size_bytes = size;
  e.crc = 0xdeadbeef;
  e.ingested_at_ns = 42;
  e.rows = 7;
  e.chunks_ok = 3;
  e.chunks_corrupt = 1;
  e.bytes_lost = 11;
  e.sidecar = true;
  e.detail = "detail for " + path;
  return e;
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Manifest, RoundTripsEntriesThroughReplay) {
  const std::string path = unique_path("roundtrip");
  {
    Manifest m = Manifest::open(path);
    m.upsert(entry("a.flxt"));
    m.upsert(entry("b.flxt", TraceState::Salvaged));
    m.upsert(entry("c.flxt", TraceState::Quarantined));
    m.remove("a.flxt");
  }
  Manifest m = Manifest::open(path);
  EXPECT_EQ(m.replay_stats().records_applied, 4u);
  EXPECT_FALSE(m.replay_stats().truncated);
  EXPECT_FALSE(m.replay_stats().recreated);
  ASSERT_EQ(m.entries().size(), 2u);
  EXPECT_EQ(m.entries().at("b.flxt"), entry("b.flxt", TraceState::Salvaged));
  EXPECT_EQ(m.entries().at("c.flxt"),
            entry("c.flxt", TraceState::Quarantined));
}

TEST(Manifest, UpsertReplacesPriorEntry) {
  const std::string path = unique_path("upsert");
  Manifest m = Manifest::open(path);
  m.upsert(entry("a.flxt"));
  TraceEntry e2 = entry("a.flxt", TraceState::Expired);
  e2.detail = "expired by age";
  m.upsert(e2);
  ASSERT_EQ(m.entries().size(), 1u);
  EXPECT_EQ(m.entries().at("a.flxt").state, TraceState::Expired);
  EXPECT_EQ(m.entries().at("a.flxt").detail, "expired by age");
}

TEST(Manifest, TornTailTruncatesAndSelfRepairs) {
  const std::string path = unique_path("torn");
  {
    Manifest m = Manifest::open(path);
    m.upsert(entry("a.flxt"));
    m.upsert(entry("b.flxt"));
  }
  const std::string whole = file_bytes(path);
  // The two records encode identical-length entries, so the first ends
  // exactly halfway through the body. Cut at bytes inside the second:
  // replay must keep exactly the first entry and repair the file.
  const std::size_t rec1_end = 8 + (whole.size() - 8) / 2;
  for (std::size_t keep = whole.size() - 1; keep > rec1_end; keep -= 7) {
    write_bytes(path, whole.substr(0, keep));
    Manifest m = Manifest::open(path);
    EXPECT_TRUE(m.replay_stats().truncated) << "keep=" << keep;
    EXPECT_GE(m.entries().size(), 1u) << "keep=" << keep;
    EXPECT_TRUE(m.entries().count("a.flxt")) << "keep=" << keep;
    EXPECT_FALSE(m.entries().count("b.flxt")) << "keep=" << keep;
    // The repair is durable: a second open sees a clean journal.
    Manifest again = Manifest::open(path);
    EXPECT_FALSE(again.replay_stats().truncated) << "keep=" << keep;
  }
}

TEST(Manifest, BitFlippedRecordDiscardsSuffix) {
  const std::string path = unique_path("flip");
  {
    Manifest m = Manifest::open(path);
    m.upsert(entry("a.flxt"));
    m.upsert(entry("b.flxt"));
    m.upsert(entry("c.flxt"));
  }
  const std::string whole = file_bytes(path);
  // Flip one byte somewhere in the middle record's bytes: everything
  // from that record on is discarded, the prefix survives.
  const std::size_t at = 8 + (whole.size() - 8) / 2;
  std::string mutated = whole;
  mutated[at] = static_cast<char>(
      static_cast<unsigned char>(mutated[at]) ^ 0xff);
  write_bytes(path, mutated);
  Manifest m = Manifest::open(path);
  EXPECT_TRUE(m.replay_stats().truncated);
  EXPECT_LT(m.entries().size(), 3u);
  EXPECT_GT(m.replay_stats().bytes_truncated, 0u);
}

TEST(Manifest, DestroyedHeaderRecreatesEmptyJournal) {
  const std::string path = unique_path("header");
  {
    Manifest m = Manifest::open(path);
    m.upsert(entry("a.flxt"));
  }
  std::string mutated = file_bytes(path);
  mutated[0] = 'X';
  write_bytes(path, mutated);
  Manifest m = Manifest::open(path);
  EXPECT_TRUE(m.replay_stats().recreated);
  EXPECT_TRUE(m.entries().empty());
  // And the recreated journal accepts appends + replays normally.
  m.upsert(entry("fresh.flxt"));
  Manifest again = Manifest::open(path);
  EXPECT_EQ(again.entries().size(), 1u);
}

TEST(Manifest, CompactCommitAppliesAtomically) {
  const std::string path = unique_path("commit");
  {
    Manifest m = Manifest::open(path);
    m.upsert(entry("m1.flxt"));
    m.upsert(entry("m2.flxt"));
    m.compact_intent({"seg.flxt", {"m1.flxt", "m2.flxt"}});
    EXPECT_TRUE(m.pending_intent().has_value());
    m.compact_commit(entry("seg.flxt"), {"m1.flxt", "m2.flxt"});
    EXPECT_FALSE(m.pending_intent().has_value());
  }
  Manifest m = Manifest::open(path);
  EXPECT_FALSE(m.pending_intent().has_value());
  ASSERT_EQ(m.entries().size(), 3u);
  EXPECT_EQ(m.entries().at("seg.flxt").state, TraceState::Ok);
  EXPECT_EQ(m.entries().at("m1.flxt").state, TraceState::Expired);
  EXPECT_EQ(m.entries().at("m1.flxt").detail, "compacted into seg.flxt");
  EXPECT_EQ(m.entries().at("m2.flxt").state, TraceState::Expired);
}

TEST(Manifest, DanglingIntentSurvivesReplay) {
  const std::string path = unique_path("intent");
  {
    Manifest m = Manifest::open(path);
    m.upsert(entry("m1.flxt"));
    m.compact_intent({"seg.flxt", {"m1.flxt"}});
    // "crash" before commit: just drop the object.
  }
  Manifest m = Manifest::open(path);
  ASSERT_TRUE(m.pending_intent().has_value());
  EXPECT_EQ(m.pending_intent()->segment_path, "seg.flxt");
  ASSERT_EQ(m.pending_intent()->members.size(), 1u);
  m.compact_abort("seg.flxt");
  EXPECT_FALSE(m.pending_intent().has_value());
  Manifest again = Manifest::open(path);
  EXPECT_FALSE(again.pending_intent().has_value());
  EXPECT_EQ(again.entries().at("m1.flxt").state, TraceState::Ok);
}

TEST(Manifest, SnapshotCompactsAndPreservesState) {
  const std::string path = unique_path("snapshot");
  Manifest m = Manifest::open(path);
  for (int round = 0; round < 10; ++round) {
    m.upsert(entry("a.flxt", TraceState::Ok,
                   static_cast<std::uint64_t>(round)));
    m.upsert(entry("b.flxt", TraceState::Salvaged,
                   static_cast<std::uint64_t>(round)));
  }
  EXPECT_TRUE(m.wants_snapshot());
  const std::size_t before = file_bytes(path).size();
  m.snapshot();
  EXPECT_FALSE(m.wants_snapshot());
  EXPECT_EQ(m.journal_records(), 2u);
  EXPECT_LT(file_bytes(path).size(), before);
  // Appends after a snapshot land in the new journal.
  m.upsert(entry("c.flxt"));
  Manifest again = Manifest::open(path);
  EXPECT_EQ(again.entries().size(), 3u);
  EXPECT_EQ(again.entries().at("a.flxt").size_bytes, 9u);
}

TEST(Manifest, SnapshotPreservesPendingIntent) {
  const std::string path = unique_path("snapintent");
  Manifest m = Manifest::open(path);
  m.upsert(entry("m1.flxt"));
  m.compact_intent({"seg.flxt", {"m1.flxt"}});
  m.snapshot();
  Manifest again = Manifest::open(path);
  ASSERT_TRUE(again.pending_intent().has_value());
  EXPECT_EQ(again.pending_intent()->segment_path, "seg.flxt");
}

TEST(Manifest, InjectedFaultThrowsAndLeavesMemoryUnchanged) {
  const std::string path = unique_path("fault");
  bool arm = false;
  Manifest m = Manifest::open(
      path, [&arm](std::size_t) { return arm; });
  m.upsert(entry("a.flxt"));
  arm = true;
  EXPECT_THROW(m.upsert(entry("b.flxt")), ManifestError);
  EXPECT_THROW(m.remove("a.flxt"), ManifestError);
  EXPECT_EQ(m.entries().size(), 1u);
  EXPECT_TRUE(m.entries().count("a.flxt"));
  arm = false;
  m.upsert(entry("b.flxt"));
  Manifest again = Manifest::open(path);
  EXPECT_EQ(again.entries().size(), 2u);
}

TEST(Manifest, HostileLengthFieldStopsReplay) {
  const std::string path = unique_path("hostile");
  {
    Manifest m = Manifest::open(path);
    m.upsert(entry("a.flxt"));
  }
  // Append a record claiming a payload far past eof: replay must stop
  // cleanly at the last good record, not read out of bounds.
  std::string bytes = file_bytes(path);
  const char rec[] = {'H', 'R', 'E', 'C', 1, '\xff', '\xff', '\xff', '\x7f',
                      0, 0, 0, 0};
  bytes.append(rec, sizeof rec);
  write_bytes(path, bytes);
  Manifest m = Manifest::open(path);
  EXPECT_TRUE(m.replay_stats().truncated);
  EXPECT_EQ(m.entries().size(), 1u);
}

} // namespace
} // namespace fluxtrace::hub
