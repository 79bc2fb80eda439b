// mmap zero-copy open (io::open_trace): equality with the pread path,
// the empty-file and shrink edge cases, and fault-injected reads. The
// contract: mapped and slurped reads are byte-for-byte the same trace;
// a file truncated while mapped is a strict-read error and a clamped
// salvage — for the query paths and triage too — never a SIGBUS.
#include "fluxtrace/io/mmap_source.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "fluxtrace/query/engine.hpp"

namespace fluxtrace::io {
namespace {

TraceData small_data(std::size_t n_samples, std::uint64_t seed = 1) {
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  TraceData d;
  for (std::size_t i = 0; i < n_samples; ++i) {
    PebsSample s;
    s.tsc = 1000 + i * 10;
    s.ip = 0x1000 + rnd() % 256;
    s.core = static_cast<std::uint32_t>(rnd() % 4);
    d.samples.push_back(s);
  }
  return d;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

std::string temp_path(const char* name) {
  return test::private_dir() + "/" + name;
}

std::string v2_file(const std::string& path, const TraceData& d,
                    std::size_t per_chunk = 64) {
  std::ostringstream os;
  write_trace_v2(os, d, per_chunk);
  const std::string image = std::move(os).str();
  write_file(path, image);
  return image;
}

TEST(MmapOpen, MmapAndPreadReadIdentically) {
  const std::string path = temp_path("mmap_eq.flxt2");
  const TraceData data = small_data(500);
  v2_file(path, data);

  const TraceReader mapped = open_trace(path);
  OpenOptions opts;
  opts.force_pread = true;
  const TraceReader slurped = open_trace(path, opts);

  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(slurped.mapped());
  EXPECT_EQ(mapped.bytes(), slurped.bytes());
  EXPECT_EQ(mapped.read(), slurped.read());
  EXPECT_EQ(mapped.read(), data);
  std::remove(path.c_str());
}

TEST(MmapOpen, EmptyFileFallsBackToPread) {
  const std::string path = temp_path("mmap_empty.flxt");
  write_file(path, "");
  // mmap of zero bytes is EINVAL; the facade must fall back, not fail.
  EXPECT_EQ(MmapByteSource::map(path), nullptr);
  const TraceReader reader = open_trace(path);
  EXPECT_FALSE(reader.mapped());
  EXPECT_EQ(reader.size_bytes(), 0u);
  EXPECT_EQ(reader.format(), TraceFormat::Unknown);
  std::remove(path.c_str());
}

TEST(MmapOpen, MissingFileThrows) {
  EXPECT_THROW((void)open_trace(temp_path("does_not_exist.flxt")),
               TraceIoError);
}

TEST(MmapOpen, TruncatedWhileMappedStrictReadThrows) {
  const std::string path = temp_path("mmap_shrink.flxt2");
  const TraceData data = small_data(800);
  const std::string image = v2_file(path, data);

  const TraceReader reader = open_trace(path);
  ASSERT_TRUE(reader.mapped());
  // Shrink the file under the live mapping: pages past the new size
  // would fault, so the reader must clamp, not touch them.
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(image.size() / 2)),
            0);
  try {
    (void)reader.read();
    FAIL() << "strict read of a shrunk mapping must throw";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated while mapped"),
              std::string::npos)
        << e.what();
  }

  // Salvage clamps to the surviving prefix and accounts the lost tail.
  const SalvageReport rep = reader.salvage();
  EXPECT_GT(rep.chunks_ok, 0u);
  EXPECT_GT(rep.bytes_truncated, 0u);
  EXPECT_FALSE(rep.eof_ok);
  // Every salvaged sample is a prefix of the original stream.
  ASSERT_LE(rep.data.samples.size(), data.samples.size());
  for (std::size_t i = 0; i < rep.data.samples.size(); ++i) {
    EXPECT_EQ(rep.data.samples[i], data.samples[i]);
  }
  std::remove(path.c_str());
}

TEST(MmapOpen, ShrunkMappingQueriesSalvageInsteadOfCrashing) {
  // The query paths walk the image themselves; a mapping the file no
  // longer backs must fail their strict walk, not fault SIGBUS, and the
  // salvage fallback must return the surviving prefix.
  const std::string path = temp_path("mmap_shrink_query.flxt3");
  save_trace_v3(path, small_data(100000), 4096);
  const TraceReader reader = open_trace(path);
  ASSERT_TRUE(reader.mapped());
  query::EngineOptions eo;
  eo.threads = 1;
  eo.write_index = false;
  query::QueryEngine full = query::QueryEngine::open(path, SymbolTable{}, eo);
  query::QueryEngine pruned = query::QueryEngine::open(path, SymbolTable{}, eo);
  const auto quarter = static_cast<off_t>(reader.size_bytes() / 4);
  ASSERT_EQ(::truncate(path.c_str(), quarter), 0);

  const SalvageReport rep = reader.salvage();
  ASSERT_GT(rep.data.samples.size(), 0u);
  ASSERT_LT(rep.data.samples.size(), 100000u);
  query::QueryEngine ref =
      query::QueryEngine::from_data(rep.data, SymbolTable{}, eo);
  const std::string group = "group core: count";
  const std::string ts = "filter ts < 200000 | group core: count, max(ts)";

  const query::QueryResult a = full.run(group);
  EXPECT_TRUE(a.stats.salvaged);
  EXPECT_EQ(a.rows, ref.run(group).rows);
  const query::QueryResult b = pruned.run(ts);
  EXPECT_TRUE(b.stats.salvaged);
  EXPECT_EQ(b.rows, ref.run(ts).rows);

  const query::ColumnarTrace t =
      query::ColumnarTrace::from_reader(reader, SymbolTable{}, {}, 2);
  EXPECT_TRUE(t.salvaged());
  ASSERT_EQ(t.rows(), rep.data.samples.size());
  EXPECT_EQ(t.col(query::Field::Ts).back(),
            static_cast<std::int64_t>(rep.data.samples.back().tsc));

  const TraceTriage tri = classify_trace(reader);
  EXPECT_EQ(tri.health, TraceHealth::Salvaged);
  EXPECT_EQ(tri.rows, rep.data.samples.size());
  EXPECT_GT(tri.report.bytes_truncated, 0u);
  std::remove(path.c_str());
}

TEST(MmapOpen, V3TraceReadsViaMmap) {
  const std::string path = temp_path("mmap_v3.flxt3");
  const TraceData data = small_data(600);
  save_trace_v3(path, data, 128);
  const TraceReader reader = open_trace(path);
  EXPECT_TRUE(reader.mapped());
  EXPECT_EQ(reader.format(), TraceFormat::FlxtV3);
  EXPECT_EQ(reader.read(), data);
  std::remove(path.c_str());
}

TEST(MmapOpen, TransientFaultsRetryOnPreadPath) {
  const std::string path = temp_path("mmap_fault.flxt2");
  const TraceData data = small_data(300);
  v2_file(path, data);

  // Fail the first two reads, then succeed: the open must retry
  // through and produce the full trace via the pread path (a fault
  // hook implies pread — a live mapping has no per-read hook).
  int calls = 0;
  OpenOptions opts;
  opts.read_fault = [&calls]() {
    return ++calls <= 2 ? ReadFault::Transient : ReadFault::None;
  };
  const TraceReader reader = open_trace(path, opts);
  EXPECT_FALSE(reader.mapped());
  EXPECT_EQ(reader.read(), data);
  EXPECT_GE(calls, 3);
  std::remove(path.c_str());
}

TEST(MmapOpen, ShortReadsCompleteViaRetry) {
  const std::string path = temp_path("mmap_short.flxt2");
  const TraceData data = small_data(400);
  v2_file(path, data);

  OpenOptions opts;
  int calls = 0;
  opts.read_fault = [&calls]() {
    // Every other read is cut short; the loop must still assemble the
    // whole image.
    return (++calls % 2 == 0) ? ReadFault::Short : ReadFault::None;
  };
  const TraceReader reader = open_trace(path, opts);
  EXPECT_EQ(reader.read(), data);
  std::remove(path.c_str());
}

TEST(MmapOpen, PersistentFaultExhaustsAttemptsAndThrows) {
  const std::string path = temp_path("mmap_dead.flxt2");
  v2_file(path, small_data(100));

  OpenOptions opts;
  opts.max_read_attempts = 3;
  opts.read_fault = []() { return ReadFault::Transient; };
  EXPECT_THROW((void)open_trace(path, opts), TraceIoError);
  std::remove(path.c_str());
}

TEST(MmapByteSourceTest, ReadAtServesFromMapping) {
  const std::string path = temp_path("mmap_src.bin");
  const std::string payload = "0123456789abcdef";
  write_file(path, payload);
  const auto src = MmapByteSource::map(path);
  ASSERT_NE(src, nullptr);
  const auto sz = src->size();
  ASSERT_EQ(sz.status, ReadStatus::Ok);
  EXPECT_EQ(sz.size, payload.size());

  char buf[8] = {};
  const auto rr = src->read_at(4, buf, 8);
  ASSERT_EQ(rr.status, ReadStatus::Ok);
  EXPECT_EQ(rr.n, 8u);
  EXPECT_EQ(std::string(buf, 8), "456789ab");

  // Reads past the end are short, not errors.
  const auto tail = src->read_at(12, buf, 8);
  ASSERT_EQ(tail.status, ReadStatus::Ok);
  EXPECT_EQ(tail.n, 4u);
  std::remove(path.c_str());
}

} // namespace
} // namespace fluxtrace::io
