// FLXT v2 chunked container: round-trip, and the crash-safety contract —
// a file truncated at ANY byte offset salvages every complete prior
// chunk byte-identical; corrupted chunks are skipped and reported.
#include "fluxtrace/io/chunked.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <sstream>

#include "fluxtrace/io/trace_reader.hpp"

namespace fluxtrace::io {
namespace {

TraceData sample_data(std::size_t n_markers, std::size_t n_samples,
                      std::uint64_t seed = 1) {
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  TraceData d;
  for (std::size_t i = 0; i < n_markers; ++i) {
    Marker m;
    m.tsc = rnd();
    m.item = rnd();
    m.core = static_cast<std::uint32_t>(rnd() % 16);
    m.kind = (rnd() % 2 == 0) ? MarkerKind::Enter : MarkerKind::Leave;
    d.markers.push_back(m);
  }
  for (std::size_t i = 0; i < n_samples; ++i) {
    PebsSample s;
    s.tsc = rnd();
    s.ip = rnd();
    s.core = static_cast<std::uint32_t>(rnd() % 16);
    for (std::uint64_t& r : s.regs.v) r = rnd();
    d.samples.push_back(s);
  }
  return d;
}

std::string serialize_v2(const TraceData& d, std::size_t per_chunk) {
  std::ostringstream os;
  write_trace_v2(os, d, per_chunk);
  return std::move(os).str();
}

TEST(ChunkedTrace, Crc32KnownVectors) {
  // The zlib/IEEE polynomial check values, for crc32() and for the
  // slice-by-16 reference kernel behind it.
  for (const auto kernel : {&crc32, &detail::crc32_slice16}) {
    EXPECT_EQ(kernel("", 0), 0x00000000u);
    EXPECT_EQ(kernel("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(kernel("a", 1), 0xe8b7be43u);
  }
}

TEST(ChunkedTrace, EmptyRoundTrip) {
  const SalvageReport rep = salvage_trace(serialize_v2(TraceData{}, 64));
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.data.markers.empty());
  EXPECT_TRUE(rep.data.samples.empty());
}

TEST(ChunkedTrace, RoundTripThroughReadTrace) {
  // The reader dispatches on the version field: a raw v2 file parses
  // through the generic entry point.
  const TraceData d = sample_data(100, 300);
  EXPECT_EQ(open_trace_bytes(serialize_v2(d, 32)).read(), d);
}

TEST(ChunkedTrace, RoundTripAtVariousChunkSizes) {
  const TraceData d = sample_data(50, 120, 9);
  for (const std::size_t per_chunk : {std::size_t{1}, std::size_t{7},
                                      std::size_t{50}, std::size_t{10000}}) {
    const SalvageReport rep = salvage_trace(serialize_v2(d, per_chunk));
    EXPECT_TRUE(rep.clean()) << "per_chunk=" << per_chunk;
    EXPECT_EQ(rep.data, d) << "per_chunk=" << per_chunk;
  }
}

TEST(ChunkedTrace, SaveAndLoadFile) {
  const TraceData d = sample_data(30, 80);
  const std::string path = test::private_dir() + "/flxt_v2_test.trace";
  save_trace_v2(path, d);
  const SalvageReport rep = open_trace(path).salvage();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.data, d);
}

TEST(ChunkedTrace, SalvageMissingFileThrows) {
  EXPECT_THROW((void)open_trace("/nonexistent/dir/x.trace").salvage(),
               TraceIoError);
}

TEST(ChunkedTrace, TruncationAtEveryByteSalvagesAllCompleteChunks) {
  // The acceptance criterion: whatever byte the crash cut at, every
  // complete prior chunk comes back byte-identical, and nothing else.
  const TraceData d = sample_data(20, 40, 3);
  const std::size_t per_chunk = 8;
  const std::string bytes = serialize_v2(d, per_chunk);

  for (std::size_t keep = 0; keep <= bytes.size(); ++keep) {
    const SalvageReport rep =
        salvage_trace(std::string_view(bytes).substr(0, keep));

    EXPECT_EQ(rep.chunks_corrupt, 0u) << "keep=" << keep;
    EXPECT_EQ(rep.bytes_skipped, 0u) << "keep=" << keep;
    if (keep == bytes.size()) {
      EXPECT_TRUE(rep.clean());
      EXPECT_EQ(rep.data, d);
      continue;
    }
    EXPECT_FALSE(rep.clean()) << "keep=" << keep;

    // Recovered records must be exact prefixes of the two streams, in
    // whole-chunk units.
    ASSERT_LE(rep.data.markers.size(), d.markers.size());
    ASSERT_LE(rep.data.samples.size(), d.samples.size());
    EXPECT_TRUE(rep.data.markers.size() % per_chunk == 0 ||
                rep.data.markers.size() == d.markers.size())
        << "keep=" << keep;
    for (std::size_t i = 0; i < rep.data.markers.size(); ++i) {
      ASSERT_EQ(rep.data.markers[i], d.markers[i]) << "keep=" << keep;
    }
    for (std::size_t i = 0; i < rep.data.samples.size(); ++i) {
      ASSERT_EQ(rep.data.samples[i], d.samples[i]) << "keep=" << keep;
    }
    // Samples only appear once every marker chunk was complete.
    if (!rep.data.samples.empty()) {
      EXPECT_EQ(rep.data.markers.size(), d.markers.size());
    }
  }
}

TEST(ChunkedTrace, SingleByteCorruptionNeverCrashesAndIsNeverSilent) {
  const TraceData d = sample_data(12, 24, 5);
  const std::string bytes = serialize_v2(d, 6);

  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x41);

    // Strict parse: throws or — if the flip landed in unread padding,
    // which this format has none of — returns identical data. It must
    // never return silently different data.
    try {
      const TraceData back = open_trace_bytes(mutated).read();
      EXPECT_EQ(back, d) << "silent corruption at byte " << at;
    } catch (const TraceIoError&) {
      // expected for most offsets
    }

    // Salvage: never throws, recovers every chunk the flip missed.
    const SalvageReport rep = salvage_trace(mutated);
    EXPECT_FALSE(rep.clean()) << "at=" << at;
    // At most one chunk's records are missing from each stream.
    EXPECT_GE(rep.data.markers.size() + rep.data.samples.size() + 6,
              d.markers.size() + d.samples.size())
        << "at=" << at;
    // Whatever was recovered matches the original records exactly.
    std::size_t mi = 0;
    for (const Marker& m : rep.data.markers) {
      while (mi < d.markers.size() && !(d.markers[mi] == m)) ++mi;
      ASSERT_LT(mi, d.markers.size()) << "alien marker at byte " << at;
      ++mi;
    }
    std::size_t si = 0;
    for (const PebsSample& s : rep.data.samples) {
      while (si < d.samples.size() && !(d.samples[si] == s)) ++si;
      ASSERT_LT(si, d.samples.size()) << "alien sample at byte " << at;
      ++si;
    }
  }
}

TEST(ChunkedTrace, HeaderResyncRecoversChunksAfterTheDamage) {
  const TraceData d = sample_data(30, 0, 11);
  const std::string bytes = serialize_v2(d, 10); // 3 marker chunks
  // Destroy the second chunk's magic: salvage must resync at chunk 3.
  const std::size_t chunk_bytes = 21 + 10 * 21; // header + 10 markers
  std::string mutated = bytes;
  const std::size_t second = 8 + chunk_bytes;
  mutated[second] = 'X';

  const SalvageReport rep = salvage_trace(mutated);
  EXPECT_EQ(rep.chunks_ok, 2u);
  EXPECT_GE(rep.chunks_resynced, 1u);
  EXPECT_GT(rep.bytes_skipped, 0u);
  ASSERT_EQ(rep.data.markers.size(), 20u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rep.data.markers[i], d.markers[i]);
    EXPECT_EQ(rep.data.markers[10 + i], d.markers[20 + i]);
  }
}

TEST(ChunkedTrace, GarbageInputRecoversNothingWithoutThrowing) {
  const SalvageReport rep = salvage_trace(std::string(4096, '\x5a'));
  EXPECT_FALSE(rep.clean());
  EXPECT_FALSE(rep.header_ok);
  EXPECT_EQ(rep.chunks_ok, 0u);
  EXPECT_TRUE(rep.data.markers.empty());
  EXPECT_TRUE(rep.data.samples.empty());
}

TEST(ChunkedTrace, StrictReadOfDamagedFileThrows) {
  const TraceData d = sample_data(10, 10);
  std::string bytes = serialize_v2(d, 4);
  bytes.resize(bytes.size() - 5); // torn tail
  EXPECT_THROW((void)open_trace_bytes(bytes).read(), TraceIoError);
}

// --- wait-edge chunks (type 3, ISSUE 8) -------------------------------

std::vector<WaitEdge> sample_waits(std::size_t n, std::uint64_t seed = 3) {
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  std::vector<WaitEdge> es;
  for (std::size_t i = 0; i < n; ++i) {
    WaitEdge e;
    e.enter = rnd() % 1000000;
    e.leave = e.enter + rnd() % 5000;
    e.item = (rnd() % 4 == 0) ? kNoItem : rnd() % 64;
    e.waiter_core = static_cast<std::uint32_t>(rnd() % 8);
    e.holder_core = static_cast<std::uint32_t>(rnd() % 8);
    e.resource = static_cast<std::uint32_t>(rnd() % 32);
    e.cause = static_cast<WaitCause>(rnd() % kNumWaitCauses);
    es.push_back(e);
  }
  return es;
}

TEST(WaitEdgeChunk, RoundTripPreservesEveryField) {
  TraceData d = sample_data(20, 40);
  d.wait_edges = sample_waits(33);
  for (const std::size_t per_chunk :
       {std::size_t{1}, std::size_t{8}, std::size_t{10000}}) {
    EXPECT_EQ(open_trace_bytes(serialize_v2(d, per_chunk)).read(), d)
        << "per_chunk=" << per_chunk;
  }
}

TEST(WaitEdgeChunk, IndexWalkExposesTypeThreeChunks) {
  TraceData d;
  d.wait_edges = sample_waits(10);
  const std::string image = serialize_v2(d, 4);
  const auto refs = index_trace_v2(image);
  std::size_t n_waits = 0;
  TraceData got;
  for (const V2ChunkRef& ref : refs) {
    ASSERT_EQ(ref.type, kChunkTypeWaitEdges);
    n_waits += ref.n_records;
    decode_trace_v2_chunk(image, ref, got);
  }
  EXPECT_EQ(n_waits, 10u);
  EXPECT_EQ(got.wait_edges, d.wait_edges);
}

TEST(WaitEdgeChunk, CorruptWaitPayloadIsSkippedNotFatalToSalvage) {
  TraceData d = sample_data(8, 0);
  d.wait_edges = sample_waits(8);
  std::string image = serialize_v2(d, 4); // 2 marker + 2 wait chunks
  const auto refs = index_trace_v2(image);
  for (const V2ChunkRef& ref : refs) {
    if (ref.type != kChunkTypeWaitEdges) continue;
    image[static_cast<std::size_t>(ref.offset) + 21 + 5] ^= 0x40;
    break; // damage the first wait chunk's payload only
  }
  const SalvageReport rep = salvage_trace(std::string_view(image));
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.chunks_corrupt, 1u);
  EXPECT_EQ(rep.data.markers.size(), 8u) << "marker chunks unaffected";
  ASSERT_EQ(rep.data.wait_edges.size(), 4u) << "intact wait chunk kept";
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rep.data.wait_edges[i], d.wait_edges[4 + i]);
  }
  // The strict reader refuses the same damage outright.
  EXPECT_THROW((void)open_trace_bytes(image).read(), TraceIoError);
}

TEST(WaitEdgeChunk, TruncationSalvagesCompleteWaitChunks) {
  TraceData d;
  d.wait_edges = sample_waits(12);
  const std::string image = serialize_v2(d, 4); // 3 wait chunks + eof
  const auto refs = index_trace_v2(image);
  ASSERT_EQ(refs.size(), 3u);
  // Cut mid-payload of the last chunk: the first two salvage intact.
  const std::string cut = image.substr(
      0, static_cast<std::size_t>(refs[2].offset) + 21 +
             refs[2].payload_bytes / 2);
  const SalvageReport rep = salvage_trace(std::string_view(cut));
  EXPECT_FALSE(rep.clean());
  ASSERT_EQ(rep.data.wait_edges.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rep.data.wait_edges[i], d.wait_edges[i]);
  }
}

} // namespace
} // namespace fluxtrace::io

