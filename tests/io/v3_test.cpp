// FLXT v3 compressed columnar container: bit-identical round trips,
// parallel == sequential column decode, zone hints, compression accounting,
// follower tailing of a v3 spool, and the damage contract — a corrupted
// compressed column chunk costs exactly that chunk's records, nothing
// else.
#include "fluxtrace/io/v3.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/follower.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "fluxtrace/rt/thread_pool.hpp"

namespace fluxtrace::io {
namespace {

TraceData rich_data(std::size_t n_markers, std::size_t n_samples,
                    std::size_t n_waits = 0, std::uint64_t seed = 1) {
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  TraceData d;
  std::uint64_t t = 1'000'000;
  for (std::size_t i = 0; i < n_markers; ++i) {
    Marker m;
    t += 50 + rnd() % 200;
    m.tsc = t;
    m.item = i / 2 + 1;
    m.core = static_cast<std::uint32_t>(rnd() % 8);
    m.kind = (i % 2 == 0) ? MarkerKind::Enter : MarkerKind::Leave;
    d.markers.push_back(m);
  }
  t = 1'000'000;
  for (std::size_t i = 0; i < n_samples; ++i) {
    PebsSample s;
    t += 10 + rnd() % 30;
    s.tsc = t;
    s.ip = 0x400000 + rnd() % 4096; // clustered, like a code segment
    s.core = static_cast<std::uint32_t>(rnd() % 8);
    for (std::uint64_t& r : s.regs.v) r = 0; // idle GPRs, the usual case
    s.regs.v[13] = rnd() % 64;               // item-id register traffic
    d.samples.push_back(s);
  }
  for (std::size_t i = 0; i < n_waits; ++i) {
    WaitEdge e;
    e.enter = 1'000'000 + i * 100;
    e.leave = e.enter + 40 + rnd() % 60;
    e.item = i % 7 + 1;
    e.waiter_core = static_cast<std::uint32_t>(rnd() % 8);
    e.holder_core = static_cast<std::uint32_t>(rnd() % 8);
    e.resource = static_cast<std::uint32_t>(rnd() % 4);
    e.cause = static_cast<WaitCause>(rnd() % kNumWaitCauses);
    d.wait_edges.push_back(e);
  }
  return d;
}

std::string v3_image(const TraceData& d,
                     std::size_t per_chunk = kDefaultChunkRecordsV3) {
  std::ostringstream os;
  write_trace_v3(os, d, per_chunk);
  return std::move(os).str();
}

std::string v2_image(const TraceData& d,
                     std::size_t per_chunk = kDefaultChunkRecords) {
  std::ostringstream os;
  write_trace_v2(os, d, per_chunk);
  return std::move(os).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

std::string temp_path(const char* name) {
  return test::private_dir() + "/" + name;
}

TEST(TraceV3, EmptyRoundTrip) {
  const std::string image = v3_image(TraceData{});
  const TraceReader reader = open_trace_bytes(image);
  EXPECT_EQ(reader.format(), TraceFormat::FlxtV3);
  const TraceData got = reader.read();
  EXPECT_TRUE(got.markers.empty());
  EXPECT_TRUE(got.samples.empty());
  EXPECT_TRUE(got.wait_edges.empty());
}

TEST(TraceV3, RoundTripBitIdentical) {
  const TraceData data = rich_data(500, 3000, 120);
  const TraceData got = open_trace_bytes(v3_image(data, 256)).read();
  // Full equality: every register of every sample, every wait edge.
  EXPECT_EQ(got, data);
}

TEST(TraceV3, RoundTripNonIdleRegisters) {
  // Full-noise registers: codecs fall back to Raw64 but identity holds.
  TraceData data = rich_data(10, 300);
  std::uint64_t state = 9;
  for (PebsSample& s : data.samples) {
    for (std::uint64_t& r : s.regs.v) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      r = state;
    }
  }
  EXPECT_EQ(open_trace_bytes(v3_image(data, 128)).read(), data);
}

TEST(TraceV3, SmallerThanV2OnTypicalData) {
  const TraceData data = rich_data(2000, 20000, 500);
  const std::string v2 = v2_image(data);
  const std::string v3 = v3_image(data);
  // The 50% acceptance bar is asserted on the 1M-sample run in
  // bench/ext_codec; here a sanity margin on small data.
  EXPECT_LT(v3.size(), v2.size() / 2)
      << "v2 " << v2.size() << " bytes, v3 " << v3.size();
}

TEST(TraceV3, ParallelDecodeIdenticalToSequential) {
  // The query engine decodes v3 sample chunks concurrently straight into
  // its columns; any thread count must give the one-thread columns.
  const TraceData data = rich_data(800, 10000, 64);
  const std::string image = v3_image(data, 512);
  const TraceReader reader = open_trace_bytes(image);
  EXPECT_EQ(reader.read(), data);
  const SymbolTable symtab;
  const query::ColumnarTrace seq =
      query::ColumnarTrace::from_reader(reader, symtab, {}, 1);
  ASSERT_EQ(seq.rows(), data.samples.size());
  for (const unsigned n : {2u, 4u, 8u}) {
    const query::ColumnarTrace par =
        query::ColumnarTrace::from_reader(reader, symtab, {}, n);
    for (std::size_t f = 0; f < query::kNumFields; ++f) {
      const auto field = static_cast<query::Field>(f);
      EXPECT_TRUE(std::ranges::equal(par.col(field), seq.col(field)))
          << n << " threads, field " << f;
    }
  }
}

TEST(TraceV3, MixedChunkFamilyOneFile) {
  // v2 raw and v3 compressed chunks interleave freely: one chunk
  // family. A spool that upgraded codecs mid-run stays readable.
  const TraceData a = rich_data(0, 100, 0, 7);
  const TraceData b = rich_data(0, 100, 0, 8);
  // A's samples as one raw v2 chunk: a v2 image minus its 8-byte file
  // header and its eof sentinel.
  TraceData a_samples;
  a_samples.samples = a.samples;
  std::ostringstream v2;
  write_trace_v2(v2, a_samples, a.samples.size());
  const std::string raw = v2.str();
  const std::string eof = encode_eof_chunk();
  std::string image = encode_v3_file_header();
  image += raw.substr(8, raw.size() - 8 - eof.size());
  image += encode_sample_chunk_v3(b.samples.data(), b.samples.size());
  image += encode_eof_chunk();
  const TraceData got = open_trace_bytes(image).read();
  ASSERT_EQ(got.samples.size(), 200u);
  TraceData want;
  want.samples = a.samples;
  want.samples.insert(want.samples.end(), b.samples.begin(),
                      b.samples.end());
  EXPECT_EQ(got.samples, want.samples);
}

TEST(TraceV3, ReusedEncoderMatchesFreshEncodes) {
  // A spool keeps one encoder for its lifetime; its column buffers carry
  // over from chunk to chunk, of any size and type, and must never leak
  // into the bytes.
  const TraceData data = rich_data(40, 3000, 25, 11);
  V3ChunkEncoder enc;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{7},
                              std::size_t{1}, std::size_t{2048}}) {
    EXPECT_EQ(enc.encode(data.samples.data() + 500, n),
              encode_sample_chunk_v3(data.samples.data() + 500, n))
        << n;
    EXPECT_EQ(enc.encode(data.markers.data(), std::min(n, data.markers.size())),
              encode_marker_chunk_v3(data.markers.data(),
                                     std::min(n, data.markers.size())))
        << n;
    EXPECT_EQ(
        enc.encode(data.wait_edges.data(), std::min(n, data.wait_edges.size())),
        encode_wait_chunk_v3(data.wait_edges.data(),
                             std::min(n, data.wait_edges.size())))
        << n;
  }
  EXPECT_THROW((void)enc.encode(data.samples.data(), 0), std::invalid_argument);
}

TEST(TraceV3, ZoneHintMatchesChunkContents) {
  const TraceData data = rich_data(0, 2048);
  const std::string image = v3_image(data, 256);
  const auto refs = index_trace_v2(image);
  std::size_t row = 0;
  for (const V2ChunkRef& ref : refs) {
    if (!is_sample_chunk_type(ref.type)) continue;
    const V3ZoneHint hint = read_v3_zone_hint(image, ref);
    ASSERT_TRUE(hint.ok);
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (std::uint32_t k = 0; k < ref.n_records; ++k, ++row) {
      const auto t = static_cast<std::int64_t>(data.samples[row].tsc);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    EXPECT_EQ(hint.min_ts, lo);
    EXPECT_EQ(hint.max_ts, hi);
  }
  EXPECT_EQ(row, data.samples.size());
}

TEST(TraceV3, ZoneHintRefusesDamagedPayload) {
  const TraceData data = rich_data(0, 512);
  std::string image = v3_image(data, 256);
  const auto refs = index_trace_v2(image);
  ASSERT_FALSE(refs.empty());
  const V2ChunkRef& ref = refs[0];
  // Flip one payload byte *outside* the hint fields: the frame CRC
  // fails, so the (intact) hint bytes must not be trusted.
  image[static_cast<std::size_t>(ref.offset) + 21 + ref.payload_bytes - 1] ^=
      0x01;
  EXPECT_FALSE(read_v3_zone_hint(image, ref).ok);
}

TEST(TraceV3, SingleChunkDamageLossLocalizedToThatChunk) {
  const TraceData data = rich_data(200, 2000, 100);
  std::string image = v3_image(data, 256);
  const auto refs = index_trace_v2(image);
  std::size_t victim = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (is_sample_chunk_type(refs[i].type)) {
      victim = i; // damage the *last* sample chunk found
    }
  }
  const V2ChunkRef v = refs[victim];
  image[static_cast<std::size_t>(v.offset) + 21 + v.payload_bytes / 2] ^=
      0x40;

  // Strict read refuses; salvage recovers everything but that chunk.
  const TraceReader reader = open_trace_bytes(image);
  EXPECT_THROW((void)reader.read(), TraceIoError);
  const SalvageReport rep = reader.salvage();
  EXPECT_EQ(rep.chunks_corrupt, 1u);
  EXPECT_EQ(rep.data.samples.size(), data.samples.size() - v.n_records);
  EXPECT_EQ(rep.data.markers.size(), data.markers.size());
  EXPECT_EQ(rep.data.wait_edges.size(), data.wait_edges.size());

  // And the surviving samples are the original ones, in order.
  std::size_t row = 0, got_at = 0;
  for (const V2ChunkRef& ref : refs) {
    if (!is_sample_chunk_type(ref.type)) continue;
    if (ref.offset != v.offset) {
      for (std::uint32_t k = 0; k < ref.n_records; ++k) {
        ASSERT_EQ(rep.data.samples[got_at++], data.samples[row + k]);
      }
    }
    row += ref.n_records;
  }
}

TEST(TraceV3, TruncationSalvagesPriorChunks) {
  const TraceData data = rich_data(64, 1024);
  const std::string image = v3_image(data, 256);
  const auto refs = index_trace_v2(image);
  ASSERT_GE(refs.size(), 3u);
  // Cut mid-payload of the second-to-last chunk.
  const V2ChunkRef& cut_ref = refs[refs.size() - 2];
  const std::size_t cut =
      static_cast<std::size_t>(cut_ref.offset) + 21 + cut_ref.payload_bytes / 2;
  const SalvageReport rep =
      open_trace_bytes(image.substr(0, cut)).salvage();
  EXPECT_EQ(rep.chunks_ok, refs.size() - 2);
  EXPECT_GT(rep.bytes_truncated, 0u);
  EXPECT_FALSE(rep.eof_ok);
}

TEST(TraceV3, ForgedRecordCountIsRejected) {
  // A compressed chunk's record count is not pinned by its payload size,
  // so a forged count with valid CRCs must be refused by the cap, not
  // trusted into an allocation.
  TraceData data;
  data.samples = rich_data(0, 16).samples;
  std::string image = v3_image(data, 16);
  const auto refs = index_trace_v2(image);
  ASSERT_EQ(refs.size(), 1u);
  const std::size_t at = static_cast<std::size_t>(refs[0].offset);
  const std::uint32_t forged = kMaxChunkRecords + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    image[at + 5 + i] = static_cast<char>(forged >> (8 * i));
  }
  const std::uint32_t header_crc = crc32(image.data() + at, 13);
  for (std::size_t i = 0; i < 4; ++i) {
    image[at + 13 + i] = static_cast<char>(header_crc >> (8 * i));
  }
  const TraceReader r = open_trace_bytes(image);
  EXPECT_THROW((void)r.read(), TraceIoError);
  const SalvageReport rep = r.salvage();
  EXPECT_EQ(rep.chunks_corrupt, 1u);
  EXPECT_TRUE(rep.data.samples.empty());
}

TEST(TraceV3, HostileBitFlipsNeverCrashReader) {
  const TraceData data = rich_data(32, 256, 16);
  const std::string image = v3_image(data, 64);
  std::uint64_t state = 5;
  for (int iter = 0; iter < 400; ++iter) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::string mut = image;
    mut[state % mut.size()] ^= static_cast<char>(1u << (state >> 32) % 8);
    const TraceReader reader = open_trace_bytes(mut);
    try {
      (void)reader.read();
    } catch (const TraceIoError&) {
      // expected for most flips
    }
    (void)reader.salvage(); // must never throw on in-memory bytes
  }
}

TEST(TraceV3, CompressionStatsAccountEveryColumn) {
  const TraceData data = rich_data(512, 4096, 128);
  const std::string image = v3_image(data, 512);
  const auto cols = v3_compression_stats(image);
  ASSERT_FALSE(cols.empty());
  std::uint64_t raw_total = 0, enc_total = 0;
  bool saw_ts = false;
  for (const V3ColumnSummary& c : cols) {
    raw_total += c.raw_bytes;
    enc_total += c.enc_bytes;
    if (c.name == "samples.ts") {
      saw_ts = true;
      EXPECT_LT(c.enc_bytes, c.raw_bytes / 2);
    }
  }
  EXPECT_TRUE(saw_ts);
  // Raw bytes must equal the v2 record footprint of the same streams.
  const std::uint64_t expect_raw = data.samples.size() * (8 + 8 + 4 + 16 * 8) +
                                   data.markers.size() * (8 + 8 + 4 + 1) +
                                   data.wait_edges.size() * (8 + 8 + 8 + 13);
  EXPECT_EQ(raw_total, expect_raw);
  EXPECT_LT(enc_total, raw_total);
}

TEST(TraceV3, FollowerTailsV3Spool) {
  const std::string path = temp_path("follower_v3.flxt3");
  const TraceData data = rich_data(40, 400, 20);
  write_file(path, encode_v3_file_header());
  TraceFollower f = TraceFollower::open(path, {});
  std::uint64_t now = 0;
  TraceData got;

  // Spool chunk-at-a-time, polling between appends, like a live writer.
  std::ofstream os(path, std::ios::binary | std::ios::app);
  const auto spool = [&](const std::string& chunk) {
    os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    os.flush();
    for (int i = 0; i < 4; ++i) {
      auto pr = f.poll(now);
      now += 1'000'000;
      got.markers.insert(got.markers.end(), pr.data.markers.begin(),
                         pr.data.markers.end());
      got.samples.insert(got.samples.end(), pr.data.samples.begin(),
                         pr.data.samples.end());
      got.wait_edges.insert(got.wait_edges.end(), pr.data.wait_edges.begin(),
                            pr.data.wait_edges.end());
    }
  };
  for (std::size_t at = 0; at < data.samples.size(); at += 100) {
    spool(encode_sample_chunk_v3(data.samples.data() + at, 100));
  }
  spool(encode_marker_chunk_v3(data.markers.data(), data.markers.size()));
  spool(encode_wait_chunk_v3(data.wait_edges.data(), data.wait_edges.size()));
  spool(encode_eof_chunk());
  while (!f.finished()) {
    (void)f.poll(now);
    now += 1'000'000;
  }

  EXPECT_EQ(f.finish_reason(), FollowFinish::CleanEof);
  EXPECT_TRUE(f.stats().reconciled());
  EXPECT_EQ(f.stats().chunks_salvaged, 0u);
  EXPECT_EQ(got.samples, data.samples);
  EXPECT_EQ(got.markers, data.markers);
  EXPECT_EQ(got.wait_edges, data.wait_edges);
  std::remove(path.c_str());
}

TEST(TraceV3, FollowerCountsDamagedV3ChunkInLedger) {
  const std::string path = temp_path("follower_v3_damage.flxt3");
  const TraceData data = rich_data(0, 300);
  std::string image = v3_image(data, 100);
  const auto refs = index_trace_v2(image);
  // Corrupt the middle sample chunk's payload, keep enough bytes after
  // it that the follower declares damage instead of waiting on a tail.
  const V2ChunkRef& v = refs[1];
  image[static_cast<std::size_t>(v.offset) + 21 + 4] ^= 0x10;
  write_file(path, image + std::string(1u << 16, '\0'));

  TraceFollowerConfig cfg;
  cfg.resync_after_bytes = 1024;
  TraceFollower f = TraceFollower::open(path, cfg);
  std::uint64_t now = 0;
  TraceData got;
  for (int i = 0; i < 200 && !f.finished(); ++i) {
    auto pr = f.poll(now);
    now += 10'000'000;
    got.samples.insert(got.samples.end(), pr.data.samples.begin(),
                       pr.data.samples.end());
  }
  // Exactly one chunk of samples lost; the loss shows in the ledger.
  EXPECT_EQ(got.samples.size(), data.samples.size() - v.n_records);
  EXPECT_GE(f.stats().chunks_salvaged + f.stats().chunks_torn, 1u);
  std::remove(path.c_str());
}

TEST(TraceV3, WriterRejectsChunkSizesItCannotHonour) {
  const TraceData d = rich_data(8, 8);
  for (const std::size_t bad :
       {std::size_t{0}, std::size_t{kMaxChunkRecords} + 1}) {
    std::ostringstream os;
    try {
      write_trace_v3(os, d, bad);
      FAIL() << "records_per_chunk " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(bad)),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(os.str().empty()) << "nothing is written before the check";
    const std::string path = temp_path("v3_bad_chunk_size.flxt3");
    EXPECT_THROW(save_trace_v3(path, d, bad), std::invalid_argument);
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << "no file is created";
  }
  // The bounds themselves are honoured exactly.
  EXPECT_EQ(index_trace_v2(v3_image(d, 1)).size(), 8u + 8u);
  EXPECT_EQ(index_trace_v2(v3_image(d, kMaxChunkRecords)).size(), 2u);
}

TEST(TraceV3, SaveLoadFileRoundTrip) {
  const std::string path = temp_path("v3_roundtrip.flxt3");
  const TraceData data = rich_data(100, 1000, 30);
  save_trace_v3(path, data);
  const TraceReader reader = open_trace(path);
  EXPECT_EQ(reader.format(), TraceFormat::FlxtV3);
  EXPECT_EQ(reader.read(), data);
  std::remove(path.c_str());
}

} // namespace
} // namespace fluxtrace::io
