// io::TraceReader facade: autodetection of the FLXT chunk family,
// salvage behaviour, refusal of the retired v1 and FLXZ containers, and
// the hostile-input contract — arbitrary bytes may fail read() with
// TraceIoError but must never crash, and salvage() never throws on
// content at all.
#include "fluxtrace/io/trace_reader.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "fluxtrace/io/v3.hpp"

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

void put_le(std::string& b, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) b.push_back(static_cast<char>(v >> (8 * i)));
}

/// A monolithic v1 image as the retired v1 writer laid it out: "FLXT",
/// version 1, both record counts, then fixed-width marker (21 B) and
/// sample (148 B) records.
std::string v1_bytes(std::size_t n_markers, std::size_t n_samples) {
  std::string b;
  put_le(b, kTraceMagic, 4);
  put_le(b, 1, 4);
  put_le(b, n_markers, 8);
  put_le(b, n_samples, 8);
  for (std::size_t i = 0; i < n_markers; ++i) {
    put_le(b, 1000 + i, 8);                    // tsc
    put_le(b, i / 2, 8);                       // item
    put_le(b, 0, 4);                           // core
    put_le(b, i % 2, 1);                       // kind
  }
  for (std::size_t i = 0; i < n_samples; ++i) {
    put_le(b, 1000 + i, 8);                    // tsc
    put_le(b, 0x400000 + i, 8);                // ip
    put_le(b, 0, 4);                           // core
    b.append(8 * kNumRegs, '\0');              // GPRs
  }
  return b;
}

/// A compact FLXZ image as the retired FLXZ writer laid it out: LEB128
/// magic "FLXZ" and version 1, then one core's two delta-coded markers
/// and no samples.
std::string flxz_bytes() {
  std::string b;
  const auto varint = [&b](std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) b.push_back(static_cast<char>((v & 0x7f) | 0x80));
    b.push_back(static_cast<char>(v));
  };
  varint(0x5a584c46); // "FLXZ"
  varint(1);          // version
  varint(1);          // one marker core group
  varint(0);          // core 0
  varint(2);          // two markers: (delta tsc, item, kind)
  for (const std::uint64_t v : {1000, 7, 0, 500, 7, 1}) varint(v);
  varint(0);          // no sample core groups
  return b;
}

std::string v2_bytes(const TraceData& d, std::size_t per_chunk = 64) {
  std::ostringstream os;
  write_trace_v2(os, d, per_chunk);
  return std::move(os).str();
}

// --- autodetection ----------------------------------------------------

TEST(TraceReader, DetectsFlxtV2) {
  const TraceData d = sample_data(30, 100);
  const TraceReader r = open_trace_bytes(v2_bytes(d));
  EXPECT_EQ(r.format(), TraceFormat::FlxtV2);
  EXPECT_EQ(r.read(), d);
}

TEST(TraceReader, FormatNames) {
  EXPECT_EQ(to_string(TraceFormat::FlxtV2), "flxt-v2");
  EXPECT_EQ(to_string(TraceFormat::FlxtV3), "flxt-v3");
  EXPECT_EQ(to_string(TraceFormat::Unknown), "unknown");
}

// No writer emits v1 or FLXZ anymore, and no reader decodes them: both
// open as Unknown, read() names why, salvage finds no chunk, and triage
// calls them unrecoverable.

TEST(TraceReader, RetiredV1OpensAsUnknown) {
  const TraceReader v1 = open_trace_bytes(v1_bytes(4, 3));
  EXPECT_EQ(v1.format(), TraceFormat::Unknown);
  try {
    (void)v1.read();
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_STREQ(e.what(), "unsupported trace version 1");
  }
}

TEST(TraceReader, RetiredFlxzOpensAsUnknown) {
  const TraceReader flxz = open_trace_bytes(flxz_bytes());
  EXPECT_EQ(flxz.format(), TraceFormat::Unknown);
  try {
    (void)flxz.read();
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_STREQ(e.what(), "not a fluxtrace file (bad magic)");
  }
}

TEST(TraceReader, SalvageOfRetiredFormatsRecoversNothing) {
  const TraceReader v1 = open_trace_bytes(v1_bytes(4, 3));
  const TraceReader flxz = open_trace_bytes(flxz_bytes());
  for (const TraceReader* r : {&v1, &flxz}) {
    const SalvageReport rep = r->salvage();
    EXPECT_FALSE(rep.header_ok);
    EXPECT_EQ(rep.chunks_ok, 0u);
    EXPECT_TRUE(rep.data.markers.empty());
    EXPECT_TRUE(rep.data.samples.empty());
    EXPECT_EQ(classify_trace(*r).health, TraceHealth::Unrecoverable);
  }
}

TEST(TraceReader, OpensFromFile) {
  const TraceData d = sample_data(10, 40);
  const std::string path = test::private_dir() + "/reader_test.flxt";
  save_trace_v3(path, d);
  const TraceReader r = open_trace(path);
  EXPECT_EQ(r.format(), TraceFormat::FlxtV3);
  EXPECT_EQ(r.path(), path);
  EXPECT_GT(r.size_bytes(), 0u);
  EXPECT_EQ(r.read(), d);
}

TEST(TraceReader, MissingFileThrowsWithPath) {
  try {
    (void)open_trace("/nonexistent/dir/x.trace");
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/x.trace"),
              std::string::npos);
  }
}

TEST(TraceReader, FileReadErrorsCarryThePath) {
  const std::string path = test::private_dir() + "/reader_garbage.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << std::string(64, '\x11');
  }
  try {
    (void)open_trace(path).read();
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

// --- salvage ----------------------------------------------------------

TEST(TraceReader, SalvageRecoversTornV2) {
  const TraceData d = sample_data(100, 400, 11);
  const std::string bytes = v2_bytes(d, 32);
  const TraceReader r =
      open_trace_bytes(bytes.substr(0, bytes.size() * 2 / 3));
  const SalvageReport rep = r.salvage();
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.chunks_ok, 0u);
  EXPECT_FALSE(rep.data.markers.empty());
  for (std::size_t i = 0; i < rep.data.markers.size(); ++i) {
    EXPECT_EQ(rep.data.markers[i], d.markers[i]);
  }
}

TEST(TraceReader, SalvageScansV2WithDestroyedHeader) {
  const TraceData d = sample_data(60, 200, 12);
  std::string bytes = v2_bytes(d, 32);
  for (int i = 0; i < 8; ++i) bytes[static_cast<std::size_t>(i)] = '\x5c';
  const TraceReader r = open_trace_bytes(bytes);
  EXPECT_EQ(r.format(), TraceFormat::Unknown);
  EXPECT_THROW((void)r.read(), TraceIoError);
  const SalvageReport rep = r.salvage();
  EXPECT_FALSE(rep.header_ok);
  EXPECT_EQ(rep.data.markers.size(), d.markers.size());
  EXPECT_EQ(rep.data.samples.size(), d.samples.size());
}

// --- hostile input ----------------------------------------------------

TEST(TraceReader, HostileInputsThrowButNeverCrash) {
  std::vector<std::string> inputs;
  inputs.emplace_back();                     // empty
  inputs.emplace_back("x");                  // shorter than any magic
  inputs.emplace_back("FLXT");               // magic alone, no version
  inputs.emplace_back(std::string(7, '\0')); // short zeros
  inputs.emplace_back("definitely not a trace, just text");
  {
    std::string bad_version = v1_bytes(1, 1);
    bad_version[4] = 99;
    inputs.push_back(std::move(bad_version)); // FLXT magic, version 99
  }
  {
    const std::string whole = v1_bytes(5, 5);
    inputs.push_back(whole.substr(0, whole.size() - 3)); // truncated v1
  }
  {
    const std::string whole = v2_bytes(sample_data(5, 5));
    inputs.push_back(whole.substr(0, whole.size() - 3)); // truncated v2
  }
  // Seeded random garbage, including high-bit runs.
  std::uint64_t state = 0xdeadbeef;
  for (int round = 0; round < 8; ++round) {
    std::string garbage(257, '\0');
    for (char& c : garbage) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      c = static_cast<char>(state >> 33);
    }
    inputs.push_back(std::move(garbage));
  }
  inputs.emplace_back(300, '\xff'); // varint continuation-bit bomb
  inputs.push_back(flxz_bytes());

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const TraceReader r = open_trace_bytes(std::string(inputs[i]));
    EXPECT_THROW((void)r.read(), TraceIoError) << "input " << i;
    EXPECT_NO_THROW((void)r.salvage()) << "salvage must not throw, input " << i;
  }
}

TEST(TraceReader, UnknownFormatErrorsMatchLegacyReader) {
  try {
    (void)open_trace_bytes("garbage bytes here").read();
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_STREQ(e.what(), "not a fluxtrace file (bad magic)");
  }
  std::string bad_version = v1_bytes(0, 0);
  bad_version[4] = 99;
  try {
    (void)open_trace_bytes(std::move(bad_version)).read();
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_STREQ(e.what(), "unsupported trace version 99");
  }
}

// --- triage ------------------------------------------------------------

/// classify_trace as it was when it always salvaged: the reference its
/// strict walk must reproduce, verdict and counts, on every input.
TraceTriage salvage_triage(const TraceReader& r) {
  TraceTriage t;
  t.report = r.salvage();
  t.rows = t.report.data.samples.size();
  if (t.report.clean()) {
    t.health = TraceHealth::Clean;
    return t;
  }
  const bool any_data = t.report.chunks_ok > 0 ||
                        !t.report.data.markers.empty() ||
                        !t.report.data.samples.empty() ||
                        !t.report.data.wait_edges.empty();
  t.health = any_data ? TraceHealth::Salvaged : TraceHealth::Unrecoverable;
  return t;
}

/// Small records with idle GPRs, so every byte-level mutation of the
/// image below stays cheap.
TraceData triage_data() {
  TraceData d;
  for (std::uint64_t i = 0; i < 6; ++i) {
    d.markers.push_back({1000 + 100 * i, i / 2, 0,
                         i % 2 == 0 ? MarkerKind::Enter : MarkerKind::Leave});
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    PebsSample s;
    s.tsc = 1000 + 13 * i;
    s.ip = (i % 3 == 0 ? 0x1000 : i % 3 == 1 ? 0x7f0000 : 0x3a00000) + i % 2;
    s.core = static_cast<std::uint32_t>(i % 2);
    d.samples.push_back(s);
  }
  WaitEdge e;
  e.enter = 1100;
  e.leave = 1180;
  e.item = 1;
  d.wait_edges.push_back(e);
  return d;
}

std::string v3_bytes(const TraceData& d, std::size_t per_chunk) {
  std::ostringstream os;
  write_trace_v3(os, d, per_chunk);
  return std::move(os).str();
}

void put_u32_at(std::string& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[at + i] = static_cast<char>(v >> (8 * i));
  }
}

std::uint32_t u32_at(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  return v;
}

/// A v3 sample chunk whose ip column is dictionary-coded, with its last
/// index byte forged past the dictionary and both the column and frame
/// CRCs recomputed: every checksum holds, only the strict decode can
/// refuse it.
std::string forged_dict_index_image() {
  TraceData d;
  for (std::uint64_t i = 0; i < 16; ++i) { // 16 two-bit indices, no padding
    PebsSample s;
    s.tsc = 1000 + 13 * i;
    s.ip = i % 3 == 0 ? 0x1000 : i % 3 == 1 ? 0x7f0000 : 0x3a00000;
    d.samples.push_back(s);
  }
  std::string image = v3_bytes(d, 16);
  const std::vector<V2ChunkRef> refs = index_trace_v2(image);
  EXPECT_EQ(refs.size(), 1u);
  const std::size_t payload = static_cast<std::size_t>(refs[0].offset) + 21;
  // flags u32 | min_ts i64 | max_ts i64 | n_cols u8, then per column
  // col_id u8 | codec u8 | enc_bytes u32 | enc_crc u32 | bytes.
  std::size_t at = payload + 21;
  at += 10 + u32_at(image, at + 2); // past the ts column
  EXPECT_EQ(static_cast<unsigned>(image[at]), 1u); // the ip column
  EXPECT_EQ(static_cast<unsigned>(image[at + 1]),
            static_cast<unsigned>(codec::ColumnCodec::Dict));
  const std::uint32_t len = u32_at(image, at + 2);
  image[at + 10 + len - 1] = '\xff'; // four indices of 3 over a 3-entry dict
  put_u32_at(image, at + 6, crc32(image.data() + at + 10, len));
  put_u32_at(image, payload - 4,
             crc32(image.data() + payload, refs[0].payload_bytes));
  return image;
}

/// Clean images, then every prefix and single-byte flip of a v3 image
/// and a forged one: the first kTriageClean inputs are clean.
constexpr std::size_t kTriageClean = 4;
std::vector<std::string> triage_inputs() {
  const TraceData d = triage_data();
  const std::string v2 = v2_bytes(d, 16);
  const std::string v3 = v3_bytes(d, 16);
  constexpr std::size_t kEof = 21; // the eof sentinel chunk

  // Raw marker chunks and compressed sample chunks in one v3 file.
  TraceData markers_only;
  markers_only.markers = d.markers;
  TraceData samples_only;
  samples_only.samples = d.samples;
  const std::string raw = v2_bytes(markers_only, 4);
  const std::string packed = v3_bytes(samples_only, 16);
  const std::string mixed = packed.substr(0, 8) +
                            raw.substr(8, raw.size() - 8 - kEof) +
                            packed.substr(8);
  // Intact chunks after the eof sentinel: salvage keeps reading them.
  const std::string past_eof = v3 + v3.substr(8, v3.size() - 8 - kEof);
  std::vector<std::string> inputs = {v2, v3, mixed, past_eof};

  inputs.emplace_back();
  inputs.push_back(v3.substr(0, 8)); // a bare header
  for (std::size_t n = 0; n < v3.size(); ++n) inputs.push_back(v3.substr(0, n));
  for (std::size_t at = 0; at < v3.size(); ++at) {
    for (const char mask : {'\x01', '\xff'}) {
      std::string flipped = v3;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      inputs.push_back(std::move(flipped));
    }
  }
  inputs.push_back(forged_dict_index_image());
  return inputs;
}

TEST(TraceReader, ClassifyVerdictMatchesSalvage) {
  const std::vector<std::string> inputs = triage_inputs();
  EXPECT_THROW((void)open_trace_bytes(inputs.back()).read(), TraceIoError);

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const TraceReader r = open_trace_bytes(inputs[i]);
    const TraceTriage got = classify_trace(r);
    const TraceTriage want = salvage_triage(r);
    EXPECT_EQ(got.health, want.health) << "input " << i;
    EXPECT_EQ(got.rows, want.rows) << "input " << i;
    EXPECT_EQ(got.report.chunks_ok, want.report.chunks_ok) << "input " << i;
    EXPECT_EQ(got.report.chunks_corrupt, want.report.chunks_corrupt)
        << "input " << i;
    EXPECT_EQ(got.report.chunks_resynced, want.report.chunks_resynced)
        << "input " << i;
    EXPECT_EQ(got.report.bytes_skipped, want.report.bytes_skipped)
        << "input " << i;
    EXPECT_EQ(got.report.bytes_truncated, want.report.bytes_truncated)
        << "input " << i;
    EXPECT_EQ(got.report.header_ok, want.report.header_ok) << "input " << i;
    EXPECT_EQ(got.report.eof_ok, want.report.eof_ok) << "input " << i;
  }
  for (std::size_t i = 0; i < kTriageClean; ++i) {
    EXPECT_EQ(classify_trace(open_trace_bytes(inputs[i])).health,
              TraceHealth::Clean);
  }
  // A clean verdict from the walk keeps no records.
  const TraceTriage t = classify_trace(open_trace_bytes(inputs[1]));
  EXPECT_EQ(t.rows, triage_data().samples.size());
  EXPECT_TRUE(t.report.data.samples.empty());
  EXPECT_TRUE(t.report.data.markers.empty());
}

// The frame-derived image CRC equals crc32 over the image on every
// triage input the strict walk accepts and whose payloads all verify.
TEST(TraceReader, ImageCrcMatchesCrc32OnEveryIntactTriageInput) {
  std::size_t checked = 0;
  for (const std::string& image : triage_inputs()) {
    std::vector<V2ChunkRef> chunks;
    try {
      chunks = index_trace_v2(image);
    } catch (const TraceIoError&) {
      continue;
    }
    const bool intact = std::ranges::all_of(chunks, [&](const V2ChunkRef& r) {
      return crc32(image.data() + r.offset + 21, r.payload_bytes) ==
             u32_at(image, static_cast<std::size_t>(r.offset) + 17);
    });
    if (!intact) continue;
    EXPECT_EQ(image_crc(image, chunks), crc32(image.data(), image.size()))
        << "input of " << image.size() << " bytes";
    ++checked;
  }
  EXPECT_GE(checked, 4u); // v2, v3, mixed and the forged image at least
}

} // namespace
} // namespace fluxtrace::io
