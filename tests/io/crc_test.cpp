// io::crc32 kernels and the CRC algebra: the PCLMULQDQ fold agrees with
// the slice-by-16 reference on every alignment and length, crc32()
// agrees with both whichever kernel the host picked, crc32_combine()
// equals the CRC of the concatenation, and io::image_crc — the whole
// image's CRC from its chunk frames — equals crc32 over an intact image
// for any chunking of either container version.
#include "fluxtrace/io/crc.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/v3.hpp"

namespace fluxtrace::io {
namespace {

std::vector<unsigned char> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> b(n);
  for (unsigned char& c : b) c = static_cast<unsigned char>(rng());
  return b;
}

TEST(Crc32, FoldMatchesSliceBy16AtEveryOffsetAndLength) {
  if (!detail::crc32_fold_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1: crc32 runs slice-by-16";
  }
  const std::vector<unsigned char> buf = random_bytes(4096 + 16, 1);
  std::size_t mismatches = 0;
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const unsigned char* p = buf.data() + off;
      if (detail::crc32_fold(p, len) != detail::crc32_slice16(p, len)) {
        ADD_FAILURE_AT(__FILE__, __LINE__)
            << "offset " << off << " length " << len;
        if (++mismatches == 8) return;
      }
    }
  }
}

TEST(Crc32, FoldMatchesSliceBy16OnLargeBuffers) {
  if (!detail::crc32_fold_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1: crc32 runs slice-by-16";
  }
  std::mt19937 rng(7);
  for (int i = 0; i < 4; ++i) {
    const std::size_t n = (1u << 20) + rng() % (7u << 20); // 1–8 MiB
    const std::vector<unsigned char> buf = random_bytes(n, rng());
    EXPECT_EQ(detail::crc32_fold(buf.data(), n),
              detail::crc32_slice16(buf.data(), n))
        << n << " bytes";
  }
}

TEST(Crc32, DispatchMatchesTheReferenceOnEveryHost) {
  const std::vector<unsigned char> buf = random_bytes(1024, 3);
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    ASSERT_EQ(crc32(buf.data(), len), detail::crc32_slice16(buf.data(), len))
        << len;
  }
}

TEST(Crc32Combine, EqualsTheCrcOfTheConcatenation) {
  const std::vector<unsigned char> buf = random_bytes(1 << 20, 5);
  std::mt19937 rng(11);
  std::vector<std::pair<std::size_t, std::size_t>> splits = {
      {0, 0}, {0, 1}, {1, 0}, {5, 0}, {0, 77}, {13, 21}, {8, 1 << 19}};
  for (int i = 0; i < 200; ++i) {
    const std::size_t a = rng() % 5000;
    splits.emplace_back(a, rng() % (i < 190 ? 5000 : buf.size() - a));
  }
  for (const auto& [la, lb] : splits) {
    const unsigned char* p = buf.data();
    EXPECT_EQ(crc32_combine(crc32(p, la), crc32(p + la, lb), lb),
              crc32(p, la + lb))
        << "|a|=" << la << " |b|=" << lb;
  }
}

TraceData random_trace(std::mt19937& rng) {
  TraceData d;
  const std::size_t n_markers = rng() % 60;
  const std::size_t n_samples = rng() % 300;
  const std::size_t n_waits = rng() % 20;
  for (std::size_t i = 0; i < n_markers; ++i) {
    const auto core = static_cast<std::uint32_t>(i % 4);
    d.markers.push_back({1000 + 10 * i, i / 2, core,
                         i % 2 == 0 ? MarkerKind::Enter : MarkerKind::Leave});
  }
  for (std::size_t i = 0; i < n_samples; ++i) {
    PebsSample s;
    s.tsc = 1000 + 3 * i + rng() % 3;
    s.ip = 0x1000 + rng() % 64;
    s.core = static_cast<std::uint32_t>(rng() % 4);
    for (std::uint64_t& r : s.regs.v) r = rng() % 5;
    d.samples.push_back(s);
  }
  for (std::size_t i = 0; i < n_waits; ++i) {
    WaitEdge e;
    e.enter = 1000 + 20 * i;
    e.leave = e.enter + 1 + rng() % 50;
    e.item = i;
    e.holder_core = static_cast<std::uint32_t>(rng() % 4);
    d.wait_edges.push_back(e);
  }
  return d;
}

TEST(ImageCrc, EqualsCrc32ForRandomChunkingOfBothVersions) {
  std::mt19937 rng(21);
  for (int i = 0; i < 100; ++i) {
    const TraceData d = random_trace(rng);
    const std::size_t per_chunk = 1 + rng() % 70;
    std::ostringstream v2, v3;
    write_trace_v2(v2, d, per_chunk);
    write_trace_v3(v3, d, per_chunk);
    for (const std::string& image : {v2.str(), v3.str()}) {
      const ImageWalk w = walk_image(image);
      EXPECT_EQ(w.crc, crc32(image.data(), image.size()))
          << "trace " << i << " per_chunk " << per_chunk;
      EXPECT_EQ(image_crc(image, w.chunks), w.crc);
      EXPECT_EQ(w.size, image.size());
    }
  }
}

TEST(ImageCrc, ReadsNoPayloadSoAFlippedPayloadKeepsTheFrameCrc) {
  std::mt19937 rng(4);
  const TraceData d = random_trace(rng);
  std::ostringstream os;
  write_trace_v3(os, d, 16);
  const std::string clean = os.str();
  const ImageWalk w = walk_image(clean);
  ASSERT_FALSE(w.chunks.empty());
  std::string flipped = clean;
  const V2ChunkRef& r = w.chunks.back();
  flipped[r.offset + 21 + r.payload_bytes / 2] ^= 0x10;
  // The frames are untouched, so the frame-derived CRC is the intact
  // image's; the payload CRC every decode checks still catches the flip.
  EXPECT_EQ(walk_image(flipped).crc, w.crc);
  EXPECT_NE(crc32(flipped.data(), flipped.size()), w.crc);
}

TEST(ImageCrc, RefusesChunksThatDoNotTileTheImage) {
  std::mt19937 rng(9);
  std::ostringstream os;
  write_trace_v3(os, random_trace(rng), 8);
  const std::string image = os.str();
  std::vector<V2ChunkRef> chunks = index_trace_v2(image);
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_THROW((void)image_crc(image.substr(0, image.size() - 1), chunks),
               TraceIoError);
  std::vector<V2ChunkRef> overlong = chunks;
  overlong.back().payload_bytes += 1u << 20; // its frame runs off the end
  EXPECT_THROW((void)image_crc(image, overlong), TraceIoError);
  chunks.erase(chunks.begin());
  EXPECT_THROW((void)image_crc(image, chunks), TraceIoError);
}

} // namespace
} // namespace fluxtrace::io
