// Robustness of the v1 ("FLXT") and compact ("FLXZ") parsers against
// damaged input: every prefix truncation must throw TraceIoError, and
// every single-byte corruption must either throw or return a parse —
// never crash, hang, or allocate absurdly. (Byte-flip *detection* needs
// checksums, which only the v2 chunked container has.)
#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <sstream>

#include "fluxtrace/io/compact.hpp"
#include "fluxtrace/io/trace_file.hpp"

// These tests deliberately exercise the legacy read_*()/load_*() entry
// points, now io-internal plumbing (io/legacy.hpp) behind
// io::open_trace().
#include "fluxtrace/io/legacy.hpp"

namespace fluxtrace::io {
namespace {

TraceData small_data(std::uint64_t seed = 1) {
  auto rnd = [state = seed]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  TraceData d;
  for (int i = 0; i < 8; ++i) {
    Marker m;
    m.tsc = rnd() % 100000;
    m.item = rnd() % 64;
    m.core = static_cast<std::uint32_t>(rnd() % 4);
    m.kind = (i % 2 == 0) ? MarkerKind::Enter : MarkerKind::Leave;
    d.markers.push_back(m);
  }
  for (int i = 0; i < 12; ++i) {
    PebsSample s;
    s.tsc = rnd() % 100000;
    s.ip = rnd();
    s.core = static_cast<std::uint32_t>(rnd() % 4);
    for (std::uint64_t& r : s.regs.v) r = rnd();
    d.samples.push_back(s);
  }
  return d;
}

std::string v1_bytes(const TraceData& d) {
  std::ostringstream os;
  write_trace(os, d);
  return std::move(os).str();
}

std::string compact_bytes(const TraceData& d) {
  std::ostringstream os;
  write_compact(os, d);
  return std::move(os).str();
}

TEST(TraceCorruption, V1EveryPrefixTruncationThrows) {
  const std::string bytes = v1_bytes(small_data());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::istringstream in(bytes.substr(0, keep));
    EXPECT_THROW((void)read_trace(in), TraceIoError) << "keep=" << keep;
  }
  std::istringstream whole(bytes);
  EXPECT_NO_THROW((void)read_trace(whole));
}

TEST(TraceCorruption, V1EveryByteFlipThrowsOrParses) {
  const TraceData d = small_data(3);
  const std::string bytes = v1_bytes(d);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string mutated = bytes;
      mutated[at] = static_cast<char>(
          static_cast<unsigned char>(mutated[at]) ^ mask);
      std::istringstream in(mutated);
      try {
        const TraceData back = read_trace(in);
        // v1 has no checksums: a flip in a record body parses to altered
        // records. The parse must still be structurally bounded.
        EXPECT_LE(back.markers.size(), d.markers.size() + 1)
            << "at=" << at << " mask=" << int(mask);
        EXPECT_LE(back.samples.size(), d.samples.size() + 1)
            << "at=" << at << " mask=" << int(mask);
      } catch (const TraceIoError&) {
        // expected for flips in the header, counts, or marker kinds
      }
    }
  }
}

TEST(TraceCorruption, V1HugeCountsRejectedBeforeAllocating) {
  std::string bytes = v1_bytes(TraceData{});
  for (std::size_t i = 8; i < 16; ++i) bytes[i] = '\xff'; // marker count
  std::istringstream in(bytes);
  EXPECT_THROW((void)read_trace(in), TraceIoError);
}

TEST(TraceCorruption, CompactEveryPrefixTruncationThrows) {
  const std::string bytes = compact_bytes(small_data());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::istringstream in(bytes.substr(0, keep));
    EXPECT_THROW((void)read_compact(in), TraceIoError) << "keep=" << keep;
  }
  std::istringstream whole(bytes);
  EXPECT_NO_THROW((void)read_compact(whole));
}

TEST(TraceCorruption, CompactEveryByteFlipThrowsOrParses) {
  const std::string bytes = compact_bytes(small_data(7));
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string mutated = bytes;
      mutated[at] = static_cast<char>(
          static_cast<unsigned char>(mutated[at]) ^ mask);
      std::istringstream in(mutated);
      try {
        const TraceData back = read_compact(in);
        EXPECT_LT(back.markers.size() + back.samples.size(), 1u << 20)
            << "at=" << at << " mask=" << int(mask);
      } catch (const TraceIoError&) {
        // expected: bad magic/version, torn varint, bad kind…
      }
    }
  }
}

TEST(TraceCorruption, PathErrorsCarryContext) {
  try {
    (void)load_trace("/nonexistent/dir/x.trace");
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/x.trace"),
              std::string::npos);
  }
  try {
    save_trace("/nonexistent/dir/x.trace", TraceData{});
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/x.trace"),
              std::string::npos);
  }
  try {
    (void)load_compact("/nonexistent/dir/x.flxz");
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/x.flxz"),
              std::string::npos);
  }
  try {
    save_compact("/nonexistent/dir/x.flxz", TraceData{});
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/x.flxz"),
              std::string::npos);
  }
}

TEST(TraceCorruption, CompactSaveLoadRoundTrip) {
  const TraceData d = small_data(11);
  const std::string path = test::private_dir() + "/flxz_test.flxz";
  save_compact(path, d);
  const TraceData back = load_compact(path);
  // Compact is lossy in GPRs other than R13 and re-sorts by (core, tsc);
  // counts survive exactly.
  EXPECT_EQ(back.markers.size(), d.markers.size());
  EXPECT_EQ(back.samples.size(), d.samples.size());
}

} // namespace
} // namespace fluxtrace::io

