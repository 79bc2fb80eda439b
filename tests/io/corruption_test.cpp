// Error context on the file paths of the one trace writer and the one
// reader: a failure names the path it happened on; and a forged record
// count in a still-readable raw chunk is refused before it can size an
// allocation. (Other damage robustness of the chunk family lives in
// chunked_test.cpp and v3_test.cpp.)
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <sstream>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"

namespace fluxtrace::io {
namespace {

TraceData small_data() {
  TraceData d;
  for (std::uint64_t i = 0; i < 64; ++i) {
    d.markers.push_back(Marker{1000 + 10 * i, i, 0, MarkerKind::Enter});
    PebsSample s;
    s.tsc = 1001 + 10 * i;
    s.ip = 0x400000 + i;
    d.samples.push_back(s);
  }
  return d;
}

void expect_error_names(const std::string& path, auto&& action) {
  try {
    action();
    FAIL() << "expected TraceIoError for " << path;
  } catch (const TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(TraceCorruption, PathErrorsCarryContext) {
  const std::string missing = "/nonexistent/dir/x.flxt";
  expect_error_names(missing, [&] { (void)open_trace(missing); });
  expect_error_names(missing, [&] { save_trace_v3(missing, TraceData{}); });

  // A write the device refuses (ENOSPC) surfaces as an error naming the
  // path, never as a silently truncated file.
  struct stat st{};
  if (::stat("/dev/full", &st) == 0) {
    expect_error_names("/dev/full",
                       [] { save_trace_v3("/dev/full", small_data()); });
  }
}

TEST(TraceCorruption, RawChunkHugeCountsRejectedBeforeAllocating) {
  // A raw chunk's record count is pinned by its payload size, so a count
  // forged to 2^32-1 behind a valid header CRC must fail that check
  // instead of sizing a reserve of 2^32 markers.
  std::ostringstream os;
  write_trace_v2(os, small_data());
  std::string image = std::move(os).str();
  const auto refs = index_trace_v2(image);
  ASSERT_EQ(refs.size(), 2u);
  ASSERT_EQ(refs[0].type, kChunkTypeMarkers);
  const std::size_t at = static_cast<std::size_t>(refs[0].offset);
  for (std::size_t i = 0; i < 4; ++i) image[at + 5 + i] = '\xff';
  const std::uint32_t header_crc = crc32(image.data() + at, 13);
  for (std::size_t i = 0; i < 4; ++i) {
    image[at + 13 + i] = static_cast<char>(header_crc >> (8 * i));
  }
  const TraceReader r = open_trace_bytes(image);
  EXPECT_THROW((void)r.read(), TraceIoError);
  const SalvageReport rep = r.salvage();
  EXPECT_EQ(rep.chunks_corrupt, 1u);
  EXPECT_TRUE(rep.data.markers.empty());
  EXPECT_EQ(rep.data.samples, small_data().samples);
}

} // namespace
} // namespace fluxtrace::io
