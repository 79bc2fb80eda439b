#include "fluxtrace/io/trace_file.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <sstream>

// These tests deliberately exercise the legacy read_trace()/load_trace()
// entry points, now io-internal plumbing (io/legacy.hpp) behind
// io::open_trace().
#include "fluxtrace/io/legacy.hpp"

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

TEST(TraceFile, EmptyRoundTrip) {
  std::stringstream ss;
  write_trace(ss, TraceData{});
  const TraceData back = read_trace(ss);
  EXPECT_TRUE(back.markers.empty());
  EXPECT_TRUE(back.samples.empty());
}

TEST(TraceFile, FieldFidelity) {
  TraceData d;
  Marker m;
  m.tsc = 0x0123456789abcdefull;
  m.item = 42;
  m.core = 3;
  m.kind = MarkerKind::Leave;
  d.markers.push_back(m);
  PebsSample s;
  s.tsc = 0xfedcba9876543210ull;
  s.ip = 0x400123;
  s.core = 2;
  s.regs.set(Reg::R13, 999);
  d.samples.push_back(s);

  std::stringstream ss;
  write_trace(ss, d);
  const TraceData back = read_trace(ss);
  EXPECT_EQ(back, d);
}

class TraceFileRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFileRoundTrip, RandomDataSurvives) {
  const TraceData d = sample_data(200, 1000, GetParam());
  std::stringstream ss;
  write_trace(ss, d);
  EXPECT_EQ(read_trace(ss), d);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFileRoundTrip,
                         ::testing::Values(1, 7, 42, 1234));

TEST(TraceFile, RejectsBadMagic) {
  std::stringstream ss;
  ss << "not a trace file at all";
  EXPECT_THROW((void)read_trace(ss), TraceIoError);
}

TEST(TraceFile, RejectsWrongVersion) {
  std::stringstream ss;
  write_trace(ss, TraceData{});
  std::string bytes = ss.str();
  bytes[4] = 99; // corrupt the version field
  std::stringstream corrupted(bytes);
  EXPECT_THROW((void)read_trace(corrupted), TraceIoError);
}

TEST(TraceFile, RejectsTruncation) {
  const TraceData d = sample_data(10, 50);
  std::stringstream ss;
  write_trace(ss, d);
  const std::string bytes = ss.str();
  // Truncate at several depths, including mid-record.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{10}, bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream cut(bytes.substr(0, keep));
    EXPECT_THROW((void)read_trace(cut), TraceIoError) << "keep=" << keep;
  }
}

TEST(TraceFile, RejectsInsaneCounts) {
  std::stringstream ss;
  write_trace(ss, TraceData{});
  std::string bytes = ss.str();
  bytes[8] = '\xff'; // marker count low byte
  for (int i = 9; i < 16; ++i) bytes[static_cast<std::size_t>(i)] = '\xff';
  std::stringstream corrupted(bytes);
  EXPECT_THROW((void)read_trace(corrupted), TraceIoError);
}

TEST(TraceFile, SaveAndLoadFile) {
  const TraceData d = sample_data(20, 100);
  const std::string path = test::private_dir() + "/flxt_test.trace";
  save_trace(path, d);
  EXPECT_EQ(load_trace(path), d);
}

TEST(TraceFile, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_trace("/nonexistent/dir/x.trace"), TraceIoError);
}

TEST(TraceFile, CsvExports) {
  TraceData d;
  d.markers.push_back(Marker{100, 7, 1, MarkerKind::Enter});
  PebsSample s;
  s.tsc = 123;
  s.ip = 0x400010;
  s.regs.set(Reg::R13, 5);
  d.samples.push_back(s);

  std::ostringstream ms;
  write_markers_csv(ms, d.markers);
  EXPECT_EQ(ms.str(), "tsc,item,core,kind\n100,7,1,enter\n");

  std::ostringstream ssp;
  write_samples_csv(ssp, d.samples);
  EXPECT_NE(ssp.str().find("123,4194320,0,5"), std::string::npos);
}

} // namespace
} // namespace fluxtrace::io

