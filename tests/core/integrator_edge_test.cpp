// Error-injection and degenerate-input behaviour of the integration step:
// malformed marker streams, pathological timestamps, zero-length windows.
// A tracer's analysis path sees hostile data (truncated dumps, lost
// buffers), so none of these may crash or mis-attribute silently.
#include <gtest/gtest.h>

#include "fluxtrace/core/integrator.hpp"

namespace fluxtrace::core {
namespace {

struct EdgeFixture : ::testing::Test {
  EdgeFixture() { fn = symtab.add("fn", 0x100); }

  PebsSample sample(Tsc t, std::uint32_t core = 0) {
    PebsSample s;
    s.tsc = t;
    s.core = core;
    s.ip = symtab.ip_at(fn, 0.5);
    return s;
  }

  SymbolTable symtab;
  SymbolId fn;
};

TEST_F(EdgeFixture, ZeroLengthWindowStillCatchesCoincidentSample) {
  const std::vector<Marker> ms = {
      Marker{100, 1, 0, MarkerKind::Enter},
      Marker{100, 1, 0, MarkerKind::Leave}, // enter == leave
  };
  const std::vector<PebsSample> ss = {sample(100)};
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.sample_count(1, fn), 1u);
  EXPECT_EQ(t.item_window_total(1), 0u);
  EXPECT_EQ(t.elapsed(1, fn), 0u) << "one sample is never estimable";
}

TEST_F(EdgeFixture, DuplicateEnterLeavePairsForSameItem) {
  // The same item re-enters a core later (e.g. request retried): both
  // windows are kept and the spans merge per (item, fn, core) bucket.
  const std::vector<Marker> ms = {
      Marker{100, 1, 0, MarkerKind::Enter},
      Marker{200, 1, 0, MarkerKind::Leave},
      Marker{300, 1, 0, MarkerKind::Enter},
      Marker{400, 1, 0, MarkerKind::Leave},
  };
  const std::vector<PebsSample> ss = {sample(150), sample(350)};
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.sample_count(1, fn), 2u);
  EXPECT_EQ(t.item_window_total(1), 200u); // both windows summed
}

TEST_F(EdgeFixture, LeaveBeforeEnterTimestampsProduceNoWindow) {
  // A corrupt stream where the pair's timestamps are inverted after a
  // partial dump: pairing is positional per id, so the "window" would be
  // negative — WindowIndex pairs Enter→Leave in arrival order,
  // and the inverted pair yields leave < enter; the integrator must not
  // attribute anything to it.
  const std::vector<Marker> ms = {
      Marker{500, 1, 0, MarkerKind::Enter},
      Marker{100, 1, 0, MarkerKind::Leave},
  };
  const std::vector<PebsSample> ss = {sample(300)};
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  // Sorted internally by tsc: Leave(100) arrives first (dropped as
  // unmatched), Enter(500) never closes (dropped).
  EXPECT_EQ(t.windows().size(), 0u);
  EXPECT_EQ(t.unmatched_item(), 1u);
}

TEST_F(EdgeFixture, InterleavedItemsOnOneCoreSelfSwitchingStyle) {
  // a enters, a leaves, b enters, b leaves with zero gaps: boundary
  // samples at the exact switch go to the window whose edge they touch
  // (the later-entered window wins: the latest-entered cover).
  const std::vector<Marker> ms = {
      Marker{100, 1, 0, MarkerKind::Enter},
      Marker{200, 1, 0, MarkerKind::Leave},
      Marker{200, 2, 0, MarkerKind::Enter},
      Marker{300, 2, 0, MarkerKind::Leave},
  };
  const std::vector<PebsSample> ss = {sample(200)};
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.sample_count(2, fn), 1u);
  EXPECT_EQ(t.sample_count(1, fn), 0u);
}

TEST_F(EdgeFixture, ManyIdenticalTimestampSamples) {
  const std::vector<Marker> ms = {
      Marker{100, 1, 0, MarkerKind::Enter},
      Marker{300, 1, 0, MarkerKind::Leave},
  };
  std::vector<PebsSample> ss;
  for (int i = 0; i < 50; ++i) ss.push_back(sample(200));
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.sample_count(1, fn), 50u);
  EXPECT_EQ(t.elapsed(1, fn), 0u) << "zero span despite many samples";
}

TEST_F(EdgeFixture, SamplesOnlyNoMarkers) {
  std::vector<PebsSample> ss = {sample(100), sample(200)};
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate({}, ss);
  EXPECT_EQ(t.unmatched_item(), 2u);
  EXPECT_TRUE(t.items().empty());
}

TEST_F(EdgeFixture, MarkersOnlyNoSamples) {
  const std::vector<Marker> ms = {
      Marker{100, 1, 0, MarkerKind::Enter},
      Marker{200, 1, 0, MarkerKind::Leave},
  };
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, {});
  EXPECT_EQ(t.item_window_total(1), 100u)
      << "service-level window survives with zero samples";
  EXPECT_EQ(t.item_estimated_total(1), 0u);
}

TEST_F(EdgeFixture, HugeTimestampsDoNotOverflow) {
  const Tsc base = ~Tsc{0} - 10000;
  const std::vector<Marker> ms = {
      Marker{base, 1, 0, MarkerKind::Enter},
      Marker{base + 5000, 1, 0, MarkerKind::Leave},
  };
  const std::vector<PebsSample> ss = {sample(base + 100), sample(base + 4900)};
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.elapsed(1, fn), 4800u);
}

} // namespace
} // namespace fluxtrace::core
