#include "fluxtrace/core/integrator.hpp"

#include <gtest/gtest.h>

namespace fluxtrace::core {
namespace {

struct IntegratorFixture : ::testing::Test {
  IntegratorFixture() {
    fa = symtab.add("fa", 0x100);
    fb = symtab.add("fb", 0x100);
  }

  Marker marker(std::uint32_t core, Tsc t, ItemId item, MarkerKind k) {
    return Marker{t, item, core, k};
  }
  PebsSample sample(std::uint32_t core, Tsc t, SymbolId fn,
                    double frac = 0.5) {
    PebsSample s;
    s.core = core;
    s.tsc = t;
    s.ip = symtab.ip_at(fn, frac);
    return s;
  }

  SymbolTable symtab;
  SymbolId fa, fb;
};

TEST_F(IntegratorFixture, WindowsFromBalancedMarkers) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 200, 1, MarkerKind::Leave),
      marker(0, 300, 2, MarkerKind::Enter),
      marker(0, 450, 2, MarkerKind::Leave),
  };
  const auto ws = WindowIndex(ms).windows();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].item, 1u);
  EXPECT_EQ(ws[0].enter, 100u);
  EXPECT_EQ(ws[0].leave, 200u);
  EXPECT_EQ(ws[1].length(), 150u);
}

TEST_F(IntegratorFixture, MalformedMarkersAreDropped) {
  const std::vector<Marker> ms = {
      marker(0, 50, 7, MarkerKind::Leave),   // Leave without Enter
      marker(0, 100, 1, MarkerKind::Enter),  // Enter shadowed by next Enter
      marker(0, 150, 2, MarkerKind::Enter),
      marker(0, 200, 2, MarkerKind::Leave),
      marker(0, 300, 3, MarkerKind::Enter),  // Enter without Leave at end
  };
  const auto ws = WindowIndex(ms).windows();
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].item, 2u);
}

TEST_F(IntegratorFixture, WindowsPerCoreAreIndependent) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(1, 120, 1, MarkerKind::Enter), // same item, other core
      marker(1, 180, 1, MarkerKind::Leave),
      marker(0, 200, 1, MarkerKind::Leave),
  };
  const auto ws = WindowIndex(ms).windows();
  EXPECT_EQ(ws.size(), 2u);
}

TEST_F(IntegratorFixture, SamplesMapToWindowsByTimestamp) {
  // The paper's Fig. 6 walkthrough: t0 < ta < t1 ⇒ sample ta → item #0.
  const std::vector<Marker> ms = {
      marker(0, 100, 10, MarkerKind::Enter),
      marker(0, 200, 10, MarkerKind::Leave),
      marker(0, 250, 11, MarkerKind::Enter),
      marker(0, 400, 11, MarkerKind::Leave),
  };
  const std::vector<PebsSample> ss = {
      sample(0, 120, fa), sample(0, 190, fa),  // item 10, fa
      sample(0, 300, fa), sample(0, 390, fa),  // item 11, fa
      sample(0, 320, fb), sample(0, 360, fb),  // item 11, fb
      sample(0, 220, fa),                      // between windows: unmatched
  };
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.elapsed(10, fa), 70u);
  EXPECT_EQ(t.elapsed(11, fa), 90u);
  EXPECT_EQ(t.elapsed(11, fb), 40u);
  EXPECT_EQ(t.unmatched_item(), 1u);
  EXPECT_EQ(t.total_samples(), 6u);
}

TEST_F(IntegratorFixture, WindowBoundariesAreInclusive) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 200, 1, MarkerKind::Leave),
  };
  const std::vector<PebsSample> ss = {
      sample(0, 100, fa), // exactly at enter
      sample(0, 200, fa), // exactly at leave
      sample(0, 99, fa),  // just before: unmatched
      sample(0, 201, fa), // just after: unmatched
  };
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.sample_count(1, fa), 2u);
  EXPECT_EQ(t.unmatched_item(), 2u);
}

TEST_F(IntegratorFixture, SamplesOnOtherCoresDoNotLeakIn) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 200, 1, MarkerKind::Leave),
  };
  const std::vector<PebsSample> ss = {
      sample(1, 150, fa), // right time, wrong core
  };
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.sample_count(1, fa), 0u);
  EXPECT_EQ(t.unmatched_item(), 1u);
}

TEST_F(IntegratorFixture, UnresolvableIpCountsAsUnmatchedSymbol) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 200, 1, MarkerKind::Leave),
  };
  PebsSample s;
  s.core = 0;
  s.tsc = 150;
  s.ip = 0x10; // below the text base
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, {&s, 1});
  EXPECT_EQ(t.unmatched_symbol(), 1u);
  EXPECT_EQ(t.total_samples(), 0u);
}

TEST_F(IntegratorFixture, OutOfOrderInputIsSortedInternally) {
  std::vector<Marker> ms = {
      marker(0, 250, 2, MarkerKind::Enter),
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 400, 2, MarkerKind::Leave),
      marker(0, 200, 1, MarkerKind::Leave),
  };
  const std::vector<PebsSample> ss = {
      sample(0, 300, fa), sample(0, 350, fa),
      sample(0, 150, fb), sample(0, 160, fb),
  };
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate(ms, ss);
  EXPECT_EQ(t.elapsed(2, fa), 50u);
  EXPECT_EQ(t.elapsed(1, fb), 10u);
}

TEST_F(IntegratorFixture, RegisterModeIgnoresWindows) {
  // §V-A: item ids come from R13; no markers needed at all.
  std::vector<PebsSample> ss;
  for (const Tsc t : {100u, 150u, 200u}) {
    PebsSample s = sample(0, t, fa);
    s.regs.set(kItemIdReg, 42);
    ss.push_back(s);
  }
  PebsSample idle = sample(0, 300, fa);
  idle.regs.set(kItemIdReg, kNoItem);
  ss.push_back(idle);

  TraceIntegrator integ(symtab, IntegratorConfig{true});
  const TraceTable t = integ.integrate({}, ss);
  EXPECT_EQ(t.elapsed(42, fa), 100u);
  EXPECT_EQ(t.unmatched_item(), 1u);
}

TEST_F(IntegratorFixture, EmptyInputsYieldEmptyTable) {
  TraceIntegrator integ(symtab);
  const TraceTable t = integ.integrate({}, {});
  EXPECT_TRUE(t.items().empty());
  EXPECT_EQ(t.total_samples(), 0u);
}

// Property: brute-force oracle over randomized windows and samples.
class IntegratorOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegratorOracleTest, MatchesBruteForceAttribution) {
  std::uint64_t state = GetParam();
  auto rnd = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
  };
  SymbolTable symtab;
  std::vector<SymbolId> fns;
  for (int i = 0; i < 4; ++i) {
    fns.push_back(symtab.add("fn" + std::to_string(i), 0x100));
  }

  // Non-overlapping windows per core, random gaps.
  std::vector<Marker> ms;
  std::vector<ItemWindow> ws;
  for (std::uint32_t core = 0; core < 2; ++core) {
    Tsc t = 0;
    for (ItemId item = 1; item <= 20; ++item) {
      t += 10 + rnd() % 50;
      const Tsc enter = t;
      t += 20 + rnd() % 100;
      const Tsc leave = t;
      ms.push_back(Marker{enter, item * 100 + core, core, MarkerKind::Enter});
      ms.push_back(Marker{leave, item * 100 + core, core, MarkerKind::Leave});
      ws.push_back(ItemWindow{item * 100 + core, core, enter, leave});
    }
  }

  std::vector<PebsSample> ss;
  for (int i = 0; i < 600; ++i) {
    PebsSample s;
    s.core = rnd() % 2;
    s.tsc = rnd() % 3000;
    s.ip = symtab.ip_at(fns[rnd() % fns.size()],
                        static_cast<double>(rnd() % 100) / 100.0);
    ss.push_back(s);
  }

  TraceIntegrator integ(symtab);
  const TraceTable got = integ.integrate(ms, ss);

  // Brute force.
  TraceTable want;
  for (const PebsSample& s : ss) {
    const ItemWindow* hit = nullptr;
    for (const ItemWindow& w : ws) {
      if (w.core == s.core && s.tsc >= w.enter && s.tsc <= w.leave) {
        hit = &w;
        break;
      }
    }
    if (hit == nullptr) continue;
    want.add_sample(hit->item, *symtab.resolve(s.ip), s.core, s.tsc);
  }

  for (const ItemWindow& w : ws) {
    for (const SymbolId fn : fns) {
      EXPECT_EQ(got.elapsed(w.item, fn), want.elapsed(w.item, fn))
          << "item " << w.item << " fn " << fn;
      EXPECT_EQ(got.sample_count(w.item, fn), want.sample_count(w.item, fn));
    }
  }
  EXPECT_EQ(got.total_samples(), want.total_samples());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegratorOracleTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

} // namespace
} // namespace fluxtrace::core
