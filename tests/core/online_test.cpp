#include "fluxtrace/core/online.hpp"

#include <gtest/gtest.h>

#include "fluxtrace/core/integrator.hpp"

namespace fluxtrace::core {
namespace {

struct OnlineFixture : ::testing::Test {
  OnlineFixture() {
    fa = symtab.add("fa", 0x100);
    fb = symtab.add("fb", 0x100);
  }

  Marker enter(Tsc t, ItemId id, std::uint32_t core = 0) {
    return Marker{t, id, core, MarkerKind::Enter};
  }
  Marker leave(Tsc t, ItemId id, std::uint32_t core = 0) {
    return Marker{t, id, core, MarkerKind::Leave};
  }
  PebsSample sample(Tsc t, SymbolId fn, std::uint32_t core = 0) {
    PebsSample s;
    s.tsc = t;
    s.core = core;
    s.ip = symtab.ip_at(fn, 0.5);
    return s;
  }

  SymbolTable symtab;
  SymbolId fa, fb;
};

TEST_F(OnlineFixture, FinalizesOnWatermark) {
  OnlineTracer ot(symtab);
  ot.on_marker(enter(100, 1));
  ot.on_marker(leave(200, 1));
  ot.on_sample(sample(120, fa));
  ot.on_sample(sample(180, fa));
  EXPECT_EQ(ot.items_completed(), 0u) << "cannot finalize before proof";
  ot.on_sample(sample(250, fa)); // watermark passes item 1's leave
  EXPECT_EQ(ot.items_completed(), 1u);
  ASSERT_EQ(ot.recent().size(), 1u);
  const OnlineResult& r = ot.recent().front();
  EXPECT_EQ(r.item, 1u);
  EXPECT_EQ(r.window, 100u);
  EXPECT_EQ(r.elapsed(fa), 60u);
}

TEST_F(OnlineFixture, FinishFlushesPending) {
  OnlineTracer ot(symtab);
  ot.on_marker(enter(100, 1));
  ot.on_marker(leave(200, 1));
  ot.on_sample(sample(150, fa));
  ot.finish();
  EXPECT_EQ(ot.items_completed(), 1u);
}

TEST_F(OnlineFixture, DelayedBatchesStillAttributeCorrectly) {
  // Samples arrive long after the markers (buffer drain), but in time
  // order — the real system's arrival pattern.
  OnlineTracer ot(symtab);
  for (ItemId id = 1; id <= 5; ++id) {
    ot.on_marker(enter(id * 1000, id));
    ot.on_marker(leave(id * 1000 + 500, id));
  }
  for (ItemId id = 1; id <= 5; ++id) {
    ot.on_sample(sample(id * 1000 + 100, fa));
    ot.on_sample(sample(id * 1000 + 400, fa));
  }
  ot.finish();
  EXPECT_EQ(ot.items_completed(), 5u);
  EXPECT_EQ(ot.samples_unmatched(), 0u);
  for (const OnlineResult& r : ot.recent()) {
    EXPECT_EQ(r.elapsed(fa), 300u) << "item " << r.item;
  }
}

TEST_F(OnlineFixture, MatchesOfflineIntegrator) {
  // Property: the streaming pipeline must agree with the offline
  // TraceIntegrator on a randomized stream.
  std::uint64_t state = 99;
  auto rnd = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
  };
  std::vector<Marker> markers;
  std::vector<PebsSample> samples;
  Tsc t = 0;
  for (ItemId id = 1; id <= 40; ++id) {
    t += 20 + rnd() % 50;
    const Tsc e = t;
    t += 50 + rnd() % 200;
    const Tsc l = t;
    markers.push_back(enter(e, id));
    markers.push_back(leave(l, id));
    const int n = 2 + static_cast<int>(rnd() % 6);
    for (int i = 0; i < n; ++i) {
      samples.push_back(
          sample(e + 1 + rnd() % (l - e), rnd() % 2 == 0 ? fa : fb));
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const PebsSample& a, const PebsSample& b) {
              return a.tsc < b.tsc;
            });

  OnlineTracerConfig cfg;
  cfg.keep_results = 100;
  OnlineTracer ot(symtab, cfg);
  for (const Marker& m : markers) ot.on_marker(m);
  for (const PebsSample& s : samples) ot.on_sample(s);
  ot.finish();

  TraceIntegrator integ(symtab);
  const TraceTable offline = integ.integrate(markers, samples);

  EXPECT_EQ(ot.items_completed(), 40u);
  for (const OnlineResult& r : ot.recent()) {
    EXPECT_EQ(r.elapsed(fa), offline.elapsed(r.item, fa)) << r.item;
    EXPECT_EQ(r.elapsed(fb), offline.elapsed(r.item, fb)) << r.item;
    EXPECT_EQ(r.window, offline.item_window_total(r.item));
  }
}

TEST_F(OnlineFixture, AnomalyTriggersDumpWithRawSamples) {
  OnlineTracerConfig cfg;
  cfg.detector = DetectorConfig{3.0, 4};
  OnlineTracer ot(symtab, cfg);

  std::vector<std::pair<ItemId, std::size_t>> dumped;
  ot.set_dump_callback([&](const OnlineResult& r, const SampleVec& raw) {
    dumped.emplace_back(r.item, raw.size());
  });

  // 20 ordinary items (with natural jitter, so sigma > 0), then one with
  // a 10x window and fa span.
  Tsc t = 0;
  for (ItemId id = 1; id <= 21; ++id) {
    const Tsc len = id == 21 ? 5000u : 500u + (id % 5) * 8u;
    ot.on_marker(enter(t, id));
    ot.on_sample(sample(t + 10, fa));
    ot.on_sample(sample(t + len - 10, fa));
    ot.on_marker(leave(t + len, id));
    t += len + 100;
  }
  ot.finish();

  ASSERT_EQ(dumped.size(), 1u);
  EXPECT_EQ(dumped[0].first, 21u);
  EXPECT_EQ(dumped[0].second, 2u); // its two raw samples
  EXPECT_EQ(ot.dumps(), 1u);
  EXPECT_EQ(ot.bytes_dumped(), 2 * kPebsRecordBytes);
  EXPECT_EQ(ot.bytes_seen(), 42 * kPebsRecordBytes);
}

TEST_F(OnlineFixture, UnmatchedSamplesCounted) {
  OnlineTracer ot(symtab);
  ot.on_marker(enter(100, 1));
  ot.on_marker(leave(200, 1));
  ot.on_sample(sample(50, fa));  // before any window
  ot.on_sample(sample(250, fa)); // between windows (finalizes item 1)
  ot.finish();
  EXPECT_EQ(ot.samples_unmatched(), 2u);
  EXPECT_EQ(ot.items_completed(), 1u);
}

TEST_F(OnlineFixture, MalformedMarkersDropped) {
  OnlineTracer ot(symtab);
  ot.on_marker(leave(50, 9));   // Leave without Enter
  ot.on_marker(enter(100, 1));  // shadowed by the next Enter
  ot.on_marker(enter(150, 2));
  ot.on_marker(leave(250, 2));
  ot.on_marker(enter(300, 3));  // never closed
  ot.finish();
  EXPECT_EQ(ot.items_completed(), 1u);
  EXPECT_EQ(ot.markers_dropped(), 3u);
}

TEST_F(OnlineFixture, NestedEnterKeepsTheOpenItem) {
  // An Enter while another item is open does not drop that item: windows
  // pair by item id, and a sample belongs to the latest-entered window
  // covering it — the batch rule.
  OnlineTracer ot(symtab);
  ot.on_marker(enter(100, 1));
  ot.on_marker(enter(150, 2));
  ot.on_marker(leave(250, 2));
  ot.on_marker(leave(400, 1));
  ot.on_sample(sample(120, fa)); // item 1
  ot.on_sample(sample(200, fb)); // item 2, nested
  ot.on_sample(sample(240, fb)); // item 2
  ot.on_sample(sample(300, fa)); // item 1 again
  ot.on_sample(sample(500, fa)); // past both windows
  EXPECT_EQ(ot.items_completed(), 2u);
  EXPECT_EQ(ot.markers_dropped(), 0u);
  EXPECT_EQ(ot.samples_unmatched(), 1u);
  for (const OnlineResult& r : ot.recent()) {
    if (r.item == 1) {
      EXPECT_EQ(r.elapsed(fa), 180u);
      EXPECT_EQ(r.elapsed(fb), 0u);
    } else {
      EXPECT_EQ(r.item, 2u);
      EXPECT_EQ(r.elapsed(fb), 40u);
    }
  }
}

TEST_F(OnlineFixture, SamplesHeldBehindAnEnterNeverLeftCountInBacklog) {
  // Item 1's Leave never comes. Until the end, every sample between the
  // windows after it waits on item 1; the backlog counts them, so the
  // shed trigger (and a session supervisor) sees the pile-up.
  OnlineTracerConfig cfg;
  cfg.shed_backlog = 16;
  OnlineTracer ot(symtab, cfg);
  std::vector<std::size_t> shed;
  ot.set_shed_callback(
      [&](std::uint32_t, std::size_t backlog) { shed.push_back(backlog); });
  ot.on_marker(enter(100, 1));
  Tsc t = 200;
  for (ItemId id = 2; id <= 41; ++id) {
    ot.on_marker(enter(t, id));
    ot.on_marker(leave(t + 50, id));
    ot.on_sample(sample(t + 10, fa)); // inside item id
    ot.on_sample(sample(t + 70, fa)); // between windows: held
    t += 100;
  }
  EXPECT_EQ(ot.items_completed(), 40u);
  EXPECT_EQ(ot.backlog(0), 41u); // item 1's open window + 40 held samples
  EXPECT_EQ(ot.max_backlog(), 41u);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], 16u);

  ot.finish(); // item 1 makes no window; its held samples match nothing
  EXPECT_EQ(ot.backlog(0), 0u);
  EXPECT_EQ(ot.samples_unmatched(), 40u);
  EXPECT_EQ(ot.markers_dropped(), 1u);
}

TEST_F(OnlineFixture, CoresAreIndependent) {
  OnlineTracer ot(symtab);
  ot.on_marker(enter(100, 1, 0));
  ot.on_marker(enter(100, 2, 1));
  ot.on_marker(leave(300, 1, 0));
  ot.on_marker(leave(300, 2, 1));
  ot.on_sample(sample(150, fa, 0));
  ot.on_sample(sample(250, fa, 0));
  ot.on_sample(sample(150, fb, 1));
  ot.on_sample(sample(250, fb, 1));
  ot.finish();
  EXPECT_EQ(ot.items_completed(), 2u);
  for (const OnlineResult& r : ot.recent()) {
    if (r.item == 1) {
      EXPECT_EQ(r.elapsed(fa), 100u);
    }
    if (r.item == 2) {
      EXPECT_EQ(r.elapsed(fb), 100u);
    }
  }
}

TEST_F(OnlineFixture, KeepResultsBounded) {
  OnlineTracerConfig cfg;
  cfg.keep_results = 3;
  OnlineTracer ot(symtab, cfg);
  Tsc t = 0;
  for (ItemId id = 1; id <= 10; ++id) {
    ot.on_marker(enter(t, id));
    ot.on_marker(leave(t + 100, id));
    t += 200;
  }
  ot.finish();
  EXPECT_EQ(ot.items_completed(), 10u);
  ASSERT_EQ(ot.recent().size(), 3u);
  EXPECT_EQ(ot.recent().back().item, 10u);
}

} // namespace
} // namespace fluxtrace::core
