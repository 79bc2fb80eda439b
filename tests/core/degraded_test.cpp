// Degraded integration: a lossy capture pipeline must yield flagged
// estimates, never silently clean (or silently missing) ones.
#include <gtest/gtest.h>

#include "fluxtrace/apps/query_cache_app.hpp"
#include "fluxtrace/core/adaptive.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/core/online.hpp"
#include "fluxtrace/sim/fault.hpp"
#include "fluxtrace/sim/machine.hpp"

namespace fluxtrace::core {
namespace {

Marker marker(std::uint32_t core, Tsc t, ItemId item, MarkerKind k) {
  return Marker{t, item, core, k};
}

// --- window synthesis --------------------------------------------------

TEST(DegradedWindows, BalancedMarkersStayClean) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 200, 1, MarkerKind::Leave),
  };
  const auto ws = WindowIndex(ms, true).windows();
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_FALSE(ws[0].synthesized());
  EXPECT_EQ(ws[0].enter, 100u);
  EXPECT_EQ(ws[0].leave, 200u);
}

TEST(DegradedWindows, LostLeaveClosedAtNextEnter) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter), // Leave for item 1 lost
      marker(0, 300, 2, MarkerKind::Enter),
      marker(0, 400, 2, MarkerKind::Leave),
  };
  const auto ws = WindowIndex(ms, true).windows();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].item, 1u);
  EXPECT_EQ(ws[0].leave, 300u); // bounded by the self-switching invariant
  EXPECT_EQ(ws[0].synth, ItemWindow::kSynthLeave);
  EXPECT_FALSE(ws[1].synthesized());
}

TEST(DegradedWindows, LostEnterOpensAtPreviousEdge) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 200, 1, MarkerKind::Leave),
      marker(0, 400, 2, MarkerKind::Leave), // its Enter was lost
  };
  const auto ws = WindowIndex(ms, true).windows();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[1].item, 2u);
  EXPECT_EQ(ws[1].enter, 200u); // no earlier than the previous edge
  EXPECT_EQ(ws[1].leave, 400u);
  EXPECT_EQ(ws[1].synth, ItemWindow::kSynthEnter);
}

TEST(DegradedWindows, OpenAtEndClosedAtWatermark) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter), // stream ends here
  };
  const auto ws = WindowIndex(ms, true, {{0u, Tsc{900}}}).windows();
  ASSERT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws[0].leave, 900u);
  EXPECT_EQ(ws[0].synth, ItemWindow::kSynthLeave);
}

TEST(DegradedWindows, DoubleLossEmitsBothTaggedWindows) {
  // Item 1's Leave AND item 2's Enter lost: both get the joint span.
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 500, 2, MarkerKind::Leave),
  };
  const auto ws = WindowIndex(ms, true).windows();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].item, 1u);
  EXPECT_EQ(ws[0].synth, ItemWindow::kSynthLeave);
  EXPECT_EQ(ws[1].item, 2u);
  EXPECT_EQ(ws[1].synth, ItemWindow::kSynthEnter);
  EXPECT_EQ(ws[0].enter, ws[1].enter);
  EXPECT_EQ(ws[0].leave, ws[1].leave);
}

// --- integration with loss accounting ---------------------------------

struct DegradedFixture : ::testing::Test {
  DegradedFixture() { fa = symtab.add("fa", 0x100); }

  PebsSample sample(std::uint32_t core, Tsc t) {
    PebsSample s;
    s.core = core;
    s.tsc = t;
    s.ip = symtab.ip_at(fa, 0.5);
    return s;
  }

  SymbolTable symtab;
  SymbolId fa;
};

TEST_F(DegradedFixture, LossesDegradeTheCoveringItem) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 200, 1, MarkerKind::Leave),
      marker(0, 300, 2, MarkerKind::Enter),
      marker(0, 400, 2, MarkerKind::Leave),
  };
  const std::vector<PebsSample> ss = {sample(0, 120), sample(0, 190),
                                      sample(0, 310), sample(0, 390)};
  const std::vector<SampleLoss> losses = {{0, 150}, {0, 160}, {0, 999}};

  IntegratorConfig cfg;
  cfg.degraded = true;
  TraceIntegrator integ(symtab, cfg);
  const TraceTable table = integ.integrate(ms, ss, losses);

  EXPECT_EQ(table.quality(1).samples_lost, 2u);
  EXPECT_EQ(table.quality(1).confidence, Confidence::Degraded);
  EXPECT_TRUE(table.quality(2).clean());
  EXPECT_EQ(table.unattributed_loss(), 1u); // tsc=999 covered by nothing
  EXPECT_EQ(table.degraded_items(), std::vector<ItemId>{1u});
  // Estimates still exist for both items.
  EXPECT_GT(table.elapsed(1, fa), 0u);
  EXPECT_GT(table.elapsed(2, fa), 0u);
}

TEST_F(DegradedFixture, SynthesizedWindowMeansReconstructed) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter), // Leave lost
      marker(0, 300, 2, MarkerKind::Enter),
      marker(0, 400, 2, MarkerKind::Leave),
  };
  IntegratorConfig cfg;
  cfg.degraded = true;
  TraceIntegrator integ(symtab, cfg);
  const TraceTable table = integ.integrate(ms, {}, {});
  EXPECT_EQ(table.quality(1).confidence, Confidence::Reconstructed);
  EXPECT_EQ(table.quality(1).markers_synthesized, 1u);
  EXPECT_EQ(table.windows_synthesized(), 1u);
  EXPECT_TRUE(table.quality(2).clean());
}

TEST_F(DegradedFixture, OrphanSamplesSalvagedThroughIdRegister) {
  const std::vector<Marker> ms = {
      marker(0, 100, 1, MarkerKind::Enter),
      marker(0, 200, 1, MarkerKind::Leave),
  };
  // A sample after the window (its covering markers were lost entirely)
  // whose R13 still names item 1 — and one naming an unknown item.
  PebsSample orphan = sample(0, 500);
  orphan.regs.set(kItemIdReg, 1);
  PebsSample stranger = sample(0, 600);
  stranger.regs.set(kItemIdReg, 77);
  const std::vector<PebsSample> ss = {sample(0, 150), orphan, stranger};

  IntegratorConfig cfg;
  cfg.degraded = true;
  TraceIntegrator integ(symtab, cfg);
  const TraceTable table = integ.integrate(ms, ss, {});
  EXPECT_EQ(table.quality(1).samples_salvaged, 1u);
  EXPECT_EQ(table.sample_count(1, fa), 2u); // in-window + salvaged
  EXPECT_EQ(table.unmatched_item(), 1u);    // the unknown item stays orphan

  // Strict mode leaves both orphans unmatched.
  TraceIntegrator strict(symtab);
  const TraceTable st = strict.integrate(ms, ss, {});
  EXPECT_EQ(st.sample_count(1, fa), 1u);
  EXPECT_EQ(st.unmatched_item(), 2u);
}

// --- the ISSUE acceptance scenario ------------------------------------

struct FaultedQueryRun {
  SymbolTable symtab;
  apps::QueryCacheApp app{symtab};
  sim::Machine machine{symtab};
  sim::FaultPlan plan;
  TraceTable table;

  explicit FaultedQueryRun(sim::FaultPlanConfig fcfg,
                           IntegratorConfig icfg = [] {
                             IntegratorConfig c;
                             c.degraded = true;
                             return c;
                           }())
      : plan(fcfg) {
    sim::PebsConfig pc;
    pc.reset = 8000;
    machine.cpu(1).enable_pebs(pc);
    plan.attach(machine);
    app.submit(apps::QueryCacheApp::paper_queries());
    app.attach(machine, /*rx_core=*/0, /*worker_core=*/1);
    EXPECT_TRUE(machine.run().all_done);
    machine.flush_samples();
    TraceIntegrator integ(symtab, icfg);
    table = integ.integrate(machine.marker_log().markers(),
                            machine.pebs_driver().samples(),
                            machine.pebs_driver().losses());
  }
};

TEST(DegradedAcceptance, TwentyPctSampleFivePctMarkerLoss) {
  sim::FaultPlanConfig fcfg;
  fcfg.seed = 42;
  fcfg.sample_loss_rate = 0.20;
  fcfg.marker_loss_rate = 0.05;
  FaultedQueryRun run(fcfg);

  EXPECT_GT(run.plan.samples_dropped(), 0u);

  // Every one of the 10 queries still gets an estimate.
  const auto items = run.table.items();
  ASSERT_EQ(items.size(), 10u);
  for (const ItemId item : items) {
    EXPECT_GT(run.table.item_window_total(item), 0u) << "item " << item;
  }

  // Items hit by loss are marked, never silently clean: a degraded item
  // exists, and every known loss is either attributed to an item's
  // quality record or counted as unattributed.
  EXPECT_FALSE(run.table.degraded_items().empty());
  std::uint64_t attributed = 0;
  for (const ItemId item : items) {
    attributed += run.table.quality(item).samples_lost;
  }
  EXPECT_EQ(attributed + run.table.unattributed_loss(),
            run.machine.pebs_driver().losses().size());

  // Any item whose quality says loss/synthesis is non-Clean.
  for (const ItemId item : items) {
    const ItemQuality& q = run.table.quality(item);
    if (q.samples_lost > 0 || q.markers_synthesized > 0) {
      EXPECT_FALSE(q.clean()) << "item " << item;
    }
  }
}

TEST(DegradedAcceptance, MarkerBurstStillYieldsAllItems) {
  // Wipe out every marker in a mid-run window; synthesis must still
  // produce a window for each query that survives in the stream.
  sim::FaultPlanConfig fcfg;
  fcfg.marker_loss_rate = 0.3;
  fcfg.seed = 7;
  FaultedQueryRun run(fcfg);
  EXPECT_GT(run.plan.markers_dropped(), 0u);
  EXPECT_FALSE(run.table.items().empty());
  EXPECT_GT(run.table.windows_synthesized(), 0u);
  for (const ItemId item : run.table.items()) {
    EXPECT_GT(run.table.item_window_total(item), 0u) << "item " << item;
  }
}

TEST(DegradedAcceptance, EstimationErrorGrowsButStaysFlagged) {
  FaultedQueryRun clean{sim::FaultPlanConfig{}};
  sim::FaultPlanConfig lossy;
  lossy.sample_loss_rate = 0.4;
  FaultedQueryRun degraded(lossy);

  // The cold query's estimate survives heavy loss to within 2x…
  const double est_clean =
      static_cast<double>(clean.table.item_estimated_total(1));
  const double est_lossy =
      static_cast<double>(degraded.table.item_estimated_total(1));
  EXPECT_GT(est_lossy, 0.0);
  EXPECT_GT(est_lossy, est_clean * 0.5);
  // …and the affected items say so. (A fault-free capture can still have
  // natural disarm-window losses, so compare against that baseline.)
  EXPECT_FALSE(degraded.table.degraded_items().empty());
  EXPECT_GE(degraded.table.degraded_items().size(),
            clean.table.degraded_items().size());
  std::uint64_t lost_clean = 0, lost_faulted = 0;
  for (const ItemId item : clean.table.items()) {
    lost_clean += clean.table.quality(item).samples_lost;
  }
  for (const ItemId item : degraded.table.items()) {
    lost_faulted += degraded.table.quality(item).samples_lost;
  }
  EXPECT_GT(lost_faulted, lost_clean);
}

// --- online degraded mode ---------------------------------------------

struct OnlineDegradedFixture : ::testing::Test {
  OnlineDegradedFixture() { fa = symtab.add("fa", 0x100); }

  PebsSample sample(Tsc t, std::uint32_t core = 0) {
    PebsSample s;
    s.core = core;
    s.tsc = t;
    s.ip = symtab.ip_at(fa, 0.5);
    return s;
  }

  SymbolTable symtab;
  SymbolId fa;
};

TEST_F(OnlineDegradedFixture, SynthesizesLostLeave) {
  OnlineTracerConfig cfg;
  cfg.synthesize_markers = true;
  OnlineTracer tracer(symtab, cfg);
  tracer.on_marker(marker(0, 100, 1, MarkerKind::Enter)); // Leave lost
  tracer.on_sample(sample(150));
  tracer.on_marker(marker(0, 300, 2, MarkerKind::Enter));
  tracer.on_marker(marker(0, 400, 2, MarkerKind::Leave));
  tracer.finish();

  EXPECT_EQ(tracer.items_completed(), 2u);
  EXPECT_EQ(tracer.markers_synthesized(), 1u);
  EXPECT_EQ(tracer.markers_dropped(), 0u);
  ASSERT_EQ(tracer.recent().size(), 2u);
  const OnlineResult& r1 = tracer.recent()[0];
  EXPECT_EQ(r1.item, 1u);
  EXPECT_EQ(r1.confidence, Confidence::Reconstructed);
  EXPECT_EQ(r1.markers_synthesized, 1u);
  EXPECT_EQ(r1.window, 200u); // closed at item 2's Enter
  EXPECT_FALSE(tracer.recent()[1].degraded());
}

TEST_F(OnlineDegradedFixture, SynthesizesLostEnter) {
  // A Leave whose Enter was lost opens at the previous marker edge, as
  // the batch degraded pairing does, instead of being dropped.
  OnlineTracerConfig cfg;
  cfg.synthesize_markers = true;
  OnlineTracer tracer(symtab, cfg);
  tracer.on_marker(marker(0, 100, 1, MarkerKind::Enter));
  tracer.on_marker(marker(0, 200, 1, MarkerKind::Leave));
  tracer.on_marker(marker(0, 400, 2, MarkerKind::Leave)); // Enter lost
  tracer.on_sample(sample(300));
  tracer.finish();

  EXPECT_EQ(tracer.items_completed(), 2u);
  EXPECT_EQ(tracer.markers_synthesized(), 1u);
  EXPECT_EQ(tracer.markers_dropped(), 0u);
  EXPECT_EQ(tracer.samples_unmatched(), 0u);
  ASSERT_EQ(tracer.recent().size(), 2u);
  const OnlineResult& r2 = tracer.recent()[1];
  EXPECT_EQ(r2.item, 2u);
  EXPECT_EQ(r2.enter, 200u);
  EXPECT_EQ(r2.window, 200u);
  EXPECT_EQ(r2.confidence, Confidence::Reconstructed);
}

TEST_F(OnlineDegradedFixture, LostEnterClaimsSamplesDrainedBeforeItsLeave) {
  // Item 2's Enter is lost and a drain delivers its sample before its
  // Leave arrives. With no item open, a Leave still to come may open a
  // window at item 1's Leave, so the sample waits for the next marker
  // instead of counting as unmatched.
  OnlineTracerConfig cfg;
  cfg.synthesize_markers = true;
  OnlineTracer tracer(symtab, cfg);
  tracer.on_marker(marker(0, 100, 1, MarkerKind::Enter));
  tracer.on_marker(marker(0, 200, 1, MarkerKind::Leave));
  tracer.on_sample(sample(150));
  tracer.on_sample(sample(350));
  tracer.on_marker(marker(0, 400, 2, MarkerKind::Leave)); // Enter lost
  tracer.finish();

  EXPECT_EQ(tracer.samples_unmatched(), 0u);
  ASSERT_EQ(tracer.recent().size(), 2u);
  const OnlineResult& r2 = tracer.recent()[1];
  EXPECT_EQ(r2.item, 2u);
  EXPECT_EQ(r2.enter, 200u);
  EXPECT_EQ(r2.leave, 400u);
  EXPECT_EQ(r2.confidence, Confidence::Reconstructed);
}

TEST_F(OnlineDegradedFixture, SampleOnALeaveEdgeHoldsBackItsItem) {
  // A sample on item 1's Leave edge waits for the next marker (a Leave
  // with a lost Enter would take it), and item 1 is not finalized while
  // it waits: here an Enter comes next, so the sample is item 1's.
  OnlineTracerConfig cfg;
  cfg.synthesize_markers = true;
  OnlineTracer tracer(symtab, cfg);
  tracer.on_marker(marker(0, 100, 1, MarkerKind::Enter));
  tracer.on_marker(marker(0, 200, 1, MarkerKind::Leave));
  tracer.on_sample(sample(150));
  tracer.on_sample(sample(200)); // on the Leave edge
  tracer.on_sample(sample(250)); // past item 1
  EXPECT_EQ(tracer.items_completed(), 0u);
  tracer.on_marker(marker(0, 300, 2, MarkerKind::Enter));
  tracer.on_marker(marker(0, 400, 2, MarkerKind::Leave));
  tracer.finish();

  EXPECT_EQ(tracer.samples_unmatched(), 1u); // 250, between the items
  ASSERT_EQ(tracer.recent().size(), 2u);
  EXPECT_EQ(tracer.recent()[0].item, 1u);
  EXPECT_EQ(tracer.recent()[0].elapsed(fa), 50u);
}

TEST_F(OnlineDegradedFixture, OpenItemAtFinishClosesAtWatermark) {
  OnlineTracerConfig cfg;
  cfg.synthesize_markers = true;
  OnlineTracer tracer(symtab, cfg);
  tracer.on_marker(marker(0, 100, 1, MarkerKind::Enter));
  tracer.on_sample(sample(700));
  tracer.finish();
  ASSERT_EQ(tracer.recent().size(), 1u);
  EXPECT_EQ(tracer.recent()[0].window, 600u); // watermark 700 - enter 100
  EXPECT_TRUE(tracer.recent()[0].degraded());
}

TEST_F(OnlineDegradedFixture, LossEventsAttributedToPendingItems) {
  OnlineTracerConfig cfg;
  cfg.synthesize_markers = true;
  OnlineTracer tracer(symtab, cfg);
  tracer.on_marker(marker(0, 100, 1, MarkerKind::Enter));
  tracer.on_sample_lost(SampleLoss{0, 150});
  tracer.on_sample_lost(SampleLoss{3, 150}); // core with no pending item
  tracer.on_marker(marker(0, 200, 1, MarkerKind::Leave));
  tracer.finish();
  EXPECT_EQ(tracer.samples_lost(), 2u);
  EXPECT_EQ(tracer.losses_unattributed(), 1u);
  ASSERT_EQ(tracer.recent().size(), 1u);
  EXPECT_EQ(tracer.recent()[0].samples_lost, 1u);
  EXPECT_EQ(tracer.recent()[0].confidence, Confidence::Degraded);
}

TEST_F(OnlineDegradedFixture, BacklogTriggersShedOnceUntilDrained) {
  OnlineTracerConfig cfg;
  cfg.synthesize_markers = true;
  cfg.shed_backlog = 4;
  OnlineTracer tracer(symtab, cfg);
  std::vector<std::size_t> backlogs;
  tracer.set_shed_callback([&](std::uint32_t core, std::size_t backlog) {
    EXPECT_EQ(core, 0u);
    backlogs.push_back(backlog);
  });

  // Markers race ahead of samples: backlog builds to the threshold.
  Tsc t = 100;
  for (ItemId id = 1; id <= 6; ++id) {
    tracer.on_marker(marker(0, t, id, MarkerKind::Enter));
    tracer.on_marker(marker(0, t + 50, id, MarkerKind::Leave));
    t += 100;
  }
  ASSERT_EQ(backlogs.size(), 1u); // edge-triggered, fires exactly once
  EXPECT_GE(backlogs[0], 4u);
  EXPECT_EQ(tracer.shed_events(), 1u);

  // A late sample drains everything; the trigger re-arms.
  tracer.on_sample(sample(10000));
  EXPECT_LE(tracer.backlog(0), 1u);
  for (ItemId id = 7; id <= 12; ++id) {
    tracer.on_marker(marker(0, t, id, MarkerKind::Enter));
    tracer.on_marker(marker(0, t + 50, id, MarkerKind::Leave));
    t += 100;
  }
  EXPECT_EQ(tracer.shed_events(), 2u);
}

TEST_F(OnlineDegradedFixture, ShedCallbackWiredToAdaptiveResetRaisesR) {
  CpuSpec spec;
  AdaptiveResetConfig acfg;
  std::uint64_t programmed = 0;
  AdaptiveReset ar(acfg, 8000, spec,
                   [&](std::uint64_t r) { programmed = r; });

  OnlineTracerConfig cfg;
  cfg.synthesize_markers = true;
  cfg.shed_backlog = 2;
  OnlineTracer tracer(symtab, cfg);
  tracer.set_shed_callback(
      [&](std::uint32_t, std::size_t) { ar.nudge(2.0); });

  tracer.on_marker(marker(0, 100, 1, MarkerKind::Enter));
  tracer.on_marker(marker(0, 200, 1, MarkerKind::Leave));
  tracer.on_marker(marker(0, 300, 2, MarkerKind::Enter));
  EXPECT_EQ(ar.current_reset(), 16000u); // R doubled: load shed
  EXPECT_EQ(programmed, 16000u);
}

TEST(AdaptiveNudge, ClampsToConfiguredRange) {
  CpuSpec spec;
  AdaptiveResetConfig cfg;
  cfg.min_reset = 1000;
  cfg.max_reset = 20000;
  std::uint64_t calls = 0;
  AdaptiveReset ar(cfg, 8000, spec, [&](std::uint64_t) { ++calls; });

  ar.nudge(100.0);
  EXPECT_EQ(ar.current_reset(), 20000u);
  ar.nudge(100.0); // already at max: no change, no reprogram
  EXPECT_EQ(calls, 1u);
  ar.nudge(0.0001);
  EXPECT_EQ(ar.current_reset(), 1000u);
  EXPECT_EQ(ar.adjustments(), 2u);
}

} // namespace
} // namespace fluxtrace::core
