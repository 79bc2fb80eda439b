// End-to-end reproduction of the §IV-B proof of concept: run the sample
// app on the simulated machine with markers + PEBS, integrate, and check
// the Fig. 8 structure — queries 1 and 5 fluctuate although queries with
// the same n exist, and f3 is the function responsible.
#include <gtest/gtest.h>

#include "fluxtrace/apps/query_cache_app.hpp"
#include "fluxtrace/core/integrator.hpp"

namespace fluxtrace {
namespace {

struct QueryAppRun {
  SymbolTable symtab;
  std::unique_ptr<apps::QueryCacheApp> app;
  std::unique_ptr<sim::Machine> machine;
  core::TraceTable table;

  explicit QueryAppRun(std::uint64_t reset = 8000) {
    app = std::make_unique<apps::QueryCacheApp>(symtab);
    machine = std::make_unique<sim::Machine>(symtab);
    sim::PebsConfig pc;
    pc.reset = reset;
    machine->cpu(1).enable_pebs(pc); // Thread 1 = the worker core
    app->submit(apps::QueryCacheApp::paper_queries());
    app->attach(*machine, /*rx_core=*/0, /*worker_core=*/1);
    const auto r = machine->run();
    EXPECT_TRUE(r.all_done);
    machine->flush_samples();
    core::TraceIntegrator integ(symtab);
    table = integ.integrate(machine->marker_log().markers(),
                            machine->pebs_driver().samples());
  }
};

TEST(QueryAppIntegration, AllTenQueriesTraced) {
  QueryAppRun run;
  EXPECT_EQ(run.app->queries_processed(), 10u);
  const auto items = run.table.items();
  ASSERT_EQ(items.size(), 10u);
  EXPECT_EQ(items.front(), 1u);
  EXPECT_EQ(items.back(), 10u);
  // Every query has a closed marker window on the worker core.
  EXPECT_EQ(run.table.windows().size(), 10u);
}

TEST(QueryAppIntegration, FirstQueryFluctuatesAgainstSameN) {
  // Queries 1, 2, 4, 8 all have n = 3; query 1 hits a cold cache.
  QueryAppRun run;
  const Tsc q1 = run.table.item_window_total(1);
  const Tsc q2 = run.table.item_window_total(2);
  const Tsc q4 = run.table.item_window_total(4);
  const Tsc q8 = run.table.item_window_total(8);
  EXPECT_GT(q1, 5 * q2) << "cold query must be far slower";
  // Warm repeats are mutually similar (within 50%).
  EXPECT_LT(std::max({q2, q4, q8}), 2 * std::min({q2, q4, q8}));
}

TEST(QueryAppIntegration, FifthQueryFluctuatesAgainstSameN) {
  // Queries 5, 7, 9 have n = 5; query 5 must compute 2000 new points.
  QueryAppRun run;
  const Tsc q5 = run.table.item_window_total(5);
  const Tsc q7 = run.table.item_window_total(7);
  const Tsc q9 = run.table.item_window_total(9);
  EXPECT_GT(q5, 3 * q7);
  EXPECT_LT(std::max(q7, q9), 2 * std::min(q7, q9));
}

TEST(QueryAppIntegration, F3DominatesTheColdQuery) {
  // The knowledge only per-function traces give (§IV-B): when the cache
  // does not hit, it is f3 — not f1 — that takes the time.
  QueryAppRun run;
  const SymbolId f1 = run.app->f1();
  const SymbolId f3 = run.app->f3();
  const Tsc f3_cold = run.table.elapsed(1, f3);
  const Tsc f1_cold = run.table.elapsed(1, f1);
  EXPECT_GT(f3_cold, 0u);
  EXPECT_GT(f3_cold, 10 * std::max<Tsc>(f1_cold, 1));
}

TEST(QueryAppIntegration, WarmQueriesHaveNoF3Samples) {
  QueryAppRun run;
  const SymbolId f3 = run.app->f3();
  for (const ItemId warm : {2u, 4u, 8u, 7u, 9u}) {
    EXPECT_EQ(run.table.sample_count(warm, f3), 0u) << "item " << warm;
  }
}

TEST(QueryAppIntegration, EstimatesStayWithinWindows) {
  // The sum of per-function estimates can never exceed the instrumented
  // window (samples lie inside it by construction).
  QueryAppRun run;
  for (const ItemId item : run.table.items()) {
    EXPECT_LE(run.table.item_estimated_total(item),
              run.table.item_window_total(item))
        << "item " << item;
  }
}

TEST(QueryAppIntegration, ColdQueryEstimateIsAccurate) {
  // For the long cold query, dozens of samples land in f3: the estimate
  // must recover most of the window.
  QueryAppRun run;
  const double est = static_cast<double>(run.table.item_estimated_total(1));
  const double win = static_cast<double>(run.table.item_window_total(1));
  EXPECT_GT(est / win, 0.7) << "est=" << est << " win=" << win;
}

TEST(QueryAppIntegration, HigherResetValueMeansFewerSamples) {
  QueryAppRun fine(4000), coarse(24000);
  EXPECT_GT(fine.table.total_samples(), 2 * coarse.table.total_samples());
}

TEST(QueryAppIntegration, CacheHighWaterGrowsToMaxN) {
  QueryAppRun run;
  EXPECT_EQ(run.app->cache_high_water(), 5000u); // n=5 × 1000 points
}

TEST(QueryAppIntegration, BoundedCacheEvictsAndColdPathsRecur) {
  // With a 4-chunk LRU cache, an n=5 query cannot be fully cached: the
  // fluctuation recurs forever instead of vanishing after warm-up.
  SymbolTable symtab;
  apps::QueryCacheAppConfig cfg;
  cfg.cache_capacity_chunks = 4;
  apps::QueryCacheApp app(symtab, cfg);
  sim::Machine m(symtab);

  std::vector<apps::Query> queries;
  for (ItemId id = 1; id <= 12; ++id) {
    queries.push_back(apps::Query{id, 5}); // needs 5 chunks > capacity 4
  }
  app.submit(queries);
  app.attach(m, 0, 1);
  const auto r = m.run();
  EXPECT_TRUE(r.all_done);
  EXPECT_GT(app.cache_evictions(), 10u);

  // Every repeat stays slow: the LRU can never hold the whole working
  // set (chunk 0 is always the victim by the time it is needed again...
  // sequential access + LRU = worst case).
  const auto windows = core::WindowIndex(m.marker_log().markers()).windows();
  ASSERT_EQ(windows.size(), 12u);
  Tsc late_min = ~Tsc{0};
  for (std::size_t i = 6; i < windows.size(); ++i) {
    late_min = std::min(late_min, windows[i].length());
  }
  // Unbounded config for contrast: repeats are ~free.
  SymbolTable symtab2;
  apps::QueryCacheApp unbounded(symtab2);
  sim::Machine m2(symtab2);
  unbounded.submit(queries);
  unbounded.attach(m2, 0, 1);
  m2.run();
  const auto w2 = core::WindowIndex(m2.marker_log().markers()).windows();
  EXPECT_GT(late_min, 5 * w2.back().length())
      << "bounded-cache repeats stay cold; unbounded repeats are warm";
}

TEST(QueryAppIntegration, DeterministicEndToEnd) {
  QueryAppRun a, b;
  for (const ItemId item : a.table.items()) {
    EXPECT_EQ(a.table.item_window_total(item), b.table.item_window_total(item));
    EXPECT_EQ(a.table.item_estimated_total(item),
              b.table.item_estimated_total(item));
  }
}

} // namespace
} // namespace fluxtrace
