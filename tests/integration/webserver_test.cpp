// The Figure 2 motivation experiment: estimate per-request elapsed time of
// each web-server function the way the paper does (perf-style cycle
// profile, then t_f = T_request × c_f / c_a) and confirm the premise that
// most functions take only a few microseconds per request.
#include <gtest/gtest.h>

#include "fluxtrace/apps/webserver_model.hpp"
#include "fluxtrace/core/integrator.hpp"

namespace fluxtrace {
namespace {

struct WebRun {
  SymbolTable symtab;
  std::unique_ptr<apps::WebServerModel> model;
  std::unique_ptr<sim::Machine> machine;
  Tsc busy = 0;
  std::uint64_t requests = 0;

  explicit WebRun(std::uint64_t n_requests = 400, bool instrument = false) {
    apps::WebServerConfig cfg;
    cfg.total_requests = n_requests;
    cfg.instrument = instrument;
    model = std::make_unique<apps::WebServerModel>(symtab, cfg);
    machine = std::make_unique<sim::Machine>(symtab);
    model->attach(*machine, 0);
    const auto r = machine->run();
    EXPECT_TRUE(r.all_done);
    busy = machine->cpu(0).stats().busy_cycles;
    requests = model->processed();
  }

  /// Paper Fig. 2 estimator: per-request time of f = T_req × c_f / c_a.
  double per_request_us(SymbolId fn) const {
    const auto& st = machine->cpu(0).stats();
    const double share = static_cast<double>(st.fn_time(fn)) /
                         static_cast<double>(busy);
    const double t_req_us =
        machine->spec().us(busy) / static_cast<double>(requests);
    return share * t_req_us;
  }
};

TEST(WebServerModel, ProcessesAllRequests) {
  WebRun run(100);
  EXPECT_EQ(run.requests, 100u);
  EXPECT_GT(run.busy, 0u);
}

TEST(WebServerModel, MostFunctionsAreBelowFourMicroseconds) {
  WebRun run;
  std::size_t below_4us = 0;
  std::size_t below_1us = 0;
  for (const auto& f : run.model->functions()) {
    const double us = run.per_request_us(f.sym);
    EXPECT_GT(us, 0.0);
    if (us < 4.0) ++below_4us;
    if (us < 1.0) ++below_1us;
  }
  const std::size_t total = run.model->functions().size();
  // Fig. 2's point: "many functions take less than 4 us".
  EXPECT_GE(below_4us * 10, total * 7) << below_4us << "/" << total;
  EXPECT_GE(below_1us, 3u);
}

TEST(WebServerModel, PerRequestBusyTimeIsTensOfMicroseconds) {
  // NGINX-scale requests: a few tens of µs of CPU per request (the
  // paper's 149 µs wall time per request includes event-loop waits).
  WebRun run;
  const double t_req_us =
      run.machine->spec().us(run.busy) / static_cast<double>(run.requests);
  EXPECT_GT(t_req_us, 15.0);
  EXPECT_LT(t_req_us, 80.0);
}

TEST(WebServerModel, JitterVariesRequestsButProfileCannotSeeIt) {
  // Two runs are deterministic; within a run, requests differ (jitter) —
  // which the averaged profile hides. Verify via instrumented windows.
  WebRun run(200, /*instrument=*/true);
  const auto windows = core::WindowIndex(run.machine->marker_log().markers()).windows();
  ASSERT_EQ(windows.size(), 200u);
  Tsc min_w = ~Tsc{0}, max_w = 0;
  for (const auto& w : windows) {
    min_w = std::min(min_w, w.length());
    max_w = std::max(max_w, w.length());
  }
  EXPECT_GT(max_w, min_w + min_w / 10) << "per-request variation exists";
}

TEST(WebServerModel, DeterministicAcrossRuns) {
  WebRun a(150), b(150);
  EXPECT_EQ(a.busy, b.busy);
  for (const auto& f : a.model->functions()) {
    // Same symbol ids in both runs (same registration order).
    EXPECT_EQ(a.machine->cpu(0).stats().fn_time(f.sym),
              b.machine->cpu(0).stats().fn_time(f.sym));
  }
}

} // namespace
} // namespace fluxtrace
