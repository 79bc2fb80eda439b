// End-to-end wiring: the instrumented subsystems must move the global
// registry's counters when exercised through their public APIs. Deltas
// (not absolutes) are asserted — the registry is process-wide and other
// tests in this binary touch the same metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "test_dir.hpp"

#include "fluxtrace/base/wait.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/core/online.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/export.hpp"
#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/obs/span.hpp"
#include "fluxtrace/query/engine.hpp"
#include "fluxtrace/rt/spsc_ring.hpp"
#include "fluxtrace/rt/thread_pool.hpp"
#include "fluxtrace/sim/pebs.hpp"

namespace fluxtrace {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::metrics().counter(name).value();
}

io::TraceData tiny_trace() {
  io::TraceData d;
  Tsc t = 100;
  for (ItemId item = 1; item <= 4; ++item) {
    d.markers.push_back(Marker{t, item, 0, MarkerKind::Enter});
    for (int s = 0; s < 3; ++s) {
      PebsSample smp;
      smp.tsc = t + 10 + static_cast<Tsc>(s) * 20;
      smp.core = 0;
      smp.ip = 0x1000;
      d.samples.push_back(smp);
    }
    t += 100;
    d.markers.push_back(Marker{t, item, 0, MarkerKind::Leave});
    t += 20;
  }
  return d;
}

TEST(ObsIntegration, ThreadPoolCountsTasksAndDrainsDepth) {
  const std::uint64_t tasks_before = counter_value("rt.pool.tasks_executed");
  {
    rt::ThreadPool pool(2);
    pool.parallel_for(32, [](std::size_t) {});
  }
  EXPECT_EQ(counter_value("rt.pool.tasks_executed") - tasks_before, 32u);
  // Every enqueue was matched by a take: the level gauge is back to 0.
  EXPECT_EQ(obs::metrics().gauge("rt.pool.queue_depth").value(), 0);
}

TEST(ObsIntegration, ThreadPoolTimesTasksWhenEnabled) {
  const obs::HistogramSnapshot before =
      obs::metrics().histogram("rt.pool.task_ns").snapshot();
  obs::set_enabled(true);
  {
    rt::ThreadPool pool(2);
    pool.parallel_for(8, [](std::size_t) {});
  }
  obs::set_enabled(false);
  const obs::HistogramSnapshot after =
      obs::metrics().histogram("rt.pool.task_ns").snapshot();
  EXPECT_EQ(after.count - before.count, 8u);
}

TEST(ObsIntegration, TraceReaderCountsReadsBytesAndChunks) {
  const io::TraceData d = tiny_trace();
  std::ostringstream os;
  io::write_trace_v2(os, d, /*records_per_chunk=*/4);
  const std::string bytes = std::move(os).str();

  const std::uint64_t reads_before = counter_value("io.reads");
  const std::uint64_t bytes_before = counter_value("io.bytes_decoded");
  const io::TraceData rt = io::open_trace_bytes(std::string(bytes)).read();
  EXPECT_EQ(rt, d);
  EXPECT_EQ(counter_value("io.reads") - reads_before, 1u);
  EXPECT_EQ(counter_value("io.bytes_decoded") - bytes_before, bytes.size());
}

TEST(ObsIntegration, IntegratorCountsItems) {
  const io::TraceData d = tiny_trace();
  SymbolTable symtab;
  (void)symtab.add("fn", 0x4000);
  const std::uint64_t items_before = counter_value("core.integrate.items");
  const core::TraceTable table =
      core::TraceIntegrator(symtab).integrate(d.markers, d.samples);
  EXPECT_EQ(table.items().size(), 4u);
  EXPECT_EQ(counter_value("core.integrate.items") - items_before, 4u);
}

TEST(ObsIntegration, OnlineTracerCountsFinalizedItems) {
  SymbolTable symtab;
  (void)symtab.add("fn", 0x4000);
  const std::uint64_t items_before = counter_value("core.online.items");
  const std::uint64_t lost_before = counter_value("core.online.samples_lost");
  core::OnlineTracer ot(symtab);
  const io::TraceData d = tiny_trace();
  std::size_t si = 0;
  for (const Marker& m : d.markers) {
    ot.on_marker(m);
    while (si < d.samples.size() && d.samples[si].tsc <= m.tsc) {
      ot.on_sample(d.samples[si++]);
    }
  }
  ot.on_sample_lost(SampleLoss{0, 99999});
  ot.finish();
  EXPECT_EQ(counter_value("core.online.items") - items_before, 4u);
  EXPECT_EQ(counter_value("core.online.samples_lost") - lost_before, 1u);
}

TEST(ObsIntegration, PebsDriverCountsDrainsAndEmitsVirtualSpan) {
  const std::uint64_t drains_before = counter_value("sim.pebs.drains");
  const std::uint64_t samples_before = counter_value("sim.pebs.samples");
  obs::set_enabled(true);
  (void)obs::SpanLog::global().drain();

  const CpuSpec spec;
  sim::PebsUnit unit;
  sim::PebsConfig cfg;
  cfg.buffer_capacity = 4;
  unit.configure(cfg);
  RegisterFile regs;
  bool full = false;
  for (Tsc t = 1; !full; ++t) full = unit.take_sample(t, 0x1000, regs);
  sim::PebsDriver driver(spec);
  driver.on_buffer_full(unit, /*core=*/2, /*now=*/1000);

  obs::set_enabled(false);
  EXPECT_EQ(counter_value("sim.pebs.drains") - drains_before, 1u);
  EXPECT_EQ(counter_value("sim.pebs.samples") - samples_before, 4u);
  const std::vector<obs::SpanEvent> spans = obs::SpanLog::global().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name), "sim.pebs.drain");
  EXPECT_EQ(spans[0].clock, obs::SpanClock::VirtualTsc);
  EXPECT_EQ(spans[0].track, 2u);
  EXPECT_EQ(spans[0].begin, 1000u);
  EXPECT_GT(spans[0].end, spans[0].begin);
}

TEST(ObsIntegration, WaitEdgeHookCountsStallsByCause) {
  const std::uint64_t full0 = counter_value("rt.ring.full_stalls");
  const std::uint64_t empty0 = counter_value("rt.ring.empty_stalls");
  const std::uint64_t bp0 = counter_value("session.backpressure_waits");

  // The seam layered systems use: base::WaitLog records, the obs hook
  // (installed by sim::Machine, here directly) buckets by cause.
  WaitLog log;
  log.set_hook(&obs::count_wait_edge);
  WaitEdge e;
  e.cause = WaitCause::RingFull;
  log.record(e);
  e.cause = WaitCause::RingEmpty;
  log.record(e);
  log.record(e);
  e.cause = WaitCause::SinkBackpressure;
  log.record(e);
  e.cause = WaitCause::Shed; // shedding is backpressure that gave up
  log.record(e);

  EXPECT_EQ(counter_value("rt.ring.full_stalls") - full0, 1u);
  EXPECT_EQ(counter_value("rt.ring.empty_stalls") - empty0, 2u);
  EXPECT_EQ(counter_value("session.backpressure_waits") - bp0, 2u);

  // The counters ride the ordinary registry: every exporter sees them.
  std::ostringstream prom;
  obs::write_prometheus(prom, obs::metrics().snapshot());
  const std::string text = prom.str();
  EXPECT_NE(text.find("rt_ring_full_stalls"), std::string::npos);
  EXPECT_NE(text.find("rt_ring_empty_stalls"), std::string::npos);
  EXPECT_NE(text.find("session_backpressure_waits"), std::string::npos);
}

// A probed ring inside an instrumented run moves the same counters
// end-to-end: stall the producer side once and the full-stall counter
// steps by exactly one.
TEST(ObsIntegration, RingWaitProbeStepsCountersEndToEnd) {
  const std::uint64_t full0 = counter_value("rt.ring.full_stalls");
  WaitLog log;
  log.set_hook(&obs::count_wait_edge);
  rt::SpscRing<int> ring(2);
  ring.set_wait_probe(rt::RingWaitProbe{&log, nullptr, 1, 0, 1});
  while (ring.push(7)) {
  }
  ASSERT_TRUE(ring.pop().has_value());
  ASSERT_TRUE(ring.push(7));
  EXPECT_EQ(counter_value("rt.ring.full_stalls") - full0, 1u);
}

/// The spans one call records, with telemetry on just for the call.
template <typename F>
std::vector<obs::SpanEvent> spans_of(F&& fn) {
  (void)obs::SpanLog::global().drain();
  obs::set_enabled(true);
  fn();
  obs::set_enabled(false);
  return obs::SpanLog::global().drain();
}

/// True when a `child` span lies within a `parent` span on one thread.
bool nested(const std::vector<obs::SpanEvent>& spans, const char* child,
            const char* parent) {
  for (const obs::SpanEvent& c : spans) {
    if (std::string(c.name) != child) continue;
    for (const obs::SpanEvent& p : spans) {
      if (std::string(p.name) == parent && p.track == c.track &&
          p.begin <= c.begin && c.end <= p.end) {
        return true;
      }
    }
  }
  return false;
}

// The loader's layers each get a span, under whichever load ran them,
// and triage wraps the salvage it falls back to.
TEST(ObsIntegration, LoaderLayersAndTriageRecordNestedSpans) {
  io::TraceData d = tiny_trace();
  for (int rep = 0; rep < 8; ++rep) {
    for (const PebsSample& s : tiny_trace().samples) d.samples.push_back(s);
  }
  const std::string path = test::private_dir() + "/obs_loader.flxt3";
  io::save_trace_v3(path, d, 4);
  SymbolTable symtab;
  (void)symtab.add("fn", 0x4000);
  query::EngineOptions eo;
  eo.threads = 1;
  eo.write_index = false;

  const auto cold = spans_of([&] {
    (void)query::QueryEngine::open(path, symtab, eo).run("group core: count");
  });
  for (const char* layer : {"query.decode", "query.attribute", "query.zones"}) {
    EXPECT_TRUE(nested(cold, layer, "query.load_full")) << layer;
  }

  const auto pruned = spans_of([&] {
    const query::QueryResult r = query::QueryEngine::open(path, symtab, eo)
                                     .run("filter ts < 200 | select ts");
    EXPECT_GT(r.stats.chunks_pruned, 0u);
  });
  for (const char* layer : {"query.decode", "query.attribute", "query.zones"}) {
    EXPECT_TRUE(nested(pruned, layer, "query.load")) << layer;
  }
  for (const obs::SpanEvent& e : pruned) {
    EXPECT_STRNE(e.name, "query.load_full") << "a pruned load decodes once";
  }
  // The open (the engine's one frame walk) has a span of its own, once
  // per engine, outside every load.
  const auto opens = [](const std::vector<obs::SpanEvent>& spans) {
    return std::ranges::count_if(spans, [](const obs::SpanEvent& e) {
      return std::string(e.name) == "query.open";
    });
  };
  EXPECT_EQ(opens(cold), 1);
  EXPECT_EQ(opens(pruned), 1);
  EXPECT_FALSE(nested(pruned, "query.open", "query.load"));

  std::ostringstream os;
  io::write_trace_v2(os, d, 4);
  std::string torn = std::move(os).str();
  torn.resize(torn.size() / 2);
  const auto triage = spans_of([&] {
    EXPECT_EQ(io::classify_trace(io::open_trace_bytes(torn)).health,
              io::TraceHealth::Salvaged);
  });
  EXPECT_TRUE(nested(triage, "io.salvage", "io.classify"));
  std::remove(path.c_str());
}

// Every answer is finished by finish_partials: the scan (or the wait
// scan), the merge of partials and the finish each record a span.
TEST(ObsIntegration, QueryFinisherLayersRecordSpans) {
  io::TraceData d = tiny_trace();
  WaitEdge e;
  e.enter = 120;
  e.leave = 150;
  e.item = 1;
  e.holder_core = 1;
  d.wait_edges.push_back(e);
  const std::string path = test::private_dir() + "/obs_finish.flxt3";
  io::save_trace_v3(path, d, 4);
  SymbolTable symtab;
  (void)symtab.add("fn", 0x4000);
  query::EngineOptions eo;
  eo.threads = 1;
  eo.write_index = false;

  const auto count = [](const std::vector<obs::SpanEvent>& spans,
                        const char* name) {
    return std::count_if(spans.begin(), spans.end(),
                         [name](const obs::SpanEvent& s) {
                           return std::string(s.name) == name;
                         });
  };
  const auto has = [&](const std::vector<obs::SpanEvent>& spans,
                       const char* name) { return count(spans, name) > 0; };
  const auto group = spans_of([&] {
    (void)query::QueryEngine::open(path, symtab, eo).run("group core: count");
  });
  for (const char* layer : {"query.scan", "query.merge", "query.finish"}) {
    EXPECT_TRUE(has(group, layer)) << layer;
  }
  // One merge of the block partials, one of the trace partials.
  EXPECT_EQ(count(group, "query.merge"), 2);
  const auto wait = spans_of([&] {
    const query::QueryResult r =
        query::QueryEngine::open(path, symtab, eo).run("critical_path");
    EXPECT_EQ(r.rows.size(), 1u);
  });
  for (const char* layer : {"query.wait_scan", "query.finish"}) {
    EXPECT_TRUE(has(wait, layer)) << layer;
  }
  EXPECT_FALSE(has(wait, "query.scan")) << "a wait stage scans no samples";
  std::remove(path.c_str());
}

} // namespace
} // namespace fluxtrace
