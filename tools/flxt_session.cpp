// flxt_session — run a workload under a supervised capture session
// (core::SessionSupervisor + io::ResilientWriter) and print the session
// report: state transitions, retries, spool failovers, records shed vs
// R-shed. This is the chaos-soak entry point: --drain-loss / --sink-*
// flags drive a deterministic sim::FaultPlan, so a CI sweep can assert
// that the session heals without operator action and that every
// unrecorded sample is attributed to a counted cause.
//
//   flxt_session <spool-out> [--secondary PATH] [--queries N] [--seed S]
//     [--reset R] [--queue N] [--policy block|drop-oldest|drop-newest]
//     [--chunk-records N] [--shed-backlog N] [--drain-loss P]
//     [--sink-transient P] [--stuck-at N] [--stuck-for N]
//     [--enospc-bytes N] [--crash-after N] [--telemetry FILE] [--metrics]
//
// The spool is compressed FLXT v3; --chunk-records is at most
// io::kMaxChunkRecords (2^20), the largest chunk v3 admits.
//
// --crash-after N simulates kill -9 (immediate _Exit, no close, no eof
// sentinel) once N chunks have committed — the fsynced prefix must then
// salvage cleanly with flxt_recover.
//
// Exit status: 0 when the session ended in a non-halted state AND the
// record ledger reconciled exactly; 1 otherwise; 2 on bad usage;
// 137 after a --crash-after "kill".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
#include "fluxtrace/apps/query_cache_app.hpp"
#include "fluxtrace/core/adaptive.hpp"
#include "fluxtrace/core/session.hpp"
#include "fluxtrace/io/resilient.hpp"
#include "fluxtrace/sim/fault.hpp"
#include "fluxtrace/sim/machine.hpp"

using namespace fluxtrace;

int main(int argc, char** argv) try {
  tools::Cli cli(argc, argv,
                 std::string("usage: ") + argv[0] +
                     " <spool-out> [--secondary PATH] [--queries N]"
                     " [--seed S] [--reset R] [--queue N]"
                     " [--policy block|drop-oldest|drop-newest]"
                     " [--chunk-records N] [--shed-backlog N]"
                     " [--drain-loss P] [--sink-transient P]"
                     " [--stuck-at N] [--stuck-for N] [--enospc-bytes N]"
                     " [--crash-after N] [--telemetry FILE] [--metrics] [--version]");
  const char* secondary = nullptr;
  std::size_t queries = 300;
  std::size_t seed = 1;
  std::size_t reset = 4000;
  std::size_t queue = 64;
  const char* policy = "block";
  std::size_t chunk_records = 64;
  std::size_t shed_backlog = 32;
  double drain_loss = 0.0;
  double sink_transient = 0.0;
  std::size_t stuck_at = 0;
  std::size_t stuck_for = 0;
  std::uint64_t enospc_bytes = 0;
  std::size_t crash_after = 0;
  cli.flag_str("--secondary", &secondary);
  cli.flag_count_pos("--queries", &queries);
  cli.flag_count("--seed", &seed);
  cli.flag_count_pos("--reset", &reset);
  cli.flag_count_pos("--queue", &queue);
  cli.flag_str("--policy", &policy);
  cli.flag_count_pos("--chunk-records", &chunk_records);
  cli.flag_count_pos("--shed-backlog", &shed_backlog);
  cli.flag_rate("--drain-loss", &drain_loss);
  cli.flag_rate("--sink-transient", &sink_transient);
  cli.flag_count("--stuck-at", &stuck_at);
  cli.flag_count("--stuck-for", &stuck_for);
  cli.flag_bytes("--enospc-bytes", &enospc_bytes);
  cli.flag_count("--crash-after", &crash_after);
  tools::Telemetry tel;
  tel.attach(cli);
  if (!cli.parse(1, 1)) return cli.usage();

  if (chunk_records > io::kMaxChunkRecords) {
    std::fprintf(stderr, "error: --chunk-records expects at most %u, got %zu\n",
                 io::kMaxChunkRecords, chunk_records);
    return cli.usage();
  }
  io::OverflowPolicy overflow;
  if (std::strcmp(policy, "block") == 0) {
    overflow = io::OverflowPolicy::Block;
  } else if (std::strcmp(policy, "drop-oldest") == 0) {
    overflow = io::OverflowPolicy::DropOldest;
  } else if (std::strcmp(policy, "drop-newest") == 0) {
    overflow = io::OverflowPolicy::DropNewest;
  } else {
    std::fprintf(stderr, "error: --policy expects block|drop-oldest|"
                         "drop-newest, got '%s'\n", policy);
    return cli.usage();
  }
  tel.start();

  // --- workload + machine ------------------------------------------------
  SymbolTable symtab;
  apps::QueryCacheApp app(symtab);
  sim::Machine m(symtab);
  sim::PebsConfig pc;
  pc.reset = reset;
  pc.buffer_capacity = 64;
  m.cpu(1).enable_pebs(pc);

  // Mostly warm traffic with a periodic cold query (new chunks) so the
  // online detector has genuine anomalies to dump into the spool.
  std::vector<apps::Query> qs;
  ItemId id = 0;
  std::uint32_t cold_max = 4;
  qs.push_back(apps::Query{++id, cold_max}); // warm-up
  for (std::size_t i = 1; i < queries; ++i) {
    if (i % 24 == 0) {
      cold_max += 2; // touches chunks never seen before: a cold outlier
      qs.push_back(apps::Query{++id, cold_max});
    } else {
      qs.push_back(
          apps::Query{++id, 2 + static_cast<std::uint32_t>(i % 3)});
    }
  }
  app.submit(qs);
  app.attach(m, 0, 1);

  // --- fault plan --------------------------------------------------------
  sim::FaultPlanConfig fcfg;
  fcfg.seed = seed;
  fcfg.sample_loss_rate = drain_loss;
  fcfg.sink_transient_rate = sink_transient;
  if (stuck_for > 0) fcfg.sink_stuck.push_back({stuck_at, stuck_for});
  if (enospc_bytes > 0) fcfg.sink_enospc_after_bytes = enospc_bytes;
  sim::FaultPlan plan(fcfg);
  plan.attach(m);

  // --- resilient spool ---------------------------------------------------
  // Faults are injected on the *primary* spool only; --secondary is the
  // clean failover path a real deployment would point at another device.
  const auto fault_fn = [&plan](std::size_t bytes) {
    switch (plan.sink_fault(bytes)) {
      case sim::SinkFaultKind::None: return io::SinkFault::None;
      case sim::SinkFaultKind::Transient: return io::SinkFault::Transient;
      case sim::SinkFaultKind::Stuck: return io::SinkFault::Stuck;
      case sim::SinkFaultKind::NoSpace: return io::SinkFault::NoSpace;
    }
    return io::SinkFault::None;
  };
  io::ResilientWriterConfig wcfg;
  wcfg.queue_chunks = queue;
  wcfg.overflow = overflow;
  wcfg.records_per_chunk = chunk_records;
  wcfg.jitter_seed = seed;
  auto primary = std::make_unique<io::FaultableSink>(
      std::make_unique<io::FileSpoolSink>(cli.pos(0)), fault_fn);
  std::unique_ptr<io::SpoolSink> second;
  if (secondary != nullptr) {
    second = std::make_unique<io::FileSpoolSink>(secondary);
  }
  io::ResilientWriter writer(wcfg, std::move(primary), std::move(second));

  // --- adaptive reset (the §V-C knob the watchdog sheds with) ------------
  core::AdaptiveResetConfig acfg;
  acfg.target_interval_ns = m.spec().ns(reset); // ~1 event/cycle workload
  acfg.min_reset = 64;
  acfg.max_reset = 1u << 22;
  core::AdaptiveReset ar(acfg, reset, m.spec(), [&m](std::uint64_t r) {
    m.cpu(1).pebs().set_reset(r);
  });

  // --- supervised session ------------------------------------------------
  core::OnlineTracerConfig ocfg;
  ocfg.synthesize_markers = true;
  ocfg.shed_backlog = shed_backlog;
  core::OnlineTracer online(symtab, ocfg);
  core::SessionSupervisorConfig scfg;
  scfg.backlog_high = shed_backlog;
  scfg.backlog_low = shed_backlog / 4 + 1;
  scfg.queue_high = queue - queue / 4;
  scfg.queue_low = queue / 8 + 1;
  core::SessionSupervisor sup(online, writer, scfg, &ar);

  const CpuSpec spec = m.spec();
  const auto to_ns = [&spec](Tsc tsc) {
    return static_cast<std::uint64_t>(spec.ns(tsc));
  };
  std::uint64_t last_ns = 0;
  m.marker_log().set_sink([&](const Marker& mk) {
    last_ns = to_ns(mk.tsc);
    sup.on_marker(mk, last_ns);
  });
  m.pebs_driver().set_loss_sink([&](const SampleLoss& l) {
    last_ns = to_ns(l.tsc);
    sup.on_sample_lost(l, last_ns);
  });
  m.pebs_driver().set_sink([&](const PebsSample& s) {
    last_ns = to_ns(s.tsc);
    sup.on_sample(s, last_ns);
    sup.tick(last_ns);
    if (crash_after > 0 &&
        writer.stats().chunks_committed >= crash_after) {
      // Simulated kill -9: no close(), no eof sentinel, no destructors —
      // the spool must salvage up to the last fsynced chunk.
      std::fprintf(stderr, "crash-after reached (%zu chunks): _Exit\n",
                   crash_after);
      std::fflush(stderr);
      std::_Exit(137);
    }
  });

  m.run();
  m.flush_samples();
  // Settle phase: with the workload done (backlog draining, no new
  // pressure) a few calm watchdog ticks let the supervisor restore R —
  // the bounded de-escalation the acceptance criteria ask for.
  for (int i = 0; i < 20 && sup.shed_steps() > 0; ++i) {
    last_ns += scfg.calm_hold_ns + 1;
    sup.tick(last_ns);
  }
  const auto report = sup.finish(last_ns + 1);

  std::printf("%s", report.summary().c_str());
  std::printf("faults: drain-lost=%llu sink-transients=%llu "
              "sink-stuck-hits=%llu sink-enospc-hits=%llu\n",
              static_cast<unsigned long long>(plan.samples_dropped()),
              static_cast<unsigned long long>(plan.sink_transients()),
              static_cast<unsigned long long>(plan.sink_stuck_hits()),
              static_cast<unsigned long long>(plan.sink_enospc_hits()));
  std::printf("reset: initial=%zu final=%llu adjustments=%llu\n", reset,
              static_cast<unsigned long long>(ar.current_reset()),
              static_cast<unsigned long long>(ar.adjustments()));
  std::printf("spool: active=%s\n", writer.active_sink_name().c_str());

  const int tel_rc = tel.finish();
  if (tel_rc != 0) return tel_rc;
  const bool ok = report.final_state != core::SessionState::Halted &&
                  report.reconciled;
  if (!ok) {
    std::fprintf(stderr, "session FAILED: state=%s reconciled=%s\n",
                 core::to_string(report.final_state),
                 report.reconciled ? "yes" : "no");
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
