// Extension: the trace query engine over a 1M-sample FLXT v2 trace.
// Four claims are measured and *asserted*, not just printed:
//
//   1. the cold full scan (decode + columnar build + batch scan) holds
//      the ISSUE 7 budget: >= 5x faster than the recorded per-row
//      engine's 1161.188 ns/row, i.e. <= 232.2 ns/row;
//   2. a selective query on a reopened trace prunes chunks through the
//      FLXI sidecar — strictly fewer chunks read than the full scan —
//      and skips blocks through the zone maps;
//   3. the pruned result is byte-identical to the index-free result;
//   4. the parallel scan is bit-identical to the sequential one at
//      every thread count tried, and scales when the host has cores to
//      scale onto (graduated by the measured parallelism, common.hpp).
//
// Results land in BENCH_query.json (full scan, pruned scan, parallel
// sweep) so CI can diff runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/query/engine.hpp"
#include "json_out.hpp"

using namespace fluxtrace;

namespace {

constexpr std::size_t kItems = 1000;
constexpr std::size_t kSamplesPerItem = 1000; // 1M samples total
constexpr std::size_t kRecordsPerChunk = 4096;

// ISSUE 7 acceptance: the recorded per-row engine measured
// 1161.188 ns/row cold; the batch engine must be >= 5x faster.
constexpr double kColdBudgetNsPerRow = 1161.188 / 5.0;

struct Workload {
  SymbolTable symtab;
  io::TraceData data;
};

/// Synthetic but structured: each item is one marker window on one of 8
/// cores; sample ips spread over 16 functions with a stable hot one.
Workload make_workload() {
  Workload w;
  std::vector<SymbolId> fns;
  for (int i = 0; i < 16; ++i) {
    fns.push_back(w.symtab.add("svc::fn_" + std::to_string(i), 0x400));
  }
  auto rnd = [state = 0x9e3779b97f4a7c15ull]() mutable {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  w.data.samples.reserve(kItems * kSamplesPerItem);
  for (std::size_t i = 0; i < kItems; ++i) {
    const auto core = static_cast<std::uint32_t>(i % 8);
    const Tsc t0 = 100000 * (i + 1);
    const Tsc t1 = t0 + 90000;
    w.data.markers.push_back({t0, i, core, MarkerKind::Enter});
    for (std::size_t s = 0; s < kSamplesPerItem; ++s) {
      PebsSample smp;
      smp.tsc = t0 + 1 + (s * 89000) / kSamplesPerItem;
      smp.core = core;
      // Zipf-ish: half the samples in fn_0, the rest spread.
      smp.ip = w.symtab.ip_at(fns[rnd() % 2 == 0 ? 0 : rnd() % 16], 0.5);
      w.data.samples.push_back(smp);
    }
    w.data.markers.push_back({t1, i, core, MarkerKind::Leave});
  }
  return w;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "ASSERTION FAILED: %s\n", what);
    std::exit(1);
  }
}

} // namespace

int main() {
  bench::banner("ext_query_scan: batch columnar queries + FLXI pruning",
                "ISSUE 7 (batch scan API over the §IV trace container)");

  const Workload w = make_workload();
  const std::string path = "/tmp/fluxtrace_bench_query.flxt";
  std::remove(query::flxi_path(path).c_str());
  io::save_trace_v2(path, w.data, kRecordsPerChunk);
  std::printf("trace: %zu samples, %zu items, %zu records/chunk\n\n",
              w.data.samples.size(), kItems, kRecordsPerChunk);

  bench::BenchJson json("query");
  const double n_rows = static_cast<double>(w.data.samples.size());
  const std::string selective =
      "filter item == 500 | group func: count, sum(ts)";

  // ---- 1. cold full scan (no sidecar yet) — group-by over everything --
  query::QueryResult full_group;
  {
    query::EngineOptions opts;
    opts.threads = 1;
    query::QueryEngine eng = query::QueryEngine::open(path, w.symtab, opts);
    const auto t0 = std::chrono::steady_clock::now();
    full_group = eng.run("group func: count, sum(dur), p99(ts)");
    const double ms = ms_since(t0);
    const double ns_per_row = ms * 1e6 / n_rows;
    require(full_group.stats.index_written, "cold scan persists the sidecar");
    require(!full_group.stats.index_used, "cold scan cannot use a sidecar");
    std::printf("full scan  : %8.1f ms  (%.2f ns/row, %zu chunks read, "
                "group func -> %zu rows)\n",
                ms, ns_per_row, full_group.stats.chunks_read,
                full_group.rows.size());
    require(ns_per_row <= kColdBudgetNsPerRow,
            "cold full scan >= 5x faster than the recorded 1161.188 ns/row");
    json.add("full_scan_group_by", n_rows, ns_per_row);
  }

  // ---- 2. reopened engine: FLXI prunes the selective query -----------
  query::QueryResult pruned;
  {
    query::EngineOptions opts;
    opts.threads = 1;
    query::QueryEngine eng = query::QueryEngine::open(path, w.symtab, opts);
    const auto t0 = std::chrono::steady_clock::now();
    pruned = eng.run(selective);
    const double ms = ms_since(t0);
    require(pruned.stats.index_used, "reopen uses the sidecar");
    require(pruned.stats.chunks_read < pruned.stats.chunks_total,
            "pruned scan reads fewer chunks than the trace holds");
    require(pruned.stats.chunks_pruned > 0, "pruning skipped chunks");
    std::printf("pruned scan: %8.1f ms  (%zu of %zu chunks read, %zu "
                "pruned, %zu of %zu blocks zone-skipped)\n",
                ms, pruned.stats.chunks_read, pruned.stats.chunks_total,
                pruned.stats.chunks_pruned, pruned.stats.blocks_skipped,
                pruned.stats.blocks_total);
    json.add("pruned_selective_scan", n_rows, ms * 1e6 / n_rows);
  }

  // ---- 3. the pruned result is identical to the index-free one -------
  {
    query::EngineOptions opts;
    opts.threads = 1;
    opts.use_index = false;
    opts.write_index = false;
    query::QueryEngine eng = query::QueryEngine::open(path, w.symtab, opts);
    const query::QueryResult unpruned = eng.run(selective);
    require(!unpruned.stats.index_used, "index disabled");
    require(unpruned.rows == pruned.rows && unpruned.columns == pruned.columns,
            "pruned result identical to the full-scan result");
    std::printf("identity   : pruned == full-scan result (%zu rows)\n",
                pruned.rows.size());
  }

  // ---- 4. parallel sweep: bit-identical at every thread count --------
  std::printf("\nparallel scan sweep (filter + group, no index):\n");
  query::QueryResult seq_ref;
  std::map<unsigned, double> sweep_ms;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    query::EngineOptions opts;
    opts.threads = threads;
    opts.use_index = false;
    opts.write_index = false;
    query::QueryEngine eng = query::QueryEngine::open(path, w.symtab, opts);
    const std::string q =
        "filter ts % 5 != 0 | group core: count, sum(ts), p95(ts)";
    (void)eng.run(q); // warm the columnar cache; time the scan alone
    const auto t0 = std::chrono::steady_clock::now();
    const query::QueryResult res = eng.run(q);
    const double ms = ms_since(t0);
    if (threads == 1) {
      seq_ref = res;
    } else {
      require(res.rows == seq_ref.rows && res.columns == seq_ref.columns,
              "parallel scan bit-identical to sequential");
    }
    std::printf("  threads=%u: %7.1f ms (%.2f ns/row)\n", threads, ms,
                ms * 1e6 / n_rows);
    sweep_ms[threads] = ms;
    json.add("scan_threads_" + std::to_string(threads), n_rows,
             ms * 1e6 / n_rows);
  }

  // Scaling is asserted only as hard as the host can deliver: a 2-core
  // runner cannot prove an 8-thread speedup, and a 1-core host cannot
  // prove any — there the sweep only proves bit-identity. The tier comes
  // from the measured parallelism, not from the CPUs the host reports.
  const double par = bench::measured_parallelism();
  const unsigned cores = bench::effective_cores(par);
  json.host("effective_parallelism", par);
  json.host("hardware_concurrency", std::thread::hardware_concurrency());
  std::printf("  host     : %u CPUs reported, measured parallelism %.2f\n",
              std::thread::hardware_concurrency(), par);
  if (cores >= 8) {
    std::printf("  scaling  : %u effective cores, threads=8 speedup %.2fx "
                "(need >= 4x)\n",
                cores, sweep_ms[1] / sweep_ms[8]);
    require(sweep_ms[1] / sweep_ms[8] >= 4.0,
            "threads=8 scan >= 4x faster than threads=1");
  } else if (cores >= 4) {
    std::printf("  scaling  : %u effective cores, threads=4 speedup %.2fx "
                "(need >= 2x)\n",
                cores, sweep_ms[1] / sweep_ms[4]);
    require(sweep_ms[1] / sweep_ms[4] >= 2.0,
            "threads=4 scan >= 2x faster than threads=1");
  } else if (cores >= 2) {
    std::printf("  scaling  : %u effective cores, threads=2 speedup %.2fx "
                "(need >= 1.3x)\n",
                cores, sweep_ms[1] / sweep_ms[2]);
    require(sweep_ms[1] / sweep_ms[2] >= 1.3,
            "threads=2 scan >= 1.3x faster than threads=1");
  } else {
    std::printf("  scaling  : ONE EFFECTIVE CORE — speedup not measurable "
                "here, asserting bit-identity only\n");
  }

  json.write();
  std::remove(path.c_str());
  std::remove(query::flxi_path(path).c_str());
  std::printf("\nall assertions held: cold scan within the 5x budget, "
              "pruning reads fewer\nchunks, results identical, parallel == "
              "sequential at every thread count.\n");
  return 0;
}
