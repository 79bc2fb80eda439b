// Extension: the FLXT v3 compressed columnar container (ISSUE 10).
// Three claims are measured and *asserted*, not just printed:
//
//   1. on a structured 1M-sample trace the v3 file is at most 50% of
//      the v2 file — dictionary'd func/item ids, delta+zigzag+varint
//      timestamps, and FoR bit-packed core/dur/ip have to earn their
//      complexity in bytes;
//   2. the cold open (mmap + chunk-parallel decode straight into the
//      columnar store) is >= 2x faster than the v2 sequential
//      baseline — graduated by the measured parallelism (common.hpp):
//      a host under 4 effective cores cannot prove the parallel half of
//      that claim, so there the bench asserts bit-identity only;
//   3. the decoded trace is bit-identical to the v2 decode, record for
//      record, and so is every column of the built store.
//
// Results land in BENCH_codec.json (encode, per-path cold opens, size
// ratio) so CI can diff runs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "json_out.hpp"

using namespace fluxtrace;

namespace {

constexpr std::size_t kItems = 1000;
constexpr std::size_t kSamplesPerItem = 1000; // 1M samples total
constexpr std::size_t kRecordsPerChunk = 4096;
constexpr int kTimedRuns = 3; // best-of, to shrug off scheduler noise

struct Workload {
  SymbolTable symtab;
  io::TraceData data;
};

/// Structured the way real captures are: near-monotonic timestamps,
/// a small working set of functions, 8 cores, a wait edge per item.
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
      smp.tsc = t0 + 1 + (s * 89000) / kSamplesPerItem + rnd() % 16;
      smp.core = core;
      smp.ip = w.symtab.ip_at(fns[rnd() % 2 == 0 ? 0 : rnd() % 16], 0.5);
      w.data.samples.push_back(smp);
    }
    WaitEdge e;
    e.enter = t0 + 100;
    e.leave = t0 + 300 + rnd() % 500;
    e.item = i;
    e.waiter_core = core;
    e.holder_core = (core + 1) % 8;
    e.resource = static_cast<std::uint32_t>(i % 4);
    e.cause = static_cast<WaitCause>(rnd() % kNumWaitCauses);
    w.data.wait_edges.push_back(e);
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

std::uint64_t file_bytes(const std::string& path) {
  const io::TraceReader r = io::open_trace(path);
  return r.size_bytes();
}

/// Best-of-N cold columnar open: every run reopens the file and
/// rebuilds the store from scratch (no engine-level caching involved).
double cold_open_ms(const std::string& path, const SymbolTable& symtab,
                    unsigned threads, std::size_t* rows_out) {
  double best = 1e30;
  for (int run = 0; run < kTimedRuns; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    const query::ColumnarTrace ct = query::ColumnarTrace::from_reader(
        io::open_trace(path), symtab, {}, threads);
    best = std::min(best, ms_since(t0));
    require(!ct.salvaged(), "cold open of an undamaged file never salvages");
    *rows_out = ct.rows();
  }
  return best;
}

} // namespace

int main() {
  bench::banner("ext_codec: FLXT v3 compressed columnar container",
                "ISSUE 10 (codec subsystem over the §IV trace container)");

  const Workload w = make_workload();
  const std::string p2 = "/tmp/fluxtrace_bench_codec.flxt2";
  const std::string p3 = "/tmp/fluxtrace_bench_codec.flxt3";
  const double n_rows = static_cast<double>(w.data.samples.size());

  bench::BenchJson json("codec");

  // ---- encode both containers, account the bytes ---------------------
  {
    const auto t0 = std::chrono::steady_clock::now();
    io::save_trace_v2(p2, w.data, kRecordsPerChunk);
    const double v2_ms = ms_since(t0);
    const auto t1 = std::chrono::steady_clock::now();
    io::save_trace_v3(p3, w.data, kRecordsPerChunk);
    const double v3_ms = ms_since(t1);
    std::printf("encode: v2 %.1f ms, v3 %.1f ms (%zu samples, %zu "
                "records/chunk)\n",
                v2_ms, v3_ms, w.data.samples.size(), kRecordsPerChunk);
    json.add("encode_v2", n_rows, v2_ms * 1e6 / n_rows);
    json.add("encode_v3", n_rows, v3_ms * 1e6 / n_rows);
  }

  // ---- 1. size: v3 <= 50% of v2 --------------------------------------
  const std::uint64_t b2 = file_bytes(p2);
  const std::uint64_t b3 = file_bytes(p3);
  const double ratio = static_cast<double>(b3) / static_cast<double>(b2);
  std::printf("size  : v2 %8.2f MiB, v3 %8.2f MiB -> ratio %.3f "
              "(need <= 0.50)\n",
              b2 / 1048576.0, b3 / 1048576.0, ratio);
  require(ratio <= 0.50, "v3 file <= 50% of the v2 file on typical data");
  json.add("size_ratio_v3_over_v2", 1, ratio);

  // ---- 3. bit-identity: records and columns --------------------------
  {
    const io::TraceReader r2 = io::open_trace(p2);
    const io::TraceReader r3 = io::open_trace(p3);
    require(r3.mapped(), "v3 opens through the mmap path");
    require(r3.format() == io::TraceFormat::FlxtV3, "v3 autodetected");
    const io::TraceData d2 = r2.read();
    const io::TraceData d3 = r3.read();
    require(d2 == d3, "v3 decode bit-identical to v2 decode");
    require(d3 == w.data, "v3 decode bit-identical to the recorded data");
    std::printf("ident : v3 records == v2 records == recorded "
                "(%zu samples, %zu markers, %zu wait edges)\n",
                d3.samples.size(), d3.markers.size(), d3.wait_edges.size());
  }

  // ---- 2. cold columnar open: v3 parallel vs. v2 sequential ----------
  const unsigned hw = std::thread::hardware_concurrency();
  std::size_t rows2 = 0;
  std::size_t rows3 = 0;
  const double v2_seq_ms = cold_open_ms(p2, w.symtab, 1, &rows2);
  const double v3_par_ms = cold_open_ms(p3, w.symtab, hw ? hw : 1, &rows3);
  const double speedup = v2_seq_ms / v3_par_ms;
  require(rows2 == rows3 && rows2 == w.data.samples.size(),
          "both paths build every row");
  {
    // Column-level identity of the two stores.
    const query::ColumnarTrace c2 = query::ColumnarTrace::from_reader(
        io::open_trace(p2), w.symtab, {}, 1);
    const query::ColumnarTrace c3 = query::ColumnarTrace::from_reader(
        io::open_trace(p3), w.symtab, {}, hw ? hw : 1);
    for (std::size_t f = 0; f < query::kNumFields; ++f) {
      const auto a = c2.col(static_cast<query::Field>(f));
      const auto b = c3.col(static_cast<query::Field>(f));
      require(std::equal(a.begin(), a.end(), b.begin(), b.end()),
              "every column of the v3 store == the v2 store");
    }
  }
  std::printf("cold  : v2 seq %7.1f ms (%.2f ns/row), v3 mmap+parallel "
              "%7.1f ms (%.2f ns/row) -> %.2fx\n",
              v2_seq_ms, v2_seq_ms * 1e6 / n_rows, v3_par_ms,
              v3_par_ms * 1e6 / n_rows, speedup);
  json.add("cold_open_v2_seq", n_rows, v2_seq_ms * 1e6 / n_rows);
  json.add("cold_open_v3_parallel", n_rows, v3_par_ms * 1e6 / n_rows);
  json.add("cold_open_speedup", 1, speedup);

  // The parallel half of the claim needs cores to run on; a thin runner
  // proves bit-identity above and reports the (unasserted) number. The
  // tier comes from the measured parallelism, not the reported CPUs.
  const double par = bench::measured_parallelism();
  const unsigned cores = bench::effective_cores(par);
  json.host("effective_parallelism", par);
  json.host("hardware_concurrency", hw);
  if (cores >= 4) {
    std::printf("        %u CPUs, measured parallelism %.2f: asserting "
                ">= 2x\n", hw, par);
    require(speedup >= 2.0,
            "v3 cold open >= 2x faster than the v2 sequential baseline");
  } else {
    std::printf("        %u CPUs, measured parallelism %.2f (< 4 cores): "
                "speedup not provable here, asserting identity only\n",
                hw, par);
  }

  json.write();
  std::remove(p2.c_str());
  std::remove(p3.c_str());
  std::printf("\nall assertions held: v3 within the 50%% size budget, "
              "decode and store\nbit-identical to v2, cold open within the "
              "2x budget (graduated by core count).\n");
  return 0;
}
