// Component micro-benchmarks (google-benchmark): the real-time cost of
// the library's hot paths — ring operations, trie classification, trace
// integration, detector updates, cache-model accesses.
//
// Besides the console table, every run is teed into BENCH_results.json
// ({name, iters, ns_per_op, p99_ns}) so CI can diff runs numerically;
// the heavyweight benchmarks also time each iteration into an
// obs::Histogram and report its p99.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "fluxtrace/acl/classifier.hpp"
#include "fluxtrace/acl/ruleset.hpp"
#include "fluxtrace/core/detector.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/core/online.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/obs/span.hpp"
#include "json_out.hpp"
#include "fluxtrace/db/btree.hpp"
#include "fluxtrace/db/bufferpool.hpp"
#include "fluxtrace/rt/sim_channel.hpp"
#include "fluxtrace/rt/spsc_ring.hpp"
#include "fluxtrace/sim/cache.hpp"

using namespace fluxtrace;

namespace {

void BM_SpscRingPushPop(benchmark::State& state) {
  rt::SpscRing<std::uint64_t> ring(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ring.push(++v);
    benchmark::DoNotOptimize(ring.pop());
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_SimChannelPushPop(benchmark::State& state) {
  rt::SimChannel<std::uint64_t> ch(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ++v;
    ch.push(v, v);
    benchmark::DoNotOptimize(ch.pop(v));
  }
}
BENCHMARK(BM_SimChannelPushPop);

void BM_TrieClassifyPaperPacket(benchmark::State& state) {
  static const acl::RuleSet rules = acl::make_paper_ruleset();
  static const acl::MultiTrieClassifier clf(
      rules, acl::MultiTrieConfig{acl::kPaperRulesPerTrie, 0});
  const acl::PaperPackets pk;
  const FlowKey keys[3] = {pk.type_a, pk.type_b, pk.type_c};
  const FlowKey key = keys[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.classify(key));
  }
}
BENCHMARK(BM_TrieClassifyPaperPacket)->Arg(0)->Arg(1)->Arg(2);

void BM_LinearScanClassify(benchmark::State& state) {
  static const acl::LinearScanClassifier clf(acl::make_paper_ruleset());
  const acl::PaperPackets pk;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.classify(pk.type_a));
  }
}
BENCHMARK(BM_LinearScanClassify);

void BM_IntegrateSamples(benchmark::State& state) {
  SymbolTable symtab;
  std::vector<SymbolId> fns;
  for (int i = 0; i < 8; ++i) {
    fns.push_back(symtab.add("fn" + std::to_string(i), 0x400));
  }
  const std::int64_t n = state.range(0);
  std::vector<Marker> markers;
  std::vector<PebsSample> samples;
  Tsc t = 0;
  for (std::int64_t item = 0; item < n / 10; ++item) {
    markers.push_back(
        Marker{t, static_cast<ItemId>(item), 0, MarkerKind::Enter});
    for (int s = 0; s < 10; ++s) {
      PebsSample smp;
      smp.tsc = t + 10 + static_cast<Tsc>(s) * 30;
      smp.ip = symtab.ip_at(fns[static_cast<std::size_t>(s) % fns.size()], 0.5);
      samples.push_back(smp);
    }
    t += 400;
    markers.push_back(
        Marker{t, static_cast<ItemId>(item), 0, MarkerKind::Leave});
    t += 50;
  }
  core::TraceIntegrator integ(symtab);
  obs::Histogram lat;
  for (auto _ : state) {
    const std::uint64_t t0 = obs::steady_now_ns();
    benchmark::DoNotOptimize(integ.integrate(markers, samples));
    lat.observe(obs::steady_now_ns() - t0);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["p99_ns"] = lat.snapshot().quantile(0.99);
}
BENCHMARK(BM_IntegrateSamples)->Arg(1000)->Arg(10000);

// End-to-end analysis pipeline: open + decode + integrate a one-million
// sample, 8-core FLXT v2 trace through the io::TraceReader facade and
// core::TraceIntegrator. Built once.
struct EndToEndTrace {
  SymbolTable symtab;
  std::string v2_bytes;
  std::int64_t n_samples = 0;
};

const EndToEndTrace& end_to_end_trace() {
  static const EndToEndTrace fx = [] {
    EndToEndTrace f;
    std::vector<SymbolId> fns;
    for (int i = 0; i < 8; ++i) {
      fns.push_back(f.symtab.add("fn" + std::to_string(i), 0x400));
    }
    constexpr std::uint32_t kCores = 8;
    constexpr std::size_t kItemsPerCore = 5000;
    constexpr std::size_t kSamplesPerItem = 25; // 8 * 5000 * 25 = 1M samples
    io::TraceData d;
    ItemId item = 1;
    for (std::uint32_t core = 0; core < kCores; ++core) {
      Tsc t = 1000 + core;
      for (std::size_t k = 0; k < kItemsPerCore; ++k, ++item) {
        d.markers.push_back(Marker{t, item, core, MarkerKind::Enter});
        for (std::size_t s = 0; s < kSamplesPerItem; ++s) {
          PebsSample smp;
          smp.tsc = t + 10 + static_cast<Tsc>(s) * 30;
          smp.core = core;
          smp.ip = f.symtab.ip_at(fns[(k + s) % fns.size()], 0.5);
          d.samples.push_back(smp);
        }
        t += 10 + kSamplesPerItem * 30;
        d.markers.push_back(Marker{t, item, core, MarkerKind::Leave});
        t += 50;
      }
    }
    f.n_samples = static_cast<std::int64_t>(d.samples.size());
    std::ostringstream os;
    io::write_trace_v2(os, d);
    f.v2_bytes = std::move(os).str();

    return f;
  }();
  return fx;
}

void BM_TraceReadEndToEnd(benchmark::State& state) {
  const EndToEndTrace& fx = end_to_end_trace();
  obs::Histogram lat;
  for (auto _ : state) {
    const std::uint64_t t0 = obs::steady_now_ns();
    const io::TraceReader reader =
        io::open_trace_bytes(std::string(fx.v2_bytes));
    const io::TraceData data = reader.read();
    core::TraceIntegrator integ(fx.symtab);
    benchmark::DoNotOptimize(integ.integrate(data.markers, data.samples));
    lat.observe(obs::steady_now_ns() - t0);
  }
  state.SetItemsProcessed(state.iterations() * fx.n_samples);
  state.counters["p99_ns"] = lat.snapshot().quantile(0.99);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.v2_bytes.size()));
}
BENCHMARK(BM_TraceReadEndToEnd)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DetectorObserve(benchmark::State& state) {
  core::FluctuationDetector det;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.observe(i, i % 16, 1000 + (i % 37)));
    ++i;
  }
}
BENCHMARK(BM_DetectorObserve);

void BM_CacheHierarchyAccess(benchmark::State& state) {
  sim::CacheHierarchy cache;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr += 64;
    if (addr > (1u << 22)) addr = 0;
  }
}
BENCHMARK(BM_CacheHierarchyAccess);

void BM_TrieBuildPaperRuleset(benchmark::State& state) {
  const acl::RuleSet rules = acl::make_paper_ruleset();
  for (auto _ : state) {
    acl::MultiTrieClassifier clf(
        rules, acl::MultiTrieConfig{acl::kPaperRulesPerTrie, 0});
    benchmark::DoNotOptimize(clf.num_tries());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rules.size()));
}
BENCHMARK(BM_TrieBuildPaperRuleset)->Unit(benchmark::kMillisecond);

void BM_BTreeFind(benchmark::State& state) {
  static const auto tree = [] {
    db::BTree t(64);
    for (std::uint64_t k = 0; k < 100000; ++k) t.insert(k, k);
    return t;
  }();
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.find(k));
    k = (k + 7919) % 100000;
  }
}
BENCHMARK(BM_BTreeFind);

void BM_BTreeInsert(benchmark::State& state) {
  db::BTree t(64);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.insert(k, k));
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(k));
}
BENCHMARK(BM_BTreeInsert);

void BM_BufferPoolFetch(benchmark::State& state) {
  db::BufferPool pool(1024);
  std::uint64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.fetch(page));
    page = (page + 97) % 2048; // 50% hit rate steady state
  }
}
BENCHMARK(BM_BufferPoolFetch);

void BM_OnlineTracerPerItem(benchmark::State& state) {
  SymbolTable symtab;
  const SymbolId fn = symtab.add("fn", 0x400);
  core::OnlineTracer ot(symtab);
  Tsc t = 0;
  ItemId id = 0;
  for (auto _ : state) {
    ot.on_marker(Marker{t, ++id, 0, MarkerKind::Enter});
    for (int i = 0; i < 4; ++i) {
      PebsSample s;
      s.tsc = t + 10 + static_cast<Tsc>(i) * 20;
      s.ip = symtab.ip_at(fn, 0.5);
      ot.on_sample(s);
    }
    ot.on_marker(Marker{t + 100, id, 0, MarkerKind::Leave});
    t += 150;
  }
}
BENCHMARK(BM_OnlineTracerPerItem);

// Console output plus BENCH_results.json: each finished run is teed to
// the JSON sink with its cpu ns/op and, when the benchmark measured one,
// its p99_ns user counter.
class TeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit TeeReporter(bench::BenchJson& out) : out_(out) {}
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters = static_cast<double>(run.iterations);
      const double ns_per_op =
          iters > 0 ? run.cpu_accumulated_time * 1e9 / iters : 0.0;
      const auto p99 = run.counters.find("p99_ns");
      out_.add(run.benchmark_name(), iters, ns_per_op,
               p99 != run.counters.end() ? p99->second.value : -1.0);
    }
  }

 private:
  bench::BenchJson& out_;
};

} // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchJson json("results");
  TeeReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.write();
  return 0;
}
