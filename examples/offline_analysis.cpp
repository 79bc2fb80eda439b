// Offline analysis workflow: a production host records the raw marker and
// sample streams to a trace file (what the paper's prototype writes to
// SSD); an analysis host loads it later — possibly days later, long after
// the non-functional state is gone — and integrates, which is the whole
// point of the method: the fluctuation was captured at its single
// occurrence, so nothing needs reproducing.
//
// Usage: ./examples/offline_analysis [trace-path]
//        (default: a temp file; the example records, saves, loads,
//        integrates, and prints the per-item diagnosis)
#include <cstdio>
#include <cstdlib>

#include "fluxtrace/apps/query_cache_app.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/io/symbols_file.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"

using namespace fluxtrace;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/fluxtrace_example.trace");

  // ---- "production host": run traced, dump the raw streams ------------
  SymbolTable symtab;
  apps::QueryCacheApp app(symtab);
  {
    sim::Machine machine(symtab);
    sim::PebsConfig pebs;
    pebs.reset = 8000;
    machine.cpu(1).enable_pebs(pebs);
    app.submit(apps::QueryCacheApp::paper_queries());
    app.attach(machine, 0, 1);
    machine.run();
    machine.flush_samples();

    io::TraceData data;
    data.markers = machine.marker_log().markers();
    data.samples = machine.pebs_driver().samples();
    io::save_trace_v3(path, data);
    // The symbol table travels with the trace so the analysis host (or
    // the flxt_* tools, e.g. in the CI telemetry smoke job) can resolve
    // instruction pointers without re-running anything.
    io::save_symbols(path + ".syms", symtab);
    std::printf("recorded %zu markers + %zu samples -> %s (+ .syms)\n",
                data.markers.size(), data.samples.size(), path.c_str());
  }

  // ---- "analysis host": load and integrate, no live system needed -----
  const io::TraceData loaded = io::open_trace(path).read();
  core::TraceIntegrator integrator(symtab);
  const core::TraceTable trace =
      integrator.integrate(loaded.markers, loaded.samples);

  const CpuSpec spec; // must match the recording host's clock
  std::printf("\nper-query diagnosis (from the file alone):\n");
  std::printf("query | total [us] | f3 [us]\n");
  for (const ItemId item : trace.items()) {
    std::printf("  #%-3llu | %10.2f | %7.2f\n",
                static_cast<unsigned long long>(item),
                spec.us(trace.item_window_total(item)),
                spec.us(trace.elapsed(item, app.f3())));
  }
  std::printf("\nqueries 1 and 5 fluctuated; f3 (the recompute path) is\n"
              "responsible — diagnosed entirely from the stored trace.\n");
  if (argc <= 1) {
    // Default temp files are cleaned up; an explicit path is kept so
    // scripts (CI) can hand the trace to the flxt_* tools afterwards.
    std::remove(path.c_str());
    std::remove((path + ".syms").c_str());
  }
  return 0;
}
