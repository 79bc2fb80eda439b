// flxt_recover — salvage a damaged trace (a crash mid-dump, a bit-rotted
// sector). Chunked input (FLXT v2 raw or v3 compressed — one chunk
// family) recovers every chunk whose header, payload, and per-column
// CRCs check out — even when the file header itself is destroyed — and
// rewrites them as a clean v3 file; damage is reported, never silently
// returned as data, and a damaged compressed column costs only its own
// chunk.
//
//   flxt_recover <damaged> [<out>]     report only, or also write <out>
//   flxt_recover <trace> <symbols> --rebuild-index [--regs]
//                                      rebuild the FLXI sidecar (the same
//                                      refresh path hub ingest runs)
//
// Exit status: 0 when at least one chunk was recovered (or the sidecar
// was refreshed), 1 when nothing was recoverable / the trace is not
// indexable (or on error), 2 on bad usage.
#include <cstdio>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "fluxtrace/io/symbols_file.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/flxi.hpp"

using namespace fluxtrace;

int main(int argc, char** argv) try {
  tools::Cli cli(argc, argv,
                 std::string("usage: ") + argv[0] +
                     " <damaged-trace> [<recovered-out>] "
                     "| <trace> <symbols> --rebuild-index [--regs] "
                     "[--telemetry FILE] [--metrics] [--version]");
  bool rebuild_index = false;
  bool regs = false;
  cli.flag("--rebuild-index", &rebuild_index);
  cli.flag("--regs", &regs);
  tools::Telemetry tel;
  tel.attach(cli);
  if (!cli.parse(1, 2)) return cli.usage();
  tel.start();
  const char* path = cli.pos(0);

  if (rebuild_index) {
    if (cli.n_pos() != 2) return cli.usage();
    SymbolTable symtab;
    try {
      symtab = io::load_symbols(cli.pos(1));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    query::SidecarStatus status;
    try {
      status = query::refresh_sidecar(io::open_trace(path), symtab, regs);
    } catch (const io::TraceIoError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("%s: %s\n", query::flxi_path(path).c_str(),
                query::to_string(status));
    const bool ok = status == query::SidecarStatus::Fresh ||
                    status == query::SidecarStatus::Rebuilt;
    if (!ok) return 1;
    return tel.finish();
  }

  io::SalvageReport rep;
  try {
    rep = io::open_trace(path).salvage();
  } catch (const io::TraceIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("%s: %s header; %zu chunks ok, %zu corrupt, %zu resynced, "
              "%llu bytes skipped, %llu bytes truncated\n",
              path, rep.header_ok ? "intact" : "damaged", rep.chunks_ok,
              rep.chunks_corrupt, rep.chunks_resynced,
              static_cast<unsigned long long>(rep.bytes_skipped),
              static_cast<unsigned long long>(rep.bytes_truncated));
  std::printf("recovered %zu markers, %zu samples, %zu wait edges%s\n",
              rep.data.markers.size(), rep.data.samples.size(),
              rep.data.wait_edges.size(),
              rep.clean() ? " (file was already clean)" : "");

  if (rep.chunks_ok == 0 && rep.data.markers.empty() &&
      rep.data.samples.empty()) {
    std::fprintf(stderr, "nothing recoverable\n");
    return 1;
  }

  if (cli.n_pos() == 2) {
    try {
      io::save_trace_v3(cli.pos(1), rep.data);
    } catch (const io::TraceIoError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %s\n", cli.pos(1));
  }
  return tel.finish();
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
