// flxt_convert — rewrite a trace as FLXT v3 (compressed columnar chunks,
// docs/format.md), printing the size ratio. The input may be any file of
// the chunk family: a raw v2 trace written by an earlier version, or a v3
// trace to re-chunk.
//
//   flxt_convert <in> <out>                     any chunked input -> v3
//   flxt_convert <in> <out> --chunk-records N   N records per chunk
//                                               (smaller chunks = finer
//                                               flxt_query pruning; at
//                                               most io::kMaxChunkRecords)
//
// Damaged input is refused; flxt_recover salvages and rewrites it.
#include <cstdio>
#include <fstream>
#include <string>

#include "cli.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"

using namespace fluxtrace;

namespace {

std::uint64_t file_size(const char* path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<std::uint64_t>(f.tellg()) : 0;
}

} // namespace

int main(int argc, char** argv) try {
  tools::Cli cli(argc, argv,
                 std::string("usage: ") + argv[0] +
                     " <in> <out> [--chunk-records N] [--telemetry FILE] "
                     "[--metrics] [--version]");
  std::size_t chunk_records = io::kDefaultChunkRecordsV3;
  cli.flag_count_pos("--chunk-records", &chunk_records);
  tools::Telemetry tel;
  tel.attach(cli);
  if (!cli.parse(2, 2)) return cli.usage();
  if (chunk_records > io::kMaxChunkRecords) {
    std::fprintf(stderr, "error: --chunk-records expects at most %u, got %zu\n",
                 io::kMaxChunkRecords, chunk_records);
    return cli.usage();
  }
  tel.start();
  const char* in = cli.pos(0);
  const char* out = cli.pos(1);

  try {
    const io::TraceData data = io::open_trace(in).read();
    io::save_trace_v3(out, data, chunk_records);
    const std::uint64_t in_sz = file_size(in);
    const std::uint64_t out_sz = file_size(out);
    std::printf("%s (%llu bytes) -> %s (%llu bytes), ratio %.2fx\n", in,
                static_cast<unsigned long long>(in_sz), out,
                static_cast<unsigned long long>(out_sz),
                out_sz > 0 ? static_cast<double>(in_sz) /
                                 static_cast<double>(out_sz)
                           : 0.0);
    std::printf("%zu markers, %zu samples\n", data.markers.size(),
                data.samples.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return tel.finish();
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
