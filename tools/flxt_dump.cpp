// flxt_dump — inspect a fluxtrace binary trace file: any file of the
// FLXT chunk family (v2 raw or v3 compressed chunks) the
// io::TraceReader facade opens. For a v3 trace the footer also reports
// per-column raw vs. encoded bytes and which codec carried each column
// (docs/format.md).
//
//   flxt_dump <trace>                  summary + first records
//   flxt_dump <trace> --head N         show N records of each stream
//   flxt_dump <trace> --csv markers    full marker stream as CSV
//   flxt_dump <trace> --csv samples    full sample stream as CSV
//   flxt_dump <trace> --salvage        best-effort read of a damaged
//                                      file (recovers intact chunks)
//
// Every mode ends with a per-trace summary footer: item count with a
// pairing/confidence breakdown, sample coverage, and the trace's TSC
// span — the quick "is this capture healthy?" read.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli.hpp"
#include "fluxtrace/core/attribution.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/report/csv.hpp"

using namespace fluxtrace;

namespace {

// CSV export: one stream per call, RFC-4180 cells, header row included.
void write_markers_csv(std::ostream& os, const std::vector<Marker>& markers) {
  report::CsvWriter w(os);
  w.header({"tsc", "item", "core", "kind"});
  for (const Marker& m : markers) {
    w.row({std::to_string(m.tsc), std::to_string(m.item),
           std::to_string(m.core),
           m.kind == MarkerKind::Enter ? "enter" : "leave"});
  }
}

void write_samples_csv(std::ostream& os, const SampleVec& samples) {
  report::CsvWriter w(os);
  w.header({"tsc", "ip", "core", "r13"});
  for (const PebsSample& s : samples) {
    w.row({std::to_string(s.tsc), std::to_string(s.ip),
           std::to_string(s.core), std::to_string(s.regs.get(Reg::R13))});
  }
}

// Pair markers with the attribution kernel's strict rule and classify
// everything that does not pair. An item is "clean" when every one of
// its edges paired; an Enter never left or an orphan Leave means a
// degraded-mode read would have to synthesize the missing edge.
void print_summary_footer(const io::TraceData& data) {
  core::WindowIndex windows(data.markers);
  std::map<ItemId, std::size_t> edges; // markers per item, minus paired
  std::size_t enters = 0;
  for (const Marker& m : data.markers) {
    ++edges[m.item];
    enters += m.kind == MarkerKind::Enter ? 1 : 0;
  }
  const std::size_t paired = windows.windows().size();
  for (const core::ItemWindow& w : windows.windows()) edges[w.item] -= 2;
  std::size_t dirty = 0;
  for (const auto& [item, unpaired] : edges) dirty += unpaired > 0 ? 1 : 0;
  const std::size_t unterminated = enters - paired;
  const std::size_t orphan_leaves = data.markers.size() - enters - paired;

  std::size_t covered = 0;
  for (const PebsSample& s : data.samples) {
    covered += windows.locate(s.core, s.tsc) != kNoItem ? 1 : 0;
  }
  const std::size_t uncovered = data.samples.size() - covered;

  Tsc t_min = ~Tsc{0}, t_max = 0;
  for (const Marker& m : data.markers) {
    t_min = std::min(t_min, m.tsc);
    t_max = std::max(t_max, m.tsc);
  }
  for (const PebsSample& s : data.samples) {
    t_min = std::min(t_min, s.tsc);
    t_max = std::max(t_max, s.tsc);
  }

  std::printf("\nsummary:\n");
  std::printf("  items:    %zu (%zu windows paired, %zu enters unterminated, "
              "%zu orphan leaves)\n",
              edges.size(), paired, unterminated, orphan_leaves);
  std::printf("  quality:  %zu clean, %zu would need edge synthesis "
              "(--degraded)\n",
              edges.size() - dirty, dirty);
  std::printf("  samples:  %zu inside item windows, %zu outside (loss "
              "suspects)\n",
              covered, uncovered);
  if (t_max >= t_min && (!data.markers.empty() || !data.samples.empty())) {
    std::printf("  tsc span: %llu .. %llu (%llu cycles)\n",
                static_cast<unsigned long long>(t_min),
                static_cast<unsigned long long>(t_max),
                static_cast<unsigned long long>(t_max - t_min));
  }

  // Wait-edge summary (ISSUE 8): how much of the trace's story is
  // blocking rather than work, and what mostly caused it.
  if (!data.wait_edges.empty()) {
    std::uint64_t by_cause[kNumWaitCauses] = {};
    std::uint64_t total_blocked = 0;
    for (const WaitEdge& e : data.wait_edges) {
      by_cause[static_cast<std::uint8_t>(e.cause)] += e.blocked();
      total_blocked += e.blocked();
    }
    std::uint8_t top = 0;
    for (std::uint8_t c = 1; c < kNumWaitCauses; ++c) {
      if (by_cause[c] > by_cause[top]) top = c;
    }
    std::printf("  waits:    %zu edges, top cause %s (%llu of %llu blocked "
                "tsc)\n",
                data.wait_edges.size(),
                std::string(to_string(static_cast<WaitCause>(top))).c_str(),
                static_cast<unsigned long long>(by_cause[top]),
                static_cast<unsigned long long>(total_blocked));
  }
}

// Per-column compression accounting for a v3 trace: raw fixed-width
// bytes vs. encoded bytes, the ratio, and the codec that carried most
// chunks of the column. Appended after the health footer so `flxt_dump
// trace.flxt3` answers "what is the compression actually doing?".
void print_compression_footer(const std::vector<io::V3ColumnSummary>& cols) {
  if (cols.empty()) return;
  std::printf("\ncompression (v3 columns):\n");
  std::printf("  %-16s %12s %12s %8s  %s\n", "column", "raw", "encoded",
              "ratio", "codec");
  std::uint64_t raw_total = 0, enc_total = 0;
  for (const io::V3ColumnSummary& c : cols) {
    raw_total += c.raw_bytes;
    enc_total += c.enc_bytes;
    std::uint8_t top = 0;
    for (std::uint8_t k = 1; k < codec::kNumColumnCodecs; ++k) {
      if (c.codec_chunks[k] > c.codec_chunks[top]) top = k;
    }
    std::printf("  %-16s %12llu %12llu %7.2fx  %s\n", c.name.c_str(),
                static_cast<unsigned long long>(c.raw_bytes),
                static_cast<unsigned long long>(c.enc_bytes),
                c.enc_bytes > 0 ? static_cast<double>(c.raw_bytes) /
                                      static_cast<double>(c.enc_bytes)
                                : 0.0,
                std::string(codec::column_codec_name(
                                static_cast<codec::ColumnCodec>(top)))
                    .c_str());
  }
  std::printf("  %-16s %12llu %12llu %7.2fx\n", "total",
              static_cast<unsigned long long>(raw_total),
              static_cast<unsigned long long>(enc_total),
              enc_total > 0 ? static_cast<double>(raw_total) /
                                  static_cast<double>(enc_total)
                            : 0.0);
}

} // namespace

int main(int argc, char** argv) try {
  tools::Cli cli(argc, argv,
                 std::string("usage: ") + argv[0] +
                     " <trace-file> [--head N] [--csv markers|samples] "
                     "[--salvage] [--telemetry FILE] "
                     "[--metrics] [--version]");
  std::size_t head = 10;
  const char* csv = nullptr;
  bool salvage = false;
  cli.flag_count("--head", &head);
  cli.flag_str("--csv", &csv);
  cli.flag("--salvage", &salvage);
  tools::Telemetry tel;
  tel.attach(cli);
  if (!cli.parse(1, 1)) return cli.usage();
  tel.start();
  const char* path = cli.pos(0);

  io::TraceData data;
  std::vector<io::V3ColumnSummary> comp;
  try {
    const io::TraceReader reader = io::open_trace(path);
    if (reader.format() == io::TraceFormat::FlxtV3) {
      try {
        comp = io::v3_compression_stats(reader.bytes());
      } catch (const io::TraceIoError&) {
        // damaged image: the summary below still covers what was read
      }
    }
    if (salvage) {
      io::SalvageReport rep = reader.salvage();
      std::fprintf(stderr,
                   "salvage: %zu chunks ok, %zu corrupt, %zu resynced, "
                   "%llu bytes skipped, %llu bytes truncated%s\n",
                   rep.chunks_ok, rep.chunks_corrupt, rep.chunks_resynced,
                   static_cast<unsigned long long>(rep.bytes_skipped),
                   static_cast<unsigned long long>(rep.bytes_truncated),
                   rep.clean() ? " (file was clean)" : "");
      data = std::move(rep.data);
    } else {
      data = reader.read();
    }
  } catch (const io::TraceIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (csv != nullptr) {
    if (std::strcmp(csv, "markers") == 0) {
      write_markers_csv(std::cout, data.markers);
    } else if (std::strcmp(csv, "samples") == 0) {
      write_samples_csv(std::cout, data.samples);
    } else {
      return cli.usage();
    }
    return tel.finish();
  }

  std::printf("%s: %zu markers, %zu samples (%zu bytes of records)\n\n",
              path, data.markers.size(), data.samples.size(),
              data.samples.size() * kPebsRecordBytes);

  std::printf("markers (first %zu):\n  %-16s %-12s %-4s %s\n", head, "tsc",
              "item", "core", "kind");
  for (std::size_t i = 0; i < data.markers.size() && i < head; ++i) {
    const Marker& m = data.markers[i];
    std::printf("  %-16llu %-12llu %-4u %s\n",
                static_cast<unsigned long long>(m.tsc),
                static_cast<unsigned long long>(m.item), m.core,
                m.kind == MarkerKind::Enter ? "enter" : "leave");
  }

  std::printf("\nsamples (first %zu):\n  %-16s %-12s %-4s %s\n", head, "tsc",
              "ip", "core", "r13");
  for (std::size_t i = 0; i < data.samples.size() && i < head; ++i) {
    const PebsSample& s = data.samples[i];
    std::printf("  %-16llu 0x%-10llx %-4u %llu\n",
                static_cast<unsigned long long>(s.tsc),
                static_cast<unsigned long long>(s.ip), s.core,
                static_cast<unsigned long long>(s.regs.get(Reg::R13)));
  }
  print_summary_footer(data);
  print_compression_footer(comp);
  return tel.finish();
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
