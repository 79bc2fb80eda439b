// Trace persistence. The paper's prototype dumps raw PEBS samples and the
// marker log to SSD for later offline integration (§III-E); this module
// gives that dump a real format:
//
//   * a compact little-endian binary container ("FLXT") holding the
//     marker and sample streams, with a versioned header and per-section
//     counts, safe to read back on any host;
//   * CSV export of both streams for ad-hoc analysis.
//
// Readers validate magic/version/section sizes and report malformed input
// via TraceIoError rather than crashing on truncated files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fluxtrace/base/markers.hpp"
#include "fluxtrace/base/samples.hpp"
#include "fluxtrace/base/wait.hpp"

namespace fluxtrace::io {

class TraceIoError : public std::runtime_error {
 public:
  explicit TraceIoError(const std::string& what) : std::runtime_error(what) {}
};

/// Everything one tracing session produces. Wait edges (ISSUE 8) exist
/// only in the v2 chunked container; the v1 format has no slot for them
/// and drops them on write.
struct TraceData {
  std::vector<Marker> markers;
  SampleVec samples;
  std::vector<WaitEdge> wait_edges;

  friend bool operator==(const TraceData&, const TraceData&) = default;
};

inline constexpr std::uint32_t kTraceMagic = 0x54584c46; // "FLXT"
inline constexpr std::uint32_t kTraceVersion = 1;

/// Serialize to the binary container. Throws TraceIoError on stream
/// failure.
void write_trace(std::ostream& os, const TraceData& data);

/// File-path convenience.
void save_trace(const std::string& path, const TraceData& data);

// The legacy single-format readers (read_trace, load_trace) moved to the
// io-internal io/legacy.hpp; open traces via io::open_trace()
// (io/trace_reader.hpp), which autodetects every container.

/// Buffer-based strict v1 body parse (`body` = the bytes after the 8-byte
/// magic + version header: both record counts, then the two record
/// streams). Trailing bytes beyond the counted records are ignored, like
/// the stream reader. io-internal, used by TraceReader.
[[nodiscard]] TraceData read_trace_v1_body(std::string_view body);

/// CSV export: one stream per call, RFC-4180 cells, header row included.
void write_markers_csv(std::ostream& os, const std::vector<Marker>& markers);
void write_samples_csv(std::ostream& os, const SampleVec& samples);

} // namespace fluxtrace::io
