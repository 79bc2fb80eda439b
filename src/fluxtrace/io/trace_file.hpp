// What a trace file holds. The paper's prototype dumps raw PEBS samples
// and the marker log to SSD for later offline integration (§III-E);
// fluxtrace writes that dump as FLXT v3 (io/v3.hpp) and reads it back
// through io::open_trace() (io/trace_reader.hpp). Readers report
// malformed input via TraceIoError rather than crashing on truncated
// files.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fluxtrace/base/markers.hpp"
#include "fluxtrace/base/samples.hpp"
#include "fluxtrace/base/wait.hpp"

namespace fluxtrace::io {

class TraceIoError : public std::runtime_error {
 public:
  explicit TraceIoError(const std::string& what) : std::runtime_error(what) {}
};

/// Everything one tracing session produces.
struct TraceData {
  std::vector<Marker> markers;
  SampleVec samples;
  std::vector<WaitEdge> wait_edges;

  friend bool operator==(const TraceData&, const TraceData&) = default;
};

inline constexpr std::uint32_t kTraceMagic = 0x54584c46; // "FLXT"

} // namespace fluxtrace::io
