#include "fluxtrace/io/trace_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <ostream>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/legacy.hpp"
#include "fluxtrace/report/csv.hpp"

namespace fluxtrace::io {

namespace {

// Explicit little-endian encoding so files are host-independent.
void put_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

void put_u32(std::ostream& os, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(os, static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::ostream& os, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(os, static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint8_t get_u8(std::istream& is) {
  const int c = is.get();
  if (c == std::char_traits<char>::eof()) {
    throw TraceIoError("unexpected end of trace file");
  }
  return static_cast<std::uint8_t>(c);
}

std::uint32_t get_u32(std::istream& is) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(get_u8(is)) << (8 * i);
  return v;
}

std::uint64_t get_u64(std::istream& is) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(get_u8(is)) << (8 * i);
  return v;
}

// Buffer-based little-endian peeks for the in-memory body parsers.
std::uint8_t peek_u8(std::string_view b, std::size_t at) {
  return static_cast<std::uint8_t>(b[at]);
}

std::uint32_t peek_u32(std::string_view b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(peek_u8(b, at + static_cast<std::size_t>(i)))
         << (8 * i);
  }
  return v;
}

std::uint64_t peek_u64(std::string_view b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(peek_u8(b, at + static_cast<std::size_t>(i)))
         << (8 * i);
  }
  return v;
}

constexpr std::size_t kV1MarkerBytes = 8 + 8 + 4 + 1;
constexpr std::size_t kV1SampleBytes = 8 + 8 + 4 + sizeof(RegisterFile{}.v);

// Decodes one v1 marker record at `at`; false on an invalid kind byte.
bool peek_marker(std::string_view b, std::size_t at, Marker& m) {
  m.tsc = peek_u64(b, at);
  m.item = peek_u64(b, at + 8);
  m.core = peek_u32(b, at + 16);
  const std::uint8_t kind = peek_u8(b, at + 20);
  if (kind > static_cast<std::uint8_t>(MarkerKind::Leave)) return false;
  m.kind = static_cast<MarkerKind>(kind);
  return true;
}

void peek_sample(std::string_view b, std::size_t at, PebsSample& s) {
  s.tsc = peek_u64(b, at);
  s.ip = peek_u64(b, at + 8);
  s.core = peek_u32(b, at + 16);
  std::size_t r_at = at + 20;
  for (std::uint64_t& r : s.regs.v) {
    r = peek_u64(b, r_at);
    r_at += 8;
  }
}

// Shared header validation for the v1 body parsers: returns the two
// record counts after bounding them and checking the body actually holds
// that many records (same diagnostics as the stream reader).
struct V1Layout {
  std::uint64_t n_markers;
  std::uint64_t n_samples;
  std::size_t markers_at;
  std::size_t samples_at;
};

V1Layout v1_layout(std::string_view body) {
  if (body.size() < 16) throw TraceIoError("unexpected end of trace file");
  V1Layout l{};
  l.n_markers = peek_u64(body, 0);
  l.n_samples = peek_u64(body, 8);
  constexpr std::uint64_t kMaxRecords = 1ull << 32;
  if (l.n_markers > kMaxRecords || l.n_samples > kMaxRecords) {
    throw TraceIoError("corrupt trace header (record count too large)");
  }
  l.markers_at = 16;
  l.samples_at = 16 + static_cast<std::size_t>(l.n_markers) * kV1MarkerBytes;
  const std::uint64_t needed = 16 + l.n_markers * kV1MarkerBytes +
                               l.n_samples * kV1SampleBytes;
  // Trailing bytes past the counted records are ignored, like the stream
  // reader (which simply never consumes them).
  if (body.size() < needed) throw TraceIoError("unexpected end of trace file");
  return l;
}

// A failed stream write would otherwise leave a silently truncated file;
// report *which* section failed, with the errno text when the OS has one
// (matching the reader's "cannot open: path: reason" convention — the
// save_* wrappers append the path).
void check_write(std::ostream& os, const char* section) {
  if (os.good()) return;
  std::string msg = std::string("write failed (") + section + ")";
  if (errno != 0) msg += std::string(": ") + std::strerror(errno);
  throw TraceIoError(msg);
}

} // namespace

void write_trace(std::ostream& os, const TraceData& data) {
  errno = 0;
  put_u32(os, kTraceMagic);
  put_u32(os, kTraceVersion);
  put_u64(os, data.markers.size());
  put_u64(os, data.samples.size());
  check_write(os, "header");

  for (const Marker& m : data.markers) {
    put_u64(os, m.tsc);
    put_u64(os, m.item);
    put_u32(os, m.core);
    put_u8(os, static_cast<std::uint8_t>(m.kind));
  }
  check_write(os, "markers");
  for (const PebsSample& s : data.samples) {
    put_u64(os, s.tsc);
    put_u64(os, s.ip);
    put_u32(os, s.core);
    for (const std::uint64_t r : s.regs.v) put_u64(os, r);
  }
  check_write(os, "samples");
  os.flush();
  check_write(os, "flush");
}

TraceData read_trace(std::istream& is) {
  if (get_u32(is) != kTraceMagic) {
    throw TraceIoError("not a fluxtrace file (bad magic)");
  }
  const std::uint32_t version = get_u32(is);
  if (version == kTraceVersion2) return read_trace_v2_body(is);
  if (version != kTraceVersion) {
    throw TraceIoError("unsupported trace version " + std::to_string(version));
  }
  const std::uint64_t n_markers = get_u64(is);
  const std::uint64_t n_samples = get_u64(is);

  // Sanity bound: reject sizes that cannot fit in the stream (protects
  // against allocating petabytes on a corrupt header).
  constexpr std::uint64_t kMaxRecords = 1ull << 32;
  if (n_markers > kMaxRecords || n_samples > kMaxRecords) {
    throw TraceIoError("corrupt trace header (record count too large)");
  }

  // Grow past this incrementally: a header count is untrusted input, so a
  // single reserve() of the full claimed size would let a 20-byte corrupt
  // file allocate gigabytes before the parse loop hits EOF.
  constexpr std::uint64_t kMaxReserve = 1ull << 16;
  TraceData data;
  data.markers.reserve(std::min(n_markers, kMaxReserve));
  for (std::uint64_t i = 0; i < n_markers; ++i) {
    Marker m;
    m.tsc = get_u64(is);
    m.item = get_u64(is);
    m.core = get_u32(is);
    const std::uint8_t kind = get_u8(is);
    if (kind > static_cast<std::uint8_t>(MarkerKind::Leave)) {
      throw TraceIoError("corrupt marker record (bad kind)");
    }
    m.kind = static_cast<MarkerKind>(kind);
    data.markers.push_back(m);
  }
  data.samples.reserve(std::min(n_samples, kMaxReserve));
  for (std::uint64_t i = 0; i < n_samples; ++i) {
    PebsSample s;
    s.tsc = get_u64(is);
    s.ip = get_u64(is);
    s.core = get_u32(is);
    for (std::uint64_t& r : s.regs.v) r = get_u64(is);
    data.samples.push_back(s);
  }
  return data;
}

TraceData read_trace_v1_body(std::string_view body) {
  const V1Layout l = v1_layout(body);
  TraceData data;
  // Unlike the stream reader, the layout check above already proved the
  // buffer holds every counted record, so full-size allocation is safe —
  // a corrupt header cannot trigger an allocation bomb here.
  data.markers.reserve(static_cast<std::size_t>(l.n_markers));
  data.samples.reserve(static_cast<std::size_t>(l.n_samples));
  for (std::uint64_t i = 0; i < l.n_markers; ++i) {
    Marker m;
    if (!peek_marker(body,
                     l.markers_at + static_cast<std::size_t>(i) * kV1MarkerBytes,
                     m)) {
      throw TraceIoError("corrupt marker record (bad kind)");
    }
    data.markers.push_back(m);
  }
  for (std::uint64_t i = 0; i < l.n_samples; ++i) {
    PebsSample s;
    peek_sample(body,
                l.samples_at + static_cast<std::size_t>(i) * kV1SampleBytes, s);
    data.samples.push_back(s);
  }
  return data;
}

void save_trace(const std::string& path, const TraceData& data) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw TraceIoError("cannot open for writing: " + path + ": " +
                       std::strerror(errno));
  }
  try {
    write_trace(os, data);
  } catch (const TraceIoError& e) {
    throw TraceIoError(std::string(e.what()) + ": " + path);
  }
  os.close();
  if (!os) {
    throw TraceIoError("write failed (close): " + path + ": " +
                       std::strerror(errno));
  }
}

TraceData load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw TraceIoError("cannot open for reading: " + path + ": " +
                       std::strerror(errno));
  }
  try {
    return read_trace(is);
  } catch (const TraceIoError& e) {
    throw TraceIoError(std::string(e.what()) + ": " + path);
  }
}

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

} // namespace fluxtrace::io
