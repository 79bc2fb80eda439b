#include "fluxtrace/io/v3.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "fluxtrace/codec/column.hpp"
#include "fluxtrace/io/chunk_util.hpp"
#include "fluxtrace/io/trace_file.hpp"

namespace fluxtrace::io {
namespace {

using codec::ColumnCodec;
using detail::app_u8;
using detail::app_u32;
using detail::app_u64;
using detail::peek_u8;
using detail::peek_u32;
using detail::peek_u64;

// Column layouts. The time column (min/max zone hint source) is column 0
// of every compressed type.
constexpr std::size_t kSampleCols = 3 + kNumRegs; // ts, ip, core, 16 GPRs
constexpr std::size_t kMarkerCols = 4;            // ts, item, core, kind
constexpr std::size_t kWaitCols = 7; // enter, leave, item, waiter, holder,
                                     // resource, cause

constexpr std::size_t kPayloadHeaderBytes = 4 + 8 + 8 + 1; // flags,min,max,n
constexpr std::size_t kColumnHeaderBytes = 1 + 1 + 4 + 4;  // id,codec,len,crc

// Fixed-width footprint of each column in the v2 row encoding, for the
// compression accounting in v3_compression_stats().
constexpr std::uint64_t kSampleColRaw[kSampleCols] = {
    8, 8, 4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8};
constexpr std::uint64_t kMarkerColRaw[kMarkerCols] = {8, 8, 4, 1};
constexpr std::uint64_t kWaitColRaw[kWaitCols] = {8, 8, 8, 4, 4, 4, 1};

[[nodiscard]] std::int64_t as_i64(std::uint64_t v) {
  return static_cast<std::int64_t>(v);
}
[[nodiscard]] std::uint64_t as_u64(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

[[nodiscard]] bool fits_u32(std::int64_t v) {
  return as_u64(v) <= 0xffffffffull;
}

std::size_t column_count_for(std::uint8_t type) {
  switch (type) {
    case kChunkTypeSamplesC: return kSampleCols;
    case kChunkTypeMarkersC: return kMarkerCols;
    case kChunkTypeWaitEdgesC: return kWaitCols;
    default: return 0;
  }
}

// --- encode -----------------------------------------------------------

void check_chunk_count(std::size_t n) {
  if (n == 0 || n > kMaxChunkRecords) {
    throw std::invalid_argument(
        "v3 chunk record count out of range: " + std::to_string(n));
  }
}

/// One complete compressed chunk, framed in place in the buffer it
/// returns. `fill(cols, stride)` writes the n records' columns in one
/// pass over the records, column c at cols[c * stride, c * stride + n);
/// column 0 is the time column the zone hint summarizes. `cols` and `enc`
/// are the caller's reusable working memory.
template <class Fill>
[[nodiscard]] std::string encode_chunk(std::vector<std::int64_t>& cols,
                                       codec::ColumnEncoder& enc,
                                       std::uint8_t type, std::size_t n,
                                       std::size_t n_cols, Fill fill) {
  check_chunk_count(n);
  // One cache line of skew per column: with a power-of-two n, columns
  // exactly n apart would all map to the same cache sets, and the fill's
  // column stores would evict each other.
  const std::size_t stride = n + 8;
  cols.resize(n_cols * stride);
  fill(cols.data(), stride);
  std::string b;
  b.reserve(detail::kChunkHeaderBytes + kPayloadHeaderBytes +
            n_cols * kColumnHeaderBytes + n * 8);
  const std::size_t frame = detail::open_chunk(b);
  const auto [min_ts, max_ts] = std::minmax_element(
      cols.begin(), cols.begin() + static_cast<std::ptrdiff_t>(n));
  app_u32(b, 0); // flags: none defined yet
  app_u64(b, as_u64(*min_ts));
  app_u64(b, as_u64(*max_ts));
  app_u8(b, static_cast<std::uint8_t>(n_cols));
  for (std::size_t c = 0; c < n_cols; ++c) {
    app_u8(b, static_cast<std::uint8_t>(c));
    const std::size_t head = b.size(); // codec | enc_bytes | enc_crc
    const std::size_t body = head + kColumnHeaderBytes - 1;
    b.resize(body);
    const ColumnCodec codec =
        enc.encode_best(std::span(cols.data() + c * stride, n), b);
    const std::size_t len = b.size() - body;
    b[head] = static_cast<char>(codec);
    detail::put_u32(b, head + 1, static_cast<std::uint32_t>(len));
    detail::put_u32(b, head + 5, crc32(b.data() + body, len));
  }
  detail::seal_chunk(b, frame, type, static_cast<std::uint32_t>(n));
  return b;
}

// --- decode -----------------------------------------------------------

struct ColRef {
  std::uint8_t codec = 0;
  std::uint32_t crc = 0;
  std::string_view bytes;
};

/// Parse the payload skeleton without decoding any column. Enforces the
/// record cap, zero flags, the exact expected column count, canonical
/// ascending column ids, and that the trailing column consumes the
/// payload exactly.
[[nodiscard]] bool parse_compressed_payload(std::string_view payload,
                                            std::size_t expect_cols,
                                            std::uint32_t n_records,
                                            ColRef* cols) {
  if (n_records == 0 || n_records > kMaxChunkRecords) return false;
  if (payload.size() < kPayloadHeaderBytes) return false;
  if (peek_u32(payload, 0) != 0) return false; // unknown flag bits
  if (peek_u8(payload, 20) != expect_cols) return false;
  std::size_t pos = kPayloadHeaderBytes;
  for (std::size_t c = 0; c < expect_cols; ++c) {
    if (payload.size() - pos < kColumnHeaderBytes) return false;
    if (peek_u8(payload, pos) != c) return false;
    cols[c].codec = peek_u8(payload, pos + 1);
    const std::uint32_t enc_bytes = peek_u32(payload, pos + 2);
    cols[c].crc = peek_u32(payload, pos + 6);
    pos += kColumnHeaderBytes;
    if (payload.size() - pos < enc_bytes) return false;
    cols[c].bytes = payload.substr(pos, enc_bytes);
    pos += enc_bytes;
  }
  return pos == payload.size();
}

/// Decode one column, CRC first. `out` must hold n values.
[[nodiscard]] bool decode_col(const ColRef& c, std::uint32_t n,
                              std::int64_t* out) {
  if (c.codec >= codec::kNumColumnCodecs) return false;
  if (crc32(c.bytes.data(), c.bytes.size()) != c.crc) return false;
  return codec::decode_column(static_cast<ColumnCodec>(c.codec), c.bytes, n,
                              out);
}

[[nodiscard]] bool decode_samples_c(std::string_view payload, std::uint32_t n,
                                    SampleVec& out) {
  ColRef cols[kSampleCols];
  if (!parse_compressed_payload(payload, kSampleCols, n, cols)) return false;
  const std::size_t base = out.size();
  out.resize(base + n);
  std::vector<std::int64_t> tmp(n);
  for (std::size_t c = 0; c < kSampleCols; ++c) {
    if (!decode_col(cols[c], n, tmp.data())) {
      out.resize(base);
      return false;
    }
    switch (c) {
      case 0:
        for (std::uint32_t i = 0; i < n; ++i) {
          out[base + i].tsc = as_u64(tmp[i]);
        }
        break;
      case 1:
        for (std::uint32_t i = 0; i < n; ++i) {
          out[base + i].ip = as_u64(tmp[i]);
        }
        break;
      case 2:
        for (std::uint32_t i = 0; i < n; ++i) {
          if (!fits_u32(tmp[i])) {
            out.resize(base);
            return false;
          }
          out[base + i].core = static_cast<std::uint32_t>(tmp[i]);
        }
        break;
      default:
        for (std::uint32_t i = 0; i < n; ++i) {
          out[base + i].regs.v[c - 3] = as_u64(tmp[i]);
        }
        break;
    }
  }
  return true;
}

[[nodiscard]] bool decode_markers_c(std::string_view payload, std::uint32_t n,
                                    std::vector<Marker>& out) {
  ColRef cols[kMarkerCols];
  if (!parse_compressed_payload(payload, kMarkerCols, n, cols)) return false;
  std::vector<std::int64_t> ts(n), item(n), core(n), kind(n);
  if (!decode_col(cols[0], n, ts.data()) ||
      !decode_col(cols[1], n, item.data()) ||
      !decode_col(cols[2], n, core.data()) ||
      !decode_col(cols[3], n, kind.data())) {
    return false;
  }
  const std::size_t base = out.size();
  out.resize(base + n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!fits_u32(core[i]) ||
        as_u64(kind[i]) >
            static_cast<std::uint64_t>(MarkerKind::Leave)) {
      out.resize(base);
      return false;
    }
    Marker& m = out[base + i];
    m.tsc = as_u64(ts[i]);
    m.item = as_u64(item[i]);
    m.core = static_cast<std::uint32_t>(core[i]);
    m.kind = static_cast<MarkerKind>(kind[i]);
  }
  return true;
}

[[nodiscard]] bool decode_wait_edges_c(std::string_view payload,
                                       std::uint32_t n,
                                       std::vector<WaitEdge>& out) {
  ColRef cols[kWaitCols];
  if (!parse_compressed_payload(payload, kWaitCols, n, cols)) return false;
  std::vector<std::vector<std::int64_t>> v(kWaitCols);
  for (std::size_t c = 0; c < kWaitCols; ++c) {
    v[c].resize(n);
    if (!decode_col(cols[c], n, v[c].data())) return false;
  }
  const std::size_t base = out.size();
  out.resize(base + n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!fits_u32(v[3][i]) || !fits_u32(v[4][i]) || !fits_u32(v[5][i]) ||
        as_u64(v[6][i]) >= kNumWaitCauses) {
      out.resize(base);
      return false;
    }
    WaitEdge& e = out[base + i];
    e.enter = as_u64(v[0][i]);
    e.leave = as_u64(v[1][i]);
    e.item = as_u64(v[2][i]);
    e.waiter_core = static_cast<std::uint32_t>(v[3][i]);
    e.holder_core = static_cast<std::uint32_t>(v[4][i]);
    e.resource = static_cast<std::uint32_t>(v[5][i]);
    e.cause = static_cast<WaitCause>(v[6][i]);
  }
  return true;
}

} // namespace

std::string encode_v3_file_header() {
  std::string header;
  app_u32(header, kTraceMagic);
  app_u32(header, kTraceVersion3);
  return header;
}

std::string V3ChunkEncoder::encode(const PebsSample* ss, std::size_t n) {
  return encode_chunk(cols_, columns_, kChunkTypeSamplesC, n, kSampleCols,
                      [ss, n](std::int64_t* cols, std::size_t stride) {
                        for (std::size_t i = 0; i < n; ++i) {
                          const PebsSample& s = ss[i];
                          cols[i] = as_i64(s.tsc);
                          cols[stride + i] = as_i64(s.ip);
                          cols[2 * stride + i] = s.core;
                          for (std::size_t r = 0; r < kNumRegs; ++r) {
                            cols[(3 + r) * stride + i] = as_i64(s.regs.v[r]);
                          }
                        }
                      });
}

std::string V3ChunkEncoder::encode(const Marker* ms, std::size_t n) {
  return encode_chunk(cols_, columns_, kChunkTypeMarkersC, n, kMarkerCols,
                      [ms, n](std::int64_t* cols, std::size_t stride) {
                        for (std::size_t i = 0; i < n; ++i) {
                          const Marker& m = ms[i];
                          cols[i] = as_i64(m.tsc);
                          cols[stride + i] = as_i64(m.item);
                          cols[2 * stride + i] = m.core;
                          cols[3 * stride + i] =
                              static_cast<std::int64_t>(m.kind);
                        }
                      });
}

std::string V3ChunkEncoder::encode(const WaitEdge* es, std::size_t n) {
  return encode_chunk(cols_, columns_, kChunkTypeWaitEdgesC, n, kWaitCols,
                      [es, n](std::int64_t* cols, std::size_t stride) {
                        for (std::size_t i = 0; i < n; ++i) {
                          const WaitEdge& e = es[i];
                          cols[i] = as_i64(e.enter);
                          cols[stride + i] = as_i64(e.leave);
                          cols[2 * stride + i] = as_i64(e.item);
                          cols[3 * stride + i] = e.waiter_core;
                          cols[4 * stride + i] = e.holder_core;
                          cols[5 * stride + i] = e.resource;
                          cols[6 * stride + i] =
                              static_cast<std::int64_t>(e.cause);
                        }
                      });
}

std::string encode_sample_chunk_v3(const PebsSample* ss, std::size_t n) {
  return V3ChunkEncoder{}.encode(ss, n);
}

std::string encode_marker_chunk_v3(const Marker* ms, std::size_t n) {
  return V3ChunkEncoder{}.encode(ms, n);
}

std::string encode_wait_chunk_v3(const WaitEdge* es, std::size_t n) {
  return V3ChunkEncoder{}.encode(es, n);
}

void write_trace_v3(std::ostream& os, const TraceData& data,
                    std::size_t records_per_chunk) {
  check_chunk_count(records_per_chunk);
  const auto check = [&os](const char* section) {
    if (os.good()) return;
    std::string msg = std::string("write failed (") + section + ")";
    if (errno != 0) msg += std::string(": ") + std::strerror(errno);
    throw TraceIoError(msg);
  };
  errno = 0;
  const std::string header = encode_v3_file_header();
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  check("header");

  const auto put = [&os](const std::string& chunk) {
    os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  };
  V3ChunkEncoder enc;
  const auto put_section = [&](const auto& recs) {
    for (std::size_t at = 0; at < recs.size(); at += records_per_chunk) {
      const std::size_t n = std::min(records_per_chunk, recs.size() - at);
      put(enc.encode(recs.data() + at, n));
    }
  };
  put_section(data.markers);
  check("marker chunks");
  put_section(data.samples);
  check("sample chunks");
  put_section(data.wait_edges);
  check("wait-edge chunks");
  // Same torn-write sentinel as v2.
  put(encode_eof_chunk());
  os.flush();
  check("eof chunk");
}

void save_trace_v3(const std::string& path, const TraceData& data,
                   std::size_t records_per_chunk) {
  check_chunk_count(records_per_chunk); // before the file exists
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw TraceIoError("cannot open for writing: " + path + ": " +
                       std::strerror(errno));
  }
  try {
    write_trace_v3(os, data, records_per_chunk);
  } catch (const TraceIoError& e) {
    throw TraceIoError(std::string(e.what()) + ": " + path);
  }
  os.close();
  if (!os) {
    throw TraceIoError("write failed (close): " + path + ": " +
                       std::strerror(errno));
  }
}

bool decode_compressed_chunk(std::uint8_t type, std::string_view payload,
                             std::uint32_t n_records, TraceData& out) {
  switch (type) {
    case kChunkTypeSamplesC:
      return decode_samples_c(payload, n_records, out.samples);
    case kChunkTypeMarkersC:
      return decode_markers_c(payload, n_records, out.markers);
    case kChunkTypeWaitEdgesC:
      return decode_wait_edges_c(payload, n_records, out.wait_edges);
    default:
      return false;
  }
}

void decode_v3_samples_into(std::string_view file, const V2ChunkRef& ref,
                            const SampleColumnSlice& out) {
  if (ref.type != kChunkTypeSamplesC) {
    throw TraceIoError("not a compressed sample chunk at offset " +
                       std::to_string(ref.offset));
  }
  const std::string_view payload = detail::chunk_payload(file, ref);
  ColRef cols[kSampleCols];
  if (!parse_compressed_payload(payload, kSampleCols, ref.n_records, cols)) {
    throw TraceIoError("malformed compressed sample payload at offset " +
                       std::to_string(ref.offset));
  }
  const auto decode_into = [&](std::size_t c, std::int64_t* dst) {
    if (dst == nullptr) return;
    if (!decode_col(cols[c], ref.n_records, dst)) {
      throw TraceIoError("compressed column " + std::to_string(c) +
                         " damaged at offset " + std::to_string(ref.offset));
    }
  };
  decode_into(0, out.tsc);
  decode_into(1, out.ip);
  decode_into(2, out.core);
  if (out.reg != nullptr) decode_into(3 + out.reg_index, out.reg);
}

V3ZoneHint read_v3_zone_hint(std::string_view file, const V2ChunkRef& ref) {
  V3ZoneHint hint;
  if (!is_compressed_chunk_type(ref.type)) return hint;
  if (ref.payload_bytes < kPayloadHeaderBytes) return hint;
  try {
    const std::string_view payload = detail::chunk_payload(file, ref);
    hint.min_ts = static_cast<std::int64_t>(peek_u64(payload, 4));
    hint.max_ts = static_cast<std::int64_t>(peek_u64(payload, 12));
    hint.ok = true;
  } catch (const TraceIoError&) {
    // Damaged chunk: no hint; the caller's decode path will handle it.
  }
  return hint;
}

std::vector<V3ColumnSummary> v3_compression_stats(std::string_view file) {
  static constexpr const char* kSampleNames[kSampleCols] = {
      "samples.ts",    "samples.ip",    "samples.core",  "samples.reg00",
      "samples.reg01", "samples.reg02", "samples.reg03", "samples.reg04",
      "samples.reg05", "samples.reg06", "samples.reg07", "samples.reg08",
      "samples.reg09", "samples.reg10", "samples.reg11", "samples.reg12",
      "samples.reg13", "samples.reg14", "samples.reg15"};
  static constexpr const char* kMarkerNames[kMarkerCols] = {
      "markers.ts", "markers.item", "markers.core", "markers.kind"};
  static constexpr const char* kWaitNames[kWaitCols] = {
      "wait.enter",  "wait.leave",    "wait.item", "wait.waiter",
      "wait.holder", "wait.resource", "wait.cause"};

  std::vector<V3ColumnSummary> out;
  const auto slot = [&out](const char* name) -> V3ColumnSummary& {
    for (auto& s : out) {
      if (s.name == name) return s;
    }
    out.emplace_back();
    out.back().name = name;
    return out.back();
  };

  for (const V2ChunkRef& ref : index_trace_v2(file)) {
    if (!is_compressed_chunk_type(ref.type)) continue;
    const std::string_view payload = detail::chunk_payload(file, ref);
    const std::size_t n_cols = column_count_for(ref.type);
    std::vector<ColRef> cols(n_cols);
    if (!parse_compressed_payload(payload, n_cols, ref.n_records,
                                  cols.data())) {
      throw TraceIoError("malformed compressed payload at offset " +
                         std::to_string(ref.offset));
    }
    for (std::size_t c = 0; c < n_cols; ++c) {
      const char* name = ref.type == kChunkTypeSamplesC ? kSampleNames[c]
                         : ref.type == kChunkTypeMarkersC
                             ? kMarkerNames[c]
                             : kWaitNames[c];
      const std::uint64_t raw = ref.type == kChunkTypeSamplesC
                                    ? kSampleColRaw[c]
                                : ref.type == kChunkTypeMarkersC
                                    ? kMarkerColRaw[c]
                                    : kWaitColRaw[c];
      V3ColumnSummary& s = slot(name);
      s.raw_bytes += raw * ref.n_records;
      s.enc_bytes += cols[c].bytes.size();
      if (cols[c].codec < codec::kNumColumnCodecs) {
        ++s.codec_chunks[cols[c].codec];
      }
    }
  }
  return out;
}

} // namespace fluxtrace::io
