#include "fluxtrace/io/chunked.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fluxtrace/io/chunk_util.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/metrics.hpp"

namespace fluxtrace::io {

namespace {

using detail::app_u8;
using detail::app_u32;
using detail::app_u64;
using detail::kChunkHeaderBytes;
using detail::open_chunk;
using detail::peek_u8;
using detail::peek_u32;
using detail::peek_u64;
using detail::put_u32;
using detail::seal_chunk;

constexpr std::uint8_t kChunkMarkers = 0;
constexpr std::uint8_t kChunkSamples = 1;
constexpr std::uint8_t kChunkEof = 2;
constexpr std::uint8_t kChunkWaitEdges = 3;

constexpr std::size_t kMarkerBytes = 8 + 8 + 4 + 1;
constexpr std::size_t kSampleBytes =
    8 + 8 + 4 + sizeof(RegisterFile{}.v); // tsc + ip + core + GPRs
constexpr std::size_t kWaitEdgeBytes =
    8 + 8 + 8 + 4 + 4 + 4 + 1; // enter+leave+item+waiter+holder+resource+cause

// --- record encode/decode (fixed-width little-endian) -----------------

void encode_marker(std::string& b, const Marker& m) {
  app_u64(b, m.tsc);
  app_u64(b, m.item);
  app_u32(b, m.core);
  app_u8(b, static_cast<std::uint8_t>(m.kind));
}

void encode_sample(std::string& b, const PebsSample& s) {
  app_u64(b, s.tsc);
  app_u64(b, s.ip);
  app_u32(b, s.core);
  for (const std::uint64_t r : s.regs.v) app_u64(b, r);
}

void encode_wait_edge(std::string& b, const WaitEdge& e) {
  app_u64(b, e.enter);
  app_u64(b, e.leave);
  app_u64(b, e.item);
  app_u32(b, e.waiter_core);
  app_u32(b, e.holder_core);
  app_u32(b, e.resource);
  app_u8(b, static_cast<std::uint8_t>(e.cause));
}

bool decode_markers(std::string_view payload, std::uint32_t n,
                    std::vector<Marker>& out) {
  if (payload.size() != static_cast<std::size_t>(n) * kMarkerBytes) return false;
  out.reserve(out.size() + n);
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    Marker m;
    m.tsc = peek_u64(payload, at);
    m.item = peek_u64(payload, at + 8);
    m.core = peek_u32(payload, at + 16);
    const std::uint8_t kind = peek_u8(payload, at + 20);
    if (kind > static_cast<std::uint8_t>(MarkerKind::Leave)) return false;
    m.kind = static_cast<MarkerKind>(kind);
    out.push_back(m);
    at += kMarkerBytes;
  }
  return true;
}

bool decode_samples(std::string_view payload, std::uint32_t n,
                    SampleVec& out) {
  if (payload.size() != static_cast<std::size_t>(n) * kSampleBytes) return false;
  out.reserve(out.size() + n);
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    PebsSample s;
    s.tsc = peek_u64(payload, at);
    s.ip = peek_u64(payload, at + 8);
    s.core = peek_u32(payload, at + 16);
    std::size_t r_at = at + 20;
    for (std::uint64_t& r : s.regs.v) {
      r = peek_u64(payload, r_at);
      r_at += 8;
    }
    out.push_back(s);
    at += kSampleBytes;
  }
  return true;
}

bool decode_wait_edges(std::string_view payload, std::uint32_t n,
                       std::vector<WaitEdge>& out) {
  if (payload.size() != static_cast<std::size_t>(n) * kWaitEdgeBytes) {
    return false;
  }
  out.reserve(out.size() + n);
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    WaitEdge e;
    e.enter = peek_u64(payload, at);
    e.leave = peek_u64(payload, at + 8);
    e.item = peek_u64(payload, at + 16);
    e.waiter_core = peek_u32(payload, at + 24);
    e.holder_core = peek_u32(payload, at + 28);
    e.resource = peek_u32(payload, at + 32);
    const std::uint8_t cause = peek_u8(payload, at + 36);
    if (cause >= kNumWaitCauses) return false;
    e.cause = static_cast<WaitCause>(cause);
    out.push_back(e);
    at += kWaitEdgeBytes;
  }
  return true;
}

} // namespace

void detail::seal_chunk(std::string& b, std::size_t at, std::uint8_t type,
                        std::uint32_t n_records) {
  const std::size_t payload_at = at + kChunkHeaderBytes;
  put_u32(b, at, kChunkMagic);
  b[at + 4] = static_cast<char>(type);
  put_u32(b, at + 5, n_records);
  put_u32(b, at + 9, static_cast<std::uint32_t>(b.size() - payload_at));
  put_u32(b, at + 13, crc32(b.data() + at, 13));
  put_u32(b, at + 17, crc32(b.data() + payload_at, b.size() - payload_at));
}

std::string encode_eof_chunk() {
  std::string b;
  seal_chunk(b, open_chunk(b), kChunkEof, 0);
  return b;
}

void write_trace_v2(std::ostream& os, const TraceData& data,
                    std::size_t records_per_chunk) {
  if (records_per_chunk == 0) records_per_chunk = 1;
  // Surface the failing section with the errno text instead of leaving a
  // silently truncated file (save_trace_v2 appends the path).
  const auto check = [&os](const char* section) {
    if (os.good()) return;
    std::string msg = std::string("write failed (") + section + ")";
    if (errno != 0) msg += std::string(": ") + std::strerror(errno);
    throw TraceIoError(msg);
  };
  errno = 0;
  std::string header;
  app_u32(header, kTraceMagic);
  app_u32(header, kTraceVersion2);
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  check("header");

  // Each chunk is framed in place in one reused buffer.
  std::string chunk;
  const auto write_section = [&](const auto& recs, std::uint8_t type,
                                 auto encode) {
    for (std::size_t at = 0; at < recs.size(); at += records_per_chunk) {
      const std::size_t n = std::min(records_per_chunk, recs.size() - at);
      chunk.clear();
      const std::size_t hdr = open_chunk(chunk);
      for (std::size_t i = 0; i < n; ++i) encode(chunk, recs[at + i]);
      seal_chunk(chunk, hdr, type, static_cast<std::uint32_t>(n));
      os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    }
  };
  write_section(data.markers, kChunkMarkers, encode_marker);
  check("marker chunks");
  write_section(data.samples, kChunkSamples, encode_sample);
  check("sample chunks");
  write_section(data.wait_edges, kChunkWaitEdges, encode_wait_edge);
  check("wait-edge chunks");
  // Torn-write detector: a crash cutting the file at an exact chunk
  // boundary would otherwise look like a complete shorter file.
  const std::string eof = encode_eof_chunk();
  os.write(eof.data(), static_cast<std::streamsize>(eof.size()));
  os.flush();
  check("eof chunk");
}

SalvageReport salvage_trace(std::string_view buf) {
  SalvageReport rep;

  // File header: 8 bytes of magic + version. Versions 2 and 3 are one
  // chunk family (v3.hpp), so salvage accepts either. A damaged header
  // does not stop salvage — chunks are self-delimiting — but it is
  // reported.
  std::size_t pos = 0;
  if (buf.size() >= 8 && peek_u32(buf, 0) == kTraceMagic &&
      (peek_u32(buf, 4) == kTraceVersion2 ||
       peek_u32(buf, 4) == kTraceVersion3)) {
    rep.header_ok = true;
    pos = 8;
  }

  while (pos < buf.size()) {
    const std::size_t remaining = buf.size() - pos;
    if (remaining < kChunkHeaderBytes) {
      rep.bytes_truncated += remaining; // torn mid-header
      break;
    }
    const bool magic_ok = peek_u32(buf, pos) == kChunkMagic;
    const std::uint32_t header_crc = peek_u32(buf, pos + 13);
    const bool header_ok =
        magic_ok && header_crc == crc32(buf.data() + pos, 13);
    if (!header_ok) {
      // Damaged header: resynchronize at the next chunk magic. A false
      // positive inside payload bytes fails its own header CRC and the
      // scan simply continues.
      const char magic_bytes[4] = {'C', 'H', 'N', 'K'};
      const std::size_t next = buf.find(magic_bytes, pos + 1, 4);
      ++rep.chunks_resynced;
      if (next == std::string_view::npos) {
        rep.bytes_truncated += remaining;
        break;
      }
      rep.bytes_skipped += next - pos;
      pos = next;
      continue;
    }

    const std::uint8_t type = peek_u8(buf, pos + 4);
    const std::uint32_t n_records = peek_u32(buf, pos + 5);
    const std::uint32_t payload_bytes = peek_u32(buf, pos + 9);
    const std::uint32_t payload_crc = peek_u32(buf, pos + 17);
    if (remaining - kChunkHeaderBytes < payload_bytes) {
      rep.bytes_truncated += remaining; // torn mid-payload
      break;
    }
    const std::string_view payload =
        buf.substr(pos + kChunkHeaderBytes, payload_bytes);
    const std::size_t chunk_total = kChunkHeaderBytes + payload_bytes;
    bool ok = payload_crc == crc32(payload.data(), payload.size());
    if (ok && type == kChunkEof && n_records == 0 && payload_bytes == 0) {
      rep.eof_ok = true;
      pos += chunk_total;
      continue;
    }
    if (ok) {
      if (type == kChunkMarkers) {
        ok = decode_markers(payload, n_records, rep.data.markers);
      } else if (type == kChunkSamples) {
        ok = decode_samples(payload, n_records, rep.data.samples);
      } else if (type == kChunkWaitEdges) {
        ok = decode_wait_edges(payload, n_records, rep.data.wait_edges);
      } else if (is_compressed_chunk_type(type)) {
        ok = decode_compressed_chunk(type, payload, n_records, rep.data);
      } else {
        ok = false; // unknown chunk type from a future writer: skip
      }
    }
    if (ok) {
      ++rep.chunks_ok;
    } else {
      ++rep.chunks_corrupt;
      rep.bytes_skipped += chunk_total;
    }
    pos += chunk_total;
  }
  return rep;
}

TraceData read_trace_v2_body(std::string_view body) {
  SalvageReport rep = salvage_trace(body);
  rep.header_ok = true; // TraceReader already checked the file header
  if (!rep.clean()) {
    std::string why = std::to_string(rep.chunks_corrupt) +
                      " corrupt chunks, " +
                      std::to_string(rep.bytes_truncated) + " truncated bytes";
    if (!rep.eof_ok) why += ", missing end-of-file sentinel (torn write)";
    throw TraceIoError(
        "damaged v2 trace (" + why +
        "); use salvage_trace()/flxt_recover to recover " +
        std::to_string(rep.chunks_ok) + " intact chunks");
  }
  return std::move(rep.data);
}

std::vector<V2ChunkRef> index_trace_v2(std::string_view file) {
  if (file.size() < 8 || peek_u32(file, 0) != kTraceMagic ||
      (peek_u32(file, 4) != kTraceVersion2 &&
       peek_u32(file, 4) != kTraceVersion3)) {
    throw TraceIoError("not a chunked trace (bad file header)");
  }
  std::vector<V2ChunkRef> out;
  std::size_t pos = 8;
  bool saw_eof = false;
  while (pos < file.size()) {
    if (saw_eof) throw TraceIoError("data past the v2 eof sentinel");
    if (file.size() - pos < kChunkHeaderBytes) {
      throw TraceIoError("truncated v2 chunk header");
    }
    if (peek_u32(file, pos) != kChunkMagic ||
        peek_u32(file, pos + 13) != crc32(file.data() + pos, 13)) {
      throw TraceIoError("damaged v2 chunk header");
    }
    const std::uint8_t type = peek_u8(file, pos + 4);
    const std::uint32_t n_records = peek_u32(file, pos + 5);
    const std::uint32_t payload_bytes = peek_u32(file, pos + 9);
    if (file.size() - pos - kChunkHeaderBytes < payload_bytes) {
      throw TraceIoError("truncated v2 chunk payload");
    }
    if (type == kChunkEof) {
      // The empty payload's CRC is 0; salvage refuses any other sentinel.
      if (n_records != 0 || payload_bytes != 0 ||
          peek_u32(file, pos + 17) != 0) {
        throw TraceIoError("malformed v2 eof sentinel");
      }
      saw_eof = true;
    } else if (type == kChunkMarkers || type == kChunkSamples ||
               type == kChunkWaitEdges || is_compressed_chunk_type(type)) {
      out.push_back(V2ChunkRef{pos, type, n_records, payload_bytes});
    } else {
      throw TraceIoError("unknown v2 chunk type");
    }
    pos += kChunkHeaderBytes + payload_bytes;
  }
  if (!saw_eof) {
    throw TraceIoError("missing v2 end-of-file sentinel (torn write)");
  }
  return out;
}

std::uint32_t image_crc(std::string_view file,
                        std::span<const V2ChunkRef> chunks) {
  const auto untiled = [] {
    return TraceIoError("chunks do not tile the image");
  };
  // The CRC of the frame header at `at`, which must lie inside the file.
  const auto frame_crc = [&](std::uint64_t at) {
    if (at + kChunkHeaderBytes > file.size()) throw untiled();
    return crc32(file.data() + at, kChunkHeaderBytes);
  };
  if (file.size() < 8) throw untiled();
  std::uint32_t crc = crc32(file.data(), 8);
  std::uint64_t at = 8;
  for (const V2ChunkRef& r : chunks) {
    if (r.offset != at) throw untiled();
    crc = crc32_combine(crc, frame_crc(at), kChunkHeaderBytes);
    crc = crc32_combine(crc, peek_u32(file, at + 17), r.payload_bytes);
    at += kChunkHeaderBytes + r.payload_bytes;
  }
  if (at + kChunkHeaderBytes != file.size()) throw untiled();
  return crc32_combine(crc, frame_crc(at), kChunkHeaderBytes); // eof frame
}

ImageWalk walk_image(std::string_view file) {
  ImageWalk w;
  w.chunks = index_trace_v2(file);
  w.size = file.size();
  w.crc = image_crc(file, w.chunks);
  return w;
}

std::string_view detail::chunk_payload(std::string_view file,
                                       const V2ChunkRef& ref) {
  if (ref.offset > file.size() ||
      file.size() - ref.offset <
          kChunkHeaderBytes + static_cast<std::size_t>(ref.payload_bytes)) {
    throw TraceIoError("chunk ref outside file at offset " +
                       std::to_string(ref.offset));
  }
  const std::string_view payload =
      file.substr(ref.offset + kChunkHeaderBytes, ref.payload_bytes);
  if (crc32(payload.data(), payload.size()) !=
      peek_u32(file, ref.offset + 17)) {
    throw TraceIoError("payload CRC mismatch at offset " +
                       std::to_string(ref.offset));
  }
  return payload;
}

void decode_trace_v2_chunk(std::string_view file, const V2ChunkRef& ref,
                           TraceData& out) {
  const std::string_view payload = detail::chunk_payload(file, ref);
  bool ok = false;
  if (ref.type == kChunkMarkers) {
    ok = decode_markers(payload, ref.n_records, out.markers);
  } else if (ref.type == kChunkSamples) {
    ok = decode_samples(payload, ref.n_records, out.samples);
  } else if (ref.type == kChunkWaitEdges) {
    ok = decode_wait_edges(payload, ref.n_records, out.wait_edges);
  } else if (is_compressed_chunk_type(ref.type)) {
    ok = decode_compressed_chunk(ref.type, payload, ref.n_records, out);
  }
  if (!ok) throw TraceIoError("malformed v2 chunk records");
}

void decode_trace_v2_samples_slice(std::string_view file,
                                   const V2ChunkRef& ref,
                                   const SampleColumnSlice& out) {
  if (ref.type != kChunkSamples) {
    throw TraceIoError("columnar decode on a non-sample chunk");
  }
  const std::string_view payload = detail::chunk_payload(file, ref);
  const std::uint32_t n = ref.n_records;
  if (payload.size() != static_cast<std::size_t>(n) * kSampleBytes ||
      out.reg_index >= kNumRegs) {
    throw TraceIoError("malformed v2 chunk records");
  }
  const std::size_t reg_off = 20 + std::size_t{out.reg_index} * 8;
  std::size_t at = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.tsc[i] = static_cast<std::int64_t>(peek_u64(payload, at));
    out.ip[i] = static_cast<std::int64_t>(peek_u64(payload, at + 8));
    out.core[i] = static_cast<std::int64_t>(peek_u32(payload, at + 16));
    if (out.reg != nullptr) {
      out.reg[i] = static_cast<std::int64_t>(peek_u64(payload, at + reg_off));
    }
    at += kSampleBytes;
  }
}

void save_trace_v2(const std::string& path, const TraceData& data,
                   std::size_t records_per_chunk) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw TraceIoError("cannot open for writing: " + path + ": " +
                       std::strerror(errno));
  }
  try {
    write_trace_v2(os, data, records_per_chunk);
  } catch (const TraceIoError& e) {
    throw TraceIoError(std::string(e.what()) + ": " + path);
  }
  os.close();
  if (!os) {
    throw TraceIoError("write failed (close): " + path + ": " +
                       std::strerror(errno));
  }
}

} // namespace fluxtrace::io
