#include "fluxtrace/query/flxi.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "fluxtrace/io/chunked.hpp" // io::crc32 + io::ImageWalk
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp" // is_sample_chunk_type
#include "fluxtrace/query/columnar.hpp"

namespace fluxtrace::query {

namespace {

void app_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b.push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
  }
}

void app_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b.push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
  }
}

void app_i64(std::string& b, std::int64_t v) {
  app_u64(b, static_cast<std::uint64_t>(v));
}

// Cursor-based reads that fail closed: any read past the end flips
// `ok` and returns 0, and the caller bails once at the end.
struct Reader {
  std::string_view b;
  std::size_t at = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (at + 4 > b.size()) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(b[at + i]))
           << (8 * i);
    }
    at += 4;
    return v;
  }

  std::uint64_t u64() {
    if (at + 8 > b.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b[at + i]))
           << (8 * i);
    }
    at += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
};

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4 + 4 + 4 + 4;
// Hostile counts are rejected against the bytes actually present before
// anything is reserved: a chunk encodes to at least 48 bytes
// (8+4+4*8+4) and a func entry to exactly 8, so a claimed count larger
// than the remaining body / that floor cannot be real.
constexpr std::size_t kMinChunkBytes = 8 + 4 + 4 * 8 + 4;
constexpr std::size_t kFuncEntryBytes = 4 + 4;

} // namespace

std::uint32_t symtab_crc(const SymbolTable& symtab) {
  std::string buf;
  for (SymbolId id = 0; id < symtab.size(); ++id) {
    const Symbol& s = symtab[id];
    buf += s.name;
    buf.push_back('\0');
    app_u64(buf, s.lo);
    app_u64(buf, s.hi);
  }
  return io::crc32(buf.data(), buf.size());
}

std::string encode_flxi(const FlxiIndex& index) {
  std::string body;
  for (const FlxiChunk& c : index.chunks) {
    app_u64(body, c.offset);
    app_u32(body, c.n_records);
    app_i64(body, c.min_ts);
    app_i64(body, c.max_ts);
    app_i64(body, c.min_item);
    app_i64(body, c.max_item);
    app_u32(body, static_cast<std::uint32_t>(c.func_counts.size()));
    for (const auto& [fn, count] : c.func_counts) {
      app_u32(body, fn);
      app_u32(body, count);
    }
  }
  std::string out;
  out.reserve(kHeaderBytes + body.size());
  app_u32(out, kFlxiMagic);
  app_u32(out, kFlxiVersion);
  app_u64(out, index.trace_size);
  app_u32(out, index.trace_crc);
  app_u32(out, index.symtab_crc);
  app_u32(out, index.flags);
  app_u32(out, static_cast<std::uint32_t>(index.chunks.size()));
  app_u32(out, io::crc32(body.data(), body.size()));
  out += body;
  return out;
}

std::optional<FlxiIndex> decode_flxi(std::string_view bytes) {
  Reader r{bytes};
  if (r.u32() != kFlxiMagic || r.u32() != kFlxiVersion) return std::nullopt;
  FlxiIndex index;
  index.trace_size = r.u64();
  index.trace_crc = r.u32();
  index.symtab_crc = r.u32();
  index.flags = r.u32();
  const std::uint32_t n_chunks = r.u32();
  const std::uint32_t body_crc = r.u32();
  if (!r.ok || (index.flags & ~kFlxiKnownFlags) != 0) return std::nullopt;

  const std::string_view body = bytes.substr(std::min(r.at, bytes.size()));
  if (body_crc != io::crc32(body.data(), body.size())) return std::nullopt;
  if (n_chunks > body.size() / kMinChunkBytes) return std::nullopt;

  index.chunks.reserve(n_chunks);
  for (std::uint32_t i = 0; i < n_chunks; ++i) {
    FlxiChunk c;
    c.offset = r.u64();
    c.n_records = r.u32();
    c.min_ts = r.i64();
    c.max_ts = r.i64();
    c.min_item = r.i64();
    c.max_item = r.i64();
    const std::uint32_t n_funcs = r.u32();
    if (!r.ok || n_funcs > (bytes.size() - r.at) / kFuncEntryBytes) {
      return std::nullopt;
    }
    c.func_counts.reserve(n_funcs);
    for (std::uint32_t j = 0; j < n_funcs; ++j) {
      const std::uint32_t fn = r.u32();
      const std::uint32_t count = r.u32();
      if (!r.ok) return std::nullopt;
      c.func_counts.emplace_back(fn, count);
    }
    index.chunks.push_back(std::move(c));
  }
  if (!r.ok || r.at != bytes.size()) return std::nullopt; // trailing garbage
  return index;
}

bool save_flxi(const std::string& path, const FlxiIndex& index) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  const std::string bytes = encode_flxi(index);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();
  return static_cast<bool>(os);
}

std::optional<FlxiIndex> load_flxi(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is) return std::nullopt;
  const std::string bytes = std::move(buf).str();
  return decode_flxi(bytes);
}

std::optional<FlxiIndex> build_flxi(const io::ImageWalk& walk,
                                    const ColumnarTrace& table,
                                    const SymbolTable& symtab,
                                    bool use_register_ids) {
  // Salvaged rows do not line up with the chunk layout.
  if (table.salvaged()) return std::nullopt;

  FlxiIndex idx;
  idx.trace_size = walk.size;
  idx.trace_crc = walk.crc;
  idx.symtab_crc = symtab_crc(symtab);
  idx.flags = use_register_ids ? kFlxiFlagRegisterIds : 0u;

  const std::span<const std::int64_t> tss = table.col(Field::Ts);
  const std::span<const std::int64_t> items = table.col(Field::Item);
  const std::span<const std::int64_t> fns = table.col(Field::Func);
  // Per-chunk func histogram as a flat array indexed by id plus a
  // touched-id list, reused across chunks — the old map<u32,u32> paid a
  // node allocation and a tree walk per distinct func per chunk.
  std::vector<std::uint32_t> counts(symtab.size(), 0);
  std::vector<std::uint32_t> touched;
  std::size_t row = 0;
  for (const io::V2ChunkRef& ref : walk.chunks) {
    if (!io::is_sample_chunk_type(ref.type)) continue;
    FlxiChunk c;
    c.offset = ref.offset;
    c.n_records = ref.n_records;
    c.min_ts = std::numeric_limits<std::int64_t>::max();
    c.max_ts = std::numeric_limits<std::int64_t>::min();
    c.min_item = std::numeric_limits<std::int64_t>::max();
    c.max_item = std::numeric_limits<std::int64_t>::min();
    touched.clear();
    for (std::uint32_t k = 0; k < ref.n_records; ++k, ++row) {
      if (row >= table.rows()) return std::nullopt; // layout/row mismatch
      c.min_ts = std::min(c.min_ts, tss[row]);
      c.max_ts = std::max(c.max_ts, tss[row]);
      c.min_item = std::min(c.min_item, items[row]);
      c.max_item = std::max(c.max_item, items[row]);
      const std::int64_t fn = fns[row];
      if (fn >= 0 && static_cast<std::size_t>(fn) < counts.size()) {
        const auto f = static_cast<std::uint32_t>(fn);
        if (counts[f]++ == 0) touched.push_back(f);
      }
    }
    if (c.n_records == 0) {
      c.min_ts = c.min_item = 0;
      c.max_ts = c.max_item = -1;
    }
    std::sort(touched.begin(), touched.end());
    c.func_counts.reserve(touched.size());
    for (const std::uint32_t f : touched) {
      c.func_counts.emplace_back(f, counts[f]);
      counts[f] = 0;
    }
    idx.chunks.push_back(std::move(c));
  }
  if (row != table.rows()) return std::nullopt; // samples outside the chunks
  return idx;
}

const char* to_string(SidecarStatus s) {
  switch (s) {
    case SidecarStatus::Fresh: return "fresh";
    case SidecarStatus::Rebuilt: return "rebuilt";
    case SidecarStatus::Unindexable: return "unindexable";
    case SidecarStatus::WriteFailed: return "write-failed";
  }
  return "?";
}

bool flxi_fresh(const FlxiIndex& index, const io::ImageWalk& walk,
                const SymbolTable& symtab, bool use_register_ids) {
  // min/max item are *attributed* ids, which differ entirely between
  // marker-window and register-id attribution, so a mode mismatch is as
  // stale as a CRC mismatch.
  return index.trace_size == walk.size && index.trace_crc == walk.crc &&
         index.symtab_crc == symtab_crc(symtab) &&
         (index.flags & kFlxiFlagRegisterIds) ==
             (use_register_ids ? kFlxiFlagRegisterIds : 0u);
}

SidecarStatus refresh_sidecar(const io::TraceReader& reader,
                              const SymbolTable& symtab,
                              bool use_register_ids, unsigned n_threads) {
  if (reader.path().empty()) return SidecarStatus::WriteFailed;
  const std::string sidecar = flxi_path(reader.path());
  const std::string_view image = reader.bytes();
  std::optional<io::ImageWalk> walk;
  try {
    walk = io::walk_image(image);
  } catch (const io::TraceIoError&) {
    return SidecarStatus::Unindexable; // not a clean chunked image
  }
  if (const auto existing = load_flxi(sidecar);
      existing.has_value() &&
      flxi_fresh(*existing, *walk, symtab, use_register_ids)) {
    return SidecarStatus::Fresh;
  }
  std::optional<FlxiIndex> idx;
  try {
    idx = build_flxi(*walk,
                     ColumnarTrace::load_all(
                         image, walk->chunks, symtab,
                         BuildOptions{use_register_ids, 65536}, n_threads),
                     symtab, use_register_ids);
  } catch (const io::TraceIoError&) {
    // a damaged payload: no index over a partial decode
  }
  if (!idx.has_value()) return SidecarStatus::Unindexable;
  return save_flxi(sidecar, *idx) ? SidecarStatus::Rebuilt
                                  : SidecarStatus::WriteFailed;
}

} // namespace fluxtrace::query
