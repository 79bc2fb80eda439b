#include "fluxtrace/query/columnar.hpp"

#include <algorithm>
#include <optional>

#include "fluxtrace/base/regs.hpp"
#include "fluxtrace/core/attribution.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/span.hpp"
#include "fluxtrace/rt/thread_pool.hpp"

namespace fluxtrace::query {

namespace {

constexpr std::size_t idx(Field f) { return static_cast<std::size_t>(f); }

} // namespace

void ColumnarTrace::attribute(const std::vector<Marker>& markers,
                              const SymbolTable& symtab,
                              const BuildOptions& opts) {
  OBS_SPAN("query.attribute");
  // The attribution kernel, one pass over the rows: the same procedure
  // TraceIntegrator runs, so `item` and `dur` here always agree with what
  // flxt_report prints for the same trace.
  const std::size_t n = n_rows_;
  const std::int64_t* ts = cols_[idx(Field::Ts)].data();
  const std::int64_t* ip = cols_[idx(Field::Ip)].data();
  const std::int64_t* core_c = cols_[idx(Field::Core)].data();
  std::int64_t* item_c = cols_[idx(Field::Item)].data();
  std::int64_t* func_c = cols_[idx(Field::Func)].data();
  std::int64_t* dur_c = cols_[idx(Field::Dur)].data();

  core::Attributor a(markers, symtab,
                     {.use_register_ids = opts.use_register_ids});
  std::vector<std::int32_t> row_bucket(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    // In register-id mode the item column holds the sampled register.
    const core::Attributor::Row r =
        a.add(static_cast<std::uint32_t>(core_c[i]), static_cast<Tsc>(ts[i]),
              static_cast<std::uint64_t>(ip[i]),
              opts.use_register_ids ? static_cast<ItemId>(item_c[i]) : kNoItem);
    item_c[i] = static_cast<std::int64_t>(r.item);
    func_c[i] = r.func;
    row_bucket[i] = r.bucket;
  }

  // Per-bucket elapsed, then one gather broadcasts it onto the rows.
  const core::SpanStore& spans = a.spans();
  std::vector<std::int64_t> elapsed(spans.size());
  for (std::size_t b = 0; b < elapsed.size(); ++b) {
    elapsed[b] =
        static_cast<std::int64_t>(spans.elapsed(static_cast<std::int32_t>(b)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (row_bucket[i] >= 0) {
      dur_c[i] = elapsed[static_cast<std::size_t>(row_bucket[i])];
    }
  }
}

void ColumnarTrace::build_zones() {
  OBS_SPAN("query.zones");
  zones_.clear();
  if (n_rows_ == 0 || zone_rows_ == 0) return;
  const std::size_t nz = (n_rows_ + zone_rows_ - 1) / zone_rows_;
  zones_.resize(nz);
  for (std::size_t z = 0; z < nz; ++z) {
    const std::size_t b = z * zone_rows_;
    const std::size_t e = std::min(b + zone_rows_, n_rows_);
    ZoneMap& zm = zones_[z];
    for (std::size_t f = 0; f < kNumFields; ++f) {
      const std::int64_t* c = cols_[f].data();
      std::int64_t mn = c[b];
      std::int64_t mx = c[b];
      for (std::size_t i = b + 1; i < e; ++i) {
        mn = std::min(mn, c[i]);
        mx = std::max(mx, c[i]);
      }
      zm.min[f] = mn;
      zm.max[f] = mx;
    }
  }
}

ColumnarTrace ColumnarTrace::build(const io::TraceData& data,
                                   const SymbolTable& symtab,
                                   const BuildOptions& opts) {
  ColumnarTrace t;
  t.zone_rows_ = opts.zone_rows != 0 ? opts.zone_rows : 65536;
  {
    OBS_SPAN("query.decode");
    const std::size_t n = data.samples.size();
    t.n_rows_ = n;
    for (auto& c : t.cols_) c.resize(n);

    std::int64_t* ts = t.cols_[idx(Field::Ts)].data();
    std::int64_t* ip = t.cols_[idx(Field::Ip)].data();
    std::int64_t* core_c = t.cols_[idx(Field::Core)].data();
    std::int64_t* item_c = t.cols_[idx(Field::Item)].data();
    for (std::size_t i = 0; i < n; ++i) {
      const PebsSample& s = data.samples[i];
      ts[i] = static_cast<std::int64_t>(s.tsc);
      ip[i] = static_cast<std::int64_t>(s.ip);
      core_c[i] = static_cast<std::int64_t>(s.core);
      if (opts.use_register_ids) {
        item_c[i] = static_cast<std::int64_t>(s.regs.get(kItemIdReg));
      }
    }
  }
  t.attribute(data.markers, symtab, opts);
  t.build_zones();
  return t;
}

ColumnarTrace ColumnarTrace::load(std::string_view image,
                                  std::span<const io::V2ChunkRef> chunks,
                                  const std::vector<bool>& keep,
                                  const SymbolTable& symtab,
                                  const BuildOptions& opts,
                                  rt::ThreadPool* pool) {
  ColumnarTrace t;
  t.zone_rows_ = opts.zone_rows != 0 ? opts.zone_rows : 65536;
  io::TraceData marker_data;
  {
    OBS_SPAN("query.decode");
    // Markers decode inline (they feed attribution); each kept sample
    // chunk gets a prefix-summed row offset so the decodes can run
    // concurrently into disjoint column slices, skipping the 148-byte
    // PebsSample materialization (the store never reads 15 of the 16
    // GPRs).
    struct SampleChunk {
      const io::V2ChunkRef* ref;
      std::size_t row0;
    };
    std::vector<SampleChunk> kept;
    std::size_t sample_i = 0;
    for (const io::V2ChunkRef& ref : chunks) {
      if (io::is_sample_chunk_type(ref.type)) {
        if (keep.empty() || (sample_i < keep.size() && keep[sample_i])) {
          kept.push_back({&ref, t.n_rows_});
          t.n_rows_ += ref.n_records;
        }
        ++sample_i;
      } else if (io::is_marker_chunk_type(ref.type)) {
        io::decode_trace_v2_chunk(image, ref, marker_data);
      }
    }
    for (auto& c : t.cols_) c.resize(t.n_rows_);
    const auto decode_one = [&](std::size_t k) {
      const SampleChunk& sc = kept[k];
      io::SampleColumnSlice s;
      s.tsc = t.cols_[idx(Field::Ts)].data() + sc.row0;
      s.ip = t.cols_[idx(Field::Ip)].data() + sc.row0;
      s.core = t.cols_[idx(Field::Core)].data() + sc.row0;
      if (opts.use_register_ids) {
        s.reg = t.cols_[idx(Field::Item)].data() + sc.row0;
        s.reg_index = static_cast<unsigned>(kItemIdReg);
      }
      if (sc.ref->type == io::kChunkTypeSamples) {
        io::decode_trace_v2_samples_slice(image, *sc.ref, s);
      } else {
        io::decode_v3_samples_into(image, *sc.ref, s);
      }
    };
    if (pool != nullptr && kept.size() > 1) {
      pool->parallel_for(kept.size(), decode_one); // rethrows the damage
    } else {
      for (std::size_t k = 0; k < kept.size(); ++k) decode_one(k);
    }
  }
  t.attribute(marker_data.markers, symtab, opts);
  t.build_zones();
  return t;
}

ColumnarTrace ColumnarTrace::load_all(std::string_view image,
                                      std::span<const io::V2ChunkRef> chunks,
                                      const SymbolTable& symtab,
                                      const BuildOptions& opts,
                                      unsigned n_threads) {
  const auto n_samples = static_cast<std::size_t>(
      std::ranges::count_if(chunks, [](const io::V2ChunkRef& r) {
        return io::is_sample_chunk_type(r.type);
      }));
  const unsigned n = rt::resolve_threads(n_threads);
  std::optional<rt::ThreadPool> pool;
  if (n > 1 && n_samples > 1) {
    pool.emplace(static_cast<unsigned>(std::min<std::size_t>(n, n_samples)));
  }
  return load(image, chunks, {}, symtab, opts, pool ? &*pool : nullptr);
}

ColumnarTrace ColumnarTrace::from_reader(const io::TraceReader& reader,
                                         const SymbolTable& symtab,
                                         const BuildOptions& opts,
                                         unsigned n_threads) {
  try {
    const std::string_view image = reader.bytes();
    return load_all(image, io::index_trace_v2(image), symtab, opts, n_threads);
  } catch (const io::TraceIoError&) {
    // Damage (or not a chunked image): salvage reproduces the strict
    // reader's diagnostics and recovers what it can.
  }
  return read_or_salvage(reader, symtab, opts);
}

ColumnarTrace ColumnarTrace::read_or_salvage(const io::TraceReader& reader,
                                             const SymbolTable& symtab,
                                             const BuildOptions& opts) {
  const io::TraceReader::ReadResult rr = reader.read_or_salvage();
  ColumnarTrace t = build(rr.data, symtab, opts);
  t.salvaged_ = rr.salvaged;
  return t;
}

} // namespace fluxtrace::query
