#include "fluxtrace/query/columnar.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

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
  OBS_SPAN("query.columnar_build");
  ColumnarTrace t;
  t.zone_rows_ = opts.zone_rows != 0 ? opts.zone_rows : 65536;
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
  t.attribute(data.markers, symtab, opts);
  t.build_zones();
  return t;
}

ColumnarTrace ColumnarTrace::from_reader(const io::TraceReader& reader,
                                         const SymbolTable& symtab,
                                         const BuildOptions& opts,
                                         unsigned n_threads) {
  if (io::is_chunked_format(reader.format())) {
    // Column-direct decode for the common case: a clean chunked image
    // (raw v2 or compressed v3 sample chunks — one chunk family). Any
    // structural or payload damage drops to the generic read-or-salvage
    // path below, which reproduces the old behaviour (and diagnostics)
    // exactly.
    try {
      OBS_SPAN("query.columnar_build");
      const std::string_view bytes = reader.bytes();
      const std::vector<io::V2ChunkRef> refs = io::index_trace_v2(bytes);
      ColumnarTrace t;
      t.zone_rows_ = opts.zone_rows != 0 ? opts.zone_rows : 65536;
      // Split the walk: markers decode inline (they feed attribution),
      // sample chunks get a prefix-summed row offset each so their
      // decodes can run concurrently into disjoint column slices.
      // Wait-edge chunks are skipped outright — attribution never reads
      // them, and inflating them here was pure waste.
      struct SampleChunk {
        const io::V2ChunkRef* ref;
        std::size_t row0;
      };
      std::vector<SampleChunk> schunks;
      std::size_t total_rows = 0;
      io::TraceData marker_data;
      for (const io::V2ChunkRef& ref : refs) {
        if (io::is_sample_chunk_type(ref.type)) {
          schunks.push_back({&ref, total_rows});
          total_rows += ref.n_records;
        } else if (io::is_marker_chunk_type(ref.type)) {
          io::decode_trace_v2_chunk(bytes, ref, marker_data);
        }
      }
      t.n_rows_ = total_rows;
      for (auto& c : t.cols_) c.resize(total_rows);
      const bool want_reg = opts.use_register_ids;
      const auto slice_for = [&](const SampleChunk& sc) {
        io::SampleColumnSlice s;
        s.tsc = t.cols_[idx(Field::Ts)].data() + sc.row0;
        s.ip = t.cols_[idx(Field::Ip)].data() + sc.row0;
        s.core = t.cols_[idx(Field::Core)].data() + sc.row0;
        if (want_reg) {
          s.reg = t.cols_[idx(Field::Item)].data() + sc.row0;
          s.reg_index = static_cast<unsigned>(kItemIdReg);
        }
        return s;
      };
      const auto decode_one = [&](const SampleChunk& sc) {
        const io::SampleColumnSlice s = slice_for(sc);
        if (sc.ref->type == io::kChunkTypeSamples) {
          io::decode_trace_v2_samples_slice(bytes, *sc.ref, s);
        } else {
          io::decode_v3_samples_into(bytes, *sc.ref, s);
        }
      };
      const unsigned n =
          n_threads != 0 ? n_threads
                         : std::max(1u, std::thread::hardware_concurrency());
      if (n <= 1 || schunks.size() <= 1) {
        for (const SampleChunk& sc : schunks) decode_one(sc);
      } else {
        // Damage inside a worker may not throw across the pool: flag it
        // and let the strict fallback reproduce the exact diagnostics.
        std::atomic<bool> any_bad{false};
        rt::ThreadPool pool(std::min<std::size_t>(n, schunks.size()));
        pool.parallel_for(schunks.size(), [&](std::size_t k) {
          try {
            decode_one(schunks[k]);
          } catch (const io::TraceIoError&) {
            any_bad.store(true, std::memory_order_relaxed);
          }
        });
        if (any_bad.load()) {
          throw io::TraceIoError("damaged sample chunk in parallel decode");
        }
      }
      t.attribute(marker_data.markers, symtab, opts);
      t.build_zones();
      return t;
    } catch (const io::TraceIoError&) {
      // fall through
    }
  }
  const io::TraceReader::ReadResult rr = reader.read_or_salvage();
  ColumnarTrace t = build(rr.data, symtab, opts);
  t.salvaged_ = rr.salvaged;
  return t;
}

ColumnarTrace ColumnarTrace::open(const std::string& path,
                                  const SymbolTable& symtab,
                                  const BuildOptions& opts,
                                  unsigned n_threads) {
  return from_reader(io::open_trace(path), symtab, opts, n_threads);
}

} // namespace fluxtrace::query
