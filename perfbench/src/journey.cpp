// The user journey, one operation per step a user waits for:
//
//   spool_follow  live capture: ResilientWriter spools, TraceFollower +
//                 StreamingQuery follow the spool to a clean EOF
//   ingest        hub::Catalog::open + ingest of the at-rest traces
//   cold_query    the first query on data no engine has loaded
//   warm_query    a fixed REPL drill-down on the loaded engine
//   item_query    one-shot drill-downs into single items
//   report        the flxt_report --diagnose path
//
// Both runs make the same public calls: each query is spelled out as
// the calls QueryEngine::run makes (parse_query, run_partial,
// finish_partials), and an off tracer records nothing. The one
// exception is `fleet`, whose untraced run calls query::run_federated
// as a user does; its traced run spells that out member by member. The
// traced run adds `cold_layers`, which times the decode, attribution and
// triage calls a cold open performs inside.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "fluxtrace/core/diagnosis.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/hub/catalog.hpp"
#include "fluxtrace/io/follower.hpp"
#include "fluxtrace/io/resilient.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "fluxtrace/query/federated.hpp"
#include "fluxtrace/query/render.hpp"
#include "fluxtrace/query/stream.hpp"

namespace perfbench {

void Ledger::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
}

namespace {

namespace fs = std::filesystem;

/// Samples per capture batch: one PEBS buffer drain.
constexpr std::size_t kBatchSamples = 512;

/// The spool writes a marker chunk only every 1,024 markers, so a
/// sample can reach the follower long before its window's markers; the
/// stream holds every sample until its window is known.
constexpr Tsc kAttributionSlack = Tsc{1} << 40;

struct Pipeline {
  const char* name;
  std::string text;
};

std::vector<Pipeline> warm_pipelines(const Workload& w) {
  return {{"top_items", kTopItemsQuery},
          {"outliers", kOutliersQuery},
          {"core_filter", core_filter_query(w)}};
}

/// Counts of the work each traced repetition did, by name; the per-layer
/// metrics divide span time by them.
using Counters = std::map<std::string, double>;

struct RepState {
  std::string dir;
  std::optional<hub::Catalog> catalog;
  std::vector<query::FederatedTrace> members;
  std::string cold_path;
  std::optional<query::QueryEngine> engine;
};

bool single(const Workload& w) { return w.members.size() == 1; }

std::string at_rest(const Journey& j, const Member& m) {
  return j.atrest + "/" + m.file;
}

query::EngineOptions engine_options() {
  query::EngineOptions eo;
  eo.threads = 1;
  return eo;
}

query::FederatedOptions federated_options() {
  query::FederatedOptions fo;
  fo.engine = engine_options();
  fo.fanout_threads = 1;
  return fo;
}

/// Items of an outliers result, largest flagged elapsed time first. The
/// sigmas column is not used: the detector's running statistics make
/// early rows read many sigmas on small deviations.
std::vector<ItemId> outlier_items(const query::QueryResult& res) {
  std::vector<const std::vector<query::Cell>*> rows;
  for (const auto& r : res.rows) rows.push_back(&r);
  std::stable_sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return (*b)[2].i < (*a)[2].i;
  });
  std::vector<ItemId> out;
  for (const auto* r : rows) {
    const auto item = static_cast<ItemId>((*r)[0].i);
    if (std::find(out.begin(), out.end(), item) == out.end()) out.push_back(item);
  }
  return out;
}

/// Runs one operation under a root span. A throw from the program is a
/// failed operation, not a crash. With `memory`, returns the resident
/// memory, in MiB, that the operation added at its peak above the live
/// memory the process held when it started: free heap pages are handed
/// back and VmHWM is reset first. Handing pages back makes the next
/// allocations fault them in again, so timed repetitions skip it.
template <class F>
double operation(const Journey& j, Tracer& t, Samples& op_ns,
                 const std::string& name, bool memory, F&& body) {
  double base = 0;
  if (memory) {
    release_free_memory();
    (void)reset_peak_rss();
    base = rss_mib();
  }
  const std::int64_t t0 = now_ns();
  const int id = t.open_op(name);
  try {
    body();
  } catch (const std::exception& e) {
    j.ledger.check(false, name + ": " + e.what());
  }
  op_ns[name].push_back(static_cast<double>(t.close_op(id, t0)));
  return memory ? peak_rss_mib() - base : 0.0;
}

// -------------------------------------------------------- spool + follow

/// A SpoolSink decorator: a span around each write and sync of the
/// FileSpoolSink it wraps, and the counts the spool layer metrics need.
struct SinkCounts {
  std::uint64_t bytes = 0;
  std::uint64_t syncs = 0;
};

class CountingSink final : public io::SpoolSink {
 public:
  CountingSink(std::unique_ptr<io::SpoolSink> inner, Tracer& t, SinkCounts& c)
      : inner_(std::move(inner)), t_(t), c_(c) {}
  io::SinkResult write(const char* data, std::size_t len) override {
    const io::SinkResult r = call(t_, "io.FileSpoolSink::write", nullptr,
                                  [&] { return inner_->write(data, len); });
    c_.bytes += r.written;
    return r;
  }
  bool sync() override {
    ++c_.syncs;
    return call(t_, "io.FileSpoolSink::sync", nullptr,
                [&] { return inner_->sync(); });
  }
  std::string describe() const override { return inner_->describe(); }

 private:
  std::unique_ptr<io::SpoolSink> inner_;
  Tracer& t_;
  SinkCounts& c_;
};

void spool_follow(const Journey& j, RepState& rs, Tracer& t, Samples& e2e,
                  Counters& c) {
  const Workload& w = j.w;
  const std::string dir = rs.dir + "/spool";
  std::int64_t spool_ns = 0, follow_ns = 0;
  query::StreamOptions so;
  so.attribution_slack = kAttributionSlack;
  std::optional<query::StreamingQuery> sq;
  call(t, "query.StreamingQuery::StreamingQuery", &follow_ns, [&] {
    sq.emplace(query::parse_query(kSummaryQuery, &w.symtab), w.symtab, so);
  });

  SinkCounts sc;
  std::uint64_t vnow = 0, spool_bytes = 0;
  for (std::size_t mi = 0; mi < w.members.size(); ++mi) {
    const io::TraceData& d = w.members[mi].data;
    const std::string path = dir + "/" + w.members[mi].file + ".spool";
    std::optional<io::ResilientWriter> writer;
    call(t, "io.ResilientWriter::ResilientWriter", &spool_ns, [&] {
      writer.emplace(io::ResilientWriterConfig{},
                     std::make_unique<CountingSink>(
                         std::make_unique<io::FileSpoolSink>(path), t, sc));
    });
    std::optional<io::TraceFollower> follower;
    call(t, "io.TraceFollower::open", &follow_ns,
         [&] { follower.emplace(io::TraceFollower::open(path)); });

    const auto poll_once = [&] {
      io::TraceFollower::PollResult pr = call(
          t, "io.TraceFollower::poll", &follow_ns,
          [&] { return follower->poll(vnow); });
      vnow += 1000;
      c["polls"] += 1;
      if (pr.chunks == 0) c["empty_polls"] += 1;
      if (!pr.data.markers.empty() || !pr.data.samples.empty()) {
        call(t, "query.StreamingQuery::ingest", &follow_ns,
             [&] { (void)sq->ingest(pr.data); });
      }
    };

    // Markers go to the writer only once every core's samples up to
    // their time sit in chunks the writer has already cut: the stream
    // seals a window when its core's watermark passes the leave edge, so
    // a marker chunk must never reach the spool ahead of the samples of
    // the windows it closes.
    const std::size_t per_chunk = writer->config().records_per_chunk;
    std::map<std::uint32_t, Tsc> cut_hi; // per core: newest sample in a cut chunk
    std::set<std::uint32_t> cores;
    for (const PebsSample& s : d.samples) cores.insert(s.core);
    std::size_t mk = 0, cut = 0;
    for (std::size_t b = 0; b < d.samples.size(); b += kBatchSamples) {
      const std::size_t e = std::min(d.samples.size(), b + kBatchSamples);
      call(t, "io.ResilientWriter::add_samples", &spool_ns, [&] {
        writer->add_samples(d.samples.data() + b, e - b, vnow);
      });
      for (; cut < e / per_chunk * per_chunk; ++cut) {
        Tsc& hi = cut_hi[d.samples[cut].core];
        hi = std::max(hi, d.samples[cut].tsc);
      }
      Tsc bound = 0;
      if (cut_hi.size() == cores.size()) {
        bound = std::numeric_limits<Tsc>::max();
        for (const auto& [core, hi] : cut_hi) bound = std::min(bound, hi);
      }
      std::size_t mk_end = mk;
      while (mk_end < d.markers.size() && d.markers[mk_end].tsc <= bound) ++mk_end;
      if (mk_end > mk) {
        call(t, "io.ResilientWriter::add_markers", &spool_ns, [&] {
          writer->add_markers(d.markers.data() + mk, mk_end - mk, vnow);
        });
        mk = mk_end;
      }
      call(t, "io.ResilientWriter::pump", &spool_ns,
           [&] { (void)writer->pump(vnow); });
      poll_once();
    }
    if (mk < d.markers.size()) {
      call(t, "io.ResilientWriter::add_markers", &spool_ns, [&] {
        writer->add_markers(d.markers.data() + mk, d.markers.size() - mk, vnow);
      });
    }
    const bool clean = call(t, "io.ResilientWriter::close", &spool_ns,
                            [&] { return writer->close(vnow); });
    for (int guard = 0; !follower->finished() && guard < 100000; ++guard) {
      poll_once();
    }

    const io::ResilientWriter::Stats& ws = writer->stats();
    const io::TraceFollower::Stats& fs = follower->stats();
    const std::uint64_t n = d.markers.size() + d.samples.size();
    j.ledger.check(clean && ws.closed_clean && ws.reconciled() &&
                       ws.records_enqueued == n && ws.records_committed == n,
                   "spool: writer ledger of " + path);
    j.ledger.check(fs.reconciled() &&
                       follower->finish_reason() == io::FollowFinish::CleanEof &&
                       fs.records_markers == d.markers.size() &&
                       fs.records_samples == d.samples.size(),
                   "follow: follower ledger of " + path);
    c["chunks_committed"] += static_cast<double>(ws.chunks_committed);
    c["spool_retries"] += static_cast<double>(ws.retries);
    c["follow_transients"] += static_cast<double>(fs.read_transients);
    spool_bytes += file_size(path);
  }
  call(t, "query.StreamingQuery::flush", &follow_ns, [&] { (void)sq->flush(); });
  const query::QueryResult snap = call(
      t, "query.StreamingQuery::snapshot", &follow_ns,
      [&] { return sq->snapshot(); });
  j.ledger.check(same_rows(snap, j.ex.stream_summary),
                 "follow: streamed snapshot differs from the batch answer");
  j.ledger.check(sq->stats().rows_unattributed == j.ex.unattributed,
                 "follow: unattributed rows differ from the oracle");

  const auto records = static_cast<double>(w.records());
  e2e["spool_ns_per_record"].push_back(static_cast<double>(spool_ns) / records);
  e2e["follow_ns_per_record"].push_back(static_cast<double>(follow_ns) / records);
  e2e["spool_bytes_per_record"].push_back(static_cast<double>(spool_bytes) /
                                          records);
  c["sink_bytes"] += static_cast<double>(sc.bytes);
  c["sink_syncs"] += static_cast<double>(sc.syncs);
  c["windows_closed"] = static_cast<double>(sq->stats().windows_closed);
  c["rows_unattributed"] = static_cast<double>(sq->stats().rows_unattributed);
}

// ---------------------------------------------------------------- ingest

void ingest(const Journey& j, RepState& rs, Tracer& t, Samples& e2e,
            Counters& c) {
  const Workload& w = j.w;
  const std::string dir = rs.dir + "/catalog";
  std::int64_t ns = 0;
  hub::CatalogOptions o;
  o.threads = 1;
  // A fixed ingest time keeps the journal, and so the stored bytes, the
  // same for a seed; no retention or breaker timing is exercised here.
  o.now_ns = [] { return std::uint64_t{1'000'000'000}; };
  call(t, "hub.Catalog::open", &ns,
       [&] { rs.catalog.emplace(hub::Catalog::open(dir, w.symtab, o)); });
  const hub::IngestReport rep =
      call(t, "hub.Catalog::ingest", &ns, [&] { return rs.catalog->ingest(); });
  j.ledger.check(rep.registered == w.members.size() && rep.failed == 0 &&
                     rep.quarantined == 0 && rep.salvaged == 0,
                 "ingest: not every member registered clean");

  std::uint64_t stored = 0, sidecars = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    stored += e.file_size();
    if (e.path().extension() == ".flxi") sidecars += e.file_size();
  }
  const auto rows = static_cast<double>(w.rows());
  e2e["ingest_ns_per_row"].push_back(static_cast<double>(ns) / rows);
  e2e["stored_bytes_per_record"].push_back(static_cast<double>(stored) /
                                           static_cast<double>(w.records()));
  c["hub_failed"] = static_cast<double>(rep.failed);
  c["hub_quarantined"] = static_cast<double>(rep.quarantined);
  c["sidecar_bytes"] = static_cast<double>(sidecars);
  c["journal_bytes"] = static_cast<double>(file_size(dir + "/catalog.flxh"));
}

// ----------------------------------------------------------------- query

/// Destroys a one-shot engine inside a span: unmapping and freeing are
/// part of what a one-shot query costs, as inside run_federated.
void close_engine(Tracer& t, std::optional<query::QueryEngine>& eng) {
  call(t, "query.QueryEngine::~QueryEngine", nullptr, [&] { eng.reset(); });
}

void count_groups(Counters& c, const std::string& tag,
                  const std::vector<query::ExecPartial>& parts) {
  for (const query::ExecPartial& p : parts) {
    c["groups." + tag] += static_cast<double>(p.groups.size() + p.buckets.size() +
                                              p.rows.size());
  }
}

/// QueryEngine::run on a loaded engine, spelled out as the calls it
/// makes: parse_query, run_partial, finish_partials.
query::QueryResult run_spelled(const Journey& j, Tracer& t,
                               query::QueryEngine& eng, const std::string& text,
                               const std::string& tag, Counters& c) {
  const query::Query q = call(t, "query.parse_query", nullptr, [&] {
    return query::parse_query(text, &j.w.symtab);
  });
  std::vector<query::ExecPartial> parts;
  parts.push_back(call(t, "query.QueryEngine::run_partial[" + tag + "]", nullptr,
                       [&] { return eng.run_partial(q); }));
  count_groups(c, tag, parts);
  return call(t, "query.QueryEngine::finish_partials[" + tag + "]", nullptr, [&] {
    return query::QueryEngine::finish_partials(q, j.w.symtab, std::move(parts));
  });
}

/// query::run_federated spelled out as the calls it makes with fan-out
/// 1: per member QueryEngine::open + run_partial, then one
/// finish_partials; for order-sensitive pipelines (outliers), per member
/// open_trace + read_or_salvage, then one engine over the concatenation.
query::QueryResult federated_spelled(const Journey& j, Tracer& t,
                                     const std::vector<std::string>& paths,
                                     const std::string& text,
                                     const std::string& tag, Counters& c) {
  const query::Query q = call(t, "query.parse_query", nullptr, [&] {
    return query::parse_query(text, &j.w.symtab);
  });
  if (q.outliers.has_value()) {
    io::TraceData all;
    for (const std::string& p : paths) {
      std::optional<io::TraceReader> r;
      call(t, "io.open_trace", nullptr, [&] { r.emplace(io::open_trace(p)); });
      io::TraceReader::ReadResult rr = call(t, "io.TraceReader::read_or_salvage",
                                            nullptr, [&] { return r->read_or_salvage(); });
      call(t, "io.TraceReader::~TraceReader", nullptr, [&] { r.reset(); });
      // run_federated's own concatenation, done here in its place.
      call(t, "query.run_federated:append", nullptr, [&] {
        all.markers.insert(all.markers.end(), rr.data.markers.begin(),
                           rr.data.markers.end());
        all.samples.insert(all.samples.end(), rr.data.samples.begin(),
                           rr.data.samples.end());
        rr.data = io::TraceData{};
      });
    }
    std::optional<query::QueryEngine> eng;
    call(t, "query.QueryEngine::from_data", nullptr, [&] {
      eng.emplace(query::QueryEngine::from_data(all, j.w.symtab, engine_options()));
      all = io::TraceData{};
    });
    query::QueryResult res = run_spelled(j, t, *eng, text, tag, c);
    close_engine(t, eng);
    return res;
  }
  std::vector<query::ExecPartial> parts;
  for (const std::string& p : paths) {
    std::optional<query::QueryEngine> eng;
    call(t, "query.QueryEngine::open", nullptr, [&] {
      eng.emplace(query::QueryEngine::open(p, j.w.symtab, engine_options()));
    });
    parts.push_back(call(t, "query.QueryEngine::run_partial[" + tag + "]", nullptr,
                         [&] { return eng->run_partial(q); }));
    close_engine(t, eng);
  }
  count_groups(c, tag, parts);
  return call(t, "query.QueryEngine::finish_partials[" + tag + "]", nullptr, [&] {
    return query::QueryEngine::finish_partials(q, j.w.symtab, std::move(parts));
  });
}

/// One query over the fleet's members: run_federated as a user calls it,
/// or its spelled-out form when tracing.
query::QueryResult fleet_query(const Journey& j, const RepState& rs, Tracer& t,
                               const std::string& text, const std::string& tag,
                               Counters& c) {
  if (t.on()) {
    std::vector<std::string> paths;
    for (const query::FederatedTrace& m : rs.members) paths.push_back(m.path);
    return federated_spelled(j, t, paths, text, tag, c);
  }
  const query::FederatedResult fr = query::run_federated(
      rs.members, j.w.symtab, text, federated_options());
  j.ledger.check(fr.ledger.count(query::TraceDisposition::Ok) ==
                     rs.members.size(),
                 "federated: not every member answered ok: " +
                     fr.ledger.summary());
  return fr.result;
}

void cold_query(const Journey& j, RepState& rs, Tracer& t, Samples& e2e,
                Counters& c) {
  const Workload& w = j.w;
  const std::int64_t t0 = now_ns();
  query::QueryResult res;
  if (single(w)) {
    call(t, "query.QueryEngine::open", nullptr, [&] {
      rs.engine.emplace(
          query::QueryEngine::open(rs.cold_path, w.symtab, engine_options()));
    });
    res = run_spelled(j, t, *rs.engine, kSummaryQuery, "summary", c);
  } else {
    rs.members = call(t, "hub.Catalog::query_members", nullptr,
                      [&] { return rs.catalog->query_members(); });
    res = fleet_query(j, rs, t, kSummaryQuery, "summary", c);
  }
  const std::int64_t ns = now_ns() - t0;
  if (single(w)) {
    j.ledger.check(res.stats.index_written,
                   "cold query: no sidecar written on first query");
  }
  j.ledger.check(same_rows(res, j.ex.func_summary),
                 "cold query: answer differs from the oracle");
  e2e["cold_query_ns_per_row"].push_back(static_cast<double>(ns) /
                                         static_cast<double>(w.rows()));
}

void warm_query(const Journey& j, RepState& rs, Tracer& t, Samples& e2e,
                Counters& c) {
  const Workload& w = j.w;
  std::int64_t ns = 0;
  for (const Pipeline& p : warm_pipelines(w)) {
    const std::int64_t t0 = now_ns();
    const query::QueryResult res = single(w)
                                       ? run_spelled(j, t, *rs.engine, p.text, p.name, c)
                                       : fleet_query(j, rs, t, p.text, p.name, c);
    std::ostringstream os;
    call(t, "query.print_csv", nullptr, [&] { query::print_csv(os, res); });
    ns += now_ns() - t0;

    const std::string what = std::string("warm query ") + p.name;
    if (std::string_view(p.name) == "outliers") {
      j.ledger.check(names_injected(outlier_items(res), w.injected),
                     what + ": the most deviant items are not the injected ones");
    } else {
      j.ledger.check(same_rows(res, std::string_view(p.name) == "top_items"
                                        ? j.ex.top_items
                                        : j.ex.core_filter),
                     what + ": answer differs from the oracle");
    }
  }
  e2e["warm_query_ns_per_row"].push_back(static_cast<double>(ns) /
                                         static_cast<double>(w.rows()));
}

void item_drilldown(const Journey& j, RepState& rs, Tracer& t, Samples& e2e,
                    Counters& c) {
  const Workload& w = j.w;
  std::vector<double> us;
  for (const ItemId x : w.probe_items) {
    const std::string text = item_query(x);
    const std::int64_t t0 = now_ns();
    query::QueryResult res;
    if (single(w)) {
      std::optional<query::QueryEngine> eng;
      call(t, "query.QueryEngine::open", nullptr, [&] {
        eng.emplace(query::QueryEngine::open(rs.cold_path, w.symtab, engine_options()));
      });
      res = run_spelled(j, t, *eng, text, "item", c);
      close_engine(t, eng);
    } else {
      res = fleet_query(j, rs, t, text, "item", c);
    }
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    j.ledger.check(same_rows(res, j.ex.item_answers.at(x)),
                   "item query " + std::to_string(x) + ": answer differs from the oracle");
    c["chunks_total"] += static_cast<double>(res.stats.chunks_total);
    c["chunks_pruned"] += static_cast<double>(res.stats.chunks_pruned);
    c["blocks_total"] += static_cast<double>(res.stats.blocks_total);
    c["blocks_skipped"] += static_cast<double>(res.stats.blocks_skipped);
    c["rows_scanned"] += static_cast<double>(res.stats.rows_scanned);
    c["rows_matched"] += static_cast<double>(res.stats.rows_matched);
  }
  e2e["item_query_us"].push_back(median(us));
}

void report(const Journey& j, Tracer& t, Samples& e2e, Counters& c) {
  const Workload& w = j.w;
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < w.members.size(); ++i) {
    const io::TraceReader reader = call(t, "io.open_trace", &ns, [&] {
      return io::open_trace(at_rest(j, w.members[i]));
    });
    const io::TraceData data =
        call(t, "io.TraceReader::read", &ns, [&] { return reader.read(); });
    c["read_rows"] += static_cast<double>(data.samples.size());
    const core::TraceTable table =
        call(t, "core.TraceIntegrator::integrate", &ns, [&] {
          return core::TraceIntegrator(w.symtab).integrate(data.markers,
                                                           data.samples);
        });
    const core::DiagnosisReport rep = call(t, "core.diagnose", &ns, [&] {
      return core::diagnose(table, CpuSpec{});
    });
    c["report_items"] += static_cast<double>(rep.items);

    std::vector<ItemId> ranked;
    bool dominant_ok = true;
    for (const core::OutlierReport& o : rep.outliers) {
      ranked.push_back(o.item);
      // An item whose buckets all hold fewer than two samples has no
      // estimate, hence no dominant function; any named one must be right.
      if (w.injected.count(o.item) != 0 && o.dominant_fn != w.injected_fn &&
          o.dominant_fn != kInvalidSymbol) {
        dominant_ok = false;
      }
    }
    const std::string what = "report of " + w.members[i].file;
    j.ledger.check(rep.items == j.ex.member_items[i] &&
                       names_injected(ranked, j.ex.member_injected[i]) &&
                       dominant_ok,
                   what + ": diagnose does not name the injected items");
  }
  e2e["report_ns_per_row"].push_back(static_cast<double>(ns) /
                                     static_cast<double>(w.rows()));
}

/// Traced run only: the calls a cold open makes inside QueryEngine,
/// made one by one so each layer has its own span.
void cold_layers(const Journey& j, Tracer& t, Counters& c) {
  const Workload& w = j.w;
  for (const Member& m : w.members) {
    const io::TraceReader reader = call(t, "io.open_trace", nullptr, [&] {
      return io::open_trace(at_rest(j, m));
    });
    const std::string_view bytes = reader.bytes();
    const std::vector<io::V2ChunkRef> refs = call(
        t, "io.index_trace_v2", nullptr, [&] { return io::index_trace_v2(bytes); });
    std::size_t n = 0;
    for (const io::V2ChunkRef& r : refs) {
      if (io::is_sample_chunk_type(r.type)) n += r.n_records;
    }
    std::vector<std::int64_t> ts(n), ip(n), core(n);
    call(t, "io.decode_v3_samples_into", nullptr, [&] {
      std::size_t at = 0;
      for (const io::V2ChunkRef& r : refs) {
        if (!io::is_sample_chunk_type(r.type)) continue;
        io::SampleColumnSlice s;
        s.tsc = ts.data() + at;
        s.ip = ip.data() + at;
        s.core = core.data() + at;
        io::decode_v3_samples_into(bytes, r, s);
        at += r.n_records;
      }
    });
    j.ledger.check(n == m.data.samples.size() &&
                       (n == 0 || (static_cast<Tsc>(ts[0]) == m.data.samples[0].tsc &&
                                   static_cast<std::uint64_t>(ip[n - 1]) ==
                                       m.data.samples[n - 1].ip)),
                   "codec: decoded columns differ from the generated samples");
    c["decoded_rows"] += static_cast<double>(n);

    const io::TraceTriage tri =
        call(t, "io.classify_trace", nullptr, [&] { return io::classify_trace(reader); });
    j.ledger.check(tri.health == io::TraceHealth::Clean, "triage: trace not clean");

    const query::ColumnarTrace built =
        call(t, "query.ColumnarTrace::from_reader", nullptr, [&] {
          return query::ColumnarTrace::from_reader(reader, w.symtab, {}, 1);
        });
    const io::TraceData data =
        call(t, "io.TraceReader::read", nullptr, [&] { return reader.read(); });
    c["read_rows"] += static_cast<double>(data.samples.size());
    const query::ColumnarTrace attributed =
        call(t, "query.ColumnarTrace::build", nullptr, [&] {
          return query::ColumnarTrace::build(data, w.symtab);
        });
    j.ledger.check(built.rows() == n && attributed.rows() == n &&
                       std::ranges::equal(built.col(query::Field::Dur),
                                          attributed.col(query::Field::Dur)),
                   "columnar: from_reader and build disagree");

    for (const io::V3ColumnSummary& s : call(t, "io.v3_compression_stats", nullptr,
                                             [&] { return io::v3_compression_stats(bytes); })) {
      const std::string col = s.name.rfind("samples.reg", 0) == 0 ? "samples.regs"
                              : s.name.rfind("markers.", 0) == 0 ? "markers"
                                                                 : s.name;
      c["codec." + col] += static_cast<double>(s.enc_bytes);
    }
  }
}

// ------------------------------------------------------ per-layer metrics

struct SpanAgg {
  double dur = 0;  ///< ns
  double self = 0; ///< ns
  double calls = 0;
};

std::map<std::string, SpanAgg> aggregate(const Tracer& t, std::size_t from) {
  std::map<std::string, SpanAgg> out;
  const std::vector<std::int64_t> self = t.self_times();
  for (std::size_t i = from; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    SpanAgg& a = out[s.name];
    a.dur += static_cast<double>(s.end - s.start);
    a.self += static_cast<double>(self[i]);
    a.calls += 1;
  }
  return out;
}

void layer_metrics(const Journey& j, const std::map<std::string, SpanAgg>& sp,
                   Counters& c, Samples& out) {
  const Workload& w = j.w;
  const auto dur = [&](const std::string& n) {
    const auto it = sp.find(n);
    return it == sp.end() ? 0.0 : it->second.dur;
  };
  const auto mean_us = [&](const std::string& n) {
    const auto it = sp.find(n);
    return it == sp.end() || it->second.calls == 0
               ? 0.0
               : it->second.dur / it->second.calls / 1e3;
  };
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const auto rows = static_cast<double>(w.rows());
  const auto records = static_cast<double>(w.records());
  const auto members = static_cast<double>(w.members.size());
  const auto put = [&](const std::string& n, double v) { out[n].push_back(v); };

  double writer_self = 0;
  for (const auto& [name, a] : sp) {
    if (name.rfind("io.ResilientWriter::", 0) == 0) writer_self += a.self;
  }
  put("io.open_us", mean_us("io.open_trace"));
  put("query.engine_open_us", mean_us("query.QueryEngine::open"));
  put("io.read_ns_per_row", ratio(dur("io.TraceReader::read"), c["read_rows"]));
  put("io.spool_self_ns_per_record", writer_self / records);
  put("io.sink_ns_per_byte",
      ratio(dur("io.FileSpoolSink::write") + dur("io.FileSpoolSink::sync"),
            c["sink_bytes"]));
  put("io.syncs_per_chunk", ratio(c["sink_syncs"], c["chunks_committed"]));
  put("io.spool_retries", c["spool_retries"]);
  put("io.poll_ns_per_record", dur("io.TraceFollower::poll") / records);
  put("io.empty_poll_ratio", ratio(c["empty_polls"], c["polls"]));
  put("io.follow_transients", c["follow_transients"]);
  put("codec.decode_ns_per_row",
      ratio(dur("io.index_trace_v2") + dur("io.decode_v3_samples_into"),
            c["decoded_rows"]));
  for (const char* col : {"samples.ts", "samples.ip", "samples.core",
                          "samples.regs", "markers"}) {
    std::string name = std::string("codec.") + col + "_bytes_per_row";
    std::replace(name.begin() + 6, name.end(), '.', '_');
    put(name, ratio(c[std::string("codec.") + col], c["decoded_rows"]));
  }
  put("query.build_ns_per_row",
      ratio(dur("query.ColumnarTrace::from_reader"), c["decoded_rows"]));
  put("query.attribute_ns_per_row",
      ratio(dur("query.ColumnarTrace::build"), c["decoded_rows"]));
  for (const char* p : {"top_items", "outliers", "core_filter"}) {
    const std::string tag = std::string("[") + p + "]";
    put(std::string("query.scan_ns_per_row.") + p,
        dur("query.QueryEngine::run_partial" + tag) / rows);
    put(std::string("query.finish_us.") + p,
        dur("query.QueryEngine::finish_partials" + tag) / 1e3);
    put(std::string("query.groups.") + p, c[std::string("groups.") + p]);
  }
  put("query.chunks_pruned_ratio", ratio(c["chunks_pruned"], c["chunks_total"]));
  put("query.blocks_skipped_ratio", ratio(c["blocks_skipped"], c["blocks_total"]));
  put("query.rows_matched_ratio", ratio(c["rows_matched"], c["rows_scanned"]));
  put("query.stream_ns_per_record",
      (dur("query.StreamingQuery::ingest") + dur("query.StreamingQuery::flush") +
       dur("query.StreamingQuery::snapshot")) /
          records);
  put("query.windows_closed", c["windows_closed"]);
  put("query.rows_unattributed", c["rows_unattributed"]);
  put("query.federated_merge_us",
      dur("query.QueryEngine::finish_partials[summary]") / 1e3);
  put("query.render_us", dur("query.print_csv") / 1e3);
  put("core.integrate_ns_per_row",
      dur("core.TraceIntegrator::integrate") / rows);
  put("core.diagnose_ns_per_item", ratio(dur("core.diagnose"), c["report_items"]));
  put("hub.catalog_open_us", mean_us("hub.Catalog::open"));
  put("hub.ingest_us_per_member", dur("hub.Catalog::ingest") / 1e3 / members);
  put("hub.failed", c["hub_failed"]);
  put("hub.quarantined", c["hub_quarantined"]);
  put("hub.triage_ns_per_row", ratio(dur("io.classify_trace"), c["decoded_rows"]));
  put("hub.sidecar_bytes_per_row", c["sidecar_bytes"] / rows);
  put("hub.journal_bytes_per_member", c["journal_bytes"] / members);

  const CaptureFigures& f = j.fig;
  const auto packets = static_cast<double>(f.packets);
  put("sim.samples_per_item", static_cast<double>(f.samples) / packets);
  put("sim.lost_per_item", static_cast<double>(f.lost) / packets);
  put("sim.assist_ns_per_item", f.assist_ns / packets);
  put("sim.drain_stall_ns_per_item", f.drain_stall_ns / packets);
  put("sim.overhead_ns_per_sample",
      f.overhead_ns_per_item * packets / static_cast<double>(f.samples));
}

} // namespace

void run_journey(const Journey& j, int rep, Tracer& t, Samples& e2e,
                 Samples& op_ns, Samples& layers, Samples* mem) {
  const Workload& w = j.w;
  RepState rs;
  rs.dir = j.work + "/rep" + std::to_string(rep);
  // Staging: the directories and links the operations start from. They
  // are the benchmark's, not the program's, so they sit outside the
  // operations.
  make_dirs(rs.dir + "/spool");
  make_dirs(rs.dir + "/catalog");
  for (const Member& m : w.members) {
    link_or_copy(at_rest(j, m), rs.dir + "/catalog/" + m.file);
  }
  if (single(w)) {
    make_dirs(rs.dir + "/cold");
    rs.cold_path = rs.dir + "/cold/" + w.members[0].file;
    link_or_copy(at_rest(j, w.members[0]), rs.cold_path);
  }
  Counters c;
  const std::size_t first_span = t.spans().size();
  double peak = 0;
  const auto op = [&](const std::string& name, auto&& body) {
    const double mib = operation(j, t, op_ns, name, mem != nullptr, body);
    peak = std::max(peak, mib);
    if (mem != nullptr) (*mem)["mem." + name + "_peak_mib"].push_back(mib);
  };

  op("spool_follow", [&] { spool_follow(j, rs, t, e2e, c); });
  remove_tree(rs.dir + "/spool");
  op("ingest", [&] { ingest(j, rs, t, e2e, c); });
  op("cold_query", [&] { cold_query(j, rs, t, e2e, c); });
  op("warm_query", [&] { warm_query(j, rs, t, e2e, c); });
  op("item_query", [&] { item_drilldown(j, rs, t, e2e, c); });
  op("report", [&] { report(j, t, e2e, c); });
  if (mem != nullptr) (*mem)["peak_rss_mib"].push_back(peak);
  if (t.on()) {
    operation(j, t, op_ns, "cold_layers", false, [&] { cold_layers(j, t, c); });
    layer_metrics(j, aggregate(t, first_span), c, layers);
  }
  rs.engine.reset();
  rs.catalog.reset();
  remove_tree(rs.dir);
}

void validate_once(const Journey& j) {
  const Workload& w = j.w;
  if (single(w)) return;
  // The federated answer equals one engine over the concatenated members.
  io::TraceData all;
  std::vector<query::FederatedTrace> members;
  for (const Member& m : w.members) {
    all.markers.insert(all.markers.end(), m.data.markers.begin(), m.data.markers.end());
    all.samples.insert(all.samples.end(), m.data.samples.begin(), m.data.samples.end());
    members.push_back(query::FederatedTrace{at_rest(j, m), false});
  }
  query::QueryEngine eng = query::QueryEngine::from_data(all, w.symtab, engine_options());
  query::EngineOptions eo = engine_options();
  eo.write_index = false;
  query::FederatedOptions fo = federated_options();
  fo.engine = eo;
  for (const std::string& q : {std::string(kSummaryQuery), std::string(kTopItemsQuery),
                               std::string(kOutliersQuery), core_filter_query(w)}) {
    const query::FederatedResult fr = query::run_federated(members, w.symtab, q, fo);
    const query::QueryResult one = eng.run(q);
    j.ledger.check(fr.result.rows == one.rows && fr.result.columns == one.columns,
                   "federated answer differs from one engine over the "
                   "concatenated members: " + q);
  }
}

} // namespace perfbench
