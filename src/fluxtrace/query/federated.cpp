#include "fluxtrace/query/federated.hpp"

#include <optional>
#include <utility>

#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/obs/span.hpp"
#include "fluxtrace/rt/thread_pool.hpp"

namespace fluxtrace::query {

namespace {

struct FederatedMetrics {
  obs::Counter& queries = obs::metrics().counter("federated.queries");
  obs::Counter& members_ok = obs::metrics().counter("federated.members_ok");
  obs::Counter& members_salvaged =
      obs::metrics().counter("federated.members_salvaged");
  obs::Counter& members_quarantined =
      obs::metrics().counter("federated.members_quarantined");
  obs::Counter& members_skipped =
      obs::metrics().counter("federated.members_skipped");

  static FederatedMetrics& get() {
    static FederatedMetrics m;
    return m;
  }
};

void append_data(io::TraceData& all, io::TraceData&& part) {
  all.markers.insert(all.markers.end(), part.markers.begin(),
                     part.markers.end());
  all.samples.insert(all.samples.end(), part.samples.begin(),
                     part.samples.end());
  all.wait_edges.insert(all.wait_edges.end(), part.wait_edges.begin(),
                        part.wait_edges.end());
}

/// Per-member scan for the mergeable path. Runs inside a pool worker;
/// everything it touches is member-local.
void scan_member(const FederatedTrace& member, const SymbolTable& symtab,
                 const Query& q, const EngineOptions& eo,
                 TraceLedgerEntry& entry, std::optional<ExecPartial>& out) {
  entry.path = member.path;
  if (member.quarantined) {
    entry.state = TraceDisposition::Quarantined;
    entry.detail = "quarantined by catalog";
    return;
  }
  try {
    QueryEngine eng = QueryEngine::open(member.path, symtab, eo);
    ExecPartial part = eng.run_partial(q);
    const std::size_t recovered =
        part.stats.wait_stage ? part.stats.wait_edges : part.stats.blocks_total;
    if (part.stats.salvaged && recovered == 0) {
      // Salvage produced nothing this query reads. Triage the file
      // properly: a partial recovery still counts as salvaged; a file
      // salvage recovered *nothing* from is quarantine-grade.
      const io::TraceTriage triage = io::classify_trace(eng.reader());
      if (triage.health == io::TraceHealth::Unrecoverable) {
        entry.state = TraceDisposition::Quarantined;
        entry.detail =
            "unrecoverable: " +
            std::to_string(triage.report.chunks_corrupt) +
            " corrupt chunks, " +
            std::to_string(triage.report.bytes_skipped +
                           triage.report.bytes_truncated) +
            " bytes lost";
        return;
      }
    }
    entry.state = part.stats.salvaged ? TraceDisposition::Salvaged
                                      : TraceDisposition::Ok;
    if (part.stats.salvaged) entry.detail = "partial rows (salvaged)";
    out = std::move(part);
  } catch (const io::TraceIoError& e) {
    entry.state = TraceDisposition::Skipped;
    entry.detail = e.what();
  }
}

} // namespace

std::size_t FederatedLedger::count(TraceDisposition d) const {
  std::size_t n = 0;
  for (const TraceLedgerEntry& e : traces) {
    if (e.state == d) ++n;
  }
  return n;
}

std::string FederatedLedger::summary() const {
  return "traces: " + std::to_string(count(TraceDisposition::Ok)) + " ok, " +
         std::to_string(count(TraceDisposition::Salvaged)) + " salvaged, " +
         std::to_string(count(TraceDisposition::Quarantined)) +
         " quarantined, " + std::to_string(count(TraceDisposition::Skipped)) +
         " skipped";
}

FederatedResult run_federated(const std::vector<FederatedTrace>& members,
                              const SymbolTable& symtab, const Query& q,
                              const FederatedOptions& opts) {
  OBS_SPAN("federated.run");
  FederatedMetrics::get().queries.inc();

  FederatedResult out;
  out.ledger.traces.resize(members.size());

  const bool concat_mode = q.outliers.has_value();

  if (!concat_mode) {
    // Mergeable stages: fan member scans out on the pool, merge the
    // partials in member index order — the thread count is never
    // observable in the result bytes.
    const unsigned fanout = rt::resolve_threads(opts.fanout_threads);
    std::vector<std::optional<ExecPartial>> partials(members.size());
    const auto scan_one = [&](std::size_t i) {
      EngineOptions eo = opts.engine;
      if (fanout > 1) eo.threads = 1; // members are the parallelism unit
      scan_member(members[i], symtab, q, eo, out.ledger.traces[i],
                  partials[i]);
    };
    if (fanout > 1 && members.size() > 1) {
      rt::ThreadPool pool(fanout);
      pool.parallel_for(members.size(), scan_one);
    } else {
      for (std::size_t i = 0; i < members.size(); ++i) scan_one(i);
    }

    std::vector<ExecPartial> contributed;
    contributed.reserve(members.size());
    for (std::optional<ExecPartial>& p : partials) {
      if (p.has_value()) contributed.push_back(std::move(*p));
    }
    out.result = QueryEngine::finish_partials(q, symtab,
                                              std::move(contributed));
  } else {
    // outliers, the one order-sensitive stage: concatenate the members'
    // records in member order and evaluate as one trace — identical to
    // the single-trace answer by construction.
    io::TraceData all;
    for (std::size_t i = 0; i < members.size(); ++i) {
      TraceLedgerEntry& entry = out.ledger.traces[i];
      entry.path = members[i].path;
      if (members[i].quarantined) {
        entry.state = TraceDisposition::Quarantined;
        entry.detail = "quarantined by catalog";
        continue;
      }
      try {
        const io::TraceReader reader = io::open_trace(members[i].path);
        io::TraceReader::ReadResult rr = reader.read_or_salvage();
        const bool empty = rr.data.markers.empty() &&
                           rr.data.samples.empty() &&
                           rr.data.wait_edges.empty();
        if (rr.salvaged && empty) {
          entry.state = TraceDisposition::Quarantined;
          entry.detail = "unrecoverable: salvage recovered no records";
          continue;
        }
        entry.state = rr.salvaged ? TraceDisposition::Salvaged
                                  : TraceDisposition::Ok;
        if (rr.salvaged) entry.detail = "partial records (salvaged)";
        append_data(all, std::move(rr.data));
      } catch (const io::TraceIoError& e) {
        entry.state = TraceDisposition::Skipped;
        entry.detail = e.what();
      }
    }
    QueryEngine eng = QueryEngine::from_data(all, symtab, opts.engine);
    out.result = eng.run(q);
    // The in-memory concatenation is clean; the ledger knows better.
    if (out.ledger.count(TraceDisposition::Salvaged) > 0) {
      out.result.stats.salvaged = true;
    }
  }

  FederatedMetrics::get().members_ok.inc(
      out.ledger.count(TraceDisposition::Ok));
  FederatedMetrics::get().members_salvaged.inc(
      out.ledger.count(TraceDisposition::Salvaged));
  FederatedMetrics::get().members_quarantined.inc(
      out.ledger.count(TraceDisposition::Quarantined));
  FederatedMetrics::get().members_skipped.inc(
      out.ledger.count(TraceDisposition::Skipped));
  return out;
}

FederatedResult run_federated(const std::vector<FederatedTrace>& members,
                              const SymbolTable& symtab,
                              std::string_view query_text,
                              const FederatedOptions& opts) {
  return run_federated(members, symtab, parse_query(query_text, &symtab),
                       opts);
}

} // namespace fluxtrace::query
