// Federated query execution (ISSUE 9): evaluate one pipeline over a set
// of member traces as if over their concatenation, degrading per-trace
// instead of failing the query.
//
// Two execution strategies, picked by query shape:
//
//   * mergeable stages (filter/select/group/critical_path/blocked_by/
//     top/limit) — each member is scanned independently
//     (QueryEngine::run_partial, FLXI pruning and all) and the
//     per-member ExecPartials merge through the commutative partial
//     algebra (AggPartial, WaitGraph), finished in member order by
//     QueryEngine::finish_partials. Bit-identical to evaluating the
//     concatenated trace when the members are distinct capture sessions
//     (disjoint item ranges), because then neither the marker-window
//     attribution nor any {item, func} dur bucket spans a member
//     boundary; a wait graph merges in any order, so the wait stages are
//     identical by construction.
//   * outliers — the detector replay is an order-sensitive whole-fleet
//     computation, so the members' records are actually concatenated (in
//     member order) and evaluated as one trace. Identical by
//     construction.
//
// Failure semantics: a member that cannot be read is *skipped*, one that
// salvages contributes its recovered subset (*salvaged*), one that
// salvages to nothing — or that the catalog already quarantined — is
// *quarantined*; the rest are *ok*. The ledger reports all four counts
// per query; only a query whose every member failed is itself an error
// (and even that returns an empty result + ledger, never a throw).
//
// Ledger rule: a member is *salvaged* when what this query read from it
// came from salvage. A fan-out stage reads only its own records — a
// group query the sample chunks, a wait stage the wait-edge chunks — so
// a member with one damaged sample chunk is salvaged for `group` and ok
// for `critical_path`, with the same rows either way. `outliers` reads
// every record of every member through the concatenation.
// result.stats.salvaged is set whenever the ledger holds a salvaged
// member.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "fluxtrace/query/engine.hpp"

namespace fluxtrace::query {

/// What became of one member trace during a federated evaluation.
enum class TraceDisposition : std::uint8_t { Ok, Salvaged, Quarantined, Skipped };

[[nodiscard]] constexpr std::string_view to_string(TraceDisposition d) {
  switch (d) {
    case TraceDisposition::Ok: return "ok";
    case TraceDisposition::Salvaged: return "salvaged";
    case TraceDisposition::Quarantined: return "quarantined";
    case TraceDisposition::Skipped: return "skipped";
  }
  return "?";
}

/// One member of a federated evaluation. `quarantined` is set by the
/// catalog for traces its manifest already condemned: they are counted
/// in the ledger but never opened (a hostile file stays unread).
struct FederatedTrace {
  std::string path;
  bool quarantined = false;
};

struct TraceLedgerEntry {
  std::string path;
  TraceDisposition state = TraceDisposition::Skipped;
  std::string detail; ///< skip reason (path + errno), salvage note, …
};

/// The per-query accounting the answer ships with: every member is in
/// exactly one state, so ok+salvaged+quarantined+skipped == members.
struct FederatedLedger {
  std::vector<TraceLedgerEntry> traces;

  [[nodiscard]] std::size_t count(TraceDisposition d) const;
  /// "traces: 5 ok, 1 salvaged, 0 quarantined, 2 skipped"
  [[nodiscard]] std::string summary() const;
};

struct FederatedOptions {
  /// Per-member engine options. In a parallel fan-out each member engine
  /// runs its scan single-threaded (members are the parallelism unit);
  /// `engine.threads` applies when fanout_threads <= 1.
  EngineOptions engine;
  /// Concurrent member scans; 0 = hardware concurrency, 1 = sequential.
  /// Never observable in the result bytes (partials merge in member
  /// order) — the fuzz suite asserts it.
  unsigned fanout_threads = 0;
};

struct FederatedResult {
  QueryResult result;
  FederatedLedger ledger;
};

/// Evaluate `q` over the members. Throws ParseError (string overload)
/// on a bad pipeline; member failures land in the ledger, never here.
[[nodiscard]] FederatedResult run_federated(
    const std::vector<FederatedTrace>& members, const SymbolTable& symtab,
    const Query& q, const FederatedOptions& opts = {});
[[nodiscard]] FederatedResult run_federated(
    const std::vector<FederatedTrace>& members, const SymbolTable& symtab,
    std::string_view query_text, const FederatedOptions& opts = {});

} // namespace fluxtrace::query
