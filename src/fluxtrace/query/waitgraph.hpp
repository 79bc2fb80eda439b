// Waiting-dependency graphs over wait edges (ISSUE 8). base::WaitEdge
// records *why* a core made no progress; the WaitGraph partial
// (partials.hpp) joins those edges into the per-item graph that the
// `critical_path` and `blocked_by` pipeline stages render here:
//
//   * `critical_path` — per item, the total time the item's handoffs
//     were blocked (the union of its blocking intervals, so overlapping
//     episodes are not double-counted) and the dominant blocker
//     (cause + resource + holder core with the largest summed blocking
//     time). One row per item, worst first: "item X was blocked N tsc,
//     mostly ring-full on ring R held by core C".
//   * `blocked_by` — the same edges grouped by blocker instead of item:
//     total/max blocked time per (cause, resource, holder).
//
// WaitGraph merges in any order and both renderers sort internally, so
// sequential scans, block-parallel scans, federated member scans and
// StreamingQuery folds all render bit-identical rows.
#pragma once

#include <array>
#include <string_view>

#include "fluxtrace/base/wait.hpp"
#include "fluxtrace/query/engine.hpp"

namespace fluxtrace::query {

/// Output columns of the two wait stages, as both the renderers below
/// and Query::columns() name them.
inline constexpr std::array<std::string_view, 6> kCriticalPathColumns = {
    "item", "blocked", "edges", "cause", "resource", "holder"};
inline constexpr std::array<std::string_view, 6> kBlockedByColumns = {
    "cause", "resource", "holder", "edges", "blocked", "max"};

/// The filter fields of one wait edge: item = waiter item, core = waiter
/// core, ts = enter, dur = blocked duration (func and ip stay unbound;
/// parse_query rejects them in a wait-stage filter).
[[nodiscard]] FieldVals wait_edge_fields(const WaitEdge& e);

/// Render the `critical_path` stage: kCriticalPathColumns, one row per
/// item, sorted by blocked desc then item asc. Destructive (sorts
/// interval vectors in place) — pass a copy to keep the partial, like
/// AggPartial::finish.
[[nodiscard]] QueryResult finish_critical_path(WaitGraph g);

/// Render the `blocked_by` stage: kBlockedByColumns, sorted by
/// (cause, resource, holder) asc.
[[nodiscard]] QueryResult finish_blocked_by(const WaitGraph& g);

} // namespace fluxtrace::query
