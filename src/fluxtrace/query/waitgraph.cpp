#include "fluxtrace/query/waitgraph.hpp"

#include <algorithm>
#include <string>

namespace fluxtrace::query {

namespace {

/// Length of the union of half-open [enter, leave) intervals.
/// Destructive: sorts `iv` in place.
std::uint64_t union_length(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (!open || b > hi) {
      if (open) total += hi - lo;
      lo = b;
      hi = e;
      open = true;
    } else if (e > hi) {
      hi = e;
    }
  }
  if (open) total += hi - lo;
  return total;
}

Cell cause_cell(std::uint8_t cause) {
  return Cell::of_text(std::string(to_string(static_cast<WaitCause>(cause))));
}

} // namespace

FieldVals wait_edge_fields(const WaitEdge& e) {
  FieldVals fv;
  fv.set(Field::Item, static_cast<std::int64_t>(e.item));
  fv.set(Field::Core, e.waiter_core);
  fv.set(Field::Ts, static_cast<std::int64_t>(e.enter));
  fv.set(Field::Dur, static_cast<std::int64_t>(e.blocked()));
  return fv;
}

QueryResult finish_critical_path(WaitGraph g) {
  QueryResult r;
  r.columns.assign(kCriticalPathColumns.begin(), kCriticalPathColumns.end());

  struct Row {
    std::int64_t item = 0;
    std::uint64_t blocked = 0;
    std::uint64_t edges = 0;
    WaitKey dominant;
  };
  std::vector<Row> rows;
  rows.reserve(g.items.size());
  for (auto& [item, part] : g.items) {
    Row row;
    row.item = item;
    row.blocked = union_length(part.intervals);
    row.edges = part.edges;
    // Dominant blocker: largest summed blocking time; ties go to the
    // smallest key, which map order hands us for free.
    std::uint64_t best = 0;
    bool first = true;
    for (const auto& [k, d] : part.by_blocker) {
      if (first || d > best) {
        row.dominant = k;
        best = d;
        first = false;
      }
    }
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.blocked != b.blocked) return a.blocked > b.blocked;
    return a.item < b.item;
  });

  r.rows.reserve(rows.size());
  for (const Row& row : rows) {
    r.rows.push_back({Cell::of_int(row.item),
                      Cell::of_int(static_cast<std::int64_t>(row.blocked)),
                      Cell::of_int(static_cast<std::int64_t>(row.edges)),
                      cause_cell(row.dominant.cause),
                      Cell::of_int(row.dominant.resource),
                      Cell::of_int(row.dominant.holder)});
  }
  return r;
}

QueryResult finish_blocked_by(const WaitGraph& g) {
  QueryResult r;
  r.columns.assign(kBlockedByColumns.begin(), kBlockedByColumns.end());
  r.rows.reserve(g.blockers.size());
  for (const auto& [k, agg] : g.blockers) {
    r.rows.push_back({cause_cell(k.cause), Cell::of_int(k.resource),
                      Cell::of_int(k.holder),
                      Cell::of_int(static_cast<std::int64_t>(agg.edges)),
                      Cell::of_int(static_cast<std::int64_t>(agg.blocked)),
                      Cell::of_int(static_cast<std::int64_t>(agg.max))});
  }
  return r;
}

} // namespace fluxtrace::query
