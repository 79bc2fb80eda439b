#include "fluxtrace/query/partials.hpp"

#include <algorithm>

#include "fluxtrace/query/engine.hpp"

namespace fluxtrace::query {

std::int64_t percentile_sorted(const std::vector<std::int64_t>& sorted,
                               unsigned p) {
  const std::size_t n = sorted.size();
  std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

void AggPartial::observe(const Aggregate& a, std::int64_t v) {
  switch (a.kind) {
    case Aggregate::Kind::Count: break;
    case Aggregate::Kind::Sum: sum += static_cast<std::uint64_t>(v); break;
    case Aggregate::Kind::Min: mn = std::min(mn, v); break;
    case Aggregate::Kind::Max: mx = std::max(mx, v); break;
    case Aggregate::Kind::P50:
    case Aggregate::Kind::P95:
    case Aggregate::Kind::P99: coll.push_back(v); break;
  }
}

void AggPartial::merge(const Aggregate& a, AggPartial&& other) {
  switch (a.kind) {
    case Aggregate::Kind::Count: break;
    case Aggregate::Kind::Sum: sum += other.sum; break;
    case Aggregate::Kind::Min: mn = std::min(mn, other.mn); break;
    case Aggregate::Kind::Max: mx = std::max(mx, other.mx); break;
    case Aggregate::Kind::P50:
    case Aggregate::Kind::P95:
    case Aggregate::Kind::P99:
      coll.insert(coll.end(), other.coll.begin(), other.coll.end());
      break;
  }
}

std::int64_t AggPartial::finish(const Aggregate& a, std::uint64_t count) {
  switch (a.kind) {
    case Aggregate::Kind::Count:
      return static_cast<std::int64_t>(count);
    case Aggregate::Kind::Sum: return static_cast<std::int64_t>(sum);
    case Aggregate::Kind::Min: return mn;
    case Aggregate::Kind::Max: return mx;
    case Aggregate::Kind::P50:
    case Aggregate::Kind::P95:
    case Aggregate::Kind::P99: {
      const unsigned p = a.kind == Aggregate::Kind::P50   ? 50
                         : a.kind == Aggregate::Kind::P95 ? 95
                                                          : 99;
      const std::size_t n = coll.size();
      if (n == 0) return 0;
      // Nearest-rank selection: nth_element places exactly the value a
      // full sort would leave at rank-1, in O(n) instead of O(n log n).
      std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
      if (rank == 0) rank = 1;
      if (rank > n) rank = n;
      const auto nth = coll.begin() + static_cast<std::ptrdiff_t>(rank - 1);
      std::nth_element(coll.begin(), nth, coll.end());
      return *nth;
    }
  }
  return 0;
}

void GroupPartial::merge(const std::vector<Aggregate>& spec,
                         GroupPartial&& other) {
  count += other.count;
  if (aggs.empty()) aggs.resize(spec.size());
  for (std::size_t a = 0; a < spec.size() && a < other.aggs.size(); ++a) {
    aggs[a].merge(spec[a], std::move(other.aggs[a]));
  }
}

void merge_groups(GroupMap& into, GroupMap&& from,
                  const std::vector<Aggregate>& spec) {
  into.merge(from); // splices the nodes whose keys `into` lacks
  for (auto& [key, acc] : from) into.at(key).merge(spec, std::move(acc));
}

void WaitGraph::observe(const WaitEdge& e) {
  const auto item = static_cast<std::int64_t>(e.item);
  const std::uint64_t d = e.blocked();
  const WaitKey k{static_cast<std::uint8_t>(e.cause), e.resource,
                  e.holder_core};
  ItemWait& it = items[item];
  it.intervals.emplace_back(e.enter, e.leave);
  it.by_blocker[k] += d;
  ++it.edges;
  BlockerAgg& b = blockers[k];
  ++b.edges;
  b.blocked += d;
  if (d > b.max) b.max = d;
  ++edges_;
}

void WaitGraph::merge(WaitGraph&& other) {
  for (auto& [item, part] : other.items) {
    ItemWait& it = items[item];
    it.intervals.insert(it.intervals.end(), part.intervals.begin(),
                        part.intervals.end());
    for (const auto& [k, d] : part.by_blocker) it.by_blocker[k] += d;
    it.edges += part.edges;
  }
  for (const auto& [k, agg] : other.blockers) {
    BlockerAgg& b = blockers[k];
    b.edges += agg.edges;
    b.blocked += agg.blocked;
    if (agg.max > b.max) b.max = agg.max;
  }
  edges_ += other.edges_;
  other = WaitGraph{};
}

} // namespace fluxtrace::query
