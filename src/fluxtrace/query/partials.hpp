// Commutative aggregate partials — the merge algebra behind every
// count/sum/min/max/p* column (the enabling refactor the ROADMAP calls
// out for live streaming queries).
//
// An AggPartial is a bounded summary of the values one aggregate column
// has seen so far. Its contract is what makes both executors correct:
//
//   observe(a, x₁); observe(a, x₂); …          — fold values in, any order
//   merge(a, other)                            — combine two partials
//   finish(a, count)                           — emit the final cell
//
// observe/merge are commutative and associative (sums wrap through
// uint64 like all query arithmetic; min/max are lattice joins;
// percentiles collect exact values and rank them only at finish), so the
// batch engine can merge per-block partials in block order and get
// bit-identical results regardless of thread count, and the streaming
// executor (stream.hpp) can fold per-window partials into running ones
// and snapshot at any poll with exactly the semantics a cold batch run
// over the same rows would have produced.
//
// WaitGraph, the waiting-dependency graph behind `critical_path` and
// `blocked_by`, keeps the same contract, so a wait stage merges per-block,
// per-trace and streamed partials exactly like a group stage does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "fluxtrace/base/wait.hpp"

namespace fluxtrace::query {

struct Aggregate; // engine.hpp; only Kind/field are consulted here

/// Nearest-rank percentile over a sorted, non-empty vector.
[[nodiscard]] std::int64_t percentile_sorted(
    const std::vector<std::int64_t>& sorted, unsigned p);

/// Per-group accumulator for one aggregate column. Only the slots the
/// aggregate kind uses are touched; sums wrap through uint64 like all
/// query arithmetic, so observe/merge order cannot matter.
struct AggPartial {
  std::uint64_t sum = 0;
  std::int64_t mn = std::numeric_limits<std::int64_t>::max();
  std::int64_t mx = std::numeric_limits<std::int64_t>::min();
  std::vector<std::int64_t> coll; ///< percentile collections

  void observe(const Aggregate& a, std::int64_t v);
  void merge(const Aggregate& a, AggPartial&& other);
  /// Destructive (sorts percentile collections in place): call once, or
  /// on a copy when snapshotting a live stream.
  [[nodiscard]] std::int64_t finish(const Aggregate& a, std::uint64_t count);
};

/// One group's row count plus its aggregate columns, in query order.
struct GroupPartial {
  std::uint64_t count = 0;
  std::vector<AggPartial> aggs;

  void merge(const std::vector<Aggregate>& spec, GroupPartial&& other);
};

/// A group stage's partial: one GroupPartial per key tuple.
using GroupMap = std::map<std::vector<std::int64_t>, GroupPartial>;

/// Merge `from` into `into`: keys new to `into` move over as they are,
/// shared keys merge through GroupPartial::merge.
void merge_groups(GroupMap& into, GroupMap&& from,
                  const std::vector<Aggregate>& spec);

/// One blocker identity: who was being waited on, and why.
struct WaitKey {
  std::uint8_t cause = 0; ///< WaitCause as stored (defines sort order)
  std::uint32_t resource = 0;
  std::uint32_t holder = 0;

  friend auto operator<=>(const WaitKey&, const WaitKey&) = default;
};

/// Aggregate blocking attributed to one blocker.
struct BlockerAgg {
  std::uint64_t edges = 0;
  std::uint64_t blocked = 0; ///< summed edge durations
  std::uint64_t max = 0;     ///< longest single episode
};

/// Per-item partial: the raw blocking intervals (unioned at finish) and
/// the per-blocker attribution used to name the dominant blocker.
struct ItemWait {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  std::map<WaitKey, std::uint64_t> by_blocker;
  std::uint64_t edges = 0;
};

/// Mergeable waiting-dependency graph partial. observe() folds one edge,
/// merge() combines two partials; both are order-insensitive up to the
/// finish functions (waitgraph.hpp), which sort internally. Items are
/// keyed by the edge's ItemId cast to signed (kNoItem groups under -1:
/// ring-empty and session episodes are real blocking but not bound to
/// one item).
class WaitGraph {
 public:
  void observe(const WaitEdge& e);
  void merge(WaitGraph&& other);

  [[nodiscard]] std::uint64_t edges() const { return edges_; }

  std::map<std::int64_t, ItemWait> items;
  std::map<WaitKey, BlockerAgg> blockers;

 private:
  std::uint64_t edges_ = 0;
};

} // namespace fluxtrace::query
