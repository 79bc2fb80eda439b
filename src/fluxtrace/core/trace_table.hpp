// The product of the hybrid method: a per-data-item, per-function trace.
// Step 3 of the paper's procedure (§III-D) estimates the elapsed time of
// function f for data-item #M as the span between the first and the last
// PEBS sample in bucket {f, #M}.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fluxtrace/base/markers.hpp"
#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/base/time.hpp"

namespace fluxtrace::core {

/// Sample statistics for one {function, data-item} bucket on one core.
struct BucketStat {
  Tsc first = std::numeric_limits<Tsc>::max();
  Tsc last = 0;
  std::uint64_t samples = 0;

  void add(Tsc t) {
    if (t < first) first = t;
    if (t > last) last = t;
    ++samples;
  }
  friend bool operator==(const BucketStat&, const BucketStat&) = default;
  /// Elapsed-time estimate; needs >= 2 samples (paper §V-B1: a function
  /// shorter than the sample interval cannot be estimated from a trace).
  [[nodiscard]] Tsc elapsed() const { return samples >= 2 ? last - first : 0; }
  [[nodiscard]] bool estimable() const { return samples >= 2; }
};

/// One data-item's residency on one core, delimited by markers. Under
/// degraded integration a lost marker's edge is synthesized (from the
/// next Enter on the core, or the per-core watermark); `synth` records
/// which edges are estimates rather than measurements.
struct ItemWindow {
  ItemId item = kNoItem;
  std::uint32_t core = 0;
  Tsc enter = 0;
  Tsc leave = 0;
  std::uint8_t synth = 0; ///< bitmask of kSynthEnter / kSynthLeave

  static constexpr std::uint8_t kSynthEnter = 1;
  static constexpr std::uint8_t kSynthLeave = 2;

  [[nodiscard]] Tsc length() const { return leave - enter; }
  [[nodiscard]] bool synthesized() const { return synth != 0; }
  friend bool operator==(const ItemWindow&, const ItemWindow&) = default;
};

/// How much an item's estimates can be trusted.
enum class Confidence : std::uint8_t {
  Clean,        ///< complete markers, no known sample loss
  Degraded,     ///< real window, but samples were lost inside it
  Reconstructed ///< at least one window edge was synthesized
};

[[nodiscard]] constexpr std::string_view to_string(Confidence c) {
  switch (c) {
    case Confidence::Clean: return "clean";
    case Confidence::Degraded: return "degraded";
    case Confidence::Reconstructed: return "reconstructed";
  }
  return "?";
}

/// Per-item loss accounting: what the capture pipeline is known to have
/// lost for this item. Estimates for items with a non-Clean confidence
/// must never be presented as exact (ISSUE: flagged, not silently wrong).
struct ItemQuality {
  std::uint64_t samples_lost = 0;       ///< overflows that produced no record
  std::uint32_t markers_synthesized = 0;///< window edges that are estimates
  std::uint64_t samples_salvaged = 0;   ///< orphans re-attributed via R13
  Confidence confidence = Confidence::Clean;

  [[nodiscard]] bool clean() const {
    return confidence == Confidence::Clean;
  }
  friend bool operator==(const ItemQuality&, const ItemQuality&) = default;
};

/// {item, func} buckets of per-core first/last/count spans: what the
/// attribution kernel accumulates, and what TraceTable keeps as it is.
/// Spans never merge across cores (two cores' TSC regions for one item
/// may interleave arbitrarily). Buckets are indexed by open addressing
/// (power-of-two slots, linear probing), so lookups allocate nothing.
class SpanStore {
 public:
  /// One {item, func} bucket; its spans, one per core that sampled it,
  /// chain from `head` through Span::next.
  struct Bucket {
    ItemId item = kNoItem;
    SymbolId fn = kInvalidSymbol;
    std::int32_t head = -1;
  };

  /// Count one sample into bucket {item, fn} (created on first use) on
  /// `core`; returns the bucket.
  std::int32_t add(ItemId item, SymbolId fn, std::uint32_t core, Tsc tsc);
  /// The bucket of {item, fn}, or -1.
  [[nodiscard]] std::int32_t find(ItemId item, SymbolId fn) const;

  [[nodiscard]] std::size_t size() const { return buckets_.size(); }
  [[nodiscard]] const Bucket& bucket(std::int32_t b) const {
    return buckets_[static_cast<std::size_t>(b)];
  }
  /// last − first per core with >= 2 samples, summed over cores.
  [[nodiscard]] Tsc elapsed(std::int32_t b) const;
  /// The bucket's samples over all cores.
  [[nodiscard]] std::uint64_t samples(std::int32_t b) const;
  /// Samples counted into every bucket.
  [[nodiscard]] std::uint64_t total_samples() const { return total_; }

 private:
  struct Span {
    std::uint32_t core = 0;
    std::int32_t next = -1; ///< the bucket's next span, or -1
    BucketStat stat;
  };

  /// The slot holding {item, fn}, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(ItemId item, SymbolId fn) const;
  [[nodiscard]] const Span& span(std::int32_t i) const {
    return spans_[static_cast<std::size_t>(i)];
  }

  std::vector<Bucket> buckets_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> slots_; ///< bucket index, -1 = empty
  std::uint64_t total_ = 0;
};

/// Integration result plus bookkeeping about what could not be attributed.
class TraceTable {
 public:
  TraceTable() = default;
  /// A table over the spans the attribution kernel accumulated.
  explicit TraceTable(SpanStore spans);

  // --- construction (used by TraceIntegrator) -------------------------
  void add_sample(ItemId item, SymbolId fn, std::uint32_t core, Tsc tsc);
  void add_window(const ItemWindow& w);
  void count_unmatched_item(std::uint64_t n = 1) { unmatched_item_ += n; }
  void count_unmatched_symbol(std::uint64_t n = 1) { unmatched_symbol_ += n; }
  void note_sample_lost(ItemId item, std::uint64_t n = 1);
  void note_sample_salvaged(ItemId item, std::uint64_t n = 1);
  void count_unattributed_loss(std::uint64_t n = 1) {
    unattributed_loss_ += n;
  }

  // --- queries ---------------------------------------------------------
  /// Estimated elapsed time of `fn` for `item`, summed over the cores the
  /// pair appeared on. 0 when not estimable.
  [[nodiscard]] Tsc elapsed(ItemId item, SymbolId fn) const;

  /// Samples mapped to {item, fn} across all cores. With a PEBS event of
  /// "cache misses", samples × reset-value approximates the number of
  /// misses the function incurred for the item (paper §V-D).
  [[nodiscard]] std::uint64_t sample_count(ItemId item, SymbolId fn) const;

  /// All items observed (via samples or windows), sorted ascending.
  [[nodiscard]] std::vector<ItemId> items() const;

  /// Functions with at least one sample for `item`, sorted ascending.
  [[nodiscard]] std::vector<SymbolId> functions(ItemId item) const;

  /// Sum of elapsed() over all functions of the item.
  [[nodiscard]] Tsc item_estimated_total(ItemId item) const;

  /// Marker-window length of the item, summed over cores. This is what a
  /// pure-instrumentation (service-level logging) measurement would see.
  [[nodiscard]] Tsc item_window_total(ItemId item) const;

  [[nodiscard]] const std::vector<ItemWindow>& windows() const {
    return windows_;
  }

  /// The item's window on one core, if it crossed that core (first match).
  [[nodiscard]] const ItemWindow* window_of(ItemId item,
                                            std::uint32_t core) const;
  [[nodiscard]] std::uint64_t total_samples() const {
    return spans_.total_samples();
  }
  [[nodiscard]] std::uint64_t unmatched_item() const { return unmatched_item_; }
  [[nodiscard]] std::uint64_t unmatched_symbol() const {
    return unmatched_symbol_;
  }

  // --- loss accounting --------------------------------------------------
  /// Quality of the item's estimates. Items never touched by loss report
  /// the default (Clean) quality.
  [[nodiscard]] const ItemQuality& quality(ItemId item) const;
  /// Items whose confidence is not Clean, sorted ascending.
  [[nodiscard]] std::vector<ItemId> degraded_items() const;
  /// Known lost samples that no item window covered.
  [[nodiscard]] std::uint64_t unattributed_loss() const {
    return unattributed_loss_;
  }
  [[nodiscard]] std::uint64_t windows_synthesized() const {
    return windows_synthesized_;
  }

 private:
  /// Chain a new bucket into its item's list.
  void link(std::int32_t bucket);

  /// Degrade the item's confidence to at least `floor` (Clean <
  /// Degraded < Reconstructed; never upgraded).
  void degrade(ItemId item, Confidence floor);

  SpanStore spans_;
  /// Per item its latest bucket; an item's buckets chain through
  /// next_of_item_ (-1 ends the chain).
  std::unordered_map<ItemId, std::int32_t> item_head_;
  std::vector<std::int32_t> next_of_item_;
  std::vector<ItemWindow> windows_;
  /// Per item the sum of its window lengths, kept as windows are added.
  std::unordered_map<ItemId, Tsc> window_total_;
  std::unordered_map<ItemId, ItemQuality> quality_;
  std::uint64_t unmatched_item_ = 0;
  std::uint64_t unmatched_symbol_ = 0;
  std::uint64_t unattributed_loss_ = 0;
  std::uint64_t windows_synthesized_ = 0;
};

} // namespace fluxtrace::core
