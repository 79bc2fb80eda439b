// The paper's attribution procedure (§III-D), implemented once. Every
// analysis path attributes through this kernel: TraceIntegrator (and so
// TraceTable and flxt_report), the query engine's ColumnarTrace,
// RegisterIdMapper, StreamingQuery and OnlineTracer.
//
//   1. pairing — Enter and Leave markers pair per core into item windows
//      (WindowTracker), strictly or, in degraded mode, synthesizing the
//      edges a lossy capture dropped;
//   2. lookup  — a sample belongs to the latest-entered window on its
//      core that covers its timestamp, both edges inclusive; in
//      register-id mode (§V-A) it belongs to the item its id register
//      names instead;
//   3. spans   — per {item, func, core}: the first and last sample time
//      and the sample count. elapsed(item, func) is last − first summed
//      over the cores that hold at least two samples.
//
// Batch paths pair a whole marker stream into a WindowIndex and run
// Attributor over the samples in one pass. Streaming paths feed
// WindowTracker as markers arrive, ask it which window owns a sample, and
// keep per-window spans in FuncSpans; each keeps its own rule for when a
// window is complete.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fluxtrace/base/markers.hpp"
#include "fluxtrace/base/samples.hpp"
#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/core/trace_table.hpp"

namespace fluxtrace::core {

/// A window with its entry stamp `seq`: the position of its Enter (real
/// or synthesized) in its core's marker stream. Stamps order a core's
/// windows by enter time; of two windows entered on the same cycle, the
/// larger stamp is the later-entered one.
struct TrackedWindow {
  ItemWindow w; ///< w.leave is meaningless while open
  std::uint64_t seq = 0;
  bool open = true;
};

/// Per-core Enter/Leave pairing, and sample ownership for drivers that
/// see a trace as it arrives.
///
///   strict   — Enter and Leave pair per core by item id. A Leave with no
///              open Enter of its item makes no window, and neither does
///              an Enter that is never left: still open at the end, or
///              entered again before it left.
///   degraded — one item per core at a time (self-switching), so a
///              surviving edge bounds its lost partner: a lost Leave is
///              closed by the next Enter on the core, a lost Enter opens
///              at the previous edge, and an item still open at the end
///              closes at the core's watermark. Synthesized edges are
///              tagged on the window. Until a core's stream ends, a Leave
///              still to come may thus open a window at the last edge:
///              samples at or after that edge wait for the next marker.
///
/// A core's markers must arrive in time order (ties in arrival order).
/// Per core the tracker keeps, in entry order, every window not retired
/// yet, open ones included.
class WindowTracker {
 public:
  explicit WindowTracker(bool degraded = false) : degraded_(degraded) {}

  /// Feed one marker; windows it closes are appended to `closed`.
  void push(const Marker& m, std::vector<TrackedWindow>& closed);

  /// End of one core's stream: degraded mode closes its open window at
  /// max(enter, watermark); strict mode drops what is still open. No
  /// marker of the core may follow.
  void finish_core(std::uint32_t core, Tsc watermark,
                   std::vector<TrackedWindow>& closed);

  enum class Verdict : std::uint8_t {
    None,     ///< no window covers the sample
    Owned,    ///< *seq names the latest-entered covering window
    Undecided ///< a window that would own it is open, or may yet open
  };
  /// The batch rule applied to the tracked windows: the latest-entered
  /// window entered at or before `tsc` that is open (it covers tsc if it
  /// ever closes) or closed with leave >= tsc. Callers must know that no
  /// marker at or before tsc on the core is still to come.
  [[nodiscard]] Verdict owner(std::uint32_t core, Tsc tsc,
                              std::uint64_t* seq) const;

  /// True when no window entered after the closed window `t`, within its
  /// span, is still open: every sample inside `t` can be decided.
  [[nodiscard]] bool settled(const TrackedWindow& t) const;

  /// Stop tracking a window the driver is done with.
  void retire(std::uint32_t core, std::uint64_t seq);

  [[nodiscard]] std::span<const TrackedWindow> live(std::uint32_t core) const;

  /// Markers that made no window (strict mode).
  [[nodiscard]] std::uint64_t unmatched() const {
    return never_left_ + orphan_leaves_;
  }
  /// Enters never left (strict mode).
  [[nodiscard]] std::uint64_t never_left() const { return never_left_; }
  /// Window edges synthesized (degraded mode).
  [[nodiscard]] std::uint64_t synthesized() const { return synthesized_; }

 private:
  struct Core {
    std::vector<TrackedWindow> live; ///< ascending seq
    std::unordered_map<ItemId, std::uint64_t> open; ///< item -> seq
    Tsc prev_edge = 0;
    std::uint64_t next_seq = 0;
    bool ended = false; ///< finish_core ran
  };

  /// Degraded mode: a Leave still to come, with no Enter open, would
  /// open its window at the core's last edge.
  [[nodiscard]] bool may_open_at_last_edge(const Core& c) const {
    return degraded_ && !c.ended && c.open.empty();
  }

  void close(Core& c, std::uint64_t seq, Tsc leave, std::uint8_t synth,
             std::vector<TrackedWindow>& closed);
  /// A window whose Enter was lost: it was never open, and enters last.
  void add_closed(Core& c, const ItemWindow& w,
                  std::vector<TrackedWindow>& closed);
  static std::vector<TrackedWindow>::iterator find(Core& c,
                                                   std::uint64_t seq);

  bool degraded_;
  std::map<std::uint32_t, Core> cores_;
  std::uint64_t never_left_ = 0;
  std::uint64_t orphan_leaves_ = 0;
  std::uint64_t synthesized_ = 0;
};

/// Every core's item windows from one whole marker stream, with the
/// batch lookup: the latest-entered window on a core that covers a
/// timestamp.
class WindowIndex {
 public:
  /// `markers` in any order: grouped per core and stable-sorted by time,
  /// then paired strictly or, if `degraded`, with the degraded rule;
  /// `watermarks` holds each core's latest sample or loss time, which
  /// closes an item still open at the end.
  explicit WindowIndex(std::span<const Marker> markers, bool degraded = false,
                       const std::map<std::uint32_t, Tsc>& watermarks = {});
  WindowIndex(const WindowIndex&) = delete;
  WindowIndex& operator=(const WindowIndex&) = delete;

  /// Every window, cores ascending, each core's in the order they closed.
  [[nodiscard]] const std::vector<ItemWindow>& windows() const {
    return windows_;
  }

  /// The item of the latest-entered window covering (core, tsc), or
  /// kNoItem.
  [[nodiscard]] ItemId locate(std::uint32_t core, Tsc tsc);

 private:
  /// One core's windows in entry order.
  class CoreWindows {
   public:
    explicit CoreWindows(std::vector<TrackedWindow> ws);

    /// The latest-entered window covering `tsc`, or nullptr. Samples
    /// arrive near-sorted in time, so the window the last call found is
    /// tried first; it is taken only when it provably is the answer (it
    /// holds tsc and the next window enters strictly later).
    const ItemWindow* locate(Tsc tsc) {
      const std::size_t cur = cursor_;
      if (cur < ws_.size() && ws_[cur].enter <= tsc &&
          tsc <= ws_[cur].leave &&
          (cur + 1 == ws_.size() || tsc < ws_[cur + 1].enter)) {
        return &ws_[cur];
      }
      return locate_slow(tsc);
    }

   private:
    const ItemWindow* locate_slow(Tsc tsc);

    std::vector<ItemWindow> ws_;
    std::vector<Tsc> prefix_max_leave_;
    std::size_t cursor_ = 0;
  };

  std::vector<ItemWindow> windows_;
  std::map<std::uint32_t, CoreWindows> by_core_;
  // Samples arrive in per-core runs: the last core looked up.
  CoreWindows* cached_ = nullptr;
  std::uint32_t cached_core_ = 0;
  bool core_cached_ = false;
};

struct IntegratorConfig {
  /// false: map samples to items via marker windows (self-switching
  /// architecture, the paper's main procedure). true: take the item id
  /// from the sampled register (timer-switching extension, §V-A).
  bool use_register_ids = false;

  /// Degraded mode: tolerate a lossy capture pipeline instead of
  /// silently mis-attributing. Markers pair with the degraded rule (the
  /// missing edge is synthesized and the window tagged as reconstructed),
  /// and orphan samples matching no window are salvaged through the id
  /// register when it names an item the markers saw. Every affected item
  /// carries loss accounting in the table (never silently clean).
  bool degraded = false;
};

/// The batch kernel: pairs a whole marker stream into a WindowIndex, then
/// attributes samples one at a time into {item, func} spans.
class Attributor {
 public:
  /// See WindowIndex for `markers` and `watermarks`.
  Attributor(std::span<const Marker> markers, const SymbolTable& symtab,
             IntegratorConfig cfg = {},
             const std::map<std::uint32_t, Tsc>& watermarks = {});

  [[nodiscard]] const std::vector<ItemWindow>& windows() const {
    return index_.windows();
  }

  /// What one sample attributed to. func is resolved even when item is
  /// kNoItem; bucket (in spans()) is -1 unless both are known.
  struct Row {
    ItemId item = kNoItem;
    std::int64_t func = -1;
    std::int32_t bucket = -1;
  };
  /// Attribute one sample. `reg_item` is its id register, read in
  /// register-id mode and by degraded salvage.
  Row add(std::uint32_t core, Tsc tsc, std::uint64_t ip, ItemId reg_item);

  /// A known lost sample: charged to the item whose window covers it.
  void add_loss(std::uint32_t core, Tsc tsc);

  [[nodiscard]] const SpanStore& spans() const { return spans_; }
  [[nodiscard]] SpanStore take_spans() { return std::move(spans_); }

  /// What the pass could not attribute, and the loss accounting.
  struct Counts {
    std::uint64_t unmatched_item = 0;
    std::uint64_t unmatched_symbol = 0;
    std::uint64_t unattributed_loss = 0;
    std::unordered_map<ItemId, std::uint64_t> salvaged; ///< per item
    std::unordered_map<ItemId, std::uint64_t> lost;     ///< per item
  };
  [[nodiscard]] const Counts& counts() const { return counts_; }

  /// Per-core latest sample or loss time, for degraded mode.
  [[nodiscard]] static std::map<std::uint32_t, Tsc> watermarks(
      std::span<const PebsSample> samples, std::span<const SampleLoss> losses);

 private:
  std::int64_t resolve(std::uint64_t ip);

  const SymbolTable& symtab_;
  IntegratorConfig cfg_;
  WindowIndex index_;
  std::unordered_set<ItemId> window_items_; // degraded salvage
  // PEBS ips repeat heavily (hot loops): the last ip resolved.
  std::uint64_t cached_ip_ = ~std::uint64_t{0};
  std::int64_t cached_fn_ = -1;
  SpanStore spans_;
  Counts counts_;
};

/// Step 3 within one window, for the streaming paths: first/last/count
/// per function, ascending by function.
using FuncSpans = std::map<SymbolId, BucketStat>;

} // namespace fluxtrace::core
