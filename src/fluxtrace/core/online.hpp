// Online trace processing — the cost-amortization idea of §IV-C3 made
// concrete: instead of dumping the 100s-of-MB/s raw PEBS stream to
// storage continuously, estimate each function's elapsed time per
// data-item *as the streams arrive*, keep the raw samples only in a
// short-lived in-memory window, and persist them solely for the items an
// online detector flags as fluctuating.
//
// Input model (matching the real system): per core, markers arrive in
// time order at marking time; samples arrive in time order but delayed in
// batches (they reach software when a PEBS buffer is drained), so when a
// sample arrives every marker at or before it on its core has arrived.
// Markers pair and samples attribute through the attribution kernel
// (attribution.hpp) with the batch rule: a sample belongs to the latest-
// entered window covering it. A sample inside a window that is still
// open waits for that window's fate (its Leave, or the end of the
// stream); under degraded pairing, so does a sample at or after the core's
// last marker while no item is open, which a Leave with a lost Enter may
// yet claim. An item is finalized once a later sample on its core proves
// no more of its samples can arrive.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fluxtrace/base/markers.hpp"
#include "fluxtrace/base/samples.hpp"
#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/core/attribution.hpp"
#include "fluxtrace/core/detector.hpp"
#include "fluxtrace/core/trace_table.hpp"

namespace fluxtrace::core {

/// Per-item output of the online pipeline.
struct OnlineResult {
  ItemId item = kNoItem;
  std::uint32_t core = 0;
  Tsc window = 0; ///< marker-window length
  Tsc enter = 0;  ///< absolute item bounds — lets a spooler (the session
  Tsc leave = 0;  ///< supervisor) re-emit the item's markers alongside it
  /// Estimable functions (>= 2 samples) with their elapsed estimates.
  std::vector<std::pair<SymbolId, Tsc>> fn_elapsed;
  bool anomalous = false;

  // Loss accounting (degraded mode): estimates for a non-Clean item are
  // flagged, never presented as exact.
  std::uint64_t samples_lost = 0;        ///< losses inside this item's window
  std::uint32_t markers_synthesized = 0; ///< window edges that are estimates
  Confidence confidence = Confidence::Clean;

  [[nodiscard]] Tsc elapsed(SymbolId fn) const {
    for (const auto& [f, t] : fn_elapsed) {
      if (f == fn) return t;
    }
    return 0;
  }
  [[nodiscard]] bool degraded() const {
    return confidence != Confidence::Clean;
  }
};

struct OnlineTracerConfig {
  DetectorConfig detector{};
  /// Keep the most recent N finalized results queryable (0 = keep none).
  std::size_t keep_results = 64;
  /// Also feed the whole-item window length to the detector (under the
  /// pseudo-symbol kWindowMetric), so items fluctuate even when no single
  /// function collects two samples.
  bool track_window_metric = true;
  /// Degraded mode: pair markers with the kernel's degraded rule instead
  /// of the strict one — a lost Leave is synthesized at the next Enter on
  /// the core, a lost Enter at the previous marker edge, and an item still
  /// open at finish() closes at the core's sample watermark. Synthesized
  /// items are finalized with a Reconstructed confidence.
  bool synthesize_markers = false;
  /// Load shedding: when a core's backlog (see backlog()) reaches this
  /// many (drains falling behind markers, or samples piling up behind an
  /// Enter never left), invoke the shed callback — wire it to
  /// AdaptiveReset::nudge to raise R. 0 = off.
  std::size_t shed_backlog = 0;
};

class OnlineTracer {
 public:
  /// Pseudo-symbol id under which whole-item window lengths are tracked.
  static constexpr SymbolId kWindowMetric = 0xfffffffeu;

  explicit OnlineTracer(const SymbolTable& symtab,
                        OnlineTracerConfig cfg = {});

  // --- streaming inputs -------------------------------------------------
  void on_marker(const Marker& m);
  void on_sample(const PebsSample& s);
  /// Streaming loss accounting: a known lost sample (drain disarm window,
  /// injected fault) is attributed to the pending item covering its
  /// timestamp (wire sim::PebsDriver::set_loss_sink here).
  void on_sample_lost(const SampleLoss& l);
  /// Finalize everything still pending (end of run).
  void finish();

  /// Called for every finalized item whose statistics the detector
  /// flagged; receives the item's raw samples — the data a deployment
  /// would persist for offline analysis.
  using DumpFn = std::function<void(const OnlineResult&, const SampleVec&)>;
  void set_dump_callback(DumpFn fn) { dump_ = std::move(fn); }

  /// Called when a core's backlog crosses cfg.shed_backlog (re-armed
  /// after it falls to half the threshold). The receiver is expected to
  /// shed load, e.g. AdaptiveReset::nudge(2.0) to halve the sample rate.
  using ShedFn = std::function<void(std::uint32_t core, std::size_t backlog)>;
  void set_shed_callback(ShedFn fn) { shed_ = std::move(fn); }

  // --- observability -----------------------------------------------------
  [[nodiscard]] const FluctuationDetector& detector() const {
    return detector_;
  }
  [[nodiscard]] std::uint64_t items_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t dumps() const { return dumps_; }
  [[nodiscard]] std::uint64_t samples_seen() const { return samples_seen_; }
  [[nodiscard]] std::uint64_t samples_unmatched() const { return unmatched_; }
  /// Markers that made no window (strict pairing).
  [[nodiscard]] std::uint64_t markers_dropped() const {
    return tracker_.unmatched();
  }
  /// Window edges synthesized (degraded pairing).
  [[nodiscard]] std::uint64_t markers_synthesized() const {
    return tracker_.synthesized();
  }
  [[nodiscard]] std::uint64_t samples_lost() const { return samples_lost_; }
  [[nodiscard]] std::uint64_t losses_unattributed() const {
    return losses_unattributed_;
  }
  [[nodiscard]] std::uint64_t shed_events() const { return shed_events_; }
  /// Current backlog on one core: the windows still tracked (drain lag
  /// indicator), plus the samples and losses held for an open window
  /// other than the item running now (an Enter whose Leave may never
  /// come, or, degraded, a window a lost Enter may yet open).
  [[nodiscard]] std::size_t backlog(std::uint32_t core) const;
  /// Largest per-core backlog right now (the watchdog's pressure signal).
  [[nodiscard]] std::size_t max_backlog() const;
  /// Raw bytes persisted via the dump callback vs bytes seen in total —
  /// the amortization ratio §IV-C3 argues for.
  [[nodiscard]] std::uint64_t bytes_dumped() const {
    return bytes_dumped_;
  }
  [[nodiscard]] std::uint64_t bytes_seen() const {
    return samples_seen_ * kPebsRecordBytes;
  }
  /// The most recent finalized results (up to cfg.keep_results).
  [[nodiscard]] const std::deque<OnlineResult>& recent() const {
    return results_;
  }

 private:
  /// What a tracked window has collected so far.
  struct Pending {
    SampleVec raw;
    std::uint64_t lost = 0; ///< known losses inside the window
  };

  struct CoreState {
    std::unordered_map<std::uint64_t, Pending> pending; ///< by window seq
    std::vector<TrackedWindow> closed; ///< closed, not yet finalized
    std::deque<PebsSample> held;    ///< ascending tsc; an open window
    std::deque<SampleLoss> held_losses; ///< may own them
    /// The latest marker's time when it is an Enter: the item running.
    std::optional<Tsc> running_since;
    Tsc end_watermark = 0;          ///< latest sample or loss time
    bool shed_armed = true;         ///< backlog-threshold edge trigger
  };

  /// The window owning a sample or loss at (core, tsc), or nullptr when
  /// none covers it; false while a window that would own it is open.
  bool owner(std::uint32_t core, Tsc tsc, Pending** out);
  /// Give a sample or loss to its owner; false while it must be held.
  bool place(const PebsSample& s);
  bool place(const SampleLoss& l);
  /// Re-place the held samples and losses at or after `from`.
  void place_held(CoreState& cs, Tsc from);
  /// Finalize every closed window complete before `watermark`: a later
  /// sample on the core, no open window holding it back, and nothing
  /// held inside it.
  void finalize_ready(std::uint32_t core, CoreState& cs, Tsc watermark);
  void finalize(const TrackedWindow& t, Pending&& p);
  void check_backlog(std::uint32_t core, CoreState& cs);

  const SymbolTable& symtab_;
  OnlineTracerConfig cfg_;
  FluctuationDetector detector_;
  WindowTracker tracker_;
  std::map<std::uint32_t, CoreState> cores_;
  DumpFn dump_;
  ShedFn shed_;
  std::deque<OnlineResult> results_;
  std::uint64_t completed_ = 0;
  std::uint64_t dumps_ = 0;
  std::uint64_t samples_seen_ = 0;
  std::uint64_t unmatched_ = 0;
  std::uint64_t samples_lost_ = 0;
  std::uint64_t losses_unattributed_ = 0;
  std::uint64_t shed_events_ = 0;
  std::uint64_t bytes_dumped_ = 0;
};

} // namespace fluxtrace::core
