#include "fluxtrace/core/online.hpp"

#include <algorithm>
#include <limits>

#include "fluxtrace/obs/metrics.hpp"

namespace fluxtrace::core {

namespace {

// Self-telemetry (ISSUE 3): the streaming tracer's health at a glance —
// how many items finalized (and how degraded), how big their windows run,
// and how much the capture side is known to have lost.
struct OnlineMetrics {
  obs::Counter& items = obs::metrics().counter("core.online.items");
  obs::Counter& degraded = obs::metrics().counter("core.online.degraded");
  obs::Counter& dumps = obs::metrics().counter("core.online.dumps");
  obs::Counter& lost = obs::metrics().counter("core.online.samples_lost");
  obs::Histogram& window =
      obs::metrics().histogram("core.online.window_cycles");
  obs::Histogram& per_item =
      obs::metrics().histogram("core.online.samples_per_item");

  static OnlineMetrics& get() {
    static OnlineMetrics m;
    return m;
  }
};

/// Insert into a deque kept ascending by tsc (arrivals are near-sorted,
/// so this is almost always an append).
template <class T>
void insert_by_tsc(std::deque<T>& q, const T& x) {
  auto pos = q.end();
  while (pos != q.begin() && std::prev(pos)->tsc > x.tsc) --pos;
  q.insert(pos, x);
}

/// The first record at or after `t` in a deque kept ascending by tsc.
template <class Q>
auto first_at(Q& q, Tsc t) {
  return std::lower_bound(q.begin(), q.end(), t,
                          [](const auto& x, Tsc v) { return x.tsc < v; });
}

} // namespace

OnlineTracer::OnlineTracer(const SymbolTable& symtab, OnlineTracerConfig cfg)
    : symtab_(symtab),
      cfg_(cfg),
      detector_(cfg.detector),
      tracker_(cfg.synthesize_markers) {}

void OnlineTracer::on_marker(const Marker& m) {
  CoreState& cs = cores_[m.core];
  const std::size_t n_closed = cs.closed.size();
  const std::uint64_t never_left = tracker_.never_left();
  tracker_.push(m, cs.closed);
  cs.running_since = m.kind == MarkerKind::Enter ? std::optional<Tsc>(m.tsc)
                                                 : std::nullopt;
  if (m.kind == MarkerKind::Enter) check_backlog(m.core, cs);
  // Samples held for a window that just closed, or that will now never
  // close, can be placed: re-check those at or after its enter. Under
  // degraded pairing any marker decides the samples held for a window a
  // lost Enter might open at the previous edge.
  Tsc from = tracker_.never_left() != never_left || cfg_.synthesize_markers
                 ? 0
                 : std::numeric_limits<Tsc>::max();
  for (std::size_t i = n_closed; i < cs.closed.size(); ++i) {
    from = std::min(from, cs.closed[i].w.enter);
  }
  place_held(cs, from);
}

bool OnlineTracer::owner(std::uint32_t core, Tsc tsc, Pending** out) {
  std::uint64_t seq = 0;
  const WindowTracker::Verdict v = tracker_.owner(core, tsc, &seq);
  if (v == WindowTracker::Verdict::Undecided) return false;
  *out = v == WindowTracker::Verdict::Owned ? &cores_[core].pending[seq]
                                            : nullptr;
  return true;
}

bool OnlineTracer::place(const PebsSample& s) {
  Pending* p = nullptr;
  if (!owner(s.core, s.tsc, &p)) return false;
  if (p != nullptr) {
    p->raw.push_back(s);
  } else {
    ++unmatched_; // between windows, or its window already finalized
  }
  return true;
}

bool OnlineTracer::place(const SampleLoss& l) {
  Pending* p = nullptr;
  if (!owner(l.core, l.tsc, &p)) return false;
  if (p != nullptr) {
    ++p->lost;
  } else {
    ++losses_unattributed_; // between windows, or item already finalized
  }
  return true;
}

void OnlineTracer::place_held(CoreState& cs, Tsc from) {
  const auto replace = [this, from](auto& held) {
    held.erase(std::remove_if(first_at(held, from), held.end(),
                              [this](const auto& x) { return place(x); }),
               held.end());
  };
  replace(cs.held);
  replace(cs.held_losses);
}

void OnlineTracer::on_sample(const PebsSample& s) {
  ++samples_seen_;
  CoreState& cs = cores_[s.core];
  cs.end_watermark = std::max(cs.end_watermark, s.tsc);

  // The watermark proves older items complete: no further sample at or
  // below their leave can arrive on this core.
  finalize_ready(s.core, cs, s.tsc);
  if (!place(s)) {
    insert_by_tsc(cs.held, s);
    check_backlog(s.core, cs);
  }
}

void OnlineTracer::on_sample_lost(const SampleLoss& l) {
  ++samples_lost_;
  OnlineMetrics::get().lost.inc();
  CoreState& cs = cores_[l.core];
  cs.end_watermark = std::max(cs.end_watermark, l.tsc);
  if (!place(l)) {
    insert_by_tsc(cs.held_losses, l);
    check_backlog(l.core, cs);
  }
}

void OnlineTracer::check_backlog(std::uint32_t core, CoreState& cs) {
  if (cfg_.shed_backlog == 0) return;
  const std::size_t n = backlog(core);
  if (n >= cfg_.shed_backlog) {
    if (cs.shed_armed) {
      cs.shed_armed = false;
      ++shed_events_;
      if (shed_) shed_(core, n);
    }
  } else if (n <= cfg_.shed_backlog / 2) {
    cs.shed_armed = true; // backlog drained; re-arm the trigger
  }
}

std::size_t OnlineTracer::backlog(std::uint32_t core) const {
  const std::size_t windows = tracker_.live(core).size();
  const auto it = cores_.find(core);
  if (it == cores_.end()) return windows;
  // Held samples and losses count too, except those of the item running
  // now: the rest wait on a Leave the markers have gone past (an Enter
  // that may never be left), and pile up for as long as it stays open.
  const CoreState& cs = it->second;
  const Tsc cut = cs.running_since.value_or(std::numeric_limits<Tsc>::max());
  return windows +
         static_cast<std::size_t>(first_at(cs.held, cut) - cs.held.begin()) +
         static_cast<std::size_t>(first_at(cs.held_losses, cut) -
                                  cs.held_losses.begin());
}

std::size_t OnlineTracer::max_backlog() const {
  std::size_t worst = 0;
  for (const auto& [core, cs] : cores_) worst = std::max(worst, backlog(core));
  return worst;
}

void OnlineTracer::finalize_ready(std::uint32_t core, CoreState& cs,
                                  Tsc watermark) {
  // A sample or loss still held inside a window may yet be its own.
  const auto holds = [&cs](const ItemWindow& w) {
    const auto within = [&w](const auto& held) {
      const auto it = first_at(held, w.enter);
      return it != held.end() && it->tsc <= w.leave;
    };
    return within(cs.held) || within(cs.held_losses);
  };
  for (auto it = cs.closed.begin(); it != cs.closed.end();) {
    if (it->w.leave >= watermark || !tracker_.settled(*it) || holds(it->w)) {
      ++it;
      continue;
    }
    const TrackedWindow t = *it;
    it = cs.closed.erase(it);
    Pending p;
    if (const auto pit = cs.pending.find(t.seq); pit != cs.pending.end()) {
      p = std::move(pit->second);
      cs.pending.erase(pit);
    }
    tracker_.retire(core, t.seq);
    finalize(t, std::move(p));
  }
}

void OnlineTracer::finalize(const TrackedWindow& t, Pending&& p) {
  OnlineResult res;
  res.item = t.w.item;
  res.core = t.w.core;
  res.window = t.w.length();
  res.enter = t.w.enter;
  res.leave = t.w.leave;
  res.samples_lost = p.lost;
  res.markers_synthesized = static_cast<std::uint32_t>(
      ((t.w.synth & ItemWindow::kSynthEnter) != 0 ? 1 : 0) +
      ((t.w.synth & ItemWindow::kSynthLeave) != 0 ? 1 : 0));
  if (t.w.synthesized()) {
    res.confidence = Confidence::Reconstructed;
  } else if (p.lost > 0) {
    res.confidence = Confidence::Degraded;
  }

  // Per-function first/last spans from this window's raw samples.
  FuncSpans spans;
  for (const PebsSample& s : p.raw) {
    const auto fn = symtab_.resolve(s.ip);
    if (fn.has_value()) spans[*fn].add(s.tsc);
  }
  for (const auto& [fn, st] : spans) {
    if (st.estimable()) res.fn_elapsed.emplace_back(fn, st.elapsed());
  }

  // Online statistics: flag if any function (or the whole window)
  // deviates from its running distribution.
  bool flagged = false;
  for (const auto& [fn, elapsed] : res.fn_elapsed) {
    flagged |= detector_.observe(res.item, fn, elapsed);
  }
  if (cfg_.track_window_metric) {
    flagged |= detector_.observe(res.item, kWindowMetric, res.window);
  }
  res.anomalous = flagged;

  if (flagged) {
    ++dumps_;
    bytes_dumped_ += p.raw.size() * kPebsRecordBytes;
    OnlineMetrics::get().dumps.inc();
    if (dump_) dump_(res, p.raw);
  }

  ++completed_;
  OnlineMetrics& om = OnlineMetrics::get();
  om.items.inc();
  if (res.confidence != Confidence::Clean) om.degraded.inc();
  om.window.observe(res.window);
  om.per_item.observe(p.raw.size());
  if (cfg_.keep_results > 0) {
    results_.push_back(std::move(res));
    while (results_.size() > cfg_.keep_results) results_.pop_front();
  }
}

void OnlineTracer::finish() {
  for (auto& [core, cs] : cores_) {
    // Degraded pairing closes a still-open item at the core's watermark
    // (nothing later can belong to it); strict pairing drops it.
    tracker_.finish_core(core, cs.end_watermark, cs.closed);
    place_held(cs, 0);
    finalize_ready(core, cs, std::numeric_limits<Tsc>::max());
  }
}

} // namespace fluxtrace::core
