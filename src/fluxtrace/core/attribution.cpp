#include "fluxtrace/core/attribution.hpp"

#include <algorithm>

namespace fluxtrace::core {

// --- WindowTracker ---------------------------------------------------------

std::vector<TrackedWindow>::iterator WindowTracker::find(Core& c,
                                                         std::uint64_t seq) {
  const auto it = std::lower_bound(
      c.live.begin(), c.live.end(), seq,
      [](const TrackedWindow& t, std::uint64_t s) { return t.seq < s; });
  return it != c.live.end() && it->seq == seq ? it : c.live.end();
}

void WindowTracker::close(Core& c, std::uint64_t seq, Tsc leave,
                          std::uint8_t synth,
                          std::vector<TrackedWindow>& closed) {
  const auto it = find(c, seq);
  it->w.leave = leave;
  it->w.synth = static_cast<std::uint8_t>(it->w.synth | synth);
  it->open = false;
  c.open.erase(it->w.item);
  if ((synth & ItemWindow::kSynthLeave) != 0) ++synthesized_;
  closed.push_back(*it);
}

void WindowTracker::add_closed(Core& c, const ItemWindow& w,
                               std::vector<TrackedWindow>& closed) {
  ++synthesized_; // the lost Enter
  c.live.push_back(TrackedWindow{w, c.next_seq - 1, false});
  closed.push_back(c.live.back());
}

void WindowTracker::push(const Marker& m, std::vector<TrackedWindow>& closed) {
  Core& c = cores_[m.core];
  const std::uint64_t seq = c.next_seq++;
  const auto open = c.open.find(m.item);
  if (m.kind == MarkerKind::Enter) {
    if (!degraded_ && open != c.open.end()) {
      // Entered again before it left: the earlier Enter is never left.
      ++never_left_;
      c.live.erase(find(c, open->second));
    } else if (degraded_ && !c.open.empty()) {
      // The open item's Leave was lost: it was gone before this Enter.
      close(c, c.open.begin()->second, m.tsc, ItemWindow::kSynthLeave,
            closed);
    }
    c.live.push_back(
        TrackedWindow{ItemWindow{m.item, m.core, m.tsc, m.tsc, 0}, seq, true});
    c.open[m.item] = seq;
  } else if (open != c.open.end()) {
    close(c, open->second, m.tsc, 0, closed);
  } else if (!degraded_) {
    ++orphan_leaves_; // a Leave without an open Enter
  } else if (!c.open.empty()) {
    // Two losses at once (the open item's Leave and this item's Enter):
    // both items get the joint span, tagged on the lost edges.
    const Tsc enter = find(c, c.open.begin()->second)->w.enter;
    close(c, c.open.begin()->second, m.tsc, ItemWindow::kSynthLeave, closed);
    add_closed(c,
               ItemWindow{m.item, m.core, enter, m.tsc, ItemWindow::kSynthEnter},
               closed);
  } else {
    // A Leave whose Enter was lost: it started after the previous edge.
    add_closed(c,
               ItemWindow{m.item, m.core, c.prev_edge, m.tsc,
                          ItemWindow::kSynthEnter},
               closed);
  }
  c.prev_edge = m.tsc;
}

void WindowTracker::finish_core(std::uint32_t core, Tsc watermark,
                                std::vector<TrackedWindow>& closed) {
  Core& c = cores_[core];
  c.ended = true;
  while (!c.open.empty()) {
    const std::uint64_t seq = c.open.begin()->second;
    if (degraded_) {
      // Nothing after the watermark can belong to the open item.
      const Tsc enter = find(c, seq)->w.enter;
      close(c, seq, std::max(watermark, enter), ItemWindow::kSynthLeave,
            closed);
    } else {
      ++never_left_;
      c.live.erase(find(c, seq));
      c.open.erase(c.open.begin());
    }
  }
}

WindowTracker::Verdict WindowTracker::owner(std::uint32_t core, Tsc tsc,
                                            std::uint64_t* seq) const {
  static const Core kUnseen;
  const auto cit = cores_.find(core);
  const Core& c = cit != cores_.end() ? cit->second : kUnseen;
  if (may_open_at_last_edge(c) && tsc >= c.prev_edge) {
    return Verdict::Undecided; // that window would enter last
  }
  const std::vector<TrackedWindow>& ws = c.live;
  // Entry order is enter-time order: walk back from the last window
  // entered at or before tsc.
  auto it = std::upper_bound(
      ws.begin(), ws.end(), tsc,
      [](Tsc t, const TrackedWindow& x) { return t < x.w.enter; });
  while (it != ws.begin()) {
    --it;
    if (it->open) return Verdict::Undecided;
    if (tsc <= it->w.leave) {
      *seq = it->seq;
      return Verdict::Owned;
    }
  }
  return Verdict::None;
}

bool WindowTracker::settled(const TrackedWindow& t) const {
  const auto cit = cores_.find(t.w.core);
  if (cit == cores_.end()) return true;
  const std::vector<TrackedWindow>& ws = cit->second.live;
  auto it = std::upper_bound(
      ws.begin(), ws.end(), t.seq,
      [](std::uint64_t s, const TrackedWindow& x) { return s < x.seq; });
  for (; it != ws.end() && it->w.enter <= t.w.leave; ++it) {
    if (it->open) return false;
  }
  return true;
}

void WindowTracker::retire(std::uint32_t core, std::uint64_t seq) {
  Core& c = cores_[core];
  const auto it = find(c, seq);
  if (it != c.live.end()) c.live.erase(it);
}

std::span<const TrackedWindow> WindowTracker::live(std::uint32_t core) const {
  const auto it = cores_.find(core);
  if (it == cores_.end()) return {};
  return it->second.live;
}

// --- WindowIndex -------------------------------------------------------------

WindowIndex::CoreWindows::CoreWindows(std::vector<TrackedWindow> ws) {
  std::sort(ws.begin(), ws.end(),
            [](const TrackedWindow& a, const TrackedWindow& b) {
              return a.seq < b.seq;
            });
  Tsc running = 0;
  for (const TrackedWindow& t : ws) {
    ws_.push_back(t.w);
    running = std::max(running, t.w.leave);
    prefix_max_leave_.push_back(running);
  }
}

const ItemWindow* WindowIndex::CoreWindows::locate_slow(Tsc tsc) {
  // Walk back from the last window entered at or before tsc; the prefix
  // maximum of leave edges stops the walk as soon as no earlier window
  // can still cover tsc (one probe when windows are disjoint).
  auto it = std::upper_bound(
      ws_.begin(), ws_.end(), tsc,
      [](Tsc t, const ItemWindow& w) { return t < w.enter; });
  while (it != ws_.begin()) {
    const std::size_t i = static_cast<std::size_t>(it - ws_.begin()) - 1;
    if (prefix_max_leave_[i] < tsc) break;
    --it;
    if (tsc <= it->leave) {
      cursor_ = i;
      return &*it;
    }
  }
  return nullptr;
}

WindowIndex::WindowIndex(std::span<const Marker> markers, bool degraded,
                         const std::map<std::uint32_t, Tsc>& watermarks) {
  std::map<std::uint32_t, std::vector<Marker>> per_core;
  for (const Marker& m : markers) per_core[m.core].push_back(m);

  WindowTracker tracker(degraded);
  std::vector<TrackedWindow> closed;
  for (auto& [core, ms] : per_core) {
    std::stable_sort(ms.begin(), ms.end(),
                     [](const Marker& a, const Marker& b) {
                       return a.tsc < b.tsc;
                     });
    closed.clear();
    for (const Marker& m : ms) {
      const std::size_t from = closed.size();
      tracker.push(m, closed);
      for (std::size_t i = from; i < closed.size(); ++i) {
        tracker.retire(core, closed[i].seq);
      }
    }
    const auto wit = watermarks.find(core);
    tracker.finish_core(core, wit != watermarks.end() ? wit->second : 0,
                        closed);
    if (closed.empty()) continue;
    for (const TrackedWindow& t : closed) windows_.push_back(t.w);
    by_core_.emplace(core, CoreWindows(closed));
  }
}

ItemId WindowIndex::locate(std::uint32_t core, Tsc tsc) {
  if (!core_cached_ || core != cached_core_) {
    const auto it = by_core_.find(core);
    cached_ = it != by_core_.end() ? &it->second : nullptr;
    cached_core_ = core;
    core_cached_ = true;
  }
  const ItemWindow* w = cached_ != nullptr ? cached_->locate(tsc) : nullptr;
  return w != nullptr ? w->item : kNoItem;
}

// --- Attributor ------------------------------------------------------------

Attributor::Attributor(std::span<const Marker> markers,
                       const SymbolTable& symtab, IntegratorConfig cfg,
                       const std::map<std::uint32_t, Tsc>& watermarks)
    : symtab_(symtab), cfg_(cfg), index_(markers, cfg.degraded, watermarks) {
  if (cfg.degraded) {
    for (const ItemWindow& w : index_.windows()) window_items_.insert(w.item);
  }
}

std::map<std::uint32_t, Tsc> Attributor::watermarks(
    std::span<const PebsSample> samples, std::span<const SampleLoss> losses) {
  std::map<std::uint32_t, Tsc> wm;
  for (const PebsSample& s : samples) wm[s.core] = std::max(wm[s.core], s.tsc);
  for (const SampleLoss& l : losses) wm[l.core] = std::max(wm[l.core], l.tsc);
  return wm;
}

std::int64_t Attributor::resolve(std::uint64_t ip) {
  // The initial key ~0 is no symbol's ip (bounds are exclusive), so it
  // never hits by accident.
  if (ip != cached_ip_) {
    const auto r = symtab_.resolve(ip);
    cached_ip_ = ip;
    cached_fn_ = r.has_value() ? static_cast<std::int64_t>(*r) : -1;
  }
  return cached_fn_;
}

Attributor::Row Attributor::add(std::uint32_t core, Tsc tsc, std::uint64_t ip,
                                ItemId reg_item) {
  Row row;
  row.func = resolve(ip);
  if (cfg_.use_register_ids) {
    row.item = reg_item;
  } else {
    row.item = index_.locate(core, tsc);
    if (row.item == kNoItem && cfg_.degraded && reg_item != kNoItem &&
        window_items_.count(reg_item) != 0) {
      // Orphan salvage: the id register names an item the markers saw.
      row.item = reg_item;
      ++counts_.salvaged[reg_item];
    }
  }
  if (row.item == kNoItem) {
    ++counts_.unmatched_item;
  } else if (row.func < 0) {
    ++counts_.unmatched_symbol;
  } else {
    row.bucket =
        spans_.add(row.item, static_cast<SymbolId>(row.func), core, tsc);
  }
  return row;
}

void Attributor::add_loss(std::uint32_t core, Tsc tsc) {
  const ItemId item = index_.locate(core, tsc);
  if (item != kNoItem) {
    ++counts_.lost[item];
  } else {
    ++counts_.unattributed_loss;
  }
}

} // namespace fluxtrace::core
