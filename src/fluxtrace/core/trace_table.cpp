#include "fluxtrace/core/trace_table.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace fluxtrace::core {

// --- SpanStore ---------------------------------------------------------------

std::size_t SpanStore::probe(ItemId item, SymbolId fn) const {
  std::uint64_t h = item * 0x9e3779b97f4a7c15ull ^ fn;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 32;
  const std::size_t mask = slots_.size() - 1;
  for (;; ++h) {
    const std::int32_t b = slots_[h & mask];
    if (b < 0 || (bucket(b).item == item && bucket(b).fn == fn)) {
      return h & mask;
    }
  }
}

std::int32_t SpanStore::find(ItemId item, SymbolId fn) const {
  return slots_.empty() ? -1 : slots_[probe(item, fn)];
}

std::int32_t SpanStore::add(ItemId item, SymbolId fn, std::uint32_t core,
                            Tsc tsc) {
  if (buckets_.size() * 2 >= slots_.size()) {
    // Keep the load under one half: grow, then re-index.
    slots_.assign(std::max<std::size_t>(64, slots_.size() * 2), -1);
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      slots_[probe(buckets_[b].item, buckets_[b].fn)] =
          static_cast<std::int32_t>(b);
    }
  }
  std::int32_t& slot = slots_[probe(item, fn)];
  if (slot < 0) {
    slot = static_cast<std::int32_t>(buckets_.size());
    buckets_.push_back(Bucket{item, fn, -1});
  }
  std::int32_t& head = buckets_[static_cast<std::size_t>(slot)].head;
  std::int32_t si = head;
  while (si >= 0 && span(si).core != core) si = span(si).next;
  if (si < 0) {
    si = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{core, head, {}});
    head = si;
  }
  spans_[static_cast<std::size_t>(si)].stat.add(tsc);
  ++total_;
  return slot;
}

Tsc SpanStore::elapsed(std::int32_t b) const {
  Tsc sum = 0;
  for (std::int32_t i = bucket(b).head; i >= 0; i = span(i).next) {
    sum += span(i).stat.elapsed();
  }
  return sum;
}

std::uint64_t SpanStore::samples(std::int32_t b) const {
  std::uint64_t n = 0;
  for (std::int32_t i = bucket(b).head; i >= 0; i = span(i).next) {
    n += span(i).stat.samples;
  }
  return n;
}

// --- TraceTable --------------------------------------------------------------

TraceTable::TraceTable(SpanStore spans) : spans_(std::move(spans)) {
  for (std::size_t b = 0; b < spans_.size(); ++b) {
    link(static_cast<std::int32_t>(b));
  }
}

void TraceTable::link(std::int32_t bucket) {
  const ItemId item = spans_.bucket(bucket).item;
  const auto [it, fresh] = item_head_.try_emplace(item, bucket);
  next_of_item_.push_back(fresh ? -1 : it->second);
  it->second = bucket;
}

void TraceTable::add_sample(ItemId item, SymbolId fn, std::uint32_t core,
                            Tsc tsc) {
  const std::int32_t b = spans_.add(item, fn, core, tsc);
  if (static_cast<std::size_t>(b) == next_of_item_.size()) link(b);
}

void TraceTable::add_window(const ItemWindow& w) {
  windows_.push_back(w);
  window_total_[w.item] += w.length();
  if (w.synthesized()) {
    ++windows_synthesized_;
    ItemQuality& q = quality_[w.item];
    q.markers_synthesized += static_cast<std::uint32_t>(
        (w.synth & ItemWindow::kSynthEnter ? 1 : 0) +
        (w.synth & ItemWindow::kSynthLeave ? 1 : 0));
    degrade(w.item, Confidence::Reconstructed);
  }
}

void TraceTable::note_sample_lost(ItemId item, std::uint64_t n) {
  quality_[item].samples_lost += n;
  degrade(item, Confidence::Degraded);
}

void TraceTable::note_sample_salvaged(ItemId item, std::uint64_t n) {
  quality_[item].samples_salvaged += n;
  degrade(item, Confidence::Degraded);
}

void TraceTable::degrade(ItemId item, Confidence floor) {
  ItemQuality& q = quality_[item];
  if (static_cast<std::uint8_t>(q.confidence) <
      static_cast<std::uint8_t>(floor)) {
    q.confidence = floor;
  }
}

const ItemQuality& TraceTable::quality(ItemId item) const {
  static const ItemQuality kClean{};
  auto it = quality_.find(item);
  return it == quality_.end() ? kClean : it->second;
}

std::vector<ItemId> TraceTable::degraded_items() const {
  std::set<ItemId> ids;
  for (const auto& [item, q] : quality_) {
    if (!q.clean()) ids.insert(item);
  }
  return {ids.begin(), ids.end()};
}

Tsc TraceTable::elapsed(ItemId item, SymbolId fn) const {
  const std::int32_t b = spans_.find(item, fn);
  return b < 0 ? 0 : spans_.elapsed(b);
}

std::uint64_t TraceTable::sample_count(ItemId item, SymbolId fn) const {
  const std::int32_t b = spans_.find(item, fn);
  return b < 0 ? 0 : spans_.samples(b);
}

std::vector<ItemId> TraceTable::items() const {
  std::set<ItemId> ids;
  for (const auto& [item, _] : item_head_) ids.insert(item);
  for (const ItemWindow& w : windows_) ids.insert(w.item);
  return {ids.begin(), ids.end()};
}

std::vector<SymbolId> TraceTable::functions(ItemId item) const {
  std::vector<SymbolId> fns;
  const auto it = item_head_.find(item);
  for (std::int32_t b = it == item_head_.end() ? -1 : it->second; b >= 0;
       b = next_of_item_[static_cast<std::size_t>(b)]) {
    fns.push_back(spans_.bucket(b).fn);
  }
  std::sort(fns.begin(), fns.end());
  return fns;
}

Tsc TraceTable::item_estimated_total(ItemId item) const {
  Tsc sum = 0;
  const auto it = item_head_.find(item);
  for (std::int32_t b = it == item_head_.end() ? -1 : it->second; b >= 0;
       b = next_of_item_[static_cast<std::size_t>(b)]) {
    sum += spans_.elapsed(b);
  }
  return sum;
}

const ItemWindow* TraceTable::window_of(ItemId item,
                                        std::uint32_t core) const {
  for (const ItemWindow& w : windows_) {
    if (w.item == item && w.core == core) return &w;
  }
  return nullptr;
}

Tsc TraceTable::item_window_total(ItemId item) const {
  const auto it = window_total_.find(item);
  return it == window_total_.end() ? 0 : it->second;
}

} // namespace fluxtrace::core
