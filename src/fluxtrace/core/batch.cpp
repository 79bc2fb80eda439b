#include "fluxtrace/core/batch.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "fluxtrace/core/attribution.hpp"

namespace fluxtrace::core {

ItemId BatchTable::new_batch(std::vector<ItemId> members) {
  assert(!members.empty());
  const ItemId id = next_++;
  batches_.emplace(id, std::move(members));
  return id;
}

const std::vector<ItemId>* BatchTable::members(ItemId batch_id) const {
  auto it = batches_.find(batch_id);
  return it == batches_.end() ? nullptr : &it->second;
}

std::vector<BatchItemEstimate> BatchIntegrator::integrate(
    std::span<const Marker> markers, std::span<const PebsSample> samples,
    BatchPolicy policy) const {
  // Batch-level windows first.
  std::vector<ItemWindow> windows;
  const WindowIndex index(markers);
  for (const ItemWindow& w : index.windows()) {
    if (batches_.members(w.item) != nullptr) windows.push_back(w);
  }
  std::sort(windows.begin(), windows.end(),
            [](const ItemWindow& a, const ItemWindow& b) {
              return a.core != b.core ? a.core < b.core : a.enter < b.enter;
            });

  // Group samples per core, sorted, for window matching.
  std::map<std::uint32_t, SampleVec> by_core;
  for (const PebsSample& s : samples) by_core[s.core].push_back(s);
  for (auto& [core, ss] : by_core) {
    std::sort(ss.begin(), ss.end(),
              [](const PebsSample& a, const PebsSample& b) {
                return a.tsc < b.tsc;
              });
  }

  std::vector<BatchItemEstimate> out;
  for (const ItemWindow& w : windows) {
    const std::vector<ItemId>& members = *batches_.members(w.item);
    const auto k = members.size();
    const Tsc span = w.length();

    // Samples inside this window, per function — possibly split into
    // per-member sub-windows.
    auto& ss = by_core[w.core];
    auto lo = std::lower_bound(ss.begin(), ss.end(), w.enter,
                               [](const PebsSample& s, Tsc t) {
                                 return s.tsc < t;
                               });
    auto hi = std::upper_bound(ss.begin(), ss.end(), w.leave,
                               [](Tsc t, const PebsSample& s) {
                                 return t < s.tsc;
                               });

    if (policy == BatchPolicy::Pooled) {
      // One bucket set for the whole batch, divided evenly.
      FuncSpans buckets;
      for (auto it = lo; it != hi; ++it) {
        const auto fn = symtab_.resolve(it->ip);
        if (fn.has_value()) buckets[*fn].add(it->tsc);
      }
      for (const ItemId member : members) {
        BatchItemEstimate e;
        e.item = member;
        e.batch = w.item;
        e.window_share = span / k;
        for (const auto& [fn, stat] : buckets) {
          if (stat.estimable()) {
            e.fn_elapsed.emplace_back(fn, stat.elapsed() / k);
          }
        }
        out.push_back(std::move(e));
      }
    } else {
      // SubWindows: member i owns [enter + i*span/k, enter + (i+1)*span/k).
      std::vector<FuncSpans> buckets(k);
      for (auto it = lo; it != hi; ++it) {
        const auto fn = symtab_.resolve(it->ip);
        if (!fn.has_value()) continue;
        std::size_t idx = span == 0
                              ? 0
                              : static_cast<std::size_t>(
                                    static_cast<double>(it->tsc - w.enter) /
                                    static_cast<double>(span) *
                                    static_cast<double>(k));
        if (idx >= k) idx = k - 1;
        buckets[idx][*fn].add(it->tsc);
      }
      for (std::size_t i = 0; i < k; ++i) {
        BatchItemEstimate e;
        e.item = members[i];
        e.batch = w.item;
        e.window_share = span / k;
        for (const auto& [fn, stat] : buckets[i]) {
          if (stat.estimable()) e.fn_elapsed.emplace_back(fn, stat.elapsed());
        }
        out.push_back(std::move(e));
      }
    }
  }
  return out;
}

} // namespace fluxtrace::core
