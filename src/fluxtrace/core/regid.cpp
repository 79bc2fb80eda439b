#include "fluxtrace/core/regid.hpp"

#include "fluxtrace/core/attribution.hpp"

namespace fluxtrace::core {

std::unordered_map<ItemId, SampleVec> RegisterIdMapper::group(
    std::span<const PebsSample> samples) const {
  std::unordered_map<ItemId, SampleVec> out;
  for (const PebsSample& s : samples) {
    const ItemId id = item_of(s);
    if (id == kNoItem) continue;
    out[id].push_back(s);
  }
  return out;
}

RegisterIdMapper::Comparison RegisterIdMapper::compare_with_windows(
    std::span<const PebsSample> samples,
    std::span<const Marker> markers) const {
  Comparison c;
  c.total = samples.size();
  // The kernel's windows and lookup: the batch integrator's.
  WindowIndex windows(markers);
  for (const PebsSample& s : samples) {
    const ItemId reg_id = item_of(s);
    const ItemId win_id = windows.locate(s.core, s.tsc);
    if (reg_id != kNoItem) ++c.by_register;
    if (win_id != kNoItem) ++c.by_window;
    if (reg_id != kNoItem && win_id != kNoItem && reg_id != win_id) {
      ++c.disagree;
    }
  }
  return c;
}

} // namespace fluxtrace::core
