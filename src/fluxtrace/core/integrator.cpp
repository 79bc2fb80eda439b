#include "fluxtrace/core/integrator.hpp"

#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/obs/span.hpp"

namespace fluxtrace::core {

namespace {

// Self-telemetry.
struct IntegratorMetrics {
  obs::Counter& items = obs::metrics().counter("core.integrate.items");
  obs::Counter& degraded =
      obs::metrics().counter("core.integrate.degraded_items");

  static IntegratorMetrics& get() {
    static IntegratorMetrics m;
    return m;
  }
};

} // namespace

TraceTable TraceIntegrator::integrate(std::span<const Marker> markers,
                                      std::span<const PebsSample> samples,
                                      std::span<const SampleLoss> losses) const {
  OBS_SPAN("core.integrate");
  Attributor a(markers, symtab_, cfg_,
               cfg_.degraded ? Attributor::watermarks(samples, losses)
                             : std::map<std::uint32_t, Tsc>{});
  for (const PebsSample& s : samples) {
    a.add(s.core, s.tsc, s.ip, s.regs.get(kItemIdReg));
  }
  // Loss attribution: a lost sample inside an item's window degrades that
  // item's confidence instead of leaving it silently under-counted.
  for (const SampleLoss& l : losses) a.add_loss(l.core, l.tsc);

  TraceTable table(a.take_spans());
  for (const ItemWindow& w : a.windows()) table.add_window(w);
  const Attributor::Counts& c = a.counts();
  table.count_unmatched_item(c.unmatched_item);
  table.count_unmatched_symbol(c.unmatched_symbol);
  table.count_unattributed_loss(c.unattributed_loss);
  for (const auto& [item, n] : c.salvaged) table.note_sample_salvaged(item, n);
  for (const auto& [item, n] : c.lost) table.note_sample_lost(item, n);

  IntegratorMetrics::get().items.inc(table.items().size());
  IntegratorMetrics::get().degraded.inc(table.degraded_items().size());
  return table;
}

} // namespace fluxtrace::core
