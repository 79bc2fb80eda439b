// Step 2 of the paper's procedure (§III-D): integrate the two data
// streams. Each PEBS sample's timestamp is located inside a data-item
// window recorded by the markers on the same core (t0 < ta < t1 ⇒ the
// sample belongs to item #0), and its instruction pointer is located in
// the symbol table to recover the function. The §V-A extension instead
// reads the data-item id straight out of the sampled R13 register, which
// survives user-level context switches (timer-switching architecture).
// The procedure itself lives in the attribution kernel (attribution.hpp;
// WindowIndex pairs the markers into windows); TraceIntegrator runs it in
// one batch pass and keeps the result as a TraceTable.
#pragma once

#include <span>

#include "fluxtrace/base/markers.hpp"
#include "fluxtrace/base/regs.hpp"
#include "fluxtrace/base/samples.hpp"
#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/core/attribution.hpp"
#include "fluxtrace/core/trace_table.hpp"

namespace fluxtrace::core {

class TraceIntegrator {
 public:
  explicit TraceIntegrator(const SymbolTable& symtab,
                           IntegratorConfig cfg = {})
      : symtab_(symtab), cfg_(cfg) {}

  /// Build the per-item, per-function table. Markers and samples may be in
  /// any order; they are grouped by core and sorted internally. Known
  /// capture losses (sim::PebsDriver::losses()) are each attributed to
  /// the item whose window covers their timestamp, so affected items
  /// report non-zero ItemQuality::samples_lost instead of quietly
  /// under-counting.
  [[nodiscard]] TraceTable integrate(
      std::span<const Marker> markers, std::span<const PebsSample> samples,
      std::span<const SampleLoss> losses = {}) const;

 private:
  const SymbolTable& symtab_;
  IntegratorConfig cfg_;
};

} // namespace fluxtrace::core
