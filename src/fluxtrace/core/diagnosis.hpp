// One-call diagnosis: everything an operator asks of a recorded trace —
// the latency distribution, the outliers, and each outlier's
// per-function breakdown with a root-cause hint — assembled from the
// primitives (TraceTable, FluctuationDetector) into a single report.
// The examples and tools print it; tests pin its decisions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/core/detector.hpp"
#include "fluxtrace/core/trace_table.hpp"

namespace fluxtrace::core {

struct DiagnosisConfig {
  DetectorConfig detector{3.0, 8};
  std::size_t max_outliers = 10; ///< report at most this many
};

struct OutlierReport {
  ItemId item = kNoItem;
  Tsc total = 0;             ///< window total
  /// Robust z-score of the item's total against the median and MAD of
  /// all item totals: (total - median) / (1.4826 MAD), the scale floored
  /// at 0.1% of the median.
  double sigmas = 0.0;
  SymbolId dominant_fn = kInvalidSymbol;
  Tsc dominant_elapsed = 0;
  double dominant_share = 0.0; ///< of the item's estimated total
};

struct DiagnosisReport {
  std::uint64_t items = 0;
  double mean_us = 0.0;
  double stddev_us = 0.0;
  double p99_us = 0.0;
  std::vector<OutlierReport> outliers; ///< most deviant first

  /// Render as human-readable text (function names from `symtab`).
  void print(std::ostream& os, const SymbolTable& symtab) const;
  [[nodiscard]] std::string str(const SymbolTable& symtab) const;
};

/// Run the outlier analysis over an integrated trace. Offline, the
/// criterion is a robust z-score against the median/MAD of the item
/// totals (detector.k_sigma is the threshold) — unlike the streaming
/// FluctuationDetector, a fluctuation that arrives first (the paper's
/// query #1) cannot poison its own baseline.
[[nodiscard]] DiagnosisReport diagnose(const TraceTable& table,
                                       const CpuSpec& spec,
                                       DiagnosisConfig cfg = {});

} // namespace fluxtrace::core
