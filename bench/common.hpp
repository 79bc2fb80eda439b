// Shared helpers for the figure-reproduction benches: the Table II-style
// environment banner, a couple of small statistics utilities, and the
// host's measured parallelism.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <thread>
#include <vector>

#include "fluxtrace/base/time.hpp"

namespace fluxtrace::bench {

/// Print the simulated evaluation environment (the stand-in for the
/// paper's Table II) plus which experiment this binary regenerates.
inline void banner(std::string_view experiment, std::string_view paper_ref,
                   const CpuSpec& spec = {}) {
  std::printf("================================================================\n");
  std::printf("fluxtrace bench: %.*s\n", static_cast<int>(experiment.size()),
              experiment.data());
  std::printf("reproduces:      %.*s\n", static_cast<int>(paper_ref.size()),
              paper_ref.data());
  std::printf("simulated CPU:   %u cores @ %.1f GHz, %.2f cycles/uop "
              "(Skylake-like), PEBS assist 250 ns\n",
              spec.num_cores, spec.freq_ghz, spec.cycles_per_uop);
  std::printf("================================================================\n\n");
}

struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t n = 0;
};

inline MeanStd mean_std(const std::vector<double>& xs) {
  MeanStd out;
  out.n = xs.size();
  if (xs.empty()) return out;
  double s = 0;
  for (const double x : xs) s += x;
  out.mean = s / static_cast<double>(xs.size());
  if (xs.size() >= 2) {
    double ss = 0;
    for (const double x : xs) ss += (x - out.mean) * (x - out.mean);
    out.stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  }
  return out;
}

/// How many cores this host actually gives the benches: one fixed
/// CPU-bound loop timed on 1 thread and split over N threads (N =
/// hardware_concurrency(), at most 8: the highest tier any scaling gate
/// asserts); the speed-up is the effective parallelism. A container may
/// report CPUs it shares or never gets, so scaling gates read this
/// instead of hardware_concurrency().
inline double measured_parallelism() {
  constexpr unsigned kMaxThreads = 8;
  const unsigned n =
      std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  if (n == 1) return 1.0;
  constexpr std::uint64_t kWork = std::uint64_t{1} << 27; // xorshift steps
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink](std::uint64_t steps, std::uint64_t seed) {
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < steps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const auto seconds = [&](unsigned threads) {
    double best = 1e30;
    for (int rep = 0; rep < 2; ++rep) { // best of two: skip a cold start
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> ts;
      for (unsigned i = 0; i < threads; ++i) {
        ts.emplace_back(spin, kWork / threads, i + 1);
      }
      for (std::thread& t : ts) t.join();
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    return best;
  };
  const double one = seconds(1);
  const double many = seconds(n);
  return std::clamp(one / many, 1.0, static_cast<double>(n));
}

/// The measured parallelism as a whole number of cores: the tier a
/// scaling gate may assert.
inline unsigned effective_cores(double parallelism) {
  return static_cast<unsigned>(std::max(1L, std::lround(parallelism)));
}

} // namespace fluxtrace::bench
