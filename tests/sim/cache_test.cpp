#include "fluxtrace/sim/cache.hpp"

#include <gtest/gtest.h>

namespace fluxtrace::sim {
namespace {

CacheLevelConfig tiny_l1() {
  // 4 sets × 2 ways × 64 B lines = 512 B.
  return CacheLevelConfig{512, 2, 64, 4};
}

TEST(CacheLevel, MissThenHit) {
  CacheLevel c(tiny_l1());
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1010)); // same line
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(CacheLevel, GeometryDerivation) {
  CacheLevel c(tiny_l1());
  EXPECT_EQ(c.num_sets(), 4u);
  CacheLevel big({32 * 1024, 8, 64, 4});
  EXPECT_EQ(big.num_sets(), 64u);
}

TEST(CacheLevel, LruEviction) {
  CacheLevel c(tiny_l1()); // 2 ways, 4 sets
  // Three lines mapping to the same set (stride = sets*line = 256 B).
  EXPECT_FALSE(c.access(0x0000));
  EXPECT_FALSE(c.access(0x0100));
  EXPECT_FALSE(c.access(0x0200)); // evicts 0x0000 (LRU)
  EXPECT_FALSE(c.contains(0x0000));
  EXPECT_TRUE(c.contains(0x0100));
  EXPECT_TRUE(c.contains(0x0200));
}

TEST(CacheLevel, LruOrderUpdatedOnHit) {
  CacheLevel c(tiny_l1());
  c.access(0x0000);
  c.access(0x0100);
  c.access(0x0000);  // 0x0000 becomes MRU
  c.access(0x0200);  // evicts 0x0100 now
  EXPECT_TRUE(c.contains(0x0000));
  EXPECT_FALSE(c.contains(0x0100));
}

TEST(CacheLevel, SetsAreIndependent) {
  CacheLevel c(tiny_l1());
  // Different sets: consecutive lines.
  c.access(0x0000);
  c.access(0x0040);
  c.access(0x0080);
  c.access(0x00c0);
  EXPECT_TRUE(c.contains(0x0000));
  EXPECT_TRUE(c.contains(0x00c0));
}

TEST(CacheLevel, InvalidateAll) {
  CacheLevel c(tiny_l1());
  c.access(0x0000);
  c.invalidate_all();
  EXPECT_FALSE(c.contains(0x0000));
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(CacheHierarchy, LatenciesPerLevel) {
  CacheHierarchyConfig cfg;
  CacheHierarchy h(cfg);
  // Cold: DRAM.
  AccessResult r = h.access(0x5000);
  EXPECT_EQ(r.latency, cfg.dram_latency);
  EXPECT_TRUE(r.llc_miss);
  // Warm: L1.
  r = h.access(0x5000);
  EXPECT_EQ(r.latency, cfg.l1.hit_latency);
  EXPECT_FALSE(r.llc_miss);
}

TEST(CacheHierarchy, L2HitAfterL1Eviction) {
  CacheHierarchyConfig cfg;
  cfg.l1 = {512, 2, 64, 4};            // tiny L1
  cfg.l2 = {64 * 1024, 16, 64, 14};
  CacheHierarchy h(cfg);
  // Fill one L1 set beyond capacity; all lines stay in L2.
  h.access(0x0000);
  h.access(0x0100);
  h.access(0x0200); // 0x0000 leaves L1
  const AccessResult r = h.access(0x0000);
  EXPECT_EQ(r.latency, cfg.l2.hit_latency);
  EXPECT_FALSE(r.llc_miss);
}

TEST(CacheHierarchy, SharedL3BetweenCores) {
  CacheHierarchyConfig cfg;
  auto l3 = std::make_shared<CacheLevel>(cfg.l3);
  CacheHierarchy core0(cfg, l3);
  CacheHierarchy core1(cfg, l3);
  core0.access(0x9000); // fills shared L3 (and core0's L1/L2)
  const AccessResult r = core1.access(0x9000);
  EXPECT_EQ(r.latency, cfg.l3.hit_latency) << "expected shared-L3 hit";
  EXPECT_FALSE(r.llc_miss);
}

TEST(CacheHierarchy, NextLinePrefetchHelpsSequentialSweeps) {
  CacheHierarchyConfig base;
  CacheHierarchyConfig pf = base;
  pf.next_line_prefetch = true;

  const auto dram_misses = [](CacheHierarchyConfig cfg) {
    CacheHierarchy h(cfg);
    std::uint64_t misses = 0;
    for (std::uint64_t a = 0; a < 256 * 64; a += 64) {
      if (h.access(0x100000 + a).llc_miss) ++misses;
    }
    return misses;
  };
  const std::uint64_t plain = dram_misses(base);
  const std::uint64_t with_pf = dram_misses(pf);
  EXPECT_EQ(plain, 256u);
  EXPECT_LE(with_pf * 2, plain + 2) << "roughly every other line prefetched";
}

TEST(CacheHierarchy, PrefetchUselessForLargeStrides) {
  CacheHierarchyConfig pf;
  pf.next_line_prefetch = true;
  CacheHierarchy h(pf);
  std::uint64_t misses = 0;
  for (std::uint64_t i = 0; i < 128; ++i) {
    if (h.access(0x200000 + i * 4096).llc_miss) ++misses;
  }
  EXPECT_EQ(misses, 128u) << "4 KiB strides never touch the next line";
}

TEST(CacheHierarchy, PrefetchCounterTracksFills) {
  CacheHierarchyConfig pf;
  pf.next_line_prefetch = true;
  CacheHierarchy h(pf);
  h.access(0x300000);
  EXPECT_EQ(h.prefetches(), 1u);
  h.access(0x300000); // L1 hit: no prefetch
  EXPECT_EQ(h.prefetches(), 1u);
}

// gtest prints a param's raw bytes into the ctest case name, so the struct
// must have no padding: `pad` keeps the tail bytes zero instead of garbage.
struct GeometryParam {
  std::uint64_t size;
  std::uint32_t ways;
  std::uint32_t pad = 0;
};
static_assert(sizeof(GeometryParam) == 16);

class CacheGeometryTest : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(CacheGeometryTest, WorkingSetWithinCapacityNeverEvicts) {
  const auto p = GetParam();
  CacheLevel c({p.size, p.ways, 64, 4});
  const std::uint64_t lines = p.size / 64;
  // Touch exactly `lines` distinct consecutive lines: fits by construction.
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64);
  for (std::uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.contains(i * 64)) << "line " << i;
  }
  // Second pass: all hits.
  const std::uint64_t misses_before = c.misses();
  for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64);
  EXPECT_EQ(c.misses(), misses_before);
}

TEST_P(CacheGeometryTest, WorkingSetBeyondCapacityThrashes) {
  const auto p = GetParam();
  CacheLevel c({p.size, p.ways, 64, 4});
  const std::uint64_t lines = 2 * p.size / 64;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < lines; ++i) c.access(i * 64);
  }
  // Sequential sweep over 2x capacity with LRU: every access misses.
  EXPECT_EQ(c.misses(), 2 * lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(GeometryParam{512, 2}, GeometryParam{4096, 4},
                      GeometryParam{32 * 1024, 8}, GeometryParam{64 * 1024, 16}));

} // namespace
} // namespace fluxtrace::sim
