// FLXI sidecar codec: byte-exact round-trip, and the detection contract —
// a truncated, bit-flipped, oversized, or hostile sidecar decodes to
// nullopt (full-scan fallback), never to a wrong index and never OOM.
#include "fluxtrace/query/flxi.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <cstdio>
#include <fstream>

#include "fluxtrace/io/chunked.hpp" // io::crc32

namespace fluxtrace::query {
namespace {

// Little-endian appenders matching the on-disk FLXI encoding, for
// hand-built hostile sidecars.
void app_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b.push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
  }
}

void app_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b.push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
  }
}

FlxiIndex sample_index() {
  FlxiIndex idx;
  idx.trace_size = 123456;
  idx.trace_crc = 0xdeadbeef;
  idx.symtab_crc = 0x12345678;
  FlxiChunk a;
  a.offset = 8;
  a.n_records = 64;
  a.min_ts = 100;
  a.max_ts = 900;
  a.min_item = 0;
  a.max_item = 7;
  a.func_counts = {{0, 10}, {2, 54}};
  FlxiChunk b;
  b.offset = 9500;
  b.n_records = 3;
  b.min_ts = -5; // timestamps are signed in query space
  b.max_ts = 2;
  b.min_item = -1; // unattributed rows read as -1
  b.max_item = -1;
  b.func_counts = {};
  FlxiChunk empty;
  empty.offset = 12000;
  empty.n_records = 0;
  empty.min_ts = 0;
  empty.max_ts = -1; // min > max: nothing in the chunk
  empty.min_item = 0;
  empty.max_item = -1;
  idx.chunks = {a, b, empty};
  return idx;
}

TEST(Flxi, RoundTrip) {
  const FlxiIndex idx = sample_index();
  const std::string bytes = encode_flxi(idx);
  const auto back = decode_flxi(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, idx);
}

TEST(Flxi, EmptyIndexRoundTrips) {
  FlxiIndex idx;
  idx.trace_size = 8;
  idx.trace_crc = 1;
  idx.symtab_crc = 2;
  const auto back = decode_flxi(encode_flxi(idx));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, idx);
}

TEST(Flxi, EveryTruncationIsDetected) {
  const std::string bytes = encode_flxi(sample_index());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(decode_flxi(std::string_view(bytes).substr(0, n)))
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(Flxi, TrailingGarbageIsDetected) {
  std::string bytes = encode_flxi(sample_index());
  bytes += '\x00';
  EXPECT_FALSE(decode_flxi(bytes));
}

TEST(Flxi, EveryBitFlipIsDetectedOrInvalidating) {
  const FlxiIndex idx = sample_index();
  const std::string clean = encode_flxi(idx);
  // Header layout: magic(4) version(4) trace_size(8) trace_crc(4)
  // symtab_crc(4) flags(4) n_chunks(4) body_crc(4) body. The pinning
  // fields (bytes 8..27) carry no CRC of their own — a flip there
  // either fails decode (unknown flag bits) or decodes to an index the
  // engine's trace/symtab/mode validation then rejects. Everything else
  // (magic, version, counts, body) must fail decode outright.
  constexpr std::size_t kPinLo = 8, kPinHi = 28;
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = clean;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      const auto got = decode_flxi(bytes);
      if (byte >= kPinLo && byte < kPinHi) {
        // Decoding is fine; silently reproducing the ORIGINAL index
        // from flipped bytes would be the bug.
        if (got.has_value()) {
          EXPECT_NE(*got, idx) << "byte " << byte << " bit " << bit;
        }
      } else {
        EXPECT_FALSE(got.has_value())
            << "flip at byte " << byte << " bit " << bit << " decoded";
      }
    }
  }
}

TEST(Flxi, HostileChunkCountDoesNotAllocate) {
  // n_chunks is not covered by the body CRC, so a forged count over an
  // otherwise-valid sidecar is the cheapest allocation attack. Any
  // count exceeding body_bytes / 48 (the minimum encoded chunk) must
  // fail fast on the byte budget, not attempt the reserve.
  const std::string clean = encode_flxi(sample_index());
  // n_chunks lives at offset 28 (after magic, version, size, 2 CRCs,
  // flags).
  for (const std::uint32_t forged : {0x7fffffffu, 0x00010000u, 4u}) {
    std::string bytes = clean;
    for (int i = 0; i < 4; ++i) {
      bytes[28 + i] = static_cast<char>(forged >> (8 * i));
    }
    EXPECT_FALSE(decode_flxi(bytes)) << "n_chunks " << forged;
  }
}

TEST(Flxi, HostileFuncCountDoesNotAllocate) {
  // A self-consistent sidecar (valid header, matching body CRC) whose
  // single chunk claims millions of func entries but carries none: the
  // claimed count exceeds the remaining bytes / 8 and must be rejected
  // before func_counts.reserve.
  std::string body;
  app_u64(body, 8);          // offset
  app_u32(body, 1);          // n_records
  app_u64(body, 0);          // min_ts
  app_u64(body, 0);          // max_ts
  app_u64(body, 0);          // min_item
  app_u64(body, 0);          // max_item
  app_u32(body, 0x00800000); // n_funcs: 8M entries, zero bytes behind
  std::string bytes;
  app_u32(bytes, kFlxiMagic);
  app_u32(bytes, kFlxiVersion);
  app_u64(bytes, 123); // trace_size
  app_u32(bytes, 1);   // trace_crc
  app_u32(bytes, 2);   // symtab_crc
  app_u32(bytes, 0);   // flags
  app_u32(bytes, 1);   // n_chunks
  app_u32(bytes, io::crc32(body.data(), body.size()));
  bytes += body;
  EXPECT_FALSE(decode_flxi(bytes));
}

TEST(Flxi, AttributionModeRoundTripsAndDistinguishes) {
  FlxiIndex regs = sample_index();
  regs.flags = kFlxiFlagRegisterIds;
  const auto back = decode_flxi(encode_flxi(regs));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, regs);
  // The mode is part of identity: the same chunks under marker-window
  // attribution compare unequal.
  EXPECT_NE(*back, sample_index());
}

TEST(Flxi, UnknownFlagBitsAreRejected) {
  std::string bytes = encode_flxi(sample_index());
  bytes[24] = '\x02'; // flags: a bit this version does not define
  EXPECT_FALSE(decode_flxi(bytes));
}

TEST(Flxi, SaveLoadRoundTripAndMissingFile) {
  const std::string path = test::private_dir() + "/flxi_test.flxi";
  const FlxiIndex idx = sample_index();
  ASSERT_TRUE(save_flxi(path, idx));
  const auto back = load_flxi(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, idx);
  std::remove(path.c_str());
  EXPECT_FALSE(load_flxi(path));
  // Unwritable paths report failure instead of throwing.
  EXPECT_FALSE(save_flxi("/nonexistent_dir/x.flxi", idx));
}

TEST(Flxi, DamagedFileLoadsAsNullopt) {
  const std::string path = test::private_dir() + "/flxi_damaged.flxi";
  {
    std::ofstream os(path, std::ios::binary);
    os << "FLXI" << std::string(40, '\x3c');
  }
  EXPECT_FALSE(load_flxi(path));
  std::remove(path.c_str());
}

TEST(Flxi, SymtabCrcTracksNamesAndRanges) {
  SymbolTable a;
  a.add("f1", 0x100);
  a.add("f2", 0x100);
  SymbolTable b;
  b.add("f1", 0x100);
  b.add("f2", 0x100);
  EXPECT_EQ(symtab_crc(a), symtab_crc(b));
  SymbolTable c;
  c.add("f1", 0x100);
  c.add("f2_renamed", 0x100);
  EXPECT_NE(symtab_crc(a), symtab_crc(c));
  SymbolTable d;
  d.add("f1", 0x100);
  d.add("f2", 0x200); // same names, different layout
  EXPECT_NE(symtab_crc(a), symtab_crc(d));
  SymbolTable empty;
  EXPECT_NE(symtab_crc(a), symtab_crc(empty));
}

TEST(Flxi, FlxiPathConvention) {
  EXPECT_EQ(flxi_path("/tmp/t.flxt"), "/tmp/t.flxt.flxi");
}

} // namespace
} // namespace fluxtrace::query
