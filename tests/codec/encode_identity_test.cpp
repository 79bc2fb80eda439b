// encode_column_best must pick the same codec and write the same bytes
// as the straightforward selector it replaced: compute every codec's
// exact size (the dictionary from a full sort), take the first smallest
// in the fixed preference order, encode with byte-at-a-time primitives.
// That selector is kept below, verbatim with its primitives, as the
// oracle; the fast encoder skips work only where a bound proves the
// skipped codec cannot win, so any disagreement is a bug in a bound.
#include "fluxtrace/codec/column.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace fluxtrace::codec {
namespace {

namespace oracle {

constexpr std::size_t kNoFit = std::numeric_limits<std::size_t>::max();

std::uint64_t as_u64(std::int64_t v) { return static_cast<std::uint64_t>(v); }
std::int64_t as_i64(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::int64_t wrap_delta(std::int64_t a, std::int64_t b) {
  return as_i64(as_u64(a) - as_u64(b));
}
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80u | (v & 0x7fu)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

unsigned bit_width_u64(std::uint64_t v) {
  unsigned w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

std::size_t packed_bytes(std::size_t n, unsigned width) {
  return (n * width + 7) / 8;
}

void pack_bits(std::string& out, std::span<const std::uint64_t> values,
               unsigned width) {
  if (width == 0 || values.empty()) return;
  const std::size_t base = out.size();
  out.resize(base + packed_bytes(values.size(), width), '\0');
  auto* p = reinterpret_cast<unsigned char*>(out.data()) + base;
  std::size_t bitpos = 0;
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  for (std::uint64_t v : values) {
    v &= mask;
    const std::size_t byte = bitpos >> 3;
    const unsigned off = static_cast<unsigned>(bitpos & 7);
    const std::uint64_t lo = v << off;
    const unsigned span_bytes = (off + width + 7) / 8;
    for (unsigned k = 0; k < span_bytes && k < 8; ++k) {
      p[byte + k] |= static_cast<unsigned char>((lo >> (8 * k)) & 0xffu);
    }
    if (span_bytes > 8) {
      p[byte + 8] |= static_cast<unsigned char>((v >> (64 - off)) & 0xffu);
    }
    bitpos += width;
  }
}

void encode_raw64(std::span<const std::int64_t> v, std::string& out) {
  for (std::int64_t x : v) {
    const std::uint64_t u = as_u64(x);
    for (int k = 0; k < 8; ++k) {
      out.push_back(static_cast<char>((u >> (8 * k)) & 0xffu));
    }
  }
}

void encode_delta(std::span<const std::int64_t> v, std::string& out) {
  put_varint(out, zigzag(v[0]));
  for (std::size_t i = 1; i < v.size(); ++i) {
    put_varint(out, zigzag(wrap_delta(v[i], v[i - 1])));
  }
}

std::vector<std::int64_t> build_dict(std::span<const std::int64_t> v) {
  std::vector<std::int64_t> d(v.begin(), v.end());
  std::sort(d.begin(), d.end());
  d.erase(std::unique(d.begin(), d.end()), d.end());
  return d;
}

void encode_dict(std::span<const std::int64_t> v,
                 const std::vector<std::int64_t>& d, std::string& out) {
  put_varint(out, d.size());
  put_varint(out, zigzag(d[0]));
  for (std::size_t i = 1; i < d.size(); ++i) {
    put_varint(out, as_u64(d[i]) - as_u64(d[i - 1]) - 1);
  }
  std::vector<std::uint64_t> idx(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    idx[i] = static_cast<std::uint64_t>(
        std::lower_bound(d.begin(), d.end(), v[i]) - d.begin());
  }
  pack_bits(out, idx, bit_width_u64(d.size() - 1));
}

std::size_t dict_encoded_size(std::size_t n,
                              const std::vector<std::int64_t>& d) {
  std::size_t s = varint_len(d.size()) + varint_len(zigzag(d[0]));
  for (std::size_t i = 1; i < d.size(); ++i) {
    s += varint_len(as_u64(d[i]) - as_u64(d[i - 1]) - 1);
  }
  return s + packed_bytes(n, bit_width_u64(d.size() - 1));
}

void encode_forpack(std::span<const std::int64_t> v, std::int64_t min,
                    unsigned width, std::string& out) {
  put_varint(out, zigzag(min));
  out.push_back(static_cast<char>(width));
  std::vector<std::uint64_t> offs(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    offs[i] = as_u64(v[i]) - as_u64(min);
  }
  pack_bits(out, offs, width);
}

EncodedColumn encode_column_best(std::span<const std::int64_t> values) {
  EncodedColumn enc;
  if (values.empty()) return enc;
  const std::size_t n = values.size();
  std::int64_t mn = values[0];
  std::int64_t mx = values[0];
  bool all_equal = true;
  std::size_t varint_sz = 0;
  std::size_t delta_sz = varint_len(zigzag(values[0]));
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = values[i];
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    all_equal = all_equal && v == values[0];
    varint_sz += varint_len(zigzag(v));
    if (i > 0) delta_sz += varint_len(zigzag(wrap_delta(v, values[i - 1])));
  }
  const std::size_t const_sz =
      all_equal ? varint_len(zigzag(values[0])) : kNoFit;
  const unsigned for_width = bit_width_u64(as_u64(mx) - as_u64(mn));
  const std::size_t for_sz =
      varint_len(zigzag(mn)) + 1 + packed_bytes(n, for_width);
  std::vector<std::int64_t> dict;
  std::size_t dict_sz = kNoFit;
  if (!all_equal) {
    dict = build_dict(values);
    if (dict.size() <= kMaxDictEntries && dict.size() < n) {
      dict_sz = dict_encoded_size(n, dict);
    }
  }
  struct Cand {
    ColumnCodec codec;
    std::size_t size;
  };
  const Cand cands[] = {
      {ColumnCodec::Const, const_sz},       {ColumnCodec::ForPack, for_sz},
      {ColumnCodec::DeltaVarint, delta_sz}, {ColumnCodec::Dict, dict_sz},
      {ColumnCodec::Varint, varint_sz},     {ColumnCodec::Raw64, n * 8},
  };
  Cand best = cands[0];
  for (const Cand& c : cands) {
    if (c.size < best.size) best = c;
  }
  enc.codec = best.codec;
  switch (best.codec) {
  case ColumnCodec::Const: put_varint(enc.bytes, zigzag(values[0])); break;
  case ColumnCodec::ForPack:
    encode_forpack(values, mn, for_width, enc.bytes);
    break;
  case ColumnCodec::DeltaVarint: encode_delta(values, enc.bytes); break;
  case ColumnCodec::Dict: encode_dict(values, dict, enc.bytes); break;
  case ColumnCodec::Varint:
    for (std::int64_t x : values) put_varint(enc.bytes, zigzag(x));
    break;
  case ColumnCodec::Raw64: encode_raw64(values, enc.bytes); break;
  }
  return enc;
}

} // namespace oracle

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// The columns the codec tests use, plus the shapes a capture produces.
std::vector<std::vector<std::int64_t>> corpus() {
  std::vector<std::vector<std::int64_t>> cols;
  std::vector<std::int64_t> v;
  std::uint64_t state = 7;
  for (int i = 0; i < 1000; ++i) { // small-ish LCG values
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<std::int64_t>(state >> 40));
  }
  cols.push_back(v);
  cols.push_back({0, 1, -1, kMax, kMin, kMin + 1, 42, -42, 1ll << 62,
                  -(1ll << 62)});
  for (const std::int64_t c : {std::int64_t{0}, std::int64_t{-1}, kMin, kMax}) {
    cols.push_back(std::vector<std::int64_t>(257, c));
  }
  cols.push_back(std::vector<std::int64_t>(4096, 0)); // idle register
  v.clear();
  std::int64_t t = 1'000'000'000;
  state = 3;
  for (int i = 0; i < 4096; ++i) { // monotonic timestamps
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    t += 100 + static_cast<std::int64_t>(state % 64);
    v.push_back(t);
  }
  cols.push_back(v);
  v.clear();
  state = 99;
  for (int i = 0; i < 512; ++i) { // full-width noise
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<std::int64_t>(state));
  }
  cols.push_back(v);
  // Two per-core drain blocks of timestamps, interleaved in time.
  v.clear();
  for (int b = 0; b < 2; ++b) {
    std::int64_t ts = 5'000'000 + b * 1500;
    for (int i = 0; i < 512; ++i) v.push_back(ts += 2800 + (i * 37) % 800);
  }
  cols.push_back(v);
  // The dictionary ties Varint at 19 bytes and wins on preference order.
  cols.push_back({21488, -193501077, 8339105348311716, 21488});
  // Item ids: long runs of one value per block.
  v.clear();
  for (int i = 0; i < 1024; ++i) v.push_back(100 + i / 80 + (i >= 512 ? 7 : 0));
  cols.push_back(v);
  return cols;
}

/// Random columns of every shape the selector distinguishes, at lengths
/// from 1 row up to past kMaxDictEntries.
std::vector<std::int64_t> random_column(Rng& r) {
  static const std::size_t kLens[] = {1, 2, 3, 7, 64, 255, 1024, 4095,
                                      4096, 4097, 5000};
  const std::size_t n = kLens[r.below(std::size(kLens))];
  const std::int64_t extremes[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  std::vector<std::int64_t> v(n);
  switch (r.below(10)) {
  case 0: // int64 extremes
    for (auto& x : v) x = extremes[r.below(std::size(extremes))];
    break;
  case 1: { // constant, any value
    const std::int64_t c = r.below(2) != 0
                               ? extremes[r.below(std::size(extremes))]
                               : static_cast<std::int64_t>(r.next());
    std::fill(v.begin(), v.end(), c);
    break;
  }
  case 2: { // few distinct far-apart values: the dictionary wins
    std::vector<std::int64_t> pool(1 + r.below(40));
    for (auto& p : pool) p = static_cast<std::int64_t>(r.next());
    for (auto& x : v) x = pool[r.below(pool.size())];
    break;
  }
  case 3: { // narrow range around a random base: ForPack
    const auto base = static_cast<std::int64_t>(r.next() >> 2);
    const std::uint64_t span = std::uint64_t{1} << r.below(20);
    for (auto& x : v) x = base + static_cast<std::int64_t>(r.below(span));
    break;
  }
  case 4: { // increasing with jitter: DeltaVarint
    std::int64_t t = static_cast<std::int64_t>(r.below(1ull << 40));
    for (auto& x : v) x = t += static_cast<std::int64_t>(r.below(5000));
    break;
  }
  case 5: // small magnitudes of both signs: Varint
    for (auto& x : v) x = static_cast<std::int64_t>(r.below(300)) - 150;
    break;
  case 6: // full-width noise: Raw64
    for (auto& x : v) x = static_cast<std::int64_t>(r.next());
    break;
  case 7: { // distinct count near the dictionary cap
    const std::size_t d = 4000 + r.below(200);
    for (auto& x : v) x = static_cast<std::int64_t>(r.below(d)) * 1'000'003;
    break;
  }
  case 8: { // runs of repeated values
    std::int64_t x = static_cast<std::int64_t>(r.below(1000));
    for (std::size_t i = 0; i < n; ++i) {
      if (r.below(50) == 0) x = static_cast<std::int64_t>(r.below(1000));
      v[i] = x;
    }
    break;
  }
  default: {
    // 2^k evenly spaced values with one-byte gaps: the dictionary and
    // ForPack come within a few bytes of each other, so any slack in the
    // dictionary's size floor shows up as a different choice.
    const std::size_t d = std::size_t{1} << (1 + r.below(8));
    const auto gap = static_cast<std::int64_t>(1 + r.below(127));
    v.resize(d + 1 + r.below(4000));
    for (auto& x : v) x = static_cast<std::int64_t>(r.below(d)) * gap;
    break;
  }
  }
  return v;
}

void expect_same(ColumnEncoder& reused, std::span<const std::int64_t> v,
                 const std::string& what) {
  const EncodedColumn want = oracle::encode_column_best(v);
  const EncodedColumn got = encode_column_best(v);
  EXPECT_EQ(got.codec, want.codec) << what;
  EXPECT_EQ(got.bytes, want.bytes) << what;
  // A long-lived encoder appends the same bytes after what is there.
  std::string out = "prefix";
  EXPECT_EQ(reused.encode_best(v, out), want.codec) << what;
  EXPECT_EQ(out, "prefix" + want.bytes) << what;
  // Asked for by name, the dictionary is the same too, or refused.
  const std::vector<std::int64_t> dict = oracle::build_dict(v);
  if (dict.size() <= kMaxDictEntries) {
    std::string want_dict;
    oracle::encode_dict(v, dict, want_dict);
    EXPECT_EQ(encode_column(v, ColumnCodec::Dict), want_dict) << what;
  } else {
    EXPECT_THROW((void)encode_column(v, ColumnCodec::Dict),
                 std::invalid_argument)
        << what;
  }
}

TEST(EncodeIdentity, CorpusMatchesTheExhaustiveSelector) {
  ColumnEncoder reused;
  const auto cols = corpus();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    expect_same(reused, cols[i], "corpus column " + std::to_string(i));
  }
}

TEST(EncodeIdentity, RandomColumnsMatchTheExhaustiveSelector) {
  ColumnEncoder reused;
  Rng r{2024};
  std::size_t by_codec[kNumColumnCodecs] = {};
  for (int i = 0; i < 1000; ++i) {
    const std::vector<std::int64_t> v = random_column(r);
    expect_same(reused, v, "random column " + std::to_string(i));
    ++by_codec[static_cast<std::size_t>(oracle::encode_column_best(v).codec)];
  }
  // The inputs reach every codec, so every skip decision was exercised.
  for (std::size_t c = 0; c < kNumColumnCodecs; ++c) {
    EXPECT_GT(by_codec[c], 0u)
        << column_codec_name(static_cast<ColumnCodec>(c));
  }
}

TEST(EncodeIdentity, OneRowColumnsMatchTheExhaustiveSelector) {
  // One row is constant by definition; a value whose varint is wider
  // than 8 bytes must still go to Raw64.
  ColumnEncoder reused;
  // Values whose varint takes 8, 9 and 10 bytes sit on either side of
  // that line.
  for (const std::int64_t x :
       {kMin, kMin + 1, std::int64_t{-1}, std::int64_t{0},
        std::int64_t{1} << 48, -(std::int64_t{1} << 54),
        std::int64_t{1} << 55, std::int64_t{1} << 56, std::int64_t{1} << 62,
        kMax}) {
    const std::vector<std::int64_t> v = {x};
    expect_same(reused, v, "one row " + std::to_string(x));
  }
}

} // namespace
} // namespace fluxtrace::codec
