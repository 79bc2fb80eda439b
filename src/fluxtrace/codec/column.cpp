#include "fluxtrace/codec/column.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fluxtrace/codec/bitpack.hpp"
#include "fluxtrace/codec/varint.hpp"

namespace fluxtrace::codec {

namespace {

constexpr std::size_t kNoFit = std::numeric_limits<std::size_t>::max();

[[nodiscard]] std::uint64_t as_u64(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

[[nodiscard]] std::int64_t as_i64(std::uint64_t v) {
  return static_cast<std::int64_t>(v);
}

/// v[i] - v[i-1] with two's-complement wrap (defined in unsigned
/// arithmetic; the decoder reverses it with a wrapping add, so deltas
/// round-trip even across the full int64 range).
[[nodiscard]] std::int64_t wrap_delta(std::int64_t a, std::int64_t b) {
  return as_i64(as_u64(a) - as_u64(b));
}

// --- per-codec encoders (each appends to `out`) -----------------------

void encode_raw64(std::span<const std::int64_t> v, std::string& out) {
  const std::size_t base = out.size();
  out.resize(base + v.size() * 8);
  char* p = out.data() + base;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, v.data(), v.size() * 8);
  } else {
    for (const std::int64_t x : v) {
      for (int k = 0; k < 8; ++k) {
        *p++ = static_cast<char>((as_u64(x) >> (8 * k)) & 0xffu);
      }
    }
  }
}

void encode_const(std::span<const std::int64_t> v, std::string& out) {
  put_varint(out, zigzag(v[0]));
}

/// put_varint's bytes, written at `p`; returns the end.
[[nodiscard]] char* write_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(0x80u | (v & 0x7fu));
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

[[nodiscard]] std::size_t varints_size(std::span<const std::int64_t> v) {
  std::size_t s = 0;
  for (std::int64_t x : v) s += varint_len(zigzag(x));
  return s;
}

[[nodiscard]] std::size_t delta_size(std::span<const std::int64_t> v) {
  std::size_t s = varint_len(zigzag(v[0]));
  for (std::size_t i = 1; i < v.size(); ++i) {
    s += varint_len(zigzag(wrap_delta(v[i], v[i - 1])));
  }
  return s;
}

/// `size` must be varints_size(v).
void encode_varints(std::span<const std::int64_t> v, std::size_t size,
                    std::string& out) {
  const std::size_t base = out.size();
  out.resize(base + size);
  char* p = out.data() + base;
  for (std::int64_t x : v) p = write_varint(p, zigzag(x));
}

/// `size` must be delta_size(v).
void encode_delta(std::span<const std::int64_t> v, std::size_t size,
                  std::string& out) {
  const std::size_t base = out.size();
  out.resize(base + size);
  char* p = write_varint(out.data() + base, zigzag(v[0]));
  for (std::size_t i = 1; i < v.size(); ++i) {
    p = write_varint(p, zigzag(wrap_delta(v[i], v[i - 1])));
  }
}

[[nodiscard]] std::size_t dict_encoded_size(std::size_t n,
                                            const std::vector<std::int64_t>& d) {
  std::size_t s = varint_len(d.size()) + varint_len(zigzag(d[0]));
  for (std::size_t i = 1; i < d.size(); ++i) {
    s += varint_len(as_u64(d[i]) - as_u64(d[i - 1]) - 1);
  }
  return s + packed_bytes(n, bit_width_u64(d.size() - 1));
}

/// Frame-of-reference layout: zigzag varint min | u8 width | offsets
/// (v - min, unsigned wrap) bit-packed at `width`. `offs` is scratch.
void encode_forpack(std::span<const std::int64_t> v, std::int64_t min,
                    unsigned width, std::vector<std::uint64_t>& offs,
                    std::string& out) {
  put_varint(out, zigzag(min));
  out.push_back(static_cast<char>(width));
  offs.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    offs[i] = as_u64(v[i]) - as_u64(min);
  }
  pack_bits(out, offs, width);
}

// --- per-codec decoders (strict: every byte must be consumed) ---------

[[nodiscard]] bool decode_raw64(std::string_view b, std::size_t n,
                                std::int64_t* out) {
  if (b.size() != n * 8) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(b.data());
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t u = 0;
    for (int k = 0; k < 8; ++k) {
      u |= static_cast<std::uint64_t>(p[i * 8 + k]) << (8 * k);
    }
    out[i] = as_i64(u);
  }
  return true;
}

[[nodiscard]] bool decode_const(std::string_view b, std::size_t n,
                                std::int64_t* out) {
  std::size_t pos = 0;
  std::uint64_t z = 0;
  if (!get_varint(b, pos, z) || pos != b.size()) return false;
  const std::int64_t v = unzigzag(z);
  for (std::size_t i = 0; i < n; ++i) out[i] = v;
  return true;
}

[[nodiscard]] bool decode_varints(std::string_view b, std::size_t n,
                                  std::int64_t* out) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t z = 0;
    if (!get_varint(b, pos, z)) return false;
    out[i] = unzigzag(z);
  }
  return pos == b.size();
}

[[nodiscard]] bool decode_delta(std::string_view b, std::size_t n,
                                std::int64_t* out) {
  std::size_t pos = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t z = 0;
    if (!get_varint(b, pos, z)) return false;
    acc = i == 0 ? static_cast<std::uint64_t>(unzigzag(z))
                 : acc + static_cast<std::uint64_t>(unzigzag(z));
    out[i] = as_i64(acc);
  }
  return pos == b.size();
}

[[nodiscard]] bool decode_dict(std::string_view b, std::size_t n,
                               std::int64_t* out) {
  std::size_t pos = 0;
  std::uint64_t n_dict = 0;
  if (!get_varint(b, pos, n_dict)) return false;
  // A dictionary never has more entries than rows, and the encoder caps
  // it at kMaxDictEntries — anything larger is forged, and rejecting it
  // here bounds the allocation below.
  if (n_dict == 0 || n_dict > n || n_dict > kMaxDictEntries) return false;
  std::vector<std::int64_t> d(static_cast<std::size_t>(n_dict));
  std::uint64_t z = 0;
  if (!get_varint(b, pos, z)) return false;
  d[0] = unzigzag(z);
  for (std::size_t i = 1; i < d.size(); ++i) {
    std::uint64_t gap = 0;
    if (!get_varint(b, pos, gap)) return false;
    d[i] = as_i64(as_u64(d[i - 1]) + gap + 1);
    if (d[i] <= d[i - 1]) return false; // wrapped: not a sorted dictionary
  }
  const unsigned width = bit_width_u64(n_dict - 1);
  std::vector<std::uint64_t> idx(n);
  if (!unpack_bits(b, pos, n, width, idx.data())) return false;
  if (pos != b.size()) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (idx[i] >= n_dict) return false; // forged index past the dictionary
    out[i] = d[static_cast<std::size_t>(idx[i])];
  }
  return true;
}

[[nodiscard]] bool decode_forpack(std::string_view b, std::size_t n,
                                  std::int64_t* out) {
  std::size_t pos = 0;
  std::uint64_t z = 0;
  if (!get_varint(b, pos, z)) return false;
  const std::uint64_t min = as_u64(unzigzag(z));
  if (pos >= b.size()) return false;
  const unsigned width = static_cast<unsigned char>(b[pos++]);
  if (width > 64) return false;
  std::vector<std::uint64_t> offs(n);
  if (!unpack_bits(b, pos, n, width, offs.data())) return false;
  if (pos != b.size()) return false;
  for (std::size_t i = 0; i < n; ++i) out[i] = as_i64(min + offs[i]);
  return true;
}

} // namespace

std::string_view column_codec_name(ColumnCodec c) {
  switch (c) {
  case ColumnCodec::Raw64: return "raw64";
  case ColumnCodec::Const: return "const";
  case ColumnCodec::Varint: return "varint";
  case ColumnCodec::DeltaVarint: return "delta";
  case ColumnCodec::Dict: return "dict";
  case ColumnCodec::ForPack: return "forpack";
  }
  return "?";
}

std::string encode_column(std::span<const std::int64_t> values,
                          ColumnCodec codec) {
  std::string out;
  if (values.empty()) {
    if (codec != ColumnCodec::Raw64) {
      throw std::invalid_argument("empty column encodes as Raw64 only");
    }
    return out;
  }
  switch (codec) {
  case ColumnCodec::Raw64:
    encode_raw64(values, out);
    return out;
  case ColumnCodec::Const:
    for (std::int64_t v : values) {
      if (v != values[0]) {
        throw std::invalid_argument("Const codec on a non-constant column");
      }
    }
    encode_const(values, out);
    return out;
  case ColumnCodec::Varint:
    encode_varints(values, varints_size(values), out);
    return out;
  case ColumnCodec::DeltaVarint:
    encode_delta(values, delta_size(values), out);
    return out;
  case ColumnCodec::Dict: {
    ColumnEncoder enc;
    if (!enc.collect_distinct(values, kMaxDictEntries)) {
      throw std::invalid_argument("Dict codec: too many distinct values");
    }
    std::sort(enc.dict_.begin(), enc.dict_.end());
    enc.encode_dict(values, out);
    return out;
  }
  case ColumnCodec::ForPack: {
    const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
    const unsigned width = bit_width_u64(as_u64(*mx) - as_u64(*mn));
    std::vector<std::uint64_t> offs;
    encode_forpack(values, *mn, width, offs, out);
    return out;
  }
  }
  throw std::invalid_argument("unknown column codec");
}

EncodedColumn encode_column_best(std::span<const std::int64_t> values) {
  EncodedColumn enc;
  ColumnEncoder encoder;
  enc.codec = encoder.encode_best(values, enc.bytes);
  return enc;
}

ColumnCodec ColumnEncoder::encode_best(std::span<const std::int64_t> values,
                                       std::string& out) {
  if (values.empty()) return ColumnCodec::Raw64; // no bytes
  const std::size_t n = values.size();
  const std::int64_t v0 = values[0];

  // A constant column: Const is smaller than every other codec, or ties
  // and precedes it, except Raw64 on one value whose varint is wider
  // than 8 bytes.
  std::size_t same = 1;
  while (same < n && values[same] == v0) ++same;
  if (same == n) {
    if (n * 8 < varint_len(zigzag(v0))) {
      encode_raw64(values, out);
      return ColumnCodec::Raw64;
    }
    encode_const(values, out);
    return ColumnCodec::Const;
  }

  // One pass for min/max and the delta sum.
  std::int64_t mn = v0;
  std::int64_t mx = v0;
  std::size_t delta_sz = varint_len(zigzag(v0));
  for (std::size_t i = 1; i < n; ++i) {
    const std::int64_t v = values[i];
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    delta_sz += varint_len(zigzag(wrap_delta(v, values[i - 1])));
  }
  const unsigned for_width = bit_width_u64(as_u64(mx) - as_u64(mn));
  const std::size_t for_sz =
      varint_len(zigzag(mn)) + 1 + packed_bytes(n, for_width);
  const std::size_t raw_sz = n * 8;

  // Varint is chosen only when it is smaller than ForPack and
  // DeltaVarint (which precede it), and every value takes at least the
  // varint of the value nearest zero; sum the varints only when that
  // floor leaves it a chance.
  const std::uint64_t z_floor = mn > 0 ? zigzag(mn) : mx < 0 ? zigzag(mx) : 0;
  std::size_t varint_sz = kNoFit;
  if (n * varint_len(z_floor) < std::min(for_sz, delta_sz)) {
    varint_sz = varints_size(values);
  }

  // Likewise the dictionary must be smaller than ForPack and DeltaVarint
  // and no larger than Varint and Raw64. With d entries it takes at
  // least dict_floor(d) bytes: the count, the first entry (the column
  // minimum), a byte per later entry and the packed indices. The floor
  // grows with d, so it bounds how many distinct values are worth
  // collecting; a dictionary must also stay within kMaxDictEntries and
  // below one entry per row.
  const std::size_t beat = std::min(for_sz, delta_sz);
  const std::size_t tie = std::min(varint_sz, raw_sz);
  const auto dict_floor = [&](std::size_t d) {
    return varint_len(d) + varint_len(zigzag(mn)) + (d - 1) +
           packed_bytes(n, bit_width_u64(d - 1));
  };
  std::size_t d_max = 0;
  for (std::size_t lo = 2, hi = std::min(kMaxDictEntries, n - 1); lo <= hi;) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (const std::size_t f = dict_floor(mid); f < beat && f <= tie) {
      d_max = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  std::size_t dict_sz = kNoFit;
  if (d_max >= 2 && collect_distinct(values, d_max)) {
    std::sort(dict_.begin(), dict_.end());
    dict_sz = dict_encoded_size(n, dict_);
  }

  // Fixed preference order breaks size ties toward the simpler decode.
  struct Cand {
    ColumnCodec codec;
    std::size_t size;
  };
  const Cand cands[] = {
      {ColumnCodec::ForPack, for_sz}, {ColumnCodec::DeltaVarint, delta_sz},
      {ColumnCodec::Dict, dict_sz},   {ColumnCodec::Varint, varint_sz},
      {ColumnCodec::Raw64, raw_sz},
  };
  Cand best = cands[0];
  for (const Cand& c : cands) {
    if (c.size < best.size) best = c;
  }

  out.reserve(out.size() + best.size);
  switch (best.codec) {
  case ColumnCodec::ForPack:
    encode_forpack(values, mn, for_width, words_, out);
    break;
  case ColumnCodec::DeltaVarint: encode_delta(values, delta_sz, out); break;
  case ColumnCodec::Dict: encode_dict(values, out); break;
  case ColumnCodec::Varint: encode_varints(values, varint_sz, out); break;
  case ColumnCodec::Raw64: encode_raw64(values, out); break;
  case ColumnCodec::Const: break; // constant columns returned above
  }
  return best.codec;
}

std::size_t ColumnEncoder::probe(std::int64_t key) const {
  const std::size_t mask = (std::size_t{1} << (64 - shift_)) - 1;
  for (std::size_t s = (as_u64(key) * 0x9e3779b97f4a7c15ull) >> shift_;;
       s = (s + 1) & mask) {
    if (set_tag_[s] != epoch_ || set_key_[s] == key) return s;
  }
}

bool ColumnEncoder::collect_distinct(std::span<const std::int64_t> v,
                                     std::size_t limit) {
  // At most limit + 1 keys go in, so 2(limit + 1) slots keep the load
  // under one half.
  const unsigned bits = static_cast<unsigned>(std::bit_width(2 * limit + 1));
  const std::size_t slots = std::size_t{1} << bits;
  shift_ = 64 - bits;
  if (set_tag_.size() < slots) { // grown once, then reused at any size
    set_key_.resize(slots);
    set_index_.resize(slots);
    set_tag_.assign(slots, 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) { // tags wrapped: forget every old epoch
    std::fill(set_tag_.begin(), set_tag_.end(), 0);
    epoch_ = 1;
  }
  dict_.clear();
  const auto add = [this](std::int64_t key) {
    const std::size_t s = probe(key);
    if (set_tag_[s] == epoch_) return;
    set_tag_[s] = epoch_;
    set_key_[s] = key;
    dict_.push_back(key);
  };
  // Runs of one value (item ids, core ids) cost a compare, not a probe.
  std::int64_t prev = v[0];
  add(prev);
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] == prev) continue;
    prev = v[i];
    add(prev);
    if (dict_.size() > limit) return false;
  }
  return true;
}

void ColumnEncoder::encode_dict(std::span<const std::int64_t> v,
                                std::string& out) {
  // Layout: varint n_dict | zigzag varint d[0] | varint (d[i]-d[i-1]-1)
  // for i in [1,n_dict) | indices bit-packed at bit_width(n_dict-1).
  // Storing gap-minus-one makes a strictly sorted dictionary the only
  // expressible kind.
  put_varint(out, dict_.size());
  put_varint(out, zigzag(dict_[0]));
  for (std::size_t i = 1; i < dict_.size(); ++i) {
    put_varint(out, as_u64(dict_[i]) - as_u64(dict_[i - 1]) - 1);
  }
  for (std::size_t k = 0; k < dict_.size(); ++k) {
    set_index_[probe(dict_[k])] = static_cast<std::uint32_t>(k);
  }
  words_.resize(v.size());
  std::int64_t prev = v[0];
  std::uint64_t idx = set_index_[probe(prev)];
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != prev) {
      prev = v[i];
      idx = set_index_[probe(prev)];
    }
    words_[i] = idx;
  }
  pack_bits(out, words_, bit_width_u64(dict_.size() - 1));
}

bool decode_column(ColumnCodec codec, std::string_view payload, std::size_t n,
                   std::int64_t* out) {
  if (static_cast<std::uint8_t>(codec) >= kNumColumnCodecs) return false;
  if (n == 0) return payload.empty();
  switch (codec) {
  case ColumnCodec::Raw64: return decode_raw64(payload, n, out);
  case ColumnCodec::Const: return decode_const(payload, n, out);
  case ColumnCodec::Varint: return decode_varints(payload, n, out);
  case ColumnCodec::DeltaVarint: return decode_delta(payload, n, out);
  case ColumnCodec::Dict: return decode_dict(payload, n, out);
  case ColumnCodec::ForPack: return decode_forpack(payload, n, out);
  }
  return false;
}

} // namespace fluxtrace::codec
