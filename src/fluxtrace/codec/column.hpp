// Column codecs for the FLXT v3 compressed columnar container
// (docs/format.md). A column is n int64 values; the encoder picks, per
// column per chunk, the cheapest of six encodings by *exact* encoded
// size — there is no heuristic that can mispredict:
//
//   Raw64       fixed 8 bytes/value (the fallback; never larger than v2)
//   Const       one zigzag varint, all n values equal (idle GPR columns)
//   Varint      n zigzag varints (small-magnitude, unordered)
//   DeltaVarint first value + n-1 zigzag varint deltas (timestamps)
//   Dict        sorted distinct values + bit-packed indices (func/item
//               ids: few distinct values, any order)
//   ForPack     frame-of-reference: min + fixed-width bit-packed offsets
//               (core ids, durations, ips clustered in a code segment)
//
// Decoding is total and hostile-input hardened: every codec validates
// its payload against the caller-supplied row count before allocating
// anything (dictionary sizes are bounded by n, bit-pack widths by 64,
// varints must be canonical), and any irregularity — truncation, trailing
// bytes, out-of-range dictionary index, unsorted dictionary — returns
// false rather than throwing or reading out of bounds. The chunk CRC
// catches random damage; these checks make *crafted* payloads equally
// inert (the FLXI forged-count discipline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fluxtrace::codec {

enum class ColumnCodec : std::uint8_t {
  Raw64 = 0,
  Const = 1,
  Varint = 2,
  DeltaVarint = 3,
  Dict = 4,
  ForPack = 5,
};

inline constexpr std::uint8_t kNumColumnCodecs = 6;

/// Human-readable codec name for flxt_dump ("raw64", "dict", ...).
[[nodiscard]] std::string_view column_codec_name(ColumnCodec c);

/// Largest dictionary encode_column_best() will build. Beyond this the
/// index widths stop paying for the dictionary itself and ForPack or
/// Varint win anyway.
inline constexpr std::size_t kMaxDictEntries = 4096;

struct EncodedColumn {
  ColumnCodec codec = ColumnCodec::Raw64;
  std::string bytes;
};

/// Encode `values` with the cheapest applicable codec (exact encoded
/// sizes compared; ties break toward the simpler codec). An empty column
/// encodes as Raw64 with no bytes.
[[nodiscard]] EncodedColumn encode_column_best(
    std::span<const std::int64_t> values);

/// Encode with one specific codec (for tests and size accounting).
/// Const requires all values equal; Dict requires the distinct count to
/// fit kMaxDictEntries. Throws std::invalid_argument when the codec
/// cannot represent `values`.
[[nodiscard]] std::string encode_column(std::span<const std::int64_t> values,
                                        ColumnCodec codec);

/// encode_column_best with its working memory kept from call to call: a
/// chunk encoder holds one, so encoding a column allocates nothing once
/// the buffers have grown to the chunk size. Same codec, same bytes.
///
/// It skips the dictionary's distinct-value pass outright when even the
/// smallest dictionary the column could have is no smaller than another
/// codec's exact size, and stops that pass as soon as the distinct count
/// proves the same; constant columns finish after one equality scan.
class ColumnEncoder {
 public:
  /// Append the encoding of `values` to `out`; returns its codec.
  ColumnCodec encode_best(std::span<const std::int64_t> values,
                          std::string& out);

 private:
  /// Collect the distinct values of `v` into dict_ (unsorted) while
  /// there are at most `limit`; false as soon as there are more.
  bool collect_distinct(std::span<const std::int64_t> v, std::size_t limit);
  /// The set slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::int64_t key) const;
  /// Append the Dict encoding of `v` over the sorted dict_.
  void encode_dict(std::span<const std::int64_t> v, std::string& out);

  friend std::string encode_column(std::span<const std::int64_t> values,
                                   ColumnCodec codec);

  std::vector<std::int64_t> dict_;     ///< distinct values, then sorted
  std::vector<std::uint64_t> words_;   ///< dictionary indices / FoR offsets
  // Open-addressing set of distinct values; a slot is in use when its
  // tag equals the current epoch, so no call has to clear it.
  std::vector<std::int64_t> set_key_;
  std::vector<std::uint32_t> set_tag_;
  std::vector<std::uint32_t> set_index_; ///< slot -> sorted dict index
  std::uint32_t epoch_ = 0;
  unsigned shift_ = 63; ///< 64 - log2(the slots this call uses)
};

/// Decode exactly `n` values from `payload` into `out[0..n)`. Returns
/// false on any irregularity: unknown codec, truncated or overlong
/// payload (every byte must be consumed), non-canonical varints,
/// dictionary larger than n / not strictly sorted / with out-of-range
/// indices, or a bit-pack width over 64. On false, `out` contents are
/// unspecified but no out-of-bounds access has occurred and no
/// allocation beyond O(n) was made.
[[nodiscard]] bool decode_column(ColumnCodec codec, std::string_view payload,
                                 std::size_t n, std::int64_t* out);

} // namespace fluxtrace::codec
