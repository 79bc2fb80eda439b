// Zero-copy trace input: a read-only mmap of the whole file, exposed
// both as a ByteSource (so the follower machinery can poll it) and as a
// raw view() the TraceReader hands straight to the chunk decoders — a
// cold open touches each page once, on first decode, instead of paying
// an up-front slurp copy of the entire image.
//
// Mapped files can shrink underneath the mapping (a rotation, a
// truncate-and-rewrite): pages wholly past the new end-of-file fault
// SIGBUS on touch. current_size() lets TraceReader::bytes() clamp every
// walk to the still-backed prefix before touching anything (every byte
// below the current size lives in a page the file still covers): the
// strict read refuses a shrunk mapping, and every other walk fails on
// the missing tail and salvages the prefix.
//
// map() returns null whenever the platform cannot produce a useful
// mapping — empty file (mmap of length 0 is EINVAL), exotic filesystem,
// no mmap support — and the caller falls back to a pread slurp. Fault
// injection (sim fault plans) also takes the pread path: a real mapping
// has no hook to fail a load from.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "fluxtrace/io/follower.hpp"

namespace fluxtrace::io {

class MmapByteSource final : public ByteSource {
 public:
  /// Map `path` read-only in full. Returns null when the file cannot be
  /// mapped (missing, empty, or mmap failure) — never throws.
  [[nodiscard]] static std::shared_ptr<MmapByteSource> map(
      const std::string& path);

  ~MmapByteSource() override;
  MmapByteSource(const MmapByteSource&) = delete;
  MmapByteSource& operator=(const MmapByteSource&) = delete;

  /// The mapped image as of map() time. Stable for the source's lifetime;
  /// bytes past current_size() are no longer backed and must not be
  /// touched.
  [[nodiscard]] std::string_view view() const {
    return {static_cast<const char*>(addr_), len_};
  }

  /// The file's size right now (fstat on the kept descriptor); 0 when the
  /// file vanished. Growth past the mapping is invisible to view().
  [[nodiscard]] std::size_t current_size() const;

  // ByteSource (follower-style polling over the mapping). read_at serves
  // from the mapping while the file still covers it and falls back to
  // pread past the mapped length (the file may have grown since map()).
  SizeResult size() override;
  ReadResult read_at(std::uint64_t offset, char* dst,
                     std::size_t len) override;
  [[nodiscard]] std::string describe() const override;

 private:
  MmapByteSource(const void* addr, std::size_t len, int fd, std::string path);

  const void* addr_ = nullptr;
  std::size_t len_ = 0;
  int fd_ = -1; // kept open for current_size()
  std::string path_;
};

} // namespace fluxtrace::io
