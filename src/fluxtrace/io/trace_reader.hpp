// The one way in: a format-autodetecting facade over the FLXT chunk
// family (docs/format.md) — v2 raw chunks and v3 compressed chunks, one
// CHNK framing. open_trace() probes the leading bytes and hands back a
// TraceReader that can
//
//   * read()            — strict parse, TraceIoError on any damage;
//   * salvage()         — best-effort recovery chunk by chunk, never
//                         throws on damage.
//
// Anything else — including the retired v1 monolithic and FLXZ compact
// containers — opens as TraceFormat::Unknown: read() refuses it and
// salvage() recovers only what a chunk-magic scan finds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/follower.hpp"
#include "fluxtrace/io/trace_file.hpp"

namespace fluxtrace::io {

class MmapByteSource;

/// What the leading bytes of the file claim it is.
enum class TraceFormat : std::uint8_t {
  Unknown, ///< no recognizable magic — read() throws, salvage() scans
  FlxtV2,  ///< CRC-chunked v2 container (chunked.hpp)
  FlxtV3,  ///< CRC-chunked, compressed columnar chunks (v3.hpp)
};

[[nodiscard]] constexpr std::string_view to_string(TraceFormat f) {
  switch (f) {
    case TraceFormat::Unknown: return "unknown";
    case TraceFormat::FlxtV2: return "flxt-v2";
    case TraceFormat::FlxtV3: return "flxt-v3";
  }
  return "?";
}

/// v2 and v3 are one CHNK chunk family (v3.hpp): everything that walks
/// chunks — index, selective decode, salvage, FLXI, follower — treats
/// them identically.
[[nodiscard]] constexpr bool is_chunked_format(TraceFormat f) {
  return f == TraceFormat::FlxtV2 || f == TraceFormat::FlxtV3;
}

/// An opened trace: the file image plus its detected format. Construct
/// via open_trace() / open_trace_bytes(). The reader owns the bytes, so
/// it stays valid after the file changes on disk; all methods are const
/// and safe to call repeatedly.
class TraceReader {
 public:
  [[nodiscard]] TraceFormat format() const { return format_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// The image's size at open (the mapping's length when mapped).
  [[nodiscard]] std::size_t size_bytes() const { return view_.size(); }
  /// The file image for consumers that walk the container themselves
  /// (io::index_trace_v2 / decode_trace_v2_chunk): a heap copy the reader
  /// owns or a read-only mmap, valid for the reader's lifetime. A mapped
  /// file that shrank yields only its still-backed prefix (pages past it
  /// fault SIGBUS), so a walk fails like a torn write. Mapped, each call
  /// costs an fstat: read it once per walk.
  [[nodiscard]] std::string_view bytes() const;
  /// True when bytes() is a zero-copy mmap of the file rather than a
  /// heap slurp.
  [[nodiscard]] bool mapped() const { return mmap_ != nullptr; }

  /// Strict parse of the whole trace. Throws TraceIoError on damage or an
  /// unrecognized format; errors carry the path when one is known.
  [[nodiscard]] TraceData read() const;

  /// Best-effort recovery; never throws on damaged content. Recovers
  /// chunk by chunk, Unknown input included (it may be a chunked file
  /// with a destroyed header).
  [[nodiscard]] SalvageReport salvage() const;

  /// read() with the standard degraded-mode policy every
  /// analysis consumer wants: a strict parse, and when that reports
  /// damage, the salvaged subset instead of an error. `salvaged` is true
  /// iff the strict parse failed and the rows are a best-effort subset.
  struct ReadResult {
    TraceData data;
    bool salvaged = false;
  };
  [[nodiscard]] ReadResult read_or_salvage() const;

  // Prefer the open_trace() free functions; this is their plumbing.
  TraceReader(std::string bytes, std::string path);
  TraceReader(std::shared_ptr<MmapByteSource> mmap, std::string path);

 private:
  std::shared_ptr<const std::string> owned_; // heap-slurp ownership
  std::shared_ptr<MmapByteSource> mmap_;     // mmap ownership
  std::string_view view_;
  std::string path_;   // empty when opened from memory
  TraceFormat format_ = TraceFormat::Unknown;
};

/// The three-way health verdict every catalog-style consumer needs
/// (hub ingest, federated query): is the trace usable as-is, usable in
/// degraded form, or only fit for quarantine?
enum class TraceHealth : std::uint8_t {
  Clean,         ///< strict read succeeds; every byte accounted for
  Salvaged,      ///< damaged, but a non-empty subset was recovered
  Unrecoverable, ///< damaged and *nothing* was recoverable
};

[[nodiscard]] constexpr std::string_view to_string(TraceHealth h) {
  switch (h) {
    case TraceHealth::Clean: return "clean";
    case TraceHealth::Salvaged: return "salvaged";
    case TraceHealth::Unrecoverable: return "unrecoverable";
  }
  return "?";
}

/// classify_trace(): one verdict plus the SalvageReport counts for exact
/// per-trace loss accounting (the quarantine ledger records chunks lost
/// / bytes skipped, not just "damaged").
struct TraceTriage {
  TraceHealth health = TraceHealth::Unrecoverable;
  /// The counts salvage reports. report.data holds the salvaged records
  /// of a damaged trace and stays empty for a clean one.
  SalvageReport report;
  /// Sample records in the trace (clean), or the ones salvage recovered.
  std::size_t rows = 0;
};

/// A strict chunk walk that holds one chunk of records at a time; only
/// when it fails does salvage() run. The verdict and counts are exactly
/// salvage()'s: a walk that succeeds is a trace salvage finds clean.
[[nodiscard]] TraceTriage classify_trace(const TraceReader& reader);

/// How open_trace acquires the bytes.
struct OpenOptions {
  /// Skip mmap and slurp via pread even when a mapping would work
  /// (benchmark baselines; filesystems where mmap reads are slow).
  bool force_pread = false;
  /// Fault injected before each pread attempt (adapt a sim::FaultPlan
  /// with a lambda — io cannot depend on sim). Only consulted on the
  /// pread path: a real mapping has no load hook to fail from, so
  /// providing a fault hook implies force_pread.
  std::function<ReadFault()> read_fault;
  /// Transient-read retries per offset before open gives up.
  std::uint32_t max_read_attempts = 8;
};

/// Open a trace file, detect its format. The file is mmap'd read-only
/// when possible (zero-copy: pages are touched on first decode, not
/// slurped up front) and pread into a heap buffer otherwise — empty
/// files, mmap-hostile filesystems, force_pread, or fault injection.
/// Throws TraceIoError only when the file cannot be read at all (message
/// carries path and errno); unrecognized content still opens, as
/// TraceFormat::Unknown.
[[nodiscard]] TraceReader open_trace(const std::string& path);
[[nodiscard]] TraceReader open_trace(const std::string& path,
                                     const OpenOptions& opts);

/// Same, over an in-memory file image (tests, network transports).
[[nodiscard]] TraceReader open_trace_bytes(std::string bytes);

} // namespace fluxtrace::io
