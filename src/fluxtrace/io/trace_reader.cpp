#include "fluxtrace/io/trace_reader.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "fluxtrace/io/chunk_util.hpp"
#include "fluxtrace/io/mmap_source.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/obs/span.hpp"

namespace fluxtrace::io {

namespace {

using detail::peek_u32;

TraceFormat detect(std::string_view bytes) {
  if (bytes.size() >= 8 && peek_u32(bytes, 0) == kTraceMagic) {
    const std::uint32_t version = peek_u32(bytes, 4);
    if (version == kTraceVersion2) return TraceFormat::FlxtV2;
    if (version == kTraceVersion3) return TraceFormat::FlxtV3;
  }
  return TraceFormat::Unknown;
}

// Self-telemetry (ISSUE 3): decode throughput and format mix.
struct IoMetrics {
  obs::Counter& reads = obs::metrics().counter("io.reads");
  obs::Counter& bytes = obs::metrics().counter("io.bytes_decoded");
  obs::Counter& mmap_opens = obs::metrics().counter("io.mmap_opens");
  obs::Counter& pread_opens = obs::metrics().counter("io.pread_opens");

  static IoMetrics& get() {
    static IoMetrics m;
    return m;
  }
};

/// Slurp `path` through pread(2) with transient-fault retries. The
/// injected fault (OpenOptions::read_fault) is consulted before every
/// attempt: Transient costs one attempt, Short halves the request (both
/// exactly as FaultableByteSource treats the follow path).
std::string pread_slurp(const std::string& path, const OpenOptions& opts) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw TraceIoError("cannot open for reading: " + path + ": " +
                       std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int e = errno;
    ::close(fd);
    throw TraceIoError("cannot stat: " + path + ": " + std::strerror(e));
  }
  std::string buf;
  buf.resize(st.st_size > 0 ? static_cast<std::size_t>(st.st_size) : 0);
  std::size_t at = 0;
  std::uint32_t attempts = 0;
  const std::uint32_t max_attempts = std::max(1u, opts.max_read_attempts);
  while (at < buf.size()) {
    std::size_t want = buf.size() - at;
    if (opts.read_fault) {
      switch (opts.read_fault()) {
        case ReadFault::None: break;
        case ReadFault::Transient:
          if (++attempts >= max_attempts) {
            ::close(fd);
            throw TraceIoError("persistent read fault at offset " +
                               std::to_string(at) + ": " + path);
          }
          continue;
        case ReadFault::Short:
          want = std::max<std::size_t>(1, want / 2);
          break;
      }
    }
    const ssize_t n = ::pread(fd, buf.data() + at, want,
                              static_cast<off_t>(at));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EIO) {
        if (++attempts >= max_attempts) {
          const int e = errno;
          ::close(fd);
          throw TraceIoError("read failed at offset " + std::to_string(at) +
                             ": " + path + ": " + std::strerror(e));
        }
        continue;
      }
      const int e = errno;
      ::close(fd);
      throw TraceIoError("read failed: " + path + ": " + std::strerror(e));
    }
    if (n == 0) {
      // The file shrank between fstat and here: the image is what we got.
      buf.resize(at);
      break;
    }
    at += static_cast<std::size_t>(n);
    attempts = 0;
  }
  ::close(fd);
  return buf;
}

} // namespace

TraceReader::TraceReader(std::string bytes, std::string path)
    : owned_(std::make_shared<const std::string>(std::move(bytes))),
      view_(*owned_), path_(std::move(path)), format_(detect(view_)) {}

TraceReader::TraceReader(std::shared_ptr<MmapByteSource> mmap,
                         std::string path)
    : mmap_(std::move(mmap)), view_(mmap_->view()), path_(std::move(path)),
      format_(detect(view_)) {}

std::string_view TraceReader::bytes() const {
  if (mmap_ == nullptr) return view_;
  return view_.substr(0, std::min(view_.size(), mmap_->current_size()));
}

TraceData TraceReader::read() const {
  OBS_SPAN("io.read");
  IoMetrics::get().reads.inc();
  IoMetrics::get().bytes.inc(view_.size());
  try {
    const std::string_view whole = bytes();
    if (whole.size() < view_.size()) {
      // A strict read refuses a mapping the file no longer backs: the
      // missing tail is indistinguishable from truncation damage.
      throw TraceIoError("file truncated while mapped (" +
                         std::to_string(whole.size()) + " of " +
                         std::to_string(view_.size()) + " bytes remain)");
    }
    if (is_chunked_format(format_)) return read_trace_v2_body(whole.substr(8));
    if (whole.size() >= 8 && peek_u32(whole, 0) == kTraceMagic) {
      throw TraceIoError("unsupported trace version " +
                         std::to_string(peek_u32(whole, 4)));
    }
    throw TraceIoError("not a fluxtrace file (bad magic)");
  } catch (const TraceIoError& e) {
    if (path_.empty()) throw;
    throw TraceIoError(std::string(e.what()) + ": " + path_);
  }
}

SalvageReport TraceReader::salvage() const {
  OBS_SPAN("io.salvage");
  // Unknown bytes get the same chunk scan as a chunked file: they may be
  // one whose 8-byte header was destroyed, and the chunk-magic resync
  // finds the surviving chunks regardless. A mapping the file shrank
  // under is clamped to its still-backed prefix — salvage reports the
  // clamped-off tail as truncated bytes.
  const std::string_view whole = bytes();
  SalvageReport rep = salvage_trace(whole);
  rep.bytes_truncated += view_.size() - whole.size();
  return rep;
}

TraceTriage classify_trace(const TraceReader& reader) {
  OBS_SPAN("io.classify");
  TraceTriage t;
  // The strict walk: the same checks read() makes, one chunk of records
  // held at a time. A mapping the file shrank under is damage salvage
  // must account, so it skips the walk.
  const std::string_view image = reader.bytes();
  if (image.size() == reader.size_bytes()) {
    try {
      const std::vector<V2ChunkRef> chunks = index_trace_v2(image);
      TraceData scratch;
      for (const V2ChunkRef& ref : chunks) {
        decode_trace_v2_chunk(image, ref, scratch);
        scratch.markers.clear();
        scratch.samples.clear();
        scratch.wait_edges.clear();
        if (is_sample_chunk_type(ref.type)) t.rows += ref.n_records;
      }
      t.health = TraceHealth::Clean;
      t.report.header_ok = true;
      t.report.eof_ok = true;
      t.report.chunks_ok = chunks.size();
      return t;
    } catch (const TraceIoError&) {
      // damaged: salvage decides and counts
    }
  }
  t.report = reader.salvage();
  t.rows = t.report.data.samples.size();
  if (t.report.clean()) {
    t.health = TraceHealth::Clean;
    return t;
  }
  const bool any_data = t.report.chunks_ok > 0 ||
                        !t.report.data.markers.empty() ||
                        !t.report.data.samples.empty() ||
                        !t.report.data.wait_edges.empty();
  t.health = any_data ? TraceHealth::Salvaged : TraceHealth::Unrecoverable;
  return t;
}

TraceReader::ReadResult TraceReader::read_or_salvage() const {
  ReadResult out;
  try {
    out.data = read();
  } catch (const TraceIoError&) {
    out.data = std::move(salvage().data);
    out.salvaged = true;
  }
  return out;
}

TraceReader open_trace(const std::string& path) {
  return open_trace(path, OpenOptions{});
}

TraceReader open_trace(const std::string& path, const OpenOptions& opts) {
  // A fault hook implies the pread path: a live mapping has no per-read
  // hook to inject through.
  if (!opts.force_pread && !opts.read_fault) {
    if (auto m = MmapByteSource::map(path)) {
      IoMetrics::get().mmap_opens.inc();
      return {std::move(m), path};
    }
    // Unmappable (missing, empty, or mmap-hostile): if the file simply
    // does not exist, pread_slurp produces the errno-carrying throw.
  }
  IoMetrics::get().pread_opens.inc();
  return {pread_slurp(path, opts), path};
}

TraceReader open_trace_bytes(std::string bytes) {
  return {std::move(bytes), std::string{}};
}

} // namespace fluxtrace::io
