// Crash-consistent live trace following: the *read* side of an active
// capture session (ISSUE 6).
//
// A ResilientWriter appends FLXT v3 chunks to a spool, fsyncing on every
// chunk boundary; a TraceFollower tails that same file while the writer
// is still running — committing a chunk only once its full frame (21-byte
// CRC-protected header + payload) is visible and both CRCs check out.
// Everything short of that is treated as "not yet", never as damage:
//
//   * a torn tail (partial header or payload) stays buffered until the
//     writer finishes it — or until the producer is declared dead, at
//     which point a final salvage pass counts it as torn, never decodes
//     it;
//   * a transient read failure (EIO, EAGAIN, injected fault) retries
//     with capped exponential backoff against the caller's clock — the
//     follower, like the writer, never sleeps;
//   * short reads and stale file metadata (fstat lagging the writer)
//     simply bound this poll's progress;
//   * a mid-file frame that stays invalid while the file keeps growing
//     past it (real corruption, not a tail) is skipped by the same
//     magic-resync scan salvage_trace uses, and counted.
//
// Producer liveness: progress (new committed bytes or chunks) feeds a
// watchdog. Once no progress has been made for liveness_timeout_ns and
// the optional producer_alive() probe (wire a pidfile / kill(pid, 0)
// check here) does not vouch for the writer, the follower runs the final
// salvage pass and finishes with FinishReason::ProducerDeath — a kill -9
// mid-chunk degrades into an exact ledger, not a hang or a crash:
//
//   chunks_observed == chunks_consumed + chunks_salvaged + chunks_torn
//
// where observed counts every data-chunk frame the follower ever saw
// bytes of, consumed the chunks committed live, salvaged the chunks the
// death pass recovered, and torn the incomplete/invalid tail frames that
// were never durable. The clean end is the eof sentinel: the writer's
// close() commits it, the follower sees it and finishes CleanEof.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_file.hpp"

namespace fluxtrace::io {

/// Outcome of one ByteSource operation.
enum class ReadStatus : std::uint8_t {
  Ok,        ///< size/bytes returned (reads may be short)
  Transient, ///< retryable (EINTR, EAGAIN, EIO, file not created yet)
  Fatal,     ///< not retryable (EBADF, unlinked directory, closed)
};

/// Random-access byte view of a file that may still be growing. The
/// follower only ever reads [0, size()) — implementations never need to
/// block at end-of-file.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  struct SizeResult {
    ReadStatus status = ReadStatus::Ok;
    std::uint64_t size = 0; ///< bytes currently visible (may lag writes)
  };
  virtual SizeResult size() = 0;

  struct ReadResult {
    ReadStatus status = ReadStatus::Ok;
    std::size_t n = 0; ///< bytes placed in dst (may be short)
  };
  virtual ReadResult read_at(std::uint64_t offset, char* dst,
                             std::size_t len) = 0;

  /// Human-readable identity for reports ("path" for files).
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// POSIX file source: open(O_RDONLY) retried lazily (the spool may not
/// exist yet — ENOENT is Transient), fstat(2) for size, pread(2) for
/// bytes. EINTR/EAGAIN/EIO report Transient; everything else Fatal.
class FileByteSource final : public ByteSource {
 public:
  explicit FileByteSource(std::string path);
  ~FileByteSource() override;
  FileByteSource(const FileByteSource&) = delete;
  FileByteSource& operator=(const FileByteSource&) = delete;

  SizeResult size() override;
  ReadResult read_at(std::uint64_t offset, char* dst, std::size_t len) override;
  [[nodiscard]] std::string describe() const override { return path_; }

 private:
  bool ensure_open(ReadStatus& status);

  std::string path_;
  int fd_ = -1;
};

/// What an injected fault does to one read attempt. Mirrors
/// sim::ReadFaultKind (sim cannot depend on io; adapt with a lambda).
enum class ReadFault : std::uint8_t {
  None,      ///< read proceeds
  Transient, ///< one-shot retryable error
  Short,     ///< at most half the requested bytes are returned
};

/// Fault-injection decorator for the follow path: consults `read_fault`
/// before each read and `size_stale` before each size query. A stale
/// size query reports the file truncated at `truncate_at` bytes (clamped
/// to the real size) — the follower must treat the missing tail as "not
/// yet", exactly like a torn write.
class FaultableByteSource final : public ByteSource {
 public:
  using ReadFaultFn = std::function<ReadFault()>;
  using StaleFn = std::function<bool()>;
  FaultableByteSource(std::unique_ptr<ByteSource> inner, ReadFaultFn read_fault,
                      StaleFn size_stale, std::uint64_t truncate_at = 0)
      : inner_(std::move(inner)), read_fault_(std::move(read_fault)),
        size_stale_(std::move(size_stale)), truncate_at_(truncate_at) {}

  SizeResult size() override;
  ReadResult read_at(std::uint64_t offset, char* dst, std::size_t len) override;
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

 private:
  std::unique_ptr<ByteSource> inner_;
  ReadFaultFn read_fault_;
  StaleFn size_stale_;
  std::uint64_t truncate_at_;
};

/// How a finished follow ended.
enum class FollowFinish : std::uint8_t {
  None,          ///< not finished yet
  CleanEof,      ///< the writer's eof sentinel was read: a clean close
  ProducerDeath, ///< liveness lapsed: final salvage pass ran
  SourceFatal,   ///< the source failed unrecoverably (after salvage)
  Stopped,       ///< stop() was called (SIGINT path)
};

[[nodiscard]] const char* to_string(FollowFinish f);

struct TraceFollowerConfig {
  /// Transient-read retries within one poll before the poll gives up and
  /// arms the cross-poll backoff gate.
  std::uint32_t max_read_attempts = 8;
  /// Capped exponential backoff between retry polls.
  std::uint64_t backoff_base_ns = 1'000;
  std::uint64_t backoff_cap_ns = 10'000'000;
  /// Producer-death watchdog: this long with zero progress (no new
  /// durable bytes, no chunk committed) declares the producer dead —
  /// unless producer_alive() vouches for it.
  std::uint64_t liveness_timeout_ns = 100'000'000;
  /// Optional liveness probe (pidfile + kill(pid, 0), a supervisor
  /// heartbeat, ...). While it returns true the watchdog never fires.
  std::function<bool()> producer_alive;
  /// Bytes ingested per poll at most (bounds one poll's latency).
  std::size_t max_bytes_per_poll = 4u << 20;
  /// A mid-file frame that stays invalid while at least this many bytes
  /// accumulate beyond it is real damage, not a tail still being
  /// written: resynchronize at the next chunk magic and count it.
  std::size_t resync_after_bytes = 1u << 16;
};

class TraceFollower {
 public:
  TraceFollower(TraceFollowerConfig cfg, std::unique_ptr<ByteSource> source);

  /// Follow a file on disk (the common case).
  [[nodiscard]] static TraceFollower open(const std::string& path,
                                          TraceFollowerConfig cfg = {});

  struct PollResult {
    std::size_t chunks = 0;   ///< data chunks committed by this poll
    TraceData data;           ///< their records, in exact file order
    bool progressed = false;  ///< new durable bytes or chunks this poll
    bool finished = false;    ///< the follow ended during this poll
    bool salvage = false;     ///< data includes the final salvage pass
  };

  /// One non-blocking step against the caller's monotonic clock: check
  /// the source, ingest what is durable, commit every complete chunk,
  /// run the liveness watchdog. Call once per poll interval.
  PollResult poll(std::uint64_t now_ns);

  /// End the follow from outside (SIGINT): everything already buffered
  /// and valid is committed by a last salvage pass, the rest is torn.
  /// Returns that final pass (empty when already finished).
  PollResult stop(std::uint64_t now_ns);

  [[nodiscard]] bool finished() const {
    return finish_ != FollowFinish::None;
  }
  [[nodiscard]] FollowFinish finish_reason() const { return finish_; }
  /// True when a retry is pending and gated on the backoff deadline.
  [[nodiscard]] bool backing_off(std::uint64_t now_ns) const {
    return now_ns < retry_at_ns_;
  }
  [[nodiscard]] std::string source_name() const {
    return source_->describe();
  }

  struct Stats {
    std::uint64_t polls = 0;
    std::uint64_t bytes_consumed = 0;  ///< bytes behind committed chunks
    std::uint64_t bytes_torn = 0;      ///< tail bytes never committed

    // The chunk ledger (data chunks only; the eof sentinel is eof_seen).
    std::uint64_t chunks_observed = 0; ///< frames the follower saw bytes of
    std::uint64_t chunks_consumed = 0; ///< committed live, in order
    std::uint64_t chunks_salvaged = 0; ///< recovered by the final pass
    std::uint64_t chunks_torn = 0;     ///< incomplete/invalid at finish

    std::uint64_t records_markers = 0;
    std::uint64_t records_samples = 0;
    std::uint64_t records_wait_edges = 0;

    std::uint64_t read_transients = 0; ///< retryable source failures
    std::uint64_t short_reads = 0;     ///< reads returning < requested
    std::uint64_t backoff_ns = 0;      ///< total virtual backoff armed
    std::uint64_t resyncs = 0;         ///< mid-file damage scans
    std::uint64_t bytes_skipped = 0;   ///< damaged bytes resynced past

    bool header_seen = false; ///< magic + version (2 or 3) validated
    bool eof_seen = false;    ///< the writer's clean-close sentinel

    /// The exact accounting ISSUE 6 demands: every data-chunk frame the
    /// follower ever observed is consumed, salvaged, or torn.
    [[nodiscard]] bool reconciled() const {
      return chunks_observed ==
             chunks_consumed + chunks_salvaged + chunks_torn;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const TraceFollowerConfig& config() const { return cfg_; }

 private:
  /// Pull durable bytes [read_pos_, durable_size) into buf_. Returns
  /// false when gated on backoff or a transient failure.
  bool ingest(std::uint64_t now_ns, std::uint64_t durable_size,
              PollResult& out);
  /// Commit every complete valid chunk at the front of buf_.
  void parse_committed(std::uint64_t now_ns, PollResult& out);
  /// Final pass over everything buffered: valid chunks -> salvaged,
  /// leftover -> torn. Sets finish_.
  void finish_with_salvage(FollowFinish reason, PollResult& out);
  void note_progress(std::uint64_t now_ns);
  std::uint64_t backoff_delay();
  void drop_consumed_prefix();

  TraceFollowerConfig cfg_;
  std::unique_ptr<ByteSource> source_;

  std::string buf_;            ///< unconsumed bytes [buf_pos_, read_pos_)
  std::uint64_t buf_pos_ = 0;  ///< absolute offset of buf_[0]
  std::uint64_t read_pos_ = 0; ///< absolute offset read so far
  std::size_t parse_at_ = 0;   ///< committed cursor within buf_

  std::uint64_t retry_at_ns_ = 0; ///< backoff gate for the next attempt
  std::uint32_t attempts_ = 0;    ///< consecutive transient failures
  std::uint64_t progress_at_ns_ = 0;
  bool clock_seen_ = false;       ///< progress_at_ns_ initialized

  FollowFinish finish_ = FollowFinish::None;
  Stats stats_;
};

} // namespace fluxtrace::io
