// Resilient capture spooling: the *write* side of crash-safe tracing.
//
// PR 1 made the read side survive damage (CRC salvage); this module makes
// the path that *produces* those files survive hours of live capture:
// slow disks, transient write errors, a helper process wedged behind a
// full SSD queue. The paper's whole premise — catching a single
// occurrence of a fluctuation — dies if the one window that mattered is
// silently dropped because write(2) hiccupped.
//
//   OnlineTracer dump ──▶ ResilientWriter ──▶ SpoolSink (primary)
//                          │ bounded chunk queue      └▶ SpoolSink (secondary)
//                          │ overflow policy: block / drop-oldest / drop-newest
//                          │ retry w/ capped exponential backoff + jitter
//                          │ fsync per chunk (crash-consistent with flxt_recover)
//                          └ circuit breaker per sink, failover on persistence
//
// Invariants:
//   * every record handed to the writer is accounted exactly once:
//     committed (written + fsynced), queue-dropped (overflow policy), or
//     sink-lost (no usable sink at close) — stats() reconciles exactly;
//   * a kill -9 at any point leaves a spool whose fsynced chunks salvage
//     with zero CRC failures (chunks are written whole, synced on their
//     boundary, and the eof sentinel only appears on a clean close);
//   * the writer never blocks the capture hot path on a broken sink:
//     Block policy applies backpressure by *pumping*, not waiting, and a
//     sink that stays broken converts pressure into counted drops.
//
// Time base: the writer is single-threaded and driven by pump(now) with a
// caller-supplied monotonic clock (virtual TSC-derived ns in simulation,
// steady ns in a live deployment). Backoff delays gate retries against
// that clock; the writer never sleeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "fluxtrace/base/markers.hpp"
#include "fluxtrace/base/samples.hpp"
#include "fluxtrace/io/v3.hpp"

namespace fluxtrace::io {

/// Outcome of one SpoolSink::write attempt.
enum class SinkStatus : std::uint8_t {
  Ok,        ///< all or some bytes accepted (see SinkResult::written)
  Transient, ///< retryable (EINTR, EAGAIN, injected transient fault)
  Fatal,     ///< not retryable on this sink (ENOSPC, EBADF, closed)
};

struct SinkResult {
  SinkStatus status = SinkStatus::Ok;
  std::size_t written = 0; ///< bytes accepted (may be short on Ok)
};

/// Append-only byte sink a spool writes into. Implementations must accept
/// partial writes (return the count) and provide a durability barrier.
class SpoolSink {
 public:
  virtual ~SpoolSink() = default;
  virtual SinkResult write(const char* data, std::size_t len) = 0;
  /// Durability barrier (fsync). False = the barrier failed (retryable).
  [[nodiscard]] virtual bool sync() = 0;
  /// Human-readable identity for reports ("path" for files).
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// POSIX file sink: open(O_CREAT|O_TRUNC|O_APPEND), write(2), fsync(2).
/// EINTR/EAGAIN report Transient; ENOSPC/EIO and friends report Fatal.
class FileSpoolSink final : public SpoolSink {
 public:
  /// Never throws: a sink that cannot open reports Fatal on first write,
  /// so the writer's failover logic handles creation failures too.
  explicit FileSpoolSink(std::string path);
  ~FileSpoolSink() override;
  FileSpoolSink(const FileSpoolSink&) = delete;
  FileSpoolSink& operator=(const FileSpoolSink&) = delete;

  SinkResult write(const char* data, std::size_t len) override;
  [[nodiscard]] bool sync() override;
  [[nodiscard]] std::string describe() const override { return path_; }
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// What an injected sink fault does to one write attempt. Mirrors
/// sim::SinkFaultKind (sim cannot depend on io; adapt with a lambda).
enum class SinkFault : std::uint8_t {
  None,      ///< write proceeds
  Transient, ///< one-shot retryable error
  Stuck,     ///< sink wedged: fails now and for a scheduled window
  NoSpace,   ///< persistent fatal (device full)
};

/// Fault-injection decorator: consults `fault_fn` before each write and
/// turns its verdict into the corresponding SinkStatus without touching
/// the inner sink. sync() is only faulted while a Stuck/NoSpace verdict
/// is active for the current write index.
class FaultableSink final : public SpoolSink {
 public:
  using FaultFn = std::function<SinkFault(std::size_t bytes)>;
  FaultableSink(std::unique_ptr<SpoolSink> inner, FaultFn fault_fn)
      : inner_(std::move(inner)), fault_(std::move(fault_fn)) {}

  SinkResult write(const char* data, std::size_t len) override;
  [[nodiscard]] bool sync() override;
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

 private:
  std::unique_ptr<SpoolSink> inner_;
  FaultFn fault_;
  bool last_faulted_ = false; ///< fault also the paired sync
};

/// What enqueue does when the staging queue is full.
enum class OverflowPolicy : std::uint8_t {
  Block,      ///< pump synchronously until space (backpressure); drops only
              ///< when no sink can make progress
  DropOldest, ///< evict the oldest staged chunk (keep the newest data)
  DropNewest, ///< refuse the incoming chunk (keep the oldest data)
};

[[nodiscard]] const char* to_string(OverflowPolicy p);

struct ResilientWriterConfig {
  /// Staging queue capacity, in chunks.
  std::size_t queue_chunks = 64;
  OverflowPolicy overflow = OverflowPolicy::Block;
  /// Records per chunk; the writer clamps it to [1, kMaxChunkRecords].
  std::size_t records_per_chunk = kDefaultChunkRecords;

  /// Transient-failure retries per pump before the chunk is left queued
  /// and a breaker strike is counted.
  std::uint32_t max_attempts = 8;
  /// Capped exponential backoff between retries, plus deterministic
  /// jitter in [0, backoff_base_ns) drawn from jitter_seed.
  std::uint64_t backoff_base_ns = 1'000;
  std::uint64_t backoff_cap_ns = 1'000'000;
  std::uint64_t jitter_seed = 1;

  /// Consecutive exhausted-retry rounds (or one Fatal) that open a
  /// sink's circuit; while open, the sink is skipped until cooldown
  /// elapses and a half-open probe is allowed.
  std::uint32_t breaker_strikes = 3;
  std::uint64_t breaker_cooldown_ns = 10'000'000;

  /// fsync after every committed chunk (the crash-consistency contract).
  bool sync_each_chunk = true;
};

/// Single-threaded resilient spooler of compressed FLXT v3 chunks. See
/// file comment.
class ResilientWriter {
 public:
  /// `secondary` may be null (single-spool deployment).
  ResilientWriter(ResilientWriterConfig cfg, std::unique_ptr<SpoolSink> primary,
                  std::unique_ptr<SpoolSink> secondary = nullptr);

  // --- staging ----------------------------------------------------------
  /// Encode records into chunks and stage them, applying the overflow
  /// policy. Full chunks of cfg.records_per_chunk are cut immediately,
  /// straight from the caller's array; only the remainder is copied and
  /// buffered until the next add or close().
  void add_markers(const Marker* ms, std::size_t n, std::uint64_t now_ns);
  void add_samples(const PebsSample* ss, std::size_t n, std::uint64_t now_ns);
  void add_wait_edges(const WaitEdge* es, std::size_t n, std::uint64_t now_ns);

  // --- driving ----------------------------------------------------------
  /// Try to drain staged chunks into the active sink. Honors backoff
  /// deadlines against `now_ns`; returns chunks committed this call.
  std::size_t pump(std::uint64_t now_ns);
  /// Flush partial buffers, drain what the sinks will take, append the
  /// eof sentinel, final sync. Chunks no sink accepted are counted as
  /// sink-lost. Returns true when everything including the sentinel
  /// committed (the spool is a *clean* v3 file).
  bool close(std::uint64_t now_ns);

  // --- observability ----------------------------------------------------
  struct Stats {
    // Record accounting; the reconciliation identity is
    //   records_enqueued == records_committed + records_dropped_queue
    //                       + records_lost_sink          (after close()).
    std::uint64_t records_enqueued = 0;
    std::uint64_t records_committed = 0;
    std::uint64_t records_dropped_queue = 0;
    std::uint64_t records_lost_sink = 0;

    std::uint64_t chunks_enqueued = 0;
    std::uint64_t chunks_committed = 0;
    std::uint64_t chunks_dropped_queue = 0;
    std::uint64_t chunks_lost_sink = 0;

    std::uint64_t retries = 0;         ///< write attempts beyond the first
    std::uint64_t backoff_ns = 0;      ///< total virtual backoff waited
    std::uint64_t sync_failures = 0;
    std::uint64_t failovers = 0;       ///< active-sink switches
    std::uint64_t breaker_opens = 0;
    std::uint64_t blocked_enqueues = 0; ///< Block-policy backpressure events

    std::size_t queue_depth = 0;  ///< staged chunks right now
    std::uint32_t active_sink = 0; ///< 0 = primary, 1 = secondary
    bool exhausted = false;        ///< every sink's circuit is open
    bool closed_clean = false;     ///< close() committed the eof sentinel

    [[nodiscard]] bool reconciled() const {
      return records_enqueued == records_committed + records_dropped_queue +
                                     records_lost_sink;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const ResilientWriterConfig& config() const { return cfg_; }
  /// describe() of the sink currently accepting chunks.
  [[nodiscard]] std::string active_sink_name() const;
  /// True when a retry is pending and gated on the backoff deadline.
  [[nodiscard]] bool backing_off(std::uint64_t now_ns) const {
    return now_ns < retry_at_ns_;
  }

 private:
  struct StagedChunk {
    std::string bytes;
    std::uint64_t records = 0;
    std::size_t written = 0; ///< resume offset after a short write
  };
  struct SinkState {
    std::unique_ptr<SpoolSink> sink;
    std::size_t header_bytes = 0; ///< file header resume offset
    std::uint32_t strikes = 0;
    bool open = false;            ///< circuit open (sink sidelined)
    bool fatal = false;           ///< saw a Fatal status
    std::uint64_t opened_at_ns = 0;
  };

  /// Top up `partial` from `recs`, cutting every full chunk; records
  /// that complete no chunk stay in `partial`.
  template <class Rec>
  void add_records(std::vector<Rec>& partial, const Rec* recs, std::size_t n,
                   std::uint64_t now_ns);
  /// Encode n records as one chunk and stage it.
  template <class Rec>
  void cut(const Rec* recs, std::size_t n, std::uint64_t now_ns);
  void stage(StagedChunk&& chunk, std::uint64_t now_ns);
  /// One chunk → active sink. True = committed; false = left queued.
  bool commit_head(std::uint64_t now_ns);
  /// Record a failed retry round on the active sink; may open its
  /// circuit and fail over. Returns true when another sink is usable.
  bool strike_active(std::uint64_t now_ns, bool fatal);
  [[nodiscard]] bool sink_usable(const SinkState& s,
                                 std::uint64_t now_ns) const;
  std::uint64_t backoff_delay(std::uint32_t attempt);

  ResilientWriterConfig cfg_;
  SinkState sinks_[2];
  std::size_t n_sinks_;
  std::size_t active_ = 0;
  std::deque<StagedChunk> queue_;
  V3ChunkEncoder encoder_;
  std::vector<Marker> marker_buf_;   ///< partial chunk under construction
  SampleVec sample_buf_;
  std::vector<WaitEdge> wait_buf_;
  std::uint64_t retry_at_ns_ = 0;    ///< backoff gate for the next attempt
  std::uint32_t attempts_ = 0;       ///< transient retries on current head
  std::uint64_t jitter_state_;
  bool closed_ = false;
  Stats stats_;
};

} // namespace fluxtrace::io
