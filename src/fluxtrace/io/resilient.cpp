#include "fluxtrace/io/resilient.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "fluxtrace/obs/metrics.hpp"

namespace fluxtrace::io {

namespace {

// Self-telemetry: the spool's own degradation story — committed vs
// dropped vs lost, how often it had to retry or fail over.
struct SpoolMetrics {
  obs::Counter& committed = obs::metrics().counter("io.spool.chunks_committed");
  obs::Counter& retries = obs::metrics().counter("io.spool.retries");
  obs::Counter& failovers = obs::metrics().counter("io.spool.failovers");
  obs::Counter& dropped = obs::metrics().counter("io.spool.records_dropped");
  obs::Counter& lost = obs::metrics().counter("io.spool.records_lost");
  obs::Gauge& depth = obs::metrics().gauge("io.spool.queue_depth");

  static SpoolMetrics& get() {
    static SpoolMetrics m;
    return m;
  }
};

// splitmix64, the same deterministic stream generator sim::FaultPlan
// uses; the writer only needs it for backoff jitter.
std::uint64_t next_u64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Bounded no-progress rounds for the drain loops in close()/Block
/// enqueue: each round performs at least one real write attempt (which
/// advances any write-indexed fault schedule), so a bound this size only
/// trips when a sink is genuinely unrecoverable.
constexpr std::size_t kStallLimit = 10'000;

} // namespace

const char* to_string(OverflowPolicy p) {
  switch (p) {
    case OverflowPolicy::Block: return "block";
    case OverflowPolicy::DropOldest: return "drop-oldest";
    case OverflowPolicy::DropNewest: return "drop-newest";
  }
  return "?";
}

// --- FileSpoolSink ------------------------------------------------------

FileSpoolSink::FileSpoolSink(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
}

FileSpoolSink::~FileSpoolSink() {
  if (fd_ >= 0) ::close(fd_);
}

SinkResult FileSpoolSink::write(const char* data, std::size_t len) {
  if (fd_ < 0) return {SinkStatus::Fatal, 0};
  const ssize_t n = ::write(fd_, data, len);
  if (n >= 0) return {SinkStatus::Ok, static_cast<std::size_t>(n)};
  if (errno == EINTR || errno == EAGAIN) return {SinkStatus::Transient, 0};
  return {SinkStatus::Fatal, 0};
}

bool FileSpoolSink::sync() {
  return fd_ >= 0 && ::fsync(fd_) == 0;
}

// --- FaultableSink ------------------------------------------------------

SinkResult FaultableSink::write(const char* data, std::size_t len) {
  const SinkFault f = fault_ ? fault_(len) : SinkFault::None;
  last_faulted_ = f != SinkFault::None;
  switch (f) {
    case SinkFault::None: return inner_->write(data, len);
    case SinkFault::Transient:
    case SinkFault::Stuck: return {SinkStatus::Transient, 0};
    case SinkFault::NoSpace: return {SinkStatus::Fatal, 0};
  }
  return {SinkStatus::Fatal, 0};
}

bool FaultableSink::sync() {
  // A write the injector failed never reached the device; the paired
  // barrier has nothing to make durable and must not mask the fault.
  if (last_faulted_) return false;
  return inner_->sync();
}

// --- ResilientWriter ----------------------------------------------------

ResilientWriter::ResilientWriter(ResilientWriterConfig cfg,
                                 std::unique_ptr<SpoolSink> primary,
                                 std::unique_ptr<SpoolSink> secondary)
    : cfg_(cfg), jitter_state_(cfg.jitter_seed) {
  // A compressed chunk holds at most kMaxChunkRecords records.
  cfg_.records_per_chunk = std::clamp<std::size_t>(cfg_.records_per_chunk, 1,
                                                   kMaxChunkRecords);
  if (cfg_.queue_chunks == 0) cfg_.queue_chunks = 1;
  if (cfg_.max_attempts == 0) cfg_.max_attempts = 1;
  if (cfg_.breaker_strikes == 0) cfg_.breaker_strikes = 1;
  sinks_[0].sink = std::move(primary);
  sinks_[1].sink = std::move(secondary);
  n_sinks_ = sinks_[1].sink ? 2 : 1;
}

std::string ResilientWriter::active_sink_name() const {
  return sinks_[active_].sink->describe();
}

std::uint64_t ResilientWriter::backoff_delay(std::uint32_t attempt) {
  const std::uint32_t shift = attempt > 0 ? attempt - 1 : 0;
  std::uint64_t d = shift >= 63 ? cfg_.backoff_cap_ns
                                : cfg_.backoff_base_ns << shift;
  if (d > cfg_.backoff_cap_ns) d = cfg_.backoff_cap_ns;
  if (cfg_.backoff_base_ns > 0) {
    d += next_u64(jitter_state_) % cfg_.backoff_base_ns;
  }
  return d;
}

bool ResilientWriter::sink_usable(const SinkState& s,
                                  std::uint64_t now_ns) const {
  if (!s.sink || s.fatal) return false;
  if (!s.open) return true;
  // Half-open: after the cooldown one probe chunk is allowed through.
  return now_ns - s.opened_at_ns >= cfg_.breaker_cooldown_ns;
}

bool ResilientWriter::strike_active(std::uint64_t now_ns, bool fatal) {
  SinkState& s = sinks_[active_];
  if (fatal) {
    s.fatal = true;
    s.open = true;
    s.opened_at_ns = now_ns;
    ++stats_.breaker_opens;
  } else {
    ++s.strikes;
    if (s.strikes >= cfg_.breaker_strikes) {
      if (!s.open) ++stats_.breaker_opens;
      s.open = true;
      s.opened_at_ns = now_ns; // re-arms the cooldown on a failed probe
      s.strikes = 0;
    }
  }
  if (sink_usable(s, now_ns)) return true;
  for (std::size_t i = 0; i < n_sinks_; ++i) {
    if (i == active_) continue;
    if (sink_usable(sinks_[i], now_ns)) {
      active_ = i;
      stats_.active_sink = static_cast<std::uint32_t>(i);
      ++stats_.failovers;
      SpoolMetrics::get().failovers.inc();
      // The in-flight chunk restarts from byte 0 on the new spool; the
      // abandoned sink may keep a torn (never synced) copy, which
      // salvage discards as damage.
      if (!queue_.empty()) queue_.front().written = 0;
      return true;
    }
  }
  stats_.exhausted = true;
  return false;
}

bool ResilientWriter::commit_head(std::uint64_t now_ns) {
  if (queue_.empty()) return false;
  stats_.exhausted = false;
  if (!sink_usable(sinks_[active_], now_ns)) {
    // Active circuit open: look for any usable sink (cooldown-elapsed
    // circuits count — that is the half-open probe).
    std::size_t found = n_sinks_;
    for (std::size_t i = 0; i < n_sinks_; ++i) {
      if (sink_usable(sinks_[i], now_ns)) {
        found = i;
        break;
      }
    }
    if (found == n_sinks_) {
      stats_.exhausted = true;
      return false;
    }
    if (found != active_) {
      active_ = found;
      stats_.active_sink = static_cast<std::uint32_t>(found);
      ++stats_.failovers;
      SpoolMetrics::get().failovers.inc();
      queue_.front().written = 0;
    }
  }

  SinkState& s = sinks_[active_];
  StagedChunk& head = queue_.front();

  // Lazily prefix each spool with the 8-byte v3 file header. Folded into
  // the same attempt so header write errors take the same retry path, and
  // resumed at a byte offset like chunk payloads: a short header write
  // already landed its prefix on the device, so rewriting from byte 0
  // would corrupt the file.
  if (const std::string hdr = encode_v3_file_header();
      s.header_bytes < hdr.size()) {
    while (s.header_bytes < hdr.size()) {
      const SinkResult r = s.sink->write(hdr.data() + s.header_bytes,
                                         hdr.size() - s.header_bytes);
      if (r.status == SinkStatus::Ok && r.written > 0) {
        s.header_bytes += r.written;
        continue;
      }
      ++attempts_;
      ++stats_.retries;
      SpoolMetrics::get().retries.inc();
      if (r.status == SinkStatus::Fatal || attempts_ >= cfg_.max_attempts) {
        attempts_ = 0;
        strike_active(now_ns, r.status == SinkStatus::Fatal);
      } else {
        const std::uint64_t d = backoff_delay(attempts_);
        stats_.backoff_ns += d;
        retry_at_ns_ = now_ns + d;
      }
      return false;
    }
  }

  // Chunk payload, resuming after any earlier short write.
  while (head.written < head.bytes.size()) {
    const SinkResult r = s.sink->write(head.bytes.data() + head.written,
                                       head.bytes.size() - head.written);
    if (r.status == SinkStatus::Ok && r.written > 0) {
      head.written += r.written;
      continue; // a short write is progress, not a failure
    }
    ++attempts_;
    ++stats_.retries;
    SpoolMetrics::get().retries.inc();
    if (r.status == SinkStatus::Fatal || attempts_ >= cfg_.max_attempts) {
      attempts_ = 0;
      strike_active(now_ns, r.status == SinkStatus::Fatal);
    } else {
      const std::uint64_t d = backoff_delay(attempts_);
      stats_.backoff_ns += d;
      retry_at_ns_ = now_ns + d;
    }
    return false;
  }

  // Chunk-boundary durability barrier.
  if (cfg_.sync_each_chunk && !s.sink->sync()) {
    ++stats_.sync_failures;
    ++attempts_;
    ++stats_.retries;
    SpoolMetrics::get().retries.inc();
    if (attempts_ >= cfg_.max_attempts) {
      attempts_ = 0;
      strike_active(now_ns, false);
    } else {
      const std::uint64_t d = backoff_delay(attempts_);
      stats_.backoff_ns += d;
      retry_at_ns_ = now_ns + d;
    }
    return false;
  }

  // Committed: the chunk is on stable storage.
  stats_.records_committed += head.records;
  ++stats_.chunks_committed;
  SpoolMetrics::get().committed.inc();
  SpoolMetrics::get().depth.sub(1);
  queue_.pop_front();
  attempts_ = 0;
  retry_at_ns_ = 0;
  s.strikes = 0;
  s.open = false; // success heals the circuit
  stats_.queue_depth = queue_.size();
  return true;
}

void ResilientWriter::stage(StagedChunk&& chunk, std::uint64_t now_ns) {
  ++stats_.chunks_enqueued;
  stats_.records_enqueued += chunk.records;

  if (queue_.size() >= cfg_.queue_chunks) {
    switch (cfg_.overflow) {
      case OverflowPolicy::Block: {
        // Backpressure: drain synchronously, charging any backoff to the
        // virtual clock instead of sleeping. Only a sink that stays
        // unusable converts the block into counted drops.
        ++stats_.blocked_enqueues;
        std::uint64_t virtual_now = now_ns;
        std::size_t stalls = 0;
        while (queue_.size() >= cfg_.queue_chunks && stalls < kStallLimit) {
          if (virtual_now < retry_at_ns_) virtual_now = retry_at_ns_;
          if (commit_head(virtual_now)) {
            stalls = 0;
          } else if (stats_.exhausted) {
            break;
          } else {
            ++stalls;
          }
        }
        if (queue_.size() < cfg_.queue_chunks) break;
        [[fallthrough]]; // no sink can make progress: shed the oldest
      }
      case OverflowPolicy::DropOldest: {
        // Never evict a chunk that already has bytes on the device (a
        // resumed partial write must finish or the spool tears); take
        // the oldest un-started chunk instead.
        std::size_t victim = queue_.size();
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          if (queue_[i].written == 0) {
            victim = i;
            break;
          }
        }
        if (victim == queue_.size()) { // everything in flight: refuse new
          stats_.records_dropped_queue += chunk.records;
          ++stats_.chunks_dropped_queue;
          SpoolMetrics::get().dropped.inc(chunk.records);
          return;
        }
        stats_.records_dropped_queue += queue_[victim].records;
        ++stats_.chunks_dropped_queue;
        SpoolMetrics::get().dropped.inc(queue_[victim].records);
        SpoolMetrics::get().depth.sub(1);
        if (victim == 0) attempts_ = 0;
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      }
      case OverflowPolicy::DropNewest:
        stats_.records_dropped_queue += chunk.records;
        ++stats_.chunks_dropped_queue;
        SpoolMetrics::get().dropped.inc(chunk.records);
        return;
    }
  }

  queue_.push_back(std::move(chunk));
  SpoolMetrics::get().depth.add(1);
  stats_.queue_depth = queue_.size();
}

template <class Rec>
void ResilientWriter::cut(const Rec* recs, std::size_t n,
                          std::uint64_t now_ns) {
  StagedChunk c;
  c.bytes = encoder_.encode(recs, n);
  c.records = n;
  stage(std::move(c), now_ns);
}

template <class Rec>
void ResilientWriter::add_records(std::vector<Rec>& partial, const Rec* recs,
                                  std::size_t n, std::uint64_t now_ns) {
  const std::size_t per = cfg_.records_per_chunk;
  if (!partial.empty()) {
    const std::size_t take = std::min(n, per - partial.size());
    partial.insert(partial.end(), recs, recs + take);
    recs += take;
    n -= take;
    if (partial.size() < per) return;
    cut(partial.data(), per, now_ns);
    partial.clear();
  }
  for (; n >= per; recs += per, n -= per) cut(recs, per, now_ns);
  partial.assign(recs, recs + n);
}

void ResilientWriter::add_markers(const Marker* ms, std::size_t n,
                                  std::uint64_t now_ns) {
  add_records(marker_buf_, ms, n, now_ns);
}

void ResilientWriter::add_samples(const PebsSample* ss, std::size_t n,
                                  std::uint64_t now_ns) {
  add_records(sample_buf_, ss, n, now_ns);
}

void ResilientWriter::add_wait_edges(const WaitEdge* es, std::size_t n,
                                     std::uint64_t now_ns) {
  // A supervisor may report its final backpressure interval while
  // winding down, after close() sealed the spool; there is no file to
  // put it in any more, so drop it rather than corrupt the ledger.
  if (closed_) return;
  add_records(wait_buf_, es, n, now_ns);
}

std::size_t ResilientWriter::pump(std::uint64_t now_ns) {
  std::size_t committed = 0;
  while (!queue_.empty()) {
    if (backing_off(now_ns)) break;
    if (!commit_head(now_ns)) break;
    ++committed;
  }
  stats_.queue_depth = queue_.size();
  return committed;
}

bool ResilientWriter::close(std::uint64_t now_ns) {
  if (closed_) return stats_.closed_clean;
  closed_ = true;

  // Flush the partial chunks under construction.
  const auto flush = [&](auto& partial) {
    if (partial.empty()) return;
    cut(partial.data(), partial.size(), now_ns);
    partial.clear();
  };
  flush(marker_buf_);
  flush(sample_buf_);
  flush(wait_buf_);

  // Drain, charging backoff to a local virtual clock (close never
  // sleeps). Bounded: every round performs a real write attempt.
  std::uint64_t virtual_now = now_ns;
  std::size_t stalls = 0;
  while (!queue_.empty() && stalls < kStallLimit) {
    if (virtual_now < retry_at_ns_) virtual_now = retry_at_ns_;
    if (commit_head(virtual_now)) {
      stalls = 0;
    } else if (stats_.exhausted) {
      break;
    } else {
      ++stalls;
    }
  }

  // Whatever no sink would take is lost — counted, never silent.
  for (const StagedChunk& c : queue_) {
    stats_.records_lost_sink += c.records;
    ++stats_.chunks_lost_sink;
    SpoolMetrics::get().lost.inc(c.records);
    SpoolMetrics::get().depth.sub(1);
  }
  const bool drained = queue_.empty();
  queue_.clear();
  stats_.queue_depth = 0;

  if (drained) {
    // The eof sentinel marks a clean close; a crash before this point
    // leaves a salvageable file that is *known* incomplete.
    StagedChunk eof;
    eof.bytes = encode_eof_chunk();
    eof.records = 0;
    ++stats_.chunks_enqueued; // keep the chunk ledger balanced
    queue_.push_back(std::move(eof));
    SpoolMetrics::get().depth.add(1);
    stalls = 0;
    while (!queue_.empty() && stalls < kStallLimit) {
      if (virtual_now < retry_at_ns_) virtual_now = retry_at_ns_;
      if (commit_head(virtual_now)) {
        stalls = 0;
      } else if (stats_.exhausted) {
        break;
      } else {
        ++stalls;
      }
    }
    if (queue_.empty()) {
      stats_.closed_clean = true;
    } else {
      ++stats_.chunks_lost_sink; // the sentinel itself
      SpoolMetrics::get().depth.sub(1);
      queue_.clear();
    }
  }
  stats_.queue_depth = 0;
  return stats_.closed_clean;
}

} // namespace fluxtrace::io
