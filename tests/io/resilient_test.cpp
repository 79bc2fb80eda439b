// io::ResilientWriter: the crash-consistent spool. The contract under
// test is threefold: (1) every record handed in is accounted exactly
// once (committed / queue-dropped / sink-lost); (2) whatever reached the
// sink — even mid-crash, even across short writes and retries — salvages
// as intact compressed v3 chunks with zero CRC failures; (3) persistent
// sink failure opens the circuit breaker and fails over instead of
// looping.
#include "fluxtrace/io/resilient.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/v3.hpp"

namespace fluxtrace::io {
namespace {

std::vector<Marker> make_markers(std::size_t n, std::uint64_t seed = 1) {
  std::vector<Marker> ms;
  for (std::size_t i = 0; i < n; ++i) {
    Marker m;
    m.tsc = seed + i * 10;
    m.item = i / 2 + 1;
    m.core = 1;
    m.kind = (i % 2 == 0) ? MarkerKind::Enter : MarkerKind::Leave;
    ms.push_back(m);
  }
  return ms;
}

SampleVec make_samples(std::size_t n, std::uint64_t seed = 1) {
  SampleVec ss;
  for (std::size_t i = 0; i < n; ++i) {
    PebsSample s;
    s.tsc = seed + i * 7;
    s.ip = 0x1000 + i;
    s.core = 1;
    for (std::uint64_t& r : s.regs.v) r = i;
    ss.push_back(s);
  }
  return ss;
}

/// In-memory sink driven by a per-call script; unscripted calls accept
/// everything. Captures the byte stream for salvage verification.
struct ScriptedSink final : SpoolSink {
  struct Step {
    SinkStatus status = SinkStatus::Ok;
    std::size_t cap = ~std::size_t{0}; ///< max bytes accepted when Ok
  };
  std::vector<Step> script;
  std::size_t calls = 0;
  std::string bytes;
  bool sync_ok = true;
  std::size_t syncs = 0;

  SinkResult write(const char* data, std::size_t len) override {
    const Step step = calls < script.size() ? script[calls] : Step{};
    ++calls;
    if (step.status != SinkStatus::Ok) return {step.status, 0};
    const std::size_t n = len < step.cap ? len : step.cap;
    bytes.append(data, n);
    return {SinkStatus::Ok, n};
  }
  bool sync() override {
    ++syncs;
    return sync_ok;
  }
  [[nodiscard]] std::string describe() const override { return "scripted"; }
};

/// Build a writer around scripted sinks, keeping raw observers.
struct Harness {
  ScriptedSink* primary = nullptr;
  ScriptedSink* secondary = nullptr;
  std::unique_ptr<ResilientWriter> w;

  explicit Harness(ResilientWriterConfig cfg, bool with_secondary = false) {
    auto p = std::make_unique<ScriptedSink>();
    primary = p.get();
    std::unique_ptr<ScriptedSink> s;
    if (with_secondary) {
      s = std::make_unique<ScriptedSink>();
      secondary = s.get();
    }
    w = std::make_unique<ResilientWriter>(cfg, std::move(p), std::move(s));
  }
};

TEST(ResilientWriter, CleanSpoolIsAByteExactV3File) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 8;
  Harness h(cfg);
  const auto ms = make_markers(20);
  const auto ss = make_samples(37);
  h.w->add_markers(ms.data(), ms.size(), 0);
  h.w->add_samples(ss.data(), ss.size(), 0);
  h.w->pump(1000);
  EXPECT_TRUE(h.w->close(2000));

  const auto& st = h.w->stats();
  EXPECT_EQ(st.records_enqueued, 57u);
  EXPECT_EQ(st.records_committed, 57u);
  EXPECT_TRUE(st.reconciled());
  EXPECT_TRUE(st.closed_clean);

  // Full chunks are cut as records arrive; close() flushes the partial
  // marker chunk, then the partial sample chunk, then the sentinel.
  std::string want = encode_v3_file_header();
  want += encode_marker_chunk_v3(ms.data(), 8);
  want += encode_marker_chunk_v3(ms.data() + 8, 8);
  for (std::size_t at = 0; at < 32; at += 8) {
    want += encode_sample_chunk_v3(ss.data() + at, 8);
  }
  want += encode_marker_chunk_v3(ms.data() + 16, 4);
  want += encode_sample_chunk_v3(ss.data() + 32, 5);
  want += encode_eof_chunk();
  EXPECT_EQ(h.primary->bytes, want);

  const SalvageReport rep = salvage_trace(std::string_view(h.primary->bytes));
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.data.markers, ms);
  EXPECT_EQ(rep.data.samples, ss);
  // fsync on every chunk boundary plus the eof sentinel.
  EXPECT_GE(h.primary->syncs, st.chunks_committed);
}

// A spool's whole-image CRC is derivable from its chunk frames alone —
// the value the query engine pins FLXI sidecars with.
TEST(ResilientWriter, SpoolImageCrcFromFramesEqualsCrc32) {
  for (const std::size_t per_chunk : {1u, 3u, 8u, 50u}) {
    ResilientWriterConfig cfg;
    cfg.records_per_chunk = per_chunk;
    Harness h(cfg);
    const auto ms = make_markers(20);
    const auto ss = make_samples(37);
    h.w->add_markers(ms.data(), ms.size(), 0);
    h.w->add_samples(ss.data(), ss.size(), 0);
    h.w->pump(1000);
    ASSERT_TRUE(h.w->close(2000));
    const std::string& image = h.primary->bytes;
    EXPECT_EQ(walk_image(image).crc, crc32(image.data(), image.size()))
        << per_chunk << " records per chunk";
  }
}

TEST(ResilientWriter, RecordsPerChunkIsClampedToTheV3Limit) {
  // A compressed chunk holds at most kMaxChunkRecords records; a larger
  // setting would make add_samples throw mid-capture once that many
  // records had arrived, so the writer clamps it up front, as it clamps
  // 0 to 1.
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = std::size_t{kMaxChunkRecords} + 1;
  EXPECT_EQ(Harness(cfg).w->config().records_per_chunk, kMaxChunkRecords);
  cfg.records_per_chunk = 0;
  EXPECT_EQ(Harness(cfg).w->config().records_per_chunk, 1u);
}

TEST(ResilientWriter, ShortWritesResumeWithoutDuplication) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 4;
  Harness h(cfg);
  // Every write accepts at most 5 bytes: chunks land via many resumed
  // partial writes.
  h.primary->script.assign(10'000, {SinkStatus::Ok, 5});
  const auto ms = make_markers(16);
  h.w->add_markers(ms.data(), ms.size(), 0);
  h.w->pump(0);
  EXPECT_TRUE(h.w->close(1));

  const SalvageReport rep = salvage_trace(std::string_view(h.primary->bytes));
  EXPECT_TRUE(rep.clean());
  ASSERT_EQ(rep.data.markers.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rep.data.markers[i].tsc, ms[i].tsc) << i;
  }
  EXPECT_TRUE(h.w->stats().reconciled());
}

TEST(ResilientWriter, TransientFailuresRetryWithBackoff) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 4;
  cfg.backoff_base_ns = 100;
  Harness h(cfg);
  h.primary->script = {{SinkStatus::Transient, 0}, {SinkStatus::Transient, 0}};
  const auto ms = make_markers(4);
  h.w->add_markers(ms.data(), ms.size(), 0);

  EXPECT_EQ(h.w->pump(0), 0u); // first attempt fails, backoff armed
  EXPECT_TRUE(h.w->backing_off(0));
  EXPECT_EQ(h.w->pump(0), 0u); // still inside the backoff window: no call
  EXPECT_EQ(h.primary->calls, 1u);

  // Advance past the (capped, jittered) deadline until it commits.
  std::uint64_t now = 0;
  for (int i = 0; i < 10 && h.w->stats().chunks_committed == 0; ++i) {
    now += 1'000'000;
    h.w->pump(now);
  }
  const auto& st = h.w->stats();
  EXPECT_EQ(st.chunks_committed, 1u);
  EXPECT_EQ(st.retries, 2u);
  EXPECT_GT(st.backoff_ns, 0u);
  EXPECT_TRUE(h.w->close(now + 1));
  EXPECT_TRUE(salvage_trace(std::string_view(h.primary->bytes)).clean());
}

TEST(ResilientWriter, PersistentTransientsOpenBreakerAndFailOver) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 4;
  cfg.max_attempts = 2;
  cfg.breaker_strikes = 2;
  Harness h(cfg, /*with_secondary=*/true);
  h.primary->script.assign(1'000, {SinkStatus::Transient, 0});
  const auto ms = make_markers(8);
  h.w->add_markers(ms.data(), ms.size(), 0);

  std::uint64_t now = 0;
  while (h.w->stats().failovers == 0 && now < 1'000'000'000) {
    now += 100'000;
    h.w->pump(now);
  }
  const auto& st = h.w->stats();
  EXPECT_EQ(st.failovers, 1u);
  EXPECT_GE(st.breaker_opens, 1u);
  EXPECT_EQ(st.active_sink, 1u);
  EXPECT_TRUE(h.w->close(now + 1));

  // Everything (including both chunks and the sentinel) lives on the
  // secondary, as a clean file; the primary holds no intact chunk.
  const SalvageReport sec =
      salvage_trace(std::string_view(h.secondary->bytes));
  EXPECT_TRUE(sec.clean());
  EXPECT_EQ(sec.data.markers.size(), 8u);
  EXPECT_TRUE(st.reconciled());
}

TEST(ResilientWriter, FatalErrorFailsOverImmediately) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 2;
  Harness h(cfg, /*with_secondary=*/true);
  h.primary->script = {{SinkStatus::Fatal, 0}};
  const auto ms = make_markers(2);
  h.w->add_markers(ms.data(), ms.size(), 0);
  h.w->pump(0);
  h.w->pump(1);
  EXPECT_EQ(h.w->stats().failovers, 1u);
  EXPECT_TRUE(h.w->close(2));
  EXPECT_TRUE(
      salvage_trace(std::string_view(h.secondary->bytes)).clean());
}

TEST(ResilientWriter, DropNewestAccountsEveryOverflow) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 2;
  cfg.queue_chunks = 2;
  cfg.overflow = OverflowPolicy::DropNewest;
  Harness h(cfg);
  h.primary->script.assign(1'000, {SinkStatus::Transient, 0}); // sink wedged
  const auto ms = make_markers(20); // 10 chunks into a 2-chunk queue
  h.w->add_markers(ms.data(), ms.size(), 0);

  const auto& st = h.w->stats();
  EXPECT_EQ(st.chunks_enqueued, 10u);
  EXPECT_EQ(st.chunks_dropped_queue, 8u);
  EXPECT_EQ(st.records_dropped_queue, 16u);
  h.primary->script.clear(); // sink heals
  EXPECT_TRUE(h.w->close(1'000'000'000));
  EXPECT_TRUE(st.reconciled());
  EXPECT_EQ(st.records_committed, 4u);
}

TEST(ResilientWriter, DropOldestKeepsTheNewestData) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 2;
  cfg.queue_chunks = 2;
  cfg.overflow = OverflowPolicy::DropOldest;
  Harness h(cfg);
  h.primary->script.assign(1'000, {SinkStatus::Transient, 0});
  const auto ms = make_markers(12); // 6 chunks
  h.w->add_markers(ms.data(), ms.size(), 0);
  h.primary->script.clear();
  EXPECT_TRUE(h.w->close(1'000'000'000));

  const auto& st = h.w->stats();
  EXPECT_TRUE(st.reconciled());
  EXPECT_EQ(st.records_dropped_queue, 8u);
  // The survivors are the *last* two chunks (markers 8..11).
  const SalvageReport rep = salvage_trace(std::string_view(h.primary->bytes));
  ASSERT_EQ(rep.data.markers.size(), 4u);
  EXPECT_EQ(rep.data.markers[0].tsc, ms[8].tsc);
  EXPECT_EQ(rep.data.markers[3].tsc, ms[11].tsc);
}

TEST(ResilientWriter, DeadSinksCountLossesAndNeverReconcileSilently) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 2;
  cfg.max_attempts = 2;
  cfg.breaker_strikes = 1;
  Harness h(cfg);
  h.primary->script.assign(100'000, {SinkStatus::Fatal, 0});
  const auto ms = make_markers(6);
  h.w->add_markers(ms.data(), ms.size(), 0);
  EXPECT_FALSE(h.w->close(0)); // nothing placeable: not a clean close

  const auto& st = h.w->stats();
  EXPECT_TRUE(st.exhausted);
  EXPECT_FALSE(st.closed_clean);
  EXPECT_EQ(st.records_lost_sink, 6u);
  EXPECT_EQ(st.records_committed, 0u);
  EXPECT_TRUE(st.reconciled());
}

TEST(ResilientWriter, CrashMidStreamLeavesSalvageablePrefix) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 4;
  Harness h(cfg);
  const auto ms = make_markers(12);
  h.w->add_markers(ms.data(), ms.size(), 0);
  h.w->pump(0);
  // No close(): the "process" dies here. Every committed (fsynced) chunk
  // must salvage intact; only the eof sentinel is missing.
  const SalvageReport rep = salvage_trace(std::string_view(h.primary->bytes));
  EXPECT_TRUE(rep.header_ok);
  EXPECT_FALSE(rep.eof_ok);
  EXPECT_EQ(rep.chunks_corrupt, 0u);
  EXPECT_EQ(rep.chunks_ok, h.w->stats().chunks_committed);
  EXPECT_EQ(rep.data.markers.size(), 12u);
}

TEST(ResilientWriter, SyncFailureIsRetriedNotIgnored) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 2;
  Harness h(cfg);
  h.primary->sync_ok = false;
  const auto ms = make_markers(2);
  h.w->add_markers(ms.data(), ms.size(), 0);
  h.w->pump(0);
  EXPECT_EQ(h.w->stats().chunks_committed, 0u); // written but not durable
  EXPECT_GE(h.w->stats().sync_failures, 1u);
  h.primary->sync_ok = true;
  EXPECT_TRUE(h.w->close(1'000'000'000));
  EXPECT_TRUE(h.w->stats().reconciled());
}

TEST(ResilientWriter, FaultableSinkMapsVerdicts) {
  auto inner = std::make_unique<ScriptedSink>();
  ScriptedSink* raw = inner.get();
  std::vector<SinkFault> plan = {SinkFault::Transient, SinkFault::None,
                                 SinkFault::NoSpace};
  std::size_t at = 0;
  FaultableSink sink(std::move(inner), [&](std::size_t) {
    return at < plan.size() ? plan[at++] : SinkFault::None;
  });
  char buf[4] = {1, 2, 3, 4};
  EXPECT_EQ(sink.write(buf, 4).status, SinkStatus::Transient);
  EXPECT_FALSE(sink.sync()); // the faulted write's barrier fails too
  EXPECT_EQ(sink.write(buf, 4).status, SinkStatus::Ok);
  EXPECT_TRUE(sink.sync());
  EXPECT_EQ(sink.write(buf, 4).status, SinkStatus::Fatal);
  EXPECT_EQ(raw->bytes.size(), 4u); // only the clean write reached it
}

std::vector<WaitEdge> make_waits(std::size_t n, std::uint64_t seed = 1) {
  std::vector<WaitEdge> es;
  for (std::size_t i = 0; i < n; ++i) {
    WaitEdge e;
    e.enter = seed + i * 100;
    e.leave = e.enter + 40 + i;
    e.item = (i % 3 == 0) ? kNoItem : i;
    e.waiter_core = 1;
    e.holder_core = 2;
    e.resource = 10 + static_cast<std::uint32_t>(i % 2);
    e.cause = static_cast<WaitCause>(i % kNumWaitCauses);
    es.push_back(e);
  }
  return es;
}

TEST(WaitEdgeSpool, WaitEdgesSpoolChunkedAndSalvageBack) {
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 4;
  Harness h(cfg);
  const auto ms = make_markers(8);
  const auto es = make_waits(10); // 2 full chunks + a 2-record remainder
  h.w->add_markers(ms.data(), ms.size(), 0);
  h.w->add_wait_edges(es.data(), es.size(), 0);
  h.w->pump(1000);
  EXPECT_TRUE(h.w->close(2000)); // close flushes the partial wait chunk

  const auto& st = h.w->stats();
  EXPECT_EQ(st.records_enqueued, 18u);
  EXPECT_EQ(st.records_committed, 18u);
  EXPECT_TRUE(st.reconciled());

  const SalvageReport rep = salvage_trace(std::string_view(h.primary->bytes));
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.data.markers, ms);
  EXPECT_EQ(rep.data.wait_edges, es);
}

TEST(WaitEdgeSpool, ReportsAfterCloseAreDroppedNotMisLedgered) {
  // core::SessionSupervisor reports its final backpressure interval while
  // winding down, after close() sealed the spool; the writer must drop it
  // (nowhere to put it) without disturbing the reconciled ledger.
  ResilientWriterConfig cfg;
  cfg.records_per_chunk = 4;
  Harness h(cfg);
  const auto es = make_waits(4);
  h.w->add_wait_edges(es.data(), es.size(), 0);
  h.w->pump(100);
  EXPECT_TRUE(h.w->close(200));
  const std::uint64_t enqueued = h.w->stats().records_enqueued;

  h.w->add_wait_edges(es.data(), es.size(), 300);
  EXPECT_EQ(h.w->stats().records_enqueued, enqueued);
  EXPECT_TRUE(h.w->stats().reconciled());
  const SalvageReport rep = salvage_trace(std::string_view(h.primary->bytes));
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.data.wait_edges, es);
}

} // namespace
} // namespace fluxtrace::io
