// io::TraceFollower: the crash-consistent live reader. The contract
// under test: (1) a chunk is delivered only once its full CRC-framed
// bytes are durable — a torn tail is "not yet", never decoded; (2) the
// ledger `chunks_observed == consumed + salvaged + torn` holds at every
// finish, and reconciles against the writer's own chunk ledger; (3)
// transient read faults retry with capped backoff and never corrupt the
// stream; (4) producer death degrades into a final salvage pass, not a
// hang.
#include "fluxtrace/io/follower.hpp"

#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/resilient.hpp"
#include "fluxtrace/sim/fault.hpp"

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
    ss.push_back(s);
  }
  return ss;
}

std::string v2_image(const io::TraceData& data, std::size_t per_chunk = 8) {
  std::ostringstream os;
  write_trace_v2(os, data, per_chunk);
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

void append_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

std::string temp_path(const char* name) {
  return test::private_dir() + "/" + name;
}

/// Poll until finished or `max` polls, stepping the virtual clock.
TraceFollower::PollResult drain(TraceFollower& f, std::uint64_t& now,
                                TraceData& out, std::size_t max = 1000,
                                std::uint64_t step = 1'000'000) {
  TraceFollower::PollResult last;
  for (std::size_t i = 0; i < max && !f.finished(); ++i) {
    auto pr = f.poll(now);
    now += step;
    out.markers.insert(out.markers.end(), pr.data.markers.begin(),
                       pr.data.markers.end());
    out.samples.insert(out.samples.end(), pr.data.samples.begin(),
                       pr.data.samples.end());
    last = std::move(pr);
    if (last.finished) break;
  }
  return last;
}

TEST(TraceFollower, CleanFileFollowsToEof) {
  const std::string path = temp_path("follower_clean.flxt2");
  io::TraceData data{.markers = make_markers(20),
                     .samples = make_samples(37),
                     .wait_edges = {}};
  write_file(path, v2_image(data));

  TraceFollowerConfig cfg;
  TraceFollower f = TraceFollower::open(path, cfg);
  std::uint64_t now = 0;
  TraceData got;
  auto last = drain(f, now, got);

  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::CleanEof);
  EXPECT_TRUE(f.stats().eof_seen);
  EXPECT_TRUE(f.stats().reconciled());
  EXPECT_EQ(f.stats().chunks_torn, 0u);
  EXPECT_EQ(f.stats().chunks_salvaged, 0u);
  EXPECT_EQ(got.markers.size(), data.markers.size());
  EXPECT_EQ(got.samples.size(), data.samples.size());
  EXPECT_EQ(got, data);
  std::remove(path.c_str());
}

TEST(TraceFollower, TornTailIsNotYetNeverDecoded) {
  const std::string path = temp_path("follower_torn.flxt2");
  io::TraceData data{.markers = make_markers(16),
                     .samples = {},
                     .wait_edges = {}};
  const std::string image = v2_image(data, 8); // 2 marker chunks + eof
  const auto refs = index_trace_v2(image);
  ASSERT_EQ(refs.size(), 2u);
  // Cut mid-payload of the second chunk: a torn tail.
  const std::size_t cut = static_cast<std::size_t>(refs[1].offset) + 21 +
                          refs[1].payload_bytes / 2;
  write_file(path, image.substr(0, cut));

  TraceFollower f = TraceFollower::open(path, {});
  std::uint64_t now = 0;
  TraceData got;
  for (int i = 0; i < 5; ++i) {
    auto pr = f.poll(now);
    now += 1'000'000;
    got.markers.insert(got.markers.end(), pr.data.markers.begin(),
                       pr.data.markers.end());
  }
  // Only the first complete chunk was delivered; the torn tail waits.
  EXPECT_FALSE(f.finished());
  EXPECT_EQ(f.stats().chunks_consumed, 1u);
  EXPECT_EQ(got.markers.size(), 8u);

  // The writer finishes the chunk (and the eof sentinel): follow to end.
  append_file(path, image.substr(cut));
  auto last = drain(f, now, got);
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::CleanEof);
  EXPECT_EQ(f.stats().chunks_consumed, 2u);
  EXPECT_EQ(f.stats().chunks_torn, 0u);
  EXPECT_TRUE(f.stats().reconciled());
  EXPECT_EQ(got.markers, data.markers);
  std::remove(path.c_str());
}

TEST(TraceFollower, ProducerDeathSalvagesAndReconciles) {
  const std::string path = temp_path("follower_death.flxt2");
  io::TraceData data{.markers = make_markers(16),
                     .samples = {},
                     .wait_edges = {}};
  const std::string image = v2_image(data, 8);
  const auto refs = index_trace_v2(image);
  ASSERT_EQ(refs.size(), 2u);
  // The "kill -9": first chunk durable, second torn mid-payload, no eof.
  const std::size_t cut = static_cast<std::size_t>(refs[1].offset) + 21 +
                          refs[1].payload_bytes / 2;
  write_file(path, image.substr(0, cut));

  TraceFollowerConfig cfg;
  cfg.liveness_timeout_ns = 10'000'000;
  TraceFollower f = TraceFollower::open(path, cfg);
  std::uint64_t now = 0;
  TraceData got;
  auto last = drain(f, now, got, 1000, 1'000'000);

  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::ProducerDeath);
  EXPECT_EQ(f.stats().chunks_consumed, 1u);
  EXPECT_EQ(f.stats().chunks_torn, 1u);
  EXPECT_EQ(f.stats().chunks_salvaged, 0u);
  EXPECT_GT(f.stats().bytes_torn, 0u);
  EXPECT_TRUE(f.stats().reconciled());
  // The torn chunk was never decoded: only chunk 1's markers arrived.
  EXPECT_EQ(got.markers.size(), 8u);
  std::remove(path.c_str());
}

TEST(TraceFollower, ProducerAliveProbeDefersDeath) {
  const std::string path = temp_path("follower_probe.flxt2");
  io::TraceData data{.markers = make_markers(8),
                     .samples = {},
                     .wait_edges = {}};
  const std::string image = v2_image(data, 8);
  write_file(path, image.substr(0, image.size() - 10)); // no eof yet

  bool alive = true;
  TraceFollowerConfig cfg;
  cfg.liveness_timeout_ns = 5'000'000;
  cfg.producer_alive = [&alive]() { return alive; };
  TraceFollower f = TraceFollower::open(path, cfg);
  std::uint64_t now = 0;
  TraceData got;
  for (int i = 0; i < 50 && !f.finished(); ++i) {
    f.poll(now);
    now += 1'000'000;
  }
  EXPECT_FALSE(f.finished()) << "probe vouched; watchdog must not fire";
  alive = false;
  auto last = drain(f, now, got, 50);
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::ProducerDeath);
  std::remove(path.c_str());
}

TEST(TraceFollower, TransientReadFaultsRetryWithBackoff) {
  const std::string path = temp_path("follower_transient.flxt2");
  io::TraceData data{.markers = make_markers(24),
                     .samples = make_samples(40),
                     .wait_edges = {}};
  write_file(path, v2_image(data));

  sim::FaultPlanConfig fcfg;
  fcfg.seed = 7;
  fcfg.read_transient_rate = 0.5;
  sim::FaultPlan plan(fcfg);

  TraceFollowerConfig cfg;
  cfg.max_read_attempts = 2; // force cross-poll backoff arming
  auto source = std::make_unique<FaultableByteSource>(
      std::make_unique<FileByteSource>(path),
      [&plan]() {
        switch (plan.read_fault()) {
          case sim::ReadFaultKind::Transient: return ReadFault::Transient;
          case sim::ReadFaultKind::Short: return ReadFault::Short;
          case sim::ReadFaultKind::None: break;
        }
        return ReadFault::None;
      },
      nullptr);
  TraceFollower f(cfg, std::move(source));

  std::uint64_t now = 0;
  TraceData got;
  auto last = drain(f, now, got, 5000, 2'000'000);
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::CleanEof);
  EXPECT_TRUE(f.stats().reconciled());
  EXPECT_GT(f.stats().read_transients, 0u);
  EXPECT_GT(plan.read_transients(), 0u);
  EXPECT_EQ(got, data);
  std::remove(path.c_str());
}

TEST(TraceFollower, ShortReadsOnlySlowProgress) {
  const std::string path = temp_path("follower_short.flxt2");
  io::TraceData data{.markers = make_markers(24),
                     .samples = make_samples(40),
                     .wait_edges = {}};
  write_file(path, v2_image(data));

  sim::FaultPlanConfig fcfg;
  fcfg.read_short.push_back({0, 20}); // first 20 reads are short
  sim::FaultPlan plan(fcfg);

  auto source = std::make_unique<FaultableByteSource>(
      std::make_unique<FileByteSource>(path),
      [&plan]() {
        return plan.read_fault() == sim::ReadFaultKind::Short
                   ? ReadFault::Short
                   : ReadFault::None;
      },
      nullptr);
  TraceFollower f(TraceFollowerConfig{}, std::move(source));

  std::uint64_t now = 0;
  TraceData got;
  auto last = drain(f, now, got);
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::CleanEof);
  EXPECT_GT(f.stats().short_reads, 0u);
  EXPECT_EQ(f.stats().chunks_torn, 0u);
  EXPECT_EQ(got, data);
  std::remove(path.c_str());
}

TEST(TraceFollower, StaleSizeMetadataIsNotYet) {
  const std::string path = temp_path("follower_stale.flxt2");
  io::TraceData data{.markers = make_markers(16),
                     .samples = {},
                     .wait_edges = {}};
  const std::string image = v2_image(data, 8);
  write_file(path, image);
  const auto refs = index_trace_v2(image);
  ASSERT_EQ(refs.size(), 2u);
  // Stale fstat: the first queries see the file cut mid-chunk-2.
  const std::uint64_t stale_size =
      refs[1].offset + 21 + refs[1].payload_bytes / 2;

  sim::FaultPlanConfig fcfg;
  fcfg.read_stale_queries = 3;
  fcfg.read_truncate_at = stale_size;
  sim::FaultPlan plan(fcfg);

  auto source = std::make_unique<FaultableByteSource>(
      std::make_unique<FileByteSource>(path), nullptr,
      [&plan]() { return plan.size_query_stale(); }, stale_size);
  TraceFollower f(TraceFollowerConfig{}, std::move(source));

  std::uint64_t now = 0;
  auto pr1 = f.poll(now);
  // Stale view ends mid-chunk: chunk 1 commits, the tail waits.
  EXPECT_EQ(f.stats().chunks_consumed, 1u);
  EXPECT_EQ(f.stats().chunks_torn, 0u);
  EXPECT_FALSE(pr1.finished);

  TraceData got;
  now += 1'000'000;
  auto last = drain(f, now, got);
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::CleanEof);
  EXPECT_EQ(f.stats().chunks_consumed, 2u);
  EXPECT_TRUE(f.stats().reconciled());
  EXPECT_EQ(plan.stale_size_queries(), 3u);
  std::remove(path.c_str());
}

TEST(TraceFollower, MidFileDamageResyncsAndCounts) {
  const std::string path = temp_path("follower_damage.flxt2");
  io::TraceData data{.markers = make_markers(24),
                     .samples = {},
                     .wait_edges = {}};
  std::string image = v2_image(data, 8); // 3 marker chunks + eof
  const auto refs = index_trace_v2(image);
  ASSERT_EQ(refs.size(), 3u);
  // Flip a payload byte of chunk 2: valid header, damaged payload.
  image[static_cast<std::size_t>(refs[1].offset) + 21 + 3] ^= 0x40;
  write_file(path, image);

  TraceFollower f = TraceFollower::open(path, {});
  std::uint64_t now = 0;
  TraceData got;
  auto last = drain(f, now, got);
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::CleanEof);
  EXPECT_EQ(f.stats().chunks_consumed, 2u); // chunks 1 and 3
  EXPECT_EQ(f.stats().chunks_torn, 1u);     // the damaged one
  EXPECT_GT(f.stats().bytes_skipped, 0u);
  EXPECT_TRUE(f.stats().reconciled());
  EXPECT_EQ(got.markers.size(), 16u);
  std::remove(path.c_str());
}

// The ISSUE 6 satellite: a ResilientWriter appending under an active
// FaultPlan while a TraceFollower tails the same file. The follower must
// never decode a torn chunk, and the two ledgers must reconcile exactly:
// writer.chunks_committed == consumed + salvaged + eof.
TEST(TraceFollower, ConcurrentWriterReaderUnderFaultPlan) {
  const std::string path = temp_path("follower_concurrent.flxt2");
  std::remove(path.c_str());

  sim::FaultPlanConfig fcfg;
  fcfg.seed = 42;
  fcfg.sink_transient_rate = 0.2;
  fcfg.sink_stuck.push_back({5, 3});
  fcfg.read_transient_rate = 0.2;
  fcfg.read_short.push_back({3, 4});
  sim::FaultPlan plan(fcfg);

  ResilientWriterConfig wcfg;
  wcfg.records_per_chunk = 8;
  auto sink = std::make_unique<FaultableSink>(
      std::make_unique<FileSpoolSink>(path), [&plan](std::size_t bytes) {
        switch (plan.sink_fault(bytes)) {
          case sim::SinkFaultKind::Transient: return SinkFault::Transient;
          case sim::SinkFaultKind::Stuck: return SinkFault::Stuck;
          case sim::SinkFaultKind::NoSpace: return SinkFault::NoSpace;
          case sim::SinkFaultKind::None: break;
        }
        return SinkFault::None;
      });
  ResilientWriter writer(wcfg, std::move(sink));

  TraceFollowerConfig rcfg;
  rcfg.max_read_attempts = 2;
  // The writer idles once its records drain; the watchdog must outlast
  // that lull (the producer is alive, just quiet) until close().
  rcfg.liveness_timeout_ns = 1'000'000'000;
  auto source = std::make_unique<FaultableByteSource>(
      std::make_unique<FileByteSource>(path),
      [&plan]() {
        switch (plan.read_fault()) {
          case sim::ReadFaultKind::Transient: return ReadFault::Transient;
          case sim::ReadFaultKind::Short: return ReadFault::Short;
          case sim::ReadFaultKind::None: break;
        }
        return ReadFault::None;
      },
      nullptr);
  TraceFollower follower(rcfg, std::move(source));

  const auto ms = make_markers(64);
  const auto ss = make_samples(120);
  std::uint64_t now = 0;
  TraceData got;
  std::size_t mi = 0;
  std::size_t si = 0;
  for (int step = 0; step < 400; ++step) {
    if (mi < ms.size()) {
      writer.add_markers(ms.data() + mi, 4, now);
      mi += 4;
    }
    if (si < ss.size()) {
      writer.add_samples(ss.data() + si, 6, now);
      si += 6;
    }
    writer.pump(now);
    auto pr = follower.poll(now);
    got.markers.insert(got.markers.end(), pr.data.markers.begin(),
                       pr.data.markers.end());
    got.samples.insert(got.samples.end(), pr.data.samples.begin(),
                       pr.data.samples.end());
    now += 1'000'000;
  }
  writer.close(now);
  auto last = drain(follower, now, got, 2000);

  EXPECT_TRUE(last.finished);
  EXPECT_EQ(follower.finish_reason(), FollowFinish::CleanEof);
  const auto& fs = follower.stats();
  EXPECT_TRUE(fs.reconciled());
  EXPECT_EQ(fs.chunks_torn, 0u) << "a clean close leaves no torn chunks";

  // The two ledgers reconcile exactly (the writer's committed count
  // includes the eof sentinel; the follower tracks it as eof_seen).
  const auto& ws = writer.stats();
  EXPECT_TRUE(ws.reconciled());
  EXPECT_EQ(ws.chunks_committed,
            fs.chunks_consumed + fs.chunks_salvaged + (fs.eof_seen ? 1 : 0));

  // The plan's faults really fired on both sides of the spool.
  EXPECT_GT(plan.sink_transients(), 0u);
  EXPECT_GT(plan.sink_stuck_hits(), 0u);
  EXPECT_GT(plan.read_transients(), 0u);
  EXPECT_GT(plan.read_short_hits(), 0u);
  EXPECT_GT(ws.retries, 0u);

  // Every record the writer committed arrived, in order, exactly once.
  EXPECT_EQ(got.markers.size() + got.samples.size(), ws.records_committed);
  EXPECT_TRUE(std::equal(got.markers.begin(), got.markers.end(), ms.begin()));
  EXPECT_TRUE(std::equal(got.samples.begin(), got.samples.end(), ss.begin()));
  std::remove(path.c_str());
}

// Mid-write kill: the writer stops pumping without close() (its staged
// tail and eof never reach the file). The follower's watchdog fires and
// the final ledger attributes everything durable.
TEST(TraceFollower, WriterAbandonmentSalvagesDurableChunks) {
  const std::string path = temp_path("follower_abandon.flxt2");
  std::remove(path.c_str());

  ResilientWriterConfig wcfg;
  wcfg.records_per_chunk = 8;
  ResilientWriter writer(wcfg, std::make_unique<FileSpoolSink>(path));

  const auto ms = make_markers(40);
  std::uint64_t now = 0;
  writer.add_markers(ms.data(), ms.size(), now);
  writer.pump(now);
  const std::uint64_t committed = writer.stats().chunks_committed;
  ASSERT_GT(committed, 0u);
  // No close(): kill -9. The follower must detect death and settle.

  TraceFollowerConfig rcfg;
  rcfg.liveness_timeout_ns = 10'000'000;
  TraceFollower f = TraceFollower::open(path, rcfg);
  TraceData got;
  auto last = drain(f, now, got, 1000);
  EXPECT_TRUE(last.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::ProducerDeath);
  const auto& fs = f.stats();
  EXPECT_TRUE(fs.reconciled());
  EXPECT_FALSE(fs.eof_seen);
  EXPECT_EQ(fs.chunks_consumed + fs.chunks_salvaged, committed);
  EXPECT_EQ(got.markers.size(), committed * 8);
  std::remove(path.c_str());
}

TEST(TraceFollower, StopMidStreamSettlesLedger) {
  const std::string path = temp_path("follower_stop.flxt2");
  io::TraceData data{.markers = make_markers(16),
                     .samples = {},
                     .wait_edges = {}};
  const std::string image = v2_image(data, 8);
  const auto refs = index_trace_v2(image);
  const std::size_t cut = static_cast<std::size_t>(refs[1].offset) + 10;
  write_file(path, image.substr(0, cut)); // torn tail, no eof

  TraceFollower f = TraceFollower::open(path, {});
  std::uint64_t now = 0;
  f.poll(now);
  auto fin = f.stop(now + 1);
  EXPECT_TRUE(fin.finished);
  EXPECT_EQ(f.finish_reason(), FollowFinish::Stopped);
  EXPECT_TRUE(f.stats().reconciled());
  EXPECT_EQ(f.stats().chunks_consumed, 1u);
  EXPECT_EQ(f.stats().chunks_torn, 1u);
  // poll() and stop() after finish are inert.
  auto after = f.poll(now + 2);
  EXPECT_TRUE(after.finished);
  EXPECT_EQ(after.chunks, 0u);
  std::remove(path.c_str());
}

TEST(TraceFollower, WaitEdgeChunksFlowThroughTheLiveLedger) {
  const std::string path = temp_path("follower_waits.flxt2");
  io::TraceData data{.markers = make_markers(8),
                     .samples = make_samples(12),
                     .wait_edges = {}};
  for (std::size_t i = 0; i < 9; ++i) {
    WaitEdge e;
    e.enter = 1000 + i * 50;
    e.leave = e.enter + 30;
    e.item = i;
    e.waiter_core = 1;
    e.holder_core = 2;
    e.resource = 10;
    e.cause = WaitCause::RingFull;
    data.wait_edges.push_back(e);
  }
  const std::string image = v2_image(data, 4);

  // Stream the file in two installments split mid-image, the way a live
  // writer would leave it: the torn tail is "not yet", then completes.
  write_file(path, image.substr(0, image.size() / 2));
  TraceFollower f = TraceFollower::open(path, {});
  std::uint64_t now = 0;
  TraceData got;
  for (int i = 0; i < 5; ++i) {
    auto pr = f.poll(now);
    now += 1'000'000;
    got.wait_edges.insert(got.wait_edges.end(), pr.data.wait_edges.begin(),
                          pr.data.wait_edges.end());
  }
  EXPECT_FALSE(f.finished());
  append_file(path, image.substr(image.size() / 2));
  while (!f.finished()) {
    auto pr = f.poll(now);
    now += 1'000'000;
    got.wait_edges.insert(got.wait_edges.end(), pr.data.wait_edges.begin(),
                          pr.data.wait_edges.end());
    if (pr.finished) break;
  }

  EXPECT_EQ(f.finish_reason(), FollowFinish::CleanEof);
  EXPECT_TRUE(f.stats().reconciled());
  EXPECT_EQ(f.stats().records_wait_edges, 9u);
  EXPECT_EQ(got.wait_edges, data.wait_edges);
  std::remove(path.c_str());
}

} // namespace
} // namespace fluxtrace::io
