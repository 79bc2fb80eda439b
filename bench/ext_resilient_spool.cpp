// Extension: resilient spooling under sink chaos. Sweeps the overflow
// policy against the sink transient-failure rate and shows the robustness
// contract of io::ResilientWriter: throughput degrades smoothly, every
// record that does not reach the spool is attributed to a counted cause
// (queue drop vs sink loss), and the ledger reconciles exactly at every
// point of the sweep — there is no fault rate at which records silently
// vanish.
//
// Each point also measures the spool itself: the bytes it holds per
// committed record (compressed FLXT v3 chunks), the writer's own time per
// record (add_samples + pump + close, steady clock), and a read-back of
// the spool image that must return exactly the committed records.
// BENCH_resilient_spool.json carries, per point, "writer.<policy>.<pct>"
// (ns_per_op = writer ns/record) and "bytes_per_record.<policy>.<pct>"
// (ns_per_op holds the bytes/record), with the measured parallelism of
// the host under "host".
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "fluxtrace/io/resilient.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/sim/fault.hpp"
#include "json_out.hpp"

using namespace fluxtrace;

namespace {

/// In-memory spool device: byte-accurate, failure-free. Faults are layered
/// on top with io::FaultableSink so the sweep is filesystem-independent.
struct MemorySink final : io::SpoolSink {
  std::string bytes;
  io::SinkResult write(const char* d, std::size_t n) override {
    bytes.append(d, n);
    return {io::SinkStatus::Ok, n};
  }
  bool sync() override { return true; }
  [[nodiscard]] std::string describe() const override { return "mem"; }
};

struct SweepPoint {
  const char* policy;
  double fault_rate;
  io::ResilientWriter::Stats stats;
  bool reconciled;
  std::uint64_t spool_bytes = 0; ///< what reached the device
  double writer_ns = 0;          ///< steady-clock time inside the writer
  std::uint64_t read_back = 0;   ///< records decoded from the spool image

  [[nodiscard]] double bytes_per_record() const {
    return stats.records_committed > 0
               ? static_cast<double>(spool_bytes) /
                     static_cast<double>(stats.records_committed)
               : 0.0;
  }
  [[nodiscard]] double ns_per_record() const {
    return writer_ns / static_cast<double>(stats.records_enqueued);
  }
};

SweepPoint run_point(io::OverflowPolicy policy, const char* policy_name,
                     double fault_rate) {
  sim::FaultPlanConfig fcfg;
  fcfg.seed = 42;
  fcfg.sink_transient_rate = fault_rate;
  sim::FaultPlan plan(fcfg);

  auto device = std::make_unique<MemorySink>();
  const MemorySink& spool = *device;
  io::ResilientWriterConfig wcfg;
  wcfg.queue_chunks = 16;
  wcfg.overflow = policy;
  wcfg.records_per_chunk = 64;
  wcfg.max_attempts = 4;
  wcfg.backoff_base_ns = 1'000;
  wcfg.backoff_cap_ns = 100'000;
  auto primary = std::make_unique<io::FaultableSink>(
      std::move(device), [&plan](std::size_t bytes) {
        switch (plan.sink_fault(bytes)) {
          case sim::SinkFaultKind::Transient: return io::SinkFault::Transient;
          case sim::SinkFaultKind::Stuck: return io::SinkFault::Stuck;
          case sim::SinkFaultKind::NoSpace: return io::SinkFault::NoSpace;
          case sim::SinkFaultKind::None: break;
        }
        return io::SinkFault::None;
      });
  io::ResilientWriter w(wcfg, std::move(primary));

  // 20k samples arriving in drain-sized batches, one pump per batch —
  // the cadence a supervised capture session drives the writer at.
  constexpr std::size_t kTotal = 20'000;
  constexpr std::size_t kBatch = 128;
  std::vector<PebsSample> batch(kBatch);
  std::uint64_t now = 0;
  std::chrono::steady_clock::duration in_writer{};
  const auto timed = [&in_writer](auto&& call) {
    const auto t0 = std::chrono::steady_clock::now();
    call();
    in_writer += std::chrono::steady_clock::now() - t0;
  };
  for (std::size_t off = 0; off < kTotal; off += kBatch) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch[i].tsc = off + i;
      batch[i].core = 1;
      batch[i].ip = 0x400000 + i;
    }
    now += 10'000; // 10 us between drains
    timed([&] {
      w.add_samples(batch.data(), kBatch, now);
      w.pump(now);
    });
  }
  timed([&] { w.close(now + 1'000'000'000); });

  SweepPoint p{policy_name, fault_rate, w.stats(), w.stats().reconciled()};
  p.spool_bytes = spool.bytes.size();
  p.writer_ns =
      std::chrono::duration<double, std::nano>(in_writer).count();
  // The spool must read back as exactly the committed records: clean
  // when the close committed the eof sentinel, salvaged otherwise.
  const io::TraceReader::ReadResult back =
      io::open_trace_bytes(spool.bytes).read_or_salvage();
  p.read_back = back.data.samples.size() + back.data.markers.size() +
                back.data.wait_edges.size();
  return p;
}

} // namespace

int main() {
  bench::banner("ext_resilient_spool — overflow policy x sink fault sweep",
                "extension of §III-E (loss accounting) + §IV-C3 (spooling)");

  const std::pair<io::OverflowPolicy, const char*> policies[] = {
      {io::OverflowPolicy::Block, "block"},
      {io::OverflowPolicy::DropOldest, "drop-oldest"},
      {io::OverflowPolicy::DropNewest, "drop-newest"},
  };
  const double rates[] = {0.0, 0.1, 0.3, 0.5};

  std::printf("%-12s %6s | %9s %9s %9s %8s %9s | %6s %7s | %s\n", "policy",
              "fault", "committed", "q-dropped", "sink-lost", "retries",
              "backoff-us", "B/rec", "ns/rec", "ledger");
  bench::BenchJson json("resilient_spool");
  bool all_reconciled = true;
  bool all_read_back = true;
  for (const auto& [policy, name] : policies) {
    for (const double rate : rates) {
      const SweepPoint p = run_point(policy, name, rate);
      all_reconciled = all_reconciled && p.reconciled;
      const bool read_back = p.read_back == p.stats.records_committed;
      all_read_back = all_read_back && read_back;
      std::printf("%-12s %5.0f%% | %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                  " %8" PRIu64 " %9" PRIu64 " | %6.2f %7.0f | %s%s\n",
                  p.policy, rate * 100.0, p.stats.records_committed,
                  p.stats.records_dropped_queue, p.stats.records_lost_sink,
                  p.stats.retries, p.stats.backoff_ns / 1000,
                  p.bytes_per_record(), p.ns_per_record(),
                  p.reconciled ? "exact" : "MISMATCH",
                  read_back ? "" : " READ-BACK MISMATCH");
      const std::string key =
          std::string(name) + "." + std::to_string(std::lround(rate * 100));
      json.add("writer." + key,
               static_cast<double>(p.stats.records_enqueued),
               p.ns_per_record());
      json.add("bytes_per_record." + key,
               static_cast<double>(p.stats.records_committed),
               p.bytes_per_record());
    }
    std::printf("\n");
  }

  const double par = bench::measured_parallelism();
  json.host("effective_parallelism", par);
  json.host("hardware_concurrency", std::thread::hardware_concurrency());
  json.write();

  std::printf("every point reconciled: %s\n", all_reconciled ? "yes" : "NO");
  std::printf("every spool read back as its committed records: %s\n",
              all_read_back ? "yes" : "NO");
  return all_reconciled && all_read_back ? 0 : 1;
}
