// The fleet-scale trace catalog (ISSUE 9): one directory tree of FLXT
// traces, one crash-consistent manifest journal, and the operations a
// fleet collector runs forever: ingest, retain, compact, verify.
//
//   Catalog::open(dir)          replay manifest, roll back a half-done
//                               compaction, sweep expired leftovers
//   scan()                      walk the tree; unreadable entries are
//                               reported (path + errno) and *skipped*,
//                               never fatal — a hostile fleet directory
//                               cannot take the catalog down
//   ingest()                    sharded over a thread pool: triage each
//                               trace (clean / salvaged / unrecoverable
//                               via io::classify_trace), refresh its
//                               FLXI sidecar, register it. Transient
//                               read faults retry with capped backoff;
//                               a shard whose faults persist opens its
//                               circuit breaker (the ResilientWriter
//                               discipline, applied to reads)
//   retain(age, bytes)          expire by age and by total-size budget;
//                               journal-commit first, delete second
//   compact(threshold)          merge small clean traces into one
//                               consolidated segment: intent → write
//                               new + fsync → commit (one composite
//                               record) → delete old. A kill -9 at any
//                               point leaves either the members or the
//                               segment accounted, never neither
//   verify()                    audit manifest against disk: size+crc
//                               drift, missing files, stale sidecars
//
// Every trace the catalog has ever seen is in exactly one TraceState —
// ok / salvaged / quarantined / expired — and the chaos suite replays
// the journal after kill -9 at every checkpoint to prove it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/hub/manifest.hpp"
#include "fluxtrace/query/federated.hpp"

namespace fluxtrace::hub {

struct CatalogOptions {
  /// Ingest shards (0 = hardware concurrency). Shard i handles every
  /// trace whose scan index ≡ i (mod shards); each shard carries its own
  /// circuit breaker so one bad disk region cannot wedge the others.
  /// Sidecar rebuilds decode on the same number of threads.
  unsigned threads = 0;
  /// Attribution mode baked into refreshed FLXI sidecars.
  bool use_register_ids = false;

  // Retry / breaker shape, mirrored from io::ResilientWriterConfig so
  // the two resilience layers tune the same way.
  std::uint32_t max_attempts = 3;
  std::uint64_t backoff_base_ns = 1'000;
  std::uint64_t backoff_cap_ns = 1'000'000;
  std::uint32_t breaker_strikes = 3;
  std::uint64_t breaker_cooldown_ns = 10'000'000;

  // --- test seams -------------------------------------------------------
  /// Clock for ingested_at / retention age / breaker cooldown. Defaults
  /// to the steady clock.
  std::function<std::uint64_t()> now_ns;
  /// Injected manifest write failure (ENOSPC budgets); see
  /// Manifest::WriteFault.
  Manifest::WriteFault manifest_fault;
  /// Injected transient read fault: consulted before each read attempt
  /// of `path`; true = this attempt fails (retried up to max_attempts).
  std::function<bool(const std::string& path)> read_fault;
  /// Crash checkpoint hook, called at every durability boundary with a
  /// stable name ("ingest.registered", "retain.committed",
  /// "compact.intent", "compact.segment", "compact.commit",
  /// "compact.cleanup"). The chaos driver wires it to _Exit(137).
  std::function<void(const char* checkpoint)> checkpoint;
};

/// What Catalog::open found and repaired.
struct OpenReport {
  ReplayStats replay;
  std::size_t swept_files = 0;     ///< expired leftovers deleted on open
  bool rolled_back_compaction = false; ///< dangling intent undone
};

struct ScanResult {
  std::vector<std::string> traces; ///< sorted, catalog-relative-stable
  /// One line per unreadable entry: "path: strerror(errno)". The walk
  /// continues past every failure.
  std::vector<std::string> errors;
};

struct IngestReport {
  std::size_t scanned = 0;
  std::size_t registered = 0;  ///< new or changed traces ingested clean
  std::size_t salvaged = 0;    ///< ingested in degraded form
  std::size_t quarantined = 0; ///< unrecoverable; never read again
  std::size_t unchanged = 0;   ///< already registered, same size+crc
  std::size_t failed = 0;      ///< read failures / open breakers
  std::vector<std::string> errors; ///< path + reason per failure
};

struct RetainReport {
  std::size_t expired = 0;
  std::uint64_t bytes_reclaimed = 0;
  std::vector<std::string> errors;
};

struct CompactReport {
  std::size_t segments_written = 0;
  std::size_t members_merged = 0;
  std::string segment_path;
  std::vector<std::string> errors;
};

struct VerifyReport {
  std::size_t checked = 0;
  std::size_t missing = 0;       ///< live entry, file gone
  std::size_t drifted = 0;       ///< size or crc no longer match
  std::size_t sidecars_stale = 0;
  std::vector<std::string> problems;

  [[nodiscard]] bool clean() const {
    return missing == 0 && drifted == 0 && sidecars_stale == 0;
  }
};

/// Ingest-side resilience accounting (the read-path mirror of
/// io::ResilientWriter::Stats).
struct CatalogStats {
  std::uint64_t retries = 0;       ///< read attempts beyond the first
  std::uint64_t backoff_ns = 0;    ///< total capped backoff accrued
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_rejects = 0; ///< ingests refused while open
};

class Catalog {
 public:
  /// Open-or-create the catalog rooted at `dir` (the manifest journal
  /// lives at dir/catalog.flxh). Replays the journal, rolls back any
  /// half-done compaction, sweeps expired leftovers whose size+crc still
  /// match their entry. Throws ManifestError when the journal cannot be
  /// opened at all.
  [[nodiscard]] static Catalog open(const std::string& dir,
                                    const SymbolTable& symtab,
                                    CatalogOptions opts = {});

  Catalog(Catalog&&) noexcept = default;
  Catalog& operator=(Catalog&&) noexcept = default;

  [[nodiscard]] const OpenReport& open_report() const { return open_report_; }
  [[nodiscard]] const Manifest& manifest() const { return *manifest_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const CatalogStats& stats() const { return stats_; }

  /// Recursive directory walk for *.flxt / *.flxz trace files. Sidecars,
  /// temp files and the manifest itself are skipped; unreadable entries
  /// land in `errors` with path + errno context and the walk continues.
  [[nodiscard]] ScanResult scan() const;

  /// scan() + sharded ingest of everything new or changed.
  IngestReport ingest();

  /// Expire by age (`max_age_ns` since ingest, 0 = no age limit) and by
  /// total live-byte budget (`max_total_bytes`, 0 = unlimited; oldest
  /// expire first). Journal-commit precedes every file delete.
  RetainReport retain(std::uint64_t max_age_ns, std::uint64_t max_total_bytes);

  /// Merge every clean trace smaller than `threshold_bytes` (at least
  /// `min_members` of them) into one consolidated v3 segment, staged
  /// write-new → fsync → journal-commit → delete-old.
  CompactReport compact(std::uint64_t threshold_bytes,
                        std::size_t min_members = 2);

  /// Audit every live entry against the bytes on disk.
  [[nodiscard]] VerifyReport verify() const;

  /// The federated-query member set: live traces in manifest (= sorted
  /// path) order, with quarantined entries flagged so the query layer
  /// counts them without ever opening them. Expired entries are gone.
  [[nodiscard]] std::vector<query::FederatedTrace> query_members() const;

 private:
  Catalog() = default;

  struct ShardBreaker;
  void expire_entry(const TraceEntry& e, const char* why,
                    RetainReport& report);
  void note(const char* checkpoint);

  std::string dir_;
  const SymbolTable* symtab_ = nullptr;
  CatalogOptions opts_;
  std::unique_ptr<Manifest> manifest_;
  OpenReport open_report_;
  CatalogStats stats_;
};

} // namespace fluxtrace::hub
