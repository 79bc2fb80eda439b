#include "fluxtrace/hub/catalog.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/obs/metrics.hpp"
#include "fluxtrace/obs/span.hpp"
#include "fluxtrace/query/flxi.hpp"
#include "fluxtrace/rt/thread_pool.hpp"

namespace fluxtrace::hub {

namespace {

constexpr const char* kManifestName = "catalog.flxh";

struct HubMetrics {
  obs::Counter& ingested = obs::metrics().counter("hub.ingested");
  obs::Counter& salvaged = obs::metrics().counter("hub.salvaged");
  obs::Counter& quarantined = obs::metrics().counter("hub.quarantined");
  obs::Counter& expired = obs::metrics().counter("hub.expired");
  obs::Counter& compactions = obs::metrics().counter("hub.compactions");
  obs::Counter& retries = obs::metrics().counter("hub.retries");
  obs::Counter& breaker_opens = obs::metrics().counter("hub.breaker_opens");
  obs::Counter& scan_errors = obs::metrics().counter("hub.scan_errors");

  static HubMetrics& get() {
    static HubMetrics m;
    return m;
  }
};

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_trace_name(const std::string& name) {
  // .flxt2/.flxt3 are the conventional names for chunked spools (the
  // container is autodetected either way — this is only the dir filter).
  // .flxz stays in the filter although nothing writes FLXZ anymore: a
  // leftover member is then quarantined in the ledger, not silently
  // ignored.
  return ends_with(name, ".flxt") || ends_with(name, ".flxz") ||
         ends_with(name, ".flxt2") || ends_with(name, ".flxt3");
}

std::string errno_context(const std::string& path, int err) {
  return path + ": " + std::strerror(err);
}

/// Recursive POSIX walk. Every failure is one `errors` line; the walk
/// never aborts — a fleet directory full of broken symlinks, vanished
/// mounts and permission holes still yields every readable trace.
void walk_dir(const std::string& dir, std::vector<std::string>& traces,
              std::vector<std::string>& errors) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    errors.push_back("cannot open directory: " + errno_context(dir, errno));
    return;
  }
  std::vector<std::string> subdirs;
  while (true) {
    errno = 0;
    dirent* ent = ::readdir(d);
    if (ent == nullptr) {
      if (errno != 0) {
        errors.push_back("cannot read directory: " +
                         errno_context(dir, errno));
      }
      break;
    }
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) {
      errors.push_back("cannot stat: " + errno_context(path, errno));
      continue;
    }
    if (S_ISDIR(st.st_mode)) {
      subdirs.push_back(path);
    } else if (S_ISREG(st.st_mode) && is_trace_name(name)) {
      traces.push_back(path);
    }
  }
  ::closedir(d);
  for (const std::string& sub : subdirs) walk_dir(sub, traces, errors);
}

/// Delete a trace file and its sidecar; ENOENT is success (already gone).
bool unlink_trace(const std::string& path, std::string* error) {
  bool ok = true;
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    if (error != nullptr) {
      *error = "cannot delete: " + errno_context(path, errno);
    }
    ok = false;
  }
  const std::string sidecar = query::flxi_path(path);
  ::unlink(sidecar.c_str()); // best-effort; sidecars are derived data
  return ok;
}

/// True when the file at `path` still carries exactly the bytes the
/// entry describes — the guard that keeps sweeps from deleting a file
/// that was replaced after its entry was written.
bool file_matches_entry(const std::string& path, const TraceEntry& e) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return false;
  if (static_cast<std::uint64_t>(st.st_size) != e.size_bytes) return false;
  try {
    const io::TraceReader r = io::open_trace(path);
    const std::string_view image = r.bytes();
    return io::crc32(image.data(), image.size()) == e.crc;
  } catch (const io::TraceIoError&) {
    return false;
  }
}

void write_file_fsync(const std::string& path, const std::string& bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw io::TraceIoError("cannot open for writing: " +
                           errno_context(path, errno));
  }
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(path.c_str());
      throw io::TraceIoError("write failed: " + errno_context(path, err));
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw io::TraceIoError("fsync failed: " + errno_context(path, err));
  }
  ::close(fd);
}

} // namespace

/// Per-shard circuit breaker (the ResilientWriter discipline applied to
/// the read path): breaker_strikes exhausted-retry traces open the
/// circuit; while open, the shard fails its traces fast; after
/// breaker_cooldown_ns a half-open probe is allowed and a success
/// closes it again.
struct Catalog::ShardBreaker {
  std::mutex mu;
  std::uint32_t strikes = 0;
  bool open = false;
  std::uint64_t opened_at_ns = 0;
};

void Catalog::note(const char* checkpoint) {
  if (opts_.checkpoint) opts_.checkpoint(checkpoint);
}

Catalog Catalog::open(const std::string& dir, const SymbolTable& symtab,
                      CatalogOptions opts) {
  OBS_SPAN("hub.open");
  Catalog c;
  c.dir_ = dir;
  c.symtab_ = &symtab;
  c.opts_ = std::move(opts);
  if (!c.opts_.now_ns) c.opts_.now_ns = steady_now_ns;

  ::mkdir(dir.c_str(), 0755); // ok if it already exists

  c.manifest_ = std::make_unique<Manifest>(
      Manifest::open(dir + "/" + kManifestName, c.opts_.manifest_fault));
  c.open_report_.replay = c.manifest_->replay_stats();

  // Roll back a compaction that died between intent and commit: the
  // segment (possibly half-written) is deleted and the intent closed.
  // The members were never touched, so the catalog is exactly as it was
  // before the compaction started.
  if (c.manifest_->pending_intent().has_value()) {
    const CompactIntent ci = *c.manifest_->pending_intent();
    unlink_trace(ci.segment_path, nullptr);
    c.manifest_->compact_abort(ci.segment_path);
    c.open_report_.rolled_back_compaction = true;
  }

  // Sweep expired leftovers: a crash between journal-commit and file
  // delete leaves the file on disk; on the next open it is deleted —
  // but only if its bytes still match the entry.
  for (const auto& [path, entry] : c.manifest_->entries()) {
    if (entry.state != TraceState::Expired) continue;
    if (file_matches_entry(path, entry)) {
      if (unlink_trace(path, nullptr)) ++c.open_report_.swept_files;
    }
  }
  return c;
}

ScanResult Catalog::scan() const {
  OBS_SPAN("hub.scan");
  ScanResult out;
  walk_dir(dir_, out.traces, out.errors);
  std::sort(out.traces.begin(), out.traces.end());
  HubMetrics::get().scan_errors.inc(out.errors.size());
  return out;
}

IngestReport Catalog::ingest() {
  OBS_SPAN("hub.ingest");
  const ScanResult sr = scan();

  IngestReport report;
  report.scanned = sr.traces.size();
  report.errors = sr.errors;
  report.failed += sr.errors.size();

  const unsigned n_shards = rt::resolve_threads(opts_.threads);
  std::vector<ShardBreaker> breakers(n_shards);
  std::mutex commit_mu; // serializes manifest appends + report/stats

  const auto ingest_one = [&](std::size_t i) {
    const std::string& path = sr.traces[i];
    ShardBreaker& br = breakers[i % n_shards];

    // Breaker gate.
    {
      std::lock_guard<std::mutex> lk(br.mu);
      if (br.open) {
        if (opts_.now_ns() <
            br.opened_at_ns + opts_.breaker_cooldown_ns) {
          std::lock_guard<std::mutex> rk(commit_mu);
          ++report.failed;
          ++stats_.breaker_rejects;
          report.errors.push_back(path + ": shard breaker open");
          return;
        }
        br.open = false; // cooldown elapsed: half-open probe
        br.strikes = br.strikes > 0 ? br.strikes - 1 : 0;
      }
    }

    // Read with retry + capped backoff. Injected transient faults and
    // real open failures both count as attempts.
    std::string read_error;
    bool read_ok = false;
    std::optional<io::TraceReader> reader; // held through the refresh
    io::TraceTriage triage;
    std::uint64_t file_size = 0;
    std::uint32_t file_crc = 0;
    for (std::uint32_t attempt = 0; attempt < opts_.max_attempts; ++attempt) {
      if (attempt > 0) {
        const std::uint64_t delay = std::min(
            opts_.backoff_cap_ns, opts_.backoff_base_ns << (attempt - 1));
        std::lock_guard<std::mutex> rk(commit_mu);
        ++stats_.retries;
        stats_.backoff_ns += delay;
        HubMetrics::get().retries.inc();
      }
      if (opts_.read_fault && opts_.read_fault(path)) {
        read_error = path + ": injected transient read fault";
        continue;
      }
      try {
        reader = io::open_trace(path);
        // The one whole-image CRC of ingest: the manifest's, which is how
        // a re-ingest notices bit rot.
        const std::string_view image = reader->bytes();
        file_size = reader->size_bytes();
        file_crc = io::crc32(image.data(), image.size());
        triage = io::classify_trace(*reader);
        read_ok = true;
        break;
      } catch (const io::TraceIoError& e) {
        read_error = e.what();
      }
    }

    if (!read_ok) {
      bool opened = false;
      {
        std::lock_guard<std::mutex> lk(br.mu);
        if (++br.strikes >= opts_.breaker_strikes && !br.open) {
          br.open = true;
          br.opened_at_ns = opts_.now_ns();
          opened = true;
        }
      }
      std::lock_guard<std::mutex> rk(commit_mu);
      ++report.failed;
      report.errors.push_back(read_error);
      if (opened) {
        ++stats_.breaker_opens;
        HubMetrics::get().breaker_opens.inc();
      }
      return;
    }
    {
      std::lock_guard<std::mutex> lk(br.mu);
      br.strikes = 0; // a success resets the shard
    }

    // Unchanged? (size + crc both match the live entry)
    {
      std::lock_guard<std::mutex> lk(commit_mu);
      const auto it = manifest_->entries().find(path);
      if (it != manifest_->entries().end() &&
          it->second.state != TraceState::Expired &&
          it->second.size_bytes == file_size && it->second.crc == file_crc) {
        ++report.unchanged;
        return;
      }
    }

    TraceEntry e;
    e.path = path;
    e.size_bytes = file_size;
    e.crc = file_crc;
    e.ingested_at_ns = opts_.now_ns();
    e.rows = triage.rows;
    e.chunks_ok = triage.report.chunks_ok;
    e.chunks_corrupt = triage.report.chunks_corrupt;
    e.bytes_lost =
        triage.report.bytes_skipped + triage.report.bytes_truncated;

    switch (triage.health) {
      case io::TraceHealth::Clean:
        e.state = TraceState::Ok;
        break;
      case io::TraceHealth::Salvaged:
        e.state = TraceState::Salvaged;
        e.detail = std::to_string(e.chunks_corrupt) + " corrupt chunks, " +
                   std::to_string(e.bytes_lost) + " bytes lost";
        break;
      case io::TraceHealth::Unrecoverable:
        e.state = TraceState::Quarantined;
        e.detail = "unrecoverable: " + std::to_string(e.chunks_corrupt) +
                   " corrupt chunks, " + std::to_string(e.bytes_lost) +
                   " bytes lost";
        break;
    }

    // Sidecar refresh for anything queries will read, over the reader
    // ingest already holds. A sidecar failure degrades (queries scan
    // without pruning); it never fails ingest.
    if (e.state != TraceState::Quarantined) {
      try {
        const query::SidecarStatus s = query::refresh_sidecar(
            *reader, *symtab_, opts_.use_register_ids, opts_.threads);
        e.sidecar = s == query::SidecarStatus::Fresh ||
                    s == query::SidecarStatus::Rebuilt;
      } catch (const io::TraceIoError&) {
        e.sidecar = false;
      }
    }

    std::lock_guard<std::mutex> lk(commit_mu);
    try {
      manifest_->upsert(e);
    } catch (const ManifestError& ex) {
      ++report.failed;
      report.errors.push_back(path + ": " + ex.what());
      return;
    }
    switch (e.state) {
      case TraceState::Ok:
        ++report.registered;
        HubMetrics::get().ingested.inc();
        break;
      case TraceState::Salvaged:
        ++report.salvaged;
        HubMetrics::get().salvaged.inc();
        break;
      case TraceState::Quarantined:
        ++report.quarantined;
        HubMetrics::get().quarantined.inc();
        break;
      case TraceState::Expired:
        break;
    }
    note("ingest.registered");
  };

  if (n_shards > 1 && sr.traces.size() > 1) {
    rt::ThreadPool pool(n_shards);
    pool.parallel_for(sr.traces.size(), ingest_one);
  } else {
    for (std::size_t i = 0; i < sr.traces.size(); ++i) ingest_one(i);
  }

  if (manifest_->wants_snapshot()) {
    try {
      manifest_->snapshot();
    } catch (const ManifestError& e) {
      report.errors.push_back(std::string("manifest snapshot failed: ") +
                              e.what());
    }
  }
  return report;
}

void Catalog::expire_entry(const TraceEntry& e, const char* why,
                           RetainReport& report) {
  TraceEntry expired = e;
  expired.state = TraceState::Expired;
  expired.detail = why;
  try {
    manifest_->upsert(expired);
  } catch (const ManifestError& ex) {
    report.errors.push_back(e.path + ": " + ex.what());
    return;
  }
  note("retain.committed");
  // The journal now says "expired" — the delete may die here and the
  // sweep-on-open finishes the job.
  std::string err;
  if (!unlink_trace(e.path, &err)) {
    report.errors.push_back(err);
  }
  ++report.expired;
  report.bytes_reclaimed += e.size_bytes;
  HubMetrics::get().expired.inc();
}

RetainReport Catalog::retain(std::uint64_t max_age_ns,
                             std::uint64_t max_total_bytes) {
  OBS_SPAN("hub.retain");
  RetainReport report;
  const std::uint64_t now = opts_.now_ns();

  // Pass 1: age. Quarantined entries age out too — the loss accounting
  // survives in the journal; only the hostile bytes are reclaimed.
  std::vector<TraceEntry> live;
  for (const auto& [path, entry] : manifest_->entries()) {
    if (entry.state == TraceState::Expired) continue;
    if (max_age_ns != 0 && entry.ingested_at_ns + max_age_ns < now) {
      expire_entry(entry, "expired by age", report);
      continue;
    }
    live.push_back(entry);
  }

  // Pass 2: size budget, oldest first.
  if (max_total_bytes != 0) {
    std::uint64_t total = 0;
    for (const TraceEntry& e : live) total += e.size_bytes;
    std::stable_sort(live.begin(), live.end(),
                     [](const TraceEntry& a, const TraceEntry& b) {
                       return a.ingested_at_ns < b.ingested_at_ns;
                     });
    for (const TraceEntry& e : live) {
      if (total <= max_total_bytes) break;
      expire_entry(e, "expired by size budget", report);
      total -= e.size_bytes;
    }
  }

  if (manifest_->wants_snapshot()) {
    try {
      manifest_->snapshot();
    } catch (const ManifestError& e) {
      report.errors.push_back(std::string("manifest snapshot failed: ") +
                              e.what());
    }
  }
  return report;
}

CompactReport Catalog::compact(std::uint64_t threshold_bytes,
                               std::size_t min_members) {
  OBS_SPAN("hub.compact");
  CompactReport report;

  // Candidates: clean traces under the threshold, in manifest (= sorted
  // path) order so the merged record order is deterministic and equals
  // the federated member order.
  std::vector<TraceEntry> members;
  for (const auto& [path, entry] : manifest_->entries()) {
    if (entry.state != TraceState::Ok) continue;
    if (entry.size_bytes >= threshold_bytes) continue;
    members.push_back(entry);
  }
  if (members.size() < std::max<std::size_t>(2, min_members)) return report;

  // Next segment sequence number: one past anything ever journaled.
  std::size_t seq = 0;
  for (const auto& [path, entry] : manifest_->entries()) {
    const std::size_t at = path.rfind("/seg-");
    if (at == std::string::npos) continue;
    seq = std::max(seq, static_cast<std::size_t>(
                            std::atoll(path.c_str() + at + 5)));
  }
  char name[32];
  std::snprintf(name, sizeof name, "/seg-%06zu.flxt", seq + 1);
  const std::string seg_path = dir_ + name;

  CompactIntent ci;
  ci.segment_path = seg_path;
  for (const TraceEntry& m : members) ci.members.push_back(m.path);
  try {
    manifest_->compact_intent(ci);
  } catch (const ManifestError& e) {
    report.errors.push_back(e.what());
    return report;
  }
  note("compact.intent");

  // Read and concatenate the members (strict: a member that fails the
  // clean read it passed at ingest has drifted — abort, re-ingest will
  // reclassify it).
  io::TraceData all;
  std::uint64_t rows = 0;
  for (const TraceEntry& m : members) {
    try {
      const io::TraceReader reader = io::open_trace(m.path);
      io::TraceData d = reader.read();
      rows += d.samples.size();
      all.markers.insert(all.markers.end(), d.markers.begin(),
                         d.markers.end());
      all.samples.insert(all.samples.end(), d.samples.begin(),
                         d.samples.end());
      all.wait_edges.insert(all.wait_edges.end(), d.wait_edges.begin(),
                            d.wait_edges.end());
    } catch (const io::TraceIoError& e) {
      report.errors.push_back(std::string("member drifted: ") + e.what());
      manifest_->compact_abort(seg_path);
      return report;
    }
  }

  std::string seg_bytes;
  {
    std::ostringstream os;
    io::write_trace_v3(os, all);
    seg_bytes = std::move(os).str();
  }
  try {
    write_file_fsync(seg_path, seg_bytes);
  } catch (const io::TraceIoError& e) {
    report.errors.push_back(e.what());
    manifest_->compact_abort(seg_path);
    return report;
  }
  note("compact.segment");

  TraceEntry seg;
  seg.path = seg_path;
  seg.state = TraceState::Ok;
  seg.size_bytes = seg_bytes.size();
  seg.crc = io::crc32(seg_bytes.data(), seg_bytes.size());
  seg.ingested_at_ns = opts_.now_ns();
  seg.rows = rows;
  seg.chunks_ok = 0; // strict-written; chunk accounting comes from triage
  try {
    const query::SidecarStatus s =
        query::refresh_sidecar(io::open_trace(seg_path), *symtab_,
                               opts_.use_register_ids, opts_.threads);
    seg.sidecar = s == query::SidecarStatus::Fresh ||
                  s == query::SidecarStatus::Rebuilt;
  } catch (const io::TraceIoError&) {
    seg.sidecar = false;
  }

  try {
    manifest_->compact_commit(seg, ci.members);
  } catch (const ManifestError& e) {
    report.errors.push_back(e.what());
    unlink_trace(seg_path, nullptr);
    try {
      manifest_->compact_abort(seg_path);
    } catch (const ManifestError&) {
      // Both appends failed (dead disk): the intent stays pending and
      // the next open rolls the segment back.
    }
    return report;
  }
  note("compact.commit");

  // Past the commit point: the members are expired in the journal, so a
  // crash in this loop leaves files the sweep-on-open deletes.
  for (const TraceEntry& m : members) {
    unlink_trace(m.path, nullptr);
  }
  note("compact.cleanup");

  report.segments_written = 1;
  report.members_merged = members.size();
  report.segment_path = seg_path;
  HubMetrics::get().compactions.inc();

  if (manifest_->wants_snapshot()) {
    try {
      manifest_->snapshot();
    } catch (const ManifestError& e) {
      report.errors.push_back(std::string("manifest snapshot failed: ") +
                              e.what());
    }
  }
  return report;
}

VerifyReport Catalog::verify() const {
  OBS_SPAN("hub.verify");
  VerifyReport report;
  for (const auto& [path, entry] : manifest_->entries()) {
    if (entry.state == TraceState::Expired) continue;
    ++report.checked;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) {
      ++report.missing;
      report.problems.push_back("missing: " + errno_context(path, errno));
      continue;
    }
    if (static_cast<std::uint64_t>(st.st_size) != entry.size_bytes ||
        !file_matches_entry(path, entry)) {
      ++report.drifted;
      report.problems.push_back("drifted: " + path +
                                ": size/crc no longer match manifest");
      continue;
    }
    if (entry.sidecar) {
      struct stat sst{};
      if (::stat(query::flxi_path(path).c_str(), &sst) != 0) {
        ++report.sidecars_stale;
        report.problems.push_back("sidecar missing: " +
                                  query::flxi_path(path));
      }
    }
  }
  return report;
}

std::vector<query::FederatedTrace> Catalog::query_members() const {
  std::vector<query::FederatedTrace> out;
  for (const auto& [path, entry] : manifest_->entries()) {
    switch (entry.state) {
      case TraceState::Ok:
      case TraceState::Salvaged:
        out.push_back({path, false});
        break;
      case TraceState::Quarantined:
        out.push_back({path, true});
        break;
      case TraceState::Expired:
        break;
    }
  }
  return out;
}

} // namespace fluxtrace::hub
