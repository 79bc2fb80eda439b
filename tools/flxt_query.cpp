// flxt_query — ad-hoc queries over a recorded trace (ISSUE 5), plus live
// trace following with continuous fluctuation alerting (ISSUE 6).
//
//   flxt_query <trace> <symbols> 'filter item == 7 | group func: count'
//   flxt_query <trace> <symbols> --repl         interactive session
//   flxt_query <trace> <symbols> 'outliers' --follow
//                                               tail a live capture
//   flxt_query <catalog-dir> <symbols> 'group func: count' --catalog
//                                               federate over a hub
//                                               catalog (ISSUE 9): the
//                                               merged answer to stdout,
//                                               the per-trace ok/salvaged
//                                               /quarantined/skipped
//                                               ledger to stderr
//
// The query is a pipeline of stages over the attributed sample columns
// (item, func, core, ts, dur, ip):
//
//   filter <predicate> | select cols | group keys: aggs
//   | outliers k=3 warmup=8 | top N by col | limit N
//
// Flags:
//   --csv / --json   machine-readable output (default: aligned table)
//   --stats          scan statistics (rows, chunks pruned) to stderr
//   --no-index       ignore and do not write the FLXI sidecar
//   --threads N      scan worker threads (0 = all cores; the result is
//                    bit-identical regardless)
//   --regs           attribute items via the sampled R13 register (§V-A)
//                    instead of marker windows
//
// Follow mode (io::TraceFollower + query::StreamingQuery):
//   --follow         tail the trace while a writer is still appending;
//                    each closed marker window prints one line, alerts
//                    from a continuous `outliers` stage print as they
//                    fire, and the final snapshot + chunk ledger print
//                    on exit. Exits 0 on the writer's clean eof, on
//                    producer death (kill -9 degrades into a salvage
//                    pass), and on Ctrl-C; 1 only when the source fails
//                    fatally or the ledger does not reconcile.
//   --poll-ms N      poll interval (default 50)
//   --death-timeout-ms N   producer-death watchdog (default 2000)
//   --pidfile FILE   liveness probe: while `kill(pid, 0)` succeeds for
//                    the pid in FILE, the watchdog never fires
//   --max-polls N    stop after N polls (0 = until eof/death; testing)
//
// SIGINT anywhere (long scan, REPL, --follow) exits cleanly: tables are
// rendered to a buffer and written atomically, and follow mode prints
// the partial-window ledger before exiting — never a half-written table.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include <unistd.h>

#include "cli.hpp"
#include "fluxtrace/hub/catalog.hpp"
#include "fluxtrace/io/follower.hpp"
#include "fluxtrace/io/symbols_file.hpp"
#include "fluxtrace/query/engine.hpp"
#include "fluxtrace/query/federated.hpp"
#include "fluxtrace/query/render.hpp"
#include "fluxtrace/query/stream.hpp"

using namespace fluxtrace;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void on_sigint(int) { g_interrupted = 1; }

/// No SA_RESTART: a Ctrl-C must interrupt getline/nanosleep, not be
/// swallowed by a restarted syscall.
void install_sigint() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigint;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
}

std::uint64_t now_ns() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_ms(std::uint64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1'000'000);
  nanosleep(&ts, nullptr); // EINTR on Ctrl-C is exactly what we want
}

enum class Shape : std::uint8_t { Table, Csv, Json };

/// Render to a buffer, then write atomically: an interrupt mid-render
/// discards the buffer instead of leaving a half-written table.
void print_result(const query::QueryResult& res, Shape shape) {
  std::ostringstream buf;
  switch (shape) {
    case Shape::Table: query::print_table(buf, res); break;
    case Shape::Csv: query::print_csv(buf, res); break;
    case Shape::Json: query::print_json(buf, res); break;
  }
  const std::string s = buf.str();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

int run_one(query::QueryEngine& engine, const std::string& text, Shape shape,
            bool stats) {
  query::QueryResult res;
  try {
    res = engine.run(text);
  } catch (const query::ParseError& e) {
    std::fprintf(stderr, "error: %s (at offset %zu)\n", e.what(), e.pos());
    return 2;
  }
  if (g_interrupted) {
    std::fprintf(stderr, "interrupted: result discarded\n");
    return 130;
  }
  print_result(res, shape);
  if (stats) query::print_stats(std::cerr, res.stats);
  return 0;
}

/// Federated mode (--catalog): evaluate one pipeline over every live
/// trace a hub catalog knows about, as if over their concatenation. The
/// per-trace ledger goes to stderr; the merged table to stdout.
int run_catalog(const std::string& dir, const SymbolTable& symtab,
                const std::string& text, Shape shape, bool stats,
                unsigned threads, bool regs, bool no_index) {
  hub::Catalog cat = [&] {
    try {
      return hub::Catalog::open(dir, symtab);
    } catch (const hub::ManifestError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(1);
    }
  }();

  query::FederatedOptions fopts;
  fopts.engine.threads = threads;
  fopts.engine.use_register_ids = regs;
  fopts.engine.use_index = !no_index;
  fopts.engine.write_index = false; // sidecars are the hub's to refresh
  fopts.fanout_threads = threads;

  query::FederatedResult fr;
  try {
    fr = query::run_federated(cat.query_members(), symtab, text, fopts);
  } catch (const query::ParseError& e) {
    std::fprintf(stderr, "error: %s (at offset %zu)\n", e.what(), e.pos());
    return 2;
  }
  if (g_interrupted) {
    std::fprintf(stderr, "interrupted: result discarded\n");
    return 130;
  }
  print_result(fr.result, shape);
  std::fprintf(stderr, "%s\n", fr.ledger.summary().c_str());
  if (stats) {
    for (const query::TraceLedgerEntry& e : fr.ledger.traces) {
      std::fprintf(stderr, "  %-11s %s%s%s\n",
                   std::string(to_string(e.state)).c_str(), e.path.c_str(),
                   e.detail.empty() ? "" : ": ", e.detail.c_str());
    }
    query::print_stats(std::cerr, fr.result.stats);
  }
  return 0;
}

/// Liveness probe from a pidfile: true while the pid exists.
bool pidfile_alive(const std::string& path) {
  std::ifstream is(path);
  long pid = 0;
  if (!(is >> pid) || pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0;
}

void print_ledger(const io::TraceFollower& follower,
                  const query::StreamingQuery& sq) {
  const auto& fs = follower.stats();
  const auto& ss = sq.stats();
  std::fprintf(stderr,
               "follow: finish=%s polls=%llu eof=%s header=%s\n",
               to_string(follower.finish_reason()),
               static_cast<unsigned long long>(fs.polls),
               fs.eof_seen ? "yes" : "no", fs.header_seen ? "yes" : "no");
  std::fprintf(stderr,
               "ledger: observed=%llu = consumed=%llu + salvaged=%llu + "
               "torn=%llu (%s)\n",
               static_cast<unsigned long long>(fs.chunks_observed),
               static_cast<unsigned long long>(fs.chunks_consumed),
               static_cast<unsigned long long>(fs.chunks_salvaged),
               static_cast<unsigned long long>(fs.chunks_torn),
               fs.reconciled() ? "exact" : "MISMATCH");
  std::fprintf(stderr,
               "bytes: consumed=%llu torn=%llu skipped=%llu "
               "transients=%llu short-reads=%llu resyncs=%llu\n",
               static_cast<unsigned long long>(fs.bytes_consumed),
               static_cast<unsigned long long>(fs.bytes_torn),
               static_cast<unsigned long long>(fs.bytes_skipped),
               static_cast<unsigned long long>(fs.read_transients),
               static_cast<unsigned long long>(fs.short_reads),
               static_cast<unsigned long long>(fs.resyncs));
  std::fprintf(stderr,
               "stream: windows=%llu rows-matched=%llu alerts=%llu "
               "unattributed=%llu wait-edges=%llu\n",
               static_cast<unsigned long long>(ss.windows_closed),
               static_cast<unsigned long long>(ss.rows_matched),
               static_cast<unsigned long long>(ss.alerts),
               static_cast<unsigned long long>(ss.rows_unattributed),
               static_cast<unsigned long long>(ss.wait_edges));
}

void print_windows(const std::vector<query::WindowResult>& windows,
                   const SymbolTable& symtab) {
  for (const query::WindowResult& w : windows) {
    std::printf("window item=%llu core=%u enter=%llu leave=%llu rows=%llu "
                "matched=%llu\n",
                static_cast<unsigned long long>(w.item), w.core,
                static_cast<unsigned long long>(w.enter),
                static_cast<unsigned long long>(w.leave),
                static_cast<unsigned long long>(w.rows),
                static_cast<unsigned long long>(w.rows_matched));
    for (const query::StreamAlert& a : w.alerts) {
      const std::string fn =
          a.func < symtab.size()
              ? std::string(symtab.name(static_cast<SymbolId>(a.func)))
              : std::to_string(a.func);
      std::printf("ALERT item=%llu func=%s elapsed=%llu mean=%.6g "
                  "sigma=%.6g sigmas=%.2f\n",
                  static_cast<unsigned long long>(a.item), fn.c_str(),
                  static_cast<unsigned long long>(a.elapsed), a.mean,
                  a.sigma, a.sigmas);
    }
  }
  if (!windows.empty()) std::fflush(stdout);
}

int run_follow(const std::string& trace_path, SymbolTable symtab,
               const std::string& text, Shape shape, std::uint64_t poll_ms,
               std::uint64_t death_timeout_ms, const char* pidfile,
               std::size_t max_polls) {
  query::Query q;
  try {
    q = query::parse_query(text, &symtab);
  } catch (const query::ParseError& e) {
    std::fprintf(stderr, "error: %s (at offset %zu)\n", e.what(), e.pos());
    return 2;
  }

  io::TraceFollowerConfig fcfg;
  fcfg.liveness_timeout_ns = death_timeout_ms * 1'000'000ull;
  if (pidfile != nullptr) {
    const std::string pf = pidfile;
    fcfg.producer_alive = [pf]() { return pidfile_alive(pf); };
  }
  io::TraceFollower follower = io::TraceFollower::open(trace_path, fcfg);
  // A poll can end between a window's sample chunks and its marker
  // chunk; keep samples pending long enough (in trace time) for the
  // markers to arrive in a later poll instead of aging them out.
  query::StreamOptions sopts;
  sopts.attribution_slack = 50'000'000;
  query::StreamingQuery sq(std::move(q), symtab, sopts);

  std::size_t polls = 0;
  while (!follower.finished()) {
    if (g_interrupted) {
      auto fin = follower.stop(now_ns());
      print_windows(sq.ingest(fin.data), sq.symtab());
      break;
    }
    auto pr = follower.poll(now_ns());
    ++polls;
    if (!pr.data.markers.empty() || !pr.data.samples.empty() ||
        !pr.data.wait_edges.empty()) {
      print_windows(sq.ingest(pr.data), sq.symtab());
    }
    if (pr.finished) break;
    if (max_polls > 0 && polls >= max_polls) {
      auto fin = follower.stop(now_ns());
      print_windows(sq.ingest(fin.data), sq.symtab());
      break;
    }
    sleep_ms(poll_ms);
  }

  // Close every still-open window and print the final snapshot + ledger.
  print_windows(sq.flush(), sq.symtab());
  print_result(sq.snapshot(), shape);
  print_ledger(follower, sq);

  if (follower.finish_reason() == io::FollowFinish::SourceFatal) return 1;
  if (!follower.stats().reconciled()) return 1;
  return 0;
}

} // namespace

int main(int argc, char** argv) try {
  tools::Cli cli(argc, argv,
                 std::string("usage: ") + argv[0] +
                     " <trace-file> <symbols-file> [QUERY] [--repl] "
                     "[--follow] [--poll-ms N] [--death-timeout-ms N] "
                     "[--pidfile FILE] [--max-polls N] "
                     "[--catalog] "
                     "[--csv] [--json] [--stats] [--no-index] "
                     "[--threads N] [--regs] [--telemetry FILE] "
                     "[--metrics] [--version]");
  bool repl = false;
  bool follow = false;
  bool catalog = false;
  bool csv = false;
  bool json = false;
  bool stats = false;
  bool no_index = false;
  bool regs = false;
  unsigned threads = 0;
  std::size_t poll_ms = 50;
  std::size_t death_timeout_ms = 2000;
  std::size_t max_polls = 0;
  const char* pidfile = nullptr;
  cli.flag("--repl", &repl);
  cli.flag("--follow", &follow);
  cli.flag("--catalog", &catalog);
  cli.flag("--csv", &csv);
  cli.flag("--json", &json);
  cli.flag("--stats", &stats);
  cli.flag("--no-index", &no_index);
  cli.flag("--regs", &regs);
  cli.flag_uint("--threads", &threads);
  cli.flag_count_pos("--poll-ms", &poll_ms);
  cli.flag_count_pos("--death-timeout-ms", &death_timeout_ms);
  cli.flag_count("--max-polls", &max_polls);
  cli.flag_str("--pidfile", &pidfile);
  tools::Telemetry tel;
  tel.attach(cli);
  if (!cli.parse(2, 3)) return cli.usage();
  if (csv && json) {
    std::fprintf(stderr, "error: --csv and --json are exclusive\n");
    return 2;
  }
  if (repl && follow) {
    std::fprintf(stderr, "error: --repl and --follow are exclusive\n");
    return 2;
  }
  if (catalog && (repl || follow)) {
    std::fprintf(stderr,
                 "error: --catalog is one-shot (no --repl / --follow)\n");
    return 2;
  }
  if ((cli.n_pos() == 3) == repl) {
    // Exactly one of: a query (one-shot or --follow), or --repl.
    return cli.usage();
  }
  install_sigint();
  tel.start();
  const Shape shape = csv ? Shape::Csv : json ? Shape::Json : Shape::Table;

  SymbolTable symtab;
  try {
    symtab = io::load_symbols(cli.pos(1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (catalog) {
    const int rc = run_catalog(cli.pos(0), symtab, cli.pos(2), shape, stats,
                               threads, regs, no_index);
    const int trc = tel.finish();
    return rc != 0 ? rc : trc;
  }

  if (follow) {
    const int rc =
        run_follow(cli.pos(0), std::move(symtab), cli.pos(2), shape, poll_ms,
                   death_timeout_ms, pidfile, max_polls);
    const int trc = tel.finish();
    return rc != 0 ? rc : trc;
  }

  query::EngineOptions opts;
  opts.threads = threads;
  opts.use_register_ids = regs;
  opts.use_index = !no_index;
  opts.write_index = !no_index;

  std::optional<query::QueryEngine> engine;
  try {
    engine = query::QueryEngine::open(cli.pos(0), std::move(symtab), opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!repl) {
    const int rc = run_one(*engine, cli.pos(2), shape, stats);
    if (rc != 0) return rc;
    return tel.finish();
  }

  // REPL: one query per line; the engine caches the decoded trace, so
  // follow-up queries only pay the scan. Prompt on stderr so piped
  // sessions produce clean output.
  std::string line;
  for (;;) {
    if (g_interrupted) {
      std::fputs("\ninterrupted\n", stderr);
      break;
    }
    std::fputs("flxt> ", stderr);
    std::fflush(stderr);
    if (!std::getline(std::cin, line)) {
      if (g_interrupted) {
        std::fputs("\ninterrupted\n", stderr);
      }
      break;
    }
    const std::size_t a = line.find_first_not_of(" \t\r");
    if (a == std::string::npos) continue;
    const std::string trimmed = line.substr(a);
    if (trimmed == "quit" || trimmed == "exit" || trimmed == ".quit") break;
    run_one(*engine, trimmed, shape, stats); // errors keep the session alive
  }
  return tel.finish();
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
