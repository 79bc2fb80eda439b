// perfbench: fluxtrace's repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --out-dir DIR
//             [--git-rev REV] [--source-hash HASH] [--work-fs FS]
//
// Sets the workload up, computes the oracle and the Figs 9/10 figures,
// runs one discarded warm-up journey and three untimed journeys that
// measure memory, then repeats the journey for S seconds, with one pass
// of the reference workload before each repetition and more set-ups
// between repetitions (setup_s is the median of five or more). With
// --trace 0 it prints the end-to-end metrics (medians over the
// repetitions); with --trace 1 it alternates untraced and traced
// repetitions, prints the per-layer metrics, the tracing overhead and the
// span check of every operation, and writes the spans as Chrome
// trace-event JSON into --out-dir. Timed metrics are scaled to the
// reference speed. The last stdout line is the result.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "fluxtrace/io/v3.hpp"

namespace {

using namespace perfbench;

/// Set-ups per run: the first builds the journey's inputs; more run
/// between repetitions while they have taken less than kSetupShare of
/// the timed loop's CPU time, so that setup_s samples the host across the
/// whole run like every other timed metric. At least kMinSetups.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 30;
constexpr double kSetupShare = 0.10;
constexpr int kMinReps = 6;
constexpr int kMaxReps = 400;
/// Reference passes before the warm-up; one more runs per repetition.
constexpr int kReferencePasses = 3;
/// Untimed repetitions that measure each operation's peak memory.
constexpr int kMemoryReps = 3;
/// The largest share of an operation's time its own bookkeeping (answer
/// checks, loop control) may take outside the public calls.
constexpr double kMaxUncovered = 0.15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string out_dir;
  std::string git_rev = "unknown";
  std::string source_hash = "unknown";
  std::string work_fs = "unknown";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR "
               "[--git-rev REV] [--source-hash HASH] [--work-fs FS]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || v[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) usage("missing value for " + f);
    const char* v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = parse_uint(f, v);
    } else if (f == "--seconds") {
      const std::uint64_t s = parse_uint(f, v);
      if (s < 1 || s > 3600) usage("--seconds must be in [1, 3600]");
      a.seconds = static_cast<int>(s);
    } else if (f == "--trace") {
      const std::uint64_t t = parse_uint(f, v);
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (f == "--work-dir") {
      a.work_dir = v;
    } else if (f == "--out-dir") {
      a.out_dir = v;
    } else if (f == "--git-rev") {
      a.git_rev = v;
    } else if (f == "--source-hash") {
      a.source_hash = v;
    } else if (f == "--work-fs") {
      a.work_fs = v;
    } else {
      usage("unknown flag " + f);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.work_dir.empty() || a.out_dir.empty()) usage("--work-dir and --out-dir are required");
  return a;
}

/// How many threads actually run at once: the same spin work on one
/// thread and on every reported hardware thread. A host whose reported
/// CPUs share one core reads ~1.0 whatever hardware_concurrency() says.
double effective_parallelism(unsigned n) {
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink] {
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ull + i;
    sink += x;
  };
  std::int64_t t0 = wall_ns();
  spin();
  const double one = static_cast<double>(wall_ns() - t0);
  t0 = wall_ns();
  {
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < n; ++i) ts.emplace_back(spin);
    for (std::thread& t : ts) t.join();
  }
  const double all = static_cast<double>(wall_ns() - t0);
  return static_cast<double>(n) * one / all;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// FNV-1a over the generated records and the symbol table: equal for
/// byte-identical inputs, whatever the encoders make of them on disk.
std::string input_hash(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const Member& m : w.members) {
    for (const Marker& k : m.data.markers) {
      mix(k.tsc);
      mix(k.item);
      mix(k.core);
      mix(static_cast<std::uint64_t>(k.kind));
    }
    for (const PebsSample& p : m.data.samples) {
      mix(p.tsc);
      mix(p.ip);
      mix(p.core);
      for (const std::uint64_t r : p.regs.v) mix(r);
    }
  }
  for (std::size_t i = 0; i < w.symtab.size(); ++i) {
    const Symbol& s = w.symtab[static_cast<SymbolId>(i)];
    for (const char c : s.name) mix(static_cast<unsigned char>(c));
    mix(s.lo);
    mix(s.hi);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct MetricDef {
  const char* name;
  const char* unit;
  bool timed; ///< CPU time of this host, scaled to the reference speed
};

// Must match BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", true},
    {"spool_ns_per_record", "ns/record", true},
    {"follow_ns_per_record", "ns/record", true},
    {"spool_bytes_per_record", "B/record", false},
    {"ingest_ns_per_row", "ns/row", true},
    {"stored_bytes_per_record", "B/record", false},
    {"cold_query_ns_per_row", "ns/row", true},
    {"warm_query_ns_per_row", "ns/row", true},
    {"item_query_us", "us", true},
    {"report_ns_per_row", "ns/row", true},
    {"peak_rss_mib", "MiB", false},
    {"capture_overhead_ns_per_item", "ns/item", false}, // simulated time
    {"estimate_error_pct", "%", false},
};

const std::vector<MetricDef>& layer_defs() {
  static const std::vector<MetricDef> d = {
      {"io.open_us", "us", true},
      {"query.engine_open_us", "us", true},
      {"io.read_ns_per_row", "ns/row", true},
      {"io.spool_self_ns_per_record", "ns/record", true},
      {"io.sink_ns_per_byte", "ns/B", true},
      {"io.syncs_per_chunk", "count", false},
      {"io.spool_retries", "count", false},
      {"io.poll_ns_per_record", "ns/record", true},
      {"io.empty_poll_ratio", "ratio", false},
      {"io.follow_transients", "count", false},
      {"codec.decode_ns_per_row", "ns/row", true},
      {"codec.samples_ts_bytes_per_row", "B/row", false},
      {"codec.samples_ip_bytes_per_row", "B/row", false},
      {"codec.samples_core_bytes_per_row", "B/row", false},
      {"codec.samples_regs_bytes_per_row", "B/row", false},
      {"codec.markers_bytes_per_row", "B/row", false},
      {"query.build_ns_per_row", "ns/row", true},
      {"query.attribute_ns_per_row", "ns/row", true},
      {"query.scan_ns_per_row.top_items", "ns/row", true},
      {"query.scan_ns_per_row.outliers", "ns/row", true},
      {"query.scan_ns_per_row.core_filter", "ns/row", true},
      {"query.finish_us.top_items", "us", true},
      {"query.finish_us.outliers", "us", true},
      {"query.finish_us.core_filter", "us", true},
      {"query.groups.top_items", "count", false},
      {"query.groups.outliers", "count", false},
      {"query.groups.core_filter", "count", false},
      {"query.chunks_pruned_ratio", "ratio", false},
      {"query.blocks_skipped_ratio", "ratio", false},
      {"query.rows_matched_ratio", "ratio", false},
      {"query.stream_ns_per_record", "ns/record", true},
      {"query.windows_closed", "count", false},
      {"query.rows_unattributed", "count", false},
      {"query.federated_merge_us", "us", true},
      {"query.render_us", "us", true},
      {"core.integrate_ns_per_row", "ns/row", true},
      {"core.diagnose_ns_per_item", "ns/item", true},
      {"hub.catalog_open_us", "us", true},
      {"hub.ingest_us_per_member", "us", true},
      {"hub.failed", "count", false},
      {"hub.quarantined", "count", false},
      {"hub.triage_ns_per_row", "ns/row", true},
      {"hub.sidecar_bytes_per_row", "B/row", false},
      {"hub.journal_bytes_per_member", "B", false},
      {"sim.samples_per_item", "count", false},
      {"sim.lost_per_item", "count", false},
      {"sim.assist_ns_per_item", "ns/item", false},
      {"sim.drain_stall_ns_per_item", "ns/item", false},
      {"sim.overhead_ns_per_sample", "ns", false},
      {"mem.spool_follow_peak_mib", "MiB", false},
      {"mem.ingest_peak_mib", "MiB", false},
      {"mem.cold_query_peak_mib", "MiB", false},
      {"mem.warm_query_peak_mib", "MiB", false},
      {"mem.item_query_peak_mib", "MiB", false},
      {"mem.report_peak_mib", "MiB", false},
  };
  return d;
}

struct Setup {
  Workload w;
  std::string dir;
  std::string hash;
  double secs = 0;
};

/// Generate the workload and write its at-rest FLXT v3 traces.
Setup set_up(const Args& a, int k, Tracer& t) {
  Setup s;
  s.dir = a.work_dir + "/atrest" + std::to_string(k);
  remove_tree(s.dir);
  make_dirs(s.dir);
  const std::int64_t t0 = now_ns();
  const int op = t.open_op("setup");
  s.w = call(t, "setup.make_workload", nullptr,
             [&] { return make_workload(a.workload, a.seed); });
  for (const Member& m : s.w.members) {
    call(t, "io.save_trace_v3", nullptr,
         [&] { io::save_trace_v3(s.dir + "/" + m.file, m.data); });
  }
  s.secs = static_cast<double>(t.close_op(op, t0)) / 1e9;
  s.hash = input_hash(s.w);
  return s;
}

/// One metric line: the reported value, then the raw samples' median,
/// count and quartiles (unscaled CPU time for timed metrics).
void print_samples(const MetricDef& d, double value, const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const auto q = [&](double p) {
    return s.empty() ? 0.0 : s[static_cast<std::size_t>(p * static_cast<double>(s.size() - 1))];
  };
  std::printf("  %-34s %14.4f %-9s raw median %.4f n=%-4zu p25 %.4f  p75 %.4f  max %.4f\n",
              d.name, value, d.unit, median(v), v.size(), q(0.25), q(0.75),
              s.empty() ? 0.0 : s.back());
}

int run(const Args& a) {
  remove_tree(a.work_dir);
  make_dirs(a.work_dir);
  make_dirs(a.out_dir);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double parallelism = effective_parallelism(hw);

  Tracer tracer(a.trace);
  Tracer off(false);
  Ledger ledger;
  ledger.check(reset_peak_rss(),
               "memory: the kernel refuses to reset VmHWM (/proc/self/clear_refs)");

  // setup_s is the median over every set-up of the run, and every
  // set-up must produce byte-identical inputs.
  Setup s = set_up(a, 0, tracer);
  std::vector<double> setup_secs{s.secs};
  double setup_total = s.secs;
  const auto set_up_again = [&] {
    const Setup x = set_up(a, static_cast<int>(setup_secs.size()), off);
    setup_secs.push_back(x.secs);
    setup_total += x.secs;
    ledger.check(x.hash == s.hash, "setup: inputs differ between set-ups");
    remove_tree(x.dir);
  };
  const Workload& w = s.w;
  const Expect ex = compute_expect(w);
  const CaptureFigures fig = capture_figures(a.seed);

  Reference ref;
  std::vector<double> ref_ns;
  for (int k = 0; k < kReferencePasses; ++k) {
    ref_ns.push_back(static_cast<double>(ref.run()));
  }
  const Journey j{w, ex, fig, s.dir, a.work_dir, ledger};
  Samples e2e, op_untraced, op_traced, layers, mem, discard;
  run_journey(j, 0, off, discard, discard, discard); // warm-up
  for (int k = 0; k < kMemoryReps; ++k) {
    run_journey(j, -1 - k, off, discard, discard, discard, &mem);
  }

  const std::int64_t deadline = wall_ns() + std::int64_t{a.seconds} * 1'000'000'000;
  const std::int64_t loop_t0 = now_ns();
  int reps = 0, traced_reps = 0;
  for (int rep = 1; rep <= kMaxReps; ++rep) {
    ref_ns.push_back(static_cast<double>(ref.run()));
    const bool traced = a.trace && rep % 2 == 0;
    Samples& sink = a.trace ? discard : e2e;
    run_journey(j, rep, traced ? tracer : off, sink,
                traced ? op_traced : op_untraced, layers);
    ++reps;
    traced_reps += traced ? 1 : 0;
    while (setup_secs.size() < kMaxSetups &&
           setup_total < kSetupShare * static_cast<double>(now_ns() - loop_t0) / 1e9) {
      set_up_again();
    }
    if (wall_ns() >= deadline && reps >= kMinReps) break;
  }
  while (setup_secs.size() < kMinSetups) set_up_again();
  validate_once(j);
  const double ref_median = median(ref_ns);
  const double scale = kReferenceNs / ref_median;

  std::ostringstream host;
  host << "{\"workload\":" << json_string(a.workload) << ",\"seed\":" << a.seed
       << ",\"input_hash\":" << json_string(s.hash)
       << ",\"effective_parallelism\":" << num(parallelism)
       << ",\"hw_threads\":" << hw
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
       << ",\"opt_flags\":" << json_string(PERFBENCH_OPT_FLAGS)
       << ",\"compiler\":" << json_string(compiler())
       << ",\"git_revision\":" << json_string(a.git_rev)
       << ",\"source_hash\":" << json_string(a.source_hash)
       << ",\"work_fs\":" << json_string(a.work_fs)
       << ",\"rows\":" << w.rows() << ",\"records\":" << w.records()
       << ",\"members\":" << w.members.size()
       << ",\"items_injected\":" << w.injected.size()
       << ",\"reference_ns\":" << num(ref_median)
       << ",\"reference_passes\":" << ref_ns.size()
       << ",\"speed_scale\":" << num(scale) << "}";

  std::map<std::string, double> values;
  std::vector<MetricDef> defs;
  std::printf("perfbench %s seed %llu: %d repetitions in %d s (+1 warm-up)\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), reps,
              a.seconds);
  std::printf("reference: median %.3f ms over %zu passes; timed metrics are "
              "raw CPU time x %.4f\n",
              ref_median / 1e6, ref_ns.size(), scale);
  Samples* samples = &layers;
  if (!a.trace) {
    defs = kEndToEnd;
    e2e["setup_s"] = setup_secs;
    e2e["peak_rss_mib"] = mem["peak_rss_mib"];
    samples = &e2e;
    values["capture_overhead_ns_per_item"] = fig.overhead_ns_per_item;
    values["estimate_error_pct"] = fig.estimate_error_pct;
    std::printf("end-to-end (median over repetitions; setup_s over %zu set-ups):\n",
                setup_secs.size());
  } else {
    defs = layer_defs();
    for (const auto& [name, v] : mem) layers[name] = v;
    std::printf("per-layer (median over %d traced repetitions; mem.* over %d "
                "untraced ones):\n",
                traced_reps, kMemoryReps);
  }
  for (const MetricDef& d : defs) {
    const auto it = samples->find(d.name);
    if (it != samples->end()) {
      values[d.name] = median(it->second) * (d.timed ? scale : 1.0);
      print_samples(d, values[d.name], it->second);
    } else if (values.count(d.name) != 0) {
      std::printf("  %-34s %14.4f %-9s simulated, exact for the seed\n", d.name,
                  values[d.name], d.unit);
    }
  }
  if (a.trace) {
    std::printf("tracing overhead (traced against untraced CPU time, medians):\n");
    for (const auto& [op, v] : op_traced) {
      if (op_untraced.count(op) == 0) continue;
      const double u = median(op_untraced[op]);
      const double t = median(v);
      std::printf("  %-14s untraced %10.3f ms  traced %10.3f ms  overhead %+6.2f%%\n",
                  op.c_str(), u / 1e6, t / 1e6, 100.0 * (t - u) / u);
    }
    const SpanCheck sc = check_spans(tracer, kMaxUncovered);
    ledger.check(sc.ok, "trace: " + sc.problem);
    std::printf("span check over %zu spans: %s\n", tracer.spans().size(),
                sc.ok ? "every span nests in its parent, no self time is negative, "
                        "and each operation's self times add up to its measured time"
                      : sc.problem.c_str());
    std::printf("  largest share of an operation outside public calls (limit %.2f):\n",
                kMaxUncovered);
    for (const auto& [op, share] : sc.uncovered) {
      std::printf("    %-14s %.4f\n", op.c_str(), share);
    }
    const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".trace.json";
    write_chrome_trace(path, tracer, host.str());
    std::printf("spans: %s\n", path.c_str());
  }
  for (const std::string& f : ledger.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  std::printf("host %s\n", host.str().c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted
      << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not measured: ") + d.name);
    }
    out << (first ? "" : ", ") << json_string(d.name) << ": {\"value\": "
        << num(it->second) << ", \"unit\": " << json_string(d.unit) << "}";
    first = false;
  }
  out << "}}";
  remove_tree(a.work_dir);
  std::cout << out.str() << std::endl;
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    remove_tree(a.work_dir);
    return 1;
  }
}
