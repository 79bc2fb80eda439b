// Shared declarations of the perfbench program: the workload model, the
// oracle, the span recorder and the journey operations. Everything here
// reaches fluxtrace only through its public headers.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fluxtrace/base/symbols.hpp"
#include "fluxtrace/io/trace_file.hpp"
#include "fluxtrace/query/engine.hpp"

namespace perfbench {

using namespace fluxtrace;

/// The clock every measurement reads: CPU time of the whole process. On
/// a shared virtual host wall time also counts the time the hypervisor
/// gives other guests and the time spent waiting on the device; both
/// belong to the host, not the program. Waits are counted instead
/// (syncs, polls). The process clock, not the thread clock, because some
/// calls decode on worker threads whatever the thread options say.
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Wall time, for the run deadline only.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- spans

/// One timed public call. `parent` indexes the enclosing span (-1 for an
/// operation root); `op` indexes Tracer::ops().
struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  int op = -1;
};

/// In-memory span recorder. When off, open() returns -1 and records
/// nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }
  /// Open an operation root span named after the operation.
  int open_op(const std::string& op);
  /// Close an operation root span opened after its caller read `t0` on
  /// the benchmark clock. Returns the operation's time, now − `t0`, read
  /// after the span closes, and keeps it for check_spans().
  std::int64_t close_op(int id, std::int64_t t0);
  int open(std::string_view name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& ops() const { return ops_; }
  /// Per operation, as measured by close_op().
  [[nodiscard]] const std::vector<std::int64_t>& op_measured() const {
    return op_measured_;
  }
  /// Span duration minus the time its direct children cover.
  [[nodiscard]] std::vector<std::int64_t> self_times() const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::string> ops_;
  std::vector<std::int64_t> op_measured_;
  std::vector<int> stack_;
};

/// What the span check found: whether every operation's spans nest and
/// account for its measured time, and how much of each operation ran
/// outside any public call.
struct SpanCheck {
  bool ok = true;
  std::string problem; ///< the first violation, when !ok
  /// Per operation name: the largest share of an operation's time spent
  /// in the benchmark's own code between public calls.
  std::map<std::string, double> uncovered;
};

/// Every span is closed and lies inside its parent, no self time is
/// negative, the self times of each operation's spans add up to the
/// time close_op() measured for it, and no operation spends more than
/// `max_uncovered` of its time outside the public calls.
[[nodiscard]] SpanCheck check_spans(const Tracer& t, double max_uncovered);

/// Run `f` as one public call: inside a span named `name` when tracing,
/// and with its CPU time added to `*acc` when `acc` is given.
template <class F>
decltype(auto) call(Tracer& t, std::string_view name, std::int64_t* acc,
                    F&& f) {
  struct Guard {
    Tracer& t;
    int id;
    std::int64_t* acc;
    std::int64_t t0;
    ~Guard() {
      if (acc != nullptr) *acc += now_ns() - t0;
      t.close(id);
    }
  } g{t, t.open(name), acc, acc != nullptr ? now_ns() : 0};
  return std::forward<F>(f)();
}

/// Write the spans as Chrome trace-event JSON (Perfetto opens it).
void write_chrome_trace(const std::string& path, const Tracer& t,
                        const std::string& host_json);

// ------------------------------------------------------------ workloads

/// One at-rest trace of the workload.
struct Member {
  std::string file; ///< name under the at-rest directory
  io::TraceData data;
};

/// What the ACL case-study simulations measured (Figs 9 and 10).
struct CaptureFigures {
  std::uint64_t packets = 0;
  std::uint64_t samples = 0;
  std::uint64_t lost = 0;
  double overhead_ns_per_item = 0;  ///< Fig 10: L_R - L*
  double estimate_error_pct = 0;    ///< Fig 9 accuracy at R=8K
  double assist_ns = 0;             ///< PEBS assists on the ACL core
  double drain_stall_ns = 0;        ///< buffer drains on the ACL core
};

struct Workload {
  std::uint64_t seed = 0;
  SymbolTable symtab;
  std::vector<Member> members;
  std::set<ItemId> injected;      ///< slow items the generator planted
  SymbolId injected_fn = 0;       ///< the function that dominates them
  std::vector<ItemId> probe_items; ///< item drill-down set

  [[nodiscard]] std::uint64_t rows() const;
  [[nodiscard]] std::uint64_t records() const;
};

/// The workload names the benchmark knows.
[[nodiscard]] const std::vector<std::string>& workload_names();
/// Generate (and for `capture`, simulate) the workload for `seed`.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);
/// Figs 9 and 10 for `seed`: the case study simulated three ways (no
/// tracing, instrumented only, traced at R=8K) on a third of each packet
/// type. The same for every workload.
[[nodiscard]] CaptureFigures capture_figures(std::uint64_t seed);

// --------------------------------------------------------------- oracle

using Rows = std::vector<std::vector<query::Cell>>;

/// Expected answers, computed from the generated records by the
/// benchmark's own reference attribution (windows ∩ samples ∩ symbols,
/// then first-to-last per {item, func}).
struct Expect {
  Rows func_summary;   ///< kSummaryQuery over every row
  Rows stream_summary; ///< kSummaryQuery over rows inside a window
  std::uint64_t unattributed = 0;
  Rows top_items;      ///< kTopItemsQuery
  Rows core_filter;    ///< core_filter_query()
  std::map<ItemId, Rows> item_answers; ///< item_query(x) per probe item
  std::vector<std::uint64_t> member_items;  ///< items with a window, per member
  std::vector<std::set<ItemId>> member_injected; ///< injected items, per member
};

[[nodiscard]] Expect compute_expect(const Workload& w);

/// True when `res` has exactly the expected rows.
[[nodiscard]] bool same_rows(const query::QueryResult& res, const Rows& want);

/// True when the most deviant items of `ranked` (most deviant first) are
/// the injected ones: the first min(|injected|, |ranked|, 10) entries
/// are all injected, and when at most 10 are injected every one is named.
[[nodiscard]] bool names_injected(const std::vector<ItemId>& ranked,
                                  const std::set<ItemId>& injected);

inline constexpr const char* kSummaryQuery =
    "group func: count, sum(dur), p99(dur)";
inline constexpr const char* kTopItemsQuery =
    "group item: count, p95(dur) | top 20 by p95_dur";
inline constexpr const char* kOutliersQuery = "outliers k=3";
[[nodiscard]] std::string core_filter_query(const Workload& w);
[[nodiscard]] std::string item_query(ItemId item);

// -------------------------------------------------------------- journey

/// Per-run bookkeeping: every checked operation counts one attempt; a
/// mismatch counts one failure and is reported, never thrown.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what);
};

/// Metric samples by name; the reported value is their median.
using Samples = std::map<std::string, std::vector<double>>;

struct Journey {
  const Workload& w;
  const Expect& ex;
  const CaptureFigures& fig;
  std::string atrest; ///< directory holding the at-rest member traces
  std::string work;   ///< scratch directory for this run
  Ledger& ledger;
};

/// One repetition of the user journey. End-to-end samples land in `e2e`
/// and each operation's total time in `op_ns`; with tracing on, every
/// public call is a span in `t` and per-layer samples land in `layers`.
/// Both runs make the same public calls; an off tracer records nothing.
/// With `mem`, each operation's peak resident memory above the live
/// memory at its start lands there (`mem.<operation>_peak_mib`, and
/// `peak_rss_mib` for the largest); such a repetition's times are not
/// representative and belong in a discarded sink.
void run_journey(const Journey& j, int rep, Tracer& t, Samples& e2e,
                 Samples& op_ns, Samples& layers, Samples* mem = nullptr);

/// Once-per-run checks that need no timing: the federated answer equals
/// one engine over the concatenated members.
void validate_once(const Journey& j);

// ---------------------------------------------------------------- utils

/// `s` as a quoted JSON string (quotes and backslashes escaped, control
/// characters dropped).
[[nodiscard]] std::string json_string(std::string_view s);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] std::uint64_t file_size(const std::string& path);
void remove_tree(const std::string& path);
void make_dirs(const std::string& path);
/// Hard-link `from` to `to`, copying when the filesystem refuses links.
void link_or_copy(const std::string& from, const std::string& to);
/// Peak resident set (VmHWM) of this process, in MiB.
[[nodiscard]] double peak_rss_mib();
/// Current resident set (VmRSS) of this process, in MiB.
[[nodiscard]] double rss_mib();
/// Reset VmHWM to the current RSS; false where the kernel refuses.
bool reset_peak_rss();
/// Hand the allocator's free pages back to the kernel, so that RSS counts
/// live memory only (glibc; a no-op elsewhere).
void release_free_memory();

/// A fixed reference workload that belongs to the benchmark, not the
/// program: a sort, a hash aggregation, varint coding and a column scan
/// with a gather over 32 MiB. Its CPU time tracks how fast the host runs
/// code like the program's at the moment, so timed metrics are scaled
/// by it (see PREDICTIONS.md, "Reference scaling").
class Reference {
 public:
  Reference();
  /// One pass; returns its CPU time in ns.
  std::int64_t run();

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t sum = 0;
  };
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> sorted_;
  std::vector<Slot> table_;
  std::vector<std::int64_t> column_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t sink_ = 0;
};

/// The reference's CPU time on the machine the benchmark was sized on;
/// a timed metric reads raw × kReferenceNs / (this run's reference time).
inline constexpr double kReferenceNs = 22'000'000.0;

} // namespace perfbench
