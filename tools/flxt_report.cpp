// flxt_report — offline integration of a recorded trace (step 2+3 of the
// paper's procedure, as a standalone analysis tool).
//
//   flxt_report <trace> <symbols>              per-item per-function table
//   flxt_report <trace> <symbols> --profile    averaged profile instead
//   flxt_report <trace> <symbols> --folded     flamegraph folded stacks
//   flxt_report <trace> <symbols> --gantt      per-core item timeline
//   flxt_report <trace> <symbols> --diagnose   outlier report
//   flxt_report <trace> <symbols> --table-csv  integrated table as CSV
//   flxt_report <trace> <symbols> --freq GHZ   TSC frequency (default 3.0)
//   flxt_report <trace> <symbols> --regs       map items via R13 (§V-A)
//   flxt_report <trace> <symbols> --degraded   salvage orphan samples,
//                                              synthesize lost markers,
//                                              flag degraded items
//   flxt_report <trace> <symbols> --filter E   keep only buckets matching
//                                              a query predicate over
//                                              item/func/dur (query/expr);
//                                              --gantt filters windows
//                                              over item/core
//   flxt_report <trace> <symbols> --item N     alias for
//                                              --filter 'item == N'
//   flxt_report <trace> <symbols> --func NAME  alias for
//                                              --filter 'func == "NAME"'
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "cli.hpp"
#include "fluxtrace/core/diagnosis.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/core/profile.hpp"
#include "fluxtrace/io/folded.hpp"
#include "fluxtrace/query/expr.hpp"
#include "fluxtrace/query/waitgraph.hpp"
#include "fluxtrace/report/gantt.hpp"
#include "fluxtrace/io/symbols_file.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/report/table.hpp"

using namespace fluxtrace;

int main(int argc, char** argv) try {
  tools::Cli cli(argc, argv,
                 std::string("usage: ") + argv[0] +
                     " <trace-file> <symbols-file> [--profile] [--folded] "
                     "[--gantt] [--diagnose] [--table-csv] [--regs] "
                     "[--degraded] [--freq GHZ] "
                     "[--filter EXPR] [--item N] [--func NAME] "
                     "[--telemetry FILE] [--metrics] [--version]");
  bool profile_mode = false;
  bool folded_mode = false;
  bool gantt_mode = false;
  bool diagnose_mode = false;
  bool table_csv_mode = false;
  bool regs_mode = false;
  bool degraded_mode = false;
  CpuSpec spec;
  cli.flag("--profile", &profile_mode);
  cli.flag("--folded", &folded_mode);
  cli.flag("--gantt", &gantt_mode);
  cli.flag("--diagnose", &diagnose_mode);
  cli.flag("--table-csv", &table_csv_mode);
  cli.flag("--regs", &regs_mode);
  cli.flag("--degraded", &degraded_mode);
  cli.flag_ghz("--freq", &spec.freq_ghz);
  const char* filter_text = nullptr;
  const char* item_sel = nullptr;
  const char* func_sel = nullptr;
  cli.flag_str("--filter", &filter_text);
  cli.flag_str("--item", &item_sel);
  cli.flag_str("--func", &func_sel);
  tools::Telemetry tel;
  tel.attach(cli);
  if (!cli.parse(2, 2)) return cli.usage();
  tel.start();

  io::TraceData data;
  SymbolTable symtab;
  try {
    // Damaged traces degrade to the salvaged subset instead of aborting
    // the whole report — the same fallback the query engine applies.
    io::TraceReader::ReadResult rr =
        io::open_trace(cli.pos(0)).read_or_salvage();
    data = std::move(rr.data);
    if (rr.salvaged) {
      if (data.samples.empty() && data.markers.empty()) {
        // Nothing salvageable: not a trace at all, not a damaged one.
        std::fprintf(stderr, "error: unrecognized trace file: %s\n",
                     cli.pos(0));
        return 1;
      }
      std::fprintf(stderr,
                   "warning: trace damaged; reporting over the salvaged "
                   "subset (%zu samples)\n",
                   data.samples.size());
    }
    symtab = io::load_symbols(cli.pos(1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // --item/--func are sugar for --filter conjuncts; everything composes
  // into one predicate compiled by the query expression parser.
  std::unique_ptr<query::Expr> filter;
  {
    std::string ftxt;
    const auto conj = [&ftxt](const std::string& c) {
      if (!ftxt.empty()) ftxt += " && ";
      ftxt += "(" + c + ")";
    };
    if (item_sel != nullptr) conj(std::string("item == ") + item_sel);
    if (func_sel != nullptr) {
      std::string esc;
      for (const char c : std::string(func_sel)) {
        if (c == '"' || c == '\\') esc += '\\';
        esc += c;
      }
      conj("func == \"" + esc + "\"");
    }
    if (filter_text != nullptr) conj(filter_text);
    if (!ftxt.empty()) {
      if (profile_mode || diagnose_mode) {
        std::fprintf(stderr, "error: --filter/--item/--func do not apply to "
                             "--profile or --diagnose\n");
        return 2;
      }
      try {
        filter = query::parse_expr(ftxt, &symtab);
        if (gantt_mode) {
          filter->bind_check(query::field_bit(query::Field::Item) |
                                 query::field_bit(query::Field::Core),
                             "the gantt filter (have: item core)");
        } else {
          filter->bind_check(query::field_bit(query::Field::Item) |
                                 query::field_bit(query::Field::Func) |
                                 query::field_bit(query::Field::Dur),
                             "the report filter (have: item func dur)");
        }
      } catch (const query::ParseError& e) {
        std::fprintf(stderr, "error: bad filter: %s\n", e.what());
        return 2;
      }
    }
  }

  if (profile_mode) {
    Tsc t_min = ~Tsc{0}, t_max = 0;
    for (const PebsSample& s : data.samples) {
      t_min = std::min(t_min, s.tsc);
      t_max = std::max(t_max, s.tsc);
    }
    const core::Profile prof = core::Profile::from_samples(
        symtab, data.samples, t_max > t_min ? t_max - t_min : 0);
    report::Table tab({"function", "samples", "share", "time [us]"});
    for (const auto& e : prof.entries()) {
      tab.row({std::string(symtab.name(e.fn)), report::Table::num(e.samples),
               report::Table::num(e.share * 100.0, 1) + "%",
               report::Table::num(spec.us(e.est_time))});
    }
    tab.print(std::cout);
    return tel.finish();
  }

  core::IntegratorConfig icfg;
  icfg.use_register_ids = regs_mode;
  icfg.degraded = degraded_mode;
  const core::TraceIntegrator integ(symtab, icfg);
  const core::TraceTable table = integ.integrate(data.markers, data.samples);

  io::BucketFilter keep;
  if (filter && !gantt_mode) {
    keep = [&filter, &table](ItemId item, SymbolId fn) {
      query::FieldVals vals;
      vals.set(query::Field::Item, static_cast<std::int64_t>(item));
      vals.set(query::Field::Func, static_cast<std::int64_t>(fn));
      vals.set(query::Field::Dur,
               static_cast<std::int64_t>(table.elapsed(item, fn)));
      return filter->test(vals);
    };
  }

  if (folded_mode) {
    io::write_folded(std::cout, table, symtab, 1, keep);
    return tel.finish();
  }

  if (table_csv_mode) {
    io::write_table_csv(std::cout, table, symtab, spec, keep);
    return tel.finish();
  }

  if (diagnose_mode) {
    const core::DiagnosisReport rep = core::diagnose(table, spec);
    rep.print(std::cout, symtab);
    // Wait-edge root causes (ISSUE 8): when the trace carries wait edges,
    // say *why* the slow items were slow in pipeline terms — which ring
    // was full or empty, and which core held the other end.
    if (!data.wait_edges.empty()) {
      query::WaitGraph graph;
      std::uint64_t total_blocked = 0;
      for (const WaitEdge& e : data.wait_edges) {
        graph.observe(e);
        total_blocked += e.blocked();
      }
      const query::QueryResult cp = query::finish_critical_path(graph);
      std::printf("\nwait diagnosis: %zu edges, %llu tsc spent blocked\n",
                  data.wait_edges.size(),
                  static_cast<unsigned long long>(total_blocked));
      const std::size_t shown = std::min<std::size_t>(cp.rows.size(), 8);
      for (std::size_t i = 0; i < shown; ++i) {
        // finish_critical_path columns: item blocked edges cause resource
        // holder (blocked-descending).
        const auto& row = cp.rows[i];
        const std::int64_t item = row[0].i;
        const std::string who = item < 0 ? std::string("(no item)")
                                         : "item " + std::to_string(item);
        const std::string& cause = row[3].s;
        std::string why;
        if (cause == "ring-full") {
          why = "ring " + std::to_string(row[4].i) + " full";
        } else if (cause == "ring-empty") {
          why = "ring " + std::to_string(row[4].i) + " empty";
        } else {
          why = cause + " on resource " + std::to_string(row[4].i);
        }
        std::printf("  %s slow because %s, held by core %lld "
                    "(%lld tsc blocked over %lld edges)\n",
                    who.c_str(), why.c_str(),
                    static_cast<long long>(row[5].i),
                    static_cast<long long>(row[1].i),
                    static_cast<long long>(row[2].i));
      }
      if (cp.rows.size() > shown) {
        std::printf("  ... and %zu more blocked items\n",
                    cp.rows.size() - shown);
      }
    }
    return tel.finish();
  }

  if (gantt_mode) {
    report::Gantt gantt(80);
    const char glyphs[] = "#=@%*o+x";
    for (const core::ItemWindow& w : table.windows()) {
      if (filter) {
        query::FieldVals vals;
        vals.set(query::Field::Item, static_cast<std::int64_t>(w.item));
        vals.set(query::Field::Core, static_cast<std::int64_t>(w.core));
        if (!filter->test(vals)) continue;
      }
      gantt.span("core" + std::to_string(w.core), w.enter, w.leave,
                 glyphs[w.item % 8], "i" + std::to_string(w.item));
    }
    gantt.print(std::cout);
    return tel.finish();
  }

  report::Table tab({"item", "function", "samples", "elapsed [us]",
                     "confidence"});
  for (const ItemId item : table.items()) {
    const core::ItemQuality& q = table.quality(item);
    for (const SymbolId fn : table.functions(item)) {
      if (keep && !keep(item, fn)) continue;
      tab.row({"#" + std::to_string(item), std::string(symtab.name(fn)),
               report::Table::num(table.sample_count(item, fn)),
               report::Table::num(spec.us(table.elapsed(item, fn))),
               std::string(core::to_string(q.confidence))});
    }
  }
  tab.print(std::cout);
  std::printf("\n%llu samples outside any item window, %llu outside any "
              "symbol\n",
              static_cast<unsigned long long>(table.unmatched_item()),
              static_cast<unsigned long long>(table.unmatched_symbol()));
  if (degraded_mode) {
    std::uint64_t lost = table.unattributed_loss();
    for (const ItemId item : table.items()) {
      lost += table.quality(item).samples_lost;
    }
    std::printf("%zu degraded items, %llu samples lost, %llu markers "
                "synthesized, %llu losses unattributed\n",
                table.degraded_items().size(),
                static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(table.windows_synthesized()),
                static_cast<unsigned long long>(table.unattributed_loss()));
  }
  return tel.finish();
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
