// Smoke tests for the command-line tools: generate a real trace + symbol
// file, run each tool as a subprocess, and check exit codes and key
// output. Tool paths come from the build system (FLXT_TOOL_DIR).
#include <gtest/gtest.h>

#include "test_dir.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>

#include <fstream>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fluxtrace/apps/query_cache_app.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/symbols_file.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"

#ifndef FLXT_TOOL_DIR
#error "FLXT_TOOL_DIR must be defined by the build"
#endif

namespace fluxtrace {
namespace {

std::string run_capture(const std::string& cmd, int* rc) {
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *rc = -1;
    return out;
  }
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    out += buf.data();
  }
  *rc = pclose(pipe);
  return out;
}

/// A directory no earlier run of this binary has touched — catalogs are
/// stateful, so hub tests must not inherit a previous run's manifest.
std::string fresh_dir(const char* tag) {
  static int n = 0;
  const std::string dir =
      test::private_dir() + "/tools_" + tag + "_" + std::to_string(n++);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

struct ToolsFixture : ::testing::Test {
  static void SetUpTestSuite() {
    trace_path = test::private_dir() + "/tools_smoke.flxt";
    syms_path = test::private_dir() + "/tools_smoke.syms";

    SymbolTable symtab;
    apps::QueryCacheApp app(symtab);
    sim::Machine m(symtab);
    sim::PebsConfig pc;
    pc.reset = 8000;
    m.cpu(1).enable_pebs(pc);
    app.submit(apps::QueryCacheApp::paper_queries());
    app.attach(m, 0, 1);
    m.run();
    m.flush_samples();
    io::save_trace_v3(trace_path, {m.marker_log().markers(),
                                   m.pebs_driver().samples(), {}});
    io::save_symbols(syms_path, symtab);
  }

  static std::string tool(const std::string& name) {
    return std::string(FLXT_TOOL_DIR) + "/" + name;
  }

  static std::string trace_path, syms_path;
};

std::string ToolsFixture::trace_path;
std::string ToolsFixture::syms_path;

TEST_F(ToolsFixture, DumpSummarizes) {
  int rc = -1;
  const std::string out = run_capture(tool("flxt_dump") + " " + trace_path, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("20 markers"), std::string::npos) << out;
  EXPECT_NE(out.find("enter"), std::string::npos);
}

TEST_F(ToolsFixture, DumpCsvStreams) {
  const io::TraceData d = io::open_trace(trace_path).read();
  ASSERT_FALSE(d.markers.empty());
  ASSERT_FALSE(d.samples.empty());
  int rc = -1;
  std::string out =
      run_capture(tool("flxt_dump") + " " + trace_path + " --csv markers", &rc);
  EXPECT_EQ(rc, 0);
  const Marker& m = d.markers.front();
  EXPECT_TRUE(out.starts_with(
      "tsc,item,core,kind\n" + std::to_string(m.tsc) + "," +
      std::to_string(m.item) + "," + std::to_string(m.core) + "," +
      (m.kind == MarkerKind::Enter ? "enter" : "leave") + "\n"))
      << out;

  out = run_capture(tool("flxt_dump") + " " + trace_path + " --csv samples",
                    &rc);
  EXPECT_EQ(rc, 0);
  const PebsSample& s = d.samples.front();
  EXPECT_TRUE(out.starts_with(
      "tsc,ip,core,r13\n" + std::to_string(s.tsc) + "," +
      std::to_string(s.ip) + "," + std::to_string(s.core) + "," +
      std::to_string(s.regs.get(Reg::R13)) + "\n"))
      << out;
  // One header line plus one line per sample.
  EXPECT_EQ(static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n')),
            d.samples.size() + 1);
}

TEST(TraceFile, CsvExports) {
  // The CSV writers live in flxt_dump: pin their exact field formatting
  // on one hand-built record of each kind.
  io::TraceData d;
  d.markers.push_back(Marker{100, 7, 1, MarkerKind::Enter});
  PebsSample s;
  s.tsc = 123;
  s.ip = 0x400010;
  s.regs.set(Reg::R13, 5);
  d.samples.push_back(s);
  const std::string path = test::private_dir() + "/tools_csv_exports.flxt";
  io::save_trace_v3(path, d);
  const std::string dump = std::string(FLXT_TOOL_DIR) + "/flxt_dump " + path;

  int rc = -1;
  EXPECT_EQ(run_capture(dump + " --csv markers", &rc),
            "tsc,item,core,kind\n100,7,1,enter\n");
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(run_capture(dump + " --csv samples", &rc),
            "tsc,ip,core,r13\n123,4194320,0,5\n");
  EXPECT_EQ(rc, 0);
}

TEST_F(ToolsFixture, ReportTableNamesFunctions) {
  int rc = -1;
  const std::string out = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("sample_app::f3_transform"), std::string::npos);
}

TEST_F(ToolsFixture, ReportDiagnoseFindsTheColdQueries) {
  int rc = -1;
  const std::string out = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path + " --diagnose",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("item #1"), std::string::npos) << out;
  EXPECT_NE(out.find("f3_transform"), std::string::npos);
}

TEST_F(ToolsFixture, ReportFoldedAndGanttModes) {
  int rc = -1;
  const std::string folded = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path + " --folded",
      &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(folded.find("item_1;"), std::string::npos);
  const std::string gantt = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path + " --gantt",
      &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(gantt.find("core1"), std::string::npos);
}

TEST_F(ToolsFixture, ReportTableCsvMode) {
  int rc = -1;
  const std::string out = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path +
          " --table-csv",
      &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("item,function,samples,elapsed_us,window_us"),
            std::string::npos);
  EXPECT_NE(out.find("sample_app::f3_transform"), std::string::npos);
}

TEST_F(ToolsFixture, ConvertToV2RoundTrip) {
  // flxt_convert only writes v3: re-chunking the fixture into 8-record
  // chunks gives more chunks and identical records.
  int rc = -1;
  const std::string out_path = test::private_dir() + "/tools_smoke_conv.flxt3";
  run_capture(tool("flxt_convert") + " " + trace_path + " " + out_path +
                  " --chunk-records 8",
              &rc);
  EXPECT_EQ(rc, 0);
  const io::TraceReader in = io::open_trace(trace_path);
  const io::TraceReader out = io::open_trace(out_path);
  EXPECT_EQ(out.format(), io::TraceFormat::FlxtV3);
  EXPECT_GT(io::index_trace_v2(out.bytes()).size(),
            io::index_trace_v2(in.bytes()).size());
  EXPECT_EQ(out.read(), in.read());
}

TEST_F(ToolsFixture, BadArgumentsExitNonZero) {
  int rc = 0;
  run_capture(tool("flxt_dump"), &rc);
  EXPECT_NE(rc, 0);
  run_capture(tool("flxt_report") + " /nonexistent.trace " + syms_path, &rc);
  EXPECT_NE(rc, 0);
  run_capture(tool("flxt_convert") + " a b --to-nothing", &rc);
  EXPECT_NE(rc, 0);
  run_capture(tool("flxt_recover"), &rc);
  EXPECT_NE(rc, 0);
}

TEST_F(ToolsFixture, InvalidFlagValuesRejectedWithUsage) {
  int rc = 0;
  std::string out =
      run_capture(tool("flxt_dump") + " " + trace_path + " --head banana", &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  out = run_capture(tool("flxt_report") + " " + trace_path + " " + syms_path +
                        " --freq zero",
                    &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  out = run_capture(tool("flxt_report") + " " + trace_path + " " + syms_path +
                        " --freq -1",
                    &rc);
  EXPECT_NE(rc, 0);
}

TEST_F(ToolsFixture, ToolsSurviveGarbageInputFiles) {
  const std::string garbage = test::private_dir() + "/tools_garbage.bin";
  {
    std::ofstream os(garbage, std::ios::binary);
    os << std::string(512, '\x5a');
  }
  int rc = 0;
  std::string out = run_capture(tool("flxt_dump") + " " + garbage, &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  out = run_capture(tool("flxt_report") + " " + garbage + " " + syms_path, &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  out = run_capture(tool("flxt_convert") + " " + garbage + " " +
                        test::private_dir() + "/tools_garbage.out",
                    &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST_F(ToolsFixture, ReportDegradedModeAddsConfidence) {
  int rc = -1;
  const std::string out = run_capture(tool("flxt_report") + " " + trace_path +
                                          " " + syms_path + " --degraded",
                                      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("confidence"), std::string::npos) << out;
  EXPECT_NE(out.find("degraded items"), std::string::npos) << out;
}

TEST_F(ToolsFixture, DumpPrintsSummaryFooter) {
  int rc = -1;
  const std::string out =
      run_capture(tool("flxt_dump") + " " + trace_path, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("summary:"), std::string::npos) << out;
  // 20 markers = 10 fully paired items on this clean trace.
  EXPECT_NE(out.find("items:    10 (10 windows paired, 0 enters "
                     "unterminated, 0 orphan leaves)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("quality:  10 clean"), std::string::npos) << out;
  EXPECT_NE(out.find("tsc span:"), std::string::npos) << out;
}

TEST_F(ToolsFixture, TelemetryFlagWritesChromeTraceJson) {
  const std::string tel_path = test::private_dir() + "/tools_smoke_tel.json";
  int rc = -1;
  const std::string out = run_capture(tool("flxt_report") + " " + trace_path +
                                          " " + syms_path +
                                          " --telemetry " + tel_path +
                                          " --metrics",
                                      &rc);
  EXPECT_EQ(rc, 0) << out;
  // --metrics dumps the registry as Prometheus text on stderr.
  EXPECT_NE(out.find("# TYPE fluxtrace_io_reads counter"), std::string::npos)
      << out;
  EXPECT_NE(out.find("fluxtrace_core_integrate_items"), std::string::npos)
      << out;

  std::ifstream is(tel_path);
  ASSERT_TRUE(is.good());
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string json = std::move(buf).str();
  // Structural spot-checks; the exhaustive JSON validity test lives in
  // tests/obs/span_trace_test.cpp.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("io.read"), std::string::npos) << json;
  EXPECT_NE(json.find("core.integrate"), std::string::npos) << json;
}

TEST_F(ToolsFixture, TelemetryToUnwritablePathFails) {
  int rc = -1;
  const std::string out = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path +
          " --telemetry /nonexistent_dir/out.json",
      &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("cannot write telemetry file"), std::string::npos) << out;
}

TEST_F(ToolsFixture, RecoverSalvagesATruncatedV2File) {
  // Write a v2 trace, tear off the tail, and recover it.
  const io::TraceData full = io::open_trace(trace_path).read();
  const std::string v2_path = test::private_dir() + "/tools_smoke_v2.flxt";
  io::save_trace_v2(v2_path, full, /*records_per_chunk=*/64);

  std::string bytes;
  {
    std::ifstream is(v2_path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
  }
  const std::string torn_path = test::private_dir() + "/tools_smoke_torn.flxt";
  {
    std::ofstream os(torn_path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() * 2 / 3));
  }

  // The strict reader refuses the torn file…
  int rc = 0;
  std::string out = run_capture(tool("flxt_dump") + " " + torn_path, &rc);
  EXPECT_NE(rc, 0);

  // …--salvage reads what is intact…
  out = run_capture(tool("flxt_dump") + " " + torn_path + " --salvage", &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("salvage:"), std::string::npos) << out;

  // …and flxt_recover rewrites it as a clean v3 file.
  const std::string rec_path = test::private_dir() + "/tools_smoke_rec.flxt";
  out = run_capture(
      tool("flxt_recover") + " " + torn_path + " " + rec_path, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("recovered"), std::string::npos) << out;

  const io::TraceReader rec_reader = io::open_trace(rec_path);
  EXPECT_EQ(rec_reader.format(), io::TraceFormat::FlxtV3);
  const io::TraceData rec = rec_reader.read();
  EXPECT_FALSE(rec.markers.empty());
  EXPECT_LE(rec.markers.size(), full.markers.size());
  // Recovered records are an exact prefix of the original streams.
  for (std::size_t i = 0; i < rec.markers.size(); ++i) {
    EXPECT_EQ(rec.markers[i], full.markers[i]);
  }
  for (std::size_t i = 0; i < rec.samples.size(); ++i) {
    EXPECT_EQ(rec.samples[i], full.samples[i]);
  }

  // A fully destroyed file exits 1.
  const std::string dead_path = test::private_dir() + "/tools_smoke_dead.flxt";
  {
    std::ofstream os(dead_path, std::ios::binary);
    os << std::string(64, '\x11');
  }
  run_capture(tool("flxt_recover") + " " + dead_path, &rc);
  EXPECT_NE(rc, 0);
}

TEST_F(ToolsFixture, ConvertSalvageRecoversADamagedV2File) {
  // flxt_convert refuses a torn v2 file; salvaging it is flxt_recover's
  // job (RecoverSalvagesATruncatedV2File).
  const io::TraceData full = io::open_trace(trace_path).read();
  const std::string v2_path = test::private_dir() + "/tools_smoke_cs.flxt2";
  io::save_trace_v2(v2_path, full, /*records_per_chunk=*/64);
  std::string bytes;
  {
    std::ifstream is(v2_path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
  }
  const std::string torn_path = test::private_dir() + "/tools_smoke_cs_torn";
  {
    std::ofstream os(torn_path, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() * 2 / 3));
  }

  const std::string out_path = test::private_dir() + "/tools_smoke_cs_out";
  int rc = -1;
  const std::string out = run_capture(
      tool("flxt_convert") + " " + torn_path + " " + out_path, &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST_F(ToolsFixture, SessionHealsUnderChaosAndReconciles) {
  const std::string spool = test::private_dir() + "/tools_session.flxt";
  const std::string second = test::private_dir() + "/tools_session_2nd.flxt";
  int rc = -1;
  const std::string out = run_capture(
      tool("flxt_session") + " " + spool + " --secondary " + second +
          " --queries 150 --drain-loss 0.2 --sink-transient 0.1"
          " --stuck-at 5 --stuck-for 8",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("session: final="), std::string::npos) << out;
  EXPECT_NE(out.find("reconciled: exact"), std::string::npos) << out;
  EXPECT_NE(out.find("clean-close=yes"), std::string::npos) << out;
  // Faulted writes really happened and were retried, not ignored.
  EXPECT_EQ(out.find("retries=0 "), std::string::npos) << out;
  EXPECT_EQ(out.find("sink-transients=0 "), std::string::npos) << out;
  EXPECT_EQ(out.find("sink-stuck-hits=0 "), std::string::npos) << out;

  // The spool survived the chaos as a well-formed compressed v3 trace.
  const std::string dump = run_capture(tool("flxt_dump") + " " + spool, &rc);
  EXPECT_EQ(rc, 0) << dump;
  EXPECT_NE(dump.find("compression (v3 columns)"), std::string::npos) << dump;
}

TEST_F(ToolsFixture, SessionFailsOverWhenThePrimarySpoolFills) {
  // The budget is sized for compressed v3 chunks (a few bytes a record):
  // the primary must really run out of space mid-session, fail over,
  // and leave a prefix that salvages with no damage.
  const std::string spool = test::private_dir() + "/tools_session_full.flxt";
  const std::string second =
      test::private_dir() + "/tools_session_full_2nd.flxt";
  int rc = -1;
  std::string out = run_capture(tool("flxt_session") + " " + spool +
                                    " --secondary " + second +
                                    " --enospc-bytes 4K",
                                &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_EQ(out.find("sink-enospc-hits=0"), std::string::npos) << out;
  EXPECT_NE(out.find("failovers=1 "), std::string::npos) << out;
  EXPECT_NE(out.find("reconciled: exact"), std::string::npos) << out;
  EXPECT_NE(out.find("spool: active=" + second), std::string::npos) << out;
  out = run_capture(tool("flxt_recover") + " " + spool, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find(" 0 corrupt"), std::string::npos) << out;
}

TEST_F(ToolsFixture, SessionRejectsChunksLargerThanV3Allows) {
  // A compressed chunk holds at most 2^20 records: a larger
  // --chunk-records is bad usage up front, not a throw mid-capture.
  const std::string spool = test::private_dir() + "/tools_session_big.flxt";
  int rc = 0;
  std::string out = run_capture(
      tool("flxt_session") + " " + spool + " --chunk-records 2000000", &rc);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
  EXPECT_NE(out.find("at most 1048576"), std::string::npos) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  // The limit itself is accepted.
  out = run_capture(tool("flxt_session") + " " + spool +
                        " --queries 20 --chunk-records 1048576",
                    &rc);
  EXPECT_EQ(rc, 0) << out;
}

TEST_F(ToolsFixture, ConvertRejectsChunksLargerThanV3Allows) {
  // Like flxt_session: a --chunk-records above the v3 chunk cap is bad
  // usage, not silently clamped.
  const std::string out_path = test::private_dir() + "/tools_convert_big.flxt";
  int rc = 0;
  std::string out = run_capture(tool("flxt_convert") + " " + trace_path + " " +
                                    out_path + " --chunk-records 1048577",
                                &rc);
  ASSERT_TRUE(WIFEXITED(rc)) << out;
  EXPECT_EQ(WEXITSTATUS(rc), 2) << out;
  EXPECT_NE(out.find("at most 1048576"), std::string::npos) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  // The limit itself is accepted.
  out = run_capture(tool("flxt_convert") + " " + trace_path + " " + out_path +
                        " --chunk-records 1048576",
                    &rc);
  EXPECT_EQ(rc, 0) << out;
}

TEST_F(ToolsFixture, SessionRejectsInvalidNumericFlags) {
  const std::string spool = test::private_dir() + "/tools_session_bad.flxt";
  int rc = 0;
  // Zero where only a positive count makes sense.
  std::string out =
      run_capture(tool("flxt_session") + " " + spool + " --queries 0", &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("positive whole number"), std::string::npos) << out;
  // Negative values must not wrap through strtoull.
  out = run_capture(tool("flxt_session") + " " + spool + " --reset -5", &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  // Overflow is reported as out of range, not silently truncated.
  out = run_capture(
      tool("flxt_session") + " " + spool + " --queue 99999999999999999999999",
      &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("out of range"), std::string::npos) << out;
  // Rates live in [0, 1].
  out = run_capture(
      tool("flxt_session") + " " + spool + " --drain-loss 1.5", &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("rate in [0, 1]"), std::string::npos) << out;
  // Unknown overflow policies name the valid set.
  out = run_capture(
      tool("flxt_session") + " " + spool + " --policy sideways", &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("block|drop-oldest|drop-newest"), std::string::npos)
      << out;
}

TEST_F(ToolsFixture, EveryToolAnswersVersion) {
  // --version works argument-free, prints the one version string from
  // base/version.hpp, and exits 0 — same flag, same source, all tools.
  for (const char* name : {"flxt_dump", "flxt_report", "flxt_convert",
                           "flxt_recover", "flxt_session", "flxt_query",
                           "flxt_hub"}) {
    int rc = -1;
    const std::string out = run_capture(tool(name) + " --version", &rc);
    EXPECT_EQ(rc, 0) << name << ": " << out;
    EXPECT_NE(out.find(std::string(name) + " "), std::string::npos) << out;
    EXPECT_NE(out.find("0.5.0"), std::string::npos) << out;
  }
}

TEST_F(ToolsFixture, QueryGroupByAndFilter) {
  int rc = -1;
  const std::string out = run_capture(
      tool("flxt_query") + " " + trace_path + " " + syms_path +
          " 'group func: count | top 1 by count' --stats",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  // The paper workload's hottest function dominates the samples.
  EXPECT_NE(out.find("sample_app::f3_transform"), std::string::npos) << out;
  EXPECT_NE(out.find("rows 145 matched 145"), std::string::npos) << out;

  const std::string filtered = run_capture(
      tool("flxt_query") + " " + trace_path + " " + syms_path +
          " 'filter item == 1 | group func: count' --csv",
      &rc);
  EXPECT_EQ(rc, 0) << filtered;
  EXPECT_NE(filtered.find("func,count"), std::string::npos) << filtered;
}

TEST_F(ToolsFixture, QueryJsonShape) {
  int rc = -1;
  const std::string out = run_capture(
      tool("flxt_query") + " " + trace_path + " " + syms_path +
          " 'group core: count' --json",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("{\"columns\":[\"core\",\"count\"]"), std::string::npos)
      << out;
}

TEST_F(ToolsFixture, QueryReplRunsFromAPipe) {
  int rc = -1;
  const std::string out = run_capture(
      "printf 'group core: count\\nquit\\n' | " + tool("flxt_query") + " " +
          trace_path + " " + syms_path + " --repl --csv",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("core,count"), std::string::npos) << out;
}

TEST_F(ToolsFixture, QueryErrorsExitTwoWithOffset) {
  int rc = 0;
  std::string out = run_capture(tool("flxt_query") + " " + trace_path + " " +
                                    syms_path + " 'group bogus: count'",
                                &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("at offset"), std::string::npos) << out;
  // One-shot query and --repl are mutually exclusive; neither is also
  // an error.
  run_capture(tool("flxt_query") + " " + trace_path + " " + syms_path +
                  " 'select ts' --repl",
              &rc);
  EXPECT_NE(rc, 0);
  run_capture(tool("flxt_query") + " " + trace_path + " " + syms_path, &rc);
  EXPECT_NE(rc, 0);
  run_capture(tool("flxt_query") + " " + trace_path + " " + syms_path +
                  " 'select ts' --csv --json",
              &rc);
  EXPECT_NE(rc, 0);
}

TEST_F(ToolsFixture, ReportFilterFlagsComposeAndReject) {
  int rc = -1;
  // --item N is sugar for --filter 'item == N': identical output.
  const std::string sugar = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path + " --item 1",
      &rc);
  EXPECT_EQ(rc, 0) << sugar;
  const std::string spelled = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path +
          " --filter 'item == 1'",
      &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sugar, spelled);
  EXPECT_NE(sugar.find("#1"), std::string::npos) << sugar;
  EXPECT_EQ(sugar.find("#2"), std::string::npos) << sugar;

  // --func keeps only that function's buckets in the folded export.
  const std::string folded = run_capture(
      tool("flxt_report") + " " + trace_path + " " + syms_path +
          " --folded --func sample_app::f1_parse",
      &rc);
  EXPECT_EQ(rc, 0) << folded;
  EXPECT_NE(folded.find("f1_parse"), std::string::npos) << folded;
  EXPECT_EQ(folded.find("f3_transform"), std::string::npos) << folded;

  // A filter over columns the report cannot bind is rejected cleanly.
  std::string out = run_capture(tool("flxt_report") + " " + trace_path + " " +
                                    syms_path + " --filter 'ts > 100'",
                                &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("bad filter"), std::string::npos) << out;
  // And so are modes the filter does not apply to.
  out = run_capture(tool("flxt_report") + " " + trace_path + " " + syms_path +
                        " --diagnose --item 1",
                    &rc);
  EXPECT_NE(rc, 0);
  out = run_capture(tool("flxt_report") + " " + trace_path + " " + syms_path +
                        " --filter 'item =='",
                    &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("bad filter"), std::string::npos) << out;
}

TEST_F(ToolsFixture, ConvertChunkRecordsControlsV2Granularity) {
  int rc = -1;
  const std::string fine = test::private_dir() + "/tools_smoke_fine.flxt2";
  const std::string coarse = test::private_dir() + "/tools_smoke_coarse.flxt2";
  run_capture(tool("flxt_convert") + " " + trace_path + " " + fine +
                  " --chunk-records 8",
              &rc);
  EXPECT_EQ(rc, 0);
  run_capture(tool("flxt_convert") + " " + trace_path + " " + coarse, &rc);
  EXPECT_EQ(rc, 0);
  // Same records, more chunk headers.
  std::ifstream fa(fine, std::ios::binary | std::ios::ate);
  std::ifstream fb(coarse, std::ios::binary | std::ios::ate);
  EXPECT_GT(fa.tellg(), fb.tellg());
  EXPECT_EQ(io::open_trace(fine).read(), io::open_trace(coarse).read());
}

TEST_F(ToolsFixture, SessionCrashLeavesRecoverableSpool) {
  // Simulated kill -9 mid-capture: no close, no eof sentinel. The
  // fsync-per-chunk discipline means flxt_recover salvages every
  // committed chunk with zero CRC failures.
  const std::string spool = test::private_dir() + "/tools_session_crash.flxt";
  int rc = 0;
  std::string out = run_capture(
      tool("flxt_session") + " " + spool +
          " --queries 200 --chunk-records 16 --crash-after 5",
      &rc);
  EXPECT_NE(rc, 0) << out; // the "kill" exits 137
  EXPECT_NE(out.find("crash-after reached"), std::string::npos) << out;

  const std::string rec = test::private_dir() + "/tools_session_rec.flxt";
  out = run_capture(tool("flxt_recover") + " " + spool + " " + rec, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("0 corrupt"), std::string::npos) << out;
  EXPECT_NE(out.find("recovered"), std::string::npos) << out;

  // The recovered file reads strictly clean.
  out = run_capture(tool("flxt_dump") + " " + rec, &rc);
  EXPECT_EQ(rc, 0) << out;
}

TEST_F(ToolsFixture, QueryFollowCleanTraceEndsWithExactLedger) {
  // A finished trace is the degenerate live case: the follower sees
  // the eof sentinel on its first poll and exits 0 with an exact ledger.
  const std::string follow_path = test::private_dir() + "/tools_follow.flxt";
  int rc = -1;
  run_capture(tool("flxt_convert") + " " + trace_path + " " + follow_path +
                  " --chunk-records 16",
              &rc);
  ASSERT_EQ(rc, 0);

  const std::string out = run_capture(
      tool("flxt_query") + " " + follow_path + " " + syms_path +
          " 'group func: count' --follow --csv",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("finish=clean-eof"), std::string::npos) << out;
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
  EXPECT_NE(out.find("window item="), std::string::npos) << out;
  // The final snapshot is the same table a batch run would print.
  EXPECT_NE(out.find("func,count"), std::string::npos) << out;
  EXPECT_NE(out.find("sample_app::f3_transform"), std::string::npos) << out;
}

TEST_F(ToolsFixture, QueryFollowWaitOnlyPollMatchesBatch) {
  // A poll that carries nothing but wait edges still feeds a wait stage:
  // the followed answer is the batch answer.
  io::TraceData d;
  for (std::uint64_t i = 0; i < 40; ++i) {
    WaitEdge e;
    e.enter = 1000 * (i + 1);
    e.leave = e.enter + 100 + i;
    e.item = i % 5;
    e.waiter_core = 1;
    e.holder_core = 2;
    e.resource = 7;
    d.wait_edges.push_back(e);
  }
  const std::string path = test::private_dir() + "/tools_follow_wait.flxt";
  io::save_trace_v3(path, d, 16);
  const std::string q = " 'critical_path' --csv --no-index";
  int rc = -1;
  const std::string batch =
      run_capture(tool("flxt_query") + " " + path + " " + syms_path + q, &rc);
  ASSERT_EQ(rc, 0) << batch;
  ASSERT_NE(batch.find("\n4,972,8,ring-full,7,2\n"), std::string::npos)
      << batch;
  const std::string follow = run_capture(
      tool("flxt_query") + " " + path + " " + syms_path + q + " --follow",
      &rc);
  EXPECT_EQ(rc, 0) << follow;
  EXPECT_NE(follow.find(batch), std::string::npos) << follow;
  EXPECT_NE(follow.find("wait-edges=40"), std::string::npos) << follow;
}

TEST_F(ToolsFixture, QueryFollowSurvivesProducerKill9) {
  // The satellite kill-9 leg: flxt_session dies mid-capture via
  // --crash-after (std::_Exit, no close, no eof sentinel). Following the
  // abandoned spool must end in a producer-death salvage with exit 0 and
  // an exact ledger — a dead writer is a degraded ending, not an error.
  const std::string spool = test::private_dir() + "/tools_follow_crash.flxt";
  int rc = 0;
  std::string out = run_capture(
      tool("flxt_session") + " " + spool +
          " --queries 200 --chunk-records 16 --crash-after 5",
      &rc);
  EXPECT_NE(rc, 0) << out; // the "kill" exits 137

  out = run_capture(tool("flxt_query") + " " + spool + " " + syms_path +
                        " 'group item: count' --follow --poll-ms 20"
                        " --death-timeout-ms 200 --csv",
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("finish=producer-death"), std::string::npos) << out;
  // Every committed chunk was consumed whole — nothing torn, nothing
  // decoded from the crash-cut tail.
  EXPECT_NE(out.find("torn=0 (exact)"), std::string::npos) << out;
}

TEST_F(ToolsFixture, QueryFollowMaxPollsStopsCleanly) {
  // --max-polls bounds a follow of a live (eof-less) spool: the stop is
  // a salvage pass, the ledger still reconciles, exit 0.
  const std::string spool = test::private_dir() + "/tools_follow_open.flxt";
  int rc = 0;
  run_capture(tool("flxt_session") + " " + spool +
                  " --queries 100 --chunk-records 16 --crash-after 3",
              &rc);
  EXPECT_NE(rc, 0);

  std::string out = run_capture(
      tool("flxt_query") + " " + spool + " " + syms_path +
          " 'select ts' --follow --poll-ms 10 --max-polls 2"
          " --death-timeout-ms 60000 --csv",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("finish=stopped"), std::string::npos) << out;
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
}

TEST_F(ToolsFixture, QueryFollowSigintPrintsLedgerAndExitsZero) {
  // Satellite: Ctrl-C during --follow must not leave a half-written
  // table — the handler turns the poll loop into a final salvage pass
  // and the partial-window ledger still prints, exit 0.
  const std::string spool = test::private_dir() + "/tools_follow_int.flxt";
  int rc = 0;
  run_capture(tool("flxt_session") + " " + spool +
                  " --queries 100 --chunk-records 16 --crash-after 3",
              &rc);
  EXPECT_NE(rc, 0);

  std::string out = run_capture(
      "timeout --preserve-status -s INT 1 " + tool("flxt_query") + " " +
          spool + " " + syms_path + " 'group core: count' --follow"
          " --poll-ms 50 --death-timeout-ms 60000 --csv",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("finish=stopped"), std::string::npos) << out;
  EXPECT_NE(out.find("(exact)"), std::string::npos) << out;
  EXPECT_NE(out.find("core,count"), std::string::npos) << out;
}

TEST_F(ToolsFixture, QueryReplSigintExitsCleanly) {
  // Ctrl-C at the REPL prompt: no half-written table, clean exit.
  int rc = -1;
  const std::string out = run_capture(
      "{ printf 'group core: count\\n'; sleep 2; } | "
      "timeout --preserve-status -s INT 1 " +
          tool("flxt_query") + " " + trace_path + " " + syms_path +
          " --repl --csv",
      &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("core,count"), std::string::npos) << out;
  EXPECT_NE(out.find("interrupted"), std::string::npos) << out;
}

TEST_F(ToolsFixture, QueryFollowFlagValidation) {
  int rc = 0;
  // --repl and --follow are exclusive.
  std::string out = run_capture(tool("flxt_query") + " " + trace_path + " " +
                                    syms_path + " --repl --follow",
                                &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("exclusive"), std::string::npos) << out;
  // --follow needs a query.
  run_capture(tool("flxt_query") + " " + trace_path + " " + syms_path +
                  " --follow",
              &rc);
  EXPECT_NE(rc, 0);
  // A bad pipeline in follow mode is a parse error (exit 2), reported
  // before any polling starts.
  out = run_capture(tool("flxt_query") + " " + trace_path + " " + syms_path +
                        " 'group bogus: count' --follow",
                    &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("at offset"), std::string::npos) << out;
}

TEST_F(ToolsFixture, HubIngestStatusVerifyAndFederatedQuery) {
  // The catalog round trip as an operator drives it: drop a trace
  // into the tree, ingest, audit, then run a federated query whose
  // answer matches the plain single-trace evaluation bit for bit.
  const std::string dir = fresh_dir("hub_cat");
  int rc = -1;
  run_capture(tool("flxt_convert") + " " + trace_path + " " + dir +
                  "/m1.flxt --chunk-records 16",
              &rc);
  ASSERT_EQ(rc, 0);

  std::string out =
      run_capture(tool("flxt_hub") + " ingest " + dir + " " + syms_path, &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("1 registered"), std::string::npos) << out;

  out = run_capture(tool("flxt_hub") + " status " + dir + " " + syms_path,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("1 ok, 0 salvaged, 0 quarantined"), std::string::npos)
      << out;
  EXPECT_NE(out.find("indexed"), std::string::npos) << out;

  out = run_capture(tool("flxt_hub") + " verify " + dir + " " + syms_path,
                    &rc);
  EXPECT_EQ(rc, 0) << out;

  // run_capture merges stderr; a subshell keeps the ledger out of the
  // comparison so only the answers themselves are compared.
  const std::string plain = run_capture(
      "( " + tool("flxt_query") + " " + trace_path + " " + syms_path +
          " 'group func: count' --csv 2>/dev/null )",
      &rc);
  EXPECT_EQ(rc, 0);
  out = run_capture("( " + tool("flxt_query") + " " + dir + " " + syms_path +
                        " 'group func: count' --catalog --csv 2>/dev/null )",
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_EQ(out, plain);
  // The ledger goes to stderr, not into the answer.
  out = run_capture(tool("flxt_query") + " " + dir + " " + syms_path +
                        " 'group func: count' --catalog --csv",
                    &rc);
  EXPECT_NE(out.find("traces: 1 ok, 0 salvaged"), std::string::npos) << out;

  // A second ingest of the same tree is a no-op, not a re-register.
  out = run_capture(tool("flxt_hub") + " ingest " + dir + " " + syms_path,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("1 unchanged"), std::string::npos) << out;
}

TEST_F(ToolsFixture, HubCrashMidIngestLeavesRecoverableCatalog) {
  // kill -9 at the first durability checkpoint: the journal replays on
  // the next open and the interrupted ingest simply runs again.
  const std::string dir = fresh_dir("hub_crash");
  int rc = -1;
  run_capture(tool("flxt_convert") + " " + trace_path + " " + dir +
                  "/m1.flxt --chunk-records 16",
              &rc);
  ASSERT_EQ(rc, 0);

  std::string out = run_capture(tool("flxt_hub") + " ingest " + dir + " " +
                                    syms_path + " --crash-after 1",
                                &rc);
  EXPECT_NE(rc, 0) << out; // the "kill" exits 137

  out = run_capture(tool("flxt_hub") + " ingest " + dir + " " + syms_path,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  out = run_capture(tool("flxt_hub") + " verify " + dir + " " + syms_path,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("1 checked, 0 missing, 0 drifted"), std::string::npos)
      << out;
}

TEST_F(ToolsFixture, RecoverRebuildIndexRefreshesSidecar) {
  const std::string trace_file = fresh_dir("rebuild") + "/trace.flxt";
  int rc = -1;
  run_capture(tool("flxt_convert") + " " + trace_path + " " + trace_file +
                  " --chunk-records 16",
              &rc);
  ASSERT_EQ(rc, 0);

  std::string out = run_capture(tool("flxt_recover") + " " + trace_file + " " +
                                    syms_path + " --rebuild-index",
                                &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("rebuilt"), std::string::npos) << out;
  EXPECT_TRUE(std::ifstream(trace_file + ".flxi").good());

  // A second pass finds the sidecar current and leaves it alone.
  out = run_capture(tool("flxt_recover") + " " + trace_file + " " + syms_path +
                        " --rebuild-index",
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("fresh"), std::string::npos) << out;

  // Rebuild mode needs both the trace and the symbols.
  run_capture(tool("flxt_recover") + " " + trace_file + " --rebuild-index", &rc);
  EXPECT_NE(rc, 0);
}

TEST_F(ToolsFixture, BytesFlagsParseSuffixesAndRejectOverflow) {
  const std::string dir = fresh_dir("hub_bytes");
  int rc = -1;
  // Suffixed byte counts parse (an empty catalog retains nothing).
  std::string out = run_capture(tool("flxt_hub") + " retain " + dir + " " +
                                    syms_path + " --retain-bytes 512M",
                                &rc);
  EXPECT_EQ(rc, 0) << out;
  out = run_capture(tool("flxt_hub") + " compact " + dir + " " + syms_path +
                        " --compact-under 4G",
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  // Overflow is rejected up front, not wrapped into a tiny budget.
  out = run_capture(tool("flxt_hub") + " retain " + dir + " " + syms_path +
                        " --retain-bytes 99999999999G",
                    &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("out of range"), std::string::npos) << out;
  // And so is a malformed suffix.
  out = run_capture(tool("flxt_hub") + " retain " + dir + " " + syms_path +
                        " --retain-bytes 12Q",
                    &rc);
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("byte count"), std::string::npos) << out;
}

} // namespace
} // namespace fluxtrace
