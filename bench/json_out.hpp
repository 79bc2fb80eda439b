// Machine-readable benchmark results (ISSUE 3, satellite). Every entry
// is {name, iters, ns_per_op, p99_ns}; p99_ns is null when the bench
// has no per-iteration latency distribution to quote. The "host" object
// records facts about the machine and build the numbers came from —
// always the build type (FLUXTRACE_BUILD_TYPE, which bench/CMakeLists.txt
// sets from CMAKE_BUILD_TYPE). The file lands in the working directory
// as BENCH_<name>.json so CI and scripts can diff runs without scraping
// console tables.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#ifndef FLUXTRACE_BUILD_TYPE
#define FLUXTRACE_BUILD_TYPE "none"
#endif

namespace fluxtrace::bench {

class BenchJson {
 public:
  /// Results will be written to "BENCH_<name>.json".
  explicit BenchJson(const std::string& name)
      : path_("BENCH_" + name + ".json") {
    host("build_type", std::string(FLUXTRACE_BUILD_TYPE));
  }

  /// `p99_ns < 0` means "not measured" and serializes as null.
  void add(const std::string& name, double iters, double ns_per_op,
           double p99_ns = -1.0) {
    entries_.push_back(Entry{name, iters, ns_per_op, p99_ns});
  }

  /// One numeric fact about the host, written under "host".
  void host(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", value);
    host_.push_back({key, buf});
  }

  /// One text fact about the host (a build type, a revision).
  void host(const std::string& key, const std::string& value) {
    host_.push_back({key, "\"" + escaped(value) + "\""});
  }

  /// Write the file; false (with a stderr note) on I/O failure.
  bool write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\"host\":{");
    for (std::size_t i = 0; i < host_.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%s", i > 0 ? "," : "",
                   escaped(host_[i].first).c_str(), host_[i].second.c_str());
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "\"benchmarks\":[\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "  {\"name\":\"%s\",\"iters\":%.0f,\"ns_per_op\":%.3f,",
                   escaped(e.name).c_str(), e.iters, e.ns_per_op);
      if (e.p99_ns < 0) {
        std::fprintf(f, "\"p99_ns\":null}");
      } else {
        std::fprintf(f, "\"p99_ns\":%.3f}", e.p99_ns);
      }
      std::fprintf(f, i + 1 < entries_.size() ? ",\n" : "\n");
    }
    std::fprintf(f, "]}\n");
    const bool ok = std::fclose(f) == 0;
    if (ok) std::fprintf(stderr, "wrote %s\n", path_.c_str());
    return ok;
  }

 private:
  struct Entry {
    std::string name;
    double iters;
    double ns_per_op;
    double p99_ns;
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string path_;
  std::vector<Entry> entries_;
  /// key -> the value already rendered as JSON
  std::vector<std::pair<std::string, std::string>> host_;
};

} // namespace fluxtrace::bench
