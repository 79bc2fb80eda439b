#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench.hpp"

namespace perfbench {

namespace fs = std::filesystem;

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throw std::runtime_error("cannot create " + path + ": " + ec.message());
}

void link_or_copy(const std::string& from, const std::string& to) {
  if (::link(from.c_str(), to.c_str()) == 0) return;
  std::error_code ec;
  fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  if (ec) {
    throw std::runtime_error("cannot link or copy " + from + " to " + to +
                             ": " + ec.message());
  }
}

namespace {

double status_mib(const char* key) {
  std::ifstream is("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(is, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::stod(line.substr(n)) / 1024.0; // reported in kB
    }
  }
  return 0.0;
}

} // namespace

double peak_rss_mib() { return status_mib("VmHWM:"); }

double rss_mib() { return status_mib("VmRSS:"); }

void release_free_memory() {
#ifdef __GLIBC__
  ::malloc_trim(0);
#endif
}

bool reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  os << "5";
  os.flush();
  return static_cast<bool>(os);
}

Reference::Reference() {
  std::uint64_t x = 0x243f6a8885a308d3ull; // fixed: the same on every run
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  keys_.resize(std::size_t{1} << 16);
  for (std::uint64_t& k : keys_) k = next();
  sorted_ = keys_;
  table_.assign(std::size_t{1} << 14, Slot{});
  column_.resize(std::size_t{1} << 22); // 32 MiB
  std::int64_t v = 0;
  for (std::int64_t& c : column_) {
    v += static_cast<std::int64_t>(next() % 4096) - 1024;
    c = v;
  }
  bytes_.assign(std::size_t{10} << 20, 0);
}

std::int64_t Reference::run() {
  // Every buffer is allocated and touched already, so a pass makes no
  // page faults and no allocations: only the host's speed moves it.
  const std::int64_t t0 = now_ns();
  // Sort records by key, as group finishing and percentiles do.
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  sink_ += sorted_[sorted_.size() / 2];

  // Hash aggregation over 8,192 distinct keys (open addressing), as
  // group-by does.
  std::fill(table_.begin(), table_.end(), Slot{});
  const std::size_t mask = table_.size() - 1;
  for (std::size_t r = 0; r < 2; ++r) {
    for (const std::uint64_t k : keys_) {
      const std::uint64_t key = (k & 8191) + 1;
      std::size_t at = (key * 0x9e3779b97f4a7c15ull) >> 50 & mask;
      while (table_[at].key != 0 && table_[at].key != key) at = (at + 1) & mask;
      table_[at].key = key;
      table_[at].sum += k >> 40;
    }
  }
  sink_ += table_[17].sum;

  // Zigzag-delta varint coding of a column, as the codecs do.
  const std::size_t n = std::size_t{1} << 20;
  std::size_t len = 0;
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t d = column_[i] - prev;
    prev = column_[i];
    std::uint64_t z = (static_cast<std::uint64_t>(d) << 1) ^
                      static_cast<std::uint64_t>(d >> 63);
    while (z >= 0x80) {
      bytes_[len++] = static_cast<std::uint8_t>(z | 0x80);
      z >>= 7;
    }
    bytes_[len++] = static_cast<std::uint8_t>(z);
  }
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < len;) {
    std::uint64_t z = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t b = bytes_[i++];
      z |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (b < 0x80) break;
    }
    acc += static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
  }
  sink_ += static_cast<std::uint64_t>(acc);

  // A filtered scan of the whole column, then a gather from it.
  std::int64_t sum = 0;
  for (const std::int64_t c : column_) sum += (c & 7) == 3 ? c : 0;
  std::uint64_t at = sink_;
  for (std::size_t i = 0; i < (std::size_t{1} << 17); ++i) {
    at = at * 6364136223846793005ull + 1442695040888963407ull;
    sum += column_[(at >> 20) & (column_.size() - 1)];
  }
  sink_ += static_cast<std::uint64_t>(sum);
  return now_ns() - t0;
}

} // namespace perfbench
