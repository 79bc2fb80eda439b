#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

int Tracer::open_op(const std::string& op) {
  if (!on_) return -1;
  ops_.push_back(op);
  return open("op." + op);
}

int Tracer::open(std::string_view name) {
  if (!on_) return -1;
  // The clock first: the recorder's own bookkeeping then falls inside
  // the span it opens, not into its parent's self time.
  const std::int64_t start = now_ns();
  Span& s = spans_.emplace_back();
  s.name = std::string(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = static_cast<int>(ops_.size()) - 1;
  s.start = start;
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

std::int64_t Tracer::close_op(int id, std::int64_t t0) {
  close(id);
  const std::int64_t ns = now_ns() - t0;
  if (id >= 0) {
    op_measured_.resize(ops_.size(), -1);
    op_measured_[static_cast<std::size_t>(spans_[static_cast<std::size_t>(id)].op)] = ns;
  }
  return ns;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  // Spans close innermost first (scoped guards), so the stack top is id.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  // Children of one parent run one after another on this thread, so the
  // part of the parent they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

SpanCheck check_spans(const Tracer& t, double max_uncovered) {
  SpanCheck out;
  const auto fail = [&out](const std::string& why) {
    if (out.ok) out.problem = why;
    out.ok = false;
  };
  const std::vector<Span>& spans = t.spans();
  const std::vector<std::int64_t> self = t.self_times();
  std::vector<std::int64_t> sum(t.ops().size(), 0), root_self(t.ops().size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op < 0 || static_cast<std::size_t>(s.op) >= t.ops().size()) {
      fail("span " + s.name + " belongs to no operation");
      continue;
    }
    if (s.end < s.start) fail("span " + s.name + " was never closed");
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (p.op != s.op || s.start < p.start || s.end > p.end) {
        fail("span " + s.name + " lies outside its parent " + p.name);
      }
    } else {
      root_self[static_cast<std::size_t>(s.op)] += self[i];
    }
    if (self[i] < 0) fail("span " + s.name + " has a negative self time");
    sum[static_cast<std::size_t>(s.op)] += self[i];
  }
  for (std::size_t k = 0; k < t.ops().size(); ++k) {
    const std::int64_t measured =
        k < t.op_measured().size() ? t.op_measured()[k] : -1;
    const std::string& name = t.ops()[k];
    if (measured <= 0) {
      fail("operation " + name + " has no measured time");
      continue;
    }
    // The root span opens just after the caller's first clock reading and
    // closes just before its last, so the two may differ by a few reads.
    const double gap = std::abs(static_cast<double>(sum[k] - measured));
    if (gap > 0.01 * static_cast<double>(measured) + 50'000.0) {
      fail("operation " + name + ": span self times add up to " +
           std::to_string(sum[k]) + " ns of " + std::to_string(measured) + " ns");
    }
    const double share =
        static_cast<double>(root_self[k]) / static_cast<double>(measured);
    double& u = out.uncovered[name];
    u = std::max(u, share);
    if (share > max_uncovered) {
      fail("operation " + name + " spends " + std::to_string(share) +
           " of its time outside public calls");
    }
  }
  return out;
}

void write_chrome_trace(const std::string& path, const Tracer& t,
                        const std::string& host_json) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  const std::vector<Span>& spans = t.spans();
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  const std::vector<std::int64_t> self = t.self_times();
  os << "{\"displayTimeUnit\":\"ns\",\"metadata\":" << host_json
     << ",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"perfbench\"}}";
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string op =
        s.op >= 0 ? t.ops()[static_cast<std::size_t>(s.op)] : "";
    const auto dot = s.name.find('.');
    os << ",\n{\"name\":" << json_string(s.name)
       << ",\"cat\":" << json_string(s.name.substr(0, dot))
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start - t0) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3);
    os << buf << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"op_id\":" << s.op << ",\"op\":" << json_string(op)
       << ",\"self_ns\":" << self[i] << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("short write on span file " + path);
}

} // namespace perfbench
