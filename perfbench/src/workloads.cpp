// The benchmark's own input shapers. Every workload is a pure function of
// its seed; nothing here reads a generator of the program under test
// except the simulator the `capture` workload runs on, so a program
// change cannot quietly change what the benchmark feeds it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "fluxtrace/acl/ruleset.hpp"
#include "fluxtrace/apps/acl_firewall_app.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/net/trafficgen.hpp"
#include "fluxtrace/sim/machine.hpp"

namespace perfbench {

std::uint64_t Workload::rows() const {
  std::uint64_t n = 0;
  for (const Member& m : members) n += m.data.samples.size();
  return n;
}

std::uint64_t Workload::records() const {
  std::uint64_t n = 0;
  for (const Member& m : members) {
    n += m.data.samples.size() + m.data.markers.size() +
         m.data.wait_edges.size();
  }
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"diagnose", "capture",
                                                 "fleet"};
  return names;
}

namespace {

/// splitmix64: the benchmark's own generator, so the inputs for a seed
/// never depend on a standard library's distribution code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

// ------------------------------------------------- synthetic service traces

/// One PEBS sample per R=8K retired uops at 0.4 cycles/uop.
constexpr Tsc kPeriod = 3200;
constexpr Tsc kJitter = 400;

struct SynthShape {
  std::size_t members = 1;
  std::size_t items_per_member = 0;
  std::uint32_t cores = 1;
  std::size_t funcs = 64;
  std::size_t funcs_per_item = 8;
  std::size_t samples_per_item = 500;
  std::size_t slow_items = 10; ///< at most one per member when members > 1
  std::size_t drain_batch = 512; ///< PEBS buffer records per drain
};

/// Items run back to back, one at a time per core, each dispatched to the
/// first core that is free; each calls a few service functions in turn,
/// and every item also runs the function that occasionally blows up. A
/// slow item spends three extra item-lengths in it, so it is four times
/// longer and dominated by that one function.
void make_synthetic(Workload& w, const SynthShape& sh) {
  Rng rng(w.seed * 0x2545f4914f6cdd1dull + sh.members);
  std::vector<SymbolId> fns;
  for (std::size_t f = 0; f < sh.funcs; ++f) {
    char name[32];
    std::snprintf(name, sizeof name, "svc::stage_%02zu", f);
    fns.push_back(w.symtab.add(name, 0x200 + 0x40 * rng.below(256)));
  }
  w.injected_fn = fns[rng.below(fns.size())];

  const std::size_t n_items = sh.members * sh.items_per_member;
  // Slow items avoid the first 2% of items, where the streaming outlier
  // detector is still warming up, and take at most one per member.
  std::vector<std::size_t> candidates;
  const std::size_t first = n_items / 50;
  if (sh.members > 1) {
    std::vector<std::size_t> ms;
    for (std::size_t m = (first + sh.items_per_member - 1) / sh.items_per_member;
         m < sh.members; ++m) {
      ms.push_back(m);
    }
    rng.shuffle(ms);
    for (std::size_t k = 0; k < sh.slow_items && k < ms.size(); ++k) {
      candidates.push_back(ms[k] * sh.items_per_member +
                           rng.below(sh.items_per_member));
    }
  } else {
    for (std::size_t i = first; i < n_items; ++i) candidates.push_back(i);
    rng.shuffle(candidates);
    candidates.resize(std::min(sh.slow_items, candidates.size()));
  }
  std::set<std::size_t> slow(candidates.begin(), candidates.end());

  Tsc member_base = 1'000'000;
  for (std::size_t m = 0; m < sh.members; ++m) {
    Member mem;
    char file[32];
    std::snprintf(file, sizeof file, "m%04zu.flxt3", m);
    mem.file = sh.members == 1 ? "trace.flxt3" : file;

    std::vector<SampleVec> per_core(sh.cores);
    std::vector<Tsc> clock(sh.cores);
    for (std::uint32_t c = 0; c < sh.cores; ++c) {
      clock[c] = member_base + rng.below(kPeriod);
    }
    const auto sample = [&](std::uint32_t core, Tsc ts, SymbolId fn,
                            ItemId item) {
      const Symbol& s = w.symtab[fn];
      PebsSample p;
      p.tsc = ts;
      p.ip = s.lo + rng.below(s.size());
      p.core = core;
      p.regs.set(kItemIdReg, item);
      per_core[core].push_back(p);
    };

    for (std::size_t j = 0; j < sh.items_per_member; ++j) {
      const std::size_t idx = m * sh.items_per_member + j;
      const ItemId item = 1 + idx;
      const auto core = static_cast<std::uint32_t>(
          std::min_element(clock.begin(), clock.end()) - clock.begin());
      Tsc& t = clock[core];
      // The work of one item: a few functions, each a run of samples.
      const auto base = static_cast<std::size_t>(
          static_cast<double>(sh.samples_per_item) * (0.9 + 0.2 * rng.unit()));
      std::vector<std::pair<SymbolId, std::size_t>> segs;
      const std::size_t inj = std::max<std::size_t>(2, base / 20);
      segs.emplace_back(w.injected_fn,
                        inj + (slow.count(idx) != 0 ? 3 * base : 0));
      std::vector<double> weights;
      std::vector<SymbolId> picked;
      while (picked.size() < sh.funcs_per_item) {
        const SymbolId f = fns[rng.below(fns.size())];
        if (f == w.injected_fn ||
            std::find(picked.begin(), picked.end(), f) != picked.end()) {
          continue;
        }
        picked.push_back(f);
        weights.push_back(1.0 + 2.0 * rng.unit());
      }
      double wsum = 0;
      for (const double x : weights) wsum += x;
      for (std::size_t k = 0; k < picked.size(); ++k) {
        const auto n = static_cast<std::size_t>(
            static_cast<double>(base - inj) * weights[k] / wsum);
        segs.emplace_back(picked[k], std::max<std::size_t>(2, n));
      }
      rng.shuffle(segs);

      const Tsc enter = t + 1 + rng.below(kPeriod);
      mem.data.markers.push_back(Marker{enter, item, core, MarkerKind::Enter});
      t = enter;
      for (const auto& [fn, n] : segs) {
        for (std::size_t k = 0; k < n; ++k) {
          t += kPeriod - kJitter + rng.below(2 * kJitter);
          sample(core, t, fn, item);
        }
      }
      t += 1 + rng.below(kPeriod);
      mem.data.markers.push_back(Marker{t, item, core, MarkerKind::Leave});
      if (slow.count(idx) != 0) w.injected.insert(item);
    }

    // Samples reach software one PEBS buffer at a time, in drain order.
    struct Block {
      std::uint32_t core;
      std::size_t begin, end;
    };
    std::vector<Block> blocks;
    for (std::uint32_t c = 0; c < sh.cores; ++c) {
      for (std::size_t b = 0; b < per_core[c].size(); b += sh.drain_batch) {
        blocks.push_back(
            Block{c, b, std::min(per_core[c].size(), b + sh.drain_batch)});
      }
    }
    std::sort(blocks.begin(), blocks.end(), [&](const Block& a, const Block& b) {
      const Tsc ta = per_core[a.core][a.end - 1].tsc;
      const Tsc tb = per_core[b.core][b.end - 1].tsc;
      return ta != tb ? ta < tb : a.core < b.core;
    });
    for (const Block& b : blocks) {
      mem.data.samples.insert(mem.data.samples.end(),
                              per_core[b.core].begin() + static_cast<std::ptrdiff_t>(b.begin),
                              per_core[b.core].begin() + static_cast<std::ptrdiff_t>(b.end));
    }
    std::stable_sort(mem.data.markers.begin(), mem.data.markers.end(),
                     [](const Marker& a, const Marker& b) {
                       return a.tsc != b.tsc ? a.tsc < b.tsc : a.core < b.core;
                     });
    member_base = *std::max_element(clock.begin(), clock.end()) + 1'000'000;
    w.members.push_back(std::move(mem));
  }
}

// ---------------------------------------------- the ACL case study (§IV-C)

// The benchmark's copy of the case-study driver: the firewall of the
// paper's §IV-C on sim::Machine, fed a seeded sequence of Table IV
// packets, one by one.
constexpr std::uint32_t kRxCore = 1;
constexpr std::uint32_t kAclCore = 2;
constexpr std::uint32_t kTxCore = 3;
constexpr std::uint64_t kReset = 8000;
constexpr double kGapNs = 20000.0;

struct AclRun {
  std::vector<Marker> markers;
  SampleVec samples;
  std::vector<net::TrafficGen::Record> records;
  SymbolId classify = 0;
  std::uint64_t lost = 0;
  Tsc assist = 0;
  Tsc drain = 0;
};

AclRun simulate_acl(SymbolTable& symtab, const acl::RuleSet& rules,
                    const std::vector<std::uint8_t>& types, bool instrument,
                    bool pebs) {
  apps::AclFirewallConfig acfg;
  acfg.instrument = instrument;
  apps::AclFirewallApp app(symtab, rules, acfg);
  sim::Machine m(symtab, sim::MachineConfig{});

  const acl::PaperPackets pk;
  const FlowKey keys[3] = {pk.type_a, pk.type_b, pk.type_c};
  std::vector<FlowKey> flows;
  flows.reserve(types.size());
  for (const std::uint8_t t : types) flows.push_back(keys[t]);
  net::TrafficGenConfig tgc;
  tgc.total_packets = types.size();
  tgc.inter_packet_gap_ns = kGapNs;
  net::TrafficGen tg(tgc, app.rx_nic(), app.tx_nic(), std::move(flows));

  if (pebs) {
    sim::PebsConfig pc;
    pc.reset = kReset;
    m.cpu(kAclCore).enable_pebs(pc);
  }
  app.expect_packets(types.size());
  m.attach(0, tg);
  app.attach(m, kRxCore, kAclCore, kTxCore);
  const sim::RunResult rr = m.run();
  m.flush_samples();
  if (!rr.all_done || tg.received() != types.size()) {
    throw std::runtime_error("ACL simulation did not forward every packet");
  }

  AclRun out;
  out.markers = m.marker_log().markers();
  out.samples = m.pebs_driver().samples();
  out.records = tg.records();
  out.classify = app.classify_symbol();
  out.lost = m.cpu(kAclCore).pebs().samples_lost();
  out.assist = m.cpu(kAclCore).stats().pebs_assist;
  out.drain = m.cpu(kAclCore).stats().drain_stall;
  return out;
}

/// Per-item window length straight from the markers (one window each).
std::map<ItemId, Tsc> window_lengths(const std::vector<Marker>& markers) {
  std::map<ItemId, Tsc> enter, len;
  for (const Marker& mk : markers) {
    if (mk.kind == MarkerKind::Enter) {
      enter[mk.item] = mk.tsc;
    } else if (const auto it = enter.find(mk.item); it != enter.end()) {
      len[mk.item] += mk.tsc - it->second;
      enter.erase(it);
    }
  }
  return len;
}

/// A seeded packet sequence with `slow_share` of each deep-walking type
/// (A and B) and type C for the rest. The first 2% are type C so the
/// streaming detector has warmed up before the first slow packet.
std::vector<std::uint8_t> packet_mix(Rng& rng, std::size_t n,
                                     double slow_share) {
  const auto each = static_cast<std::size_t>(static_cast<double>(n) * slow_share);
  const std::size_t head = n / 50;
  std::vector<std::uint8_t> tail(n - head, 2);
  for (std::size_t i = 0; i < each; ++i) {
    tail[i] = 0;
    tail[each + i] = 1;
  }
  rng.shuffle(tail);
  std::vector<std::uint8_t> types(head, 2);
  types.insert(types.end(), tail.begin(), tail.end());
  return types;
}

/// Packets of the Figs 9/10 runs: a third of each type, as in the paper.
constexpr std::size_t kFigurePackets = 1500;
/// Packets of the `capture` trace: 5% each of types A and B.
constexpr std::size_t kCapturePackets = 6000;

std::vector<std::uint8_t> seeded_mix(std::uint64_t seed, std::size_t n,
                                     double slow_share) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xac1);
  return packet_mix(rng, n, slow_share);
}

/// The item drill-down set: eight injected items, one from each eighth
/// of the injected ones in item order, and 24 others, one from each
/// 24th of the item range. A one-shot item query costs more the later
/// its item sits in the trace (cliff 4), so every seed probes items
/// spread evenly through it.
void pick_probes(Workload& w, std::uint64_t lo, std::uint64_t hi) {
  Rng rng(w.seed ^ 0x5eed'1234ull);
  const std::vector<ItemId> inj(w.injected.begin(), w.injected.end());
  const std::size_t eighth = inj.size() / 8;
  for (std::size_t k = 0; k < 8 && eighth > 0; ++k) {
    w.probe_items.push_back(inj[k * eighth + rng.below(eighth)]);
  }
  const std::uint64_t stride = (hi - lo) / 24;
  for (std::uint64_t k = 0; k < 24; ++k) {
    ItemId x = lo + k * stride + rng.below(stride);
    while (w.injected.count(x) != 0) x = lo + k * stride + rng.below(stride);
    w.probe_items.push_back(x);
  }
}

} // namespace

CaptureFigures capture_figures(std::uint64_t seed) {
  const acl::RuleSet rules = acl::make_paper_ruleset();
  const std::vector<std::uint8_t> types =
      seeded_mix(seed, kFigurePackets, 1.0 / 3.0);
  SymbolTable bare_syms, base_syms, syms;
  const AclRun bare = simulate_acl(bare_syms, rules, types, false, false);
  const AclRun base = simulate_acl(base_syms, rules, types, true, false);
  const AclRun traced = simulate_acl(syms, rules, types, true, true);

  const CpuSpec spec;
  const auto mean_latency_ns = [&](const AclRun& r) {
    double s = 0;
    for (const auto& rec : r.records) s += spec.ns(rec.latency());
    return s / static_cast<double>(r.records.size());
  };

  const core::TraceIntegrator integ(syms);
  const core::TraceTable table = integ.integrate(traced.markers, traced.samples);
  const std::map<ItemId, Tsc> base_win = window_lengths(base.markers);
  // Per-type sums over the same packets, so their ratio is the ratio of
  // the per-type means.
  double est[3] = {0, 0, 0}, win[3] = {0, 0, 0};
  for (const auto& rec : traced.records) {
    const std::uint8_t ty = types[rec.flow_idx];
    est[ty] += spec.ns(table.elapsed(rec.id, traced.classify));
    const auto it = base_win.find(rec.id);
    win[ty] += it == base_win.end() ? 0.0 : spec.ns(it->second);
  }
  double err = 0;
  for (int ty = 0; ty < 3; ++ty) {
    err += std::abs(est[ty] - win[ty]) / win[ty];
  }

  CaptureFigures f;
  f.packets = kFigurePackets;
  f.samples = traced.samples.size();
  f.lost = traced.lost;
  f.overhead_ns_per_item = mean_latency_ns(traced) - mean_latency_ns(bare);
  f.estimate_error_pct = 100.0 * err / 3.0;
  f.assist_ns = spec.ns(traced.assist);
  f.drain_stall_ns = spec.ns(traced.drain);
  return f;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.seed = seed;
  if (name == "diagnose" || name == "fleet") {
    SynthShape sh;
    if (name == "diagnose") {
      sh.items_per_member = 1024;
      sh.cores = 8;
      sh.funcs_per_item = 8;
      sh.samples_per_item = 500;
      sh.slow_items = 10;
    } else {
      sh.members = 32;
      sh.items_per_member = 48;
      sh.cores = 4;
      sh.funcs_per_item = 4;
      sh.samples_per_item = 62;
      sh.slow_items = 16;
    }
    make_synthetic(w, sh);
    pick_probes(w, 1, 1 + sh.members * sh.items_per_member);
  } else if (name == "capture") {
    // The traced run alone: the untraced runs only serve Figs 9 and 10.
    const std::vector<std::uint8_t> types =
        seeded_mix(seed, kCapturePackets, 0.05);
    AclRun traced = simulate_acl(w.symtab, acl::make_paper_ruleset(), types,
                                 true, true);
    w.injected_fn = traced.classify;
    for (const auto& rec : traced.records) {
      if (types[rec.flow_idx] != 2) w.injected.insert(rec.id);
    }
    Member m;
    m.file = "trace.flxt3";
    m.data.markers = std::move(traced.markers);
    m.data.samples = std::move(traced.samples);
    w.members.push_back(std::move(m));
    pick_probes(w, 0, kCapturePackets);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

} // namespace perfbench
