// Differential suite for the paper's attribution procedure (§III-D): a
// brute-force oracle against every analysis path — TraceIntegrator,
// ColumnarTrace (built from TraceData and decoded from v2 and v3
// images), StreamingQuery fed one record per batch, OnlineTracer fed each
// core's markers and samples in time order with the cores interleaved at
// random, and RegisterIdMapper.
//
// The oracle shares no code with the kernel. It pairs markers per core
// (strictly by item id, or with the degraded synthesis rules), gives a
// sample to the latest-entered window on its core that covers it with
// both edges inclusive, resolves the ip by scanning the symbol ranges,
// and takes first-to-last per {item, func} per core, summed over cores.
//
// Inputs are seeded: disjoint, nested and partly overlapping windows;
// repeated items, Enters never left and Leaves never entered;
// register-id mode; and degraded mode under sim::FaultPlan marker and
// sample loss. Marker timestamps on one core are distinct: the streaming
// query seals a window on its Leave, so an Enter stamped on the same
// cycle but delivered later could not claim that cycle's sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "fluxtrace/apps/query_cache_app.hpp"
#include "fluxtrace/core/integrator.hpp"
#include "fluxtrace/core/online.hpp"
#include "fluxtrace/core/regid.hpp"
#include "fluxtrace/io/chunked.hpp"
#include "fluxtrace/io/trace_reader.hpp"
#include "fluxtrace/io/v3.hpp"
#include "fluxtrace/query/columnar.hpp"
#include "fluxtrace/query/stream.hpp"
#include "fluxtrace/sim/fault.hpp"
#include "fluxtrace/sim/machine.hpp"

namespace fluxtrace::core {
namespace {

// --- inputs ----------------------------------------------------------------

enum class Shape { Disjoint, Nested, Overlap, Messy };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::Disjoint: return "disjoint";
    case Shape::Nested: return "nested";
    case Shape::Overlap: return "overlap";
    case Shape::Messy: return "messy";
  }
  return "?";
}

struct Rng {
  std::uint64_t s;
  std::uint64_t operator()() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 17;
  }
  std::uint64_t below(std::uint64_t n) { return (*this)() % n; }
};

struct Input {
  SymbolTable symtab;
  io::TraceData data;
  std::vector<SampleLoss> losses;
  /// Every item has at most one window per core (no repeats).
  bool one_window_per_core = true;
};

SymbolTable make_symtab() {
  SymbolTable t;
  for (int i = 0; i < 4; ++i) t.add("fn" + std::to_string(i), 0x100);
  return t;
}

PebsSample make_sample(const SymbolTable& symtab, Rng& rnd,
                       std::uint32_t core, Tsc t) {
  PebsSample s;
  s.core = core;
  s.tsc = t;
  if (rnd.below(7) == 0) {
    s.ip = 0x10; // below the text section: resolves to no function
  } else {
    s.ip = symtab.ip_at(static_cast<SymbolId>(rnd.below(symtab.size())),
                        static_cast<double>(rnd.below(100)) / 100.0);
  }
  return s;
}

/// One seeded trace of the given shape, time-sorted.
Input make_input(Shape shape, std::uint64_t seed) {
  Input in;
  in.symtab = make_symtab();
  Rng rnd{seed * 7919 + static_cast<std::uint64_t>(shape)};
  const auto n_cores = static_cast<std::uint32_t>(1 + rnd.below(3));
  const std::size_t max_open = shape == Shape::Disjoint ? 1
                               : shape == Shape::Overlap ? 2
                                                         : 3;
  in.one_window_per_core = shape != Shape::Messy;

  for (std::uint32_t core = 0; core < n_cores; ++core) {
    Tsc t = 100 + core;
    std::vector<ItemId> open;
    std::vector<ItemId> left;
    ItemId next = 1; // the k-th item of every core is item k
    std::vector<Tsc> marker_times;
    const std::size_t events = 20 + rnd.below(30);
    for (std::size_t e = 0; e < events; ++e) {
      t += 1 + rnd.below(60);
      marker_times.push_back(t);
      const bool can_open = open.size() < max_open;
      if (shape == Shape::Messy && rnd.below(10) == 0) {
        // A Leave whose item never entered on this core.
        in.data.markers.push_back({t, 900 + rnd.below(5), core,
                                   MarkerKind::Leave});
      } else if (open.empty() || (can_open && rnd.below(2) == 0)) {
        ItemId id = next++;
        if (shape == Shape::Messy && rnd.below(4) == 0) {
          // Repeat an item: one that already left, or one still open.
          if (!left.empty() && rnd.below(2) == 0) {
            id = left[rnd.below(left.size())];
          } else if (!open.empty()) {
            id = open[rnd.below(open.size())];
          }
        }
        if (std::find(open.begin(), open.end(), id) == open.end()) {
          open.push_back(id);
        }
        in.data.markers.push_back({t, id, core, MarkerKind::Enter});
      } else {
        // Disjoint and nested close the innermost; overlap and messy
        // close any open item, which makes windows partly overlap.
        const std::size_t k = shape == Shape::Overlap || shape == Shape::Messy
                                  ? rnd.below(open.size())
                                  : open.size() - 1;
        const ItemId id = open[k];
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
        left.push_back(id);
        in.data.markers.push_back({t, id, core, MarkerKind::Leave});
      }
    }
    // Close what is open, except that messy traces keep some Enters
    // that are never left.
    while (!open.empty()) {
      t += 1 + rnd.below(60);
      marker_times.push_back(t);
      if (shape == Shape::Messy && rnd.below(2) == 0) {
        open.pop_back();
        continue;
      }
      in.data.markers.push_back({t, open.back(), core, MarkerKind::Leave});
      open.pop_back();
    }

    // Samples anywhere across the core's span, plus some exactly on
    // marker edges (both edges are inclusive).
    const Tsc lo = 80;
    const Tsc hi = t + 40;
    const std::size_t n_samples = 40 + rnd.below(120);
    for (std::size_t i = 0; i < n_samples; ++i) {
      in.data.samples.push_back(
          make_sample(in.symtab, rnd, core, lo + rnd.below(hi - lo)));
    }
    for (const Tsc mt : marker_times) {
      if (rnd.below(3) == 0) {
        in.data.samples.push_back(make_sample(in.symtab, rnd, core, mt));
      }
    }
  }
  // Register ids: a random item or none, for register-id mode.
  for (PebsSample& s : in.data.samples) {
    s.regs.set(kItemIdReg, rnd.below(3) == 0 ? kNoItem : 1 + rnd.below(12));
  }
  std::stable_sort(in.data.markers.begin(), in.data.markers.end(),
                   [](const Marker& a, const Marker& b) { return a.tsc < b.tsc; });
  std::stable_sort(
      in.data.samples.begin(), in.data.samples.end(),
      [](const PebsSample& a, const PebsSample& b) { return a.tsc < b.tsc; });
  return in;
}

/// A self-switching trace (disjoint windows, R13 = the item on the core)
/// with markers and samples dropped by a sim::FaultPlan. Dropped samples
/// become known losses.
Input make_lossy_input(std::uint64_t seed) {
  Input in;
  in.symtab = make_symtab();
  Rng rnd{seed * 104729 + 3};
  sim::FaultPlanConfig fcfg;
  fcfg.seed = seed;
  fcfg.sample_loss_rate = 0.2;
  fcfg.marker_loss_rate = 0.15;
  sim::FaultPlan plan(fcfg);
  const auto n_cores = static_cast<std::uint32_t>(1 + rnd.below(3));
  ItemId next = 1;
  for (std::uint32_t core = 0; core < n_cores; ++core) {
    Tsc t = 100 + core;
    const std::size_t items = 15 + rnd.below(20);
    for (std::size_t i = 0; i < items; ++i) {
      const ItemId id = next++;
      const Tsc enter = t;
      const Tsc leave = enter + 20 + rnd.below(300);
      const Marker me{enter, id, core, MarkerKind::Enter};
      const Marker ml{leave, id, core, MarkerKind::Leave};
      if (!plan.lose_marker(me)) in.data.markers.push_back(me);
      const std::size_t n = rnd.below(7);
      for (std::size_t k = 0; k < n; ++k) {
        PebsSample s = make_sample(in.symtab, rnd, core,
                                   enter + rnd.below(leave - enter + 1));
        s.regs.set(kItemIdReg, id);
        if (plan.lose_sample(s)) {
          in.losses.push_back({core, s.tsc});
        } else {
          in.data.samples.push_back(s);
        }
      }
      if (!plan.lose_marker(ml)) in.data.markers.push_back(ml);
      t = leave + 1 + rnd.below(40);
      if (rnd.below(3) == 0) {
        // Between items: the id register holds no item.
        PebsSample s = make_sample(in.symtab, rnd, core, leave + 1);
        s.regs.set(kItemIdReg, kNoItem);
        in.data.samples.push_back(s);
        t = std::max(t, leave + 2);
      }
    }
  }
  std::stable_sort(in.data.markers.begin(), in.data.markers.end(),
                   [](const Marker& a, const Marker& b) { return a.tsc < b.tsc; });
  std::stable_sort(
      in.data.samples.begin(), in.data.samples.end(),
      [](const PebsSample& a, const PebsSample& b) { return a.tsc < b.tsc; });
  std::stable_sort(in.losses.begin(), in.losses.end(),
                   [](const SampleLoss& a, const SampleLoss& b) {
                     return a.tsc < b.tsc;
                   });
  return in;
}

// --- the oracle --------------------------------------------------------------

struct OWindow {
  ItemId item = kNoItem;
  std::uint32_t core = 0;
  Tsc enter = 0;
  Tsc leave = 0;
  std::uint8_t synth = 0;
  std::size_t order = 0; ///< index of the marker that set its enter edge

  auto key() const { return std::tuple(core, enter, leave, item, synth); }
};

struct OSpan {
  Tsc first = 0;
  Tsc last = 0;
  std::uint64_t n = 0;

  void add(Tsc t) {
    if (n == 0 || t < first) first = t;
    if (n == 0 || t > last) last = t;
    ++n;
  }
};

struct Oracle {
  std::vector<OWindow> windows;
  std::uint64_t unmatched_markers = 0;
  std::uint64_t enters_never_left = 0;
  // Per sample, in input order.
  std::vector<ItemId> item;
  std::vector<std::int64_t> func;
  std::vector<std::int64_t> window; ///< owning window index, or -1
  std::vector<bool> salvaged;
  // {item, func, core} spans and per-window {func} spans.
  std::map<std::tuple<ItemId, std::int64_t, std::uint32_t>, OSpan> spans;
  std::map<std::pair<std::size_t, std::int64_t>, OSpan> window_spans;
  std::vector<std::uint64_t> window_lost;
  std::map<ItemId, std::uint64_t> lost;
  std::uint64_t unattributed = 0;
  std::uint64_t unresolved = 0; ///< attributed, but no function
  std::uint64_t unattributed_loss = 0;

  /// Sum over cores of last − first, cores with >= 2 samples only.
  Tsc elapsed(ItemId it, std::int64_t fn) const {
    Tsc sum = 0;
    for (const auto& [k, sp] : spans) {
      if (std::get<0>(k) == it && std::get<1>(k) == fn && sp.n >= 2) {
        sum += sp.last - sp.first;
      }
    }
    return sum;
  }
  std::uint64_t count(ItemId it, std::int64_t fn) const {
    std::uint64_t n = 0;
    for (const auto& [k, sp] : spans) {
      if (std::get<0>(k) == it && std::get<1>(k) == fn) n += sp.n;
    }
    return n;
  }
};

std::int64_t brute_resolve(const SymbolTable& symtab, std::uint64_t ip) {
  for (SymbolId f = 0; f < symtab.size(); ++f) {
    if (symtab[f].lo <= ip && ip < symtab[f].hi) return f;
  }
  return -1;
}

std::map<std::uint32_t, std::vector<Marker>> by_core(
    const std::vector<Marker>& markers) {
  std::map<std::uint32_t, std::vector<Marker>> out;
  for (const Marker& m : markers) out[m.core].push_back(m);
  for (auto& [c, ms] : out) {
    std::stable_sort(ms.begin(), ms.end(), [](const Marker& a, const Marker& b) {
      return a.tsc < b.tsc;
    });
  }
  return out;
}

void pair_strict(const std::vector<Marker>& markers, Oracle& o) {
  for (const auto& [core, ms] : by_core(markers)) {
    std::map<ItemId, std::pair<Tsc, std::size_t>> open;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const Marker& m = ms[i];
      if (m.kind == MarkerKind::Enter) {
        if (open.count(m.item) != 0) {
          ++o.unmatched_markers;
          ++o.enters_never_left;
        }
        open[m.item] = {m.tsc, i};
      } else if (const auto it = open.find(m.item); it != open.end()) {
        o.windows.push_back(
            {m.item, core, it->second.first, m.tsc, 0, it->second.second});
        open.erase(it);
      } else {
        ++o.unmatched_markers;
      }
    }
    o.unmatched_markers += open.size();
    o.enters_never_left += open.size();
  }
}

void pair_degraded(const std::vector<Marker>& markers,
                   const std::map<std::uint32_t, Tsc>& watermark, Oracle& o) {
  constexpr std::uint8_t kE = ItemWindow::kSynthEnter;
  constexpr std::uint8_t kL = ItemWindow::kSynthLeave;
  for (const auto& [core, ms] : by_core(markers)) {
    bool has_open = false;
    OWindow open;
    Tsc prev = 0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const Marker& m = ms[i];
      if (m.kind == MarkerKind::Enter) {
        if (has_open) {
          open.leave = m.tsc;
          open.synth |= kL;
          o.windows.push_back(open);
        }
        open = OWindow{m.item, core, m.tsc, 0, 0, i};
        has_open = true;
      } else if (has_open && open.item == m.item) {
        open.leave = m.tsc;
        o.windows.push_back(open);
        has_open = false;
      } else if (has_open) {
        OWindow a = open;
        a.leave = m.tsc;
        a.synth |= kL;
        o.windows.push_back(a);
        o.windows.push_back({m.item, core, open.enter, m.tsc, kE, i});
        has_open = false;
      } else {
        o.windows.push_back({m.item, core, prev, m.tsc, kE, i});
      }
      prev = m.tsc;
    }
    if (has_open) {
      const auto it = watermark.find(core);
      open.leave = std::max(open.enter, it == watermark.end() ? 0 : it->second);
      open.synth |= kL;
      o.windows.push_back(open);
    }
  }
}

/// The latest-entered window covering (core, t), or -1.
std::int64_t owner(const Oracle& o, std::uint32_t core, Tsc t) {
  std::int64_t best = -1;
  for (std::size_t w = 0; w < o.windows.size(); ++w) {
    const OWindow& x = o.windows[w];
    if (x.core != core || t < x.enter || t > x.leave) continue;
    if (best < 0) {
      best = static_cast<std::int64_t>(w);
      continue;
    }
    const OWindow& b = o.windows[static_cast<std::size_t>(best)];
    if (std::tie(x.enter, x.order) > std::tie(b.enter, b.order)) {
      best = static_cast<std::int64_t>(w);
    }
  }
  return best;
}

Oracle run_oracle(const Input& in, bool register_ids, bool degraded) {
  Oracle o;
  if (degraded) {
    std::map<std::uint32_t, Tsc> wm;
    for (const PebsSample& s : in.data.samples) {
      wm[s.core] = std::max(wm[s.core], s.tsc);
    }
    for (const SampleLoss& l : in.losses) {
      wm[l.core] = std::max(wm[l.core], l.tsc);
    }
    pair_degraded(in.data.markers, wm, o);
  } else {
    pair_strict(in.data.markers, o);
  }
  std::set<ItemId> window_items;
  for (const OWindow& w : o.windows) window_items.insert(w.item);
  o.window_lost.assign(o.windows.size(), 0);

  for (const PebsSample& s : in.data.samples) {
    const std::int64_t fn = brute_resolve(in.symtab, s.ip);
    const std::int64_t w = owner(o, s.core, s.tsc);
    const ItemId reg = s.regs.get(kItemIdReg);
    ItemId it = kNoItem;
    bool salv = false;
    if (register_ids) {
      it = reg;
    } else if (w >= 0) {
      it = o.windows[static_cast<std::size_t>(w)].item;
    } else if (degraded && reg != kNoItem && window_items.count(reg) != 0) {
      it = reg;
      salv = true;
    }
    o.item.push_back(it);
    o.func.push_back(fn);
    o.window.push_back(w);
    o.salvaged.push_back(salv);
    if (w >= 0) o.window_spans[{static_cast<std::size_t>(w), fn}].add(s.tsc);
    if (it == kNoItem) {
      ++o.unattributed;
    } else if (fn < 0) {
      ++o.unresolved;
    } else {
      o.spans[{it, fn, s.core}].add(s.tsc);
    }
  }
  for (const SampleLoss& l : in.losses) {
    const std::int64_t w = owner(o, l.core, l.tsc);
    if (w >= 0) {
      ++o.window_lost[static_cast<std::size_t>(w)];
      ++o.lost[o.windows[static_cast<std::size_t>(w)].item];
    } else {
      ++o.unattributed_loss;
    }
  }
  return o;
}

std::multiset<std::tuple<std::uint32_t, Tsc, Tsc, ItemId, std::uint8_t>>
window_set(const Oracle& o) {
  std::multiset<std::tuple<std::uint32_t, Tsc, Tsc, ItemId, std::uint8_t>> out;
  for (const OWindow& w : o.windows) out.insert(w.key());
  return out;
}

std::multiset<std::tuple<std::uint32_t, Tsc, Tsc, ItemId, std::uint8_t>>
window_set(const std::vector<ItemWindow>& ws) {
  std::multiset<std::tuple<std::uint32_t, Tsc, Tsc, ItemId, std::uint8_t>> out;
  for (const ItemWindow& w : ws) {
    out.insert(std::tuple(w.core, w.enter, w.leave, w.item, w.synth));
  }
  return out;
}

// --- the paths -----------------------------------------------------------------

void check_integrator(const Input& in, const Oracle& o, bool register_ids,
                      bool degraded) {
  IntegratorConfig cfg;
  cfg.use_register_ids = register_ids;
  cfg.degraded = degraded;
  const TraceTable t = TraceIntegrator(in.symtab, cfg)
                           .integrate(in.data.markers, in.data.samples,
                                      in.losses);
  EXPECT_EQ(window_set(t.windows()), window_set(o));
  EXPECT_EQ(t.unmatched_item(), o.unattributed);
  EXPECT_EQ(t.unmatched_symbol(), o.unresolved);
  EXPECT_EQ(t.unattributed_loss(), o.unattributed_loss);
  std::set<std::pair<ItemId, std::int64_t>> buckets;
  for (const auto& [k, sp] : o.spans) {
    buckets.insert({std::get<0>(k), std::get<1>(k)});
  }
  std::uint64_t total = 0;
  for (const auto& [it, fn] : buckets) {
    const auto f = static_cast<SymbolId>(fn);
    EXPECT_EQ(t.elapsed(it, f), o.elapsed(it, fn)) << it << "/" << fn;
    EXPECT_EQ(t.sample_count(it, f), o.count(it, fn)) << it << "/" << fn;
    total += o.count(it, fn);
  }
  EXPECT_EQ(t.total_samples(), total);
  std::map<ItemId, std::uint64_t> salvaged;
  for (std::size_t i = 0; i < o.item.size(); ++i) {
    if (o.salvaged[i]) ++salvaged[o.item[i]];
  }
  for (const auto& [it, n] : salvaged) {
    EXPECT_EQ(t.quality(it).samples_salvaged, n) << it;
  }
  for (const auto& [it, n] : o.lost) {
    EXPECT_EQ(t.quality(it).samples_lost, n) << it;
  }
}

void check_columnar_rows(const query::ColumnarTrace& c, const Oracle& o,
                         const char* what) {
  using query::Field;
  ASSERT_EQ(c.rows(), o.item.size()) << what;
  const auto item = c.col(Field::Item);
  const auto func = c.col(Field::Func);
  const auto dur = c.col(Field::Dur);
  for (std::size_t i = 0; i < o.item.size(); ++i) {
    EXPECT_EQ(item[i], static_cast<std::int64_t>(o.item[i])) << what << " row " << i;
    EXPECT_EQ(func[i], o.func[i]) << what << " row " << i;
    const std::int64_t want =
        o.item[i] != kNoItem && o.func[i] >= 0
            ? static_cast<std::int64_t>(o.elapsed(o.item[i], o.func[i]))
            : 0;
    EXPECT_EQ(dur[i], want) << what << " row " << i;
  }
}

void check_columnar(const Input& in, const Oracle& o, bool register_ids) {
  query::BuildOptions bo;
  bo.use_register_ids = register_ids;
  check_columnar_rows(query::ColumnarTrace::build(in.data, in.symtab, bo), o,
                      "build");
  std::ostringstream v2;
  io::write_trace_v2(v2, in.data, 16);
  check_columnar_rows(
      query::ColumnarTrace::from_reader(io::open_trace_bytes(v2.str()),
                                        in.symtab, bo, 1),
      o, "from_reader v2");
  std::ostringstream v3;
  io::write_trace_v3(v3, in.data, 16);
  check_columnar_rows(
      query::ColumnarTrace::from_reader(io::open_trace_bytes(v3.str()),
                                        in.symtab, bo, 1),
      o, "from_reader v3");
}

void check_register_mapper(const Input& in, const Oracle& o) {
  const RegisterIdMapper::Comparison c =
      RegisterIdMapper().compare_with_windows(in.data.samples, in.data.markers);
  std::uint64_t by_reg = 0, by_win = 0, disagree = 0;
  for (std::size_t i = 0; i < o.window.size(); ++i) {
    const ItemId reg = in.data.samples[i].regs.get(kItemIdReg);
    const ItemId win =
        o.window[i] >= 0 ? o.windows[static_cast<std::size_t>(o.window[i])].item
                         : kNoItem;
    by_reg += reg != kNoItem ? 1 : 0;
    by_win += win != kNoItem ? 1 : 0;
    disagree += reg != kNoItem && win != kNoItem && reg != win ? 1 : 0;
  }
  EXPECT_EQ(c.total, in.data.samples.size());
  EXPECT_EQ(c.by_register, by_reg);
  EXPECT_EQ(c.by_window, by_win);
  EXPECT_EQ(c.disagree, disagree);
}

/// Per-window spans of the oracle: {window key → {fn → span}}.
using WindowSpanMap =
    std::map<std::tuple<std::uint32_t, Tsc, Tsc, ItemId, std::uint8_t>,
             std::map<std::int64_t, OSpan>>;

WindowSpanMap window_spans(const Oracle& o) {
  WindowSpanMap out;
  for (const OWindow& w : o.windows) out[w.key()];
  for (const auto& [k, sp] : o.window_spans) {
    out[o.windows[k.first].key()][k.second] = sp;
  }
  return out;
}

void check_stream(const Input& in, const Oracle& o) {
  // Records in time order, samples before markers at equal timestamps,
  // one record per batch: every record boundary is a cut.
  struct Rec {
    Tsc t;
    int kind; // 0 sample, 1 marker
    std::size_t idx;
  };
  std::vector<Rec> recs;
  for (std::size_t i = 0; i < in.data.samples.size(); ++i) {
    recs.push_back({in.data.samples[i].tsc, 0, i});
  }
  for (std::size_t i = 0; i < in.data.markers.size(); ++i) {
    recs.push_back({in.data.markers[i].tsc, 1, i});
  }
  std::stable_sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    return std::tie(a.t, a.kind) < std::tie(b.t, b.kind);
  });
  query::StreamingQuery sq(
      query::parse_query("group item, func, core: count, min(ts), max(ts), "
                         "max(dur)",
                         &in.symtab),
      in.symtab);
  for (const Rec& r : recs) {
    io::TraceData batch;
    if (r.kind == 0) {
      batch.samples.push_back(in.data.samples[r.idx]);
    } else {
      batch.markers.push_back(in.data.markers[r.idx]);
    }
    (void)sq.ingest(batch);
  }
  (void)sq.flush();

  // Expected groups: every attributed row; max(dur) is the largest
  // per-window span of the {item, func} on that core.
  const WindowSpanMap ws = window_spans(o);
  struct Group {
    OSpan span;
    Tsc max_dur = 0;
  };
  std::map<std::vector<std::int64_t>, Group> want;
  for (std::size_t i = 0; i < o.item.size(); ++i) {
    if (o.window[i] < 0) continue;
    const OWindow& w = o.windows[static_cast<std::size_t>(o.window[i])];
    const std::vector<std::int64_t> key = {static_cast<std::int64_t>(w.item),
                                           o.func[i],
                                           static_cast<std::int64_t>(w.core)};
    Group& g = want[key];
    g.span.add(in.data.samples[i].tsc);
    if (o.func[i] >= 0) {
      const OSpan& sp = ws.at(w.key()).at(o.func[i]);
      g.max_dur = std::max(g.max_dur, sp.last - sp.first);
    }
  }
  std::vector<std::vector<query::Cell>> rows;
  for (const auto& [key, g] : want) {
    rows.push_back(
        {query::Cell::of_int(key[0]),
         key[1] >= 0 ? query::Cell::of_text(std::string(in.symtab.name(
                           static_cast<SymbolId>(key[1]))))
                     : query::Cell::of_int(key[1]),
         query::Cell::of_int(key[2]),
         query::Cell::of_int(static_cast<std::int64_t>(g.span.n)),
         query::Cell::of_int(static_cast<std::int64_t>(g.span.first)),
         query::Cell::of_int(static_cast<std::int64_t>(g.span.last)),
         query::Cell::of_int(static_cast<std::int64_t>(g.max_dur))});
  }
  const query::QueryResult res = sq.snapshot();
  EXPECT_EQ(res.rows, rows);
  EXPECT_EQ(sq.stats().windows_closed, o.windows.size());
  EXPECT_EQ(sq.stats().enters_unmatched, o.enters_never_left);
  EXPECT_EQ(sq.stats().rows_unattributed, o.unattributed);

  // Windowed dur: with one window per item per core, the per-window
  // spans summed over cores are the batch dur.
  if (!in.one_window_per_core) return;
  std::map<std::pair<std::int64_t, std::int64_t>, Tsc> summed;
  for (const auto& row : res.rows) {
    if (row[1].kind != query::Cell::Kind::Text) continue;
    const auto fn = in.symtab.find(row[1].s);
    summed[{row[0].i, static_cast<std::int64_t>(*fn)}] +=
        static_cast<Tsc>(row[6].i);
  }
  for (const auto& [k, d] : summed) {
    EXPECT_EQ(d, o.elapsed(static_cast<ItemId>(k.first), k.second))
        << "item " << k.first << " fn " << k.second;
  }
}

void check_online(const Input& in, const Oracle& o, bool degraded,
                  std::uint64_t seed) {
  OnlineTracerConfig cfg;
  cfg.keep_results = 1u << 20;
  cfg.synthesize_markers = degraded;
  OnlineTracer ot(in.symtab, cfg);

  // Per core, markers arrive in time order at marking time; samples and
  // losses (losses first at equal times) arrive in time order at drains,
  // each after every marker at or before it. A step delivers a random run
  // of one core's markers, or of its drained records; the cores
  // interleave at random, as independent drains would deliver them.
  struct Ev {
    Tsc t;
    int kind; // 0 loss, 1 sample
    std::size_t idx;
  };
  struct Feed {
    std::vector<const Marker*> markers; // time order
    std::vector<Ev> drained;
    std::size_t next_marker = 0;
    std::size_t next_drained = 0;
  };
  std::map<std::uint32_t, Feed> feeds;
  for (const Marker& m : in.data.markers) feeds[m.core].markers.push_back(&m);
  for (std::size_t i = 0; i < in.data.samples.size(); ++i) {
    feeds[in.data.samples[i].core].drained.push_back(
        {in.data.samples[i].tsc, 1, i});
  }
  for (std::size_t i = 0; i < in.losses.size(); ++i) {
    feeds[in.losses[i].core].drained.push_back({in.losses[i].tsc, 0, i});
  }
  for (auto& [c, f] : feeds) {
    std::stable_sort(f.drained.begin(), f.drained.end(),
                     [](const Ev& a, const Ev& b) {
                       return std::tie(a.t, a.kind) < std::tie(b.t, b.kind);
                     });
  }
  Rng rnd{seed * 31 + 5};
  for (;;) {
    std::vector<Feed*> live;
    for (auto& [c, f] : feeds) {
      if (f.next_marker < f.markers.size() ||
          f.next_drained < f.drained.size()) {
        live.push_back(&f);
      }
    }
    if (live.empty()) break;
    Feed& f = *live[rnd.below(live.size())];
    const bool drain = f.next_drained < f.drained.size() &&
                       (f.next_marker == f.markers.size() || rnd.below(2) == 0);
    for (std::size_t n = 1 + rnd.below(12); n > 0; --n) {
      if (!drain) {
        if (f.next_marker == f.markers.size()) break;
        ot.on_marker(*f.markers[f.next_marker++]);
        continue;
      }
      if (f.next_drained == f.drained.size()) break;
      const Ev& e = f.drained[f.next_drained++];
      while (f.next_marker < f.markers.size() &&
             f.markers[f.next_marker]->tsc <= e.t) {
        ot.on_marker(*f.markers[f.next_marker++]);
      }
      if (e.kind == 1) {
        ot.on_sample(in.data.samples[e.idx]);
      } else {
        ot.on_sample_lost(in.losses[e.idx]);
      }
    }
  }
  ot.finish();

  // Same windows, synthesized edges included.
  const WindowSpanMap ws = window_spans(o);
  std::map<std::tuple<std::uint32_t, Tsc, Tsc, ItemId>, const OWindow*> by_key;
  std::multiset<std::tuple<std::uint32_t, Tsc, Tsc, ItemId>> want_windows;
  std::map<std::tuple<std::uint32_t, Tsc, Tsc, ItemId, std::uint8_t>,
           std::uint64_t>
      lost_by_window;
  for (std::size_t w = 0; w < o.windows.size(); ++w) {
    const OWindow& x = o.windows[w];
    by_key[std::tuple(x.core, x.enter, x.leave, x.item)] = &x;
    want_windows.insert(std::tuple(x.core, x.enter, x.leave, x.item));
    lost_by_window[x.key()] += o.window_lost[w];
  }
  std::multiset<std::tuple<std::uint32_t, Tsc, Tsc, ItemId>> got;
  for (const OnlineResult& r : ot.recent()) {
    const auto k4 = std::tuple(r.core, r.enter, r.leave, r.item);
    got.insert(k4);
    const auto wit = by_key.find(k4);
    ASSERT_NE(wit, by_key.end()) << "item " << r.item << " [" << r.enter
                                 << ", " << r.leave << "] on core " << r.core;
    const OWindow& w = *wit->second;
    EXPECT_EQ(r.markers_synthesized,
              static_cast<std::uint32_t>(
                  ((w.synth & ItemWindow::kSynthEnter) != 0 ? 1 : 0) +
                  ((w.synth & ItemWindow::kSynthLeave) != 0 ? 1 : 0)));
    const std::uint64_t lost = lost_by_window.at(w.key());
    EXPECT_EQ(r.samples_lost, lost) << "item " << r.item;
    EXPECT_EQ(r.confidence, w.synth != 0 ? Confidence::Reconstructed
                            : lost > 0   ? Confidence::Degraded
                                         : Confidence::Clean);
    std::vector<std::pair<SymbolId, Tsc>> want;
    for (const auto& [fn, sp] : ws.at(w.key())) {
      if (fn >= 0 && sp.n >= 2) {
        want.emplace_back(static_cast<SymbolId>(fn), sp.last - sp.first);
      }
    }
    EXPECT_EQ(r.fn_elapsed, want) << "item " << r.item;
  }
  EXPECT_EQ(got, want_windows);
  std::uint64_t no_window = 0;
  for (const std::int64_t w : o.window) no_window += w < 0 ? 1 : 0;
  EXPECT_EQ(ot.samples_unmatched(), no_window);
  EXPECT_EQ(ot.markers_dropped(), o.unmatched_markers);
  EXPECT_EQ(ot.losses_unattributed(), o.unattributed_loss);

  if (!in.one_window_per_core || degraded) return;
  // Windowed dur: one window per item per core → summed spans are the
  // batch elapsed time.
  std::map<std::pair<ItemId, SymbolId>, Tsc> summed;
  for (const OnlineResult& r : ot.recent()) {
    for (const auto& [fn, e] : r.fn_elapsed) summed[{r.item, fn}] += e;
  }
  for (const auto& [k, e] : summed) {
    EXPECT_EQ(e, o.elapsed(k.first, k.second))
        << "item " << k.first << " fn " << k.second;
  }
}

// --- the suite -------------------------------------------------------------------

class AttributionDiff
    : public ::testing::TestWithParam<std::tuple<Shape, std::uint64_t>> {};

TEST_P(AttributionDiff, WindowModeMatchesOracle) {
  const auto [shape, seed] = GetParam();
  const Input in = make_input(shape, seed);
  const Oracle o = run_oracle(in, false, false);
  SCOPED_TRACE(std::string(shape_name(shape)) + " seed " + std::to_string(seed));
  {
    SCOPED_TRACE("TraceIntegrator");
    check_integrator(in, o, false, false);
  }
  {
    SCOPED_TRACE("ColumnarTrace");
    check_columnar(in, o, false);
  }
  {
    SCOPED_TRACE("RegisterIdMapper");
    check_register_mapper(in, o);
  }
  {
    SCOPED_TRACE("StreamingQuery");
    check_stream(in, o);
  }
  {
    SCOPED_TRACE("OnlineTracer");
    check_online(in, o, false, seed);
  }
}

TEST_P(AttributionDiff, RegisterIdModeMatchesOracle) {
  const auto [shape, seed] = GetParam();
  const Input in = make_input(shape, seed);
  const Oracle o = run_oracle(in, true, false);
  SCOPED_TRACE(std::string(shape_name(shape)) + " seed " + std::to_string(seed));
  {
    SCOPED_TRACE("TraceIntegrator");
    check_integrator(in, o, true, false);
  }
  {
    SCOPED_TRACE("ColumnarTrace");
    check_columnar(in, o, true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, AttributionDiff,
    ::testing::Combine(::testing::Values(Shape::Disjoint, Shape::Nested,
                                         Shape::Overlap, Shape::Messy),
                       ::testing::Values(1u, 2u, 3u, 7919u)),
    [](const auto& info) {
      return std::string(shape_name(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

class DegradedDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DegradedDiff, IntegratorAndOnlineMatchOracleUnderFaultPlanLoss) {
  const Input in = make_lossy_input(GetParam());
  ASSERT_FALSE(in.losses.empty());
  const Oracle o = run_oracle(in, false, true);
  {
    SCOPED_TRACE("TraceIntegrator");
    check_integrator(in, o, false, true);
  }
  {
    SCOPED_TRACE("OnlineTracer");
    check_online(in, o, true, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeded, DegradedDiff,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7919u));

TEST(DegradedDiff, SimulatedCaptureUnderFaultPlan) {
  // The Fig 8 workload captured with marker and sample loss: the batch
  // and the synthesizing online path give the same windows, synthesized
  // edges included, and the oracle's attribution.
  Input in;
  apps::QueryCacheApp app(in.symtab);
  sim::Machine machine(in.symtab);
  sim::FaultPlanConfig fcfg;
  fcfg.seed = 11;
  fcfg.sample_loss_rate = 0.2;
  fcfg.marker_loss_rate = 0.2;
  sim::FaultPlan plan(fcfg);
  sim::PebsConfig pc;
  pc.reset = 8000;
  machine.cpu(1).enable_pebs(pc);
  plan.attach(machine);
  app.submit(apps::QueryCacheApp::paper_queries());
  app.attach(machine, 0, 1);
  ASSERT_TRUE(machine.run().all_done);
  machine.flush_samples();
  in.data.markers = machine.marker_log().markers();
  in.data.samples = machine.pebs_driver().samples();
  in.losses = machine.pebs_driver().losses();
  ASSERT_GT(plan.markers_dropped(), 0u);
  const Oracle o = run_oracle(in, false, true);
  check_integrator(in, o, false, true);
  check_online(in, o, true, 11);
}

} // namespace
} // namespace fluxtrace::core
