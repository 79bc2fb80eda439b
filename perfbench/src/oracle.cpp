// The reference answers every operation is checked against. The
// attribution here is the paper's §III-D procedure written out plainly —
// a sample belongs to the marker window on its core that covers its
// timestamp, its function is the symbol range holding its ip, and an
// {item, func} bucket's elapsed time is its first-to-last span per core,
// summed over cores (buckets with fewer than two samples on a core count
// nothing for that core). It shares no code with the program.
#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {

using query::Cell;

struct Row {
  std::int64_t item = -1;
  std::int64_t func = -1;
  std::int64_t core = 0;
  std::int64_t dur = 0;
};

struct Window {
  Tsc enter = 0;
  Tsc leave = 0;
  ItemId item = kNoItem;
};

std::int64_t resolve(const SymbolTable& symtab, std::uint64_t ip) {
  std::size_t lo = 0, hi = symtab.size();
  while (lo < hi) { // first symbol whose range ends above ip
    const std::size_t mid = (lo + hi) / 2;
    if (symtab[static_cast<SymbolId>(mid)].hi <= ip) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < symtab.size() && symtab[static_cast<SymbolId>(lo)].lo <= ip) {
    return static_cast<std::int64_t>(lo);
  }
  return -1;
}

std::vector<Row> attribute(const io::TraceData& d, const SymbolTable& symtab,
                           std::set<ItemId>& items) {
  std::map<std::uint32_t, std::vector<Window>> wins;
  std::map<std::pair<std::uint32_t, ItemId>, Tsc> open;
  for (const Marker& m : d.markers) {
    if (m.kind == MarkerKind::Enter) {
      open[{m.core, m.item}] = m.tsc;
    } else if (const auto it = open.find({m.core, m.item}); it != open.end()) {
      wins[m.core].push_back(Window{it->second, m.tsc, m.item});
      open.erase(it);
    }
  }
  for (auto& [core, ws] : wins) {
    std::sort(ws.begin(), ws.end(),
              [](const Window& a, const Window& b) { return a.enter < b.enter; });
    for (std::size_t i = 0; i < ws.size(); ++i) {
      items.insert(ws[i].item);
      if (i > 0 && ws[i].enter <= ws[i - 1].leave) {
        throw std::logic_error("oracle: overlapping windows on one core");
      }
    }
  }

  struct CoreSpan {
    Tsc first = 0, last = 0;
    std::uint64_t n = 0;
  };
  std::unordered_map<std::uint64_t, std::map<std::uint32_t, CoreSpan>> buckets;
  const auto key = [](std::int64_t item, std::int64_t func) {
    return (static_cast<std::uint64_t>(item) << 20) ^
           static_cast<std::uint64_t>(func);
  };

  std::vector<Row> rows(d.samples.size());
  for (std::size_t i = 0; i < d.samples.size(); ++i) {
    const PebsSample& s = d.samples[i];
    Row& r = rows[i];
    r.core = s.core;
    r.func = resolve(symtab, s.ip);
    const auto wit = wins.find(s.core);
    if (wit != wins.end()) {
      const std::vector<Window>& ws = wit->second;
      auto it = std::upper_bound(
          ws.begin(), ws.end(), s.tsc,
          [](Tsc t, const Window& w) { return t < w.enter; });
      if (it != ws.begin() && s.tsc <= std::prev(it)->leave) {
        r.item = static_cast<std::int64_t>(std::prev(it)->item);
      }
    }
    if (r.item != -1 && r.func >= 0) {
      CoreSpan& sp = buckets[key(r.item, r.func)][s.core];
      if (sp.n == 0 || s.tsc < sp.first) sp.first = s.tsc;
      if (sp.n == 0 || s.tsc > sp.last) sp.last = s.tsc;
      ++sp.n;
    }
  }
  for (Row& r : rows) {
    if (r.item == -1 || r.func < 0) continue;
    Tsc total = 0;
    for (const auto& [core, sp] : buckets[key(r.item, r.func)]) {
      if (sp.n >= 2) total += sp.last - sp.first;
    }
    r.dur = static_cast<std::int64_t>(total);
  }
  return rows;
}

std::int64_t nearest_rank(std::vector<std::int64_t> v, unsigned p) {
  std::sort(v.begin(), v.end());
  std::size_t rank = (p * v.size() + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

struct Agg {
  std::uint64_t count = 0;
  std::uint64_t sum = 0; // wraps like query arithmetic
  std::vector<std::int64_t> durs;
};

Cell func_cell(const SymbolTable& symtab, std::int64_t id) {
  if (id >= 0 && static_cast<std::size_t>(id) < symtab.size()) {
    return Cell::of_text(std::string(symtab.name(static_cast<SymbolId>(id))));
  }
  return Cell::of_int(id);
}

/// group func: count, sum(dur), p99(dur) over the rows `keep` accepts.
template <class Keep>
Rows func_summary(const std::vector<Row>& rows, const SymbolTable& symtab,
                  Keep keep) {
  std::map<std::int64_t, Agg> g;
  for (const Row& r : rows) {
    if (!keep(r)) continue;
    Agg& a = g[r.func];
    ++a.count;
    a.sum += static_cast<std::uint64_t>(r.dur);
    a.durs.push_back(r.dur);
  }
  Rows out;
  for (auto& [func, a] : g) {
    out.push_back({func_cell(symtab, func),
                   Cell::of_int(static_cast<std::int64_t>(a.count)),
                   Cell::of_int(static_cast<std::int64_t>(a.sum)),
                   Cell::of_int(nearest_rank(std::move(a.durs), 99))});
  }
  return out;
}

} // namespace

std::string core_filter_query(const Workload& w) {
  return "filter func == \"" + std::string(w.symtab.name(w.injected_fn)) +
         "\" | group core: count, sum(dur)";
}

std::string item_query(ItemId item) {
  return "filter item == " + std::to_string(static_cast<std::int64_t>(item)) +
         " | group func: count, sum(dur)";
}

Expect compute_expect(const Workload& w) {
  Expect ex;
  std::vector<Row> rows;
  for (const Member& m : w.members) {
    std::set<ItemId> items;
    std::vector<Row> part = attribute(m.data, w.symtab, items);
    ex.member_items.push_back(items.size());
    std::set<ItemId>& inj = ex.member_injected.emplace_back();
    for (const ItemId x : items) {
      if (w.injected.count(x) != 0) inj.insert(x);
    }
    rows.insert(rows.end(), part.begin(), part.end());
  }

  ex.func_summary = func_summary(rows, w.symtab, [](const Row&) { return true; });
  ex.stream_summary =
      func_summary(rows, w.symtab, [](const Row& r) { return r.item != -1; });
  for (const Row& r : rows) ex.unattributed += r.item == -1 ? 1 : 0;

  // group item: count, p95(dur) | top 20 by p95_dur (stable, descending)
  std::map<std::int64_t, Agg> by_item;
  for (const Row& r : rows) {
    Agg& a = by_item[r.item];
    ++a.count;
    a.durs.push_back(r.dur);
  }
  for (auto& [item, a] : by_item) {
    ex.top_items.push_back({Cell::of_int(item),
                            Cell::of_int(static_cast<std::int64_t>(a.count)),
                            Cell::of_int(nearest_rank(std::move(a.durs), 95))});
  }
  std::stable_sort(ex.top_items.begin(), ex.top_items.end(),
                   [](const std::vector<Cell>& a, const std::vector<Cell>& b) {
                     return b[2].i < a[2].i;
                   });
  if (ex.top_items.size() > 20) ex.top_items.resize(20);

  // filter func == <injected fn> | group core: count, sum(dur)
  std::map<std::int64_t, Agg> by_core;
  for (const Row& r : rows) {
    if (r.func != static_cast<std::int64_t>(w.injected_fn)) continue;
    Agg& a = by_core[r.core];
    ++a.count;
    a.sum += static_cast<std::uint64_t>(r.dur);
  }
  for (const auto& [core, a] : by_core) {
    ex.core_filter.push_back({Cell::of_int(core),
                              Cell::of_int(static_cast<std::int64_t>(a.count)),
                              Cell::of_int(static_cast<std::int64_t>(a.sum))});
  }

  // filter item == X | group func: count, sum(dur)
  for (const ItemId x : w.probe_items) {
    std::map<std::int64_t, Agg> g;
    for (const Row& r : rows) {
      if (r.item != static_cast<std::int64_t>(x)) continue;
      Agg& a = g[r.func];
      ++a.count;
      a.sum += static_cast<std::uint64_t>(r.dur);
    }
    Rows& out = ex.item_answers[x];
    for (const auto& [func, a] : g) {
      out.push_back({func_cell(w.symtab, func),
                     Cell::of_int(static_cast<std::int64_t>(a.count)),
                     Cell::of_int(static_cast<std::int64_t>(a.sum))});
    }
  }
  return ex;
}

bool same_rows(const query::QueryResult& res, const Rows& want) {
  return res.rows == want;
}

bool names_injected(const std::vector<ItemId>& ranked,
                    const std::set<ItemId>& injected) {
  const std::size_t need = std::min<std::size_t>(injected.size(), 10);
  if (ranked.size() < need) return false;
  for (std::size_t k = 0; k < need; ++k) {
    if (injected.count(ranked[k]) == 0) return false;
  }
  return true;
}

} // namespace perfbench
