// BatchEvaluator (ISSUE 7): the vectorized kernels must be bit-identical
// to the scalar interpreter — fuzzed over random expression trees and
// random column data salted with every nasty edge the int64 semantics
// define (INT64_MIN/MAX wrap, division by zero, INT64_MIN / -1, the
// kNoItem sentinel -1) — plus zone-map correctness on built stores.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fluxtrace/query/columnar.hpp"
#include "fluxtrace/query/expr.hpp"

namespace fluxtrace::query {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t operator()() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
};

/// Column data salted with edge values at the front, random after.
struct TestBlock {
  std::vector<std::int64_t> data[kNumFields];
  ColumnBlock block;

  explicit TestBlock(std::size_t rows, Lcg& rnd) {
    const std::int64_t edges[] = {0,    1,    -1,   kMin,     kMax,
                                  2,    -2,   100,  kMin + 1, kMax - 1,
                                  7,    -7,   63,   -64,      1000000};
    for (std::size_t f = 0; f < kNumFields; ++f) {
      data[f].resize(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        if (i < std::size(edges)) {
          // Rotate the edge set per column so edge pairs meet each other.
          data[f][i] = edges[(i + f) % std::size(edges)];
        } else {
          switch (rnd() % 4) {
            case 0: data[f][i] = static_cast<std::int64_t>(rnd()); break;
            case 1: data[f][i] = static_cast<std::int64_t>(rnd() % 16) - 8;
                    break;
            case 2: data[f][i] = edges[rnd() % std::size(edges)]; break;
            default: data[f][i] = -1; break; // kNoItem as the store spells it
          }
        }
      }
      // func stays a plausible id so FuncMatch has something to match.
      if (f == static_cast<std::size_t>(Field::Func)) {
        for (std::size_t i = 0; i < rows; ++i) {
          data[f][i] = static_cast<std::int64_t>(rnd() % 6) - 1;
        }
      }
      block.col[f] = std::span<const std::int64_t>(data[f]);
    }
    block.rows = rows;
  }
};

std::unique_ptr<Expr> lit(std::int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::Lit;
  e->lit = v;
  return e;
}

std::unique_ptr<Expr> field_ref(Field f) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::FieldRef;
  e->field = f;
  return e;
}

std::unique_ptr<Expr> func_match(std::vector<SymbolId> ids, bool negate) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::FuncMatch;
  e->func_ids = std::move(ids);
  e->negate = negate;
  return e;
}

/// Random expression tree of bounded depth over every operator.
std::unique_ptr<Expr> gen_expr(Lcg& rnd, int depth) {
  if (depth <= 0 || rnd() % 4 == 0) {
    switch (rnd() % 4) {
      case 0: return lit(static_cast<std::int64_t>(rnd() % 7) - 3);
      case 1: {
        const std::int64_t nasty[] = {0, -1, kMin, kMax, 2};
        return lit(nasty[rnd() % std::size(nasty)]);
      }
      case 2: return field_ref(static_cast<Field>(rnd() % kNumFields));
      default:
        return func_match({SymbolId(0), SymbolId(2), SymbolId(3)},
                          rnd() % 2 == 0);
    }
  }
  if (rnd() % 5 == 0) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::Unary;
    e->op = rnd() % 2 == 0 ? Expr::Op::Not : Expr::Op::Neg;
    e->lhs = gen_expr(rnd, depth - 1);
    return e;
  }
  static constexpr Expr::Op kBinOps[] = {
      Expr::Op::Add, Expr::Op::Sub, Expr::Op::Mul, Expr::Op::Div,
      Expr::Op::Mod, Expr::Op::Eq,  Expr::Op::Ne,  Expr::Op::Lt,
      Expr::Op::Le,  Expr::Op::Gt,  Expr::Op::Ge,  Expr::Op::And,
      Expr::Op::Or};
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::Binary;
  e->op = kBinOps[rnd() % std::size(kBinOps)];
  e->lhs = gen_expr(rnd, depth - 1);
  e->rhs = gen_expr(rnd, depth - 1);
  return e;
}

/// Evaluate `e` over `tb` with the kernels and require bit-identity
/// with the reference interpreter Expr::eval, for eval() and for
/// select().
void expect_equivalent(const Expr& e, const TestBlock& tb) {
  const std::size_t n = tb.block.rows;

  std::vector<std::int64_t> vec_out(n);
  BatchEvaluator vec(e);
  vec.eval(tb.block, vec_out.data());

  std::vector<std::uint32_t> want_sel;
  FieldVals row;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < kNumFields; ++f) {
      row.v[f] = tb.block.col[f][i];
    }
    const std::int64_t want = e.eval(row);
    ASSERT_EQ(vec_out[i], want) << "row " << i << " of " << to_string(e);
    if (want != 0) want_sel.push_back(static_cast<std::uint32_t>(i));
  }

  std::vector<std::uint32_t> vec_sel(n);
  const std::size_t mv = vec.select(tb.block, vec_sel.data());
  vec_sel.resize(mv);
  ASSERT_EQ(vec_sel, want_sel) << to_string(e);
}

TEST(BatchEvalTest, HandPickedEdgeExpressions) {
  SymbolTable symtab;
  symtab.add("f0", 0x100);
  symtab.add("f1", 0x100);
  symtab.add("f2", 0x100);
  const char* exprs[] = {
      "item + ts",
      "ts - dur * core",
      "item * item * item",          // wraps hard on kMin/kMax rows
      "ts / core",                   // division by zero rows
      "ts % core",
      "ts / -1",                     // INT64_MIN / -1 must not trap
      "ts % -1",
      "-item",                       // -INT64_MIN wraps
      "!(item == -1)",
      "item == -1 || func == -1",    // kNoItem / unresolved sentinels
      "ts % 5 != 0 && dur > 0",
      "(item + 1) * (item - 1) == item * item - 1",
      "func == \"f1\"",
      "func != \"f1\"",
      "func == \"f0\" || func == \"f2\"",
      "ip / (ts % 3)",
      "1 / 0 == 0 && 5 % 0 == 0",    // constant folding of the totals
      "(ts > dur) == (item < core)",
  };
  Lcg rnd(42);
  const TestBlock tb(512, rnd);
  for (const char* text : exprs) {
    const auto e = parse_expr(text, &symtab);
    expect_equivalent(*e, tb);
  }
}

TEST(BatchEvalTest, FuzzedTreesMatchScalarInterpreter) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull, 987654321ull}) {
    Lcg rnd(seed);
    const TestBlock tb(256, rnd);
    for (int round = 0; round < 60; ++round) {
      const auto e = gen_expr(rnd, 5);
      expect_equivalent(*e, tb);
    }
  }
}

TEST(BatchEvalTest, OddBlockSizesIncludingEmpty) {
  SymbolTable symtab;
  const auto e = parse_expr("ts % 3 == 0 && item >= 0", &symtab);
  Lcg rnd(5);
  for (const std::size_t rows : {0u, 1u, 2u, 15u, 16u, 17u, 255u}) {
    const TestBlock tb(rows, rnd);
    expect_equivalent(*e, tb);
  }
}

TEST(BatchEvalTest, ConstantRootSelect) {
  SymbolTable symtab;
  Lcg rnd(11);
  const TestBlock tb(64, rnd);
  std::vector<std::uint32_t> sel(64);
  // The evaluator borrows the AST; keep it alive across the calls.
  const auto all = parse_expr("1 + 1", &symtab);
  BatchEvaluator everything(*all);
  EXPECT_EQ(everything.select(tb.block, sel.data()), 64u);
  EXPECT_EQ(sel[63], 63u);
  const auto none = parse_expr("2 - 2", &symtab);
  BatchEvaluator nothing(*none);
  EXPECT_EQ(nothing.select(tb.block, sel.data()), 0u);
}

// --- zone maps ----------------------------------------------------------

TEST(ZoneMapTest, BoundsMatchManualScanAtEveryGranularity) {
  SymbolTable symtab;
  const SymbolId f0 = symtab.add("z::a", 0x200);
  io::TraceData data;
  Lcg rnd(3);
  for (std::size_t i = 0; i < 10; ++i) {
    const Tsc t0 = 1000 * (i + 1);
    data.markers.push_back({t0, i, 0, MarkerKind::Enter});
    for (std::size_t s = 0; s < 20; ++s) {
      PebsSample smp;
      smp.tsc = t0 + 1 + s * 40;
      smp.core = 0;
      smp.ip = symtab.ip_at(f0, 0.5);
      data.samples.push_back(smp);
    }
    data.markers.push_back({t0 + 900, i, 0, MarkerKind::Leave});
  }

  for (const std::size_t zr : {16u, 64u, 65536u}) {
    BuildOptions opts;
    opts.zone_rows = zr;
    const ColumnarTrace t = ColumnarTrace::build(data, symtab, opts);
    ASSERT_EQ(t.zone_rows(), zr);
    ASSERT_EQ(t.zones().size(), (t.rows() + zr - 1) / zr);
    for (std::size_t z = 0; z < t.zones().size(); ++z) {
      const std::size_t begin = z * zr;
      const std::size_t end = std::min(t.rows(), begin + zr);
      for (std::size_t f = 0; f < kNumFields; ++f) {
        const auto col = t.col(static_cast<Field>(f));
        std::int64_t mn = col[begin], mx = col[begin];
        for (std::size_t i = begin + 1; i < end; ++i) {
          mn = std::min(mn, col[i]);
          mx = std::max(mx, col[i]);
        }
        EXPECT_EQ(t.zones()[z].min_of(static_cast<Field>(f)), mn);
        EXPECT_EQ(t.zones()[z].max_of(static_cast<Field>(f)), mx);
      }
    }
  }
}

} // namespace
} // namespace fluxtrace::query
