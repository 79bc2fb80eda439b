// The query expression language (ISSUE 5): a small typed
// predicate/arithmetic language over the columns of a columnar trace —
//
//     item, func, core, ts, dur, ip
//
// with 64-bit signed integer semantics, the usual arithmetic
// (+ - * / %), comparisons (== != < <= > >=, yielding 0/1), and logical
// ops (&& || !). Division and modulo by zero evaluate to 0 (total
// semantics: a query must never fault on data). The one non-numeric form
// is `func == "name"` / `func != "name"`, which the parser resolves
// against the symbol table into an id-set membership test, so evaluation
// stays purely integral.
//
// Everything downstream leans on two properties:
//   * evaluation is deterministic and allocation-free per row, so the
//     parallel scan is bit-identical to the sequential one;
//   * the top-level AND chain can be mined for conservative per-chunk
//     bounds (extract_prune_hints), which is what lets the FLXI sidecar
//     skip chunks without ever changing a query's result.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fluxtrace/base/symbols.hpp"

namespace fluxtrace::query {

/// Columns an expression may reference. The numeric values are stable:
/// they index FieldVals and the availability bitmask.
enum class Field : std::uint8_t { Item, Func, Core, Ts, Dur, Ip };

inline constexpr std::size_t kNumFields = 6;

[[nodiscard]] constexpr std::string_view to_string(Field f) {
  switch (f) {
    case Field::Item: return "item";
    case Field::Func: return "func";
    case Field::Core: return "core";
    case Field::Ts: return "ts";
    case Field::Dur: return "dur";
    case Field::Ip: return "ip";
  }
  return "?";
}

[[nodiscard]] std::optional<Field> field_from_name(std::string_view name);

[[nodiscard]] constexpr unsigned field_bit(Field f) {
  return 1u << static_cast<unsigned>(f);
}

/// All six fields, for contexts (the columnar scan) that can bind
/// everything.
inline constexpr unsigned kAllFields = (1u << kNumFields) - 1;

/// One row's field values, indexed by Field. Producers fill only the
/// fields they have; bind-time availability checks (see Expr::bind_check)
/// guarantee the evaluator never reads an unfilled slot.
struct FieldVals {
  std::int64_t v[kNumFields] = {};

  [[nodiscard]] std::int64_t get(Field f) const {
    return v[static_cast<std::size_t>(f)];
  }
  void set(Field f, std::int64_t x) { v[static_cast<std::size_t>(f)] = x; }
};

/// Thrown on any lexical, syntactic, or binding problem; `pos` is the
/// byte offset into the query text the error was detected at.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t pos)
      : std::runtime_error(what), pos_(pos) {}
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  std::size_t pos_;
};

/// Expression AST node. Built by parse_expr(); immutable afterwards.
struct Expr {
  enum class Kind : std::uint8_t {
    Lit,       ///< integer literal (`lit`)
    FieldRef,  ///< column reference (`field`)
    FuncMatch, ///< func ∈ ids (negate: ∉) — the compiled `func == "name"`
    Unary,     ///< op applied to lhs
    Binary,    ///< op applied to lhs, rhs
  };
  enum class Op : std::uint8_t {
    // binary
    Add, Sub, Mul, Div, Mod,
    Eq, Ne, Lt, Le, Gt, Ge,
    And, Or,
    // unary
    Not, Neg,
  };

  Kind kind = Kind::Lit;
  Op op = Op::Add;
  std::int64_t lit = 0;
  Field field = Field::Item;
  std::vector<SymbolId> func_ids; ///< FuncMatch: matching ids, sorted
  std::string func_name;          ///< FuncMatch: original spelling
  bool negate = false;            ///< FuncMatch: true for !=
  std::unique_ptr<Expr> lhs, rhs;

  /// Evaluate over one row. Comparisons/logicals yield 0/1; x/0 == x%0
  /// == 0.
  [[nodiscard]] std::int64_t eval(const FieldVals& row) const;
  [[nodiscard]] bool test(const FieldVals& row) const { return eval(row) != 0; }

  /// Bitmask (field_bit) of every field referenced anywhere in the tree.
  [[nodiscard]] unsigned fields_used() const;

  /// Throw ParseError when the expression references a field outside
  /// `available` (bitmask). `context` names the caller in the message
  /// ("report filter").
  void bind_check(unsigned available, std::string_view context) const;

  /// Structural equality (ids and literals; names too, so a FuncMatch
  /// round-trips spelling-exactly).
  [[nodiscard]] bool equals(const Expr& other) const;

  [[nodiscard]] std::unique_ptr<Expr> clone() const;
};

/// Parse one predicate/expression. `symtab` resolves `func == "name"`
/// string comparisons; pass nullptr to reject them (contexts with no
/// symbol table). Throws ParseError.
[[nodiscard]] std::unique_ptr<Expr> parse_expr(std::string_view text,
                                               const SymbolTable* symtab);

/// Canonical printable form (fully parenthesized compounds). Guaranteed
/// to re-parse to a structurally identical tree.
[[nodiscard]] std::string to_string(const Expr& e);

// --- chunk pruning support ---------------------------------------------

/// A closed interval over int64; the default is the full range.
struct Interval {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();

  [[nodiscard]] bool full() const {
    return lo == std::numeric_limits<std::int64_t>::min() &&
           hi == std::numeric_limits<std::int64_t>::max();
  }
  [[nodiscard]] bool empty() const { return lo > hi; }
  [[nodiscard]] bool intersects(std::int64_t a, std::int64_t b) const {
    return !(b < lo || a > hi);
  }
};

/// Conservative per-chunk rejection bounds mined from an expression's
/// top-level AND chain. A chunk may be skipped only when these hints
/// prove no row in it can satisfy the predicate; everything the miner
/// does not understand simply widens the hints (never narrows), so
/// pruning is always sound.
struct PruneHints {
  Interval ts;   ///< rows must have ts within this interval
  Interval item; ///< rows must have item within this interval
  /// When set: rows must have func among these ids (sorted). An empty
  /// vector means the predicate cannot match any func at all.
  std::optional<std::vector<SymbolId>> funcs;

  [[nodiscard]] bool selective() const {
    return !ts.full() || !item.full() || funcs.has_value();
  }
};

[[nodiscard]] PruneHints extract_prune_hints(const Expr& e);

// --- batch (columnar) evaluation ---------------------------------------

namespace detail {

// The language's total int64 semantics, shared verbatim by the scalar
// interpreter (Expr::eval) and the batch kernels (BatchEvaluator) — both
// MUST route through these so vectorized and scalar evaluation are
// bit-identical by construction. Arithmetic wraps (two's complement via
// uint64), division/modulo by zero is 0, and INT64_MIN / -1 is defined
// (not UB): a for division, 0 for modulo.

[[nodiscard]] inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] inline std::int64_t wrap_neg(std::int64_t a) {
  return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
}

[[nodiscard]] inline std::int64_t safe_div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return a;
  return a / b;
}

[[nodiscard]] inline std::int64_t safe_mod(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  if (a == std::numeric_limits<std::int64_t>::min() && b == -1) return 0;
  return a % b;
}

} // namespace detail

/// One fixed-size slice of the columnar store: a span per column, all of
/// length `rows`. The batch evaluator reads only the columns the
/// expression references; producers fill every slot anyway —
/// ColumnarTrace::block() does.
struct ColumnBlock {
  std::array<std::span<const std::int64_t>, kNumFields> col{};
  std::size_t rows = 0;

  [[nodiscard]] std::span<const std::int64_t> operator[](Field f) const {
    return col[static_cast<std::size_t>(f)];
  }
};

/// Evaluates one expression over whole column blocks at a time.
///
/// The vector path walks the AST once per block, computing every node
/// over all rows into reusable scratch vectors — tight branch-free loops
/// over contiguous int64 the compiler auto-vectorizes. `&&`/`||` are
/// evaluated eagerly ((a != 0) & (b != 0)); because the language's
/// semantics are total (nothing faults, nothing has side effects) this
/// is bit-identical to the scalar interpreter's short-circuit, which
/// stays the reference: Expr::eval is what the fuzz tests compare every
/// kernel against.
///
/// Not thread-safe: the scratch is per-evaluator, so give each scan
/// worker its own instance (construction is one small AST walk).
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const Expr& e);

  /// Evaluate the expression for every row; writes block.rows values.
  void eval(const ColumnBlock& block, std::int64_t* out);

  /// Selection: indices (ascending) of rows where the expression is
  /// non-zero. `out_idx` needs room for block.rows entries; returns the
  /// match count.
  [[nodiscard]] std::size_t select(const ColumnBlock& block,
                                   std::uint32_t* out_idx);

 private:
  /// A node's value over the current block: either a computed vector
  /// (data, one value per row) or a broadcast constant (data == nullptr).
  /// Constant-folding literals here keeps `ts % 5 != 0` at two vector
  /// kernels instead of four.
  struct Operand {
    const std::int64_t* data = nullptr;
    std::int64_t c = 0;
  };

  Operand eval_node(const Expr& e, const ColumnBlock& block);
  std::int64_t* slot();

  const Expr* expr_;
  std::size_t n_ = 0;         // rows in the block being evaluated
  std::size_t next_slot_ = 0; // scratch cursor, reset per eval
  std::vector<std::vector<std::int64_t>> scratch_;
};

} // namespace fluxtrace::query
