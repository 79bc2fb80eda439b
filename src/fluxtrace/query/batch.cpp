// BatchEvaluator: the vectorized expression kernels (ISSUE 7).
//
// One AST walk per block. Every node produces either a broadcast
// constant (literals and constant subtrees fold for free) or a vector of
// block.rows values in a reusable scratch slot; each operator then runs
// as one tight loop over contiguous int64 — no per-row dispatch, no
// FieldVals gather, nothing the compiler cannot auto-vectorize (the
// wrapping arithmetic and comparisons all lower to plain SIMD; only
// Div/Mod keep their zero-divisor branches). Semantics are exactly
// Expr::eval's: both route through detail::wrap_*/safe_* (expr.hpp), and
// eager &&/|| matches short-circuit because evaluation is total and
// side-effect free. tests/query/batch_eval_test.cpp fuzzes the
// equivalence over random trees x random data, including INT64_MIN/MAX
// wrap, div0, and kNoItem edges.
#include <algorithm>

#include "fluxtrace/query/expr.hpp"

namespace fluxtrace::query {

namespace {

// Dispatches to op-specific loops with the operand shape (vector/vector,
// vector/const, const/vector) resolved outside the loop, so each
// instantiation is a branch-free kernel over contiguous memory.
template <typename F>
void apply_binary(std::size_t n, const std::int64_t* a, std::int64_t ac,
                  const std::int64_t* b, std::int64_t bc, std::int64_t* out,
                  F f) {
  if (a != nullptr && b != nullptr) {
    for (std::size_t i = 0; i < n; ++i) out[i] = f(a[i], b[i]);
  } else if (a != nullptr) {
    for (std::size_t i = 0; i < n; ++i) out[i] = f(a[i], bc);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = f(ac, b[i]);
  }
}

std::int64_t scalar_binary(Expr::Op op, std::int64_t a, std::int64_t b) {
  using Op = Expr::Op;
  switch (op) {
    case Op::Add: return detail::wrap_add(a, b);
    case Op::Sub: return detail::wrap_sub(a, b);
    case Op::Mul: return detail::wrap_mul(a, b);
    case Op::Div: return detail::safe_div(a, b);
    case Op::Mod: return detail::safe_mod(a, b);
    case Op::Eq: return a == b ? 1 : 0;
    case Op::Ne: return a != b ? 1 : 0;
    case Op::Lt: return a < b ? 1 : 0;
    case Op::Le: return a <= b ? 1 : 0;
    case Op::Gt: return a > b ? 1 : 0;
    case Op::Ge: return a >= b ? 1 : 0;
    case Op::And: return (a != 0 && b != 0) ? 1 : 0;
    case Op::Or: return (a != 0 || b != 0) ? 1 : 0;
    case Op::Not:
    case Op::Neg: break;
  }
  return 0;
}

// Upper bound on scratch slots an evaluation can hold live at once: one
// per AST node that computes a vector.
std::size_t count_nodes(const Expr& e) {
  std::size_t n = 1;
  if (e.lhs) n += count_nodes(*e.lhs);
  if (e.rhs) n += count_nodes(*e.rhs);
  return n;
}

} // namespace

BatchEvaluator::BatchEvaluator(const Expr& e) : expr_(&e) {
  scratch_.reserve(count_nodes(e));
}

std::int64_t* BatchEvaluator::slot() {
  if (next_slot_ == scratch_.size()) scratch_.emplace_back();
  std::vector<std::int64_t>& v = scratch_[next_slot_++];
  if (v.size() < n_) v.resize(n_);
  return v.data();
}

BatchEvaluator::Operand BatchEvaluator::eval_node(const Expr& e,
                                                  const ColumnBlock& block) {
  using Kind = Expr::Kind;
  using Op = Expr::Op;
  switch (e.kind) {
    case Kind::Lit:
      return {nullptr, e.lit};
    case Kind::FieldRef:
      return {block.col[static_cast<std::size_t>(e.field)].data(), 0};
    case Kind::FuncMatch: {
      const std::int64_t* f =
          block.col[static_cast<std::size_t>(Field::Func)].data();
      std::int64_t* out = slot();
      const SymbolId* lo = e.func_ids.data();
      const SymbolId* hi = lo + e.func_ids.size();
      const std::int64_t miss = e.negate ? 1 : 0;
      for (std::size_t i = 0; i < n_; ++i) {
        const bool in = f[i] >= 0 && std::binary_search(
                                         lo, hi,
                                         static_cast<SymbolId>(f[i]));
        out[i] = in ? 1 - miss : miss;
      }
      return {out, 0};
    }
    case Kind::Unary: {
      const Operand a = eval_node(*e.lhs, block);
      if (a.data == nullptr) {
        return {nullptr, e.op == Op::Not ? (a.c == 0 ? 1 : 0)
                                         : detail::wrap_neg(a.c)};
      }
      std::int64_t* out = slot();
      const std::int64_t* in = a.data;
      if (e.op == Op::Not) {
        for (std::size_t i = 0; i < n_; ++i) out[i] = in[i] == 0 ? 1 : 0;
      } else {
        for (std::size_t i = 0; i < n_; ++i) out[i] = detail::wrap_neg(in[i]);
      }
      return {out, 0};
    }
    case Kind::Binary: {
      const Operand a = eval_node(*e.lhs, block);
      const Operand b = eval_node(*e.rhs, block);
      if (a.data == nullptr && b.data == nullptr) {
        return {nullptr, scalar_binary(e.op, a.c, b.c)};
      }
      std::int64_t* out = slot();
      switch (e.op) {
        // Each op gets its own lambda (not a shared function pointer) so
        // every kernel instantiates separately and inlines fully.
        case Op::Add:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) {
                         return detail::wrap_add(x, y);
                       });
          break;
        case Op::Sub:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) {
                         return detail::wrap_sub(x, y);
                       });
          break;
        case Op::Mul:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) {
                         return detail::wrap_mul(x, y);
                       });
          break;
        case Op::Div:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) {
                         return detail::safe_div(x, y);
                       });
          break;
        case Op::Mod:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) {
                         return detail::safe_mod(x, y);
                       });
          break;
        case Op::Eq:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) -> std::int64_t {
                         return x == y ? 1 : 0;
                       });
          break;
        case Op::Ne:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) -> std::int64_t {
                         return x != y ? 1 : 0;
                       });
          break;
        case Op::Lt:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) -> std::int64_t {
                         return x < y ? 1 : 0;
                       });
          break;
        case Op::Le:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) -> std::int64_t {
                         return x <= y ? 1 : 0;
                       });
          break;
        case Op::Gt:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) -> std::int64_t {
                         return x > y ? 1 : 0;
                       });
          break;
        case Op::Ge:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) -> std::int64_t {
                         return x >= y ? 1 : 0;
                       });
          break;
        case Op::And:
          // Eager & of the truth values — identical to short-circuit
          // because evaluating the rhs can neither fault nor observe
          // anything (total, pure semantics).
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) -> std::int64_t {
                         return static_cast<std::int64_t>((x != 0) & (y != 0));
                       });
          break;
        case Op::Or:
          apply_binary(n_, a.data, a.c, b.data, b.c, out,
                       [](std::int64_t x, std::int64_t y) -> std::int64_t {
                         return static_cast<std::int64_t>((x != 0) | (y != 0));
                       });
          break;
        case Op::Not:
        case Op::Neg:
          break;
      }
      return {out, 0};
    }
  }
  return {nullptr, 0};
}

void BatchEvaluator::eval(const ColumnBlock& block, std::int64_t* out) {
  n_ = block.rows;
  next_slot_ = 0;
  const Operand r = eval_node(*expr_, block);
  if (r.data == nullptr) {
    std::fill(out, out + n_, r.c);
  } else {
    std::copy(r.data, r.data + n_, out);
  }
}

std::size_t BatchEvaluator::select(const ColumnBlock& block,
                                   std::uint32_t* out_idx) {
  n_ = block.rows;
  next_slot_ = 0;
  std::size_t m = 0;
  const Operand r = eval_node(*expr_, block);
  if (r.data == nullptr) {
    if (r.c == 0) return 0;
    for (std::size_t i = 0; i < n_; ++i) {
      out_idx[i] = static_cast<std::uint32_t>(i);
    }
    return n_;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (r.data[i] != 0) out_idx[m++] = static_cast<std::uint32_t>(i);
  }
  return m;
}

} // namespace fluxtrace::query
