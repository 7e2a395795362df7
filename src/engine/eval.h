// Expression binding and the value rules every evaluation shares.
//
// BindExpr resolves column references against an operator's ExecSchema, and
// InferType labels output columns. The bytecode VM (engine/bytecode.h) is
// the engine's only evaluator: the executor runs compiled programs over
// batches, and constant folding and INSERT VALUES run them over one lane.
// The eval_detail kernels below are its per-value rules, one copy each:
// SQL comparison, and integer and double arithmetic.

#ifndef SINEW_ENGINE_EVAL_H_
#define SINEW_ENGINE_EVAL_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/datum.h"
#include "engine/expr.h"
#include "engine/udf.h"

namespace sinew::engine {

/// The column layout flowing between executor operators. Every operator
/// declares one; expressions bind against it by (table alias, column name).
struct ExecSchema {
  struct Col {
    std::string table;  // producing table alias ("" for computed columns)
    std::string name;
    ColumnType type = ColumnType::kText;
  };
  std::vector<Col> cols;

  /// Resolves a (possibly unqualified) column reference to a slot.
  /// Ambiguous unqualified references are an error.
  Result<size_t> Resolve(const std::string& table,
                         const std::string& name) const;
};

/// Binds column references in `expr` (in place) against `schema`.
/// `aliases` lists the table aliases in scope, used to peel a leading
/// "alias." segment off dotted, unqualified names the parser could not
/// disambiguate (e.g. t1."user.lang" and plain "user.lang").
Status BindExpr(Expr* expr, const ExecSchema& schema,
                const std::vector<std::string>& aliases);

/// Result type inference for a bound expression (best effort; used to label
/// output columns).
ColumnType InferType(const Expr& expr, const ExecSchema& schema);

namespace eval_detail {

/// SQL comparison kernel: NULL if either side is NULL or the kinds are
/// incomparable, else the boolean verdict of `op` (which must be kEq..kGe).
Datum CompareOp(BinaryOp op, const Datum& lhs, const Datum& rhs);

/// Why one lane of arithmetic has no value.
enum class ArithFault : uint8_t {
  kNone,
  kDivisionByZero,
  kModuloByZero,
  kOutOfRange,
};

/// The Status an arithmetic fault fails its expression with.
Status ArithFaultStatus(ArithFault fault);

/// -a over int64: INT64_MIN has no negation in range.
inline ArithFault IntNeg(int64_t a, int64_t* out) {
  return __builtin_sub_overflow(int64_t{0}, a, out) ? ArithFault::kOutOfRange
                                                    : ArithFault::kNone;
}

/// One lane of int64 arithmetic (op must be kAdd..kMod), the engine's one
/// integer rule: a result outside int64 (an overflowing + - *, or
/// INT64_MIN / -1) is kOutOfRange, never a wrapped value or a trap; a zero
/// divisor is a fault; x % -1 is 0, as in PostgreSQL.
inline ArithFault IntArith(BinaryOp op, int64_t a, int64_t b, int64_t* out) {
  switch (op) {
    case BinaryOp::kAdd:
      return __builtin_add_overflow(a, b, out) ? ArithFault::kOutOfRange
                                               : ArithFault::kNone;
    case BinaryOp::kSub:
      return __builtin_sub_overflow(a, b, out) ? ArithFault::kOutOfRange
                                               : ArithFault::kNone;
    case BinaryOp::kMul:
      return __builtin_mul_overflow(a, b, out) ? ArithFault::kOutOfRange
                                               : ArithFault::kNone;
    case BinaryOp::kDiv:
      if (b == 0) return ArithFault::kDivisionByZero;
      if (b == -1) return IntNeg(a, out);
      *out = a / b;
      return ArithFault::kNone;
    default:  // kMod
      if (b == 0) return ArithFault::kModuloByZero;
      *out = b == -1 ? 0 : a % b;
      return ArithFault::kNone;
  }
}

/// One lane of double arithmetic (op must be kAdd..kMod): IEEE results,
/// infinities and NaN included, except that a zero divisor is a fault, as
/// it is for integers.
inline ArithFault DoubleArith(BinaryOp op, double a, double b, double* out) {
  switch (op) {
    case BinaryOp::kAdd: *out = a + b; return ArithFault::kNone;
    case BinaryOp::kSub: *out = a - b; return ArithFault::kNone;
    case BinaryOp::kMul: *out = a * b; return ArithFault::kNone;
    case BinaryOp::kDiv:
      if (b == 0) return ArithFault::kDivisionByZero;
      *out = a / b;
      return ArithFault::kNone;
    default:  // kMod
      if (b == 0) return ArithFault::kModuloByZero;
      *out = std::fmod(a, b);
      return ArithFault::kNone;
  }
}

/// SUM's integer total, kept exact in 128 bits: whether it fits int64
/// depends on the values alone, not on their order or on how Gather splits
/// them, and Narrow applies IntArith's range rule once, to the total.
struct IntSum {
  __int128 total = 0;

  void Add(int64_t v) { total += v; }
  void Merge(const IntSum& other) { total += other.total; }
  double AsDouble() const { return static_cast<double>(total); }
  ArithFault Narrow(int64_t* out) const {
    if (total < INT64_MIN || total > INT64_MAX) {
      return ArithFault::kOutOfRange;
    }
    *out = static_cast<int64_t>(total);
    return ArithFault::kNone;
  }
};

/// Boxed arithmetic over two Datums (op must be kAdd..kMod): NULL
/// propagates, int op int applies IntArith, any double operand promotes
/// both sides to DoubleArith.
Result<Datum> ArithmeticOp(BinaryOp op, const Datum& lhs, const Datum& rhs);

/// Boxed unary minus: NULL propagates, ints negate by IntNeg.
Result<Datum> NegateOp(const Datum& v);

}  // namespace eval_detail

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_EVAL_H_
