// Expression binding and evaluation.

#ifndef SINEW_ENGINE_EVAL_H_
#define SINEW_ENGINE_EVAL_H_

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

/// Evaluates a bound expression over a row. SQL three-valued logic: NULL
/// operands propagate through comparisons and arithmetic; AND/OR implement
/// Kleene logic. Cross-kind comparisons between non-numeric kinds yield NULL
/// (so a predicate over a multi-typed attribute filters rather than errors —
/// paper Section 3.2.2). This scalar evaluator is the semantic reference:
/// the bytecode VM (engine/bytecode.h), the only batch evaluator, calls it
/// for every shape it has no kernel for and must agree with it lane for
/// lane.
Result<Datum> EvalExpr(const Expr& expr, const DatumRow& row,
                       const UdfRegistry* udfs);

/// Evaluates a bound predicate to a filter decision (NULL => false).
Result<bool> EvalPredicate(const Expr& expr, const DatumRow& row,
                           const UdfRegistry* udfs);

/// Result type inference for a bound expression (best effort; used to label
/// output columns).
ColumnType InferType(const Expr& expr, const ExecSchema& schema);

namespace eval_detail {

/// SQL comparison kernel shared with the bytecode VM: NULL if either side is
/// NULL or the kinds are incomparable, else the boolean verdict of `op`
/// (which must be kEq..kGe).
Datum CompareOp(BinaryOp op, const Datum& lhs, const Datum& rhs);

/// Arithmetic kernel shared with the bytecode VM (op must be kAdd..kMod):
/// NULL propagates, int op int stays int (division/modulo by zero error),
/// any double operand promotes to double.
Result<Datum> ArithmeticOp(BinaryOp op, const Datum& lhs, const Datum& rhs);

}  // namespace eval_detail

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_EVAL_H_
