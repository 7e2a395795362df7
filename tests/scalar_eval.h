// The scalar tree walk: evaluates a bound expression over one row by
// recursion over the Expr tree. The engine never runs it: the bytecode VM
// (engine/bytecode.h) is the only evaluator in the library. It lives here as
// the reference the VM is checked against: the differential suites' scalar
// oracle (scalar_oracle.h), the evaluator and VM unit tests, and the
// `scalar` config of bench_micro_eval. Both evaluators share the per-value
// kernels of engine/eval.h (eval_detail), so a comparison or arithmetic rule
// exists once.

#ifndef SINEW_TESTS_SCALAR_EVAL_H_
#define SINEW_TESTS_SCALAR_EVAL_H_

#include "common/result.h"
#include "engine/datum.h"
#include "engine/expr.h"
#include "engine/udf.h"

namespace sinew::engine {

/// Evaluates a bound expression over a row. SQL three-valued logic: NULL
/// operands propagate through comparisons and arithmetic; AND/OR implement
/// Kleene logic and skip the right side once the left decides it;
/// COALESCE, CASE and IN evaluate their arguments lazily, in order.
/// Cross-kind comparisons between non-numeric kinds yield NULL (so a
/// predicate over a multi-typed attribute filters rather than errors —
/// paper Section 3.2.2).
Result<Datum> EvalExpr(const Expr& expr, const DatumRow& row,
                       const UdfRegistry* udfs);

/// Evaluates a bound predicate to a filter decision (NULL => false).
Result<bool> EvalPredicate(const Expr& expr, const DatumRow& row,
                           const UdfRegistry* udfs);

}  // namespace sinew::engine

#endif  // SINEW_TESTS_SCALAR_EVAL_H_
