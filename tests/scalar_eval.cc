#include "scalar_eval.h"

#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "engine/eval.h"

namespace sinew::engine {

namespace {

/// Evaluates `expr` to a datum reference without copying when the
/// expression is a bound column ref or a literal; otherwise evaluates into
/// `*storage` and returns a pointer to it. This keeps the per-row hot path
/// (scan filters) free of string copies.
Result<const Datum*> EvalRef(const Expr& expr, const DatumRow& row,
                             const UdfRegistry* udfs, Datum* storage) {
  if (expr.kind == ExprKind::kLiteral) return &expr.literal;
  if (expr.kind == ExprKind::kColumnRef && expr.bound_slot >= 0 &&
      static_cast<size_t>(expr.bound_slot) < row.size()) {
    return &row[expr.bound_slot];
  }
  ASSIGN_OR_RETURN(*storage, EvalExpr(expr, row, udfs));
  return storage;
}

Result<Datum> EvalBinary(const Expr& expr, const DatumRow& row,
                         const UdfRegistry* udfs);

/// A kVirtual reference over one row: the first non-NULL source, read as
/// is or through the registered batch extractor over that one document.
Result<Datum> EvalVirtual(const Expr& expr, const DatumRow& row,
                          const UdfRegistry* udfs) {
  for (size_t i = 0; i < expr.args.size(); ++i) {
    Datum storage;
    ASSIGN_OR_RETURN(const Datum* source,
                     EvalRef(*expr.args[i], row, udfs, &storage));
    if (source->is_null()) continue;
    const std::vector<ExtractTarget>& targets = (*expr.virtual_sources)[i];
    if (targets.empty()) return *source;
    if (!source->is_bytes()) {
      return Status::TypeError("virtual column source must be serialized data");
    }
    const BatchExtractFn* fn =
        udfs == nullptr ? nullptr : udfs->batch_extract();
    if (fn == nullptr) {
      return Status::NotFound("no batch extractor for virtual column ",
                              expr.column);
    }
    std::vector<ExtractedValue> found;
    BatchExtractStats stats;
    RETURN_NOT_OK((*fn)({source->str()}, targets, &found, &stats));
    // A document holds at most one value per variant; the lowest type tag
    // wins, as it does in the scan.
    ExtractedValue* best = nullptr;
    for (ExtractedValue& v : found) {
      if (best == nullptr ||
          targets[v.target].type_tag < targets[best->target].type_tag) {
        best = &v;
      }
    }
    return best == nullptr ? Datum::Null() : std::move(best->value);
  }
  return Datum::Null();
}

Result<Datum> EvalCompareOp(BinaryOp op, const Datum& lhs, const Datum& rhs) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return eval_detail::CompareOp(op, lhs, rhs);
    default:
      return Status::Internal("not a comparison op");
  }
}

}  // namespace

Result<Datum> EvalExpr(const Expr& expr, const DatumRow& row,
                       const UdfRegistry* udfs) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (expr.bound_slot < 0 ||
          static_cast<size_t>(expr.bound_slot) >= row.size()) {
        return Status::Internal("unbound column reference ", expr.column);
      }
      return row[expr.bound_slot];
    }
    case ExprKind::kStar:
      return Status::Internal("star expression reached the evaluator");
    case ExprKind::kUnary: {
      ASSIGN_OR_RETURN(Datum v, EvalExpr(*expr.args[0], row, udfs));
      if (expr.uop == UnaryOp::kNot) {
        if (v.is_null()) return Datum::Null();
        if (!v.is_bool()) return Status::TypeError("NOT on non-boolean");
        return Datum::Bool(!v.bool_value());
      }
      return eval_detail::NegateOp(v);
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, row, udfs);
    case ExprKind::kBetween: {
      Datum ts, ls, hs;
      ASSIGN_OR_RETURN(const Datum* target,
                       EvalRef(*expr.args[0], row, udfs, &ts));
      ASSIGN_OR_RETURN(const Datum* lo, EvalRef(*expr.args[1], row, udfs, &ls));
      ASSIGN_OR_RETURN(const Datum* hi, EvalRef(*expr.args[2], row, udfs, &hs));
      ASSIGN_OR_RETURN(Datum ge, EvalCompareOp(BinaryOp::kGe, *target, *lo));
      ASSIGN_OR_RETURN(Datum le, EvalCompareOp(BinaryOp::kLe, *target, *hi));
      if (ge.is_null() || le.is_null()) return Datum::Null();
      bool in_range = ge.bool_value() && le.bool_value();
      return Datum::Bool(expr.negated ? !in_range : in_range);
    }
    case ExprKind::kInList: {
      Datum ts;
      ASSIGN_OR_RETURN(const Datum* target,
                       EvalRef(*expr.args[0], row, udfs, &ts));
      if (target->is_null()) return Datum::Null();
      bool saw_null = false;
      for (size_t i = 1; i < expr.args.size(); ++i) {
        Datum is;
        ASSIGN_OR_RETURN(const Datum* item,
                         EvalRef(*expr.args[i], row, udfs, &is));
        ASSIGN_OR_RETURN(Datum eq, EvalCompareOp(BinaryOp::kEq, *target, *item));
        if (eq.is_null()) {
          saw_null = true;
        } else if (eq.bool_value()) {
          return Datum::Bool(!expr.negated);
        }
      }
      if (saw_null) return Datum::Null();
      return Datum::Bool(expr.negated);
    }
    case ExprKind::kIsNull: {
      Datum vs;
      ASSIGN_OR_RETURN(const Datum* v, EvalRef(*expr.args[0], row, udfs, &vs));
      return Datum::Bool(expr.negated ? !v->is_null() : v->is_null());
    }
    case ExprKind::kFunction: {
      if (expr.fname == "coalesce") {
        for (const ExprPtr& arg : expr.args) {
          ASSIGN_OR_RETURN(Datum v, EvalExpr(*arg, row, udfs));
          if (!v.is_null()) return v;
        }
        return Datum::Null();
      }
      if (expr.IsAggregateCall()) {
        return Status::Internal("aggregate ", expr.fname,
                                " reached the scalar evaluator");
      }
      if (udfs == nullptr) {
        return Status::NotFound("no UDF registry for function ", expr.fname);
      }
      const UdfFn* fn = udfs->Find(expr.fname);
      if (fn == nullptr) {
        return Status::NotFound("unknown function ", expr.fname);
      }
      // Arguments pass by pointer: column values (e.g. the reservoir blob)
      // reach the UDF without a per-row copy. `storage` is pre-sized so the
      // pointers stay stable.
      UdfArgs args;
      args.reserve(expr.args.size());
      std::vector<Datum> storage(expr.args.size());
      for (size_t i = 0; i < expr.args.size(); ++i) {
        ASSIGN_OR_RETURN(const Datum* v,
                         EvalRef(*expr.args[i], row, udfs, &storage[i]));
        args.push_back(v);
      }
      return (*fn)(args);
    }
    case ExprKind::kCase: {
      size_t i = 0;
      for (; i + 1 < expr.args.size(); i += 2) {
        ASSIGN_OR_RETURN(Datum cond, EvalExpr(*expr.args[i], row, udfs));
        if (!cond.is_null() && cond.is_bool() && cond.bool_value()) {
          return EvalExpr(*expr.args[i + 1], row, udfs);
        }
      }
      if (i < expr.args.size()) return EvalExpr(*expr.args[i], row, udfs);
      return Datum::Null();
    }
    case ExprKind::kVirtual:
      return EvalVirtual(expr, row, udfs);
  }
  return Status::Internal("unreachable expression kind");
}

namespace {

Result<Datum> EvalBinary(const Expr& expr, const DatumRow& row,
                         const UdfRegistry* udfs) {
  // Kleene AND/OR need special null handling and benefit from
  // short-circuiting.
  if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
    ASSIGN_OR_RETURN(Datum lhs, EvalExpr(*expr.args[0], row, udfs));
    bool is_and = expr.bop == BinaryOp::kAnd;
    if (!lhs.is_null() && lhs.is_bool() && lhs.bool_value() != is_and) {
      return Datum::Bool(!is_and);  // false AND _, true OR _
    }
    ASSIGN_OR_RETURN(Datum rhs, EvalExpr(*expr.args[1], row, udfs));
    if (!rhs.is_null() && rhs.is_bool() && rhs.bool_value() != is_and) {
      return Datum::Bool(!is_and);
    }
    if (lhs.is_null() || rhs.is_null()) return Datum::Null();
    if (!lhs.is_bool() || !rhs.is_bool()) {
      return Status::TypeError("AND/OR on non-boolean");
    }
    return Datum::Bool(is_and);
  }
  Datum ls, rs;
  ASSIGN_OR_RETURN(const Datum* lhs, EvalRef(*expr.args[0], row, udfs, &ls));
  ASSIGN_OR_RETURN(const Datum* rhs, EvalRef(*expr.args[1], row, udfs, &rs));
  switch (expr.bop) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return EvalCompareOp(expr.bop, *lhs, *rhs);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return eval_detail::ArithmeticOp(expr.bop, *lhs, *rhs);
    case BinaryOp::kLike: {
      if (lhs->is_null() || rhs->is_null()) return Datum::Null();
      if (!lhs->is_text() || !rhs->is_text()) {
        return Status::TypeError("LIKE on non-text values");
      }
      return Datum::Bool(LikeMatch(lhs->str(), rhs->str()));
    }
    case BinaryOp::kConcat: {
      if (lhs->is_null() || rhs->is_null()) return Datum::Null();
      return Datum::Text(lhs->ToString() + rhs->ToString());
    }
    default:
      return Status::Internal("unhandled binary op");
  }
}

}  // namespace

Result<bool> EvalPredicate(const Expr& expr, const DatumRow& row,
                           const UdfRegistry* udfs) {
  ASSIGN_OR_RETURN(Datum v, EvalExpr(expr, row, udfs));
  if (v.is_null()) return false;
  if (!v.is_bool()) {
    return Status::TypeError("predicate did not evaluate to a boolean");
  }
  return v.bool_value();
}

}  // namespace sinew::engine
