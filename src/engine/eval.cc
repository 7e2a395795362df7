#include "engine/eval.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/str_util.h"
#include "engine/type.h"

namespace sinew::engine {

Result<size_t> ExecSchema::Resolve(const std::string& table,
                                   const std::string& name) const {
  std::optional<size_t> found;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name != name) continue;
    if (!table.empty() && cols[i].table != table) continue;
    if (found.has_value()) {
      return Status::InvalidArgument("ambiguous column reference ", name);
    }
    found = i;
  }
  if (!found.has_value()) {
    return Status::NotFound("column ", table.empty() ? "" : table + ".", name,
                            " does not exist");
  }
  return *found;
}

Status BindExpr(Expr* expr, const ExecSchema& schema,
                const std::vector<std::string>& aliases) {
  if (expr->kind == ExprKind::kColumnRef) {
    // A ref whose slot already names this column keeps it: after the first
    // binding a reference is qualified as its column is, and a (table,
    // column) pair names one column of an operator's input.
    if (expr->bound_slot >= 0 &&
        static_cast<size_t>(expr->bound_slot) < schema.cols.size()) {
      const ExecSchema::Col& col = schema.cols[expr->bound_slot];
      if (col.name == expr->column && col.table == expr->table) {
        return Status::OK();
      }
    }
    std::string table = expr->table;
    std::string column = expr->column;
    if (table.empty()) {
      // Peel "alias." off the front of a dotted chain if the first segment
      // names a table alias in scope.
      size_t dot = column.find('.');
      if (dot != std::string::npos) {
        std::string head = column.substr(0, dot);
        if (std::find(aliases.begin(), aliases.end(), head) != aliases.end()) {
          table = head;
          column = column.substr(dot + 1);
        }
      }
    }
    ASSIGN_OR_RETURN(size_t slot, schema.Resolve(table, column));
    // Normalize the reference to the resolved column's canonical
    // qualification so later passes (classification, re-binding against a
    // different operator's schema) are unambiguous.
    expr->table = schema.cols[slot].table;
    expr->column = schema.cols[slot].name;
    expr->bound_slot = static_cast<int>(slot);
    return Status::OK();
  }
  for (ExprPtr& arg : expr->args) {
    RETURN_NOT_OK(BindExpr(arg.get(), schema, aliases));
  }
  return Status::OK();
}

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

Result<Datum> EvalArithmetic(BinaryOp op, const Datum& lhs, const Datum& rhs) {
  return eval_detail::ArithmeticOp(op, lhs, rhs);
}

}  // namespace

namespace eval_detail {

Datum CompareOp(BinaryOp op, const Datum& lhs, const Datum& rhs) {
  // SQL comparison: NULL if either side is NULL or the kinds are not
  // comparable; otherwise the verdict.
  if (lhs.is_null() || rhs.is_null()) return Datum::Null();
  bool comparable =
      (lhs.is_numeric() && rhs.is_numeric()) || lhs.kind() == rhs.kind();
  if (!comparable) return Datum::Null();
  int cmp = Datum::Compare(lhs, rhs);
  switch (op) {
    case BinaryOp::kEq:
      return Datum::Bool(cmp == 0);
    case BinaryOp::kNe:
      return Datum::Bool(cmp != 0);
    case BinaryOp::kLt:
      return Datum::Bool(cmp < 0);
    case BinaryOp::kLe:
      return Datum::Bool(cmp <= 0);
    case BinaryOp::kGt:
      return Datum::Bool(cmp > 0);
    default:  // kGe; callers guarantee a comparison op
      return Datum::Bool(cmp >= 0);
  }
}

Result<Datum> ArithmeticOp(BinaryOp op, const Datum& lhs, const Datum& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Datum::Null();
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::TypeError("arithmetic on non-numeric values");
  }
  bool as_int = lhs.is_int() && rhs.is_int();
  if (as_int) {
    int64_t a = lhs.int_value(), b = rhs.int_value();
    switch (op) {
      case BinaryOp::kAdd:
        return Datum::Int(a + b);
      case BinaryOp::kSub:
        return Datum::Int(a - b);
      case BinaryOp::kMul:
        return Datum::Int(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Datum::Int(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Datum::Int(a % b);
      default:
        break;
    }
  } else {
    double a = lhs.AsDouble(), b = rhs.AsDouble();
    switch (op) {
      case BinaryOp::kAdd:
        return Datum::Double(a + b);
      case BinaryOp::kSub:
        return Datum::Double(a - b);
      case BinaryOp::kMul:
        return Datum::Double(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Datum::Double(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        return Datum::Double(std::fmod(a, b));
      default:
        break;
    }
  }
  return Status::Internal("not an arithmetic op");
}

}  // namespace eval_detail

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
      if (v.is_null()) return Datum::Null();
      if (v.is_int()) return Datum::Int(-v.int_value());
      if (v.is_double()) return Datum::Double(-v.double_value());
      return Status::TypeError("unary minus on non-numeric");
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
      return EvalArithmetic(expr.bop, *lhs, *rhs);
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

ColumnType InferType(const Expr& expr, const ExecSchema& schema) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal.TypeOrDefault(ColumnType::kText);
    case ExprKind::kColumnRef:
      if (expr.bound_slot >= 0 &&
          static_cast<size_t>(expr.bound_slot) < schema.cols.size()) {
        return schema.cols[expr.bound_slot].type;
      }
      return ColumnType::kText;
    case ExprKind::kUnary:
      return expr.uop == UnaryOp::kNot ? ColumnType::kBool
                                       : InferType(*expr.args[0], schema);
    case ExprKind::kBinary:
      switch (expr.bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
          ColumnType a = InferType(*expr.args[0], schema);
          ColumnType b = InferType(*expr.args[1], schema);
          return (a == ColumnType::kDouble || b == ColumnType::kDouble)
                     ? ColumnType::kDouble
                     : ColumnType::kInt;
        }
        case BinaryOp::kConcat:
          return ColumnType::kText;
        default:
          return ColumnType::kBool;
      }
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      return ColumnType::kBool;
    case ExprKind::kFunction: {
      if (expr.fname == "count") return ColumnType::kInt;
      if (expr.fname == "sum" || expr.fname == "min" || expr.fname == "max") {
        return expr.args.empty() ? ColumnType::kDouble
                                 : InferType(*expr.args[0], schema);
      }
      if (expr.fname == "avg") return ColumnType::kDouble;
      if (expr.fname == "coalesce") {
        // Arguments of different types make the value's type row-dependent.
        std::optional<ColumnType> type;
        for (const ExprPtr& arg : expr.args) {
          if (arg->kind == ExprKind::kLiteral && arg->literal.is_null()) {
            continue;
          }
          const ColumnType t = InferType(*arg, schema);
          if (type.has_value() && *type != t) return ColumnType::kText;
          type = t;
        }
        return type.value_or(ColumnType::kText);
      }
      return ColumnType::kText;
    }
    case ExprKind::kCase:
      return expr.args.size() >= 2 ? InferType(*expr.args[1], schema)
                                   : ColumnType::kText;
    case ExprKind::kVirtual: {
      // The variants' type when they agree (an object or array read as
      // JSON text), else row-dependent: text, as for a mixed COALESCE.
      std::optional<ColumnType> type;
      for (const std::vector<ExtractTarget>& targets :
           *expr.virtual_sources) {
        for (const ExtractTarget& t : targets) {
          ColumnType c =
              ColumnTypeForValueType(static_cast<ValueType>(t.type_tag));
          if (t.raw_bytes) {
            c = ColumnType::kBytes;
          } else if (c == ColumnType::kBytes) {
            c = ColumnType::kText;
          }
          if (type.has_value() && *type != c) return ColumnType::kText;
          type = c;
        }
      }
      return type.value_or(ColumnType::kText);
    }
    default:
      return ColumnType::kText;
  }
}

}  // namespace sinew::engine
