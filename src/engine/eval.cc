#include "engine/eval.h"

#include <algorithm>
#include <optional>

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

Status ArithFaultStatus(ArithFault fault) {
  switch (fault) {
    case ArithFault::kNone: return Status::OK();
    case ArithFault::kDivisionByZero:
      return Status::InvalidArgument("division by zero");
    case ArithFault::kModuloByZero:
      return Status::InvalidArgument("modulo by zero");
    case ArithFault::kOutOfRange:
      return Status::InvalidArgument("integer out of range");
  }
  return Status::Internal("unknown arithmetic fault");
}

Result<Datum> ArithmeticOp(BinaryOp op, const Datum& lhs, const Datum& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Datum::Null();
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::TypeError("arithmetic on non-numeric values");
  }
  if (lhs.is_int() && rhs.is_int()) {
    int64_t v;
    const ArithFault fault =
        IntArith(op, lhs.int_value(), rhs.int_value(), &v);
    if (fault != ArithFault::kNone) return ArithFaultStatus(fault);
    return Datum::Int(v);
  }
  double v;
  const ArithFault fault =
      DoubleArith(op, lhs.AsDouble(), rhs.AsDouble(), &v);
  if (fault != ArithFault::kNone) return ArithFaultStatus(fault);
  return Datum::Double(v);
}

Result<Datum> NegateOp(const Datum& v) {
  if (v.is_null()) return Datum::Null();
  if (v.is_int()) {
    int64_t neg;
    const ArithFault fault = IntNeg(v.int_value(), &neg);
    if (fault != ArithFault::kNone) return ArithFaultStatus(fault);
    return Datum::Int(neg);
  }
  if (v.is_double()) return Datum::Double(-v.double_value());
  return Status::TypeError("unary minus on non-numeric");
}

}  // namespace eval_detail

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
