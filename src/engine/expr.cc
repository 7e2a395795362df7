#include "engine/expr.h"

#include <algorithm>

namespace sinew::engine {

const char* BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
    case BinaryOp::kConcat:
      return "||";
  }
  return "?";
}

ExprPtr Expr::Literal(Datum value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(value);
  return e;
}

ExprPtr Expr::Column(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr Expr::Star(std::string table) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  e->table = std::move(table);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->uop = op;
  e->args.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bop = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Between(ExprPtr target, ExprPtr lo, ExprPtr hi, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBetween;
  e->negated = negated;
  e->args.push_back(std::move(target));
  e->args.push_back(std::move(lo));
  e->args.push_back(std::move(hi));
  return e;
}

ExprPtr Expr::InList(ExprPtr target, std::vector<ExprPtr> list, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kInList;
  e->negated = negated;
  e->args.push_back(std::move(target));
  for (ExprPtr& item : list) e->args.push_back(std::move(item));
  return e;
}

ExprPtr Expr::IsNull(ExprPtr target, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIsNull;
  e->negated = negated;
  e->args.push_back(std::move(target));
  return e;
}

ExprPtr Expr::Function(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->fname = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->table = table;
  e->column = column;
  e->bound_slot = bound_slot;
  e->uop = uop;
  e->bop = bop;
  e->negated = negated;
  e->fname = fname;
  e->args.reserve(args.size());
  for (const ExprPtr& a : args) e->args.push_back(a->Clone());
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.is_text()) {
        return "'" + literal.str() + "'";
      }
      return literal.ToString();
    case ExprKind::kColumnRef:
      return table.empty() ? "\"" + column + "\""
                           : table + ".\"" + column + "\"";
    case ExprKind::kStar:
      return table.empty() ? "*" : table + ".*";
    case ExprKind::kUnary:
      return (uop == UnaryOp::kNot ? "NOT (" : "-(") + args[0]->ToString() +
             ")";
    case ExprKind::kBinary:
      return "(" + args[0]->ToString() + " " + BinaryOpSymbol(bop) + " " +
             args[1]->ToString() + ")";
    case ExprKind::kBetween:
      return "(" + args[0]->ToString() + (negated ? " NOT" : "") +
             " BETWEEN " + args[1]->ToString() + " AND " +
             args[2]->ToString() + ")";
    case ExprKind::kInList: {
      std::string out = "(" + args[0]->ToString() + (negated ? " NOT" : "") +
                        " IN (";
      for (size_t i = 1; i < args.size(); ++i) {
        if (i > 1) out += ", ";
        out += args[i]->ToString();
      }
      return out + "))";
    }
    case ExprKind::kIsNull:
      return "(" + args[0]->ToString() + " IS " + (negated ? "NOT " : "") +
             "NULL)";
    case ExprKind::kFunction: {
      std::string out = fname + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      for (; i + 1 < args.size(); i += 2) {
        out += " WHEN " + args[i]->ToString() + " THEN " +
               args[i + 1]->ToString();
      }
      if (i < args.size()) out += " ELSE " + args[i]->ToString();
      return out + " END";
    }
  }
  return "?";
}

bool Expr::IsAggregateCall() const {
  // Every aggregate name has at most five letters.
  if (kind != ExprKind::kFunction || fname.size() > 5) return false;
  return fname == "count" || fname == "sum" || fname == "avg" ||
         fname == "min" || fname == "max";
}

bool Expr::ContainsAggregate() const {
  if (IsAggregateCall()) return true;
  return std::any_of(args.begin(), args.end(), [](const ExprPtr& a) {
    return a->ContainsAggregate();
  });
}

bool Expr::ContainsColumnRef() const {
  if (kind == ExprKind::kColumnRef || kind == ExprKind::kStar) return true;
  return std::any_of(args.begin(), args.end(), [](const ExprPtr& a) {
    return a->ContainsColumnRef();
  });
}

bool Expr::ContainsNonAggregateFunction() const {
  if (kind == ExprKind::kFunction && !IsAggregateCall()) return true;
  return std::any_of(args.begin(), args.end(), [](const ExprPtr& a) {
    return a->ContainsNonAggregateFunction();
  });
}

void Expr::CollectColumnRefs(std::vector<const Expr*>* out) const {
  if (kind == ExprKind::kColumnRef) out->push_back(this);
  for (const ExprPtr& a : args) a->CollectColumnRefs(out);
}

void Expr::CollectColumnRefsMutable(std::vector<Expr*>* out) {
  if (kind == ExprKind::kColumnRef) out->push_back(this);
  for (ExprPtr& a : args) a->CollectColumnRefsMutable(out);
}

std::vector<ExprPtr> SplitConjuncts(const Expr& predicate) {
  std::vector<ExprPtr> out;
  if (predicate.kind == ExprKind::kBinary &&
      predicate.bop == BinaryOp::kAnd) {
    for (const ExprPtr& side : predicate.args) {
      std::vector<ExprPtr> sub = SplitConjuncts(*side);
      for (ExprPtr& c : sub) out.push_back(std::move(c));
    }
  } else {
    out.push_back(predicate.Clone());
  }
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (ExprPtr& c : conjuncts) {
    if (out == nullptr) {
      out = std::move(c);
    } else {
      out = Expr::Binary(BinaryOp::kAnd, std::move(out), std::move(c));
    }
  }
  return out;
}

}  // namespace sinew::engine
