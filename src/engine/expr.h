// Expression AST shared by the parser, the Sinew query rewriter, the planner
// and the evaluator. A single tagged struct (rather than a class hierarchy)
// keeps rewriting — the heart of Sinew's user layer — simple: the rewriter
// walks the tree and splices extraction function calls over column refs.

#ifndef SINEW_ENGINE_EXPR_H_
#define SINEW_ENGINE_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/datum.h"

namespace sinew::engine {

enum class ExprKind : uint8_t {
  kLiteral,    // literal datum
  kColumnRef,  // [table.]column (column may itself be dotted: "user.id")
  kStar,       // * or alias.* (select lists and COUNT(*))
  kUnary,      // NOT, unary -
  kBinary,     // comparisons, arithmetic, AND/OR, LIKE
  kBetween,    // a BETWEEN lo AND hi  (args: a, lo, hi)
  kInList,     // a IN (e1, e2, ...)   (args: a, e1, ...)
  kIsNull,     // a IS [NOT] NULL      (args: a)
  kFunction,   // f(args); includes aggregates and UDFs
  kCase,       // CASE WHEN c1 THEN v1 [...] ELSE ve END
               //   (args: c1, v1, c2, v2, ..., [else])
};

enum class BinaryOp : uint8_t {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kAnd,
  kOr,
  kLike,
  kConcat,
};

enum class UnaryOp : uint8_t { kNot, kNeg };

const char* BinaryOpSymbol(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;

  // kLiteral
  Datum literal;

  // kColumnRef / kStar: `table` is the (optional) alias qualifier; `column`
  // is the logical, possibly dotted, column name. After binding,
  // `bound_slot` indexes the operator's input row.
  std::string table;
  std::string column;
  int bound_slot = -1;

  // kUnary / kBinary
  UnaryOp uop = UnaryOp::kNot;
  BinaryOp bop = BinaryOp::kEq;

  // kBetween / kInList / kIsNull / kLike: NOT-variant flag.
  bool negated = false;

  // kFunction: lower-cased function name.
  std::string fname;

  std::vector<ExprPtr> args;

  // --- constructors ---
  static ExprPtr Literal(Datum value);
  static ExprPtr Column(std::string table, std::string column);
  static ExprPtr Star(std::string table = "");
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Between(ExprPtr target, ExprPtr lo, ExprPtr hi, bool negated);
  static ExprPtr InList(ExprPtr target, std::vector<ExprPtr> list, bool negated);
  static ExprPtr IsNull(ExprPtr target, bool negated);
  static ExprPtr Function(std::string name, std::vector<ExprPtr> args);

  ExprPtr Clone() const;

  /// Canonical text rendering; doubles as the structural-equality key used
  /// for GROUP BY matching.
  std::string ToString() const;

  /// True for count/sum/avg/min/max calls.
  bool IsAggregateCall() const;
  /// True if any node in the tree is an aggregate call.
  bool ContainsAggregate() const;
  /// True if any node is a kColumnRef.
  bool ContainsColumnRef() const;
  /// True for a kColumnRef bound to an input slot.
  bool IsBoundColumnRef() const {
    return kind == ExprKind::kColumnRef && bound_slot >= 0;
  }
  /// True if any node is a kFunction that is not an aggregate (i.e. a UDF
  /// the optimizer has no statistics for).
  bool ContainsNonAggregateFunction() const;

  /// Collects column refs (pointers into this tree).
  void CollectColumnRefs(std::vector<const Expr*>* out) const;
  void CollectColumnRefsMutable(std::vector<Expr*>* out);
};

/// Splits a predicate into top-level AND conjuncts (clones the pieces).
std::vector<ExprPtr> SplitConjuncts(const Expr& predicate);

/// Rebuilds a predicate from conjuncts (consumes them); nullptr if empty.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_EXPR_H_
