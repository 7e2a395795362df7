// Expression AST shared by the parser, the Sinew query rewriter, the planner
// and the evaluator. A single tagged struct (rather than a class hierarchy)
// keeps rewriting — the heart of Sinew's user layer — simple: the rewriter
// walks the tree and replaces column refs with virtual-column references.

#ifndef SINEW_ENGINE_EXPR_H_
#define SINEW_ENGINE_EXPR_H_

#include <compare>
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
  kVirtual,    // a document attribute resolved at rewrite time
               //   (args: its source columns; see Expr::virtual_sources)
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

/// One typed variant of a document attribute inside a serialized source
/// document: descend through the nested-object attributes `prefix_ids`,
/// then extract `attr_id` and decode it per `type_tag` (a ValueType tag;
/// opaque to the engine). `raw_bytes` skips decoding and yields the value's
/// serialized bytes verbatim. Ordered by (prefix_ids, attr_id, raw_bytes,
/// type_tag): the BatchExtractFn order.
struct ExtractTarget {
  std::vector<uint32_t> prefix_ids;
  uint32_t attr_id = 0;
  bool raw_bytes = false;
  int64_t type_tag = 0;

  friend auto operator<=>(const ExtractTarget&,
                          const ExtractTarget&) = default;
  friend bool operator==(const ExtractTarget&,
                         const ExtractTarget&) = default;
};

/// A kVirtual node's sources, parallel to its args (see Expr).
using VirtualSources = std::vector<std::vector<ExtractTarget>>;

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;

  // kLiteral
  Datum literal;
  /// kLiteral: a parameter slot of a cached plan when >= 0 (see
  /// sinew/plan_cache.h). `literal` keeps the value the plan was built
  /// with, for typing and estimates; execution reads the value bound to
  /// slot `param`, and constant folding leaves the node alone.
  int param = -1;
  /// kLiteral parsed from SQL text: the bytes [src_begin, src_end) from the
  /// literal's first character to the next token. src_end == 0: none.
  uint32_t src_begin = 0;
  uint32_t src_end = 0;

  // kColumnRef / kStar: `table` is the (optional) alias qualifier; `column`
  // is the logical, possibly dotted, column name. After binding,
  // `bound_slot` indexes the operator's input row. kVirtual: `column` is
  // the attribute's logical path.
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

  // kVirtual: the args are the attribute's sources in resolution order,
  // each a kColumnRef; a row reads the first source that is not NULL.
  // virtual_sources[i] lists the attribute's typed variants inside source
  // i, in ExtractTarget order, and the value is the present variant of
  // lowest type tag (NULL if none); an empty list marks the attribute's
  // own physical column, whose value is read as is. Built once by the
  // rewriter and shared by clones.
  std::shared_ptr<const VirtualSources> virtual_sources;

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
  static ExprPtr Virtual(std::string path, std::vector<ExprPtr> sources,
                         VirtualSources targets);

  ExprPtr Clone() const;

  /// Canonical text rendering; doubles as the structural-equality key used
  /// for GROUP BY matching. With `params`, a parameter slot renders the
  /// value bound to it.
  std::string ToString(const std::vector<Datum>* params = nullptr) const;

  /// True for count/sum/avg/min/max calls.
  bool IsAggregateCall() const;
  /// True if any node in the tree is an aggregate call.
  bool ContainsAggregate() const;
  /// True for a kColumnRef bound to an input slot.
  bool IsBoundColumnRef() const {
    return kind == ExprKind::kColumnRef && bound_slot >= 0;
  }
  /// True if any node is a kFunction that is not an aggregate (i.e. a UDF
  /// the optimizer has no statistics for).
  bool ContainsNonAggregateFunction() const;

  /// Collects column refs (pointers into this tree).
  void CollectColumnRefs(std::vector<const Expr*>* out) const;
};

/// Splits a predicate into top-level AND conjuncts (clones the pieces).
std::vector<ExprPtr> SplitConjuncts(const Expr& predicate);

/// Rebuilds a predicate from conjuncts (consumes them); nullptr if empty.
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_EXPR_H_
